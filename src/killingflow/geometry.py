"""Rotationally symmetric model geometry.

A model is the data (n, xi, iota, rho): the dimension of the base, the
metric profile xi and the lower comparison profile iota of the base metric
dr^2 + xi^2(r) dtheta^2, and the radial warping function rho of the ambient
metric rho^2 ds^2 + dr^2 + xi^2 dtheta^2.  Everything downstream (CMC
profiles, barriers, the flow solver) evaluates geometry exclusively through
this module.

Every radial function (the ProfileSpec methods; ModelGeometry's A,
A_prime, V, zeta, H, H_prime, Hcyl, log_rho_d1 and log_rho_d2;
AmbientFrameData.ricci_eigenvalues, a triple) evaluates elementwise on
float64 arrays, in one form: a float radius gives a float, never a 0-d
array, and an array of radii a float64 array of its shape, bit for bit
the values at its elements.

Closed-form Christoffel symbols and curvature of the ambient warped metric
are derived in docs/ambient_curvature.md and cross-checked in the tests by
a finite-difference curvature oracle built directly from the metric
components.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quadrature import QuadratureError, gauss_kronrod

R_MIN = 1e-12


class GeometryError(ValueError):
    """Model construction or evaluation failure."""


class ValidationError(GeometryError):
    """A pointwise geometric inequality failed on the sample ladder."""


class TableFormatError(GeometryError):
    """Malformed table profile data."""


# ---------------------------------------------------------------------------
# scalar input rules: geometry, cmc, barriers, flow and exhaustion check
# each public scalar input with one of these, raising their own exception
# class.  Each comparison is false for nan, so nan fails every rule.


def _positive(name: str, value: float, error: type[Exception]) -> None:
    """Raise error unless value is positive and finite."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")


def _nonnegative(name: str, value: float, error: type[Exception]) -> None:
    """Raise error unless value is nonnegative and finite."""
    if not 0.0 <= value < math.inf:
        raise error(f"{name} must be nonnegative and finite, got {value}")


def _integer(name: str, value, minimum: int, error: type[Exception]) -> int:
    """value as an int; raises error unless it is an integer >= minimum, a
    Python or numpy integer but not a bool, a float or a string."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not value >= minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class ProfileSpec:
    """A radial profile: one of the analytic built-ins or a sampled table.

    kinds:
      euclidean        value(r) = r
      hyperbolic(k)    value(r) = sinh(k r) / k
      cosh(k)          value(r) = cosh(k r)
      constant(c)      value(r) = c
      table            monotone-cubic interpolant of (r, value) samples
    """

    kind: str
    kappa: float = 1.0
    const: float = 1.0
    samples: tuple[tuple[float, float], ...] | None = None

    _KINDS = ("euclidean", "hyperbolic", "cosh", "constant", "table")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise GeometryError(f"unknown profile kind {self.kind!r}")
        if self.kind in ("hyperbolic", "cosh"):
            _positive("curvature scale kappa", self.kappa, GeometryError)
        if self.kind == "table":
            if not self.samples or len(self.samples) < 4:
                raise TableFormatError("table profile needs >= 4 samples")
            rs = [p[0] for p in self.samples]
            if any(b <= a for a, b in zip(rs, rs[1:])):
                raise TableFormatError("table radii must be strictly increasing")
            from scipy.interpolate import PchipInterpolator
            interp = PchipInterpolator(rs,
                                       [p[1] for p in self.samples],
                                       extrapolate=True)
            object.__setattr__(self, "_interp", interp)
            object.__setattr__(self, "_d1", interp.derivative(1))
            object.__setattr__(self, "_d2", interp.derivative(2))
            object.__setattr__(self, "r_max_table", rs[-1])

    # -- evaluation ---------------------------------------------------------

    def value(self, r):
        x = np.asarray(r, dtype=float)
        if self.kind == "euclidean":
            return x + 0.0
        if self.kind == "hyperbolic":
            return np.sinh(self.kappa * x) / self.kappa
        if self.kind == "cosh":
            return np.cosh(self.kappa * x)
        if self.kind == "constant":
            return _fill(x, self.const)
        return self._interp(x)[()]

    def d1(self, r):
        x = np.asarray(r, dtype=float)
        if self.kind == "euclidean":
            return _fill(x, 1.0)
        if self.kind == "hyperbolic":
            return np.cosh(self.kappa * x)
        if self.kind == "cosh":
            return self.kappa * np.sinh(self.kappa * x)
        if self.kind == "constant":
            return _fill(x, 0.0)
        return self._d1(x)[()]

    def d2(self, r):
        x = np.asarray(r, dtype=float)
        if self.kind in ("euclidean", "constant"):
            return _fill(x, 0.0)
        if self.kind == "hyperbolic":
            return self.kappa * np.sinh(self.kappa * x)
        if self.kind == "cosh":
            return self.kappa ** 2 * np.cosh(self.kappa * x)
        return self._d2(x)[()]

    # ratios value'/value and value''/value, computed stably for built-ins
    # (direct quotients overflow for large hyperbolic arguments)

    def ratio_d1(self, r):
        x = np.asarray(r, dtype=float)
        if self.kind == "hyperbolic":
            return self.kappa / np.tanh(self.kappa * x)
        if self.kind == "cosh":
            return self.kappa * np.tanh(self.kappa * x)
        if self.kind == "euclidean":
            return 1.0 / x
        if self.kind == "constant":
            return _fill(x, 0.0)
        return self._d1(x) / self._interp(x)

    def ratio_d2(self, r):
        x = np.asarray(r, dtype=float)
        if self.kind in ("hyperbolic", "cosh"):
            return _fill(x, self.kappa ** 2)
        if self.kind in ("euclidean", "constant"):
            return _fill(x, 0.0)
        return self._d2(x) / self._interp(x)

    # (value'^2 - 1)/value^2, the sphere-curvature defect of a metric profile
    def sphere_defect(self, r):
        x = np.asarray(r, dtype=float)
        if self.kind == "hyperbolic":
            return _fill(x, self.kappa ** 2)
        if self.kind == "euclidean":
            return _fill(x, 0.0)
        v, d = self.value(x), self.d1(x)
        return (d * d - 1.0) / np.maximum(v * v, R_MIN ** 2)


def _fill(x: np.ndarray, c: float):
    """c at every radius of x: a float for a 0-d x."""
    return np.full(x.shape, c)[()]


def euclidean_profile() -> ProfileSpec:
    return ProfileSpec("euclidean")


def hyperbolic_profile(kappa: float = 1.0) -> ProfileSpec:
    return ProfileSpec("hyperbolic", kappa=kappa)


def cosh_profile(kappa: float = 1.0) -> ProfileSpec:
    return ProfileSpec("cosh", kappa=kappa)


def constant_profile(c: float = 1.0) -> ProfileSpec:
    return ProfileSpec("constant", const=c)


def table_profile_from_csv(path) -> ProfileSpec:
    """Load a table profile from CSV with header ``r,value``.

    Lines starting with ``#`` are ignored.
    """
    rows: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.lstrip().startswith("#"))
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["r", "value"]:
            raise TableFormatError(f"{path}: expected header 'r,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError) as exc:
                raise TableFormatError(f"{path}:{lineno}: bad row {row!r}") from exc
    return ProfileSpec("table", samples=tuple(rows))


# ---------------------------------------------------------------------------
# model


class _CumulativeIntegral:
    """Cumulative integral F(r) of f from start, at a radius or an array.

    ``f`` is vectorised.  F is kept on knots: the lattice
    start + k * _panel and the ``breaks``, where f is not smooth (the radii
    of table profiles).  Knots are added on demand with one Gauss-Kronrod
    call over the new panels and a cumulative sum.  A query is then F at
    the knot below it plus one Gauss-Kronrod call over the gaps from those
    knots, for every radius of the query at once.  So F(r) depends on r
    only, not on what was asked before or alongside it, and no gap crosses
    a break.  A panel of width w gets the tolerance
    tol * max(1, |f(mid)| w) * w / _panel: relative to its own scale, so
    that fast-growing integrands (the area profile grows exponentially on
    negatively curved models) don't demand sub-rounding accuracy, and
    proportional to its width.  A gap gets its panel's share by width.
    """

    _panel = 0.5

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], tol: float,
                 start: float = 0.0, breaks: Sequence[float] = ()):
        self._f = f
        self._tol = tol
        self._start = start
        self._breaks = np.array([x for x in breaks if x > start], dtype=float)
        self._knots = np.array([float(start)])
        self._F = np.zeros(1)
        self._rate = np.zeros(0)         # tolerance per unit width, per panel

    def _extend(self, top: float) -> None:
        """Add the knots up to the first lattice point beyond top."""
        last = self._knots[-1]
        k = np.arange(round((last - self._start) / self._panel) + 1,
                      math.floor((top - self._start) / self._panel) + 2)
        end = self._start + self._panel * k[-1]
        b = np.union1d(self._start + self._panel * k, self._breaks[
            (self._breaks > last) & (self._breaks < end)])
        a = np.concatenate(([last], b[:-1]))
        w = b - a
        rate = self._tol * np.maximum(
            1.0, np.abs(self._f(a + 0.5 * w)) * w) / self._panel
        gaps = gauss_kronrod(self._f, a, b, rate * w)
        self._knots = np.concatenate((self._knots, b))
        # accumulate from the last F, knot by knot, so F on a knot does not
        # depend on how earlier queries split the extension
        self._F = np.concatenate(
            (self._F, np.cumsum(np.concatenate(([self._F[-1]], gaps)))[1:]))
        self._rate = np.concatenate((self._rate, rate))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < self._start):
            raise GeometryError(f"radius below integral start {self._start}")
        if np.max(r, initial=self._start) >= self._knots[-1]:
            self._extend(float(np.max(r)))
        k = np.searchsorted(self._knots, r, side="right") - 1
        knot = self._knots[k]
        return self._F[k] + gauss_kronrod(self._f, knot, r,
                                          self._rate[k] * (r - knot))


@dataclass
class ModelGeometry:
    """Validated rotationally symmetric model data."""

    n: int
    xi: ProfileSpec
    iota: ProfileSpec
    rho: ProfileSpec
    quad_tol: float
    r_max: float
    validation: dict = field(default_factory=dict)

    def __post_init__(self):
        self._V = _CumulativeIntegral(self.A, self.quad_tol,
                                      breaks=self.breaks)
        self._zeta = _CumulativeIntegral(self.xi.value, self.quad_tol,
                                         breaks=self.breaks)
        # closed forms for the built-in profile pairs: the antiderivatives
        # V and zeta, q_drop, H', the radial CMC height v_R(r) (cmc) and
        # the antiderivative of V/A (the supersolution's rim time,
        # barriers).  The quadrature paths stay as the general fallback
        # (and as the oracle the closed forms are tested against)
        n = self.n
        self._V_closed = self._zeta_closed = self._q_drop_closed = None
        self._minus_q_prime_closed = None
        self._cmc_height_closed = self._time_closed = None
        if self.xi.kind == "euclidean":
            self._zeta_closed = lambda r: 0.5 * r * r
            if self.rho.kind == "constant":
                c = self.rho.const
                self._V_closed = lambda r: c * r ** n / n
                # q = A/V = n/r
                self._q_drop_closed = lambda s, R: n * (R - s) / (s * R)
                self._minus_q_prime_closed = lambda r: n / (r * r)
                # v' = -r / (c sqrt(R^2 - r^2)): a hemisphere scaled by 1/c
                self._cmc_height_closed = \
                    lambda R, r: np.sqrt((R - r) * (R + r)) / c
                # V/A = r/n
                self._time_closed = lambda r: r * r / (2 * n)
        elif self.xi.kind == "hyperbolic":
            k = self.xi.kappa
            self._zeta_closed = lambda r: (np.cosh(k * r) - 1.0) / (k * k)
            if self.rho.kind == "cosh" and self.rho.kappa == k:
                # A = cosh(kr) (sinh(kr)/k)^(n-1), an exact derivative
                self._V_closed = \
                    lambda r: np.power(np.sinh(k * r), n) / (n * k ** n)
                # q = A/V = n k coth(kr)
                self._q_drop_closed = lambda s, R: (
                    n * k * np.sinh(k * (R - s))
                    / (np.sinh(k * s) * math.sinh(k * R)))
                # A^2 - A'V cancels to 0.0 once coth(kr) rounds to 1
                self._minus_q_prime_closed = \
                    lambda r: n * k * k / np.sinh(k * r) ** 2

                def cmc_height(R, r):
                    # v' = -cosh(a) sinh(b) / (cosh(b) sqrt(sinh^2 a -
                    # sinh^2 b)) for a = kR, b = kr, whatever n, so v is
                    # ln[(cosh a + sqrt(sinh(a - b) sinh(a + b))) / cosh b]
                    # / k; written as (a - b) + log1p(x) with only decaying
                    # exponentials, it cannot overflow and is 0.0 at b = a
                    a, b = k * R, k * r
                    m = np.expm1(-2.0 * (a - b))
                    e = np.exp(-2.0 * b)
                    root = np.sqrt(m * np.expm1(-2.0 * (a + b)))
                    return ((a - b) + np.log1p((root + e * m) / (1.0 + e))) / k

                self._cmc_height_closed = cmc_height
                # V/A = tanh(kr)/(nk); ln cosh x = x + log1p(expm1(-2x)/2)
                self._time_closed = lambda r: (
                    k * r + np.log1p(0.5 * np.expm1(-2.0 * k * r))
                ) / (n * k * k)

    @property
    def breaks(self) -> tuple[float, ...]:
        """Radii where the profiles are not smooth: the samples of table
        profiles, whose monotone cubics have jumps in the second
        derivative there."""
        return tuple(sorted({r for p in (self.xi, self.rho)
                             if p.kind == "table" for r, _ in p.samples}))

    # -- radial functions ---------------------------------------------------

    # np.power, not **: a float's ** is the C library's pow, which can
    # differ in the last bit from numpy's on an array

    def A(self, r):
        """Weighted sphere area rho(r) xi(r)^(n-1)."""
        return self.rho.value(r) * np.power(self.xi.value(r), self.n - 1)

    def A_prime(self, r):
        xi = self.xi.value(r)
        return (self.rho.d1(r) * np.power(xi, self.n - 1)
                + (self.n - 1) * self.rho.value(r) * np.power(xi, self.n - 2)
                * self.xi.d1(r))

    def V(self, r):
        """Weighted ball volume: integral of A from 0 to r."""
        return (self._V_closed or self._V)(np.asarray(r, dtype=float))[()]

    def _finite_at(self, R) -> bool:
        """Whether A and V are finite at every radius of R, a rim radius of
        the CMC heights or of the supersolution.  A V by quadrature whose
        knots reach past the overflow of A raises QuadratureError: not
        finite either.  (|x| < inf is isfinite at a tenth of the cost of
        np.isfinite(x).all() on the numpy scalar of every CMC height.)"""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return (all((abs(self.A(R)) < math.inf).flat)
                        and all((abs(self.V(R)) < math.inf).flat))
            except QuadratureError:
                return False

    def zeta(self, r):
        """Antiderivative of xi; sizes parabolic cylinders."""
        return (self._zeta_closed or self._zeta)(
            np.asarray(r, dtype=float))[()]

    def q_drop(self, s: np.ndarray, R: float) -> np.ndarray:
        """q(s) - q(R) for q = A/V = -nH, at an array of radii s in
        (0, R], without the cancellation of the direct difference near R.

        In closed form for the built-in pairs.  Otherwise it is the
        integral of -q' = (A^2 - A' V)/V^2 over [s, R]: one Gauss-Kronrod
        call integrates the gaps between the sorted radii from R inward,
        and a cumulative sum gives the drop at all of them.  The gaps are
        slivers where the radii cluster at R, so one panel each almost
        always suffices.  The rounding noise of -q', ulp of A A'/V^2, is
        the same at every depth.  (The drop of q^2 V^2 = (nHV)^2 has the
        derivative 2 A nH^2 V, whose noise, ulp of A A', is largest at R;
        integrated from there it would swamp the deep end of a wide zone,
        as the hyperbolic model's is at large R.)
        """
        if self.exact_q_drop:
            return self._q_drop_closed(s, R)
        return self._q_drop_quadrature(s, R)

    @property
    def exact_q_drop(self) -> bool:
        """Whether q_drop is in closed form, free of quadrature noise."""
        return self._q_drop_closed is not None

    def _minus_q_prime(self, r):
        """-q' = (A^2 - A' V)/V^2 for q = A/V, at a radius or an array."""
        A = self.A(r)
        V = self.V(r)
        return (A * A - self.A_prime(r) * V) / (V * V)

    def _q_drop_quadrature(self, s: np.ndarray, R: float) -> np.ndarray:
        order = np.argsort(s)[::-1]
        s_in = s[order]
        prev = np.concatenate(([R], s_in[:-1]))
        noise = 1e-15 * abs(self.A_prime(R) * self.A(R)) / self.V(R) ** 2
        rate = 1e-12 * abs(self._minus_q_prime(R))
        drop = np.empty(s.size)
        drop[order] = np.cumsum(gauss_kronrod(self._minus_q_prime, s_in, prev,
                                              rate * (prev - s_in), noise))
        return drop

    def H(self, r):
        """Mean curvature -A/(nV) of the radial CMC family (negative)."""
        r = _off_pole(r, "H")
        return -self.A(r) / (self.n * self.V(r))

    def H_prime(self, r):
        # H = -q/n
        return (self._minus_q_prime_closed or self._minus_q_prime)(
            _off_pole(r, "H'")) / self.n

    def Hcyl(self, r):
        """Mean curvature of the Killing cylinder over the sphere r."""
        r = _off_pole(r, "Hcyl")
        return ((self.n - 1) * self.xi.ratio_d1(r)
                + self.rho.ratio_d1(r)) / self.n

    # -- log-rho helpers ----------------------------------------------------

    def log_rho_d1(self, r):
        return self.rho.ratio_d1(r)

    def log_rho_d2(self, r):
        return self.rho.ratio_d2(r) - np.square(self.rho.ratio_d1(r))

    def spec_dict(self) -> dict:
        def pd(p: ProfileSpec):
            d = {"kind": p.kind}
            if p.kind in ("hyperbolic", "cosh"):
                d["kappa"] = p.kappa
            if p.kind == "constant":
                d["const"] = p.const
            if p.kind == "table":
                d["samples"] = [list(s) for s in p.samples]
            return d

        return {"n": self.n, "xi": pd(self.xi), "iota": pd(self.iota),
                "rho": pd(self.rho), "quad_tol": self.quad_tol,
                "r_max": self.r_max}


def _off_pole(r, name: str) -> np.ndarray:
    """r as a float64 array; GeometryError if it reaches the pole r <= R_MIN,
    where ``name`` is undefined, or holds a nan or an inf."""
    x = np.asarray(r, dtype=float)
    # min and max keep a nan, and each comparison is false for it
    low, high = x.min(initial=math.inf), x.max(initial=0.0)
    if not low > R_MIN:
        raise GeometryError(f"{name} undefined at r={low}")
    if not high < math.inf:
        raise GeometryError(f"{name} undefined at r={high}")
    return x


def _ladder(r_max: float, count: int) -> np.ndarray:
    # geometric refinement near 0 so pole-side inequalities get sampled hard
    return r_max * np.geomspace(1e-8, 1.0, count)


MIN_DIMENSION = 2


def make_model(spec_xi: ProfileSpec, spec_iota: ProfileSpec,
               spec_rho: ProfileSpec, n: int,
               quad_tol: float = 1e-10) -> ModelGeometry:
    """Validate the geometric conditions on a sample ladder and build a model.

    The ladder runs out to r_max = 1e3, or to the end of the shortest
    table profile.

    Raises ValidationError naming the violated inequality and the sample
    point; the passing ladder is recorded in ``model.validation``.
    """
    n = _integer("dimension n", n, MIN_DIMENSION, GeometryError)
    _positive("quad_tol", quad_tol, GeometryError)
    for name, prof in (("xi", spec_xi), ("iota", spec_iota)):
        if prof.kind == "table":
            r0, v0 = prof.samples[0]
            if r0 != 0.0 or v0 != 0.0:
                raise TableFormatError(
                    f"{name} table must start at (0, 0), got ({r0}, {v0})")
        if abs(prof.value(0.0)) > 1e-12:
            raise ValidationError(f"{name}(0) must vanish")
    r_max = 1e3
    for prof in (spec_xi, spec_iota, spec_rho):
        if prof.kind == "table":
            r_max = min(r_max, prof.r_max_table)

    rs = _ladder(r_max, 512)
    # sinh/cosh overflow to inf at the far end of the ladder; the
    # positivity and ratio comparisons below remain valid there
    with np.errstate(over="ignore"):
        slack = 1e-10
        checks = [
            ("xi > 0", spec_xi.value(rs) > 0),
            ("iota > 0", spec_iota.value(rs) > 0),
            ("rho > 0", spec_rho.value(rs) > 0),
            ("rho'/rho <= xi'/xi",
             spec_rho.ratio_d1(rs) <= spec_xi.ratio_d1(rs) + slack),
            ("rho'/rho <= iota'/iota",
             spec_rho.ratio_d1(rs) <= spec_iota.ratio_d1(rs) + slack),
            ("iota''/iota <= xi''/xi",
             spec_iota.ratio_d2(rs) <= spec_xi.ratio_d2(rs) + slack),
        ]
    for name, ok in checks:
        if not ok.all():
            bad = rs[np.argmin(ok)]
            raise ValidationError(f"condition '{name}' fails at r={bad:.6g}")

    model = ModelGeometry(n=n, xi=spec_xi, iota=spec_iota, rho=spec_rho,
                          quad_tol=quad_tol, r_max=r_max,
                          validation={"r_max": r_max,
                                      "checks": [c[0] for c in checks]})
    return model


def euclidean_model(n: int = 2, quad_tol: float = 1e-10) -> ModelGeometry:
    """Flat model: xi = iota = r, rho = 1 (ambient R^(n+1))."""
    return make_model(euclidean_profile(), euclidean_profile(),
                      constant_profile(1.0), n, quad_tol)


def hyperbolic_model(n: int = 2, kappa: float = 1.0,
                     quad_tol: float = 1e-10) -> ModelGeometry:
    """Hyperbolic model: xi = iota = sinh(kr)/k, rho = cosh(kr)."""
    return make_model(hyperbolic_profile(kappa), hyperbolic_profile(kappa),
                      cosh_profile(kappa), n, quad_tol)


# The models a config or the command line names: kind -> builder of
# (n, kappa, quad_tol).
MODELS = {
    "euclidean": lambda n, kappa, quad_tol: euclidean_model(n, quad_tol),
    "hyperbolic": hyperbolic_model}


def named_model(kind: str, n: int = 2, kappa: float = 1.0,
                quad_tol: float = 1e-10) -> ModelGeometry:
    """MODELS[kind]; GeometryError for an unknown kind, for any value its
    builder rejects, and for a kappa that is not positive and finite also
    where the kind ignores it."""
    if kind not in MODELS:
        raise GeometryError(f"unknown model kind {kind!r} "
                            f"(known: {', '.join(MODELS)})")
    hyperbolic_profile(kappa)
    return MODELS[kind](n, kappa, quad_tol)


# ---------------------------------------------------------------------------
# ambient frame: Christoffels and curvature of rho^2 ds^2 + dr^2 + xi^2 dth^2
#
# Orthonormal frame e_s = rho^{-1} d_s, e_r = d_r, e_th = xi^{-1} d_th.
# The Ricci tensor is diagonal in this frame; see docs/ambient_curvature.md.


@dataclass(frozen=True)
class AmbientFrameData:
    model: ModelGeometry

    def christoffels(self, r: float) -> dict:
        """Nonzero Christoffel symbols at radius r in (s, r, theta) coords.

        Keys are (upper, lower, lower) with symmetric lower pairs listed
        once in lexicographic order.
        """
        m = self.model
        r = _off_pole(r, "christoffels")
        rho = m.rho.value(r)
        rho1 = m.rho.d1(r)
        xi = m.xi.value(r)
        xi1 = m.xi.d1(r)
        return {
            ("s", "s", "r"): rho1 / rho,
            ("r", "s", "s"): -rho * rho1,
            ("r", "theta", "theta"): -xi * xi1,
            ("theta", "r", "theta"): xi1 / xi,
        }

    def ricci_eigenvalues(self, r) -> tuple:
        """(Ric_ss, Ric_rr, Ric_thth) at radii r, in the orthonormal frame."""
        m = self.model
        n = m.n
        rho_rr = m.rho.ratio_d2(r)        # rho''/rho
        xi_rr = m.xi.ratio_d2(r)          # xi''/xi
        rho_r = m.rho.ratio_d1(r)         # rho'/rho
        xi_r = m.xi.ratio_d1(r)           # xi'/xi
        defect = m.xi.sphere_defect(r)    # (xi'^2 - 1)/xi^2
        ric_ss = -rho_rr - (n - 1) * rho_r * xi_r
        ric_rr = -rho_rr - (n - 1) * xi_rr
        ric_tt = -xi_rr - (n - 2) * defect - rho_r * xi_r
        return ric_ss, ric_rr, ric_tt


def ambient_frame(model: ModelGeometry) -> AmbientFrameData:
    return AmbientFrameData(model)


def lower_ricci_bounds(model: ModelGeometry, R: float) -> tuple[float, float]:
    """Constants (L, L1) with Ric_g - Hess log rho >= -L g on B_R and
    Ric_ambient >= -L1 g_ambient, both taken as the smallest nonnegative
    constants realized on a sample ladder.

    The metric closes smoothly at the pole only if xi'(0) = 1 and
    xi''(0+) = 0.  A table xi's monotone cubic rarely does: otherwise the
    pole is a cone point (xi'(0) != 1) or xi''/xi grows like 1/r, the
    sampled constants only measure how near r = 0 the ladder reaches
    (2.67e7 for a 25-sample sinh table at R = 1), and GeometryError names
    the failing value instead.
    """
    _positive("R", R, GeometryError)
    xi = model.xi
    if xi.kind == "table":
        for label, value, smooth in (("xi'(0)", float(xi.d1(0.0)), 1.0),
                                     ("xi''(0+)", float(xi.d2(0.0)), 0.0)):
            if value != smooth:
                raise GeometryError(
                    f"table profile xi does not close smoothly at the "
                    f"pole: {label} = {value!r}, not {smooth}, so the "
                    f"curvature is singular at r = 0 and has no bound")
    rs = _ladder(R, 512)
    n = model.n
    xi_rr = xi.ratio_d2(rs)
    xi_r = xi.ratio_d1(rs)
    defect = xi.sphere_defect(rs)
    lrho1 = model.log_rho_d1(rs)
    lrho2 = model.log_rho_d2(rs)
    # base Ricci minus Hess log rho, radial and tangential eigenvalues
    lam_r = -(n - 1) * xi_rr - lrho2
    lam_t = -xi_rr - (n - 2) * defect - xi_r * lrho1
    L = max(0.0, float(np.max(-lam_r)), float(np.max(-lam_t)))
    lams = np.stack(ambient_frame(model).ricci_eigenvalues(rs))
    L1 = max(0.0, float(np.max(-lams)))
    return L, L1
