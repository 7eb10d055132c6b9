"""Rotationally symmetric model geometry.

A model is the data (n, xi, iota, rho): the dimension of the base, the
metric profile xi and the lower comparison profile iota of the base metric
dr^2 + xi^2(r) dtheta^2, and the radial warping function rho of the ambient
metric rho^2 ds^2 + dr^2 + xi^2 dtheta^2.  Everything downstream (CMC
profiles, barriers, the flow solver) evaluates geometry exclusively through
this module.

Closed-form Christoffel symbols and curvature of the ambient warped metric
are derived in docs/ambient_curvature.md and cross-checked in the tests by
a finite-difference curvature oracle built directly from the metric
components.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .quadrature import adaptive_simpson

R_MIN = 1e-12


class GeometryError(ValueError):
    """Model construction or evaluation failure."""


class ValidationError(GeometryError):
    """A pointwise geometric inequality failed on the sample ladder."""


class TableFormatError(GeometryError):
    """Malformed table profile data."""


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
        if self.kind in ("hyperbolic", "cosh") and self.kappa <= 0:
            raise GeometryError("curvature scale kappa must be positive")
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

    # -- evaluation (scalar or ndarray) ------------------------------------

    def value(self, r):
        if isinstance(r, (float, int)):
            # scalar fast path: the rim quadratures hit this millions of
            # times and np.asarray/np.ndim dominate the profile otherwise
            if self.kind == "euclidean":
                return float(r)
            if self.kind == "hyperbolic":
                return math.sinh(self.kappa * r) / self.kappa
            if self.kind == "cosh":
                return math.cosh(self.kappa * r)
            if self.kind == "constant":
                return self.const
            return self._interp(r)
        if self.kind == "euclidean":
            return np.asarray(r, dtype=float) + 0.0 if np.ndim(r) else float(r)
        if self.kind == "hyperbolic":
            return np.sinh(self.kappa * np.asarray(r, dtype=float)) / self.kappa
        if self.kind == "cosh":
            return np.cosh(self.kappa * np.asarray(r, dtype=float))
        if self.kind == "constant":
            return np.full_like(np.asarray(r, dtype=float), self.const) \
                if np.ndim(r) else self.const
        return self._interp(r)

    def d1(self, r):
        if isinstance(r, (float, int)):
            if self.kind == "euclidean":
                return 1.0
            if self.kind == "hyperbolic":
                return math.cosh(self.kappa * r)
            if self.kind == "cosh":
                return self.kappa * math.sinh(self.kappa * r)
            if self.kind == "constant":
                return 0.0
            return self._d1(r)
        if self.kind == "euclidean":
            return np.ones_like(np.asarray(r, dtype=float)) if np.ndim(r) else 1.0
        if self.kind == "hyperbolic":
            return np.cosh(self.kappa * np.asarray(r, dtype=float))
        if self.kind == "cosh":
            return self.kappa * np.sinh(self.kappa * np.asarray(r, dtype=float))
        if self.kind == "constant":
            return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0
        return self._d1(r)

    def d2(self, r):
        if self.kind == "euclidean":
            return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0
        if self.kind == "hyperbolic":
            return self.kappa * np.sinh(self.kappa * np.asarray(r, dtype=float))
        if self.kind == "cosh":
            return self.kappa ** 2 * np.cosh(self.kappa * np.asarray(r, dtype=float))
        if self.kind == "constant":
            return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0
        return self._d2(r)

    # ratios value'/value and value''/value, computed stably for built-ins
    # (direct quotients overflow for large hyperbolic arguments)

    def ratio_d1(self, r):
        if self.kind == "hyperbolic":
            return self.kappa / np.tanh(self.kappa * np.asarray(r, dtype=float))
        if self.kind == "cosh":
            return self.kappa * np.tanh(self.kappa * np.asarray(r, dtype=float))
        if self.kind == "euclidean":
            return 1.0 / np.asarray(r, dtype=float) if np.ndim(r) else 1.0 / r
        if self.kind == "constant":
            return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0
        return self._d1(r) / self._interp(r)

    def ratio_d2(self, r):
        if self.kind in ("hyperbolic", "cosh"):
            k2 = self.kappa ** 2
            return np.full_like(np.asarray(r, dtype=float), k2) if np.ndim(r) else k2
        if self.kind in ("euclidean", "constant"):
            return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0
        return self._d2(r) / self._interp(r)

    # (value'^2 - 1)/value^2, the sphere-curvature defect of a metric profile
    def sphere_defect(self, r):
        if self.kind == "hyperbolic":
            k2 = self.kappa ** 2
            return np.full_like(np.asarray(r, dtype=float), k2) if np.ndim(r) else k2
        if self.kind == "euclidean":
            return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0
        v = np.asarray(self.value(r), dtype=float)
        d = np.asarray(self.d1(r), dtype=float)
        return (d * d - 1.0) / np.maximum(v * v, R_MIN ** 2)


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
    """Cached cumulative integral of a nonnegative integrand.

    Knots extend on demand and every evaluated point is inserted back into
    the knot list, so clustered queries (the rim quadratures ask for
    thousands of nearby radii) each integrate only a sliver.  Off-knot
    panels get a tolerance scaled by their width, keeping the accumulated
    error proportional to the global tolerance.
    """

    def __init__(self, f: Callable[[float], float], tol: float,
                 panel: float = 0.5, start: float = 0.0,
                 noise=0.0):
        # noise: pointwise evaluation noise of f (absolute, constant or a
        # callable of position); tolerances are floored at noise * width
        # since no quadrature can certify below it
        self._f = f
        self._tol = tol
        self._panel = panel
        self._start = start
        self._noise = noise
        self._knots = [start]
        self._vals = [0.0]

    def _noise_at(self, x: float) -> float:
        return self._noise(x) if callable(self._noise) else self._noise

    def _panel_tol(self, a: float, b: float) -> float:
        # interpret the tolerance relative to the panel's own scale, so
        # fast-growing integrands (the area profile grows exponentially on
        # negatively curved models) don't demand sub-rounding accuracy
        mid = 0.5 * (a + b)
        scale = abs(self._f(mid)) * (b - a)
        return max(self._tol * max(1.0, scale),
                   self._noise_at(mid) * (b - a))

    def __call__(self, r: float) -> float:
        if r < self._start:
            raise GeometryError(f"radius below integral start {self._start}")
        if r == self._start:
            return 0.0
        while self._knots[-1] < r:
            a = self._knots[-1]
            b = min(a + self._panel, r)
            self._knots.append(b)
            self._vals.append(self._vals[-1]
                              + adaptive_simpson(self._f, a, b,
                                                 self._panel_tol(a, b)))
        i = bisect.bisect_right(self._knots, r) - 1
        a = self._knots[i]
        if r == a:
            return self._vals[i]
        w = r - a
        tol = max(self._panel_tol(a, r) * min(1.0, w / self._panel),
                  self._noise_at(0.5 * (a + r)) * w)
        val = self._vals[i] + adaptive_simpson(self._f, a, r, tol)
        self._knots.insert(i + 1, r)
        self._vals.insert(i + 1, val)
        return val


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
        self._V = _CumulativeIntegral(lambda s: self.A(s), self.quad_tol)
        self._zeta = _CumulativeIntegral(lambda s: float(self.xi.value(s)),
                                         self.quad_tol)
        # closed-form antiderivatives for the built-in profile pairs; the
        # quadrature path stays as the general fallback (and as the oracle
        # the closed forms are tested against)
        n = self.n
        self._V_closed = None
        self._zeta_closed = None
        if self.xi.kind == "euclidean":
            self._zeta_closed = lambda r: 0.5 * r * r
            if self.rho.kind == "constant":
                c = self.rho.const
                self._V_closed = lambda r: c * r ** n / n
        elif self.xi.kind == "hyperbolic":
            k = self.xi.kappa
            self._zeta_closed = lambda r: (math.cosh(k * r) - 1.0) / (k * k)
            if self.rho.kind == "cosh" and self.rho.kappa == k:
                # A = cosh(kr) (sinh(kr)/k)^(n-1), an exact derivative
                self._V_closed = \
                    lambda r: math.sinh(k * r) ** n / (n * k ** n)

    # -- radial scalars -----------------------------------------------------

    def A(self, r):
        """Weighted sphere area rho(r) xi(r)^(n-1)."""
        return self.rho.value(r) * self.xi.value(r) ** (self.n - 1)

    def A_prime(self, r):
        xi = self.xi.value(r)
        return (self.rho.d1(r) * xi ** (self.n - 1)
                + (self.n - 1) * self.rho.value(r) * xi ** (self.n - 2)
                * self.xi.d1(r))

    def V(self, r: float) -> float:
        """Weighted ball volume: integral of A from 0 to r."""
        if self._V_closed is not None:
            return self._V_closed(float(r))
        return self._V(float(r))

    def zeta(self, r: float) -> float:
        """Antiderivative of xi; sizes parabolic cylinders."""
        if self._zeta_closed is not None:
            return self._zeta_closed(float(r))
        return self._zeta(float(r))

    def H(self, r: float) -> float:
        """Mean curvature -A/(nV) of the radial CMC family (negative)."""
        if r <= R_MIN:
            raise GeometryError(f"H undefined at r={r} (V -> 0)")
        return -self.A(r) / (self.n * self.V(r))

    def H_prime(self, r: float) -> float:
        if r <= R_MIN:
            raise GeometryError(f"H' undefined at r={r}")
        A = self.A(r)
        V = self.V(r)
        return (A * A - self.A_prime(r) * V) / (self.n * V * V)

    def Hcyl(self, r: float):
        """Mean curvature of the Killing cylinder over the sphere r."""
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= R_MIN):
            raise GeometryError(f"Hcyl undefined at r={r}")
        return ((self.n - 1) * self.xi.ratio_d1(r)
                + self.rho.ratio_d1(r)) / self.n

    # -- log-rho helpers ----------------------------------------------------

    def log_rho_d1(self, r):
        return self.rho.ratio_d1(r)

    def log_rho_d2(self, r):
        rr = self.rho.ratio_d1(r)
        return self.rho.d2(r) / self.rho.value(r) - np.asarray(rr) ** 2 \
            if np.ndim(r) else self.rho.d2(r) / self.rho.value(r) - rr * rr

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


def _ladder(r_max: float, count: int) -> np.ndarray:
    # geometric refinement near 0 so pole-side inequalities get sampled hard
    return r_max * np.geomspace(1e-8, 1.0, count)


def make_model(spec_xi: ProfileSpec, spec_iota: ProfileSpec,
               spec_rho: ProfileSpec, n: int, quad_tol: float = 1e-10,
               r_max: float = 1e3, ladder_points: int = 512) -> ModelGeometry:
    """Validate the geometric conditions on a sample ladder and build a model.

    Raises ValidationError naming the violated inequality and the sample
    point; the passing ladder is recorded in ``model.validation``.
    """
    if n < 2:
        raise GeometryError(f"dimension n={n} must be >= 2")
    if quad_tol <= 0:
        raise GeometryError("quad_tol must be positive")
    for name, prof in (("xi", spec_xi), ("iota", spec_iota)):
        if prof.kind == "table":
            r0, v0 = prof.samples[0]
            if r0 != 0.0 or v0 != 0.0:
                raise TableFormatError(
                    f"{name} table must start at (0, 0), got ({r0}, {v0})")
        if abs(float(prof.value(0.0))) > 1e-12:
            raise ValidationError(f"{name}(0) must vanish")
    for prof in (spec_xi, spec_iota, spec_rho):
        if prof.kind == "table":
            r_max = min(r_max, prof.r_max_table)

    rs = _ladder(r_max, ladder_points)
    # sinh/cosh overflow to inf at the far end of the ladder; the
    # positivity and ratio comparisons below remain valid there
    with np.errstate(over="ignore"):
        checks = [
            ("xi > 0", np.asarray(spec_xi.value(rs)) > 0),
            ("iota > 0", np.asarray(spec_iota.value(rs)) > 0),
            ("rho > 0", np.asarray(spec_rho.value(rs)) > 0),
        ]
        slack = 1e-10
        checks.append(("rho'/rho <= xi'/xi",
                       np.asarray(spec_rho.ratio_d1(rs))
                       <= np.asarray(spec_xi.ratio_d1(rs)) + slack))
        checks.append(("rho'/rho <= iota'/iota",
                       np.asarray(spec_rho.ratio_d1(rs))
                       <= np.asarray(spec_iota.ratio_d1(rs)) + slack))
        checks.append(("iota''/iota <= xi''/xi",
                       np.asarray(spec_iota.ratio_d2(rs))
                       <= np.asarray(spec_xi.ratio_d2(rs)) + slack))
    for name, ok in checks:
        ok = np.asarray(ok)
        if not bool(np.all(ok)):
            bad = rs[np.argmin(ok)]
            raise ValidationError(f"condition '{name}' fails at r={bad:.6g}")

    model = ModelGeometry(n=n, xi=spec_xi, iota=spec_iota, rho=spec_rho,
                          quad_tol=quad_tol, r_max=r_max,
                          validation={"ladder_points": ladder_points,
                                      "r_max": r_max,
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
        if r <= R_MIN:
            raise GeometryError("christoffels need r > 0")
        rho = float(m.rho.value(r))
        rho1 = float(m.rho.d1(r))
        xi = float(m.xi.value(r))
        xi1 = float(m.xi.d1(r))
        return {
            ("s", "s", "r"): rho1 / rho,
            ("r", "s", "s"): -rho * rho1,
            ("r", "theta", "theta"): -xi * xi1,
            ("theta", "r", "theta"): xi1 / xi,
        }

    def christoffel(self, r: float, up: str, lo1: str, lo2: str) -> float:
        table = self.christoffels(r)
        key = (up,) + tuple(sorted((lo1, lo2)))
        return table.get(key, 0.0)

    def ricci_eigenvalues(self, r: float) -> tuple[float, float, float]:
        """(Ric_ss, Ric_rr, Ric_thth) in the orthonormal frame."""
        m = self.model
        n = m.n
        rho_rr = float(m.rho.ratio_d2(r))        # rho''/rho
        xi_rr = float(m.xi.ratio_d2(r))          # xi''/xi
        rho_r = float(m.rho.ratio_d1(r))         # rho'/rho
        xi_r = float(m.xi.ratio_d1(r))           # xi'/xi
        defect = float(m.xi.sphere_defect(r))    # (xi'^2 - 1)/xi^2
        ric_ss = -rho_rr - (n - 1) * rho_r * xi_r
        ric_rr = -rho_rr - (n - 1) * xi_rr
        ric_tt = -xi_rr - (n - 2) * defect - rho_r * xi_r
        return ric_ss, ric_rr, ric_tt

    def ricci(self, r: float, direction: Sequence[float]) -> float:
        """Ric(v, v) for a direction v given in the orthonormal frame.

        ``direction`` is (v_s, v_r, v_theta); it is normalized internally.
        """
        v = np.asarray(direction, dtype=float)
        norm2 = float(v @ v)
        if norm2 <= 0:
            raise GeometryError("ricci direction must be nonzero")
        lam = self.ricci_eigenvalues(r)
        return float((v * v) @ np.asarray(lam)) / norm2


def ambient_frame(model: ModelGeometry) -> AmbientFrameData:
    return AmbientFrameData(model)


def lower_ricci_bounds(model: ModelGeometry, R: float,
                       samples: int = 512) -> tuple[float, float]:
    """Constants (L, L1) with Ric_g - Hess log rho >= -L g on B_R and
    Ric_ambient >= -L1 g_ambient, both taken as the smallest nonnegative
    constants realized on a sample ladder.
    """
    if R <= 0:
        raise GeometryError("R must be positive")
    rs = _ladder(R, samples)
    n = model.n
    xi_rr = np.asarray(model.xi.ratio_d2(rs))
    xi_r = np.asarray(model.xi.ratio_d1(rs))
    defect = np.asarray(model.xi.sphere_defect(rs))
    lrho1 = np.asarray(model.log_rho_d1(rs))
    lrho2 = np.asarray(model.log_rho_d2(rs))
    # base Ricci minus Hess log rho, radial and tangential eigenvalues
    lam_r = -(n - 1) * xi_rr - lrho2
    lam_t = -xi_rr - (n - 2) * defect - xi_r * lrho1
    L = max(0.0, float(np.max(-lam_r)), float(np.max(-lam_t)))
    frame = ambient_frame(model)
    lams = np.array([frame.ricci_eigenvalues(float(r)) for r in rs])
    L1 = max(0.0, float(np.max(-lams)))
    return L, L1
