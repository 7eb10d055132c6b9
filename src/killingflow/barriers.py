"""Barrier families and a priori estimate constants.

Four barrier mechanisms are implemented:

* the expanding radial supersolution built from the CMC profiles (a ball
  whose rim radius R(t) grows so that the profile rises at least as fast
  as any flow below it),
* the resulting sup/inf height bounds on a fixed ball,
* the logarithmic boundary gradient barrier h(d) = log(1 + A d)/L,
* the exponential barrier at infinity over a geodesic halfplane in the
  hyperbolic plane (the strict-convexity barrier).

The barrier at infinity, the boundary barrier and ``pointwise_Q`` take
broadcast (r, theta) (or distance) arrays, so a barrier evaluates on a
whole polar grid in one call.  ``pointwise_Q`` is the independent
non-divergence oracle for the grid operator: its own centered stencil
plus ``kernel.coefficients``, sharing no weights with ``flow``.

The module also evaluates the explicit interior-gradient and curvature
bound constants so runs can be checked against them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cmc
from .cmc import CmcError, eval_vR, sample_vR
from .geometry import (ModelGeometry, R_MIN, _integer, _ladder, _nonnegative,
                       _positive)
from .kernel import coefficients, factors


class BarrierError(ValueError):
    pass


# ---------------------------------------------------------------------------
# expanding radial supersolution


@dataclass
class SupersolutionFlow:
    """Rim radius schedule R(t) of the expanding radial supersolution.

    R(t) is defined implicitly by  integral_{r0}^{R} V/A = t, equivalently
    dR/dt = -n H(R) with R(0) = r0: the model's rim_time(R) - rim_time(r0),
    exact on the built-in model pairs (r^2/(2n) on the flat pair,
    ln cosh(kr)/(n k^2) on the hyperbolic one) and a cumulative
    Gauss-Kronrod integral on every other model.
    """

    model: ModelGeometry
    r0: float

    def __post_init__(self):
        _positive("r0", self.r0, BarrierError)
        self._time_r0 = self.model.rim_time(float(self.r0))

    def _time(self, R):
        return self.model.rim_time(R) - self._time_r0

    def time_of(self, R):
        """Time t at which the rim radius reaches R (a radius or an array
        of finite radii, none below r0; BarrierError otherwise, nan
        included): the integral of V/A from r0 to R."""
        R = np.asarray(R, dtype=float)
        if not np.all((R >= self.r0) & (R < math.inf)):
            raise BarrierError(f"rim radius below r0 = {self.r0} or not "
                               f"finite")
        return self._time(R)

    def _last_finite(self, a: float, b: float) -> float:
        """The largest radius in [a, b) at which A and V are finite, to the
        last bit, by bisection: they are finite at a and not at b."""
        while True:
            m = 0.5 * (a + b)
            if not a < m < b:
                return a
            if self.model._finite_at(m):
                a = m
            else:
                b = m

    def R_of_t(self, t):
        """Rim radius at time t, a float or an array of finite nonnegative
        times (BarrierError otherwise, nan included): Newton on
        time_of, whose derivative is V(R)/A(R) exactly, kept inside a
        doubling bracket by bisection, for all the times at once.  A
        bracket that doubles past the overflow of A or V stops at the last
        radius where they are finite, the model's test
        (``ModelGeometry._finite_at``) as for the CMC heights, and a time
        whose radius lies past it raises BarrierError naming the smallest
        such time.
        """
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t < math.inf)):
            raise BarrierError("t must be nonnegative and finite")
        model = self.model
        lo = np.full(t.shape, float(self.r0))
        hi = 2.0 * lo
        t_lo = np.zeros(t.shape)
        top = math.inf                  # the last finite radius, once met
        while True:
            if not model._finite_at(hi):
                if top == math.inf:
                    if not model._finite_at(self.r0):
                        raise BarrierError(f"A or V overflows at r0 = "
                                           f"{self.r0}")
                    top = self._last_finite(float(np.max(lo)),
                                            float(np.max(hi)))
                hi = np.fmin(hi, top)
            t_hi = self._time(hi)
            short = t_hi < t
            if not short.any():
                break
            past = short & (hi == top)
            if past.any():
                raise BarrierError(
                    f"R(t) lies past the rim radius r = {top:.6g} where A "
                    f"or V overflows for t = {np.min(t[past]):.6g}")
            lo, t_lo = np.where(short, hi, lo), np.where(short, t_hi, t_lo)
            hi = np.where(short, 2.0 * hi, hi)
            if np.max(hi) > 1e6 * self.r0:
                raise BarrierError(
                    f"R(t) bracket expansion failed below 1e6*r0 for "
                    f"t={np.max(t)}")
        # start from the tangent at lo, which lies right of the root where
        # time_of is convex (H' > 0); t = 0 is solved by r0 exactly.  Every
        # iterate stays in its bracket, where A and V are finite
        done = t == 0.0
        R = np.where(done, lo, np.fmin(
            hi, lo + (t - t_lo) * model.A(lo) / model.V(lo)))
        for _ in range(_NEWTON_STEPS):
            gap = self._time(R) - t
            lo = np.where(gap < 0.0, R, lo)
            hi = np.where(gap > 0.0, R, hi)
            step = gap * model.A(R) / model.V(R)
            last = ~done & (np.abs(step) <= _NEWTON_STOP * R)
            R_next = R - step
            R = np.where(done, R, np.where(
                last | ((lo < R_next) & (R_next < hi)), R_next,
                0.5 * (lo + hi)))
            done |= last
            if done.all():
                return float(R) if R.ndim == 0 else R
        raise BarrierError(f"R(t) did not converge for t={t}")


# a Newton step this small (relative) is below the rounding noise of
# time_of; bisection alone would need about 50 steps to get there
_NEWTON_STOP = 1e-14
_NEWTON_STEPS = 100


def mu_of_t(model: ModelGeometry, r0: float, t: float) -> float:
    """Rim radius R(t) = r0 + mu(t) of the radial supersolution."""
    return SupersolutionFlow(model, r0).R_of_t(t)


def verify_supersolution(model: ModelGeometry, r0: float,
                         t_grid: np.ndarray, r_grid: np.ndarray,
                         discrete_Q: Callable[[np.ndarray, np.ndarray],
                                              np.ndarray]) -> float:
    """Minimum of d/dt u_plus + Q[u_plus] over the (t, r) grid.

    ``discrete_Q(r_grid, U)`` must return the discrete spatial operator on
    the same nodes for each row of the stack U of time slices, in U's
    shape (``flow.radial_Q`` does; interior values used here).  It is
    called once, on the (t_grid.size - 2, r_grid.size) stack of interior
    slices.  The heights v_{R(t)}(r) of every slice are one table
    (``cmc._sample_rims``).  The supersolution property asserts the
    continuum minimum is >= 0; the caller allows a discretization slack.
    Time derivative by centered differences, so the first and last time
    slices are excluded, as are the two radial nodes at each end.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    if t_grid.size < 64 or r_grid.size < 64:
        raise BarrierError("grids must have >= 64 points")
    flow = SupersolutionFlow(model, r0)
    # quadrature only needs to stay well below the finite-difference error
    # of the residual itself, so don't pay for full model.quad_tol here
    samp_tol = min(1e-8, model.quad_tol * 1e2)
    u = cmc._sample_rims(model, flow.R_of_t(t_grid), r_grid, samp_tol)
    ut = np.gradient(u, t_grid, axis=0)
    res = ut[1:-1] + discrete_Q(r_grid, u[1:-1])
    return float(np.min(res[:, 2:-2]))


def height_bounds(model: ModelGeometry, r0: float, T: float,
                  sup_u0: float) -> tuple[Callable, Callable]:
    """(lower, upper) height bounds for flows on the ball of radius r0.

    upper(r) = sup|u0| + v_{R(T)}(0) - v_{r0}(r) and lower = -upper; any
    solution with |initial data| <= sup_u0 and zero boundary motion stays
    between them up to time T.  Each bound takes one radius (a float) or an
    increasing array of radii (one sample_vR pass over all of them); radii
    outside [0, r0] raise CmcError in both forms, on every call.  r0 and T
    must be positive and finite, sup_u0 nonnegative and finite
    (BarrierError otherwise).  The pair checks r0's rim once, when it is
    built, and shares one height v_{r0}(r) per distinct float radius, one
    ``cmc._rim_heights`` call on that rim kept for the pair's lifetime, so
    lower(r) then upper(r) costs one: a closed form on the built-in model
    pairs, a quadrature on the others.
    """
    _positive("T", T, BarrierError)
    _nonnegative("sup_u0", sup_u0, BarrierError)
    RT = mu_of_t(model, r0, T)
    top = sup_u0 + eval_vR(model, RT, 0.0)
    cmc._check_rim(model, r0)

    @functools.lru_cache(maxsize=None)      # raising calls are not kept
    def height(r):
        # eval_vR(model, r0, r) on the rim checked above
        if not 0.0 <= r <= r0:
            raise CmcError(f"need 0 <= r <= R, got r={r}")
        if r == r0:
            return 0.0
        return float(cmc._rim_heights(model, r0, np.array([float(r)]),
                                      model.quad_tol)[0])

    def upper(r):
        if isinstance(r, numbers.Real):
            return top - height(r)
        heights = sample_vR(model, r0, r)
        if r[-1] > r0:
            raise CmcError(f"need 0 <= r <= R, got r={r[-1]}")
        return top - heights

    def lower(r):
        return -upper(r)

    return lower, upper


MIN_L0 = 1
# the beta and k at which the CLI and the ladder evaluate
# interior_gradient_bound
_GRADIENT_BETA = 1 - 1e-8
_GRADIENT_K = 17


def c0_height_cap(model: ModelGeometry, r0: float, l0: int) -> float:
    """Uniform cap on the supersolution height while R(t) <= l0 * r0.

    Equals sup over (0, l0 r0] of H^2/(rho H') times -1/H(l0 r0), the
    supremum taken on 1024 radii.  Requires the radial mean curvature to
    be strictly increasing on the window, and A and V to be finite on it
    (``ModelGeometry._finite_at``), where H' is too.
    """
    _positive("r0", r0, BarrierError)
    l0 = _integer("l0", l0, MIN_L0, BarrierError)
    rmax = l0 * r0
    if not model._finite_at(rmax):
        raise BarrierError(
            f"A = rho xi^(n-1) or its volume integral V overflows by the "
            f"window's end l0 r0 = {rmax:g} (xi: {model.xi.kind}, rho: "
            f"{model.rho.kind}): too large for this model in double "
            f"precision")
    rs = rmax * np.geomspace(1e-6, 1.0, 1024)
    Hp = model.H_prime(rs)
    if not (Hp > 0).all():
        raise BarrierError(f"H'(r) <= 0 at r={rs[np.argmin(Hp > 0)]:.6g}; "
                           "monotonicity premise violated")
    H = model.H(rs)
    sup = float(np.max(H * H / (model.rho.value(rs) * Hp)))
    return sup * (-1.0 / model.H(rmax))


# ---------------------------------------------------------------------------
# boundary gradient barrier


@dataclass(frozen=True)
class BoundaryBarrier:
    """Logarithmic distance barrier h(d) = log(1 + A d)/L on a collar
    of width d0 inside the boundary, with A = L/(1 - L d0)."""

    L: float
    d0: float
    A_coef: float

    def h(self, d):
        return np.log1p(self.A_coef * d) / self.L

    def h_prime(self, d):
        return self.A_coef / (self.L * (1.0 + self.A_coef * d))

    def h_second(self, d):
        return -self.A_coef ** 2 / (self.L * (1.0 + self.A_coef * d) ** 2)

    def gradient_cap(self) -> float:
        """h'(0), the cap for initial data of zero exterior gradient."""
        return self.h_prime(0.0)


def make_boundary_barrier(L: float, d0: float) -> BoundaryBarrier:
    _positive("L", L, BarrierError)
    if not 0.0 < d0 < 1.0 / L:
        raise BarrierError(f"need 0 < d0 < 1/L = {1.0 / L}, got d0={d0}")
    return BoundaryBarrier(L=L, d0=d0, A_coef=L / (1.0 - L * d0))


# ---------------------------------------------------------------------------
# barrier at infinity over a geodesic halfplane in the hyperbolic plane
#
# Points of the hyperbolic plane of curvature -kappa^2 are represented on
# the hyperboloid x1^2 + x2^2 - x3^2 = -1, x3 > 0, by the polar chart
# X(r, theta) = (sinh kr cos theta, sinh kr sin theta, cosh kr), k = kappa,
# which scales distances by kappa.  A complete geodesic is the zero set of
# q = <X, nu> for a unit spacelike nu; the halfplane is U = {q > 0} and the
# signed distance inside U is arcsinh(q) / kappa (Ratcliffe, section 3.2).


def _halfplane_distance(nu, r, theta, kappa: float) -> tuple:
    """(d, d_r) on broadcast (r, theta) arrays: the signed distance
    d = arcsinh(q) / kappa to the geodesic {q = 0}, q = <X(r, theta), nu>,
    and d_r = <d_r X, nu> / (kappa sqrt(1 + q^2)).  Since |grad d| = 1,
    d_r is also <grad r, grad d>."""
    c, s = np.cos(theta), np.sin(theta)
    sh, ch = np.sinh(kappa * r), np.cosh(kappa * r)
    q = sh * c * nu[0] + sh * s * nu[1] - ch * nu[2]
    qr = ch * c * nu[0] + ch * s * nu[1] - sh * nu[2]
    return np.arcsinh(q) / kappa, qr / np.sqrt(1.0 + q * q)


@dataclass(frozen=True)
class GeodesicSpec:
    """Geodesic halfplane U = {<X, nu> > 0}, nu unit spacelike."""

    nu: tuple[float, float, float]

    def __post_init__(self):
        x, y, z = self.nu
        if not abs(x * x + y * y - z * z - 1.0) <= 1e-10:
            raise BarrierError("nu must be a unit spacelike vector")

    @staticmethod
    def at_distance(a: float, kappa: float = 1.0) -> "GeodesicSpec":
        """Halfplane whose boundary geodesic sits at distance a from the
        pole in curvature -kappa^2, with the pole outside."""
        _positive("a", a, BarrierError)
        _positive("kappa", kappa, BarrierError)
        return GeodesicSpec((math.cosh(kappa * a), 0.0, math.sinh(kappa * a)))


@dataclass
class ScBarrier:
    """Upper barrier eta at infinity: constant C off the deep region
    U0 = {d >= d0} and C1 exp(-alpha d) inside it.  Every method takes
    broadcast (r, theta) arrays."""

    model: ModelGeometry
    geodesic: GeodesicSpec
    C: float
    d0: float
    alpha: float
    C1: float

    def dist_eval(self, r, theta):
        """Signed distance to the boundary geodesic, positive inside U."""
        return _halfplane_distance(self.geodesic.nu, r, theta,
                                   self.model.xi.kappa)[0]

    def eta(self, r, theta):
        d = self.dist_eval(r, theta)
        return np.where(d <= self.d0, self.C,
                        self.C1 * np.exp(-self.alpha * d))


def _sample_deep_region(geodesic: GeodesicSpec, d0: float, count: int,
                        rng: np.random.Generator | None = None,
                        margin: float = 0.0,
                        kappa: float = 1.0) -> np.ndarray:
    """Sample (r, theta) points with distance in [d0 + margin,
    d0 + margin + 5] in curvature -kappa^2: the first count hits of
    200 count uniform draws, theta in [-w, w) and r in [0, 30 / kappa).
    The halfplane subtends |theta| < 2 atan(nu_0 - nu_2) from the pole
    (2 atan(exp(-kappa a)) at distance a), and w = min(0.6, that angle)."""
    rng = rng or np.random.default_rng(0)
    w = min(0.6, 2.0 * math.atan(geodesic.nu[0] - geodesic.nu[2]))
    theta, r = rng.uniform((-w, 0.0), (w, 30.0 / kappa),
                           size=(200 * count, 2)).T
    d = _halfplane_distance(geodesic.nu, r, theta, kappa)[0]
    hits = np.flatnonzero((d0 + margin <= d) & (d <= d0 + margin + 5.0))
    hits = hits[:count]
    if hits.size < count:
        raise BarrierError("could not sample the deep region")
    return np.column_stack((r[hits], theta[hits]))


def _has_sc_barrier(model: ModelGeometry) -> bool:
    """Whether ``make_sc_barrier`` is implemented on the model: the
    hyperbolic built-in base of dimension n = 2."""
    return model.xi.kind == "hyperbolic" and model.n == 2


def _need_surface(model: ModelGeometry, what: str) -> None:
    if model.n != 2:
        raise BarrierError(f"{what} is implemented for base dimension n = 2 "
                           f"only, got n = {model.n}")


def make_sc_barrier(model: ModelGeometry, halfplane_geodesic: GeodesicSpec,
                    C: float, d0: float, seed: int = 0) -> ScBarrier:
    """Build the exponential barrier at infinity over a geodesic halfplane.

    Only implemented for the hyperbolic built-in base (the one base with a
    distance-to-convex-set in closed form) of dimension n = 2, the one
    ``pointwise_Q`` checks it on, in curvature -kappa^2 for the geodesic
    of ``GeodesicSpec.at_distance(a, kappa)``.  The decay rate alpha is the
    infimum of (rho'/rho) <grad r, grad d> over 400 points of the deep
    region drawn from ``seed``; a nonpositive infimum (e.g. constant rho)
    is a construction error, since the barrier then cannot decay.
    """
    if not _has_sc_barrier(model):
        raise BarrierError(f"the SC barrier is implemented for the hyperbolic "
                           f"built-in base of dimension n = 2 only, got xi: "
                           f"{model.xi.kind}, n = {model.n}")
    if not 2.0 <= d0 < math.inf:
        raise BarrierError(f"d0 must be >= 2 and finite, got {d0}")
    _positive("barrier height C", C, BarrierError)
    kappa = model.xi.kappa
    r, theta = _sample_deep_region(halfplane_geodesic, d0, 400,
                                   np.random.default_rng(seed), kappa=kappa).T
    lr = model.log_rho_d1(np.maximum(r, R_MIN))
    dr = _halfplane_distance(halfplane_geodesic.nu, r, theta, kappa)[1]
    alpha = float(np.min(lr * dr, initial=math.inf))
    if not alpha > 0.0:
        raise BarrierError(
            f"decay rate infimum {alpha:.3g} <= 0 at sampling resolution; "
            "the warping must grow (rho'/rho bounded below by a positive "
            "constant) for the barrier to exist")
    return ScBarrier(model=model, geodesic=halfplane_geodesic, C=C, d0=d0,
                     alpha=alpha, C1=C * math.exp(alpha * d0))


def pointwise_Q(model: ModelGeometry, func: Callable, r, theta):
    """Finite-difference evaluation of the graph flow operator at points.

    Local polar coordinates of the base with metric dr^2 + xi^2 dtheta^2;
    second-order centered stencils of width h = 1e-3, evaluated at broadcast
    (r, theta) arrays in one pass (func must broadcast too).  Used for spot
    checks of smooth analytic fields (barriers) and as the independent
    non-divergence oracle for the grid operator: it shares the coefficient
    kernel with the grid solver but not its stencil or grid.  It is the
    n = 2 operator: the (n - 1) xi'/xi drift of higher dimensions has no
    theta chart here, so other n raise BarrierError.
    """
    _need_surface(model, "pointwise_Q")
    h = 1e-3
    # each comparison is false for nan
    if not np.all((r > 2 * h) & (r < math.inf)):
        raise BarrierError("pointwise_Q needs finite r away from the pole")
    f0 = func(r, theta)
    fr1 = func(r + h, theta)
    fr0 = func(r - h, theta)
    ft1 = func(r, theta + h)
    ft0 = func(r, theta - h)
    ur = (fr1 - fr0) / (2 * h)
    ut = (ft1 - ft0) / (2 * h)
    urr = (fr1 - 2 * f0 + fr0) / (h * h)
    utt = (ft1 - 2 * f0 + ft0) / (h * h)
    urt = (func(r + h, theta + h) - func(r + h, theta - h)
           - func(r - h, theta + h) + func(r - h, theta - h)) / (4 * h * h)
    arr, art, att, br, bt = coefficients(factors(model.xi, model.rho, r),
                                         ur, ut)
    return arr * urr + 2.0 * art * urt + att * utt + br * ur + bt * ut


# ---------------------------------------------------------------------------
# estimate constants


@dataclass(frozen=True)
class GradientBoundReport:
    beta: float
    k: float
    delta: float
    delta_prime: float
    mu_const: float
    C0: float
    log_bound_first: float
    log_bound_second: float
    log_bound: float


def interior_gradient_bound(model: ModelGeometry, R: float, M: float,
                            beta: float, k: float) -> GradientBoundReport:
    """Explicit interior gradient bound constants on the ball of radius R,
    sampled on 1024 radii of its geometric ladder.

    The bound is the larger of two exponential branches.  Only their
    logarithms are reported, since the exponent easily overflows.
    Parameter requirements: k > 16, beta close enough to 1 that the derived
    log-scale constant exceeds k and the auxiliary constant mu is positive.
    """
    _positive("R", R, BarrierError)
    _nonnegative("M", M, BarrierError)
    if not 16 < k < math.inf:
        raise BarrierError(f"k must exceed 16 and be finite, got {k}")
    if not 0.75 < beta < 1.0:
        raise BarrierError("beta must lie in (3/4, 1)")
    rs = _ladder(R, 1024)
    rho = model.rho.value(rs)
    min_rho = float(np.min(np.append(rho, model.rho.value(0.0))))
    delta = 1.5 * beta - 1.0
    delta_prime = math.log(beta / ((1.0 - beta) * min_rho ** 2))
    if delta_prime <= k:
        raise BarrierError(
            f"beta too small: derived constant {delta_prime:.3f} must "
            f"exceed k={k}")
    mu = 2.0 * beta * (delta * delta_prime - 2.0) / delta_prime
    if mu <= 0:
        raise BarrierError(f"auxiliary constant mu={mu:.3g} not positive")
    zR = model.zeta(R)
    xi = model.xi.value(rs)
    xi1 = model.xi.d1(rs)
    lrho = model.log_rho_d1(rs)
    sq = math.sqrt(1.0 - beta)
    braces = (1.25 + model.n * M * xi1 / zR + 2.0 * sq * xi / zR
              + (M * (6.0 - 5.0 * beta) * xi / zR + 2.0 * sq) * lrho)
    C0 = float(np.max(rho ** 2 / mu * braces))
    shape = (1.0 + min_rho) ** 2 / min_rho
    log_first = 128.0 * shape * M * float(np.max(xi)) / zR
    log_second = 64.0 * shape * M * C0
    return GradientBoundReport(
        beta=beta, k=k, delta=delta, delta_prime=delta_prime, mu_const=mu,
        C0=C0, log_bound_first=log_first, log_bound_second=log_second,
        log_bound=max(log_first, log_second))


def compute_delta_psi(gamma: float, sup_W2: float) -> float:
    """delta_psi = gamma / (2 sup W^2), gamma = inf 1/rho^2."""
    _positive("gamma", gamma, BarrierError)
    _positive("sup W^2", sup_W2, BarrierError)
    return gamma / (2.0 * sup_W2)


def compute_E_R(delta_psi: float, sup_xi2: float, n: int, zeta_R: float,
                sup_xi_prime: float) -> float:
    """Cutoff-interaction constant of the curvature estimate."""
    _positive("delta_psi", delta_psi, BarrierError)
    return (1.0 / delta_psi + 4.0) * sup_xi2 + n * zeta_R * sup_xi_prime


def curvature_bound(delta_psi: float, L1: float, C_sim: float,
                    C_sim_tilde: float, E_R: float, zeta_R: float,
                    T: float) -> float:
    """Explicit bound on max |A| over the parabolic interior cylinder."""
    for name, value in (("delta_psi", delta_psi), ("zeta_R", zeta_R),
                        ("T", T)):
        _positive(name, value, BarrierError)
    for name, value in (("L1", L1), ("C_sim", C_sim),
                        ("C_sim_tilde", C_sim_tilde), ("E_R", E_R)):
        _nonnegative(name, value, BarrierError)
    inner = 1.0 + L1 + C_sim_tilde + C_sim + E_R / zeta_R ** 2 + 1.0 / (2 * T)
    return 4.0 / math.sqrt(delta_psi) * math.sqrt(inner)
