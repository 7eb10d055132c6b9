"""Rotationally invariant constant mean curvature graphs.

The radial graph of height v over the punctured ball B_R has constant mean
curvature H(R) = -A(R)/(n V(R)) exactly when its slope satisfies the flux
identity

    v'(r) / sqrt(rho^{-2} + v'^2) * rho(r) xi(r)^{n-1} = n H(R) V(r),

which resolves to

    v'(r) = n H(R) V(r) / (rho(r) sqrt(A(r)^2 - n^2 H(R)^2 V(r)^2)).

The height itself is the integral of -v' from r to R.  On the built-in
model pairs it has a closed form, whatever n: the hemisphere
sqrt(R^2 - r^2)/c for xi = r and rho = c, and

    v_R(r) = ln[(cosh kR + sqrt(sinh k(R - r) sinh k(R + r))) / cosh kr] / k

for xi = sinh(kr)/k and rho = cosh(kr).  Every height goes through one
function, _rim_heights, which returns the closed form where the model has
one.  Otherwise it integrates the slopes: the integrand has an
inverse-square-root singularity at the outer rim (the profile meets the rim
vertically), removed by the substitution s = R - tau^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ModelGeometry, R_MIN, _integer, _positive
from .quadrature import QuadratureError, gauss_kronrod


class CmcError(ValueError):
    pass


@dataclass(frozen=True)
class CmcProfile:
    """Sampled radial CMC profile on [0, R].

    vp[-1] is -inf: the profile is vertical at the rim, and we store that
    honestly rather than a large finite stand-in.
    """

    R: float
    H_R: float
    grid: np.ndarray
    v: np.ndarray
    vp: np.ndarray

    def __post_init__(self):
        if abs(float(self.v[-1])) > 1e-12:
            raise CmcError("v(R) must vanish")
        interior = self.v[:-1]
        if np.any(np.diff(self.v) >= 0) or np.any(interior < 0):
            raise CmcError("v must be positive and strictly decreasing")
        if np.any(self.vp > 0):
            raise CmcError("v' must be nonpositive")


def _slopes(model: ModelGeometry, R: float, nH: float,
            s: np.ndarray) -> np.ndarray:
    """Profile slopes v'(s) at an array of radii in [0, R), with the
    (per-profile constant) nH hoisted out; zero at the pole.

    With x = nH V / A, v' = x / (rho sqrt(d)) for the discriminant over
    A^2, d = 1 - x^2: no A^2 is formed, so the slopes are finite wherever
    A and V are."""
    out = np.zeros(s.shape)
    inner = s > R_MIN
    s = s[inner]
    VA = model.V(s) / model.A(s)
    x = nH * VA
    d = 1.0 - x * x
    # the direct difference cancels near the rim (d vanishes like R - s
    # there); it is used only where it loses at most two digits, so its
    # rounding stays below the quadrature's floor.  Nearer the rim, with
    # q = A/V and nH = -q(R), 1 + x = q_drop V / A, so d = V/A (1 - x) q_drop.
    near = d <= 1e-2
    if near.any():
        d[near] = VA[near] * (1.0 - x[near]) * model.q_drop(s[near], R)
    if not np.all(d > 0.0):
        raise CmcError(f"degenerate slope discriminant at "
                       f"r={s[np.argmin(d > 0.0)]}")
    out[inner] = x / (model.rho.value(s) * np.sqrt(d))
    return out


def _check_rim(model: ModelGeometry, R) -> None:
    """Raise CmcError unless A(R) = rho xi^(n-1) and V(R) are finite
    (``ModelGeometry._finite_at``) at the rim radius R, or at every rim
    radius of an array R, naming the first that is not: past that rim
    radius every slope would read inf or nan, and a V by quadrature cannot
    be evaluated."""
    if not model._finite_at(R):
        bad = next(x for x in np.ravel(R) if not model._finite_at(x))
        raise CmcError(
            f"A = rho xi^(n-1) or its volume integral V overflows at the rim "
            f"radius R={bad:g} (xi: {model.xi.kind}, rho: {model.rho.kind}): "
            f"too large for this model in double precision")


def eval_vR_prime(model: ModelGeometry, R: float, r: float) -> float:
    """Slope v'(r) of the radial CMC profile with rim radius R."""
    _positive("R", R, CmcError)
    if not 0.0 <= r < R:
        raise CmcError(f"need 0 <= r < R, got r={r}, R={R}")
    _check_rim(model, R)
    return float(_slopes(model, R, model.n * model.H(R),
                         np.array([float(r)]))[0])


def _rim_heights(model: ModelGeometry, R: float, radii: np.ndarray,
                 tol: float) -> np.ndarray:
    """Heights v_R at rim-inward radii (decreasing, in [0, R)), on a rim
    radius that _check_rim admits: every caller checks the rim first.

    Exact on the built-in model pairs, whose heights have a closed form
    (geometry's closed-form block); tol binds only the quadrature of
    _rim_quadrature, which every other model takes.
    """
    if model._cmc_height_closed is not None:
        return model._cmc_height_closed(R, radii)
    return _rim_quadrature(model, R, radii, tol)


def _rim_quadrature(model: ModelGeometry, R: float, radii: np.ndarray,
                    tol: float) -> np.ndarray:
    """Heights v_R at rim-inward radii by quadrature of the slopes, on a rim
    radius that _check_rim admits.

    v_R(r) is the integral of -v' over [r, R].  Substituting s = R - tau^2
    maps [r, R] to [0, sqrt(R - r)] and cancels the (R - s)^{-1/2} blowup of
    the slope.  So one Gauss-Kronrod call in tau, with one interval per gap
    between successive nodes from the rim inward, and a cumulative sum
    yield every height.  The tolerance is budgeted by gap width, so the
    total is about tol (an equal split would over-resolve the many short
    gaps of fine grids).

    Near the rim the slopes are as accurate as model.q_drop: to rounding
    in closed form, else to a few tens of ulp of the area profile's growth
    rate, the noise floor 1e-14 |A'(R)|.  Each panel's tolerance is
    floored at that noise times its width, so on models where A grows
    exponentially and at large rim radii the heights honestly carry the
    noise-floor error instead of subdivision chasing noise.  Where that
    noise defeats the quadrature, it raises the precision CmcError.
    """
    floor = 0.0 if model.exact_q_drop else 1e-14 * abs(model.A_prime(R))
    too_large = CmcError(
        f"rim radius R={R:g} too large for this model in double "
        f"precision: the area profile grows past the point where the "
        f"profile slope can be resolved")
    if floor > 5e-3:
        raise too_large
    # g is smooth in tau with g(tau) = g(0) + O(tau^2), but below tau_min
    # the difference R - tau^2 is lost to rounding; freeze tau there
    # (g' = O(tau), so the induced height error is O(tau_min^3))
    tau_min = 1e-7 * math.sqrt(max(R, 1.0))
    nH = model.n * model.H(R)

    def g(tau: np.ndarray) -> np.ndarray:
        tc = np.maximum(tau, tau_min)
        s = np.maximum(R - tc * tc, 0.0)
        # near the rim R - tc^2 quantizes to the ulp spacing of R; pair the
        # (R - s)^{-1/2} blowup of the slope with the tau the rounded s
        # actually corresponds to, not the requested one
        return -2.0 * np.sqrt(R - s) * _slopes(model, R, nH, s)

    taus = np.sqrt(R - radii)
    prev = np.concatenate(([0.0], taus[:-1]))
    width = taus - prev
    try:
        gaps = gauss_kronrod(
            g, prev, taus, tol * np.maximum(width / taus[-1], 1e-3), floor)
    except QuadratureError as exc:
        if floor == 0.0:        # no slope noise to stop the subdivision
            raise
        raise too_large from exc
    return np.cumsum(gaps)


def _nodes(r_grid) -> np.ndarray:
    """r_grid as a float array: a nonempty 1-d array of finite radii,
    strictly increasing from a nonnegative first one; CmcError otherwise,
    a nan or inf among them included."""
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or r_grid.size == 0:
        raise CmcError("r_grid must be a nonempty 1-d array")
    # each comparison is false for nan; an increasing grid ends at its max
    if not (r_grid[0] >= 0.0 and r_grid[-1] < math.inf
            and np.all(np.diff(r_grid) > 0.0)):
        raise CmcError("r_grid must be finite, strictly increasing and "
                       "nonnegative")
    return r_grid


def sample_vR(model: ModelGeometry, R: float, r_grid: np.ndarray,
              tol: float | None = None) -> np.ndarray:
    """Heights v_R at every node of r_grid: a nonempty 1-d array of finite
    radii, strictly increasing from a nonnegative first one; CmcError
    otherwise, a nan or inf among them included.

    One _rim_heights call for all nodes, the same one behind eval_vR and
    solve_vR, so this costs about as much as a single eval_vR call instead
    of one per node.  Nodes at or beyond R get height 0.
    """
    _positive("R", R, CmcError)
    r_grid = _nodes(r_grid)
    _check_rim(model, R)
    inside = int(np.searchsorted(r_grid, R))
    out = np.zeros(r_grid.size)
    out[:inside] = _rim_heights(model, R, r_grid[:inside][::-1],
                                tol if tol else model.quad_tol)[::-1]
    return out


def _sample_rims(model: ModelGeometry, rims: np.ndarray, r_grid: np.ndarray,
                 tol: float) -> np.ndarray:
    """The (rims.size, r_grid.size) table of heights v_R(r), one row per
    rim radius R of the 1-d array rims (positive radii), each row
    sample_vR(model, R, r_grid, tol) bit for bit, its errors included.

    On the built-in model pairs one _check_rim of all rims and one
    closed-form call on every node inside its rim (r < R) fill the table;
    nodes at or past R read 0.  Every other model takes sample_vR's
    quadrature, one rim at a time.
    """
    closed = model._cmc_height_closed
    if closed is None:
        return np.array([sample_vR(model, float(R), r_grid, tol)
                         for R in rims])
    r_grid = _nodes(r_grid)
    _check_rim(model, rims)
    R = rims[:, None]
    inside = r_grid < R
    out = np.zeros(inside.shape)
    out[inside] = closed(np.broadcast_to(R, inside.shape)[inside],
                         np.broadcast_to(r_grid, inside.shape)[inside])
    return out


def eval_vR(model: ModelGeometry, R: float, r: float) -> float:
    """Height v_R(r) of the radial CMC profile, zero at the rim: the
    one-node case of sample_vR, without its array set-up."""
    _positive("R", R, CmcError)
    if not 0.0 <= r <= R:
        raise CmcError(f"need 0 <= r <= R, got r={r}")
    if r == R:
        return 0.0
    _check_rim(model, R)
    return float(_rim_heights(model, R, np.array([float(r)]),
                              model.quad_tol)[0])


def _profile_grid(R: float, grid_size: int) -> np.ndarray:
    """Smoothly graded grid on [0, R], quadratically clustered at the rim.

    r = R sin(pi sigma / 2) with sigma uniform: near-uniform at the center,
    spacing shrinking like (R - r)^{1/2} toward the rim where the profile
    height behaves like sqrt(R - r).  The smooth grading keeps nonuniform
    finite differences at clean second order (a body/tail splice would put
    a spacing jump, and a residual spike, at the junction).
    """
    sigma = np.linspace(0.0, 1.0, grid_size)
    grid = R * np.sin(0.5 * math.pi * sigma)
    grid[0] = 0.0
    grid[-1] = R
    return grid


MIN_GRID_SIZE = 16


def solve_vR(model: ModelGeometry, R: float, grid_size: int) -> CmcProfile:
    """Sample the radial CMC profile with rim radius R on grid_size nodes."""
    _positive("R", R, CmcError)
    grid_size = _integer("grid_size", grid_size, MIN_GRID_SIZE, CmcError)
    _check_rim(model, R)
    grid = _profile_grid(R, grid_size)
    v = np.zeros(grid.size)
    v[:-1] = _rim_heights(model, R, grid[-2::-1], model.quad_tol)[::-1]
    vp = np.empty(grid.size)
    vp[0] = 0.0
    vp[1:-1] = _slopes(model, R, model.n * model.H(R), grid[1:-1])
    vp[-1] = -math.inf
    return CmcProfile(R=R, H_R=model.H(R), grid=grid, v=v, vp=vp)


def integrate_profile_ode(model: ModelGeometry, R: float,
                          step: float) -> np.ndarray:
    """Trace the profile curve (r, s, phi) by arclength from the rim.

    The curve solves dr = cos(phi), rho ds = sin(phi),
    dphi = -nH(R) - n Hcyl(r) sin(phi), starting at (R, 0, pi/2), and its
    (r, s) track reproduces the graph of v_R.  Classic RK4 with fixed step.
    Returns an array of rows (sigma, r, s, phi).
    """
    _positive("R", R, CmcError)
    _positive("step", step, CmcError)
    nH = model.n * model.H(R)

    def rhs(y):
        r, s, phi = y
        r = max(r, R_MIN)
        return np.array([
            math.cos(phi),
            math.sin(phi) / model.rho.value(r),
            -nH - model.n * model.Hcyl(r) * math.sin(phi),
        ])

    budget = 8.0 * (R + abs(nH) * R + 1.0)
    y = np.array([R, 0.0, 0.5 * math.pi])
    sigma = 0.0
    rows = [(sigma, *y)]
    max_steps = int(budget / step) + 1
    for _ in range(max_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * step * k1)
        k3 = rhs(y + 0.5 * step * k2)
        k4 = rhs(y + step * k3)
        y = y + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        sigma += step
        if not 0.0 <= y[2] <= math.pi:
            raise CmcError(
                f"profile angle left [0, pi] at arclength {sigma:.4g}; "
                "reduce the step size")
        rows.append((sigma, *y))
        if y[0] < max(R_MIN, 2.0 * step):
            break
    return np.asarray(rows)


def residual_cmc(model: ModelGeometry, profile: CmcProfile) -> float:
    """Max defect of the radial CMC equation on the interior grid.

    The equation checked is F' + n Hcyl(r) F = n H(R) with
    F = v' / sqrt(rho^{-2} + v'^2), all derivatives by centered differences
    on the (nonuniform) profile grid.  The two nodes nearest the rim are
    excluded: the infinite slope there makes finite differences meaningless.
    """
    r = profile.grid
    vp = np.asarray(profile.vp, dtype=float)
    rho = model.rho.value(r)
    nH = model.n * profile.H_R
    with np.errstate(invalid="ignore"):
        F = vp / np.sqrt(1.0 / rho ** 2 + vp ** 2)
    # the flux F is smooth and bounded through the rim even though v' blows
    # up; its rim limit is +-1 with the sign of the mean curvature
    F[~np.isfinite(F)] = math.copysign(1.0, nH)
    Fp = np.gradient(F, r)
    lhs = Fp[1:-2] + model.n * model.Hcyl(r[1:-2]) * F[1:-2]
    return float(np.max(np.abs(lhs - nH)))
