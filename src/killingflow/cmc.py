"""Rotationally invariant constant mean curvature graphs.

The radial graph of height v over the punctured ball B_R has constant mean
curvature H(R) = -A(R)/(n V(R)) exactly when its slope satisfies the flux
identity

    v'(r) / sqrt(rho^{-2} + v'^2) * rho(r) xi(r)^{n-1} = n H(R) V(r),

which resolves to

    v'(r) = n H(R) V(r) / (rho(r) sqrt(A(r)^2 - n^2 H(R)^2 V(r)^2)).

The height itself is the integral of -v' from r to R.  The integrand has an
inverse-square-root singularity at the outer rim (the profile meets the rim
vertically), removed here by the substitution s = R - tau^2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass

import numpy as np

from .geometry import (GeometryError, ModelGeometry, R_MIN,
                       _CumulativeIntegral)
from .quadrature import adaptive_simpson, composite_simpson


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
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not validate:
            # escape hatch for feeding deliberately wrong profiles to
            # residual_cmc in tests
            return
        if abs(float(self.v[-1])) > 1e-12:
            raise CmcError("v(R) must vanish")
        interior = self.v[:-1]
        if np.any(np.diff(self.v) >= 0) or np.any(interior < 0):
            raise CmcError("v must be positive and strictly decreasing")
        if np.any(self.vp > 0):
            raise CmcError("v' must be nonpositive")

    def value(self, r):
        """Height at radius r by monotone interpolation of the samples."""
        return np.interp(r, self.grid, self.v)


def _direct_disc(model: ModelGeometry, nH: float, r: float) -> float:
    A = model.A(r)
    V = model.V(r)
    return A * A - nH * nH * V * V


def _disc_near_rim(model: ModelGeometry, R: float, nH: float, r: float):
    """Slope discriminant A^2 - (nH V)^2 in the rim zone where the direct
    difference cancels catastrophically.

    Recovered by integrating its derivative in the depth variable y = R - s
    (pointwise noise of the derivative is only ulp-level).  The cumulative
    integral is cached per (model, R): rim quadratures evaluate the slope at
    thousands of clustered radii and each would otherwise redo it.  Deep
    queries are anchored at the junction radius where the direct formula is
    still trustworthy, so the noisier rim-side panels cancel out of them.
    """
    cache = getattr(model, "_disc_cache", None)
    if cache is None:
        cache = {}
        model._disc_cache = cache
    key = (R, nH)
    entry = cache.get(key)
    if entry is None:
        def f(t: float) -> float:
            s = max(R - t, R_MIN)
            As = model.A(s)
            return 2.0 * As * (model.A_prime(s) - nH * nH * model.V(s))

        def noise(t: float) -> float:
            s = max(R - t, R_MIN)
            return 1e-15 * model.A(s) * abs(model.A_prime(s))

        ci = _CumulativeIntegral(f, 1e-10, panel=0.25, noise=noise)
        # junction: outermost radius where the direct difference is still
        # accurate to ~1e-10 relative (cancellation eats six digits)
        lo, hi = R_MIN, R
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            A = model.A(mid)
            if _direct_disc(model, nH, mid) > 1e-6 * A * A:
                lo = mid
            else:
                hi = mid
        y_j = R - lo
        D_j = _direct_disc(model, nH, lo)
        entry = (ci, y_j, D_j)
        cache[key] = entry
    ci, y_j, D_j = entry
    y = R - r
    if y <= 0.5 * y_j:
        return -ci(y)
    return D_j - (ci(y) - ci(y_j))


def _vR_prime(model: ModelGeometry, R: float, nH: float, r: float) -> float:
    # slope with the (per-profile constant) nH hoisted out: the rim
    # quadratures evaluate this thousands of times per profile
    if not 0.0 <= r < R:
        raise CmcError(f"need 0 <= r < R, got r={r}, R={R}")
    if r <= R_MIN:
        return 0.0
    V = model.V(r)
    A = model.A(r)
    disc = A * A - nH * nH * V * V
    if disc <= 1e-6 * A * A:
        # the direct difference cancels catastrophically near the rim
        # (disc vanishes like R - r there)
        disc = _disc_near_rim(model, R, nH, r)
    if disc <= 0.0:
        raise CmcError(f"degenerate slope discriminant at r={r}")
    return nH * V / (float(model.rho.value(r)) * math.sqrt(disc))


def eval_vR_prime(model: ModelGeometry, R: float, r: float) -> float:
    """Slope v'(r) of the radial CMC profile with rim radius R."""
    return _vR_prime(model, R, model.n * model.H(R), r)


def _rim_heights(model: ModelGeometry, R: float, radii: Sequence[float],
                 tol: float) -> list[float]:
    """Heights v_R at rim-inward radii (plain floats, decreasing, in [0, R)).

    v_R(r) is the integral of -v' over [r, R].  Substituting s = R - tau^2
    maps [r, R] to [0, sqrt(R - r)] and cancels the (R - s)^{-1/2} blowup of
    the slope, so one accumulation in tau from the rim inward yields every
    height, each node adding the panel from the previous one.  The
    tolerance is budgeted by panel width, so the total is about tol (an
    equal split would over-resolve the many short panels of fine grids).

    Slope evaluations near the rim are limited to a relative accuracy of a
    few tens of ulp of the area profile's growth rate.  While that noise
    floor sits below a panel's tolerance the adaptive rule is used; past it
    (models where A grows exponentially, large rim radii) adaptive
    subdivision would chase noise forever, so a fixed composite rule takes
    over and the result honestly carries the noise-floor error instead.
    """
    floor = 1e-14 * abs(model.A_prime(R))
    if floor > 5e-3:
        raise CmcError(
            f"rim radius R={R:g} too large for this model in double "
            f"precision: the area profile grows past the point where the "
            f"profile slope can be resolved")
    # g is smooth in tau with g(tau) = g(0) + O(tau^2), but below tau_min
    # the difference R - tau^2 is lost to rounding; freeze tau there
    # (g' = O(tau), so the induced height error is O(tau_min^3))
    tau_min = 1e-7 * math.sqrt(max(R, 1.0))
    nH = model.n * model.H(R)

    def g(tau: float) -> float:
        tc = max(tau, tau_min)
        s = max(R - tc * tc, 0.0)
        # near the rim R - tc^2 quantizes to the ulp spacing of R; pair the
        # (R - s)^{-1/2} blowup of the slope with the tau the rounded s
        # actually corresponds to, not the requested one
        te = math.sqrt(R - s)
        return -2.0 * te * _vR_prime(model, R, nH, s)

    taus = [math.sqrt(R - r) for r in radii]
    heights = []
    acc = prev = 0.0
    for tau in taus:
        width = tau - prev
        panel_tol = tol * max(width / taus[-1], 1e-3)
        if floor <= panel_tol:
            acc += adaptive_simpson(g, prev, tau, panel_tol)
        else:
            panels = max(8, int(1024.0 * width / max(math.sqrt(R), 1.0)))
            acc += composite_simpson(g, prev, tau, panels)
        heights.append(acc)
        prev = tau
    return heights


def sample_vR(model: ModelGeometry, R: float, r_grid: np.ndarray,
              tol: float | None = None) -> np.ndarray:
    """Heights v_R at every node of an increasing radius grid.

    One rim-inward accumulation shared by all nodes, the same one behind
    eval_vR and solve_vR, so this costs about as much as a single eval_vR
    call instead of one per node.  Nodes at or beyond R get height 0.
    """
    if R <= 0:
        raise CmcError("R must be positive")
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.ndim != 1 or r_grid.size == 0:
        raise CmcError("r_grid must be a nonempty 1-d array")
    if np.any(np.diff(r_grid) <= 0) or r_grid[0] < 0:
        raise CmcError("r_grid must be strictly increasing and nonnegative")
    inside = int(np.searchsorted(r_grid, R))
    out = np.zeros(r_grid.size)
    out[:inside] = _rim_heights(model, R, r_grid[:inside][::-1].tolist(),
                                tol if tol else model.quad_tol)[::-1]
    return out


def eval_vR(model: ModelGeometry, R: float, r: float,
            tol: float | None = None) -> float:
    """Height v_R(r) of the radial CMC profile, zero at the rim: the
    one-node case of sample_vR, without its array set-up."""
    if R <= 0:
        raise CmcError("R must be positive")
    if not 0.0 <= r <= R:
        raise CmcError(f"need 0 <= r <= R, got r={r}")
    if r == R:
        return 0.0
    return _rim_heights(model, R, (r,), tol if tol else model.quad_tol)[0]


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
    if R <= 0:
        raise CmcError("R must be positive")
    if grid_size < MIN_GRID_SIZE:
        raise CmcError(f"grid_size must be >= {MIN_GRID_SIZE}")
    grid = _profile_grid(R, grid_size)
    v = np.zeros(grid.size)
    v[:-1] = _rim_heights(model, R, grid[-2::-1].tolist(),
                          model.quad_tol)[::-1]
    nH = model.n * model.H(R)
    vp = np.empty(grid.size)
    vp[0] = 0.0
    for i in range(1, grid.size - 1):
        vp[i] = _vR_prime(model, R, nH, float(grid[i]))
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
    if R <= 0 or step <= 0:
        raise CmcError("R and step must be positive")
    nH = model.n * model.H(R)

    def rhs(y):
        r, s, phi = y
        r = max(r, R_MIN)
        return np.array([
            math.cos(phi),
            math.sin(phi) / float(model.rho.value(r)),
            -nH - model.n * float(model.Hcyl(r)) * math.sin(phi),
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
    rho = np.asarray(model.rho.value(r), dtype=float)
    nH = model.n * profile.H_R
    with np.errstate(invalid="ignore"):
        F = vp / np.sqrt(1.0 / rho ** 2 + vp ** 2)
    # the flux F is smooth and bounded through the rim even though v' blows
    # up; its rim limit is +-1 with the sign of the mean curvature
    F[~np.isfinite(F)] = math.copysign(1.0, nH)
    Fp = np.gradient(F, r)
    lhs = Fp[1:-2] + model.n * np.asarray(model.Hcyl(r[1:-2])) * F[1:-2]
    return float(np.max(np.abs(lhs - nH)))
