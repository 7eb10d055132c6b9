"""Ball-exhaustion existence scheme, run as a computation.

Entire-graph flows are obtained as limits of Dirichlet problems on an
increasing ladder of geodesic balls, all observed on one fixed compact
cylinder B_{r0} x [0, T0].  This module builds the ladder (each rung
radius is the smallest integer whose cylinder-size function zeta makes the
observation ball parabolically small, zeta(r0) < zeta(rung)/4), solves the
rungs, transfers every rung solution to a common observation grid by
bicubic interpolation (one linear map per rung, applied to all its
snapshots at once), and reports the successive sup-differences d_k.
The scheme is a numerical surrogate for a compactness argument: d_k is
reported as measured, with no convergence-rate claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import barriers
from .flow import (BallProblem, FlowError, Grid, StepControl, Trajectory,
                   solve_ball)
from .geometry import ModelGeometry, lower_ricci_bounds


def __getattr__(name: str):
    """Lazy shim for the benchmark tracer (bench/spans.py), which wraps
    ``exhaustion.RectBivariateSpline``.  exhaustion fits no such spline,
    so scipy.interpolate is imported only when that name is read."""
    if name == "RectBivariateSpline":
        from scipy.interpolate import RectBivariateSpline
        return RectBivariateSpline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ExhaustionError(RuntimeError):
    pass


def radial_extension(phi: Callable) -> Callable:
    """Extend boundary data phi(theta) to the field constant along rays."""

    def ext(r, theta):
        vals = np.asarray(phi(theta), dtype=float)
        return np.broadcast_to(vals, np.broadcast_shapes(
            np.shape(r), np.shape(vals))).copy()

    return ext


def pole_mollified_extension(phi: Callable, r_c: float = 1.0) -> Callable:
    """Radial extension tapered to zero at the pole.

    The plain ray-constant extension of a nonconstant phi is multivalued at
    r = 0 and is not admissible initial data; this variant ramps it up
    smoothly over [0, r_c] and agrees with the plain extension beyond r_c.
    The ramp is independent of the rung radius, so every rung starts from
    the same field.
    """
    if r_c <= 0:
        raise ExhaustionError("r_c must be positive")

    def ext(r, theta):
        vals = np.asarray(phi(theta), dtype=float)
        ramp = np.sin(0.5 * math.pi * np.clip(np.asarray(r) / r_c,
                                              0.0, 1.0)) ** 2
        return ramp * vals

    return ext


@dataclass(frozen=True)
class ExhaustionPlan:
    model: ModelGeometry
    r0: float
    ladder: tuple[int, ...]
    T0: float
    tol: float
    nr_per_unit: int = 8
    ntheta: int = 16
    n_time_steps: int = 64

    def __post_init__(self):
        # rungs are polar runs, transferred by a bicubic spline in theta
        if self.ntheta == 1 or self.model.n != 2:
            raise ExhaustionError(
                f"a ladder needs ntheta > 1 and n = 2; got "
                f"ntheta = {self.ntheta}, n = {self.model.n}")

    def grid_for(self, R: float) -> Grid:
        nr = max(16, int(round(self.nr_per_unit * R)))
        return Grid(R=R, nr=nr, ntheta=self.ntheta)

    def control(self) -> StepControl:
        return StepControl(cfl=0.5, dt_max=self.T0 / self.n_time_steps)


def _smallest_rung(model: ModelGeometry, r: float) -> int:
    z = model.zeta(r)
    lam = int(math.floor(r)) + 1
    while lam < 10 ** 6:
        if z < model.zeta(float(lam)) / 4.0:
            return lam
        lam += 1
    raise ExhaustionError("no rung below 1e6 satisfies the quarter rule")


def build_ladder(model: ModelGeometry, r0: float, count: int,
                 growth: float = 2.0, tol: float = 1e-3,
                 **plan_kwargs) -> ExhaustionPlan:
    """Ladder of rung radii; rung k is the smallest integer Lam with
    zeta(r_k) < zeta(Lam)/4 for the doubling sequence r_k = growth^k r0."""
    if count < 2:
        raise ExhaustionError("count must be >= 2")
    if r0 <= 0 or growth <= 1.0:
        raise ExhaustionError("need r0 > 0 and growth > 1")
    ladder = []
    r = r0
    for _ in range(count):
        lam = _smallest_rung(model, r)
        if ladder and lam <= ladder[-1]:
            lam = ladder[-1] + 1
        ladder.append(lam)
        r *= growth
    T0 = 0.5 * model.zeta(float(ladder[0]))
    return ExhaustionPlan(model=model, r0=r0, ladder=tuple(ladder), T0=T0,
                          tol=tol, **plan_kwargs)


@dataclass(frozen=True)
class RungReport:
    R: int
    d_k: float | None      # sup-difference to the previous rung
    max_grad: float
    max_A: float
    height_margin: float


@dataclass(frozen=True)
class ConvergenceReport:
    rungs: tuple[RungReport, ...]
    verdict: bool
    tol: float
    interp_error_budget: float
    grad_bound_log: float
    grad_bound_ok: bool
    curvature_bound_value: float
    curvature_bound_ok: bool

    def to_dict(self) -> dict:
        return {
            "rungs": [
                {"R": r.R, "d_k": r.d_k, "max_grad": r.max_grad,
                 "max_A": r.max_A, "margins": {"height": r.height_margin}}
                for r in self.rungs
            ],
            "verdict": "pass" if self.verdict else "fail",
            "tol": self.tol,
            "interp_error_budget": self.interp_error_budget,
            "one_sided_checks": {
                "log_gradient_bound": self.grad_bound_log,
                "gradient_within_bound": self.grad_bound_ok,
                "curvature_bound": self.curvature_bound_value,
                "curvature_within_bound": self.curvature_bound_ok,
            },
        }


def _transfer(grid: Grid, r_obs: np.ndarray,
              theta_obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Mr, Mt): the bicubic transfer from the grid to the observation grid
    as the linear map U -> Mr @ U @ Mt.T.

    The interpolating cubic spline is linear in its data, so fitting it to
    the columns of an identity gives its matrix: Mr from the not-a-knot
    spline on grid.r (the space FITPACK's s = 0 fit interpolates in), Mt
    from the same spline on theta padded periodically by 4 nodes a side,
    fitted to the padding's selection matrix."""
    from scipy.interpolate import make_interp_spline
    nt = grid.ntheta
    pad = 4
    idx = np.r_[nt - pad:nt, 0:nt, 0:pad]
    theta_ext = np.concatenate([grid.theta[-pad:] - 2 * math.pi, grid.theta,
                                grid.theta[:pad] + 2 * math.pi])
    Mr = make_interp_spline(grid.r, np.eye(grid.nr + 1), k=3)(r_obs)
    Mt = make_interp_spline(theta_ext, np.eye(nt)[idx], k=3)(theta_obs)
    return Mr, Mt


def _observe(trajectory: Trajectory, r_obs: np.ndarray,
             theta_obs: np.ndarray) -> np.ndarray:
    """Stack of rung snapshots bicubically interpolated to the observation
    grid: one transfer map per rung, applied to the whole stack."""
    Mr, Mt = _transfer(trajectory.grid, r_obs, theta_obs)
    return Mr @ np.stack([s.u for s in trajectory.states]) @ Mt.T


def _cylinder_values(trajectory: Trajectory, r0: float) -> np.ndarray:
    """Values of u restricted to the observation ball, on the rung's own
    grid (for max-norm measurements without interpolation error)."""
    grid = trajectory.grid
    mask = grid.r <= r0 + 1e-12
    return np.stack([s.u[mask] for s in trajectory.states])


def _solve_rung(plan: ExhaustionPlan, R: int, phi: Callable,
                u0: Callable) -> Trajectory:
    problem = BallProblem(model=plan.model, R=float(R), phi=phi, u0=u0,
                          T=plan.T0)
    grid = plan.grid_for(float(R))
    try:
        return solve_ball(problem, grid, plan.control(), snapshot_every=1)
    except FlowError as exc:
        raise ExhaustionError(f"rung R={R} failed: {exc}") from exc


def run_exhaustion(plan: ExhaustionPlan, phi: Callable,
                   u0_radial_ext: Callable | None = None,
                   C_sim: float = 0.0,
                   C_sim_tilde: float = 0.0) -> ConvergenceReport:
    """Solve the ladder and report Cauchy differences on the common
    cylinder.  Deterministic: identical plans produce identical reports.

    Rungs are solved in ladder order, and the ladder stops early once the
    Cauchy difference is already below tolerance, skipping the remaining
    (most expensive) rungs.
    """
    model = plan.model
    u0 = u0_radial_ext or pole_mollified_extension(phi)
    r_obs = np.linspace(0.0, plan.r0, 33)
    theta_obs = Grid(R=1.0, nr=8, ntheta=plan.ntheta).theta
    # each rung is reduced to its report, its observation stack and the
    # running maxima as soon as it is solved, and its trajectory is dropped
    # before the next rung starts
    reports = []
    observed = None
    sup_u = 0.0
    hr_max = 0.0
    for R in plan.ladder:
        tr = _solve_rung(plan, R, phi, u0)
        previous, observed = observed, _observe(tr, r_obs, theta_obs)
        sup_u = max(sup_u, float(np.max(np.abs(observed))))
        # bicubic transfer error budget: h^4-scale bound from the coarsest
        # rung, subtracted from the tolerance in the verdict
        hr_max = max(hr_max, tr.grid.hr)
        interp_budget = hr_max ** 4
        d_k = (None if previous is None
               else float(np.max(np.abs(observed - previous))))
        cyl = _cylinder_values(tr, plan.r0)
        sup0 = float(np.max(np.abs(cyl[0])))
        _, upper = barriers.height_bounds(model, float(R), plan.T0, sup0)
        # lower = -upper, so both margins are upper - |u|
        hi = upper(tr.grid.r[tr.grid.r <= plan.r0 + 1e-12])
        margin = float(np.min(hi[:, None] - np.abs(cyl)))
        reports.append(RungReport(
            R=R, d_k=d_k,
            max_grad=float(np.max(tr.max_grad)),
            max_A=float(np.max(tr.max_A)),
            height_margin=margin))
        del tr
        if d_k is not None and d_k < plan.tol - interp_budget:
            break

    # one-sided estimate checks computed from the first rung's data
    R1 = float(plan.ladder[0])
    M = max(sup_u, 1e-6)
    gb = barriers.interior_gradient_bound(model, R1, M, beta=1 - 1e-8, k=17)
    max_grad_all = max(r.max_grad for r in reports)
    grad_ok = math.log(max(max_grad_all, 1e-300)) <= gb.log_bound
    rs = np.linspace(1e-6, R1, 256)
    rho = np.asarray(model.rho.value(rs), dtype=float)
    gamma = float(np.min(1.0 / rho ** 2))
    sup_W2 = gamma + max_grad_all ** 2 + 1.0
    delta_psi = barriers.compute_delta_psi(gamma, sup_W2)
    zR = model.zeta(R1)
    E_R = barriers.compute_E_R(
        delta_psi, float(np.max(model.xi.value(rs)) ** 2), model.n, zR,
        float(np.max(np.abs(model.xi.d1(rs)))))
    _, L1 = lower_ricci_bounds(model, R1)
    cb = barriers.curvature_bound(delta_psi, L1, C_sim, C_sim_tilde,
                                  E_R, zR, plan.T0)
    max_A_all = max(r.max_A for r in reports)
    curv_ok = max_A_all <= cb

    final_d = reports[-1].d_k
    verdict = (final_d is not None
               and final_d < plan.tol - interp_budget)
    return ConvergenceReport(
        rungs=tuple(reports), verdict=verdict, tol=plan.tol,
        interp_error_budget=interp_budget,
        grad_bound_log=gb.log_bound, grad_bound_ok=grad_ok,
        curvature_bound_value=cb, curvature_bound_ok=curv_ok)
