"""Ball-exhaustion existence scheme, run as a computation.

Entire-graph flows are obtained as limits of Dirichlet problems on an
increasing ladder of geodesic balls, all observed on one fixed compact
cylinder B_{r0} x [0, T0].  This module builds the ladder (rung k is the
smallest integer radius, above rung k - 1, whose cylinder-size function
zeta makes the ball of radius 2^k r0 parabolically small,
zeta(2^k r0) < zeta(rung)/4), solves the rungs, and reports the
successive sup-differences d_k on the nodes every rung shares: r = k/8
up to the first node at or beyond r0, every theta node and every time
step, read from each rung's own grid.  Only those nodes are compared, so
a rung keeps the lattice k/8 out to a core radius r_c a little past r0
and is graded beyond it, its gaps growing by the ratio GRADING out to R
(``ExhaustionPlan.grid_for``): the E2 ladder's rungs 3, 5, 9, 17 step on
22, 28, 35, 42 rows instead of 24, 40, 72, 136.
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
                   _grid_factors, solve_ball)
from .geometry import ModelGeometry, _integer, _positive, lower_ricci_bounds


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


def pole_mollified_extension(phi: Callable) -> Callable:
    """Extension of boundary data phi(theta) to the ball, tapered to zero
    at the pole.

    The ray-constant extension of a nonconstant phi is multivalued at
    r = 0 and is not admissible initial data; this one ramps it up
    smoothly over [0, 1] and is constant along rays beyond r = 1.  The
    ramp is independent of the rung radius, so every rung starts from the
    same field.
    """

    def ext(r, theta):
        vals = np.asarray(phi(theta), dtype=float)
        ramp = np.sin(0.5 * math.pi * np.clip(r, 0.0, 1.0)) ** 2
        return ramp * vals

    return ext


@dataclass(frozen=True)
class ExhaustionPlan:
    model: ModelGeometry
    r0: float
    ladder: tuple[int, ...]
    T0: float
    tol: float
    ntheta: int = 16
    n_time_steps: int = 64

    def __post_init__(self):
        # grid_for reads r0 and control() T0 and n_time_steps
        _positive("r0", self.r0, ExhaustionError)
        _positive("T0", self.T0, ExhaustionError)
        object.__setattr__(self, "n_time_steps", _integer(
            "n_time_steps", self.n_time_steps, 1, ExhaustionError))
        # a radial rung (ntheta = 1) would silently sample phi(0) of a phi
        # that depends on theta
        if self.ntheta == 1:
            raise ExhaustionError("a ladder needs ntheta > 1; got ntheta = 1")
        # the polar grid's n = 2 rule is flow's, checked before the first
        # rung; the factors are cached, and that rung's solve reuses them
        try:
            _grid_factors(self.model.n, self.model.xi, self.model.rho,
                          self.grid_for(float(self.ladder[0])))
        except FlowError as exc:
            raise ExhaustionError(str(exc)) from None
        _positive("tol", self.tol, ExhaustionError)
        if min(self.ladder) < self.r0:
            raise ExhaustionError(
                f"every rung must contain B_r0: rung {min(self.ladder)} "
                f"< r0 = {self.r0}")

    def grid_for(self, R: float) -> Grid:
        """The rung's grid.  Every rung carries the nodes k/8 up to the core
        radius r_c = max(MIN_CORE, 2 ceil(8 r0) / 8).  A rung with R <= r_c
        is uniform, h = 1/8 (1/16 for R = 1).  Past r_c the nodes of every
        rung come from one sequence, r_c + sum_{k=1..m} GRADING^k / 8, and
        the one nearest R (never r_c itself) is moved onto R."""
        core = max(MIN_CORE, math.ceil(8 * self.r0) / 4)
        if R <= core:
            return Grid(R=R, nr=round(8 * max(R, 2)), ntheta=self.ntheta)
        # node m = r_c + c (GRADING^m - 1), each evaluated on its own, so
        # that every rung's nodes are the same floats
        c = GRADING / (8 * (GRADING - 1))
        tail = [core]
        while tail[-1] < R:
            tail.append(core + c * (GRADING ** len(tail) - 1))
        if len(tail) > 2 and R - tail[-2] < tail[-1] - R:
            tail.pop()
        tail[-1] = R
        nodes = (*(np.arange(round(8 * core)) / 8), *tail)
        return Grid(R=R, nr=len(nodes) - 1, ntheta=self.ntheta, nodes=nodes)

    def control(self) -> StepControl:
        return StepControl(dt_max=self.T0 / self.n_time_steps)


MIN_RUNGS = 2
# a rung's grid carries the lattice k/8 out to at least MIN_CORE, then
# grows each gap by GRADING (``ExhaustionPlan.grid_for``)
MIN_CORE = 2.0
GRADING = 1.1


def _smallest_rung(model: ModelGeometry, r: float) -> int:
    z = model.zeta(r)
    lam = int(math.floor(r)) + 1
    while lam < 10 ** 6:
        if z < model.zeta(float(lam)) / 4.0:
            return lam
        lam += 1
    raise ExhaustionError("no rung below 1e6 satisfies the quarter rule")


def build_ladder(model: ModelGeometry, r0: float, count: int,
                 tol: float = 1e-3, **plan_kwargs) -> ExhaustionPlan:
    """Ladder of rung radii; rung k is the smallest integer Lam with
    zeta(r_k) < zeta(Lam)/4 for the doubling sequence r_k = 2^k r0."""
    count = _integer("count", count, MIN_RUNGS, ExhaustionError)
    _positive("r0", r0, ExhaustionError)
    ladder = []
    r = r0
    for _ in range(count):
        lam = _smallest_rung(model, r)
        if ladder and lam <= ladder[-1]:
            lam = ladder[-1] + 1
        ladder.append(lam)
        r *= 2.0
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


def _cylinder_values(trajectory: Trajectory,
                     r0: float) -> tuple[np.ndarray, np.ndarray]:
    """(r, U): the rung's own nodes up to r = ceil(8 r0)/8, the first node
    k/8 at or beyond r0, and the snapshots of u on them.  The nodes cover
    B_r0 also when r0 is off the lattice k/8.  They lie in the rung's
    uniform core, whose spacing is r[1]."""
    grid = trajectory.grid
    top = round(math.ceil(8 * r0) / (8 * grid.r[1]))
    return grid.r[:top + 1], np.stack([s.u[:top + 1]
                                       for s in trajectory.states])


def _solve_rung(plan: ExhaustionPlan, R: int, phi: Callable,
                u0: Callable) -> Trajectory:
    problem = BallProblem(model=plan.model, R=float(R), phi=phi, u0=u0,
                          T=plan.T0)
    grid = plan.grid_for(float(R))
    try:
        return solve_ball(problem, grid, plan.control(), snapshot_every=1)
    except FlowError as exc:
        raise ExhaustionError(f"rung R={R} failed: {exc}") from exc


def run_exhaustion(plan: ExhaustionPlan, phi: Callable) -> ConvergenceReport:
    """Solve the ladder and report Cauchy differences on the common
    cylinder.  Deterministic: identical plans produce identical reports.

    Rungs are solved in ladder order, and the ladder stops early once the
    Cauchy difference is already below tolerance, skipping the remaining
    (most expensive) rungs.
    """
    model = plan.model
    u0 = pole_mollified_extension(phi)
    # the curvature bound's Ricci constant on the first rung; a model with
    # none (a table xi singular at the pole) fails before any rung is solved
    R1 = float(plan.ladder[0])
    _, L1 = lower_ricci_bounds(model, R1)
    # each rung is reduced to its report, its observation stack and the
    # running maxima as soon as it is solved, and its trajectory is dropped
    # before the next rung starts
    reports = []
    observed = None
    sup_u = 0.0
    hr_max = 0.0
    for R in plan.ladder:
        tr = _solve_rung(plan, R, phi, u0)
        r, cyl = _cylinder_values(tr, plan.r0)
        # every rung carries the nodes k/8 (every other node at h = 1/16),
        # so rungs are compared there, with no interpolation
        previous, observed = observed, cyl[:, ::round(1 / (8 * tr.grid.r[1]))]
        sup_u = max(sup_u, float(np.max(np.abs(observed))))
        # a margin below tol, h^4 of the coarsest rung, kept until the
        # verdict subtracts a measured discretisation error instead
        hr_max = max(hr_max, float(tr.grid.r[1]))
        interp_budget = hr_max ** 4
        d_k = (None if previous is None
               else float(np.max(np.abs(observed - previous))))
        # the bounds' premise is |u0| <= sup0 on the rung's whole ball
        sup0 = float(np.max(np.abs(tr.states[0].u)))
        _, upper = barriers.height_bounds(model, float(R), plan.T0, sup0)
        # lower = -upper, so both margins are upper - |u|
        margin = float(np.min(upper(r)[:, None] - np.abs(cyl)))
        reports.append(RungReport(
            R=R, d_k=d_k,
            max_grad=float(np.max(tr.max_grad)),
            max_A=float(np.max(tr.max_A)),
            height_margin=margin))
        del tr
        if d_k is not None and d_k < plan.tol - interp_budget:
            break

    # one-sided estimate checks computed from the first rung's data
    M = max(sup_u, 1e-6)
    gb = barriers.interior_gradient_bound(model, R1, M,
                                          beta=barriers._GRADIENT_BETA,
                                          k=barriers._GRADIENT_K)
    max_grad_all = max(r.max_grad for r in reports)
    grad_ok = math.log(max(max_grad_all, 1e-300)) <= gb.log_bound
    rs = np.linspace(1e-6, R1, 256)
    gamma = float(np.min(1.0 / model.rho.value(rs) ** 2))
    sup_W2 = gamma + max_grad_all ** 2 + 1.0
    delta_psi = barriers.compute_delta_psi(gamma, sup_W2)
    zR = model.zeta(R1)
    E_R = barriers.compute_E_R(
        delta_psi, float(np.max(model.xi.value(rs)) ** 2), model.n, zR,
        float(np.max(np.abs(model.xi.d1(rs)))))
    cb = barriers.curvature_bound(delta_psi, L1, 0.0, 0.0, E_R, zR, plan.T0)
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
