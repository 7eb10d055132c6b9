"""The scalar input rules of the package, one table.

Every public scalar input of geometry, cmc, barriers, flow and exhaustion
follows one of three rules (``geometry._positive``, ``_nonnegative`` and
``_integer``), and the array inputs of the finite rows refuse nan and inf.  Each row calls
one entry point with a refused value in one argument and expects the
module's own exception, with warnings as errors: a value the numerics
cannot honour fails loudly, before any numpy warning.
"""

import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from killingflow import barriers, cmc, exhaustion, flow, geometry
from killingflow.barriers import BarrierError, GeodesicSpec
from killingflow.cmc import CmcError
from killingflow.exhaustion import ExhaustionError
from killingflow.flow import (BallProblem, FlowError, Grid, StepControl,
                              load_run, model_hash, save_run, solve_ball)
from killingflow.geometry import GeometryError

NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
# the values each rule refuses, by id
REFUSED = {
    "positive": {"0": 0, "-1": -1, **NON_FINITE},
    "nonnegative": {"-1": -1, **NON_FINITE},
    "integer": {"2.5": 2.5, "True": True, "'8'": "8", **NON_FINITE},
    "finite": NON_FINITE,
}


def _zero_phi(theta):
    return np.zeros_like(theta)


def _bump(r, theta):
    return 0.25 * np.cos(0.5 * math.pi * r) * np.ones_like(theta)


def _tilted(r, theta):
    return r * np.cos(theta)


def _flat_profiles():
    return (geometry.euclidean_profile(), geometry.euclidean_profile(),
            geometry.constant_profile(1.0))


def _radial(m):
    """(problem, grid, control) of a small radial E2 run."""
    return (BallProblem(model=m.e2, R=1.0, phi=_zero_phi, u0=_bump, T=0.01),
            Grid(R=1.0, nr=8, ntheta=1), StepControl())


def _step(dt, m):
    problem, grid, control = _radial(m)
    u0, _ = problem.sample(grid)
    state = flow.FlowState(t=0.0, u=u0[:, 0], W=np.ones(9), step_count=0)
    return flow.step(state, problem, grid, control, dt=dt)


def _curvature_bound(**bad):
    args = dict(delta_psi=0.1, L1=1.0, C_sim=0.0, C_sim_tilde=0.0, E_R=1.0,
                zeta_R=1.0, T=1.0)
    return barriers.curvature_bound(**{**args, **bad})


def _gradient_bound(m, R=1.0, M=1.0, k=17):
    return barriers.interior_gradient_bound(m.h2, R, M, beta=1 - 1e-8, k=k)


# (entry point and argument, rule, module exception, call with the value)
ROWS = [
    ("geometry.ProfileSpec.kappa[hyperbolic]", "positive", GeometryError,
     lambda x, m: geometry.ProfileSpec("hyperbolic", kappa=x)),
    ("geometry.ProfileSpec.kappa[cosh]", "positive", GeometryError,
     lambda x, m: geometry.ProfileSpec("cosh", kappa=x)),
    ("geometry.hyperbolic_profile.kappa", "positive", GeometryError,
     lambda x, m: geometry.hyperbolic_profile(x)),
    ("geometry.cosh_profile.kappa", "positive", GeometryError,
     lambda x, m: geometry.cosh_profile(x)),
    ("geometry.named_model.kappa", "positive", GeometryError,
     lambda x, m: geometry.named_model("euclidean", kappa=x)),
    ("geometry.make_model.n", "integer", GeometryError,
     lambda x, m: geometry.make_model(*_flat_profiles(), x)),
    ("geometry.make_model.quad_tol", "positive", GeometryError,
     lambda x, m: geometry.make_model(*_flat_profiles(), 2, quad_tol=x)),
    ("geometry.lower_ricci_bounds.R", "positive", GeometryError,
     lambda x, m: geometry.lower_ricci_bounds(m.h2, x)),
    ("geometry.ModelGeometry.H.r", "finite", GeometryError,
     lambda x, m: m.h2.H(x)),
    ("geometry.ModelGeometry.H_prime.r", "finite", GeometryError,
     lambda x, m: m.h2.H_prime(np.array([1.0, x]))),
    ("geometry.ModelGeometry.Hcyl.r", "finite", GeometryError,
     lambda x, m: m.e2.Hcyl(x)),
    ("cmc.eval_vR.R", "positive", CmcError,
     lambda x, m: cmc.eval_vR(m.h2, x, 0.0)),
    ("cmc.sample_vR.R", "positive", CmcError,
     lambda x, m: cmc.sample_vR(m.h2, x, np.array([0.0, 0.5]))),
    ("cmc.sample_vR.r_grid[middle]", "finite", CmcError,
     lambda x, m: cmc.sample_vR(m.h2, 1.0, [0.0, x, 0.5])),
    ("cmc.sample_vR.r_grid[last]", "finite", CmcError,
     lambda x, m: cmc.sample_vR(m.h2, 1.0, [0.0, 0.5, x])),
    ("cmc.solve_vR.R", "positive", CmcError,
     lambda x, m: cmc.solve_vR(m.h2, x, 32)),
    ("cmc.solve_vR.grid_size", "integer", CmcError,
     lambda x, m: cmc.solve_vR(m.h2, 1.0, x)),
    ("cmc.eval_vR_prime.R", "positive", CmcError,
     lambda x, m: cmc.eval_vR_prime(m.h2, x, 0.0)),
    ("cmc.integrate_profile_ode.R", "positive", CmcError,
     lambda x, m: cmc.integrate_profile_ode(m.e2, x, 0.1)),
    ("cmc.integrate_profile_ode.step", "positive", CmcError,
     lambda x, m: cmc.integrate_profile_ode(m.e2, 1.0, x)),
    ("barriers.SupersolutionFlow.r0", "positive", BarrierError,
     lambda x, m: barriers.SupersolutionFlow(m.h2, x)),
    ("barriers.mu_of_t.r0", "positive", BarrierError,
     lambda x, m: barriers.mu_of_t(m.h2, x, 0.1)),
    ("barriers.height_bounds.r0", "positive", BarrierError,
     lambda x, m: barriers.height_bounds(m.h2, x, 0.1, 0.0)),
    ("barriers.SupersolutionFlow.time_of.R", "finite", BarrierError,
     lambda x, m: barriers.SupersolutionFlow(m.h2, 1.0).time_of(
         np.array([1.5, x]))),
    ("barriers.SupersolutionFlow.R_of_t.t", "finite", BarrierError,
     lambda x, m: barriers.SupersolutionFlow(m.h2, 1.0).R_of_t(
         np.array([0.1, x]))),
    ("barriers.height_bounds.T", "positive", BarrierError,
     lambda x, m: barriers.height_bounds(m.h2, 1.0, x, 0.0)),
    ("barriers.height_bounds.sup_u0", "nonnegative", BarrierError,
     lambda x, m: barriers.height_bounds(m.h2, 1.0, 0.1, x)),
    ("barriers.c0_height_cap.r0", "positive", BarrierError,
     lambda x, m: barriers.c0_height_cap(m.e2, x, 3)),
    ("barriers.c0_height_cap.l0", "integer", BarrierError,
     lambda x, m: barriers.c0_height_cap(m.e2, 1.0, x)),
    ("barriers.make_boundary_barrier.L", "positive", BarrierError,
     lambda x, m: barriers.make_boundary_barrier(L=x, d0=0.5)),
    ("barriers.GeodesicSpec.at_distance.a", "positive", BarrierError,
     lambda x, m: GeodesicSpec.at_distance(x)),
    ("barriers.GeodesicSpec.at_distance.kappa", "positive", BarrierError,
     lambda x, m: GeodesicSpec.at_distance(1.0, x)),
    ("barriers.GeodesicSpec.nu", "finite", BarrierError,
     lambda x, m: GeodesicSpec((x, 0.0, 0.0))),
    ("barriers.make_sc_barrier.C", "positive", BarrierError,
     lambda x, m: barriers.make_sc_barrier(
         m.h2, GeodesicSpec.at_distance(1.0), C=x, d0=2.0)),
    ("barriers.make_sc_barrier.d0", "positive", BarrierError,
     lambda x, m: barriers.make_sc_barrier(
         m.h2, GeodesicSpec.at_distance(1.0), C=1.0, d0=x)),
    ("barriers.pointwise_Q.r", "finite", BarrierError,
     lambda x, m: barriers.pointwise_Q(m.h2, _tilted, np.array([x]),
                                       np.array([0.0]))),
    ("barriers.interior_gradient_bound.R", "positive", BarrierError,
     lambda x, m: _gradient_bound(m, R=x)),
    ("barriers.interior_gradient_bound.M", "nonnegative", BarrierError,
     lambda x, m: _gradient_bound(m, M=x)),
    ("barriers.interior_gradient_bound.k", "positive", BarrierError,
     lambda x, m: _gradient_bound(m, k=x)),
    ("barriers.compute_delta_psi.gamma", "positive", BarrierError,
     lambda x, m: barriers.compute_delta_psi(x, 1.0)),
    ("barriers.compute_delta_psi.sup_W2", "positive", BarrierError,
     lambda x, m: barriers.compute_delta_psi(1.0, x)),
    ("barriers.compute_E_R.delta_psi", "positive", BarrierError,
     lambda x, m: barriers.compute_E_R(x, 1.0, 2, 1.0, 1.0)),
    *[(f"barriers.curvature_bound.{name}", rule, BarrierError,
       lambda x, m, name=name: _curvature_bound(**{name: x}))
      for name, rule in (("delta_psi", "positive"), ("zeta_R", "positive"),
                         ("T", "positive"), ("L1", "nonnegative"),
                         ("C_sim", "nonnegative"),
                         ("C_sim_tilde", "nonnegative"),
                         ("E_R", "nonnegative"))],
    ("flow.Grid.R", "positive", FlowError,
     lambda x, m: Grid(R=x, nr=16, ntheta=8)),
    ("flow.Grid.nr", "integer", FlowError,
     lambda x, m: Grid(R=1.0, nr=x, ntheta=8)),
    ("flow.Grid.ntheta", "integer", FlowError,
     lambda x, m: Grid(R=1.0, nr=16, ntheta=x)),
    ("flow.BallProblem.R", "positive", FlowError,
     lambda x, m: BallProblem(model=m.e2, R=x, phi=_zero_phi, u0=_bump)),
    ("flow.BallProblem.T", "positive", FlowError,
     lambda x, m: BallProblem(model=m.e2, R=1.0, phi=_zero_phi, u0=_bump,
                              T=x)),
    ("flow.StepControl.dt_max", "positive", FlowError,
     lambda x, m: StepControl(dt_max=x)),
    # cfl's own rule is 0 < cfl <= 1, which refuses the same values
    ("flow.StepControl.cfl", "positive", FlowError,
     lambda x, m: StepControl(cfl=x)),
    ("flow.step.dt", "positive", FlowError, _step),
    ("flow.solve_ball.snapshot_every", "integer", FlowError,
     lambda x, m: solve_ball(*_radial(m), snapshot_every=x)),
    ("exhaustion.build_ladder.r0", "positive", ExhaustionError,
     lambda x, m: exhaustion.build_ladder(m.e2, x, 2)),
    ("exhaustion.build_ladder.count", "integer", ExhaustionError,
     lambda x, m: exhaustion.build_ladder(m.e2, 1.0, x)),
    ("exhaustion.ExhaustionPlan.tol", "positive", ExhaustionError,
     lambda x, m: exhaustion.ExhaustionPlan(m.e2, 1.0, (3, 5), 1.0, x)),
    ("exhaustion.ExhaustionPlan.r0", "positive", ExhaustionError,
     lambda x, m: exhaustion.ExhaustionPlan(m.e2, x, (3, 5), 1.0, 1e-3)),
    ("exhaustion.ExhaustionPlan.T0", "positive", ExhaustionError,
     lambda x, m: exhaustion.ExhaustionPlan(m.e2, 1.0, (3, 5), x, 1e-3)),
    ("exhaustion.ExhaustionPlan.n_time_steps", "integer", ExhaustionError,
     lambda x, m: exhaustion.ExhaustionPlan(m.e2, 1.0, (3, 5), 1.0, 1e-3,
                                            n_time_steps=x)),
]


@pytest.fixture(scope="module")
def models(euclid2, hyp2):
    return SimpleNamespace(e2=euclid2, h2=hyp2)


@pytest.mark.parametrize("error,call,value", [
    pytest.param(error, call, value, id=f"{name}-{vid}")
    for name, rule, error, call in ROWS
    for vid, value in REFUSED[rule].items()])
def test_refused_inputs_raise_the_module_error(models, error, call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(value, models)


def test_boundary_values_and_numpy_integers_are_accepted(euclid2, hyp2):
    # the least value of each nonnegative rule passes
    assert barriers.SupersolutionFlow(hyp2, 1.0).R_of_t(0.0) == 1.0
    assert barriers.interior_gradient_bound(hyp2, 1.0, 0.0, beta=1 - 1e-8,
                                            k=17).log_bound == 0.0
    problem = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump,
                          T=0.01)
    run = solve_ball(problem, Grid(R=1.0, nr=8, ntheta=1), StepControl(),
                     snapshot_every=0)
    assert [s.step_count for s in run.states] == [0, 10]
    # a numpy integer is an integer, stored as int
    grid = Grid(R=1.0, nr=np.int64(8), ntheta=np.int32(8))
    assert (type(grid.nr), type(grid.ntheta)) == (int, int)
    assert grid == Grid(R=1.0, nr=8, ntheta=8)
    assert type(geometry.named_model("euclidean", n=np.int64(3)).n) is int
    assert cmc.solve_vR(hyp2, 1.0, np.int64(32)).grid.size == 32
    assert barriers.c0_height_cap(euclid2, 1.0, np.int64(3)) \
        == barriers.c0_height_cap(euclid2, 1.0, 3)
    assert exhaustion.build_ladder(euclid2, 1.0, np.int64(2)).ladder == (3, 5)
    plan = exhaustion.ExhaustionPlan(euclid2, 1.0, (3, 5), 1.0, 1e-3,
                                     n_time_steps=np.int64(1))
    assert type(plan.n_time_steps) is int
    assert plan.control().dt_max == 1.0


def test_a_run_on_numpy_integers_saves_loads_and_hashes(tmp_path):
    # before, the run solved and then save_run failed with "Object of type
    # int64 is not JSON serializable", after the .npy files were written
    model = geometry.named_model("hyperbolic", n=np.int64(2))
    assert model_hash(model) == model_hash(geometry.named_model("hyperbolic"))
    grid = Grid(R=1.0, nr=np.int64(8), ntheta=np.int64(1))
    problem = BallProblem(model=model, R=1.0, phi=_zero_phi, u0=_bump,
                          T=0.01)
    run = solve_ball(problem, grid, StepControl(), snapshot_every=np.int64(2))
    path = save_run(str(tmp_path), run)
    with open(path) as fh:
        manifest = json.load(fh)
    assert manifest["grid"] == {"R": 1.0, "nr": 8, "ntheta": 1}
    assert manifest["model"]["n"] == 2
    assert manifest["snapshot_steps"] == [0, 2, 4, 6, 8, 10]
    loaded = load_run(path)
    assert loaded["grid"] == grid
    for a, b in zip(loaded["states"], run.states):
        np.testing.assert_array_equal(a.u, b.u)
