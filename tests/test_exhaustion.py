import math
import warnings

import numpy as np
import pytest

from killingflow import GeometryError, ProfileSpec, barriers, exhaustion
from killingflow.geometry import constant_profile, make_model
from killingflow.exhaustion import (ExhaustionError, ExhaustionPlan,
                                    build_ladder, pole_mollified_extension,
                                    run_exhaustion)
from killingflow.flow import BallProblem, Grid, solve_ball


def _phi(theta):
    return 0.5 * np.cos(theta)


def test_ladder_euclidean(euclid2):
    plan = build_ladder(euclid2, 1.0, 4)
    # quarter rule: smallest integer rung with zeta(r_k) < zeta(rung)/4
    assert plan.ladder == (3, 5, 9, 17)
    assert plan.T0 == pytest.approx(0.5 * euclid2.zeta(3.0))
    # from r0 = 0.1 the quarter rule gives rung 1 for r = 0.1, 0.2 and 0.4;
    # a rung no larger than the one before is moved to the next integer
    assert build_ladder(euclid2, 0.1, 3).ladder == (1, 2, 3)


def test_ladder_hyperbolic(hyp2):
    plan = build_ladder(hyp2, 1.0, 4)
    assert plan.ladder == (2, 4, 6, 10)
    assert plan.T0 == pytest.approx(0.5 * hyp2.zeta(2.0))


def test_ladder_guards(euclid2):
    with pytest.raises(ExhaustionError):
        build_ladder(euclid2, 1.0, 1)


@pytest.mark.parametrize("r0", [-1.0, 0.0, math.nan, math.inf])
def test_ladder_rejects_a_bad_r0(euclid2, r0):
    # the package's own error, before the rung search floors r0
    with pytest.raises(ExhaustionError, match="r0 must be positive"):
        build_ladder(euclid2, r0, 3)


def test_plan_rejects_radial_grid(euclid2):
    # a radial rung would silently sample phi(0) of a phi that depends on
    # theta; refuse the plan before any rung is solved
    with pytest.raises(ExhaustionError, match="ntheta"):
        build_ladder(euclid2, 1.0, 2, ntheta=1)


def test_plan_rejects_higher_dimension(euclid3):
    # solve_ball runs a polar grid for n = 2 only
    with pytest.raises(ExhaustionError, match="n = 3"):
        build_ladder(euclid3, 1.0, 2)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_plan_rejects_a_bad_tolerance(euclid2, tol):
    with pytest.raises(ExhaustionError, match="tol must be positive"):
        build_ladder(euclid2, 1.0, 4, tol=tol)


def test_plan_rejects_rung_inside_observation_ball(euclid2):
    with pytest.raises(ExhaustionError, match="contain B_r0"):
        ExhaustionPlan(model=euclid2, r0=2.5, ladder=(2, 3), T0=0.1,
                       tol=1e-3)


def test_rung_grids_carry_the_eighth_lattice(euclid2):
    # from r0 = 1 the core radius is r_c = 2: rungs R <= 2 keep the whole
    # uniform lattice; larger ones carry k/8 up to r_c, and past it the
    # nodes of one sequence whose gaps grow by 1.1, the one nearest R
    # moved onto R
    plan = build_ladder(euclid2, 1.0, 2)
    assert ({R: plan.grid_for(float(R)).nr for R in (1, 2, 3, 5, 9, 17)}
            == {1: 16, 2: 16, 3: 22, 5: 28, 9: 35, 17: 42})
    assert [plan.grid_for(float(R)).nr for R in (4, 6, 10)] == [25, 30, 36]
    for R in (1, 2):
        grid = plan.grid_for(float(R))
        assert grid.nodes is None
        assert set(np.arange(8 * R + 1) / 8) <= set(grid.r)
    grids = [plan.grid_for(float(R)) for R in range(3, 18)]
    top = grids[-1].r
    for grid in grids:
        assert grid.r[:17].tolist() == (np.arange(17) / 8).tolist()
        assert grid.r[-1] == grid.R
        assert grid.r[:-1].tolist() == top[:grid.nr].tolist()
    gaps = np.diff(top[16:-1])
    assert gaps[0] == pytest.approx(0.1375)
    np.testing.assert_allclose(gaps[1:] / gaps[:-1], 1.1, rtol=1e-12)
    # r0 = 1.3 widens the core to r_c = 2 ceil(10.4) / 8 = 2.75
    wide = build_ladder(euclid2, 1.3, 2)
    assert wide.grid_for(3.0).r[:23].tolist() == (np.arange(23) / 8).tolist()
    assert wide.grid_for(3.0).nr == 24


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
def test_graded_rungs_match_their_uniform_twins(model_name, request):
    # every default rung, solved on its graded grid and on the uniform
    # h = 1/8 grid of the same radius, agrees on B_1 x [0, T0] within 1e-4:
    # measured 5.2e-5, 9.6e-5, 6.4e-5, 6.3e-5 on E2 rungs 3, 5, 9, 17 and
    # 0, 6.4e-5, 6.0e-5, 5.9e-5 on H2 rungs 2, 4, 6, 10 (2 is uniform)
    model = request.getfixturevalue(model_name)
    plan = build_ladder(model, 1.0, 4)
    u0 = pole_mollified_extension(_phi)
    gaps = []
    for R in plan.ladder:
        problem = BallProblem(model=model, R=float(R), phi=_phi, u0=u0,
                              T=plan.T0)
        graded, uniform = (
            np.stack([s.u[:9] for s in solve_ball(
                problem, grid, plan.control(), snapshot_every=1).states])
            for grid in (plan.grid_for(float(R)),
                         Grid(R=float(R), nr=8 * max(R, 2),
                              ntheta=plan.ntheta)))
        gaps.append(float(np.max(np.abs(graded - uniform))))
    assert max(gaps) <= 1e-4


def test_pole_mollified_extension():
    ext = pole_mollified_extension(_phi)
    th = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    # single-valued (zero) at the pole, constant along rays beyond r = 1
    assert np.allclose(ext(0.0, th), 0.0)
    assert np.allclose(ext(2.0, th), _phi(th))
    assert np.allclose(ext(5.0, th), _phi(th))
    vals = ext(np.linspace(0, 2, 5)[:, None], th[None, :])
    assert vals.shape == (5, 8)


def test_run_reports_cauchy_differences(euclid2):
    plan = build_ladder(euclid2, 1.0, 2, tol=0.05,
                        ntheta=16, n_time_steps=32)
    report = run_exhaustion(plan, _phi)
    assert len(report.rungs) == 2
    assert report.rungs[0].d_k is None
    assert report.rungs[1].d_k is not None and report.rungs[1].d_k >= 0.0
    assert report.verdict       # d_1 ~ 0.027 < 0.05 budget
    assert report.interp_error_budget > 0
    # every rung stayed inside its height bounds
    for rung in report.rungs:
        assert rung.height_margin > 0
    # one-sided estimate checks are enormous bounds; they must hold
    assert report.grad_bound_ok
    assert report.curvature_bound_ok


def test_early_stop_skips_large_rungs(euclid2):
    # with a loose tolerance the sequential path should not solve rung 3
    plan = build_ladder(euclid2, 1.0, 4, tol=0.1)
    report = run_exhaustion(plan, _phi)
    assert len(report.rungs) < 4
    assert report.verdict


def test_report_dict_schema(euclid2):
    import json
    from importlib import resources

    import jsonschema

    plan = build_ladder(euclid2, 1.0, 2, tol=0.05, n_time_steps=32)
    report = run_exhaustion(plan, _phi)
    schema = json.loads(resources.files("killingflow.schemas").joinpath(
        "exhaust_report.schema.json").read_text())
    jsonschema.validate(report.to_dict(), schema)


def test_plain_radial_extension_rejected_at_pole(euclid2):
    # ray-constant extension of a nonconstant phi is multivalued at r = 0;
    # the rung's FlowError comes back as an ExhaustionError
    plan = build_ladder(euclid2, 1.0, 2, tol=0.05, n_time_steps=32)
    with pytest.raises(ExhaustionError, match="single-valued at the pole"):
        exhaustion._solve_rung(plan, plan.ladder[0], _phi,
                               lambda r, theta: _phi(theta) + 0.0 * r)


def test_rung_past_the_overflow_of_cosh_raises_only_exhaustion_error(hyp2):
    # the first two rungs solve; the R = 800 rung's cells overflow, and its
    # FlowError comes back named by the rung, with no RuntimeWarning first
    plan = ExhaustionPlan(model=hyp2, r0=1.0, ladder=(2, 4, 800),
                          T0=0.5 * hyp2.zeta(1.0), tol=1e-12, n_time_steps=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExhaustionError,
                           match="rung R=800 failed: .* overflows at r ="):
            run_exhaustion(plan, _phi)


def _lattice_d_k(plan, phi, k_max):
    """Reference d_k: each rung solved on its own, the sup-difference taken
    over the nodes r = k/8, k <= k_max, picked out of each grid by value."""
    stacks = []
    for R in plan.ladder:
        grid = plan.grid_for(float(R))
        tr = solve_ball(
            BallProblem(model=plan.model, R=float(R), phi=phi,
                        u0=pole_mollified_extension(phi), T=plan.T0),
            grid, plan.control(), snapshot_every=1)
        idx = [int(np.flatnonzero(grid.r == k / 8)[0])
               for k in range(k_max + 1)]
        stacks.append(np.stack([s.u[idx] for s in tr.states]))
    return [float(np.max(np.abs(b - a))) for a, b in zip(stacks, stacks[1:])]


def test_d_k_on_shared_nodes_across_strides(hyp2):
    # the R = 1 rung has h = 1/16 and is read at every other node
    plan = ExhaustionPlan(model=hyp2, r0=0.5, ladder=(1, 2, 4),
                          T0=0.5 * hyp2.zeta(1.0), tol=1e-12,
                          n_time_steps=16)
    report = run_exhaustion(plan, _phi)
    assert [r.d_k for r in report.rungs[1:]] == _lattice_d_k(plan, _phi, 4)


def test_d_k_covers_an_off_lattice_ball(euclid2):
    # r0 = 1.3 is off the lattice: d_k reads up to the first node beyond it,
    # r = 11/8 = 1.375, where this ladder differs more than inside B_r0
    plan = ExhaustionPlan(model=euclid2, r0=1.3, ladder=(2, 3),
                          T0=0.5 * euclid2.zeta(2.0), tol=1e-12,
                          n_time_steps=16)
    report = run_exhaustion(plan, _phi)
    assert report.rungs[1].d_k == _lattice_d_k(plan, _phi, 11)[0]
    assert report.rungs[1].d_k > _lattice_d_k(plan, _phi, 10)[0]


def test_height_bounds_take_sup_of_whole_initial_state(euclid2, monkeypatch):
    # u0 peaks at r = 2, outside B_r0 = B_1: the height bounds' premise
    # |u0| <= sup_u0 must hold on each rung's whole ball, not on B_r0 only
    def u0(r, theta):
        return (0.5 * np.cos(theta) * np.sin(0.5 * math.pi * np.clip(r, 0, 1))
                ** 2 + 0.8 * np.clip(1.0 - 4.0 * (r - 2.0) ** 2, 0, 1) ** 2)

    seen = []
    original = barriers.height_bounds

    def recording(model, r0, T, sup_u0):
        seen.append((r0, sup_u0))
        return original(model, r0, T, sup_u0)

    monkeypatch.setattr(barriers, "height_bounds", recording)
    monkeypatch.setattr(exhaustion, "pole_mollified_extension",
                        lambda phi: u0)
    plan = ExhaustionPlan(model=euclid2, r0=1.0, ladder=(3, 4),
                          T0=0.5 * euclid2.zeta(3.0), tol=1e-12,
                          n_time_steps=8)
    report = run_exhaustion(plan, _phi)
    assert [R for R, _ in seen] == [3.0, 4.0]
    for R, sup_u0 in seen:
        grid = plan.grid_for(R)
        whole = float(np.max(np.abs(u0(grid.r[:, None],
                                       grid.theta[None, :]))))
        inner = float(np.max(np.abs(u0(grid.r[grid.r <= 1.0, None],
                                       grid.theta[None, :]))))
        assert sup_u0 == whole > inner + 0.2
    assert all(rung.height_margin > 0 for rung in report.rungs)


def test_singular_table_model_fails_before_any_rung(monkeypatch):
    # xi'(0) = 0.979 on the monotone cubic of 25 sinh samples: there is no
    # Ricci constant for the curvature bound, so no rung is worth solving
    rs = np.linspace(0, 6, 25)
    sinh = ProfileSpec("table", samples=tuple(zip(rs, np.sinh(rs))))
    model = make_model(sinh, sinh, constant_profile(1.0), 2)
    solved = []
    monkeypatch.setattr(exhaustion, "_solve_rung",
                        lambda plan, R, phi, u0: solved.append(R))
    plan = ExhaustionPlan(model=model, r0=1.0, ladder=(2, 4),
                          T0=0.5 * model.zeta(2.0), tol=1e-3, n_time_steps=8)
    with pytest.raises(GeometryError, match=r"xi'\(0\)"):
        run_exhaustion(plan, _phi)
    assert solved == []
