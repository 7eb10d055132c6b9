import inspect
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from killingflow import (build_ladder, cmc, euclidean_model, flow,
                         hyperbolic_model)
from killingflow.barriers import pointwise_Q
from killingflow.exhaustion import pole_mollified_extension
from killingflow.flow import (BallProblem, FlowError, Grid, StepControl,
                              compute_W, discretize_Q, load_run, model_hash,
                              radial_Q, radial_solve, save_run,
                              second_fundamental_form, solve_ball, step)


def _zero_phi(theta):
    return np.zeros_like(theta)


def _bump(r, theta):
    return 0.25 * np.cos(0.5 * math.pi * r) * np.ones_like(theta)


def _graded(R, nr, ntheta, q=1.1):
    """A grid whose gaps grow by the factor q from the pole out to R."""
    r = np.concatenate(([0.0], np.cumsum(q ** np.arange(nr))))
    nodes = r * (R / r[-1])
    nodes[-1] = R
    return Grid(R=R, nr=nr, ntheta=ntheta, nodes=tuple(nodes))


def _poly(r, th):
    # non-symmetric polynomial in x = r cos(theta), y = r sin(theta)
    x, y = r * np.cos(th), r * np.sin(th)
    return 0.3 * x + 0.4 * x * y + 0.2 * y ** 3 - 0.25 * (x * x + y * y)


# -- grid and problem ------------------------------------------------------------


def test_grid_invariants():
    g = Grid(R=2.0, nr=16, ntheta=8)
    assert g.hr == pytest.approx(0.125)
    assert g.r[0] == 0.0 and g.r[-1] == 2.0
    assert g.theta.size == 8
    assert not g.radial
    assert Grid(R=1.0, nr=8, ntheta=1).radial
    for bad in (dict(R=-1, nr=16, ntheta=8), dict(R=1, nr=4, ntheta=8),
                dict(R=1, nr=16, ntheta=4)):
        with pytest.raises(FlowError):
            Grid(**bad)
    # a graded grid: its radii, and no one spacing hr
    graded = _graded(2.0, 16, 8)
    assert graded.r.tolist() == list(graded.nodes)
    assert graded.r[0] == 0.0 and graded.r[-1] == 2.0
    assert not graded.r.flags.writeable
    with pytest.raises(FlowError, match="graded grid"):
        graded.hr
    # the uniform radii given as nodes are the uniform grid
    assert Grid(R=2.0, nr=16, ntheta=8, nodes=tuple(g.r)) == g
    assert Grid(R=2.0, nr=16, ntheta=8, nodes=list(g.r)).nodes is None
    nodes = list(graded.nodes)
    for bad in (nodes[:-1], nodes[:-1] + [2.5], [1e-3] + nodes[1:],
                nodes[:3] + nodes[4:2:-1] + nodes[5:], nodes[:3] + [math.nan]
                + nodes[4:], ["a"] * 17, 3.0):
        with pytest.raises(FlowError, match="nodes"):
            Grid(R=2.0, nr=16, ntheta=8, nodes=bad)


@pytest.mark.parametrize("every", [-1, -3])
def test_negative_snapshot_every_raises_flow_error(euclid2, every):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    with pytest.raises(FlowError, match="snapshot_every"):
        solve_ball(p, Grid(R=1.0, nr=8, ntheta=1), StepControl(),
                   snapshot_every=every)


def test_problem_default_horizon(euclid2):
    p = BallProblem(model=euclid2, R=2.0, phi=_zero_phi, u0=_bump)
    assert p.T == pytest.approx(euclid2.zeta(2.0) / 2.0)
    with pytest.raises(FlowError):
        BallProblem(model=euclid2, R=2.0, phi=_zero_phi, u0=_bump, T=-1.0)


def test_problem_rejects_multivalued_pole_data(euclid2):
    p = BallProblem(model=euclid2, R=1.0,
                    phi=lambda th: 0.5 * np.cos(th),
                    u0=lambda r, th: 0.5 * np.cos(th) * np.ones_like(r))
    with pytest.raises(FlowError):
        p.sample(Grid(R=1.0, nr=16, ntheta=16))


def test_problem_rejects_boundary_mismatch(euclid2):
    p = BallProblem(model=euclid2, R=1.0, phi=lambda th: np.ones_like(th),
                    u0=lambda r, th: np.zeros(np.broadcast_shapes(
                        np.shape(r), np.shape(th))))
    with pytest.raises(FlowError):
        p.sample(Grid(R=1.0, nr=16, ntheta=16))


def test_problem_rejects_nonfinite_phi(euclid2):
    # a NaN row would slip past the boundary gap check (nan > tol is False)
    p = BallProblem(model=euclid2, R=1.0,
                    phi=lambda th: np.full_like(th, np.nan),
                    u0=lambda r, th: np.zeros(np.broadcast_shapes(
                        np.shape(r), np.shape(th))))
    with pytest.raises(FlowError, match="phi must be finite"):
        p.sample(Grid(R=1.0, nr=16, ntheta=16))


def test_step_control_validation():
    assert StepControl().scheme == "semi-implicit"
    with pytest.raises(FlowError):
        StepControl(scheme="leapfrog")
    with pytest.raises(FlowError):
        StepControl(cfl=0.0)


def test_lazy_module_attributes():
    # the names the benchmark tracer reads import their SciPy module on
    # first access; any other unknown name is still an AttributeError
    from killingflow import exhaustion
    assert flow.spla.spsolve is spla.spsolve
    from scipy.interpolate import RectBivariateSpline
    assert exhaustion.RectBivariateSpline is RectBivariateSpline
    with pytest.raises(AttributeError, match="no_such_name"):
        flow.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        exhaustion.no_such_name


def test_names_the_benchmark_reads_exist():
    # bench/spans.py patches these module attributes (Tracer.install) and
    # bench/workloads.py calls these names; tests/test_bench.py runs every
    # op once, and this names a deleted one directly
    from killingflow import (barriers, cli, cmc, config, exhaustion,
                             geometry)
    read = {
        flow: ["step", "compute_W", "second_fundamental_form",
               "residual_identities", "load_run", "solve_ball",
               "radial_solve", "save_run", "spla", "BallProblem",
               "StepControl", "model_hash", "radial_Q"],
        exhaustion: ["solve_ball", "run_exhaustion", "RectBivariateSpline",
                     "build_ladder"],
        cmc: ["solve_vR", "sample_vR", "eval_vR"],
        barriers: ["sample_vR", "eval_vR", "verify_supersolution", "mu_of_t",
                   "height_bounds"],
        geometry: ["make_model", "euclidean_model", "hyperbolic_model"],
        cli: ["dispatch"],
        config: ["load_config", "parse_config"]}
    assert [f"{module.__name__}.{name}" for module, names in read.items()
            for name in names if not hasattr(module, name)] == []
    # the tracer labels a span by the grid argument at these positions
    for fn, i in ((flow.step, 2), (flow.compute_W, 1),
                  (flow.second_fundamental_form, 1), (flow.solve_ball, 1),
                  (exhaustion.solve_ball, 1)):
        assert list(inspect.signature(fn).parameters)[i] == "grid"


# -- operator --------------------------------------------------------------------


def test_W_of_zero_graph(euclid2, hyp2):
    g = Grid(R=1.0, nr=32, ntheta=1)
    u = np.zeros(33)
    assert np.allclose(compute_W(euclid2, g, u), 1.0)
    W = compute_W(hyp2, g, u)
    assert np.allclose(W, 1.0 / np.cosh(g.r))


def test_radial_Q_on_cmc_profile_is_WnH(euclid2, hyp2):
    # the defining property of the radial CMC graph: Q[v_R] = W n H(R)
    for model in (euclid2, hyp2):
        r = np.linspace(0.0, 0.9, 200)
        u = cmc.sample_vR(model, 1.0, r)
        q = radial_Q(model, r, u)
        W = np.sqrt(1.0 / np.asarray(model.rho.value(r)) ** 2
                    + np.gradient(u, r) ** 2)
        nH = model.n * model.H(1.0)
        # analytic slopes would be exact; sampled u brings in O(h^2)
        assert float(np.max(np.abs(q - W * nH)[3:-3])) < 2e-3


@pytest.mark.parametrize("ntheta", [1, 8])
def test_grid_past_the_overflow_of_cosh_raises_only_flow_error(hyp2, ntheta):
    # rho = cosh r overflows at r = 710: the cells evaluate every profile
    # with overflow ignored and name the first radius past it, so no
    # RuntimeWarning comes before the FlowError
    grid = Grid(R=800.0, nr=64, ntheta=ntheta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowError, match="overflows at r = 350"):
            discretize_Q(hyp2, grid, np.zeros(grid.shape()))


@pytest.mark.parametrize("model_name", ["euclid3", "hyp2"])
def test_radial_Q_cached_cells_bit_identical(request, model_name):
    # radial_Q reads its finite volumes from the per-(n, xi, rho, grid)
    # _grid_factors cache; the cached, read-only cells give the uncached
    # build's output exactly
    model = request.getfixturevalue(model_name)
    r = np.linspace(0.0, 1.0, 64)
    u = 0.3 * np.cos(0.5 * math.pi * r)
    fresh = flow._apply(flow._radial_weights(
        flow._cells(model.n, model.xi, model.rho, r), u), u)
    for _ in range(2):
        np.testing.assert_array_equal(radial_Q(model, r, u), fresh)
    gf = flow._grid_factors(model.n, model.xi, model.rho,
                            Grid(R=1.0, nr=63, ntheta=1))
    assert gf is flow._grid_factors(model.n, model.xi, model.rho,
                                    Grid(R=1.0, nr=63, ntheta=1))
    assert not any(a.flags.writeable for a in gf.cells)


@pytest.mark.parametrize("r", [
    np.linspace(0.0, 1.0, 64) ** 2,             # nonuniform
    0.05 + np.linspace(0.0, 1.0, 64),           # off the pole
    np.linspace(0.0, 1.0, 8),                   # fewer than 9 nodes
    np.linspace(0.0, 1.0, 64)[::-1],            # decreasing
    np.linspace(0.0, 1.0, 64)[None, :],         # not 1-d
    np.array([])])
def test_radial_Q_takes_only_radial_grid_nodes(euclid2, r):
    with pytest.raises(FlowError):
        radial_Q(euclid2, r, np.zeros(r.shape))


def test_discretize_Q_radial_matches_radial_Q(euclid2):
    g = Grid(R=1.0, nr=64, ntheta=1)
    u = 0.3 * np.cos(0.5 * math.pi * g.r)
    qa = radial_Q(euclid2, g.r, u)
    qb = discretize_Q(euclid2, g, u[:, None])[:, 0]
    assert float(np.max(np.abs(qa - qb)[1:-1])) < 1e-8


def test_Q_zero_on_flat_graph(euclid2):
    g = Grid(R=1.0, nr=32, ntheta=16)
    u = np.full(g.shape(), 0.7)
    assert float(np.max(np.abs(discretize_Q(euclid2, g, u)))) < 1e-12


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
def test_discretize_Q_second_order_against_pointwise_Q(model_name, request):
    # compared away from the pole, where both use the polar chart
    model = request.getfixturevalue(model_name)
    errs = []
    for n in (32, 64):
        g = Grid(R=1.0, nr=n, ntheta=n)
        q = discretize_Q(model, g, _poly(g.r[:, None], g.theta[None, :]))
        ring = (g.r >= 0.25) & (g.r <= 0.75)
        ref = pointwise_Q(model, _poly, g.r[ring, None], g.theta[None, :])
        errs.append(float(np.max(np.abs(q[ring] - ref))))
    assert errs[0] / errs[1] >= 3.5


# -- curvature fields ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(model_name=st.sampled_from(["euclid2", "hyp2", "euclid3", "hyp3"]),
       R=st.sampled_from([1.0, 2.5]),
       fields=st.integers(1, 4).flatmap(lambda rows: arrays(
           float, (rows, 12), elements=st.floats(-2.0, 2.0))))
def test_radial_forms_of_a_snapshot_stack_match_each_snapshot(
        request, model_name, R, fields):
    # residual_identities applies _slopes and _curvatures once to the
    # (snapshot, node, 1) stack of a run; each state must be
    # second_fundamental_form of its snapshot, bit for bit
    model = request.getfixturevalue(model_name)
    g = Grid(R=R, nr=fields.shape[1] - 1, ntheta=1)
    fd = flow._Fields(model, g)
    W = np.stack([compute_W(model, g, u) for u in fields])
    ur, vt = flow._slopes(fd, fields[..., None])
    A2, nH = flow._curvatures(fd, fields[..., None], ur, vt, W[..., None])
    for k, u in enumerate(fields):
        a2, nh = second_fundamental_form(model, g, u)
        np.testing.assert_array_equal(A2[k, :, 0], a2[1:-1])
        np.testing.assert_array_equal(nH[k, :, 0], nh[1:-1])


def test_hemisphere_curvature(euclid2):
    g = Grid(R=1.0, nr=256, ntheta=1)
    u = np.sqrt(np.clip(1.0 - g.r ** 2, 0.0, None))
    A2, nH = second_fundamental_form(euclid2, g, u)
    mask = g.r <= 0.95
    assert float(np.max(np.abs(A2[mask] - 2.0))) < 1e-3
    assert float(np.max(np.abs(nH[mask] + 2.0))) < 1e-3


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
@pytest.mark.parametrize("u0,phi", [
    # max|A| next to the pole
    (lambda r, th: 0.3 * np.cos(0.5 * np.pi * r) ** 2 * np.ones_like(th), 0.0),
    # max|grad u| on the rim row
    (lambda r, th: 0.5 * r ** 8 * np.ones_like(th), 0.5)])
def test_radial_and_polar_diagnostics_agree(request, model_name, u0, phi):
    # one slope rule, one W and one pole/rim rule on both grids: the
    # radial run and the 2-D run of rotationally symmetric data record the
    # same max|grad u| and max|A| at every step
    model = request.getfixturevalue(model_name)
    p = BallProblem(model=model, R=1.0, phi=lambda th: np.full_like(th, phi),
                    u0=u0, T=0.02)
    radial, polar = (solve_ball(p, Grid(R=1.0, nr=64, ntheta=nt),
                                StepControl(dt_max=0.02 / 16),
                                snapshot_every=1) for nt in (1, 16))
    np.testing.assert_allclose(polar.max_grad, radial.max_grad,
                               rtol=0.0, atol=1e-12)
    # the two solves order their sums differently, so the states differ
    # by roundoff du, which the second differences of |A| scale by 4 / h^2
    du = max(float(np.max(np.abs(a.u - b.u[:, 0])))
             for a, b in zip(radial.states, polar.states))
    assert du < 1e-14
    np.testing.assert_allclose(polar.max_A, radial.max_A, rtol=0.0,
                               atol=1e-12 + 8.0 * du * 64 ** 2)
    for grid, tr in ((radial.grid, radial), (polar.grid, polar)):
        for s in tr.states:
            # the recorded max|A| is the maximum of the public field
            a2, _ = second_fundamental_form(model, grid, s.u)
            assert math.sqrt(float(np.max(a2))) == pytest.approx(
                tr.max_A[s.step_count], rel=1e-15)
    for s in radial.states:
        # on one state the two grids give the same fields
        u2 = np.repeat(s.u[:, None], 16, axis=1)
        fields = zip((*second_fundamental_form(model, radial.grid, s.u), s.W),
                     (*second_fundamental_form(model, polar.grid, u2),
                      compute_W(model, polar.grid, u2)))
        for f_r, f_p in fields:
            np.testing.assert_allclose(f_p, np.repeat(f_r[:, None], 16, 1),
                                       rtol=0.0, atol=1e-12)


def _reference_diagnostics(model, grid, state):
    """(max|grad u|, max|A|) of a state from a separate pass: fresh slopes
    of state.u and the stored W."""
    fd = flow._Fields(model, grid)
    u = state.u.reshape(grid.shape())
    ur, vt = flow._slopes(fd, u)
    A2, _ = flow._curvatures(fd, u, ur, vt, state.W.reshape(grid.shape()))
    return (math.sqrt(float(np.max(ur * ur + vt * vt))),
            math.sqrt(float(np.max(A2))))


@pytest.mark.parametrize("nr,ntheta", [(64, 1), (24, 16)])
def test_solve_ball_makes_one_slopes_pass_per_state(euclid2, monkeypatch,
                                                    nr, ntheta):
    # each state's W, max|grad u| and max|A| come from one slopes pass:
    # the states stacked in all _slopes calls add up to one per state, and
    # solve_ball never recomputes W
    grid = Grid(R=1.0, nr=nr, ntheta=ntheta)
    calls = {"_slopes": 0, "compute_W": 0}
    differenced = []

    def counting(name):
        real = getattr(flow, name)

        def counted(*args):
            calls[name] += 1
            if name == "_slopes":
                differenced.append(args[1].size // math.prod(grid.shape()))
            return real(*args)
        monkeypatch.setattr(flow, name, counted)

    counting("_slopes")
    counting("compute_W")
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    tr = solve_ball(p, grid, StepControl(dt_max=1e-3))
    n_steps = tr.times.size - 1
    assert n_steps == 10
    assert sum(differenced) == n_steps + 1
    assert calls["compute_W"] == 0


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
@pytest.mark.parametrize("nr,ntheta", [(64, 1), (24, 16), (48, 32)])
def test_fused_diagnostics_are_bit_identical(request, model_name, nr, ntheta):
    model = request.getfixturevalue(model_name)
    grid = Grid(R=1.0, nr=nr, ntheta=ntheta)
    # the bump vanishes at the rim to 2e-17, within the compatibility check
    p = BallProblem(model=model, R=1.0, phi=lambda th: 0.1 * np.cos(th),
                    u0=lambda r, th: 0.1 * r * np.cos(th) + _bump(r, th),
                    T=0.01)
    tr = solve_ball(p, grid, StepControl(dt_max=1e-3), snapshot_every=1)
    assert len(tr.states) == tr.max_grad.size == tr.max_A.size == 11
    for k, s in enumerate(tr.states):
        assert s.step_count == k
        assert np.array_equal(s.W, compute_W(model, grid, s.u))
        ref = _reference_diagnostics(model, grid, s)
        assert (tr.max_grad[k], tr.max_A[k]) == ref
        assert (s.max_grad, s.max_A) == ref


@pytest.mark.parametrize("snapshot_every", [0, 1, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("model_name,nr,ntheta", [
    ("euclid2", 64, 1), ("euclid3", 64, 1), ("euclid2", 24, 16),
    ("euclid2", 96, 64)])
def test_block_diagnostics_match_a_chain_of_steps(request, model_name, nr,
                                                   ntheta, extra,
                                                   snapshot_every):
    # solve_ball diagnoses its states in blocks of S; runs of 2S - 1, 2S
    # and 2S + 1 states after the initial one end a block short, on and
    # past a boundary, and every state must equal the public step's
    model = request.getfixturevalue(model_name)
    grid = Grid(R=1.0, nr=nr, ntheta=ntheta)
    per_block = max(1, flow._BLOCK_NODES // math.prod(grid.shape()))
    n_steps = 2 * per_block + extra
    dt = 2.0 ** -10                   # T / dt_max is exactly n_steps
    if grid.radial:
        p = BallProblem(model=model, R=1.0, phi=_zero_phi, u0=_bump,
                        T=n_steps * dt)
    else:
        p = BallProblem(model=model, R=1.0, phi=lambda th: 0.1 * np.cos(th),
                        u0=lambda r, th: 0.1 * r * np.cos(th) + _bump(r, th),
                        T=n_steps * dt)
    ctl = StepControl(dt_max=dt)
    tr = solve_ball(p, grid, ctl, snapshot_every=snapshot_every)
    assert tr.times.size == n_steps + 1

    u0 = p.sample(grid)[0]
    u0 = u0[:, 0] if grid.radial else u0
    state = flow.FlowState(t=0.0, u=u0, W=compute_W(model, grid, u0),
                           step_count=0)
    max_grad, max_A = _reference_diagnostics(model, grid, state)
    state = flow.FlowState(t=0.0, u=u0, W=state.W, step_count=0,
                           max_grad=max_grad, max_A=max_A)
    chain = [state]
    for _ in range(n_steps):
        state = step(state, p, grid, ctl, dt=dt)
        chain.append(state)
    assert np.array_equal(tr.times, [s.t for s in chain])
    assert np.array_equal(tr.max_grad, [s.max_grad for s in chain])
    assert np.array_equal(tr.max_A, [s.max_A for s in chain])
    kept = [k for k in range(n_steps + 1) if k in (0, n_steps)
            or snapshot_every and k % snapshot_every == 0]
    assert [s.step_count for s in tr.states] == kept
    for s in tr.states:
        ref = chain[s.step_count]
        assert s.t == ref.t
        assert (s.max_grad, s.max_A) == (ref.max_grad, ref.max_A)
        assert s.u.shape == s.W.shape == ref.W.shape
        assert np.array_equal(s.u, ref.u) and np.array_equal(s.W, ref.W)
        assert s.W.base is None       # a copy, not a view of the block


def test_zero_graph_curvature_exact(euclid2):
    g = Grid(R=1.0, nr=64, ntheta=16)
    A2, nH = second_fundamental_form(euclid2, g, np.zeros(g.shape()))
    assert float(np.max(np.abs(A2))) == 0.0
    assert float(np.max(np.abs(nH))) == 0.0


# -- solving ---------------------------------------------------------------------


def test_static_zero_solution(euclid2):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi,
                    u0=lambda r, th: np.zeros(np.broadcast_shapes(
                        np.shape(r), np.shape(th))), T=0.05)
    tr = radial_solve(p, 32, StepControl())
    assert float(np.max(np.abs(tr.states[-1].u))) < 1e-14


def test_radial_flow_decays_bump(euclid2):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.2)
    tr = radial_solve(p, 64, StepControl(), snapshot_every=10)
    sup0 = float(np.max(np.abs(tr.states[0].u)))
    supT = float(np.max(np.abs(tr.states[-1].u)))
    assert supT < 0.5 * sup0
    assert tr.times[-1] == pytest.approx(0.2)
    # W field stored on the state matches a recomputation
    last = tr.states[-1]
    np.testing.assert_array_equal(
        last.W, compute_W(euclid2, tr.grid, last.u))


def test_divergence_guard_trips(euclid2, monkeypatch):
    # sup0 = 0.25, so the maximum-principle guard sits at 10 max(sup0, 1)
    real_advance = flow._advance

    def blow_up(*args, **kwargs):
        return 100.0 * real_advance(*args, **kwargs)

    monkeypatch.setattr(flow, "_advance", blow_up)
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    with pytest.raises(FlowError, match="divergence guard tripped at "
                       r"t=0.001: sup\|u\| exceeds 10x the maximum-principle "
                       r"bound 1$"):
        radial_solve(p, 32, StepControl())


def test_explicit_euler_cfl_guard(euclid2):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    control = StepControl(scheme="explicit-euler", dt_max=1e-3)
    with pytest.raises(FlowError):
        radial_solve(p, 64, control)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_explicit_euler_matches_semi_implicit(n):
    p = BallProblem(model=euclidean_model(n=n), R=1.0, phi=_zero_phi,
                    u0=_bump, T=0.005)
    g = Grid(R=1.0, nr=32, ntheta=1)
    dt = 1e-5
    a = solve_ball(p, g, StepControl(scheme="explicit-euler", dt_max=dt))
    b = solve_ball(p, g, StepControl(dt_max=dt))
    gap = float(np.max(np.abs(a.states[-1].u - b.states[-1].u)))
    # both are first order in time; they agree to O(dt) over the run
    assert gap < 5e-6


@pytest.mark.parametrize("kind,n,nr,ntheta,cfl", [
    *(("euclidean", n, 32, 1, cfl) for n in (2, 3, 4, 6)
      for cfl in (0.5, 1.0)),
    *((kind, 2, nr, nt, cfl) for kind in ("euclidean", "hyperbolic")
      for nr, nt in ((8, 12), (16, 16)) for cfl in (0.5, 1.0))])
def test_explicit_euler_at_cfl_limit(kind, n, nr, ntheta, cfl):
    # just inside the limit the explicit run must stay stable, pole row and
    # both polar directions included, and track the semi-implicit run
    model = {"euclidean": euclidean_model,
             "hyperbolic": hyperbolic_model}[kind](n=n)
    g = Grid(R=1.0, nr=nr, ntheta=ntheta)
    if g.radial:
        phi, u0 = _zero_phi, _bump
    else:
        noise = 0.01 * np.random.default_rng(5).standard_normal(g.shape())
        noise[0] = noise[-1] = 0.0

        def phi(th):
            return 0.1 * np.cos(th)

        def u0(r, th):
            return 0.1 * np.cos(th) * r + noise

    p = BallProblem(model=model, R=1.0, phi=phi, u0=u0, T=1.0)
    w = flow._weights(flow._Fields(model, g), p.sample(g)[0])
    dt = 0.99 * (cfl / flow._radius(w))
    p.T = 300 * dt
    a = solve_ball(p, g, StepControl(scheme="explicit-euler", cfl=cfl,
                                     dt_max=dt))
    b = solve_ball(p, g, StepControl(dt_max=dt))
    gap = float(np.max(np.abs(a.states[-1].u - b.states[-1].u)))
    assert gap < 1e-3


def test_explicit_run_builds_the_cfl_limit_once(hyp2, monkeypatch):
    # the limit is read off the weights the step applies: a k-step explicit
    # run evaluates the polar weights once per step, and its states are the
    # plain explicit Euler iterates at the run's own step
    g = Grid(R=1.0, nr=16, ntheta=12)
    k = 6

    def phi(th):
        return 0.1 * np.cos(th)

    def u0(r, th):
        return 0.1 * np.cos(th) * r + 0.05 * (1.0 - r * r)

    p = BallProblem(model=hyp2, R=1.0, phi=phi, u0=u0, T=1.0)
    w = flow._weights(flow._Fields(hyp2, g), p.sample(g)[0])
    dt = 0.5 / flow._radius(w)
    ctl = StepControl(scheme="explicit-euler", cfl=1.0, dt_max=dt)
    p.T = k * dt
    calls = []
    weights = flow._polar_weights
    monkeypatch.setattr(flow, "_polar_weights",
                        lambda *a: calls.append(1) or weights(*a))
    tr = solve_ball(p, g, ctl, snapshot_every=1)
    assert len(calls) == k
    u, row = p.sample(g)
    h = p.T / (tr.times.size - 1)           # solve_ball's step, T / n_steps
    for state in tr.states[1:]:
        u = u + h * discretize_Q(hyp2, g, u)
        u[-1] = row
        np.testing.assert_array_equal(state.u, u)


def test_per_grid_invariants_are_read_only(hyp2):
    for g in (Grid(R=1.0, nr=16, ntheta=8), Grid(R=1.0, nr=16, ntheta=1)):
        assert g.r is g.r and g.theta is g.theta
        gf = flow._grid_factors(hyp2.n, hyp2.xi, hyp2.rho, g)
        assert flow._grid_factors(hyp2.n, hyp2.xi, hyp2.rho, g) is gf
        arrays = [g.r, g.theta, *gf.at, *gf.op, *gf.cells, gf.cos, gf.sin]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1.0
        np.testing.assert_array_equal(g.r, np.linspace(0.0, 1.0, 17))
        np.testing.assert_array_equal(gf.at.rho, hyp2.rho.value(g.r))


@pytest.mark.parametrize("model_name", ["euclid2", "euclid3", "hyp2", "hyp3"])
@pytest.mark.parametrize("R,nr", [(1.0, 32), (10.0, 136)])
def test_cell_measures_are_exact(model_name, R, nr, request):
    # dV_j integrates rho xi^(n-1) over [r_{j-1/2}, r_{j+1/2}] (the pole
    # cell from 0): differences of the closed-form model.V, to roundoff;
    # the last node does not move and has infinite measure
    model = request.getfixturevalue(model_name)
    g = Grid(R=R, nr=nr, ntheta=1)
    dV = flow._grid_factors(model.n, model.xi, model.rho, g).cells.dV
    edges = np.append(0.0, g.r[:-1] + 0.5 * np.diff(g.r))
    ref = np.diff([model.V(float(x)) for x in edges])
    np.testing.assert_allclose(dV[:-1], ref, rtol=1e-12, atol=0.0)
    assert dV[-1] == math.inf


def _operator_csr(model, g, u):
    # the reference operator L(u) in natural node order j * nt + i, built
    # from the conductances and row measures discretize_Q applies: row j
    # holds c_jk / m_j at its neighbours and minus their sum on the
    # diagonal; the pole row is node 0's, the other pole copies and the
    # boundary rows are zero
    nr, nt = g.nr, g.ntheta
    w = flow._weights(flow._Fields(model, g), u)
    j, i = np.meshgrid(np.arange(1, nr), np.arange(nt), indexing="ij")

    def node(dj, di):
        return ((j + dj) * nt + (i + di) % nt).ravel()

    pairs = [(node(1, 0), w.g_r[1:] / w.m), (node(-1, 0), w.g_r[:-1] / w.m),
             (node(0, 1), w.g_t / w.m),
             (node(0, -1), np.roll(w.g_t, 1, axis=1) / w.m)]
    rows = np.concatenate([node(0, 0)] * 4 + [np.zeros(nt, dtype=int)])
    cols = np.concatenate([c for c, _ in pairs] + [nt + np.arange(nt)])
    vals = np.concatenate([v.ravel() for _, v in pairs] + [w.g_r[0] / w.m0])
    L = sp.csr_matrix((vals, (rows, cols)), shape=(u.size, u.size))
    return L - sp.diags(np.asarray(L.sum(axis=1)).ravel())


def _implicit_csr(model, g, u, dt):
    # the reference system: I - dt L(u), with the pole copies tied to node 0
    nt = g.ntheta
    ties = np.arange(1, nt)
    tie = sp.csr_matrix((-np.ones(nt - 1), (ties, np.zeros(nt - 1, int))),
                        shape=(u.size, u.size))
    return sp.identity(u.size, format="csr") - dt * _operator_csr(
        model, g, u) + tie


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
@pytest.mark.parametrize("nr,ntheta", [(24, 16), (32, 32)])
def test_implicit_matrix_matches_discretize_Q(model_name, nr, ntheta,
                                              request):
    # row j of I - dt L(u) is 1 + dt sum_k w_jk on the diagonal and -dt w_jk
    # off it, so at dt = 1 the residual u - A u is the explicit operator
    model = request.getfixturevalue(model_name)
    g = Grid(R=1.0, nr=nr, ntheta=ntheta)
    u = _poly(g.r[:, None], g.theta[None, :])
    A = _implicit_csr(model, g, u, dt=1.0)
    lhs = (u.ravel() - A @ u.ravel()).reshape(g.shape())
    q = discretize_Q(model, g, u)
    assert abs(lhs[0, 0] - q[0, 0]) < 1e-10
    assert float(np.max(np.abs(lhs[1:-1] - q[1:-1]))) < 1e-10


def _captured_band(monkeypatch, model, g, u, dt, phi):
    # the band _polar_implicit hands to the solver, expanded to the full
    # symmetric matrix it stores the lower half of
    seen = []
    solve = flow._band_solve

    def capture(band, rhs):
        seen.append(band.copy())
        return solve(band, rhs)

    monkeypatch.setattr(flow, "_band_solve", capture)
    flow._polar_implicit(flow._Fields(model, g), u, dt, phi)
    band, = seen
    n, kd1 = band.shape
    S = np.zeros((n, n))
    for d in range(kd1):
        S += np.diag(band[:n - d, d], -d)
        if d:
            S += np.diag(band[:n - d, d], d)
    return S


@pytest.mark.parametrize("nr,ntheta", [(8, 8), (9, 9), (16, 11), (33, 8),
                                       (40, 33)])
def test_band_is_the_scaled_symmetric_system(hyp2, monkeypatch, nr, ntheta):
    # the band is diag(dV/P) (I - dt L) on the unknowns (the pole, then
    # rings 1..nr-1), built from discretize_Q's weights; that product is
    # symmetric and lies within ntheta of the diagonal
    g = Grid(R=1.0, nr=nr, ntheta=ntheta)
    u = 0.2 + _poly(g.r[:, None], g.theta[None, :])
    dt = 1e-2
    S = _captured_band(monkeypatch, hyp2, g, u, dt, 0.1 * np.cos(g.theta))
    w = flow._weights(flow._Fields(hyp2, g), u)
    A = (sp.identity(u.size) - dt * _operator_csr(hyp2, g, u)).toarray()
    # fold the pole copies' columns into node 0 and drop the boundary ring
    A[:, 0] = A[:, :ntheta].sum(axis=1)
    keep = np.r_[0, ntheta:nr * ntheta]
    ref = np.concatenate(([w.m0], w.m.ravel()))[:, None] * A[np.ix_(keep,
                                                                    keep)]
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(ref - ref.T))) <= 1e-14 * scale
    k = np.arange(keep.size)
    assert np.all(np.abs(k[:, None] - k[None, :])[ref != 0.0] <= ntheta)
    np.testing.assert_allclose(S, ref, rtol=0.0, atol=1e-14 * scale)


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
@pytest.mark.parametrize("nr,ntheta", [(8, 8), (9, 9), (16, 11), (33, 8),
                                       (40, 33)])
@pytest.mark.parametrize("dt", [1e-4, 1e-2, 1.0])
def test_banded_solve_matches_sparse_solve(model_name, nr, ntheta, dt,
                                           request):
    model = request.getfixturevalue(model_name)
    g = Grid(R=1.0, nr=nr, ntheta=ntheta)
    u = 0.2 + _poly(g.r[:, None], g.theta[None, :])   # nonzero at the pole
    phi = 0.1 * np.cos(g.theta)
    rhs = u.flatten()
    rhs[1:ntheta] = 0.0
    rhs[-ntheta:] = phi
    ref = spla.spsolve(_implicit_csr(model, g, u, dt), rhs).reshape(
        g.shape())
    got = flow._polar_implicit(flow._Fields(model, g), u, dt, phi)
    assert float(np.max(np.abs(got - ref))) < 1e-10


def _scaled(w, factor):
    return type(w)(*(factor * a for a in w))


def test_singular_banded_system_raises(euclid2, monkeypatch):
    g = Grid(R=1.0, nr=8, ntheta=8)
    weights = flow._polar_weights
    monkeypatch.setattr(flow, "_polar_weights",
                        lambda *a: _scaled(weights(*a), 0.0))
    with pytest.raises(FlowError, match="dpbsv"):
        flow._polar_implicit(flow._Fields(euclid2, g), np.zeros(g.shape()),
                             1e-3, np.zeros(8))


@pytest.mark.parametrize("ntheta", [1, 8, 64])
def test_indefinite_band_raises(euclid2, monkeypatch, ntheta):
    # negative measures and conductances give a negative definite system,
    # which the Cholesky factorisation refuses on both grids, and from
    # _CG_NTHETA columns on the preconditioner's check of the diagonal,
    # before its Jacobi scaling takes a square root
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=1.0)
    g = Grid(R=1.0, nr=8, ntheta=ntheta)
    u0 = p.sample(g)[0]
    if g.radial:
        u0 = u0[:, 0]
    name = "_radial_weights" if g.radial else "_polar_weights"
    weights = getattr(flow, name)
    monkeypatch.setattr(flow, name, lambda *a: _scaled(weights(*a), -1.0))
    state = flow.FlowState(t=0.0, u=u0, W=compute_W(euclid2, g, u0),
                           step_count=0)
    solver = "dpbsv" if ntheta < flow._CG_NTHETA else "diagonal entry <= 0"
    with pytest.raises(FlowError, match=f"not positive definite.*{solver}"):
        step(state, p, g, StepControl(), dt=1e-3)


def _rough_problem(model):
    # disk2d's asymmetric data on B_1: a mode of phi extended as r^mode, a
    # bump and an offset
    return BallProblem(
        model=model, R=1.0, phi=lambda th: 0.2 * np.cos(2 * th) + 0.1,
        u0=lambda r, th: 0.2 * np.cos(2 * th) * r ** 2
        + 0.15 * np.cos(0.5 * math.pi * r) + 0.1, T=0.01)


def _dpbsv_only(monkeypatch):
    monkeypatch.setattr(flow, "_CG_NTHETA", 1 << 30)


@pytest.mark.parametrize("nr,ntheta", [(96, 64), (136, 128)])
@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
def test_conjugate_gradients_agree_with_dpbsv(request, monkeypatch,
                                              model_name, nr, ntheta):
    # every state of a run, to 1e-12 of the largest value; the 96 x 64
    # run is five steps of disk2d's size, the 136 x 128 one a single step
    model = request.getfixturevalue(model_name)
    g = Grid(R=1.0, nr=nr, ntheta=ntheta)
    p = _rough_problem(model)
    p.T = 1e-2 if nr == 96 else 2e-3
    runs = [solve_ball(p, g, StepControl(dt_max=2e-3), snapshot_every=1)]
    _dpbsv_only(monkeypatch)
    runs.append(solve_ball(p, g, StepControl(dt_max=2e-3), snapshot_every=1))
    cg, ref = ([s.u for s in tr.states] for tr in runs)
    assert len(cg) == len(ref) == (6 if nr == 96 else 2)
    scale = max(float(np.max(np.abs(u))) for u in ref)
    assert max(float(np.max(np.abs(a - b)))
               for a, b in zip(cg, ref)) <= 1e-12 * scale


def test_conjugate_gradients_start_below_the_threshold(euclid2, monkeypatch):
    # 63 columns step by dpbsv: a dpbsv-only run equals it bit for bit
    g = Grid(R=1.0, nr=16, ntheta=flow._CG_NTHETA - 1)
    p = _rough_problem(euclid2)
    a = solve_ball(p, g, StepControl(dt_max=2e-3)).states[-1].u
    _dpbsv_only(monkeypatch)
    b = solve_ball(p, g, StepControl(dt_max=2e-3)).states[-1].u
    assert a.tobytes() == b.tobytes()


def test_conjugate_gradients_iteration_cap_raises(hyp2, monkeypatch):
    g = Grid(R=1.0, nr=96, ntheta=64)
    p = _rough_problem(hyp2)
    monkeypatch.setattr(flow, "_CG_MAX_ITER", 2)
    with pytest.raises(FlowError, match="no convergence in 2 iterations"):
        solve_ball(p, g, StepControl(dt_max=2e-3))


def test_conjugate_gradients_refuse_negative_curvature():
    # S = diag(1, ..., 1, -1, 1, ...) with no links is indefinite; from the
    # start b / s1 = b with s1 = 1 the residual 2 b lies on the negative
    # node, so the first direction p has p.Sp = -4
    d = np.ones((2, 64))
    d[1, 5] = -1.0
    b = np.zeros(1 + d.size)
    b[1 + 64 + 5] = 1.0
    with pytest.raises(FlowError, match=r"not positive definite \(p.Sp"):
        flow._conjugate_gradients(d, 1.0, np.zeros((3, 64)), np.zeros((2, 64)),
                                  lambda r, out: np.copyto(out, r) or out,
                                  b, np.ones(b.size), 1.0)


def _count_iterations(monkeypatch):
    """A list that gets, for each conjugate-gradient solve from here on, its
    iteration count: the preconditioner's applications, one per iteration."""
    counts = []
    build = flow._theta_mean_preconditioner

    def counting(*args):
        solve = build(*args)
        counts.append(0)

        def counted(r, out):
            counts[-1] += 1
            return solve(r, out)
        return counted

    monkeypatch.setattr(flow, "_theta_mean_preconditioner", counting)
    return counts


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
def test_conjugate_gradients_agree_with_dpbsv_on_every_ladder_rung(
        request, monkeypatch, model_name):
    # the ladder's rungs at ntheta 64, three steps each: the error bound
    # max|r| / (S 1) holds however the rim rows of b grow with R (dV ~
    # e^{2R} on H2); a stop on max|r| / max|b| left the H2 R = 10 rung
    # 3.1e-7 off dpbsv
    model = request.getfixturevalue(model_name)
    plan = build_ladder(model, 1.0, 4, ntheta=64)
    phi = lambda th: np.cos(th)
    dt = plan.T0 / plan.n_time_steps
    for R in plan.ladder:
        g = plan.grid_for(float(R))
        p = BallProblem(model=model, R=float(R), phi=phi,
                        u0=pole_mollified_extension(phi), T=3 * dt)
        with monkeypatch.context() as mp:
            runs = [solve_ball(p, g, StepControl(dt_max=dt), snapshot_every=1)]
            _dpbsv_only(mp)
            runs.append(solve_ball(p, g, StepControl(dt_max=dt),
                                   snapshot_every=1))
        cg, ref = ([s.u for s in tr.states] for tr in runs)
        assert len(cg) == len(ref) == 4
        scale = max(float(np.max(np.abs(u))) for u in ref)
        assert max(float(np.max(np.abs(a - b)))
                   for a, b in zip(cg, ref)) <= 1e-12 * scale, R


@pytest.mark.parametrize("R", [10.0, 17.0])
def test_conjugate_gradients_converge_fast_on_h2_at_large_radius(
        hyp2, monkeypatch, R):
    # data whose slope vanishes along rays: W on a ring runs from about
    # 1 / rho to |grad u|, so the conductances vary in theta by orders of
    # magnitude; the theta mean of S alone took 91 and 537 iterations per
    # step here, that of the diagonally scaled system takes 4-6
    g = Grid(R=R, nr=136, ntheta=64)
    p = BallProblem(model=hyp2, R=R, phi=lambda th: 0.2 * np.cos(2 * th) + 0.1,
                    u0=lambda r, th: 0.2 * np.cos(2 * th) * (r / R) ** 2
                    + 0.15 * np.cos(0.5 * math.pi * r / R) + 0.1, T=4e-3)
    counts = _count_iterations(monkeypatch)
    cg = solve_ball(p, g, StepControl(dt_max=2e-3), snapshot_every=1)
    assert len(counts) == 2 and max(counts) <= 10
    _dpbsv_only(monkeypatch)
    ref = solve_ball(p, g, StepControl(dt_max=2e-3), snapshot_every=1)
    scale = max(float(np.max(np.abs(s.u))) for s in ref.states)
    assert max(float(np.max(np.abs(a.u - b.u))) for a, b in
               zip(cg.states, ref.states)) <= 1e-12 * scale


def _stieltjes_apply(d, d0, g_r, g_t, v):
    """S v for the system of ``flow._conjugate_gradients``, from shifted
    copies: a reference independent of its in-place matvec."""
    V = v[1:].reshape(d.shape)
    Y = d * V - g_t * np.roll(V, -1, 1) - np.roll(g_t, 1, 1) * np.roll(V, 1, 1)
    Y[:-1] -= g_r[1:-1] * V[1:]
    Y[1:] -= g_r[1:-1] * V[:-1]
    Y[0] -= g_r[0] * v[0]
    return np.concatenate(([d0 * v[0] - np.sum(g_r[0] * V[0])], Y.ravel()))


@settings(max_examples=40, deadline=None)
@given(rings=st.integers(2, 11), nt=st.integers(64, 128),
       seed=st.integers(0, 2 ** 32 - 1))
def test_theta_mean_preconditioner_on_random_stieltjes_systems(rings, nt,
                                                               seed):
    # m, g_r and g_t log-uniform over 1e-2..1e2 per node, so the theta
    # contrast is far beyond any flow step's; b = S x for a known x.  The
    # theta mean factors, and conjugate gradients recover x: over 2000 such
    # systems at most 262 iterations (the theta mean of S alone: up to
    # 549 of 300) and an error of 8.8e-10, the accuracy the stop's
    # recursively updated residual leaves on these conditionings
    rng = np.random.default_rng(seed)
    m, g_t = 10.0 ** rng.uniform(-2.0, 2.0, (2, rings, nt))
    g_r = 10.0 ** rng.uniform(-2.0, 2.0, (rings + 1, nt))
    m0 = 10.0 ** rng.uniform(-2.0, 2.0)
    d = m + g_r[1:] + g_r[:-1] + g_t + np.roll(g_t, 1, axis=1)
    d0 = m0 + np.sum(g_r[0])
    x = rng.uniform(-1.0, 1.0, 1 + rings * nt)
    s1 = np.concatenate(([m0], m.ravel()))
    s1[-nt:] += g_r[-1]
    b = _stieltjes_apply(d, d0, g_r, g_t, x)
    solve = flow._theta_mean_preconditioner(d, d0, g_r, g_t)
    calls = []
    got = flow._conjugate_gradients(
        d, d0, g_r, g_t, lambda r, out: calls.append(1) or solve(r, out),
        b, s1, float(np.max(np.abs(x))))
    assert len(calls) - 1 <= 400
    assert float(np.max(np.abs(got - x))) <= 1e-8


def test_non_finite_weights_end_in_the_sup_norm_error(euclid2, monkeypatch):
    # on the conjugate-gradient path too, a step on NaN weights returns a
    # non-finite field, which the run reports; it does not iterate to the
    # cap
    g = Grid(R=1.0, nr=16, ntheta=64)
    p = _rough_problem(euclid2)
    weights = flow._polar_weights
    monkeypatch.setattr(flow, "_polar_weights",
                        lambda *a: _scaled(weights(*a), np.nan))
    monkeypatch.setattr(flow, "_CG_MAX_ITER", 0)
    with pytest.raises(FlowError, match="non-finite field"):
        solve_ball(p, g, StepControl(dt_max=2e-3))


def test_2d_run_is_independent_of_call_history(euclid2):
    # a run on another grid in between reuses the cached layouts and must
    # leave the report bit-identical
    phi = lambda th: 0.1 * np.cos(th)
    p = BallProblem(model=euclid2, R=1.0, phi=phi,
                    u0=lambda r, th: 0.1 * np.cos(th) * np.asarray(r),
                    T=0.02)
    ctl = StepControl(dt_max=1e-3)
    a = solve_ball(p, Grid(R=1.0, nr=48, ntheta=16), ctl)
    solve_ball(p, Grid(R=1.0, nr=24, ntheta=32), ctl)
    b = solve_ball(p, Grid(R=1.0, nr=48, ntheta=16), ctl)
    assert np.array_equal(a.states[-1].u, b.states[-1].u)
    assert np.array_equal(a.max_A, b.max_A)


def test_2d_flow_runs_and_respects_boundary(euclid2):
    phi = lambda th: 0.1 * np.cos(th)
    p = BallProblem(model=euclid2, R=1.0, phi=phi,
                    u0=lambda r, th: 0.1 * np.cos(th) * np.asarray(r),
                    T=0.05)
    g = Grid(R=1.0, nr=24, ntheta=16)
    tr = solve_ball(p, g, StepControl(), snapshot_every=0)
    final = tr.states[-1]
    np.testing.assert_allclose(final.u[-1], phi(g.theta), atol=1e-12)
    assert len(tr.states) == 2        # initial and final only


@pytest.mark.parametrize("model_name,graded", [
    ("euclid2", False), ("hyp2", False), ("euclid2", True), ("hyp2", True)],
    ids=["euclid2", "hyp2", "euclid2-graded", "hyp2-graded"])
def test_2d_matches_radial_on_symmetric_data(model_name, graded, request):
    model = request.getfixturevalue(model_name)
    p = BallProblem(model=model, R=1.0, phi=_zero_phi, u0=_bump, T=0.05)
    ctl = StepControl(dt_max=2.5e-3)
    if graded:
        a, b = (solve_ball(p, _graded(1.0, 24, nt), ctl) for nt in (16, 1))
    else:
        a = solve_ball(p, Grid(R=1.0, nr=24, ntheta=16), ctl)
        b = radial_solve(p, 24, ctl)
    gap = float(np.max(np.abs(a.states[-1].u - b.states[-1].u[:, None])))
    assert gap <= 1e-12
    assert np.max(np.abs(a.max_A - b.max_A)) <= 1e-9


def _plane_error(model, grid, a):
    """max |u - (a / R) r cos(theta)| at the end of 30 lagged steps of
    dt = 1e3 from u0 = (a / R^2) r^2 cos(theta), phi = a cos(theta): a
    Picard iteration for the discrete Dirichlet problem, whose exact limit
    on E2 is that plane."""
    R = grid.R
    p = BallProblem(model=model, R=R, phi=lambda th: a * np.cos(th),
                    u0=lambda r, th: (a / R ** 2) * r ** 2 * np.cos(th),
                    T=3e4)
    u = solve_ball(p, grid, StepControl(dt_max=1e3)).states[-1].u
    return float(np.max(np.abs(u - (a / R) * grid.r[:, None]
                               * np.cos(grid.theta))))


def test_steady_plane_is_second_order(euclid2):
    # the minimal graph over B_1 with boundary values 0.5 cos(theta) is the
    # plane u = 0.5 r cos(theta); measured 1.238e-3, 3.111e-4, 7.783e-5
    errors = [_plane_error(euclid2, Grid(R=1.0, nr=n, ntheta=n), 0.5)
              for n in (16, 32, 64)]
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    assert min(orders) >= 1.9
    assert errors[-1] <= 1e-4


def test_steady_plane_on_a_graded_ladder_rung(euclid2):
    # the plane u = 0.1 r cos(theta) on the E2 ladder's graded R = 5 rung
    # (28 rows, k/8 out to r = 2, then gaps growing by 1.1): the plane is
    # linear along every ray, so the theta error is what remains, measured
    # 1.184e-3 and 2.959e-4 at ntheta 16 and 32 (uniform 40-row twins:
    # 1.185e-3, 2.960e-4)
    rung = build_ladder(euclid2, 1.0, 4).grid_for(5.0)
    assert rung.nodes is not None and rung.nr == 28
    errors = [_plane_error(euclid2, Grid(R=5.0, nr=rung.nr, ntheta=nt,
                                         nodes=rung.nodes), 0.5)
              for nt in (16, 32)]
    assert math.log2(errors[0] / errors[1]) >= 1.9
    assert errors[1] <= 3.0e-4


@pytest.mark.parametrize("nr,ntheta", [(24, 16), (48, 32), (96, 64),
                                       (128, 1)])
def test_uniform_grid_coefficients_are_exact(hyp2, nr, ntheta):
    # a uniform grid runs the graded differences on the spacing R/nr, where
    # their coefficients are exactly 1 and 0, so they are the centred
    # differences bit for bit
    R = 1.7
    grid = Grid(R=R, nr=nr, ntheta=ntheta)
    fd = flow._Fields(hyp2, grid)
    for st, shape in ((fd.gf.steps, (nr - 1, 1)),
                      (fd.steps, (nr - 1, ntheta))):
        for a in (st.p, st.q, st.wp, st.wm):
            assert a.shape == shape and np.all(a == 1.0)
        assert st.z.shape == shape and np.all(st.z == 0.0)
        assert np.all(st.s == 2.0 * R / nr)
        assert np.all(st.hh == (R / nr) ** 2)
        assert st.rim == (3.0, 4.0, 1.0, 2.0 * R / nr)


def test_any_memory_layout_of_a_radial_u_gives_the_same_bits(euclid3):
    # a radial state is stacked in the grid's (nr + 1, 1) shape; a strided
    # 1-d u must give the bits of a contiguous one
    grid = Grid(R=1.0, nr=32, ntheta=1)
    rng = np.random.default_rng(5)
    u = (0.2 + 0.3 * np.cos(0.5 * math.pi * grid.r)
         + 0.05 * rng.standard_normal(grid.r.size))
    u[-1] = 0.2
    v = np.repeat(u, 2)[::2]
    assert not v.flags.c_contiguous and np.array_equal(v, u)
    assert np.array_equal(compute_W(euclid3, grid, v),
                          compute_W(euclid3, grid, u))
    for a, b in zip(second_fundamental_form(euclid3, grid, v),
                    second_fundamental_form(euclid3, grid, u)):
        assert np.array_equal(a, b)
    fd = flow._Fields(euclid3, grid)
    (a,), (b,) = (flow._diagnosed(fd, [(0.0, x, 0)]) for x in (v, u))
    assert a.W.shape == u.shape and np.array_equal(a.W, b.W)
    assert (a.max_grad, a.max_A) == (b.max_grad, b.max_A)
    p = BallProblem(model=euclid3, R=1.0, phi=lambda th: u[-1],
                    u0=lambda r, th: u)
    W = compute_W(euclid3, grid, u)
    for scheme in ("semi-implicit", "explicit-euler"):
        control = StepControl(scheme=scheme, dt_max=1e-6)
        a, b = (step(flow.FlowState(t=0.0, u=x, W=W, step_count=0), p, grid,
                     control) for x in (v, u))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.W, b.W)
        assert (a.max_grad, a.max_A) == (b.max_grad, b.max_A)


@pytest.mark.parametrize("ntheta", [1, 16])
def test_graded_differences_are_exact_on_quadratics(euclid2, ntheta):
    # the three-point differences of a graded grid, interior and one-sided
    # at the rim, differentiate u = 0.3 r - 0.7 r^2 exactly, so W and the
    # curvatures of the graph are the closed forms of u_r = 0.3 - 1.4 r
    # and u_rr = -1.4 (the pole row reads the first ring's Fourier fit)
    g = _graded(3.0, 20, ntheta, q=1.2)
    r = g.r[:, None]
    u = np.repeat(0.3 * r - 0.7 * r ** 2, ntheta, 1).reshape(g.shape())
    if g.radial:
        u = u[:, 0]
    ur = 0.3 - 1.4 * r[1:]
    W = np.sqrt(1.0 + ur ** 2)
    A2, nH = (a.reshape(g.shape()) for a in second_fundamental_form(
        euclid2, g, u))
    np.testing.assert_allclose(compute_W(euclid2, g, u).reshape(g.shape())[1:],
                               W * np.ones(ntheta), rtol=1e-13)
    lam_r, lam_t = -1.4 / W ** 3, ur / (r[1:] * W)
    np.testing.assert_allclose(A2[1:-1], (lam_r ** 2 + lam_t ** 2)[:-1]
                               * np.ones(ntheta), rtol=1e-11)
    np.testing.assert_allclose(nH[1:-1], (lam_r + lam_t)[:-1]
                               * np.ones(ntheta), rtol=1e-11)


def test_solve_ball_rejects_higher_dimension_on_polar_grid(euclid3):
    p = BallProblem(model=euclid3, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    with pytest.raises(FlowError, match="base dimension 2 only"):
        solve_ball(p, Grid(R=1.0, nr=16, ntheta=8), StepControl())


def test_solve_ball_rejects_radius_mismatch(euclid2):
    # zero data is compatible with the boundary at both radii
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi,
                    u0=lambda r, th: 0.0 * r * th, T=0.01)
    with pytest.raises(FlowError, match="differs from the problem radius"):
        solve_ball(p, Grid(R=2.0, nr=16, ntheta=1), StepControl())


@pytest.mark.parametrize("entry", ["step", "explicit step", "discretize_Q",
                                   "compute_W", "second_fundamental_form"])
def test_polar_grid_rejects_higher_dimension_at_every_entry(euclid3, entry):
    # every operator, step and diagnostic reads _grid_factors first, which
    # owns the rule; before, only solve_ball checked it, and step advanced
    # an n = 3 model on a 16 x 16 polar grid
    g = Grid(R=1.0, nr=16, ntheta=16)
    p = BallProblem(model=euclid3, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    u = p.sample(g)[0]
    state = flow.FlowState(t=0.0, u=u, W=np.ones_like(u), step_count=0)
    calls = {
        "step": lambda: step(state, p, g, StepControl(), dt=1e-4),
        "explicit step": lambda: step(
            state, p, g, StepControl(scheme="explicit-euler"), dt=1e-6),
        "discretize_Q": lambda: discretize_Q(euclid3, g, u),
        "compute_W": lambda: compute_W(euclid3, g, u),
        "second_fundamental_form": lambda: second_fundamental_form(
            euclid3, g, u),
    }
    with pytest.raises(FlowError, match="base dimension 2 only"):
        calls[entry]()


@pytest.mark.parametrize("ntheta", [1, 16])
@pytest.mark.parametrize("entry", ["step", "sample"])
def test_entries_reject_a_grid_of_another_radius(euclid2, entry, ntheta):
    # the problem's Dirichlet row owns the rule; before, step advanced a
    # problem with R = 2 on an R = 1 grid.  Zero data is compatible with
    # the boundary at both radii.
    p = BallProblem(model=euclid2, R=2.0, phi=_zero_phi,
                    u0=lambda r, th: 0.0 * r * th, T=0.01)
    g = Grid(R=1.0, nr=16, ntheta=ntheta)
    u = np.zeros(g.shape()[:1] if g.radial else g.shape())
    state = flow.FlowState(t=0.0, u=u, W=np.ones_like(u), step_count=0)
    calls = {"step": lambda: step(state, p, g, StepControl(), dt=1e-4),
             "sample": lambda: p.sample(g)}
    with pytest.raises(FlowError, match="differs from the problem radius"):
        calls[entry]()


def test_step_rejects_non_finite_boundary_data(euclid2):
    # step reads phi through the same row as sample, with its finiteness
    # check; before, a NaN phi was caught only as a non-finite field after
    # the solve
    p = BallProblem(model=euclid2, R=1.0, phi=lambda th: np.nan * th,
                    u0=_bump, T=0.01)
    g = Grid(R=1.0, nr=16, ntheta=16)
    u = np.zeros(g.shape())
    state = flow.FlowState(t=0.0, u=u, W=np.ones_like(u), step_count=0)
    with pytest.raises(FlowError, match="phi must be finite"):
        step(state, p, g, StepControl(), dt=1e-4)


def test_comparison_principle_sample(euclid2):
    # ordered initial and boundary data stay ordered
    rng = np.random.default_rng(11)
    for _ in range(3):
        c = rng.uniform(0.05, 0.3)
        phi_lo = lambda th: 0.05 * np.cos(th)
        phi_hi = lambda th: 0.05 * np.cos(th) + c
        u0_lo = lambda r, th: 0.05 * np.cos(th) * np.asarray(r)
        u0_hi = lambda r, th: 0.05 * np.cos(th) * np.asarray(r) + c
        g = Grid(R=1.0, nr=24, ntheta=16)
        ctl = StepControl()
        lo = solve_ball(BallProblem(model=euclid2, R=1.0, phi=phi_lo,
                                    u0=u0_lo, T=0.05), g, ctl)
        hi = solve_ball(BallProblem(model=euclid2, R=1.0, phi=phi_hi,
                                    u0=u0_hi, T=0.05), g, ctl)
        gap = float(np.min(hi.states[-1].u - lo.states[-1].u))
        assert gap > -1e-9


def test_single_step_decreases_sup(euclid2):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=1.0)
    g = Grid(R=1.0, nr=32, ntheta=1)
    u0 = p.sample(g)[0]
    u0 = u0[:, 0]
    from killingflow.flow import FlowState
    s0 = FlowState(t=0.0, u=u0, W=compute_W(euclid2, g, u0), step_count=0)
    s1 = step(s0, p, g, StepControl(), dt=1e-4)
    assert s1.t == pytest.approx(1e-4)
    assert float(np.max(np.abs(s1.u))) <= float(np.max(np.abs(u0)))


# -- discrete maximum principle --------------------------------------------------


def _excursion(model, g, u0, phi, scheme, steps, dt=None):
    # how far `steps` steps from u0 leave [min(u0, phi), max(u0, phi)];
    # dt None steps the explicit scheme at each state's own limit
    p = BallProblem(model=model, R=g.R, phi=lambda th: phi,
                    u0=lambda r, th: u0, T=1.0)
    ctl = StepControl(scheme=scheme, cfl=1.0)
    lo = min(float(np.min(u0)), float(np.min(phi)))
    hi = max(float(np.max(u0)), float(np.max(phi)))
    state = flow.FlowState(t=0.0, u=u0, W=compute_W(model, g, u0),
                           step_count=0)
    worst = 0.0
    for _ in range(steps):
        h = (ctl.cfl / flow._radius(flow._weights(flow._Fields(model, g),
                                                  state.u))
             if dt is None else dt)
        state = step(state, p, g, ctl, dt=h)
        worst = max(worst, lo - float(np.min(state.u)),
                    float(np.max(state.u)) - hi)
    return worst


_TENTS = [*((kind, n, 1, False) for kind in ("euclidean", "hyperbolic")
             for n in (2, 3, 4, 6)),
          *((kind, 2, nt, False) for kind in ("euclidean", "hyperbolic")
            for nt in (16, 32, 64)),
          *((kind, n, nt, True) for kind in ("euclidean", "hyperbolic")
            for n, nt in ((3, 1), (2, 16)))]


@pytest.mark.parametrize("scheme", ["semi-implicit", "explicit-euler"])
@pytest.mark.parametrize("kind,n,ntheta,graded", _TENTS, ids=[
    f"{kind}-{n}-{nt}" + "-graded" * graded for kind, n, nt, graded in _TENTS])
def test_tent_stays_within_its_data(kind, n, ntheta, graded, scheme):
    # u0 = 0.1 max(0, 1 - 32 r), phi = 0: a stencil with a negative weight
    # next to the pole takes this below 0 (a lagged non-divergence stencil
    # did, by 1.7e-3 at n = 2 to 9.4e-3 at n = 6, on both grids); the
    # graded grid's gaps grow by 1.1 from 0.005, so the tent spans 6 rows
    model = {"euclidean": euclidean_model,
             "hyperbolic": hyperbolic_model}[kind](n=n)
    g = (_graded if graded else Grid)(1.0, 32, ntheta)
    u0 = 0.1 * np.maximum(0.0, 1.0 - 32.0 * g.r)
    if not g.radial:
        u0 = np.repeat(u0[:, None], ntheta, axis=1)
    dt = 1e-4 if scheme == "semi-implicit" else None
    assert _excursion(model, g, u0, np.zeros(ntheta), scheme, 20, dt) == 0.0


@settings(max_examples=60, deadline=None)
@given(model_name=st.sampled_from(["euclid2", "hyp2", "euclid3", "hyp3"]),
       nr=st.integers(8, 20), ntheta=st.sampled_from([1, 8, 11, 64]),
       scheme=st.sampled_from(["semi-implicit", "explicit-euler"]),
       dt=st.floats(1e-6, 1.0),
       data=arrays(float, (21, 64), elements=st.floats(-1.0, 1.0)),
       gaps=st.none() | arrays(float, (20,), elements=st.floats(0.05, 1.0)))
def test_runs_stay_within_their_data(request, model_name, nr, ntheta, scheme,
                                     dt, data, gaps):
    # min(u0, phi) <= u <= max(u0, phi) to roundoff, for rough data, any
    # semi-implicit dt and the explicit step at its state limit, on uniform
    # grids and on grids of random gaps; the banded
    # Cholesky factor of the scaled system has no positive off-diagonal
    # entry, so its substitutions keep signs (no excursion at all in 400
    # random cases with dt up to 1), and the bound leaves room for the
    # rounding of the scaled right-hand side m_j u_j; from 48 columns on,
    # the conjugate-gradient step clips its result to that interval
    model = request.getfixturevalue(model_name)
    if model.n != 2:
        ntheta = 1                  # the polar grid represents n = 2 only
    nodes = None
    if gaps is not None:
        r = np.concatenate(([0.0], np.cumsum(gaps[:nr])))
        nodes = tuple(r[:-1] / r[-1]) + (1.0,)
    g = Grid(R=1.0, nr=nr, ntheta=ntheta, nodes=nodes)
    u0 = data[:nr + 1, :ntheta].copy()
    u0[0] = u0[0, 0]
    if g.radial:
        u0 = u0[:, 0]
    phi = np.atleast_1d(u0[-1]).copy()
    dt = dt if scheme == "semi-implicit" else None
    assert _excursion(model, g, u0, phi, scheme, 3, dt) <= 1e-12


@pytest.mark.parametrize("data", ["tent", "rough", "flat"])
@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
def test_clip_moves_no_value_past_roundoff(monkeypatch, kind, data):
    # the conjugate-gradient step clips its result to [min(u, phi),
    # max(u, phi)], where the exact solution lies; the clip may move a value
    # by roundoff only: the tent of test_tent_stays_within_its_data at
    # dt = 1e-4, rough data at dt = 1, and flat data, which the unclipped
    # iterate leaves by up to 1.1e-16 and the clip keeps exactly flat
    model = {"euclidean": euclidean_model,
             "hyperbolic": hyperbolic_model}[kind](n=2)
    g = Grid(R=1.0, nr=32, ntheta=64)
    if data == "tent":
        u0 = np.repeat(0.1 * np.maximum(0.0, 1.0 - 32.0 * g.r)[:, None], 64, 1)
        dt = 1e-4
    elif data == "flat":
        u0 = np.full(g.shape(), -0.7)
        dt = 1.0
    else:
        u0 = np.random.default_rng(7).uniform(-1.0, 1.0, g.shape())
        u0[0] = u0[0, 0]
        dt = 1.0
    phi = u0[-1].copy()
    p = BallProblem(model=model, R=1.0, phi=lambda th: phi,
                    u0=lambda r, th: u0, T=1.0)
    solved = []
    cg = flow._conjugate_gradients
    monkeypatch.setattr(flow, "_conjugate_gradients",
                        lambda *a: solved.append(cg(*a)) or solved[-1])
    state = flow.FlowState(t=0.0, u=u0, W=compute_W(model, g, u0),
                           step_count=0)
    moved = 0.0
    for _ in range(10):
        state = step(state, p, g, StepControl(), dt=dt)
        moved = max(moved, float(np.max(np.abs(
            state.u.reshape(-1)[63:32 * 64] - solved[-1]))))
    assert len(solved) == 10 and moved <= 1e-13
    if data == "flat":
        assert np.all(state.u == -0.7)


# -- persistence -----------------------------------------------------------------

_RUN_FILES = ["manifest.json", "snapshots.npy", "steps.npy"]


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _wave_phi(th):
    return 0.1 * np.cos(2 * th)


def _wave(r, th):
    return 0.1 * np.cos(2 * th) * r ** 2 + _bump(r, th)


def _same_state(a, b) -> bool:
    """Every field of two states equal bit for bit, with the same types."""
    return (a.u.shape == np.shape(b.u) and a.u.tobytes() == b.u.tobytes()
            and a.W.shape == np.shape(b.W) and a.W.tobytes() == b.W.tobytes()
            and type(a.step_count) is int and a.step_count == b.step_count
            and all(type(x) is float for x in (a.t, a.max_grad, a.max_A))
            and np.array([a.t, a.max_grad, a.max_A]).tobytes()
            == np.array([b.t, b.max_grad, b.max_A]).tobytes())


@pytest.mark.parametrize("model,nr,ntheta", [("euclid3", 32, 1),
                                             ("hyp2", 16, 8)],
                         ids=["radial", "polar"])
def test_snapshot_roundtrip_bit_exact(request, tmp_path, model, nr, ntheta):
    p = BallProblem(model=request.getfixturevalue(model), R=1.0,
                    phi=_wave_phi, u0=_wave, T=0.01)
    tr = solve_ball(p, Grid(R=1.0, nr=nr, ntheta=ntheta), StepControl(),
                    snapshot_every=3)
    mpath = save_run(str(tmp_path / "run"), tr)
    # the on-disk format: snapshots.npy stacks each kept state's u and W on
    # the (nr + 1, ntheta) grid; steps.npy has one row t, max|grad u|,
    # max|A| per step; both little-endian float64
    snaps = np.empty((len(tr.states), 2, nr + 1, ntheta), dtype="<f8")
    for k, state in enumerate(tr.states):
        snaps[k, 0] = np.reshape(state.u, (nr + 1, ntheta))
        snaps[k, 1] = np.reshape(state.W, (nr + 1, ntheta))
    steps = np.ascontiguousarray(
        np.transpose([tr.times, tr.max_grad, tr.max_A]), dtype="<f8")
    run = tmp_path / "run"
    assert (run / "snapshots.npy").read_bytes() == _npy_bytes(snaps)
    assert (run / "steps.npy").read_bytes() == _npy_bytes(steps)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["snapshot_steps"] == [s.step_count for s in tr.states]
    data = load_run(mpath)
    assert len(data["states"]) == len(tr.states) >= 3
    assert all(_same_state(a, b) for a, b in zip(data["states"], tr.states))
    for key in ("times", "max_grad", "max_A"):
        assert data[key].tobytes() == getattr(tr, key).tobytes(), key


def test_graded_run_roundtrip_bit_exact(hyp2, tmp_path):
    # a graded grid's manifest records its radii, validates against the
    # schema, and the run loads back bit for bit on the same grid
    import jsonschema
    from importlib import resources
    g = _graded(1.0, 16, 8)
    p = BallProblem(model=hyp2, R=1.0, phi=_wave_phi, u0=_wave, T=0.01)
    tr = solve_ball(p, g, StepControl(), snapshot_every=3)
    mpath = save_run(str(tmp_path / "run"), tr)
    with open(mpath) as fh:
        manifest = json.load(fh)
    assert manifest["grid"] == {"R": 1.0, "nr": 16, "ntheta": 8,
                                "nodes": list(g.nodes)}
    schema = json.loads(resources.files("killingflow.schemas").joinpath(
        "run_manifest.schema.json").read_text())
    jsonschema.validate(manifest, schema)
    data = load_run(mpath)
    assert data["grid"] == g and data["grid"].r.tobytes() == g.r.tobytes()
    assert len(data["states"]) == len(tr.states) >= 3
    assert all(_same_state(a, b) for a, b in zip(data["states"], tr.states))
    for key in ("times", "max_grad", "max_A"):
        assert data[key].tobytes() == getattr(tr, key).tobytes(), key


def test_uniform_radii_as_nodes_step_as_the_uniform_grid(hyp2, tmp_path):
    # a grid given exactly the uniform radii is the uniform grid: its run
    # and its saved files are the uniform grid's, byte for byte, and the
    # manifest names no nodes
    uniform = Grid(R=1.0, nr=16, ntheta=8)
    given = Grid(R=1.0, nr=16, ntheta=8, nodes=tuple(np.linspace(0, 1, 17)))
    p = BallProblem(model=hyp2, R=1.0, phi=_wave_phi, u0=_wave, T=0.01)
    for name, g in (("uniform", uniform), ("given", given)):
        save_run(str(tmp_path / name),
                 solve_ball(p, g, StepControl(), snapshot_every=3))
    for name in _RUN_FILES:
        assert ((tmp_path / "uniform" / name).read_bytes()
                == (tmp_path / "given" / name).read_bytes())
    manifest = json.loads((tmp_path / "given" / "manifest.json").read_text())
    assert manifest["grid"] == {"R": 1.0, "nr": 16, "ntheta": 8}


def test_save_run_writes_exactly_three_files(hyp2, tmp_path):
    # two runs of one problem give byte-identical files, and nothing else
    p = BallProblem(model=hyp2, R=1.0, phi=_wave_phi, u0=_wave, T=0.01)
    g = Grid(R=1.0, nr=12, ntheta=8)
    for name in ("a", "b"):
        save_run(str(tmp_path / name),
                 solve_ball(p, g, StepControl(), snapshot_every=4))
    assert sorted(f.name for f in (tmp_path / "a").iterdir()) == _RUN_FILES
    assert sorted(f.name for f in (tmp_path / "b").iterdir()) == _RUN_FILES
    for name in _RUN_FILES:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_save_run_writes_what_save_snapshot_writes(hyp2, tmp_path):
    # each kept state in snapshots.npy holds, byte for byte, the u and W
    # columns the per-snapshot tables held: node order, float64
    def phi(th):
        return 0.1 * np.cos(2 * th)

    def u0(r, th):
        return 0.1 * np.cos(2 * th) * r ** 2

    p = BallProblem(model=hyp2, R=1.0, phi=phi, u0=u0, T=0.01)
    tr = solve_ball(p, Grid(R=1.0, nr=12, ntheta=8), StepControl(dt_max=1e-3),
                    snapshot_every=4)
    assert len(tr.states) >= 3
    save_run(str(tmp_path / "run"), tr)
    with open(tmp_path / "run" / "manifest.json") as fh:
        steps = json.load(fh)["snapshot_steps"]
    snaps = np.load(tmp_path / "run" / "snapshots.npy", allow_pickle=False)
    assert snaps.dtype == np.dtype("<f8")
    for k, state in zip(steps, tr.states, strict=True):
        assert k == state.step_count
    for saved, state in zip(snaps, tr.states, strict=True):
        for column, field in zip(saved, (state.u, state.W), strict=True):
            assert (column.reshape(-1).tobytes()
                    == np.asarray(field, dtype="<f8").reshape(-1).tobytes())


@pytest.fixture(scope="module")
def small_run(euclid2):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.004)
    return solve_ball(p, Grid(R=1.0, nr=8, ntheta=8), StepControl(),
                      snapshot_every=2)


def _saved(tmp_path, trajectory):
    """Save the run and check that it loads; returns its directory."""
    mpath = save_run(str(tmp_path / "run"), trajectory)
    assert len(load_run(mpath)["states"]) == len(trajectory.states)
    return tmp_path / "run"


def _csv_era(array):
    # text, as snapshots were before they were .npy tables
    rows = ["t,r,theta,u,W\r\n"] + [",".join(map(repr, row)) + "\r\n"
                                     for row in array.reshape(-1, 8).tolist()]
    return "".join(rows).encode()


def _npz(array):
    buf = io.BytesIO()
    np.savez(buf, table=array)
    return buf.getvalue()


@pytest.mark.parametrize("edit", [
    lambda a: _npy_bytes(a[:, :, :-3]),
    lambda a: _npy_bytes(np.concatenate([a, a[:, :, -2:]], axis=2)),
    lambda a: _npy_bytes(a[:, :1]),
    lambda a: _npy_bytes(a[:-1]),
    lambda a: b"",
    lambda a: _npy_bytes(a)[:-8],
    lambda a: _npy_bytes(a.astype(object)),
    _csv_era,
    _npz,
    lambda a: _npy_bytes(a.ravel()),
    lambda a: _npy_bytes(a.astype(">f8")),
    lambda a: _npy_bytes(a.astype("<f4")),
], ids=["truncated", "extra_rows", "short_row", "fewer_snapshots",
        "empty_file", "truncated_data", "object_array", "csv_era",
        "npz_archive", "one_dimensional", "big_endian", "float32"])
def test_load_snapshot_rejects_rows_off_the_grid(small_run, tmp_path, edit):
    # load_run refuses a snapshots.npy that is not the (S, 2, nr + 1,
    # ntheta) <f8 stack of the manifest's grid and kept states
    path = _saved(tmp_path, small_run) / "snapshots.npy"
    path.write_bytes(edit(np.load(path, allow_pickle=False)))
    with pytest.raises(FlowError, match=re.escape(str(path))):
        load_run(str(path.parent / "manifest.json"))


@pytest.mark.parametrize("edit, culprit", [
    (lambda s: _npy_bytes(s[:, :2]), "steps.npy"),
    (lambda s: _npy_bytes(s.ravel()), "steps.npy"),
    (lambda s: _npy_bytes(s.astype("<f4")), "steps.npy"),
    (lambda s: b"", "steps.npy"),
    (lambda s: _npy_bytes(s[:3]), "manifest.json"),
], ids=["two_columns", "one_dimensional", "float32", "empty_file",
        "kept_step_past_the_end"])
def test_load_run_rejects_a_bad_step_table(small_run, tmp_path, edit,
                                           culprit):
    run = _saved(tmp_path, small_run)
    path = run / "steps.npy"
    path.write_bytes(edit(np.load(path, allow_pickle=False)))
    with pytest.raises(FlowError, match=re.escape(str(run / culprit))):
        load_run(str(run / "manifest.json"))


def _without(key):
    return lambda m: json.dumps({k: v for k, v in m.items() if k != key})


def _with(key, value):
    return lambda m: json.dumps({**m, key: value})


@pytest.mark.parametrize("edit", [
    *(_without(key) for key in ("T", "control", "grid", "model",
                                "model_hash", "snapshot_steps")),
    lambda m: json.dumps([m]),
    lambda m: "{",
    _with("grid", {"R": 1.0, "ntheta": 8}),
    _with("grid", {"R": 1.0, "nr": 4, "ntheta": 8}),
    _with("snapshot_steps", [0, 2.0, 4]),
    _with("snapshot_steps", [-1, 2, 4]),
    _with("snapshot_steps", "0 2 4"),
    _with("grid", {"R": 1.0, "nr": 8, "ntheta": 8, "nodes": [0.0, 1.0]}),
    _with("grid", {"R": 1.0, "nr": 8, "ntheta": 8,
                   "nodes": [0.0, 0.5, 0.25, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0]}),
    _with("grid", {"R": 1.0, "nr": 8, "ntheta": 8, "nodes": "0 1"}),
], ids=["no_T", "no_control", "no_grid", "no_model", "no_model_hash",
        "no_snapshot_steps", "not_an_object", "not_json", "grid_without_nr",
        "grid_too_coarse", "float_step", "negative_step", "steps_as_text",
        "too_few_nodes", "nodes_not_increasing", "nodes_as_text"])
def test_load_run_rejects_a_bad_manifest(small_run, tmp_path, edit):
    path = _saved(tmp_path, small_run) / "manifest.json"
    path.write_text(edit(json.loads(path.read_text())))
    with pytest.raises(FlowError, match=re.escape(str(path))):
        load_run(str(path))


def test_load_run_rejects_the_old_layout(small_run, tmp_path):
    # runs saved as one (N, 5) t, r, theta, u, W table per snapshot, with
    # the per-step values as text in the manifest, are not readable and
    # do not fit the manifest schema; re-run them
    import jsonschema
    from importlib import resources
    run = _saved(tmp_path, small_run)
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["snapshot_steps"]
    g = small_run.grid
    manifest["snapshots"] = []
    for k, state in enumerate(small_run.states):
        name = f"snapshot_{k:05d}.npy"
        table = np.column_stack([np.full(g.r.size * g.ntheta, state.t),
                                 np.repeat(g.r, g.ntheta),
                                 np.tile(g.theta, g.r.size),
                                 np.ravel(state.u), np.ravel(state.W)])
        np.save(run / name, table)
        manifest["snapshots"].append(name)
    for key in ("times", "max_grad", "max_A"):
        manifest[key] = [repr(float(x)) for x in getattr(small_run, key)]
    (run / "snapshots.npy").unlink()
    (run / "steps.npy").unlink()
    (run / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FlowError, match=re.escape(str(run / "manifest.json"))):
        load_run(str(run / "manifest.json"))
    schema = json.loads(resources.files("killingflow.schemas").joinpath(
        "run_manifest.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(manifest, schema)


def test_run_roundtrip(euclid2, tmp_path):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    tr = radial_solve(p, 32, StepControl(), snapshot_every=3)
    mpath = save_run(str(tmp_path / "run"), tr)
    data = load_run(mpath)
    assert data["manifest"]["model_hash"] == model_hash(euclid2)
    assert len(data["states"]) == len(tr.states)
    np.testing.assert_array_equal(data["times"], tr.times)
    np.testing.assert_array_equal(data["max_grad"], tr.max_grad)
    for a, b in zip(data["states"], tr.states):
        np.testing.assert_array_equal(a.u, b.u)
    # a manifest whose stored model no longer matches its hash is refused
    with open(mpath) as fh:
        manifest = json.load(fh)
    manifest["model"]["n"] = 3
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(FlowError):
        load_run(mpath)


def test_run_roundtrip_on_a_table_model(tmp_path):
    # the manifest stores a table profile's samples; they must hash back
    # to the model's hash, and an edited sample must be refused
    from killingflow.geometry import ProfileSpec, constant_profile, make_model
    table = ProfileSpec("table", samples=tuple(
        (float(r), math.sinh(r)) for r in np.linspace(0.0, 2.0, 21)))
    model = make_model(table, table, constant_profile(1.0), 2)
    p = BallProblem(model=model, R=1.0, phi=_wave_phi, u0=_wave, T=0.004)
    tr = solve_ball(p, Grid(R=1.0, nr=8, ntheta=8), StepControl(),
                    snapshot_every=2)
    mpath = save_run(str(tmp_path / "run"), tr)
    data = load_run(mpath)
    assert data["manifest"]["model_hash"] == model_hash(model)
    assert data["manifest"]["model"]["xi"]["samples"] == [
        list(s) for s in table.samples]
    assert all(_same_state(a, b) for a, b in zip(data["states"], tr.states))
    manifest = data["manifest"]
    manifest["model"]["xi"]["samples"][5][1] += 1e-12
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(FlowError, match="model_hash"):
        load_run(mpath)


def test_model_hash_distinguishes_models(euclid2, hyp2, euclid3):
    hashes = {model_hash(m) for m in (euclid2, hyp2, euclid3)}
    assert len(hashes) == 3
    assert model_hash(euclid2) == model_hash(euclid2)
