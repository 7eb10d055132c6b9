import io
import json
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from killingflow import cmc, euclidean_model, flow, hyperbolic_model
from killingflow.barriers import pointwise_Q
from killingflow.flow import (BallProblem, FlowError, Grid, StepControl,
                              compute_W, discretize_Q, load_run,
                              load_snapshot, model_hash, radial_Q,
                              radial_solve, save_run, save_snapshot,
                              second_fundamental_form, solve_ball, step)


def _zero_phi(theta):
    return np.zeros_like(theta)


def _bump(r, theta):
    return 0.25 * np.cos(0.5 * math.pi * r) * np.ones_like(theta)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda x, m: Grid(R=x, nr=16, ntheta=8),
    lambda x, m: BallProblem(model=m, R=x, phi=_zero_phi, u0=_bump),
    lambda x, m: BallProblem(model=m, R=1.0, phi=_zero_phi, u0=_bump, T=x),
    lambda x, m: StepControl(dt_max=x),
    lambda x, m: StepControl(cfl=x),
], ids=["grid_R", "problem_R", "problem_T", "dt_max", "cfl"])
def test_non_finite_inputs_raise_flow_error(euclid2, build, bad):
    with pytest.raises(FlowError):
        build(bad, euclid2)


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
    # transposed (node x snapshot) stack of a run; each column must be
    # second_fundamental_form of its snapshot, bit for bit
    model = request.getfixturevalue(model_name)
    g = Grid(R=R, nr=fields.shape[1] - 1, ntheta=1)
    gf = flow._grid_factors(model.n, model.xi, model.rho, g)
    W = np.stack([compute_W(model, g, u) for u in fields])
    ur, vt = flow._slopes(gf, g, fields.T)
    A2, nH = flow._curvatures(gf, g, model.n, fields.T, ur, vt, W.T)
    for k, u in enumerate(fields):
        a2, nh = second_fundamental_form(model, g, u)
        np.testing.assert_array_equal(A2[:, k], a2[1:-1])
        np.testing.assert_array_equal(nH[:, k], nh[1:-1])


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
    real_step = flow.step

    def blow_up(state, *args, **kwargs):
        s = real_step(state, *args, **kwargs)
        return flow.FlowState(t=s.t, u=100.0 * s.u, W=s.W,
                              step_count=s.step_count)

    monkeypatch.setattr(flow, "step", blow_up)
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
    dt = 0.99 * flow._cfl_dt(model, g, StepControl(cfl=cfl), p.sample(g)[0])
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
    dt = 0.5 * flow._cfl_dt(hyp2, g, StepControl(cfl=1.0), p.sample(g)[0])
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
    w = flow._weights(model, g, u)
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
    flow._polar_implicit(model, g, u, dt, phi)
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
    w = flow._weights(hyp2, g, u)
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
    got = flow._polar_implicit(model, g, u, dt, phi)
    assert float(np.max(np.abs(got - ref))) < 1e-10


def _scaled(w, factor):
    return type(w)(*(factor * a for a in w))


def test_singular_banded_system_raises(euclid2, monkeypatch):
    g = Grid(R=1.0, nr=8, ntheta=8)
    weights = flow._polar_weights
    monkeypatch.setattr(flow, "_polar_weights",
                        lambda *a: _scaled(weights(*a), 0.0))
    with pytest.raises(FlowError, match="dpbsv"):
        flow._polar_implicit(euclid2, g, np.zeros(g.shape()), 1e-3,
                             np.zeros(8))


@pytest.mark.parametrize("ntheta", [1, 8])
def test_indefinite_band_raises(euclid2, monkeypatch, ntheta):
    # negative measures and conductances give a negative definite system,
    # which the Cholesky factorisation refuses on both grids
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=1.0)
    g = Grid(R=1.0, nr=8, ntheta=ntheta)
    u0, phi = p.sample(g)
    if g.radial:
        u0 = u0[:, 0]
    name = "_radial_weights" if g.radial else "_polar_weights"
    weights = getattr(flow, name)
    monkeypatch.setattr(flow, name, lambda *a: _scaled(weights(*a), -1.0))
    state = flow.FlowState(t=0.0, u=u0, W=compute_W(euclid2, g, u0),
                           step_count=0)
    with pytest.raises(FlowError, match="dpbsv"):
        step(state, p, g, StepControl(), dt=1e-3, phi_row=phi)


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


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
def test_2d_matches_radial_on_symmetric_data(model_name, request):
    model = request.getfixturevalue(model_name)
    p = BallProblem(model=model, R=1.0, phi=_zero_phi, u0=_bump, T=0.05)
    ctl = StepControl(dt_max=2.5e-3)
    a = solve_ball(p, Grid(R=1.0, nr=24, ntheta=16), ctl)
    b = radial_solve(p, 24, ctl)
    gap = float(np.max(np.abs(a.states[-1].u - b.states[-1].u[:, None])))
    assert gap <= 1e-12


def test_solve_ball_rejects_higher_dimension_on_polar_grid(euclid3):
    p = BallProblem(model=euclid3, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    with pytest.raises(FlowError):
        solve_ball(p, Grid(R=1.0, nr=16, ntheta=8), StepControl())


def test_solve_ball_rejects_radius_mismatch(euclid2):
    # zero data is compatible with the boundary at both radii
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi,
                    u0=lambda r, th: 0.0 * r * th, T=0.01)
    with pytest.raises(FlowError):
        solve_ball(p, Grid(R=2.0, nr=16, ntheta=1), StepControl())


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
    u0, phi = p.sample(g)
    u0 = u0[:, 0]
    from killingflow.flow import FlowState
    s0 = FlowState(t=0.0, u=u0, W=compute_W(euclid2, g, u0), step_count=0)
    s1 = step(s0, p, g, StepControl(), dt=1e-4, phi_row=phi)
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
        h = flow._cfl_dt(model, g, ctl, state.u) if dt is None else dt
        state = step(state, p, g, ctl, dt=h, phi_row=phi)
        worst = max(worst, lo - float(np.min(state.u)),
                    float(np.max(state.u)) - hi)
    return worst


@pytest.mark.parametrize("scheme", ["semi-implicit", "explicit-euler"])
@pytest.mark.parametrize("kind,n,ntheta", [
    *((kind, n, 1) for kind in ("euclidean", "hyperbolic")
      for n in (2, 3, 4, 6)),
    *((kind, 2, nt) for kind in ("euclidean", "hyperbolic")
      for nt in (16, 32))])
def test_tent_stays_within_its_data(kind, n, ntheta, scheme):
    # u0 = 0.1 max(0, 1 - 32 r), phi = 0: a stencil with a negative weight
    # next to the pole takes this below 0 (a lagged non-divergence stencil
    # did, by 1.7e-3 at n = 2 to 9.4e-3 at n = 6, on both grids)
    model = {"euclidean": euclidean_model,
             "hyperbolic": hyperbolic_model}[kind](n=n)
    g = Grid(R=1.0, nr=32, ntheta=ntheta)
    u0 = 0.1 * np.maximum(0.0, 1.0 - 32.0 * g.r)
    if not g.radial:
        u0 = np.repeat(u0[:, None], ntheta, axis=1)
    dt = 1e-4 if scheme == "semi-implicit" else None
    assert _excursion(model, g, u0, np.zeros(ntheta), scheme, 20, dt) == 0.0


@settings(max_examples=60, deadline=None)
@given(model_name=st.sampled_from(["euclid2", "hyp2", "euclid3", "hyp3"]),
       nr=st.integers(8, 20), ntheta=st.sampled_from([1, 8, 11]),
       scheme=st.sampled_from(["semi-implicit", "explicit-euler"]),
       dt=st.floats(1e-6, 1.0),
       data=arrays(float, (21, 11), elements=st.floats(-1.0, 1.0)))
def test_runs_stay_within_their_data(request, model_name, nr, ntheta, scheme,
                                     dt, data):
    # min(u0, phi) <= u <= max(u0, phi) to roundoff, for rough data, any
    # semi-implicit dt and the explicit step at its state limit; the banded
    # Cholesky factor of the scaled system has no positive off-diagonal
    # entry, so its substitutions keep signs (no excursion at all in 400
    # random cases with dt up to 1), and the bound leaves room for the
    # rounding of the scaled right-hand side m_j u_j
    model = request.getfixturevalue(model_name)
    if model.n != 2:
        ntheta = 1                  # the polar grid represents n = 2 only
    g = Grid(R=1.0, nr=nr, ntheta=ntheta)
    u0 = data[:nr + 1, :ntheta].copy()
    u0[0] = u0[0, 0]
    if g.radial:
        u0 = u0[:, 0]
    phi = np.atleast_1d(u0[-1]).copy()
    dt = dt if scheme == "semi-implicit" else None
    assert _excursion(model, g, u0, phi, scheme, 3, dt) <= 1e-12


# -- persistence -----------------------------------------------------------------


def _npy_bytes(table) -> bytes:
    buf = io.BytesIO()
    np.save(buf, table)
    return buf.getvalue()


@pytest.mark.parametrize("nr,ntheta", [(32, 1), (16, 8)],
                         ids=["radial", "polar"])
def test_snapshot_roundtrip_bit_exact(euclid2, tmp_path, nr, ntheta):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    tr = solve_ball(p, Grid(R=1.0, nr=nr, ntheta=ntheta), StepControl())
    state = tr.states[-1]
    path = tmp_path / "snap.npy"
    save_snapshot(str(path), tr.grid, state)
    # the on-disk format: a .npy table of little-endian float64 columns
    # t, r, theta, u, W, one row per node, theta varying fastest
    u = np.reshape(state.u, (nr + 1, ntheta))
    W = np.reshape(state.W, (nr + 1, ntheta))
    expected = np.array([(state.t, r, th, u[j, i], W[j, i])
                         for j, r in enumerate(tr.grid.r)
                         for i, th in enumerate(tr.grid.theta)], dtype="<f8")
    table = np.load(path, allow_pickle=False)
    assert table.dtype == np.dtype("<f8") and table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()
    assert path.read_bytes() == _npy_bytes(expected)
    back = load_snapshot(str(path), tr.grid)
    assert back.u.shape == np.shape(state.u)
    assert back.u.tobytes() == np.asarray(state.u).tobytes()
    assert back.W.tobytes() == np.asarray(state.W).tobytes()
    assert back.t == state.t


def test_save_snapshot_writes_exactly_its_path(tmp_path):
    # np.save appends ".npy" to a path that lacks it; save_snapshot must not
    from killingflow.flow import FlowState
    g = Grid(R=1.0, nr=8, ntheta=8)
    u = np.random.default_rng(1).standard_normal(g.shape())
    for name in ("snap.csv", "snap"):
        path = str(tmp_path / name)
        save_snapshot(path, g, FlowState(t=0.25, u=u, W=1.0 + u,
                                         step_count=1))
        assert load_snapshot(path, g).u.tobytes() == u.tobytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["snap", "snap.csv"]


def _set(table, k, column, value):
    table = table.copy()
    table[k, column] = value
    return table


def _csv_era(table):
    # what save_snapshot wrote before snapshots were .npy tables
    rows = ["t,r,theta,u,W\r\n"] + [",".join(map(repr, row)) + "\r\n"
                                     for row in table.tolist()]
    return "".join(rows).encode()


def _npz(table):
    buf = io.BytesIO()
    np.savez(buf, table=table)
    return buf.getvalue()


@pytest.mark.parametrize("edit", [
    lambda tab: _npy_bytes(tab[:-3]),
    lambda tab: _npy_bytes(np.vstack([tab, tab[-2:]])),
    lambda tab: _npy_bytes(_set(tab, 20, 1, 0.3)),
    lambda tab: _npy_bytes(_set(tab, 5, 2, 0.1)),
    lambda tab: _npy_bytes(tab[:, :4]),
    lambda tab: b"",
    lambda tab: _npy_bytes(tab)[:-8],
    lambda tab: _npy_bytes(tab.astype(object)),
    lambda tab: _npy_bytes(_set(tab, 7, 0, 0.25)),
    _csv_era,
    _npz,
    lambda tab: _npy_bytes(tab.ravel()),
    lambda tab: _npy_bytes(tab.astype(">f8")),
    lambda tab: _npy_bytes(tab.astype("<f4")),
], ids=["truncated", "extra_rows", "edited_r", "edited_theta", "short_row",
        "empty_file", "truncated_data", "object_array", "t_not_constant",
        "csv_era", "npz_archive", "one_dimensional", "big_endian",
        "float32"])
def test_load_snapshot_rejects_rows_off_the_grid(tmp_path, edit):
    from killingflow.flow import FlowState
    g = Grid(R=1.0, nr=8, ntheta=8)
    u = np.random.default_rng(0).standard_normal(g.shape())
    path = tmp_path / "snap.npy"
    save_snapshot(str(path), g, FlowState(t=0.5, u=u, W=1.0 + u, step_count=3))
    np.testing.assert_array_equal(load_snapshot(str(path), g).u, u)
    path.write_bytes(edit(np.load(path, allow_pickle=False)))
    with pytest.raises(FlowError, match=re.escape(str(path))):
        load_snapshot(str(path), g)


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


def test_save_run_writes_what_save_snapshot_writes(hyp2, tmp_path):
    # every snapshot file save_run writes is byte for byte what
    # save_snapshot writes for its state
    def phi(th):
        return 0.1 * np.cos(2 * th)

    def u0(r, th):
        return 0.1 * np.cos(2 * th) * r ** 2

    p = BallProblem(model=hyp2, R=1.0, phi=phi, u0=u0, T=0.01)
    tr = solve_ball(p, Grid(R=1.0, nr=12, ntheta=8), StepControl(dt_max=1e-3),
                    snapshot_every=4)
    assert len(tr.states) >= 3
    mpath = save_run(str(tmp_path / "run"), tr)
    with open(mpath) as fh:
        names = json.load(fh)["snapshots"]
    for name, state in zip(names, tr.states, strict=True):
        assert name.endswith(".npy")
        ref = tmp_path / "ref.npy"
        save_snapshot(str(ref), tr.grid, state)
        assert (tmp_path / "run" / name).read_bytes() == ref.read_bytes()


def test_model_hash_distinguishes_models(euclid2, hyp2, euclid3):
    hashes = {model_hash(m) for m in (euclid2, hyp2, euclid3)}
    assert len(hashes) == 3
    assert model_hash(euclid2) == model_hash(euclid2)
