import json
import math

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
                              radial_second_fundamental_form, radial_solve,
                              save_run, save_snapshot,
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
       r0=st.sampled_from([0.0, 0.05]), stretch=st.floats(1.0, 2.0),
       fields=st.integers(1, 4).flatmap(lambda rows: arrays(
           float, (rows, 12), elements=st.floats(-2.0, 2.0))))
def test_radial_curvature_of_a_stack_is_rowwise(request, model_name, r0,
                                                stretch, fields):
    model = request.getfixturevalue(model_name)
    # nonuniform, increasing grid, with or without the pole
    r = r0 + np.linspace(0.0, 1.0, fields.shape[1]) ** stretch
    A2, nH = radial_second_fundamental_form(model, r, fields)
    for k, u in enumerate(fields):
        a2_row, nh_row = radial_second_fundamental_form(model, r, u)
        np.testing.assert_array_equal(A2[k], a2_row)
        np.testing.assert_array_equal(nH[k], nh_row)


def test_hemisphere_curvature(euclid2):
    g = Grid(R=1.0, nr=256, ntheta=1)
    u = np.sqrt(np.clip(1.0 - g.r ** 2, 0.0, None))
    A2, nH = second_fundamental_form(euclid2, g, u)
    mask = g.r <= 0.95
    assert float(np.max(np.abs(A2[mask] - 2.0))) < 1e-3
    assert float(np.max(np.abs(nH[mask] + 2.0))) < 1e-3


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
        arrays = [g.r, g.theta, *gf.at, *gf.op, gf.rho1, *gf.cells, gf.cos,
                  gf.sin]
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


def _implicit_csr(model, g, u, dt):
    # the reference system: I - dt L(u) in natural node order, as a CSR
    # matrix built from the step's entries and the stencil's index pattern
    m = u.size
    return sp.csr_matrix((flow._implicit_entries(model, g, u, dt),
                          flow._stencil(g.nr, g.ntheta)), shape=(m, m))


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


@pytest.mark.parametrize("nr,ntheta", [(8, 8), (9, 9), (16, 11), (33, 8),
                                       (40, 33)])
def test_band_layout_is_a_banded_permutation(nr, ntheta):
    pos, entry, kl, ku = flow._band_layout(nr, ntheta)
    n = (nr + 1) * ntheta
    assert np.array_equal(np.sort(pos), np.arange(n))
    rows, cols = flow._stencil(nr, ntheta)
    assert entry.size == rows.size
    assert np.unique(entry).size == entry.size       # no shared band slot
    # entry e stores A[pos[row], pos[col]] at band row kl + ku + p - q
    band_col, band_row = np.divmod(entry, 2 * kl + ku + 1)
    assert np.array_equal(band_col, pos[cols])
    assert np.array_equal(band_row, kl + ku + pos[rows] - pos[cols])
    assert np.all((band_row >= kl) & (band_row <= 2 * kl + ku))
    assert kl <= ntheta + 3 and ku <= ntheta + 3
    for arr in (pos, entry):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


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


def test_singular_banded_system_raises(euclid2, monkeypatch):
    g = Grid(R=1.0, nr=8, ntheta=8)
    u = np.zeros(g.shape())
    monkeypatch.setattr(flow, "_implicit_entries",
                        lambda model, grid, u, dt: np.zeros(
                            flow._stencil(grid.nr, grid.ntheta)[0].size))
    with pytest.raises(FlowError, match="dgbsv"):
        flow._polar_implicit(euclid2, g, u, 1e-3, np.zeros(8))


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
    # semi-implicit dt and the explicit step at its state limit; the band
    # LU's roundoff grows with the diagonal 1 + dt sum_k w_jk, a few
    # thousand at dt = 1 on these grids (1.2e-13 seen in 200 random cases)
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


@pytest.mark.parametrize("nr,ntheta", [(32, 1), (16, 8)],
                         ids=["radial", "polar"])
def test_snapshot_roundtrip_bit_exact(euclid2, tmp_path, nr, ntheta):
    p = BallProblem(model=euclid2, R=1.0, phi=_zero_phi, u0=_bump, T=0.01)
    tr = solve_ball(p, Grid(R=1.0, nr=nr, ntheta=ntheta), StepControl())
    state = tr.states[-1]
    path = str(tmp_path / "snap.csv")
    save_snapshot(path, tr.grid, state)
    # the on-disk format: a header, then one CRLF-terminated row of repr
    # values per node, theta varying fastest
    u = np.reshape(state.u, (nr + 1, ntheta))
    W = np.reshape(state.W, (nr + 1, ntheta))
    expected = ["t,r,theta,u,W\r\n"] + [
        ",".join(repr(float(x)) for x in (state.t, r, th, u[j, i], W[j, i]))
        + "\r\n"
        for j, r in enumerate(tr.grid.r) for i, th in enumerate(tr.grid.theta)]
    with open(path, newline="") as fh:
        assert fh.read() == "".join(expected)
    back = load_snapshot(path, tr.grid)
    np.testing.assert_array_equal(back.u, state.u)
    np.testing.assert_array_equal(back.W, state.W)
    assert back.t == state.t


def _edit_line(lines, k, column, value):
    fields = lines[k].split(",")
    fields[column] = value
    return lines[:k] + [",".join(fields)] + lines[k + 1:]


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-3],
    lambda lines: lines + lines[-2:],
    lambda lines: _edit_line(lines, 20, 1, "0.3"),
    lambda lines: _edit_line(lines, 5, 2, "0.1"),
    lambda lines: lines[:7] + [lines[7].rsplit(",", 1)[0]] + lines[8:],
], ids=["truncated", "extra_rows", "edited_r", "edited_theta", "short_row"])
def test_load_snapshot_rejects_rows_off_the_grid(tmp_path, edit):
    from killingflow.flow import FlowState
    g = Grid(R=1.0, nr=8, ntheta=8)
    u = np.random.default_rng(0).standard_normal(g.shape())
    path = str(tmp_path / "snap.csv")
    save_snapshot(path, g, FlowState(t=0.5, u=u, W=1.0 + u, step_count=3))
    np.testing.assert_array_equal(load_snapshot(path, g).u, u)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    with pytest.raises(FlowError):
        load_snapshot(path, g)


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
    # save_run formats the node text once per run; every snapshot file
    # must still be byte for byte what save_snapshot writes for its state
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
        ref = tmp_path / "ref.csv"
        save_snapshot(str(ref), tr.grid, state)
        assert (tmp_path / "run" / name).read_bytes() == ref.read_bytes()


def test_model_hash_distinguishes_models(euclid2, hyp2, euclid3):
    hashes = {model_hash(m) for m in (euclid2, hyp2, euclid3)}
    assert len(hashes) == 3
    assert model_hash(euclid2) == model_hash(euclid2)
