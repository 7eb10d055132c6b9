import json
import math

import numpy as np
import pytest
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


def test_step_control_validation():
    assert StepControl().scheme == "semi-implicit"
    with pytest.raises(FlowError):
        StepControl(scheme="leapfrog")
    with pytest.raises(FlowError):
        StepControl(cfl=0.0)


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
        err = 0.0
        for j in np.flatnonzero((g.r >= 0.25) & (g.r <= 0.75)):
            for i, th in enumerate(g.theta):
                ref = pointwise_Q(model, _poly, float(g.r[j]), float(th))
                err = max(err, abs(float(q[j, i]) - ref))
        errs.append(err)
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

    dt = 0.99 * flow._cfl_dt(model, g, StepControl(cfl=cfl))
    p = BallProblem(model=model, R=1.0, phi=phi, u0=u0, T=300 * dt)
    a = solve_ball(p, g, StepControl(scheme="explicit-euler", cfl=cfl,
                                     dt_max=dt))
    b = solve_ball(p, g, StepControl(dt_max=dt))
    gap = float(np.max(np.abs(a.states[-1].u - b.states[-1].u)))
    assert gap < 1e-3


@pytest.mark.parametrize("model_name", ["euclid2", "hyp2"])
@pytest.mark.parametrize("nr,ntheta", [(24, 16), (32, 32)])
def test_implicit_matrix_matches_discretize_Q(model_name, nr, ntheta,
                                              request):
    # row j of I - dt L(u) is 1 + dt sum_k w_jk on the diagonal and -dt w_jk
    # off it, so at dt = 1 the residual u - A u is the explicit operator
    model = request.getfixturevalue(model_name)
    g = Grid(R=1.0, nr=nr, ntheta=ntheta)
    u = _poly(g.r[:, None], g.theta[None, :])
    A = flow._implicit_matrix(model, g, u, dt=1.0)
    lhs = (u.ravel() - A @ u.ravel()).reshape(g.shape())
    q = discretize_Q(model, g, u)
    assert abs(lhs[0, 0] - q[0, 0]) < 1e-10
    assert float(np.max(np.abs(lhs[1:-1] - q[1:-1]))) < 1e-10


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


def test_model_hash_distinguishes_models(euclid2, hyp2, euclid3):
    hashes = {model_hash(m) for m in (euclid2, hyp2, euclid3)}
    assert len(hashes) == 3
    assert model_hash(euclid2) == model_hash(euclid2)
