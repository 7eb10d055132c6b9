"""The 2-D and radial steps and the diagnostics against reference formulas.

The references below are the plain numpy forms of the weights, the band
fill, the slopes and the curvatures: (rows, 1) factor columns broadcast
along theta, theta neighbours made by concatenation, every expression
written out whole; on the radial grid, slopes by np.diff, zero ends by
np.concatenate, a np.zeros band and the Dirichlet value by np.append.
The solver computes the same IEEE operations in the same order on
contiguous per-grid fields and in place, so every array must match them
bit for bit.  The supersolution check, which samples every time slice
as one table and applies the radial operator to the stack of slices, is
checked against its per-slice form, one sample_vR and one radial_Q call
per slice.  The last part checks what in-place arithmetic could break:
no input is written to, and nothing a caller gets back shares memory
with another run's arrays.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from killingflow import barriers, cmc, flow
from killingflow.flow import (BallProblem, FlowState, Grid, StepControl,
                              compute_W, discretize_Q, second_fundamental_form,
                              solve_ball, step)

# (nr, ntheta, R): odd and even ntheta, ntheta = 8 (64-byte rows), and the
# ladder's top rung
GRIDS = [(8, 8, 1.0), (9, 9, 1.0), (16, 11, 1.0), (40, 33, 1.0),
         (136, 16, 17.0)]


def _shift(u):
    """u at theta_{i+1} and at theta_{i-1}."""
    return (np.concatenate((u[..., 1:], u[..., :1]), axis=-1),
            np.concatenate((u[..., -1:], u[..., :-1]), axis=-1))


def _ref_weights(gf, grid, u):
    c, f = gf.cells, gf.op
    k = grid.dtheta
    dr = c.dr[:, None]
    s = np.diff(u, axis=0) / dr
    up, um = _shift(u)
    ct = (up - um) / (2.0 * k)
    cross = 0.5 * (ct[:-1] + ct[1:])
    g_r = c.cond[:, None] / np.sqrt(c.inv_rho2_f[:, None] + s * s
                                    + cross * cross * c.inv_xi2_f[:, None])
    st = (_shift(u[1:-1])[0] - u[1:-1]) / k
    cr = (u[2:] - u[:-2]) / (dr[1:] + dr[:-1])
    cross = 0.5 * (cr + _shift(cr)[0])
    inv_rho2 = c.inv_rho2[1:-1, None]
    g_t = (grid.hr / (k * k)) * f.rho / (
        f.xi * np.sqrt(inv_rho2 + cross * cross + st * st * f.inv_xi2))
    m = c.dV[1:-1, None] / np.sqrt(
        inv_rho2 + np.maximum(s[:-1] * s[1:], 0.0)
        + np.maximum(_shift(st)[1] * st, 0.0) * f.inv_xi2)
    nt = grid.ntheta
    a = 2.0 * (np.add.reduce(u[1] * gf.cos, axis=-1) / nt) / grid.hr
    b = 2.0 * (np.add.reduce(u[1] * gf.sin, axis=-1) / nt) / grid.hr
    m0 = nt * c.dV[0] / math.sqrt(c.inv_rho2[0] + a * a + b * b)
    return g_r, g_t, m, m0


def _ref_system(gf, grid, u, dt, phi_row):
    """(band, rhs) of the scaled system S."""
    nr, nt = grid.nr, grid.ntheta
    w_r, w_t, m, m0 = _ref_weights(gf, grid, u)
    g_r, g_t = dt * w_r, dt * w_t
    band = np.zeros((1 + (nr - 1) * nt, nt + 1))
    rings = band[1:].reshape(nr - 1, nt, nt + 1)
    rings[:, :, 0] = m + g_r[1:] + g_r[:-1] + g_t + _shift(g_t)[1]
    rings[:, :-1, 1] = -g_t[:, :-1]
    rings[:, 0, nt - 1] = -g_t[:, -1]
    rings[:-1, :, nt] = -g_r[1:-1]
    band[0, 0] = m0 + np.sum(g_r[0])
    band[0, 1:] = -g_r[0]
    rhs = np.concatenate(([m0 * u[0, 0]], (m * u[1:-1]).ravel()))
    rhs[-nt:] += g_r[-1] * phi_row
    return band, rhs


def _ref_step(gf, grid, u, dt, phi_row):
    nr, nt = grid.nr, grid.ntheta
    band, rhs = _ref_system(gf, grid, u, dt, phi_row)
    x = flow._band_solve(band, rhs)
    return np.vstack((np.full(nt, x[0]), x[1:].reshape(nr - 1, nt), phi_row))


def _ref_diagnose(gf, grid, U):
    """(W, max|grad u|, max|A|) of a stack U of 2-D states."""
    h, f, k = grid.hr, gf.op, grid.dtheta
    nt = grid.ntheta
    ur = np.empty_like(U)
    ur[..., 1:-1, :] = (U[..., 2:, :] - U[..., :-2, :]) / (2 * h)
    ur[..., -1, :] = (3 * U[..., -1, :] - 4 * U[..., -2, :]
                      + U[..., -3, :]) / (2 * h)
    ring = U[..., 1, :]
    a = (2.0 * (np.add.reduce(ring * gf.cos, axis=-1) / nt) / h)[..., None]
    b = (2.0 * (np.add.reduce(ring * gf.sin, axis=-1) / nt) / h)[..., None]
    ur[..., 0, :] = a * gf.cos + b * gf.sin
    vt = np.empty_like(U)
    vt[..., 0, :] = b * gf.cos - a * gf.sin
    up, um = _shift(U[..., 1:, :])
    vt[..., 1:, :] = (up - um) / (2.0 * k) / gf.at.xi[1:, None]
    W = np.sqrt(1.0 / gf.at.rho[:, None] ** 2 + (ur ** 2 + vt ** 2))
    p, w, q = ur[..., 1:-1, :], W[..., 1:-1, :], vt[..., 1:-1, :]
    urr = (U[..., 2:, :] - 2 * U[..., 1:-1, :] + U[..., :-2, :]) / (h * h)
    ut = gf.at.xi[:, None] * vt
    urt = (ut[..., 2:, :] - ut[..., :-2, :]) / (2 * h) / f.xi
    up, um = _shift(U[..., 1:-1, :])
    utt = (up - 2 * U[..., 1:-1, :] + um) / k ** 2 * f.inv_xi2
    rp, rq = f.rho * p, f.rho * q
    b11 = urr + (2.0 + rp * rp) * f.lrho * p
    b12 = urt + ((1.0 + rp * rp) * f.lrho - f.xi_ratio) * q
    b22 = utt + (rq * rq * f.lrho + f.xi_ratio) * p
    det = (f.rho * w) ** 2
    nH = ((1.0 + rq * rq) * b11 - 2.0 * rp * rq * b12
          + (1.0 + rp * rp) * b22) / (det * w)
    A2 = nH * nH - 2.0 * (b11 * b22 - b12 * b12) / (det * w * w)
    return (W, np.sqrt(np.max(ur * ur + vt * vt, axis=(-2, -1))),
            np.sqrt(np.max(A2, axis=(-2, -1))))


def _state(grid, seed):
    """A field with the shape of a state: smooth, roughened, one value on
    the pole row and phi on the rim."""
    rng = np.random.default_rng(seed)
    r, th = grid.r[:, None] / grid.R, grid.theta[None, :]
    u = (0.2 + 0.3 * r * np.cos(th) - 0.2 * r ** 2 * np.sin(2 * th)
         + 0.05 * rng.standard_normal(grid.shape()))
    u[0] = u[0, 0]
    return u


def _phi(grid):
    return 0.1 * np.cos(grid.theta) + 0.2


@pytest.fixture(params=GRIDS, ids=[f"{nr}x{nt}" for nr, nt, _ in GRIDS])
def grid(request):
    nr, nt, R = request.param
    return Grid(R=R, nr=nr, ntheta=nt)


@pytest.fixture(params=["euclid2", "hyp2"])
def model(request):
    return request.getfixturevalue(request.param)


def test_weights_are_bit_identical(model, grid):
    fd = flow._Fields(model, grid)
    u = _state(grid, 1)
    got = flow._polar_weights(fd, u)
    for a, b in zip(got, _ref_weights(fd.gf, grid, u)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dt", [1e-3, 1.0])
def test_band_rhs_and_new_field_are_bit_identical(model, grid, dt,
                                                  monkeypatch):
    fd = flow._Fields(model, grid)
    u, phi = _state(grid, 2), _phi(grid)
    seen = []
    solve = flow._band_solve

    def capture(band, rhs):
        seen.append((band.copy(), rhs.copy()))
        return solve(band, rhs)

    monkeypatch.setattr(flow, "_band_solve", capture)
    u_new = flow._polar_implicit(fd, u, dt, phi)
    (band, rhs), = seen
    ref_band, ref_rhs = _ref_system(fd.gf, grid, u, dt, phi)
    assert np.array_equal(band, ref_band)
    assert np.array_equal(rhs, ref_rhs)
    assert np.array_equal(u_new, _ref_step(fd.gf, grid, u, dt, phi))


@pytest.mark.parametrize("S", [1, 3, 5])
def test_diagnose_is_bit_identical(model, grid, S):
    fd = flow._Fields(model, grid)
    U = np.stack([_state(grid, 10 + k) for k in range(S)])
    for a, b in zip(flow._diagnose(fd, U), _ref_diagnose(fd.gf, grid, U)):
        assert np.array_equal(a, b)


# -- the radial grid -------------------------------------------------------------


def _ref_radial_weights(c, u):
    """(g, m) of the radial operator at the 1-d field u."""
    s = np.diff(u) / c.dr
    g = c.cond / np.sqrt(c.inv_rho2_f + s * s)
    s = np.concatenate(([0.0], s, [0.0]))
    return g, c.dV / np.sqrt(c.inv_rho2 + np.maximum(s[:-1] * s[1:], 0.0))


def _ref_radial_apply(g, m, u):
    flux = np.concatenate(([0.0], g * np.diff(u), [0.0]))
    return np.diff(flux) / m


def _ref_radial_system(c, v, dt, phi0):
    """(band, rhs) of the scaled tridiagonal system S."""
    g, m = _ref_radial_weights(c, v)
    g = dt * g
    band = np.zeros((v.size - 1, 2))
    band[:, 0] = m[:-1] + g
    band[1:, 0] += g[:-1]
    band[:-1, 1] = -g[:-1]
    rhs = m[:-1] * v[:-1]
    rhs[-1] += g[-1] * phi0
    return band, rhs


def _ref_radial_step(c, v, dt, phi0):
    return np.append(flow._band_solve(*_ref_radial_system(c, v, dt, phi0)),
                     phi0)


def _graded_radial(R, nr):
    """A radial grid whose gaps grow by 5% from the pole out to R."""
    r = np.concatenate(([0.0], np.cumsum(1.05 ** np.arange(nr))))
    nodes = r * (R / r[-1])
    nodes[-1] = R
    return Grid(R=R, nr=nr, ntheta=1, nodes=tuple(nodes))


RADIAL_GRIDS = {"8": Grid(R=1.0, nr=8, ntheta=1),
                "9": Grid(R=1.0, nr=9, ntheta=1),
                "128": Grid(R=1.0, nr=128, ntheta=1),
                "graded40": _graded_radial(1.5, 40)}


@pytest.fixture(params=list(RADIAL_GRIDS))
def radial_grid(request):
    return RADIAL_GRIDS[request.param]


@pytest.fixture(params=["euclid2", "euclid3", "hyp2"])
def radial_model(request):
    return request.getfixturevalue(request.param)


def _radial_u0(R):
    """Radial data that rises and falls, so that adjacent face slopes have
    both signs, and is 0.1 at the rim."""
    return lambda r, th: (0.1 + (1.0 - (r / R) ** 2)
                          * (0.3 + 0.05 * np.sin(9.0 * r / R))
                          * np.ones_like(th))


def _radial_state(grid, seed):
    rng = np.random.default_rng(seed)
    u = _radial_u0(grid.R)(grid.r, 0.0) + 0.02 * rng.standard_normal(
        grid.nr + 1)
    u[-1] = 0.1
    return u


def test_radial_weights_are_bit_identical(radial_model, radial_grid):
    fd = flow._Fields(radial_model, radial_grid)
    u = _radial_state(radial_grid, 20)
    ref = _ref_radial_weights(fd.gf.cells, u)
    for got in (flow._radial_weights(fd.gf.cells, u),
                flow._weights(fd, u[:, None])):
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_radial_operator_is_bit_identical(radial_model, radial_grid):
    fd = flow._Fields(radial_model, radial_grid)
    u = _radial_state(radial_grid, 21)
    ref = _ref_radial_apply(*_ref_radial_weights(fd.gf.cells, u), u)
    w = flow._radial_weights(fd.gf.cells, u)
    assert np.array_equal(flow._apply(w, u), ref)
    Q = discretize_Q(radial_model, radial_grid, u[:, None])
    assert Q.shape == (radial_grid.nr + 1, 1)
    assert np.array_equal(Q[:, 0], ref)
    if radial_grid.nodes is None:
        assert np.array_equal(
            flow.radial_Q(radial_model, radial_grid.r, u), ref)


@pytest.mark.parametrize("dt", [1e-3, 1.0])
def test_radial_band_rhs_and_new_field_are_bit_identical(
        radial_model, radial_grid, dt, monkeypatch):
    fd = flow._Fields(radial_model, radial_grid)
    u = _radial_state(radial_grid, 22)
    seen = []
    solve = flow._band_solve

    def capture(band, rhs):
        seen.append((band.copy(), rhs.copy()))
        return solve(band, rhs)

    monkeypatch.setattr(flow, "_band_solve", capture)
    v_new = flow._radial_implicit(fd, u, dt, 0.1)
    (band, rhs), = seen
    ref_band, ref_rhs = _ref_radial_system(fd.gf.cells, u, dt, 0.1)
    assert np.array_equal(band, ref_band)
    assert np.array_equal(rhs, ref_rhs)
    monkeypatch.setattr(flow, "_band_solve", solve)
    assert np.array_equal(v_new,
                          _ref_radial_step(fd.gf.cells, u, dt, 0.1))


@pytest.mark.parametrize("scheme", ["semi-implicit", "explicit-euler"])
def test_radial_solve_is_bit_identical(radial_model, radial_grid, scheme):
    # every state of a run against the reference steps, diagnosed by one
    # _diagnose of the whole reference stack
    grid = radial_grid
    h = float(np.min(np.diff(grid.r)))
    dt = 2e-3 if scheme == "semi-implicit" else 0.05 * h * h
    n_steps = 12
    p = BallProblem(model=radial_model, R=grid.R, phi=lambda th: 0.1 + 0 * th,
                    u0=_radial_u0(grid.R), T=n_steps * dt)
    control = StepControl(scheme=scheme, dt_max=dt)
    tr = (solve_ball(p, grid, control, snapshot_every=1)
          if grid.nodes is not None
          else flow.radial_solve(p, grid.nr, control, snapshot_every=1))
    fd = flow._Fields(radial_model, grid)
    c = fd.gf.cells
    n_steps = tr.times.size - 1         # 12, or 13 where T / dt rounds up
    dt = p.T / n_steps
    us = [p.sample(grid)[0][:, 0]]
    for _ in range(n_steps):
        v = us[-1]
        if scheme == "semi-implicit":
            v_new = _ref_radial_step(c, v, dt, 0.1)
        else:
            v_new = v + dt * _ref_radial_apply(*_ref_radial_weights(c, v), v)
            v_new[-1] = 0.1
        us.append(v_new)
    W, max_grad, max_A = flow._diagnose(fd, np.stack(us)[:, :, None])
    assert n_steps in (12, 13) and len(tr.states) == n_steps + 1
    for k, s in enumerate(tr.states):
        assert s.step_count == k
        assert np.array_equal(s.u, us[k])
        assert np.array_equal(s.W, W[k, :, 0])
    assert np.array_equal(tr.max_grad, max_grad)
    assert np.array_equal(tr.max_A, max_A)


def _radial_stack(grid, seeds):
    return np.stack([_radial_state(grid, seed) for seed in seeds])


def test_radial_operator_on_a_stack_is_bit_identical(radial_model,
                                                     radial_grid):
    # one call on a stack of fields, nodes along the last axis, is one call
    # per field
    U = _radial_stack(radial_grid, range(30, 36))
    rows = [discretize_Q(radial_model, radial_grid, u) for u in U]
    for V in (U, U.reshape(2, 3, -1)):
        Q = discretize_Q(radial_model, radial_grid, V)
        assert Q.shape == V.shape
        assert np.array_equal(Q.reshape(U.shape), np.stack(rows))
    # grid-shaped fields, (S, nr + 1, 1), stack the same way
    assert np.array_equal(
        discretize_Q(radial_model, radial_grid, U[:, :, None])[:, :, 0],
        np.stack(rows))
    if radial_grid.nodes is None:
        Q = flow.radial_Q(radial_model, radial_grid.r, U)
        assert np.array_equal(Q, np.stack(
            [flow.radial_Q(radial_model, radial_grid.r, u) for u in U]))
        assert np.array_equal(Q, np.stack(rows))


def test_a_grid_shaped_radial_field_is_one_field(radial_model, radial_grid):
    # a (nr + 1, 1) state, which the explicit step passes, is one field of
    # nr + 1 nodes, not nr + 1 fields of one node
    fd = flow._Fields(radial_model, radial_grid)
    u = _radial_state(radial_grid, 37)
    for a, b in zip(flow._weights(fd, u[:, None]), flow._weights(fd, u)):
        assert a.ndim == 1 and np.array_equal(a, b)
    Q = discretize_Q(radial_model, radial_grid, u[:, None])
    assert Q.shape == (radial_grid.nr + 1, 1)
    assert np.array_equal(Q[:, 0], discretize_Q(radial_model, radial_grid, u))
    control = StepControl(scheme="explicit-euler", dt_max=1e-6)
    v = flow._advance(fd, u[:, None], control, 1e-6, np.array([0.1]))
    ref = u + 1e-6 * _ref_radial_apply(*_ref_radial_weights(fd.gf.cells, u),
                                       u)
    ref[-1] = 0.1
    assert v.shape == (radial_grid.nr + 1, 1)
    assert np.array_equal(v[:, 0], ref)


# -- the supersolution check ----------------------------------------------------


def _samp_tol(model):
    return min(1e-8, model.quad_tol * 1e2)


def _ref_heights(model, rims, r_grid):
    """One sample_vR per rim, as verify_supersolution sampled its slices."""
    return np.array([cmc.sample_vR(model, float(R), r_grid,
                                   tol=_samp_tol(model)) for R in rims])


def _ref_verify_supersolution(model, r0, t_grid, r_grid, u=None):
    """verify_supersolution one time slice at a time: a sample_vR and a
    radial_Q call per slice, and the minimum of the slices' minima; u, if
    given, is the slices' table of heights."""
    if u is None:
        u = _ref_heights(model, barriers.SupersolutionFlow(model, r0).R_of_t(
            t_grid), r_grid)
    ut = np.gradient(u, t_grid, axis=0)
    worst = math.inf
    for a in range(1, t_grid.size - 1):
        res = ut[a] + flow.radial_Q(model, r_grid, u[a])
        worst = min(worst, float(np.min(res[2:-2])))
    return worst


def _verify(model, r0, t_grid, r_grid):
    return barriers.verify_supersolution(
        model, r0, t_grid, r_grid, lambda r, u: flow.radial_Q(model, r, u))


@pytest.mark.parametrize("size", [64, 256])
@pytest.mark.parametrize("model_name",
                         ["euclid2", "euclid3", "hyp2", "hyp3", "sinh2"])
def test_supersolution_check_is_bit_identical(request, model_name, size):
    # the built-in pairs fill the table of heights in closed form, sinh2 by
    # one quadrature per rim; 256 x 256 is acceptance criterion 3's grid
    model = request.getfixturevalue(model_name)
    t_grid, r_grid = np.linspace(0.0, 0.5, size), np.linspace(0.0, 1.0, size)
    rims = barriers.SupersolutionFlow(model, 1.0).R_of_t(t_grid)
    ref = _ref_heights(model, rims, r_grid)
    assert np.array_equal(
        cmc._sample_rims(model, rims, r_grid, _samp_tol(model)), ref)
    assert _verify(model, 1.0, t_grid, r_grid) \
        == _ref_verify_supersolution(model, 1.0, t_grid, r_grid, ref)


@pytest.mark.parametrize("model_name", ["euclid2", "hyp3", "sinh2"])
def test_nodes_past_the_rim_read_zero(request, model_name):
    # r_grid reaches past R(t) = sqrt(1 + 2 n t) <= 1.5 (E2) and 1.41 (H3):
    # those nodes read 0, a rim on a node included, with no numpy warning
    model = request.getfixturevalue(model_name)
    t_grid, r_grid = np.linspace(0.0, 0.5, 64), np.linspace(0.0, 3.0, 64)
    rims = barriers.SupersolutionFlow(model, 1.0).R_of_t(t_grid)
    rims[5] = r_grid[30]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = cmc._sample_rims(model, rims, r_grid, _samp_tol(model))
        res = _verify(model, 1.0, t_grid, r_grid)
        assert res == _ref_verify_supersolution(model, 1.0, t_grid, r_grid)
    assert np.array_equal(u, _ref_heights(model, rims, r_grid))
    past = r_grid >= rims[:, None]
    assert past[:, -1].all() and past[5, 30] and not past[5, 29]
    assert np.all(u[past] == 0.0) and np.all(u[~past] > 0.0)


@pytest.mark.parametrize("model_name,rims", [
    ("euclid2", [1.0, 2.0, 2e154, 3e154, 1e155]),
    ("hyp2", [1.0, 354.0, 356.0, 400.0, 720.0]),
    ("sinh2", [1.0, 2.0, 710.2, 720.0])])
def test_a_rim_past_the_overflow_of_A_names_the_first(request, model_name,
                                                      rims):
    # the table raises the CmcError of the first rim that sample_vR refuses
    model = request.getfixturevalue(model_name)
    r_grid = np.linspace(0.0, 1.0, 8)
    with pytest.raises(cmc.CmcError) as ref:
        _ref_heights(model, rims, r_grid)
    with pytest.raises(cmc.CmcError) as got:
        cmc._sample_rims(model, np.array(rims), r_grid, _samp_tol(model))
    assert str(got.value) == str(ref.value)
    assert f"R={rims[2]:g} " in str(got.value)


def test_a_supersolution_past_the_overflow_raises_the_per_slice_error(
        hyp2, monkeypatch):
    # R_of_t refuses a time whose rim lies past the overflow of A (R = 355
    # on H2) with BarrierError, so a schedule about as fast as H2's, R = 1 +
    # 2t, stands in for it: it passes the overflow from slice 56 (R = 356.6)
    t_grid, r_grid = np.linspace(0.0, 200.0, 64), np.linspace(0.0, 1.0, 64)
    with pytest.raises(barriers.BarrierError, match="overflows"):
        barriers.SupersolutionFlow(hyp2, 1.0).R_of_t(t_grid)
    monkeypatch.setattr(barriers.SupersolutionFlow, "R_of_t",
                        lambda self, t: 1.0 + 2.0 * t)
    first = next(R for R in 1.0 + 2.0 * t_grid if not hyp2._finite_at(R))
    with pytest.raises(cmc.CmcError) as ref:
        _ref_verify_supersolution(hyp2, 1.0, t_grid, r_grid)
    with pytest.raises(cmc.CmcError) as got:
        _verify(hyp2, 1.0, t_grid, r_grid)
    assert str(got.value) == str(ref.value)
    assert f"R={first:g} " in str(got.value)


# -- aliasing -----------------------------------------------------------------


def _read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("scheme", ["semi-implicit", "explicit-euler"])
def test_step_and_diagnostics_leave_read_only_inputs_alone(hyp2, scheme):
    grid = Grid(R=1.0, nr=16, ntheta=8)
    fd = flow._Fields(hyp2, grid)
    u, phi = _read_only(_state(grid, 3)), _read_only(_phi(grid))
    U = _read_only(np.stack([_state(grid, 4 + k) for k in range(3)]))
    copies = [a.copy() for a in (u, phi, U)]
    dt = 1e-4
    control = StepControl(scheme=scheme, cfl=1.0, dt_max=dt)
    u_new = flow._advance(fd, u, control, dt, phi)
    W, _, _ = flow._diagnose(fd, U)
    compute_W(hyp2, grid, u)
    second_fundamental_form(hyp2, grid, u)
    discretize_Q(hyp2, grid, u)
    state = FlowState(t=0.0, u=u, W=_read_only(compute_W(hyp2, grid, u)),
                      step_count=0)
    p = BallProblem(model=hyp2, R=1.0, phi=lambda th: phi, u0=lambda r, th: u)
    after = step(state, p, grid, control, dt=dt)
    for a, b in zip((u, phi, U), copies):
        assert np.array_equal(a, b)
    for out in (u_new, W, after.u, after.W):
        assert out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in (u, phi, U))


@pytest.mark.parametrize("layout", ["fortran", "strided view"])
def test_any_memory_layout_of_u_gives_the_same_bits(hyp2, layout):
    # the in-place kernels write into arrays of their own, never into one
    # laid out like the caller's u
    grid = Grid(R=1.0, nr=16, ntheta=11)
    u = _state(grid, 5)
    v = (np.asfortranarray(u) if layout == "fortran"
         else np.repeat(u, 2, axis=1)[:, ::2])
    assert not v.flags.c_contiguous and np.array_equal(v, u)
    assert np.array_equal(discretize_Q(hyp2, grid, v),
                          discretize_Q(hyp2, grid, u))
    assert np.array_equal(compute_W(hyp2, grid, v), compute_W(hyp2, grid, u))
    for a, b in zip(second_fundamental_form(hyp2, grid, v),
                    second_fundamental_form(hyp2, grid, u)):
        assert np.array_equal(a, b)
    p = BallProblem(model=hyp2, R=1.0, phi=lambda th: u[-1],
                    u0=lambda r, th: u)
    W = compute_W(hyp2, grid, u)
    for scheme in ("semi-implicit", "explicit-euler"):
        control = StepControl(scheme=scheme, dt_max=1e-6)
        a, b = (step(FlowState(t=0.0, u=x, W=W, step_count=0), p, grid,
                     control) for x in (v, u))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.W, b.W)
        assert (a.max_grad, a.max_A) == (b.max_grad, b.max_A)


def test_run_fields_are_read_only_and_not_returned(euclid2):
    grid = Grid(R=1.0, nr=16, ntheta=8)
    p = BallProblem(model=euclid2, R=1.0, phi=lambda th: 0.1 * np.cos(th),
                    u0=lambda r, th: 0.1 * np.cos(th) * r, T=4e-3)
    fd = flow._Fields(euclid2, grid)
    fields = [a for a in vars(fd).values() if isinstance(a, np.ndarray)]
    assert len(fields) == 14
    for a in fields:
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    tr = solve_ball(p, grid, StepControl(dt_max=1e-3), snapshot_every=1)
    arrays = [a for s in tr.states for a in (s.u, s.W)]
    for i, a in enumerate(arrays):
        assert a.flags.writeable and a.base is None
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_alternating_grids_step_like_fresh_runs(hyp2):
    # two runs' fields alive at once, their steps interleaved: each run's
    # states equal its run alone, bit for bit
    grids = [Grid(R=1.0, nr=24, ntheta=16), Grid(R=1.0, nr=16, ntheta=11)]
    p = BallProblem(model=hyp2, R=1.0, phi=lambda th: 0.1 * np.cos(th),
                    u0=lambda r, th: 0.1 * np.cos(th) * r, T=5e-3)
    control = StepControl(dt_max=1e-3)
    fresh = [solve_ball(p, g, control, snapshot_every=1) for g in grids]
    fds = [flow._Fields(hyp2, g) for g in grids]
    us = [p.sample(g)[0] for g in grids]
    phis = [p.sample(g)[1] for g in grids]
    dt = p.T / (fresh[0].times.size - 1)
    for k in range(1, fresh[0].times.size):
        for i in (k % 2, 1 - k % 2):
            us[i] = flow._advance(fds[i], us[i], control, dt, phis[i])
            s, = flow._diagnosed(fds[i], [(0.0, us[i], k)])
            ref = fresh[i].states[k]
            assert np.array_equal(s.u, ref.u) and np.array_equal(s.W, ref.W)
            assert (s.max_grad, s.max_A) == (ref.max_grad, ref.max_A)


# -- conjugate gradients ----------------------------------------------------

# (rings, ntheta) of the conjugate-gradient systems: disk2d's 64 x 48, an
# odd ntheta (no Nyquist mode) and disk2d's 96 x 64 with 95 + 1 rows
CG_SHAPES = [(47, 48), (63, 49), (96, 64)]


def _cg_system(model, rings, nt, dt, seed, monkeypatch):
    """(d, d0, g_r, g_t, b, s1, scale): what ``_polar_implicit`` hands the
    conjugate gradients on a grid of rings + 1 rows and nt columns."""
    grid = Grid(R=1.0, nr=rings + 1, ntheta=nt)
    fd = flow._Fields(model, grid)
    seen = []

    def capture(d, d0, g_r, g_t, precondition, b, s1, scale):
        seen.append((d, d0, g_r, g_t, b.copy(), s1, scale))
        return b

    monkeypatch.setattr(flow, "_conjugate_gradients", capture)
    flow._polar_implicit(fd, _state(grid, seed), dt, _phi(grid))
    monkeypatch.undo()
    system, = seen
    assert system[0].shape == (rings, nt)
    return system


def _ref_preconditioner(d, d0, g_r, g_t):
    """The theta-mean preconditioner with the modes as two real columns:
    the rfft of each ring along theta, the modes' real and imaginary parts
    transposed into the two Fortran-order columns dpttrs solves, and
    transposed back."""
    from scipy.linalg.lapack import dpttrf, dpttrs
    rings, nt = d.shape
    K = nt // 2 + 1
    jacobi = 1.0 / np.sqrt(np.concatenate(([d0], d.ravel())))
    s = jacobi[1:].reshape(rings, nt)
    g = np.concatenate(([jacobi[0] * np.add.reduce(g_r[0] * s[0])],
                        np.add.reduce(g_r[1:-1] * s[:-1] * s[1:], axis=1)))
    g = g / nt
    gt = np.add.reduce(s * _shift(s)[0] * g_t, axis=1) * (-2.0 / nt)
    modes = np.multiply.outer(np.cos(np.arange(K) * (2.0 * math.pi / nt)),
                              gt) + 1.0
    links = np.zeros((K, rings))
    links[:, :-1] = -g[1:]
    diag, e, info = dpttrf(np.concatenate(([1.0 / nt], modes.ravel())),
                           np.concatenate(([-g[0]], links.ravel()[:-1])))
    assert info == 0

    def solve(r, out):
        rs = r * jacobi
        f = np.fft.rfft(rs[1:].reshape(rings, nt), axis=1)
        b = np.empty((diag.size, 2), order="F")
        b[0] = rs[0], 0.0
        b[1:, 0] = f.real.T.ravel()
        b[1:, 1] = f.imag.T.ravel()
        x, info = dpttrs(diag, e, b)
        assert info == 0
        f = np.empty((K, rings), dtype=complex)
        f.real, f.imag = x[1:, 0].reshape(K, rings), x[1:, 1].reshape(K, rings)
        z = np.fft.irfft(f.T, n=nt, axis=1)
        out[:] = np.concatenate(([x[0, 0] / nt], z.ravel())) * jacobi
        return out

    return solve


def _ref_apply(d, d0, g_r, g_t, v):
    """S v from shifted copies."""
    V = v[1:].reshape(d.shape)
    up, um = _shift(V)
    Y = d * V - up * g_t - um * _shift(g_t)[1]
    Y[:-1] -= g_r[1:-1] * V[1:]
    Y[1:] -= g_r[1:-1] * V[:-1]
    Y[0] -= g_r[0] * v[0]
    return np.concatenate(([d0 * v[0] - np.add.reduce(g_r[0] * V[0])],
                           Y.ravel()))


def _ref_conjugate_gradients(d, d0, g_r, g_t, precondition, b, s1, scale,
                             max_iter=flow._CG_MAX_ITER):
    """Conjugate gradients that precondition every new residual before
    they test its error bound, so that the last solve goes unused."""
    x = b / s1
    r = b - _ref_apply(d, d0, g_r, g_t, x)
    z = precondition(r, np.empty(b.shape))
    p = z.copy()
    rz = np.add.reduce(r * z)
    stop = flow._CG_RTOL * scale
    for iteration in range(max_iter + 1):
        bound = float(np.max(np.abs(r) / s1))
        if not bound > stop:
            return x
        if iteration == max_iter:
            raise flow.FlowError(f"conjugate gradient solve failed: no "
                                 f"convergence in {max_iter} iterations "
                                 f"(error bound {bound:.3e} > {stop:.3e})")
        q = _ref_apply(d, d0, g_r, g_t, p)
        pq = np.add.reduce(p * q)
        if pq <= 0.0:
            raise flow.FlowError(f"conjugate gradient solve failed: the "
                                 f"system is not positive definite "
                                 f"(p.Sp = {pq:.3e})")
        alpha = rz / pq
        x = x + alpha * p
        r = r - alpha * q
        z = precondition(r, z)
        rz, rz_old = np.add.reduce(r * z), rz
        p = p * (rz / rz_old) + z


def _counted(solve, counts):
    def counted(r, out):
        counts.append(1)
        return solve(r, out)
    return counted


@pytest.mark.parametrize("rings,nt", CG_SHAPES)
def test_preconditioner_solve_is_bit_identical(model, rings, nt,
                                               monkeypatch):
    d, d0, g_r, g_t, b, s1, _ = _cg_system(model, rings, nt, 1e-3, 6,
                                           monkeypatch)
    solve = flow._theta_mean_preconditioner(d, d0, g_r, g_t)
    ref = _ref_preconditioner(d, d0, g_r, g_t)
    rng = np.random.default_rng(rings * nt)
    out = np.empty(b.shape)
    for r in (b, b / s1, rng.standard_normal(b.size)):
        got = solve(r, out).copy()
        assert np.array_equal(got, ref(r, np.empty(b.shape)))
        assert np.array_equal(solve(r, out), got)       # no state kept


@pytest.mark.parametrize("dt", [1e-3, 2e-2])
@pytest.mark.parametrize("rings,nt", CG_SHAPES)
def test_conjugate_gradient_solve_is_bit_identical(model, rings, nt, dt,
                                                   monkeypatch):
    d, d0, g_r, g_t, b, s1, scale = _cg_system(model, rings, nt, dt, 7,
                                               monkeypatch)
    applied, ref_applied = [], []
    x = flow._conjugate_gradients(
        d, d0, g_r, g_t,
        _counted(flow._theta_mean_preconditioner(d, d0, g_r, g_t), applied),
        b.copy(), s1, scale)
    ref = _ref_conjugate_gradients(
        d, d0, g_r, g_t,
        _counted(_ref_preconditioner(d, d0, g_r, g_t), ref_applied),
        b.copy(), s1, scale)
    assert np.array_equal(x, ref)
    # the reference's last solve is the one no search direction uses
    assert len(applied) == len(ref_applied) - 1 >= 1


def _iterations(system, monkeypatch):
    """The fewest iterations in which the conjugate gradients meet their
    bound: the smallest cap that raises no FlowError, by bisection."""
    d, d0, g_r, g_t, b, s1, scale = system
    solve = flow._theta_mean_preconditioner(d, d0, g_r, g_t)

    def converges(cap):
        with monkeypatch.context() as mp:
            mp.setattr(flow, "_CG_MAX_ITER", cap)
            try:
                flow._conjugate_gradients(d, d0, g_r, g_t, solve, b.copy(),
                                          s1, scale)
            except flow.FlowError:
                return False
        return True

    lo, hi = 0, flow._CG_MAX_ITER
    assert converges(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if converges(mid) else (mid + 1, hi)
    return lo


@pytest.mark.parametrize("rings,nt", CG_SHAPES)
def test_preconditioner_runs_once_per_iteration(hyp2, rings, nt,
                                                monkeypatch):
    system = _cg_system(hyp2, rings, nt, 2e-2, 8, monkeypatch)
    d, d0, g_r, g_t, b, s1, scale = system
    applied = []
    flow._conjugate_gradients(
        d, d0, g_r, g_t,
        _counted(flow._theta_mean_preconditioner(d, d0, g_r, g_t), applied),
        b.copy(), s1, scale)
    assert len(applied) == _iterations(system, monkeypatch) >= 1
    # a start that already meets the bound takes no iteration and no solve
    applied.clear()
    bound = np.max(np.abs(s1 - _ref_apply(d, d0, g_r, g_t, np.ones(s1.size)))
                   / s1)
    x = flow._conjugate_gradients(
        d, d0, g_r, g_t,
        _counted(flow._theta_mean_preconditioner(d, d0, g_r, g_t), applied),
        s1.copy(), s1, 2.0 * bound / flow._CG_RTOL)
    assert not applied and np.array_equal(x, np.ones(s1.size))


def _outcome(solve):
    try:
        return solve().tobytes()
    except flow.FlowError as exc:
        return str(exc)


@pytest.mark.parametrize("indefinite", [False, True])
def test_conjugate_gradients_fail_at_the_reference_iteration(
        hyp2, monkeypatch, indefinite):
    # caps 0, 1, ... until the iteration cap no longer fires: it fires, and
    # then the solve returns, at the same cap as in the reference loop.  With
    # S 1 < 0 on the rings S is indefinite, and p.Sp <= 0 fires in place of
    # the cap at the same iteration
    d, d0, g_r, g_t, b, s1, scale = _cg_system(hyp2, 47, 48, 2e-2, 9,
                                               monkeypatch)
    solve = flow._theta_mean_preconditioner(d, d0, g_r, g_t)
    ref_solve = _ref_preconditioner(d, d0, g_r, g_t)
    if indefinite:
        d = d - 1.05 * s1[1:].reshape(d.shape)
    for cap in range(100):
        monkeypatch.setattr(flow, "_CG_MAX_ITER", cap)
        got = _outcome(lambda: flow._conjugate_gradients(
            d, d0, g_r, g_t, solve, b.copy(), s1, scale))
        assert got == _outcome(lambda: _ref_conjugate_gradients(
            d, d0, g_r, g_t, ref_solve, b.copy(), s1, scale, max_iter=cap))
        if "no convergence" not in str(got):
            break
    assert cap > 0
    assert ("p.Sp" in got) if indefinite else isinstance(got, bytes)
