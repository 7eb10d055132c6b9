import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingflow import flow
from killingflow.barriers import (BarrierError, GeodesicSpec,
                                  SupersolutionFlow, _sample_deep_region,
                                  c0_height_cap, compute_E_R,
                                  compute_delta_psi, curvature_bound,
                                  eval_u_plus, height_bounds,
                                  interior_gradient_bound,
                                  make_boundary_barrier, make_sc_barrier,
                                  mu_of_t, pointwise_Q, verify_supersolution)
from killingflow.cmc import CmcError
from killingflow.geometry import (constant_profile, hyperbolic_model,
                                  hyperbolic_profile, make_model)


# -- expanding radial supersolution ---------------------------------------------


def test_mu_euclidean_closed_form(euclid2):
    # dR/dt = -nH(R) = 2/R gives R(t) = sqrt(r0^2 + 4t) for n = 2
    for t in (0.0, 0.1, 0.5, 2.0):
        assert mu_of_t(euclid2, 1.0, t) == pytest.approx(
            math.sqrt(1.0 + 4.0 * t), abs=1e-10)


def test_mu_hyperbolic_closed_form(hyp2):
    # dR/dt = 2 coth(R) gives cosh R(t) = cosh(r0) e^{2t}
    for t in (0.0, 0.2, 0.8):
        assert mu_of_t(hyp2, 1.0, t) == pytest.approx(
            math.acosh(math.cosh(1.0) * math.exp(2.0 * t)), abs=1e-10)


@pytest.mark.parametrize("name", ["euclid2", "euclid3", "hyp2"])
def test_mu_newton_matches_closed_forms(request, name):
    # Newton on the time integral reaches R(t) to rounding: sqrt(1 + 2nt)
    # in R^n, acosh(cosh(1) e^{2t}) in H^2; a scalar time and an array of
    # times give the same radii
    model = request.getfixturevalue(name)
    t = np.concatenate(([0.0, 1e-6], np.linspace(0.01, 3.0, 40)))
    if name == "hyp2":
        exact = np.arccosh(math.cosh(1.0) * np.exp(2.0 * t))
    else:
        exact = np.sqrt(1.0 + 2.0 * model.n * t)
    np.testing.assert_allclose(SupersolutionFlow(model, 1.0).R_of_t(t),
                               exact, rtol=0, atol=1e-12)
    for k in (1, 17, 41):
        assert abs(mu_of_t(model, 1.0, float(t[k])) - exact[k]) <= 1e-12


def test_supersolution_flow_guards(euclid2):
    with pytest.raises(BarrierError):
        SupersolutionFlow(euclid2, -1.0)
    fl = SupersolutionFlow(euclid2, 1.0)
    with pytest.raises(BarrierError):
        fl.R_of_t(-0.5)


def test_u_plus_monotone_in_time(euclid2):
    fl = SupersolutionFlow(euclid2, 1.0)
    vals = [eval_u_plus(euclid2, 1.0, 0.0, t, flow=fl)
            for t in (0.0, 0.1, 0.5)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(BarrierError):
        eval_u_plus(euclid2, 1.0, 2.0, 0.1)


def test_verify_supersolution_small_grid_rejected(euclid2):
    with pytest.raises(BarrierError):
        verify_supersolution(euclid2, 1.0, np.linspace(0, 1, 10),
                             np.linspace(0, 1, 64), lambda r, u: u)


@pytest.mark.parametrize("model_name", ["euclid2", "euclid3", "hyp2", "hyp3"])
def test_verify_supersolution_residual(model_name, request):
    model = request.getfixturevalue(model_name)
    res = verify_supersolution(
        model, 1.0, np.linspace(0.0, 0.5, 64), np.linspace(0.0, 1.0, 64),
        lambda r, u: flow.radial_Q(model, r, u))
    assert res >= -1e-3


# -- height bounds --------------------------------------------------------------


def test_height_bounds_symmetry_and_zero(euclid2):
    lower, upper = height_bounds(euclid2, 1.0, 0.5, 0.25)
    rs = np.linspace(0.0, 1.0, 33)
    hi = upper(rs)
    for r, h in zip(rs, hi):
        r = float(r)
        assert lower(r) == -upper(r)
        assert h == pytest.approx(upper(r), abs=1e-9)
    np.testing.assert_array_equal(lower(rs), -hi)
    # at the rim the cmc terms cancel to sup_u0 + cap(0-level)
    assert upper(1.0) > upper(0.0) - 1e-12
    for bad in (1.5, -0.1):
        for bound in (lower, upper):
            with pytest.raises(CmcError):
                bound(bad)
            with pytest.raises(CmcError):
                bound(np.sort(np.array([0.5, bad])))
    with pytest.raises(BarrierError):
        height_bounds(euclid2, 1.0, -1.0, 0.25)


def test_height_bounds_contain_static_solution(euclid2):
    # u == 0 solves the flow with zero boundary data
    lower, upper = height_bounds(euclid2, 1.0, 1.0, 0.0)
    for r in (0.0, 0.5, 1.0):
        assert lower(r) <= 0.0 <= upper(r)


def test_c0_height_cap_euclidean_exact(euclid2):
    # flat model: H^2/(rho H') = 1 and -1/H(l0 r0) = l0 r0
    assert c0_height_cap(euclid2, 1.0, 3) == pytest.approx(3.0, abs=1e-9)
    assert c0_height_cap(euclid2, 0.5, 4) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(BarrierError):
        c0_height_cap(euclid2, 1.0, 0)


def test_c0_height_cap_matches_loop_values(euclid2, hyp2, hyp3):
    # the values of the per-radius loop the one array pass replaced
    assert c0_height_cap(euclid2, 1.0, 3) == 3.0000000000000013
    assert c0_height_cap(hyp2, 1.0, 3) == 10.017874927410302
    assert c0_height_cap(hyp3, 1.0, 3) == 10.017874927409588


def test_c0_height_cap_names_a_radius_where_H_decreases(monkeypatch):
    model = make_model(hyperbolic_profile(), hyperbolic_profile(),
                       constant_profile(1.0), 2)
    monkeypatch.setattr(model, "H_prime",
                        lambda r: np.where(r > 2.0, -1.0, 1.0))
    with pytest.raises(BarrierError, match=r"H'\(r\) <= 0 at r=2\.00"):
        c0_height_cap(model, 1.0, 3)


def test_c0_height_cap_dominates_supersolution(hyp2):
    cap = c0_height_cap(hyp2, 1.0, 3)
    fl = SupersolutionFlow(hyp2, 1.0)
    t_max = fl.time_of(3.0)
    for t in np.linspace(0.0, t_max, 12):
        assert eval_u_plus(hyp2, 1.0, 0.0, float(t), flow=fl) <= cap + 1e-9


# -- boundary gradient barrier ---------------------------------------------------


def test_boundary_barrier_identity_and_cap():
    bb = make_boundary_barrier(L=0.1, d0=5.0)
    assert bb.A_coef == pytest.approx(0.2)
    assert bb.h(0.0) == 0.0
    d = np.linspace(0.0, 5.0, 7)
    np.testing.assert_array_equal(bb.h(d), [bb.h(float(x)) for x in d])
    # h'' + L h'^2 = 0 exactly, the defining ODE of the log barrier
    d = np.linspace(0.0, 5.0, 50)
    np.testing.assert_allclose(bb.h_second(d) + 0.1 * bb.h_prime(d) ** 2,
                               0.0, rtol=0.0, atol=1e-15)
    assert bb.gradient_cap() == pytest.approx(bb.h_prime(0.0))
    assert bb.gradient_cap(1.5) == pytest.approx(1.5 + bb.h_prime(0.0))


@pytest.mark.parametrize("L,d0", [(0.0, 1.0), (0.1, 0.0), (0.1, 10.0),
                                  (0.1, 15.0)])
def test_boundary_barrier_rejects(L, d0):
    with pytest.raises(BarrierError):
        make_boundary_barrier(L=L, d0=d0)


# -- barrier at infinity ---------------------------------------------------------


def test_geodesic_spec():
    g = GeodesicSpec.at_distance(1.0)
    assert g.nu[0] == pytest.approx(math.cosh(1.0))
    with pytest.raises(BarrierError):
        GeodesicSpec.at_distance(-1.0)
    with pytest.raises(BarrierError):
        GeodesicSpec((1.0, 0.0, 0.5))    # not unit spacelike


def test_sc_barrier_continuity_and_decay(hyp2):
    sc = make_sc_barrier(hyp2, GeodesicSpec.at_distance(1.0), C=1.0, d0=2.0)
    assert 0.0 < sc.alpha <= 1.0
    assert sc.C1 == pytest.approx(math.exp(sc.alpha * sc.d0))
    # continuous across the d0 interface and decreasing past it
    pts = [(4.0, 0.0), (6.0, 0.1), (9.0, -0.2)]
    ds = [sc.dist_eval(r, th) for r, th in pts]
    etas = [sc.eta(r, th) for r, th in pts]
    for d, e in zip(ds, etas):
        if d <= sc.d0:
            assert e == 1.0
        else:
            assert e < 1.0
    # signed distance is correct on the axis: d = r - a there
    assert sc.dist_eval(3.0, 0.0) == pytest.approx(2.0, abs=1e-10)


def test_sc_barrier_supersolution_sign(hyp2):
    sc = make_sc_barrier(hyp2, GeodesicSpec.at_distance(1.0), C=1.0, d0=2.0)
    r, th = _sample_deep_region(sc.geodesic, sc.d0, 60,
                                np.random.default_rng(3), margin=0.1).T
    assert float(np.max(pointwise_Q(hyp2, sc.eta, r, th))) <= 1e-3


def test_halfplane_distance_on_arrays(hyp2):
    sc = make_sc_barrier(hyp2, GeodesicSpec.at_distance(1.0), C=1.0, d0=2.0)
    # along the axis theta = 0 the geodesic sits at r = 1: d = r - 1, d_r = 1
    r = np.linspace(0.0, 8.0, 33)
    np.testing.assert_allclose(sc.dist_eval(r, 0.0), r - 1.0,
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sc.radial_dist_derivative(r, 0.0), 1.0,
                               rtol=0.0, atol=1e-12)
    # the halfplane is symmetric about the axis
    th = np.linspace(-1.5, 1.5, 13)
    np.testing.assert_allclose(sc.dist_eval(r[:, None], th[None, :]),
                               sc.dist_eval(r[:, None], -th[None, :]),
                               rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_halfplane_distance_is_a_distance_in_curvature_kappa(kappa):
    # in curvature -kappa^2, |grad d|^2 = d_r^2 + (d_theta / xi)^2 = 1 with
    # xi = sinh(kappa r) / kappa, and the geodesic at_distance(a) builds
    # sits at distance a from the pole
    model = hyperbolic_model(n=2, kappa=kappa)
    sc = make_sc_barrier(model, GeodesicSpec.at_distance(1.0, kappa),
                         C=1.0, d0=2.0)
    r, th = _sample_deep_region(sc.geodesic, sc.d0, 200,
                                np.random.default_rng(5), kappa=kappa).T
    # complex-step derivatives: exact to rounding, with no cancellation
    h = 1e-20
    d_th = sc.dist_eval(r, th + 1j * h).imag / h
    d_r = sc.dist_eval(r + 1j * h, th).imag / h
    np.testing.assert_allclose(sc.radial_dist_derivative(r, th), d_r,
                               rtol=0.0, atol=1e-8)
    grad2 = d_r ** 2 + (d_th / model.xi.value(r)) ** 2
    np.testing.assert_allclose(grad2, 1.0, rtol=0.0, atol=1e-8)
    axis = np.linspace(0.0, 6.0, 25)
    np.testing.assert_allclose(sc.dist_eval(axis, 0.0), axis - 1.0,
                               rtol=0.0, atol=1e-12)


def test_eta_on_polar_grid_matches_pointwise(hyp2):
    sc = make_sc_barrier(hyp2, GeodesicSpec.at_distance(1.0), C=1.0, d0=2.0)
    g = flow.Grid(R=8.0, nr=32, ntheta=24)
    eta = sc.eta(g.r[:, None], g.theta[None, :])
    assert eta.shape == (g.nr + 1, g.ntheta)
    ref = [[float(sc.eta(float(r), float(th))) for th in g.theta]
           for r in g.r]
    # equal up to the last-bit differences of numpy's array and scalar
    # transcendental loops
    np.testing.assert_allclose(eta, ref, rtol=1e-14, atol=0.0)
    # both branches occur on this grid, and eta never exceeds C
    assert np.any(eta == sc.C) and np.any(eta < sc.C)
    assert float(np.max(eta)) <= sc.C


def _sample_deep_region_per_draw(geodesic, d0, count, rng, margin):
    """Reference: one draw at a time, theta then r, until count hits."""
    nu = geodesic.nu
    pts = []
    for _ in range(200 * count):
        theta = float(rng.uniform(-0.6, 0.6))
        r = float(rng.uniform(0.0, 30.0))
        q = (math.sinh(r) * math.cos(theta) * nu[0]
             + math.sinh(r) * math.sin(theta) * nu[1] - math.cosh(r) * nu[2])
        d = math.asinh(q) if q > 0 else -1.0
        if d0 + margin <= d <= d0 + margin + 5.0:
            pts.append((r, theta))
            if len(pts) == count:
                return np.asarray(pts)
    raise BarrierError("could not sample the deep region")


@pytest.mark.parametrize("count,seed,margin",
                         [(400, 0, 0.0), (200, 0, 0.1), (60, 3, 0.1)])
def test_sample_deep_region_matches_per_draw_loop(count, seed, margin):
    g = GeodesicSpec.at_distance(1.0)
    pts = _sample_deep_region(g, 2.0, count, np.random.default_rng(seed),
                              margin=margin)
    ref = _sample_deep_region_per_draw(g, 2.0, count,
                                       np.random.default_rng(seed), margin)
    np.testing.assert_array_equal(pts, ref)


def test_sample_deep_region_gives_up():
    # no point of r <= 30 lies 40 deep in a halfplane 1 away from the pole
    with pytest.raises(BarrierError):
        _sample_deep_region(GeodesicSpec.at_distance(1.0), 40.0, 5)


def test_sc_barrier_needs_growing_warping():
    flat = make_model(hyperbolic_profile(), hyperbolic_profile(),
                      constant_profile(), n=2)
    with pytest.raises(BarrierError):
        make_sc_barrier(flat, GeodesicSpec.at_distance(1.0), C=1.0, d0=2.0)


def test_sc_barrier_argument_guards(hyp2, euclid2, hyp3):
    g = GeodesicSpec.at_distance(1.0)
    with pytest.raises(BarrierError):
        make_sc_barrier(euclid2, g, C=1.0, d0=2.0)
    # the barrier and pointwise_Q are the n = 2 forms
    with pytest.raises(BarrierError, match="n = 2"):
        make_sc_barrier(hyp3, g, C=1.0, d0=2.0)
    with pytest.raises(BarrierError, match="n = 2"):
        pointwise_Q(hyp3, lambda r, th: r * np.cos(th), np.array([1.0]),
                    np.array([0.0]))
    with pytest.raises(BarrierError):
        make_sc_barrier(hyp2, g, C=1.0, d0=1.0)
    with pytest.raises(BarrierError):
        make_sc_barrier(hyp2, g, C=-1.0, d0=2.0)


# -- estimate constants ----------------------------------------------------------


def test_interior_gradient_constants(euclid2):
    gb = interior_gradient_bound(euclid2, 3.0, M=1.0, beta=1 - 1e-8, k=17)
    assert gb.mu_const == pytest.approx(0.783, abs=1e-3)
    assert gb.log_bound == max(gb.log_bound_first, gb.log_bound_second)
    assert gb.bound == math.inf or gb.bound > 0  # exp may overflow, both fine
    with pytest.raises(BarrierError):
        interior_gradient_bound(euclid2, 3.0, M=1.0, beta=0.9, k=17)
    with pytest.raises(BarrierError):
        interior_gradient_bound(euclid2, 3.0, M=1.0, beta=1 - 1e-8, k=16)
    with pytest.raises(BarrierError):
        interior_gradient_bound(euclid2, -1.0, M=1.0, beta=1 - 1e-8, k=17)


def test_curvature_constants_examples():
    assert compute_delta_psi(1.0, 6.0) == pytest.approx(1.0 / 12.0)
    assert compute_E_R(0.1, 4.0, 2, 2.0, 1.0) == pytest.approx(60.0)
    assert curvature_bound(0.1, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0) == \
        pytest.approx(12.6491 * math.sqrt(6.0), abs=1e-3)
    with pytest.raises(BarrierError):
        compute_delta_psi(-1.0, 6.0)
    with pytest.raises(BarrierError):
        curvature_bound(0.1, -2.0, 1.0, 1.0, 0.5, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0),
       st.floats(0.0, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_curvature_bound_monotone(L1, C, Ct, E, zR, T):
    base = curvature_bound(0.1, L1, C, Ct, E, zR, T)
    # nondecreasing in each curvature-source constant
    assert curvature_bound(0.1, L1 + 1, C, Ct, E, zR, T) >= base
    assert curvature_bound(0.1, L1, C + 1, Ct, E, zR, T) >= base
    assert curvature_bound(0.1, L1, C, Ct + 1, E, zR, T) >= base
    assert curvature_bound(0.1, L1, C, Ct, E + 1, zR, T) >= base
    # nonincreasing in the time horizon and the cylinder size
    assert curvature_bound(0.1, L1, C, Ct, E, zR, T + 1) <= base
    assert curvature_bound(0.1, L1, C, Ct, E, zR + 1, T) <= base


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 2.0), st.floats(1.2, 4.0))
def test_gradient_bound_monotone_in_M(euclid2, M, R):
    a = interior_gradient_bound(euclid2, R, M=M, beta=1 - 1e-8, k=17)
    b = interior_gradient_bound(euclid2, R, M=M + 0.5, beta=1 - 1e-8, k=17)
    assert b.log_bound >= a.log_bound
