import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingflow import cmc
from killingflow.cmc import (CmcError, CmcProfile, eval_vR, eval_vR_prime,
                             integrate_profile_ode, residual_cmc, sample_vR,
                             solve_vR)
from killingflow.geometry import (constant_profile, euclidean_model,
                                  hyperbolic_model, hyperbolic_profile,
                                  make_model)

# heights of the hyperbolic profile with rim radius 1, frozen from an
# independent high-order ODE integration of the slope equation
HYP_V = {0.0: 1.0, 0.3: 0.940782654160602, 0.7: 0.664998241436405}


def test_hemisphere_closed_form(euclid2):
    # flat 2-d model: the radial CMC graph is the hemisphere sqrt(R^2 - r^2)
    for R in (0.5, 1.0, 2.0):
        profile = solve_vR(euclid2, R, 128)
        exact = np.sqrt(np.clip(R * R - profile.grid ** 2, 0.0, None))
        assert float(np.max(np.abs(profile.v - exact))) < 1e-9


def test_hemisphere_3d(euclid3):
    profile = solve_vR(euclid3, 1.0, 128)
    exact = np.sqrt(np.clip(1.0 - profile.grid ** 2, 0.0, None))
    assert float(np.max(np.abs(profile.v - exact))) < 1e-9


def test_hyperbolic_frozen_heights(hyp2):
    for r, v in HYP_V.items():
        assert eval_vR(hyp2, 1.0, r) == pytest.approx(v, abs=1e-10)


def test_slope_flat_model(euclid2):
    # v' = -r / sqrt(R^2 - r^2) for the hemisphere
    R = 1.0
    for r in (0.2, 0.5, 0.8):
        assert eval_vR_prime(euclid2, R, r) == pytest.approx(
            -r / math.sqrt(R * R - r * r), rel=1e-9)
    assert eval_vR_prime(euclid2, R, 0.0) == 0.0


def test_slope_domain_errors(euclid2):
    with pytest.raises(CmcError):
        eval_vR_prime(euclid2, 1.0, 1.0)
    with pytest.raises(CmcError):
        eval_vR_prime(euclid2, 1.0, -0.1)
    with pytest.raises(CmcError):
        eval_vR(euclid2, 1.0, 1.5)
    with pytest.raises(CmcError):
        eval_vR(euclid2, -1.0, 0.0)
    with pytest.raises(CmcError):
        solve_vR(euclid2, 1.0, 8)


def test_profile_shape_invariants(hyp2):
    profile = solve_vR(hyp2, 2.0, 96)
    assert profile.v[-1] == 0.0
    assert np.all(np.diff(profile.v) < 0)
    assert np.all(profile.v[:-1] > 0)
    assert profile.vp[0] == 0.0
    assert profile.vp[-1] == -math.inf
    assert profile.H_R == pytest.approx(hyp2.H(2.0))


def test_profile_validation_rejects_garbage():
    g = np.linspace(0.0, 1.0, 32)
    with pytest.raises(CmcError):
        CmcProfile(R=1.0, H_R=-1.0, grid=g, v=np.ones_like(g),
                   vp=np.zeros_like(g))


@pytest.mark.parametrize("name", ["euclid2", "euclid3", "hyp2", "hyp3"])
def test_sample_vR_matches_pointwise(request, name):
    # eval_vR, sample_vR and solve_vR run one rim accumulator: a single node
    # reproduces eval_vR exactly, a profile grid reproduces solve_vR
    model = request.getfixturevalue(name)
    grid = np.linspace(0.0, 0.95, 40)
    vals = sample_vR(model, 1.0, grid)
    for i in (0, 13, 39):
        r = float(grid[i])
        assert vals[i] == pytest.approx(eval_vR(model, 1.0, r), abs=1e-9)
    for R in (1.0, 2.0):
        for r in (0.0, 0.4 * R, 0.99 * R):
            assert eval_vR(model, R, r) == sample_vR(model, R, [r])[0]
        for N in (64, 256):
            profile = solve_vR(model, R, N)
            np.testing.assert_allclose(
                profile.v, sample_vR(model, R, profile.grid), rtol=0,
                atol=1e-12)
    with pytest.raises(CmcError):
        sample_vR(model, 1.0, np.array([0.5, 0.5]))


def test_solve_vR_on_a_large_grid(euclid2):
    # one quadrature interval per gap: 70000 gaps integrate in one call
    # (the subdivision cap binds each gap, not the call); the E2 profile is
    # the hemisphere sqrt(R^2 - r^2)
    profile = solve_vR(euclid2, 2.0, 70000)
    np.testing.assert_allclose(profile.v, np.sqrt(4.0 - profile.grid ** 2),
                               rtol=0, atol=1e-9)


def test_sample_vR_beyond_rim_is_zero(euclid2):
    vals = sample_vR(euclid2, 1.0, np.array([0.5, 1.0, 2.0]))
    assert vals[1] == 0.0 and vals[2] == 0.0


def test_residual_cmc_flags_wrong_profile(euclid2):
    profile = solve_vR(euclid2, 1.0, 128)
    assert residual_cmc(euclid2, profile) < 1e-6
    bad = CmcProfile(R=1.0, H_R=profile.H_R, grid=profile.grid,
                     v=profile.v ** 2, vp=profile.vp * 0.5)
    assert residual_cmc(euclid2, bad) > 0.1


def test_residual_converges_hyperbolic(hyp2):
    res = [residual_cmc(hyp2, solve_vR(hyp2, 1.0, n)) for n in (128, 256)]
    assert res[1] < 1e-3
    assert math.log2(res[0] / res[1]) > 1.8


def test_ode_trace_consistent(hyp2):
    # the arclength trace of the profile curve must reproduce the heights
    rows = integrate_profile_ode(hyp2, 1.0, 2e-4)
    r, s = rows[:, 1], rows[:, 2]
    for probe in (0.3, 0.7):
        i = int(np.argmin(np.abs(r - probe)))
        assert s[i] == pytest.approx(HYP_V[probe], abs=1e-3)
    with pytest.raises(CmcError):
        integrate_profile_ode(hyp2, 1.0, -1.0)


def test_large_rim_raises_at_precision_limit():
    # xi = sinh r with rho = 1 has no closed-form q_drop; its quadrature
    # noise, 1e-14 |A'(30)| ~ 5e-2, is beyond double-precision reach
    model = make_model(hyperbolic_profile(), hyperbolic_profile(),
                       constant_profile(1.0), 2)
    with pytest.raises(CmcError, match="double precision"):
        eval_vR(model, 30.0, 0.0)


def test_rim_scan_below_precision_limit_raises_only_cmc_error():
    # just below the up-front limit, the floored quadrature used to chase
    # the slope noise to its depth cap and raise QuadratureError (at
    # R = 26.75 to 27.5); each rim radius gives a height or CmcError
    model = make_model(hyperbolic_profile(), hyperbolic_profile(),
                       constant_profile(1.0), 2)
    assert eval_vR(model, 26.5, 0.0) == 892318.0493235218
    raised = 0
    for R in np.arange(26.0, 28.001, 0.25):
        try:
            assert math.isfinite(eval_vR(model, float(R), 0.0))
        except CmcError as exc:
            assert "double precision" in str(exc)
            raised += 1
    assert raised > 0


def test_large_rim_still_works_at_moderate_radius(hyp2):
    # deep hyperbolic rims: v(0) ~ R since the profile hugs the rim sphere
    v = eval_vR(hyp2, 8.76, 0.0)
    assert v == pytest.approx(8.76, abs=5e-3)


@pytest.mark.parametrize("name,R", [("hyp2", 16.07), ("hyp2", 20.0),
                                    ("hyp2", 30.31), ("hyp3", 8.76)])
def test_large_rim_heights_with_closed_form_q_drop(request, name, R):
    # with q_drop in closed form the slopes carry rounding only, so no
    # noise floor limits the rim: v(0) is the exact R to rounding (the
    # hyperbolic ladder from r0 = 1.3 and 2 reaches R(T0) = 16.07, 30.31)
    assert eval_vR(request.getfixturevalue(name), R, 0.0) == pytest.approx(
        R, abs=1e-13)


@pytest.mark.parametrize("name,R", [("hyp2", 180.0), ("hyp2", 355.0),
                                    ("hyp3", 180.0), ("hyp3", 236.0)])
def test_rim_heights_past_the_overflow_of_A_squared(request, name, R):
    # the slopes are formed from nH V / A, never from A^2 - (nH V)^2, so
    # the rim reaches past R = 178 (n = 2) and 118 (n = 3), where A^2
    # overflows, up to where A itself does
    v = sample_vR(request.getfixturevalue(name), R, np.linspace(0.0, R, 33))
    assert np.all(np.isfinite(v)) and np.all(np.diff(v) < 0.0)
    assert v[0] == pytest.approx(R, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.01, 0.99))
def test_height_decreasing_property(hyp2, R, frac):
    r = frac * R
    v_in = eval_vR(hyp2, R, 0.0)
    v_mid = eval_vR(hyp2, R, r)
    assert v_in >= v_mid >= 0.0


# heights at r = 0, R/2 and 0.9 R from the adaptive Simpson rim accumulator
# this package used before its Gauss-Kronrod rule (a fixed composite
# Simpson rule took over where the noise floor exceeded a panel's tolerance)
SIMPSON_HEIGHTS = {
    ("euclid2", 1.0): (0.9999999999999951, 0.8660254037844306,
                       0.43588989435404835),
    ("euclid2", 2.0): (1.999999999999995, 1.7320508075688703,
                       0.8717797887081273),
    ("euclid2", 8.76): (8.7599999999998, 7.586382537151286,
                        3.818395474541412),
    ("euclid3", 1.0): (0.9999999999999958, 0.8660254037844393,
                       0.4358898943540526),
    ("euclid3", 2.0): (1.9999999999999962, 1.7320508075688879,
                       0.8717797887081112),
    ("euclid3", 8.76): (8.759999999999902, 7.586382537152581,
                        3.8183954745419872),
    ("hyp2", 1.0): (1.0000000000000329, 0.8340252289814216,
                    0.3893357517912538),
    ("hyp2", 2.0): (1.9999999999996176, 1.539380182506433,
                    0.6382535555227018),
    ("hyp2", 8.76): (8.759999998651786, 5.072951095699104,
                     1.5226636135868743),
    ("hyp3", 1.0): (1.0000000000000253, 0.8340252289813435,
                    0.38933575179126795),
    ("hyp3", 2.0): (1.9999999999992188, 1.5393801825063527,
                    0.6382535555223656),
    ("hyp3", 8.76): (8.760000011276603, 5.072951108326822,
                     1.5226636264422162),
}


def _height_allowance(model, R, r):
    # both rules meet quad_tol; where the noise floor binds a panel of
    # width w in tau = sqrt(R - r) may carry floor * w instead
    floor = 1e-14 * abs(model.A_prime(R))
    return max(2.0 * model.quad_tol, floor * math.sqrt(R - r))


@pytest.mark.parametrize("name,R", sorted(SIMPSON_HEIGHTS))
def test_heights_match_frozen_simpson_values(request, name, R):
    model = request.getfixturevalue(name)
    for frac, old in zip((0.0, 0.5, 0.9), SIMPSON_HEIGHTS[name, R]):
        r = frac * R
        assert eval_vR(model, R, r) == pytest.approx(
            old, abs=_height_allowance(model, R, r))


def test_noise_floor_height_matches_frozen_value(hyp2):
    # the H2 ladder's R(T0) for its R = 10 rung: floor 6e-4 binds, and the
    # Simpson rule read 12.761939980986222 (2.6e-4 below v(0) = R, the
    # geodesic hemisphere's exact height)
    R = 12.762195693136565
    v = eval_vR(hyp2, R, 0.0)
    assert v == pytest.approx(12.761939980986222,
                              abs=_height_allowance(hyp2, R, 0.0))
    assert v == pytest.approx(R, abs=_height_allowance(hyp2, R, 0.0))


def _textbook_height(name, R, r):
    # the hemisphere in R^{n+1}; ln[(cosh R + sqrt(sinh(R - r) sinh(R + r)))
    # / cosh r] in the hyperbolic pair with kappa = 1, for every n
    if name.startswith("euclid"):
        return math.sqrt((R - r) * (R + r))
    return math.log((math.cosh(R) + math.sqrt(math.sinh(R - r)
                                              * math.sinh(R + r)))
                    / math.cosh(r))


@pytest.mark.parametrize("name,R", [
    (name, R) for name in ("euclid2", "euclid3", "hyp2", "hyp3")
    for R in (0.5, 1.0, 2.0, 8.76)] + [("hyp2", 16.07), ("hyp2", 30.31)])
def test_rim_quadrature_meets_the_closed_form(request, name, R):
    # the built-in pairs take the closed-form heights, every other model
    # the quadrature; on the built-in pairs the quadrature must reproduce
    # them, and they the textbook formula
    model = request.getfixturevalue(name)
    radii = np.array([R - 1e-6, 0.9 * R, 0.5 * R, 0.0])      # rim inward
    closed = cmc._rim_heights(model, R, radii, model.quad_tol)
    quad = cmc._rim_quadrature(model, R, radii, model.quad_tol)
    for r, v, q in zip(radii, closed, quad):
        assert q == pytest.approx(v, abs=_height_allowance(model, R, r))
        assert v == pytest.approx(_textbook_height(name, R, float(r)),
                                  rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("model,R", [
    (euclidean_model(2), 1e3), (euclidean_model(3), 1e3),
    (hyperbolic_model(2), 1.0), (hyperbolic_model(2), 355.0),
    (hyperbolic_model(3), 236.0), (hyperbolic_model(2, kappa=0.5), 700.0)],
    ids=["euclid2", "euclid3", "hyp2-1", "hyp2-355", "hyp3-236",
         "hyp2-kappa0.5-700"])
def test_closed_form_heights_at_the_extremes(model, R):
    # from the rim itself, through radii clustered at it, to the pole, up
    # to where A is about to overflow: no floating-point exception, 0.0 at
    # the rim, v(0) = R (kappa R / kappa for the hyperbolic pair), and
    # heights strictly increasing inward
    radii = np.unique(np.concatenate((
        R * (1.0 - np.geomspace(1e-12, 1.0, 300)),
        np.linspace(0.0, R, 101))))[::-1]
    assert radii[0] == R and radii[-1] == 0.0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        v = cmc._rim_heights(model, R, radii, model.quad_tol)
    assert v[0] == 0.0
    assert v[-1] == pytest.approx(R, rel=1e-13)
    assert np.all(np.diff(v) > 0.0)


@pytest.mark.parametrize("name,R", [("euclid2", 1e155), ("hyp2", 356.0),
                                    ("hyp2", 720.0), ("hyp3", 238.0),
                                    ("hyp3", 1e4), ("sinh2", 710.2)])
def test_rim_past_the_overflow_of_A_raises_cmc_error(request, name, R):
    # never OverflowError or a floating-point warning: the rim check runs
    # before any height, closed or not.  On sinh2 A is finite at 710.2, but
    # V by quadrature reaches its next knot, 710.5, past the overflow of A
    # at 710.48, so V is not finite there either
    model = request.getfixturevalue(name)
    for height in (lambda: eval_vR(model, R, 0.0),
                   lambda: sample_vR(model, R, np.array([0.0, 0.5 * R])),
                   lambda: solve_vR(model, R, 16)):
        with pytest.raises(CmcError, match="overflows"):
            height()
