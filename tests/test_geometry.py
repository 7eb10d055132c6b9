import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killingflow.cmc import eval_vR
from killingflow.geometry import (GeometryError, ProfileSpec,
                                  TableFormatError, ValidationError,
                                  ambient_frame,
                                  constant_profile, cosh_profile,
                                  euclidean_model, euclidean_profile,
                                  hyperbolic_model, hyperbolic_profile,
                                  lower_ricci_bounds, make_model,
                                  table_profile_from_csv)


# -- profiles -----------------------------------------------------------------


def test_profile_values_and_derivatives():
    r = 0.7
    p = hyperbolic_profile(kappa=2.0)
    assert p.value(r) == pytest.approx(math.sinh(2 * r) / 2.0)
    assert p.d1(r) == pytest.approx(math.cosh(2 * r))
    assert p.d2(r) == pytest.approx(2 * math.sinh(2 * r))
    assert p.ratio_d1(r) == pytest.approx(2.0 / math.tanh(2 * r))
    assert p.ratio_d2(r) == pytest.approx(4.0)
    c = cosh_profile()
    assert c.value(r) == pytest.approx(math.cosh(r))
    assert c.ratio_d1(r) == pytest.approx(math.tanh(r))
    assert euclidean_profile().value(r) == r
    assert constant_profile(3.0).value(r) == 3.0
    assert constant_profile(3.0).d1(r) == 0.0


def test_ratio_d1_stable_at_large_radius():
    # naive cosh/sinh quotient overflows near r ~ 400
    p = hyperbolic_profile()
    assert p.ratio_d1(400.0) == pytest.approx(1.0)
    assert np.isfinite(p.ratio_d1(np.array([100.0, 500.0, 700.0]))).all()


def test_profile_array_broadcast():
    p = hyperbolic_profile()
    rs = np.linspace(0.1, 2.0, 7)
    np.testing.assert_allclose(p.value(rs), np.sinh(rs))
    np.testing.assert_allclose(p.d1(rs), np.cosh(rs))


def test_bad_profile_kind():
    from killingflow.geometry import ProfileSpec
    with pytest.raises(GeometryError):
        ProfileSpec("parabolic")
    with pytest.raises(GeometryError):
        ProfileSpec("hyperbolic", kappa=-1.0)


def test_table_profile(tmp_path):
    path = tmp_path / "xi.csv"
    rs = np.linspace(0.0, 3.0, 40)
    path.write_text("# synthetic sinh samples\nr,value\n" + "\n".join(
        f"{r},{math.sinh(r)}" for r in rs))
    p = table_profile_from_csv(str(path))
    assert p.kind == "table"
    assert p.value(1.0) == pytest.approx(math.sinh(1.0), abs=1e-4)
    assert p.d1(1.0) == pytest.approx(math.cosh(1.0), abs=1e-2)


@pytest.mark.parametrize("text", [
    "r\n0\n",                              # bad header
    "r,value\n0,0\n1,1\n",                 # too few rows
    "r,value\n0,0\n1,1\n1,2\n2,3\n",       # non-increasing radii
    "r,value\n0,0\n1,one\n2,2\n3,3\n",     # non-numeric
])
def test_table_profile_rejects(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(TableFormatError):
        table_profile_from_csv(str(path))


# -- model data against closed forms ------------------------------------------


def test_euclidean_model_data(euclid2):
    for r in (0.5, 1.0, 2.0):
        assert euclid2.A(r) == pytest.approx(r, abs=1e-12)
        assert euclid2.V(r) == pytest.approx(r * r / 2, abs=1e-10)
        assert euclid2.zeta(r) == pytest.approx(r * r / 2, abs=1e-10)
        assert euclid2.H(r) == pytest.approx(-1.0 / r, rel=1e-10)
        assert float(euclid2.Hcyl(r)) == pytest.approx(1 / (2 * r), rel=1e-12)


def test_euclidean_3d_volume(euclid3):
    # A = r^2, V = r^3/3
    assert euclid3.A(1.0) == pytest.approx(1.0)
    assert euclid3.V(1.0) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_hyperbolic_model_data(hyp2):
    for r in (0.5, 1.0, 1.7):
        sh, ch = math.sinh(r), math.cosh(r)
        assert hyp2.A(r) == pytest.approx(sh * ch, rel=1e-12)
        assert hyp2.V(r) == pytest.approx(sh * sh / 2, rel=1e-10)
        assert hyp2.zeta(r) == pytest.approx(ch - 1.0, rel=1e-10)
        assert hyp2.H(r) == pytest.approx(-sh * ch / (sh * sh), rel=1e-10)
        assert float(hyp2.Hcyl(r)) == pytest.approx(
            0.5 * (ch / sh + sh / ch), rel=1e-12)


@pytest.mark.parametrize("name", ["euclid2", "euclid3", "hyp2", "hyp3"])
def test_cumulative_integrals_match_closed_forms(request, name):
    # the quadrature fallbacks behind V, zeta and q_drop against the closed
    # forms, to rounding; V and zeta on an unsorted array with repeats and
    # on single radii give one value per radius, whatever else is asked
    # alongside it
    model = request.getfixturevalue(name)
    r = np.array([2.5, 0.0, 0.3, 1.7, 0.3, 5.2, 0.5, 12.0, 1.0])
    for cumulative, closed in ((model._V, model._V_closed),
                               (model._zeta, model._zeta_closed)):
        exact = closed(r)
        np.testing.assert_allclose(cumulative(r), exact, rtol=1e-13,
                                   atol=0)
        assert [cumulative(float(x)) for x in r] == list(cumulative(r))
    np.testing.assert_array_equal(model.V(r), [model.V(float(x)) for x in r])
    assert isinstance(model.V(1.0), float)
    assert isinstance(model.zeta(1.0), float)
    # the drop of q = A/V below a rim R, integrated from R inward
    for R in (1.0, 2.0):
        s = R * (1.0 - np.array([1e-12, 1e-9, 1e-6, 1e-3, 5e-3, 0.3]))
        np.testing.assert_allclose(model._q_drop_quadrature(s, R),
                                   model.q_drop(s, R), rtol=1e-13, atol=0)


def _sinh_table_model(quad_tol):
    samples = tuple((float(r), math.sinh(r)) for r in np.linspace(0, 6, 121))
    table = ProfileSpec("table", samples=samples)
    return make_model(table, table, constant_profile(1.0), 2, quad_tol)


def test_table_model_heights_converge():
    # the monotone cubics jump in their second derivative at every sample:
    # V's knots include the samples, so its gaps never straddle one, and
    # the rim heights converge at every tolerance, to within it
    coarse, fine = _sinh_table_model(1e-10), _sinh_table_model(1e-13)
    assert coarse.breaks[1] == 0.05 and len(coarse.breaks) == 121
    for r in (0.0, 1.0, 1.9):
        assert eval_vR(coarse, 2.0, r) == pytest.approx(
            eval_vR(fine, 2.0, r), abs=1e-10)
    assert coarse.V(2.0) == pytest.approx(fine.V(2.0), rel=1e-12)


def test_cumulative_integral_independent_of_query_order():
    # F on the knots is accumulated one knot at a time, so extending in two
    # steps gives the same bits as one step, and so do the values after
    two_steps, one_step = _sinh_table_model(1e-10), _sinh_table_model(1e-10)
    r = np.array([0.3, 1.2, 2.05, 3.2])
    two_steps.V(1.2)
    two_steps.V(3.2)
    one_step.V(3.2)
    np.testing.assert_array_equal(two_steps._V._knots, one_step._V._knots)
    np.testing.assert_array_equal(two_steps._V._F, one_step._V._F)
    np.testing.assert_array_equal(two_steps.V(r), one_step.V(r))


def test_H_prime_sign(euclid2):
    # |H| decreases outward on both built-ins, so H' > 0.  On the radii
    # c0_height_cap scans for l0 r0 = 3, (A^2 - A'V)/V^2 cancelled to 0.0
    # from kappa r of about 18.8 on; the closed form of -q' does not
    r = 3.0 * np.geomspace(1e-6, 1.0, 1024)
    for kappa, model in ((1.0, hyperbolic_model(n=2, kappa=1.0)),
                         (8.0, hyperbolic_model(n=2, kappa=8.0)),
                         (1.0, euclid2)):
        assert np.all(model.H_prime(r) > 0.0)
        assert all(model.H_prime(float(x)) > 0.0 for x in (0.3, 1.0, 2.5))
        # where the difference does not cancel, the two forms agree
        near = r[kappa * r < 2.0]
        np.testing.assert_allclose(model.H_prime(near),
                                   model._minus_q_prime(near) / model.n,
                                   rtol=1e-9, atol=0)


def test_pole_guards(euclid2):
    with pytest.raises(GeometryError):
        euclid2.H(0.0)
    with pytest.raises(GeometryError):
        euclid2.Hcyl(0.0)


# -- validation ladder ---------------------------------------------------------


def test_make_model_accepts_builtins():
    m = make_model(hyperbolic_profile(), hyperbolic_profile(),
                   cosh_profile(), n=2)
    assert m.validation["checks"]
    assert m.n == 2


def test_make_model_rejects_warping_growing_too_fast():
    # rho = cosh(3r) grows faster than xi'/xi = coth(r) allows
    with pytest.raises(ValidationError):
        make_model(hyperbolic_profile(), hyperbolic_profile(),
                   cosh_profile(kappa=3.0), n=2)


def test_make_model_rejects_nonvanishing_xi():
    with pytest.raises((ValidationError, TableFormatError)):
        make_model(constant_profile(1.0), euclidean_profile(),
                   constant_profile(), n=2)


def test_make_model_rejects_bad_dimension():
    with pytest.raises(GeometryError):
        make_model(euclidean_profile(), euclidean_profile(),
                   constant_profile(), n=1)


# -- ambient frame -------------------------------------------------------------


def test_christoffels_euclidean(euclid2):
    fr = ambient_frame(euclid2)
    r = 1.3
    tab = fr.christoffels(r)
    # flat warping: only the polar-coordinate symbols survive
    assert tab[("s", "s", "r")] == 0.0
    assert tab[("r", "s", "s")] == 0.0
    assert tab[("r", "theta", "theta")] == pytest.approx(-r)
    assert tab[("theta", "r", "theta")] == pytest.approx(1.0 / r)
    # every other symbol vanishes
    assert set(tab) == {("s", "s", "r"), ("r", "s", "s"),
                        ("r", "theta", "theta"), ("theta", "r", "theta")}


def test_christoffels_hyperbolic(hyp2):
    fr = ambient_frame(hyp2)
    r = 0.9
    sh, ch = math.sinh(r), math.cosh(r)
    tab = fr.christoffels(r)
    assert tab[("s", "s", "r")] == pytest.approx(sh / ch)
    assert tab[("r", "s", "s")] == pytest.approx(-ch * sh)
    assert tab[("r", "theta", "theta")] == pytest.approx(-sh * ch)
    assert tab[("theta", "r", "theta")] == pytest.approx(ch / sh)


def test_ricci_eigenvalues(euclid2, hyp2):
    fr_e = ambient_frame(euclid2)
    assert fr_e.ricci_eigenvalues(1.0) == pytest.approx((0.0, 0.0, 0.0))
    # hyperbolic plane warped by cosh: ambient is hyperbolic 3-space,
    # Ric = -2 g in the orthonormal frame
    fr_h = ambient_frame(hyp2)
    for r in (0.4, 1.0, 2.0):
        assert fr_h.ricci_eigenvalues(r) == pytest.approx((-2.0, -2.0, -2.0))


def test_lower_ricci_bounds(euclid2, hyp2):
    assert lower_ricci_bounds(euclid2, 4.0) == (0.0, 0.0)
    L, L1 = lower_ricci_bounds(hyp2, 4.0)
    assert L == pytest.approx(2.0, abs=1e-9)
    assert L1 == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(GeometryError):
        lower_ricci_bounds(euclid2, 0.0)


def test_lower_ricci_bounds_reject_singular_table_pole():
    # the monotone cubic of 25 sinh samples has xi'(0) = 0.979: a cone
    # point, where xi''/xi and the sphere defect are unbounded
    rs = np.linspace(0, 6, 25)
    sinh = ProfileSpec("table", samples=tuple(zip(rs, np.sinh(rs))))
    model = make_model(sinh, sinh, constant_profile(1.0), 2)
    with pytest.raises(GeometryError, match=r"xi'\(0\) = 0\.978"):
        lower_ricci_bounds(model, 1.0)
    # a table of xi = r has xi'(0) = 1 and xi''(0+) = 0: the flat bound
    line = ProfileSpec("table", samples=tuple(zip(rs, rs)))
    flat = make_model(line, line, constant_profile(1.0), 2)
    assert lower_ricci_bounds(flat, 4.0) == (0.0, 0.0)
    # xi'(0) = 1 exactly, but xi''(0+) = 0.58 gives xi''/xi ~ 0.58 / r
    bent = ProfileSpec("table", samples=((0.0, 0.0), (1.0, 1.25),
                                         (2.0, 3.0), (3.0, 5.0), (4.0, 7.5)))
    assert bent.d1(0.0) == 1.0
    with pytest.raises(GeometryError, match=r"xi''\(0\+\) = 0\.58"):
        lower_ricci_bounds(make_model(bent, bent, constant_profile(1.0), 2),
                           1.0)


# (L, L1) of the cosh(0.5)-warped model from the former per-radius Ricci
# loop over the 512-point ladder
LOOP_RICCI_BOUNDS = {1.0: (1.3033880667585183, 1.3033880667585183),
                     4.0: (1.482337293786709, 1.482337293786709)}


def _contract_models():
    """A closed-form pair, and a warped pair and a table pair whose V and
    q_drop are integrated."""
    sinh = ProfileSpec("table", samples=tuple(
        (float(r), math.sinh(r)) for r in np.linspace(0, 6, 25)))
    return {"hyp3": hyperbolic_model(n=3),
            "warp": make_model(hyperbolic_profile(), hyperbolic_profile(),
                               cosh_profile(0.5), 2),
            "table": make_model(sinh, sinh, constant_profile(1.0), 2)}


_CONTRACT_RADII = np.linspace(0.2, 3.4, 6)


def _check_contract(f):
    """f takes a float to a float, and a (k,) or (j, k) array to a float64
    array of its shape, equal bit for bit to the values at its elements."""
    scalars = [f(float(x)) for x in _CONTRACT_RADII]
    for v in scalars:
        assert isinstance(v, float) and not isinstance(v, np.ndarray)
    for r in (_CONTRACT_RADII, _CONTRACT_RADII.reshape(2, 3)):
        out = f(r)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == r.shape
        np.testing.assert_array_equal(out.ravel(), scalars, strict=True)


@pytest.mark.parametrize("profile", [
    euclidean_profile(), hyperbolic_profile(kappa=0.7), cosh_profile(1.3),
    constant_profile(2.5),
    ProfileSpec("table", samples=tuple(
        (float(r), 1.0 + r * r) for r in np.linspace(0, 4, 9)))],
    ids=lambda p: p.kind)
@pytest.mark.parametrize("method", ["value", "d1", "d2", "ratio_d1",
                                    "ratio_d2", "sphere_defect"])
def test_profile_array_contract(profile, method):
    # a table profile returned a 0-d array for a float radius
    _check_contract(getattr(profile, method))


@pytest.mark.parametrize("name", ["hyp3", "warp", "table"])
def test_model_array_contract(name):
    # H and H_prime rejected arrays, and ricci_eigenvalues took one radius
    model = _contract_models()[name]
    for fn in ("A", "A_prime", "V", "zeta", "H", "H_prime", "Hcyl",
               "log_rho_d1", "log_rho_d2"):
        _check_contract(getattr(model, fn))
    frame = ambient_frame(model)
    for k in range(3):
        _check_contract(lambda r: frame.ricci_eigenvalues(r)[k])


@pytest.mark.parametrize("R", sorted(LOOP_RICCI_BOUNDS))
def test_lower_ricci_bounds_match_loop_values(R):
    assert lower_ricci_bounds(_contract_models()["warp"], R) \
        == LOOP_RICCI_BOUNDS[R]


# -- properties ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 6.0), st.floats(0.05, 6.0))
def test_volume_monotone(hyp2, r_small, r_big):
    if r_small > r_big:
        r_small, r_big = r_big, r_small
    assert hyp2.V(r_big) >= hyp2.V(r_small) - 1e-12
    assert hyp2.zeta(r_big) >= hyp2.zeta(r_small) - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 5.0))
def test_A_is_V_derivative(hyp2, r):
    h = 1e-5
    dV = (hyp2.V(r + h) - hyp2.V(max(r - h, 0.0))) / (h + min(r, h))
    assert dV == pytest.approx(hyp2.A(r), rel=1e-4, abs=1e-6)
