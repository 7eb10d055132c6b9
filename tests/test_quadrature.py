import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from killingflow.quadrature import (MAX_DEPTH, MAX_OPEN_PANELS,
                                   QuadratureError, gauss_kronrod)


def test_polynomial_exact():
    # one panel's Kronrod sum is exact to degree 23 and its Gauss sum to
    # degree 13; bisection takes every degree up to 29 to the tolerance
    for d in range(30):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        val = gauss_kronrod(lambda x, d=d: (x - 1.0) ** d, 0.0, 2.0,
                            tol=1e-12)
        assert val == pytest.approx(exact, abs=1e-12)


def test_known_integrals():
    assert gauss_kronrod(np.sin, 0.0, math.pi, tol=1e-12) == \
        pytest.approx(2.0, abs=1e-10)
    assert gauss_kronrod(np.exp, 0.0, 1.0, tol=1e-12) == \
        pytest.approx(math.e - 1.0, abs=1e-10)


def test_orientation_and_degenerate():
    assert gauss_kronrod(np.sin, math.pi, 0.0, tol=1e-10) == \
        pytest.approx(-2.0, abs=1e-8)
    assert gauss_kronrod(np.sin, 1.0, 1.0) == 0.0


def test_many_intervals_in_one_call():
    # one call, one tolerance per interval, mixed orientation; an empty
    # interval costs no evaluation and integrates to exactly zero
    a = np.array([0.0, math.pi, 1.0, 0.0])
    b = np.array([math.pi, 0.0, 1.0, 1.0])
    val = gauss_kronrod(np.sin, a, b, tol=np.array([1e-12, 1e-10, 1.0,
                                                    1e-12]))
    np.testing.assert_allclose(val, [2.0, -2.0, 0.0, 1.0 - math.cos(1.0)],
                               rtol=0, atol=1e-10)
    assert val[2] == 0.0


def test_nonfinite_integrand_raises():
    # the midpoint 0 is a Kronrod node of the first panel
    with pytest.raises(QuadratureError):
        gauss_kronrod(lambda x: np.where(x == 0.0, np.inf, 1.0), -1.0, 1.0)


def test_nan_integrand_raises():
    # sqrt of a negative argument yields NaN (and no warning under errstate)
    def f(x):
        with np.errstate(invalid="ignore"):
            return np.sqrt(0.5 - x)

    with pytest.raises(QuadratureError, match="non-finite"):
        gauss_kronrod(f, 0.0, 1.0)


def test_tolerates_noise_at_the_floor():
    # without a floor the rule would bisect this noise to the panel cap;
    # floored at noise * width it stops, with an error at the noise scale
    rng = np.random.default_rng(7)

    def noisy(x):
        return np.cos(x) + 1e-9 * (rng.random(x.shape) - 0.5)

    val = gauss_kronrod(noisy, 0.0, 1.0, tol=1e-14, noise=1e-9)
    assert val == pytest.approx(math.sin(1.0), abs=1e-8)
    with pytest.raises(QuadratureError):
        gauss_kronrod(noisy, 0.0, 1.0, tol=1e-14)


def test_panel_cap_bounds_subdivision():
    # noise the tolerance cannot resolve bisects every panel, so each
    # interval doubles its open panels per pass until the cap stops it,
    # having evaluated fewer than 2 * MAX_OPEN_PANELS panels per interval
    rng = np.random.default_rng(3)
    evals = 0

    def noisy(x):
        nonlocal evals
        evals += x.size
        return np.cos(x) + 1e-9 * (rng.random(x.shape) - 0.5)

    with pytest.raises(QuadratureError, match="open panels"):
        gauss_kronrod(noisy, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], tol=1e-14)
    assert evals < 3 * 15 * 2 * MAX_OPEN_PANELS
    # the depth cap stops a single panel chasing a jump
    evals = 0

    def step(x):
        nonlocal evals
        evals += x.size
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    with pytest.raises(QuadratureError, match="converge"):
        gauss_kronrod(step, 0.0, 1.0, tol=1e-300)
    assert evals <= 15 * 2 * (MAX_DEPTH + 1)


def test_panel_cap_is_per_interval():
    # the cap binds each interval, not the call: 10000 intervals that each
    # need bisecting spend about 84000 panels in one call
    evals = 0

    def f(x):
        nonlocal evals
        evals += x.size
        return np.cos(10.0 * x)

    edges = np.arange(10001.0)
    val = gauss_kronrod(f, edges[:-1], edges[1:], tol=1e-12)
    np.testing.assert_allclose(
        val, (np.sin(10.0 * edges[1:]) - np.sin(10.0 * edges[:-1])) / 10.0,
        rtol=0, atol=1e-12)
    assert evals > 15 * 2 * edges.size


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 4.0))
@example(a=3.059232237408527, c=3.1243376845735167, width=3.059232237408527)
def test_matches_closed_form_gaussianish(a, c, width):
    b = a + width
    val = gauss_kronrod(lambda x: np.exp(-(x - c) ** 2), a, b, tol=1e-10)
    # compare against the erf closed form
    from math import erf, sqrt, pi
    exact = sqrt(pi) / 2.0 * (erf(b - c) - erf(a - c))
    assert val == pytest.approx(exact, abs=1e-8)
