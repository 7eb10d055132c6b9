import pytest

from killingflow import euclidean_model, hyperbolic_model
from killingflow.geometry import (constant_profile, hyperbolic_profile,
                                  make_model)


@pytest.fixture(scope="session")
def euclid2():
    return euclidean_model(n=2)


@pytest.fixture(scope="session")
def euclid3():
    return euclidean_model(n=3)


@pytest.fixture(scope="session")
def hyp2():
    return hyperbolic_model(n=2)


@pytest.fixture(scope="session")
def hyp3():
    return hyperbolic_model(n=3)


@pytest.fixture(scope="session")
def sinh2():
    # xi = sinh r with rho = 1: no closed-form heights or rim time, so the
    # quadrature paths run
    return make_model(hyperbolic_profile(), hyperbolic_profile(),
                      constant_profile(1.0), 2)
