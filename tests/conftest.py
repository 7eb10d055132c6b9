import pytest

from killingflow import euclidean_model, hyperbolic_model


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
