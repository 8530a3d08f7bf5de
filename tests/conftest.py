import pytest

from llvkit.models import (bogomolov_model, k3_gram, k3_ring, torus_bigraded,
                           torus_ring)
from llvkit.rings import QuadraticForm


@pytest.fixture(scope="session")
def k3():
    return k3_ring(k3_gram())


@pytest.fixture(scope="session")
def model52():
    return bogomolov_model(QuadraticForm.diagonal([1, 1, 1, -1, -1]), 2)


@pytest.fixture(scope="session")
def rat52(model52):
    return model52.rational_model


@pytest.fixture(scope="session")
def model62():
    return bogomolov_model(QuadraticForm.diagonal([1, 1, 1, -1, -1, -1]), 2)


@pytest.fixture(scope="session")
def model53():
    return bogomolov_model(QuadraticForm.diagonal([1, 1, 1, -1, -1]), 3)


@pytest.fixture(scope="session")
def k3big():
    return bogomolov_model(QuadraticForm(k3_gram()), 1)


@pytest.fixture(scope="session")
def torus2():
    return torus_ring(2)


@pytest.fixture(scope="session")
def torus_big():
    return torus_bigraded()


@pytest.fixture(scope="session")
def k3_closure(k3):
    from lie_oracles import llv_closure
    return llv_closure(k3)
