import numpy as np
import pytest
from hypothesis import settings

from contmon import OpenSystemModel, build_standard_ops

# the same examples on every run, independent of the .hypothesis/ example
# database, and no per-example deadline on a loaded machine
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def qubit_ops():
    return build_standard_ops("qubit")


@pytest.fixture()
def decay_model(qubit_ops):
    """Spontaneous emission at unit rate, no Hamiltonian, perfect detection."""
    return OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])])


@pytest.fixture()
def excited():
    return np.diag([1.0, 0.0]).astype(complex)


@pytest.fixture()
def ground():
    return np.diag([0.0, 1.0]).astype(complex)


def random_density_matrix(rng, dim=2):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim=2):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (mat + mat.conj().T)
