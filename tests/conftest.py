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


def two_mode_model():
    """Two coupled, damped modes (A = Omega H - I/2 with a non-diagonal H)
    under homodyne monitoring of the rotated quadratures cos(th) q_j + sin(th) p_j:
    a physical Gaussian model whose A, B and E have no zero pattern to exploit."""
    from contmon.gaussian import GaussianModel, symplectic_form

    h = np.array([[0.2, 0.1, 0.15, 0.0], [0.1, -0.3, 0.0, 0.15],
                  [0.15, 0.0, 0.1, 0.05], [0.0, 0.15, 0.05, 0.2]])
    b = -np.sqrt(0.9) * np.array([[np.cos(0.3), 0.0], [np.sin(0.3), 0.0],
                                  [0.0, np.cos(1.1)], [0.0, np.sin(1.1)]])
    return GaussianModel(symplectic_form(2) @ h - 0.5 * np.eye(4), np.eye(4), b, b.copy())
