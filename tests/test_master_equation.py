import numpy as np
import pytest

from contmon import (
    BathSpec,
    OpenSystemModel,
    PiecewiseConstantHamiltonian,
    coherent_drive_hamiltonian,
    generalized_bath_me_rhs,
    integrate_me,
    liouvillian_apply,
    liouvillian_matrix,
    steady_state,
)
from contmon import core_ops, master_equation
from contmon.core_ops import InvalidStateError, build_standard_ops, rk4_step
from contmon.master_equation import MAX_SUPEROPERATOR_DIM, StepSizeError

from conftest import random_density_matrix


def grid(t_final, dt):
    return np.arange(int(round(t_final / dt)) + 1) * dt


def test_liouvillian_reduces_to_dissipator(decay_model, excited):
    np.testing.assert_allclose(
        liouvillian_apply(decay_model, excited), np.diag([-1.0, 1.0]), atol=1e-15
    )


def test_liouvillian_commuting_hamiltonian(qubit_ops, excited):
    model = OpenSystemModel(qubit_ops["sigma_z"], [])
    np.testing.assert_allclose(liouvillian_apply(model, excited), 0, atol=1e-15)


def test_liouvillian_pure_hamiltonian(qubit_ops, excited):
    model = OpenSystemModel(qubit_ops["sigma_x"], [])
    expected = np.array([[0, 1j], [-1j, 0]])
    np.testing.assert_allclose(liouvillian_apply(model, excited), expected, atol=1e-15)


def test_decay_rk4_analytic(decay_model, excited):
    t = grid(1.0, 1e-3)
    states = integrate_me(decay_model, excited, t, stepper="rk4")
    assert abs(states[-1][0, 0].real - np.exp(-1.0)) < 1e-6


def test_free_evolution_is_identity(qubit_ops):
    model = OpenSystemModel(np.zeros((2, 2)), [])
    rho0 = random_density_matrix(np.random.default_rng(1))
    states = integrate_me(model, rho0, grid(0.5, 1e-2))
    np.testing.assert_allclose(states[-1], rho0, atol=1e-14)


def test_semigroup_property(decay_model, excited):
    dt = 1e-2
    part1 = integrate_me(decay_model, excited, grid(0.3, dt), stepper="expm")
    part2 = integrate_me(decay_model, part1[-1], grid(0.5, dt), stepper="expm")
    direct = integrate_me(decay_model, excited, grid(0.8, dt), stepper="expm")
    assert np.max(np.abs(part2[-1] - direct[-1])) <= 1e-8


def test_rk4_expm_agree(decay_model, excited):
    t = grid(1.0, 1e-3)
    a = integrate_me(decay_model, excited, t, stepper="rk4")
    b = integrate_me(decay_model, excited, t, stepper="expm")
    assert np.max(np.abs(a[-1] - b[-1])) <= 1e-7


def test_positivity_and_trace_along_decay(decay_model, excited):
    states = integrate_me(decay_model, excited, grid(2.0, 1e-2))
    traces = np.einsum("tii->t", states)
    np.testing.assert_allclose(traces.real, 1.0, atol=1e-9)
    eigs = np.linalg.eigvalsh(0.5 * (states + states.conj().swapaxes(-1, -2)))
    assert eigs.min() >= -1e-9


def test_step_size_rejection(decay_model, excited):
    with pytest.raises(StepSizeError):
        integrate_me(decay_model, excited, grid(200.0, 10.0))


def test_liouvillian_matrix_eigenvalues(decay_model):
    # oracle: eigen-decomposition of the dense 4x4 superoperator
    lmat = liouvillian_matrix(decay_model)
    vals = np.sort_complex(np.linalg.eigvals(lmat))
    np.testing.assert_allclose(
        np.sort(vals.real), np.array([-1.0, -0.5, -0.5, 0.0]), atol=1e-12
    )
    np.testing.assert_allclose(vals.imag, 0, atol=1e-12)


def test_liouvillian_matrix_zero_model():
    model = OpenSystemModel(np.zeros((2, 2)), [])
    np.testing.assert_array_equal(liouvillian_matrix(model), np.zeros((4, 4)))


def test_liouvillian_matrix_trace_preservation(decay_model):
    lmat = liouvillian_matrix(decay_model)
    left = np.eye(2, dtype=complex).reshape(-1).conj() @ lmat
    np.testing.assert_allclose(left, 0, atol=1e-14)


def test_liouvillian_matrix_dimension_refusal():
    dim = MAX_SUPEROPERATOR_DIM + 1
    model = OpenSystemModel(np.zeros((dim, dim)), [])
    with pytest.raises(ValueError, match="refused"):
        liouvillian_matrix(model)


def test_generalized_vacuum_reduction(decay_model, excited):
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = random_density_matrix(rng)
        np.testing.assert_array_equal(
            generalized_bath_me_rhs(decay_model, rho), liouvillian_apply(decay_model, rho)
        )


def test_generalized_thermal_rhs_value(qubit_ops, excited):
    # direct term-by-term algebra: kappa(N+1) D[sm] + kappa N D[sp] on |e><e|
    model = OpenSystemModel(
        np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], bath=BathSpec(n_thermal=1.0)
    )
    rhs = generalized_bath_me_rhs(model, excited)
    np.testing.assert_allclose(rhs, np.diag([-2.0, 2.0]), atol=1e-14)


def test_thermal_steady_state(qubit_ops):
    model = OpenSystemModel(
        np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], bath=BathSpec(n_thermal=1.0)
    )
    rho_ss = np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(complex)
    assert np.max(np.abs(generalized_bath_me_rhs(model, rho_ss))) < 1e-12
    np.testing.assert_allclose(steady_state(model), rho_ss, atol=1e-12)


def test_thermal_gibbs_ratio(qubit_ops):
    n = 0.37
    model = OpenSystemModel(
        np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], bath=BathSpec(n_thermal=n)
    )
    rho_ss = steady_state(model)
    ratio = rho_ss[1, 1].real / rho_ss[0, 0].real
    assert ratio == pytest.approx((n + 1.0) / n, rel=1e-10)


def test_generalized_rhs_hermitian_traceless(qubit_ops):
    rng = np.random.default_rng(8)
    model = OpenSystemModel(
        qubit_ops["sigma_z"],
        [(0.7, qubit_ops["sigma_minus"])],
        bath=BathSpec(n_thermal=0.8, squeezing=0.5 + 0.3j, drive=0.2 - 0.1j),
    )
    for _ in range(5):
        rho = random_density_matrix(rng)
        rhs = generalized_bath_me_rhs(model, rho)
        assert abs(np.trace(rhs)) < 1e-12
        np.testing.assert_allclose(rhs, rhs.conj().T, atol=1e-12)


def test_coherent_drive_hamiltonian(qubit_ops):
    h = coherent_drive_hamiltonian(qubit_ops["sigma_minus"], 1.0, 1.0)
    np.testing.assert_allclose(h, qubit_ops["sigma_y"], atol=1e-15)
    np.testing.assert_array_equal(
        coherent_drive_hamiltonian(qubit_ops["sigma_minus"], 1.0, 0.0), np.zeros((2, 2))
    )
    h2 = coherent_drive_hamiltonian(qubit_ops["sigma_minus"], 2.0, 0.3 + 0.4j)
    np.testing.assert_allclose(h2, h2.conj().T, atol=1e-15)


def test_bath_physicality():
    with pytest.raises(ValueError, match="unphysical"):
        BathSpec(n_thermal=0.5, squeezing=2.0)
    BathSpec(n_thermal=1.0, squeezing=np.sqrt(2.0))  # squeezed vacuum boundary


def test_piecewise_hamiltonian_schedule(qubit_ops, excited):
    # two constant segments must agree with integrating each piece separately
    h1, h2 = 0.8 * qubit_ops["sigma_x"], -0.3 * qubit_ops["sigma_z"]
    schedule = PiecewiseConstantHamiltonian([(0.5, h1), (np.inf, h2)])
    model = OpenSystemModel(schedule, [(0.4, qubit_ops["sigma_minus"])])
    dt = 1e-3
    full = integrate_me(model, excited, grid(1.0, dt))
    m1 = OpenSystemModel(h1, [(0.4, qubit_ops["sigma_minus"])])
    m2 = OpenSystemModel(h2, [(0.4, qubit_ops["sigma_minus"])])
    first = integrate_me(m1, excited, grid(0.5, dt))
    second = integrate_me(m2, first[-1], grid(0.5, dt))
    np.testing.assert_allclose(full[-1], second[-1], atol=1e-9)

    expm_full = integrate_me(model, excited, grid(1.0, 1e-2), stepper="expm")
    np.testing.assert_allclose(expm_full[-1], second[-1], atol=1e-6)
    with pytest.raises(ValueError, match="breakpoints"):
        integrate_me(model, excited, grid(1.0, 0.3), stepper="expm")


def test_model_validation(qubit_ops):
    with pytest.raises(ValueError, match="Hermitian"):
        OpenSystemModel(np.array([[0, 1], [0, 0]], dtype=complex), [])
    with pytest.raises(ValueError, match="rates"):
        OpenSystemModel(np.zeros((2, 2)), [(-1.0, qubit_ops["sigma_minus"])])
    with pytest.raises(ValueError, match="efficiency"):
        OpenSystemModel(np.zeros((2, 2)), [], efficiency=1.2)


@pytest.mark.parametrize("case", ["bath_qubit", "bath_boson", "schedule"])
def test_integrate_me_rk4_is_the_rk4_of_generalized_bath_me_rhs(qubit_ops, case):
    # the compiled right-hand side must keep generalized_bath_me_rhs's bits
    if case == "bath_qubit":  # two channels in a thermal, squeezed, driven bath
        model = OpenSystemModel(0.3 * qubit_ops["sigma_x"],
                                [(1.0, qubit_ops["sigma_minus"]), (0.4, qubit_ops["sigma_z"])],
                                bath=BathSpec(0.5, 0.4 + 0.3j, 0.3 + 0.2j))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
    elif case == "bath_boson":
        ops = build_standard_ops("boson", 5)
        model = OpenSystemModel(0.2 * ops["q"] @ ops["q"], [(1.0, ops["a"])],
                                bath=BathSpec(0.3, 0.2j, 0.4))
        rho0 = np.diag([0.0, 0.0, 1.0, 0.0, 0.0]).astype(complex)
    else:  # a piecewise-constant Hamiltonian that switches on a grid point
        schedule = PiecewiseConstantHamiltonian(
            [(0.5, 0.3 * qubit_ops["sigma_x"]), (np.inf, 0.7 * qubit_ops["sigma_y"])]
        )
        model = OpenSystemModel(schedule, [(1.0, qubit_ops["sigma_minus"])],
                                bath=BathSpec(0.2, -0.3, 0.1))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = grid(2.0, 1e-2)
    expected = [rho0]
    for time in t[:-1]:
        expected.append(rk4_step(lambda r: generalized_bath_me_rhs(model, r, time),
                                 expected[-1], 1e-2))
    np.testing.assert_array_equal(integrate_me(model, rho0, t), np.array(expected))


def test_integrate_me_checks_operators_once(decay_model, excited, monkeypatch):
    # the operators and the initial state are checked at entry, not per RHS call
    calls = []
    original = core_ops._check_square

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(core_ops, "_check_square", counted)
    monkeypatch.setattr(master_equation, "_check_square", counted)
    integrate_me(decay_model, excited, grid(0.1, 1e-2))
    short = len(calls)
    integrate_me(decay_model, excited, grid(1.0, 1e-2))
    assert len(calls) == 2 * short


def test_integrate_me_rejects_non_finite_operators(qubit_ops, excited):
    channel = qubit_ops["sigma_minus"].copy()
    channel[1, 0] = np.nan
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, channel)])
    with pytest.raises(InvalidStateError, match="non-finite"):
        integrate_me(model, excited, grid(0.1, 1e-2))
