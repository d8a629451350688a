import warnings

import numpy as np
import pytest

from contmon import (
    BathSpec,
    OpenSystemModel,
    coherent_drive_hamiltonian,
    generalized_bath_me_rhs,
    integrate_me,
    liouvillian_apply,
    liouvillian_matrix,
    me_expectations,
    steady_state,
)
from contmon import core_ops, master_equation
from contmon.core_ops import (
    DimensionMismatchError,
    InvalidStateError,
    build_standard_ops,
    rk4_step,
)
from contmon.master_equation import (
    MAX_RK4_MATRIX_DIM,
    MAX_SUPEROPERATOR_DIM,
    StepSizeError,
    model_cache,
)

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


@pytest.mark.parametrize("kwargs, name", [
    ({"n_thermal": np.nan}, "n_thermal"),
    ({"n_thermal": np.inf}, "n_thermal"),
    ({"n_thermal": 1.0, "squeezing": np.nan}, "squeezing"),
    ({"n_thermal": 1.0, "squeezing": complex(0.0, np.inf)}, "squeezing"),
    ({"drive": np.inf}, "drive"),
    ({"drive": complex(np.nan, 0.0)}, "drive"),
])
def test_bath_rejects_non_finite_statistics(kwargs, name):
    # nan < 0 and |M|^2 > nan are both False, so these used to be accepted
    with pytest.raises(ValueError, match=f"bath {name} must be finite"):
        BathSpec(**kwargs)


@pytest.mark.parametrize("form", ["rk4", "expm", "rk4_stage"])
def test_nan_trace_drift_raises(qubit_ops, decay_model, excited, form, monkeypatch):
    # a NaN drift fails the limit too: the expm branch used to test
    # drift > limit and returned all-NaN states without an error.  At d = 2
    # both steppers apply a step matrix; above MAX_RK4_MATRIX_DIM rk4 steps
    # in stage form
    if form == "rk4_stage":
        model, rho0 = general_bath_case(qubit_ops, "boson_above_bound")
        d = model.dim
        monkeypatch.setattr(master_equation, "rk4_step", lambda *a, **k: np.full((d, d), np.nan))
    else:
        model, rho0 = decay_model, excited
        monkeypatch.setattr(master_equation, "_propagator", lambda *a, **k: np.full((4, 4), np.nan))
    with pytest.raises(StepSizeError, match="trace drift nan"):
        integrate_me(model, rho0, grid(0.1, 1e-2), stepper=form.removesuffix("_stage"))


def test_model_validation(qubit_ops):
    with pytest.raises(ValueError, match="Hermitian"):
        OpenSystemModel(np.array([[0, 1], [0, 0]], dtype=complex), [])
    with pytest.raises(ValueError, match="rates"):
        OpenSystemModel(np.zeros((2, 2)), [(-1.0, qubit_ops["sigma_minus"])])
    with pytest.raises(ValueError, match="efficiency"):
        OpenSystemModel(np.zeros((2, 2)), [], efficiency=1.2)


def general_bath_case(qubit_ops, case):
    """(model, rho0) of a two-channel qubit in a thermal, squeezed, driven
    bath, a boson in one, a driven d = 12 mode, a boson in a thermal, driven
    bath at d = MAX_RK4_MATRIX_DIM or one above it, or one above it in a
    thermal, squeezed, driven bath."""
    if case == "boson_d12":  # the driven d = 12 mode of the boson benchmark
        ops = build_standard_ops("boson", 12)
        model = OpenSystemModel(np.zeros((12, 12)), [(1.0, ops["a"])], bath=BathSpec(drive=0.5))
        rho0 = np.diag(np.eye(12)[3]).astype(complex)
    elif case in ("boson_at_bound", "boson_above_bound", "squeezed_above_bound"):
        dim = MAX_RK4_MATRIX_DIM + (case != "boson_at_bound")
        ops = build_standard_ops("boson", dim)
        bath = (BathSpec(0.3, 0.3 + 0.2j, 0.4) if case == "squeezed_above_bound"
                else BathSpec(n_thermal=0.3, drive=0.4))
        model = OpenSystemModel(0.2 * ops["q"] @ ops["q"], [(1.0, ops["a"])], bath=bath)
        rho0 = np.diag(np.eye(dim)[2]).astype(complex)
    elif case == "bath_qubit":  # two channels in a thermal, squeezed, driven bath
        model = OpenSystemModel(0.3 * qubit_ops["sigma_x"],
                                [(1.0, qubit_ops["sigma_minus"]), (0.4, qubit_ops["sigma_z"])],
                                bath=BathSpec(0.5, 0.4 + 0.3j, 0.3 + 0.2j))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
    else:  # a boson in a thermal, squeezed, driven bath
        ops = build_standard_ops("boson", 5)
        model = OpenSystemModel(0.2 * ops["q"] @ ops["q"], [(1.0, ops["a"])],
                                bath=BathSpec(0.3, 0.2j, 0.4))
        rho0 = np.diag([0.0, 0.0, 1.0, 0.0, 0.0]).astype(complex)
    return model, rho0


def stage_form_rk4(model, rho0, t):
    """The classical RK4 of generalized_bath_me_rhs, four stages per step."""
    dt = t[1] - t[0]
    states = [rho0]
    for _ in t[:-1]:
        states.append(rk4_step(lambda r: generalized_bath_me_rhs(model, r), states[-1], dt))
    return np.array(states)


def test_integrate_me_rk4_is_the_rk4_of_generalized_bath_me_rhs(qubit_ops):
    # above MAX_RK4_MATRIX_DIM the compiled right-hand side steps in stage
    # form and must keep generalized_bath_me_rhs's bits, the squeezed bath's
    # double commutators included
    t = grid(2.0, 1e-2)
    for case in ("boson_above_bound", "squeezed_above_bound"):
        model, rho0 = general_bath_case(qubit_ops, case)
        np.testing.assert_array_equal(integrate_me(model, rho0, t), stage_form_rk4(model, rho0, t))


@pytest.mark.parametrize("case", ["bath_qubit", "bath_boson", "boson_d12", "boson_at_bound",
                                  "boson_above_bound"])
def test_rk4_matrix_agrees_with_the_stage_form(qubit_ops, case):
    # the cached step matrix is the RK4 stability polynomial of dt L, so it
    # reorders the stage form's arithmetic but not its result
    model, rho0 = general_bath_case(qubit_ops, case)
    t = grid(2.0, 1e-3)
    got, ref = integrate_me(model, rho0, t), stage_form_rk4(model, rho0, t)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    matrix_form = any(key[0] == "propagator" for key in model_cache(model))
    assert matrix_form == (model.dim <= MAX_RK4_MATRIX_DIM)


@pytest.mark.parametrize("dt", [1e-6, 1e-2, 0.5])
@pytest.mark.parametrize("case", ["boson_d12", "bath_qubit", "bath_boson"])
def test_expm_propagator_matches_scipy(qubit_ops, case, dt):
    from scipy.linalg import expm as scipy_expm

    model, _ = general_bath_case(qubit_ops, case)
    lmat = liouvillian_matrix(model) * dt
    got, ref = core_ops.expm(lmat), scipy_expm(lmat)
    assert np.linalg.norm(got - ref, 1) <= 1e-12 * np.linalg.norm(ref, 1)


@pytest.mark.parametrize("case", ["bath_qubit", "bath_boson"])
def test_liouvillian_matrix_is_generalized_bath_me_rhs(qubit_ops, case):
    # the superoperator of the expm stepper and steady_state, on a general bath
    model, rho0 = general_bath_case(qubit_ops, case)
    rng = np.random.default_rng(17)
    for _ in range(2):
        rho = random_density_matrix(rng, model.dim)
        got = liouvillian_matrix(model) @ rho.ravel()
        assert np.max(np.abs(got - generalized_bath_me_rhs(model, rho).ravel())) <= 1e-13
    if case == "bath_qubit":
        t = grid(2.0, 1e-2)
        np.testing.assert_allclose(integrate_me(model, rho0, t, stepper="expm"),
                                   integrate_me(model, rho0, t), rtol=0, atol=1e-8)


def test_integrate_me_checks_operators_once(decay_model, excited, monkeypatch):
    # the initial state is checked at entry and the operators when the model
    # is built, not per step
    calls = []
    original = core_ops._check_square

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(core_ops, "_check_square", counted)
    monkeypatch.setattr(master_equation, "_check_square", counted)
    counts = []
    for t_final in (0.1, 1.0):
        model = OpenSystemModel(decay_model.hamiltonian, decay_model.channels)
        calls.clear()
        integrate_me(model, excited, grid(t_final, 1e-2))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_integrate_me_rejects_non_finite_operators(qubit_ops, excited):
    # the model refuses the operator when it is built, so no integration
    # reaches it
    channel = qubit_ops["sigma_minus"].copy()
    channel[1, 0] = np.nan
    with pytest.raises(InvalidStateError, match="non-finite"):
        model = OpenSystemModel(np.zeros((2, 2)), [(1.0, channel)])
        integrate_me(model, excited, grid(0.1, 1e-2))


@pytest.mark.parametrize("h_entry, rate, entry, phase, message", [
    (0.0, np.nan, 0.0, 0.0, "channel rates must be finite"),
    (0.0, np.inf, 0.0, 0.0, "channel rates must be finite"),
    (0.0, 1.0, np.nan, 0.0, "collapse operator contains non-finite entries"),
    (0.0, 1.0, complex(0.0, np.inf), 0.0, "collapse operator contains non-finite entries"),
    (0.0, 1.0, 0.0, np.nan, "homodyne_phase must be finite"),
    (0.0, 1.0, 0.0, -np.inf, "homodyne_phase must be finite"),
    (np.nan, 1.0, 0.0, 0.0, "Hamiltonian contains non-finite entries"),
    (np.inf, 1.0, 0.0, 0.0, "Hamiltonian contains non-finite entries"),
], ids=["nan_rate", "inf_rate", "nan_operator", "inf_operator", "nan_phase", "inf_phase",
        "nan_hamiltonian", "inf_hamiltonian"])
def test_model_rejects_non_finite_fields(qubit_ops, h_entry, rate, entry, phase, message):
    # nan < 0 is False, so these used to be accepted, and a homodyne or jump
    # ensemble on the model then died with a bare AssertionError.  A NaN in
    # the Hamiltonian was reported as non-Hermitian, and an inf one leaked a
    # RuntimeWarning from the Hermiticity check
    channel = qubit_ops["sigma_minus"].copy()
    channel[1, 1] += entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            OpenSystemModel(np.diag([h_entry, 0.0]), [(rate, channel)], homodyne_phase=phase)


@pytest.mark.parametrize("case, stepper", [("qubit", "rk4"), ("qubit", "expm"),
                                           ("boson_above_bound", "rk4")])
def test_dimension_mismatch_names_both_dimensions(qubit_ops, case, stepper):
    # numpy's matmul and einsum errors used to leak out of both steppers, the
    # stage form and me_expectations
    model = (OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])])
             if case == "qubit" else general_bath_case(qubit_ops, case)[0])
    d = model.dim
    with pytest.raises(DimensionMismatchError, match=f"dimension mismatch: 3 vs {d}"):
        integrate_me(model, np.eye(3, dtype=complex) / 3, grid(0.1, 1e-2), stepper=stepper)
    start = np.diag(np.eye(d)[0]).astype(complex)
    with pytest.raises(DimensionMismatchError, match=f"dimension mismatch: {d} vs 3"):
        me_expectations(model, start, grid(0.1, 1e-2), [("n", np.eye(3))])


def test_steady_state_refuses_a_degenerate_kernel(qubit_ops):
    # a Hamiltonian alone leaves a two-dimensional kernel, from which the
    # eigensolver returned a mixture of trace near zero: normalized, it had
    # entries of 4e7 and a minimum eigenvalue of -4e7
    with pytest.raises(InvalidStateError, match="no unique steady state: min eigenvalue"):
        steady_state(OpenSystemModel(qubit_ops["sigma_x"], []))


@pytest.mark.parametrize("dim", [2, 5, 12])
@pytest.mark.parametrize("bath", [BathSpec(), BathSpec(0.5, 0.3, 0.2)], ids=["vacuum", "bath"])
def test_steady_state_of_a_damped_mode_is_a_state(dim, bath):
    ops = build_standard_ops("boson", dim)
    model = OpenSystemModel(0.2 * ops["q"] @ ops["q"], [(1.0, ops["a"])], bath=bath)
    rho = steady_state(model)
    assert np.max(np.abs(liouvillian_matrix(model) @ rho.ravel())) <= 1e-10
