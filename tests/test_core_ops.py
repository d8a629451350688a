import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmon.core_ops import (
    DimensionMismatchError,
    InvalidStateError,
    StateDiagnostics,
    build_standard_ops,
    coords_min_eigenvalue,
    coords_trace,
    dissipator,
    ensure_density_matrix,
    expectation,
    expm,
    from_coords,
    hermitian_basis,
    hermitize,
    is_hermitian,
    measurement_superop,
    min_eigenvalue,
    to_coords,
    validate_state,
)

from conftest import random_density_matrix


def test_dissipator_decay_from_excited(qubit_ops, excited):
    out = dissipator(qubit_ops["sigma_minus"], excited)
    np.testing.assert_allclose(out, np.diag([-1.0, 1.0]), atol=1e-15)


def test_dissipator_dark_state(qubit_ops, ground):
    out = dissipator(qubit_ops["sigma_minus"], ground)
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)


@pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2, 1.3, 0.7])
def test_dissipator_phase_invariance(qubit_ops, theta):
    rng = np.random.default_rng(7)
    rho = random_density_matrix(rng)
    sm = qubit_ops["sigma_minus"]
    np.testing.assert_allclose(
        dissipator(sm * np.exp(1j * theta), rho), dissipator(sm, rho), atol=1e-14
    )


def test_dissipator_traceless_and_hermitian(qubit_ops):
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density_matrix(rng, dim=4)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = dissipator(op, rho)
        assert abs(np.trace(out)) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_dissipator_dimension_mismatch(qubit_ops):
    with pytest.raises(DimensionMismatchError):
        dissipator(qubit_ops["sigma_minus"], np.eye(3, dtype=complex) / 3)


def test_measurement_superop_on_excited(qubit_ops, excited):
    out = measurement_superop(qubit_ops["sigma_minus"], excited)
    np.testing.assert_allclose(out, np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_measurement_superop_on_mixed(qubit_ops):
    out = measurement_superop(qubit_ops["sigma_minus"], np.eye(2, dtype=complex) / 2)
    np.testing.assert_allclose(out, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)


def test_measurement_superop_zero_operator(qubit_ops, excited):
    out = measurement_superop(np.zeros((2, 2), dtype=complex), excited)
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)


def test_measurement_superop_traceless(qubit_ops):
    rng = np.random.default_rng(11)
    rho = random_density_matrix(rng)
    out = measurement_superop(qubit_ops["sigma_minus"], rho)
    assert abs(np.trace(out)) < 1e-12


def test_measurement_superop_is_nonlinear(qubit_ops):
    # H[A](alpha rho) != alpha H[A] rho because of the expectation-value term
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng)
    sm = qubit_ops["sigma_minus"]
    lhs = measurement_superop(sm, 2.0 * rho, check_trace=False)
    rhs = 2.0 * measurement_superop(sm, rho, check_trace=False)
    assert np.max(np.abs(lhs - rhs)) > 1e-3


def test_measurement_superop_rejects_unnormalized(qubit_ops):
    with pytest.raises(InvalidStateError):
        measurement_superop(qubit_ops["sigma_minus"], np.diag([2.0, 0.0]).astype(complex))


def test_expectation_examples(qubit_ops, excited):
    assert expectation(excited, qubit_ops["sigma_z"]) == pytest.approx(1.0)
    assert expectation(np.eye(2, dtype=complex) / 2, qubit_ops["sigma_x"]) == pytest.approx(0.0)
    number = qubit_ops["sigma_plus"] @ qubit_ops["sigma_minus"]
    assert expectation(excited, number) == pytest.approx(1.0)


def test_expectation_real_for_hermitian(qubit_ops):
    rng = np.random.default_rng(2)
    rho = random_density_matrix(rng)
    val = expectation(rho, qubit_ops["sigma_y"])
    assert abs(val.imag) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_hermitian_basis_is_orthonormal_with_populations_first(dim):
    basis = hermitian_basis(dim)
    assert basis.shape == (dim * dim, dim, dim)
    np.testing.assert_allclose(np.einsum("aij,bji->ab", basis, basis), np.eye(dim * dim),
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(basis, np.conj(np.swapaxes(basis, 1, 2)))
    # the first d elements are the populations |j><j|, and they sum to I
    np.testing.assert_array_equal(basis[:dim], [np.diag(e) for e in np.eye(dim)])
    np.testing.assert_array_equal(to_coords(np.eye(dim)), np.r_[np.ones(dim), np.zeros(dim * dim - dim)])


def test_pauli_coordinates_at_d2(qubit_ops):
    s = np.sqrt(2.0)
    for g, name in zip(hermitian_basis(2)[2:], ("sigma_x", "sigma_y")):
        np.testing.assert_allclose(g, qubit_ops[name] / s, rtol=0, atol=1e-16)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_coordinate_round_trip(dim):
    rng = np.random.default_rng(40 + dim)
    rho = np.array([random_density_matrix(rng, dim) for _ in range(64)])
    r = to_coords(rho)
    assert r.shape == (dim * dim, 64) and r.dtype == np.float64
    np.testing.assert_allclose(from_coords(r), rho, rtol=0, atol=1e-15)
    np.testing.assert_allclose(coords_trace(r), 1.0, rtol=0, atol=1e-15)
    # one state and a batch of one go through the same conversion
    np.testing.assert_array_equal(to_coords(rho[0]), r[:, 0])
    np.testing.assert_array_equal(from_coords(r[:, 0]), from_coords(r[:, :1])[0])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_coordinate_min_eigenvalue_matches_eigvalsh(dim):
    rng = np.random.default_rng(50 + dim)
    mixed = np.array([random_density_matrix(rng, dim) for _ in range(200)])
    psi = rng.normal(size=(200, dim)) + 1j * rng.normal(size=(200, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    pure = np.einsum("bi,bj->bij", psi, psi.conj())
    for rho in (mixed, pure):
        np.testing.assert_allclose(coords_min_eigenvalue(to_coords(rho)),
                                   np.linalg.eigvalsh(rho)[:, 0], rtol=0, atol=1e-15)


def test_qubit_basis_convention(qubit_ops):
    # (|e>, |g>) ordering: sigma_minus lowers e -> g
    np.testing.assert_array_equal(qubit_ops["sigma_minus"], np.array([[0, 0], [1, 0]]))


def test_boson_ladder_entries():
    ops = build_standard_ops("boson", 3)
    assert ops["a"][0, 1] == pytest.approx(1.0)
    assert ops["a"][1, 2] == pytest.approx(np.sqrt(2.0))


def test_boson_commutator_truncation():
    # oracle: direct matrix product of the constructed quadratures
    ops = build_standard_ops("boson", 8)
    comm = ops["q"] @ ops["p"] - ops["p"] @ ops["q"]
    np.testing.assert_allclose(np.diag(comm)[:7], 1j * np.ones(7), atol=1e-12)
    # truncation corrupts the last diagonal entry
    assert abs(np.diag(comm)[7] - 1j) > 1.0
    off_diag = comm - np.diag(np.diag(comm))
    np.testing.assert_allclose(off_diag, 0, atol=1e-12)


def test_boson_number_spectrum():
    ops = build_standard_ops("boson", 6)
    spectrum = np.sort(np.linalg.eigvalsh(ops["a_dag"] @ ops["a"]))
    np.testing.assert_allclose(spectrum, np.arange(6), atol=1e-12)


def test_boson_dim_too_small():
    with pytest.raises(ValueError):
        build_standard_ops("boson", 1)


def test_validate_state_perfect(excited):
    diag = validate_state(excited)
    assert diag.hermiticity_defect == 0
    assert diag.trace_defect == 0
    assert diag.min_eigenvalue == pytest.approx(0.0, abs=1e-15)
    assert diag.is_physical()


def test_validate_state_trace_defect():
    diag = validate_state(np.diag([1.1, 0.0]).astype(complex))
    assert diag.trace_defect == pytest.approx(0.1)
    assert not diag.is_physical()


def test_validate_state_negative_eigenvalue():
    rho = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
    diag = validate_state(rho)
    assert diag.min_eigenvalue == pytest.approx(-0.1)
    assert not diag.is_physical()


def test_truncation_leak_flag():
    ops = build_standard_ops("boson", 4)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert not validate_state(rho).truncation_leak()
    leaky = np.zeros((4, 4), dtype=complex)
    leaky[0, 0] = 1.0 - 1e-5
    leaky[3, 3] = 1e-5  # population in the top Fock level beyond 1e-6
    assert validate_state(leaky).truncation_leak()
    assert ops["n"][3, 3].real == 3.0


# per validation tolerance: its value, a state whose one defect has the size
# x, and the message of ensure_density_matrix
TOLERANCE_STATES = {
    "hermiticity": (1e-10, lambda x: np.array([[0.5, x], [0.0, 0.5]], dtype=complex),
                    "hermiticity defect"),
    "trace": (1e-9, lambda x: np.diag([0.5 + x, 0.5]).astype(complex), "trace defect"),
    "positivity": (1e-10, lambda x: np.diag([1.0 + x, -x]).astype(complex), "min eigenvalue"),
}


@pytest.mark.parametrize("side", [0.9, 1.1], ids=["inside", "outside"])
@pytest.mark.parametrize("defect", sorted(TOLERANCE_STATES))
def test_validation_tolerances_sit_at_their_bounds(defect, side):
    tol, state, message = TOLERANCE_STATES[defect]
    rho = state(side * tol)
    inside = side < 1.0
    assert validate_state(rho).is_physical() == inside
    if inside:
        ensure_density_matrix(rho)
    else:
        with pytest.raises(InvalidStateError, match=message):
            ensure_density_matrix(rho)
    if defect == "hermiticity":
        assert is_hermitian(rho) == inside


def test_ensure_density_matrix_lists_every_defect_in_order():
    # Hermiticity defect 0.1, trace defect 0.2 and, of the Hermitian part,
    # the eigenvalue 0.6 - 0.65
    rho = np.array([[0.6, 0.7], [0.6, 0.6]], dtype=complex)
    with pytest.raises(InvalidStateError) as err:
        ensure_density_matrix(rho)
    assert str(err.value) == ("state is not a valid density matrix: hermiticity defect "
                              "1.000e-01; trace defect 2.000e-01; min eigenvalue -5.000e-02")
    # a NaN defect breaks its tolerance, for both readers of the defect list
    diag = StateDiagnostics(0.0, float("nan"), 0.0, 0.0)
    assert diag.defects() == ["trace defect nan"] and not diag.is_physical()


def test_truncation_leak_sits_at_its_bound():
    for top, leak in ((0.9e-6, False), (1.1e-6, True)):
        rho = np.diag([1.0 - top, 0.0, 0.0, top]).astype(complex)
        assert validate_state(rho).truncation_leak() == leak
        assert validate_state(rho).is_physical()


def test_unknown_operator_set_kind():
    with pytest.raises(ValueError, match="unknown operator set"):
        build_standard_ops("qutrit")


def test_min_eigenvalue_2x2_matches_eigvalsh():
    rng = np.random.default_rng(9)
    batch = np.stack([random_density_matrix(rng) for _ in range(64)])
    fast = min_eigenvalue(batch)
    slow = np.linalg.eigvalsh(batch)[:, 0]
    np.testing.assert_allclose(fast, slow, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), theta=st.floats(0, 2 * np.pi))
def test_dissipator_phase_invariance_property(seed, theta):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng)
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(
        dissipator(op * np.exp(1j * theta), rho), dissipator(op, rho), atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_superoperators_traceless_property(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, dim=3)
    op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert abs(np.trace(dissipator(op, rho))) < 1e-12
    assert abs(np.trace(measurement_superop(op, rho))) < 1e-12


def test_hermitize_is_c_contiguous_at_every_batch_size():
    # a large batch used to come out per-matrix transposed, strides
    # (2304, 16, 192) for (1024, 12, 12), because numpy reused the dagger
    # temporary for the sum
    rng = np.random.default_rng(8)
    for shape in ((2, 2), (3, 4, 4), (1024, 12, 12)):
        mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = hermitize(mat)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, 0.5 * (mat + np.conj(np.swapaxes(mat, -1, -2))))


# |A|_1 = 1e-6, 0.1, 0.3, 1.5 take Pade degrees 3, 5, 7, 9; 3 takes degree 13
# unscaled and 10 degree 13 after one halving
@pytest.mark.parametrize("norm", [1e-6, 0.1, 0.3, 1.5, 3.0, 10.0])
@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_matches_scipy_on_random_matrices(norm, dtype):
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(31)
    for dim in (2, 5, 12):
        a = rng.normal(size=(dim, dim)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=(dim, dim))
        a *= norm / np.linalg.norm(a, 1)
        got, ref = expm(a), scipy_expm(a)
        assert got.dtype == ref.dtype
        assert np.linalg.norm(got - ref, 1) <= 1e-12 * np.linalg.norm(ref, 1)


def test_expm_keeps_the_precision_of_a_small_step():
    # e^A - I = A + A^2/2 + A^3/6 + O(|A|^4): at |A|_1 = 1e-6 the diagonal is
    # 1 + x rounded within an ulp and the rest keeps its relative precision,
    # which 10^5 powers of a propagator need (formed as (V - U)^-1 (V + U),
    # the diagonal here is 1.5 ulp off)
    rng = np.random.default_rng(32)
    a = rng.normal(size=(6, 6))
    a *= 1e-6 / np.linalg.norm(a, 1)
    taylor = a + a @ a / 2.0 + a @ a @ a / 6.0
    err = np.abs(expm(a) - np.eye(6) - taylor)
    assert np.all(err <= np.finfo(float).eps * np.eye(6) + 1e-14 * 1e-6)


@pytest.mark.parametrize("dtype", [float, complex])
def test_expm_of_zero_is_the_identity(dtype):
    got = expm(np.zeros((4, 4), dtype=dtype))
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, np.eye(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_of_non_finite_input_is_non_finite(bad):
    a = np.eye(3)
    a[1, 2] = bad
    assert not np.any(np.isfinite(expm(a)))
