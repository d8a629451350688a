import numpy as np
import pytest

from contmon import (
    BathSpec,
    OpenSystemModel,
    WeightedState,
    build_standard_ops,
    generalized_bath_me_rhs,
)
from contmon.core_ops import BATCH_GEMM_MAX_DIM, dagger, hermitize, trace
from contmon.diffusive import (
    diffusive_kernel,
    diffusive_kernel_step,
    feedback_me_rhs,
    generalized_bath_homodyne_step,
    heterodyne_sme_step,
    homodyne_feedback_step,
    homodyne_kraus_operator,
    homodyne_kraus_step,
    homodyne_sme_step,
    lindblad_form_rhs,
    linear_homodyne_kraus_step,
    linear_homodyne_step,
    squeezed_vacuum_jump_operator,
)
from contmon.ensemble import trajectory_rng
from contmon.master_equation import coherent_drive_hamiltonian, liouvillian_apply

from conftest import random_density_matrix, random_hermitian


ROOT_DT = {True: 1.0, False: -1.0}


def euler_me_step(model, rho, dt, rhs=liouvillian_apply):
    return rho + rhs(model, rho) * dt


# ---------------------------------------------------------------- homodyne SME


def test_homodyne_dark_state(decay_model, ground):
    rho, dy = homodyne_sme_step(ground, decay_model, 1e-3, 0.02)
    np.testing.assert_allclose(rho, ground, atol=1e-14)
    assert dy == pytest.approx(0.02)


def test_homodyne_eta_zero_is_deterministic(qubit_ops, excited):
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], efficiency=0.0)
    dt = 1e-3
    rho, dy = homodyne_sme_step(excited, model, dt, 0.37)
    expected = euler_me_step(model, excited, dt)
    np.testing.assert_allclose(rho, expected, atol=1e-14)
    assert dy == pytest.approx(0.37)


def two_point_average(step, rho, dt):
    """Average a diffusive Euler stepper over the two-point rule dw = +-sqrt(dt)."""
    up, _ = step(rho, np.sqrt(dt))
    down, _ = step(rho, -np.sqrt(dt))
    return 0.5 * (up + down)


def test_homodyne_two_point_average_is_me_step(qubit_ops):
    # Ito bookkeeping: the dw-linear term cancels exactly, leaving the Euler
    # master-equation step to machine precision
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])])
    rng = np.random.default_rng(1)
    dt = 1e-3
    for _ in range(5):
        rho = random_density_matrix(rng)
        avg = two_point_average(lambda r, w: homodyne_sme_step(r, model, dt, w), rho, dt)
        np.testing.assert_allclose(avg, euler_me_step(model, rho, dt), atol=5e-15)


def test_heterodyne_two_point_average_is_me_step(qubit_ops):
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])])
    rng = np.random.default_rng(2)
    dt = 1e-3
    rho = random_density_matrix(rng)
    root = np.sqrt(dt)
    acc = np.zeros_like(rho)
    for s1 in (root, -root):
        for s2 in (root, -root):
            out, _, _ = heterodyne_sme_step(rho, model, dt, s1, s2)
            acc = acc + out
    np.testing.assert_allclose(acc / 4.0, euler_me_step(model, rho, dt), atol=5e-15)


def test_current_statistics(decay_model):
    # over many draws from a fixed state: mean dy/dt -> sqrt(eta kappa)<c+c^dag>,
    # var dy -> dt, machine-checked through the stepper itself
    rng = trajectory_rng(9, 0)
    rho = random_density_matrix(np.random.default_rng(5))
    sig = 2.0 * rho[0, 1].real  # <sigma_x> = <c + c^dag>
    dt = 1e-3
    n = 10**6
    dw = rng.standard_normal(n) * np.sqrt(dt)
    batch = np.broadcast_to(rho, (n, 2, 2))
    _, dy = homodyne_sme_step(batch, decay_model, dt, dw)
    mean = dy.mean() / dt
    se = dy.std() / dt / np.sqrt(n)
    assert abs(mean - sig) < 4 * se
    assert abs(dy.var() / dt - 1.0) < 0.01


# ---------------------------------------------------------------- Kraus stepper


def test_kraus_operator_matrix(decay_model, excited):
    # frozen 2x2 arithmetic: M = [[0.995, 0], [0.1, 1]] at dt = 0.01, dy = 0.1
    m = homodyne_kraus_operator(decay_model, 0.01, 0.1)
    np.testing.assert_allclose(m, np.array([[0.995, 0.0], [0.1, 1.0]]), atol=1e-15)
    numer = m @ excited @ m.conj().T
    np.testing.assert_allclose(
        numer, np.array([[0.990025, 0.0995], [0.0995, 0.01]]), atol=1e-15
    )
    assert np.trace(numer).real == pytest.approx(1.000025)


def test_kraus_zero_increment_keeps_excited(decay_model, excited):
    # <c + c^dag> = 0 on |e><e| so dw = 0 gives dy = 0
    rho, dy = homodyne_kraus_step(excited, decay_model, 0.01, 0.0)
    assert dy == 0.0
    np.testing.assert_allclose(rho, excited, atol=1e-14)


def test_kraus_positivity_any_step(qubit_ops):
    model = OpenSystemModel(0.4 * qubit_ops["sigma_y"], [(1.0, qubit_ops["sigma_minus"])],
                            efficiency=0.7)
    rng = trajectory_rng(11, 0)
    rho = random_density_matrix(np.random.default_rng(2))
    for dt in (0.1, 0.01):
        for _ in range(200):
            rho, _ = homodyne_kraus_step(rho, model, dt, rng.standard_normal() * np.sqrt(dt))
            assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_kraus_normalization_residual_second_order(qubit_ops):
    # int p_ost(J) M_J^dag M_J dJ = 1 + O(dt^2); evaluated with the two-point
    # quadrature (matches the Gaussian moments E[J]=0, E[J^2]=dt exactly)
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])],
                            efficiency=0.8)
    kappa, c = model.channels[0]
    cdc = c.conj().T @ c

    def residual(dt):
        root = np.sqrt(dt)
        acc = np.zeros((2, 2), dtype=complex)
        for dy in (root, -root):
            m = homodyne_kraus_operator(model, dt, dy)
            acc = acc + 0.5 * (m.conj().T @ m)
        acc = acc + (1.0 - model.efficiency) * kappa * dt * cdc
        return np.max(np.abs(acc - np.eye(2)))

    r1, r2 = residual(1e-3), residual(5e-4)
    order = np.log2(r1 / r2)
    assert order >= 1.9


@pytest.mark.parametrize("eta, dim, kernel", [
    pytest.param(eta, dim, kernel, id=f"{eta}" + (f"-d{dim}" if dim > 2 else "")
                 + ("-kernel" if kernel else ""))
    for dim, kernel in ((2, False), (2, True), (6, True), (3, True)) for eta in (1.0, 0.8)
])
def test_kraus_steps_match_literal_sandwich(qubit_ops, eta, dim, kernel):
    # the per-state stepper or the compiled kernel it wraps (at d = 2 and 3
    # its [base (x) base* | cross | c (x) c*] maps, at d = 6 its right products
    # rho M^dag and (M rho) M^dag), against the literal m @ rho @ dagger(m), on
    # shared noise for a batch of trajectories over 10^3 steps: the nonlinear
    # step, its current, and the linear (unnormalized) step on a shared record
    if dim == 2:
        h0, c0 = 0.3 * qubit_ops["sigma_x"], qubit_ops["sigma_minus"]
    else:
        ops = build_standard_ops("boson", dim)
        h0, c0 = 0.3 * ops["q"], ops["a"]
    model = OpenSystemModel(h0, [(1.0, c0)], efficiency=eta, homodyne_phase=0.4)
    kappa, c = model.single_channel()
    h = model.hamiltonian
    ceff = c * np.exp(1j * model.homodyne_phase)
    root = np.sqrt(eta * kappa)
    dt, n_traj = 1e-3, 8

    def literal_numerator(rho, dy):
        m = (np.eye(dim) - 1j * h * dt - 0.5 * kappa * (dagger(c) @ c) * dt
             + root * dy[:, None, None] * ceff)
        return m @ rho @ dagger(m) + (1.0 - eta) * kappa * dt * (c @ rho @ dagger(c))

    rho0 = random_density_matrix(np.random.default_rng(3), dim)
    rho = rho_ref = np.broadcast_to(rho0, (n_traj, dim, dim)).copy()
    lin, lin_ref = WeightedState(rho.copy()), rho.copy()
    compiled = diffusive_kernel(model, "homodyne_kraus", dt)
    rng = trajectory_rng(20240921, 0)
    gap = 0.0
    for _ in range(1000):
        dw = rng.standard_normal(n_traj) * np.sqrt(dt)
        if kernel:
            rho, dy = diffusive_kernel_step(compiled, rho, dw)
        else:
            rho, dy = homodyne_kraus_step(rho, model, dt, dw)
        dy_ref = root * np.einsum("bij,ji->b", rho_ref, ceff + dagger(ceff)).real * dt + dw
        numer = hermitize(literal_numerator(rho_ref, dy_ref))
        rho_ref = numer / trace(numer).real[:, None, None]
        lin = linear_homodyne_kraus_step(lin, model, dt, dy_ref)
        lin_ref = hermitize(literal_numerator(lin_ref, dy_ref))
        gap = max(gap, np.max(np.abs(rho - rho_ref)), np.max(np.abs(dy - dy_ref)),
                  np.max(np.abs(lin.rho_bar - lin_ref)))
    assert gap <= 1e-12


@pytest.mark.parametrize("kind", ["homodyne_kraus", "linear_homodyne_kraus"])
def test_kraus_kernels_keep_right_products_above_d4(kind):
    # the Kraus kinds carry coordinate maps at d = 3 but not at d = 6, where
    # the maps drift from the literal sandwich further than right products;
    # below unit efficiency no state stays pure, and no kernel carries a
    # vector form
    for dim, lowered in ((3, True), (6, False)):
        ops = build_standard_ops("boson", dim)
        model = OpenSystemModel(0.3 * ops["q"], [(1.0, ops["a"])], efficiency=0.9)
        kernel = diffusive_kernel(model, kind, 1e-3)
        assert (kernel.maps is not None) is lowered and kernel.vector is None


# ---------------------------------------------------------------- heterodyne


def test_heterodyne_dark_state(decay_model, ground):
    rho, dy1, dy2 = heterodyne_sme_step(ground, decay_model, 1e-3, 0.01, -0.02)
    np.testing.assert_allclose(rho, ground, atol=1e-14)
    assert dy1 == pytest.approx(0.01)
    assert dy2 == pytest.approx(-0.02)


def test_heterodyne_deterministic_part_matches_homodyne(qubit_ops):
    # with dw = 0 both unravellings reduce to the same kappa D[c] drift
    model = OpenSystemModel(0.2 * qubit_ops["sigma_z"], [(1.0, qubit_ops["sigma_minus"])])
    rho = random_density_matrix(np.random.default_rng(3))
    het, _, _ = heterodyne_sme_step(rho, model, 1e-3, 0.0, 0.0)
    hom, _ = homodyne_sme_step(rho, model, 1e-3, 0.0)
    np.testing.assert_allclose(het, hom, atol=1e-15)


# ---------------------------------------------------------------- linear SME


def test_linear_homodyne_dark_state(decay_model, ground):
    out = linear_homodyne_step(WeightedState(ground.copy()), decay_model, 1e-3, dy=0.05)
    np.testing.assert_allclose(out.rho_bar, ground, atol=1e-14)
    assert out.weight == pytest.approx(1.0)


def test_linear_homodyne_two_point_ostensible_mean(decay_model):
    # E_ost[d rho_bar] = kappa D[c] rho_bar dt exactly under the two-point law
    rho = random_density_matrix(np.random.default_rng(4))
    dt = 1e-3
    root = np.sqrt(dt)
    up = linear_homodyne_step(WeightedState(rho), decay_model, dt, dy=root).rho_bar
    down = linear_homodyne_step(WeightedState(rho), decay_model, dt, dy=-root).rho_bar
    np.testing.assert_allclose(0.5 * (up + down), euler_me_step(decay_model, rho, dt), atol=5e-15)


def _shared_record_gap(model, rho0, dt, n_steps, seed, two_point=False):
    """Drive Euler-linear and Euler-nonlinear homodyne steppers with the same
    measured record dy; return the sup-norm gap of normalized states."""
    rng = trajectory_rng(seed, 0)
    rho = rho0
    lin = WeightedState(rho0.copy())
    sup = 0.0
    for _ in range(n_steps):
        if two_point:
            dw = np.sqrt(dt) * (1.0 if rng.random() < 0.5 else -1.0)
        else:
            dw = rng.standard_normal() * np.sqrt(dt)
        rho, dy = homodyne_sme_step(rho, model, dt, dw)
        lin = linear_homodyne_step(lin, model, dt, dy=dy)
        sup = max(sup, float(np.max(np.abs(lin.normalized - rho))))
    return sup


@pytest.mark.xfail(
    strict=True,
    reason="Euler discretizations of the linear and nonlinear homodyne SMEs "
    "differ at O(dt^(3/2)) per step under a shared record (measured ~1e-3 at "
    "dt=1e-4 over 1e3 steps); the stated 1e-7 bound holds only for the "
    "completely positive pairing, see test_linear_kraus_pathwise_equivalence "
    "and notes in the decisions ledger",
)
def test_linear_homodyne_euler_pathwise_equivalence(decay_model, excited):
    sup = _shared_record_gap(decay_model, excited, 1e-4, 1000, seed=6)
    assert sup <= 1e-7


def test_linear_nonlinear_gap_shrinks_with_dt(decay_model, excited):
    # the Euler pairing gap is a discretization artifact: it shrinks with dt
    gap_coarse = _shared_record_gap(decay_model, excited, 1e-3, 100, seed=6, two_point=True)
    gap_fine = _shared_record_gap(decay_model, excited, 1e-4, 1000, seed=6, two_point=True)
    assert gap_fine < gap_coarse


def test_linear_kraus_pathwise_equivalence(qubit_ops, excited):
    # the completely positive pairing realizes rho = rho_bar / Tr[rho_bar]
    # exactly: stepping unnormalized and normalizing commutes with stepping
    # normalized, for the same measured record
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])])
    rng = trajectory_rng(8, 0)
    dt = 1e-4
    rho = excited
    lin = WeightedState(excited.copy())
    sup = 0.0
    for _ in range(1000):
        dw = rng.standard_normal() * np.sqrt(dt)
        rho, dy = homodyne_kraus_step(rho, model, dt, dw)
        lin = linear_homodyne_kraus_step(lin, model, dt, dy)
        sup = max(sup, float(np.max(np.abs(lin.normalized - rho))))
    assert sup <= 1e-12


def test_linear_weight_tracks_true_probability(decay_model):
    # p_true(dy) = p_ost(dy) Tr[rho_bar] per step: the trace gain equals the
    # likelihood ratio of the true and ostensible Gaussian laws; with the
    # two-point increment (dy^2 = dt) the Euler step realizes it to O(dt^(3/2))
    dt = 1e-3
    rho = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)  # <c + c^dag> = 1
    dy = np.sqrt(dt)
    out = linear_homodyne_step(WeightedState(rho.copy()), decay_model, dt, dy=dy)
    sig = 1.0
    log_ratio = (-((dy - sig * dt) ** 2) + dy**2) / (2 * dt)
    assert out.log_weight == pytest.approx(log_ratio, abs=5 * dt**1.5)


# ---------------------------------------------------------------- feedback


def test_feedback_zero_operator_is_plain_homodyne(decay_model, excited):
    f_zero = np.zeros((2, 2), dtype=complex)
    rng = trajectory_rng(10, 0)
    rho_a, rho_b = excited, excited
    for _ in range(300):
        dw = rng.standard_normal() * np.sqrt(1e-3)
        rho_a, dy_a = homodyne_sme_step(rho_a, decay_model, 1e-3, dw)
        rho_b, dy_b = homodyne_feedback_step(rho_b, decay_model, f_zero, 1e-3, dw)
        assert dy_a == dy_b
        np.testing.assert_array_equal(rho_a, rho_b)


def test_feedback_two_point_average_matches_feedback_me(qubit_ops):
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], efficiency=0.7)
    f_op = 0.4 * qubit_ops["sigma_x"]
    rho = random_density_matrix(np.random.default_rng(7))
    dt = 1e-3
    avg = two_point_average(
        lambda r, w: homodyne_feedback_step(r, model, f_op, dt, w), rho, dt
    )
    expected = rho + feedback_me_rhs(rho, model, f_op) * dt
    np.testing.assert_allclose(avg, expected, atol=5e-15)


@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_feedback_two_forms_agree_as_superoperators(qubit_ops, eta):
    # the direct and Lindblad forms of the feedback generator agree on a full
    # operator basis (exact algebra)
    model = OpenSystemModel(
        0.3 * qubit_ops["sigma_z"], [(1.0, qubit_ops["sigma_minus"])], efficiency=eta
    )
    f_op = random_hermitian(np.random.default_rng(12))
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            a = feedback_me_rhs(basis, model, f_op)
            b = lindblad_form_rhs(basis, model, f_op)
            np.testing.assert_allclose(a, b, atol=1e-12)
            assert abs(np.trace(a)) < 1e-12


def test_feedback_form_reduces_to_liouvillian(qubit_ops):
    model = OpenSystemModel(0.3 * qubit_ops["sigma_z"], [(1.0, qubit_ops["sigma_minus"])])
    rho = random_density_matrix(np.random.default_rng(13))
    f_zero = np.zeros((2, 2), dtype=complex)
    np.testing.assert_allclose(
        feedback_me_rhs(rho, model, f_zero), liouvillian_apply(model, rho), atol=1e-14
    )
    np.testing.assert_allclose(
        lindblad_form_rhs(rho, model, f_zero), liouvillian_apply(model, rho), atol=1e-14
    )


def test_feedback_eta_one_modified_operator_identity(qubit_ops):
    # at eta = 1 the stochastic operator is H[sqrt(kappa) c - i F]: check the
    # identity H[cbar]rho = sqrt(kappa) H[c]rho - i[F, rho] on random states
    kappa = 1.3
    model = OpenSystemModel(np.zeros((2, 2)), [(kappa, qubit_ops["sigma_minus"])])
    f_op = random_hermitian(np.random.default_rng(14))
    rng = np.random.default_rng(15)
    from contmon.core_ops import measurement_superop

    for _ in range(5):
        rho = random_density_matrix(rng)
        cbar = np.sqrt(kappa) * qubit_ops["sigma_minus"] - 1j * f_op
        lhs = measurement_superop(cbar, rho)
        rhs = np.sqrt(kappa) * measurement_superop(qubit_ops["sigma_minus"], rho) - 1j * (
            f_op @ rho - rho @ f_op
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_feedback_rejects_eta_zero(qubit_ops, excited):
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], efficiency=0.0)
    with pytest.raises(ValueError, match="efficiency"):
        homodyne_feedback_step(excited, model, np.zeros((2, 2)), 1e-3, 0.0)


def test_feedback_requires_operator(decay_model, excited):
    with pytest.raises(ValueError, match="feedback operator"):
        homodyne_feedback_step(excited, decay_model, None, 1e-3, 0.0)


# ---------------------------------------------------------------- generalized baths


def _thermal_model(qubit_ops, n=1.0, squeezing=0.0):
    return OpenSystemModel(
        np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])],
        bath=BathSpec(n_thermal=n, squeezing=squeezing),
    )


def test_generalized_vacuum_reduction_pathwise(decay_model, excited):
    rng = trajectory_rng(16, 0)
    rho_a, rho_b = excited, excited
    for _ in range(300):
        dw = rng.standard_normal() * np.sqrt(1e-3)
        rho_a, dy_a = homodyne_sme_step(rho_a, decay_model, 1e-3, dw)
        rho_b, dy_b = generalized_bath_homodyne_step(rho_b, decay_model, 1e-3, dw)
        assert dy_a == dy_b
        np.testing.assert_array_equal(rho_a, rho_b)


def test_thermal_current_scale(qubit_ops, excited):
    # dy = sqrt(kappa)<c + c^dag> dt + sqrt(2N+1) dw: noise variance per unit
    # time is 3 at N = 1
    model = _thermal_model(qubit_ops, n=1.0)
    dw = 0.013
    _, dy = generalized_bath_homodyne_step(excited, model, 1e-3, dw)
    assert dy == pytest.approx(np.sqrt(3.0) * dw)


def test_generalized_bath_step_rejects_an_unknown_mode(excited):
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, np.array([[0, 0], [1, 0]], dtype=complex))],
                            bath=BathSpec(n_thermal=0.5))
    with pytest.raises(ValueError, match="unknown mode 'photon' \\(use 'homodyne' or "
                                         "'heterodyne'\\)"):
        generalized_bath_homodyne_step(excited, model, 1e-3, 0.0, mode="photon")


def test_generalized_two_point_average(qubit_ops):
    model = _thermal_model(qubit_ops, n=0.7, squeezing=0.3)
    rho = random_density_matrix(np.random.default_rng(17))
    dt = 1e-3
    avg = two_point_average(
        lambda r, w: generalized_bath_homodyne_step(r, model, dt, w), rho, dt
    )
    expected = rho + generalized_bath_me_rhs(model, rho) * dt
    np.testing.assert_allclose(avg, expected, atol=5e-15)


def test_generalized_heterodyne_thermal(qubit_ops, excited):
    model = _thermal_model(qubit_ops, n=1.0)
    dw = np.array([0.01, -0.02])
    rho, dy = generalized_bath_homodyne_step(excited, model, 1e-3, dw, mode="heterodyne")
    np.testing.assert_allclose(dy, np.sqrt(4.0) * dw, atol=1e-15)  # scale sqrt(2(N+1))
    # two-point average over both channels reproduces the thermal ME step
    dt = 1e-3
    root = np.sqrt(dt)
    acc = np.zeros((2, 2), dtype=complex)
    rho0 = random_density_matrix(np.random.default_rng(18))
    for s1 in (root, -root):
        for s2 in (root, -root):
            out, _ = generalized_bath_homodyne_step(
                rho0, model, dt, np.array([s1, s2]), mode="heterodyne"
            )
            acc = acc + out
    np.testing.assert_allclose(
        acc / 4.0, rho0 + generalized_bath_me_rhs(model, rho0) * dt, atol=5e-15
    )


def test_generalized_heterodyne_rejects_squeezing(qubit_ops, excited):
    model = _thermal_model(qubit_ops, n=1.0, squeezing=0.5)
    with pytest.raises(ValueError, match="thermal"):
        generalized_bath_homodyne_step(excited, model, 1e-3, np.array([0.0, 0.0]),
                                       mode="heterodyne")
    # and, on a thermal bath, one increment where two are needed
    with pytest.raises(ValueError, match="two Wiener increments"):
        generalized_bath_homodyne_step(excited, _thermal_model(qubit_ops, n=1.0), 1e-3, 0.01,
                                       mode="heterodyne")


def test_generalized_rejects_complex_squeezing_current(qubit_ops, excited):
    model = _thermal_model(qubit_ops, n=1.0, squeezing=0.5j)
    with pytest.raises(ValueError, match="real squeezing"):
        generalized_bath_homodyne_step(excited, model, 1e-3, 0.0)


def test_squeezed_vacuum_operator_values(qubit_ops):
    sm = qubit_ops["sigma_minus"]
    np.testing.assert_allclose(squeezed_vacuum_jump_operator(sm, 0.0), sm, atol=1e-15)
    op = squeezed_vacuum_jump_operator(sm, 1.0)
    mu, nu = np.sqrt(2.0), 1.0
    np.testing.assert_allclose(op, mu * sm - nu * sm.conj().T, atol=1e-12)
    assert mu**2 - nu**2 == pytest.approx(1.0, abs=1e-12)
    # mu nu = sqrt(N(N+1)) = |M| of the equivalent squeezed-vacuum bath
    assert mu * nu == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_squeezed_vacuum_replacement_matches_generalized_drift(qubit_ops):
    # kappa D[mu c - nu c^dag] equals the squeezed-vacuum bath generator with
    # (N, M = sqrt(N(N+1))) (exact algebra)
    from contmon.core_ops import dissipator

    n = 1.0
    sm = qubit_ops["sigma_minus"]
    c_tilde = squeezed_vacuum_jump_operator(sm, n)
    model = _thermal_model(qubit_ops, n=n, squeezing=np.sqrt(n * (n + 1.0)))
    rng = np.random.default_rng(19)
    for _ in range(5):
        rho = random_density_matrix(rng)
        np.testing.assert_allclose(
            dissipator(c_tilde, rho), generalized_bath_me_rhs(model, rho), atol=1e-12
        )


def test_squeezed_vacuum_current_rescaling(qubit_ops):
    # the replaced-operator homodyne current is sqrt(kappa) e^{-r} <c+c^dag> dt + dw
    n = 1.0
    sm = qubit_ops["sigma_minus"]
    c_tilde = squeezed_vacuum_jump_operator(sm, n)
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, c_tilde)])
    r = 0.5 * np.log(1.0 + 2.0 * n + 2.0 * np.sqrt(n * (n + 1.0)))
    rho = random_density_matrix(np.random.default_rng(20))
    dt, dw = 1e-3, 0.005
    _, dy = homodyne_sme_step(rho, model, dt, dw)
    sig = np.real(np.trace(rho @ (sm + sm.conj().T)))
    assert dy == pytest.approx(np.exp(-r) * sig * dt + dw, abs=1e-15)


def test_generalized_requires_unit_efficiency(qubit_ops, excited):
    model = OpenSystemModel(
        np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])],
        bath=BathSpec(n_thermal=1.0), efficiency=0.5,
    )
    with pytest.raises(ValueError, match="unit efficiency"):
        generalized_bath_homodyne_step(excited, model, 1e-3, 0.0)


@pytest.mark.parametrize("mode", ["homodyne", "heterodyne"])
@pytest.mark.parametrize("dim", [2, 6])
def test_generalized_rejects_lo_phase(mode, dim):
    # the bath's measured operators are built from the bare c; a current read
    # at theta != 0 would condition on another quadrature than it records
    ops = build_standard_ops("qubit" if dim == 2 else "boson", dim)
    c = ops["sigma_minus"] if dim == 2 else ops["a"]
    model = OpenSystemModel(np.zeros((dim, dim)), [(1.0, c)], bath=BathSpec(n_thermal=1.0),
                            homodyne_phase=0.4)
    rho = random_density_matrix(np.random.default_rng(4), dim)
    dw = 0.0 if mode == "homodyne" else np.zeros(2)
    with pytest.raises(ValueError, match="homodyne_phase = 0"):
        generalized_bath_homodyne_step(rho, model, 1e-3, dw, mode=mode)
    with pytest.raises(ValueError, match="homodyne_phase = 0"):
        diffusive_kernel(model, f"generalized_{mode}", 1e-3)


# ---------------------------------------------------------------- Euler oracles
# Every Euler stepper against its SME written out with literal products
# (a @ rho @ dagger(a), nested commutators), on shared noise for a batch of
# trajectories over 10^3 steps.  These literal products are the oracle: the
# per-state steppers and the ensemble both run the compiled kernels.


def _lit_expect(rho, op):
    return np.einsum("bij,ji->b", rho, op).real


def _lit_dissipator(a, rho):
    ad = dagger(a)
    return a @ rho @ ad - 0.5 * (ad @ a @ rho + rho @ ad @ a)


def _lit_meas(a, rho):
    """H[a] rho = a rho + rho a^dag - <a + a^dag> rho."""
    sig = _lit_expect(rho, a + dagger(a))
    return a @ rho + rho @ dagger(a) - sig[:, None, None] * rho


def _lit_comm(a, rho):
    return a @ rho - rho @ a


def _lit_renorm(rho):
    rho = hermitize(rho)
    return rho / trace(rho).real[:, None, None]


def _euler_case(name, qubit_ops, dim=2):
    """(model, n_draws, step(rho, dw) -> (rho', dy), literal(rho, dw) -> (rho', dy),
    keyword arguments of the case's compiled kernel) for a qubit (dim 2) or a
    driven boson mode."""
    if dim == 2:
        c0, h0, f = (qubit_ops["sigma_minus"], 0.3 * qubit_ops["sigma_x"] + 0.2 * qubit_ops["sigma_z"],
                     0.5 * qubit_ops["sigma_y"])
    else:
        ops = build_standard_ops("boson", dim)
        c0, h0, f = ops["a"], 0.3 * ops["q"] + 0.1 * ops["n"], 0.4 * ops["p"]
    dt = 1e-3

    if name in ("homodyne", "heterodyne", "linear_homodyne"):
        eta = 1.0 if name == "linear_homodyne" else 0.8
        model = OpenSystemModel(h0, [(1.0, c0)], efficiency=eta, homodyne_phase=0.4)
    elif name == "feedback":
        model = OpenSystemModel(h0, [(1.0, c0)], efficiency=0.8, homodyne_phase=0.4)
    else:
        bath = {
            "thermal_homodyne": BathSpec(n_thermal=1.0, drive=0.2),
            "squeezed_homodyne": BathSpec(n_thermal=1.0, squeezing=0.5),
            "thermal_heterodyne": BathSpec(n_thermal=1.0),
        }[name]
        model = OpenSystemModel(h0, [(1.0, c0)], bath=bath)
    kappa, c = model.single_channel()
    h = model.hamiltonian
    eta = model.efficiency
    ceff = c * np.exp(1j * model.homodyne_phase)
    root = np.sqrt(eta * kappa)

    def vacuum_drift(rho):
        return -1j * _lit_comm(h, rho) + kappa * _lit_dissipator(c, rho)

    if name == "homodyne":
        def step(rho, dw):
            return homodyne_sme_step(rho, model, dt, dw[:, 0])

        def literal(rho, dw):
            dy = root * _lit_expect(rho, ceff + dagger(ceff)) * dt + dw[:, 0]
            sto = root * _lit_meas(ceff, rho) * dw[:, :1, None]
            return _lit_renorm(rho + vacuum_drift(rho) * dt + sto), dy
        return model, 1, step, literal, {}

    if name == "heterodyne":
        root = np.sqrt(eta * kappa / 2.0)

        def step(rho, dw):
            rho, dy1, dy2 = heterodyne_sme_step(rho, model, dt, dw[:, 0], dw[:, 1])
            return rho, np.stack([dy1, dy2], axis=-1)

        def literal(rho, dw):
            chans = (ceff, 1j * ceff)
            dy = np.stack([root * _lit_expect(rho, a + dagger(a)) * dt for a in chans],
                          axis=-1) + dw
            sto = sum(root * _lit_meas(a, rho) * dw[:, k, None, None]
                      for k, a in enumerate(chans))
            return _lit_renorm(rho + vacuum_drift(rho) * dt + sto), dy
        return model, 2, step, literal, {}

    if name == "linear_homodyne":
        mu = 0.3

        def step(rho, dw):
            dy = dw[:, 0] + np.sqrt(kappa) * mu * dt
            return linear_homodyne_step(WeightedState(rho), model, dt, dy, mu=mu).rho_bar, dy

        def literal(rho, dw):
            dy = dw[:, 0] + np.sqrt(kappa) * mu * dt
            meas = ceff @ rho + rho @ dagger(ceff) - mu * rho
            innov = (dy - np.sqrt(kappa) * mu * dt)[:, None, None]
            return hermitize(rho + vacuum_drift(rho) * dt + np.sqrt(kappa) * meas * innov), dy
        return model, 1, step, literal, {"mu": mu}

    if name == "feedback":
        def step(rho, dw):
            return homodyne_feedback_step(rho, model, f, dt, dw[:, 0])

        def literal(rho, dw):
            u = ceff @ rho + rho @ dagger(ceff)
            drift = (vacuum_drift(rho) - 1j * np.sqrt(kappa) * _lit_comm(f, u)
                     + (1.0 / eta) * _lit_dissipator(f, rho))
            sig = _lit_expect(rho, ceff + dagger(ceff))
            sto = root * (u - sig[:, None, None] * rho) - 1j * _lit_comm(f, rho)
            dy = root * sig * dt + dw[:, 0]
            return _lit_renorm(rho + drift * dt + sto * dw[:, :1, None]), dy
        return model, 1, step, literal, {"f_op": f}

    # generalized baths: kappa (N+1) D[c] + kappa N D[c^dag]
    # + (kappa M / 2) [c^dag, [c^dag, .]] + (kappa M* / 2) [c, [c, .]] - i[H + H_drive, .]
    n, m = model.bath.n_thermal, complex(model.bath.squeezing)
    cd = dagger(c)
    h_eff = h + coherent_drive_hamiltonian(c, kappa, model.bath.drive)

    def drift(rho):
        out = (kappa * (n + 1.0) * _lit_dissipator(c, rho) + kappa * n * _lit_dissipator(cd, rho)
               - 1j * _lit_comm(h_eff, rho))
        if m != 0:
            out = out + (kappa * m / 2.0) * _lit_comm(cd, _lit_comm(cd, rho))
            out = out + (kappa * np.conj(m) / 2.0) * _lit_comm(c, _lit_comm(c, rho))
        return out

    if name.endswith("homodyne"):
        big_l = 2.0 * n + 1.0 + 2.0 * m.real
        op = (n + m.real + 1.0) * c - (n + m.real) * cd

        def step(rho, dw):
            return generalized_bath_homodyne_step(rho, model, dt, dw[:, 0])

        def literal(rho, dw):
            dy = np.sqrt(kappa) * _lit_expect(rho, c + cd) * dt + np.sqrt(big_l) * dw[:, 0]
            sto = np.sqrt(kappa / big_l) * _lit_meas(op, rho) * dw[:, :1, None]
            return _lit_renorm(rho + drift(rho) * dt + sto), dy
        return model, 1, step, literal, {}

    ops = ((n + 1.0) * c - n * cd, 1j * ((n + 1.0) * c + n * cd))
    scale = np.sqrt(2.0 * (n + 1.0))

    def step(rho, dw):
        return generalized_bath_homodyne_step(rho, model, dt, dw, mode="heterodyne")

    def literal(rho, dw):
        dy = np.stack([np.sqrt(kappa) * _lit_expect(rho, a + dagger(a)) * dt
                       for a in (c, 1j * c)], axis=-1) + scale * dw
        sto = sum((np.sqrt(kappa) / scale) * _lit_meas(a, rho) * dw[:, k, None, None]
                  for k, a in enumerate(ops))
        return _lit_renorm(rho + drift(rho) * dt + sto), dy
    return model, 2, step, literal, {}


# the kernel kind of each case
EULER_KERNEL_KINDS = {
    "homodyne": "homodyne",
    "heterodyne": "heterodyne",
    "linear_homodyne": "linear_homodyne",
    "feedback": "homodyne_feedback",
    "thermal_homodyne": "generalized_homodyne",
    "squeezed_homodyne": "generalized_homodyne",
    "thermal_heterodyne": "generalized_heterodyne",
}


# per-state steppers, which wrap the kernels, at d = 2 and d = 12; the kernels
# called directly at d = 2, 3 and 6 (coordinates) and above BATCH_GEMM_MAX_DIM
# (right products)
@pytest.mark.parametrize("name, dim, kernel", [
    pytest.param(name, 2, False, id=name) for name in EULER_KERNEL_KINDS
] + [pytest.param("feedback", 12, False, id="feedback_d12")] + [
    pytest.param(name, dim, True, id=f"{name}-d{dim}-kernel" if dim > 2 else f"{name}-kernel")
    for dim in (2, 6, 3, BATCH_GEMM_MAX_DIM + 1) for name in EULER_KERNEL_KINDS
])
def test_euler_steps_match_literal_sme(qubit_ops, name, dim, kernel):
    model, n_draws, step, literal, kernel_kw = _euler_case(name, qubit_ops, dim)
    dt, n_traj = 1e-3, 8
    if kernel:
        compiled = diffusive_kernel(model, EULER_KERNEL_KINDS[name], dt, **kernel_kw)

        def step(rho, dw):
            return diffusive_kernel_step(compiled, rho, dw if n_draws == 2 else dw[:, 0])
    rho0 = random_density_matrix(np.random.default_rng(4), model.dim)
    rho = rho_ref = np.broadcast_to(rho0, (n_traj, model.dim, model.dim)).copy()
    rng = trajectory_rng(20261018, 0)
    gap = 0.0
    for _ in range(1000):
        dw = rng.standard_normal((n_traj, n_draws)) * np.sqrt(dt)
        rho, dy = step(rho, dw)
        rho_ref, dy_ref = literal(rho_ref, dw)
        gap = max(gap, np.max(np.abs(rho - rho_ref)), np.max(np.abs(dy - dy_ref)))
    assert gap <= 1e-12
