import numpy as np
import pytest

from contmon import OpenSystemModel, WeightedState, build_standard_ops, integrate_me
from contmon.core_ops import BATCH_GEMM_MAX_DIM, dagger, from_coords, hermitize, to_coords, trace
from contmon.jump import (
    DarkStateJumpError,
    click_kernel,
    click_kernel_step,
    click_outcomes,
    feedback_unitary,
    jump_feedback_apply,
    jump_kraus_apply,
    jump_probability,
    jump_sme_apply,
    jump_sse_apply,
    linear_jump_step,
)
from contmon.ensemble import trajectory_rng
from contmon.master_equation import StepSizeError

from conftest import random_density_matrix


def test_jump_from_excited_lands_in_ground(decay_model, excited, ground):
    out = jump_sme_apply(excited, decay_model, 1e-3, True)
    np.testing.assert_allclose(out, ground, atol=1e-14)


def test_no_click_leaves_excited_invariant(decay_model, excited):
    # H[c^dag c] rho vanishes on an eigenstate of c^dag c
    out = jump_sme_apply(excited, decay_model, 1e-3, False)
    np.testing.assert_allclose(out, excited, atol=1e-14)


def test_eta_zero_reproduces_master_equation(qubit_ops, excited):
    # pathwise deterministic: no jumps are ever sampled at eta = 0
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], efficiency=0.0)
    dt = 1e-4
    rho = excited
    rng = trajectory_rng(1, 0)
    for _ in range(int(round(1.0 / dt))):
        p = jump_probability(rho, model, dt)
        dn = click_outcomes(p, rng.random(np.shape(p)))
        rho = jump_sme_apply(rho, model, dt, dn)
        assert not dn
    assert abs(rho[0, 0].real - np.exp(-1.0)) < 1e-3  # Euler-vs-exact tolerance


def test_sampling_law_frequency(decay_model):
    # P(dN=1) = eta kappa <c^dag c> dt, checked against a binomial bound
    rng = trajectory_rng(123, 0)
    rho = np.diag([0.6, 0.4]).astype(complex)
    dt = 1e-3
    p = jump_probability(rho, decay_model, dt)
    assert p == pytest.approx(0.6 * dt)
    n = 10**6
    draws = rng.random(n) < p
    freq = draws.mean()
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(freq - p) < 4 * sigma


def test_sse_jump_and_dark_state(decay_model):
    psi_e = np.array([1.0, 0.0], dtype=complex)
    psi_g = np.array([0.0, 1.0], dtype=complex)
    out = jump_sse_apply(psi_e, decay_model, 1e-3, True)
    np.testing.assert_allclose(out, psi_g, atol=1e-14)
    out = jump_sse_apply(psi_g, decay_model, 1e-3, False)
    np.testing.assert_allclose(out, psi_g, atol=1e-14)
    cdc = np.diag([1.0, 0.0])
    assert abs(np.vdot(psi_g, cdc @ psi_g)) < 1e-14  # P(dN=1) = 0 on the dark state


def test_sse_rejects_inefficient_detection(qubit_ops):
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], efficiency=0.5)
    with pytest.raises(ValueError, match="unit detection"):
        jump_sse_apply(np.array([1.0, 0.0], dtype=complex), model, 1e-3, False)


def _run_shared_record(model, rho0, psi0, dt, n_steps, seed):
    """Evolve SME and SSE with one shared click record; return both paths."""
    rng = trajectory_rng(seed, 0)
    rho, psi = rho0, psi0
    sup = 0.0
    for _ in range(n_steps):
        p = jump_probability(rho, model, dt)
        dn = rng.random() < p
        rho = jump_sme_apply(rho, model, dt, dn)
        psi = jump_sse_apply(psi, model, dt, dn)
        proj = np.outer(psi, psi.conj())
        sup = max(sup, float(np.max(np.abs(proj - rho))))
    return sup


def test_sse_projector_consistency(qubit_ops):
    # |psi><psi| tracks the SME path within O(dt^2)-per-step accumulation;
    # the constant is calibrated by halving dt
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])])
    psi0 = np.array([1.0, 0.0], dtype=complex)
    rho0 = np.outer(psi0, psi0.conj())
    sup_coarse = _run_shared_record(model, rho0, psi0, 2e-4, 1000, seed=5)
    sup_fine = _run_shared_record(model, rho0, psi0, 1e-4, 2000, seed=5)
    assert sup_fine < 1e-5
    # first-order pathwise agreement: gap shrinks roughly linearly in dt
    assert sup_fine < 0.75 * sup_coarse


def test_linear_jump_excited_no_click_is_stationary(decay_model, excited):
    state = WeightedState(excited.copy())
    out = linear_jump_step(state, decay_model, 1e-3, False, beta=1.0)
    # -(kappa/2){c^dag c, rho} dt + beta kappa rho dt cancel exactly on |e><e|
    np.testing.assert_allclose(out.rho_bar, excited, atol=1e-14)
    assert out.weight == pytest.approx(1.0)


def test_linear_jump_dark_state_weight_growth(decay_model, ground):
    dt = 1e-3
    out = linear_jump_step(WeightedState(ground.copy()), decay_model, dt, False, beta=1.0)
    np.testing.assert_allclose(out.rho_bar, ground * (1.0 + dt), atol=1e-15)
    # no-click ostensible probability (1 - kappa beta dt) times the trace gain
    # reproduces the true probability 1 up to O(dt^2)
    p_true = (1.0 - dt) * out.weight
    assert abs(p_true - 1.0) <= 2 * dt**2


def test_linear_jump_pathwise_equivalence(decay_model, excited):
    # shared click record, 10^3 steps at dt = 1e-4: normalized linear solution
    # matches the nonlinear SME path
    dt, n_steps = 1e-4, 1000
    rng = trajectory_rng(21, 0)
    rho = excited
    lin = WeightedState(excited.copy())
    sup = 0.0
    for _ in range(n_steps):
        p = jump_probability(rho, decay_model, dt)
        dn = rng.random() < p
        rho = jump_sme_apply(rho, decay_model, dt, dn)
        lin = linear_jump_step(lin, decay_model, dt, dn, beta=1.0)
        sup = max(sup, float(np.max(np.abs(lin.normalized - rho))))
    assert sup <= 1e-8


def test_linear_jump_requires_positive_beta(decay_model, excited):
    with pytest.raises(ValueError, match="beta"):
        linear_jump_step(WeightedState(excited), decay_model, 1e-3, False, beta=0.0)


def test_kraus_no_click_matrix(decay_model, excited):
    # M0 = diag(1 - 0.005, 1) at dt = 0.01; the excited state is reproduced
    # exactly after renormalization
    out = jump_kraus_apply(excited, decay_model, 0.01, False)
    np.testing.assert_allclose(out, excited, atol=1e-14)


def test_kraus_click(decay_model, excited, ground):
    out = jump_kraus_apply(excited, decay_model, 0.01, True)
    np.testing.assert_allclose(out, ground, atol=1e-14)


def test_kraus_agrees_with_sme_per_step(qubit_ops):
    model = OpenSystemModel(0.2 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])])
    rng = np.random.default_rng(17)
    dt = 1e-4
    for _ in range(10):
        rho = random_density_matrix(rng)
        a = jump_sme_apply(rho, model, dt, False)
        b = jump_kraus_apply(rho, model, dt, False)
        assert np.max(np.abs(a - b)) < 1e-6


def test_kraus_positivity_at_coarse_step(qubit_ops):
    model = OpenSystemModel(0.5 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])])
    rng = np.random.default_rng(23)
    rho = random_density_matrix(rng)
    for _ in range(200):
        rho = jump_kraus_apply(rho, model, 0.05, False)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_inefficient_kraus_matches_sme_to_first_order(qubit_ops):
    model = OpenSystemModel(
        0.2 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])], efficiency=0.6
    )
    rng = np.random.default_rng(29)
    rho = random_density_matrix(rng)
    gaps = []
    for dt in (2e-3, 1e-3, 5e-4):
        a = jump_sme_apply(rho, model, dt, False)
        b = jump_kraus_apply(rho, model, dt, False)
        gaps.append(np.max(np.abs(a - b)))
    # O(dt^2): halving dt divides the gap by ~4
    assert gaps[1] < 0.3 * gaps[0] and gaps[2] < 0.3 * gaps[1]


def _literal_sme_apply(rho, model, dt, dn, jump_op=None):
    """jump_sme_apply (or, with jump_op = e^{-iF} c, jump_feedback_apply) with
    the literal products cdc @ rho + rho @ cdc."""
    kappa, c = model.single_channel()
    h, eta = model.hamiltonian, model.efficiency
    cd = dagger(c)
    cdc = cd @ c
    rate = np.einsum("bij,ji->b", rho, cdc).real
    meas = cdc @ rho + rho @ cdc - 2.0 * rate[:, None, None] * rho
    drift = (-0.5 * eta * kappa * meas - 1j * (h @ rho - rho @ h)
             + (1.0 - eta) * kappa * (c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)))
    no_click = hermitize(rho + drift * dt)
    no_click = no_click / trace(no_click).real[:, None, None]
    jump_op = c if jump_op is None else jump_op
    clicked = hermitize(jump_op @ rho @ dagger(jump_op)) / np.where(dn, rate, 1.0)[:, None, None]
    return np.where(dn[:, None, None], clicked, no_click)


def _literal_kraus_apply(rho, model, dt, dn):
    kappa, c = model.single_channel()
    h, eta = model.hamiltonian, model.efficiency
    m0 = np.eye(model.dim) - 1j * h * dt - 0.5 * kappa * (dagger(c) @ c) * dt
    numer = hermitize(m0 @ rho @ dagger(m0) + (1.0 - eta) * kappa * dt * (c @ rho @ dagger(c)))
    no_click = numer / trace(numer).real[:, None, None]
    rate = np.einsum("bij,ji->b", rho, dagger(c) @ c).real
    clicked = hermitize(c @ rho @ dagger(c)) / np.where(dn, rate, 1.0)[:, None, None]
    return np.where(dn[:, None, None], clicked, no_click)


F_OP = 0.6 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
JUMP_ORACLE_CASES = [("sme", 1.0), ("sme", 0.8), ("kraus", 1.0), ("kraus", 0.8), ("feedback", 1.0)]


def _oracle_model(qubit_ops, dim, eta=1.0):
    """A driven decaying qubit (dim 2) or boson mode, and its feedback generator."""
    if dim == 2:
        return (OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])],
                                efficiency=eta), F_OP)
    ops = build_standard_ops("boson", dim)
    return OpenSystemModel(0.3 * ops["q"], [(1.0, ops["a"])], efficiency=eta), 0.6 * ops["q"]


# per-state steppers, which wrap the kernels, and coordinate kernels called
# directly at d = 2 (Pauli), d = 3 (Gell-Mann), d = 6 and BATCH_GEMM_MAX_DIM;
# right-product kernels above it
RIGHT_DIM = BATCH_GEMM_MAX_DIM + 1
ORACLE_PATHS = [(2, False, ""), (2, True, "-kernel"), (6, True, "-d6-kernel"),
                (3, True, "-d3-kernel"),
                (BATCH_GEMM_MAX_DIM, True, f"-d{BATCH_GEMM_MAX_DIM}-kernel"),
                (RIGHT_DIM, True, f"-d{RIGHT_DIM}-kernel")]


@pytest.mark.parametrize("stepper, eta, dim, kernel", [
    pytest.param(stepper, eta, dim, kernel, id=f"{stepper}-{eta}{suffix}")
    for dim, kernel, suffix in ORACLE_PATHS for stepper, eta in JUMP_ORACLE_CASES
])
def test_jump_steps_match_literal_products(qubit_ops, stepper, eta, dim, kernel):
    # the per-state steppers and the compiled click kernels they wrap against
    # the literal stacked matmuls on shared uniforms for a batch of
    # trajectories over 10^3 steps: each path draws its own clicks, which
    # must coincide, and the states must agree
    model, f_op = _oracle_model(qubit_ops, dim, eta)
    c = model.single_channel()[1]
    cdc = dagger(c) @ c
    kind, apply, literal = {
        "sme": ("jump", jump_sme_apply, _literal_sme_apply),
        "kraus": ("jump_kraus", jump_kraus_apply, _literal_kraus_apply),
        "feedback": (
            "jump_feedback",
            lambda r, m, dt, dn: jump_feedback_apply(r, m, f_op, dt, dn),
            lambda r, m, dt, dn: _literal_sme_apply(r, m, dt, dn, jump_op=feedback_unitary(f_op) @ c),
        ),
    }[stepper]
    dt, n_traj = 1e-3, 16
    compiled = click_kernel(model, kind, dt, f_op=f_op)

    def new(rho, u):
        if kernel:
            return click_kernel_step(compiled, rho, u)
        dn = u < jump_probability(rho, model, dt)
        return apply(rho, model, dt, dn), dn

    rho0 = random_density_matrix(np.random.default_rng(5), dim)
    rho = rho_ref = np.broadcast_to(rho0, (n_traj, dim, dim)).copy()
    rng = trajectory_rng(20240922, 0)
    gap, clicks = 0.0, 0
    for _ in range(1000):
        u = rng.random(n_traj)
        dn_ref = u < eta * np.einsum("bij,ji->b", rho_ref, cdc).real * dt
        rho, dn = new(rho, u)
        np.testing.assert_array_equal(dn, dn_ref)
        rho_ref = literal(rho_ref, model, dt, dn_ref)
        gap = max(gap, float(np.max(np.abs(rho - rho_ref))))
        clicks += int(dn.sum())
    assert clicks > 0
    assert gap <= 1e-12


@pytest.mark.parametrize("path, dim", [
    pytest.param(path, dim, id=path)
    for path, dim in (("apply", 2), ("kernel", 2), ("d6-kernel", 6), ("d3-kernel", 3),
                      (f"d{BATCH_GEMM_MAX_DIM}-kernel", BATCH_GEMM_MAX_DIM),
                      (f"d{RIGHT_DIM}-kernel", RIGHT_DIM))
])
def test_linear_jump_step_matches_literal_products(qubit_ops, path, dim):
    model = _oracle_model(qubit_ops, dim)[0]
    kappa, c = model.single_channel()
    h, cd = model.hamiltonian, dagger(c)
    cdc = cd @ c
    beta, dt, n_traj = 1.0, 1e-3, 16
    compiled = click_kernel(model, "linear_jump", dt, beta=beta)
    rb0 = random_density_matrix(np.random.default_rng(6), dim)
    rb = np.broadcast_to(rb0, (n_traj, dim, dim)).copy()
    rb_ref = rb.copy()
    rng = trajectory_rng(20240923, 0)
    gap, clicks = 0.0, 0
    for _ in range(1000):
        u = rng.random(n_traj)
        dn = u < kappa * beta * dt
        if path.endswith("kernel"):
            rb, dn_kernel = click_kernel_step(compiled, rb, u)
            np.testing.assert_array_equal(dn_kernel, dn)
        else:
            rb = linear_jump_step(WeightedState(rb), model, dt, dn, beta).rho_bar
        drift = (-0.5 * kappa * (cdc @ rb_ref + rb_ref @ cdc) + beta * kappa * rb_ref
                 - 1j * (h @ rb_ref - rb_ref @ h))
        rb_ref = hermitize(np.where(dn[:, None, None], (c @ rb_ref @ cd) / beta,
                                    rb_ref + drift * dt))
        gap = max(gap, float(np.max(np.abs(rb - rb_ref))))
        clicks += int(dn.sum())
    assert clicks > 0
    assert gap <= 1e-12


@pytest.mark.parametrize("u, clicked", [(0.0, True), (1.0, False)], ids=["all-click", "no-click"])
def test_coordinate_click_step_at_the_edge_widths(qubit_ops, u, clicked):
    # a coordinate batch at BATCH_GEMM_MAX_DIM where every state clicks or none
    # does: the click map's GEMM runs on all columns or on none
    dim, dt, n_traj = BATCH_GEMM_MAX_DIM, 1e-3, 8
    model = _oracle_model(qubit_ops, dim)[0]
    compiled = click_kernel(model, "jump", dt)
    assert compiled.maps is not None
    rng = np.random.default_rng(8)
    rho = np.stack([random_density_matrix(rng, dim) for _ in range(n_traj)])
    dn_ref = np.full(n_traj, clicked)
    for _ in range(2):
        r, dn = click_kernel_step(compiled, to_coords(rho), np.full(n_traj, u))
        np.testing.assert_array_equal(dn, dn_ref)
        rho_ref = _literal_sme_apply(rho, model, dt, dn_ref)
        assert float(np.max(np.abs(from_coords(r) - rho_ref))) <= 1e-13
        rho = rho_ref


def test_click_outcomes_rejects_a_nan_probability():
    p = np.array([1e-3, np.nan, 1e-3])
    with pytest.raises(StepSizeError, match="nan is not below 0.1"):
        click_outcomes(p, np.full(3, 0.5))


def test_dark_state_click_raises(decay_model, ground):
    with pytest.raises(DarkStateJumpError):
        jump_sme_apply(ground, decay_model, 1e-3, True)
    with pytest.raises(DarkStateJumpError):
        jump_kraus_apply(ground, decay_model, 1e-3, True)


def test_feedback_zero_operator_matches_plain_sme(decay_model, excited):
    rng = trajectory_rng(31, 0)
    rho_a = excited
    rho_b = excited
    f_zero = np.zeros((2, 2), dtype=complex)
    for _ in range(500):
        p = jump_probability(rho_a, decay_model, 1e-3)
        dn = rng.random() < p
        rho_a = jump_sme_apply(rho_a, decay_model, 1e-3, dn)
        rho_b = jump_feedback_apply(rho_b, decay_model, f_zero, 1e-3, dn)
        np.testing.assert_array_equal(rho_a, rho_b)


def test_feedback_reexcitation(decay_model, excited, qubit_ops):
    # exp(-iF) = sigma_x for F = (pi/2)(sigma_x - 1); the click branch applies
    # sigma_x sigma_minus = |e><e| and re-excites the atom
    f_op = (np.pi / 2.0) * (qubit_ops["sigma_x"] - np.eye(2))
    out = jump_feedback_apply(excited, decay_model, f_op, 1e-3, True)
    np.testing.assert_allclose(out, excited, atol=1e-12)
    # oracle: the matrix product sigma_x @ sigma_minus is the |e><e| projector
    np.testing.assert_allclose(
        qubit_ops["sigma_x"] @ qubit_ops["sigma_minus"], np.diag([1.0, 0.0]), atol=1e-15
    )


def test_feedback_requires_unit_efficiency(qubit_ops, excited):
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], efficiency=0.7)
    with pytest.raises(ValueError, match="unit efficiency"):
        jump_feedback_apply(excited, model, np.zeros((2, 2)), 1e-3, False)


def test_feedback_requires_hermitian_operator(decay_model, excited):
    with pytest.raises(ValueError, match="Hermitian"):
        jump_feedback_apply(excited, decay_model, np.array([[0, 1], [0, 0]], dtype=complex), 1e-3, False)


def test_feedback_unitary_is_the_exponential_of_a_hermitian_generator():
    from scipy.linalg import expm

    rng = np.random.default_rng(41)
    mat = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    f_op = 0.5 * (mat + dagger(mat))
    u = feedback_unitary(f_op)
    assert np.max(np.abs(u - expm(-1j * f_op))) <= 1e-14
    assert np.max(np.abs(u @ dagger(u) - np.eye(12))) <= 1e-14


@pytest.mark.parametrize("f_op", [np.array([[0, 1], [0, 0]], dtype=complex),
                                  np.array([[np.nan, 0], [0, 1]], dtype=complex)])
def test_feedback_unitary_rejects_non_hermitian_generators(f_op):
    with pytest.raises(ValueError, match="feedback operator must be Hermitian"):
        feedback_unitary(f_op)


def test_feedback_requires_operator(decay_model, excited):
    with pytest.raises(ValueError, match="feedback operator"):
        jump_feedback_apply(excited, decay_model, None, 1e-3, False)


def test_feedback_ensemble_matches_modified_channel(qubit_ops, excited):
    # E[rho_c] under click feedback solves the Lindblad equation with the
    # replaced channel exp(-iF) c (z-scored against the deterministic solution)
    from contmon.ensemble import EnsembleSpec, Scenario, compare_to_me, run_ensemble
    from contmon.jump import feedback_unitary

    f_op = (np.pi / 4.0) * qubit_ops["sigma_x"]
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])])
    spec = EnsembleSpec(
        n_traj=3000, master_seed=77, dt=2e-3, t_final=2.0,
        observables=(("rho_ee", qubit_ops["projector_e"]),),
    )
    scen = Scenario("jump_feedback", model, excited, feedback_operator=f_op)
    stats = run_ensemble(spec, scen)
    c_mod = feedback_unitary(f_op) @ qubit_ops["sigma_minus"]
    me_model = OpenSystemModel(np.zeros((2, 2)), [(1.0, c_mod)])
    states = integrate_me(me_model, excited, stats.t)
    ref = {"rho_ee": np.einsum("tij,ji->t", states, qubit_ops["projector_e"]).real}
    report = compare_to_me(stats, ref, threshold=4.0)
    assert report.passed, f"max |z| = {report.max_abs_z:.2f}"


def test_hermiticity_preserved_every_step(qubit_ops):
    model = OpenSystemModel(0.4 * qubit_ops["sigma_y"], [(0.8, qubit_ops["sigma_minus"])])
    rng = trajectory_rng(3, 0)
    rho = random_density_matrix(np.random.default_rng(0))
    for _ in range(200):
        p = jump_probability(rho, model, 1e-3)
        dn = click_outcomes(p, rng.random(np.shape(p)))
        rho = jump_sme_apply(rho, model, 1e-3, dn)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
