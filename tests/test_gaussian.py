import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_are, solve_lyapunov

from contmon import core_ops, gaussian
from contmon.core_ops import CHUNK_BUFFER_BYTES, rk4_step
from contmon.gaussian import (
    ConvergenceError,
    GaussianModel,
    GaussianState,
    HurwitzError,
    UnreachableDirectionError,
    _sym,
    closed_loop_unconditional,
    conditional_cov_rhs,
    conditional_step,
    covariance_path,
    excess_noise_ss,
    hurwitz_report,
    lqg_gain,
    lyapunov_solve,
    markovian_gain,
    opo_model,
    opo_reference,
    riccati_steady_state,
    symplectic_form,
    unconditional_moment_rhs,
    unconditional_moments,
)

from conftest import two_mode_model

CHI, KAPPA = 0.2, 1.0


@pytest.fixture()
def opo():
    return opo_model(CHI, KAPPA, 1.0)


# ------------------------------------------------------------------- moments


def generic_model(rng, n_modes=3, n_currents=2):
    """Random A, positive semidefinite D and unrelated B and E: no structure
    (zeros, identities, E = B) that could hide a change in rounding."""
    dim = 2 * n_modes
    root = rng.normal(size=(dim, dim))
    return GaussianModel(rng.normal(size=(dim, dim)) - 2.0 * np.eye(dim), root @ root.T,
                         rng.normal(size=(dim, n_currents)), rng.normal(size=(dim, n_currents)))


def named_model(name, rng):
    return {"opo": lambda: opo_model(CHI, KAPPA, 1.0), "two_mode": two_mode_model,
            "generic": lambda: generic_model(rng)}[name]()


def random_cov(rng, dim):
    root = rng.normal(size=(dim, dim))
    return _sym(root @ root.T + np.eye(dim))


def dop853_path(model, cov0, dt, n_steps, monitored=True):
    """The flow of :func:`conditional_cov_rhs` (with B = E = 0 unless
    ``monitored``) on the grid k dt, by adaptive 8th-order Runge-Kutta."""
    if not monitored:
        model = GaussianModel(model.A, model.D, 0.0 * model.B, 0.0 * model.E)
    dim = model.dim
    sol = solve_ivp(lambda _, y: conditional_cov_rhs(model, y.reshape(dim, dim)).ravel(),
                    (0.0, n_steps * dt), _sym(cov0).ravel(), method="DOP853",
                    t_eval=np.arange(n_steps + 1) * dt, rtol=1e-13, atol=1e-14)
    return sol.y.T.reshape(n_steps + 1, dim, dim)


def assert_rel(new, ref, tol=1e-12):
    """|new - ref| <= tol max(1, |ref|) elementwise."""
    assert new.shape == ref.shape
    err = np.abs(new - ref) / np.maximum(1.0, np.abs(ref))
    assert np.all(err <= tol), float(np.max(err))


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
@pytest.mark.parametrize("name", ["opo", "two_mode", "generic"])
def test_covariance_path_matches_dop853(name, dt):
    # generic at dt = 1e-2 pins the chunk rule: restarting every 256 steps in
    # place of every 1 / (|H|_1 dt) steps drifts 2e-10 from the oracle here
    rng = np.random.default_rng(5)
    model = named_model(name, rng)
    cov0 = random_cov(rng, model.dim)
    assert_rel(covariance_path(model, cov0, dt, 200), dop853_path(model, cov0, dt, 200))


@pytest.mark.parametrize("name", ["opo", "two_mode", "generic"])
def test_unconditional_moments_are_the_closed_forms(name):
    # sigma(t) = sigma_ss + e^{At} (sigma_0 - sigma_ss) e^{A^T t} with
    # A sigma_ss + sigma_ss A^T + D = 0, and r(t) = e^{At} r_0
    rng = np.random.default_rng(5)
    model = named_model(name, rng)
    state = GaussianState(rng.normal(size=model.dim), random_cov(rng, model.dim))
    dt, n_steps = 1e-2, 200
    sigma_ss = solve_lyapunov(model.A, -model.D)
    props = [expm(model.A * k * dt) for k in range(n_steps + 1)]
    means, covs = unconditional_moments(model, state, dt, n_steps)
    assert_rel(covs, np.array([sigma_ss + e @ (state.cov - sigma_ss) @ e.T for e in props]))
    assert_rel(means, np.array([e @ state.mean for e in props]))


@pytest.mark.parametrize("name", ["opo", "two_mode"])
def test_covariance_path_agrees_with_rk4_of_the_public_rhs(name):
    # the per-step RK4 the exact path replaced, from vacuum as the ensemble
    # runs it: at dt = 1e-3 its own error is about 1e-13 (from a random
    # covariance, with a faster transient, 1e-10)
    model = named_model(name, None)
    dt, n_steps = 1e-3, 2500
    rk4 = [np.eye(model.dim)]
    for _ in range(n_steps):
        rk4.append(_sym(rk4_step(lambda c: conditional_cov_rhs(model, c), rk4[-1], dt)))
    assert_rel(covariance_path(model, rk4[0], dt, n_steps), np.array(rk4))


def test_covariance_path_of_no_steps():
    cov0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    path = covariance_path(opo_model(CHI, KAPPA, 1.0), cov0, 1e-3, 0)
    assert path.shape == (1, 2, 2)
    np.testing.assert_array_equal(path[0], cov0)


@pytest.mark.parametrize("monitored", [True, False])
def test_unstable_covariance_path_matches_dop853(monitored):
    model = opo_model(0.6, KAPPA, 1.0)  # chi > kappa/2: p grows without bound
    assert not hurwitz_report(model.A)[0]
    path = covariance_path(model, np.eye(2), 1e-3, 5000, monitored=monitored)
    assert np.all(np.isfinite(path))
    assert_rel(path, dop853_path(model, np.eye(2), 1e-3, 5000, monitored))


@pytest.mark.parametrize("name", ["opo", "two_mode"])
def test_coarse_covariance_path_matches_dop853(name):
    rng = np.random.default_rng(5)
    model = named_model(name, rng)
    cov0 = random_cov(rng, model.dim)
    assert_rel(covariance_path(model, cov0, 0.2, 50), dop853_path(model, cov0, 0.2, 50))


@pytest.mark.parametrize("dt", [1e-6, 1e-2])
@pytest.mark.parametrize("name", ["opo", "two_mode"])
def test_gaussian_propagators_match_scipy_expm(name, dt):
    # Phi = e^{H dt} of the monitored and unmonitored covariance flows and
    # the mean step e^{A dt}, as covariance_path and unconditional_moments
    # form them
    model = named_model(name, np.random.default_rng(5))
    a, d, s = model.A + model.E @ model.B.T, model.D - model.E @ model.E.T, model.B @ model.B.T
    for gen in (np.block([[a, d], [s, -a.T]]),
                np.block([[model.A, model.D], [0.0 * s, -model.A.T]]), model.A):
        got, ref = core_ops.expm(gen * dt), expm(gen * dt)
        assert np.linalg.norm(got - ref, 1) <= 1e-12 * np.linalg.norm(ref, 1)


def test_fine_covariance_path_holds_no_more_than_its_chunk_buffers(opo):
    # at dt = 1e-6 the norm rule allows 769 000 steps a chunk; the buffer cap
    # keeps the memory beyond the path bounded, and the fine path still meets
    # the coarse one on their shared grid, to the rounding of 200 000 steps
    # (measured 3.1e-12)
    tracemalloc.start()
    try:
        path = covariance_path(opo, np.eye(2), 1e-6, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.nbytes + 4 * CHUNK_BUFFER_BYTES
    assert_rel(path[::1000], covariance_path(opo, np.eye(2), 1e-3, 200),
               tol=200_000 * np.finfo(float).eps)


def test_long_covariance_path_ends_at_the_riccati_steady_state(opo):
    path = covariance_path(opo, np.eye(2), 1e-3, 200_000)
    assert np.all(np.isfinite(path))
    np.testing.assert_allclose(path[-1], riccati_steady_state(opo), rtol=0, atol=1e-12)


def test_zero_model_rhs():
    model = GaussianModel(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 1)))
    drdt, dsdt = unconditional_moment_rhs(model, GaussianState.vacuum(1))
    np.testing.assert_array_equal(drdt, 0)
    np.testing.assert_array_equal(dsdt, 0)


def test_opo_unconditional_steady_state(opo):
    sigma = np.diag([1.0 / 1.4, 1.0 / 0.6])
    _, dsdt = unconditional_moment_rhs(opo, GaussianState(np.zeros(2), sigma))
    np.testing.assert_allclose(dsdt, 0, atol=1e-14)
    np.testing.assert_allclose(lyapunov_solve(opo.A, opo.D), sigma, atol=1e-12)


def test_instability_at_threshold():
    model = opo_model(0.5, 1.0, 1.0)  # chi = kappa/2: marginal in p
    ok, max_real, marginal = hurwitz_report(model.A)
    assert not ok and marginal
    with pytest.raises(HurwitzError, match="marginal"):
        lyapunov_solve(model.A, model.D)


def test_conditional_step_fixed_point(opo):
    # the printed conditional steady state annihilates the Riccati flow
    sigma_ss = np.diag([(KAPPA - 2 * CHI) / KAPPA, KAPPA / (KAPPA - 2 * CHI)])
    np.testing.assert_allclose(conditional_cov_rhs(opo, sigma_ss), 0, atol=1e-14)
    state = GaussianState(np.array([0.3, -0.2]), sigma_ss)
    new, _ = conditional_step(state, opo, 1e-3, np.array([0.01, 0.0]))
    np.testing.assert_allclose(new.cov, sigma_ss, atol=1e-14)


def test_conditional_step_unmonitored_reduces_to_unconditional():
    model = GaussianModel(
        np.diag([-0.7, -0.3]), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))
    )
    state = GaussianState.vacuum(1)
    _, dsdt = unconditional_moment_rhs(model, state)
    np.testing.assert_allclose(conditional_cov_rhs(model, state.cov), dsdt, atol=1e-15)
    new, dy = conditional_step(state, model, 1e-3, np.array([0.02, -0.01]))
    np.testing.assert_allclose(dy, [0.02, -0.01], atol=1e-15)


def test_opo_current_mean(opo):
    # E[dy_q] = sqrt(2 eta kappa) <q> dt, consistent with the Hilbert-space
    # current through q = (a + a^dag)/sqrt(2)
    state = GaussianState(np.array([0.4, 0.1]), np.eye(2))
    _, dy = conditional_step(state, opo, 1e-3, np.zeros(2))
    assert dy[0] == pytest.approx(np.sqrt(2.0) * 0.4 * 1e-3)
    assert dy[1] == pytest.approx(0.0)


# ------------------------------------------------------------------- Lyapunov


def test_lyapunov_identity_case():
    np.testing.assert_allclose(lyapunov_solve(-np.eye(2), np.eye(2)), np.eye(2) / 2, atol=1e-14)


def test_lyapunov_decoupled_scalars():
    x = lyapunov_solve(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]))
    np.testing.assert_allclose(x, np.eye(2), atol=1e-14)


def test_lyapunov_random_stable_vs_scipy():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.normal(size=(4, 4))
        a = a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(4)
        q = rng.normal(size=(4, 4))
        q = q @ q.T + 0.1 * np.eye(4)
        x = lyapunov_solve(a, q)
        residual = a @ x + x @ a.T + q
        assert np.max(np.abs(residual)) <= 1e-10
        np.testing.assert_allclose(x, solve_lyapunov(a, -q), atol=1e-9)


def test_lyapunov_rejects_unstable():
    with pytest.raises(HurwitzError):
        lyapunov_solve(np.diag([1.0, -1.0]), np.eye(2))


# ------------------------------------------------------------------- Riccati


def test_riccati_opo_closed_form(opo):
    sigma_c = riccati_steady_state(opo)
    np.testing.assert_allclose(sigma_c, np.diag([0.6, 1.0 / 0.6]), atol=1e-8)
    assert np.max(np.abs(conditional_cov_rhs(opo, sigma_c))) <= 1e-10


def test_riccati_unmonitored_reduces_to_lyapunov():
    model = GaussianModel(
        np.diag([-0.7, -0.3]), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))
    )
    np.testing.assert_allclose(
        riccati_steady_state(model), lyapunov_solve(model.A, model.D), atol=1e-12
    )


def test_riccati_no_squeezing_gives_vacuum():
    model = opo_model(0.0, 1.0, 1.0)
    np.testing.assert_allclose(riccati_steady_state(model), np.eye(2), atol=1e-10)


def test_riccati_vs_scipy_oracle():
    # independent route: scipy's CARE solver on the equivalent formulation
    for chi in (0.1, 0.3, 0.45):
        for eta in (0.4, 1.0):
            model = opo_model(chi, 1.0, eta)
            ours = riccati_steady_state(model)
            a_t = model.A + model.E @ model.B.T
            ref = solve_continuous_are(
                a_t.T, model.B, model.D - model.E @ model.E.T, np.eye(2)
            )
            np.testing.assert_allclose(ours, ref, atol=1e-9)


def test_riccati_physicality(opo):
    sigma_c = riccati_steady_state(opo)
    omega = symplectic_form(1)
    assert np.linalg.eigvalsh(sigma_c + 1j * omega).min() >= -1e-8


@pytest.mark.parametrize("solve, message", [
    (riccati_steady_state, "Riccati iteration did not converge"),
    (lambda opo: lqg_gain(opo, np.eye(2), np.diag([1.0, 0.0]), np.eye(2)),
     "LQG Riccati did not converge"),
], ids=["riccati", "lqg"])
def test_newton_kleinman_reports_non_convergence(opo, monkeypatch, solve, message):
    # one Newton step from either seed leaves a residual far above SOLVER_TOL
    monkeypatch.setattr(gaussian, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=message):
        solve(opo)


# ------------------------------------------------------------------- LQG


def test_lqg_scalar_closed_form():
    # quadratic formula oracle: a=-1, p=f=q=1 gives the stabilizing root
    # y = sqrt(2) - 1 and closed loop -sqrt(2)
    res = lqg_gain(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert res.riccati_solution[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-10)
    assert res.gain[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-10)
    assert res.closed_loop_hurwitz
    assert res.closed_loop_max_real == pytest.approx(-np.sqrt(2.0), abs=1e-10)


def test_lqg_zero_state_cost(opo):
    res = lqg_gain(opo, np.eye(2), np.zeros((2, 2)), np.eye(2))
    np.testing.assert_allclose(res.riccati_solution, 0, atol=1e-12)
    np.testing.assert_allclose(res.gain, 0, atol=1e-12)


def test_lqg_momentum_only_feedback_is_useless(opo):
    # displacement along p cannot address noise in q: K_opt = 0
    res = lqg_gain(opo, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(res.gain, 0, atol=1e-10)


def test_lqg_matches_scipy_care(opo):
    p_cost, q_cost = np.diag([1.0, 0.0]), np.eye(2)
    for f_mat in (np.eye(2), np.array([[1.0, 1.0], [0.0, 0.0]])):
        res = lqg_gain(opo, f_mat, p_cost, q_cost)
        ref = solve_continuous_are(opo.A, f_mat, p_cost, q_cost)
        np.testing.assert_allclose(res.riccati_solution, ref, atol=1e-9)
        assert res.residual <= 1e-10


def test_excess_noise_full_rank_matches_f_a(opo):
    # published closed form f_A for F = identity
    res = lqg_gain(opo, np.eye(2), np.diag([1.0, 0.0]), np.eye(2))
    sigma_excess = excess_noise_ss(opo, np.eye(2), res.gain)
    ref = opo_reference(CHI, KAPPA, lam=1.0, q=1.0)
    assert sigma_excess[0, 0] == pytest.approx(ref.f_a, abs=1e-6)
    assert sigma_excess[0, 0] == pytest.approx(0.0655386, abs=1e-6)


F_CONJUGATE = np.array([[1.0, 1.0], [0.0, 0.0]])


@pytest.mark.xfail(
    strict=True,
    reason="the published f_B closed form equals tr(Y N) -- the optimal "
    "steady-state cost of the constrained problem -- not the excess-noise "
    "matrix element; the Riccati/Lyapunov solve (confirmed by scipy and by "
    "Monte Carlo of the closed-loop means) gives Sigma_11 = 0.0506978 at "
    "q = lam = kappa = 1, chi = 0.2.  See the decisions ledger.",
)
def test_excess_noise_conjugate_matches_printed_f_b(opo):
    res = lqg_gain(opo, F_CONJUGATE, np.diag([1.0, 0.0]), np.eye(2))
    sigma_excess = excess_noise_ss(opo, F_CONJUGATE, res.gain)
    ref = opo_reference(CHI, KAPPA, lam=1.0, q=1.0)
    assert sigma_excess[0, 0] == pytest.approx(ref.f_b, abs=1e-6)


def test_excess_noise_conjugate_solver_value_and_f_b_identity(opo):
    # frozen solver value, cross-checked against scipy CARE, plus the identity
    # explaining the printed number: f_B = tr(Y N), the optimal total cost
    p_cost, q_cost = np.diag([1.0, 0.0]), np.eye(2)
    res = lqg_gain(opo, F_CONJUGATE, p_cost, q_cost)
    sigma_c = riccati_steady_state(opo)
    noise = (opo.E - sigma_c @ opo.B) @ (opo.E - sigma_c @ opo.B).T
    sigma_excess = excess_noise_ss(opo, F_CONJUGATE, res.gain, cov_c=sigma_c)
    # independent oracle: scipy CARE + Lyapunov
    y_ref = solve_continuous_are(opo.A, F_CONJUGATE, p_cost, q_cost)
    k_ref = np.linalg.solve(q_cost, F_CONJUGATE.T @ y_ref)
    sig_ref = solve_lyapunov(opo.A - F_CONJUGATE @ k_ref, -noise)
    np.testing.assert_allclose(sigma_excess, sig_ref, atol=1e-9)
    assert sigma_excess[0, 0] == pytest.approx(0.050697940, abs=1e-8)
    ref = opo_reference(CHI, KAPPA, lam=1.0, q=1.0)
    assert np.trace(res.riccati_solution @ noise) == pytest.approx(ref.f_b, abs=1e-10)


def test_excess_noise_vanishes_as_cost_vanishes(opo):
    sigma_c = riccati_steady_state(opo)
    previous = np.inf
    for q in 10.0 ** -np.arange(2, 9):
        res = lqg_gain(opo, np.eye(2), np.diag([1.0, 0.0]), q * np.eye(2))
        sig = excess_noise_ss(opo, np.eye(2), res.gain, cov_c=sigma_c)
        assert sig[0, 0] < previous
        previous = sig[0, 0]
    assert previous < 1e-4


# ------------------------------------------------------------------- Markovian


def test_markovian_gain_closed_form(opo):
    res = markovian_gain(opo, np.eye(2))
    expected = np.diag([CHI * np.sqrt(2.0 / KAPPA), 0.0])
    np.testing.assert_allclose(res.gain, expected, atol=1e-10)
    assert res.gain[0, 0] == pytest.approx(0.2828427, abs=1e-6)
    assert res.closed_loop_hurwitz


def test_markovian_gain_non_full_rank_ok(opo):
    res = markovian_gain(opo, np.diag([1.0, 0.0]))
    assert res.residual <= 1e-10
    assert res.gain[0, 0] == pytest.approx(0.2828427, abs=1e-6)


def test_markovian_gain_unreachable_direction(opo):
    with pytest.raises(UnreachableDirectionError, match="'q'"):
        markovian_gain(opo, np.diag([0.0, 1.0]))


def test_closed_loop_unconditional_markovian(opo):
    res = markovian_gain(opo, np.eye(2))
    sigma_unc, decays = closed_loop_unconditional(opo, np.eye(2), ("markovian", res.gain))
    np.testing.assert_allclose(sigma_unc, riccati_steady_state(opo), atol=1e-8)
    assert decays


def test_closed_loop_unconditional_no_feedback(opo):
    sigma_unc, _ = closed_loop_unconditional(opo, np.eye(2), ("none", None))
    np.testing.assert_allclose(sigma_unc, np.diag([1.0 / 1.4, 1.0 / 0.6]), atol=1e-8)


def test_closed_loop_unconditional_lqg(opo):
    res = lqg_gain(opo, np.eye(2), np.diag([1.0, 0.0]), np.eye(2))
    sigma_unc, _ = closed_loop_unconditional(opo, np.eye(2), ("lqg", res.gain))
    ref = opo_reference(CHI, KAPPA)
    assert sigma_unc[0, 0] == pytest.approx(0.6 + ref.f_a, abs=1e-8)


@pytest.mark.parametrize("call, name", [
    (lambda opo: lqg_gain(opo, np.eye(3), np.eye(2), np.eye(3)), "feedback matrix F"),
    (lambda opo: lqg_gain(opo, np.eye(2), np.array([[1.0]]), np.eye(2)), "state cost P"),
    (lambda opo: lqg_gain(opo, np.eye(2)[:, :1], np.diag([1.0, 0.0]), np.eye(2)),
     "control cost Q"),
    (lambda opo: markovian_gain(opo, np.eye(3)), "feedback matrix F"),
    (lambda opo: markovian_gain(opo, np.ones((1, 2))), "feedback matrix F"),
], ids=["lqg_f_3x3", "lqg_p_1x1", "lqg_q_for_two_controls", "markovian_f_3x3",
        "markovian_f_one_row"])
def test_gain_synthesis_rejects_shapes_that_do_not_fit(opo, call, name):
    # 2n = 2 quadratures: F is (2, k), P is (2, 2) and Q is (k, k); P = [[1.0]]
    # used to broadcast to an all-ones matrix
    with pytest.raises(ValueError, match=name):
        call(opo)


# ------------------------------------------------------------------- OPO model


def test_opo_model_matrices():
    model = opo_model(0.2, 1.0, 1.0)
    np.testing.assert_allclose(model.A, np.diag([-0.7, -0.3]), atol=1e-15)
    np.testing.assert_allclose(model.D, np.eye(2), atol=1e-15)
    assert model.B[0, 0] == pytest.approx(-1.0)
    ok, _, _ = hurwitz_report(model.A)
    assert ok


def test_opo_model_instability_flag():
    model = opo_model(0.6, 1.0, 1.0)
    ok, max_real, _ = hurwitz_report(model.A)
    assert not ok and max_real > 0


def test_opo_reference_values():
    ref = opo_reference(0.2, 1.0, lam=1.0, q=1.0)
    assert ref.f_a == pytest.approx(0.0655386, abs=1e-6)
    assert ref.f_b == pytest.approx(0.0702378, abs=1e-6)
    np.testing.assert_allclose(ref.sigma_unc_ss, np.diag([1 / 1.4, 1 / 0.6]), atol=1e-12)
    np.testing.assert_allclose(ref.sigma_c_ss, np.diag([0.6, 1 / 0.6]), atol=1e-12)
    assert ref.m_opt_11 == pytest.approx(0.2828427, abs=1e-6)


def test_opo_reference_limits():
    small = opo_reference(0.2, 1.0, q=1e-12)
    assert small.f_a < 1e-5 and small.f_b < 1e-5
    near = opo_reference(0.4999999, 1.0)
    assert near.sigma_c_ss[0, 0] < 1e-6  # infinite squeezing at threshold


def test_opo_reference_domain():
    with pytest.raises(ValueError):
        opo_reference(0.5, 1.0)
    with pytest.raises(ValueError):
        opo_reference(0.2, 1.0, q=0.0)
    with pytest.raises(ValueError):
        opo_reference(0.2, 1.0, lam=0.0)


def test_solver_vs_formula_grid():
    # 10x10 grid: riccati, markovian gain and the unconditional covariance
    # against the closed forms; excess noise against f_A (full-rank F)
    chis = np.linspace(0.045, 0.405, 10)
    qs = np.logspace(-4, 1, 10)
    p_cost = np.diag([1.0, 0.0])
    for chi in chis:
        model = opo_model(chi, 1.0, 1.0)
        sigma_c = riccati_steady_state(model)
        np.testing.assert_allclose(
            sigma_c, opo_reference(chi, 1.0).sigma_c_ss, rtol=1e-6, atol=1e-9
        )
        np.testing.assert_allclose(
            lyapunov_solve(model.A, model.D),
            opo_reference(chi, 1.0).sigma_unc_ss, rtol=1e-6, atol=1e-9,
        )
        gain = markovian_gain(model, np.eye(2)).gain
        assert gain[0, 0] == pytest.approx(opo_reference(chi, 1.0).m_opt_11, rel=1e-6)
        for q in qs:
            res = lqg_gain(model, np.eye(2), p_cost, q * np.eye(2))
            sig = excess_noise_ss(model, np.eye(2), res.gain, cov_c=sigma_c)
            f_a = opo_reference(chi, 1.0, lam=1.0, q=q).f_a
            assert sig[0, 0] == pytest.approx(f_a, rel=1e-6, abs=1e-12)


def test_printed_f_b_dominates_f_a_on_q_grid():
    # the published inequality f_B >= f_A holds for the closed forms
    for q in np.logspace(-4, 2, 10):
        ref = opo_reference(0.2, 1.0, lam=1.0, q=q)
        assert ref.f_b >= ref.f_a


def test_symmetry_preserved_by_conditional_stepping(opo):
    state = GaussianState.vacuum(1)
    rng = np.random.default_rng(30)
    for _ in range(200):
        state, _ = conditional_step(state, opo, 1e-2, rng.normal(0, 0.1, size=2))
        np.testing.assert_array_equal(state.cov, state.cov.T)
    omega = symplectic_form(1)
    assert np.linalg.eigvalsh(state.cov + 1j * omega).min() >= -1e-8
