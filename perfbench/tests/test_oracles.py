"""The references agree with independent derivations, and the checks built on
them pass correct output and fail a perturbed reference."""

import copy
import json

import numpy as np
import pytest

import oracles

T = np.linspace(0.0, 3.0, 301)
E = oracles.PROJECTOR_E
SM = oracles.SIGMA_MINUS
SP = SM.conj().T
SX = oracles.SIGMA_X


def _boson_ops(dim):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    return a, a.conj().T @ a, (a + a.conj().T) / np.sqrt(2.0)


def test_decay_matches_lindblad_propagator():
    ref = oracles.lindblad_expectation(np.zeros((2, 2)), [(1.0, SM)], E, E, T)
    np.testing.assert_allclose(ref, oracles.decay(T), rtol=0, atol=1e-12)


def test_thermal_population_matches_lindblad_propagator():
    n = 1.0
    ref = oracles.lindblad_expectation(np.zeros((2, 2)), [(n + 1.0, SM), (n, SP)], E, E, T)
    np.testing.assert_allclose(ref, oracles.thermal_population(T, n), atol=1e-12)
    np.testing.assert_allclose(oracles.thermal_population(T, 1.0)[-1], 1 / 3 + 2 / 3 * np.exp(-9.0))


def test_squeezed_vacuum_population_matches_replaced_operator():
    n = 0.5
    r = 0.5 * np.log(1.0 + 2.0 * n + 2.0 * np.sqrt(n * (n + 1.0)))
    op = np.cosh(r) * SM - np.sinh(r) * SP
    ref = oracles.lindblad_expectation(np.zeros((2, 2)), [(1.0, op)], E, E, T)
    np.testing.assert_allclose(ref, oracles.thermal_population(T, n), atol=1e-12)
    np.testing.assert_allclose(ref, 0.25 + 0.75 * np.exp(-2.0 * T), atol=1e-12)


@pytest.mark.parametrize("eta", [0.8, 1.0])
def test_homodyne_feedback_lindblad_form_equals_feedback_me(eta):
    """D[c] + D[F]/eta - i[F, c . + . c^dag] written out against the Lindblad form."""
    f = 0.4 * SX
    eye = np.eye(2)
    direct = (oracles.dissipator_superop(SM) + oracles.dissipator_superop(f) / eta
              - 1j * (np.kron(f @ SM, eye) + np.kron(f, SM.conj())
                      - np.kron(SM, f.T) - np.kron(eye, (SM.conj().T @ f).T)))
    h, channels = oracles.homodyne_feedback_channels(SM, f, 1.0, eta)
    lindblad = oracles.hamiltonian_superop(h) + sum(
        rate * oracles.dissipator_superop(c) for rate, c in channels)
    np.testing.assert_allclose(lindblad, direct, atol=1e-14)


def test_jump_feedback_channel_rotates_after_the_click():
    f = (np.pi / 4.0) * SX
    op = oracles.jump_feedback_channel(SM, f)
    np.testing.assert_allclose(op.conj().T @ op, SM.conj().T @ SM, atol=1e-14)
    # the click leaves |g>, the pi/4 rotation about x turns it to equal populations
    post = op @ E @ op.conj().T
    np.testing.assert_allclose(np.diag(post).real, [0.5, 0.5], atol=1e-14)


def test_coherent_moments_match_truncated_lindblad_propagator():
    dim, beta = 12, 0.5
    a, n_op, q_op = _boson_ops(dim)
    h = 1j * (np.conj(beta) * a - beta * a.conj().T)
    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    n_ref, q_ref = oracles.coherent_moments(T, beta)
    np.testing.assert_allclose(oracles.lindblad_expectation(h, [(1.0, a)], vac, n_op, T), n_ref, atol=1e-9)
    np.testing.assert_allclose(oracles.lindblad_expectation(h, [(1.0, a)], vac, q_op, T), q_ref, atol=1e-9)
    assert n_ref[-1] == pytest.approx((1.0 - np.exp(-1.5)) ** 2)


def test_fock_decay_matches_lindblad_propagator():
    dim = 12
    a, n_op, _ = _boson_ops(dim)
    fock3 = np.zeros((dim, dim), dtype=complex)
    fock3[3, 3] = 1.0
    ref = oracles.lindblad_expectation(np.zeros((dim, dim)), [(1.0, a)], fock3, n_op, T)
    np.testing.assert_allclose(ref, oracles.fock_decay(T, 3), atol=1e-12)


def test_opo_moments_reach_the_published_steady_states():
    chi, kappa = 0.2, 1.0
    grid = np.linspace(0.0, 40.0, 4001)
    sigma_c, sigma_unc, f_a = oracles.opo_steady_state(chi, kappa)
    np.testing.assert_allclose(np.diag(sigma_c), [0.6, 5.0 / 3.0])
    a, _, _, _ = oracles.opo_matrices(chi, kappa)
    eye, p_cost = np.eye(2), np.diag([1.0, 0.0])

    cond, unc = oracles.opo_q_moments(grid, chi, kappa)
    assert cond[-1] == pytest.approx(0.6, abs=1e-10)
    assert unc[-1] == pytest.approx(sigma_unc[0, 0], abs=1e-10)
    assert unc[-1] == pytest.approx(0.714286, abs=1e-6)
    # conditional variance plus the spread of the conditional means is the
    # unconditional (Lyapunov) variance at every time
    np.testing.assert_allclose(unc, oracles.lyapunov_variance(grid, a[0, 0], kappa), atol=1e-9)

    m_opt = oracles.opo_markovian_gain(chi, kappa)
    _, unc_m = oracles.opo_q_moments(grid, chi, kappa, ("markovian", eye, m_opt))
    assert unc_m[-1] == pytest.approx(sigma_c[0, 0], abs=1e-10)

    k = oracles.lqg_gain(a, eye, p_cost, eye)
    assert k[0, 0] == pytest.approx(a[0, 0] + np.sqrt(a[0, 0] ** 2 + 1.0), abs=1e-12)
    _, unc_l = oracles.opo_q_moments(grid, chi, kappa, ("lqg", eye, k))
    assert unc_l[-1] == pytest.approx(0.6 + f_a, abs=1e-10)
    assert unc_l[-1] == pytest.approx(0.6655386, abs=1e-7)


def test_mean_check_uses_z_se_plus_allowance():
    ref = np.array([1.0, 0.5, 0.25])
    se = np.array([0.0, 0.01, 0.01])
    assert oracles.mean_check(ref, se, ref, 5.5, 0.0)[0]  # 0/0 is agreement
    assert oracles.mean_check(ref + [1e-4, 0.05, -0.05], se, ref, 5.5, 1e-3)[0]
    ok, idx, ratio = oracles.mean_check(ref + [2e-3, 0.0, 0.0], se, ref, 5.5, 1e-3)
    assert not ok and idx == 0 and ratio == pytest.approx(2.0)
    assert not oracles.mean_check(ref + [0.0, 0.06, 0.0], se, ref, 5.5, 1e-3)[0]
    assert not oracles.mean_check(ref + [np.nan, 0.0, 0.0], se, ref, 5.5, 1e-3)[0]


def _run_operation(op, seed, directory):
    from contmon import config

    doc = copy.deepcopy(op.doc)
    doc["run"]["seed"] = seed
    config.run_scenario(config.parse_config(json.dumps(doc)), out_dir=directory, threads=1)


@pytest.mark.parametrize("workload, name, factor", [
    ("solver-presets", "qubit_decay_me", 1.1),
    ("solver-presets", "opo_conditional", 1.1),
    ("boson-d12", "coherent_drive", 1.1),
    ("qubit-jump", "qubit_decay_jump", 1.25),
])
def test_perturbed_reference_fails(tmp_path, workload, name, factor):
    """Program output at benchmark scale passes its references and fails the
    same references with every rate scaled by ``factor`` (t -> factor t)."""
    from run import check_operation
    from workloads import WORKLOADS

    op = next(o for o in WORKLOADS[workload].operations if o.name == name)
    _run_operation(op, 12345, tmp_path)
    grid = np.arange(op.n_steps + 1) * op.doc["run"]["dt"]
    true_refs = [np.asarray(e.reference(grid)) for e in op.expects]
    fast_refs = [np.asarray(e.reference(factor * grid)) for e in op.expects]
    assert check_operation(op, tmp_path, true_refs) == []
    assert check_operation(op, tmp_path, fast_refs) != []


def test_kraus_check_reads_the_manifest(tmp_path):
    from run import check_operation
    from workloads import WORKLOADS

    op = next(o for o in WORKLOADS["qubit-jump"].operations if o.kraus)
    _run_operation(op, 7, tmp_path)
    grid = np.arange(op.n_steps + 1) * op.doc["run"]["dt"]
    refs = [np.asarray(e.reference(grid)) for e in op.expects]
    assert check_operation(op, tmp_path, refs) == []
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["health"]["positivity_violations"] = 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert any("Kraus" in p for p in check_operation(op, tmp_path, refs))
