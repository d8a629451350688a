"""Reference values for the benchmark's checks, computed without contmon.

Everything here uses numpy and scipy only: closed forms for decay, thermal and
squeezed baths, coherent driving and Fock decay; a Lindblad propagator built
from ``np.kron`` and ``scipy.linalg.expm``; and the OPO Gaussian moments from
the scalar Riccati ODE (``solve_ivp``) and an independently solved control
Riccati equation (``solve_continuous_are``).

Conventions match the program's documented ones: qubit basis (|e>, |g>) with
sigma_minus = |g><e|; q = (a + a^dag)/sqrt(2); Gaussian covariances in the
sigma = <{dr, dr^T}> convention (vacuum is the identity).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_are

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PROJECTOR_E = np.diag([1.0, 0.0]).astype(complex)


def decay(t, rate=1.0):
    """Excited population under spontaneous emission: e^{-rate t}."""
    return np.exp(-rate * np.asarray(t))


def thermal_population(t, n_thermal, rate=1.0):
    """Excited population from |e> in a thermal (or squeezed) bath of
    occupation N: N/(2N+1) + (N+1)/(2N+1) e^{-(2N+1) rate t}."""
    total = 2.0 * n_thermal + 1.0
    steady = n_thermal / total
    return steady + (1.0 - steady) * np.exp(-total * rate * np.asarray(t))


def coherent_amplitude(t, beta, kappa=1.0):
    """Cavity amplitude alpha(t) = -(2 beta / sqrt(kappa)) (1 - e^{-kappa t/2})
    from vacuum under the drive i sqrt(kappa)(beta* a - beta a^dag)."""
    return -(2.0 * beta / np.sqrt(kappa)) * (1.0 - np.exp(-0.5 * kappa * np.asarray(t)))


def coherent_moments(t, beta, kappa=1.0):
    """(<n>, <q>) of the driven coherent state: |alpha|^2 and sqrt(2) Re alpha."""
    alpha = coherent_amplitude(t, beta, kappa)
    return np.abs(alpha) ** 2, np.sqrt(2.0) * np.real(alpha)


def fock_decay(t, n0, rate=1.0):
    """Mean photon number from Fock |n0> under damping: n0 e^{-rate t}."""
    return n0 * np.exp(-rate * np.asarray(t))


def dissipator_superop(c):
    """Row-major superoperator of D[c] rho = c rho c^dag - {c^dag c, rho}/2,
    using vec(A rho B) = (A kron B^T) vec(rho)."""
    c = np.asarray(c, dtype=complex)
    eye = np.eye(c.shape[0])
    cdc = c.conj().T @ c
    return np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T)


def hamiltonian_superop(h):
    """Row-major superoperator of -i[H, rho]."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def lindblad_expectation(h, channels, rho0, observable, t_grid):
    """<observable>(t) on a uniform grid, propagating rho0 with the exact
    one-step propagator expm(L dt) of -i[H, .] + sum_k rate_k D[c_k]."""
    t_grid = np.asarray(t_grid, dtype=float)
    lmat = hamiltonian_superop(h)
    for rate, c in channels:
        lmat = lmat + rate * dissipator_superop(c)
    step = expm(lmat * (t_grid[1] - t_grid[0]))
    vec = np.asarray(rho0, dtype=complex).reshape(-1)
    obs_t = np.asarray(observable, dtype=complex).T.reshape(-1)  # tr(A rho) = vec(A^T).vec(rho)
    out = np.empty(t_grid.size)
    for k in range(t_grid.size):
        out[k] = (obs_t @ vec).real
        vec = step @ vec
    return out


def homodyne_feedback_channels(c, f_op, kappa, eta):
    """(H_extra, channels) of the homodyne-feedback master equation in Lindblad
    form: D[sqrt(kappa) c - i F] + ((1 - eta)/eta) D[F] - i[sqrt(kappa)(c^dag F + F c)/2, .]."""
    c = np.asarray(c, dtype=complex)
    f_op = np.asarray(f_op, dtype=complex)
    root = np.sqrt(kappa)
    h_extra = 0.5 * root * (c.conj().T @ f_op + f_op @ c)
    channels = [(1.0, root * c - 1j * f_op)]
    if eta != 1.0:
        channels.append(((1.0 - eta) / eta, f_op))
    return h_extra, channels


def jump_feedback_channel(c, f_op):
    """Collapse operator e^{-iF} c of photodetection feedback with the unitary
    e^{-iF} applied right after each click."""
    return expm(-1j * np.asarray(f_op, dtype=complex)) @ np.asarray(c, dtype=complex)


# ---------------------------------------------------------------------------
# OPO (single mode, homodyne on q): A = diag(-(chi + kappa/2), chi - kappa/2),
# D = kappa I, B = E = diag(-sqrt(eta kappa), 0).


def opo_matrices(chi, kappa, eta=1.0):
    a = np.diag([-(chi + 0.5 * kappa), chi - 0.5 * kappa])
    d = kappa * np.eye(2)
    b = np.diag([-np.sqrt(eta * kappa), 0.0])
    return a, d, b, b.copy()


def lyapunov_variance(t, drift, diffusion):
    """Vacuum-started variance of dx = drift x dt + noise, sigma' = 2 drift sigma
    + diffusion: sigma_ss + (1 - sigma_ss) e^{2 drift t}, sigma_ss = -diffusion/(2 drift)."""
    steady = -diffusion / (2.0 * drift)
    return steady + (1.0 - steady) * np.exp(2.0 * drift * np.asarray(t))


def lqg_gain(a, f_mat, p_cost, q_cost):
    """Control gain K = Q^-1 F^T Y with A^T Y + Y A + P - Y F Q^-1 F^T Y = 0."""
    y = solve_continuous_are(a, f_mat, p_cost, q_cost)
    return np.linalg.solve(q_cost, f_mat.T @ y)


def opo_markovian_gain(chi, kappa, lam=1.0):
    """Closed-form optimal Markovian gain for F = lam I: only (M)_11 =
    (chi/lam) sqrt(2/kappa) is nonzero."""
    return np.diag([(chi / lam) * np.sqrt(2.0 / kappa), 0.0])


def opo_q_moments(t_grid, chi, kappa, feedback=None):
    """Conditional variance and unconditional variance of q on ``t_grid``.

    The conditional variance solves the scalar Riccati ODE
    s' = 2 a_q s + kappa - kappa (s - 1)^2 (unit efficiency).  The conditional
    means obey dr = A_cl r dt + G dw with G = (E - s B)/sqrt(2) (+ F M for
    Markovian feedback), so their covariance V (same units) obeys
    V' = A_cl V + V A_cl^T + 2 G G^T; the unconditional variance is s + V_qq.
    ``feedback`` is None, ("markovian", F, M) or ("lqg", F, K).
    """
    a, _, b, e = opo_matrices(chi, kappa)
    a_cl = a.copy()
    fm = np.zeros((2, 2))
    if feedback is not None:
        kind, f_mat, gain = feedback
        if kind == "markovian":
            fm = f_mat @ gain
            a_cl = a - np.sqrt(2.0) * fm @ b.T
        elif kind == "lqg":
            a_cl = a - f_mat @ gain
        else:
            raise ValueError(f"unknown feedback kind {kind!r}")

    def rhs(_t, y):
        s = y[0]
        v = y[1:].reshape(2, 2)
        ds = 2.0 * a[0, 0] * s + kappa - kappa * (s - 1.0) ** 2
        cov = np.diag([s, 0.0])  # only the q column of E - sigma B is nonzero
        g = (e - cov @ b) / np.sqrt(2.0) + fm
        dv = a_cl @ v + v @ a_cl.T + 2.0 * g @ g.T
        return np.concatenate([[ds], dv.reshape(-1)])

    t_grid = np.asarray(t_grid, dtype=float)
    y0 = np.concatenate([[1.0], np.zeros(4)])
    sol = solve_ivp(rhs, (t_grid[0], t_grid[-1]), y0, t_eval=t_grid,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference ODE failed: {sol.message}")
    cond = sol.y[0]
    return cond, cond + sol.y[1]


def opo_steady_state(chi, kappa, lam=1.0, q=1.0):
    """Published steady-state closed forms: sigma_c, sigma_unc and the LQG
    excess noise f_A (unit efficiency)."""
    sigma_c = np.diag([(kappa - 2 * chi) / kappa, kappa / (kappa - 2 * chi)])
    sigma_unc = np.diag([kappa / (kappa + 2 * chi), kappa / (kappa - 2 * chi)])
    f_a = 4 * q * chi**2 / (kappa * np.sqrt(q * (4 * lam**2 + q * (kappa + 2 * chi) ** 2)))
    return sigma_c, sigma_unc, f_a


# ---------------------------------------------------------------------------
# checks


def mean_check(mean, se, ref, z, allowance):
    """Worst normalized excess of |mean - ref| over z SE + allowance.

    Returns (passed, worst_index, worst_ratio) where ratio <= 1 passes.
    """
    mean, se, ref = (np.asarray(x, dtype=float) for x in (mean, se, ref))
    if mean.shape != ref.shape or se.shape != ref.shape:
        raise ValueError("mean, se and reference must share a grid")
    diff = np.abs(mean - ref)
    limit = z * se + allowance
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(diff == 0.0, 0.0, diff / limit)
    if not np.all(np.isfinite(ratio)):
        return False, int(np.argmax(~np.isfinite(ratio))), float("inf")
    worst = int(np.argmax(ratio))
    return bool(ratio[worst] <= 1.0), worst, float(ratio[worst])
