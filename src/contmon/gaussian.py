"""Gaussian branch: moment dynamics under general-dyne monitoring, steady-state
Riccati/Lyapunov solvers, LQG and Markovian feedback gain synthesis, and the
optical-parametric-oscillator benchmark with its closed-form targets.

Covariance convention: sigma = <{dr, dr^T}> so the vacuum has sigma = identity;
quadrature ordering is (q1, p1, ..., qn, pn) with [q, p] = i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_ops import rk4_step

__all__ = [
    "GaussianModel",
    "GaussianState",
    "OpoReference",
    "LqgResult",
    "MarkovianGain",
    "HurwitzError",
    "UnreachableDirectionError",
    "ConvergenceError",
    "symplectic_form",
    "hurwitz_report",
    "lyapunov_solve",
    "unconditional_moment_rhs",
    "conditional_cov_rhs",
    "conditional_step",
    "covariance_path",
    "unconditional_moments",
    "riccati_steady_state",
    "lqg_gain",
    "excess_noise_ss",
    "markovian_gain",
    "closed_loop_unconditional",
    "opo_model",
    "opo_reference",
]

HURWITZ_MARGIN = 1e-10
SOLVER_TOL = 1e-10


class HurwitzError(ValueError):
    """A drift matrix required to be Hurwitz is not (or is marginal)."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its residual tolerance."""


class UnreachableDirectionError(ValueError):
    """The feedback matrix cannot reach a noisy phase-space direction."""


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _require_shape(name: str, mat: np.ndarray, rows: int, cols: int | None = None) -> None:
    """ValueError naming ``name`` unless ``mat`` is (rows, cols); None takes any cols."""
    if mat.ndim != 2 or mat.shape[0] != rows or cols not in (None, mat.shape[1]):
        want = f"({rows}, {'k' if cols is None else cols})"
        raise ValueError(f"{name} must have shape {want} for this model, got {mat.shape}")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of n copies of [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def default_labels(n_modes: int) -> tuple[str, ...]:
    out = []
    for k in range(1, n_modes + 1):
        suffix = str(k) if n_modes > 1 else ""
        out += [f"q{suffix}", f"p{suffix}"]
    return tuple(out)


@dataclass(eq=False)
class GaussianModel:
    """Drift A, diffusion D (symmetric PSD) and monitoring matrices B, E.

    First and second moments evolve as r' = A r, sigma' = A sigma + sigma A^T + D
    unconditionally; monitoring adds the (E - sigma B) terms of the conditional
    equations and the current dy = -sqrt(2) B^T r dt + dw.
    """

    A: np.ndarray
    D: np.ndarray
    B: np.ndarray
    E: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.E = np.asarray(self.E, dtype=float)
        dim = self.A.shape[0]
        if self.A.shape != (dim, dim) or dim % 2:
            raise ValueError("drift matrix must be square with even dimension 2n")
        if self.D.shape != (dim, dim):
            raise ValueError("diffusion matrix dimension mismatch")
        if np.max(np.abs(self.D - self.D.T)) > 1e-12:
            raise ValueError("diffusion matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(_sym(self.D))) < -1e-10:
            raise ValueError("diffusion matrix must be positive semidefinite")
        if self.B.ndim != 2 or self.B.shape[0] != dim:
            raise ValueError("monitoring matrix B must be (2n, m)")
        if self.E.shape != self.B.shape:
            raise ValueError("monitoring matrices B and E must share a shape")
        if not self.labels:
            self.labels = default_labels(dim // 2)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def n_modes(self) -> int:
        return self.dim // 2

    @property
    def n_currents(self) -> int:
        return self.B.shape[1]

    @property
    def is_monitored(self) -> bool:
        return bool(np.any(self.B) or np.any(self.E))


@dataclass
class GaussianState:
    """First-moment vector and covariance (vacuum: mean 0, cov = identity)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if np.max(np.abs(self.cov - self.cov.T)) > 1e-10:
            raise ValueError("covariance must be symmetric")

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        return cls(np.zeros(2 * n_modes), np.eye(2 * n_modes))

    def physicality_defect(self) -> float:
        """Most negative eigenvalue of sigma + i Omega (>= 0 means physical)."""
        omega = symplectic_form(self.cov.shape[0] // 2)
        w = np.linalg.eigvalsh(self.cov + 1j * omega)
        return float(w.min())


def hurwitz_report(mat: np.ndarray, margin: float = HURWITZ_MARGIN):
    """Return (is_hurwitz, max real part, is_marginal); marginal counts as unstable."""
    reals = np.linalg.eigvals(mat).real
    max_real = float(reals.max())
    marginal = bool(abs(max_real) < margin)
    return (max_real < -margin), max_real, marginal


def lyapunov_solve(a_cl: np.ndarray, q_sym: np.ndarray) -> np.ndarray:
    """Solve A X + X A^T + Q = 0 by the dense Kronecker-structured linear solve.

    Requires A Hurwitz (margin ``HURWITZ_MARGIN``; marginal spectra are treated
    as unstable).  Adequate for a handful of modes; the dim^2 system is solved
    directly.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    q_sym = np.asarray(q_sym, dtype=float)
    ok, max_real, marginal = hurwitz_report(a_cl)
    if not ok:
        kind = "marginal" if marginal else "unstable"
        raise HurwitzError(
            f"Lyapunov solve needs a Hurwitz matrix; spectrum is {kind} "
            f"(max Re = {max_real:.3e})"
        )
    dim = a_cl.shape[0]
    eye = np.eye(dim)
    # row-major vec: vec(A X + X A^T) = (A kron I + I kron A) vec(X)
    coeff = np.kron(a_cl, eye) + np.kron(eye, a_cl)
    x = np.linalg.solve(coeff, -q_sym.reshape(-1)).reshape(dim, dim)
    x = _sym(x)
    residual = np.max(np.abs(a_cl @ x + x @ a_cl.T + q_sym))
    scale = max(1.0, float(np.max(np.abs(q_sym))), float(np.max(np.abs(x))))
    if residual > SOLVER_TOL * scale:
        raise ConvergenceError(f"Lyapunov residual {residual:.3e} too large")
    return x


def unconditional_moment_rhs(model: GaussianModel, state: GaussianState):
    """(dr/dt, dsigma/dt) = (A r, A sigma + sigma A^T + D)."""
    drdt = model.A @ state.mean
    dsdt = _sym(model.A @ state.cov + state.cov @ model.A.T + model.D)
    return drdt, dsdt


def conditional_cov_rhs(model: GaussianModel, cov: np.ndarray) -> np.ndarray:
    """Riccati flow of the conditional covariance:
    A s + s A^T + D - (E - s B)(E - s B)^T, symmetrized."""
    gain = model.E - cov @ model.B
    return _sym(model.A @ cov + cov @ model.A.T + model.D - gain @ gain.T)


def conditional_step(
    state: GaussianState,
    model: GaussianModel,
    dt: float,
    dw: np.ndarray,
    drive: np.ndarray | None = None,
):
    """One conditional update: Euler-Maruyama first moments on the shared dw grid,
    RK4 for the (deterministic) covariance, current dy = -sqrt(2) B^T r dt + dw.

    ``drive`` is an optional F u(t) phase-space displacement rate added to the
    first moments (the covariance is unaffected by linear driving).
    """
    dw = np.asarray(dw, dtype=float)
    if dw.shape[-1] != model.n_currents:
        raise ValueError("Wiener increment width must match the monitoring matrices")
    gain = model.E - state.cov @ model.B
    mean = state.mean + model.A @ state.mean * dt + gain @ dw / np.sqrt(2.0)
    if drive is not None:
        mean = mean + np.asarray(drive, dtype=float) * dt
    cov = _sym(rk4_step(lambda c: conditional_cov_rhs(model, c), state.cov, dt))
    dy = -np.sqrt(2.0) * model.B.T @ state.mean * dt + dw
    return GaussianState(mean, cov), dy


def covariance_path(
    model: GaussianModel, cov0: np.ndarray, dt: float, n_steps: int, monitored: bool = True
) -> np.ndarray:
    """RK4 covariances sigma_0 ... sigma_{n_steps} on the grid k dt, shape
    (n_steps + 1, 2n, 2n): the Riccati flow of :func:`conditional_cov_rhs` when
    ``monitored``, the flow of :func:`unconditional_moment_rhs` (B = E = 0)
    otherwise.

    The right-hand side is built once per path: X + X^T + D - g g^T with
    X = A sigma and g = E - sigma B.  It is exactly symmetric for a symmetric
    sigma, so no stage is symmetrized and every step equals
    ``_sym(rk4_step(conditional_cov_rhs))`` bit for bit.
    """
    a, d = model.A, _sym(model.D)
    b, e = (model.B, model.E) if monitored else (np.zeros_like(model.B),) * 2

    def rhs(cov):
        g = e - cov @ b
        x = a @ cov
        return x + x.T + d - g @ g.T

    out = np.empty((n_steps + 1,) + model.A.shape)
    out[0] = cov = _sym(np.asarray(cov0, dtype=float))
    for k in range(n_steps):
        cov = rk4_step(rhs, cov, dt)
        out[k + 1] = cov
    return out


def unconditional_moments(model: GaussianModel, state: GaussianState, dt: float, n_steps: int):
    """RK4 paths of the unmonitored moments on the grid k dt from ``state``:
    means of shape (n_steps + 1, 2n) and the covariances of
    :func:`covariance_path`.

    On the linear r' = A r one RK4 step is the matrix
    I + hA (I + hA/2 (I + hA/3 (I + hA/4))) with h = dt, applied once per step.
    """
    eye, ha = np.eye(model.dim), dt * model.A
    step = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
    means = np.empty((n_steps + 1, model.dim))
    means[0] = state.mean
    for k in range(n_steps):
        means[k + 1] = step @ means[k]
    return means, covariance_path(model, state.cov, dt, n_steps, monitored=False)


def riccati_steady_state(
    model: GaussianModel, tol: float = SOLVER_TOL, max_iter: int = 60
) -> np.ndarray:
    """Steady conditional covariance: the stabilizing root of the Riccati flow.

    Newton-Kleinman iteration (each step one Lyapunov solve) seeded from the
    unmonitored (Lyapunov) solution; quadratically convergent from that
    stabilizing seed.  The result is checked for symmetry, residual and
    physicality (sigma + i Omega >= -1e-8).
    """
    a, d, b, e = model.A, model.D, model.B, model.E
    if not model.is_monitored:
        return lyapunov_solve(a, d)
    a_tilde = a + e @ b.T
    d_eff = d - e @ e.T
    bbt = b @ b.T
    cov = lyapunov_solve(a, d)  # eta -> 0 seed
    residual = np.inf
    for _ in range(max_iter):
        a_k = a_tilde - cov @ bbt
        cov_next = lyapunov_solve(a_k, d_eff + cov @ bbt @ cov)
        residual = float(np.max(np.abs(conditional_cov_rhs(model, cov_next))))
        step = float(np.max(np.abs(cov_next - cov)))
        cov = cov_next
        if residual <= tol and step <= 100 * tol:
            break
    else:
        raise ConvergenceError(
            f"Riccati iteration did not converge (residual {residual:.3e})"
        )
    omega = symplectic_form(model.n_modes)
    w_min = float(np.linalg.eigvalsh(cov + 1j * omega).min())
    if w_min < -1e-8:
        raise ConvergenceError(f"Riccati solution unphysical: min eig {w_min:.3e}")
    return cov


@dataclass(frozen=True)
class LqgResult:
    """Optimal state-feedback gain K = Q^-1 F^T Y and the Riccati certificate Y."""

    gain: np.ndarray
    riccati_solution: np.ndarray
    residual: float
    closed_loop_hurwitz: bool
    closed_loop_max_real: float


def lqg_gain(model, f_mat, p_cost, q_cost, max_iter: int = 60) -> LqgResult:
    """Solve the LQG steady-state control problem for cost <r^T P r> + u^T Q u.

    Y solves A^T Y + Y A + P - Y F Q^-1 F^T Y = 0 (Newton-Kleinman, seeded with
    Y = 0, which is stabilizing because the open-loop drift of the models here
    is Hurwitz); K = Q^-1 F^T Y.  Reports whether A - F K is Hurwitz.
    ``model`` may be a :class:`GaussianModel` or a bare drift matrix.  With 2n
    quadratures and k controls F is (2n, k), P is (2n, 2n) and Q is (k, k);
    other shapes raise a ValueError naming the matrix.
    """
    a = model.A if isinstance(model, GaussianModel) else np.atleast_2d(np.asarray(model, dtype=float))
    f_mat = np.atleast_2d(np.asarray(f_mat, dtype=float))
    p_cost = np.asarray(p_cost, dtype=float)
    q_cost = np.atleast_2d(np.asarray(q_cost, dtype=float))
    _require_shape("feedback matrix F", f_mat, a.shape[0])
    _require_shape("state cost P", p_cost, a.shape[0], a.shape[0])
    _require_shape("control cost Q", q_cost, f_mat.shape[1], f_mat.shape[1])
    if np.min(np.linalg.eigvalsh(_sym(p_cost))) < -1e-12:
        raise ValueError("state cost P must be positive semidefinite")
    if np.min(np.linalg.eigvalsh(_sym(q_cost))) <= 0:
        raise ValueError("control cost Q must be positive definite")
    g_mat = f_mat @ np.linalg.solve(q_cost, f_mat.T)

    ok, max_real, _ = hurwitz_report(a)
    if not ok:
        raise HurwitzError(
            f"LQG synthesis needs an open-loop Hurwitz drift for the zero seed "
            f"(max Re = {max_real:.3e})"
        )
    y = np.zeros_like(a)
    residual = np.inf
    for _ in range(max_iter):
        a_k = a - g_mat @ y
        y_next = lyapunov_solve(a_k.T, p_cost + y @ g_mat @ y)
        residual = float(
            np.max(np.abs(a.T @ y_next + y_next @ a + p_cost - y_next @ g_mat @ y_next))
        )
        step = float(np.max(np.abs(y_next - y)))
        y = y_next
        if residual <= SOLVER_TOL and step <= 100 * SOLVER_TOL:
            break
    else:
        raise ConvergenceError(f"LQG Riccati did not converge (residual {residual:.3e})")
    gain = np.linalg.solve(q_cost, f_mat.T @ y)
    ok, max_real, _ = hurwitz_report(a - f_mat @ gain)
    return LqgResult(gain, y, residual, ok, max_real)


def excess_noise_ss(
    model: GaussianModel, f_mat, gain, cov_c: np.ndarray | None = None
) -> np.ndarray:
    """Steady-state excess noise of the conditional means under feedback
    u = -K r: the Lyapunov solution of

        (A - F K) S + S (A - F K)^T + (E - sigma_c B)(E - sigma_c B)^T = 0.
    """
    f_mat = np.atleast_2d(np.asarray(f_mat, dtype=float))
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    if cov_c is None:
        cov_c = riccati_steady_state(model)
    noise = model.E - cov_c @ model.B
    a_cl = model.A - f_mat @ gain
    return lyapunov_solve(a_cl, noise @ noise.T)


@dataclass(frozen=True)
class MarkovianGain:
    """Current-feedback matrix M with u = M I(t), and the closed-loop report."""

    gain: np.ndarray
    a_closed: np.ndarray
    closed_loop_hurwitz: bool
    closed_loop_max_real: float
    residual: float


def markovian_gain(model: GaussianModel, f_mat, cov_c: np.ndarray | None = None) -> MarkovianGain:
    """Optimal Markovian gain: solve F M = -(E - sigma_c B)/sqrt(2) so the
    first-moment noise cancels exactly.

    Least squares with a residual test stands in for the textbook F^-1, so
    non-full-rank feedback matrices succeed whenever the noisy directions lie
    in the range of F; otherwise the unreachable phase-space direction is
    named in the error.  F must be (2n, k) for 2n quadratures and k controls.
    """
    f_mat = np.atleast_2d(np.asarray(f_mat, dtype=float))
    _require_shape("feedback matrix F", f_mat, model.dim)
    if cov_c is None:
        cov_c = riccati_steady_state(model)
    target = -(model.E - cov_c @ model.B) / np.sqrt(2.0)
    m_gain, *_ = np.linalg.lstsq(f_mat, target, rcond=None)
    residual_mat = f_mat @ m_gain - target
    residual = float(np.max(np.abs(residual_mat)))
    if residual > SOLVER_TOL * max(1.0, float(np.max(np.abs(target)))):
        row = int(np.argmax(np.max(np.abs(residual_mat), axis=1)))
        label = model.labels[row] if row < len(model.labels) else f"row {row}"
        raise UnreachableDirectionError(
            f"feedback matrix cannot cancel measurement noise along {label!r} "
            f"(residual {residual:.3e})"
        )
    a_closed = model.A - np.sqrt(2.0) * f_mat @ m_gain @ model.B.T
    ok, max_real, _ = hurwitz_report(a_closed)
    return MarkovianGain(m_gain, a_closed, ok, max_real, residual)


def closed_loop_unconditional(model: GaussianModel, f_mat, gain):
    """Steady unconditional covariance sigma_c + Sigma under a feedback law.

    ``gain`` is ``("markovian", M)``, ``("lqg", K)`` or ``("none", None)``;
    returns (sigma_unc, mean_decays) where the flag certifies that the
    closed-loop drift is Hurwitz so the first moments vanish at steady state.
    """
    kind, value = gain
    cov_c = riccati_steady_state(model)
    noise_lin = (model.E - cov_c @ model.B) / np.sqrt(2.0)
    if kind == "none":
        a_cl = model.A
        noise = 2.0 * noise_lin @ noise_lin.T
    elif kind == "lqg":
        k_mat = np.atleast_2d(np.asarray(value, dtype=float))
        f2 = np.atleast_2d(np.asarray(f_mat, dtype=float))
        a_cl = model.A - f2 @ k_mat
        noise = 2.0 * noise_lin @ noise_lin.T
    elif kind == "markovian":
        m_mat = np.atleast_2d(np.asarray(value, dtype=float))
        f2 = np.atleast_2d(np.asarray(f_mat, dtype=float))
        a_cl = model.A - np.sqrt(2.0) * f2 @ m_mat @ model.B.T
        lm = noise_lin + f2 @ m_mat
        noise = 2.0 * lm @ lm.T
    else:
        raise ValueError(f"unknown gain kind {kind!r}")
    ok, _, _ = hurwitz_report(a_cl)
    if not ok:
        raise HurwitzError("closed-loop drift is not Hurwitz")
    excess = lyapunov_solve(a_cl, noise)
    return cov_c + excess, ok


def opo_model(chi: float, kappa: float, eta: float = 1.0) -> GaussianModel:
    """Single-mode optical parametric oscillator with cavity loss kappa and
    homodyne monitoring of q at efficiency eta:

        A = diag(-(chi + kappa/2), chi - kappa/2),  D = kappa I,
        B = E = diag(-sqrt(eta kappa), 0).

    Hurwitz iff |chi| < kappa/2 (instability is reported by the solvers, not
    rejected here).
    """
    if kappa <= 0:
        raise ValueError("cavity loss rate must be positive")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    a = np.diag([-(chi + kappa / 2.0), chi - kappa / 2.0])
    d = kappa * np.eye(2)
    b = np.diag([-np.sqrt(eta * kappa), 0.0])
    return GaussianModel(a, d, b, b.copy())


@dataclass(frozen=True)
class OpoReference:
    """Closed forms for the OPO benchmark, evaluated verbatim as published."""

    sigma_unc_ss: np.ndarray
    sigma_c_ss: np.ndarray
    m_opt_11: float
    f_a: float
    f_b: float


def opo_reference(chi: float, kappa: float, lam: float = 1.0, q: float = 1.0) -> OpoReference:
    """Published closed-form OPO results (unit efficiency), used as the
    regression oracle for the solvers:

        sigma_unc = diag(kappa/(kappa+2 chi), kappa/(kappa-2 chi))
        sigma_c   = diag((kappa-2 chi)/kappa, kappa/(kappa-2 chi))
        (M_opt)_11 = (chi/lam) sqrt(2/kappa)
        f_A = 4 q chi^2 / (kappa sqrt(q (4 lam^2 + q (kappa+2 chi)^2)))
        f_B = 8 q chi^2 / (q (kappa+2 chi) + sqrt(q (8 + q (kappa+2 chi)^2)))

    f_B is transcribed exactly as printed (the feedback strength does not
    appear in it); see the solver tests for how it relates to the computed
    excess noise.
    """
    if not abs(chi) < kappa / 2.0:
        raise ValueError("closed forms need |chi| < kappa/2")
    if q <= 0:
        raise ValueError("cost weight q must be positive")
    if lam == 0:
        raise ValueError("feedback strength lambda must be nonzero")
    sigma_unc = np.diag([kappa / (kappa + 2 * chi), kappa / (kappa - 2 * chi)])
    sigma_c = np.diag([(kappa - 2 * chi) / kappa, kappa / (kappa - 2 * chi)])
    m11 = (chi / lam) * np.sqrt(2.0 / kappa)
    f_a = 4 * q * chi**2 / (kappa * np.sqrt(q * (4 * lam**2 + q * (kappa + 2 * chi) ** 2)))
    f_b = 8 * q * chi**2 / (
        q * (kappa + 2 * chi) + np.sqrt(q * (8 + q * (kappa + 2 * chi) ** 2))
    )
    return OpoReference(sigma_unc, sigma_c, float(m11), float(f_a), float(f_b))
