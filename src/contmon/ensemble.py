"""Seeded, parallel Monte Carlo over trajectories with deterministic reduction.

Reproducibility contract: every trajectory owns a counter-based Philox
substream keyed by (master_seed, trajectory_index), the stream
:func:`trajectory_rng` returns, and consumes a fixed number of variates per
step (see below), so results are bit-identical for any worker count.  Each
block draws its noise up front from one Philox generator, re-keyed to each
trajectory's substream in turn.  Blocks of trajectories are stepped in
vectorized form; block partials are reduced in index order.

Variates drawn per step and trajectory: ``KINDS[kind].draws`` for each
Hilbert-space kind (uniforms for click kinds and in two-point mode, normals
otherwise), and one normal per monitored current for Gaussian runs.

Step dispatch: every density-matrix kind advances its block through its
``Kind.kernel``, compiled once per block (:func:`contmon.jump.click_kernel`,
:func:`contmon.diffusive.diffusive_kernel`).  At d <= ``BATCH_GEMM_MAX_DIM``
(4) that is a superoperator kernel, one GEMM of the (B, d^2) state view per
step plus per-row scalar corrections; above it a right-product kernel that
updates the block's states in place through work buffers the block owns,
with one GEMM of the (B d, d) view per constant operator.  The state-vector
kind ``jump_sse`` runs its per-state ``Kind.step``.  Both paths call the
steppers through the module attributes ``jump`` and ``diffusive``.

Gaussian runs fold the conditional-mean update into one affine map per step,
r_{k+1} = Phi r_k + Gamma_k dw_k, built once per run from the Riccati
covariance path (:func:`contmon.gaussian.covariance_path`), and step each
block in chunks of steps: per chunk one batched matmul for the noise terms,
one small GEMM per step for the recursion, and one vectorized call each for
the sums, the records and the stored states.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diffusive, jump
from .core_ops import dagger, min_eigenvalue, trace
# perfbench/spans.py wraps ``ensemble.conditional_cov_rhs``, so the name stays
from .gaussian import GaussianModel, conditional_cov_rhs, covariance_path  # noqa: F401
from .master_equation import OpenSystemModel

__all__ = [
    "EnsembleSpec",
    "Scenario",
    "EnsembleStats",
    "KINDS",
    "ComparisonReport",
    "PhysicalityError",
    "trajectory_rng",
    "run_ensemble",
    "compare_to_me",
]

MIN_EIG_THRESHOLD = -1e-12
# the most each per-chunk buffer of a Gaussian block holds.  Freeing a buffer
# raises glibc's dynamic mmap threshold to its size, so buffers this small leave
# the allocation of later multi-megabyte arrays (d = 12 state blocks) as it was
GAUSSIAN_CHUNK_BYTES = 2**19
ESS_WARN_FRACTION = 0.01


class PhysicalityError(RuntimeError):
    """A mid-run state violated its physicality bounds; carries the step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"physicality violation at step {step}: {message}")
        self.step = step


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent, seekable substream for one trajectory: Philox keyed by
    (master_seed, trajectory_index), counter 0.

    This is the public noise contract.  The ensemble does not construct these
    generators: it re-keys one Philox generator per block to the same state,
    so the noise of trajectory ``index`` equals this generator's draws."""
    key = np.array([np.uint64(master_seed & (2**64 - 1)), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class EnsembleSpec:
    """Run geometry, seeding and storage policy for one trajectory ensemble."""

    n_traj: int
    master_seed: int
    dt: float
    t_final: float
    observables: tuple = ()
    noise: str = "gaussian"  # "gaussian" | "two_point"
    threads: int = 1
    block_size: int = 1024
    store_states: bool = False
    store_records: bool = False
    track_min_eigenvalue: bool = False
    validate_every: int = 0

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if self.dt <= 0 or self.t_final < self.dt:
            raise ValueError("need dt > 0 and t_final >= dt")
        if self.noise not in ("gaussian", "two_point"):
            raise ValueError("noise mode must be 'gaussian' or 'two_point'")
        self.observables = tuple(self.observables)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def t_grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass
class Scenario:
    """What one trajectory does: which stepper, on which model, from which state.

    ``feedback_operator`` is the Hermitian F of the Hilbert-space feedback
    steppers; for Gaussian runs ``f_mat`` and ``controller = (kind, matrix)``
    with kind in {"lqg", "markovian"} set the feedback law.
    """

    kind: str
    model: OpenSystemModel | GaussianModel
    initial_state: object
    feedback_operator: np.ndarray | None = None
    f_mat: np.ndarray | None = None
    controller: tuple | None = None
    mu: float = 0.0
    beta_ost: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS and self.kind != "gaussian":
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "jump_feedback" and isinstance(self.model, OpenSystemModel):
            if self.model.efficiency != 1.0:
                raise ValueError("jump feedback requires unit efficiency")


@dataclass
class EnsembleStats:
    """Per-time mean and standard error of each observable, plus health counters."""

    t: np.ndarray
    means: dict
    std_errs: dict
    n_traj: int
    min_eigenvalue: float | None = None
    positivity_violations: int | None = None
    ess: np.ndarray | None = None
    states: np.ndarray | None = None
    records: np.ndarray | None = None
    extra: dict = field(default_factory=dict)


def _noise_matrix(master_seed, lo, hi, count, law):
    """Row i holds the first ``count`` variates of ``trajectory_rng(master_seed,
    lo + i)``.  One Philox generator serves the block: each row re-keys it to
    the state a fresh ``Philox(key=...)`` starts in (counter 0, empty buffer),
    which costs a fraction of constructing a new generator per trajectory."""
    out = np.empty((hi - lo, count))
    key = np.array([master_seed & (2**64 - 1), lo], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    state = bits.state
    state["state"]["key"] = key
    rng = np.random.Generator(bits)
    draw = rng.random if law == "uniform" else rng.standard_normal
    for i, idx in enumerate(range(lo, hi)):
        key[1] = idx
        bits.state = state
        draw(out=out[i])
    return out


def _to_wiener(spec: EnsembleSpec, z: np.ndarray) -> np.ndarray:
    """Map raw variates to Wiener increments for diffusive kinds."""
    root = np.sqrt(spec.dt)
    if spec.noise == "two_point":
        return np.where(z < 0.5, root, -root)
    return z * root


def _hilbert_observables(kind, state, observables):
    if kind.pure:
        psi = state
        return [
            np.einsum("bi,ij,bj->b", np.conj(psi), op, psi).real for _, op in observables
        ], None
    if kind.linear:
        # weighted traces tr(rho_bar A) = w * <A>; no division, so zero-weight
        # paths (ostensible clicks from a dark state) stay harmless
        rho_bar = state
        w = trace(rho_bar).real
        return [np.einsum("bij,ji->b", rho_bar, op).real for _, op in observables], w
    rho = state
    return [np.einsum("bij,ji->b", rho, op).real for _, op in observables], None


def _check_physical(kind, state, step):
    """Abort-level checks: integration breakdown, not the (expected, reported)
    small positivity dips of Euler stepping at finite dt."""
    arr = np.asarray(state)
    if not np.all(np.isfinite(arr)):
        raise PhysicalityError(step, "non-finite state entries")
    if kind.pure or arr.ndim < 3:
        return
    # one state-sized temporary, freed before the eigenvalue check
    defect = dagger(arr)
    np.subtract(arr, defect, out=defect)
    herm = float(np.max(np.abs(defect)))
    del defect
    if herm > 1e-8:
        raise PhysicalityError(step, f"hermiticity defect {herm:.3e}")
    if not kind.linear:
        tr_defect = float(np.max(np.abs(trace(arr) - 1.0)))
        if tr_defect > 1e-8:
            raise PhysicalityError(step, f"trace defect {tr_defect:.3e}")
        w_min = float(np.min(min_eigenvalue(arr)))
        if w_min < -1.0:
            raise PhysicalityError(step, f"state collapsed, min eigenvalue {w_min:.3e}")


@dataclass(frozen=True)
class Kind:
    """What the ensemble layer needs to know about one Hilbert-space kind.

    ``kernel(scenario, dt)`` compiles the step of a density-matrix kind once
    per block and returns ``advance(state, x)``, which advances the block and
    returns (state', record row); ``x`` is the step's uniform variates for
    click kinds and its Wiener increments otherwise, one column per draw (a
    vector when ``draws`` is 1).  Above ``BATCH_GEMM_MAX_DIM`` ``advance``
    updates the block's C-contiguous state array in place.  The state-vector
    kind has ``step(scenario, state, dt, x)`` instead, with the same contract.
    Click kinds record ``uint8`` outcomes; ``linear`` kinds carry unnormalized
    states with weighted statistics; ``pure`` kinds step state vectors and
    skip the positivity checks.
    """

    kernel: Callable | None = None
    step: Callable | None = None
    draws: int = 1
    clicks: bool = False
    linear: bool = False
    pure: bool = False


# The steppers are looked up through the module attributes ``jump`` and
# ``diffusive`` at call time, so a stand-in module set there sees every call.
# Each compiled kernel gets its own ``work`` dict, so the buffers of blocks
# that run on different threads are never shared.


def _jump_sse(sc, psi, dt, u):
    dn = jump.click_outcomes(jump.sse_jump_probability(psi, sc.model, dt), u)
    return jump.jump_sse_apply(psi, sc.model, dt, dn), dn


def _click_kernel(sc, dt):
    kernel = jump.click_kernel(sc.model, sc.kind, dt, f_op=sc.feedback_operator,
                               beta=sc.beta_ost)
    work = {}
    return lambda rho, u: jump.click_kernel_step(kernel, rho, u, work)


def _diffusive_kernel(sc, dt):
    kernel = diffusive.diffusive_kernel(sc.model, sc.kind, dt, f_op=sc.feedback_operator,
                                        mu=sc.mu)
    work = {}
    return lambda rho, dw: diffusive.diffusive_kernel_step(kernel, rho, dw, work)


KINDS = {
    "jump": Kind(_click_kernel, clicks=True),
    "jump_kraus": Kind(_click_kernel, clicks=True),
    "jump_feedback": Kind(_click_kernel, clicks=True),
    "jump_sse": Kind(step=_jump_sse, clicks=True, pure=True),
    "linear_jump": Kind(_click_kernel, clicks=True, linear=True),
    "homodyne": Kind(_diffusive_kernel),
    "homodyne_kraus": Kind(_diffusive_kernel),
    "heterodyne": Kind(_diffusive_kernel, draws=2),
    "homodyne_feedback": Kind(_diffusive_kernel),
    "generalized_homodyne": Kind(_diffusive_kernel),
    "generalized_heterodyne": Kind(_diffusive_kernel, draws=2),
    "linear_homodyne": Kind(_diffusive_kernel, linear=True),
}


def _gaussian_paths(spec: EnsembleSpec, scenario: Scenario):
    """The conditional covariance path shared by all trajectories, and the
    affine step of the conditional means it implies.

    With the means of a block as the columns of r, one Euler-Maruyama step is
    r_{k+1} = Phi r_k + Gamma_k dw_k, where Phi = I + dt A, less dt F K under
    LQG feedback and sqrt(2) dt F M B^T under Markovian feedback, and
    Gamma_k = (E - sigma_k B)/sqrt(2), plus F M under Markovian feedback.
    """
    model: GaussianModel = scenario.model
    covs = covariance_path(model, scenario.initial_state.cov, spec.dt, spec.n_steps)
    ckind, cmat = scenario.controller if scenario.controller else ("none", None)
    phi = np.eye(model.dim) + spec.dt * model.A
    gammas = (model.E - covs[:-1] @ model.B) / np.sqrt(2.0)
    if ckind == "lqg":
        phi -= spec.dt * (scenario.f_mat @ np.atleast_2d(cmat))
    elif ckind == "markovian":
        fm = scenario.f_mat @ np.atleast_2d(cmat)
        phi -= np.sqrt(2.0) * spec.dt * (fm @ model.B.T)
        gammas += fm
    return dict(covs=covs, phi=phi, gammas=gammas)


def _gaussian_block(spec: EnsembleSpec, scenario: Scenario, lo, hi, shared):
    """Step a block of conditional means in chunks of steps.

    Per chunk, the noise terms Gamma_k dw_k of every step are one batched
    matmul, written where the states go; the recursion then adds Phi r_k, one
    small GEMM per step; the sums of x, x^2 and x^4, the records
    dy_k = -sqrt(2) dt B^T r_k + dw_k and the stored states are each one call
    per chunk.  The states of a chunk are held time-major as (steps, 2n, block),
    so each quadrature's sums run over contiguous rows, and every buffer holds
    at most ``GAUSSIAN_CHUNK_BYTES``.
    """
    model: GaussianModel = scenario.model
    n_steps, m, dim, nblk = spec.n_steps, model.n_currents, model.dim, hi - lo
    phi, gammas = shared["phi"], shared["gammas"]
    dw = _noise_matrix(spec.master_seed, lo, hi, n_steps * m, "normal").reshape(nblk, n_steps, m)
    dw *= np.sqrt(spec.dt)
    states_out = records = None
    if spec.store_states:
        states_out = np.empty((nblk, n_steps + 1, dim))
    if spec.store_records:
        records = np.empty((nblk, n_steps, m))
    chunk = max(1, GAUSSIAN_CHUNK_BYTES // (8 * nblk * max(dim, m)))
    r = np.empty((chunk + 1, dim, nblk))
    r[0] = scenario.initial_state.mean[:, None]
    work = np.empty((chunk, dim, nblk))
    # per quadrature; the observables' columns are picked at the end
    sum1, sum2, sum4 = (np.zeros((n_steps + 1, dim)) for _ in range(3))

    def accumulate(rows, x):
        x2 = work[:len(x)]
        sum1[rows] += x.sum(axis=-1)
        np.multiply(x, x, out=x2)
        sum2[rows] += x2.sum(axis=-1)
        x2 *= x2
        sum4[rows] += x2.sum(axis=-1)

    accumulate(slice(0, 1), r[:1])
    if states_out is not None:
        states_out[:, 0] = r[0].T
    dy_scale = -np.sqrt(2.0) * spec.dt
    for k0 in range(0, n_steps, chunk):
        k1 = min(k0 + chunk, n_steps)
        steps = k1 - k0
        w = dw[:, k0:k1].transpose(1, 2, 0)
        np.matmul(gammas[k0:k1], w, out=r[1:steps + 1])
        for j in range(steps):
            r[j + 1] += phi @ r[j]
        if records is not None:
            records[:, k0:k1] = (dy_scale * (model.B.T @ r[:steps]) + w).transpose(2, 0, 1)
        if states_out is not None:
            states_out[:, k0 + 1:k1 + 1] = r[1:steps + 1].transpose(2, 0, 1)
        accumulate(slice(k0 + 1, k1 + 1), r[1:steps + 1])
        r[0] = r[steps]
    comp = [model.labels.index(name) for name, _ in spec.observables]
    return dict(sum1=sum1[:, comp], sum2=sum2[:, comp], sum4=sum4[:, comp], min_eig=np.inf,
                violations=0, states=states_out, records=records)


def _run_block(spec: EnsembleSpec, scenario: Scenario, lo, hi, shared):
    if scenario.kind == "gaussian":
        return _gaussian_block(spec, scenario, lo, hi, shared)
    n_steps = spec.n_steps
    kind = KINDS[scenario.kind]
    per_step = kind.draws
    law = "uniform" if kind.clicks or spec.noise == "two_point" else "normal"
    noise = _noise_matrix(spec.master_seed, lo, hi, n_steps * per_step, law)
    nblk = hi - lo
    n_obs = len(spec.observables)
    sum1 = np.zeros((n_steps + 1, n_obs))
    sum2 = np.zeros((n_steps + 1, n_obs))
    sum4 = np.zeros((n_steps + 1, n_obs))
    wsum = np.zeros(n_steps + 1)
    w2sum = np.zeros(n_steps + 1)
    wx = np.zeros((n_steps + 1, n_obs))
    w2x = np.zeros((n_steps + 1, n_obs))
    w2x2 = np.zeros((n_steps + 1, n_obs))
    min_eig = np.inf
    violations = 0
    states_out = None
    records = None

    # Hilbert-space kinds
    state0 = np.asarray(scenario.initial_state, dtype=complex)
    state = np.broadcast_to(state0, (nblk,) + state0.shape).copy()
    if spec.store_states:
        states_out = np.empty((nblk, n_steps + 1) + state0.shape, dtype=complex)
        states_out[:, 0] = state
    if spec.store_records:
        records = np.empty(
            (nblk, n_steps) + ((per_step,) if per_step > 1 else ()),
            dtype=np.uint8 if kind.clicks else float,
        )

    def record_stats(k):
        vals, w = _hilbert_observables(kind, state, spec.observables)
        if kind.linear:
            # vals[j] holds the weighted traces w * x
            wsum[k] += w.sum()
            w2sum[k] += (w * w).sum()
            for j, wx_j in enumerate(vals):
                wx[k, j] += wx_j.sum()
                w2x[k, j] += (w * wx_j).sum()
                w2x2[k, j] += (wx_j * wx_j).sum()
            return
        for j, x in enumerate(vals):
            sum1[k, j] += x.sum()
            sum2[k, j] += (x * x).sum()

    if kind.kernel is not None:
        advance = kind.kernel(scenario, spec.dt)
    else:
        def advance(state, x):
            return kind.step(scenario, state, spec.dt, x)

    record_stats(0)
    for k in range(n_steps):
        z = noise[:, k * per_step : (k + 1) * per_step]
        x = z if kind.clicks else _to_wiener(spec, z)
        state, rec_row = advance(state, x if per_step > 1 else x[:, 0])
        if records is not None:
            records[:, k] = rec_row
        if spec.track_min_eigenvalue and not kind.pure:
            if kind.linear:
                w = trace(state).real
                arr = state / np.where(w <= 0.0, 1.0, w)[:, None, None]
            else:
                arr = state
            eigs = min_eigenvalue(arr)
            m_eig = float(np.min(eigs))
            min_eig = min(min_eig, m_eig)
            violations += int(np.count_nonzero(eigs < MIN_EIG_THRESHOLD))
        if spec.validate_every and (k + 1) % spec.validate_every == 0:
            _check_physical(kind, state, k)
        record_stats(k + 1)
        if states_out is not None:
            states_out[:, k + 1] = state
    return dict(
        sum1=sum1, sum2=sum2, sum4=sum4, wsum=wsum, w2sum=w2sum, wx=wx,
        w2x=w2x, w2x2=w2x2, min_eig=min_eig, violations=violations,
        states=states_out, records=records,
    )


def run_ensemble(spec: EnsembleSpec, scenario: Scenario) -> EnsembleStats:
    """Run the trajectory ensemble described by (spec, scenario).

    Deterministic for fixed (spec, scenario): the output is identical for any
    thread count because trajectory substreams depend only on (master_seed,
    index) and block partials are reduced in index order.
    """
    if scenario.kind == "gaussian" and not isinstance(scenario.model, GaussianModel):
        raise ValueError("gaussian scenario needs a GaussianModel")
    if spec.noise == "two_point" and (scenario.kind == "gaussian" or KINDS[scenario.kind].clicks):
        raise ValueError("two-point noise applies to diffusive Hilbert-space unravellings only")
    shared = _gaussian_paths(spec, scenario) if scenario.kind == "gaussian" else {}

    blocks = [
        (lo, min(lo + spec.block_size, spec.n_traj))
        for lo in range(0, spec.n_traj, spec.block_size)
    ]
    if spec.threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            futures = [
                pool.submit(_run_block, spec, scenario, lo, hi, shared)
                for lo, hi in blocks
            ]
            partials = [f.result() for f in futures]
    else:
        partials = [_run_block(spec, scenario, lo, hi, shared) for lo, hi in blocks]

    n_steps = spec.n_steps
    n_obs = len(spec.observables)
    tot = {
        key: sum(p[key] for p in partials)
        for key in ("sum1", "sum2", "sum4", "wsum", "w2sum", "wx", "w2x", "w2x2")
        if key in partials[0]
    }
    min_eig = min(p["min_eig"] for p in partials)
    violations = sum(p["violations"] for p in partials)
    n = spec.n_traj

    means, ses = {}, {}
    ess = None
    if scenario.kind != "gaussian" and KINDS[scenario.kind].linear:
        wsum, w2sum = tot["wsum"], tot["w2sum"]
        # a fully collapsed ensemble (all ostensible paths annihilated) has no
        # estimate at all: NaN means, zero effective sample size
        ess = np.where(w2sum > 0.0, wsum**2 / np.where(w2sum > 0.0, w2sum, 1.0), 0.0)
        safe_w = np.where(wsum != 0.0, wsum, np.nan)
        for j, (name, _) in enumerate(spec.observables):
            mean = tot["wx"][:, j] / safe_w
            var_num = tot["w2x2"][:, j] - 2 * mean * tot["w2x"][:, j] + mean**2 * w2sum
            ses[name] = np.sqrt(np.maximum(var_num, 0.0)) / safe_w
            means[name] = mean
        if np.min(ess) < ESS_WARN_FRACTION * n:
            warnings.warn(
                f"effective sample size dropped to {np.min(ess):.1f} "
                f"(< {ESS_WARN_FRACTION:.0%} of {n} trajectories)",
                RuntimeWarning,
            )
    else:
        for j, (name, _) in enumerate(spec.observables):
            mean = tot["sum1"][:, j] / n
            var = np.maximum(tot["sum2"][:, j] / n - mean**2, 0.0)
            means[name] = mean
            # sample std / sqrt(n)
            ses[name] = np.sqrt(var * (n / max(n - 1, 1))) / np.sqrt(n)

    states = None
    if spec.store_states:
        states = np.concatenate([p["states"] for p in partials], axis=0)
    records = None
    if spec.store_records:
        records = np.concatenate([p["records"] for p in partials], axis=0)

    stats = EnsembleStats(
        t=spec.t_grid,
        means=means,
        std_errs=ses,
        n_traj=n,
        min_eigenvalue=None if not spec.track_min_eigenvalue else float(min_eig),
        positivity_violations=None if not spec.track_min_eigenvalue else int(violations),
        ess=ess,
        states=states,
        records=records,
    )
    if scenario.kind == "gaussian":
        stats.extra["cov_path"] = shared["covs"]
        m2, m4 = {}, {}
        for j, (name, _) in enumerate(spec.observables):
            m2[name] = tot["sum2"][:, j] / n
            m4[name] = tot["sum4"][:, j] / n
        stats.extra["m2"] = m2
        stats.extra["m4"] = m4
    return stats


@dataclass(frozen=True)
class ComparisonReport:
    """z-score comparison of ensemble means against a reference curve."""

    max_abs_z: float
    argmax_observable: str
    argmax_time_index: int
    z_scores: dict
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.threshold


def compare_to_me(stats: EnsembleStats, reference: dict, threshold: float = 4.0) -> ComparisonReport:
    """Per-time z-scores |mean - reference| / SE for each observable present in
    ``reference``; zero-SE points pass only on exact agreement."""
    z_scores = {}
    worst = (0.0, "", 0)
    for name, ref in reference.items():
        if name not in stats.means:
            raise KeyError(f"observable {name!r} missing from ensemble stats")
        ref = np.asarray(ref, dtype=float)
        if ref.shape != stats.means[name].shape:
            raise ValueError(f"grid mismatch for {name!r}")
        diff = np.abs(stats.means[name] - ref)
        se = stats.std_errs[name]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(diff == 0.0, 0.0, diff / se)
        z_scores[name] = z
        idx = int(np.argmax(z))
        if z[idx] > worst[0]:
            worst = (float(z[idx]), name, idx)
    return ComparisonReport(worst[0], worst[1], worst[2], z_scores, threshold)
