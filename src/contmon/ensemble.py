"""Seeded, parallel Monte Carlo over trajectories with deterministic reduction.

Reproducibility contract: every trajectory owns a counter-based Philox
substream keyed by (master_seed, trajectory_index), the stream
:func:`trajectory_rng` returns, and consumes a fixed number of variates per
step (see below), so results are bit-identical for any worker count.  Each
block draws its noise up front from one Philox generator, re-keyed to each
trajectory's substream in turn.  Blocks of trajectories are stepped in
vectorized form; block statistics are merged in index order.

Variates drawn per step and trajectory: ``KINDS[kind].draws`` for each
Hilbert-space kind (uniforms for click kinds and in two-point mode, normals
otherwise), one normal per monitored current for Gaussian runs, and none for
the two noise-free kinds below.

Step dispatch: every Hilbert-space kind advances its block through the
``advance`` its ``Kind.kernel`` builds once per block.  A density-matrix kind
compiles its step there (:func:`contmon.jump.click_kernel`,
:func:`contmon.diffusive.diffusive_kernel`).  At d <= ``BATCH_GEMM_MAX_DIM``
(4) the block holds real (d^2, B) coordinates (:mod:`contmon.core_ops`),
converted to (B, d, d) states only to be stored or checked: a step is one
real GEMM plus per-row scalar corrections, and so are the observables.  Above
it a right-product kernel updates the block's states in place through work
buffers the block owns, with one GEMM of the (B d, d) view per constant
operator, and the observables are one GEMM of the (B, d^2) view.  The
state-vector kind ``jump_sse`` compiles nothing and steps through
:func:`contmon.jump.jump_sse_apply`.  Every kind calls these through the
module attributes ``jump`` and ``diffusive``.

Gaussian runs (``KINDS["gaussian"]``) fold the conditional-mean update into
one affine map per step, r_{k+1} = Phi r_k + Gamma_k dw_k, built once per run
from the exact Riccati covariance path, which every trajectory shares
(:func:`contmon.gaussian.covariance_path`: one matrix exponential and a few
batched products and solves per run), and step each block in chunks of steps:
per chunk one batched matmul for the noise terms, one small GEMM per step for
the recursion, and one vectorized call each for the statistics, the records
and the stored states.  ``EnsembleStats.extra`` carries the covariance path
(``cov_path``) and, per observed quadrature x, the centred moments S_x / n
(``var_x``) and S_{x^2} / n (``var_x2``).  Both Gaussian kinds compute their
covariance path with numpy's floating-point warnings muted and raise
:class:`PhysicalityError` at its first non-finite step.

Noise-free kinds: the unconditional master equation and the unmonitored
Gaussian moments are the average of their conditional equations, so a run
without an unravelling is the noise-free limit of an ensemble.  ``"me"``
(:func:`contmon.master_equation.me_expectations`) and ``"gaussian_moments"``
(:func:`contmon.gaussian.unconditional_moments`, which also reports its
covariance path as ``cov_path``) draw nothing, and each block runs one
trajectory of weight 1: its means are its values exactly and its SEs 0.

Statistics: one accumulator serves every kind.  Per block and step it holds
W = sum w, W2 = sum w^2 and, for each column of values y, the block mean
m = sum y / W and, in a second pass, S = sum (y - m w)^2 and C = sum w (y - m w).
Normalized kinds have w = 1, linear kinds y = tr(rho_bar A) and w = tr rho_bar,
and Gaussian runs feed the columns x and x^2 of each quadrature.  Blocks merge
in index order by Chan, Golub & LeVeque's pairwise update, so no variance is a
difference of raw power sums and an observable offset by a constant keeps its
SE, sqrt(S) / W (times sqrt(n / (n - 1)) for normalized kinds).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from . import diffusive, jump
from .core_ops import (BATCH_GEMM_MAX_DIM, CHUNK_BUFFER_BYTES, coords_min_eigenvalue,
                       coords_trace, dagger, from_coords, min_eigenvalue, to_coords, trace)
# perfbench/spans.py wraps ``ensemble.conditional_cov_rhs``, so the name stays
from .gaussian import (GaussianModel, conditional_cov_rhs,  # noqa: F401
                       covariance_path, feedback_terms, unconditional_moments)
from .jump import check_needs
from .master_equation import OpenSystemModel, me_expectations

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
        for name in ("dt", "t_final"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be a finite number > 0")
        if self.t_final < self.dt:
            raise ValueError("need dt > 0 and t_final >= dt")
        if self.noise not in ("gaussian", "two_point"):
            raise ValueError("noise mode must be 'gaussian' or 'two_point'")
        for name in ("threads", "block_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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
    with kind in {"lqg", "markovian"} set the feedback law.  Construction
    raises the ValueError of :func:`contmon.jump.check_needs` when the kind's
    needs (``jump.NEEDS``) are unmet, the one its kernel would raise, and for
    a Gaussian run the one of :func:`contmon.gaussian.feedback_terms` when the
    controller does not fit the model, or one naming the initial state when
    its mean is not (2n,) or its covariance not (2n, 2n).
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
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not isinstance(self.model, KINDS[self.kind].model):
            raise ValueError(f"{self.kind} scenario needs a {KINDS[self.kind].model.__name__}")
        check_needs(self.kind, self.model, self.feedback_operator, self.beta_ost, self.initial_state)
        if isinstance(self.model, GaussianModel):
            dim = self.model.dim
            mean, cov = (np.shape(getattr(self.initial_state, x, None)) for x in ("mean", "cov"))
            if (mean, cov) != ((dim,), (dim, dim)):
                raise ValueError(f"gaussian initial state needs mean ({dim},) and covariance "
                                 f"({dim}, {dim}) for this model; got {mean} and {cov}")
            feedback_terms(self.model, self.f_mat, self.controller or ("none", None))


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


def _traces(state):
    """tr rho of each state of a block of coordinates or of (B, d, d) states."""
    return trace(state).real if np.iscomplexobj(state) else coords_trace(state)


def _hilbert_observables(kind, state, rows):
    """Each observable's values over the block, read by its row in ``rows``;
    for linear kinds the weighted traces tr(rho_bar A) = tr(rho_bar) <A>: no
    division, so zero-weight paths (clicks from a dark state) stay harmless."""
    if kind.pure:
        vals = [np.einsum("bi,ij,bj->b", np.conj(state), op, state).real for op in rows]
        return np.reshape(vals, (len(rows), len(state)))
    if np.iscomplexobj(state):
        return (rows @ state.reshape(len(state), -1).T).real
    return rows @ state


def stats_shape(kind: str, n_steps: int, n_obs: int) -> tuple:
    """The shape of the statistics one block of ``kind`` allocates: per step
    W and W2, then m, S and C for each column.  A Gaussian block feeds two
    columns per observable, x and x^2."""
    n_cols = n_obs * (2 if KINDS[kind].model is GaussianModel else 1)
    return n_steps + 1, 2 + 3 * n_cols


def _parts(acc):
    """The views (W, W2, m, S, C) of statistics rows, W and W2 as columns."""
    n = (acc.shape[-1] - 2) // 3
    return (acc[..., 0:1], acc[..., 1:2], acc[..., 2:2 + n], acc[..., 2 + n:2 + 2 * n],
            acc[..., 2 + 2 * n:])


def _moments(parts, y, w):
    """Write the statistics of a block's values ``y`` (steps, columns, B) under
    the weights ``w`` (steps, B), or 1 when None, into the zeroed rows ``parts``
    = (W, W2, m, S, C): the means, then the sums centred on them.  ``y`` is
    centred in place.  A step of zero total weight keeps m = 0, which merges ignore."""
    big_w, w2, m, s, c = parts
    if w is None:
        big_w[...] = w2[...] = y.shape[-1]
        np.divide(y.sum(-1), y.shape[-1], out=m)
        y -= m[..., None]
    else:
        big_w[...], w2[...] = w.sum(-1)[:, None], np.einsum("ki,ki->k", w, w)[:, None]
        np.divide(y.sum(-1), big_w, out=m, where=big_w != 0.0)
        y -= m[..., None] * w[:, None]
    s[...] = (y[..., None, :] @ y[..., None])[..., 0, 0]
    c[...] = y.sum(-1) if w is None else np.einsum("kci,ki->kc", y, w)


def _merge(a, b):
    """Merge the statistics ``b`` of the next block into ``a`` (Chan, Golub &
    LeVeque): with m the merged mean, y - m w = (y - m_a w) + (m_a - m) w sums
    over block a to S_a + 2 (m_a - m) C_a + (m_a - m)^2 W2_a and C_a + (m_a - m) W2_a."""
    (wa, w2a, ma, sa, ca), (wb, w2b, mb, sb, cb) = _parts(a), _parts(b)
    big_w = wa + wb
    m = np.where(big_w != 0.0, wa * ma + wb * mb, 0.0) / np.where(big_w != 0.0, big_w, 1.0)
    da, db = ma - m, mb - m
    sa += da * (2.0 * ca + da * w2a) + sb + db * (2.0 * cb + db * w2b)
    ca += da * w2a + cb + db * w2b
    wa[...], w2a[...], ma[...] = big_w, w2a + w2b, m
    return a


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


# The steppers are looked up through the module attributes ``jump`` and
# ``diffusive`` at call time, so a stand-in module set there sees every call.
# Each compiled kernel gets its own ``work`` dict, so the buffers of blocks
# that run on different threads are never shared.


def _jump_sse(sc, dt):
    def advance(psi, u):
        dn = jump.click_outcomes(jump.sse_jump_probability(psi, sc.model, dt), u)
        return jump.jump_sse_apply(psi, sc.model, dt, dn), dn
    return advance


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


def _hilbert_block(spec: EnsembleSpec, scenario: Scenario, lo, hi, shared):
    """Step a block of Hilbert-space trajectories through its kind's kernel."""
    n_steps, kind, nblk = spec.n_steps, KINDS[scenario.kind], hi - lo
    per_step = kind.draws
    law = "uniform" if kind.clicks or spec.noise == "two_point" else "normal"
    noise = _noise_matrix(spec.master_seed, lo, hi, n_steps * per_step, law)
    acc = np.zeros(stats_shape(scenario.kind, n_steps, len(spec.observables)))
    min_eig, violations, states_out, records = np.inf, 0, None, None

    # the observables are read by their coordinates on a coordinate block and
    # by the rows vec(A^T) on a (B, d, d) block
    state0 = np.asarray(scenario.initial_state, dtype=complex)
    coords = not kind.pure and len(state0) <= BATCH_GEMM_MAX_DIM
    state = (np.repeat(to_coords(state0)[:, None], nblk, axis=1) if coords
             else np.broadcast_to(state0, (nblk,) + state0.shape).copy())
    as_states = from_coords if coords else np.asarray
    rows = [op for _, op in spec.observables]
    if not kind.pure:
        rows = np.reshape([to_coords(op) if coords else op.T for op in rows],
                          (len(rows), state0.size))
    if spec.store_states:
        states_out = np.empty((nblk, n_steps + 1) + state0.shape, dtype=complex)
        states_out[:, 0] = as_states(state)
    if spec.store_records:
        records = np.empty((nblk, n_steps) + ((per_step,) if per_step > 1 else ()),
                           dtype=np.uint8 if kind.clicks else float)

    advance = kind.kernel(scenario, spec.dt)
    # the values and weights of ``chunk`` steps, whose statistics are taken at once
    chunk = max(1, CHUNK_BUFFER_BYTES // (8 * nblk * max(len(rows), 1)))
    vals = np.empty((chunk, len(rows), nblk))
    wts = np.empty((chunk, nblk)) if kind.linear else None

    def observe(k):
        j = k % chunk
        vals[j] = _hilbert_observables(kind, state, rows)
        if wts is not None:
            wts[j] = _traces(state)
        if j == chunk - 1 or k == n_steps:
            _moments(_parts(acc[k - j:k + 1]), vals[:j + 1], None if wts is None else wts[:j + 1])

    observe(0)
    for k in range(n_steps):
        z = noise[:, k * per_step : (k + 1) * per_step]
        x = z if kind.clicks else _to_wiener(spec, z)
        state, rec_row = advance(state, x if per_step > 1 else x[:, 0])
        if records is not None:
            records[:, k] = rec_row
        if spec.track_min_eigenvalue and not kind.pure:
            arr = state
            if kind.linear:
                w = _traces(state)
                w = np.where(w <= 0.0, 1.0, w)
                arr = state / (w if coords else w[:, None, None])
            eigs = coords_min_eigenvalue(arr) if coords else min_eigenvalue(arr)
            min_eig = min(min_eig, float(np.min(eigs)))
            violations += int(np.count_nonzero(eigs < MIN_EIG_THRESHOLD))
        if spec.validate_every and (k + 1) % spec.validate_every == 0:
            _check_physical(kind, as_states(state), k)
        observe(k + 1)
        if states_out is not None:
            states_out[:, k + 1] = as_states(state)
    return dict(stats=acc, min_eig=min_eig, violations=violations, states=states_out,
                records=records)


def _finite_covariances(covs):
    """``covs``, a Gaussian run's covariance path, or a PhysicalityError at
    its first non-finite step.  Both Gaussian kinds compute that path with
    numpy's floating-point warnings muted and check it here: when a Gaussian
    run overflows, its covariances turn non-finite before any mean does."""
    bad = ~np.isfinite(covs).reshape(len(covs), -1).all(axis=1)
    if bad.any():
        raise PhysicalityError(int(np.argmax(bad)), "non-finite covariance matrix")
    return covs


def _gaussian_paths(spec: EnsembleSpec, scenario: Scenario):
    """The conditional covariance path shared by all trajectories (reported
    as ``cov_path``), and the affine step of the conditional means it implies.

    With the means of a block as the columns of r, one Euler-Maruyama step is
    r_{k+1} = Phi r_k + Gamma_k dw_k, where Phi = I + dt (A - R) and
    Gamma_k = (E - sigma_k B)/sqrt(2) + G, with (R, G) the feedback terms of
    the scenario's controller (:func:`contmon.gaussian.feedback_terms`).
    """
    model: GaussianModel = scenario.model
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        covs = _finite_covariances(
            covariance_path(model, scenario.initial_state.cov, spec.dt, spec.n_steps))
    r_mat, g_mat = feedback_terms(model, scenario.f_mat, scenario.controller or ("none", None))
    phi = np.eye(model.dim) + spec.dt * (model.A - r_mat)
    gammas = (model.E - covs[:-1] @ model.B) / np.sqrt(2.0) + g_mat
    return dict(phi=phi, gammas=gammas, extra=dict(cov_path=covs))


def _gaussian_block(spec: EnsembleSpec, scenario: Scenario, lo, hi, shared):
    """Step a block of conditional means in chunks of steps.

    Per chunk, the noise terms Gamma_k dw_k of every step are one batched
    matmul, written where the states go; the recursion then adds Phi r_k, one
    small GEMM per step; the statistics of x and x^2, the records
    dy_k = -sqrt(2) dt B^T r_k + dw_k and the stored states are each one call
    per chunk.  The states of a chunk are held time-major as (steps, 2n, block),
    so each quadrature's values run over contiguous rows, and every buffer
    holds at most ``CHUNK_BUFFER_BYTES``.
    """
    model: GaussianModel = scenario.model
    n_steps, m, dim, nblk = spec.n_steps, model.n_currents, model.dim, hi - lo
    phi, gammas = shared["phi"], shared["gammas"]
    dw = _noise_matrix(spec.master_seed, lo, hi, n_steps * m, "normal").reshape(nblk, n_steps, m)
    dw *= np.sqrt(spec.dt)
    states_out = np.empty((nblk, n_steps + 1, dim)) if spec.store_states else None
    records = np.empty((nblk, n_steps, m)) if spec.store_records else None
    chunk = max(1, CHUNK_BUFFER_BYTES // (8 * nblk * max(dim, m)))
    r = np.empty((chunk + 1, dim, nblk))
    r[0] = scenario.initial_state.mean[:, None]
    comp = [model.labels.index(name) for name, _ in spec.observables]
    n_obs = len(comp)
    acc = np.zeros(stats_shape(scenario.kind, n_steps, n_obs))
    x_buf, x2_buf = (np.empty((chunk + 1, n_obs, nblk)) for _ in range(2))
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
        # the columns x, then x^2, of the observed quadratures; the first
        # chunk also counts the initial means
        i0 = 0 if k0 == 0 else 1
        big_w, w2, *cols = _parts(acc[k0 + i0:k1 + 1])
        x, x2 = x_buf[:steps + 1 - i0], x2_buf[:steps + 1 - i0]
        np.take(r[i0:steps + 1], comp, axis=1, out=x, mode="clip")
        np.multiply(x, x, out=x2)
        _moments((big_w, w2, *(c[:, :n_obs] for c in cols)), x, None)
        _moments((big_w, w2, *(c[:, n_obs:] for c in cols)), x2, None)
        r[0] = r[steps]
    return dict(stats=acc, min_eig=np.inf, violations=0, states=states_out, records=records)


def _noise_free(spec: EnsembleSpec, scenario: Scenario, values, **extra):
    """The block result of one noise-free trajectory whose values are the
    columns of ``values`` (steps, columns).  Its weight is 1, so its means are
    the values exactly and its centred sums 0."""
    acc = np.zeros(stats_shape(scenario.kind, spec.n_steps, len(spec.observables)))
    _moments(_parts(acc), np.array(values, dtype=float)[..., None], None)
    return dict(stats=acc, min_eig=np.inf, violations=0, states=None, records=None, extra=extra)


def _me_block(spec: EnsembleSpec, scenario: Scenario, lo, hi, shared):
    """The unconditional master equation: the expectations of
    :func:`contmon.master_equation.me_expectations` as one trajectory."""
    expect = me_expectations(scenario.model, scenario.initial_state, spec.t_grid, spec.observables)
    values = np.reshape([expect[name] for name, _ in spec.observables], (-1, spec.t_grid.size))
    return _noise_free(spec, scenario, values.T)


def _moments_block(spec: EnsembleSpec, scenario: Scenario, lo, hi, shared):
    """The unmonitored Gaussian moments of
    :func:`contmon.gaussian.unconditional_moments` as one trajectory: the
    columns x, then x^2, of the observed quadratures' means, and the
    covariance path as ``cov_path``."""
    model: GaussianModel = scenario.model
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        means, covs = unconditional_moments(model, scenario.initial_state, spec.dt, spec.n_steps)
        covs = _finite_covariances(covs)
    x = means[:, [model.labels.index(name) for name, _ in spec.observables]]
    return _noise_free(spec, scenario, np.hstack([x, x * x]), cov_path=covs)


@dataclass(frozen=True)
class Kind:
    """What the ensemble layer needs to know about one scenario kind.

    ``block(spec, scenario, lo, hi, shared)`` runs trajectories lo..hi - 1 of
    a ``model``, with ``shared`` what ``shared(spec, scenario)`` computed once
    per run (the ``"extra"`` of each goes to ``EnsembleStats.extra``).  A
    kind whose ``draws`` is 0 is noise-free: ``run_ensemble`` runs it as one
    trajectory that stores no records or states.  For the
    Hilbert-space kinds ``kernel(scenario, dt)`` runs once per block,
    compiling the step of a density-matrix kind, and returns
    ``advance(state, x)``, which advances the block and returns (state',
    record row); ``x`` is the step's uniform variates for click kinds and its
    Wiener increments otherwise, one column per draw (a vector when ``draws``
    is 1).  A density-matrix block is its (d^2, B) coordinates up to
    ``BATCH_GEMM_MAX_DIM`` and a C-contiguous (B, d, d) array, which
    ``advance`` updates in place, above.  Click kinds record ``uint8``
    outcomes; ``linear`` kinds carry unnormalized states with weighted
    statistics; ``pure`` kinds step state vectors and skip the positivity
    checks.  What a Hilbert-space kind's step needs of its scenario (a vacuum
    bath, unit or nonzero efficiency, a feedback operator, a state vector,
    beta > 0) is its entry of :data:`contmon.jump.NEEDS`, which ``Scenario``
    checks at construction and the kernel compilers on every call.
    """

    kernel: Callable | None
    draws: int = 1
    clicks: bool = False
    linear: bool = False
    pure: bool = False
    block: Callable = _hilbert_block
    shared: Callable | None = None
    model: type = OpenSystemModel


KINDS = {
    "jump": Kind(_click_kernel, clicks=True),
    "jump_kraus": Kind(_click_kernel, clicks=True),
    "jump_feedback": Kind(_click_kernel, clicks=True),
    "jump_sse": Kind(_jump_sse, clicks=True, pure=True),
    "linear_jump": Kind(_click_kernel, clicks=True, linear=True),
    "homodyne": Kind(_diffusive_kernel),
    "homodyne_kraus": Kind(_diffusive_kernel),
    "heterodyne": Kind(_diffusive_kernel, draws=2),
    "homodyne_feedback": Kind(_diffusive_kernel),
    "generalized_homodyne": Kind(_diffusive_kernel),
    "generalized_heterodyne": Kind(_diffusive_kernel, draws=2),
    "linear_homodyne": Kind(_diffusive_kernel, linear=True),
    "gaussian": Kind(None, block=_gaussian_block, shared=_gaussian_paths, model=GaussianModel),
    "me": Kind(None, draws=0, block=_me_block),
    "gaussian_moments": Kind(None, draws=0, block=_moments_block, model=GaussianModel),
}


def run_ensemble(spec: EnsembleSpec, scenario: Scenario) -> EnsembleStats:
    """Run the trajectory ensemble described by (spec, scenario).

    Deterministic for fixed (spec, scenario): the output is identical for any
    thread count because trajectory substreams depend only on (master_seed,
    index) and block statistics are merged in index order.
    """
    kind = KINDS[scenario.kind]
    if spec.noise == "two_point" and (kind.clicks or kind.kernel is None):
        raise ValueError("two-point noise applies to diffusive Hilbert-space unravellings only")
    if not kind.draws and (spec.n_traj != 1 or spec.store_states or spec.store_records):
        raise ValueError(f"{scenario.kind} is noise-free: it runs one trajectory and stores "
                         "no records or states")
    shared = kind.shared(spec, scenario) if kind.shared else {}

    size, n = spec.block_size, spec.n_traj
    blocks = [(spec, scenario, lo, min(lo + size, n), shared) for lo in range(0, n, size)]
    if spec.threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            partials = list(pool.map(lambda args: kind.block(*args), blocks))
    else:
        partials = [kind.block(*args) for args in blocks]

    names = [name for name, _ in spec.observables]
    big_w, w2, m, s, _ = (part.T for part in _parts(reduce(_merge, [p["stats"] for p in partials])))
    s = np.maximum(s, 0.0)  # a sum of squares, whatever the merges rounded
    # a fully collapsed linear ensemble (all ostensible paths annihilated) has
    # no estimate at all: NaN means, zero effective sample size
    safe_w = np.where(big_w != 0.0, big_w, np.nan)
    mean = np.where(big_w != 0.0, m, np.nan)
    se = np.sqrt(s) / safe_w
    ess = None
    if kind.linear:
        ess = np.where(w2[0] > 0.0, big_w[0]**2 / np.where(w2[0] > 0.0, w2[0], 1.0), 0.0)
        if np.min(ess) < ESS_WARN_FRACTION * n:
            warnings.warn(f"effective sample size dropped to {np.min(ess):.1f} "
                          f"(< {ESS_WARN_FRACTION:.0%} of {n} trajectories)", RuntimeWarning)
    else:
        se *= np.sqrt(n / max(n - 1, 1))  # the sample standard deviation / sqrt(n)

    track = spec.track_min_eigenvalue
    stats = EnsembleStats(
        t=spec.t_grid,
        means=dict(zip(names, mean)),
        std_errs=dict(zip(names, se)),
        n_traj=n,
        min_eigenvalue=float(min(p["min_eig"] for p in partials)) if track else None,
        positivity_violations=int(sum(p["violations"] for p in partials)) if track else None,
        ess=ess,
        states=np.concatenate([p["states"] for p in partials]) if spec.store_states else None,
        records=np.concatenate([p["records"] for p in partials]) if spec.store_records else None,
    )
    if kind.model is GaussianModel:  # the centred sums of the x and x^2 columns, over n
        stats.extra["var_x"] = dict(zip(names, s[:len(names)] / n))
        stats.extra["var_x2"] = dict(zip(names, s[len(names):] / n))
    for result in [shared, *partials]:
        stats.extra.update(result.get("extra", {}))
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
