"""Seeded, parallel Monte Carlo over trajectories with deterministic reduction.

Reproducibility contract: every trajectory owns a counter-based Philox
substream keyed by (master_seed, trajectory_index), the stream
:func:`trajectory_rng` returns, and consumes a fixed number of variates per
step (see below), so results are bit-identical for any worker count.  Each
block draws its noise up front from one Philox generator, re-keyed to each
trajectory's substream in turn.  Blocks of trajectories are stepped in
vectorized form; block statistics are merged in index order.

Block driver: every stochastic kind runs its blocks through one driver,
:func:`_stochastic_block`.  The driver draws the block's noise up front, holds
the block's statistics with its value and weight buffers, and walks the
block in chunks of steps, each buffering at most ``CHUNK_BUFFER_BYTES``: per
chunk one call of the kind's chunk step, then one :func:`_moments` call for
the chunk's statistics.  A kind supplies only its initial block state and
that chunk step (:class:`_Stepping`, set up per block by
:func:`_hilbert_start` or :func:`_gaussian_start`), which advances the state
over the chunk's increments and writes the chunk's values (and weights),
record rows and states.  Stored states and records exist once:
:func:`run_ensemble` allocates the run's arrays before the first block, and
each block writes its rows into them in place.  A block returns only its
statistics and counters, which ``run_ensemble`` folds in as they arrive.

Variates drawn per step and trajectory: ``KINDS[kind].draws`` for each
Hilbert-space kind (uniforms for click kinds and in two-point mode, normals
otherwise), one normal per live current for Gaussian runs (a current whose
increment can move the means, see :func:`_gaussian_paths`), and none for the
two noise-free kinds below.  A Gaussian run that keeps records draws its dead
currents' increments from a second substream of each trajectory, and the
driver writes them into their record columns.

Step dispatch: a Hilbert-space kind's chunk step advances its block one
step at a time through the ``advance`` its ``Kind.kernel`` builds once per
block.  Each kind compiles its step there (:func:`contmon.jump.click_kernel`,
:func:`contmon.diffusive.diffusive_kernel`), and the kernel and the initial
state decide the block's form.  A Kraus kind (``jump_kraus``,
``homodyne_kraus``) whose kernel carries ``vector`` (unit efficiency and a
vacuum bath, where a pure state stays pure) steps state vectors when its
initial state is rank one (:func:`_state_vector`): the block is a real
(2d, B) array of [Re psi; Im psi] columns, a step is one real GEMM of the
kernel's stacked real blocks plus column sums, the observables are psi^T A_r
psi for the real blocks A_r, and stored states are psi psi^dag.  Every other
block holds density matrices.  When the kernel carries coordinate ``maps``
(at d <= ``core_ops.BATCH_GEMM_MAX_DIM``, or ``KRAUS_COORDS_MAX_DIM`` for
the diffusive Kraus kinds; see :func:`contmon.jump.click_kernel` and
:func:`contmon.diffusive.diffusive_kernel`) the block holds real (d^2, B)
coordinates (:mod:`contmon.core_ops`), converted to (B, d, d) states only to
be stored or passed to an eigensolver: a step is a real GEMM of the kernel's
stacked maps, split by rows, plus per-row scalar corrections, and the
observables are one GEMM.  Otherwise a right-product kernel updates the
block's states in place through work buffers the block owns, with one GEMM
of the (B d, d) view per constant operator, and the observables are one GEMM
of the (B, d^2) view.  Every kind calls these, the vector step included,
through the module attributes ``jump`` and ``diffusive``.

Failure: a run with its checks on returns finite statistics or raises one
error, a :class:`PhysicalityError` that names its step or the
``StepSizeError`` of a click probability, of any click kind, at or above
``jump.JUMP_PROBABILITY_LIMIT``.  numpy's floating-point warnings stay off
wherever a run computes, its setup, its blocks on any thread and its
reduction (``_fp_policy``), so a non-finite number ends a run through these
checks and prints nothing else.  With ``validate_every`` 0 the checks are
off and a run returns whatever its arithmetic gave, NaN included, unless it
tracks positivity (below) or is Gaussian, whose covariance path is always
checked.

Health checks: one function, :func:`_health`, runs once after each step
that tracks or checks.  A density-matrix block with ``track_min_eigenvalue``
reports the smallest eigenvalue of every stepped state (divided by its trace
for the linear kinds) and counts those below ``MIN_EIG_THRESHOLD``; every
``validate_every`` steps, and after the last step, the pass aborts on
breakdown.  It reads the block in its own form, vectors, coordinates or
states, which every kernel keeps Hermitian to the bit, so nothing hermitizes;
it reads each trace once and runs at most one eigensolve.  Every pass aborts
on non-finite entries, "non-finite state entries", at every d: at d = 2 the
tracked smallest eigenvalues have a closed form that any non-finite entry
makes non-finite, so their minimum reads them; otherwise the block is read
for them first, as the eigensolver needs.  The collapse check (below -1)
reuses the tracked eigenvalues, or else runs the eigensolver only on the
states whose Wolkowicz-Styan bound, from tr rho and tr rho^2 alone, cannot
place above -1 (:func:`_collapse_screen`).  A vector block reports smallest
eigenvalue 0 and no violation, exactly: psi psi^dag has rank one and d >= 2.
Its abort check reads finite entries and unit norms, the traces of its
states.  The linear kinds have no trace to check; with checks on, their
ensemble aborts at the first step whose total weight is 0 or not finite,
where the weighted means have no estimate.

Gaussian runs (``KINDS["gaussian"]``) fold the conditional-mean update into
one affine map per step, r_{k+1} = Phi r_k + Gamma_k dw_k, built once per run
from the exact Riccati covariance path, which every trajectory shares
(:func:`contmon.gaussian.covariance_path`: one matrix exponential and a few
batched products and solves per run).  Their chunk step is one batched
matmul for the noise terms, one small GEMM per step for the recursion, and
one vectorized call each for the values, the records and the stored states.
``EnsembleStats.extra`` carries the covariance path (``cov_path``) and, per
observed quadrature x, the centred moments S_x / n (``var_x``) and
S_{x^2} / n (``var_x2``).  Both Gaussian kinds raise
:class:`PhysicalityError` at the first non-finite step of their covariance
path, checks or not.

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

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import diffusive, jump
from .core_ops import (CHUNK_BUFFER_BYTES, coords_min_eigenvalue, coords_trace,
                       from_coords, hermitize, min_eigenvalue, to_coords, trace)
# perfbench/spans.py wraps ``ensemble.conditional_cov_rhs``, so the name stays
from .gaussian import (GaussianModel, conditional_cov_rhs,  # noqa: F401
                       covariance_path, feedback_terms, unconditional_moments)
from .jump import _dots, _real, check_needs
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
# how far above -1 the Wolkowicz-Styan bound of a state must lie to clear it
# of collapse without an eigensolve: rounding moves the bound by ~d^2 eps
SCREEN_MARGIN = 1e-6
# the Philox key word of each substream holds the seed: anything outside
# [0, 2**64 - 1] would wrap onto another seed's streams
SEED_RANGE = "must be an integer in [0, 2**64 - 1]"
ESS_WARN_FRACTION = 0.01
# The run's floating-point policy: no numpy floating-point warning anywhere a
# run computes (module docstring, "Failure").  numpy keeps this state per
# thread and a pool's threads start without it, so it wraps the run and each
# block's callable.  As a decorator it keeps its token per call (numpy >= 2),
# so nested and concurrent calls each enter a fresh state.
_fp_policy = np.errstate(all="ignore")


class PhysicalityError(RuntimeError):
    """A run broke down mid-run: a state left its physicality bounds or a
    linear ensemble lost its weight.  Carries the step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"physicality violation at step {step}: {message}")
        self.step = step


def trajectory_rng(master_seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Independent, seekable substream for one trajectory: Philox keyed by
    (master_seed, trajectory_index), with the counter's top 64-bit word set to
    ``stream`` and the rest 0.

    This is the public noise contract.  Stream 0 is the noise every kind
    steps on; stream 1, which starts 2**192 Philox blocks later, holds the
    Wiener increments of a Gaussian run's dead currents, drawn only for their
    records.  The ensemble does not construct these generators: it re-keys
    one Philox generator per block to the same state, so the noise of
    trajectory ``index`` equals this generator's draws."""
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=stream << 192))


@dataclass
class EnsembleSpec:
    """Run geometry, seeding and storage policy for one trajectory ensemble.
    ``master_seed`` is an integer in [0, 2**64 - 1], one Philox key word."""

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
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed {SEED_RANGE}")
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
        # capped, so that an overflowing t_final / dt still counts as a step count
        return int(round(min(self.t_final / self.dt, 2.0**62)))

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
    controller does not fit the model.  It raises one naming the initial state
    when a Gaussian mean is not (2n,) or its covariance not (2n, 2n), and when
    a Hilbert-space state is not the model's (d, d).  A configuration
    document reports the same needs, with the same messages, as the named
    rules of their ``NEEDS`` rows.
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
        check_needs(self.kind, self.model, self.feedback_operator, self.beta_ost)
        dim = self.model.dim
        if isinstance(self.model, GaussianModel):
            mean, cov = (np.shape(getattr(self.initial_state, x, None)) for x in ("mean", "cov"))
            if (mean, cov) != ((dim,), (dim, dim)):
                raise ValueError(f"gaussian initial state needs mean ({dim},) and covariance "
                                 f"({dim}, {dim}) for this model; got {mean} and {cov}")
            feedback_terms(self.model, self.f_mat, self.controller or ("none", None))
        elif np.shape(self.initial_state) != (dim, dim):
            raise ValueError(f"initial state needs the density matrix shape ({dim}, {dim}) for "
                             f"this model; got {np.shape(self.initial_state)}")


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


def _noise_matrix(master_seed, lo, hi, count, law, stream=0):
    """Row i holds the first ``count`` variates of ``trajectory_rng(master_seed,
    lo + i, stream)``.  One Philox generator serves the block: each row re-keys
    it to the state a fresh generator of that substream starts in (its
    counter, an empty buffer), which costs a fraction of constructing a new
    generator per trajectory."""
    out = np.empty((hi - lo, count))
    key = np.array([master_seed, lo], dtype=np.uint64)
    bits = np.random.Philox(key=key, counter=stream << 192)
    state = bits.state
    state["state"]["key"] = key
    rng = np.random.Generator(bits)
    draw = rng.random if law == "uniform" else rng.standard_normal
    for i, idx in enumerate(range(lo, hi)):
        key[1] = idx
        bits.state = state
        draw(out=out[i])
    return out


def _increments(spec: EnsembleSpec, lo, hi, count, clicks, stream=0):
    """The first ``count`` increments of trajectories lo..hi - 1 on their
    substream ``stream``, one row each: uniforms for click kinds, else Wiener
    increments, normals times sqrt(dt) or, in two-point mode, +-sqrt(dt) with
    probability 1/2 each (+ where the uniform is below 1/2), mapped in place."""
    two_point = spec.noise == "two_point"
    z = _noise_matrix(spec.master_seed, lo, hi, count,
                      "uniform" if clicks or two_point else "normal", stream)
    if not clicks:
        if two_point:  # +-1/2, + where z < 1/2, then scaled by 2 sqrt(dt)
            np.subtract(z < 0.5, 0.5, out=z)
        z *= np.sqrt(spec.dt) * (2.0 if two_point else 1.0)
    return z


def _traces(state):
    """tr rho of each state of a block of coordinates or of (B, d, d) states."""
    return trace(state).real if np.iscomplexobj(state) else coords_trace(state)


def _hilbert_observables(state, rows, vector=False):
    """Each observable's values over the block, read by its row in ``rows``;
    for linear kinds the weighted traces tr(rho_bar A) = tr(rho_bar) <A>: no
    division, so zero-weight paths (clicks from a dark state) stay harmless.
    On a vector block ``rows`` holds the real block A_r of each A, and
    <A> = psi^T A_r psi."""
    if vector:
        return np.einsum("oib,ib->ob", rows @ state, state)
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


def _collapse_screen(state, tr):
    """True for each state of a block at d > 2, (B, d, d) or coordinates
    (d^2, B) with traces ``tr``, that the Wolkowicz-Styan bound cannot clear
    of collapse (Linear Algebra Appl. 29, 471 (1980)): lambda_min >= m - s
    sqrt(d - 1) with m = tr rho / d and s^2 = tr rho^2 / d - m^2, where tr rho^2
    is sum r_a^2 on the orthonormal coordinates and sum |rho_ij|^2 on states.
    A state is cleared when the bound lies above -1 by ``SCREEN_MARGIN``; a
    finite state too large for tr rho^2 is not."""
    if np.iscomplexobj(state):
        d, flat = state.shape[-1], state.reshape(len(state), -1).view(float)
        squares = np.einsum("bi,bi->b", flat, flat)
    else:
        d, squares = math.isqrt(len(state)), np.einsum("ab,ab->b", state, state)
    m = tr / d
    s = np.sqrt(np.maximum(squares / d - m * m, 0.0))
    return m - s * np.sqrt(d - 1.0) <= -1.0 + SCREEN_MARGIN


def _health(kind, state, step, counters, check, vector, big):
    """One health pass over a Hilbert-space block after step ``step``, read
    in the block's own form: state vectors (``vector``), coordinates or
    (B, d, d) states, which every kernel keeps Hermitian to the bit.

    ``counters``, unless None, take the smallest eigenvalue of every state,
    divided by its trace for the linear kinds (w <= 0 read as 1), and the
    count of those below ``MIN_EIG_THRESHOLD``.  ``check`` aborts on
    integration breakdown, not on the (expected, reported) small dips of
    Euler stepping at finite dt: unless the kind is linear, a trace (a
    vector's norm) off 1 by more than 1e-8 and a state below -1.  Every pass
    aborts on non-finite entries.  ``big`` says d > 2, where the smallest
    eigenvalue takes an eigensolve, which needs finite entries, so the
    block is read for them first; at d = 2 the counters' closed form turns
    any non-finite entry into a non-finite minimum, which is read instead.
    Each trace is read once, and at most one eigensolve runs: the collapse
    check reuses the counters' eigenvalues, or else solves only for the
    states :func:`_collapse_screen` cannot clear."""
    if (big or counters is None) and not np.all(np.isfinite(state)):
        raise PhysicalityError(step, "non-finite state entries")
    coords = not np.iscomplexobj(state)
    eig = coords_min_eigenvalue if coords else min_eigenvalue
    # a linear kind's tracking divides by the traces; a normalized kind's check reads them
    if (counters is not None) if kind.linear else check:
        tr = _dots(state) if vector else _traces(state)
    eigs = None
    if counters is not None:
        w = np.where(tr <= 0.0, 1.0, tr) if kind.linear else None
        eigs = eig(state if w is None else state / (w if coords else w[:, None, None]))
        low = float(np.min(eigs))  # NaN or -inf from a non-finite entry at d = 2
        if not math.isfinite(low):
            raise PhysicalityError(step, "non-finite state entries")
        counters["min_eig"] = min(counters["min_eig"], low)
        counters["violations"] += int(np.count_nonzero(eigs < MIN_EIG_THRESHOLD))
    if not check or kind.linear:
        return
    tr_defect = float(np.max(np.abs(tr - 1.0)))
    if tr_defect > 1e-8:
        raise PhysicalityError(step, f"trace defect {tr_defect:.3e}")
    if vector:
        return
    if eigs is None and big:
        rows = np.flatnonzero(_collapse_screen(state, tr))
        if not len(rows):
            return
        state = state[:, rows] if coords else state[rows]
    w_min = float(np.min(eig(state) if eigs is None else eigs))
    if w_min < -1.0:
        raise PhysicalityError(step, f"state collapsed, min eigenvalue {w_min:.3e}")


# The steppers are looked up through the module attributes ``jump`` and
# ``diffusive`` at call time, so a stand-in module set there sees every call.
# Each compiled kernel gets its own ``work`` dict, so the buffers of blocks
# that run on different threads are never shared.


def _state_vector(rho):
    """[Re psi; Im psi] for psi = rho[:, j] / sqrt(rho_jj), j the largest
    diagonal entry, when rho = psi psi^dag exactly; None otherwise."""
    j = np.argmax(np.diagonal(rho).real)
    psi = np.asarray(rho)[:, j] / np.sqrt(np.diagonal(rho)[j].real)
    return np.r_[psi.real, psi.imag] if np.array_equal(np.outer(psi, psi.conj()), rho) else None


def _vector_states(v):
    """The states psi psi^dag, (B, d, d), of a (2d, B) vector block,
    hermitized: a complex product rounded by FMA leaves psi_i psi_i^* with an
    imaginary part."""
    psi = (v[:len(v) // 2] + 1j * v[len(v) // 2:]).T
    return hermitize(psi[:, :, None] * psi[:, None, :].conj())


def _advance(step, kernel, rho0):
    """advance(rho, x) through the compiled ``kernel``.  ``advance.vector``
    says whether it takes a vector block, which it does when the kernel
    carries ``vector`` and the initial state ``rho0`` is rank one
    (:func:`_state_vector`); it steps that block through the kernel with its
    ``maps`` taken off.  ``advance.coords`` says whether it takes the
    block's coordinates, which it does exactly when the kernel it steps
    carries ``maps``."""
    work = {}
    vector = kernel.vector is not None and _state_vector(rho0) is not None
    kernel = replace(kernel, maps=None) if vector else kernel
    advance = lambda rho, x: step(kernel, rho, x, work)  # noqa: E731
    advance.coords, advance.vector = kernel.maps is not None, vector
    return advance


def _click_kernel(sc, dt):
    kernel = jump.click_kernel(sc.model, sc.kind, dt, f_op=sc.feedback_operator,
                               beta=sc.beta_ost)
    return _advance(lambda *a: jump.click_kernel_step(*a), kernel, sc.initial_state)


def _diffusive_kernel(sc, dt):
    kernel = diffusive.diffusive_kernel(sc.model, sc.kind, dt, f_op=sc.feedback_operator,
                                        mu=sc.mu)
    return _advance(lambda *a: diffusive.diffusive_kernel_step(*a), kernel, sc.initial_state)


@dataclass
class _Stepping:
    """A stochastic kind's part of one block, which the kind's ``start(spec,
    scenario, nblk, shared)`` sets up for the driver :func:`_stochastic_block`.

    ``state`` is the block state, at first the initial one.  ``step(state,
    k0, x, values, weights, states, records)`` advances it over the chunk of
    steps k0, k0 + 1, ... whose increments are ``x`` (B, steps, draws), and
    returns it.  For each state the chunk reaches it writes a row of
    ``values`` (columns, B), of ``weights`` (B,) and of ``states`` (B, rows,
    ...), each unless None; the first chunk reports the initial state first,
    so these hold one row more than it has steps.  ``records`` (B, steps,
    ...), unless None, takes each step's record row.  ``states`` and
    ``records`` are views of the run's arrays, the block's rows and the
    chunk's steps.

    ``draws`` increments per step and trajectory come from substream 0, and
    a chunk buffers ``width`` floats per trajectory and step, at most
    ``CHUNK_BUFFER_BYTES`` in all.  The record columns ``spare`` hold
    increments drawn for the records alone, from substream 1, written before
    the steps add to them.  ``health`` holds the counters the steps keep,
    which the block result carries.
    """

    state: object
    step: Callable
    draws: int
    width: int
    spare: tuple | np.ndarray = ()
    health: dict = field(default_factory=dict)


def _stochastic_block(start, spec: EnsembleSpec, scenario: Scenario, lo, hi, shared,
                      stored):
    """The block driver: run trajectories lo..hi - 1 of a stochastic kind
    whose ``start`` sets up its part (:class:`_Stepping`), writing their
    rows of the run's arrays ``stored`` in place.  The driver draws the
    block's noise up front, holds the statistics and the value and weight
    buffers, and walks the block in chunks of steps: per chunk one call of
    the kind's step, then one of :func:`_moments`.  It returns the
    statistics and the step's counters."""
    n_steps, kind, nblk = spec.n_steps, KINDS[scenario.kind], hi - lo
    part = start(spec, scenario, nblk, shared)
    noise = _increments(spec, lo, hi, n_steps * part.draws, kind.clicks).reshape(
        nblk, n_steps, part.draws)
    acc = np.zeros(stats_shape(scenario.kind, n_steps, len(spec.observables)))
    chunk = max(1, CHUNK_BUFFER_BYTES // (8 * nblk * max(part.width, 1)))
    vals = np.empty((chunk + 1, (acc.shape[1] - 2) // 3, nblk))
    wts = np.empty((chunk + 1, nblk)) if kind.linear else None
    out = {name: rows[lo:hi] for name, rows in stored.items()}
    if "records" in out and len(part.spare):
        out["records"][..., part.spare] = _increments(
            spec, lo, hi, n_steps * len(part.spare), False, stream=1).reshape(nblk, n_steps, -1)
    for k0 in range(0, n_steps, chunk):
        k1 = min(k0 + chunk, n_steps)
        r0 = k0 + (k0 > 0)  # the first chunk also reports the initial state, row 0
        y, w = vals[:k1 + 1 - r0], None if wts is None else wts[:k1 + 1 - r0]
        part.state = part.step(part.state, k0, noise[:, k0:k1], y, w,
                               out["states"][:, r0:k1 + 1] if "states" in out else None,
                               out["records"][:, k0:k1] if "records" in out else None)
        _moments(_parts(acc[r0:k1 + 1]), y, w)
    return dict(stats=acc, **part.health)


def _hilbert_start(spec: EnsembleSpec, scenario: Scenario, nblk, shared):
    """A Hilbert-space kind's part of a block: its states advanced one step at
    a time through the ``advance`` its ``Kind.kernel`` compiles, with one
    :func:`_health` pass after each step that tracks positivity
    (``track_min_eigenvalue``) or checks (every ``validate_every`` steps and
    after the last).  A vector block reports min eigenvalue 0 and no
    violation without a pass: psi psi^dag has rank one, and d >= 2."""
    kind = KINDS[scenario.kind]
    advance = kind.kernel(scenario, spec.dt)
    coords, vector = advance.coords, advance.vector
    state0 = np.asarray(scenario.initial_state, dtype=complex)
    # the observables are read by their real blocks on a vector block, by
    # their coordinates on a coordinate block and by the rows vec(A^T) on a
    # (B, d, d) block
    form = _real if vector else to_coords if coords else np.transpose
    rows = np.reshape([form(op) for _, op in spec.observables], (len(spec.observables),) + (
        (2 * len(state0),) * 2 if vector else (state0.size,)))
    as_states = _vector_states if vector else from_coords if coords else np.asarray
    health = (dict(min_eig=0.0 if vector else np.inf, violations=0)
              if spec.track_min_eigenvalue else {})
    counters = health if health and not vector else None
    every, last, big = spec.validate_every, spec.n_steps, len(state0) > 2

    def step(state, k0, x, values, weights, states, records):
        first = len(values) - x.shape[1]
        # row first + j holds the state after step k0 + j; j = -1 is the initial state
        for j in range(-first, x.shape[1]):
            if j >= 0:
                state, records_row = advance(state, x[:, j] if kind.draws > 1 else x[:, j, 0])
                if records is not None:
                    records[:, j] = records_row
                check = every and ((k0 + j + 1) % every == 0 or k0 + j + 1 == last)
                if check or counters is not None:
                    _health(kind, state, k0 + j, counters, check, vector, big)
            values[first + j] = _hilbert_observables(state, rows, vector)
            if weights is not None:
                weights[first + j] = _traces(state)
            if states is not None:
                states[:, first + j] = as_states(state)
        return state

    state = (np.repeat((_state_vector(state0) if vector else to_coords(state0))[:, None], nblk, 1)
             if vector or coords else np.broadcast_to(state0, (nblk,) + state0.shape).copy())
    return _Stepping(state, step, kind.draws, len(rows), health=health)


def _finite_covariances(covs):
    """``covs``, a Gaussian run's covariance path, or a PhysicalityError at
    its first non-finite step.  Both Gaussian kinds check that path here:
    when a Gaussian run overflows, its covariances turn non-finite before any
    mean does."""
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

    Current j is live when column j of E, B or G is nonzero: only then can
    its increment move the means.  That is read from the model's structure,
    not from the path, whose columns can vanish at a step (Gamma_0 = 0 from
    vacuum when E = B).  ``live`` lists the live currents and ``gammas``
    holds their columns of Gamma_k only, contiguous.
    """
    model: GaussianModel = scenario.model
    covs = _finite_covariances(
        covariance_path(model, scenario.initial_state.cov, spec.dt, spec.n_steps))
    r_mat, g_mat = feedback_terms(model, scenario.f_mat, scenario.controller or ("none", None))
    phi = np.eye(model.dim) + spec.dt * (model.A - r_mat)
    live = np.flatnonzero(np.any((model.E != 0) | (model.B != 0) | (g_mat != 0), axis=0))
    gammas = ((model.E - covs[:-1] @ model.B) / np.sqrt(2.0) + g_mat)[..., live]
    return dict(phi=phi, gammas=gammas, live=live, extra=dict(cov_path=covs))


def _gaussian_start(spec: EnsembleSpec, scenario: Scenario, nblk, shared):
    """The Gaussian kind's part of a block: its conditional means, stepped on
    one normal per step and live current (``live`` of :func:`_gaussian_paths`).

    The block state is the means as the columns of a (2n, B) array.  A chunk
    steps them time-major in a (steps + 1, 2n, B) buffer, its starting means
    first, so each quadrature's values run over contiguous rows.  Its
    noise terms Gamma_k dw_k are one batched matmul over the live currents
    (a broadcast multiply for one), written where the means go; the
    recursion then adds Phi r_k, one small GEMM per step.  The values x, then
    x^2, of the observed quadratures, the records dy_k = -sqrt(2) dt B^T r_k +
    dw_k and the stored means are each one call per chunk.  A dead current
    moves no mean, so its increments are drawn only for the records
    (``spare``), and the statistics never depend on whether records are kept.
    """
    model: GaussianModel = scenario.model
    phi, gammas, live = shared["phi"], shared["gammas"], shared["live"]
    comp = [model.labels.index(name) for name, _ in spec.observables]

    def step(r0, k0, x, values, weights, states, records):
        steps, first = x.shape[1], len(values) - x.shape[1]
        r = np.empty((steps + 1,) + r0.shape)
        r[0] = r0
        if len(live) == 1:  # a product of one term, exact as a broadcast multiply
            np.multiply(gammas[k0:k0 + steps], x[:, :, 0].T[:, None, :], out=r[1:steps + 1])
        else:
            np.matmul(gammas[k0:k0 + steps], x.transpose(1, 2, 0), out=r[1:steps + 1])
        for j in range(steps):
            r[j + 1] += phi @ r[j]
        if records is not None:
            records[..., live] = x
            records += (-np.sqrt(2.0) * spec.dt * (model.B.T @ r[:steps])).transpose(2, 0, 1)
        if states is not None:
            states[...] = r[1 - first:steps + 1].transpose(2, 0, 1)
        for i, c in enumerate(comp):  # x, then x^2, of each observed quadrature
            values[:, i] = r[1 - first:, c]
            np.square(r[1 - first:, c], out=values[:, len(comp) + i])
        return r[steps]

    return _Stepping(np.repeat(scenario.initial_state.mean[:, None], nblk, axis=1), step,
                     len(live), max(model.dim, model.n_currents),
                     spare=np.setdiff1d(np.arange(model.n_currents), live))


def _noise_free(spec: EnsembleSpec, scenario: Scenario, values, **extra):
    """The block result of one noise-free trajectory whose values are the
    columns of ``values`` (steps, columns).  Its weight is 1, so its means are
    the values exactly and its centred sums 0."""
    acc = np.zeros(stats_shape(scenario.kind, spec.n_steps, len(spec.observables)))
    _moments(_parts(acc), np.array(values, dtype=float)[..., None], None)
    return dict(stats=acc, extra=extra)


def _me_block(spec: EnsembleSpec, scenario: Scenario, lo, hi, shared, stored):
    """The unconditional master equation: the expectations of
    :func:`contmon.master_equation.me_expectations` as one trajectory."""
    expect = me_expectations(scenario.model, scenario.initial_state, spec.t_grid, spec.observables)
    values = np.reshape([expect[name] for name, _ in spec.observables], (-1, spec.t_grid.size))
    return _noise_free(spec, scenario, values.T)


def _moments_block(spec: EnsembleSpec, scenario: Scenario, lo, hi, shared, stored):
    """The unmonitored Gaussian moments of
    :func:`contmon.gaussian.unconditional_moments` as one trajectory: the
    columns x, then x^2, of the observed quadratures' means, and the
    covariance path as ``cov_path``."""
    model: GaussianModel = scenario.model
    means, covs = unconditional_moments(model, scenario.initial_state, spec.dt, spec.n_steps)
    covs = _finite_covariances(covs)
    x = means[:, [model.labels.index(name) for name, _ in spec.observables]]
    return _noise_free(spec, scenario, np.hstack([x, x * x]), cov_path=covs)


@dataclass(frozen=True)
class Kind:
    """What the ensemble layer needs to know about one scenario kind.

    ``block(spec, scenario, lo, hi, shared, stored)`` runs trajectories
    lo..hi - 1 of a ``model``, with ``shared`` what ``shared(spec,
    scenario)`` computed once per run (the ``"extra"`` of each goes to
    ``EnsembleStats.extra``).  It writes its rows lo..hi - 1 of the run's
    stored states and records, the arrays of the dict ``stored`` that
    ``run_ensemble`` allocates, in place, and returns a dict of its
    statistics (``"stats"``) and the counters it keeps, nothing else: no
    block result holds a stored output.  A stochastic kind's block is the
    driver :func:`_stochastic_block` bound to the function that sets up the
    kind's part of a block, its initial state and chunk step
    (:class:`_Stepping`): :func:`_hilbert_start` for the Hilbert-space kinds,
    :func:`_gaussian_start` for ``"gaussian"``.  A kind whose ``draws`` is 0
    is noise-free: ``run_ensemble`` runs it as one trajectory that stores no
    records or states, and its block hands its values to :func:`_noise_free`.
    For the Hilbert-space kinds ``kernel(scenario, dt)`` runs once per block,
    compiles the step, and returns ``advance(state, x)``, which advances the
    block and returns (state', record row); ``x`` is the step's uniform
    variates for click kinds and its Wiener increments otherwise, one column
    per draw (a vector when ``draws`` is 1).  The block is a real (2d, B)
    array of state vectors when ``advance.vector`` is true, that is when the
    kernel of a Kraus kind carries ``vector`` and the initial state is rank
    one.  A density-matrix block is its (d^2, B) coordinates when
    ``advance.coords`` is true, that is when the compiled kernel carries
    ``maps``, and a C-contiguous (B, d, d) array, which ``advance`` updates in
    place, otherwise.  Click kinds record ``uint8``
    outcomes; ``linear`` kinds carry unnormalized states with weighted
    statistics.  What a Hilbert-space kind's step needs of its scenario (a
    vacuum bath, unit or nonzero efficiency, a zero LO phase, a real or zero
    squeezing, a feedback operator, beta > 0) is its entry of
    :data:`contmon.jump.NEEDS`, which ``Scenario`` checks at construction, the
    kernel compilers on every call and ``config`` as named document rules.
    """

    kernel: Callable | None
    draws: int = 1
    clicks: bool = False
    linear: bool = False
    block: Callable = partial(_stochastic_block, _hilbert_start)
    shared: Callable | None = None
    model: type = OpenSystemModel

    # a Hilbert-space kind stepped on Wiener increments: the kinds that
    # two-point noise applies to (read-only)
    diffusive = property(lambda self: self.kernel is _diffusive_kernel)


KINDS = {
    "jump": Kind(_click_kernel, clicks=True),
    "jump_kraus": Kind(_click_kernel, clicks=True),
    "jump_feedback": Kind(_click_kernel, clicks=True),
    "linear_jump": Kind(_click_kernel, clicks=True, linear=True),
    "homodyne": Kind(_diffusive_kernel),
    "homodyne_kraus": Kind(_diffusive_kernel),
    "heterodyne": Kind(_diffusive_kernel, draws=2),
    "homodyne_feedback": Kind(_diffusive_kernel),
    "generalized_homodyne": Kind(_diffusive_kernel),
    "generalized_heterodyne": Kind(_diffusive_kernel, draws=2),
    "linear_homodyne": Kind(_diffusive_kernel, linear=True),
    "gaussian": Kind(None, block=partial(_stochastic_block, _gaussian_start),
                     shared=_gaussian_paths, model=GaussianModel),
    "me": Kind(None, draws=0, block=_me_block),
    "gaussian_moments": Kind(None, draws=0, block=_moments_block, model=GaussianModel),
}


def _block_results(kind: Kind, blocks, threads):
    """Each block's result, in index order, as the caller takes it: serially
    at one thread, else in groups of ``threads`` blocks run in parallel, so
    that at most that many results are held at once.  Each block runs under
    the run's floating-point policy, on whichever thread it runs."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = pool.map if threads > 1 and len(blocks) > 1 else map
        for i in range(0, len(blocks), threads):
            yield from run(_fp_policy(lambda args: kind.block(*args)), blocks[i:i + threads])


@_fp_policy
def run_ensemble(spec: EnsembleSpec, scenario: Scenario) -> EnsembleStats:
    """Run the trajectory ensemble described by (spec, scenario).

    Deterministic for fixed (spec, scenario): the output is identical for any
    thread count because trajectory substreams depend only on (master_seed,
    index) and block statistics are merged in index order.  Stored states and
    records are allocated once for the run and written in place by each
    block; a block's statistics and counters are folded in as it arrives.
    With checks on (``validate_every``), a linear ensemble whose total
    weight is 0 or not finite after some step raises PhysicalityError naming
    it; otherwise its means there are NaN.
    """
    kind = KINDS[scenario.kind]
    if spec.noise == "two_point" and kind.draws and not kind.diffusive:
        raise ValueError("two-point noise applies to diffusive Hilbert-space unravellings only")
    if not kind.draws and (spec.n_traj != 1 or spec.store_states or spec.store_records):
        raise ValueError(f"{scenario.kind} is noise-free: it runs one trajectory and stores "
                         "no records or states")
    shared = kind.shared(spec, scenario) if kind.shared else {}

    # the run's stored outputs, allocated once and written in place by the
    # blocks: (d, d) density matrices or a Gaussian run's means, and per step
    # the kind's ``draws`` outcomes (a byte each) or increments, or one float
    # per current of a Gaussian model
    size, n, steps, dim = spec.block_size, spec.n_traj, spec.n_steps, scenario.model.dim
    gaussian, stored = kind.model is GaussianModel, {}
    if spec.store_states:
        stored["states"] = np.empty((n, steps + 1) + (dim,) * (2 - gaussian),
                                    float if gaussian else complex)
    if spec.store_records:
        row = (scenario.model.n_currents,) if gaussian else (kind.draws,) * (kind.draws > 1)
        stored["records"] = np.empty((n, steps) + row, np.uint8 if kind.clicks else float)
    blocks = [(spec, scenario, lo, min(lo + size, n), shared, stored) for lo in range(0, n, size)]
    acc, health, extra = None, {}, dict(shared.get("extra", {}))
    for part in _block_results(kind, blocks, spec.threads):
        acc = part["stats"] if acc is None else _merge(acc, part["stats"])
        if "min_eig" in part:  # the counters of a block that tracks positivity
            health["min_eig"] = min(health.get("min_eig", np.inf), part["min_eig"])
            health["violations"] = health.get("violations", 0) + part["violations"]
        extra.update(part.get("extra", {}))

    names = [name for name, _ in spec.observables]
    big_w, w2, m, s, _ = (part.T for part in _parts(acc))
    s = np.maximum(s, 0.0)  # a sum of squares, whatever the merges rounded
    # a fully collapsed linear ensemble (all ostensible paths annihilated) has
    # no estimate at all: NaN means, zero effective sample size
    safe_w = np.where(big_w != 0.0, big_w, np.nan)
    mean = np.where(big_w != 0.0, m, np.nan)
    se = np.sqrt(s) / safe_w
    ess = None
    if kind.linear:
        lost = np.flatnonzero(~np.isfinite(big_w[0]) | (big_w[0] == 0.0))
        if spec.validate_every and len(lost):  # row k holds the state after step k - 1
            raise PhysicalityError(int(lost[0]) - 1, "ensemble weight vanished"
                                   if big_w[0, lost[0]] == 0.0 else "non-finite ensemble weight")
        ess = np.where(w2[0] > 0.0, big_w[0]**2 / np.where(w2[0] > 0.0, w2[0], 1.0), 0.0)
        if np.min(ess) < ESS_WARN_FRACTION * n:
            warnings.warn(f"effective sample size dropped to {np.min(ess):.1f} "
                          f"(< {ESS_WARN_FRACTION:.0%} of {n} trajectories)", RuntimeWarning)
    else:
        se *= np.sqrt(n / max(n - 1, 1))  # the sample standard deviation / sqrt(n)

    stats = EnsembleStats(
        t=spec.t_grid,
        means=dict(zip(names, mean)),
        std_errs=dict(zip(names, se)),
        n_traj=n,
        min_eigenvalue=health.get("min_eig"),
        positivity_violations=health.get("violations"),
        ess=ess,
        extra=extra,
        **stored,
    )
    if gaussian:  # the centred sums of the x and x^2 columns, over n
        stats.extra["var_x"] = dict(zip(names, s[:len(names)] / n))
        stats.extra["var_x2"] = dict(zip(names, s[len(names):] / n))
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


@_fp_policy
def compare_to_me(stats: EnsembleStats, reference: dict, threshold: float = 4.0) -> ComparisonReport:
    """Per-time z-scores |mean - reference| / SE for each observable present in
    ``reference``; zero-SE points pass only on exact agreement, and a NaN
    z-score (from a NaN mean or SE) counts as infinite, so it fails."""
    z_scores = {}
    worst = (0.0, "", 0)
    for name, ref in reference.items():
        if name not in stats.means:
            raise KeyError(f"observable {name!r} missing from ensemble stats")
        ref = np.asarray(ref, dtype=float)
        if ref.shape != stats.means[name].shape:
            raise ValueError(f"grid mismatch for {name!r}")
        diff = np.abs(stats.means[name] - ref)
        z = np.where(diff == 0.0, 0.0, diff / stats.std_errs[name])
        z[np.isnan(z)] = np.inf
        z_scores[name] = z
        idx = int(np.argmax(z))
        if z[idx] > worst[0]:
            worst = (float(z[idx]), name, idx)
    return ComparisonReport(worst[0], worst[1], worst[2], z_scores, threshold)
