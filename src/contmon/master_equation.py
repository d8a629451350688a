"""Unconditional dynamics: Lindblad right-hand sides, deterministic integration,
and the exponential propagator / semigroup structure.

The right-hand side covers vacuum baths (plain Lindblad form) as well as
squeezed thermal baths and coherent driving.  Each model has one constant
generator: the Hamiltonian is a (d, d) Hermitian array, and time dependence
under feedback enters only through the measured current, which the
trajectory steppers handle.  :func:`integrate_me` steps the row-major ``vec``
of the state by one cached d^2 x d^2 matrix per (stepper, dt):
``core_ops.expm`` of the vectorized generator for ``"expm"``, and for
``"rk4"`` its RK4 stability polynomial I + A + A^2/2 + A^3/6 + A^4/24
(A = dt L), built as one ``core_ops.rk4_step`` of y' = A y from y = I, the
one RK4 of the package.  Above
``MAX_RK4_MATRIX_DIM`` = 12 the ``"rk4"`` stepper takes the stage form, four
calls of the compiled right-hand side per step: there the O(d^6) build of
the matrix outweighs the steps it saves (at d = 12 it costs about 2.4 ms, as
much as 35 stage steps), and above ``MAX_SUPEROPERATOR_DIM`` no matrix is
built at all.

The generator's terms are built in one place, :func:`_generator_terms`, which
the compiled RK4 right-hand side, :func:`liouvillian_matrix` (both step
matrices and :func:`steady_state`) and the Euler drift of every diffusive
kernel read.  :func:`liouvillian_apply` and :func:`generalized_bath_me_rhs`
state it directly, as the references the tests hold them to.
:func:`model_cache` is the one per-model operator cache: the steppers'
operator products and compiled kernels and the master equation's step
matrices all live in it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .core_ops import (
    DimensionMismatchError,
    InvalidStateError,
    _check_same_dim,
    _check_square,
    dagger,
    dissipator,
    ensure_density_matrix,
    expm,
    is_hermitian,
    rk4_step,
    trace,
    validate_state,
)

__all__ = [
    "BathSpec",
    "VACUUM",
    "OpenSystemModel",
    "StepSizeError",
    "liouvillian_apply",
    "generalized_bath_me_rhs",
    "coherent_drive_hamiltonian",
    "liouvillian_matrix",
    "integrate_me",
    "me_expectations",
    "steady_state",
    "MAX_SUPEROPERATOR_DIM",
    "MAX_RK4_MATRIX_DIM",
]

# dim**2 x dim**2 dense exponentials stay manageable up to here
MAX_SUPEROPERATOR_DIM = 64
# the rk4 stepper applies one cached dim**2 x dim**2 step matrix up to here
# and the stage form above, where the matrix's O(dim**6) build outweighs it
MAX_RK4_MATRIX_DIM = 12


class StepSizeError(RuntimeError):
    """Raised when an integration step violates its sanity bounds."""


@dataclass(frozen=True)
class BathSpec:
    """White-noise bath statistics: thermal occupation N, squeezing correlation M,
    and coherent drive amplitude beta-bar.  Vacuum is (0, 0, 0)."""

    n_thermal: float = 0.0
    squeezing: complex = 0j
    drive: complex = 0j

    def __post_init__(self):
        for name in ("n_thermal", "squeezing", "drive"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"bath {name} must be finite")
        if self.n_thermal < 0:
            raise ValueError("bath thermal occupation must be >= 0")
        n = self.n_thermal
        if abs(self.squeezing) ** 2 > n * (n + 1) + 1e-12:
            raise ValueError(
                f"unphysical bath: |M|^2 = {abs(self.squeezing)**2:.6g} exceeds "
                f"N(N+1) = {n*(n+1):.6g}"
            )

    @property
    def is_vacuum(self) -> bool:
        return self.n_thermal == 0 and self.squeezing == 0 and self.drive == 0


VACUUM = BathSpec()


@dataclass(eq=False)
class OpenSystemModel:
    """Hamiltonian + weighted collapse channels + bath statistics + detection.

    ``channels`` is a sequence of (rate kappa_i >= 0, collapse operator c_i).
    ``efficiency`` is the detected fraction of the output field, ``homodyne_phase``
    the local-oscillator phase (enters as c -> c e^{i theta} at the stepper
    boundary).  The Hamiltonian, rates, collapse operators and the phase must
    be finite.
    Instances are treated as immutable.
    """

    hamiltonian: np.ndarray
    channels: tuple = ()
    bath: BathSpec = VACUUM
    efficiency: float = 1.0
    homodyne_phase: float = 0.0

    def __post_init__(self):
        h = _check_square(self.hamiltonian, "Hamiltonian")  # finite before Hermitian
        if h.ndim != 2:
            raise DimensionMismatchError("Hamiltonian must be a square matrix")
        if not is_hermitian(h):
            raise ValueError("Hamiltonian must be Hermitian")
        self.hamiltonian = h
        chans = []
        for kappa, c in self.channels:
            # a NaN rate fails the comparison too
            if not 0 <= kappa < np.inf:
                raise ValueError("channel rates must be finite and >= 0")
            c = _check_square(c, "collapse operator")
            if c.shape != h.shape:
                raise DimensionMismatchError("collapse operator dimension mismatch")
            chans.append((float(kappa), c))
        self.channels = tuple(chans)
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not np.isfinite(self.homodyne_phase):
            raise ValueError("homodyne_phase must be finite")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def single_channel(self) -> tuple[float, np.ndarray]:
        if len(self.channels) != 1:
            raise ValueError(
                f"trajectory steppers monitor exactly one channel, model has "
                f"{len(self.channels)}"
            )
        return self.channels[0]


def coherent_drive_hamiltonian(c: np.ndarray, kappa: float, beta) -> np.ndarray:
    """Driving Hamiltonian i sqrt(kappa) (beta* c - beta c^dag); Hermitian for any
    complex beta and reduces to i sqrt(kappa) beta (c - c^dag) for real beta."""
    c = np.asarray(c, dtype=complex)
    beta = complex(beta)
    return 1j * np.sqrt(kappa) * (np.conj(beta) * c - beta * dagger(c))


def _double_commutator(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    ax = a @ x - x @ a
    return a @ ax - ax @ a


def liouvillian_apply(model: OpenSystemModel, rho: np.ndarray) -> np.ndarray:
    """Vacuum-bath Lindblad right-hand side -i[H, rho] + sum_i kappa_i D[c_i] rho."""
    if not model.bath.is_vacuum:
        raise ValueError("liouvillian_apply assumes a vacuum bath; use generalized_bath_me_rhs")
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for kappa, c in model.channels:
        out = out + kappa * dissipator(c, rho)
    h = model.hamiltonian
    out = out + (-1j) * (h @ rho - rho @ h)
    return out


def generalized_bath_me_rhs(model: OpenSystemModel, rho: np.ndarray) -> np.ndarray:
    """Unconditional right-hand side for a squeezed thermal bath with coherent
    driving:

        kappa (N+1) D[c] rho + kappa N D[c^dag] rho
        + (kappa M / 2) [c^dag, [c^dag, rho]] + (kappa M* / 2) [c, [c, rho]]
        - i [H + H_drive, rho]

    summed over channels.  Reduces exactly to :func:`liouvillian_apply` for a
    vacuum bath.
    """
    rho = np.asarray(rho, dtype=complex)
    bath = model.bath
    n, m = bath.n_thermal, complex(bath.squeezing)
    out = np.zeros_like(rho)
    h_drive = None
    for kappa, c in model.channels:
        out = out + (kappa * (n + 1.0)) * dissipator(c, rho)
        if n != 0.0:
            out = out + (kappa * n) * dissipator(dagger(c), rho)
        if m != 0:
            cd = dagger(c)
            out = out + (kappa * m / 2.0) * _double_commutator(cd, rho)
            out = out + (kappa * np.conj(m) / 2.0) * _double_commutator(c, rho)
        if bath.drive != 0:
            term = coherent_drive_hamiltonian(c, kappa, bath.drive)
            h_drive = term if h_drive is None else h_drive + term
    h = model.hamiltonian if h_drive is None else model.hamiltonian + h_drive
    out = out + (-1j) * (h @ rho - rho @ h)
    return out


def _generator_terms(model: OpenSystemModel):
    """The terms of :func:`generalized_bath_me_rhs`'s generator, with every
    operator built once.

    Returns ``(channels, h)``.  ``channels`` holds one pair
    ``(dissipators, commutators)`` per channel, in the order the terms are
    summed: the dissipators (coeff, a, a^dag, a^dag a) of kappa (N+1) D[c]
    and kappa N D[c^dag], and the double commutators (coeff, a, a^2) of
    (kappa M/2) [c^dag, [c^dag, .]] and (kappa M*/2) [c, [c, .]].
    ``h`` is the Hamiltonian plus the summed drive Hamiltonian.
    """
    bath = model.bath
    n, m = bath.n_thermal, complex(bath.squeezing)
    channels, h_drive = [], None
    for kappa, c in model.channels:
        cd = dagger(c)
        dissipators = [(kappa * (n + 1.0), c, cd, cd @ c)]
        if n != 0.0:
            dissipators.append((kappa * n, cd, dagger(cd), dagger(cd) @ cd))
        commutators = []
        if m != 0:
            commutators = [(kappa * m / 2.0, cd, cd @ cd), (kappa * np.conj(m) / 2.0, c, c @ c)]
        channels.append((dissipators, commutators))
        if bath.drive != 0:
            term = coherent_drive_hamiltonian(c, kappa, bath.drive)
            h_drive = term if h_drive is None else h_drive + term
    return channels, (model.hamiltonian if h_drive is None else model.hamiltonian + h_drive)


def _compiled_me_rhs(model: OpenSystemModel):
    """:func:`generalized_bath_me_rhs` on the terms of :func:`_generator_terms`.

    Returns ``rhs(rho)``, with the Hamiltonian and the drive folded in.
    The terms are summed in the order of :func:`generalized_bath_me_rhs`, so
    both give the same bits; ``rhs`` checks nothing.
    """
    channels, h = _generator_terms(model)

    def rhs(rho):
        out = np.zeros_like(rho)
        for dissipators, commutators in channels:
            for coeff, a, ad, ada in dissipators:
                out = out + coeff * (a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada))
            for coeff, a, _ in commutators:
                out = out + coeff * _double_commutator(a, rho)
        return out + (-1j) * (h @ rho - rho @ h)

    return rhs


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The superoperator of rho -> a rho b: vec(A X B) = (A kron B^T) vec(X)
    for the row-major vec."""
    return np.kron(a, b.T)


def liouvillian_matrix(model: OpenSystemModel) -> np.ndarray:
    """Dense superoperator matrix L with vec(L rho) = L @ vec(rho) (row-major vec).

    Refuses dimensions beyond ``MAX_SUPEROPERATOR_DIM`` (the dim^2 x dim^2
    exponential becomes impractical).
    """
    d = model.dim
    if d > MAX_SUPEROPERATOR_DIM:
        raise ValueError(
            f"superoperator matrix refused for dim {d} > {MAX_SUPEROPERATOR_DIM}"
        )
    eye = np.eye(d, dtype=complex)
    channels, h = _generator_terms(model)
    lmat = np.zeros((d * d, d * d), dtype=complex)
    for dissipators, commutators in channels:
        for coeff, a, ad, ada in dissipators:
            lmat += coeff * (_sandwich(a, ad) - 0.5 * (_sandwich(ada, eye) + _sandwich(eye, ada)))
        for coeff, a, a2 in commutators:
            lmat += coeff * (_sandwich(a2, eye) - 2.0 * _sandwich(a, a) + _sandwich(eye, a2))
    lmat += -1j * (_sandwich(h, eye) - _sandwich(eye, h))
    return lmat


_MODEL_CACHES: "weakref.WeakKeyDictionary[OpenSystemModel, dict]" = weakref.WeakKeyDictionary()


def model_cache(model: OpenSystemModel) -> dict:
    """The per-model operator cache: one dict per (immutable) model, dropped
    with it.  The jump and diffusive steppers keep their operator products and
    compiled kernels here (see ``contmon.jump._ctx``), and
    :func:`integrate_me` its step matrices under
    ``("propagator", stepper, dt)``."""
    return _MODEL_CACHES.setdefault(model, {})


def _propagator(model: OpenSystemModel, stepper: str, dt: float) -> np.ndarray:
    """The cached one-step matrix of ``stepper`` ("rk4" or "expm") at step
    size dt."""
    cache = model_cache(model)
    key = ("propagator", stepper, float(dt))
    if key not in cache:
        # a matrix that overflows holds inf or NaN, which the drift check of
        # integrate_me reports, so numpy's floating-point warnings are muted
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            a = liouvillian_matrix(model) * dt
            cache[key] = (expm(a) if stepper == "expm"
                          else rk4_step(lambda y: a @ y, np.eye(len(a), dtype=a.dtype), 1.0))
    return cache[key]


def _check_uniform_grid(t_grid: np.ndarray) -> float:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("time grid must be a 1-d array with at least two points")
    steps = np.diff(t_grid)
    dt = steps[0]
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform and increasing")
    return float(dt)


TRACE_DRIFT_LIMIT = 1e-8


def integrate_me(
    model: OpenSystemModel,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    stepper: str = "rk4",
) -> np.ndarray:
    """Integrate the unconditional master equation on a uniform grid.

    ``stepper`` is ``"rk4"`` (fixed-step) or ``"expm"`` (exact exponential
    propagator of the vectorized generator).  The generator is constant: a
    Hamiltonian that switches is integrated piece by piece, each piece from
    the last state of the one before.

    Both apply one cached d^2 x d^2 step matrix per (stepper, dt) to the
    row-major ``vec`` of the state: ``core_ops.expm`` of
    ``dt`` times :func:`liouvillian_matrix`, or that matrix's RK4 stability
    polynomial.  Above ``MAX_RK4_MATRIX_DIM`` = 12 ``"rk4"`` takes the
    stage form instead, four calls of the compiled right-hand side per step;
    it is the only form above ``MAX_SUPEROPERATOR_DIM``, where
    :func:`liouvillian_matrix` refuses (and ``"expm"`` with it).  Building
    the matrix costs O(d^6) once against O(d^3) per stage step: at d = 12
    about 2.4 ms, which a run pays back after about 37 steps, so a shorter
    run is slower in the matrix form.

    Raises :class:`StepSizeError` when the per-step trace drift exceeds
    ``TRACE_DRIFT_LIMIT`` (a non-finite state fails it too), and
    ``DimensionMismatchError`` when rho0 and the model differ in dimension.
    """
    rho0 = ensure_density_matrix(np.asarray(rho0, dtype=complex))
    _check_same_dim(rho0, model.hamiltonian)
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_uniform_grid(t_grid)
    if stepper not in ("rk4", "expm"):
        raise ValueError(f"unknown stepper {stepper!r} (use 'rk4' or 'expm')")
    if stepper == "rk4" and model.dim > MAX_RK4_MATRIX_DIM:
        rhs = _compiled_me_rhs(model)

        def step(rho):
            return rk4_step(rhs, rho, dt)
    else:
        prop = _propagator(model, stepper, dt)

        def step(rho):
            return (prop @ rho.reshape(-1)).reshape(rho.shape)

    out = np.empty((t_grid.size,) + rho0.shape, dtype=complex)
    out[0] = rho = rho0
    tr = trace(rho0)
    for i in range(t_grid.size - 1):
        new = step(rho)
        new_tr = trace(new)
        drift = abs(new_tr - tr)
        # not (drift <= limit): a NaN drift fails too
        if not drift <= TRACE_DRIFT_LIMIT:
            raise StepSizeError(
                f"trace drift {drift:.3e} at step {i} exceeds {TRACE_DRIFT_LIMIT:g}; reduce dt"
            )
        out[i + 1] = rho = new
        tr = new_tr
    return out


def me_expectations(
    model: OpenSystemModel,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    observables,
) -> dict[str, np.ndarray]:
    """Integrate the master equation with the ``"rk4"`` stepper and return real
    expectation values per time, keyed by observable name.  ``observables`` is
    a sequence of (name, operator)."""
    states = integrate_me(model, rho0, t_grid)
    out = {}
    for name, op in observables:
        op = np.asarray(op, dtype=complex)
        _check_same_dim(states, op)
        out[name] = np.einsum("tij,ji->t", states, op).real
    return out


def steady_state(model: OpenSystemModel) -> np.ndarray:
    """Steady state of the generator: the eigenvector of L with eigenvalue
    closest to zero, reshaped and normalized.  Raises
    :class:`~contmon.core_ops.InvalidStateError` when that is no density
    matrix, as when the kernel of L is degenerate and the solver returns a
    mixture of steady states with trace near zero."""
    lmat = liouvillian_matrix(model)
    vals, vecs = np.linalg.eig(lmat)
    idx = int(np.argmin(np.abs(vals)))
    d = model.dim
    rho = vecs[:, idx].reshape(d, d)
    rho = 0.5 * (rho + dagger(rho))
    rho = rho / trace(rho).real
    problems = validate_state(rho).defects()
    if problems:
        raise InvalidStateError("no unique steady state: " + "; ".join(problems))
    return rho
