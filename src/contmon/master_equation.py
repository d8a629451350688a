"""Unconditional dynamics: Lindblad right-hand sides, deterministic integration,
and the exponential propagator / semigroup structure.

The right-hand side covers vacuum baths (plain Lindblad form) as well as
squeezed thermal baths and coherent driving; the propagator route vectorizes
the generator (row-major ``vec``) and exponentiates it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .core_ops import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    Tolerances,
    _check_square,
    dagger,
    dissipator,
    ensure_density_matrix,
    is_hermitian,
    rk4_step,
    trace,
)

__all__ = [
    "BathSpec",
    "VACUUM",
    "PiecewiseConstantHamiltonian",
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
]

# dim**2 x dim**2 dense exponentials stay manageable up to here
MAX_SUPEROPERATOR_DIM = 64


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


class PiecewiseConstantHamiltonian:
    """Hamiltonian schedule: ``pieces`` is a sequence of (t_end, H) with strictly
    increasing end times; H_k applies on [t_{k-1}, t_k).  The final t_end may be
    ``inf``.  This is the only supported form of time dependence."""

    def __init__(self, pieces):
        if not pieces:
            raise ValueError("schedule needs at least one piece")
        t_ends = [float(t) for t, _ in pieces]
        if any(b <= a for a, b in zip(t_ends, t_ends[1:])):
            raise ValueError("schedule end times must be strictly increasing")
        ops = []
        for _, h in pieces:
            h = np.asarray(h, dtype=complex)
            if not is_hermitian(h):
                raise ValueError("every Hamiltonian piece must be Hermitian")
            ops.append(h)
        dims = {h.shape for h in ops}
        if len(dims) != 1:
            raise DimensionMismatchError("schedule pieces have inconsistent shapes")
        self.t_ends = np.array(t_ends)
        self.operators = ops

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.t_ends, t, side="right"))
        if idx >= len(self.operators):
            idx = len(self.operators) - 1
        return self.operators[idx]


@dataclass(eq=False)
class OpenSystemModel:
    """Hamiltonian + weighted collapse channels + bath statistics + detection.

    ``channels`` is a sequence of (rate kappa_i >= 0, collapse operator c_i).
    ``efficiency`` is the detected fraction of the output field, ``homodyne_phase``
    the local-oscillator phase (enters as c -> c e^{i theta} at the stepper
    boundary).  Instances are treated as immutable.
    """

    hamiltonian: np.ndarray | PiecewiseConstantHamiltonian
    channels: tuple = ()
    bath: BathSpec = VACUUM
    efficiency: float = 1.0
    homodyne_phase: float = 0.0
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)

    def __post_init__(self):
        if not isinstance(self.hamiltonian, PiecewiseConstantHamiltonian):
            h = np.asarray(self.hamiltonian, dtype=complex)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise DimensionMismatchError("Hamiltonian must be a square matrix")
            if not is_hermitian(h, self.tolerances.hermiticity):
                raise ValueError("Hamiltonian must be Hermitian")
            self.hamiltonian = h
        chans = []
        for kappa, c in self.channels:
            if kappa < 0:
                raise ValueError("channel rates must be >= 0")
            c = np.asarray(c, dtype=complex)
            if c.shape != (self.dim, self.dim):
                raise DimensionMismatchError("collapse operator dimension mismatch")
            chans.append((float(kappa), c))
        self.channels = tuple(chans)
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")

    @property
    def dim(self) -> int:
        if isinstance(self.hamiltonian, PiecewiseConstantHamiltonian):
            return self.hamiltonian.dim
        return self.hamiltonian.shape[0]

    def hamiltonian_at(self, t: float) -> np.ndarray:
        if isinstance(self.hamiltonian, PiecewiseConstantHamiltonian):
            return self.hamiltonian.at(t)
        return self.hamiltonian

    def constant_hamiltonian(self) -> np.ndarray:
        if isinstance(self.hamiltonian, PiecewiseConstantHamiltonian):
            raise TypeError("this operation requires a time-independent Hamiltonian")
        return self.hamiltonian

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


def liouvillian_apply(model: OpenSystemModel, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Vacuum-bath Lindblad right-hand side -i[H, rho] + sum_i kappa_i D[c_i] rho."""
    if not model.bath.is_vacuum:
        raise ValueError("liouvillian_apply assumes a vacuum bath; use generalized_bath_me_rhs")
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for kappa, c in model.channels:
        out = out + kappa * dissipator(c, rho)
    h = model.hamiltonian_at(t)
    out = out + (-1j) * (h @ rho - rho @ h)
    return out


def generalized_bath_me_rhs(model: OpenSystemModel, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
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
    h = model.hamiltonian_at(t)
    if h_drive is not None:
        h = h + h_drive
    out = out + (-1j) * (h @ rho - rho @ h)
    return out


def _compiled_me_rhs(model: OpenSystemModel):
    """:func:`generalized_bath_me_rhs` with every operator built once.

    Returns ``(rhs, h_drive)``: ``rhs(rho, h)`` evaluates the right-hand side for
    the Hamiltonian ``h``, which must already include the drive ``h_drive``
    (None without one).  The terms are formed and summed in the order of
    :func:`generalized_bath_me_rhs`, so both give the same bits.  Each collapse
    operator is checked once here; ``rhs`` checks nothing.
    """
    bath = model.bath
    n, m = bath.n_thermal, complex(bath.squeezing)
    # (coefficient, a, a^dag, a^dag a) of each dissipator and (coefficient, a)
    # of each double commutator, in the order they are summed
    dissipators, commutators = [], []
    h_drive = None
    for kappa, c in model.channels:
        c = _check_square(c)
        cd = dagger(c)
        dissipators.append([(kappa * (n + 1.0), c, cd, cd @ c)])
        if n != 0.0:
            dissipators[-1].append((kappa * n, cd, dagger(cd), dagger(cd) @ cd))
        commutators.append(
            [(kappa * m / 2.0, cd), (kappa * np.conj(m) / 2.0, c)] if m != 0 else []
        )
        if bath.drive != 0:
            term = coherent_drive_hamiltonian(c, kappa, bath.drive)
            h_drive = term if h_drive is None else h_drive + term

    def rhs(rho, h):
        out = np.zeros_like(rho)
        for dis, com in zip(dissipators, commutators):
            for coeff, a, ad, ada in dis:
                out = out + coeff * (a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada))
            for coeff, a in com:
                out = out + coeff * _double_commutator(a, rho)
        return out + (-1j) * (h @ rho - rho @ h)

    return rhs, h_drive


def _lmul(a: np.ndarray, eye: np.ndarray) -> np.ndarray:
    return np.kron(a, eye)


def _rmul(a: np.ndarray, eye: np.ndarray) -> np.ndarray:
    return np.kron(eye, a.T)


def _sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row-major vec:  vec(A X B) = (A kron B^T) vec(X)
    return np.kron(a, b.T)


def liouvillian_matrix(model: OpenSystemModel, t: float = 0.0) -> np.ndarray:
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
    bath = model.bath
    n, m = bath.n_thermal, complex(bath.squeezing)
    lmat = np.zeros((d * d, d * d), dtype=complex)

    def dis(a):
        ada = dagger(a) @ a
        return _sandwich(a, dagger(a)) - 0.5 * (_lmul(ada, eye) + _rmul(ada, eye))

    h_total = model.hamiltonian_at(t)
    for kappa, c in model.channels:
        lmat += kappa * (n + 1.0) * dis(c)
        if n != 0.0:
            lmat += kappa * n * dis(dagger(c))
        if m != 0:
            cd = dagger(c)
            for coeff, a in ((kappa * m / 2.0, cd), (kappa * np.conj(m) / 2.0, c)):
                lmat += coeff * (
                    _lmul(a @ a, eye) - 2.0 * _sandwich(a, a) + _rmul(a @ a, eye)
                )
        if bath.drive != 0:
            h_total = h_total + coherent_drive_hamiltonian(c, kappa, bath.drive)
    lmat += -1j * (_lmul(h_total, eye) - _rmul(h_total, eye))
    return lmat


# propagator cache keyed on the (immutable) model, then on (dt, t_segment)
_PROPAGATOR_CACHE: "weakref.WeakKeyDictionary[OpenSystemModel, dict]" = (
    weakref.WeakKeyDictionary()
)


def _propagator(model: OpenSystemModel, dt: float, t: float) -> np.ndarray:
    per_model = _PROPAGATOR_CACHE.setdefault(model, {})
    if isinstance(model.hamiltonian, PiecewiseConstantHamiltonian):
        seg = int(np.searchsorted(model.hamiltonian.t_ends, t, side="right"))
        seg = min(seg, len(model.hamiltonian.operators) - 1)
    else:
        seg = 0
    key = (float(dt), seg)
    if key not in per_model:
        per_model[key] = expm(liouvillian_matrix(model, t) * dt)
    return per_model[key]


def _check_uniform_grid(t_grid: np.ndarray) -> float:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("time grid must be a 1-d array with at least two points")
    steps = np.diff(t_grid)
    dt = steps[0]
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform and increasing")
    return float(dt)


def _segment_aligned(model: OpenSystemModel, t_grid: np.ndarray) -> bool:
    if not isinstance(model.hamiltonian, PiecewiseConstantHamiltonian):
        return True
    ends = model.hamiltonian.t_ends
    finite = ends[np.isfinite(ends)]
    inside = finite[(finite > t_grid[0]) & (finite < t_grid[-1])]
    return all(np.any(np.isclose(t_grid, b, atol=1e-12)) for b in inside)


TRACE_DRIFT_LIMIT = 1e-8


def integrate_me(
    model: OpenSystemModel,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    stepper: str = "rk4",
) -> np.ndarray:
    """Integrate the unconditional master equation on a uniform grid.

    ``stepper`` is ``"rk4"`` (fixed-step, supports piecewise-constant
    Hamiltonian schedules) or ``"expm"`` (exact exponential propagator of the
    vectorized generator; schedule breakpoints must coincide with grid points).
    Raises :class:`StepSizeError` when the per-step trace drift exceeds
    ``TRACE_DRIFT_LIMIT``.
    """
    rho0 = ensure_density_matrix(np.asarray(rho0, dtype=complex), model.tolerances)
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_uniform_grid(t_grid)
    out = np.empty((t_grid.size,) + rho0.shape, dtype=complex)
    out[0] = rho0
    rho = rho0
    if stepper == "rk4":
        rhs, h_drive = _compiled_me_rhs(model)
        for i, t in enumerate(t_grid[:-1]):
            # H is piecewise constant: sample it at the step start for every
            # stage (exact when schedule breakpoints sit on grid points)
            h = model.hamiltonian_at(t)
            if h_drive is not None:
                h = h + h_drive
            new = rk4_step(lambda r: rhs(r, h), rho, dt)
            drift = abs(trace(new) - trace(rho))
            # not (drift <= limit): a NaN drift fails too
            if not drift <= TRACE_DRIFT_LIMIT:
                raise StepSizeError(
                    f"trace drift {drift:.3e} at step {i} exceeds {TRACE_DRIFT_LIMIT:g}; "
                    f"reduce dt"
                )
            rho = new
            out[i + 1] = rho
    elif stepper == "expm":
        if not _segment_aligned(model, t_grid):
            raise ValueError(
                "expm stepper needs Hamiltonian schedule breakpoints on grid points"
            )
        vec = rho.reshape(-1)
        for i, t in enumerate(t_grid[:-1]):
            prop = _propagator(model, dt, t)
            new_vec = prop @ vec
            new = new_vec.reshape(rho0.shape)
            drift = abs(trace(new) - trace(rho))
            if drift > TRACE_DRIFT_LIMIT:
                raise StepSizeError(
                    f"trace drift {drift:.3e} at step {i} exceeds {TRACE_DRIFT_LIMIT:g}"
                )
            vec = new_vec
            rho = new
            out[i + 1] = rho
    else:
        raise ValueError(f"unknown stepper {stepper!r} (use 'rk4' or 'expm')")
    return out


def me_expectations(
    model: OpenSystemModel,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    observables,
    stepper: str = "rk4",
) -> dict[str, np.ndarray]:
    """Integrate the master equation and return real expectation values per time,
    keyed by observable name.  ``observables`` is a sequence of (name, operator)."""
    states = integrate_me(model, rho0, t_grid, stepper=stepper)
    out = {}
    for name, op in observables:
        vals = np.einsum("tij,ji->t", states, np.asarray(op, dtype=complex))
        out[name] = vals.real
    return out


def steady_state(model: OpenSystemModel) -> np.ndarray:
    """Steady state of the generator: the (unique, for our models) eigenvector of
    L with eigenvalue closest to zero, reshaped and normalized."""
    lmat = liouvillian_matrix(model)
    vals, vecs = np.linalg.eig(lmat)
    idx = int(np.argmin(np.abs(vals)))
    d = model.dim
    rho = vecs[:, idx].reshape(d, d)
    rho = 0.5 * (rho + dagger(rho))
    return rho / trace(rho).real
