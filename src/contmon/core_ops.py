"""Dense complex operator algebra, the two superoperators used everywhere, and
:func:`expm`, the one matrix exponential: the ``expm`` master-equation
propagators and the Gaussian covariance and mean propagators all take it.

Conventions
-----------
* Qubit basis order is ``(|e>, |g>)`` so ``sigma_minus = |g><e|`` is the
  lowering operator and the excited-state population sits at entry (0, 0).
* Bosonic operators act on a caller-chosen truncated Fock space with
  ``a[n-1, n] = sqrt(n)``; the quadratures ``q = (a + a^dag)/sqrt(2)`` and
  ``p = -i(a - a^dag)/sqrt(2)`` satisfy ``[q, p] = i`` away from the
  truncation edge.
* Everything is dense complex128.  State arguments broadcast over leading
  batch axes, i.e. a density matrix may have shape ``(..., d, d)``.

State validation applies four fixed tolerances: ``HERMITICITY_TOL`` (1e-10)
on max |rho - rho^dag|, ``TRACE_TOL`` (1e-9) on max |tr rho - 1|,
``POSITIVITY_TOL`` (1e-10) on the most negative eigenvalue, and
``TOP_POPULATION_TOL`` (1e-6) on the top Fock level's population, above
which a truncated mode leaks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "InvalidStateError",
    "StateDiagnostics",
    "dagger",
    "trace",
    "expectation",
    "dissipator",
    "measurement_superop",
    "build_standard_ops",
    "validate_state",
    "ensure_density_matrix",
    "is_hermitian",
    "hermitize",
    "min_eigenvalue",
    "hermitian_basis",
    "to_coords",
    "from_coords",
    "coords_trace",
    "coords_min_eigenvalue",
    "expm",
    "rk4_step",
]


HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-10
TOP_POPULATION_TOL = 1e-6


class DimensionMismatchError(ValueError):
    """Raised when operator/state shapes are incompatible."""


class InvalidStateError(ValueError):
    """Raised when a state violates its invariants beyond tolerance."""


def dagger(op: np.ndarray) -> np.ndarray:
    """Conjugate transpose, acting on the last two axes."""
    return np.conjugate(np.swapaxes(op, -1, -2))


def trace(mat: np.ndarray) -> np.ndarray:
    """Trace over the last two axes (complex)."""
    return np.einsum("...ii", mat)


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Hermitian part (mat + mat^dag)/2, as a fresh C-contiguous array.

    mat^dag is written in C order and the sum formed in it, so the result is
    one new array.  Left to numpy, ``mat + dagger(mat)`` reuses the
    ``dagger`` temporary of a large batch and comes out with every matrix
    transposed.
    """
    mat = np.asarray(mat)
    out = np.conjugate(np.swapaxes(mat, -1, -2), order="C", dtype=np.result_type(mat, 0.5))
    out += mat
    out *= 0.5
    return out


def _check_square(op: np.ndarray, name: str = "operator") -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.ndim < 2 or op.shape[-1] != op.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {op.shape}")
    if not np.all(np.isfinite(op)):
        raise InvalidStateError(f"{name} contains non-finite entries")
    return op


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )


def expectation(rho: np.ndarray, op: np.ndarray):
    """Expectation value Tr[rho op].

    Returns a complex scalar (real within 1e-12 when ``op`` is Hermitian and
    ``rho`` is a valid state), or an array of them for batched ``rho``.
    """
    rho = _check_square(rho, "state")
    op = _check_square(op)
    _check_same_dim(rho, op)
    out = np.einsum("...ij,ji->...", rho, op)
    return complex(out) if out.ndim == 0 else out


# Largest state dimension at which the step kernels are (d^2, d^2) real maps on
# coherence coordinates (see below): one real GEMM over the whole batch
# replaces a complex right product per operator, with its transposing copies
# and per-row sums.  A map costs about d times the flops of a (d, d) product,
# so above it the kernels use right products of the C-contiguous state only
# (see contmon.jump).  Coordinate time over right-product time for a driven,
# decaying mode (the boson-d12 documents coherent_drive and fock3_jump with
# dim varied, 1 BLAS thread, 1024 trajectories x 60 steps, median of 3; a
# second set read within 0.13 of these):
#
#     family                        d = 5     6     8    12    16    20
#     Euler homodyne                  0.40  0.38  0.42  0.57  0.66  1.07
#     jump                            0.50  0.48  0.52  0.67  0.88  1.16
#
# Neither family is slower up to d = 16.  The bound stays at 12, the largest
# d a benchmark workload runs, so a higher bound would go unmeasured.
BATCH_GEMM_MAX_DIM = 12

# Largest state dimension at which the two diffusive Kraus kinds
# (homodyne_kraus, linear_homodyne_kraus) step coordinates; above it they keep
# right products (see contmon.diffusive).  Their maps drift 1e-13 to 2e-13
# (relative) from the literal sandwich over 10^3 steps at every d from 3 to 12,
# against under 1e-14 for right products; at d = 6 the unnormalized linear
# state grows to entries of 7.4, and its drift passes 1e-12 absolute.
# Lowered, they took 0.84x / 0.90x / 1.01x their right-product time at
# d = 5 / 8 / 12.  4 is the bound every kind shared before it was raised;
# d = 5 was not checked against the literal sandwich.  A homodyne_kraus run
# from a pure state at unit efficiency steps state vectors at every d and
# never reaches this bound: only mixed starts, efficiencies below 1 and the
# linear kind do.
KRAUS_COORDS_MAX_DIM = 4

# The most each per-chunk buffer holds: every ensemble kind's statistics, the
# Gaussian mean steps, and the powers of a Gaussian covariance propagator.
# Freeing a buffer raises glibc's dynamic mmap threshold to its size, so
# buffers this small leave later multi-megabyte arrays as they were.
CHUNK_BUFFER_BYTES = 2**19


def dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Dissipation superoperator  A rho A^dag - {A^dag A, rho}/2.

    The output is traceless and Hermiticity-preserving, and invariant under
    ``op -> op * exp(i theta)``.
    """
    op = _check_square(op)
    rho = _check_square(rho, "state")
    _check_same_dim(op, rho)
    ad = dagger(op)
    ada = ad @ op
    return op @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def measurement_superop(op: np.ndarray, rho: np.ndarray, *, check_trace: bool = True) -> np.ndarray:
    """Measurement superoperator  A rho + rho A^dag - <A + A^dag> rho.

    The expectation value makes this nonlinear in ``rho``; it is only the
    correct conditional-update ingredient for unit-trace states, which is
    enforced unless ``check_trace`` is disabled (useful for formal algebra).
    """
    op = _check_square(op)
    rho = _check_square(rho, "state")
    _check_same_dim(op, rho)
    tr = trace(rho)
    if check_trace and np.max(np.abs(tr - 1.0)) > TRACE_TOL:
        raise InvalidStateError(
            f"measurement superoperator needs a normalized state; max |tr-1| = "
            f"{np.max(np.abs(tr - 1.0)):.3e}"
        )
    herm = op + dagger(op)
    ex = np.einsum("...ij,ji->...", rho, herm)
    return op @ rho + rho @ dagger(op) - np.asarray(ex)[..., None, None] * rho


def build_standard_ops(kind: str, dim: int | None = None) -> dict[str, np.ndarray]:
    """Canonical operator set for a qubit or a truncated bosonic mode.

    ``kind="qubit"`` returns sigma_minus/plus, the Paulis and the level
    projectors in the (|e>, |g>) ordering.  ``kind="boson"`` needs ``dim >= 2``
    and returns the ladder operators, the number operator and the quadratures.
    """
    if kind == "qubit":
        sm = np.array([[0, 0], [1, 0]], dtype=complex)
        sp = sm.conj().T
        ops = {
            "identity": np.eye(2, dtype=complex),
            "sigma_minus": sm,
            "sigma_plus": sp,
            "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
            "sigma_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "sigma_z": np.array([[1, 0], [0, -1]], dtype=complex),
            "projector_e": np.diag([1.0, 0.0]).astype(complex),
            "projector_g": np.diag([0.0, 1.0]).astype(complex),
        }
        return ops
    if kind == "boson":
        if dim is None or dim < 2:
            raise ValueError("bosonic operator set needs dim >= 2")
        a = np.zeros((dim, dim), dtype=complex)
        ns = np.arange(1, dim)
        a[ns - 1, ns] = np.sqrt(ns)
        ad = a.conj().T
        q = (a + ad) / np.sqrt(2.0)
        p = -1j * (a - ad) / np.sqrt(2.0)
        return {
            "identity": np.eye(dim, dtype=complex),
            "a": a,
            "a_dag": ad,
            "n": np.diag(np.arange(dim, dtype=float)).astype(complex),
            "q": q,
            "p": p,
        }
    raise ValueError(f"unknown operator set kind: {kind!r}")


def min_eigenvalue(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of Hermitian matrices, batched: the closed form of
    :func:`coords_min_eigenvalue` for 2x2 matrices (cheap enough to run every
    step) and ``eigvalsh`` otherwise, which reads the lower triangle only.
    Every stepper's states are Hermitian to the bit; a caller that holds
    other matrices passes their :func:`hermitize` (as :func:`validate_state`
    does)."""
    rho = np.asarray(rho)
    if rho.shape[-1] == 2:
        return coords_min_eigenvalue(to_coords(rho))
    return np.linalg.eigvalsh(rho)[..., 0]


# Coherence coordinates: the real components r_a = tr(G_a rho) of a state in
# an orthonormal Hermitian basis, on which a Hermiticity-preserving map is a
# real matrix.  The populations |j><j| come first, so tr rho = r_0 + ... +
# r_{d-1} and a small population keeps its relative precision (with I/sqrt(d)
# and traceless diagonals, rounding broke Kraus positivity by ~1e-11).


@lru_cache(maxsize=None)
def hermitian_basis(dim: int) -> np.ndarray:
    """The (d^2, d, d) basis of the coordinates: the d populations |j><j|,
    then per pair j < k the symmetric and the antisymmetric generalized
    Gell-Mann matrix over sqrt(2) (Bertlmann & Krammer, J. Phys. A 41, 235303
    (2008)); at d = 2, (|0><0|, |1><1|, X/sqrt(2), Y/sqrt(2))."""
    basis = [np.diag(e) for e in np.eye(dim, dtype=complex)]
    for j, k in itertools.combinations(range(dim), 2):
        for upper in (1.0, -1j):
            g = np.zeros((dim, dim), dtype=complex)
            g[j, k], g[k, j] = upper / np.sqrt(2.0), np.conj(upper) / np.sqrt(2.0)
            basis.append(g)
    out = np.array(basis)
    out.flags.writeable = False
    return out


def to_coords(rho: np.ndarray) -> np.ndarray:
    """Coordinates (d^2, ...) of the Hermitian part of the states (..., d, d):
    one real GEMM by the rows (Re, Im interleaved) of vec(G_a)."""
    rho = np.ascontiguousarray(rho, dtype=complex)
    d = rho.shape[-1]
    rows = hermitian_basis(d).reshape(d * d, -1).view(float)
    return (rows @ rho.view(float).reshape(-1, 2 * d * d).T).reshape((d * d,) + rho.shape[:-2])


def from_coords(r: np.ndarray) -> np.ndarray:
    """The states (..., d, d) of the coordinates (d^2, ...): one real GEMM."""
    d = math.isqrt(len(r))
    flat = r.reshape(d * d, -1)
    out = np.empty((flat.shape[1], d, d), dtype=complex)
    rows = hermitian_basis(d).reshape(d * d, -1).view(float)
    np.matmul(flat.T, rows, out=out.view(float).reshape(len(out), -1))
    return out.reshape(r.shape[1:] + (d, d))


def coords_trace(r: np.ndarray) -> np.ndarray:
    """tr rho of the coordinates (d^2, ...), the sum of the d populations."""
    return r[: math.isqrt(len(r))].sum(axis=0)


def coords_min_eigenvalue(r: np.ndarray) -> np.ndarray:
    """:func:`min_eigenvalue` of the coordinates (d^2, ...); the closed form
    (r_0 + r_1)/2 - sqrt((r_0 - r_1)^2/4 + (r_2^2 + r_3^2)/2) at d = 2."""
    if len(r) != 4:
        return min_eigenvalue(from_coords(r))
    half_diff = 0.5 * (r[0] - r[1])
    return 0.5 * (r[0] + r[1]) - np.sqrt(half_diff**2 + 0.5 * (r[2] ** 2 + r[3] ** 2))


@dataclass(frozen=True)
class StateDiagnostics:
    """Defect report from :func:`validate_state` (diagnostic, never raises)."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    top_population: float

    def defects(self) -> list[str]:
        """A message for each tolerance the state breaks, in the order
        Hermiticity, trace, positivity; a NaN breaks its tolerance."""
        herm, tr, w_min = self.hermiticity_defect, self.trace_defect, self.min_eigenvalue
        checks = (("hermiticity defect", herm, herm <= HERMITICITY_TOL),
                  ("trace defect", tr, tr <= TRACE_TOL),
                  ("min eigenvalue", w_min, w_min >= -POSITIVITY_TOL))
        return [f"{name} {value:.3e}" for name, value, ok in checks if not ok]

    def is_physical(self) -> bool:
        return not self.defects()

    def truncation_leak(self) -> bool:
        """True when the top Fock level holds suspicious population."""
        return self.top_population > TOP_POPULATION_TOL


def validate_state(rho: np.ndarray) -> StateDiagnostics:
    """Report Hermiticity/trace defects, the minimum eigenvalue of the
    Hermitian part (any matrix is accepted, so it hermitizes before the
    eigensolve) and top-level leak; the caller applies thresholds to the
    report."""
    rho = _check_square(rho, "state")
    herm_defect = float(np.max(np.abs(rho - dagger(rho))))
    tr_defect = float(np.max(np.abs(trace(rho) - 1.0)))
    w_min = float(np.min(min_eigenvalue(hermitize(rho))))
    top = float(np.max(rho[..., -1, -1].real))
    return StateDiagnostics(herm_defect, tr_defect, w_min, top)


def ensure_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix, raising :class:`InvalidStateError` on defects."""
    rho = _check_square(rho, "state")
    problems = validate_state(rho).defects()
    if problems:
        raise InvalidStateError("state is not a valid density matrix: " + "; ".join(problems))
    return rho


def is_hermitian(op: np.ndarray) -> bool:
    op = np.asarray(op, dtype=complex)
    return bool(np.max(np.abs(op - dagger(op))) <= HERMITICITY_TOL)


# Diagonal Pade [m/m] approximants of e^A: per degree m, the largest |A|_1 at
# which its error stays below the unit roundoff, and the coefficients b_0 ...
# b_m (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), table 2.3, eq. 2.1).
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def expm(a: np.ndarray) -> np.ndarray:
    """e^A of a square matrix, by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179 (2005), algorithm 2.3).

    The lowest Pade degree m in 3, 5, 7, 9 whose threshold bounds |A|_1 serves
    directly; otherwise degree 13 on A / 2^s, with s the fewest halvings to its
    threshold, squared s times.  With U and V the odd and even parts of the
    numerator, the approximant is formed as I + 2 (V - U)^-1 U, which keeps
    the relative precision of e^A - I when |A| is small (a covariance
    propagator raised to 10^5 powers needs it).  Real input gives a real
    result; a non-finite entry gives a matrix of NaN.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float), copy=False)
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    degree = next((m for m in (3, 5, 7, 9) if norm <= _PADE[m][0]), 13)
    squarings = max(0, math.ceil(math.log2(norm / _PADE[13][0]))) if degree == 13 else 0
    a = a / 2.0**squarings
    b = _PADE[degree][1]
    eye = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    if degree == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]  # A^0, A^2, ..., A^(degree - 1)
        while len(powers) <= degree // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * pk for k, pk in enumerate(powers))
        v = sum(b[2 * k] * pk for k, pk in enumerate(powers))
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(squarings):
        r = r @ r
    return r


def rk4_step(f, y, dt: float):
    """One classical Runge-Kutta step of y' = f(y); f is called 4 times."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
