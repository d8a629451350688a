"""Photodetection (jump) trajectories: the nonlinear SME, the pure-state SSE,
linear trajectories with ostensible weights, the two-operator Kraus stepper,
and photodetection feedback.

All steppers operate on a single monitored channel of a vacuum-bath model and
broadcast over leading batch axes of the state.  They are deterministic given
the click outcome, which the caller samples with :func:`jump_probability` and
:func:`click_outcomes` or supplies, as the linear (ostensible-probability)
machinery does.  Per-model operator products are cached in
``master_equation.model_cache``, so repeated stepping costs only the batched
state arithmetic.

Click kernels: for a fixed (model, kind, dt) the density-matrix click kinds are
linear in rho except for the scalar <c^dag c>, and :func:`click_kernel`
compiles one step, stated once in the half form of the kernel section below:
right products of the ``(B d, d)`` view, which allocate no (B, d, d) array
when the caller keeps its work buffers.  At d <= ``BATCH_GEMM_MAX_DIM``,
where one real GEMM costs less than the right products, the kernel also
carries that step lowered to real matrices on the (d^2, B) coordinates of a
state batch (``core_ops.to_coords``): one GEMM takes the batch to its
no-click images and <c^dag c>, and a second takes the clicked states alone
to their click images.  At unit efficiency, where a pure state stays pure,
the ``jump_kraus`` kernel also carries ``vector``, its step on state
vectors: psi -> M0 psi / |M0 psi| or c psi / |c psi|, one real GEMM on a
(2d, B) block of [Re psi; Im psi] columns.  :func:`click_kernel_step` runs
every form, and the ensemble runs every click kind through it.  The
density-matrix steppers (the ``*_apply`` functions and
:func:`linear_jump_step`) are the same kernels, stepping a copy of their
input for the supplied outcome, and :func:`jump_sse_apply`, the per-state
SSE, is the vector step of ``jump_kraus``.  The compiled kernels of both
families live in the per-model operator cache under ``("kernel", kind, dt,
...)`` keys, which only :func:`_cached_kernel` reads and writes.

Preconditions: ``NEEDS`` states, once for every Hilbert-space kind of both
families and for the per-state SSE, the conditions its step is derived under
(Wiseman & Milburn, *Quantum Measurement and Control*, ch. 4-5), each row
with the document path and named rule that report it.  :func:`unmet_needs`
is the one predicate over plain values (the bath, the efficiency, the LO
phase, beta, whether an F is given): :func:`check_needs` reads it for the
kernel compilers, the per-state steppers and ``ensemble.Scenario``, and the
configuration's rule pass for a document, before any operator is built.  The
SSE's needs, unit efficiency and a vacuum bath, are also where a Kraus
kernel keeps its ``vector`` form (:func:`_cached_kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core_ops import (
    BATCH_GEMM_MAX_DIM,
    coords_trace,
    dagger,
    from_coords,
    hermitian_basis,
    is_hermitian,
    to_coords,
    trace,
)
from .master_equation import OpenSystemModel, StepSizeError, _sandwich, model_cache

__all__ = [
    "WeightedState",
    "DarkStateJumpError",
    "jump_probability",
    "click_outcomes",
    "jump_sme_apply",
    "jump_sse_apply",
    "linear_jump_step",
    "jump_kraus_apply",
    "jump_feedback_apply",
    "ClickKernel",
    "click_kernel",
    "click_kernel_step",
    "NEEDS",
    "unmet_needs",
    "check_needs",
]

DARK_STATE_RATE = 1e-14
JUMP_PROBABILITY_LIMIT = 0.1


class DarkStateJumpError(RuntimeError):
    """A click was forced on a state the collapse operator annihilates."""


@dataclass(frozen=True)
class WeightedState:
    """Unnormalized conditional state of a linear trajectory.

    The trace carries the likelihood reweighting: p_true = p_ost * Tr[rho_bar].
    """

    rho_bar: np.ndarray

    @property
    def weight(self):
        return np.real(trace(self.rho_bar))

    @property
    def log_weight(self):
        return np.log(self.weight)

    @property
    def normalized(self) -> np.ndarray:
        return self.rho_bar / np.asarray(self.weight)[..., None, None]


def _ctx(model: OpenSystemModel) -> dict:
    """Cached per-model operator products of the monitored channel, shared by
    the jump and the diffusive steppers.  The entries live in the model's one
    operator cache, ``master_equation.model_cache``, next to what the
    steppers add there on demand (kernels, Kraus operators) and the ``expm``
    stepper's propagators.  ``ceff`` is c e^{i theta} for the
    local-oscillator phase theta."""
    ctx = model_cache(model)
    if "c" not in ctx:
        kappa, c = model.single_channel()
        theta = model.homodyne_phase
        ceff = c if theta == 0.0 else c * np.exp(1j * theta)
        cd = np.ascontiguousarray(dagger(c))
        ceff_d = np.ascontiguousarray(dagger(ceff))
        ctx.update({
            "kappa": kappa,
            "c": c,
            "cd": cd,
            "cdc": cd @ c,
            "ceff": ceff,
            "ceff_d": ceff_d,
            "herm": ceff + ceff_d,
            "herm_i": 1j * ceff + dagger(1j * ceff),
            "root": np.sqrt(model.efficiency * kappa),
            "h": model.hamiltonian,
            "eye": np.eye(model.dim, dtype=complex),
        })
    return ctx


# NEEDS rows (need, path, rule, message): a condition the kind's step is
# derived under, and the document field, named rule and message that report
# it unmet
_JUMP_VACUUM = ("vacuum_bath", "unravelling.kind", "jump_vacuum_bath",
                "jump unravelling is defined for vacuum baths only")
_FEEDBACK = ("feedback_operator", "feedback.operator", "feedback_operator",
             "{kind} needs a feedback_operator: the Hermitian feedback operator F")
# the measured operators of a generalized bath are built from the bare c, so at
# theta != 0 the record would read another quadrature than the back-action uses
_GENERALIZED = (
    ("unit_efficiency", "model.efficiency", "generalized_bath_unit_efficiency",
     "generalized-bath steppers are derived for unit efficiency"),
    ("zero_phase", "model.homodyne_phase", "generalized_bath_homodyne_phase",
     "generalized-bath steppers are derived for homodyne_phase = 0"))

NEEDS = {
    **dict.fromkeys(("jump", "jump_kraus"), (_JUMP_VACUUM,)),
    "jump_feedback": (_JUMP_VACUUM, _FEEDBACK, ("unit_efficiency", "model.efficiency",
                      "jump_feedback_unit_efficiency", "jump feedback requires unit efficiency")),
    "jump_sse": (("unit_efficiency", "model.efficiency", "sse_unit_efficiency",
                  "the SSE is defined for unit detection efficiency"), _JUMP_VACUUM),
    "linear_jump": (_JUMP_VACUUM, ("beta", "unravelling.beta", "ostensible_rate_positive",
                                   "ostensible rate beta must be > 0"),
                    ("unit_efficiency", "model.efficiency", "linear_unit_efficiency",
                     "linear jump trajectories assume unit efficiency")),
    # a document selects these kinds on a vacuum bath only
    **dict.fromkeys(("homodyne", "homodyne_kraus", "heterodyne", "linear_homodyne_kraus"), (
        ("vacuum_bath", "model.bath", "vacuum_bath_stepper",
         "vacuum-bath stepper; use generalized_bath_homodyne_step"),)),
    "homodyne_feedback": (_FEEDBACK,
                          ("efficiency", "model.efficiency", "homodyne_feedback_efficiency",
                           "homodyne feedback needs efficiency in (0, 1]"),
                          ("vacuum_bath", "feedback.kind", "feedback_vacuum_bath",
                           "feedback steppers are defined for vacuum baths")),
    "linear_homodyne": (("unit_efficiency", "model.efficiency", "linear_unit_efficiency",
                         "linear homodyne trajectories assume unit efficiency"),
                        ("vacuum_bath", "unravelling.linear", "linear_vacuum_bath",
                         "linear trajectories are defined for vacuum baths")),
    "generalized_homodyne": (*_GENERALIZED, (
        "real_squeezing", "model.bath.squeezing", "homodyne_real_squeezing",
        "homodyne current scale is defined for real squeezing M only")),
    "generalized_heterodyne": (*_GENERALIZED, (
        "thermal_bath", "unravelling.kind", "heterodyne_thermal_only",
        "generalized heterodyne stepping is defined for thermal baths (M = 0)")),
}


def unmet_needs(kind: str, bath, efficiency: float, homodyne_phase: float, beta: float = 1.0,
                has_f: bool = False) -> list:
    """The rows of ``NEEDS[kind]``, in table order, that a model of the bath
    ``bath``, the detection ``efficiency`` and the local-oscillator phase
    ``homodyne_phase`` leaves unmet, with the ostensible rate ``beta`` and a
    feedback operator F given or not (``has_f``).  A kind without an entry
    needs nothing."""
    met = dict(vacuum_bath=bath.is_vacuum, unit_efficiency=efficiency == 1.0,
               efficiency=efficiency > 0.0, feedback_operator=has_f, beta=beta > 0,  # NaN fails
               zero_phase=homodyne_phase == 0.0, thermal_bath=bath.squeezing == 0,
               real_squeezing=complex(bath.squeezing).imag == 0.0)
    return [row for row in NEEDS.get(kind, ()) if not met[row[0]]]


def check_needs(kind: str, model, f_op=None, beta: float = 1.0) -> None:
    """Raise a ValueError naming every need of ``kind`` (:func:`unmet_needs`)
    that the model, the Hermitian feedback operator ``f_op`` and the
    ostensible rate ``beta`` leave unmet."""
    unmet = kind in NEEDS and unmet_needs(kind, model.bath, model.efficiency, model.homodyne_phase,
                                          beta, f_op is not None and is_hermitian(f_op))
    if unmet:
        raise ValueError("; ".join(message.format(kind=kind) for *_, message in unmet))


def _no_click_kraus(ctx, dt: float):
    """Cached M0 = 1 - iH dt - (kappa/2) c^dag c dt and M0^dag."""
    key = ("m0", dt)
    pair = ctx.get(key)
    if pair is None:
        m0 = ctx["eye"] - 1j * ctx["h"] * dt - (ctx["kappa"] / 2.0) * ctx["cdc"] * dt
        pair = ctx[key] = (m0, np.ascontiguousarray(dagger(m0)))
    return pair


def jump_probability(rho: np.ndarray, model: OpenSystemModel, dt: float):
    """Click probability eta kappa <c^dag c> dt for the coming step."""
    check_needs("jump", model)
    ctx = _ctx(model)
    ex = np.einsum("...ij,ji->...", rho, ctx["cdc"]).real
    return model.efficiency * ctx["kappa"] * ex * dt


def click_outcomes(p, u):
    """Click outcomes dN = [u < p] for the click probability ``p`` of the
    coming step, one float or one per state, and its uniform variates ``u``;
    a NaN probability fails the step-size check too."""
    pmax = p if isinstance(p, float) else float(np.max(p))
    if not pmax < JUMP_PROBABILITY_LIMIT:
        raise StepSizeError(f"jump probability per step {pmax:.3g} is not below "
                            f"{JUMP_PROBABILITY_LIMIT}; reduce dt")
    return u < p


def jump_sme_apply(rho: np.ndarray, model: OpenSystemModel, dt: float, dn) -> np.ndarray:
    """Deterministic photodetection SME update for a given click outcome.

    No click: Euler step of
        -i[H, rho] dt - (eta kappa / 2) H[c^dag c] rho dt + (1-eta) kappa D[c] rho dt.
    Click: rho -> c rho c^dag / <c^dag c> (dt * dN cross terms dropped).
    """
    return _click_apply(click_kernel(model, "jump", dt), rho, dn)


def jump_sse_apply(psi: np.ndarray, model: OpenSystemModel, dt: float, dn) -> np.ndarray:
    """Stochastic Schroedinger equation update (perfect detection only): the
    per-state form of the vector step of the ``jump_kraus`` kernel, for the
    given outcome.

    No click: psi -> M0 psi / ||M0 psi|| with M0 = 1 - iH dt - (kappa/2) c^dag c dt.
    Click: psi -> c psi / ||c psi||.
    """
    check_needs("jump_sse", model)
    kernel = replace(click_kernel(model, "jump_kraus", dt), maps=None)
    batch, shape = _as_batch(np.asarray(psi)[..., None], np.shape(dn))  # (B, d, 1)
    y, rate = _click_read(kernel, np.vstack([batch.real[..., 0].T, batch.imag[..., 0].T]), None)
    re, im = np.split(_click_update(kernel, y, rate, np.broadcast_to(dn, shape).ravel()), 2)
    return (re + 1j * im).T.reshape(shape + re.shape[:1])


def linear_jump_step(
    state: WeightedState,
    model: OpenSystemModel,
    dt: float,
    dn,
    beta: float,
) -> WeightedState:
    """Linear photodetection SME step with ostensible rate beta > 0.

    No click: rho_bar += (-i[H, rho_bar] - (kappa/2){c^dag c, rho_bar}
    + beta kappa rho_bar) dt; click: rho_bar -> c rho_bar c^dag / beta.  The
    click outcome is supplied externally, sampled from the ostensible law
    P(dN=1) = eta kappa beta dt.  Requires unit efficiency (the form the
    linear-trajectory theory is stated for).
    """
    kernel = click_kernel(model, "linear_jump", dt, beta=beta)
    return WeightedState(_click_apply(kernel, state.rho_bar, dn))


def jump_kraus_apply(rho: np.ndarray, model: OpenSystemModel, dt: float, dn) -> np.ndarray:
    """Two-operator Kraus update, positive for any dt.

    No click applies M0 = 1 - iH dt - (kappa/2) c^dag c dt with the undetected
    decay folded in as the sandwich kappa (1-eta) c rho c^dag dt; a click
    applies M1 = sqrt(eta kappa dt) c.  Both branches renormalize.
    """
    return _click_apply(click_kernel(model, "jump_kraus", dt), rho, dn)


def feedback_unitary(f_op: np.ndarray) -> np.ndarray:
    """exp(-i F) for a Hermitian feedback generator F, as V e^{-i lambda} V^dag
    from its eigendecomposition F = V lambda V^dag."""
    f_op = np.asarray(f_op, dtype=complex)
    if not is_hermitian(f_op):
        raise ValueError("feedback operator must be Hermitian")
    lam, vecs = np.linalg.eigh(f_op)
    return (vecs * np.exp(-1j * lam)) @ dagger(vecs)


def jump_feedback_apply(
    rho: np.ndarray, model: OpenSystemModel, f_op: np.ndarray, dt: float, dn
) -> np.ndarray:
    """Photodetection feedback update: the unitary exp(-iF) acts right after a
    click, replacing the jump branch by (e^{-iF} c) rho (e^{-iF} c)^dag / <c^dag c>.
    The no-click branch is the eta = 1 SME branch (the only case derived)."""
    return _click_apply(click_kernel(model, "jump_feedback", dt, f_op=f_op), rho, dn)


# ---------------------------------------------------------------- kernels
# A kernel states its step once, in the half form of the right-product
# section below, and runs it there above BATCH_GEMM_MAX_DIM; the diffusive
# Kraus kinds run it there above KRAUS_COORDS_MAX_DIM (see contmon.core_ops).
# Up to those bounds it also carries ``maps``, the same step lowered to the
# coordinates: the (d^2, d^2) superoperator S of each of its terms (row-major
# vec, so vec(A rho B) = (A kron B^T) vec(rho), and W + W^dag takes a term
# A rho B of W to A rho B + B^dag rho A^dag) and one row vec(A^T) per
# expectation tr(rho A), each taken once to the coordinates r of
# ``core_ops``, vec(rho) = U r: U^H S U and vec(A^T) U, real for
# Hermiticity-preserving S and Hermitian A, stacked row-wise.  That step is
# one real GEMM of the matrix against the (d^2, B) coordinates, so that every
# image and every expectation is a contiguous row over the batch and the
# per-trajectory scalars broadcast along it.  A complex (B, d, d) batch is
# converted at entry and exit.  The Kraus kinds' ``vector`` acts on state
# vectors the same way: a Kraus step takes psi psi^dag to M psi (M psi)^dag,
# so with psi as the real column [Re psi; Im psi] each operator M is one real
# 2d x 2d block, and a step is one GEMM of the stacked blocks against the
# (2d, B) block, plus column sums for the rates or currents and the norms.


def _half_map(a, b):
    """The superoperator of rho -> W + W^dag for W = a rho b and Hermitian rho."""
    return _sandwich(a, b) + _sandwich(dagger(b), dagger(a))


def _kernel_matrix(maps, rows=()):
    """The superoperators ``maps`` and the expectation rows vec(A^T) ``rows``
    on the coordinates, stacked."""
    n = len(maps[0])
    u = hermitian_basis(int(round(np.sqrt(n)))).reshape(n, n).T
    mat = np.vstack([u.conj().T @ s @ u for s in maps] + [np.reshape(r, (1, n)) @ u for r in rows])
    assert np.max(np.abs(mat.imag)) <= 1e-14 * max(1.0, np.max(np.abs(mat.real)))
    return np.ascontiguousarray(mat.real)


def _real(*ops):
    """The real 2d x 2d blocks [[Re A, -Im A], [Im A, Re A]] of the (d, d)
    operators ``ops``, stacked: each takes [Re psi; Im psi] to [Re A psi; Im A psi]."""
    return np.vstack([np.block([[a.real, -a.imag], [a.imag, a.real]]) for a in ops])


def _dots(a, b=None):
    """The dot product of each column of ``a`` with itself, or with that of ``b``."""
    return np.einsum("ib,ib->b", a, a if b is None else b)


def _coords_out(z, linear, batch):
    """The step's result: its images ``z`` divided in place by their traces
    unless the kind is linear, as (B, d, d) states if it took a ``batch``."""
    if not linear:
        z /= coords_trace(z)
    return from_coords(z) if batch else z


@dataclass(frozen=True, eq=False)
class ClickKernel:
    """One compiled click step for a fixed (model, kind, dt).

    No click: W = ``no_click`` + ``rate_gain`` <c^dag c> rho, with <c^dag c>
    read by one GEMV of the ``rate_row`` vec((c^dag c)^T).  A click replaces W
    by ``click_scale`` J rho J^dag for the jump operator J (``jump_d`` =
    J^dag), on the clicked rows only.  The click probability is ``p_click``
    <c^dag c>, or the constant ``p_click`` for ``linear`` kinds, which carry no
    rate row and are not renormalized.

    ``maps`` (d <= ``BATCH_GEMM_MAX_DIM`` only) is this step lowered to the
    coordinates, in two parts: a head of d^2 + 1 rows, the map of the
    no-click W + W^dag and the rate row (d^2 rows, without the rate row, for
    linear kinds), then the d^2 rows of the click's map.  The head is applied
    to every state, the click rows to the clicked states only.  The no-click
    image there is y0 + 2 ``rate_gain`` <c^dag c> r.

    ``vector`` (``jump_kraus`` at unit efficiency only, where a pure state
    stays pure) is the step on state vectors psi: the real blocks
    (:func:`_real`) of M0 and c, stacked, which take a real (2d, B) vector
    block to M0 psi and c psi in one GEMM, with <c^dag c> = |c psi|^2.  A
    kernel without ``maps`` steps a real block given to it as a vector block.
    """

    no_click: HalfForm
    jump_d: np.ndarray
    rate_row: np.ndarray | None
    p_click: float
    rate_gain: float
    click_scale: float
    maps: np.ndarray | None = None
    vector: np.ndarray | None = None

    @property
    def linear(self) -> bool:
        return self.rate_row is None


def click_kernel(
    model: OpenSystemModel, kind: str, dt: float, f_op=None, beta: float = 1.0
) -> ClickKernel:
    """The compiled step of the density-matrix click kind ``kind`` ("jump",
    "jump_kraus", "jump_feedback" or "linear_jump"), with its coordinate
    ``maps`` at d <= ``BATCH_GEMM_MAX_DIM``.  ``f_op`` is the feedback
    generator of "jump_feedback", ``beta`` the ostensible rate of
    "linear_jump"."""
    check_needs(kind, model, f_op, beta)
    return _cached_kernel(model, kind, dt, f_op, beta, _click_maps, _compile_click)


def _cached_kernel(model, kind, dt, f_op, param, lower, compile):
    """The kernel of ``kind`` cached under ``("kernel", kind, dt, F bytes or
    None, param)`` in the model's operator cache, for the feedback operator
    ``f_op`` and the kind's scalar ``param`` (beta or mu), compiled by
    ``compile(ctx, model, kind, dt, f_op, param)`` on a miss and, at d <=
    ``BATCH_GEMM_MAX_DIM``, given the coordinate ``maps`` ``lower(kernel,
    d)``, which is None where a kind keeps right products.  A compiled
    ``vector`` is kept only for a normalized kind where a Kraus step keeps a
    pure state pure: where the model meets the needs of the SSE, unit
    efficiency and a vacuum bath.  Every compiled kernel of both families is
    cached here."""
    ctx = _ctx(model)
    f_key = None if f_op is None else np.asarray(f_op, dtype=complex).tobytes()
    key = ("kernel", kind, dt, f_key, param)
    kernel = ctx.get(key)
    if kernel is None:
        kernel = compile(ctx, model, kind, dt, f_op, param)
        if kernel.linear or unmet_needs("jump_sse", model.bath, model.efficiency,
                                        model.homodyne_phase):
            kernel = replace(kernel, vector=None)
        if model.dim <= BATCH_GEMM_MAX_DIM:
            kernel = replace(kernel, maps=lower(kernel, model.dim))
        ctx[key] = kernel
    return kernel


def _compile_click(ctx, model, kind, dt, f_op, beta):
    kappa, cd, cdc = ctx["kappa"], ctx["cd"], ctx["cdc"]
    eta = model.efficiency
    if kind not in ("jump", "jump_kraus", "jump_feedback", "linear_jump"):
        raise ValueError(f"no click kernel for kind {kind!r}")
    jump_op = feedback_unitary(f_op) @ ctx["c"] if kind == "jump_feedback" else ctx["c"]
    undetected = [] if eta == 1.0 else [(cd, ((1.0 - eta) * kappa * dt) * cd)]
    if kind == "jump_kraus":
        # M0 rho M0^dag + (1 - eta) kappa dt c rho c^dag, renormalized
        m0_d = _no_click_kraus(ctx, dt)[1]
        no_click = HalfForm.build(None, [(m0_d, m0_d)] + undetected)
    else:
        # rho + dt (G rho + rho G^dag + (1 - eta) kappa c rho c^dag) with
        # G = -iH - (kappa/2) c^dag c, plus the per-row eta kappa <c^dag c> rho,
        # or beta kappa rho in R0 for linear kinds
        g_d = 1j * ctx["h"] - (0.5 * kappa) * cdc
        if kind == "linear_jump":
            g_d = g_d + (0.5 * beta * kappa) * ctx["eye"]
        no_click = HalfForm.build(0.5 * ctx["eye"] + dt * g_d,
                                  [(a_d, 0.5 * b) for a_d, b in undetected])
    jd = np.ascontiguousarray(dagger(jump_op))
    if kind == "linear_jump":
        return ClickKernel(no_click, jd, None, eta * kappa * beta * dt, 0.0, 0.5 / beta)
    rate_gain = 0.0 if kind == "jump_kraus" else 0.5 * eta * kappa * dt
    vector = _real(_no_click_kraus(ctx, dt)[0], ctx["c"]) if kind == "jump_kraus" else None
    return ClickKernel(no_click, jd, np.ascontiguousarray(cdc.T.ravel()),
                       eta * kappa * dt, rate_gain, 1.0, vector=vector)


def _click_maps(kernel: ClickKernel, d: int) -> np.ndarray:
    head = _kernel_matrix([kernel.no_click.superop(d)], () if kernel.linear else (kernel.rate_row,))
    click = (2.0 * kernel.click_scale) * _sandwich(dagger(kernel.jump_d), kernel.jump_d)
    return np.vstack([head, _kernel_matrix([click])])


def click_kernel_step(kernel, rho: np.ndarray, u, work: dict | None = None):
    """Advance a state batch by one step of a compiled click kernel on the
    step's uniforms ``u``; returns (rho', dN).  Applies the step-size check of
    :func:`click_outcomes` and the dark-state rule.  ``rho`` is the (d^2, B)
    coordinates of the batch at d <= ``BATCH_GEMM_MAX_DIM`` or a C-contiguous
    (B, d, d) batch, which is stepped through its coordinates there.

    A kernel without ``maps`` (d > ``BATCH_GEMM_MAX_DIM``) advances ``rho`` in
    place when the caller passes a ``work`` dict that it keeps for the batch,
    where the step's buffers then live, and a copy otherwise.  Given a real
    (2d, B) block, such a kernel steps it as state vectors by its ``vector``;
    the ensemble passes a vector block with ``maps`` taken off the kernel.
    """
    carry, rate = _click_read(kernel, rho, work)
    dn = click_outcomes(kernel.p_click if kernel.linear else kernel.p_click * rate, u)
    return _click_update(kernel, carry, rate, dn), dn


def _click_read(kernel, rho, work):
    """The first half of a click step: (carry, rate), the step's <c^dag c> per
    state (None for linear kinds) and what :func:`_click_update` continues
    from.  In coordinates this is one GEMM of the head of ``maps`` against
    the batch, (d^2 + 1) x d^2: the no-click image and the rate row (d^2 x
    d^2, the image alone, for linear kinds).  On a vector block it is one
    GEMM of ``vector``, (4d x 2d), and the rate |c psi|^2."""
    if kernel.maps is None and rho.dtype == float:
        y = kernel.vector @ rho
        return y, _dots(y[len(rho):])
    if kernel.maps is None:
        rho, bufs = _right_work(rho, work)
        rate = None if kernel.linear else (rho.reshape(len(rho), -1) @ kernel.rate_row).real
        return (rho, bufs), rate
    batch = rho.ndim == 3
    x = to_coords(rho) if batch else rho
    n = len(x)
    y = kernel.maps[: len(kernel.maps) - n] @ x
    return (x, y, batch), None if kernel.linear else y[n]


def _click_update(kernel, carry, rate, dn):
    """The second half of a click step: the states after the outcomes ``dn``;
    raises on a click from a dark state.  In coordinates the no-click image
    of :func:`_click_read` is finished in place, and the clicked columns are
    overwritten by one GEMM of the click rows of ``maps`` against those
    columns alone.  On a vector block the clicked columns take c psi, and
    every column is divided by its norm."""
    rows = dn.ravel().nonzero()[0]  # np.flatnonzero, without its dispatch cost at d = 2
    if rate is not None and len(rows) and np.any(rate[rows] < DARK_STATE_RATE):
        raise DarkStateJumpError("cannot jump from a dark state (<c^dag c> ~ 0)")
    if not isinstance(carry, tuple):  # the images of a vector block
        n = len(carry) // 2
        carry[:n, rows] = carry[n:, rows]  # c psi in the clicked columns, M0 psi elsewhere
        return carry[:n] / np.sqrt(_dots(carry[:n]))
    if kernel.maps is None:
        return _click_right_update(kernel, *carry, rate, rows)
    x, y, batch = carry
    n = len(x)
    z = y[:n]
    if kernel.rate_gain:
        z += (2.0 * kernel.rate_gain * rate) * x
    if len(rows):
        z[:, rows] = kernel.maps[-n:] @ x[:, rows]
    return _coords_out(z, kernel.linear, batch)


def _as_batch(rho, lead):
    """``rho`` (one state or a batch of them) broadcast against the leading
    shape ``lead`` of a step's outcomes or increments, as a C-contiguous
    (B, d, d) array, and the broadcast leading shape."""
    rho = np.asarray(rho, dtype=complex)
    shape = np.broadcast_shapes(rho.shape[:-2], lead)
    dims = rho.shape[-2:]
    return np.ascontiguousarray(np.broadcast_to(rho, shape + dims).reshape((-1,) + dims)), shape


def _click_apply(kernel, rho, dn):
    """One step of a compiled click kernel for the given outcomes ``dn``, on a
    copy of ``rho`` (one state or a batch; ``dn`` broadcasts over it)."""
    batch, shape = _as_batch(rho, np.shape(dn))
    carry, rate = _click_read(kernel, batch, None)
    dn = np.broadcast_to(np.asarray(dn, dtype=bool), shape).reshape(-1)
    return _click_update(kernel, carry, rate, dn).reshape(shape + batch.shape[1:])


# ------------------------------------------------------- right-product kernels
# The half form acts on the C-contiguous (B d, d) view of the state batch with
# right products only, each one GEMM by a (d, d) operator.  For Hermitian rho,
# A rho = (rho A^dag)^dag, so every update is written
#     rho' = (W + W^dag) / tr(W + W^dag),
#     W = rho R0 + (per-row terms) + sum_j (rho A_j^dag)^dag B_j,
# where an Euler step has R0 = 1/2 + dt G^dag for G = -iH - (1/2) sum c^dag c
# (the Monte-Carlo wave-function split) and its Hermitian sandwiches such as
# kappa c rho c^dag enter W at half weight; linear kinds skip the division.
# A step works in three (B, d, d) buffers and writes rho' over rho.


def _right_work(rho, work):
    """The state a right-product step advances and its three (B, d, d)
    buffers: ``rho`` itself with the buffers kept in the caller's ``work``
    dict, or a fresh copy with fresh buffers when ``work`` is None."""
    if work is None:
        rho = np.array(rho, dtype=complex, order="C")
        return rho, [np.empty_like(rho) for _ in range(3)]
    bufs = work.get("buffers")
    if bufs is None or bufs[0].shape != rho.shape:
        bufs = work["buffers"] = [np.empty_like(rho) for _ in range(3)]
    return rho, bufs


def _gemm(rho, op, out):
    """rho @ op for a C-contiguous (B, d, d) batch: one GEMM into ``out``."""
    d = rho.shape[-1]
    np.matmul(rho.reshape(-1, d), op, out=out.reshape(-1, d))
    return out


def _conj_t(x, out):
    """x^dag into ``out``: a transposing copy, then an in-place conjugate (the
    conjugating ufunc on the transposed view would buffer)."""
    np.copyto(out, np.swapaxes(x, -1, -2))
    return np.conjugate(out, out=out)


def _scale(x, coeff, out):
    """out = coeff x for per-row coefficients ``coeff``: one einsum, on the
    float views when ``coeff`` is real, so no temporary is allocated as long
    as ``out`` is not ``x``."""
    x_v, out_v = (x, out) if np.iscomplexobj(coeff) else (x.view(float), out.view(float))
    n = len(x)
    np.einsum("bi,b->bi", x_v.reshape(n, -1), coeff, out=out_v.reshape(n, -1))
    return out


def _add_scaled(w, x, coeff, spare):
    """w += coeff x for per-row coefficients ``coeff``, through ``spare``
    (neither ``w`` nor ``x``)."""
    _scale(x, coeff, spare)
    w += spare


@dataclass(frozen=True, eq=False)
class HalfForm:
    """The constant part W = rho ``r0`` + sum_j a_j rho b_j of a half-form
    update; ``sandwiches`` holds the (a_j^dag, b_j) pairs, one per distinct
    a_j^dag.  Without ``r0`` the first sandwich starts W."""

    r0: np.ndarray | None
    sandwiches: tuple

    @classmethod
    def build(cls, r0, sandwiches):
        """Merge the (a^dag, b) pairs that share a^dag, so that each distinct
        a^dag costs two GEMMs."""
        merged = {}
        for a_d, b in sandwiches:
            a_d = np.ascontiguousarray(a_d, dtype=complex)
            key = a_d.tobytes()
            merged[key] = (a_d, merged[key][1] + b if key in merged else b)
        pairs = tuple((a_d, np.ascontiguousarray(b, dtype=complex)) for a_d, b in merged.values())
        return cls(None if r0 is None else np.ascontiguousarray(r0, dtype=complex), pairs)

    def apply(self, rho, w, p, q):
        """W for the batch ``rho`` into ``w``, each sandwich as
        (rho a^dag)^dag b; ``p`` and ``q`` are spare buffers."""
        pairs = self.sandwiches
        if self.r0 is not None:
            _gemm(rho, self.r0, w)
        else:
            a_d, b = pairs[0]
            _gemm(_conj_t(_gemm(rho, a_d, p), q), b, w)
            pairs = pairs[1:]
        for a_d, b in pairs:
            w += _gemm(_conj_t(_gemm(rho, a_d, p), q), b, p)
        return w

    def superop(self, d):
        """The superoperator of rho -> W + W^dag on (d, d) states."""
        terms = [(dagger(a_d), b) for a_d, b in self.sandwiches]
        if self.r0 is not None:
            terms.insert(0, (np.eye(d), self.r0))
        return sum((_half_map(a, b) for a, b in terms), np.zeros((d * d, d * d)))


def _half_finish(w, out, spare, renormalize):
    """out = W + W^dag, divided by its trace 2 Re tr W unless the kind is
    linear; ``spare`` is neither ``w`` nor ``out``."""
    if renormalize:
        w = _scale(w, 0.5 / trace(w).real, spare)
    _conj_t(w, out)
    out += w
    return out


def _click_right_update(kernel: ClickKernel, rho, bufs, rate, rows):
    w, p, q = bufs
    kernel.no_click.apply(rho, w, p, q)
    if kernel.rate_gain:
        _add_scaled(w, rho, kernel.rate_gain * rate, p)
    if len(rows):
        # the click sandwich of the clicked ``rows``, in the leading rows of p and q
        sub_p, sub_q = p[: len(rows)], q[: len(rows)]
        np.take(rho, rows, axis=0, out=sub_p)
        _gemm(_conj_t(_gemm(sub_p, kernel.jump_d, sub_q), sub_p), kernel.jump_d, sub_q)
        sub_q *= kernel.click_scale
        w[rows] = sub_q
    return _half_finish(w, rho, p, not kernel.linear)
