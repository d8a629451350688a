"""Homodyne/heterodyne trajectories: the diffusive SME, the positivity-preserving
Kraus-map stepper, linear (unnormalized) trajectories, homodyne feedback, and the
squeezed-thermal-bath variants.

Steppers never own randomness: Wiener increments are generated by the caller
(the ensemble layer) and passed in, so shared-noise equivalence tests and
feedback paths can reuse the same increments.  The local-oscillator phase
enters once, through c -> c e^{i theta} at the stepper boundary; internals
assume theta = 0.  States broadcast over leading batch axes; ``dw`` may be a
scalar or a matching batch vector.  Per-model operator products come from the
cache shared with :mod:`contmon.jump`, and every Euler kind's drift from the
generator terms of :mod:`contmon.master_equation`.

Diffusive kernels: each diffusive SME is linear in rho except for per-trajectory
scalars (the expectations that shift the innovation and feed the current, and
the normalization).  :func:`diffusive_kernel` compiles a step for fixed
(model, kind, dt), stated once in the half form of :mod:`contmon.jump`: one
GEMM of the ``(B d, d)`` view per constant operator, where each measured
channel's product rho R_k gives both its increment term and, from its
diagonal, its shift, and a channel that is a multiple of a sandwich operator
reuses that sandwich's product.  At d <= ``BATCH_GEMM_MAX_DIM`` the kernel
also carries that step lowered to one real matrix of stacked maps and
expectation rows on the coherence coordinates of :mod:`contmon.jump`'s
kernels, applied to the (d^2, B) coordinates of the batch in one GEMM.  The
Kraus kinds (``homodyne_kraus``, ``linear_homodyne_kraus``) carry it only at
d <= ``KRAUS_COORDS_MAX_DIM``: above, their maps drift further from the
literal sandwich than right products do, and gain no speed (see
:mod:`contmon.core_ops`).  At unit efficiency ``homodyne_kraus`` also
carries ``vector``, its step on state vectors, psi -> M psi / |M psi| with
M = M0 + dy sqrt(eta kappa) c_eff: one real GEMM on a (2d, B) block of
[Re psi; Im psi] columns, which the ensemble runs from a pure start.
:func:`diffusive_kernel_step` runs every form, and the ensemble runs every
diffusive kind through it.  Each per-state
stepper above is the same kernel, stepping a copy of its input on the
supplied increments; the kind ``linear_homodyne_kraus`` exists only for
:func:`linear_homodyne_kraus_step`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_ops import KRAUS_COORDS_MAX_DIM, dagger, to_coords, trace
from .jump import (
    HalfForm,
    WeightedState,
    _add_scaled,
    _as_batch,
    _cached_kernel,
    _conj_t,
    _coords_out,
    _ctx,
    _dots,
    _gemm,
    _half_finish,
    _half_map,
    _kernel_matrix,
    _no_click_kraus,
    _real,
    _right_work,
    check_needs,
)
from .master_equation import OpenSystemModel, _generator_terms, _sandwich

__all__ = [
    "homodyne_sme_step",
    "homodyne_kraus_step",
    "heterodyne_sme_step",
    "linear_homodyne_step",
    "linear_homodyne_kraus_step",
    "homodyne_feedback_step",
    "feedback_me_rhs",
    "lindblad_form_rhs",
    "generalized_bath_homodyne_step",
    "squeezed_vacuum_jump_operator",
    "homodyne_kraus_operator",
    "DiffusiveKernel",
    "diffusive_kernel",
    "diffusive_kernel_step",
]


def homodyne_sme_step(rho: np.ndarray, model: OpenSystemModel, dt: float, dw):
    """Euler step of the homodyne SME

        d rho = -i[H, rho] dt + kappa D[c] rho dt + sqrt(eta kappa) H[c e^{i theta}] rho dw

    returning the renormalized state and the photocurrent increment
    dy = sqrt(eta kappa) <c e^{i theta} + h.c.> dt + dw.
    """
    return _diffusive_apply(diffusive_kernel(model, "homodyne", dt), rho, dw)


def homodyne_kraus_operator(model: OpenSystemModel, dt: float, dy) -> np.ndarray:
    """Kraus operator M = 1 - iH dt - (kappa/2) c^dag c dt + sqrt(eta kappa) c dy."""
    ctx = _ctx(model)
    dy = np.asarray(dy)[..., None, None]
    return _no_click_kraus(ctx, dt)[0] + (ctx["root"] * dy) * ctx["ceff"]


def homodyne_kraus_step(rho: np.ndarray, model: OpenSystemModel, dt: float, dw):
    """Positivity-preserving homodyne step: the state is conjugated by the Kraus
    operator built from the measured increment, with the undetected channel
    added as kappa (1-eta) c rho c^dag dt, then renormalized."""
    return _diffusive_apply(diffusive_kernel(model, "homodyne_kraus", dt), rho, dw)


def heterodyne_sme_step(rho: np.ndarray, model: OpenSystemModel, dt: float, dw1, dw2):
    """Heterodyne (double-homodyne) SME step with the two jump operators
    c/sqrt(2) and i c/sqrt(2); returns (rho', dy1, dy2)."""
    dw = np.stack(np.broadcast_arrays(dw1, dw2), axis=-1)
    rho, dy = _diffusive_apply(diffusive_kernel(model, "heterodyne", dt), rho, dw, 2)
    return rho, dy[..., 0][()], dy[..., 1][()]


def linear_homodyne_step(
    state: WeightedState, model: OpenSystemModel, dt: float, dy, mu: float = 0.0
):
    """Linear homodyne SME step for the unnormalized state, with the formal
    substitution <c + c^dag> -> mu:

        d rho_bar = (-i[H, rho_bar] + kappa D[c] rho_bar) dt
                    + sqrt(kappa) (c rho_bar + rho_bar c^dag - mu rho_bar)
                      (dy - sqrt(kappa) mu dt)

    The record dy is supplied externally, sampled from the ostensible law
    Normal(sqrt(kappa) mu dt, dt).  Requires unit efficiency (the form the
    linear-trajectory theory is stated for)."""
    kernel = diffusive_kernel(model, "linear_homodyne", dt, mu=mu)
    # the kernel steps on the innovation dy - sqrt(kappa) mu dt
    rho_bar, _ = _diffusive_apply(kernel, state.rho_bar, np.subtract(dy, kernel.offset))
    return WeightedState(rho_bar)


def linear_homodyne_kraus_step(
    state: WeightedState, model: OpenSystemModel, dt: float, dy
) -> WeightedState:
    """Completely positive form of the mu = 0 linear homodyne step: the
    unnormalized state is conjugated by the Kraus operator of the measured
    increment (whose numerator is exactly the linear-SME evolution), keeping
    the weight in the trace."""
    kernel = diffusive_kernel(model, "linear_homodyne_kraus", dt)
    rho_bar, _ = _diffusive_apply(kernel, state.rho_bar, dy)
    return WeightedState(rho_bar)


def homodyne_feedback_step(
    rho: np.ndarray, model: OpenSystemModel, f_op: np.ndarray, dt: float, dw
):
    """Homodyne feedback SME step for H_fb = F I(t) with the current renormalized
    by sqrt(eta):

        d rho = -i[H, rho] dt + kappa D[c] rho dt - i sqrt(kappa) [F, c rho + rho c^dag] dt
                + (1/eta) D[F] rho dt + (sqrt(eta kappa) H[c] rho - i[F, rho]) dw

    Returns the renormalized state and the raw measured increment dy."""
    kernel = diffusive_kernel(model, "homodyne_feedback", dt, f_op=f_op)
    return _diffusive_apply(kernel, rho, dw)


def feedback_me_rhs(rho: np.ndarray, model: OpenSystemModel, f_op: np.ndarray) -> np.ndarray:
    """Unconditional homodyne-feedback generator, direct form:

        -i[H, rho] + kappa D[c] rho - i sqrt(kappa) [F, c rho + rho c^dag]
        + (1/eta) D[F] rho

    It needs what the ``homodyne_feedback`` kind needs (``jump.NEEDS``)."""
    check_needs("homodyne_feedback", model, f_op)
    ctx = _ctx(model)
    f = np.asarray(f_op, dtype=complex)
    kappa, ceff, ceff_d = ctx["kappa"], ctx["ceff"], ctx["ceff_d"]
    c, cd, cdc, h = ctx["c"], ctx["cd"], ctx["cdc"], ctx["h"]
    u = ceff @ rho + rho @ ceff_d
    f2 = f @ f
    return (
        -1j * (h @ rho - rho @ h)
        + kappa * (c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc))
        - 1j * np.sqrt(kappa) * (f @ u - u @ f)
        + (1.0 / model.efficiency) * (f @ rho @ f - 0.5 * (f2 @ rho + rho @ f2))
    )


def lindblad_form_rhs(rho: np.ndarray, model: OpenSystemModel, f_op: np.ndarray) -> np.ndarray:
    """The same generator rewritten in Lindblad form:

        -i[H + sqrt(kappa)(c^dag F + F c)/2, rho] + D[sqrt(kappa) c - i F] rho
        + ((1-eta)/eta) D[F] rho

    It needs what the ``homodyne_feedback`` kind needs (``jump.NEEDS``)."""
    check_needs("homodyne_feedback", model, f_op)
    ctx = _ctx(model)
    f = np.asarray(f_op, dtype=complex)
    kappa, ceff, ceff_d, h = ctx["kappa"], ctx["ceff"], ctx["ceff_d"], ctx["h"]
    eta = model.efficiency
    h_eff = h + (np.sqrt(kappa) / 2.0) * (ceff_d @ f + f @ ceff)
    cbar = np.sqrt(kappa) * ceff - 1j * f
    cbar_d = dagger(cbar)
    cbar2 = cbar_d @ cbar
    out = -1j * (h_eff @ rho - rho @ h_eff) + (
        cbar @ rho @ cbar_d - 0.5 * (cbar2 @ rho + rho @ cbar2)
    )
    if eta != 1.0:
        f2 = f @ f
        out = out + ((1.0 - eta) / eta) * (f @ rho @ f - 0.5 * (f2 @ rho + rho @ f2))
    return out


def generalized_bath_homodyne_step(
    rho: np.ndarray,
    model: OpenSystemModel,
    dt: float,
    dw,
    mode: str = "homodyne",
):
    """Diffusive step for a squeezed thermal bath (unit efficiency).

    Homodyne: the stochastic operator is H[(N + M* + 1) c - (N + M) c^dag]
    scaled by sqrt(kappa)/sqrt(L) with L = 2N + 1 + 2M (real M only; the
    complex-M current normalization is not defined), and the current reads
    dy = sqrt(kappa) <c + c^dag> dt + sqrt(L) dw.

    Heterodyne (thermal bath, M = 0): two channels with scale sqrt(2(N+1)),
    ``dw`` of shape (..., 2); returns dy of the same shape.
    """
    if mode not in ("homodyne", "heterodyne"):
        raise ValueError(f"unknown mode {mode!r} (use 'homodyne' or 'heterodyne')")
    kernel = diffusive_kernel(model, f"generalized_{mode}", dt)
    if mode == "homodyne":
        return _diffusive_apply(kernel, rho, dw)
    if np.shape(dw)[-1:] != (2,):
        raise ValueError("heterodyne needs two Wiener increments per step")
    return _diffusive_apply(kernel, rho, dw, 2)


def squeezed_vacuum_jump_operator(c: np.ndarray, n_thermal: float) -> np.ndarray:
    """Replacement collapse operator mu c - nu c^dag for a squeezed vacuum bath,
    with r = ln(1 + 2N + 2 sqrt(N(N+1)))/2, mu = cosh r, nu = sinh r
    (so mu^2 - nu^2 = 1)."""
    if n_thermal < 0:
        raise ValueError("thermal occupation must be >= 0")
    c = np.asarray(c, dtype=complex)
    r = 0.5 * np.log(1.0 + 2.0 * n_thermal + 2.0 * np.sqrt(n_thermal * (n_thermal + 1.0)))
    return np.cosh(r) * c - np.sinh(r) * dagger(c)


# ---------------------------------------------------------------- kernels


@dataclass(frozen=True, eq=False)
class DiffusiveKernel:
    """One compiled diffusive step for a fixed (model, kind, dt), in half form.

    Euler kinds: W = rho ``r0`` + sum_j a_j rho b_j + sum_k dw_k rho R_k
    - (1/2) sum_k dw_k s_k rho.  ``products`` lists the right products rho a^dag
    a step makes, each with its sandwich factor b (None for a bare channel
    product) and its taps (k, alpha): channel k has R_k = sum alpha a^dag over
    its taps, so a channel that is a multiple of a sandwich's a^dag costs no
    GEMM of its own.  The measurement map of channel k is rho R_k + R_k^dag
    rho, and its shift is s_k = 2 Re tr(rho R_k), or the constant ``shift``
    for linear kinds.  The currents are dy_k = e_k + ``noise_gain`` dw_k with
    e_k = tr(rho A_k) read by one GEMM of the flattened batch with the
    ``currents`` rows vec(A_k^T); linear kinds have none, record
    dy = ``offset`` + dw and are not renormalized.  Kraus kinds (``kraus`` =
    (base^dag, R) for the single channel R = sqrt(eta kappa) c_eff^dag):
    rho M^dag = rho base^dag + dy rho R, W = M rho M^dag plus the sandwiches,
    halved for the linear kind.

    ``maps`` (d <= ``BATCH_GEMM_MAX_DIM``, and d <= ``KRAUS_COORDS_MAX_DIM``
    for Kraus kinds, only) is this step lowered to the coordinates: Euler
    kinds stack the map of the drift's W + W^dag, the m channels' measurement
    maps (less ``shift`` for linear kinds) and, unless the kind is linear,
    the m shift rows R_k + R_k^dag, so that
    r' = y0 + sum_k dw_k (y_k - s_k r).  Kraus kinds stack the maps of
    M rho M^dag = y0 + dy y1 + dy^2 y2 (with the sandwiches).  The current rows
    come last.

    ``vector`` (``homodyne_kraus`` at unit efficiency only, where a pure
    state stays pure) is the step on state vectors: the real blocks of M0,
    sqrt(eta kappa) c_eff and the current operator sqrt(eta kappa) dt
    (c_eff + c_eff^dag), stacked, so one GEMM gives M0 psi, R psi and, by a
    column sum of products with psi, the current; then psi' = (M0 psi +
    dy R psi) / |...|.  A kernel without ``maps`` steps a real block given to
    it as a vector block.
    """

    r0: np.ndarray | None
    products: tuple
    n_channels: int
    currents: np.ndarray | None
    noise_gain: float = 1.0
    shift: float = 0.0
    offset: float = 0.0
    kraus: tuple | None = None
    maps: np.ndarray | None = None
    vector: np.ndarray | None = None

    @property
    def linear(self) -> bool:
        return self.currents is None


def diffusive_kernel(
    model: OpenSystemModel, kind: str, dt: float, f_op=None, mu: float = 0.0
) -> DiffusiveKernel:
    """The compiled step of the diffusive kind ``kind`` ("homodyne",
    "homodyne_kraus", "heterodyne", "homodyne_feedback", "generalized_homodyne",
    "generalized_heterodyne", "linear_homodyne" or "linear_homodyne_kraus"),
    with its coordinate ``maps`` at d <= ``BATCH_GEMM_MAX_DIM``, or d <=
    ``KRAUS_COORDS_MAX_DIM`` for the two Kraus kinds.  ``f_op`` is the
    feedback operator of "homodyne_feedback", ``mu`` the ostensible mean of
    "linear_homodyne"."""
    check_needs(kind, model, f_op)
    return _cached_kernel(model, kind, dt, f_op, mu, _diffusive_maps, _compile_diffusive)


def _compile_diffusive(ctx, model, kind, dt, f_op, mu):
    eta = model.efficiency
    kappa, root = ctx["kappa"], ctx["root"]
    cd, herm, ceff_d = ctx["cd"], ctx["herm"], ctx["ceff_d"]
    homodyne_current = _rows((root * dt) * herm)
    if kind in ("homodyne_kraus", "linear_homodyne_kraus"):
        undetected = [] if eta == 1.0 else [(cd, ((1.0 - eta) * kappa * dt) * cd)]
        kraus = (_no_click_kraus(ctx, dt)[1], np.ascontiguousarray(root * ceff_d))
        currents = None if kind == "linear_homodyne_kraus" else homodyne_current
        return _right_kernel(HalfForm.build(None, undetected), [], currents, kraus=kraus,
                             vector=_real(dagger(kraus[0]), root * ctx["ceff"], (root * dt) * herm))
    # every Euler kind's drift is the generator of the one monitored channel
    [(dissipators, commutators)], h = _generator_terms(model)
    if kind == "homodyne_feedback":
        # -i sqrt(kappa) [F, c rho + rho c^dag] = rho R + (a rho b + h.c.) + h.c.
        # with R = i sqrt(kappa) c^dag F and a rho b = -i sqrt(kappa) F rho c^dag
        f = np.asarray(f_op, dtype=complex)
        s_k = np.sqrt(kappa)
        drift = _euler_form(dt, h, dissipators + [(1.0 / eta, f, f, f @ f)],
                            right=(1j * s_k) * (ceff_d @ f), pairs=[(f, (-1j * s_k) * ceff_d)])
        return _right_kernel(drift, [(1.0, root * ceff_d + 1j * f)], homodyne_current)
    drift = _euler_form(dt, h, dissipators, commutators)
    theta = model.homodyne_phase
    phase = np.exp(-1j * theta) if theta else 1.0  # c_eff^dag = phase c^dag
    if kind == "homodyne":
        return _right_kernel(drift, [(root * phase, cd)], homodyne_current)
    if kind == "heterodyne":
        g = np.sqrt(eta * kappa / 2.0)
        return _right_kernel(drift, [(g * phase, cd), (-1j * g * phase, cd)],
                             _rows((g * dt) * herm, (g * dt) * ctx["herm_i"]))
    if kind == "linear_homodyne":
        g = np.sqrt(kappa)
        return _right_kernel(drift, [(g * phase, cd)], None, shift=g * mu, offset=g * mu * dt)
    # the measured operators of a squeezed thermal bath (N, M), built from the
    # bare c (the kinds need homodyne_phase = 0)
    n, c, root_k = model.bath.n_thermal, ctx["c"], np.sqrt(kappa) * dt
    if kind == "generalized_homodyne":
        mr = model.bath.squeezing.real
        big_l = 2.0 * n + 1.0 + 2.0 * mr
        if big_l <= 0:
            raise ValueError("current variance 2N + 1 + 2M must be positive")
        op_d = dagger((n + mr + 1.0) * c - (n + mr) * cd)
        return _right_kernel(drift, [(np.sqrt(kappa) / np.sqrt(big_l), op_d)],
                             _rows(root_k * herm), noise_gain=np.sqrt(big_l))
    if kind == "generalized_heterodyne":
        # sqrt(kappa) / sqrt(2 (N + 1)) in this form reduces bit-exactly to the
        # vacuum heterodyne prefactor sqrt(kappa / 2) at N = 0
        g = np.sqrt(kappa / (2.0 * (n + 1.0)))
        return _right_kernel(drift, [(g, dagger((n + 1.0) * c - n * cd)),
                                     (g, dagger((n + 1.0) * (1j * c) - n * (-1j * cd)))],
                             _rows(root_k * herm, root_k * ctx["herm_i"]),
                             noise_gain=np.sqrt(2.0 * (n + 1.0)))
    raise ValueError(f"no diffusive kernel for kind {kind!r}")


def _diffusive_maps(kernel: DiffusiveKernel, d: int) -> np.ndarray | None:
    if kernel.kraus is not None and d > KRAUS_COORDS_MAX_DIM:
        return None  # the Kraus kinds keep right products there
    form = HalfForm(kernel.r0, tuple((a_d, b) for a_d, b, _ in kernel.products if b is not None))
    drift = form.superop(d)
    rows = [] if kernel.linear else list(kernel.currents)
    if kernel.kraus is not None:
        # a Kraus W is all of M rho M^dag, so its W + W^dag counts the sandwiches twice
        base_d, r = kernel.kraus
        r_d = dagger(r)
        maps = [0.5 * drift + _sandwich(dagger(base_d), base_d), _half_map(r_d, base_d),
                _sandwich(r_d, r)]
        return _kernel_matrix(maps, rows)
    channels = [sum(alpha * a_d for a_d, _, taps in kernel.products for j, alpha in taps if j == k)
                for k in range(kernel.n_channels)]
    eye = np.eye(d)
    maps = [drift] + [_half_map(eye, r) - kernel.shift * np.eye(d * d) for r in channels]
    if not kernel.linear:
        rows = [(r + dagger(r)).T.ravel() for r in channels] + rows
    return _kernel_matrix(maps, rows)


def diffusive_kernel_step(kernel, rho: np.ndarray, dw, work: dict | None = None):
    """Advance a state batch by one step of a compiled diffusive kernel on the
    Wiener increments ``dw`` ((B,) for one channel, (B, 2) for two); returns
    (rho', dy) with dy shaped like ``dw``, for ``rho`` in either form of
    :func:`contmon.jump.click_kernel_step`.

    A kernel without ``maps`` (d > ``BATCH_GEMM_MAX_DIM``, or d >
    ``KRAUS_COORDS_MAX_DIM`` for the Kraus kinds) advances ``rho`` in place
    when the caller passes a ``work`` dict that it keeps for the batch, where
    the step's buffers then live, and a copy otherwise.  Given a real (2d, B)
    block, such a kernel steps it as state vectors by its ``vector``.
    """
    if kernel.maps is None and rho.dtype == float:  # a vector block
        n = len(rho)
        y = kernel.vector @ rho  # M0 psi, R psi and the current operator on psi
        dy = _dots(rho, y[2 * n:]) + dw
        z = y[:n] + dy * y[n:2 * n]
        return z / np.sqrt(_dots(z)), dy
    if kernel.maps is None:
        return _right_step(kernel, *_right_work(rho, work), dw)
    batch = rho.ndim == 3
    x = to_coords(rho) if batch else rho
    n = len(x)
    # the state's image apart from the other rows, so that the state
    # returned keeps no larger array alive
    z = kernel.maps[:n] @ x
    y = kernel.maps[n:] @ x
    m = kernel.n_channels
    w = np.reshape(dw, (-1, m)).T
    ex = y[(m if kernel.kraus is None else 2) * n :]
    if kernel.linear:
        dy = kernel.offset + w
    else:
        dy = ex[-m:] + kernel.noise_gain * w
    if kernel.kraus is not None:
        s = dy[0]
        z += s * (y[:n] + s * y[n : 2 * n])
    else:
        for k in range(m):
            z += w[k] * y[k * n : (k + 1) * n]
        if not kernel.linear:
            z -= (w * ex[:m]).sum(axis=0) * x
    return _coords_out(z, kernel.linear, batch), dy.T.reshape(np.shape(dw))


def _diffusive_apply(kernel, rho, dw, channels: int = 1):
    """One step of a compiled diffusive kernel on a copy of ``rho`` (one state
    or a batch) for the increments ``dw``, which broadcast over the batch and,
    for two channels, end in an axis of length 2; returns (rho', dy), with dy
    a scalar for one state on one channel."""
    dw = np.asarray(dw, dtype=float)
    tail = (channels,) if channels > 1 else ()
    batch, shape = _as_batch(rho, dw.shape[: dw.ndim - len(tail)])
    dws = np.broadcast_to(dw, shape + tail).reshape((-1,) + tail)
    rho, dy = diffusive_kernel_step(kernel, batch, dws)
    return rho.reshape(shape + batch.shape[1:]), dy.reshape(shape + tail)[()]


def _right_kernel(form: HalfForm, channels, currents, **kw) -> DiffusiveKernel:
    """The kernel of the drift ``form`` and the measured ``channels``
    (alpha, a^dag), R = alpha a^dag: a channel whose a^dag is a sandwich's
    reads that sandwich's product, any other gets a product of its own."""
    products = [[a_d, b, []] for a_d, b in form.sandwiches]
    index = {a_d.tobytes(): j for j, (a_d, _) in enumerate(form.sandwiches)}
    for k, (alpha, a_d) in enumerate(channels):
        a_d = np.ascontiguousarray(a_d, dtype=complex)
        j = index.setdefault(a_d.tobytes(), len(products))
        if j == len(products):
            products.append([a_d, None, []])
        products[j][2].append((k, alpha))
    # the Kraus kind's single channel lives in ``kraus``
    return DiffusiveKernel(form.r0, tuple((a, b, tuple(t)) for a, b, t in products),
                                len(channels) or 1, currents, **kw)


def _euler_form(dt, h, terms, dterms=(), right=0.0, pairs=()):
    """Half form of rho + dt (-i[h, rho] + sum coeff D[a] rho
    + sum coeff' [a, [a, rho]] + rho right + right^dag rho + sum (a rho b + h.c.))
    for the dissipators ``terms`` (coeff, a, a^dag, a^dag a), the double
    commutators ``dterms`` (coeff', a, a^2) of a Hermitian sum
    sum coeff' a^2, and the (a^dag, b) ``pairs``."""
    g_d = 1j * h + right
    sandwiches = list(pairs)
    for coeff, a, ad, ada in terms:
        g_d = g_d - (0.5 * coeff) * ada
        sandwiches.append((ad, (0.5 * coeff) * ad))
    for coeff, a, a2 in dterms:
        g_d = g_d + coeff * a2
        sandwiches.append((dagger(a), -coeff * a))
    r0 = 0.5 * np.eye(len(h)) + dt * g_d
    return HalfForm.build(r0, [(a_d, dt * b) for a_d, b in sandwiches])


def _rows(*ops):
    """The rows vec(A^T) that read tr(rho A) off the flattened batch."""
    return np.ascontiguousarray(np.stack([a.T.ravel() for a in ops]), dtype=complex)


def _right_step(kernel: DiffusiveKernel, rho, bufs, dw):
    w, p, q = bufs
    dws = np.reshape(dw, (-1, kernel.n_channels))
    if kernel.linear:
        dy = kernel.offset + dws
    else:
        dy = (rho.reshape(len(rho), -1) @ kernel.currents.T).real + kernel.noise_gain * dws
    if kernel.kraus is not None:
        # q = rho M^dag, then p = M rho and w = M rho M^dag
        base_d, r = kernel.kraus
        _add_scaled(_gemm(rho, base_d, q), _gemm(rho, r, p), dy[:, 0], w)
        _conj_t(q, p)
        _gemm(p, base_d, w)
        _add_scaled(w, _gemm(p, r, q), dy[:, 0], p)
    else:
        _gemm(rho, kernel.r0, w)
    shift = kernel.shift * dws.sum(axis=1) if kernel.linear else 0.0
    for a_d, b, taps in kernel.products:
        _gemm(rho, a_d, p)
        if taps:
            tr = trace(p)
            coeff = 0.0
            for k, alpha in taps:
                coeff = coeff + alpha * dws[:, k]
                if not kernel.linear:
                    shift = shift + dws[:, k] * (2.0 * alpha * tr).real
            _add_scaled(w, p, coeff, q)
        if b is not None:
            w += _gemm(_conj_t(p, q), b, p)
    if kernel.kraus is None:
        _add_scaled(w, rho, -0.5 * shift, p)
    elif kernel.linear:
        w *= 0.5  # a Kraus W is all of M rho M^dag, not its half
    return _half_finish(w, rho, p, not kernel.linear), dy.reshape(np.shape(dw))
