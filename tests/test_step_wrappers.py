"""The per-state steppers of contmon.jump and contmon.diffusive step through
the compiled kernels.  Their contract: one (d, d) state or a batch of them,
outcomes and increments that broadcast over the batch, and the caller's
array left as it was (the right-product kernels above BATCH_GEMM_MAX_DIM
step in place when given work buffers).  At d <= BATCH_GEMM_MAX_DIM a kernel
steps its coordinate maps, lowered from its half form, and both forms of one
kernel agree."""

from dataclasses import replace


import numpy as np
import pytest

from contmon import BathSpec, OpenSystemModel, WeightedState, build_standard_ops
from contmon.core_ops import BATCH_GEMM_MAX_DIM, dagger, trace
from contmon.diffusive import (
    diffusive_kernel,
    diffusive_kernel_step,
    generalized_bath_homodyne_step,
    heterodyne_sme_step,
    homodyne_feedback_step,
    homodyne_kraus_step,
    homodyne_sme_step,
    linear_homodyne_kraus_step,
    linear_homodyne_step,
)
from contmon.jump import (
    click_kernel,
    click_kernel_step,
    jump_feedback_apply,
    jump_kraus_apply,
    jump_probability,
    jump_sme_apply,
    linear_jump_step,
)

from conftest import random_density_matrix

DT = 1e-3


def _model(dim, eta=1.0, phase=0.0, bath=None):
    """A driven decaying qubit (dim 2) or boson mode, and a Hermitian F."""
    if dim == 2:
        ops = build_standard_ops("qubit")
        h, c = 0.3 * ops["sigma_x"], ops["sigma_minus"]
    else:
        ops = build_standard_ops("boson", dim)
        h, c = 0.3 * ops["q"], ops["a"]
    model = OpenSystemModel(h, [(1.0, c)], efficiency=eta, homodyne_phase=phase,
                            bath=bath or BathSpec())
    return model, 0.4 * (c + dagger(c))


def _heterodyne(rho, model, dt, dw):
    rho, dy1, dy2 = heterodyne_sme_step(rho, model, dt, dw[..., 0], dw[..., 1])
    return rho, np.stack([dy1, dy2], axis=-1)


# name: (noise, model keywords, step(rho, model, f_op, dt, x) -> (rho', current or None))
CASES = {
    "jump_sme_apply": ("click", dict(eta=0.8),
                       lambda r, m, f, dt, x: (jump_sme_apply(r, m, dt, x), None)),
    "jump_kraus_apply": ("click", dict(eta=0.8),
                         lambda r, m, f, dt, x: (jump_kraus_apply(r, m, dt, x), None)),
    "jump_feedback_apply": ("click", {},
                            lambda r, m, f, dt, x: (jump_feedback_apply(r, m, f, dt, x), None)),
    "linear_jump_step": ("click", {}, lambda r, m, f, dt, x: (
        linear_jump_step(WeightedState(r), m, dt, x, beta=0.8).rho_bar, None)),
    "homodyne_sme_step": ("dw", dict(eta=0.8, phase=0.4),
                          lambda r, m, f, dt, x: homodyne_sme_step(r, m, dt, x)),
    "homodyne_kraus_step": ("dw", dict(eta=0.8, phase=0.4),
                            lambda r, m, f, dt, x: homodyne_kraus_step(r, m, dt, x)),
    "heterodyne_sme_step": ("dw2", dict(eta=0.8, phase=0.4),
                            lambda r, m, f, dt, x: _heterodyne(r, m, dt, x)),
    "linear_homodyne_step": ("dw", dict(phase=0.4), lambda r, m, f, dt, x: (
        linear_homodyne_step(WeightedState(r), m, dt, x, mu=0.3).rho_bar, None)),
    "linear_homodyne_kraus_step": ("dw", dict(eta=0.8, phase=0.4), lambda r, m, f, dt, x: (
        linear_homodyne_kraus_step(WeightedState(r), m, dt, x).rho_bar, None)),
    "homodyne_feedback_step": ("dw", dict(eta=0.8, phase=0.4),
                               lambda r, m, f, dt, x: homodyne_feedback_step(r, m, f, dt, x)),
    "generalized_bath_homodyne_step": (
        "dw", dict(bath=BathSpec(n_thermal=0.5, squeezing=0.2)),
        lambda r, m, f, dt, x: generalized_bath_homodyne_step(r, m, dt, x)),
    "generalized_bath_heterodyne_step": (
        "dw2", dict(bath=BathSpec(n_thermal=0.5)),
        lambda r, m, f, dt, x: generalized_bath_homodyne_step(r, m, dt, x, mode="heterodyne")),
}


@pytest.mark.parametrize("dim", [2, 6, BATCH_GEMM_MAX_DIM + 1])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stepper_wrapper_contract(name, dim):
    noise, model_kw, step = CASES[name]
    model, f_op = _model(dim, **model_kw)
    rng = np.random.default_rng(7)
    batch = np.stack([random_density_matrix(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
    if noise == "click":
        x = np.array([[True, False, True], [False, False, True]])
    else:
        x = rng.standard_normal((2, 3, 2) if noise == "dw2" else (2, 3)) * np.sqrt(DT)
    before = batch.copy()

    out, current = step(batch, model, f_op, DT, x)
    assert out.shape == batch.shape
    np.testing.assert_array_equal(batch, before)
    # each state of the batch steps as it would alone, with a scalar current
    for i, j in np.ndindex(2, 3):
        one, one_current = step(batch[i, j], model, f_op, DT, x[i, j])
        assert one.shape == (dim, dim)
        np.testing.assert_allclose(one, out[i, j], rtol=0, atol=1e-14)
        if current is not None:
            assert np.shape(one_current) == np.shape(current[i, j])
            np.testing.assert_allclose(one_current, current[i, j], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(batch, before)
    # one outcome or increment broadcasts over the batch
    x0 = x[0, 0]
    scalar, scalar_current = step(batch, model, f_op, DT, x0)
    full, full_current = step(batch, model, f_op, DT, np.broadcast_to(x0, x.shape))
    np.testing.assert_array_equal(scalar, full)
    if current is not None:
        assert np.shape(scalar_current) == np.shape(current)
        np.testing.assert_array_equal(scalar_current, full_current)
    np.testing.assert_array_equal(batch, before)
    if name.endswith("_apply"):
        # a supplied click is applied at any click probability: the 0.1 limit
        # is a rule of sampling, which these steppers do not do
        dt = 0.2 / np.min(jump_probability(batch, model, 1.0))
        clicked, _ = step(batch, model, f_op, dt, True)
        np.testing.assert_allclose(trace(clicked).real, 1.0, rtol=0, atol=1e-12)


# kind: (model keywords, kernel keywords), with eta < 1 and theta != 0 where
# the kind allows them; the generalized kinds take every bath they allow
BATHS = {"thermal": BathSpec(n_thermal=0.5), "squeezed": BathSpec(n_thermal=0.5, squeezing=0.2),
         "driven": BathSpec(drive=0.3)}
KERNEL_CASES = {
    "jump": (dict(eta=0.7), {}),
    "jump_kraus": (dict(eta=0.7), {}),
    "jump_feedback": ({}, {}),
    "linear_jump": ({}, dict(beta=0.8)),
    "homodyne": (dict(eta=0.7, phase=0.4), {}),
    "homodyne_kraus": (dict(eta=0.7, phase=0.4), {}),
    "heterodyne": (dict(eta=0.7, phase=0.4), {}),
    "homodyne_feedback": (dict(eta=0.7, phase=0.4), {}),
    "linear_homodyne": (dict(phase=0.4), dict(mu=0.3)),
    "linear_homodyne_kraus": (dict(eta=0.7, phase=0.4), {}),
    **{f"generalized_{mode}/{name}": (dict(bath=bath), {})
       for mode in ("homodyne", "heterodyne") for name, bath in BATHS.items()
       if mode == "homodyne" or bath.squeezing == 0},
}
CLICK_KINDS = ("jump", "jump_kraus", "jump_feedback", "linear_jump")


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_coordinate_maps_step_like_half_form(case, dim):
    # the same kernel without its maps steps the half form it was lowered from
    kind = case.split("/")[0]
    model_kw, kernel_kw = KERNEL_CASES[case]
    model, f_op = _model(dim, **model_kw)
    if kind.endswith("feedback"):
        kernel_kw = dict(kernel_kw, f_op=f_op)
    rng = np.random.default_rng(dim)
    batch = np.stack([random_density_matrix(rng, dim) for _ in range(8)])
    if kind in CLICK_KINDS:
        kernel, step = click_kernel(model, kind, DT, **kernel_kw), click_kernel_step
        x = np.tile([0.0, 1.0], 4)  # uniforms: every other state clicks
    else:
        kernel, step = diffusive_kernel(model, kind, DT, **kernel_kw), diffusive_kernel_step
        x = rng.standard_normal((8, 2) if kind.endswith("heterodyne") else 8) * np.sqrt(DT)
    assert kernel.maps is not None
    coords, out = step(kernel, batch, x)
    half, half_out = step(replace(kernel, maps=None), batch, x)
    np.testing.assert_allclose(coords, half, rtol=0, atol=1e-14)
    if kind in CLICK_KINDS:
        np.testing.assert_array_equal(out, x == 0.0)
        np.testing.assert_array_equal(half_out, out)
    else:
        np.testing.assert_allclose(out, half_out, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 5])
def test_kernel_compilers_reject_the_other_family(dim):
    model, _ = _model(dim)
    with pytest.raises(ValueError, match="no click kernel for kind 'homodyne'"):
        click_kernel(model, "homodyne", DT)
    with pytest.raises(ValueError, match="no diffusive kernel for kind 'jump'"):
        diffusive_kernel(model, "jump", DT)
