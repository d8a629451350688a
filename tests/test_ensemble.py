import tracemalloc

import numpy as np
import pytest

from contmon import (
    GaussianState,
    OpenSystemModel,
    WeightedState,
    integrate_me,
    me_expectations,
)
from contmon.core_ops import BATCH_GEMM_MAX_DIM, build_standard_ops, to_coords
from contmon.diffusive import (
    diffusive_kernel,
    diffusive_kernel_step,
    homodyne_kraus_step,
    homodyne_sme_step,
)
from contmon import ensemble
from contmon.config import _columns
from contmon.ensemble import (
    KINDS,
    EnsembleSpec,
    PhysicalityError,
    Scenario,
    compare_to_me,
    _noise_matrix,
    run_ensemble,
    trajectory_rng,
)
from contmon.gaussian import (
    conditional_step,
    covariance_path,
    excess_noise_ss,
    lqg_gain,
    markovian_gain,
    opo_model,
    riccati_steady_state,
)
from contmon.jump import (
    click_kernel,
    click_kernel_step,
    click_outcomes,
    jump_probability,
    jump_sme_apply,
    jump_sse_apply,
)
from contmon.master_equation import BathSpec

from conftest import two_mode_model


# the kinds that step density matrices or state vectors: every KINDS entry
# with a kernel, which leaves out the Gaussian kinds and the master equation
HILBERT_KINDS = sorted(k for k in KINDS if KINDS[k].kernel is not None)


def max_z_after(stats, name, ref, skip=50):
    """Max |z| ignoring the first few grid points, where the Monte Carlo spread
    is still ~0 and the z-score would measure Euler discretization bias rather
    than the unravelling theorem."""
    diff = np.abs(stats.means[name] - np.asarray(ref))
    z = np.where(diff == 0, 0.0, diff / np.maximum(stats.std_errs[name], 1e-300))
    return float(z[skip:].max())

def qubit_spec(qubit_ops, **kw):
    base = dict(
        n_traj=200, master_seed=99, dt=1e-3, t_final=0.5,
        observables=(("rho_ee", qubit_ops["projector_e"]),),
    )
    base.update(kw)
    return EnsembleSpec(**base)


def test_trajectory_rng_reproducible():
    a = trajectory_rng(5, 7).standard_normal(4)
    b = trajectory_rng(5, 7).standard_normal(4)
    c = trajectory_rng(5, 8).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("law, method", [("uniform", "random"), ("normal", "standard_normal")])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_noise_matrix_rows_are_trajectory_substreams(law, method, seed):
    # the block re-keys one generator per row; each row must still be the
    # trajectory's own substream, from a nonzero first index through a ragged
    # last block, at counts that leave part of Philox's 4-word buffer unread
    def reference(lo, hi, count):
        return np.array([getattr(trajectory_rng(seed, idx), method)(count)
                         for idx in range(lo, hi)])

    for lo, hi, count in ((0, 4, 1), (5, 12, 3), (64, 101, 301), (128, 129, 3)):
        first = _noise_matrix(seed, lo, hi, count, law)
        again = _noise_matrix(seed, lo, hi, count, law)
        assert first.shape == (hi - lo, count) and first.dtype == np.float64
        np.testing.assert_array_equal(first, reference(lo, hi, count))
        np.testing.assert_array_equal(again, first)


def test_single_trajectory_bit_for_bit_jump(qubit_ops, decay_model, excited):
    # the compiled kernel on the coordinates, as the ensemble runs it at d = 2,
    # and the per-state stepper, each drawing its clicks from the same uniforms
    spec = qubit_spec(qubit_ops, n_traj=1)
    stats = run_ensemble(spec, Scenario("jump", decay_model, excited))
    us = trajectory_rng(spec.master_seed, 0).random(spec.n_steps)
    kernel = click_kernel(decay_model, "jump", spec.dt)
    row = to_coords(qubit_ops["projector_e"])[None]
    r, rho_ref = to_coords(excited[None]), excited
    manual, ref = [(row @ r)[0, 0]], [rho_ref[0, 0].real]
    for u in us:
        r, _ = click_kernel_step(kernel, r, u[None])
        dn = click_outcomes(jump_probability(rho_ref, decay_model, spec.dt), u)
        rho_ref = jump_sme_apply(rho_ref, decay_model, spec.dt, dn)
        manual.append((row @ r)[0, 0])
        ref.append(rho_ref[0, 0].real)
    np.testing.assert_array_equal(stats.means["rho_ee"], np.array(manual))
    np.testing.assert_allclose(manual, ref, rtol=0, atol=1e-12)


def _manual_diffusive_trajectory(kind, model, spec, state0, stepper):
    """rho_ee of trajectory 0 stepped by hand on its substream: through the
    compiled kernel on the coordinates, as the ensemble runs it at d = 2, and
    through the per-state ``stepper``."""
    zs = trajectory_rng(spec.master_seed, 0).standard_normal(spec.n_steps)
    kernel = diffusive_kernel(model, kind, spec.dt)
    row = to_coords(spec.observables[0][1])[None]
    r, rho_ref = to_coords(state0[None]), state0
    manual, ref = [(row @ r)[0, 0]], [rho_ref[0, 0].real]
    for k in range(spec.n_steps):
        dw = zs[k] * np.sqrt(spec.dt)
        r, _ = diffusive_kernel_step(kernel, r, np.array([dw]))
        rho_ref, _ = stepper(rho_ref, model, spec.dt, dw)
        manual.append((row @ r)[0, 0])
        ref.append(rho_ref[0, 0].real)
    return np.array(manual), np.array(ref)


def test_single_trajectory_bit_for_bit_homodyne(qubit_ops, decay_model, excited):
    spec = qubit_spec(qubit_ops, n_traj=1)
    stats = run_ensemble(spec, Scenario("homodyne", decay_model, excited))
    manual, ref = _manual_diffusive_trajectory(
        "homodyne", decay_model, spec, excited, homodyne_sme_step
    )
    np.testing.assert_array_equal(stats.means["rho_ee"], manual)
    np.testing.assert_allclose(manual, ref, rtol=0, atol=1e-12)


def test_single_trajectory_bit_for_bit_homodyne_kraus(qubit_ops, excited):
    # a Hamiltonian and finite efficiency exercise every term of the Kraus map
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])],
                            efficiency=0.8)
    spec = qubit_spec(qubit_ops, n_traj=1)
    stats = run_ensemble(spec, Scenario("homodyne_kraus", model, excited))
    manual, ref = _manual_diffusive_trajectory(
        "homodyne_kraus", model, spec, excited, homodyne_kraus_step
    )
    np.testing.assert_array_equal(stats.means["rho_ee"], manual)
    np.testing.assert_allclose(manual, ref, rtol=0, atol=1e-12)


def test_single_trajectory_bit_for_bit_gaussian():
    model = opo_model(0.2, 1.0, 1.0)
    spec = EnsembleSpec(
        n_traj=1, master_seed=17, dt=1e-3, t_final=0.3,
        observables=(("q", None), ("p", None)),
    )
    stats = run_ensemble(spec, Scenario("gaussian", model, GaussianState.vacuum(1)))
    rng = trajectory_rng(17, 0)
    zs = rng.standard_normal(spec.n_steps * 2).reshape(spec.n_steps, 2)
    state = GaussianState.vacuum(1)
    manual_q = [state.mean[0]]
    for k in range(spec.n_steps):
        state, _ = conditional_step(state, model, spec.dt, zs[k] * np.sqrt(spec.dt))
        manual_q.append(state.mean[0])
    np.testing.assert_allclose(stats.means["q"], np.array(manual_q), rtol=0, atol=1e-15)


def _gaussian_reference(spec, scenario):
    """The conditional means stepped one time step at a time, as the ensemble
    did before its chunked affine steps: on the covariance path of
    ``covariance_path``, for every step one Euler-Maruyama update of all
    trajectories with the feedback terms added separately.  The moments are
    taken over all trajectories at once and two-pass: the SE as
    np.std(ddof=1) / sqrt(n), the spreads of x and x^2 as np.var."""
    model = scenario.model
    n, m, n_steps, dt = spec.n_traj, model.n_currents, spec.n_steps, spec.dt
    covs = covariance_path(model, scenario.initial_state.cov, dt, n_steps)
    noise = _noise_matrix(spec.master_seed, 0, n, n_steps * m, "normal")
    comp = [model.labels.index(name) for name, _ in spec.observables]
    states = np.empty((n, n_steps + 1, model.dim))
    records = np.empty((n, n_steps, m))
    ckind, cmat = scenario.controller if scenario.controller else ("none", None)
    fk = scenario.f_mat @ np.atleast_2d(cmat) if ckind == "lqg" else None
    fm = scenario.f_mat @ np.atleast_2d(cmat) if ckind == "markovian" else None
    means = np.broadcast_to(scenario.initial_state.mean, (n, model.dim)).copy()
    states[:, 0] = means
    for k in range(n_steps):
        dw = noise[:, k * m:(k + 1) * m] * np.sqrt(dt)
        gain = model.E - covs[k] @ model.B
        dy = -np.sqrt(2.0) * dt * (means @ model.B) + dw
        new = means + (means @ model.A.T) * dt + (dw @ gain.T) / np.sqrt(2.0)
        if fk is not None:
            new = new - (means @ fk.T) * dt
        if fm is not None:
            new = new + dy @ fm.T
        records[:, k] = dy
        means = new
        states[:, k + 1] = means
    x = states[:, :, comp]
    return dict(covs=covs, mean=x.mean(axis=0), se=np.std(x, axis=0, ddof=1) / np.sqrt(n),
                var_x=np.var(x, axis=0), var_x2=np.var(x**2, axis=0), states=states,
                records=records)


def gaussian_case(name, controller, mean0=None):
    """(model, scenario) of the OPO or the two-mode model from vacuum, or from
    the means ``mean0``, under no feedback or the Markovian or LQG gain with
    F = I."""
    model = opo_model(0.2, 1.0, 1.0) if name == "opo" else two_mode_model()
    state0 = GaussianState.vacuum(model.n_modes)
    if mean0 is not None:
        state0 = GaussianState(np.asarray(mean0, dtype=float), state0.cov)
    f_mat = np.eye(model.dim)
    if controller == "markovian":
        ctrl = ("markovian", markovian_gain(model, f_mat).gain)
    elif controller == "lqg":
        ctrl = ("lqg", lqg_gain(model, f_mat, np.eye(model.dim), np.eye(model.dim)).gain)
    else:
        ctrl, f_mat = None, None
    return model, Scenario("gaussian", model, state0, f_mat=f_mat, controller=ctrl)


def assert_agrees(new, ref):
    """|new - ref| <= 1e-12 max(1, |ref|) elementwise."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    bound = 1e-12 * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(new - ref) <= bound), float(np.max(np.abs(new - ref) / bound))


@pytest.mark.parametrize("steps", ["one", "below_chunk", "chunk", "above_chunk", "long"])
@pytest.mark.parametrize("controller", ["none", "markovian", "lqg"])
@pytest.mark.parametrize("name", ["opo", "two_mode"])
def test_gaussian_chunked_steps_match_per_step_loop(name, controller, steps):
    # 150 trajectories in blocks of 64 leave a ragged block of 22; the step
    # counts straddle the chunk length of a full block
    model, scenario = gaussian_case(name, controller)
    chunk = ensemble.CHUNK_BUFFER_BYTES // (8 * 64 * max(model.dim, model.n_currents))
    n_steps = {"one": 1, "below_chunk": chunk - 1, "chunk": chunk, "above_chunk": chunk + 1,
               "long": 2500}[steps]
    spec = EnsembleSpec(
        n_traj=150, master_seed=23, dt=1e-3, t_final=n_steps * 1e-3, block_size=64,
        observables=tuple((label, None) for label in model.labels),
        store_states=True, store_records=True,
    )
    assert spec.n_steps == n_steps
    stats = run_ensemble(spec, scenario)
    ref = _gaussian_reference(spec, scenario)
    np.testing.assert_array_equal(stats.extra["cov_path"], ref["covs"])
    for j, label in enumerate(model.labels):
        assert_agrees(stats.means[label], ref["mean"][:, j])
        assert_agrees(stats.std_errs[label], ref["se"][:, j])
        assert_agrees(stats.extra["var_x"][label], ref["var_x"][:, j])
        assert_agrees(stats.extra["var_x2"][label], ref["var_x2"][:, j])
    assert_agrees(stats.states, ref["states"])
    assert_agrees(stats.records, ref["records"])


@pytest.mark.parametrize("controller", ["none", "markovian", "lqg"])
def test_gaussian_displaced_start_matches_per_step_loop(controller):
    # every trajectory starts at the same displaced mean, so the spread starts
    # far below the mean; the reference's SE is two-pass
    model, scenario = gaussian_case("two_mode", controller, mean0=[0.3, -0.2, 0.1, 0.5])
    spec = EnsembleSpec(
        n_traj=150, master_seed=31, dt=1e-3, t_final=0.6, block_size=64,
        observables=tuple((label, None) for label in model.labels),
        store_states=True, store_records=True,
    )
    stats = run_ensemble(spec, scenario)
    ref = _gaussian_reference(spec, scenario)
    for j, label in enumerate(model.labels):
        assert_agrees(stats.means[label], ref["mean"][:, j])
        assert_agrees(stats.std_errs[label], ref["se"][:, j])
        assert_agrees(stats.extra["var_x"][label], ref["var_x"][:, j])
        assert_agrees(stats.extra["var_x2"][label], ref["var_x2"][:, j])
    assert_agrees(stats.states, ref["states"])
    assert_agrees(stats.records, ref["records"])


@pytest.mark.parametrize("controller", ["none", "markovian", "lqg"])
def test_gaussian_se_matches_two_pass_oracle(controller):
    model, scenario = gaussian_case("two_mode", controller, mean0=[0.3, -0.2, 0.1, 0.5])
    spec = EnsembleSpec(
        n_traj=150, master_seed=37, dt=1e-3, t_final=0.3, block_size=64,
        observables=tuple((label, None) for label in model.labels), store_states=True,
    )
    stats = run_ensemble(spec, scenario)
    oracle = np.std(stats.states, axis=0, ddof=1) / np.sqrt(spec.n_traj)
    for j, label in enumerate(model.labels):
        np.testing.assert_allclose(stats.std_errs[label], oracle[:, j], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("controller", ["none", "markovian", "lqg"])
def test_gaussian_displaced_by_1e8_keeps_its_se(controller):
    # the deviations from the ensemble mean do not depend on the start's mean.
    # From vacuum the spread starts near 1e-7, below the spacing of doubles at
    # 1e8; a thermal start (3 times the vacuum covariance) spreads at once
    runs = []
    for shift in (0.0, 1e8):
        model, scenario = gaussian_case("two_mode", controller)
        scenario.initial_state = GaussianState(np.full(4, shift), 3 * scenario.initial_state.cov)
        spec = EnsembleSpec(
            n_traj=300, master_seed=41, dt=1e-3, t_final=0.5, block_size=64,
            observables=tuple((label, None) for label in model.labels),
        )
        runs.append(run_ensemble(spec, scenario))
    for label in model.labels:
        se, shifted = runs[0].std_errs[label][1:], runs[1].std_errs[label][1:]
        assert np.all(se > 0.0)
        assert np.max(np.abs(shifted - se) / se) <= 1e-5


@pytest.mark.parametrize("controller", ["none", "markovian", "lqg"])
def test_unconditional_variance_displaced_by_1e8_matches_two_pass_oracle(controller):
    # unc_var_<x> = sigma_xx + 2 Var(x) and its SE 2 sqrt(Var(x^2) / n), both
    # from centred sums; from raw moments they cancel at a start displaced by
    # 1e8.  As in the test above, a thermal start spreads every quadrature at
    # once.  The oracle is two-pass on the values less the first trajectory's:
    # the shift is exact (Sterbenz), and it keeps the mean's rounding at the
    # scale of the spread, where np.var of x^2 ~ 1e16 is off by 1e-11 relative
    model, scenario = gaussian_case("two_mode", controller)
    scenario.initial_state = GaussianState(np.full(4, 1e8), 3 * scenario.initial_state.cov)
    spec = EnsembleSpec(
        n_traj=300, master_seed=43, dt=1e-3, t_final=0.5, block_size=64,
        observables=tuple((label, None) for label in model.labels), store_states=True,
    )
    stats = run_ensemble(spec, scenario)
    for j, label in enumerate(model.labels):
        x = stats.states[:, :, j]
        var_x, var_x2 = (np.var(y - y[0], axis=0) for y in (x, x**2))
        mean, se = _columns([f"unc_var_{label}"], stats, model)[f"unc_var_{label}"]
        assert_agrees(mean, stats.extra["cov_path"][:, j, j] + 2.0 * var_x)
        assert_agrees(se, 2.0 * np.sqrt(var_x2 / spec.n_traj))


@pytest.mark.parametrize("controller", ["none", "markovian", "lqg"])
@pytest.mark.parametrize("name", ["opo", "two_mode"])
def test_gaussian_thread_count_invariance(name, controller):
    model, scenario = gaussian_case(name, controller)
    kw = dict(n_traj=150, master_seed=29, dt=1e-3, t_final=0.6, block_size=64,
              observables=tuple((label, None) for label in model.labels),
              store_states=True, store_records=True)
    s1 = run_ensemble(EnsembleSpec(threads=1, **kw), scenario)
    s8 = run_ensemble(EnsembleSpec(threads=8, **kw), scenario)
    for label in model.labels:
        np.testing.assert_array_equal(s1.means[label], s8.means[label])
        np.testing.assert_array_equal(s1.std_errs[label], s8.std_errs[label])
        np.testing.assert_array_equal(s1.extra["var_x2"][label], s8.extra["var_x2"][label])
    np.testing.assert_array_equal(s1.states, s8.states)
    np.testing.assert_array_equal(s1.records, s8.records)


def kind_scenario(kind, qubit_ops):
    """A driven decaying qubit set up for ``kind``: a thermal bath for the
    generalized kinds, a feedback operator for the feedback kinds, |e> as a
    state vector for the SSE."""
    bath = BathSpec(n_thermal=0.5) if kind.startswith("generalized") else BathSpec()
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])],
                            bath=bath)
    state0 = np.array([1.0, 0.0], dtype=complex)
    if kind != "jump_sse":
        state0 = np.outer(state0, state0)
    f_op = 0.4 * qubit_ops["sigma_x"] if kind.endswith("feedback") else None
    return Scenario(kind, model, state0, feedback_operator=f_op, mu=0.2, beta_ost=0.8)


def boson_scenario(kind, dim):
    """The d = ``dim`` analogue of ``kind_scenario``: a driven decaying mode
    started in Fock level 1."""
    ops = build_standard_ops("boson", dim)
    bath = BathSpec(n_thermal=0.5) if kind.startswith("generalized") else BathSpec()
    model = OpenSystemModel(0.3 * ops["q"], [(1.0, ops["a"])], bath=bath)
    state0 = np.eye(dim, dtype=complex)[1]
    if kind != "jump_sse":
        state0 = np.outer(state0, state0)
    f_op = 0.4 * ops["q"] if kind.endswith("feedback") else None
    return Scenario(kind, model, state0, feedback_operator=f_op, mu=0.2, beta_ost=0.8)


def dim_case(kind, dim, qubit_ops):
    """The scenario and observables of ``kind`` at d = 2 (qubit) or above (boson)."""
    if dim == 2:
        return kind_scenario(kind, qubit_ops), (("obs", qubit_ops["projector_e"]),)
    return boson_scenario(kind, dim), (("obs", build_standard_ops("boson", dim)["n"]),)


@pytest.mark.parametrize("kind, dim", [
    pytest.param(kind, dim, id=kind if dim == 2 else f"{kind}-d{dim}")
    for dim in (2, BATCH_GEMM_MAX_DIM + 1) for kind in HILBERT_KINDS
])
def test_thread_count_invariance(qubit_ops, kind, dim):
    # at d = 5 the blocks that run concurrently each step their own work buffers
    scenario, observables = dim_case(kind, dim, qubit_ops)
    kw = dict(n_traj=150, block_size=64, t_final=0.1, store_records=True, observables=observables)
    s1 = run_ensemble(qubit_spec(qubit_ops, threads=1, **kw), scenario)
    s8 = run_ensemble(qubit_spec(qubit_ops, threads=8, **kw), scenario)
    np.testing.assert_array_equal(s1.means["obs"], s8.means["obs"])
    np.testing.assert_array_equal(s1.std_errs["obs"], s8.std_errs["obs"])
    np.testing.assert_array_equal(s1.records, s8.records)


def two_pass_se(kind, states, op):
    """The SE oracle from stored states, two-pass: np.std(ddof=1) / sqrt(n) of
    the values y = tr(rho A) for normalized kinds, and sqrt(sum (y - m w)^2) / W
    with w = tr rho_bar, W = sum w and m = sum y / W for linear kinds."""
    if KINDS[kind].pure:
        y = np.einsum("nti,ij,ntj->nt", np.conj(states), op, states).real
    else:
        y = np.einsum("ntij,ji->nt", states, op).real
    if not KINDS[kind].linear:
        return np.std(y, axis=0, ddof=1) / np.sqrt(len(y))
    w = np.einsum("ntii->nt", states).real
    big_w = w.sum(axis=0)
    return np.sqrt(((y - y.sum(axis=0) / big_w * w) ** 2).sum(axis=0)) / big_w


@pytest.mark.parametrize("kind, dim", [
    pytest.param(kind, dim, id=kind if dim == 2 else f"{kind}-d{dim}")
    for dim in (2, BATCH_GEMM_MAX_DIM + 1) for kind in HILBERT_KINDS
])
def test_se_matches_two_pass_oracle(qubit_ops, kind, dim):
    # 150 trajectories in blocks of 64: the SE of the merged block statistics
    # is the two-pass SE of all trajectories
    scenario, observables = dim_case(kind, dim, qubit_ops)
    spec = qubit_spec(qubit_ops, n_traj=150, block_size=64, t_final=0.1, store_states=True,
                      observables=observables)
    stats = run_ensemble(spec, scenario)
    oracle = two_pass_se(kind, stats.states, observables[0][1])
    np.testing.assert_allclose(stats.std_errs["obs"], oracle, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", ["homodyne", "linear_homodyne"])
def test_offset_observable_keeps_its_se(qubit_ops, kind):
    # A + 1e8 I has the spread of A: a variance taken as sum2/n - mean^2 of
    # values near 1e8 cancelled, and the SE read exactly 0 at most grid points.
    # From |+> the populations spread from the first step on
    plus = np.full((2, 2), 0.5, dtype=complex)
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])])
    proj = qubit_ops["projector_e"]
    spec = qubit_spec(qubit_ops, n_traj=300, t_final=0.5, block_size=64,
                      observables=(("a", proj), ("shifted", proj + 1e8 * np.eye(2))))
    stats = run_ensemble(spec, Scenario(kind, model, plus, mu=0.2))
    se, shifted = stats.std_errs["a"][1:], stats.std_errs["shifted"][1:]
    assert np.all(se > 0.0)
    assert np.max(np.abs(shifted - se) / se) <= 1e-5


def test_se_scaling(qubit_ops, decay_model, excited):
    small = run_ensemble(qubit_spec(qubit_ops, n_traj=500, master_seed=1),
                         Scenario("homodyne", decay_model, excited))
    large = run_ensemble(qubit_spec(qubit_ops, n_traj=2000, master_seed=1),
                         Scenario("homodyne", decay_model, excited))
    ratio = small.std_errs["rho_ee"][-1] / large.std_errs["rho_ee"][-1]
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_compare_to_me_identical_and_shifted(qubit_ops, decay_model, excited):
    spec = qubit_spec(qubit_ops, n_traj=400)
    stats = run_ensemble(spec, Scenario("jump", decay_model, excited))
    ref = {"rho_ee": stats.means["rho_ee"].copy()}
    report = compare_to_me(stats, ref)
    assert report.max_abs_z == 0.0 and report.passed
    shifted = ref["rho_ee"].copy()
    k = 300
    shifted[k] += 5.0 * stats.std_errs["rho_ee"][k]
    report = compare_to_me(stats, {"rho_ee": shifted}, threshold=4.0)
    assert not report.passed
    assert report.argmax_time_index == k


def test_jump_and_homodyne_agree_through_me(qubit_ops, decay_model, excited):
    spec = qubit_spec(qubit_ops, n_traj=2000, t_final=1.0, master_seed=3)
    ref = np.exp(-spec.t_grid)
    for kind in ("jump", "homodyne"):
        stats = run_ensemble(spec, Scenario(kind, decay_model, excited))
        z = max_z_after(stats, "rho_ee", ref)
        assert z <= 4.0, f"{kind}: max |z| = {z:.2f}"


def test_heterodyne_ensemble_vs_me(qubit_ops, excited):
    model = OpenSystemModel(0.3 * qubit_ops["sigma_x"], [(1.0, qubit_ops["sigma_minus"])])
    spec = EnsembleSpec(
        n_traj=2000, master_seed=8, dt=1e-3, t_final=1.0,
        observables=(("sigma_z", qubit_ops["sigma_z"]),),
    )
    stats = run_ensemble(spec, Scenario("heterodyne", model, excited))
    ref = me_expectations(model, excited, spec.t_grid, [("sigma_z", qubit_ops["sigma_z"])])
    z = max_z_after(stats, "sigma_z", ref["sigma_z"])
    assert z <= 4.0, f"max |z| = {z:.2f}"


def test_sse_ensemble_matches_me(qubit_ops, decay_model):
    spec = EnsembleSpec(
        n_traj=2000, master_seed=12, dt=1e-3, t_final=1.0,
        observables=(("rho_ee", qubit_ops["projector_e"]),),
    )
    psi0 = np.array([1.0, 0.0], dtype=complex)
    stats = run_ensemble(spec, Scenario("jump_sse", decay_model, psi0))
    report = compare_to_me(stats, {"rho_ee": np.exp(-spec.t_grid)}, threshold=4.0)
    assert report.passed, f"max |z| = {report.max_abs_z:.2f}"


def test_linear_jump_weighted_mean_matches_nonlinear(qubit_ops, decay_model, excited):
    # ostensible-weighted linear trajectories and plain nonlinear trajectories
    # estimate the same Lindblad curve
    spec = EnsembleSpec(
        n_traj=4000, master_seed=21, dt=1e-3, t_final=1.0,
        observables=(("rho_ee", qubit_ops["projector_e"]),),
    )
    lin = run_ensemble(spec, Scenario("linear_jump", decay_model, excited, beta_ost=1.0))
    assert lin.ess is not None and lin.ess.min() > 0
    assert lin.ess.max() <= spec.n_traj * (1 + 1e-12)
    z = max_z_after(lin, "rho_ee", np.exp(-spec.t_grid))
    assert z <= 4.0, f"max |z| = {z:.2f}"


def test_linear_homodyne_weighted_mean(qubit_ops, decay_model, excited):
    spec = EnsembleSpec(
        n_traj=4000, master_seed=22, dt=1e-3, t_final=1.0,
        observables=(("rho_ee", qubit_ops["projector_e"]),),
    )
    lin = run_ensemble(spec, Scenario("linear_homodyne", decay_model, excited, mu=0.0))
    z = max_z_after(lin, "rho_ee", np.exp(-spec.t_grid))
    assert z <= 4.0, f"max |z| = {z:.2f}"


def test_ess_warning_on_weight_collapse(qubit_ops, decay_model, excited):
    # a strongly mismatched ostensible rate makes the weights collapse
    spec = EnsembleSpec(
        n_traj=200, master_seed=23, dt=1e-3, t_final=3.0,
        observables=(("rho_ee", qubit_ops["projector_e"]),),
    )
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        stats = run_ensemble(spec, Scenario("linear_jump", decay_model, excited, beta_ost=8.0))
    assert stats.ess.min() < 0.01 * spec.n_traj


def test_homodyne_feedback_ensemble_vs_feedback_me(qubit_ops, excited):
    # Monte Carlo vs deterministic oracle: the trajectory average solves the
    # unconditional feedback master equation
    from contmon.diffusive import feedback_me_rhs

    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], efficiency=0.8)
    f_op = 0.4 * qubit_ops["sigma_x"]
    spec = EnsembleSpec(
        n_traj=3000, master_seed=37, dt=1e-3, t_final=1.5,
        observables=(("rho_ee", qubit_ops["projector_e"]),),
    )
    stats = run_ensemble(spec, Scenario("homodyne_feedback", model, excited, feedback_operator=f_op))
    # RK4 integration of the feedback generator
    rho = excited
    ref = [rho[0, 0].real]
    for _ in range(spec.n_steps):
        k1 = feedback_me_rhs(rho, model, f_op)
        k2 = feedback_me_rhs(rho + 0.5 * spec.dt * k1, model, f_op)
        k3 = feedback_me_rhs(rho + 0.5 * spec.dt * k2, model, f_op)
        k4 = feedback_me_rhs(rho + spec.dt * k3, model, f_op)
        rho = rho + (spec.dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ref.append(rho[0, 0].real)
    z = max_z_after(stats, "rho_ee", np.array(ref))
    assert z <= 3.0, f"max |z| = {z:.2f}"


def test_generalized_homodyne_ensemble_vs_me(qubit_ops, excited):
    model = OpenSystemModel(
        np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], bath=BathSpec(n_thermal=1.0)
    )
    spec = EnsembleSpec(
        n_traj=2000, master_seed=31, dt=1e-3, t_final=1.5,
        observables=(("rho_ee", qubit_ops["projector_e"]),),
    )
    stats = run_ensemble(spec, Scenario("generalized_homodyne", model, excited))
    ref = me_expectations(model, excited, spec.t_grid, [("rho_ee", qubit_ops["projector_e"])])
    z = max_z_after(stats, "rho_ee", ref["rho_ee"])
    assert z <= 4.0, f"max |z| = {z:.2f}"
    # sanity: the thermal steady population is N/(2N+1) = 1/3
    assert abs(ref["rho_ee"][-1] - 1.0 / 3.0) < 0.02


def test_homodyne_opo_tracks_gaussian_prediction(excited):
    # cross-module oracle: mean <q^2> of Hilbert-space homodyne trajectories of
    # the OPO follows sigma_unc_qq(t)/2 from the Gaussian moment equations
    from contmon import build_standard_ops
    from contmon.gaussian import unconditional_moment_rhs

    dim = 20
    ops = build_standard_ops("boson", dim)
    chi, kappa = 0.15, 1.0
    h = -0.5 * chi * (ops["q"] @ ops["p"] + ops["p"] @ ops["q"])
    model = OpenSystemModel(h, [(kappa, ops["a"])])
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    q2 = ops["q"] @ ops["q"]
    spec = EnsembleSpec(
        n_traj=400, master_seed=41, dt=2e-3, t_final=1.5,
        observables=(("q2", q2),), block_size=400,
    )
    stats = run_ensemble(spec, Scenario("homodyne", model, rho0))

    gmodel = opo_model(chi, kappa, 1.0)
    cov = np.eye(2)
    ref = [cov[0, 0] / 2.0]
    state = GaussianState(np.zeros(2), cov)
    for _ in range(spec.n_steps):
        _, dsdt = unconditional_moment_rhs(gmodel, state)
        state = GaussianState(state.mean, state.cov + dsdt * spec.dt)
        ref.append(state.cov[0, 0] / 2.0)
    z = max_z_after(stats, "q2", np.array(ref), skip=25)
    assert z <= 3.0, f"max |z| = {z:.2f}"


def test_gaussian_ensemble_excess_noise_cross_check():
    # ensemble covariance of the conditional means at large times equals the
    # Lyapunov excess-noise solution (closed-loop LQG)
    model = opo_model(0.2, 1.0, 1.0)
    res = lqg_gain(model, np.eye(2), np.diag([1.0, 0.0]), np.eye(2))
    spec = EnsembleSpec(
        n_traj=4000, master_seed=51, dt=1e-3, t_final=8.0,
        observables=(("q", None), ("p", None)), store_states=True,
    )
    scen = Scenario("gaussian", model, GaussianState.vacuum(1),
                    f_mat=np.eye(2), controller=("lqg", res.gain))
    stats = run_ensemble(spec, scen)
    q_tail = stats.states[:, -1, 0]
    sigma_hat = 2.0 * np.mean(q_tail**2)
    se = 2.0 * np.std(q_tail**2) / np.sqrt(spec.n_traj)
    sigma_ref = excess_noise_ss(model, np.eye(2), res.gain)[0, 0]
    assert abs(sigma_hat - sigma_ref) <= 3.0 * se


def test_gaussian_markovian_noise_cancellation():
    # with the optimal Markovian gain the conditional means stay exactly at zero
    from contmon.gaussian import markovian_gain

    model = opo_model(0.2, 1.0, 1.0)
    gain = markovian_gain(model, np.eye(2)).gain
    spec = EnsembleSpec(
        n_traj=50, master_seed=61, dt=1e-3, t_final=2.0,
        observables=(("q", None), ("p", None)),
    )
    # start at the conditional steady state: there the measurement noise is
    # cancelled exactly (during transients it is only cancelled asymptotically)
    state0 = GaussianState(np.zeros(2), riccati_steady_state(model))
    scen = Scenario("gaussian", model, state0,
                    f_mat=np.eye(2), controller=("markovian", gain))
    stats = run_ensemble(spec, scen)
    assert np.max(np.abs(stats.means["q"])) < 1e-12
    assert np.max(np.abs(stats.std_errs["q"])) < 1e-12


def test_positivity_tracking_kraus_clean(qubit_ops, decay_model, excited):
    spec = qubit_spec(qubit_ops, n_traj=100, track_min_eigenvalue=True)
    stats = run_ensemble(spec, Scenario("homodyne_kraus", decay_model, excited))
    assert stats.positivity_violations == 0
    assert stats.min_eigenvalue >= -1e-12


def test_physicality_abort(qubit_ops, excited):
    # a deliberately unstable Euler run must abort with the offending step index
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])])
    spec = EnsembleSpec(
        n_traj=64, master_seed=71, dt=0.2, t_final=40.0,
        observables=(("rho_ee", qubit_ops["projector_e"]),), validate_every=1,
    )
    with pytest.raises(PhysicalityError) as err:
        run_ensemble(spec, Scenario("homodyne", model, excited))
    assert err.value.step >= 0


@pytest.mark.parametrize("kind", HILBERT_KINDS)
def test_records_storage(qubit_ops, kind):
    spec = qubit_spec(qubit_ops, n_traj=20, t_final=0.05, store_records=True)
    stats = run_ensemble(spec, kind_scenario(kind, qubit_ops))
    if "jump" in kind:  # click outcomes
        assert stats.records.shape == (20, spec.n_steps)
        assert stats.records.dtype == np.uint8
        assert set(np.unique(stats.records)) <= {0, 1}
    elif kind.endswith("heterodyne"):  # two currents
        assert stats.records.shape == (20, spec.n_steps, 2)
        assert stats.records.dtype == float
    else:
        assert stats.records.shape == (20, spec.n_steps)
        assert stats.records.dtype == float


# the ensemble-layer entry points of each kind, at every dimension: the kernel
# is compiled once per block and stepped once per step and block; jump_sse
# steps state vectors through its per-state entry points
CLICK_KERNEL = {"click_kernel": "block", "click_kernel_step": "step"}
DIFFUSIVE_KERNEL = {"diffusive_kernel": "block", "diffusive_kernel_step": "step"}
KERNEL_ENTRY_POINTS = {
    kind: CLICK_KERNEL if KINDS[kind].clicks else DIFFUSIVE_KERNEL for kind in HILBERT_KINDS
}
KERNEL_ENTRY_POINTS["jump_sse"] = dict.fromkeys(
    ("sse_jump_probability", "click_outcomes", "jump_sse_apply"), "step"
)


class CountingModule:
    """Stands in for a module: its public functions count their calls."""

    def __init__(self, module, counts):
        for name in module.__all__:
            fn = getattr(module, name)
            if callable(fn) and not isinstance(fn, type):
                setattr(self, name, self._counted(name, fn, counts))
        self._module = module

    @staticmethod
    def _counted(name, fn, counts):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __getattr__(self, name):
        return getattr(self._module, name)


def _count_stepper_calls(spec, scenario, monkeypatch):
    from collections import Counter

    from contmon import diffusive, ensemble, jump

    counts = Counter()
    monkeypatch.setattr(ensemble, "jump", CountingModule(jump, counts))
    monkeypatch.setattr(ensemble, "diffusive", CountingModule(diffusive, counts))
    run_ensemble(spec, scenario)
    return dict(counts)


def _assert_entry_points(kind, dim, qubit_ops, monkeypatch):
    # a profiler that swaps ensemble.jump / ensemble.diffusive for wrapped
    # modules must see every stepper call, so the steps may not bind them early
    scenario, observables = dim_case(kind, dim, qubit_ops)
    spec = qubit_spec(qubit_ops, n_traj=10, t_final=0.005, block_size=4,
                      observables=observables)
    counts = _count_stepper_calls(spec, scenario, monkeypatch)
    n_blocks = -(-spec.n_traj // spec.block_size)
    per = {"block": n_blocks, "step": n_blocks * spec.n_steps}
    assert KERNEL_ENTRY_POINTS.keys() == set(HILBERT_KINDS)
    assert counts == {name: per[when] for name, when in KERNEL_ENTRY_POINTS[kind].items()}


@pytest.mark.parametrize("kind", HILBERT_KINDS)
def test_steppers_called_through_module_attributes(qubit_ops, kind, monkeypatch):
    _assert_entry_points(kind, 2, qubit_ops, monkeypatch)


@pytest.mark.parametrize("kind", HILBERT_KINDS)
def test_per_state_steppers_called_above_kernel_dim(qubit_ops, kind, monkeypatch):
    # the name predates the right-product kernels: above BATCH_GEMM_MAX_DIM
    # the entry points are the kernels too, and only jump_sse steps per state
    _assert_entry_points(kind, BATCH_GEMM_MAX_DIM + 1, qubit_ops, monkeypatch)


@pytest.mark.parametrize("kind", [k for k in HILBERT_KINDS if not KINDS[k].pure])
def test_right_kernel_step_allocates_no_state_sized_array(kind):
    # a d = 12 block of B = 256 states through Kind.kernel: after the warm-up
    # step has allocated the block's work buffers, the traced peak is the same
    # over 5 and 50 steps, below 6 state-sized arrays, and no step allocates a
    # state-sized temporary on top of what is already held
    dim, n, dt = 12, 256, 1e-3
    size = n * dim * dim * 16
    kind_rec = KINDS[kind]
    scenario = boson_scenario(kind, dim)
    state = np.broadcast_to(scenario.initial_state, (n, dim, dim)).copy()
    rng = np.random.default_rng(5)

    def draws():
        shape = (n, kind_rec.draws) if kind_rec.draws > 1 else n
        return rng.random(shape) if kind_rec.clicks else rng.standard_normal(shape) * np.sqrt(dt)

    tracemalloc.start()
    try:
        advance = kind_rec.kernel(scenario, dt)
        state, _ = advance(state, draws())
        peaks, rises = [], []
        for steps in (5, 50):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            for _ in range(steps):
                state, _ = advance(state, draws())
            peak = tracemalloc.get_traced_memory()[1]
            peaks.append(peak)
            rises.append(peak - held)
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) < 6 * size
    assert max(rises) < size, rises


def test_two_point_mode_matches_gaussian_in_mean(qubit_ops, decay_model, excited):
    # the two-point quadrature is a legitimate noise model: the ensemble mean
    # still follows the master equation
    spec = qubit_spec(qubit_ops, n_traj=2000, t_final=1.0, noise="two_point", master_seed=81)
    stats = run_ensemble(spec, Scenario("homodyne", decay_model, excited))
    z = max_z_after(stats, "rho_ee", np.exp(-spec.t_grid))
    assert z <= 4.0, f"max |z| = {z:.2f}"


def test_two_point_rejected_for_jump(qubit_ops, decay_model, excited):
    spec = qubit_spec(qubit_ops, noise="two_point")
    with pytest.raises(ValueError, match="two-point"):
        run_ensemble(spec, Scenario("jump", decay_model, excited))


@pytest.mark.parametrize("field, value", [
    ("block_size", 0), ("block_size", -1), ("threads", 0), ("threads", -3),
])
def test_spec_rejects_non_positive_geometry(qubit_ops, field, value):
    # block_size 0 and -1 used to die inside the block loop (range step zero,
    # an IndexError), and threads 0 or -3 ran serially without a word
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        qubit_spec(qubit_ops, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("dt", np.nan), ("dt", np.inf), ("dt", 0.0), ("t_final", np.nan), ("t_final", np.inf),
])
def test_spec_rejects_non_finite_run_geometry(qubit_ops, field, value):
    # NaN and inf used to pass, and n_steps then died converting NaN to an
    # integer or overflowing
    with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
        qubit_spec(qubit_ops, **{field: value})


@pytest.mark.parametrize("kind, efficiency", [
    ("jump_feedback", 1.0), ("homodyne_feedback", 1.0), ("jump_feedback", 0.5),
], ids=["jump_feedback", "homodyne_feedback", "jump_feedback_eta_0.5"])
def test_feedback_scenario_needs_operator(qubit_ops, excited, kind, efficiency):
    # at efficiency 0.5 jump_feedback has a second unmet need, which must not
    # hide the missing operator
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])],
                            efficiency=efficiency)
    with pytest.raises(ValueError, match="needs a feedback_operator"):
        Scenario(kind, model, excited)


def test_sse_scenario_needs_state_vector(decay_model, excited):
    # a density matrix and a batch of one state vector are both 2-d
    for state in (excited, np.array([[1.0, 0.0]], dtype=complex)):
        with pytest.raises(ValueError, match="initial_state must be 1-d"):
            Scenario("jump_sse", decay_model, state)


@pytest.mark.parametrize("kind, model_kwargs, beta, message", [
    ("jump_sse", dict(efficiency=0.5), 1.0, "the SSE is defined for unit detection efficiency"),
    ("jump", dict(bath=BathSpec(n_thermal=0.5)), 1.0,
     "jump unravelling is defined for vacuum baths only"),
    ("homodyne", dict(bath=BathSpec(n_thermal=0.5)), 1.0,
     "vacuum-bath stepper; use generalized_bath_homodyne_step"),
    ("linear_homodyne", dict(bath=BathSpec(n_thermal=0.5)), 1.0,
     "linear trajectories are defined for vacuum baths"),
    ("linear_jump", {}, -1.0, "ostensible rate beta must be > 0"),
    ("homodyne_feedback", dict(efficiency=0.0), 1.0, "homodyne feedback needs efficiency in (0, 1]"),
], ids=["jump_sse_eta_0.5", "jump_thermal", "homodyne_thermal", "linear_homodyne_thermal",
        "linear_jump_beta_-1", "homodyne_feedback_eta_0"])
def test_scenario_rejects_unmet_needs_at_construction(qubit_ops, kind, model_kwargs, beta, message):
    # each of these used to build and fail only inside run_ensemble; the
    # scenario now raises the message of the kind's kernel or stepper
    model = OpenSystemModel(np.zeros((2, 2)), [(1.0, qubit_ops["sigma_minus"])], **model_kwargs)
    f_op = qubit_ops["sigma_x"] if kind.endswith("_feedback") else None
    psi = np.array([1.0, 0.0], dtype=complex)
    state = psi if kind == "jump_sse" else np.outer(psi, psi)
    with pytest.raises(ValueError) as err:
        Scenario(kind, model, state, feedback_operator=f_op, beta_ost=beta)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        if kind == "jump_sse":
            jump_sse_apply(psi, model, 1e-3, False)
        elif KINDS[kind].clicks:
            click_kernel(model, kind, 1e-3, f_op=f_op, beta=beta)
        else:
            diffusive_kernel(model, kind, 1e-3, f_op=f_op)
    assert str(err.value) == message


@pytest.mark.parametrize("case, message", [
    ("lqr_controller", "unknown controller kind 'lqr' (use 'none', 'lqg' or 'markovian')"),
    ("lqg_f_3x3", "F K must be (2, 2) for this model; F is (3, 3), K is (2, 2)"),
    ("markovian_m_2x3", "F M must be (2, 2) for this model; F is (2, 2), M is (2, 3)"),
    ("two_mode_vacuum", "gaussian initial state needs mean (2,) and covariance (2, 2) for this "
                        "model; got (4,) and (4, 4)"),
], ids=["lqr_controller", "lqg_f_3x3", "markovian_m_2x3", "two_mode_vacuum"])
def test_gaussian_scenario_rejects_misfits_at_construction(case, message):
    # each of these used to build: the "lqr" controller then ran open loop,
    # and the others died inside run_ensemble with a numpy shape error
    model = opo_model(0.2, 1.0, 1.0)
    k_gain = lqg_gain(model, np.eye(2), np.diag([1.0, 0.0]), np.eye(2)).gain
    kwargs = {
        "lqr_controller": dict(f_mat=np.eye(2), controller=("lqr", k_gain)),
        "lqg_f_3x3": dict(f_mat=np.eye(3), controller=("lqg", k_gain)),
        "markovian_m_2x3": dict(f_mat=np.eye(2), controller=("markovian", np.ones((2, 3)))),
        "two_mode_vacuum": {},
    }[case]
    state = GaussianState.vacuum(2 if case == "two_mode_vacuum" else 1)
    with pytest.raises(ValueError) as err:
        Scenario("gaussian", model, state, **kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize("field, value", [("n_traj", 2), ("store_states", True),
                                          ("store_records", True)])
def test_master_equation_kind_runs_one_noise_free_trajectory(qubit_ops, decay_model, excited,
                                                             field, value):
    # one trajectory of weight 1 gives the master equation's expectations
    # exactly, with SE 0; a spec that asks for more is refused up front
    spec = qubit_spec(qubit_ops, n_traj=1, t_final=0.2)
    stats = run_ensemble(spec, Scenario("me", decay_model, excited))
    ref = me_expectations(decay_model, excited, spec.t_grid, spec.observables)["rho_ee"]
    np.testing.assert_array_equal(stats.means["rho_ee"], ref)
    np.testing.assert_array_equal(stats.std_errs["rho_ee"], 0.0)
    spec = qubit_spec(qubit_ops, t_final=0.2, **{"n_traj": 1, field: value})
    with pytest.raises(ValueError, match="me is noise-free: it runs one trajectory"):
        run_ensemble(spec, Scenario("me", decay_model, excited))


def test_traced_benchmark_spans_install_and_restore(monkeypatch):
    # the traced benchmark (perfbench/run.py --trace 1) replaces module
    # attributes by name; a rename here would break it, and tier-1 collects
    # only tests/
    import importlib
    from pathlib import Path

    from contmon import config, diffusive, jump

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    modules = (config, ensemble, jump, diffusive)
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer, *modules)
        patched = {(module.__name__, name) for module, old in zip(modules, before)
                   for name, value in vars(module).items() if old.get(name) is not value}
    finally:
        tracer.restore()
    assert {("contmon.ensemble", "jump"), ("contmon.ensemble", "diffusive"),
            ("contmon.config", "run_ensemble")} <= patched
    for module, old in zip(modules, before):
        now = vars(module)
        assert now.keys() == old.keys()
        assert all(now[name] is value for name, value in old.items()), module.__name__
