"""The benchmark's workloads: lists of scenario documents with their checks.

Each operation is one scenario document run through the program's entry
point.  Its output is read back from the ``stats.csv`` and ``manifest.json``
it wrote and checked against :mod:`oracles`, never against stored output.

Statistical check: every mean passes |mean - ref| <= Z * SE + b at every
grid point.  b = ``allowance`` covers the scheme's discretisation bias, which
a pure z-test would flag on a correct program (after one Euler step from |e>
or a Fock state every trajectory holds the same value, so SE = 0 while the
O(dt^2) bias is not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracles

Z = 5.5
# the short Euler operations and fock3_jump have few trajectories or steps, so
# a smaller z keeps their checks sensitive; see the README's false-alarm bounds
Z_SHORT = 5.0
KRAUS_MIN_EIGENVALUE = -1e-12


@dataclass(frozen=True)
class Expect:
    """One observable's reference curve and the allowance b of its check."""

    observable: str
    reference: object  # callable t_grid -> array
    allowance: float


@dataclass(frozen=True)
class Operation:
    name: str
    doc: dict
    expects: tuple
    kraus: bool = False  # also check min eigenvalue >= -1e-12 with 0 violations
    z: float = Z

    @property
    def n_traj(self) -> int:
        # a deterministic integration counts as one trajectory
        if self.doc.get("unravelling", {}).get("kind", "none") == "none":
            return 1
        return self.doc["run"]["n_traj"]

    @property
    def n_steps(self) -> int:
        run = self.doc["run"]
        return int(round(run["t_final"] / run["dt"]))


@dataclass(frozen=True)
class Workload:
    name: str
    operations: tuple
    probe: str = "full"  # the calibration probe its operation times are scaled by


def _qubit(unravelling, *, dt, t_final, n_traj=1, hamiltonian=(), efficiency=1.0,
           bath=None, feedback=None, run_extra=None):
    doc = {
        "schema_version": 1,
        "system": {"kind": "qubit", "initial_state": "excited"},
        "model": {
            "hamiltonian": list(hamiltonian),
            "channels": [{"rate": 1.0, "op": "sigma_minus"}],
            "efficiency": efficiency,
        },
        "unravelling": unravelling,
        "run": {"dt": dt, "t_final": t_final, "n_traj": n_traj, "seed": 0},
        "output": {"directory": "unused", "observables": ["rho_ee"]},
    }
    if bath:
        doc["model"]["bath"] = bath
    if feedback:
        doc["feedback"] = feedback
    if run_extra:
        doc["run"].update(run_extra)
    return doc


def _boson(unravelling, *, dim, initial_state, dt, t_final, n_traj, observables,
           drive=0.0, run_extra=None):
    doc = {
        "schema_version": 1,
        "system": {"kind": "boson", "dim": dim, "initial_state": initial_state},
        "model": {
            "hamiltonian": [],
            "channels": [{"rate": 1.0, "op": "a"}],
            "bath": {"drive": drive},
        },
        "unravelling": unravelling,
        "run": {"dt": dt, "t_final": t_final, "n_traj": n_traj, "seed": 0},
        "output": {"directory": "unused", "observables": list(observables)},
    }
    if run_extra:
        doc["run"].update(run_extra)
    return doc


OPO = {"chi": 0.2, "kappa": 1.0, "eta": 1.0}
OPO_OBSERVABLES = ["q", "p", "cond_var_q", "cond_var_p", "unc_var_q", "unc_var_p"]


def _opo(unravelling_kind, *, dt, t_final, n_traj=1, feedback=None):
    doc = {
        "schema_version": 1,
        "system": {"kind": "gaussian", "n_modes": 1},
        "model": {"opo": dict(OPO)},
        "unravelling": {"kind": unravelling_kind},
        "run": {"dt": dt, "t_final": t_final, "n_traj": n_traj, "seed": 0},
        "output": {"directory": "unused", "observables": list(OPO_OBSERVABLES)},
    }
    if feedback:
        doc["feedback"] = feedback
    return doc


# ---------------------------------------------------------------------------
# references


def _lindblad_ee(h, channels):
    rho0 = oracles.PROJECTOR_E
    return lambda t: oracles.lindblad_expectation(h, channels, rho0, oracles.PROJECTOR_E, t)


def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _opo_expects(feedback, dt):
    """Means 0 (Euler-Maruyama on a linear SDE has no bias in the mean);
    unc_var within 2 dt of the moment ODE; covariances from RK4 within 1e-9."""
    chi, kappa = OPO["chi"], OPO["kappa"]
    a, d, _, _ = oracles.opo_matrices(chi, kappa)

    solved = {}

    def moments(t):
        key = (t.size, float(t[-1]))
        if key not in solved:
            solved[key] = oracles.opo_q_moments(t, chi, kappa, feedback)
        return solved[key]

    def cond_q(t):
        return moments(t)[0]

    def unc_q(t):
        return moments(t)[1]

    def var_p(t):  # p is unmonitored and unfed: the Lyapunov moment
        return oracles.lyapunov_variance(t, a[1, 1], d[1, 1])

    return (
        Expect("q", _zero, 0.0),
        Expect("p", _zero, 0.0),
        Expect("cond_var_q", cond_q, 1e-9),
        Expect("cond_var_p", var_p, 1e-9),
        Expect("unc_var_q", unc_q, 2.0 * dt),
        Expect("unc_var_p", var_p, 2.0 * dt),
    )


def _workloads():
    decay = oracles.decay
    sx = oracles.SIGMA_X
    sm = oracles.SIGMA_MINUS
    quarter_pi = math.pi / 4.0

    dt_q = 0.01  # d = 2 trajectory operations
    # the Euler jump update from |e> keeps |e> until a click, so its mean is
    # (1 - dt)^{t/dt}: below e^{-t} by at most dt/(2e) ~ 0.18 dt
    b_jump = 0.5 * dt_q

    qubit_jump = Workload(
        "qubit-jump",
        (
            Operation("qubit_decay_jump", _qubit(
                {"kind": "jump", "stepper": "euler"}, dt=dt_q, t_final=3.0, n_traj=4096),
                (Expect("rho_ee", decay, b_jump),)),
            Operation("qubit_decay_jump_kraus", _qubit(
                {"kind": "jump", "stepper": "kraus"}, dt=dt_q, t_final=3.0, n_traj=2048,
                run_extra={"track_min_eigenvalue": True}),
                (Expect("rho_ee", decay, b_jump),), kraus=True),
            Operation("qubit_decay_linear_jump", _qubit(
                {"kind": "jump", "linear": True}, dt=dt_q, t_final=3.0, n_traj=2048),
                (Expect("rho_ee", decay, b_jump),)),
            Operation("qubit_pd_feedback", _qubit(
                {"kind": "jump"}, dt=dt_q, t_final=2.0, n_traj=2048,
                feedback={"kind": "markovian", "operator": [{"op": "sigma_x", "coeff": quarter_pi}]}),
                (Expect("rho_ee", _lindblad_ee(
                    np.zeros((2, 2)), [(1.0, oracles.jump_feedback_channel(sm, quarter_pi * sx))]),
                    b_jump),)),
            Operation("qubit_driven_jump_eta08", _qubit(
                {"kind": "jump"}, dt=dt_q, t_final=3.0, n_traj=2048, efficiency=0.8,
                hamiltonian=[{"op": "sigma_x", "coeff": 0.3}]),
                (Expect("rho_ee", _lindblad_ee(0.3 * sx, [(1.0, sm)]), b_jump),)),
        ),
        probe="small",
    )

    # the Euler diffusive kinds are not positivity preserving: from |e> at
    # dt = 1e-3 their states dip to min eigenvalue -0.3 ... -0.8 by t = 1.5,
    # and at dt = 5e-3 some runs abort (PhysicalityError, "state collapsed").
    # Short runs at the presets' dt stay near -0.2.
    dt_e, t_e, n_e = 1e-3, 0.15, 1024
    b_euler = 1.0 * dt_e
    fb_h, fb_channels = oracles.homodyne_feedback_channels(sm, 0.4 * sx, 1.0, 0.8)
    qubit_diffusive = Workload(
        "qubit-diffusive",
        (
            Operation("qubit_homodyne_kraus", _qubit(
                {"kind": "homodyne", "stepper": "kraus"}, dt=dt_q, t_final=3.0, n_traj=2048,
                run_extra={"track_min_eigenvalue": True}),
                (Expect("rho_ee", decay, b_jump),), kraus=True),
            Operation("qubit_homodyne_euler", _qubit(
                {"kind": "homodyne"}, dt=dt_e, t_final=t_e, n_traj=n_e),
                (Expect("rho_ee", decay, b_euler),), z=Z_SHORT),
            Operation("qubit_heterodyne", _qubit(
                {"kind": "heterodyne"}, dt=dt_e, t_final=t_e, n_traj=n_e),
                (Expect("rho_ee", decay, b_euler),), z=Z_SHORT),
            Operation("qubit_linear_homodyne", _qubit(
                {"kind": "homodyne", "linear": True}, dt=dt_e, t_final=t_e, n_traj=n_e),
                (Expect("rho_ee", decay, b_euler),), z=Z_SHORT),
            Operation("qubit_homodyne_feedback", _qubit(
                {"kind": "homodyne"}, dt=dt_e, t_final=t_e, n_traj=n_e, efficiency=0.8,
                feedback={"kind": "markovian", "operator": [{"op": "sigma_x", "coeff": 0.4}]}),
                (Expect("rho_ee", _lindblad_ee(fb_h, fb_channels), b_euler),), z=Z_SHORT),
            Operation("thermal_bath_homodyne", _qubit(
                {"kind": "homodyne"}, dt=dt_e, t_final=t_e, n_traj=n_e,
                bath={"n_thermal": 1.0}),
                (Expect("rho_ee", lambda t: oracles.thermal_population(t, 1.0), b_euler),),
                z=Z_SHORT),
            Operation("squeezed_vacuum_homodyne", _qubit(
                {"kind": "homodyne", "bath_mode": "replaced_operator"}, dt=dt_e, t_final=t_e,
                n_traj=n_e, bath={"n_thermal": 0.5, "squeezing": "squeezed_vacuum"}),
                (Expect("rho_ee", lambda t: oracles.thermal_population(t, 0.5), b_euler),),
                z=Z_SHORT),
        ),
        probe="small",
    )

    dt_b, t_b = 0.01, 0.6
    beta = 0.5
    boson_d12 = Workload(
        "boson-d12",
        (
            Operation("coherent_drive", _boson(
                {"kind": "homodyne"}, dim=12, initial_state="vacuum", dt=dt_b, t_final=t_b,
                n_traj=1024, observables=["n", "q"], drive=beta),
                # conditional states stay coherent (SE ~ 1e-5), so the Euler bias
                # (~0.1 dt) sets the tolerance
                (Expect("n", lambda t: oracles.coherent_moments(t, beta)[0], 0.5 * dt_b),
                 Expect("q", lambda t: oracles.coherent_moments(t, beta)[1], 0.5 * dt_b))),
            Operation("fock3_homodyne_kraus", _boson(
                {"kind": "homodyne", "stepper": "kraus"}, dim=12, initial_state={"fock": 3},
                dt=dt_b, t_final=t_b, n_traj=1024, observables=["n"],
                run_extra={"track_min_eigenvalue": True}),
                (Expect("n", lambda t: oracles.fock_decay(t, 3), 3.0 * dt_b),), kraus=True),
            Operation("fock3_jump", _boson(
                {"kind": "jump"}, dim=12, initial_state={"fock": 3}, dt=dt_b, t_final=t_b,
                n_traj=1024, observables=["n"]),
                (Expect("n", lambda t: oracles.fock_decay(t, 3), 3.0 * dt_b),), z=Z_SHORT),
        ),
    )

    chi, kappa = OPO["chi"], OPO["kappa"]
    a, _, _, _ = oracles.opo_matrices(chi, kappa)
    eye = np.eye(2)
    p_cost = np.diag([1.0, 0.0])
    k_lqg = oracles.lqg_gain(a, eye, p_cost, eye)
    dt_g, t_g = 1e-3, 2.5

    def lyapunov_q(t):
        return oracles.lyapunov_variance(t, a[0, 0], kappa)

    def lyapunov_p(t):
        return oracles.lyapunov_variance(t, a[1, 1], kappa)

    solver_presets = Workload(
        "solver-presets",
        (
            Operation("qubit_decay_me", _qubit({"kind": "none"}, dt=dt_g, t_final=2.0),
                      (Expect("rho_ee", decay, 1e-9),)),
            Operation("opo_unconditional", _opo("none", dt=dt_g, t_final=t_g),
                      (Expect("q", _zero, 0.0), Expect("p", _zero, 0.0),
                       Expect("cond_var_q", lyapunov_q, 1e-9), Expect("cond_var_p", lyapunov_p, 1e-9),
                       Expect("unc_var_q", lyapunov_q, 1e-9), Expect("unc_var_p", lyapunov_p, 1e-9))),
            Operation("opo_conditional", _opo("homodyne", dt=dt_g, t_final=t_g, n_traj=1024),
                      _opo_expects(None, dt_g)),
            Operation("opo_markovian_feedback", _opo(
                "homodyne", dt=dt_g, t_final=t_g, n_traj=1024,
                feedback={"kind": "markovian", "f": eye.tolist(), "m": "optimal"}),
                _opo_expects(("markovian", eye, oracles.opo_markovian_gain(chi, kappa)), dt_g)),
            Operation("opo_lqg", _opo(
                "homodyne", dt=dt_g, t_final=t_g, n_traj=1024,
                feedback={"kind": "lqg", "f": eye.tolist(), "p": p_cost.tolist(), "q": eye.tolist()}),
                _opo_expects(("lqg", eye, k_lqg), dt_g)),
        ),
    )
    return {w.name: w for w in (qubit_jump, qubit_diffusive, boson_d12, solver_presets)}


WORKLOADS = _workloads()


def operation_seeds(workload: Workload, seed: int) -> list[int]:
    """Per-operation master seeds drawn from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(len(workload.operations))
    return [int(s) for s in state]
