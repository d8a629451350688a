"""Preset scenario library: ready-to-run configurations covering decay,
monitored trajectories, feedback, generalized baths and the OPO benchmark.

Every preset is a complete configuration document; fetch a deep copy with
:func:`get_preset`, tweak it (the CLI exposes ``--override path=value``), and
run it through :func:`contmon.config.run_scenario`.
"""

from __future__ import annotations

import copy
import json

from .config import ScenarioConfig, parse_config

__all__ = ["PRESETS", "list_presets", "get_preset", "preset_config"]


def _qubit_decay(unravelling, *, n_traj=2000, t_final=3.0, seed, extra_model=None,
                 feedback=None, output_dir):
    cfg = {
        "schema_version": 1,
        "system": {"kind": "qubit", "initial_state": "excited"},
        "model": {
            "hamiltonian": [],
            "channels": [{"rate": 1.0, "op": "sigma_minus"}],
        },
        "unravelling": unravelling,
        "run": {"dt": 1e-3, "t_final": t_final, "n_traj": n_traj, "seed": seed},
        "output": {"directory": output_dir, "observables": ["rho_ee"]},
    }
    if extra_model:
        cfg["model"].update(extra_model)
    if feedback:
        cfg["feedback"] = feedback
    return cfg


def _opo(feedback, *, seed, t_final, output_dir, unravelling_kind="homodyne"):
    cfg = {
        "schema_version": 1,
        "system": {"kind": "gaussian", "n_modes": 1},
        "model": {"opo": {"chi": 0.2, "kappa": 1.0, "eta": 1.0}},
        "unravelling": {"kind": unravelling_kind},
        "run": {"dt": 1e-3, "t_final": t_final, "n_traj": 2000, "seed": seed},
        "output": {
            "directory": output_dir,
            "observables": ["q", "p", "cond_var_q", "cond_var_p", "unc_var_q", "unc_var_p"],
        },
    }
    if feedback:
        cfg["feedback"] = feedback
    return cfg


PRESETS: dict[str, dict] = {
    "qubit_decay_me": _qubit_decay(
        {"kind": "none"}, n_traj=1, seed=101, output_dir="runs/qubit_decay_me",
    ),
    "qubit_decay_jump": _qubit_decay(
        {"kind": "jump", "stepper": "euler"}, seed=102, output_dir="runs/qubit_decay_jump",
    ),
    # the Kraus stepper keeps the state positive at any dt, so the preset
    # stays well-behaved even at coarse smoke-test steps
    "qubit_homodyne": _qubit_decay(
        {"kind": "homodyne", "stepper": "kraus"}, seed=103, t_final=2.0,
        output_dir="runs/qubit_homodyne",
    ),
    "qubit_pd_feedback": _qubit_decay(
        {"kind": "jump"}, seed=104, t_final=2.0,
        feedback={"kind": "markovian",
                  "operator": [{"op": "sigma_x", "coeff": 0.7853981633974483}]},
        output_dir="runs/qubit_pd_feedback",
    ),
    "qubit_homodyne_feedback": _qubit_decay(
        {"kind": "homodyne"}, seed=105, t_final=2.0,
        extra_model={"efficiency": 0.8},
        feedback={"kind": "markovian", "operator": [{"op": "sigma_x", "coeff": 0.4}]},
        output_dir="runs/qubit_homodyne_feedback",
    ),
    "thermal_bath_homodyne": _qubit_decay(
        {"kind": "homodyne"}, seed=106, t_final=3.0,
        extra_model={"bath": {"n_thermal": 1.0}},
        output_dir="runs/thermal_bath_homodyne",
    ),
    "squeezed_vacuum_homodyne": _qubit_decay(
        {"kind": "homodyne", "bath_mode": "replaced_operator"}, seed=107, t_final=2.0,
        extra_model={"bath": {"n_thermal": 0.5, "squeezing": "squeezed_vacuum"}},
        output_dir="runs/squeezed_vacuum_homodyne",
    ),
    "coherent_drive": {
        "schema_version": 1,
        "system": {"kind": "boson", "dim": 12, "initial_state": "vacuum"},
        "model": {
            "hamiltonian": [],
            "channels": [{"rate": 1.0, "op": "a"}],
            "bath": {"drive": 0.5},
        },
        "unravelling": {"kind": "homodyne"},
        "run": {"dt": 1e-3, "t_final": 3.0, "n_traj": 400, "seed": 108},
        "output": {"directory": "runs/coherent_drive", "observables": ["n", "q"]},
    },
    "opo_unconditional": _opo(
        None, seed=109, t_final=10.0, output_dir="runs/opo_unconditional",
        unravelling_kind="none",
    ),
    "opo_conditional": _opo(
        None, seed=110, t_final=10.0, output_dir="runs/opo_conditional",
    ),
    "opo_markovian_feedback": _opo(
        {"kind": "markovian", "f": [[1.0, 0.0], [0.0, 1.0]], "m": "optimal"},
        seed=111, t_final=15.0, output_dir="runs/opo_markovian_feedback",
    ),
    "opo_lqg": _opo(
        {"kind": "lqg", "f": [[1.0, 0.0], [0.0, 1.0]],
         "p": [[1.0, 0.0], [0.0, 0.0]], "q": [[1.0, 0.0], [0.0, 1.0]]},
        seed=112, t_final=15.0, output_dir="runs/opo_lqg",
    ),
}


def list_presets() -> list[str]:
    """Names of all bundled presets."""
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    """Deep copy of a preset configuration document."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    return copy.deepcopy(PRESETS[name])


def preset_config(name: str) -> ScenarioConfig:
    """Validated configuration for a preset."""
    return parse_config(json.dumps(get_preset(name)))
