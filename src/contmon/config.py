"""Declarative scenario configuration: a versioned JSON schema with strict
validation (unknown keys rejected, all violations collected), a runtime
builder, and the file-writing run driver used by the CLI.

Output contract: a CSV statistics table with fixed header
``t, <obs>.mean, <obs>.se, ...`` (floats written with 17 significant digits so
they round-trip exactly), a JSON run manifest that embeds the fully resolved
configuration (rerunning a manifest reproduces the stats file byte for byte),
and an optional ``.npz`` file of per-trajectory records.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core_ops import build_standard_ops, is_hermitian, rk4_step
from .ensemble import EnsembleSpec, Scenario, run_ensemble
from .gaussian import (
    GaussianModel,
    GaussianState,
    UnreachableDirectionError,
    markovian_gain,
    lqg_gain,
    opo_model,
    unconditional_moment_rhs,
)
from .master_equation import BathSpec, OpenSystemModel, me_expectations

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunArtifacts",
    "parse_config",
    "build_runtime",
    "run_scenario",
]

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "system", "model", "unravelling", "feedback", "run", "output"}
_SYSTEM_KEYS = {"kind", "dim", "n_modes", "initial_state"}
_MODEL_KEYS = {"hamiltonian", "channels", "bath", "efficiency", "homodyne_phase", "opo", "matrices"}
_BATH_KEYS = {"n_thermal", "squeezing", "drive"}
_UNRAV_KEYS = {"kind", "stepper", "linear", "mu", "beta", "bath_mode"}
_FEEDBACK_KEYS = {"kind", "operator", "f", "m", "p", "q"}
_RUN_KEYS = {
    "dt", "t_final", "n_traj", "seed", "noise", "threads", "block_size",
    "validate_every", "track_min_eigenvalue", "store_states",
}
_OUTPUT_KEYS = {"directory", "stats_filename", "manifest_filename", "records", "observables"}

_QUBIT_OBSERVABLES = ("rho_ee", "rho_gg", "sigma_x", "sigma_y", "sigma_z")
_BOSON_OBSERVABLES = ("n", "q", "p", "q2", "p2")
_GAUSSIAN_OBSERVABLES = ("q", "p", "cond_var_q", "cond_var_p", "unc_var_q", "unc_var_p")


class ConfigError(ValueError):
    """Scenario configuration rejected; ``errors`` lists every violation."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def err(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def check_keys(self, path, obj, allowed):
        if not isinstance(obj, dict):
            self.err(path, f"expected an object, got {type(obj).__name__}")
            return False
        for key in obj:
            if key not in allowed:
                self.err(path, f"unknown key {key!r}")
        return True


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_seed(seed, ctx) -> bool:
    # the Philox key word of each substream holds the seed: anything outside
    # [0, 2**64 - 1] would wrap onto another seed's streams
    if _is_int(seed) and 0 <= seed <= 2**64 - 1:
        return True
    ctx.err("$.run.seed", "must be an integer in [0, 2**64 - 1]")
    return False


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, path, ctx):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
        _is_number(v) for v in value
    ):
        return complex(value[0], value[1])
    ctx.err(path, "expected a number or a [re, im] pair")
    return 0j


def _as_matrix(value, path, ctx):
    try:
        mat = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        ctx.err(path, "expected a numeric matrix (list of lists)")
        return None
    if mat.ndim != 2:
        ctx.err(path, "expected a 2-d matrix")
        return None
    return mat


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated, fully defaulted scenario configuration."""

    data: dict

    @property
    def system_kind(self) -> str:
        return self.data["system"]["kind"]

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)


def _default_observables(system_kind: str) -> list[str]:
    if system_kind == "qubit":
        return ["rho_ee"]
    if system_kind == "boson":
        return ["n", "q"]
    return ["q", "p", "cond_var_q", "cond_var_p", "unc_var_q", "unc_var_p"]


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document, filling defaults.

    Raises :class:`ConfigError` carrying *every* schema violation found, not
    just the first.
    """
    ctx = _Collector()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be an object"])
    ctx.check_keys("$", raw, _TOP_KEYS)
    if raw.get("schema_version") != SCHEMA_VERSION:
        ctx.err("$.schema_version", f"must be {SCHEMA_VERSION}")

    norm: dict = {"schema_version": SCHEMA_VERSION}

    # ---- system ----
    system = raw.get("system")
    if system is None:
        ctx.err("$.system", "required")
        system = {}
    ctx.check_keys("$.system", system, _SYSTEM_KEYS)
    kind = system.get("kind")
    if kind not in ("qubit", "boson", "gaussian"):
        ctx.err("$.system.kind", "must be 'qubit', 'boson' or 'gaussian'")
        kind = "qubit"
    norm_system = {"kind": kind}
    if kind == "boson":
        dim = system.get("dim")
        if not _is_int(dim) or dim < 2:
            ctx.err("$.system.dim", "boson systems need integer dim >= 2")
            dim = 2
        norm_system["dim"] = dim
    if kind == "gaussian":
        n_modes = system.get("n_modes", 1)
        if not _is_int(n_modes) or n_modes < 1:
            ctx.err("$.system.n_modes", "must be a positive integer")
            n_modes = 1
        norm_system["n_modes"] = n_modes
    init = system.get("initial_state", "excited" if kind == "qubit" else "vacuum")
    if kind == "qubit" and init not in ("excited", "ground", "plus_x"):
        ctx.err("$.system.initial_state", "qubit supports 'excited', 'ground', 'plus_x'")
        init = "excited"
    if kind == "boson" and not (
        init == "vacuum" or (isinstance(init, dict) and set(init) == {"fock"})
    ):
        ctx.err("$.system.initial_state", "boson supports 'vacuum' or {'fock': n}")
        init = "vacuum"
    if kind == "boson" and isinstance(init, dict):
        level = init["fock"]
        if not _is_int(level) or not 0 <= level < norm_system["dim"]:
            ctx.err("$.system.initial_state.fock", "must be an integer in [0, dim - 1]")
            init = "vacuum"
    if kind == "gaussian" and init != "vacuum":
        ctx.err("$.system.initial_state", "gaussian systems start from 'vacuum'")
        init = "vacuum"
    norm_system["initial_state"] = init
    norm["system"] = norm_system

    # ---- model ----
    model = raw.get("model")
    if model is None:
        ctx.err("$.model", "required")
        model = {}
    ctx.check_keys("$.model", model, _MODEL_KEYS)
    norm_model: dict = {}
    if kind == "gaussian":
        if "opo" in model:
            opo = model["opo"]
            if ctx.check_keys("$.model.opo", opo, {"chi", "kappa", "eta"}):
                entry = {}
                for name, default in (("chi", 0.0), ("kappa", 1.0), ("eta", 1.0)):
                    value = opo.get(name, default)
                    if not _is_number(value) or not math.isfinite(value):
                        ctx.err(f"$.model.opo.{name}", "must be a finite number")
                        value = default
                    entry[name] = float(value)
                norm_model["opo"] = entry
                if entry["kappa"] <= 0:
                    ctx.err("$.model.opo.kappa", "must be positive")
                if not 0.0 <= entry["eta"] <= 1.0:
                    ctx.err("$.model.opo.eta", "efficiency out of [0, 1]")
        elif "matrices" in model:
            mats = model["matrices"]
            if ctx.check_keys("$.model.matrices", mats, {"A", "D", "B", "E"}):
                entry = {}
                for name in ("A", "D", "B", "E"):
                    if name not in mats:
                        ctx.err(f"$.model.matrices.{name}", "required")
                        continue
                    mat = _as_matrix(mats[name], f"$.model.matrices.{name}", ctx)
                    if mat is not None:
                        entry[name] = mat.tolist()
                norm_model["matrices"] = entry
        else:
            ctx.err("$.model", "gaussian systems need an 'opo' or 'matrices' block")
        for bad in ("hamiltonian", "channels", "bath", "efficiency", "homodyne_phase"):
            if bad in model:
                ctx.err(f"$.model.{bad}", "not applicable to gaussian systems")
    else:
        for bad in ("opo", "matrices"):
            if bad in model:
                ctx.err(f"$.model.{bad}", "only applicable to gaussian systems")
        norm_model["hamiltonian"] = _norm_terms(
            model.get("hamiltonian", []), "$.model.hamiltonian", ctx
        )
        channels = model.get("channels", [])
        norm_channels = []
        if not isinstance(channels, list):
            ctx.err("$.model.channels", "expected a list")
            channels = []
        for i, chan in enumerate(channels):
            path = f"$.model.channels[{i}]"
            if not ctx.check_keys(path, chan, {"rate", "op"}):
                continue
            rate = chan.get("rate")
            if not _is_number(rate) or rate < 0:
                ctx.err(f"{path}.rate", "must be a number >= 0")
                rate = 0.0
            opname = chan.get("op")
            if not isinstance(opname, str):
                ctx.err(f"{path}.op", "must be an operator name")
                opname = "identity"
            norm_channels.append({"rate": float(rate), "op": opname})
        norm_model["channels"] = norm_channels

        bath = model.get("bath", {})
        ctx.check_keys("$.model.bath", bath, _BATH_KEYS)
        n_th = bath.get("n_thermal", 0.0)
        if not _is_number(n_th) or n_th < 0:
            ctx.err("$.model.bath.n_thermal", "must be a number >= 0")
            n_th = 0.0
        sq = bath.get("squeezing", 0.0)
        if sq == "squeezed_vacuum":
            sq_val = float(np.sqrt(n_th * (n_th + 1.0)))
            sq_norm: object = "squeezed_vacuum"
        else:
            sq_c = _as_complex(sq, "$.model.bath.squeezing", ctx)
            sq_val = sq_c
            sq_norm = sq if isinstance(sq, list) else float(np.real(sq_c)) if sq_c.imag == 0 else sq
        drive = _as_complex(bath.get("drive", 0.0), "$.model.bath.drive", ctx)
        if abs(complex(sq_val)) ** 2 > n_th * (n_th + 1.0) + 1e-12:
            ctx.err("$.model.bath", "rule bath_physicality: |M|^2 must not exceed N(N+1)")
        norm_model["bath"] = {
            "n_thermal": float(n_th),
            "squeezing": sq_norm,
            "drive": bath.get("drive", 0.0),
        }
        eta = model.get("efficiency", 1.0)
        if not _is_number(eta) or not 0.0 <= eta <= 1.0:
            ctx.err("$.model.efficiency", "efficiency out of [0, 1]")
            eta = 1.0
        norm_model["efficiency"] = float(eta)
        theta = model.get("homodyne_phase", 0.0)
        if not _is_number(theta):
            ctx.err("$.model.homodyne_phase", "must be a number (radians)")
            theta = 0.0
        norm_model["homodyne_phase"] = float(theta)
    norm["model"] = norm_model

    # ---- unravelling ----
    unrav = raw.get("unravelling", {"kind": "none"})
    ctx.check_keys("$.unravelling", unrav, _UNRAV_KEYS)
    ukind = unrav.get("kind", "none")
    if ukind not in ("none", "jump", "homodyne", "heterodyne"):
        ctx.err("$.unravelling.kind", "must be none|jump|homodyne|heterodyne")
        ukind = "none"
    stepper = unrav.get("stepper", "euler")
    if stepper not in ("euler", "kraus"):
        ctx.err("$.unravelling.stepper", "must be 'euler' or 'kraus'")
        stepper = "euler"
    linear = bool(unrav.get("linear", False))
    mu = unrav.get("mu", 0.0)
    beta = unrav.get("beta", 1.0)
    bath_mode = unrav.get("bath_mode", "generalized")
    if bath_mode not in ("generalized", "replaced_operator"):
        ctx.err("$.unravelling.bath_mode", "must be 'generalized' or 'replaced_operator'")
        bath_mode = "generalized"
    norm["unravelling"] = {
        "kind": ukind,
        "stepper": stepper,
        "linear": linear,
        "mu": float(mu) if _is_number(mu) else 0.0,
        "beta": float(beta) if _is_number(beta) else 1.0,
        "bath_mode": bath_mode,
    }
    if not _is_number(mu):
        ctx.err("$.unravelling.mu", "must be a number")
    if not _is_number(beta) or beta <= 0:
        ctx.err("$.unravelling.beta", "rule ostensible_rate_positive: beta must be > 0")

    # ---- feedback ----
    fb = raw.get("feedback", {"kind": "none"})
    ctx.check_keys("$.feedback", fb, _FEEDBACK_KEYS)
    fkind = fb.get("kind", "none")
    if fkind not in ("none", "markovian", "lqg"):
        ctx.err("$.feedback.kind", "must be none|markovian|lqg")
        fkind = "none"
    norm_fb: dict = {"kind": fkind}
    if fkind == "markovian":
        if kind == "gaussian":
            fmat = _as_matrix(fb.get("f"), "$.feedback.f", ctx) if "f" in fb else None
            if fmat is None:
                ctx.err("$.feedback.f", "gaussian markovian feedback needs matrix 'f'")
            else:
                norm_fb["f"] = fmat.tolist()
            m = fb.get("m", "optimal")
            if m == "optimal":
                norm_fb["m"] = "optimal"
            else:
                mmat = _as_matrix(m, "$.feedback.m", ctx)
                if mmat is not None:
                    norm_fb["m"] = mmat.tolist()
        else:
            norm_fb["operator"] = _norm_terms(fb.get("operator", []), "$.feedback.operator", ctx)
            if not norm_fb["operator"]:
                ctx.err("$.feedback.operator", "markovian feedback needs a nonzero operator")
    elif fkind == "lqg":
        if kind != "gaussian":
            ctx.err("$.feedback.kind", "rule lqg_requires_gaussian: lqg feedback needs a gaussian system")
        for name in ("f", "p", "q"):
            mat = _as_matrix(fb.get(name), f"$.feedback.{name}", ctx) if name in fb else None
            if mat is None:
                ctx.err(f"$.feedback.{name}", "lqg feedback needs matrices f, p, q")
            else:
                norm_fb[name] = mat.tolist()
    norm["feedback"] = norm_fb

    # ---- run ----
    run = raw.get("run")
    if run is None:
        ctx.err("$.run", "required")
        run = {}
    ctx.check_keys("$.run", run, _RUN_KEYS)
    dt = run.get("dt")
    if not _is_number(dt) or not math.isfinite(dt) or dt <= 0:
        ctx.err("$.run.dt", "must be a finite number > 0")
        dt = 1e-3
    t_final = run.get("t_final")
    if not _is_number(t_final) or not math.isfinite(t_final) or t_final < dt:
        ctx.err("$.run.t_final", "must be a finite number >= dt")
        t_final = float(dt)
    n_traj = run.get("n_traj", 1000)
    if not _is_int(n_traj) or n_traj < 1:
        ctx.err("$.run.n_traj", "must be an integer >= 1")
        n_traj = 1
    seed = run.get("seed", 1234)
    if not _check_seed(seed, ctx):
        seed = 1234
    noise = run.get("noise", "gaussian")
    if noise not in ("gaussian", "two_point"):
        ctx.err("$.run.noise", "must be 'gaussian' or 'two_point'")
        noise = "gaussian"
    threads = run.get("threads", 1)
    if threads is not None and (not _is_int(threads) or threads < 1):
        ctx.err("$.run.threads", "must be null or an integer >= 1")
        threads = 1
    block_size = run.get("block_size", 1024)
    if not _is_int(block_size) or block_size < 1:
        ctx.err("$.run.block_size", "must be an integer >= 1")
        block_size = 1024
    validate_every = run.get("validate_every", 50)
    if not _is_int(validate_every) or validate_every < 0:
        ctx.err("$.run.validate_every", "must be an integer >= 0 (0 disables the checks)")
        validate_every = 50
    norm["run"] = {
        "dt": float(dt),
        "t_final": float(t_final),
        "n_traj": n_traj,
        "seed": seed,
        "noise": noise,
        "threads": threads,
        "block_size": block_size,
        "validate_every": validate_every,
        "track_min_eigenvalue": bool(run.get("track_min_eigenvalue", False)),
        "store_states": bool(run.get("store_states", False)),
    }

    # ---- output ----
    output = raw.get("output", {})
    ctx.check_keys("$.output", output, _OUTPUT_KEYS)
    observables = output.get("observables", _default_observables(kind))
    if not isinstance(observables, list) or not all(isinstance(o, str) for o in observables):
        ctx.err("$.output.observables", "must be a list of observable names")
        observables = _default_observables(kind)
    allowed_obs = {
        "qubit": _QUBIT_OBSERVABLES,
        "boson": _BOSON_OBSERVABLES,
        "gaussian": _GAUSSIAN_OBSERVABLES,
    }[kind]
    for name in observables:
        if name not in allowed_obs:
            ctx.err("$.output.observables", f"unknown observable {name!r} for {kind} systems")
    norm["output"] = {
        "directory": str(output.get("directory", "runs/scenario")),
        "stats_filename": str(output.get("stats_filename", "stats.csv")),
        "manifest_filename": str(output.get("manifest_filename", "manifest.json")),
        "records": bool(output.get("records", False)),
        "observables": observables,
    }

    _cross_rules(norm, ctx)
    if ctx.errors:
        raise ConfigError(ctx.errors)
    return ScenarioConfig(norm)


def _norm_terms(terms, path, ctx):
    if not isinstance(terms, list):
        ctx.err(path, "expected a list of {'op', 'coeff'} terms")
        return []
    out = []
    for i, term in enumerate(terms):
        tp = f"{path}[{i}]"
        if not ctx.check_keys(tp, term, {"op", "coeff"}):
            continue
        opname = term.get("op")
        if not isinstance(opname, str):
            ctx.err(f"{tp}.op", "must be an operator name")
            continue
        coeff = term.get("coeff", 1.0)
        _as_complex(coeff, f"{tp}.coeff", ctx)
        out.append({"op": opname, "coeff": coeff})
    return out


def _cross_rules(norm, ctx):
    kind = norm["system"]["kind"]
    ukind = norm["unravelling"]["kind"]
    fkind = norm["feedback"]["kind"]
    if kind == "gaussian":
        _gaussian_label_rules(norm, ctx)
        if ukind in ("jump", "heterodyne"):
            ctx.err(
                "$.unravelling.kind",
                "rule gaussian_monitoring: gaussian systems support 'none' or 'homodyne' "
                "(monitoring is set by the B/E matrices)",
            )
        if fkind != "none" and ukind == "none":
            ctx.err("$.feedback.kind", "rule feedback_needs_monitoring: add a homodyne unravelling")
        if norm["unravelling"]["linear"]:
            ctx.err("$.unravelling.linear", "linear trajectories apply to Hilbert-space systems")
        if norm["run"]["noise"] == "two_point":
            ctx.err("$.run.noise", "rule two_point_diffusive_only: not available for gaussian moments")
        return
    # Hilbert-space systems
    model = norm["model"]
    eta = model["efficiency"]
    bath = model["bath"]
    sq = bath["squeezing"]
    sq_abs = (
        float(np.sqrt(bath["n_thermal"] * (bath["n_thermal"] + 1.0)))
        if sq == "squeezed_vacuum"
        else abs(_as_complex(sq, "$", _Collector()))
    )
    vacuum = bath["n_thermal"] == 0 and sq_abs == 0 and bath["drive"] in (0, 0.0)
    if fkind == "lqg":
        ctx.err("$.feedback.kind", "rule lqg_requires_gaussian: lqg feedback needs a gaussian system")
    if ukind == "none" and fkind != "none":
        ctx.err("$.feedback.kind", "rule feedback_needs_monitoring: feedback requires an unravelling")
    if ukind == "jump":
        if not vacuum:
            ctx.err(
                "$.unravelling.kind",
                "rule jump_vacuum_bath: photon counting with thermal/squeezed/driven baths "
                "is not supported",
            )
        if fkind == "markovian" and eta != 1.0:
            ctx.err(
                "$.model.efficiency",
                "rule jump_feedback_unit_efficiency: photodetection feedback requires "
                "efficiency = 1",
            )
        if norm["run"]["noise"] == "two_point":
            ctx.err("$.run.noise", "rule two_point_diffusive_only: two-point noise is for diffusive unravellings")
    if ukind in ("homodyne", "heterodyne") and not vacuum:
        if eta != 1.0:
            ctx.err(
                "$.model.efficiency",
                "rule generalized_bath_unit_efficiency: generalized-bath diffusive "
                "unravellings require efficiency = 1",
            )
        # the replaced-operator homodyne runs the vacuum stepper, which takes any phase
        replaced = ukind == "homodyne" and norm["unravelling"]["bath_mode"] == "replaced_operator"
        if model["homodyne_phase"] != 0.0 and not replaced:
            ctx.err(
                "$.model.homodyne_phase",
                "rule generalized_bath_homodyne_phase: diffusive unravellings with a "
                "thermal/squeezed/driven bath require homodyne_phase = 0",
            )
        if ukind == "heterodyne" and sq_abs != 0:
            ctx.err(
                "$.unravelling.kind",
                "rule heterodyne_thermal_only: generalized heterodyne needs a thermal bath (M = 0)",
            )
        if norm["unravelling"]["bath_mode"] == "replaced_operator":
            n_th = bath["n_thermal"]
            if abs(sq_abs**2 - n_th * (n_th + 1.0)) > 1e-12:
                ctx.err(
                    "$.unravelling.bath_mode",
                    "rule replaced_operator_squeezed_vacuum: operator replacement needs "
                    "|M|^2 = N(N+1)",
                )
    if norm["unravelling"]["linear"]:
        if fkind != "none":
            ctx.err("$.unravelling.linear", "rule linear_no_feedback: linear trajectories exclude feedback")
        if eta != 1.0:
            ctx.err("$.model.efficiency", "rule linear_unit_efficiency: linear trajectories require efficiency = 1")
        if ukind not in ("jump", "homodyne"):
            ctx.err("$.unravelling.linear", "linear mode applies to jump or homodyne unravellings")
        if norm["unravelling"]["stepper"] != "euler":
            ctx.err("$.unravelling.stepper", "linear mode uses the euler stepper")
    if fkind == "markovian" and ukind == "heterodyne":
        ctx.err("$.feedback.kind", "rule feedback_single_current: heterodyne feedback is not supported")
    if not model["channels"] and ukind != "none":
        ctx.err("$.model.channels", "an unravelling needs at least one collapse channel")
    _operator_rules(norm, ctx)


def _operator_rules(norm, ctx):
    """Resolve the operator names of the Hamiltonian, the channels and the
    feedback operator against the operator set ``build_runtime`` uses, and
    require the summed Hamiltonian and feedback operator to be Hermitian."""
    opset = _operator_set(norm["system"])
    model, fb = norm["model"], norm["feedback"]
    for path, terms in (
        ("$.model.hamiltonian", model["hamiltonian"]),
        ("$.model.channels", model["channels"]),
        ("$.feedback.operator", fb.get("operator", [])),
    ):
        for name in sorted({term["op"] for term in terms} - set(opset)):
            ctx.err(path, f"unknown operator {name!r}")
    rules = [("$.model.hamiltonian", "hamiltonian_hermitian", "Hamiltonian", model["hamiltonian"])]
    if "operator" in fb:
        rules.append(("$.feedback.operator", "feedback_hermitian", "feedback operator",
                      fb["operator"]))
    for path, rule, what, terms in rules:
        if any(e.startswith(path) for e in ctx.errors):
            continue  # unresolvable names or coefficients are already reported
        if not is_hermitian(_resolve_terms(terms, opset, path)):
            ctx.err(path, f"rule {rule}: the summed {what} must be Hermitian")


def _gaussian_model(model_cfg: dict) -> GaussianModel:
    if "opo" in model_cfg:
        opo = model_cfg["opo"]
        return opo_model(opo["chi"], opo["kappa"], opo["eta"])
    mats = model_cfg["matrices"]
    return GaussianModel(mats["A"], mats["D"], mats["B"], mats["E"])


def _gaussian_label_rules(norm, ctx):
    """Build the Gaussian model and check that its quadrature labels resolve
    every observable the run records (the ensemble always records q and p)."""
    if any(e.startswith("$.model") for e in ctx.errors):
        return  # the model block itself is already rejected
    try:
        gmodel = _gaussian_model(norm["model"])
    except ValueError as exc:
        ctx.err("$.model.matrices", str(exc))
        return
    n_modes = norm["system"]["n_modes"]
    if gmodel.n_modes != n_modes:
        ctx.err(
            "$.model",
            f"rule gaussian_mode_count: the model has {gmodel.n_modes} mode(s), "
            f"system.n_modes is {n_modes}",
        )
    needed = {
        name.removeprefix("cond_var_").removeprefix("unc_var_")
        for name in norm["output"]["observables"]
    }
    if norm["unravelling"]["kind"] != "none":
        needed |= {"q", "p"}
    missing = sorted(needed - set(gmodel.labels))
    if missing:
        ctx.err(
            "$.output.observables",
            f"rule gaussian_observable_labels: no model quadrature labelled "
            f"{', '.join(missing)} (labels: {', '.join(gmodel.labels)})",
        )


# --------------------------------------------------------------------------
# runtime construction


def _operator_set(system: dict) -> dict[str, np.ndarray]:
    if system["kind"] == "qubit":
        return build_standard_ops("qubit")
    ops = build_standard_ops("boson", system["dim"])
    ops = dict(ops)
    ops["qp_plus_pq"] = ops["q"] @ ops["p"] + ops["p"] @ ops["q"]
    ops["q2"] = ops["q"] @ ops["q"]
    ops["p2"] = ops["p"] @ ops["p"]
    return ops


def _resolve_terms(terms, opset, what):
    dim = next(iter(opset.values())).shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        name = term["op"]
        if name not in opset:
            raise ConfigError([f"{what}: unknown operator {name!r}"])
        coeff = term["coeff"]
        coeff = complex(coeff[0], coeff[1]) if isinstance(coeff, list) else complex(coeff)
        total = total + coeff * opset[name]
    return total


def _observable_map(system: dict, opset) -> dict[str, np.ndarray]:
    if system["kind"] == "qubit":
        return {
            "rho_ee": opset["projector_e"],
            "rho_gg": opset["projector_g"],
            "sigma_x": opset["sigma_x"],
            "sigma_y": opset["sigma_y"],
            "sigma_z": opset["sigma_z"],
        }
    return {name: opset[name] for name in _BOSON_OBSERVABLES}


def _initial_density_matrix(system: dict) -> np.ndarray:
    if system["kind"] == "qubit":
        init = system["initial_state"]
        if init == "excited":
            vec = np.array([1.0, 0.0], dtype=complex)
        elif init == "ground":
            vec = np.array([0.0, 1.0], dtype=complex)
        else:  # plus_x
            vec = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        return np.outer(vec, vec.conj())
    dim = system["dim"]
    init = system["initial_state"]
    level = 0 if init == "vacuum" else init["fock"]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[level, level] = 1.0
    return rho


@dataclass
class RuntimeJob:
    """Executable form of a configuration: either a trajectory ensemble or a
    deterministic moment/master-equation integration."""

    kind: str  # "ensemble" | "me" | "gaussian_unconditional"
    config: ScenarioConfig
    spec: EnsembleSpec | None = None
    scenario: Scenario | None = None
    payload: dict | None = None

    def execute(self):
        """Run and return (t, columns) with columns an ordered dict
        name -> (mean array, se array); plus a health dict."""
        cfg = self.config.data
        names = cfg["output"]["observables"]
        if self.kind == "ensemble":
            stats = run_ensemble(self.spec, self.scenario)
            columns = {}
            for name in names:
                if name in stats.means:
                    columns[name] = (stats.means[name], stats.std_errs[name])
                else:
                    columns[name] = self._derived_gaussian_column(name, stats)
            health = {
                "min_eigenvalue": stats.min_eigenvalue,
                "positivity_violations": stats.positivity_violations,
            }
            return stats.t, columns, health, stats
        if self.kind == "me":
            grid = self.payload["t_grid"]
            expect = me_expectations(
                self.payload["model"], self.payload["rho0"], grid, self.payload["observables"]
            )
            zeros = np.zeros(grid.size)
            columns = {name: (expect[name], zeros) for name in names}
            return grid, columns, {}, None
        if self.kind == "gaussian_unconditional":
            grid = self.payload["t_grid"]
            model: GaussianModel = self.payload["model"]
            state = GaussianState.vacuum(model.n_modes)
            dtg = float(grid[1] - grid[0])
            n = model.dim
            means = np.empty((grid.size, n))
            covs = np.empty((grid.size, n, n))
            means[0], covs[0] = state.mean, state.cov

            def rhs(y):
                # y packs the mean and the row-major covariance
                drdt, dsdt = unconditional_moment_rhs(
                    model, GaussianState(y[:n], y[n:].reshape(n, n))
                )
                return np.concatenate([drdt, dsdt.reshape(-1)])

            y = np.concatenate([state.mean, state.cov.reshape(-1)])
            for k in range(grid.size - 1):
                y = rk4_step(rhs, y, dtg)
                cov = y[n:].reshape(n, n)
                y[n:] = (0.5 * (cov + cov.T)).reshape(-1)
                means[k + 1], covs[k + 1] = y[:n], y[n:].reshape(n, n)
            zeros = np.zeros(grid.size)
            available = {
                "q": means[:, 0],
                "p": means[:, 1],
                "cond_var_q": covs[:, 0, 0],
                "cond_var_p": covs[:, 1, 1],
                "unc_var_q": covs[:, 0, 0],
                "unc_var_p": covs[:, 1, 1],
            }
            columns = {name: (available[name], zeros) for name in names}
            return grid, columns, {}, None
        raise RuntimeError(f"unknown job kind {self.kind}")

    def _derived_gaussian_column(self, name, stats):
        covs = stats.extra["cov_path"]
        comp = {"q": 0, "p": 1}
        if name.startswith("cond_var_"):
            idx = comp[name.removeprefix("cond_var_")]
            return covs[:, idx, idx], np.zeros(covs.shape[0])
        if name.startswith("unc_var_"):
            label = name.removeprefix("unc_var_")
            idx = comp[label]
            mean = stats.means[label]
            m2 = stats.extra["m2"][label]
            m4 = stats.extra["m4"][label]
            excess = 2.0 * (m2 - mean**2)
            se = 2.0 * np.sqrt(np.maximum(m4 - m2**2, 0.0) / stats.n_traj)
            return covs[:, idx, idx] + excess, se
        raise KeyError(name)


def build_runtime(
    config: ScenarioConfig, threads: int | None = None, seed: int | None = None
) -> RuntimeJob:
    """Resolve a validated configuration into an executable job.

    ``threads``/``seed`` override the run block (the seed override is echoed
    into the effective configuration so manifests stay rerunnable).
    """
    cfg = json.loads(json.dumps(config.data))  # deep copy
    if seed is not None:
        ctx = _Collector()
        if not _check_seed(seed, ctx):
            raise ConfigError(ctx.errors)
        cfg["run"]["seed"] = seed
    if threads is not None:
        cfg["run"]["threads"] = int(threads)
    config = ScenarioConfig(cfg)
    system, model_cfg = cfg["system"], cfg["model"]
    run = cfg["run"]
    ukind = cfg["unravelling"]["kind"]
    n_steps_grid = np.arange(int(round(run["t_final"] / run["dt"])) + 1) * run["dt"]

    if system["kind"] == "gaussian":
        gmodel = _gaussian_model(model_cfg)
        if ukind == "none":
            return RuntimeJob(
                "gaussian_unconditional", config,
                payload={"model": gmodel, "t_grid": n_steps_grid},
            )
        fb = cfg["feedback"]
        controller = None
        f_mat = None
        if fb["kind"] == "markovian":
            f_mat = np.asarray(fb["f"], dtype=float)
            if fb["m"] == "optimal":
                try:
                    controller = ("markovian", markovian_gain(gmodel, f_mat).gain)
                except UnreachableDirectionError as exc:
                    raise ConfigError([f"$.feedback: rule markovian_gain_consistency: {exc}"])
            else:
                controller = ("markovian", np.asarray(fb["m"], dtype=float))
        elif fb["kind"] == "lqg":
            f_mat = np.asarray(fb["f"], dtype=float)
            result = lqg_gain(gmodel, f_mat, np.asarray(fb["p"]), np.asarray(fb["q"]))
            controller = ("lqg", result.gain)
        base_obs = tuple((lbl, None) for lbl in ("q", "p"))
        spec = EnsembleSpec(
            n_traj=run["n_traj"], master_seed=run["seed"], dt=run["dt"],
            t_final=run["t_final"], observables=base_obs, noise=run["noise"],
            threads=run["threads"] or 1, block_size=run["block_size"],
            store_records=cfg["output"]["records"], store_states=run["store_states"],
        )
        scenario = Scenario(
            "gaussian", gmodel, GaussianState.vacuum(gmodel.n_modes),
            f_mat=f_mat, controller=controller,
        )
        return RuntimeJob("ensemble", config, spec=spec, scenario=scenario)

    # Hilbert-space systems
    opset = _operator_set(system)
    obs_map = _observable_map(system, opset)
    hamiltonian = _resolve_terms(model_cfg["hamiltonian"], opset, "$.model.hamiltonian")
    channels = [
        (chan["rate"], _resolve_terms([{"op": chan["op"], "coeff": 1.0}], opset, "$.model.channels"))
        for chan in model_cfg["channels"]
    ]
    bath_cfg = model_cfg["bath"]
    n_th = bath_cfg["n_thermal"]
    sq = bath_cfg["squeezing"]
    squeezing = (
        complex(np.sqrt(n_th * (n_th + 1.0)))
        if sq == "squeezed_vacuum"
        else (complex(sq[0], sq[1]) if isinstance(sq, list) else complex(sq))
    )
    drive_raw = bath_cfg["drive"]
    drive = complex(drive_raw[0], drive_raw[1]) if isinstance(drive_raw, list) else complex(drive_raw)
    bath = BathSpec(n_thermal=n_th, squeezing=squeezing, drive=drive)
    replaced_operator = (
        not bath.is_vacuum
        and cfg["unravelling"]["bath_mode"] == "replaced_operator"
        and ukind == "homodyne"
    )
    if replaced_operator:
        from .diffusive import squeezed_vacuum_jump_operator

        channels = [(k, squeezed_vacuum_jump_operator(c, n_th)) for k, c in channels]
        bath = BathSpec()
    model = OpenSystemModel(
        hamiltonian, channels, bath=bath,
        efficiency=model_cfg["efficiency"], homodyne_phase=model_cfg["homodyne_phase"],
    )
    rho0 = _initial_density_matrix(system)
    observables = tuple((name, obs_map[name]) for name in cfg["output"]["observables"])

    if ukind == "none":
        return RuntimeJob(
            "me", config,
            payload={"model": model, "rho0": rho0, "t_grid": n_steps_grid,
                     "observables": observables},
        )

    fb = cfg["feedback"]
    f_op = None
    if fb["kind"] == "markovian":
        f_op = _resolve_terms(fb["operator"], opset, "$.feedback.operator")
    linear = cfg["unravelling"]["linear"]
    stepper = cfg["unravelling"]["stepper"]
    if ukind == "jump":
        if f_op is not None:
            kind = "jump_feedback"
        elif linear:
            kind = "linear_jump"
        else:
            kind = "jump_kraus" if stepper == "kraus" else "jump"
    elif ukind == "homodyne":
        if not model.bath.is_vacuum:
            kind = "generalized_homodyne"
        elif f_op is not None:
            kind = "homodyne_feedback"
        elif linear:
            kind = "linear_homodyne"
        else:
            kind = "homodyne_kraus" if stepper == "kraus" else "homodyne"
    else:  # heterodyne
        kind = "generalized_heterodyne" if not model.bath.is_vacuum else "heterodyne"

    spec = EnsembleSpec(
        n_traj=run["n_traj"], master_seed=run["seed"], dt=run["dt"],
        t_final=run["t_final"], observables=observables, noise=run["noise"],
        threads=run["threads"] or 1, block_size=run["block_size"],
        store_records=cfg["output"]["records"], store_states=run["store_states"],
        track_min_eigenvalue=run["track_min_eigenvalue"],
        validate_every=run["validate_every"],
    )
    scenario = Scenario(
        kind, model, rho0, feedback_operator=f_op,
        mu=cfg["unravelling"]["mu"], beta_ost=cfg["unravelling"]["beta"],
    )
    return RuntimeJob("ensemble", config, spec=spec, scenario=scenario)


# --------------------------------------------------------------------------
# run driver


@dataclass(frozen=True)
class RunArtifacts:
    stats_path: Path
    manifest_path: Path
    records_path: Path | None
    stats_sha256: str


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def render_stats_csv(t: np.ndarray, columns: dict) -> bytes:
    header = ["t"]
    for name in columns:
        header += [f"{name}.mean", f"{name}.se"]
    lines = [",".join(header)]
    for i in range(t.size):
        row = [_format_float(t[i])]
        for mean, se in columns.values():
            row += [_format_float(mean[i]), _format_float(se[i])]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def run_scenario(
    config: ScenarioConfig,
    out_dir: str | Path | None = None,
    threads: int | None = None,
    seed: int | None = None,
) -> RunArtifacts:
    """Execute a configuration and write the stats table, the run manifest and
    (optionally) per-trajectory records.  Returns the artifact paths."""
    job = build_runtime(config, threads=threads, seed=seed)
    cfg = job.config.data
    t0 = time.monotonic()
    t, columns, health, stats = job.execute()
    wall = time.monotonic() - t0

    directory = Path(out_dir) if out_dir is not None else Path(cfg["output"]["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    stats_path = directory / cfg["output"]["stats_filename"]
    payload = render_stats_csv(t, columns)
    stats_path.write_bytes(payload)
    digest = hashlib.sha256(payload).hexdigest()

    records_path = None
    if cfg["output"]["records"] and stats is not None and stats.records is not None:
        records_path = directory / "records.npz"
        np.savez_compressed(
            records_path, records=stats.records, dt=cfg["run"]["dt"],
            master_seed=cfg["run"]["seed"],
        )

    manifest = {
        "manifest_version": 1,
        "config": cfg,
        "master_seed": cfg["run"]["seed"],
        "versions": {
            "contmon": __version__,
            "numpy": np.__version__,
        },
        "wall_time_s": wall,
        "stats_file": stats_path.name,
        "stats_sha256": digest,
        "health": {k: v for k, v in health.items() if v is not None},
    }
    manifest_path = directory / cfg["output"]["manifest_filename"]
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunArtifacts(stats_path, manifest_path, records_path, digest)


def load_config_or_manifest(path: str | Path) -> ScenarioConfig:
    """Load a scenario configuration, accepting either a config document or a
    run manifest (whose embedded config is then used verbatim)."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and "manifest_version" in doc:
        return parse_config(json.dumps(doc["config"]))
    return parse_config(json.dumps(doc))
