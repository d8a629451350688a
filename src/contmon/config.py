"""Declarative scenario configuration: a versioned JSON schema, the one
resolution that builds a run from it, and the file-writing run driver used by
the CLI.

``_resolve`` applies the field table ``_FIELDS`` (filling defaults, rejecting
unknown keys and malformed values), then the cross-field rules and the
``run_memory`` size rule, and builds the job, reporting the library's build
errors at ``$.`` paths.  ``parse_config`` and ``build_runtime`` both call it,
so ``validate`` accepts exactly the documents ``run`` can build.

Output contract: a CSV statistics table with fixed header
``t, <obs>.mean, <obs>.se, ...`` (floats written with 17 significant digits so
they round-trip exactly), a JSON run manifest that embeds the fully resolved
configuration (rerunning a manifest reproduces the stats file byte for byte),
and an optional ``.npz`` file of per-trajectory records.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core_ops import build_standard_ops, is_hermitian
from .diffusive import squeezed_vacuum_jump_operator
from .ensemble import EnsembleSpec, Scenario, run_ensemble
from .gaussian import (
    ConvergenceError,
    GaussianModel,
    GaussianState,
    markovian_gain,
    lqg_gain,
    opo_model,
    # perfbench/spans.py wraps config.unconditional_moment_rhs, so the name stays
    unconditional_moment_rhs,  # noqa: F401
    unconditional_moments,
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

    def rules(self, table):
        """Report the (broken, path, message) rows whose condition holds."""
        for broken, path, message in table:
            if broken:
                self.err(path, message)

    def raise_errors(self):
        if self.errors:
            raise ConfigError(self.errors)


# --------------------------------------------------------------------------
# field readers: reader(value, bound) returns the normalized value or raises
# a ValueError that the schema pass reports at the field's path.  A bound is
# (predicate, message); choices are a tuple.


def _bounded(value, bound):
    if bound is not None and not bound[0](value):
        raise ValueError(bound[1])
    return value


def _number(value, bound):
    # JSON true/false load as bool, a subclass of int
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
        if math.isfinite(value):
            return _bounded(value, bound)
    raise ValueError("must be a finite number")


def _integer(value, bound):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("must be an integer")
    return _bounded(value, bound)


def _instance_of(cls, message):
    def read(value, _):
        if not isinstance(value, cls):
            raise ValueError(message)
        return value
    return read


_boolean = _instance_of(bool, "must be true or false")
_string = _instance_of(str, "must be a string")
_object = _instance_of(dict, "expected an object")


def _choice(value, choices):
    # compare types too, so that 1.0 and true do not pass for 1
    if not any(type(value) is type(choice) and value == choice for choice in choices):
        raise ValueError("must be one of " + ", ".join(map(repr, choices)))
    return value


def _complex(value, _):
    """A number or an [re, im] pair, kept in that JSON form."""
    pair = isinstance(value, list) and len(value) == 2
    try:
        parts = [_number(part, None) for part in (value if pair else [value])]
    except ValueError:
        raise ValueError("expected a finite number or a [re, im] pair") from None
    return parts if pair else parts[0]


def _matrix(value, _):
    entries = np.array(value, dtype=object)
    if entries.ndim != 2 or entries.size == 0:
        raise ValueError("expected a 2-d matrix (a list of equal-length lists)")
    for row in entries:
        for entry in row:
            _number(entry, None)
    return entries.astype(float).tolist()


def _word_or(word, reader):
    """A reader that also takes the string ``word``."""
    return lambda value, bound: value if value == word else reader(value, bound)


def _observables(value, choices):
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ValueError("must be a list of observable names")
    for name in value:
        if name not in choices:
            raise ValueError(f"unknown observable {name!r} (choose from {', '.join(choices)})")
        if value.count(name) > 1:
            raise ValueError(f"lists {name!r} more than once")
    return list(value)


def _fock(value, _):
    # the level is checked against dim by _hilbert_rules
    if not isinstance(value, dict) or set(value) != {"fock"}:
        raise ValueError("boson supports 'vacuum' or {'fock': n}")
    return value


def _objects(value, _):
    # the schema pass reads each item with the row's item rows
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ValueError("expected a list of objects")
    return value


# --------------------------------------------------------------------------
# the field table

_REQUIRED = object()  # default of a field the document must give
_ABSENT = object()  # default of an optional field that stays absent

_ALL = ("qubit", "boson", "gaussian")
_HILBERT = ("qubit", "boson")
_GAUSSIAN = ("gaussian",)


def _at_least(low):
    return (lambda value: value >= low, f"must be >= {low}")


_POSITIVE = (lambda value: value > 0, "must be > 0")
_UNIT = (lambda value: 0.0 <= value <= 1.0, "efficiency out of [0, 1]")
_TERM = (("op", _string, None, _REQUIRED, _ALL), ("coeff", _complex, None, 1.0, _ALL))
_CHANNEL = (
    ("rate", _number, _at_least(0), _REQUIRED, _ALL), ("op", _string, None, _REQUIRED, _ALL)
)

# path, reader, bound or choices (item rows for lists of objects), default,
# system kinds; an object's row comes before the rows of its keys
_FIELDS = (
    ("schema_version", _choice, (SCHEMA_VERSION,), _REQUIRED, _ALL),
    ("system", _object, None, _REQUIRED, _ALL),
    ("system.kind", _choice, _ALL, _REQUIRED, _ALL),
    ("system.dim", _integer, _at_least(2), _REQUIRED, ("boson",)),
    ("system.n_modes", _integer, _at_least(1), 1, _GAUSSIAN),
    ("system.initial_state", _choice, ("excited", "ground", "plus_x"), "excited", ("qubit",)),
    ("system.initial_state", _word_or("vacuum", _fock), None, "vacuum", ("boson",)),
    ("system.initial_state", _choice, ("vacuum",), "vacuum", _GAUSSIAN),
    ("model", _object, None, _REQUIRED, _ALL),
    ("model.hamiltonian", _objects, _TERM, [], _HILBERT),
    ("model.channels", _objects, _CHANNEL, [], _HILBERT),
    ("model.bath", _object, None, {}, _HILBERT),
    ("model.bath.n_thermal", _number, _at_least(0), 0.0, _HILBERT),
    ("model.bath.squeezing", _word_or("squeezed_vacuum", _complex), None, 0.0, _HILBERT),
    ("model.bath.drive", _complex, None, 0.0, _HILBERT),
    ("model.efficiency", _number, _UNIT, 1.0, _HILBERT),
    ("model.homodyne_phase", _number, None, 0.0, _HILBERT),
    ("model.opo", _object, None, _ABSENT, _GAUSSIAN),
    ("model.opo.chi", _number, None, 0.0, _GAUSSIAN),
    ("model.opo.kappa", _number, _POSITIVE, 1.0, _GAUSSIAN),
    ("model.opo.eta", _number, _UNIT, 1.0, _GAUSSIAN),
    ("model.matrices", _object, None, _ABSENT, _GAUSSIAN),
    ("model.matrices.A", _matrix, None, _REQUIRED, _GAUSSIAN),
    ("model.matrices.D", _matrix, None, _REQUIRED, _GAUSSIAN),
    ("model.matrices.B", _matrix, None, _REQUIRED, _GAUSSIAN),
    ("model.matrices.E", _matrix, None, _REQUIRED, _GAUSSIAN),
    ("unravelling", _object, None, {}, _ALL),
    ("unravelling.kind", _choice, ("none", "jump", "homodyne", "heterodyne"), "none", _ALL),
    ("unravelling.stepper", _choice, ("euler", "kraus"), "euler", _ALL),
    ("unravelling.linear", _boolean, None, False, _ALL),
    ("unravelling.mu", _number, None, 0.0, _ALL),
    ("unravelling.beta", _number,
     (_POSITIVE[0], "rule ostensible_rate_positive: beta must be > 0"), 1.0, _ALL),
    ("unravelling.bath_mode", _choice, ("generalized", "replaced_operator"), "generalized",
     _ALL),
    # which feedback fields a feedback kind needs is a rule of _resolve
    ("feedback", _object, None, {}, _ALL),
    ("feedback.kind", _choice, ("none", "markovian", "lqg"), "none", _ALL),
    ("feedback.operator", _objects, _TERM, _ABSENT, _ALL),
    ("feedback.f", _matrix, None, _ABSENT, _ALL),
    ("feedback.m", _word_or("optimal", _matrix), None, _ABSENT, _ALL),
    ("feedback.p", _matrix, None, _ABSENT, _ALL),
    ("feedback.q", _matrix, None, _ABSENT, _ALL),
    ("run", _object, None, _REQUIRED, _ALL),
    ("run.dt", _number, _POSITIVE, _REQUIRED, _ALL),
    ("run.t_final", _number, _POSITIVE, _REQUIRED, _ALL),
    ("run.n_traj", _integer, _at_least(1), 1000, _ALL),
    # the Philox key word of each substream holds the seed: anything outside
    # [0, 2**64 - 1] would wrap onto another seed's streams
    ("run.seed", _integer,
     (lambda seed: 0 <= seed <= 2**64 - 1, "must be an integer in [0, 2**64 - 1]"), 1234, _ALL),
    ("run.noise", _choice, ("gaussian", "two_point"), "gaussian", _ALL),
    ("run.threads", _integer, _at_least(1), 1, _ALL),
    ("run.block_size", _integer, _at_least(1), 1024, _ALL),
    ("run.validate_every", _integer,
     (_at_least(0)[0], "must be an integer >= 0 (0 disables the checks)"), 50, _ALL),
    ("run.track_min_eigenvalue", _boolean, None, False, _ALL),
    ("run.store_states", _boolean, None, False, _ALL),
    ("output", _object, None, {}, _ALL),
    ("output.directory", _string, None, "runs/scenario", _ALL),
    ("output.stats_filename", _string, None, "stats.csv", _ALL),
    ("output.manifest_filename", _string, None, "manifest.json", _ALL),
    ("output.records", _boolean, None, False, _ALL),
    ("output.observables", _observables, _QUBIT_OBSERVABLES, ["rho_ee"], ("qubit",)),
    ("output.observables", _observables, _BOSON_OBSERVABLES, ["n", "q"], ("boson",)),
    ("output.observables", _observables, _GAUSSIAN_OBSERVABLES, list(_GAUSSIAN_OBSERVABLES),
     _GAUSSIAN),
)


def _read(src: dict, rows, kind: str, at: str, ctx: _Collector) -> dict:
    """Apply ``rows`` to the object ``src`` found at path ``at``; return it
    normalized, with defaults filled."""
    norm: dict = {}
    objects = {"": (src, norm)}  # row path -> (document object, normalized object)
    applicable = set()
    for path, reader, bound, default, kinds in rows:
        if kind not in kinds:
            continue
        applicable.add(path)
        parent, _, key = path.rpartition(".")
        if parent not in objects:
            continue  # the enclosing object is absent or rejected
        obj, dst = objects[parent]
        if key in obj:
            value = obj[key]
        elif default is _REQUIRED:
            ctx.err(f"{at}.{path}", "required")
            continue
        elif default is _ABSENT:
            continue
        else:
            value = default
        try:
            dst[key] = reader(value, bound)
        except ValueError as exc:
            ctx.err(f"{at}.{path}", str(exc))
            continue
        if reader is _object:
            dst[key] = {}
            objects[path] = (value, dst[key])
        elif reader is _objects:
            dst[key] = [
                _read(item, bound, kind, f"{at}.{path}[{i}]", ctx) for i, item in enumerate(value)
            ]
    paths = {row[0] for row in rows}
    for parent, (obj, _) in objects.items():
        for key in obj:
            path = f"{parent}.{key}" if parent else key
            if path not in paths:
                ctx.err(f"{at}.{parent}" if parent else at, f"unknown key {key!r}")
            elif path not in applicable:
                ctx.err(f"{at}.{path}", f"not applicable to {kind} systems")
    return norm


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated, fully defaulted scenario configuration."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document, filling defaults, and
    check that it builds.

    Raises :class:`ConfigError` carrying every violation of the schema pass,
    or, once that is clean, every violation of the cross-field rules.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: not valid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["$: top level must be an object"])
    return _resolve(raw).config


# --------------------------------------------------------------------------
# resolution


def _build(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; the ValueErrors (``LinAlgError``,
    ``HurwitzError``, ...) and ``ConvergenceError``s it raises become a
    ``ConfigError`` at ``where``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, ConvergenceError) as exc:
        raise ConfigError([f"{where}: {exc}"]) from exc


def _n_steps(run: dict) -> int:
    # capped, so that an overflowing t_final / dt still counts as a step count
    return int(round(min(run["t_final"] / run["dt"], 2.0**62)))


def _check_memory(cfg: dict) -> None:
    """Rule ``run_memory``: the run's arrays must fit in physical memory.

    Counted from below, in bytes: the operator set; per block in flight the
    state and one work buffer, and the noise block; the per-step sums of
    every block, held until the reduction; stored states and records.
    """
    system, run, ukind = cfg["system"], cfg["run"], cfg["unravelling"]["kind"]
    steps = _n_steps(run)
    if system["kind"] == "gaussian":  # real mean vectors, one covariance path
        dim, entry = 2 * system["n_modes"], 8
        state, ops, path = dim, 4 * dim * dim * entry, (steps + 1) * dim * dim * entry
    else:  # complex density matrices
        dim, entry = system.get("dim", 2), 16
        state, ops, path = dim * dim, 9 * dim * dim * entry, 0
    need = ops + path + (steps + 1) * state * entry  # or the deterministic path
    if ukind != "none":
        draws = 2 if ukind == "heterodyne" else 1
        block = min(run["block_size"], run["n_traj"])
        blocks = -(-run["n_traj"] // block)
        sums = (steps + 1) * (6 * len(cfg["output"]["observables"]) + 2) * 8
        need = ops + path + blocks * sums
        need += min(run["threads"], blocks) * block * (2 * state * entry + steps * draws * 8)
        stored = run["store_states"] * (steps + 1) * state * entry
        stored += cfg["output"]["records"] * steps * draws * (1 if ukind == "jump" else 8)
        need += run["n_traj"] * stored
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        gib = min(need, 2**100) / 2**30  # still a lower bound, and a float
        raise ConfigError([
            f"$.run: rule run_memory: the run needs at least {gib:.3g} GiB at once, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        ])


def _gaussian_rules(cfg: dict, gmodel: GaussianModel, ctx: _Collector) -> None:
    ukind, fb, n_modes = cfg["unravelling"]["kind"], cfg["feedback"], cfg["system"]["n_modes"]
    needed = {"markovian": ("f",), "lqg": ("f", "p", "q")}.get(fb["kind"], ())
    # the model's quadrature labels must resolve every observable the run
    # records (the ensemble always records q and p)
    recorded = {name.removeprefix("cond_var_").removeprefix("unc_var_")
                for name in cfg["output"]["observables"]}
    if ukind != "none":
        recorded |= {"q", "p"}
    missing = sorted(recorded - set(gmodel.labels))
    ctx.rules((
        (gmodel.n_modes != n_modes, "$.model",
         f"rule gaussian_mode_count: the model has {gmodel.n_modes} mode(s), "
         f"system.n_modes is {n_modes}"),
        (missing, "$.output.observables",
         f"rule gaussian_observable_labels: no model quadrature labelled "
         f"{', '.join(missing)} (labels: {', '.join(gmodel.labels)})"),
        (ukind in ("jump", "heterodyne"), "$.unravelling.kind",
         "rule gaussian_monitoring: gaussian systems support 'none' or 'homodyne' "
         "(monitoring is set by the B/E matrices)"),
        (fb["kind"] != "none" and ukind == "none", "$.feedback.kind",
         "rule feedback_needs_monitoring: add a homodyne unravelling"),
        (any(name not in fb for name in needed), "$.feedback",
         f"{fb['kind']} feedback needs matrices {', '.join(needed)}"),
        (cfg["unravelling"]["linear"], "$.unravelling.linear",
         "linear trajectories apply to Hilbert-space systems"),
        (cfg["run"]["noise"] == "two_point", "$.run.noise",
         "rule two_point_diffusive_only: not available for gaussian moments"),
    ))


def _hilbert_rules(cfg: dict, bath: BathSpec, ctx: _Collector) -> None:
    system, model, unrav, fb = cfg["system"], cfg["model"], cfg["unravelling"], cfg["feedback"]
    ukind, fkind, linear, eta = unrav["kind"], fb["kind"], unrav["linear"], model["efficiency"]
    init, n_th = system["initial_state"], bath.n_thermal
    level = init["fock"] if isinstance(init, dict) else 0
    diffusive_bath = ukind in ("homodyne", "heterodyne") and not bath.is_vacuum
    # the replaced-operator homodyne runs the vacuum steppers on c~, which
    # take any phase, feedback and linear mode
    replaced = ukind == "homodyne" and unrav["bath_mode"] == "replaced_operator"
    generalized = diffusive_bath and not replaced
    ctx.rules((
        (not isinstance(level, int) or isinstance(level, bool)
         or not 0 <= level < system.get("dim", 2),
         "$.system.initial_state.fock", "must be an integer in [0, dim - 1]"),
        (fkind == "lqg", "$.feedback.kind",
         "rule lqg_requires_gaussian: lqg feedback needs a gaussian system"),
        (fkind == "markovian" and not fb.get("operator"), "$.feedback.operator",
         "markovian feedback needs a nonzero operator"),
        (fkind != "none" and ukind == "none", "$.feedback.kind",
         "rule feedback_needs_monitoring: feedback requires an unravelling"),
        (ukind != "none" and len(model["channels"]) != 1, "$.model.channels",
         "rule single_channel: an unravelling monitors exactly one collapse channel"),
        (ukind == "jump" and not bath.is_vacuum, "$.unravelling.kind",
         "rule jump_vacuum_bath: photon counting with thermal/squeezed/driven baths "
         "is not supported"),
        (ukind == "jump" and fkind == "markovian" and eta != 1.0, "$.model.efficiency",
         "rule jump_feedback_unit_efficiency: photodetection feedback requires efficiency = 1"),
        (ukind == "jump" and cfg["run"]["noise"] == "two_point", "$.run.noise",
         "rule two_point_diffusive_only: two-point noise is for diffusive unravellings"),
        (ukind == "homodyne" and fkind == "markovian" and eta == 0.0, "$.model.efficiency",
         "rule homodyne_feedback_efficiency: homodyne feedback needs efficiency > 0"),
        (ukind == "homodyne" and bath.squeezing.imag != 0.0, "$.model.bath.squeezing",
         "rule homodyne_real_squeezing: homodyne unravellings need a real squeezing M"),
        # c~ = mu c - nu c^dag is built from N alone, so it has M = +sqrt(N(N+1))
        (diffusive_bath and unrav["bath_mode"] == "replaced_operator"
         and (abs(abs(bath.squeezing) ** 2 - n_th * (n_th + 1.0)) > 1e-12
              or bath.squeezing.real < 0.0),
         "$.unravelling.bath_mode",
         "rule replaced_operator_squeezed_vacuum: operator replacement needs "
         "M = +sqrt(N(N+1))"),
        (generalized and eta != 1.0, "$.model.efficiency",
         "rule generalized_bath_unit_efficiency: generalized-bath diffusive unravellings "
         "require efficiency = 1"),
        (generalized and model["homodyne_phase"] != 0.0, "$.model.homodyne_phase",
         "rule generalized_bath_homodyne_phase: diffusive unravellings with a "
         "thermal/squeezed/driven bath require homodyne_phase = 0"),
        (generalized and ukind == "heterodyne" and bath.squeezing != 0, "$.unravelling.kind",
         "rule heterodyne_thermal_only: generalized heterodyne needs a thermal bath (M = 0)"),
        (generalized and fkind != "none", "$.feedback.kind",
         "rule feedback_vacuum_bath: diffusive feedback needs a vacuum bath or the "
         "replaced-operator squeezed vacuum"),
        (generalized and linear, "$.unravelling.linear",
         "rule linear_vacuum_bath: linear diffusive trajectories need a vacuum bath or the "
         "replaced-operator squeezed vacuum"),
        (linear and fkind != "none", "$.unravelling.linear",
         "rule linear_no_feedback: linear trajectories exclude feedback"),
        (linear and eta != 1.0, "$.model.efficiency",
         "rule linear_unit_efficiency: linear trajectories require efficiency = 1"),
        (linear and ukind not in ("jump", "homodyne"), "$.unravelling.linear",
         "linear mode applies to jump or homodyne unravellings"),
        (unrav["stepper"] == "kraus"
         and (ukind not in ("jump", "homodyne") or fkind != "none" or linear or generalized),
         "$.unravelling.stepper",
         "rule kraus_stepper: the Kraus stepper needs a jump or homodyne unravelling without "
         "feedback or linear mode, and a vacuum bath or the replaced-operator squeezed vacuum"),
        (fkind == "markovian" and ukind == "heterodyne", "$.feedback.kind",
         "rule feedback_single_current: heterodyne feedback is not supported"),
    ))


def _to_complex(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def _resolve_terms(terms, opset, path, ctx, hermitian_rule=None):
    """The summed operator of ``terms``, or None if a name does not resolve;
    ``hermitian_rule`` names the rule that requires the sum to be Hermitian."""
    unknown = sorted({term["op"] for term in terms} - set(opset))
    for name in unknown:
        ctx.err(path, f"unknown operator {name!r}")
    if unknown:
        return None
    total = np.zeros_like(opset["identity"])
    for term in terms:
        total = total + _to_complex(term["coeff"]) * opset[term["op"]]
    if hermitian_rule and not is_hermitian(total):
        ctx.err(path, f"rule {hermitian_rule}: the summed operator must be Hermitian")
    return total


def _resolve(doc: dict) -> RuntimeJob:
    """Check a document and build the job it describes.

    This is the only code that builds operators, models, gains and scenarios
    from a configuration; ``parse_config`` and ``build_runtime`` both call it.
    The cross-field rules run once the schema pass (``_FIELDS``) is clean.
    """
    system = doc.get("system")
    kind = system.get("kind") if isinstance(system, dict) else None
    ctx = _Collector()
    config = ScenarioConfig(_read(doc, _FIELDS, kind if kind in _ALL else "qubit", "$", ctx))
    run = config.data.get("run", {})
    if run.get("t_final", math.inf) < run.get("dt", 0.0):
        ctx.err("$.run.t_final", "must be a finite number >= dt")
    ctx.raise_errors()
    cfg = config.data
    system, model_cfg, unrav, fb = cfg["system"], cfg["model"], cfg["unravelling"], cfg["feedback"]
    ukind, fkind = unrav["kind"], fb["kind"]
    _check_memory(cfg)
    if system["kind"] == "gaussian":
        if ("opo" in model_cfg) == ("matrices" in model_cfg):
            raise ConfigError(["$.model: gaussian systems need one 'opo' or 'matrices' block"])
        if "opo" in model_cfg:
            gmodel = _build("$.model.opo", opo_model, **model_cfg["opo"])
        else:
            gmodel = _build("$.model.matrices", GaussianModel, **model_cfg["matrices"])
        _gaussian_rules(cfg, gmodel, ctx)
        ctx.raise_errors()
        if ukind == "none":
            return RuntimeJob(
                "gaussian_unconditional", config,
                payload={"model": gmodel, "t_grid": np.arange(_n_steps(run) + 1) * run["dt"]},
            )
        controller = f_mat = None
        if fkind != "none":
            f_mat = np.asarray(fb["f"], dtype=float)
        if fkind == "markovian" and fb.get("m", "optimal") == "optimal":
            controller = ("markovian",
                          _build("$.feedback", lambda: markovian_gain(gmodel, f_mat).gain))
        elif fkind == "markovian":  # an explicit M; F M maps the currents to quadratures
            gain = np.asarray(fb["m"], dtype=float)
            if f_mat.shape[0] != gmodel.dim or gain.shape != (f_mat.shape[1], gmodel.n_currents):
                raise ConfigError([f"$.feedback.m: F M must be ({gmodel.dim}, {gmodel.n_currents})"
                                   f" for this model; F is {f_mat.shape}, M is {gain.shape}"])
            controller = ("markovian", gain)
        elif fkind == "lqg":
            result = _build("$.feedback", lqg_gain, gmodel, f_mat,
                            np.asarray(fb["p"], dtype=float), np.asarray(fb["q"], dtype=float))
            controller = ("lqg", result.gain)
        scenario = Scenario(
            "gaussian", gmodel, GaussianState.vacuum(gmodel.n_modes),
            f_mat=f_mat, controller=controller,
        )
        return _ensemble_job(config, scenario, (("q", None), ("p", None)))

    bath_cfg = model_cfg["bath"]
    n_th, sq = bath_cfg["n_thermal"], bath_cfg["squeezing"]
    squeezing = (
        complex(np.sqrt(n_th * (n_th + 1.0))) if sq == "squeezed_vacuum" else _to_complex(sq)
    )
    bath = _build("$.model.bath: rule bath_physicality", BathSpec,
                  n_thermal=n_th, squeezing=squeezing, drive=_to_complex(bath_cfg["drive"]))
    _hilbert_rules(cfg, bath, ctx)
    dim = system.get("dim", 2)
    opset = build_standard_ops(system["kind"], dim)
    if system["kind"] == "boson":
        opset["qp_plus_pq"] = opset["q"] @ opset["p"] + opset["p"] @ opset["q"]
        opset["q2"] = opset["q"] @ opset["q"]
        opset["p2"] = opset["p"] @ opset["p"]
    hamiltonian = _resolve_terms(model_cfg["hamiltonian"], opset, "$.model.hamiltonian", ctx,
                                 "hamiltonian_hermitian")
    channels = [
        (chan["rate"], _resolve_terms([{"op": chan["op"], "coeff": 1.0}], opset,
                                      "$.model.channels", ctx))
        for chan in model_cfg["channels"]
    ]
    f_op = None
    if fkind == "markovian":
        f_op = _resolve_terms(fb.get("operator", []), opset, "$.feedback.operator", ctx,
                              "feedback_hermitian")
    ctx.raise_errors()

    if not bath.is_vacuum and unrav["bath_mode"] == "replaced_operator" and ukind == "homodyne":
        channels = [(k, squeezed_vacuum_jump_operator(c, n_th)) for k, c in channels]
        bath = BathSpec()
    model = _build(
        "$.model", OpenSystemModel, hamiltonian, channels, bath=bath,
        efficiency=model_cfg["efficiency"], homodyne_phase=model_cfg["homodyne_phase"],
    )
    init = system["initial_state"]
    if system["kind"] == "qubit":
        vec = np.array({"excited": [1.0, 0.0], "ground": [0.0, 1.0], "plus_x": [1.0, 1.0]}[init],
                       dtype=complex)
        vec = vec / np.sqrt(2.0) if init == "plus_x" else vec
        rho0 = np.outer(vec, vec.conj())
    else:
        rho0 = np.zeros((dim, dim), dtype=complex)
        level = 0 if init == "vacuum" else init["fock"]
        rho0[level, level] = 1.0
    # every observable is the operator of its name, but for the qubit populations
    alias = {"rho_ee": "projector_e", "rho_gg": "projector_g"}
    observables = tuple(
        (name, opset[alias.get(name, name)]) for name in cfg["output"]["observables"]
    )
    if ukind == "none":
        return RuntimeJob(
            "me", config,
            payload={"model": model, "rho0": rho0, "observables": observables,
                     "t_grid": np.arange(_n_steps(run) + 1) * run["dt"]},
        )
    # the rules leave feedback and linear mode to vacuum baths, feedback to jump
    # and homodyne, and the Kraus stepper to the kinds that have one
    if f_op is not None:
        kind = f"{ukind}_feedback"
    elif unrav["linear"]:
        kind = f"linear_{ukind}"
    elif not model.bath.is_vacuum:
        kind = f"generalized_{ukind}"
    elif unrav["stepper"] == "kraus":
        kind = f"{ukind}_kraus"
    else:
        kind = ukind
    scenario = Scenario(
        kind, model, rho0, feedback_operator=f_op, mu=unrav["mu"], beta_ost=unrav["beta"],
    )
    return _ensemble_job(
        config, scenario, observables,
        track_min_eigenvalue=run["track_min_eigenvalue"], validate_every=run["validate_every"],
    )


def _ensemble_job(config: ScenarioConfig, scenario: Scenario, observables, **extra):
    run = config.data["run"]
    spec = EnsembleSpec(
        n_traj=run["n_traj"], master_seed=run["seed"], dt=run["dt"],
        t_final=run["t_final"], observables=observables, noise=run["noise"],
        threads=run["threads"], block_size=run["block_size"],
        store_records=config.data["output"]["records"], store_states=run["store_states"],
        **extra,
    )
    return RuntimeJob("ensemble", config, spec=spec, scenario=scenario)


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
            means, covs = unconditional_moments(
                model, GaussianState.vacuum(model.n_modes), float(grid[1] - grid[0]), grid.size - 1
            )
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

    ``threads``/``seed`` override the run block and pass the schema pass with
    it (the overrides are echoed into the effective configuration so
    manifests stay rerunnable).
    """
    doc = json.loads(json.dumps(config.data))  # deep copy
    for key, value in (("seed", seed), ("threads", threads)):
        if value is not None:
            doc["run"][key] = value
    return _resolve(doc)


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
    text = Path(path).read_text()
    with contextlib.suppress(json.JSONDecodeError):  # parse_config reports it
        doc = json.loads(text)
        if isinstance(doc, dict) and "manifest_version" in doc:
            text = json.dumps(doc["config"])
    return parse_config(text)
