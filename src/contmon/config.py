"""Declarative scenario configuration: a versioned JSON schema, the one
resolution that builds a run from it, and the file-writing run driver used by
the CLI.

``_resolve`` applies the field table ``_FIELDS`` (filling defaults, rejecting
unknown keys and malformed values), then the cross-field rules and the
``run_memory`` size rule, and builds the job, reporting the library's build
errors at ``$.`` paths.  ``parse_config`` and ``build_runtime`` both call it,
so ``validate`` accepts exactly the documents ``run`` can build.

Every job is one trajectory ensemble, an ``EnsembleSpec`` and a ``Scenario``
of a ``KINDS`` entry: a document without an unravelling runs ``"me"`` or
``"gaussian_moments"``, one noise-free trajectory (``_spec_fields``).  The
run records the observables the output columns name, and ``_columns``
derives every column from its ``EnsembleStats``.

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
from .ensemble import KINDS, EnsembleSpec, EnsembleStats, Scenario, run_ensemble, stats_shape
from .gaussian import (
    ConvergenceError,
    GaussianModel,
    GaussianState,
    markovian_gain,
    lqg_gain,
    opo_model,
    # perfbench/spans.py wraps config.unconditional_moment_rhs, so the name stays
    unconditional_moment_rhs,  # noqa: F401
)
# perfbench/spans.py wraps config.me_expectations, so the name stays
from .master_equation import BathSpec, OpenSystemModel, me_expectations  # noqa: F401

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


def _column_of(name: str) -> tuple[str, str]:
    """(quantity, observable) of an output column: ("mean", name) for an
    observable the run records, ("cond", "q") for "cond_var_q" and ("unc",
    "q") for "unc_var_q"."""
    quantity, _, label = name.rpartition("_var_")
    return quantity or "mean", label


def _recorded(cfg: dict) -> list:
    """The observables a run records, in column order: every Hilbert-space
    observable, and every Gaussian quadrature that a column names."""
    return list(dict.fromkeys(_column_of(name)[1] for name in cfg["output"]["observables"]))


def _spec_fields(cfg: dict, kind: str) -> dict:
    """The ``EnsembleSpec`` fields, but the observables, of a run of
    ``kind``.  A kind that draws nothing runs one trajectory: it stores no
    records or states, tracks no eigenvalue and ignores ``noise``,
    ``threads`` and ``block_size``."""
    run = cfg["run"]
    fields = dict(n_traj=1, master_seed=run["seed"], dt=run["dt"], t_final=run["t_final"])
    if KINDS[kind].draws:
        fields.update(
            n_traj=run["n_traj"], noise=run["noise"], threads=run["threads"],
            block_size=run["block_size"], store_records=cfg["output"]["records"],
            store_states=run["store_states"], validate_every=run["validate_every"],
            # a Gaussian run holds no density matrix to check
            track_min_eigenvalue=(run["track_min_eigenvalue"]
                                  and KINDS[kind].model is not GaussianModel),
        )
    return fields


def _check_memory(cfg: dict, kind: str) -> None:
    """Rule ``run_memory``: the run's arrays must fit in physical memory.

    Counted from below, in bytes, for a run of the scenario ``kind`` as
    ``_spec_fields`` sets it up: the operator set; per block in flight the
    state and one work buffer, and the noise block; the per-step statistics
    of every block, held until the merge; stored states and records.  A kind
    that draws nothing holds every state of its trajectory, as the
    integrator it runs keeps them.
    """
    system, steps = cfg["system"], _n_steps(cfg["run"])
    if system["kind"] == "gaussian":  # real mean vectors, one covariance path
        dim, entry = 2 * system["n_modes"], 8
        state, ops, path = dim, 4 * dim * dim * entry, (steps + 1) * dim * dim * entry
    else:  # complex density matrices
        dim, entry = system.get("dim", 2), 16
        state, ops, path = dim * dim, 9 * dim * dim * entry, 0
    # a combination the rules reject names no kind: its unravelling's own
    # kind draws, records and counts alike
    kind = kind if kind in KINDS else cfg["unravelling"]["kind"]
    spec = EnsembleSpec(**_spec_fields(cfg, kind))
    draws, clicks = KINDS[kind].draws, KINDS[kind].clicks
    block = min(spec.block_size, spec.n_traj)
    blocks = -(-spec.n_traj // block)
    need = ops + path + blocks * 8 * math.prod(stats_shape(kind, steps, len(_recorded(cfg))))
    need += min(spec.threads, blocks) * block * (2 * state * entry + steps * draws * 8)
    stored = (spec.store_states or not draws) * (steps + 1) * state * entry
    stored += spec.store_records * steps * draws * (1 if clicks else 8)
    need += spec.n_traj * stored
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
    # the model's quadrature labels must resolve every observable the run records
    missing = sorted(set(_recorded(cfg)) - set(gmodel.labels))
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


def _hilbert_rules(cfg: dict, bath: BathSpec, ctx: _Collector) -> str:
    """Report every cross-field rule a Hilbert-space document breaks, and
    return the scenario kind it selects ("me" without an unravelling): a
    feedback kind, else a linear one, else a generalized-bath one, else the
    stepper's.  What the selected kind's step needs is ``jump.NEEDS``, which
    ``Scenario`` checks when ``_resolve`` builds it."""
    system, model, unrav, fb = cfg["system"], cfg["model"], cfg["unravelling"], cfg["feedback"]
    ukind, fkind, linear, eta = unrav["kind"], fb["kind"], unrav["linear"], model["efficiency"]
    init, n_th = system["initial_state"], bath.n_thermal
    level = init["fock"] if isinstance(init, dict) else 0
    diffusive_bath = ukind in ("homodyne", "heterodyne") and not bath.is_vacuum
    # the replaced-operator homodyne runs the vacuum steppers on c~, which
    # take any phase, feedback and linear mode
    replaced = ukind == "homodyne" and unrav["bath_mode"] == "replaced_operator"
    generalized = diffusive_bath and not replaced
    rungs = ((fkind != "none", f"{ukind}_feedback"), (linear, f"linear_{ukind}"),
             (generalized, f"generalized_{ukind}"), (unrav["stepper"] == "kraus", f"{ukind}_kraus"))
    kind = "me" if ukind == "none" else next((name for taken, name in rungs if taken), ukind)
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
         "rule linear_jump_or_homodyne: linear mode applies to jump or homodyne unravellings"),
        # the stepper is the last rung: a Kraus kind is selected only without
        # feedback, linear mode and a generalized bath
        (unrav["stepper"] == "kraus" and kind not in ("jump_kraus", "homodyne_kraus"),
         "$.unravelling.stepper",
         "rule kraus_stepper: the Kraus stepper needs a jump or homodyne unravelling without "
         "feedback or linear mode, and a vacuum bath or the replaced-operator squeezed vacuum"),
        (kind == "heterodyne_feedback", "$.feedback.kind",
         "rule feedback_single_current: heterodyne feedback is not supported"),
    ))
    return kind


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
    if system["kind"] == "gaussian":
        kind = "gaussian_moments" if ukind == "none" else "gaussian"
        _check_memory(cfg, kind)
        if ("opo" in model_cfg) == ("matrices" in model_cfg):
            raise ConfigError(["$.model: gaussian systems need one 'opo' or 'matrices' block"])
        if "opo" in model_cfg:
            gmodel = _build("$.model.opo", opo_model, **model_cfg["opo"])
        else:
            gmodel = _build("$.model.matrices", GaussianModel, **model_cfg["matrices"])
        _gaussian_rules(cfg, gmodel, ctx)
        ctx.raise_errors()
        f_mat = None if fkind == "none" else np.asarray(fb["f"], dtype=float)
        controller = None
        if fkind == "lqg":
            result = _build("$.feedback", lqg_gain, gmodel, f_mat,
                            np.asarray(fb["p"], dtype=float), np.asarray(fb["q"], dtype=float))
            controller = ("lqg", result.gain)
        elif fkind == "markovian":
            m_gain = fb.get("m", "optimal")
            if m_gain == "optimal":
                m_gain = _build("$.feedback", lambda: markovian_gain(gmodel, f_mat).gain)
            controller = ("markovian", np.asarray(m_gain, dtype=float))
        # the vacuum and a synthesized gain fit the model, so only an explicit
        # M can fail here: F M must map the currents to the quadratures
        scenario = _build("$.feedback.m", Scenario, kind, gmodel,
                          GaussianState.vacuum(gmodel.n_modes), f_mat=f_mat, controller=controller)
        return _job(config, scenario, tuple((label, None) for label in _recorded(cfg)))

    bath_cfg = model_cfg["bath"]
    n_th, sq = bath_cfg["n_thermal"], bath_cfg["squeezing"]
    squeezing = (
        complex(np.sqrt(n_th * (n_th + 1.0))) if sq == "squeezed_vacuum" else _to_complex(sq)
    )
    bath = _build("$.model.bath: rule bath_physicality", BathSpec,
                  n_thermal=n_th, squeezing=squeezing, drive=_to_complex(bath_cfg["drive"]))
    kind = _hilbert_rules(cfg, bath, ctx)
    _check_memory(cfg, kind)
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
    scenario = _build("$.unravelling", Scenario, kind, model, rho0, feedback_operator=f_op,
                      mu=unrav["mu"], beta_ost=unrav["beta"])
    return _job(config, scenario, observables)


def _job(config: ScenarioConfig, scenario: Scenario, observables) -> RuntimeJob:
    spec = EnsembleSpec(observables=observables, **_spec_fields(config.data, scenario.kind))
    return RuntimeJob(config, spec, scenario)


def _columns(names, stats: EnsembleStats, model) -> dict:
    """name -> (mean, SE) of each output column, from a run's statistics.

    A recorded observable gives its own mean and SE.  For a Gaussian
    quadrature x, ``cond_var_x`` is sigma_xx of the covariance path, with SE
    0, and ``unc_var_x`` is sigma_xx + 2 Var(x), with the SE
    2 sqrt(Var(x^2) / n) from the spread of x^2, both centred."""
    columns = {}
    for name in names:
        quantity, label = _column_of(name)
        if quantity == "mean":
            columns[name] = (stats.means[label], stats.std_errs[label])
            continue
        idx = model.labels.index(label)
        var = stats.extra["cov_path"][:, idx, idx]
        if quantity == "cond":
            columns[name] = (var, np.zeros(var.shape))
        else:
            columns[name] = (var + 2.0 * stats.extra["var_x"][label],
                             2.0 * np.sqrt(stats.extra["var_x2"][label] / stats.n_traj))
    return columns


@dataclass
class RuntimeJob:
    """Executable form of a configuration: one trajectory ensemble.  A
    document without an unravelling runs the kind ``"me"`` or
    ``"gaussian_moments"``: one noise-free trajectory."""

    config: ScenarioConfig
    spec: EnsembleSpec
    scenario: Scenario

    def execute(self):
        """Run and return (t, columns, health, stats): ``columns`` an ordered
        dict name -> (mean array, se array), ``health`` the positivity
        counters (None where untracked) and ``stats`` the ``EnsembleStats``."""
        stats = run_ensemble(self.spec, self.scenario)
        columns = _columns(self.config.data["output"]["observables"], stats, self.scenario.model)
        health = {
            "min_eigenvalue": stats.min_eigenvalue,
            "positivity_violations": stats.positivity_violations,
        }
        return stats.t, columns, health, stats


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


def render_stats_csv(t: np.ndarray, columns: dict) -> bytes:
    """The stats table, each value as ``format(float(x), ".17g")`` writes it:
    one "%.17g" template per row, over Python floats made a chunk at a time."""
    header = ["t"]
    for name in columns:
        header += [f"{name}.mean", f"{name}.se"]
    table = np.column_stack([t] + [x for pair in columns.values() for x in pair])
    template = ",".join(["%.17g"] * len(header)) + "\n"
    lines = [",".join(header) + "\n"]
    for lo in range(0, len(table), 256):
        lines += [template % tuple(row) for row in table[lo : lo + 256].tolist()]
    return "".join(lines).encode()


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
    if stats.records is not None:
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
