import dataclasses
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmon.cli import main
from contmon.config import (
    ConfigError,
    build_runtime,
    load_config_or_manifest,
    parse_config,
    render_stats_csv,
    run_scenario,
)
from contmon.ensemble import run_ensemble
from contmon.presets import get_preset, list_presets, preset_config

from conftest import two_mode_model

MINIMAL = {
    "schema_version": 1,
    "system": {"kind": "qubit"},
    "model": {"channels": [{"rate": 1.0, "op": "sigma_minus"}]},
    "unravelling": {"kind": "jump"},
    "run": {"dt": 1e-3, "t_final": 0.5, "n_traj": 50, "seed": 7},
    "output": {"directory": "runs/minimal"},
}


def test_minimal_config_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.data["model"]["efficiency"] == 1.0
    assert cfg.data["model"]["homodyne_phase"] == 0.0
    assert cfg.data["model"]["bath"] == {"n_thermal": 0.0, "squeezing": 0.0, "drive": 0.0}
    assert cfg.data["feedback"] == {"kind": "none"}
    assert cfg.data["output"]["observables"] == ["rho_ee"]


def test_efficiency_out_of_range():
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"]["efficiency"] = 1.2
    with pytest.raises(ConfigError, match=r"efficiency out of \[0, 1\]"):
        parse_config(json.dumps(doc))


def test_jump_feedback_requires_unit_efficiency():
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"]["efficiency"] = 0.5
    doc["feedback"] = {"kind": "markovian", "operator": [{"op": "sigma_x", "coeff": 0.3}]}
    with pytest.raises(ConfigError, match="jump_feedback_unit_efficiency"):
        parse_config(json.dumps(doc))


def test_unknown_keys_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["run"]["dtt"] = 1e-3
    doc["model"]["decoherence"] = True
    try:
        parse_config(json.dumps(doc))
    except ConfigError as err:
        text = str(err)
        assert "unknown key 'dtt'" in text and "unknown key 'decoherence'" in text
    else:
        pytest.fail("unknown keys accepted")


def test_all_violations_collected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"]["efficiency"] = -0.1
    doc["run"]["dt"] = -1.0
    doc["unravelling"]["kind"] = "teleport"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert len(err.value.errors) >= 3


def test_lqg_requires_gaussian():
    doc = json.loads(json.dumps(MINIMAL))
    doc["feedback"] = {"kind": "lqg", "f": [[1, 0], [0, 1]], "p": [[1, 0], [0, 0]],
                       "q": [[1, 0], [0, 1]]}
    with pytest.raises(ConfigError, match="lqg_requires_gaussian"):
        parse_config(json.dumps(doc))


def test_round_trip_identity():
    cfg = parse_config(json.dumps(MINIMAL))
    again = parse_config(cfg.to_json())
    assert cfg.data == again.data


def test_preset_catalog():
    names = list_presets()
    assert "opo_lqg" in names
    assert len(names) == 12
    for name in names:
        preset_config(name)  # parses cleanly


def test_presets_run_at_smoke_scale(tmp_path):
    # the whole catalog completes at reduced resolution
    for name in list_presets():
        doc = get_preset(name)
        doc["run"]["n_traj"] = 100
        doc["run"]["dt"] = 1e-2
        cfg = parse_config(json.dumps(doc))
        artifacts = run_scenario(cfg, out_dir=tmp_path / name)
        assert artifacts.stats_path.exists()
        assert artifacts.manifest_path.exists()


def test_qubit_decay_jump_stats_follow_exponential(tmp_path):
    doc = get_preset("qubit_decay_jump")
    # enough trajectories that some click in the very first steps, so the
    # standard error is nonzero on the whole grid
    doc["run"].update({"n_traj": 800, "t_final": 1.0})
    cfg = parse_config(json.dumps(doc))
    artifacts = run_scenario(cfg, out_dir=tmp_path)
    rows = artifacts.stats_path.read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header == ["t", "rho_ee.mean", "rho_ee.se"]
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    t, mean, se = data[:, 0], data[:, 1], data[:, 2]
    ref = np.exp(-t)
    z = np.abs(mean - ref) / np.maximum(se, 1e-300)
    z[np.abs(mean - ref) == 0] = 0.0
    assert z.max() <= 3.0, f"max z = {z.max():.2f}"


def test_opo_markovian_feedback_reaches_conditional_covariance(tmp_path):
    doc = get_preset("opo_markovian_feedback")
    doc["run"].update({"n_traj": 200, "t_final": 12.0, "dt": 2e-3})
    cfg = parse_config(json.dumps(doc))
    artifacts = run_scenario(cfg, out_dir=tmp_path)
    rows = artifacts.stats_path.read_text().strip().split("\n")
    header = rows[0].split(",")
    last = [float(x) for x in rows[-1].split(",")]
    by_name = dict(zip(header, last))
    assert by_name["unc_var_q.mean"] == pytest.approx(0.6, abs=5e-3)
    assert by_name["unc_var_p.mean"] == pytest.approx(1.0 / 0.6, abs=5e-3)
    manifest = json.loads(artifacts.manifest_path.read_text())
    assert manifest["stats_sha256"] == artifacts.stats_sha256


def test_manifest_rerun_is_byte_identical(tmp_path):
    doc = get_preset("qubit_decay_jump")
    doc["run"].update({"n_traj": 120, "t_final": 0.3})
    cfg = parse_config(json.dumps(doc))
    first = run_scenario(cfg, out_dir=tmp_path / "a", threads=1)
    rerun_cfg = load_config_or_manifest(first.manifest_path)
    second = run_scenario(rerun_cfg, out_dir=tmp_path / "b", threads=8)
    assert first.stats_path.read_bytes() == second.stats_path.read_bytes()


def test_csv_floats_round_trip(tmp_path):
    doc = get_preset("qubit_homodyne")
    doc["run"].update({"n_traj": 30, "t_final": 0.1})
    cfg = parse_config(json.dumps(doc))
    artifacts = run_scenario(cfg, out_dir=tmp_path)
    rows = artifacts.stats_path.read_text().strip().split("\n")
    # 17 significant digits: format(value, '.17g') survives the round trip
    for row in rows[1:3]:
        for field in row.split(","):
            assert format(float(field), ".17g") == field


def test_stats_csv_matches_per_value_format():
    # the one-template-per-row rendering against the per-value join it
    # replaced, byte for byte, over the values that format specially
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
               1e308, -1.7976931348623157e308, 3.0, -42.0, 1e16, 0.1, 1 / 3]
    rng = np.random.default_rng(12)
    t = np.array(special + list(rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, 6)))
    columns = {"a": (t[::-1].copy(), np.abs(t)), "b.x": (np.arange(t.size, dtype=float), -t)}
    old = [",".join(["t", "a.mean", "a.se", "b.x.mean", "b.x.se"])]
    for i in range(t.size):
        row = [t[i]] + [v[i] for pair in columns.values() for v in pair]
        old.append(",".join(format(float(x), ".17g") for x in row))
    assert render_stats_csv(t, columns) == ("\n".join(old) + "\n").encode()
    assert render_stats_csv(t[:0], {"a": (t[:0], t[:0])}) == b"t,a.mean,a.se\n"


def test_manifest_records_library_versions(tmp_path):
    from contmon import __version__

    doc = dict(MINIMAL, run=dict(MINIMAL["run"], n_traj=5, t_final=0.01))
    artifacts = run_scenario(parse_config(json.dumps(doc)), out_dir=tmp_path)
    versions = json.loads(artifacts.manifest_path.read_text())["versions"]
    assert versions == {"contmon": __version__, "numpy": np.__version__}


def test_import_contmon_cli_loads_no_scipy():
    # the runtime needs numpy only; scipy is the tests' oracle
    code = ("import contmon.cli, sys; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_records_file(tmp_path):
    doc = get_preset("qubit_decay_jump")
    doc["run"].update({"n_traj": 25, "t_final": 0.2})
    doc["output"]["records"] = True
    cfg = parse_config(json.dumps(doc))
    artifacts = run_scenario(cfg, out_dir=tmp_path)
    with np.load(artifacts.records_path) as payload:
        assert payload["records"].shape == (25, 200)


@pytest.mark.parametrize("preset", ["qubit_decay_jump", "opo_conditional", "qubit_decay_me"])
def test_cli_saves_stored_states(tmp_path, capsys, preset):
    # run.store_states writes the run's states to records.npz under "states",
    # with no "records" unless output.records asks for them; a noise-free
    # kind stores nothing and writes no records file
    run = {"n_traj": 8, "t_final": 0.05, "store_states": True}
    overrides = [arg for key, value in run.items()
                 for arg in ("--override", f"run.{key}={json.dumps(value)}")]
    assert main(["preset", preset, "--out-dir", str(tmp_path)] + overrides) == 0
    capsys.readouterr()
    doc = get_preset(preset)
    doc["run"].update(run)
    job = build_runtime(parse_config(json.dumps(doc)))
    states = run_ensemble(job.spec, job.scenario).states
    if states is None:
        assert not (tmp_path / "records.npz").exists()
        return
    with np.load(tmp_path / "records.npz") as payload:
        assert "records" not in payload.files
        np.testing.assert_array_equal(payload["states"], states)


def test_opo_statistics_do_not_depend_on_the_records_flag(tmp_path):
    # the OPO's dead current moves no mean, so its increments are drawn only
    # for the records, from each trajectory's substream 1: keeping them moves
    # no statistic.  Blocks of 64 over 600 steps cross a chunk boundary
    doc = get_preset("opo_conditional")
    doc["run"].update(n_traj=150, t_final=0.6, block_size=64)
    out = {}
    for records in (False, True):
        doc["output"]["records"] = records
        out[records] = tmp_path / f"records_{records}"
        run_scenario(parse_config(json.dumps(doc)), out_dir=out[records])
    assert (out[True] / "records.npz").exists() and not (out[False] / "records.npz").exists()
    assert (out[True] / "stats.csv").read_bytes() == (out[False] / "stats.csv").read_bytes()


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL))
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"]["efficiency"] = 2.0
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    # not JSON at all: run used to exit 1 with a traceback
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert main(["validate", str(garbage)]) == 2
    assert main(["run", str(garbage), "--out-dir", str(tmp_path / "out")]) == 2
    assert "$: not valid JSON" in capsys.readouterr().err
    # not UTF-8, and nested past the recursion limit: each used to end in a
    # traceback with exit 1 (UnicodeDecodeError, RecursionError)
    deep = "[" * 100000 + "]" * 100000
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe{bad")
    (tmp_path / "deep.json").write_text(deep)
    for name in ("not_utf8.json", "deep.json"):
        assert main(["validate", str(tmp_path / name)]) == 2
        assert main(["run", str(tmp_path / name), "--out-dir", str(tmp_path / "out")]) == 2
    assert main(["preset", "qubit_decay_me", "--override", f"run.dt={deep}",
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("configuration error: ") for line in err)
    assert not (tmp_path / "out").exists()


def test_cli_run_and_rerun(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    doc = json.loads(json.dumps(MINIMAL))
    doc["output"]["directory"] = str(tmp_path / "out1")
    doc["run"]["threads"] = 2  # honoured without --threads
    config_path.write_text(json.dumps(doc))
    assert main(["run", str(config_path)]) == 0
    manifest = tmp_path / "out1" / "manifest.json"
    assert json.loads(manifest.read_text())["config"]["run"]["threads"] == 2
    assert main(["run", str(manifest), "--out-dir", str(tmp_path / "out2"), "--threads", "1"]) == 0
    rerun = json.loads((tmp_path / "out2" / "manifest.json").read_text())
    assert rerun["config"]["run"]["threads"] == 1
    a = (tmp_path / "out1" / "stats.csv").read_bytes()
    b = (tmp_path / "out2" / "stats.csv").read_bytes()
    assert a == b
    capsys.readouterr()


def test_cli_preset_with_override(tmp_path, capsys):
    rc = main([
        "preset", "qubit_decay_me",
        "--override", "run.t_final=0.5",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    rows = (tmp_path / "stats.csv").read_text().strip().split("\n")
    assert len(rows) == 502  # header + 501 grid points
    capsys.readouterr()


def _without_dt():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["run"]["dt"]
    return json.dumps(doc)


def _with_run(**fields):
    doc = json.loads(json.dumps(MINIMAL))
    doc["run"].update(fields)
    return json.dumps(doc)


def _gaussian_model(model):
    doc = get_preset("opo_conditional")
    doc["model"] = model
    return json.dumps(doc)


_MATRICES = {"A": [[-1.0, 0.0], [0.0, -1.0]], "D": [[1.0, 0.0], [0.0, 1.0]],
             "B": [[0.0], [0.0]], "E": [[0.0], [0.0]]}


@pytest.mark.parametrize("text, argv, message", [
    (_without_dt(), ["run", "{doc}"], "$.run.dt: required"),
    ("[]", ["run", "{doc}"], "$: top level must be an object"),
    (_with_run(t_final=1e-4), ["run", "{doc}"], "$.run.t_final: must be a finite number >= dt"),
    (_gaussian_model({}), ["run", "{doc}"],
     "$.model: gaussian systems need one 'opo' or 'matrices' block"),
    (_gaussian_model({"opo": {"chi": 0.2, "kappa": 1.0}, "matrices": _MATRICES}),
     ["run", "{doc}"], "$.model: gaussian systems need one 'opo' or 'matrices' block"),
    # an integer literal beyond any float
    (json.dumps(MINIMAL).replace('"dt": 0.001', '"dt": 1' + "0" * 400), ["run", "{doc}"],
     "$.run.dt: must be a finite number"),
    (None, ["preset", "qubit_decay_me", "--override", "run.n_traj"],
     "override 'run.n_traj' is not of the form path=value"),
    (None, ["preset", "qubit_decay_me", "--override", "run.dt.x=1"],
     "override path 'run.dt.x' does not address an object"),
], ids=["dt_missing", "top_level_list", "t_final_below_dt", "gaussian_no_model_block",
        "gaussian_both_model_blocks", "dt_overflows", "override_without_value",
        "override_through_a_number"])
def test_cli_reports_document_errors_at_their_paths(tmp_path, capsys, text, argv, message):
    config_path = tmp_path / "doc.json"
    if text is not None:
        config_path.write_text(text)
        assert main(["validate", str(config_path)]) == 2
    argv = [str(config_path) if arg == "{doc}" else arg for arg in argv]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count(message) == (2 if text is not None else 1)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    names = capsys.readouterr().out.split()
    assert names == list_presets() and len(names) == 12


def test_cli_unknown_preset(capsys):
    assert main(["preset", "does_not_exist"]) == 2
    capsys.readouterr()


def test_cli_physicality_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    doc["unravelling"] = {"kind": "homodyne"}
    doc["run"].update({"dt": 0.2, "t_final": 40.0, "n_traj": 64, "validate_every": 1})
    doc["output"]["directory"] = str(tmp_path)
    config_path = tmp_path / "explodes.json"
    config_path.write_text(json.dumps(doc))
    assert main(["run", str(config_path)]) == 3
    capsys.readouterr()


def _boson_blow_up(tmp_path, dim, **run):
    """An Euler homodyne run of a Fock state 2 at d = ``dim``, dt 0.1 and 40
    steps, whose states turn non-finite at step 16."""
    doc = {"schema_version": 1,
           "system": {"kind": "boson", "dim": dim, "initial_state": {"fock": 2}},
           "model": {"channels": [{"rate": 1.0, "op": "a"}]},
           "unravelling": {"kind": "homodyne"},
           "run": dict(dict(dt=0.1, t_final=4.0, n_traj=64, seed=3), **run),
           "output": {"directory": str(tmp_path / "out"), "observables": ["n", "q"]}}
    config_path = tmp_path / "blows_up.json"
    config_path.write_text(json.dumps(doc))
    return config_path


def _run_quietly(config_path):
    """The CLI's exit code for ``run CONFIG``, which must raise no
    RuntimeWarning: a run keeps numpy's floating-point warnings off and ends
    through its checks alone."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as the CLI's own process would print them
        code = main(["run", str(config_path)])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return code


def test_cli_blow_up_between_checks_exits_through_the_last_step_check(tmp_path, capsys):
    # 40 steps end before the first check of every 50: the check after the
    # last step stops the run, where it used to write NaN rows and exit 0
    assert _run_quietly(_boson_blow_up(tmp_path, 3)) == 3
    err = capsys.readouterr().err
    assert "at step 39: non-finite state entries" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "stats.csv").exists()
    # validate_every 0 still turns every check off, and the manifest names
    # the step after which the means stop being finite
    assert _run_quietly(_boson_blow_up(tmp_path, 3, validate_every=0)) == 0
    rows = np.loadtxt(tmp_path / "out" / "stats.csv", delimiter=",", skiprows=1)
    first = int(np.argmin(np.isfinite(rows).all(axis=1)))
    health = json.loads((tmp_path / "out" / "manifest.json").read_text())["health"]
    assert health == {"first_nonfinite_step": first - 1} and first > 1
    capsys.readouterr()


def test_cli_tracked_blow_up_exits_before_the_eigensolver(tmp_path, capsys):
    # a tracked run above d = 2 reads the states for non-finite entries before
    # its eigensolve, which used to raise LinAlgError on them, checks or not
    assert _run_quietly(_boson_blow_up(tmp_path, 5, track_min_eigenvalue=True,
                                       validate_every=0)) == 3
    err = capsys.readouterr().err
    assert "at step 16: non-finite state entries" in err
    assert "Traceback" not in err and "LinAlgError" not in err
    assert not (tmp_path / "out" / "stats.csv").exists()


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["run"].update(dt=10.0, t_final=200.0),
    lambda doc: doc["model"]["channels"][0].update(rate=1e300),
    lambda doc: doc["model"].update(hamiltonian=[{"op": "sigma_x", "coeff": 1e300}]),
], ids=["dt_10", "rate_1e300", "coeff_1e300"])
def test_cli_master_equation_blow_up_exits_through_the_drift_check(tmp_path, capsys, mutate):
    # a valid master-equation document whose step matrix overflows or whose
    # RK4 step is unstable ends in the trace-drift check, not in an exception,
    # and numpy's floating-point warnings do not reach stderr on the way
    doc = get_preset("qubit_decay_me")
    mutate(doc)
    doc["output"]["directory"] = str(tmp_path / "out")
    config_path = tmp_path / "blows_up.json"
    config_path.write_text(json.dumps(doc))
    assert main(["validate", str(config_path)]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as the CLI's own process would print them
        assert main(["run", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "trace drift" in err and "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_cli_jump_blow_up_exits_through_the_step_size_check(tmp_path, capsys):
    # a Hamiltonian of 1e200 overflows the coordinate step into NaN states,
    # whose NaN click probability must fail the step-size check rather than
    # read as "no click", with no validate_every check to catch the states
    doc = get_preset("qubit_decay_jump")
    doc["model"]["hamiltonian"] = [{"op": "sigma_x", "coeff": 1e200}]
    doc["run"].update(dt=0.01, n_traj=64, validate_every=0)
    doc["output"]["directory"] = str(tmp_path / "out")
    config_path = tmp_path / "blows_up.json"
    config_path.write_text(json.dumps(doc))
    assert _run_quietly(config_path) == 3
    err = capsys.readouterr().err
    assert "physicality violation" in err and "nan is not below" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "stats.csv").exists()


def _document(tmp_path, doc, **run):
    """``doc`` with ``run`` as its run block, written to a file whose
    outputs go to tmp_path / "out"."""
    doc = dict(json.loads(json.dumps(doc)), run=run)
    doc["output"] = dict(doc.get("output", {}), directory=str(tmp_path / "out"))
    config_path = tmp_path / "doc.json"
    config_path.write_text(json.dumps(doc))
    return config_path


LINEAR_DECAY = {"schema_version": 1, "system": {"kind": "qubit", "initial_state": "excited"},
                "model": {"channels": [{"rate": 1.0, "op": "sigma_minus"}]},
                "unravelling": {"kind": "jump", "linear": True},
                "output": {"observables": ["rho_ee"]}}


def test_cli_linear_jump_exits_through_the_step_size_check(tmp_path, capsys):
    # the linear kinds' ostensible click probability eta kappa beta dt meets
    # the same limit as kappa dt <c^dag c>; at dt 0.3 it used to exit 0 with
    # 22 of 41 rows NaN
    assert _run_quietly(_document(tmp_path, LINEAR_DECAY, dt=0.3, t_final=12.0, n_traj=64,
                                  seed=5)) == 3
    assert capsys.readouterr().err == ("physicality violation: jump probability per step 0.3 "
                                       "is not below 0.1; reduce dt\n")
    assert not (tmp_path / "out" / "stats.csv").exists()


def test_cli_linear_ensemble_whose_weight_vanishes(tmp_path, capsys):
    # an ostensible rate 8 times the true one annihilates every weight by step
    # 70: with checks on the run exits 3 there, where it used to write 2930
    # NaN rows of 3001; with checks off it writes them, warns of the
    # effective sample size and names the step in its health block
    doc = dict(LINEAR_DECAY, unravelling=dict(LINEAR_DECAY["unravelling"], beta=8.0))
    run = dict(dt=0.01, t_final=30.0, n_traj=64, seed=5)
    assert _run_quietly(_document(tmp_path, doc, **run)) == 3
    assert capsys.readouterr().err == "physicality violation at step 70: ensemble weight vanished\n"
    with pytest.warns(RuntimeWarning, match="effective sample size dropped to 0.0"):
        assert main(["run", str(_document(tmp_path, doc, validate_every=0, **run))]) == 0
    health = json.loads((tmp_path / "out" / "manifest.json").read_text())["health"]
    assert health == {"first_nonfinite_step": 70}
    capsys.readouterr()


def test_cli_tracked_qubit_blow_up_exits_through_the_tracked_minimum(tmp_path, capsys):
    # at d = 2 the tracked closed-form minimum reads non-finite entries, so a
    # tracked qubit run ends as a tracked run above d = 2 does, checks or not;
    # it used to exit 0 with 188 of 201 rows NaN
    doc = dict(MINIMAL, unravelling={"kind": "homodyne"})
    assert _run_quietly(_document(tmp_path, doc, dt=0.2, t_final=40.0, n_traj=64, seed=71,
                                  validate_every=0, track_min_eigenvalue=True)) == 3
    assert capsys.readouterr().err == "physicality violation at step 12: non-finite state entries\n"
    assert not (tmp_path / "out" / "stats.csv").exists()


def test_cli_threaded_blow_up_prints_one_line(tmp_path):
    # a pool's threads start without numpy's floating-point state, so each
    # block sets the run's policy itself: the CLI's own process prints the
    # violation and nothing else
    config_path = _boson_blow_up(tmp_path, 3, threads=2, block_size=32)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-m", "contmon.cli", "run", str(config_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 3
    assert out.stderr == "physicality violation at step 39: non-finite state entries\n"


def _large_dt_documents():
    """Every stochastic Hilbert-space document of the presets and the
    benchmark workloads, by name."""
    spec = importlib.util.spec_from_file_location(
        "run_digests", Path(__file__).resolve().parents[1] / "tools" / "run_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = list(sys.path)
    try:
        docs = tool.documents()  # prepends perfbench to sys.path
    finally:
        sys.path[:] = path
    return {name: doc for name, doc in docs.items() if doc["system"]["kind"] != "gaussian"
            and doc.get("unravelling", {}).get("kind", "none") != "none"}


@pytest.mark.parametrize("scale", [10, 30, 100, 300])
def test_cli_large_dt_runs_end_cleanly(tmp_path, capsys, scale):
    # every stochastic Hilbert-space document at dt times ``scale``, 40 steps
    # of 64 trajectories: with checks on a run exits 0 with finite
    # statistics, or 3 with one line; with checks off an exit-0 run whose
    # statistics are not finite names the step where they stopped being so
    docs = _large_dt_documents()
    assert len(docs) >= 22  # 22 documents at 4 scales: 88 runs with checks on
    for name, doc in docs.items():
        dt = doc["run"]["dt"] * scale
        for every in (50, 0):
            run = dict(doc["run"], dt=dt, t_final=40 * dt, n_traj=64, validate_every=every)
            code = _run_quietly(_document(tmp_path, doc, **run))
            err = capsys.readouterr().err
            assert (code, len(err.splitlines())) in ((0, 0), (2, 1), (3, 1)), (name, err)
            if code:
                continue
            rows = np.loadtxt(tmp_path / "out" / "stats.csv", delimiter=",", skiprows=1)
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            assert every == 0 or not len(bad), name
            health = json.loads((tmp_path / "out" / "manifest.json").read_text())["health"]
            assert health.get("first_nonfinite_step") == (bad[0] - 1 if len(bad) else None)
            (tmp_path / "out" / "stats.csv").unlink()


def _opo_blow_up(unravelling, n_traj):
    def mutate(doc):
        doc["model"]["opo"].update(chi=5.0, kappa=1.0)
        doc["unravelling"]["kind"] = unravelling
        doc["run"].update(dt=0.01, t_final=200.0, n_traj=n_traj)
    return mutate


def _huge_drift(doc):
    doc["model"] = {"matrices": {"A": (1e200 * np.eye(2)).tolist(), "D": np.eye(2).tolist(),
                                 "B": np.zeros((2, 1)).tolist(), "E": np.zeros((2, 1)).tolist()}}
    doc["run"].update(dt=0.01, t_final=1.0)


@pytest.mark.parametrize("mutate", [_opo_blow_up("none", 1), _opo_blow_up("homodyne", 16),
                                    _huge_drift],
                         ids=["opo_unconditional", "opo_homodyne", "drift_1e200"])
def test_cli_gaussian_blow_up_exits_through_the_covariance_check(tmp_path, capsys, mutate):
    # a valid Gaussian document whose covariance path overflows stops at the
    # first non-finite covariance, before any NaN reaches stats.csv, and
    # numpy's floating-point warnings do not reach stderr on the way
    doc = get_preset("opo_unconditional")
    mutate(doc)
    doc["output"]["directory"] = str(tmp_path / "out")
    config_path = tmp_path / "blows_up.json"
    config_path.write_text(json.dumps(doc))
    assert main(["validate", str(config_path)]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as the CLI's own process would print them
        assert main(["run", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "physicality violation" in err and "non-finite covariance" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not (tmp_path / "out" / "stats.csv").exists()


@pytest.mark.parametrize("preset", ["qubit_decay_me", "opo_unconditional"])
def test_noise_free_run_ignores_the_ensemble_fields(tmp_path, preset, monkeypatch):
    # a document without an unravelling runs one noise-free trajectory: the
    # trajectory count, threads, blocks, noise law, records, stored states and
    # eigenvalue tracking change neither its output nor how often it runs
    from contmon import ensemble

    doc = get_preset(preset)
    doc["run"]["t_final"] = 0.5
    plain = tmp_path / "plain"
    run_scenario(parse_config(json.dumps(doc)), out_dir=plain)
    doc["run"].update(n_traj=5000, threads=2, block_size=64, store_states=True,
                      track_min_eigenvalue=True)
    doc["output"]["records"] = True
    doc["run"]["noise"] = "two_point"
    kind = build_runtime(parse_config(json.dumps(doc))).scenario.kind
    blocks = []
    block = ensemble.KINDS[kind].block
    monkeypatch.setitem(ensemble.KINDS, kind, dataclasses.replace(
        ensemble.KINDS[kind], block=lambda *args: blocks.append(args[2:4]) or block(*args)))
    loaded = tmp_path / "loaded"
    run_scenario(parse_config(json.dumps(doc)), out_dir=loaded)
    assert blocks == [(0, 1)]
    assert (loaded / "stats.csv").read_bytes() == (plain / "stats.csv").read_bytes()
    assert json.loads((loaded / "manifest.json").read_text())["health"] == {}
    assert not (loaded / "records.npz").exists()
    # nothing is charged per trajectory
    doc["run"]["n_traj"] = 10**15
    assert parse_config(json.dumps(doc)).data["run"]["n_traj"] == 10**15


def test_cli_io_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 4
    capsys.readouterr()


def test_me_preset_matches_analytic(tmp_path):
    cfg = preset_config("qubit_decay_me")
    artifacts = run_scenario(cfg, out_dir=tmp_path)
    rows = artifacts.stats_path.read_text().strip().split("\n")
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    np.testing.assert_allclose(data[:, 1], np.exp(-data[:, 0]), atol=1e-9)
    np.testing.assert_array_equal(data[:, 2], 0.0)


@pytest.mark.parametrize("field, value", [
    ("block_size", "abc"),
    ("block_size", 0),
    ("dt", float("nan")),
    ("validate_every", -1),
    # JSON booleans are not numbers, although Python's bool subclasses int
    ("n_traj", True),
    ("seed", True),
    ("block_size", True),
    ("threads", True),
    ("validate_every", False),
    ("dt", True),
    ("t_final", True),
    # a string is not a JSON boolean: "false" used to read as true
    ("track_min_eigenvalue", "false"),
    ("store_states", "no"),
    ("threads", None),
])
def test_cli_rejects_bad_run_block(tmp_path, capsys, field, value):
    doc = json.loads(json.dumps(MINIMAL))
    doc["run"][field] = value
    doc["output"]["directory"] = str(tmp_path / "out")
    config_path = tmp_path / "bad_run.json"
    config_path.write_text(json.dumps(doc))  # NaN is written as the JSON literal NaN
    assert main(["validate", str(config_path)]) == 2
    assert main(["run", str(config_path)]) == 2
    assert f"$.run.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _assert_rejected(tmp_path, capsys, doc, path):
    doc.setdefault("output", {})["directory"] = str(tmp_path / "out")
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(doc))
    assert main(["validate", str(config_path)]) == 2
    assert main(["run", str(config_path)]) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("chi", "abc"), ("chi", True), ("chi", float("nan")),
    ("kappa", float("inf")), ("eta", "1.0"), ("eta", False),
])
def test_cli_rejects_bad_opo_parameter(tmp_path, capsys, field, value):
    doc = get_preset("opo_conditional")
    doc["model"]["opo"][field] = value
    doc["run"].update(t_final=0.01, n_traj=4)
    _assert_rejected(tmp_path, capsys, doc, f"$.model.opo.{field}")


@pytest.mark.parametrize("level", ["abc", 2.7, -1, True, 4])
def test_cli_rejects_bad_fock_level(tmp_path, capsys, level):
    # the boson dimension is 4, so level 4 is past the truncation
    doc = {
        "schema_version": 1,
        "system": {"kind": "boson", "dim": 4, "initial_state": {"fock": level}},
        "model": {"channels": [{"rate": 1.0, "op": "a"}]},
        "unravelling": {"kind": "jump"},
        "run": {"dt": 1e-3, "t_final": 0.01, "n_traj": 4, "seed": 3},
    }
    _assert_rejected(tmp_path, capsys, doc, "$.system.initial_state.fock")


def test_fock_initial_state_accepted():
    # the top level dim - 1 is a valid start
    doc = json.loads(json.dumps(MINIMAL))
    doc["system"] = {"kind": "boson", "dim": 4, "initial_state": {"fock": 3}}
    doc["model"] = {"channels": [{"rate": 1.0, "op": "a"}]}
    doc["output"]["observables"] = ["n"]
    job = build_runtime(parse_config(json.dumps(doc)))
    np.testing.assert_array_equal(job.scenario.initial_state, np.diag([0, 0, 0, 1.0]))


TWO_MODE_GAUSSIAN = {
    "schema_version": 1,
    "system": {"kind": "gaussian", "n_modes": 2},
    "model": {"matrices": {
        "A": (-0.5 * np.eye(4)).tolist(),
        "D": np.eye(4).tolist(),
        "B": np.eye(4)[:, :1].tolist(),
        "E": np.zeros((4, 1)).tolist(),
    }},
    "unravelling": {"kind": "homodyne"},
    "run": {"dt": 1e-2, "t_final": 0.1, "n_traj": 8, "seed": 3},
}


@pytest.mark.parametrize("unravelling", ["homodyne", "none"])
def test_cli_rejects_unresolvable_gaussian_observables(tmp_path, capsys, unravelling):
    # the labels of a two-mode model are q1, p1, q2, p2: the default q/p
    # observables resolve to none of them
    doc = json.loads(json.dumps(TWO_MODE_GAUSSIAN))
    doc["unravelling"]["kind"] = unravelling
    doc["output"] = {"directory": str(tmp_path / "out")}
    config_path = tmp_path / "two_mode.json"
    config_path.write_text(json.dumps(doc))
    assert main(["validate", str(config_path)]) == 2
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "gaussian_observable_labels" in err and "q1, p1, q2, p2" in err


@pytest.mark.parametrize("unravelling", ["homodyne", "none"])
def test_cli_runs_two_mode_gaussian_without_observables(tmp_path, capsys, unravelling):
    # the run records the quadratures its columns name, here none, so a
    # two-mode model needs no q/p labels, monitored or not
    doc = json.loads(json.dumps(TWO_MODE_GAUSSIAN))
    doc["unravelling"]["kind"] = unravelling
    doc["output"] = {"directory": str(tmp_path / "out"), "observables": []}
    config_path = tmp_path / "two_mode.json"
    config_path.write_text(json.dumps(doc))
    assert main(["validate", str(config_path)]) == 0
    assert main(["run", str(config_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "stats.csv").read_text().splitlines()
    assert lines[0] == "t" and len(lines) == 12


def test_gaussian_mode_count_must_match_matrices():
    doc = json.loads(json.dumps(TWO_MODE_GAUSSIAN))
    doc["system"]["n_modes"] = 1
    with pytest.raises(ConfigError, match="gaussian_mode_count"):
        parse_config(json.dumps(doc))


NAN, INF = float("nan"), float("inf")
DRIFT_WITH_NAN = {"A": [[NAN, 0.0], [0.0, -0.3]], "D": [[1.0, 0.0], [0.0, 1.0]],
                  "B": [[-1.0, 0.0], [0.0, 0.0]], "E": [[-1.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("preset, mutate, path", [
    # a non-Hermitian Hamiltonian term: run used to die with a traceback
    ("qubit_decay_jump",
     lambda doc: doc["model"].update(hamiltonian=[{"op": "sigma_minus", "coeff": [0, 1]}]),
     "$.model.hamiltonian: rule hamiltonian_hermitian"),
    # an unknown channel operator: validate used to accept it
    ("qubit_decay_jump", lambda doc: doc["model"]["channels"][0].update(op="sigma_foo"),
     "$.model.channels: unknown operator 'sigma_foo'"),
    ("qubit_decay_jump",
     lambda doc: doc["model"].update(hamiltonian=[{"op": "bogus", "coeff": 1.0}]),
     "$.model.hamiltonian: unknown operator 'bogus'"),
    ("qubit_decay_jump",
     lambda doc: doc.update(feedback={"kind": "markovian",
                                      "operator": [{"op": "sigma_minus", "coeff": 1.0}]}),
     "$.feedback.operator: rule feedback_hermitian"),
    # validate used to accept these, and run died with a traceback
    ("opo_markovian_feedback", lambda doc: doc["feedback"].update(f=np.eye(3).tolist()),
     "$.feedback: feedback matrix F must have shape (2, k)"),
    ("opo_markovian_feedback", lambda doc: doc["feedback"].update(m=[[1.0]]),
     "$.feedback.m: F M must be (2, 2)"),
    ("opo_lqg", lambda doc: doc["feedback"].update(p=[[-1.0, 0.0], [0.0, 0.0]]),
     "$.feedback: state cost P must be positive semidefinite"),
    ("opo_lqg", lambda doc: doc["feedback"].update(q=[[0.0, 0.0], [0.0, 0.0]]),
     "$.feedback: control cost Q must be positive definite"),
    ("opo_lqg", lambda doc: doc["model"]["opo"].update(chi=0.9),
     "$.feedback: LQG synthesis needs an open-loop Hurwitz drift"),
    ("qubit_homodyne",
     lambda doc: doc["model"]["channels"].append({"rate": 1.0, "op": "sigma_minus"}),
     "$.model.channels: rule single_channel"),
    ("qubit_homodyne_feedback", lambda doc: doc["model"].update(efficiency=0.0),
     "$.model.efficiency: rule homodyne_feedback_efficiency"),
    ("thermal_bath_homodyne", lambda doc: doc["model"]["bath"].update(squeezing=[0.0, 0.5]),
     "$.model.bath.squeezing: rule homodyne_real_squeezing"),
    # validate and run used to accept these, and the run went wrong silently:
    # P broadcast to an all-ones matrix, NaN columns, a string read as true, a
    # column missing from the stats, the feedback or linear mode ignored
    ("opo_lqg", lambda doc: doc["feedback"].update(p=[[1.0]]),
     "$.feedback: state cost P must have shape (2, 2)"),
    ("opo_conditional", lambda doc: doc.update(model={"matrices": DRIFT_WITH_NAN}),
     "$.model.matrices.A: must be a finite number"),
    ("qubit_decay_jump", lambda doc: doc["unravelling"].update(linear="no"),
     "$.unravelling.linear: must be true or false"),
    ("qubit_decay_jump", lambda doc: doc["output"].update(records="no"),
     "$.output.records: must be true or false"),
    ("qubit_decay_jump", lambda doc: doc["unravelling"].update(mu=NAN),
     "$.unravelling.mu: must be a finite number"),
    ("qubit_decay_jump", lambda doc: doc["unravelling"].update(beta=INF),
     "$.unravelling.beta: must be a finite number"),
    ("qubit_homodyne", lambda doc: doc["output"].update(observables=["rho_ee", "rho_ee"]),
     "$.output.observables: lists 'rho_ee' more than once"),
    ("thermal_bath_homodyne",
     lambda doc: doc.update(feedback={"kind": "markovian",
                                      "operator": [{"op": "sigma_x", "coeff": 0.3}]}),
     "$.feedback.kind: rule feedback_vacuum_bath"),
    ("thermal_bath_homodyne", lambda doc: doc["unravelling"].update(linear=True),
     "$.unravelling.linear: rule linear_vacuum_bath"),
    # run used to stop at step 49 with exit 3
    ("qubit_homodyne", lambda doc: doc["model"]["channels"][0].update(rate=NAN),
     "$.model.channels[0].rate: must be a finite number"),
    ("qubit_homodyne", lambda doc: doc["model"]["channels"][0].update(rate=INF),
     "$.model.channels[0].rate: must be a finite number"),
    ("qubit_homodyne", lambda doc: doc["model"].update(homodyne_phase=NAN),
     "$.model.homodyne_phase: must be a finite number"),
    ("thermal_bath_homodyne", lambda doc: doc["model"]["bath"].update(n_thermal=INF),
     "$.model.bath.n_thermal: must be a finite number"),
    # named rules that no other case reaches
    ("qubit_homodyne_feedback", lambda doc: doc["unravelling"].update(kind="none"),
     "$.feedback.kind: rule feedback_needs_monitoring"),
    ("opo_markovian_feedback", lambda doc: doc["unravelling"].update(kind="none"),
     "$.feedback.kind: rule feedback_needs_monitoring"),
    ("qubit_homodyne_feedback", lambda doc: doc["unravelling"].update(kind="heterodyne"),
     "$.feedback.kind: rule feedback_single_current"),
    ("opo_conditional", lambda doc: doc["unravelling"].update(kind="jump"),
     "$.unravelling.kind: rule gaussian_monitoring"),
    ("thermal_bath_homodyne", lambda doc: doc["model"].update(efficiency=0.5),
     "$.model.efficiency: rule generalized_bath_unit_efficiency"),
    ("thermal_bath_homodyne",
     lambda doc: (doc["model"]["bath"].update(squeezing=0.3),
                  doc["unravelling"].update(kind="heterodyne")),
     "$.unravelling.kind: rule heterodyne_thermal_only"),
    ("thermal_bath_homodyne", lambda doc: doc["unravelling"].update(kind="jump"),
     "$.unravelling.kind: rule jump_vacuum_bath"),
    ("qubit_homodyne_feedback", lambda doc: doc["unravelling"].update(linear=True),
     "$.unravelling.linear: rule linear_no_feedback"),
    ("qubit_decay_jump",
     lambda doc: (doc["unravelling"].update(linear=True), doc["model"].update(efficiency=0.5)),
     "$.model.efficiency: rule linear_unit_efficiency"),
    ("qubit_decay_jump", lambda doc: doc["unravelling"].update(linear=True, beta=0),
     "$.unravelling.beta: rule ostensible_rate_positive"),
    ("qubit_decay_jump", lambda doc: doc["run"].update(noise="two_point"),
     "$.run.noise: rule two_point_diffusive_only"),
    ("opo_conditional", lambda doc: doc["run"].update(noise="two_point"),
     "$.run.noise: rule two_point_diffusive_only"),
], ids=["non_hermitian_hamiltonian", "unknown_channel_op", "unknown_hamiltonian_op",
        "non_hermitian_feedback", "markovian_f_3x3", "markovian_m_1x1", "lqg_p_indefinite",
        "lqg_q_zero", "lqg_unstable_opo", "two_channels", "homodyne_feedback_eta_0",
        "complex_squeezing", "lqg_p_1x1", "nan_drift", "linear_string", "records_string",
        "mu_nan", "beta_inf", "repeated_observable", "thermal_bath_feedback",
        "thermal_bath_linear", "rate_nan", "rate_inf", "phase_nan", "n_thermal_inf",
        "feedback_needs_monitoring_hilbert", "feedback_needs_monitoring_gaussian",
        "feedback_single_current", "gaussian_monitoring", "generalized_bath_unit_efficiency",
        "heterodyne_thermal_only", "jump_vacuum_bath", "linear_no_feedback",
        "linear_unit_efficiency", "ostensible_rate_positive", "two_point_jump",
        "two_point_gaussian"])
def test_cli_rejects_unresolvable_operators(tmp_path, capsys, preset, mutate, path):
    # every document that validate accepts must build: the cases before the
    # named rules used to pass validate and then fail or go wrong in run
    doc = get_preset(preset)
    doc["run"].update(t_final=0.01, n_traj=4)
    mutate(doc)
    _assert_rejected(tmp_path, capsys, doc, path)


@pytest.mark.parametrize("preset, field, value, system", [
    ("opo_conditional", "operator", [{"op": "q"}], "gaussian"),
    ("opo_markovian_feedback", "operator", [{"op": "q"}], "gaussian"),
    ("qubit_pd_feedback", "f", [[1.0, 0.0], [0.0, 1.0]], "qubit"),
    ("qubit_homodyne_feedback", "m", "optimal", "qubit"),
    ("qubit_homodyne_feedback", "p", [[1.0, 0.0], [0.0, 1.0]], "qubit"),
    ("qubit_pd_feedback", "q", [[1.0, 0.0], [0.0, 1.0]], "qubit"),
])
def test_cli_rejects_feedback_fields_of_the_other_system_kind(tmp_path, capsys, preset, field,
                                                                value, system):
    # the operator F is read only for Hilbert-space systems, the matrices f, m,
    # p and q only for Gaussian ones: given to the other kind, each used to be
    # accepted and ignored
    doc = get_preset(preset)
    doc["run"].update(t_final=0.01, n_traj=4)
    doc.setdefault("feedback", {})[field] = value
    _assert_rejected(tmp_path, capsys, doc,
                     f"$.feedback.{field}: not applicable to {system} systems")


# (bath block, bath_mode) of the grid below
GRID_BATHS = {
    "vacuum": ({}, "generalized"),
    "thermal": ({"n_thermal": 0.5}, "generalized"),
    "squeezed": ({"n_thermal": 0.5, "squeezing": "squeezed_vacuum"}, "replaced_operator"),
}
# (unravelling, feedback, linear, stepper, bath, efficiency) -> selected kind,
# for every grid document that validate accepts
GRID_ACCEPTED = {
    ("jump", "none", False, "euler", "vacuum", 1.0): "jump",
    ("jump", "none", False, "euler", "vacuum", 0.5): "jump",
    ("jump", "none", False, "kraus", "vacuum", 1.0): "jump_kraus",
    ("jump", "none", False, "kraus", "vacuum", 0.5): "jump_kraus",
    ("jump", "none", True, "euler", "vacuum", 1.0): "linear_jump",
    ("jump", "markovian", False, "euler", "vacuum", 1.0): "jump_feedback",
    **{("homodyne", "none", False, stepper, bath, eta): kind
       for stepper, kind in (("euler", "homodyne"), ("kraus", "homodyne_kraus"))
       for bath in ("vacuum", "squeezed") for eta in (1.0, 0.5)},
    ("homodyne", "none", False, "euler", "thermal", 1.0): "generalized_homodyne",
    ("homodyne", "none", True, "euler", "vacuum", 1.0): "linear_homodyne",
    ("homodyne", "none", True, "euler", "squeezed", 1.0): "linear_homodyne",
    **{("homodyne", "markovian", False, "euler", bath, eta): "homodyne_feedback"
       for bath in ("vacuum", "squeezed") for eta in (1.0, 0.5)},
    ("heterodyne", "none", False, "euler", "vacuum", 1.0): "heterodyne",
    ("heterodyne", "none", False, "euler", "vacuum", 0.5): "heterodyne",
    ("heterodyne", "none", False, "euler", "thermal", 1.0): "generalized_heterodyne",
}


def test_validate_run_parity_over_the_hilbert_document_grid():
    # every document validate accepts selects a KINDS entry whose kernel
    # compiles, so run cannot fail on a kind's needs; every rejection names
    # its rules
    from contmon.ensemble import KINDS
    from contmon.master_equation import OpenSystemModel

    accepted = {}
    for case in itertools.product(("jump", "homodyne", "heterodyne"), ("none", "markovian"),
                                  (False, True), ("euler", "kraus"), GRID_BATHS, (1.0, 0.5)):
        ukind, fkind, linear, stepper, bath, eta = case
        feedback = {"kind": fkind}
        if fkind == "markovian":
            feedback["operator"] = [{"op": "sigma_x", "coeff": 0.5}]
        doc = {
            "schema_version": 1, "system": {"kind": "qubit"},
            "model": {"channels": [{"rate": 1.0, "op": "sigma_minus"}],
                      "bath": GRID_BATHS[bath][0], "efficiency": eta},
            "unravelling": {"kind": ukind, "linear": linear, "stepper": stepper,
                            "bath_mode": GRID_BATHS[bath][1]},
            "feedback": feedback, "run": {"dt": 1e-3, "t_final": 0.01, "n_traj": 4},
        }
        try:
            job = build_runtime(parse_config(json.dumps(doc)))
        except ConfigError as exc:
            assert exc.errors and all(re.match(r"\$[.\w]*: rule \w+: ", e) for e in exc.errors), \
                (case, exc.errors)
            continue
        kind = job.scenario.kind
        assert kind in KINDS, case
        KINDS[kind].kernel(job.scenario, job.spec.dt)
        accepted[case] = kind
    assert accepted == GRID_ACCEPTED
    # and every ensemble kind that steps an OpenSystemModel is one a document
    # selects, so none is reachable from the Python API alone
    assert set(accepted.values()) | {"me"} == {
        k for k, v in KINDS.items() if v.model is OpenSystemModel}


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.update(system={"kind": "boson", "dim": 10**9},
                           model={"channels": [{"rate": 1.0, "op": "a"}]},
                           output={"observables": ["n"]}),
    lambda doc: doc["run"].update(n_traj=10**15),
    lambda doc: doc["run"].update(dt=1e-12, t_final=1.0),
], ids=["dim_1e9", "n_traj_1e15", "dt_1e-12"])
def test_size_rule_rejects_runs_beyond_physical_memory(tmp_path, capsys, mutate):
    # validate and build_runtime only: running these documents would allocate,
    # so a case the rule misses fails here instead
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    config_path = tmp_path / "huge.json"
    config_path.write_text(json.dumps(doc))
    assert main(["validate", str(config_path)]) == 2
    assert "$.run: rule run_memory" in capsys.readouterr().err
    config = parse_config(json.dumps(MINIMAL))
    mutate(config.data)  # past parse_config: build_runtime must check on its own
    with pytest.raises(ConfigError, match=r"\$\.run: rule run_memory"):
        build_runtime(config)


@pytest.mark.parametrize("preset, model, rule", [
    ("qubit_decay_jump", {"efficiency": 0.5},
     "$.model.efficiency: rule linear_unit_efficiency"),
    ("opo_conditional", {}, "$.unravelling.linear: linear trajectories apply"),
], ids=["hilbert", "gaussian"])
def test_size_rule_reports_with_the_other_rules(tmp_path, capsys, preset, model, rule):
    # a run too large for memory still lists every cross-field rule it breaks,
    # and run_memory after them
    doc = get_preset(preset)
    doc["unravelling"]["linear"] = True
    doc["model"].update(model)
    doc["run"]["n_traj"] = 10**13
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    first, second = err.value.errors
    assert first.startswith(rule) and second.startswith("$.run: rule run_memory")
    _assert_rejected(tmp_path, capsys, doc, rule)


@pytest.mark.parametrize("preset, mutate, kind", [
    ("coherent_drive", lambda doc: None, "generalized_homodyne"),
    ("qubit_decay_jump", lambda doc: doc["unravelling"].update(linear=True), "linear_jump"),
    ("opo_lqg", lambda doc: None, "gaussian"),
], ids=["normalized", "linear", "gaussian"])
def test_size_rule_charges_the_statistics_one_block_allocates(preset, mutate, kind, monkeypatch):
    # the run_memory rule counts each block's statistics from the same
    # expression that shapes them, for every kind and observable count
    from contmon import config, ensemble

    doc = get_preset(preset)
    doc["run"].update(t_final=0.05, n_traj=80, block_size=64)
    mutate(doc)
    charged = []
    monkeypatch.setattr(config, "stats_shape",
                        lambda *args: charged.append(ensemble.stats_shape(*args)) or charged[-1])
    job = build_runtime(parse_config(json.dumps(doc)))
    assert job.scenario.kind == kind
    rec = ensemble.KINDS[kind]
    shared = rec.shared(job.spec, job.scenario) if rec.shared else {}
    block = rec.block(job.spec, job.scenario, 0, 64, shared, {})
    assert charged and set(charged) == {block["stats"].shape}
    assert block["stats"].dtype == np.float64  # the 8 bytes per entry charged


@pytest.mark.parametrize("floats", [1.5, 2.5])
def test_size_rule_charges_every_gaussian_current_in_the_records(monkeypatch, floats):
    # a Gaussian run records every current, two floats a step for the OPO,
    # though it draws one normal a step: on a machine whose memory holds
    # ``floats`` floats a step of records, those records no longer fit at 1.5
    doc = get_preset("opo_conditional")
    doc["run"].update(n_traj=10**6, dt=1e-3, t_final=10.0)
    doc["output"]["records"] = True
    have = int(floats * 8 * 10**6 * 10**4)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": have, "SC_PAGE_SIZE": 1}.get)
    if floats < 2:
        with pytest.raises(ConfigError, match=r"\$\.run: rule run_memory"):
            parse_config(json.dumps(doc))
    else:
        parse_config(json.dumps(doc))


def test_size_rule_charges_the_noise_of_every_live_gaussian_current(monkeypatch):
    # without records a Gaussian block draws one normal a step per live
    # current: one for the OPO, two for a two-mode model whose currents both
    # move the means.  Noise dominates these runs (one block of 1024
    # trajectories x 10^6 steps, 8 KiB a step per live current), so a memory
    # of 12000 bytes a step holds the OPO's noise but not the two-mode model's
    model = two_mode_model()
    two_mode = json.loads(json.dumps(TWO_MODE_GAUSSIAN))
    two_mode["model"] = {"matrices": {name: getattr(model, name).tolist()
                                      for name in ("A", "D", "B", "E")}}
    two_mode["output"] = {"observables": []}
    opo = get_preset("opo_conditional")
    for doc in (two_mode, opo):
        doc["run"].update(n_traj=1024, block_size=1024, dt=1e-3, t_final=1000.0)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 12000 * 10**6, "SC_PAGE_SIZE": 1}.get)
    with pytest.raises(ConfigError, match=r"\$\.run: rule run_memory"):
        parse_config(json.dumps(two_mode))
    parse_config(json.dumps(opo))
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 20000 * 10**6, "SC_PAGE_SIZE": 1}.get)
    parse_config(json.dumps(two_mode))


def _homodyne_preset_argv(out_dir, *extra):
    return ["preset", "qubit_homodyne", "--override", "run.n_traj=8",
            "--override", "run.t_final=0.01", "--out-dir", str(out_dir), *extra]


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two_pow_64"])
def test_cli_rejects_out_of_range_seed(tmp_path, capsys, seed):
    # the substream key holds seed mod 2**64: -1 used to run the streams of
    # 2**64 - 1 and 2**64 those of 0, each under its own manifest seed
    doc = get_preset("qubit_homodyne")
    doc["run"].update(t_final=0.01, n_traj=8, seed=seed)
    _assert_rejected(tmp_path, capsys, doc, "$.run.seed")
    out = tmp_path / "override"
    assert main(_homodyne_preset_argv(out, f"--seed={seed}")) == 2
    doc["run"]["seed"] = 5
    config_path = tmp_path / "good.json"
    config_path.write_text(json.dumps(doc))
    assert main(["run", str(config_path), f"--seed={seed}", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("$.run.seed: must be an integer in [0, 2**64 - 1]") == 2
    assert not out.exists()
    with pytest.raises(ConfigError, match=r"\$\.run\.seed"):
        build_runtime(parse_config(json.dumps(doc)), seed=seed)


def test_cli_accepts_seed_range_ends(tmp_path, capsys):
    stats = {}
    for seed in (0, 2**64 - 1):
        out = tmp_path / str(seed)
        assert main(_homodyne_preset_argv(out, f"--seed={seed}")) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == manifest["config"]["run"]["seed"] == seed
        stats[seed] = (out / "stats.csv").read_bytes()
    assert stats[0] != stats[2**64 - 1]
    capsys.readouterr()


@pytest.mark.parametrize("unravelling, bath", [
    ("homodyne", {"n_thermal": 1.0}),
    ("homodyne", {"n_thermal": 0.5, "squeezing": 0.3}),
    ("homodyne", {"drive": 0.5}),
    ("heterodyne", {"n_thermal": 1.0}),
], ids=["thermal", "squeezed", "driven", "thermal_heterodyne"])
def test_cli_rejects_generalized_bath_lo_phase(tmp_path, capsys, unravelling, bath):
    doc = get_preset("thermal_bath_homodyne")
    doc["model"].update(bath=bath, homodyne_phase=0.4)
    doc["unravelling"]["kind"] = unravelling
    doc["run"].update(t_final=0.01, n_traj=4)
    _assert_rejected(tmp_path, capsys, doc,
                     "$.model.homodyne_phase: rule generalized_bath_homodyne_phase")


@pytest.mark.parametrize("preset", ["qubit_homodyne", "squeezed_vacuum_homodyne"])
def test_lo_phase_accepted_where_the_stepper_takes_it(tmp_path, preset):
    # vacuum baths and the replaced-operator squeezed vacuum run the vacuum
    # stepper, which measures c e^{i theta} in both the record and the back-action
    doc = get_preset(preset)
    doc["model"]["homodyne_phase"] = 0.4
    doc["run"].update(t_final=0.01, n_traj=4)
    run_scenario(parse_config(json.dumps(doc)), out_dir=tmp_path)


@pytest.mark.parametrize("preset, mutate", [
    ("thermal_bath_homodyne", lambda doc: None),
    ("qubit_homodyne_feedback", lambda doc: None),
    ("qubit_homodyne", lambda doc: doc["unravelling"].update(linear=True, stepper="kraus")),
    ("qubit_homodyne", lambda doc: doc["unravelling"].update(kind="heterodyne")),
    ("qubit_decay_jump", lambda doc: doc["unravelling"].update(linear=True)),
    ("qubit_decay_me", lambda doc: None),
], ids=["generalized_bath", "homodyne_feedback", "linear_homodyne", "heterodyne",
        "linear_jump", "master_equation"])
def test_cli_rejects_kraus_stepper_where_no_kraus_kind_runs(tmp_path, capsys, preset, mutate):
    # these used to run an Euler kind (or the master equation) without a word
    doc = get_preset(preset)
    doc["unravelling"]["stepper"] = "kraus"
    doc["run"].update(t_final=0.01, n_traj=4)
    mutate(doc)
    _assert_rejected(tmp_path, capsys, doc, "$.unravelling.stepper: rule kraus_stepper")


@pytest.mark.parametrize("preset, mutate, kind", [
    ("qubit_decay_jump", lambda doc: None, "jump_kraus"),
    ("qubit_homodyne", lambda doc: None, "homodyne_kraus"),
    ("squeezed_vacuum_homodyne", lambda doc: None, "homodyne_kraus"),
    ("squeezed_vacuum_homodyne",
     lambda doc: doc["model"]["bath"].update(squeezing=np.sqrt(0.75)), "homodyne_kraus"),
])
def test_kraus_stepper_selects_the_kraus_kinds(preset, mutate, kind):
    doc = get_preset(preset)
    doc["unravelling"]["stepper"] = "kraus"
    mutate(doc)
    assert build_runtime(parse_config(json.dumps(doc))).scenario.kind == kind


def test_cli_rejects_negative_replaced_operator_squeezing(tmp_path, capsys):
    # c~ = mu c - nu c^dag is built from N alone: M = -sqrt(N(N+1)) used to run
    # as +sqrt(N(N+1)) and write the same bytes
    doc = get_preset("squeezed_vacuum_homodyne")
    doc["model"]["bath"]["squeezing"] = -np.sqrt(0.75)
    doc["run"].update(t_final=0.01, n_traj=4)
    _assert_rejected(tmp_path, capsys, doc,
                     "$.unravelling.bath_mode: rule replaced_operator_squeezed_vacuum")


THERMAL = {"n_thermal": 0.5}
JUMP_FEEDBACK = {"kind": "markovian", "operator": [{"op": "sigma_x", "coeff": 0.5}]}
# (kind, need) -> the unravelling, feedback and model fields of a qubit
# document that selects the kind and breaks that need alone
NEED_CASES = {
    ("jump", "vacuum_bath"): ({"kind": "jump"}, {}, {"bath": THERMAL}),
    ("jump_kraus", "vacuum_bath"): ({"kind": "jump", "stepper": "kraus"}, {}, {"bath": THERMAL}),
    ("jump_feedback", "vacuum_bath"): ({"kind": "jump"}, JUMP_FEEDBACK, {"bath": THERMAL}),
    ("jump_feedback", "feedback_operator"): ({"kind": "jump"}, {"kind": "markovian"}, {}),
    ("jump_feedback", "unit_efficiency"): ({"kind": "jump"}, JUMP_FEEDBACK, {"efficiency": 0.5}),
    ("linear_jump", "vacuum_bath"): ({"kind": "jump", "linear": True}, {}, {"bath": THERMAL}),
    ("linear_jump", "beta"): ({"kind": "jump", "linear": True, "beta": 0}, {}, {}),
    ("linear_jump", "unit_efficiency"): ({"kind": "jump", "linear": True}, {},
                                         {"efficiency": 0.5}),
    ("homodyne_feedback", "feedback_operator"): ({"kind": "homodyne"}, {"kind": "markovian"}, {}),
    ("homodyne_feedback", "efficiency"): ({"kind": "homodyne"}, JUMP_FEEDBACK,
                                          {"efficiency": 0.0}),
    ("homodyne_feedback", "vacuum_bath"): ({"kind": "homodyne"}, JUMP_FEEDBACK,
                                           {"bath": THERMAL}),
    ("linear_homodyne", "unit_efficiency"): ({"kind": "homodyne", "linear": True}, {},
                                             {"efficiency": 0.5}),
    ("linear_homodyne", "vacuum_bath"): ({"kind": "homodyne", "linear": True}, {},
                                         {"bath": THERMAL}),
    **{case: ({"kind": ukind}, {}, dict(bath=THERMAL, **model))
       for ukind in ("homodyne", "heterodyne")
       for case, model in (((f"generalized_{ukind}", "unit_efficiency"), {"efficiency": 0.5}),
                           ((f"generalized_{ukind}", "zero_phase"), {"homodyne_phase": 0.4}))},
    ("generalized_homodyne", "real_squeezing"): (
        {"kind": "homodyne"}, {}, {"bath": {"n_thermal": 0.5, "squeezing": [0.0, 0.5]}}),
    ("generalized_heterodyne", "thermal_bath"): (
        {"kind": "heterodyne"}, {}, {"bath": {"n_thermal": 0.5, "squeezing": 0.3}}),
}


def _need_document(unravelling, feedback, model):
    doc = {"schema_version": 1, "system": {"kind": "qubit"},
           "model": {"channels": [{"rate": 1.0, "op": "sigma_minus"}], **model},
           "unravelling": unravelling, "feedback": feedback,
           "run": {"dt": 1e-3, "t_final": 0.01, "n_traj": 4}}
    return {key: value for key, value in doc.items() if value != {}}


def test_need_cases_cover_every_row_a_document_can_break():
    # the per-state SSE is selected by no document, and a non-vacuum bath
    # under a homodyne or heterodyne unravelling selects a generalized kind
    from contmon.jump import NEEDS

    rows = {(kind, row[0]) for kind, table in NEEDS.items() for row in table}
    unreachable = {("jump_sse", need) for need in ("unit_efficiency", "vacuum_bath")}
    unreachable |= {(kind, "vacuum_bath") for kind in ("homodyne", "homodyne_kraus", "heterodyne",
                                                       "linear_homodyne_kraus")}
    assert rows - unreachable == set(NEED_CASES)


@pytest.mark.parametrize("kind, need", list(NEED_CASES),
                         ids=[f"{kind}-{need}" for kind, need in NEED_CASES])
def test_document_and_scenario_report_a_need_alike(kind, need):
    # the document reports the row at its path under its rule, with the
    # message that Scenario raises for the same values
    from contmon.core_ops import build_standard_ops
    from contmon.ensemble import Scenario
    from contmon.jump import NEEDS
    from contmon.master_equation import BathSpec, OpenSystemModel

    unravelling, feedback, model = NEED_CASES[kind, need]
    _, path, rule, message = next(row for row in NEEDS[kind] if row[0] == need)
    message = message.format(kind=kind)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(_need_document(unravelling, feedback, model)))
    assert err.value.errors == [f"$.{path}: rule {rule}: {message}"]

    ops = build_standard_ops("qubit")
    bath = dict(model.get("bath", {}))
    squeezing = bath.pop("squeezing", 0.0)
    bath["squeezing"] = complex(*squeezing) if isinstance(squeezing, list) else squeezing
    system = OpenSystemModel(np.zeros((2, 2)), [(1.0, ops["sigma_minus"])], bath=BathSpec(**bath),
                             efficiency=model.get("efficiency", 1.0),
                             homodyne_phase=model.get("homodyne_phase", 0.0))
    f_op = 0.5 * ops["sigma_x"] if feedback.get("operator") else None
    with pytest.raises(ValueError) as exc:
        Scenario(kind, system, ops["projector_e"], feedback_operator=f_op,
                 beta_ost=unravelling.get("beta", 1.0))
    assert str(exc.value) == message


def test_replaced_operator_bath_needs_the_squeezing_it_builds():
    # c~ is built from N alone, so a complex M of modulus sqrt(N(N+1)) is
    # not the bath it runs; the homodyne real-squeezing need used to report it
    bath = {"n_thermal": 0.5, "squeezing": [0.0, np.sqrt(0.75)]}
    doc = _need_document({"kind": "homodyne", "bath_mode": "replaced_operator"}, {},
                         {"bath": bath})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [e.split(": operator")[0] for e in err.value.errors] == [
        "$.unravelling.bath_mode: rule replaced_operator_squeezed_vacuum"]


@pytest.mark.parametrize("preset", ["coherent_drive", "squeezed_vacuum_homodyne"])
def test_replaced_operator_bath_rejects_a_drive(tmp_path, capsys, preset):
    # c~ = mu c - nu c^dag carries no drive: a driven bath under operator
    # replacement used to run as the vacuum-bath homodyne of c~, drive dropped
    doc = get_preset(preset)
    doc["model"]["bath"]["drive"] = 0.5
    doc["unravelling"]["bath_mode"] = "replaced_operator"
    doc["run"].update(t_final=0.01, n_traj=4)
    _assert_rejected(tmp_path, capsys, doc,
                     "$.unravelling.bath_mode: rule replaced_operator_squeezed_vacuum")


@pytest.mark.parametrize("n_traj, threads, gib", [
    (64, 1, "8.19e+03"), (64, 2, "8.19e+03"), (65, 1, "1.64e+04"), (65, 2, "2.46e+04"),
], ids=["one_block", "one_block_two_threads", "two_blocks", "two_blocks_two_threads"])
def test_size_rule_charges_a_merge_only_past_one_block(monkeypatch, n_traj, threads, gib):
    # a one-block run's merged statistics are its block's own, so it holds
    # one block of them; with more blocks the merge is one more.  Statistics
    # of 8 TiB a block make every other charge vanish at 3 digits
    from contmon import config

    monkeypatch.setattr(config, "stats_shape", lambda *args: (2**40,))
    doc = json.loads(json.dumps(MINIMAL))
    doc["run"].update(n_traj=n_traj, block_size=64, threads=threads)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors[-1].startswith(f"$.run: rule run_memory: the run needs at least "
                                           f"{gib} GiB at once")


def test_size_rule_charges_the_statistics_in_flight_only():
    # run_ensemble merges block statistics as they arrive, so 2 * 10**7
    # trajectories in blocks of 64 over 10**4 steps need far less than the
    # 116 GiB that charging every block's statistics gave
    doc = get_preset("qubit_decay_jump")
    doc["run"].update(n_traj=2 * 10**7, block_size=64, dt=1e-3, t_final=10.0)
    assert parse_config(json.dumps(doc)).data["run"]["n_traj"] == 2 * 10**7


# the values a mutated leaf takes: wrong types, non-finite and out-of-range
# numbers, ragged and non-square matrices and nested objects
LEAF_VALUES = ["abc", "", True, False, None, NAN, INF, -INF, -1, 0, 2.7,
               [[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0]], {"a": {"b": 1}}]
# the run's size stays at smoke scale; the size-rule test covers these fields
SIZE_FIELDS = {("run", "dt"), ("run", "t_final"), ("run", "n_traj"), ("run", "block_size"),
               ("run", "threads"), ("system", "dim")}


def _leaves(node, path=()):
    """Paths of a document's leaves: scalars and lists of scalars or rows."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node and all(isinstance(item, dict) for item in node):
        items = enumerate(node)
    else:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


@st.composite
def mutated_presets(draw):
    doc = get_preset(draw(st.sampled_from(list_presets())))
    run = doc["run"]
    run.update(n_traj=min(run["n_traj"], 8), t_final=min(run["t_final"], 20 * run["dt"]))
    leaves = [path for path in _leaves(doc) if path[:2] not in SIZE_FIELDS]
    # a permutation spreads the choice over all leaves, not just the first ones
    for path in draw(st.permutations(leaves))[: draw(st.integers(1, 2))]:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.sampled_from(LEAF_VALUES))
    return doc


@settings(max_examples=1000)
@given(doc=mutated_presets())
def test_cli_exits_cleanly_on_mutated_presets(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "mutated.json"
        config_path.write_text(json.dumps(doc))
        validated = main(["validate", str(config_path)])
        ran = main(["run", str(config_path), "--out-dir", str(Path(tmp) / "out")])
    assert validated in (0, 2) and ran in (0, 2, 3, 4)
    assert (validated == 2) == (ran == 2)
