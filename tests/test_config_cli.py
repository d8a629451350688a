import dataclasses
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
from contmon.presets import get_preset, list_presets, preset_config

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
    if preset == "qubit_decay_me":
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
    block = rec.block(job.spec, job.scenario, 0, 64, shared)
    assert charged and set(charged) == {block["stats"].shape}
    assert block["stats"].dtype == np.float64  # the 8 bytes per entry charged


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
