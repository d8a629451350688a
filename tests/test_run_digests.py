"""Smoke test of ``tools/run_digests.py``, the byte-identity gate: a rename in
``config``, ``presets`` or ``perfbench/workloads.py`` that breaks it fails here."""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

from contmon.presets import PRESETS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "run_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("run_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_digests_gate(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # documents() prepends perfbench
    tool = _load_tool()
    docs = tool.documents()
    assert set(PRESETS) <= set(docs) and len(docs) > len(PRESETS)  # and the workloads
    first = tool.digest(docs["qubit_decay_jump"], seed=7, threads=1)
    assert tool.digest(docs["qubit_decay_jump"], seed=7, threads=1) == first
    assert first["records_sha256"] is not None
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"qubit_decay_jump|seed=7|threads=1": first,
                                "qubit_decay_jump|seed=7|threads=2": first}))
    capsys.readouterr()
    assert tool.compare(str(path), str(path)) == 0
    assert capsys.readouterr().out == "0 of 2 shared runs moved\n"

    # an SE that moves is reported in absolute and relative terms, and a
    # 2-thread result that differs from the 1-thread one fails the comparison
    header, first_row, rest = first["csv"].split("\n", 2)
    values = first_row.split(",")
    values[2] = repr(float(values[2]) + 1e-3)  # rho_ee.se at t = 0, which is 0.0
    moved = dict(first, stats_sha256="moved", csv="\n".join([header, ",".join(values), rest]))
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({"qubit_decay_jump|seed=7|threads=1": moved,
                                   "qubit_decay_jump|seed=7|threads=2": first}))
    assert tool.compare(str(path), str(changed)) == 1
    out = capsys.readouterr().out
    assert "qubit_decay_jump|seed=7|threads=1: mean rel 0, se abs 0.001, se rel 1," in out
    assert "1 of 2 shared runs moved" in out
    assert f"qubit_decay_jump|seed=7: 1 and 2 threads differ in {changed}" in out


def test_compare_checks_thread_identity_on_every_field(tmp_path, capsys, monkeypatch):
    # a run whose 1- and 2-thread results differ only in their records
    # fails the comparison, which names it and the field
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _load_tool()
    run = {"stats_sha256": "s", "records_sha256": "r", "health": {"min_eigenvalue": -1e-3}}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"doc|seed=7|threads=1": run, "doc|seed=7|threads=2": run,
                                "split|seed=7|threads=1": run,
                                "split|seed=7|threads=2": dict(run, records_sha256="other")}))
    capsys.readouterr()
    assert tool.compare(str(path), str(path)) == 1
    out = capsys.readouterr().out
    assert out == (f"0 of 4 shared runs moved\n"
                   f"split|seed=7: 1 and 2 threads differ in {path} (records_sha256)\n")


def test_run_digests_max_steps(tmp_path, monkeypatch):
    # --max-steps caps every run's steps in place of the default 120
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _load_tool()
    monkeypatch.setattr(tool, "documents", lambda: {"opo_lqg": PRESETS["opo_lqg"]})
    path = tmp_path / "digests.json"
    for argv, steps in ((["--max-steps", "7"], 7), ([], tool.MAX_STEPS)):
        assert tool.main([*argv, str(path)]) == 0
        out = json.loads(path.read_text())
        assert set(out) == {f"opo_lqg|seed={seed}|threads={threads}"
                            for seed in tool.SEEDS for threads in tool.THREADS}
        for run in out.values():
            assert run["csv"].count("\n") == 1 + steps + 1  # the header, then t = 0 ... steps
    with pytest.raises(SystemExit):
        tool.main(["--max-steps", "0", str(path)])


def test_digests_match_the_committed_baseline(monkeypatch):
    # every run of tools/digests_baseline.json recomputed: its stats and
    # records keep their sha256 and its health block its values.  Those bytes
    # hold for the numpy and BLAS kernel the baseline was made on; on another
    # build only the 1- and 2-thread results are compared, which hold anywhere
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _load_tool()
    baseline = json.loads(tool.BASELINE.read_text())
    runs = {key: {f: run[f] for f in tool.FIELDS}
            for key, run in json.loads(json.dumps(tool.digests())).items()}
    if baseline["build"] == tool.build_key():
        assert runs.keys() == baseline["runs"].keys()
        moved = [key for key in runs if runs[key] != baseline["runs"][key]]
        assert not moved, f"{len(moved)} of {len(runs)} runs moved: {', '.join(moved)}"
    else:
        why = (f"the baseline's digests hold for {baseline['build']} only and this build is "
               f"{tool.build_key()}: only 1 and 2 threads are compared")
        warnings.warn(why)
        split = [key for key in runs if key.endswith("|threads=1")
                 and runs[key] != runs[key[:-1] + "2"]]
        assert not split, f"1 and 2 threads differ in {', '.join(split)}; {why}"
