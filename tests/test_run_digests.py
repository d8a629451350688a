"""Smoke test of ``tools/run_digests.py``, the byte-identity gate: a rename in
``config``, ``presets`` or ``perfbench/workloads.py`` that breaks it fails here."""

import importlib.util
import json
import sys
from pathlib import Path

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
