"""A run's result line: an operation that raises makes the run incorrect and
adds no work to the time metrics."""

import copy
import json

import pytest

import run
import workloads


def test_operation_that_raises_marks_the_run_incorrect(tmp_path, monkeypatch, capsys):
    good = next(o for o in workloads.WORKLOADS["solver-presets"].operations
                if o.name == "qubit_decay_me")
    good_doc = copy.deepcopy(good.doc)
    good_doc["run"]["t_final"] = 0.05
    good = workloads.Operation("good", good_doc, (workloads.Expect("rho_ee", good.expects[0].reference,
                                                                  good.expects[0].allowance),))
    broken_doc = copy.deepcopy(good_doc)
    broken_doc["unravelling"] = {"kind": "no_such_kind"}
    broken = workloads.Operation("broken", broken_doc, ())
    tiny = workloads.Workload("tiny", (good, broken))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "import_seconds_in_fresh_processes", lambda count: [0.1])

    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    metrics = result["metrics"]
    # the broken operation's trajectory-steps are not counted as work done
    assert metrics["traj_steps_per_s"]["value"] == pytest.approx(
        good.n_traj * good.n_steps / metrics["wall_s"]["value"])
