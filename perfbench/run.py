#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload qubit-jump --seed 1 --seconds 12 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` of that checkout, never from an installed copy.  A run repeats whole
rounds of the workload's operations until ``--seconds`` have passed.  Each
operation is one scenario document run through ``config.parse_config`` and
``config.run_scenario``, the path ``contmon run`` takes, with one ensemble
thread (the CLI default).  Its ``stats.csv`` and ``manifest.json`` are read
back and checked against references computed without contmon.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the BLAS thread count is fixed before numpy loads, for every run alike; numpy
# and the benchmark's own modules (which import it) load only after contmon's
# import has been timed
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
IMPORT_SAMPLES = 5
IMPORT_TIMEOUT_S = 60
# parse and build are interpreter work on small data, so they are scaled by the small probe
SETUP_PROBE = "small"
IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import contmon, contmon.cli\n"
    "print(time.perf_counter() - start)\n"
    "print(contmon.__file__)\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def timed_import():
    """Import the checkout's contmon here; return the seconds it took."""
    if not (SRC / "contmon" / "__init__.py").is_file():
        fail(f"no contmon sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    contmon = importlib.import_module("contmon")
    importlib.import_module("contmon.cli")
    elapsed = time.perf_counter() - start
    if Path(contmon.__file__).resolve().parent != (SRC / "contmon").resolve():
        fail(f"imported contmon from {contmon.__file__}, not from {SRC}")
    return elapsed


def import_seconds_in_fresh_processes(count: int) -> list[float]:
    """``import contmon.cli`` timed in ``count`` fresh interpreters, each scaled
    to the reference speed by the standard-library reference import timed in
    fresh interpreters right before and right after it."""
    from calibration import REFERENCE_IMPORT_CODE, REFERENCE_IMPORT_S

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def child(code, n_lines):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=IMPORT_TIMEOUT_S, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != n_lines:
            fail(f"import in a fresh interpreter failed: {proc.stderr.strip()[-500:]}")
        return lines

    references = [float(child(REFERENCE_IMPORT_CODE, 1)[0])]
    samples = []
    for _ in range(count):
        seconds, path = child(IMPORT_CODE, 2)
        if Path(path).resolve().parent != (SRC / "contmon").resolve():
            fail(f"fresh interpreter imported contmon from {path}")
        references.append(float(child(REFERENCE_IMPORT_CODE, 1)[0]))
        samples.append(float(seconds) * REFERENCE_IMPORT_S / statistics.median(references[-2:]))
    return samples


def read_stats(path: Path):
    import numpy as np

    with path.open() as handle:
        header = handle.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, i] for i, name in enumerate(header)}


def check_operation(op, directory: Path, references) -> list[str]:
    """Problems found in one operation's output; empty when it is correct."""
    from oracles import mean_check
    from workloads import KRAUS_MIN_EIGENVALUE

    columns = read_stats(directory / "stats.csv")
    manifest = json.loads((directory / "manifest.json").read_text())
    problems = []
    t = columns["t"]
    for expect, ref in zip(op.expects, references):
        if ref.shape != t.shape:
            problems.append(f"{expect.observable}: grid of {t.size} points, expected {ref.size}")
            continue
        ok, idx, ratio = mean_check(
            columns[f"{expect.observable}.mean"], columns[f"{expect.observable}.se"],
            ref, op.z, expect.allowance,
        )
        if not ok:
            problems.append(
                f"{expect.observable}: |mean - ref| is {ratio:.3g} x (z SE + b) at t = {t[idx]:.6g}"
            )
    if op.kraus:
        health = manifest.get("health", {})
        min_eig = health.get("min_eigenvalue")
        violations = health.get("positivity_violations")
        if min_eig is None or min_eig < KRAUS_MIN_EIGENVALUE or violations != 0:
            problems.append(
                f"Kraus positivity: min eigenvalue {min_eig}, {violations} violations"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")

    import_in_process = timed_import()
    sys.path.insert(0, str(HERE))
    import numpy as np
    from calibration import REFERENCE_S, at_reference_speed, probe_seconds
    from contmon import config, diffusive, ensemble, jump
    from spans import Tracer, install_layers, install_setup_timers
    from workloads import WORKLOADS, operation_seeds

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    import_samples = import_seconds_in_fresh_processes(IMPORT_SAMPLES)

    seeds = operation_seeds(workload, args.seed)
    ops = workload.operations
    references = []
    for op in ops:
        grid = np.arange(op.n_steps + 1) * op.doc["run"]["dt"]
        references.append([np.asarray(e.reference(grid), dtype=float) for e in op.expects])

    run_dir = OUT / f"run-{os.getpid()}"
    tracer = Tracer()
    attempted = failed = 0
    correct = True
    problems_seen: list[str] = []

    def run_round(traced: bool, op_seconds):
        """Run every operation once, appending each one's seconds outside set-up,
        at the reference speed, to ``op_seconds``; return the round's set-up
        seconds at the reference speed."""
        nonlocal attempted, failed, correct
        tracer.restore()
        tracer.clear()
        if traced:
            install_layers(tracer, config, ensemble, jump, diffusive)
        else:
            install_setup_timers(tracer, config)
        builds = tracer.durations["config.build_runtime"]
        probes = []
        try:
            for op, seed, refs, seconds in zip(ops, seeds, references, op_seconds):
                doc = copy.deepcopy(op.doc)
                doc["run"]["seed"] = seed
                directory = run_dir / op.name
                attempted += 1
                try:
                    cfg = config.parse_config(json.dumps(doc))
                    done_builds = len(builds)
                    probes.append(probe_seconds())
                    start = time.perf_counter()
                    config.run_scenario(cfg, out_dir=directory, threads=1)
                    elapsed = time.perf_counter() - start - sum(builds[done_builds:])
                    probes.append(probe_seconds())
                    seconds.append(at_reference_speed(elapsed, probes[-2:], workload.probe))
                except Exception as exc:  # an operation the program could not run
                    failed += 1
                    correct = False  # no operation of a workload is expected to fail
                    problems_seen.append(f"{op.name}: {type(exc).__name__}: {exc}")
                    continue
                problems = check_operation(op, directory, refs)
                if problems:
                    failed += 1
                    correct = False
                    problems_seen.extend(f"{op.name}: {p}" for p in problems)
        finally:
            tracer.restore()
        all_probes.extend(probes)
        setup = sum(tracer.durations["config.parse_config"]) + sum(builds)
        return at_reference_speed(setup, probes, SETUP_PROBE) if probes else setup

    # per operation, its seconds in each round at the reference speed; a run's
    # time is the sum of the operations' medians
    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    setups, layer_rounds, all_probes = [], [], []
    try:
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            run_round(False, [[] for _ in ops])  # warm-up, so that it biases neither side
        while True:
            setups.append(run_round(False, untraced))
            if args.trace:
                run_round(True, traced)
                layer_rounds.append(_layer_snapshot(tracer))
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    wall = _sum_of_medians(untraced)
    # only the operations that finished count as work, so a crash cannot read as a speed-up
    traj_steps = sum(op.n_traj * op.n_steps for op, times in zip(ops, untraced) if times)

    for line in problems_seen[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    if args.trace:
        metrics = _layer_metrics(layer_rounds)
        metrics["trace.overhead_s"] = {"value": _sum_of_medians(traced) - wall, "unit": "s"}
        _write_trace(args, metrics, len(layer_rounds))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(import_samples) + statistics.median(setups),
                        "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "traj_steps_per_s": {"value": traj_steps / wall if wall else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"perfbench: {args.workload} seed {args.seed}, BLAS threads {BLAS_THREADS}: "
          f"untraced rounds {_seconds(map(sum, zip(*untraced)))}, "
          f"traced rounds {_seconds(map(sum, zip(*traced)))} at reference speed; "
          f"import {_seconds(import_samples)} at reference speed, {import_in_process:.3f} s "
          f"as timed here; operations scaled by the {workload.probe!r} probe; probe medians "
          + ", ".join(f"{kind} {statistics.median(p[kind] for p in all_probes) * 1e3:.2f} ms "
                      f"(reference {ref * 1e3:.2f} ms)"
                      for kind, ref in REFERENCE_S.items() if all_probes),
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _sum_of_medians(per_operation):
    return sum(statistics.median(times) for times in per_operation if times)


def _seconds(values):
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "] s"


def _layer_snapshot(tracer):
    return {
        "durations": {k: list(v) for k, v in tracer.durations.items()},
        "self": dict(tracer.self_seconds),
        "counts": dict(tracer.counts),
        "peaks": dict(tracer.peaks),
    }


def _layer_metrics(rounds):
    """Per-round means of the traced rounds; latency percentiles over all calls."""
    import numpy as np

    from spans import DIFFUSIVE_FUNCTIONS, JUMP_FUNCTIONS

    n = len(rounds)

    def calls(name):
        return [d for r in rounds for d in r["durations"].get(name, ())]

    def seconds(name):
        return sum(calls(name)) / n

    def self_seconds(name):
        return sum(r["self"].get(name, 0.0) for r in rounds) / n

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer, functions in (("jump", JUMP_FUNCTIONS), ("diffusive", DIFFUSIVE_FUNCTIONS)):
        for fn in functions:
            samples = calls(f"{layer}.{fn}")
            put(f"{layer}.{fn}.s", seconds(f"{layer}.{fn}"), "s")
            put(f"{layer}.{fn}.calls", len(samples) / n, "count")
            ms = np.asarray(samples) * 1e3
            put(f"{layer}.{fn}.p50_ms", float(np.percentile(ms, 50)) if ms.size else 0.0, "ms")
            put(f"{layer}.{fn}.p99_ms", float(np.percentile(ms, 99)) if ms.size else 0.0, "ms")
    put("core_ops.min_eigenvalue.s", seconds("core_ops.min_eigenvalue"), "s")
    put("core_ops.min_eigenvalue.calls", len(calls("core_ops.min_eigenvalue")) / n, "count")
    put("ensemble.run_ensemble.s", seconds("ensemble.run_ensemble"), "s")
    put("ensemble.self.s", self_seconds("ensemble.run_ensemble"), "s")
    put("ensemble.noise.s", seconds("ensemble.noise"), "s")
    put("ensemble.noise.block_bytes",
        max(r["peaks"].get("ensemble.noise.block_bytes", 0) for r in rounds), "bytes")
    put("ensemble.traj_steps",
        sum(r["counts"].get("ensemble.traj_steps", 0) for r in rounds) / n, "count")
    for name in ("gaussian.conditional_cov_rhs", "gaussian.unconditional_moment_rhs"):
        put(f"{name}.s", seconds(name), "s")
        put(f"{name}.calls", len(calls(name)) / n, "count")
    put("master_equation.me_expectations.s", seconds("master_equation.me_expectations"), "s")
    put("gaussian.synthesis.s", seconds("gaussian.synthesis"), "s")
    put("config.parse_config.s", seconds("config.parse_config"), "s")
    put("config.build_runtime.s", seconds("config.build_runtime"), "s")
    put("config.render_stats_csv.s", seconds("config.render_stats_csv"), "s")
    put("config.run_scenario.self.s", self_seconds("config.run_scenario"), "s")
    put("config.stats_bytes",
        sum(r["counts"].get("config.stats_bytes", 0) for r in rounds) / n, "bytes")
    return out


def _write_trace(args, metrics, rounds):
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "traced_rounds": rounds,
         "metrics": metrics}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
