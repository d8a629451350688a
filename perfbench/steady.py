#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py

Runs ``BENCHMARK.json``'s command five times on every workload in set A, then
again in set B, every run with its own seed (set A takes seeds 1-20 in
workload order, set B seeds 21-40).  For each end-to-end metric on each
workload it prints both sets' medians and quartiles, their spread (quartile
distance over median), the spread of all ten runs together, which must stay
within the metric's bound, and whether set B's median is within the bound of
set A's in either direction: two sets of the same code should agree, so a
gain counts as much as a loss.  It also compares the share of failed
operations.  The raw results go to ``perfbench/.out/steady-<time>.json``.
Exits 1 if anything disagrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300
RUNS_PER_SET = 5
FIRST_SEED = 1


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["summary"] = proc.stderr.strip().splitlines()[-1:]
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    sets = {"A": {}, "B": {}}
    seed = FIRST_SEED
    for label in sets:
        for name in names:
            sets[label][name] = []
            for _ in range(RUNS_PER_SET):
                start = time.monotonic()
                result = run_once(spec, name, seed)
                print(f"set {label} {name} seed {seed}: {time.monotonic() - start:.1f} s "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr, flush=True)
                sets[label][name].append({"seed": seed, **result})
                seed += 1

    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(sets, indent=1))

    ok = True
    header = (f"{'workload':16s} {'metric':17s} {'median A':>11s} {'Q1-Q3 A':>23s} "
              f"{'median B':>11s} {'Q1-Q3 B':>23s} {'sprA':>6s} {'sprB':>6s} {'sprAll':>6s} "
              f"{'change':>7s} {'bound':>6s}  verdict")
    print(header)
    for name in names:
        runs_a, runs_b = sets["A"][name], sets["B"][name]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r["metrics"][key]["value"] for r in runs_a]
            b = [r["metrics"][key]["value"] for r in runs_b]
            qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
            spread = [(q[2] - q[0]) / q[1] for q in (qa, qb, qall)]
            change = (qb[1] - qa[1]) / qa[1]
            agree = abs(change) <= bound
            # steadiness is judged on all runs together: one seed each
            steady = spread[2] <= bound
            verdict = "agree" if agree else "DISAGREE"
            if not steady:
                verdict += ", spread above bound"
            elif spread[2] > bound / 3:
                verdict += ", spread above a third of bound"
            ok = ok and agree and steady
            print(f"{name:16s} {key:17s} {qa[1]:11.5g} {qa[0]:11.5g}-{qa[2]:<11.5g} "
                  f"{qb[1]:11.5g} {qb[0]:11.5g}-{qb[2]:<11.5g} {spread[0]:6.3f} {spread[1]:6.3f} "
                  f"{spread[2]:6.3f} {change:+7.3f} {bound:6.3f}  {verdict}")
        shares = {label: {(r["failed"], r["attempted"]) for r in sets[label][name]}
                  for label in sets}
        fail_a = sum(r["failed"] for r in runs_a) / sum(r["attempted"] for r in runs_a)
        fail_b = sum(r["failed"] for r in runs_b) / sum(r["attempted"] for r in runs_b)
        correct = all(r["correct"] for r in runs_a + runs_b)
        same = fail_a == fail_b
        ok = ok and same and correct
        print(f"{name:16s} failed share A {fail_a:.6g} B {fail_b:.6g} "
              f"({'same' if same else 'DIFFERENT'}); correct in every run: {correct}; "
              f"(failed, attempted) seen: {sorted(shares['A'] | shares['B'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
