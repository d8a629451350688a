"""Digests of shortened runs of every preset and benchmark document.

Each preset and ``perfbench/workloads.py`` document runs with at most 120
steps (``--max-steps N`` sets another cap) and 150 trajectories in blocks of
64, records and min-eigenvalue tracking on, at seeds 7 and 11 with 1 and 2
threads.  The JSON output holds, per run, the sha256 of its stats table and
records, its health block and its stats CSV text.  ``--compare`` prints the runs that moved between two
outputs, with each run's largest mean move (relative to max(1, |mean|)) and
largest SE move (absolute, and relative to the larger of the two SEs), and
exits 1 when a run's 1-thread and 2-thread results differ in the second: in
its stats, its records or its health block.

``--baseline`` writes a baseline in place of the full output: the build it
ran on (``build_key``), and per run its two digests and health block, but not
its CSV.  The bytes of floating-point results are bound to one build, so
``--compare`` against a baseline of another build prints why it skipped the
comparison and exits 0.  ``digests_baseline.json`` next to this file is the
committed baseline at the default cap.

    PYTHONPATH=src python tools/run_digests.py digests.json
    PYTHONPATH=src python tools/run_digests.py --max-steps 2500 full.json
    PYTHONPATH=src python tools/run_digests.py --baseline tools/digests_baseline.json
    python tools/run_digests.py --compare parent.json change.json
    python tools/run_digests.py --compare tools/digests_baseline.json digests.json
"""

import argparse
import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

SEEDS, THREADS = (7, 11), (1, 2)
MAX_STEPS, MAX_TRAJ, BLOCK = 120, 150, 64
BASELINE = Path(__file__).resolve().parent / "digests_baseline.json"
FIELDS = ("stats_sha256", "records_sha256", "health")  # what a baseline keeps of a run
# the configuration string of the OpenBLAS numpy loaded, under the names its
# builds export; it names the kernel chosen at run time, where the build
# string numpy reports names the one it was compiled for
BLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
               "openblas_get_config64_", "openblas_get_config")


def documents() -> dict:
    from contmon.presets import PRESETS

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads  # perfbench's document lists, read only

    return dict(PRESETS, **{f"{workload.name}/{op.name}": op.doc
                            for workload in workloads.WORKLOADS.values()
                            for op in workload.operations})


def digest(doc: dict, seed: int, threads: int, max_steps: int = MAX_STEPS) -> dict:
    from contmon.config import build_runtime, health, parse_config, render_stats_csv

    doc = json.loads(json.dumps(doc))
    run = doc["run"]
    run.update(t_final=min(run["t_final"], max_steps * run["dt"]), block_size=BLOCK,
               n_traj=min(run["n_traj"], MAX_TRAJ), track_min_eigenvalue=True)
    doc["output"]["records"] = True
    job = build_runtime(parse_config(json.dumps(doc)), threads=threads, seed=seed)
    columns, stats = job.execute()
    text = render_stats_csv(stats.t, columns)
    records = None if stats.records is None else stats.records.tobytes()
    return {
        "stats_sha256": hashlib.sha256(text).hexdigest(),
        "records_sha256": records and hashlib.sha256(records).hexdigest(),
        "health": health(stats),
        "csv": text.decode(),
    }


def digests(max_steps: int = MAX_STEPS) -> dict:
    """Every document's digest at each seed and thread count, keyed by run."""
    return {f"{name}|seed={seed}|threads={threads}": digest(doc, seed, threads, max_steps)
            for name, doc in documents().items() for seed in SEEDS for threads in THREADS}


def build_key() -> dict:
    """The numpy version and the BLAS configuration that runs, on which the
    digests' bytes depend; "unknown" where no loaded OpenBLAS reports it."""
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line}) if maps.exists() else []
    for lib in libs:
        for name in BLAS_CONFIG:
            func = getattr(ctypes.CDLL(lib), name, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_char_p
                return {"numpy": np.__version__, "blas": func().decode()}
    return {"numpy": np.__version__, "blas": "unknown"}


def _table(text: str) -> dict:
    header, body = text.split("\n", 1)
    return dict(zip(header.split(","), np.loadtxt(body.splitlines(), delimiter=",", ndmin=2).T))


def _runs(path: str):
    """The runs of a digests file or of a baseline, or None, said on stdout,
    when the baseline was made on another build than this one."""
    data = json.loads(Path(path).read_text())
    if "build" not in data:
        return data
    if data["build"] != build_key():
        print(f"skipped: {path} was made on {data['build']}, this build is {build_key()}, "
              "and the bytes of floating-point results are bound to one build")
        return None
    return data["runs"]


def compare(path_a: str, path_b: str) -> int:
    a, b = [_runs(p) for p in (path_a, path_b)]
    if a is None or b is None:
        return 0
    for key in sorted(a.keys() ^ b.keys()):
        print(f"{key}: only in {path_a if key in a else path_b}")
    keys = sorted(a.keys() & b.keys())
    moved = [k for k in keys if any(a[k][f] != b[k][f] for f in FIELDS)]
    for key in moved:
        moves = ""
        if "csv" in a[key] and "csv" in b[key]:  # a baseline keeps no CSV
            ta, tb = (_table(x[key]["csv"]) for x in (a, b))
            mean = max(np.max(np.abs(ta[c] - tb[c]) / np.maximum(1.0, np.abs(ta[c])))
                       for c in ta if c.endswith(".mean"))
            se = [np.abs(ta[c] - tb[c]) for c in ta if c.endswith(".se")]
            scale = [np.maximum(np.abs(ta[c]), np.abs(tb[c])) for c in ta if c.endswith(".se")]
            se_abs = max(np.max(d) for d in se)
            se_rel = max(np.max(np.divide(d, s, out=np.zeros_like(d), where=s > 0))
                         for d, s in zip(se, scale))
            moves = f"mean rel {mean:.3g}, se abs {se_abs:.3g}, se rel {se_rel:.3g}, "
        ha, hb = a[key]["health"], b[key]["health"]
        records = "same" if a[key]["records_sha256"] == b[key]["records_sha256"] else "differ"
        health = "; ".join(f"{h} {ha.get(h)} -> {hb.get(h)}" for h in sorted(ha.keys() | hb.keys())
                           if ha.get(h) != hb.get(h))
        print(f"{key}: {moves}records {records}; {health or 'health same'}")
    print(f"{len(moved)} of {len(keys)} shared runs moved")
    status = 0
    for key in (k for k in sorted(b) if k.endswith("|threads=1")):
        other = b.get(key[:-1] + "2", b[key])
        differ = [f for f in FIELDS if b[key][f] != other[f]]
        if differ:
            print(f"{key[:-len('|threads=1')]}: 1 and 2 threads differ in {path_b} "
                  f"({', '.join(differ)})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="the output file, or two files with --compare")
    parser.add_argument("--compare", action="store_true", help="print the runs that moved")
    parser.add_argument("--baseline", action="store_true",
                        help="write the build key and each run's digests and health, no CSV")
    parser.add_argument("--max-steps", type=int, default=MAX_STEPS, metavar="N",
                        help=f"cap on each run's steps (default {MAX_STEPS})")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.paths)
    if args.max_steps < 1:
        parser.error("--max-steps must be >= 1")
    out = digests(args.max_steps)
    if args.baseline:
        out = {"build": build_key(), "runs": {key: {field: run[field] for field in FIELDS}
                                              for key, run in out.items()}}
    Path(args.paths[0]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
