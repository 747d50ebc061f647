"""fanostat benchmark: one workload, checked exact outputs, named metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census-quadric --seed 1 --seconds 28 --trace 0

Workloads: moment-quadric, census-quadric, census-cap, predicted-quadric
(see workloads.py and README.md). The workload runs in a fresh interpreter
(worker.py) with one thread; set-up time is the median over several more
fresh interpreters. End-to-end times are scaled to a reference host speed
sampled inside the timed process (hostspeed.py). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics for --trace 0 and the per-layer metrics of a
traced run for --trace 1. Spans of a traced run are written to
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 5

# name -> unit; the order is the order of the report
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "resolved_frac": "frac",
    "interval_tightness": "frac",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(root: Path, args, extra: list) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size, *extra]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(root: Path, args) -> float:
    """Seconds from starting a fresh interpreter until it is ready to call,
    at the reference host speed the interpreter measured meanwhile."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, scale = line.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise BenchError("set-up probe failed")
    return elapsed * float(scale)


def end_to_end_metrics(res: dict, setups: list) -> dict:
    """Times are at the reference host speed of hostspeed.py."""
    wall = statistics.median(res["scaled"])
    values = {
        "wall_s": wall,
        "items_per_s": res["items"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
        "resolved_frac": res["resolved_frac"],
        "interval_tightness": res["interval_tightness"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_output(res: dict) -> dict:
    from tracer import per_layer_metrics

    return {name: {"value": res["layers"][name], "unit": unit} for name, unit, _ in per_layer_metrics()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the small sizes the benchmark's own tests use")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fanostat" / "__init__.py").is_file():
        print("perfbench: run from the root of a fanostat checkout (no src/fanostat here)", file=sys.stderr)
        return 2
    extra = []
    if args.trace:
        trace_out = root / ".bench_build" / "perfbench" / f"trace-{args.workload}-seed{args.seed}.npz"
        extra = ["--trace-out", str(trace_out)]
    try:
        res = run_worker(root, args, extra)
        if not res["walls"]:
            raise BenchError(f"all {res['attempted']} calls failed: {res['errors']}")
        if args.trace:
            metrics = per_layer_output(res)
        else:
            metrics = end_to_end_metrics(res, [setup_time(root, args) for _ in range(SETUP_PROBES)])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(res['inputs'])}")
    print(f"calls {res['attempted']}  failed {res['failed']}  timed samples {len(res['walls'])}  "
          f"median unscaled wall {statistics.median(res['walls']):.6g} s")
    for err in res["errors"]:
        print(f"  failed: {err}")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        print(f"  spans {res['spans']}  self-time coverage of traced wall {res['self_time_coverage']}")
        print(f"  spans written to {extra[1]}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
