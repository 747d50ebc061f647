"""One workload in one fresh interpreter; prints one JSON line of results.

    PYTHONPATH=src python3 perfbench/worker.py --workload census-quadric \
        --seed 1 --seconds 10 --trace 0

``run.py`` starts it; it is a separate process so that set-up time and peak
memory belong to the workload alone. Untraced call times are also reported
scaled to the reference host speed (hostspeed.py). With ``--setup-only`` it
does the set-up, prints ``ready <scale>`` and exits; ``run.py`` times that
as ``setup_s`` and multiplies by the scale. With ``--trace 1`` it
alternates untraced and traced calls and reports per-layer figures, in
plain seconds, instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed


def set_up(workload: str, seed: int, size: str):
    """Everything a user pays before the first call: imports, the lazy prime
    sieve and the workload's inputs."""
    import numpy  # noqa: F401  (part of the cost being measured)

    import fanostat
    from fanostat import census, counting, geom, intlinalg, lattice, localsolve, numtheory, padic, veronese  # noqa: F401

    src = Path.cwd().resolve() / "src"
    if Path(fanostat.__file__).resolve().parent.parent != src:
        raise ImportError(f"fanostat was imported from {fanostat.__file__}, not from {src}")
    numtheory.primes_up_to(2)

    from workloads import make_case

    return make_case(workload, seed, size)


class Measurement:
    """Checked calls of one case; with a HostSpeed, also their scaled times."""

    def __init__(self, case, host: HostSpeed | None = None):
        self.case = case
        self.host = host
        self.walls: list[float] = []
        self.scaled: list[float] = []  # walls at the reference host speed
        self.outcomes = []
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.walls) + len(self.errors)

    def once(self) -> float:
        """One top-level call and its check; returns the seconds it took.

        A call that raises or fails its check is recorded as an error and
        gives no timing.
        """
        since = self.host.mark() if self.host else 0
        t0 = perf_counter()
        try:
            outcome = self.case.check(self.case.call())
        except Exception as exc:  # a failed call is a result, not a crash
            self.errors.append("".join(traceback.format_exception_only(exc)).strip())
            return perf_counter() - t0
        wall = perf_counter() - t0
        self.walls.append(wall)
        if self.host:
            self.scaled.append(self.host.scaled(wall, since))
        self.outcomes.append(outcome)
        return wall


def end_to_end(case, seconds: float) -> dict:
    with HostSpeed() as host:
        m = Measurement(case, host)
        begin = perf_counter()
        spent = []
        while True:
            spent.append(m.once())
            if perf_counter() - begin + statistics.median(spent) > seconds:
                break
    return summarize(m)


def summarize(m: Measurement) -> dict:
    out = {"attempted": m.attempted, "failed": len(m.errors), "errors": m.errors[:5], "walls": m.walls,
           "scaled": m.scaled}
    if m.outcomes:
        first = m.outcomes[0]
        lo, hi = first.interval
        out.update(
            items=first.items,
            resolved_frac=1.0 - first.unresolved / first.forms if first.forms else 1.0,
            interval_tightness=lo / hi,
        )
    return out


def traced(case, seconds: float, trace_out: str | None) -> dict:
    from tracer import Tracer, layer_metrics

    plain = Measurement(case)
    tracer = Tracer()
    begin = perf_counter()
    traced_walls, coverage, errors = [], [], []
    while True:
        pair = plain.once()
        mark = tracer.mark()
        with tracer:
            t0 = perf_counter()
            try:
                case.check(case.call())
            except Exception as exc:
                errors.append("".join(traceback.format_exception_only(exc)).strip())
            wall = perf_counter() - t0
        pair += wall
        traced_walls.append(wall)
        coverage.append(tracer.self_time_sum(mark) / wall)
        if perf_counter() - begin + pair > seconds:
            break
    calls = len(traced_walls)
    per_function = tracer.per_function()
    metrics = layer_metrics(per_function, calls)
    overhead = statistics.median(traced_walls) - statistics.median(plain.walls) if plain.walls else 0.0
    metrics["trace_overhead_s"] = overhead
    if trace_out:
        Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_out, {"workload": case.name, "inputs": case.describe(), "traced_walls": traced_walls,
                                 "untraced_walls": plain.walls, "trace_overhead_s": overhead})
    out = summarize(plain)
    out.update(attempted=plain.attempted + calls, failed=len(plain.errors) + len(errors),
               errors=(plain.errors + errors)[:5], layers=metrics,
               traced_walls=traced_walls, self_time_coverage=coverage, spans=tracer.mark())
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace-out", default=None, help="where a traced run writes its spans (.npz)")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        with HostSpeed() as host:
            set_up(args.workload, args.seed, args.size)
            print(f"ready {host.scaled(1.0, 0)!r}", flush=True)
        return 0
    case = set_up(args.workload, args.seed, args.size)
    if args.trace:
        out = traced(case, args.seconds, args.trace_out)
    else:
        out = end_to_end(case, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["inputs"] = case.describe()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
