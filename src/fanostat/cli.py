"""The `fanostat` command: one experiment per call, one JSON report on stdout.

    fanostat census D N A P [--xi 3,-1,2,1] [--sigma 1/2]

runs `census.local_census(D, N, A, P, target)` for the target with no
finite place and the real cap of aperture sigma around xi (by default the
axis e_0 and sigma = 1, the trivial target), and prints one JSON object:
the parameters, every field of the `CensusReport`, the wall time `wall_s`
of the census call and the peak resident memory `peak_rss_mb` of the
process. A, sigma and the entries of xi are read as exact rationals
("3/2", "0.6" = 3/5).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from fractions import Fraction

from .census import local_census
from .localsolve import AdelicTarget


def _axis(text: str) -> tuple:
    return tuple(Fraction(c) for c in text.split(","))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fanostat", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    census = commands.add_parser("census", help="the local census M, E and V^loc of degree-D forms in P^N")
    census.add_argument("d", type=int, metavar="D")
    census.add_argument("n", type=int, metavar="N")
    census.add_argument("A", type=Fraction, help="coefficient height bound |a| <= A")
    census.add_argument("P", type=int, help="the primes <= P are decided one by one")
    census.add_argument("--xi", type=_axis, help="real axis, comma-separated (default e_0)")
    census.add_argument("--sigma", type=Fraction, default=Fraction(1), help="real aperture in (0, 1] (default 1)")
    return parser


def _plain(x):
    """Rationals as strings and tuples as lists, so the report is JSON."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    xi = args.xi or (Fraction(1),) + (Fraction(0),) * args.n
    if len(xi) != args.n + 1:
        raise SystemExit(f"fanostat: --xi needs {args.n + 1} entries")
    try:
        target = AdelicTarget((), xi, args.sigma)
    except ValueError as exc:
        raise SystemExit(f"fanostat: {exc}") from exc
    start = time.perf_counter()
    report = local_census(args.d, args.n, args.A, args.P, target)
    wall = time.perf_counter() - start
    out = {
        "command": "census",
        "params": {"d": args.d, "n": args.n, "A": args.A, "P": args.P, "xi": xi, "sigma": args.sigma},
        "report": dataclasses.asdict(report),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    json.dump(_plain(out), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
