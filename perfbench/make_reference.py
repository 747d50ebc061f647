"""Regenerate reference_cap.json: the census-cap intervals of the current code
for every direction a seed can draw.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on code whose census you trust: the benchmark accepts a later
census-cap answer exactly when its intervals lie inside these.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from fanostat.census import local_census
from fanostat.localsolve import AdelicTarget

from workloads import (
    CAP_BASE_DIRECTION,
    CAP_REFERENCE_FILE,
    CAP_SIGMA,
    CensusCap,
    cap_orbit,
    cap_reference_key,
    census_record,
)


def main() -> int:
    censuses = sorted({(2, 3, A, 3) for A in CensusCap.SIZES.values()} | {(3, 3, Fraction(1), 2)})
    table = {}
    for xi in cap_orbit():
        target = AdelicTarget((), xi, CAP_SIGMA)
        for d, n, A, P in censuses:
            table[cap_reference_key(d, n, A, P, xi)] = census_record(local_census(d, n, A, P, target))
        print(xi, file=sys.stderr, flush=True)
    doc = {
        "base_direction": list(CAP_BASE_DIRECTION),
        "sigma_inf": str(CAP_SIGMA),
        "censuses": table,
    }
    with open(CAP_REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
