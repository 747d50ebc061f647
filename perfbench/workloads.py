"""The four benchmark workloads: inputs from a seed, the top-level call, the
exactness oracle and the quantities the end-to-end metrics are made from.

Each workload is built at one of two sizes: "full" (what the benchmark
times) and "smoke" (what its own tests run in a few seconds). Only
``make_case`` sees the seed; the program receives the generated
``AdelicTarget`` and ``np.random.Generator`` and nothing else.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from fanostat import census as fcensus
from fanostat.localsolve import AdelicTarget, BallClassification

CAP_REFERENCE_FILE = Path(__file__).with_name("reference_cap.json")

# census-cap targets: xi_inf is CAP_BASE_DIRECTION with the signs of its
# coordinates changed as the seed draws. A sign change of coordinates maps
# the family of forms of height <= A onto itself and the real decider's
# cube-face subdivision onto its mirror image, so every seed has the same
# exact census and the same work (traced call counts agree within 1.5%),
# while the target handed to the program changes. A direction drawn freely
# from [-3, 3]^4 instead moved one census-cap call between 2.6 s and 9.8 s
# and its unresolved forms between 3 and 43 of 120, and a permutation of the
# coordinates changes the subdivision work by up to 40%: the seed rather
# than the code would set the metrics.
CAP_BASE_DIRECTION = (3, -1, 2, 1)
CAP_SIGMA = Fraction(1, 2)


class CheckFailed(Exception):
    """An exact output differs from its reference."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def cap_direction(seed: int) -> tuple:
    """The census-cap xi_inf for a seed, canonical up to sign."""
    signs = np.random.default_rng(seed).choice((-1, 1), size=len(CAP_BASE_DIRECTION))
    return canonical_direction(tuple(int(s) * c for s, c in zip(signs, CAP_BASE_DIRECTION)))


def canonical_direction(xi) -> tuple:
    first = next(c for c in xi if c)
    return tuple(xi) if first > 0 else tuple(-c for c in xi)


def cap_orbit() -> list:
    """Every census-cap direction a seed can produce, canonical up to sign."""
    out = set()
    for signs in itertools.product((-1, 1), repeat=len(CAP_BASE_DIRECTION)):
        out.add(canonical_direction(tuple(s * c for s, c in zip(signs, CAP_BASE_DIRECTION))))
    return sorted(out)


def cap_reference_key(d: int, n: int, A, P: int, xi) -> str:
    return f"d={d} n={n} A={Fraction(A)} P={P} xi={','.join(str(c) for c in xi)}"


def load_cap_reference() -> dict:
    with open(CAP_REFERENCE_FILE) as fh:
        return json.load(fh)["censuses"]


def census_record(report) -> dict:
    return {
        "m": list(report.m_interval),
        "e": list(report.e_interval),
        "vloc": list(report.vloc_interval),
        "forms": report.total_forms,
        "unresolved": report.unresolved,
    }


@dataclass
class Outcome:
    """What one checked top-level call produced, for the metrics."""

    items: int  # work units: incidences, forms decided or balls classified
    forms: int  # census forms decided (0 when the workload decides none)
    unresolved: int  # census forms the census itself reports unresolved
    interval: tuple  # (lo, hi) of the answer; lo == hi when it is exact


class Case:
    """One workload at one size and seed: ``call`` then ``check``."""

    name: str

    def call(self):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class MomentQuadric(Case):
    """first_moment(2, 3, A, B), trivial target: direct and dual must agree."""

    name = "moment-quadric"
    SIZES = {"full": (Fraction(2), 14892), "smoke": (Fraction(3, 2), 324)}

    def __init__(self, seed: int, size: str, expected=None):
        self.A, ref = self.SIZES[size]
        self.expected = ref if expected is None else expected
        self.target = AdelicTarget.trivial(3)

    def call(self):
        # first_moment raises when the two strategies disagree
        return fcensus.first_moment(2, 3, self.A, self.A, self.target)

    def check(self, result) -> Outcome:
        _require(result == self.expected, f"first moment {result} != {self.expected}")
        return Outcome(result, 0, 0, (result, result))

    def describe(self) -> dict:
        return {"call": "first_moment", "d": 2, "n": 3, "A": str(self.A), "B": str(self.A),
                "target": "trivial", "expected": self.expected}


class CensusQuadric(Case):
    """local_census(2, 3, A, P=3), trivial target: every verdict resolves."""

    name = "census-quadric"
    SIZES = {
        "full": (Fraction(2), {"m": (4518, 4518), "e": (0, 0), "vloc": (2259, 2259), "forms": 2260}),
        "smoke": (Fraction(3, 2), {"m": (200, 200), "e": (0, 0), "vloc": (100, 100), "forms": 100}),
    }

    def __init__(self, seed: int, size: str, expected=None):
        self.A, ref = self.SIZES[size]
        self.expected = ref if expected is None else expected
        self.target = AdelicTarget.trivial(3)

    def call(self):
        return fcensus.local_census(2, 3, self.A, 3, self.target)

    def check(self, report) -> Outcome:
        ref = self.expected
        _require(report.total_forms == ref["forms"], f"forms {report.total_forms} != {ref['forms']}")
        _require(tuple(report.m_interval) == ref["m"], f"M {report.m_interval} != {ref['m']}")
        _require(tuple(report.e_interval) == ref["e"], f"E {report.e_interval} != {ref['e']}")
        _require(tuple(report.vloc_interval) == ref["vloc"], f"V^loc {report.vloc_interval} != {ref['vloc']}")
        _require(
            tuple(report.direct_vloc_interval) == ref["vloc"],
            f"direct V^loc {report.direct_vloc_interval} != {ref['vloc']}",
        )
        lo, hi = report.vloc_interval
        return Outcome(report.total_forms, report.total_forms, report.unresolved, (lo, hi))

    def describe(self) -> dict:
        return {"call": "local_census", "d": 2, "n": 3, "A": str(self.A), "P": 3, "target": "trivial",
                "expected": {k: list(v) if isinstance(v, tuple) else v for k, v in self.expected.items()}}


class CensusCap(Case):
    """local_census(2, 3, A, P=3) then local_census(3, 3, 1, P=2) in a cap of
    aperture 1/2 around a seed-drawn direction."""

    name = "census-cap"
    SIZES = {"full": Fraction(3, 2), "smoke": Fraction(1)}

    def __init__(self, seed: int, size: str, expected=None):
        self.xi = cap_direction(seed)
        self.target = AdelicTarget((), self.xi, CAP_SIGMA)
        self.censuses = ((2, 3, self.SIZES[size], 3), (3, 3, Fraction(1), 2))
        table = load_cap_reference() if expected is None else expected
        self.expected = []
        for d, n, A, P in self.censuses:
            key = cap_reference_key(d, n, A, P, self.xi)
            if key not in table:
                raise KeyError(f"no census-cap reference for {key}")
            self.expected.append(table[key])

    def call(self):
        return [fcensus.local_census(d, n, A, P, self.target) for d, n, A, P in self.censuses]

    def check(self, reports) -> Outcome:
        forms = unresolved = lo_sum = hi_sum = 0
        for report, ref in zip(reports, self.expected):
            (m_lo, m_hi), (e_lo, e_hi) = report.m_interval, report.e_interval
            vloc = tuple(report.vloc_interval)
            _require(vloc == ((m_lo - e_hi) // 2, (m_hi - e_lo) // 2), f"V^loc {vloc} breaks (M - E)/2")
            _require(report.total_forms == ref["forms"], f"forms {report.total_forms} != {ref['forms']}")
            for label, got in (("m", report.m_interval), ("e", report.e_interval), ("vloc", vloc)):
                lo, hi = ref[label]
                _require(lo <= got[0] <= got[1] <= hi, f"{label} {tuple(got)} not inside reference {(lo, hi)}")
            forms += report.total_forms
            unresolved += report.unresolved
            lo_sum += vloc[0]
            hi_sum += vloc[1]
        return Outcome(forms, forms, unresolved, (lo_sum, hi_sum))

    def describe(self) -> dict:
        return {"call": "local_census x2", "censuses": [[d, n, str(A), P] for d, n, A, P in self.censuses],
                "xi_inf": list(self.xi), "sigma_inf": str(CAP_SIGMA), "expected": self.expected}


class PredictedQuadric(Case):
    """predicted_census(2, 3, A=2, P_trunc=3, depth) then
    predicted_first_moment(2, 3, 2, 2), Monte-Carlo rng from the seed."""

    name = "predicted-quadric"
    # exact (omega0, omega1) of classify_balls(2, 3, p, v) at the enumerated primes
    SIZES = {
        "full": (2, {2: (996352, 1043072)}),
        "smoke": (1, {2: (973, 1023), 3: (58188, 59048)}),
    }
    PRIMITIVE_HALF = 2260  # primitive a in Z^10 with |a|^2 <= 4, halved

    def __init__(self, seed: int, size: str, expected=None):
        self.depth, ref = self.SIZES[size]
        self.expected = ref if expected is None else expected
        self.seed = seed
        self.target = AdelicTarget.trivial(3)

    def call(self):
        rng = np.random.default_rng(self.seed)
        census = fcensus.predicted_census(2, 3, 2, self.target, P_trunc=3, depth=self.depth, rng=rng)
        moment = fcensus.predicted_first_moment(2, 3, 2, 2, self.target, rng=rng)
        return census, moment

    def check(self, result) -> Outcome:
        census, moment = result
        balls = 0
        for p, iv in census["finite_intervals"].items():
            if iv.method != "enumeration":
                continue
            _require(p in self.expected, f"p={p} enumerated without a reference")
            omega0, omega1 = self.expected[p]
            ref = BallClassification(p, self.depth, 0, 0, omega0, omega1, 3, 10).rho_interval()
            _require((iv.lower, iv.upper) == (ref.lower, ref.upper), f"rho_{p} {iv} != omega {self.expected[p]}")
            balls += p ** (self.depth * 10)
        _require(set(self.expected) <= set(census["finite_intervals"]), "a referenced prime was not classified")
        _require(census["finite_size_factor"] == self.PRIMITIVE_HALF, "primitive coefficient count changed")
        lo, hi = census["finite_size_interval"]
        _require(0 < lo <= hi, f"finite-size interval {(lo, hi)} is empty or not positive")
        _require(math.isfinite(moment.value) and moment.value > 0, f"predicted first moment {moment.value}")
        return Outcome(balls, 0, 0, (lo, hi))

    def describe(self) -> dict:
        return {"call": "predicted_census + predicted_first_moment", "d": 2, "n": 3, "A": 2, "P_trunc": 3,
                "depth": self.depth, "B": 2, "rng": f"default_rng({self.seed})",
                "expected_omega": {str(p): list(v) for p, v in self.expected.items()}}


WORKLOADS = {cls.name: cls for cls in (MomentQuadric, CensusQuadric, CensusCap, PredictedQuadric)}


def make_case(name: str, seed: int, size: str = "full", expected=None) -> Case:
    """The workload `name` at `size`; `expected` replaces the reference values."""
    return WORKLOADS[name](seed, size, expected)
