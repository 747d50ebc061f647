"""Span tracing of fanostat from outside the package.

``Tracer`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent) and restores the
originals afterwards. A function is replaced under every name any layer
module binds it to, so ``census.lll_reduce`` is traced as well as
``intlinalg.lll_reduce``. Spans stay in flat arrays until ``write``.

A generator function (``fincke_pohst``) gets one span from its first resume
to its exhaustion, and its busy time counts only the time spent inside the
generator, so the consumer's work between two items stays with the consumer.
Self time is busy time minus the busy time of the direct children; over a
traced call the self times add up to the duration of the outermost span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("census", "intlinalg", "lattice", "veronese", "localsolve", "padic", "geom", "numtheory", "counting")

# reported per function, besides what is listed here every function's
# calls, self time and failures go into the written trace
PER_FUNCTION = {
    "intlinalg.lll_reduce": ("calls", "self_s"),
    "intlinalg.fincke_pohst": ("calls", "self_s", "yielded", "useful_ratio"),
    "lattice.hyperplane_lattice": ("calls", "self_s"),
    "intlinalg.integer_ball": ("calls", "self_s", "rows", "bytes"),
    "veronese.veronese": ("calls", "self_s"),
    "veronese.evaluate_form": ("calls", "self_s"),
    "veronese.gradient_form": ("calls", "self_s"),
    "localsolve.decide_padic_solubility": (
        "calls", "self_s", "yes", "no", "unknown", "budget_exceeded", "resolved_ratio",
    ),
    "localsolve.canonical_projective_residues": ("calls", "self_s", "rows"),
    "localsolve.decide_real_solubility": ("calls", "self_s", "yes", "no", "unknown", "cells", "resolved_ratio"),
    "localsolve.classify_balls": ("calls", "self_s", "balls", "ops", "certified_ratio"),
    "veronese.veronese_batch": ("calls", "self_s", "rows"),
    "counting.veronese_reciprocal_volume": ("calls", "self_s"),
    "padic.lift_hypersurface_point": ("calls", "self_s", "failed"),
    "geom.cone_member": ("calls", "self_s"),
    "numtheory.factorize": ("calls", "self_s"),
    "numtheory.primes_up_to": ("calls", "self_s"),
    "census.enumerate_hypersurfaces": ("self_s",),
    "census.local_census": ("self_s",),
    "census.first_moment_direct": ("self_s",),
    "census.first_moment_dual": ("self_s",),
    "census.predicted_census": ("self_s",),
}

# (unit, better) per statistic
STATS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "failed": ("count", "lower"),
    "yielded": ("count", "lower"),
    "useful_ratio": ("ratio", "higher"),
    "rows": ("count", "lower"),
    "bytes": ("B", "lower"),
    "yes": ("count", "higher"),
    "no": ("count", "higher"),
    "unknown": ("count", "lower"),
    "budget_exceeded": ("count", "lower"),
    "resolved_ratio": ("ratio", "higher"),
    "cells": ("count", "lower"),
    "balls": ("count", "lower"),
    "ops": ("count", "lower"),
    "certified_ratio": ("ratio", "higher"),
}


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{fn}.{stat}", *STATS[stat]) for fn, stats in PER_FUNCTION.items() for stat in stats]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out.append(("trace_overhead_s", "s", "lower"))
    return out


# --- work counters, run after a call returns ----------------------------------


def _count_rows(stats, call, out):
    stats["rows"] += len(out)


def _count_ball(stats, call, out):
    stats["rows"] += len(out)
    stats["bytes"] += int(out.nbytes)


def _count_verdict(stats, call, out):
    stats[out.verdict] += 1
    if out.verdict == "no":
        stats["cells"] += out.certificate.get("cells", 0)
    elif out.verdict == "unknown":
        stats["cells"] += (out.certificate or {}).get("pending", 0)


def _count_primitive(stats, call, out):
    stats["primitive"] += out


def _count_batch(stats, call, out):
    stats["rows"] += len(call["pts"])


def _count_classify(stats, call, out):
    n, p, v, e_p = call["n"], call["p"], call["v"], call["e_p"]
    m = n + 1
    balls = p ** (v * out.N_dim)
    if e_p >= 1:  # the fibre of P^n(Z/p^v) over one point of P^n(Z/p^e_p)
        residues = p ** ((v - e_p) * n)
    else:  # canonical residues: pivot entry 1, nonunits before it
        residues = sum(p ** ((v - 1) * k) * p ** (v * (m - k - 1)) for k in range(m))
    stats["balls"] += balls
    stats["ops"] += balls * residues * out.N_dim * (n + 2)
    stats["omega0"] += out.omega0
    stats["omega1"] += out.omega1


# function -> (needs bound arguments, counter)
COUNTERS = {
    "intlinalg.integer_ball": (False, _count_ball),
    "localsolve.canonical_projective_residues": (False, _count_rows),
    "localsolve.decide_padic_solubility": (False, _count_verdict),
    "localsolve.decide_real_solubility": (False, _count_verdict),
    "census.first_moment_dual": (False, _count_primitive),
    "veronese.veronese_batch": (True, _count_batch),
    "localsolve.classify_balls": (True, _count_classify),
}


class Tracer:
    """Context manager: wraps fanostat on entry, restores it on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.failures: dict[str, Counter] = defaultdict(Counter)
        self._stack = [-1]
        self._patched: list = []
        self._wrappers = None  # id(original) -> (original, wrapper), built once

    # --- installing

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"fanostat.{layer}") for layer in LAYERS]
        if self._wrappers is None:
            self._wrappers = {}
            for layer, mod in zip(LAYERS, modules):
                for attr, obj in vars(mod).items():
                    if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                        continue
                    if getattr(obj, "__module__", None) == mod.__name__:
                        self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        wrappers = self._wrappers
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, attr, hit[1])
                        self._patched.append((mod, attr, obj))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def _open(self, nid: int) -> int:
        idx = len(self.busy)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        return idx

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        needs_args, counter = COUNTERS.get(name, (False, None))
        sig = inspect.signature(fn) if needs_args else None
        stack = self._stack

        def count(args, kwargs, out):
            call = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                call = bound.arguments
            counter(self.counts[name], call, out)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._traced_generator(name, nid, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.failures[name][type(exc).__name__] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.busy[idx] = t1 - t0
            if counter is not None:
                count(args, kwargs, out)
            return out

        return wrapper

    def _traced_generator(self, name: str, nid: int, gen):
        idx = self._open(nid)
        stack = self._stack
        first = last = None
        busy = 0.0
        yielded = 0
        try:
            while True:
                stack.append(idx)
                t0 = perf_counter()
                if first is None:
                    first = t0
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    self.failures[name][type(exc).__name__] += 1
                    raise
                finally:
                    last = perf_counter()
                    stack.pop()
                    busy += last - t0
                yielded += 1
                yield item
        finally:
            gen.close()
            self.start[idx] = first if first is not None else 0.0
            self.end[idx] = last if last is not None else 0.0
            self.busy[idx] = busy
            self.counts[name]["yielded"] += yielded

    # --- reading

    def mark(self) -> int:
        """Span count so far; spans from a mark on belong to later calls."""
        return len(self.busy)

    def self_times(self) -> np.ndarray:
        busy = np.frombuffer(self.busy, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=busy[has_parent], minlength=len(busy))
        return busy - child

    def self_time_sum(self, since: int = 0) -> float:
        return float(self.self_times()[since:].sum())

    def per_function(self) -> dict:
        """name -> {"calls", "self_s", "failed", work counts} over all spans."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self.self_times(), minlength=len(self.names))
        out = {}
        for nid, name in enumerate(self.names):
            stats = {"calls": int(calls[nid]), "self_s": float(self_s[nid])}
            stats["failed"] = sum(self.failures[name].values())
            stats["budget_exceeded"] = self.failures[name]["EnumerationBudgetExceeded"]
            stats.update(self.counts.get(name, {}))
            out[name] = stats
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as parallel arrays in an .npz; names index `names`, parents
        index spans (-1 for a top-level call), `meta` is JSON with `extra`."""
        meta = dict(extra, failures={k: dict(v) for k, v in self.failures.items() if v})
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            busy=np.frombuffer(self.busy, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def layer_metrics(per_function: dict, calls: int) -> dict:
    """The per-layer metric values, per top-level call of the workload."""

    def stat(fn, key):
        return per_function.get(fn, {}).get(key, 0) / calls

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for fn, stats in PER_FUNCTION.items():
        for key in stats:
            values[f"{fn}.{key}"] = stat(fn, key)
    for fn in ("localsolve.decide_padic_solubility", "localsolve.decide_real_solubility"):
        values[f"{fn}.resolved_ratio"] = ratio(stat(fn, "yes") + stat(fn, "no"), stat(fn, "calls"))
    values["intlinalg.fincke_pohst.useful_ratio"] = ratio(
        stat("census.first_moment_dual", "primitive"), stat("intlinalg.fincke_pohst", "yielded")
    )
    values["localsolve.classify_balls.certified_ratio"] = ratio(
        stat("localsolve.classify_balls", "omega0"), stat("localsolve.classify_balls", "omega1")
    )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s["self_s"] for fn, s in per_function.items() if fn.split(".")[0] == layer
        ) / calls
    return values
