"""The benchmark's own tests, at smoke sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, CensusCap, cap_orbit, cap_reference_key, load_cap_reference, make_case  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == tracing.per_layer_metrics()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "smoke"))
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    out = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "smoke"))
    assert out["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


def test_smoke_layer_shares_follow_the_workload_design():
    def layers(name):
        case = make_case(name, 3, "smoke")
        return worker.traced(case, 0.0, None)["layers"]

    moment = layers("moment-quadric")
    lattice_core = moment["intlinalg.lll_reduce.self_s"] + moment["intlinalg.fincke_pohst.self_s"]
    assert lattice_core > 0.5 * sum(moment[f"{layer}.self_s"] for layer in tracing.LAYERS)
    census = layers("census-quadric")
    assert census["intlinalg.lll_reduce.calls"] == census["intlinalg.fincke_pohst.calls"] == 0
    assert census["localsolve.decide_real_solubility.calls"] == 0
    assert census["localsolve.decide_padic_solubility.calls"] > 0
    cap = layers("census-cap")
    assert cap["localsolve.decide_real_solubility.calls"] > 0
    predicted = layers("predicted-quadric")
    assert predicted["localsolve.classify_balls.balls"] == 2**10 + 3**10


def test_wrong_reference_counts_as_failed():
    m = worker.Measurement(make_case("moment-quadric", 0, "smoke", expected=325))
    m.once()
    assert (m.attempted, len(m.errors), m.walls) == (1, 1, [])
    summary = worker.summarize(m)
    assert summary["failed"] == 1
    with HostSpeed() as host:
        good = worker.Measurement(make_case("moment-quadric", 0, "smoke"), host)
        good.once()
    good.errors.extend(m.errors)  # one good and one failed call
    metrics = run.end_to_end_metrics(dict(worker.summarize(good), peak_rss_mb=1.0), [0.1])
    assert metrics["ok_frac"]["value"] == 0.5


def test_census_cap_answer_outside_its_reference_fails():
    case = make_case("census-cap", 5, "smoke")
    table = {}
    for (d, n, A, P), ref in zip(case.censuses, case.expected):
        table[cap_reference_key(d, n, A, P, case.xi)] = dict(ref, vloc=[0, 1])
    m = worker.Measurement(make_case("census-cap", 5, "smoke", expected=table))
    m.once()
    assert len(m.errors) == 1 and "not inside reference" in m.errors[0]


def test_cap_references_cover_every_seed():
    table = load_cap_reference()
    for xi in cap_orbit():
        for A in CensusCap.SIZES.values():
            assert cap_reference_key(2, 3, A, 3, xi) in table
        assert cap_reference_key(3, 3, 1, 2, xi) in table


def test_self_times_add_up_to_the_traced_wall_time():
    res = worker.traced(make_case("census-quadric", 0, "smoke"), 0.0, None)
    for coverage in res["self_time_coverage"]:
        assert 0.98 < coverage <= 1.0


def test_tracer_wraps_imported_names_and_restores_them():
    from fanostat import census, intlinalg, localsolve, veronese

    lll, evaluate = intlinalg.lll_reduce, veronese.evaluate_form
    assert census.lll_reduce is lll and localsolve.evaluate_form is evaluate
    with tracing.Tracer() as tr:
        assert census.lll_reduce is intlinalg.lll_reduce is not lll
        assert localsolve.evaluate_form is veronese.evaluate_form is not evaluate
        census.lll_reduce([[1, 0], [3, 1]])
        with pytest.raises(ValueError):
            veronese.evaluate_form(census.make_form(2, 1, [1, 0, 1]), (1, 2, 3))
    assert census.lll_reduce is lll and localsolve.evaluate_form is evaluate
    stats = tr.per_function()
    assert stats["intlinalg.lll_reduce"]["calls"] == 1
    assert stats["veronese.evaluate_form"]["failed"] == 1


def test_generator_span_excludes_the_consumer():
    from fanostat import intlinalg

    pause = 0.02
    with tracing.Tracer() as tr:
        items = 0
        for _vec in intlinalg.fincke_pohst([[1, 0], [0, 1]], 2):
            items += 1
            time.sleep(pause)
    assert items == 4
    stats = tr.per_function()["intlinalg.fincke_pohst"]
    assert stats["calls"] == 1 and stats["yielded"] == 4
    assert stats["self_s"] < pause


def test_host_speed_scaling_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        time.sleep(0.3)
    assert host.probes
    since = host.mark()
    host.probes += [2 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    assert host.scaled(1.0, since) == 0.5  # a host at half speed halves the time
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_refuses_a_directory_without_the_program():
    bare = ROOT / ".bench_build" / "bare-check"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("--workload", "census-quadric", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
