import dataclasses
import json
from fractions import Fraction

import pytest

from fanostat.census import local_census
from fanostat.cli import main
from fanostat.localsolve import AdelicTarget


def _run(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1  # one JSON object on one line
    return json.loads(out)


def test_census_command_prints_the_report_as_json(capsys):
    out = _run(capsys, ["census", "2", "3", "3/2", "3", "--xi", "3,-1,2,1", "--sigma", "1/2"])
    assert out["command"] == "census"
    assert out["params"] == {"d": 2, "n": 3, "A": "3/2", "P": 3, "xi": ["3", "-1", "2", "1"], "sigma": "1/2"}
    report = local_census(2, 3, Fraction(3, 2), 3, AdelicTarget((), (3, -1, 2, 1), Fraction(1, 2)))
    want = json.loads(json.dumps(dataclasses.asdict(report)))
    assert out["report"] == want
    assert out["wall_s"] > 0 and out["peak_rss_mb"] > 0
    # the trivial target by default
    out = _run(capsys, ["census", "3", "3", "1", "2"])
    assert out["report"]["point_decided"] == out["report"]["total_forms"] == 20
    assert out["params"]["xi"] == ["1", "0", "0", "0"] and out["params"]["sigma"] == "1"


def test_census_command_refuses_a_bad_target(capsys):
    for argv in (["census", "2", "2", "1", "2", "--xi", "1,0"], ["census", "2", "2", "1", "2", "--sigma", "2"]):
        with pytest.raises(SystemExit):
            main(argv)
