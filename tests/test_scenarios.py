"""The scenario files of tests/scenarios, run as the `envelope` console
script runs them (cli.main): each validates, and two runs with --out write
reports that parse as strict JSON, echo the scenario file as read and are
equal apart from timings. Each scenario then makes its own assertions.

- annulus, curve: the README scenarios.
- pole60: a pole of order 60 in the annulus's hole gives max_order 59.
- holes3: a disc with three circle holes, whose Laurent tails, exact
  components and extension contours each share a stacked integral, while
  each moment table is integrated on its own basis curve. Every row is ok,
  and the checks run in one fixed order whatever the order listed: with
  its checks reversed it reports each check's row as the forward run does.
  Its points in holes go straight to their circles, so a run builds one
  chord kernel (the joined basis curves' of the probes) and makes five
  passes of the kernels.
- slab: a slab hole beside a circle hole, where no circle separates the
  slab, so its basis curves are dilations checked by
  DomainSpec.contains_path and the gap code. Every row is ok and
  cross_verify reads every order.
- dhole: a "D" hole given as serialized segments (a half circle of radius
  0.5 and the line back) beside a circle hole. Every row is ok.
- lhole: an L-shaped hole with a circle hole in its notch, whose dilations
  cut the L's concave corner (geometry._crossing, one call each for the
  0.5 and the 0.3 dilation) and whose probe rings are moved basis curve
  points. Every row is ok, cross_verify reads every order, and the
  scenario makes two _crossing calls.
- chole: two C-shaped holes, arcs of radius 0.8 and 0.64 joined at their
  ends, whose sample centroids lie in their notches, so both witnesses
  are interior_point's. Every row is ok, and each hole's circles are
  centred at its witness.
- csvcurve: a curve read from circle.csv, 257 rows of the uniform unit
  circle with data z^2. Its chord-arc constant is that of its 256 chords,
  128 sin(pi/256).

Each file of invalid/ fails validation with exit 1 and exactly its own
diagnostics:

- csvsamples: the CSV curve given samples.
- badfunction: a function that does not parse beside a path curve, which
  needs one; the parse error is its only diagnostic.
"""

import json
import math
from pathlib import Path

import pytest

from envelope import cli
from envelope import geometry as geom

SCENARIOS = Path(__file__).resolve().parent / "scenarios"


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity constants."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _run(scenario: Path, out: Path) -> dict:
    assert cli.main(["run", "--scenario", str(scenario), "--out",
                     str(out)]) == 0
    return _strict_json(out.read_text())


def _all_ok(report, all_orders=False):
    rows = report["results"]
    assert [r["status"] for r in rows] == ["ok"] * 4, rows
    if all_orders:
        assert rows[3]["check"] == "cross_verify", rows
        assert rows[3]["values"]["all_orders"] is True, rows


def _pole60(report, scenario, tmp_path, monkeypatch):
    row = report["results"][0]
    assert row["values"]["max_order"] == 59, row


def _holes3(report, scenario, tmp_path, monkeypatch):
    _all_ok(report)
    raw = json.loads(scenario.read_text())
    raw["checks"].reverse()
    reversed_scenario = tmp_path / "holes3rev.json"
    reversed_scenario.write_text(json.dumps(raw))
    forward = report["results"]
    reverse = _run(reversed_scenario, tmp_path / "holes3rev.report.json")[
        "results"]
    assert [r["check"] for r in reverse] \
        == [r["check"] for r in reversed(forward)], reverse
    assert list(reversed(forward)) == reverse, "rows differ"
    passes, builds = [], []
    kernel, build = geom.Chords._pass, geom.Chords.__init__

    def counted_pass(chords, points, wound):
        passes.append(wound)
        return kernel(chords, points, wound)

    def counted_build(chords, *args):
        builds.append(args)
        build(chords, *args)

    config, _ = cli.build_config(json.loads(scenario.read_text()),
                                 scenario.parent)
    monkeypatch.setattr(geom.Chords, "_pass", counted_pass)
    monkeypatch.setattr(geom.Chords, "__init__", counted_build)
    assert cli.run_scenario(config).exit_code == 0
    assert (len(passes), len(builds)) == (5, 1)


def _lhole(report, scenario, tmp_path, monkeypatch):
    _all_ok(report, all_orders=True)
    calls, crossing = [], geom._crossing

    def counted(*args):
        calls.append(args)
        return crossing(*args)

    monkeypatch.setattr(geom, "_crossing", counted)
    config, _ = cli.build_config(json.loads(scenario.read_text()),
                                 scenario.parent)
    assert cli.run_scenario(config).exit_code == 0
    assert len(calls) == 2, calls


def _chole(report, scenario, tmp_path, monkeypatch):
    _all_ok(report)
    config, _ = cli.build_config(json.loads(scenario.read_text()),
                                 scenario.parent)
    domain = config.domain
    assert domain.witnesses == tuple(complex(geom.interior_point(h))
                                     for h in domain.holes)
    for witness, circles in zip(domain.witnesses,
                                geom._hole_rules(domain)):
        assert circles
        assert all(c.segments[0].center == witness for c in circles)


def _csvcurve(report, scenario, tmp_path, monkeypatch):
    row = report["results"][2]
    want = 128 * math.sin(math.pi / 256)
    assert row["check"] == "chord_arc", row
    assert abs(row["values"]["constant"] - want) <= 1e-12, row


CHECKS = {
    "annulus": None,
    "curve": None,
    "pole60": _pole60,
    "holes3": _holes3,
    "slab": lambda report, *_: _all_ok(report, all_orders=True),
    "dhole": lambda report, *_: _all_ok(report),
    "lhole": _lhole,
    "chole": _chole,
    "csvcurve": _csvcurve,
}


def test_every_scenario_file_is_run():
    assert sorted(path.stem for path in SCENARIOS.glob("*.json")) \
        == sorted(CHECKS)


@pytest.mark.parametrize("name", list(CHECKS))
def test_scenario(tmp_path, monkeypatch, capsys, name):
    scenario = SCENARIOS / f"{name}.json"
    assert cli.main(["validate", "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().out.splitlines() == ["scenario is runnable"]
    raw = _strict_json(scenario.read_text())
    reports = [_run(scenario, tmp_path / f"report{run}.json")
               for run in (1, 2)]
    for report in reports:
        report.pop("timings")
        assert report["scenario"] == raw, "scenario is not the file"
    assert reports[0] == reports[1], "reports differ"
    if CHECKS[name] is not None:
        CHECKS[name](reports[0], scenario, tmp_path, monkeypatch)


INVALID = {
    "csvsamples": ["curve.samples: a csv curve takes no samples (its rows "
                   "are its samples)"],
    "badfunction": ["function: expected 'z', a number, '(' or 'exp', found "
                    "'end of input' (at position 3)"],
}


def test_every_invalid_file_is_checked():
    assert sorted(path.stem for path in (SCENARIOS / "invalid").glob(
        "*.json")) == sorted(INVALID)


@pytest.mark.parametrize("name", list(INVALID))
def test_an_invalid_scenario_fails_validation(capsys, name):
    invalid = SCENARIOS / "invalid" / f"{name}.json"
    assert cli.main(["validate", "--scenario", str(invalid)]) == 1
    assert capsys.readouterr().out.splitlines() == INVALID[name]
