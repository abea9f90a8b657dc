"""Scenario parsing, report rendering and the command line entry point."""

import copy
import dataclasses
import gc
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envelope import boundary, cli, errors, expr, moments, quadrature
from envelope import extension as ext
from envelope import geometry as geom


ANNULUS = {
    "outer": {"circle": {"center": [0.0, 0.0], "radius": 2.0}},
    "holes": [{"circle": {"center": [0.0, 0.0], "radius": 0.5}}],
}


TWO_HOLES = {
    "outer": {"circle": {"center": [1.5, 0.0], "radius": 4.0}},
    "holes": [{"circle": {"center": [0.0, 0.0], "radius": 0.5}},
              {"circle": {"center": [3.0, 0.0], "radius": 0.5}}],
}


def circle_csv(intervals=128, data="conj"):
    t = np.linspace(0.0, 1.0, intervals + 1)
    z = np.exp(2j * math.pi * t)
    z[-1] = z[0]
    g = np.conj(z) if data == "conj" else z
    lines = []
    for row in zip(t, z.real, z.imag, g.real, g.imag):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity constants."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def write_scenario(tmp_path, raw, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


class TestValidate:
    def test_runnable_scenario_passes(self):
        raw = {"function": "1/z^2", "domain": ANNULUS,
               "checks": ["primitive_order"]}
        assert cli.validate(raw) == []

    def test_domain_check_needs_function(self):
        raw = {"domain": ANNULUS, "checks": ["moments"]}
        diags = cli.validate(raw)
        assert any("'moments' needs a function" in d for d in diags)

    def test_curve_check_needs_curve(self):
        raw = {"function": "z", "checks": ["boundary_tower"]}
        diags = cli.validate(raw)
        assert any("'boundary_tower' needs a curve" in d for d in diags)

    def test_unknown_check_is_reported(self):
        raw = {"function": "z", "domain": ANNULUS, "checks": ["sorcery"]}
        diags = cli.validate(raw)
        assert any("unknown check 'sorcery'" in d for d in diags)

    def test_repeated_check_is_reported(self):
        # a second run would overwrite the first one's timing
        raw = {"function": "z", "domain": ANNULUS,
               "checks": ["moments", "cauchy", "moments", "moments"]}
        assert [d for d in cli.validate(raw) if "times" in d] == [
            "checks: 'moments' listed 3 times (each check runs once)"]

    def test_bad_max_degree(self):
        raw = {"function": "1/z", "domain": ANNULUS,
               "checks": ["moments"], "max_degree": -1}
        diags = cli.validate(raw)
        assert any(d.startswith("max_degree:") for d in diags)

    def test_parse_error_carries_field_path(self):
        raw = {"function": "1/(z-", "domain": ANNULUS,
               "checks": ["moments"]}
        diags = cli.validate(raw)
        assert any(d.startswith("function:") for d in diags)

    def test_bad_polygon_path(self):
        raw = {"function": "z", "checks": ["moments"],
               "domain": {"outer": {"polygon": {"vertices": [[0, 0],
                                                             [1, 0]]}}}}
        diags = cli.validate(raw)
        assert any("domain.outer.polygon" in d for d in diags)

    def test_cauchy_requires_points(self, tmp_path):
        (tmp_path / "c.csv").write_text(circle_csv())
        raw = {"checks": ["cauchy"], "curve": {"csv": "c.csv"}}
        diags = cli.validate(raw, tmp_path)
        assert any(d.startswith("points:") for d in diags)

    def test_radii_order_checked(self, tmp_path):
        (tmp_path / "c.csv").write_text(circle_csv())
        raw = {"checks": ["chord_arc"], "curve": {"csv": "c.csv"},
               "radii": [1e-3, 1e-2]}
        diags = cli.validate(raw, tmp_path)
        assert any("radii: must decrease" in d for d in diags)

    def test_missing_csv_reported_with_path(self, tmp_path):
        raw = {"checks": ["chord_arc"], "curve": {"csv": "absent.csv"}}
        diags = cli.validate(raw, tmp_path)
        assert any(d.startswith("curve.csv: file not found") for d in diags)

    def test_non_object_scenario(self):
        assert cli.validate([1, 2, 3]) == ["scenario: expected a JSON object"]

    @pytest.mark.parametrize("raw, field", [
        ({"domain": {"outer": {"circle": 5}}}, "domain.outer.circle:"),
        ({"domain": {"outer": {"polygon": [[0, 0], [1, 0], [0, 1]]}}},
         "domain.outer.polygon:"),
        ({"domain": {"outer": {"polygon": {"vertices": 5}}}},
         "domain.outer.polygon.vertices:"),
        ({"domain": {**ANNULUS, "holes": 5}}, "domain.holes:"),
        ({"domain": {"holes": [{"segments": [5]}]}}, "domain.holes[0]:"),
        ({"curve": {"csv": 5}}, "curve.csv:"),
        ({"curve": {"csv": ""}}, "curve.csv:"),
        ({"domain": {"outer": 5}}, "domain.outer: expected an object"),
        ({"domain": {"holes": [5]}}, "domain.holes[0]: expected an object"),
    ])
    def test_wrong_shapes_get_field_diagnostics(self, tmp_path, raw, field):
        raw = {"function": "z", "checks": ["moments"], **raw}
        diags = cli.validate(raw, tmp_path)
        assert any(d.startswith(field) for d in diags), diags

    @pytest.mark.parametrize("change, field", [
        ({"max_degree": True}, "max_degree:"),
        ({"max_degree": math.nan}, "max_degree:"),
        ({"tower_levels": True}, "tower_levels:"),
        ({"node_index": False}, "node_index:"),
        ({"tolerances": {"abs": True}}, "tolerances.abs:"),
        ({"tolerances": {"rel": math.nan}}, "tolerances.rel:"),
        ({"tolerances": {"quadrature": math.inf}}, "tolerances.quadrature:"),
        ({"points": [[True, False]]}, "points[0]:"),
        ({"points": [[0.1, math.nan]]}, "points[0]:"),
        ({"radii": [math.inf, 1e-3]}, "radii:"),
        ({"radii": [math.nan]}, "radii:"),
        ({"domain": {"holes": [{"circle": {"radius": math.nan}}]}},
         "domain.holes[0].circle.radius:"),
        ({"domain": {"holes": [{"circle": {"radius": True}}]}},
         "domain.holes[0].circle.radius:"),
        ({"domain": {"holes": [{"circle": {"center": [True, 0],
                                           "radius": 0.5}}]}},
         "domain.holes[0].circle.center:"),
        ({"domain": {"holes": [{"segments": [
            {"kind": "arc", "center": [0, 0], "r": math.inf, "t0": 0,
             "t1": 0, "ccw": True}]}]}}, "domain.holes[0]:"),
        ({"domain": {"holes": [{"segments": [
            {"kind": "arc", "center": [True, False], "r": 0.5, "t0": 0,
             "t1": 0, "ccw": True}]}]}}, "domain.holes[0]:"),
        ({"curve": {"path": {"circle": {"radius": 1}}, "samples": True}},
         "curve.samples:"),
        ({"curve": {"path": {"circle": {"radius": 1}}, "warp": math.nan}},
         "curve.warp:"),
        # without a curve, a node index past any curve's nodes
        ({"node_index": 2 ** 16}, "node_index:"),
    ])
    def test_numbers_that_are_not_numbers(self, change, field):
        # json reads true as 1 and reads NaN and Infinity; none is a number
        raw = {"function": "1/z^2", "domain": ANNULUS,
               "checks": ["moments"], **change}
        diags = cli.validate(raw)
        assert any(d.startswith(field) for d in diags), diags

    @pytest.mark.parametrize("node_index, diags", [
        (500, ["node_index: must lie in [0, 63]"]), (63, []), (None, [])])
    def test_node_index_is_a_node_of_the_curve(self, tmp_path, capsys,
                                               node_index, diags):
        # a node the curve does not have used to validate, and then give
        # an error row in each of the two checks that read it
        raw = {"function": "z^2",
               "curve": {"path": {"circle": {"radius": 1}}, "samples": 64},
               "checks": ["nontangential", "chord_arc"],
               "node_index": node_index}
        assert cli.validate(raw) == diags
        scenario = write_scenario(tmp_path, raw)
        assert cli.main(["validate", "--scenario", str(scenario)]) \
            == (1 if diags else 0)
        assert capsys.readouterr().out.splitlines() \
            == (diags or ["scenario is runnable"])

    @pytest.mark.parametrize("ccw", ["no", [0], 1, 0, None])
    def test_circle_ccw_must_be_a_boolean(self, ccw):
        # bool("no") and bool([0]) used to orient the circle
        # counter-clockwise
        domain = {**ANNULUS, "holes": [
            {"circle": {"center": [0.0, 0.0], "radius": 0.5, "ccw": ccw}}]}
        diags = cli.validate({"function": "z", "domain": domain,
                              "checks": ["moments"]})
        assert diags[0] == "domain.holes[0].circle.ccw: true or false required"

    @pytest.mark.parametrize("ccw", ["no", [0], 1, 0, None])
    def test_arc_ccw_must_be_a_boolean(self, ccw):
        arc = {"kind": "arc", "center": [0, 0], "r": 0.5, "t0": 0, "t1": 0}
        for value in (True, False):
            assert geom.segment_from_json({**arc, "ccw": value}).ccw is value
        for bad in ({**arc, "ccw": ccw}, arc):
            domain = {**ANNULUS, "holes": [{"segments": [bad]}]}
            diags = cli.validate({"function": "z", "domain": domain,
                                  "checks": ["moments"]})
            assert diags[0].startswith("domain.holes[0]: arc segment:")
            assert diags[0].endswith("ccw true or false")

    # every optional field, by its path in the scenario
    @pytest.mark.parametrize("where", [
        ("max_degree",), ("tower_levels",), ("points",), ("node_index",),
        ("radii",), ("tolerances",), ("tolerances", "abs"),
        ("tolerances", "rel"), ("tolerances", "quadrature"),
        ("domain", "outer"), ("domain", "holes"),
        ("domain", "holes", 0, "circle", "center"), ("curve", "samples"),
        ("curve", "warp"), ("curve", "path", "circle", "center")])
    def test_null_reads_as_absent(self, where):
        # a null field used to be refused where other fields read it as
        # their default (radii: list of positive numbers required)
        raw = {"function": "z^2",
               "domain": {"outer": {"circle": {"center": [0.0, 0.0],
                                               "radius": 2.0}},
                          "holes": [{"circle": {"center": [0.1, 0.0],
                                                "radius": 0.5}}]},
               "curve": {"path": {"circle": {"center": [0.0, 0.1],
                                             "radius": 1.0}},
                         "samples": 32, "warp": 0.2},
               "checks": ["moments", "extension", "boundary_tower",
                          "nontangential", "chord_arc"],
               "max_degree": 3, "tower_levels": 2, "points": [[0.9, 0.2]],
               "node_index": 5, "radii": [1e-2, 1e-3],
               "tolerances": {"abs": 1e-8, "rel": 1e-9,
                              "quadrature": 1e-10}}
        reports = []
        for null in (True, False):
            scenario = json.loads(json.dumps(raw))
            node = scenario
            for key in where[:-1]:
                node = node[key]
            if null:
                node[where[-1]] = None
            else:
                del node[where[-1]]
            config, diags = cli.build_config(scenario)
            assert diags == []
            reports.append(json.loads(cli.run_scenario(config).to_json()))
        null, absent = reports
        assert null["results"] == absent["results"]

    @pytest.mark.parametrize("change, field", [
        # the radius used to be blamed as well as the centre, and a bad
        # domain, function or curve added that a check needs one
        ({"domain": {"holes": [{"circle": {"center": [0], "radius": 2}}]}},
         "domain.holes[0].circle.center:"),
        ({"domain": {"holes": [{"circle": {"center": [0, 0],
                                           "radius": -2}}]}},
         "domain.holes[0].circle.radius:"),
        ({"function": "z +"}, "function:"),
        ({"checks": ["chord_arc"], "curve": {"csv": 5}}, "curve.csv:"),
        # a path curve given a function that is refused added that it
        # needs a function
        ({"function": "z +", "checks": ["chord_arc"],
          "curve": {"path": {"circle": {"radius": 1}}, "samples": 64}},
         "function:"),
        ({"function": 5, "checks": ["chord_arc"],
          "curve": {"path": {"circle": {"radius": 1}}, "samples": 64}},
         "function: expected an expression string")])
    def test_one_diagnostic_per_problem(self, change, field):
        raw = {"function": "z", "domain": ANNULUS, "checks": ["moments"],
               **change}
        diags = cli.validate(raw)
        assert len(diags) == 1 and diags[0].startswith(field), diags

    @pytest.mark.parametrize("big", [1.34e154, 1e200, -2e150])
    def test_coordinates_beyond_the_bound_are_refused(self, big):
        # a polygon vertex at 1.34e154 overflowed the squared distances of
        # the geometry kernel; the suite turns that warning into an error
        bound = f"{geom.MAX_COORDINATE:g}"
        arc = {"kind": "arc", "center": [0, 0], "r": 0.5, "t0": 0, "t1": 0,
               "ccw": True}
        cases = [
            ({"polygon": {"vertices": [[0, 0], [big, 0], [0, 1]]}},
             "domain.holes[0].polygon.vertices[1]:"),
            ({"circle": {"center": [0, big], "radius": 0.5}},
             "domain.holes[0].circle.center:"),
            ({"circle": {"center": [0, 0], "radius": abs(big)}},
             "domain.holes[0].circle.radius:"),
            ({"segments": [{**arc, "r": abs(big)}]}, "domain.holes[0]:"),
            ({"segments": [{**arc, "center": [big, 0]}]}, "domain.holes[0]:"),
        ]
        for hole, field in cases:
            diags = cli.validate({"function": "z", "checks": ["moments"],
                                  "domain": {"holes": [hole]}})
            assert diags[0].startswith(field) and bound in diags[0], diags
        diags = cli.validate({"function": "z", "checks": ["cauchy"],
                              "curve": {"path": {"circle": {"radius": 1}}},
                              "points": [[0.1, big]]})
        assert diags[0].startswith("points[0]:") and bound in diags[0]

    def test_coordinates_at_the_bound_are_read(self):
        big = geom.MAX_COORDINATE
        domain = {"outer": {"circle": {"center": [0, 0], "radius": big}},
                  "holes": [{"polygon": {"vertices": [
                      [0.5 * big, 0], [0, 0.5 * big], [-0.5 * big, 0]]}}]}
        assert cli.validate({"function": "z", "checks": ["moments"],
                             "domain": domain}) == []

    def test_sample_count_is_capped(self):
        raw = {"function": "z", "checks": ["boundary_tower"],
               "curve": {"path": {"circle": {"radius": 1}}}}
        assert cli.validate({**raw, "curve": {**raw["curve"],
                                              "samples": 2 ** 16}}) == []
        diags = cli.validate({**raw, "curve": {**raw["curve"],
                                               "samples": 2 ** 16 + 1}})
        assert diags == ["curve.samples: must lie in [16, 65536]"]

    def test_non_finite_csv_sample_is_diagnosed(self, tmp_path):
        rows = circle_csv(64).splitlines()
        for column in (1, 3):  # a node column, then a data column
            bad = rows[5].split(",")
            bad[column] = "nan"
            (tmp_path / "c.csv").write_text(
                "\n".join(rows[:5] + [",".join(bad)] + rows[6:]) + "\n")
            diags = cli.validate({"checks": ["boundary_tower"],
                                  "curve": {"csv": "c.csv"}}, tmp_path)
            assert diags[0] == ("curve.csv: params, points and values must "
                                "be finite")


def _field_paths(node, prefix=()):
    """Key path of every field of a JSON tree, nested ones included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _valid_scenarios():
    """Scenarios that build, between them naming every field."""
    full = {
        "function": "1/z^2 + exp(z)", "domain": {
            "outer": {"circle": {"center": [0.0, 0.0], "radius": 2.0,
                                 "ccw": True}},
            "holes": [{"circle": {"center": [0.0, 0.0], "radius": 0.5}},
                      {"polygon": {"vertices": [[1.0, 0.0], [1.4, 0.0],
                                                [1.2, 0.3]]}}]},
        "curve": {"path": {"segments": geom.path_to_json(
            geom.circle(0.1j, 1.0))}, "samples": 64, "warp": 0.3},
        "checks": ["moments", "cross_verify", "boundary_tower", "cauchy"],
        "max_degree": 4, "tower_levels": 3,
        "points": [[0.0, 0.1], [0.2, 0.0]], "node_index": 2,
        "radii": [0.1, 0.01], "tolerances": {"abs": 1e-9, "rel": 1e-10,
                                             "quadrature": 1e-12},
    }
    csv = {"checks": ["chord_arc"], "curve": {"csv": "c.csv"}}
    return full, csv


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("csv")
    (directory / "c.csv").write_text(circle_csv(64))
    return directory


@given(data=st.data(), value=_JSON)
def test_any_json_in_any_field_gives_diagnostics(csv_dir, data, value):
    """build_config never raises: a scenario with an arbitrary JSON value
    in one of its fields builds, or gets diagnostics."""
    base = data.draw(st.sampled_from(_valid_scenarios()))
    assert cli.build_config(base, csv_dir)[1] == []
    path = data.draw(st.sampled_from(list(_field_paths(base))))
    raw = copy.deepcopy(base)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config, diags = cli.build_config(raw, csv_dir)
    assert (config is None) == bool(diags)


class TestBuildConfig:
    def test_defaults(self):
        raw = {"function": "z", "domain": ANNULUS, "checks": ["moments"]}
        cfg, _ = cli.build_config(raw)
        assert cfg.zero_tol.abs_tol == 1e-9
        assert cfg.zero_tol.rel_tol == 1e-10
        assert cfg.quad_tol == quadrature.DEFAULT_TOL
        assert cfg.radii == boundary.NONTANGENTIAL_RADII


class TestReport:
    def rows(self, *statuses):
        return tuple({"check": f"c{i}", "status": s, "values": {"x": 1},
                      "tolerance_used": {}}
                     for i, s in enumerate(statuses))

    def test_exit_codes(self):
        mk = lambda *s: cli.Report("0", {}, self.rows(*s),
                                   {"total_s": 0.0}).exit_code
        assert mk("ok", "ok") == 0
        assert mk("ok", "inconsistent") == 2
        assert mk("inconsistent", "error") == 1
        assert mk("error",) == 1

    def test_json_serializes_complex_and_arrays(self):
        rows = ({"check": "c", "status": "ok",
                 "values": {"z": 1 + 2j, "arr": np.array([1.0, 2.0]),
                            "bad": float("inf")},
                 "tolerance_used": {}},)
        rep = cli.Report("0", {}, rows, {"total_s": 0.0})
        payload = json.loads(rep.to_json())
        vals = payload["results"][0]["values"]
        assert vals["z"] == [1.0, 2.0]
        assert vals["arr"] == [1.0, 2.0]
        assert vals["bad"] == "inf"

    def test_json_is_strict_for_numpy_and_complex_values(self):
        # numpy floats and complex parts that are not finite render as
        # Python floats do, so no bare NaN or Infinity reaches the text
        rows = ({"check": "c", "status": "ok",
                 "values": {"nan": np.float64("nan"),
                            "z": complex("nan+1j"),
                            "inf": np.float64("inf"),
                            "w": np.complex128(complex(1.0, -math.inf))},
                 "tolerance_used": {}},)
        rep = cli.Report("0", {}, rows, {"total_s": 0.0})
        vals = _strict_json(rep.to_json())["results"][0]["values"]
        assert vals == {"nan": "nan", "z": ["nan", 1.0], "inf": "inf",
                        "w": [1.0, "-inf"]}

    def test_text_format_lists_checks(self):
        rep = cli.Report("0", {}, self.rows("ok", "inconsistent"),
                         {"total_s": 0.25})
        text = rep.to_text()
        assert "[ok] c0" in text
        assert "[inconsistent] c1" in text
        assert "total time" in text


class TestRunScenario:
    def test_primitive_order_values(self):
        raw = {"function": "1/z^2", "domain": ANNULUS,
               "checks": ["primitive_order"], "max_degree": 8}
        cfg, diags = cli.build_config(raw)
        assert diags == []
        rep = cli.run_scenario(cfg)
        assert rep.exit_code == 0
        row = rep.results[0]
        assert row["check"] == "primitive_order"
        assert row["status"] == "ok"
        assert row["values"]["max_order"] == 1
        assert row["values"]["all_orders"] is False

    def test_error_row_does_not_stop_later_checks(self, tmp_path):
        # 16 intervals is enough for the tower but not for chord-arc
        (tmp_path / "c.csv").write_text(circle_csv(16))
        raw = {"checks": ["chord_arc", "boundary_tower"],
               "curve": {"csv": "c.csv"}}
        cfg, diags = cli.build_config(raw, tmp_path)
        assert diags == []
        rep = cli.run_scenario(cfg)
        assert rep.results[0]["status"] == "error"
        assert "error_type" in rep.results[0]["values"]
        assert rep.results[1]["status"] == "ok"
        assert rep.exit_code == 1

    def test_domain_checks_share_one_moment_scan(self, monkeypatch):
        calls = []
        scan = moments.max_primitive_order

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(moments, "max_primitive_order", counted)
        raw = {"function": "1/(z-5)", "domain": ANNULUS, "max_degree": 4,
               "checks": ["moments", "primitive_order", "extension",
                          "cross_verify"]}
        cfg, _ = cli.build_config(raw)
        rep = cli.run_scenario(cfg)
        assert [r["status"] for r in rep.results] == ["ok"] * 4
        assert len(calls) == 1
        # a scan that raises runs once too, and every check that needs it
        # reports that one error
        cfg, _ = cli.build_config({**raw, "function": "1/(z-1)"})
        rows = cli.run_scenario(cfg).results[1:]
        assert len(calls) == 2
        assert [r["status"] for r in rows] == ["error"] * 3
        assert rows[0]["values"]["error_type"] == "PoleInDomainError"
        assert rows[0]["values"] == rows[1]["values"] == rows[2]["values"]

    def test_domain_checks_find_the_poles_once(self, monkeypatch):
        calls = []
        pole_set = expr.pole_set

        def counted(node):
            calls.append(node)
            return pole_set(node)

        monkeypatch.setattr(expr, "pole_set", counted)
        raw = {"function": "1/(z-5) + 0.5/(z-0.1)^2", "domain": ANNULUS,
               "max_degree": 4, "checks": ["moments", "primitive_order",
                                           "extension", "cross_verify"]}
        cfg, _ = cli.build_config(raw)
        rep = cli.run_scenario(cfg)
        assert [r["status"] for r in rep.results] == ["ok"] * 4
        assert len(calls) == 1

    @pytest.mark.parametrize("checks", [
        list(cli.DOMAIN_CHECKS), list(reversed(cli.DOMAIN_CHECKS)),
        ["cross_verify", "moments", "extension", "primitive_order"]])
    def test_moments_row_reads_the_verdict_integrals(self, monkeypatch,
                                                     checks):
        # without max_degree the moments row reads degree 32 and the
        # verdict degree 8, both from one table of degree 32 per curve
        self._rows_share_the_tables(monkeypatch, "1/z^2 + 1/(z-3)^3",
                                    TWO_HOLES, checks, 8, 2)

    @pytest.mark.parametrize("checks", [["primitive_order", "moments"],
                                        ["moments", "primitive_order"]])
    def test_a_verdict_past_the_moments_degree_has_its_own_table(
            self, monkeypatch, checks):
        # a pole of order 40: the verdict scans through 40, past the
        # moments row's 32. The moments check runs first, and its table
        # cannot serve the verdict, so the one basis curve is integrated
        # at 32 and at 40; one table would need the checks out of order
        self._rows_share_the_tables(monkeypatch, "1/(z-0.1)^40", ANNULUS,
                                    checks, 40, 2)

    @staticmethod
    def _rows_share_the_tables(monkeypatch, function, domain, checks,
                               through, integrals):
        calls = []
        vector = moments.moment_vector

        def counted(f, path, *args, **kwargs):
            calls.append(path)
            return vector(f, path, *args, **kwargs)

        def rows_by_check(raw):
            cfg, _ = cli.build_config(raw)
            rep = json.loads(cli.run_scenario(cfg).to_json())
            assert [r["check"] for r in rep["results"]] == raw["checks"]
            assert list(rep["timings"]) == raw["checks"] + ["total_s"]
            return {r["check"]: r for r in rep["results"]}

        monkeypatch.setattr(moments, "moment_vector", counted)
        curves = len(domain["holes"])
        for max_degree in (4, None):
            calls.clear()
            raw = {"function": function, "max_degree": max_degree,
                   "domain": domain, "checks": checks}
            rows = rows_by_check(raw)
            assert [r["status"] for r in rows.values()] == \
                ["ok"] * len(checks)
            # one integral per basis curve, shared by every row, unless the
            # verdict reads past the moments row's degree
            assert len({id(path) for path in calls}) == curves
            assert len(calls) == (integrals if max_degree is None
                                  else curves)
            # every order of the checks gives the same rows
            assert rows == rows_by_check(
                {**raw, "checks": sorted(checks, key=cli.ALL_CHECKS.index)})
            rows = {check: row["values"] for check, row in rows.items()}
            assert rows["moments"]["degree_cutoff"] == \
                (max_degree or moments.DEFAULT_DEGREE_CUTOFF)
            assert rows["primitive_order"]["tested_through"] == \
                (max_degree or through)
            fresh, _ = cli.build_config(raw)
            alone = moments.max_primitive_order(fresh.function, fresh.domain,
                                                max_degree)
            assert rows["primitive_order"]["per_curve_first_nonzero"] == \
                list(alone.per_curve_first_nonzero)

    def test_a_failed_table_is_integrated_once(self, monkeypatch):
        # at radius 1.6e10 from the basis circle's centre the degree-31
        # power overflows: the table of degree 32 fails once, and both
        # rows report that one error; a lower degree still integrates
        degrees = []
        vector = moments.moment_vector

        def counted(f, path, degree, *args, **kwargs):
            degrees.append(degree)
            return vector(f, path, degree, *args, **kwargs)

        monkeypatch.setattr(moments, "moment_vector", counted)
        raw = {"function": "1/(z-1e10)^2", "max_degree": 32,
               "domain": {"outer": {"circle": {"center": [0, 0],
                                               "radius": 2e10}},
                          "holes": [{"circle": {"center": [0, 0],
                                                "radius": 1.2e10}}]},
               "checks": ["moments", "primitive_order"]}
        cfg, _ = cli.build_config(raw)
        rows = cli.run_scenario(cfg).results
        assert degrees == [32]
        assert [r["status"] for r in rows] == ["error", "error"]
        assert rows[0]["values"] == rows[1]["values"] == {
            "error": "moment degree 31 overflows: (z - center)^31 f(z) "
                     "leaves the float range where the path reaches "
                     "max|z - center| = 1.6e+10",
            "error_type": "GeometryError"}
        low = moments._basis_moments(cfg.function, cfg.domain, 8,
                                     cfg.quad_tol)
        assert degrees == [32, 8] and len(low[0].values) == 9
        with pytest.raises(errors.GeometryError,
                           match="degree 31 overflows"):
            moments._basis_moments(cfg.function, cfg.domain, 32,
                                   cfg.quad_tol)
        assert degrees == [32, 8]

    def test_checks_sample_each_magnitude_once(self, monkeypatch):
        # the moment vectors of a scenario, whose scales the Laurent tails
        # read too, scan the magnitude once per (f, basis curve)
        calls = []
        scan = quadrature.max_magnitude_on

        def counted(fn, path):
            calls.append((fn, path))
            return scan(fn, path)

        monkeypatch.setattr(quadrature, "max_magnitude_on", counted)
        raw = {"function": "1/z^2 + 1/(z-3)^3", "domain": TWO_HOLES,
               "checks": ["moments", "primitive_order", "extension",
                          "cross_verify"]}
        cfg, _ = cli.build_config(raw)
        rep = cli.run_scenario(cfg)
        assert [r["status"] for r in rep.results] == ["ok"] * 4
        assert len(calls) == 2 and calls[0][1] != calls[1][1]

    def test_a_scenario_keeps_nothing_alive(self):
        # what the checks learn lives on the scenario's domain and curves,
        # so the expression and the domain go with the config
        raw = {"function": "1/z^2 + 1/(z-3)^3 + 0.25",
               "domain": TWO_HOLES,
               "checks": ["moments", "primitive_order", "extension",
                          "cross_verify"]}
        cfg, _ = cli.build_config(raw)
        assert cli.run_scenario(cfg).exit_code == 0
        kept = weakref.ref(cfg.function), weakref.ref(cfg.domain)
        del cfg
        gc.collect()
        assert [ref() for ref in kept] == [None, None]

    def test_a_failed_contour_is_built_once(self, monkeypatch):
        # a hole 2e-5 inside the outer circle, at radius 1000: no circle
        # clears the bands and the dilation fails its check; the error is
        # kept on the domain, so every check reports it from one attempt
        calls = []
        dilated = geom._dilated_hole

        def counted(hole, d):
            calls.append(d)
            return dilated(hole, d)

        monkeypatch.setattr(geom, "_dilated_hole", counted)
        raw = {"function": "1/z^2",
               "domain": {"outer": {"circle": {"center": [0, 0],
                                               "radius": 1000 + 2e-5}},
                          "holes": [{"circle": {"center": [0, 0],
                                                "radius": 1000}}]},
               "checks": ["moments", "primitive_order", "extension",
                          "cross_verify"]}
        cfg, _ = cli.build_config(raw)
        rows = cli.run_scenario(cfg).results
        assert len(calls) == 1
        assert [r["status"] for r in rows] == ["error"] * 4
        assert all(r["values"]["error"].startswith(
            "could not construct a separating basis curve for hole 0")
            for r in rows)

    def test_a_kept_error_has_a_bounded_traceback(self):
        # primitive_order raises the ring's contour error through the
        # verdict, and every later check raises the kept error again; each
        # such raise starts a new traceback, so its frames do not pile up
        # with the checks: cross_verify leaves as many after two checks as
        # after four
        def frames(checks):
            raw = {"function": "1/z^2", "checks": checks,
                   "domain": {"outer": {"circle": {"center": [0, 0],
                                                   "radius": 1000 + 2e-5}},
                              "holes": [{"circle": {"center": [0, 0],
                                                    "radius": 1000}}]}}
            cfg, _ = cli.build_config(raw)
            assert cli.run_scenario(cfg).exit_code == 1
            counts = []
            for _, value in vars(cfg.domain)["_memo"].values():
                if isinstance(value, errors.EnvelopeError):
                    tb, count = value.__traceback__, 0
                    while tb is not None:
                        tb, count = tb.tb_next, count + 1
                    counts.append(count)
            assert counts
            return max(counts)

        assert frames(["primitive_order", "cross_verify"]) == frames(
            ["moments", "primitive_order", "extension", "cross_verify"])

    def test_the_first_raise_of_a_kept_error_reaches_its_source(self):
        ring = geom.DomainSpec(geom.circle(0j, 1000 + 2e-5),
                               (geom.circle(0j, 1000),))
        with pytest.raises(errors.GeometryError) as first:
            geom.homology_basis(ring)
        with pytest.raises(errors.GeometryError) as again:
            geom.homology_basis(ring)
        assert again.value is first.value
        assert "_contour" in [entry.name for entry in first.traceback]
        assert "_contour" not in [entry.name for entry in again.traceback]

    def test_extension_checks_classify_each_point_set_once(self,
                                                           monkeypatch):
        # both contours of the extension check, and of cross_verify's
        # extension route, come from one classify pass over their points
        calls = []
        classify = geom.classify

        def counted(domain, points):
            calls.append(tuple(np.ravel(points).tolist()))
            return classify(domain, points)

        monkeypatch.setattr(geom, "classify", counted)
        raw = {"function": "1/(z-9) + z^2", "domain": TWO_HOLES,
               "points": [[1.5, 0.0], [0.1, 0.1], [3.0, 0.2]],
               "checks": ["extension", "cross_verify"]}
        cfg, _ = cli.build_config(raw)
        rep = cli.run_scenario(cfg)
        assert [r["status"] for r in rep.results] == ["ok"] * 2
        extension_points = (1.5, 0.1 + 0.1j, 3.0 + 0.2j)
        assert calls.count(extension_points) == 1
        assert max(calls.count(points) for points in calls) == 1

    @pytest.mark.parametrize("half_width", [0.1, 0.2, 0.4])
    def test_inlet_narrower_than_twice_the_dilation(self, half_width):
        # a 3 x 2 block with an inlet 1.5 deep cut into its top, 0.6 inside
        # a rectangle: no circle separates it, so its basis curve is its
        # dilation by 0.3. In an inlet narrower than 0.6 the cuts at its two
        # bottom corners cross, and the offset backtracks along the bottom:
        # still in the domain when the inlet is wider than 0.3, but through
        # the block when it is narrower, which the basis check refuses.
        x0, x1 = 1.5 - half_width, 1.5 + half_width
        hole = [[0, 0], [3, 0], [3, 2], [x1, 2], [x1, 0.5], [x0, 0.5],
                [x0, 2], [0, 2]]
        raw = {"function": "1/(z-(0.5+1i))^2", "max_degree": 3,
               "checks": ["moments", "primitive_order"],
               "domain": {"outer": {"polygon": {"vertices": [
                   [-0.6, -0.6], [3.6, -0.6], [3.6, 2.6], [-0.6, 2.6]]}},
                   "holes": [{"polygon": {"vertices": hole}}]}}
        cfg, _ = cli.build_config(raw)
        rows = cli.run_scenario(cfg).results
        if half_width < 0.15:
            assert [r["values"]["error"] for r in rows] == [
                "could not construct a separating basis curve for hole 0 "
                "(dilation by 0.5 of the gap)"] * 2
        else:
            assert [r["status"] for r in rows] == ["ok", "ok"]
            assert rows[1]["values"]["max_order"] == 1

    @pytest.mark.parametrize("checks", [
        ["moments", "primitive_order", "extension"],
        ["primitive_order", "extension", "moments"]])
    def test_pole_in_domain_leaves_the_moments_row_ok(self, checks):
        # the moments are well defined; only the verdict needs f
        # holomorphic on the domain. The basis circle (radius 1.25) winds
        # around the pole, so the degree-0 moment is 2 pi i.
        raw = {"function": "1/(z-1)", "domain": ANNULUS, "max_degree": 3,
               "checks": checks}
        cfg, _ = cli.build_config(raw)
        rows = {r["check"]: r for r in cli.run_scenario(cfg).results}
        assert rows["moments"]["status"] == "ok"
        assert rows["moments"]["values"]["curves"][0]["first_nonzero"] == 0
        for check in ("primitive_order", "extension"):
            assert rows[check]["status"] == "error"
            assert rows[check]["values"]["error_type"] == "PoleInDomainError"

    def test_verdict_names_curves_as_the_moments_row(self):
        raw = {"function": "1/z^2 + 1/(z-3)^3", "max_degree": 4,
               "domain": {"outer": {"circle": {"center": [1.5, 0.0],
                                               "radius": 4.0}},
                          "holes": [{"circle": {"center": [0.0, 0.0],
                                                "radius": 0.5}},
                                    {"circle": {"center": [3.0, 0.0],
                                                "radius": 0.5}}]},
               "checks": ["moments"]}
        cfg, _ = cli.build_config(raw)
        row = cli.run_scenario(cfg).results[0]["values"]
        verdict = moments.max_primitive_order(
            cfg.function, cfg.domain, cfg.max_degree, cfg.quad_tol,
            cfg.zero_tol)
        assert [vec.curve_id for vec in verdict.moments] \
            == [curve["curve_id"] for curve in row["curves"]] \
            == ["hole-0", "hole-1"]

    @pytest.mark.parametrize("function, patch, finding", [
        # a_-2 of 1/z^2 moved off the centered degree-1 moment
        ("1/z^2", ("tail", 1, 0.5), r"hole 0: coefficient a_-2 disagrees "
                                    r"with the centered degree-1 moment by 0\.5"),
        # a tail for z, whose moments all vanish
        ("z", ("tail", 0, 1.0), r"hole 0: moments all vanish but a_-1 is 1"),
        # a_-1 of 1/z^3 made nonzero, below its a_-3
        ("1/z^3", ("tail", 0, 1.0), r"hole 0: first nonzero moment degree 2 "
                                    r"does not match first nonzero "
                                    r"coefficient index 1"),
        # the extension moved on the second contour alone, then on both
        ("1/(z-5)", ("extension", 0.0, 1e-6), r"extension values from "
                                              r"homologous contours differ "
                                              r"by 1e-06"),
        ("1/(z-5)", ("extension", 1e-6, 1e-6), r"extension disagrees with "
                                               r"the truncated-tail route by "
                                               r"relative \S+"),
    ])
    def test_cross_verify_findings_are_inconsistent_rows(
            self, monkeypatch, function, patch, finding):
        kind, *args = patch
        if kind == "tail":
            index, delta = args
            decompose = ext.decompose

            def moved(*call, **kwargs):
                out = decompose(*call, **kwargs)
                comp = out.components[0]
                coefficients = list(comp.coefficients)
                coefficients[index] += delta
                comp = dataclasses.replace(comp,
                                           coefficients=tuple(coefficients))
                return dataclasses.replace(
                    out, components=(comp,) + out.components[1:])

            monkeypatch.setattr(ext, "decompose", moved)
        else:
            # cross_verify evaluates both contours in one pass
            on_contours = ext._on_contours
            monkeypatch.setattr(
                ext, "_on_contours",
                lambda *call: on_contours(*call) + np.array(args)[:, None])
        raw = {"function": function, "domain": ANNULUS,
               "checks": ["cross_verify"]}
        cfg, _ = cli.build_config(raw)
        rep = cli.run_scenario(cfg)
        (row,) = rep.results
        assert row["status"] == "inconsistent" and rep.exit_code == 2
        assert any(re.fullmatch(finding, text)
                   for text in row["values"]["findings"]), \
            row["values"]["findings"]

    def test_determinism_modulo_timings(self):
        raw = {"function": "1/z^2", "domain": ANNULUS,
               "checks": ["moments", "primitive_order"], "max_degree": 6}
        cfg, _ = cli.build_config(raw)
        a = json.loads(cli.run_scenario(cfg).to_json())
        b = json.loads(cli.run_scenario(cfg).to_json())
        a.pop("timings")
        b.pop("timings")
        assert a == b


class TestMain:
    def test_run_json_output(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "1/z^2", "domain": ANNULUS,
            "checks": ["primitive_order"], "max_degree": 8})
        code = cli.main(["run", "--scenario", str(scenario)])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["values"]["max_order"] == 1
        assert "version" in payload and "timings" in payload

    def test_run_text_format_flag(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "1/(z-5)", "domain": ANNULUS,
            "checks": ["primitive_order"], "max_degree": 8})
        code = cli.main(["run", "--scenario", str(scenario),
                         "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok] primitive_order" in out

    def test_run_out_file(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "1/z^2", "domain": ANNULUS,
            "checks": ["primitive_order"], "max_degree": 8})
        target = tmp_path / "report.json"
        code = cli.main(["run", "--scenario", str(scenario),
                         "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["results"]

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_exits_one(self, tmp_path, capsys, target):
        scenario = write_scenario(tmp_path, {
            "function": "z", "domain": ANNULUS, "checks": ["moments"]})
        code = cli.main(["run", "--scenario", str(scenario),
                         "--out", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("cannot write the report: ")

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel",
                                      "--max-degree"])
    def test_run_takes_no_setting_of_the_scenario(self, tmp_path, capsys,
                                                 flag):
        # what is computed comes from the scenario file alone
        scenario = write_scenario(tmp_path, {
            "function": "z", "domain": ANNULUS, "checks": ["moments"]})
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--scenario", str(scenario), flag, "5"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 5" \
            in capsys.readouterr().err

    def test_tolerance_flags_reach_report(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "z", "domain": ANNULUS,
            "checks": ["moments"], "max_degree": 4,
            "tolerances": {"abs": 1e-7, "rel": 1e-8}})
        code = cli.main(["run", "--scenario", str(scenario)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["results"][0]["tolerance_used"]["abs"] == 1e-7
        assert payload["results"][0]["tolerance_used"]["rel"] == 1e-8

    def test_csv_scenario_runs_boundary_checks(self, tmp_path, capsys):
        (tmp_path / "curve.csv").write_text(circle_csv(128, data="conj"))
        scenario = write_scenario(tmp_path, {
            "checks": ["boundary_tower", "chord_arc"],
            "curve": {"csv": "curve.csv"}})
        code = cli.main(["run", "--scenario", str(scenario)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        tower = payload["results"][0]["values"]
        assert tower["pass_depth"] == 0
        assert tower["depth_matches"] is True
        arc = payload["results"][1]["values"]
        assert arc["constant"] == pytest.approx(math.pi / 2, rel=0.05)

    def test_csv_over_the_sample_cap_gets_one_diagnostic(
            self, tmp_path, capsys, monkeypatch):
        # a CSV curve is capped like a sampled path, and reading stops at
        # the cap: the row past it, which does not parse, is never read
        monkeypatch.setattr(boundary, "MAX_NODES", 64)
        scenario = write_scenario(tmp_path, {
            "checks": ["chord_arc"], "curve": {"csv": "curve.csv"}})
        (tmp_path / "curve.csv").write_text(circle_csv(64))
        assert cli.main(["run", "--scenario", str(scenario)]) == 0
        (tmp_path / "curve.csv").write_text(circle_csv(66) + "not a row\n")
        assert cli.main(["run", "--scenario", str(scenario)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("curve.csv:")] \
            == ["curve.csv: need at most 64 intervals, got more"]

    @pytest.mark.parametrize("text", ["", "# t, re(z), im(z), re(g), im(g)\n"],
                             ids=["empty", "comment-only"])
    def test_csv_without_data_rows_gets_one_diagnostic(self, tmp_path,
                                                       capsys, text):
        # numpy's warning of the empty input once reached stderr, and the
        # diagnostic blamed the column count
        (tmp_path / "curve.csv").write_text(text)
        scenario = write_scenario(tmp_path, {
            "checks": ["chord_arc"], "curve": {"csv": "curve.csv"}})
        assert cli.main(["run", "--scenario", str(scenario)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("curve.csv:")] \
            == ["curve.csv: curve csv has no data rows"]
        assert not [line for line in err if "Warning" in line]

    def test_chord_arc_row_names_both_slacks(self, tmp_path, capsys):
        (tmp_path / "curve.csv").write_text(circle_csv(128, data="conj"))
        scenario = write_scenario(tmp_path, {
            "checks": ["chord_arc"], "curve": {"csv": "curve.csv"}})
        assert cli.main(["run", "--scenario", str(scenario)]) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert row["tolerance_used"] == {
            "relative_slack": boundary.BOUND_RELATIVE_SLACK,
            "absolute_slack": boundary.BOUND_ABSOLUTE_SLACK}

    @pytest.mark.parametrize("raw, message", [
        ({"function": "1/z", "checks": ["moments"],
          "domain": {"outer": {"ellipse": 1}, "holes": []}},
         "domain.outer: expected one of circle, polygon, segments"),
        ({"function": "z", "checks": ["boundary_tower"],
          "curve": {"path": {"ellipse": 1}, "samples": 64}},
         "curve.path: expected one of circle, polygon, segments"),
        ({"function": "1/z", "checks": ["moments"], "domain": [1]},
         "domain: expected an object"),
        ({"function": "1/z", "checks": ["moments"], "domain": {
            "outer": {"circle": {"center": [0, 0], "radius": 3}},
            "holes": [{"circle": {"center": [0, 0], "radius": 0.5}},
                      {"circle": {"center": [0.3, 0], "radius": 0.5}}]}},
         "domain: holes 0 and 1 overlap"),
        ({"function": "z", "checks": ["cauchy"], "points": "x",
          "curve": {"path": {"circle": {"center": [0, 0], "radius": 1}},
                    "samples": 64}},
         "points: expected a list of [re, im] pairs"),
        ({"function": "1/z", "checks": ["moments"], "domain": ANNULUS,
          "format": "text"},
         f"format: unknown field (choose from {', '.join(cli.FIELDS)})"),
        # an integer too large for a float takes the OverflowError branch
        ({"function": "1/z", "checks": ["moments"], "domain": {
            "outer": {"circle": {"center": [0, 0], "radius": 10 ** 400}},
            "holes": ANNULUS["holes"]}},
         "domain.outer.circle.radius: positive number of at most 1e+150 "
         "required"),
    ])
    def test_scenario_diagnostics_exit_one(self, tmp_path, capsys, raw,
                                           message):
        scenario = write_scenario(tmp_path, raw)
        assert cli.main(["run", "--scenario", str(scenario)]) == 1
        assert message in capsys.readouterr().err.splitlines()

    def test_empty_points_read_as_absent(self, tmp_path, capsys):
        # an empty list used to run the check on no point: cauchy gave
        # values [] and extension a discrepancy of 0.0 over nothing
        raw = {"function": "z^2", "checks": ["cauchy"], "points": [],
               "curve": {"path": {"circle": {"center": [0, 0],
                                             "radius": 1.0}},
                         "samples": 64}}
        message = "points: required for the cauchy check"
        assert cli.validate(raw) == [message]
        scenario = write_scenario(tmp_path, raw)
        assert cli.main(["validate", "--scenario", str(scenario)]) == 1
        assert capsys.readouterr().out.splitlines() == [message]
        raw = {"function": "1/(z-5) + z^2", "checks": ["extension"],
               "domain": ANNULUS}
        rows = [json.loads(cli.run_scenario(cli.build_config(
            {**raw, **points})[0]).to_json())["results"][0]
            for points in ({"points": []}, {})]
        assert rows[0] == rows[1]
        assert len(rows[0]["values"]["points"]) > 0

    def test_sampled_path_scenario_with_points(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "z^2",
            "curve": {"path": {"circle": {"center": [0, 0], "radius": 1.0}},
                      "samples": 64},
            "points": [[0.3, 0.2]],
            "checks": ["cauchy", "nontangential"]})
        code = cli.main(["run", "--scenario", str(scenario)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        w = complex(0.3, 0.2)
        got = payload["results"][0]["values"]["values"][0]
        assert complex(got[0], got[1]) == pytest.approx(w ** 2, abs=1e-10)
        assert payload["results"][1]["values"]["matches_boundary"] is True

    def test_nontangential_on_warped_path_is_ok(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "0.7*z^2",
            "curve": {"path": {"circle": {"center": [0, 0], "radius": 1.0}},
                      "samples": 512, "warp": 0.3},
            "checks": ["nontangential"]})
        code = cli.main(["run", "--scenario", str(scenario)])
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert code == 0
        assert row["status"] == "ok"
        assert row["values"]["expected_match"] is True

    def test_nontangential_reads_scenario_tolerances(self, tmp_path, capsys):
        # moments of 1/(z - 0.2) on the unit circle are 2 pi i 0.2^k: nonzero
        # at the default tolerances, zero at abs 100
        raw = {"function": "1/(z-0.2)",
               "curve": {"path": {"circle": {"center": [0, 0],
                                             "radius": 1.0}},
                         "samples": 256},
               "checks": ["nontangential"]}
        expected = []
        for tols in ({}, {"abs": 100.0}):
            scenario = write_scenario(tmp_path, dict(raw, tolerances=tols))
            cli.main(["run", "--scenario", str(scenario)])
            row = json.loads(capsys.readouterr().out)["results"][0]
            expected.append(row["values"]["expected_match"])
        assert expected == [False, True]

    def test_validate_subcommand(self, tmp_path, capsys):
        good = write_scenario(tmp_path, {
            "function": "1/z", "domain": ANNULUS, "checks": ["moments"]},
            "good.json")
        assert cli.main(["validate", "--scenario", str(good)]) == 0
        assert "runnable" in capsys.readouterr().out
        bad = write_scenario(tmp_path, {"checks": ["moments"]}, "bad.json")
        assert cli.main(["validate", "--scenario", str(bad)]) == 1
        assert "needs a" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["run", "--scenario", str(tmp_path / "nope.json")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_directory_as_scenario(self, tmp_path, capsys):
        for command in ("run", "validate"):
            assert cli.main([command, "--scenario", str(tmp_path)]) == 1
            assert "cannot read the scenario file" in capsys.readouterr().err

    def test_scenario_that_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"function": "z", "note": "\u00e9"}'.encode("latin-1"))
        for command in ("run", "validate"):
            assert cli.main([command, "--scenario", str(p)]) == 1
            assert "not valid JSON" in capsys.readouterr().err

    def test_nan_tolerance_in_scenario_file(self, tmp_path, capsys):
        # json.dumps writes NaN, and json.load reads it back as a float
        scenario = write_scenario(tmp_path, {
            "function": "1/z", "domain": ANNULUS, "checks": ["moments"],
            "tolerances": {"abs": math.nan}})
        assert cli.main(["run", "--scenario", str(scenario)]) == 1
        assert "tolerances.abs: positive number required" \
            in capsys.readouterr().err

    def test_tolerance_flag_over_a_tolerances_field_that_is_no_object(
            self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "1/z", "domain": ANNULUS, "checks": ["moments"],
            "tolerances": 5})
        code = cli.main(["run", "--scenario", str(scenario)])
        assert code == 1
        assert "tolerances: expected an object" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code = cli.main(["run", "--scenario", str(p)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_thin_ring_runs_every_domain_check(self, tmp_path, capsys):
        # a ring 1e-4 of its radius wide: the probes sit on the hole's
        # contours, at fractions of its gap
        scenario = write_scenario(tmp_path, {
            "function": "1/z^2",
            "domain": {"outer": {"circle": {"radius": 1000.0}},
                       "holes": [{"circle": {"radius": 999.9}}]},
            "checks": list(cli.DOMAIN_CHECKS)})
        code = cli.main(["run", "--scenario", str(scenario)])
        rows = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
        assert [row["check"] for row in rows] == list(cli.DOMAIN_CHECKS)
        assert [row["status"] for row in rows] == ["ok"] * 4

    def test_unset_flags_leave_the_scenario_as_written(self, tmp_path,
                                                       capsys):
        raw = {"function": "1/z^2", "domain": ANNULUS,
               "checks": ["primitive_order"], "max_degree": 8}
        code = cli.main(["run", "--scenario",
                         str(write_scenario(tmp_path, raw))])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["scenario"] == raw
        assert payload["results"][0]["values"]["tested_through"] == 8

    def test_pole_in_domain_gives_error_rows(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "1/(z-1)", "domain": ANNULUS,
            "checks": ["primitive_order", "extension", "cross_verify"]})
        code = cli.main(["run", "--scenario", str(scenario)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        for row in payload["results"]:
            assert row["status"] == "error"
            assert row["values"]["error_type"] == "PoleInDomainError"

    def test_pole_census_degree_cap_gives_error_rows(self, tmp_path, capsys):
        # the moment scan needs no poles; the checks that place them refuse
        # a pole order bound past the cap
        scenario = write_scenario(tmp_path, {
            "function": "1/(z-0.1)^65", "domain": ANNULUS,
            "checks": list(cli.DOMAIN_CHECKS)})
        code = cli.main(["run", "--scenario", str(scenario)])
        rows = json.loads(capsys.readouterr().out)["results"]
        assert code == 1
        assert rows[0]["check"] == "moments" and rows[0]["status"] == "ok"
        for row in rows[1:]:
            assert row["status"] == "error"
            assert row["values"] == {
                "error": "order bound 65 at 0.1+0j exceeds cap 64",
                "error_type": "PoleFindingError"}

    def test_hole_budget_past_the_moment_cap_gives_error_rows(self, tmp_path,
                                                             capsys):
        # each pole is within the census cap, but no scan tests past degree
        # 64 for their total of 80 in the hole
        scenario = write_scenario(tmp_path, {
            "function": "1/(z-0.1)^40 + 1/(z+0.1)^40", "domain": ANNULUS,
            "checks": ["primitive_order", "extension", "cross_verify"]})
        code = cli.main(["run", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        for row in json.loads(captured.out)["results"]:
            assert row["status"] == "error"
            assert row["values"] == {
                "error": "the poles in hole 0 have total order 80, past 64",
                "error_type": "PoleFindingError"}

    def test_one_pole_of_order_p_in_the_hole_gives_p_minus_one(
            self, tmp_path, capsys):
        # one pole of order p at 0.1, in the hole: primitives of every order
        # below p - 1 close and the order p - 1 does not
        for p in range(16, 65):
            scenario = write_scenario(tmp_path, {
                "function": f"1/(z-0.1)^{p}", "domain": ANNULUS,
                "checks": ["primitive_order"]})
            assert cli.main(["run", "--scenario", str(scenario)]) == 0
            values = json.loads(capsys.readouterr().out)["results"][0][
                "values"]
            assert (values["max_order"], values["certificate"]) \
                == (p - 1, "failure-witnessed")

    def test_poles_in_a_moved_annulus_are_in_the_domain(self, tmp_path,
                                                        capsys):
        # the annulus (2, 0.5) moved to 1000+2000i, with triple poles at its
        # +-1.2: both lie in the domain
        moved = {"outer": {"circle": {"center": [1000, 2000], "radius": 2}},
                 "holes": [{"circle": {"center": [1000, 2000],
                                       "radius": 0.5}}]}
        scenario = write_scenario(tmp_path, {
            "function": "1/(z-(998.8+2000i))^3 + 1/(z-(1001.2+2000i))^3",
            "domain": moved, "checks": ["primitive_order"]})
        assert cli.main(["run", "--scenario", str(scenario)]) == 1
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert row["values"]["error_type"] == "PoleInDomainError"

    def test_unbounded_domain_runs_every_domain_check(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "z^3 - 2*z", "domain": {"holes": TWO_HOLES["holes"]},
            "points": [[0.1, 0.1], [5.0, 1.0]],
            "checks": list(cli.DOMAIN_CHECKS)})
        code = cli.main(["run", "--scenario", str(scenario)])
        rows = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
        assert [(row["check"], row["status"]) for row in rows] \
            == [(check, "ok") for check in cli.DOMAIN_CHECKS]

    def test_whole_plane_gives_error_rows(self, tmp_path, capsys):
        # no boundary sizes a contour or bounds the probe box
        scenario = write_scenario(tmp_path, {
            "function": "z^2", "domain": {}, "points": [[0.5, 0.5]],
            "checks": ["primitive_order", "extension", "cross_verify"]})
        code = cli.main(["run", "--scenario", str(scenario)])
        rows = json.loads(capsys.readouterr().out)["results"]
        assert code == 1
        assert rows[0]["status"] == "ok"
        assert [row["values"].get("error_type") for row in rows[1:]] \
            == ["GeometryError"] * 2

    @pytest.mark.parametrize("outer, inner, status", [
        (1e12, 5e11, "error"), (1e9, 5e8, "ok")])
    def test_overflowing_moment_powers_give_error_rows(self, tmp_path, capsys,
                                                       outer, inner, status):
        # at radius 7.5e11 the degree-26 power of z leaves the float range;
        # the run stops at once, with no warning, instead of refining inf
        # values until the panel budget runs out
        scenario = write_scenario(tmp_path, {
            "function": "1/z^2",
            "domain": {
                "outer": {"circle": {"center": [0, 0], "radius": outer}},
                "holes": [{"circle": {"center": [0, 0], "radius": inner}}]},
            "checks": ["moments", "primitive_order", "extension",
                       "cross_verify"],
            "max_degree": 32})
        start = time.perf_counter()
        code = cli.main(["run", "--scenario", str(scenario)])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in payload["results"]] == [status] * 4
        if status == "error":
            assert code == 1
            assert elapsed < 1.0
            for row in payload["results"]:
                assert row["values"]["error_type"] == "GeometryError"
                assert "degree 26 overflows" in row["values"]["error"]
        else:
            assert code == 0

    def _run_to_file(self, tmp_path, capsys, raw):
        """Exit code and strictly parsed report of a run with --out; the
        run prints nothing."""
        out = tmp_path / "report.json"
        code = cli.main(["run", "--scenario",
                         str(write_scenario(tmp_path, raw)), "--out",
                         str(out)])
        assert capsys.readouterr() == ("", "")
        return code, _strict_json(out.read_text())

    def test_overflowing_curve_data_gives_error_rows(self, tmp_path, capsys):
        # g = 1.5e308 on the unit circle: its first running primitive
        # overflows, which must not pass as a tower of zero defects
        t = np.linspace(0.0, 1.0, 129)
        z = np.exp(2j * math.pi * t)
        z[-1] = z[0]
        (tmp_path / "curve.csv").write_text("".join(
            f"{a:.17g},{b.real:.17g},{b.imag:.17g},1.5e308,0\n"
            for a, b in zip(t, z)))
        code, payload = self._run_to_file(tmp_path, capsys, {
            "curve": {"csv": "curve.csv"},
            "checks": ["chord_arc", "boundary_tower"]})
        assert code == 1
        assert [(row["status"], row["values"]["error_type"])
                for row in payload["results"]] \
            == [("error", "CurveDataError")] * 2

    def test_curve_far_from_the_origin_gives_error_rows(self, tmp_path,
                                                         capsys):
        # on the circle of radius 1e120 the fourth running primitive of 1/z
        # leaves the float range
        code, payload = self._run_to_file(tmp_path, capsys, {
            "function": "1/z",
            "curve": {"path": {"circle": {"center": [0, 0],
                                          "radius": 1e120}},
                      "samples": 256},
            "checks": ["boundary_tower"]})
        assert code == 1
        assert [row["values"] for row in payload["results"]] == [
            {"error": "tower level 4 leaves the float range",
             "error_type": "CurveDataError"}]

    def test_max_degree_above_cap_is_diagnosed(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "1/z", "domain": ANNULUS,
            "checks": ["primitive_order"], "max_degree": 100})
        code = cli.main(["run", "--scenario", str(scenario)])
        assert code == 1
        assert "max_degree: must lie in [0, 64]" in capsys.readouterr().err

    @pytest.mark.parametrize("field, cap", [("tower_levels", 64)])
    def test_memory_fields_above_cap_are_diagnosed(self, tmp_path, capsys,
                                                   field, cap):
        # tower levels size arrays, so they are capped like max_degree;
        # only the value just past the cap is run
        (tmp_path / "c.csv").write_text(circle_csv(64))
        raw = {"function": "1/z", "domain": ANNULUS,
               "curve": {"csv": "c.csv"},
               "checks": ["cross_verify", "boundary_tower"]}
        assert cli.validate({**raw, field: cap}, tmp_path) == []
        scenario = write_scenario(tmp_path, {**raw, field: cap + 1})
        code = cli.main(["run", "--scenario", str(scenario)])
        assert code == 1
        assert f"{field}: must lie in [1, {cap}]" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["points", "radii"])
    def test_lists_above_cap_are_diagnosed(self, tmp_path, capsys, field):
        # every point and every radius is one row of a stacked integral, so
        # both lists are capped like max_degree; 64 entries run
        count = moments.MAX_MOMENT_DEGREE
        entries = {
            "points": [[0.7 * math.cos(k), 0.7 * math.sin(k)]
                       for k in range(count + 1)],
            "radii": [*np.geomspace(0.1, 5e-5, count), 2.5e-5]}[field]
        raw = {"function": "z^2", "domain": ANNULUS,
               "curve": {"path": {"circle": {"radius": 1.0}},
                         "samples": 256},
               "checks": ["extension", "cauchy", "nontangential"],
               "points": [[0.7, 0.0]]}
        code, payload = self._run_to_file(
            tmp_path, capsys, {**raw, field: entries[:count]})
        assert code == 0
        extension, cauchy, nontangential = (
            row["values"] for row in payload["results"])
        rows = [len(extension["points"]), len(cauchy["points"])] \
            if field == "points" else [len(nontangential["residuals"])]
        assert set(rows) == {count}
        scenario = write_scenario(tmp_path, {**raw, field: entries})
        assert cli.main(["run", "--scenario", str(scenario)]) == 1
        unit = {"points": "pairs", "radii": "numbers"}[field]
        assert capsys.readouterr().err.splitlines()[0] \
            == f"{field}: at most {count} {unit}"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unknown_fields_are_diagnosed(self, tmp_path, capsys, command):
        # a misspelt field is not read as its default
        scenario = write_scenario(tmp_path, {
            "function": "1/z", "domain": ANNULUS, "checks": ["moments"],
            "max_degre": 4, "tolerence": {"abs": 1}})
        assert cli.main([command, "--scenario", str(scenario)]) == 1
        captured = capsys.readouterr()
        lines = (captured.out if command == "validate"
                 else captured.err).splitlines()
        choices = ", ".join(cli.FIELDS)
        assert lines == [f"max_degre: unknown field (choose from {choices})",
                         f"tolerence: unknown field (choose from {choices})"]

    @pytest.mark.parametrize("change, message", [
        ({"tolerances": {"quad": 1e-6}},
         "tolerances.quad: unknown field (choose from abs, rel, quadrature)"),
        ({"curve": {"path": ANNULUS["outer"], "sample": 512}},
         "curve.sample: unknown field (choose from csv, path, samples, "
         "warp)"),
        ({"curve": {"csv": "c.csv", "path": ANNULUS["outer"]}},
         "curve: expected csv or path, not both"),
        ({"domain": {"outr": ANNULUS["outer"], "holes": ANNULUS["holes"]}},
         "domain.outr: unknown field (choose from outer, holes)"),
        ({"domain": {**ANNULUS, "holes": [{
            "circle": {"center": [0, 0], "radius": 0.5},
            "polygon": {"vertices": [[0, 0], [1, 0], [0, 1]]}}]}},
         "domain.holes[0]: expected one of circle, polygon, segments, not "
         "circle and polygon"),
        ({"domain": {**ANNULUS, "outer": {**ANNULUS["outer"], "ccw": True}}},
         "domain.outer.ccw: unknown field (choose from circle, polygon, "
         "segments)"),
        ({"domain": {**ANNULUS, "outer": {"circle": {
            "centre": [0, 0], "radius": 2.0}}}},
         "domain.outer.circle.centre: unknown field (choose from center, "
         "radius, ccw)"),
        ({"domain": {**ANNULUS, "holes": [{"polygon": {
            "vertices": [[-0.1, -0.1], [0.1, -0.1], [0, 0.1]],
            "closed": True}}]}},
         "domain.holes[0].polygon.closed: unknown field (choose from "
         "vertices)"),
        ({"curve": {"csv": "c.csv", "samples": 512}},
         "curve.samples: a csv curve takes no samples (its rows are its "
         "samples)"),
        ({"curve": {"csv": "c.csv", "warp": 0.3}},
         "curve.warp: a csv curve takes no warp (its rows are its samples)"),
        ({"domain": {**ANNULUS, "holes": [{"segments": [{
            "kind": "arc", "center": [0, 0], "r": 0.5, "t0": 0,
            "t1": 6.283185307179586, "ccw": True, "radius": 9}]}]}},
         "domain.holes[0]: arc segment: unknown field 'radius' (choose from "
         "kind, center, r, t0, t1, ccw)"),
        ({"domain": {**ANNULUS, "holes": [{"segments": [
            {"kind": "line", "a": [0, -0.5], "b": [0.5, 0]},
            {"kind": "line", "a": [0.5, 0], "b": [0, 0.5], "c": 5},
            {"kind": "line", "a": [0, 0.5], "b": [0, -0.5]}]}]}},
         "domain.holes[0]: line segment: unknown field 'c' (choose from "
         "kind, a, b)"),
    ], ids=["tolerances", "curve", "curve-kinds", "domain", "path-kinds",
            "path-node", "circle", "polygon", "csv-samples", "csv-warp",
            "arc-segment", "line-segment"])
    def test_unknown_nested_fields_are_diagnosed(self, tmp_path, change,
                                                 message):
        # a misspelt nested field is not read as its default, nor does
        # one kind of path or curve silently win over another
        (tmp_path / "c.csv").write_text(circle_csv(64))
        raw = {"function": "z^2", "domain": ANNULUS,
               "curve": {"path": ANNULUS["outer"], "samples": 64},
               "checks": ["moments", "chord_arc"]}
        assert cli.validate(raw, tmp_path) == []
        assert cli.validate({**raw, **change}, tmp_path)[:1] == [message]

    def test_unrunnable_scenario_exits_one(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"checks": ["moments"]})
        code = cli.main(["run", "--scenario", str(scenario)])
        assert code == 1
        assert "needs a" in capsys.readouterr().err


_UNIT_CIRCLE_TOWER = {
    "curve": {"path": {"circle": {"center": [0, 0], "radius": 1}},
              "samples": 16},
    "checks": ["boundary_tower"]}


class TestProcess:
    """`python -m envelope.cli run` as its own process, on inputs that
    once ended in a traceback or did not end: each now exits 1 within the
    timeout and says what went wrong."""

    @pytest.mark.parametrize("raw, out, named", [
        pytest.param({"function": "(" * 400 + "z" + ")" * 400}, None,
                     "function: expression nested deeper than 100 levels",
                     id="deep-parentheses"),
        pytest.param({"function": "+".join(["z"] * 3000)}, None,
                     "function: expression nested deeper than 100 levels",
                     id="long-sum"),
        pytest.param({"function": "z^-1000000"}, None,
                     "order bound 1000000 at 0+0j exceeds cap 64",
                     id="power-of-z"),
        pytest.param({"function": "(1+0.00000001z)^-100000"}, None,
                     "order bound 100000 at -1e+08+0j exceeds cap 64",
                     id="power-of-a-short-product"),
        pytest.param({"function": "z^-99999999999999999999"}, None,
                     "order bound 99999999999999999999 at 0+0j exceeds "
                     "cap 64",
                     id="power-past-int64"),
        # inf, as numpy's power gives: refused on the first panels of the
        # moment scan, once for the four checks that share it
        pytest.param({"function": "3^700*z",
                      "checks": ["moments", "primitive_order", "extension",
                                 "cross_verify"]}, None,
                     "NonFiniteIntegrandError",
                     id="constant-power-overflow"),
        pytest.param({"function": "2^99999999999999999999",
                      **_UNIT_CIRCLE_TOWER}, None,
                     "curve: params, points and values must be finite",
                     id="constant-power-past-int64"),
        pytest.param({}, "missing/report.json", "cannot write the report",
                     id="out-in-a-missing-directory"),
        pytest.param({}, ".", "cannot write the report",
                     id="out-is-a-directory"),
        pytest.param({"checks": ["primitive_order", "primitive_order"]}, None,
                     "checks: 'primitive_order' listed 2 times",
                     id="repeated-check"),
    ])
    def test_exits_one_without_a_traceback(self, tmp_path, raw, out, named):
        scenario = write_scenario(tmp_path, {
            "function": "z", "domain": ANNULUS,
            "checks": ["primitive_order"], **raw})
        argv = [sys.executable, "-m", "envelope.cli", "run",
                "--scenario", str(scenario)]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        source = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr
        assert named in done.stdout + done.stderr


# ---------------------------------------------------------------------------
# a grammar fuzzer: expressions drawn from expr's grammar run through every
# domain check on the conftest domains

# the wall-clock cap of one scenario; every drawn one takes well under 1 s
FUZZ_CAP_S = 10.0
_FUZZ_LEAVES = st.one_of(
    st.just("z"), st.integers(0, 12).map(str),
    st.sampled_from(["0.5", ".25", "2.5e3", "1e-3", "1e308", "(1+2i)",
                     "(-0.5-1.5i)", "(0+1e-9i)"]))


def _fuzz_compound(parts):
    return st.one_of(
        st.tuples(parts, st.sampled_from("+-*/"), parts).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(parts, parts).map(lambda t: f"{t[0]} {t[1]}"),
        st.tuples(parts, st.integers(-6, 6)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        parts.map(lambda p: f"exp({p})"),
        parts.map(lambda p: f"-{p}"))


_FUZZ_EXPRESSIONS = st.recursive(_FUZZ_LEAVES, _fuzz_compound, max_leaves=8)


class _OverCap(BaseException):
    """A scenario ran past FUZZ_CAP_S."""


def _domain_node(domain):
    return {"outer": {"segments": geom.path_to_json(domain.outer)},
            "holes": [{"segments": geom.path_to_json(h)}
                      for h in domain.holes]}


class TestGrammarFuzz:
    @pytest.mark.parametrize("name", ["annulus", "two_hole", "slab"])
    @given(text=_FUZZ_EXPRESSIONS)
    def test_no_exception_escapes_and_errors_are_named(
            self, name, text, annulus, two_hole, slab):
        # a drawn function is refused with a function: diagnostic, or every
        # check ends in a row, an error row naming an EnvelopeError, within
        # the cap; both renderings of the report succeed
        domain = {"annulus": annulus, "two_hole": two_hole,
                  "slab": slab}[name]
        cfg, diags = cli.build_config({
            "function": text, "domain": _domain_node(domain),
            "checks": list(cli.DOMAIN_CHECKS)})
        if cfg is None:
            assert diags and all(d.startswith("function:") for d in diags)
            return

        def over(signum, frame):
            raise _OverCap(f"{text} ran past {FUZZ_CAP_S} s on {name}")

        previous = signal.signal(signal.SIGALRM, over)
        signal.setitimer(signal.ITIMER_REAL, FUZZ_CAP_S)
        try:
            report = cli.run_scenario(cfg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert [row["check"] for row in report.results] \
            == list(cli.DOMAIN_CHECKS)
        for row in report.results:
            if row["status"] == "error":
                assert issubclass(getattr(errors, row["values"]["error_type"]),
                                  errors.EnvelopeError)
        json.loads(report.to_json())
        report.to_text()
