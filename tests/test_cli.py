"""Scenario parsing, report rendering and the command line entry point."""

import copy
import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envelope import boundary, cli, expr, moments
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
    ])
    def test_wrong_shapes_get_field_diagnostics(self, tmp_path, raw, field):
        raw = {"function": "z", "checks": ["moments"], **raw}
        diags = cli.validate(raw, tmp_path)
        assert any(d.startswith(field) for d in diags), diags

    @pytest.mark.parametrize("change, field", [
        ({"max_degree": True}, "max_degree:"),
        ({"laurent_terms": True}, "laurent_terms:"),
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
    ])
    def test_numbers_that_are_not_numbers(self, change, field):
        # json reads true as 1 and reads NaN and Infinity; none is a number
        raw = {"function": "1/z^2", "domain": ANNULUS,
               "checks": ["moments"], **change}
        diags = cli.validate(raw)
        assert any(d.startswith(field) for d in diags), diags

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
        "max_degree": 4, "laurent_terms": 5, "tower_levels": 3,
        "points": [[0.0, 0.1], [0.2, 0.0]], "node_index": 2,
        "radii": [0.1, 0.01], "tolerances": {"abs": 1e-9, "rel": 1e-10,
                                             "quadrature": 1e-12},
        "format": "text",
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
    def test_overrides_merge(self):
        raw = {"function": "1/z", "domain": ANNULUS, "checks": ["moments"],
               "max_degree": 4}
        cfg, diags = cli.build_config(raw, overrides={"max_degree": 9})
        assert diags == []
        assert cfg.max_degree == 9

    def test_none_overrides_are_ignored(self):
        raw = {"function": "1/z", "domain": ANNULUS, "checks": ["moments"],
               "max_degree": 4}
        cfg, _ = cli.build_config(raw, overrides={"max_degree": None})
        assert cfg.max_degree == 4

    def test_defaults(self):
        raw = {"function": "z", "domain": ANNULUS, "checks": ["moments"]}
        cfg, _ = cli.build_config(raw)
        assert cfg.zero_tol.abs_tol == 1e-9
        assert cfg.zero_tol.rel_tol == 1e-10
        assert cfg.quad_tol == cli.DEFAULT_QUAD_TOL
        assert cfg.radii == boundary.NONTANGENTIAL_RADII
        assert cfg.fmt == "json"


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

    def test_domain_checks_find_the_poles_once(self, monkeypatch):
        calls = []
        pole_set = expr.pole_set

        def counted(node):
            calls.append(node)
            return pole_set(node)

        monkeypatch.setattr(expr, "pole_set", counted)
        moments._hole_poles.cache_clear()  # as at the start of a real run
        raw = {"function": "1/(z-5) + 0.5/(z-0.1)^2", "domain": ANNULUS,
               "max_degree": 4, "checks": ["moments", "primitive_order",
                                           "extension", "cross_verify"]}
        cfg, _ = cli.build_config(raw)
        rep = cli.run_scenario(cfg)
        assert [r["status"] for r in rep.results] == ["ok"] * 4
        assert len(calls) == 1

    @pytest.mark.parametrize("checks", [["moments", "primitive_order"],
                                        ["primitive_order", "moments"]])
    def test_moments_row_reads_the_verdict_integrals(self, monkeypatch,
                                                     checks):
        calls = []
        vector = moments.moment_vector

        def counted(f, path, *args, **kwargs):
            calls.append(path)
            return vector(f, path, *args, **kwargs)

        monkeypatch.setattr(moments, "moment_vector", counted)
        moments._cached_basis_moments.cache_clear()  # as in a real run
        raw = {"function": "1/z^2 + 1/(z-3)^3", "max_degree": 4,
               "domain": TWO_HOLES, "checks": checks}
        cfg, _ = cli.build_config(raw)
        rep = cli.run_scenario(cfg)
        assert [r["status"] for r in rep.results] == ["ok", "ok"]
        # one integral per basis curve, shared by both rows
        assert len(calls) == 2 and calls[0] is not calls[1]

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
            evaluate = ext.evaluate_extension_many
            monkeypatch.setattr(
                ext, "evaluate_extension_many",
                lambda fn, domain, points, tol, verdict, which: [
                    v + args[which] for v in evaluate(fn, domain, points, tol,
                                                      verdict, which)])
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

    def test_max_degree_flag_overrides(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "z", "domain": ANNULUS,
            "checks": ["moments"], "max_degree": 12})
        code = cli.main(["run", "--scenario", str(scenario),
                         "--max-degree", "5"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["results"][0]["values"]["degree_cutoff"] == 5

    def test_tolerance_flags_reach_report(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "z", "domain": ANNULUS,
            "checks": ["moments"], "max_degree": 4})
        code = cli.main(["run", "--scenario", str(scenario),
                         "--tol-abs", "1e-7", "--tol-rel", "1e-8"])
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
        code = cli.main(["run", "--scenario", str(scenario),
                         "--tol-abs", "1e-6"])
        assert code == 1
        assert "tolerances: expected an object" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code = cli.main(["run", "--scenario", str(p)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

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

    def test_max_degree_above_cap_is_diagnosed(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "function": "1/z", "domain": ANNULUS,
            "checks": ["primitive_order"], "max_degree": 100})
        code = cli.main(["run", "--scenario", str(scenario)])
        assert code == 1
        assert "max_degree: must lie in [0, 64]" in capsys.readouterr().err

    @pytest.mark.parametrize("field, cap", [("tower_levels", 64),
                                            ("laurent_terms", 65)])
    def test_memory_fields_above_cap_are_diagnosed(self, tmp_path, capsys,
                                                   field, cap):
        # tower levels and Laurent terms size arrays, so both are capped
        # like max_degree; only the values just past the caps are run
        (tmp_path / "c.csv").write_text(circle_csv(64))
        raw = {"function": "1/z", "domain": ANNULUS,
               "curve": {"csv": "c.csv"},
               "checks": ["cross_verify", "boundary_tower"]}
        assert cli.validate({**raw, field: cap}, tmp_path) == []
        scenario = write_scenario(tmp_path, {**raw, field: cap + 1})
        code = cli.main(["run", "--scenario", str(scenario)])
        assert code == 1
        assert f"{field}: must lie in [1, {cap}]" in capsys.readouterr().err

    def test_unrunnable_scenario_exits_one(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {"checks": ["moments"]})
        code = cli.main(["run", "--scenario", str(scenario)])
        assert code == 1
        assert "needs a" in capsys.readouterr().err
