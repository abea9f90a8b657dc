"""Scenario-driven command line front end.

A scenario is one JSON file naming a function, a domain or a sampled
curve, and a list of checks. Every check produces exactly one result row
{check, status, values, tolerance_used}; status "inconsistent" is reserved
for genuine cross-route disagreements, while a clean "no primitives"
verdict is still status ok. Exit codes: 0 all consistent, 2 at least one
inconsistency, 1 operational failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from . import boundary as _bd
from . import expr as _expr
from . import extension as _ext
from . import geometry as _geom
from . import moments as _mom
from . import quadrature as _quad
from .errors import EnvelopeError, ParseError
from .geometry import _json_coordinate, _json_number, _json_point

DOMAIN_CHECKS = ("moments", "primitive_order", "extension", "cross_verify")
CURVE_CHECKS = ("boundary_tower", "cauchy", "nontangential", "chord_arc")
ALL_CHECKS = DOMAIN_CHECKS + CURVE_CHECKS
FIELDS = ("function", "domain", "curve", "checks", "max_degree",
          "tower_levels", "points", "node_index", "radii", "tolerances")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    raw: dict
    function: object | None
    domain: _geom.DomainSpec | None
    curve: _bd.SampledCurve | None
    checks: tuple[str, ...]
    max_degree: int | None
    tower_levels: int
    points: tuple[complex, ...] | None
    node_index: int
    radii: tuple[float, ...]
    zero_tol: _mom.ZeroTolerance
    quad_tol: float


def _object(node, where: str, diags: list[str]) -> dict | None:
    if isinstance(node, dict):
        return node
    diags.append(f"{where}: expected an object")
    return None


def _unknown(node: dict, prefix: str, known: tuple[str, ...],
             diags: list[str]) -> None:
    """A diagnostic for each field of node that is not one of known, named
    by its path (prefix, then the field), so that a misspelt field is not
    read as its default."""
    diags.extend(f"{prefix}{key}: unknown field (choose from "
                 f"{', '.join(known)})" for key in node if key not in known)


def _field(node: dict, key: str, default):
    """node[key], or default when the field is absent or null: a null field
    reads as absent."""
    value = node.get(key)
    return default if value is None else value


def _integer(node: dict, key: str, default: int | None, lo: int, hi: int,
             diags: list[str], where: str | None = None) -> int | None:
    """node[key] as an integer in [lo, hi]; default when the field is absent
    or null, and, with a diagnostic, when it is anything else."""
    value = node.get(key)
    if value is None:
        return default
    number = _json_number(value, integer=True)
    if number is None or not lo <= number <= hi:
        diags.append(f"{where or key}: must lie in [{lo}, {hi}]")
        return default
    return number


def _as_complex(node, where: str, diags: list[str]) -> complex | None:
    point = _json_point(node)
    if point is None:
        diags.append(f"{where}: expected [re, im], each of magnitude at "
                     f"most {_geom.MAX_COORDINATE:g}")
    return point


def _path_from_node(node, where: str, diags: list[str]) -> _geom.Path | None:
    if _object(node, where, diags) is None:
        return None
    kinds = ("circle", "polygon", "segments")
    _unknown(node, f"{where}.", kinds, diags)
    held = [kind for kind in kinds if kind in node]
    if len(held) > 1:
        diags.append(f"{where}: expected one of {', '.join(kinds)}, not "
                     f"{' and '.join(held)}")
        return None
    try:
        if "circle" in node:
            spec = _object(node["circle"], f"{where}.circle", diags)
            if spec is None:
                return None
            _unknown(spec, f"{where}.circle.", ("center", "radius", "ccw"),
                     diags)
            center = _as_complex(_field(spec, "center", [0.0, 0.0]),
                                 f"{where}.circle.center", diags)
            radius = _json_coordinate(spec.get("radius"))
            bad_radius = radius is None or radius <= 0
            if bad_radius:
                diags.append(f"{where}.circle.radius: positive number of at "
                             f"most {_geom.MAX_COORDINATE:g} required")
            if center is None or bad_radius:
                return None
            ccw = spec.get("ccw", True)
            if not isinstance(ccw, bool):
                diags.append(f"{where}.circle.ccw: true or false required")
                return None
            return _geom.circle(center, radius, ccw=ccw)
        if "polygon" in node:
            spec = _object(node["polygon"], f"{where}.polygon", diags)
            if spec is None:
                return None
            _unknown(spec, f"{where}.polygon.", ("vertices",), diags)
            verts = spec.get("vertices", [])
            if not isinstance(verts, list):
                diags.append(f"{where}.polygon.vertices: expected a list")
                return None
            points = [_as_complex(v, f"{where}.polygon.vertices[{i}]", diags)
                      for i, v in enumerate(verts)]
            if any(p is None for p in points) or len(points) < 3:
                diags.append(f"{where}.polygon: need at least 3 vertices")
                return None
            return _geom.polygon(points)
        if "segments" in node:
            return _geom.path_from_json(node["segments"])
    except (EnvelopeError, ValueError, KeyError, TypeError) as exc:
        diags.append(f"{where}: {exc}")
        return None
    diags.append(f"{where}: expected one of {', '.join(kinds)}")
    return None


def _build_domain(node, where: str, diags: list[str]
                  ) -> _geom.DomainSpec | None:
    if _object(node, where, diags) is None:
        return None
    _unknown(node, f"{where}.", ("outer", "holes"), diags)
    outer = None
    if node.get("outer") is not None:
        outer = _path_from_node(node["outer"], f"{where}.outer", diags)
        if outer is None:
            return None
    holes_raw = _field(node, "holes", [])
    if not isinstance(holes_raw, list):
        diags.append(f"{where}.holes: expected a list")
        return None
    holes = []
    for i, h in enumerate(holes_raw):
        p = _path_from_node(h, f"{where}.holes[{i}]", diags)
        if p is None:
            return None
        holes.append(p)
    try:
        return _geom.DomainSpec(outer, tuple(holes))
    except EnvelopeError as exc:
        diags.append(f"{where}: {exc}")
        return None


def _build_curve(node, where: str, base_dir: FsPath, fn, fn_given: bool,
                 diags: list[str]) -> _bd.SampledCurve | None:
    if _object(node, where, diags) is None:
        return None
    _unknown(node, f"{where}.", ("csv", "path", "samples", "warp"), diags)
    if "csv" in node and "path" in node:
        diags.append(f"{where}: expected csv or path, not both")
        return None
    if "csv" in node:
        diags.extend(f"{where}.{key}: a csv curve takes no {key} (its rows "
                     "are its samples)" for key in ("samples", "warp")
                     if key in node)
        if not isinstance(node["csv"], str):
            diags.append(f"{where}.csv: expected a file path")
            return None
        target = FsPath(node["csv"])
        if not target.is_absolute():
            target = base_dir / target
        try:
            with open(target) as handle:
                return _bd.curve_from_csv(handle)
        except FileNotFoundError:
            diags.append(f"{where}.csv: file not found: {target}")
        except (EnvelopeError, OSError, ValueError) as exc:
            diags.append(f"{where}.csv: {exc}")
        return None
    if "path" in node:
        path = _path_from_node(node["path"], f"{where}.path", diags)
        if path is None:
            return None
        samples = _integer(node, "samples", 256, _bd.MIN_NODES,
                           _bd.MAX_NODES, diags, f"{where}.samples")
        if fn is None:  # a refused function has its own diagnostic
            if not fn_given:
                diags.append(f"{where}: sampling a path needs a function")
            return None
        warp_amp = _json_number(_field(node, "warp", 0.0))
        if warp_amp is None or not 0 <= warp_amp < 1:
            diags.append(f"{where}.warp: amplitude in [0, 1) required")
            return None
        warp = _bd.odd_warp(warp_amp) if warp_amp else None
        try:
            return _bd.sample_path(path, fn, samples, warp)
        except EnvelopeError as exc:
            diags.append(f"{where}: {exc}")
            return None
    diags.append(f"{where}: expected csv or path")
    return None


def build_config(raw: dict, base_dir: FsPath | None = None
                 ) -> tuple[ScenarioConfig | None, list[str]]:
    """Normalize and validate a scenario tree; diagnostics carry field
    paths so a batch harness can pinpoint the offending key."""
    diags: list[str] = []
    base_dir = base_dir or FsPath.cwd()
    if not isinstance(raw, dict):
        return None, ["scenario: expected a JSON object"]
    _unknown(raw, "", FIELDS, diags)

    fn = None
    fn_text = raw.get("function")
    if fn_text is not None:
        if not isinstance(fn_text, str):
            diags.append("function: expected an expression string")
        else:
            try:
                fn = _expr.parse(fn_text)
            except ParseError as exc:
                diags.append(f"function: {exc}")

    checks = raw.get("checks", [])
    if not isinstance(checks, list) or not checks:
        diags.append("checks: non-empty list required")
        checks = []
    for c in checks:
        if c not in ALL_CHECKS:
            diags.append(f"checks: unknown check '{c}' (choose from "
                         f"{', '.join(ALL_CHECKS)})")
    for c in ALL_CHECKS:
        if checks.count(c) > 1:
            diags.append(f"checks: '{c}' listed {checks.count(c)} times "
                         "(each check runs once)")

    domain = None
    if raw.get("domain") is not None:
        domain = _build_domain(raw["domain"], "domain", diags)
    curve = None
    if raw.get("curve") is not None:
        curve = _build_curve(raw["curve"], "curve", base_dir, fn,
                             fn_text is not None, diags)

    # a field that is given but wrong has its own diagnostic already
    for c in checks:
        if c in DOMAIN_CHECKS:
            if raw.get("domain") is None:
                diags.append(f"checks: '{c}' needs a domain")
            if fn_text is None:
                diags.append(f"checks: '{c}' needs a function")
        if c in CURVE_CHECKS and raw.get("curve") is None:
            diags.append(f"checks: '{c}' needs a curve")

    # each degree, point or radius is one row of a stacked integral, and
    # each tower level one array over the samples, so all four are capped
    cap = _mom.MAX_MOMENT_DEGREE
    max_degree = _integer(raw, "max_degree", None, 0, cap, diags)
    tower_levels = _integer(raw, "tower_levels", _bd.TOWER_LEVELS, 1,
                            cap, diags)

    # an empty list of points reads as absent, like null: the extension
    # check then takes the domain's witness points, and cauchy needs points
    points = None
    no_points = raw.get("points") in (None, [])
    if not no_points:
        if not isinstance(raw["points"], list):
            diags.append("points: expected a list of [re, im] pairs")
        elif len(raw["points"]) > cap:
            diags.append(f"points: at most {cap} pairs")
        else:
            pts = [_as_complex(p, f"points[{i}]", diags)
                   for i, p in enumerate(raw["points"])]
            if all(p is not None for p in pts):
                points = tuple(pts)

    node_index = _integer(raw, "node_index", 0, 0, (
        _bd.MAX_NODES if curve is None else curve.intervals) - 1, diags)
    radii_raw = _field(raw, "radii", list(_bd.NONTANGENTIAL_RADII))
    radii = tuple(_json_number(r) for r in radii_raw) \
        if isinstance(radii_raw, list) else ()
    if len(radii) > cap:
        diags.append(f"radii: at most {cap} numbers")
    elif not radii or None in radii or min(radii) <= 0:
        diags.append("radii: list of positive numbers required")
    elif sorted(radii, reverse=True) != list(radii):
        diags.append("radii: must decrease")

    tols = _object(_field(raw, "tolerances", {}), "tolerances", diags) or {}
    defaults = {"abs": _mom.ZeroTolerance.abs_tol,
                "rel": _mom.ZeroTolerance.rel_tol,
                "quadrature": _quad.DEFAULT_TOL}
    _unknown(tols, "tolerances.", tuple(defaults), diags)
    tol_values = {}
    for name, default in defaults.items():
        tol_values[name] = _json_number(_field(tols, name, default))
        if tol_values[name] is None or tol_values[name] <= 0:
            diags.append(f"tolerances.{name}: positive number required")

    if "cauchy" in checks and no_points:
        diags.append("points: required for the cauchy check")

    if diags:
        return None, diags
    config = ScenarioConfig(
        raw=raw, function=fn, domain=domain,
        curve=curve, checks=tuple(checks), max_degree=max_degree,
        tower_levels=tower_levels, points=points, node_index=node_index,
        radii=radii,
        zero_tol=_mom.ZeroTolerance(tol_values["abs"], tol_values["rel"]),
        quad_tol=tol_values["quadrature"])
    return config, []


def validate(raw: dict, base_dir: FsPath | None = None) -> list[str]:
    _, diags = build_config(raw, base_dir)
    return diags


# ---------------------------------------------------------------------------
# value serialization

def _jsonable(value):
    """value with plain JSON types only: a complex number as [re, im], a
    numpy number as a float, and a float that is not finite as its repr
    ("nan", "inf", "-inf"), so a report stays strict JSON."""
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        if cmath.isfinite(value):
            return [value.real, value.imag]
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        value = float(value)
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


# ---------------------------------------------------------------------------
# check runners

def _run_moments(cfg: ScenarioConfig) -> tuple[dict, dict, str]:
    degree = _mom.DEFAULT_DEGREE_CUTOFF if cfg.max_degree is None \
        else cfg.max_degree
    rows = [{"curve_id": vec.curve_id,
             "moments": list(vec.values),
             "scale": vec.scale,
             "first_nonzero": vec.first_nonzero(cfg.zero_tol)}
            for vec in _mom._basis_moments(cfg.function, cfg.domain, degree,
                                           cfg.quad_tol)]
    values = {"degree_cutoff": degree, "curves": rows}
    tol = {"abs": cfg.zero_tol.abs_tol, "rel": cfg.zero_tol.rel_tol}
    return values, tol, "ok"


def _run_primitive_order(cfg: ScenarioConfig) -> tuple[dict, dict, str]:
    verdict = _mom._verdict(cfg.domain, cfg.max_degree, cfg.quad_tol,
                            cfg.zero_tol, f=cfg.function)
    values = {
        "max_order": verdict.max_order,
        "all_orders": verdict.all_orders,
        "tested_through": verdict.tested_through,
        "definitive": verdict.definitive,
        "certificate": verdict.certificate,
        "per_curve_first_nonzero": list(verdict.per_curve_first_nonzero),
    }
    tol = {"abs": cfg.zero_tol.abs_tol, "rel": cfg.zero_tol.rel_tol}
    return values, tol, "ok"


def _run_extension(cfg: ScenarioConfig) -> tuple[dict, dict, str]:
    verdict = _mom._verdict(cfg.domain, cfg.max_degree, cfg.quad_tol,
                            cfg.zero_tol, f=cfg.function)
    tol = {"contour": _ext.CONTOUR_TOL}
    if not verdict.all_orders:
        values = {"extends": False, "blocking_degree": verdict.max_order,
                  "certificate": verdict.certificate}
        return values, tol, "ok"
    points = cfg.domain.witnesses if cfg.points is None else cfg.points
    vals, alts, worst = _ext._contour_pair(cfg.function, cfg.domain,
                                           np.array(points, dtype=complex),
                                           cfg.quad_tol, verdict)
    status = "ok" if worst <= _ext.CONTOUR_TOL else "inconsistent"
    values = {"extends": True, "points": list(points), "values": vals,
              "alt_values": alts, "max_contour_discrepancy": worst}
    return values, tol, status


def _run_cross_verify(cfg: ScenarioConfig) -> tuple[dict, dict, str]:
    report = _ext.cross_verify(cfg.function, cfg.domain, cfg.max_degree,
                               tol=cfg.quad_tol, zero_tol=cfg.zero_tol)
    values = {
        "max_order": report.verdict.max_order,
        "all_orders": report.verdict.all_orders,
        "certificate": report.verdict.certificate,
        "duality_max_residual": report.duality_max_residual,
        "reconstruction_max_residual": report.decomposition.max_residual(),
        "findings": list(report.findings),
    }
    if report.extension is not None:
        values["extension_max_contour_discrepancy"] = \
            report.extension.max_contour_discrepancy
        values["extension_max_reference_residual"] = \
            report.extension.max_reference_residual
    tol = {"abs": cfg.zero_tol.abs_tol, "rel": cfg.zero_tol.rel_tol,
           "contour": _ext.CONTOUR_TOL}
    return values, tol, ("ok" if report.consistent else "inconsistent")


def _run_boundary_tower(cfg: ScenarioConfig) -> tuple[dict, dict, str]:
    report = _bd.boundary_duality(cfg.curve, cfg.tower_levels, cfg.zero_tol,
                                 cfg.quad_tol)
    tower = report.tower
    values = {
        "pass_depth": tower.pass_depth,
        "leading_zero_count": tower.leading_zero_count,
        "depth_matches": tower.duality_consistent,
        "closing_defects": [lv.closing_defect for lv in tower.levels],
        "moments": list(tower.moments),
        "ibp_residuals": list(report.ibp_residuals),
        "analytic_ibp": report.analytic_ibp,
    }
    tol = {"abs": cfg.zero_tol.abs_tol, "rel": cfg.zero_tol.rel_tol}
    return values, tol, ("ok" if tower.duality_consistent else "inconsistent")


def _run_cauchy(cfg: ScenarioConfig) -> tuple[dict, dict, str]:
    points = np.array(cfg.points, dtype=complex)
    vals = _bd.cauchy_transform(cfg.curve, points, cfg.quad_tol)
    values = {"points": list(cfg.points), "values": list(map(complex, vals))}
    return values, {"quadrature": cfg.quad_tol}, "ok"


def _run_nontangential(cfg: ScenarioConfig) -> tuple[dict, dict, str]:
    report = _bd.nontangential_check(cfg.curve, cfg.node_index, cfg.radii,
                                     cfg.quad_tol, cfg.zero_tol)
    values = {
        "node_index": report.node_index,
        "boundary_point": report.boundary_point,
        "boundary_value": report.boundary_value,
        "residuals": list(report.residuals),
        "matches_boundary": report.matches_boundary,
        "expected_match": report.expected_match,
    }
    status = "ok" if report.consistent else "inconsistent"
    return values, {"match": _bd.MATCH_TOL}, status


def _run_chord_arc(cfg: ScenarioConfig) -> tuple[dict, dict, str]:
    report = _bd.difference_quotient_check(cfg.curve, cfg.node_index)
    values = {
        "constant": report.constant,
        "offsets": list(report.offsets),
        "residuals": list(report.residuals),
        "bounds": list(report.bounds),
        "bound_satisfied": report.bound_satisfied,
    }
    status = "ok" if report.bound_satisfied else "inconsistent"
    return values, {"relative_slack": _bd.BOUND_RELATIVE_SLACK,
                    "absolute_slack": _bd.BOUND_ABSOLUTE_SLACK}, status


_RUNNERS = {
    "moments": _run_moments,
    "primitive_order": _run_primitive_order,
    "extension": _run_extension,
    "cross_verify": _run_cross_verify,
    "boundary_tower": _run_boundary_tower,
    "cauchy": _run_cauchy,
    "nontangential": _run_nontangential,
    "chord_arc": _run_chord_arc,
}


@dataclass(frozen=True, eq=False)
class Report:
    version: str
    scenario: dict
    results: tuple[dict, ...]
    timings: dict

    @property
    def exit_code(self) -> int:
        statuses = [r["status"] for r in self.results]
        if any(s == "error" for s in statuses):
            return 1
        if any(s == "inconsistent" for s in statuses):
            return 2
        return 0

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "scenario": _jsonable(self.scenario),
            "results": _jsonable(list(self.results)),
            "timings": _jsonable(self.timings),
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = [f"envelope {self.version}"]
        for row in self.results:
            lines.append(f"[{row['status']}] {row['check']}")
            for key, value in row["values"].items():
                lines.append(f"    {key}: {json.dumps(_jsonable(value))}")
        lines.append(f"total time: {self.timings['total_s']:.3f}s")
        return "\n".join(lines)


def run_scenario(config: ScenarioConfig) -> Report:
    """Execute the requested checks in the fixed order of ALL_CHECKS and
    report each row, and its timing, where the scenario lists the check.

    An exception inside one check becomes a structured error row; the
    remaining checks still run, so a batch never loses results to one bad
    entry. run_scenario keeps no state of its own: what the checks learn,
    the moment tables and verdict and any error included, is kept on the
    config's domain (geometry._kept) and goes with it, so every check that
    reads the verdict reports one verdict or one error. The fixed order
    runs the moments check before the checks that read the verdict, so a
    report does not depend on the order in which the checks are listed.
    """
    rows = {}
    spent = {}
    start_all = time.perf_counter()
    for check in sorted(config.checks, key=ALL_CHECKS.index):
        started = time.perf_counter()
        try:
            values, tol, status = _RUNNERS[check](config)
        except EnvelopeError as exc:
            values = {"error": str(exc), "error_type": type(exc).__name__}
            tol = {}
            status = "error"
        spent[check] = round(time.perf_counter() - started, 6)
        rows[check] = {"check": check, "status": status,
                       "values": values, "tolerance_used": tol}
    timings = {check: spent[check] for check in config.checks}
    timings["total_s"] = round(time.perf_counter() - start_all, 6)
    return Report(__version__, config.raw,
                  tuple(rows[check] for check in config.checks), timings)


# ---------------------------------------------------------------------------
# entry point

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envelope",
        description="cross-checked verification of one-valued primitives, "
                    "holomorphic extension and boundary measures")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the checks in a scenario file")
    val_p = sub.add_parser("validate", help="check a scenario file")
    for command in (run_p, val_p):
        command.add_argument("--scenario", required=True,
                             help="path to the scenario JSON file")
    run_p.add_argument("--format", choices=("json", "text"), default="json")
    run_p.add_argument("--out", default=None,
                       help="write the report here instead of stdout")
    return parser


# built once: main parses with it on every call
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    scenario_path = FsPath(args.scenario)
    try:
        with open(scenario_path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        print(f"scenario file not found: {scenario_path}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read the scenario file: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # also bytes that are not UTF-8
        print(f"scenario is not valid JSON: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        diags = validate(raw, scenario_path.parent)
        for d in diags:
            print(d)
        if diags:
            return 1
        print("scenario is runnable")
        return 0

    config, diags = build_config(raw, scenario_path.parent)
    if config is None:
        for d in diags:
            print(d, file=sys.stderr)
        return 1
    report = run_scenario(config)
    rendered = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        try:
            FsPath(args.out).write_text(rendered + "\n")
        except OSError as exc:
            print(f"cannot write the report: {exc}", file=sys.stderr)
            return 1
    else:
        print(rendered)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
