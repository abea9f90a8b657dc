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
import functools
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

DEFAULT_QUAD_TOL = _quad.DEFAULT_TOL
# every tower level keeps one array per sample, so the sample count is
# capped like the level count
MAX_SAMPLES = 2 ** 16


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    raw: dict
    function: object | None
    domain: _geom.DomainSpec | None
    curve: _bd.SampledCurve | None
    checks: tuple[str, ...]
    max_degree: int | None
    laurent_terms: int | None
    tower_levels: int
    points: tuple[complex, ...] | None
    node_index: int
    radii: tuple[float, ...]
    zero_tol: _mom.ZeroTolerance
    quad_tol: float
    fmt: str


def _object(node, where: str, diags: list[str]) -> dict | None:
    if isinstance(node, dict):
        return node
    diags.append(f"{where}: expected an object")
    return None


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
    try:
        if "circle" in node:
            spec = _object(node["circle"], f"{where}.circle", diags)
            if spec is None:
                return None
            center = _as_complex(spec.get("center", [0.0, 0.0]),
                                 f"{where}.circle.center", diags)
            radius = _json_coordinate(spec.get("radius"))
            if center is None or radius is None or radius <= 0:
                diags.append(f"{where}.circle.radius: positive number of at "
                             f"most {_geom.MAX_COORDINATE:g} required")
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
    diags.append(f"{where}: expected one of circle, polygon, segments")
    return None


def _build_domain(node, where: str, diags: list[str]
                  ) -> _geom.DomainSpec | None:
    if _object(node, where, diags) is None:
        return None
    outer = None
    if node.get("outer") is not None:
        outer = _path_from_node(node["outer"], f"{where}.outer", diags)
        if outer is None:
            return None
    holes_raw = node.get("holes", [])
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


def _build_curve(node, where: str, base_dir: FsPath, fn,
                 diags: list[str]) -> _bd.SampledCurve | None:
    if _object(node, where, diags) is None:
        return None
    if "csv" in node:
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
        samples = _integer(node, "samples", 256, _bd.MIN_NODES, MAX_SAMPLES,
                           diags, f"{where}.samples")
        if fn is None:
            diags.append(f"{where}: sampling a path needs a function")
            return None
        warp_amp = _json_number(node.get("warp", 0.0))
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


def build_config(raw: dict, base_dir: FsPath | None = None,
                 overrides: dict | None = None
                 ) -> tuple[ScenarioConfig | None, list[str]]:
    """Normalize and validate a scenario tree; diagnostics carry field
    paths so a batch harness can pinpoint the offending key."""
    diags: list[str] = []
    base_dir = base_dir or FsPath.cwd()
    overrides = overrides or {}
    if not isinstance(raw, dict):
        return None, ["scenario: expected a JSON object"]
    merged = dict(raw)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value

    fn = None
    fn_text = merged.get("function")
    if fn_text is not None:
        if not isinstance(fn_text, str):
            diags.append("function: expected an expression string")
        else:
            try:
                fn = _expr.parse(fn_text)
            except ParseError as exc:
                diags.append(f"function: {exc}")

    checks = merged.get("checks", [])
    if not isinstance(checks, list) or not checks:
        diags.append("checks: non-empty list required")
        checks = []
    for c in checks:
        if c not in ALL_CHECKS:
            diags.append(f"checks: unknown check '{c}' (choose from "
                         f"{', '.join(ALL_CHECKS)})")

    domain = None
    if merged.get("domain") is not None:
        domain = _build_domain(merged["domain"], "domain", diags)
    curve = None
    if merged.get("curve") is not None:
        curve = _build_curve(merged["curve"], "curve", base_dir, fn, diags)

    for c in checks:
        if c in DOMAIN_CHECKS:
            if domain is None:
                diags.append(f"checks: '{c}' needs a domain")
            if fn is None:
                diags.append(f"checks: '{c}' needs a function")
        if c in CURVE_CHECKS and curve is None:
            diags.append(f"checks: '{c}' needs a curve")

    cap = _mom.MAX_MOMENT_DEGREE
    max_degree = _integer(merged, "max_degree", None, 0, cap, diags)
    # both size arrays (one per tower level, one stack component per
    # Laurent term), so both are capped
    laurent_terms = _integer(merged, "laurent_terms", None, 1, cap + 1,
                             diags)
    tower_levels = _integer(merged, "tower_levels", 4, 1, cap, diags)

    points = None
    if merged.get("points") is not None:
        if not isinstance(merged["points"], list):
            diags.append("points: expected a list of [re, im] pairs")
        else:
            pts = [_as_complex(p, f"points[{i}]", diags)
                   for i, p in enumerate(merged["points"])]
            if all(p is not None for p in pts):
                points = tuple(pts)

    node_index = _json_number(merged.get("node_index", 0), integer=True)
    if node_index is None or node_index < 0:
        diags.append("node_index: must be >= 0")
        node_index = 0
    radii_raw = merged.get("radii", list(_bd.NONTANGENTIAL_RADII))
    radii = tuple(_json_number(r) for r in radii_raw) \
        if isinstance(radii_raw, list) else ()
    if not radii or None in radii or min(radii) <= 0:
        diags.append("radii: list of positive numbers required")
    elif sorted(radii, reverse=True) != list(radii):
        diags.append("radii: must decrease")

    tols = _object(merged.get("tolerances", {}), "tolerances", diags) or {}
    defaults = {"abs": 1e-9, "rel": 1e-10, "quadrature": DEFAULT_QUAD_TOL}
    tol_values = {}
    for name, default in defaults.items():
        tol_values[name] = _json_number(tols.get(name, default))
        if tol_values[name] is None or tol_values[name] <= 0:
            diags.append(f"tolerances.{name}: positive number required")
    fmt = merged.get("format", "json")
    if fmt not in ("json", "text"):
        diags.append("format: json or text")
        fmt = "json"

    if "cauchy" in checks and points is None:
        diags.append("points: required for the cauchy check")

    if diags:
        return None, diags
    config = ScenarioConfig(
        raw=merged, function=fn, domain=domain,
        curve=curve, checks=tuple(checks), max_degree=max_degree,
        laurent_terms=laurent_terms, tower_levels=tower_levels,
        points=points, node_index=node_index, radii=radii,
        zero_tol=_mom.ZeroTolerance(tol_values["abs"], tol_values["rel"]),
        quad_tol=tol_values["quadrature"], fmt=fmt)
    return config, []


def validate(raw: dict, base_dir: FsPath | None = None) -> list[str]:
    _, diags = build_config(raw, base_dir)
    return diags


# ---------------------------------------------------------------------------
# value serialization

def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.complexfloating,)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


# ---------------------------------------------------------------------------
# check runners
#
# Every runner takes the config and `scan`, a callable returning the
# scenario's moment verdict (computed on first call, then shared).

def _run_moments(cfg: ScenarioConfig, scan) -> tuple[dict, dict, str]:
    degree = cfg.max_degree if cfg.max_degree is not None \
        else _mom.DEFAULT_DEGREE_CUTOFF
    rows = [{"curve_id": vec.curve_id,
             "moments": list(vec.values),
             "scale": vec.scale,
             "first_nonzero": vec.first_nonzero(cfg.zero_tol)}
            for vec in _mom._basis_moments(cfg.function, cfg.domain, degree,
                                           cfg.quad_tol)]
    values = {"degree_cutoff": degree, "curves": rows}
    tol = {"abs": cfg.zero_tol.abs_tol, "rel": cfg.zero_tol.rel_tol}
    return values, tol, "ok"


def _run_primitive_order(cfg: ScenarioConfig, scan) -> tuple[dict, dict, str]:
    verdict = scan()
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


def _run_extension(cfg: ScenarioConfig, scan) -> tuple[dict, dict, str]:
    verdict = scan()
    tol = {"contour": _ext.CONTOUR_TOL}
    if not verdict.all_orders:
        values = {"extends": False, "blocking_degree": verdict.max_order,
                  "certificate": verdict.certificate}
        return values, tol, "ok"
    points = cfg.points
    if points is None:
        points = tuple(_geom.hole_witness(cfg.domain, j)
                       for j in range(len(cfg.domain.holes)))
    vals = _ext.evaluate_extension_many(cfg.function, cfg.domain, points,
                                        cfg.quad_tol, verdict, 0)
    alts = _ext.evaluate_extension_many(cfg.function, cfg.domain, points,
                                        cfg.quad_tol, verdict, 1)
    worst = max((abs(v0 - v1) for v0, v1 in zip(vals, alts)), default=0.0)
    status = "ok" if worst <= _ext.CONTOUR_TOL else "inconsistent"
    values = {"extends": True, "points": list(points), "values": vals,
              "alt_values": alts, "max_contour_discrepancy": worst}
    return values, tol, status


def _run_cross_verify(cfg: ScenarioConfig, scan) -> tuple[dict, dict, str]:
    report = _ext.cross_verify(cfg.function, cfg.domain, cfg.max_degree,
                               cfg.laurent_terms, cfg.quad_tol, cfg.zero_tol,
                               verdict=scan())
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


def _run_boundary_tower(cfg: ScenarioConfig, scan) -> tuple[dict, dict, str]:
    report = _bd.boundary_duality(cfg.curve, cfg.tower_levels, cfg.zero_tol,
                                 cfg.quad_tol)
    values = {
        "pass_depth": report.pass_depth,
        "leading_zero_count": report.leading_zero_count,
        "depth_matches": report.depth_matches,
        "closing_defects": [lv.closing_defect for lv in report.tower.levels],
        "moments": list(report.tower.moments),
        "ibp_residuals": list(report.ibp_residuals),
        "analytic_ibp": report.analytic_ibp,
    }
    tol = {"abs": cfg.zero_tol.abs_tol, "rel": cfg.zero_tol.rel_tol}
    return values, tol, ("ok" if report.depth_matches else "inconsistent")


def _run_cauchy(cfg: ScenarioConfig, scan) -> tuple[dict, dict, str]:
    points = np.array(cfg.points, dtype=complex)
    vals = _bd.cauchy_transform(cfg.curve, points, cfg.quad_tol)
    values = {"points": list(cfg.points), "values": list(map(complex, vals))}
    return values, {"quadrature": cfg.quad_tol}, "ok"


def _run_nontangential(cfg: ScenarioConfig, scan) -> tuple[dict, dict, str]:
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


def _run_chord_arc(cfg: ScenarioConfig, scan) -> tuple[dict, dict, str]:
    constant = _bd.chord_arc_constant(cfg.curve)
    report = _bd.difference_quotient_check(cfg.curve, cfg.node_index,
                                           constant)
    values = {
        "constant": constant,
        "offsets": list(report.offsets),
        "residuals": list(report.residuals),
        "bounds": list(report.bounds),
        "bound_satisfied": report.bound_satisfied,
    }
    status = "ok" if report.bound_satisfied else "inconsistent"
    return values, {"relative_slack": 1e-9}, status


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
    """Execute the requested checks in declared order.

    An exception inside one check becomes a structured error row; the
    remaining checks still run, so a batch never loses results to one bad
    entry. The moment verdict is computed at most once and shared by the
    checks that need it; a verdict that raises is not kept, so every such
    check reports the error.
    """
    # functools.cache keeps results, never exceptions
    scan = functools.cache(lambda: _mom.max_primitive_order(
        config.function, config.domain, config.max_degree, config.quad_tol,
        config.zero_tol))
    results = []
    timings = {}
    start_all = time.perf_counter()
    for check in config.checks:
        runner = _RUNNERS[check]
        started = time.perf_counter()
        try:
            values, tol, status = runner(config, scan)
        except EnvelopeError as exc:
            values = {"error": str(exc), "error_type": type(exc).__name__}
            tol = {}
            status = "error"
        timings[check] = round(time.perf_counter() - started, 6)
        results.append({"check": check, "status": status,
                        "values": values, "tolerance_used": tol})
    timings["total_s"] = round(time.perf_counter() - start_all, 6)
    return Report(__version__, config.raw, tuple(results), timings)


# ---------------------------------------------------------------------------
# entry point

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--scenario", required=True,
                        help="path to the scenario JSON file")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="envelope",
        description="cross-checked verification of one-valued primitives, "
                    "holomorphic extension and boundary measures")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the checks in a scenario file")
    _add_common(run_p)
    run_p.add_argument("--tol-abs", type=float, default=None,
                       help="absolute zero-test tolerance")
    run_p.add_argument("--tol-rel", type=float, default=None,
                       help="relative zero-test tolerance")
    run_p.add_argument("--max-degree", type=int, default=None,
                       help="moment degree cutoff")
    run_p.add_argument("--format", choices=("json", "text"), default=None)
    run_p.add_argument("--out", default=None,
                       help="write the report here instead of stdout")

    val_p = sub.add_parser("validate", help="check a scenario file")
    _add_common(val_p)

    args = parser.parse_args(argv)
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

    overrides: dict = {}
    tols = raw.get("tolerances", {}) if isinstance(raw, dict) else {}
    # a tolerances field that is not an object is left for build_config
    # to diagnose
    if isinstance(tols, dict) \
            and (args.tol_abs is not None or args.tol_rel is not None):
        tols = dict(tols)
        if args.tol_abs is not None:
            tols["abs"] = args.tol_abs
        if args.tol_rel is not None:
            tols["rel"] = args.tol_rel
        overrides["tolerances"] = tols
    if args.max_degree is not None:
        overrides["max_degree"] = args.max_degree
    if args.format is not None:
        overrides["format"] = args.format

    config, diags = build_config(raw, scenario_path.parent, overrides)
    if config is None:
        for d in diags:
            print(d, file=sys.stderr)
        return 1
    report = run_scenario(config)
    rendered = report.to_json() if config.fmt == "json" else report.to_text()
    if args.out:
        FsPath(args.out).write_text(rendered + "\n")
    else:
        print(rendered)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
