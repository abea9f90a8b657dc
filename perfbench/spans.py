"""Span tracing of the envelope package from outside it.

``Tracer.install`` replaces the public functions of each layer module (and
a few methods) with wrappers that record a span per call: an id, the id of
the enclosing span, the name, start and end times, and the scenario id.
Callers inside the package look these names up on the module at call time,
so the wrappers see internal calls too. Spans stay in memory until
``write`` saves them; ``metrics`` derives the per-layer numbers, where a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("cli", "expr", "geometry", "quadrature", "moments", "extension",
          "boundary")
METHODS = (("geometry", "DomainSpec", "contains"),
           ("geometry", "DomainSpec", "contains_many"),
           ("cli", "Report", "to_json"),
           ("cli", "Report", "to_text"))

GAUSS_ORDER = 16
# Basis curves with at least this many segments are the dilated polygons
# (512 segments); every other contour in the corpora has at most 5.
DILATED_MIN_SEGMENTS = 64


def layer_modules() -> dict:
    return {name: importlib.import_module(f"envelope.{name}")
            for name in LAYERS}


def package_caches() -> list:
    """Every functools cache in the layer modules, public or not."""
    caches = []
    for module in layer_modules().values():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                caches.append(obj)
    return caches


class Tracer:
    def __init__(self):
        # (span id, parent id, name, start, end, scenario, outermost)
        self.spans: list[tuple] = []
        self.scenario: str | None = None
        self.counts: Counter = Counter()
        self.max_error_estimate = 0.0
        self.chord_arc_peak = 0
        self._stack = [0]
        self._active: Counter = Counter()
        self._next_id = 1
        self._restore: list[tuple] = []
        self._seen_errors: set[int] = set()
        self._seen_basis: set[int] = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, module in layer_modules().items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if not (inspect.isfunction(obj)
                        or callable(getattr(obj, "cache_clear", None))):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                self._patch(module, attr, f"{layer}.{attr}", obj)
        modules = layer_modules()
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, f"{layer}.{cls_name}.{attr}",
                        vars(cls)[attr])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def start_scenario(self, sid: str) -> None:
        self.scenario = sid
        self._seen_basis.clear()
        self._seen_errors.clear()

    def _patch(self, owner, attr: str, name: str, fn) -> None:
        hook = _HOOKS.get(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            outer = active[name] == 0
            stack.append(sid)
            active[name] += 1
            result = exc = None
            if hook:
                hook(tracer, "enter", args, None, None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans.append((sid, parent, name, start, end, tracer.scenario,
                              outer))
                if hook:
                    hook(tracer, "exit", args, result, exc)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    # -- output -------------------------------------------------------------

    def write(self, target) -> None:
        """Spans as gzipped tab-separated lines, times in seconds from the
        first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(target, "wt") as handle:
            handle.write("span\tparent\tname\tscenario\tstart_s\tend_s\n")
            for sid, parent, name, start, end, scen, _ in self.spans:
                handle.write(f"{sid}\t{parent}\t{name}\t{scen}\t"
                             f"{start - t0:.9f}\t{end - t0:.9f}\n")

    def metrics(self, scenarios: int, reports: list[dict]) -> dict:
        child = defaultdict(float)
        for sid, parent, name, start, end, _, _ in self.spans:
            child[parent] += end - start
        incl: Counter = Counter()
        calls: Counter = Counter()
        self_by_layer: Counter = Counter()
        for sid, parent, name, start, end, _, outer in self.spans:
            calls[name] += 1
            if outer:
                incl[name] += end - start
            self_by_layer[name.split(".", 1)[0]] += \
                (end - start) - child[sid]
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        rows = [r for rep in reports for r in rep.get("results", [])]
        out = {
            "expr.eval_calls": (calls["expr.evaluate"], "count"),
            "expr.eval_points": (c["eval_points"], "count"),
            "expr.points_per_call": (ratio(c["eval_points"],
                                           calls["expr.evaluate"]), "count"),
            "expr.eval_s": (incl["expr.evaluate"], "s"),
            "expr.points_per_s": (ratio(c["eval_points"],
                                        incl["expr.evaluate"]), "1/s"),
            "expr.pole_set_s": (incl["expr.pole_set"], "s"),
            "quadrature.integrals": (c["integrals"], "count"),
            "quadrature.panels": (c["panels"], "count"),
            "quadrature.panels_per_integral": (ratio(c["panels"],
                                                     c["integrals"]), "count"),
            "quadrature.dilated_integrals": (c["dilated_integrals"], "count"),
            "quadrature.dilated_panels_per_integral": (
                ratio(c["dilated_panels"], c["dilated_integrals"]), "count"),
            "quadrature.self_s": (self_by_layer["quadrature"], "s"),
            "quadrature.max_error_estimate": (self.max_error_estimate, "abs"),
            "quadrature.budget_errors": (c["budget_errors"], "count"),
            "moments.scans": (calls["moments.max_primitive_order"], "count"),
            "moments.scans_per_scenario": (
                ratio(calls["moments.max_primitive_order"], scenarios),
                "count"),
            "moments.scan_s": (incl["moments.max_primitive_order"], "s"),
            "moments.moment_vectors": (calls["moments.moment_vector"],
                                       "count"),
            "moments.moment_vector_s": (incl["moments.moment_vector"], "s"),
            "extension.decompose_s": (incl["extension.decompose"], "s"),
            "extension.laurent_coefficients": (
                calls["extension.laurent_coefficient"], "count"),
            "extension.eval_calls": (calls["extension.evaluate_extension"],
                                     "count"),
            "extension.eval_s": (incl["extension.evaluate_extension"], "s"),
            "extension.cross_verify_s": (incl["extension.cross_verify"], "s"),
            "geometry.basis_s": (incl["geometry.homology_basis"]
                                 + incl["geometry.basis_curve_variants"], "s"),
            "geometry.basis_segments": (c["basis_segments"], "count"),
            "geometry.winding_calls": (calls["geometry.winding_number"],
                                       "count"),
            "geometry.winding_s": (incl["geometry.winding_number"], "s"),
            "geometry.membership_s": (
                incl["geometry.DomainSpec.contains"]
                + incl["geometry.DomainSpec.contains_many"], "s"),
            "boundary.tower_s": (incl["boundary.primitive_tower"], "s"),
            "boundary.analytic_ibp_s": (incl["boundary.analytic_ibp_residual"],
                                        "s"),
            "boundary.analytic_ibp_integrals": (c["analytic_ibp_integrals"],
                                                "count"),
            "boundary.cauchy_s": (incl["boundary.cauchy_transform"], "s"),
            "boundary.nontangential_s": (incl["boundary.nontangential_check"],
                                         "s"),
            "boundary.diff_quotient_s": (
                incl["boundary.difference_quotient_check"], "s"),
            "boundary.chord_arc_s": (incl["boundary.chord_arc_constant"], "s"),
            "boundary.chord_arc_peak_mb": (self.chord_arc_peak / 2 ** 20,
                                           "MB"),
            "cli.build_config_s": (incl["cli.build_config"], "s"),
            "cli.run_scenario_s": (incl["cli.run_scenario"], "s"),
            "cli.render_s": (incl["cli.Report.to_json"]
                             + incl["cli.Report.to_text"], "s"),
            "cli.error_rows": (sum(r["status"] == "error" for r in rows),
                               "count"),
            "cli.inconsistent_rows": (
                sum(r["status"] == "inconsistent" for r in rows), "count"),
        }
        return out


# -- hooks: (tracer, "enter" or "exit", args, result, exc) ------------------

def _is_budget_error(exc) -> bool:
    return type(exc).__name__ == "QuadratureBudgetError"


def _integral_hook(tracer, phase, args, result, exc):
    if phase == "enter":
        return
    c = tracer.counts
    if exc is not None:
        if _is_budget_error(exc) and id(exc) not in tracer._seen_errors:
            tracer._seen_errors.add(id(exc))
            c["budget_errors"] += 1
        return
    c["integrals"] += 1
    panels = result.evaluations // GAUSS_ORDER
    c["panels"] += panels
    tracer.max_error_estimate = max(tracer.max_error_estimate,
                                    result.error_estimate)
    if len(args[1].segments) >= DILATED_MIN_SEGMENTS:
        c["dilated_integrals"] += 1
        c["dilated_panels"] += panels
    if tracer._active["boundary.analytic_ibp_residual"]:
        c["analytic_ibp_integrals"] += 1


def _evaluate_hook(tracer, phase, args, result, exc):
    if phase == "exit":
        z = args[1]
        tracer.counts["eval_points"] += getattr(z, "size", 1)


def _basis_hook(tracer, phase, args, result, exc):
    if phase == "enter" or result is None:
        return
    for curve in result:
        if id(curve) not in tracer._seen_basis:
            tracer._seen_basis.add(id(curve))
            tracer.counts["basis_segments"] += len(curve.segments)


def _chord_arc_hook(tracer, phase, args, result, exc):
    if phase == "enter":
        tracemalloc.start()
        return
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracer.chord_arc_peak = max(tracer.chord_arc_peak, peak)


_HOOKS = {
    "quadrature.integrate": _integral_hook,
    "quadrature.integrate_parameter": _integral_hook,
    "expr.evaluate": _evaluate_hook,
    "geometry.homology_basis": _basis_hook,
    "boundary.chord_arc_constant": _chord_arc_hook,
}
