"""The span tracer of perfbench/spans.py still finds the layers it counts.

The tracer wraps package functions by name from outside the package, so a
function that moves or is renamed would silently read zero in the
benchmark's per-layer metrics; this test fails instead. It imports
perfbench/spans.py and perfbench/corpus.py from their files and edits
neither.
"""

import importlib.util
import json
import sys
from pathlib import Path

from envelope import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer(tmp_path):
    spans, corpus = _load("spans"), _load("corpus")
    scenarios = [
        next(sc for sc in corpus.block("curve", 3, 0)
             if "path-pole-outside" in sc.sid),
        next(sc for sc in corpus.block("domain-circle", 3, 0)
             if sc.sid.endswith("annulus-regular")),
        next(sc for sc in corpus.block("domain-circle", 3, 0)
             if sc.sid.endswith("two-circles-poles")),
    ]
    # the package keeps no process-wide cache: a scenario starts afresh
    assert spans.package_caches() == []
    tracer = spans.Tracer()
    reports = []
    tracer.install()
    try:
        for sc in scenarios:
            tracer.start_scenario(sc.sid)
            out = tmp_path / f"{sc.sid}.report.json"
            code = cli.main(["run", "--scenario",
                             str(corpus.write_scenario(sc, tmp_path)),
                             "--out", str(out)])
            assert code == 0
            reports.append(json.loads(out.read_text()))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(scenarios), reports)
    for name in ("quadrature.integrals", "moments.scans",
                 "moments.moment_vectors", "extension.decompose_s",
                 "expr.pole_set_s", "geometry.basis_s",
                 "extension.cross_verify_s", "boundary.chord_arc_s"):
        assert metrics[name][0] > 0, name
    # one moment table per basis curve, each a moment_vector call, shared
    # by the checks of its scenario
    holes = sum(len(sc.raw["domain"]["holes"]) for sc in scenarios
                if "domain" in sc.raw)
    assert metrics["moments.moment_vectors"][0] == holes == 3
