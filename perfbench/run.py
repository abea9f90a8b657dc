#!/usr/bin/env python3
"""Benchmark of `envelope run` on seeded scenario corpora.

    python3 perfbench/run.py --workload domain-circle --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. Each scenario goes through the
real CLI path, in process: ``envelope.cli.main(["run", "--scenario", ...,
"--out", ...])``, one scenario at a time (a closed loop with one caller).
Every report row is checked against the oracle of ``corpus.py``.

With ``--trace 0`` the run measures the end-to-end metrics over a fixed
number of whole corpus blocks, sized to take about ``--seconds`` seconds
at the baseline. With ``--trace 1`` it runs a fixed number of blocks,
each scenario untraced and traced, and reports the per-layer metrics of
``spans.py``, whose counts repeat exactly for a seed. Scenario and
set-up times are reported at a fixed reference host speed (see
``ReferenceClock``); the wall-clock figures are printed beside them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path as FsPath

import check
import corpus
import spans as tracing

WORKLOADS = tuple(corpus.BLOCKS)
WORK_DIR = ".perfbench_work"
# The only numpy routine that threads is the companion-matrix eigensolver
# of pole finding; one thread keeps the numbers free of scheduler noise.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10
# Baseline cost of one block on two shared 2 GHz cores; timed runs size
# their block count from it.
NOMINAL_BLOCK_S = {"domain-circle": 4.2, "domain-dilated": 5.5,
                   "curve": 2.1}
MIN_BLOCKS = 5
MAX_SETUP_LAUNCHES = 3
WARMUP_SCENARIOS = 3
# Stop starting blocks past this point so the run ends well within 180 s.
HARD_STOP_S = 120.0
TRACE_BLOCKS = {"domain-circle": 2, "domain-dilated": 1, "curve": 4}
# The shared cores switch every few seconds between two speeds about 2x
# apart, so the wall time of the same work spreads by up to 2x between
# runs. Every timed section is therefore also reported in seconds at a
# fixed host speed (see ReferenceClock), and the timing metrics use those.
# A reference panel is 16 nodes of a rational and an exponential term,
# evaluated with numpy and summed, like the program's inner work but using
# no code of the package. REFERENCE_PANEL_S is its time at the faster of
# the two speeds of the 2-core Xeon host the benchmark was tuned on.
REFERENCE_PANEL_S = 1.0e-5
EDGE_PANELS = 200
SAMPLE_PANELS = 40
SAMPLE_INTERVAL_S = 0.05
_reference_rule = None


def reference_loop(panels: int) -> float:
    """Wall time of `panels` reference panels."""
    global _reference_rule
    import numpy as np  # only after main() has set the BLAS thread count

    if _reference_rule is None:
        _reference_rule = np.polynomial.legendre.leggauss(16)
    nodes, weights = _reference_rule
    started = time.perf_counter()
    total = 0j
    for k in range(panels):
        z = complex(math.cos(k), math.sin(k)) + 0.05 * nodes
        total += complex(weights @ (1.0 / (z - 0.3) ** 2
                                    + np.exp(0.1 / (z + 0.2j))))
    return time.perf_counter() - started


class ReferenceClock:
    """Times a section in wall seconds (`wall`) and in seconds at the
    reference host speed (`scaled`).

    EDGE_PANELS reference panels run right before and right after the
    section. With `sample`, SAMPLE_PANELS more run every
    SAMPLE_INTERVAL_S from a SIGALRM handler, which Python calls between
    bytecodes of the section; their time is taken out of the section's.
    The host speed is REFERENCE_PANEL_S times the panels run over the time
    they took. `scaled` is the wall time with the user-mode CPU time of
    `who` (RUSAGE_SELF or RUSAGE_CHILDREN) rescaled by that speed. Kernel
    time (page faults on the large arrays of `curve`) and waiting do not
    follow the speed of user code, and stay as measured."""

    def __init__(self, who: int, sample: bool):
        self.who = who
        self.sample = sample

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.probe_s += reference_loop(SAMPLE_PANELS)
        self.panels += SAMPLE_PANELS
        self.sampled_s += time.perf_counter() - started

    def __enter__(self) -> "ReferenceClock":
        self.probe_s = reference_loop(EDGE_PANELS)
        self.panels = EDGE_PANELS
        self.sampled_s = 0.0
        if self.sample:
            self.previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        self.user = resource.getrusage(self.who).ru_utime
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self.started
        user = resource.getrusage(self.who).ru_utime - self.user
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self.previous)
        self.probe_s += reference_loop(EDGE_PANELS)
        self.panels += EDGE_PANELS
        speed = REFERENCE_PANEL_S * self.panels / self.probe_s
        self.wall = wall - self.sampled_s
        user = max(0.0, user - self.sampled_s)
        self.scaled = self.wall + user * (speed - 1.0)


def launch_setup(src: FsPath, root: FsPath) -> tuple[float, float]:
    """Wall time, and time at the reference host speed, of a fresh
    interpreter importing envelope.cli from this checkout."""
    code = ("import sys, envelope.cli; "
            "sys.exit(0 if envelope.cli.__file__.startswith(sys.argv[1]) "
            "else 3)")
    # no samples during the launch: they would time this process, not the
    # child
    with ReferenceClock(resource.RUSAGE_CHILDREN, sample=False) as clock:
        proc = subprocess.run([sys.executable, "-c", code, str(src)],
                              cwd=root, capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("importing envelope.cli failed: "
                           + proc.stderr.decode(errors="replace")[-500:])
    return clock.wall, clock.scaled


class Runner:
    """Runs scenarios through cli.main and scores them."""

    def __init__(self, cli, work: FsPath):
        self.cli = cli
        self.work = work
        self.caches = tracing.package_caches()

    def run(self, scenario, path: FsPath) -> tuple[int | None, dict | None,
                                                    float, float]:
        """Exit code, report, wall time and time at the reference host
        speed (see ReferenceClock) of one scenario."""
        # a real `envelope run` starts with empty geometry caches
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        out = self.work / f"{scenario.sid}.report.json"
        with ReferenceClock(resource.RUSAGE_SELF, sample=True) as clock:
            try:
                code = self.cli.main(["run", "--scenario", str(path),
                                      "--out", str(out)])
            except Exception:
                code = None
                traceback.print_exc(limit=3, file=sys.stderr)
        report = None
        if code is not None and out.exists():
            report = json.loads(out.read_text())
            out.unlink()
        return code, report, clock.wall, clock.scaled

    def write(self, scenarios) -> list[FsPath]:
        return [corpus.write_scenario(sc, self.work) for sc in scenarios]

    def warm_up(self, workload: str, seed: int) -> None:
        """The last strata of a block of another seed (for `curve`, the
        largest arrays), so that lazy imports, first calls and the growth of
        the heap are paid before timing; the results are not scored."""
        scenarios = corpus.block(workload, seed ^ 0x5EED,
                                 0)[-WARMUP_SCENARIOS:]
        for sc, path in zip(scenarios, self.write(scenarios)):
            self.run(sc, path)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: an average of all order
    statistics weighted by a Beta(p (n+1), (1-p) (n+1)) distribution. The
    scenario times come in lumps, one per stratum, and a single order
    statistic jumps between lumps from run to run; the weighted average
    does not."""
    import numpy as np  # only after main() has set the BLAS thread count

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - np.max(log_pdf))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    return max(1, n - TAIL_BEYOND) / n


def timed_blocks(workload: str, seconds: float) -> int:
    """Blocks a timed run measures: about `seconds` of work at the
    NOMINAL_BLOCK_S cost, and at least MIN_BLOCKS. With an odd number of
    strata per block the count is made odd too, so that the median falls
    on the middle stratum and not between two."""
    blocks = max(MIN_BLOCKS, round(seconds / NOMINAL_BLOCK_S[workload]))
    if len(corpus.block(workload, 0, 0)) % 2:
        blocks |= 1
    return blocks


def run_timed(runner: Runner, workload: str, seed: int, seconds: float,
              tally: check.Tally, t_process: float, src: FsPath,
              root: FsPath) -> dict:
    """A fixed number of blocks for a given --seconds, so both sides of a
    comparison run the same scenarios. Set-up launches are spread evenly
    between blocks, so their median samples the whole run and not one
    moment of it."""
    times: list[float] = []  # at the reference host speed
    walls: list[float] = []
    setup: list[float] = []
    setup_walls: list[float] = []
    launch_setup(src, root)  # may write bytecode; not counted
    blocks = timed_blocks(workload, seconds)
    stride = math.ceil(blocks / MAX_SETUP_LAUNCHES)
    for index in range(blocks):
        if time.perf_counter() - t_process > HARD_STOP_S:
            break
        if index % stride == 0:
            wall, scaled = launch_setup(src, root)
            setup_walls.append(wall)
            setup.append(scaled)
        scenarios = corpus.block(workload, seed, index)
        for sc, path in zip(scenarios, runner.write(scenarios)):
            code, report, wall, scaled = runner.run(sc, path)
            walls.append(wall)
            times.append(scaled)
            check.check_report(sc, code, report, tally)
    pct = tail_percentile(len(times))
    worst = max(tally.worst_rel_err, 1e-16)
    failed_frac = tally.failed / tally.attempted
    return {
        "scenarios": len(times),
        "tail_percentile": 100.0 * pct,
        "failed_frac": failed_frac,
        "wall": {
            "scenarios_per_s": (len(walls) / sum(walls), "1/s"),
            "scenario_p50_s": (quantile(walls, 0.5), "s"),
            "scenario_tail_s": (quantile(walls, pct), "s"),
            "setup_s": (quantile(setup_walls, 0.5), "s"),
        },
        "metrics": {
            "scenarios_per_s": (len(times) / sum(times), "1/s"),
            "scenario_p50_s": (quantile(times, 0.5), "s"),
            "scenario_tail_s": (quantile(times, pct), "s"),
            "ok_frac": (1.0 - failed_frac, "ratio"),
            "accuracy_digits": (-math.log10(worst), "digits"),
            "setup_s": (quantile(setup, 0.5), "s"),
        },
    }


def run_traced(runner: Runner, workload: str, seed: int,
               tally: check.Tally, trace_file: FsPath) -> dict:
    """Each scenario runs untraced and traced. Which goes first alternates
    along the block and flips from one block to the next, so every stratum
    runs first as often in both modes and warm-up effects cancel out of
    trace.overhead_frac."""
    blocks = [corpus.block(workload, seed, b)
              for b in range(TRACE_BLOCKS[workload])]
    scenarios = [sc for blk in blocks for sc in blk]
    first_traced = [(b + i) % 2 == 1 for b, blk in enumerate(blocks)
                    for i in range(len(blk))]
    tracer = tracing.Tracer()
    untraced, traced, reports = [], [], []
    for sc, path, flip in zip(scenarios, runner.write(scenarios),
                              first_traced):
        for with_trace in ((True, False) if flip else (False, True)):
            if with_trace:
                tracer.start_scenario(sc.sid)
                tracer.install()
                try:
                    code, report, _, scaled = runner.run(sc, path)
                finally:
                    tracer.uninstall()
                traced.append(scaled)
                reports.append(report or {})
            else:
                code, report, _, scaled = runner.run(sc, path)
                untraced.append(scaled)
            check.check_report(sc, code, report, tally)
    metrics = tracer.metrics(len(scenarios), reports)
    metrics["trace.overhead_frac"] = (sum(traced) / sum(untraced) - 1.0,
                                      "ratio")
    tracer.write(trace_file)
    return {"scenarios": len(scenarios), "trace_file": str(trace_file),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_process = time.perf_counter()

    root = FsPath(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "envelope" / "cli.py").is_file():
        print(f"no envelope package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)

    sys.path.insert(0, str(src))
    from envelope import cli
    if not FsPath(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"envelope was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    base = root / WORK_DIR
    work = base / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = check.Tally()
    try:
        runner = Runner(cli, work)
        runner.warm_up(args.workload, args.seed)
        if args.trace:
            out = run_traced(runner, args.workload, args.seed, tally,
                             base / f"trace-{args.workload}-s{args.seed}"
                                    ".tsv.gz")
        else:
            out = run_timed(runner, args.workload, args.seed, args.seconds,
                            tally, t_process, src, root)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out["metrics"]["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {out['scenarios']} "
          f"scenarios, {tally.attempted} rows, {tally.failed} failed "
          f"({tally.known} known defect, {tally.unexpected} unexpected), "
          f"{tally.raised} raised out of main")
    if args.trace:
        print(f"spans written to {out['trace_file']}")
    else:
        print(f"failed_frac = {out['failed_frac']:.6g} ratio")
        print(f"scenario_tail_s is p{out['tail_percentile']:.1f} of "
              f"{out['scenarios']} scenarios")
        for name, (value, unit) in out["wall"].items():
            print(f"unscaled wall-clock {name} = {value:.6g} {unit}")
        if tally.worst_discrete_rel_err:
            print("discrete-route accuracy_digits = "
                  f"{-math.log10(tally.worst_discrete_rel_err):.3f} "
                  "(CSV curves, O(M^-2) trapezoid error; not in "
                  "accuracy_digits)")
    for name, (value, unit) in out["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    for line in tally.failures[:20]:
        print(f"unexpected failure: {line}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
