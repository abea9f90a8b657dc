"""Compare a report against the oracle of its scenario.

Every expected row is one attempt. A row fails when it is missing, when its
status is ``error`` or ``inconsistent``, or when any value contradicts the
oracle; every row of a scenario that raised out of ``main`` fails.

Known defects are counted as failures like any other. They are listed
only so that ``unexpected`` tells a new wrong answer from one already on
record; a later change that fixes a defect makes its rows pass.

Accuracy is the relative error of report values with a closed form at
tolerance-controlled precision: moments (2 pi i times residues), extension
values (f(w)) and Cauchy transforms computed by quadrature (g(w)). Values of
the discrete CSV route carry the documented O(M^-2) trapezoid error; they
are checked against that order and tallied apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Agreement required of values that adaptive quadrature computes at the
# default 1e-12 tolerance, relative to the magnitude reference of each value.
VALUE_RTOL = 1e-8
# The discrete Cauchy transform on M uniform samples of a circle of radius R
# errs by about C (2 pi R / M)^2 for data of unit size; C stays below 1 for
# the corpus data and interior points.
DISCRETE_CONSTANT = 4.0


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _close(value: complex, oracle: complex, ref: float, rtol: float
           ) -> tuple[bool, float]:
    err = abs(value - oracle) / max(abs(oracle), ref)
    return err <= rtol, err


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    known: int = 0
    raised: int = 0
    worst_rel_err: float = 0.0
    worst_discrete_rel_err: float = 0.0
    failures: list = field(default_factory=list)

    def merge_error(self, err: float, discrete: bool = False) -> None:
        if discrete:
            self.worst_discrete_rel_err = max(self.worst_discrete_rel_err, err)
        else:
            self.worst_rel_err = max(self.worst_rel_err, err)


def _known_defect(scenario, check: str, row: dict) -> bool:
    """Both known defects come from zero tests on the discrete moments of a
    warped sample, whose O(M^-2) error is not below the 1e-9 tolerance:

    * nontangential: the transform converges to the boundary value, but
      expected_match is computed from those moments and says it should not;
    * boundary_tower: where that error sits near the tolerance, the tower
      closing defects and the moments fall on different sides of it, so the
      depth and the leading zero count disagree.
    """
    if not scenario.meta.get("warp") or row.get("status") != "inconsistent":
        return False
    values = row.get("values", {})
    if check == "nontangential":
        return (values.get("matches_boundary") is True
                and values.get("expected_match") is False)
    if check == "boundary_tower":
        return values.get("pass_depth") != values.get("leading_zero_count")
    return False


def _row_problems(scenario, check: str, row: dict, want: dict,
                  tally: Tally) -> list[str]:
    problems = []
    values = row.get("values", {})
    if row.get("status") != want["status"]:
        problems.append(f"status {row.get('status')}")
    for key, expected in want.items():
        if key in ("status", "route", "curves", "reach", "values"):
            continue
        if key == "constant":
            got = values.get("constant")
            if got is None or abs(got - expected) > 1e-9 * expected:
                problems.append(f"constant {got} != {expected}")
        elif values.get(key) != expected:
            problems.append(f"{key} {values.get(key)!r} != {expected!r}")
    if check == "chord_arc" and "constant" not in want:
        # any closed curve has ratio >= 1; polyline arcs of a circle stay
        # below the true arcs, so the ratio stays below pi / 2
        got = values.get("constant")
        if got is None or not 1.0 <= got <= math.pi / 2 * (1 + 1e-12):
            problems.append(f"constant {got} outside [1, pi/2]")
    if check == "moments" and "curves" in want:
        curves = values.get("curves", [])
        if len(curves) != len(want["curves"]):
            return problems + ["basis curve count"]
        for j, (got, exp) in enumerate(zip(curves, want["curves"])):
            if got.get("first_nonzero") != exp["first_nonzero"]:
                problems.append(f"hole {j} first_nonzero "
                                f"{got.get('first_nonzero')} != "
                                f"{exp['first_nonzero']}")
            moments = got.get("moments", [])
            if len(moments) != len(exp["moments"]):
                problems.append(f"hole {j} moment count")
                continue
            for k, (v, o) in enumerate(zip(moments, exp["moments"])):
                # |z^k f dz| integrates to at most scale * reach^k
                ref = got["scale"] * want["reach"] ** k
                ok, err = _close(_c(v), o, ref, VALUE_RTOL)
                tally.merge_error(err)
                if not ok:
                    problems.append(f"hole {j} moment {k} rel err {err:.3g}")
    if "values" in want:
        got_values = values.get("values", [])
        if len(got_values) != len(want["values"]):
            return problems + ["value count"]
        discrete = want.get("route") == "csv"
        samples = scenario.meta.get("samples", 0)
        for v, o in zip(got_values, want["values"]):
            if discrete:
                h = 2 * math.pi / samples
                ok, err = _close(_c(v), o, 1.0, DISCRETE_CONSTANT * h * h)
            else:
                ok, err = _close(_c(v), o, 1.0, VALUE_RTOL)
            tally.merge_error(err, discrete)
            if not ok:
                problems.append(f"value rel err {err:.3g}")
    return problems


def check_report(scenario, exit_code: int | None, report: dict | None,
                 tally: Tally) -> None:
    """Score one scenario run. `exit_code` is None when main raised."""
    expected_rows = scenario.expect["rows"]
    rows = {}
    if report is not None:
        rows = {r["check"]: r for r in report.get("results", [])}
    if exit_code is None:
        tally.raised += 1
    failed_here = 0
    for check, want in expected_rows.items():
        tally.attempted += 1
        row = rows.get(check)
        if exit_code is None or row is None:
            problems = ["scenario raised" if exit_code is None
                        else "row missing"]
        else:
            problems = _row_problems(scenario, check, row, want, tally)
        if not problems:
            continue
        failed_here += 1
        tally.failed += 1
        if row is not None and _known_defect(scenario, check, row):
            tally.known += 1
        else:
            tally.unexpected += 1
            tally.failures.append(f"{scenario.sid} {check}: "
                                  + "; ".join(problems))
    if exit_code is not None and failed_here == 0 \
            and exit_code != scenario.expect["exit"]:
        # every row passed but the exit code disagrees
        tally.failed += len(expected_rows)
        tally.unexpected += len(expected_rows)
        tally.failures.append(f"{scenario.sid}: exit {exit_code}")
