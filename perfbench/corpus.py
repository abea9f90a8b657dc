"""Seeded scenario corpora with a closed-form oracle for every scenario.

A corpus is a sequence of blocks. Every block holds one scenario of each
stratum of its workload, in a fixed order, so two runs on different seeds
load the same mix of code paths and differ only in the random geometry,
coefficients and pole positions. Block ``b`` of seed ``s`` depends on
nothing but ``(workload, s, b)``.

The program under test only ever sees the scenario JSON (and, for CSV
curves, the CSV file) written by ``write_scenario``. The oracle is built
here from the placed singularities alone, never by calling the package:

* moments on the basis curve around hole j are 2 pi i times the residues of
  z^k f at the singularities placed inside hole j;
* the first nonzero moment degree of a(z-p)^-m is m-1, and of
  b exp(c/(z-p)) it is 0, which gives ``max_order`` and the certificate;
* where f has no singularity in any hole it is holomorphic on the hull, so
  its extension at w is f(w);
* the Cauchy transform of boundary data g at an interior point is g(w) for
  data holomorphic inside the curve, 0 for a(z-p)^-m with p inside, and
  conj(c) for conj(z) on the circle |z - c| = R.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path as FsPath

TWO_PI_I = 2j * math.pi

# Default degree cutoff of the moments check and of the heuristic scan.
DEFAULT_DEGREE_CUTOFF = 32
# Degree cutoff the scan uses when the pole census is known: max(8, budget).
CERTIFIED_MIN_CUTOFF = 8
TOWER_LEVELS = 4

DOMAIN_CHECKS = ["moments", "primitive_order", "extension", "cross_verify"]
DILATED_CHECKS = ["primitive_order", "extension"]
# Every cutoff is at least the largest pole order minus one, so the first
# nonzero moment of each placed pole (degree m - 1) lies inside the scan
# and every verdict stays definitive.
DILATED_MAX_DEGREES = (2, 3, 4, 5, 6)
DILATED_MAX_POLE_ORDER = 3
CURVE_CHECKS = ["boundary_tower", "cauchy", "nontangential", "chord_arc"]

# Path-backed curves use the analytic transform, so the approach can go
# down to 1e-6 R. CSV curves use the discrete transform, which refuses
# points within five node spacings; these radii stay beyond that for
# M >= 256 samples (5 * 2 pi / 256 = 0.123).
PATH_RADII = (1e-1, 1e-2, 1e-4, 1e-6)
CSV_RADII = (0.6, 0.4, 0.2)


# ---------------------------------------------------------------------------
# numbers and expression text

def _r(x: float, digits: int = 4) -> float:
    return round(x, digits)


def _rc(z: complex, digits: int = 4) -> complex:
    return complex(_r(z.real, digits), _r(z.imag, digits))


def _num(x: float) -> str:
    return f"{x:.6f}"


def literal(z: complex) -> str:
    """Complex literal in the grammar's ``(re+imi)`` form."""
    sign = "+" if z.imag >= 0 else "-"
    return f"({_num(z.real)}{sign}{_num(abs(z.imag))}i)"


@dataclass(frozen=True)
class Pole:
    """a / (z - p)^m"""
    a: complex
    p: complex
    m: int

    def text(self) -> str:
        return f"{literal(self.a)}/(z-{literal(self.p)})^{self.m}"

    def value(self, w: complex) -> complex:
        return self.a / (w - self.p) ** self.m

    def moment(self, k: int) -> complex:
        if k < self.m - 1:
            return 0j
        return TWO_PI_I * self.a * math.comb(k, self.m - 1) \
            * self.p ** (k - self.m + 1)

    def first_nonzero(self) -> int:
        return self.m - 1


@dataclass(frozen=True)
class ExpPole:
    """b exp(c / (z - p)), an essential singularity at p."""
    b: complex
    c: complex
    p: complex

    def text(self) -> str:
        return f"{literal(self.b)}*exp({literal(self.c)}/(z-{literal(self.p)}))"

    def value(self, w: complex) -> complex:
        return self.b * cmath.exp(self.c / (w - self.p))

    def moment(self, k: int) -> complex:
        # z^k = sum_i C(k,i) p^(k-i) (z-p)^i; exp(c/u) = sum_n c^n u^-n / n!
        total = sum(math.comb(k, i) * self.p ** (k - i)
                    * self.c ** (i + 1) / math.factorial(i + 1)
                    for i in range(k + 1))
        return TWO_PI_I * self.b * total

    def first_nonzero(self) -> int:
        return 0


@dataclass(frozen=True)
class Monomial:
    """e z^k, entire."""
    e: complex
    k: int

    def text(self) -> str:
        return f"{literal(self.e)}*z^{self.k}" if self.k else literal(self.e)

    def value(self, w: complex) -> complex:
        return self.e * w ** self.k


@dataclass(frozen=True)
class Function:
    """Sum of terms; ``inside[j]`` lists the singular terms in hole j."""
    terms: tuple
    inside: tuple = ()

    def text(self) -> str:
        return " + ".join(t.text() for t in self.terms)

    def value(self, w: complex) -> complex:
        return sum((t.value(w) for t in self.terms), 0j)

    @property
    def transcendental(self) -> bool:
        return any(isinstance(t, ExpPole) for t in self.terms)


# ---------------------------------------------------------------------------
# scenarios

@dataclass
class Scenario:
    """One scenario: the JSON handed to the program, an optional CSV file,
    and the oracle ``expect`` the report is checked against."""
    sid: str
    raw: dict
    expect: dict
    csv_rows: list | None = None
    meta: dict = field(default_factory=dict)


def write_scenario(sc: Scenario, directory: FsPath) -> FsPath:
    """Write the scenario (and its CSV) and return the scenario path."""
    raw = dict(sc.raw)
    if sc.csv_rows is not None:
        csv_name = f"{sc.sid}.csv"
        with open(directory / csv_name, "w") as handle:
            handle.write("# t, re(z), im(z), re(g), im(g)\n")
            for row in sc.csv_rows:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        raw["curve"] = {"csv": csv_name}
    target = directory / f"{sc.sid}.json"
    target.write_text(json.dumps(raw))
    return target


def _circle_node(c: complex, r: float) -> dict:
    return {"circle": {"center": [c.real, c.imag], "radius": r}}


def _polygon_node(vertices) -> dict:
    return {"polygon": {"vertices": [[v.real, v.imag] for v in vertices]}}


def _regular_polygon(center: complex, radius: float, sides: int,
                     turn: float) -> list[complex]:
    return [_rc(center + radius * cmath.exp(1j * (turn + 2 * math.pi * i
                                                     / sides)), 6)
            for i in range(sides)]


def _rect(center: complex, length: float, width: float,
          angle: float) -> list[complex]:
    rot = cmath.exp(1j * angle)
    corners = [complex(-length / 2, -width / 2), complex(length / 2, -width / 2),
               complex(length / 2, width / 2), complex(-length / 2, width / 2)]
    return [_rc(center + rot * c, 6) for c in corners]


def _unit(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


def _coef(rng: random.Random, lo: float = 0.5, hi: float = 1.5) -> complex:
    return _rc(rng.uniform(lo, hi) * _unit(rng))


# ---------------------------------------------------------------------------
# domain oracle

@dataclass
class Hole:
    node: dict
    center: complex   # a point well inside the hole
    reach: float      # max distance from center to the hole boundary
    inner: float      # singularities go within this distance of center
    axis: complex | None = None  # ... along this direction, if given

    def spot(self, rng: random.Random) -> complex:
        if self.axis is None:
            return _rc(self.center + rng.uniform(0.0, self.inner) * _unit(rng))
        return _rc(self.center + rng.uniform(-self.inner, self.inner)
                   * self.axis)


def _domain_expect(fn: Function, holes: list[Hole], reach: float,
                   checks: list[str], points: list[complex],
                   max_degree: int | None) -> dict:
    firsts: list[int | None] = []
    for j in range(len(holes)):
        ks = [t.first_nonzero() for t in fn.inside[j]]
        firsts.append(min(ks) if ks else None)
    hits = [k for k in firsts if k is not None]
    budget = max((t.m for j in range(len(holes)) for t in fn.inside[j]
                  if isinstance(t, Pole)), default=0)
    if max_degree is not None:
        cutoff = max_degree
    elif fn.transcendental:
        cutoff = DEFAULT_DEGREE_CUTOFF
    else:
        cutoff = max(CERTIFIED_MIN_CUTOFF, budget)
    if hits:
        max_order, cert, definitive = min(hits), "failure-witnessed", True
    elif fn.transcendental:
        max_order, cert, definitive = None, "heuristic-cutoff", False
    else:
        max_order, cert, definitive = None, "pole-certified", True
    verdict = {"max_order": max_order, "all_orders": max_order is None,
               "certificate": cert, "definitive": definitive,
               "tested_through": cutoff, "per_curve_first_nonzero": firsts}
    expect: dict = {"exit": 0, "rows": {}}
    for check in checks:
        row: dict = {"status": "ok"}
        if check == "moments":
            degree = max_degree if max_degree is not None \
                else DEFAULT_DEGREE_CUTOFF
            row["degree_cutoff"] = degree
            row["curves"] = [
                {"first_nonzero": firsts[j],
                 "moments": [sum((t.moment(k) for t in fn.inside[j]), 0j)
                             for k in range(degree + 1)]}
                for j in range(len(holes))]
            row["reach"] = reach
        elif check == "primitive_order":
            row.update(verdict)
        elif check == "extension":
            if max_order is None:
                row["extends"] = True
                row["values"] = [fn.value(w) for w in points]
            else:
                row["extends"] = False
                row["blocking_degree"] = max_order
        elif check == "cross_verify":
            row.update({k: verdict[k] for k in
                        ("max_order", "all_orders", "certificate")})
        expect["rows"][check] = row
    return expect


def _domain_scenario(sid: str, outer_c: complex, outer_r: float,
                     holes: list[Hole], fn: Function,
                     checks: list[str], points: list[complex],
                     max_degree: int | None = None) -> Scenario:
    raw = {
        "function": fn.text(),
        "domain": {"outer": _circle_node(outer_c, outer_r),
                   "holes": [h.node for h in holes]},
        "checks": list(checks),
        "points": [[w.real, w.imag] for w in points],
    }
    if max_degree is not None:
        raw["max_degree"] = max_degree
    # basis curves lie inside the outer circle, so |z| <= reach on them
    reach = abs(outer_c) + outer_r
    expect = _domain_expect(fn, holes, reach, checks, points, max_degree)
    return Scenario(sid, raw, expect)


def _outside_pole(rng: random.Random, outer_c: complex, outer_r: float
                  ) -> Pole:
    q = _rc(outer_c + rng.uniform(1.6, 2.2) * outer_r * _unit(rng))
    return Pole(_coef(rng), q, rng.randint(1, 2))


def _inside_pole(rng: random.Random, hole: Hole, m: int) -> Pole:
    return Pole(_coef(rng), hole.spot(rng), m)


def _inside_exp(rng: random.Random, hole: Hole) -> ExpPole:
    return ExpPole(_coef(rng, 0.5, 1.0), _coef(rng, 0.2, 0.5),
                   hole.spot(rng))


def _outside_exp(rng: random.Random, outer_c: complex, outer_r: float
                 ) -> ExpPole:
    q = _rc(outer_c + rng.uniform(1.6, 2.2) * outer_r * _unit(rng))
    return ExpPole(_coef(rng, 0.5, 1.0), _coef(rng, 0.3, 0.8), q)


def _domain_points(rng: random.Random, holes: list[Hole], outer_c: complex,
                   outer_r: float, count: int, clearance: float
                   ) -> list[complex]:
    """Points of the domain proper, at least `clearance` from every hole
    reach disc and from the outer circle."""
    out: list[complex] = []
    while len(out) < count:
        w = _rc(outer_c + rng.uniform(0.0, outer_r - clearance) * _unit(rng))
        if all(abs(w - h.center) > h.reach + clearance for h in holes):
            out.append(w)
    return out


# domain-circle -------------------------------------------------------------

def _circle_hole(rng: random.Random, center: complex, lo: float, hi: float
                 ) -> Hole:
    r = _r(rng.uniform(lo, hi))
    return Hole(_circle_node(center, r), center, r, 0.3 * r)


def _shape_hole(rng: random.Random, center: complex) -> Hole:
    kind = rng.choice(("circle", "triangle", "square", "pentagon"))
    if kind == "circle":
        return _circle_hole(rng, center, 0.35, 0.55)
    sides = {"triangle": 3, "square": 4, "pentagon": 5}[kind]
    radius = _r(rng.uniform(0.4, 0.55))
    verts = _regular_polygon(center, radius, sides,
                             rng.uniform(0.0, 2 * math.pi))
    # the inscribed radius of a triangle is half its circumradius
    return Hole(_polygon_node(verts), center, radius, 0.3 * radius)


_SLOTS = {2: (complex(-1.3, 0.0), complex(1.3, 0.0)),
          3: (complex(-1.5, -0.6), complex(1.5, -0.6), complex(0.0, 1.3))}


def _slot_holes(rng: random.Random, count: int, shapes: bool) -> list[Hole]:
    holes = []
    for slot in _SLOTS[count]:
        center = _rc(slot + 0.15 * rng.uniform(0.0, 1.0) * _unit(rng))
        holes.append(_shape_hole(rng, center) if shapes
                     else _circle_hole(rng, center, 0.35, 0.55))
    return holes


def _annulus(rng: random.Random) -> tuple[complex, float, list[Hole]]:
    c = _rc(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
    outer = _r(rng.uniform(2.0, 3.0))
    return c, outer, [_circle_hole(rng, c, 0.4, 0.8)]


def _circle_block(rng: random.Random, tag: str, index: int
                  ) -> list[Scenario]:
    out = []

    def add(stratum, outer_c, outer_r, holes, fn, points=2):
        pts = []
        if not any(fn.inside):
            pts = [h.center for h in holes[:1]] + _domain_points(
                rng, holes, outer_c, outer_r, points, 0.4)
        out.append(_domain_scenario(f"{tag}-{stratum}", outer_c, outer_r,
                                    holes, fn, DOMAIN_CHECKS, pts))

    c, R, holes = _annulus(rng)
    m = rng.randint(1, 4)
    pole = _inside_pole(rng, holes[0], m)
    add("annulus-pole", c, R, holes,
        Function((pole, _outside_pole(rng, c, R)), ((pole,),)))

    c, R, holes = _annulus(rng)
    add("annulus-regular", c, R, holes,
        Function((_outside_pole(rng, c, R), Monomial(_coef(rng), 2)), ((),)))

    holes = _slot_holes(rng, 2, shapes=False)
    p0 = _inside_pole(rng, holes[0], rng.randint(1, 4))
    p1 = _inside_pole(rng, holes[1], rng.randint(1, 4))
    add("two-circles-poles", 0j, 3.5, holes,
        Function((p0, p1, _outside_pole(rng, 0j, 3.5)), ((p0,), (p1,))))

    holes = _slot_holes(rng, 2, shapes=True)
    p1 = _inside_pole(rng, holes[1], rng.randint(1, 4))
    add("two-shapes-pole", 0j, 3.5, holes,
        Function((p1, Monomial(_coef(rng), 1)), ((), (p1,))))

    holes = _slot_holes(rng, 3, shapes=True)
    p0 = _inside_pole(rng, holes[0], rng.randint(1, 4))
    p2 = _inside_pole(rng, holes[2], rng.randint(1, 4))
    add("three-shapes-poles", 0j, 3.5, holes,
        Function((p0, p2, _outside_pole(rng, 0j, 3.5)), ((p0,), (), (p2,))))

    holes = _slot_holes(rng, 2, shapes=False)
    add("two-circles-exp-outside", 0j, 3.5, holes,
        Function((_outside_exp(rng, 0j, 3.5), Monomial(_coef(rng), 2)),
                 ((), ())))

    c, R, holes = _annulus(rng)
    ex = _inside_exp(rng, holes[0])
    add("annulus-exp-inside", c, R, holes,
        Function((ex, _outside_pole(rng, c, R)), ((ex,),)))

    holes = _slot_holes(rng, 3, shapes=True)
    add("three-shapes-regular", 0j, 3.5, holes,
        Function((_outside_pole(rng, 0j, 3.5), _outside_pole(rng, 0j, 3.5),
                  Monomial(_coef(rng), 3)), ((), (), ())))
    return out


# domain-dilated ------------------------------------------------------------

def _slab_pair(rng: random.Random) -> tuple[list[Hole], complex]:
    """A long thin slab with a small circle close beside it: the slab
    admits no separating circle (its half length exceeds the gap), the
    circle does (the gap exceeds its radius)."""
    angle = rng.uniform(0.0, math.pi)
    length = _r(rng.uniform(2.4, 3.0))
    width = _r(rng.uniform(0.16, 0.28))
    gap = rng.uniform(0.26, 0.34)
    radius = _r(rng.uniform(0.15, 0.2))
    slab_c = _rc(0.3 * rng.uniform(0.0, 1.0) * _unit(rng))
    normal = cmath.exp(1j * (angle + math.pi / 2))
    circ_c = _rc(slab_c + (width / 2 + gap + radius) * normal)
    slab = Hole(_polygon_node(_rect(slab_c, length, width, angle)), slab_c,
                math.hypot(length / 2, width / 2), 0.35 * length,
                cmath.exp(1j * angle))
    return [slab, Hole(_circle_node(circ_c, radius), circ_c, radius,
                       0.3 * radius)], normal


def _twin_slabs(rng: random.Random) -> list[Hole]:
    """Two parallel slabs a short gap apart: neither admits a separating
    circle."""
    angle = rng.uniform(0.0, math.pi)
    length = _r(rng.uniform(2.2, 2.8))
    width = _r(rng.uniform(0.16, 0.24))
    gap = rng.uniform(0.26, 0.34)
    normal = cmath.exp(1j * (angle + math.pi / 2))
    mid = _rc(0.2 * rng.uniform(0.0, 1.0) * _unit(rng))
    out = []
    for side in (-1, 1):
        c = _rc(mid + side * (width + gap) / 2 * normal)
        out.append(Hole(_polygon_node(_rect(c, length, width, angle)), c,
                        math.hypot(length / 2, width / 2), 0.35 * length,
                        cmath.exp(1j * angle)))
    return out


def _dilated_points(rng: random.Random, holes: list[Hole], normal: complex
                    ) -> list[complex]:
    """The slab center (inside a hole) and one point of the domain on the
    far side of the slab from its neighbor."""
    slab = holes[0]
    return [slab.center, _rc(slab.center - rng.uniform(0.9, 1.3) * normal)]


def _dilated_block(rng: random.Random, tag: str, index: int
                   ) -> list[Scenario]:
    R = 3.0
    # A Latin square of degree cutoffs: stratum i of block b gets cutoff
    # (i + b) mod 5, so scenario costs spread out, every block does the same
    # total work, and every 5 blocks hold each (stratum, cutoff) pair once.
    shift = index % len(DILATED_MAX_DEGREES)
    degrees = DILATED_MAX_DEGREES[shift:] + DILATED_MAX_DEGREES[:shift]
    out = []

    def add(stratum, holes, fn, points):
        out.append(_domain_scenario(
            f"{tag}-{stratum}", 0j, R, holes, fn, DILATED_CHECKS,
            points if not any(fn.inside) else [], degrees[len(out)]))

    def order():
        return rng.randint(1, DILATED_MAX_POLE_ORDER)

    holes, normal = _slab_pair(rng)
    pole = _inside_pole(rng, holes[0], order())
    add("slab-pole", holes,
        Function((pole, _outside_pole(rng, 0j, R)), ((pole,), ())), [])

    holes, normal = _slab_pair(rng)
    pole = _inside_pole(rng, holes[1], order())
    add("slab-circle-pole", holes,
        Function((pole, Monomial(_coef(rng), 2)), ((), (pole,))), [])

    holes, normal = _slab_pair(rng)
    add("slab-regular", holes,
        Function((_outside_pole(rng, 0j, R), Monomial(_coef(rng), 1)),
                 ((), ())), _dilated_points(rng, holes, normal))

    holes, normal = _slab_pair(rng)
    add("slab-exp-outside", holes,
        Function((_outside_exp(rng, 0j, R), Monomial(_coef(rng), 2)),
                 ((), ())), _dilated_points(rng, holes, normal))

    holes = _twin_slabs(rng)
    p0 = _inside_pole(rng, holes[0], order())
    p1 = _inside_pole(rng, holes[1], order())
    add("twin-slabs-poles", holes,
        Function((p0, p1, _outside_pole(rng, 0j, R)), ((p0,), (p1,))), [])
    return out


# curve ---------------------------------------------------------------------

class Conj:
    """conj(z), not holomorphic, so only expressible as CSV data."""

    def value(self, w: complex) -> complex:
        return w.conjugate()


def _curve_data(rng: random.Random, kind: str, c: complex, R: float):
    """(data, leading zero moments, interior transform) for a data kind."""
    if kind == "power":
        k = rng.randint(0, 3)
        term = Monomial(_coef(rng), k)
        return Function((term,)), TOWER_LEVELS, term.value
    if kind == "pole-outside":
        q = _rc(c + rng.uniform(2.5, 3.0) * R * _unit(rng))
        term = Pole(_coef(rng), q, rng.randint(1, 3))
        return Function((term,)), TOWER_LEVELS, term.value
    if kind == "pole-inside":
        p = _rc(c + rng.uniform(0.0, 0.4) * R * _unit(rng))
        m = rng.randint(1, 3)
        term = Pole(_coef(rng), p, m)
        return Function((term,)), min(m - 1, TOWER_LEVELS), lambda w: 0j
    if kind == "conj":
        # conj(z) = conj(c) + R^2 / (z - c) on the circle
        return Conj(), 0, lambda w: c.conjugate()
    raise ValueError(kind)


def _curve_scenario(rng: random.Random, sid: str, source: str,
                    samples: int, data_kind: str, warp: float = 0.0
                    ) -> Scenario:
    c = _rc(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
    R = _r(rng.uniform(0.8, 1.2))
    data, zeros, transform = _curve_data(rng, data_kind, c, R)
    # data holomorphic inside the curve: every moment vanishes, and the
    # transform converges to the boundary value
    holomorphic = zeros == TOWER_LEVELS
    w = _rc(c + rng.uniform(0.0, 0.4) * R * _unit(rng))
    node_index = rng.randrange(samples)
    checks = list(CURVE_CHECKS)
    if source == "csv" and holomorphic:
        # the discrete transform cannot approach closer than five node
        # spacings, so convergence to the boundary value cannot be seen
        checks.remove("nontangential")
    radii = PATH_RADII if source == "path" else CSV_RADII
    raw: dict = {"checks": checks, "points": [[w.real, w.imag]],
                 "node_index": node_index,
                 "radii": [_r(r * R, 9) for r in radii]}
    csv_rows = None
    if source == "path":
        raw["function"] = data.text()
        raw["curve"] = {"path": _circle_node(c, R), "samples": samples}
        if warp:
            raw["curve"]["warp"] = warp
    else:
        csv_rows = []
        for j in range(samples + 1):
            t = j / samples
            z = c + R * cmath.exp(2j * math.pi * (j % samples) / samples)
            g = data.value(z)
            csv_rows.append((t, z.real, z.imag, g.real, g.imag))
    uniform = not warp
    rows: dict = {}
    for check in checks:
        row: dict = {"status": "ok"}
        if check == "boundary_tower" and uniform:
            # uniform circle samples alias the discrete moments of these
            # data to their exact values, so the counts are exact
            row["leading_zero_count"] = zeros
            row["pass_depth"] = zeros
        elif check == "cauchy":
            row["values"] = [transform(w)]
            row["route"] = source
        elif check == "nontangential":
            row["matches_boundary"] = holomorphic
            row["expected_match"] = holomorphic
        elif check == "chord_arc":
            if uniform:
                row["constant"] = samples / 2 * math.sin(math.pi / samples)
            row["bound_satisfied"] = True
        rows[check] = row
    return Scenario(sid, raw, {"exit": 0, "rows": rows},
                    csv_rows=csv_rows,
                    meta={"samples": samples, "warp": warp})


# Ordered by cost at the baseline. The median falls in stratum 5, a CSV
# curve whose cost is the same for every seed, and the tail percentile
# falls among the two 4096-sample strata.
_CURVE_STRATA = (
    # stratum, source, samples, data kind, warp amplitude
    ("csv-conj-256", "csv", 256, "conj", 0.0),
    ("path-warped-power-512", "path", 512, "power", 0.3),
    ("csv-pole-inside-1024", "csv", 1024, "pole-inside", 0.0),
    ("path-pole-outside-1024", "path", 1024, "pole-outside", 0.0),
    ("csv-pole-outside-2048", "csv", 2048, "pole-outside", 0.0),
    ("path-pole-inside-2048", "path", 2048, "pole-inside", 0.0),
    ("path-warped-pole-outside-2048", "path", 2048, "pole-outside", 0.2),
    ("csv-power-4096", "csv", 4096, "power", 0.0),
    ("path-power-4096", "path", 4096, "power", 0.0),
)


def _curve_block(rng: random.Random, tag: str, index: int
                 ) -> list[Scenario]:
    return [_curve_scenario(rng, f"{tag}-{name}", source, samples, kind,
                            warp)
            for name, source, samples, kind, warp in _CURVE_STRATA]


# ---------------------------------------------------------------------------

BLOCKS = {
    "domain-circle": _circle_block,
    "domain-dilated": _dilated_block,
    "curve": _curve_block,
}


def block(workload: str, seed: int, index: int) -> list[Scenario]:
    """Scenarios of block `index` of the corpus of `workload` at `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return BLOCKS[workload](rng, f"s{seed}-b{index}", index)
