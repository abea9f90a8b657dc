"""Contours, domains and grid geometry.

Paths are chains of line and circular-arc segments. A DomainSpec is a
bounded or unbounded multiply connected region: an outer boundary (or none)
minus finitely many holes. Winding numbers come from accumulated argument
increments with adaptive bisection, so they stay exact for points close to
a contour. The simply connected hull of a rasterized domain is the
complement of the grid component of infinity.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, PointOnPathError, WindingResidualError

_TWO_PI = 2.0 * math.pi
ENDPOINT_TOL = 1e-12
# Winding totals must land within this fraction of a full turn of an integer.
WINDING_RESIDUAL_LIMIT = 0.01


# ---------------------------------------------------------------------------
# segments

@dataclass(frozen=True)
class Line:
    a: complex
    b: complex

    def __post_init__(self):
        if abs(self.b - self.a) == 0.0:
            raise GeometryError("line segment endpoints coincide")

    @property
    def start(self) -> complex:
        return self.a

    @property
    def end(self) -> complex:
        return self.b

    @property
    def length(self) -> float:
        return abs(self.b - self.a)

    def point(self, t):
        return self.a + np.asarray(t) * (self.b - self.a) \
            if isinstance(t, np.ndarray) else self.a + t * (self.b - self.a)

    def velocity(self, t):
        v = self.b - self.a
        if isinstance(t, np.ndarray):
            return np.full(t.shape, v, dtype=complex)
        return v

    def reversed(self) -> "Line":
        return Line(self.b, self.a)

    def bbox(self) -> tuple[float, float, float, float]:
        return (min(self.a.real, self.b.real), max(self.a.real, self.b.real),
                min(self.a.imag, self.b.imag), max(self.a.imag, self.b.imag))

    def distance(self, p: complex) -> float:
        d = self.b - self.a
        t = ((p - self.a).real * d.real + (p - self.a).imag * d.imag) / abs(d) ** 2
        t = min(1.0, max(0.0, t))
        return abs(self.a + t * d - p)

    def max_distance(self, p: complex) -> float:
        return max(abs(self.a - p), abs(self.b - p))


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    t0: float
    t1: float
    ccw: bool = True

    def __post_init__(self):
        if not self.radius > 0.0:
            raise GeometryError("arc radius must be positive")

    @property
    def extent(self) -> float:
        """Unsigned angular extent in (0, 2*pi]; equal angles mean a full
        circle."""
        if self.ccw:
            raw = (self.t1 - self.t0) % _TWO_PI
        else:
            raw = (self.t0 - self.t1) % _TWO_PI
        return raw if raw > 0.0 else _TWO_PI

    @property
    def sweep(self) -> float:
        return self.extent if self.ccw else -self.extent

    def angle(self, t):
        return self.t0 + np.asarray(t) * self.sweep \
            if isinstance(t, np.ndarray) else self.t0 + t * self.sweep

    @property
    def start(self) -> complex:
        return self.center + self.radius * cmath.exp(1j * self.t0)

    @property
    def end(self) -> complex:
        return self.center + self.radius * cmath.exp(1j * (self.t0 + self.sweep))

    @property
    def length(self) -> float:
        return self.radius * self.extent

    def point(self, t):
        th = self.angle(t)
        return self.center + self.radius * np.exp(1j * th) \
            if isinstance(t, np.ndarray) else \
            self.center + self.radius * cmath.exp(1j * th)

    def velocity(self, t):
        th = self.angle(t)
        if isinstance(t, np.ndarray):
            return 1j * self.sweep * self.radius * np.exp(1j * th)
        return 1j * self.sweep * self.radius * cmath.exp(1j * th)

    def reversed(self) -> "Arc":
        end_angle = self.t0 + self.sweep
        return Arc(self.center, self.radius, end_angle, self.t0, not self.ccw)

    def _covers_angle(self, theta: float) -> bool:
        if self.ccw:
            return (theta - self.t0) % _TWO_PI <= self.extent
        return (self.t0 - theta) % _TWO_PI <= self.extent

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [self.start.real, self.end.real]
        ys = [self.start.imag, self.end.imag]
        for theta, dx, dy in ((0.0, self.radius, 0.0),
                              (math.pi / 2, 0.0, self.radius),
                              (math.pi, -self.radius, 0.0),
                              (3 * math.pi / 2, 0.0, -self.radius)):
            if self._covers_angle(theta):
                xs.append(self.center.real + dx)
                ys.append(self.center.imag + dy)
        return (min(xs), max(xs), min(ys), max(ys))

    def distance(self, p: complex) -> float:
        v = p - self.center
        r = abs(v)
        if r > 0 and self._covers_angle(cmath.phase(v)):
            return abs(r - self.radius)
        return min(abs(self.start - p), abs(self.end - p))

    def max_distance(self, p: complex) -> float:
        v = p - self.center
        far_angle = cmath.phase(-v) if abs(v) > 0 else 0.0
        if self._covers_angle(far_angle):
            return abs(v) + self.radius
        return max(abs(self.start - p), abs(self.end - p))


Segment = Line | Arc


# ---------------------------------------------------------------------------
# paths

@dataclass(frozen=True)
class Path:
    segments: tuple[Segment, ...]
    closed: bool = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise GeometryError("a path needs at least one segment")
        object.__setattr__(self, "segments", segs)
        scale = max(1.0, max(abs(s.start) for s in segs),
                    max(abs(s.end) for s in segs))
        tol = ENDPOINT_TOL * scale
        for prev, cur in zip(segs, segs[1:]):
            if abs(prev.end - cur.start) > tol:
                raise GeometryError(
                    f"consecutive segments disagree at {prev.end:.6g} vs "
                    f"{cur.start:.6g}")
        gap = abs(segs[-1].end - segs[0].start)
        if self.closed is None:
            object.__setattr__(self, "closed", gap <= tol)
        elif self.closed and gap > tol:
            raise GeometryError("declared closed but endpoints do not meet")

    @property
    def start(self) -> complex:
        return self.segments[0].start

    @property
    def end(self) -> complex:
        return self.segments[-1].end

    @functools.cached_property
    def length(self) -> float:
        return sum(s.length for s in self.segments)

    @functools.cached_property
    def arrays(self) -> "SegmentArrays":
        """The segment parameters as arrays, built on first use."""
        return SegmentArrays(self.segments)

    def reversed(self) -> "Path":
        return Path(tuple(s.reversed() for s in reversed(self.segments)),
                    self.closed)

    def bbox(self) -> tuple[float, float, float, float]:
        boxes = [s.bbox() for s in self.segments]
        return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

    def distance(self, p: complex) -> float:
        return min(s.distance(p) for s in self.segments)

    def max_distance(self, p: complex) -> float:
        return max(s.max_distance(p) for s in self.segments)

    def point_at(self, fraction: float) -> complex:
        """Point at the given arclength fraction in [0, 1]."""
        return complex(self.points_at(np.array([fraction]))[0])

    def points_at(self, fractions) -> np.ndarray:
        """Points at an array of arclength fractions in [0, 1]."""
        return self.arrays.nodes(*self.locate(fractions))[0]

    def locate(self, fractions) -> tuple[np.ndarray, np.ndarray]:
        """(segment index, local parameter) of each arclength fraction in
        [0, 1]; a fraction on a junction belongs to the earlier segment."""
        fr = np.asarray(fractions, dtype=float)
        if not np.all((fr >= 0.0) & (fr <= 1.0)):
            raise ValueError("arclength fraction must lie in [0, 1]")
        arrays = self.arrays
        target = fr * self.length
        index = np.minimum(np.searchsorted(arrays.ends, target),
                           len(self.segments) - 1)
        u = (target - arrays.starts[index]) / arrays.lengths[index]
        return index, np.clip(u, 0.0, 1.0)

    def prefix(self, fraction: float) -> "Path | None":
        """Subpath covering arclength fractions [0, fraction]; None if the
        prefix is empty."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("arclength fraction must lie in [0, 1]")
        target = fraction * self.length
        if target <= 0.0:
            return None
        parts: list[Segment] = []
        for seg in self.segments:
            if target >= seg.length * (1.0 - 1e-15):
                parts.append(seg)
                target -= seg.length
                if target <= 0.0:
                    break
            else:
                u = target / seg.length
                if u > 1e-12:
                    parts.append(_cut(seg, u))
                break
        return Path(tuple(parts), closed=False) if parts else None

    def sample(self, n: int, include_end: bool = False) -> np.ndarray:
        """n points equally spaced in arclength (n+1 with the endpoint)."""
        fr = np.linspace(0.0, 1.0, n, endpoint=False)
        if include_end:
            fr = np.concatenate([fr, [1.0]])
        return self.points_at(fr)


class SegmentArrays:
    """The segments of a path as parameter arrays: a line is a + t d, an arc
    center + radius e^{i (t0 + t sweep)}; slots a kind does not use are
    zero. lengths, starts and ends are per-segment arclengths."""

    def __init__(self, segments: tuple[Segment, ...]):
        arc = [isinstance(s, Arc) for s in segments]
        self.has_arcs = any(arc)
        self.has_lines = not all(arc)
        # one row per segment; the arc velocity factor is the scalar
        # expression of Arc.velocity, so both round alike
        rows = [(s.center, 0j, 1j * s.sweep * s.radius, s.radius, s.t0,
                 s.sweep, s.length) if a
                else (s.a, s.b - s.a, 0j, 0.0, 0.0, 0.0, s.length)
                for s, a in zip(segments, arc)]
        cols = np.array(rows, dtype=complex).T
        self.origin, self.direction, self.arc_velocity = cols[:3]
        self.radius, self.t0, self.sweep, self.lengths = cols[3:].real
        self.is_arc = np.array(arc)

    @functools.cached_property
    def ends(self) -> np.ndarray:
        return np.cumsum(self.lengths)

    @functools.cached_property
    def starts(self) -> np.ndarray:
        return np.concatenate(([0.0], self.ends[:-1]))

    def nodes(self, index: np.ndarray, t: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities at local parameters t of the segments
        index (broadcast against t along its leading axes); entry for entry
        the numbers Segment.point and Segment.velocity give. On a path of
        lines only, the velocities broadcast against the points."""
        if self.lengths.size == 1:
            i = 0  # scalar parameters compute the same numbers, faster
        else:
            i = index.reshape(index.shape + (1,) * (t.ndim - index.ndim))
        if self.has_lines:
            v = self.direction[i]
            z = self.origin[i] + t * v
        if self.has_arcs:
            e = np.exp(1j * (self.t0[i] + t * self.sweep[i]))
            za = self.origin[i] + self.radius[i] * e
            va = self.arc_velocity[i] * e
            if not self.has_lines:
                return za, va
            arc = self.is_arc[i]
            z = np.where(arc, za, z)
            v = np.where(arc, va, v)
        return z, v


def _cut(seg: Segment, u: float) -> Segment:
    if isinstance(seg, Line):
        return Line(seg.a, seg.a + u * (seg.b - seg.a))
    return Arc(seg.center, seg.radius, seg.t0,
               seg.t0 + u * seg.sweep, seg.ccw)


def circle(center: complex, radius: float, ccw: bool = True) -> Path:
    """Full circle as a single-arc closed path, starting at angle 0."""
    return Path((Arc(center, radius, 0.0, _TWO_PI if ccw else -_TWO_PI, ccw),),
                closed=True)


def polygon(vertices: Sequence[complex]) -> Path:
    """Closed polygonal path through the given vertices."""
    vs = [complex(v) for v in vertices]
    if len(vs) < 3:
        raise GeometryError("polygon needs at least three vertices")
    segs = [Line(a, b) for a, b in zip(vs, vs[1:] + vs[:1]) if a != b]
    if len(segs) < 3:
        raise GeometryError("polygon needs at least three distinct vertices")
    return Path(tuple(segs), closed=True)


def rectangle(x0: float, x1: float, y0: float, y1: float) -> Path:
    return polygon([complex(x0, y0), complex(x1, y0),
                    complex(x1, y1), complex(x0, y1)])


# ---------------------------------------------------------------------------
# winding numbers

def winding_number(path: Path, point: complex) -> int:
    """Winding number of a closed path around a point off the path.

    Argument increments are accumulated per segment piece, bisecting any
    piece whose chord subtends more than pi/2, so the count is exact for
    any point at positive distance. Raises PointOnPathError when the point
    is within 1e-9 * length of the path and WindingResidualError if the
    total fails to land near an integer multiple of 2*pi.
    """
    if not path.closed:
        raise GeometryError("winding number needs a closed path")
    if path.distance(point) <= 1e-9 * path.length:
        raise PointOnPathError(f"point {point:.6g} lies on the path")
    total = 0.0
    for seg in path.segments:
        total += _segment_sweep(seg, point)
    turns = total / _TWO_PI
    k = round(turns)
    if abs(turns - k) >= WINDING_RESIDUAL_LIMIT:
        raise WindingResidualError(
            f"winding residual {abs(turns - k):.3g} exceeds limit")
    return int(k)


def _in_lens(center: complex, radius: float, za: complex, zb: complex,
             p: complex) -> bool:
    """Is p strictly between the chord za..zb and the minor arc over it?

    The chord angle at p equals the true arc sweep exactly unless p lies in
    this lens (then they differ by a full turn). Points on the open chord
    count as inside so the ambiguous arg of a negative real ratio is never
    trusted.
    """
    if abs(p - center) > radius:
        return False
    chord = zb - za
    side_p = ((p - za) / chord).imag
    side_c = ((center - za) / chord).imag
    return side_p * side_c <= 0.0


def _segment_sweep(seg: Segment, p: complex) -> float:
    if isinstance(seg, Line):
        return cmath.phase((seg.b - p) / (seg.a - p))
    pieces = max(1, int(math.ceil(seg.extent / (0.5 * math.pi))))
    total = 0.0
    for i in range(pieces):
        total += _arc_sweep(seg, p, i / pieces, (i + 1) / pieces, 0)
    return total


def _arc_sweep(seg: Arc, p: complex, a: float, b: float, depth: int) -> float:
    za = seg.point(a)
    zb = seg.point(b)
    if not _in_lens(seg.center, seg.radius, za, zb, p):
        return cmath.phase((zb - p) / (za - p))
    if depth > 60:  # pragma: no cover - p is on the arc, guarded by caller
        raise WindingResidualError("arc sweep failed to resolve")
    m = 0.5 * (a + b)
    return (_arc_sweep(seg, p, a, m, depth + 1)
            + _arc_sweep(seg, p, m, b, depth + 1))


def _winding_many(path: Path, points: np.ndarray) -> np.ndarray:
    """Vectorized winding numbers for many points at once.

    Chordal argument sums are exact except for points inside a chord/arc
    lens or (nearly) on the path itself; those few fall back to the scalar
    routine, and centers exactly on a contour get the _ON_PATH sentinel.
    """
    pts = points.ravel()
    total = np.zeros(pts.shape, dtype=float)
    risky = np.zeros(pts.shape, dtype=bool)
    on_tol = 1e-9 * max(1.0, path.length)
    with np.errstate(all="ignore"):
        for seg in path.segments:
            if isinstance(seg, Line):
                total += np.angle((seg.b - pts) / (seg.a - pts))
                d = seg.b - seg.a
                t = ((pts - seg.a).real * d.real
                     + (pts - seg.a).imag * d.imag) / abs(d) ** 2
                t = np.clip(t, 0.0, 1.0)
                risky |= np.abs(seg.a + t * d - pts) <= on_tol
            else:
                pieces = max(4, int(math.ceil(seg.extent / (math.pi / 8))))
                ts = np.linspace(0.0, 1.0, pieces + 1)
                zs = seg.point(ts)
                inside_circle = np.abs(pts - seg.center) <= seg.radius
                for z0, z1 in zip(zs[:-1], zs[1:]):
                    total += np.angle((z1 - pts) / (z0 - pts))
                    chord = z1 - z0
                    side_p = ((pts - z0) / chord).imag
                    side_c = ((seg.center - z0) / chord).imag
                    risky |= inside_circle & (side_p * side_c <= 0.0)
                risky |= np.abs(np.abs(pts - seg.center) - seg.radius) <= on_tol
    turns = total / _TWO_PI
    out = np.rint(np.where(np.isfinite(turns), turns, 0.0)).astype(int)
    risky |= ~np.isfinite(turns)
    risky |= np.abs(turns - out) >= WINDING_RESIDUAL_LIMIT
    for i in np.nonzero(risky)[0]:
        try:
            out[i] = winding_number(path, complex(pts[i]))
        except (PointOnPathError, WindingResidualError):
            out[i] = _ON_PATH
    return out.reshape(points.shape)


_ON_PATH = -(10 ** 9)  # sentinel for cell centers that land on a contour


# ---------------------------------------------------------------------------
# domains

@dataclass(frozen=True)
class DomainSpec:
    """Multiply connected region: interior of `outer` (or the whole plane
    when outer is None) minus the closed holes. All boundary paths must be
    closed, positively oriented and pairwise disjoint."""

    outer: Path | None
    holes: tuple[Path, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(self.holes))
        paths = list(self.holes)
        if self.outer is not None:
            paths.append(self.outer)
        for p in paths:
            if not p.closed:
                raise GeometryError("domain boundaries must be closed paths")
        for p in paths:
            w = winding_number(p, interior_point(p))
            if w != 1:
                raise GeometryError(
                    "boundary paths must be positively oriented (winding +1 "
                    f"around their interior, found {w})")
        for j, hole in enumerate(self.holes):
            wit = interior_point(hole)
            if self.outer is not None and winding_number(self.outer, wit) != 1:
                raise GeometryError(f"hole {j} is not inside the outer boundary")
            for i, other in enumerate(self.holes):
                if i != j and winding_number(other, wit) != 0:
                    raise GeometryError(f"holes {i} and {j} overlap")
        _check_clearance(self.outer, self.holes)

    @property
    def bounded(self) -> bool:
        return self.outer is not None

    def boundary_paths(self) -> tuple[Path, ...]:
        return ((self.outer,) if self.outer else ()) + self.holes

    def contains(self, point: complex) -> bool:
        try:
            if self.outer is not None and winding_number(self.outer, point) != 1:
                return False
            return all(winding_number(h, point) == 0 for h in self.holes)
        except PointOnPathError:
            return False

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        inside = np.ones(points.shape, dtype=bool)
        if self.outer is not None:
            inside &= _winding_many(self.outer, points) == 1
        for hole in self.holes:
            inside &= _winding_many(hole, points) == 0
        return inside

    def boundary_distance(self, point: complex) -> float:
        return min(p.distance(point) for p in self.boundary_paths())


def _check_clearance(outer: Path | None, holes: tuple[Path, ...]) -> None:
    """Reject boundaries that touch or nearly touch (sampled distances)."""
    paths = list(holes) + ([outer] if outer else [])
    samples = [p.sample(128) for p in paths]
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            d = np.abs(samples[i][:, None] - samples[j][None, :]).min()
            if d <= 1e-9:
                raise GeometryError(
                    f"boundary components {i} and {j} touch (gap {d:.3g})")


@functools.lru_cache(maxsize=256)
def interior_point(path: Path) -> complex:
    """A point strictly inside a closed path (winding +-1).

    Tries the sample centroid, then scans a coarse grid over the bbox.
    """
    if not path.closed:
        raise GeometryError("interior point needs a closed path")
    samples = path.sample(64)
    candidate = complex(np.mean(samples))
    if _strictly_inside(path, candidate):
        return candidate
    x0, x1, y0, y1 = path.bbox()
    for n in (8, 16, 32, 64):
        xs = np.linspace(x0, x1, n + 2)[1:-1]
        ys = np.linspace(y0, y1, n + 2)[1:-1]
        for y in ys:
            for x in xs:
                p = complex(x, y)
                if _strictly_inside(path, p):
                    return p
    raise GeometryError("could not locate a point inside the path")


def _strictly_inside(path: Path, p: complex) -> bool:
    if path.distance(p) <= 1e-6 * path.length:
        return False
    try:
        return winding_number(path, p) != 0
    except (PointOnPathError, WindingResidualError):
        return False


# ---------------------------------------------------------------------------
# homology basis

@functools.lru_cache(maxsize=128)
def _hole_enclosure(domain: DomainSpec, j: int) -> tuple[complex, float, float]:
    """(center, lo, hi): circles about `center` with radius in (lo, hi)
    enclose hole j and avoid every other boundary component. hi <= lo means
    no such circle exists."""
    hole = domain.holes[j]
    center = complex(np.mean(hole.sample(256)))
    lo = hole.max_distance(center)
    hi = math.inf
    for i, other in enumerate(domain.holes):
        if i != j:
            hi = min(hi, other.distance(center))
    if domain.outer is not None:
        hi = min(hi, domain.outer.distance(center))
    return center, lo, hi


def _separating_circle(domain: DomainSpec, j: int, frac: float) -> Path | None:
    center, lo, hi = _hole_enclosure(domain, j)
    if not hi > lo * (1.0 + 1e-9):
        return None
    if math.isinf(hi):
        hi = 2.0 * lo if lo > 0 else 1.0
    radius = lo + frac * (hi - lo)
    return circle(center, radius)


def _dilated_hole(domain: DomainSpec, j: int, frac: float) -> Path:
    """Fallback basis curve: the hole boundary pushed outward by the
    fraction frac of the minimal gap to any other boundary component."""
    hole = domain.holes[j]
    mine = hole.sample(256)
    gap = math.inf
    for i, other in enumerate(domain.holes):
        if i == j:
            continue
        gap = min(gap, np.abs(mine[:, None] - other.sample(256)[None, :]).min())
    if domain.outer is not None:
        gap = min(gap, np.abs(mine[:, None]
                              - domain.outer.sample(256)[None, :]).min())
    if not math.isfinite(gap):
        gap = 0.5 * hole.length / math.pi
    d = frac * gap
    n = 512
    z, v = hole.arrays.nodes(*hole.locate(np.arange(n) / n))
    return polygon(z + d * (-1j * v / np.abs(v)))


def _verify_basis_curve(domain: DomainSpec, j: int, curve: Path) -> bool:
    try:
        if winding_number(curve, _hole_witness(domain, j)) != 1:
            return False
        for i in range(len(domain.holes)):
            if i != j and winding_number(curve, _hole_witness(domain, i)) != 0:
                return False
        probes = curve.sample(64)
        return bool(domain.contains_many(probes).all())
    except GeometryError:
        return False


@functools.lru_cache(maxsize=512)
def _hole_witness(domain: DomainSpec, j: int) -> complex:
    return interior_point(domain.holes[j])


def hole_witness(domain: DomainSpec, j: int) -> complex:
    """A point strictly inside hole j."""
    return _hole_witness(domain, j)


@functools.lru_cache(maxsize=128)
def _homology_basis_cached(domain: DomainSpec) -> tuple[Path, ...]:
    out = []
    for j in range(len(domain.holes)):
        curve = _separating_circle(domain, j, 0.5)
        if curve is None or not _verify_basis_curve(domain, j, curve):
            curve = _dilated_hole(domain, j, 0.5)
            if not _verify_basis_curve(domain, j, curve):
                raise GeometryError(
                    f"could not construct a separating basis curve for hole {j}")
        out.append(curve)
    return tuple(out)


def homology_basis(domain: DomainSpec) -> list[Path]:
    """One positively oriented closed curve per hole, each winding once
    around its own hole, zero around the others, and lying in the domain.

    Concentric circles are used whenever the hole admits a separating
    annulus about its sample centroid; otherwise the hole boundary is
    dilated outward by half the minimal gap. Simply connected domains get
    an empty basis.
    """
    return list(_homology_basis_cached(domain))


@functools.lru_cache(maxsize=128)
def basis_curve_variants(domain: DomainSpec, j: int) -> tuple[Path, Path]:
    """Two homologous but distinct admissible curves around hole j, for
    contour-independence cross-checks. A hole without a separating circle
    gets its homology basis curve and a narrower dilation of the hole."""
    variants = []
    for frac in (0.35, 0.7):
        c = _separating_circle(domain, j, frac)
        if c is not None and _verify_basis_curve(domain, j, c):
            variants.append(c)
    if len(variants) < 2:
        base = _homology_basis_cached(domain)[j]
        variants = [base]
        # not the half gap of the base curve, so the two contours differ
        alt = _dilated_hole(domain, j, 0.3)
        if _verify_basis_curve(domain, j, alt):
            variants.append(alt)
        else:  # pragma: no cover - last resort, reuse the base curve
            variants.append(base)
    return variants[0], variants[1]


# ---------------------------------------------------------------------------
# grids and the simply connected hull

@dataclass(frozen=True, eq=False)
class GridDomain:
    """Cell-center rasterization of a region over an axis-aligned box."""

    bounds: tuple[float, float, float, float]  # x0, x1, y0, y1
    nx: int
    ny: int
    mask: np.ndarray  # bool, shape (ny, nx), True = inside

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise GeometryError("grid resolution must be at least 8")
        if self.mask.shape != (self.ny, self.nx):
            raise GeometryError("mask shape does not match resolution")
        x0, x1, y0, y1 = self.bounds
        if not (x1 > x0 and y1 > y0):
            raise GeometryError("empty bounding box")

    def cell_centers(self) -> np.ndarray:
        x0, x1, y0, y1 = self.bounds
        xs = x0 + (np.arange(self.nx) + 0.5) * (x1 - x0) / self.nx
        ys = y0 + (np.arange(self.ny) + 0.5) * (y1 - y0) / self.ny
        return xs[None, :] + 1j * ys[:, None]

    def same_grid(self, other: "GridDomain") -> bool:
        return (self.nx, self.ny) == (other.nx, other.ny) \
            and np.allclose(self.bounds, other.bounds)

    def __eq__(self, other):
        if not isinstance(other, GridDomain):
            return NotImplemented
        return self.same_grid(other) and bool(np.array_equal(self.mask, other.mask))

    def __hash__(self):  # consistent with eq=False usage in sets not needed
        return id(self)


def rasterize(domain: DomainSpec, resolution: int | tuple[int, int],
              bounds: tuple[float, float, float, float] | None = None
              ) -> GridDomain:
    """Winding-number rasterization of a domain over its outer bounding box.

    A cell belongs to the mask iff its center winds once around the outer
    boundary and zero times around every hole. Centers that land exactly on
    a contour count as outside. Unbounded domains need explicit bounds.
    """
    if isinstance(resolution, int):
        nx = ny = resolution
    else:
        nx, ny = resolution
    if bounds is None:
        if domain.outer is None:
            raise GeometryError("unbounded domain needs explicit bounds")
        bounds = domain.outer.bbox()
    x0, x1, y0, y1 = bounds
    xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    centers = xs[None, :] + 1j * ys[:, None]
    if domain.outer is not None:
        w = _winding_many(domain.outer, centers)
        mask = w == 1
    else:
        mask = np.ones(centers.shape, dtype=bool)
    for hole in domain.holes:
        w = _winding_many(hole, centers)
        mask &= w == 0
    return GridDomain((x0, x1, y0, y1), nx, ny, mask)


_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def simply_connected_hull(grid: GridDomain) -> GridDomain:
    """Fill every cell not 4-connected to the grid border through outside
    cells: the complement of the component of infinity.

    Idempotent, and the result always contains the input mask.
    """
    from scipy import ndimage  # slow to import, and only the hull uses it

    if not grid.mask.any():
        raise GeometryError("hull of an empty mask is undefined")
    outside = ~grid.mask
    labels, _ = ndimage.label(outside, structure=_FOUR_CONN)
    border = np.unique(np.concatenate([
        labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]))
    border = border[border != 0]
    escape = np.isin(labels, border)
    return GridDomain(grid.bounds, grid.nx, grid.ny, ~escape)


# ---------------------------------------------------------------------------
# serialization

def segment_to_json(seg: Segment) -> dict:
    if isinstance(seg, Line):
        return {"kind": "line", "a": [seg.a.real, seg.a.imag],
                "b": [seg.b.real, seg.b.imag]}
    return {"kind": "arc", "center": [seg.center.real, seg.center.imag],
            "r": seg.radius, "t0": seg.t0, "t1": seg.t1, "ccw": seg.ccw}


def segment_from_json(obj: dict) -> Segment:
    kind = obj.get("kind")
    if kind == "line":
        return Line(complex(*obj["a"]), complex(*obj["b"]))
    if kind == "arc":
        t0, t1, ccw = float(obj["t0"]), float(obj["t1"]), bool(obj["ccw"])
        sweep = ((t1 - t0) % _TWO_PI) if ccw else -((t0 - t1) % _TWO_PI)
        if sweep == 0.0:
            sweep = _TWO_PI if ccw else -_TWO_PI
        return Arc(complex(*obj["center"]), float(obj["r"]), t0, t0 + sweep, ccw)
    raise GeometryError(f"unknown segment kind {kind!r}")


def path_to_json(path: Path) -> list[dict]:
    return [segment_to_json(s) for s in path.segments]


def path_from_json(segments: Sequence[dict]) -> Path:
    return Path(tuple(segment_from_json(s) for s in segments))
