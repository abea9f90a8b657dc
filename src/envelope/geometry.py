"""Contours, domains and grid geometry.

Paths are chains of line and circular-arc segments. A DomainSpec is a
bounded or unbounded multiply connected region: an outer boundary (or none)
minus finitely many holes. Winding numbers and distances come from one
kernel over the chords of a path (its lines, and its arcs cut into pieces
of at most pi/2), evaluated for arrays of points at once. The argument
increment of an arc piece is its chord angle, plus a full turn in the
piece's direction when the point is inside its circle and the chord angle
turns the other way, so winding numbers are exact for every point off the
path. classify places points against a domain with one kernel pass per
boundary component. The simply connected hull of a rasterized domain is
the complement of the grid component of infinity.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, PointOnPathError, WindingResidualError

_TWO_PI = 2.0 * math.pi
ENDPOINT_TOL = 1e-12
# Largest magnitude of a coordinate or radius read from a scenario. Squared
# distances of such points (Chords.distances) stay inside the float range,
# which points near 1.3e154 overflow.
MAX_COORDINATE = 1e150
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

    def distance(self, p):
        """Distance from a point, or from each point of an array, to the
        path."""
        pts = np.asarray(p, dtype=complex)
        d = self.arrays.chords.distances(pts.reshape(-1))
        return float(d[0]) if pts.ndim == 0 else d.reshape(pts.shape)

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
        self.segments = segments
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

    @functools.cached_property
    def chords(self) -> "Chords":
        """The lines, then the arcs cut into pieces of at most pi/2; piece
        ends are the numbers Arc.point gives."""
        lines = [s for s in self.segments if isinstance(s, Line)]
        a, b = [s.a for s in lines], [s.b for s in lines]
        circles = []  # (center, radius, turn) per arc piece
        for s in self.segments:
            if isinstance(s, Arc):
                pieces = max(1, math.ceil(s.extent / (0.5 * math.pi)))
                ends = [s.point(i / pieces) for i in range(pieces + 1)]
                a += ends[:-1]
                b += ends[1:]
                circles += [(s.center, s.radius, 1.0 if s.ccw else -1.0)] \
                    * pieces
        return Chords(a, b, *zip(*circles))

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
# winding numbers and distances

# Points closer to a path than this fraction of its length lie on it.
_ON_PATH_BAND = 1e-9
# Point-chord pairs per block of the kernel, so its temporaries stay near
# 1 MB each whatever the number of points and chords.
_BLOCK_PAIRS = 2 ** 16
_ON_PATH = -(10 ** 9)  # sentinel for points that land on a contour


class Chords:
    """Chords a -> b of a chain of lines and arc pieces, the kernel behind
    winding numbers and distances of arrays of points. The last
    len(center) chords are arc pieces of at most pi/2 on the circles
    (center, radius), turning counterclockwise where turn is +1 and
    clockwise where it is -1."""

    def __init__(self, a, b, center=(), radius=(), turn=()):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.lines = len(self.a) - len(center)
        self.center = np.asarray(center, dtype=complex)
        self.radius = np.asarray(radius, dtype=float)
        self.turn = np.asarray(turn, dtype=float)

    def _blocks(self, points: np.ndarray):
        """(slice, points as a column, a - p, b - p) per block of points."""
        step = max(1, _BLOCK_PAIRS // len(self.a))
        for s in range(0, len(points), step):
            p = points[s:s + step, None]
            yield slice(s, s + step), p, self.a - p, self.b - p

    def turns(self, points: np.ndarray) -> np.ndarray:
        """Argument increment of the chain around each point, in turns.
        Each chord adds its angle arg((b - p) / (a - p)) in (-pi, pi]. For p
        inside its circle an arc piece sweeps (0, 2 pi) in its own
        direction, so a chord angle of the other sign gains a full turn:
        p lies between piece and chord, or on the chord, where rounding
        picks the sign of +-pi."""
        out = np.empty(len(points))
        n = self.lines
        with np.errstate(all="ignore"):
            for block, p, rel_a, rel_b in self._blocks(points):
                angle = np.angle(rel_b / rel_a)
                if n < len(self.a):
                    chord_angle = angle[:, n:]
                    wrapped = ((_modulus(p - self.center) <= self.radius)
                               & (self.turn * chord_angle < 0.0))
                    angle[:, n:] = np.where(
                        wrapped, chord_angle + self.turn * _TWO_PI,
                        chord_angle)
                out[block] = angle.sum(axis=1)
        return out / _TWO_PI

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the chain: to the nearest point of a
        line; to an arc piece radially inside its wedge, else to its nearer
        end, but never below the radial distance (a lower bound that
        rounding in the end distances would undercut)."""
        out = np.empty(len(points))
        n = self.lines
        direction = self.b[:n] - self.a[:n]
        norm2 = _modulus(direction) ** 2
        start_ray = self.a[n:] - self.center
        end_ray = self.b[n:] - self.center
        for block, p, rel_a, rel_b in self._blocks(points):
            d = np.empty(rel_a.shape)
            if n:
                # Line.distance, with p - a = -(a - p)
                t = -(rel_a[:, :n].real * direction.real
                      + rel_a[:, :n].imag * direction.imag) / norm2
                t = np.clip(t, 0.0, 1.0)
                d[:, :n] = _modulus(self.a[:n] + t * direction - p)
            if n < len(self.a):
                v = p - self.center
                r = _modulus(v)
                wedge = ((r > 0.0)
                         & (self.turn * _cross(start_ray, v) >= 0.0)
                         & (self.turn * _cross(v, end_ray) >= 0.0))
                ends = np.minimum(_modulus(rel_a[:, n:]),
                                  _modulus(rel_b[:, n:]))
                d[:, n:] = np.maximum(np.abs(r - self.radius),
                                      np.where(wedge, 0.0, ends))
            out[block] = d.min(axis=1)
        return out


def _cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _modulus(z):
    """|z| rounded as abs(complex) rounds it, which np.abs may not."""
    return np.hypot(z.real, z.imag)


def winding_number(path: Path, point: complex) -> int:
    """Winding number of a closed path around a point off the path.

    The one-point case of _winding_many. Raises PointOnPathError when the
    point is within 1e-9 * length of the path and WindingResidualError if
    the total fails to land near an integer multiple of 2*pi.
    """
    if not path.closed:
        raise GeometryError("winding number needs a closed path")
    wind, dist = _winding_many(path, np.array([point], dtype=complex))
    if wind[0] != _ON_PATH:
        return int(wind[0])
    if dist[0] <= _ON_PATH_BAND * path.length:
        raise PointOnPathError(f"point {point:.6g} lies on the path")
    raise WindingResidualError("winding total is not near an integer")


def _winding_many(path: Path, points) -> tuple[np.ndarray, np.ndarray]:
    """Winding numbers of a closed path around an array of points, and the
    distance of each point to the path. Points within 1e-9 * length of the
    path, or whose total misses an integer, get the _ON_PATH sentinel."""
    pts = np.asarray(points, dtype=complex).reshape(-1)
    turns = path.arrays.chords.turns(pts)
    dist = path.distance(pts)
    out = np.rint(np.where(np.isfinite(turns), turns, 0.0)).astype(int)
    out[~(np.abs(turns - out) < WINDING_RESIDUAL_LIMIT)
        | (dist <= _ON_PATH_BAND * path.length)] = _ON_PATH
    return out.reshape(np.shape(points)), dist.reshape(np.shape(points))


# ---------------------------------------------------------------------------
# domains

@dataclass(frozen=True)
class DomainSpec:
    """Multiply connected region: interior of `outer` (or the whole plane
    when outer is None) minus the closed holes. All boundary paths must be
    closed, positively oriented and pairwise disjoint."""

    outer: Path | None
    holes: tuple[Path, ...] = ()
    # derived from outer and holes: a point strictly inside each hole, and
    # each hole's least _gap to another boundary (inf when it has none)
    witnesses: tuple[complex, ...] = field(init=False, repr=False,
                                           compare=False)
    gaps: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(self.holes))
        if not all(p.closed for p in self.boundary_paths()):
            raise GeometryError("domain boundaries must be closed paths")
        # one winding pass per boundary: each hole at every hole witness
        # (its own gives its orientation), the outer boundary at its
        # interior point and at the witnesses; a witness on another
        # boundary counts as outside or overlapping
        wits = [interior_point(h) for h in self.holes]
        object.__setattr__(self, "witnesses", tuple(wits))
        winds = np.reshape([_winding_many(h, wits)[0] for h in self.holes],
                           (len(wits), len(wits)))
        turns, inside = list(np.diagonal(winds)), []
        if self.outer is not None:
            turn, *inside = _winding_many(
                self.outer, [interior_point(self.outer)] + wits)[0]
            turns.append(turn)
        for w in turns:
            if w != 1:
                raise GeometryError(
                    "boundary paths must be positively oriented (winding +1 "
                    f"around their interior, found {w})")
        for j in np.flatnonzero(np.array(inside) != 1):
            raise GeometryError(f"hole {j} is not inside the outer boundary")
        # every hole winds once around its own witness by now
        for i, j in np.argwhere(winds != np.eye(len(wits))):
            raise GeometryError(f"holes {i} and {j} overlap")
        paths = self.holes + ((self.outer,) if self.outer else ())
        gaps = [math.inf] * len(paths)
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                d = 0.0 if _paths_cross(paths[i], paths[j]) \
                    else _gap(paths[i], paths[j])
                if d <= 1e-9:
                    raise GeometryError(f"boundary components {i} and {j} "
                                        f"touch (gap {d:.3g})")
                gaps[i], gaps[j] = min(gaps[i], d), min(gaps[j], d)
        object.__setattr__(self, "gaps", tuple(gaps[:len(self.holes)]))

    @property
    def bounded(self) -> bool:
        return self.outer is not None

    def boundary_paths(self) -> tuple[Path, ...]:
        return ((self.outer,) if self.outer else ()) + self.holes

    def contains(self, point: complex) -> bool:
        return bool(classify(self, point).inside)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Which points lie in the domain; points on a boundary do not."""
        return classify(self, points).inside


class Classification(NamedTuple):
    hole: np.ndarray         # hole a point lies in or on, -1 for none
    inside: np.ndarray       # in the domain proper, off its boundary
    on_boundary: np.ndarray  # on the boundary of its hole
    distance: np.ndarray     # to the nearest boundary component


def classify(domain: DomainSpec, points) -> Classification:
    """Where each point lies against a domain (arrays of the points' shape),
    from one winding-and-distance pass per boundary component. A winding
    total that misses an integer counts as on the boundary; a point that
    rounding puts on two holes goes to the first. Distances on the whole
    plane are inf."""
    pts = np.asarray(points, dtype=complex)
    flat = pts.reshape(-1)
    hole = np.full(flat.shape, -1)
    inside = np.ones(flat.shape, dtype=bool)
    on_boundary = np.zeros(flat.shape, dtype=bool)
    distance = np.full(flat.shape, math.inf)
    if domain.outer is not None:
        wind, distance = _winding_many(domain.outer, flat)
        inside = wind == 1
    for j in reversed(range(len(domain.holes))):
        wind, dist = _winding_many(domain.holes[j], flat)
        inside &= wind == 0
        mine = (wind == 1) | (wind == _ON_PATH)
        hole[mine] = j
        on_boundary[mine] = wind[mine] == _ON_PATH
        distance = np.minimum(distance, dist)
    return Classification(*(array.reshape(pts.shape) for array in
                            (hole, inside, on_boundary, distance)))


def _gap(a: Path, b: Path) -> float:
    """Least distance from the segment starts and 256 samples of either
    path to the other; exact for polygons (a closest pair has a vertex)."""
    return min(float(np.min(p.distance(np.append(q.sample(256), [
        s.start for s in q.segments])))) for p, q in ((a, b), (b, a)))


def interior_point(path: Path) -> complex:
    """A point strictly inside a closed path (winding +-1).

    Tries the sample centroid, then scans a coarse grid over the bbox.
    """
    if not path.closed:
        raise GeometryError("interior point needs a closed path")

    def candidates():  # each grid built only when the points before fail
        yield np.array([np.mean(path.sample(64))])
        x0, x1, y0, y1 = path.bbox()
        for n in (8, 16, 32, 64):
            xs = np.linspace(x0, x1, n + 2)[1:-1]
            ys = np.linspace(y0, y1, n + 2)[1:-1]
            yield (xs[None, :] + 1j * ys[:, None]).ravel()
    for points in candidates():  # the grids row by row, lowest y first
        wind, dist = _winding_many(path, points)
        hits = np.flatnonzero((wind != 0) & (wind != _ON_PATH)
                              & (dist > 1e-6 * path.length))
        if hits.size:
            return complex(points[hits[0]])
    raise GeometryError("could not locate a point inside the path")


# ---------------------------------------------------------------------------
# homology basis

# Each hole's contours follow one rule, decided once: circles about its
# sample centroid at these fractions of (lo, hi) when lo < hi, else
# dilations of its boundary at 0.5 and 0.3 of its gap to the other
# boundaries. Both rules give the basis curve at 0.5.
_CIRCLE_FRACTIONS = (0.35, 0.5, 0.7)


@functools.lru_cache(maxsize=128)
def _hole_rule(domain: DomainSpec, j: int) -> tuple[Path, ...]:
    """The circles of hole j at _CIRCLE_FRACTIONS of (lo, hi), or () when
    lo < hi fails: lo is the hole's reach from its sample centroid, hi the
    distance from there to the nearest other boundary. A radius in (lo, hi)
    meets no boundary and encloses the hole, and no other hole nor the
    outside, since their boundaries lie at least hi away and DomainSpec
    refuses nested holes; so the circles need no check."""
    hole = domain.holes[j]
    others = ((domain.outer,) if domain.outer is not None else ()) \
        + domain.holes[:j] + domain.holes[j + 1:]
    center = complex(np.mean(hole.sample(256)))
    lo = hole.max_distance(center)
    hi = min((p.distance(center) for p in others), default=math.inf)
    if not hi > lo * (1.0 + 1e-9):
        return ()
    if math.isinf(hi):
        hi = 2.0 * lo
    return tuple(circle(center, lo + frac * (hi - lo))
                 for frac in _CIRCLE_FRACTIONS)


@functools.lru_cache(maxsize=512)
def _contour(domain: DomainSpec, j: int, frac: float) -> Path:
    """Hole j's contour at the fraction frac of its rule. A dilation, whose
    cut offsets can backtrack, is built and checked on first use; one that
    fails is an error."""
    circles = _hole_rule(domain, j)
    if circles:
        return circles[_CIRCLE_FRACTIONS.index(frac)]
    try:
        curve = _dilated_hole(domain.holes[j], frac * domain.gaps[j])
    except GeometryError as exc:
        raise GeometryError(f"hole {j} has no dilation by {frac} of the "
                            f"gap: {exc}") from None
    if not _basis_curves_pass(domain, j, (curve,)):
        raise GeometryError("could not construct a separating basis curve "
                            f"for hole {j} (dilation by {frac} of the gap)")
    return curve


def _dilated_hole(hole: Path, d: float) -> Path:
    """The exact outward offset by d of a positively oriented hole: each
    line or arc moved d along its outward normal, an arc of radius d about
    each convex corner, and each concave corner cut where offsets cross."""
    segs = hole.segments
    pieces = [Line(*(z - 1j * d * (s.b - s.a) / s.length for z in (s.a, s.b)))
              if isinstance(s, Line) else  # Arc refuses clockwise r <= d
              Arc(s.center, s.radius + (d if s.ccw else -d), s.t0, s.t1, s.ccw)
              for s in segs]
    # the parameters kept of each piece, and the arc after it if convex
    kept, corners = [[0.0, 1.0] for _ in segs], [[] for _ in segs]
    for k, s in enumerate(segs):
        nxt = (k + 1) % len(segs)
        nu, nw = (-1j * v / abs(v) for v in (s.velocity(1.0),
                                             segs[nxt].velocity(0.0)))
        turn = cmath.phase(nw / nu)  # within 1e-13 of 0: a smooth joint
        if turn > 1e-13:
            corners[k] = [Arc(s.end, d, cmath.phase(nu), cmath.phase(nw))]
        elif turn < -1e-13:
            x = _crossing(pieces[k], pieces[nxt], s.end)
            kept[k][1], kept[nxt][0] = (_parameter(pieces[k], x, 1.0),
                                        _parameter(pieces[nxt], x, 0.0))
    out = []  # where two cuts cross, the piece backtracks between them
    for p, (t0, t1), corner in zip(pieces, kept, corners):
        if abs(t1 - t0) * p.length > ENDPOINT_TOL * max(1.0, abs(p.start)):
            out.append(p if (t0, t1) == (0.0, 1.0) else
                       Line(p.point(t0), p.point(t1)) if isinstance(p, Line)
                       else Arc(p.center, p.radius, p.angle(t0),
                                p.angle(t1), p.ccw == (t1 > t0)))
        out += corner
    return Path(tuple(out), closed=True)


def _crossing(p: Segment, q: Segment, vertex: complex) -> complex:
    """The crossing nearest vertex of the lines or circles carrying p, q."""
    points = _crossings(p, q)
    if not points:
        raise GeometryError("the offsets at a concave corner do not cross")
    return min(points, key=lambda x: abs(x - vertex))


def _crossings(p: Segment, q: Segment) -> tuple[complex, ...]:
    """Where the lines or circles carrying p and q cross or touch: none
    (parallel lines, concentric or apart circles), one or two points."""
    if isinstance(p, Line) and isinstance(q, Line):
        u, w = p.b - p.a, q.b - q.a
        turn = _cross(u, w)
        return (p.a + u * (_cross(q.a - p.a, w) / turn),) if turn else ()
    line, arc = (p, q) if isinstance(p, Line) else (q, p)
    if isinstance(line, Arc):  # two circles cross on their radical line
        gap, span = q.center - p.center, abs(q.center - p.center) or math.nan
        point = p.center + gap * (span ** 2 + p.radius ** 2 - q.radius ** 2) \
            / (2.0 * span ** 2)
        u = 1j * gap / span
    else:  # a point and unit direction u of the line
        point, u = line.a, (line.b - line.a) / line.length
    b = ((point - arc.center) * u.conjugate()).real  # foot at point - b u
    h2 = b * b - abs(point - arc.center) ** 2 + arc.radius ** 2
    if not h2 >= -1e-12 * arc.radius ** 2:
        return ()
    base, h = point - b * u, math.sqrt(max(h2, 0.0))
    return base + h * u, base - h * u


def _paths_cross(a: Path, b: Path) -> bool:
    """Whether a segment of a meets a segment of b: a crossing of their
    lines or circles within 1e-9 of both, for each pair of segments whose
    bounding boxes meet."""
    boxes = [(q, q.bbox()) for q in b.segments]
    for p in a.segments:
        x0, x1, y0, y1 = p.bbox()
        for q, (u0, u1, v0, v1) in boxes:
            if u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1 \
                    and any(max(p.distance(x), q.distance(x)) <= 1e-9
                            for x in _crossings(p, q)):
                return True
    return False


def _parameter(piece: Segment, x: complex, near: float) -> float:
    """The parameter of x on piece's line or circle (nearest near)."""
    if isinstance(piece, Line):
        return ((x - piece.a) / (piece.b - piece.a)).real
    return near + math.remainder(cmath.phase(x - piece.center)
                                 - piece.angle(near), _TWO_PI) / piece.sweep


def _basis_curves_pass(domain: DomainSpec, j: int,
                       curves: tuple[Path, ...]) -> bool:
    """Does every curve wind once around hole j, zero times around the
    other holes, and lie in the domain (64 samples each, classified
    together)?"""
    want = np.arange(len(domain.holes)) == j
    return all(np.array_equal(_winding_many(c, domain.witnesses)[0], want)
               for c in curves) \
        and bool(domain.contains_many(
            np.concatenate([c.sample(64) for c in curves])).all())


def hole_witness(domain: DomainSpec, j: int) -> complex:
    """A point strictly inside hole j."""
    return domain.witnesses[j]


def homology_basis(domain: DomainSpec) -> list[Path]:
    """One positively oriented closed curve per hole, each winding once
    around its own hole, zero around the others, and lying in the domain.

    A concentric circle is used when the hole admits a separating annulus
    about its sample centroid; otherwise the hole boundary is dilated
    outward by half the minimal gap. Simply connected domains get an empty
    basis.
    """
    return [_contour(domain, j, 0.5) for j in range(len(domain.holes))]


def basis_curve_variants(domain: DomainSpec, j: int) -> tuple[Path, Path]:
    """Two homologous but distinct admissible curves around hole j, for
    contour-independence cross-checks: circles at 0.35 and 0.7 of the
    separating annulus, or, for a hole without separating circles, its
    homology basis curve and a narrower dilation of the hole."""
    first, second = (0.35, 0.7) if _hole_rule(domain, j) else (0.5, 0.3)
    return _contour(domain, j, first), _contour(domain, j, second)


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
    return GridDomain((x0, x1, y0, y1), nx, ny, domain.contains_many(centers))


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


def _json_number(node, integer: bool = False) -> float | int | None:
    """node as a finite float (an int when integer is set), or None for
    anything else: json reads true and false as integers and NaN and
    Infinity as floats, and none of them is a number here."""
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    if integer:
        return node if isinstance(node, int) else None
    try:
        value = float(node)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _json_coordinate(node) -> float | None:
    """node as a float of magnitude at most MAX_COORDINATE, or None."""
    value = _json_number(node)
    return value if value is not None and abs(value) <= MAX_COORDINATE \
        else None


def _json_point(node) -> complex | None:
    """[re, im] as a complex number, or None for anything else."""
    if isinstance(node, (list, tuple)) and len(node) == 2:
        x, y = _json_coordinate(node[0]), _json_coordinate(node[1])
        if x is not None and y is not None:
            return complex(x, y)
    return None


def segment_from_json(obj: dict) -> Segment:
    if not isinstance(obj, dict):
        raise GeometryError("a segment is an object")
    kind = obj.get("kind")
    if kind == "line":
        ends = [_json_point(obj.get(key)) for key in ("a", "b")]
        if None not in ends:
            return Line(*ends)
    elif kind == "arc":
        center = _json_point(obj.get("center"))
        r = _json_coordinate(obj.get("r"))
        t0, t1 = (_json_number(obj.get(key)) for key in ("t0", "t1"))
        ccw = obj.get("ccw")
        if None not in (center, r, t0, t1) and isinstance(ccw, bool):
            sweep = ((t1 - t0) % _TWO_PI) if ccw else -((t0 - t1) % _TWO_PI)
            if sweep == 0.0:
                sweep = _TWO_PI if ccw else -_TWO_PI
            return Arc(center, r, t0, t0 + sweep, ccw)
    else:
        raise GeometryError(f"unknown segment kind {kind!r}")
    raise GeometryError(f"{kind} segment: points must be [re, im] pairs, "
                        "coordinates and radii numbers of magnitude at most "
                        f"{MAX_COORDINATE:g}, and an arc's ccw true or false")


def path_to_json(path: Path) -> list[dict]:
    return [segment_to_json(s) for s in path.segments]


def path_from_json(segments: Sequence[dict]) -> Path:
    return Path(tuple(segment_from_json(s) for s in segments))
