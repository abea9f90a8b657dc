"""Contours, domains and grid geometry.

Paths are chains of line and circular-arc segments. A DomainSpec is a
bounded or unbounded multiply connected region: an outer boundary (or none)
minus finitely many holes. Winding numbers and distances come from one
kernel over the chords of a path (its lines, and its arcs cut into pieces
of at most pi/2), evaluated for arrays of points at once. The argument
increment of an arc piece is its chord angle, plus a full turn in the
piece's direction when the point is inside its circle and the chord angle
turns the other way, so winding numbers are exact for every point off the
path. The segments of one path or of several are one SegmentArrays, and
its kernel has a column per path. A domain joins the arrays of its
boundary components once, and both its kernel and its exact gaps read
them, so classify, the domain's set-up checks and gaps, and
DomainSpec.contains_path each take one kernel pass (contains_path a
second one, over the domain's segments and the path's, where its sampled
lower bound of the gaps leaves the exact gaps to decide); a pass measures
the distance of every point and winds around only the points whose
windings are read. A domain samples each boundary once, and keeps what it
derives, the hole rules and contours included. Every
point of a segment, arc ends and chord ends included, comes from one
formula for a number or an array of parameters. The simply connected
hull of a rasterized domain is the complement of the grid component of
infinity.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (EnvelopeError, GeometryError, PointOnPathError,
                     WindingResidualError)

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
    pieces = 1  # see Arc.pieces

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
        return self.a + t * (self.b - self.a)

    def velocity(self, t):
        """The constant b - a, which broadcasts against t."""
        return self.b - self.a

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

    @functools.cached_property
    def extent(self) -> float:
        """Unsigned angular extent in (0, 2*pi]; equal angles mean a full
        circle."""
        if self.ccw:
            raw = (self.t1 - self.t0) % _TWO_PI
        else:
            raw = (self.t0 - self.t1) % _TWO_PI
        return raw if raw > 0.0 else _TWO_PI

    @functools.cached_property
    def pieces(self) -> int:
        """The count p of pieces [k/p, (k+1)/p] of the parameter, each at
        most a quarter turn: the winding kernel's chords and the adaptive
        quadrature's first panels."""
        return max(1, math.ceil(self.extent / (0.5 * math.pi)))

    @property
    def sweep(self) -> float:
        return self.extent if self.ccw else -self.extent

    def angle(self, t):
        return self.t0 + t * self.sweep

    @functools.cached_property
    def start(self) -> complex:
        return self.point(0.0)

    @functools.cached_property
    def end(self) -> complex:
        return self.point(1.0)

    @property
    def length(self) -> float:
        return self.radius * self.extent

    def point(self, t):
        return self.center + self.radius * np.exp(1j * self.angle(t))

    def velocity(self, t):
        return 1j * self.sweep * self.radius * np.exp(1j * self.angle(t))

    def reversed(self) -> "Arc":
        end_angle = self.t0 + self.sweep
        return Arc(self.center, self.radius, end_angle, self.t0, not self.ccw)

    def _covers_angle(self, theta: float) -> bool:
        if self.ccw:
            return (theta - self.t0) % _TWO_PI <= self.extent
        return (self.t0 - theta) % _TWO_PI <= self.extent

    def bbox(self) -> tuple[float, float, float, float]:
        # Python floats, which numpy reads faster than its own scalars
        start, end = complex(self.start), complex(self.end)
        xs, ys = [start.real, end.real], [start.imag, end.imag]
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


def _reach(segments) -> float:
    """Largest modulus of a line end or an arc's centre plus its radius."""
    return max(abs(s.center) + s.radius if isinstance(s, Arc)
               else max(abs(s.a), abs(s.b)) for s in segments)


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
        tol = ENDPOINT_TOL * self.reach
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
    def reach(self) -> float:
        """_reach of the path's segments."""
        return _reach(self.segments)

    @functools.cached_property
    def arrays(self) -> "SegmentArrays":
        """The segment parameters as arrays, built on first use."""
        return SegmentArrays(self.segments)

    @property
    def band(self) -> float:
        """Points this close to the path lie on it (Chords.band)."""
        return float(self.arrays.chords.band[0])

    def reversed(self) -> "Path":
        return Path(tuple(s.reversed() for s in reversed(self.segments)),
                    self.closed)

    def bbox(self) -> tuple[float, float, float, float]:
        x0, x1, y0, y1 = self.arrays.table[7:].real
        return (float(x0.min()), float(x1.max()), float(y0.min()),
                float(y1.max()))

    def distance(self, p):
        """Distance from a point, or from each point of an array, to the
        path."""
        pts = np.asarray(p, dtype=complex)
        d = self.arrays.chords.distances(pts.reshape(-1))[:, 0]
        return float(d[0]) if pts.ndim == 0 else d.reshape(pts.shape)

    def max_distance(self, p: complex) -> float:
        return max(s.max_distance(p) for s in self.segments)

    def points_at(self, fractions):
        """Point at one arclength fraction in [0, 1], or the points at an
        array of them."""
        z = self.arrays.nodes(*self.locate(fractions))[0]
        return complex(z) if np.ndim(z) == 0 else z

    def locate(self, fractions) -> tuple[np.ndarray, np.ndarray]:
        """(segment index, local parameter) of each arclength fraction in
        [0, 1]; a fraction on a junction belongs to the earlier segment."""
        fr = np.asarray(fractions, dtype=float)
        if not ((fr >= 0.0) & (fr <= 1.0)).all():
            raise ValueError("arclength fraction must lie in [0, 1]")
        arrays = self.arrays
        target = fr * self.length
        if len(self.segments) == 1:  # the same numbers: the start is 0.0
            index = np.zeros(fr.shape, dtype=np.intp)
            u = target / arrays.lengths[0]
        else:
            index = np.minimum(arrays.ends.searchsorted(target),
                               len(self.segments) - 1)
            u = (target - arrays.starts[index]) / arrays.lengths[index]
        return index, np.minimum(np.maximum(u, 0.0), 1.0)

    def sample(self, n: int) -> np.ndarray:
        """n points equally spaced in arclength, from the start: the
        fractions of np.linspace(0, 1, n, endpoint=False)."""
        return self.points_at(np.arange(n) * (1.0 / n))


def _column(s: Segment) -> tuple:
    """SegmentArrays' column of one segment: Segment.length, Arc.sweep and
    Segment.bbox each read once, as Python numbers."""
    if isinstance(s, Arc):
        r, extent = s.radius, s.extent
        sweep = extent if s.ccw else -extent
        return (1.0, s.center, 0j, 0j, r, r ** 2, r * extent, *s.bbox(),
                1j * sweep * r, s.t0, sweep, 0j)
    a, b = s.a, s.b
    d = b - a
    length = abs(d)
    return (0.0, a, d, d / length, 0.0, 0.0, length, min(a.real, b.real),
            max(a.real, b.real), min(a.imag, b.imag), max(a.imag, b.imag),
            0j, 0.0, 0.0, b)


class SegmentArrays:
    """The segments of one or more paths as parameter arrays, counts[k] of
    them path k's, in path order: a line is a + t d, an arc center + radius
    e^{i (t0 + t sweep)}; slots a kind does not use are zero. lengths,
    starts and ends are per-segment arclengths."""

    def __init__(self, segments: tuple[Segment, ...], columns=None,
                 counts: tuple[int, ...] | None = None):
        self.segments = segments
        self.counts = (len(segments),) if counts is None else counts
        # one column per segment; the arc velocity factor is the scalar
        # expression of Arc.velocity, so both round alike. table's rows are
        # what the gap rule reads: whether it is an arc, origin, direction,
        # a line's unit direction, radius, radius ** 2, length and bbox x0,
        # x1, y0, y1, each number as Python rounds it
        if columns is None:
            columns = np.array([_column(s) for s in segments],
                               dtype=complex).T
        self.columns = columns
        self.table = columns[:11]
        self.origin, self.direction = columns[1:3]
        self.radius, self.lengths = columns[4].real, columns[6].real
        self.arc_velocity, self.line_end = columns[11], columns[14]
        self.t0, self.sweep = columns[12].real, columns[13].real
        self.is_arc = columns[0].real > 0.0
        self.has_arcs = bool(self.is_arc.any())
        self.has_lines = not self.is_arc.all()

    @classmethod
    def joined(cls, arrays: Sequence["SegmentArrays"]) -> "SegmentArrays":
        """The segments of several as one, from their columns: the paths of
        each, in order."""
        return cls(tuple(itertools.chain.from_iterable(
            a.segments for a in arrays)), np.hstack([a.columns
                                                     for a in arrays]),
            tuple(itertools.chain.from_iterable(a.counts for a in arrays)))

    @functools.cached_property
    def path(self) -> np.ndarray:
        """The path of each segment."""
        return np.repeat(np.arange(len(self.counts)), self.counts)

    @functools.cached_property
    def own(self) -> tuple[np.ndarray, np.ndarray]:
        """The points of its own paths that each gap tests (_gap_points):
        every segment's start, then every path's end; and their paths."""
        last = np.cumsum(self.counts) - 1
        return (np.array([s.start for s in self.segments]
                         + [self.segments[k].end for k in last]),
                np.append(self.path, np.arange(len(self.counts))))

    @functools.cached_property
    def ends(self) -> np.ndarray:
        return np.cumsum(self.lengths)

    @functools.cached_property
    def starts(self) -> np.ndarray:
        return np.concatenate(([0.0], self.ends[:-1]))

    @functools.cached_property
    def pieces(self) -> np.ndarray:
        """Segment.pieces of every segment, a line's sweep 0 giving 1."""
        return np.maximum(np.ceil(np.abs(self.sweep) / (0.5 * math.pi)),
                          1.0).astype(int)

    @functools.cached_property
    def chain(self) -> tuple[np.ndarray, ...]:
        """The paths as one chain in the layout of Chords: the chord ends a
        and b of every line, then of every arc cut into its pieces
        (Arc.pieces), and each piece's center, radius and turn. An arc of
        p pieces ends its chords at the nodes of the fractions k / p, the
        numbers Arc.point gives; a line's are its own ends."""
        if not self.has_arcs:
            return self.origin, self.line_end, *_NO_ARCS
        arcs = np.flatnonzero(self.is_arc)
        p = self.pieces[arcs][:, None]
        k = np.arange(p.max() + 1)
        # row i: arc i at the fractions k / p[i], unread past 1
        ends = self.nodes(arcs[:, None], k / p)[0]
        starts = k[:-1] < p
        a, b = ends[:, :-1][starts], ends[:, 1:][starts]
        if self.has_lines:
            lines = ~self.is_arc
            a = np.concatenate((self.origin[lines], a))
            b = np.concatenate((self.line_end[lines], b))
        piece = np.repeat(arcs, p[:, 0])
        return (a, b, self.origin[piece], self.radius[piece],
                np.sign(self.sweep[piece]))

    @functools.cached_property
    def chords(self) -> "Chords":
        """The kernel of the paths' chain, a column per path: each path's
        lines, and its arc pieces, the rest of its pieces."""
        first = [0, *itertools.accumulate(self.counts)][:-1]
        lines = np.add.reduceat(~self.is_arc, first, dtype=int)
        pieces = np.add.reduceat(self.pieces, first)
        return Chords(self.chain, lines.tolist(), (pieces - lines).tolist())

    def nodes(self, index: np.ndarray, t: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Points and velocities at local parameters t of the segments
        index (broadcast against t along its leading axes); entry for entry
        the numbers Segment.point and Segment.velocity give. Where every
        indexed segment is a line, the velocities broadcast against the
        points. A formula runs only where some indexed segment is of its
        kind, and both, with a choice per node, only where both kinds are
        indexed."""
        lines, arcs = self.has_lines, self.has_arcs
        if self.lengths.size == 1:
            i = 0  # the same numbers without the gathers
        else:
            i = index.reshape(index.shape + (1,) * (t.ndim - index.ndim))
            if lines and arcs:
                arc = self.is_arc[i]
                if arc.all():
                    lines = False
                elif not arc.any():
                    arcs = False
        if lines:
            v = self.direction[i]
            z = self.origin[i] + t * v
        if arcs:
            e = np.exp(1j * (self.t0[i] + t * self.sweep[i]))
            za = self.origin[i] + self.radius[i] * e
            va = self.arc_velocity[i] * e
            if not lines:
                return za, va
            z = np.where(arc, za, z)
            v = np.where(arc, va, v)
        return z, v


# the arc part of a chain of lines only: no centres, radii or turns
_NO_ARCS = (np.empty(0, dtype=complex), np.empty(0), np.empty(0))


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

# Points closer to a path than this fraction of its length, its band, lie
# on it; every test of a distance against zero reads the curves' bands.
_ON_PATH_BAND = 1e-9
# Point-chord pairs per block of the kernel, so its temporaries stay near
# 1 MB each whatever the number of points and chords; segment pairs per
# block of gap points, for the same reason.
_BLOCK_PAIRS = 2 ** 16
_GAP_PAIRS = 2 ** 12
_ON_PATH = -(10 ** 9)  # sentinel for points that land on a contour
# DomainSpec.contains_path bounds a path's gaps from this many samples; the
# bound allows for rounding of this fraction of the numbers it is made of
# (DomainSpec._scale), thousands of times the few ulps a distance rounds by
_PATH_SAMPLES = 64
_BOUND_MARGIN = 1e-12


class Chords:
    """Chords a -> b of one or more chains of lines and arc pieces, the
    kernel behind winding numbers and distances of arrays of points. The
    chains come as one chain (a, b, center, radius, turn) in the kernel's
    layout, as SegmentArrays.chain gives it for one path or several: every
    chain's lines, then every chain's arc pieces, each in the order of the
    chains, lines[k] and arcs[k] of them chain k's. a and b are the chords'
    ends; the last len(center) chords are arc pieces of at most pi/2 on the
    circles (center, radius), turning counterclockwise where turn is +1 and
    clockwise where it is -1 (a polyline has none). Windings and distances
    give one column per chain. Points within band[k] of chain k lie on
    it."""

    def __init__(self, chain, lines: list[int], arcs: list[int]):
        self.a, self.b, self.center, self.radius, self.turn = chain
        self.lines = n = sum(lines)
        # what distances reads of each chord; a line of length 0, as
        # repeated polyline nodes give, is its point a
        self.direction = self.b[:n] - self.a[:n]
        lengths = _modulus(self.direction)
        self.norm2 = np.maximum(lengths ** 2, np.finfo(float).tiny)
        self._neg_norm2 = -self.norm2
        start_ray, end_ray = self.a[n:] - self.center, self.b[n:] - self.center
        arc_lengths = self.radius * np.abs(np.angle(end_ray / start_ray))
        # the rays to each arc piece's ends, turned by its sense, as one
        # array: a point v lies in the piece's wedge where _cross(start, v)
        # >= 0 and _cross(v, end) >= 0, that is _cross(end, v) <= 0, the
        # same float negated
        self.rays = np.array((self.turn * start_ray, self.turn * end_ray))
        # the full turn an arc piece's chord angle gains (Chords._pass)
        self._full_turn = self.turn * _TWO_PI
        # a chain's band sums its own slices, the floats of its kernel alone
        at_line = [0, *itertools.accumulate(lines)]
        at_arc = [0, *itertools.accumulate(arcs)]
        ids = range(len(lines))
        self.band = _ON_PATH_BAND * np.array([
            float(lengths[at_line[k]:at_line[k + 1]].sum()
                  + arc_lengths[at_arc[k]:at_arc[k + 1]].sum())
            for k in ids])
        # chain k is the chords order[starts[k]:starts[k + 1]], or those
        # chords as they stand where order is None, as where no chain's
        # lines follow another chain's arc pieces: permuting chords already
        # in order costs about 9% of a pass over a path of thousands
        sizes = [m + a for m, a in zip(lines, arcs)]
        self.starts = np.array([0, *itertools.accumulate(sizes)][:-1])
        self.order = None
        if max((k for k in ids if lines[k]), default=-1) \
                > min((k for k in ids if arcs[k]), default=len(ids)):
            self.order = np.argsort(np.repeat([*ids, *ids], lines + arcs),
                                    kind="stable")

    def _blocks(self, points: np.ndarray):
        """(slice, points as a column, a - p, b - p) per block of points."""
        step = max(1, _BLOCK_PAIRS // len(self.a))
        for s in range(0, len(points), step):
            p = points[s:s + step, None]
            yield slice(s, s + step), p, self.a - p, self.b - p

    def _per_chain(self, ufunc, values: np.ndarray, out=None) -> np.ndarray:
        """ufunc reduced over the chords of each chain, a column each."""
        if self.order is not None:
            values = values[:, self.order]
        return ufunc.reduceat(values, self.starts, axis=1, out=out)

    def _pass(self, points: np.ndarray, wound: int):
        """Each point's distance to each chain, and each chain's argument
        increment in turns around each of the first wound points.

        Distance: to the nearest point of a line; to an arc piece radially
        inside its wedge, else to its nearer end, but never below the
        radial distance (a lower bound that rounding in the end distances
        would undercut). Increment: each chord adds its angle
        arg((b - p) / (a - p)) in (-pi, pi]. For p inside its circle an arc
        piece sweeps (0, 2 pi) in its own direction, so a chord angle of the
        other sign gains a full turn: p lies between piece and chord, or on
        the chord, where rounding picks the sign of +-pi."""
        dist = np.empty((len(points), len(self.starts)))
        turns = np.empty((wound, len(self.starts)))
        n, direction = self.lines, self.direction
        with np.errstate(all="ignore"):
            for block, p, rel_a, rel_b in self._blocks(points):
                d = np.empty(rel_a.shape)
                if n:
                    # Line.distance, with p - a = -(a - p): t is
                    # -(x + y) / norm2, which is (x + y) / -norm2 exactly
                    t = rel_a[:, :n].real * direction.real
                    t += rel_a[:, :n].imag * direction.imag
                    t /= self._neg_norm2
                    np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
                    near = t * direction
                    near += self.a[:n]
                    near -= p
                    np.hypot(near.real, near.imag, out=d[:, :n])
                if n < len(self.a):
                    v = p - self.center
                    r = _modulus(v)
                    turned = _cross(self.rays[:, None], v)
                    wedge = (r > 0.0) & (turned[0] >= 0.0) \
                        & (turned[1] <= 0.0)
                    ends = np.minimum(_modulus(rel_a[:, n:]),
                                      _modulus(rel_b[:, n:]))
                    ends[wedge] = 0.0
                    radial = np.abs(r - self.radius)
                    np.maximum(radial, ends, out=d[:, n:])
                self._per_chain(np.minimum, d, dist[block])
                if block.start >= wound:
                    continue
                rows = slice(0, wound - block.start)  # its points to wind
                quotient = rel_b[rows] / rel_a[rows]
                angle = np.arctan2(quotient.imag, quotient.real)
                if n < len(self.a):
                    chord_angle = angle[:, n:]
                    np.add(chord_angle, self._full_turn, out=chord_angle,
                           where=(r[rows] <= self.radius)
                           & (self.turn * chord_angle < 0.0))
                np.divide(self._per_chain(np.add, angle), _TWO_PI,
                          out=turns[block])
        return dist, turns

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to each chain."""
        return self._pass(points, 0)[0]

    def windings(self, points: np.ndarray, wound: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Winding number of each closed chain around each of the first
        wound points (every point by default), or _ON_PATH for a point
        within the chain's band or whose total misses an integer; and each
        point's distance to each chain. A pass that winds fewer points
        costs less: the distances are about three fifths of its work."""
        dist, turns = self._pass(points, len(points) if wound is None
                                 else wound)
        out = np.rint(np.where(np.isfinite(turns), turns, 0.0)).astype(int)
        out[~(np.abs(turns - out) < WINDING_RESIDUAL_LIMIT)
            | (dist[:len(out)] <= self.band)] = _ON_PATH
        return out, dist


def _cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _modulus(z):
    """|z| rounded as abs(complex) rounds it, which np.abs may not."""
    return np.hypot(z.real, z.imag)


def _mean(z: np.ndarray) -> complex:
    """np.mean(z) of a flat array, without np.mean's wrapper: the same
    numpy sum and quotient."""
    return z.sum() / z.size


def _finite_points(points) -> np.ndarray:
    """points as a flat complex array; a GeometryError names the first
    point that is not finite."""
    flat = np.asarray(points, dtype=complex).reshape(-1)
    for p in flat[~np.isfinite(flat)]:
        raise GeometryError(f"point {p} is not finite")
    return flat


def winding_number(path: Path, point: complex) -> int:
    """Winding number of a closed path around a point off the path.

    The one-point case of _winding_many. Raises GeometryError for a point
    that is not finite, PointOnPathError when the point is within the
    path's band, 1e-9 * length, and WindingResidualError if the total fails
    to land near an integer multiple of 2*pi.
    """
    if not path.closed:
        raise GeometryError("winding number needs a closed path")
    wind, dist = _winding_many(path, _finite_points(point))
    if wind[0] != _ON_PATH:
        return int(wind[0])
    if dist[0] <= path.band:
        raise PointOnPathError(f"point {point:.6g} lies on the path")
    raise WindingResidualError("winding total is not near an integer")


def _winding_many(path: Path, points) -> tuple[np.ndarray, np.ndarray]:
    """Chords.windings of a closed path, for points of any shape."""
    wind, dist = path.arrays.chords.windings(
        np.asarray(points, dtype=complex).reshape(-1))
    return (wind[:, 0].reshape(np.shape(points)),
            dist[:, 0].reshape(np.shape(points)))


# ---------------------------------------------------------------------------
# domains

@dataclass(frozen=True)
class DomainSpec:
    """Multiply connected region: interior of `outer` (or the whole plane
    when outer is None) minus the closed holes. All boundary paths must be
    closed, positively oriented and farther apart than their two bands.
    Its components are the holes, then the outer boundary: chain k of
    chords, and component k of a refusal, is boundary_paths()[k]."""

    outer: Path | None
    holes: tuple[Path, ...] = ()
    # derived from outer and holes: a point strictly inside each hole, and
    # each hole's least _gap to another boundary (inf when it has none)
    witnesses: tuple[complex, ...] = field(init=False, repr=False,
                                           compare=False)
    gaps: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # each hole witness's distance to every component, which _hole_rules
    # reads
    _distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(self.holes))
        paths, count = self.boundary_paths(), len(self.holes)
        if not all(p.closed for p in paths):
            raise GeometryError("domain boundaries must be closed paths")
        object.__setattr__(self, "witnesses", ())
        object.__setattr__(self, "gaps", ())
        if not paths:
            return
        # the centroid of a component's sample(64) is its witness, or its
        # interior_point where the centroid misses it. One kernel pass
        # (_measured) winds every component around the centroids and
        # measures their distances to every component and the gap points
        # of every two components; one more winds and measures the
        # witnesses where a centroid misses. A witness on another boundary
        # counts as outside or overlapping
        points = np.array([_mean(p.sample(64)) for p in paths])
        first, second = np.array(list(itertools.combinations(
            range(len(paths)), 2)), dtype=np.intp).reshape(-1, 2).T
        wind, d, gap = _measured(self.chords, points, len(paths), _gap_points(
            self.arrays, self.arrays, first, second), first, second)
        own = np.arange(len(paths))
        misses = np.flatnonzero(~_strictly_inside(
            paths, wind[own, own], d[own, own]))
        for k in misses:
            points[k] = interior_point(paths[k])
        if misses.size:
            wind, d = self.chords.windings(points)
        object.__setattr__(self, "_distances", d[:count])
        object.__setattr__(self, "witnesses", tuple(map(complex,
                                                        points[:count])))
        for w in np.diagonal(wind):
            if w != 1:
                raise GeometryError(
                    "boundary paths must be positively oriented (winding +1 "
                    f"around their interior, found {w})")
        if self.outer is not None:
            for j in np.flatnonzero(wind[:count, count] != 1):
                raise GeometryError(f"hole {j} is not inside the outer "
                                    "boundary")
        # hole i at witness j; every hole winds once around its own by now
        for i, j in np.argwhere(wind[:count, :count].T != np.eye(count)):
            raise GeometryError(f"holes {i} and {j} overlap")
        band = self.chords.band
        for k in np.flatnonzero(gap <= band[first] + band[second]):
            raise GeometryError(f"boundary components {first[k]} and "
                                f"{second[k]} touch (gap {gap[k]:.3g})")
        least = np.full(len(paths), math.inf)
        for ends in (first, second):
            np.minimum.at(least, ends, gap)
        object.__setattr__(self, "gaps", tuple(least[:count].tolist()))

    @functools.cached_property
    def arrays(self) -> SegmentArrays | None:
        """The segments of every component, joined from their columns; None
        for the whole plane. Its kernel and the gaps of the components read
        it."""
        paths = self.boundary_paths()
        return SegmentArrays.joined([p.arrays for p in paths]) if paths \
            else None

    @property
    def chords(self) -> Chords | None:
        """One kernel over every component, a column each (arrays.chords);
        None for the whole plane."""
        return None if self.arrays is None else self.arrays.chords

    def boundary_paths(self) -> tuple[Path, ...]:
        """The components: the holes, then the outer boundary."""
        return self.holes + ((self.outer,) if self.outer else ())

    def contains(self, point: complex) -> bool:
        return bool(classify(self, point).inside)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Which points lie in the domain; points on a boundary do not."""
        return classify(self, points).inside

    def contains_path(self, path: Path) -> bool:
        """Whether a path lies in the domain: its start does, and its gap
        to every boundary exceeds their two bands. One pass of the domain's
        chords winds it around the path's start and measures _PATH_SAMPLES
        points of the path, which bound its gaps from below. Every point of
        the path lies within h = length / (2 _PATH_SAMPLES) of one of them,
        at the midpoints of equal arclength pieces, and distance is
        1-Lipschitz (Shubert, SIAM J. Numer. Anal. 9, 1972): the gap to
        component k is at least the samples' least distance to it less h.
        Where that bound, less the rounding of _BOUND_MARGIN, clears the two
        bands of every component, the exact gaps would too; otherwise they
        decide, from the gap points (_measured) and the kernel of the
        domain's arrays joined with the path's."""
        paths = self.boundary_paths()
        if not paths:
            return True
        samples = path.points_at((np.arange(_PATH_SAMPLES) + 0.5)
                                 / _PATH_SAMPLES)
        wind, dist = self.chords.windings(np.append(path.start, samples),
                                          wound=1)
        if not _inside(self, wind)[0]:
            return False
        bands = path.band + self.chords.band
        bound = dist[1:].min(axis=0) - 0.5 / _PATH_SAMPLES * path.length
        if np.all(bound - _BOUND_MARGIN * self._scale(path) > bands):
            return True
        own, others = np.zeros(len(paths), dtype=np.intp), \
            np.arange(len(paths))
        gap = _measured(
            SegmentArrays.joined([self.arrays, path.arrays]).chords,
            np.empty(0, dtype=complex), 0, _gap_points(
                path.arrays, self.arrays, own, others),
            own + len(paths), others)[2]
        return bool(np.all(gap > bands))

    def _scale(self, path: Path) -> float:
        """What rounds the sampled bound of a path's gaps: the largest
        coordinate of the path and the boundaries (_reach), the path's
        length, which its arclength fractions are parts of, and the largest
        arc angle in radians times its radius, whose rounding moves
        the samples along their circles."""
        arrays = path.arrays
        turned = arrays.radius * (np.abs(arrays.t0) + np.abs(arrays.sweep))
        return max(self._boundary_reach, path.reach, path.length,
                   float(turned.max()))

    @functools.cached_property
    def _boundary_reach(self) -> float:
        """_reach of every boundary segment."""
        return _reach(itertools.chain.from_iterable(
            p.segments for p in self.boundary_paths()))


class Classification(NamedTuple):
    hole: np.ndarray         # hole a point lies in or on, -1 for none
    inside: np.ndarray       # in the domain proper, off its boundary
    on_boundary: np.ndarray  # on the boundary of its hole
    distance: np.ndarray     # to the nearest boundary component


def classify(domain: DomainSpec, points) -> Classification:
    """Where each point lies against a domain (arrays of the points' shape),
    from one winding-and-distance pass of the domain's chords. A winding
    total that misses an integer counts as on the boundary; a point that
    rounding puts on two holes goes to the first. Distances on the whole
    plane are inf; a point that is not finite raises GeometryError."""
    pts = np.asarray(points, dtype=complex)
    flat = _finite_points(pts)
    if domain.chords is None:
        wind = np.empty((len(flat), 0), dtype=int)
        dist = np.full((len(flat), 1), math.inf)
    else:
        wind, dist = domain.chords.windings(flat)
    return Classification(*(array.reshape(pts.shape) for array in
                            _classified(domain, wind, dist)))


def _classified(domain: DomainSpec, wind: np.ndarray, dist: np.ndarray
                ) -> Classification:
    """classify's fields, flat, from the domain's windings and distances."""
    count = len(domain.holes)
    holes = wind[:, :count]
    inside = _inside(domain, wind)
    hole = np.full(len(wind), -1)
    on_boundary = np.zeros(len(wind), dtype=bool)
    if count:
        mine = (holes == 1) | (holes == _ON_PATH)
        first = np.argmax(mine, axis=1)
        hit = mine[np.arange(len(wind)), first]
        hole[hit] = first[hit]
        on_boundary = hit & (holes[np.arange(len(wind)), first] == _ON_PATH)
    return Classification(hole, inside, on_boundary, dist.min(axis=1))


def _inside(domain: DomainSpec, wind: np.ndarray) -> np.ndarray:
    """Which points the domain's windings put in the domain proper."""
    count = len(domain.holes)
    inside = ~np.any(wind[:, :count] != 0, axis=1)
    if domain.outer is not None:
        inside &= wind[:, count] == 1
    return inside


def _strictly_inside(paths, wind: np.ndarray, dist: np.ndarray
                     ) -> np.ndarray:
    """Which points wind around the path of the same index, 1e-6 of its
    length clear of it."""
    return (wind != 0) & (wind != _ON_PATH) \
        & (dist > 1e-6 * np.array([p.length for p in paths]))


# ---------------------------------------------------------------------------
# gaps: the least distance between paths, exact for lines and arcs

def _measured(chords: Chords, lead: np.ndarray, wound: int, blocks, first,
              second) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windings of chords around the first wound points of lead and
    the distances of lead, and for each k the least |x - p| + |x - q| over
    the gap points of blocks (from _gap_points), p and q the chains
    first[k] and second[k]: the lead and the first block in one pass, each
    other block in one."""
    x, at, pair = next(blocks)
    # one pass for both: a pass of its own for the lead costs about 2% of
    # a domain-dilated scenario
    wind, d = chords.windings(np.append(lead, x), wound)
    gap = np.full(len(first), math.nan)
    for dist, at, pair in itertools.chain(
            [(d[len(lead):], at, pair)],
            ((chords.distances(x), at, pair) for x, at, pair in blocks)):
        np.fmin.at(gap, pair, dist[at, first[pair]] + dist[at, second[pair]])
    return wind, d[:len(lead)], gap


def _gap(a: Path, b: Path) -> float:
    """The least distance between two paths, the least |x - a| + |x - b|
    over the points of _gap_points; paths that cross read about 0."""
    return float(min(np.nanmin(a.distance(x) + b.distance(x)) for x, _, _
                     in _gap_points(a.arrays, b.arrays, [0], [0])))


def _gap_points(a: SegmentArrays, b: SegmentArrays, first, second):
    """The points whose least |x - p| + |x - q| is the gap of path p =
    first[k] of a and path q = second[k] of b, for every k: per block of
    at most _GAP_PAIRS segment pairs (one block for most domains), the
    distinct points of the block, and for each (point, k) the point's
    index and the k. Those of k are the segment starts and ends of p and q
    (in the first block), the crossings of the lines or circles carrying a
    segment of p and one of q whose boxes meet, and the _normal_points of
    every segment of p with every segment of q. These hold a point of a
    closest pair of every two segments (Schneider and Eberly, Geometric
    Tools for Computer Graphics, 2003, ch. 6) and every sum is at least the
    gap, so the least sum is the gap; a point that does not exist is nan."""
    pair = np.full((len(a.counts), len(b.counts)), -1)
    pair[first, second] = np.arange(len(first))
    (own_a, path_a), (own_b, path_b) = a.own, b.own
    at_a = np.nonzero(path_a[:, None] == first)
    at_b = np.nonzero(path_b[:, None] == second)
    own = (own_a[at_a[0]], own_b[at_b[0]]), (at_a[1], at_b[1])
    step = max(1, _GAP_PAIRS // len(b.path))
    for start in range(0, len(a.path), step):
        yield _block_points(a, b, pair, start, start + step, *own)
        own = (), ()


def _block_points(a: SegmentArrays, b: SegmentArrays, pair: np.ndarray,
                  start: int, stop: int, own: tuple, own_pairs: tuple
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gap_points' block of the segments start:stop of a."""
    s, t = np.nonzero(pair[a.path[start:stop, None], b.path] >= 0)
    s += start
    k = pair[a.path[s], b.path[t]]
    p, q = a.table[:, s], b.table[:, t]
    box, other = p[7:].real, q[7:].real
    meet = (other[0] <= box[1]) & (box[0] <= other[1]) \
        & (other[2] <= box[3]) & (box[2] <= other[3])
    crossings, real = _crossing_points(p[:, meet], q[:, meet])
    # the normal points of each arc of either side against the other
    arcs, others = np.concatenate((p, q), axis=1), \
        np.concatenate((q, p), axis=1)
    arc = arcs[0].real > 0.0
    k_arc, k_meet = np.concatenate((k, k))[arc], k[meet]
    # the distinct points only: a kernel row for each repeated junction
    # and normal point costs about 4% of the set-up of two 120-gon holes
    points, at = np.unique(np.concatenate((
        *own, crossings[real],
        _normal_points(arcs[:, arc], others[:, arc]).ravel())),
        return_inverse=True)
    return points, at, np.concatenate((
        *own_pairs, np.concatenate((k_meet, k_meet))[real.ravel()],
        k_arc, k_arc))


def _over(z: np.ndarray, f: np.ndarray) -> np.ndarray:
    """z / f for real f, rounded as Python's complex / float: numpy's
    complex division rounds differently, its products by a real do not."""
    ratio = 0.0 / f
    out = np.empty(z.shape, dtype=complex)
    out.real = (z.real + z.imag * ratio) / f
    out.imag = (z.imag - z.real * ratio) / f
    return out


def _normal_points(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """For SegmentArrays.table columns s of arcs and t: the points of each
    arc's circle on the normal through its centre to t's line, or on the
    line of centres of an arc t (nan if concentric), a row for each sign."""
    u = np.where(t[0].real > 0.0, t[1] - s[1], 1j * t[2])
    span = np.hypot(u.real, u.imag)
    with np.errstate(all="ignore"):
        u = u * (s[4].real / np.where(span == 0.0, math.nan, span))
    return np.array([s[1] + u, s[1] - u])


def _crossing_points(p: np.ndarray, q: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Where the lines or circles carrying two segments cross or touch,
    for SegmentArrays.table columns p and q: two rows of points, and which
    exist (none for parallel lines, concentric or apart circles; the first
    alone for two lines). Each point is the number Python's complex
    arithmetic gives: numpy's complex products and quotients may round
    otherwise, so those are taken apart into real operations (_cross,
    _over); its products of a complex and a real round alike."""
    p_arc, q_arc = p[0].real > 0.0, q[0].real > 0.0
    lines, circles = ~(p_arc | q_arc), p_arc & q_arc
    rel = q[1] - p[1]
    with np.errstate(all="ignore"):
        # two lines: p.a + u cross(q.a - p.a, w) / cross(u, w)
        turn = _cross(p[2], q[2])
        crossing = p[1] + p[2] * (_cross(rel, q[2]) / turn)
        # a line and a circle: a point and the unit direction of the line
        point, u = np.where(p_arc, q[1:4:2], p[1:4:2])
        # two circles cross on their radical line
        span = np.hypot(rel.real, rel.imag)
        span[span == 0.0] = math.nan
        toward, u_circles = _over(np.array((rel, 1j * rel)), span)
        point = np.where(circles, p[1] + toward * (
            0.5 * span + (p[5].real - q[5].real) / (2.0 * span)), point)
        u = np.where(circles, u_circles, u)
        # the foot of the arc's centre on that line, and the half chord
        center, r2 = np.where(p_arc, p[1:6:4], q[1:6:4])
        e, r2 = point - center, r2.real
        along = e.real * u.real - e.imag * -u.imag
        across = e.real * -u.imag + e.imag * u.real
        h2 = r2 - across * across
        base = point - along * u
        h = np.sqrt(np.where(0.0 > h2, 0.0, h2)) * u
        meet = h2 >= -1e-12 * r2
    return (np.array([np.where(lines, crossing, base + h), base - h]),
            np.array([np.where(lines, turn != 0.0, meet), ~lines & meet]))


def interior_point(path: Path) -> complex:
    """A point strictly inside a closed path (winding +-1).

    Tries the sample centroid, then scans a coarse grid over the bbox.
    """
    if not path.closed:
        raise GeometryError("interior point needs a closed path")

    def candidates():  # each grid built only when the points before fail
        yield np.array([_mean(path.sample(64))])
        x0, x1, y0, y1 = path.bbox()
        for n in (8, 16, 32, 64):
            xs = np.linspace(x0, x1, n + 2)[1:-1]
            ys = np.linspace(y0, y1, n + 2)[1:-1]
            yield (xs[None, :] + 1j * ys[:, None]).ravel()
    for points in candidates():  # the grids row by row, lowest y first
        hits = np.flatnonzero(_strictly_inside(
            (path,), *_winding_many(path, points)))
        if hits.size:
            return complex(points[hits[0]])
    raise GeometryError("could not locate a point inside the path")


# ---------------------------------------------------------------------------
# homology basis

# Each hole's contours follow one rule, decided once: circles about its
# witness at these fractions of (lo, hi) when they keep clear of
# every band, else dilations of its boundary at 0.5 and 0.3 of its gap to
# the other boundaries. Both rules give the basis curve at 0.5.
_CIRCLE_FRACTIONS = (0.35, 0.5, 0.7)


def _kept(fn):
    """fn(owner, *args), kept in its owner's __dict__ (a DomainSpec) for
    as long as the owner lives: what fn returns, or the EnvelopeError it
    raises (the only error the package keeps), which each later call
    raises again with a traceback that starts at that call, so it does not
    grow. A result about a function, fn(owner, *args, f=f), is kept for
    the last f asked about, compared by identity and never hashed."""
    @functools.wraps(fn)
    def kept(owner, *args, f=None):
        memo = vars(owner).setdefault("_memo", {})
        key = (fn, *args)
        if key not in memo or memo[key][0] is not f:
            try:
                memo[key] = f, (fn(owner, *args) if f is None
                                else fn(owner, *args, f=f))
            except EnvelopeError as exc:
                memo[key] = f, exc
                raise
        if isinstance(memo[key][1], EnvelopeError):
            raise memo[key][1].with_traceback(None)
        return memo[key][1]
    return kept


@_kept
def _hole_rules(domain: DomainSpec) -> tuple[tuple[Path, ...], ...]:
    """Per hole: its circles at _CIRCLE_FRACTIONS of (lo, hi), or () unless
    each keeps farther than its band plus the widest boundary band from lo
    and hi: lo is the hole's reach from its witness, hi the distance from
    there to the nearest other boundary (2 lo if none), measured by the
    domain's set-up. Such a circle meets no band, lies farther than its
    band from every point of the hole (all within lo of the witness), and
    encloses the hole, and no other hole nor the outside, since their
    boundaries lie at least hi away and DomainSpec refuses nested holes;
    so the circles need no check."""
    if not domain.holes:
        return ()
    band = float(domain.chords.band.max())
    rules = []
    for j, (hole, center) in enumerate(zip(domain.holes, domain.witnesses)):
        lo = hole.max_distance(center)
        others = np.delete(domain._distances[j], j)
        hi = float(others.min()) if others.size else 2.0 * lo
        radii = [lo + frac * (hi - lo) for frac in _CIRCLE_FRACTIONS]
        rules.append(tuple(circle(center, r) for r in radii) if all(
            min(r - lo, hi - r) > _ON_PATH_BAND * _TWO_PI * r + band
            for r in radii) else ())
    return tuple(rules)


@_kept
def _contour(domain: DomainSpec, j: int, frac: float) -> Path:
    """Hole j's contour at the fraction frac of its rule. A dilation, whose
    cut offsets can backtrack, is built on first use and must pass
    _basis_curves_pass, by windings and exact gaps, or be an error. So
    either rule's contour lies outside hole j farther than both bands from
    its boundary, hence farther than its band from every point of the hole,
    which extension._on_contours does not check again."""
    circles = _hole_rules(domain)[j]
    if circles:
        return circles[_CIRCLE_FRACTIONS.index(frac)]
    try:
        curve = _dilated_hole(domain.holes[j], frac * domain.gaps[j])
    except GeometryError as exc:
        raise GeometryError(f"hole {j} has no dilation by {frac} of the "
                            f"gap: {exc}") from None
    if not _basis_curves_pass(domain, j, curve):
        raise GeometryError("could not construct a separating basis curve "
                            f"for hole {j} (dilation by {frac} of the gap)")
    return curve


def _rings(domain: DomainSpec, j: int, n: int) -> np.ndarray:
    """Hole j's probe rings at 0.35 and 0.7 of its rule, inside and outside
    its basis curve, n points each equally spaced in arclength: its circles
    there, or its basis curve's points moved (frac - 0.5) of the gap along
    its outward normal, so that no ring builds a contour of its own."""
    fractions, rings = np.arange(n) / n, _CIRCLE_FRACTIONS[::2]
    if _hole_rules(domain)[j]:
        return np.concatenate([_contour(domain, j, frac).points_at(fractions)
                               for frac in rings])
    curve = _contour(domain, j, 0.5)
    z, v = curve.arrays.nodes(*curve.locate(fractions))
    return np.concatenate([z - 1j * (frac - 0.5) * domain.gaps[j] * v
                           / np.abs(v) for frac in rings])


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
    tol = ENDPOINT_TOL * _reach(pieces)
    for p, (t0, t1), corner in zip(pieces, kept, corners):
        if abs(t1 - t0) * p.length > tol:
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
    points, real = _crossing_points(SegmentArrays((p,)).table,
                                    SegmentArrays((q,)).table)
    return tuple(map(complex, points[real]))


def _parameter(piece: Segment, x: complex, near: float) -> float:
    """The parameter of x on piece's line or circle (nearest near)."""
    if isinstance(piece, Line):
        return ((x - piece.a) / (piece.b - piece.a)).real
    return near + math.remainder(cmath.phase(x - piece.center)
                                 - piece.angle(near), _TWO_PI) / piece.sweep


def _basis_curves_pass(domain: DomainSpec, j: int, curve: Path) -> bool:
    """Does the curve wind once around hole j and zero times around the
    other holes, by one pass of its own chords at the witnesses, and lie in
    the domain (DomainSpec.contains_path)?"""
    wind = curve.arrays.chords.windings(np.array(domain.witnesses))[0]
    return np.array_equal(wind[:, 0], np.arange(len(domain.holes)) == j) \
        and domain.contains_path(curve)


def homology_basis(domain: DomainSpec) -> list[Path]:
    """One positively oriented closed curve per hole, each winding once
    around its own hole, zero around the others, and lying in the domain.

    A circle is used when the hole admits a separating annulus about its
    witness; otherwise the hole boundary is dilated outward by half the
    minimal gap. Simply connected domains get an empty basis. A dilation of a hole with an inlet narrower than the offset
    winds twice around part of the inlet, where the offsets of its walls
    cross; it still winds once around the hole and lies in the domain, so
    integrals of holomorphic functions over it are unaffected.
    """
    return [_contour(domain, j, 0.5) for j in range(len(domain.holes))]


def basis_curve_variants(domain: DomainSpec, j: int) -> tuple[Path, Path]:
    """Two homologous but distinct admissible curves around hole j, for
    contour-independence cross-checks: circles at 0.35 and 0.7 of the
    separating annulus, or, for a hole without separating circles, its
    homology basis curve and a narrower dilation of the hole."""
    first, second = (0.35, 0.7) if _hole_rules(domain)[j] else (0.5, 0.3)
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


def simply_connected_hull(grid: GridDomain) -> GridDomain:
    """Fill every cell not 4-connected to the grid border through outside
    cells: the complement of the component of infinity.

    The outside cells are labelled by row runs and union-find (Hoshen and
    Kopelman, Phys. Rev. B 14, 1976): node 0 is the border, node k the
    k-th run in row-major order. Idempotent, and the result always
    contains the input mask.
    """
    if not grid.mask.any():
        raise GeometryError("hull of an empty mask is undefined")
    outside = ~grid.mask
    starts = outside.copy()
    starts[:, 1:] &= grid.mask[:, :-1]
    run = np.cumsum(starts).reshape(outside.shape) * outside
    # a run meets each run of the next row it overlaps once, at the
    # overlap's first column, where one of the two runs starts
    meet = outside[:-1] & outside[1:] & (starts[:-1] | starts[1:])
    border = np.concatenate([run[0], run[-1], run[:, 0], run[:, -1]])
    a = np.concatenate([run[:-1][meet], np.zeros_like(border)])
    b = np.concatenate([run[1:][meet], border])
    # hook each root to the least root it meets, then jump pointers until
    # every node points at its root; the roots only ever decrease
    parent = np.arange(int(run.max()) + 1)
    while not np.array_equal(root_a := parent[a], root_b := parent[b]):
        low = np.minimum(root_a, root_b)
        np.minimum.at(parent, root_a, low)
        np.minimum.at(parent, root_b, low)
        while not np.array_equal(parent, jumped := parent[parent]):
            parent = jumped
    return GridDomain(grid.bounds, grid.nx, grid.ny,
                      grid.mask | (parent[run] != 0))


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
    fields = ("kind", "a", "b") if kind == "line" else \
        ("kind", "center", "r", "t0", "t1", "ccw") if kind == "arc" else None
    if fields is None:
        raise GeometryError(f"unknown segment kind {kind!r}")
    for key in obj:
        if key not in fields:
            raise GeometryError(f"{kind} segment: unknown field {key!r} "
                                f"(choose from {', '.join(fields)})")
    if kind == "line":
        ends = [_json_point(obj.get(key)) for key in ("a", "b")]
        if None not in ends:
            return Line(*ends)
    else:
        center = _json_point(obj.get("center"))
        r = _json_coordinate(obj.get("r"))
        t0, t1 = (_json_number(obj.get(key)) for key in ("t0", "t1"))
        ccw = obj.get("ccw")
        if None not in (center, r, t0, t1) and isinstance(ccw, bool):
            sweep = Arc(center, r, t0, t1, ccw).sweep
            return Arc(center, r, t0, t0 + sweep, ccw)
    raise GeometryError(f"{kind} segment: points must be [re, im] pairs, "
                        "coordinates and radii numbers of magnitude at most "
                        f"{MAX_COORDINATE:g}, and an arc's ccw true or false")


def path_to_json(path: Path) -> list[dict]:
    return [segment_to_json(s) for s in path.segments]


def path_from_json(segments: Sequence[dict]) -> Path:
    return Path(tuple(segment_from_json(s) for s in segments))
