import cmath
import functools
import gc
import itertools
import math
import re
import tracemalloc
import weakref
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from envelope import cli, expr
from envelope import extension as ext
from envelope import geometry as geom
from envelope import moments as mom
from envelope.errors import (GeometryError, PointOnPathError,
                             WindingResidualError)


# ---------------------------------------------------------------------------
# the scalar routine the chord kernel replaced, kept as its reference: arc
# pieces of at most pi/2 are bisected until the point leaves the lens
# between piece and chord

def _in_lens(center, radius, za, zb, p):
    if abs(p - center) > radius:
        return False
    chord = zb - za
    side_p = ((p - za) / chord).imag
    side_c = ((center - za) / chord).imag
    return side_p * side_c <= 0.0


def _arc_sweep(seg, p, a, b, depth):
    za = seg.point(a)
    zb = seg.point(b)
    if not _in_lens(seg.center, seg.radius, za, zb, p):
        return cmath.phase((zb - p) / (za - p))
    if depth > 60:
        raise WindingResidualError("arc sweep failed to resolve")
    m = 0.5 * (a + b)
    return _arc_sweep(seg, p, a, m, depth + 1) \
        + _arc_sweep(seg, p, m, b, depth + 1)


def _segment_sweep(seg, p):
    if isinstance(seg, geom.Line):
        return cmath.phase((seg.b - p) / (seg.a - p))
    pieces = max(1, int(math.ceil(seg.extent / (0.5 * math.pi))))
    return sum(_arc_sweep(seg, p, i / pieces, (i + 1) / pieces, 0)
               for i in range(pieces))


def reference_distance(path, p):
    return min(seg.distance(p) for seg in path.segments)


def reference_winding(path, p):
    """Winding number, or None for a point on the path (or one whose
    total misses an integer)."""
    if reference_distance(path, p) <= 1e-9 * path.length:
        return None
    try:
        turns = sum(_segment_sweep(seg, p) for seg in path.segments) \
            / (2 * math.pi)
    except WindingResidualError:
        return None
    k = round(turns)
    return int(k) if abs(turns - k) < geom.WINDING_RESIDUAL_LIMIT else None


def sampled_dilation(hole, d, n=512):
    """The hole boundary pushed outward by d along n sampled normals: an
    n-gon, as basis curves of holes without separating circles once were."""
    z, v = hole.arrays.nodes(*hole.locate(np.arange(n) / n))
    return geom.polygon(z + d * (-1j * v / np.abs(v)))


@functools.lru_cache(maxsize=1)
def _dilated_curve():
    """A 512-gon about the slab fixture's slab hole, half its gap of 0.3
    out: a path of many chords."""
    return sampled_dilation(
        geom.polygon([-1.3 - 0.1j, 1.3 - 0.1j, 1.3 + 0.1j, -1.3 + 0.1j]),
        0.15)


@pytest.fixture
def kernel_passes(monkeypatch):
    """(chords, chains, how many points it winds) of every pass of the
    chord kernel."""
    passes = []
    kernel = geom.Chords._pass

    def spy(chords, points, wound):
        passes.append((chords, len(chords.starts), wound))
        return kernel(chords, points, wound)

    monkeypatch.setattr(geom.Chords, "_pass", spy)
    return passes


@pytest.fixture
def chord_builds(monkeypatch):
    """The number of chains of every chord kernel built."""
    builds = []
    build = geom.Chords.__init__

    def spy(chords, chain, lines, arcs):
        builds.append(len(lines))
        build(chords, chain, lines, arcs)

    monkeypatch.setattr(geom.Chords, "__init__", spy)
    return builds


def _closed_ring_route(base, target, center):
    route = mom.ring_route(base, target, center)
    return geom.Path(route.segments + (geom.Line(target, base),))


_COORD = st.floats(-3.0, 3.0).map(lambda x: round(x, 3))
_CIRCLES = st.builds(lambda x, y, r, ccw: geom.circle(complex(x, y), r, ccw),
                     _COORD, _COORD, st.floats(0.05, 3.0), st.booleans())
# star-shaped polygons of either orientation: vertices at increasing angles
_POLYGONS = st.builds(
    lambda c, vertices, ccw: geom.polygon(
        [c + r * cmath.exp(1j * t) for t, r in sorted(vertices)][::1 if ccw
                                                                  else -1]),
    st.builds(complex, _COORD, _COORD),
    st.lists(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.1, 3.0)),
             min_size=3, max_size=9, unique_by=lambda v: round(v[0], 2)),
    st.booleans())
_RING_ROUTES = st.builds(
    lambda r0, t0, r1, t1, c: _closed_ring_route(
        c + r0 * cmath.exp(1j * t0), c + r1 * cmath.exp(1j * t1), c),
    st.floats(0.2, 2.0), st.floats(-3.0, 3.0), st.floats(0.2, 2.0),
    st.floats(0.3, 3.0), st.builds(complex, _COORD, _COORD)).filter(
    lambda path: path.closed)
_KERNEL_PATHS = st.one_of(_CIRCLES, _POLYGONS, _RING_ROUTES,
                          st.builds(_dilated_curve))


def _half_disc_and_points():
    """An upper half circle closed by three lines, and 200 points uniform
    over a box around it."""
    path = geom.Path((
        geom.Arc(0j, 1.0, 0.0, math.pi),
        geom.Line(-1 + 0j, -1 - 1j),
        geom.Line(-1 - 1j, 1 - 1j),
        geom.Line(1 - 1j, 1 + 0j),
    ))
    rng = np.random.default_rng(1234)
    return path, rng.uniform(-2, 2, 200) + 1j * rng.uniform(-2.5, 1.5, 200)


@st.composite
def _path_and_points(draw):
    """A closed path, and points uniform over its bounding box plus points
    10^-8 to 10^-1 off the path along its normal."""
    path = draw(_KERNEL_PATHS)
    x0, x1, y0, y1 = path.bbox()
    uniform = draw(st.lists(st.tuples(st.floats(-0.1, 1.1),
                                      st.floats(-0.1, 1.1)),
                            min_size=8, max_size=40))
    near = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-8.0, -1.0),
                                   st.booleans()),
                         min_size=8, max_size=40))
    z, v = path.arrays.nodes(*path.locate([f for f, _, _ in near]))
    normal = -1j * v / np.abs(v)
    offsets = np.array([10.0 ** e * (1 if out else -1) for _, e, out in near])
    points = [complex(x0 + u * (x1 - x0), y0 + w * (y1 - y0))
              for u, w in uniform]
    return path, np.array(points + list(z + offsets * normal))


_coordinates = st.floats(-10.0, 10.0)
_points = st.builds(complex, _coordinates, _coordinates)
_lines = st.builds(lambda a, d: geom.Line(a, a + d), _points,
                   _points.filter(lambda d: abs(d) > 1e-3))
# both senses, sweeps up to a full turn
_arcs = st.builds(
    lambda c, r, t0, sweep, ccw: geom.Arc(
        c, r, t0, t0 + (sweep if ccw else -sweep), ccw),
    _points, st.floats(1e-3, 10.0), _coordinates,
    st.floats(1e-6, 2.0 * math.pi), st.booleans())
# a segment, and one of the other kind
_segment_pairs = st.one_of(st.tuples(_lines, _arcs), st.tuples(_arcs, _lines))


class TestSegments:
    def test_line_basics(self):
        seg = geom.Line(0j, 3 + 4j)
        assert seg.length == pytest.approx(5.0)
        assert seg.point(0.5) == pytest.approx(1.5 + 2j)
        assert seg.distance(3 + 4j) == pytest.approx(0.0)
        assert seg.distance(-1 + 0j) == pytest.approx(1.0)

    def test_line_distance_projects_onto_segment(self):
        seg = geom.Line(0j, 2 + 0j)
        assert seg.distance(1 + 1j) == pytest.approx(1.0)
        assert seg.distance(5 + 0j) == pytest.approx(3.0)

    def test_arc_length_and_points(self):
        arc = geom.Arc(1 + 1j, 2.0, 0.0, math.pi / 2)
        assert arc.length == pytest.approx(math.pi)
        assert arc.start == pytest.approx(3 + 1j)
        assert arc.end == pytest.approx(1 + 3j)
        assert arc.point(0.5) == pytest.approx(1 + 1j + 2 * np.exp(1j * math.pi / 4))

    def test_arc_full_circle(self):
        arc = geom.Arc(0j, 1.0, 0.0, 0.0)
        assert arc.length == pytest.approx(2 * math.pi)

    def test_clockwise_arc_sweep(self):
        arc = geom.Arc(0j, 1.0, 0.0, math.pi, ccw=False)
        assert arc.point(1.0) == pytest.approx(-1 + 0j)
        assert arc.sweep == pytest.approx(-math.pi)

    def test_arc_bbox_covers_axis_crossings(self):
        arc = geom.Arc(0j, 1.0, -math.pi / 4, math.pi / 4)
        x0, x1, y0, y1 = arc.bbox()
        assert x1 == pytest.approx(1.0)
        assert y0 == pytest.approx(-math.sin(math.pi / 4))

    def test_arc_distance_inside_sector_vs_endpoint(self):
        arc = geom.Arc(0j, 1.0, 0.0, math.pi / 2)
        assert arc.distance(0.5 * np.exp(0.3j)) == pytest.approx(0.5)
        assert arc.distance(0 - 1j) == pytest.approx(math.sqrt(2))

    @given(pair=_segment_pairs, t=st.floats(0.0, 1.0))
    def test_one_formula_for_numbers_and_arrays(self, pair, t):
        # every segment quantity is one expression: a float and a
        # one-element array give the same bits, arc ends are the arc's
        # points at 0 and 1, and SegmentArrays.nodes gives those numbers,
        # alone or beside a segment of the other kind
        seg, other = pair

        def bits(z):
            return np.broadcast_to(np.asarray(z, dtype=complex),
                                   (1,)).tobytes()

        array = np.array([t])
        arc = isinstance(seg, geom.Arc)
        for name in ("point", "velocity") + ("angle",) * arc:
            method = getattr(seg, name)
            assert bits(method(t)) == bits(method(array))
        assert bits(seg.start) == bits(seg.point(0.0))
        assert bits(seg.end) == bits(seg.point(1.0))
        for arrays, index in ((geom.SegmentArrays((seg,)), 0),
                              (geom.SegmentArrays((other, seg)), 1)):
            z, v = arrays.nodes(np.array([index]), array)
            assert (bits(z), bits(v)) \
                == (bits(seg.point(t)), bits(seg.velocity(t)))


class TestPath:
    def test_circle_length_and_closure(self):
        c = geom.circle(1 + 1j, 2.0)
        assert c.closed
        assert c.length == pytest.approx(4 * math.pi)

    def test_rectangle_perimeter(self):
        r = geom.rectangle(0, 2, 0, 1)
        assert r.closed
        assert r.length == pytest.approx(6.0)

    def test_polygon_requires_nondegenerate_vertices(self):
        with pytest.raises(GeometryError):
            geom.polygon([0j, 0j, 1 + 0j])

    @pytest.mark.parametrize("build, message", [
        (lambda: geom.Line(1 + 1j, 1 + 1j), "endpoints coincide"),
        (lambda: geom.Path(()), "at least one segment"),
        (lambda: geom.Path((geom.Line(0, 1), geom.Line(1, 1j)), closed=True),
         "endpoints do not meet"),
        (lambda: geom.polygon([0, 1]), "at least three vertices"),
        (lambda: geom.DomainSpec(
            geom.Path((geom.Line(0, 1), geom.Line(1, 1j)))),
         "must be closed paths"),
        (lambda: geom.interior_point(
            geom.Path((geom.Line(0, 1), geom.Line(1, 1j)))),
         "needs a closed path"),
    ])
    def test_malformed_geometry_is_refused(self, build, message):
        with pytest.raises(GeometryError, match=message):
            build()

    def test_points_at_refuses_fractions_outside_the_path(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            geom.circle(0, 1).points_at([1.5])

    def test_open_chain_detected(self):
        p = geom.Path((geom.Line(0j, 1 + 0j), geom.Line(1 + 0j, 1 + 1j)))
        assert not p.closed

    def test_discontinuous_chain_rejected(self):
        with pytest.raises(GeometryError):
            geom.Path((geom.Line(0j, 1 + 0j), geom.Line(2 + 0j, 3 + 0j)))

    def test_point_at_walks_by_arclength(self):
        c = geom.circle(0j, 1.0)
        assert isinstance(c.points_at(0.25), complex)
        assert c.points_at(0.25) == pytest.approx(1j)
        assert c.points_at(0.5) == pytest.approx(-1 + 0j)

    def test_points_at_matches_the_segment_walk(self, slab):
        # reference: walk the segments, subtracting lengths in exact
        # rational arithmetic; on few segments the float walk agrees too,
        # while on 512 segments its own rounding drifts (up to 4.4e-15 of
        # the length here)
        def walk(path, fraction, exact):
            num = Fraction if exact else float
            target = num(fraction) * num(path.length)
            for seg in path.segments:
                length = num(seg.length)
                if target <= length or seg is path.segments[-1]:
                    return seg.point(min(1.0, float(target / length)))
                target -= length
        paths = (geom.circle(1 + 1j, 2.5), geom.polygon([0, 3, 3 + 1j, 2j]),
                 mom.ring_route(1 + 0.3j, -0.4 - 1.5j),
                 geom.homology_basis(slab)[0])
        fractions = np.concatenate([np.linspace(0.0, 1.0, 257),
                                    np.random.default_rng(7).random(200)])
        for path in paths:
            got = path.points_at(fractions)
            for exact in (True, False):
                if not exact and len(path.segments) > 8:
                    continue
                want = np.array([walk(path, float(f), exact)
                                 for f in fractions])
                assert np.max(np.abs(got - want)) <= 1e-15 * path.length
            # one fraction gives the complex its array entry holds
            assert [path.points_at(float(f)) for f in fractions] \
                == got.tolist()

    def test_reversed_swaps_endpoints(self):
        p = geom.Path((geom.Line(0j, 1 + 1j),))
        assert p.reversed().start == 1 + 1j

    @pytest.mark.parametrize("radius", [1e4, 1e6])
    def test_circle_through_the_origin_closes(self, radius):
        # it closes within radius * 2.4e-16 of 0, so the end tolerance
        # scales with the centre and radius, not with the endpoints
        c = geom.circle(-radius, radius)
        assert c.closed and c.start == 0

    def test_sample_excludes_closure_by_default(self):
        c = geom.circle(0j, 1.0)
        pts = c.sample(8)
        assert len(pts) == 8
        assert np.min(np.abs(np.diff(pts))) > 0


class TestWinding:
    def test_circle_windings(self):
        c = geom.circle(0j, 1.0)
        assert geom.winding_number(c, 0j) == 1
        assert geom.winding_number(c, 3 + 0j) == 0
        assert geom.winding_number(c, 0.99 + 0j) == 1

    def test_clockwise_square(self):
        sq = geom.polygon([0j, 1j, 1 + 1j, 1 + 0j])
        assert geom.winding_number(sq, 0.5 + 0.5j) == -1

    def test_point_on_path_rejected(self):
        c = geom.circle(0j, 1.0)
        with pytest.raises(PointOnPathError):
            geom.winding_number(c, 1 + 0j)

    def test_point_in_arc_chord_lens(self):
        # points between a long arc and its chord defeat the plain
        # chord-angle shortcut; the lens split must still count correctly
        c = geom.circle(0j, 1.0)
        for p in [0.97 + 0.01j, 0.99 * np.exp(2.3j), -0.995 + 0j]:
            assert geom.winding_number(c, p) == 1
        assert geom.winding_number(c, 1.0000001 + 0j) == 0

    def test_open_path_has_no_winding(self):
        p = geom.Path((geom.Line(0j, 1 + 0j),))
        with pytest.raises(GeometryError):
            geom.winding_number(p, 0.5 + 0.5j)

    @pytest.mark.parametrize("point", [complex("nan"), complex("inf"),
                                       complex(0, -math.inf)])
    def test_point_that_is_not_finite_is_refused(self, point):
        with pytest.raises(GeometryError, match="is not finite"):
            geom.winding_number(geom.circle(0j, 1.0), point)


def assert_columns_are_each_path_alone(paths, points):
    """Column k of the kernel of the paths' joined SegmentArrays gives path
    k's own windings, distances and band, bit for bit, and the gap of each
    two paths from the joined arrays' gap points is their _gap. Returns the
    kernel, its windings and its distances."""
    arrays = geom.SegmentArrays.joined([p.arrays for p in paths])
    kernel = arrays.chords
    wind, dist = kernel.windings(points)
    for k, path in enumerate(paths):
        alone = path.arrays.chords
        own_wind, own_dist = alone.windings(points)
        assert np.array_equal(wind[:, k], own_wind[:, 0])
        assert np.array_equal(dist[:, k], own_dist[:, 0])
        assert kernel.band[k] == alone.band[0]
    first, second = np.array(list(itertools.combinations(
        range(len(paths)), 2))).T
    gap = geom._measured(kernel, np.empty(0, dtype=complex), 0,
                         geom._gap_points(arrays, arrays, first, second),
                         first, second)[2]
    assert gap.tolist() == [geom._gap(paths[i], paths[j])
                            for i, j in zip(first, second)]
    return kernel, wind, dist


class TestChordKernel:
    @given(case=_path_and_points())
    @example(case=_half_disc_and_points())
    def test_matches_the_recursive_scalar_routine(self, case):
        path, points = case
        band = 1e-9 * path.length
        got, distances = geom._winding_many(path, points)
        assert np.array_equal(distances, path.distance(points))
        for p, w, d in zip(points, got, distances):
            want_d = reference_distance(path, p)
            assert abs(d - want_d) <= 1e-15 * path.length
            if abs(want_d - band) <= 1e-15 * path.length:
                continue  # rounding decides whether p lies on the path
            want = reference_winding(path, p)
            assert w == (geom._ON_PATH if want is None else want)
            assert path.distance(p) == d
            if want is None:
                with pytest.raises(GeometryError):
                    geom.winding_number(path, p)
            else:
                assert geom.winding_number(path, p) == want

    @given(segments=st.lists(st.one_of(_lines, _arcs), min_size=1,
                             max_size=6))
    def test_chain_is_the_per_arc_loop(self, segments):
        # the loop the vectorized chain replaced: every line's ends, then
        # each arc's Arc.point at i / pieces, bit for bit
        lines = [s for s in segments if isinstance(s, geom.Line)]
        a, b, circles = [s.a for s in lines], [s.b for s in lines], []
        for s in segments:
            if isinstance(s, geom.Arc):
                ends = [s.start, *(s.point(i / s.pieces)
                                   for i in range(1, s.pieces)), s.end]
                a += ends[:-1]
                b += ends[1:]
                circles += [(s.center, s.radius, 1.0 if s.ccw else -1.0)] \
                    * s.pieces
        chain = geom.SegmentArrays(tuple(segments)).chain
        want = (a, b, *(zip(*circles) if circles else ((), (), ())))
        for got, expected in zip(chain, want):
            assert got.tolist() == list(expected)

    def test_chains_in_one_kernel_are_each_chain_alone(self, slab):
        # one kernel over a closed polyline, a path of lines, a path of
        # arcs turning both ways, a clockwise circle, and a domain's circle
        # and slab dilation: every line comes before every arc piece, so
        # the last chain's lines sit apart from its arcs and the chains
        # are gathered by the order permutation. Each chain's windings,
        # distances and band are those of its own kernel, bit for bit
        nodes = 3 + 1j + 0.5 * np.exp(2j * math.pi * np.linspace(0, 1, 41))
        tilt = math.atan(0.5)
        crescent = geom.Path((
            geom.Arc(-2.5j, 1.0, 0.0, math.pi),
            geom.Arc(-3j, math.sqrt(1.25), math.pi - tilt, tilt, False)))
        hole, circle = slab.holes
        clockwise = geom.circle(-2 - 2j, 0.5, ccw=False)
        paths = [geom.polygon(nodes[:-1]),
                 geom.rectangle(-2.5, -1.5, 1.0, 2.0), crescent, clockwise,
                 circle, geom._dilated_hole(hole, 0.5 * slab.gaps[0])]
        x, y = np.meshgrid(np.linspace(-3.5, 4, 31), np.linspace(-4, 3, 29))
        points = np.concatenate([(x + 1j * y).ravel(), nodes[::3]]
                                + [path.sample(16) for path in paths])
        kernel, wind, dist = assert_columns_are_each_path_alone(paths,
                                                                points)
        assert kernel.order is not None
        assert np.any(crescent.arrays.chain[4] == -1.0)
        for k, path in enumerate(paths):
            # the grid has points inside and outside every chain, and the
            # samples lie on it
            inside = -1 if path is clockwise else 1
            assert set(wind[:, k]) == {0, inside, geom._ON_PATH}
        joined = geom.SegmentArrays.joined([p.arrays for p in paths[1:]])
        assert np.array_equal(joined.chords.distances(points),
                              dist[:, 1:])

    @given(paths=st.lists(st.one_of(_CIRCLES, _POLYGONS, _RING_ROUTES),
                          min_size=2, max_size=4))
    def test_joined_paths_are_each_path_alone(self, paths):
        # circles of both senses, star polygons and ring routes, whose
        # arcs and lines interleave, joined in any order
        x, y = np.meshgrid(np.linspace(-6, 6, 13), np.linspace(-6, 6, 13))
        assert_columns_are_each_path_alone(paths, np.concatenate(
            [(x + 1j * y).ravel()] + [path.sample(8) for path in paths]))

    def test_distance_of_one_point_and_of_an_array(self):
        c = geom.circle(1 + 1j, 2.0)
        assert isinstance(c.distance(4 + 1j), float)
        assert c.distance(4 + 1j) == c.segments[0].distance(4 + 1j)
        grid = np.array([[0j, 1 + 1j], [3 + 1j, 5 + 5j]])
        assert c.distance(grid).shape == (2, 2)
        assert c.distance(grid)[1, 0] == 0.0

    def test_points_on_an_arc_piece_chord(self):
        # the chord of the last quarter of circle(0, 2) is x - y = 2; on it
        # rounding picks the sign of a chord angle of +-pi, which the lens
        # test of the recursive routine could contradict (it counted
        # 0.8828125 - 1.1171875j, a rasterization cell center, as outside)
        c = geom.circle(0j, 2.0)
        t = np.linspace(0.05, 0.95, 37)
        points = np.append(2 * t - 2j * (1 - t), 0.8828125 - 1.1171875j)
        assert np.all(geom._winding_many(c, points)[0] == 1)
        assert all(geom.winding_number(c, p) == 1 for p in points)
        cw = geom.circle(0j, 2.0, ccw=False)
        assert np.all(geom._winding_many(cw, points)[0] == -1)

    def test_memory_is_bounded(self):
        # 65,536 points against 512 chords, taken in blocks of at most
        # 2^16 point-chord pairs
        curve = _dilated_curve()
        x0, x1, y0, y1 = curve.bbox()
        xs = np.linspace(x0 - 0.1, x1 + 0.1, 256)
        ys = np.linspace(y0 - 0.1, y1 + 0.1, 256)
        points = xs[None, :] + 1j * ys[:, None]
        curve.arrays.chords  # built once per path, not part of the peak
        tracemalloc.start()
        try:
            wind, _ = geom._winding_many(curve, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert wind.shape == points.shape
        assert np.count_nonzero(wind == 1) > 0

    def test_open_path_distance(self):
        p = geom.Path((geom.Line(0j, 1 + 0j), geom.Line(1 + 0j, 1 + 1j)))
        assert p.distance(2 + 2j) == pytest.approx(math.sqrt(2))
        assert p.distance(np.array([0.5 + 0.5j]))[0] == pytest.approx(0.5)


class TestDomainSpec:
    def test_annulus_accepts(self, annulus):
        assert annulus.outer is not None
        assert annulus.contains(1 + 0j)
        assert not annulus.contains(0j)
        assert not annulus.contains(3 + 0j)

    def test_hole_outside_outer_rejected(self):
        with pytest.raises(GeometryError):
            geom.DomainSpec(geom.circle(0j, 1.0), (geom.circle(5 + 0j, 0.5),))

    def test_overlapping_holes_rejected(self):
        with pytest.raises(GeometryError):
            geom.DomainSpec(geom.circle(0j, 4.0),
                            (geom.circle(0j, 1.0), geom.circle(1 + 0j, 0.5)))

    def test_clockwise_outer_rejected(self):
        with pytest.raises(GeometryError):
            geom.DomainSpec(geom.circle(0j, 1.0, ccw=False), ())

    @pytest.mark.parametrize("outer, holes, message", [
        # a clockwise hole that also overlaps another hole, either way round
        (geom.circle(0j, 4.0), (geom.circle(0j, 1.0),
                                geom.circle(1 + 0j, 0.5, ccw=False)),
         "positively oriented .* found -1"),
        (geom.circle(0j, 4.0), (geom.circle(1 + 0j, 0.5, ccw=False),
                                geom.circle(0j, 1.0)),
         "positively oriented .* found -1"),
        # a clockwise outer boundary and a hole outside it
        (geom.circle(0j, 1.0, ccw=False), (geom.circle(5 + 0j, 0.5),),
         "positively oriented .* found -1"),
        (geom.circle(0j, 1.0), (geom.circle(0.2 + 0j, 0.1),
                                geom.circle(5 + 0j, 0.5),
                                geom.circle(5.2 + 0j, 0.5)),
         "hole 1 is not inside the outer boundary"),
        (geom.circle(0j, 4.0), (geom.circle(-2j, 0.5),
                                geom.circle(0j, 1.0),
                                geom.circle(1 + 0j, 0.5)),
         "holes 1 and 2 overlap"),
    ])
    def test_errors_come_in_order(self, outer, holes, message):
        # orientation, then containment, then overlap
        with pytest.raises(GeometryError, match=message):
            geom.DomainSpec(outer, holes)

    def test_one_winding_pass_per_domain(self, two_hole, kernel_passes):
        # the sample centroids of the three components hit: one pass of
        # the domain's chords winds every component around all three and
        # measures the hole centroids and the gaps of every two components
        # without winding them
        domain = geom.DomainSpec(two_hole.outer, two_hole.holes)
        assert kernel_passes == [(domain.chords, 3, 3)]
        assert domain.witnesses == two_hole.witnesses
        assert domain.gaps == two_hole.gaps

    def test_each_component_is_sampled_once(self, two_hole, monkeypatch):
        # 64 samples of each component, whose centroids alone lead the
        # set-up pass
        samples, leads = [], []
        sample, measured = geom.Path.sample, geom._measured
        monkeypatch.setattr(geom.Path, "sample", lambda path, n: (
            samples.append((path, n)) or sample(path, n)))
        monkeypatch.setattr(geom, "_measured", lambda chords, lead, *args: (
            leads.append(lead.size) or measured(chords, lead, *args)))
        geom.DomainSpec(two_hole.outer, two_hole.holes)
        paths = two_hole.boundary_paths()
        assert len(samples) == len(paths)
        assert all(path is p and n == 64
                   for (path, n), p in zip(samples, paths))
        assert leads == [len(paths)]

    def test_missed_centroids_are_rewound_once(self, kernel_passes):
        # the sample centroid of a C-shaped hole lies in its notch, so both
        # holes take their interior_point as witness; the domain kernel
        # winds the witnesses once more for both, after its measuring pass
        t = np.linspace(0.4, 2 * np.pi - 0.4, 24)
        holes = tuple(geom.polygon(list(c + 0.8 * np.exp(1j * t))
                                   + list(c + 0.64 * np.exp(1j * t[::-1])))
                      for c in (-1.5, 1.5))
        domain = geom.DomainSpec(geom.circle(0j, 4.0), holes)
        assert [wound for chords, _, wound in kernel_passes
                if chords is domain.chords].count(3) == 2
        assert domain.witnesses == tuple(complex(geom.interior_point(h))
                                         for h in holes)

    def test_touching_holes_are_rejected(self):
        # the triangle's lowest vertex lies on the square's top edge; 128
        # samples of each put them 0.0056 apart
        with pytest.raises(GeometryError, match=r"boundary components 0 "
                                                r"and 1 touch \(gap 0\)"):
            geom.DomainSpec(geom.circle(0.5 + 1j, 5.0), (
                geom.rectangle(0, 1, 0, 1),
                geom.polygon([0.51 + 1j, 1.5 + 2j, -0.5 + 2j])))
        # lifted by 1e-6, the two are measured apart and pass
        geom.DomainSpec(geom.circle(0.5 + 1j, 5.0), (
            geom.rectangle(0, 1, 0, 1),
            geom.polygon([0.51 + 1.000001j, 1.5 + 2j, -0.5 + 2j])))

    def test_touch_is_relative_to_the_bands(self):
        # a gap of 2e-6 lies within the two bands of 6.3e-6, where classify
        # puts every point of the gap on a boundary
        with pytest.raises(GeometryError, match=r"boundary components 0 "
                                                r"and 1 touch \(gap 2e-06\)"):
            geom.DomainSpec(geom.circle(0j, 1000 + 2e-6),
                            (geom.circle(0j, 1000.0),))
        # an annulus 1e-10 across is as far from touching as one 1 across
        tiny = geom.DomainSpec(geom.circle(0j, 2e-10),
                               (geom.circle(0j, 0.5e-10),))
        assert tiny.gaps[0] == pytest.approx(1.5e-10, rel=1e-12)

    @pytest.mark.parametrize("holes", [
        # line-line: a cross of two slabs, no vertex of either on the other
        (geom.rectangle(0, 4, 0, 0.1), geom.rectangle(3, 3.1, -2.5, 1.5)),
        # line-arc: a slab through the unit circle, 0.001 from its samples
        (geom.circle(0j, 1.0), geom.rectangle(0.5, 3, -0.001, 0.001)),
        # arc-arc: two circles whose lens holds neither witness
        (geom.circle(0j, 1.0), geom.circle(1.9 + 0j, 1.0)),
    ])
    def test_crossing_holes_are_rejected(self, holes):
        # a crossing reads as a gap at rounding level (4.4e-16 for the
        # two circles)
        with pytest.raises(GeometryError, match=r"boundary components 0 "
                                                r"and 1 touch") as info:
            geom.DomainSpec(geom.circle(0.5 + 1j, 5.0), holes)
        gap = float(re.search(r"\(gap (\S+)\)", str(info.value))[1])
        reach = max(geom._reach(h.segments) for h in holes)
        assert gap <= 4 * math.ulp(reach)

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 18 (the Jordan premise): a "
                       "hole that crosses itself is not refused")
    def test_bow_tie_hole_is_refused(self):
        # the bow tie's +x lobe winds -1, so classify puts 0.5 in no hole
        # and outside the domain, and evaluate_extension refuses 0.5 as
        # outside the envelope, though the envelope is the whole disc
        with pytest.raises(GeometryError):
            geom.DomainSpec(geom.circle(0j, 3.0), (geom.polygon(
                [-1 - 1j, 1 + 1j, 1 - 1j, -1 + 1j]),))

    @pytest.mark.parametrize("shift", [1e-263j, 1e-320j])
    def test_nearly_concentric_circles_cross_nowhere(self, shift):
        # the radical line of two circles whose centres lie 1e-263 or
        # 1e-320 apart is beyond the float range: they do not cross, and
        # the gap is the difference of the radii
        domain = geom.DomainSpec(geom.circle(shift, 1.0),
                                 (geom.circle(0j, 0.5),))
        assert domain.gaps == (0.5,)
        assert geom._crossings(*domain.outer.segments,
                               *domain.holes[0].segments) == ()

    @pytest.mark.parametrize("angle", [math.pi / 256, 0.3])
    def test_circles_1e10_apart_touch(self, angle):
        # a sampled gap put the nearest samples of the two unit circles
        # 1e-4 apart; their gap of 1e-10 lies within their bands
        u = cmath.exp(1j * angle)
        with pytest.raises(GeometryError, match=r"boundary components 0 "
                                                r"and 1 touch \(gap 1e-10\)"):
            geom.DomainSpec(geom.circle(0j, 5.0), (
                geom.circle(0j, 1.0), geom.circle((2 + 1e-10) * u, 1.0)))

    def test_holes_apart_are_accepted_without_a_crossing_test(
            self, monkeypatch):
        # the vertical slab stops 0.1 above the horizontal one, so no two
        # of their segments have meeting boxes; the outer circle's box
        # meets every segment, and each such pair is tested
        calls = []
        crossings = geom._crossing_points
        monkeypatch.setattr(geom, "_crossing_points", lambda p, q: (
            calls.append(p.shape[1]) or crossings(p, q)))
        holes = (geom.rectangle(0, 4, 0, 0.1), geom.rectangle(3, 3.1, 0.2, 1.5))
        geom.DomainSpec(None, holes)
        assert sum(calls) == 0
        geom.DomainSpec(geom.circle(0.5 + 1j, 5.0), holes)
        assert sum(calls) == 8

    def test_interior_point_builds_no_grid_for_a_centroid_hit(
            self, monkeypatch):
        calls = []
        kernel, bbox = geom._winding_many, geom.Path.bbox
        monkeypatch.setattr(geom, "_winding_many",
                            lambda *args: calls.append("wind")
                            or kernel(*args))
        monkeypatch.setattr(geom.Path, "bbox",
                            lambda self: calls.append("bbox") or bbox(self))
        square = geom.rectangle(0, 1, 0, 1)
        assert geom.interior_point(square) == 0.5 + 0.5j
        assert calls == ["wind"]
        # an L-shaped path whose sample centroid lies outside it falls back
        # to the first grid, 8 x 8 over its bbox, lowest row first
        calls.clear()
        ell = geom.polygon([0, 2, 2 + 0.5j, 0.5 + 0.5j, 0.5 + 2j, 2j])
        first = np.linspace(0.0, 2.0, 10)[1]
        assert geom.interior_point(ell) == complex(first, first)
        assert calls == ["wind", "bbox", "wind"]

    def test_interior_point_refuses_a_path_too_thin_for_every_grid(self):
        # a triangle 1e-9 tall holds no centroid and no point of the grids
        with pytest.raises(GeometryError, match="could not locate a point "
                                                "inside the path"):
            geom.interior_point(geom.polygon([0, 1, 0.5 + 1e-9j]))

    def test_path_between_samples_leaves_the_domain(self):
        # the line 0.005 from the centre crosses the hole of radius 0.01
        # between two of any 64 samples of it, 0.031 apart
        d = geom.DomainSpec(geom.circle(0j, 3.0),
                            (geom.circle(1.5 + 0.015j, 0.01),))
        samples = geom.Path((geom.Line(1.505 - 1j, 1.505 + 1j),)).sample(64)
        assert d.contains_many(samples).all()
        for x, inside in ((1.505, False), (1.4995, False), (1.5101, True)):
            assert d.contains_path(geom.Path((
                geom.Line(x - 1j, x + 1j),))) is inside
        # a closed path is judged alike; one out of the domain is not in it
        assert d.contains_path(geom.circle(1.5 + 0.015j, 0.02))
        assert not d.contains_path(geom.circle(1.5 + 0.015j, 3.5))
        assert not d.contains_path(geom.circle(1.5 + 0.015j, 0.005))

    def test_unbounded_domain(self):
        d = geom.DomainSpec(None, (geom.circle(0j, 1.0),))
        assert d.outer is None
        assert d.contains(5 + 0j)
        assert not d.contains(0j)

    def test_the_whole_plane_contains_every_path(self):
        assert geom.DomainSpec(None).contains_path(geom.circle(0j, 1.0))

    def test_contains_refuses_a_point_that_is_not_finite(self, annulus):
        # before the winding kernel warns of an invalid value
        with pytest.raises(GeometryError, match=r"point \(inf\+0j\) is "
                                                "not finite"):
            annulus.contains(complex("inf"))

    def test_contains_many_matches_scalar(self, two_hole, rng):
        pts = rng.uniform(-3, 6, 100) + 1j * rng.uniform(-5, 5, 100)
        flags = two_hole.contains_many(pts)
        for p, f in zip(pts, flags):
            assert bool(f) == two_hole.contains(p)


# ---------------------------------------------------------------------------
# the per-caller loops the classification replaced, kept as its references:
# DomainSpec.contains_many, the pole-to-hole map of the moment scan and the
# point locator of the envelope evaluation, each winding every boundary
# component itself

def reference_contains(domain, points):
    inside = np.ones(np.shape(points), dtype=bool)
    if domain.outer is not None:
        inside &= geom._winding_many(domain.outer, points)[0] == 1
    for hole in domain.holes:
        inside &= geom._winding_many(hole, points)[0] == 0
    return inside


def reference_pole_hole_indices(domain, locations):
    """Index of the first hole that each location lies in or on, -1 for a
    location in no hole."""
    points = np.array(locations, dtype=complex)
    out = np.full(len(points), -1)
    for j in reversed(range(len(domain.holes))):
        wind = geom._winding_many(domain.holes[j], points)[0]
        out[(wind == 1) | (wind == geom._ON_PATH)] = j
    return out


def reference_locate(domain, points):
    """Index of the hole containing each point, None for a point in the
    domain proper; GeometryError, for the first offending point, when a
    point lies on a hole boundary or outside the hull."""
    winds = [geom._winding_many(hole, points)[0] for hole in domain.holes]
    inside = reference_contains(domain, points)
    out = []
    for i, w in enumerate(points):
        for j, wind in enumerate(winds):
            if wind[i] == geom._ON_PATH:
                raise GeometryError(
                    f"{w:.6g} lies on a hole boundary; no exclusion-radius "
                    "evaluation there")
            if wind[i] == 1:
                out.append(j)
                break
        else:
            if not inside[i]:
                raise GeometryError(
                    f"{w:.6g} lies outside the simply connected envelope")
            out.append(None)
    return out


@st.composite
def _segment(draw, kind, through=None):
    """A line of length 0.2 to 3 or an arc of radius 0.1 to 3 and extent
    0.05 to 2 pi, through a given point or a drawn one."""
    x = through if through is not None \
        else complex(draw(_COORD), draw(_COORD))
    turn, where = cmath.exp(2j * math.pi * draw(_unit)), draw(_unit)
    if kind == "line":
        step = draw(st.floats(0.2, 3.0)) * turn
        return geom.Line(x - where * step, x + (1.0 - where) * step)
    radius = draw(st.floats(0.1, 3.0))
    extent = draw(st.floats(0.05, 2 * math.pi))
    sweep = extent if draw(st.booleans()) else -extent
    t0 = cmath.phase(turn) - where * sweep
    return geom.Arc(x - radius * turn, radius, t0, t0 + sweep, sweep > 0)


# ---------------------------------------------------------------------------
# the scalar gap rule the segment arrays replaced, kept as its reference: a
# Python loop over the segment pairs of two paths, complex scalars throughout

def _reference_crossings(p, q):
    if isinstance(p, geom.Line) and isinstance(q, geom.Line):
        u, w = p.b - p.a, q.b - q.a
        turn = geom._cross(u, w)
        return (p.a + u * (geom._cross(q.a - p.a, w) / turn),) if turn else ()
    line, arc = (p, q) if isinstance(p, geom.Line) else (q, p)
    if isinstance(line, geom.Arc):
        gap, span = q.center - p.center, abs(q.center - p.center) or math.nan
        point = p.center + gap / span * (
            0.5 * span + (p.radius ** 2 - q.radius ** 2) / (2.0 * span))
        u = 1j * gap / span
    else:
        point, u = line.a, (line.b - line.a) / line.length
    rel = (point - arc.center) * u.conjugate()
    h2 = arc.radius ** 2 - rel.imag * rel.imag
    if not h2 >= -1e-12 * arc.radius ** 2:
        return ()
    base, h = point - rel.real * u, math.sqrt(max(h2, 0.0))
    return base + h * u, base - h * u


def _reference_normal_points(s, t):
    if isinstance(s, geom.Line):
        return ()
    u = 1j * (t.b - t.a) if isinstance(t, geom.Line) else t.center - s.center
    u *= s.radius / (abs(u) or math.nan)
    return s.center + u, s.center - u


def reference_gap_points(a, b):
    points = [a.end, b.end] + [s.start for s in a.segments + b.segments]
    boxes = [(q, q.bbox()) for q in b.segments]
    for p in a.segments:
        x0, x1, y0, y1 = p.bbox()
        for q, (u0, u1, v0, v1) in boxes:
            if u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1:
                points += _reference_crossings(p, q)
            points += _reference_normal_points(p, q) \
                + _reference_normal_points(q, p)
    return np.array(points, dtype=complex)


def _bits(points):
    """The (real, imaginary) bit patterns of the points in sorted order,
    every nan point as one: equal for equal multisets of equal bits."""
    z = np.asarray(points, dtype=complex).reshape(-1)
    z = np.where(np.isnan(z), complex(math.nan, math.nan), z)
    bits = z.view(np.int64).reshape(-1, 2)
    return bits[np.lexsort((bits[:, 1], bits[:, 0]))]


_GAP_PATHS = st.one_of(_CIRCLES, _POLYGONS, _RING_ROUTES,
                       st.builds(lambda p: geom.Path((p,)),
                                 st.sampled_from(["line", "arc"]).flatmap(
                                     _segment)))


class TestGap:
    @given(a=_GAP_PATHS, b=_GAP_PATHS)
    @example(a=geom.circle(1e-300j, 1.0), b=geom.circle(0j, 0.5))
    @example(a=geom.circle(0j, 1.0), b=geom.circle(0j, 2.0, ccw=False))
    @example(a=geom.rectangle(-1, 1, -1, 1), b=geom.circle(0j, 1.0))
    def test_points_are_the_scalar_rule_bit_for_bit(self, a, b):
        # every candidate point, and so the gap, is the number the loop
        # over segment pairs gives (a zero's sign aside, which np.unique
        # does not keep and no distance reads); every crossing, whose
        # phase a dilation reads, with its zeros' signs
        (x, at, pair), = geom._gap_points(a.arrays,
                                          b.arrays, [0], [0])
        assert np.all(pair == 0)
        assert np.array_equal(_bits(x[at] + 0.0),
                              _bits(reference_gap_points(a, b) + 0.0))
        want = reference_gap_points(a, b)
        assert geom._gap(a, b) == np.nanmin(a.distance(want)
                                            + b.distance(want))
        for p in a.segments:
            for q in b.segments:
                assert np.array_equal(_bits(geom._crossings(p, q)),
                                      _bits(_reference_crossings(p, q)))

    @pytest.mark.parametrize("kinds", [("line", "line"), ("line", "arc"),
                                       ("arc", "arc")])
    @pytest.mark.parametrize("crossing", [False, True])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_gap_is_the_least_distance(self, kinds, crossing, data):
        # against 4097 points of each path at a spacing h: the gap is never
        # above their least distance to the other path but by rounding,
        # and below it by at most h / 2, where the nearest sample to a
        # closest point lies; paths that cross read a gap below 1e-12 of
        # their reach, far inside their bands of 1e-9 of their lengths
        p = data.draw(_segment(kinds[0]))
        q = data.draw(_segment(kinds[1], p.point(data.draw(_unit))
                               if crossing else None))
        a, b = geom.Path((p,)), geom.Path((q,))
        gap = geom._gap(a, b)
        grid = np.linspace(0.0, 1.0, 4097)
        dense = min(a.distance(b.points_at(grid)).min(),
                    b.distance(a.points_at(grid)).min())
        reach = geom._reach((p, q))
        h = min(a.length, b.length) / 4096
        assert dense - 0.5 * h <= gap <= dense + 8 * math.ulp(reach)
        if crossing:
            assert gap <= 1e-12 * reach


def _located(where, i):
    """reference_locate's outcome for point i, read off a classification."""
    if where.hole[i] >= 0:
        return "hole boundary" if where.on_boundary[i] else int(where.hole[i])
    return None if where.inside[i] else "outside"


def _reference_located(domain, p):
    try:
        return reference_locate(domain, np.array([p]))[0]
    except GeometryError as exc:
        return "hole boundary" if "hole boundary" in str(exc) else "outside"


_unit = st.floats(0.0, 1.0)


@st.composite
def _classified_domains(draw):
    """An annulus with an off-centre hole, two circular holes, or a
    rectangle with a rotated regular polygon hole."""
    kind = draw(st.sampled_from(["annulus", "two-hole", "polygon-hole"]))
    c = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    size = draw(st.floats(1.0, 4.0))
    turn = cmath.exp(2j * math.pi * draw(_unit))
    if kind == "annulus":
        r = (0.1 + 0.5 * draw(_unit)) * size
        shift = draw(_unit) * (0.9 * size - r) * turn
        return geom.DomainSpec(geom.circle(c, size),
                               (geom.circle(c + shift, r),))
    if kind == "two-hole":
        radii = [(0.1 + 0.25 * draw(_unit)) * size for _ in range(2)]
        return geom.DomainSpec(geom.circle(c, size), (
            geom.circle(c - 0.5 * size * turn, radii[0]),
            geom.circle(c + 0.5 * size * turn, radii[1])))
    half = complex(size, (0.5 + draw(_unit)) * size)
    sides = draw(st.integers(3, 8))
    rho = (0.1 + 0.35 * draw(_unit)) * size
    hole = geom.polygon([c + rho * turn * cmath.exp(2j * math.pi * k / sides)
                         for k in range(sides)])
    return geom.DomainSpec(geom.rectangle(c.real - half.real,
                                          c.real + half.real,
                                          c.imag - half.imag,
                                          c.imag + half.imag), (hole,))


class TestClassification:
    @given(domain=_classified_domains(), seed=st.integers(0, 2 ** 32 - 1),
           fractions=st.lists(_unit, min_size=1, max_size=8))
    def test_matches_the_per_caller_loops(self, domain, seed, fractions):
        # points drawn over the outer box grown by a quarter on each side,
        # points on every boundary component (segment ends included) and
        # the hole witnesses
        x0, x1, y0, y1 = domain.outer.bbox()
        pad = 0.25 * max(x1 - x0, y1 - y0)
        rng = np.random.default_rng(seed)
        drawn = rng.uniform((x0 - pad, y0 - pad), (x1 + pad, y1 + pad),
                            size=(64, 2)).view(complex)[:, 0]
        on = [path.points_at(np.array(fractions + [0.0, 0.5]))
              for path in domain.boundary_paths()]
        points = np.concatenate([drawn, *on, domain.witnesses])
        where = geom.classify(domain, points)

        assert np.array_equal(where.hole,
                              reference_pole_hole_indices(domain, points))
        assert np.array_equal(where.inside, reference_contains(domain, points))
        assert np.array_equal(where.inside, domain.contains_many(points))
        dists = [path.distance(points) for path in domain.boundary_paths()]
        assert np.array_equal(where.distance, np.minimum.reduce(dists))
        for path, d in zip(domain.boundary_paths(), dists):
            assert np.array_equal(geom._winding_many(path, points)[1], d)
        for i, p in enumerate(points):
            assert _located(where, i) == _reference_located(domain, p)
        # a point on a hole boundary counts for that hole, on its boundary;
        # a point on the outer boundary is not in the domain
        for j, hole_points in enumerate(on[:-1]):
            assert np.all(geom.classify(domain, hole_points).hole == j)
            assert np.all(geom.classify(domain, hole_points).on_boundary)
        assert not geom.classify(domain, on[-1]).inside.any()
        assert list(geom.classify(domain, domain.witnesses).hole) \
            == list(range(len(domain.holes)))

        # the envelope evaluation refuses the first point off the envelope
        # with the message of the reference locator
        verdict = mom.PrimitiveOrderVerdict(None, 0, True, "pole-certified",
                                            (), ())
        with pytest.raises(GeometryError) as want:
            reference_locate(domain, points)
        with pytest.raises(GeometryError) as got:
            ext.evaluate_extension(lambda z: z, domain, points,
                                   verdict=verdict)
        assert str(got.value) == str(want.value)

    def test_shapes_follow_the_points(self, two_hole):
        grid = np.array([[0j, 1 + 0.5j], [3 + 0j, 10 + 0j]])
        where = geom.classify(two_hole, grid)
        for field in (where.hole, where.inside, where.on_boundary,
                      where.distance):
            assert field.shape == (2, 2)
        assert where.hole.tolist() == [[0, -1], [1, -1]]
        assert where.inside.tolist() == [[False, True], [False, False]]
        assert where.distance[0, 0] == 0.5
        scalar = geom.classify(two_hole, 1 + 0.5j)
        assert scalar.hole.shape == () and bool(scalar.inside)

    def test_point_that_is_not_finite_is_refused(self, annulus):
        # a NaN winding would put the point on hole 0's boundary; the
        # whole plane, with no boundary to wind, refuses it too
        for domain in (annulus, geom.DomainSpec(None, ())):
            with pytest.raises(GeometryError, match="is not finite"):
                geom.classify(domain, [0.1 + 0j, complex("nan")])

    def test_whole_plane_has_no_boundary(self):
        where = geom.classify(geom.DomainSpec(None, ()), np.array([0j, 5j]))
        assert where.inside.all() and not where.on_boundary.any()
        assert np.all(where.hole == -1) and np.all(where.distance == math.inf)


def _u_hole(center, half, slot):
    """A U-shaped hole open upward, reaching half from its center on every
    side, its slot slot wide and reaching down to center."""
    wall = half - 0.5 * slot
    return geom.polygon([center + complex(x, y) for x, y in (
        (-half, -half), (half, -half), (half, half), (half - wall, half),
        (half - wall, 0.0), (wall - half, 0.0), (wall - half, half),
        (-half, half))])


@st.composite
def _banded_domains(draw):
    """(domain, points): 1-3 holes, each filling a unit cell but for a
    relative width, a circle, a thin slab, a slab with rounded corners
    (lines and arcs in one path) or a U-shaped polygon, in a circle (for a
    lone circle) or a rectangle; the points lie over the domain's box and
    on the normals of every component at 0, 0.5, 1, 2 and 1000 bands to
    either side."""
    width = 10.0 ** draw(st.floats(-5.0, math.log10(0.5)))
    shapes = draw(st.lists(st.sampled_from(["circle", "slab", "rounded",
                                            "U"]), min_size=1, max_size=3))
    half = 0.5 * (1.0 - width)

    def hole(c, shape):
        if shape == "circle":
            return geom.circle(c, half)
        if shape == "U":
            return _u_hole(c, half, 0.6 * half)
        if shape == "slab":
            return geom.rectangle(c - half, c + half, -0.1 * half, 0.1 * half)
        return geom._dilated_hole(geom.rectangle(
            c - 0.9 * half, c + 0.9 * half, -0.05 * half, 0.05 * half),
            0.05 * half)

    holes = tuple(hole(c, shape)
                  for c, shape in zip(np.arange(len(shapes)) + 0.5, shapes))
    outer = geom.circle(0.5 + 0j, 0.5) if shapes == ["circle"] \
        else geom.rectangle(0.0, len(shapes), -0.5, 0.5)
    domain = geom.DomainSpec(outer, holes)
    fractions = np.array(draw(st.lists(_unit, min_size=1, max_size=6))
                         + [0.0, 0.5])
    offsets = np.array([0.0, 0.5, 1.0, 2.0, 1e3])
    offsets = np.concatenate([offsets, -offsets[1:]])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = [rng.uniform((-0.1, -0.6), (len(shapes) + 0.1, 0.6),
                          size=(32, 2)).view(complex)[:, 0]]
    for path in domain.boundary_paths():
        z, v = path.arrays.nodes(*path.locate(fractions))
        normal = -1j * v / np.abs(v)
        points.append((z[:, None] + path.band * offsets * normal[:, None])
                      .ravel())
    return domain, np.concatenate(points)


class TestOneKernelPass:
    @given(case=_banded_domains())
    def test_matches_the_per_path_references(self, case):
        # the domain's one chord set places points as the per-path
        # windings do, at every band edge too, and its gaps are the
        # per-pair _gap bit for bit
        domain, points = case
        where = geom.classify(domain, points)
        assert np.array_equal(where.inside, reference_contains(domain, points))
        assert np.array_equal(where.hole,
                              reference_pole_hole_indices(domain, points))
        assert np.array_equal(where.distance, np.minimum.reduce(
            [path.distance(points) for path in domain.boundary_paths()]))
        for i, p in enumerate(points):
            assert _located(where, i) == _reference_located(domain, p)
        for j, hole in enumerate(domain.holes):
            others = [p for p in domain.boundary_paths() if p is not hole]
            assert domain.gaps[j] == min(geom._gap(hole, p) for p in others)

    @pytest.mark.parametrize("pairs", [1, 3, 16])
    def test_blocks_of_gap_points_give_the_same_answers(self, slab, pairs,
                                                        monkeypatch):
        # gap points come in blocks of at most _GAP_PAIRS segment pairs,
        # which bound their memory for long paths; any block size gives
        # the same gaps, refusals and basis checks
        hole, circle = slab.holes
        curve = geom._dilated_hole(hole, 0.5 * slab.gaps[0])
        gap = geom._gap(hole, circle)
        monkeypatch.setattr(geom, "_GAP_PAIRS", pairs)
        domain = geom.DomainSpec(slab.outer, slab.holes)
        assert domain.gaps == slab.gaps
        assert geom._gap(hole, circle) == gap
        assert domain.contains_path(curve)
        assert not domain.contains_path(geom._dilated_hole(hole, 0.4))
        with pytest.raises(GeometryError, match=r"components 0 and 1 touch"):
            geom.DomainSpec(slab.outer, (hole, geom.circle(0.37j, 0.27)))

    @pytest.mark.parametrize("holes", [1, 2, 3])
    def test_classify_and_contains_path_pass_once_or_twice(
            self, holes, kernel_passes):
        # one pass of the domain's chords places the points whatever the
        # number of components; a path takes one pass of the domain's
        # chords, which winds them around its start alone and measures its
        # samples; a basis check adds one pass of the path's own chords,
        # which winds it around the witnesses
        domain = geom.DomainSpec(geom.rectangle(0, holes, -0.5, 0.5), tuple(
            geom.circle(k + 0.5, 0.25) for k in range(holes)))
        kernel_passes.clear()
        geom.classify(domain, np.linspace(0, holes, 50) + 0.1j)
        assert kernel_passes == [(domain.chords, holes + 1, 50)]
        kernel_passes.clear()
        path = geom.circle(0.5 + 0j, 0.375)
        assert domain.contains_path(path)
        assert kernel_passes == [(domain.chords, holes + 1, 1)]
        kernel_passes.clear()
        assert geom._basis_curves_pass(domain, 0, path)
        assert kernel_passes == [(path.arrays.chords, 1, holes),
                                 (domain.chords, holes + 1, 1)]


def test_slab_scenario_builds_each_kernel_once(chord_builds, kernel_passes):
    # a corpus-shaped domain-dilated scenario: a slab beside a circle hole,
    # whose slab has no separating circle. Set-up builds the domain's one
    # kernel and takes one pass, which winds the three components' sample
    # centroids alone; the checks build the slab's dilation's own kernel,
    # whose one pass winds it around the two witnesses, and measure its
    # samples by one pass of the domain's kernel, which winds only its
    # start; the pole's classification is one more pass
    raw = {"function": "(-1.0613+1.0388i)/(z-(-0.3698-0.0651i))^2 + "
                       "(-0.7683+0.5586i)/(z-(-4.8285+2.3363i))^1",
           "domain": {"outer": {"circle": {"center": [0.0, 0.0],
                                           "radius": 3.0}},
                      "holes": [{"polygon": {"vertices": [
                          [1.504828, -0.23234], [-1.147948, 0.137259],
                          [-1.173628, -0.04706], [1.479148, -0.416659]]}},
                          {"circle": {"center": [0.0791, -0.7604],
                                      "radius": 0.194}}]},
           "checks": ["primitive_order", "extension"], "max_degree": 2}
    config, diags = cli.build_config(raw)
    assert diags == []
    domain = config.domain
    assert chord_builds == [3]
    assert kernel_passes == [(domain.chords, 3, 3)]
    chord_builds.clear()
    kernel_passes.clear()
    report = cli.run_scenario(config)
    assert [row["status"] for row in report.results] == ["ok", "ok"]
    assert not geom._hole_rules(domain)[0] and geom._hole_rules(domain)[1]
    dilation = geom.homology_basis(domain)[0]
    assert chord_builds == [1]
    assert kernel_passes == [(domain.chords, 3, 2),
                             (dilation.arrays.chords, 1, 2),
                             (domain.chords, 3, 1)]


def _named_outside_geometry(pattern):
    """module:line of each package line outside geometry.py that matches."""
    source = Path(geom.__file__).parent
    names = re.compile(pattern)
    return [f"{module.name}:{number}"
            for module in sorted(source.glob("*.py"))
            if module.name != "geometry.py"
            for number, line in enumerate(module.read_text().splitlines(), 1)
            if names.search(line)]


def test_only_geometry_names_the_winding_kernel():
    # the sentinel and the kernel stay behind geometry.classify,
    # geometry.winding_number and Chords.windings, and the tolerances of
    # the distance decisions behind the curves' bands; tests may still use
    # them as references
    assert _named_outside_geometry(
        r"\b(_ON_PATH|_winding_many|_ON_PATH_BAND|WINDING_RESIDUAL_LIMIT|"
        r"ENDPOINT_TOL)\b") == []


def test_only_geometry_measures_paths_against_boundaries():
    # whether a path lies in a domain is asked of DomainSpec.contains_path
    # alone: no other module measures a gap or samples the path
    assert _named_outside_geometry(r"\b_gap\b|\bcontains_many\(") == []


# ---------------------------------------------------------------------------
# the contour selection that one rule per hole replaced, kept as its
# reference: the basis curve is the circle at 0.5 of (lo, hi) if it passes
# the check, else the dilation at 0.5 of the gap; the variants are the
# circles at 0.35 and 0.7 if both pass, else the basis curve and the
# dilation at 0.3 (or the basis curve again). Each curve is checked on its
# own.

def _reference_others(domain, j):
    outer = (domain.outer,) if domain.outer is not None else ()
    return outer + domain.holes[:j] + domain.holes[j + 1:]


def _reference_circle(domain, j, frac):
    hole, center = domain.holes[j], domain.witnesses[j]
    lo = hole.max_distance(center)
    hi = min((p.distance(center) for p in _reference_others(domain, j)),
             default=math.inf)
    if not hi > lo * (1.0 + 1e-9):
        return None
    if math.isinf(hi):
        hi = 2.0 * lo if lo > 0 else 1.0
    return geom.circle(center, lo + frac * (hi - lo))


def closed_form_gap(p, q):
    """The gap of two boundaries, each a full circle or a polygon. Two
    polygons have a vertex in a closest pair. A point x lies
    ||x - c| - r| from a circle, and on a line |x - c| takes every value
    from its distance to c to its larger end distance. Two circles lie
    |c - e| - r - s apart, or r - s - |c - e| when one holds the other."""
    def circle(path):
        arc = path.segments[0]
        return (arc.center, arc.radius) if isinstance(arc, geom.Arc) \
            else None

    if circle(p) and circle(q):
        (c, r), (e, s) = circle(p), circle(q)
        return max(abs(c - e) - r - s, abs(r - s) - abs(c - e))
    if circle(p) or circle(q):
        (c, r), polygon = (circle(p), q) if circle(p) else (circle(q), p)
        return min(max(g.distance(c) - r, r - g.max_distance(c), 0.0)
                   for g in polygon.segments)
    return min(min(reference_distance(p, g.a) for g in q.segments),
               min(reference_distance(q, g.a) for g in p.segments))


def reference_gap(domain, j):
    """Hole j's least closed_form_gap to another boundary."""
    hole = domain.holes[j]
    gap = min((closed_form_gap(hole, p) for p in _reference_others(domain, j)),
              default=math.inf)
    return gap if math.isfinite(gap) else 0.5 * hole.length / math.pi


def assert_gap(domain, j):
    """DomainSpec.gaps[j] lies within 8 ulps of the domain's reach of
    reference_gap, the closed form."""
    reach = max(geom._reach(p.segments) for p in domain.boundary_paths())
    assert domain.gaps[j] == pytest.approx(reference_gap(domain, j),
                                           rel=0.0, abs=8 * math.ulp(reach))


def _reference_dilation(domain, j, frac):
    """A 512-gon at frac of the gap: the reference checks it as it checks a
    circle, and a dilation is compared with it by its windings."""
    return sampled_dilation(domain.holes[j], frac * reference_gap(domain, j))


def dilation_error(curve, hole, d):
    """Largest deviation of 256 samples of curve from the distance d to
    hole, over the scale max(1, |samples|)."""
    points = curve.sample(256)
    return np.max(np.abs(hole.distance(points) - d)) \
        / max(1.0, np.max(np.abs(points)))


def _assert_same_contour(domain, j, got, want, frac):
    """A circle of the reference is matched segment for segment; for one of
    its dilations, got lies at frac of the gap from hole j and has the same
    windings around every hole."""
    if len(want.segments) != 512:
        assert got.segments == want.segments
        return
    assert dilation_error(got, domain.holes[j],
                          frac * reference_gap(domain, j)) <= 1e-12
    wits = domain.witnesses
    assert np.array_equal(geom._winding_many(got, wits)[0],
                          geom._winding_many(want, wits)[0])


def _reference_passes(domain, j, curve):
    wits = domain.witnesses
    return np.array_equal(geom._winding_many(curve, wits)[0],
                          np.arange(len(wits)) == j) \
        and bool(domain.contains_many(curve.sample(64)).all())


def reference_basis(domain):
    out = []
    for j in range(len(domain.holes)):
        curve = _reference_circle(domain, j, 0.5)
        if curve is None or not _reference_passes(domain, j, curve):
            curve = _reference_dilation(domain, j, 0.5)
            if not _reference_passes(domain, j, curve):
                raise GeometryError(
                    f"could not construct a separating basis curve for hole {j}")
        out.append(curve)
    return out


def reference_variants(domain, j):
    variants = []
    for frac in (0.35, 0.7):
        c = _reference_circle(domain, j, frac)
        if c is not None and _reference_passes(domain, j, c):
            variants.append(c)
    if len(variants) < 2:
        base = reference_basis(domain)[j]
        alt = _reference_dilation(domain, j, 0.3)
        variants = [base, alt if _reference_passes(domain, j, alt) else base]
    return tuple(variants)


_BASIS_KINDS = ("annulus", "eccentric", "two-hole", "slab-pair",
                "polygon-hole")


@st.composite
def _basis_domains(draw, kind):
    """An annulus, an eccentric hole, two circular holes, a slab with a
    circle or a second slab beside it, or a rectangle with a rotated
    regular polygon hole."""
    c = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    size = draw(st.floats(1.0, 4.0))
    turn = cmath.exp(2j * math.pi * draw(_unit))
    if kind in ("annulus", "eccentric"):
        r = (0.1 + 0.5 * draw(_unit)) * size
        shift = 0.0 if kind == "annulus" \
            else (0.1 + 0.8 * draw(_unit)) * (0.9 * size - r) * turn
        return geom.DomainSpec(geom.circle(c, size),
                               (geom.circle(c + shift, r),))
    if kind == "two-hole":
        radii = [(0.1 + 0.25 * draw(_unit)) * size for _ in range(2)]
        return geom.DomainSpec(geom.circle(c, size), (
            geom.circle(c - 0.5 * size * turn, radii[0]),
            geom.circle(c + 0.5 * size * turn, radii[1])))
    if kind == "slab-pair":
        # a long thin slab and, a short gap to its side, a small circle
        # (which has separating circles) or a parallel slab (which has not)
        length, width = 2.4 + 0.6 * draw(_unit), 0.16 + 0.12 * draw(_unit)
        gap = 0.26 + 0.08 * draw(_unit)
        normal = 1j * turn

        def slab(mid):
            return geom.polygon([mid + turn * complex(x * length, y * width) / 2
                                 for x, y in ((-1, -1), (1, -1), (1, 1),
                                              (-1, 1))])

        if draw(st.booleans()):
            radius = 0.15 + 0.05 * draw(_unit)
            other = geom.circle(c + (width / 2 + gap + radius) * normal,
                                radius)
        else:
            other = slab(c + (width + gap) * normal)
        return geom.DomainSpec(geom.circle(c, 3.0), (slab(c), other))
    half = complex(size, (0.5 + draw(_unit)) * size)
    sides = draw(st.integers(3, 8))
    rho = (0.1 + 0.35 * draw(_unit)) * size
    hole = geom.polygon([c + rho * turn * cmath.exp(2j * math.pi * k / sides)
                         for k in range(sides)])
    return geom.DomainSpec(geom.rectangle(c.real - half.real,
                                          c.real + half.real,
                                          c.imag - half.imag,
                                          c.imag + half.imag), (hole,))


def _regular_polygons(c):
    """Rotated regular polygons of 3 to 8 sides about c."""
    return st.builds(
        lambda sides, rho, t: geom.polygon([
            c + rho * cmath.exp(2j * math.pi * (t + k / sides))
            for k in range(sides)]),
        st.integers(3, 8), st.floats(0.1, 2.0), _unit)


def _scaled(path, s):
    """path with every point multiplied by s."""
    return geom.Path(tuple(
        geom.Line(g.a * s, g.b * s) if isinstance(g, geom.Line)
        else geom.Arc(g.center * s, g.radius * s, g.t0, g.t1, g.ccw)
        for g in path.segments), path.closed)


def exact_contains(domain, path):
    """contains_path's rule from the exact gaps alone: the path's start
    lies in the domain, and its _gap to every boundary exceeds their two
    bands."""
    return bool(geom.classify(domain, path.start).inside) and all(
        geom._gap(path, b) > path.band + b.band
        for b in domain.boundary_paths())


@pytest.fixture
def gap_point_calls(monkeypatch):
    """The _gap_points calls made since the fixture was set, one entry
    each."""
    calls = []
    gap_points = geom._gap_points

    def counted(*args):
        calls.append(args)
        return gap_points(*args)

    monkeypatch.setattr(geom, "_gap_points", counted)
    return calls


@st.composite
def _paths_near_holes(draw):
    """A basis domain and a circle about a hole's witness, or a dilation
    of a hole by a fraction of its gap up to 1.05, some of them within a
    few bands of touching another boundary."""
    domain = draw(_basis_domains(draw(st.sampled_from(_BASIS_KINDS))))
    j = draw(st.integers(0, len(domain.holes) - 1))
    gap = domain.gaps[j]
    frac = draw(st.one_of(
        st.floats(0.05, 1.05),
        st.floats(4.0, 11.0).map(lambda u: 1.0 - 10.0 ** -u)))
    if draw(st.booleans()):
        hole = domain.holes[j]
        lo = hole.max_distance(domain.witnesses[j])
        return domain, geom.circle(domain.witnesses[j], lo + frac * gap)
    try:
        return domain, geom._dilated_hole(domain.holes[j], frac * gap)
    except GeometryError:
        assume(False)


class TestSampledBound:
    @given(case=_paths_near_holes())
    def test_contains_path_is_the_exact_rule(self, case):
        # the sampled bound only ever spares the exact gaps where they
        # would pass too
        domain, path = case
        assert domain.contains_path(path) == exact_contains(domain, path)

    @pytest.mark.parametrize("frac, inside, exact", [
        (0.5, True, False), (0.3, True, False), (1.0 - 1e-3, True, True),
        (1.0 - 1e-7, True, True), (1.0 - 1e-8, False, True),
        (1.01, False, True)])
    def test_the_exact_gaps_decide_near_a_band(self, slab, frac, inside,
                                               exact, gap_point_calls):
        # the slab lies 0.3 from the circle hole; a dilation by frac of
        # that gap keeps 0.3 (1 - frac) from it, against bands of about
        # 8.6e-9, and its samples lie up to 0.058 from its points, so only
        # the dilations at 0.5 and 0.3 of the gap clear the bound
        domain = geom.DomainSpec(slab.outer, slab.holes)
        curve = geom._dilated_hole(slab.holes[0], frac * domain.gaps[0])
        gap_point_calls.clear()
        assert domain.contains_path(curve) is inside
        assert len(gap_point_calls) == int(exact)
        assert exact_contains(domain, curve) is inside

    def test_corpus_like_slab_checks_measure_no_gap_points(
            self, slab, gap_point_calls):
        # a slab beside a circle hole, as the domain-dilated corpus builds
        # them: both dilations pass their check on the bound alone
        domain = geom.DomainSpec(slab.outer, slab.holes)
        gap_point_calls.clear()
        curves = [geom.homology_basis(domain)[0],
                  *geom.basis_curve_variants(domain, 0)]
        assert all(len(c.segments) > 1 for c in curves)
        assert gap_point_calls == []

    @pytest.mark.parametrize("name", ["annulus", "two_hole", "slab"])
    def test_witnesses_and_centroids_are_the_sample_means(self, request,
                                                           name):
        assert_sample_means(request.getfixturevalue(name))

    @given(domain=_basis_domains("slab-pair"))
    def test_rotated_slabs_keep_the_sample_means(self, domain):
        assert_sample_means(domain)

    def test_contours_live_with_their_domain(self, slab):
        # a contour is kept on its domain, not shared with an equal one,
        # and goes when the domain does
        domain = geom.DomainSpec(slab.outer, slab.holes)
        curve = geom.homology_basis(domain)[0]
        assert geom.homology_basis(domain)[0] is curve
        twin = geom.DomainSpec(slab.outer, slab.holes)
        assert twin == domain
        assert geom.homology_basis(twin)[0] is not curve
        kept = weakref.ref(curve)
        del domain, curve
        gc.collect()
        assert kept() is None


def assert_sample_means(domain):
    """Each hole's witness is the mean of its sample(64), bit for bit, and
    the centre of its circles."""
    for hole, witness, circles in zip(
            domain.holes, domain.witnesses, geom._hole_rules(domain)):
        assert witness == complex(np.mean(hole.sample(64)))
        assert all(c.segments[0].center == witness for c in circles)


class TestHomologyBasis:
    @pytest.mark.parametrize("kind", _BASIS_KINDS)
    @settings(max_examples=8)
    @given(data=st.data())
    def test_matches_the_reference_selection(self, kind, data):
        domain = data.draw(_basis_domains(kind))
        basis = geom.homology_basis(domain)
        want = reference_basis(domain)
        assert len(basis) == len(want)
        for j, curve in enumerate(basis):
            assert_gap(domain, j)
            _assert_same_contour(domain, j, curve, want[j], 0.5)
            variants = geom.basis_curve_variants(domain, j)
            wanted = reference_variants(domain, j)
            assert len(variants) == len(wanted)
            for got, ref, frac in zip(variants, wanted, (0.5, 0.3)):
                _assert_same_contour(domain, j, got, ref, frac)
            # the variants differ, and a dilated hole's first one is its
            # basis curve itself
            assert variants[0].segments != variants[1].segments
            if len(want[j].segments) == 512:
                assert variants[0] is curve
            assert geom.basis_curve_variants(domain, j)[1] is variants[1]

    def test_holes_without_circles_give_dilations(self, slab):
        # the slab's annulus is empty: both the basis curve and the
        # variants are dilations, by 0.5, 0.5 and 0.3 of the gap DomainSpec
        # measured
        assert geom._hole_rules(slab)[0] == ()
        basis = geom.homology_basis(slab)
        variants = geom.basis_curve_variants(slab, 0)
        gap = slab.gaps[0]
        assert gap == pytest.approx(0.3, abs=1e-12)
        assert [dilation_error(c, slab.holes[0], frac * gap) <= 1e-12
                for c, frac in zip(basis[:1] + list(variants),
                                   (0.5, 0.5, 0.3))] == [True] * 3
        assert variants[0] is basis[0]

    def test_circles_within_a_band_give_dilations(self):
        # the circle hole lies 3e-9 beyond the slab's reach lo = |1 + 0.05i|
        # from its centroid, so the circles would lie 0.9e-9 to 2.1e-9 from
        # the slab's corners or the circle, within their bands (6.3e-9 for
        # the circles); the slab is 0.95 from the circle hole
        lo = abs(1 + 0.05j)
        domain = geom.DomainSpec(geom.circle(0j, 3.0), (
            geom.rectangle(-1.0, 1.0, -0.05, 0.05),
            geom.circle((lo + 3e-9 + 0.2) * 1j, 0.2)))
        assert geom._hole_rules(domain)[0] == ()
        curves = (geom.homology_basis(domain)[0],
                  *geom.basis_curve_variants(domain, 0))
        assert [dilation_error(c, domain.holes[0], frac * domain.gaps[0])
                <= 1e-12 for c, frac in zip(curves, (0.5, 0.5, 0.3))] \
            == [True] * 3
        assert all(geom._basis_curves_pass(domain, 0, c) for c in curves)

    @pytest.mark.parametrize("kind", _BASIS_KINDS)
    @given(data=st.data())
    def test_admitted_circles_pass_the_basis_check(self, kind, data):
        # the annulus bound proves the circles admissible, so _hole_rules
        # runs no check of its own; the gaps are the reference's
        domain = data.draw(_basis_domains(kind))
        for j in range(len(domain.holes)):
            circles = geom._hole_rules(domain)[j]
            assert all(geom._basis_curves_pass(domain, j, c)
                       for c in circles)
            assert_gap(domain, j)

    @pytest.mark.parametrize("kind", _BASIS_KINDS + ("unbounded",))
    @settings(max_examples=10)
    @given(data=st.data(), k=st.integers(-60, 60))
    def test_power_of_two_scaling_is_exact(self, kind, data, k):
        # every tolerance is relative to the curves compared, so scaling
        # the plane by 2^k, which rounds nothing, changes no decision
        if kind == "unbounded":
            c = complex(data.draw(_COORD), data.draw(_COORD))
            domain = geom.DomainSpec(None, (data.draw(st.one_of(
                _regular_polygons(c), st.just(geom.circle(c, 0.7)))),))
        else:
            domain = data.draw(_basis_domains(kind))
        s = 2.0 ** k
        scaled = geom.DomainSpec(
            None if domain.outer is None else _scaled(domain.outer, s),
            tuple(_scaled(h, s) for h in domain.holes))
        x0, x1, y0, y1 = (domain.outer or domain.holes[0]).bbox()
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        drawn = rng.uniform((2 * x0 - x1, 2 * y0 - y1), (2 * x1 - x0,
                            2 * y1 - y0), size=(64, 2)).view(complex)[:, 0]
        on = [path.points_at(np.linspace(0.0, 1.0, 9))
              for path in domain.boundary_paths()]
        points = np.concatenate([drawn, *on, domain.witnesses])
        want, got = (geom.classify(d, points * f)
                     for d, f in ((domain, 1.0), (scaled, s)))
        for name in ("hole", "inside", "on_boundary"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.distance, want.distance * s)
        assert np.array_equal(scaled.gaps, np.multiply(domain.gaps, s))
        for j in range(len(domain.holes)):
            want, got = (np.array([c.sample(64) * f for c in (
                geom.homology_basis(d)[j], *geom.basis_curve_variants(d, j))])
                for d, f in ((domain, s), (scaled, 1.0)))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name, dilations", [
        ("annulus", 0), ("two_hole", 0), ("shape_hole", 0), ("slab", 2)])
    def test_contours_reuse_what_the_domain_measured(
            self, request, name, dilations, monkeypatch):
        # only a dilation is checked, once as it is built, and no gap is
        # measured again; the shape hole is an arrowhead, concave at -0.1i.
        # A fixture's paths make a new domain, which keeps no contour that
        # another test built
        domain = geom.DomainSpec(geom.circle(0j, 3.0), (geom.polygon(
            [-0.5 - 0.5j, -0.1j, 0.5 - 0.5j, 0.5j]),)) \
            if name == "shape_hole" else geom.DomainSpec(
                request.getfixturevalue(name).outer,
                request.getfixturevalue(name).holes)
        calls = []
        real_pass, real_gap = geom._basis_curves_pass, geom._gap
        boundaries = set(map(id, domain.boundary_paths()))

        def gap(a, b):  # a dilation's check measures it against them
            if {id(a), id(b)} <= boundaries:
                calls.append("_gap")
            return real_gap(a, b)

        monkeypatch.setattr(geom, "_basis_curves_pass", lambda *args:
                            calls.append("_basis_curves_pass")
                            or real_pass(*args))
        monkeypatch.setattr(geom, "_gap", gap)
        geom.homology_basis(domain)
        for j in range(len(domain.holes)):
            geom.basis_curve_variants(domain, j)
        assert calls == ["_basis_curves_pass"] * dilations

    def test_witnesses_come_from_the_domain(self, two_hole, monkeypatch):
        # the Laurent centres of the extension read the witnesses the
        # domain found when it was built
        monkeypatch.setattr(geom, "interior_point", None)
        assert ext._component_centers(np.reciprocal, two_hole) \
            == list(two_hole.witnesses)

    def test_failing_narrow_dilation_is_an_error(self, monkeypatch):
        # the narrower contour is never replaced by the basis curve, which
        # would make the contour-independence check compare a curve with
        # itself
        domain = geom.DomainSpec(geom.circle(0.125j, 3.0), (
            geom.polygon([-1.25 - 0.125j, 1.25 - 0.125j, 1.25 + 0.125j,
                          -1.25 + 0.125j]),
            geom.circle(0.625j, 0.1875)))
        gap = domain.gaps[0]
        assert dilation_error(geom.homology_basis(domain)[0],
                              domain.holes[0], 0.5 * gap) <= 1e-12
        monkeypatch.setattr(geom, "_basis_curves_pass", lambda *args: False)
        with pytest.raises(GeometryError, match="for hole 0"):
            geom.basis_curve_variants(domain, 0)

    def test_annulus_basis_separates(self, annulus):
        basis = geom.homology_basis(annulus)
        assert len(basis) == 1
        assert geom.winding_number(basis[0], 0j) == 1

    def test_two_hole_basis(self, two_hole):
        basis = geom.homology_basis(two_hole)
        assert len(basis) == 2
        assert geom.winding_number(basis[0], 0j) == 1
        assert geom.winding_number(basis[0], 3 + 0j) == 0
        assert geom.winding_number(basis[1], 3 + 0j) == 1
        assert geom.winding_number(basis[1], 0j) == 0

    def test_basis_variants_distinct(self, annulus):
        a, b = geom.basis_curve_variants(annulus, 0)
        assert abs(a.length - b.length) > 1e-9
        for curve in (a, b):
            assert geom.winding_number(curve, 0j) == 1

    def test_dilated_variants_distinct(self, slab):
        # the slab admits no separating circle, so both of its contours are
        # dilations of the hole boundary
        a, b = geom.basis_curve_variants(slab, 0)
        assert a is geom.homology_basis(slab)[0]
        assert abs(a.length - b.length) > 1e-3
        for curve in (a, b):
            assert geom.winding_number(curve, 0j) == 1
            assert geom.winding_number(curve, 0.57j) == 0
        again = geom.basis_curve_variants(slab, 0)
        assert again[0] is a and again[1] is b

    def test_eccentric_hole(self):
        d = geom.DomainSpec(geom.circle(0j, 2.0),
                            (geom.circle(1.2 + 0j, 0.3),))
        basis = geom.homology_basis(d)
        assert geom.winding_number(basis[0], 1.2 + 0j) == 1
        # stays inside the domain
        for t in np.linspace(0, 1, 64, endpoint=False):
            assert d.contains(basis[0].points_at(float(t)))

    def test_witness_inside_hole(self, two_hole):
        for j, hole in enumerate(two_hole.holes):
            w = two_hole.witnesses[j]
            assert geom.winding_number(hole, w) == 1


_OFFSET_KINDS = ("slab", "L-shape", "regular", "circle")


@st.composite
def _offset_domains(draw, kind):
    """(domain, c, turn, slab): hole 0 of the kind about a centre c, turned
    by turn unless it is a circle (slab is the slab's (length, width), else
    None); hole 1 an axis-parallel square a short gap to its right; an
    axis-parallel rectangle around both. Every boundary is a polygon or a
    circle, so closed_form_gap gives the gap."""
    c = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    turn = cmath.exp(2j * math.pi * draw(_unit))
    slab = None
    if kind == "slab":
        slab = (2.4 + 0.6 * draw(_unit), 0.16 + 0.12 * draw(_unit))
        shape = [complex(x * slab[0], y * slab[1]) / 2
                 for x, y in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    elif kind == "L-shape":
        # arms of length a and width w; the corner w + w i is concave
        a, w = 1.0 + draw(_unit), 0.2 + 0.3 * draw(_unit)
        shape = [v - 0.5 * a * (1 + 1j) for v in
                 (0, a, a + w * 1j, w + w * 1j, w + a * 1j, a * 1j)]
    elif kind == "regular":
        sides, rho = draw(st.integers(3, 8)), 0.4 + 0.6 * draw(_unit)
        shape = [rho * cmath.exp(2j * math.pi * k / sides)
                 for k in range(sides)]
    hole = geom.circle(c, 0.3 + 0.7 * draw(_unit)) if kind == "circle" \
        else geom.polygon([c + turn * v for v in shape])
    x0, x1, y0, y1 = hole.bbox()
    side, gap = 0.2 + 0.4 * draw(_unit), 0.1 + 0.4 * draw(_unit)
    margin = 0.3 + draw(_unit)
    square = geom.rectangle(x1 + gap, x1 + gap + side, c.imag - side / 2,
                            c.imag + side / 2)
    outer = geom.rectangle(x0 - margin, x1 + gap + side + margin,
                           y0 - margin, y1 + margin)
    return geom.DomainSpec(outer, (hole, square)), c, turn, slab


class TestDilation:
    @pytest.mark.parametrize("kind", _OFFSET_KINDS)
    @settings(max_examples=10)
    @given(data=st.data())
    def test_offsets_are_exact(self, kind, data):
        domain, c, turn, slab = data.draw(_offset_domains(kind))
        hole = domain.holes[0]
        gap = reference_gap(domain, 0)
        d = data.draw(st.sampled_from((0.3, 0.5))) * gap
        curve = geom._dilated_hole(hole, d)
        assert geom._winding_many(curve, domain.witnesses)[0].tolist() \
            == [1, 0]
        points = curve.sample(512)
        scale = max(1.0, np.max(np.abs(points)))
        dist = hole.distance(points)
        assert dist.min() >= d * (1.0 - 1e-12)
        # no piece is cut so far that another part of the hole comes
        # nearer than d: every point lies at d exactly
        assert np.max(np.abs(dist - d)) <= 1e-12 * scale
        for other in (domain.outer, domain.holes[1]):
            assert other.distance(points).min() >= gap - d - 1e-12 * scale
        if slab is None:
            return
        # a pole of order k inside the slab: the moments of degree n are
        # 2 pi i C(n, k - 1) a^(n - k + 1), zero below k - 1
        k = data.draw(st.integers(1, 4))
        a = c + turn * complex(0.8 * slab[0] * (data.draw(_unit) - 0.5),
                               0.8 * slab[1] * (data.draw(_unit) - 0.5))
        a = complex(round(a.real, 4), round(a.imag, 4))
        f = expr.parse(f"1/(z-({a.real:.4f}{a.imag:+.4f}i))^{k}")
        vec = mom.moment_vector(f, curve, k + 2)
        want = [2j * math.pi * math.comb(n, k - 1) * a ** (n - k + 1)
                if n >= k - 1 else 0j for n in range(k + 3)]
        zero = mom.ZeroTolerance()
        assert all(abs(v - w) <= zero.bound(s)
                   for v, w, s in zip(vec.values, want, vec.scales()))
        assert vec.first_nonzero(zero) == k - 1
        verdict = mom.max_primitive_order(f, domain)
        assert (verdict.max_order, verdict.definitive) == (k - 1, True)

    @pytest.mark.parametrize("hole, segments", [
        (geom.rectangle(-1.3, 1.3, -0.1, 0.1), 8),
        (geom.polygon([0, 2, 2 + 0.5j, 0.5 + 0.5j, 0.5 + 2j, 2j]), 11),
        (geom.circle(1 + 1j, 0.5), 1),
        # a square with a half-disc bitten out of its top edge
        (geom.Path((geom.Line(0j, 2 + 0j), geom.Line(2 + 0j, 2 + 2j),
                    geom.Line(2 + 2j, 1.5 + 2j),
                    geom.Arc(1 + 2j, 0.5, 0.0, math.pi, ccw=False),
                    geom.Line(0.5 + 2j, 2j), geom.Line(2j, 0j))), 12),
        # a stadium: lines tangent to its arcs, so no corner arcs
        (geom.Path((geom.Line(0j, 2 + 0j),
                    geom.Arc(2 + 1j, 1.0, -math.pi / 2, math.pi / 2),
                    geom.Line(2 + 2j, 2j),
                    geom.Arc(1j, 1.0, math.pi / 2, 3 * math.pi / 2))), 4),
        # a mushroom: a stem meets its cap at two concave corners, cut
        # where the stem's offset lines cross the cap's offset circle
        (geom.Path((geom.Line(-0.3 - 2j, 0.3 - 2j),
                    geom.Line(0.3 - 2j, 0.3 - math.sqrt(0.91) * 1j),
                    geom.Arc(0j, 1.0, math.atan2(-math.sqrt(0.91), 0.3),
                             math.atan2(-math.sqrt(0.91), -0.3)),
                    geom.Line(-0.3 - math.sqrt(0.91) * 1j, -0.3 - 2j))), 6),
        # two overlapping discs, cut where their offset circles cross
        (geom.Path((geom.Arc(0.8 + 0j, 1.0, -math.atan2(0.6, -0.8),
                             math.atan2(0.6, -0.8)),
                    geom.Arc(-0.8 + 0j, 1.0, math.atan2(0.6, 0.8),
                             -math.atan2(0.6, 0.8)))), 2),
    ])
    def test_at_most_two_segments_per_hole_segment(self, hole, segments):
        # a line or an arc per segment and an arc per convex corner; a
        # curve sampled from the hole would have hundreds
        curve = geom._dilated_hole(hole, 0.2)
        assert len(curve.segments) == segments <= 2 * len(hole.segments)
        assert dilation_error(curve, hole, 0.2) <= 1e-12

    @pytest.mark.parametrize("t0", [0.3, 1.72, 1.8])
    def test_full_circle_stays_one_full_arc(self, t0):
        # a full circle's end angle t0 + 2 pi can round a hair past a full
        # turn, so an arc rebuilt from its end angles may cover almost none
        hole = geom.Path((geom.Arc(1 + 2j, 1.0, t0, t0),))
        (arc,) = geom._dilated_hole(hole, 0.5).segments
        assert arc.length == pytest.approx(3.0 * math.pi, rel=1e-15)
        assert arc.start == pytest.approx(hole.start + 0.5 * cmath.exp(1j * t0))

    def test_clockwise_arc_within_d_names_the_hole(self):
        # a 4 x 1 slab 0.5 inside its outer rectangle has no separating
        # circle, so its contours are dilations by 0.5 and 0.3 of its gap
        # of 0.5: the bite of radius 0.2 has none
        bitten = geom.Path((
            geom.Line(0j, 4 + 0j), geom.Line(4 + 0j, 4 + 1j),
            geom.Line(4 + 1j, 2.2 + 1j),
            geom.Arc(2 + 1j, 0.2, 0.0, math.pi, ccw=False),
            geom.Line(1.8 + 1j, 1j), geom.Line(1j, 0j)))
        domain = geom.DomainSpec(geom.rectangle(-0.5, 4.5, -0.5, 1.5),
                                 (bitten,))
        assert geom._hole_rules(domain)[0] == ()
        assert domain.gaps[0] == 0.5
        with pytest.raises(GeometryError,
                           match="hole 0 has no dilation by 0.5 of the gap: "
                                 "arc radius must be positive"):
            geom.homology_basis(domain)


# ---------------------------------------------------------------------------
# the hull by breadth-first search, kept as its reference: the outside cells
# that a path of 4-neighbours joins to an outside cell of the border escape

def _reference_hull(mask):
    ny, nx = mask.shape
    escape = np.zeros(mask.shape, dtype=bool)
    queue = deque((r, c) for r in range(ny) for c in range(nx)
                  if (r in (0, ny - 1) or c in (0, nx - 1)) and not mask[r, c])
    for r, c in queue:
        escape[r, c] = True
    while queue:
        r, c = queue.popleft()
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < ny and 0 <= cc < nx and not mask[rr, cc] \
                    and not escape[rr, cc]:
                escape[rr, cc] = True
                queue.append((rr, cc))
    return ~escape


def _spiral(n):
    """An n x n mask whose outside cells are one corridor, from the corner
    (0, 0) along the border and then inward to the centre."""
    mask = np.ones((n, n), dtype=bool)
    r = c = 0
    mask[0, 0] = False
    steps = [n - 1] + [k for k in range(n - 1, 0, -2) for _ in (0, 1)]
    for i, step in enumerate(steps):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        k = np.arange(1, step + 1)
        mask[r + dr * k, c + dc * k] = False
        r, c = r + dr * step, c + dc * step
    return mask


def _hull_mask(mask):
    ny, nx = mask.shape
    return geom.simply_connected_hull(
        geom.GridDomain((0, 1, 0, 1), nx, ny, mask)).mask


class TestRaster:
    def test_rasterize_annulus_counts(self, annulus):
        grid = geom.rasterize(annulus, 64)
        frac = grid.mask.mean()
        # area ratio (pi*4 - pi*0.25) / 16
        assert frac == pytest.approx((4 - 0.25) * math.pi / 16, rel=0.05)

    def test_hull_fills_hole(self, annulus):
        grid = geom.rasterize(annulus, 64)
        hull = geom.simply_connected_hull(grid)
        disc = geom.rasterize(geom.DomainSpec(geom.circle(0j, 2.0), ()), 64)
        assert np.array_equal(hull.mask, disc.mask)

    def test_hull_idempotent_and_contains(self, rng):
        for _ in range(3):
            mask = rng.random((48, 48)) > 0.4
            grid = geom.GridDomain((-1, 1, -1, 1), 48, 48, mask)
            h1 = geom.simply_connected_hull(grid)
            h2 = geom.simply_connected_hull(h1)
            assert np.all(h1.mask >= mask)
            assert np.array_equal(h1.mask, h2.mask)

    @settings(max_examples=100)
    @given(ny=st.integers(8, 64), nx=st.integers(8, 64),
           density=st.floats(0.2, 0.8), seed=st.integers(0, 2 ** 32 - 1))
    def test_hull_matches_breadth_first_search(self, ny, nx, density, seed):
        # density is the share of outside cells
        mask = np.random.default_rng(seed).random((ny, nx)) >= density
        assume(mask.any())
        hull = _hull_mask(mask)
        assert np.array_equal(hull, _reference_hull(mask))
        assert np.array_equal(_hull_mask(hull), hull)

    def test_hull_follows_a_spiral_corridor(self):
        # the whole corridor escapes; closed just after it leaves the
        # border, everything past the wall is filled
        mask = _spiral(255)
        assert np.array_equal(_hull_mask(mask), _reference_hull(mask))
        assert _hull_mask(mask).sum() == mask.sum()
        mask[2, 1] = True
        hull = _hull_mask(mask)
        assert np.array_equal(hull, _reference_hull(mask))
        # the border ring escapes, less its wall cell (1, 0)
        assert hull.sum() == mask.size - (4 * 254 - 1)

    def test_grid_refusals(self):
        mask = np.ones((8, 8), dtype=bool)
        with pytest.raises(GeometryError,
                           match="grid resolution must be at least 8"):
            geom.GridDomain((0, 1, 0, 1), 7, 8, mask[:, :7])
        with pytest.raises(GeometryError,
                           match="mask shape does not match resolution"):
            geom.GridDomain((0, 1, 0, 1), 8, 8, np.ones((8, 9), dtype=bool))
        with pytest.raises(GeometryError, match="empty bounding box"):
            geom.GridDomain((1, 1, 0, 1), 8, 8, mask)

    def test_rasterize_takes_columns_then_rows(self):
        grid = geom.rasterize(geom.DomainSpec(geom.circle(0j, 1.0), ()),
                              (16, 8))
        assert (grid.nx, grid.ny) == (16, 8)
        assert grid.mask.shape == (8, 16)

    def test_equal_grids_hash_alike(self, annulus):
        # objects that compare equal must hash equal; a grid is compared,
        # and hashed, by its identity
        a, b = geom.rasterize(annulus, 16), geom.rasterize(annulus, 16)
        assert np.array_equal(a.mask, b.mask)
        assert a != b or hash(a) == hash(b)
        assert len({a, b, a}) == 2

    def test_empty_mask_rejected(self):
        grid = geom.GridDomain((-1, 1, -1, 1), 16, 16,
                               np.zeros((16, 16), dtype=bool))
        with pytest.raises(GeometryError):
            geom.simply_connected_hull(grid)

    def test_unbounded_needs_bounds(self):
        d = geom.DomainSpec(None, (geom.circle(0j, 1.0),))
        with pytest.raises(GeometryError):
            geom.rasterize(d, 32)
        grid = geom.rasterize(d, 32, bounds=(-2, 2, -2, 2))
        assert grid.mask.any()


class TestSerialization:
    def test_roundtrip_mixed_path(self):
        p = geom.Path((
            geom.Arc(0j, 1.0, 0.0, math.pi),
            geom.Line(-1 + 0j, 1 + 0j),
        ))
        again = geom.path_from_json(geom.path_to_json(p))
        assert again.closed == p.closed
        assert again.length == pytest.approx(p.length)
        for t in (0.1, 0.5, 0.9):
            assert again.points_at(t) == pytest.approx(p.points_at(t))

    def test_full_circle_roundtrip(self):
        c = geom.circle(2 - 1j, 0.75)
        again = geom.path_from_json(geom.path_to_json(c))
        assert again.length == pytest.approx(c.length)

    def test_bad_kind_rejected(self):
        with pytest.raises(GeometryError):
            geom.segment_from_json({"kind": "bezier"})

    @pytest.mark.parametrize("segment, fields", [
        ({"kind": "arc", "center": [0, 0], "r": 0.5, "t0": 0,
          "t1": 6.283185307179586, "ccw": True, "radius": 9},
         "kind, center, r, t0, t1, ccw"),
        ({"kind": "line", "a": [0, 0], "b": [1, 0], "c": 5}, "kind, a, b"),
    ], ids=["arc", "line"])
    def test_unknown_segment_fields_rejected(self, segment, fields):
        # a key that the segment's kind does not read is not ignored
        kind, key = segment["kind"], list(segment)[-1]
        message = f"{kind} segment: unknown field '{key}' (choose from " \
            f"{fields})"
        with pytest.raises(GeometryError) as caught:
            geom.segment_from_json(segment)
        assert str(caught.value) == message
        known = {k: v for k, v in segment.items() if k != key}
        geom.segment_from_json(known)
        with pytest.raises(GeometryError, match=re.escape(message)):
            geom.path_from_json([known, segment])
