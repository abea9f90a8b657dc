import cmath
import functools
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envelope import expr
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

    def test_open_chain_detected(self):
        p = geom.Path((geom.Line(0j, 1 + 0j), geom.Line(1 + 0j, 1 + 1j)))
        assert not p.closed

    def test_discontinuous_chain_rejected(self):
        with pytest.raises(GeometryError):
            geom.Path((geom.Line(0j, 1 + 0j), geom.Line(2 + 0j, 3 + 0j)))

    def test_point_at_walks_by_arclength(self):
        c = geom.circle(0j, 1.0)
        assert c.point_at(0.25) == pytest.approx(1j)
        assert c.point_at(0.5) == pytest.approx(-1 + 0j)

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
            assert path.point_at(float(fractions[-1])) == got[-1]

    def test_reversed_swaps_endpoints(self):
        p = geom.Path((geom.Line(0j, 1 + 1j),))
        assert p.reversed().start == 1 + 1j

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
        assert annulus.bounded
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

    def test_one_winding_pass_per_boundary(self, two_hole, monkeypatch):
        calls = []
        kernel = geom._winding_many

        def spy(path, points):
            calls.append(path)
            return kernel(path, points)

        # interior points found beforehand: count the checks alone
        points = {id(path): geom.interior_point(path)
                  for path in two_hole.boundary_paths()}
        monkeypatch.setattr(geom, "interior_point",
                            lambda path: points[id(path)])
        monkeypatch.setattr(geom, "_winding_many", spy)
        geom.DomainSpec(two_hole.outer, two_hole.holes)
        assert sorted(map(id, calls)) \
            == sorted(map(id, two_hole.boundary_paths()))

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

    @pytest.mark.parametrize("holes", [
        # line-line: a cross of two slabs, no vertex of either on the other
        (geom.rectangle(0, 4, 0, 0.1), geom.rectangle(3, 3.1, -2.5, 1.5)),
        # line-arc: a slab through the unit circle, 0.001 from its samples
        (geom.circle(0j, 1.0), geom.rectangle(0.5, 3, -0.001, 0.001)),
        # arc-arc: two circles whose lens holds neither witness
        (geom.circle(0j, 1.0), geom.circle(1.9 + 0j, 1.0)),
    ])
    def test_crossing_holes_are_rejected(self, holes):
        with pytest.raises(GeometryError, match=r"boundary components 0 "
                                                r"and 1 touch \(gap 0\)"):
            geom.DomainSpec(geom.circle(0.5 + 1j, 5.0), holes)

    def test_holes_apart_are_accepted_without_a_crossing_test(
            self, monkeypatch):
        # the vertical slab stops 0.1 above the horizontal one, so no two
        # of their segments have meeting boxes; the outer circle's box
        # meets every segment, and each such pair is tested
        calls = []
        crossings = geom._crossings
        monkeypatch.setattr(geom, "_crossings", lambda p, q: calls.append(
            (p, q)) or crossings(p, q))
        holes = (geom.rectangle(0, 4, 0, 0.1), geom.rectangle(3, 3.1, 0.2, 1.5))
        geom.DomainSpec(None, holes)
        assert calls == []
        geom.DomainSpec(geom.circle(0.5 + 1j, 5.0), holes)
        assert len(calls) == 8

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

    def test_unbounded_domain(self):
        d = geom.DomainSpec(None, (geom.circle(0j, 1.0),))
        assert not d.bounded
        assert d.contains(5 + 0j)
        assert not d.contains(0j)

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
        witnesses = [geom.hole_witness(domain, j)
                     for j in range(len(domain.holes))]
        points = np.concatenate([drawn, *on, witnesses])
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
        for j, hole_points in enumerate(on[1:]):
            assert np.all(geom.classify(domain, hole_points).hole == j)
            assert np.all(geom.classify(domain, hole_points).on_boundary)
        assert not geom.classify(domain, on[0]).inside.any()
        assert list(geom.classify(domain, witnesses).hole) \
            == list(range(len(domain.holes)))

        # the envelope evaluation refuses the first point off the envelope
        # with the message of the reference locator
        verdict = mom.PrimitiveOrderVerdict(None, 0, True, "pole-certified",
                                            (), (), mom.ZeroTolerance())
        with pytest.raises(GeometryError) as want:
            reference_locate(domain, points)
        with pytest.raises(GeometryError) as got:
            ext.evaluate_extension_many(lambda z: z, domain, points,
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

    def test_whole_plane_has_no_boundary(self):
        where = geom.classify(geom.DomainSpec(None, ()), np.array([0j, 5j]))
        assert where.inside.all() and not where.on_boundary.any()
        assert np.all(where.hole == -1) and np.all(where.distance == math.inf)


def test_only_geometry_names_the_winding_kernel():
    # the sentinel and the kernel stay behind geometry.classify and
    # geometry.winding_number; tests may still use both as references
    source = Path(geom.__file__).parent
    names = re.compile(r"\b(_ON_PATH|_winding_many)\b")
    offenders = [f"{module.name}:{number}"
                 for module in sorted(source.glob("*.py"))
                 if module.name != "geometry.py"
                 for number, line in enumerate(
                     module.read_text().splitlines(), 1)
                 if names.search(line)]
    assert offenders == []


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
    hole = domain.holes[j]
    center = complex(np.mean(hole.sample(256)))
    lo = hole.max_distance(center)
    hi = min((p.distance(center) for p in _reference_others(domain, j)),
             default=math.inf)
    if not hi > lo * (1.0 + 1e-9):
        return None
    if math.isinf(hi):
        hi = 2.0 * lo if lo > 0 else 1.0
    return geom.circle(center, lo + frac * (hi - lo))


def reference_gap(domain, j):
    """Hole j's gap: the least distance from the segment starts and 256
    samples of the hole or of another boundary to the other one."""
    def probes(path):
        return np.append(path.sample(256), [s.start for s in path.segments])

    hole = domain.holes[j]
    gap = min((min(p.distance(probes(hole)).min(),
                   hole.distance(probes(p)).min())
               for p in _reference_others(domain, j)), default=math.inf)
    return gap if math.isfinite(gap) else 0.5 * hole.length / math.pi


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
    wits = [geom.hole_witness(domain, i) for i in range(len(domain.holes))]
    assert np.array_equal(geom._winding_many(got, wits)[0],
                          geom._winding_many(want, wits)[0])


def _reference_passes(domain, j, curve):
    wits = [geom.hole_witness(domain, i) for i in range(len(domain.holes))]
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


@pytest.fixture
def fresh_contours():
    """Empty contour caches before and after a test that patches or
    counts the contour work, so that it sees the work done and no other
    test reads a contour it chose."""
    for cache in (geom._hole_rule, geom._contour):
        cache.cache_clear()
    yield
    for cache in (geom._hole_rule, geom._contour):
        cache.cache_clear()


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
        assert geom._hole_rule(slab, 0) == ()
        basis = geom.homology_basis(slab)
        variants = geom.basis_curve_variants(slab, 0)
        gap = slab.gaps[0]
        assert gap == pytest.approx(0.3, abs=1e-12)
        assert [dilation_error(c, slab.holes[0], frac * gap) <= 1e-12
                for c, frac in zip(basis[:1] + list(variants),
                                   (0.5, 0.5, 0.3))] == [True] * 3
        assert variants[0] is basis[0]

    @pytest.mark.parametrize("kind", _BASIS_KINDS)
    @given(data=st.data())
    def test_admitted_circles_pass_the_basis_check(self, kind, data):
        # the annulus bound proves the circles admissible, so _hole_rule
        # runs no check of its own; the gaps are the reference's
        domain = data.draw(_basis_domains(kind))
        for j in range(len(domain.holes)):
            circles = geom._hole_rule(domain, j)
            assert not circles or geom._basis_curves_pass(domain, j, circles)
            assert domain.gaps[j] == reference_gap(domain, j)

    @pytest.mark.parametrize("name, dilations", [
        ("annulus", 0), ("two_hole", 0), ("shape_hole", 0), ("slab", 2)])
    def test_contours_reuse_what_the_domain_measured(
            self, request, name, dilations, monkeypatch, fresh_contours):
        # only a dilation is checked, once as it is built, and no gap is
        # measured again; the shape hole is an arrowhead, concave at -0.1i
        domain = geom.DomainSpec(geom.circle(0j, 3.0), (geom.polygon(
            [-0.5 - 0.5j, -0.1j, 0.5 - 0.5j, 0.5j]),)) \
            if name == "shape_hole" else request.getfixturevalue(name)
        calls = []
        for spied in ("_basis_curves_pass", "_gap"):
            real = getattr(geom, spied)
            monkeypatch.setattr(geom, spied, lambda *args, name=spied,
                                real=real: calls.append(name) or real(*args))
        geom.homology_basis(domain)
        for j in range(len(domain.holes)):
            geom.basis_curve_variants(domain, j)
        assert calls == ["_basis_curves_pass"] * dilations

    def test_witnesses_come_from_the_domain(self, two_hole, monkeypatch):
        monkeypatch.setattr(geom, "interior_point", None)
        assert [geom.hole_witness(two_hole, j) for j in range(2)] \
            == list(two_hole.witnesses)

    def test_failing_narrow_dilation_is_an_error(self, monkeypatch,
                                                 fresh_contours):
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
            assert d.contains(basis[0].point_at(float(t)))

    def test_witness_inside_hole(self, two_hole):
        for j, hole in enumerate(two_hole.holes):
            w = geom.hole_witness(two_hole, j)
            assert geom.winding_number(hole, w) == 1


_OFFSET_KINDS = ("slab", "L-shape", "regular", "circle")


@st.composite
def _offset_domains(draw, kind):
    """(domain, c, turn, slab): hole 0 of the kind about a centre c, turned
    by turn unless it is a circle (slab is the slab's (length, width), else
    None); hole 1 an axis-parallel square a short gap to its right; an
    axis-parallel rectangle around both. Every
    boundary but hole 0 is a polygon, so the measured gap is exact; a
    circle's nearest points to them lie at its sampled angles 0, pi/2, pi
    and 3 pi/2."""
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
        wits = [geom.hole_witness(domain, i) for i in range(2)]
        assert geom._winding_many(curve, wits)[0].tolist() == [1, 0]
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
        assert geom._hole_rule(domain, 0) == ()
        assert domain.gaps[0] == 0.5
        with pytest.raises(GeometryError,
                           match="hole 0 has no dilation by 0.5 of the gap: "
                                 "arc radius must be positive"):
            geom.homology_basis(domain)


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
            assert again.point_at(t) == pytest.approx(p.point_at(t))

    def test_full_circle_roundtrip(self):
        c = geom.circle(2 - 1j, 0.75)
        again = geom.path_from_json(geom.path_to_json(c))
        assert again.length == pytest.approx(c.length)

    def test_bad_kind_rejected(self):
        with pytest.raises(GeometryError):
            geom.segment_from_json({"kind": "bezier"})
