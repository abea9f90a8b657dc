"""Sampled-curve machinery: towers, transforms, chord-arc geometry."""

import cmath
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from envelope import boundary as bd
from envelope import expr
from envelope import geometry as geom
from envelope import moments as mom
from envelope import quadrature as quad
from envelope.errors import (CurveDataError, GeometryError,
                             NonFiniteIntegrandError)


def circle_curve(data_fn, intervals=256, warp_amplitude=0.0):
    return bd.unit_circle_samples(data_fn, intervals, warp_amplitude)


def csv_text(intervals=32):
    t = np.linspace(0.0, 1.0, intervals + 1)
    z = np.exp(2j * math.pi * t)
    z[-1] = z[0]
    g = np.conj(z)
    lines = ["# t, re(z), im(z), re(g), im(g)"]
    for row in zip(t, z.real, z.imag, g.real, g.imag):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


class TestSampledCurve:
    def test_validation_rejects_mismatched_lengths(self):
        t = np.linspace(0, 1, 33)
        z = np.exp(2j * math.pi * t)
        with pytest.raises(CurveDataError, match="equal"):
            bd.SampledCurve(t, z, z[:-1])

    def test_validation_rejects_too_few_nodes(self):
        t = np.linspace(0, 1, 9)
        z = np.exp(2j * math.pi * t)
        z[-1] = z[0]
        with pytest.raises(CurveDataError, match="at least"):
            bd.SampledCurve(t, z, z)

    def test_validation_rejects_nonmonotone_params(self):
        t = np.linspace(0, 1, 33)
        t[5] = t[7]
        z = np.exp(2j * math.pi * t)
        z[-1] = z[0]
        with pytest.raises(CurveDataError, match="increase"):
            bd.SampledCurve(t, z, z)

    def test_validation_rejects_open_curve(self):
        t = np.linspace(0, 1, 33)
        z = np.exp(1j * math.pi * t)
        with pytest.raises(CurveDataError, match="closed"):
            bd.SampledCurve(t, z, z)

    def test_validation_rejects_bad_param_range(self):
        t = np.linspace(0.1, 1.0, 33)
        z = np.exp(2j * math.pi * t)
        z[-1] = z[0]
        with pytest.raises(CurveDataError, match="0 to 1"):
            bd.SampledCurve(t, z, z)

    @pytest.mark.parametrize("field", ["params", "points", "values"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_rejects_non_finite_samples(self, field, bad):
        c = circle_curve(lambda z: z, 32)
        arrays = {"params": c.params.copy(), "points": c.points.copy(),
                  "values": c.values.copy()}
        arrays[field][5] = bad
        with pytest.raises(CurveDataError, match="finite"):
            bd.SampledCurve(**arrays)

    @pytest.mark.parametrize("scale, refused", [
        (geom.MAX_COORDINATE, False), (1.01 * geom.MAX_COORDINATE, True)])
    def test_validation_bounds_the_coordinates(self, scale, refused):
        # as for the coordinates of a scenario, so that squared distances
        # of the polyline stay inside the float range
        c = circle_curve(lambda z: z, 32)
        points = c.points / np.abs(c.points).max() * scale
        points[-1] = points[0]
        if refused:
            with pytest.raises(CurveDataError, match="may not exceed"):
                bd.SampledCurve(c.params, points, c.values)
        else:
            bd.SampledCurve(c.params, points, c.values)

    def test_geometry_helpers(self):
        c = circle_curve(lambda z: z, 256)
        assert c.intervals == 256
        assert c.perimeter() == pytest.approx(2 * math.pi, rel=1e-3)
        assert c.max_reach() == pytest.approx(1.0, abs=1e-12)
        spacing = c.local_spacing(1.0 + 0j)
        assert spacing == pytest.approx(2 * math.pi / 256, rel=1e-3)


class TestSampling:
    def test_sample_path_forces_closure(self):
        c = bd.sample_path(geom.circle(0j, 1.0), lambda z: z, 64)
        assert c.points[-1] == c.points[0]
        assert c.path is not None and c.data_fn is not None

    @pytest.mark.parametrize("data_fn, vectorized", [
        (lambda z: 1.0, np.ones_like), (cmath.exp, np.exp)],
        ids=["constant", "scalar-only"])
    def test_sample_path_reads_data_as_integrals_do(self, data_fn,
                                                    vectorized):
        # a constant answer fills every node, and a callable that refuses
        # the node array is called point by point, as integrate reads them
        path = geom.Path((geom.Arc(0.3j, 1.2, 0.0, math.pi),
                          geom.Line(-1.2 + 0.3j, 1.2 + 0.3j)))
        got, want = (bd.sample_path(path, fn, 64, bd.odd_warp(0.3))
                     for fn in (data_fn, vectorized))
        assert got.values.dtype == complex
        assert got.values.tobytes() == want.values.tobytes()
        assert got.points.tobytes() == want.points.tobytes()

    def test_sample_path_rejects_open_path(self):
        arc = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi),), closed=False)
        with pytest.raises(CurveDataError, match="closed"):
            bd.sample_path(arc, lambda z: z, 64)

    def test_bad_warp_rejected(self):
        path = geom.circle(0j, 1.0)
        with pytest.raises(CurveDataError, match="warp"):
            bd.sample_path(path, lambda z: z, 64, warp=lambda u: 1.0 - u)
        with pytest.raises(CurveDataError, match="warp"):
            bd.sample_path(path, lambda z: z, 64, warp=lambda u: 0.5 * u)

    def test_odd_warp_fixes_endpoints(self):
        w = bd.odd_warp(0.3)
        assert w(0.0) == pytest.approx(0.0, abs=1e-15)
        assert w(1.0) == pytest.approx(1.0, abs=1e-12)
        u = np.linspace(0, 1, 100)
        assert np.all(np.diff([w(v) for v in u]) > 0)

    def test_odd_warp_maps_arrays(self):
        # sample_path warps its whole parameter array in one call; the
        # array map is the scalar formula to within 2 ulps
        u = np.linspace(0.0, 1.0, 4097)
        for amplitude in (0.05, 0.3, 0.9):
            want = np.array([v + amplitude * math.sin(2.0 * math.pi * v)
                             / (2.0 * math.pi) for v in u])
            got = bd.odd_warp(amplitude)(u)
            assert got.shape == u.shape
            assert np.all(np.abs(got - want)
                          <= 2 * np.spacing(np.abs(want)))

    def test_odd_warp_amplitude_validated(self):
        with pytest.raises(ValueError):
            bd.odd_warp(1.5)

    def test_csv_roundtrip(self):
        c = bd.curve_from_csv(csv_text(32))
        assert c.intervals == 32
        assert c.path is None
        assert c.perimeter() == pytest.approx(2 * math.pi, rel=1e-2)

    def test_csv_from_handle(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text(csv_text(32))
        with open(p) as handle:
            c = bd.curve_from_csv(handle)
        assert c.intervals == 32

    def test_csv_under_the_cap_allocates_its_rows_only(self, tmp_path):
        # loadtxt's max_rows would allocate all MAX_NODES + 2 rows up front
        # (2.5 MB); a file too short to pass the cap is read without it
        p = tmp_path / "curve.csv"
        p.write_text(csv_text(256))
        with open(p) as handle:
            tracemalloc.start()
            try:
                c = bd.curve_from_csv(handle)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert c.intervals == 256
        assert peak < 0.5e6

    @pytest.mark.parametrize("column", [1, 3], ids=["node", "data"])
    def test_csv_nan_rejected(self, column):
        # a NaN node once escaped as a ValueError from an integer
        # conversion, and NaN data read as closing defects that disagree
        rows = csv_text(32).splitlines()
        cells = rows[4].split(",")
        cells[column] = "nan"
        rows[4] = ",".join(cells)
        with pytest.raises(CurveDataError, match="finite"):
            bd.curve_from_csv("\n".join(rows) + "\n")

    def test_intervals_are_capped(self, monkeypatch):
        monkeypatch.setattr(bd, "MAX_NODES", 32)
        assert bd.curve_from_csv(csv_text(32)).intervals == 32
        with pytest.raises(CurveDataError, match="at most 32 intervals"):
            bd.curve_from_csv(csv_text(33))
        t = np.linspace(0.0, 1.0, 34)
        z = np.exp(2j * math.pi * t)
        z[-1] = z[0]
        with pytest.raises(CurveDataError, match="at most 32 intervals"):
            bd.SampledCurve(t, z, z)

    def test_csv_wrong_width_rejected(self):
        with pytest.raises(CurveDataError, match="5 columns"):
            bd.curve_from_csv(io.StringIO("0,1\n0.5,2\n1,1\n"))


class TestMomentsAndTower:
    def test_moment_oracle_reciprocal(self):
        # vanishing moments cancel exactly on uniform circle samples, but
        # the nonzero one carries the O(M^-2) chord-vs-arc factor
        c = circle_curve(np.reciprocal, 256)
        assert bd.boundary_moment(c, 0) == pytest.approx(2j * math.pi,
                                                         rel=1e-3)
        assert abs(bd.boundary_moment(c, 1)) < 1e-12

    def test_moment_degree_validated(self):
        c = circle_curve(lambda z: z, 64)
        with pytest.raises(ValueError):
            bd.boundary_moment(c, -1)

    def test_analytic_moment_matches_discrete(self):
        c = circle_curve(np.reciprocal, 256)
        analytic = mom.moment(c.data_fn, c.path, 0)
        assert analytic == pytest.approx(bd.boundary_moment(c, 0), rel=1e-3)
        assert analytic == pytest.approx(2j * math.pi, abs=1e-10)

    @pytest.mark.parametrize("fn,depth", [
        (lambda z: z ** 2, 4),
        (lambda z: np.reciprocal(z), 0),
        (lambda z: np.reciprocal(z) ** 3, 2),
        (np.conj, 0),
    ])
    def test_tower_depth_oracles(self, fn, depth):
        res = bd.primitive_tower(circle_curve(fn, 256))
        assert res.pass_depth == depth
        assert res.leading_zero_count == depth
        assert res.duality_consistent

    def test_tower_defect_scale_for_conjugate(self):
        res = bd.primitive_tower(circle_curve(np.conj, 256))
        # circuit of conj(z) dz over the unit circle is 2 pi i
        assert res.levels[0].closing_defect == pytest.approx(2 * math.pi,
                                                             rel=1e-3)

    def test_tower_level_count_validated(self):
        with pytest.raises(ValueError):
            bd.primitive_tower(circle_curve(np.conj, 64), levels=0)

    @given(inside_order=st.integers(0, 4),
           inside=st.complex_numbers(max_magnitude=0.5),
           outside=st.lists(st.tuples(st.floats(1.6, 3.0),
                                      st.floats(0.0, 2 * math.pi),
                                      st.integers(1, 2)), max_size=2),
           poly_degree=st.integers(0, 3),
           phase=st.floats(0.0, 2 * math.pi))
    def test_depth_matches_pole_order_count(self, inside_order, inside,
                                            outside, poly_degree, phase):
        # a pole of order m inside the unit circle makes the degree m-1
        # moment the first nonzero one; poles outside and polynomial terms
        # leave every moment zero
        coef = np.exp(1j * phase)
        terms = [lambda z: coef * z ** poly_degree]
        for radius, angle, order in outside:
            q = radius * np.exp(1j * angle)
            terms.append(lambda z, q=q, m=order: coef / (z - q) ** m)
        if inside_order:
            terms.append(lambda z: coef / (z - inside) ** inside_order)
        res = bd.primitive_tower(circle_curve(
            lambda z: sum(t(z) for t in terms), 256))
        expected = inside_order - 1 if inside_order else 4
        assert res.pass_depth == res.leading_zero_count == expected

    def test_overflowing_data_is_refused(self):
        # every tower level, trapezoid sum and moment scale past the float
        # range is refused: none of them may pass a zero test
        big = bd.SampledCurve(*(getattr(circle_curve(np.conj, 64), name)
                                for name in ("params", "points")),
                              np.full(65, 1.5e308 + 0j))
        with pytest.raises(CurveDataError, match="^tower level 1 leaves"):
            bd.primitive_tower(big)
        with pytest.raises(CurveDataError, match="^a trapezoid sum"):
            bd.boundary_moment(big, 0)
        with pytest.raises(CurveDataError, match="^the discrete Cauchy sum"):
            bd.cauchy_transform(big, 0.1j)
        with pytest.raises(CurveDataError, match="^tower level 1 leaves"):
            bd.difference_quotient_check(big, 0, 1.0)
        far = bd.sample_path(geom.circle(0j, 1e120), np.reciprocal, 64)
        assert len(bd.tower_functions(far, 3)) == 4
        with pytest.raises(CurveDataError, match="^tower level 4 leaves"):
            bd.tower_functions(far, 4)
        # the degree-8 moment, 1e307 at most, is finite; its scale
        # 2 pi 10 * 1e299 * 10^8 is not
        flat = bd.sample_path(geom.circle(0j, 10.0), np.ones_like, 64)
        with pytest.raises(CurveDataError, match="scale of degree 8, "):
            bd.nontangential_check(bd.SampledCurve(
                flat.params, flat.points, 1e299 * flat.values), radii=(6.0,))

    def test_tower_functions_shape(self):
        c = circle_curve(lambda z: z, 64)
        funcs = bd.tower_functions(c, 3)
        assert len(funcs) == 4
        assert np.array_equal(funcs[0], c.values)


class TestIntegrationByParts:
    def test_discrete_residual_halves_quadratically(self):
        # odd warp defeats the aliasing that hides the trapezoid error
        res = []
        for m in (256, 512):
            c = circle_curve(np.conj, m, warp_amplitude=0.3)
            res.append(bd.ibp_residual(c))
        ratio = res[0] / res[1]
        assert 3.5 < ratio < 4.5

    def test_level_validated(self):
        with pytest.raises(ValueError):
            bd.ibp_residual(circle_curve(np.conj, 64), level=0)

    def test_analytic_residual_is_tiny(self):
        c = circle_curve(np.conj, 64)
        assert bd.analytic_ibp_residual(c) < 1e-9

    @given(kind=st.sampled_from(["power", "pole-inside", "pole-outside",
                                 "conj"]),
           center=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           radius=st.floats(0.8, 1.2), order=st.integers(0, 3),
           spot=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)),
           coef=st.tuples(st.floats(0.5, 1.5), st.floats(0.0, 2 * math.pi)))
    def test_analytic_residual_on_generated_circles(self, kind, center,
                                                    radius, order, spot,
                                                    coef):
        # powers, poles of order 1 to 3 inside (at most 0.4 R from the
        # center) and outside (2.5 R to 3 R away), and conj(z)
        c = complex(*center)
        a = coef[0] * np.exp(1j * coef[1])
        reach = 0.4 * spot[0] if kind == "pole-inside" else 2.5 + 0.5 * spot[0]
        q = c + reach * radius * np.exp(1j * spot[1])

        def power(z):
            return a * z ** order

        def pole(z):
            return a / (z - q) ** max(order, 1)

        fn = {"power": power, "conj": np.conj}.get(kind, pole)
        curve = bd.sample_path(geom.circle(c, radius), fn, 64)
        assert bd.analytic_ibp_residual(curve) <= 1e-12

    def test_analytic_residual_needs_path(self):
        c = bd.curve_from_csv(csv_text(32))
        with pytest.raises(CurveDataError, match="path"):
            bd.analytic_ibp_residual(c)

    def test_equivalence_report_bundles_everything(self):
        rep = bd.boundary_duality(circle_curve(np.reciprocal, 128))
        assert rep.tower.pass_depth == 0
        assert rep.tower.leading_zero_count == 0
        assert rep.tower.duality_consistent
        assert len(rep.ibp_residuals) == 4
        assert rep.analytic_ibp is not None and rep.analytic_ibp < 1e-9

    def test_equivalence_reuses_the_tower(self):
        c = circle_curve(np.conj, 128, warp_amplitude=0.3)
        rep = bd.boundary_duality(c)
        assert len(rep.tower.functions) == 5
        assert rep.ibp_residuals == tuple(bd.ibp_residual(c, lv)
                                          for lv in range(1, 5))

    def test_equivalence_refuses_a_non_finite_running_primitive(
            self, late_nan):
        # the samples are finite, and so is the data at every node the
        # adaptive pass evaluates; the running primitive's node rules meet
        # NaN, which is refused rather than reported as analytic_ibp nan
        samples = circle_curve(np.reciprocal, 128)
        c = bd.SampledCurve(samples.params, samples.points, samples.values,
                            path=geom.circle(0j, 1.0), data_fn=late_nan)
        for route in (bd.analytic_ibp_residual, bd.boundary_duality):
            with pytest.raises(NonFiniteIntegrandError):
                route(c)

    def test_equivalence_skips_analytic_without_path(self):
        rep = bd.boundary_duality(bd.curve_from_csv(csv_text(32)))
        assert rep.analytic_ibp is None


def polyline_only(curve):
    """The samples of a path-backed curve without its path and data, so the
    transform takes the discrete route."""
    return bd.SampledCurve(curve.params, curve.points, curve.values)


class TestCauchyTransform:
    def test_discrete_reproduces_polynomial(self):
        c = polyline_only(circle_curve(lambda z: z ** 2, 1024))
        w = 0.3 + 0.2j
        assert abs(bd.cauchy_transform(c, w) - w ** 2) < 1e-5

    def test_analytic_reproduces_polynomial(self):
        c = circle_curve(lambda z: z ** 2, 64)
        w = 0.3 + 0.2j
        got = bd.cauchy_transform(c, w)
        assert abs(got - w ** 2) < 1e-12

    def test_antiholomorphic_data_transforms_to_zero(self):
        c = circle_curve(np.conj, 64)
        assert abs(bd.cauchy_transform(c, 0.4 - 0.1j)) < 1e-12

    def test_discrete_refuses_near_curve(self):
        c = polyline_only(circle_curve(lambda z: z, 256))
        with pytest.raises(CurveDataError, match="spacing"):
            bd.cauchy_transform(c, 0.999 + 0j)

    def test_refuses_outside_point(self):
        c = circle_curve(lambda z: z, 64)
        with pytest.raises(GeometryError, match="enclosed"):
            bd.cauchy_transform(c, 2.0 + 0j)

    def test_auto_prefers_analytic_when_available(self):
        c = circle_curve(lambda z: z ** 3, 64)
        w = 0.1 + 0.5j
        assert abs(bd.cauchy_transform(c, w) - w ** 3) < 1e-12


    @pytest.mark.parametrize("path, w", [
        (geom.circle(0j, 1.0), np.exp(0.3j)),
        (geom.rectangle(-1, 1, -1, 1), 0.3 + 1j),
        (geom.rectangle(-1, 1, -1, 1), 1 + 0j),
    ])
    def test_points_on_the_path_are_refused(self, path, w):
        c = bd.sample_path(path, lambda z: z ** 2, 64)
        with pytest.raises(GeometryError, match="enclosed"):
            bd.cauchy_transform(c, w)

    @pytest.mark.parametrize("route", [lambda c: c, polyline_only])
    def test_points_within_the_band_are_refused(self, route):
        # 1e-10 inside the node at 1, within the band (6.3e-9) of both the
        # circle and its polyline, so on the curve either way; the discrete
        # route refuses it before its node-spacing test
        c = route(circle_curve(lambda z: z, 256))
        with pytest.raises(GeometryError, match="not enclosed once"):
            bd.cauchy_transform(c, 1 - 1e-10 + 0j)

    def test_a_repeated_node_is_a_chord_of_length_zero(self):
        # its distance is to the node, with no 0/0 (which the suite would
        # raise as an error)
        c = circle_curve(lambda z: z ** 2, 256)
        points = c.points.copy()
        points[10] = points[9]
        c = bd.SampledCurve(c.params, points, c.values)
        w = 0.1 + 0.2j
        assert abs(bd.cauchy_transform(c, w) - w ** 2) < 1e-3

    @pytest.mark.parametrize("route", [lambda c: c, polyline_only])
    def test_non_finite_points_are_refused(self, route):
        c = route(circle_curve(lambda z: z, 64))
        with pytest.raises(GeometryError, match=r"\(nan\+0j\) is not finite"):
            bd.cauchy_transform(c, complex("nan"))
        with pytest.raises(GeometryError, match=r"\(inf\+0j\) is not finite"):
            bd.cauchy_transform(c, np.array([0.1, complex("inf")]))


def stadium(half: float, radius: float) -> geom.Path:
    """Two lines joined by two half circles: a smooth, ellipse-like curve
    about 0, reaching half + radius from it."""
    top, bottom = radius * 1j, -radius * 1j
    return geom.Path((
        geom.Line(bottom - half, bottom + half),
        geom.Arc(complex(half), radius, -math.pi / 2, math.pi / 2),
        geom.Line(top + half, top - half),
        geom.Arc(complex(-half), radius, math.pi / 2, 3 * math.pi / 2)),
        closed=True)


# (path, center, reach, inner): a circle or a stadium about center, whose
# points lie between inner and reach from it
CURVES = st.one_of(
    st.builds(lambda x, y, r: (geom.circle(complex(x, y), r), complex(x, y),
                               r, r),
              st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.5, 2)),
    st.builds(lambda h, r: (stadium(h, r), 0j, h + r, r),
              st.floats(0.2, 1.0), st.floats(0.5, 1.0)))


def outside_poles(center, reach, poles, degree):
    """A polynomial of the given degree plus simple and double poles at
    (distance, angle, order, coefficient phase) with distance in units of
    reach from center, all at least 2 reach away."""
    def fn(z):
        out = z ** degree
        for dist, angle, order, phase in poles:
            q = center + dist * reach * np.exp(1j * angle)
            out = out + np.exp(1j * phase) * reach ** order / (z - q) ** order
        return out
    return fn


def approach(path: geom.Path, fraction: float, dist: float) -> complex:
    """The point dist along the inward normal of the path at an arclength
    fraction."""
    z, v = path.arrays.nodes(*path.locate(np.array([fraction])))
    return complex(z[0] + dist * 1j * v[0] / abs(v[0]))


def plain_transform(fn, path: geom.Path, w: complex) -> complex:
    """(1/2 pi i) of the adaptive integral of fn(z)/(z - w) dz."""
    value = quad.integrate(lambda z: fn(z) / (z - w), path).value
    return value / (2j * math.pi)


POLES = st.lists(st.tuples(st.floats(2.0, 3.0), st.floats(0.0, 2 * math.pi),
                           st.integers(1, 2), st.floats(0.0, 2 * math.pi)),
                 max_size=2)


class TestSubtractedTransform:
    @given(curve=CURVES, poles=POLES, degree=st.integers(0, 3),
           fraction=st.floats(0.0, 1.0), exponent=st.floats(-8.0, -1.0))
    @example(curve=(geom.circle(0j, 1.0), 0j, 1.0, 1.0),
             poles=[(2.0, 0.0, 2, 0.0)], degree=3, fraction=0.0,
             exponent=-8.0)
    def test_reproduces_holomorphic_data_near_the_curve(
            self, curve, poles, degree, fraction, exponent):
        # g holomorphic inside and near the curve: the transform is g(w) at
        # distances 1e-8 to 1e-1 along the inward normal, where the plain
        # kernel runs out of panels by 1e-8
        path, center, reach, _ = curve
        fn = outside_poles(center, reach, poles, degree)
        w = approach(path, fraction, 10.0 ** exponent * reach)
        got = bd.cauchy_transform(bd.sample_path(path, fn, 64), w)
        assert abs(got - fn(w)) <= 1e-11

    @given(curve=CURVES, poles=POLES, degree=st.integers(0, 3),
           spots=st.lists(st.tuples(st.floats(0.0, 1.0),
                                    st.floats(-8.0, -0.5)),
                          min_size=2, max_size=5))
    def test_one_stacked_call_equals_one_point_calls(self, curve, poles,
                                                     degree, spots):
        path, center, reach, _ = curve
        c = bd.sample_path(path, outside_poles(center, reach, poles, degree),
                           64)
        points = np.array([approach(path, f, 10.0 ** e * reach)
                           for f, e in spots])
        stacked = bd.cauchy_transform(c, points)
        assert stacked.shape == points.shape
        for w, v in zip(points, stacked):
            assert abs(v - bd.cauchy_transform(c, w)) <= 1e-12
        discrete = polyline_only(bd.sample_path(path, np.exp, 1024))
        middle = np.array([center, center + 0.1 * reach])
        for w, v in zip(middle, bd.cauchy_transform(discrete, middle)):
            assert abs(v - bd.cauchy_transform(discrete, w)) <= 1e-12

    @given(curve=CURVES, angle=st.floats(0.0, 2 * math.pi),
           depth=st.floats(0.3, 0.9), phase=st.floats(0.0, 2 * math.pi))
    def test_far_points_keep_the_plain_kernel(self, curve, angle, depth,
                                              phase):
        # farther from the path than 2% of its length: the same float as
        # the plain integral
        path, center, reach, inner = curve
        fn = outside_poles(center, reach, [(2.5, angle, 2, phase)], 2)
        w = center + depth * 0.3 * inner * np.exp(1j * phase)
        assert path.distance(w) > bd.SUBTRACT_REACH * path.length
        c = bd.sample_path(path, fn, 64)
        assert bd.cauchy_transform(c, w) == plain_transform(fn, path, w)

    @given(angle=st.floats(0.0, 2 * math.pi), turn=st.floats(0.0, 2 * math.pi),
           coef=st.floats(0.5, 1.5))
    def test_large_data_near_the_curve_keeps_the_plain_kernel(
            self, angle, turn, coef):
        # 1e-3 from a pole of order 3 at 0.9 on the unit circle: w is near
        # the curve, but eps |g(w)| ~ 2e-7 exceeds the tolerance, and the
        # transform is the same float as the plain integral
        p = 0.9 * np.exp(1j * angle)
        w = p + 1e-3 * np.exp(1j * turn)

        def fn(z):
            return coef / (z - p) ** 3

        c = circle_curve(fn, 64)
        assert c.path.distance(w) <= bd.SUBTRACT_REACH * c.path.length
        assert bd.cauchy_transform(c, w) == plain_transform(fn, c.path, w)

    def test_nontangential_evaluations_stay_bounded(self):
        # every point of g the check evaluates, moments included, against
        # one plain adaptive integral of g(z)/(z - w) per radius
        def g(z):
            return 1 / (z - (1.6 + 0.3j)) ** 2 + z ** 3

        seen = []
        curve = circle_curve(lambda z: seen.append(np.size(z)) or g(z), 256)
        seen.clear()
        rep = bd.nontangential_check(curve)
        assert rep.expected_match
        assert sum(seen) <= 1500
        plain = sum(quad.integrate(lambda z, w=w: g(z) / (z - w),
                                   curve.path).evaluations
                    for w in rep.approach_points)
        assert plain > 6000

    @pytest.mark.parametrize("fn", [np.conj, lambda z: z ** 2])
    def test_expected_match_ignores_the_transform(self, fn, monkeypatch):
        # a transform that returns the boundary value everywhere moves the
        # measured outcome, never the expected one
        c = circle_curve(fn, 256)
        expected = bd.nontangential_check(c).expected_match
        monkeypatch.setattr(bd, "cauchy_transform", lambda curve, w, tol: (
            np.full(np.shape(w), curve.values[0])))
        rep = bd.nontangential_check(c)
        assert rep.matches_boundary
        assert rep.expected_match == expected


class TestNontangential:
    def test_polynomial_data_matches_boundary(self):
        c = circle_curve(lambda z: z ** 2, 512)
        rep = bd.nontangential_check(c, node_index=0)
        assert rep.matches_boundary
        assert rep.expected_match
        assert rep.consistent
        assert rep.residuals[-1] < rep.residuals[0]

    def test_conjugate_data_fails_as_expected(self):
        c = circle_curve(np.conj, 512)
        rep = bd.nontangential_check(c, node_index=0)
        assert not rep.matches_boundary
        assert not rep.expected_match
        assert rep.consistent

    def test_warped_holomorphic_data_is_consistent(self):
        # the trapezoid moments of a warped sample are O(M^-2), far above
        # the zero tolerance; the analytic route's moments are not
        c = circle_curve(lambda z: 0.7 * z ** 2, 512, warp_amplitude=0.3)
        assert abs(bd.boundary_moment(c, 1)) > 1e-8
        rep = bd.nontangential_check(c, node_index=3)
        assert rep.matches_boundary
        assert rep.expected_match
        assert rep.consistent

    def test_repeated_node_has_no_tangent(self):
        c = circle_curve(lambda z: z ** 2, 32)
        points = c.points.copy()
        points[4] = points[3]
        c = bd.SampledCurve(c.params, points, c.values)
        with pytest.raises(CurveDataError,
                           match="degenerate chord at the requested node"):
            bd.nontangential_check(c, node_index=4)

    def test_zero_tolerance_decides_expected_match(self):
        # moments of 1/(z - 0.2) are 2 pi i 0.2^k, zero only at abs_tol 100
        c = circle_curve(lambda z: 1 / (z - 0.2), 256)
        assert not bd.nontangential_check(c).expected_match
        loose = mom.ZeroTolerance(abs_tol=100.0)
        assert bd.nontangential_check(c, zero_tol=loose).expected_match

    def test_csv_curve_expects_from_discrete_moments(self):
        t = np.linspace(0.0, 1.0, 129)
        z = np.exp(2j * math.pi * t)
        z[-1] = z[0]
        c = bd.SampledCurve(t, z, z ** 2)
        rep = bd.nontangential_check(c, radii=(0.5, 0.4))
        assert rep.expected_match

    def test_corner_node_rejected(self):
        path = geom.rectangle(-1, 1, -1, 1)
        c = bd.sample_path(path, lambda z: z, 64)
        with pytest.raises(CurveDataError, match="corner"):
            bd.nontangential_check(c, node_index=0)

    def test_radii_must_not_be_empty(self):
        c = circle_curve(lambda z: z, 256)
        with pytest.raises(ValueError, match="radius"):
            bd.nontangential_check(c, radii=())

    @pytest.mark.parametrize("radii", [(math.nan,), (0.1, 0.0),
                                       (0.1, -1e-3), (math.inf, 0.1)])
    def test_radii_must_be_finite_and_positive(self, radii):
        c = circle_curve(lambda z: z, 128)
        with pytest.raises(ValueError, match="finite and positive"):
            bd.nontangential_check(c, radii=radii)

    def test_radii_must_decrease(self):
        c = circle_curve(lambda z: z, 128)
        with pytest.raises(ValueError, match="decrease"):
            bd.nontangential_check(c, radii=(1e-3, 1e-2))

    def test_node_index_validated(self):
        c = circle_curve(lambda z: z, 64)
        with pytest.raises(CurveDataError, match="range"):
            bd.nontangential_check(c, node_index=64)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 6 (discretization-aware zero "
                       "tests): MATCH_TOL does not scale with the data")
    def test_fifth_power_matches_boundary(self):
        # the residual of holomorphic data at radius r is about r |g'|,
        # 5 * 5e-5 = 2.5e-4 for z^5 at the smallest radius, past the fixed
        # MATCH_TOL of 1e-4, though the data extend holomorphically
        c = bd.sample_path(geom.circle(0j, 1.0), expr.parse("z^5"), 256)
        assert bd.nontangential_check(c, 0).consistent


def chord_arc_offsets_reference(curve):
    """The offset loop: node i meets node i + k mod M for k = 1 .. M/2, one
    offset at a time, with the exact formula of the pruned search."""
    pts = curve.points[:-1]
    gaps = np.abs(curve.chords())
    s = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    total = float(np.sum(gaps))
    floor = 1e-12 * (float(np.max(np.abs(pts))) or 1.0)
    m = len(pts)
    pts_twice, s_twice = np.concatenate((pts, pts)), np.concatenate((s, s))
    worst = 0.0
    for k in range(1, m // 2 + 1):
        chord = np.abs(pts_twice[k:k + m] - pts)
        if np.min(chord) < floor:
            raise CurveDataError("coincident nodes make the chord-arc ratio "
                                 "unbounded")
        ds = np.abs(s_twice[k:k + m] - s)
        worst = max(worst, float(np.max(np.minimum(ds, total - ds) / chord)))
    return worst


def pinched_curve(nodes, gap=1e-3, center=0j, turn=0.0):
    """A closed curve of diameter about 2 whose upper and lower halves come
    within gap times the diameter of each other at x = 0."""
    t = np.linspace(0.0, 1.0, nodes + 1)
    theta = 2 * math.pi * t
    y = np.sin(theta) * (gap + (1.0 - gap) * np.abs(np.cos(theta)))
    pts = center + np.exp(1j * turn) * (np.cos(theta) + 1j * y)
    pts[-1] = pts[0]
    return bd.SampledCurve(t, pts, np.ones_like(pts))


def chord_arc_reference(curve):
    """Every node pair at once, in dense M x M arrays."""
    pts = curve.points[:-1]
    gaps = np.abs(curve.chords())
    s = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    total = float(np.sum(gaps))
    ds = np.abs(s[:, None] - s[None, :])
    arc = np.minimum(ds, total - ds)
    chord = np.abs(pts[:, None] - pts[None, :])
    off = ~np.eye(len(pts), dtype=bool)
    return float(np.max(arc[off] / chord[off]))


def bounded_curve(shape, nodes, seed):
    """A rippled and warped circle, a pinched curve, a circle with three
    pairs of nodes pulled together, or a square, whose corners make the
    turning bound exact for the pairs around them."""
    rng = np.random.default_rng(seed)
    if shape == "square":
        return bd.sample_path(geom.rectangle(-1.0, 1.0, -0.5, 0.5),
                              lambda z: z, nodes)
    if shape == "pinched":
        return pinched_curve(nodes, 10 ** rng.uniform(-3, -1))
    t = np.linspace(0.0, 1.0, nodes + 1)
    theta = 2 * math.pi * np.array(
        [bd.odd_warp(rng.uniform(0.0, 0.9))(v) for v in t])
    radius = 1.0
    if shape == "rippled":
        radius = 1.0 + rng.uniform(0.0, 0.1) * np.cos(
            int(rng.integers(2, 10)) * theta)
    pts = radius * np.exp(1j * theta)
    if shape == "pulled":
        for _ in range(3):
            p = int(rng.integers(nodes))
            q = (p + nodes // 2) % nodes
            mid = 0.5 * (pts[p] + pts[q])
            unit = (pts[q] - pts[p]) / abs(pts[q] - pts[p])
            pts[p], pts[q] = mid - 0.01 * unit, mid + 0.01 * unit
    pts[-1] = pts[0]
    return bd.SampledCurve(t, pts, np.ones_like(pts))


class TestChordArc:
    @given(nodes=st.integers(64, 200),
           ripple=st.lists(st.tuples(st.floats(-0.12, 0.12),
                                     st.floats(0.0, 2 * math.pi)),
                           min_size=1, max_size=4),
           warp=st.floats(0.0, 0.9),
           center=st.complex_numbers(max_magnitude=2.0))
    def test_matches_all_pairs_reference(self, nodes, ripple, warp, center):
        t = np.linspace(0.0, 1.0, nodes + 1)
        theta = 2 * math.pi * np.array([bd.odd_warp(warp)(v) for v in t])
        radius = 1.0 + sum(a * np.cos((n + 2) * theta + phi)
                           for n, (a, phi) in enumerate(ripple))
        pts = center + radius * np.exp(1j * theta)
        pts[-1] = pts[0]
        c = bd.SampledCurve(t, pts, np.ones_like(pts))
        assert bd.chord_arc_constant(c) == chord_arc_reference(c)

    def test_memory_stays_linear(self):
        c = circle_curve(lambda z: z, 2048)
        tracemalloc.start()
        try:
            bd.chord_arc_constant(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_circle_constant_near_half_pi(self):
        c = circle_curve(lambda z: z, 1024)
        assert bd.chord_arc_constant(c) == pytest.approx(math.pi / 2,
                                                         rel=0.02)

    def test_square_constant_near_two(self):
        path = geom.rectangle(-1, 1, -1, 1)
        c = bd.sample_path(path, lambda z: z, 256)
        assert bd.chord_arc_constant(c) == pytest.approx(2.0, rel=0.02)

    def test_needs_enough_nodes(self):
        c = circle_curve(lambda z: z, 32)
        with pytest.raises(CurveDataError, match="at least"):
            bd.chord_arc_constant(c)

    def test_coincident_nodes_rejected(self):
        c = circle_curve(lambda z: z, 128)
        pts = c.points.copy()
        pts[5] = pts[40]
        broken = bd.SampledCurve(c.params, pts, c.values)
        with pytest.raises(CurveDataError, match="coincident"):
            bd.chord_arc_constant(broken)

    @given(shape=st.sampled_from(["circle", "rippled", "pinched", "pulled"]),
           nodes=st.sampled_from([512, 777, 1024, 2048, 3001, 4096]),
           ripple=st.tuples(st.floats(0.0, 0.1), st.integers(2, 9)),
           warp=st.floats(0.0, 0.9),
           gap=st.floats(1e-3, 1e-1),
           turn=st.floats(0.0, 2 * math.pi),
           center=st.complex_numbers(max_magnitude=3.0),
           seed=st.integers(0, 2 ** 16))
    @example(shape="pinched", nodes=4096, ripple=(0.0, 2), warp=0.0,
             gap=1e-3, turn=0.0, center=0j, seed=0)
    def test_pruned_search_matches_offset_loop(self, shape, nodes, ripple,
                                               warp, gap, turn, center, seed):
        # sizes where pruning acts: uniform circles tie along the whole
        # diameter band, rippled and warped circles do not, pinched curves
        # put the maximum at two nodes a small gap apart, and pulled
        # circles hide several such pairs inside tiles whose centre chords
        # are long, where only a sound chord bound keeps them
        if shape == "pinched":
            c = pinched_curve(nodes, gap, center, turn)
        else:
            t = np.linspace(0.0, 1.0, nodes + 1)
            theta = turn + 2 * math.pi * t
            radius = 1.0
            if shape == "rippled":
                theta = turn + 2 * math.pi * np.array(
                    [bd.odd_warp(warp)(v) for v in t])
                amplitude, order = ripple
                radius = 1.0 + amplitude * np.cos(order * theta)
            pts = center + radius * np.exp(1j * theta)
            if shape == "pulled":
                rng = np.random.default_rng(seed)
                for _ in range(3):
                    p = int(rng.integers(nodes))
                    q = (p + nodes // 2 + int(rng.integers(-nodes // 8,
                                                           nodes // 8))) \
                        % nodes
                    mid = 0.5 * (pts[p] + pts[q])
                    unit = (pts[q] - pts[p]) / abs(pts[q] - pts[p])
                    width = gap * 10 ** rng.uniform(-1, 0)
                    pts[p], pts[q] = mid - width * unit, mid + width * unit
            pts[-1] = pts[0]
            c = bd.SampledCurve(t, pts, np.ones_like(pts))
        assert bd.chord_arc_constant(c) == chord_arc_offsets_reference(c)

    @pytest.mark.parametrize("target, source", [
        (5, 5 + 1023),  # offset 1023 on 2048 nodes: near M/2
        (6, 5),         # adjacent duplicate, offset 1
        # adjacent duplicates where the tangent is +x, so the edge of
        # length 0 (direction 0) adds no turning: only the floor guard
        # keeps the turning bound from dropping their tile
        (1537, 1536),
        (1536, 1537),
    ])
    def test_far_and_adjacent_coincident_nodes_rejected(self, target,
                                                        source):
        c = circle_curve(lambda z: z, 2048)
        pts = c.points.copy()
        pts[target] = pts[source]
        broken = bd.SampledCurve(c.params, pts, c.values)
        with pytest.raises(CurveDataError, match="coincident"):
            bd.chord_arc_constant(broken)
        with pytest.raises(CurveDataError, match="coincident"):
            chord_arc_offsets_reference(broken)

    def test_pairs_evaluated_on_a_uniform_circle(self, monkeypatch):
        # the uniform circle is the tied case: its ratio nearly ties with
        # pi/2 along a band of offsets around M/2, so few tiles drop early
        pairs = []
        exact = bd._pair_ratios

        def counting(pts, s, total, floor, i, j):
            pairs.append(len(i))
            return exact(pts, s, total, floor, i, j)

        monkeypatch.setattr(bd, "_pair_ratios", counting)
        m = 4096
        c = circle_curve(lambda z: z, m)
        assert bd.chord_arc_constant(c) == chord_arc_offsets_reference(c)
        assert sum(pairs) <= 0.005 * m * m / 2

    @given(shape=st.sampled_from(["rippled", "pinched", "pulled", "square"]),
           nodes=st.integers(64, 300),
           seed=st.integers(0, 2 ** 16))
    def test_tile_bounds_hold_pair_by_pair(self, shape, nodes, seed):
        # every bound of _tile_bounds, against every pair of random tiles:
        # half of them have small offsets, where the turning bound applies
        c = bounded_curve(shape, nodes, seed)
        pre = bd._chord_arc_prefixes(c)
        m = c.intervals
        rng = np.random.default_rng(seed)
        count = 48
        small = np.arange(count) % 2 == 0
        wide_i = np.where(small, rng.integers(1, 4, count),
                          rng.integers(1, m // 4, count))
        wide_k = np.where(small, rng.integers(1, 4, count),
                          rng.integers(1, m // 8, count))
        i0 = rng.integers(0, m - wide_i + 1)
        k0 = np.where(small, rng.integers(1, 4, count),
                      rng.integers(1, m // 2 - wide_k + 2))
        tiles = np.stack((i0, i0 + wide_i - 1, k0, k0 + wide_k - 1))
        ic, kc = (tiles[0] + tiles[1]) // 2, (tiles[2] + tiles[3]) // 2
        chord = np.abs(pre.pts[(ic + kc) % m] - pre.pts[ic])
        chord_lo, arc_hi, ratio_hi = bd._tile_bounds(pre, tiles, chord,
                                                     None)
        assert np.isfinite(ratio_hi).any()
        for n, (a, b, lo, hi) in enumerate(tiles.T):
            i, k = (g.ravel() for g in np.meshgrid(np.arange(a, b + 1),
                                                   np.arange(lo, hi + 1)))
            ratio, pair_chord = bd._pair_ratios(pre.pts, pre.s, pre.total,
                                                pre.floor, i, (i + k) % m)
            assert pair_chord.min() >= chord_lo[n]
            assert (ratio * pair_chord).max() <= arc_hi[n] + pre.slack
            assert ratio.max() <= ratio_hi[n]

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 18 (the Jordan premise): a "
                       "polyline that crosses itself is not refused")
    def test_figure_eight_is_refused(self):
        # z = sin t + i sin t cos t crosses itself at 0, which falls
        # between two nodes at half steps; node pairs alone read 124.2
        theta = 2 * math.pi * (np.arange(257) + 0.5) / 256
        pts = np.sin(theta) + 1j * np.sin(theta) * np.cos(theta)
        pts[-1] = pts[0]
        c = bd.SampledCurve(np.linspace(0.0, 1.0, 257), pts,
                            np.ones_like(pts))
        with pytest.raises(CurveDataError):
            bd.chord_arc_constant(c)

    def test_memory_stays_linear_at_8192_samples(self):
        c = circle_curve(lambda z: z, 8192)
        tracemalloc.start()
        try:
            bd.chord_arc_constant(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestDifferenceQuotient:
    def test_bound_holds_and_residuals_shrink(self):
        c = circle_curve(lambda z: z ** 2, 256)
        rep = bd.difference_quotient_check(c)
        assert rep.bound_satisfied
        # the four smallest dyadic offsets come first
        assert rep.residuals[0] < rep.residuals[1] < rep.residuals[2] \
            < rep.residuals[3]

    def test_explicit_constant_is_recorded(self):
        c = circle_curve(np.conj, 256)
        rep = bd.difference_quotient_check(c, constant=math.pi / 2)
        assert rep.constant == pytest.approx(math.pi / 2)
        assert rep.bound_satisfied

    def test_start_index_validated(self):
        c = circle_curve(lambda z: z, 128)
        with pytest.raises(CurveDataError, match="range"):
            bd.difference_quotient_check(c, start_index=128)

    def test_bound_allows_both_slacks(self):
        b = 1e-6
        relative = b * (1.0 + bd.BOUND_RELATIVE_SLACK)
        assert relative < relative + 0.5 * bd.BOUND_ABSOLUTE_SLACK \
            < relative + 2 * bd.BOUND_ABSOLUTE_SLACK

        def report(residual):
            return bd.DifferenceQuotientReport((1,), (residual,), (b,), 1.0)
        assert report(relative + 0.5 * bd.BOUND_ABSOLUTE_SLACK) \
            .bound_satisfied
        assert not report(relative + 2 * bd.BOUND_ABSOLUTE_SLACK) \
            .bound_satisfied

    def test_offsets_are_dyadic(self):
        c = circle_curve(lambda z: z, 128)
        rep = bd.difference_quotient_check(c)
        assert list(rep.offsets) == [1, 2, 4, 8, 16, 32, 64]
