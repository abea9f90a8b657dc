"""Sampled-curve machinery: towers, transforms, chord-arc geometry."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envelope import boundary as bd
from envelope import geometry as geom
from envelope import moments as mom
from envelope.errors import CurveDataError, GeometryError


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
        assert rep.pass_depth == 0
        assert rep.leading_zero_count == 0
        assert rep.depth_matches
        assert len(rep.ibp_residuals) == 4
        assert rep.analytic_ibp is not None and rep.analytic_ibp < 1e-9

    def test_equivalence_reuses_the_tower(self):
        c = circle_curve(np.conj, 128, warp_amplitude=0.3)
        rep = bd.boundary_duality(c)
        assert len(rep.tower.functions) == 5
        assert rep.ibp_residuals == tuple(bd.ibp_residual(c, lv)
                                          for lv in range(1, 5))

    def test_equivalence_skips_analytic_without_path(self):
        rep = bd.boundary_duality(bd.curve_from_csv(csv_text(32)))
        assert rep.analytic_ibp is None


class TestCauchyTransform:
    def test_discrete_reproduces_polynomial(self):
        c = circle_curve(lambda z: z ** 2, 1024)
        w = 0.3 + 0.2j
        assert abs(bd.cauchy_transform(c, w, route="discrete") - w ** 2) < 1e-5

    def test_analytic_reproduces_polynomial(self):
        c = circle_curve(lambda z: z ** 2, 64)
        w = 0.3 + 0.2j
        got = bd.cauchy_transform(c, w, route="analytic")
        assert abs(got - w ** 2) < 1e-12

    def test_antiholomorphic_data_transforms_to_zero(self):
        c = circle_curve(np.conj, 64)
        assert abs(bd.cauchy_transform(c, 0.4 - 0.1j, route="analytic")) < 1e-12

    def test_discrete_refuses_near_curve(self):
        c = circle_curve(lambda z: z, 256)
        with pytest.raises(CurveDataError, match="spacing"):
            bd.cauchy_transform(c, 0.999 + 0j, route="discrete")

    def test_refuses_outside_point(self):
        c = circle_curve(lambda z: z, 64)
        with pytest.raises(GeometryError, match="enclosed"):
            bd.cauchy_transform(c, 2.0 + 0j)

    def test_route_validated(self):
        c = circle_curve(lambda z: z, 64)
        with pytest.raises(ValueError):
            bd.cauchy_transform(c, 0j, route="magic")

    def test_auto_prefers_analytic_when_available(self):
        c = circle_curve(lambda z: z ** 3, 64)
        w = 0.1 + 0.5j
        assert abs(bd.cauchy_transform(c, w) - w ** 3) < 1e-12


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

    def test_radii_must_decrease(self):
        c = circle_curve(lambda z: z, 128)
        with pytest.raises(ValueError, match="decrease"):
            bd.nontangential_check(c, radii=(1e-3, 1e-2))

    def test_node_index_validated(self):
        c = circle_curve(lambda z: z, 64)
        with pytest.raises(CurveDataError, match="range"):
            bd.nontangential_check(c, node_index=64)


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

    def test_offsets_are_dyadic(self):
        c = circle_curve(lambda z: z, 128)
        rep = bd.difference_quotient_check(c)
        assert list(rep.offsets) == [1, 2, 4, 8, 16, 32, 64]
