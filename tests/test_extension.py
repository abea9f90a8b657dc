import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from envelope import expr
from envelope import extension as ext
from envelope import geometry as geom
from envelope import moments as mom
from envelope import quadrature as quad
from envelope.errors import (ExtensionPreconditionError, GeometryError,
                             PointOnPathError, PoleProximityError)


# ---------------------------------------------------------------------------
# the one-point-at-a-time probe loops the batched sampler replaced, kept as
# its reference: one (x, y) draw, one membership test and one distance per
# segment at a time

def _distance(path, p):
    return min(seg.distance(p) for seg in path.segments)


def _scalar_contains(domain, p):
    try:
        if domain.outer is not None \
                and geom.winding_number(domain.outer, p) != 1:
            return False
        return all(geom.winding_number(h, p) == 0 for h in domain.holes)
    except PointOnPathError:
        return False


def reference_domain_probes(domain, count, margin, keep_off, rng):
    x0, x1, y0, y1 = domain.outer.bbox()
    out = []
    attempts = 0
    while len(out) < count and attempts < 20000:
        attempts += 1
        p = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
        if not _scalar_contains(domain, p):
            continue
        if min(_distance(b, p) for b in domain.boundary_paths()) <= margin:
            continue
        if any(_distance(c, p) <= margin for c in keep_off):
            continue
        out.append(p)
    return out


def reference_hole_probes(domain, j, count, margin, rng):
    hole = domain.holes[j]
    x0, x1, y0, y1 = hole.bbox()
    out = [geom.hole_witness(domain, j)]
    attempts = 0
    while len(out) < count and attempts < 5000:
        attempts += 1
        p = complex(rng.uniform(x0, x1), rng.uniform(y0, y1))
        try:
            if geom.winding_number(hole, p) != 1:
                continue
        except PointOnPathError:
            continue
        if _distance(hole, p) <= margin:
            continue
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# the plain Cauchy kernel the subtracted one replaced, kept as its reference:
# -(1/2 pi i) ∮ f(z) / (z - w) dz, plus f(w) where the basis curve winds
# once around w

def reference_exact_components(fn, curve, points, f_at, tol):
    wind, _ = geom._winding_many(curve, points)
    assert not np.any(wind == geom._ON_PATH)
    cauchy = quad.integrate(lambda z: fn(z) / (z - points[:, None]), curve,
                            tol).value / (2j * math.pi)
    return np.where(wind == 0, -cauchy, f_at - cauchy)


class TestLaurentCoefficient:
    def test_reciprocal_residue(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        a1 = ext.laurent_coefficient(expr.parse("1/z"), curve, 0j, 1)
        assert a1 == pytest.approx(1 + 0j, abs=1e-12)

    def test_higher_coefficients_of_power(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        f = expr.parse("(2+1i)/z^3")
        for n in (1, 2, 4):
            assert ext.laurent_coefficient(f, curve, 0j, n) \
                == pytest.approx(0j, abs=1e-12)
        assert ext.laurent_coefficient(f, curve, 0j, 3) \
            == pytest.approx(2 + 1j, abs=1e-12)

    def test_shifted_center_mixes_binomially(self, annulus):
        # a_{-1} about any center inside the hole equals the residue
        curve = geom.homology_basis(annulus)[0]
        f = expr.parse("1/z^2")
        a1 = ext.laurent_coefficient(f, curve, 0.2 + 0.1j, 1)
        assert a1 == pytest.approx(0j, abs=1e-12)
        a2 = ext.laurent_coefficient(f, curve, 0.2 + 0.1j, 2)
        assert a2 == pytest.approx(1 + 0j, abs=1e-10)

    def test_center_must_be_enclosed(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        with pytest.raises(GeometryError):
            ext.laurent_coefficient(expr.parse("1/z"), curve, 1.8 + 0j, 1)

    def test_index_validation(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        with pytest.raises(ValueError):
            ext.laurent_coefficient(expr.parse("1/z"), curve, 0j, 0)
        with pytest.raises(ValueError):
            ext.laurent_coefficients(expr.parse("1/z"), curve, 0j, 0)

    def test_stacked_coefficients_match_one_by_one(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        f = expr.parse("(2+1i)/(z-0.1)^3 - 1/z + exp(z)")
        center = 0.05 - 0.02j
        stacked = ext.laurent_coefficients(f, curve, center, 6)
        for n, a in enumerate(stacked, start=1):
            assert abs(a - ext.laurent_coefficient(f, curve, center, n)) \
                <= 1e-12


class TestDecompose:
    def test_tail_recovery_two_holes(self, two_hole):
        f = expr.parse("1/z^2 + 1/(z-3) + z")
        d = ext.decompose(f, two_hole, probe_count=25)
        c0, c1 = d.components
        assert c0.center == pytest.approx(0j, abs=1e-10)
        assert c1.center == pytest.approx(3 + 0j, abs=1e-10)
        assert c0.coefficients[1] == pytest.approx(1 + 0j, abs=1e-10)
        assert c1.coefficients[0] == pytest.approx(1 + 0j, abs=1e-10)
        assert d.max_residual() < 1e-9

    def test_one_integral_per_curve_and_kernel(self, two_hole, monkeypatch):
        # per basis curve, one stacked integral gives every tail
        # coefficient and one every probe's Cauchy value
        integrate = quad.integrate
        calls = []

        def spy(fn, path, *args, **kwargs):
            calls.append(path)
            return integrate(fn, path, *args, **kwargs)

        monkeypatch.setattr(quad, "integrate", spy)
        d = ext.decompose(expr.parse("1/z^2 + 1/(z-3) + z"), two_hole,
                          probe_count=25)
        assert len(calls) == 2 * len(two_hole.holes)
        assert d.max_residual() < 1e-9

    def test_scalar_only_callable(self, annulus):
        def f(z):
            if isinstance(z, np.ndarray):
                raise TypeError("scalars only")
            return 1 / z ** 2 + z
        d = ext.decompose(f, annulus, terms=3, probe_count=10)
        assert d.components[0].coefficients[1] == pytest.approx(1 + 0j,
                                                                abs=1e-10)
        assert d.max_residual() < 1e-9

    def test_f0_reproduces_entire_part(self, two_hole):
        f = expr.parse("1/z + z^2 - 3")
        d = ext.decompose(f, two_hole, probe_count=20)
        for w in d.probe_points[:5]:
            assert d.f0(w) == pytest.approx(w ** 2 - 3, rel=1e-9, abs=1e-9)

    def test_reconstruction_flags_nothing_for_rationals(self, annulus, rng):
        for _ in range(3):
            p = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            f = expr.parse(f"1/(z-({p.real:.4f}{p.imag:+.4f}i))^2 + z")
            d = ext.decompose(f, annulus, probe_count=20)
            assert d.max_residual() < 1e-9

    def test_unsnapped_truncation_residual_decays_with_terms(self, annulus):
        # exp defeats pole detection, so the center stays at the witness
        # and the tail is a genuine truncation; more terms must help
        f = expr.parse("1/(z-0.28)^2 + exp(0)z")
        coarse = ext.decompose(f, annulus, terms=8, probe_count=15)
        fine = ext.decompose(f, annulus, terms=16, probe_count=15)
        # decay stops at the coefficient-noise floor, not at machine zero
        assert fine.max_residual() < 1e-3
        assert fine.max_residual() < 0.01 * coarse.max_residual()

    def test_pole_snap_makes_truncation_exact(self, annulus):
        f = expr.parse("1/(z-0.15)^3")
        d = ext.decompose(f, annulus, probe_count=20)
        comp = d.components[0]
        assert comp.center == pytest.approx(0.15 + 0j, abs=1e-8)
        assert comp.terms == 3
        assert comp.coefficients[2] == pytest.approx(1 + 0j, abs=1e-10)

    def test_default_terms_without_pole_data(self, annulus):
        d = ext.decompose(np.reciprocal, annulus, probe_count=16)
        assert d.components[0].terms == mom.DEFAULT_DEGREE_CUTOFF + 1


class TestEvaluateExtension:
    def test_matches_direct_eval_in_hole(self, annulus):
        f = expr.parse("1/(z-5) + z^2")
        verdict = mom.max_primitive_order(f, annulus)
        for w in (0j, 0.3 - 0.2j):
            got = ext.evaluate_extension(f, annulus, w, verdict=verdict)
            want = 1 / (w - 5) + w ** 2
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_matches_function_inside_domain(self, annulus):
        f = expr.parse("exp(z)")
        verdict = mom.max_primitive_order(f, annulus)
        w = 1.2 + 0.4j
        got = ext.evaluate_extension(f, annulus, w, verdict=verdict)
        assert got == pytest.approx(np.exp(w), rel=1e-10)

    def test_contour_variants_agree(self, annulus):
        f = expr.parse("1/(z-4)^2")
        verdict = mom.max_primitive_order(f, annulus)
        w = 0.1 + 0.1j
        a = ext.evaluate_extension(f, annulus, w, verdict=verdict,
                                   which_contour=0)
        b = ext.evaluate_extension(f, annulus, w, verdict=verdict,
                                   which_contour=1)
        assert abs(a - b) < 2e-9

    @pytest.mark.parametrize("which", [2, -1, 0.5, "1", None])
    @pytest.mark.parametrize("w", [0.1 + 0.1j, 1.2 + 0.4j])
    def test_which_contour_is_0_or_1(self, annulus, which, w):
        # w in the hole, then in the domain proper
        verdict = mom.max_primitive_order(expr.parse("z"), annulus)
        with pytest.raises(ValueError, match="which_contour"):
            ext.evaluate_extension(expr.parse("z"), annulus, w,
                                   verdict=verdict, which_contour=which)
        with pytest.raises(ValueError, match="which_contour"):
            ext.evaluate_extension_many(expr.parse("z"), annulus, [w],
                                        verdict=verdict, which_contour=which)

    def test_contour_variants_agree_on_dilated_hole(self, slab):
        f = expr.parse("1/(z-5) + z^2")
        verdict = mom.max_primitive_order(f, slab)
        w = 0.4 + 0.02j
        for which in (0, 1):
            got = ext.evaluate_extension(f, slab, w, verdict=verdict,
                                         which_contour=which)
            assert got == pytest.approx(1 / (w - 5) + w ** 2, abs=1e-12)

    def test_points_in_one_hole_share_a_contour(self, annulus, monkeypatch):
        f = expr.parse("1/(z-5) + z^2")
        verdict = mom.max_primitive_order(f, annulus)
        points = [0j, 0.3 - 0.2j, -0.1 + 0.25j, 1.2 + 0.4j, -1.0 - 0.9j]
        one_by_one = [ext.evaluate_extension(f, annulus, w, verdict=verdict)
                      for w in points]
        integrate = quad.integrate
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quad, "integrate", spy)
        got = ext.evaluate_extension_many(f, annulus, points, verdict=verdict)
        assert len(calls) == 3  # the hole's contour, two domain circles
        for a, b, w in zip(got, one_by_one, points):
            assert a == pytest.approx(b, abs=1e-12)
            assert a == pytest.approx(1 / (w - 5) + w ** 2, abs=1e-10)

    def test_refuses_on_nonzero_moment(self, annulus):
        with pytest.raises(ExtensionPreconditionError):
            ext.evaluate_extension(expr.parse("1/z"), annulus, 0.1 + 0j)

    def test_refuses_outside_hull(self, annulus):
        f = expr.parse("1/(z-5)")
        verdict = mom.max_primitive_order(f, annulus)
        with pytest.raises(GeometryError):
            ext.evaluate_extension(f, annulus, 3 + 0j, verdict=verdict)

    def test_refuses_on_hole_boundary(self, annulus):
        f = expr.parse("1/(z-5)")
        verdict = mom.max_primitive_order(f, annulus)
        with pytest.raises(GeometryError):
            ext.evaluate_extension(f, annulus, 0.5 + 0j, verdict=verdict)


class TestCrossVerify:
    def test_consistent_yes(self, annulus):
        rep = ext.cross_verify(expr.parse("1/(z-5) + z"), annulus)
        assert rep.consistent
        assert rep.verdict.all_orders
        assert rep.extension is not None
        assert rep.extension.max_contour_discrepancy < 2e-9
        assert rep.extension.max_reference_residual < 1e-8
        assert rep.duality_max_residual < 1e-9

    def test_consistent_no_with_degree_match(self, annulus):
        rep = ext.cross_verify(expr.parse("1/z^4"), annulus)
        assert rep.consistent
        assert rep.verdict.max_order == 3
        # the matching tail coefficient is the one the duality pairs with
        comp = rep.decomposition.components[0]
        assert comp.coefficients[3] == pytest.approx(1 + 0j, abs=1e-9)

    def test_two_hole_mixed(self, two_hole):
        rep = ext.cross_verify(expr.parse("1/z^2 + 1/(z-3)^3"), two_hole)
        assert rep.consistent
        assert rep.verdict.per_curve_first_nonzero == (1, 2)
        assert rep.verdict.max_order == 1
        assert rep.extension is None

    def test_exp_composite_consistent(self, annulus):
        rep = ext.cross_verify(expr.parse("exp(z)/(z-9)"), annulus)
        assert rep.consistent
        assert rep.verdict.certificate == "heuristic-cutoff"
        assert rep.extension is not None

    def test_black_box_callable(self, annulus):
        rep = ext.cross_verify(lambda z: z ** 3 - 1, annulus)
        assert rep.consistent
        assert rep.verdict.all_orders

    def test_reference_route_skips_points_it_cannot_evaluate(self, two_hole):
        # in hole 0 the black box raises, as a parsed quotient does at a
        # removable singularity, and in hole 1 it gives NaN: those probes
        # get no reference value and raise no finding
        def f(z):
            if np.ndim(z) == 0 and abs(z - 3) < 0.5:
                return complex(math.nan, math.nan)
            if np.ndim(z) == 0 and abs(z) < 0.5:
                raise PoleProximityError("z lies at a removable singularity")
            return z + 1

        rep = ext.cross_verify(f, two_hole)
        assert rep.consistent and rep.verdict.all_orders
        hole = geom.classify(two_hole, rep.extension.points).hole
        assert set(hole.tolist()) == {-1, 0, 1}
        assert [v is None for v in rep.extension.reference_values] \
            == (hole >= 0).tolist()
        assert rep.extension.max_reference_residual < 1e-8


class TestProbeSampler:
    @pytest.mark.parametrize("name", ["annulus", "two_hole"])
    def test_probes_match_the_scalar_sampler(self, name, request):
        domain = request.getfixturevalue(name)
        basis = geom.homology_basis(domain)
        x0, x1, y0, y1 = domain.outer.bbox()
        margin = max(1e-3, 1e-3 * math.hypot(x1 - x0, y1 - y0))
        f = expr.parse("1/(z-9) + z")
        d = ext.decompose(f, domain)
        rng = np.random.default_rng(ext._PROBE_SEED)
        assert list(d.probe_points) == reference_domain_probes(
            domain, 100, margin, basis, rng)
        rep = ext.cross_verify(f, domain)
        # hole probes, then domain probes, from one generator
        rng = np.random.default_rng(ext._PROBE_SEED + 1)
        want = []
        for j in range(len(domain.holes)):
            want += reference_hole_probes(domain, j, ext.PROBES_PER_HOLE,
                                          margin, rng)
        want += reference_domain_probes(domain, ext.DOMAIN_PROBES, margin,
                                        basis, rng)
        assert list(rep.extension.points) == want

    def test_sampler_makes_no_scalar_winding_call(self, two_hole,
                                                  monkeypatch):
        callers = []
        winding_number = geom.winding_number

        def spy(path, point):
            callers.append(sys._getframe(1).f_code.co_name)
            return winding_number(path, point)

        monkeypatch.setattr(geom, "winding_number", spy)
        probes = ext._domain_probes(two_hole, 100, np.random.default_rng(5))
        assert len(probes) == 100
        assert callers == []
        ext.cross_verify(expr.parse("1/(z-9) + z"), two_hole)
        # the only one-point calls left check each Laurent tail's center
        assert set(callers) == {"_check_tail"}


# the pole a / (z - p)^2 of the kernel tests, inside both basis curves
_POLE, _RESIDUE = 0.1 + 0.05j, 0.7 - 0.3j
_KERNEL_CURVES = {
    "circle": geom.circle(0j, 1.0),
    "polygon": geom.polygon([-1 - 1j, 1.2 - 0.9j, 1.1 + 1j, -0.9 + 1.1j]),
}


def _pole_plus_exp(z):
    return _RESIDUE / (z - _POLE) ** 2 + np.exp(z)


class TestSubtractedKernel:
    # Roundoff bound of the subtracted kernel at a point w at distance dist
    # from a curve of length L: f(z) - f(w) carries about 2 eps max|f| at
    # each node, the division by z - w, |z - w| >= dist, amplifies it to at
    # most 2 eps max|f| / dist, and the Gauss weights sum to L, so the
    # component, a 1/(2 pi) multiple of the integral, is off by at most
    # eps max|f| L / (pi dist). Both curves below have L < 4 pi, hence
    # c = 4; the quadrature error at tol 1e-12 is far below this bound for
    # the smooth integrand (measured: under 0.07 of it at dist = 0.1).
    ROUNDOFF_C = 4.0

    @pytest.mark.parametrize("name, text", [
        ("annulus", "1/(z-0.1)^2 + exp(z)"),
        ("two_hole", "1/(z-0.1)^2 + (2-1i)/(z-3) + exp(z)"),
        ("slab", "1/(z-0.3)^2 + 0.5/(z-(0+0.57i)) + exp(z)"),
    ])
    def test_matches_the_reference_kernel_at_the_probes(self, name, text,
                                                        request):
        # poles in the holes only
        domain = request.getfixturevalue(name)
        fn = mom.as_function(expr.parse(text))
        points = np.array(ext._domain_probes(
            domain, 100, np.random.default_rng(ext._PROBE_SEED)))
        f_at = quad._eval_batch(fn, points)
        sides = set()
        for curve in geom.homology_basis(domain):
            sides.update(geom._winding_many(curve, points)[0].tolist())
            got = ext._exact_components(fn, curve, points, f_at, 1e-12)
            want = reference_exact_components(fn, curve, points, f_at, 1e-12)
            max_f = max(np.abs(f_at).max(),
                        quad.max_magnitude_on(fn, curve)[0])
            assert np.abs(got - want).max() <= 1e-14 * (1.0 + max_f)
        assert sides == {0, 1}  # probes on both sides of a basis curve

    @given(name=st.sampled_from(sorted(_KERNEL_CURVES)),
           near=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-8.0, -1.0),
                                   st.booleans()), min_size=1, max_size=8))
    def test_within_the_roundoff_bound_on_both_sides(self, name, near):
        # the component of a / (z - p)^2 + exp(z) with p inside the curve is
        # a / (w - p)^2 on either side of it
        curve = _KERNEL_CURVES[name]
        z, v = curve.arrays.nodes(*curve.locate([f for f, _, _ in near]))
        offsets = np.array([10.0 ** e * (1 if out else -1)
                            for _, e, out in near])
        points = z + offsets * (-1j * v / np.abs(v))
        f_at = _pole_plus_exp(points)
        got = ext._exact_components(_pole_plus_exp, curve, points, f_at,
                                    1e-12)
        want = _RESIDUE / (points - _POLE) ** 2
        max_f = max(quad.max_magnitude_on(_pole_plus_exp, curve)[0],
                    np.abs(f_at).max())
        assert curve.length < 4 * math.pi
        bound = self.ROUNDOFF_C * np.finfo(float).eps * max_f \
            / curve.distance(points)
        assert np.all(np.abs(got - want) <= bound)

    def test_probe_stack_panels_do_not_depend_on_distance(self, monkeypatch):
        # 100 kernels exp(z) / (z - w), w at distance d inside the unit
        # circle: the plain kernel takes 1,495 panels at d = 1e-2 and runs
        # out of its 65,536-panel budget at d = 1e-7
        integrate = quad.integrate
        panels = []

        def spy(*args, **kwargs):
            result = integrate(*args, **kwargs)
            panels.append(result.evaluations // quad.GAUSS_ORDER)
            return result

        monkeypatch.setattr(quad, "integrate", spy)
        circle = _KERNEL_CURVES["circle"]
        angles = np.linspace(0.0, 2 * math.pi, 100, endpoint=False) + 0.1
        for d in (1e-2, 1e-7):
            points = (1.0 - d) * np.exp(1j * angles)
            got = ext._exact_components(np.exp, circle, points,
                                        np.exp(points), 1e-12)
            assert np.abs(got).max() <= 1e-13  # exp has no hole component
        assert panels[0] == panels[1] <= 16


_ROUNDED = st.floats(-1.0, 1.0).map(lambda x: round(x, 3))


@st.composite
def _outside_poles_case(draw):
    """An annulus or a two-hole domain, f a sum of a / (z - p)^m with every
    p outside the outer circle, and points spread over the hull."""
    center = complex(draw(_ROUNDED), draw(_ROUNDED))
    if draw(st.booleans()):
        radius = 2.0
        holes = (geom.circle(center + complex(draw(_ROUNDED), draw(_ROUNDED))
                             * 0.4, round(draw(st.floats(0.2, 0.6)), 3)),)
    else:
        radius = 2.5
        holes = tuple(geom.circle(center + dx,
                                  round(draw(st.floats(0.2, 0.5)), 3))
                      for dx in (-1.0, 1.0))
    domain = geom.DomainSpec(geom.circle(center, radius), holes)
    poles = []
    for _ in range(draw(st.integers(1, 3))):
        rho = radius * draw(st.floats(1.3, 3.0))
        angle = draw(st.floats(0.0, 2 * math.pi))
        p = center + rho * complex(math.cos(angle), math.sin(angle))
        a = complex(draw(_ROUNDED), draw(_ROUNDED)) + 1.5
        poles.append((complex(round(p.real, 6), round(p.imag, 6)),
                      draw(st.integers(1, 3)), a))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        s = radius * draw(st.floats(0.0, 0.95))
        phi = draw(st.floats(0.0, 2 * math.pi))
        points.append(center + s * complex(math.cos(phi), math.sin(phi)))
    return domain, poles, points


class TestExtensionAcrossContours:
    @given(case=_outside_poles_case())
    def test_contours_agree_and_equal_f(self, case):
        # f is holomorphic on the whole hull, so its extension is f itself,
        # whichever admissible contour the Cauchy integral runs over
        domain, poles, points = case
        curves = list(domain.boundary_paths())
        for j in range(len(domain.holes)):
            curves += geom.basis_curve_variants(domain, j)
        points = [w for w in points
                  if min(c.distance(w) for c in curves) > 0.02]
        assume(points)
        text = " + ".join(f"({a.real:.6f}{a.imag:+.6f}i)"
                          f"/(z-({p.real:.6f}{p.imag:+.6f}i))^{m}"
                          for p, m, a in poles)
        f = expr.parse(text)
        verdict = mom.max_primitive_order(f, domain)
        assert verdict.all_orders
        values = ext.evaluate_extension_many(f, domain, points,
                                             verdict=verdict, which_contour=0)
        alts = ext.evaluate_extension_many(f, domain, points,
                                           verdict=verdict, which_contour=1)
        for w, v0, v1 in zip(points, values, alts):
            direct = sum(a / (w - p) ** m for p, m, a in poles)
            assert abs(v0 - v1) <= ext.CONTOUR_TOL
            assert abs(v0 - direct) / (1.0 + abs(direct)) \
                <= ext.REFERENCE_RTOL


class TestSeededRandomRationals:
    def test_outside_poles_always_extend(self, annulus, rng):
        for _ in range(4):
            angle = rng.uniform(0, 2 * math.pi)
            p = (3.0 + rng.uniform(0, 2)) * np.exp(1j * angle)
            order = int(rng.integers(1, 4))
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            text = (f"({c.real:.4f}{c.imag:+.4f}i)"
                    f"/(z-({p.real:.4f}{p.imag:+.4f}i))^{order}")
            rep = ext.cross_verify(expr.parse(text), annulus)
            assert rep.consistent
            assert rep.verdict.certificate == "pole-certified"

    def test_inside_pole_blocks_at_order(self, annulus, rng):
        for _ in range(4):
            p = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
            order = int(rng.integers(1, 4))
            text = f"1/(z-({p.real:.4f}{p.imag:+.4f}i))^{order} + z^2"
            rep = ext.cross_verify(expr.parse(text), annulus)
            assert rep.consistent
            assert rep.verdict.max_order == order - 1
