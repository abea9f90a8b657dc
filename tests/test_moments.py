import cmath
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envelope import boundary as bd
from envelope import expr
from envelope import extension as ext
from envelope import geometry as geom
from envelope import moments as mom
from envelope.errors import (GeometryError, QuadratureBudgetError,
                             ScaleOverflowError)


TWO_PI_I = 2j * math.pi


class TestMoment:
    def test_reciprocal_power_table(self):
        # degree-k moment of z^-m on the unit circle picks out k = m-1
        c = geom.circle(0j, 1.0)
        for m in (1, 3):
            f = expr.parse(f"1/z^{m}")
            for k in range(5):
                want = TWO_PI_I if k == m - 1 else 0j
                assert mom.moment(f, c, k) == pytest.approx(want, abs=1e-12)

    def test_center_invariance_of_first_failure(self):
        # shifting the contour center re-mixes moments triangularly, so
        # the first nonzero degree is center-independent
        f = expr.parse("1/z^3")
        for center in (0j, 0.1 + 0.05j, -0.07j):
            path = geom.circle(center, 1.0)
            vec = mom.moment_vector(f, path, 6)
            assert vec.first_nonzero(mom.ZeroTolerance()) == 2

    def test_open_path_rejected(self):
        p = geom.Path((geom.Line(0j, 1 + 0j),))
        with pytest.raises(GeometryError):
            mom.moment(lambda z: z, p, 0)

    def test_overflowing_integrand_is_refused(self):
        c = geom.circle(0j, 1e12)
        with pytest.raises(GeometryError,
                           match=r"degree 26 overflows.*1e\+12"):
            mom.moment_vector(lambda z: 1 / z ** 2, c, 32)
        vec = mom.moment_vector(lambda z: 1 / z ** 2, geom.circle(0j, 1e9), 32)
        assert np.all(np.isfinite(vec.values))
        # the powers are finite there, but z^14 times f = z^20 is not
        with pytest.raises(GeometryError, match="degree 15 overflows"):
            mom.moment_vector(lambda z: z ** 20, geom.circle(0j, 1e9), 32)

    @given(st.integers(0, 64),
           st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-math.pi,
                                                              math.pi)),
                    min_size=1, max_size=5),
           st.booleans())
    def test_power_ladder_matches_the_integer_power(self, top, polar,
                                                    scalar):
        # |w| in [1e-3, 1e3]: the ladder's powers agree with numpy's
        # integer power within a few eps per degree
        w = np.array([10.0 ** r * cmath.exp(1j * a) for r, a in polar])
        if scalar:
            w = w[0]
        got = mom._powers(w, top)
        assert got.shape == (top + 1,) + np.shape(w)
        for k in range(top + 1):
            want = w ** k
            bound = 4 * (k + 1) * np.finfo(float).eps * np.abs(w) ** k
            assert np.all(np.abs(got[k] - want) <= bound), k

    def test_degree_bounds(self):
        c = geom.circle(0j, 1.0)
        with pytest.raises(ValueError):
            mom.moment(lambda z: z, c, -1)
        with pytest.raises(ValueError):
            mom.moment(lambda z: z, c, mom.MAX_MOMENT_DEGREE + 1)

    def test_moment_vector_scales(self):
        c = geom.circle(0j, 2.0)
        vec = mom.moment_vector(expr.parse("z^2"), c, 4)
        assert vec.max_abs_z == pytest.approx(2.0, rel=1e-6)
        assert vec.scale == pytest.approx(4 * math.pi * 4.0, rel=1e-3)
        assert vec.first_nonzero(mom.ZeroTolerance()) is None


class TestZeroTolerance:
    def test_threshold_grows_with_degree(self):
        c = geom.circle(0j, 2.0)
        vec = mom.moment_vector(expr.parse("1/z"), c, 3)
        tol = mom.ZeroTolerance()
        scales = vec.scales()
        assert tol.bound(scales[3]) > tol.bound(scales[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            mom.ZeroTolerance(abs_tol=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_non_finite_tolerances_are_refused(self, field, bad):
        # a NaN bound would call every value zero
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mom.ZeroTolerance(**{field: bad})

    def test_first_nonzero_scans_against_each_scale(self):
        tol = mom.ZeroTolerance(abs_tol=1.0, rel_tol=0.5)
        assert tol.bound(4.0) == 3.0
        assert tol.first_nonzero([2.5, 2.5j, 2.5], [4.0, 4.0, 2.0]) == 2
        assert tol.first_nonzero([2.5, -3.0], [4.0, 4.0]) is None
        assert tol.first_nonzero([], []) is None

    @pytest.mark.parametrize("nan", [math.nan, complex(math.nan, 0.0),
                                     np.complex128(complex(0.0, math.nan))])
    def test_nan_never_counts_as_zero(self, nan):
        tol = mom.ZeroTolerance()
        assert tol.first_nonzero([0.0, nan, 0.0], [1.0, 1.0, 1.0]) == 1

    def test_degree_scales_are_refused_past_the_float_range(self):
        assert mom._degree_scales(3.0, 1e100, 4) \
            == [3.0 * 1e100 ** k for k in range(4)]
        # reach^4 raises OverflowError; 1e200 * reach^2 is inf, raising
        # nothing
        for base, degree in ((3.0, 4), (1e200, 2)):
            with pytest.raises(ScaleOverflowError, match=f"degree {degree}, "):
                mom._degree_scales(base, 1e100, 5)


class TestOneZeroTest:
    """Every "counts as zero" decision of the package goes through
    ZeroTolerance.bound: replacing it moves every verdict that rests on
    one."""

    @pytest.fixture
    def set_bound(self, monkeypatch):
        def patch(value):
            monkeypatch.setattr(mom.ZeroTolerance, "bound",
                                lambda self, scale: value)
        return patch

    def test_moment_verdict(self, annulus, set_bound):
        # moments of 1/z^2: only the degree-1 moment, 2 pi i, is nonzero
        f = expr.parse("1/z^2")
        assert mom.max_primitive_order(f, annulus).max_order == 1
        set_bound(10.0)
        assert mom.max_primitive_order(f, annulus).max_order is None
        set_bound(-1.0)
        assert mom.max_primitive_order(f, annulus).max_order == 0

    def test_first_tail_coefficient_of_cross_verify(self, annulus,
                                                    set_bound):
        # |m1| = 2 pi stays above a bound of 3; the one live coefficient,
        # a_-2 = 1, falls below it
        f = expr.parse("1/z^2")
        assert ext.cross_verify(f, annulus).consistent
        set_bound(3.0)
        findings = ext.cross_verify(f, annulus).findings
        assert findings == ("hole 0: degree-1 moment is nonzero but every "
                            "tail coefficient tested as zero",)

    def test_boundary_counts(self, set_bound):
        curve = bd.unit_circle_samples(lambda z: z ** -2, 256)

        def counts():
            tower = bd.primitive_tower(curve, 4)
            expected = bd.nontangential_check(curve).expected_match
            return tower.pass_depth, tower.leading_zero_count, expected

        assert counts() == (1, 1, False)
        set_bound(-1.0)
        assert counts() == (0, 0, False)
        assert not any(level.passed
                       for level in bd.primitive_tower(curve, 4).levels)
        set_bound(math.inf)
        assert counts() == (4, 4, True)


class TestPoleBudget:
    def test_budget_sums_orders_inside_each_hole(self, two_hole):
        f = expr.parse("1/z^2 + 1/(z-0.1)^3 + 1/(z-3)")
        assert mom.inside_pole_budget(f, two_hole) == [5, 1]

    def test_pole_in_domain_rejected(self, annulus):
        f = expr.parse("1/(z-1)")
        with pytest.raises(ValueError):
            mom.inside_pole_budget(f, annulus)

    def test_unknown_for_exp(self, annulus):
        assert mom.inside_pole_budget(expr.parse("exp(1/z)"), annulus) is None

    def test_callable_is_unknown(self, annulus):
        assert mom.inside_pole_budget(lambda z: 1 / z, annulus) is None


class TestMaxPrimitiveOrder:
    def test_ladder(self, annulus):
        for m in (1, 2, 4):
            verdict = mom.max_primitive_order(expr.parse(f"1/z^{m}"), annulus)
            assert verdict.max_order == m - 1
            assert verdict.definitive
            assert verdict.certificate == "failure-witnessed"

    def test_pole_certified_yes(self, annulus):
        verdict = mom.max_primitive_order(expr.parse("1/(z-5)^2"), annulus)
        assert verdict.max_order is None
        assert verdict.all_orders
        assert verdict.definitive
        assert verdict.certificate == "pole-certified"

    def test_simply_connected_trivial(self):
        disc = geom.DomainSpec(geom.circle(0j, 1.0), ())
        verdict = mom.max_primitive_order(expr.parse("1/(z-5)"), disc)
        assert verdict.all_orders and verdict.definitive
        assert verdict.certificate == "simply-connected"

    def test_heuristic_for_black_box(self, annulus):
        verdict = mom.max_primitive_order(np.exp, annulus)
        assert verdict.all_orders
        assert not verdict.definitive
        assert verdict.certificate == "heuristic-cutoff"
        assert verdict.tested_through == mom.DEFAULT_DEGREE_CUTOFF

    def test_cutoff_budget_needs_enough_degrees(self, annulus):
        # two opposite poles inside the hole: residues cancel and the
        # first nonzero moment appears at the sum of the orders
        f = expr.parse("1/(z-0.2) - 1/(z+0.2)")
        verdict = mom.max_primitive_order(f, annulus)
        assert verdict.max_order == 1
        assert verdict.certificate == "failure-witnessed"

    def test_residue_cancellation_all_zero_needs_certificate(self, annulus):
        # 2/z - 1/(z-0.2) - 1/(z+0.2) has vanishing moments 0 and 1;
        # degree 2 is the first failure
        f = expr.parse("2/z - 1/(z-0.2) - 1/(z+0.2)")
        verdict = mom.max_primitive_order(f, annulus)
        assert verdict.max_order == 2

    def test_per_curve_attribution(self, two_hole):
        f = expr.parse("1/z^2 + 1/(z-3)")
        verdict = mom.max_primitive_order(f, two_hole)
        assert verdict.per_curve_first_nonzero == (1, 0)
        assert verdict.max_order == 0

    def test_unhashable_callables_are_kept_by_identity(self, annulus):
        # a callable need not be hashable: what a scan keeps about it is
        # matched by identity
        class Unhashable:
            __hash__ = None

            def __call__(self, z):
                return 1 / z ** 2

        f = Unhashable()
        verdict = mom.max_primitive_order(f, annulus, 3)
        assert verdict.max_order == 1
        assert mom.max_primitive_order(f, annulus, 3).moments \
            is verdict.moments

    def test_expressions_share_the_moment_vectors(self, annulus):
        # the same expression object reads the kept tables; an equal one
        # parsed anew is integrated anew
        f = expr.parse("1/z^3")
        first = mom.max_primitive_order(f, annulus, 4).moments
        assert mom.max_primitive_order(f, annulus, 4).moments is first
        again = mom.max_primitive_order(expr.parse("1/z^3"), annulus, 4)
        assert again.moments is not first and again.moments == first

    def test_a_domain_keeps_only_the_last_function(self, annulus):
        kept = []
        for k in range(20):
            f = expr.parse(f"1/z^3 + {k}")
            mom.max_primitive_order(f, annulus)
            kept.append(weakref.ref(f))
        del f
        gc.collect()
        assert [ref() is not None for ref in kept] == [False] * 19 + [True]

    def test_a_kept_table_serves_lower_degrees_after_another_function(
            self, monkeypatch):
        # f's degree-32 table is still kept after h is asked about, and
        # serves f's degree 8 by its prefix without a second integration
        degrees = []
        vector = mom.moment_vector

        def counted(f, path, degree, *args, **kwargs):
            degrees.append(degree)
            return vector(f, path, degree, *args, **kwargs)

        monkeypatch.setattr(mom, "moment_vector", counted)
        annulus = geom.DomainSpec(geom.circle(0j, 2.0),
                                  (geom.circle(0j, 0.5),))
        f, h = expr.parse("1/z^2"), expr.parse("1/z^3")
        top = mom._basis_moments(f, annulus, 32, 1e-12)
        mom._basis_moments(h, annulus, 8, 1e-12)
        assert mom._basis_moments(f, annulus, 32, 1e-12) is top
        low = mom._basis_moments(f, annulus, 8, 1e-12)
        assert degrees == [32, 8]
        assert low[0].values == top[0].values[:9]

    def test_each_basis_curve_table_is_its_own_moment_vector(self):
        # three circle holes: each curve's table is moment_vector on that
        # curve alone, bit for bit, so no curve's integral shares a panel
        # tree or a stack with another's
        holes3 = geom.DomainSpec(geom.circle(0j, 3.5), (
            geom.circle(-1.5 + 0j, 0.4), geom.circle(1.5 + 0j, 0.4),
            geom.circle(1.5j, 0.4)))
        f = expr.parse("1/(z+1.5)^2 + 0.5/(z-1.6) + (1-2i)/(z-(0+1.4i))^3 "
                       "+ 1/(z-5) + z^2")
        table = mom._basis_moments(f, holes3, 32, 1e-12)
        curves = geom.homology_basis(holes3)
        assert len(table) == len(curves) == 3
        for j, (vec, curve) in enumerate(zip(table, curves)):
            alone = mom.moment_vector(f, curve, 32, 1e-12, f"hole-{j}")
            assert np.array(vec.values).tobytes() == \
                np.array(alone.values).tobytes()
            assert (vec.curve_id, vec.scale, vec.max_abs_z) == \
                (alone.curve_id, alone.scale, alone.max_abs_z)

    def test_explicit_cutoff_restricts_scan(self, annulus):
        verdict = mom.max_primitive_order(expr.parse("1/z^5"), annulus,
                                          degree_cutoff=2)
        assert verdict.max_order is None
        assert not verdict.definitive
        assert verdict.tested_through == 2

    @given(center=st.complex_numbers(max_magnitude=1.0),
           hole_r=st.floats(0.3, 0.8),
           pole=st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 2 * math.pi)),
           first=st.integers(1, 4),
           coefficients=st.lists(
               st.one_of(st.just(0j),
                         st.complex_numbers(min_magnitude=0.5,
                                            max_magnitude=2.0)),
               min_size=1, max_size=4),
           lead=st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0))
    def test_order_is_the_first_pole_term_minus_one(
            self, center, hole_r, pole, first, coefficients, lead):
        # f = sum a_m / (z - p)^m with p in the hole: the degree-k moment is
        # 2 pi i sum_m a_m C(k, m-1) p^(k-m+1), which first fails at
        # k = (smallest m with a_m != 0) - 1
        center = complex(round(center.real, 3), round(center.imag, 3))
        domain = geom.DomainSpec(geom.circle(center, 2.5),
                                 (geom.circle(center, hole_r),))
        p = center + pole[0] * hole_r * complex(math.cos(pole[1]),
                                                math.sin(pole[1]))
        terms = []
        for m, a in enumerate([lead] + coefficients, start=first):
            if a != 0:
                terms.append(f"({a.real:.6f}{a.imag:+.6f}i)"
                             f"/(z-({p.real:.6f}{p.imag:+.6f}i))^{m}")
        verdict = mom.max_primitive_order(expr.parse(" + ".join(terms)),
                                          domain)
        assert verdict.max_order == first - 1
        assert verdict.certificate == "failure-witnessed"

    @pytest.mark.xfail(strict=True, raises=QuadratureBudgetError,
                       reason="ROADMAP item 4 (affine-covariant verdicts): "
                       "the moment integrals far from 0 stall at rounding "
                       "level and exhaust the panel budget")
    def test_moved_annulus_gives_the_annulus_verdict(self):
        # the annulus of radii 0.5 and 2 moved to centre 1e7, with the
        # pole of 1/(z - c) at its centre c: the degree-0 moment is 2 pi i,
        # as it is for the annulus about 0
        domain = geom.DomainSpec(geom.circle(1e7 + 0j, 2.0),
                                 (geom.circle(1e7 + 0j, 0.5),))
        verdict = mom.max_primitive_order(expr.parse("1/(z-1e7)"), domain)
        assert verdict.max_order == 0


    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 9 (a singularity census for exp "
                       "of rationals): pole_set gives None for exp(1/(z-3)), "
                       "so the scan ends at the heuristic cutoff")
    def test_exp_of_a_pole_outside_reads_every_order(self):
        # exp(1/(z - 3)) is holomorphic on the closed annulus of radii 0.5
        # and 2, its one singularity at 3 outside it: every order, and
        # the divisor z - 3 certifies it
        domain = geom.DomainSpec(geom.circle(0j, 2.0),
                                 (geom.circle(0j, 0.5),))
        verdict = mom.max_primitive_order(expr.parse("exp(1/(z-3))"),
                                          domain)
        assert verdict.all_orders
        assert verdict.definitive


class TestRingRoute:
    def test_endpoints(self):
        p = mom.ring_route(1 + 0j, 0.3 + 0.9j)
        assert p.start == pytest.approx(1 + 0j)
        assert p.end == pytest.approx(0.3 + 0.9j)

    def test_avoids_center_disc(self, rng):
        for _ in range(10):
            base = complex(rng.uniform(0.6, 1.8), rng.uniform(-1, 1))
            target = complex(rng.uniform(-1.8, -0.6), rng.uniform(-1, 1))
            p = mom.ring_route(base, target)
            low = min(abs(base), abs(target))
            for t in np.linspace(0, 1, 50):
                assert abs(p.points_at(float(t))) > 0.5 * low

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            mom.ring_route(0j, 1 + 0j)

    @given(r0=st.floats(0.1, 10.0), t0=st.floats(-3.0, 3.0),
           r1=st.floats(0.1, 10.0), t1=st.floats(-3.0, 3.0),
           center=st.complex_numbers(max_magnitude=10.0),
           k=st.integers(-60, 60))
    def test_scaling_by_a_power_of_two_is_exact(self, r0, t0, r1, t1,
                                                center, k):
        # every test of the route is relative, and scaling by 2^k rounds
        # nothing, so the scaled route has the scaled segments, or is
        # refused with the route
        base, target = (center + r * cmath.exp(1j * t)
                        for r, t in ((r0, t0), (r1, t1)))
        s = 2.0 ** k
        try:
            route = mom.ring_route(base, target, center)
        except GeometryError:
            with pytest.raises(GeometryError, match="coincide"):
                mom.ring_route(base * s, target * s, center * s)
            return
        scaled = mom.ring_route(base * s, target * s, center * s)
        assert scaled.segments == tuple(
            geom.Line(g.a * s, g.b * s) if isinstance(g, geom.Line)
            else geom.Arc(g.center * s, g.radius * s, g.t0, g.t1, g.ccw)
            for g in route.segments)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(GeometryError, match="endpoints coincide"):
            mom.ring_route(1, 1)

    def test_as_function_refuses_what_cannot_be_called(self):
        with pytest.raises(TypeError, match="got int"):
            mom.as_function(3)


class TestConstructPrimitive:
    def test_first_primitive_of_inverse_square(self):
        # primitive of 1/z^2 is -1/z: increment over the upper half
        # circle from 1 to -1 equals 2
        half = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi),))
        value = mom.construct_primitive(expr.parse("1/z^2"), 1,
                                        1 + 0j, -1 + 0j, half)
        assert value == pytest.approx(2 + 0j, abs=1e-12)

    def test_second_primitive_of_cubic_inverse(self):
        # phi_2 for 1/z^3 anchored at 1, all lower primitives zero at the
        # base: 1/(2z) + z/2 - 1
        target = 2j
        route = mom.ring_route(1 + 0j, target)
        value = mom.construct_primitive(expr.parse("1/z^3"), 2,
                                        1 + 0j, target, route)
        want = 1 / (2 * target) + target / 2 - 1
        assert value == pytest.approx(want, abs=1e-10)

    def test_path_endpoint_mismatch_rejected(self):
        half = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi),))
        with pytest.raises(GeometryError):
            mom.construct_primitive(expr.parse("z"), 1, 1 + 0j, 5 + 0j, half)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            mom.construct_primitive(expr.parse("1/z"), 0, 1, -1,
                                    geom.Path((geom.Line(1, -1),)))

    def test_path_through_the_hole_is_refused(self, annulus):
        with pytest.raises(GeometryError,
                           match=r"^integration path leaves the domain$"):
            mom.construct_primitive(expr.parse("1/z"), 1, 1, -1,
                                    geom.Path((geom.Line(1, -1),)),
                                    domain=annulus)

    def test_path_between_samples_is_refused(self):
        # the line passes 0.005 from the pole, across the hole of radius
        # 0.01, between two of any 64 samples of it
        domain = geom.DomainSpec(geom.circle(0j, 3.0),
                                 (geom.circle(1.5 + 0.015j, 0.01),))
        with pytest.raises(GeometryError, match="leaves the domain"):
            mom.construct_primitive(
                expr.parse("1/(z-(1.5+0.015i))^2"), 2, 1.505 - 1j,
                1.505 + 1j, geom.Path((geom.Line(1.505 - 1j, 1.505 + 1j),)),
                domain=domain)

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-13])
    def test_endpoints_are_judged_at_the_path_scale(self, s):
        # the route's radial line is kept however small the scale, and
        # the value is (target^3 - base^3) / 3
        base, target = s, 2j * s
        value = mom.construct_primitive(expr.parse("z^2"), 1, base, target,
                                        mom.ring_route(base, target))
        assert value == pytest.approx((target ** 3 - base ** 3) / 3,
                                      rel=1e-12)
        # a route that ends at half the target is refused at every scale
        with pytest.raises(GeometryError, match="endpoints do not match"):
            mom.construct_primitive(expr.parse("z^2"), 1, base, target,
                                    mom.ring_route(base, 1j * s))

    def test_warns_when_moments_block_the_order(self, annulus):
        half = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi),))
        with pytest.warns(UserWarning):
            mom.construct_primitive(expr.parse("1/z^2"), 2, 1 + 0j, -1 + 0j,
                                    half, domain=annulus)

    def test_path_independence_when_moments_vanish(self):
        upper = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi),))
        lower = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi, ccw=False),))
        gap = mom.path_independence_check(expr.parse("1/z^2"), 1,
                                          1 + 0j, -1 + 0j, upper, lower)
        assert gap < 1e-12

    def test_path_dependence_when_period_nonzero(self):
        upper = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi),))
        lower = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi, ccw=False),))
        gap = mom.path_independence_check(expr.parse("1/z"), 1,
                                          1 + 0j, -1 + 0j, upper, lower)
        assert gap == pytest.approx(2 * math.pi, abs=1e-10)


class TestDerivativeCheck:
    def test_rational_tower(self):
        res = mom.derivative_check(expr.parse("1/(z-5)"), 3,
                                   [0.5 + 0.8j, -1 + 0.6j], base=1 + 0j)
        assert res < 1e-6

    def test_first_order_against_data(self):
        res = mom.derivative_check(expr.parse("1/z^2"), 1,
                                   [0.5 + 0.8j, -1 + 0.6j], base=1 + 0j,
                                   path_builder=mom.ring_route)
        assert res < 1e-6
