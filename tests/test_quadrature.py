import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envelope import geometry as geom
from envelope import quadrature as quad
from envelope.errors import QuadratureBudgetError


class TestIntegrate:
    def test_residue_of_reciprocal(self):
        c = geom.circle(0j, 1.0)
        out = quad.integrate(lambda z: 1 / z, c)
        assert out.value == pytest.approx(2j * math.pi, abs=1e-12)
        assert out.error_estimate < 1e-10
        assert out.evaluations > 0

    @given(poles=st.lists(st.tuples(st.sampled_from([0.0, 0.3, 2.5, 3.0]),
                                    st.floats(0.0, 2 * math.pi),
                                    st.integers(1, 3),
                                    st.complex_numbers(min_magnitude=0.5,
                                                       max_magnitude=2.0)),
                          min_size=1, max_size=3),
           sides=st.sampled_from([0, 3, 5]))
    def test_reversed_path_negates(self, poles, sides):
        # the unit circle (sides 0) or a regular polygon inscribed in
        # radius 1.2; every pole stays at least 0.3 from the path
        path = geom.circle(0j, 1.0) if not sides else geom.polygon(
            [1.2 * np.exp(2j * math.pi * k / sides) for k in range(sides)])

        def f(z):
            return sum(c / (z - r * np.exp(1j * a)) ** m
                       for r, a, m, c in poles)
        forward = quad.integrate(f, path).value
        backward = quad.integrate(f, path.reversed()).value
        assert abs(forward + backward) <= 1e-10 * (1.0 + abs(forward))

    def test_holomorphic_circuit_vanishes(self):
        c = geom.circle(1 + 1j, 1.5)
        out = quad.integrate(lambda z: z ** 3 - 2 * z + 1, c)
        assert abs(out.value) < 1e-12

    def test_open_segment_of_exp(self):
        p = geom.Path((geom.Line(0j, 1 + 1j),))
        out = quad.integrate(np.exp, p)
        assert out.value == pytest.approx(np.exp(1 + 1j) - 1, abs=1e-12)

    def test_square_contour_residue(self):
        sq = geom.rectangle(-1, 1, -1, 1)
        out = quad.integrate(lambda z: 1 / z, sq)
        assert out.value == pytest.approx(2j * math.pi, abs=1e-10)

    def test_scalar_only_callable_falls_back(self):
        def scalar_fn(z):
            if isinstance(z, np.ndarray):
                raise TypeError("scalars only")
            return 1 / z
        c = geom.circle(0j, 1.0)
        out = quad.integrate(scalar_fn, c)
        assert out.value == pytest.approx(2j * math.pi, abs=1e-12)

    def test_tol_must_be_positive(self):
        c = geom.circle(0j, 1.0)
        with pytest.raises(ValueError):
            quad.integrate(lambda z: z, c, tol=0.0)

    def test_budget_exhaustion_on_near_singularity(self):
        # pole a hair off the contour: refinement cannot converge within
        # the panel budget and must say so rather than return junk
        c = geom.circle(0j, 1.0)
        with pytest.raises(QuadratureBudgetError):
            quad.integrate(lambda z: 1 / (z - (1 + 1e-13)), c,
                           tol=1e-13, max_panels=64)

    def test_steep_but_integrable_peak(self):
        c = geom.circle(0j, 1.0)
        out = quad.integrate(lambda z: 1 / (z - 1.001), c)
        assert out.value == pytest.approx(0j, abs=1e-9)


class TestPrefixAndParameter:
    def test_prefix_half_residue(self):
        c = geom.circle(0j, 1.0)
        val = quad.integrate_arc_prefix(lambda z: 1 / z, c, 0.5)
        assert val == pytest.approx(1j * math.pi, abs=1e-12)

    def test_prefix_full_equals_circuit(self):
        c = geom.circle(0j, 1.0)
        full = quad.integrate_arc_prefix(lambda z: 1 / z, c, 1.0)
        assert full == pytest.approx(2j * math.pi, abs=1e-12)

    def test_parameter_route_matches_plain(self):
        c = geom.circle(0j, 1.0)

        def fn_t(ts):
            ts = np.atleast_1d(ts)
            return np.asarray(ts, dtype=complex) ** 2

        out = quad.integrate_parameter(fn_t, c)
        # circuit of t(z)^2 dz along the unit circle, t = arclength fraction
        want = quad.integrate(
            lambda z: ((np.angle(z) % (2 * math.pi)) / (2 * math.pi)) ** 2,
            c)
        assert out.value == pytest.approx(want.value, abs=1e-7)

    def test_parameter_route_shares_the_engine(self):
        # the same steep integrand through both front ends: identical
        # panels, so identical value and evaluation count, and the
        # stagnation rule keeps the parameter route inside its budget
        c = geom.circle(0j, 1.0)
        seg = c.segments[0]

        def f(z):
            return 1 / (z - 1.001)

        by_point = quad.integrate(f, c)
        by_param = quad.integrate_parameter(lambda t: f(seg.point(t)), c)
        assert by_param.value == by_point.value
        assert by_param.evaluations == by_point.evaluations

    def test_max_magnitude_on(self):
        c = geom.circle(0j, 2.0)
        mf, mz = quad.max_magnitude_on(lambda z: z ** 2 + 1, c)
        assert mz == pytest.approx(2.0, rel=1e-6)
        assert mf == pytest.approx(5.0, rel=1e-3)


class TestAccuracyScaling:
    def test_error_estimate_is_conservative(self, rng):
        c = geom.circle(0j, 1.0)
        for _ in range(5):
            a = complex(rng.uniform(1.5, 3), rng.uniform(-1, 1))
            out = quad.integrate(lambda z: 1 / (z - a), c)
            assert abs(out.value) <= max(out.error_estimate, 1e-10)

    def test_rounding_floor_respected(self):
        # huge magnitudes: cannot resolve 1e-12 absolute, must not spin
        c = geom.circle(0j, 1.0)
        out = quad.integrate(lambda z: 1e14 * z ** 2, c, tol=1e-12)
        assert abs(out.value) < 1e2
