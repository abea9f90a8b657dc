import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from envelope import geometry as geom
from envelope import moments as mom
from envelope import quadrature as quad
from envelope.errors import NonFiniteIntegrandError, QuadratureBudgetError


def reference_integrate(fn, path, tol=quad.DEFAULT_TOL):
    """The depth-first engine the level-by-level one replaced: one piece of
    a segment (Segment.pieces) and one 16-node panel at a time, each panel
    summed in the engine's matrix-vector form, so that a panel's pass or
    split does not hang on the order of a sum. Returns (value, evaluations,
    mass), mass being the L1 mass of the accepted panels."""
    spent = [0]

    def panel(seg, a, b):
        spent[0] += 1
        if spent[0] > quad.DEFAULT_MAX_PANELS:
            raise QuadratureBudgetError("panel budget exhausted")
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        ts = mid + half * quad._NODES
        contrib = np.asarray(fn(seg.point(ts)), dtype=complex) \
            * seg.velocity(ts)
        # a matrix of two copies of the row: numpy sends a lone row to a
        # dot product, whose sum rounds unlike the engine's matrix-vector
        # product of many panels
        rows = np.stack((contrib, contrib))
        value = half * (rows @ quad._WEIGHTS)[0]
        mass = half * (np.abs(rows) @ quad._WEIGHTS)[0]
        return complex(value), float(mass)

    def refine(seg, a, b, coarse, tol, prev_est=math.inf):
        m = 0.5 * (a + b)
        left, mass_l = panel(seg, a, m)
        right, mass_r = panel(seg, m, b)
        fine = left + right
        est = abs(fine - coarse)
        mass = mass_l + mass_r
        if est <= max(tol, quad._ROUNDOFF_FACTOR * mass):
            return fine, mass
        if est > 0.25 * prev_est and est <= quad._NOISE_CEILING * mass:
            return fine, mass
        vl, ml = refine(seg, a, m, left, 0.5 * tol, est)
        vr, mr = refine(seg, m, b, right, 0.5 * tol, est)
        return vl + vr, ml + mr

    value = 0j
    mass = 0.0
    for seg in path.segments:
        p = seg.pieces
        for k in range(p):
            a, b = k / p, (k + 1) / p
            coarse, _ = panel(seg, a, b)
            v, m = refine(seg, a, b, coarse,
                          tol * seg.length / path.length / p)
            value += v
            mass += m
    return value, quad.GAUSS_ORDER * spent[0], mass


def _rational(poles):
    def f(z):
        return sum(c / (z - p) ** m for p, m, c in poles)
    return f


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
        stacked = quad.integrate(lambda z: [scalar_fn(z), z * scalar_fn(z)],
                                 c)
        assert stacked.value[0] == pytest.approx(2j * math.pi, abs=1e-12)
        assert stacked.value[1] == pytest.approx(0j, abs=1e-12)
        # the library's stacked kernels broadcast a scalar point against a
        # column of degrees, so each scalar call answers an (m, 1) column
        vec = mom.moment_vector(scalar_fn, c, 3)
        assert vec.values[0] == pytest.approx(2j * math.pi, abs=1e-12)
        assert max(abs(v) for v in vec.values[1:]) < 1e-12
        assert mom.moment(scalar_fn, c, 0) == vec.values[0]

    def test_constant_integrand(self):
        # a 0-d answer for the whole batch is the constant at every node
        closed = quad.integrate(lambda z: 1.0, geom.circle(0j, 1.0))
        assert closed.value == pytest.approx(0j, abs=1e-12)
        segment = quad.integrate(lambda z: 1.0,
                                 geom.Path((geom.Line(0j, 2 + 0j),)))
        assert segment.value == pytest.approx(2 + 0j, abs=1e-12)

    def test_tol_must_be_positive(self):
        c = geom.circle(0j, 1.0)
        with pytest.raises(ValueError):
            quad.integrate(lambda z: z, c, tol=0.0)

    def test_budget_exhaustion_on_near_singularity(self, monkeypatch):
        # pole a hair off the contour: refinement cannot converge within
        # the panel budget and must say so rather than return junk
        monkeypatch.setattr(quad, "DEFAULT_MAX_PANELS", 64)
        c = geom.circle(0j, 1.0)
        with pytest.raises(QuadratureBudgetError, match="budget 64 "):
            quad.integrate(lambda z: 1 / (z - (1 + 1e-13)), c, tol=1e-13)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
    def test_non_finite_integrand_is_refused_at_the_root(self, bad):
        # one integrand call for the root panels and one to name the point;
        # 1e308 times the circle's dz overflows the panel sums
        calls = []

        def f(z):
            calls.append(z.size)
            return np.where(np.abs(z - 1.0) < 0.3, bad, z)

        with pytest.raises(NonFiniteIntegrandError) as info:
            quad.integrate(f, geom.circle(0j, 1.0))
        point = complex(str(info.value).rsplit("z = ", 1)[1])
        assert abs(point - 1.0) < 0.3
        assert len(calls) == 2

    def test_steep_but_integrable_peak(self):
        c = geom.circle(0j, 1.0)
        out = quad.integrate(lambda z: 1 / (z - 1.001), c)
        assert out.value == pytest.approx(0j, abs=1e-9)

    def test_max_magnitude_on(self):
        c = geom.circle(0j, 2.0)
        mf, mz = quad.max_magnitude_on(lambda z: z ** 2 + 1, c)
        assert mz == pytest.approx(2.0, rel=1e-6)
        assert mf == pytest.approx(5.0, rel=1e-3)


class TestPrefixAndParameter:
    """Integrals of 1/z along the first part and along the whole of the unit
    circle, through integrate and through the running primitive."""

    def test_prefix_half_residue(self):
        upper = geom.Path((geom.Arc(0j, 1.0, 0.0, math.pi),))
        assert quad.integrate(lambda z: 1 / z, upper).value \
            == pytest.approx(1j * math.pi, abs=1e-12)
        run = quad._running_primitive(lambda z: 1 / z, upper)
        assert np.sum(run.panel_sums) == pytest.approx(1j * math.pi,
                                                       abs=1e-12)

    def test_prefix_full_equals_circuit(self):
        c = geom.circle(0j, 1.0)
        run = quad._running_primitive(lambda z: 1 / z, c)
        full = np.sum(run.panel_sums)
        assert full == pytest.approx(2j * math.pi, abs=1e-12)
        assert full == pytest.approx(quad.integrate(lambda z: 1 / z, c).value,
                                     abs=1e-14)


class TestRunningPrimitive:
    """quadrature._running_primitive: G(z) = integral of f from the path's
    start to z at the Gauss nodes of the accepted panels, in path order."""

    def test_reciprocal_gives_the_angle(self):
        c = geom.circle(0j, 1.0)
        run = quad._running_primitive(lambda z: 1 / z, c)
        theta = np.angle(run.points) % (2 * math.pi)
        assert np.max(np.abs(run.values - 1j * theta)) <= 1e-14
        # the panel sums add up to the circuit integral
        full = quad.integrate(lambda z: 1 / z, c).value
        assert full == pytest.approx(2j * math.pi, abs=1e-12)
        assert np.sum(run.panel_sums) == pytest.approx(full, abs=1e-14)
        assert run.stack.value[0] == pytest.approx(full, abs=1e-14)

    def test_stack_takes_the_evaluations_of_integrate(self):
        # a steep integrand: the stack [f, z f] refines on the same panels
        # whether the helper or integrate runs it
        c = geom.circle(0j, 1.0)

        def f(z):
            return 1 / (z - 1.001)

        run = quad._running_primitive(f, c)
        plain = quad.integrate(lambda z: np.stack((f(z), z * f(z))), c)
        assert run.stack.evaluations == plain.evaluations
        assert np.array_equal(run.stack.value, plain.value)

    def test_node_rules_refuse_a_non_finite_integrand(self, late_nan):
        # late_nan is finite at every node of the adaptive pass and NaN at
        # the new nodes of the rules from each panel's start to its nodes
        c = geom.circle(0j, 1.0)
        stack = quad.integrate(lambda z: np.stack((late_nan(z),
                                                   z * late_nan(z))), c)
        assert stack.value[0] == pytest.approx(2j * math.pi, abs=1e-12)
        with pytest.raises(NonFiniteIntegrandError) as info:
            quad._running_primitive(late_nan, c)
        point = complex(str(info.value).rsplit("z = ", 1)[1])
        assert abs(abs(point) - 1.0) < 1e-5

    def test_the_integrand_error_is_raised(self):
        def f(z):
            raise KeyError("no data")

        with pytest.raises(KeyError, match="no data"):
            quad._running_primitive(f, geom.circle(0j, 1.0))

    @pytest.mark.parametrize("path", [
        geom.circle(0.3 - 0.2j, 1.3),
        geom.circle(-0.4 + 0.1j, 0.85, ccw=False),
        geom.polygon([0.2 + 1.5 * np.exp(2j * math.pi * k / 5)
                      for k in range(5)]),
    ])
    @pytest.mark.parametrize("k", range(5))
    def test_primitive_of_powers_to_rounding(self, path, k):
        # a 16x16 spectral integration matrix on the same panels misses by
        # up to 5e-10 on the circles, where few panels are accepted
        run = quad._running_primitive(lambda z: z ** k, path)
        want = (run.points ** (k + 1) - path.start ** (k + 1)) / (k + 1)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(run.values - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("center, radius", [(0j, 1.0), (0.4 - 0.3j, 1.2),
                                                (-1 + 2j, 0.7)])
    def test_circuit_of_the_conjugate_primitive(self, center, radius):
        # on the circle conj(z) = conj(c) + R^2 / (z - c), so G dz integrates
        # to 2 pi i R^3
        c = geom.circle(center, radius)
        run = quad._running_primitive(np.conj, c)
        assert abs(run.circuit - 2j * math.pi * radius ** 3) \
            <= 1e-13 * radius ** 3


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


# arc extents at, just below and just above one, two and three quarter
# turns, and just below a full turn (full turns are the circles), where an
# arc's count of pieces steps
_EXTENTS = [q * 0.5 * math.pi * f for q in (1, 2, 3)
            for f in (1 - 1e-9, 1.0, 1 + 1e-9)] + [2 * math.pi * (1 - 1e-9)]
# the three kinds of path the engine meets: one arc, a polygon, and the
# arc-plus-line routes of construct_primitive; the arcs are full circles
# and partial arcs, either way round
_PATHS = st.one_of(
    st.builds(geom.circle,
              st.complex_numbers(max_magnitude=0.5),
              st.floats(0.8, 2.0), st.booleans()),
    st.builds(lambda c, r, t0, extent, ccw: geom.Path((geom.Arc(
        c, r, t0, t0 + extent if ccw else t0 - extent, ccw),)),
        st.complex_numbers(max_magnitude=0.5), st.floats(0.8, 2.0),
        st.floats(-3.0, 3.0), st.sampled_from(_EXTENTS), st.booleans()),
    st.builds(lambda n, r, twist: geom.polygon(
        [r * np.exp(1j * (2 * math.pi * k / n + twist)) for k in range(n)]),
        st.integers(3, 8), st.floats(0.8, 2.0), st.floats(0.0, 1.0)),
    st.tuples(st.floats(0.6, 2.0), st.floats(0.0, 6.2),
              st.floats(0.6, 2.0), st.floats(0.1, 3.0)).map(
        lambda r: (r[0] * np.exp(1j * r[1]), r[2] * np.exp(1j * r[3])))
    # ring_route refuses endpoints that coincide
    .filter(lambda ends: abs(ends[0] - ends[1]) > 1e-6)
    .map(lambda ends: mom.ring_route(*ends)))
_POLES = st.lists(st.tuples(st.complex_numbers(max_magnitude=2.5),
                            st.integers(1, 3),
                            st.complex_numbers(min_magnitude=0.2,
                                               max_magnitude=2.0)),
                  min_size=1, max_size=3)


class TestLevelEngine:
    @given(path=_PATHS, poles=_POLES,
           tol_exp=st.integers(6, 13))
    # double and triple poles 1e-3 off the path reach the stagnation rule
    @example(path=geom.circle(0j, 1.0), poles=[(1.001 + 0j, 3, 1 + 0j)],
             tol_exp=12)
    @example(path=geom.circle(0j, 1.0), poles=[(1.002 + 0j, 2, 1 + 0j)],
             tol_exp=9)
    # a panel whose pass or split hangs on the rounding of its sums
    @example(path=geom.circle(0j, 1.0),
             poles=[(0j, 1, 1 + 0j),
                    (-1.005782599092133 + 0j, 2, 0.203125 + 0j)],
             tol_exp=10)
    def test_matches_the_depth_first_engine(self, path, poles, tol_exp):
        # same panel tree for a scalar integrand, so the same evaluations,
        # and the same sums up to 4 ulps of the L1 mass
        poles = [(p, m, c) for p, m, c in poles if path.distance(p) > 5e-4]
        f = _rational(poles or [(5.0 + 0j, 1, 1.0 + 0j)])
        tol = 10.0 ** -tol_exp
        try:
            want, evaluations, mass = reference_integrate(f, path, tol)
        except QuadratureBudgetError:
            with pytest.raises(QuadratureBudgetError):
                quad.integrate(f, path, tol)
            return
        got = quad.integrate(f, path, tol)
        assert got.evaluations == evaluations
        assert abs(got.value - want) <= 4 * np.finfo(float).eps * mass

    def test_stacked_moments_match_scalar_moments(self, slab):
        f = _rational([(0.2 + 0j, 2, 1.0 + 0.5j), (0.57j, 1, -0.7 + 0j)])
        tol = 1e-12
        paths = (geom.circle(0.1j, 1.0), geom.rectangle(-1, 1, -1, 1),
                 geom.homology_basis(slab)[0])
        for path in paths:
            vec = mom.moment_vector(f, path, 8, tol)
            for k, value in enumerate(vec.values):
                assert abs(value - mom.moment(f, path, k, tol)) <= tol

    def test_sums_do_not_depend_on_the_call_layout(self, monkeypatch):
        # a degree-32 moment table (33 rows) on the unit circle, its levels
        # of 12, 16, 32 and 8 panels cut into calls of 3 to 63 panels:
        # calls of 3, 5, 7, 15 and 31 would each leave one panel over at
        # some level, and numpy sums one panel by a dot product that rounds
        # unlike the matrix-vector product of two or more
        f = _rational([(1.02 + 0j, 2, 1 + 0.5j), (0.3j, 3, -0.7 + 0j)])
        rows = mom._moment_rows(f, np.arange(33))
        c = geom.circle(0j, 1.0)
        want = quad.integrate(rows, c)
        sums = quad._Panels._sums
        batches = []

        def recorded(self, seg, mid, half):
            batches.append(seg.size)
            return sums(self, seg, mid, half)

        monkeypatch.setattr(quad._Panels, "_sums", recorded)
        for per_call in (3, 5, 7, 15, 31, 63):
            monkeypatch.setattr(quad, "MAX_CALL_VALUES",
                                quad.GAUSS_ORDER * 33 * per_call)
            batches.clear()
            got = quad.integrate(rows, c)
            # the first call, before the stack height is known, takes the
            # first level's 12 panels
            assert batches[0] == 12 and max(batches[1:]) <= per_call
            assert min(batches) >= 2
            assert got.value.tobytes() == want.value.tobytes()
            assert got.error_estimate == want.error_estimate
            assert got.evaluations == want.evaluations

    def test_stack_near_a_singularity_exhausts_the_budget(self,
                                                          monkeypatch):
        monkeypatch.setattr(quad, "DEFAULT_MAX_PANELS", 64)
        c = geom.circle(0j, 1.0)
        with pytest.raises(QuadratureBudgetError, match="budget 64 "):
            quad.integrate(lambda z: np.stack((z, 1 / (z - (1 + 1e-13)))),
                           c, tol=1e-13)

    def test_probe_stack_memory_is_bounded(self):
        # 100 Cauchy kernels 1e-3 inside the unit circle share one tree of
        # about 4700 panels; each call holds at most MAX_CALL_VALUES
        # values, so the peak stays a few MB where one uncapped call per
        # level would take over 70 MB
        c = geom.circle(0j, 1.0)
        ws = 0.999 * np.exp(2j * math.pi * (np.arange(100) + 0.5) / 100)
        tracemalloc.start()
        try:
            out = quad.integrate(lambda z: np.exp(z) / (z - ws[:, None]), c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert np.max(np.abs(out.value / (2j * math.pi) - np.exp(ws))) < 1e-10

    def test_circle_integrals_start_from_quarter_turns(self, annulus):
        # a full circle starts from its four quarter-turn pieces and their
        # halves, 12 panels in one call, so no level compares a panel of a
        # half or a whole turn; starting from one panel per segment, the
        # degree-32 table took calls of [48, 64, 128, 256, 512] values and
        # the Cauchy integral [48, 64, 64]
        curve = geom.homology_basis(annulus)[0]
        assert [s.pieces for s in curve.segments] == [4]
        calls = []

        def f(z):
            calls.append(z.size)
            return 1 / (z - 0.2) + 1 / (z - (0.1 + 0.3j)) ** 2

        mom.moment_vector(f, curve, 32)
        # the last call is the magnitude scan
        assert calls == [192, 256, 512, quad.MAGNITUDE_SAMPLES]
        calls.clear()
        w = annulus.witnesses[0]
        out = quad.integrate(lambda z: f(z) / (z - w), curve)
        assert calls == [192]
        # f and the kernel have all their poles inside the curve
        assert abs(out.value) < 1e-12

    def test_dilated_curve_takes_few_integrand_calls(self, slab,
                                                     monkeypatch):
        # a 512-gon about the slab hole, half its gap of 0.3 out, as basis
        # curves once were: three panels per segment, evaluated level by
        # level in a handful of capped calls, not one per panel
        hole = slab.holes[0]
        z, v = hole.arrays.nodes(*hole.locate(np.arange(512) / 512))
        curve = geom.polygon(z + 0.15 * (-1j * v / np.abs(v)))
        assert len(curve.segments) == 512
        calls = []

        def f(z):
            calls.append(z.size)
            return 1 / (z - 0.2) + 1 / (z - 0.57j) ** 2

        results = []
        integrate = quad.integrate

        def spy(*args, **kwargs):
            results.append(integrate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(quad, "integrate", spy)
        mom.moment_vector(f, curve, 6)
        assert [r.evaluations // quad.GAUSS_ORDER for r in results] == [1536]
        assert len(calls) <= 8


# domains beside the conftest fixtures: three circle holes, and a ring 5e-5
# wide
_DOMAINS = {
    "three_circles": lambda: geom.DomainSpec(geom.circle(0j, 3.5), tuple(
        geom.circle(c, 0.4) for c in (-1.5 + 0j, 1.5 + 0j, 1.5j))),
    "thin_ring": lambda: geom.DomainSpec(geom.circle(0j, 1.0),
                                         (geom.circle(0j, 0.99995),)),
}


class TestIntegrateEach:
    @pytest.mark.parametrize("name", ["annulus", "two_hole", "three_circles",
                                      "thin_ring", "slab"])
    def test_matches_one_integral_per_path(self, request, monkeypatch,
                                           name):
        # every basis curve and both contours of every hole, with a moment
        # table, a Cauchy kernel at the hole's witness and one domain point
        # on the unit circle: each job to within tol of its own integral,
        # or of the roundoff floor of its mass where that is larger, the
        # circles among them in one stacked integral
        domain = _DOMAINS[name]() if name in _DOMAINS \
            else request.getfixturevalue(name)
        f = _rational([(5.0 + 0j, 1, 1.0 + 0j), (-4.0 + 1j, 2, 0.3 + 0j)])
        tol = 1e-10
        jobs = [(lambda u: f(0.1 + 1e-6 * u) / u, geom.circle(0j, 1.0))]
        for j, w in enumerate(domain.witnesses):
            jobs.append((lambda z: z ** np.arange(9)[:, None] * f(z),
                         geom.homology_basis(domain)[j]))
            for contour in geom.basis_curve_variants(domain, j):
                jobs.append((lambda z, w=w: f(z) / (z - w), contour))
        want = [quad.integrate(fn, path, tol).value for fn, path in jobs]
        calls = []
        integrate = quad.integrate

        def spy(fn, path, *args, **kwargs):
            calls.append(path)
            return integrate(fn, path, *args, **kwargs)

        monkeypatch.setattr(quad, "integrate", spy)
        got = quad.integrate_each(jobs, tol)
        circles = [path for _, path in jobs if quad._full_turn(path)]
        assert len(circles) > 1
        assert len(calls) == 1 + len(jobs) - len(circles)
        assert calls.count(geom.circle(0j, 1.0)) == 1
        for (fn, path), g, w in zip(jobs, got, want):
            mass = path.length * np.max(np.abs(fn(path.sample(256))))
            assert np.shape(g) == np.shape(w)
            assert np.max(np.abs(np.asarray(g) - w)) \
                <= max(tol, quad._ROUNDOFF_FACTOR * mass)

    def test_a_refusal_is_the_one_separate_calls_meet(self):
        # the stacked integral would name a point of the unit circle; the
        # jobs integrated one at a time name the point of the second circle
        good, bad = geom.circle(0j, 1.0), geom.circle(3 + 0j, 0.5)

        def infinite(z):
            return np.full(z.shape, np.inf)

        with pytest.raises(NonFiniteIntegrandError) as alone:
            quad.integrate(infinite, bad)
        with pytest.raises(NonFiniteIntegrandError) as stacked:
            quad.integrate_each([(np.exp, good), (infinite, bad)])
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("path", [
        geom.circle(0j, 1.0, ccw=False),
        geom.Path((geom.Arc(0j, 1.0, 1.0, 1.0 + 2 * math.pi),)),
        geom.polygon([1, 1j, -1, -1j])])
    def test_only_full_turns_from_angle_zero_stack(self, path):
        assert quad._full_turn(path) is None
        assert quad._full_turn(geom.circle(1j, 0.3)) is not None
