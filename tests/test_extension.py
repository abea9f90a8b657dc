import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from envelope import cli, expr
from envelope import extension as ext
from envelope import geometry as geom
from envelope import moments as mom
from envelope import quadrature as quad
from envelope.errors import (ExtensionPreconditionError, GeometryError,
                             PoleProximityError, ScaleOverflowError)

SCENARIOS = Path(__file__).resolve().parent / "scenarios"


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
        a1 = ext.laurent_coefficients(expr.parse("1/z"), curve, 0j, 1)[0]
        assert a1 == pytest.approx(1 + 0j, abs=1e-12)

    def test_higher_coefficients_of_power(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        f = expr.parse("(2+1i)/z^3")
        for n in (1, 2, 4):
            assert ext.laurent_coefficients(f, curve, 0j, n)[n - 1] \
                == pytest.approx(0j, abs=1e-12)
        assert ext.laurent_coefficients(f, curve, 0j, 3)[2] \
            == pytest.approx(2 + 1j, abs=1e-12)

    def test_shifted_center_mixes_binomially(self, annulus):
        # a_{-1} about any center inside the hole equals the residue
        curve = geom.homology_basis(annulus)[0]
        f = expr.parse("1/z^2")
        a1 = ext.laurent_coefficients(f, curve, 0.2 + 0.1j, 1)[0]
        assert a1 == pytest.approx(0j, abs=1e-12)
        a2 = ext.laurent_coefficients(f, curve, 0.2 + 0.1j, 2)[1]
        assert a2 == pytest.approx(1 + 0j, abs=1e-10)

    def test_center_must_be_enclosed(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        with pytest.raises(GeometryError):
            ext.laurent_coefficients(expr.parse("1/z"), curve, 1.8 + 0j, 1)

    def test_index_validation(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        with pytest.raises(ValueError):
            ext.laurent_coefficients(expr.parse("1/z"), curve, 0j, 0)

    def test_stacked_coefficients_match_one_by_one(self, annulus):
        curve = geom.homology_basis(annulus)[0]
        f = expr.parse("(2+1i)/(z-0.1)^3 - 1/z + exp(z)")
        center = 0.05 - 0.02j
        stacked = ext.laurent_coefficients(f, curve, center, 6)
        for n, a in enumerate(stacked, start=1):
            one = ext.laurent_coefficients(f, curve, center, n)[n - 1]
            assert abs(a - one) <= 1e-12


class TestDecompose:
    def test_tail_recovery_two_holes(self, two_hole):
        f = expr.parse("1/z^2 + 1/(z-3) + z")
        d = ext.decompose(f, two_hole)
        c0, c1 = d.components
        assert c0.center == pytest.approx(0j, abs=1e-10)
        assert c1.center == pytest.approx(3 + 0j, abs=1e-10)
        assert c0.coefficients[1] == pytest.approx(1 + 0j, abs=1e-10)
        assert c1.coefficients[0] == pytest.approx(1 + 0j, abs=1e-10)
        assert d.max_residual() < 1e-9

    def test_one_integral_per_curve_and_kernel(self, two_hole, monkeypatch):
        # per basis curve, one stacked integral gives every tail
        # coefficient and one every probe's Cauchy value; each kind's
        # circles share one integral over the unit circle
        each, integrate = quad.integrate_each, quad.integrate
        jobs, calls = [], []

        def spy_each(batch, *args, **kwargs):
            jobs.append([path for _, path in batch])
            return each(batch, *args, **kwargs)

        def spy(fn, path, *args, **kwargs):
            calls.append(path)
            return integrate(fn, path, *args, **kwargs)

        monkeypatch.setattr(quad, "integrate_each", spy_each)
        monkeypatch.setattr(quad, "integrate", spy)
        d = ext.decompose(expr.parse("1/z^2 + 1/(z-3) + z"), two_hole)
        holes = range(len(two_hole.holes))
        assert jobs == [[geom.basis_curve_variants(two_hole, j)[1]
                         for j in holes], geom.homology_basis(two_hole)]
        assert calls == [geom.circle(0j, 1.0)] * 2
        assert d.max_residual() < 1e-9

    def test_scalar_only_callable(self, annulus):
        def f(z):
            if isinstance(z, np.ndarray):
                raise TypeError("scalars only")
            return 1 / z ** 2 + z
        d = ext.decompose(f, annulus, terms=3)
        assert d.components[0].coefficients[1] == pytest.approx(1 + 0j,
                                                                abs=1e-10)
        assert d.max_residual() < 1e-9

    def test_f0_reproduces_entire_part(self, two_hole):
        f = expr.parse("1/z + z^2 - 3")
        d = ext.decompose(f, two_hole)
        for w in d.probe_points[:5]:
            assert d.f0(w) == pytest.approx(w ** 2 - 3, rel=1e-9, abs=1e-9)

    def test_reconstruction_flags_nothing_for_rationals(self, annulus, rng):
        for _ in range(3):
            p = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            f = expr.parse(f"1/(z-({p.real:.4f}{p.imag:+.4f}i))^2 + z")
            d = ext.decompose(f, annulus)
            assert d.max_residual() < 1e-9

    def test_unsnapped_truncation_residual_decays_with_terms(self, annulus):
        # exp defeats pole detection, so the center stays at the witness
        # and the tail is a genuine truncation; more terms must help
        f = expr.parse("1/(z-0.28)^2 + exp(0)z")
        coarse = ext.decompose(f, annulus, terms=8)
        fine = ext.decompose(f, annulus, terms=16)
        # decay stops at the coefficient-noise floor, not at machine zero
        assert fine.max_residual() < 1e-3
        assert fine.max_residual() < 0.01 * coarse.max_residual()

    def test_pole_snap_makes_truncation_exact(self, annulus):
        f = expr.parse("1/(z-0.15)^3")
        d = ext.decompose(f, annulus)
        comp = d.components[0]
        assert comp.center == pytest.approx(0.15 + 0j, abs=1e-8)
        assert comp.terms == 3
        assert comp.coefficients[2] == pytest.approx(1 + 0j, abs=1e-10)

    def test_default_terms_without_pole_data(self, annulus):
        d = ext.decompose(np.reciprocal, annulus)
        assert d.components[0].terms == mom.DEFAULT_DEGREE_CUTOFF + 1

    def test_refuses_fewer_than_one_term(self, annulus):
        with pytest.raises(ValueError, match="tail coefficients have index "
                                             "n >= 1"):
            ext.decompose(expr.parse("1/z"), annulus, terms=0)


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

    def test_point_that_is_not_finite_is_refused(self, annulus):
        # not as a point on a hole boundary, where NaN windings land
        f = expr.parse("z^2")
        verdict = mom.max_primitive_order(f, annulus)
        with pytest.raises(GeometryError, match=r"point \(nan\+0j\) is "
                                                "not finite"):
            ext.evaluate_extension(f, annulus, complex("nan"),
                                   verdict=verdict)

    def test_contour_variants_agree(self, annulus):
        f = expr.parse("1/(z-4)^2")
        verdict = mom.max_primitive_order(f, annulus)
        w = 0.1 + 0.1j
        a = ext.evaluate_extension(f, annulus, w, verdict=verdict,
                                   which_contour=0)
        b = ext.evaluate_extension(f, annulus, w, verdict=verdict,
                                   which_contour=1)
        assert abs(a - b) < 2e-9

    def test_shape_follows_the_points(self, annulus):
        # a complex for one point, an array of the input's shape for many
        f = expr.parse("z^2")
        verdict = mom.max_primitive_order(f, annulus)
        one = ext.evaluate_extension(f, annulus, 0.1 + 0.1j, verdict=verdict)
        assert type(one) is complex
        grid = np.array([[0.1 + 0.1j, 1.2 + 0.4j], [-0.2j, -1.5 + 0j]])
        got = ext.evaluate_extension(f, annulus, grid, verdict=verdict)
        assert got.shape == (2, 2)
        assert np.allclose(got, grid ** 2, rtol=0, atol=1e-10)
        assert got[0, 0] == pytest.approx(one, abs=1e-12)
        empty = ext.evaluate_extension(f, annulus, [], verdict=verdict)
        assert empty.shape == (0,)

    @pytest.mark.parametrize("which", [2, -1, 0.5, "1", None])
    @pytest.mark.parametrize("w", [0.1 + 0.1j, 1.2 + 0.4j])
    def test_which_contour_is_0_or_1(self, annulus, which, w):
        # w in the hole, then in the domain proper
        verdict = mom.max_primitive_order(expr.parse("z"), annulus)
        with pytest.raises(ValueError, match="which_contour"):
            ext.evaluate_extension(expr.parse("z"), annulus, w,
                                   verdict=verdict, which_contour=which)
        with pytest.raises(ValueError, match="which_contour"):
            ext.evaluate_extension(expr.parse("z"), annulus, [w],
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
        each, integrate = quad.integrate_each, quad.integrate
        jobs, calls = [], []

        def spy_each(batch, *args, **kwargs):
            jobs.append([path for _, path in batch])
            return each(batch, *args, **kwargs)

        def spy(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quad, "integrate_each", spy_each)
        monkeypatch.setattr(quad, "integrate", spy)
        got = ext.evaluate_extension(f, annulus, points, verdict=verdict)
        # the hole's contour, and one unit-circle stack for both points of
        # the domain proper, stacked in one integral over the unit circle
        assert jobs == [[geom.basis_curve_variants(annulus, 0)[0],
                         geom.circle(0j, 1.0)]]
        assert calls == [geom.circle(0j, 1.0)]
        for a, b, w in zip(got, one_by_one, points):
            assert a == pytest.approx(b, abs=1e-12)
            assert a == pytest.approx(1 / (w - 5) + w ** 2, abs=1e-10)

    def test_three_circle_holes_take_one_integral(self, monkeypatch):
        # every contour of every hole and the unit circle of the domain
        # proper share one stacked integral, in cross_verify as in
        # evaluate_extension
        domain = geom.DomainSpec(geom.circle(0j, 3.5), tuple(
            geom.circle(c, 0.4) for c in (-1.5 + 0j, 1.5 + 0j, 1.5j)))
        f = expr.parse("1/(z-5) + z^2")
        integrate, on_contours = quad.integrate, ext._on_contours
        counts, inside = [], [False]

        def spy(*args, **kwargs):
            if inside[0]:
                counts[-1] += 1
            return integrate(*args, **kwargs)

        def counted(*args, **kwargs):
            counts.append(0)
            inside[0] = True
            try:
                return on_contours(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(quad, "integrate", spy)
        monkeypatch.setattr(ext, "_on_contours", counted)
        rep = ext.cross_verify(f, domain)
        assert rep.consistent
        points = [-1.5 + 0.1j, 1.5 - 0.1j, 1.6j, 0.5 - 1j, -2.5 + 0.5j]
        got = ext.evaluate_extension(f, domain, points)
        assert counts == [1, 1]
        for value, w in zip(got, points):
            assert value == pytest.approx(1 / (w - 5) + w ** 2, abs=1e-10)

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

    @pytest.mark.parametrize("outer, w, match", [
        (None, 1.0, "no boundary to size a contour around 1"),
        (geom.circle(0j, 2.0), 3.0, "outside the simply connected"),
        (geom.circle(0j, 2.0), 0.5, "on a hole boundary")])
    def test_refusals_come_before_any_integral(self, monkeypatch, outer, w,
                                               match):
        holes = (geom.circle(0j, 0.5),) if outer is not None else ()
        domain = geom.DomainSpec(outer, holes)
        f = expr.parse("1/(z-5)")
        verdict = mom.max_primitive_order(f, domain)
        monkeypatch.setattr(quad, "integrate_each",
                            lambda *args: pytest.fail("integrated"))
        with pytest.raises(GeometryError, match=match):
            ext.evaluate_extension(f, domain, [w, 0.1j], verdict=verdict)

    @pytest.mark.parametrize("domain", [
        "annulus", "two_hole", "slab", "scenarios/annulus",
        "scenarios/pole60", "scenarios/holes3", "scenarios/slab",
        "scenarios/dhole", "scenarios/lhole"])
    def test_every_contour_keeps_clear_of_its_hole(self, request, domain):
        # _on_contours measures no point of a hole against its contours:
        # by their rules (geometry._contour) both lie outside the hole,
        # farther than both bands from its boundary, so farther than their
        # band from every point of the hole, here grid points and points
        # 1e-8 to 1e-2 of the hole's length inside its boundary
        if domain.startswith("scenarios/"):
            path = SCENARIOS / f"{domain.split('/')[1]}.json"
            config, diags = cli.build_config(json.loads(path.read_text()),
                                             path.parent)
            assert diags == []
            domain = config.domain
        else:
            domain = request.getfixturevalue(domain)
        for j, hole in enumerate(domain.holes):
            x0, x1, y0, y1 = hole.bbox()
            grid = np.add.outer(np.linspace(x0, x1, 41),
                                1j * np.linspace(y0, y1, 41)).ravel()
            z, v = hole.arrays.nodes(*hole.locate(np.arange(64) / 64))
            depths = hole.length * 10.0 ** np.arange(-8, -1)
            inward = 1j * v / np.abs(v)
            points = np.append(grid, (z[:, None] + inward[:, None]
                                      * depths).ravel())
            where = geom.classify(domain, points)
            points = points[(where.hole == j) & ~where.on_boundary]
            assert points.size > 64 * 6
            for contour in geom.basis_curve_variants(domain, j):
                assert contour.distance(points).min() > contour.band
                assert geom._gap(contour, hole) > contour.band + hole.band
                assert np.all(geom.classify(domain,
                                            contour.sample(256)).inside)


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

    @pytest.mark.parametrize("scale", [1e-3, 1e-4])
    def test_small_domains_place_their_probes(self, scale):
        # the probes sit at fractions of each hole's gap, with no floor
        domain = geom.DomainSpec(geom.circle(0j, 2.0 * scale),
                                 (geom.circle(0j, 0.5 * scale),))
        rep = ext.cross_verify(expr.parse(f"1/(z-{4 * scale!r}) + z^2"),
                               domain)
        assert rep.verdict.certificate == "pole-certified"
        assert rep.consistent and rep.extension is not None

    @pytest.mark.parametrize("holes, text, max_order", [
        ((geom.circle(0j, 1.0),), "z^3 - 2*z", None),
        ((geom.circle(0j, 1.0),), "z^3 - 2*z + 1/(z-0.3)^2", 1),
        ((geom.circle(0j, 1.0), geom.circle(3 + 0j, 0.5)), "(z-1)^4 - 3*z",
         None),
    ])
    def test_unbounded_domains(self, holes, text, max_order):
        # the circles of a hole with no other boundary reach 2 lo, and the
        # probes lie on them
        rep = ext.cross_verify(expr.parse(text), geom.DomainSpec(None, holes))
        assert rep.consistent
        assert rep.verdict.max_order == max_order
        assert rep.verdict.certificate == (
            "pole-certified" if max_order is None else "failure-witnessed")
        assert (rep.extension is not None) == (max_order is None)

    def test_black_box_callable(self, annulus):
        rep = ext.cross_verify(lambda z: z ** 3 - 1, annulus)
        assert rep.consistent
        assert rep.verdict.all_orders

    def test_callables_sample_each_magnitude_once(self, two_hole,
                                                  monkeypatch):
        # a callable takes an expression's path: the moment vectors, whose
        # scales the Laurent tails read too, scan the magnitude once per
        # basis curve
        calls = []
        scan = quad.max_magnitude_on

        def counted(fn, path):
            calls.append(path)
            return scan(fn, path)

        monkeypatch.setattr(quad, "max_magnitude_on", counted)
        rep = ext.cross_verify(lambda z: 1 / z ** 2 + 1 / (z - 3) ** 3,
                               two_hole)
        assert rep.consistent and rep.verdict.per_curve_first_nonzero == (1, 2)
        assert calls == geom.homology_basis(two_hole)

    def test_only_the_moment_vectors_sample_the_magnitude(self, two_hole,
                                                          monkeypatch):
        calls = []
        scan = quad.max_magnitude_on

        def counted(fn, path):
            calls.append(path)
            return scan(fn, path)

        monkeypatch.setattr(quad, "max_magnitude_on", counted)
        domain = geom.DomainSpec(two_hole.outer, two_hole.holes)
        f = expr.parse("1/z^2 + 1/(z-3)^3 + z")
        ext.decompose(f, domain)
        assert calls == []
        ext.cross_verify(f, domain)
        assert calls == geom.homology_basis(domain)

    def test_tail_scales_are_the_basis_curves(self, two_hole):
        # scale * max(1, max|z| + |c|)^(n-1) / 2 pi, from the basis curve's
        # own length and magnitude scan, bit for bit
        f = expr.parse("1/z^2 + 1/(z-3)^3 + z")
        rep = ext.cross_verify(f, two_hole)
        for vec, comp, curve in zip(rep.verdict.moments,
                                    rep.decomposition.components,
                                    geom.homology_basis(two_hole)):
            max_f, max_z = quad.max_magnitude_on(f, curve)
            reach = max(1.0, max_z + abs(comp.center))
            assert vec.tail_scales(comp.center, comp.terms) == [
                curve.length * max_f * reach ** k / (2.0 * math.pi)
                for k in range(comp.terms)]

    def test_the_extension_reference_is_f(self, annulus, monkeypatch):
        # a tail moved off zero for z, whose moments all vanish, is a
        # finding of its own; the extension's reference stays f itself
        decompose = ext.decompose

        def moved(*call, **kwargs):
            out = decompose(*call, **kwargs)
            comp = out.components[0]
            comp = dataclasses.replace(comp, coefficients=(
                comp.coefficients[0] + 1.0,) + comp.coefficients[1:])
            return dataclasses.replace(
                out, components=(comp,) + out.components[1:])

        monkeypatch.setattr(ext, "decompose", moved)
        f = expr.parse("z")
        rep = ext.cross_verify(f, annulus)
        assert "hole 0: moments all vanish but a_-1 is 1" in rep.findings
        points = np.array(rep.extension.points)
        assert rep.extension.reference_values == tuple(f(points).tolist())

    def test_entry_points_share_one_verdict(self, monkeypatch):
        # the verdict is kept on the domain for f, the cutoff and the
        # tolerances (moments._verdict): two cross_verify and two
        # evaluate_extension calls scan the moments once, and two
        # construct_primitive calls, at their cutoff n - 1, once more
        calls = []
        scan = mom.max_primitive_order

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(mom, "max_primitive_order", counted)
        annulus = geom.DomainSpec(geom.circle(0j, 2.0),
                                  (geom.circle(0j, 0.5),))
        f = expr.parse("1/(z-5) + z^2")
        w = 0.1 + 0.2j
        for _ in range(2):
            assert ext.cross_verify(f, annulus).consistent
            assert abs(ext.evaluate_extension(f, annulus, w) - f(w)) < 1e-9
        assert len(calls) == 1
        route = mom.ring_route(1.5 + 0j, -1.5j)
        for _ in range(2):
            mom.construct_primitive(f, 2, 1.5 + 0j, -1.5j, route,
                                    domain=annulus)
        assert len(calls) == 2

    @pytest.mark.parametrize("name, text", [
        ("annulus", "1/z^2"),
        ("two_hole", "1/z^2 + 1/(z-3)^3 + z"),
        ("slab", "1/(z-0.2)^2 + 1/(z-(0+0.57i))")])
    def test_no_tail_integral_repeats_the_moment_table(self, request,
                                                       monkeypatch, name,
                                                       text):
        # the duality row compares the tails with the moment table, so no
        # tail may be integrated on a path that the table is integrated on,
        # nor share a stacked integral with it: with the tails centred on 0,
        # that would be the same integral
        domain = request.getfixturevalue(name)
        made, groups, kind, inside = {}, [], ["table"], [False]
        rows, each, integrate = mom._moment_rows, quad.integrate_each, \
            quad.integrate
        decompose = ext.decompose

        def recorded_rows(fn, degrees, center=0j):
            integrand = rows(fn, degrees, center)
            made[integrand] = (kind[0], center, degrees.tolist())
            return integrand

        def entries(jobs):
            return [(made[fn][0], path, *made[fn][1:]) for fn, path in jobs
                    if fn in made]

        def recorded_each(jobs, *args, **kwargs):
            groups.append(entries(jobs))
            inside[0] = True
            try:
                return each(jobs, *args, **kwargs)
            finally:
                inside[0] = False

        def recorded_integrate(fn, path, *args, **kwargs):
            if not inside[0]:
                groups.append(entries([(fn, path)]))
            return integrate(fn, path, *args, **kwargs)

        def tail_integrals(*args, **kwargs):
            kind[0] = "tail"
            try:
                return decompose(*args, **kwargs)
            finally:
                kind[0] = "table"

        monkeypatch.setattr(mom, "_moment_rows", recorded_rows)
        monkeypatch.setattr(quad, "integrate_each", recorded_each)
        monkeypatch.setattr(quad, "integrate", recorded_integrate)
        monkeypatch.setattr(ext, "decompose", tail_integrals)
        rep = ext.cross_verify(expr.parse(text), domain)
        assert rep.consistent
        assert all(len({k for k, *_ in group}) <= 1 for group in groups)
        calls = [entry for group in groups for entry in group]
        components = rep.decomposition.components
        assert [(center, degrees) for k, _, center, degrees in calls
                if k == "tail"] \
            == [(c.center, list(range(c.terms))) for c in components]
        tables = [path for k, path, center, _ in calls
                  if k == "table" and center == 0]
        assert len(tables) == len(domain.holes)
        assert not any(path is table for k, path, _, _ in calls
                       if k == "tail" for table in tables)

    def test_zero_test_scale_past_the_float_range_is_refused(self):
        # the Laurent tail scales reach^k of the annulus far from 0 leave
        # the float range at degree 58, the last of the 59 terms of cutoff
        # 58
        domain = geom.DomainSpec(geom.circle(1e5 + 0j, 2.0),
                                 (geom.circle(1e5 + 0j, 0.5),))
        with pytest.raises(ScaleOverflowError, match="degree 58"):
            ext.cross_verify(expr.parse("1/(z-100000)^2 + z"), domain, 58)

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

    def test_an_expr_refused_at_one_point_is_read_point_by_point(self):
        # the one array call of 1/z raises at 0, so each point is read
        # alone and only 0 gets no reference value
        assert ext._tail_reference(expr.parse("1/z"), np.array([0j, 2])) \
            == [None, 0.5]


class TestProbeSampler:
    def test_sampler_makes_no_scalar_winding_call(self, two_hole,
                                                  monkeypatch):
        callers = []
        winding_number = geom.winding_number

        def spy(path, point):
            callers.append(sys._getframe(1).f_code.co_name)
            return winding_number(path, point)

        monkeypatch.setattr(geom, "winding_number", spy)
        near, inner = ext._probes(two_hole)
        assert len(near) == 32 and len(inner) == 18
        assert callers == []
        ext.cross_verify(expr.parse("1/(z-9) + z"), two_hole)
        assert callers == []


def _u_hole(center, half, slot):
    """A U-shaped hole open upward, reaching half from its center on every
    side, its slot slot wide and reaching down to center."""
    wall = half - 0.5 * slot
    return geom.polygon([center + complex(x, y) for x, y in (
        (-half, -half), (half, -half), (half, half), (half - wall, half),
        (half - wall, 0.0), (wall - half, 0.0), (wall - half, half),
        (-half, half))])


@st.composite
def _probe_domains(draw):
    """1-3 holes, each filling a unit cell but for a relative width: a
    circle, a thin slab or (once) a U-shaped polygon; a lone circle sits in
    a circle, a ring. The pole of f lies outside the domain."""
    width = 10.0 ** draw(st.floats(-5.0, math.log10(0.5)))
    shapes = draw(st.lists(st.sampled_from(["circle", "slab"]), min_size=1,
                           max_size=3))
    concave = draw(st.integers(-1, len(shapes) - 1))
    if concave >= 0:
        shapes[concave] = "U"
    half = 0.5 * (1.0 - width)
    holes = tuple(geom.circle(c, half) if shape == "circle"
                  else _u_hole(c, half, 0.6 * half) if shape == "U"
                  else geom.rectangle(c - half, c + half, -0.1 * half,
                                      0.1 * half)
                  for c, shape in zip(np.arange(len(shapes)) + 0.5, shapes))
    outer = geom.circle(0.5 + 0j, 0.5) if shapes == ["circle"] \
        else geom.rectangle(0.0, len(shapes), -0.5, 0.5)
    return outer, holes, f"1/(z-({len(shapes) / 2}+2i))^2 + z^3"


def _assert_probes_placed(domain):
    """Probes on both sides of every basis curve, and in every hole. (A
    dilation whose offsets cross in a narrow slot winds twice around part
    of it.)"""
    near, inner = ext._probes(domain)
    assert np.all(geom.classify(domain, near).inside)
    for curve in geom.homology_basis(domain):
        assert {0, 1} <= set(geom._winding_many(curve, near)[0].tolist())
    where = geom.classify(domain, inner)
    assert not where.on_boundary.any()
    assert set(where.hole.tolist()) == set(range(len(domain.holes)))


class TestProbePlacement:
    @pytest.mark.parametrize("inner", [0.99, 0.999, 0.99999])
    def test_thin_rings_are_verified(self, inner):
        domain = geom.DomainSpec(geom.circle(0j, 1.0),
                                 (geom.circle(0j, inner),))
        _assert_probes_placed(domain)
        rep = ext.cross_verify(expr.parse("1/(z-3) + z^2"), domain)
        assert rep.consistent and rep.extension is not None

    @pytest.mark.parametrize("slot, fallback", [(0.3, False), (0.12, True)])
    def test_a_refused_dilation_moves_the_basis_curve(self, slot, fallback):
        # a U beside a circle has no separating circles, and a slot
        # narrower than 1.4 gaps refuses the 0.7 dilation: its probes are
        # the basis curve's points moved 0.2 gaps outward
        domain = geom.DomainSpec(geom.circle(0j, 2.0), (
            _u_hole(-0.5 + 0j, 0.5, slot), geom.circle(0.5 + 0j, 0.3)))
        assert not geom._hole_rules(domain)[0]
        if fallback:
            with pytest.raises(GeometryError, match="dilation by 0.7"):
                geom._contour(domain, 0, 0.7)
        else:
            geom._contour(domain, 0, 0.7)
        _assert_probes_placed(domain)
        rep = ext.cross_verify(expr.parse("1/(z-5) + z^2"), domain)
        assert rep.consistent and rep.extension is not None

    def test_a_dilation_hole_builds_only_the_contours_integrals_use(
            self, slab, monkeypatch):
        # a fresh domain of the slab's paths keeps no contour that another
        # test built. The slab has no separating circles, and its rings
        # come from its basis curve, so cross_verify dilates it at 0.5 and
        # 0.3 of its gap only, the contours its integrals run on, and
        # checks each dilation once
        domain = geom.DomainSpec(slab.outer, slab.holes)
        dilated, checked = [], []
        dilate, check = geom._dilated_hole, geom._basis_curves_pass
        monkeypatch.setattr(geom, "_dilated_hole", lambda hole, d:
                            dilated.append(d) or dilate(hole, d))
        monkeypatch.setattr(geom, "_basis_curves_pass", lambda *args:
                            checked.append(args[1]) or check(*args))
        rep = ext.cross_verify(expr.parse("1/(z-5) + z^2"), domain)
        assert rep.consistent and rep.extension is not None
        gap = domain.gaps[0]
        assert sorted(dilated) == [0.3 * gap, 0.5 * gap]
        assert checked == [0, 0]
        # the slab is convex: its rings lie 0.35 and 0.7 of its gap from it
        rings = geom._rings(domain, 0, ext._PROBES_PER_CURVE)
        for ring, frac in zip(np.split(rings, 2), (0.35, 0.7)):
            assert np.allclose(domain.holes[0].distance(ring), frac * gap,
                               rtol=0.0, atol=1e-12)

    def test_circle_rings_are_its_circles(self, two_hole):
        n = ext._PROBES_PER_CURVE
        for j in range(len(two_hole.holes)):
            assert geom._hole_rules(two_hole)[j]
            inner, outer = geom.basis_curve_variants(two_hole, j)
            want = np.append(inner.points_at(np.arange(n) / n),
                             outer.points_at(np.arange(n) / n))
            assert geom._rings(two_hole, j, n).tobytes() == want.tobytes()

    def test_the_whole_plane_has_no_probes(self):
        with pytest.raises(GeometryError, match="whole plane"):
            ext._probes(geom.DomainSpec(None))

    def test_a_domain_without_holes_probes_its_inside(self):
        domain = geom.DomainSpec(geom.circle(1j, 2.0))
        near, inner = ext._probes(domain)
        assert len(near) == 8 and len(inner) == 0
        assert np.all(geom.classify(domain, near).inside)
        rep = ext.cross_verify(expr.parse("exp(z)"), domain)
        assert rep.consistent
        assert list(rep.extension.points) == list(near)

    @given(case=_probe_domains())
    def test_probes_are_placed_and_verify(self, case):
        outer, holes, text = case
        try:
            domain = geom.DomainSpec(outer, holes)
            for j in range(len(holes)):
                geom.basis_curve_variants(domain, j)
        except GeometryError:
            assume(False)
        _assert_probes_placed(domain)
        rep = ext.cross_verify(expr.parse(text), domain)
        assert rep.verdict.all_orders
        assert rep.consistent, rep.findings


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
        points = ext._probes(domain)[0]
        f_at = quad._eval_batch(fn, points)
        sides = set()
        for curve in geom.homology_basis(domain):
            sides.update(geom._winding_many(curve, points)[0].tolist())
            got = -quad.integrate(ext._exact_rows(fn, points, f_at), curve,
                                  1e-12).value / (2j * math.pi)
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
        got = -quad.integrate(ext._exact_rows(_pole_plus_exp, points, f_at),
                              curve, 1e-12).value / (2j * math.pi)
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
            got = -quad.integrate(ext._exact_rows(np.exp, points,
                                                  np.exp(points)),
                                  circle, 1e-12).value / (2j * math.pi)
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
        values = ext.evaluate_extension(f, domain, points,
                                        verdict=verdict, which_contour=0)
        alts = ext.evaluate_extension(f, domain, points,
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
