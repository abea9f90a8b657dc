import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from envelope import expr
from envelope.errors import (ParseError, PoleFindingError, PoleProximityError,
                             ScaleOverflowError)


def ev(text, z):
    return expr.evaluate(expr.parse(text), z)


_DEEPEST = expr.MAX_DEPTH


def _nest(levels):
    return "(" * levels + "z" + ")" * levels


def _sum(terms):
    return "+".join(["z"] * terms)


class TestParsing:
    @pytest.mark.parametrize("text,z,expected", [
        ("1+2*3", 0j, 7 + 0j),
        ("2*3^2", 0j, 18 + 0j),
        ("-z^2", 2 + 0j, -4 + 0j),
        ("(-z)^2", 2 + 0j, 4 + 0j),
        ("z^-2", 2 + 0j, 0.25 + 0j),
        ("2z", 3 + 0j, 6 + 0j),
        ("z(z+1)", 2 + 0j, 6 + 0j),
        ("1/2z", 4 + 0j, 2 + 0j),
        ("(1+2i)", 0j, 1 + 2j),
        ("(-1-2i)", 0j, -1 - 2j),
        ("(0+2i)*z", 1j, -2 + 0j),
        ("exp(0)", 5j, 1 + 0j),
        ("z/z/z", 4 + 0j, 0.25 + 0j),
        ("1 - 2 - 3", 0j, -4 + 0j),
        # parenthesised sums that leave the complex literal rule after
        # their real part and after their second number
        ("1/(2+z)", 2 + 0j, 0.25 + 0j),
        ("(1+2)*z", 2 + 0j, 6 + 0j),
    ])
    def test_evaluation_oracles(self, text, z, expected):
        assert ev(text, z) == pytest.approx(expected)

    def test_exponent_must_be_integer(self):
        with pytest.raises(ParseError):
            expr.parse("z^1.5")

    def test_no_exponent_chains(self):
        with pytest.raises(ParseError):
            expr.parse("z^2^3")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            expr.parse("1/(z-")
        assert err.value.position == 5

    @pytest.mark.parametrize("text, message, position", [
        ("z $ 1", "unexpected character '$'", 2),
        ("exp z", "expected '('", 4),
        ("z^", "expected an integer exponent", 2),
        ("z^x", "expected an integer exponent", 2),
        # a complex literal missing its ')', not an identifier 'i'
        ("(1+2i", "expected ')'", 5),
    ])
    def test_error_names_what_was_expected(self, text, message, position):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            expr.parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text, number, position", [
        ("1e999*z", "1e999", 0),
        ("z + 2.5e400", "2.5e400", 4),
        ("(1e999+2i)*z", "1e999", 1),
        ("(1+1e999i)", "1e999", 3),
        ("(-1e400-1i)/z", "1e400", 2),
    ])
    def test_literal_past_the_float_range_is_refused(self, text, number,
                                                     position):
        with pytest.raises(ParseError, match=re.escape(
                f"number {number} lies past the float range")) as err:
            expr.parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["1e308*z", "(1e-999+1e308i)", "3^700*z"])
    def test_literal_within_the_float_range_is_kept(self, text):
        # a power past the range is computed, not read: it stays inf
        node = expr.parse(text)
        assert expr.parse(expr.format_expr(node)) == node

    @pytest.mark.parametrize("deepest, past, position", [
        # parentheses open at once, then a tree this many nodes deep
        pytest.param(_nest(_DEEPEST), _nest(_DEEPEST + 1), _DEEPEST,
                     id="parentheses"),
        pytest.param(_sum(_DEEPEST), _sum(_DEEPEST + 1), 2 * _DEEPEST - 1,
                     id="sum"),
    ])
    def test_depth_limit(self, deepest, past, position):
        # every walk of the deepest tree stays inside the recursion limit
        node = expr.parse(deepest)
        assert expr.parse(expr.format_expr(node)) == node
        assert hash(node) == hash(expr.parse(deepest))
        assert expr.pole_set(node) == []
        value = ev(deepest, 0.5 + 0j)
        assert value == ev(deepest, np.array([0.5 + 0j]))[0] != 0
        with pytest.raises(ParseError, match="nested deeper than 100 levels"
                           ) as err:
            expr.parse(past)
        assert err.value.position == position

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError):
            expr.parse("sin(z)")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            expr.parse("   ")

    def test_roundtrip_through_format(self, rng):
        texts = ["1/z^2", "(1+2i)z^3 - 4", "exp(1/z)", "z(z-1)(z+1)",
                 "(z^2+1)/(z-3)^2", "-z^-3 + 2/z"]
        zs = rng.uniform(-2, 2, 8) + 1j * rng.uniform(0.5, 2, 8)
        for text in texts:
            node = expr.parse(text)
            again = expr.parse(expr.format_expr(node))
            for z in zs:
                assert expr.evaluate(again, z) == pytest.approx(
                    expr.evaluate(node, z), rel=1e-12)


class TestEvaluation:
    def test_array_broadcast(self):
        zs = np.array([1 + 0j, 2 + 0j, 1j])
        out = ev("z^2 + 1", zs)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, zs ** 2 + 1)

    def test_scalar_returns_complex(self):
        out = ev("z+1", 2 + 0j)
        assert isinstance(out, complex)

    def test_pole_guard_scalar(self):
        with pytest.raises(PoleProximityError):
            ev("1/z", 1e-12 + 0j)

    def test_pole_guard_array(self):
        zs = np.array([1 + 0j, 1e-12 + 0j])
        with pytest.raises(PoleProximityError):
            ev("1/z", zs)

    def test_pole_guard_negative_power(self):
        with pytest.raises(PoleProximityError):
            ev("z^-1", 0j)

    @pytest.mark.parametrize("base, n", [
        (3, 700), (-3, 701), (3 + 1j, 700), (2, 99999999999999999999)])
    def test_scalar_power_past_the_float_range_is_the_array_power(self, base,
                                                                   n):
        with np.errstate(over="ignore", invalid="ignore"):
            want = (np.array([complex(base)]) ** n)[0]
        assert expr.evaluate(expr.Pow(expr.Z, n), complex(base)) == want


class TestPoleSet:
    def test_double_pole_from_product(self):
        records = expr.pole_set(expr.parse("1/((z-1)(z-1))"))
        assert len(records) == 1
        assert records[0].location == pytest.approx(1 + 0j, abs=1e-8)
        assert records[0].order == 2

    def test_cancellation_reduces_order(self):
        records = expr.pole_set(expr.parse("(z-1)/(z-1)^3"))
        assert [(r.order,) for r in records] == [(2,)]

    def test_triple_pole_cluster_polish(self):
        records = expr.pole_set(expr.parse("1/(z-1)^3"))
        assert len(records) == 1
        assert records[0].order == 3
        assert records[0].location == pytest.approx(1 + 0j, abs=1e-8)

    def test_conjugate_pair(self):
        records = expr.pole_set(expr.parse("1/(z^2+1)"))
        locs = sorted((r.location.real, r.location.imag) for r in records)
        assert locs[0][1] == pytest.approx(-1.0, abs=1e-10)
        assert locs[1][1] == pytest.approx(1.0, abs=1e-10)
        assert all(r.order == 1 for r in records)

    def test_exp_argument_defeats_analysis(self):
        assert expr.pole_set(expr.parse("exp(1/z)")) is None

    def test_entire_function_has_no_poles(self):
        assert expr.pole_set(expr.parse("z^2 + 1")) == []

    def test_any_exp_defeats_analysis(self):
        # even an entire exp reports unknown: the analysis covers
        # rational functions only
        assert expr.pole_set(expr.parse("exp(z)")) is None

    def test_zero_denominator_rejected(self):
        with pytest.raises(PoleFindingError):
            expr.pole_set(expr.parse("1/(z-z)"))

    def test_poles_sorted_and_complete(self):
        records = expr.pole_set(
            expr.parse("(2+0i)/((z-(1+1i))^2 (z+3))"))
        assert [r.order for r in records] == [1, 2]
        assert records[0].location == pytest.approx(-3 + 0j, abs=1e-8)
        assert records[1].location == pytest.approx(1 + 1j, abs=1e-8)

    def test_pure_power_pole_at_origin(self):
        records = expr.pole_set(expr.parse("1/z^5"))
        assert [(r.location, r.order) for r in records] == [(0j, 5)]

    @pytest.mark.parametrize("text, location, order", [
        ("z^-2", 0j, 2),
        ("(z-2)^-1*(z-2)^-2", 2 + 0j, 3),
    ])
    def test_negative_exponents_are_denominator_powers(self, text, location,
                                                       order):
        records = expr.pole_set(expr.parse(text))
        assert [(r.location, r.order) for r in records] == [(location, order)]

    @pytest.mark.parametrize("text, error", [
        ("z^-1000000", "order bound 1000000 at 0+0j exceeds cap 64"),
        ("(1+0.00000001z)^-100000",
         "order bound 100000 at -1e+08+0j exceeds cap 64"),
        ("z^-99999999999999999999",
         "order bound 99999999999999999999 at 0+0j exceeds cap 64"),
        ("2^99999999999999999999", None),
        ("3^700*z", None),
    ])
    def test_huge_powers_take_few_products(self, text, error):
        # an order bound past the cap is refused from the exponent alone,
        # before any series is formed; a power of a constant has no
        # divisor, so no pole to bound
        if error is None:
            assert expr.pole_set(expr.parse(text)) == []
        else:
            with pytest.raises(PoleFindingError, match=re.escape(error)):
                expr.pole_set(expr.parse(text))

    def test_property_random_rationals_agree_with_roots(self, rng):
        for _ in range(10):
            roots = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
            text = "1/(" + "".join(
                f"(z-({r.real:.6f}{r.imag:+.6f}i))" for r in roots) + ")"
            records = expr.pole_set(expr.parse(text))
            found = sorted((r.location for r in records),
                           key=lambda c: (c.real, c.imag))
            want = sorted(roots, key=lambda c: (c.real, c.imag))
            assert len(found) == 3
            for a, b in zip(found, want):
                assert a == pytest.approx(b, abs=1e-6)

    @pytest.mark.parametrize("text, poles", [
        ("(z-1)^-64", [(1, 64)]),
        ("1/(z-10000)^3 + 1/(z-10000.01)^3", [(10000, 3), (10000.01, 3)]),
        ("1/(z-8.8)^3 + 1/(z-11.2)^3", [(8.8, 3), (11.2, 3)]),
        ("1/(z-(998.8+2000i))^3 + 1/(z-(1001.2+2000i))^3",
         [(998.8 + 2000j, 3), (1001.2 + 2000j, 3)]),
        ("1/(z-0.0000012) + 1/(z+0.0000012)", [(-1.2e-6, 1), (1.2e-6, 1)]),
        ("1/(z-1)^2 + 1/(z-1) - 1/(z-1)^2", [(1, 1)]),
        ("0.1/(z-1) + 0.2/(z-1) - 0.3/(z-1)", []),
        ("1/(z-100000)^2 + z", [(100000, 2)]),
        ("1/(z^2-2z+1)", [(1, 2)]),
        ("(z-1)/(z-1.00001)", [(1.00001, 1)]),
        ("(z-1)^-40*(z-1)^40 + 1/(z-2)", [(2, 1)]),
        ("((z-2)/(z-1))^-2", [(2, 2)]),
    ])
    def test_orders_from_the_laurent_series(self, text, poles):
        # the zeros of linear factors are exact however close, and the
        # series there counts cancelling terms and factors
        records = expr.pole_set(expr.parse(text))
        assert [(r.location, r.order) for r in records] == poles

    @pytest.mark.parametrize("text, error, match", [
        ("1/(z-1)^60 + 1/(z-1.000001)^4", ScaleOverflowError,
         "the series at 1+0j overflows"),
        ("1/(1 + 1/z)", PoleFindingError,
         "divisor (1 + (1 / z)): no polynomial of degree 64 or less"),
        ("1/(z^65 + 1)", PoleFindingError, "of degree 64 or less"),
        # roots 1e-10 apart merge, but the sum does not vanish twice there
        ("1/(z^2 - 0.00000000000000000001)", PoleFindingError,
         "(z^2 - 1e-20) has no zero of order 2"),
    ])
    def test_refusals(self, text, error, match):
        with pytest.raises(error, match=re.escape(match)):
            expr.pole_set(expr.parse(text))


def _literal(c: complex) -> str:
    sign = "-" if math.copysign(1.0, c.imag) < 0 else "+"
    return f"({c.real!r}{sign}{abs(c.imag)!r}i)"


@st.composite
def _rationals(draw):
    """Sums over 1 to 5 sites, a centre p with |p| up to 1e4 and the others
    along a ray from it at steps of 1e-6 to 9 times max(1, |p|), of terms
    a/(z-p)^m (m up to 64), a/((z-p)^m (z-q)^k) and a (z-q)^k/(z-p)^m, some
    added with their exact negation. One draw in four is crowded: its first
    two terms are poles, of order 48 or more at p and at a site 1e-8 to
    1e-5 from p, whose series mostly leave the float range. Returns the
    text, the order of the pole at each site, and log10 of the largest
    |a| s^-m of the first kind, s the distance from p to the nearest other
    zero of a divisor, at most 1."""
    center = 10 ** draw(st.floats(-3, 4)) * cmath.exp(
        1j * draw(st.floats(0, 6.3)))
    ray = max(1.0, abs(center)) * cmath.exp(1j * draw(st.floats(0, 6.3)))
    sites, step, lowest = [center], 0.0, []
    if draw(st.integers(0, 3)) == 0:
        sites.append(center + 10 ** draw(st.floats(-8, -5)) * cmath.exp(
            1j * draw(st.floats(0, 6.3))))
        lowest = [48, 1]
    for _ in range(draw(st.integers(0, 3))):
        step += 10.0 ** draw(st.integers(-6, 0)) * draw(st.floats(1, 9))
        sites.append(center + step * ray)
    assume(len(set(sites)) == len(sites))
    texts, orders, zeros, poles = [], dict.fromkeys(sites, 0), set(), []
    for i in range(draw(st.integers(max(1, len(lowest)), 5))):
        kind = "pole" if i < len(lowest) else draw(
            st.sampled_from(["pole", "product", "quotient"]))
        p, q = (draw(st.sampled_from(sites)) for _ in "pq")
        if i < len(lowest):
            p = sites[i]
        a = complex(draw(st.floats(0.5, 2)), draw(st.floats(-2, 2)))
        m = draw(st.integers(lowest[i] if i < len(lowest) else 1,
                             64 if kind == "pole" else 4))
        k = draw(st.integers(int(kind == "product"), 4))
        text, own = {
            "pole": (f"{_literal(a)}/(z-{_literal(p)})^{m}", {p: m}),
            "product": (f"{_literal(a)}/((z-{_literal(p)})^{m}"
                        f"*(z-{_literal(q)})^{k})",
                        {p: m + k} if p == q else {p: m, q: k}),
            "quotient": (f"{_literal(a)}*(z-{_literal(q)})^{k}"
                         f"/(z-{_literal(p)})^{m}",
                         {p: m - k if p == q else m}),
        }[kind]
        zeros.update({p, q} if kind == "product" else {p})
        if kind == "pole":
            poles.append((p, m, a))
        if draw(st.integers(0, 3)) == 0:
            texts.append(f"({text} - {text})")
        else:
            texts.append(text)
            for site, order in own.items():
                orders[site] = max(orders[site], order)
    reach = max((math.log10(abs(a)) - m * math.log10(min(
        [1.0, *(abs(p - w) for w in zeros if w != p)]))
        for p, m, a in poles), default=-math.inf)
    return " + ".join(texts), orders, reach


class TestPoleCensus:
    @given(_rationals())
    @example(("1/(z-1)^60 + 1/(z-1.000001)^4", {1: 60, 1.000001: 4}, 360.0))
    def test_exact_pole_sets(self, drawn):
        text, orders, reach = drawn
        # between these the float range may or may not hold a coefficient
        assume(not 290 < reach < 310)
        if reach >= 310:
            with pytest.raises(ScaleOverflowError):
                expr.pole_set(expr.parse(text))
            return
        want = sorted(((site, order) for site, order in orders.items()
                       if order > 0), key=lambda pole: (pole[0].real,
                                                        pole[0].imag))
        records = expr.pole_set(expr.parse(text))
        assert [(r.location, r.order) for r in records] == want


def test_census_walks_each_site_past_the_other_terms(monkeypatch):
    # the sum of 1/(z - k) for k = 1..n: each site's walk skips the
    # subtrees that hold no divisor zero there, and the sums whose other
    # operand holds none, so _Local.bound runs a fixed number of times per
    # site, n times in all (where every site walked the whole tree, the
    # count grew as n^2)
    calls = []
    bound = expr._Local.bound
    monkeypatch.setattr(expr._Local, "bound", lambda local, node: calls.append(
        node) or bound(local, node))

    def census(n):
        calls.clear()
        node = expr.parse(" + ".join(f"1/(z-{k})" for k in range(1, n + 1)))
        records = expr.pole_set(node)
        assert [(r.location, r.order) for r in records] \
            == [(complex(k), 1) for k in range(1, n + 1)]
        return len(calls)

    counts = [census(n) for n in (10, 20, 40)]
    assert counts == [counts[0], 2 * counts[0], 4 * counts[0]]
