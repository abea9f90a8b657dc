"""Expression front end for holomorphic integrands.

The grammar admits only operations that keep a function single valued and
holomorphic on its natural domain: rational arithmetic, integer powers and
exp. There is deliberately no log and no fractional power.

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*     adjacent factors multiply
    factor  := '-' factor | base ('^' signed_int)?
    base    := 'z' | number | '(' expr ')' | 'exp' '(' expr ')'
    number  := real | '(' ['-'] real ('+'|'-') real 'i' ')'

Whitespace is insignificant and '^' binds tighter than unary minus, so
-z^2 means -(z^2).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (ParseError, PoleFindingError, PoleProximityError,
                     ScaleOverflowError)

DEFAULT_POLE_EXCLUSION = 1e-9

# The pole census refuses a divisor polynomial of higher degree, and an
# order bound past it.
POLY_DEGREE_CAP = 64

# The deepest expression parse accepts: a tree at most this many nodes
# deep, with at most this many parentheses, exp( and unary minuses open at
# once. Parsing takes at most five Python frames an open level and every
# walk of the tree (evaluating, pole finding, printing, hashing, comparing)
# at most three a node, so all stay well inside Python's default
# recursion limit of 1000; and the text format_expr gives for a parsed
# tree parses.
MAX_DEPTH = 100

# np.roots scatters an m-fold root of a divisor polynomial of degree 2 or
# more by about eps**(1/m), so its roots merge within this radius.
ROOT_CLUSTER_RADIUS = 1e-4


class Expr:
    """Base class for AST nodes. Nodes are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_expr(self)

    def __call__(self, z):
        return evaluate(self, z)


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Var(Expr):
    """The sole free variable z."""


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


Z = Var()


@dataclass(frozen=True)
class PoleRecord:
    location: complex
    order: int


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.level = 0  # parentheses, exp( and unary minuses open

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Expr:
        node, _ = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    # Each rule returns its node and the node's height in tree levels.

    def _within(self, levels: int, pos: int) -> int:
        """levels, of the node built or of the groups open at pos; refused
        past MAX_DEPTH."""
        if levels > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} "
                             "levels", pos)
        return levels

    def _nested(self, rule, pos: int) -> tuple[Expr, int]:
        """rule() read inside the parentheses, exp( or unary minus at
        pos."""
        self.level = self._within(self.level + 1, pos)
        out = rule()
        self.level -= 1
        return out

    def expr(self) -> tuple[Expr, int]:
        node, height = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs, h = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
                height = self._within(1 + max(height, h), pos)
            else:
                return node, height

    def _starts_base(self) -> bool:
        kind, val, _ = self.peek()
        return kind in ("num", "ident") or (kind == "op" and val == "(")

    def term(self) -> tuple[Expr, int]:
        node, height = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
            elif not self._starts_base():
                return node, height
            # else val starts a factor that multiplies implicitly
            rhs, h = self.factor()
            node = Div(node, rhs) if val == "/" else Mul(node, rhs)
            height = self._within(1 + max(height, h), pos)

    def factor(self) -> tuple[Expr, int]:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            inner, height = self._nested(self.factor, pos)
            if isinstance(inner, Const):
                return Const(-inner.value), height
            return Mul(Const(-1 + 0j), inner), self._within(height + 1, pos)
        node, height = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = Pow(node, self.signed_int())
            height = self._within(height + 1, pos)
        return node, height

    def signed_int(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        if not re.fullmatch(r"\d+", val):
            raise ParseError("exponent must be an integer", pos)
        return sign * int(val)

    def base(self) -> tuple[Expr, int]:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(complex(self._real(val, pos), 0.0)), 1
        if kind == "ident":
            if val == "z":
                return Z, 1
            if val == "exp":
                self.expect_op("(")
                arg, height = self._nested(self.expr, pos)
                self.expect_op(")")
                return Exp(arg), self._within(height + 1, pos)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            lit = self._complex_literal()
            if lit is not None:
                return lit, 1
            node = self._nested(self.expr, pos)
            self.expect_op(")")
            return node
        raise ParseError(
            f"expected 'z', a number, '(' or 'exp', found {val or 'end of input'!r}",
            pos,
        )

    def _accept(self, kind: str, values: tuple[str, ...] = ()) -> str | None:
        """The next token's text, consumed, when it has this kind (and one
        of these values); None otherwise."""
        tok_kind, val, _ = self.peek()
        if tok_kind != kind or (values and val not in values):
            return None
        self.next()
        return val

    def _complex_literal(self) -> Const | None:
        """Try '(' [-] real (+|-) real 'i' ')' starting just after '('.
        Once its 'i' is read the text can only be a literal, so a missing
        ')' is an error rather than a reason to backtrack."""
        mark = self.i
        minus = self._accept("op", ("-",))
        re_tok = self.peek()
        re_part = self._accept("num")
        sign = re_part and self._accept("op", ("+", "-"))
        im_tok = self.peek()
        im_part = sign and self._accept("num")
        if not (im_part and self._accept("ident", ("i",))):
            self.i = mark
            return None
        self.expect_op(")")
        x, y = (self._real(val, pos) for _, val, pos in (re_tok, im_tok))
        return Const(complex(-x if minus else x, y if sign == "+" else -y))

    @staticmethod
    def _real(text: str, pos: int) -> float:
        """A real literal's float; one past the float range is refused."""
        x = float(text)
        if math.isinf(x):
            raise ParseError(f"number {text} lies past the float range", pos)
        return x


def parse(text: str) -> Expr:
    """Parse expression text into an AST.

    Raises ParseError with the offending position on malformed input or
    unknown identifiers.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

def evaluate(node: Expr, z):
    """Evaluate an AST at z, which may be a complex scalar or ndarray.

    Raises PoleProximityError whenever a divisor magnitude (or the base of a
    negative power) falls below DEFAULT_POLE_EXCLUSION; for a linear
    denominator z - a that is exactly the distance to the pole. A value
    past the float range is inf or nan, with no numpy warning; the callers
    test values for finiteness.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval(node, z)
    if isinstance(z, np.ndarray):
        return np.broadcast_to(np.asarray(out, dtype=complex), z.shape).copy() \
            if np.ndim(out) == 0 else out
    return complex(out)


def _too_small(values) -> bool:
    return bool(np.min(np.abs(values)) < DEFAULT_POLE_EXCLUSION)


def _eval(node: Expr, z):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return z
    if isinstance(node, Add):
        return _eval(node.left, z) + _eval(node.right, z)
    if isinstance(node, Sub):
        return _eval(node.left, z) - _eval(node.right, z)
    if isinstance(node, Mul):
        return _eval(node.left, z) * _eval(node.right, z)
    if isinstance(node, Div):
        den = _eval(node.right, z)
        if _too_small(den):
            raise PoleProximityError("divisor magnitude below exclusion "
                                     f"radius {DEFAULT_POLE_EXCLUSION:g}")
        return _eval(node.left, z) / den
    if isinstance(node, Pow):
        base = _eval(node.base, z)
        if node.exponent < 0 and _too_small(base):
            raise PoleProximityError("negative power base below exclusion "
                                     f"radius {DEFAULT_POLE_EXCLUSION:g}")
        if isinstance(base, np.ndarray):
            return base ** node.exponent
        return _power(base, node.exponent)
    if isinstance(node, Exp):
        return np.exp(_eval(node.arg, z))
    raise TypeError(f"not an Expr node: {node!r}")


def _power(base: complex, n: int) -> complex:
    """base ** n for a scalar; inf past the float range, as the array power
    gives, where Python's complex power raises OverflowError."""
    try:
        return complex(base) ** n
    except OverflowError:
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(np.complex128(base) ** n)


# ---------------------------------------------------------------------------
# printing

def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def format_expr(node: Expr) -> str:
    """Render an AST as grammar-conformant text.

    parse(format_expr(a)) evaluates identically to a (the tree may differ
    in shape where constants folded).
    """
    if isinstance(node, Const):
        re_part, im_part = node.value.real, node.value.imag
        if im_part == 0:
            return _fmt_real(re_part)
        sign = "+" if im_part >= 0 else "-"
        return f"({_fmt_real(re_part)}{sign}{_fmt_real(abs(im_part))}i)"
    if isinstance(node, Var):
        return "z"
    op = _BINARY.get(type(node))
    if op is not None:
        return f"({format_expr(node.left)} {op} {format_expr(node.right)})"
    if isinstance(node, Pow):
        base = format_expr(node.base)
        simple = isinstance(node.base, Var) or (
            isinstance(node.base, Const)
            and node.base.value.imag == 0
            and node.base.value.real >= 0)
        if not simple:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Exp):
        return f"exp({format_expr(node.arg)})"
    raise TypeError(f"not an Expr node: {node!r}")


# ---------------------------------------------------------------------------
# pole analysis: from the zeros of the factors of the divisors (right operands
# of '/', bases of negative powers) and Laurent series there, in which a sum's
# coefficient within this fraction of its operands' is rounding, so zero
_CANCELLED = 64 * np.finfo(float).eps


def _factors(node: Expr) -> list[tuple[Expr, int]]:
    """node as a product of powers of its children; [] for a sum or leaf."""
    return [(node.base, node.exponent)] if isinstance(node, Pow) else [
        (node.left, 1), (node.right, -1 if isinstance(node, Div) else 1)] \
        if isinstance(node, (Mul, Div)) else []


def _degree(node: Expr) -> int | None:
    """The degree of a tree without exp; None for one with divisors."""
    kids = [_degree(x) for x in vars(node).values() if isinstance(x, Expr)]
    if None in kids or any(e < 0 for _, e in _factors(node)):
        return None
    return kids[0] * node.exponent if isinstance(node, Pow) else sum(kids) \
        if isinstance(node, Mul) else max(kids, default=int(node == Z))


class _Local:
    """Laurent series in u = (z - c) / s; orders: divisor factors' zeros;
    below: the divisor factors in each node's subtree, by id."""

    def __init__(self, c: complex, s: float, orders: dict[int, int],
                 below: dict[int, set[int]] | None = None):
        self.c, self.s, self.orders, self.bounds = c, s, orders, {}
        self.below = below or {}

    def bound(self, node: Expr) -> int:
        """The lowest power of u in node's series; exact for a divisor. A
        subtree that holds no divisor zero here has bound 0 without a walk:
        only orders make a bound other than 0."""
        if not self.holds(node):
            return 0
        if id(node) not in self.bounds:
            if _factors(node):
                v = sum(e * self.bound(x) for x, e in _factors(node))
            else:  # a zero order, or a sum's lower bound
                v = self.orders.get(id(node), min(
                    self.bound(node.left), self.bound(node.right))
                    if isinstance(node, (Add, Sub)) else 0)
            if abs(v) > POLY_DEGREE_CAP:
                raise PoleFindingError(f"order bound {abs(v)} at {self.c:.6g}"
                                       f" exceeds cap {POLY_DEGREE_CAP}")
            self.bounds[id(node)] = v
        return self.bounds[id(node)]

    def holds(self, node: Expr) -> bool:
        """Whether a divisor zero here lies in node's subtree."""
        return not self.orders.keys().isdisjoint(self.below.get(id(node), ()))

    def poles(self, node: Expr) -> Expr:
        """The node whose series at negative powers is node's but for
        signs: down through every sum with one operand that holds no
        divisor zero here, whose series there is empty, into the other."""
        while isinstance(node, (Add, Sub)) and id(node) not in self.orders:
            held = [x for x in (node.left, node.right) if self.holds(x)]
            if len(held) != 1:
                break
            node, = held
        return node

    def series(self, node: Expr, top: int) -> np.ndarray:
        """node's coefficients of the powers bound(node) .. top of u."""
        n = max(0, top - (low := self.bound(node)) + 1)
        if not n or isinstance(node, (Const, Var)):
            leaf = [node.value] if type(node) is Const else [self.c, self.s]
            out = np.array((leaf + [0] * (low + n))[low:][:n], dtype=complex)
        elif factors := _factors(node):  # each to top less cofactors' lows
            lows = [e * self.bound(x) for x, e in factors]
            parts = [self.power(x, e, top - sum(lows) + own)
                     for (x, e), own in zip(factors, lows)]
            out = parts[0] if len(parts) == 1 else np.convolve(*parts)[:n]
        else:
            a, b = (self.series(x, top) for x in (node.left, node.right))
            a, b = (np.concatenate([np.zeros(max(a.size, b.size, n) - p.size),
                                    p]) for p in (a, b))
            out = a + b if isinstance(node, Add) else a - b
            out[abs(out) <= _CANCELLED * np.maximum(abs(a), abs(b))] = 0
            if out[:out.size - n].any():
                raise PoleFindingError(f"{format_expr(node)} has no zero of "
                                       f"order {low} at {self.c:.6g}")
            out = out[out.size - n:]
        if not np.isfinite(out).all():
            raise ScaleOverflowError(f"the series at {self.c:.6g} overflows")
        return out

    def power(self, node: Expr, e: int, top: int) -> np.ndarray:
        """series() of node^e, by a power of node's Toeplitz matrix."""
        m, low = top - e * self.bound(node) + 1, self.bound(node)
        a = np.append(self.series(node, top - (e - 1) * low) if e else 1,
                      np.zeros(m))
        if e < 0 and not a[0]:  # a divisor underflowed to 0
            return np.full(m, np.inf)
        return np.linalg.matrix_power(np.tril(a[np.subtract.outer(
            range(m), range(m))]), e)[:, 0]


def _divisor_zeros(node: Expr) -> list[tuple[complex, float, int, int]]:
    """Each zero of a divisor's polynomial factors: where it is, within what
    radius it merges, its order and the factor's id."""
    if _factors(node):  # a divisor's poles are found as such
        return [z for x, e in _factors(node) if e > 0
                for z in _divisor_zeros(x)]
    degree = _degree(node)
    if degree is None or degree > POLY_DEGREE_CAP:
        raise PoleFindingError(f"divisor {format_expr(node)}: no polynomial "
                               f"of degree {POLY_DEGREE_CAP} or less")
    coeffs = np.trim_zeros(_Local(0j, 1.0, {}).series(node, degree), "b")
    if not coeffs.size:
        raise PoleFindingError("denominator is identically zero")
    try:  # exactly -b/a; real coefficients keep conjugate roots conjugate
        roots = [-coeffs[0] / coeffs[1]] if coeffs.size == 2 else np.roots(
            (coeffs if coeffs.imag.any() else coeffs.real)[::-1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise PoleFindingError(f"root finding failed: {exc}") from exc
    radius = _CANCELLED if coeffs.size == 2 else ROOT_CLUSTER_RADIUS
    return [(complex(c) + 0j, radius * max(1.0, abs(c)), k, id(node))
            for c, k in _cluster(roots)]


def _cluster(roots: np.ndarray) -> list[tuple[complex, int]]:
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda w: (w.real, w.imag)):
        near = [m for m in clusters if abs(r - sum(m) / len(m))
                <= ROOT_CLUSTER_RADIUS * max(1.0, abs(sum(m) / len(m)))]
        if near:
            near[0].append(r)
        else:
            clusters.append([r])
    return [(sum(m) / len(m), len(m)) for m in clusters]


def pole_set(node: Expr) -> list[PoleRecord] | None:
    """Locate poles of a rational expression: PoleRecords sorted by (re, im),
    or None when it holds an exp. The zero of a linear factor is exact; the
    roots of a higher degree factor merge within ROOT_CLUSTER_RADIUS."""
    nodes = [node]
    for x in nodes:  # grows as it is walked, to every node of the tree
        nodes += [y for y in vars(x).values() if isinstance(y, Expr)]
    if any(isinstance(x, Exp) for x in nodes):
        return None
    sites: dict[complex, dict[int, int]] = {}  # factor orders at each site
    poles = []
    with np.errstate(all="ignore"):
        zeros = [zero for x in nodes for divisor, e in _factors(x) if e < 0
                 for zero in _divisor_zeros(divisor)]
        for z, radius, order, key in sorted(zeros, key=lambda zero: zero[1]):
            sites.setdefault(next((w for w in sites if abs(z - w) <= radius),
                                  z), {})[key] = order
        keys = {zero[3] for zero in zeros}
        below: dict[int, set[int]] = {}  # children before their parents
        for x in reversed(nodes):
            below[id(x)] = set({id(x)} & keys).union(*(
                below[id(y)] for y in vars(x).values() if isinstance(y, Expr)))
        for c, orders in sites.items():  # u = 1 at the nearest other site
            local = _Local(c, min([1.0, *(abs(c - w) for w in sites
                                          if w != c)]), orders, below)
            held = local.poles(node)
            nonzero = np.flatnonzero(local.series(held, -1))
            if nonzero.size:
                poles.append(PoleRecord(complex(c), int(-local.bound(held)
                                                        - nonzero[0])))
    return sorted(poles, key=lambda p: (p.location.real, p.location.imag))
