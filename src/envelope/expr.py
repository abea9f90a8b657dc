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
from numpy.polynomial import polynomial as _npoly

from .errors import ParseError, PoleFindingError, PoleProximityError

DEFAULT_POLE_EXCLUSION = 1e-9

# Rational analysis gives up beyond this expanded polynomial degree.
POLY_DEGREE_CAP = 64

# The deepest expression parse accepts: a tree at most this many nodes
# deep, with at most this many parentheses, exp( and unary minuses open at
# once. Parsing takes at most five Python frames an open level and every
# walk of the tree (evaluating, expanding, printing, hashing, comparing)
# at most three a node, so all stay well inside Python's default
# recursion limit of 1000; and the text format_expr gives for a parsed
# tree parses.
MAX_DEPTH = 100

# Companion-matrix eigenvalues of an m-fold root scatter by roughly
# eps**(1/m) (about 6e-6 for m=3), so clustering must be much wider than
# machine precision. Distinct poles closer than this merge; that is out of
# scope at desk scale.
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
# pole analysis

def _poly_trim(c: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.abs(c) > 1e-14 * scale
    last = int(np.max(np.nonzero(keep)[0])) if keep.any() else 0
    return c[: last + 1]


def _check_degree(degree: int) -> None:
    if degree > POLY_DEGREE_CAP:
        raise PoleFindingError(
            f"expanded degree {degree} exceeds cap {POLY_DEGREE_CAP}")


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _poly_trim(np.convolve(a, b))
    _check_degree(out.size - 1)
    return out


def _poly_add(a: np.ndarray, b: np.ndarray, sign: float = 1.0) -> np.ndarray:
    n = max(a.size, b.size)
    out = np.zeros(n, dtype=complex)
    out[: a.size] += a
    out[: b.size] += sign * b
    return _poly_trim(out)


def _poly_pow(a: np.ndarray, n: int) -> np.ndarray:
    # the degree before trimming bounds the products: trimmed products can
    # stay short, and a constant's never grow
    _check_degree(n * (a.size - 1))
    if n > POLY_DEGREE_CAP:  # a constant
        return _poly_trim(np.array([_power(a[0], n)]))
    out = np.ones(1, dtype=complex)
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def _as_rational(node: Expr) -> tuple[np.ndarray, np.ndarray] | None:
    """Return (numerator, denominator) coefficient arrays (ascending powers),
    or None when the expression is not rational."""
    if isinstance(node, Const):
        return np.array([node.value], dtype=complex), np.ones(1, dtype=complex)
    if isinstance(node, Var):
        return np.array([0, 1], dtype=complex), np.ones(1, dtype=complex)
    if isinstance(node, Exp):
        return None
    if isinstance(node, Pow):
        a = _as_rational(node.base)
        if a is None:
            return None
        n = node.exponent
        if n >= 0:
            return _poly_pow(a[0], n), _poly_pow(a[1], n)
        return _poly_pow(a[1], -n), _poly_pow(a[0], -n)
    if type(node) not in _BINARY:
        raise TypeError(f"not an Expr node: {node!r}")
    a, b = _as_rational(node.left), _as_rational(node.right)
    if a is None or b is None:
        return None
    if isinstance(node, Mul):
        return _poly_mul(a[0], b[0]), _poly_mul(a[1], b[1])
    if isinstance(node, Div):
        return _poly_mul(a[0], b[1]), _poly_mul(a[1], b[0])
    sign = 1.0 if isinstance(node, Add) else -1.0
    num = _poly_add(_poly_mul(a[0], b[1]), _poly_mul(b[0], a[1]), sign)
    return num, _poly_mul(a[1], b[1])


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    if coeffs.size <= 1:
        return np.zeros(0, dtype=complex)
    try:
        return np.roots(coeffs[::-1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise PoleFindingError(f"root finding failed to converge: {exc}") from exc


def _cluster(roots: np.ndarray) -> list[tuple[complex, int]]:
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda w: (w.real, w.imag)):
        for members in clusters:
            center = sum(members) / len(members)
            if abs(r - center) <= ROOT_CLUSTER_RADIUS * max(1.0, abs(center)):
                members.append(r)
                break
        else:
            clusters.append([r])
    return [(sum(m) / len(m), len(m)) for m in clusters]


def _polish(center: complex, mult: int, den: np.ndarray) -> complex:
    """Newton iterations on the (mult-1)st derivative, where the root is
    simple, to undo the eigenvalue scatter of repeated roots."""
    d = _npoly.polyder(den, mult - 1)
    dp = _npoly.polyder(d)
    w = center
    for _ in range(4):
        denom = _npoly.polyval(w, dp)
        if abs(denom) == 0:
            break
        w = w - _npoly.polyval(w, d) / denom
    if abs(w - center) > 10 * ROOT_CLUSTER_RADIUS * max(1.0, abs(center)):
        return center
    return w


def pole_set(node: Expr) -> list[PoleRecord] | None:
    """Locate poles of a rational expression.

    Returns PoleRecords sorted by (re, im), or None when the expression is
    not rational (contains exp) and the pole set is unknown. Numerator roots
    cancel matching denominator roots, so removable factors do not report
    spurious poles. Distinct poles closer than about 1e-4 are treated as one.
    """
    rat = _as_rational(node)
    if rat is None:
        return None
    num, den = rat
    if den.size == 1 and den[0] == 0:
        raise PoleFindingError("denominator is identically zero")
    if np.all(np.abs(num) == 0):
        return []
    den_clusters = _cluster(_poly_roots(den))
    if not den_clusters:
        return []
    num_clusters = _cluster(_poly_roots(num))
    records = []
    for center, mult in den_clusters:
        center = _polish(center, mult, den)
        cancel = 0
        for ncenter, nmult in num_clusters:
            if abs(ncenter - center) <= ROOT_CLUSTER_RADIUS * max(1.0, abs(center)):
                cancel = nmult
                break
        order = mult - cancel
        if order > 0:
            records.append(PoleRecord(complex(center), order))
    records.sort(key=lambda p: (p.location.real, p.location.imag))
    return records
