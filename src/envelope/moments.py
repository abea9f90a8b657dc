"""Polynomial moments along closed curves and one-valued primitives.

The decision at the heart of the package: f has a one-valued primitive of
order n on a multiply connected domain exactly when every moment
∮ z^k f(z) dz of degree k <= n-1 vanishes on every homology basis curve.
Candidate primitives of order n are built directly as
(1/(n-1)!) ∮ (z - w)^(n-1) f(w) dw along explicit paths, so independence
from the path and the derivative ladder can be verified numerically.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from . import geometry as _geom
from . import quadrature as _quad
from .errors import (GeometryError, PoleFindingError, PoleInDomainError,
                     ScaleOverflowError)
from .geometry import Arc, DomainSpec, Line, Path

MAX_MOMENT_DEGREE = 64
DEFAULT_DEGREE_CUTOFF = 32  # heuristic cutoff when the pole set is unknown


@dataclass(frozen=True)
class ZeroTolerance:
    """The one zero test of the package: a value v counts as zero when
    |v| <= bound(scale) = abs_tol + rel_tol * scale. Each check passes one
    magnitude scale per value (moments, Laurent tail coefficients, boundary
    moments and closing defects each have their own); only the comparison
    and the scan for the first nonzero value live here."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not all(0.0 <= t < math.inf for t in (self.abs_tol, self.rel_tol)):
            raise ValueError("tolerances must be finite and nonnegative")

    def bound(self, scale: float) -> float:
        return self.abs_tol + self.rel_tol * scale

    def first_nonzero(self, values, scales) -> int | None:
        """Index of the first value not within the bound of its scale, None
        when every value counts as zero; NaN never does."""
        for k, (v, scale) in enumerate(zip(values, scales)):
            if not abs(v) <= self.bound(scale):
                return k
        return None


def _degree_scales(base: float, reach: float, count: int) -> list[float]:
    """The zero-test scales base * reach^k of the degrees k = 0 .. count - 1.
    A scale past the float range makes every bound vacuous, so it is
    refused with a ScaleOverflowError naming its degree."""
    scales = []
    for k in range(count):
        try:
            scale = base * reach ** k
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise ScaleOverflowError(
                f"the zero-test scale of degree {k}, {base:.3g} * "
                f"{reach:.3g}^{k}, leaves the float range")
        scales.append(scale)
    return scales


def as_function(f):
    """Accept either a parsed expression or any vectorized callable; an
    Expr already is one. f must be a pure function of z: what a scan learns
    about f on a domain (geometry._kept) serves every later call about the
    same f object for as long as the domain lives."""
    if callable(f):
        return f
    raise TypeError(f"expected an Expr or a callable, got {type(f).__name__}")


@dataclass(frozen=True)
class MomentVector:
    curve_id: str
    values: tuple[complex, ...]  # degrees 0 .. len-1
    scale: float                 # path length * max sampled |f|
    max_abs_z: float

    @property
    def degree_cutoff(self) -> int:
        return len(self.values) - 1

    def scales(self) -> list[float]:
        """Zero-test scale of each degree k: scale * max|z|^k."""
        return _degree_scales(self.scale, self.max_abs_z, len(self.values))

    def tail_scales(self, center: complex, terms: int) -> list[float]:
        """Zero-test scale of each Laurent tail coefficient a_-n about the
        center, n = 1 .. terms: scale * max(1, max|z| + |center|)^(n-1)
        / 2 pi. a_-n does not depend on the contour it is integrated on,
        so its scale is the basis curve's."""
        return [scale / math.tau for scale in _degree_scales(
            self.scale, max(1.0, self.max_abs_z + abs(center)), terms)]

    def first_nonzero(self, tol: ZeroTolerance) -> int | None:
        return tol.first_nonzero(self.values, self.scales())


def _check_moment_degree(path: Path, k: int) -> None:
    if not path.closed:
        raise GeometryError("moments are defined along closed paths")
    if not 0 <= k <= MAX_MOMENT_DEGREE:
        raise ValueError(f"moment degree must lie in [0, {MAX_MOMENT_DEGREE}]")


def _powers(w, top: int) -> np.ndarray:
    """w^0 .. w^top, shape (top + 1,) + w's shape, by a product ladder:
    w^(h + j) = w^j w^h for j = 1 .. h, with h the highest power of two
    so far, one array product per doubling."""
    w = np.asarray(w, dtype=complex)
    out = np.empty((top + 1,) + w.shape, dtype=complex)
    out[0] = 1.0
    if top:
        out[1] = w
    h = 1
    while h < top:
        n = min(h, top - h)
        np.multiply(out[1:n + 1], out[h], out=out[h + 1:h + n + 1])
        h *= 2
    return out


def _moment_rows(fn, degrees: np.ndarray, center: complex = 0j):
    """The integrand (z - center)^k f(z) for every k in degrees, one row
    each. The powers come from one product ladder up to the largest degree
    (_powers).

    An integrand value that overflows the float range, where f itself is
    finite, is refused with a GeometryError naming the first degree that
    overflows: the engine would otherwise refine inf and NaN values until
    its panel budget runs out. The overflow is caught by numpy's floating
    point flags, so values that stay in range pay no extra pass."""
    top = int(degrees.max())
    # a copy of the rows only when not all of them are asked for
    rows = slice(None) if np.array_equal(degrees, np.arange(top + 1)) \
        else degrees

    def integrand(z):
        values = fn(z)
        try:
            with np.errstate(over="raise", invalid="ignore"):
                return _powers(z - center, top)[rows] * values
        except FloatingPointError:
            pass
        with np.errstate(over="ignore", invalid="ignore"):
            stack = _powers(z - center, top)[rows] * values
        finite = np.isfinite(stack).all(axis=-1)
        if finite.all():
            return stack
        degree = int(degrees[~finite][0])
        reach = float(np.max(np.abs(z - center)))
        raise GeometryError(
            f"moment degree {degree} overflows: (z - center)^{degree} f(z) "
            f"leaves the float range where the path reaches "
            f"max|z - center| = {reach:.6g}")

    return integrand


def _moments(fn, path: Path, degrees: np.ndarray, tol: float,
             center: complex = 0j) -> np.ndarray:
    """∮ (z - center)^k f(z) dz for every k in degrees, as one stacked
    integral: each to the tolerance tol, on one panel tree."""
    return _quad.integrate(_moment_rows(fn, degrees, center), path,
                           tol).value


def moment(f, path: Path, k: int, tol: float = _quad.DEFAULT_TOL) -> complex:
    """∮ z^k f(z) dz along a closed path."""
    _check_moment_degree(path, k)
    return complex(_moments(as_function(f), path, np.array([k]), tol)[0])


def moment_vector(f, path: Path, degree_cutoff: int,
                  tol: float = _quad.DEFAULT_TOL,
                  curve_id: str = "curve") -> MomentVector:
    """All moments of degree 0 .. degree_cutoff with their magnitude scale,
    from one stacked integral."""
    _check_moment_degree(path, degree_cutoff)
    fn = as_function(f)
    stack = _moments(fn, path, np.arange(degree_cutoff + 1), tol)
    max_f, max_z = _quad.max_magnitude_on(fn, path)
    return MomentVector(curve_id, tuple(complex(v) for v in stack),
                        path.length * max_f, max_z)


@dataclass(frozen=True)
class PrimitiveOrderVerdict:
    """Outcome of the moment scan over a homology basis.

    max_order is the largest n with one-valued primitives of orders
    1 .. n; None means every tested order passed (all moments up to
    tested_through vanished). The verdict is definitive when either a
    nonzero moment was witnessed, the domain has no holes, or the pole set
    certifies that degrees beyond tested_through cannot produce a nonzero
    moment.
    """

    max_order: int | None
    tested_through: int
    definitive: bool
    certificate: str
    per_curve_first_nonzero: tuple[int | None, ...]
    moments: tuple[MomentVector, ...]

    @property
    def all_orders(self) -> bool:
        return self.max_order is None


@_geom._kept
def _hole_poles(domain: DomainSpec, *, f
                ) -> tuple[tuple[_expr.PoleRecord, ...], ...] | None:
    """The poles of f in each hole, a pole on a hole boundary counting for
    that hole, or None when the pole set is unknown (f is not an Expr, or
    not rational); kept on the domain for the last f, so a scenario finds
    its poles once. Raises as inside_pole_budget does."""
    poles = _expr.pole_set(f) if isinstance(f, _expr.Expr) else None
    if poles is None:
        return None
    where = _geom.classify(domain, [rec.location for rec in poles])
    for rec, inside in zip(poles, where.inside):
        if inside:
            raise PoleInDomainError(
                f"f has a pole at {rec.location:.6g} inside the domain; it "
                "is not holomorphic there")
    return tuple(tuple(rec for rec, k in zip(poles, where.hole) if k == j)
                 for j in range(len(domain.holes)))


@_geom._kept
def _basis_tables(domain: DomainSpec, tol: float, *, f
                  ) -> dict[int, tuple[MomentVector, ...]]:
    """The moment tables of f on the basis curves of the domain at the
    tolerance tol that _basis_moments has read from _moment_table, by
    degree; kept on the domain for the last f."""
    return {}


@_geom._kept
def _moment_table(domain: DomainSpec, degree: int, tol: float, *, f
                  ) -> tuple[MomentVector, ...]:
    """The moments of degree 0 .. degree of f on each basis curve, one
    moment_vector per curve, kept on the domain for the last f."""
    return tuple(moment_vector(f, curve, degree, tol, f"hole-{j}")
                 for j, curve in enumerate(_geom.homology_basis(domain)))


def _basis_moments(f, domain: DomainSpec, degree: int, tol: float
                   ) -> tuple[MomentVector, ...]:
    """The moment vector of degree 0 .. degree of f on each homology basis
    curve (ids hole-j), as moment_vector gives it for that curve. It runs
    no pole check.

    A table of higher degree read for f at the tolerance tol
    (_basis_tables) serves a lower degree by its prefix, with the same
    scale and reach. cli.run_scenario runs the moments check before the
    verdict, so a verdict of degree at most the moments check's reads its
    table, and each curve is integrated once.

    A table that raised is kept as its error (geometry._kept), raised
    again for its degree without integrating; a lower degree that no table
    serves is integrated, as its powers may not overflow."""
    tables = _basis_tables(domain, tol, f=f)
    top = min((k for k in tables if k >= degree), default=degree)
    tables[top] = table = _moment_table(domain, top, tol, f=f)
    return tuple(dataclasses.replace(vec, values=vec.values[:degree + 1])
                 for vec in table) if top > degree else table


def inside_pole_budget(f, domain: DomainSpec) -> list[int] | None:
    """Total pole order inside each hole, or None when the pole set is
    unknown. Raises PoleInDomainError (a ValueError) for a pole in the
    domain, and PoleFindingError for a total past MAX_MOMENT_DEGREE."""
    by_hole = _hole_poles(domain, f=f)
    budget = None if by_hole is None \
        else [sum(rec.order for rec in poles) for poles in by_hole]
    for j, total in enumerate(budget or ()):
        if total > MAX_MOMENT_DEGREE:
            raise PoleFindingError(f"the poles in hole {j} have total order "
                                   f"{total}, past {MAX_MOMENT_DEGREE}")
    return budget


def max_primitive_order(f, domain: DomainSpec,
                        degree_cutoff: int | None = None,
                        tol: float = _quad.DEFAULT_TOL,
                        zero_tol: ZeroTolerance = ZeroTolerance()
                        ) -> PrimitiveOrderVerdict:
    """Scan basis-curve moments for the largest order with one-valued
    primitives.

    With no holes the answer is every order, definitively. Otherwise the
    first degree with a nonvanishing moment on some basis curve bounds the
    order: primitives of orders up to that degree exist, one more does not.
    When all moments up to the cutoff vanish, the all-orders verdict is
    definitive only if the pole set certifies the cutoff (cutoff >= total
    pole order inside every hole); otherwise it is an honest heuristic.
    """
    if not domain.holes:
        k = degree_cutoff if degree_cutoff is not None else 0
        return PrimitiveOrderVerdict(None, k, True, "simply-connected",
                                     (), ())
    budget = inside_pole_budget(f, domain)
    if degree_cutoff is None:
        degree_cutoff = DEFAULT_DEGREE_CUTOFF if budget is None \
            else max(8, *budget)
    vectors = _basis_moments(f, domain, degree_cutoff, tol)
    firsts = [vec.first_nonzero(zero_tol) for vec in vectors]
    hits = [k for k in firsts if k is not None]
    certified = budget is not None and degree_cutoff >= max(budget)
    certificate = "failure-witnessed" if hits \
        else "pole-certified" if certified else "heuristic-cutoff"
    return PrimitiveOrderVerdict(min(hits, default=None), degree_cutoff,
                                 bool(hits) or certified, certificate,
                                 tuple(firsts), tuple(vectors))


@_geom._kept
def _verdict(domain: DomainSpec, degree_cutoff: int | None, tol: float,
             zero_tol: ZeroTolerance, *, f) -> PrimitiveOrderVerdict:
    """max_primitive_order of f on the domain, kept on the domain for the
    last f: the one moment verdict that the checks of a scenario, and the
    library calls about the same f, domain, cutoff and tolerances, read."""
    return max_primitive_order(f, domain, degree_cutoff, tol, zero_tol)


# ---------------------------------------------------------------------------
# primitive construction

def ring_route(base: complex, target: complex, center: complex = 0j) -> Path:
    """Path from base to target that keeps a fixed distance band around
    `center`: an arc at |base - center|, then a radial line. Handy on
    annular domains where straight lines would cross the hole."""
    v0 = base - center
    v1 = target - center
    r0, r1 = abs(v0), abs(v1)
    if r0 == 0 or r1 == 0:
        raise GeometryError("ring route endpoints must avoid the center")
    th0 = math.atan2(v0.imag, v0.real)
    th1 = math.atan2(v1.imag, v1.real)
    sweep = (th1 - th0 + math.pi) % (2 * math.pi) - math.pi
    segs: list[Line | Arc] = []
    if abs(sweep) > 1e-12:
        segs.append(Arc(center, r0, th0, th0 + sweep, ccw=sweep > 0))
    corner = center + r0 * complex(math.cos(th1), math.sin(th1))
    if abs(corner - target) > 1e-12 * max(r0, r1):
        segs.append(Line(corner, target))
    if not segs:
        raise GeometryError("ring route endpoints coincide")
    return Path(tuple(segs), closed=False)


def construct_primitive(f, n: int, base: complex, target: complex,
                        path: Path, tol: float = _quad.DEFAULT_TOL,
                        domain: DomainSpec | None = None,
                        warn_on_nonvanishing: bool = True) -> complex:
    """The value at `target` of the order-n primitive candidate anchored at
    `base`, a complex number:

        (1/(n-1)!) ∮_path (target - w)^(n-1) f(w) dw

    The path must run from base to target. When a domain is supplied the
    path must lie in it (DomainSpec.contains_path), and a warning (not an
    error) is emitted if moments of degree <= n-1 fail to vanish, since
    then the value depends on the chosen path.
    """
    if n < 1:
        raise ValueError("primitive order must be at least 1")
    scale = max(abs(base), abs(target), path.length)
    if abs(path.start - base) > 1e-9 * scale \
            or abs(path.end - target) > 1e-9 * scale:
        raise GeometryError("path endpoints do not match base and target")
    fn = as_function(f)
    if domain is not None:
        if not domain.contains_path(path):
            raise GeometryError("integration path leaves the domain")
        if warn_on_nonvanishing and domain.holes:
            verdict = _verdict(domain, max(0, n - 1), tol, ZeroTolerance(),
                               f=f)
            if verdict.max_order is not None and verdict.max_order < n:
                warnings.warn(
                    f"moments of degree <= {n - 1} do not all vanish; the "
                    "order-%d primitive is path dependent" % n,
                    stacklevel=2)
    coeff = 1.0 / math.factorial(n - 1)
    return coeff * _quad.integrate(
        lambda w: (target - w) ** (n - 1) * fn(w), path, tol).value


def path_independence_check(f, n: int, base: complex, target: complex,
                            path_a: Path, path_b: Path,
                            tol: float = _quad.DEFAULT_TOL,
                            domain: DomainSpec | None = None) -> float:
    """|primitive along path_a - primitive along path_b|; near zero exactly
    when the relevant moments vanish."""
    va = construct_primitive(f, n, base, target, path_a, tol, domain,
                             warn_on_nonvanishing=False)
    vb = construct_primitive(f, n, base, target, path_b, tol, domain,
                             warn_on_nonvanishing=False)
    return abs(va - vb)


def derivative_check(f, n: int, points, h: float = 1e-4,
                     base: complex = 1 + 0j, path_builder=None,
                     tol: float = _quad.DEFAULT_TOL) -> float:
    """Max residual of the derivative ladder at the sample points:

        | (phi_n(w + h) - phi_n(w - h)) / (2h) - phi_(n-1)(w) |

    with phi_0 = f itself. path_builder(base, w) must return an
    integration path; straight lines are used when it is None, which is
    only safe on hole-free stars around the base.
    """
    if path_builder is None:
        def path_builder(a, b):
            return Path((Line(a, b),), closed=False)
    fn = as_function(f)

    def phi(order: int, w: complex) -> complex:
        if order == 0:
            return fn(w)
        return construct_primitive(fn, order, base, w, path_builder(base, w),
                                   tol, warn_on_nonvanishing=False)

    worst = 0.0
    for w in points:
        w = complex(w)
        fd = (phi(n, w + h) - phi(n, w - h)) / (2.0 * h)
        residual = abs(fd - phi(n - 1, w))
        worst = max(worst, residual)
    return worst
