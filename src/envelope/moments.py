"""Polynomial moments along closed curves and one-valued primitives.

The decision at the heart of the package: f has a one-valued primitive of
order n on a multiply connected domain exactly when every moment
∮ z^k f(z) dz of degree k <= n-1 vanishes on every homology basis curve.
Candidate primitives of order n are built directly as
(1/(n-1)!) ∮ (z - w)^(n-1) f(w) dw along explicit paths, so independence
from the path and the derivative ladder can be verified numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from . import geometry as _geom
from . import quadrature as _quad
from .errors import GeometryError, PoleInDomainError
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
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError("tolerances must be nonnegative")

    def bound(self, scale: float) -> float:
        return self.abs_tol + self.rel_tol * scale

    def first_nonzero(self, values, scales) -> int | None:
        """Index of the first value above the bound of its scale, None when
        every value counts as zero."""
        for k, (v, scale) in enumerate(zip(values, scales)):
            if abs(v) > self.bound(scale):
                return k
        return None


def as_function(f):
    """Accept either a parsed expression or any vectorized callable."""
    if isinstance(f, _expr.Expr):
        return _expr.as_callable(f)
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
        return [self.scale * self.max_abs_z ** k
                for k in range(len(self.values))]

    def first_nonzero(self, tol: ZeroTolerance) -> int | None:
        return tol.first_nonzero(self.values, self.scales())


def _check_moment_degree(path: Path, k: int) -> None:
    if not path.closed:
        raise GeometryError("moments are defined along closed paths")
    if not 0 <= k <= MAX_MOMENT_DEGREE:
        raise ValueError(f"moment degree must lie in [0, {MAX_MOMENT_DEGREE}]")


def _moments(fn, path: Path, degrees: np.ndarray, tol: float,
             center: complex = 0j) -> np.ndarray:
    """∮ (z - center)^k f(z) dz for every k in degrees, as one stacked
    integral: each to the tolerance tol, on one panel tree."""
    column = degrees[:, None]
    return _quad.integrate(lambda z: (z - center) ** column * fn(z), path,
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
    zero_tolerance: ZeroTolerance

    @property
    def all_orders(self) -> bool:
        return self.max_order is None


def _pole_hole_indices(domain: DomainSpec, locations) -> np.ndarray:
    """Index of the first hole that each location lies in or on, -1 for a
    location in no hole."""
    points = np.array(locations, dtype=complex)
    out = np.full(len(points), -1)
    for j in reversed(range(len(domain.holes))):
        wind = _geom._winding_many(domain.holes[j], points)
        out[(wind == 1) | (wind == _geom._ON_PATH)] = j
    return out


def inside_pole_budget(f, domain: DomainSpec) -> list[int] | None:
    """Total pole order inside each hole, or None when the pole set is
    unknown. Raises PoleInDomainError (a ValueError) if a pole lies in the
    domain itself, where f was promised holomorphic."""
    if not isinstance(f, _expr.Expr):
        return None
    poles = _expr.pole_set(f)
    if poles is None:
        return None
    locations = np.array([rec.location for rec in poles], dtype=complex)
    budget = [0] * len(domain.holes)
    for rec, j, inside in zip(poles, _pole_hole_indices(domain, locations),
                              domain.contains_many(locations)):
        if j >= 0:
            budget[j] += rec.order
        elif inside:
            raise PoleInDomainError(
                f"f has a pole at {rec.location:.6g} inside the domain; it "
                "is not holomorphic there")
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
                                     (), (), zero_tol)
    budget = inside_pole_budget(f, domain)
    if degree_cutoff is None:
        if budget is not None:
            degree_cutoff = max(8, max(budget))
        else:
            degree_cutoff = DEFAULT_DEGREE_CUTOFF
    fn = as_function(f)
    basis = _geom.homology_basis(domain)
    vectors = []
    firsts = []
    for j, curve in enumerate(basis):
        vec = moment_vector(fn, curve, degree_cutoff, tol, curve_id=f"hole{j}")
        vectors.append(vec)
        firsts.append(vec.first_nonzero(zero_tol))
    hits = [k for k in firsts if k is not None]
    if hits:
        k_star = min(hits)
        return PrimitiveOrderVerdict(k_star, degree_cutoff, True,
                                     "failure-witnessed", tuple(firsts),
                                     tuple(vectors), zero_tol)
    if budget is not None and degree_cutoff >= max(budget):
        return PrimitiveOrderVerdict(None, degree_cutoff, True,
                                     "pole-certified", tuple(firsts),
                                     tuple(vectors), zero_tol)
    return PrimitiveOrderVerdict(None, degree_cutoff, False,
                                 "heuristic-cutoff", tuple(firsts),
                                 tuple(vectors), zero_tol)


# ---------------------------------------------------------------------------
# primitive construction

@dataclass(frozen=True)
class PrimitiveSample:
    order: int
    base_point: complex
    target: complex
    value: complex
    path: Path


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
    if abs(corner - target) > 1e-12 * max(1.0, abs(target)):
        segs.append(Line(corner, target))
    if not segs:
        raise GeometryError("ring route endpoints coincide")
    return Path(tuple(segs), closed=False)


def _check_path_in_domain(path: Path, domain: DomainSpec) -> None:
    probes = path.sample(64, include_end=True)
    inside = domain.contains_many(probes)
    if not bool(inside.all()):
        bad = probes[~inside][0]
        raise GeometryError(
            f"integration path leaves the domain near {bad:.6g}")


def construct_primitive(f, n: int, base: complex, target: complex,
                        path: Path, tol: float = _quad.DEFAULT_TOL,
                        domain: DomainSpec | None = None,
                        warn_on_nonvanishing: bool = True) -> PrimitiveSample:
    """Order-n primitive candidate at `target`, anchored at `base`:

        (1/(n-1)!) ∮_path (target - w)^(n-1) f(w) dw

    The path must run from base to target. When a domain is supplied the
    path is winding-checked against its holes, and a warning (not an error)
    is emitted if moments of degree <= n-1 fail to vanish, since then the
    value depends on the chosen path.
    """
    if n < 1:
        raise ValueError("primitive order must be at least 1")
    scale = max(1.0, abs(base), abs(target))
    if abs(path.start - base) > 1e-9 * scale \
            or abs(path.end - target) > 1e-9 * scale:
        raise GeometryError("path endpoints do not match base and target")
    fn = as_function(f)
    if domain is not None:
        _check_path_in_domain(path, domain)
        if warn_on_nonvanishing and domain.holes:
            verdict = max_primitive_order(f, domain, max(0, n - 1), tol)
            if verdict.max_order is not None and verdict.max_order < n:
                warnings.warn(
                    f"moments of degree <= {n - 1} do not all vanish; the "
                    "order-%d primitive is path dependent" % n,
                    stacklevel=2)
    if n == 1:
        value = _quad.integrate(fn, path, tol).value
    else:
        coeff = 1.0 / math.factorial(n - 1)
        value = coeff * _quad.integrate(
            lambda w: (target - w) ** (n - 1) * fn(w), path, tol).value
    return PrimitiveSample(n, base, target, value, path)


def path_independence_check(f, n: int, base: complex, target: complex,
                            path_a: Path, path_b: Path,
                            tol: float = _quad.DEFAULT_TOL,
                            domain: DomainSpec | None = None) -> float:
    """|primitive along path_a - primitive along path_b|; near zero exactly
    when the relevant moments vanish."""
    va = construct_primitive(f, n, base, target, path_a, tol, domain,
                             warn_on_nonvanishing=False).value
    vb = construct_primitive(f, n, base, target, path_b, tol, domain,
                             warn_on_nonvanishing=False).value
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
                                   tol, warn_on_nonvanishing=False).value

    worst = 0.0
    for w in points:
        w = complex(w)
        fd = (phi(n, w + h) - phi(n, w - h)) / (2.0 * h)
        residual = abs(fd - phi(n - 1, w))
        worst = max(worst, residual)
    return worst
