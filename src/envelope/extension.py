"""Laurent decomposition over holes and evaluation on the simply connected
envelope.

Every f holomorphic on a multiply connected domain splits as f0 + sum of
per-hole components, each holomorphic off its hole and vanishing at
infinity. Tail coefficients come from integrals with kernel (z - c)^(n-1)
on each hole's second contour (geometry.basis_curve_variants), not on the
basis curve that the moment table is integrated on, so the duality check
compares two integrals; the component at w comes from (f(z) - f(w)) /
(z - w) on the basis curve, smooth at w. When all tails vanish, f extends
holomorphically to the envelope (the hull), computed by Cauchy integrals
over separating contours; disagreement between two admissible contours,
or with the truncated-tail route, is reported as a finding rather than
hidden.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from . import geometry as _geom
from . import moments as _mom
from . import quadrature as _quad
from .errors import (ExtensionPreconditionError, GeometryError,
                     PoleProximityError)
from .geometry import DomainSpec, Path

_TWO_PI_I = 2j * math.pi
# cross_verify: contour and reference tolerances
CONTOUR_TOL = 2e-9
REFERENCE_RTOL = 1e-8
# probe points on each probe ring, and toward each hole's boundary
_PROBES_PER_CURVE = 8


def _check_tail(basis_curve: Path, center: complex, n: int) -> None:
    if n < 1:
        raise ValueError("tail coefficients have index n >= 1")
    if _geom.winding_number(basis_curve, center) != 1:
        raise GeometryError("basis curve must wind once around the center")


def laurent_coefficients(f, basis_curve: Path, center: complex, terms: int,
                         tol: float = _quad.DEFAULT_TOL
                         ) -> tuple[complex, ...]:
    """Tail coefficients a_{-1} .. a_{-terms} of the component attached to
    the hole the basis curve surrounds, from one stacked integral:

        a_{-n} = (1/2 pi i) ∮ (z - center)^(n-1) f(z) dz,  n >= 1.

    The curve must wind once around the center.
    """
    _check_tail(basis_curve, center, terms)
    fn = _mom.as_function(f)
    stack = _mom._moments(fn, basis_curve, np.arange(terms), tol, center)
    return tuple(complex(v) for v in stack / _TWO_PI_I)


@dataclass(frozen=True)
class LaurentComponent:
    """The truncated Laurent tail of one hole about its center; the
    zero-test scales of its coefficients are its hole's moment vector's
    (moments.MomentVector.tail_scales)."""

    center: complex
    coefficients: tuple[complex, ...]  # a_{-1} .. a_{-N}

    @property
    def terms(self) -> int:
        return len(self.coefficients)

    def __call__(self, z):
        """Truncated tail sum a_{-n} / (z - center)^n, vectorized."""
        w = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            inv = 1.0 / (w - self.center)
            out = np.zeros_like(w)
            power = inv.copy()
            for a in self.coefficients:
                out = out + a * power
                power = power * inv
        return out if isinstance(z, np.ndarray) else complex(out)


@dataclass(frozen=True, eq=False)
class Decomposition:
    components: tuple[LaurentComponent, ...]
    probe_points: tuple[complex, ...]
    reconstruction_residuals: tuple[float, ...]
    f0: object  # callable: f minus the truncated tails

    def max_residual(self) -> float:
        return max(self.reconstruction_residuals, default=0.0)


def _component_centers(f, domain: DomainSpec) -> list[complex]:
    """Per hole: its witness, or the pole itself when exactly one pole
    sits inside the hole (making truncation at its order exact)."""
    centers = list(domain.witnesses)
    for j, poles in enumerate(_mom._hole_poles(domain, f=f) or ()):
        if len(poles) == 1:
            centers[j] = poles[0].location
    return centers


def _exact_rows(fn, points: np.ndarray, f_at: np.ndarray):
    """The integrand (f(z) - f(w)) / (z - w) for every point w, one row
    each; f_at holds f at the points."""
    return lambda z: (fn(z) - f_at[:, None]) / (z - points[:, None])


@_geom._kept
def _probes(domain: DomainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(domain probes, the hole of each, hole probes), read-only, placed by
    rule, filtered by one classify pass and kept on the domain. Hole j's
    domain probes are its two rings (geometry._rings) kept in the domain,
    each a fraction of its hole's gap from its basis curve; its hole
    probes are its witness and the midpoints from it toward its boundary,
    kept strictly inside the hole. A simply connected domain, the whole
    plane among them, places none."""
    n, holes = _PROBES_PER_CURVE, domain.holes
    near = np.array([_geom._rings(domain, j, n) for j in range(len(holes))],
                    dtype=complex).reshape(len(holes), 2 * n)
    wits = np.array(domain.witnesses, dtype=complex)[:, None]
    inner = 0.5 * (wits + np.hstack((wits, np.reshape(
        [h.sample(n) for h in holes], (-1, n)))))
    where = _geom.classify(domain, np.append(near, inner))
    keep = where.inside[:near.size]
    owner = np.repeat(np.arange(len(holes)), 2 * n)
    mine = ~where.on_boundary[near.size:] \
        & (where.hole[near.size:] == np.repeat(range(len(holes)), n + 1))
    probes = near.ravel()[keep], owner[keep], inner.ravel()[mine]
    for array in probes:
        array.flags.writeable = False
    return probes


def decompose(f, domain: DomainSpec, terms: int | None = None,
              tol: float = _quad.DEFAULT_TOL) -> Decomposition:
    """Split f into per-hole truncated Laurent tails plus a rest term.

    terms defaults to the inside-pole budget when the pole set is known
    (then the truncation is exact for a snapped center) and to the
    heuristic degree cutoff plus one otherwise. The tails are integrated on
    each hole's second contour (geometry.basis_curve_variants), so that no
    tail is the moment table's integral about the same center on the same
    path; their zero-test scales are the moment verdict's
    (moments.MomentVector.tail_scales), so decompose samples no magnitude.
    The reconstruction residual at each domain probe w of hole j compares
    hole j's tail with its exact component, the integral of (f(z) - f(w))
    / (z - w) over hole j's basis curve alone: an independent route that
    does not assume the defining identity. The tails of all holes go to one
    quadrature.integrate_each call and the exact components to another, so
    the circles among the contours of each kind share one integral.
    """
    basis = _geom.homology_basis(domain)
    if terms is None:
        budget = _mom.inside_pole_budget(f, domain)
        terms = _mom.DEFAULT_DEGREE_CUTOFF + 1 if budget is None \
            else max(1, max(budget, default=1))
    if terms < 1:
        raise ValueError("tail coefficients have index n >= 1")
    fn = _mom.as_function(f)
    centers = _component_centers(f, domain)
    # a second contour has passed geometry._basis_curves_pass, so it winds
    # once around every point of its hole, the center among them
    tails = _quad.integrate_each(
        [(_mom._moment_rows(fn, np.arange(terms), center),
          _geom.basis_curve_variants(domain, j)[1])
         for j, center in enumerate(centers)], tol)
    components = [LaurentComponent(center, tuple(
        complex(v) for v in stack / _TWO_PI_I))
        for center, stack in zip(centers, tails)]

    def f0(z):
        base = fn(z)
        for comp in components:
            base = base - comp(z)
        return base

    points, owner = _probes(domain)[:2]
    jobs = [(j, np.flatnonzero(owner == j)) for j in np.unique(owner)]
    f_at = _quad._eval_batch(fn, points)
    exact = _quad.integrate_each(
        [(_exact_rows(fn, points[rows], f_at[rows]), basis[j])
         for j, rows in jobs], tol)
    gap = np.zeros(points.shape, dtype=complex)
    for (j, rows), stack in zip(jobs, exact):
        gap[rows] = -stack / _TWO_PI_I - components[j](points[rows])
    residuals = tuple(float(r) for r in np.hypot(gap.real, gap.imag))
    return Decomposition(tuple(components), tuple(map(complex, points)),
                         residuals, f0)


# ---------------------------------------------------------------------------
# envelope evaluation

def evaluate_extension(f, domain: DomainSpec, w,
                       tol: float = _quad.DEFAULT_TOL,
                       verdict: _mom.PrimitiveOrderVerdict | None = None,
                       which_contour: int = 0):
    """Value at w of the holomorphic extension of f to the envelope: a
    complex for one point, an array of w's shape for an array of points.

    Requires the moment verdict to report one-valued primitives of all
    tested orders; otherwise ExtensionPreconditionError is raised, since a
    nonzero moment certifies that no extension exists. Without a verdict it
    reads the one kept on the domain for f (moments._verdict) at the
    default degree cutoff and zero test. The value is the Cauchy integral
    over a contour that winds once around w and zero times around every
    hole other than the one containing it. Points in one hole share its
    contour, and all points of the domain proper share one integral over
    the unit circle; these integrals go to one quadrature.integrate_each
    call, so where two or more of them are circles they are one stacked
    integral. which_contour picks the first (0) or the second (1) contour
    of each hole and each point.
    """
    if not isinstance(which_contour, (int, np.integer)) \
            or which_contour not in (0, 1):
        raise ValueError(f"which_contour must be 0 or 1, not {which_contour!r}")
    shape = np.shape(w)
    values = _on_contours(f, domain, np.array(w, dtype=complex).reshape(-1),
                          tol, verdict, (which_contour,))[0]
    return complex(values[0]) if shape == () else values.reshape(shape)


def _on_contours(f, domain: DomainSpec, pts: np.ndarray, tol: float,
                 verdict: _mom.PrimitiveOrderVerdict | None,
                 contours: tuple[int, ...]) -> np.ndarray:
    """evaluate_extension at the points pts (a flat array) on each of the
    contours, one row each: the precondition, one classify pass and its
    refusals, then every integral in one quadrature.integrate_each call.
    A point in hole j goes straight to hole j's contours, kept clear of
    the hole by their rules (geometry._contour), or refused in hole order."""
    if verdict is None:
        verdict = _mom._verdict(domain, None, tol, _mom.ZeroTolerance(), f=f)
    if verdict.max_order is not None:
        raise ExtensionPreconditionError(
            f"a degree-{verdict.max_order} moment is nonzero; f does not "
            "extend to the envelope")
    where = _geom.classify(domain, pts)
    for i in np.flatnonzero(where.on_boundary
                            | ((where.hole < 0) & ~where.inside)):
        raise GeometryError(
            f"{pts[i]:.6g} lies on a hole boundary; no exclusion-radius "
            "evaluation there" if where.hole[i] >= 0 else
            f"{pts[i]:.6g} lies outside the simply connected envelope")
    for w in pts[np.isinf(where.distance)]:
        raise GeometryError("the whole plane has no boundary to size a "
                            f"contour around {w:.6g} by")
    fn = _mom.as_function(f)
    holes = [(j, np.flatnonzero(where.hole == j))
             for j in np.unique(where.hole[where.hole >= 0])]
    free = np.flatnonzero(where.hole < 0)
    values = np.zeros((len(contours), pts.size), dtype=complex)
    jobs, targets = [], []  # each integral, and the entries it fills
    for out, which in zip(values, contours):
        for j, members in holes:
            jobs.append((_cauchy_rows(fn, pts[members]),
                         _geom.basis_curve_variants(domain, j)[which]))
            targets.append((out, members))
        if free.size:
            radii = (0.4 if which == 0 else 0.7) * where.distance[free, None]
            jobs.append((_shifted_rows(fn, pts[free, None], radii),
                         _quad._UNIT_CIRCLE))
            targets.append((out, free))
    for (out, members), stack in zip(targets,
                                     _quad.integrate_each(jobs, tol)):
        out[members] = stack / _TWO_PI_I
    return values


def _contour_pair(f, domain: DomainSpec, pts: np.ndarray, tol: float,
                  verdict: _mom.PrimitiveOrderVerdict | None
                  ) -> tuple[list[complex], list[complex], float]:
    """_on_contours' values at pts on the first and the second contours,
    and the largest difference between the two."""
    values, alts = _on_contours(f, domain, pts, tol, verdict, (0, 1)).tolist()
    worst = max((abs(v0 - v1) for v0, v1 in zip(values, alts)), default=0.0)
    return values, alts, worst


def _cauchy_rows(fn, ws: np.ndarray):
    """The integrand f(z) / (z - w) for every w in ws, one row each: times
    1/2 pi i, the extension at each w on a contour around it."""
    return lambda z: fn(z) / (z - ws[:, None])


def _shifted_rows(fn, ws: np.ndarray, radii: np.ndarray):
    """The integrand f(w + r u) / u on the unit circle for every w in the
    column ws and r in radii, one row each: the circle |z - w| = r of a
    point of the domain proper, r a fraction of its distance to the
    boundary, is z = w + r u. It divides by u, not by (w + r u) - w, which
    loses the digits of r u where r is far below |w|."""
    return lambda u: _quad._eval_batch(fn, (ws + radii * u).ravel()).reshape(
        ws.size, -1) / u


# ---------------------------------------------------------------------------
# cross-verification

@dataclass(frozen=True)
class ExtensionReport:
    points: tuple[complex, ...]
    reference_values: tuple[complex | None, ...]
    max_contour_discrepancy: float
    max_reference_residual: float


@dataclass(frozen=True, eq=False)
class CrossVerifyReport:
    verdict: _mom.PrimitiveOrderVerdict
    decomposition: Decomposition
    extension: ExtensionReport | None
    duality_max_residual: float
    findings: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.findings


def _centered_moments(vec: _mom.MomentVector, center: complex
                      ) -> list[complex]:
    """∮ (z - c)^k f dz, k = 0 .. vec.degree_cutoff, from plain moments by
    the binomial expansion."""
    out = []
    for k in range(vec.degree_cutoff + 1):
        total = 0j
        for i in range(k + 1):
            total += math.comb(k, i) * (-center) ** (k - i) * vec.values[i]
        out.append(total)
    return out


def _tail_reference(fn, points: np.ndarray) -> list[complex | None]:
    """f at each point, None where f cannot be evaluated (too near a pole,
    or past the float range) or its value is not finite. The extension
    check runs only when every moment vanishes, where a tail that tests
    nonzero is already a finding, so its truncated-tail reference f0 is f
    itself and reads no decomposition. An Expr is evaluated at all the
    points in one array call, unless that raises; any other callable point
    by point, as its array answers need not agree with its scalar ones."""
    direct = None
    if isinstance(fn, _expr.Expr):
        try:
            direct = fn(points).tolist()
        except (PoleProximityError, OverflowError):
            pass
    if direct is None:
        direct = []
        for w in points.tolist():
            try:
                direct.append(complex(fn(w)))
            except (PoleProximityError, OverflowError):
                direct.append(None)
    return [None if v is None or not cmath.isfinite(v) else v
            for v in direct]


def cross_verify(f, domain: DomainSpec, degree_cutoff: int | None = None,
                 tol: float = _quad.DEFAULT_TOL,
                 zero_tol: _mom.ZeroTolerance = _mom.ZeroTolerance()
                 ) -> CrossVerifyReport:
    """Compare the moment verdict, the Laurent tails and (when permitted)
    the envelope extension, and assert their agreement.

    The three are computed by separate routes (primitive construction,
    moments.construct_primitive and its checks, is not among them); any
    disagreement beyond tolerance lands in findings, never in an
    exception, so a genuinely inconsistent configuration is reported
    rather than masked. The verdict is the one kept on the domain for f,
    degree_cutoff, tol and zero_tol (moments._verdict), so the checks of a
    scenario and repeated calls scan the moments once. The Laurent tails
    have one coefficient per tested moment degree (tested_through + 1).
    The verdict owns every zero-test number of each hole: the first
    nonzero moment (per_curve_first_nonzero) and the scales of the tail
    coefficients (MomentVector.tail_scales). The extension is checked at
    the hole probes alone (_probes): in the domain proper it is f by
    Cauchy's formula, and a comparison there tests only the quadrature.
    """
    findings: list[str] = []
    verdict = _mom._verdict(domain, degree_cutoff, tol, zero_tol, f=f)
    decomp = decompose(f, domain, verdict.tested_through + 1, tol)
    fn = _mom.as_function(f)

    duality_worst = 0.0
    for j, comp in enumerate(decomp.components):
        vec = verdict.moments[j]
        scales = vec.tail_scales(comp.center, comp.terms)
        for k, moment in enumerate(_centered_moments(vec, comp.center)):
            residual = abs(comp.coefficients[k] - moment / _TWO_PI_I)
            duality_worst = max(duality_worst, residual)
            allowance = 10.0 * zero_tol.bound(scales[k]) + 1e-10 * 2.0 ** k
            if residual > allowance:
                findings.append(
                    f"hole {j}: coefficient a_-{k + 1} disagrees with the "
                    f"centered degree-{k} moment by {residual:.3g}")
        first_moment = verdict.per_curve_first_nonzero[j]
        first_coeff = zero_tol.first_nonzero(comp.coefficients, scales)
        if first_coeff is not None:
            first_coeff += 1
        if first_moment is None and first_coeff is not None:
            findings.append(
                f"hole {j}: moments all vanish but a_-{first_coeff} is "
                f"{abs(comp.coefficients[first_coeff - 1]):.3g}")
        if first_moment is not None and first_coeff is None:
            findings.append(
                f"hole {j}: degree-{first_moment} moment is nonzero but "
                "every tail coefficient tested as zero")
        if first_moment is not None and first_coeff is not None \
                and first_coeff != first_moment + 1:
            findings.append(
                f"hole {j}: first nonzero moment degree {first_moment} does "
                f"not match first nonzero coefficient index {first_coeff}")

    extension_report = None
    if verdict.all_orders:
        pts = _probes(domain)[2]
        values, _, worst_pair = _contour_pair(fn, domain, pts, tol, verdict)
        refs = _tail_reference(fn, pts)
        worst_ref = max((abs(v0 - ref) / (1.0 + abs(ref))
                         for v0, ref in zip(values, refs) if ref is not None),
                        default=0.0)
        if worst_pair > CONTOUR_TOL:
            findings.append(
                f"extension values from homologous contours differ by "
                f"{worst_pair:.3g}")
        if worst_ref > REFERENCE_RTOL:
            findings.append(
                f"extension disagrees with the truncated-tail route by "
                f"relative {worst_ref:.3g}")
        extension_report = ExtensionReport(tuple(pts.tolist()), tuple(refs),
                                           worst_pair, worst_ref)

    return CrossVerifyReport(verdict, decomp, extension_report,
                             duality_worst, tuple(findings))
