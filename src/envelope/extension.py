"""Laurent decomposition over holes and evaluation on the simply connected
envelope.

Every f holomorphic on a multiply connected domain splits as f0 + sum of
per-hole components, each component holomorphic off its hole and vanishing
at infinity. The tail coefficients come from basis-curve integrals with the
kernel (z - c)^(n-1), which extracts the coefficient of (z - c)^(-n). When
all tails vanish, f extends holomorphically to the envelope (the hull), and
the extension is computed by Cauchy integrals over separating contours;
disagreement between two admissible contours, or between the Cauchy value
and the truncated-tail route, is reported as a finding rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from . import geometry as _geom
from . import moments as _mom
from . import quadrature as _quad
from .errors import (EnvelopeError, ExtensionPreconditionError, GeometryError,
                     PointOnPathError, PoleProximityError)
from .geometry import DomainSpec, Path

_TWO_PI_I = 2j * math.pi
_TWO_PI = 2.0 * math.pi
_PROBE_SEED = 20260815
# cross_verify: contour and reference tolerances, probe points per region
CONTOUR_TOL = 2e-9
REFERENCE_RTOL = 1e-8
PROBES_PER_HOLE = 4
DOMAIN_PROBES = 4


def _check_tail(basis_curve: Path, center: complex, n: int) -> None:
    if n < 1:
        raise ValueError("tail coefficients have index n >= 1")
    if _geom.winding_number(basis_curve, center) != 1:
        raise GeometryError("basis curve must wind once around the center")


def laurent_coefficient(f, basis_curve: Path, center: complex, n: int,
                        tol: float = _quad.DEFAULT_TOL) -> complex:
    """Tail coefficient a_{-n} of the component attached to the hole the
    basis curve surrounds:

        a_{-n} = (1/2 pi i) ∮ (z - center)^(n-1) f(z) dz,  n >= 1.

    The curve must wind once around the center.
    """
    _check_tail(basis_curve, center, n)
    fn = _mom.as_function(f)
    stack = _mom._moments(fn, basis_curve, np.array([n - 1]), tol, center)
    return complex((stack / _TWO_PI_I)[0])


def laurent_coefficients(f, basis_curve: Path, center: complex, terms: int,
                         tol: float = _quad.DEFAULT_TOL
                         ) -> tuple[complex, ...]:
    """a_{-1} .. a_{-terms} as laurent_coefficient gives them, from one
    stacked integral over the basis curve."""
    _check_tail(basis_curve, center, terms)
    fn = _mom.as_function(f)
    stack = _mom._moments(fn, basis_curve, np.arange(terms), tol, center)
    return tuple(complex(v) for v in stack / _TWO_PI_I)


@dataclass(frozen=True)
class LaurentComponent:
    hole_index: int
    center: complex
    coefficients: tuple[complex, ...]  # a_{-1} .. a_{-N}
    scale: float  # magnitude reference for zero tests, per unit coefficient

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

    def scales(self, max_dist: float) -> list[float]:
        """Zero-test scale of each a_{-n}: scale * max(1, max_dist)^(n-1)
        / 2 pi, with max_dist the reach of the basis curve from the
        center."""
        reach = max(1.0, max_dist)
        return [self.scale * reach ** k / _TWO_PI for k in range(self.terms)]


@dataclass(frozen=True, eq=False)
class Decomposition:
    domain: DomainSpec
    components: tuple[LaurentComponent, ...]
    probe_points: tuple[complex, ...]
    reconstruction_residuals: tuple[float, ...]
    f0: object  # callable: f minus the truncated tails

    def max_residual(self) -> float:
        return max(self.reconstruction_residuals, default=0.0)


def _component_centers(f, domain: DomainSpec) -> list[complex]:
    """Per hole: its witness, or the pole itself when exactly one pole
    cluster sits inside the hole (making truncation at its order exact)."""
    centers = [_geom.hole_witness(domain, j) for j in range(len(domain.holes))]
    poles = _expr.pole_set(f) if isinstance(f, _expr.Expr) else None
    if poles:
        holes = _mom._pole_hole_indices(domain, [p.location for p in poles])
        for j in range(len(centers)):
            inside = [p for p, k in zip(poles, holes) if k == j]
            if len(inside) == 1:
                centers[j] = inside[0].location
    return centers


def _cauchy_integrals(fn, contour: Path, points: np.ndarray,
                      tol: float) -> np.ndarray:
    """(1/2 pi i) ∮ f(z) / (z - w) dz over the contour for every w in
    points, as one stacked integral."""
    stack = _quad.integrate(lambda z: fn(z) / (z - points[:, None]),
                            contour, tol).value
    return stack / _TWO_PI_I


def _exact_components(fn, curve: Path, points: np.ndarray,
                      f_at: np.ndarray, tol: float) -> np.ndarray:
    """Cauchy-integral value of the hole component at every point, valid
    on either side of the basis curve; f_at holds f at the points."""
    wind = _geom._winding_many(curve, points)
    if np.any(wind == _geom._ON_PATH):
        raise PointOnPathError("a probe lies on the basis curve")
    cauchy = _cauchy_integrals(fn, curve, points, tol)
    return np.where(wind == 0, -cauchy, f_at - cauchy)


def _domain_box(domain: DomainSpec, pad: float
                ) -> tuple[float, float, float, float]:
    """Bounding box of the outer boundary, or of the holes grown by pad on
    every side when the domain is unbounded."""
    if domain.outer is not None:
        return domain.outer.bbox()
    boxes = [h.bbox() for h in domain.holes]
    return (min(b[0] for b in boxes) - pad, max(b[1] for b in boxes) + pad,
            min(b[2] for b in boxes) - pad, max(b[3] for b in boxes) + pad)


def _probe_margin(domain: DomainSpec) -> float:
    """Least distance of a probe point from a boundary or basis curve."""
    x0, x1, y0, y1 = _domain_box(domain, 0.0)
    return max(1e-3, 1e-3 * math.hypot(x1 - x0, y1 - y0))


def _sample(box: tuple[float, float, float, float], count: int,
            attempts: int, accept, rng: np.random.Generator) -> list[complex]:
    """Up to count points drawn uniformly from box = (x0, x1, y0, y1) that
    pass accept (a mask over an array of candidates), in at most attempts
    draws. Each round draws the candidates still missing in one call, as
    the (x, y) pairs a draw of x then y per point gives, so the points and
    the state of rng are those of a one-point-at-a-time loop."""
    x0, x1, y0, y1 = box
    out: list[complex] = []
    while len(out) < count and attempts > 0:
        need = min(count - len(out), attempts)
        attempts -= need
        xy = rng.uniform((x0, y0), (x1, y1), size=(need, 2))
        candidates = xy.view(complex)[:, 0]
        out.extend(complex(p) for p in candidates[accept(candidates)])
    return out


def _domain_probes(domain: DomainSpec, count: int,
                   rng: np.random.Generator) -> list[complex]:
    """count points in the domain, farther than the probe margin from its
    boundary and from its basis curves."""
    margin = _probe_margin(domain)

    def accept(points):
        ok = domain.contains_many(points) \
            & (domain.boundary_distance(points) > margin)
        for curve in _geom.homology_basis(domain):
            ok &= curve.distance(points) > margin
        return ok

    out = _sample(_domain_box(domain, 1.0), count, 20000, accept, rng)
    if len(out) < count:
        raise GeometryError("could not place probe points in the domain")
    return out


def decompose(f, domain: DomainSpec, terms: int | None = None,
              tol: float = _quad.DEFAULT_TOL,
              probe_count: int = 100) -> Decomposition:
    """Split f into per-hole truncated Laurent tails plus a rest term.

    terms defaults to the inside-pole budget when the pole set is known
    (then the truncation is exact for a snapped center) and to the
    heuristic degree cutoff plus one otherwise. The reconstruction residual
    at each probe point compares every truncated tail against the exact
    Cauchy-integral component through the same basis curve, an independent
    route that does not assume the defining identity.
    """
    basis = _geom.homology_basis(domain)
    budget = _mom.inside_pole_budget(f, domain)
    if terms is None:
        if budget is not None:
            terms = max(1, max(budget, default=1))
        else:
            terms = _mom.DEFAULT_DEGREE_CUTOFF + 1
    fn = _mom.as_function(f)
    components = []
    for j, (curve, center) in enumerate(zip(basis,
                                            _component_centers(f, domain))):
        coeffs = laurent_coefficients(fn, curve, center, terms, tol)
        max_f, _ = _quad.max_magnitude_on(fn, curve)
        components.append(LaurentComponent(j, center, coeffs,
                                           curve.length * max_f))

    rng = np.random.default_rng(_PROBE_SEED)
    probes = _domain_probes(domain, probe_count, rng)

    def f0(z):
        base = fn(z)
        for comp in components:
            base = base - comp(z)
        return base

    points = np.array(probes, dtype=complex)
    gap = np.zeros(points.shape, dtype=complex)
    if probes:
        f_at = _quad._eval_batch(fn, points)
        for j, curve in enumerate(basis):
            gap += _exact_components(fn, curve, points, f_at, tol) \
                - components[j](points)
    residuals = tuple(float(r) for r in np.hypot(gap.real, gap.imag))
    return Decomposition(domain, tuple(components), tuple(probes),
                         residuals, f0)


# ---------------------------------------------------------------------------
# envelope evaluation

def _locate(domain: DomainSpec, points: np.ndarray) -> list[int | None]:
    """Index of the hole containing each point, None for a point in the
    domain proper; GeometryError, for the first offending point, when a
    point lies on a hole boundary or outside the hull."""
    winds = [_geom._winding_many(hole, points) for hole in domain.holes]
    inside = domain.contains_many(points)
    out: list[int | None] = []
    for i, w in enumerate(points):
        for j, wind in enumerate(winds):
            if wind[i] == _geom._ON_PATH:
                raise GeometryError(
                    f"{w:.6g} lies on a hole boundary; no exclusion-radius "
                    "evaluation there")
            if wind[i] == 1:
                out.append(j)
                break
        else:
            if not inside[i]:
                raise GeometryError(
                    f"{w:.6g} lies outside the simply connected envelope")
            out.append(None)
    return out


def evaluate_extension(f, domain: DomainSpec, w: complex,
                       tol: float = _quad.DEFAULT_TOL,
                       verdict: _mom.PrimitiveOrderVerdict | None = None,
                       which_contour: int = 0) -> complex:
    """Value at w of the holomorphic extension of f to the envelope.

    Requires the moment verdict to report one-valued primitives of all
    tested orders (supply a precomputed verdict to skip the rescan);
    otherwise ExtensionPreconditionError is raised, since a nonzero moment
    certifies that no extension exists. The value is the Cauchy integral
    over a contour that winds once around w and zero times around every
    hole other than the one containing it.
    """
    return evaluate_extension_many(f, domain, [w], tol, verdict,
                                   which_contour)[0]


def evaluate_extension_many(f, domain: DomainSpec, points,
                            tol: float = _quad.DEFAULT_TOL,
                            verdict: _mom.PrimitiveOrderVerdict | None = None,
                            which_contour: int = 0) -> list[complex]:
    """evaluate_extension at every point. Points in one hole share its
    contour, and each contour takes one stacked integral for all of its
    points."""
    if verdict is None:
        verdict = _mom.max_primitive_order(f, domain, None, tol)
    if verdict.max_order is not None:
        raise ExtensionPreconditionError(
            f"a degree-{verdict.max_order} moment is nonzero; f does not "
            "extend to the envelope")
    pts = np.array(points, dtype=complex).reshape(-1)
    shared: dict[tuple[str, int], list[int]] = {}
    for i, j in enumerate(_locate(domain, pts)):
        key = ("point", i) if j is None else ("hole", j)
        shared.setdefault(key, []).append(i)
    # a point of the domain proper gets its own circle, a fraction of its
    # distance to the boundary
    radii = (0.4 if which_contour == 0 else 0.7) \
        * domain.boundary_distance(pts)
    fn = _mom.as_function(f)
    values: list[complex] = [0j] * len(pts)
    for (kind, k), members in shared.items():
        if kind == "hole":
            contour = _geom.basis_curve_variants(domain, k)[which_contour]
        elif radii[k] > 0.0:
            contour = _geom.circle(complex(pts[k]), float(radii[k]))
        else:
            raise GeometryError(f"no room for a contour around {pts[k]:.6g}")
        ws = pts[members]
        near = contour.distance(ws) <= _expr.DEFAULT_POLE_EXCLUSION
        if near.any():
            raise GeometryError(
                f"{ws[np.argmax(near)]:.6g} is too close to the contour")
        for i, v in zip(members, _cauchy_integrals(fn, contour, ws, tol)):
            values[i] = complex(v)
    return values


# ---------------------------------------------------------------------------
# cross-verification

@dataclass(frozen=True)
class ExtensionReport:
    points: tuple[complex, ...]
    values: tuple[complex, ...]
    alt_values: tuple[complex, ...]
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


def _centered_moments(vec: _mom.MomentVector, center: complex,
                      upto: int) -> list[complex]:
    """∮ (z - c)^k f dz from plain moments by the binomial expansion."""
    out = []
    for k in range(upto + 1):
        total = 0j
        for i in range(k + 1):
            total += math.comb(k, i) * (-center) ** (k - i) * vec.values[i]
        out.append(total)
    return out


def cross_verify(f, domain: DomainSpec, degree_cutoff: int | None = None,
                 terms: int | None = None, tol: float = _quad.DEFAULT_TOL,
                 zero_tol: _mom.ZeroTolerance = _mom.ZeroTolerance(),
                 verdict: _mom.PrimitiveOrderVerdict | None = None
                 ) -> CrossVerifyReport:
    """Run all three criteria and assert their agreement.

    Moment verdict, Laurent tails and (when permitted) envelope evaluation
    are computed by separate routes; any disagreement beyond tolerance
    lands in findings, never in an exception, so a genuinely inconsistent
    configuration is reported rather than masked. A precomputed verdict
    (from max_primitive_order with the same f, domain, degree_cutoff, tol
    and zero_tol) skips the rescan.
    """
    findings: list[str] = []
    if verdict is None:
        verdict = _mom.max_primitive_order(f, domain, degree_cutoff, tol,
                                           zero_tol)
    if terms is None:
        terms = verdict.tested_through + 1
    decomp = decompose(f, domain, terms, tol)
    fn = _mom.as_function(f)

    duality_worst = 0.0
    # components whose coefficients all test as zero contribute only
    # amplified rounding noise near their center; the reference route of
    # the extension check keeps the live ones
    live = []
    for j, comp in enumerate(decomp.components):
        vec = verdict.moments[j]
        upto = min(vec.degree_cutoff, comp.terms - 1)
        centered = _centered_moments(vec, comp.center, upto)
        scales = comp.scales(vec.max_abs_z + abs(comp.center))
        for k in range(upto + 1):
            residual = abs(comp.coefficients[k] - centered[k] / _TWO_PI_I)
            duality_worst = max(duality_worst, residual)
            allowance = 10.0 * zero_tol.bound(scales[k]) + 1e-10 * 2.0 ** k
            if residual > allowance:
                findings.append(
                    f"hole {j}: coefficient a_-{k + 1} disagrees with the "
                    f"centered degree-{k} moment by {residual:.3g}")
        first_moment = vec.first_nonzero(zero_tol)
        first_coeff = zero_tol.first_nonzero(comp.coefficients, scales)
        if first_coeff is not None:
            first_coeff += 1
            live.append(comp)
        if first_moment is None and first_coeff is not None \
                and first_coeff <= upto + 1:
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
        rng = np.random.default_rng(_PROBE_SEED + 1)
        margin = _probe_margin(domain)
        points: list[complex] = []
        for j, hole in enumerate(domain.holes):
            # the witness, then up to PROBES_PER_HOLE - 1 drawn points
            points.append(_geom.hole_witness(domain, j))
            points.extend(_sample(
                hole.bbox(), PROBES_PER_HOLE - 1, 5000,
                lambda c, hole=hole: (_geom._winding_many(hole, c) == 1)
                & (hole.distance(c) > margin), rng))
        if domain.outer is not None or domain.holes:
            points.extend(_domain_probes(domain, DOMAIN_PROBES, rng))
        values = evaluate_extension_many(fn, domain, points, tol, verdict, 0)
        alts = evaluate_extension_many(fn, domain, points, tol, verdict, 1)
        refs = []
        worst_pair = 0.0
        worst_ref = 0.0
        for w, v0, v1 in zip(points, values, alts):
            worst_pair = max(worst_pair, abs(v0 - v1))
            try:
                direct = complex(fn(w)) - sum((c(w) for c in live), 0j)
            except (PoleProximityError, OverflowError):
                refs.append(None)
                continue
            if not (math.isfinite(direct.real) and math.isfinite(direct.imag)):
                refs.append(None)
                continue
            refs.append(direct)
            worst_ref = max(worst_ref, abs(v0 - direct) / (1.0 + abs(direct)))
        if worst_pair > CONTOUR_TOL:
            findings.append(
                f"extension values from homologous contours differ by "
                f"{worst_pair:.3g}")
        if worst_ref > REFERENCE_RTOL:
            findings.append(
                f"extension disagrees with the truncated-tail route by "
                f"relative {worst_ref:.3g}")
        extension_report = ExtensionReport(
            tuple(points), tuple(values), tuple(alts), tuple(refs),
            worst_pair, worst_ref)

    return CrossVerifyReport(verdict, decomp, extension_report,
                             duality_worst, tuple(findings))
