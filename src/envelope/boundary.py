"""Discrete machinery for measures dmu = g dz on sampled rectifiable
closed curves.

The curve enters as ordered nodes with a duplicated closure node; all
discrete integrals are trapezoid sums over the polyline. The primitive
tower accumulates repeated indefinite integrals and watches whether they
close up, which mirrors the moment conditions degree by degree, and the
integration-by-parts residual measures how far the discrete calculus is
from the exact identity m1 = [zG] - integral of G dz. When the curve
carries an analytic description (a Path plus a density callable) the same
quantities are recomputed by adaptive quadrature for an independent route.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as _geom
from . import moments as _mom
from . import quadrature as _quad
from .errors import CurveDataError, GeometryError
from .geometry import Path

MIN_NODES = 16
MIN_CHORD_ARC_NODES = 64
_CLOSURE_RTOL = 1e-9
CORNER_LIMIT_DEG = 30.0
MATCH_TOL = 1e-4
NONTANGENTIAL_MOMENT_DEGREE = 8


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Closed curve samples: params[j] in [0, 1], nodes points[j], data
    values[j]. points[-1] must coincide with points[0]; values may jump at
    the seam (the data is a density, not necessarily continuous).

    path and data_fn, when present, give the analytic description the
    samples were drawn from.
    """

    params: np.ndarray
    points: np.ndarray
    values: np.ndarray
    path: Path | None = None
    data_fn: object | None = None

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        points = np.asarray(self.points, dtype=complex)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if params.ndim != 1 or params.shape != points.shape \
                or params.shape != values.shape:
            raise CurveDataError("params, points and values must be equal "
                                 "length 1-d arrays")
        if not all(np.isfinite(a).all() for a in (params, points, values)):
            raise CurveDataError("params, points and values must be finite")
        if len(params) < MIN_NODES + 1:
            raise CurveDataError(f"need at least {MIN_NODES} intervals, got "
                                 f"{len(params) - 1}")
        if not np.all(np.diff(params) > 0.0):
            raise CurveDataError("params must increase strictly")
        if abs(params[0]) > 1e-12 or abs(params[-1] - 1.0) > 1e-12:
            raise CurveDataError("params must run from 0 to 1")
        scale = float(np.max(np.abs(points))) or 1.0
        if abs(points[-1] - points[0]) > _CLOSURE_RTOL * scale:
            raise CurveDataError("curve is not closed: first and last nodes "
                                 "differ")

    @property
    def intervals(self) -> int:
        return len(self.points) - 1

    @property
    def analytic(self) -> bool:
        """Whether the analytic description (path and data_fn) is known."""
        return self.path is not None and self.data_fn is not None

    def chords(self) -> np.ndarray:
        return np.diff(self.points)

    def perimeter(self) -> float:
        return float(np.sum(np.abs(self.chords())))

    def local_spacing(self, near: complex) -> float:
        j = int(np.argmin(np.abs(self.points[:-1] - near)))
        gaps = np.abs(self.chords())
        return float(max(gaps[j], gaps[j - 1]))

    def max_reach(self) -> float:
        return float(np.max(np.abs(self.points)))


def sample_path(path: Path, data_fn, intervals: int,
                warp=None) -> SampledCurve:
    """Sample a closed path at arclength fractions j/intervals, optionally
    rewarped by a monotone map fixing 0 and 1. Odd-frequency warps break
    the aliasing that makes uniform circle sums exact, which matters when a
    discretization error is itself the quantity under test.
    """
    if not path.closed:
        raise CurveDataError("sampling requires a closed path")
    t = np.linspace(0.0, 1.0, intervals + 1)
    u = t if warp is None else np.array([warp(v) for v in t], dtype=float)
    if abs(u[0]) > 1e-12 or abs(u[-1] - 1.0) > 1e-12 \
            or not np.all(np.diff(u) > 0.0):
        raise CurveDataError("warp must map [0, 1] onto itself increasingly")
    pts = path.points_at(u)
    pts[-1] = pts[0]
    fn = _mom.as_function(data_fn)
    vals = np.asarray(fn(pts), dtype=complex)
    return SampledCurve(t, pts, vals, path=path, data_fn=fn)


def odd_warp(amplitude: float = 0.3):
    """u + amplitude sin(2 pi u) / (2 pi): strictly increasing for
    amplitude < 1 and free of the even-frequency cancellations."""
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    return lambda u: u + amplitude * math.sin(2.0 * math.pi * u) \
        / (2.0 * math.pi)


def unit_circle_samples(data_fn, intervals: int,
                        warp_amplitude: float = 0.0) -> SampledCurve:
    warp = odd_warp(warp_amplitude) if warp_amplitude else None
    return sample_path(_geom.circle(0.0, 1.0), data_fn, intervals, warp)


def curve_from_csv(source) -> SampledCurve:
    """Rows t, re(z), im(z), re(g), im(g); comma separated, '#' comments."""
    if isinstance(source, str) and "\n" in source:
        handle = io.StringIO(source)
    else:
        handle = source
    data = np.loadtxt(handle, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != 5:
        raise CurveDataError("curve csv needs 5 columns: "
                             "t, re(z), im(z), re(g), im(g)")
    return SampledCurve(data[:, 0], data[:, 1] + 1j * data[:, 2],
                        data[:, 3] + 1j * data[:, 4])


# ---------------------------------------------------------------------------
# trapezoid integrals and the primitive tower

def _trapezoid_closed(nodes: np.ndarray, dz: np.ndarray) -> complex:
    return complex(np.sum(0.5 * (nodes[:-1] + nodes[1:]) * dz))


def boundary_moment(curve: SampledCurve, k: int) -> complex:
    """Trapezoid value of the degree-k moment of the sampled measure."""
    if k < 0:
        raise ValueError("moment degree must be nonnegative")
    w = curve.points ** k * curve.values
    return _trapezoid_closed(w, curve.chords())


@dataclass(frozen=True)
class TowerLevel:
    order: int
    closing_defect: float
    scale: float
    passed: bool


@dataclass(frozen=True, eq=False)
class PrimitiveTowerResult:
    levels: tuple[TowerLevel, ...]
    pass_depth: int
    moments: tuple[complex, ...]
    leading_zero_count: int
    zero_tolerance: _mom.ZeroTolerance
    functions: tuple[np.ndarray, ...]  # G^0 = data, G^1 .. G^levels

    @property
    def duality_consistent(self) -> bool:
        return self.pass_depth == self.leading_zero_count


def _moment_scales(curve: SampledCurve, count: int) -> list[float]:
    """Zero-test scale of the moments of degree 0 .. count - 1:
    perimeter * max |g| * max(1, max |z|)^k."""
    base = curve.perimeter() * float(np.max(np.abs(curve.values)))
    reach = max(curve.max_reach(), 1.0)
    return [base * reach ** k for k in range(count)]


def primitive_tower(curve: SampledCurve, levels: int = 4,
                    zero_tol: _mom.ZeroTolerance = _mom.ZeroTolerance()
                    ) -> PrimitiveTowerResult:
    """Repeatedly integrate the sampled measure along the curve and test
    whether each running primitive returns to zero at the seam.

    Level n closes exactly when the previous level has vanishing circuit
    integral, so the depth of the tower must reproduce the count of leading
    zero moments; both counts are reported and compared.
    """
    if levels < 1:
        raise ValueError("need at least one tower level")
    functions = tower_functions(curve, levels)
    perim = curve.perimeter()
    defects = [abs(complex(g[-1])) for g in functions[1:]]
    scales = [perim * float(np.max(np.abs(g))) for g in functions[:-1]]
    level_rows = tuple(
        TowerLevel(order, defect, scale, defect <= zero_tol.bound(scale))
        for order, (defect, scale) in enumerate(zip(defects, scales), 1))
    depth = zero_tol.first_nonzero(defects, scales)

    moms = tuple(boundary_moment(curve, k) for k in range(levels))
    zeros = zero_tol.first_nonzero(moms, _moment_scales(curve, levels))
    return PrimitiveTowerResult(level_rows,
                                levels if depth is None else depth, moms,
                                levels if zeros is None else zeros,
                                zero_tol, tuple(functions))


def tower_functions(curve: SampledCurve, levels: int) -> list[np.ndarray]:
    """Node values of the running primitives G^1 .. G^levels (G^0 = data)."""
    dz = curve.chords()
    out = [curve.values]
    for _ in range(levels):
        prev = out[-1]
        nxt = np.zeros_like(prev)
        np.cumsum(0.5 * (prev[:-1] + prev[1:]) * dz, out=nxt[1:])
        out.append(nxt)
    return out


def _ibp_from_tower(curve: SampledCurve, functions, level: int) -> float:
    g = functions[level - 1]
    big_g = functions[level]
    dz = curve.chords()
    m1 = _trapezoid_closed(curve.points * g, dz)
    boundary_term = curve.points[0] * big_g[-1]
    circuit = _trapezoid_closed(big_g, dz)
    return abs(m1 - (boundary_term - circuit))


def ibp_residual(curve: SampledCurve, level: int = 1) -> float:
    """|m1(G) - ([zG'] - circuit of G' dz)| with G the level-1 primitive of
    the previous level; an exact identity in the continuum, O(h^2) for the
    trapezoid discretization (and it aliases to rounding noise on uniform
    circle samples of band-limited data, hence the warped samplers)."""
    if level < 1:
        raise ValueError("level must be at least 1")
    return _ibp_from_tower(curve, tower_functions(curve, level), level)


def analytic_ibp_residual(curve: SampledCurve,
                          tol: float = _quad.DEFAULT_TOL) -> float:
    """Same identity through adaptive quadrature: one adaptive pass over
    [g, z g] gives m0, m1 and its accepted panels; the running primitive G
    at each panel's Gauss nodes is the sum of the earlier panels plus a
    Gauss rule from the panel's start to the node, and the circuit of G dz
    is the Gauss sum on the same panels. No discretization is shared with
    the trapezoid route."""
    if not curve.analytic:
        raise CurveDataError("analytic route needs path and data_fn")
    run = _quad._running_primitive(_mom.as_function(curve.data_fn),
                                   curve.path, tol)
    m0, m1 = run.stack.value
    return abs(m1 - (curve.path.start * m0 - run.circuit))


@dataclass(frozen=True, eq=False)
class BoundaryDualityReport:
    tower: PrimitiveTowerResult
    ibp_residuals: tuple[float, ...]
    analytic_ibp: float | None

    @property
    def pass_depth(self) -> int:
        return self.tower.pass_depth

    @property
    def leading_zero_count(self) -> int:
        return self.tower.leading_zero_count

    @property
    def depth_matches(self) -> bool:
        return self.tower.duality_consistent


def boundary_duality(curve: SampledCurve, levels: int = 4,
                    zero_tol: _mom.ZeroTolerance = _mom.ZeroTolerance(),
                    tol: float = _quad.DEFAULT_TOL) -> BoundaryDualityReport:
    """Tower depth versus leading zero moments, plus the discrete and
    (when the curve knows its analytic form) quadrature-based
    integration-by-parts residuals, all from one tower."""
    tower = primitive_tower(curve, levels, zero_tol)
    residuals = tuple(_ibp_from_tower(curve, tower.functions, lv)
                      for lv in range(1, levels + 1))
    analytic = analytic_ibp_residual(curve, tol) if curve.analytic else None
    return BoundaryDualityReport(tower, residuals, analytic)


# ---------------------------------------------------------------------------
# Cauchy transform of the sampled measure

def _discrete_winding(points: np.ndarray, w: complex) -> int:
    """Winding number of the closed polyline through points around w."""
    if np.min(np.abs(points - w)) == 0.0:
        raise GeometryError("point coincides with a curve node")
    chords = _geom.Chords(points[:-1], points[1:])
    total = float(chords.turns(np.array([w], dtype=complex))[0])
    nearest = round(total)
    if abs(total - nearest) > 0.01:
        raise GeometryError("winding sum did not settle near an integer")
    return int(nearest)


def cauchy_transform(curve: SampledCurve, w: complex, route: str = "auto",
                     tol: float = _quad.DEFAULT_TOL) -> complex:
    """(1/2 pi i) circuit of g(z)/(z - w) dz for w inside the curve.

    The discrete route refuses points closer to the polyline nodes than
    five local spacings, where the trapezoid kernel loses accuracy; the
    analytic route only needs w off the path.
    """
    if route not in ("auto", "discrete", "analytic"):
        raise ValueError("route must be auto, discrete or analytic")
    if route == "auto":
        route = "analytic" if curve.analytic else "discrete"
    if _discrete_winding(curve.points, w) != 1:
        raise GeometryError(f"{w:.6g} is not enclosed once by the curve")
    if route == "discrete":
        dist = float(np.min(np.abs(curve.points - w)))
        if dist < 5.0 * curve.local_spacing(w):
            raise CurveDataError(
                "point sits within five node spacings of the curve; the "
                "discrete transform is unreliable there")
        kernel = curve.values / (curve.points - w)
        total = _trapezoid_closed(kernel, curve.chords())
        return total / (2j * math.pi)
    if not curve.analytic:
        raise CurveDataError("analytic route needs path and data_fn")
    fn = _mom.as_function(curve.data_fn)
    value = _quad.integrate(lambda z: fn(z) / (z - w), curve.path, tol).value
    return value / (2j * math.pi)


# ---------------------------------------------------------------------------
# nontangential boundary behavior

@dataclass(frozen=True, eq=False)
class NontangentialReport:
    node_index: int
    boundary_point: complex
    boundary_value: complex
    approach_points: tuple[complex, ...]
    transform_values: tuple[complex, ...]
    residuals: tuple[float, ...]
    matches_boundary: bool
    expected_match: bool

    @property
    def consistent(self) -> bool:
        return self.matches_boundary == self.expected_match


def _corner_angle_deg(curve: SampledCurve, j: int) -> float:
    pts = curve.points
    before = pts[j] - pts[j - 1 if j > 0 else -2]
    after = pts[j + 1 if j + 1 < len(pts) else 1] - pts[j]
    if abs(before) == 0.0 or abs(after) == 0.0:
        raise CurveDataError("degenerate chord at the requested node")
    return abs(math.degrees(np.angle(after / before)))


def nontangential_check(curve: SampledCurve, node_index: int = 0,
                        radii: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 5e-5),
                        tol: float = _quad.DEFAULT_TOL,
                        zero_tol: _mom.ZeroTolerance = _mom.ZeroTolerance()
                        ) -> NontangentialReport:
    """March toward a boundary node along the inward normal and compare the
    Cauchy transform with the sampled boundary value.

    A match (within MATCH_TOL at the smallest radius) is expected exactly
    when the moments through NONTANGENTIAL_MOMENT_DEGREE vanish, taken from
    the transform's own route, so a warped sample's trapezoid error cannot
    pass for a nonzero moment. The report carries both the measured and the
    expected outcome so a disagreement surfaces as an inconsistency.
    """
    pts = curve.points
    if not 0 <= node_index < curve.intervals:
        raise CurveDataError("node index out of range")
    if _corner_angle_deg(curve, node_index) > CORNER_LIMIT_DEG:
        raise CurveDataError("node sits on a corner; nontangential approach "
                             "needs a smooth boundary point")
    z0 = pts[node_index]
    prev_pt = pts[node_index - 1] if node_index > 0 else pts[-2]
    tangent = pts[node_index + 1] - prev_pt
    tangent /= abs(tangent)
    normal = 1j * tangent  # inward for positively oriented curves
    if not radii:
        raise ValueError("need at least one radius")
    if not sorted(radii, reverse=True) == list(radii):
        raise ValueError("radii must decrease")

    approach = []
    values = []
    residuals = []
    boundary_value = complex(curve.values[node_index])
    for r in radii:
        w = z0 + r * normal
        v = cauchy_transform(curve, w, tol=tol)  # refuses w outside the curve
        approach.append(complex(w))
        values.append(v)
        residuals.append(abs(v - boundary_value))
    matches = residuals[-1] <= MATCH_TOL

    count = NONTANGENTIAL_MOMENT_DEGREE + 1
    if curve.analytic:
        moms = _mom._moments(_mom.as_function(curve.data_fn), curve.path,
                             np.arange(count), tol)
    else:
        moms = [boundary_moment(curve, k) for k in range(count)]
    expected = zero_tol.first_nonzero(
        moms, _moment_scales(curve, count)) is None

    return NontangentialReport(node_index, complex(z0), boundary_value,
                               tuple(approach), tuple(values),
                               tuple(residuals), matches, expected)


# ---------------------------------------------------------------------------
# chord-arc geometry and the difference-quotient bound

def chord_arc_constant(curve: SampledCurve) -> float:
    """max over node pairs of (shorter arc length) / (chord length).

    Node i meets node i + k mod M for offsets k = 1 .. M/2, every unordered
    pair and never a node itself: O(M) memory, O(M^2) time."""
    if curve.intervals < MIN_CHORD_ARC_NODES:
        raise CurveDataError(f"chord-arc estimate needs at least "
                             f"{MIN_CHORD_ARC_NODES} intervals")
    pts = curve.points[:-1]
    gaps = np.abs(curve.chords())
    s = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    total = float(np.sum(gaps))
    floor = 1e-12 * (float(np.max(np.abs(pts))) or 1.0)
    m = len(pts)
    pts_twice, s_twice = np.concatenate((pts, pts)), np.concatenate((s, s))
    worst = 0.0
    for k in range(1, m // 2 + 1):
        chord = np.abs(pts_twice[k:k + m] - pts)
        if np.min(chord) < floor:
            raise CurveDataError("coincident nodes make the chord-arc ratio "
                                 "unbounded")
        ds = np.abs(s_twice[k:k + m] - s)
        worst = max(worst, float(np.max(np.minimum(ds, total - ds) / chord)))
    return worst


@dataclass(frozen=True, eq=False)
class DifferenceQuotientReport:
    start_index: int
    offsets: tuple[int, ...]
    chord_lengths: tuple[float, ...]
    arc_lengths: tuple[float, ...]
    residuals: tuple[float, ...]
    bounds: tuple[float, ...]
    constant: float

    @property
    def bound_satisfied(self) -> bool:
        return all(r <= b * (1.0 + 1e-9) + 1e-15
                   for r, b in zip(self.residuals, self.bounds))


def difference_quotient_check(curve: SampledCurve, start_index: int = 0,
                              constant: float | None = None
                              ) -> DifferenceQuotientReport:
    """Second-primitive increments against the chord-arc bound.

    With G the running primitive of the data and F its running primitive,
    |F(z_b) - F(z_a) - G(z_a)(z_b - z_a)| is a trapezoid sum of (G - G(z_a))
    over the arc, so it is bounded by max |G - G(z_a)| times the arc
    length, hence by the chord-arc constant times the chord. Offsets double
    from one interval up to half the curve so the decay toward the node is
    visible.
    """
    m = curve.intervals
    if not 0 <= start_index < m:
        raise CurveDataError("start index out of range")
    if constant is None:
        constant = chord_arc_constant(curve)
    tower = tower_functions(curve, 2)
    big_g, big_f = tower[1], tower[2]
    pts = curve.points
    gaps = np.abs(curve.chords())

    offsets = []
    d = 1
    while d <= m // 2 and start_index + d <= m:
        offsets.append(d)
        d *= 2
    chords = []
    arcs = []
    residuals = []
    bounds = []
    a = start_index
    for d in offsets:
        b = a + d
        chord = abs(pts[b] - pts[a])
        arc = float(np.sum(gaps[a:b]))
        increment = big_f[b] - big_f[a] - big_g[a] * (pts[b] - pts[a])
        sup = float(np.max(np.abs(big_g[a:b + 1] - big_g[a])))
        chords.append(chord)
        arcs.append(arc)
        residuals.append(abs(increment))
        bounds.append(constant * chord * sup)
    return DifferenceQuotientReport(start_index, tuple(offsets),
                                    tuple(chords), tuple(arcs),
                                    tuple(residuals), tuple(bounds),
                                    float(constant))
