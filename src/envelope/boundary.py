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
# Default approach radii of nontangential_check, largest first.
NONTANGENTIAL_RADII = (1e-1, 1e-2, 1e-3, 5e-5)
SUBTRACT_REACH = 0.02  # of the path length; see cauchy_transform
_EPS = float(np.finfo(float).eps)


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

def _winding(chords: _geom.Chords, w: np.ndarray) -> np.ndarray:
    """Winding numbers of a closed chain of chords around each point of w,
    from one pass; NaN where the sum misses an integer."""
    total = chords.turns(w)
    nearest = np.rint(total)
    return np.where(np.abs(total - nearest) <= _geom.WINDING_RESIDUAL_LIMIT,
                    nearest, np.nan)


def cauchy_transform(curve: SampledCurve, w, tol: float = _quad.DEFAULT_TOL):
    """(1/2 pi i) circuit of g(z)/(z - w) dz at one point w inside the
    curve, or at each point of an array (the result has its shape): by
    adaptive quadrature along the path when the curve is path-backed, by
    the trapezoid sum over the polyline otherwise.

    The path-backed route integrates (g(z) - s)/(z - w) for all points in
    one stacked integral on one panel tree and adds s back, where s = g(w)
    when w lies within SUBTRACT_REACH of the path length from the path and
    eps |g(w)| <= tol, and s = 0 (the plain kernel) elsewhere. Subtraction
    (Davis & Rabinowitz, Methods of Numerical Integration, 1984) keeps the
    integrand smooth as w nears the curve; far from it the plain kernel
    is as cheap and loses no digits to cancellation.

    Non-finite points are refused, and so are points that the path (or, for
    a curve without one, the polyline) does not enclose once. The discrete
    route also refuses points closer to the polyline nodes than five local
    spacings, where the trapezoid kernel loses accuracy.
    """
    shape = np.shape(w)
    w = np.asarray(w, dtype=complex).reshape(-1)
    for p in w[~np.isfinite(w)]:
        raise GeometryError(f"point {p} is not finite")
    if curve.analytic:  # points within 1e-9 of its length lie on the path
        path = curve.path
        dist = path.distance(w)
        wind = np.where(dist > _geom._ON_PATH_BAND * path.length,
                        _winding(path.arrays.chords, w), np.nan)
    else:
        wind = _winding(_geom.Chords(curve.points[:-1], curve.points[1:]), w)
    for p in w[wind != 1]:
        raise GeometryError(f"{p:.6g} is not enclosed once by the curve")
    s = np.zeros(w.shape, dtype=complex)
    if curve.analytic:
        fn = _mom.as_function(curve.data_fn)
        near = dist <= SUBTRACT_REACH * path.length
        if near.any():
            g_at = _quad._eval_batch(fn, w[near])
            s[near] = np.where(_EPS * np.abs(g_at) <= tol, g_at, 0.0)
        total = _quad.integrate(
            lambda z: (fn(z) - s[:, None]) / (z - w[:, None]), path,
            tol).value
    else:
        for p in w:
            if np.min(np.abs(curve.points - p)) \
                    < 5.0 * curve.local_spacing(p):
                raise CurveDataError(
                    "point sits within five node spacings of the curve; the "
                    "discrete transform is unreliable there")
        kernel = curve.values / (curve.points - w[:, None])
        total = np.sum(0.5 * (kernel[:, :-1] + kernel[:, 1:])
                       * curve.chords(), axis=1)
    # Python's complex division, since numpy's rounds some quotients
    # differently; s goes back where nonzero, as adding 0 turns -0.0 to 0.0
    out = np.array([complex(t) / (2j * math.pi) for t in total], dtype=complex)
    out[s != 0] += s[s != 0]
    return complex(out[0]) if shape == () else out.reshape(shape)


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
                        radii: tuple[float, ...] = NONTANGENTIAL_RADII,
                        tol: float = _quad.DEFAULT_TOL,
                        zero_tol: _mom.ZeroTolerance = _mom.ZeroTolerance()
                        ) -> NontangentialReport:
    """March toward a boundary node along the inward normal and compare the
    Cauchy transform with the sampled boundary value.

    The radii must be finite, positive and decreasing. All approach points
    go to one cauchy_transform call: on a path-backed curve, one stacked
    integral whose subtracted kernel stays cheap at radii down to 1e-8.

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
    if not all(math.isfinite(r) and r > 0.0 for r in radii):
        raise ValueError(f"radii must be finite and positive, got {radii}")
    if not sorted(radii, reverse=True) == list(radii):
        raise ValueError("radii must decrease")

    # one stacked transform for every radius; refuses w outside the curve
    approach = z0 + np.asarray(radii, dtype=float) * normal
    values = cauchy_transform(curve, approach, tol=tol)
    boundary_value = complex(curve.values[node_index])
    residuals = [abs(complex(v) - boundary_value) for v in values]
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
                               tuple(map(complex, approach)),
                               tuple(map(complex, values)),
                               tuple(residuals), matches, expected)


# ---------------------------------------------------------------------------
# chord-arc geometry and the difference-quotient bound

_CHORD_ARC_MARGIN = 1e-9
_LEAF_EDGE = 4
_LEAF_I, _LEAF_K = np.divmod(np.arange(_LEAF_EDGE ** 2), _LEAF_EDGE)


def _pair_ratios(pts: np.ndarray, s: np.ndarray, total: float, floor: float,
                 i: np.ndarray, j: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(shorter arc) / chord of the node pairs (i[n], j[n]), and the chords.

    The one exact formula: ds = |s[j] - s[i]|, min(ds, total - ds) over
    |z_j - z_i|. A chord below floor is refused."""
    chord = np.abs(pts[j] - pts[i])
    if np.min(chord) < floor:
        raise CurveDataError("coincident nodes make the chord-arc ratio "
                             "unbounded")
    ds = np.abs(s[j] - s[i])
    return np.minimum(ds, total - ds) / chord, chord


def chord_arc_constant(curve: SampledCurve) -> float:
    """max over node pairs of (shorter arc length) / (chord length).

    The pairs are node i with node i + k mod M, for i = 0 .. M-1 and
    k = 1 .. M/2: every unordered pair, never a node with itself. An exact
    branch-and-bound searches them in tiles i in [i0, i1], k in [k0, k1],
    starting from square tiles whose edge is the smallest power-of-two
    multiple of 4 that makes at most one batch of them:

    - The centre pair (ic, kc) of every tile is evaluated exactly; its ratio
      is a lower bound on the maximum.
    - A chord is 1-Lipschitz in arclength along the polyline, so every pair
      of the tile has chord >= chord(ic, kc) - r_i - r_j, where r_i and r_j
      are the largest arclengths from node ic to the tile's i-range and from
      node ic + kc to its (i + k)-range.
    - Its forward arc lies between a = max(0, s(i0 + k0) - s(i1)) and
      b = s(i1 + k1) - s(i0), so its shorter arc is at most
      min(b, total - a).
    - A tile whose arc bound over chord bound cannot beat the running
      maximum is dropped; the others are halved in i and in k. A kept tile
      of at most 4 x 4 pairs is evaluated pair by pair with the exact
      formula of _pair_ratios, so the maximum is the same float as over
      all pairs.

    Floating point: both bounds are loosened by the relative margin 1e-9,
    the arc bound by 1e-9 total and the chord bound by 1e-9 of the centre
    chord and 1e-9 total. The arc bound and the exact formula read the same
    running sums s, so they differ by a few rounding errors of total. The
    chord bound compares computed arclengths with the polyline's: s is a
    running sum, off by at most about M eps total, and each chord is within
    a few eps of itself relatively. So the margin covers the rounding for
    M up to about 10^6 nodes, and no pair that would raise the maximum is
    dropped.

    Coincident nodes: a tile whose chord bound is at most twice the floor
    1e-12 max|z| is never dropped, so every pair with a chord below the
    floor reaches _pair_ratios and is refused, adjacent duplicates
    (k = 1) included.

    Memory: tiles come off a depth-first work stack in batches of
    max(M/4, 1024), and the kept leaves of a batch, at most 16 pairs each,
    are evaluated at once, so memory stays O(M): about 1.2 MB at
    M = 4096. Time: the most tiles survive where the ratio nearly ties
    along a wide band of pairs, as on a uniform circle along its diameters:
    there 2.5% of the M^2/2 pairs are evaluated at M = 4096. The worst
    case is still O(M^2).
    """
    if curve.intervals < MIN_CHORD_ARC_NODES:
        raise CurveDataError(f"chord-arc estimate needs at least "
                             f"{MIN_CHORD_ARC_NODES} intervals")
    pts = curve.points[:-1]
    gaps = np.abs(curve.chords())
    s = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    total = float(np.sum(gaps))
    floor = 1e-12 * (float(np.max(np.abs(pts))) or 1.0)
    m = len(pts)
    # arclength from node 0 to node n, for n < 2M: the (i + k)-ranges of
    # the tiles run past node M - 1 without wrapping
    s2 = np.concatenate((s, s + total))
    slack = _CHORD_ARC_MARGIN * total
    batch = max(m // 4, 1024)
    # the top tiles: at most one batch of squares with an edge of 4 * 2^p
    edge = _LEAF_EDGE
    while (m // edge + 1) * (m // (2 * edge) + 1) > batch:
        edge *= 2
    i0 = np.arange(0, m, edge)
    k0 = np.arange(1, m // 2 + 1, edge)
    i0, k0 = (a.ravel() for a in np.meshgrid(i0, k0, indexing="ij"))
    stack = [np.stack((i0, np.minimum(i0 + edge - 1, m - 1),
                       k0, np.minimum(k0 + edge - 1, m // 2)))]
    worst = 0.0
    while stack:
        tiles = stack.pop()
        if tiles.shape[1] > batch:
            stack.append(tiles[:, :-batch])
            tiles = tiles[:, -batch:]
        i0, i1, k0, k1 = tiles
        ic, kc = (i0 + i1) // 2, (k0 + k1) // 2
        jc = ic + kc
        ratio, chord = _pair_ratios(pts, s, total, floor, ic, jc % m)
        worst = max(worst, float(np.max(ratio)))
        spread = (np.maximum(s2[ic] - s2[i0], s2[i1] - s2[ic])
                  + np.maximum(s2[jc] - s2[i0 + k0], s2[i1 + k1] - s2[jc]))
        chord_lo = chord * (1.0 - _CHORD_ARC_MARGIN) - spread - slack
        arc_hi = np.minimum(s2[i1 + k1] - s2[i0],
                            total - np.maximum(s2[i0 + k0] - s2[i1], 0.0))
        keep = (chord_lo <= 2.0 * floor) | (arc_hi + slack > worst * chord_lo)
        split_i, split_k = i1 - i0 >= _LEAF_EDGE, k1 - k0 >= _LEAF_EDGE
        leaf = keep & ~split_i & ~split_k
        if leaf.any():
            i = i0[leaf, None] + _LEAF_I
            k = k0[leaf, None] + _LEAF_K
            inside = (i <= i1[leaf, None]) & (k <= k1[leaf, None])
            i = i[inside]
            ratio, _ = _pair_ratios(pts, s, total, floor, i,
                                    (i + k[inside]) % m)
            worst = max(worst, float(np.max(ratio)))
        grow = keep & ~leaf
        if grow.any():
            i0, i1, k0, k1 = tiles[:, grow]
            imid = np.where(split_i[grow], ic[grow], i1)
            kmid = np.where(split_k[grow], kc[grow], k1)
            children = np.concatenate(
                (np.stack((i0, imid, k0, kmid)),
                 np.stack((i0, imid, kmid + 1, k1)),
                 np.stack((imid + 1, i1, k0, kmid)),
                 np.stack((imid + 1, i1, kmid + 1, k1))), axis=1)
            stack.append(children[:, (children[0] <= children[1])
                                  & (children[2] <= children[3])])
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
