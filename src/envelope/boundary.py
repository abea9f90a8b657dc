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

import cmath
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry as _geom
from . import moments as _mom
from . import quadrature as _quad
from .errors import CurveDataError, GeometryError, ScaleOverflowError
from .geometry import Path

MIN_NODES = 16
# every tower level keeps one array per node, so a curve, sampled from a
# path or read from a CSV, has at most this many intervals
MAX_NODES = 2 ** 16
MIN_CHORD_ARC_NODES = 64
_CLOSURE_RTOL = 1e-9
CORNER_LIMIT_DEG = 30.0
MATCH_TOL = 1e-4
NONTANGENTIAL_MOMENT_DEGREE = 8
# Default approach radii of nontangential_check, largest first.
NONTANGENTIAL_RADII = (1e-1, 1e-2, 1e-3, 5e-5)
SUBTRACT_REACH = 0.02  # of the path length; see cauchy_transform
# Default depth of the primitive tower.
TOWER_LEVELS = 4
# A difference-quotient residual r passes its bound b when
# r <= b * (1 + BOUND_RELATIVE_SLACK) + BOUND_ABSOLUTE_SLACK.
BOUND_RELATIVE_SLACK = 1e-9
BOUND_ABSOLUTE_SLACK = 1e-15
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
        if not np.all(np.maximum(np.abs(points.real), np.abs(points.imag))
                      <= _geom.MAX_COORDINATE):
            raise CurveDataError("point coordinates may not exceed "
                                 f"{_geom.MAX_COORDINATE:g} in magnitude")
        if len(params) < MIN_NODES + 1:
            raise CurveDataError(f"need at least {MIN_NODES} intervals, got "
                                 f"{len(params) - 1}")
        if len(params) > MAX_NODES + 1:
            raise CurveDataError(f"need at most {MAX_NODES} intervals, got "
                                 "more")
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
    rewarped by a monotone map fixing 0 and 1. The warp maps an array of
    parameters to the array of their images, in one call. Odd-frequency
    warps break the aliasing that makes uniform circle sums exact, which
    matters when a discretization error is itself the quantity under test.
    data_fn is read as the integrals read it (quadrature._eval_batch): a
    constant answer fills every node, and a callable that refuses the node
    array is called point by point.
    """
    if not path.closed:
        raise CurveDataError("sampling requires a closed path")
    t = np.linspace(0.0, 1.0, intervals + 1)
    u = t if warp is None else np.asarray(warp(t), dtype=float)
    if abs(u[0]) > 1e-12 or abs(u[-1] - 1.0) > 1e-12 \
            or not np.all(np.diff(u) > 0.0):
        raise CurveDataError("warp must map [0, 1] onto itself increasingly")
    pts = path.points_at(u)
    pts[-1] = pts[0]
    fn = _mom.as_function(data_fn)
    return SampledCurve(t, pts, _quad._eval_batch(fn, pts), path=path,
                        data_fn=fn)


def odd_warp(amplitude: float = 0.3):
    """u + amplitude sin(2 pi u) / (2 pi), for a number or an array u:
    strictly increasing for amplitude < 1 and free of the even-frequency
    cancellations."""
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    return lambda u: u + amplitude * np.sin(2.0 * math.pi * u) \
        / (2.0 * math.pi)


def unit_circle_samples(data_fn, intervals: int,
                        warp_amplitude: float = 0.0) -> SampledCurve:
    warp = odd_warp(warp_amplitude) if warp_amplitude else None
    return sample_path(_geom.circle(0.0, 1.0), data_fn, intervals, warp)


def _rows_within(handle, cap: int) -> bool:
    """Can the seekable text handle hold no more than cap rows of five
    numbers from where it stands? A row takes at least ten characters
    ("0,0,0,0,0" and its line end), so fewer than 10 cap characters left,
    measured by seeking to the end, cannot hold more. A position that
    carries decoder state reads as no. The handle is rewound."""
    start = handle.tell()
    left = handle.seek(0, io.SEEK_END) - start
    handle.seek(start)
    return 0 <= left < 10 * cap


def curve_from_csv(source) -> SampledCurve:
    """Rows t, re(z), im(z), re(g), im(g); comma separated, '#' comments.
    At most MAX_NODES + 2 rows are read: a file too long for a curve is
    refused without being loaded."""
    if isinstance(source, str) and "\n" in source:
        handle = io.StringIO(source)
    else:
        handle = source
    # loadtxt's max_rows allocates every row it allows in advance (2.5 MB),
    # so a text handle too short to pass the cap is read without it
    cap = MAX_NODES + 2
    short = isinstance(handle, io.TextIOBase) and handle.seekable() \
        and _rows_within(handle, cap)
    # loadtxt warns of a file without data rows, and of comment lines not
    # counted towards max_rows; the first is refused below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(handle, delimiter=",", comments="#", ndmin=2,
                          max_rows=None if short else cap)
    if not data.size:
        raise CurveDataError("curve csv has no data rows")
    if data.shape[1] != 5:
        raise CurveDataError("curve csv needs 5 columns: "
                             "t, re(z), im(z), re(g), im(g)")
    return SampledCurve(data[:, 0], data[:, 1] + 1j * data[:, 2],
                        data[:, 3] + 1j * data[:, 4])


# ---------------------------------------------------------------------------
# trapezoid integrals and the primitive tower

def _refuse_overflow(finite: bool, what: str) -> None:
    """A CurveDataError naming what unless finite, the test that what
    stayed inside the float range. Callers compute under np.errstate, so
    that an overflow shows as inf or nan, never as a warning."""
    if not finite:
        raise CurveDataError(f"{what} leaves the float range")


def _trapezoid_closed(nodes: np.ndarray, dz: np.ndarray) -> complex:
    total = complex(np.sum(0.5 * (nodes[:-1] + nodes[1:]) * dz))
    _refuse_overflow(cmath.isfinite(total),
                     "a trapezoid sum of the curve data")
    return total


def boundary_moment(curve: SampledCurve, k: int) -> complex:
    """Trapezoid value of the degree-k moment of the sampled measure."""
    if k < 0:
        raise ValueError("moment degree must be nonnegative")
    with np.errstate(all="ignore"):
        return _trapezoid_closed(curve.points ** k * curve.values,
                                 curve.chords())


@dataclass(frozen=True)
class TowerLevel:
    closing_defect: float
    passed: bool


@dataclass(frozen=True, eq=False)
class PrimitiveTowerResult:
    levels: tuple[TowerLevel, ...]
    pass_depth: int
    moments: tuple[complex, ...]
    leading_zero_count: int
    functions: tuple[np.ndarray, ...]  # G^0 = data, G^1 .. G^levels

    @property
    def duality_consistent(self) -> bool:
        return self.pass_depth == self.leading_zero_count


def _moment_scales(curve: SampledCurve, count: int) -> list[float]:
    """Zero-test scale of the moments of degree 0 .. count - 1:
    perimeter * max |g| * max(1, max |z|)^k."""
    with np.errstate(all="ignore"):
        base = curve.perimeter() * float(np.max(np.abs(curve.values)))
    try:
        return _mom._degree_scales(base, max(curve.max_reach(), 1.0), count)
    except ScaleOverflowError as exc:
        raise CurveDataError(str(exc)) from exc


def primitive_tower(curve: SampledCurve, levels: int = TOWER_LEVELS,
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
    with np.errstate(all="ignore"):
        scales = [perim * float(np.max(np.abs(g))) for g in functions[:-1]]
    _refuse_overflow(all(map(math.isfinite, scales)), "a tower level's scale")
    level_rows = tuple(TowerLevel(defect, defect <= zero_tol.bound(scale))
                       for defect, scale in zip(defects, scales))
    depth = zero_tol.first_nonzero(defects, scales)

    moms = tuple(boundary_moment(curve, k) for k in range(levels))
    zeros = zero_tol.first_nonzero(moms, _moment_scales(curve, levels))
    return PrimitiveTowerResult(level_rows,
                                levels if depth is None else depth, moms,
                                levels if zeros is None else zeros,
                                tuple(functions))


def tower_functions(curve: SampledCurve, levels: int) -> list[np.ndarray]:
    """Node values of the running primitives G^1 .. G^levels (G^0 = data);
    a level past the float range is refused (CurveDataError)."""
    dz = curve.chords()
    out = [curve.values]
    with np.errstate(all="ignore"):
        for level in range(1, levels + 1):
            prev = out[-1]
            nxt = np.zeros_like(prev)
            np.cumsum(0.5 * (prev[:-1] + prev[1:]) * dz, out=nxt[1:])
            _refuse_overflow(np.isfinite(nxt).all(), f"tower level {level}")
            out.append(nxt)
    return out


def _ibp_from_tower(curve: SampledCurve, functions, level: int) -> float:
    g = functions[level - 1]
    big_g = functions[level]
    dz = curve.chords()
    with np.errstate(all="ignore"):
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


def boundary_duality(curve: SampledCurve, levels: int = TOWER_LEVELS,
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
    a curve without one, the polyline) does not enclose once by the verdict
    of Chords.windings, which puts a point within its band on it. The
    discrete route also refuses points closer to the polyline nodes than
    five local spacings, where the trapezoid kernel loses accuracy.
    """
    shape = np.shape(w)
    w = _geom._finite_points(w)
    chords = curve.path.arrays.chords if curve.analytic \
        else _geom.Chords((curve.points[:-1], curve.points[1:],
                           *_geom._NO_ARCS), [curve.intervals], [0])
    wind, dist = (column[:, 0] for column in chords.windings(w))
    for p in w[wind != 1]:
        raise GeometryError(f"{p:.6g} is not enclosed once by the curve")
    s = np.zeros(w.shape, dtype=complex)
    if curve.analytic:
        path, fn = curve.path, _mom.as_function(curve.data_fn)
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
        with np.errstate(all="ignore"):
            kernel = curve.values / (curve.points - w[:, None])
            total = np.sum(0.5 * (kernel[:, :-1] + kernel[:, 1:])
                           * curve.chords(), axis=1)
        _refuse_overflow(np.isfinite(total).all(), "the discrete Cauchy sum")
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


@dataclass(frozen=True, eq=False)
class _ChordArcPrefixes:
    """The O(M) arrays that bound the pairs of chord-arc tiles. Edge n runs
    from node n to node n + 1 mod M. The running sums are indexed by node
    or edge up to 2M, so the (i + k)-ranges of the tiles never wrap."""
    pts: np.ndarray        # nodes 0 .. M-1
    s: np.ndarray          # arclength from node 0 to node n < M
    s2: np.ndarray         # arclength from node 0 to node n < 2M
    gaps: np.ndarray       # length of edge n < M, as s counts it
    angles: np.ndarray     # direction of edge n < M; 0 for a length of 0
    turning: np.ndarray    # absolute turning from edge 0 to edge n < 2M
    variation: np.ndarray  # sum of |gaps[e + 1] - gaps[e]| over e < n < 2M
    total: float
    floor: float           # a shorter chord is refused
    slack: float           # rounding of arclength, and the closure gap
    gap_min: float         # at most the shortest edge
    turn_slack: float      # rounding of a difference of turning
    vary_slack: float      # rounding of a difference of variation


def _cyclic_sums(x: np.ndarray) -> np.ndarray:
    """Sum of x[e mod M] over e < n, for n = 0 .. 2M-1."""
    return np.cumsum(np.concatenate(([0.0], x, x[:-1])))


def _chord_arc_prefixes(curve: SampledCurve) -> _ChordArcPrefixes:
    pts = curve.points[:-1]
    m = len(pts)
    edges = curve.chords()
    gaps = np.abs(edges)
    s = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    total = float(np.sum(gaps))
    # s runs along the samples, whose last edge ends at the closure node, up
    # to _CLOSURE_RTOL away from node 0; the chords close the polygon
    closure = abs(complex(curve.points[-1] - curve.points[0]))
    edges[-1] = pts[0] - pts[-1]
    angles = np.angle(edges)
    # the turn from edge n to edge n + 1, at most pi, and the change of
    # length; an edge of length 0 takes the direction 0, and the turns on
    # both sides of it cover the turn between its neighbours
    turn = np.abs(np.concatenate((angles[1:], angles[:1])) - angles)
    turning = _cyclic_sums(np.minimum(turn, 2.0 * math.pi - turn))
    variation = _cyclic_sums(
        np.abs(np.concatenate((gaps[1:], gaps[:1])) - gaps))
    return _ChordArcPrefixes(
        pts, s, np.concatenate((s, s + total)), gaps, angles, turning,
        variation, total, 1e-12 * (float(np.abs(pts).max()) or 1.0),
        _CHORD_ARC_MARGIN * total + 2.0 * closure,
        float(gaps.min()) - closure,
        64.0 * _EPS * m * (1.0 + float(turning[-1])),
        16.0 * _EPS * m * (float(gaps.max()) + float(variation[-1])))


def _tile_bounds(pre: _ChordArcPrefixes, tiles: np.ndarray,
                 chord: np.ndarray, worst: float | None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds over the pairs (i, i + k), i0 <= i <= i1 and k0 <= k <= k1, of
    each tile (i0, i1, k0, k1) whose centre pair has the chord `chord`:
    every chord is at least chord_lo, every shorter arc at most
    arc_hi + pre.slack, and every ratio at most ratio_hi (inf where the
    turning bound does not apply). See chord_arc_constant for the argument
    of each bound.

    The cheap chord and arc bounds are computed for every tile, the
    turning bound for the tiles larger than a leaf that they keep against
    worst, and the directional chord and coupled arc bounds for the tiles
    that the turning bound keeps too. worst = None computes every bound
    for every tile."""
    i0, i1, k0, k1 = tiles
    ic, kc = (i0 + i1) // 2, (k0 + k1) // 2
    j0, jc, j1 = i0 + k0, ic + kc, i1 + k1
    s2, total, floor, slack = pre.s2, pre.total, pre.floor, pre.slack
    at_i0, at_ic, at_i1 = s2[i0], s2[ic], s2[i1]
    at_j0, at_jc, at_j1 = s2[j0], s2[jc], s2[j1]
    reach_i = np.maximum(at_ic - at_i0, at_i1 - at_ic)
    reach_j = np.maximum(at_jc - at_j0, at_j1 - at_jc)
    chord_lo = chord * (1.0 - _CHORD_ARC_MARGIN) - reach_i - reach_j - slack
    arc_hi = np.minimum(at_j1 - at_i0,
                        total - np.maximum(at_j0 - at_i1, 0.0))
    ratio_hi = np.full(len(chord), np.inf)
    if worst is None:
        live = np.arange(len(chord))
    else:
        # the other bounds cost a fixed price per call, which leaves,
        # evaluated pair by pair for less, do not repay: every bound on
        # every tile is 1.2-1.45x slower on pulled and rippled curves
        live = np.flatnonzero(((chord_lo <= 2.0 * floor)
                               | (arc_hi + slack > worst * chord_lo))
                              & ((i1 - i0 >= _LEAF_EDGE)
                                 | (k1 - k0 >= _LEAF_EDGE)))
        if not live.size:
            return chord_lo, arc_hi, ratio_hi

    # turning bound: the edges i0 .. i1 + k1 - 1 of every forward arc
    turning, turn_slack = pre.turning, pre.turn_slack
    i0, i1, k0, k1 = tiles.take(live, axis=1)
    bend = turning[i1 + k1 - 1] - turning[i0] + turn_slack
    arc_lo = k0 * pre.gap_min
    chord_min = arc_lo * np.cos(0.5 * bend)
    sure = (bend < math.pi) & (chord_min > 2.0 * floor)
    ratio_hi[live] = np.divide(
        arc_lo + slack, chord_min * (1.0 - _CHORD_ARC_MARGIN),
        out=np.full(live.size, np.inf), where=sure)
    if worst is not None:
        live = live[ratio_hi[live] > worst]
        if not live.size:
            return chord_lo, arc_hi, ratio_hi

    # the edges i0 .. ei of the i-range and j0 .. ej of the (i + k)-range,
    # and their turning; an empty range has reach 0, so its bend does not
    # matter
    i0, i1, k0, k1 = tiles.take(live, axis=1)
    ic = (i0 + i1) // 2
    j0, jc = i0 + k0, (ic + (k0 + k1) // 2) % len(pre.pts)
    ei, ej = i1 - 1, i1 + k1 - 1
    bend_i = turning[ei] - turning[i0] + turn_slack
    bend_j = turning[ej] - turning[j0] + turn_slack
    # directional chord bound: each reach weighted by the largest |cos|
    # between the centre chord and the edge directions of its range, which
    # lie within its bend of the direction of its centre edge
    off = np.abs(pre.angles[np.array((ic, jc))]
                 - np.angle(pre.pts[jc] - pre.pts[ic])) % math.pi
    off = np.minimum(off, math.pi - off)  # from the chord's line
    steep = np.cos(np.maximum(off - np.array((bend_i, bend_j)), 0.0))
    chord_lo[live] = chord[live] * (1.0 - _CHORD_ARC_MARGIN) - slack \
        - reach_i[live] * steep[0] - reach_j[live] * steep[1]
    # coupled arc bound: one step of i moves the forward arc by
    # gaps[i + k] - gaps[i]
    gaps, variation = pre.gaps, pre.variation
    drift = np.maximum(ic - i0, i1 - ic) * (
        np.abs(gaps[jc] - gaps[ic]) + variation[ei] - variation[i0]
        + variation[ej] - variation[j0] + pre.vary_slack)
    at_ic = s2[ic]
    arc_hi[live] = np.minimum(arc_hi[live], np.minimum(
        s2[ic + k1] - at_ic + drift, total - (s2[ic + k0] - at_ic - drift)))
    return chord_lo, arc_hi, ratio_hi


# rows of (i0, imid, k0, kmid, imid + 1, i1, kmid + 1, k1) that make the
# i0, i1, k0 and k1 rows of the four children of a tile
_CHILD_ROWS = np.array([[0, 0, 4, 4], [1, 1, 5, 5], [2, 6, 2, 6],
                        [3, 7, 3, 7]])


def chord_arc_constant(curve: SampledCurve) -> float:
    """max over node pairs of (shorter arc length) / (chord length).

    The pairs are node i with node i + k mod M, for i = 0 .. M-1 and
    k = 1 .. M/2: every unordered pair, never a node with itself. An exact
    branch-and-bound searches them in tiles i in [i0, i1], k in [k0, k1],
    starting from square tiles whose edge is the smallest power-of-two
    multiple of 4 that makes at most one batch of them. The centre pair
    (ic, kc) of every tile is evaluated exactly; its ratio is a lower bound
    on the maximum. r_i and r_j are the largest arclengths from node ic to
    the tile's i-range and from node ic + kc to its (i + k)-range. Edge n
    runs from node n to node n + 1. The bounds of _tile_bounds:

    - Cheap chord bound: a chord is 1-Lipschitz in arclength along the
      polyline, so every chord of the tile is at least
      chord(ic, kc) - r_i - r_j.
    - Cheap arc bound: every forward arc lies between
      a = max(0, s(i0 + k0) - s(i1)) and b = s(i1 + k1) - s(i0), so every
      shorter arc is at most min(b, total - a).
    - Turning bound: every forward arc runs along edges i0 .. i1 + k1 - 1.
      If T, their absolute turning, is below pi, their directions lie
      within T/2 of one direction, so chord >= cos(T/2) arc and every ratio
      is at most sec(T/2). T comes from a running sum of the turns between
      consecutive edges.
    - Directional chord bound: moving node i along an edge of direction t
      changes the component of z_j - z_i along the centre chord at rate
      |cos| of the angle between t and the chord. The edge directions of a
      range lie within its turning of the direction of its centre edge, so
      each reach is weighted by the largest such |cos| over them.
    - Coupled arc bound: one step of i moves the forward arc of (i, i + k)
      by gaps[i + k] - gaps[i], which differs from the centre's
      gaps[ic + kc] - gaps[ic] by at most the variation of edge length
      over the two ranges, read from a running sum of
      |gaps[e + 1] - gaps[e]|. So every forward arc is within that many
      steps times that much of s(ic + k) - s(ic), k in [k0, k1].

    A tile is dropped when its arc bound over its chord bound, or its
    turning bound, cannot beat the running maximum; the others are halved
    in i and in k. A kept tile of at most 4 x 4 pairs is evaluated pair by
    pair with the exact formula of _pair_ratios, so the maximum is the same
    float as over all pairs. The cheap bounds are computed for every tile.
    Each further bound costs a fixed price in numpy calls, which leaves,
    evaluated pair by pair for less, do not repay: the turning bound is
    computed for the tiles larger than a leaf that the cheap bounds keep,
    and the directional and coupled bounds for those that it keeps too.

    Floating point: every bound is loosened. The chord bounds lose 1e-9 of
    the centre chord and the slack 1e-9 total plus twice the closure gap,
    and the arc bounds gain the slack. The arc bounds and the exact
    formula read the same running sums s, so they differ by a few rounding
    errors of total. The chord bounds compare computed arclengths with the
    polyline's: s is a running sum, off by at most about M eps total, each
    chord is within a few eps of itself relatively, and s runs to the
    closure node, which may miss node 0 by the closure gap. The turning is
    raised by 64 eps M (1 + the total turning): each turn is within a few
    eps, and its running sum within M eps of the total. The variation is
    raised by 16 eps M (the longest edge plus the total variation) for the
    same reasons, and the turning bound divides by 1 - 1e-9 and adds the
    slack over the shortest forward arc, k0 times the shortest edge. So the
    margins cover the rounding for M up to about 10^6 nodes, and no pair
    that would raise the maximum is dropped.

    Coincident nodes: a tile whose chord bound is at most twice the floor
    1e-12 max|z| is never dropped by the chord bounds. The turning bound
    drops a tile only when every chord in it provably clears the floor,
    k0 min(gaps) cos(T/2) > 2 floor: an edge of length 0 has the direction
    0, so where the tangent is +x a duplicated node adds no turning. So
    every pair with a chord below the floor reaches _pair_ratios and is
    refused, adjacent duplicates (k = 1) included.

    Memory: tiles come off a depth-first work stack in batches of
    max(M/4, 1024), and the kept leaves of a batch, at most 16 pairs each,
    are evaluated at once, so memory stays O(M): about 1.5 MB at
    M = 4096. Time: the most tiles survive where the ratio nearly ties
    along a wide band of pairs, as on a uniform circle along its
    diameters: there 0.45% of the M^2/2 pairs are evaluated at M = 4096.
    The worst case is still O(M^2).
    """
    if curve.intervals < MIN_CHORD_ARC_NODES:
        raise CurveDataError(f"chord-arc estimate needs at least "
                             f"{MIN_CHORD_ARC_NODES} intervals")
    pre = _chord_arc_prefixes(curve)
    pts, s, total, floor, slack = pre.pts, pre.s, pre.total, pre.floor, \
        pre.slack
    m = len(pts)
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
        ratio, chord = _pair_ratios(pts, s, total, floor, ic, (ic + kc) % m)
        worst = max(worst, float(ratio.max()))
        chord_lo, arc_hi, ratio_hi = _tile_bounds(pre, tiles, chord, worst)
        keep = ((chord_lo <= 2.0 * floor)
                | (arc_hi + slack > worst * chord_lo)) & (ratio_hi > worst)
        split_i, split_k = i1 - i0 >= _LEAF_EDGE, k1 - k0 >= _LEAF_EDGE
        leaf = keep & ~split_i & ~split_k
        if leaf.any():
            l0, l1, lk0, lk1 = tiles.compress(leaf, axis=1)[:, :, None]
            i, k = l0 + _LEAF_I, lk0 + _LEAF_K
            inside = (i <= l1) & (k <= lk1)
            i = i[inside]
            ratio, _ = _pair_ratios(pts, s, total, floor, i,
                                    (i + k[inside]) % m)
            worst = max(worst, float(ratio.max()))
        grow = keep & ~leaf
        if grow.any():
            imid = np.where(split_i, ic, i1)
            kmid = np.where(split_k, kc, k1)
            children = np.array((i0, imid, k0, kmid, imid + 1, i1, kmid + 1,
                                 k1)).compress(grow, axis=1)[_CHILD_ROWS]
            i0, i1, k0, k1 = children
            stack.append(children.reshape(4, -1).compress(
                ((i0 <= i1) & (k0 <= k1)).ravel(), axis=1))
    return worst


@dataclass(frozen=True, eq=False)
class DifferenceQuotientReport:
    offsets: tuple[int, ...]
    residuals: tuple[float, ...]
    bounds: tuple[float, ...]
    constant: float

    @property
    def bound_satisfied(self) -> bool:
        return all(r <= b * (1.0 + BOUND_RELATIVE_SLACK)
                   + BOUND_ABSOLUTE_SLACK
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

    offsets = []
    d = 1
    while d <= m // 2 and start_index + d <= m:
        offsets.append(d)
        d *= 2
    residuals = []
    bounds = []
    a = start_index
    with np.errstate(all="ignore"):
        for d in offsets:
            b = a + d
            step = pts[b] - pts[a]
            increment = big_f[b] - big_f[a] - big_g[a] * step
            sup = float(np.max(np.abs(big_g[a:b + 1] - big_g[a])))
            residuals.append(abs(increment))
            bounds.append(constant * abs(step) * sup)
    _refuse_overflow(all(map(math.isfinite, residuals + bounds)),
                     "a difference quotient")
    return DifferenceQuotientReport(tuple(offsets), tuple(residuals),
                                    tuple(bounds), float(constant))
