"""Adaptive contour integration.

Order-16 Gauss-Legendre panels are bisected until the discrepancy between a
panel and its two children falls under the panel's share of the tolerance
budget (split proportionally to arclength), with a machine-precision floor
proportional to the panel's L1 mass so that large-magnitude integrands
terminate. A line starts from one panel and an arc from its quarter-turn
pieces (Segment.pieces, the pieces the winding kernel's chords are cut
into), so a full circle starts from four panels: a polynomial rule over a
whole or half turn gains nothing from periodicity and seldom passes.
Refinement runs level by level: the active panels of every segment of the
path are evaluated together, in one integrand call per tree level, split
into calls of at most MAX_CALL_VALUES values. The engine also returns its
panel tree, so a running primitive along the path is built on the
accepted panels without a second adaptive pass.

One evaluator, _Panels, reads the integrand on every batch of panels, the
running primitive's node rules included. It owns the panel budget, the
float guard and the refusal, naming a node, of a batch that is not finite.

An integrand may return a stack of shape (m, nodes) instead of one value
per node. The stack refines on one shared panel tree: a panel is accepted
only when every component passes the test above against its own tolerance
and its own mass, and the result holds one value per component.
integrate_each stacks in the same way the integrands of several full
circles, as rows of one integral over the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EnvelopeError, NonFiniteIntegrandError,
                     QuadratureBudgetError)
from .geometry import Arc, Path, circle

GAUSS_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_PANELS = 1 << 16
MAGNITUDE_SAMPLES = 256
_UNIT_CIRCLE = circle(0j, 1.0)

# Each integrand call returns at most this many complex values (unless three
# panels of the stack alone are larger), so no level, stack height or panel
# budget makes a call's memory grow without bound.
MAX_CALL_VALUES = 1 << 15
# The stack height is unknown until the integrand first answers, so the
# first call covers at most this many panels.
_FIRST_CALL_PANELS = 16

# Panels whose refinement discrepancy is already at the roundoff floor of
# their own L1 mass are accepted; pushing further cannot gain accuracy.
_ROUNDOFF_FACTOR = 64.0 * np.finfo(float).eps

# Stagnating panels (halving stopped shrinking the discrepancy) whose
# discrepancy is below this relative noise ceiling are rounding-bound, not
# singular: derivative amplification can push node noise past the 64 eps
# floor while both sides keep scaling with mass, which would never end.
_NOISE_CEILING = 1e-10


@dataclass(frozen=True)
class QuadratureResult:
    """value is a complex number, or an array with one entry per component
    of a stacked integrand; error_estimate is the summed refinement
    discrepancy, of the worst component for a stack."""

    value: complex | np.ndarray
    error_estimate: float
    evaluations: int


def _eval_batch(fn, xs: np.ndarray) -> np.ndarray:
    """fn at every entry of the 1-d array xs, shape (len(xs),) or, for a
    stacked integrand, (m, len(xs)); loops over scalars when fn rejects or
    mangles an ndarray batch."""
    try:
        vals = np.asarray(fn(xs))
    except EnvelopeError:
        raise
    except Exception:
        vals = None
    if vals is not None and vals.ndim == 0:
        vals = np.full(xs.shape, complex(vals))
    if vals is None or vals.ndim > 2 or vals.shape[-1:] != xs.shape:
        vals = _eval_each(fn, xs)
    return vals.astype(complex, copy=False)


def _eval_each(fn, xs: np.ndarray) -> np.ndarray:
    """fn point by point. A scalar answer gives shape (len(xs),); any other
    answer is one stack column, so the result has shape (m, len(xs)), laid
    out in rows like a stack fn returns for a batch, so that the panel sums
    of either come out the same."""
    vals = [np.asarray(fn(x), dtype=complex) for x in xs.tolist()]
    if not vals or vals[0].ndim == 0:
        return np.array(vals, dtype=complex)
    return np.ascontiguousarray(np.array([v.reshape(-1) for v in vals]).T)


class _Panels:
    """Gauss panels of one path, the integrand fn read by _eval_batch in
    capped batches. Counts the panels against the budget, learns the stack
    height from the first call and refuses an integrand that is not
    finite on a batch."""

    def __init__(self, fn, path: Path, max_panels: int):
        self.fn = fn
        self.arrays = path.arrays
        self.max_panels = max_panels
        self.count = 0
        self.height: int | None = None
        self.stacked = False

    def __call__(self, seg: np.ndarray, a: np.ndarray, mid: np.ndarray,
                 b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integral of values * z' over the local parameter intervals
        [a, b] of the segments seg, mid their midpoints 0.5 * (a + b), and
        its L1 mass: two arrays of shape (height, len(seg)). An integrand
        that is not finite on them, or whose masses overflow, is refused by
        name and point, where refining it would only exhaust the panel
        budget."""
        if self.count + seg.size > self.max_panels:
            raise QuadratureBudgetError(
                f"panel budget {self.max_panels} exhausted; integrand looks "
                "non-integrable at this tolerance")
        self.count += seg.size
        half = 0.5 * (b - a)
        value = mass = None
        lo = 0
        # values past the float range raise no numpy warning on the way
        with np.errstate(over="ignore", invalid="ignore"):
            while lo < seg.size:
                hi = lo + self._chunk()
                if hi == seg.size - 1:
                    hi -= 1  # the last call takes two panels, never one
                part = self._sums(seg[lo:hi], mid[lo:hi], half[lo:hi])
                if lo == 0 and hi >= seg.size:
                    value, mass = part
                    break
                if value is None:
                    value = np.empty((self.height, seg.size), dtype=complex)
                    mass = np.empty((self.height, seg.size))
                value[:, lo:hi], mass[:, lo:hi] = part
                lo = hi
            if not np.isfinite(mass.sum()):
                n = int(np.argmax(~np.isfinite(mass).all(axis=0)))
                z = self._worst_node(seg[n], a[n], b[n])
                raise NonFiniteIntegrandError(
                    "integrand is not finite, or overflows the float range, "
                    f"at z = {z:.6g}")
        return value, mass

    def _chunk(self) -> int:
        """Panels per call: at least three, as a level of three panels in
        calls of two would leave one alone."""
        if self.height is None:
            return _FIRST_CALL_PANELS
        return max(3, MAX_CALL_VALUES // (GAUSS_ORDER * max(1, self.height)))

    def _sums(self, seg, mid, half):
        """The Gauss sums and masses of one batch of panels, each a
        matrix-vector product of the node contributions with the weights.
        numpy takes a batch of one panel to a dot product, which rounds
        otherwise, so a level of two or more panels never comes in a batch
        of one, and a panel's sums do not depend on how its level is cut
        into calls."""
        ts = mid[:, None] + half[:, None] * _NODES
        z, dz = self.arrays.nodes(seg, ts)
        vals = _eval_batch(self.fn, z.ravel())
        if self.height is None:
            self.stacked = vals.ndim == 2
            self.height = vals.shape[0] if self.stacked else 1
        contrib = vals.reshape(self.height, seg.size, GAUSS_ORDER) * dz
        return half * (contrib @ _WEIGHTS), \
            half * (np.abs(contrib) @ _WEIGHTS)

    def _worst_node(self, seg: int, a: float, b: float) -> complex:
        """The Gauss node of the panel [a, b] of segment seg where the
        integrand is largest, a non-finite value counting as infinite."""
        ts = 0.5 * (a + b) + 0.5 * (b - a) * _NODES
        z = self.arrays.nodes(np.array([seg]), ts[None, :])[0].ravel()
        size = np.abs(_eval_batch(self.fn, z)).reshape(-1, z.size).max(axis=0)
        return complex(z[np.argmax(np.where(np.isnan(size), np.inf, size))])


def _halves(a: np.ndarray, mid: np.ndarray, b: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the intervals [a, mid] and [mid, b], interleaved."""
    lo = np.repeat(a, 2)
    lo[1::2] = mid
    hi = np.repeat(b, 2)
    hi[0::2] = mid
    return lo, hi


def _refine_step(halves, mass, coarse, node_tol, prev_est):
    """Compare each node's coarse panel with its two halves (interleaved
    in halves and mass): (done, fine, est), where done marks the nodes whose
    every component passes. prev_est is the parents' est (None at the
    roots)."""
    fine = halves[:, 0::2] + halves[:, 1::2]
    gap = fine - coarse
    est = np.hypot(gap.real, gap.imag)  # rounds like abs(complex)
    mass = mass[:, 0::2] + mass[:, 1::2]
    passed = est <= np.maximum(node_tol, _ROUNDOFF_FACTOR * mass)
    if prev_est is not None:
        # no longer converging and already at noise scale
        passed |= (est > 0.25 * prev_est) & (est <= _NOISE_CEILING * mass)
    return passed.all(axis=0), fine, est


def _integrate(fn, path: Path, tol: float
               ) -> tuple[QuadratureResult, list]:
    """The adaptive engine. fn is read at the Gauss nodes of P panels, a
    flat array of 16 P points, and answers with shape (16 P,) or
    (m, 16 P).

    Every segment starts from its pieces (Segment.pieces: a line is one,
    an arc one per quarter turn or part of one), each with its arclength
    share of tol, and every refinement step compares a panel with its two
    halves, as a depth-first recursion would;
    the tree is built a level at a time and summed bottom-up in the
    recursion's left/right order, so a scalar integrand gets the same panels
    and the same sums. The halves evaluated at one level, their ends lo and
    hi and midpoints 0.5 * (lo + hi), are the nodes a, b and mid of the
    next, so each level halves its panels once.

    Returns the result and the tree: per level, the done mask, the sums of
    the done nodes and the seg, a, mid and b of every node. The halves of
    the done nodes are the panels whose sums make up the value."""
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    panels = _Panels(fn, path, DEFAULT_MAX_PANELS)
    pieces = path.arrays.pieces
    # the roots are the pieces [k/p, (k+1)/p] of every segment, in path
    # order; each root is halved at least once, so the first batch holds
    # the roots and then their halves
    seg = np.repeat(np.arange(pieces.size), pieces)
    k = np.arange(seg.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    p = pieces[seg]
    a, b = k / p, (k + 1) / p
    mid = 0.5 * (a + b)
    lo, hi = _halves(a, mid, b)
    centre = 0.5 * (lo + hi)
    sums, mass = panels(np.concatenate((seg, np.repeat(seg, 2))),
                        np.concatenate((a, lo)), np.concatenate((mid, centre)),
                        np.concatenate((b, hi)))
    count = seg.size
    coarse, halves, mass = sums[:, :count], sums[:, count:], mass[:, count:]
    node_tol = np.repeat(tol * path.arrays.lengths / path.length / pieces,
                         pieces)
    height = panels.height
    prev_est = None
    err = np.zeros(height)
    levels = []
    # sums and discrepancies past the float range raise no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            done, fine, est = _refine_step(halves, mass, coarse, node_tol,
                                           prev_est)
            levels.append((done, fine[:, done], seg, a, mid, b))
            err += est[:, done].sum(axis=1)
            split = ~done
            if not split.any():
                break
            kept = np.repeat(split, 2)
            seg = np.repeat(seg[split], 2)
            a, mid, b = lo[kept], centre[kept], hi[kept]
            coarse = halves.reshape(height, -1, 2)[:, split].reshape(
                height, -1)
            node_tol = np.repeat(0.5 * node_tol[split], 2)
            prev_est = np.repeat(est[:, split], 2, axis=1)
            # free the previous level before the next
            del fine, est, halves, mass, lo, centre, hi
            lo, hi = _halves(a, mid, b)
            centre = 0.5 * (lo + hi)
            halves, mass = panels(np.repeat(seg, 2), lo, centre, hi)
        below = levels[-1][1]
        for done, fine, *_ in reversed(levels[:-1]):
            sums = np.empty((height, done.size), dtype=complex)
            sums[:, done] = fine
            sums[:, ~done] = below[:, 0::2] + below[:, 1::2]
            below = sums
        value = np.cumsum(below, axis=1)[:, -1]
    if not panels.stacked:
        value = complex(value[0])
    result = QuadratureResult(value, float(err.max(initial=0.0)),
                              GAUSS_ORDER * panels.count)
    return result, levels


def integrate(fn, path: Path, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Contour integral of fn along the path.

    fn receives complex points, in ndarray batches when it supports them
    (scalar-only callables are detected and looped over). It may return one
    value per point or a stack of shape (m, points); a stack gives an array
    of m integrals, each to the tolerance tol. On closed paths the result is
    orientation-antisymmetric and additive over concatenation; see
    QuadratureResult.error_estimate for the summed refinement discrepancies
    actually achieved.

    Raises QuadratureBudgetError after DEFAULT_MAX_PANELS panels, which
    signals a non-integrable singularity on or too near the path, and
    NonFiniteIntegrandError, naming a point, when fn is infinite or NaN, or
    its panel sums overflow, on the panels of any level of the refinement.
    """
    return _integrate(fn, path, tol)[0]


def _full_turn(path: Path) -> Arc | None:
    """The arc of a path that is one counterclockwise Arc from angle 0 over
    a full turn, as geometry.circle builds it, else None."""
    arc = path.segments[0]
    if len(path.segments) == 1 and isinstance(arc, Arc) and arc.ccw \
            and arc.t0 == 0.0 and arc.sweep == 2.0 * math.pi:
        return arc
    return None


def _stacked(jobs, tol: float) -> list:
    """The integrals of jobs on full circles C = circle(c, r), each
    integrand a row, or a stack of rows, of one integral over the unit
    circle:

        ∮_C g dz = ∮_{|u|=1} g(c + r u) r du.

    The points c + r u are the same floats as C's own Gauss nodes, since
    the unit circle's nodes are e^{iθ}; only r du rounds differently from
    C's velocity. Each row passes the tolerance against its own mass."""
    arcs = [_full_turn(path) for _, path in jobs]
    heights = []  # per job: its stack height, or None for one value

    def rows(u):
        out = [_eval_batch(fn, arc.center + arc.radius * u) * arc.radius
               for (fn, _), arc in zip(jobs, arcs)]
        if not heights:
            heights.extend(v.shape[0] if v.ndim == 2 else None for v in out)
        return np.concatenate([v.reshape(-1, u.size) for v in out])

    value = integrate(rows, _UNIT_CIRCLE, tol).value
    ends = np.cumsum([1 if m is None else m for m in heights])
    return [complex(v[0]) if m is None else v
            for v, m in zip(np.split(value, ends[:-1]), heights)]


def integrate_each(jobs, tol: float = DEFAULT_TOL) -> list:
    """The value of integrate(fn, path, tol) for every job (fn, path), in
    job order.

    Two or more jobs on full circles (one counterclockwise Arc from angle 0
    over a full turn, as geometry.circle builds it) share one stacked
    integral over the unit circle (_stacked); a lone circle, and every other
    path, is integrated on its own path. Jobs are stacked only as the
    caller groups them, so integrals of different kinds stay independent.
    When the stacked integral is refused (an EnvelopeError), every job is
    integrated on its own, in order, so that a refusal is the one separate
    calls meet."""
    circles = [i for i, (_, path) in enumerate(jobs) if _full_turn(path)]
    values = {}
    if len(circles) > 1:
        try:
            values = dict(zip(circles, _stacked([jobs[i] for i in circles],
                                                 tol)))
        except EnvelopeError:
            pass  # the jobs below meet the refusal in order
    return [values[i] if i in values else integrate(fn, path, tol).value
            for i, (fn, path) in enumerate(jobs)]


@dataclass(frozen=True, eq=False)
class _RunningPrimitive:
    """The stack [f, z f] integrated along a path, and the running primitive
    G(z) = integral of f dz from the path's start to z at the Gauss nodes of
    the panels the engine accepted, panels in path order."""

    stack: QuadratureResult  # value: integrals of f dz and of z f dz
    panel_sums: np.ndarray   # integral of f dz over each panel, shape (P,)
    points: np.ndarray       # the Gauss nodes of each panel, shape (P, 16)
    values: np.ndarray       # G at those nodes, shape (P, 16)
    circuit: complex         # integral of G dz, Gauss sums on the panels


def _running_primitive(fn, path: Path, tol: float = DEFAULT_TOL
                       ) -> _RunningPrimitive:
    """One adaptive pass over the stack [f, z f]. On each accepted panel
    [a, b], G at the Gauss node t is the sum of the earlier panels' integrals
    plus a 16-node Gauss rule on [a, t], and the panel's own integral is the
    panel rule on [a, b]. Every such rule is exact for polynomials of degree
    31, so G is as accurate as the panel sums; the rules of all panels go to
    fn together, in capped batches, and are refused as the panels are when
    fn is not finite at their nodes."""
    def stack_at(z):
        # one point when the panels retry point by point, after fn's own
        # error, which is then raised again
        z = np.atleast_1d(z)
        f = _eval_batch(fn, z)
        return np.stack((f, z * f))

    stack, tree = _integrate(stack_at, path, tol)
    done, _, seg, a, mid, b = zip(*tree)
    done, seg, a, mid, b = map(np.concatenate, (done, seg, a, mid, b))
    seg = np.repeat(seg[done], 2)
    a, b = _halves(a[done], mid[done], b[done])
    order = np.lexsort((a, seg))  # path order
    seg, a, b = seg[order], a[order], b[order]
    ts = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _NODES
    z, dz = path.arrays.nodes(seg, ts)
    rules = _Panels(fn, path, (GAUSS_ORDER + 1) * DEFAULT_MAX_PANELS)
    ends = np.column_stack((ts, b))  # one rule from a to each node and to b
    lo, hi = np.repeat(a, GAUSS_ORDER + 1), ends.ravel()
    inner = rules(np.repeat(seg, GAUSS_ORDER + 1), lo, 0.5 * (lo + hi),
                  hi)[0]
    inner = inner.reshape(ends.shape)
    sums = inner[:, -1]
    g = np.concatenate(([0j], np.cumsum(sums[:-1])))[:, None] + inner[:, :-1]
    circuit = np.sum(0.5 * (b - a) * np.add.reduce(_WEIGHTS * g * dz, axis=1))
    return _RunningPrimitive(stack, sums, z, g, complex(circuit))


def max_magnitude_on(fn, path: Path) -> tuple[float, float]:
    """(max |fn|, max |z|) over MAGNITUDE_SAMPLES equally spaced points; the
    magnitude scan behind relative zero tests."""
    zs = path.sample(MAGNITUDE_SAMPLES)
    vals = _eval_batch(fn, zs)
    return float(np.max(np.abs(vals))), float(np.max(np.abs(zs)))
