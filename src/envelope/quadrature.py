"""Adaptive contour integration.

Order-16 Gauss-Legendre panels are bisected until the discrepancy between a
panel and its two children falls under the panel's share of the tolerance
budget (split proportionally to arclength), with a machine-precision floor
proportional to the panel's L1 mass so that large-magnitude integrands
terminate. Integrands are evaluated in vectorized batches of 16 nodes,
either at complex points (integrate) or at global arclength fractions
(integrate_parameter); both run the same engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeError, QuadratureBudgetError
from .geometry import Path, Segment

GAUSS_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_PANELS = 1 << 16

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
    value: complex
    error_estimate: float
    evaluations: int


class _Budget:
    __slots__ = ("panels", "max_panels", "evaluations")

    def __init__(self, max_panels: int):
        self.panels = 0
        self.max_panels = max_panels
        self.evaluations = 0

    def spend(self) -> None:
        self.panels += 1
        self.evaluations += GAUSS_ORDER
        if self.panels > self.max_panels:
            raise QuadratureBudgetError(
                f"panel budget {self.max_panels} exhausted; integrand looks "
                "non-integrable at this tolerance")


def _eval_batch(fn, xs: np.ndarray) -> np.ndarray:
    """fn at every entry of xs, looping over scalars when fn rejects or
    mangles an ndarray batch."""
    try:
        vals = np.asarray(fn(xs))
    except EnvelopeError:
        raise
    except Exception:
        vals = np.array([fn(x) for x in xs.tolist()], dtype=complex)
    else:
        if vals.ndim == 0:
            vals = np.full(xs.shape, complex(vals))
        elif vals.shape != xs.shape:
            vals = np.array([fn(x) for x in xs.tolist()], dtype=complex)
    return vals.astype(complex, copy=False)


def _panel(values, seg: Segment, a: float, b: float,
           budget: _Budget) -> tuple[complex, float]:
    """Single Gauss panel over parameter interval [a, b]: integral of
    values(t) * z'(t) dt and its L1 mass, where values maps local segment
    parameters to integrand values."""
    budget.spend()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ts = mid + half * _NODES
    contrib = values(ts) * seg.velocity(ts)
    value = half * np.sum(_WEIGHTS * contrib)
    mass = half * float(np.sum(_WEIGHTS * np.abs(contrib)))
    return complex(value), mass


def _refine(values, seg: Segment, a: float, b: float, coarse: complex,
            tol: float, budget: _Budget,
            prev_est: float = math.inf) -> tuple[complex, float]:
    m = 0.5 * (a + b)
    left, mass_l = _panel(values, seg, a, m, budget)
    right, mass_r = _panel(values, seg, m, b, budget)
    fine = left + right
    est = abs(fine - coarse)
    mass = mass_l + mass_r
    if est <= max(tol, _ROUNDOFF_FACTOR * mass):
        return fine, est
    if est > 0.25 * prev_est and est <= _NOISE_CEILING * mass:
        # no longer converging and already at noise scale
        return fine, est
    vl, el = _refine(values, seg, a, m, left, 0.5 * tol, budget, est)
    vr, er = _refine(values, seg, m, b, right, 0.5 * tol, budget, est)
    return vl + vr, el + er


def _integrate(values_on, path: Path, tol: float,
               max_panels: int) -> QuadratureResult:
    """The adaptive engine. values_on(seg, lo, span) returns the integrand
    as a function of the local parameter of seg, which starts at global
    arclength fraction lo and covers the fraction span of the path."""
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    budget = _Budget(max_panels)
    total_len = path.length
    value = 0j
    err = 0.0
    done = 0.0
    for seg in path.segments:
        values = values_on(seg, done / total_len, seg.length / total_len)
        done += seg.length
        seg_tol = tol * seg.length / total_len
        coarse, _ = _panel(values, seg, 0.0, 1.0, budget)
        v, e = _refine(values, seg, 0.0, 1.0, coarse, seg_tol, budget)
        value += v
        err += e
    return QuadratureResult(value, err, budget.evaluations)


def integrate(fn, path: Path, tol: float = DEFAULT_TOL,
              max_panels: int = DEFAULT_MAX_PANELS) -> QuadratureResult:
    """Contour integral of fn along the path.

    fn receives complex points, in ndarray batches when it supports them
    (scalar-only callables are detected and looped over). On closed paths
    the result is orientation-antisymmetric and additive over
    concatenation; see QuadratureResult.error_estimate for the summed
    refinement discrepancies actually achieved.

    Raises QuadratureBudgetError after `max_panels` panels, which signals a
    non-integrable singularity on or too near the path.
    """
    def at_points(seg, lo, span):
        return lambda ts: _eval_batch(fn, seg.point(ts))

    return _integrate(at_points, path, tol, max_panels)


def integrate_arc_prefix(fn, path: Path, fraction: float,
                         tol: float = DEFAULT_TOL,
                         max_panels: int = DEFAULT_MAX_PANELS) -> complex:
    """Integral of fn along the initial arclength fraction of the path.

    fraction 0 gives 0; fraction 1 agrees with integrate over the whole
    path. Used to build primitives along a curve.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("arclength fraction must lie in [0, 1]")
    head = path.prefix(fraction)
    if head is None:
        return 0j
    return integrate(fn, head, tol, max_panels).value


def integrate_parameter(fn_t, path: Path, tol: float = DEFAULT_TOL,
                        max_panels: int = DEFAULT_MAX_PANELS
                        ) -> QuadratureResult:
    """Contour integral of a function given against global arclength
    fraction rather than position: integral of fn_t(s) dz(s).

    Needed when the integrand is defined along the curve (for instance a
    running primitive) and not as a function of the complex point. Same
    engine, tolerance contract and budget as integrate.
    """
    def at_fractions(seg, lo, span):
        return lambda ts: _eval_batch(fn_t, lo + ts * span)

    return _integrate(at_fractions, path, tol, max_panels)


def max_magnitude_on(fn, path: Path, samples: int = 256) -> tuple[float, float]:
    """(max |fn|, max |z|) over equally spaced points; the magnitude scan
    behind relative zero tests."""
    zs = path.sample(samples)
    vals = _eval_batch(fn, zs)
    return float(np.max(np.abs(vals))), float(np.max(np.abs(zs)))
