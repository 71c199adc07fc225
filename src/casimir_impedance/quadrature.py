"""Deterministic adaptive quadrature and convergence-controlled summation.

The integrator is an adaptive bisection scheme built on the embedded
7-point Gauss / 15-point Kronrod pair.  Semi-infinite integrals of
integrands decaying at least like exp(-y) are truncated at

    y_max = lower + max(40, ln(1/rel_tol) + 10)

which bounds the neglected tail below ~4e-18 relative.  Panel refinement
always splits the panel with the largest error estimate (leftmost on
ties), and the final value is accumulated over panels in ascending
coordinate order with exact (fsum) summation, so identical inputs give
bit-identical results.

Integrands must accept a numpy array of abscissae and return an array of
the same shape; panels are evaluated in vectorized batches.

Double integrals over the wedge 0 < zeta < min(y, cut) use a tensor rule
instead: y outside, and zeta = min(y, cut) s^3, a grading that removes the
zeta^(1/2) and zeta^(2/3) edge behaviour of the skin-effect impedances.
K15 x K15 nodes fill each pair of a y panel ([0, 1e-3], then 12 geometric
panels up to the cutoff, cut an extra edge) and an s panel ([0, 1e-2], then
3 geometric ones up to 1); the error is the summed |K15 x K15 - G7 x G7| of
every pair, and all panels are halved together until it meets rel_tol.
Either rule raises FloatingPointError on a non-finite integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegralResult", "SumResult", "NonConvergenceError",
    "integrate_interval", "integrate_semiinf", "integrate_wedge",
    "matsubara_sum",
]

# 15-point Kronrod abscissae (positive half) and weights, with the
# embedded 7-point Gauss weights on the odd-indexed abscissae.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full 15-node arrays, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # (15,)
_W_K = np.concatenate([_WGK[:-1], _WGK[::-1]])             # (15,)
_W_G = np.zeros(15)                                        # (15,)
_W_G[1::2] = np.concatenate([_WG, _WG[-2::-1]])

_EPS = np.finfo(float).eps

# integrate_wedge: level-0 y and s panel edges (y: 12 geometric panels above
# 1e-3), grading power, level budget, most points per call of the integrand
_WEDGE_Y0 = 1e-3
_WEDGE_S_EDGES = np.append(0.0, np.geomspace(1e-2, 1.0, 4))
_WEDGE_GRADING = 3
_WEDGE_LEVELS = 5
_WEDGE_CHUNK = 1 << 16
# Wedge integrals of the observables are at most 13 (ideal metal): an error
# below 1e-15 counts as resolved, as rel_tol is out of reach at ~1e-30 (vacuum)
_WEDGE_ABS_TOL = 1e-15


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SumResult:
    value: float
    terms_used: int
    last_term_magnitude: float


class NonConvergenceError(RuntimeError):
    """Raised when the refinement or term budget is exhausted; carries the
    best estimate obtained so far in ``result``."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


def _qk15_batch(f, lo: np.ndarray, hi: np.ndarray):
    """Apply the G7/K15 pair to a batch of panels.

    Returns (kronrod, error_estimate, resabs) per panel.  The error
    estimate is the standard rescaled |K15 - G7| with a floor at
    50*eps*resabs, so it cannot pretend to beat machine precision.
    """
    center = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    pts = center[:, None] + halfw[:, None] * _NODES[None, :]
    fx = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    if not np.all(np.isfinite(fx)):
        raise FloatingPointError("integrand returned a non-finite value")
    # elementwise-multiply + pairwise sum instead of matmul: never hits a
    # threaded BLAS path, so results are bit-identical for any thread count
    resk = halfw * (fx * _W_K).sum(axis=1)
    resg = halfw * (fx * _W_G).sum(axis=1)
    resabs = halfw * (np.abs(fx) * _W_K).sum(axis=1)
    reskh = 0.5 * resk
    resasc = halfw * (np.abs(fx - reskh[:, None] / halfw[:, None])
                      * _W_K).sum(axis=1)
    err = np.abs(resk - resg)
    mask = (resasc != 0.0) & (err != 0.0)
    scaled = np.ones_like(err)
    np.divide(200.0 * err, resasc, out=scaled, where=mask)
    err = np.where(mask, resasc * np.minimum(1.0, scaled ** 1.5), err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err, resabs


def integrate_interval(f: Callable[[np.ndarray], np.ndarray],
                       lower: float, upper: float, rel_tol: float,
                       *, max_panels: int = 4096) -> IntegralResult:
    """Adaptive integration of ``f`` over the finite interval [lower, upper].

    Deterministic: refinement order and accumulation order are functions of
    the inputs alone.  Raises NonConvergenceError (with the best estimate
    attached) when ``max_panels`` panels do not reach the tolerance.
    """
    if not 0.0 < rel_tol <= 1e-2:
        raise ValueError("rel_tol must lie in (0, 1e-2]")
    if not upper > lower:
        raise ValueError("upper must exceed lower")

    edges = np.linspace(lower, upper, 9)  # eight equal starting panels
    los, his = list(edges[:-1]), list(edges[1:])
    vals, errs, resabs = map(list, _qk15_batch(f, edges[:-1], edges[1:]))
    evaluations = 15 * len(vals)

    while True:
        total = math.fsum(vals)
        total_err = math.fsum(errs)
        floor = max(rel_tol * abs(total), 50.0 * _EPS * math.fsum(resabs))
        if total_err <= floor:
            return IntegralResult(total, total_err, evaluations)
        if len(vals) >= max_panels:
            raise NonConvergenceError(
                f"no convergence to rel_tol={rel_tol:g} within "
                f"{max_panels} panels (error estimate {total_err:.3g})",
                IntegralResult(total, total_err, evaluations))
        k = int(np.argmax(errs))  # first maximum = leftmost: deterministic
        mid = 0.5 * (los[k] + his[k])
        halves = _qk15_batch(f, np.array([los[k], mid]),
                             np.array([mid, his[k]]))
        evaluations += 30
        los[k:k + 1], his[k:k + 1] = [los[k], mid], [mid, his[k]]
        for kept, half in zip((vals, errs, resabs), halves):
            kept[k:k + 1] = list(half)


def tail_cutoff(lower: float, rel_tol: float) -> float:
    """Truncation point for integrands decaying at least like exp(-y)."""
    return lower + max(40.0, math.log(1.0 / rel_tol) + 10.0)


def integrate_semiinf(f: Callable[[np.ndarray], np.ndarray],
                      lower: float, rel_tol: float) -> IntegralResult:
    """Integrate ``f`` over [lower, infinity) assuming exp(-y) decay.

    The interval is truncated at ``tail_cutoff(lower, rel_tol)`` and handled
    by `integrate_interval`; see the module docstring for the determinism
    and error-reporting contract.
    """
    if lower < 0.0:
        raise ValueError("lower must be non-negative")
    return integrate_interval(f, lower, tail_cutoff(lower, rel_tol), rel_tol)


def matsubara_sum(term: Callable[[int], float], rel_tol: float,
                  l_floor: int, *, max_terms: int = 10 ** 6) -> SumResult:
    """Primed sum 0.5*term(0) + sum_{l>=1} term(l) with convergence control.

    Terms are accumulated in ascending index order with exact summation.
    The sum stops once l >= l_floor and |term(l)| <= rel_tol * |accumulated|
    held for three consecutive indices; l_floor guarantees the spectral
    window that dominates the result is always covered regardless of how
    quickly the early terms decay.
    """
    if not 0.0 < rel_tol <= 1e-2:
        raise ValueError("rel_tol must lie in (0, 1e-2]")
    if l_floor < 0:
        raise ValueError("l_floor must be non-negative")

    terms = [0.5 * float(term(0))]
    running = terms[0]
    comp = 0.0  # Kahan compensation for the running magnitude test
    consecutive = 0
    l = 0
    while True:
        if consecutive >= 3 and l >= l_floor:
            break
        l += 1
        if l > max_terms:
            raise NonConvergenceError(
                f"Matsubara sum did not converge within {max_terms} terms",
                SumResult(math.fsum(terms), len(terms), abs(terms[-1])))
        t = float(term(l))
        terms.append(t)
        y = t - comp
        s = running + y
        comp = (s - running) - y
        running = s
        if abs(t) <= rel_tol * abs(running):
            consecutive += 1
        else:
            consecutive = 0

    return SumResult(math.fsum(terms), len(terms), abs(terms[-1]))


def _gk_panels(edges: np.ndarray, level: int):
    """K15 nodes and K15 and G7 weights, each (panels, 15), on the panels
    of ``edges`` each split into 2**level equal parts."""
    fine = np.append(np.linspace(edges[:-1], edges[1:], 2 ** level + 1)[:-1].T,
                     edges[-1])
    halfw = 0.5 * np.diff(fine)[:, None]
    return fine[:-1, None] + halfw * (1.0 + _NODES), halfw * _W_K, halfw * _W_G


def integrate_wedge(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    upper: float, rel_tol: float,
                    cut: float = math.inf) -> IntegralResult:
    """int_0^upper dy int_0^min(y, cut) dzeta f(zeta, y) by the graded
    tensor rule of the module docstring; ``f`` maps arrays (zeta, y) of one
    shape to an array of that shape.  Raises NonConvergenceError (with the
    best estimate attached) when _WEDGE_LEVELS levels miss the tolerance.
    """
    if not (0.0 < rel_tol <= 1e-2 and cut > 0.0 and upper > _WEDGE_Y0):
        raise ValueError("need rel_tol in (0, 1e-2], cut > 0, upper > 1e-3")
    y_edges = np.append(0.0, np.geomspace(_WEDGE_Y0, upper, 13))
    if cut < upper:
        y_edges = np.unique(np.append(y_edges, cut))
    p, evaluations = _WEDGE_GRADING, 0
    for level in range(_WEDGE_LEVELS):
        s, ws_k, ws_g = _gk_panels(_WEDGE_S_EDGES, level)
        y, wy_k, wy_g = _gk_panels(y_edges, level)
        grade, dgrade = s.ravel() ** p, p * s.ravel() ** (p - 1)
        step = max(1, _WEDGE_CHUNK // (15 * s.size))
        cells, diffs, resabs = [], [], []
        for i in range(0, len(y), step):  # whole y panels at a time
            yc = y[i:i + step, :, None]
            m = np.minimum(yc, cut)  # zeta = m s^p, dzeta = m p s^(p-1) ds
            fx = np.asarray(f(m * grade, np.broadcast_to(
                yc, m.shape[:2] + grade.shape)), dtype=float)
            if not np.all(np.isfinite(fx)):
                raise FloatingPointError("integrand returned a non-finite "
                                         "value")
            fx = (fx * (m * dgrade)).reshape(len(yc), 15, *s.shape)
            w_k, w_g = (wy[i:i + step, :, None, None] * ws
                        for wy, ws in ((wy_k, ws_k), (wy_g, ws_g)))
            # one value per pair of a y panel and an s panel
            k, g = ((fx * w).sum(axis=(1, 3)) for w in (w_k, w_g))
            cells.extend(k.ravel())
            diffs.extend(np.abs(k - g).ravel())
            resabs.append((np.abs(fx) * w_k).sum())
        evaluations += y.size * s.size
        value = math.fsum(cells)
        err = max(math.fsum(diffs), 50.0 * _EPS * math.fsum(resabs))
        if err <= max(rel_tol * abs(value), _WEDGE_ABS_TOL):
            return IntegralResult(value, err, evaluations)
    raise NonConvergenceError(
        f"no convergence to rel_tol={rel_tol:g} within {_WEDGE_LEVELS} "
        f"levels (error estimate {err:.3g})",
        IntegralResult(value, err, evaluations))
