"""Deterministic graded Gauss-Kronrod rules and convergence-controlled
summation.

Both rules put 15-point Kronrod nodes on graded level-0 panels, estimate
the error from the embedded 7-point Gauss rule and halve every panel, one
level at a time, until the error meets rel_tol.  The integrand is called on
whole panels, at most _WEDGE_CHUNK points at a time, and panel sums are
added in ascending order by fsum, so identical inputs give bit-identical
results.  A non-finite integrand value raises FloatingPointError.

`integrate_interval` maps [0, 2.5e-5] and 12 geometric panels up to 1 onto
[lower, upper] (over a length of 40, the wedge's y panels) and sums the
panels' QUADPACK-rescaled |K15 - G7|.  Its rows (lower limits) share each
integrand call, and each keeps the first level that meets rel_tol.  For
integrands decaying like exp(-y), `integrate_semiinf` stops at
lower + max(40, ln(1/rel_tol) + 10): the tail left out is below ~4e-18.

`integrate_wedge` takes int_0^Y dy int_0^min(y, cut) dzeta with zeta =
min(y, cut) s^3, a grading that removes the zeta^(1/2) and zeta^(2/3) edge
behaviour of the skin-effect impedances, on K15 x K15 nodes in each pair of
a y panel ([0, 1e-3], then 12 geometric panels up to Y, cut an extra edge)
and an s panel ([0, 1e-2], then 3 geometric ones up to 1); the error is the
summed |K15 x K15 - G7 x G7| of every pair.
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
# 1e-3), grading power, level budget; both rules: most points per f call
_WEDGE_Y0 = 1e-3
_WEDGE_S_EDGES = np.append(0.0, np.geomspace(1e-2, 1.0, 4))
_WEDGE_GRADING = 3
_WEDGE_LEVELS = 5
_WEDGE_CHUNK = 1 << 16
# Wedge integrals of the observables are at most 13 (ideal metal): an error
# below 1e-15 counts as resolved, as rel_tol is out of reach at ~1e-30 (vacuum)
_WEDGE_ABS_TOL = 1e-15

# integrate_interval: level-0 edges on [0, 1] (the wedge's y edges over a
# length of 40) and level budget; matsubara_sum: l per call, term budget
_INTERVAL_EDGES = np.append(0.0, np.geomspace(_WEDGE_Y0 / 40.0, 1.0, 13))
_INTERVAL_LEVELS = 10
_MATSUBARA_BLOCK = 32
_MATSUBARA_MAX_TERMS = 10 ** 6


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


def _qk15_panels(fx: np.ndarray, w_k: np.ndarray, w_g: np.ndarray):
    """(K15 value, error, resabs) per panel of the values ``fx`` (..., 15)
    under weights (..., 15); the error is QUADPACK's rescaled |K15 - G7|,
    floored at 50*eps*resabs so it cannot beat machine precision."""
    if not np.all(np.isfinite(fx)):
        raise FloatingPointError("integrand returned a non-finite value")
    # elementwise-multiply + pairwise sum instead of matmul: never hits a
    # threaded BLAS path, so results are bit-identical for any thread count
    resk = (fx * w_k).sum(axis=-1)
    resabs = (np.abs(fx) * w_k).sum(axis=-1)
    mean = (resk / w_k.sum(axis=-1))[..., None]
    resasc = (np.abs(fx - mean) * w_k).sum(axis=-1)
    err = np.abs(resk - (fx * w_g).sum(axis=-1))
    mask = resasc != 0.0
    scaled = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=mask)
    err = np.where(mask, resasc * np.minimum(1.0, scaled ** 1.5), err)
    return resk, np.maximum(err, 50.0 * _EPS * resabs), resabs


def integrate_interval(f: Callable[[np.ndarray], np.ndarray],
                       lower, upper, rel_tol: float) -> IntegralResult:
    """int_lower^upper f(y) dy by the graded rule of the module docstring,
    for floats or for 1-D arrays of rows (the result then holds arrays);
    ``f`` maps y of shape (rows, panels, 15) to an array of that shape.
    Raises NonConvergenceError (with the best estimate attached) when a row
    misses the tolerance after _INTERVAL_LEVELS levels.
    """
    lo, length = (np.atleast_1d(np.asarray(x, dtype=float))
                  for x in (lower, upper - lower))
    if not (0.0 < rel_tol <= 1e-2 and np.all(length > 0.0)):
        raise ValueError("need rel_tol in (0, 1e-2] and upper > lower")
    rows, unmet, evaluations = len(lo), list(range(len(lo))), 0
    value, err = np.zeros(rows), np.zeros(rows)
    step = max(1, _WEDGE_CHUNK // (15 * rows))
    for level in range(_INTERVAL_LEVELS):
        u, w_k, w_g = _gk_panels(_INTERVAL_EDGES, level)
        parts = []
        for i in range(0, len(u), step):  # whole panels of every row
            y = lo[:, None, None] + length[:, None, None] * u[i:i + step]
            parts.append(_qk15_panels(np.asarray(f(y), dtype=float),
                                      w_k[i:i + step], w_g[i:i + step]))
        evaluations += rows * u.size
        k, e, a = (np.concatenate(p, axis=1).tolist() for p in zip(*parts))
        for r in unmet:  # sums over the unit-length panels, scaled
            value[r], err[r] = (length[r] * math.fsum(x[r]) for x in (k, e))
        unmet = [r for r in unmet if err[r] > max(rel_tol * abs(value[r]),
                 length[r] * 50.0 * _EPS * math.fsum(a[r]))]
        if not unmet:
            break
    result = IntegralResult(*(v if np.ndim(lower) else float(v[0])
                              for v in (value, err)), evaluations)
    if unmet:
        raise NonConvergenceError(
            f"no convergence to rel_tol={rel_tol:g} within {_INTERVAL_LEVELS}"
            f" levels (error estimate {max(err[unmet]):.3g})", result)
    return result


def tail_cutoff(lower, rel_tol: float):
    """Truncation point for integrands decaying at least like exp(-y)."""
    return lower + max(40.0, math.log(1.0 / rel_tol) + 10.0)


def integrate_semiinf(f: Callable[[np.ndarray], np.ndarray],
                      lower, rel_tol: float) -> IntegralResult:
    """Integrate ``f`` over [lower, infinity), rows and all, assuming
    exp(-y) decay: `integrate_interval` up to ``tail_cutoff``."""
    if np.any(np.asarray(lower) < 0.0):
        raise ValueError("lower must be non-negative")
    return integrate_interval(f, lower, tail_cutoff(lower, rel_tol), rel_tol)


def matsubara_sum(terms: Callable[[np.ndarray], np.ndarray], rel_tol: float,
                  l_floor: int) -> SumResult:
    """Primed sum 0.5*t_0 + sum_{l>=1} t_l with convergence control.

    ``terms`` maps an array of indices l to their terms; it is asked for
    l = 0 alone, then for blocks of _MATSUBARA_BLOCK.  Terms are taken in
    ascending order and added with exact summation.  The sum stops once
    l >= l_floor and |t_l| <= rel_tol * |running sum| held for three
    consecutive indices, leaving out the rest of the block; l_floor
    guarantees the spectral window that dominates the result is always
    covered regardless of how quickly the early terms decay.
    """
    if not (0.0 < rel_tol <= 1e-2 and l_floor >= 0):
        raise ValueError("need rel_tol in (0, 1e-2] and l_floor >= 0")
    kept = [0.5 * float(terms(np.arange(1))[0])]
    running, consecutive, block = kept[0], 0, []
    while consecutive < 3 or len(kept) <= l_floor:
        if len(kept) > _MATSUBARA_MAX_TERMS:
            raise NonConvergenceError(
                f"Matsubara sum did not converge within {_MATSUBARA_MAX_TERMS}"
                " terms", SumResult(math.fsum(kept), len(kept), abs(kept[-1])))
        if not block:
            ls = np.arange(len(kept), len(kept) + _MATSUBARA_BLOCK)
            block = np.asarray(terms(ls), dtype=float).tolist()[::-1]
        kept.append(block.pop())
        running += kept[-1]
        small = abs(kept[-1]) <= rel_tol * abs(running)
        consecutive = consecutive + 1 if small else 0
    return SumResult(math.fsum(kept), len(kept), abs(kept[-1]))


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
