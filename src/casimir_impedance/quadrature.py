"""Deterministic graded Gauss-Kronrod rules and convergence-controlled
summation.

Both rules put 15-point Kronrod nodes on graded level-0 panels, estimate
the error from the embedded 7-point Gauss rule and halve every panel, one
level at a time, until the error meets rel_tol.  The integrand is called on
whole panels, at most _CHUNK points at a time.  Panel sums are np.einsum
contractions of aligned values (numpy's own loops, never BLAS; the wedge
contracts its y nodes first, then its s nodes), and panel values are added
in ascending order by fsum, so identical inputs give bit-identical results,
whatever the chunk.  A non-finite integrand value raises FloatingPointError
from its panel's K15 sum: every K15 weight is positive.  With D the summed
|K15 - G7| of an integral's panels and R the K15 integral of |f|, the error
is 10 R min(1, D/R)^(3/2), at least 50 eps R: K15 is exact to degree 23 and
G7 to 13, so for analytic f K15's error goes like G7's to the power 24/14
(Laurie, BIT 23 (1983)).  Either rule stops where err <= max(rel_tol, 50
eps) R, so a rel_tol below the 50 eps floor is met at the floor.

One cached builder, `_gk_rule`, makes every node and weight table: nodes
t^p on t-panels, the Jacobian p t^(p-1) folded into the weights.
`integrate_interval` maps u = t^2, t on 5 panels with edges 0, 0.01, 0.04,
0.15, 0.4 and 1 (75 points), onto [lower, upper]: a y ln y edge becomes
t^3 ln t.  Its rows (lower limits) share each integrand call; a level takes
D from one contraction with K15 - G7 weights and every row's error and stop
test in one array expression.  Each row keeps the first level that meets
its test, past which it is neither summed nor checked.
For integrands decaying like exp(-y), `integrate_semiinf` stops at
lower + max(40, ln(1/rel_tol) + 10): the tail left out is below ~4e-18.

`integrate_wedge` takes the band int_lo^Y dy int_lo^y dzeta f, Y =
tail_cutoff(lo, rel_tol) as for the rows, on K15 x K15 nodes in each pair
of a y panel and an s panel with zeta = lo + (y - lo) s^p, D over the
pairs; a factor of y alone costs one evaluation per y node.  Below lo = 0.2
it takes WEDGE_GRADED, whose s^3 removes the zeta^(1/2) and zeta^(2/3)
edges of the skin-effect impedances at zeta = 0: y panels [lo, lo + 1e-2],
then 6 geometric ones up to Y, at Y - lo = 40, times s panels [0, 0.03],
[0.03, 0.3] and [0.3, 1], 4,725 points at level 0.  With 5 y panels 55 of
the 120 T = 0 benchmark records need level 1; s panels [0, 0.1, 1] leave 21
of 300 integrals uncovered at rel_tol 1e-12.  The rows' u = t^2 table as
the y table (3,375 points) covers the same 300, but overstates the error by
a median of 1.1e5 at rel_tol 1e-6 (2.1e4 on this layout).  Bands from 0.2
up meet no such edge and take WEDGE_LEAN, 3 y panels times one s panel with
p = 1: 675 points.  From tail_cutoff(0, rel_tol) up a band is 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegralResult", "SumResult", "NonConvergenceError",
    "integrate_interval", "integrate_semiinf", "integrate_wedge",
    "matsubara_sum", "euler_maclaurin_ends", "WEDGE_GRADED", "WEDGE_LEAN",
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
_W_G = np.concatenate([_WG, _WG[-2::-1]])                  # (7,) on [1::2]

_EPS = float(np.finfo(float).eps)
_CHUNK = 1 << 13  # most points per f call (past ~16,000 each costs ~1.5x)

# integrate_wedge layouts (level-0 edges on [0, 1] of t, y = lo + (Y - lo)
# t, and of s, zeta = lo + (y - lo) s^p; p): graded, [0, 2.5e-4] then 6
# geometric y panels (a 5e-3 start moved values by up to half their errors);
# lean, y - lo = 0, 2, 10, 40 at Y - lo = 40 and one ungraded s panel
WEDGE_GRADED = ((0.0, *np.geomspace(2.5e-4, 1.0, 7).tolist()),
                (0.0, 0.03, 0.3, 1.0), 3)
WEDGE_LEAN = ((0.0, 0.05, 0.25, 1.0), (0.0, 1.0), 1)
_WEDGE_LEVELS = 5
# Wedge integrals of the observables are at most 13 (ideal metal): an error
# below 1e-15 counts as resolved, as rel_tol is out of reach at ~1e-30 (vacuum)
_WEDGE_ABS_TOL = 1e-15
# An integrate_interval row error below 1e-300 counts as resolved: rows near
# underflow (far past a ladder's stop) meet neither rel_tol nor 50 eps resabs
_INTERVAL_ABS_TOL = 1e-300

# integrate_interval: level-0 t panel edges on [0, 1] (u = t^2), levels;
# matsubara_sum: rows per call, last l
_U_T_EDGES = (0.0, 0.01, 0.04, 0.15, 0.4, 1.0)
_INTERVAL_LEVELS = 10
_MATSUBARA_BLOCK = 33
_EULER_L = 64

# Euler-Maclaurin ends t_L/2 - t'/12 + t'''/720 - t^(5)/30240 on t_{L-6..L},
# t^(k) by 7-point backward differences, errors t^(7)/7, 29t^(7)/15, 25t^(7)/6
_EM_D1 = np.array([10.0, -72.0, 225.0, -400.0, 450.0, -360.0, 147.0]) / 60.0
_EM_D3 = np.array([15.0, -104.0, 307.0, -496.0, 461.0, -232.0, 49.0]) / 8.0
_EM_D5 = np.array([5.0, -32.0, 85.0, -120.0, 95.0, -40.0, 7.0]) / 2.0
_EM_WEIGHTS = (np.eye(7)[6] / 2 - _EM_D1 / 12 + _EM_D3 / 720
               - _EM_D5 / 30240).tolist()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SumResult:
    """`matsubara_sum`'s value over terms_used = L + 1 terms t_0..t_L."""
    value: float
    terms_used: int
    tail_err: float  # the remainder bound
    ends: float | None = None  # `euler_maclaurin_ends` if handed off at L


class NonConvergenceError(RuntimeError):
    """Raised when the refinement budget is exhausted; carries the best
    estimate obtained so far in ``result``."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


def _gk_error(d, r):
    """The module docstring's error from D and R, floats or arrays (24/14 as
    3/2, factor 10; min(D, R)/R is min(1, D/R), 0 at R = 0: f = 0 there)."""
    return np.maximum(10.0 * r * (np.minimum(d, r) / (r + (r == 0.0)))
                      ** 1.5, 50.0 * _EPS * r)


def integrate_interval(f: Callable[[np.ndarray], np.ndarray],
                       lower, upper, rel_tol: float) -> IntegralResult:
    """int_lower^upper f(y) dy by the graded rule of the module docstring,
    for floats or for 1-D arrays of rows (the result then holds arrays);
    ``f`` maps y of shape (rows, panels, 15) to an array of that shape, and
    a level joins its calls and sums the rows still refining, by index.
    Raises NonConvergenceError (with the best estimate attached) when a row
    misses the tolerance after _INTERVAL_LEVELS levels.
    """
    lo, length = (np.array(x, float, ndmin=1) for x in (lower, upper - lower))
    if not (0.0 < rel_tol <= 1e-2 and 0.0 < length.min()
            and length.max() < math.inf):  # NaN fails
        raise ValueError("need rel_tol in (0, 1e-2] and finite upper > lower")
    rows, evaluations, todo = len(lo), 0, np.arange(len(lo))
    value, err = np.zeros(rows), np.zeros(rows)
    step = max(1, _CHUNK // (15 * rows))
    lo3, length3 = lo[:, None, None], length[:, None, None]
    floor = max(rel_tol, 50.0 * _EPS)
    for level in range(_INTERVAL_LEVELS):
        u, w_k, _, w_d = _gk_rule(_U_T_EDGES, 2, level)
        fx = np.concatenate([  # whole panels of every row, then gathered
            np.require(f(lo3 + length3 * u[i:i + step]), float, "A")
            for i in range(0, len(u), step)], axis=1)[todo]
        evaluations += rows * u.size
        # refining rows' panel sums over [0, 1] in u, scaled; values by fsum
        k = np.einsum("rpn,pn->rp", fx, w_k)
        if not np.isfinite(k).all():  # every K15 weight is positive
            raise FloatingPointError("integrand returned a non-finite value")
        scale = length[todo]
        value[todo] = scale * list(map(math.fsum, k.tolist()))
        resabs = scale * np.einsum("rpn,pn->r", np.abs(fx), w_k)
        err[todo] = e = _gk_error(scale * np.abs(np.einsum(  # D: one contraction
            "rpn,pn->rp", fx, w_d)).sum(axis=1), resabs)
        missed = e > np.maximum(  # against int |f|: rows cross 0
            floor * resabs, _INTERVAL_ABS_TOL)
        if not (unmet := missed.any()):
            break
        todo = todo[missed]  # the rows still refining
    result = IntegralResult(*(v if np.ndim(lower) else float(v[0])
                              for v in (value, err)), evaluations)
    if unmet:
        raise NonConvergenceError(
            f"no convergence to rel_tol={rel_tol:g} within {_INTERVAL_LEVELS}"
            f" levels (error estimate {e[missed].max():.3g})", result)
    return result


def tail_cutoff(lower, rel_tol: float):
    """Truncation point for integrands decaying at least like exp(-y)."""
    return lower + max(40.0, math.log(1.0 / rel_tol) + 10.0)


def integrate_semiinf(f: Callable[[np.ndarray], np.ndarray],
                      lower, rel_tol: float) -> IntegralResult:
    """Integrate ``f`` over [lower, infinity), rows and all, assuming
    exp(-y) decay: `integrate_interval` up to ``tail_cutoff``."""
    if (np.asarray(lower) < 0.0).any():
        raise ValueError("lower must be non-negative")
    return integrate_interval(f, lower, tail_cutoff(lower, rel_tol), rel_tol)


def matsubara_sum(terms: Callable[[np.ndarray], np.ndarray], rel_tol: float,
                  zeta1: float) -> SumResult:
    """Primed sum 0.5*t_0 + sum_{l>=1} t_l of a ladder t_l = t(l zeta_1)
    with convergence control.

    ``terms`` maps an array of indices l to their terms, at most
    _MATSUBARA_BLOCK per call: first l = 0 up to the first l where e^(-10 l
    / l_floor) <= rel_tol e^(-4) (a ladder falling like a polynomial times
    e^(-zeta_1 l) as a rule stops there), then as many as the last rho
    predicts the stop needs.  Terms are taken in ascending order and added
    with exact summation.  The sum stops at the first L >= l_floor =
    ceil(10 / zeta_1) where rho = max(|t_L / t_(L-1)|, e^-zeta_1) < 1 and
    the remainder bound |t_L| rho/(1 - rho), returned as ``tail_err``, is at
    most rel_tol * |running sum|; the rest of the block is left out.  Terms
    like poly(l) e^(-zeta_1 l) fall by ratios that decrease toward
    e^-zeta_1, so rho bounds every later ratio; a ladder whose terms do not
    fall never stops.  l_floor covers the dominant spectral window zeta <=
    10, where a ladder may still turn (the entropy's h = d(zeta I)/dzeta
    changes sign near zeta = 1-2).  A ladder not stopped by l = _EULER_L
    hands off there; one whose l_floor is at least _EULER_L (it cannot stop
    before) hands off at the first L of _EULER_L / 4, _EULER_L / 2 and
    _EULER_L where the `euler_maclaurin_ends` bound is at most rel_tol *
    |sum over l < L|, and no block runs past the next such L.  Its value is
    the sum over l < L, ``ends`` the ends' value from t_(L-8), ..., t_L and
    ``tail_err`` their bound (terms_used = L + 1).
    """
    if not (0.0 < rel_tol <= 1e-2 and 0.0 < zeta1 < math.inf):
        raise ValueError("need rel_tol in (0, 1e-2] and 0 < zeta1 < inf")
    l_floor = math.ceil(10.0 / zeta1)
    hand_off = _EULER_L // 4 if l_floor >= _EULER_L else _EULER_L
    gap_floor = math.expm1(min(zeta1, 700.0))  # 1/rho - 1 at e^-zeta_1, capped

    def ask(l: int, n: int) -> list:  # t_l, ..., t_(l+n-1), reversed
        n = min(max(n, l_floor + 1 - l), _MATSUBARA_BLOCK, hand_off + 1 - l)
        return np.asarray(terms(np.arange(l, l + n)), float).tolist()[::-1]
    block = ask(0, math.ceil(l_floor * (math.log(1 / rel_tol) + 4) / 10) + 1)
    prev = block.pop()
    kept, running = [0.5 * prev], 0.5 * prev  # kept: t_0/2, t_1, ..., t_L
    while True:
        kept.append(t := block.pop())
        if len(kept) > hand_off:
            head = math.fsum(kept[:-1])
            ends, bound = euler_maclaurin_ends(kept[-9:])  # t_(L-8..L)
            if hand_off == _EULER_L or bound <= rel_tol * abs(head):
                return SumResult(head, len(kept), bound, ends)
            hand_off *= 2
        running += t
        gap = min(abs(prev / t) - 1.0 if t else math.inf, gap_floor)
        tail = abs(t) / gap if gap > 0.0 else math.inf  # |t| rho/(1 - rho)
        target, prev = rel_tol * abs(running), t
        if tail <= target and len(kept) > l_floor:
            return SumResult(math.fsum(kept), len(kept), tail)
        if not block:  # to where the bound at the ratio rho meets target
            block = ask(len(kept), _MATSUBARA_BLOCK if gap <= 0.0 or not target
                        else math.ceil(math.log(max(tail / target, 1.0))
                                       / math.log1p(gap)))


def euler_maclaurin_ends(edge_terms) -> tuple[float, float]:
    """(t_L/2 - t'(L)/12 + t'''(L)/720 - t^(5)(L)/30240, error bound) from
    edge_terms = (t_{L-8}, ..., t_L) of a smooth decaying t(l), the ends on
    the last seven.  With the next term, t^(7)/1209600, the differences miss
    by below 0.0148 |t^(7)| on [L-6, L]; while the terms fall by less than
    e^0.35 per step, that is below |Delta^6 t_L| / 50.  Terms that turn
    (the entropy's h = d(zeta I)/dzeta changes sign) have a Delta^6 t that
    passes through zero, so the bound returned is the envelope max(|Delta^6
    t_L|, |Delta^6 t_(L-1)|, |Delta^6 t_(L-2)|) / 50.
    """
    t = diff = list(map(float, edge_terms))
    for _ in range(6):  # np.diff(t, 6)'s order
        diff = [b - a for a, b in zip(diff, diff[1:])]
    return (math.fsum(x * w for x, w in zip(t[-7:], _EM_WEIGHTS)),
            max(map(abs, diff)) / 50)


@functools.cache
def _gk_rule(edges: tuple, p: int, level: int):
    """Nodes t^p, K15, G7 and K15 - G7 weights, (panels, 15), (panels, 15),
    (panels, 7) and (panels, 15), on the t-panels of ``edges`` each split
    into 2**level equal parts, read-only; each weight includes the
    Jacobian p t^(p-1) at its node (the G7 weights sit on the odd nodes)."""
    edges = np.array(edges)
    fine = np.append(np.linspace(edges[:-1], edges[1:], 2 ** level + 1)[:-1].T,
                     edges[-1])
    halfw = 0.5 * np.diff(fine)[:, None]
    t = fine[:-1, None] + halfw * (1.0 + _NODES)
    jac = p * t ** (p - 1)
    w_k, w_g = halfw * _W_K * jac, halfw * _W_G * jac[:, 1::2]
    rule = (t ** p, w_k, w_g, w_k - np.insert(w_g, range(8), 0.0, axis=1))
    for a in rule:
        a.flags.writeable = False
    return rule


def integrate_wedge(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    lo: float, rel_tol: float) -> IntegralResult:
    """int_lo^Y dy int_lo^y dzeta f(zeta, y), Y = tail_cutoff(lo, rel_tol),
    by the module docstring's rule and layouts, 0 from tail_cutoff(0,
    rel_tol) up; ``f`` maps zeta (panels, 15, nodes) and y (panels, 15, 1)
    to an array of their broadcast shape.  Raises NonConvergenceError (with
    the best estimate attached) when _WEDGE_LEVELS levels miss the tolerance.
    """
    if not (0.0 < rel_tol <= 1e-2 and lo >= 0.0):  # NaN fails
        raise ValueError("need rel_tol in (0, 1e-2] and lo >= 0")
    if lo >= tail_cutoff(0.0, rel_tol):  # below e^-40 of the whole
        return IntegralResult(0.0, 0.0, 0)
    # y - lo = width t, so (y - lo) dy, the zeta interval's length times dy,
    # is width^2 t dt = scale d(t^2): the weights of t^2, scaled in the sums
    y_edges, s_edges, p = WEDGE_LEAN if lo >= 0.2 else WEDGE_GRADED
    width, evaluations = tail_cutoff(lo, rel_tol) - lo, 0
    scale = 0.5 * width * width
    for level in range(_WEDGE_LEVELS):
        grade, ws_k, ws_g, _ = _gk_rule(s_edges, p, level)  # s^p
        y = width * _gk_rule(y_edges, 1, level)[0]  # y - lo
        _, wy_k, wy_g, _ = _gk_rule(y_edges, 2, level)
        grade = grade.ravel()
        step = max(1, _CHUNK // (15 * grade.size))
        cells, diffs, resabs = [], [], []
        for i in range(0, len(y), step):  # whole y panels at a time
            m = y[i:i + step, :, None]  # y - lo; zeta = lo + m s^p
            # lo = 0: no array adds
            yc, zeta = (lo + m, lo + m * grade) if lo else (m, m * grade)
            fx = np.require(f(zeta, yc), float, "A")  # compact f: broadcast
            fx = (fx if fx.shape == zeta.shape else np.broadcast_to(
                fx, zeta.shape)).reshape(len(yc), 15, -1, 15)
            # one K15 and one G7 sum per pair of a y panel and an s panel,
            # the y nodes contracted first, then the s nodes
            wk, wg = wy_k[i:i + step], wy_g[i:i + step]
            k = np.einsum("ySj,Sj->yS", np.einsum("yiSj,yi->ySj", fx, wk),
                          ws_k)
            if not np.isfinite(k).all():  # every K15 weight is positive
                raise FloatingPointError("integrand returned a non-finite "
                                         "value")
            g = np.einsum("ySj,Sj->yS", np.einsum(
                "yiSj,yi->ySj", fx[:, 1::2, :, 1::2], wg), ws_g)
            cells.extend(k.ravel().tolist())
            diffs.extend(np.abs(k - g).ravel().tolist())
            resabs.extend(np.einsum("ySj,Sj->yS", np.einsum(
                "yiSj,yi->ySj", np.abs(fx), wk), ws_k).ravel().tolist())
        evaluations += y.size * grade.size
        value, d, r = (scale * math.fsum(x) for x in (cells, diffs, resabs))
        err = float(_gk_error(d, r))
        if err <= max(max(rel_tol, 50.0 * _EPS) * r, _WEDGE_ABS_TOL):
            return IntegralResult(value, err, evaluations)
    raise NonConvergenceError(
        f"no convergence to rel_tol={rel_tol:g} within {_WEDGE_LEVELS} "
        f"levels (error estimate {err:.3g})",
        IntegralResult(value, err, evaluations))
