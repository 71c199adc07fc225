"""Tests for the adaptive integrator and the Matsubara summation."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from casimir_impedance import quadrature
from casimir_impedance.quadrature import (
    IntegralResult, NonConvergenceError, SumResult, euler_maclaurin_ends,
    integrate_interval, integrate_semiinf, integrate_wedge, matsubara_sum,
    tail_cutoff,
)


def test_exponential_integral_is_one():
    res = integrate_semiinf(lambda y: np.exp(-y), 0.0, 1e-10)
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.abs_error_estimate <= 1e-10 * abs(res.value) + 1e-15
    assert res.evaluations > 0


def test_closed_form_antiderivative_at_lower_two():
    # int_2^inf y e^-y dy = (1 + 2) e^-2
    res = integrate_semiinf(lambda y: y * np.exp(-y), 2.0, 1e-10)
    assert res.value == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)


def test_bose_cubic_moment():
    # int_0^inf y^3/(e^y - 1) dy = pi^4/15
    res = integrate_semiinf(lambda y: y ** 3 / np.expm1(y), 1e-300, 1e-10)
    assert res.value == pytest.approx(math.pi ** 4 / 15.0, rel=1e-9)


def _random_decaying_integrands(n):
    rng = np.random.default_rng(20240917)
    cases = []
    for _ in range(n):
        c = rng.uniform(-2.0, 2.0, size=3)
        omega = rng.uniform(0.3, 2.0)
        s = rng.uniform(1.0, 2.5)
        lower = rng.uniform(0.0, 1.0)

        def f(y, c=c, omega=omega, s=s):
            return (c[0] + c[1] * y + c[2] * np.sin(omega * y)) * np.exp(-s * y)

        cases.append((f, lower))
    return cases


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def test_oracle_equivalence_against_dense_trapezoid():
    # 20 random smooth decaying integrands vs a fixed 1e6-point composite
    # trapezoid on the same truncated interval
    for f, lower in _random_decaying_integrands(20):
        upper = tail_cutoff(lower, 1e-8)
        res = integrate_semiinf(f, lower, 1e-8)
        grid = np.linspace(lower, upper, 1_000_001)
        oracle = _trapezoid(f(grid), grid)
        assert res.value == pytest.approx(oracle, rel=1e-6, abs=1e-12)


def test_halving_tolerance_never_increases_true_error():
    for f, lower in _random_decaying_integrands(6):
        upper = tail_cutoff(lower, 1e-12)
        reference = integrate_interval(f, lower, upper, 1e-12).value
        prev_err = None
        for tol in (1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5, 3.125e-5):
            err = abs(integrate_interval(f, lower, upper, tol).value
                      - reference)
            if prev_err is not None:
                assert err <= prev_err + 1e-15 * abs(reference)
            prev_err = err


def test_bit_identical_across_repeated_runs():
    def f(y):
        return y ** 2 * np.log1p(-0.9 * np.exp(-y))

    runs = [integrate_semiinf(f, 0.5, 1e-9) for _ in range(3)]
    assert runs[0].value == runs[1].value == runs[2].value
    assert runs[0].evaluations == runs[1].evaluations == runs[2].evaluations


def test_error_estimate_honest_on_smooth_cases():
    for f, lower in _random_decaying_integrands(10):
        upper = tail_cutoff(lower, 1e-12)
        reference = integrate_interval(f, lower, upper, 1e-12).value
        res = integrate_semiinf(f, lower, 1e-6)
        assert abs(res.value - reference) <= max(
            res.abs_error_estimate, 1e-6 * abs(reference)) + 1e-14


def test_row_whose_integral_is_zero_converges():
    # f = d/dy [y^k e^-y] from 0 integrates to 0: a row that crosses zero
    # is judged against rel_tol of int |f| = 2 k^k e^-k, not of its own
    # value, which is rounding; both rows stop by level 1 (225 points), k =
    # 3/2 with a sqrt edge at 0 (which missed tol after 10 levels when
    # judged against its value), and k = 1 also as rows from l, where the
    # integral is -l e^-l
    for k, rel_tols in ((1.0, (1e-6, 1e-10)), (1.5, (1e-6,))):
        def f(y, k=k):
            return (k * y ** (k - 1.0) - y ** k) * np.exp(-y)

        for rel_tol in rel_tols:
            res = integrate_semiinf(f, 0.0, rel_tol)
            assert abs(res.value) <= res.abs_error_estimate \
                <= rel_tol * 2.0 * k ** k * math.exp(-k), (k, rel_tol)
            assert res.evaluations <= 225, (k, rel_tol)
    lowers = np.array([0.0, 1.0, 2.0])
    rows = integrate_semiinf(f=lambda y: (1.0 - y) * np.exp(-y),
                             lower=lowers, rel_tol=1e-10)
    assert np.all(np.abs(rows.value + lowers * np.exp(-lowers))
                  <= rows.abs_error_estimate)


def test_nonconvergence_reports_best_estimate(monkeypatch):
    def spiky(y):
        return 1.0 / np.sqrt(np.abs(y - math.pi) + 1e-14)

    monkeypatch.setattr(quadrature, "_INTERVAL_LEVELS", 2)
    with pytest.raises(NonConvergenceError) as excinfo:
        integrate_interval(spiky, 0.0, 40.0, 1e-10)
    best = excinfo.value.result
    assert isinstance(best, IntegralResult)
    assert best.abs_error_estimate > 0.0


def test_rejects_bad_tolerance_and_bounds():
    with pytest.raises(ValueError):
        integrate_semiinf(lambda y: np.exp(-y), 0.0, 0.5)
    with pytest.raises(ValueError):
        integrate_semiinf(lambda y: np.exp(-y), -1.0, 1e-6)
    with pytest.raises(ValueError):
        integrate_interval(lambda y: np.exp(-y), 1.0, 1.0, 1e-6)
    for rel_tol, zeta1 in ((0.0, 1.0), (0.5, 1.0), (1e-6, 0.0), (1e-6, -1.0)):
        with pytest.raises(ValueError):
            matsubara_sum(lambda ls: 0.5 ** ls, rel_tol, zeta1)


def test_half_weight_convention():
    # zeta_1 = 10: the floor ceil(10 / zeta_1) is l = 1
    res = matsubara_sum(lambda ls: np.where(ls == 0, 1.0, 0.0), 1e-6, 10.0)
    assert res.value == 0.5
    assert res.terms_used == 2 and res.tail_err == 0.0


def test_geometric_series():
    # 0.5 + sum_{l>=1} 2^-l = 1.5; at zeta_1 = 1, rho = |t_L / t_(L-1)| =
    # 1/2 and the bound |t_L| rho/(1 - rho) is t_L, the remainder itself
    res = matsubara_sum(lambda l: 0.5 ** l, 1e-12, 1.0)
    assert res.value == pytest.approx(1.5, rel=1e-11)
    assert res.last_term_magnitude <= 1e-12 * 1.5 * 1.01
    assert res.tail_err == res.last_term_magnitude == 1.5 - res.value


def test_sum_floor_is_respected():
    # zeta_1 = 0.25: no stop before the floor l = 40
    res = matsubara_sum(lambda l: 0.5 ** l, 1e-6, 0.25)
    assert res.terms_used >= 41 and res.ends is None
    # a floor above L (zeta_1 = 1/8, floor 80): the ladder hands off at L'
    # = L/4 = 16, as the ends' bound |Delta^6 t_16| / 50 = 3e-7 of t_10,
    # ..., t_16 meets rel_tol there
    hand_off = quadrature._EULER_L // 4
    res = matsubara_sum(lambda l: 0.5 ** l, 1e-6, 0.125)
    assert res.terms_used == hand_off + 1
    assert (res.ends, res.tail_err) == euler_maclaurin_ends(
        0.5 ** np.arange(hand_off - 6, hand_off + 1))
    assert res.value == 0.5 + math.fsum(0.5 ** np.arange(1, hand_off))


def _asked_rows(terms, rel_tol, zeta1):
    """The SumResult and the rows of each call of ``terms``."""
    asked = []

    def recorded(ls):
        asked.append(ls.tolist())
        return terms(ls)

    return matsubara_sum(recorded, rel_tol, zeta1), asked


def test_floor_bound_ladder_hands_off_at_the_first_l_whose_ends_meet_tol():
    # e^(-0.3 l) at rel_tol 1e-6 and floor 64: |Delta^6 t_16| / 50 = 3e-7
    # is below 1e-6 of the sum (3.4), so one call of rows 0..16 ends the
    # ladder, and the sum over l < 16, the band over l >= 16 and the ends
    # give the series
    big_l = quadrature._EULER_L
    res, asked = _asked_rows(lambda ls: np.exp(-0.3 * ls), 1e-6, 10 / big_l)
    assert asked == [list(range(big_l // 4 + 1))]
    assert res.terms_used == big_l // 4 + 1
    ends, bound = res.ends, res.tail_err
    assert (ends, bound) == euler_maclaurin_ends(
        np.exp(-0.3 * np.arange(big_l // 4 - 6, big_l // 4 + 1)))
    assert bound <= 1e-6 * res.value
    total = res.value + math.exp(-0.3 * big_l / 4) / 0.3 + ends
    exact = 0.5 + 1.0 / math.expm1(0.3)
    assert abs(total - exact) <= bound
    # a floor below L leaves a ladder alone: (1 + l)^-2 meets the ends'
    # bound at 16 (7.5e-8 against 1e-6 of 1.08), but it runs on to L
    res, asked = _asked_rows(lambda ls: 1.0 / (1.0 + ls) ** 2, 1e-6,
                             10 / (big_l - 1))
    assert res.terms_used == big_l + 1 and asked[0][-1] == 32


def test_floor_bound_ladder_falls_back_to_l_when_the_ends_miss_tol():
    # (1 + l)^-2, whose sum is 1.08-1.13, at floor 128: |Delta^6 t_L'| / 50
    # is 7.5e-8 at 16 and 1.6e-10 at 32; at rel_tol 1e-9 the ladder passes
    # 16 and ends at 32 (rows 17..32 in a second call), at 1e-12 it passes
    # both and ends at L = 64 (rows 33..64 in a third), as a ladder that
    # always ran to L
    def terms(ls):
        return 1.0 / (1.0 + ls) ** 2

    big_l = quadrature._EULER_L
    for rel_tol, hand_off in ((1e-9, big_l // 2), (1e-12, big_l)):
        res, asked = _asked_rows(terms, rel_tol, 10 / (2 * big_l))
        assert [row[-1] for row in asked] == [
            l for l in (16, 32, 64) if l <= hand_off]
        assert sum(asked, []) == list(range(hand_off + 1))
        assert res.terms_used == hand_off + 1
        assert (res.ends, res.tail_err) == euler_maclaurin_ends(
            terms(np.arange(hand_off - 6, hand_off + 1)))
        assert res.value == math.fsum([0.5, *terms(np.arange(1, hand_off))])
        for l in (big_l // 4, big_l // 2):  # the ends miss tol before L'
            _, bound = euler_maclaurin_ends(terms(np.arange(l - 6, l + 1)))
            head = math.fsum([0.5, *terms(np.arange(1, l))])
            assert (bound <= rel_tol * head) == (l == hand_off)


def test_sum_of_ones_hands_off_at_euler_l():
    # rho = 1 at every l: a ladder whose terms do not fall never stops
    res = matsubara_sum(lambda ls: np.ones(len(ls)), 1e-6, 10.0)
    assert isinstance(res, SumResult)
    assert res.terms_used == quadrature._EULER_L + 1
    assert res.value == quadrature._EULER_L - 0.5
    assert (res.ends, res.tail_err) == euler_maclaurin_ends((1.0,) * 7)


def test_sum_deterministic():
    def term(ls):
        return (1.0 + 0.3 * ls) * np.exp(-0.21 * ls)

    a = matsubara_sum(term, 1e-9, 1.0)
    b = matsubara_sum(term, 1e-9, 1.0)
    assert a == b


def _stop_rule_by_hand(terms, rel_tol, zeta1):
    """terms_used, value and remainder bound of the stop rule, one term at
    a time: the first L >= ceil(10 / zeta_1) where rho = max(|t_L /
    t_(L-1)|, e^-zeta_1) < 1 and |t_L| rho/(1 - rho) <= rel_tol |sum|."""
    def t(l):
        return float(terms(np.arange(l, l + 1))[0])

    kept = [0.5 * t(0)]
    while True:
        big_l = len(kept)
        kept.append(t(big_l))
        rho = max(abs(t(big_l) / t(big_l - 1)), math.exp(-zeta1))
        tail = abs(kept[-1]) * rho / (1.0 - rho) if rho < 1.0 else math.inf
        if big_l >= math.ceil(10 / zeta1) and tail <= rel_tol * abs(
                math.fsum(kept)):
            return len(kept), math.fsum(kept), tail


def _ladders():
    """(terms, rel_tol, zeta_1) of geometric and poly-geometric ladders:
    floors 1, 3, 1, 2 and 20, ratios 0.5, 0.4, 0.7, 0.05 and 0.6."""
    for ratio, zeta1, rel_tol in ((0.5, 10.0, 1e-6), (0.4, 10 / 3, 1e-10),
                                  (0.7, 10.0, 1e-3), (0.05, 5.0, 1e-6),
                                  (0.6, 0.5, 1e-8)):
        for poly in (0, 2):
            yield (lambda ls, p=poly, r=ratio: -(1.0 + ls) ** p * r ** ls,
                   rel_tol, zeta1, poly)


def test_matsubara_blocks_start_at_zero_and_follow_the_decay():
    # the first block holds l = 0 and reaches e^(-zeta_1 l) = rel_tol
    # e^(-4); when the terms decay more slowly, the next block is sized to
    # where the remainder bound is predicted to meet tol.  For geometric
    # terms that takes at most two calls and at most 3 rows past the stop,
    # for any decay with the same stop and value
    for terms, rel_tol, zeta1, poly in _ladders():
        res, asked = _asked_rows(terms, rel_tol, zeta1)
        rows = sum(asked, [])
        assert rows == list(range(len(rows)))
        assert max(map(len, asked)) <= 33
        used, value, tail = _stop_rule_by_hand(terms, rel_tol, zeta1)
        assert (res.terms_used, res.value) == (used, value)
        assert res.tail_err == pytest.approx(tail, rel=1e-14)
        if poly == 0:
            assert len(asked) <= 2, (zeta1, rel_tol)
            assert len(rows) <= res.terms_used + 3, (zeta1, rel_tol)


def test_self_stopped_ladder_bounds_its_remainder():
    # at the stop L the reported bound meets rel_tol |value| and covers the
    # remainder sum_{l>L} t_l (summed to where the terms underflow; for a
    # geometric ladder the two are equal, up to rounding); at L - 1, past
    # the floor, the same bound had not met rel_tol of the sum
    for terms, rel_tol, zeta1, _ in _ladders():
        res = matsubara_sum(terms, rel_tol, zeta1)
        big_l = res.terms_used - 1
        assert res.ends is None
        assert res.tail_err <= rel_tol * abs(res.value)
        rest = math.fsum(terms(np.arange(big_l + 1, big_l + 4000)))
        assert abs(rest) <= res.tail_err * (1.0 + 1e-12)
        if big_l - 1 >= math.ceil(10 / zeta1):
            t = terms(np.arange(big_l - 2, big_l))
            rho = max(abs(t[1] / t[0]), math.exp(-zeta1))
            head = math.fsum([0.5 * terms(np.arange(1))[0],
                              *terms(np.arange(1, big_l))])
            assert abs(t[1]) * rho / (1.0 - rho) > rel_tol * abs(head)


def test_wedge_rule_exact_on_polynomial_and_window():
    # int_0^Y dy int_0^y dzeta (zeta + y) e^-y and the window 0 < zeta < 2,
    # the full wedge less the band above lo = 2, each in closed form
    upper = tail_cutoff(0.0, 1e-10)

    def f(zeta, y):
        return (zeta + y) * np.exp(-y)

    full = integrate_wedge(f, upper, 1e-10)
    assert full.value == pytest.approx(3.0, rel=1e-12)  # 1.5 * Gamma(3)
    band = integrate_wedge(f, tail_cutoff(2.0, 1e-10), 1e-10, lo=2.0)
    # y < 2: 1.5 y^2 e^-y; y > 2: (2 + 2 y) e^-y
    closed = 1.5 * (2.0 - 10.0 * math.exp(-2.0)) + 8.0 * math.exp(-2.0)
    assert closed == pytest.approx(3.0 - 7.0 * math.exp(-2.0), rel=1e-15)
    assert full.value - band.value == pytest.approx(closed, rel=1e-12)
    assert full.abs_error_estimate + band.abs_error_estimate \
        <= 1e-10 * closed


def test_wedge_band_above_lo_is_the_difference_of_wedges():
    # int_lo^inf dy int_lo^y dzeta (zeta + y) e^-y = (2 lo + 3) e^-lo, the
    # Matsubara remainder's form, and the full wedge less that band is the
    # window 0 < zeta < lo; lo = 0 is the wedge, bit for bit
    def f(zeta, y):
        return (zeta + y) * np.exp(-y)

    upper = tail_cutoff(0.0, 1e-10)
    full = integrate_wedge(f, upper, 1e-10)
    assert integrate_wedge(f, upper, 1e-10, lo=0.0) == full
    for lo in (0.3, 2.5, 9.0):
        band = integrate_wedge(f, tail_cutoff(lo, 1e-10), 1e-10, lo=lo)
        closed = (2.0 * lo + 3.0) * math.exp(-lo)
        assert abs((full.value - band.value) - (3.0 - closed)) <= (
            band.abs_error_estimate + full.abs_error_estimate)
        assert abs(band.value - closed) <= band.abs_error_estimate + 1e-15
        assert band.abs_error_estimate <= 1e-10 * closed
    with pytest.raises(ValueError):
        integrate_wedge(f, 1.0 + 1e-3, 1e-6, lo=1.0)


def test_euler_maclaurin_ends_on_geometric_terms():
    # sum_{l>=L} e^-al - int_L^inf e^-al dl = e^-aL (1/(1 - e^-a) - 1/a)
    from mpmath import exp, mp, mpf

    big_l = 64
    for a in (0.02, 0.1, 0.3):
        ends, bound = euler_maclaurin_ends(
            np.exp(-a * np.arange(big_l - 6, big_l + 1)))
        with mp.workdps(40):
            x = mpf(a)
            exact = float(exp(-x * big_l) * (1 / (1 - exp(-x)) - 1 / x))
        assert abs(ends - exact) <= bound <= 1e-4 * exact, a


def test_wedge_nonconvergence_reports_best_estimate():
    def ridge(zeta, y):
        return 1.0 / np.sqrt(np.abs(y - math.pi) + 1e-14)

    with pytest.raises(NonConvergenceError) as excinfo:
        integrate_wedge(ridge, 40.0, 1e-10)
    best = excinfo.value.result
    assert isinstance(best, IntegralResult)
    assert best.abs_error_estimate > 0.0
    assert best.evaluations > 0


def test_non_finite_integrand_raises_floating_point_error():
    with pytest.raises(FloatingPointError):
        integrate_semiinf(lambda y: np.full_like(y, np.nan), 0.0, 1e-6)
    with pytest.raises(FloatingPointError):
        integrate_wedge(lambda zeta, y: np.where(y > 1.0, np.inf, 0.0),
                        40.0, 1e-6)

    # one bad value at one node, on a Gauss node and on a Kronrod-only node
    # (G7 weight zero), in a row other than the first: it still raises
    def one_bad(shape, index, bad):
        out = np.zeros(shape)
        out[index] = bad
        return out

    for bad in (np.nan, np.inf, -np.inf):
        for node in (1, 2):  # odd: Gauss node; even: G7 weight zero
            with pytest.raises(FloatingPointError):
                integrate_semiinf(lambda y: one_bad(y.shape, (1, 4, node),
                                                    bad),
                                  np.array([0.0, 1.0]), 1e-6)
            with pytest.raises(FloatingPointError):  # y node, s node
                integrate_wedge(lambda zeta, y: one_bad(
                    zeta.shape, (2, node, 15 + node), bad), 40.0, 1e-6)


def _placed(values, elements, misalign_bytes):
    """A copy of ``values`` inside a larger buffer, starting ``elements``
    float64 elements plus ``misalign_bytes`` bytes past its start."""
    start = 8 * elements + misalign_bytes
    raw = np.zeros(values.nbytes + start + 8, dtype=np.uint8)
    out = raw[start:start + values.nbytes].view(float).reshape(values.shape)
    out[...] = values
    return out


def test_rules_do_not_depend_on_where_the_integrand_array_sits():
    # the panel sums are contractions whose loops must not change with
    # the memory offset or the alignment of the integrand's array
    def f(y):
        return y * np.log1p(-np.exp(-y)) + np.sin(3.0 * y) * np.exp(-y)

    def g(zeta, y):
        return np.exp(-y) * np.sqrt(zeta) * np.cos(zeta)

    lowers = np.array([0.0, 0.3, 2.0])
    rows, wedge = integrate_semiinf(f, lowers, 1e-10), integrate_wedge(
        g, 40.0, 1e-10)
    layouts = [(k, 0) for k in range(1, 8)] + [(0, b) for b in range(1, 8)]
    for elements, misalign in layouts:
        moved = integrate_semiinf(
            lambda y: _placed(f(y), elements, misalign), lowers, 1e-10)
        assert np.array_equal(moved.value, rows.value)
        assert np.array_equal(moved.abs_error_estimate,
                              rows.abs_error_estimate)
        assert integrate_wedge(
            lambda zeta, y: _placed(g(zeta, y), elements, misalign),
            40.0, 1e-10) == wedge


def test_no_blas_or_optimized_contractions_in_src():
    # @, dot, matmul, inner, vdot and tensordot may reach a threaded BLAS,
    # and einsum's optimize= may too: results would depend on the threads
    banned = {"dot", "matmul", "inner", "vdot", "tensordot"}
    src = Path(__file__).resolve().parents[1] / "src"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Attribute) and node.attr in banned
                    or isinstance(node, ast.Name) and node.id in banned
                    or isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "einsum"
                    and any(k.arg == "optimize" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_array_lower_equals_scalar_calls_row_for_row():
    # the rows converge at different levels (the log edge at y = 0 needs
    # the most); each must keep the value of its own first converged level
    def f(y):
        return y * np.log1p(-np.exp(-y))

    lowers = np.array([0.0, 1e-3, 0.5, 3.0, 20.0])
    rows = integrate_semiinf(f, lowers, 1e-10)
    for k, lower in enumerate(lowers):
        alone = integrate_semiinf(f, float(lower), 1e-10)
        assert isinstance(alone.value, float)
        assert rows.value[k] == alone.value
        assert rows.abs_error_estimate[k] == alone.abs_error_estimate
    assert rows.evaluations >= len(lowers) * alone.evaluations


def test_row_error_is_the_formula_on_k15_minus_g7_weights():
    # D comes from one contraction with the weights K15 - G7; rebuilt here
    # from the separate K15 and G7 rules, on rows that stop at different
    # levels, each row keeps the fsum of its K15 panel sums as its value
    # and _gk_error(D, R) as its error, and that D is the summed |K15 - G7|
    # of separate sums up to their rounding (at D/R ~ 2e-10 that rounding
    # alone moves D by up to ~1e-6 of itself)
    def f(y):
        return y * np.log1p(-np.exp(-y))

    lowers, tol = np.array([0.0, 1e-3, 0.5, 3.0, 20.0]), 1e-10
    rows = integrate_semiinf(f, lowers, tol)
    length = tail_cutoff(lowers, tol) - lowers
    y0, dy = lowers[:, None, None], length[:, None, None]
    stopped = {}
    for level in range(quadrature._INTERVAL_LEVELS):
        u, w_k, w_g = quadrature._gk_panels(
            quadrature._U_T_EDGES, level, lambda t: 2.0 * t, lambda t: t * t)
        w_g15 = np.zeros_like(w_k)  # G7 on the 15 nodes
        w_g15[:, 1::2] = w_g
        w_d = w_k - w_g15
        cached = quadrature._u_rule(level)
        assert all(np.array_equal(a, b) for a, b in zip(cached, (u, w_k, w_d)))
        fx = f(y0 + dy * u)
        k = np.einsum("rpn,pn->rp", fx, w_k)
        g = np.einsum("rpn,pn->rp", fx[..., 1::2], w_g)
        d = length * np.abs(np.einsum("rpn,pn->rp", fx, w_d)).sum(axis=1)
        r = length * np.einsum("rpn,pn->r", np.abs(fx), w_k)
        # each 15-term sum is off by below 8 eps of its sum of |terms|
        rounding = 16.0 * quadrature._EPS * length * np.einsum(
            "rpn,pn->r", np.abs(fx), w_k + w_g15)
        for i in set(range(len(lowers))) - set(stopped):
            assert abs(d[i] - length[i] * np.abs(k[i] - g[i]).sum()) <= (
                rounding[i]), (level, i)
            e = quadrature._gk_error(float(d[i]), float(r[i]))
            if e <= max(tol * r[i], quadrature._INTERVAL_ABS_TOL):
                stopped[i] = level
                assert rows.value[i] == length[i] * math.fsum(k[i])
                assert rows.abs_error_estimate[i] == pytest.approx(
                    e, rel=1e-12, abs=0.0)
        if len(stopped) == len(lowers):
            break
    assert len(stopped) == len(lowers)
    assert len(set(stopped.values())) > 1, stopped


def test_euler_maclaurin_ends_keep_their_arithmetic():
    # seven-term edges, geometric, alternating and with exact zeros: value
    # and bound are those of the weights' fsum and of np.diff, bit for bit
    rng = np.random.default_rng(29)
    edges = []
    for _ in range(200):
        ratio, start = rng.uniform(0.2, 1.0), rng.lognormal(0.0, 20.0)
        geometric = start * ratio ** np.arange(7.0)
        edges += [geometric, geometric * (-1.0) ** np.arange(7),
                  np.where(rng.random(7) < 0.4, 0.0, rng.normal(size=7))]
    edges += [np.zeros(7), np.eye(7)[3]]
    for t in edges:
        want = (math.fsum(np.asarray(t) * quadrature._EM_WEIGHTS),
                abs(np.diff(t, 6)[0]) / 50)
        for given in (t, tuple(t.tolist())):
            got = euler_maclaurin_ends(given)
            assert [type(x) for x in got] == [float, float]
            assert got == want, t


def test_singular_zero_frequency_integrand_from_zero():
    # int_0^inf y ln(1 - e^-y) dy = -zeta(3): the l = 0 ideal-metal term,
    # log-singular at the lower limit
    res = integrate_semiinf(lambda y: y * np.log1p(-np.exp(-y)), 0.0, 1e-10)
    assert abs(res.value + 1.2020569031595943) <= res.abs_error_estimate
    assert res.abs_error_estimate <= 1e-10 * 1.2020569031595943


def test_wedge_integrand_sees_compact_y(monkeypatch):
    # the integrand gets one y per y node, shape (panels, 15, 1); handing
    # it y broadcast to zeta's shape instead changes no bit of any T = 0
    # record of the benchmark models, nor of a Euler-Maclaurin band
    import casimir_impedance.observables as obs
    from casimir_impedance.physcore import (
        GOLD, Geometry, ThermalState, derive_anomalous_constant,
        sigma_gaussian_from_si,
    )
    from casimir_impedance.reflection import (
        AnomalousSkin, Drude, InfraredOptics, NormalSkin, Plasma,
    )

    drude = Drude(GOLD.plasma_frequency, 5.3e13)
    models = (InfraredOptics(GOLD.plasma_frequency),
              AnomalousSkin(derive_anomalous_constant(GOLD)),
              NormalSkin(sigma_gaussian_from_si(4.1e7)),
              Plasma(GOLD.plasma_frequency), drude)
    cases = [(f, model, Geometry(a), ThermalState(0.0))
             for f in (obs.energy_T0, obs.pressure_plates)
             for model in models for a in (0.3e-6, 3e-6)]
    cases.append((obs.free_energy, drude, Geometry(0.15e-6),
                  ThermalState(10.0)))
    y_shapes = []

    def compact(f):
        def g(zeta, y):
            y_shapes.append(y.shape)
            return f(zeta, y)
        return g

    def full_y(f):
        return lambda zeta, y: f(zeta, np.broadcast_to(y, zeta.shape))

    def run(wrap):
        monkeypatch.setattr(obs, "integrate_wedge",
                            lambda f, *args: integrate_wedge(wrap(f), *args))
        return [f(model, geometry, *(() if f is obs.energy_T0 else (state,)))
                for f, model, geometry, state in cases]

    expected = run(full_y)
    got = run(compact)
    assert y_shapes and all(s[-1] == 1 and len(s) == 3 for s in y_shapes)
    assert got[-1].diagnostics["tail"] == "euler_maclaurin"
    for res, ref in zip(got, expected):
        assert res.value == ref.value
        assert res.numeric_error == ref.numeric_error
        assert res.diagnostics["evaluations"] == ref.diagnostics["evaluations"]


def test_rows_of_every_model_cover_their_error_against_scipy_quad():
    # the y-rule on rows of the free-energy, pressure and entropy
    # integrands for all six models, at 0.15-100 um and zeta from 0 (the
    # entropy from 1e-4) to 30, against scipy quad at epsrel 1e-13 on the
    # same [zeta, zeta + 40] of the out-of-place integrands (the entropy's
    # own on numpy scalars).  Left out: plasma and Drude rows above the
    # plasma frequency, zeta > 2 a omega_p / c, where the metal is near-
    # transparent and the integrand a difference of near-equal logs,
    # rounded at ~eps/r^2 of its value, which no estimate taken from the
    # integrand's values sees.  At 0.15 um that is zeta = 30, missed by up
    # to 2x at tol 1e-10; at a = 10 nm it is zeta >= 1, where 15 of the 156
    # rows miss at 1e-10 and the rest are covered
    import warnings
    from functools import partial

    from scipy import integrate

    from casimir_impedance import observables as obs
    from casimir_impedance.physcore import (
        C_LIGHT, GOLD, Geometry, derive_anomalous_constant,
        sigma_gaussian_from_si,
    )
    from casimir_impedance.reflection import (
        AnomalousSkin, Drude, IdealMetal, InfraredOptics, NormalSkin, Plasma,
    )
    from oracles import (
        free_energy_integrand_out_of_place, pressure_integrand_out_of_place,
    )

    wp = GOLD.plasma_frequency
    models = (IdealMetal(), NormalSkin(sigma_gaussian_from_si(4.1e7)),
              AnomalousSkin(derive_anomalous_constant(GOLD)),
              InfraredOptics(wp), Plasma(wp), Drude(wp, 5.3e13))
    zetas = np.array([0.0, 1e-4, 3e-3, 0.03, 0.3, 1.0, 4.0, 12.0, 30.0])
    checked = 0
    for rule, oracle, rows in (
            (obs._free_energy_integrand, free_energy_integrand_out_of_place,
             zetas),
            (obs._pressure_integrand, pressure_integrand_out_of_place, zetas),
            (obs._entropy_integrand, obs._entropy_integrand, zetas[1:])):
        for model, a in ((m, a) for m in models
                         for a in (0.15e-6, 1e-6, 5e-6, 100e-6)):
            geometry = Geometry(a)
            with warnings.catch_warnings():  # roundoff on transparent rows
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                refs = np.array([integrate.quad(
                    lambda y: oracle(model, geometry, np.float64(z),
                                     np.float64(y)),
                    z, z + 40.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for z in rows])
            kept = (rows <= 2.0 * a * wp / C_LIGHT
                    if isinstance(model, (Plasma, Drude)) else rows >= 0.0)
            for rel_tol in (1e-6, 1e-10):
                assert np.array_equal(tail_cutoff(rows, rel_tol), rows + 40.0)
                res = integrate_semiinf(partial(rule, model, geometry,
                                                rows[:, None, None]),
                                        rows, rel_tol)
                dev = np.abs(res.value - refs)
                missed = kept & ~(dev <= res.abs_error_estimate)
                assert not missed.any(), (rule.__name__, model, a, rel_tol,
                                          rows[missed], dev[missed])
                checked += kept.sum()
    assert checked == 2 * (624 - 6)
