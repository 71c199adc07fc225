"""Tests for the adaptive integrator and the Matsubara summation."""

import math

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
    for rel_tol, l_floor in ((0.0, 0), (0.5, 0), (1e-6, -1)):
        with pytest.raises(ValueError):
            matsubara_sum(lambda ls: 0.5 ** ls, rel_tol, l_floor)


def test_half_weight_convention():
    res = matsubara_sum(lambda ls: np.where(ls == 0, 1.0, 0.0), 1e-6, 0)
    assert res.value == 0.5
    assert res.terms_used >= 1


def test_geometric_series():
    # 0.5 + sum_{l>=1} 2^-l = 1.5
    res = matsubara_sum(lambda l: 0.5 ** l, 1e-12, 0)
    assert res.value == pytest.approx(1.5, rel=1e-11)
    assert res.last_term_magnitude <= 1e-12 * 1.5 * 1.01


def test_sum_floor_is_respected():
    res = matsubara_sum(lambda l: 0.5 ** l, 1e-6, 40)
    assert res.terms_used >= 41 and res.edge_terms == ()
    # a floor above L: the ladder hands off at L with t_{L-6}, ..., t_L
    big_l = quadrature._EULER_L
    res = matsubara_sum(lambda l: 0.5 ** l, 1e-6, 80)
    assert res.terms_used == big_l + 1
    assert res.edge_terms == tuple(0.5 ** np.arange(big_l - 6, big_l + 1))
    assert res.value == 0.5 + math.fsum(0.5 ** np.arange(1, big_l))


def test_sum_of_ones_hands_off_at_euler_l():
    res = matsubara_sum(lambda ls: np.ones(len(ls)), 1e-6, 0)
    assert isinstance(res, SumResult)
    assert res.terms_used == quadrature._EULER_L + 1
    assert res.value == quadrature._EULER_L - 0.5
    assert res.edge_terms == (1.0,) * 7


def test_sum_deterministic():
    def term(ls):
        return (1.0 + 0.3 * ls) * np.exp(-0.21 * ls)

    a = matsubara_sum(term, 1e-9, 10)
    b = matsubara_sum(term, 1e-9, 10)
    assert a.value == b.value and a.terms_used == b.terms_used


def test_wedge_rule_exact_on_polynomial_and_window():
    # int_0^Y dy int_0^min(y,c) dzeta (zeta + y) e^-y, each piece in closed
    # form; the window cut at c = 2 is a panel edge of the rule
    upper = tail_cutoff(0.0, 1e-10)

    def f(zeta, y):
        return (zeta + y) * np.exp(-y)

    full = integrate_wedge(f, upper, 1e-10)
    assert full.value == pytest.approx(3.0, rel=1e-12)  # 1.5 * Gamma(3)
    cut = integrate_wedge(f, upper, 1e-10, 2.0)
    # y < 2: 1.5 y^2 e^-y; y > 2: (2 + 2 y) e^-y
    closed = 1.5 * (2.0 - 10.0 * math.exp(-2.0)) + 8.0 * math.exp(-2.0)
    assert cut.value == pytest.approx(closed, rel=1e-12)
    assert cut.abs_error_estimate <= 1e-10 * closed


def test_wedge_band_above_lo_is_the_difference_of_wedges():
    # int_lo^inf dy int_lo^y dzeta (zeta + y) e^-y = (2 lo + 3) e^-lo, the
    # Matsubara remainder's form; lo = 0 is the wedge, bit for bit
    def f(zeta, y):
        return (zeta + y) * np.exp(-y)

    upper = tail_cutoff(0.0, 1e-10)
    full = integrate_wedge(f, upper, 1e-10)
    assert integrate_wedge(f, upper, 1e-10, lo=0.0) == full
    for lo in (0.3, 2.5, 9.0):
        band = integrate_wedge(f, tail_cutoff(lo, 1e-10), 1e-10, lo=lo)
        below = integrate_wedge(f, upper, 1e-10, lo)
        assert abs(band.value - (full.value - below.value)) <= (
            band.abs_error_estimate + full.abs_error_estimate
            + below.abs_error_estimate)
        closed = (2.0 * lo + 3.0) * math.exp(-lo)
        assert abs(band.value - closed) <= band.abs_error_estimate + 1e-15
        assert band.abs_error_estimate <= 1e-10 * closed
    with pytest.raises(ValueError):
        integrate_wedge(f, 40.0, 1e-6, cut=1.0, lo=1.0)


def test_euler_maclaurin_ends_on_geometric_terms():
    # sum_{l>=L} e^-al - int_L^inf e^-al dl = e^-aL (1/(1 - e^-a) - 1/a)
    from mpmath import exp, mp, mpf

    mp.dps = 40
    big_l = 64
    for a in (0.02, 0.1, 0.3):
        ends, bound = euler_maclaurin_ends(
            np.exp(-a * np.arange(big_l - 6, big_l + 1)))
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


def test_singular_zero_frequency_integrand_from_zero():
    # int_0^inf y ln(1 - e^-y) dy = -zeta(3): the l = 0 ideal-metal term,
    # log-singular at the lower limit
    res = integrate_semiinf(lambda y: y * np.log1p(-np.exp(-y)), 0.0, 1e-10)
    assert abs(res.value + 1.2020569031595943) <= res.abs_error_estimate
    assert res.abs_error_estimate <= 1e-10 * 1.2020569031595943
