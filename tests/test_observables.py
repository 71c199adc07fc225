"""Tests for the physical observables.

Expected values come from closed forms, from independent finite-difference
or summation oracles, or from the quoted reference computations for gold;
each assertion states its tolerance explicitly.
"""

import ast
import importlib.util
import math
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from casimir_impedance.physcore import (
    C_LIGHT, GOLD, HBAR, K_B, Geometry, ThermalState, ToleranceConfig,
    derive_anomalous_constant,
)
from casimir_impedance.reflection import (
    AnomalousSkin, Drude, IdealMetal, InfraredOptics, NormalSkin, Plasma,
)
from casimir_impedance import observables, quadrature
from casimir_impedance.quadrature import (
    IntegralResult, NonConvergenceError, integrate_semiinf,
)
from casimir_impedance.observables import (
    Quantity, energy_T0, energy_ideal, entropy, force_sphere_plate,
    free_energy, pressure_plates, records, thermal_correction,
)
from oracles import (
    ZETA3, effective_temperature, entropy_richardson, free_energy_ideal,
    lowT_asymptotics, spectral_contribution, zero_freq_closed_form,
)

TIGHT = ToleranceConfig(1e-9)
MED = ToleranceConfig(1e-8)
DEFAULT = ToleranceConfig()

GOLD_IR = InfraredOptics(GOLD.plasma_frequency)
GOLD_AS = AnomalousSkin(derive_anomalous_constant(GOLD))


def test_energy_ideal_reference_value():
    res = energy_ideal(Geometry(1e-6))
    assert res.quantity is Quantity.ENERGY_PER_AREA
    assert res.value == pytest.approx(-4.33e-10, rel=1e-3, abs=0.0)
    assert res.value == pytest.approx(
        -math.pi ** 2 * HBAR * C_LIGHT / 720.0 * 1e18, rel=1e-15, abs=0.0)


def test_energy_ideal_cubic_scaling():
    e1 = energy_ideal(Geometry(0.73e-6)).value
    e2 = energy_ideal(Geometry(1.46e-6)).value
    assert e1 == pytest.approx(8.0 * e2, rel=1e-15, abs=0.0)


def test_ideal_numeric_integral_matches_closed_form():
    geometry = Geometry(1e-6)
    res = energy_T0(IdealMetal(), geometry, MED)
    assert res.value == pytest.approx(energy_ideal(geometry).value,
                                      rel=1e-6, abs=0.0)
    assert res.diagnostics["correction_factor"] == pytest.approx(1.0,
                                                                 abs=1e-7)


def test_zero_T_correction_factors_gold():
    for a, model, expected in ((0.2e-6, GOLD_IR, 0.689),
                               (0.15e-6, GOLD_IR, 0.623),
                               (0.15e-6, GOLD_AS, 0.851)):
        res = energy_T0(model, Geometry(a), MED)
        assert res.diagnostics["correction_factor"] == pytest.approx(
            expected, rel=1e-2)
        assert res.value < 0.0


def test_free_energy_ideal_closed_series_vs_numeric_sum():
    geometry = Geometry(1e-6)
    state = ThermalState(300.0)
    closed = free_energy_ideal(geometry, state)
    numeric = free_energy(IdealMetal(), geometry, state, TIGHT)
    assert numeric.value == pytest.approx(closed.value, rel=1e-6, abs=0.0)


def test_free_energy_ideal_zero_T_limit():
    geometry = Geometry(1e-6)
    e0 = energy_ideal(geometry).value
    low = free_energy_ideal(geometry, ThermalState(1e-4))
    assert low.value == pytest.approx(e0, rel=1e-12, abs=0.0)
    assert free_energy_ideal(geometry, ThermalState(0.0)).value == e0


def test_free_energy_ideal_classical_limit():
    # independent oracle: direct numeric Matsubara sum at T/T_eff = 20
    geometry = Geometry(1e-6)
    temp = 20.0 * effective_temperature(geometry)
    closed = free_energy_ideal(geometry, ThermalState(temp))
    classical = -K_B * temp * ZETA3 / (8.0 * math.pi * 1e-12)
    assert closed.value == pytest.approx(classical, rel=1e-2, abs=0.0)
    numeric = free_energy(IdealMetal(), geometry, ThermalState(temp), TIGHT)
    assert numeric.value == pytest.approx(closed.value, rel=1e-9, abs=0.0)
    # every model at a = 20 um, 300 K (zeta_1 = 32.9): F is its l = 0 term
    # F0 = (k_B T / 16 pi a^2) sum_p int_0^inf y ln(1 - r_p^2(0) e^-y) dy,
    # the next term below |F0| zeta_1^2 e^-zeta_1.  r^2 = 1 gives -zeta(3)
    # (ideal metal and both skin effects: the classical limit above), the
    # Drude r_perp^2 = 0 half of it, and infrared optics and plasma their
    # r_perp^2(k_perp = y/2a) of oracles.zero_freq_closed_form
    from scipy.integrate import quad

    a, temp = 20e-6, 300.0
    geometry, state = Geometry(a), ThermalState(temp)
    zeta1 = observables.check_range(geometry, state)
    assert zeta1 == pytest.approx(32.9, abs=0.05)
    classical = -K_B * temp * ZETA3 / (8.0 * math.pi * a * a)
    wp = GOLD.plasma_frequency
    for model, f0 in ((IdealMetal(), classical),
                      (NormalSkin(1e17), classical), (GOLD_AS, classical),
                      (Drude(wp, 5.3e13), 0.5 * classical),
                      (GOLD_IR, None), (Plasma(wp), None)):
        if f0 is None:
            perp = quad(lambda y: y * math.log1p(-zero_freq_closed_form(
                model, y / (2.0 * a)).r_perp_sq * math.exp(-y)),
                0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            f0 = 0.5 * classical + K_B * temp / (16.0 * math.pi * a * a) * perp
            assert 0.5 < f0 / classical < 1.0  # r_perp^2(0) < 1
        for tol in (ToleranceConfig(1e-6), ToleranceConfig(1e-10)):
            res = free_energy(model, geometry, state, tol)
            assert abs(res.value - f0) <= (
                res.numeric_error + abs(f0) * zeta1 ** 2 * math.exp(-zeta1)
            ), (model, tol)


def test_free_energy_ideal_error_covers_high_temperature_limit():
    # far above T_eff only the classical zeta(3) term survives (the rest is
    # ~exp(-2 pi t)); the reported error must cover the distance to it
    for a, t in ((1e-6, 87.0), (1e-4, 876.0)):
        geometry = Geometry(a)
        temp = t * effective_temperature(geometry)
        res = free_energy_ideal(geometry, ThermalState(temp))
        classical = -K_B * temp * ZETA3 / (8.0 * math.pi * a * a)
        assert abs(res.value - classical) <= res.numeric_error
    # and stays tight wherever the series is accurate
    for a in (1e-7, 1e-6, 1e-4):
        geometry = Geometry(a)
        for t in np.geomspace(1e-3, 26.0, 40):
            res = free_energy_ideal(
                geometry, ThermalState(t * effective_temperature(geometry)))
            assert res.numeric_error <= 1e-12 * abs(res.value)


def test_free_energy_requires_positive_temperature():
    with pytest.raises(ValueError):
        free_energy(GOLD_IR, Geometry(1e-6), ThermalState(0.0))


def test_free_energy_to_zero_T_consistency():
    geometry = Geometry(1e-6)
    temp = effective_temperature(geometry) / 1000.0
    tol = ToleranceConfig(1e-8)
    fe = free_energy(GOLD_IR, geometry, ThermalState(temp), tol)
    e0 = energy_T0(GOLD_IR, geometry, tol)
    assert abs(fe.value / e0.value - 1.0) < 1e-3


def test_monotone_plasma_frequency_ordering():
    geometry = Geometry(1e-6)
    state = ThermalState(300.0)
    ideal = free_energy(IdealMetal(), geometry, state, MED).value
    last = 0.0
    for wp in (0.5e16, 1.37e16, 4e16, 2e17):
        val = free_energy(InfraredOptics(wp), geometry, state, MED).value
        assert abs(val) > abs(last)
        assert abs(val) < abs(ideal) * (1.0 + 1e-9)
        last = val
    big = free_energy(InfraredOptics(1e20), geometry, state, MED).value
    assert big == pytest.approx(ideal, rel=1e-3, abs=0.0)


def test_free_energy_term_count_tracks_dominant_window():
    # at 0.15 um / 300 K the floor ceil(10 / zeta_1) = 41 takes the ladder
    # through l = 41 (42 terms); with no floor it stops there by itself, as
    # the terms fall below 1e-5 of the sum only at the edge of the window
    res = free_energy(GOLD_IR, Geometry(0.15e-6), ThermalState(300.0),
                      ToleranceConfig(1e-5))
    assert 36 <= res.diagnostics["terms_used"] <= 46


def test_floor_keeps_loose_tolerance_ladders_within_tol():
    # at 1.92 um the terms fall below 1e-2 (3 K) or 1e-3 (10 K) of the
    # running sum after 58-59 terms, while the remainder is still 27% (0.8%)
    # of it; the floor ceil(10 / zeta_1) takes both ladders to the hand-off
    geometry = Geometry(1.92e-6)
    for temperature, rel_tol in ((3.0, 1e-2), (10.0, 1e-3)):
        state = ThermalState(temperature)
        ref = free_energy(GOLD_IR, geometry, state, MED).value
        res = free_energy(GOLD_IR, geometry, state, ToleranceConfig(rel_tol))
        assert res.diagnostics["tail"] == "euler_maclaurin"
        assert abs(res.value - ref) <= rel_tol * abs(ref)


def test_thermal_correction_sign_and_magnitude():
    res = thermal_correction(GOLD_IR, Geometry(1e-6), ThermalState(300.0),
                             TIGHT)
    assert res.quantity is Quantity.RELATIVE_THERMAL_CORRECTION
    assert 0.0 < res.value < 0.3
    assert res.numeric_error < 0.05 * res.value


def test_error_estimate_covers_truncated_tail():
    # at coarse tolerance the Matsubara tail exceeds the tiny 70 K signal;
    # the reported error bar must still cover the converged answer
    geometry = Geometry(0.15e-6)
    state = ThermalState(70.0)
    coarse = thermal_correction(GOLD_IR, geometry, state, ToleranceConfig())
    converged = thermal_correction(GOLD_IR, geometry, state, TIGHT)
    assert abs(coarse.value - converged.value) <= coarse.numeric_error


FAST = ToleranceConfig(1e-4)
RECORD_MODELS = [("infrared-optics", GOLD_IR), ("anomalous-skin", GOLD_AS)]


def _count_calls(monkeypatch, name, fail_at=None):
    # wraps the module attribute, as the benchmark tracer does; a call at
    # a separation inside fail_at = (lo, hi) raises NonConvergenceError
    calls = []
    real = getattr(observables, name)

    def counting(model, geometry, *args):
        calls.append((geometry.separation, type(model).__name__))
        if fail_at and fail_at[0] < geometry.separation < fail_at[1]:
            raise NonConvergenceError("synthetic failure",
                                      IntegralResult(0.0, 1.0, 1))
        return real(model, geometry, *args)

    monkeypatch.setattr(observables, name, counting)
    return calls


def test_records_energy_rows_are_the_observables_bit_for_bit():
    # == on these nonzero finite floats is bit-for-bit; a T > 0 row's
    # correction is thermal_correction's and its err_estimate F's
    seps, temps = [1e-6, 2e-6], [0.0, 300.0]
    rows = records(Quantity.RELATIVE_THERMAL_CORRECTION, RECORD_MODELS,
                   seps, temps, FAST)
    grid = [(a, T, name) for a in seps for T in temps
            for name, _ in RECORD_MODELS]
    assert len(rows) == len(grid)
    for row, (a, T, name) in zip(rows, grid):
        model = dict(RECORD_MODELS)[name]
        geometry, state = Geometry(a), ThermalState(T)
        e = energy_T0(model, geometry, FAST)
        expected = {"a_m": a, "T_K": T, "model": name,
                    "energy_J_per_m2": e.value,
                    "correction_factor": e.diagnostics["correction_factor"],
                    "err_estimate": e.numeric_error, "status": "ok"}
        if T > 0.0:
            f = free_energy(model, geometry, state, FAST)
            correction = thermal_correction(model, geometry, state, FAST)
            expected.update(free_energy_J_per_m2=f.value,
                            rel_thermal_correction=correction.value,
                            err_estimate=f.numeric_error,
                            terms_used=f.diagnostics["terms_used"])
        assert row == expected
    # the three energy quantities give the same rows
    for quantity in (Quantity.ENERGY_PER_AREA, Quantity.FREE_ENERGY_PER_AREA):
        assert records(quantity, RECORD_MODELS, seps, temps, FAST) == rows


@pytest.mark.parametrize("quantity,function,column,temps", [
    (Quantity.PRESSURE_PLATES, pressure_plates, "pressure_N_per_m2",
     [0.0, 300.0]),
    (Quantity.FORCE_SPHERE_PLATE, force_sphere_plate, "force_sphere_plate_N",
     [0.0, 300.0]),
    (Quantity.ENTROPY_PER_AREA, entropy, "entropy_J_per_m2_K", [300.0]),
], ids=["pressure", "sphere-plate", "entropy"])
def test_records_single_value_rows_are_the_observable_bit_for_bit(
        quantity, function, column, temps):
    seps = [1e-6, 2e-6]
    rows = records(quantity, RECORD_MODELS[:1], seps, temps, FAST, 1e-3)
    grid = [(a, T) for a in seps for T in temps]
    assert len(rows) == len(grid)
    for row, (a, T) in zip(rows, grid):
        res = function(GOLD_IR, Geometry(a, 1e-3), ThermalState(T), FAST)
        expected = {"a_m": a, "T_K": T, "model": "infrared-optics",
                    column: res.value, "err_estimate": res.numeric_error,
                    "status": "ok"}
        if "terms_used" in res.diagnostics:
            expected["terms_used"] = res.diagnostics["terms_used"]
        assert row == expected


def test_records_computes_energy_once_per_separation_and_model(monkeypatch):
    calls = _count_calls(monkeypatch, "energy_T0")
    args = (Quantity.FREE_ENERGY_PER_AREA, RECORD_MODELS, [1e-6, 2e-6],
            [0.0, 70.0, 300.0], FAST)
    first = records(*args)
    assert len(first) == 12 and all(r["status"] == "ok" for r in first)
    assert calls == [(a, name) for a in (1e-6, 2e-6)
                     for name in ("InfraredOptics", "AnomalousSkin")]
    # nothing outlives the call: a second one computes every E again
    assert records(*args) == first
    assert calls[4:] == calls[:4]


def test_records_failing_energy_fails_every_row_of_its_pair(monkeypatch):
    args = (Quantity.RELATIVE_THERMAL_CORRECTION, RECORD_MODELS,
            [1e-6, 2e-6, 3e-6], [0.0, 70.0, 300.0], FAST)
    clean = records(*args)
    calls = _count_calls(monkeypatch, "energy_T0", fail_at=(1.5e-6, 2.5e-6))
    rows = records(*args)
    assert len(rows) == len(clean) == 18
    # the failed E, too, is computed once per pair
    assert calls == [(a, name) for a in (1e-6, 2e-6, 3e-6)
                     for name in ("InfraredOptics", "AnomalousSkin")]
    for row, kept in zip(rows, clean):
        if row["a_m"] == 2e-6:
            place = {key: kept[key] for key in ("a_m", "T_K", "model")}
            assert row == {**place,
                           "status": "nonconvergence: synthetic failure"}
        else:
            assert row == kept


def test_records_nonfinite_row_fails_alone_and_range_errors_propagate(
        monkeypatch):
    plasma = Plasma(GOLD.plasma_frequency)
    monkeypatch.setattr(Plasma, "fresnel_inputs",
                        lambda self, geometry, zeta, y:
                        (np.full(np.shape(y), np.nan),) * 2)
    ok, bad = records(Quantity.PRESSURE_PLATES,
                      [("infrared-optics", GOLD_IR), ("plasma", plasma)],
                      [1e-6], [0.0], FAST)
    assert ok["status"] == "ok" and "pressure_N_per_m2" in ok
    assert set(bad) == {"a_m", "T_K", "model", "status"}
    assert bad["status"].startswith("nonfinite: ")
    with pytest.raises(ValueError, match="outside"):
        records(Quantity.ENERGY_PER_AREA, RECORD_MODELS, [2.0], [0.0], FAST)


def test_pressure_ideal_zero_temperature():
    geometry = Geometry(1e-6)
    res = pressure_plates(IdealMetal(), geometry, ThermalState(0.0), MED)
    closed = -math.pi ** 2 * HBAR * C_LIGHT / 240.0 * 1e24
    assert res.value == pytest.approx(closed, rel=1e-6, abs=0.0)
    assert res.value == pytest.approx(-1.30e-3, rel=1e-3, abs=0.0)


def test_pressure_ideal_low_temperature_limit():
    geometry = Geometry(1e-6)
    temp = effective_temperature(geometry) / 10000.0
    res = pressure_plates(IdealMetal(), geometry, ThermalState(temp), MED)
    closed = -math.pi ** 2 * HBAR * C_LIGHT / 240.0 * 1e24
    assert res.value == pytest.approx(closed, rel=1e-3, abs=0.0)


def test_pressure_matches_free_energy_derivative():
    geometry = Geometry(1e-6)
    state = ThermalState(300.0)
    p = pressure_plates(GOLD_IR, geometry, state, TIGHT)
    h = 1e-4 * geometry.separation
    f_hi = free_energy(GOLD_IR, Geometry(geometry.separation + h), state,
                       TIGHT)
    f_lo = free_energy(GOLD_IR, Geometry(geometry.separation - h), state,
                       TIGHT)
    fd = -(f_hi.value - f_lo.value) / (2.0 * h)
    assert p.value == pytest.approx(fd, rel=1e-4, abs=0.0)


def test_pressure_vacuum_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lambda_p is huge for omega_p -> 0
        res = pressure_plates(Plasma(1e-10), Geometry(1e-6),
                              ThermalState(0.0), MED)
    assert abs(res.value) < 1e-10 * abs(
        pressure_plates(IdealMetal(), Geometry(1e-6), ThermalState(0.0),
                        MED).value)


def test_sphere_plate_reference_and_linearity():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geometry = Geometry(1e-6, sphere_radius=100e-6)
        res = force_sphere_plate(IdealMetal(), geometry, ThermalState(0.0),
                                 MED)
        assert res.value == pytest.approx(-2.72e-13, rel=2e-3, abs=0.0)
        doubled = force_sphere_plate(
            IdealMetal(), Geometry(1e-6, sphere_radius=200e-6),
            ThermalState(0.0), MED)
    assert doubled.value == pytest.approx(2.0 * res.value, rel=1e-12, abs=0.0)


def test_sphere_plate_correction_transfers():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geom = Geometry(0.2e-6, sphere_radius=100e-6)
        gold = force_sphere_plate(GOLD_IR, geom, ThermalState(0.0), MED)
        ideal = force_sphere_plate(IdealMetal(), geom, ThermalState(0.0),
                                   MED)
    assert gold.value / ideal.value == pytest.approx(0.689, rel=1e-2)


def test_sphere_plate_requires_radius():
    with pytest.raises(ValueError):
        force_sphere_plate(IdealMetal(), Geometry(1e-6), ThermalState(0.0))


def test_entropy_positive_at_room_temperature():
    res = entropy(GOLD_IR, Geometry(1e-6), ThermalState(300.0), MED)
    assert res.value > 0.0
    assert res.value > res.numeric_error


def test_entropy_matches_low_T_expansion():
    geometry = Geometry(1e-6)
    state = ThermalState(30.0)
    numeric = entropy(GOLD_IR, geometry, state, TIGHT)
    _, analytic = lowT_asymptotics(GOLD, geometry, state, TIGHT)
    assert analytic.value > 10.0 * numeric.numeric_error
    assert numeric.value == pytest.approx(analytic.value, rel=5e-2, abs=0.0)


def test_entropy_vanishes_toward_zero_temperature():
    geometry = Geometry(1e-6)
    tol = ToleranceConfig(1e-11)
    s_room = entropy(GOLD_IR, geometry, ThermalState(300.0), MED)
    s_cold = entropy(GOLD_IR, geometry, ThermalState(1.0), tol)
    assert abs(s_cold.value) < 1e-3 * s_room.value


def test_entropy_agrees_with_the_richardson_difference(monkeypatch):
    # 90 records, six models x {0.15, 1, 5} um x {1, 3, 10, 70, 300} K at
    # the default tol: the ladder of h = d(zeta I)/dzeta, computed with
    # free_energy patched to raise, agrees with the Richardson difference
    # of four free energies within both errors, and its own error is the
    # smaller (the difference's value was up to 9% off, within its error)
    from casimir_impedance.physcore import sigma_gaussian_from_si

    def no_free_energy(*args):
        raise AssertionError("entropy computed a free energy")

    models = (IdealMetal(), NormalSkin(sigma_gaussian_from_si(4.1e7)),
              GOLD_AS, GOLD_IR, Plasma(GOLD.plasma_frequency),
              Drude(GOLD.plasma_frequency, 5.3e13))
    cases = [(model, Geometry(a), ThermalState(temperature))
             for model in models for a in (0.15e-6, 1e-6, 5e-6)
             for temperature in (1.0, 3.0, 10.0, 70.0, 300.0)]
    refs = [entropy_richardson(*case, DEFAULT) for case in cases]
    monkeypatch.setattr(observables, "free_energy", no_free_energy)
    results = [entropy(*case) for case in cases]
    for case, res, ref in zip(cases, results, refs):
        assert abs(res.value - ref.value) \
            <= res.numeric_error + ref.numeric_error, case
        assert res.numeric_error <= ref.numeric_error, case


def test_entropy_matches_low_T_expansion_at_tight_tol():
    # 1 um, tol 1e-10: infrared optics and the plasma dielectric, whose
    # low-T expansions agree to its order, are within both errors of it
    # from 0.1 to 10 K and resolved (err < 2% of |S|) down to 0.1 K, where
    # the difference quotient's error was 3e2 times |S|
    geometry, tol = Geometry(1e-6), ToleranceConfig(1e-10)
    for temperature in (0.1, 1.0, 3.0, 10.0):
        state = ThermalState(temperature)
        _, analytic = lowT_asymptotics(GOLD, geometry, state, tol)
        for model in (GOLD_IR, Plasma(GOLD.plasma_frequency)):
            res = entropy(model, geometry, state, tol)
            assert abs(res.value - analytic.value) \
                <= res.numeric_error + analytic.numeric_error, temperature
            assert res.numeric_error < 2e-2 * abs(res.value), temperature


def test_early_hand_off_covers_a_normal_skin_entropy():
    # zeta_1 = 0.121, so the floor is 83 and the ladder may hand off early;
    # h turns, and Delta^6 t changes sign between l = 32 and 33, so |Delta^6
    # t_32| / 50 alone meets tol 1e-10 there and left the value 3.4x its
    # error off a ladder of every row to l zeta_1 = 45 at 1e-12.  The
    # envelope over t_30..t_32 misses tol at 32, and the ladder hands off at
    # 64, covered
    from oracles import entropy_direct_ladder

    model, geometry = NormalSkin(3.2e17), Geometry(3.162277660168379e-07)
    res = entropy(model, geometry, ThermalState(70.0), ToleranceConfig(1e-10))
    ref = entropy_direct_ladder(model, geometry, 70.0)
    assert abs(res.value - ref) <= res.numeric_error


def test_entropy_checks_its_range_up_front(monkeypatch):
    # entropy takes no step in T: a T inside check_range computes, up to
    # both ends of the ladder's range at both ends of the separation's, and
    # computes no free energy; a T just outside fails with check_range's
    # own message, and T = 0 with entropy's
    import casimir_impedance.observables as obs

    def no_free_energy(*args):
        raise AssertionError("entropy computed a free energy")

    monkeypatch.setattr(obs, "free_energy", no_free_energy)
    for a in (1e-12, 1.0):
        geometry = Geometry(a)
        per_kelvin = obs.check_range(geometry, ThermalState(1.0))
        for zeta1, inward in ((1e12, 1.0 - 5e-4), (1e-100, 1.0 + 5e-4)):
            res = entropy(IdealMetal(), geometry,
                          ThermalState(zeta1 / per_kelvin * inward))
            assert math.isfinite(res.value), (a, zeta1)
            assert 0.0 < res.numeric_error < math.inf, (a, zeta1)
            outside = ThermalState(zeta1 / per_kelvin / inward)
            with pytest.raises(ValueError) as expected:
                obs.check_range(geometry, outside)
            with pytest.raises(ValueError) as info:
                entropy(IdealMetal(), geometry, outside)
            assert str(info.value) == str(expected.value)
            assert "outside the Matsubara ladder's range" in str(info.value)
    with pytest.raises(ValueError, match="entropy requires T > 0"):
        entropy(GOLD_IR, Geometry(1e-6), ThermalState(0.0))


def test_entropy_reads_plus_zero_where_its_ladder_cancels(capsys):
    # at the low end of the ladder's range (zeta_1 = 1e-100) every term
    # rounds to the l = 0 one and the hand-off's head, ends and band cancel
    # to exactly 0: the entropy is +0 (CSV "0"), never -0; at the high end
    # (zeta_1 = 1e12) the l = 0 term alone gives S > 0
    from casimir_impedance import cli

    for model in (IdealMetal(), GOLD_IR):
        for a in (1e-12, 1.0):
            geometry = Geometry(a)
            per_kelvin = observables.check_range(geometry, ThermalState(1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # below the plasma wavelength
                low, high = (entropy(model, geometry, ThermalState(
                    zeta1 / per_kelvin * inward)) for zeta1, inward in (
                        (1e-100, 1.0 + 5e-4), (1e12, 1.0 - 5e-4)))
            assert low.value == 0.0, (model, a)
            assert math.copysign(1.0, low.value) == 1.0, (model, a)
            assert low.diagnostics["indistinguishable_from_zero"]
            assert high.value > 0.0, (model, a)
    assert cli.main(["entropy", "--model", "infrared-optics", "--separation",
                     "1e-12", "--temperature", "2e-92", "--format",
                     "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    column = header.split(",").index("entropy_J_per_m2_K")
    assert row.split(",")[column] == "0"


def test_low_T_asymptotics_against_full_pipeline():
    geometry = Geometry(1e-6)
    state = ThermalState(30.0)
    f_est, s_est = lowT_asymptotics(GOLD, geometry, state, TIGHT)
    fe = free_energy(GOLD_IR, geometry, state, TIGHT)
    e0 = energy_T0(GOLD_IR, geometry, TIGHT)
    assert (fe.value - e0.value) == pytest.approx(
        f_est.value - e0.value, rel=0.1, abs=0.0)
    assert s_est.value > 0.0


def test_low_T_asymptotics_ideal_limit():
    # omega_p -> infinity recovers the ideal-metal expansion coefficients
    geometry = Geometry(1e-6)
    state = ThermalState(30.0)
    huge = type(GOLD)(plasma_frequency=1e22, fermi_velocity=1.4e6)
    f_est, _ = lowT_asymptotics(huge, geometry, state, MED)
    ideal = free_energy_ideal(geometry, state)
    assert f_est.value == pytest.approx(ideal.value, rel=1e-6, abs=0.0)


def test_low_T_asymptotics_entropy_positive_grid():
    for a in (0.3e-6, 1e-6, 3e-6):
        geometry = Geometry(a)
        t_eff = effective_temperature(geometry)
        for frac in (0.01, 0.05, 0.09):
            _, s_est = lowT_asymptotics(GOLD, geometry,
                                        ThermalState(frac * t_eff), MED)
            assert s_est.value > 0.0


def test_low_T_asymptotics_rejects_high_temperature():
    geometry = Geometry(1e-6)
    t_eff = effective_temperature(geometry)
    with pytest.raises(ValueError):
        lowT_asymptotics(GOLD, geometry, ThermalState(0.2 * t_eff))


def test_spectral_contribution_full_window_and_additivity():
    geometry = Geometry(5e-6)
    assert spectral_contribution(GOLD_AS, geometry, (0.0, math.inf), MED) \
        == pytest.approx(1.0, rel=1e-9)
    pieces = (spectral_contribution(GOLD_AS, geometry, (0.0, 0.1), MED)
              + spectral_contribution(GOLD_AS, geometry, (0.1, 10.0), MED)
              + spectral_contribution(GOLD_AS, geometry, (10.0, math.inf),
                                      MED))
    assert pieces == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        spectral_contribution(GOLD_AS, geometry, (0.5, 0.5), MED)


def test_free_energy_warns_below_plasma_wavelength():
    with pytest.warns(UserWarning, match="plasma wavelength"):
        energy_T0(GOLD_IR, Geometry(0.1e-6), MED)


def test_plasma_wavelength_warning_points_at_the_caller():
    # below lambda_p every observable warns once, and the warning names the
    # line that called it: at T = 0, on ladders handed off to
    # Euler-Maclaurin (3 and 300 K) and on ladders that stop by themselves
    # (1000 K), which all leave _spectral by different branches
    geometry, t0 = Geometry(0.1e-6), ThermalState(0.0)
    calls = [lambda: energy_T0(GOLD_IR, geometry),
             lambda: pressure_plates(GOLD_IR, geometry, t0)]
    for state in (ThermalState(3.0), ThermalState(300.0),
                  ThermalState(1000.0)):
        calls += [lambda s=state: free_energy(GOLD_IR, geometry, s),
                  lambda s=state: pressure_plates(GOLD_IR, geometry, s),
                  lambda s=state: entropy(GOLD_IR, geometry, s)]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert len(caught) == 1
        assert "plasma wavelength" in str(caught[0].message)
        assert (caught[0].filename, caught[0].lineno) == (
            __file__, call.__code__.co_firstlineno)


def test_drude_free_energy_runs():
    res = free_energy(Drude(GOLD.plasma_frequency, 5.3e13), Geometry(1e-6),
                      ThermalState(300.0), MED)
    assert res.value < 0.0
    plasma = free_energy(Plasma(GOLD.plasma_frequency), Geometry(1e-6),
                         ThermalState(300.0), MED)
    # dissipation switches off the perpendicular zero-frequency term,
    # weakening the attraction
    assert abs(res.value) < abs(plasma.value)


def _count_module_global_calls(monkeypatch, names):
    """Wrap the named module globals of observables; return the dict the
    wrappers count their calls in."""
    import casimir_impedance.observables as obs

    calls = {}

    def counting(name):
        fn = getattr(obs, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(obs, name, counting(name))
    return calls


def test_x_factor_kernels_reached_through_module_globals(monkeypatch):
    # the benchmark times the X-factor layer by wrapping these two names
    # in observables; every model must reach exactly the one kernel
    calls = _count_module_global_calls(
        monkeypatch, ("x_factors_grid", "lifshitz_x_grid"))
    loose = ToleranceConfig(1e-4)
    geometry = Geometry(1e-6)
    for model in (IdealMetal(), NormalSkin(1e17), GOLD_AS, GOLD_IR,
                  Plasma(GOLD.plasma_frequency),
                  Drude(GOLD.plasma_frequency, 5.3e13)):
        for run in (lambda: energy_T0(model, geometry, loose),
                    lambda: free_energy(model, geometry, ThermalState(300.0),
                                        loose)):
            calls.clear()
            run()
            assert set(calls) == {"x_factors_grid"}, model
            assert calls["x_factors_grid"] > 0


def test_quadrature_reached_through_module_globals(monkeypatch):
    # the benchmark's per-layer spans wrap these names in observables, and
    # its smoke check relies on a T = 0 record running no Matsubara sum
    calls = _count_module_global_calls(
        monkeypatch, ("integrate_interval", "integrate_semiinf",
                      "integrate_wedge", "matsubara_sum"))
    loose = ToleranceConfig(1e-4)
    geometry = Geometry(1e-6)
    cold, warm = ThermalState(0.0), ThermalState(300.0)
    zero_t = {"integrate_wedge"}
    thermal = {"matsubara_sum", "integrate_semiinf"}
    for run, reached in (
            (lambda: energy_T0(GOLD_IR, geometry, loose), zero_t),
            (lambda: pressure_plates(GOLD_IR, geometry, cold, loose), zero_t),
            (lambda: free_energy(GOLD_IR, geometry, warm, loose), thermal),
            (lambda: pressure_plates(GOLD_IR, geometry, warm, loose),
             thermal),
            # 10 K: the ladder reaches l = 64 and its remainder is a wedge
            (lambda: free_energy(GOLD_IR, geometry, ThermalState(10.0),
                                 loose), thermal | zero_t)):
        calls.clear()
        run()
        assert set(calls) == reached


def test_benchmark_span_names_are_observables_attributes():
    # perfbench/spans.py wraps these attributes of observables; a name
    # that is gone makes the traced benchmark and its smoke check crash
    import casimir_impedance.observables as obs

    for name in ("energy_T0", "free_energy", "pressure_plates", "entropy",
                 "force_sphere_plate", "integrate_interval",
                 "integrate_semiinf", "matsubara_sum", "x_factors_grid",
                 "lifshitz_x_grid"):
        assert callable(getattr(obs, name, None)), name


def test_zero_temperature_rule_matches_ideal_closed_forms():
    geometry = Geometry(1e-6)
    e0 = energy_ideal(geometry).value
    p0 = -math.pi ** 2 * HBAR * C_LIGHT / 240.0 * 1e24
    for rel_tol in (1e-6, 1e-10):
        tol = ToleranceConfig(rel_tol)
        e = energy_T0(IdealMetal(), geometry, tol)
        p = pressure_plates(IdealMetal(), geometry, ThermalState(0.0), tol)
        for res, closed in ((e, e0), (p, p0)):
            assert abs(res.value - closed) <= res.numeric_error, rel_tol
            assert res.numeric_error <= 2.0 * rel_tol * abs(closed)


def test_zero_temperature_rule_matches_nested_quad_oracle():
    # the skin-effect impedances are non-analytic at zeta = 0 (zeta^(1/2),
    # zeta^(2/3)), which matters most at small a; Drude dissipation sits at
    # zeta ~ 4e-6 y^2 at 10 um.  The oracle integrates zeta outside.
    from oracles import energy_T0_nested_quad

    for model, a in ((NormalSkin(1e17), 0.15e-6), (GOLD_AS, 0.15e-6),
                     (Drude(GOLD.plasma_frequency, 5.3e13), 10e-6)):
        geometry = Geometry(a)
        ref = energy_T0_nested_quad(model, geometry)
        for rel_tol in (1e-6, 1e-9):
            res = energy_T0(model, geometry,
                            ToleranceConfig(rel_tol))
            assert abs(res.value - ref) <= res.numeric_error, (model, rel_tol)
            assert res.numeric_error <= 2.0 * rel_tol * abs(ref)


def test_zero_temperature_error_estimate_covers_and_is_sharp():
    # six models x E, P over 1 nm - 1 mm: at tol 1e-6 and 1e-9 the
    # estimate is never below the true error, and at 1e-6 it overstates it
    # by a median of at most 1e5.  The reference is the rule at tol 1e-13;
    # the scipy oracle (off by up to ~1e-11 of E for anomalous skin at
    # 1 mm) checks E at 1e-6 at the two ends.  Plasma and Drude P at
    # 10^-8.1 m (7.9 nm) stop at level 0 with an estimate of 0.94-0.95 of
    # tol |P|, the narrowest margin over 61 separations from 1 nm to 1 mm
    from oracles import energy_T0_nested_quad

    cold = ThermalState(0.0)
    observables = (energy_T0,
                   lambda m, g, tol: pressure_plates(m, g, cold, tol))
    plasma, drude = (Plasma(GOLD.plasma_frequency),
                     Drude(GOLD.plasma_frequency, 5.3e13))
    cases = [(model, a, f)
             for model in (IdealMetal(), NormalSkin(1e17), GOLD_AS, GOLD_IR,
                           plasma, drude)
             for a in (1e-9, 1e-7, 1e-5, 1e-3) for f in observables]
    cases += [(model, 10 ** -8.1, observables[1]) for model in (plasma, drude)]
    ratios = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 1 nm and 0.1 um are below lambda_p
        for model, a, f in cases:
            geometry = Geometry(a)
            ref = f(model, geometry, ToleranceConfig(1e-13)).value
            for rel_tol in (1e-6, 1e-9):
                res = f(model, geometry, ToleranceConfig(rel_tol))
                true = abs(res.value - ref)
                assert true <= res.numeric_error, (model, a, rel_tol)
                if rel_tol == 1e-6:  # bit-equal to ref: no ratio
                    ratios.append(res.numeric_error / true if true
                                  else math.inf)
                if rel_tol == 1e-6 and a == 10 ** -8.1:  # level 0, narrowly
                    assert res.diagnostics["evaluations"] == 4725, model
                    assert res.numeric_error > 0.9e-6 * abs(res.value)
            if a in (1e-9, 1e-3) and f is energy_T0:
                res = energy_T0(model, geometry, ToleranceConfig(1e-6))
                oracle = energy_T0_nested_quad(model, geometry)
                assert abs(res.value - oracle) <= res.numeric_error, \
                    (model, a)
    assert np.median(ratios) <= 1e5


def test_default_tolerance_wedge_uses_the_level_zero_layout(monkeypatch):
    # the level-0 layout, 105 y x 45 s nodes = 4,725 X points, meets the
    # default tol for every benchmark T = 0 model at 0.1, 1 and 10 um, and
    # for the Euler-Maclaurin band of a 3 K ladder at 0.15 um
    import casimir_impedance.observables as obs
    from casimir_impedance.physcore import sigma_gaussian_from_si

    bands = []

    def recording(*args):
        bands.append(quadrature.integrate_wedge(*args))
        return bands[-1]

    monkeypatch.setattr(obs, "integrate_wedge", recording)
    models = (GOLD_IR, GOLD_AS, NormalSkin(sigma_gaussian_from_si(4.1e7)),
              Plasma(GOLD.plasma_frequency),
              Drude(GOLD.plasma_frequency, 5.3e13))
    cold = ThermalState(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 0.1 um is below lambda_p
        for model in models:
            for a in (0.1e-6, 1e-6, 10e-6):
                for res in (energy_T0(model, Geometry(a)),
                            pressure_plates(model, Geometry(a), cold)):
                    assert res.diagnostics["evaluations"] == 4725, (model, a)
    bands.clear()
    for model in models:
        for f in (free_energy, pressure_plates):
            res = f(model, Geometry(0.15e-6), ThermalState(3.0))
            assert res.diagnostics["tail"] == "euler_maclaurin", model
    assert len(bands) == 2 * len(models)
    assert {band.evaluations for band in bands} == {4725}


def _recorded_bands(monkeypatch, models, separations, temperatures):
    """(lo, evaluations) of every Euler-Maclaurin band of F and P at the
    default tol over the grid."""
    bands = []

    def recording(g, upper, rel_tol, lo, layout):
        res = quadrature.integrate_wedge(g, upper, rel_tol, lo, layout)
        bands.append((lo, res.evaluations))
        return res

    monkeypatch.setattr(observables, "integrate_wedge", recording)
    for model in models:
        for a in separations:
            for temperature in temperatures:
                for f in (free_energy, pressure_plates):
                    f(model, Geometry(a), ThermalState(temperature))
    return bands


def test_default_tolerance_band_layout_switches_at_lo_0_2(monkeypatch):
    # a band from lo = 0.2 up takes the lean layout, 45 y x 15 s nodes =
    # 675 points at level 0, and one below 0.2 the graded 4,725; on this
    # grid the bands nearest the switch start at lo = 0.161 and 0.266
    # (tests/test_readme.py checks lo = 0.2 and the float just below it)
    models = (GOLD_IR, GOLD_AS, NormalSkin(3.2e17),
              Plasma(GOLD.plasma_frequency),
              Drude(GOLD.plasma_frequency, 5.3e13))
    bands = _recorded_bands(monkeypatch, models,
                            np.geomspace(0.15e-6, 5e-6, 6), (3.0, 10.0, 70.0))
    assert {(lo >= 0.2, n) for lo, n in bands} == {(True, 675),
                                                   (False, 4725)}
    assert any(0.15 < lo < 0.2 for lo, _ in bands)
    assert any(0.2 <= lo < 0.3 for lo, _ in bands)


def test_bands_at_every_lo_share_one_y_table_per_level(monkeypatch):
    # each layout's y table is built on [0, 1] and scaled to [lo, upper], as
    # the rows' table is, so the Euler-Maclaurin bands of ladders at any
    # (a, T), and the T = 0 wedge, reuse one table per layout and level:
    # with every row and band at level 0, `_gk_rule` makes seven
    # tables, the rows' u table and, for each of the two layouts, the s
    # table and the y nodes (p = 1) and weights (p = 2)
    quadrature._gk_rule.cache_clear()
    bands = _recorded_bands(monkeypatch, (GOLD_IR,),
                            np.geomspace(0.15e-6, 5e-6, 6), (3.0, 10.0, 70.0))
    energy_T0(GOLD_IR, Geometry(1e-6))
    assert len({lo for lo, _ in bands}) >= 8
    assert {n for _, n in bands} == {675, 4725}  # both layouts, level 0
    assert quadrature._gk_rule.cache_info().misses == 7


def test_lean_bands_are_within_tol_and_covered_against_nested_quad():
    # bands above lo = 0.2, 1 and 5 (the lean layout) of F and P for five
    # models, against scipy's nested rule at 1e-13: Drude at 20 um has
    # 2 a gamma / c = 7.1 and plasma at 0.15 um 2 a omega_p / c = 13.7,
    # both inside every band [lo, lo + 40]
    from oracles import band_nested_quad

    models = (GOLD_IR, GOLD_AS, NormalSkin(3.2e17),
              Plasma(GOLD.plasma_frequency),
              Drude(GOLD.plasma_frequency, 5.3e13))
    misses = []
    for model in models:
        for a in (0.15e-6, 1e-6, 20e-6):
            for integrand in (observables._free_energy_integrand,
                              observables._pressure_integrand):
                g = partial(integrand, model, Geometry(a))
                for lo in (0.2, 1.0, 5.0):
                    ref = band_nested_quad(g, lo, quadrature.tail_cutoff(
                        lo, 1e-10))  # the cutoff at 1e-6 too
                    for rel_tol in (1e-6, 1e-10):
                        res = observables._band(g, lo, rel_tol)
                        dev = abs(res.value - ref)
                        if not (dev <= rel_tol * abs(ref)
                                and dev <= res.abs_error_estimate):
                            misses.append((type(model).__name__, a,
                                           integrand.__name__, lo, rel_tol))
    assert not misses, misses


def test_one_call_site_of_the_wedge_in_src():
    # every T = 0 integral, Euler-Maclaurin remainder and spectral window
    # is a band above a lower edge, taken by observables._band alone
    src = Path(__file__).resolve().parents[1] / "src"
    sites = []
    for path in sorted(src.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and "integrate_wedge" in {
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)}):
                    sites.append((path.name, getattr(top, "name", None)))
    assert sites == [("observables.py", "_band")]


def test_low_temperature_correction_keeps_its_cancellation():
    # F - E is 2e-10 to 1e-8 of E here: F's Euler-Maclaurin band and E use
    # the same wedge rule, so their quadrature errors cancel, and at the
    # default tol the correction matches the closed expansion within
    # 1e-12 of |E| (the expansion's own O(t^5) term is below that)
    for a, temperature in ((0.15e-6, 3.0), (0.15e-6, 10.0), (1e-6, 1.0)):
        geometry, state = Geometry(a), ThermalState(temperature)
        e0 = energy_T0(GOLD_IR, geometry)
        fe = free_energy(GOLD_IR, geometry, state)
        f_est, _ = lowT_asymptotics(GOLD, geometry, state)
        assert fe.diagnostics["tail"] == "euler_maclaurin"
        assert abs((fe.value - e0.value) - (f_est.value - e0.value)) \
            <= 1e-12 * abs(e0.value), (a, temperature)


def test_zero_temperature_rule_evaluates_kernels_in_chunks(monkeypatch):
    # at a tight tolerance the rule refines past one chunk; no call of an X
    # kernel may receive more points than the chunk, and every point of
    # every level passes through one.  Level 0 (4,725 points) is one call
    # of the default chunk (8,192), so a smaller one (still above the 1,350
    # points of one level-1 y panel) splits every level; values and errors
    # are fsums over (y panel, s panel) pairs, the same for any chunk
    import casimir_impedance.observables as obs

    tight = ToleranceConfig(1e-10)
    cases = ((GOLD_IR, 10e-9), (Drude(GOLD.plasma_frequency, 5.3e13), 0.1e-6),
             (GOLD_AS, 1e-6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 10 nm is below lambda_p
        default = [energy_T0(model, Geometry(a), tight) for model, a in cases]
    chunk = 1 << 12
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    sizes = []

    def recording(kernel):
        def wrapper(model, geometry, zeta, y):
            sizes.append(np.broadcast(zeta, y).size)
            return kernel(model, geometry, zeta, y)
        return wrapper

    for name in ("x_factors_grid", "lifshitz_x_grid"):
        monkeypatch.setattr(obs, name, recording(getattr(obs, name)))
    for (model, a), base in zip(cases, default):
        sizes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = energy_T0(model, Geometry(a), tight)
        assert sum(sizes) == res.diagnostics["evaluations"]
        assert sum(sizes) > 3 * chunk
        assert max(sizes) <= chunk
        assert (res.value, res.numeric_error) \
            == (base.value, base.numeric_error)


def test_matsubara_block_size_does_not_change_results(monkeypatch):
    # with at most 2, 5 or 33 rows a call, a block is cut at the stopping
    # index (none runs past the hand-off): the terms and quadrature errors
    # past it are left out, and no row's value depends on its neighbours,
    # l = 0 included; a short ladder (5 um, 300 K: under 10 terms), ladders
    # handed off at l = 16 (10 K, 0.15 um), 32 (10 K, 1 um, tol 1e-10) and
    # 64 (70 K, 1 um, tol 1e-10), and tol 1e-10, where the l = 0 row needs
    # a level more than the rest of its block, too
    tight = ToleranceConfig(1e-10)
    cases = ((GOLD_IR, Geometry(1e-6), ThermalState(300.0), MED),
             (Drude(GOLD.plasma_frequency, 5.3e13), Geometry(0.15e-6),
              ThermalState(10.0), MED),
             (GOLD_IR, Geometry(5e-6), ThermalState(300.0), MED),
             (GOLD_IR, Geometry(1e-6), ThermalState(70.0), tight),
             (GOLD_IR, Geometry(1e-6), ThermalState(10.0), tight))
    runs = []
    for block in (2, 5, 33):
        monkeypatch.setattr(quadrature, "_MATSUBARA_BLOCK", block)
        runs.append([f(model, geometry, state, tol)
                     for model, geometry, state, tol in cases
                     for f in (free_energy, pressure_plates)])
    kinds = {(r.diagnostics["tail"], r.diagnostics["terms_used"])
             for r in runs[0]}
    assert {n for tail, n in kinds if tail == "euler_maclaurin"} \
        == {17, 33, 65}
    assert max(n for tail, n in kinds if tail == "geometric") < 33
    assert min(r.diagnostics["terms_used"] for r in runs[0]) < 10
    for res in zip(*runs):
        for r in res[1:]:
            assert r.value == res[0].value
            assert r.numeric_error == res[0].numeric_error
            assert r.diagnostics["terms_used"] == res[0].diagnostics[
                "terms_used"]


def test_matsubara_blocks_are_sized_to_the_ladder(monkeypatch):
    # l = 0 shares the first integrand call; a ladder that stops within 33
    # terms takes all its rows in that one call, overshooting by at most 7
    # rows, no call holds more than 33 rows, and a ladder whose floor is
    # past l = 64 takes exactly the rows of its hand-off: 17 in one call at
    # l = 16, or 17 + 16 in two at l = 32 (3 K, 1 um: 17; 10 K, 1 um, tol
    # 1e-10: 33 for F, 17 for P)
    import casimir_impedance.observables as obs

    lowers = []

    def recording(f, lower, rel_tol):
        lowers.append(np.asarray(lower))
        return integrate_semiinf(f, lower, rel_tol)

    monkeypatch.setattr(obs, "integrate_semiinf", recording)
    handed_off = []
    for a, temperature, tol, short in (
            (5e-6, 300.0, DEFAULT, True), (1e-6, 300.0, DEFAULT, True),
            (1e-6, 3.0, DEFAULT, False),
            (1e-6, 10.0, ToleranceConfig(1e-10), False)):
        for f in (free_energy, pressure_plates):
            lowers.clear()
            res = f(GOLD_IR, Geometry(a), ThermalState(temperature), tol)
            rows = sum(len(lo) for lo in lowers)
            used = res.diagnostics["terms_used"]
            assert len(lowers) <= 2 and max(map(len, lowers)) <= 33
            assert lowers[0][0] == 0.0 and np.all(lowers[0][1:] > 0.0)
            assert np.array_equal(np.concatenate(lowers),
                                  np.arange(rows) * lowers[0][1])
            if short:
                assert used < 33 and len(lowers) == 1, (a, f)
                assert used <= rows <= used + 7, (a, f)
            else:
                assert used == rows, (a, f)
                assert [len(lo) for lo in lowers] == {
                    17: [17], 33: [17, 16]}[used], (a, f)
                handed_off.append(used)
    assert sorted(handed_off) == [17, 17, 17, 33]


def test_short_ladders_take_one_call_on_the_thermal_grid(monkeypatch):
    # the benchmark's thermal grid (12 separations 0.15-5 um; 3, 10, 70 and
    # 300 K): every infrared-optics free energy and pressure whose ladder
    # stops within 33 terms makes exactly one integrate_semiinf call, whose
    # rows past the stop are at most 7
    import casimir_impedance.observables as obs

    rows = []

    def recording(f, lower, rel_tol):
        rows.append(len(lower))
        return integrate_semiinf(f, lower, rel_tol)

    monkeypatch.setattr(obs, "integrate_semiinf", recording)
    short = 0
    for a in np.geomspace(0.15e-6, 5e-6, 12):
        for temperature in (3.0, 10.0, 70.0, 300.0):
            for f in (free_energy, pressure_plates):
                rows.clear()
                used = f(GOLD_IR, Geometry(a), ThermalState(temperature)
                         ).diagnostics["terms_used"]
                if used <= 33:
                    short += 1
                    assert len(rows) == 1, (a, temperature, f, rows)
                    assert used <= rows[0] <= used + 7, (a, temperature, f)
    assert short == 81  # of the 96 records


def test_in_place_kernels_are_the_out_of_place_forms_bit_for_bit():
    # x_factors_grid and the free-energy and pressure integrands write into
    # their own arrays; against the same formulas with a new array for every
    # operation (tests/oracles.py) every value is equal, for all six models:
    # on a Matsubara block with the zeta = 0 row and y past 709, on a wedge
    # chunk, and (X alone) on the entropy's complex (zeta, y)
    from oracles import (
        free_energy_integrand_out_of_place, pressure_integrand_out_of_place,
        x_factors_out_of_place,
    )

    geometry, wp = Geometry(0.5e-6), GOLD.plasma_frequency
    u = quadrature._gk_rule(quadrature._U_T_EDGES, 2, 0)[0]
    lo = np.arange(10)[:, None, None] * 80.0  # rows up to 720 + 40
    block = (lo, lo + 40.0 * u)
    level0 = []  # the wedge's own level-0 chunk on [0, 40]
    quadrature.integrate_wedge(lambda zeta, y: level0.append((zeta, y)) or (
        zeta + y), 40.0, 1e-2)
    wedge = tuple(a[:3] for a in level0[0])
    assert block[1].max() > 709.0 and block[0][0, 0, 0] == 0.0
    for model in (IdealMetal(), NormalSkin(1e17), GOLD_AS, GOLD_IR,
                  Plasma(wp), Drude(wp, 5.3e13)):
        for zeta, y in (block, wedge):
            for ours, theirs in (
                    (observables._free_energy_integrand(
                        model, geometry, zeta, y),
                     free_energy_integrand_out_of_place(
                         model, geometry, zeta, y)),
                    (observables._pressure_integrand(model, geometry, zeta, y),
                     pressure_integrand_out_of_place(
                         model, geometry, zeta, y)),
                    *zip(observables.x_factors_grid(model, geometry, zeta, y),
                         x_factors_out_of_place(model, geometry, zeta, y))):
                assert np.isfinite(ours).all(), model
                assert np.array_equal(ours, theirs), model  # shapes too
        step = 1e-20 * block[0] * 1j
        for ours, theirs in zip(
                observables.x_factors_grid(model, geometry, block[0] + step,
                                           block[1] + step),
                x_factors_out_of_place(model, geometry, block[0] + step,
                                       block[1] + step)):
            assert np.iscomplexobj(ours) and np.array_equal(ours, theirs)


def test_free_energy_integrand_is_as_accurate_as_the_expm1_form():
    # y sum_p log1p((X_p - 1) e^-y) against 50-digit mpmath of y sum_p ln(1
    # - (1 - X_p) e^-y), both from the same float X, for six models at zeta
    # in {0, 0.01, 0.3, 2, 10} and 400 y from zeta + 1e-8 to zeta + 60: the
    # worst relative error per model is at most twice that of the form 2
    # ln(1 - e^-y) + sum_p ln(1 + X_p/(e^y - 1)) (`oracles.
    # free_energy_integrand_expm1_form`).  Both are worst at y = 1e-8, at
    # 2.5e-10 to 3.6e-10, where the rounding of e^-y dominates.  Points with
    # X > 0.9 are left out: there r^2 = 1 - X itself carries eps/r^2 of
    # rounding
    from mpmath import exp, log, mp, mpf

    from oracles import free_energy_integrand_expm1_form

    geometry, wp = Geometry(1e-6), GOLD.plasma_frequency
    worst = {}
    for model in (IdealMetal(), NormalSkin(3.2e17), GOLD_AS, GOLD_IR,
                  Plasma(wp), Drude(wp, 5.3e13)):
        errors = [[], []]
        for zeta in (0.0, 0.01, 0.3, 2.0, 10.0):
            y = zeta + np.geomspace(1e-8, 60.0, 400)
            z = np.full_like(y, zeta)
            xs = np.array(observables.x_factors_grid(model, geometry, z, y))
            forms = (observables._free_energy_integrand(model, geometry, z, y),
                     free_energy_integrand_expm1_form(model, geometry, z, y))
            with mp.workdps(50):
                for i in np.flatnonzero(xs.max(axis=0) <= 0.9).tolist():
                    yi = mpf(float(y[i]))
                    ref = yi * sum(log(1 - (1 - mpf(float(x))) * exp(-yi))
                                   for x in xs[:, i])
                    for form, out in zip(forms, errors):
                        out.append(float(abs(mpf(float(form[i])) / ref - 1)))
        worst[type(model).__name__] = max(errors[0]), max(errors[1])
        assert len(errors[0]) > 1000, model
        assert max(errors[0]) <= 2.0 * max(errors[1]), model
    assert max(w[0] for w in worst.values()) < 1e-9, worst


def test_entropy_integrand_is_the_free_energy_integrand_at_zeta_0(
        monkeypatch):
    # on the zeta = 0 row the entropy's derivative terms are exact zeros and
    # its g is formed in the free-energy integrand's operation order, so on
    # the same X the two integrands are equal value for value, y past 709
    # included.  The kernel's complex path can round X_perp differently
    # (numpy divides complex numbers through a reciprocal), so the entropy
    # here reads the real path's X; on the models and separations of
    # test_entropy_reads_plus_zero_where_its_ladder_cancels, whose exact
    # cancellation rests on this equality, the complex path's X is the same
    wp = GOLD.plasma_frequency
    y = 760.0 * quadrature._gk_rule(quadrature._U_T_EDGES, 2, 0)[0]
    zeta = np.zeros((1, 1, 1))
    real_x = observables.x_factors_grid
    for model in (IdealMetal(), NormalSkin(1e17), GOLD_AS, GOLD_IR,
                  Plasma(wp), Drude(wp, 5.3e13)):
        for a in (1e-12, 0.5e-6, 1.0):
            geometry = Geometry(a)
            g = observables._free_energy_integrand(model, geometry, zeta, y)
            assert np.isfinite(g).all() and (g <= 0.0).all(), (model, a)
            if type(model) in (IdealMetal, InfraredOptics) and a != 0.5e-6:
                assert np.array_equal(observables._entropy_integrand(
                    model, geometry, zeta, y), g), (model, a)
            with monkeypatch.context() as patch:
                patch.setattr(observables, "x_factors_grid", lambda m, geo, z,
                              yc: tuple(x + 0j for x in real_x(m, geo, z.real,
                                                               yc.real)))
                h = observables._entropy_integrand(model, geometry, zeta, y)
            assert np.array_equal(h, g), (model, a)


def test_matsubara_terms_evaluate_kernels_in_chunks(monkeypatch):
    # at tol 1e-10 the Matsubara rows' calls and the Euler-Maclaurin
    # band's both hold more than 1,024 points, so a smaller _CHUNK (the one
    # chunk of both rules) makes the split by whole panels visible; every
    # point passes through one call
    import casimir_impedance.observables as obs

    chunk = 1 << 10
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    sizes = []

    def recording(kernel):
        def wrapper(model, geometry, zeta, y):
            sizes.append(np.broadcast(zeta, y).size)
            return kernel(model, geometry, zeta, y)
        return wrapper

    for name in ("x_factors_grid", "lifshitz_x_grid"):
        monkeypatch.setattr(obs, name, recording(getattr(obs, name)))
    tight = ToleranceConfig(1e-10)
    for model in (GOLD_IR, Drude(GOLD.plasma_frequency, 5.3e13)):
        for f in (free_energy, pressure_plates):
            sizes.clear()
            res = f(model, Geometry(1e-6), ThermalState(70.0), tight)
            assert sum(sizes) == res.diagnostics["evaluations"]
            assert sum(sizes) > 3 * chunk
            assert max(sizes) <= chunk


def test_long_ladders_match_direct_ladder_oracle():
    # at 0.15 um the floor asks for 4050 (3 K) and 1216 (10 K) terms; the
    # ladder stops at l = 64 and adds the Euler-Maclaurin remainder, while
    # the oracle sums every term up to l zeta_1 = 40
    from oracles import free_energy_direct_ladder

    geometry = Geometry(0.15e-6)
    for model in (GOLD_IR, GOLD_AS, Drude(GOLD.plasma_frequency, 5.3e13)):
        for temperature in (3.0, 10.0):
            ref = free_energy_direct_ladder(model, geometry, temperature)
            for rel_tol in (1e-6, 1e-10):
                res = free_energy(model, geometry, ThermalState(temperature),
                                  ToleranceConfig(rel_tol))
                case = (model, temperature, rel_tol)
                assert res.diagnostics["tail"] == "euler_maclaurin", case
                assert abs(res.value - ref) <= rel_tol * abs(ref), case
                assert abs(res.value - ref) <= res.numeric_error, case


def test_underflowing_matsubara_rows_do_not_fail_the_sum(monkeypatch):
    # at 15 um and 4,470 K (zeta_1 = 368) the ladder stops after 2 terms,
    # while the row l = 2 of its first block has a subnormal value near
    # -4.7e-318 and an error near 2.1e-321 that neither rel_tol nor the
    # underflowed eps floor meet: without _INTERVAL_ABS_TOL the record
    # raises
    from oracles import free_energy_direct_ladder

    geometry, temperature = Geometry(15e-6), 4470.0
    res = free_energy(GOLD_IR, geometry, ThermalState(temperature))
    ref = free_energy_direct_ladder(GOLD_IR, geometry, temperature)
    assert res.diagnostics["terms_used"] == 2
    assert abs(res.value - ref) <= res.numeric_error
    assert abs(res.value - ref) <= 1e-6 * abs(ref)
    monkeypatch.setattr(quadrature, "_INTERVAL_ABS_TOL", 0.0)
    with pytest.raises(NonConvergenceError):
        free_energy(GOLD_IR, geometry, ThermalState(temperature))


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-10])
def test_near_transparent_plasma_rows_meet_tol(rel_tol):
    # plasma at 0.1 nm and 86,471 K: zeta_1 = 0.047 is far above w_p =
    # 0.009, where the plasma is near-transparent (X -> 1) and each row's
    # integrand is a difference of near-equal logs.  Row estimates that
    # stayed at the integrand's rounding would never meet rel_tol, and the
    # record would raise; the K15-against-G7 power law stops every row by
    # level 1.  The pass rests on the value: the records at both tols agree
    # within the looser one's error
    loose, tight = (free_energy(Plasma(GOLD.plasma_frequency),
                                Geometry(1e-10),
                                ThermalState(86471.06874298336),
                                ToleranceConfig(t)) for t in (1e-9, 1e-10))
    res = loose if rel_tol == 1e-9 else tight
    assert res.numeric_error <= rel_tol * abs(res.value)
    assert abs(loose.value - tight.value) <= loose.numeric_error


def _force_hand_off_at_euler_l(monkeypatch):
    """Every ladder that reaches L/4 or L/2 runs on to L = _EULER_L: the
    ends' bound that `matsubara_sum` tests never meets tol.  The ends keep
    their value, and a ladder handed off reports that infinite bound."""
    ends = quadrature.euler_maclaurin_ends
    monkeypatch.setattr(quadrature, "euler_maclaurin_ends",
                        lambda edge_terms: (ends(edge_terms)[0], math.inf))


def test_euler_maclaurin_cap_leaves_short_ladders_alone(monkeypatch):
    # a 300 K, 1 um ladder stops near l = 20: no cap changes a bit of it;
    # a 10 K, 0.15 um ladder, handed off at l = 16 by default, agrees
    # within the default's error when it is made to run on to l = 128
    short = (GOLD_IR, Geometry(1e-6), ThermalState(300.0), MED)
    long_ = (GOLD_IR, Geometry(0.15e-6), ThermalState(10.0), MED)
    observables = (free_energy, pressure_plates)
    default = [(f(*short), f(*long_)) for f in observables]
    monkeypatch.setattr(quadrature, "_EULER_L", 10 ** 6)
    for f, (base, _) in zip(observables, default):
        res = f(*short)
        assert res.diagnostics["tail"] == base.diagnostics["tail"] \
            == "geometric"
        assert res.value == base.value
        assert res.numeric_error == base.numeric_error
        assert res.diagnostics["terms_used"] == base.diagnostics["terms_used"]
    monkeypatch.setattr(quadrature, "_EULER_L", 128)
    _force_hand_off_at_euler_l(monkeypatch)
    for f, (_, base) in zip(observables, default):
        res = f(*long_)
        assert base.diagnostics["terms_used"] == 17
        assert res.diagnostics["terms_used"] == 129
        assert abs(res.value - base.value) <= base.numeric_error


def test_early_hand_off_agrees_with_the_hand_off_at_euler_l(monkeypatch):
    # ladders whose floor ceil(10 / zeta_1) is past L = 64 (4050, 183 and
    # 87 at these (a, T)) hand off at l = 16, 32 or 64, whichever first
    # meets tol: every value of six models is within tol, and within its
    # own error, of the same record handed off at L, as is the entropy,
    # whose terms cancel to leave S (the records at L report the infinite
    # bound of `_force_hand_off_at_euler_l`)
    from casimir_impedance.physcore import sigma_gaussian_from_si

    models = (IdealMetal(), NormalSkin(sigma_gaussian_from_si(4.1e7)),
              GOLD_AS, GOLD_IR, Plasma(GOLD.plasma_frequency),
              Drude(GOLD.plasma_frequency, 5.3e13))
    cases = [(f, model, Geometry(a), ThermalState(temperature),
              ToleranceConfig(rel_tol))
             for a, temperature in ((0.15e-6, 3.0), (1e-6, 10.0),
                                    (0.3e-6, 70.0))
             for rel_tol in (1e-6, 1e-10)
             for model in models for f in (free_energy, pressure_plates)]
    cold = [(entropy, GOLD_IR, Geometry(1e-6), ThermalState(temperature),
             DEFAULT) for temperature in (1.0, 3.0, 10.0)]
    early = [f(*args) for f, *args in cases + cold]
    _force_hand_off_at_euler_l(monkeypatch)
    at_l = [f(*args) for f, *args in cases + cold]
    used = {res.diagnostics["terms_used"] for res in early[:len(cases)]}
    assert used == {17, 33, 65}
    assert {res.diagnostics["terms_used"] for res in at_l[:len(cases)]} \
        == {65}
    for (f, model, _, state, tol), res, ref in zip(cases, early, at_l):
        case = (f.__name__, model, state.temperature, tol.quadrature_rel_tol)
        dev = abs(res.value - ref.value)
        assert dev <= tol.quadrature_rel_tol * abs(ref.value), case
        assert dev <= res.numeric_error, case
    for res, ref in zip(early[len(cases):], at_l[len(cases):]):
        assert abs(res.value - ref.value) <= res.numeric_error


def test_error_splits_into_quadrature_and_tail_parts(monkeypatch):
    # both remainders: the parts add up to the reported error, and the
    # evaluations count every X point, the remainder's wedge included
    import casimir_impedance.observables as obs

    sizes = []

    def recording(kernel):
        def wrapper(model, geometry, zeta, y):
            sizes.append(np.broadcast(zeta, y).size)
            return kernel(model, geometry, zeta, y)
        return wrapper

    for name in ("x_factors_grid", "lifshitz_x_grid"):
        monkeypatch.setattr(obs, name, recording(getattr(obs, name)))
    geometry = Geometry(1e-6)
    for temperature, tail in ((300.0, "geometric"),
                              (10.0, "euler_maclaurin")):
        for f in (free_energy, pressure_plates):
            sizes.clear()
            res = f(GOLD_IR, geometry, ThermalState(temperature), MED)
            d = res.diagnostics
            assert d["tail"] == tail
            assert d["quad_err"] > 0.0 and d["tail_err"] > 0.0
            assert d["quad_err"] + d["tail_err"] == pytest.approx(
                res.numeric_error, rel=1e-14, abs=0.0)
            assert sum(sizes) == d["evaluations"]
    fe = free_energy(GOLD_IR, geometry, ThermalState(10.0), MED)
    tc = thermal_correction(GOLD_IR, geometry, ThermalState(10.0), MED)
    for key in ("terms_used", "quad_err", "tail_err", "tail", "evaluations"):
        assert tc.diagnostics[key] == fe.diagnostics[key], key


def test_benchmark_tracer_runs_records():
    # perfbench/smoke.py is not collected; this runs one T = 0 and one
    # T > 0 record under the tracer that `perfbench/run.py --trace 1` uses
    import casimir_impedance.cli as cli
    import casimir_impedance.observables as obs

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    plasma = Plasma(GOLD.plasma_frequency)
    with tracer.installed(obs, cli):
        for record, (model, state) in enumerate((
                (GOLD_IR, ThermalState(0.0)), (GOLD_IR, ThermalState(300.0)),
                (plasma, ThermalState(300.0)))):
            tracer.record_id = record
            before = tracer.count["x_points"]
            res = obs.pressure_plates(model, Geometry(1e-6), state)
            assert res.value < 0.0
            assert tracer.count["x_points"] > before
    metrics, _ = tracer.layer_metrics(3, set(), 0, 0, 0.0)
    assert set(metrics) == set(spans.LAYER_UNITS)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["quadrature.matsubara_sum.calls"] == 2 / 3
    assert obs.pressure_plates.__name__ == "pressure_plates"  # restored
