"""Tests for the physical observables.

Expected values come from closed forms, from independent finite-difference
or summation oracles, or from the quoted reference computations for gold;
each assertion states its tolerance explicitly.
"""

import math
import warnings

import numpy as np
import pytest

from casimir_impedance.physcore import (
    C_LIGHT, GOLD, HBAR, K_B, Geometry, ThermalState, ToleranceConfig,
    derive_anomalous_constant, effective_temperature,
)
from casimir_impedance.impedance import (
    AnomalousSkin, IdealMetal, InfraredOptics, NormalSkin,
)
from casimir_impedance.reflection import Drude, Plasma
from casimir_impedance.observables import (
    ZETA3, Quantity, energy_T0, energy_ideal, entropy, force_sphere_plate,
    free_energy, free_energy_ideal, lowT_asymptotics, pressure_plates,
    spectral_contribution, thermal_correction,
)

TIGHT = ToleranceConfig(1e-9, 1e-9, 1e-3)
MED = ToleranceConfig(1e-8, 1e-8, 1e-3)

GOLD_IR = InfraredOptics(GOLD.plasma_frequency)
GOLD_AS = AnomalousSkin(derive_anomalous_constant(GOLD))


def test_energy_ideal_reference_value():
    res = energy_ideal(Geometry(1e-6))
    assert res.quantity is Quantity.ENERGY_PER_AREA
    assert res.value == pytest.approx(-4.33e-10, rel=1e-3)
    assert res.value == pytest.approx(
        -math.pi ** 2 * HBAR * C_LIGHT / 720.0 * 1e18, rel=1e-15)


def test_energy_ideal_cubic_scaling():
    e1 = energy_ideal(Geometry(0.73e-6)).value
    e2 = energy_ideal(Geometry(1.46e-6)).value
    assert e1 == pytest.approx(8.0 * e2, rel=1e-15)


def test_ideal_numeric_integral_matches_closed_form():
    geometry = Geometry(1e-6)
    res = energy_T0(IdealMetal(), geometry, MED)
    assert res.value == pytest.approx(energy_ideal(geometry).value, rel=1e-6)
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
    assert numeric.value == pytest.approx(closed.value, rel=1e-6)


def test_free_energy_ideal_zero_T_limit():
    geometry = Geometry(1e-6)
    e0 = energy_ideal(geometry).value
    low = free_energy_ideal(geometry, ThermalState(1e-4))
    assert low.value == pytest.approx(e0, rel=1e-12)
    assert free_energy_ideal(geometry, ThermalState(0.0)).value == e0


def test_free_energy_ideal_classical_limit():
    # independent oracle: direct numeric Matsubara sum at T/T_eff = 20
    geometry = Geometry(1e-6)
    temp = 20.0 * effective_temperature(geometry)
    closed = free_energy_ideal(geometry, ThermalState(temp))
    classical = -K_B * temp * ZETA3 / (8.0 * math.pi * 1e-12)
    assert closed.value == pytest.approx(classical, rel=1e-2)
    numeric = free_energy(IdealMetal(), geometry, ThermalState(temp), TIGHT)
    assert numeric.value == pytest.approx(closed.value, rel=1e-9)


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
    tol = ToleranceConfig(1e-8, 1e-7, 1e-3)
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
    assert big == pytest.approx(ideal, rel=1e-3)


def test_free_energy_term_count_tracks_dominant_window():
    # at 0.15 um / 300 K the sum is forced through l = ceil(10 omega_c/xi_1)
    # = 41 and self-truncates right after once the tolerance matches the
    # ~1e-5 relative weight of the omitted tail
    res = free_energy(GOLD_IR, Geometry(0.15e-6), ThermalState(300.0),
                      ToleranceConfig(1e-8, 1e-5, 1e-3))
    assert 36 <= res.diagnostics["terms_used"] <= 46


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


def test_pressure_ideal_zero_temperature():
    geometry = Geometry(1e-6)
    res = pressure_plates(IdealMetal(), geometry, ThermalState(0.0), MED)
    closed = -math.pi ** 2 * HBAR * C_LIGHT / 240.0 * 1e24
    assert res.value == pytest.approx(closed, rel=1e-6)
    assert res.value == pytest.approx(-1.30e-3, rel=1e-3)


def test_pressure_ideal_low_temperature_limit():
    geometry = Geometry(1e-6)
    temp = effective_temperature(geometry) / 10000.0
    res = pressure_plates(IdealMetal(), geometry, ThermalState(temp), MED)
    closed = -math.pi ** 2 * HBAR * C_LIGHT / 240.0 * 1e24
    assert res.value == pytest.approx(closed, rel=1e-3)


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
    assert p.value == pytest.approx(fd, rel=1e-4)


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
        assert res.value == pytest.approx(-2.72e-13, rel=2e-3)
        doubled = force_sphere_plate(
            IdealMetal(), Geometry(1e-6, sphere_radius=200e-6),
            ThermalState(0.0), MED)
    assert doubled.value == pytest.approx(2.0 * res.value, rel=1e-12)


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
    assert numeric.value == pytest.approx(analytic.value, rel=5e-2)


def test_entropy_vanishes_toward_zero_temperature():
    geometry = Geometry(1e-6)
    tol = ToleranceConfig(1e-11, 1e-10, 1e-3)
    s_room = entropy(GOLD_IR, geometry, ThermalState(300.0), MED)
    s_cold = entropy(GOLD_IR, geometry, ThermalState(1.0), tol)
    assert abs(s_cold.value) < 1e-3 * s_room.value


def test_low_T_asymptotics_against_full_pipeline():
    geometry = Geometry(1e-6)
    state = ThermalState(30.0)
    f_est, s_est = lowT_asymptotics(GOLD, geometry, state, TIGHT)
    fe = free_energy(GOLD_IR, geometry, state, TIGHT)
    e0 = energy_T0(GOLD_IR, geometry, TIGHT)
    assert (fe.value - e0.value) == pytest.approx(
        f_est.value - e0.value, rel=0.1)
    assert s_est.value > 0.0


def test_low_T_asymptotics_ideal_limit():
    # omega_p -> infinity recovers the ideal-metal expansion coefficients
    geometry = Geometry(1e-6)
    state = ThermalState(30.0)
    huge = type(GOLD)(plasma_frequency=1e22, fermi_velocity=1.4e6)
    f_est, _ = lowT_asymptotics(huge, geometry, state, MED)
    ideal = free_energy_ideal(geometry, state)
    assert f_est.value == pytest.approx(ideal.value, rel=1e-6)


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
    # in observables; every model must reach exactly its family's kernel
    calls = _count_module_global_calls(
        monkeypatch, ("x_factors_grid", "lifshitz_x_grid"))
    loose = ToleranceConfig(1e-4, 1e-4, 1e-3)
    geometry = Geometry(1e-6)
    for model, name in ((GOLD_IR, "x_factors_grid"),
                        (Plasma(GOLD.plasma_frequency), "lifshitz_x_grid"),
                        (Drude(GOLD.plasma_frequency, 5.3e13),
                         "lifshitz_x_grid")):
        for run in (lambda: energy_T0(model, geometry, loose),
                    lambda: free_energy(model, geometry, ThermalState(300.0),
                                        loose)):
            calls.clear()
            run()
            assert set(calls) == {name} and calls[name] > 0


def test_quadrature_reached_through_module_globals(monkeypatch):
    # the benchmark's per-layer spans wrap these names in observables, and
    # its smoke check relies on a T = 0 record running no Matsubara sum
    calls = _count_module_global_calls(
        monkeypatch,
        ("integrate_interval", "integrate_semiinf", "matsubara_sum"))
    loose = ToleranceConfig(1e-4, 1e-4, 1e-3)
    geometry = Geometry(1e-6)
    cold, warm = ThermalState(0.0), ThermalState(300.0)
    zero_t = {"integrate_interval", "integrate_semiinf"}
    thermal = {"matsubara_sum", "integrate_semiinf"}
    for run, reached in (
            (lambda: energy_T0(GOLD_IR, geometry, loose), zero_t),
            (lambda: pressure_plates(GOLD_IR, geometry, cold, loose), zero_t),
            (lambda: free_energy(GOLD_IR, geometry, warm, loose), thermal),
            (lambda: pressure_plates(GOLD_IR, geometry, warm, loose),
             thermal)):
        calls.clear()
        run()
        assert set(calls) == reached
