"""Tests for constants, materials, frequencies and regime classification."""

import math

import pytest

from casimir_impedance.physcore import (
    C_LIGHT, GOLD, HBAR, K_B,
    Geometry, MaterialParams, Regime, ThermalState, ToleranceConfig,
    characteristic_frequency, classify_regime, derive_anomalous_constant,
    effective_temperature, matsubara_frequency, sigma_gaussian_from_si,
    transition_frequency,
)


def test_constants_positive_and_frozen():
    assert HBAR > 0 and C_LIGHT > 0 and K_B > 0


def test_characteristic_frequency_reference_separations():
    assert characteristic_frequency(Geometry(0.15e-6)) == pytest.approx(
        1.0e15, rel=1e-2)
    assert characteristic_frequency(Geometry(C_LIGHT / 2.0)) == 1.0
    assert characteristic_frequency(Geometry(5e-6)) == pytest.approx(
        3.0e13, rel=1e-2)


def test_matsubara_frequency_values():
    assert matsubara_frequency(1, ThermalState(300.0)) == pytest.approx(
        2.47e14, rel=5e-3)
    assert matsubara_frequency(0, ThermalState(123.0)) == 0.0
    assert matsubara_frequency(1, ThermalState(70.0)) == pytest.approx(
        5.75e13, rel=5e-3)
    # exact formula
    assert matsubara_frequency(7, ThermalState(42.0)) == pytest.approx(
        2.0 * math.pi * K_B * 42.0 * 7 / HBAR, rel=1e-15)


def test_matsubara_frequency_rejections():
    with pytest.raises(ValueError):
        matsubara_frequency(1, ThermalState(0.0))
    with pytest.raises(ValueError):
        matsubara_frequency(-1, ThermalState(300.0))


def test_matsubara_linearity_in_l_and_T():
    for l in (1, 2, 5, 17):
        for T in (10.0, 70.0, 300.0):
            a = matsubara_frequency(2 * l, ThermalState(T))
            b = matsubara_frequency(l, ThermalState(2.0 * T))
            c = 2.0 * matsubara_frequency(l, ThermalState(T))
            assert a == b == c  # doubling is exact in binary floats


def test_transition_frequency_gold():
    omega_tr = transition_frequency(GOLD)
    assert omega_tr == pytest.approx(6.36e13, rel=1e-2)
    a_tr = C_LIGHT / (2.0 * omega_tr)
    assert a_tr == pytest.approx(2.36e-6, rel=1e-2)


def test_transition_frequency_direct_product():
    mat = MaterialParams(plasma_frequency=1e16,
                         fermi_velocity=C_LIGHT * 1e-2)
    assert transition_frequency(mat) == pytest.approx(1e14, rel=1e-14)


def test_transition_separation_identity():
    # a_tr * Omega = c/2 for every material
    for mat in (GOLD, MaterialParams(5e15, 8e5),
                 MaterialParams(3e16, 2.2e6)):
        omega_tr = transition_frequency(mat)
        a_tr = C_LIGHT / (2.0 * omega_tr)
        assert a_tr * omega_tr == pytest.approx(C_LIGHT / 2.0, rel=1e-14)


def test_anomalous_constant_gold():
    assert derive_anomalous_constant(GOLD) == pytest.approx(8.8e-4, rel=2e-2)


def test_anomalous_constant_consistency():
    # delta_a(Omega) = C_a Omega^(-1/3) = v_F/Omega = c/omega_p
    for mat in (GOLD, MaterialParams(5e15, 8e5)):
        omega_tr = transition_frequency(mat)
        c_a = derive_anomalous_constant(mat)
        delta_a = c_a * omega_tr ** (-1.0 / 3.0)
        assert delta_a == pytest.approx(mat.fermi_velocity / omega_tr,
                                        rel=1e-12)
        assert delta_a == pytest.approx(C_LIGHT / mat.plasma_frequency,
                                        rel=1e-12)


def test_anomalous_skin_depth_power_law():
    c_a = derive_anomalous_constant(GOLD)
    assert c_a * (1e13) ** (-1.0 / 3.0) == pytest.approx(
        c_a * 10 ** (-13.0 / 3.0), rel=1e-12)


def test_gold_plasma_wavelength():
    assert GOLD.plasma_wavelength == pytest.approx(137e-9, rel=1e-2)


def test_classify_regime_reference_points():
    st = ThermalState(300.0)
    assert classify_regime(GOLD, Geometry(0.5e-6), st).applicable_regime \
        is Regime.INFRARED_OPTICS
    assert classify_regime(GOLD, Geometry(10e-6), st).applicable_regime \
        is Regime.ANOMALOUS_SKIN
    assert classify_regime(GOLD, Geometry(2.36e-6), st).applicable_regime \
        is Regime.TRANSITION


def test_classify_regime_monotone_in_separation():
    st = ThermalState(300.0)
    order = {Regime.INFRARED_OPTICS: 0, Regime.TRANSITION: 1,
             Regime.ANOMALOUS_SKIN: 2}
    last = -1
    for a in [0.2e-6 * 1.25 ** k for k in range(24)]:
        regime = classify_regime(GOLD, Geometry(a), st).applicable_regime
        rank = order[regime]
        assert rank >= last
        last = rank


def test_classify_regime_warns_below_plasma_wavelength():
    with pytest.warns(UserWarning, match="plasma wavelength"):
        classify_regime(GOLD, Geometry(0.1e-6), ThermalState(300.0))


def test_classify_regime_diagnostics():
    report = classify_regime(GOLD, Geometry(0.5e-6), ThermalState(300.0))
    assert report.characteristic_frequency == pytest.approx(3e14, rel=1e-2)
    evaluable = [c for c in report.diagnostics if c.margin is not None]
    assert len(evaluable) >= 3
    assert all(c.margin > 0 for c in evaluable)
    deferred = [c for c in report.diagnostics if c.margin is None]
    assert all(c.note for c in deferred)


def test_classify_regime_normal_skin_note_with_conductivity():
    # delta_n(omega_c) = c / sqrt(2 pi sigma omega_c), in Gaussian units
    sigma = 3.2e17
    metal = MaterialParams(GOLD.plasma_frequency, GOLD.fermi_velocity,
                           conductivity=sigma)
    report = classify_regime(metal, Geometry(1e-6), ThermalState(300.0))
    delta_n = C_LIGHT / math.sqrt(2.0 * math.pi * sigma * C_LIGHT / 2e-6)
    notes = {c.label: c.note for c in report.diagnostics}
    assert notes["normal skin: l << delta_n(omega_c)"] == (
        f"delta_n(omega_c) = {delta_n:.4g} m; mean free path l(T) not modeled")


def test_effective_temperature():
    # k_B T_eff = hbar c / (2a)
    t_eff = effective_temperature(Geometry(1e-6))
    assert K_B * t_eff == pytest.approx(HBAR * C_LIGHT / 2e-6, rel=1e-14)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialParams(plasma_frequency=-1.0, fermi_velocity=1e6)
    with pytest.raises(ValueError):
        MaterialParams(plasma_frequency=1e16, fermi_velocity=C_LIGHT)
    with pytest.raises(ValueError):
        MaterialParams(1e16, 1e6, conductivity=-5.0)


def test_material_file_round_trip(tmp_path):
    path = tmp_path / "metal.txt"
    path.write_text("# test metal\nomega_p = 1.37e16\nv_f=1.4e6\n"
                    "sigma = 2.1e17\n\nc_a = 8.8e-4\n")
    mat = MaterialParams.from_file(path)
    assert mat.plasma_frequency == 1.37e16
    assert mat.fermi_velocity == 1.4e6
    assert mat.conductivity == 2.1e17
    assert mat.anomalous_constant == 8.8e-4


def test_material_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("omega_p=1e16\nv_f=1e6\nwork_function=5.1\n")
    with pytest.raises(ValueError, match="unknown key"):
        MaterialParams.from_file(path)


def test_material_file_requires_core_keys(tmp_path):
    path = tmp_path / "partial.txt"
    path.write_text("omega_p=1e16\n")
    with pytest.raises(ValueError, match="v_f"):
        MaterialParams.from_file(path)


def test_material_file_rejects_duplicates_and_garbage(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("omega_p=1e16\nomega_p=2e16\nv_f=1e6\n")
    with pytest.raises(ValueError, match="duplicate"):
        MaterialParams.from_file(path)
    path.write_text("omega_p : 1e16\n")
    with pytest.raises(ValueError, match="key=value"):
        MaterialParams.from_file(path)
    path.write_text("v_f=1e6\nomega_p=abc\n")
    with pytest.raises(ValueError, match=r"dup\.txt:2: bad number for omega_p"):
        MaterialParams.from_file(path)


def test_sigma_conversion():
    # 1 S/m -> 1/(4 pi eps0) s^-1 = 8.988e9 s^-1
    assert sigma_gaussian_from_si(1.0) == pytest.approx(8.988e9, rel=1e-3)
    with pytest.raises(ValueError):
        sigma_gaussian_from_si(0.0)


def test_geometry_and_state_validation():
    with pytest.raises(ValueError):
        Geometry(0.0)
    with pytest.raises(ValueError):
        ThermalState(-1.0)
    with pytest.warns(UserWarning, match="100"):
        Geometry(1e-6, sphere_radius=5e-6)


def test_tolerance_config_bounds():
    ToleranceConfig(1e-10)
    with pytest.raises(ValueError):
        ToleranceConfig(quadrature_rel_tol=0.5)
    with pytest.raises(ValueError):
        ToleranceConfig(quadrature_rel_tol=0.0)
