"""Acceptance suite: the quantitative exit criteria of the package.

Each test prints one PASS/FAIL line per criterion (run with ``pytest -s``
to see them) and asserts the stated tolerance.  Reference values are the
quoted gold computations, closed forms, or independent oracles; the
tolerances are fixed here, not tuned.

Criterion 5, ir@300K: the reference for the relative thermal correction
of the plasma-frequency impedance at a = 0.15 um, T = 300 K is computed in
the test from the closed low-temperature expansion
    F - E = -(hbar c zeta(3) / 16 pi a^3)
            [ (1 + 2 delta/a) t^3 - (pi^3 / 45 zeta(3)) (1 + 4 delta/a) t^4 ],
with t = T/T_eff = 0.0393 and delta = c/omega_p, divided by the T = 0
energy that the computation reports (criterion 3 checks that energy).  It
gives 2.1351e-4 and is asserted to 1%; the omitted O(t^5) term is about
t^2 = 1.5e-3 relative.  It replaces a quoted 1.82e-4 (asserted to 10%)
that no route reproduces: the package sum (2.1350e-4), an independent
scipy-QUADPACK sum (2.13506e-4, perfbench/references.json) and the
Lifshitz plasma model (2.129e-4) all sit 15-17% above it.  The quoted
1.82e-4 is also inconsistent with the quoted 70 K value 2.76e-6, which
every route reproduces: their ratio 65.9 against (300/70)^3 = 78.7 would
need a t^4 coefficient about seven times the one in the expansion.
Neither normalising by the ideal-metal energy (1.33e-4), the pressure
correction, nor a Matsubara sum cut near 42 terms (1.91e-4, which breaks
the 70 K row) yields it.  The other three rows keep their quoted values
and bands.
"""

import math
import warnings

import numpy as np
import pytest

from casimir_impedance.physcore import (
    C_LIGHT, GOLD, HBAR, K_B, Geometry, ThermalState, ToleranceConfig,
    derive_anomalous_constant, matsubara_frequency, transition_frequency,
)
from casimir_impedance.impedance import (
    AnomalousSkin, IdealMetal, InfraredOptics, NormalSkin,
)
from casimir_impedance.reflection import Drude, Plasma
from casimir_impedance.quadrature import integrate_semiinf
from casimir_impedance.observables import (
    ZETA3, energy_T0, energy_ideal, entropy, free_energy, free_energy_ideal,
    lowT_asymptotics, pressure_plates, spectral_contribution,
    thermal_correction, _free_energy_integrand,
)
from oracles import (
    ReflectionPair, SpectralPoint, dispersion_functions, impedance_imag_axis,
    refl_impedance, x_factors,
)

GOLD_CA = derive_anomalous_constant(GOLD)
GOLD_IR = InfraredOptics(GOLD.plasma_frequency)
GOLD_AS = AnomalousSkin(GOLD_CA)

TIGHT = ToleranceConfig(1e-10)
MED = ToleranceConfig(1e-8)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def correction_factor(model, a_m, tol=MED):
    return energy_T0(model, Geometry(a_m), tol).diagnostics[
        "correction_factor"]


@pytest.fixture(scope="module")
def thermal_corrections():
    """Relative thermal corrections at a = 0.15 um for both impedance
    models and both reference temperatures."""
    geometry = Geometry(0.15e-6)
    out = {}
    for model, tag in ((GOLD_IR, "ir"), (GOLD_AS, "as")):
        for temp in (300.0, 70.0):
            res = thermal_correction(model, geometry, ThermalState(temp),
                                     TIGHT)
            out[(tag, temp)] = res
    return out


def lowT_free_energy_shift(plasma_frequency, a_m, temp):
    """F(a,T) - E(a) of the plasma-frequency impedance from the closed
    low-temperature expansion to order t^4, t = T/T_eff, evaluated from
    the physical constants alone."""
    t = temp * 2.0 * a_m * K_B / (HBAR * C_LIGHT)
    delta = C_LIGHT / plasma_frequency
    bracket = ((1.0 + 2.0 * delta / a_m) * t ** 3
               - math.pi ** 3 / (45.0 * ZETA3) * (1.0 + 4.0 * delta / a_m)
               * t ** 4)
    return -HBAR * C_LIGHT * ZETA3 / (16.0 * math.pi * a_m ** 3) * bracket


def test_criterion_1_ideal_metal_closed_form():
    geometry = Geometry(1e-6)
    closed = energy_ideal(geometry).value
    exact = -math.pi ** 2 * HBAR * C_LIGHT / (720.0 * (1e-6) ** 3)
    numeric = energy_T0(IdealMetal(), geometry, TIGHT).value
    rel = abs(numeric / closed - 1.0)
    ok = closed == exact and rel < 1e-6
    report(1, ok, f"closed {closed:.6e} J/m^2, numeric deviates {rel:.2e}")
    assert ok


def test_criterion_2_zero_T_correction_factors():
    expect = ((0.2e-6, 0.689), (0.5e-6, 0.849), (3.0e-6, 0.972))
    got = [(a, correction_factor(GOLD_IR, a)) for a, _ in expect]
    ok = all(abs(g / e - 1.0) < 1e-2
             for (_, g), (_, e) in zip(got, expect))
    report(2, ok, ", ".join(f"{a*1e6:g}um: {g:.4f} (ref {e})"
                            for (a, g), (_, e) in zip(got, expect)))
    assert ok


def test_criterion_3_model_contrast_at_150nm():
    ir = correction_factor(GOLD_IR, 0.15e-6)
    an = correction_factor(GOLD_AS, 0.15e-6)
    mismatch = an / ir - 1.0
    ok = (abs(ir / 0.623 - 1.0) < 1e-2 and abs(an / 0.851 - 1.0) < 1e-2
          and abs(mismatch - 0.366) < 0.02)
    report(3, ok, f"IR {ir:.4f} (ref 0.623), AS {an:.4f} (ref 0.851), "
                  f"mismatch {mismatch*100:.1f}% (ref ~37%)")
    assert ok


def test_criterion_4_transition_constants():
    omega_tr = transition_frequency(GOLD)
    a_tr = C_LIGHT / (2.0 * omega_tr)
    c_a = derive_anomalous_constant(GOLD)
    ok = (abs(omega_tr / 6.36e13 - 1.0) < 1e-2
          and abs(a_tr / 2.36e-6 - 1.0) < 1e-2
          and abs(c_a / 8.8e-4 - 1.0) < 2e-2)
    report(4, ok, f"Omega {omega_tr:.4e} (ref 6.36e13), "
                  f"a_tr {a_tr*1e6:.4f} um (ref 2.36), "
                  f"C_a {c_a:.4e} (ref 8.8e-4)")
    assert ok


def test_criterion_5_thermal_corrections(thermal_corrections):
    ir300 = thermal_corrections[("ir", 300.0)]
    ir300_ref = (lowT_free_energy_shift(GOLD.plasma_frequency, 0.15e-6, 300.0)
                 / ir300.diagnostics["energy_T0"])
    cases = (
        ("ir", 300.0, ir300_ref, 0.01),
        ("as", 300.0, 1.55e-2, 0.05),
        ("ir", 70.0, 2.76e-6, 0.25),
        ("as", 70.0, 4.85e-3, 0.05),
    )
    lines = []
    ok = True
    for tag, temp, ref, tol in cases:
        got = thermal_corrections[(tag, temp)].value
        dev = got / ref - 1.0
        good = abs(dev) <= tol
        ok = ok and good
        lines.append(f"{tag}@{temp:g}K: {got:.3e} vs {ref:.3e} "
                     f"({dev*100:+.2f}%, allowed ±{tol*100:.0f}%)"
                     + ("" if good else " <-- out of band"))
    report(5, ok, "; ".join(lines))
    assert ok, ("thermal corrections outside their bands: "
                + "; ".join(lines)
                + " [the ir@300K reference is the closed low-temperature "
                "expansion over the computed T = 0 energy; see the module "
                "docstring]")


def test_criterion_6_transition_region_agreement():
    geometry = Geometry(2.5e-6)
    lines = []
    ok = True
    for temp, ref_ratio, ratio_tol, ref_disc in (
            (300.0, 1.05, 0.05, 0.012), (70.0, 2.19, 0.15, 0.007)):
        state = ThermalState(temp)
        corr_ir = thermal_correction(GOLD_IR, geometry, state, TIGHT).value
        corr_as = thermal_correction(GOLD_AS, geometry, state, TIGHT).value
        ratio = corr_as / corr_ir
        # free-energy discrepancy attributable to the thermal corrections,
        # with both models' corrections applied to a common T = 0 baseline
        disc = abs(corr_as - corr_ir) / (1.0 + corr_ir)
        good = (abs(ratio - ref_ratio) <= ratio_tol
                and abs(disc - ref_disc) <= 0.003)
        ok = ok and good
        lines.append(f"{temp:g}K: ratio {ratio:.3f} (ref {ref_ratio}), "
                     f"discrepancy {disc*100:.2f}% (ref {ref_disc*100:.1f}%)")
    report(6, ok, "; ".join(lines))
    assert ok


def test_criterion_7_spectral_window():
    fraction = spectral_contribution(GOLD_AS, Geometry(5e-6), (0.1, 10.0),
                                     MED)
    ok = abs(fraction - 0.94) <= 0.02
    report(7, ok, f"window (0.1, 10) carries {fraction:.4f} (ref 0.94±0.02)")
    assert ok


def test_criterion_8_matsubara_truncation():
    geometry = Geometry(0.15e-6)
    state = ThermalState(300.0)
    # a) the self-truncating sum stops after about 41 terms once the
    #    tolerance matches the ~1e-5 relative weight of the omitted tail
    res = free_energy(GOLD_IR, geometry, state,
                      ToleranceConfig(1e-5))
    terms = res.diagnostics["terms_used"]
    # b) hard truncation at the first 41 frequencies changes the result by
    #    less than 0.1% against a 200-term sum
    zeta1 = 2.0 * geometry.separation * matsubara_frequency(1, state) / C_LIGHT
    values = []
    for l in range(201):
        integral = integrate_semiinf(
            _free_energy_integrand(GOLD_IR, geometry, l * zeta1),
            l * zeta1, 1e-10)
        values.append((0.5 if l == 0 else 1.0) * integral.value)
    s41 = math.fsum(values[:41])
    s200 = math.fsum(values)
    change = abs(s41 / s200 - 1.0)
    ok = 36 <= terms <= 46 and change < 1e-3
    report(8, ok, f"terms_used {terms} (band 36..46), "
                  f"41-term truncation changes F by {change:.2e} (< 1e-3)")
    assert ok


def test_criterion_9_zero_frequency_table():
    k_perp = 2.0e7
    wp = GOLD.plasma_frequency
    normal = ReflectionPair(*NormalSkin.zero_freq_r_sq(k_perp, wp))
    anomalous = ReflectionPair(*AnomalousSkin.zero_freq_r_sq(k_perp, wp))
    infrared = ReflectionPair(*InfraredOptics.zero_freq_r_sq(k_perp, wp))
    plasma = ReflectionPair(*Plasma.zero_freq_r_sq(k_perp, wp))
    drude = ReflectionPair(*Drude.zero_freq_r_sq(k_perp, wp))
    ck = C_LIGHT * k_perp
    ir_expected = ((wp - ck) / (wp + ck)) ** 2
    ok = (normal.r_par_sq == 1.0 and normal.r_perp_sq == 1.0
          and anomalous.r_par_sq == 1.0 and anomalous.r_perp_sq == 1.0
          and infrared.r_par_sq == 1.0
          and abs(infrared.r_perp_sq - ir_expected) <= 1e-12 * ir_expected
          and drude.r_par_sq == 1.0 and drude.r_perp_sq == 0.0
          and plasma.r_par_sq == 1.0 and plasma.r_perp_sq > 0.0)
    report(9, ok, f"normal/anomalous (1,1); infrared r_perp^2 "
                  f"{infrared.r_perp_sq:.6f}; drude (1,0); "
                  f"plasma r_perp^2 {plasma.r_perp_sq:.6f} > 0")
    assert ok


def _random_dimensionless_points(n, seed):
    rng = np.random.default_rng(seed)
    zetas = 10 ** rng.uniform(-2.5, 1.3, n)
    ys = zetas * (1.0 + 10 ** rng.uniform(-2.5, 1.5, n))
    return zetas, ys


def test_criterion_10_identities_bulk():
    geometry = Geometry(1e-6)
    models = (NormalSkin(1e17), AnomalousSkin(GOLD_CA), GOLD_IR)
    zetas, ys = _random_dimensionless_points(10000, seed=2718)
    worst_x = 0.0
    worst_disp = 0.0
    for i, (zeta, y) in enumerate(zip(zetas, ys)):
        model = models[i % len(models)]
        a = geometry.separation
        xi = zeta * C_LIGHT / (2.0 * a)
        q = y / (2.0 * a)
        k_perp = math.sqrt(max(q * q - (xi / C_LIGHT) ** 2, 0.0))
        point = SpectralPoint(xi, k_perp)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z = impedance_imag_axis(model, xi)
        pair = refl_impedance(z, point)
        xpar, xperp = x_factors(model, geometry, zeta, y)
        worst_x = max(worst_x,
                      abs(pair.r_par_sq - (1.0 - xpar)),
                      abs(pair.r_perp_sq - (1.0 - xperp)))
        ev = dispersion_functions(z, point, geometry)
        damp = math.exp(-2.0 * a * q)
        worst_disp = max(
            worst_disp,
            abs(ev.renormalized_par - (1.0 - pair.r_par_sq * damp)),
            abs(ev.renormalized_perp - (1.0 - pair.r_perp_sq * damp)))
    ok = worst_x < 1e-12 and worst_disp < 1e-12
    report("10a", ok, f"r^2 = 1 - X worst |dev| {worst_x:.2e}; "
                      f"dispersion identity worst |dev| {worst_disp:.2e} "
                      f"over 10^4 random inputs")
    assert ok


def test_criterion_10_entropy_grid_nonnegative():
    a_tr = C_LIGHT / (2.0 * transition_frequency(GOLD))
    tol = ToleranceConfig(1e-8)
    grid_a = np.geomspace(0.2e-6, 5e-6, 10)
    grid_t = (10.0, 50.0, 110.0, 200.0, 300.0)
    failures = []
    for a in grid_a:
        model = GOLD_IR if a < a_tr else GOLD_AS
        for temp in grid_t:
            res = entropy(model, Geometry(a), ThermalState(temp), tol)
            if res.value < -res.numeric_error:
                failures.append((a, temp, res.value, res.numeric_error))
    ok = not failures
    report("10b", ok, f"entropy >= -err at {grid_a.size * len(grid_t)} "
                      f"grid points; failures: {failures or 'none'}")
    assert ok


def test_criterion_10_low_T_entropy_trend():
    geometry = Geometry(1e-6)
    lines = []
    ok = True
    for temp in (20.0, 30.0, 45.0):
        numeric = entropy(GOLD_IR, geometry, ThermalState(temp), TIGHT)
        _, analytic = lowT_asymptotics(GOLD, geometry, ThermalState(temp),
                                       TIGHT)
        if analytic.value <= 10.0 * numeric.numeric_error:
            continue  # signal does not dominate the differencing noise
        dev = numeric.value / analytic.value - 1.0
        good = abs(dev) < 5e-2
        ok = ok and good
        lines.append(f"{temp:g}K: {dev*100:+.2f}%")
    # quadratic trend: S(2T)/S(T) approaches 4 at low T
    s20 = entropy(GOLD_IR, geometry, ThermalState(20.0), TIGHT).value
    s40 = entropy(GOLD_IR, geometry, ThermalState(40.0), TIGHT).value
    trend = s40 / s20
    good = abs(trend / 4.0 - 1.0) < 0.1
    ok = ok and good and bool(lines)
    report("10c", ok, f"entropy vs low-T expansion: {', '.join(lines)}; "
                      f"S(40K)/S(20K) = {trend:.3f} (quadratic -> 4)")
    assert ok


def test_criterion_10_pressure_energy_consistency():
    geometry = Geometry(1e-6)
    state = ThermalState(300.0)
    p = pressure_plates(GOLD_IR, geometry, state, TIGHT)
    h = 1e-4 * geometry.separation
    f_hi = free_energy(GOLD_IR, Geometry(geometry.separation + h), state,
                       TIGHT)
    f_lo = free_energy(GOLD_IR, Geometry(geometry.separation - h), state,
                       TIGHT)
    fd = -(f_hi.value - f_lo.value) / (2.0 * h)
    rel = abs(p.value / fd - 1.0)
    ok = rel < 1e-4
    report("10d", ok, f"pressure vs -dF/da deviates {rel:.2e} (< 1e-4)")
    assert ok


def test_criterion_10_ideal_series_matches_sum():
    geometry = Geometry(1e-6)
    lines = []
    ok = True
    for a, temp in ((0.5e-6, 300.0), (1e-6, 300.0), (3e-6, 70.0),
                    (1e-6, 70.0), (0.5e-6, 70.0), (3e-6, 300.0)):
        closed = free_energy_ideal(Geometry(a), ThermalState(temp))
        numeric = free_energy(IdealMetal(), Geometry(a), ThermalState(temp),
                              TIGHT)
        rel = abs(numeric.value / closed.value - 1.0)
        ok = ok and rel < 1e-6
        lines.append(f"({a*1e6:g}um,{temp:g}K): {rel:.1e}")
    report("10e", ok, "ideal series vs numeric sum: " + ", ".join(lines))
    assert ok


def test_criterion_10_infrared_vs_plasma_agreement():
    plasma = Plasma(GOLD.plasma_frequency)
    lines = []
    ok = True
    for a in (0.2e-6, 0.5e-6, 1.0e-6, 2.0e-6, 3.0e-6):
        ir = correction_factor(GOLD_IR, a)
        pl = correction_factor(plasma, a)
        rel = abs(ir / pl - 1.0)
        ok = ok and rel < 1e-2
        lines.append(f"{a*1e6:g}um: {rel:.1e}")
    report("10f", ok, "impedance-IR vs Lifshitz-plasma correction factors: "
           + ", ".join(lines))
    assert ok


def test_curve_shape_monotonicity():
    # correction factor increases with separation
    factors = [correction_factor(GOLD_IR, a)
               for a in (0.2e-6, 0.5e-6, 1e-6, 2e-6, 3e-6)]
    increasing_a = all(b > a for a, b in zip(factors, factors[1:]))
    # thermal correction increases with T at fixed a, and with a at fixed T
    # inside the validity range of the plasma-frequency impedance
    geometry = Geometry(1e-6)
    with_t = [thermal_correction(GOLD_IR, geometry, ThermalState(t),
                                 MED).value
              for t in (70.0, 150.0, 300.0)]
    with_a = [thermal_correction(GOLD_IR, Geometry(a), ThermalState(300.0),
                                 MED).value
              for a in (0.5e-6, 1e-6, 2e-6)]
    increasing_t = all(b > a for a, b in zip(with_t, with_t[1:]))
    increasing_sep = all(b > a for a, b in zip(with_a, with_a[1:]))
    ok = increasing_a and increasing_t and increasing_sep
    report("note", ok, f"correction factor rises with a: {increasing_a}; "
                       f"thermal correction rises with T: {increasing_t}, "
                       f"with a: {increasing_sep}")
    assert ok
