"""Tests for reflection coefficients, transparency factors and dispersion
functions, including the analytic zero-frequency limits."""

import ast
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from casimir_impedance.physcore import C_LIGHT, GOLD, Geometry, \
    derive_anomalous_constant
from casimir_impedance.reflection import (
    AnomalousSkin, Drude, IdealMetal, InfraredOptics, NormalSkin, Plasma,
    x_factors_grid, zero_freq_r_sq,
)
from oracles import (
    ReflectionPair, SpectralPoint, dispersion_functions, eps_imag_axis,
    impedance_imag_axis, refl_impedance, refl_lifshitz, x_factors,
    x_factors_mp, zero_freq_closed_form,
)

GOLD_CA = derive_anomalous_constant(GOLD)


def _point_from_dimensionless(geometry, zeta, y):
    a = geometry.separation
    xi = zeta * C_LIGHT / (2.0 * a)
    q = y / (2.0 * a)
    k_perp = math.sqrt(max(q * q - (xi / C_LIGHT) ** 2, 0.0))
    return SpectralPoint(xi, k_perp)


def test_spectral_point_derived_quantities():
    pt = SpectralPoint(xi=3e14, k_perp=2e6)
    assert pt.q == pytest.approx(math.hypot(2e6, 3e14 / C_LIGHT), rel=1e-15)
    zeta, y = pt.dimensionless(Geometry(1e-6))
    assert zeta == pytest.approx(2e-6 * 3e14 / C_LIGHT, rel=1e-15)
    assert y >= zeta
    with pytest.raises(ValueError):
        SpectralPoint(-1.0, 1.0)


def test_ideal_metal_reflects_everything():
    pair = refl_impedance(0.0, SpectralPoint(1e14, 1e6))
    assert pair == ReflectionPair(1.0, 1.0)


def test_perpendicular_zero_at_impedance_match():
    # Z c q = xi makes the perpendicular coefficient vanish
    xi = 1e15
    z = 0.5
    q = xi / (C_LIGHT * z)
    k_perp = math.sqrt(q * q - (xi / C_LIGHT) ** 2)
    pair = refl_impedance(z, SpectralPoint(xi, k_perp))
    assert pair.r_perp_sq < 1e-25
    assert 0.0 < pair.r_par_sq < 1.0


def test_gold_infrared_reference_point():
    # xi = 1e15 rad/s, k_perp = xi/c: q = sqrt(2) xi / c
    xi = 1e15
    model = InfraredOptics(GOLD.plasma_frequency)
    z = impedance_imag_axis(model, xi)
    pair = refl_impedance(z, SpectralPoint(xi, xi / C_LIGHT))
    expected = ((math.sqrt(2.0) - z.z) / (math.sqrt(2.0) + z.z)) ** 2
    assert pair.r_par_sq == pytest.approx(expected, rel=1e-12)
    assert pair.r_par_sq == pytest.approx(0.8138, rel=1e-3)


def test_refl_impedance_rejects_zero_frequency():
    with pytest.raises(ValueError):
        refl_impedance(0.1, SpectralPoint(0.0, 1e6))


def test_vacuum_limit_no_reflection():
    # omega_p -> 0 turns the plasma into vacuum
    pair = refl_lifshitz(Plasma(1e-20), SpectralPoint(1e14, 1e6))
    assert pair.r_par_sq < 1e-12
    assert pair.r_perp_sq < 1e-12


def test_plasma_zero_frequency_limit():
    k_perp = 2e7
    pair = refl_lifshitz(Plasma(GOLD.plasma_frequency),
                         SpectralPoint(0.0, k_perp))
    k0 = math.hypot(k_perp, GOLD.plasma_frequency / C_LIGHT)
    expected = ((k_perp - k0) / (k_perp + k0)) ** 2
    assert pair.r_par_sq == pytest.approx(1.0, abs=1e-15)
    assert pair.r_perp_sq == pytest.approx(expected, rel=1e-12)
    table = ReflectionPair(*zero_freq_r_sq(Plasma(GOLD.plasma_frequency),
                                           k_perp))
    assert pair.r_perp_sq == pytest.approx(table.r_perp_sq, rel=1e-13)


def test_drude_perpendicular_drops_at_zero_frequency():
    k_perp = 1e7
    model = Drude(GOLD.plasma_frequency, gamma=3e13)
    previous = 1.0
    for xi in (1e12, 1e10, 1e8, 1e6):
        pair = refl_lifshitz(model, SpectralPoint(xi, k_perp))
        assert pair.r_perp_sq < previous
        previous = pair.r_perp_sq
        assert pair.r_par_sq > 0.999
    assert previous < 1e-10
    # while the plasma limit at the same k_perp stays finite
    plasma = refl_lifshitz(Plasma(GOLD.plasma_frequency),
                           SpectralPoint(0.0, k_perp))
    assert plasma.r_perp_sq > 0.1
    with pytest.raises(ValueError):
        refl_lifshitz(model, SpectralPoint(0.0, k_perp))
    with pytest.raises(ValueError):
        eps_imag_axis(model, 0.0)


def test_impedance_continuity_toward_zero_frequency():
    # impedance coefficients approach the zero-frequency limits continuously
    k_perp = 1e6
    model = NormalSkin(1e17)
    for tau, tol in ((1e-8, 0.05), (1e-10, 0.005), (1e-12, 5e-4)):
        xi = tau * C_LIGHT * k_perp
        z = impedance_imag_axis(model, xi)
        pair = refl_impedance(z, SpectralPoint(xi, k_perp))
        assert pair.r_par_sq == pytest.approx(1.0, abs=tol)
        assert pair.r_perp_sq == pytest.approx(1.0, abs=tol)


def test_x_factor_zero_frequency_limits():
    geometry = Geometry(1e-6)
    assert x_factors(NormalSkin(1e17), geometry, 0.0, 2.0) == (0.0, 0.0)
    assert x_factors(AnomalousSkin(GOLD_CA), geometry, 0.0, 2.0) == (0.0, 0.0)
    assert x_factors(IdealMetal(), geometry, 0.7, 2.0) == (0.0, 0.0)
    # infrared optics keeps a perpendicular contribution
    model = InfraredOptics(GOLD.plasma_frequency)
    y = 2.0
    _, xperp = x_factors(model, geometry, 0.0, y)
    ck = y * C_LIGHT / (2.0 * geometry.separation)
    expected = ((GOLD.plasma_frequency - ck)
                / (GOLD.plasma_frequency + ck)) ** 2
    assert 1.0 - xperp == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        x_factors(model, geometry, 0.5, 0.0)


def test_r_squared_equals_one_minus_x_bulk_random():
    # dual-route identity on 1e4 random admissible inputs
    rng = np.random.default_rng(42)
    geometry = Geometry(1e-6)
    models = (NormalSkin(1e17), AnomalousSkin(GOLD_CA),
              InfraredOptics(GOLD.plasma_frequency), IdealMetal())
    n_per = 2500
    for model in models:
        zetas = 10 ** rng.uniform(-3, 1.3, n_per)
        ys = zetas * (1.0 + 10 ** rng.uniform(-3, 1.5, n_per))
        for zeta, y in zip(zetas, ys):
            xpar, xperp = x_factors(model, geometry, zeta, y)
            point = _point_from_dimensionless(geometry, zeta, y)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                z = impedance_imag_axis(model, point.xi)
            pair = refl_impedance(z, point)
            assert pair.r_par_sq == pytest.approx(1.0 - xpar, rel=1e-12,
                                                  abs=1e-12)
            assert pair.r_perp_sq == pytest.approx(1.0 - xperp, rel=1e-12,
                                                   abs=1e-12)
            assert 0.0 <= pair.r_par_sq <= 1.0
            assert 0.0 <= pair.r_perp_sq <= 1.0


def test_lifshitz_x_grid_matches_scalar_coefficients():
    geometry = Geometry(0.5e-6)
    y = np.array([0.3, 1.0, 4.0, 11.0])
    for model in (Plasma(GOLD.plasma_frequency),
                  Drude(GOLD.plasma_frequency, 5e13)):
        for zeta in (0.05, 0.8, 3.0):
            xpar, xperp = x_factors_grid(model, geometry, zeta, y)
            for i, yi in enumerate(y):
                if yi < zeta:
                    continue
                point = _point_from_dimensionless(geometry, zeta, yi)
                pair = refl_lifshitz(model, point)
                assert 1.0 - xpar[i] == pytest.approx(pair.r_par_sq,
                                                      rel=1e-11, abs=1e-13)
                assert 1.0 - xperp[i] == pytest.approx(pair.r_perp_sq,
                                                       rel=1e-11, abs=1e-13)


def test_impedance_fresnel_inputs_are_zeta_z_and_zeta_over_z():
    # each impedance model writes (zeta Z, zeta/Z) in the scaled variables
    # itself; against Z(i xi) in closed form at xi = c zeta / 2a, and at
    # zeta = 0 against the limit: 0, or w_p = 2 a omega_p / c for zeta/Z of
    # infrared optics
    zetas = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 10)))
    wp = GOLD.plasma_frequency
    for model in (IdealMetal(), NormalSkin(1e17), AnomalousSkin(GOLD_CA),
                  InfraredOptics(wp)):
        for a in (1e-9, 1e-6, 1e-3):
            got = model.fresnel_inputs(Geometry(a), zetas, None)
            for j, zeta in enumerate(zetas):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # Z > 0.3 at a = 1 nm
                    z = impedance_imag_axis(
                        model, zeta * C_LIGHT / (2.0 * a)).z
                if z > 0.0:
                    want = (zeta * z, zeta / z)
                else:
                    limit = 2.0 * a * wp / C_LIGHT \
                        if isinstance(model, InfraredOptics) else 0.0
                    want = (0.0, limit)
                for u, ref in zip(got, want):
                    assert abs(u[j] - ref) <= 1e-15 * ref, (model, a, zeta)


def test_x_factors_grid_is_the_fresnel_form_bit_for_bit():
    # 4 y u / (y + u)^2 on each model's Fresnel inputs, written out term by
    # term: the shared 4 y of the kernel changes no bit of either factor,
    # on a wedge-shaped (zeta, compact y) grid and on Matsubara rows
    geometry = Geometry(0.5e-6)
    wp = GOLD.plasma_frequency
    grids = ((np.linspace(0.0, 30.0, 7)[:, None, None],
              np.geomspace(1e-4, 40.0, 45).reshape(3, 15)),
             (np.geomspace(1e-3, 40.0, 12)[:, None],
              np.geomspace(1e-3, 40.0, 30).reshape(3, 1, 10)))
    for model in (IdealMetal(), NormalSkin(1e17), AnomalousSkin(GOLD_CA),
                  InfraredOptics(wp), Plasma(wp), Drude(wp, 5e13)):
        for zeta, y in grids:
            got = x_factors_grid(model, geometry, zeta, y)
            for x, u in zip(got, model.fresnel_inputs(geometry, zeta, y)):
                assert np.array_equal(x, 4.0 * y * u / (y + u) ** 2), model


def test_x_factors_grid_against_50_digit_definitions():
    # X = 1 - r^2 of all six models against the impedance and Fresnel
    # definitions at 50 digits, from r^2 ~ 0 to r^2 exponentially close to
    # 1 (X down to 4e-20, where 1 - r^2 in doubles would keep no digit);
    # zeta = 0 is the zero-frequency tests' row.  The kernel's worst
    # is 9.5e-16 (anomalous skin)
    wp = GOLD.plasma_frequency
    for model in (IdealMetal(), NormalSkin(1e17), AnomalousSkin(GOLD_CA),
                  InfraredOptics(wp), Plasma(wp), Drude(wp, 5e13)):
        for a in (1e-9, 1e-6, 1e-3):
            for zeta in np.geomspace(1e-6, 1e3, 10):
                y = np.geomspace(max(zeta, 1e-3), 1e3, 10)
                got = x_factors_grid(model, Geometry(a), zeta, y)
                for j, yj in enumerate(y):
                    for x, ref in zip(got, x_factors_mp(model, a, zeta, yj)):
                        assert abs(x[j] - ref) <= 1e-14 * abs(ref), (
                            model, a, zeta, yj, x[j], ref)


def test_x_factors_grid_rejects_y_not_positive():
    for y in ([1.0, 0.0], [-1e-3], np.zeros((2, 3)), [np.nan],
              [1.0, np.nan]):
        with pytest.raises(ValueError, match="y must be positive"):
            x_factors_grid(Plasma(GOLD.plasma_frequency), Geometry(1e-6),
                           0.0, y)


def test_x_factors_grid_complex_step_is_the_ray_derivative():
    # entropy's complex step: at zeta (1 + i d), y + i d zeta the real part
    # is X and Im / (d zeta) is (d/dzeta + d/dy) X, against a central
    # difference along the ray, scaled to the values, for all six models
    geometry, d = Geometry(1e-6), 1e-20
    for model in (IdealMetal(), NormalSkin(1e17), AnomalousSkin(GOLD_CA),
                  InfraredOptics(GOLD.plasma_frequency),
                  Plasma(GOLD.plasma_frequency),
                  Drude(GOLD.plasma_frequency, 5.3e13)):
        for zeta in (0.3, 1.0, 5.0):
            y = zeta + np.array([1e-3, 0.3, 1.0, 3.0, 10.0, 30.0])
            h = 1e-5 * zeta
            step = x_factors_grid(model, geometry, zeta * (1.0 + d * 1j),
                                  y + d * zeta * 1j)
            real = x_factors_grid(model, geometry, zeta, y)
            ahead, behind = (x_factors_grid(model, geometry, zeta + s, y + s)
                             for s in (h, -h))
            for x, r, up, down in zip(step, real, ahead, behind):
                scale = max(np.max(np.abs(r)), 1e-300)
                assert np.allclose(x.real, r, rtol=1e-14, atol=0.0)
                assert np.max(np.abs(x.imag / (d * zeta)
                                     - (up - down) / (2.0 * h))) \
                    <= 1e-8 * scale / zeta, (model, zeta)


def test_plasma_frequency_range_keeps_the_sqrt_inputs_finite():
    # the plasma-frequency models form sqrt(y^2 + w_p^2), w_p = 2 a omega_p
    # / c, without np.hypot's rescaling: omega_p in [1e-100, 1e100] rad/s
    # keeps w_p^2 normal and finite at every separation in [1e-12, 1] m,
    # so both factors stay finite from zeta = 0 to the top of the ladder
    zeta = np.array([[0.0], [1e-6], [1e14]])
    y = np.array([1e-3, 1.0, 40.0, 1e14])
    for wp, a in ((1e100, 1.0), (1e-100, 1e-12)):
        for model in (InfraredOptics(wp), Plasma(wp), Drude(wp, 5e13)):
            for x in x_factors_grid(model, Geometry(a), zeta, y):
                assert np.all(np.isfinite(x)) and np.all(x >= 0.0), model
    for wp in (1e-101, 1e101, math.inf, math.nan):
        for make in (InfraredOptics, Plasma, lambda w: Drude(w, 5e13)):
            with pytest.raises(ValueError, match="omega_p"):
                make(wp)


def test_zero_frequency_is_an_ordinary_argument():
    # every model's Fresnel inputs are finite at zeta = 0: a zeta row of 0
    # in an array is the scalar zeta = 0 call, and 1 - X(0, y) is the
    # model's closed-form zero-frequency limit at k_perp = y / 2a
    geometry = Geometry(0.5e-6)
    y = np.array([1e-3, 0.3, 1.0, 4.0, 11.0, 40.0])
    wp = GOLD.plasma_frequency
    for model in (IdealMetal(), NormalSkin(1e17), AnomalousSkin(GOLD_CA),
                  InfraredOptics(wp), Plasma(wp), Drude(wp, 5e13)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = x_factors_grid(model, geometry, np.array([[0.0], [0.5]]),
                                  y)
            alone = x_factors_grid(model, geometry, 0.0, y)
        table = np.array([dataclasses.astuple(zero_freq_closed_form(model, k))
                          for k in y / (2.0 * geometry.separation)])
        for p in range(2):
            row0 = np.broadcast_to(rows[p], (2, len(y)))[0]
            assert np.all(np.isfinite(row0)), model
            assert np.array_equal(row0, alone[p]), model
            assert np.max(np.abs(1.0 - alone[p] - table[:, p])) <= 1e-15, \
                model


def test_zero_frequency_limit_matches_closed_forms():
    # the zero-freq table and the kernel's 1 - X(0, y) against the limits
    # written out per model, over 1e3-1e12 rad/m (across the
    # impedance-match point c k = omega_p)
    geometry = Geometry(0.5e-6)
    k = np.geomspace(1e3, 1e12, 2001)
    wp = GOLD.plasma_frequency
    for model in (IdealMetal(), NormalSkin(1e17), AnomalousSkin(GOLD_CA),
                  InfraredOptics(wp), Plasma(wp), Drude(wp, 5.3e13)):
        ref = np.array([dataclasses.astuple(zero_freq_closed_form(model, kk))
                        for kk in k]).T
        table = np.array(zero_freq_r_sq(model, k))
        assert np.all(np.abs(table - ref) <= 1e-13 * ref + 1e-17), model
        x = x_factors_grid(model, geometry, 0.0, 2.0 * geometry.separation * k)
        assert np.max(np.abs(1.0 - np.array(x) - ref)) <= 1e-15, model


def test_zero_frequency_limit_independent_of_dissipation():
    # the limit is fixed by the form of the impedance or dielectric
    # function: sigma, C_a and gamma do not enter it
    k = np.geomspace(1e3, 1e12, 201)
    wp = GOLD.plasma_frequency
    for models in ((NormalSkin(1.0), NormalSkin(1e17)),
                   (AnomalousSkin(1.0), AnomalousSkin(GOLD_CA)),
                   (Drude(wp, 1.0), Drude(wp, 5.3e13))):
        tables = [zero_freq_r_sq(model, k) for model in models]
        assert np.array_equal(tables[0], tables[1]), models


def test_no_model_type_tests_in_src():
    # every model meets the code through fresnel_inputs and its own
    # methods: no isinstance test in src/ may name a reflection model, and
    # the zero-frequency limit has one home, reflection.zero_freq_r_sq
    models = {"Model", "IdealMetal", "NormalSkin", "AnomalousSkin",
              "InfraredOptics", "Plasma", "Drude"}
    src = Path(__file__).resolve().parents[1] / "src"
    found, limits = [], []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "isinstance"):
                named = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node.args[1])}
                if named & models:
                    found.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "zero_freq_r_sq"):
                limits.append((path.name, node in tree.body))
    assert found == []
    assert limits == [("reflection.py", True)]


def test_every_fresnel_inputs_is_a_model_in_reflection():
    # the six models have one home and one base class: every class of src/
    # that defines fresnel_inputs is defined in reflection.py, and every
    # class of reflection.py derives from reflection.Model
    from casimir_impedance import reflection

    src = Path(__file__).resolve().parents[1] / "src"
    owners, classes = [], []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if path.name == "reflection.py":
                classes.append(node.name)
            if any(isinstance(item, ast.FunctionDef)
                   and item.name == "fresnel_inputs" for item in node.body):
                owners.append((path.name, node.name))
    assert sorted(owners) == [
        ("reflection.py", name) for name in
        ("AnomalousSkin", "Drude", "IdealMetal", "InfraredOptics",
         "NormalSkin", "Plasma")]
    assert len(classes) == 7
    for name in classes:
        assert issubclass(getattr(reflection, name), reflection.Model), name


def test_cli_builds_a_model_for_every_name():
    # every CLI model name builds a reflection.Model; check_separation is
    # silent for five of them and warns for infrared optics below lambda_p
    # (0.137 um for gold), and for none at 1 um
    from casimir_impedance import Model, cli

    models = {name: cli._build_model(name, GOLD, 3.2e17, 5.3e13)
              for name in cli.MODEL_NAMES}
    warned = {}
    for a in (0.1e-6, 1e-6):
        for name, model in models.items():
            assert isinstance(model, Model), name
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model.check_separation(Geometry(a))
            warned[name, a] = [str(w.message) for w in caught]
    assert {key for key, messages in warned.items() if messages} \
        == {("infrared-optics", 0.1e-6)}
    assert "plasma wavelength" in warned["infrared-optics", 0.1e-6][0]


def test_zero_frequency_table():
    k_perp = 3e7
    wp = GOLD.plasma_frequency
    for model in (NormalSkin(1e17), AnomalousSkin(GOLD_CA)):
        pair = ReflectionPair(*zero_freq_r_sq(model, k_perp))
        assert pair == ReflectionPair(1.0, 1.0)
    pair = ReflectionPair(*zero_freq_r_sq(InfraredOptics(wp), k_perp))
    ck = C_LIGHT * k_perp
    assert pair.r_par_sq == 1.0
    assert pair.r_perp_sq == pytest.approx(((wp - ck) / (wp + ck)) ** 2,
                                           rel=1e-14)
    drude = Drude(wp, 5.3e13)
    assert ReflectionPair(*zero_freq_r_sq(drude, k_perp)) \
        == ReflectionPair(1.0, 0.0)
    assert zero_freq_r_sq(Plasma(wp), k_perp)[1] > 0.0
    with pytest.raises(ValueError):
        zero_freq_r_sq(drude, 0.0)


def test_zero_frequency_table_rejects_k_perp_outside_its_range():
    # y^2 must neither underflow nor overflow: Drude would give r_perp^2 =
    # 1 instead of 0 at 1e-170, and nan at 1e300
    drude = Drude(GOLD.plasma_frequency, 5.3e13)
    for k_perp in (1e-170, 1e300, math.inf, math.nan,
                   np.array([1e5, 1e101])):
        with pytest.raises(ValueError,
                           match=r"outside \[1e-100, 1e100\] rad/m"):
            zero_freq_r_sq(drude, k_perp)
    assert zero_freq_r_sq(drude, np.array([1e-100, 1e100]))[1].tolist() \
        == [0.0, 0.0]


def test_zero_frequency_infrared_ideal_limit():
    # omega_p -> infinity reproduces the ideal metal
    big = ReflectionPair(*zero_freq_r_sq(InfraredOptics(1e30), 1e7))
    assert big.r_perp_sq > 1.0 - 1e-12


def test_dispersion_ideal_metal():
    geometry = Geometry(1e-6)
    point = SpectralPoint(2e14, 3e6)
    ev = dispersion_functions(0.0, point, geometry)
    expected = 1.0 - math.exp(-2.0 * geometry.separation * point.q)
    assert ev.renormalized_par == pytest.approx(expected, rel=1e-14)
    assert ev.renormalized_perp == pytest.approx(expected, rel=1e-14)


def test_dispersion_identity_bulk_random():
    rng = np.random.default_rng(11)
    geometry = Geometry(1e-6)
    models = (NormalSkin(1e17), AnomalousSkin(GOLD_CA),
              InfraredOptics(GOLD.plasma_frequency))
    for _ in range(10000):
        model = models[rng.integers(len(models))]
        zeta = 10 ** rng.uniform(-2, 1.2)
        y = zeta * (1.0 + 10 ** rng.uniform(-2, 1.5))
        point = _point_from_dimensionless(geometry, zeta, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z = impedance_imag_axis(model, point.xi)
        ev = dispersion_functions(z, point, geometry)
        pair = refl_impedance(z, point)
        damp = math.exp(-2.0 * geometry.separation * point.q)
        assert ev.renormalized_par == pytest.approx(
            1.0 - pair.r_par_sq * damp, rel=1e-12)
        assert ev.renormalized_perp == pytest.approx(
            1.0 - pair.r_perp_sq * damp, rel=1e-12)


def test_dispersion_normalization_at_large_separation():
    geometry = Geometry(1e-3)
    point = SpectralPoint(1e14, 1e6)
    ev = dispersion_functions(0.05, point, geometry)
    assert ev.renormalized_par == pytest.approx(1.0, abs=1e-14)
    assert ev.renormalized_perp == pytest.approx(1.0, abs=1e-14)


def test_dispersion_rejects_degenerate_eta():
    # k_perp = 0 gives eta = Z; Z = 1 is the degenerate factorization
    geometry = Geometry(1e-6)
    point = SpectralPoint(1e14, 0.0)
    with pytest.raises(ValueError, match="ulp"):
        dispersion_functions(1.0, point, geometry)
    # one ulp away is accepted
    dispersion_functions(math.nextafter(1.0, 0.0), point, geometry)


def test_reflection_bounds_random_lifshitz():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        model = (Plasma(10 ** rng.uniform(15, 17))
                 if rng.integers(2) else
                 Drude(10 ** rng.uniform(15, 17), 10 ** rng.uniform(12, 14)))
        xi = 10 ** rng.uniform(10, 16)
        k_perp = 10 ** rng.uniform(3, 8)
        pair = refl_lifshitz(model, SpectralPoint(xi, k_perp))
        assert 0.0 <= pair.r_par_sq <= 1.0
        assert 0.0 <= pair.r_perp_sq <= 1.0
