"""Tests for the surface impedance on the imaginary frequency axis.

The closed forms are checked against direct complex-arithmetic evaluation
of the real-frequency expressions at omega = i xi with principal branches.
"""

import cmath
import math

import numpy as np
import pytest

from casimir_impedance.physcore import C_LIGHT, GOLD, Geometry, \
    derive_anomalous_constant
from casimir_impedance.reflection import (
    AnomalousSkin, IdealMetal, InfraredOptics, NormalSkin,
)
from oracles import ImpedanceValue, dimensionless_impedance, \
    impedance_imag_axis

GOLD_CA = derive_anomalous_constant(GOLD)


def _complex_continuation(model, xi: float) -> complex:
    """Real-frequency impedance evaluated at omega = i xi, principal branches."""
    w = 1j * xi
    if isinstance(model, NormalSkin):
        return (1.0 - 1j) * cmath.sqrt(w / (8.0 * math.pi * model.sigma))
    if isinstance(model, AnomalousSkin):
        delta_a = model.c_a * w ** (-1.0 / 3.0)
        return (2.0 * (1.0 - 1j * math.sqrt(3.0)) / (3.0 * math.sqrt(3.0))
                * w * delta_a / C_LIGHT)
    if isinstance(model, InfraredOptics):
        return -1j * w / cmath.sqrt(model.omega_p ** 2 - w ** 2)
    if isinstance(model, IdealMetal):
        return 0.0 + 0.0j
    raise TypeError


def test_infrared_trivial_points():
    model = InfraredOptics(GOLD.plasma_frequency)
    assert impedance_imag_axis(model, 0.0).z == 0.0
    with pytest.warns(UserWarning, match="not small"):
        # xi = omega_p sits far outside the |Z| << 1 regime by design
        z = impedance_imag_axis(model, GOLD.plasma_frequency).z
    assert z == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_ideal_metal_is_zero_everywhere():
    model = IdealMetal()
    for xi in (0.0, 1e10, 1e15, 1e18):
        assert impedance_imag_axis(model, xi).z == 0.0


def test_normal_skin_matches_complex_oracle():
    model = NormalSkin(1e17)
    xi = 1e12
    closed = impedance_imag_axis(model, xi).z
    assert closed == pytest.approx(math.sqrt(xi / (4.0 * math.pi * 1e17)),
                                   rel=1e-14)
    oracle = _complex_continuation(model, xi)
    assert abs(oracle.imag) <= 1e-14 * abs(oracle.real)
    assert closed == pytest.approx(oracle.real, rel=1e-12)


def test_anomalous_power_law_scaling():
    model = AnomalousSkin(GOLD_CA)
    xi0 = 3.7e12
    z0 = impedance_imag_axis(model, xi0).z
    z8 = impedance_imag_axis(model, 8.0 * xi0).z
    assert z8 == pytest.approx(4.0 * z0, rel=1e-12)


def test_random_pairs_match_complex_oracle():
    rng = np.random.default_rng(7)
    models = [NormalSkin(10 ** rng.uniform(15, 19)) for _ in range(4)]
    models += [AnomalousSkin(10 ** rng.uniform(-4, -2)) for _ in range(4)]
    models += [InfraredOptics(10 ** rng.uniform(15, 17)) for _ in range(4)]
    count = 0
    import warnings
    for model in models:
        for _ in range(9):
            xi = 10 ** rng.uniform(9, 16.5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                closed = impedance_imag_axis(model, xi).z
            oracle = _complex_continuation(model, xi)
            assert abs(oracle.imag) <= 1e-12 * abs(oracle.real)
            assert closed == pytest.approx(oracle.real, rel=1e-12)
            count += 1
    assert count >= 100


def test_monotone_nondecreasing_up_to_hundred_omega_p():
    xi = np.geomspace(1e8, 100.0 * GOLD.plasma_frequency, 400)
    for model in (IdealMetal(), NormalSkin(2e17), AnomalousSkin(GOLD_CA),
                  InfraredOptics(GOLD.plasma_frequency)):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z = np.array([impedance_imag_axis(model, x).z for x in xi])
        assert np.all(np.diff(z) >= -1e-30)


def test_infrared_bounded_and_saturating():
    model = InfraredOptics(GOLD.plasma_frequency)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zs = [impedance_imag_axis(model, x).z
              for x in np.geomspace(1e10, 1e22, 200)]
    assert all(z <= 1.0 for z in zs)
    assert zs[-1] == pytest.approx(1.0, abs=1e-10)


def test_rejects_negative_frequency():
    with pytest.raises(ValueError):
        impedance_imag_axis(IdealMetal(), -1.0)


def test_large_impedance_warns():
    with pytest.warns(UserWarning, match="not small"):
        impedance_imag_axis(InfraredOptics(1e15), 1e16)


def test_dimensionless_impedance_mapping():
    geometry = Geometry(0.15e-6)
    model = InfraredOptics(GOLD.plasma_frequency)
    z1 = dimensionless_impedance(model, geometry, 1.0).z
    xi = C_LIGHT / (2.0 * 0.15e-6)
    assert z1 == impedance_imag_axis(model, xi).z
    # at the paper's rounded characteristic frequency 1e15 rad/s
    assert impedance_imag_axis(model, 1e15).z == pytest.approx(0.0728,
                                                               rel=2e-3)
    assert dimensionless_impedance(model, geometry, 0.0).z == 0.0
    with pytest.raises(ValueError):
        dimensionless_impedance(model, geometry, -0.5)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        NormalSkin(0.0)
    with pytest.raises(ValueError):
        AnomalousSkin(-1e-4)
    with pytest.raises(ValueError):
        InfraredOptics(0.0)
    assert isinstance(impedance_imag_axis(NormalSkin(1e17), 0.0),
                      ImpedanceValue)
