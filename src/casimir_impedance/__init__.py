"""Thermal Casimir effect between real-metal plates.

Computes the Casimir energy, free energy, pressure, sphere-plate force and
entropy for parallel metal plates, with the metal described either by its
Leontovich surface impedance (normal skin effect, anomalous skin effect,
infrared optics) or by a frequency-dependent dielectric function (plasma or
Drude model) in the conventional Lifshitz formulation.
"""

from .physcore import (
    GOLD, C_LIGHT, HBAR, K_B,
    Geometry, InequalityCheck, MaterialParams, Regime,
    RegimeReport, ThermalState, ToleranceConfig,
    characteristic_frequency, classify_regime, derive_anomalous_constant,
    effective_temperature, matsubara_frequency, sigma_gaussian_from_si,
    transition_frequency,
)
from .impedance import (
    AnomalousSkin, IdealMetal, ImpedanceModel, InfraredOptics, NormalSkin,
)
from .reflection import DielectricModel, Drude, Plasma
from .quadrature import (
    IntegralResult, NonConvergenceError, SumResult, integrate_interval,
    integrate_semiinf, matsubara_sum,
)
from .observables import (
    Model, Quantity, ResultValue, ZETA3,
    energy_T0, energy_ideal, entropy, force_sphere_plate, free_energy,
    free_energy_ideal, lowT_asymptotics, pressure_plates,
    spectral_contribution, thermal_correction,
)

__version__ = "0.1.0"
