"""Thermal Casimir effect between real-metal plates.

Computes the Casimir energy, free energy, pressure, sphere-plate force and
entropy for parallel metal plates.  The metal is one of the six reflection
models of `reflection`, each a `Model`: a Leontovich surface impedance
(ideal metal, normal skin, anomalous skin, infrared optics) or a
dielectric function in the Lifshitz formulation (plasma, Drude).
"""

from .physcore import (
    GOLD, C_LIGHT, HBAR, K_B,
    Geometry, InequalityCheck, MaterialParams, Regime,
    RegimeReport, ThermalState, ToleranceConfig,
    characteristic_frequency, classify_regime, derive_anomalous_constant,
    effective_temperature, matsubara_frequency, sigma_gaussian_from_si,
    transition_frequency,
)
from .reflection import (
    AnomalousSkin, Drude, IdealMetal, InfraredOptics, Model, NormalSkin,
    Plasma, zero_freq_r_sq,
)
from .quadrature import NonConvergenceError
from .observables import (
    Quantity, ResultValue, energy_T0, energy_ideal, entropy,
    force_sphere_plate, free_energy, pressure_plates, records,
    thermal_correction,
)

__version__ = "0.1.0"
