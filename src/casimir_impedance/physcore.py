"""Physical constants, material parameters and frequency-regime classification.

Unit conventions used throughout the package:

* frequencies in rad/s, lengths in meters, temperatures in kelvin
* energies per unit area in J/m^2, pressures in N/m^2, forces in N
* conductivity in Gaussian units (s^-1); ``sigma_gaussian_from_si``
  converts an SI value at the boundary

A metal is characterized by its plasma frequency omega_p and Fermi
velocity v_F.  The interaction between two plates at separation ``a`` is
dominated by frequencies around the characteristic frequency
``omega_c = c/(2a)``.  Depending on where omega_c falls relative to the
transition frequency ``Omega = v_F * omega_p / c`` (the frequency where
the anomalous skin depth equals the field penetration depth c/omega_p),
the metal response is best described by the anomalous-skin-effect or the
collisionless-plasma (infrared optics) surface impedance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

__all__ = [
    "HBAR", "C_LIGHT", "K_B", "EPSILON_0",
    "MaterialParams", "GOLD", "sigma_gaussian_from_si",
    "ThermalState", "Geometry", "ToleranceConfig",
    "Regime", "InequalityCheck", "RegimeReport",
    "characteristic_frequency", "effective_temperature",
    "matsubara_frequency", "transition_frequency",
    "derive_anomalous_constant", "classify_regime",
]

# CODATA 2018
HBAR = 1.054571817e-34      # J s
C_LIGHT = 299792458.0       # m/s (exact)
K_B = 1.380649e-23          # J/K (exact)
EPSILON_0 = 8.8541878128e-12  # F/m


def sigma_gaussian_from_si(sigma_si: float) -> float:
    """Convert an SI conductivity (S/m) to Gaussian units (s^-1).

    sigma_G = sigma_SI / (4 pi eps_0)
    """
    if sigma_si <= 0.0:
        raise ValueError("conductivity must be positive")
    return sigma_si / (4.0 * math.pi * EPSILON_0)


_MATERIAL_FILE_KEYS = {"omega_p", "v_f", "sigma", "c_a"}


@dataclass(frozen=True)
class MaterialParams:
    """Free-electron parameters of a metal.

    plasma_frequency : rad/s
    fermi_velocity   : m/s
    conductivity     : Gaussian units, s^-1 (needed for the normal-skin model)
    anomalous_constant : m (rad/s)^(1/3); skin depth of the anomalous regime
        is delta_a(omega) = C_a * omega^(-1/3).  Derivable from omega_p and
        v_F, see `derive_anomalous_constant`.
    """

    plasma_frequency: float
    fermi_velocity: float
    conductivity: float | None = None
    anomalous_constant: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.plasma_frequency < math.inf:
            raise ValueError("plasma_frequency must be positive and finite")
        if not 0.0 < self.fermi_velocity < C_LIGHT:
            raise ValueError("fermi_velocity must lie in (0, c)")
        for name in ("conductivity", "anomalous_constant"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def plasma_wavelength(self) -> float:
        """lambda_p = 2 pi c / omega_p, in meters."""
        return 2.0 * math.pi * C_LIGHT / self.plasma_frequency

    @classmethod
    def from_file(cls, path: str | Path) -> "MaterialParams":
        """Parse a plain-text ``key=value`` material file.

        Recognized keys: omega_p, v_f, sigma, c_a.  Blank lines and lines
        starting with '#' are ignored; unknown keys are rejected.
        """
        values: dict[str, float] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _MATERIAL_FILE_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r} "
                    f"(known: {', '.join(sorted(_MATERIAL_FILE_KEYS))})")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = float(text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad number for {key}") from exc
        for required in ("omega_p", "v_f"):
            if required not in values:
                raise ValueError(f"{path}: missing required key {required!r}")
        return cls(
            plasma_frequency=values["omega_p"],
            fermi_velocity=values["v_f"],
            conductivity=values.get("sigma"),
            anomalous_constant=values.get("c_a"),
        )


# Gold: omega_p and v_F as used for all reference computations.
GOLD = MaterialParams(plasma_frequency=1.37e16, fermi_velocity=1.4e6)


@dataclass(frozen=True)
class ThermalState:
    """Equilibrium temperature in kelvin; T = 0 selects the continuous
    imaginary-frequency integral instead of the Matsubara sum."""

    temperature: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError("temperature must be non-negative and finite")


@dataclass(frozen=True)
class Geometry:
    """Plate separation, plus the sphere radius for sphere-plate setups.

    The proximity-force conversion F = 2 pi R * (free energy per area) is
    accurate only for R >> a; a warning is emitted when R < 100 a.
    """

    separation: float
    sphere_radius: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.separation < math.inf:
            raise ValueError("separation must be positive and finite")
        if self.sphere_radius is not None:
            if not 0.0 < self.sphere_radius < math.inf:
                raise ValueError("sphere_radius must be positive and finite")
            if self.sphere_radius < 100.0 * self.separation:
                warnings.warn(
                    "sphere radius below 100*separation: proximity-force "
                    "conversion may be inaccurate", stacklevel=2)


@dataclass(frozen=True)
class ToleranceConfig:
    """The relative tolerance of every integral and of the Matsubara sum's
    stop rule."""

    quadrature_rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.quadrature_rel_tol <= 1e-2:
            raise ValueError("quadrature_rel_tol must lie in (0, 1e-2]")


class Regime(Enum):
    ANOMALOUS_SKIN = "anomalous-skin"
    INFRARED_OPTICS = "infrared-optics"
    TRANSITION = "transition"


@dataclass(frozen=True)
class InequalityCheck:
    """One applicability inequality, evaluated at the characteristic
    frequency.  ``margin`` is the ratio rhs/lhs of the strict form
    lhs << rhs (margin > 1 means satisfied)."""

    label: str
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class RegimeReport:
    characteristic_frequency: float
    transition_frequency: float
    transition_separation: float
    applicable_regime: Regime
    diagnostics: tuple[InequalityCheck, ...] = field(default_factory=tuple)


def characteristic_frequency(geometry: Geometry) -> float:
    """omega_c = c / (2 a), the frequency scale dominating the interaction."""
    return C_LIGHT / (2.0 * geometry.separation)


def effective_temperature(geometry: Geometry) -> float:
    """T_eff with k_B T_eff = hbar omega_c = hbar c / (2 a)."""
    return HBAR * C_LIGHT / (2.0 * geometry.separation * K_B)


def matsubara_frequency(l: int, state: ThermalState) -> float:
    """xi_l = 2 pi k_B T l / hbar for integer l >= 0.

    Requires T > 0; at T = 0 the spectrum is continuous and the
    zero-temperature integral applies instead.
    """
    if l < 0:
        raise ValueError("Matsubara index must be non-negative")
    if state.temperature <= 0.0:
        raise ValueError("Matsubara frequencies require T > 0; "
                         "use the continuous-spectrum integral at T = 0")
    return 2.0 * math.pi * K_B * state.temperature * l / HBAR


def transition_frequency(material: MaterialParams) -> float:
    """Frequency Omega where the anomalous skin depth v_F/Omega equals the
    plasma penetration depth c/omega_p; Omega = v_F omega_p / c."""
    return material.fermi_velocity * material.plasma_frequency / C_LIGHT


def derive_anomalous_constant(material: MaterialParams) -> float:
    """C_a such that delta_a(omega) = C_a omega^(-1/3) matches the plasma
    penetration depth c/omega_p at the transition frequency."""
    omega_tr = transition_frequency(material)
    return (C_LIGHT / material.plasma_frequency) * omega_tr ** (1.0 / 3.0)


def classify_regime(material: MaterialParams,
                    geometry: Geometry) -> RegimeReport:
    """Classify which impedance model applies at this separation; the
    classification does not depend on T.

    Infrared optics when lambda_p < a and omega_c > 2 Omega; anomalous skin
    effect when omega_c < Omega/2; Transition inside the factor-of-2 window.
    Normal skin is not classified: its window collapses at low temperature
    (the electron mean free path grows as T falls), and that path is not
    modeled, so neither are the inequalities that need it.  The report
    holds the three inequalities that are evaluated.

    Warns when a <= lambda_p, where the impedance boundary condition itself
    stops being applicable.
    """
    omega_c = characteristic_frequency(geometry)
    omega_tr = transition_frequency(material)
    a_tr = C_LIGHT / (2.0 * omega_tr)
    lam_p = material.plasma_wavelength
    a = geometry.separation

    if a <= lam_p:
        warnings.warn(
            f"separation {a:.3g} m is not above the plasma wavelength "
            f"{lam_p:.3g} m; the impedance approach is inapplicable there",
            stacklevel=2)

    v_over_w = material.fermi_velocity / omega_c
    delta_r = C_LIGHT / material.plasma_frequency
    c_a = material.anomalous_constant or derive_anomalous_constant(material)
    delta_a = c_a * omega_c ** (-1.0 / 3.0)

    checks = (
        InequalityCheck("impedance applicability: lambda_p < a",
                        a / lam_p, a > lam_p),
        InequalityCheck("anomalous skin: delta_a(omega_c) << v_F/omega_c",
                        v_over_w / delta_a, delta_a < v_over_w),
        InequalityCheck("infrared optics: v_F/omega_c << delta_r = c/omega_p",
                        delta_r / v_over_w, v_over_w < delta_r),
    )

    if omega_c > 2.0 * omega_tr and a > lam_p:
        regime = Regime.INFRARED_OPTICS
    elif omega_c < 0.5 * omega_tr:
        regime = Regime.ANOMALOUS_SKIN
    else:
        regime = Regime.TRANSITION

    return RegimeReport(omega_c, omega_tr, a_tr, regime, checks)
