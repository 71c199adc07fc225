"""Leontovich surface impedance on the imaginary frequency axis.

All reflection properties of the metal enter through Z(i xi), the analytic
continuation of the surface impedance to imaginary frequencies, where it is
real and non-negative for every model:

    ideal metal       Z = 0
    normal skin       Z(i xi) = sqrt(xi / (4 pi sigma))
    anomalous skin    Z(i xi) = (4 / (3 sqrt(3))) * C_a * xi^(2/3) / c
    infrared optics   Z(i xi) = xi / sqrt(omega_p^2 + xi^2)

The real-frequency forms are

    Z_n(w) = (1 - i) sqrt(w / (8 pi sigma))
    Z_a(w) = (2 (1 - i sqrt(3)) / (3 sqrt(3))) * w * delta_a(w) / c
    Z_r(w) = -i w / sqrt(omega_p^2 - w^2)

with delta_a(w) = C_a w^(-1/3).  Substituting w = i xi with principal
branches makes each of them real: sqrt(i) = e^{i pi/4} cancels the phase of
(1 - i), and (i xi)^{2/3} = xi^{2/3} e^{i pi/3} cancels (1 - i sqrt(3)) =
2 e^{-i pi/3}.  The continuation is forced to be real on the axis, which
pins the branch choice; the test suite checks the closed forms against
direct complex evaluation.

Each model derives from `ImpedanceModel` and defines ``z(xi)``, Z(i xi)
vectorized over xi >= 0.  The reflection kernel sees it only through
``fresnel_inputs``, the metal-side wavenumbers (zeta Z, zeta/Z) of
`reflection`, with zeta/Z = 0 where Z = 0, so zeta = 0 is an ordinary
argument and gives the model's zero-frequency limit, the l = 0 Matsubara
term and the CLI ``zero-freq`` table alike.  Infrared optics writes zeta/Z
= hypot(w_p, zeta), w_p = 2 a omega_p / c: its r_perp^2(0) keeps a
material dependence.  ``check_separation`` warns where a model stops
applying: infrared optics at separations below its plasma wavelength.

Whichever model is chosen for a computation is used at *all* Matsubara
frequencies of that computation; the result is insensitive to the impedance
outside roughly (0.1, 10) times the characteristic frequency.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .physcore import C_LIGHT, Geometry

__all__ = [
    "ImpedanceModel", "IdealMetal", "NormalSkin", "AnomalousSkin",
    "InfraredOptics",
]

_ANOM_PREFACTOR = 4.0 / (3.0 * math.sqrt(3.0))


class ImpedanceModel:
    """Base class of the impedance models; subclasses define z(xi)."""

    def fresnel_inputs(self, geometry: Geometry, zeta, y):
        """(zeta Z, zeta/Z) at zeta >= 0, with zeta/Z = 0 where Z = 0."""
        z = self.z(np.asarray(zeta * C_LIGHT / (2.0 * geometry.separation)))
        return zeta * z, np.divide(zeta, z, out=np.zeros_like(z), where=z > 0)

    def check_separation(self, geometry: Geometry) -> None:
        """Warn when the separation is outside the model's validity range."""


@dataclass(frozen=True)
class IdealMetal(ImpedanceModel):
    """Perfect conductor: Z identically zero."""

    def z(self, xi):
        return np.zeros_like(xi, dtype=float)


@dataclass(frozen=True)
class NormalSkin(ImpedanceModel):
    """Local-conductivity (normal skin effect) metal; sigma in Gaussian
    units (s^-1)."""

    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")

    def z(self, xi):
        return np.sqrt(xi / (4.0 * math.pi * self.sigma))


@dataclass(frozen=True)
class AnomalousSkin(ImpedanceModel):
    """Nonlocal (anomalous skin effect) metal with a spherical Fermi
    surface; c_a in m (rad/s)^(1/3)."""

    c_a: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c_a < math.inf:
            raise ValueError("c_a must be positive and finite")

    def z(self, xi):
        return _ANOM_PREFACTOR * self.c_a * xi ** (2.0 / 3.0) / C_LIGHT


@dataclass(frozen=True)
class InfraredOptics(ImpedanceModel):
    """Collisionless free-electron plasma; omega_p in rad/s.  At zero
    frequency r_perp^2 keeps a material dependence."""

    omega_p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.omega_p < math.inf:
            raise ValueError("omega_p must be positive and finite")

    def z(self, xi):
        return xi / np.hypot(self.omega_p, xi)

    def fresnel_inputs(self, geometry, zeta, y):
        h = np.hypot(2.0 * geometry.separation * self.omega_p / C_LIGHT, zeta)
        return zeta * zeta / h, h  # zeta Z and zeta/Z

    def check_separation(self, geometry):
        lam_p = 2.0 * math.pi * C_LIGHT / self.omega_p
        if geometry.separation <= lam_p:
            warnings.warn(
                f"separation {geometry.separation:.3g} m is not above the "
                f"plasma wavelength {lam_p:.3g} m; results there are outside "
                "the validity range of the surface-impedance description",
                stacklevel=3)
