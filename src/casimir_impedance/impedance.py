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
vectorized over xi >= 0.  Its zero-frequency limit, where the reflection
formulas are 0/0, is written once per class in two forms: ``x_zero`` gives
the transparency factors that the l = 0 Matsubara term uses, and the static
``zero_freq_r_sq`` the squared reflection coefficients that the CLI
``zero-freq`` table prints.  The base class holds the ideal-metal limits,
which the skin-effect models share since their Z vanishes at xi = 0.
``check_separation`` warns where a model stops applying: infrared optics
at separations below its plasma wavelength.

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


def _check_k_perp(k_perp: float) -> None:
    if k_perp <= 0.0:
        raise ValueError("k_perp must be positive")


class ImpedanceModel:
    """Base class of the impedance models; subclasses define z(xi)."""

    def x_zero(self, geometry: Geometry, y: np.ndarray):
        """(X_par, X_perp) at zeta = 0 on an array of y > 0."""
        return np.zeros_like(y), np.zeros_like(y)

    @staticmethod
    def zero_freq_r_sq(k_perp: float, omega_p: float) -> tuple[float, float]:
        """(r_par^2, r_perp^2) at xi = 0 for k_perp > 0 (rad/m)."""
        _check_k_perp(k_perp)
        return 1.0, 1.0

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
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def z(self, xi):
        return np.sqrt(xi / (4.0 * math.pi * self.sigma))


@dataclass(frozen=True)
class AnomalousSkin(ImpedanceModel):
    """Nonlocal (anomalous skin effect) metal with a spherical Fermi
    surface; c_a in m (rad/s)^(1/3)."""

    c_a: float

    def __post_init__(self) -> None:
        if self.c_a <= 0.0:
            raise ValueError("c_a must be positive")

    def z(self, xi):
        return _ANOM_PREFACTOR * self.c_a * xi ** (2.0 / 3.0) / C_LIGHT


@dataclass(frozen=True)
class InfraredOptics(ImpedanceModel):
    """Collisionless free-electron plasma; omega_p in rad/s.  At zero
    frequency r_perp^2 keeps a material dependence."""

    omega_p: float

    def __post_init__(self) -> None:
        if self.omega_p <= 0.0:
            raise ValueError("omega_p must be positive")

    def z(self, xi):
        return xi / np.hypot(self.omega_p, xi)

    def x_zero(self, geometry, y):
        alpha = C_LIGHT / (2.0 * geometry.separation * self.omega_p)
        return np.zeros_like(y), 4.0 * alpha * y / (1.0 + alpha * y) ** 2

    @staticmethod
    def zero_freq_r_sq(k_perp, omega_p):
        _check_k_perp(k_perp)
        ck = C_LIGHT * k_perp
        return 1.0, ((omega_p - ck) / (omega_p + ck)) ** 2

    def check_separation(self, geometry):
        lam_p = 2.0 * math.pi * C_LIGHT / self.omega_p
        if geometry.separation <= lam_p:
            warnings.warn(
                f"separation {geometry.separation:.3g} m is not above the "
                f"plasma wavelength {lam_p:.3g} m; results there are outside "
                "the validity range of the surface-impedance description",
                stacklevel=3)
