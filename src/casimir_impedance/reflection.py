"""Transparency factors X = 1 - r^2 in the impedance and Fresnel pictures.

At imaginary frequency xi with transverse wavenumber k_perp (and
q = sqrt(k_perp^2 + xi^2/c^2)) the impedance boundary condition gives

    r_par^2  = ((c q - Z xi) / (c q + Z xi))^2
    r_perp^2 = ((xi - Z c q) / (xi + Z c q))^2

while the Fresnel (Lifshitz) coefficients for a dielectric function
eps(i xi) are

    r_par,L^2  = ((eps q - k) / (eps q + k))^2
    r_perp,L^2 = ((q - k) / (q + k))^2,    k^2 = k_perp^2 + eps xi^2 / c^2.

In the scaled variables zeta = 2 a xi / c, y = 2 a q and w = 2 a k both
are Fresnel forms, and so is the transparency factor of either polarization,

    X = 1 - r^2 = 4 y u / (y + u)^2,

with the metal-side wavenumber u = w/eps (TM, par) and u = w (TE, perp)
for a dielectric, and u = zeta Z (par) and u = zeta/Z (perp) for an
impedance.  X stays accurate when r^2 is exponentially close to 1.  Every
reflection model supplies its pair (u_par, u_perp) as
``fresnel_inputs(geometry, zeta, y)``, and one kernel, `x_factors_grid`,
turns them into (X_par, X_perp) for all six.  Every model's inputs are
finite at zeta >= 0, so zeta = 0 is an ordinary argument and gives the
model's limit: zero for the ideal metal and the skin-effect impedances,
r_perp^2(0) > 0 for infrared optics and the plasma dielectric, and exactly
(X_par, X_perp) = (0, 1) for the Drude dielectric, which collapses to
r_perp^2(0) = 0 discontinuously.  `zero_freq_r_sq` prints that limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .physcore import C_LIGHT, Geometry
from .impedance import ImpedanceModel

__all__ = [
    "DielectricModel", "Plasma", "Drude", "x_factors_grid", "zero_freq_r_sq",
]


class DielectricModel:
    """Base class of the dielectric models; subclasses define
    fresnel_inputs(geometry, zeta, y) -> (w/eps, w) on an array of y."""

    def check_separation(self, geometry: Geometry) -> None:
        """Fresnel coefficients hold at every separation: nothing to warn."""


Model = Union[ImpedanceModel, DielectricModel]


@dataclass(frozen=True)
class Plasma(DielectricModel):
    """Collisionless plasma dielectric: eps(i xi) = 1 + omega_p^2/xi^2.
    eps xi^2 = xi^2 + omega_p^2 and 1/eps stay finite at xi = 0."""

    omega_p: float

    def __post_init__(self) -> None:
        if not 1e-100 <= self.omega_p <= 1e100:  # (2 a omega_p / c)^2 finite
            raise ValueError("omega_p must lie in [1e-100, 1e100] rad/s")

    def fresnel_inputs(self, geometry, zeta, y):
        wp_t = 2.0 * geometry.separation * self.omega_p / C_LIGHT
        w = np.sqrt(y * y + wp_t * wp_t)  # np.hypot: 4-5x the time
        return w * (zeta * zeta / (zeta * zeta + wp_t * wp_t)), w


@dataclass(frozen=True)
class Drude(DielectricModel):
    """Dissipative Drude dielectric: eps(i xi) = 1 + omega_p^2/(xi (xi + gamma)).
    At xi = 0, w = y and w/eps = 0."""

    omega_p: float
    gamma: float

    def __post_init__(self) -> None:
        if not 1e-100 <= self.omega_p <= 1e100:  # (2 a omega_p / c)^2 finite
            raise ValueError("omega_p must lie in [1e-100, 1e100] rad/s")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")

    def fresnel_inputs(self, geometry, zeta, y):
        wp_t = 2.0 * geometry.separation * self.omega_p / C_LIGHT
        xi = zeta * C_LIGHT / (2.0 * geometry.separation)
        denom = xi * (xi + self.gamma)
        w = np.sqrt(y * y + wp_t * wp_t * xi / (xi + self.gamma))
        return w * (denom / (denom + self.omega_p ** 2)), w


def x_factors_grid(model: Model, geometry: Geometry, zeta, y):
    """Transparency factors (X_par, X_perp) = (1 - r_par^2, 1 - r_perp^2)
    of any reflection model, 4 y u / (y + u)^2 on its
    ``fresnel_inputs`` (u_par, u_perp), computed without the cancellation of
    forming 1 - r^2.  zeta >= 0 is a scalar or an array that broadcasts
    against the array y > 0; zeta = 0 needs no special case.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("y must be positive")
    u_par, u_perp = model.fresnel_inputs(geometry, zeta, y)
    y4 = 4.0 * y  # one product for both polarizations
    return y4 * u_par / (y + u_par) ** 2, y4 * u_perp / (y + u_perp) ** 2


def zero_freq_r_sq(model: Model, k_perp):
    """(r_par^2, r_perp^2) = ((y - u)/(y + u))^2 of ``fresnel_inputs`` at
    zeta = 0 for k_perp (float or array) in [1e-100, 1e100] rad/m, where y^2
    neither under- nor overflows; u/y is independent of a, and a = 1/2 m
    makes y = k_perp.  The plasma r_perp^2 loses digits as y - sqrt(y^2 +
    w_p^2) cancels: its relative error is 1.4e-16 at k_perp = 1e8 rad/m,
    9.8e-12 at 1e10, 7.7e-10 at 1e11 and 1.1e-7 at 1e12 (against 50-digit
    mpmath)."""
    y = np.asarray(k_perp, dtype=float)
    if not np.all((1e-100 <= y) & (y <= 1e100)):
        raise ValueError("k_perp is outside [1e-100, 1e100] rad/m")
    return tuple(((y - u) / (y + u)) ** 2
                 for u in model.fresnel_inputs(Geometry(0.5), 0.0, y))
