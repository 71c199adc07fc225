"""Transparency factors X = 1 - r^2 in the impedance and Fresnel pictures.

At imaginary frequency xi with transverse wavenumber k_perp (and
q = sqrt(k_perp^2 + xi^2/c^2)) the impedance boundary condition gives

    r_par^2  = ((c q - Z xi) / (c q + Z xi))^2
    r_perp^2 = ((xi - Z c q) / (xi + Z c q))^2

while the Fresnel (Lifshitz) coefficients for a dielectric function
eps(i xi) are

    r_par,L^2  = ((eps q - k) / (eps q + k))^2
    r_perp,L^2 = ((q - k) / (q + k))^2,    k^2 = k_perp^2 + eps xi^2 / c^2.

In the scaled variables zeta = 2 a xi / c, y = 2 a q the impedance
coefficients are conveniently written through the transparency factors

    X_par  = 4 zeta y Z / (y + zeta Z)^2 = 1 - r_par^2
    X_perp = 4 zeta y Z / (zeta + y Z)^2 = 1 - r_perp^2

which stay accurate when r^2 is exponentially close to 1.  `x_factors_grid`
evaluates them for the impedance models of `impedance`, which carry their
own zero-frequency limits.  `lifshitz_x_grid` evaluates the Fresnel ones
from the scaled inputs (w, 1/eps) that each `DielectricModel` supplies,
w = 2 a k.  Both stay finite at zeta = 0, where they give the model's
limit with no special case: the plasma dielectric keeps r_perp^2(0) > 0
much like infrared optics, while the Drude dielectric gives exactly
(X_par, X_perp) = (0, 1), collapsing to r_perp^2(0) = 0 discontinuously.
Every model also states its limit as (r_par^2, r_perp^2), ``zero_freq_r_sq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .physcore import C_LIGHT, Geometry
from .impedance import ImpedanceModel, _check_k_perp

__all__ = [
    "DielectricModel", "Plasma", "Drude", "x_factors_grid", "lifshitz_x_grid",
]


class DielectricModel:
    """Base class of the dielectric models; subclasses define
    fresnel_inputs(geometry, zeta, y) -> (w, 1/eps) on an array of y."""

    def check_separation(self, geometry: Geometry) -> None:
        """Fresnel coefficients hold at every separation: nothing to warn."""


@dataclass(frozen=True)
class Plasma(DielectricModel):
    """Collisionless plasma dielectric: eps(i xi) = 1 + omega_p^2/xi^2.
    eps xi^2 = xi^2 + omega_p^2 and 1/eps stay finite at xi = 0."""

    omega_p: float

    def __post_init__(self) -> None:
        if self.omega_p <= 0.0:
            raise ValueError("omega_p must be positive")

    def fresnel_inputs(self, geometry, zeta, y):
        wp_t = 2.0 * geometry.separation * self.omega_p / C_LIGHT
        return np.hypot(y, wp_t), zeta * zeta / (zeta * zeta + wp_t * wp_t)

    @staticmethod
    def zero_freq_r_sq(k_perp, omega_p):
        _check_k_perp(k_perp)
        k0 = math.hypot(k_perp, omega_p / C_LIGHT)
        return 1.0, ((k_perp - k0) / (k_perp + k0)) ** 2


@dataclass(frozen=True)
class Drude(DielectricModel):
    """Dissipative Drude dielectric: eps(i xi) = 1 + omega_p^2/(xi (xi + gamma)).
    At xi = 0, w = y and 1/eps = 0."""

    omega_p: float
    gamma: float

    def __post_init__(self) -> None:
        if self.omega_p <= 0.0:
            raise ValueError("omega_p must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")

    def fresnel_inputs(self, geometry, zeta, y):
        wp_t = 2.0 * geometry.separation * self.omega_p / C_LIGHT
        xi = zeta * C_LIGHT / (2.0 * geometry.separation)
        denom = xi * (xi + self.gamma)
        return (np.sqrt(y * y + wp_t * wp_t * xi / (xi + self.gamma)),
                denom / (denom + self.omega_p ** 2))

    @staticmethod
    def zero_freq_r_sq(k_perp, omega_p):
        _check_k_perp(k_perp)
        return 1.0, 0.0


def x_factors_grid(model: ImpedanceModel, geometry: Geometry,
                   zeta: float, y):
    """Transparency factors (X_par, X_perp) on an array of y at fixed zeta;
    zeta = 0 takes the model's analytic limit ``x_zero``."""
    y = np.asarray(y, dtype=float)
    if zeta < 0.0:
        raise ValueError("zeta must be non-negative")
    if np.any(y <= 0.0):
        raise ValueError("y must be positive")
    if zeta == 0.0:
        return model.x_zero(geometry, y)
    xi = np.asarray(zeta * C_LIGHT / (2.0 * geometry.separation))
    z = float(model.z(xi))
    common = 4.0 * zeta * y * z
    xpar = common / (y + zeta * z) ** 2
    xperp = common / (zeta + y * z) ** 2
    return xpar, xperp


def lifshitz_x_grid(model: DielectricModel, geometry: Geometry,
                    zeta: float, y):
    """Transparency factors (X_par, X_perp) = (1 - r_par^2, 1 - r_perp^2)
    for a dielectric model in scaled variables, computed without the
    cancellation of forming 1 - r^2:

        X_par  = 4 y (w/eps) / (y + w/eps)^2,   X_perp = 4 y w / (y + w)^2.

    The model's (w, 1/eps) are finite for all zeta >= 0, so zero frequency
    needs no special case.
    """
    y = np.asarray(y, dtype=float)
    w, inv_eps = model.fresnel_inputs(geometry, zeta, y)
    w_par = w * inv_eps
    xpar = 4.0 * y * w_par / (y + w_par) ** 2
    xperp = 4.0 * y * w / (y + w) ** 2
    return xpar, xperp
