"""The six reflection models and their transparency factors X = 1 - r^2.

An impedance model describes the metal by its Leontovich surface impedance
continued to imaginary frequency, Z(i xi), real and non-negative:

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
direct complex evaluation.  At imaginary frequency xi with transverse
wavenumber k_perp (q = sqrt(k_perp^2 + xi^2/c^2)) the impedance boundary
condition gives

    r_par^2  = ((c q - Z xi) / (c q + Z xi))^2
    r_perp^2 = ((xi - Z c q) / (xi + Z c q))^2

and the Fresnel (Lifshitz) coefficients of a dielectric function eps(i xi),
the plasma and Drude models, are

    r_par,L^2  = ((eps q - k) / (eps q + k))^2
    r_perp,L^2 = ((q - k) / (q + k))^2,    k^2 = k_perp^2 + eps xi^2 / c^2.

In the scaled variables zeta = 2 a xi / c, y = 2 a q and w = 2 a k both
are Fresnel forms, and so is the transparency factor of either polarization,

    X = 1 - r^2 = 4 y u / (y + u)^2,

with the metal-side wavenumber u = w/eps (TM, par) and u = w (TE, perp)
for a dielectric, and u = zeta Z (par) and u = zeta/Z (perp) for an
impedance; X stays accurate when r^2 is exponentially close to 1.  Every
model derives from `Model` and supplies its (u_par, u_perp) as
``fresnel_inputs(geometry, zeta, y)``, each impedance model zeta Z and
zeta/Z of its own Z(i c zeta / 2a) with principal roots (so a complex
zeta, the entropy's step, is an argument too), and one kernel,
`x_factors_grid`, turns them into (X_par, X_perp).  The inputs are
finite at zeta >= 0, so zeta = 0 is an ordinary argument and gives each
model's limit, the l = 0 Matsubara term: X = 0 for the ideal metal and the
skin-effect impedances, r_perp^2(0) > 0 for the plasma dielectric and for
infrared optics (zeta/Z = sqrt(zeta^2 + w_p^2), w_p = 2 a omega_p / c),
and exactly (X_par, X_perp) = (0, 1) for the Drude dielectric, which
collapses to r_perp^2(0) = 0 discontinuously (`zero_freq_r_sq` prints
the limit).  ``check_separation`` warns below infrared optics' plasma
wavelength.  Whichever model is chosen is used at *all* Matsubara
frequencies of a computation; the result is insensitive to the impedance
outside roughly (0.1, 10) times the characteristic frequency.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .physcore import C_LIGHT, Geometry

__all__ = [
    "Model", "IdealMetal", "NormalSkin", "AnomalousSkin",
    "InfraredOptics", "Plasma", "Drude", "x_factors_grid", "zero_freq_r_sq",
]

_ANOM_PREFACTOR = 4.0 / (3.0 * math.sqrt(3.0))


def _check_omega_p(omega_p: float) -> None:
    if not 1e-100 <= omega_p <= 1e100:  # (2 a omega_p / c)^2 finite
        raise ValueError("omega_p must lie in [1e-100, 1e100] rad/s")


class Model:
    """Base class of the six models; each supplies fresnel_inputs."""

    def check_separation(self, geometry: Geometry) -> None:
        """Warn where the model stops applying; silent by default."""


@dataclass(frozen=True)
class IdealMetal(Model):
    """Perfect conductor: Z identically zero."""

    def fresnel_inputs(self, geometry, zeta, y):
        return 0.0 * zeta, 0.0 * zeta


@dataclass(frozen=True)
class NormalSkin(Model):
    """Local-conductivity (normal skin effect) metal; sigma in Gaussian
    units (s^-1).  Z = sqrt(k zeta), k = c / (8 pi sigma a)."""

    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")

    def fresnel_inputs(self, geometry, zeta, y):
        k = C_LIGHT / (8.0 * math.pi * self.sigma * geometry.separation)
        z = np.sqrt(k * zeta)  # Z; zeta/Z = sqrt(zeta / k) = z / k
        return zeta * z, z / k


@dataclass(frozen=True)
class AnomalousSkin(Model):
    """Nonlocal (anomalous skin effect) metal with a spherical Fermi
    surface; c_a in m (rad/s)^(1/3).  Z = k zeta^(2/3)."""

    c_a: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c_a < math.inf:
            raise ValueError("c_a must be positive and finite")

    def fresnel_inputs(self, geometry, zeta, y):
        k = (_ANOM_PREFACTOR * self.c_a / C_LIGHT
             * (C_LIGHT / (2.0 * geometry.separation)) ** (2.0 / 3.0))
        t = zeta ** (1.0 / 3.0)  # principal root: np.cbrt rejects complex
        return k * zeta * t * t, t / k


@dataclass(frozen=True)
class InfraredOptics(Model):
    """Collisionless free-electron plasma; omega_p in rad/s.  At zero
    frequency r_perp^2 keeps a material dependence."""

    omega_p: float

    def __post_init__(self) -> None:
        _check_omega_p(self.omega_p)

    def fresnel_inputs(self, geometry, zeta, y):
        w_p = 2.0 * geometry.separation * self.omega_p / C_LIGHT
        zeta2 = zeta * zeta
        h = np.sqrt(zeta2 + w_p * w_p)  # np.hypot: 4-5x the time
        return zeta2 / h, h  # zeta Z and zeta/Z

    def check_separation(self, geometry):
        lam_p = 2.0 * math.pi * C_LIGHT / self.omega_p
        if geometry.separation <= lam_p:
            warnings.warn(
                f"separation {geometry.separation:.3g} m is not above the "
                f"plasma wavelength {lam_p:.3g} m; results there are outside "
                "the validity range of the surface-impedance description",
                stacklevel=4)


@dataclass(frozen=True)
class Plasma(Model):
    """Collisionless plasma dielectric: eps(i xi) = 1 + omega_p^2/xi^2.
    eps xi^2 = xi^2 + omega_p^2 and 1/eps stay finite at xi = 0."""

    omega_p: float

    def __post_init__(self) -> None:
        _check_omega_p(self.omega_p)

    def fresnel_inputs(self, geometry, zeta, y):
        wp_t = 2.0 * geometry.separation * self.omega_p / C_LIGHT
        w = np.sqrt(y * y + wp_t * wp_t)  # np.hypot: 4-5x the time
        return w * (zeta * zeta / (zeta * zeta + wp_t * wp_t)), w


@dataclass(frozen=True)
class Drude(Model):
    """Dissipative Drude dielectric: eps(i xi) = 1 + omega_p^2/(xi (xi + gamma)).
    At xi = 0, w = y and w/eps = 0."""

    omega_p: float
    gamma: float

    def __post_init__(self) -> None:
        _check_omega_p(self.omega_p)
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
    of any reflection model, 4 y u / (y + u)^2 on its ``fresnel_inputs``
    (u_par, u_perp) without the cancellation of 1 - r^2, new arrays that
    the caller may overwrite.  zeta >= 0 is a scalar or an array that
    broadcasts against the array y, Re y > 0; zeta = 0 needs no special case.
    """
    y = np.asarray(y)
    if not (y.real > 0.0).all():  # a NaN fails it too
        raise ValueError("y must be positive")
    y4 = 4.0 * y  # one product for both polarizations
    xs = []
    for u in model.fresnel_inputs(geometry, zeta, y):
        x, den = y4 * u, y + u  # new arrays: squared and divided in place
        den *= den
        x /= den
        xs.append(x)
    return tuple(xs)


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
