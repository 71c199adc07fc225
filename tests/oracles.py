"""Scalar one-point helpers that the tests use as references: reflection
coefficients, dielectric and dispersion functions in physical (not scaled)
variables, computed independently of the package's vectorized kernels.
`impedance_imag_axis` and `x_factors` are scalar wrappers of `model.z` and
`x_factors_grid`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from casimir_impedance.physcore import C_LIGHT, Geometry
from casimir_impedance.impedance import ImpedanceModel
from casimir_impedance.reflection import (
    DielectricModel, Drude, Plasma, x_factors_grid,
)


@dataclass(frozen=True)
class ImpedanceValue:
    """Z(i xi): dimensionless, real, non-negative."""

    z: float


def impedance_imag_axis(model: ImpedanceModel, xi: float) -> ImpedanceValue:
    """Evaluate Z(i xi) for a single imaginary frequency xi >= 0 (rad/s).

    Warns when the result exceeds 0.3: the impedance boundary condition
    assumes |Z| << 1, which holds for real nonmagnetic metals at the
    frequencies that matter.
    """
    if xi < 0.0:
        raise ValueError("imaginary frequency must be non-negative")
    z = float(model.z(np.asarray(xi, dtype=float)))
    if z > 0.3:
        warnings.warn(f"|Z| = {z:.3g} is not small; the impedance boundary "
                      "condition assumes |Z| << 1", stacklevel=2)
    return ImpedanceValue(z)


def dimensionless_impedance(model: ImpedanceModel, geometry: Geometry,
                            zeta: float) -> ImpedanceValue:
    """Z at the scaled frequency zeta = 2 a xi / c, i.e. Z(i c zeta / (2a))."""
    if zeta < 0.0:
        raise ValueError("zeta must be non-negative")
    return impedance_imag_axis(
        model, zeta * C_LIGHT / (2.0 * geometry.separation))


@dataclass(frozen=True)
class SpectralPoint:
    """One (imaginary frequency, transverse wavenumber) point, rad/s and rad/m."""

    xi: float
    k_perp: float

    def __post_init__(self) -> None:
        if self.xi < 0.0:
            raise ValueError("xi must be non-negative")
        if self.k_perp < 0.0:
            raise ValueError("k_perp must be non-negative")

    @property
    def q(self) -> float:
        """sqrt(k_perp^2 + xi^2/c^2), rad/m."""
        return math.hypot(self.k_perp, self.xi / C_LIGHT)

    def dimensionless(self, geometry: Geometry) -> tuple[float, float]:
        """(zeta, y) = (2 a xi / c, 2 a q)."""
        a = geometry.separation
        return 2.0 * a * self.xi / C_LIGHT, 2.0 * a * self.q


@dataclass(frozen=True)
class ReflectionPair:
    r_par_sq: float
    r_perp_sq: float


@dataclass(frozen=True)
class DispersionEval:
    """Parallel/perpendicular dispersion functions at one spectral point,
    their infinite-separation normalizations, and the renormalized ratios
    (which equal 1 - r^2 exp(-2 a q))."""

    delta_par: float
    delta_perp: float
    delta_par_inf: float
    delta_perp_inf: float
    renormalized_par: float
    renormalized_perp: float


def eps_imag_axis(model: DielectricModel, xi: float) -> float:
    """Dielectric function on the imaginary axis; real and >= 1."""
    if isinstance(model, Plasma):
        if xi < 0.0:
            raise ValueError("xi must be non-negative")
        if xi == 0.0:
            return math.inf
        return 1.0 + (model.omega_p / xi) ** 2
    if isinstance(model, Drude):
        if xi <= 0.0:
            raise ValueError("Drude eps(i xi) diverges at xi = 0; "
                             "use Drude.zero_freq_r_sq for the limit")
        return 1.0 + model.omega_p ** 2 / (xi * (xi + model.gamma))
    raise TypeError(f"not a dielectric model: {model!r}")


def refl_impedance(z: ImpedanceValue | float,
                   point: SpectralPoint) -> ReflectionPair:
    """Impedance squared reflection coefficients at xi > 0.

    Zero frequency is a 0/0 limit of the perpendicular coefficient; the
    models' `zero_freq_r_sq` give it.
    """
    zv = z.z if isinstance(z, ImpedanceValue) else float(z)
    if point.xi <= 0.0:
        raise ValueError("refl_impedance requires xi > 0; "
                         "zero frequency is handled by zero_freq_r_sq")
    cq = C_LIGHT * point.q
    xi = point.xi
    r_par = (cq - zv * xi) / (cq + zv * xi)
    r_perp = (xi - zv * cq) / (xi + zv * cq)
    return ReflectionPair(r_par * r_par, r_perp * r_perp)


def refl_lifshitz(model: DielectricModel,
                  point: SpectralPoint) -> ReflectionPair:
    """Fresnel squared reflection coefficients for a dielectric model.

    The plasma model is continuous down to xi = 0 (eps xi^2 -> omega_p^2),
    so xi = 0 is allowed there; the Drude model must go through
    `Drude.zero_freq_r_sq` instead.
    """
    xi = point.xi
    q = point.q
    if q <= 0.0:
        raise ValueError("refl_lifshitz requires q > 0 "
                         "(xi and k_perp cannot both vanish)")
    if isinstance(model, Plasma):
        # eps xi^2 = xi^2 + omega_p^2 and 1/eps = xi^2/(xi^2 + omega_p^2)
        # stay finite at xi = 0.
        eps_xi2 = xi * xi + model.omega_p ** 2
        inv_eps = xi * xi / eps_xi2
    elif isinstance(model, Drude):
        if xi <= 0.0:
            raise ValueError("Drude reflection at xi = 0 is defined only as "
                             "a limit; use Drude.zero_freq_r_sq")
        denom = xi * (xi + model.gamma)
        eps_xi2 = xi * xi + model.omega_p ** 2 * xi / (xi + model.gamma)
        inv_eps = denom / (denom + model.omega_p ** 2)
    else:
        raise TypeError(f"not a dielectric model: {model!r}")
    k = math.sqrt(point.k_perp ** 2 + eps_xi2 / C_LIGHT ** 2)
    r_par = (q - k * inv_eps) / (q + k * inv_eps)
    r_perp = (q - k) / (q + k)
    return ReflectionPair(r_par * r_par, r_perp * r_perp)


def x_factors(model: ImpedanceModel, geometry: Geometry,
              zeta: float, y: float) -> tuple[float, float]:
    """Scalar (X_par, X_perp) at one (zeta, y); requires y > 0."""
    if y <= 0.0:
        raise ValueError("y must be positive")
    xpar, xperp = x_factors_grid(model, geometry, zeta, np.array([y]))
    return float(xpar[0]), float(xperp[0])


def dispersion_functions(z: ImpedanceValue | float, point: SpectralPoint,
                         geometry: Geometry) -> DispersionEval:
    """Dispersion functions of the two polarizations at imaginary frequency.

    With eta = Z xi/(c q) and kappa = Z c q/xi (both real here), the
    parallel function continued to the imaginary axis is

        Delta_par = (1/4) [ (1 + eta)^2 - exp(-2 a q) (1 - eta)^2 ]

    and analogously for the perpendicular one with kappa.  Dividing by the
    infinite-separation values (1/4)(1 + eta)^2 etc. must reproduce
    1 - r^2 exp(-2 a q); this identity is checked internally against the
    independently computed reflection coefficients.

    eta or kappa exactly 1 makes the separated-factor diagnostics
    degenerate and is rejected; perturb by one ulp if needed.
    """
    zv = z.z if isinstance(z, ImpedanceValue) else float(z)
    if point.xi <= 0.0:
        raise ValueError("dispersion functions require xi > 0")
    q = point.q
    aq = geometry.separation * q
    if aq <= 0.0:
        raise ValueError("requires q > 0")
    eta = zv * point.xi / (C_LIGHT * q)
    kappa = zv * C_LIGHT * q / point.xi
    if eta == 1.0 or kappa == 1.0:
        raise ValueError("eta or kappa exactly 1: degenerate factorization; "
                         "perturb the input by one ulp")
    damp = math.exp(-2.0 * aq)

    def one(mu: float) -> tuple[float, float, float]:
        inf = 0.25 * (1.0 + mu * mu) * (1.0 + 2.0 * mu / (1.0 + mu * mu))
        delta = 0.25 * ((1.0 + mu) ** 2 - damp * (1.0 - mu) ** 2)
        return delta, inf, delta / inf

    d_par, d_par_inf, ren_par = one(eta)
    d_perp, d_perp_inf, ren_perp = one(kappa)

    pair = refl_impedance(zv, point)
    for ren, r2 in ((ren_par, pair.r_par_sq), (ren_perp, pair.r_perp_sq)):
        direct = 1.0 - r2 * damp
        if abs(ren - direct) > 1e-12 * abs(direct):
            raise AssertionError(
                "renormalized dispersion function disagrees with "
                "1 - r^2 exp(-2aq) beyond rounding")

    return DispersionEval(d_par, d_perp, d_par_inf, d_perp_inf,
                          ren_par, ren_perp)
