"""Casimir observables between parallel real-metal plates.

Everything is computed in the scaled spectral variables zeta = 2 a xi / c
and y = 2 a q.  The free energy per unit area at temperature T is the
primed Matsubara sum (l = 0 carries weight 1/2)

    F = (k_B T / 8 pi a^2) * sum'_l  I(zeta_l),
    I(zeta) = int_zeta^inf y dy [ 2 ln(1 - e^-y)
                                  + ln(1 + X_par /(e^y - 1))
                                  + ln(1 + X_perp/(e^y - 1)) ],

with zeta_l = 2 a xi_l / c and the transparency factors X = 1 - r^2 of the
chosen reflection model (X = 0 reproduces the ideal metal).  At T = 0 the
sum becomes its continuum limit, zeta_1 sum'_l -> int dzeta with
zeta_1 = 4 pi a k_B T / (hbar c), so

    E = (hbar c / 32 pi^2 a^3) * int_0^inf dzeta I(zeta),

whose ideal-metal part is the closed form E0 = -pi^2 hbar c/(720 a^3).
The pressure between plates is evaluated from its own spectral
representation (not by differentiating F numerically):

    P = -(k_B T / 8 pi a^3) * sum'_l int y^2 dy sum_p r_p^2 e^-y/(1 - r_p^2 e^-y)

and the sphere-plate force through the proximity relation F = 2 pi R F_pp.
One driver, `_spectral`, evaluates both forms for either y-integrand:
the primed Matsubara sum at T > 0 and the adaptive zeta integral at T = 0.
Every observable reaches the quadrature through it.
The entropy S = -dF/dT uses a Richardson-extrapolated central difference.

The zero-frequency (l = 0) term always comes from each model's analytic
limit: impedance models state it explicitly (the finite-frequency formulas
are 0/0 there), and the scaled Fresnel inputs of the dielectric models are
finite at zeta = 0 and equal to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

import numpy as np

from .physcore import (
    C_LIGHT, HBAR, K_B, Geometry, MaterialParams, ThermalState,
    ToleranceConfig, characteristic_frequency, effective_temperature,
    matsubara_frequency,
)
from .impedance import ImpedanceModel, InfraredOptics
from .reflection import DielectricModel, lifshitz_x_grid, x_factors_grid
from .quadrature import (
    integrate_interval, integrate_semiinf, matsubara_sum, tail_cutoff,
)

__all__ = [
    "Quantity", "ResultValue", "Model", "ZETA3",
    "energy_ideal", "free_energy_ideal", "energy_T0", "free_energy",
    "thermal_correction", "pressure_plates", "force_sphere_plate",
    "entropy", "lowT_asymptotics", "spectral_contribution",
]

Model = Union[ImpedanceModel, DielectricModel]

ZETA3 = 1.2020569031595943  # Riemann zeta(3)

DEFAULT_TOL = ToleranceConfig()


class Quantity(Enum):
    ENERGY_PER_AREA = "energy_per_area"                    # J/m^2
    FREE_ENERGY_PER_AREA = "free_energy_per_area"          # J/m^2
    PRESSURE_PLATES = "pressure_plates"                    # N/m^2
    FORCE_SPHERE_PLATE = "force_sphere_plate"              # N
    ENTROPY_PER_AREA = "entropy_per_area"                  # J/(m^2 K)
    CORRECTION_FACTOR = "correction_factor"                # dimensionless
    RELATIVE_THERMAL_CORRECTION = "relative_thermal_correction"


@dataclass(frozen=True)
class ResultValue:
    """An observable with its estimated numerical error and convergence
    diagnostics (term counts, integrand evaluations, ...)."""

    quantity: Quantity
    value: float
    numeric_error: float
    diagnostics: Mapping[str, object]


def _x_grid(model: Model, geometry: Geometry, zeta: float, y: np.ndarray):
    """(X_par, X_perp) arrays for any reflection model, zeta = 0 included.
    The kernels stay module globals so perfbench/spans.py can wrap them."""
    kernel = (x_factors_grid if isinstance(model, ImpedanceModel)
              else lifshitz_x_grid)
    return kernel(model, geometry, zeta, y)


def _free_energy_integrand(model: Model, geometry: Geometry, zeta: float):
    """y * [2 ln(1-e^-y) + sum_p ln(1 + X_p/(e^y - 1))] as a vectorized
    function of y."""

    def f(y: np.ndarray) -> np.ndarray:
        xpar, xperp = _x_grid(model, geometry, zeta, y)
        em = np.exp(-y)
        with np.errstate(over="ignore"):  # y > 709: 1/inf = 0 is right
            t = 1.0 / np.expm1(y)
        return y * (2.0 * np.log1p(-em)
                    + np.log1p(xpar * t) + np.log1p(xperp * t))

    return f


def _pressure_integrand(model: Model, geometry: Geometry, zeta: float):
    """y^2 * sum_p r_p^2 e^-y / (1 - r_p^2 e^-y), written through
    X = 1 - r^2 so the denominator 1 - r^2 e^-y = (1-e^-y) + X e^-y is
    cancellation-free."""

    def f(y: np.ndarray) -> np.ndarray:
        xpar, xperp = _x_grid(model, geometry, zeta, y)
        em = np.exp(-y)
        one_minus_em = -np.expm1(-y)
        par = (1.0 - xpar) * em / (one_minus_em + xpar * em)
        perp = (1.0 - xperp) * em / (one_minus_em + xperp * em)
        return y * y * (par + perp)

    return f


def energy_ideal(geometry: Geometry) -> ResultValue:
    """Ideal-metal zero-temperature energy per area, -pi^2 hbar c/(720 a^3)."""
    a = geometry.separation
    value = -math.pi ** 2 * HBAR * C_LIGHT / (720.0 * a ** 3)
    return ResultValue(Quantity.ENERGY_PER_AREA, value, 0.0,
                       {"closed_form": True})


def free_energy_ideal(geometry: Geometry, state: ThermalState) -> ResultValue:
    """Ideal-metal free energy per area from its closed series.

    With t = T/T_eff (k_B T_eff = hbar c / 2a) and K = 45/pi^3,

        F = E0 { 1 + K sum_{l>=1} [ t^3 coth(pi l/t)/l^3
                 + pi t^2 sinh^-2(pi l/t)/l^2 ] - t^4 }
          = E0 K t { zeta(3) + 2 sum_{l>=1} [ 1/(l^3 (e^{b l} - 1))
                 + b e^{b l}/(l^2 (e^{b l} - 1)^2) ] },   b = 2 pi t,

    the second form being the Matsubara sum.  For t <= 1 the first is
    summed, with coth split as 1 + 2/(e^{2x} - 1) to pull its slowly
    decaying part into an exact zeta(3) term; its terms decay like
    exp(-2 pi l/t).  Above t = 1 it would cancel t^4 against its sum
    (losing ~t^3 ulps), so the second, decaying like exp(-2 pi l t), is
    summed.  Terms are accumulated until below 1e-17 of the total.
    """
    e0 = energy_ideal(geometry).value
    t = state.temperature / effective_temperature(geometry)
    if t == 0.0:
        return ResultValue(Quantity.FREE_ENERGY_PER_AREA, e0, 0.0,
                           {"closed_form": True, "terms_used": 0})
    k = 45.0 / math.pi ** 3
    if t <= 1.0:
        b, c3 = 2.0 * math.pi / t, 2.0 * k * t ** 3
        braces = 1.0 + k * ZETA3 * t ** 3 - t ** 4
    else:
        b, c3, braces = 2.0 * math.pi * t, 2.0 * k * t, k * ZETA3 * t
    c2 = 4.0 * math.pi * k * t * t
    l = 0
    while b * (l + 1) <= 700.0:  # exp(-b l) below 1e-304: nothing left
        l += 1
        d = math.expm1(b * l)
        term = (c3 / l + c2 * (1.0 + 1.0 / d)) / (l * l * d)
        braces += term
        if term < 1e-17 * abs(braces):
            break
    return ResultValue(Quantity.FREE_ENERGY_PER_AREA, e0 * braces,
                       abs(e0 * braces) * 1e-15,
                       {"closed_form": True, "terms_used": l})


def _spectral(model: Model, geometry: Geometry, state: ThermalState,
              tol: ToleranceConfig, integrand_factory, power: int,
              zeta_lo: float = 0.0, zeta_hi: float = math.inf,
              ) -> tuple[float, float, dict]:
    """(value, absolute error, diagnostics) of an observable's spectral
    form in physical units: (hbar c / 32 pi^2 a^power) times the adaptive
    integral over zeta in (zeta_lo, zeta_hi) of the per-zeta y-integrals
    at T = 0, and (k_B T / 8 pi a^(power-1)) times their primed Matsubara
    sum at T > 0, where the window is not used.

    At T = 0 the inner integrals run 100 times tighter than the outer one,
    whose estimate is the error.  At T > 0 the summation floor
    ceil(10 omega_c / xi_1) covers the spectral window that dominates the
    result even when early terms are small, and the error adds the per-term
    quadrature errors to a geometric bound on the truncated tail: the terms
    decay at least like exp(-zeta_1 l), so the omitted remainder is at most
    ~ last_term / (exp(zeta_1) - 1).
    """
    a = geometry.separation
    evals = 0

    def y_integral(zeta: float, rel_tol: float):
        nonlocal evals
        res = integrate_semiinf(integrand_factory(model, geometry, zeta),
                                zeta, rel_tol)
        evals += res.evaluations
        return res

    if state.temperature <= 0.0:
        rel_tol = tol.quadrature_rel_tol
        inner_tol = max(rel_tol * 1e-2, 1e-13)

        def outer(zetas: np.ndarray) -> np.ndarray:
            return np.array([y_integral(z, inner_tol).value for z in zetas])

        upper = min(zeta_hi, tail_cutoff(zeta_lo, rel_tol))
        result = integrate_interval(outer, zeta_lo, upper, rel_tol,
                                    max_panels=8192)
        prefac = HBAR * C_LIGHT / (32.0 * math.pi ** 2 * a ** power)
        return prefac * result.value, prefac * result.abs_error_estimate, {
            "evaluations": evals + result.evaluations}

    xi1 = matsubara_frequency(1, state)
    zeta1 = 2.0 * a * xi1 / C_LIGHT
    omega_c = characteristic_frequency(geometry)
    l_floor = max(1, math.ceil(10.0 * omega_c / xi1))
    quad_errs: list[float] = []

    def term(l: int) -> float:
        # the l = 0 half-weight is applied by matsubara_sum itself
        res = y_integral(l * zeta1, tol.quadrature_rel_tol)
        quad_errs.append(res.abs_error_estimate)
        return res.value

    s = matsubara_sum(term, tol.sum_rel_tol, l_floor)
    # capped so that a large a*T cannot overflow expm1; the bound only grows
    tail_est = s.last_term_magnitude / math.expm1(min(zeta1, 700.0))
    # (8 pi a) a, not 8 pi a^2: the free energy's 17-digit CSV shows the ulp
    denom = (8.0 * math.pi * a * a if power == 3
             else 8.0 * math.pi * a ** (power - 1))
    prefac = K_B * state.temperature / denom
    return prefac * s.value, prefac * (math.fsum(quad_errs) + tail_est), {
        "terms_used": s.terms_used,
        "last_term_magnitude": s.last_term_magnitude,
        "evaluations": evals,
    }


def energy_T0(model: Model, geometry: Geometry,
              tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Zero-temperature energy per area for any reflection model.

    Also reports the correction factor E/E0 relative to the ideal metal in
    the diagnostics.
    """
    model.check_separation(geometry)
    value, err, diag = _spectral(model, geometry, ThermalState(0.0), tol,
                                 _free_energy_integrand, 3)
    err += abs(value) * tol.quadrature_rel_tol * 0.1
    e0 = energy_ideal(geometry).value
    return ResultValue(Quantity.ENERGY_PER_AREA, value, err,
                       {"correction_factor": value / e0, **diag})


def free_energy(model: Model, geometry: Geometry, state: ThermalState,
                tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Free energy per unit area at T > 0 (J/m^2, negative = attraction).

    The l = 0 term uses the analytic zero-frequency limits of the model.
    At T = 0 use `energy_T0` (continuous spectrum) instead.
    """
    if state.temperature <= 0.0:
        raise ValueError("free_energy requires T > 0; use energy_T0 at T = 0")
    model.check_separation(geometry)
    return ResultValue(Quantity.FREE_ENERGY_PER_AREA, *_spectral(
        model, geometry, state, tol, _free_energy_integrand, 3))


def thermal_correction(model: Model, geometry: Geometry, state: ThermalState,
                       tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Relative thermal correction [F(a,T) - E(a)] / E(a).

    E(a) is computed with the same reflection model, so the ratio isolates
    the temperature effect.  Positive in the attractive regime (F below E).
    """
    fe = free_energy(model, geometry, state, tol)
    e0 = energy_T0(model, geometry, tol)
    value = (fe.value - e0.value) / e0.value
    err = (fe.numeric_error + e0.numeric_error) / abs(e0.value)
    return ResultValue(Quantity.RELATIVE_THERMAL_CORRECTION, value, err, {
        "free_energy": fe.value,
        "energy_T0": e0.value,
        "correction_factor": e0.diagnostics["correction_factor"],
        "terms_used": fe.diagnostics["terms_used"],
    })


def pressure_plates(model: Model, geometry: Geometry, state: ThermalState,
                    tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Pressure between the plates (N/m^2, negative = attraction).

    Evaluated from the spectral representation of -dF/da directly, not by
    numerically differentiating the free energy.  T = 0 is accepted and
    handled by the continuous-spectrum double integral.
    """
    model.check_separation(geometry)
    value, err, diag = _spectral(model, geometry, state, tol,
                                 _pressure_integrand, 4)
    return ResultValue(Quantity.PRESSURE_PLATES, -value, err, diag)


def force_sphere_plate(model: Model, geometry: Geometry, state: ThermalState,
                       tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Sphere-plate force via the proximity relation F = 2 pi R F_pp(a)
    (2 pi R E(a) at T = 0); requires geometry.sphere_radius."""
    if geometry.sphere_radius is None:
        raise ValueError("force_sphere_plate requires geometry.sphere_radius")
    if state.temperature > 0.0:
        base = free_energy(model, geometry, state, tol)
    else:
        base = energy_T0(model, geometry, tol)
    scale = 2.0 * math.pi * geometry.sphere_radius
    return ResultValue(
        Quantity.FORCE_SPHERE_PLATE, scale * base.value,
        scale * base.numeric_error, dict(base.diagnostics))


def entropy(model: Model, geometry: Geometry, state: ThermalState,
            tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Entropy per unit area S = -dF/dT (J/(m^2 K)).

    One Richardson extrapolation level over central differences with steps
    h and h/2, h = entropy_step_fraction * T.  The reported numeric_error
    combines the Richardson correction with the propagated free-energy
    errors; an entropy indistinguishable from zero (error >= |value|) is a
    valid outcome near T = 0 and is flagged in the diagnostics.
    """
    temp = state.temperature
    if temp <= 0.0:
        raise ValueError("entropy requires T > 0")
    h = tol.entropy_step_fraction * temp

    def diff(step: float) -> tuple[float, float]:
        lo = free_energy(model, geometry, ThermalState(temp - step), tol)
        hi = free_energy(model, geometry, ThermalState(temp + step), tol)
        d = (lo.value - hi.value) / (2.0 * step)
        return d, (lo.numeric_error + hi.numeric_error) / (2.0 * step)

    d1, _ = diff(h)
    d2, sigma2 = diff(0.5 * h)
    value = (4.0 * d2 - d1) / 3.0
    err = abs(value - d2) + sigma2
    return ResultValue(Quantity.ENTROPY_PER_AREA, value, err, {
        "step": h,
        "indistinguishable_from_zero": err >= abs(value),
    })


def lowT_asymptotics(material: MaterialParams, geometry: Geometry,
                     state: ThermalState,
                     tol: ToleranceConfig = DEFAULT_TOL,
                     ) -> tuple[ResultValue, ResultValue]:
    """Perturbative low-temperature free energy and entropy in the
    collisionless-plasma (infrared optics) regime.

    With t = T/T_eff and the penetration depth delta_r = c/omega_p,

        F(a,T) = E(a) - (hbar c zeta(3) / 16 pi a^3)
                   [ (1 + 2 delta_r/a) t^3
                     - (pi^3 / 45 zeta(3)) (1 + 4 delta_r/a) t^4 ],
        S(a,T) = (3 k_B zeta(3) / 8 pi a^2) t^2
                   [ (1 + 2 delta_r/a)
                     - (4 pi^3 / 135 zeta(3)) (1 + 4 delta_r/a) t ],

    valid for t << 1; rejected for T >= 0.1 T_eff.  E(a) is the numeric
    zero-temperature energy with the plasma-frequency impedance.
    """
    temp = state.temperature
    t_eff = effective_temperature(geometry)
    if temp >= 0.1 * t_eff:
        raise ValueError(
            f"low-T expansion requires T < 0.1 T_eff = {0.1 * t_eff:.4g} K")
    a = geometry.separation
    t = temp / t_eff
    delta_r = C_LIGHT / material.plasma_frequency
    base = energy_T0(InfraredOptics(material.plasma_frequency), geometry, tol)

    scale_f = HBAR * C_LIGHT * ZETA3 / (16.0 * math.pi * a ** 3)
    bracket = ((1.0 + 2.0 * delta_r / a) * t ** 3
               - (math.pi ** 3 / (45.0 * ZETA3))
               * (1.0 + 4.0 * delta_r / a) * t ** 4)
    f_value = base.value - scale_f * bracket
    # next omitted order is O(t^5) in the bracket
    f_err = base.numeric_error + scale_f * t ** 5

    scale_s = 3.0 * K_B * ZETA3 / (8.0 * math.pi * a * a)
    s_value = scale_s * t * t * (
        (1.0 + 2.0 * delta_r / a)
        - (4.0 * math.pi ** 3 / (135.0 * ZETA3))
        * (1.0 + 4.0 * delta_r / a) * t)
    s_err = scale_s * t ** 4

    diag = {"t": t, "delta_r_over_a": delta_r / a}
    return (ResultValue(Quantity.FREE_ENERGY_PER_AREA, f_value, f_err, diag),
            ResultValue(Quantity.ENTROPY_PER_AREA, s_value, s_err, diag))


def spectral_contribution(model: Model, geometry: Geometry,
                          window: tuple[float, float],
                          tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Fraction of the zero-temperature energy contributed by scaled
    frequencies zeta = xi/omega_c inside (zeta_lo, zeta_hi).

    zeta_hi may be inf.  The fraction of the full integral is returned;
    windows partition additively.
    """
    lo, hi = window
    if lo < 0.0 or not hi > lo:
        raise ValueError("window must satisfy 0 <= zeta_lo < zeta_hi")
    full, _, _ = _spectral(model, geometry, ThermalState(0.0), tol,
                           _free_energy_integrand, 3)
    part, _, _ = _spectral(model, geometry, ThermalState(0.0), tol,
                           _free_energy_integrand, 3, lo, hi)
    return part / full
