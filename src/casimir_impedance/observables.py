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
the primed Matsubara sum at T > 0 (its remainder by Euler-Maclaurin past
l = 64, or past l = 16 or 32 where a ladder's floor is 64 or more and the
ends' error bound already meets tol there) and, at T = 0, the zeta
integral with the order swapped, int_0^inf dy int_0^y dzeta, by the
graded tensor rule `integrate_wedge`.
Every observable reaches the quadrature through it.
The entropy S = -dF/dT uses a Richardson-extrapolated central difference.

Every reflection model reaches the integrands through one kernel,
`x_factors_grid`, whose inputs are finite at zeta = 0: the zero-frequency
(l = 0) term is the zeta = 0 row of the first Matsubara block, with the
same arithmetic as the others, and its value is the model's analytic limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .physcore import (
    C_LIGHT, HBAR, K_B, Geometry, MaterialParams, ThermalState,
    ToleranceConfig, effective_temperature, matsubara_frequency,
)
from .reflection import InfraredOptics, Model, x_factors_grid
from .quadrature import (  # integrate_interval: perfbench/spans.py wraps it
    IntegralResult, NonConvergenceError, euler_maclaurin_ends,
    integrate_interval, integrate_semiinf, integrate_wedge, matsubara_sum,
    tail_cutoff,
)

lifshitz_x_grid = x_factors_grid  # perfbench/spans.py wraps it

__all__ = [
    "Quantity", "ResultValue", "ZETA3", "energy_ideal", "energy_T0",
    "free_energy", "thermal_correction", "pressure_plates",
    "force_sphere_plate", "entropy", "records", "lowT_asymptotics",
    "spectral_contribution", "check_range", "entropy_step",
]

ZETA3 = 1.2020569031595943  # Riemann zeta(3)

DEFAULT_TOL = ToleranceConfig()
_ENTROPY_STEP = 1e-3  # entropy's difference step h over T


class Quantity(Enum):
    ENERGY_PER_AREA = "energy_per_area"                    # J/m^2
    FREE_ENERGY_PER_AREA = "free_energy_per_area"          # J/m^2
    PRESSURE_PLATES = "pressure_plates"                    # N/m^2
    FORCE_SPHERE_PLATE = "force_sphere_plate"              # N
    ENTROPY_PER_AREA = "entropy_per_area"                  # J/(m^2 K)
    RELATIVE_THERMAL_CORRECTION = "relative_thermal_correction"


@dataclass(frozen=True)
class ResultValue:
    """An observable with its estimated numerical error and convergence
    diagnostics (term counts, integrand evaluations, ...)."""

    quantity: Quantity
    value: float
    numeric_error: float
    diagnostics: Mapping[str, object]


def _free_energy_integrand(model: Model, geometry: Geometry, zeta):
    """y * [2 ln(1-e^-y) + sum_p ln(1 + X_p/(e^y - 1))] as a vectorized
    function of y."""

    def f(y: np.ndarray) -> np.ndarray:
        xpar, xperp = x_factors_grid(model, geometry, zeta, y)
        em = np.exp(-y)
        with np.errstate(over="ignore"):  # y > 709: 1/inf = 0 is right
            t = 1.0 / np.expm1(y)
        return y * (2.0 * np.log1p(-em)
                    + np.log1p(xpar * t) + np.log1p(xperp * t))

    return f


def _pressure_integrand(model: Model, geometry: Geometry, zeta):
    """y^2 * sum_p r_p^2 e^-y / (1 - r_p^2 e^-y), written through
    X = 1 - r^2 so the denominator 1 - r^2 e^-y = (1-e^-y) + X e^-y is
    cancellation-free."""

    def f(y: np.ndarray) -> np.ndarray:
        xpar, xperp = x_factors_grid(model, geometry, zeta, y)
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


def check_range(geometry: Geometry, state: ThermalState) -> float:
    """zeta_1 = 2 a xi_1 / c (0 at T = 0); ValueError outside 1e-12 <= a <=
    1 m or, at T > 0, 1e-100 <= zeta_1 <= 1e12, where a prefactor under- or
    overflows or l zeta_1 + the y-integrals' tail rounds to l zeta_1."""
    a = geometry.separation
    if not 1e-12 <= a <= 1.0:
        raise ValueError(f"separation {a:.6g} m is outside [1e-12, 1] m")
    if state.temperature <= 0.0:
        return 0.0
    zeta1 = 2.0 * a * matsubara_frequency(1, state) / C_LIGHT
    if not 1e-100 <= zeta1 <= 1e12:
        raise ValueError(
            f"temperature {state.temperature:.6g} K is outside the Matsubara "
            f"ladder's range at separation {a:.6g} m: zeta_1 = {zeta1:.3g} "
            "must lie in [1e-100, 1e12]")
    return zeta1


def entropy_step(geometry: Geometry, state: ThermalState) -> float:
    """h = 1e-3 T, the step of `entropy`; ValueError unless T > 0 and
    `check_range` holds at T and T -+ h (so at T -+ h/2), naming T."""
    temp, h = state.temperature, _ENTROPY_STEP * state.temperature
    if temp <= 0.0:
        raise ValueError("entropy requires T > 0")
    check_range(geometry, state)
    try:
        for t in (temp - h, temp + h):
            check_range(geometry, ThermalState(t))
    except ValueError as exc:
        raise ValueError(f"entropy at {temp:.6g} K steps to {t:.6g} K: "
                         f"{exc}") from None
    return h


def _band(model: Model, geometry: Geometry, integrand_factory, lo: float,
          rel_tol: float) -> IntegralResult:
    """The T = 0 spectrum above zeta = lo, int_lo^Y dy int_lo^y dzeta of
    the y-integrand by `integrate_wedge`, Y = tail_cutoff(lo, rel_tol); 0
    past the cutoff of lo = 0, where it is below e^-40 of the whole."""
    if lo >= tail_cutoff(0.0, rel_tol):
        return IntegralResult(0.0, 0.0, 0)
    return integrate_wedge(
        lambda zeta, y: integrand_factory(model, geometry, zeta)(y),
        tail_cutoff(lo, rel_tol), rel_tol, lo)


def _spectral(model: Model, geometry: Geometry, state: ThermalState,
              tol: ToleranceConfig, integrand_factory, power: int,
              ) -> tuple[float, float, dict]:
    """(value, absolute error, diagnostics) of an observable's spectral
    form in physical units: (hbar c / 32 pi^2 a^power) times the `_band`
    above zeta = 0 at T = 0, and (k_B T / 8 pi a^(power-1)) times the
    primed Matsubara sum of the y-integrals at T > 0, whose floor
    ceil(10 / zeta_1) covers the dominant spectral window zeta <= 10; every
    integral and the sum's stop rule use tol.quadrature_rel_tol.  Its error
    is the per-term quadrature errors (quad_err) plus a remainder bound
    (tail_err): last_term / (e^zeta_1 - 1) for a ladder that stops by
    itself (the terms decay at least like e^(-zeta_1 l)), while one that
    `matsubara_sum` hands off at l = L (64, or 16 or 32 for a floor past
    64) adds the Euler-Maclaurin remainder, the `_band` above
    L zeta_1 = (terms_used - 1) zeta_1 over zeta_1 + `euler_maclaurin_ends`.
    """
    a, zeta1 = geometry.separation, check_range(geometry, state)
    rel_tol = tol.quadrature_rel_tol
    if state.temperature <= 0.0:
        w = _band(model, geometry, integrand_factory, 0.0, rel_tol)
        prefac = HBAR * C_LIGHT / (32.0 * math.pi ** 2 * a ** power)
        return prefac * w.value, prefac * w.abs_error_estimate, {
            "evaluations": w.evaluations}

    l_floor = math.ceil(10.0 / zeta1)
    done: list[IntegralResult] = []

    def terms(ls: np.ndarray) -> np.ndarray:
        # one call per block, a zeta row per l; the first block starts at
        # l = 0, the row at zeta = 0 (matsubara_sum halves it)
        zeta = ls * zeta1
        done.append(integrate_semiinf(integrand_factory(
            model, geometry, zeta[:, None, None]), zeta, rel_tol))
        return done[-1].value

    s = matsubara_sum(terms, rel_tol, l_floor)
    value, evaluations = s.value, sum(r.evaluations for r in done)
    quad_err = math.fsum(np.concatenate(
        [r.abs_error_estimate for r in done])[:s.terms_used])  # no overshoot
    if not s.edge_terms:
        # capped so that a large a*T cannot overflow expm1; the bound only grows
        tail_err = s.last_term_magnitude / math.expm1(min(zeta1, 700.0))
    else:
        w = _band(model, geometry, integrand_factory,
                  (s.terms_used - 1) * zeta1, rel_tol)
        ends, tail_err = euler_maclaurin_ends(s.edge_terms)
        value += ends + w.value / zeta1
        tail_err += w.abs_error_estimate / zeta1
        evaluations += w.evaluations
    # (8 pi a) a, not 8 pi a^2: the free energy's 17-digit CSV shows the ulp
    denom = (8.0 * math.pi * a * a if power == 3
             else 8.0 * math.pi * a ** (power - 1))
    prefac = K_B * state.temperature / denom
    return prefac * value, prefac * (quad_err + tail_err), {
        "terms_used": s.terms_used, "evaluations": evaluations,
        "last_term_magnitude": s.last_term_magnitude,
        "quad_err": prefac * quad_err, "tail_err": prefac * tail_err,
        "tail": "euler_maclaurin" if s.edge_terms else "geometric"}


def energy_T0(model: Model, geometry: Geometry,
              tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Zero-temperature energy per area for any reflection model.

    Also reports the correction factor E/E0 relative to the ideal metal in
    the diagnostics.
    """
    value, err, diag = _spectral(model, geometry, ThermalState(0.0), tol,
                                 _free_energy_integrand, 3)
    model.check_separation(geometry)  # after _spectral's range check
    e0 = energy_ideal(geometry).value
    return ResultValue(Quantity.ENERGY_PER_AREA, value, err,
                       {"correction_factor": value / e0, **diag})


def free_energy(model: Model, geometry: Geometry, state: ThermalState,
                tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Free energy per unit area at T > 0 (J/m^2, negative = attraction).

    The l = 0 term is the model's zero-frequency limit.  At T = 0 use
    `energy_T0` (continuous spectrum) instead.
    """
    if state.temperature <= 0.0:
        raise ValueError("free_energy requires T > 0; use energy_T0 at T = 0")
    value, err, diag = _spectral(model, geometry, state, tol,
                                 _free_energy_integrand, 3)
    model.check_separation(geometry)
    return ResultValue(Quantity.FREE_ENERGY_PER_AREA, value, err, diag)


def thermal_correction(model: Model, geometry: Geometry, state: ThermalState,
                       tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Relative thermal correction [F(a,T) - E(a)] / E(a).

    E(a) is computed with the same reflection model, so the ratio isolates
    the temperature effect.  Positive in the attractive regime (F below E).
    The diagnostics include F's, with the split of F's error.
    """
    return _relative_correction(free_energy(model, geometry, state, tol),
                                energy_T0(model, geometry, tol))


def _relative_correction(fe: ResultValue, e0: ResultValue) -> ResultValue:
    """(F - E)/E and its error from F and E, formed nowhere else."""
    value = (fe.value - e0.value) / e0.value
    err = (fe.numeric_error + e0.numeric_error) / abs(e0.value)
    return ResultValue(Quantity.RELATIVE_THERMAL_CORRECTION, value, err, {
        "free_energy": fe.value,
        "energy_T0": e0.value,
        "correction_factor": e0.diagnostics["correction_factor"],
        **fe.diagnostics,
    })


def pressure_plates(model: Model, geometry: Geometry, state: ThermalState,
                    tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Pressure between the plates (N/m^2, negative = attraction).

    Evaluated from the spectral representation of -dF/da directly, not by
    numerically differentiating the free energy.  T = 0 is accepted and
    handled by the continuous-spectrum double integral.
    """
    value, err, diag = _spectral(model, geometry, state, tol,
                                 _pressure_integrand, 4)
    model.check_separation(geometry)
    return ResultValue(Quantity.PRESSURE_PLATES, -value, err, diag)


def force_sphere_plate(model: Model, geometry: Geometry, state: ThermalState,
                       tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Sphere-plate force via the proximity relation F = 2 pi R F_pp(a)
    (2 pi R E(a) at T = 0); requires geometry.sphere_radius."""
    if geometry.sphere_radius is None:
        raise ValueError("force_sphere_plate requires geometry.sphere_radius")
    base = (free_energy(model, geometry, state, tol)
            if state.temperature > 0.0 else energy_T0(model, geometry, tol))
    scale = 2.0 * math.pi * geometry.sphere_radius
    return ResultValue(
        Quantity.FORCE_SPHERE_PLATE, scale * base.value,
        scale * base.numeric_error, dict(base.diagnostics))


def entropy(model: Model, geometry: Geometry, state: ThermalState,
            tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Entropy per unit area S = -dF/dT (J/(m^2 K)).

    One Richardson extrapolation level over central differences with steps
    h and h/2, h = 1e-3 T (_ENTROPY_STEP).  The reported numeric_error
    combines the Richardson correction with the propagated free-energy
    errors; an entropy indistinguishable from zero (error >= |value|) is a
    valid outcome near T = 0 and is flagged in the diagnostics.
    """
    temp, h = state.temperature, entropy_step(geometry, state)

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


def records(quantity: Quantity, models, separations, temperatures,
            tol: ToleranceConfig = DEFAULT_TOL,
            radius: float | None = None) -> list[dict]:
    """The rows of `quantity` in the CLI's (a, T, model) order; `models`
    holds (name, Model) pairs.  A row maps the CLI's CSV columns a_m,
    T_K, model, the values that apply (err_estimate and, from a Matsubara
    sum, terms_used among them) and status, "ok" or, for a row failed in
    place with no values, "nonconvergence: ..." or "nonfinite: ...".  The
    energy quantities give E, E/E0 and, at T > 0, F (the row's error is
    F's) and (F - E)/E, E computed once per (a, model name) and call.  A
    ValueError (`check_range`) propagates."""
    # the functions are read when called, so a patched attribute is seen
    single = {Quantity.PRESSURE_PLATES: ("pressure_N_per_m2", pressure_plates),
              Quantity.ENTROPY_PER_AREA: ("entropy_J_per_m2_K", entropy),
              Quantity.FORCE_SPHERE_PLATE: ("force_sphere_plate_N",
                                            force_sphere_plate)}.get(quantity)
    energies: dict = {}  # (a, model name) -> E
    rows = []
    for a, T, (name, model) in ((a, T, m) for a in separations
                                for T in temperatures for m in models):
        geometry, state = Geometry(a, radius), ThermalState(T)
        row = {"a_m": a, "T_K": T, "model": name}
        try:
            if single:
                result = single[1](model, geometry, state, tol)
                values = {single[0]: result.value}
            else:
                if (a, name) not in energies:
                    energies[a, name] = energy_T0(model, geometry, tol)
                result = e = energies[a, name]
                values = {"energy_J_per_m2": e.value, "correction_factor":
                          e.diagnostics["correction_factor"]}
                if T > 0.0:
                    result = free_energy(model, geometry, state, tol)
                    values["free_energy_J_per_m2"] = result.value
                    values["rel_thermal_correction"] = _relative_correction(
                        result, e).value
            values["err_estimate"] = result.numeric_error
            if "terms_used" in result.diagnostics:
                values["terms_used"] = result.diagnostics["terms_used"]
            rows.append({**row, **values, "status": "ok"})
        except NonConvergenceError as exc:
            rows.append({**row, "status": f"nonconvergence: {exc}"})
        except FloatingPointError as exc:
            rows.append({**row, "status": f"nonfinite: {exc}"})
    return rows


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

    zeta_hi may be inf.  With B(lo) the energy's `_band` above zeta = lo
    (B(inf) = 0) it is (B(zeta_lo) - B(zeta_hi)) / B(0), so windows
    partition additively.
    """
    lo, hi = window
    if lo < 0.0 or not hi > lo:
        raise ValueError("window must satisfy 0 <= zeta_lo < zeta_hi")
    check_range(geometry, ThermalState(0.0))
    full, above_lo, above_hi = (_band(model, geometry, _free_energy_integrand,
                                      z, tol.quadrature_rel_tol).value
                                for z in (0.0, lo, hi))
    return (above_lo - above_hi) / full
