"""Casimir observables between parallel real-metal plates.

Everything is computed in the scaled spectral variables zeta = 2 a xi / c
and y = 2 a q.  The free energy per unit area at temperature T is the
primed Matsubara sum (l = 0 carries weight 1/2)

    F = (k_B T / 8 pi a^2) * sum'_l  I(zeta_l),
    I(zeta) = int_zeta^inf y dy sum_p ln(1 - r_p^2 e^-y),

with zeta_l = 2 a xi_l / c and r_p^2 = 1 - X_p, X_p the transparency
factors of the chosen reflection model (X = 0 reproduces the ideal
metal).  At T = 0 the sum becomes its continuum limit, zeta_1 sum'_l ->
int dzeta with zeta_1 = 4 pi a k_B T / (hbar c), so

    E = (hbar c / 32 pi^2 a^3) * int_0^inf dzeta I(zeta),

whose ideal-metal part is the closed form E0 = -pi^2 hbar c/(720 a^3).
The pressure between plates is evaluated from its own spectral
representation (not by differentiating F numerically):

    P = -(k_B T / 8 pi a^3) * sum'_l int y^2 dy sum_p r_p^2 e^-y/(1 - r_p^2 e^-y)

and the sphere-plate force through the proximity relation F = 2 pi R F_pp.
Each y-integrand is a plain vectorized g(model, geometry, zeta, y).  One
driver, `_spectral`, binds it once per record, evaluates both forms with it
and then runs the model's separation check: the primed Matsubara sum at
T > 0 (stopped where `matsubara_sum`'s remainder bound meets tol, or its
remainder by Euler-Maclaurin past l = 64, or past l = 16 or 32 where a
ladder's floor is 64 or more and the ends' error bound already meets tol
there) and, at T = 0, the zeta integral with the order swapped,
int_0^inf dy int_0^y dzeta, by `integrate_wedge`, which takes the ladder's
Euler-Maclaurin band too and sets each band's cutoff and layout itself.
Every observable reaches the quadrature through it, the entropy S = -dF/dT
as the ladder -(k_B / 8 pi a^2) sum'_l h(zeta_l), h = d(zeta I)/dzeta
(zeta_1 is proportional to T), whose remainder past L is -L I(L zeta_1).

Every reflection model reaches the integrands through one kernel,
`x_factors_grid`, whose inputs are finite at zeta = 0: the zero-frequency
(l = 0) term is the zeta = 0 row of the first Matsubara block, with the
same arithmetic as the others, and its value is the model's analytic limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Mapping

import numpy as np

from .physcore import (
    C_LIGHT, HBAR, K_B, Geometry, ThermalState, ToleranceConfig,
    matsubara_frequency,
)
from .reflection import Model, x_factors_grid
from .quadrature import (  # integrate_interval: perfbench/spans.py wraps it
    IntegralResult, NonConvergenceError, integrate_interval,
    integrate_semiinf, integrate_wedge, matsubara_sum,
)

lifshitz_x_grid = x_factors_grid  # perfbench/spans.py wraps it

__all__ = [
    "Quantity", "ResultValue", "energy_ideal", "energy_T0", "free_energy",
    "thermal_correction", "pressure_plates", "force_sphere_plate",
    "entropy", "records", "check_range",
]

DEFAULT_TOL = ToleranceConfig()
_STEP = 1e-20  # entropy's complex step, relative to zeta


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


def _free_energy_integrand(model: Model, geometry: Geometry, zeta, y):
    """y sum_p ln(1 - r_p^2 e^-y) as y sum_p log1p((X_p - 1) e^-y),
    vectorized: never positive while X_p <= 1."""
    xpar, xperp = x_factors_grid(model, geometry, zeta, y)
    em = np.exp(-y)
    for x in (xpar, xperp):  # in place: X's arrays are the kernel's own
        x -= 1.0
        np.log1p(np.multiply(x, em, out=x), out=x)
    # X_par depends on zeta in every model: it has the shape of (zeta, y)
    xpar += xperp
    return np.multiply(xpar, y, out=xpar)


def _entropy_integrand(model: Model, geometry: Geometry, zeta, y):
    """g + zeta (d/dzeta + d/dy) g = g + zeta g / y + y e^-y sum_p (zeta (1
    - X_p) + zeta dX_p) / ((1 - e^-y) + X_p e^-y), the pressure's
    denominator; g is the free-energy integrand in its operation order, and
    its y-integral from zeta is h(zeta).  zeta dX along the ray is Im X(zeta
    (1 + i d), y + i d zeta) / d, d = _STEP; the logarithms stay real."""
    step = _STEP * zeta * 1j
    xs = x_factors_grid(model, geometry, zeta + step, y + step)
    em, one_minus_em = np.exp(-y), -np.expm1(-y)
    g = sum(np.log1p((x.real - 1.0) * em) for x in xs) * y
    return g + zeta * g / y + y * em * sum(
        (zeta * (1.0 - x.real) + x.imag / _STEP) / (x.real * em + one_minus_em)
        for x in xs)


def _pressure_integrand(model: Model, geometry: Geometry, zeta, y):
    """y^2 * sum_p r_p^2 e^-y / (1 - r_p^2 e^-y), written through
    X = 1 - r^2 so the denominator 1 - r^2 e^-y = (1-e^-y) + X e^-y is
    cancellation-free."""
    xpar, xperp = x_factors_grid(model, geometry, zeta, y)
    em = np.exp(-y)
    one_minus_em = -np.expm1(-y)
    for x in (xpar, xperp):  # in place: X's arrays are the kernel's own
        r2_em = 1.0 - x
        r2_em *= em
        x *= em
        x += one_minus_em
        np.divide(r2_em, x, out=x)
    xpar += xperp
    return np.multiply(xpar, y * y, out=xpar)


def energy_ideal(geometry: Geometry) -> ResultValue:
    """Ideal-metal zero-temperature energy per area, -pi^2 hbar c/(720 a^3)."""
    a = geometry.separation
    value = -math.pi ** 2 * HBAR * C_LIGHT / (720.0 * a ** 3)
    return ResultValue(Quantity.ENERGY_PER_AREA, value, 0.0, {})


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


def _spectral(model: Model, geometry: Geometry, state: ThermalState,
              tol: ToleranceConfig, integrand, power: int,
              band=None) -> tuple[float, float, dict]:
    """(value, absolute error, diagnostics) of an observable's spectral
    form in physical units, `integrand` bound once to the model and
    geometry: at T = 0, (hbar c / 32 pi^2 a^power) times `integrate_wedge`
    above zeta = 0 (diagnostics: evaluations), and at T > 0 (k_B T / 8 pi
    a^(power-1)) times the primed Matsubara sum of the y-integrals by
    `matsubara_sum`; every integral and the sum's stop rule use
    tol.quadrature_rel_tol.  Its error is the per-term quadrature errors
    (quad_err) plus the sum's remainder bound (tail_err, its kind in tail):
    for a ladder that stops by itself, the bound it stopped on;
    for one handed off at l = L (64, or 16 or 32 for a floor ceil(10 /
    zeta_1) past 64), the Euler-Maclaurin remainder, the sum's ends and
    their bound plus `band` (default `integrate_wedge`) above L zeta_1 =
    (terms_used - 1) zeta_1 over zeta_1.  Then the model's
    `check_separation` runs: a record that raises warns nothing.
    """
    a, zeta1 = geometry.separation, check_range(geometry, state)
    rel_tol = tol.quadrature_rel_tol
    g = partial(integrand, model, geometry)
    if state.temperature <= 0.0:
        w = integrate_wedge(g, 0.0, rel_tol)
        model.check_separation(geometry)
        prefac = HBAR * C_LIGHT / (32.0 * math.pi ** 2 * a ** power)
        return prefac * w.value, prefac * w.abs_error_estimate, {
            "evaluations": w.evaluations}

    done: list[IntegralResult] = []

    def terms(ls: np.ndarray) -> np.ndarray:
        # one call per block, a zeta row per l, from the row zeta = 0 (l = 0)
        zeta = ls * zeta1
        done.append(integrate_semiinf(partial(g, zeta[:, None, None]), zeta,
                                      rel_tol))
        return done[-1].value

    s = matsubara_sum(terms, rel_tol, zeta1)
    value, tail_err = s.value, s.tail_err
    evaluations = sum(r.evaluations for r in done)
    quad_err = math.fsum([e for r in done for e in  # no overshoot
                          r.abs_error_estimate.tolist()][:s.terms_used])
    if s.ends is not None:
        w = (band or integrate_wedge)(g, (s.terms_used - 1) * zeta1, rel_tol)
        value += s.ends + w.value / zeta1
        tail_err += w.abs_error_estimate / zeta1
        evaluations += w.evaluations
    model.check_separation(geometry)
    prefac = K_B * state.temperature / (8.0 * math.pi * a ** (power - 1))
    return prefac * value, prefac * (quad_err + tail_err), {
        "terms_used": s.terms_used, "evaluations": evaluations,
        "quad_err": prefac * quad_err, "tail_err": prefac * tail_err,
        "tail": "geometric" if s.ends is None else "euler_maclaurin"}


def energy_T0(model: Model, geometry: Geometry,
              tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Zero-temperature energy per area for any reflection model, with the
    correction factor E/E0 relative to the ideal metal in the diagnostics."""
    value, err, diag = _spectral(model, geometry, ThermalState(0.0), tol,
                                 _free_energy_integrand, 3)
    e0 = energy_ideal(geometry).value
    return ResultValue(Quantity.ENERGY_PER_AREA, value, err,
                       {"correction_factor": value / e0, **diag})


def free_energy(model: Model, geometry: Geometry, state: ThermalState,
                tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Free energy per unit area at T >= 0 (J/m^2, negative = attraction).

    At T > 0 the l = 0 term is the model's zero-frequency limit.  At T = 0
    the Matsubara sum is its continuum limit, the same `_spectral` call as
    `energy_T0`, so F(a, 0) = E(a) in value and error, bit for bit.
    """
    value, err, diag = _spectral(model, geometry, state, tol,
                                 _free_energy_integrand, 3)
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
    value = 0.0 - (e0.value - fe.value) / e0.value  # F = E: +0, not -0
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
    return ResultValue(Quantity.PRESSURE_PLATES, -value, err, diag)


def force_sphere_plate(model: Model, geometry: Geometry, state: ThermalState,
                       tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Sphere-plate force 2 pi R `free_energy`(a) by the proximity relation
    (2 pi R E(a) at T = 0); requires geometry.sphere_radius.  The relation's
    own error, of order a/R, is not in numeric_error; a_over_R states it."""
    radius = geometry.sphere_radius
    if radius is None:
        raise ValueError("force_sphere_plate requires geometry.sphere_radius")
    base = free_energy(model, geometry, state, tol)
    scale = 2.0 * math.pi * radius
    return ResultValue(
        Quantity.FORCE_SPHERE_PLATE, scale * base.value,
        scale * base.numeric_error,
        {**base.diagnostics, "a_over_R": geometry.separation / radius})


def entropy(model: Model, geometry: Geometry, state: ThermalState,
            tol: ToleranceConfig = DEFAULT_TOL) -> ResultValue:
    """Entropy per unit area S = -dF/dT (J/(m^2 K)) at T > 0, the ladder of
    h(zeta_l) of the module docstring, with `free_energy`'s diagnostics; a
    value indistinguishable from zero (error >= |value|) is flagged."""
    temp = state.temperature
    if temp <= 0.0:
        raise ValueError("entropy requires T > 0")

    def band(_, lo, rel_tol):  # int_lo^inf h = -lo I(lo)
        i = integrate_semiinf(partial(_free_energy_integrand, model,
                                      geometry, lo), lo, rel_tol)
        return IntegralResult(-lo * i.value, lo * i.abs_error_estimate,
                              i.evaluations)

    value, err, diag = _spectral(model, geometry, state, tol,
                                 _entropy_integrand, 3, band)
    diag.update({k: diag[k] / temp for k in ("quad_err", "tail_err")},
                indistinguishable_from_zero=err >= abs(value))
    return ResultValue(Quantity.ENTROPY_PER_AREA, 0.0 - value / temp,
                       err / temp, diag)  # 0 - x: +0, not -0, if x = 0


def records(quantity: Quantity, models, separations, temperatures,
            tol: ToleranceConfig = DEFAULT_TOL,
            radius: float | None = None) -> list[dict]:
    """The rows of `quantity` in the CLI's (a, T, model) order; `models`
    holds (name, Model) pairs.  A row maps the CLI's CSV columns a_m,
    T_K, model, the values that apply (err_estimate and, from a Matsubara
    sum, terms_used among them) and status, "ok" or, for a row failed in
    place with no values, "nonconvergence: ..." or "nonfinite: ...".  The
    energy quantities give E, E/E0 and, at T > 0, F (the row's error is
    F's) and (F - E)/E, E computed once per (a, model name) and call, a
    failure included.  A ValueError (`check_range`) propagates."""
    # the functions are read when called, so a patched attribute is seen
    single = {Quantity.PRESSURE_PLATES: ("pressure_N_per_m2", pressure_plates),
              Quantity.ENTROPY_PER_AREA: ("entropy_J_per_m2_K", entropy),
              Quantity.FORCE_SPHERE_PLATE: ("force_sphere_plate_N",
                                            force_sphere_plate)}.get(quantity)
    energies: dict = {}  # (a, model name) -> E, or the error it raised
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
                    try:
                        energies[a, name] = energy_T0(model, geometry, tol)
                    except (NonConvergenceError, FloatingPointError) as exc:
                        energies[a, name] = exc
                result = e = energies[a, name]
                if isinstance(e, Exception):
                    raise e
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

