"""Scalar one-point helpers that the tests use as references: reflection
coefficients, dielectric and dispersion functions in physical (not scaled)
variables, computed independently of the package's vectorized kernels.
`impedance_imag_axis` writes Z(i xi) of each impedance model in closed
form and reads no model method; `x_factors` is a scalar wrapper of
`x_factors_grid`, and `x_factors_mp` is X = 1 - r^2 from the definitions
at 50 digits.  `zero_freq_closed_form` states each model's zero-frequency
limit in closed form.  `free_energy_ideal` is the ideal metal's
closed-form free energy, with `ZETA3` = zeta(3); `energy_T0_nested_quad`
and `free_energy_direct_ladder` are independent numeric references for
the two spectral forms, `pressure_direct_ladder` is the pressure's
ladder taken the same way, `entropy_direct_ladder` sums the entropy's
ladder of the package's integrand with no stop rule, and
`band_nested_quad` takes a T = 0 band above zeta = lo by nested rules.
`effective_temperature` is the temperature scale hbar c / (2 a k_B) of the
low-temperature expansion and of the tests' temperatures.  `lowT_asymptotics`
is the paper's low-temperature expansion of the infrared-optics free
energy and entropy, added to a numeric E(a); `spectral_contribution` is
the fraction of E(a) from a window of zeta, the quantity of acceptance
criterion 7.
`entropy_richardson` is the entropy as a Richardson-extrapolated central
difference of free energies, the reference of the package's entropy ladder.
`x_factors_out_of_place`, `free_energy_integrand_out_of_place` and
`pressure_integrand_out_of_place` write the X kernel and the two
y-integrands as plain expressions, each operation into a new array, in the
order that the package's in-place forms keep.
`free_energy_integrand_expm1_form` is the free-energy integrand with the
y-only logarithm split off, 2 ln(1 - e^-y) + sum_p ln(1 + X_p/(e^y - 1)):
the accuracy reference of the package's log1p((X_p - 1) e^-y) form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from casimir_impedance.physcore import (
    C_LIGHT, HBAR, K_B, Geometry, MaterialParams, ThermalState,
    ToleranceConfig,
)
from casimir_impedance.reflection import (
    AnomalousSkin, Drude, IdealMetal, InfraredOptics, Model, NormalSkin,
    Plasma, x_factors_grid,
)
from casimir_impedance.observables import (
    DEFAULT_TOL, Quantity, ResultValue, _entropy_integrand,
    _free_energy_integrand, _pressure_integrand, check_range, energy_T0,
    energy_ideal, free_energy,
)
from casimir_impedance.quadrature import integrate_wedge

ZETA3 = 1.2020569031595943  # Riemann zeta(3)


def effective_temperature(geometry: Geometry) -> float:
    """T_eff with k_B T_eff = hbar omega_c = hbar c / (2 a)."""
    return HBAR * C_LIGHT / (2.0 * geometry.separation * K_B)


@dataclass(frozen=True)
class ImpedanceValue:
    """Z(i xi): dimensionless, real, non-negative."""

    z: float


def _impedance(model, xi: float) -> float:
    """Z(i xi) of an impedance model, written out per model."""
    if isinstance(model, IdealMetal):
        return 0.0
    if isinstance(model, NormalSkin):
        return math.sqrt(xi / (4.0 * math.pi * model.sigma))
    if isinstance(model, AnomalousSkin):
        return (4.0 / (3.0 * math.sqrt(3.0)) * model.c_a
                * np.cbrt(xi) ** 2 / C_LIGHT)
    if isinstance(model, InfraredOptics):
        return xi / math.hypot(model.omega_p, xi)
    raise TypeError(f"not an impedance model: {model!r}")


def impedance_imag_axis(model, xi: float) -> ImpedanceValue:
    """Evaluate Z(i xi) for a single imaginary frequency xi >= 0 (rad/s).

    Warns when the result exceeds 0.3: the impedance boundary condition
    assumes |Z| << 1, which holds for real nonmagnetic metals at the
    frequencies that matter.
    """
    if xi < 0.0:
        raise ValueError("imaginary frequency must be non-negative")
    z = _impedance(model, xi)
    if z > 0.3:
        warnings.warn(f"|Z| = {z:.3g} is not small; the impedance boundary "
                      "condition assumes |Z| << 1", stacklevel=2)
    return ImpedanceValue(z)


def dimensionless_impedance(model, geometry: Geometry,
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


def eps_imag_axis(model: Plasma | Drude, xi: float) -> float:
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
                             "use zero_freq_closed_form for the limit")
        return 1.0 + model.omega_p ** 2 / (xi * (xi + model.gamma))
    raise TypeError(f"not a dielectric model: {model!r}")


def refl_impedance(z: ImpedanceValue | float,
                   point: SpectralPoint) -> ReflectionPair:
    """Impedance squared reflection coefficients at xi > 0.

    Zero frequency is a 0/0 limit of the perpendicular coefficient;
    `zero_freq_closed_form` gives it.
    """
    zv = z.z if isinstance(z, ImpedanceValue) else float(z)
    if point.xi <= 0.0:
        raise ValueError("refl_impedance requires xi > 0; "
                         "zero frequency is handled by zero_freq_closed_form")
    cq = C_LIGHT * point.q
    xi = point.xi
    r_par = (cq - zv * xi) / (cq + zv * xi)
    r_perp = (xi - zv * cq) / (xi + zv * cq)
    return ReflectionPair(r_par * r_par, r_perp * r_perp)


def refl_lifshitz(model: Plasma | Drude,
                  point: SpectralPoint) -> ReflectionPair:
    """Fresnel squared reflection coefficients for a dielectric model.

    The plasma model is continuous down to xi = 0 (eps xi^2 -> omega_p^2),
    so xi = 0 is allowed there; the Drude model must go through
    `zero_freq_closed_form` instead.
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
                             "a limit; use zero_freq_closed_form")
        denom = xi * (xi + model.gamma)
        eps_xi2 = xi * xi + model.omega_p ** 2 * xi / (xi + model.gamma)
        inv_eps = denom / (denom + model.omega_p ** 2)
    else:
        raise TypeError(f"not a dielectric model: {model!r}")
    k = math.sqrt(point.k_perp ** 2 + eps_xi2 / C_LIGHT ** 2)
    r_par = (q - k * inv_eps) / (q + k * inv_eps)
    r_perp = (q - k) / (q + k)
    return ReflectionPair(r_par * r_par, r_perp * r_perp)


def zero_freq_closed_form(model, k_perp: float) -> ReflectionPair:
    """(r_par^2, r_perp^2) at xi = 0 and k_perp > 0 (rad/m), written out per
    model: Z(0) = 0 reflects fully for the ideal metal and the skin
    effects; infrared optics keeps r_perp = (omega_p - c k)/(omega_p + c k);
    the plasma dielectric r_perp = (k - k0)/(k + k0) with k0^2 = k^2 +
    omega_p^2/c^2; the Drude dielectric turns transparent to TE, r_perp = 0.
    """
    if isinstance(model, InfraredOptics):
        ck = C_LIGHT * k_perp
        return ReflectionPair(
            1.0, ((model.omega_p - ck) / (model.omega_p + ck)) ** 2)
    if isinstance(model, Plasma):
        k0 = math.hypot(k_perp, model.omega_p / C_LIGHT)
        return ReflectionPair(1.0, ((k_perp - k0) / (k_perp + k0)) ** 2)
    if isinstance(model, Drude):
        return ReflectionPair(1.0, 0.0)
    if isinstance(model, (IdealMetal, NormalSkin, AnomalousSkin)):
        return ReflectionPair(1.0, 1.0)
    raise TypeError(f"not a reflection model: {model!r}")


def x_factors_mp(model, a: float, zeta: float, y: float) -> tuple:
    """(X_par, X_perp) = 1 - r^2 at 50 digits, rounded to floats, at zeta >
    0 and y >= zeta: r_p from the definitions in physical units at xi = c
    zeta / 2a and q = y / 2a, the impedance boundary condition with Z(i
    xi) written out per model, or the Fresnel coefficients of eps(i xi)
    with k^2 = k_perp^2 + eps xi^2 / c^2.  No step is the package's
    4 y u / (y + u)^2 form, and none reads a model's own formulas."""
    from mpmath import mp, mpf, sqrt

    with mp.workdps(50):
        c = mpf(C_LIGHT)
        xi, q = mpf(zeta) * c / (2 * mpf(a)), mpf(y) / (2 * mpf(a))
        if isinstance(model, (Plasma, Drude)):
            wp2 = mpf(model.omega_p) ** 2
            eps = 1 + (wp2 / xi ** 2 if isinstance(model, Plasma)
                       else wp2 / (xi * (xi + mpf(model.gamma))))
            k = sqrt(q ** 2 - (xi / c) ** 2 + eps * (xi / c) ** 2)
            r = ((eps * q - k) / (eps * q + k), (q - k) / (q + k))
        else:
            z = {
                IdealMetal: lambda: mpf(0),
                NormalSkin: lambda: sqrt(xi / (4 * mp.pi
                                               * mpf(model.sigma))),
                AnomalousSkin: lambda: (4 / (3 * sqrt(3)) * mpf(model.c_a)
                                        * xi ** (mpf(2) / 3) / c),
                InfraredOptics: lambda: xi / sqrt(mpf(model.omega_p) ** 2
                                                  + xi ** 2),
            }[type(model)]()
            r = ((c * q - z * xi) / (c * q + z * xi),
                 (xi - z * c * q) / (xi + z * c * q))
        return tuple(float(1 - rp ** 2) for rp in r)


def x_factors(model: Model, geometry: Geometry,
              zeta: float, y: float) -> tuple[float, float]:
    """Scalar (X_par, X_perp) at one (zeta, y); requires y > 0."""
    if y <= 0.0:
        raise ValueError("y must be positive")
    xpar, xperp = x_factors_grid(model, geometry, zeta, np.array([y]))
    return float(xpar[0]), float(xperp[0])


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

    zeta_hi may be inf.  With B(lo) the energy's band above zeta = lo by
    `integrate_wedge` (B(inf) = 0) it is (B(zeta_lo) - B(zeta_hi)) / B(0),
    so windows partition additively.
    """
    lo, hi = window
    if lo < 0.0 or not hi > lo:
        raise ValueError("window must satisfy 0 <= zeta_lo < zeta_hi")
    check_range(geometry, ThermalState(0.0))
    g = partial(_free_energy_integrand, model, geometry)
    full, above_lo, above_hi = (
        integrate_wedge(g, z, tol.quadrature_rel_tol).value
        for z in (0.0, lo, hi))
    return (above_lo - above_hi) / full


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



def energy_T0_nested_quad(model, geometry: Geometry,
                          rel_tol: float = 1e-10) -> float:
    """Zero-temperature energy per area by nested scipy QUADPACK in the
    original order, zeta outside:

        E = (hbar c / 32 pi^2 a^3) int_0^Y dzeta int_zeta^(zeta+Y) dy
                y sum_p ln(1 - r_p^2 e^-y),    Y = 50,

    with r_p^2 written out in scaled variables at xi = c zeta / 2a: the
    impedance forms (y - Z zeta)/(y + Z zeta) and (zeta - Z y)/(zeta + Z y),
    and the Fresnel forms (eps y - w)/(eps y + w) and (y - w)/(y + w) with
    w = sqrt(y^2 + (eps - 1) zeta^2).  It shares neither the transparency
    factors nor the quadrature with the package; the truncated tail is
    below 1e-15 relative.

    Measured accuracy at the default rel_tol 1e-10, against
    `energy_T0` at tol 1e-13: 3.2e-12 relative for anomalous skin at
    10 um and 1.1e-11 at 1 mm; 2.6e-14 and 1.3e-13 for normal skin there.
    It therefore cannot check tol 1e-9 for the skin models at large
    separations, where `energy_T0`'s error estimate at that tol can be
    below 1e-12 of |E|.
    """
    from scipy import integrate

    a = geometry.separation

    def inner(zeta: float) -> float:
        xi = zeta * C_LIGHT / (2.0 * a)
        if isinstance(model, (Plasma, Drude)):
            eps = eps_imag_axis(model, xi)

            def r_sq(y):
                w = math.sqrt(y * y + (eps - 1.0) * zeta * zeta)
                return ((eps * y - w) / (eps * y + w)) ** 2, \
                    ((y - w) / (y + w)) ** 2
        else:
            z = _impedance(model, xi)

            def r_sq(y):
                return ((y - z * zeta) / (y + z * zeta)) ** 2, \
                    ((zeta - z * y) / (zeta + z * y)) ** 2

        def g(y: float) -> float:
            r_par_sq, r_perp_sq = r_sq(y)
            damp = math.exp(-y)
            return y * (math.log1p(-r_par_sq * damp)
                        + math.log1p(-r_perp_sq * damp))

        return integrate.quad(g, zeta, zeta + 50.0, epsabs=0.0,
                              epsrel=0.1 * rel_tol, limit=200)[0]

    outer = integrate.quad(inner, 0.0, 50.0, epsabs=0.0, epsrel=rel_tol,
                           limit=200)[0]
    return HBAR * C_LIGHT / (32.0 * math.pi ** 2 * a ** 3) * outer


def band_nested_quad(g, lo: float, upper: float,
                     rel_tol: float = 1e-13) -> float:
    """int_lo^upper dzeta int_zeta^upper dy g(zeta, y), zeta outside, by
    scipy's adaptive `quad` over zeta; each inner y-integral is one call of
    g on a composite 30-point Gauss-Legendre rule over 6 panels, edges at
    y - zeta = 0, 0.02, 0.05, 0.1, 0.25, 0.5 and 1 times upper - zeta.  For
    lo >= 0.2 the y-integrands are analytic, and on the bands of five
    models at 0.15, 1 and 20 um, F and P, lo in {0.2, 1, 5}, it agreed with
    scipy's adaptive 2-D `cubature` at rtol 1e-13 to 1e-15 relative.  It
    shares no rule, layout or error estimate with `integrate_wedge`.
    """
    from scipy import integrate

    x, w = np.polynomial.legendre.leggauss(30)
    frac = np.array([0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0])

    def inner(zeta: float) -> float:
        edges = zeta + (upper - zeta) * frac
        half = 0.5 * np.diff(edges)[:, None]
        y = (edges[:-1, None] + half * (1.0 + x)).ravel()
        return math.fsum((half * w).ravel() * g(np.full(1, zeta), y))

    return integrate.quad(inner, lo, upper, epsabs=0.0, epsrel=rel_tol,
                          limit=200)[0]


def free_energy_direct_ladder(model, geometry: Geometry, temperature: float,
                              rel_tol: float = 1e-11) -> float:
    """Free energy per area as the primed Matsubara sum of the y-integrals
    taken term by term up to l zeta_1 = 40, where the terms have fallen
    below e^-40 of the first: no stop rule and no Euler-Maclaurin
    remainder.  Each term is int_0^40 g(zeta_l, zeta_l + u) du by scipy's
    adaptive Gauss-Kronrod (21-point) rules on the pieces [0, 1], [1, 5]
    and [5, 40]: the l = 0 term, with its y ln y edge, by `quad`, and the
    others together by `quad_vec`, to rel_tol of the largest.  It shares
    no y-rule with the package; the terms are added with math.fsum.
    """
    a = geometry.separation
    return K_B * temperature / (8.0 * math.pi * a * a) * _direct_ladder(
        partial(_free_energy_integrand, model, geometry), geometry,
        temperature, rel_tol, 40.0)


def pressure_direct_ladder(model, geometry: Geometry, temperature: float,
                           rel_tol: float = 1e-11) -> float:
    """Pressure between the plates, -(k_B T / 8 pi a^3) times the primed
    Matsubara sum of the pressure integrand's y-integrals, by the rules of
    `free_energy_direct_ladder`: no stop rule and no remainder."""
    a = geometry.separation
    return -K_B * temperature / (8.0 * math.pi * a ** 3) * _direct_ladder(
        partial(_pressure_integrand, model, geometry), geometry,
        temperature, rel_tol, 40.0)


def entropy_direct_ladder(model, geometry: Geometry, temperature: float,
                          rel_tol: float = 1e-12) -> float:
    """Entropy per area -(k_B / 8 pi a^2) sum'_l h(zeta_l) up to l zeta_1 =
    45, each h(zeta_l) the y-integral of the package's entropy integrand by
    the rules of `free_energy_direct_ladder`: no stop rule and no
    remainder."""
    a = geometry.separation
    return -K_B / (8.0 * math.pi * a * a) * _direct_ladder(
        partial(_entropy_integrand, model, geometry), geometry, temperature,
        rel_tol, 45.0)


def _direct_ladder(g, geometry: Geometry, temperature: float,
                   rel_tol: float, top: float) -> float:
    """sum'_l int_0^40 g(zeta_l, zeta_l + u) du over l zeta_1 <= top."""
    from scipy import integrate

    a = geometry.separation
    zeta1 = 4.0 * math.pi * a * K_B * temperature / (HBAR * C_LIGHT)
    zeta = np.arange(1, math.ceil(top / zeta1) + 1) * zeta1
    first = integrate.quad(lambda u: g(np.zeros(1), np.array([u]))[0],
                           0.0, 40.0, epsabs=0.0, epsrel=rel_tol,
                           points=(1.0, 5.0), limit=200)[0]
    rest = integrate.quad_vec(lambda u: g(zeta, zeta + u), 0.0, 40.0,
                              epsabs=0.0, epsrel=rel_tol, norm="max",
                              points=(1.0, 5.0))[0]
    return math.fsum([0.5 * first, *rest.tolist()])


def entropy_richardson(model, geometry: Geometry, state: ThermalState,
                       tol) -> ResultValue:
    """S = -dF/dT by one Richardson level over central differences of
    `free_energy` with steps h and h/2, h = 1e-3 T: four free energies, at
    T -+ h and T -+ h/2.  The error is the Richardson correction plus the
    propagated free-energy errors over h, so it grows like 1/T (at the
    default tol it is 1.9e-14 J/(m^2 K) at 1 K and 1 um for infrared
    optics).  T -+ h must lie inside `check_range`.
    """
    temp, h = state.temperature, 1e-3 * state.temperature

    def diff(step: float) -> tuple[float, float]:
        lo = free_energy(model, geometry, ThermalState(temp - step), tol)
        hi = free_energy(model, geometry, ThermalState(temp + step), tol)
        d = (lo.value - hi.value) / (2.0 * step)
        return d, (lo.numeric_error + hi.numeric_error) / (2.0 * step)

    d1, _ = diff(h)
    d2, sigma2 = diff(0.5 * h)
    value = (4.0 * d2 - d1) / 3.0
    return ResultValue(Quantity.ENTROPY_PER_AREA, value,
                       abs(value - d2) + sigma2, {"step": h})


def x_factors_out_of_place(model, geometry: Geometry, zeta, y):
    """(X_par, X_perp) = 4 y u / (y + u)^2 on ``model.fresnel_inputs``."""
    u_par, u_perp = model.fresnel_inputs(geometry, zeta, y)
    y4 = 4.0 * y
    return y4 * u_par / (y + u_par) ** 2, y4 * u_perp / (y + u_perp) ** 2


def free_energy_integrand_out_of_place(model, geometry: Geometry, zeta, y):
    """y sum_p log1p((X_p - 1) e^-y), the ln(1 - r_p^2 e^-y) form."""
    xpar, xperp = x_factors_out_of_place(model, geometry, zeta, y)
    em = np.exp(-y)
    return y * (np.log1p((xpar - 1.0) * em) + np.log1p((xperp - 1.0) * em))


def free_energy_integrand_expm1_form(model, geometry: Geometry, zeta, y):
    """y [2 ln(1 - e^-y) + sum_p ln(1 + X_p / (e^y - 1))]."""
    xpar, xperp = x_factors_out_of_place(model, geometry, zeta, y)
    em = np.exp(-y)
    with np.errstate(over="ignore"):  # y > 709: 1/inf = 0
        t = 1.0 / np.expm1(y)
    return y * (2.0 * np.log1p(-em)
                + np.log1p(xpar * t) + np.log1p(xperp * t))


def pressure_integrand_out_of_place(model, geometry: Geometry, zeta, y):
    """y^2 sum_p (1 - X_p) e^-y / ((1 - e^-y) + X_p e^-y)."""
    xpar, xperp = x_factors_out_of_place(model, geometry, zeta, y)
    em = np.exp(-y)
    one_minus_em = -np.expm1(-y)
    par = (1.0 - xpar) * em / (one_minus_em + xpar * em)
    perp = (1.0 - xperp) * em / (one_minus_em + xperp * em)
    return y * y * (par + perp)
