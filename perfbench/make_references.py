"""Compute the committed reference values of the benchmark workloads.

    python3 perfbench/make_references.py [--jobs 2]

writes perfbench/references.json.  Run it once; the benchmark only reads
the result.

The route is independent of the package: the Lifshitz formulas are
written out here in scalar form from the theory (reflection coefficients
through the transparency factors X = 1 - r^2, the Lifshitz free energy,
energy and pressure in the scaled variables zeta = 2 a xi / c and
y = 2 a q) and integrated with scipy.integrate.quad (QUADPACK) at
relative tolerance 1e-13 (absolute floor 1e-17) for the inner y-integral
and 1e-12 for the outer zeta-integral.  Matsubara sums run term by term
until the geometric bound on the remainder is below 1e-16 of the sum;
nothing is extrapolated.  The
entropy S = -dF/dT is differentiated analytically in T, with dX/dzeta
taken by the complex step, so it carries no finite-difference error.
Before writing, the same code is checked against the ideal-metal closed
forms (energy, pressure and the free-energy series) to 1e-11.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import time
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate

sys.path.insert(0, str(Path(__file__).resolve().parent))
import grids  # noqa: E402

HBAR = 1.054571817e-34       # J s (CODATA 2018)
C = 299792458.0              # m/s
KB = 1.380649e-23            # J/K
EPS0 = 8.8541878128e-12      # F/m

Y_SPAN = 50.0                # integrands decay like e^-y: e^-50 ~ 2e-22
INNER_TOL = 1e-13
# absolute floor of every y-integral; the scaled integrals are O(1) at small
# zeta, and the floor keeps QUADPACK from chasing 1e-13 relative accuracy
# on the e^-50-sized integrals near the cutoff, which it cannot reach
INNER_ABS = 1e-17
OUTER_TOL = 1e-12
SUM_TOL = 1e-16
OUT = Path(__file__).resolve().parent / "references.json"


def _impedance(model: str, xi):
    """Z(i xi) of the Leontovich impedance models; xi may be complex."""
    mat = grids.MATERIAL
    if model == "normal-skin":
        sigma_g = mat["sigma_si"] / (4.0 * math.pi * EPS0)
        return (xi / (4.0 * math.pi * sigma_g)) ** 0.5
    if model == "anomalous-skin":
        omega_t = mat["v_f"] * mat["omega_p"] / C
        c_a = (C / mat["omega_p"]) * omega_t ** (1.0 / 3.0)
        return 4.0 / (3.0 * math.sqrt(3.0)) * c_a * xi ** (2.0 / 3.0) / C
    if model == "infrared-optics":
        return xi / (mat["omega_p"] ** 2 + xi * xi) ** 0.5
    raise ValueError(model)


def transparency(model: str, a: float, zeta, y: float):
    """(X_par, X_perp) = (1 - r_TM^2, 1 - r_TE^2) at scaled frequency zeta
    and scaled wavenumber y.  zeta = 0 takes the analytic limits; a
    complex zeta (complex step) is allowed for zeta > 0."""
    if model == "ideal":
        return 0.0, 0.0
    omega_p = grids.MATERIAL["omega_p"]
    wp = 2.0 * a * omega_p / C
    if model in ("normal-skin", "anomalous-skin", "infrared-optics"):
        if zeta == 0:
            if model != "infrared-optics":
                return 0.0, 0.0
            alpha = C / (2.0 * a * omega_p)
            return 0.0, 4.0 * alpha * y / (1.0 + alpha * y) ** 2
        z = _impedance(model, zeta * C / (2.0 * a))
        num = 4.0 * zeta * y * z
        return num / (y + zeta * z) ** 2, num / (zeta + y * z) ** 2
    # Fresnel: w = 2 a k, k^2 = k_perp^2 + eps xi^2/c^2, so
    # w^2 = y^2 + (eps - 1) zeta^2
    if model == "lifshitz-plasma":
        w = math.sqrt(y * y + wp * wp)
        inv_eps = zeta * zeta / (zeta * zeta + wp * wp)
    elif model == "lifshitz-drude":
        if zeta == 0:
            return 0.0, 1.0
        gamma = grids.MATERIAL["gamma"]
        xi = zeta * C / (2.0 * a)
        w = (y * y + wp * wp * xi / (xi + gamma)) ** 0.5
        inv_eps = xi * (xi + gamma) / (xi * (xi + gamma) + omega_p ** 2)
    else:
        raise ValueError(model)
    w_tm = w * inv_eps
    return 4.0 * y * w_tm / (y + w_tm) ** 2, 4.0 * y * w / (y + w) ** 2


def g_free(model, a, zeta, y):
    """y sum_p ln(1 - r_p^2 e^-y), written cancellation-free."""
    xpar, xperp = transparency(model, a, zeta, y)
    t = 1.0 / math.expm1(y)
    return y * (2.0 * math.log1p(-math.exp(-y))
                + math.log1p(xpar * t) + math.log1p(xperp * t))


def g_pressure(model, a, zeta, y):
    """y^2 sum_p r_p^2 e^-y / (1 - r_p^2 e^-y)."""
    xpar, xperp = transparency(model, a, zeta, y)
    em = math.exp(-y)
    one = -math.expm1(-y)
    return y * y * sum((1.0 - x) * em / (one + x * em) for x in (xpar, xperp))


def g_free_dzeta(model, a, zeta, y):
    """d/dzeta of g_free at fixed y, by the complex step on X."""
    h = 1e-20 * zeta
    xpar, xperp = transparency(model, a, complex(zeta, h), y)
    em1 = math.expm1(y)
    return y * sum((x.imag / h) / (em1 + x.real) for x in (xpar, xperp))


def _quad(f, lo, hi, tol, points, floor=0.0):
    """quad, accepting a roundoff warning only while QUADPACK's own error
    estimate stays below 1e-10 relative.  (The skin-effect impedances put
    a feature at y ~ zeta/Z into the y-integrand at tiny zeta, where
    QUADPACK stalls near 1e-11.)"""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        value, err = integrate.quad(f, lo, hi, epsabs=floor, epsrel=tol,
                                    limit=400, points=points)
    if caught and err > 1e-10 * abs(value) + floor:
        raise ArithmeticError(f"quad on [{lo!r}, {hi!r}]: {value!r} +- "
                              f"{err!r}: {caught[0].message}")
    return value


def inner(g, model, a, zeta):
    """int_zeta^inf g(zeta, y) dy."""
    return _quad(lambda y: g(model, a, zeta, y), zeta, zeta + Y_SPAN,
                 INNER_TOL, [zeta + 1.0, zeta + 4.0, zeta + 12.0], INNER_ABS)


def zero_temperature(g, model, a):
    """int_0^inf dzeta int_zeta^inf g dy."""
    return _quad(lambda z: inner(g, model, a, z), 0.0, Y_SPAN, OUTER_TOL,
                 [0.5, 2.0, 6.0, 15.0])


def zeta1(a, T):
    return 4.0 * math.pi * a * KB * T / (HBAR * C)


def matsubara(term, z1):
    """Primed sum 0.5 term(0) + sum_l term(l), stopped once the geometric
    bound on the remainder falls below SUM_TOL of the sum."""
    terms = [0.5 * term(0)]
    l = 0
    while True:
        l += 1
        t = term(l)
        terms.append(t)
        if l * z1 > 10.0 and abs(t) / -math.expm1(-z1) \
                <= SUM_TOL * abs(math.fsum(terms)):
            return math.fsum(terms)


def energy(model, a):
    return HBAR * C / (32.0 * math.pi ** 2 * a ** 3) \
        * zero_temperature(g_free, model, a)


def pressure_t0(model, a):
    return -HBAR * C / (32.0 * math.pi ** 2 * a ** 4) \
        * zero_temperature(g_pressure, model, a)


def free_energy(model, a, T):
    z1 = zeta1(a, T)
    s = matsubara(lambda l: inner(g_free, model, a, l * z1), z1)
    return KB * T / (8.0 * math.pi * a * a) * s


def pressure(model, a, T):
    z1 = zeta1(a, T)
    s = matsubara(lambda l: inner(g_pressure, model, a, l * z1), z1)
    return -KB * T / (8.0 * math.pi * a ** 3) * s


def entropy(model, a, T):
    """S = -dF/dT.  With F = (kT/8 pi a^2) sum' I(l zeta_1) and zeta_1
    proportional to T,  dF/dT = F/T + (k/8 pi a^2) sum_l zeta_l I'(zeta_l),
    I'(zeta) = -g(zeta, zeta) + int_zeta^inf dg/dzeta dy."""
    z1 = zeta1(a, T)

    def term(l):
        if l == 0:
            return 0.0
        z = l * z1
        return z * (inner(g_free_dzeta, model, a, z) - g_free(model, a, z, z))

    dsum = matsubara(term, z1)
    return -(free_energy(model, a, T) / T
             + KB / (8.0 * math.pi * a * a) * dsum)


def ideal_free_energy_series(a, T):
    """Closed series of the ideal-metal free energy (t = T/T_eff)."""
    e0 = -math.pi ** 2 * HBAR * C / (720.0 * a ** 3)
    t = T * 2.0 * a * KB / (HBAR * C)
    zeta3 = 1.2020569031595943
    total = [1.0, 45.0 / math.pi ** 3 * zeta3 * t ** 3, -t ** 4]
    for l in range(1, 200):
        x = math.pi * l / t
        if x > 350.0:
            break
        em = math.exp(-2.0 * x)
        total.append(45.0 / math.pi ** 3 * (
            2.0 * t ** 3 / l ** 3 * em / (1.0 - em)
            + math.pi * t ** 2 / l ** 2 * 4.0 * em / (1.0 - em) ** 2))
    return e0 * math.fsum(total)


TASKS = {"E": energy, "P0": pressure_t0, "F": free_energy, "P": pressure,
         "S": entropy}


def task_key(kind, model, a, T):
    return f"{kind}|{model}|{a!r}|{T!r}"


def _run(task):
    kind, model, a, T = task
    t0 = time.perf_counter()
    args = (model, a) if kind in ("E", "P0") else (model, a, T)
    value = TASKS[kind](*args)
    if not math.isfinite(value):
        raise ArithmeticError(f"non-finite reference for {task}")
    return task_key(*task), value, time.perf_counter() - t0


def self_check():
    """The integration route against the ideal-metal closed forms."""
    for a in (0.15e-6, 1e-6):
        checks = [
            (energy("ideal", a), -math.pi ** 2 * HBAR * C / (720 * a ** 3)),
            (pressure_t0("ideal", a),
             -math.pi ** 2 * HBAR * C / (240 * a ** 4)),
            (free_energy("ideal", a, 300.0),
             ideal_free_energy_series(a, 300.0)),
        ]
        for got, want in checks:
            if abs(got - want) > 1e-11 * abs(want):
                raise AssertionError(f"self-check failed at a={a}: "
                                     f"{got!r} vs {want!r}")


def tasks_for(cell) -> list[tuple]:
    kind = cell["kind"]
    out = []
    for a in cell["separations"]:
        if kind == "energy_T0":
            out.append(("E", cell["model"], a, 0.0))
        elif kind == "pressure":
            out.append(("P0", cell["model"], a, 0.0) if cell["T"] == 0.0
                       else ("P", cell["model"], a, cell["T"]))
        elif kind in ("free_energy", "sphere-plate"):
            out.append(("F", cell["model"], a, cell["T"]))
        elif kind == "entropy":
            out.append(("S", cell["model"], a, cell["T"]))
        elif kind == "sweep":
            for m in cell["models"]:
                out.append(("E", m, a, 0.0))
                out.extend(("F", m, a, T) for T in cell["temperatures"]
                           if T > 0.0)
    return out


def zero_freq_table() -> list[list]:
    """[formulation, k_perp, r_par^2, r_perp^2] from the closed limits."""
    start, stop, count = grids.ZERO_FREQ_KPERP.split(":")
    kperps = [float(k) for k in np.geomspace(float(start), float(stop),
                                             int(count))]
    wp = grids.MATERIAL["omega_p"]
    rows = []
    for name in ("impedance-normal", "impedance-anomalous",
                 "impedance-infrared", "lifshitz-plasma", "lifshitz-drude"):
        for k in kperps:
            if name == "impedance-infrared":
                perp = ((wp - C * k) / (wp + C * k)) ** 2
            elif name == "lifshitz-plasma":
                k0 = math.sqrt(k * k + (wp / C) ** 2)
                perp = ((k - k0) / (k + k0)) ** 2
            elif name == "lifshitz-drude":
                perp = 0.0
            else:
                perp = 1.0
            rows.append([name, k, 1.0, perp])
    return rows


def regime(a: float) -> str:
    """Which impedance applies: compare omega_c = c/2a with the transition
    frequency Omega = v_F omega_p / c (factor-2 window) and a with the
    plasma wavelength."""
    mat = grids.MATERIAL
    omega_c = C / (2.0 * a)
    omega_t = mat["v_f"] * mat["omega_p"] / C
    if omega_c > 2.0 * omega_t and a > 2.0 * math.pi * C / mat["omega_p"]:
        return "infrared-optics"
    if omega_c < 0.5 * omega_t:
        return "anomalous-skin"
    return "transition"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()

    self_check()
    tasks = sorted({t for w in grids.WORKLOADS for c in grids.cells(w)
                    for t in tasks_for(c)})
    values = {}
    start = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        # costliest first: low temperature and small separation
        order = sorted(tasks, key=lambda t: (t[3] or 1e9) * t[2])
        for i, (key, value, secs) in enumerate(
                pool.imap_unordered(_run, order)):
            values[key] = value
            print(f"[{i + 1}/{len(order)}] {key} = {value!r} "
                  f"({secs:.1f} s)", flush=True)
    refs = {
        "generator": "perfbench/make_references.py",
        "route": "scipy.integrate.quad, inner rel 1e-13 (abs 1e-17), "
                 "outer rel 1e-12; "
                 "direct Matsubara sums to a 1e-16 remainder bound",
        "material": grids.MATERIAL,
        "values": dict(sorted(values.items())),
        "zero_freq": zero_freq_table(),
        "regime": {repr(a): regime(a) for c in grids.cells("cli_mixed")
                   if c["kind"] == "regime" for a in c["separations"]},
    }
    OUT.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {len(values)} values to {OUT} in "
          f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
