"""Every error estimate against an independent value, on random inputs.

Free energies, pressures, entropies and T = 0 energies of five reflection
models at separations and temperatures drawn from a seeded numpy
generator.  The thermal ones are checked against
`oracles.free_energy_direct_ladder`, `oracles.pressure_direct_ladder` or
`oracles.entropy_direct_ladder`, which sum every Matsubara term up to l
zeta_1 = 40 (45) with scipy's y-rules and share no stop rule, remainder or
y-rule with the package; the energies against
`oracles.energy_T0_nested_quad`, nested scipy `quad` in the original
order.
"""

import numpy as np

from casimir_impedance.physcore import (
    GOLD, Geometry, ThermalState, ToleranceConfig, derive_anomalous_constant,
)
from casimir_impedance.reflection import (
    AnomalousSkin, Drude, InfraredOptics, NormalSkin, Plasma,
)
from casimir_impedance.observables import (
    check_range, energy_T0, entropy, free_energy, pressure_plates,
)
from oracles import (
    energy_T0_nested_quad, entropy_direct_ladder, free_energy_direct_ladder,
    pressure_direct_ladder,
)

MODELS = (InfraredOptics(GOLD.plasma_frequency), Plasma(GOLD.plasma_frequency),
          Drude(GOLD.plasma_frequency, 5.3e13),
          AnomalousSkin(derive_anomalous_constant(GOLD)), NormalSkin(3.2e17))
TOLS = (1e-3, 1e-4, 1e-6, 1e-8)


def _draws(seed: int, n: int, t_min: float = 10.0,
           a_range: tuple = (0.15e-6, 5e-6)):
    """(model, a, T, tol): a and T log-uniform in a_range and t_min-300 K,
    tol one of TOLS."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        model = MODELS[rng.integers(len(MODELS))]
        a, temperature = np.exp(rng.uniform(np.log([a_range[0], t_min]),
                                            np.log([a_range[1], 300.0])))
        yield model, float(a), float(temperature), TOLS[rng.integers(4)]


def test_free_energy_draw_is_within_tol_and_covered():
    # 100 draws: every value is within tol of the oracle (itself good to
    # ~1e-11) and within its own error estimate
    misses = []
    for model, a, temperature, tol in _draws(1, 100):
        geometry = Geometry(a)
        res = free_energy(model, geometry, ThermalState(temperature),
                          ToleranceConfig(tol))
        ref = free_energy_direct_ladder(model, geometry, temperature)
        dev = abs(res.value - ref)
        if not (dev <= tol * abs(ref) and dev <= res.numeric_error):
            misses.append((type(model).__name__, a, temperature, tol,
                           dev / abs(ref), res.numeric_error / dev,
                           res.diagnostics["terms_used"]))
    assert not misses, misses


def test_pressure_draw_is_within_tol_and_covered():
    # 100 draws from 3 K up, so that the Euler-Maclaurin bands of the
    # ladders that hand off start on both sides of zeta = 0.2, where
    # `observables._band` changes layout
    misses, lean = [], set()
    for model, a, temperature, tol in _draws(1, 100, 3.0):
        geometry, state = Geometry(a), ThermalState(temperature)
        res = pressure_plates(model, geometry, state, ToleranceConfig(tol))
        ref = pressure_direct_ladder(model, geometry, temperature)
        dev = abs(res.value - ref)
        if res.diagnostics["tail"] == "euler_maclaurin":  # lo = L zeta_1
            lean.add((res.diagnostics["terms_used"] - 1)
                     * check_range(geometry, state) >= 0.2)
        if not (dev <= tol * abs(ref) and dev <= res.numeric_error):
            misses.append((type(model).__name__, a, temperature, tol,
                           dev / abs(ref), res.numeric_error / dev,
                           res.diagnostics["terms_used"]))
    assert not misses, misses
    assert lean == {False, True}


def test_entropy_draw_is_covered():
    # 20 draws: every value is within its own error estimate.  Not within
    # tol of |S|: the terms of the entropy's ladder cancel.  The draws
    # reach ladders with zeta_1 < 10/63, whose floor ceil(10 / zeta_1) is
    # 64 or more, so that they hand off at l = 16 or 32
    misses, early = [], 0
    for model, a, temperature, tol in _draws(1, 20):
        geometry = Geometry(a)
        res = entropy(model, geometry, ThermalState(temperature),
                      ToleranceConfig(tol))
        ref = entropy_direct_ladder(model, geometry, temperature)
        early += (res.diagnostics["tail"] == "euler_maclaurin"
                  and res.diagnostics["terms_used"] <= 33)
        if not abs(res.value - ref) <= res.numeric_error:
            misses.append((type(model).__name__, a, temperature, tol,
                           abs(res.value - ref) / abs(ref),
                           res.diagnostics["terms_used"]))
    assert not misses, misses
    assert early


def test_energy_draw_is_within_tol_and_covered():
    # 9 draws at T = 0 from 1-10 um, where the nested-quad oracle is good
    # to 3.2e-12 of |E| or better (its docstring) and takes 20-30 ms a value
    # (0.2-0.5 s for the skin models); the error estimates reach down to
    # ~5e-12 of |E| at tol 1e-8
    misses = []
    for model, a, _, tol in _draws(1, 9, a_range=(1e-6, 10e-6)):
        geometry = Geometry(a)
        res = energy_T0(model, geometry, ToleranceConfig(tol))
        ref = energy_T0_nested_quad(model, geometry)
        dev = abs(res.value - ref)
        if not (dev <= tol * abs(ref) and dev <= res.numeric_error):
            misses.append((type(model).__name__, a, tol, dev / abs(ref),
                           res.numeric_error / dev))
    assert not misses, misses
