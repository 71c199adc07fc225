"""Every error estimate against an independent value, on random inputs.

Free energies and pressures of five reflection models at separations and
temperatures drawn from a seeded numpy generator, each checked against
`oracles.free_energy_direct_ladder` or `oracles.pressure_direct_ladder`,
which sum every Matsubara term up to l zeta_1 = 40 with scipy's y-rules
and share no stop rule, remainder or y-rule with the package.
"""

import numpy as np

from casimir_impedance.physcore import (
    GOLD, Geometry, ThermalState, ToleranceConfig, derive_anomalous_constant,
)
from casimir_impedance.reflection import (
    AnomalousSkin, Drude, InfraredOptics, NormalSkin, Plasma,
)
from casimir_impedance.observables import (
    check_range, free_energy, pressure_plates,
)
from oracles import free_energy_direct_ladder, pressure_direct_ladder

MODELS = (InfraredOptics(GOLD.plasma_frequency), Plasma(GOLD.plasma_frequency),
          Drude(GOLD.plasma_frequency, 5.3e13),
          AnomalousSkin(derive_anomalous_constant(GOLD)), NormalSkin(3.2e17))
TOLS = (1e-3, 1e-4, 1e-6, 1e-8)


def _draws(seed: int, n: int, t_min: float = 10.0):
    """(model, a, T, tol): a and T log-uniform in 0.15-5 um and t_min-300
    K, tol one of TOLS."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        model = MODELS[rng.integers(len(MODELS))]
        a, temperature = np.exp(rng.uniform(np.log([0.15e-6, t_min]),
                                            np.log([5e-6, 300.0])))
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
