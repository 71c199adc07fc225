"""Record grids of the three benchmark workloads.

Pure data, shared by `run.py` (which draws records from these grids) and
`make_references.py` (which computes a reference value for every point).
Neither the package nor anything that imports it is loaded here.

Every cell is one kind of record (an observable, a model, a temperature,
or one CLI command line) with its own list of separations.  The list is
split into `BINS` contiguous bins of increasing separation; a run visits
the bins of a cell in rotation, so each round of a run has the same mix
of cheap and costly separations whatever the seed.
"""

from __future__ import annotations

import math

BINS = 4

# Gold as used throughout the package documentation, plus the two
# parameters that only the normal-skin and Drude models need.
MATERIAL = {
    "omega_p": 1.37e16,   # rad/s
    "v_f": 1.4e6,         # m/s
    "sigma_si": 4.1e7,    # S/m; the normal-skin model takes Gaussian units
    "gamma": 5.3e13,      # rad/s, Drude relaxation frequency
}

SPHERE_RADIUS = 1e-3      # m, far above 100 a for every separation below
ZERO_FREQ_KPERP = "1e5:1e8:7"


def geomspace(lo: float, hi: float, n: int) -> list[float]:
    """Log-spaced points.  Written out so that importing this module loads
    no numpy: `setup_s` times the numpy import."""
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(k * step) for k in range(n - 1)] + [hi]


def _t0_cells() -> list[dict]:
    seps = geomspace(0.1e-6, 10e-6, 12)
    models = ("infrared-optics", "anomalous-skin", "normal-skin",
              "lifshitz-plasma", "lifshitz-drude")
    return [{"kind": kind, "model": m, "T": 0.0, "group": m,
             "separations": seps}
            for m in models for kind in ("energy_T0", "pressure")]


def _thermal_cells() -> list[dict]:
    seps = geomspace(0.15e-6, 5e-6, 12)
    models = ("infrared-optics", "lifshitz-plasma", "lifshitz-drude",
              "anomalous-skin")
    return [{"kind": kind, "model": m, "T": T, "group": f"T={T:g}",
             "separations": seps}
            for T in (3.0, 10.0, 70.0, 300.0) for m in models
            for kind in ("free_energy", "pressure")]


def _cli_cells() -> list[dict]:
    # 12 of the 40 log-spaced separations of the README sweep (0.15-5 um),
    # spread evenly: three a bin, so one cycle of a run covers them all
    sweep40 = geomspace(0.15e-6, 5e-6, 40)
    readme = [sweep40[round(k * 39 / 11)] for k in range(12)]
    return [
        {"kind": "sweep", "models": ["infrared-optics", "anomalous-skin"],
         "temperatures": [0.0, 70.0, 300.0], "group": "sweep",
         "separations": readme},
        {"kind": "pressure", "model": "infrared-optics", "T": 70.0,
         "group": "pressure", "separations": readme},
        {"kind": "sphere-plate", "model": "infrared-optics", "T": 300.0,
         "radius": SPHERE_RADIUS, "group": "sphere-plate",
         "separations": readme},
        # entropy is a difference quotient of free energies: at 300 K and
        # the default tolerance its own error estimate is 39% of the value
        # at 0.3 um and 550% at 0.15 um, but below 2% from 1 um up
        {"kind": "entropy", "model": "infrared-optics", "T": 300.0,
         "group": "entropy", "separations": geomspace(1e-6, 5e-6, 12)},
        {"kind": "regime", "T": 300.0, "group": "regime",
         "separations": readme},
        {"kind": "zero-freq", "group": "zero-freq", "separations": [None]},
    ]


WORKLOADS = {
    "t0_grid": _t0_cells,
    "thermal_grid": _thermal_cells,
    "cli_mixed": _cli_cells,
}


def cells(workload: str) -> list[dict]:
    return WORKLOADS[workload]()
