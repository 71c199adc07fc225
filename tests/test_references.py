"""Every record of the benchmark's `t0_grid` and `thermal_grid` workloads
against `perfbench/references.json`, at three tolerances.

The cells, the material and the models are the benchmark's: the grids are
read from `perfbench/grids.py` (pure data), the models built as
`perfbench/run.py` builds them.  Each value must be within rel_tol of its
reference and within its own error estimate, the rule of the benchmark's
`tol_met_frac` and `err_cover_frac`.  The references come from scipy
`quad` at an outer rel_tol of 1e-12, so they can judge rel_tol down to
~1e-11.
"""

import importlib.util
import json
import warnings
from pathlib import Path

import pytest

import casimir_impedance as ci

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _grids():
    spec = importlib.util.spec_from_file_location(
        "perfbench_grids", PERFBENCH / "grids.py")
    grids = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grids)
    return grids


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-10])
def test_benchmark_records_are_within_tol_and_covered(rel_tol):
    grids = _grids()
    refs = json.loads((PERFBENCH / "references.json").read_text())["values"]
    mat = grids.MATERIAL
    gold = ci.MaterialParams(plasma_frequency=mat["omega_p"],
                             fermi_velocity=mat["v_f"])
    models = {
        "infrared-optics": ci.InfraredOptics(gold.plasma_frequency),
        "anomalous-skin": ci.AnomalousSkin(ci.derive_anomalous_constant(gold)),
        "normal-skin": ci.NormalSkin(ci.sigma_gaussian_from_si(
            mat["sigma_si"])),
        "lifshitz-plasma": ci.Plasma(gold.plasma_frequency),
        "lifshitz-drude": ci.Drude(gold.plasma_frequency, mat["gamma"]),
    }
    tol = ci.ToleranceConfig(rel_tol)
    checked, misses = 0, []
    for cell in grids.cells("t0_grid") + grids.cells("thermal_grid"):
        kind, name, temperature = cell["kind"], cell["model"], cell["T"]
        ref_kind = {"energy_T0": "E", "free_energy": "F"}.get(
            kind, "P0" if temperature == 0.0 else "P")
        for a in cell["separations"]:
            geometry, state = ci.Geometry(a), ci.ThermalState(temperature)
            with warnings.catch_warnings():  # 0.1 um: below the plasma
                warnings.simplefilter("ignore", UserWarning)  # wavelength
                res = (ci.energy_T0(models[name], geometry, tol)
                       if kind == "energy_T0" else
                       ci.free_energy(models[name], geometry, state, tol)
                       if kind == "free_energy" else
                       ci.pressure_plates(models[name], geometry, state, tol))
            ref = refs[f"{ref_kind}|{name}|{a!r}|{temperature!r}"]
            dev = abs(res.value - ref)
            checked += 1
            if not (dev <= rel_tol * abs(ref) and dev <= res.numeric_error):
                misses.append((kind, name, a, temperature, dev / abs(ref),
                               res.numeric_error / dev))
    assert checked == 120 + 384
    assert not misses, misses
