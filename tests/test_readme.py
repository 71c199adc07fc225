"""The README's library example runs against the current API, and the
costs it quotes for a low-temperature record, for the T = 0 wedge, for the
lean band layout and for the benchmark's `thermal_grid` are the current
ones."""

import importlib.util
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[2] == "Regime.ANOMALOUS_SKIN"
    # the `records` rows at T = 0 (no correction) and at 300 K
    assert lines[3] == "0.0 None ok"
    temp, correction, status = lines[4].split()
    assert (temp, status) == ("300.0", "ok") and float(correction) > 0.0


def test_quoted_low_temperature_record_cost():
    # the figures the README quotes for the 3 K, 0.15 um record (default
    # tol, infrared optics): the floor, the y-integrals, the band's points
    # and the total are recomputed, so the quoted cost cannot go stale
    from casimir_impedance import (
        GOLD, Geometry, InfraredOptics, ThermalState, free_energy,
    )
    from casimir_impedance.observables import check_range

    text = " ".join(README.read_text().split())
    quote = re.search(
        r"at 3 K and 0\.15 um the floor alone asks for ([\d,]+) terms, and "
        r"a record now costs (\d+) `y`-integrals and one ([\d,]+)-point "
        r"band \(([\d,]+) points\) at the default tolerance", text)
    floor, terms, band, points = (int(g.replace(",", ""))
                                  for g in quote.groups())
    geometry, state = Geometry(0.15e-6), ThermalState(3.0)
    res = free_energy(InfraredOptics(GOLD.plasma_frequency), geometry, state)
    assert math.ceil(10.0 / check_range(geometry, state)) == floor
    assert res.diagnostics["terms_used"] == terms
    assert res.diagnostics["evaluations"] == points
    assert points - band == terms * 75  # 5 panels x 15 nodes a row


def test_quoted_wedge_layout_and_level_zero_cost():
    # the wedge bullet's y layout, its level-0 point count and its "N
    # values instead of M" (one value per y node against every point) are
    # recomputed from the rule, so they cannot go stale either
    import numpy as np
    from casimir_impedance import quadrature

    text = " ".join(README.read_text().split())
    y0, panels, points = re.search(
        r"every pair of a `y` panel \(`\[0, Y/(\d+)\]`, then (\d+) "
        r"geometric panels .*?\): ([\d,]+) points\.", text).groups()
    y_values, per_point = re.search(
        r"once per `y` node, ([\d,]+) values instead of ([\d,]+) at level 0",
        text).groups()
    y_nodes = []  # one y per y node and call

    def f(zeta, y):
        y_nodes.append(y.size)
        return (zeta + y) * np.exp(-y)

    res = quadrature.integrate_wedge(f, 0.0, 1e-6)
    y_nodes = sum(y_nodes)
    edges, s_edges, _ = quadrature.WEDGE_GRADED  # y - lo = (Y - lo) t
    assert res.evaluations == y_nodes * 15 * (len(s_edges) - 1)
    assert (1.0 / int(y0), int(panels)) == (edges[1], len(edges) - 2)
    assert int(points.replace(",", "")) == res.evaluations
    assert int(per_point.replace(",", "")) == res.evaluations
    assert int(y_values.replace(",", "")) == y_nodes


def test_quoted_lean_band_layout_and_cost():
    # the lean layout's y panels (as y - lo at Y - lo = 40), its single s
    # panel and its level-0 points, and the switch at lo = 0.2
    import numpy as np
    from casimir_impedance import quadrature

    text = " ".join(README.read_text().split())
    lo, y_panels, points = re.search(
        r"A band from `lo = ([\d.]+)` up .*? lean layout \(`WEDGE_LEAN`.*?: "
        r"3 `y` panels, `y - lo` in ((?:`\[\d+, \d+\]`(?:,)? (?:and )?)+)"
        r"at `Y - lo = 40`, times one ungraded `s` panel, .*?: ([\d,]+) "
        r"points at level 0", text).groups()
    y_edges, s_edges, p = quadrature.WEDGE_LEAN
    quoted = [tuple(map(int, m)) for m in re.findall(r"(\d+), (\d+)",
                                                        y_panels)]
    assert quoted == [(round(40 * a), round(40 * b))
                      for a, b in zip(y_edges, y_edges[1:])]
    assert (s_edges, p) == ((0.0, 1.0), 1)

    def f(zeta, y):
        return (zeta + y) * np.exp(-y)

    lo = float(lo)
    assert quadrature.integrate_wedge(f, lo, 1e-6).evaluations == int(
        points.replace(",", ""))
    assert quadrature.integrate_wedge(
        f, math.nextafter(lo, 0.0), 1e-6).evaluations == 4725


def test_quoted_thermal_grid_points_per_record():
    # the mean points per `thermal_grid` record at the default tol and at
    # 1e-10, over the benchmark's own grid and models, and the first
    # separation of the 3 K sweep whose band takes the lean layout
    import casimir_impedance as ci
    from casimir_impedance.observables import check_range

    spec = importlib.util.spec_from_file_location(
        "perfbench_grids", ROOT / "perfbench" / "grids.py")
    grids = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grids)
    text = " ".join(README.read_text().split())
    default, tight = (int(g.replace(",", "")) for g in re.search(
        r"On the benchmark's `thermal_grid` a record evaluates ([\d,]+) "
        r"points on average at the default tolerance and ([\d,]+) at 1e-10",
        text).groups())
    mat = grids.MATERIAL
    gold = ci.MaterialParams(plasma_frequency=mat["omega_p"],
                             fermi_velocity=mat["v_f"])
    models = {"infrared-optics": ci.InfraredOptics(gold.plasma_frequency),
              "anomalous-skin": ci.AnomalousSkin(
                  ci.derive_anomalous_constant(gold)),
              "lifshitz-plasma": ci.Plasma(gold.plasma_frequency),
              "lifshitz-drude": ci.Drude(gold.plasma_frequency,
                                         mat["gamma"])}
    for quoted, rel_tol in ((default, 1e-6), (tight, 1e-10)):
        points = []
        for cell in grids.cells("thermal_grid"):
            f = (ci.free_energy if cell["kind"] == "free_energy"
                 else ci.pressure_plates)
            for a in cell["separations"]:
                res = f(models[cell["model"]], ci.Geometry(a),
                        ci.ThermalState(cell["T"]),
                        ci.ToleranceConfig(rel_tol))
                points.append(res.diagnostics["evaluations"])
        assert round(sum(points) / len(points)) == quoted, rel_tol
    first = float(re.search(r"the bands from ([\d.]+) um up start above "
                            r"`zeta = 0.2`", text).group(1))
    lean = []
    for a in grids.geomspace(0.15e-6, 5e-6, 40):
        geometry, state = ci.Geometry(a), ci.ThermalState(3.0)
        diag = ci.free_energy(models["infrared-optics"], geometry,
                              state).diagnostics
        assert diag["tail"] == "euler_maclaurin"  # lo = L zeta_1
        if (diag["terms_used"] - 1) * check_range(geometry, state) >= 0.2:
            lean.append(a)
    assert round(lean[0] * 1e6, 2) == first


def test_material_file_example_loads(tmp_path, capsys):
    # the README's material file, verbatim: '#' starts a comment anywhere
    # on a line, so the optional sigma and c_a are read, and the CLI runs
    # normal skin on it
    from casimir_impedance import MaterialParams
    from casimir_impedance.cli import main

    section = README.read_text().split("## Material files", 1)[1]
    path = tmp_path / "gold_like.txt"
    path.write_text(re.search(r"```\n(.*?)```", section, re.S).group(1))
    mat = MaterialParams.from_file(path)
    assert (mat.plasma_frequency, mat.fermi_velocity) == (1.37e16, 1.4e6)
    assert (mat.conductivity, mat.anomalous_constant) == (2.1e17, 8.8e-4)
    assert main(["energy", "--material", str(path), "--model", "normal-skin",
                 "--separation", "1e-6"]) == 0
    assert "error" not in capsys.readouterr().err


def test_readme_lists_every_diagnostics_key():
    # every key the library puts in a result's diagnostics, collected at
    # runtime from E, P, S, sphere-plate, thermal-correction and F records
    # (F at T = 0 and with both remainders), is one line of the README's
    # list, and the list names no other
    import casimir_impedance as ci

    model = ci.InfraredOptics(ci.GOLD.plasma_frequency)
    near, far = ci.Geometry(0.15e-6, 1e-3), ci.Geometry(1e-6, 1e-3)
    cold, room, zero = (ci.ThermalState(t) for t in (3.0, 300.0, 0.0))
    results = [ci.energy_ideal(far), ci.energy_T0(model, far),
               ci.pressure_plates(model, far, zero),
               ci.pressure_plates(model, far, room),
               ci.entropy(model, far, room),
               ci.force_sphere_plate(model, far, room),
               ci.thermal_correction(model, far, room),
               ci.free_energy(model, far, zero),
               ci.free_energy(model, far, room),
               ci.free_energy(model, near, cold)]
    assert {r.diagnostics["tail"] for r in results[-2:]} == {
        "geometric", "euler_maclaurin"}
    keys = {k for r in results for k in r.diagnostics}
    section = README.read_text().split(
        "Every result carries a `diagnostics` mapping", 1)[1]
    listed = re.findall(r"^\* `(\w+)`:", section.split("\n\n", 2)[1], re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == keys
