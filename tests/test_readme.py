"""The README's library example runs against the current API, and the
costs it quotes for a low-temperature record and for the T = 0 wedge are
the current ones."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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

    res = quadrature.integrate_wedge(f, quadrature.tail_cutoff(0.0, 1e-6),
                                     1e-6)
    y_nodes = sum(y_nodes)
    s_nodes = 15 * (len(quadrature._WEDGE_S_EDGES) - 1)
    assert res.evaluations == y_nodes * s_nodes
    edges = quadrature._WEDGE_Y_EDGES  # on [0, 1], y - lo = (Y - lo) t
    assert (1.0 / int(y0), int(panels)) == (edges[1], len(edges) - 2)
    assert int(points.replace(",", "")) == res.evaluations
    assert int(per_point.replace(",", "")) == res.evaluations
    assert int(y_values.replace(",", "")) == y_nodes


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
