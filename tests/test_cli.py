"""End-to-end tests of the command-line interface."""

import math

import pytest

from casimir_impedance import quadrature
from casimir_impedance.cli import CSV_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_ideal_single_point(capsys):
    code, out, _ = run(capsys, "energy", "--model", "ideal",
                       "--separation", "1e-6", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert float(row["energy_J_per_m2"]) == pytest.approx(-4.33e-10,
                                               rel=2e-3, abs=0.0)
    assert row["free_energy_J_per_m2"] == ""
    assert row["status"] == "ok"


def test_energy_gold_correction_factor(capsys):
    code, out, _ = run(capsys, "energy", "--material", "gold",
                       "--model", "infrared-optics",
                       "--separation", "0.2e-6", "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    assert float(row["correction_factor"]) == pytest.approx(0.689, rel=1e-2)


def test_missing_gamma_exits_2(capsys):
    code, _, err = run(capsys, "free-energy", "--model", "lifshitz-drude",
                       "--temperature", "300", "--separation", "1e-6")
    assert code == 2
    assert "--gamma" in err


def test_missing_sigma_exits_2(capsys):
    code, _, err = run(capsys, "energy", "--model", "normal-skin",
                       "--separation", "1e-6")
    assert code == 2
    assert "--sigma" in err or "sigma" in err


def test_unknown_model_lists_choices(capsys):
    code, _, err = run(capsys, "energy", "--model", "super-metal",
                       "--separation", "1e-6")
    assert code == 2
    assert "infrared-optics" in err


def test_unknown_material_suggests(capsys):
    code, _, err = run(capsys, "energy", "--material", "unobtainium",
                       "--separation", "1e-6")
    assert code == 2
    assert "gold" in err


def test_energy_rejects_positive_temperature(capsys):
    code, _, err = run(capsys, "energy", "--separation", "1e-6",
                       "--temperature", "300")
    assert code == 2
    assert "free-energy" in err


def test_free_energy_record_fields(capsys):
    code, out, _ = run(capsys, "free-energy", "--model", "infrared-optics",
                       "--separation", "1e-6", "--temperature", "300",
                       "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    assert float(row["free_energy_J_per_m2"]) < 0.0
    assert float(row["rel_thermal_correction"]) > 0.0
    assert int(row["terms_used"]) > 1


def test_sweep_csv_shape_order_and_determinism(capsys):
    argv = ("sweep", "--model", "infrared-optics,anomalous-skin",
            "--separation", "0.3e-6:1e-6:3", "--temperature", "0,300",
            "--rel-tol", "1e-6")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2  # byte-identical rerun
    lines = out1.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 3 * 2 * 2
    seps = [float(r["a_m"]) for r in rows]
    assert seps == sorted(seps)
    for i in range(0, len(rows), 4):
        temps = [float(r["T_K"]) for r in rows[i:i + 4]]
        assert temps == sorted(temps)
    for row in rows:
        assert row["status"] == "ok"
        if float(row["T_K"]) == 0.0:
            assert row["free_energy_J_per_m2"] == ""
        else:
            assert row["free_energy_J_per_m2"] != ""


def test_sweep_round_trip_single_point(capsys):
    code, out, _ = run(capsys, "sweep", "--model", "infrared-optics",
                       "--separation", "0.4e-6:0.5e-6:2",
                       "--temperature", "300", "--rel-tol", "1e-7")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    code, out2, _ = run(capsys, "free-energy", "--model", "infrared-optics",
                        "--separation", row["a_m"],
                        "--temperature", row["T_K"],
                        "--rel-tol", "1e-7", "--format", "csv")
    assert code == 0
    row2 = dict(zip(CSV_COLUMNS, out2.strip().split("\n")[1].split(",")))
    for col in ("energy_J_per_m2", "free_energy_J_per_m2",
                "correction_factor", "rel_thermal_correction"):
        assert math.isclose(float(row[col]), float(row2[col]),
                            rel_tol=1e-12)


def test_pressure_and_sphere_plate_records(capsys):
    code, out, _ = run(capsys, "pressure", "--model", "ideal",
                       "--separation", "1e-6", "--temperature", "0",
                       "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    assert float(row["pressure_N_per_m2"]) == pytest.approx(
        -1.30e-3, rel=1e-3, abs=0.0)
    code, out, _ = run(capsys, "sphere-plate", "--model", "ideal",
                       "--separation", "1e-6", "--radius", "1e-4",
                       "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    assert float(row["force_sphere_plate_N"]) == pytest.approx(
        -2.72e-13, rel=2e-3, abs=0.0)


def test_sphere_plate_requires_radius(capsys):
    code, _, err = run(capsys, "sphere-plate", "--model", "ideal",
                       "--separation", "1e-6")
    assert code == 2
    assert "--radius" in err


def test_entropy_command(capsys):
    code, out, _ = run(capsys, "entropy", "--model", "infrared-optics",
                       "--separation", "1e-6", "--temperature", "300",
                       "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    assert float(row["entropy_J_per_m2_K"]) > 0.0


def test_regime_report(capsys):
    code, out, _ = run(capsys, "regime", "--separation", "0.5e-6")
    assert code == 0
    assert "infrared-optics" in out
    assert "margin" in out
    code, out, _ = run(capsys, "regime", "--separation", "10e-6")
    assert code == 0
    assert "anomalous-skin" in out


def test_regime_warns_below_plasma_wavelength(capsys):
    with pytest.warns(UserWarning, match="plasma wavelength"):
        code, out, _ = run(capsys, "regime", "--separation", "0.1e-6")
    assert code == 0


def test_zero_freq_table(capsys):
    code, out, _ = run(capsys, "zero-freq", "--kperp", "1e6,1e7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "formulation,k_perp_rad_m,r_par_sq,r_perp_sq"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 5 * 2
    table = {(r[0], float(r[1])): (float(r[2]), float(r[3])) for r in rows}
    assert table[("impedance-normal", 1e6)] == (1.0, 1.0)
    assert table[("impedance-anomalous", 1e7)] == (1.0, 1.0)
    assert table[("lifshitz-drude", 1e6)] == (1.0, 0.0)
    assert table[("lifshitz-plasma", 1e7)][1] > 0.0
    wp = 1.37e16
    ck = 299792458.0 * 1e7 / wp  # dimensionless ck_perp/omega_p
    expected = ((1.0 - ck) / (1.0 + ck)) ** 2
    assert table[("impedance-infrared", 1e7)][1] == pytest.approx(
        expected, rel=1e-12)


def test_zero_freq_infrared_node(capsys):
    # r_perp^2 vanishes where c k_perp = omega_p
    k_at_wp = 1.37e16 / 299792458.0
    code, out, _ = run(capsys, "zero-freq", "--kperp", f"{k_at_wp:.17g}")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        if cells[0] == "impedance-infrared":
            assert float(cells[3]) < 1e-25


def test_output_file_and_grid_validation(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "energy", "--model", "ideal",
                     "--separation", "1e-6", "--format", "csv",
                     "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))
    assert "\r" not in text
    code, _, err = run(capsys, "sweep", "--model", "ideal",
                       "--separation", "1e-6:2e-6:1", "--temperature", "0")
    assert code == 2
    assert "count" in err
    code, _, err = run(capsys, "sweep", "--model", "ideal",
                       "--separation", "2e-6:1e-6:5", "--temperature", "0")
    assert code == 2
    assert "start < stop" in err
    for rel_tol in ("0", "0.5"):
        code, out, err = run(capsys, "energy", "--model", "ideal",
                             "--separation", "1e-6", "--rel-tol", rel_tol)
        assert code == 2 and out == ""
        assert "--rel-tol" in err


def test_human_format_default(capsys):
    code, out, _ = run(capsys, "energy", "--model", "ideal",
                       "--separation", "1e-6")
    assert code == 0
    assert "energy_J_per_m2 =" in out


def test_free_energy_routes_zero_temperature_to_energy(capsys):
    # --temperature 0 must use the continuous-spectrum integral: the record
    # carries the T = 0 energy and no Matsubara diagnostics
    code, out, _ = run(capsys, "free-energy", "--model", "infrared-optics",
                       "--separation", "1e-6", "--temperature", "0",
                       "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    assert row["free_energy_J_per_m2"] == ""
    assert row["terms_used"] == ""
    assert float(row["energy_J_per_m2"]) < 0.0


def test_nonconvergent_row_keeps_schema_and_exits_3(capsys, monkeypatch):
    from casimir_impedance import cli
    from casimir_impedance.quadrature import IntegralResult, \
        NonConvergenceError

    def explode(*args, **kwargs):
        raise NonConvergenceError("synthetic budget exhaustion",
                                  IntegralResult(0.0, 1.0, 1))

    # every observable command: (command, observables function it reaches,
    # its value column, the flags it needs)
    for command, function, column, *extra in (
            ("energy", "energy_T0", "energy_J_per_m2"),
            ("free-energy", "free_energy", "free_energy_J_per_m2",
             "--temperature", "300"),
            ("pressure", "pressure_plates", "pressure_N_per_m2"),
            ("sphere-plate", "force_sphere_plate", "force_sphere_plate_N",
             "--radius", "1e-4"),
            ("entropy", "entropy", "entropy_J_per_m2_K",
             "--temperature", "300")):
        with monkeypatch.context() as patch:
            patch.setattr(cli.obs, function, explode)
            code, out, _ = run(capsys, command, "--model", "ideal",
                               "--separation", "1e-6", *extra,
                               "--format", "csv")
        assert code == 3, command
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2, command
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row[column] == "", command
        assert row["status"].startswith("nonconvergence"), command


def test_nonfinite_integrand_fails_its_rows_only(capsys, monkeypatch):
    # a NaN from one model's X kernel fails that model's rows; the other
    # model's rows are the bytes of a sweep of that model alone
    import numpy as np

    from casimir_impedance import cli

    argv = ("sweep", "--separation", "1e-6", "--temperature", "0,300",
            "--rel-tol", "1e-4")
    _, alone, _ = run(capsys, *argv, "--model", "infrared-optics")
    with monkeypatch.context() as patch:
        patch.setattr(cli.obs, "lifshitz_x_grid",
                      lambda model, geometry, zeta, y:
                      (np.full(np.shape(y), np.nan),) * 2)
        code, out, _ = run(capsys, *argv,
                           "--model", "infrared-optics,lifshitz-plasma")
    assert code == 3
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    kept = [ln for ln, r in zip(lines[1:], rows)
            if r["model"] == "infrared-optics"]
    assert kept == alone.strip().split("\n")[1:]
    for row in rows:
        if row["model"] == "lifshitz-plasma":
            assert row["status"].startswith("nonfinite"), row
            assert all(row[col] == "" for col in CSV_COLUMNS[3:-1]), row


def test_byte_identical_output_across_thread_counts():
    # the numerical kernels avoid threaded reductions; CSV bytes must not
    # depend on the ambient thread configuration
    import os
    import subprocess
    import sys

    argv = [sys.executable, "-m", "casimir_impedance.cli", "free-energy",
            "--model", "anomalous-skin", "--separation", "0.4e-6",
            "--temperature", "300", "--format", "csv"]
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_sweep_reference_curve_endpoints(capsys):
    # the two-model T = 0 sweep reproduces the quoted correction factors
    # at its smallest separation
    code, out, _ = run(capsys, "sweep",
                       "--model", "infrared-optics,anomalous-skin",
                       "--separation", "0.15e-6:5e-6:2",
                       "--temperature", "0")
    assert code == 0
    rows = [dict(zip(CSV_COLUMNS, ln.split(",")))
            for ln in out.strip().split("\n")[1:]]
    at_150nm = {r["model"]: float(r["correction_factor"])
                for r in rows if float(r["a_m"]) < 0.2e-6}
    assert at_150nm["infrared-optics"] == pytest.approx(0.623, rel=1e-2)
    assert at_150nm["anomalous-skin"] == pytest.approx(0.851, rel=1e-2)


def test_material_file_flow(tmp_path, capsys):
    mat = tmp_path / "gold_like.txt"
    mat.write_text("omega_p=1.37e16\nv_f=1.4e6\nsigma=2e17\n")
    code, out, _ = run(capsys, "energy", "--material", str(mat),
                       "--model", "normal-skin", "--separation", "3e-6",
                       "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    assert 0.0 < float(row["correction_factor"]) <= 1.0
    bad = tmp_path / "bad.txt"
    bad.write_text("omega_p=1e16\nv_f=1e6\nspin=1\n")
    code, _, err = run(capsys, "energy", "--material", str(bad),
                       "--separation", "1e-6")
    assert code == 2
    assert "unknown key" in err


def test_large_separation_temperature_product_exits_0(capsys):
    # a*T so large that the first Matsubara frequency zeta_1 exceeds the
    # range of exp: the tail bound must stay finite instead of overflowing
    for argv in (("pressure", "--separation", "1e-2", "--temperature", "300"),
                 ("free-energy", "--separation", "1e-4",
                  "--temperature", "1e4")):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
        assert row["status"] == "ok"
        filled = [v for k, v in row.items()
                  if k not in ("model", "status") and v != ""]
        assert len(filled) >= 4
        assert all(math.isfinite(float(v)) for v in filled)


def test_csv_bytes_kept_by_the_euler_maclaurin_cap(capsys, monkeypatch):
    # T = 0 rows and ladders that stop before l = 64 print the same bytes
    # with the cap lifted; a 10 K row reaches it and prints its error, the
    # sum of the quadrature and tail parts
    import casimir_impedance.observables as obs
    from casimir_impedance.physcore import Geometry, ThermalState

    argv = ("sweep", "--model", "infrared-optics,lifshitz-drude",
            "--gamma", "5.3e13", "--separation", "1e-6:3e-6:2",
            "--temperature", "0,300")
    code, capped, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(quadrature, "_EULER_L", 10 ** 6)
    code, uncapped, _ = run(capsys, *argv)
    assert code == 0 and capped == uncapped
    monkeypatch.undo()
    code, out, _ = run(capsys, "free-energy", "--separation", "1e-6",
                       "--temperature", "10", "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().split("\n")[1].split(",")))
    res = obs.free_energy(obs.InfraredOptics(1.37e16), Geometry(1e-6),
                          ThermalState(10.0))
    assert row["err_estimate"] == f"{res.numeric_error:.17g}"
    assert res.diagnostics["tail"] == "euler_maclaurin"
    assert res.diagnostics["quad_err"] + res.diagnostics["tail_err"] \
        == pytest.approx(res.numeric_error, rel=1e-14, abs=0.0)
