"""End-to-end tests of the command-line interface."""

import math

import numpy as np
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
    # the parser requires it, and exits under the command's usage
    with pytest.raises(SystemExit) as excinfo:
        main(["sphere-plate", "--model", "ideal", "--separation", "1e-6"])
    assert excinfo.value.code == 2
    assert "--radius" in capsys.readouterr().err


def test_sphere_plate_states_a_over_r_and_keeps_its_csv(capsys, monkeypatch):
    # force_sphere_plate states a/R, the scale of the proximity relation's
    # own error, at T = 0 and T > 0; the CSV has no column for it, so the
    # sphere-plate bytes are those of the same forces without it
    import casimir_impedance.observables as obs
    from casimir_impedance.physcore import Geometry, ThermalState
    from casimir_impedance.reflection import InfraredOptics

    for a in (0.3e-6, 1e-6):
        for temperature in (0.0, 300.0):
            res = obs.force_sphere_plate(
                InfraredOptics(1.37e16), Geometry(a, 2e-4),
                ThermalState(temperature))
            assert res.diagnostics["a_over_R"] == a / 2e-4
    argv = ("sphere-plate", "--model", "infrared-optics", "--separation",
            "0.3e-6:1e-6:2", "--temperature", "0,300", "--radius", "2e-4",
            "--format", "csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    force = obs.force_sphere_plate

    def without_a_over_r(*args):
        res = force(*args)
        return obs.ResultValue(res.quantity, res.value, res.numeric_error, {
            k: v for k, v in res.diagnostics.items() if k != "a_over_R"})

    monkeypatch.setattr(obs, "force_sphere_plate", without_a_over_r)
    code, bare, _ = run(capsys, *argv)
    assert code == 0 and out == bare and len(out.splitlines()) == 5


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
    code, out, err = run(capsys, "regime", "--separation", "0.1e-6")
    assert code == 0
    assert err.startswith("warning: ") and "plasma wavelength" in err


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
    for grid, message in (
            ("1e-6:2e-6", "expected start:stop:count, got '1e-6:2e-6'"),
            ("a:b:3", "bad grid 'a:b:3'"),
            ("0:1e-6:3", "log grid requires start > 0"),
            ("1e-6,abc", "bad value '1e-6,abc'")):
        code, out, err = run(capsys, "energy", "--model", "ideal",
                             "--separation", grid)
        assert (code, out, err) == (2, "", f"error: --separation: {message}\n")
    # a temperature grid is linear, and may start at 0
    code, out, _ = run(capsys, "sweep", "--model", "ideal",
                       "--separation", "1e-6", "--temperature", "0:300:4")
    assert code == 0
    rows = [dict(zip(CSV_COLUMNS, ln.split(",")))
            for ln in out.strip().split("\n")[1:]]
    assert [float(r["T_K"]) for r in rows] == list(np.linspace(0, 300, 4))


def test_parser_reused_after_a_failed_call(capsys):
    # the parser is built once per process: a call that exits 2 on a bad
    # --rel-tol leaves it as a fresh one, for the CSV and for --help
    from casimir_impedance import cli

    good = ("sweep", "--model", "ideal,infrared-optics",
            "--separation", "1e-6,2e-6", "--temperature", "0,300")

    def help_text(*argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--help"])
        assert excinfo.value.code == 0
        return capsys.readouterr().out

    cli._build_parser.cache_clear()
    fresh = run(capsys, *good)
    fresh_help = [help_text(), help_text("sweep")]
    assert fresh[0] == 0
    code, out, err = run(capsys, *good, "--rel-tol", "0")
    assert code == 2 and out == "" and "--rel-tol" in err
    with pytest.raises(SystemExit) as excinfo:
        main([*good, "--rel-tol", "abc"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert run(capsys, *good) == fresh
    assert [help_text(), help_text("sweep")] == fresh_help


@pytest.mark.parametrize("argv", [
    ("energy", "--separation", "inf"),
    ("energy", "--separation", "1e-6,inf"),
    ("energy", "--separation", "nan"),
    ("free-energy", "--separation", "1e-6", "--temperature", "nan"),
    ("free-energy", "--separation", "1e-6", "--temperature", "inf"),
    ("sphere-plate", "--separation", "1e-6", "--radius", "nan"),
    ("zero-freq", "--kperp", "nan"),
    ("energy", "--model", "normal-skin", "--sigma", "nan",
     "--separation", "1e-6"),
    ("energy", "--model", "lifshitz-drude", "--gamma", "inf",
     "--separation", "1e-6"),
    ("energy", "--material", "NAN_FILE", "--separation", "1e-6"),
    ("regime", "--separation", "1e-6,inf"),
    ("regime", "--separation", "1e-6", "--temperature", "nan"),
    ("regime", "--separation", "1e-6", "--temperature", "300,nan"),
    ("sphere-plate", "--separation", "1e-6,2e-6", "--temperature", "300",
     "--radius", "inf"),
    ("regime", "--separation", "1e-6", "--temperature", "-5"),
    ("sphere-plate", "--separation", "1e-6,2e-6", "--temperature", "300",
     "--radius", "-1"),
])
def test_nonfinite_physical_inputs_exit_2(argv, tmp_path, capsys):
    # NaN passes a `<= 0` test and inf is positive: each, like a negative
    # value, is a configuration error, caught before anything reaches
    # stdout or --output (regime builds every report, and a record command
    # every geometry, before its output opens)
    nan_file = tmp_path / "nan.txt"
    nan_file.write_text("omega_p=nan\nv_f=1.4e6\n")
    output = tmp_path / "o.csv"
    for to in ((), ("--output", str(output))):
        code, out, err = run(capsys, *(str(nan_file) if a == "NAN_FILE" else a
                                       for a in argv), *to)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert not output.exists()


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


def test_sweep_at_the_rounding_floor_exits_0(capsys):
    # at --rel-tol 1e-14 the T = 0 wedge's error estimate sits at its
    # rounding floor, 50 eps of its int |f| (1.1e-14 of |E| here): the wedge
    # stops there, as the Matsubara rows do, and reports that error
    code, out, _ = run(capsys, "sweep", "--model", "infrared-optics",
                       "--separation", "1e-6", "--temperature", "0,300",
                       "--rel-tol", "1e-14", "--format", "csv")
    assert code == 0
    rows = [dict(zip(CSV_COLUMNS, line.split(",")))
            for line in out.strip().split("\n")[1:]]
    assert [row["status"] for row in rows] == ["ok", "ok"]
    energy, err = (float(rows[0][k]) for k in ("energy_J_per_m2",
                                               "err_estimate"))
    assert 1e-14 * abs(energy) < err < 2e-14 * abs(energy)


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
        argv = (command, "--model", "ideal", "--separation", "1e-6", *extra)
        with monkeypatch.context() as patch:
            patch.setattr(cli.obs, function, explode)
            code, out, _ = run(capsys, *argv, "--format", "csv")
            human = run(capsys, *argv, "--format", "human")
        assert code == 3, command
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2, command
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert row[column] == "", command
        assert row["status"].startswith("nonconvergence"), command
        # the human block keeps its header and status line, no value line
        T = "300" if "--temperature" in extra else "0"
        assert human == (3, f"a = 9.9999999999999995e-07 m   T = {T} K   "
                         "model = ideal\n"
                         "  status = nonconvergence: synthetic budget "
                         "exhaustion\n\n", ""), command


def test_nonfinite_integrand_fails_its_rows_only(capsys, monkeypatch):
    # NaN Fresnel inputs of one model fail that model's rows; the other
    # model's rows are the bytes of a sweep of that model alone
    from casimir_impedance.reflection import Plasma

    argv = ("sweep", "--separation", "1e-6", "--temperature", "0,300",
            "--rel-tol", "1e-4")
    _, alone, _ = run(capsys, *argv, "--model", "infrared-optics")
    with monkeypatch.context() as patch:
        patch.setattr(Plasma, "fresnel_inputs",
                      lambda self, geometry, zeta, y:
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


def _run_module(*argv, **env):
    """`python -m casimir_impedance.cli` in a child process that imports
    the package from where this process found it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import casimir_impedance

    src = str(Path(casimir_impedance.__file__).resolve().parents[1])
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src,
                                                      env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "casimir_impedance.cli",
                           *argv], capture_output=True, text=True, env=env)


def test_byte_identical_output_across_thread_counts():
    # the numerical kernels avoid threaded reductions; CSV bytes must not
    # depend on the ambient thread configuration
    outputs = []
    for threads in ("1", "4"):
        proc = _run_module("free-energy", "--model", "anomalous-skin",
                           "--separation", "0.4e-6", "--temperature", "300",
                           "--format", "csv", OMP_NUM_THREADS=threads,
                           OPENBLAS_NUM_THREADS=threads,
                           MKL_NUM_THREADS=threads)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_module_exit_status():
    # the process exits with main's status, and with argparse's 2 for a
    # missing option, which leaves main as SystemExit
    ok = _run_module("energy", "--model", "ideal", "--separation", "1e-6",
                     "--format", "csv")
    assert ok.returncode == 0 and ok.stderr == ""
    assert ok.stdout.startswith(",".join(CSV_COLUMNS) + "\n")
    missing = _run_module("energy", "--model", "ideal")
    assert (missing.returncode, missing.stdout) == (2, "")
    assert missing.stderr.startswith("usage: casimir-impedance energy ")
    assert missing.stderr.endswith(
        "casimir-impedance energy: error: the following arguments are "
        "required: --separation\n")
    bad_tol = _run_module("energy", "--separation", "1e-6",
                          "--rel-tol", "0.5")
    assert (bad_tol.returncode, bad_tol.stdout) == (2, "")
    assert bad_tol.stderr == ("error: --rel-tol must lie in (0, 1e-2], "
                              "got 0.5\n")


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


def test_sweep_with_underflowing_matsubara_rows_exits_0(capsys):
    # 5 of these 44 rows failed on Matsubara rows near the underflow limit
    code, out, _ = run(capsys, "sweep", "--model", "infrared-optics",
                       "--separation", "5e-6:15e-6:11",
                       "--temperature", "280,285,290,1000")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 44
    assert all(row.endswith(",ok") for row in rows)


def test_csv_bytes_kept_by_the_euler_maclaurin_cap(capsys, monkeypatch):
    # T = 0 rows and ladders that stop before l = 64 print the same bytes
    # with the cap lifted; a 10 K row reaches it and prints its error, the
    # sum of the quadrature and tail parts
    import casimir_impedance.observables as obs
    from casimir_impedance.physcore import Geometry, ThermalState
    from casimir_impedance.reflection import InfraredOptics

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
    res = obs.free_energy(InfraredOptics(1.37e16), Geometry(1e-6),
                          ThermalState(10.0))
    assert row["err_estimate"] == f"{res.numeric_error:.17g}"
    assert res.diagnostics["tail"] == "euler_maclaurin"
    assert res.diagnostics["quad_err"] + res.diagnostics["tail_err"] \
        == pytest.approx(res.numeric_error, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("argv", [
    ("energy", "--separation", "1e-300"),
    ("pressure", "--separation", "1e-300", "--temperature", "0"),
    ("free-energy", "--separation", "1e-6", "--temperature", "1e300"),
    ("energy", "--separation", "1e300"),
    ("energy", "--separation", "1e-6:inf:3"),
    ("free-energy", "--separation", "1e-6", "--temperature", "0:inf:3"),
    ("free-energy", "--separation", "1e-6", "--temperature", "1e-300"),
    ("free-energy", "--separation", "1e-6", "--temperature", "5e-324"),
    ("zero-freq", "--kperp", "1e300"),
    ("zero-freq", "--kperp", "1e-170"),
])
def test_extreme_finite_inputs_exit_2(argv, capsys):
    # finite values whose prefactors, zeta_1 or k_perp^2 under- or overflow
    # are configuration errors, named as such, with no output and no warning
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "outside" in err or "finite" in err
    assert "Traceback" not in err and "Warning" not in err
    assert caught == []


def _count_energy_calls(monkeypatch, fail_at=None):
    # wraps the module attribute, as the benchmark tracer does; a call at
    # a separation inside fail_at = (lo, hi) raises NonConvergenceError
    from casimir_impedance import cli
    from casimir_impedance.quadrature import IntegralResult, \
        NonConvergenceError

    calls = []
    real = cli.obs.energy_T0

    def counting(model, geometry, tol):
        calls.append((geometry.separation, type(model).__name__))
        if fail_at and fail_at[0] < geometry.separation < fail_at[1]:
            raise NonConvergenceError("synthetic failure",
                                      IntegralResult(0.0, 1.0, 1))
        return real(model, geometry, tol)

    monkeypatch.setattr(cli.obs, "energy_T0", counting)
    return calls


SWEEP_3X3X2 = ("sweep", "--model", "infrared-optics,lifshitz-plasma",
               "--separation", "1e-6:3e-6:3", "--rel-tol", "1e-4")


def test_sweep_computes_energy_once_per_separation_and_model(
        capsys, monkeypatch):
    calls = _count_energy_calls(monkeypatch)
    code, first, _ = run(capsys, *SWEEP_3X3X2, "--temperature", "0,70,300")
    assert code == 0
    assert len(first.strip().split("\n")) == 1 + 18
    assert len(calls) == 6 and len(set(calls)) == 6
    # nothing outlives one main() call: the same run recomputes every E
    code, again, _ = run(capsys, *SWEEP_3X3X2, "--temperature", "0,70,300")
    assert code == 0 and again == first
    assert len(calls) == 12 and calls[6:] == calls[:6]


def test_multi_temperature_sweep_equals_one_temperature_runs(capsys):
    code, merged, _ = run(capsys, *SWEEP_3X3X2, "--temperature", "0,70,300")
    assert code == 0
    header, *rows = merged.strip().split("\n")
    single = {}
    for T in ("0", "70", "300"):
        code, out, _ = run(capsys, *SWEEP_3X3X2, "--temperature", T)
        assert code == 0 and out.split("\n")[0] == header
        single[T] = out.strip().split("\n")[1:]
    # (a, T, model) order: for each separation, the 2 model rows of each T
    expected = [row for i in range(3) for T in ("0", "70", "300")
                for row in single[T][2 * i:2 * i + 2]]
    assert rows == expected


def test_failing_energy_fails_every_row_of_its_pair(capsys, monkeypatch):
    code, clean, _ = run(capsys, *SWEEP_3X3X2, "--temperature", "0,70,300")
    assert code == 0
    _count_energy_calls(monkeypatch, fail_at=(1.5e-6, 2.5e-6))
    code, out, _ = run(capsys, *SWEEP_3X3X2, "--temperature", "0,70,300")
    assert code == 3
    lines, clean_lines = out.strip().split("\n"), clean.strip().split("\n")
    assert len(lines) == len(clean_lines) == 19
    failed = []
    for line, clean_line in zip(lines[1:], clean_lines[1:]):
        row = dict(zip(CSV_COLUMNS, line.split(",")))
        if 1.5e-6 < float(row["a_m"]) < 2.5e-6:
            assert all(row[col] == "" for col in CSV_COLUMNS[3:-1]), row
            failed.append(row["status"])
        else:
            assert line == clean_line
    assert failed == ["nonconvergence: synthetic failure"] * 6


def test_out_of_range_grid_fails_before_the_first_record(capsys,
                                                         monkeypatch):
    # the grid reaches 2 m; no record is computed before the exit
    from casimir_impedance import cli

    calls = []
    for name in ("energy_T0", "free_energy"):
        def counting(*args, _real=getattr(cli.obs, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(cli.obs, name, counting)
    code, out, err = run(capsys, "sweep", "--separation", "1e-7:2:30",
                         "--temperature", "0,3,70", "--model",
                         "infrared-optics,anomalous-skin")
    assert code == 2
    assert out == ""
    assert err == "error: separation 1.12013 m is outside [1e-12, 1] m\n"
    assert calls == []


def test_entropy_out_of_range_fails_before_the_first_record(capsys,
                                                            monkeypatch):
    # entropy takes no step in T, so check_range alone decides: at 1 m,
    # 182,204,997.8 K (zeta_1 = 0.9999e12) computes both rows, with no
    # free energy; 182,300,000 K (zeta_1 = 1.0004e12) exits 2 with
    # check_range's message before the 1 um row
    from casimir_impedance import cli

    calls = []

    def counting(*args, _real=cli.obs.entropy):
        calls.append(args)
        return _real(*args)

    def no_free_energy(*args):
        raise AssertionError("entropy computed a free energy")

    monkeypatch.setattr(cli.obs, "entropy", counting)
    monkeypatch.setattr(cli.obs, "free_energy", no_free_energy)
    seps = ("--separation", "1e-6,1", "--format", "csv")
    code, out, err = run(capsys, "entropy", *seps,
                         "--temperature", "182300000")
    assert (code, out, calls) == (2, "", [])
    assert err == ("error: temperature 1.823e+08 K is outside the Matsubara "
                   "ladder's range at separation 1 m: zeta_1 = 1e+12 must "
                   "lie in [1e-100, 1e12]\n")
    code, out, err = run(capsys, "entropy", *seps, "--temperature",
                         "182204997.84873796")
    assert (code, err) == (0, "")
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)
    assert len(calls) == 2


def test_validity_warnings_once_each_without_source_location(capsys):
    # two separations below the plasma wavelength (1.37e-7 m), each warned
    # by E and by F at two temperatures, or once by regime: one line per
    # distinct message; a regime block is 9 lines (header, 4 values, 3
    # checks, blank)
    seps = ("--separation", "1e-7,1.2e-7,2e-7")
    for argv, out_lines in (
            (("sweep", *seps, "--temperature", "0,3,70", "--model",
              "infrared-optics,anomalous-skin", "--rel-tol", "1e-4"), 1 + 18),
            (("regime", *seps), 3 * 9 - 1)):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert len(out.strip().split("\n")) == out_lines
        lines = err.strip().split("\n")
        assert [line.split(" m is not above")[0] for line in lines] == [
            "warning: separation 1e-07", "warning: separation 1.2e-07"]
        assert all("plasma wavelength 1.37e-07 m" in line for line in lines)
        assert ".py:" not in err and "UserWarning" not in err


@pytest.mark.parametrize("command", ["energy", "regime", "zero-freq"])
def test_unreadable_material_file_exits_2(command, tmp_path, capsys):
    grid = () if command == "zero-freq" else ("--separation", "1e-6")
    code, out, err = run(capsys, command, "--material", str(tmp_path), *grid)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_output_exits_2_before_any_record(where, tmp_path,
                                                     capsys, monkeypatch):
    output = tmp_path if where == "directory" else tmp_path / "no" / "o.csv"
    calls = _count_energy_calls(monkeypatch)
    for argv in (("energy", "--separation", "1e-6"),
                 ("sweep", "--separation", "1e-6:2e-6:2",
                  "--temperature", "0,300")):
        code, out, err = run(capsys, *argv, "--model", "ideal",
                             "--output", str(output))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "--output" in err
    assert calls == []


_RECORD_OPTIONS = {"--material", "--model", "--separation", "--temperature",
                   "--sigma", "--gamma", "--rel-tol", "--output", "--format"}
COMMAND_OPTIONS = {
    **dict.fromkeys(("energy", "free-energy", "pressure", "entropy", "sweep"),
                    _RECORD_OPTIONS),
    "sphere-plate": _RECORD_OPTIONS | {"--radius"},
    "regime": {"--material", "--separation", "--temperature", "--output"},
    "zero-freq": {"--material", "--kperp", "--output", "--format"},
}
OPTION_VALUES = {"--material": "gold", "--model": "ideal",
                 "--separation": "1e-6", "--temperature": "300",
                 "--radius": "1e-4", "--sigma": "3.2e17", "--gamma": "5.3e13",
                 "--rel-tol": "1e-4", "--kperp": "1e6", "--output": "OUT",
                 "--format": "csv"}
MINIMAL_ARGV = {"energy": ("--separation", "1e-6"),
                "free-energy": ("--separation", "1e-6", "--temperature", "300"),
                "pressure": ("--separation", "1e-6"),
                "sphere-plate": ("--separation", "1e-6", "--radius", "1e-4"),
                "entropy": ("--separation", "1e-6", "--temperature", "300"),
                "sweep": ("--separation", "1e-6"),
                "regime": ("--separation", "1e-6"),
                "zero-freq": ()}
UNREAD_SLOTS = [(command, option) for command, read in COMMAND_OPTIONS.items()
                for option in sorted(set(OPTION_VALUES) - read)]


def test_each_command_accepts_only_the_options_it_reads():
    import argparse

    from casimir_impedance import cli

    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(COMMAND_OPTIONS)
    assert set(cli.OPTIONS) == set(OPTION_VALUES)
    for command, sub in subparsers.items():
        accepted = {flag for action in sub._actions
                    for flag in action.option_strings} - {"-h", "--help"}
        declared = {flag for flag, (readers, _) in cli.OPTIONS.items()
                    if command in readers}
        assert accepted == declared == COMMAND_OPTIONS[command], command
    assert sum(map(len, COMMAND_OPTIONS.values())) == 63
    assert len(UNREAD_SLOTS) == 88 - 63


@pytest.mark.parametrize("command,option", UNREAD_SLOTS)
def test_unread_option_exits_2_before_any_record(command, option, tmp_path,
                                                 capsys, monkeypatch):
    # argparse rejects an option its command does not read, as it rejects
    # an unknown one: exit 2, nothing on stdout, no observable computed
    from casimir_impedance import cli

    calls = []
    for module, name in ((cli.obs, "energy_T0"), (cli.obs, "free_energy"),
                         (cli.obs, "pressure_plates"),
                         (cli.obs, "force_sphere_plate"),
                         (cli.obs, "entropy"), (cli, "classify_regime"),
                         (cli, "zero_freq_r_sq")):
        def counting(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    value = OPTION_VALUES[option].replace("OUT", str(tmp_path / "o.csv"))
    with pytest.raises(SystemExit) as excinfo:
        main([command, *MINIMAL_ARGV[command], option, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err
    # reported by the command's own parser, whose usage lists what it reads
    assert captured.err.startswith(f"usage: casimir-impedance {command} ")
    assert (f"casimir-impedance {command}: error: unrecognized arguments: "
            f"{option} ") in captured.err
    assert calls == []
    assert not (tmp_path / "o.csv").exists()


# one command line of each shape that the benchmark's cli_mixed workload
# sends (perfbench/run.py, `_argv`), before `cli_call` appends --output
_A = "1.5e-07"
BENCHMARK_ARGVS = [
    ["sweep", "--separation", _A, "--temperature", "0.0,70.0,300.0",
     "--model", "infrared-optics,anomalous-skin"],
    ["pressure", "--separation", _A, "--temperature", "70.0",
     "--model", "infrared-optics", "--format", "csv"],
    ["entropy", "--separation", _A, "--temperature", "300.0",
     "--model", "infrared-optics", "--format", "csv"],
    ["sphere-plate", "--separation", _A, "--temperature", "300.0",
     "--model", "infrared-optics", "--format", "csv", "--radius", "0.001"],
    ["regime", "--separation", _A, "--temperature", "300.0"],
    ["zero-freq", "--kperp", "1e5:1e8:7"],
]


def test_readme_and_benchmark_command_lines_parse():
    # parsed only, not run: an option a command rejects would raise
    # SystemExit, which the benchmark's error handling does not catch
    from pathlib import Path

    from casimir_impedance import cli

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().replace("\\\n", " ")
    examples = [line.split()[1:] for line in text.splitlines()
                if line.strip().startswith("casimir-impedance ")]
    assert len(examples) == 7
    for argv in examples + [[*a, "--output", "o.csv"]
                            for a in BENCHMARK_ARGVS]:
        assert cli._build_parser().parse_args(argv).command == argv[0]


def test_cli_reaches_observables_only_through_records():
    # one record path: cli.py reads observables only as attributes of the
    # module (never passed on, as getattr(obs, name) would need) and only
    # records, the range check and Quantity, so no second path to an
    # observable can grow back in the CLI
    import ast
    from pathlib import Path

    from casimir_impedance import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("observables"):
                used.update(alias.name for alias in node.names)
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "observables")
        assert not isinstance(node, ast.Import) or all(
            "observables" not in alias.name for alias in node.names)
    assert aliases == {"obs"}
    attributes = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "obs"]
    names = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "obs"]
    assert len(names) == len(attributes)
    used.update(node.attr for node in attributes)
    assert used == {"records", "check_range", "Quantity"}


def test_observables_api_is_read_outside_tests():
    # every public name of observables has a reader that is not a test: a
    # name or attribute in src/ or perfbench/ (a definition, __all__ and
    # the package root's re-export are not reads) or a mention in the
    # README, so no test-only reference ships as library API
    import ast
    import re
    from pathlib import Path

    from casimir_impedance import observables

    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob(
            "*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    readme = (root / "README.md").read_text()
    unread = [name for name in observables.__all__ if name not in read
              and not re.search(rf"\b{name}\b", readme)]
    assert unread == []


def test_observables_imports_no_concrete_model():
    # the observable layer reaches the models only through the base class
    # and the one X kernel
    import ast
    from pathlib import Path

    from casimir_impedance import observables

    imported = set()
    for node in ast.walk(ast.parse(Path(observables.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert "reflection" not in names
            if (node.module or "").endswith("reflection"):
                imported |= names
        assert not isinstance(node, ast.Import) or all(
            "reflection" not in alias.name for alias in node.names)
    assert imported == {"Model", "x_factors_grid"}
