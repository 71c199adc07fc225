"""Property test of the CLI contract over log-spaced physical inputs.

Every record command, model, separation, temperature and tolerance either
prints its records (exit 0, or 3 with the failed rows in place) or exits 2
before any record; stdout and stderr keep their formats either way.
"""

import contextlib
import io
import math

from hypothesis import given, settings, strategies as st

from casimir_impedance.cli import (
    CSV_COLUMNS, MODEL_NAMES, RECORD_COMMANDS, main,
)


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(RECORD_COMMANDS),
       model=st.sampled_from(MODEL_NAMES),
       a=_log_uniform(-13.0, 1.0),
       T=st.one_of(st.just(0.0), _log_uniform(-4.0, 5.0)),
       rel_tol=_log_uniform(-10.0, -2.0))
def test_cli_contract_holds_for_every_input(command, model, a, T, rel_tol):
    argv = [command, "--model", model, "--sigma", "3.2e17",
            "--gamma", "5.3e13", "--separation", repr(a),
            "--temperature", repr(T), "--rel-tol", repr(rel_tol),
            "--format", "csv"]
    if command == "sphere-plate":
        argv += ["--radius", "1e-3"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    assert all(line.startswith(("warning: ", "error: "))
               for line in err.splitlines()), (argv, err)
    if code == 2:
        assert out == "", argv
        return
    header, *rows = out.split("\n")[:-1]
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == 1, (argv, out)  # one (a, T, model)
    fields = rows[0].split(",")
    assert len(fields) == len(CSV_COLUMNS) == 13, (argv, rows[0])
    for column, field in zip(CSV_COLUMNS, fields):
        if column not in ("model", "status") and field:
            assert math.isfinite(float(field)), (argv, column, field)
    assert (code == 0) == (fields[-1] == "ok"), (argv, fields[-1])


def test_grid_count_above_the_bound_exits_2_before_allocating():
    # a start:stop:count grid past GRID_MAX points is a configuration
    # error, caught before np.geomspace or np.linspace allocates the grid
    import tracemalloc

    from casimir_impedance.cli import GRID_MAX

    grids = (("energy", "--separation", "1e-6:2e-6:{}"),
             ("free-energy", "--temperature", "1:300:{}"),
             ("zero-freq", "--kperp", "1e5:1e8:{}"))
    for count in (10 ** 15, GRID_MAX + 1):
        for command, flag, grid in grids:
            argv = [command, flag, grid.format(count)]
            if flag != "--separation" and command != "zero-freq":
                argv += ["--separation", "1e-6"]
            out, err = io.StringIO(), io.StringIO()
            tracemalloc.start()
            try:
                with (contextlib.redirect_stdout(out),
                      contextlib.redirect_stderr(err)):
                    code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out.getvalue()) == (2, ""), argv
            assert err.getvalue() == (f"error: {flag}: grid count must be "
                                      f"in [2, {GRID_MAX}]\n"), argv
            assert peak < 1 << 20, (argv, peak)  # bytes
