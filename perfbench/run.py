"""End-to-end and per-layer benchmark of casimir_impedance.

    python3 perfbench/run.py --workload t0_grid --seed 1 --seconds 15 --trace 0

Workloads (see grids.py and BENCHMARK.json):
  t0_grid       energy_T0 and T = 0 pressure_plates, five reflection models
  thermal_grid  free_energy and pressure_plates at 3, 10, 70 and 300 K
  cli_mixed     cli.main in-process on the README command mix, CSV to a file
  all           each of the above in its own process, one after the other

One caller runs records back to back (a closed loop) on one computing
thread: whole rounds, each round one record of every grid cell in a
seeded order, in whole cycles of rounds until --seconds have passed.
Timings are reported at a fixed reference speed, measured by a reference
kernel run before each record, on a timer while it runs and after it
(see SpeedSampler and perfbench/README.md).
Every value is checked against perfbench/references.json; a non-finite
value, a gross error or a CSV that changes between identical runs or
thread settings makes the run incorrect.  With --trace 1 the same
records run twice, untraced for half of --seconds (in whole cycles) and
then traced, and the per-layer metrics are printed; the spans go to
.perfbench-out/spans-<workload>.npz.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import grids  # noqa: E402
from spans import LAYER_UNITS, Tracer  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# one computing thread, decided before numpy is first imported
os.environ.update({v: "1" for v in THREAD_VARS})

SETUP_SAMPLES = 9
# Timings are reported at the speed where reference_kernel() takes this
# long (its median on the 2-vCPU host the baseline was measured on); a
# timing as measured is the reported one times the printed speed factor.
REFERENCE_KERNEL_S = 0.0009
# Interval of the reference kernel while a record runs.
SAMPLE_S = 0.025
# A value off its reference by more than GROSS_REL relative, and by more
# than its own err_estimate, is a wrong answer rather than a tolerance
# miss; the run is then incorrect.
GROSS_REL = 1e-3

END_TO_END_UNITS = {
    "setup_s": "s", "records_per_s": "1/s", "record_ms_p50": "ms",
    "record_ms_tail": "ms", "tol_met_frac": "fraction",
    "err_cover_frac": "fraction", "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


class Context:
    """The imported package, the models of every workload and the default
    tolerance, built once before the first timed call."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import casimir_impedance as ci
        from casimir_impedance import cli, observables

        mat = grids.MATERIAL
        gold = ci.MaterialParams(plasma_frequency=mat["omega_p"],
                                 fermi_velocity=mat["v_f"])
        self.ci, self.cli, self.obs = ci, cli, observables
        self.tol = ci.ToleranceConfig()
        self.models = {
            "infrared-optics": ci.InfraredOptics(gold.plasma_frequency),
            "anomalous-skin": ci.AnomalousSkin(
                ci.derive_anomalous_constant(gold)),
            "normal-skin": ci.NormalSkin(
                ci.sigma_gaussian_from_si(mat["sigma_si"])),
            "lifshitz-plasma": ci.Plasma(gold.plasma_frequency),
            "lifshitz-drude": ci.Drude(gold.plasma_frequency, mat["gamma"]),
        }


def setup_seconds() -> float:
    """Time to import the package and build the models in a fresh process,
    at the reference speed (the reference kernel runs in the same process
    right after); the median of several processes, each run from the
    checkout root."""
    code = ("import statistics, sys, time; sys.path.insert(0, 'perfbench'); "
            "import run; "
            "t = time.perf_counter(); run.Context(); "
            "t = time.perf_counter() - t; "
            "print(t, statistics.median(run.reference_kernel() "
            "for _ in range(21)))")
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        setup, kernel = map(float, out.stdout.split())
        samples.append(setup * REFERENCE_KERNEL_S / kernel)
    return statistics.median(samples)


class SpeedSampler:
    """The host's speed while one call runs.

    The speed of a shared host changes within about 100 ms (a kernel run
    back to back takes 0.9-1.0 ms for a while, then 0.5 ms, then 0.9 ms
    again), so one sample before or after a record of seconds misjudges
    it.  While a timed call runs, a SIGALRM timer runs reference_kernel()
    every SAMPLE_S seconds; one more runs before the call and one after.
    `seconds` is the call's time without the samples, and `factor` the
    harmonic mean of the samples over REFERENCE_KERNEL_S.  The samples
    are spread evenly in time, and the harmonic mean weights each by its
    speed, so seconds / factor is proportional to the work done whatever
    the mix of speeds.  With `timer` off only the samples before and
    after are taken, so that no span of the traced pass holds kernel
    time.
    """

    def __init__(self) -> None:
        self.timer = True
        self.seconds = 0.0
        self.factor = 1.0
        self._samples: list[float] = []
        self._spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self._samples.append(reference_kernel())
        self._spent += perf_counter() - t0
        self._busy = False

    @contextmanager
    def timing(self):
        self._samples, self._spent, self._busy = [], 0.0, False
        self._samples.append(reference_kernel())
        if self.timer:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = perf_counter()
        try:
            yield self
        finally:
            self._busy = True  # a tick still pending is dropped
            elapsed = perf_counter() - t0
            if self.timer:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self._samples.append(reference_kernel())
            self.factor = (len(self._samples)
                           / sum(1.0 / k for k in self._samples)
                           / REFERENCE_KERNEL_S)
            self.seconds = elapsed - self._spent


def schedule(cells: list[dict], seed: int):
    """Rounds of (cell index, separation), one record per cell a round.

    The cells of one group start spread evenly over the bins and every
    cell steps to its next bin each round, so each round uses the bins of
    a group evenly; inside a bin the points come in a seeded cyclic order.
    The records of a round are shuffled.
    """
    rng = random.Random(seed)
    offset = {}
    groups: dict[str, list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault(cell["group"], []).append(i)
    for members in groups.values():
        rng.shuffle(members)
        shift = rng.randrange(grids.BINS)
        for k, i in enumerate(members):
            offset[i] = k + shift
    cycles: dict[tuple[int, int], list[float]] = {}
    r = 0
    while True:
        batch = []
        for i, cell in enumerate(cells):
            seps = cell["separations"]
            nb = min(grids.BINS, len(seps))
            b = (offset[i] + r) % nb
            pool = cycles.get((i, b))
            if not pool:
                pool = seps[b * len(seps) // nb:(b + 1) * len(seps) // nb]
                pool = cycles[(i, b)] = rng.sample(pool, len(pool))
            batch.append((i, pool.pop()))
        rng.shuffle(batch)
        yield batch
        r += 1


class Checker:
    """Compares values with the references; counts what the metrics need."""

    def __init__(self, refs: dict, rel_tol: float) -> None:
        self.values = refs["values"]
        self.refs = refs
        self.rel_tol = rel_tol
        self.valued = self.tol_met = self.covered = 0
        self.errors: list[str] = []

    def ref(self, kind: str, model: str, a: float, T: float) -> float:
        return self.values[f"{kind}|{model}|{a!r}|{T!r}"]

    def value(self, what: str, value: float, err: float, ref: float) -> None:
        if not (math.isfinite(value) and math.isfinite(err)):
            self.errors.append(f"{what}: non-finite value {value!r} "
                               f"+- {err!r}")
            return
        dev = abs(value - ref)
        self.valued += 1
        self.tol_met += dev <= self.rel_tol * abs(ref)
        self.covered += dev <= err
        if dev > GROSS_REL * abs(ref) and dev > err:
            self.errors.append(f"{what}: {value!r} +- {err!r} vs reference "
                               f"{ref!r}")

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        """A derived or closed-form column; only gross errors count."""
        if not (math.isfinite(got) and abs(got - want) <= tol):
            self.errors.append(f"{what}: {got!r} vs {want!r}")


class Runner:
    """Runs records of one workload and checks their outputs."""

    def __init__(self, ctx: Context, workload: str, checker: Checker,
                 tmp: Path) -> None:
        self.ctx, self.workload, self.check = ctx, workload, checker
        self.cells = grids.cells(workload)
        self.tmp = tmp
        self.tracer: Tracer | None = None
        self.speed = SpeedSampler()
        self.csv_seen: dict[tuple, bytes] = {}
        self.first_call: tuple | None = None
        self.sweep_ids: set[int] = set()
        self.sweep_rows = self.bytes_out = 0

    def run(self, rec: tuple[int, float]) -> tuple[float, int, int]:
        """(seconds, records, failed records) for one scheduled record; a
        CLI call counts one record per observable row it writes.  The
        seconds are those of the library call, as measured (without the
        speed samples); self.speed.factor holds the speed during it."""
        cell = self.cells[rec[0]]
        if self.workload == "cli_mixed":
            return self._cli(cell, rec[1])
        return self._observable(cell, rec[1])

    def _observable(self, cell: dict, a: float) -> tuple[float, int, int]:
        ctx = self.ctx
        model = ctx.models[cell["model"]]
        geometry = ctx.ci.Geometry(a)
        T = cell["T"]
        kind = cell["kind"]
        try:
            with self.speed.timing():
                if kind == "energy_T0":
                    res = ctx.obs.energy_T0(model, geometry, ctx.tol)
                elif kind == "free_energy":
                    res = ctx.obs.free_energy(model, geometry,
                                              ctx.ci.ThermalState(T), ctx.tol)
                else:
                    res = ctx.obs.pressure_plates(
                        model, geometry, ctx.ci.ThermalState(T), ctx.tol)
        except (ctx.ci.NonConvergenceError, ArithmeticError, ValueError):
            return self.speed.seconds, 1, 1
        dt = self.speed.seconds
        ref_kind = {"energy_T0": "E", "free_energy": "F"}.get(
            kind, "P0" if T == 0.0 else "P")
        self.check.value(f"{kind} {cell['model']} a={a!r} T={T!r}",
                         res.value, res.numeric_error,
                         self.check.ref(ref_kind, cell["model"], a, T))
        return dt, 1, 0

    def _argv(self, cell: dict, a: float | None) -> list[str]:
        kind = cell["kind"]
        if kind == "zero-freq":
            return ["zero-freq", "--kperp", grids.ZERO_FREQ_KPERP]
        argv = [kind, "--separation", repr(a), "--temperature"]
        if kind == "sweep":
            argv += [",".join(repr(T) for T in cell["temperatures"]),
                     "--model", ",".join(cell["models"])]
        else:
            argv.append(repr(cell["T"]))
        if kind not in ("sweep", "regime"):
            argv += ["--model", cell["model"], "--format", "csv"]
        if kind == "sphere-plate":
            argv += ["--radius", repr(cell["radius"])]
        return argv

    def cli_call(self, argv: list[str]) -> tuple[float, int, bytes]:
        path = self.tmp / "out.csv"
        with self.speed.timing():
            code = self.ctx.cli.main(argv + ["--output", str(path)])
        dt = self.speed.seconds
        data = path.read_bytes()
        if self.tracer is not None:
            self.bytes_out += len(data)
        return dt, code, data

    def _cli(self, cell: dict, a: float | None) -> tuple[float, int, int]:
        argv = self._argv(cell, a)
        try:
            dt, code, data = self.cli_call(argv)
        except (ArithmeticError, ValueError):
            # outside the CLI's exit-code contract: one failed record
            return self.speed.seconds, 1, 1
        key = tuple(argv)
        if self.first_call is None and cell["kind"] == "sweep":
            self.first_call = key
        if self.csv_seen.setdefault(key, data) != data:
            self.check.errors.append(f"output changed between identical "
                                     f"runs of {' '.join(argv)}")
        kind = cell["kind"]
        if kind == "regime":
            want = self.check.refs["regime"][repr(a)]
            if code != 0 or f"  regime = {want}\n" not in data.decode():
                self.check.errors.append(f"regime a={a!r}: expected {want}")
            return dt, 1, 0
        lines = data.decode().splitlines()
        if code == 2:
            self.check.errors.append(f"configuration error: {argv}")
            return dt, 1, 1
        if kind == "zero-freq":
            self._zero_freq(lines[1:])
            return dt, 1, 0
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        failed = 0
        for row in rows:
            if row["status"] != "ok":
                failed += 1
                continue
            self._cli_row(cell, row)
        if self.tracer is not None and kind == "sweep":
            self.sweep_ids.add(self.tracer.record_id)
            self.sweep_rows += len(rows)
        return dt, len(rows), failed

    def _cli_row(self, cell: dict, row: dict) -> None:
        chk = self.check
        a, T = float(row["a_m"]), float(row["T_K"])
        kind = cell["kind"]
        model = row["model"]
        what = f"{kind} {model} a={a!r} T={T!r}"
        err = float(row["err_estimate"])
        if kind == "sweep":
            e_ref = chk.ref("E", model, a, 0.0)
            e0 = (-math.pi ** 2 * self.ctx.ci.HBAR * self.ctx.ci.C_LIGHT
                  / (720.0 * a ** 3))
            chk.close(f"{what} correction_factor",
                      float(row["correction_factor"]), e_ref / e0,
                      GROSS_REL * abs(e_ref / e0))
            if T == 0.0:
                chk.value(what, float(row["energy_J_per_m2"]), err, e_ref)
                return
            f_ref = chk.ref("F", model, a, T)
            chk.value(what, float(row["free_energy_J_per_m2"]), err, f_ref)
            chk.close(f"{what} rel_thermal_correction",
                      float(row["rel_thermal_correction"]),
                      (f_ref - e_ref) / e_ref, GROSS_REL)
        elif kind == "pressure":
            chk.value(what, float(row["pressure_N_per_m2"]), err,
                      chk.ref("P", model, a, T))
        elif kind == "sphere-plate":
            chk.value(what, float(row["force_sphere_plate_N"]), err,
                      2.0 * math.pi * cell["radius"]
                      * chk.ref("F", model, a, T))
        elif kind == "entropy":
            chk.value(what, float(row["entropy_J_per_m2_K"]), err,
                      chk.ref("S", model, a, T))

    def _zero_freq(self, lines: list[str]) -> None:
        want = self.check.refs["zero_freq"]
        if len(lines) != len(want):
            self.check.errors.append("zero-freq: wrong number of rows")
            return
        for line, (name, k, rpar, rperp) in zip(lines, want):
            got = line.split(",")
            if got[0] != name:
                self.check.errors.append(f"zero-freq: {got[0]} vs {name}")
                continue
            self.check.close(f"zero-freq {name} k", float(got[1]), k,
                             1e-12 * k)
            self.check.close(f"zero-freq {name} r_par_sq", float(got[2]),
                             rpar, 1e-12)
            self.check.close(f"zero-freq {name} r_perp_sq", float(got[3]),
                             rperp, 1e-12)

    def threads_check(self) -> None:
        """Rerun the first sweep of the run in this process and in two
        fresh processes with the thread variables at 1 and at 2; every
        CSV must equal the one of the timed loop byte for byte."""
        if self.first_call is None:
            return
        argv = list(self.first_call)
        want = self.csv_seen[self.first_call]
        outputs = {"rerun in process": self.cli_call(argv)[2]}
        code = ("import sys; sys.path.insert(0, 'src'); "
                "from casimir_impedance.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        for threads in ("1", "2"):
            path = self.tmp / f"threads{threads}.csv"
            env = dict(os.environ, **{v: threads for v in THREAD_VARS})
            subprocess.run([sys.executable, "-c", code, *argv, "--output",
                            str(path)], cwd=ROOT, env=env, timeout=120,
                           check=True)
            outputs[f"{threads} thread(s)"] = path.read_bytes()
        for label, data in outputs.items():
            if data != want:
                self.check.errors.append(f"sweep CSV differs ({label}): "
                                         f"{' '.join(argv)}")


def loop(runner: Runner, records, times: list,
         counts: list) -> tuple[float, float]:
    """Run the given records back to back; append each record's time at
    the reference speed to `times`; return the time as measured and at
    the reference speed."""
    wall = scaled = 0.0
    for rec in records:
        dt, n, failed = runner.run(rec)
        factor = runner.speed.factor
        wall += dt
        scaled += dt / factor
        times.extend([dt / factor / n] * n)
        counts[0] += n
        counts[1] += failed
    return wall, scaled


def reference_kernel() -> float:
    """Seconds for a fixed, package-independent piece of work shaped like
    the package's own (numpy ufuncs on 120-point arrays driven from a
    Python loop, then an exact sum), about 1 ms.  The host's speed drifts
    by tens of percent between minutes; timed after every record, this
    kernel tracks the drift."""
    import numpy as np

    y = np.linspace(0.05, 40.0, 120)
    t0 = perf_counter()
    acc = []
    for i in range(60):
        z = y * (1.0 + 1e-3 * i)
        v = z * (2.0 * np.log1p(-np.exp(-z)) + np.log1p(0.3 / np.expm1(z)))
        acc.append(float((v * v).sum()))
    math.fsum(acc)
    return perf_counter() - t0


def timed_rounds(runner: Runner, seed: int, seconds: float,
                 counts: list, max_records: int | None):
    """Whole cycles of rounds until `seconds` at the reference speed have
    passed (at least one cycle), or the first `max_records` scheduled
    records.  A cycle is `cycle_rounds` rounds: every cell visits every
    bin equally often in it, and each cell with three points a bin visits
    all of them, so on the grids that have only such cells every cycle
    covers the same records.  Timing against the reference speed, not the
    wall clock, keeps the number of cycles the same when the host's speed
    changes.

    Returns the records run, the time as measured and at the reference
    speed, per cycle the record
    times at the reference speed, and per round the throughput at the
    reference speed and the speed factor."""
    done, cycles, rates, factors = [], [], [], []
    wall = scaled = 0.0
    cycle = cycle_rounds(runner.cells)
    for r, batch in enumerate(schedule(runner.cells, seed)):
        if r % cycle == 0:
            cycles.append([])
        batch = batch[:max_records]
        times: list[float] = []
        dt, dt_ref = loop(runner, batch, times, counts)
        wall += dt
        scaled += dt_ref
        cycles[-1].extend(times)
        rates.append(len(times) / dt_ref)
        factors.append(dt / dt_ref)
        done.extend(batch)
        if (scaled >= seconds and (r + 1) % cycle == 0
                or max_records is not None):
            return done, wall, scaled, cycles, rates, factors


def cycle_rounds(cells: list[dict]) -> int:
    """Rounds in which each cell visits every bin as often as its
    smallest bin has points."""
    per_bin = [len(c["separations"]) // grids.BINS for c in cells
               if len(c["separations"]) >= grids.BINS]
    return grids.BINS * min(per_bin)


def tail(cycles: list[list[float]]) -> tuple[float, float]:
    """The highest percentile with at least ten records beyond it (the
    maximum when there are fewer than 11 records) of each cycle, and that
    percentile; the median over the cycles, so the percentile does not
    depend on how many cycles a run has."""
    n = len(cycles[0])
    values = [sorted(times)[n - 11 if n > 10 else -1] for times in cycles]
    pct = 100.0 * (n - 10) / n if n > 10 else 100.0
    return statistics.median(values), pct


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 max_records: int | None = None, report=print) -> dict:
    """One workload; `max_records` cuts the draw to its first records (the
    smoke test uses it)."""
    if not (SRC / "casimir_impedance" / "__init__.py").is_file():
        raise FileNotFoundError(f"package source not found under {SRC}")
    refs = json.loads((HERE / "references.json").read_text())
    warnings.simplefilter("ignore")
    ctx = Context()
    checker = Checker(refs, ctx.tol.quadrature_rel_tol)
    counts = [0, 0]  # records attempted, failed
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=ROOT) as tmp:
        runner = Runner(ctx, workload, checker, Path(tmp))
        if not trace:
            done, wall, _, cycles, rates, factors = timed_rounds(
                runner, seed, seconds, counts, max_records)
            runner.threads_check()
        else:
            done, wall, scaled, *_ = timed_rounds(
                runner, seed, seconds / 2, counts, max_records)
            tracer = runner.tracer = Tracer()
            runner.speed.timer = False
            traced_counts = [0, 0]
            traced_wall = traced_scaled = 0.0
            with tracer.installed(ctx.obs, ctx.cli):
                for rid, rec in enumerate(done):
                    tracer.record_id = rid
                    dt, n, failed = runner.run(rec)
                    traced_wall += dt
                    traced_scaled += dt / runner.speed.factor
                    traced_counts[0] += n
                    traced_counts[1] += failed
            tracer.save(OUT / f"spans-{workload}.npz")
    n, failed = counts
    ok = not checker.errors
    for msg in checker.errors[:20]:
        print(f"error: {msg}", file=sys.stderr)

    report(f"workload {workload}  seed {seed}  records {n}  "
           f"failed {failed}  wall {wall:.3f} s  "
           f"grid cells {len(runner.cells)}")
    if trace:
        metrics, bases = tracer.layer_metrics(
            traced_counts[0], runner.sweep_ids, runner.sweep_rows,
            runner.bytes_out, traced_scaled / scaled - 1.0)
        units = LAYER_UNITS
        for name, value in metrics.items():
            report(f"  {name:44s} {value:14.6g} {units[name]}")
        report(f"  bases: {json.dumps(bases, sort_keys=True)}")
        report(f"  traced wall {traced_wall:.3f} s over untraced "
               f"{wall:.3f} s as measured, {traced_scaled:.3f} s over "
               f"{scaled:.3f} s at the reference speed")
        return {"correct": ok, "attempted": n, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()}}

    value_tail, pct = tail(cycles)
    nv = checker.valued
    metrics = {
        "setup_s": setup_seconds(),
        # at the reference speed (see timed_rounds)
        "records_per_s": statistics.median(rates),
        "record_ms_p50": 1e3 * statistics.median(
            statistics.median(times) for times in cycles),
        "record_ms_tail": 1e3 * value_tail,
        "tol_met_frac": checker.tol_met / nv if nv else 1.0,
        "err_cover_frac": checker.covered / nv if nv else 1.0,
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "records_per_s": f"median of {len(rates)} rounds; {n} records "
                         f"in {wall:.3f} s at a median speed factor "
                         f"{statistics.median(factors):.3f}",
        "record_ms_p50": f"median record of a cycle; median of "
                         f"{len(cycles)} cycle(s)",
        "record_ms_tail": f"p{pct:.2f} of the {len(cycles[0])} records of "
                          f"a cycle (10 beyond it); median of "
                          f"{len(cycles)} cycle(s)",
        "tol_met_frac": f"{checker.tol_met} of {nv} values within rel_tol "
                        f"{checker.rel_tol:g}; tol_miss_frac "
                        f"{1 - metrics['tol_met_frac']:.6g}",
        "err_cover_frac": f"{checker.covered} of {nv} values with "
                          f"|value - ref| <= err_estimate",
        "ok_frac": f"{n - failed} of {n} records ok; failed_frac "
                   f"{failed / n:.6g}",
        "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
    }
    for name, value in metrics.items():
        report(f"  {name:16s} {value:14.6g} {END_TO_END_UNITS[name]:8s} "
               f"{notes.get(name, '')}")
    return {"correct": ok, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in grids.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(out.stderr)
        if out.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{workload} exited with {out.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{workload}.{k}": v
                                  for k, v in res["metrics"].items()})
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*grids.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (OSError, ImportError, KeyError, RuntimeError,
            subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
