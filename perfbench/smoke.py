"""Seconds-long smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs the first three records of every workload, untraced and traced, and
checks that each run is correct and reports exactly the metrics that
BENCHMARK.json lists, with their units; that the T = 0 workload runs no
Matsubara sum and the thermal workload no T = 0 double integral; and that
the benchmark refuses to run, printing no result, in a directory without
the package source.  Not collected by pytest, so it stays out of the
tier-1 suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check([w["name"] for w in spec["workloads"]] == list(run.grids.WORKLOADS),
          "BENCHMARK.json workloads differ from grids.WORKLOADS")
    for workload in run.grids.WORKLOADS:
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()):
                res = run.run_workload(workload, seed=0, seconds=0.0,
                                       trace=bool(trace), max_records=3)
            label = f"{workload} trace={trace}"
            check(res["correct"], f"{label}: incorrect")
            check(res["attempted"] >= 1 and res["failed"] == 0,
                  f"{label}: {res['failed']} of {res['attempted']} failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == wanted[trace], f"{label}: metrics {sorted(got)}")
            check(all(math.isfinite(v["value"])
                      for v in res["metrics"].values()),
                  f"{label}: non-finite metric")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                if workload == "t0_grid":
                    check(m["quadrature.matsubara_sum.calls"] == 0,
                          "t0_grid ran a Matsubara sum")
                if workload == "thermal_grid":
                    check(m["quadrature.integrate_interval.calls"] == 0,
                          "thermal_grid ran a T = 0 double integral")
            print(f"ok  {label}  ({res['attempted']} records)")

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=run.ROOT) as tmp:
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        out = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "t0_grid",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        check(out.returncode != 0 and not out.stdout.strip(),
              "benchmark ran without the package source")
    print("ok  refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
