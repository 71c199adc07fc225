"""Spans around the calls into each layer of casimir_impedance.

The tracer replaces module attributes with timing wrappers for the length
of a `with Tracer.installed(...)` block; the package source is never
edited.  Observables look their callees up as module globals
(`observables.integrate_semiinf`, `observables.x_factors_grid`, ...) and
the CLI reaches observables through the module (`obs.energy_T0`), so
wrapping the attributes of `observables` and `cli` sees every call.
Every callable that observables hands to quadrature (the y-integrand, the
outer zeta-integrand of the T = 0 double integral and the Matsubara term)
is wrapped as `observables.integrand`, so the quadrature spans keep only
the quadrature's own time.

Each span is (name, start, end, parent span, record id).  Spans are kept
in memory and written out by `save`.  A span's self time is its duration
minus the durations of its direct children (one thread, so children never
overlap).
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter

OBSERVABLES = ("energy_T0", "free_energy", "pressure_plates", "entropy",
               "force_sphere_plate")
QUADRATURE = ("integrate_interval", "integrate_semiinf")

# Unit of every per-layer metric; totals are given per record.
LAYER_UNITS = {
    "quadrature.integrate_semiinf.calls": "count",
    "quadrature.integrate_semiinf.self_ms": "ms",
    "quadrature.integrate_interval.calls": "count",
    "quadrature.integrate_interval.self_ms": "ms",
    "quadrature.batches": "count",
    "quadrature.us_per_batch": "us",
    "quadrature.points": "count",
    "quadrature.points_per_integral": "count",
    "quadrature.useful_point_frac": "fraction",
    "quadrature.matsubara_sum.calls": "count",
    "quadrature.matsubara_sum.terms": "count",
    "quadrature.matsubara_sum.self_ms": "ms",
    "observables.integrand.self_ms": "ms",
    "observables.energy_T0.calls": "count",
    "observables.energy_T0.ms_per_call": "ms",
    "observables.free_energy.calls": "count",
    "observables.free_energy.ms_per_call": "ms",
    "observables.pressure_plates.ms_per_call": "ms",
    "observables.entropy.ms_per_call": "ms",
    "observables.evals_per_record": "count",
    "reflection.x_grid.calls": "count",
    "reflection.x_grid.points": "count",
    "reflection.x_grid.self_ms": "ms",
    "reflection.x_grid.ns_per_point": "ns",
    "cli.main.self_ms": "ms",
    "cli.bytes_out": "bytes",
    "cli.energy_T0_per_record": "count",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.record = array("q")
        self.record_id = -1
        self._stack: list[int] = []
        self.count: Counter = Counter()

    def _wrap(self, name: str, fn, *, before=None, after=None):
        """A wrapper that records one span per call; aggregation waits for
        `layer_metrics`, so the wrapper does as little as it can."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, start, end = self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            i = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.record.append(self.record_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
                if after is not None:
                    after(state)

        return wrapper

    def _integrand(self, f, state=None):
        """Wrap a callable handed to quadrature; count abscissae per batch
        when it belongs to an adaptive integral (state is not None)."""

        def counted(x):
            if state is not None:
                n = x.size
                if not state[1]:
                    state[0] = n
                state[1] += 1
                self.count["points"] += n
                self.count["batches"] += 1
            else:
                self.count["terms"] += 1
            return f(x)

        return self._wrap("observables.integrand", counted)

    def _quadrature(self, name, fn):
        def before(args, kwargs):
            state = [0, 0]  # points in the first batch, batches
            return (self._integrand(args[0], state),) + args[1:], kwargs, \
                state

        def after(state):
            # the first batch holds the initial panels; every later batch
            # splits one panel into two
            self.count["integrals"] += 1
            if state[1]:
                self.count["panels"] += state[0] // 15 + state[1] - 1

        return self._wrap(f"quadrature.{name}", fn, before=before,
                          after=after)

    def _matsubara(self, fn):
        def before(args, kwargs):
            return (self._integrand(args[0]),) + args[1:], kwargs, None

        return self._wrap("quadrature.matsubara_sum", fn, before=before)

    def _x_grid(self, fn):
        def before(args, kwargs):
            self.count["x_points"] += args[3].size
            return args, kwargs, None

        return self._wrap("reflection.x_grid", fn, before=before)

    @contextlib.contextmanager
    def installed(self, observables, cli):
        """Wrap the layer entry points for the duration of the block."""
        patches = [(cli, "main", self._wrap("cli.main", cli.main))]
        for name in OBSERVABLES:
            fn = getattr(observables, name)
            patches.append((observables, name,
                            self._wrap(f"observables.{name}", fn)))
        for name in QUADRATURE:
            patches.append((observables, name,
                            self._quadrature(name,
                                             getattr(observables, name))))
        patches.append((observables, "matsubara_sum",
                        self._matsubara(observables.matsubara_sum)))
        for name in ("x_factors_grid", "lifshitz_x_grid"):
            patches.append((observables, name,
                            self._x_grid(getattr(observables, name))))
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        for mod, name, wrapper in patches:
            setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def save(self, path) -> None:
        import numpy as np
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 record=np.frombuffer(self.record, dtype=np.int64))

    def layer_metrics(self, records: int, sweep_ids: set, sweep_rows: int,
                      bytes_out: int, overhead: float) -> tuple[dict, dict]:
        """Per-layer metrics, per record where they are totals, and the
        base counts each one rests on.  `sweep_ids` are the record ids of
        the CLI sweep calls, which wrote `sweep_rows` rows."""
        import numpy as np

        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        nested = parent >= 0
        # self time: duration minus the durations of the direct children
        own = dur - np.bincount(parent[nested], weights=dur[nested],
                                minlength=len(dur))
        k = len(self.names)
        ncalls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)

        def get(arr, layer):
            return arr[self.names.index(layer)] if layer in self.names \
                else 0

        def calls(layer):
            return int(get(ncalls, layer))

        def self_ms(layer):
            return 1e3 * float(get(self_s, layer))

        c, n = self.count, records

        def per(x):
            return x / n

        def ratio(x, base):
            return x / base if base else 0.0

        semiinf = "quadrature.integrate_semiinf"
        interval = "quadrature.integrate_interval"
        msum = "quadrature.matsubara_sum"
        m = {
            f"{semiinf}.calls": per(calls(semiinf)),
            f"{semiinf}.self_ms": per(self_ms(semiinf)),
            f"{interval}.calls": per(calls(interval)),
            f"{interval}.self_ms": per(self_ms(interval)),
            "quadrature.batches": per(c["batches"]),
            "quadrature.us_per_batch": ratio(
                1e3 * (self_ms(semiinf) + self_ms(interval)), c["batches"]),
            "quadrature.points": per(c["points"]),
            "quadrature.points_per_integral": ratio(c["points"],
                                                    c["integrals"]),
            "quadrature.useful_point_frac": ratio(15 * c["panels"],
                                                  c["points"]),
            f"{msum}.calls": per(calls(msum)),
            f"{msum}.terms": per(c["terms"]),
            f"{msum}.self_ms": per(self_ms(msum)),
            "observables.integrand.self_ms":
                per(self_ms("observables.integrand")),
        }
        for obs in ("energy_T0", "free_energy"):
            m[f"observables.{obs}.calls"] = per(calls(f"observables.{obs}"))
        for obs in ("energy_T0", "free_energy", "pressure_plates", "entropy"):
            layer = f"observables.{obs}"
            m[f"{layer}.ms_per_call"] = ratio(
                1e3 * float(get(total, layer)), calls(layer))
        x_self = self_ms("reflection.x_grid")
        sweep_energy = 0
        if "observables.energy_T0" in self.names and sweep_ids:
            rec = np.frombuffer(self.record, dtype=np.int64)
            is_energy = name == self.names.index("observables.energy_T0")
            sweep_energy = int(np.isin(rec[is_energy], list(sweep_ids)).sum())
        m.update({
            "observables.evals_per_record": per(c["points"]),
            "reflection.x_grid.calls": per(calls("reflection.x_grid")),
            "reflection.x_grid.points": per(c["x_points"]),
            "reflection.x_grid.self_ms": per(x_self),
            "reflection.x_grid.ns_per_point": ratio(1e6 * x_self,
                                                    c["x_points"]),
            "cli.main.self_ms": per(self_ms("cli.main")),
            "cli.bytes_out": per(bytes_out),
            "cli.energy_T0_per_record": ratio(sweep_energy, sweep_rows),
            "trace.overhead_frac": overhead,
        })
        bases = {
            "records": n,
            "spans": len(dur),
            "integrals": c["integrals"],
            "batches": c["batches"],
            "points": c["points"],
            "final_panels": c["panels"],
            "matsubara_terms": c["terms"],
            "x_grid_points": c["x_points"],
            "sweep_rows": sweep_rows,
            "sweep_energy_T0_calls": sweep_energy,
            "calls": {layer: calls(layer) for layer in self.names},
        }
        return m, bases
