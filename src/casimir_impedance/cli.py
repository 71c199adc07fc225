"""Command-line interface.

Commands: energy | free-energy | pressure | sphere-plate | entropy |
sweep | regime | zero-freq.  All inputs are SI (meters, kelvin, rad/s);
scientific notation is accepted, unit suffixes are not.

Observable commands emit one record per (separation, temperature) pair,
as a fixed-schema CSV (17 significant digits, '.' decimal separator,
LF line endings; byte-identical for identical configurations) or as
aligned human-readable blocks.  Non-convergence or a non-finite integrand
in a single row leaves its value fields empty, is noted in the status
column, and turns the exit status to 3; configuration errors exit with 2.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .physcore import (
    GOLD, Geometry, MaterialParams, ThermalState, ToleranceConfig,
    classify_regime, derive_anomalous_constant,
)
from .impedance import AnomalousSkin, IdealMetal, InfraredOptics, NormalSkin
from .reflection import Drude, Plasma
from .quadrature import NonConvergenceError
from . import observables as obs

CSV_COLUMNS = (
    "a_m", "T_K", "model",
    "energy_J_per_m2", "free_energy_J_per_m2",
    "correction_factor", "rel_thermal_correction",
    "terms_used", "err_estimate",
    "pressure_N_per_m2", "force_sphere_plate_N", "entropy_J_per_m2_K",
    "status",
)

MODEL_NAMES = ("ideal", "normal-skin", "anomalous-skin", "infrared-optics",
               "lifshitz-plasma", "lifshitz-drude")

# command -> (CSV column, observables function); the function is looked up
# by name when a record is computed, so a patched module attribute is seen
OBSERVABLE_COMMANDS = {
    "pressure": ("pressure_N_per_m2", "pressure_plates"),
    "sphere-plate": ("force_sphere_plate_N", "force_sphere_plate"),
    "entropy": ("entropy_J_per_m2_K", "entropy"),
}

ZERO_FREQ_FORMS = (
    ("impedance-normal", NormalSkin),
    ("impedance-anomalous", AnomalousSkin),
    ("impedance-infrared", InfraredOptics),
    ("lifshitz-plasma", Plasma),
    ("lifshitz-drude", Drude),
)


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}" if isinstance(x, float) else str(x)


def _parse_grid(text: str, *, log: bool, what: str) -> list[float]:
    """A single value, a comma list, or start:stop:count (count >= 2)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{what}: expected start:stop:count, got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ConfigError(f"{what}: bad grid {text!r}") from None
        if count < 2:
            raise ConfigError(f"{what}: grid count must be >= 2")
        if not start < stop:
            raise ConfigError(f"{what}: grid requires start < stop")
        if log:
            if start <= 0.0:
                raise ConfigError(f"{what}: log grid requires start > 0")
            return list(np.geomspace(start, stop, count))
        return list(np.linspace(start, stop, count))
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{what}: bad value {text!r}") from None


def _load_material(name: str) -> MaterialParams:
    if name == "gold":
        return GOLD
    try:
        return MaterialParams.from_file(name)
    except FileNotFoundError:
        raise ConfigError(
            f"unknown material {name!r}: use 'gold' or a material file path"
        ) from None
    except ValueError as exc:
        raise ConfigError(f"bad material file {name!r}: {exc}") from None


def _build_model(name: str, material: MaterialParams,
                 sigma: float | None, gamma: float | None):
    if name == "ideal":
        return IdealMetal()
    if name == "normal-skin":
        s = sigma if sigma is not None else material.conductivity
        if s is None:
            raise ConfigError("model normal-skin requires the conductivity: "
                              "pass --sigma or put sigma= in the material file")
        return NormalSkin(s)
    if name == "anomalous-skin":
        c_a = material.anomalous_constant
        if c_a is None:
            c_a = derive_anomalous_constant(material)
        return AnomalousSkin(c_a)
    if name == "infrared-optics":
        return InfraredOptics(material.plasma_frequency)
    if name == "lifshitz-plasma":
        return Plasma(material.plasma_frequency)
    if name == "lifshitz-drude":
        if gamma is None:
            raise ConfigError("model lifshitz-drude requires the relaxation "
                              "frequency: pass --gamma")
        return Drude(material.plasma_frequency, gamma)
    raise ConfigError(f"unknown model {name!r}: choose from "
                      + ", ".join(MODEL_NAMES))


@dataclass
class Record:
    a_m: float
    T_K: float
    model: str
    values: dict = field(default_factory=dict)
    status: str = "ok"

    def row(self) -> list[str]:
        return [_fmt(self.a_m), _fmt(self.T_K), self.model,
                *(_fmt(self.values.get(col)) for col in CSV_COLUMNS[3:-1]),
                self.status]


def _emit(records: list[Record], fmt: str, stream) -> None:
    if fmt == "csv":
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            stream.write(",".join(rec.row()) + "\n")
        return
    for rec in records:
        stream.write(f"a = {_fmt(rec.a_m)} m   T = {_fmt(rec.T_K)} K   "
                     f"model = {rec.model}\n")
        for col in CSV_COLUMNS[3:-1]:
            if col in rec.values:
                stream.write(f"  {col} = {_fmt(rec.values[col])}\n")
        if rec.status != "ok":
            stream.write(f"  status = {rec.status}\n")
        stream.write("\n")


def _compute_record(command: str, model_name: str, model, a: float, T: float,
                    radius: float | None, tol: ToleranceConfig) -> Record:
    geometry = Geometry(a, radius)
    state = ThermalState(T)
    rec = Record(a, T, model_name)
    vals = rec.values
    try:
        if command in OBSERVABLE_COMMANDS:
            column, name = OBSERVABLE_COMMANDS[command]
            result = getattr(obs, name)(model, geometry, state, tol)
            vals[column] = result.value
        else:  # energy, free-energy and sweep
            result = e = obs.energy_T0(model, geometry, tol)
            vals["energy_J_per_m2"] = e.value
            vals["correction_factor"] = e.diagnostics["correction_factor"]
            if T > 0.0:
                result = f = obs.free_energy(model, geometry, state, tol)
                vals["free_energy_J_per_m2"] = f.value
                vals["rel_thermal_correction"] = (f.value - e.value) / e.value
        vals["err_estimate"] = result.numeric_error
        if "terms_used" in result.diagnostics:
            vals["terms_used"] = result.diagnostics["terms_used"]
    except (NonConvergenceError, FloatingPointError) as exc:
        vals.clear()
        bad = isinstance(exc, FloatingPointError)
        rec.status = f"{'nonfinite' if bad else 'nonconvergence'}: {exc}"
    return rec


def _cmd_records(args) -> int:
    material = _load_material(args.material)
    tol = _make_tol(args)
    if args.separation is None:
        raise ConfigError("--separation is required")
    seps = sorted(_parse_grid(args.separation, log=True, what="--separation"))
    temps = (_parse_grid(args.temperature, log=False, what="--temperature")
             if args.temperature is not None else [0.0])
    temps = sorted(temps)

    model_names = args.model.split(",") if args.command == "sweep" \
        else [args.model]
    models = [(name, _build_model(name, material, args.sigma, args.gamma))
              for name in model_names]

    if args.command == "energy" and any(t > 0.0 for t in temps):
        raise ConfigError("energy is the T = 0 observable; "
                          "use free-energy for T > 0")
    if args.command == "entropy" and any(t <= 0.0 for t in temps):
        raise ConfigError("entropy requires --temperature > 0")
    if args.command == "sphere-plate" and args.radius is None:
        raise ConfigError("sphere-plate requires --radius")

    records = [_compute_record(args.command, name, model, a, T, args.radius,
                               tol)
               for a in seps for T in temps for name, model in models]

    fmt = args.format or ("csv" if args.command == "sweep" else "human")
    with _open_output(args.output) as stream:
        _emit(records, fmt, stream)
    return 3 if any(r.status != "ok" for r in records) else 0


def _cmd_regime(args) -> int:
    material = _load_material(args.material)
    if args.separation is None:
        raise ConfigError("--separation is required")
    seps = sorted(_parse_grid(args.separation, log=True, what="--separation"))
    T = (_parse_grid(args.temperature, log=False, what="--temperature")[0]
         if args.temperature is not None else 300.0)
    with _open_output(args.output) as stream:
        for a in seps:
            report = classify_regime(material, Geometry(a), ThermalState(T))
            stream.write(f"a = {_fmt(a)} m:\n")
            stream.write(f"  characteristic_frequency_rad_s = "
                         f"{_fmt(report.characteristic_frequency)}\n")
            stream.write(f"  transition_frequency_rad_s = "
                         f"{_fmt(report.transition_frequency)}\n")
            stream.write(f"  transition_separation_m = "
                         f"{_fmt(report.transition_separation)}\n")
            stream.write(f"  regime = {report.applicable_regime.value}\n")
            for check in report.diagnostics:
                margin = ("n/a" if check.margin is None
                          else f"{check.margin:.6g}")
                sat = ("n/a" if check.satisfied is None
                       else str(check.satisfied).lower())
                note = f" ({check.note})" if check.note else ""
                stream.write(f"  [{sat}] {check.label}: "
                             f"margin = {margin}{note}\n")
            stream.write("\n")
    return 0


def _cmd_zero_freq(args) -> int:
    material = _load_material(args.material)
    kperps = _parse_grid(args.kperp, log=True, what="--kperp")
    if any(k <= 0.0 for k in kperps):
        raise ConfigError("--kperp values must be positive")
    rows = [(name, k, *cls.zero_freq_r_sq(k, material.plasma_frequency))
            for name, cls in ZERO_FREQ_FORMS for k in kperps]
    fmt = args.format or "csv"
    with _open_output(args.output) as stream:
        if fmt == "csv":
            stream.write("formulation,k_perp_rad_m,r_par_sq,r_perp_sq\n")
            for name, k, rp, rt in rows:
                stream.write(f"{name},{_fmt(k)},{_fmt(rp)},{_fmt(rt)}\n")
        else:
            for name, k, rp, rt in rows:
                stream.write(f"{name:22s} k_perp = {_fmt(k):24s} "
                             f"r_par_sq = {_fmt(rp):24s} "
                             f"r_perp_sq = {_fmt(rt)}\n")
    return 0


def _make_tol(args) -> ToleranceConfig:
    if args.rel_tol is None:
        return ToleranceConfig()
    try:
        return ToleranceConfig(args.rel_tol)
    except ValueError:
        raise ConfigError(f"--rel-tol must lie in (0, 1e-2], got "
                          f"{args.rel_tol!r}") from None


@contextlib.contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="\n") as stream:
        yield stream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-impedance",
        description="Casimir observables for real-metal plates "
                    "(surface-impedance and Lifshitz formulations).")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "energy": "zero-temperature energy per unit area",
        "free-energy": "free energy per unit area at T > 0",
        "pressure": "pressure between plates",
        "sphere-plate": "sphere-plate force (proximity relation)",
        "entropy": "entropy per unit area, -dF/dT",
        "sweep": "grid sweep over separations/temperatures/models (CSV)",
        "regime": "report the applicable impedance regime",
        "zero-freq": "zero-frequency reflection coefficients table",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--material", default="gold",
                       help="material name or key=value file (default: gold)")
        p.add_argument("--model", default="infrared-optics",
                       help="one of %s; sweep accepts a comma list"
                            % ", ".join(MODEL_NAMES))
        p.add_argument("--separation",
                       help="separation in m: value, comma list, or "
                            "start:stop:count (log-spaced)")
        p.add_argument("--temperature",
                       help="temperature in K: value, comma list, or "
                            "start:stop:count (linear)")
        p.add_argument("--radius", type=float,
                       help="sphere radius in m (sphere-plate)")
        p.add_argument("--sigma", type=float,
                       help="conductivity in Gaussian units s^-1 (normal-skin)")
        p.add_argument("--gamma", type=float,
                       help="relaxation frequency in rad/s (lifshitz-drude)")
        p.add_argument("--rel-tol", type=float, dest="rel_tol",
                       help="relative tolerance of every integral and of "
                            "the Matsubara sum (default 1e-6)")
        p.add_argument("--kperp", default="1e5:1e8:7",
                       help="transverse wavenumber grid in rad/m (zero-freq)")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "human"),
                       help="output format (default: csv for sweep and "
                            "zero-freq, human otherwise)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        handler = {"regime": _cmd_regime, "zero-freq": _cmd_zero_freq}.get(
            args.command, _cmd_records)
        return handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
