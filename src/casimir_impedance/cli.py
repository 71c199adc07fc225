"""Command-line interface.

Commands: energy | free-energy | pressure | sphere-plate | entropy |
sweep | regime | zero-freq.  All inputs are SI (meters, kelvin, rad/s);
scientific notation is accepted, unit suffixes are not.

The record commands print the rows of `observables.records` as a
fixed-schema CSV (17 significant digits, '.' decimal separator, LF line
endings; byte-identical for identical configurations) or as aligned
human-readable blocks; a failed row keeps its place, with empty value
fields, and turns the exit status to 3.  Configuration errors, the grid's
ranges included, exit with 2 before anything reaches stdout or --output.
Validity warnings, of a model or of `regime`, go to stderr once each, as
'warning: <message>', after a command has succeeded.
Each command accepts only the options it reads (the table `OPTIONS`);
any other option exits 2, as an unknown option does.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
import warnings

import numpy as np

from .physcore import (
    GOLD, Geometry, MaterialParams, ThermalState, ToleranceConfig,
    classify_regime, derive_anomalous_constant,
)
from .reflection import (AnomalousSkin, Drude, IdealMetal, InfraredOptics,
                         NormalSkin, Plasma, zero_freq_r_sq)
from . import observables as obs

CSV_COLUMNS = (
    "a_m", "T_K", "model",
    "energy_J_per_m2", "free_energy_J_per_m2",
    "correction_factor", "rel_thermal_correction",
    "terms_used", "err_estimate",
    "pressure_N_per_m2", "force_sphere_plate_N", "entropy_J_per_m2_K",
    "status",
)

# record command -> the quantity of its rows (`observables.records`)
QUANTITIES = {"energy": obs.Quantity.ENERGY_PER_AREA,
              "free-energy": obs.Quantity.FREE_ENERGY_PER_AREA,
              "pressure": obs.Quantity.PRESSURE_PLATES,
              "sphere-plate": obs.Quantity.FORCE_SPHERE_PLATE,
              "entropy": obs.Quantity.ENTROPY_PER_AREA,
              "sweep": obs.Quantity.RELATIVE_THERMAL_CORRECTION}

# zero-freq formulation -> model name
ZERO_FREQ_FORMS = {"impedance-normal": "normal-skin",
                   "impedance-anomalous": "anomalous-skin",
                   "impedance-infrared": "infrared-optics",
                   "lifshitz-plasma": "lifshitz-plasma",
                   "lifshitz-drude": "lifshitz-drude"}

GRID_MAX = 10 ** 6  # most points of a start:stop:count grid


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}" if isinstance(x, float) else str(x)


def _parse_grid(text: str, *, log: bool, what: str) -> list[float]:
    """A value, a comma list, or start:stop:count (2 to GRID_MAX points)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{what}: expected start:stop:count, got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"{what}: bad grid {text!r}") from None
        if not 2 <= count <= GRID_MAX:
            raise ValueError(f"{what}: grid count must be in [2, {GRID_MAX}]")
        if not -math.inf < start < stop < math.inf:
            raise ValueError(f"{what}: grid requires finite start < stop")
        if log:
            if start <= 0.0:
                raise ValueError(f"{what}: log grid requires start > 0")
            return list(np.geomspace(start, stop, count))
        return list(np.linspace(start, stop, count))
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{what}: bad value {text!r}") from None


def _load_material(name: str) -> MaterialParams:
    if name == "gold":
        return GOLD
    try:
        return MaterialParams.from_file(name)
    except FileNotFoundError:
        raise ValueError(
            f"unknown material {name!r}: use 'gold' or a material file path"
        ) from None
    except OSError as exc:
        raise ValueError(f"cannot read material file {name!r}: "
                         f"{exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"bad material file {name!r}: {exc}") from None


def _given(value, message: str):
    if value is None:
        raise ValueError(message)
    return value


# model name -> its builder from (material, --sigma, --gamma)
MODELS = {
    "ideal": lambda m, sigma, gamma: IdealMetal(),
    "normal-skin": lambda m, sigma, gamma: NormalSkin(_given(
        m.conductivity if sigma is None else sigma, "model normal-skin "
        "requires the conductivity: pass --sigma or put sigma= in the "
        "material file")),
    "anomalous-skin": lambda m, sigma, gamma: AnomalousSkin(
        m.anomalous_constant or derive_anomalous_constant(m)),
    "infrared-optics": lambda m, sigma, gamma: InfraredOptics(
        m.plasma_frequency),
    "lifshitz-plasma": lambda m, sigma, gamma: Plasma(m.plasma_frequency),
    "lifshitz-drude": lambda m, sigma, gamma: Drude(
        m.plasma_frequency, _given(gamma, "model lifshitz-drude requires the "
                                   "relaxation frequency: pass --gamma")),
}
MODEL_NAMES = tuple(MODELS)


def _build_model(name: str, material: MaterialParams,
                 sigma: float | None, gamma: float | None):
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}: choose from "
                         + ", ".join(MODEL_NAMES))
    return MODELS[name](material, sigma, gamma)


def _emit(records: list[dict], fmt: str, stream) -> None:
    if fmt == "csv":
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            stream.write(",".join(_fmt(rec.get(col)) for col in CSV_COLUMNS)
                         + "\n")
        return
    for rec in records:
        stream.write(f"a = {_fmt(rec['a_m'])} m   T = {_fmt(rec['T_K'])} K   "
                     f"model = {rec['model']}\n")
        for col in CSV_COLUMNS[3:-1]:
            if col in rec:
                stream.write(f"  {col} = {_fmt(rec[col])}\n")
        if rec["status"] != "ok":
            stream.write(f"  status = {rec['status']}\n")
        stream.write("\n")


def _cmd_records(args) -> int:
    material = _load_material(args.material)
    tol = _make_tol(args)
    seps = sorted(_parse_grid(args.separation, log=True, what="--separation"))
    temps = sorted([0.0] if args.temperature is None else _parse_grid(
        args.temperature, log=False, what="--temperature"))

    model_names = args.model.split(",") if args.command == "sweep" \
        else [args.model]
    models = [(name, _build_model(name, material, args.sigma, args.gamma))
              for name in model_names]

    if args.command == "energy" and any(t > 0.0 for t in temps):
        raise ValueError("energy is the T = 0 observable; "
                         "use free-energy for T > 0")
    if args.command == "entropy" and any(t <= 0.0 for t in temps):
        raise ValueError("entropy requires --temperature > 0")
    radius = getattr(args, "radius", None)  # a sphere-plate option only
    for a, T in ((a, T) for a in seps for T in temps):  # before any record
        obs.check_range(Geometry(a, radius), ThermalState(T))

    fmt = args.format or ("csv" if args.command == "sweep" else "human")
    with _open_output(args.output) as stream:  # opened before any record
        records = obs.records(QUANTITIES[args.command], models, seps, temps,
                              tol, radius)
        _emit(records, fmt, stream)
    return 3 if any(r["status"] != "ok" for r in records) else 0


def _cmd_regime(args) -> int:
    material = _load_material(args.material)
    seps = sorted(_parse_grid(args.separation, log=True, what="--separation"))
    temps = ([300.0] if args.temperature is None else
             _parse_grid(args.temperature, log=False, what="--temperature"))
    for T in temps:  # checked, though the classification does not read it
        ThermalState(T)
    reports = [(a, classify_regime(material, Geometry(a)))
               for a in seps]  # every check before the output opens
    with _open_output(args.output) as stream:
        for a, report in reports:
            stream.write(f"a = {_fmt(a)} m:\n")
            stream.write(f"  characteristic_frequency_rad_s = "
                         f"{_fmt(report.characteristic_frequency)}\n")
            stream.write(f"  transition_frequency_rad_s = "
                         f"{_fmt(report.transition_frequency)}\n")
            stream.write(f"  transition_separation_m = "
                         f"{_fmt(report.transition_separation)}\n")
            stream.write(f"  regime = {report.applicable_regime.value}\n")
            for check in report.diagnostics:
                stream.write(f"  [{str(check.satisfied).lower()}] "
                             f"{check.label}: margin = {check.margin:.6g}\n")
            stream.write("\n")
    return 0


def _cmd_zero_freq(args) -> int:
    material = _load_material(args.material)
    kperps = _parse_grid(args.kperp, log=True, what="--kperp")
    # the zeta = 0 limit depends on neither sigma, C_a nor gamma
    tables = {form: zero_freq_r_sq(_build_model(name, material, 1.0, 1.0),
                                   kperps)
              for form, name in ZERO_FREQ_FORMS.items()}
    fmt = args.format or "csv"
    row = ("{},{},{},{}\n" if fmt == "csv" else
           "{:22s} k_perp = {:24s} r_par_sq = {:24s} r_perp_sq = {}\n")
    with _open_output(args.output) as stream:
        if fmt == "csv":
            stream.write("formulation,k_perp_rad_m,r_par_sq,r_perp_sq\n")
        for form, (r_par, r_perp) in tables.items():
            for k, rp, rt in zip(kperps, r_par.tolist(), r_perp.tolist()):
                stream.write(row.format(form, _fmt(k), _fmt(rp), _fmt(rt)))
    return 0


def _make_tol(args) -> ToleranceConfig:
    if args.rel_tol is None:
        return ToleranceConfig()
    try:
        return ToleranceConfig(args.rel_tol)
    except ValueError:
        raise ValueError(f"--rel-tol must lie in (0, 1e-2], got "
                         f"{args.rel_tol!r}") from None


@contextlib.contextmanager
def _warnings_once():
    """Print each distinct warning raised inside once, as 'warning: ...'."""
    with warnings.catch_warnings(record=True) as caught:
        yield
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)


@contextlib.contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        stream = open(path, "w", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot write --output {path!r}: "
                         f"{exc.strerror or exc}") from None
    with stream:
        yield stream


RECORD_COMMANDS = tuple(QUANTITIES)
_GRID_COMMANDS = (*RECORD_COMMANDS, "regime")
_ALL_COMMANDS = (*_GRID_COMMANDS, "zero-freq")

# option -> (the commands that read it, its add_argument keywords); a
# command's parser has only the options it reads and rejects the others
OPTIONS = {
    "--material": (_ALL_COMMANDS, dict(default="gold", help="material name "
                                       "or key=value file (default: gold)")),
    "--model": (RECORD_COMMANDS, dict(default="infrared-optics", help="one of "
                "%s; sweep accepts a comma list" % ", ".join(MODEL_NAMES))),
    "--separation": (_GRID_COMMANDS, dict(required=True, help="separation in "
                     "m: value, comma list, or start:stop:count "
                     "(log-spaced, count <= %d)" % GRID_MAX)),
    "--temperature": (_GRID_COMMANDS, dict(help="temperature in K: value, "
                      "comma list, or start:stop:count (linear, count <= %d);"
                      " the regime classification ignores it" % GRID_MAX)),
    "--radius": (("sphere-plate",), dict(type=float, required=True,
                                         help="sphere radius in m")),
    "--sigma": (RECORD_COMMANDS, dict(type=float, help="conductivity in "
                "Gaussian units s^-1 (normal-skin)")),
    "--gamma": (RECORD_COMMANDS, dict(type=float, help="relaxation frequency "
                "in rad/s (lifshitz-drude)")),
    "--rel-tol": (RECORD_COMMANDS, dict(type=float, help="relative tolerance "
                  "of every integral and of the Matsubara sum (default 1e-6)")),
    "--kperp": (("zero-freq",), dict(default="1e5:1e8:7", help="transverse "
                "wavenumber grid in rad/m (count <= %d)" % GRID_MAX)),
    "--output": (_ALL_COMMANDS, dict(help="output path (default: stdout)")),
    "--format": ((*RECORD_COMMANDS, "zero-freq"), dict(
        choices=("csv", "human"), help="output format (default: csv for "
        "sweep and zero-freq, human otherwise)")),
}


@functools.cache  # built once per process; parse_args leaves it unchanged
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
        p.set_defaults(command_parser=p)
        for flag, (readers, keywords) in OPTIONS.items():
            if name in readers:
                p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # under the usage of the command, which lists what it reads
        args.command_parser.error("unrecognized arguments: " + " ".join(extra))
    handler = {"regime": _cmd_regime, "zero-freq": _cmd_zero_freq}.get(
        args.command, _cmd_records)
    try:
        with _warnings_once():  # printed once the command has succeeded
            return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
