"""Command-line front end.

Subcommands: ep3, reproduce, sweep, spectrum, report.  All flag and file
values are ordinary frequencies in MHz (plus dB and tesla); the angular
internals never leak.  Exit codes: 0 success, 2 validation error,
3 numerical failure (pole, lost branch or a dip clamped at the floor).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import figures
from .core import locate_ep3
from .params import (
    GAMMA_MHZ,
    KAPPA1_MHZ,
    KAPPA2_MHZ,
    DriveParams,
    SymmetricParams,
    ValidationError,
    mhz,
    to_mhz,
)
from .sensing import BranchTrackingError, SensitivityChain, sensitivity_report
from .spectrum import (
    DEFAULT_FLOOR_DB,
    EXPERIMENTAL_FLOOR_DB,
    FlatTraceError,
    cpa_drive,
    csv_text,
    default_grid,
    find_dip,
    output_power,
    perturbed_system,
    total_output_spectrum,
    trace_to_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

QUANTITIES = ("eigenvalues", "dip", "sensitivity")
AXES = ("g", "delta", "delta_b")


def _defaults() -> dict:
    """The sweep configuration that --config files and flags override.

    A fresh dict per call, because _merge_config updates it in place.
    """
    return {
        "system": {
            "gamma_mhz": GAMMA_MHZ,
            # 2*sqrt(3), the EP3 coupling at GAMMA_MHZ as the sweep goldens
            # were made: locate_ep3 gives 3.464101615137755, one ulp above
            "g_mhz": 3.4641016151377544,
            "delta_mhz": None,
            "kappa1_mhz": KAPPA1_MHZ,
            "kappa2_mhz": KAPPA2_MHZ,
        },
        "sweep": {"axis": "g", "start_mhz": 3.0, "stop_mhz": 8.0,
                  "points": 101},
        "quantity": "eigenvalues",
        "floor_db": DEFAULT_FLOOR_DB,
        "output": {"path": None, "format": "csv"},
    }


def _merge_config(path: str | None, overrides: dict) -> dict:
    config = _defaults()
    if path:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"config file {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ValidationError(f"config file {path}: top level must be "
                                  f"a JSON object")
        for section, content in user.items():
            if not isinstance(config.get(section), dict):
                config[section] = content
            elif isinstance(content, dict):
                config[section].update(content)
            else:
                raise ValidationError(f"config: {section} must be a JSON "
                                      f"object, got {content!r}")
    for key, value in overrides.items():
        if value is None:
            continue
        section, _, leaf = key.partition(".")
        if leaf:
            config.setdefault(section, {})[leaf] = value
        else:
            config[section] = value
    return config


def _convert(raw, name: str, kind=float):
    try:
        value = kind(raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config: {name}={raw!r} is not "
                              f"a valid {kind.__name__}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"config: {name} must be finite")
    return value


def _require(config: dict, section: str, key: str, kind=float):
    try:
        raw = config[section][key]
    except KeyError as exc:
        raise ValidationError(f"config: missing {section}.{key}") from exc
    return _convert(raw, f"{section}.{key}", kind)


def _symmetric_from_config(config: dict) -> SymmetricParams:
    gamma = _require(config, "system", "gamma_mhz")
    g = _require(config, "system", "g_mhz")
    delta_raw = config.get("system", {}).get("delta_mhz")
    if delta_raw is None:
        return SymmetricParams.manifold_point(mhz(gamma), mhz(g))
    delta = _convert(delta_raw, "system.delta_mhz")
    return SymmetricParams(gamma=mhz(gamma), g=mhz(g), delta=mhz(delta))


def _drive_from_spec(spec: str, params) -> DriveParams:
    if spec == "cpa":
        return cpa_drive(params)
    try:
        p_str, phi_str = spec.split(",")
        p, phi = float(p_str), float(phi_str)
    except ValueError as exc:
        raise ValidationError(
            f"drive must be 'cpa' or 'p,phi', got {spec!r}") from exc
    return DriveParams(p=p, phi=phi)


@contextmanager
def _writing(path):
    """Report a file or directory that cannot be written as a usage error."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: "
                              f"{exc.strerror or exc}") from exc


def _emit(path: str | None, text: str) -> None:
    if path:
        with _writing(path):
            Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _check_numbers(args) -> None:
    """Every number on the command line is finite, and every count >= 1."""
    for dest, value in vars(args).items():
        flag = "--" + dest.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value!r}")
        if type(value) is int and value < 1:
            raise ValidationError(f"{flag} must be >= 1, got {value}")


# ---------------------------------------------------------------- commands

def cmd_ep3(args) -> int:
    if args.gamma_mhz <= 0:
        raise ValidationError("--gamma-mhz must be > 0")
    gamma = mhz(args.gamma_mhz)
    if not math.isfinite(2.0 * gamma):
        raise ValidationError(f"--gamma-mhz {args.gamma_mhz:g} is too large: "
                              f"its degeneracy coupling 2*gamma/sqrt(3) "
                              f"overflows")
    point = locate_ep3(gamma)
    payload = {
        "gamma_mhz": args.gamma_mhz,
        "g_ep3_mhz": to_mhz(point.g),
        "delta_ep3_mhz": to_mhz(point.delta),
    }
    print(f"third-order degeneracy at gamma = {args.gamma_mhz:g} MHz: "
          f"g = {payload['g_ep3_mhz']:.5g} MHz, "
          f"delta = {payload['delta_ep3_mhz']:.5g} MHz")
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    with _writing(args.outdir):
        paths = figures.generate(args.figure, args.outdir)
    for p in paths:
        print(p)
    return EXIT_OK


def _sweep_axis_values(config: dict) -> np.ndarray:
    start = _require(config, "sweep", "start_mhz")
    stop = _require(config, "sweep", "stop_mhz")
    points = _require(config, "sweep", "points", int)
    if points < 2:
        raise ValidationError("config: sweep.points must be >= 2")
    if not math.isfinite(stop - start) or stop <= start:
        raise ValidationError("config: sweep range must be finite with "
                              "stop > start")
    return np.linspace(start, stop, points)


def _sweep_rows(config: dict) -> tuple[list[str], np.ndarray]:
    axis = _require(config, "sweep", "axis", str)
    if axis not in AXES:
        raise ValidationError(f"config: sweep.axis must be one of {AXES}")
    quantity = str(config.get("quantity", "eigenvalues"))
    if quantity not in QUANTITIES:
        raise ValidationError(f"config: quantity must be one of {QUANTITIES}")
    gamma_mhz = _require(config, "system", "gamma_mhz")
    values = _sweep_axis_values(config)
    floor_db = _convert(config.get("floor_db", DEFAULT_FLOOR_DB), "floor_db")
    kappa1 = mhz(_require(config, "system", "kappa1_mhz"))
    kappa2 = mhz(_require(config, "system", "kappa2_mhz"))

    if quantity == "eigenvalues":
        if axis == "delta_b":
            raise ValidationError("eigenvalue sweeps use axis 'g' or 'delta'")
        header = [axis + "_mhz", "re0_mhz", "im0_mhz", "re_plus_mhz",
                  "im_plus_mhz", "re_minus_mhz", "im_minus_mhz"]
        # drop the column of the other manifold parameter
        return header, np.delete(figures.manifold_rows(gamma_mhz, axis, values),
                                 1, axis=1)

    if axis != "delta_b":
        raise ValidationError(f"quantity {quantity!r} sweeps axis 'delta_b'")
    sym = _symmetric_from_config(config)
    sym.require_manifold()

    chain = SensitivityChain(sym, values, kappa1, kappa2, floor_db)
    if quantity == "dip":
        header = ["delta_b_mhz", "dip_mhz", "dip_db", "delta_omega_mhz"]
        return header, np.column_stack([
            values, [dip.dip_location for dip in chain.dips], chain.dip_db,
            chain.delta_omega])

    if values[0] <= 0:
        raise ValidationError("sensitivity sweep requires delta_b > 0")
    header = ["delta_b_mhz", "delta_omega_mhz", "g_ep3", "g_cpa_db_per_mhz",
              "g_syn_db_per_mhz", "delta_b_min_tesla"]
    b_min = chain.delta_b_min()
    return header, np.column_stack([values, chain.delta_omega, chain.g_ep3,
                                    chain.g_cpa, chain.g_syn, b_min])


def cmd_sweep(args) -> int:
    overrides = {
        "sweep.axis": args.axis,
        "sweep.start_mhz": args.start_mhz,
        "sweep.stop_mhz": args.stop_mhz,
        "sweep.points": args.points,
        "quantity": args.quantity,
        "system.gamma_mhz": args.gamma_mhz,
        "system.g_mhz": args.g_mhz,
        "system.kappa1_mhz": args.kappa1_mhz,
        "system.kappa2_mhz": args.kappa2_mhz,
        "floor_db": args.floor_db,
        "output.path": args.out,
        "output.format": args.format,
    }
    config = _merge_config(args.config, overrides)
    header, rows = _sweep_rows(config)
    fmt = str(config.get("output", {}).get("format", "csv"))
    path = config.get("output", {}).get("path")
    if path is not None and not isinstance(path, str):
        raise ValidationError(f"config: output.path must be a string, "
                              f"got {path!r}")
    if fmt == "csv":
        _emit(path, csv_text(",".join(header), ["%.12g"] * len(header), rows))
    elif fmt == "json":
        payload = [dict(zip(header, row))
                   for row in np.asarray(rows, dtype=float).tolist()]
        _emit(path, json.dumps(payload, indent=2) + "\n")
    else:
        raise ValidationError(f"output.format must be csv or json, got {fmt!r}")
    return EXIT_OK


def _probe_grid(args) -> np.ndarray:
    """The --span-mhz/--points grid: strictly increasing, and every probe
    offset's square in rad/us finite, as the response functions need."""
    span = args.span_mhz
    if not (span > 0 and math.isfinite(mhz(span) * mhz(span))):
        raise ValidationError(f"--span-mhz must be > 0 with a finite square "
                              f"in rad/us, got {span!r}")
    grid = default_grid(span_mhz=span, points=args.points)
    if np.any(np.diff(grid) <= 0):
        raise ValidationError(f"--span-mhz {span!r} is too small for "
                              f"--points {args.points}: the probe grid does "
                              f"not strictly increase")
    return grid


def cmd_spectrum(args) -> int:
    gamma = mhz(args.gamma_mhz)
    if args.delta_mhz is None:
        sym = SymmetricParams.manifold_point(gamma, mhz(args.g_mhz))
    else:
        sym = SymmetricParams(gamma=gamma, g=mhz(args.g_mhz),
                              delta=mhz(args.delta_mhz))
    if args.delta_b_mhz == 0.0:
        # unperturbed spectra are allowed off the manifold
        params = sym.to_system(mhz(args.kappa1_mhz), mhz(args.kappa2_mhz))
    else:
        params = perturbed_system(sym, mhz(args.kappa1_mhz),
                                  mhz(args.kappa2_mhz), mhz(args.delta_b_mhz))
    drive = _drive_from_spec(args.drive, params)
    trace = total_output_spectrum(params, drive, _probe_grid(args),
                                  floor_db=args.floor_db)
    # the dip is searched before anything is written, so a failed search
    # leaves no file behind
    dip = None
    if args.dip:
        power = output_power(params, drive)
        dip = find_dip(trace, lambda nu: float(power(mhz(nu))))
    _emit(args.out, trace_to_csv(trace))
    if dip is not None:
        print(f"dip: {dip.dip_location:.6f} MHz at {dip.dip_value_db:.3f} dB",
              file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    if args.delta_b_mhz <= 0:
        raise ValidationError("--delta-b-mhz must be > 0")
    report = sensitivity_report(args.delta_b_mhz, floor_db=args.floor_db)
    text = report.to_json() + "\n"
    if args.out:
        _emit(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimag",
        description="Three-mode cavity-magnonic spectra, degeneracies, "
                    "absorption dips and sensitivity factors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ep3", help="locate the third-order degeneracy")
    p.add_argument("--gamma-mhz", type=float, required=True)
    p.set_defaults(func=cmd_ep3)

    p = sub.add_parser("reproduce", help="write figure data files")
    p.add_argument("figure", choices=figures.FIGURES)
    p.add_argument("--outdir", default="figure_data")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", help="sweep one axis and tabulate a quantity")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--axis", choices=AXES)
    p.add_argument("--start-mhz", type=float)
    p.add_argument("--stop-mhz", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--quantity", choices=QUANTITIES)
    p.add_argument("--gamma-mhz", type=float)
    p.add_argument("--g-mhz", type=float)
    p.add_argument("--kappa1-mhz", type=float)
    p.add_argument("--kappa2-mhz", type=float)
    p.add_argument("--floor-db", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="total output power over a probe grid")
    p.add_argument("--gamma-mhz", type=float, default=GAMMA_MHZ)
    p.add_argument("--g-mhz", type=float, required=True)
    p.add_argument("--delta-mhz", type=float,
                   help="detuning; defaults to the manifold value")
    p.add_argument("--kappa1-mhz", type=float, default=KAPPA1_MHZ)
    p.add_argument("--kappa2-mhz", type=float, default=KAPPA2_MHZ)
    p.add_argument("--drive", default="cpa", help="'cpa' or 'p,phi'")
    p.add_argument("--delta-b-mhz", type=float, default=0.0)
    p.add_argument("--span-mhz", type=float, default=10.0)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--floor-db", type=float, default=DEFAULT_FLOOR_DB)
    p.add_argument("--dip", action="store_true",
                   help="also print the refined dip to stderr")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("report", help="sensitivity factors at the degeneracy")
    p.add_argument("--delta-b-mhz", type=float, required=True)
    p.add_argument("--floor-db", type=float, default=EXPERIMENTAL_FLOOR_DB)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def _is_negative_number(word: str) -> bool:
    if not word.startswith("-"):
        return False
    try:
        float(word)
    except ValueError:
        return False
    return True


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """Write each `--flag -1e-3` pair as `--flag=-1e-3`.

    argparse reads a word that starts with "-" as a flag unless it looks
    like a plain negative number, and -1e-3 or -inf do not; attached,
    such a value reaches the command's own checks.
    """
    out = []
    for word in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _is_negative_number(word)):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_numbers(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        _check_numbers(args)
        # a floating-point overflow or invalid operation is a numerical
        # failure of the command, not a warning beside its output
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, FlatTraceError, BranchTrackingError) as exc:
        # ArithmeticError: poles, floor clamps, zero divisions, overflows
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
