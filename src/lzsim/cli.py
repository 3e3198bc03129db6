"""Command-line interface: config in, CSV/JSON artifact out.

Subcommands map one-to-one onto the library's computations; ``_COMMANDS``
holds each one's handler and summary, ``lzsim <command> --help`` its keys.

Every artifact embeds its fully resolved configuration, so a run can be
reproduced exactly from the file it wrote.  Identical configurations give
byte-identical artifacts except for the wall-time metadata field.
"""

import argparse
import math
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, key_help, read_config_file, resolve
from .errors import FitDegenerateError, NumericalFailure, require_int, require_real
from .models import (
    CavityCoupling,
    JointState,
    QubitSpec,
    QubitState,
    SemiclassicalDrive,
    _require_memory,
    adequate_n_max,
    adequate_n_min,
    coherent_state,
    fock_state,
)
from .output import OutputTable, write_table
from .specfun import (
    MAX_BESSEL_ORDER,
    _bessel_column,
    bessel_j_adiabatic_impulse,
    bessel_j_adiabatic_impulse_expanded,
    bessel_j_asymptotic,
)
from .spectra import (
    bessel_laguerre_identity_error_grid,
    comparison_grid,
    figure_photon_grid,
    fit_amplitude_shift,
    predicted_shift,
)
from .dynamics import SpectralEvolution, TimeGrid, propagate_semiclassical

# peak bytes an artifact cell holds while its rows are built and written;
# tracemalloc measured 16-47 writing CSV and 65-90 writing JSON on evolve,
# bessel-approx and identity-sweep tables of 0.18-1.8 million cells
_CELL_BYTES = 96


def _require_table_memory(command: str, rows: int, width: int) -> None:
    """Refuse a product-grid table beyond physical memory before its first cell."""
    _require_memory(_CELL_BYTES * rows * width, f"{command} table of {rows} rows")


def _cmd_rabi_freq(cfg: RunConfig):
    p = cfg.parameters
    ns = figure_photon_grid() if p["n"] == "figure" else p["n"]
    qubit = QubitSpec(gap=p["gap"], bias=float(p["k"]))
    rows = comparison_grid(qubit, p["coupling"], p["k"], ns, p["shift"])
    header = ("n", "omega_s", "omega_q", "a_eff")
    return header, [(float(r.n), r.omega_s, r.omega_q, r.a_eff) for r in rows], {}


def _cmd_evolve(cfg: RunConfig):
    p = cfg.parameters
    qubit = QubitSpec(gap=p["gap"], bias=p["bias"])
    grid = TimeGrid(t0=0.0, t1=p["t-end"], samples=p["samples"])
    quantum = p["picture"] != "semiclassical"
    _require_table_memory("evolve", p["samples"], 3 if quantum and p["quadrature"] else 2)
    extra = {}

    if not quantum:
        drive = SemiclassicalDrive(amplitude=p["amplitude"], phase=p["phase"])
        trace = propagate_semiclassical(
            qubit, drive, QubitState.down(), grid,
            steps_per_period=p["steps-per-period"],
        )
        quad = None
    else:
        coupling = p["coupling"]
        mean = p["mean"] if p["initial"] == "coherent" else float(p["m"])
        n_max = p["n-max"] if p["n-max"] is not None else adequate_n_max(mean, coupling)
        # the window's lower edge mirrors the n-max rule, kept below n-max
        n_min = min(adequate_n_min(mean, coupling), n_max - 1)
        if n_min > 0:
            extra["n-min"] = str(n_min)
        extra["n-max"] = str(n_max)
        try:
            # the evolution first: its memory guard runs before any state is built
            evolution = SpectralEvolution(qubit, CavityCoupling(coupling, n_max, n_min))
            if p["initial"] == "coherent":
                cavity_vec = coherent_state(math.sqrt(mean), n_max, n_min)
            else:
                cavity_vec = fock_state(p["m"], n_max, n_min)
            state = JointState.from_product(QubitState.down(), cavity_vec, n_max, n_min)
            trace, quad = evolution.traces(state, grid, quadrature=p["quadrature"])
        except NumericalFailure as exc:
            raise type(exc)(
                f"quantum evolution with initial={p['initial']}, "
                f"mean occupation {mean:g}, n-min={n_min}, n-max={n_max}: {exc}"
            ) from exc

    header, columns = ("t", "p_down"), [trace.times, trace.p_down]
    if quad is not None:
        header, columns = header + ("x_mean",), columns + [quad.x_mean]
    return header, np.column_stack(columns), extra


def _cmd_fit_shift(cfg: RunConfig):
    p = cfg.parameters
    _require_table_memory("fit-shift", len(p["coupling"]) * len(p["k"]), 5)
    rows = []
    for coupling in p["coupling"]:
        for k in p["k"]:
            qubit = QubitSpec(gap=p["gap"], bias=float(k))
            try:
                fit = fit_amplitude_shift(qubit, coupling, k, p["n"])
                offset, residual = fit.offset, fit.residual
            except FitDegenerateError:
                # marked cell; the rest of the sweep still runs
                offset, residual = math.nan, math.nan
            rows.append((coupling, float(k), offset, residual, predicted_shift(coupling, k)))
    header = ("coupling", "k", "offset", "residual", "predicted")
    return header, rows, {}


def _cmd_bessel_approx(cfg: RunConfig):
    p = cfg.parameters
    _require_table_memory("bessel-approx", len(p["k"]) * len(p["x"]), 9)
    # every cell checked as bessel_j checks it, before the first column
    ks = [require_int("k", k, 0, MAX_BESSEL_ORDER) for k in p["k"]]
    xs = [require_real("x", x, 0.0) for x in p["x"]]
    rows = []
    for k in ks:
        for x, exact in zip(xs, _bessel_column(k, xs).tolist()):
            asym = bessel_j_asymptotic(k, x)
            if x > k:
                adia = bessel_j_adiabatic_impulse(k, x)
                adia_exp = bessel_j_adiabatic_impulse_expanded(k, x)
            else:
                # turning-point forms are undefined at or below x = k
                adia = adia_exp = math.nan
            rows.append((
                float(k), x, exact, asym, adia, adia_exp,
                abs(asym - exact), abs(adia - exact), abs(adia_exp - exact),
            ))
    header = (
        "k", "x", "exact", "asymptotic", "adiabatic", "adiabatic_expanded",
        "err_asymptotic", "err_adiabatic", "err_adiabatic_expanded",
    )
    return header, rows, {}


def _cmd_identity_sweep(cfg: RunConfig):
    p = cfg.parameters
    _require_table_memory("identity-sweep", len(p["x"]) * len(p["n"]) * len(p["k"]), 4)
    errors = bessel_laguerre_identity_error_grid(p["x"], p["n"], p["k"])
    # one row per (x, n, k) cell, x outermost and k innermost
    axes = np.ix_(*(np.array(p[key], dtype=float) for key in ("x", "n", "k")))
    rows = np.stack(np.broadcast_arrays(*axes, errors), axis=-1).reshape(-1, 4)
    return ("x", "n", "k", "error"), rows, {}


# subcommand name -> (handler, one-line summary); the parser and main both
# read it.  Every handler maps a RunConfig to (header, rows, extra metadata).
_COMMANDS = {
    "rabi-freq": (_cmd_rabi_freq, "Rabi frequency from both pictures over a photon-number grid"),
    "evolve": (_cmd_evolve, "time-domain population trace"),
    "fit-shift": (_cmd_fit_shift, "fit the photon-number offset per (coupling, k) cell"),
    "bessel-approx": (_cmd_bessel_approx, "Bessel approximations and their errors over (k, x)"),
    "identity-sweep": (_cmd_identity_sweep, "Bessel/Laguerre identity error over (x, n, k)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzsim",
        description="Driven two-level system: semiclassical vs quantized-drive "
        "Rabi frequencies, time-domain traces, and Bessel approximation sweeps.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        cmd = sub.add_parser(
            name, help=summary, description=f"{summary}\n\n{key_help(name)}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        cmd.add_argument(
            "overrides", nargs="*", metavar="key=value",
            help="parameter overrides; take precedence over --config entries",
        )
        cmd.add_argument("--config", metavar="PATH", help="flat key = value config file")
        cmd.add_argument("--out", metavar="PATH", help="output path ('-' or absent: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), help="artifact format (default csv)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            raw = read_config_file(args.config) if args.config else {}
        except OSError as exc:  # strerror, as str(exc) repeats the path
            raise ConfigError([f"cannot read {args.config}: {exc.strerror}"]) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError([f"cannot read {args.config}: {exc}"]) from exc
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError([f"override must be key=value, got {item!r}"])
            key, _, value = item.partition("=")
            raw[key.strip()] = value.strip()
        # flags shadow (and consume) the matching file keys
        file_out = raw.pop("out", None)
        file_fmt = raw.pop("format", None)
        out_path = args.out if args.out is not None else file_out
        fmt = args.format if args.format is not None else (file_fmt or "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError([f"format must be csv or json, got {fmt!r}"])
        cfg = resolve(args.command, raw)

        start = time.perf_counter()
        try:
            header, rows, extra = _COMMANDS[args.command][0](cfg)
        except ValueError as exc:
            # input the key checks let through, refused by the library
            raise ConfigError([f"{args.command}: {exc}"]) from exc
        elapsed = time.perf_counter() - start

        metadata = cfg.echo()
        metadata["format"] = fmt
        if out_path is not None:
            metadata["out"] = str(out_path)
        metadata.update(extra)
        metadata["artifact-version"] = __version__
        metadata["wall-time-s"] = format(elapsed, ".3f")
        try:
            write_table(OutputTable(header, rows, metadata), out_path, fmt)
        except OSError as exc:
            raise ConfigError([f"cannot write {out_path or '-'}: {exc.strerror}"]) from exc
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"lzsim: config error: {problem}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"lzsim: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
