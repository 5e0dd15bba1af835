"""Command-line front end.

Subcommands: ``eval`` (all observables and criteria at a single time),
``sweep`` (CSV over a range of dimensionless times), ``critical``
(critical-displacement solve), ``wigner-grid`` (CSV of the quadrature Wigner
density over a rectangle) and ``verify`` (closed forms against the Fock
oracle).  Output is deterministic byte for byte for a fixed configuration:
floats are printed with 17 significant digits and every CSV embeds the full
parameter set, phase conventions and tool version in its header.

Each option is declared once, in ``OPTIONS``, and ``COMMANDS`` lists the
options each subcommand reads; the parser, the config-file check and the
handlers' namespaces are built from these two, so any other flag or config
key is a usage error.  Config keys are the namespace attribute names
(``lam``, ``u_steps``, ...); flags override file values.

Exit codes: 0 success, 1 usage error, 2 numerical gate failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import traceback
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__, nonclassicality, statistics, wigner
from .model import ModelParams, evolved_state

USAGE_ERROR = 1
GATE_ERROR = 2
_BLOCK_ROWS = 256  # sweep rows formatted per block
_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)

# config key -> (flag, type, default, help)
OPTIONS = {
    "nbar": ("--nbar", float, 0.0, "thermal occupation of the initial state"),
    "r": ("--r", float, 0.0, "squeeze magnitude r"),
    "theta": ("--theta", float, 0.0, "squeeze angle in radians"),
    "alpha": ("--alpha", float, 0.0, "displacement magnitude |alpha|"),
    "phi": ("--phi", float, 0.0, "displacement phase in radians"),
    "lam": ("--lambda", float, 0.0, "quadrature angle"),
    "u": ("--u", float, 0.0, "dimensionless time u"),
    "u_start": ("--u-start", float, 0.0, "first u"),
    "u_stop": ("--u-stop", float, 1.0, "last u"),
    "u_steps": ("--u-steps", int, 101, "number of u values"),
    "grid_steps": ("--grid-steps", int, 121, "points per axis"),
    "grid_halfwidth_sigmas": ("--grid-halfwidth-sigmas", float, 6.0,
                              "half-width per axis in standard deviations"),
    "out": ("--out", str, None, "output path (default stdout)"),
    "workers": ("--workers", int, None,
                "worker processes for verify (default: CPU count); the other "
                "subcommands run serially and accept only 1"),
}
_MODEL_KEYS = ("nbar", "r", "theta", "alpha", "phi", "lam")
_SHARED_KEYS = ("out", "workers")

# subcommand -> (help, the keys of OPTIONS it reads besides _SHARED_KEYS)
COMMANDS = {
    "eval": ("observables at a single time", (*_MODEL_KEYS, "u")),
    "sweep": ("CSV sweep over u", (*_MODEL_KEYS, "u_start", "u_stop",
                                   "u_steps")),
    "critical": ("critical displacement solve",
                 ("nbar", "r", "theta", "phi")),
    "wigner-grid": ("CSV of W over a quadrature rectangle",
                    (*_MODEL_KEYS, "u", "grid_steps",
                     "grid_halfwidth_sigmas")),
    "verify": ("closed forms against the Fock oracle", ()),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def _numbers(row, width: int) -> tuple:
    if not (isinstance(row, list) and len(row) == width):
        raise TypeError(f"{row!r} is not a list of {width} numbers")
    return tuple(map(_number, row))


def _wigner_point(row) -> tuple:
    """[nbar, r, alpha, u, beta], beta a number or [re, im]."""
    beta = row[4] if isinstance(row, list) and len(row) == 5 else None
    if isinstance(beta, list):
        return (*_numbers(row[:4], 4), complex(*_numbers(beta, 2)))
    return (*_numbers(row, 5)[:4], complex(beta))


# verify grids, read from the config file only: key -> entry converter;
# numbers are passed on as parsed, so the report echoes them unchanged
GRIDS = {"nbars": _number, "rs": _number, "alphas": _number, "us": _number,
         "evolution_grid": lambda row: _numbers(row, 4),
         "wigner_points": _wigner_point}


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return f"{x:.17g}"


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="dpagauss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, keys) in COMMANDS.items():
        # a flag not given stays off the namespace
        p = sub.add_parser(command, help=summary,
                           argument_default=argparse.SUPPRESS)
        for key in keys + _SHARED_KEYS:
            flag, kind, default, text = OPTIONS[key]
            if default is not None:
                text = f"{text} (default {default:g})"
            p.add_argument(flag, dest=key, type=kind, help=text)
        p.add_argument("--config",
                       help="JSON config file; flags override its values")
    return parser


def _read_config(path: str, command: str, keys: Sequence[str]) -> dict:
    """The values of a JSON config file, each checked as its flag would be."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    if not isinstance(file_values, dict):
        raise UsageError("config file must hold a JSON object")
    values = {}
    for key, value in file_values.items():
        if key not in keys and not (command == "verify" and key in GRIDS):
            raise UsageError(f"config key {key!r} is not read by {command}")
        try:
            if key in GRIDS:
                if not isinstance(value, list):
                    raise TypeError(f"{value!r} is not a list")
                values[key] = tuple(map(GRIDS[key], value))
            elif isinstance(value, bool) \
                    or not isinstance(value, (int, float, str)):
                raise TypeError(f"{value!r} is not a number or a string")
            else:
                values[key] = OPTIONS[key][1](str(value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
    return values


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Defaults, overridden by config-file values, overridden by flags, for
    the keys the subcommand reads."""
    args = _build_parser().parse_args(argv)
    path = vars(args).pop("config", None)
    keys = COMMANDS[args.command][1] + _SHARED_KEYS
    merged = {key: OPTIONS[key][2] for key in keys}
    if path is not None:
        merged.update(_read_config(path, args.command, keys))
    merged.update(vars(args))
    for key, value in merged.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {value}")
    if args.command != "verify" and merged["workers"] not in (None, 1):
        raise UsageError(f"{args.command} runs serially: workers must be 1")
    return argparse.Namespace(**merged)


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(alpha_mag=args.alpha, alpha_phase=args.phi,
                       squeeze_mag=args.r, squeeze_phase=args.theta,
                       nbar=args.nbar)


def _write(args: argparse.Namespace, lines: Iterable[str]) -> None:
    """Write ``lines`` as they are yielded, to ``--out`` or stdout, so that a
    table is formatted and written block by block and its whole text never
    exists at once.  An ``OSError`` from opening or writing the output, a
    closed pipe included, is a usage error."""
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
        else:
            sys.stdout.writelines(lines)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and not args.out:
            # the reader is gone: the flush at exit goes to devnull, so
            # shutdown reports no second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write output: {exc}") from exc


def _csv_header(args: argparse.Namespace, extra: str = "") -> str:
    # times are in units of the preparation time, which prep_time=1 records
    fields = (f"nbar={_fmt(args.nbar)} r={_fmt(args.r)} "
              f"theta={_fmt(args.theta)} alpha={_fmt(args.alpha)} "
              f"phi={_fmt(args.phi)} prep_time=1 lambda={_fmt(args.lam)}")
    return (f"# dpagauss {__version__} {fields}"
            f" convention=theta-2phi-2lambda-alignment-optional"
            f"{' ' + extra if extra else ''}\n")


def _check_finite(named_values: Iterable[tuple]) -> None:
    """Raise ``UsageError`` naming the floats or arrays, given as (name,
    value) pairs, that are not finite."""
    non_finite = [name for name, value in named_values
                  if isinstance(value, (float, np.ndarray))
                  and not np.isfinite(value).all()]
    if non_finite:
        raise UsageError(f"{', '.join(sorted(non_finite))} not finite in "
                         "double precision for these inputs")


def _leaves(document, path: str = "") -> Iterable[tuple]:
    """(dotted path, value) of each scalar of a JSON document."""
    if isinstance(document, (dict, list, tuple)):
        items = (document.items() if isinstance(document, dict)
                 else enumerate(document))
        for key, value in items:
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    else:
        yield path, document


def _write_json(args: argparse.Namespace, document) -> None:
    """Write ``document`` as ``json.dumps(document, indent=2,
    sort_keys=True, allow_nan=False) + "\\n"`` does, byte for byte, but
    chunk by chunk as the encoder yields them, so that neither its text nor
    a list of its chunks exists at once.  A stream cannot take back what it
    has written, so every float is checked first: one that is not finite is
    a usage error and nothing is written."""
    _check_finite(_leaves(document))
    _write(args, itertools.chain(_JSON.iterencode(document), ("\n",)))


def cmd_eval(args: argparse.Namespace) -> int:
    state = evolved_state(_params(args), args.u)
    try:
        mandel = statistics.mandel_q(state)
    except statistics.VacuumError:
        mandel = None
    factor = nonclassicality.classicality_factor(args.nbar, args.r, args.u)
    report = {
        "u": args.u,
        "quad_mean": statistics.quad_mean(state, args.lam),
        "quad_variance": statistics.quad_variance_state(state, args.lam),
        "variance_product": statistics.variance_product(
            args.nbar, args.r, args.theta, args.lam, args.u),
        "snr": statistics.snr(state, args.lam),
        "mean_photon": statistics.mean_photon(state),
        "photon_variance": statistics.photon_variance(state),
        "mandel_q": mandel if mandel is not None else "undefined (vacuum)",
        "classicality_factor": factor,
        "p_representation_exists": nonclassicality.p_representation_exists(
            args.nbar, args.r, args.u),
        "field_nonclassical": nonclassicality.field_nonclassical(
            args.nbar, args.r, args.u),
        "squeezing_criterion": nonclassicality.squeezing_criterion(
            args.nbar, args.r, args.theta, args.lam, args.u),
        "crossover_u": nonclassicality.crossover_time(args.nbar, args.r),
    }
    _write_json(args, report)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.u_steps < 2:
        raise UsageError("u_steps must be >= 2")
    if not (args.u_stop > args.u_start >= 0):
        raise UsageError("need u_stop > u_start >= 0")
    step = (args.u_stop - args.u_start) / (args.u_steps - 1)
    us = args.u_start + np.arange(args.u_steps) * step
    nbar, r, theta, lam = args.nbar, args.r, args.theta, args.lam
    state = evolved_state(_params(args), us)
    quads = statistics.quad_variance(nbar, r, theta, lam, us)
    squeezed = nonclassicality.squeezing_criterion(nbar, r, theta, lam, us)
    means = statistics.mean_photon(state)
    variances = statistics.photon_variance(state)
    mandels = statistics._mandel_q(state, means, variances)
    p_density = nonclassicality.p_representation_exists(nbar, r, us)
    keys = ("u", "mandel_q", "quad_variance", "mean_photon", "photon_variance")
    # nan marks the vacuum rows, where Q is undefined
    _check_finite(zip(keys, (us, mandels[means > 0], quads, means,
                             variances)))
    lines = [_csv_header(args, extra=(f"u_start={_fmt(args.u_start)} "
                                      f"u_stop={_fmt(args.u_stop)} "
                                      f"u_steps={args.u_steps}"))]
    lines.append(f"{','.join(keys)},squeezing_criterion,"
                 "p_representation_exists,field_nonclassical\n")
    columns = (us, mandels, quads, means, variances, squeezed, p_density,
               ~p_density)
    # one template per block: %.17g prints as _fmt does, %d prints 1.0 as 1;
    # bytes % converts each float as str % does, without the unicode writer
    blocks = (np.column_stack([c[i:i + _BLOCK_ROWS] for c in columns])
              for i in range(0, args.u_steps, _BLOCK_ROWS))
    _write(args, itertools.chain(lines, (
        ((b"%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d,%d\n" * len(block))
         % tuple(block.ravel().tolist())).decode() for block in blocks)))
    return 0


def cmd_critical(args: argparse.Namespace) -> int:
    # the solver works at theta = phi = 0; only theta - 2 phi enters Q_M
    if abs(math.remainder(args.theta - 2.0 * args.phi,
                          2.0 * math.pi)) > 1e-12:
        raise UsageError("critical solve requires theta - 2 phi = 0 "
                         "(mod 2 pi)")
    try:
        result = nonclassicality.find_critical_alpha(args.nbar, args.r)
    except nonclassicality.NoTransitionError as exc:
        _write(args, [json.dumps({"error": str(exc)}, sort_keys=True)
                      + "\n"])
        return GATE_ERROR
    record = {
        "nbar": args.nbar,
        "r": args.r,
        "alpha_c": result.alpha_c,
        "tangency_u": result.tangency_u,
        "mechanism": result.mechanism.value,
        "zeros": list(nonclassicality.classify_behavior(
            args.nbar, args.r, result.alpha_c).zeros),
    }
    _write_json(args, record)
    return 0


def cmd_wigner_grid(args: argparse.Namespace) -> int:
    if args.grid_steps < 2:
        raise UsageError("grid_steps must be >= 2")
    if args.grid_halfwidth_sigmas <= 0:
        raise UsageError("grid_halfwidth_sigmas must be > 0")
    state = evolved_state(_params(args), args.u)
    sig_x = math.sqrt(statistics.quad_variance_state(state, args.lam))
    sig_p = math.sqrt(statistics.quad_variance_state(
        state, args.lam + 0.5 * math.pi))
    half_x = args.grid_halfwidth_sigmas * sig_x
    half_p = args.grid_halfwidth_sigmas * sig_p
    n = args.grid_steps
    lines = [_csv_header(args, extra=(f"u={_fmt(args.u)} "
                                      f"grid_steps={n} "
                                      f"halfwidth_sigmas="
                                      f"{_fmt(args.grid_halfwidth_sigmas)}"))]
    lines.append("x,p,w\n")
    steps = np.arange(n)
    mean_x = statistics.quad_mean(state, args.lam)
    mean_p = statistics.quad_mean(state, args.lam + 0.5 * math.pi)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        xs = mean_x - half_x + 2.0 * half_x * steps / (n - 1)
        ps = mean_p - half_p + 2.0 * half_p * steps / (n - 1)
    if not np.isfinite([xs, ps]).all():
        raise UsageError("grid_halfwidth_sigmas: grid extent overflows")
    xs = xs.tolist()
    # every W before any text, so that an overflow in any row writes
    # nothing; one call per x row, so no whole-grid temporaries
    ws = [wigner.wigner_quadrature(state, args.lam, x, ps) for x in xs]
    # off the squeeze axes W is conditioned like e^{2(u+r)}; on them the
    # turn is exact and the bound stays far below the gate
    if args.lam != 0.5 * state.squeeze_phase:
        bound = max(wigner.quadrature_rounding_bound(
            state, args.lam, x, ps).max() for x in xs)
        if bound > wigner.WIGNER_GATE:
            raise UsageError(
                f"W is ill-conditioned off the squeeze axes at u + r = "
                f"{_fmt(state.eff_squeeze)}: its rounding bound {bound:.1e} "
                f"exceeds {wigner.WIGNER_GATE:g}; align the grid "
                "(lambda = theta/2) or lower u")
    # one bytes template per x row, \0 standing for the x text
    row = "".join(f"\0,{_fmt(p)},%.17g\n" for p in ps.tolist()).encode()
    _write(args, itertools.chain(lines, (
        (row.replace(b"\0", _fmt(x).encode()) % tuple(w.tolist())).decode()
        for x, w in zip(xs, ws))))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # the Fock oracle and its compiled scipy kernels load on this path only
    from . import fock, verify

    grids = {key: getattr(args, key) for key in GRIDS if key in args}
    try:
        report = verify.run_verification(workers=args.workers, **grids)
    except fock.TruncationError as exc:
        sys.stderr.write(f"numerical gate failure: {exc}\n")
        return GATE_ERROR
    ok = verify.all_passed(report)
    _write_json(args, {"pass": ok, "entries": report})
    return 0 if ok else GATE_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(argv)
        # looked up at call time, so a rebound cmd_* is the one that runs
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        # closed forms raise instead of warning and writing inf or NaN;
        # verify's pool workers would not inherit the setting
        with (contextlib.nullcontext() if args.command == "verify"
              else np.errstate(over="raise", invalid="raise")):
            return handler(args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR
    except MemoryError as exc:
        # numpy names the allocation, such as a sweep of 1e11 rows
        sys.stderr.write(f"usage error: out of memory: {exc}\n")
        return USAGE_ERROR
    except ArithmeticError as exc:
        # the guards admit inputs at which a closed form overflows or
        # divides by an underflowed value: name the innermost public formula
        formula = "a closed form"
        for frame, _ in traceback.walk_tb(exc.__traceback__):
            if frame.f_globals.get("__package__") == __package__ \
                    and frame.f_code.co_name[0].isalpha():
                formula = frame.f_code.co_name
        sys.stderr.write(f"usage error: {formula} overflows double "
                         "precision for these inputs\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
