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
import json
import math
import sys
import traceback
from typing import Optional, Sequence

import numpy as np

from . import __version__, fock, nonclassicality, statistics, verify, wigner
from .model import ModelParams, evolved_state

USAGE_ERROR = 1
GATE_ERROR = 2

# config key -> (flag, type, default, help)
OPTIONS = {
    "nbar": ("--nbar", float, 0.0, "thermal occupation of the initial state"),
    "r": ("--r", float, 0.0, "squeeze magnitude r"),
    "theta": ("--theta", float, 0.0, "squeeze angle in radians"),
    "alpha": ("--alpha", float, 0.0, "displacement magnitude |alpha|"),
    "phi": ("--phi", float, 0.0, "displacement phase in radians"),
    "lam": ("--lambda", float, 0.0, "quadrature angle"),
    "prep_time": ("--prep-time", float, 1.0, "preparation time t"),
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
                "subcommands run serially"),
}
_MODEL_KEYS = ("nbar", "r", "theta", "alpha", "phi", "lam")
_SHARED_KEYS = ("out", "workers")

# subcommand -> (help, the keys of OPTIONS it reads besides _SHARED_KEYS)
COMMANDS = {
    "eval": ("observables at a single time", (*_MODEL_KEYS, "u")),
    "sweep": ("CSV sweep over u", (*_MODEL_KEYS, "prep_time", "u_start",
                                   "u_stop", "u_steps")),
    "critical": ("critical displacement solve",
                 ("nbar", "r", "theta", "phi")),
    "wigner-grid": ("CSV of W over a quadrature rectangle",
                    (*_MODEL_KEYS, "prep_time", "u", "grid_steps",
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
        except (TypeError, ValueError) as exc:
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
    return argparse.Namespace(**merged)


def _params(args: argparse.Namespace) -> ModelParams:
    """The model parameters; eval has no --prep-time (none of its outputs
    depends on it), so it keeps the default."""
    return ModelParams(alpha_mag=args.alpha, alpha_phase=args.phi,
                       squeeze_mag=args.r, squeeze_phase=args.theta,
                       nbar=args.nbar,
                       prep_time=vars(args).get("prep_time", 1.0))


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_header(args: argparse.Namespace, extra: str = "") -> str:
    fields = (f"nbar={_fmt(args.nbar)} r={_fmt(args.r)} "
              f"theta={_fmt(args.theta)} alpha={_fmt(args.alpha)} "
              f"phi={_fmt(args.phi)} prep_time={_fmt(args.prep_time)} "
              f"lambda={_fmt(args.lam)}")
    return (f"# dpagauss {__version__} {fields}"
            f" convention=theta-2phi-2lambda-alignment-optional"
            f"{' ' + extra if extra else ''}\n")


def cmd_eval(args: argparse.Namespace) -> int:
    state = evolved_state(_params(args), args.u)
    try:
        mandel = statistics.mandel_q(state)
    except ValueError:
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
    }
    crossover = nonclassicality.crossover_time(args.nbar, args.r)
    report["crossover_u"] = crossover
    non_finite = sorted(name for name, value in report.items()
                        if isinstance(value, float)
                        and not math.isfinite(value))
    if non_finite:
        raise UsageError(f"{', '.join(non_finite)} not finite in double "
                         "precision for these inputs")
    _write(args, json.dumps(report, indent=2, sort_keys=True,
                            allow_nan=False) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.u_steps < 2:
        raise UsageError("u_steps must be >= 2")
    if not (args.u_stop > args.u_start >= 0):
        raise UsageError("need u_stop > u_start >= 0")
    params = _params(args)
    # the model's guards, before any row: r = 0 or u + r past the guard
    evolved_state(params, args.u_stop)
    step = (args.u_stop - args.u_start) / (args.u_steps - 1)
    lines = [_csv_header(args, extra=(f"u_start={_fmt(args.u_start)} "
                                      f"u_stop={_fmt(args.u_stop)} "
                                      f"u_steps={args.u_steps}"))]
    lines.append("u,mandel_q,quad_variance,mean_photon,photon_variance,"
                 "squeezing_criterion,p_representation_exists,"
                 "field_nonclassical\n")
    nbar, r, theta, lam = args.nbar, args.r, args.theta, args.lam
    for i in range(args.u_steps):
        u = args.u_start + i * step
        state = evolved_state(params, u)
        try:
            mandel = statistics.mandel_q(state)
        except ValueError:
            mandel = math.nan
        floats = ",".join(_fmt(x) for x in (
            u, mandel, statistics.quad_variance_state(state, lam),
            statistics.mean_photon(state), statistics.photon_variance(state)))
        flags = ",".join("1" if b else "0" for b in (
            nonclassicality.squeezing_criterion(nbar, r, theta, lam, u),
            nonclassicality.p_representation_exists(nbar, r, u),
            nonclassicality.field_nonclassical(nbar, r, u)))
        lines.append(f"{floats},{flags}\n")
    _write(args, "".join(lines))
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
        _write(args, json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
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
    _write(args, json.dumps(record, indent=2, sort_keys=True,
                            allow_nan=False) + "\n")
    return 0


def cmd_wigner_grid(args: argparse.Namespace) -> int:
    if args.grid_steps < 2:
        raise UsageError("grid_steps must be >= 2")
    if args.grid_halfwidth_sigmas <= 0:
        raise UsageError("grid_halfwidth_sigmas must be > 0")
    state = evolved_state(_params(args), args.u)
    coeffs = wigner.quad_form_coeffs(state, args.lam)
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
    xs = coeffs.mean_x - half_x + 2.0 * half_x * steps / (n - 1)
    ps = coeffs.mean_p - half_p + 2.0 * half_p * steps / (n - 1)
    p_texts = [_fmt(p) for p in ps.tolist()]
    # one call per x row: a whole-grid call would hold every value of the
    # grid as a Python float at once
    for x in xs.tolist():
        x_text = _fmt(x)
        ws = wigner.wigner_quadrature(state, args.lam, x, ps)
        lines.extend(f"{x_text},{p_text},{_fmt(w)}\n"
                     for p_text, w in zip(p_texts, ws.tolist()))
    _write(args, "".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    grids = {key: getattr(args, key) for key in GRIDS if key in args}
    report = verify.run_verification(workers=args.workers, **grids)
    ok = verify.all_passed(report)
    payload = {"pass": ok, "entries": report}
    _write(args, json.dumps(payload, indent=2, sort_keys=True,
                            allow_nan=False) + "\n")
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
    except ArithmeticError as exc:
        # the guards admit inputs at which a closed form overflows or
        # divides by an underflowed value: name the innermost formula
        formula = "a closed form"
        for frame, _ in traceback.walk_tb(exc.__traceback__):
            if frame.f_globals.get("__package__") == __package__:
                formula = frame.f_code.co_name
        sys.stderr.write(f"usage error: {formula} overflows double "
                         "precision for these inputs\n")
        return USAGE_ERROR
    except (fock.TruncationError, fock.QuadratureError) as exc:
        sys.stderr.write(f"numerical gate failure: {exc}\n")
        return GATE_ERROR


if __name__ == "__main__":
    sys.exit(main())
