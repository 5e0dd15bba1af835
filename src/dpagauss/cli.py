"""Command-line front end.

Subcommands: ``eval`` (all observables and criteria at a single time),
``sweep`` (CSV over a range of dimensionless times), ``critical``
(critical-displacement solve), ``wigner-grid`` (CSV of the quadrature Wigner
density over a rectangle) and ``verify`` (closed forms against the Fock
oracle).  Output is deterministic byte for byte for a fixed configuration:
floats are printed with 17 significant digits and every CSV embeds the full
parameter set, phase conventions and tool version in its header.

Exit codes: 0 success, 1 usage error, 2 numerical gate failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__, fock, nonclassicality, statistics, verify, wigner
from .model import MAX_EFF_SQUEEZE, ModelParams, evolved_state

USAGE_ERROR = 1
GATE_ERROR = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise UsageError(message)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    nbar: float = 0.0
    r: float = 0.0
    theta: float = 0.0
    alpha: float = 0.0
    phi: float = 0.0
    prep_time: float = 1.0
    lam: float = 0.0
    u: float = 0.0
    u_start: float = 0.0
    u_stop: float = 1.0
    u_steps: int = 101
    grid_steps: int = 121
    grid_halfwidth_sigmas: float = 6.0
    out: Optional[str] = None
    workers: int = 0
    forced_dim: Optional[int] = None
    # verification grids, settable through the config file only
    nbars: Optional[tuple] = None
    rs: Optional[tuple] = None
    alphas: Optional[tuple] = None
    us: Optional[tuple] = None
    evolution_grid: Optional[tuple] = None
    wigner_points: Optional[tuple] = None

    def params(self) -> ModelParams:
        return ModelParams(alpha_mag=self.alpha, alpha_phase=self.phi,
                           squeeze_mag=self.r, squeeze_phase=self.theta,
                           nbar=self.nbar, prep_time=self.prep_time)


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return f"{x:.17g}"


def _build_parser() -> _Parser:
    parser = _Parser(prog="dpagauss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--nbar", type=float, default=None,
                       help="thermal occupation of the initial state")
        p.add_argument("--r", type=float, default=None,
                       help="squeeze magnitude r")
        p.add_argument("--theta", type=float, default=None,
                       help="squeeze angle in radians")
        p.add_argument("--alpha", type=float, default=None,
                       help="displacement magnitude |alpha|")
        p.add_argument("--phi", type=float, default=None,
                       help="displacement phase in radians")
        p.add_argument("--prep-time", type=float, default=None,
                       help="preparation time t (default 1)")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="quadrature angle")
        p.add_argument("--out", type=str, default=None,
                       help="output path (default stdout)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for verify (default: CPU "
                            "count); the other subcommands run serially")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its values")

    p_eval = sub.add_parser("eval", help="observables at a single time")
    add_common(p_eval)
    p_eval.add_argument("--u", type=float, default=None,
                        help="dimensionless time u")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over u")
    add_common(p_sweep)
    p_sweep.add_argument("--u-start", type=float, default=None)
    p_sweep.add_argument("--u-stop", type=float, default=None)
    p_sweep.add_argument("--u-steps", type=int, default=None)

    p_crit = sub.add_parser("critical", help="critical displacement solve")
    add_common(p_crit)

    p_grid = sub.add_parser("wigner-grid",
                            help="CSV of W over a quadrature rectangle")
    add_common(p_grid)
    p_grid.add_argument("--u", type=float, default=None)
    p_grid.add_argument("--grid-steps", type=int, default=None,
                        help="points per axis (default 121)")
    p_grid.add_argument("--grid-halfwidth-sigmas", type=float, default=None,
                        help="half-width per axis in standard deviations")

    p_verify = sub.add_parser("verify",
                              help="closed forms against the Fock oracle")
    add_common(p_verify)
    p_verify.add_argument("--fock-dim", dest="forced_dim", type=int,
                          default=None,
                          help="force a fixed truncation (negative test)")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")

    merged = {"command": args.command}
    for field in dataclasses.fields(RunConfig):
        if field.name == "command":
            continue
        flag = getattr(args, field.name, None)
        if flag is not None:
            merged[field.name] = flag
        elif field.name in file_values:
            value = file_values[field.name]
            merged[field.name] = tuple(
                tuple(v) if isinstance(v, list) else v for v in value) \
                if isinstance(value, list) else value
    config = RunConfig(**merged)
    for field in dataclasses.fields(RunConfig):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{field.name} must be finite, got {value}")
    if config.workers == 0:
        config = dataclasses.replace(config, workers=os.cpu_count() or 1)
    return config


def _write(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_header(config: RunConfig, extra: str = "") -> str:
    fields = (f"nbar={_fmt(config.nbar)} r={_fmt(config.r)} "
              f"theta={_fmt(config.theta)} alpha={_fmt(config.alpha)} "
              f"phi={_fmt(config.phi)} prep_time={_fmt(config.prep_time)} "
              f"lambda={_fmt(config.lam)}")
    return (f"# dpagauss {__version__} {fields}"
            f" convention=theta-2phi-2lambda-alignment-optional"
            f"{' ' + extra if extra else ''}\n")


def _check_u(config: RunConfig, u: float) -> None:
    """Reject a time the evolved-state guards would refuse."""
    if u < 0:
        raise UsageError("u must be >= 0")
    if config.r == 0 and u > 0:
        raise UsageError("r = 0 supports only u = 0 (static state)")
    if u + config.r > MAX_EFF_SQUEEZE:
        raise UsageError(f"u + r must be <= {MAX_EFF_SQUEEZE:g}, "
                         f"got {u + config.r}")


def cmd_eval(config: RunConfig) -> int:
    params = config.params()
    _check_u(config, config.u)
    state = evolved_state(params, config.u)
    try:
        mandel = statistics.mandel_q(state)
    except ValueError:
        mandel = None
    factor = nonclassicality.classicality_factor(config.nbar, config.r,
                                                 config.u)
    report = {
        "u": config.u,
        "quad_mean": statistics.quad_mean(state, config.lam),
        "quad_variance": statistics.quad_variance_state(state, config.lam),
        "variance_product": statistics.variance_product(
            config.nbar, config.r, config.theta, config.lam, config.u),
        "snr": statistics.snr(state, config.lam),
        "mean_photon": statistics.mean_photon(state),
        "photon_variance": statistics.photon_variance(state),
        "mandel_q": mandel if mandel is not None else "undefined (vacuum)",
        "classicality_factor": factor,
        "p_representation_exists": nonclassicality.p_representation_exists(
            config.nbar, config.r, config.u),
        "field_nonclassical": nonclassicality.field_nonclassical(
            config.nbar, config.r, config.u),
        "squeezing_criterion": nonclassicality.squeezing_criterion(
            config.nbar, config.r, config.theta, config.lam, config.u),
    }
    crossover = nonclassicality.crossover_time(config.nbar, config.r)
    report["crossover_u"] = crossover
    non_finite = sorted(name for name, value in report.items()
                        if isinstance(value, float)
                        and not math.isfinite(value))
    if non_finite:
        raise UsageError(f"{', '.join(non_finite)} not finite in double "
                         "precision for these inputs")
    _write(config, json.dumps(report, indent=2, sort_keys=True,
                              allow_nan=False) + "\n")
    return 0


def cmd_sweep(config: RunConfig) -> int:
    if config.u_steps < 2:
        raise UsageError("u_steps must be >= 2")
    if not (config.u_stop > config.u_start >= 0):
        raise UsageError("need u_stop > u_start >= 0")
    params = config.params()
    if params.squeeze_mag == 0:
        raise UsageError("sweeps require squeeze_mag r > 0")
    _check_u(config, config.u_stop)
    step = (config.u_stop - config.u_start) / (config.u_steps - 1)
    lines = [_csv_header(config,
                         extra=(f"u_start={_fmt(config.u_start)} "
                                f"u_stop={_fmt(config.u_stop)} "
                                f"u_steps={config.u_steps}"))]
    lines.append("u,mandel_q,quad_variance,mean_photon,photon_variance,"
                 "squeezing_criterion,p_representation_exists,"
                 "field_nonclassical\n")
    nbar, r, theta, lam = config.nbar, config.r, config.theta, config.lam
    for i in range(config.u_steps):
        u = config.u_start + i * step
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
    _write(config, "".join(lines))
    return 0


def cmd_critical(config: RunConfig) -> int:
    params = config.params()
    if params.squeeze_mag <= 0:
        raise UsageError("critical solve requires squeeze_mag r > 0")
    # the solver works at theta = phi = 0; only theta - 2 phi enters Q_M
    if abs(math.remainder(config.theta - 2.0 * config.phi,
                          2.0 * math.pi)) > 1e-12:
        raise UsageError("critical solve requires theta - 2 phi = 0 "
                         "(mod 2 pi)")
    try:
        result = nonclassicality.find_critical_alpha(config.nbar, config.r)
    except nonclassicality.NoTransitionError as exc:
        _write(config, json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return GATE_ERROR
    record = {
        "nbar": config.nbar,
        "r": config.r,
        "alpha_c": result.alpha_c,
        "tangency_u": result.tangency_u,
        "mechanism": result.mechanism.value,
        "zeros": list(nonclassicality.classify_behavior(
            config.nbar, config.r, result.alpha_c).zeros),
    }
    _write(config, json.dumps(record, indent=2, sort_keys=True,
                              allow_nan=False) + "\n")
    return 0


def cmd_wigner_grid(config: RunConfig) -> int:
    if config.grid_steps < 2:
        raise UsageError("grid_steps must be >= 2")
    if config.grid_halfwidth_sigmas <= 0:
        raise UsageError("grid_halfwidth_sigmas must be > 0")
    params = config.params()
    _check_u(config, config.u)
    state = evolved_state(params, config.u)
    coeffs = wigner.quad_form_coeffs(state, config.lam)
    sig_x = math.sqrt(statistics.quad_variance_state(state, config.lam))
    sig_p = math.sqrt(statistics.quad_variance_state(
        state, config.lam + 0.5 * math.pi))
    half_x = config.grid_halfwidth_sigmas * sig_x
    half_p = config.grid_halfwidth_sigmas * sig_p
    n = config.grid_steps
    lines = [_csv_header(config, extra=(f"u={_fmt(config.u)} "
                                        f"grid_steps={n} "
                                        f"halfwidth_sigmas="
                                        f"{_fmt(config.grid_halfwidth_sigmas)}"))]
    lines.append("x,p,w\n")
    steps = np.arange(n)
    xs = coeffs.mean_x - half_x + 2.0 * half_x * steps / (n - 1)
    ps = coeffs.mean_p - half_p + 2.0 * half_p * steps / (n - 1)
    p_texts = [_fmt(p) for p in ps.tolist()]
    # one call per x row: a whole-grid call would hold every value of the
    # grid as a Python float at once
    for x in xs.tolist():
        x_text = _fmt(x)
        ws = wigner.wigner_quadrature(state, config.lam, x, ps)
        lines.extend(f"{x_text},{p_text},{_fmt(w)}\n"
                     for p_text, w in zip(p_texts, ws.tolist()))
    _write(config, "".join(lines))
    return 0


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


def cmd_verify(config: RunConfig) -> int:
    kwargs = {}
    for name in ("nbars", "rs", "alphas", "us"):
        value = getattr(config, name)
        if value is not None:
            kwargs[name] = tuple(value)
    if config.evolution_grid is not None:
        kwargs["evolution_grid"] = tuple(tuple(c) for c in
                                         config.evolution_grid)
    if config.wigner_points is not None:
        kwargs["wigner_points"] = tuple(
            (*point[:4], _as_complex(point[4]))
            for point in config.wigner_points)
    report = verify.run_verification(forced_dim=config.forced_dim,
                                     workers=config.workers, **kwargs)
    ok = verify.all_passed(report)
    payload = {"pass": ok, "entries": report}
    _write(config, json.dumps(payload, indent=2, sort_keys=True,
                              allow_nan=False) + "\n")
    return 0 if ok else GATE_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _merge_config(args)
        handler = {
            "eval": cmd_eval,
            "sweep": cmd_sweep,
            "critical": cmd_critical,
            "wigner-grid": cmd_wigner_grid,
            "verify": cmd_verify,
        }[config.command]
        return handler(config)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR
    except ArithmeticError as exc:
        # the guards admit inputs at which a closed form overflows or
        # divides by an underflowed value
        sys.stderr.write(f"usage error: inputs beyond the double-precision "
                         f"range of the closed forms ({exc})\n")
        return USAGE_ERROR
    except (fock.TruncationError, fock.QuadratureError) as exc:
        sys.stderr.write(f"numerical gate failure: {exc}\n")
        return GATE_ERROR


if __name__ == "__main__":
    sys.exit(main())
