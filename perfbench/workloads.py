"""Workload definitions and output checks for the dpagauss benchmark.

A workload is a list of CLI invocations (one "pass").  Seed 0 runs the
reference configurations exactly; other seeds scale every |alpha| and nbar
by a factor drawn from [0.9, 1.1] but keep r and u fixed, because r and u
set the Fock truncation and so the run length.  On the oracle grids only the
interior nbar and |alpha| values move: the largest values fix the truncation
of every slab, so they stay put too.

Checks never compare oracle bits or ``N_used``: a faster oracle may change
them legitimately.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("figures", "oracle")

# (nbar, r, |alpha| family) of the three figure families; each family
# brackets its critical displacement
FAMILIES = (
    (0.2, 0.1, (0.3, 0.3494, 0.4)),
    (0.1, 0.2, (0.3, 0.4961, 0.6507, 1.0)),
    (1.0, 1.0, (8.0, 9.7140, 12.0)),
)
CRITICAL_POINTS = ((0.2, 0.1), (0.1, 0.2), (1.0, 1.0))
# (nbar, r, |alpha|, u) at the three tangency points
EVAL_POINTS = ((0.2, 0.1, 0.3494, 0.3857), (0.1, 0.2, 0.4961, 0.2097),
               (1.0, 1.0, 9.714, 0.0))
WIGNER_GRID = (0.3, 0.2, 0.5, 0.4)  # nbar, r, |alpha|, u
SWEEP_STEPS = 2401
GRID_STEPS = 401

# the default verification grid of ``dpagauss verify``
ORACLE_NBARS = (0.0, 0.2, 1.0)
ORACLE_RS = (0.05, 0.2, 1.0)
ORACLE_ALPHAS = (0.0, 0.5, 2.0)
ORACLE_US = (0.0, 0.5, 2.0)
EVOLUTION_GRID = tuple((nbar, r, alpha, u) for nbar in (0.0, 1.0)
                       for r in (0.1, 0.5) for alpha in (0.0, 1.0)
                       for u in (0.0, 0.3))
WIGNER_POINTS = ((0.0, 0.1, 0.0, 0.0, (0.3, 0.2)),
                 (0.2, 0.1, 0.3, 0.5, (0.45, 0.2)),
                 (1.0, 0.4, 0.8, 0.6, (1.2, -0.5)))

# oracle gates as fixed by the ROADMAP; a change that loosens the package's
# own constants still fails here
GATES = {"quad_mean": 1e-6, "quad_variance": 1e-6, "mean_photon": 1e-6,
         "photon_variance": 1e-6, "evolution_trace_distance": 1e-6,
         "wigner_density": 1e-6}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass
class Invocation:
    """One CLI call: its argv (without ``--out``) and what to check."""

    key: str
    subcommand: str
    argv: list
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _jitter(rng: Optional[random.Random], x: float) -> float:
    return x if rng is None or x == 0 else x * rng.uniform(0.9, 1.1)


def _interior(rng: Optional[random.Random], grid: tuple) -> tuple:
    """Scale the values strictly inside a grid's range; keep its extremes."""
    lo, hi = min(grid), max(grid)
    return tuple(x if x in (lo, hi) else _jitter(rng, x) for x in grid)


def build(workload: str, seed: int, config_dir: str) -> list[Invocation]:
    """The invocations of one pass of ``workload`` for ``seed``.

    Oracle grids that differ from the CLI defaults are written as JSON
    config files into ``config_dir``.
    """
    rng = None if seed == 0 else random.Random(seed)
    if workload == "figures":
        return _figures(rng)
    if workload == "oracle":
        return [_verify(rng, config_dir)]
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")


def _figures(rng: Optional[random.Random]) -> list[Invocation]:
    calls = []
    for nbar, r, alphas in FAMILIES:
        nbar = _jitter(rng, nbar)
        for alpha in alphas:
            alpha = _jitter(rng, alpha)
            key = f"sweep-nbar{nbar:.6g}-r{r:.6g}-alpha{alpha:.6g}"
            calls.append(Invocation(key, "sweep", [
                "sweep", "--nbar", _num(nbar), "--r", _num(r),
                "--alpha", _num(alpha), "--u-start", "0", "--u-stop", "1.2",
                "--u-steps", str(SWEEP_STEPS)]))
    for nbar, r in CRITICAL_POINTS:
        nbar = _jitter(rng, nbar)
        calls.append(Invocation(
            f"critical-nbar{nbar:.6g}-r{r:.6g}", "critical",
            ["critical", "--nbar", _num(nbar), "--r", _num(r)]))
    nbar, r, alpha, u = WIGNER_GRID
    nbar, alpha = _jitter(rng, nbar), _jitter(rng, alpha)
    calls.append(Invocation(
        f"wigner-grid-nbar{nbar:.6g}-alpha{alpha:.6g}", "wigner-grid", [
            "wigner-grid", "--nbar", _num(nbar), "--r", _num(r),
            "--alpha", _num(alpha), "--u", _num(u),
            "--grid-steps", str(GRID_STEPS)]))
    for nbar, r, alpha, u in EVAL_POINTS:
        nbar, alpha = _jitter(rng, nbar), _jitter(rng, alpha)
        calls.append(Invocation(
            f"eval-nbar{nbar:.6g}-alpha{alpha:.6g}", "eval",
            ["eval", "--nbar", _num(nbar), "--r", _num(r),
             "--alpha", _num(alpha), "--u", _num(u)]))
    for call in calls:
        call.argv += ["--workers", "1"]
    return calls


def _verify(rng: Optional[random.Random], config_dir: str) -> Invocation:
    argv = ["verify", "--workers", "1"]
    grid = {
        "nbars": _interior(rng, ORACLE_NBARS),
        "rs": ORACLE_RS,
        "alphas": _interior(rng, ORACLE_ALPHAS),
        "us": ORACLE_US,
        "evolution_grid": EVOLUTION_GRID,
        "wigner_points": tuple(
            (_jitter(rng, nbar), r, _jitter(rng, alpha), u, beta)
            for nbar, r, alpha, u, beta in WIGNER_POINTS),
    }
    if rng is not None:
        path = os.path.join(config_dir, "oracle.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({k: grid[k] for k in ("nbars", "alphas",
                                            "wigner_points")}, fh)
        argv += ["--config", path]
    return Invocation("oracle", "verify", argv, expect=grid)


# ---------------------------------------------------------------- checks


class CheckError(Exception):
    """An output failed its check; the invocation counts as failed."""


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_digest(entries: list) -> str:
    """Digest of what a faster oracle must not change: entry order,
    quantity, params and closed-form value."""
    key = [[e["quantity"], e["params"], e["closed_form"]] for e in entries]
    return sha256(json.dumps(key, sort_keys=True).encode())


def _finite(x, what: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool) \
            or not math.isfinite(x):
        raise CheckError(f"{what} is not a finite number: {x!r}")
    return float(x)


def check(call: Invocation, code: int, path: str,
          reference: Optional[dict]) -> None:
    """Raise ``CheckError`` unless the file at ``path``, the output of
    ``call`` exiting with ``code``, is correct.  ``reference`` holds the
    seed-0 digests and is None for other seeds, which are checked by
    invariants only.

    The checks read the output as a stream, one row at a time, so that
    they add almost nothing to the peak memory of the process that runs
    the program."""
    if code != 0:
        raise CheckError(f"{call.key}: exit code {code}")
    if call.subcommand == "verify":
        _check_verify(call, path, reference)
        return
    if reference is not None:
        want = reference["figures"].get(call.key)
        if file_sha256(path) != want:
            raise CheckError(f"{call.key}: output differs from the seed "
                             "commit's digest")
    {"sweep": _check_sweep, "critical": _check_critical,
     "wigner-grid": _check_wigner_grid, "eval": _check_eval}[
        call.subcommand](call, path)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(fh, header: str):
    """The data rows of an open CSV file, one at a time, after checking
    that the first line that is not a comment is ``header``."""
    lines = (line for line in fh if not line.startswith("#"))
    first = next(lines, "").rstrip("\n")
    if first != header:
        raise CheckError(f"CSV header {first!r}, expected {header!r}")
    return csv.reader(lines)


def _check_sweep(call: Invocation, path: str) -> None:
    count = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in _csv_rows(fh, "u,mandel_q,quad_variance,mean_photon,"
                             "photon_variance,squeezing_criterion,"
                             "p_representation_exists,field_nonclassical"):
            count += 1
            u, q, var_x, n, var_n = (_finite(float(v), call.key)
                                     for v in row[:5])
            if q < -1.0 or var_x <= 0 or n <= 0 or var_n < 0:
                raise CheckError(f"{call.key}: unphysical row at u={u}")
            if len(row) != 8 or any(flag not in ("0", "1")
                                    for flag in row[5:]):
                raise CheckError(f"{call.key}: bad flag column at u={u}")
    if count != SWEEP_STEPS:
        raise CheckError(f"{call.key}: {count} rows")


def _check_critical(call: Invocation, path: str) -> None:
    record = _load_json(path)
    if _finite(record["alpha_c"], "alpha_c") <= 0:
        raise CheckError(f"{call.key}: alpha_c must be > 0")
    if record["mechanism"] not in ("interior_tangency", "boundary_q0_zero"):
        raise CheckError(f"{call.key}: mechanism {record['mechanism']!r}")
    for zero in record["zeros"]:
        _finite(zero, "zero")


def _check_wigner_grid(call: Invocation, path: str) -> None:
    xs, ps, total, count = set(), set(), 0.0, 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for x, p, w in _csv_rows(fh, "x,p,w"):
            count += 1
            xs.add(x)
            ps.add(p)
            w = _finite(float(w), "w")
            if w < 0:
                raise CheckError(f"{call.key}: negative Wigner density")
            total += w
    if count != GRID_STEPS ** 2:
        raise CheckError(f"{call.key}: {count} rows")
    # a Gaussian Wigner density is normalized; the grid spans 6 standard
    # deviations per axis, so the Riemann sum is 1 to well below 1e-3
    x_vals = sorted(float(x) for x in xs)
    p_vals = sorted(float(p) for p in ps)
    cell = ((x_vals[-1] - x_vals[0]) * (p_vals[-1] - p_vals[0])
            / (GRID_STEPS - 1) ** 2)
    if abs(total * cell - 1.0) > 1e-3:
        raise CheckError(f"{call.key}: grid integral {total * cell}")


def _check_eval(call: Invocation, path: str) -> None:
    report = _load_json(path)
    for name in ("quad_mean", "quad_variance", "variance_product", "snr",
                 "mean_photon", "photon_variance", "mandel_q",
                 "classicality_factor"):
        _finite(report[name], name)
    if report["mandel_q"] < -1.0 or report["quad_variance"] <= 0:
        raise CheckError(f"{call.key}: unphysical observables")


def expected_params(grid: dict) -> list:
    """``params`` of every verify entry, in report order."""
    out = []
    for r in grid["rs"]:
        for u in grid["us"]:
            for nbar in grid["nbars"]:
                for alpha in grid["alphas"]:
                    # four moments per cell at verify.REFERENCE_LAM
                    out += [{"nbar": nbar, "r": r, "alpha": alpha, "u": u,
                             "lam": 0.7}] * 4
    for nbar, r, alpha, u in grid["evolution_grid"]:
        out.append({"nbar": nbar, "r": r, "alpha": alpha, "u": u})
    for nbar, r, alpha, u, (re, im) in grid["wigner_points"]:
        out.append({"nbar": nbar, "r": r, "alpha": alpha, "u": u,
                    "beta_re": re, "beta_im": im})
    return out


def gate_ratio(entry: dict) -> float:
    """rel_err over its gate; at most 1 for a passing entry."""
    gate = GATES.get(entry["quantity"])
    if gate is None:
        raise CheckError(f"unexpected quantity {entry['quantity']!r}")
    return _finite(entry["rel_err"], "rel_err") / gate


def _check_verify(call: Invocation, path: str,
                  reference: Optional[dict]) -> None:
    payload = _load_json(path)
    entries = payload.get("entries", [])
    if payload.get("pass") is not True:
        raise CheckError(f"{call.key}: pass is not true")
    want = expected_params(call.expect)
    got = [e["params"] for e in entries]
    if got != want:
        raise CheckError(f"{call.key}: {len(got)} entries with params "
                         f"differing from the {len(want)} expected")
    for entry in entries:
        _finite(entry["closed_form"], "closed_form")
        _finite(entry["oracle"], "oracle")
        if gate_ratio(entry) > 1.0 or entry["pass"] is not True:
            raise CheckError(f"{call.key}: {entry['quantity']} at "
                             f"{entry['params']} exceeds its gate")
    if reference is not None \
            and verify_digest(entries) != reference["verify"][call.key]:
        raise CheckError(f"{call.key}: entry order, quantities, params or "
                         "closed forms differ from the seed commit")
