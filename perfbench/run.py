#!/usr/bin/env python3
"""Benchmark of the dpagauss CLI: end to end, or per layer with --trace 1.

Run from the root of a dpagauss checkout:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 25 --trace 0

The load is a closed loop with one client: each CLI invocation starts after
the previous one returns, every invocation passes ``--workers 1``, and BLAS
is pinned to one thread.  Parallel scaling is not measured.

--trace 0 measures ``setup_s`` (median over fresh interpreters importing
``dpagauss.cli``), times whole passes of the workload in one fresh process
and reports ``wall_s`` (median pass time) and ``peak_rss_mb``, with the
per-subcommand times printed beside them.
--trace 1 runs one traced pass in a separate process and reports the
per-layer metrics; tracing never runs in a timed process.

Every output is checked (see workloads.py).  Human-readable lines come
first; the last line of stdout is the JSON result.  Scratch files live in
``.bench_out/`` inside the checkout and are removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 6
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def high_percentile(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}, no percentile with ten samples beyond it"
    value = sorted(samples)[n - 11]
    return f"p{100.0 * (n - 10) / n:.0f}={value:.6g} (n={n})"


def source_id(root: str) -> dict:
    """The git commit when there is one, and a digest of the package source
    that identifies the code either way."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "dpagauss")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


class Runner:
    def __init__(self, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, **BLAS_ENV)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                     else []))

    def python(self, args: list) -> str:
        """Run a child interpreter to completion; return its stdout."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run([sys.executable] + args, cwd=self.root,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{args[:2]} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{args[:2]} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return proc.stdout

    def setup_seconds(self, samples: int) -> list:
        """Seconds taken by fresh interpreters importing dpagauss.cli."""
        out = []
        for _ in range(samples):
            start = time.perf_counter()
            self.python(["-c", "import dpagauss.cli"])
            out.append(time.perf_counter() - start)
        return out

    def worker(self, args, trace: bool) -> dict:
        out = self.python([os.path.join(os.path.dirname(__file__),
                                        "worker.py"),
                           "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--scratch", self.scratch]
                          + (["--trace"] if trace else []))
        return json.loads(out.strip().splitlines()[-1])


def end_to_end(runner: Runner, args) -> tuple:
    # the first import also fills the bytecode cache and is not counted;
    # half the samples follow the workload, so they span the run
    runner.python(["-c", "import dpagauss.cli"])
    setup = runner.setup_seconds(SETUP_SAMPLES // 2)
    res = runner.worker(args, trace=False)
    setup += runner.setup_seconds(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    passes = res["passes"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(passes)} passes, {res['attempted']} invocations, "
          f"{res['failed']} failed, failed_frac "
          f"{res['failed'] / res['attempted']:.6g}")
    per_sub = {}
    for times in passes:
        for sub, elapsed in zip(res["subcommands"], times):
            per_sub.setdefault(sub, []).append(elapsed)
    pass_s = [sum(times) for times in passes]
    rows = [("setup_s", "s", 1.0, setup), ("wall_s", "s", 1.0, pass_s)]
    rows += [(f"{sub.replace('-', '_')}_ms", "ms", 1000.0, times)
             for sub, times in sorted(per_sub.items())]
    for name, unit, scale, samples in rows:
        samples = [scale * x for x in samples]
        print(f"  {name:14s} median {statistics.median(samples):.6g} {unit}; "
              f"{high_percentile(samples)}")
    print(f"  peak_rss_mb    {res['peak_rss_mb']:.6g} MB")
    values = {"setup_s": statistics.median(setup),
              "wall_s": statistics.median(pass_s),
              "peak_rss_mb": res["peak_rss_mb"]}
    return res, {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(runner: Runner, args) -> tuple:
    res = runner.worker(args, trace=True)
    units = dict(tracing.PER_LAYER)
    print(f"workload {args.workload} seed {args.seed}: one traced pass, "
          f"{res['attempted']} invocations, {res['failed']} failed, "
          f"{res['span_cost_s'] * 1e6:.3g} us per span")
    print("  no wait metrics: one thread and no queue, so no layer waits "
          "on another")
    for name, value in res["metrics"].items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    return res, {name: (value, units[name])
                 for name, value in res["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpagauss", "cli.py")):
        sys.stderr.write("perfbench: run from the root of a dpagauss "
                         "checkout (src/dpagauss/cli.py not found)\n")
        return 2
    base = os.path.join(root, ".bench_out")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        runner = Runner(root, scratch)
        measure = per_layer if args.trace else end_to_end
        res, metrics = measure(runner, args)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for error in res["errors"]:
        print(f"  FAILED {error}")
    env = dict(res["env"], **source_id(root), blas_env=BLAS_ENV)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
