"""One workload process: drives ``dpagauss.cli.main`` in-process.

Its own import of numpy, scipy and dpagauss is not timed.  It times every
CLI invocation, checks every output and prints one JSON object on stdout.
Without ``--trace`` it runs whole passes, one invocation after the other,
until ``--seconds`` have passed (at least one pass).  With ``--trace`` it
runs one pass with every package function wrapped, and reports the
per-layer metrics instead of timings.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --scratch DIR [--trace]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

from dpagauss import cli

import tracing
import workloads


def _blas() -> dict:
    """BLAS library and the thread count it actually runs with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": _blas()}


def invoke(call: workloads.Invocation, scratch: str, reference) -> tuple:
    """Run one invocation; return (seconds, error message or None)."""
    out = os.path.join(scratch, "out")
    if os.path.exists(out):
        os.remove(out)
    start = time.perf_counter()
    try:
        code = cli.main(call.argv + ["--out", out])
    except Exception:  # a traceback is a failed invocation, not a crash
        elapsed = time.perf_counter() - start
        return elapsed, f"{call.key}: raised\n{traceback.format_exc()}"
    elapsed = time.perf_counter() - start
    try:
        workloads.check(call, code, out, reference)
    except (OSError, ValueError, KeyError, TypeError,
            workloads.CheckError) as exc:
        return elapsed, f"{call.key}: {exc}"
    return elapsed, None


def timed(calls, seconds: float, scratch: str, reference) -> dict:
    """Whole passes until ``seconds`` have passed, at least one.  Each pass
    is the list of its invocations' times in seconds."""
    passes, errors = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        times = []
        for call in calls:
            elapsed, error = invoke(call, scratch, reference)
            times.append(elapsed)
            if error:
                errors.append(error)
        passes.append(times)
    return {"passes": passes,
            "subcommands": [call.subcommand for call in calls],
            "attempted": len(calls) * len(passes), "failed": len(errors),
            "errors": errors[:5],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced(workload: str, calls, scratch: str, reference) -> dict:
    cost = tracing.span_cost()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    errors, ratio = [], 0.0
    start = time.perf_counter()
    try:
        for call in calls:
            _elapsed, error = invoke(call, scratch, reference)
            if error:
                errors.append(error)
            elif call.subcommand == "verify":
                with open(os.path.join(scratch, "out"), "rb") as fh:
                    entries = json.load(fh)["entries"]
                ratio = max([ratio] + [workloads.gate_ratio(e)
                                       for e in entries])
    finally:
        wall = time.perf_counter() - start
        restore()
    tracing.check_coverage(tracer, workload)
    return {"metrics": tracer.metrics(max_gate_ratio=ratio, span_cost_s=cost,
                                      wall_s=wall),
            "span_cost_s": cost, "attempted": len(calls),
            "failed": len(errors), "errors": errors[:5]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    calls = workloads.build(args.workload, args.seed, args.scratch)
    reference = workloads.load_reference() if args.seed == 0 else None
    if args.trace:
        result = traced(args.workload, calls, args.scratch, reference)
    else:
        result = timed(calls, args.seconds, args.scratch, reference)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
