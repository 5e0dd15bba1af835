"""Per-layer tracing of dpagauss from outside the package.

``install`` wraps every public function of the seven package modules (the
layers) and rebinds each wrapper at every place the function is bound,
including ``from``-imported copies, so a call is recorded once whichever
name it goes through.  ``Tracer`` keeps per-function aggregates in memory:
calls, total time and self time (a span's duration minus the time its child
spans cover).  It also follows the truncation attempts of the oracle's
moment slabs.  Everything runs in one thread, so no layer ever waits on
another and there are no wait metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter
from typing import Callable, Optional

LAYERS = ("cli", "verify", "fock", "nonclassicality", "statistics", "wigner",
          "model")

# from-imported copies whose wrapping the coverage check asserts
BINDING_SITES = (("nonclassicality", "mandel_q_curve"),
                 ("cli", "evolved_state"), ("verify", "evolved_state"),
                 ("fock", "evolved_state"), ("wigner", "quad_mean"))

# functions each workload must call; a traced pass that records no call of
# one of them fails the coverage check
EXPECTED_CALLS = {
    "figures": ("cli.main", "cli.cmd_sweep", "cli.cmd_critical",
                "cli.cmd_wigner_grid", "cli.cmd_eval", "model.evolved_state",
                "statistics.mandel_q", "statistics.mean_photon",
                "statistics.photon_variance",
                "statistics.quad_variance_state", "statistics.quad_mean",
                "statistics.mandel_q_curve",
                "nonclassicality.find_critical_alpha",
                "nonclassicality.classify_behavior",
                "wigner.wigner_quadrature"),
    "oracle": ("cli.cmd_verify", "verify.moment_slab_report",
               "verify.evolution_cell_report", "verify.wigner_point_report",
               "fock.squeezed_fock_ladder", "fock.apply_squeeze",
               "fock.apply_displacement", "fock.ensemble_moments",
               "fock.suggest_dim", "fock.displacement_op",
               "fock.expm_antihermitian", "fock.build_rho_evolved",
               "fock.evolve_via_hamiltonian", "fock.trace_distance",
               "fock.numeric_wigner", "model.evolved_state"),
}

# the two slabs that carry the full oracle grid
HEAVY_SLABS = {(1.0, 2.0): "r1-u2", (0.05, 2.0): "r0.05-u2"}

# (metric, unit): "<module>.<function>.<calls|total_s|self_s>" names read
# the per-function aggregates; the others are computed in ``metrics``
PER_LAYER = (
    [(f"fock.{fn}.{kind}", unit)
     for fn in ("apply_squeeze", "apply_displacement", "suggest_dim")
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("fock.vector_levels", "count"),
       ("fock.ensemble_moments.self_s", "s")]
    + [(f"fock.{fn}.self_s", "s")
       for fn in ("build_rho_evolved", "evolve_via_hamiltonian",
                  "trace_distance", "numeric_wigner", "displacement_op",
                  "expm_antihermitian")]
    + [(f"verify.slab.{label}.s", "s")
       for label in ("r1-u2", "r0.05-u2", "other")]
    + [("verify.truncation_attempts", "count"),
       ("verify.truncation_useful_ratio", "ratio"),
       ("verify.rejected_levels_frac", "ratio"),
       ("verify.evolution_cell_report.total_s", "s"),
       ("verify.wigner_point_report.total_s", "s"),
       ("verify.max_gate_ratio", "ratio")]
    + [(f"{fn}.{kind}", unit)
       for fn in ("statistics.mandel_q", "statistics.mean_photon",
                  "statistics.photon_variance",
                  "statistics.quad_variance_state", "model.evolved_state")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("statistics.mandel_q_curve.calls", "count"),
       ("statistics.mandel_q_curve.points", "count")]
    + [(f"nonclassicality.{fn}.{kind}", "s")
       for fn in ("find_critical_alpha", "classify_behavior")
       for kind in ("total_s", "self_s")]
    + [("wigner.wigner_quadrature.calls", "count"),
       ("wigner.wigner_quadrature.self_s", "s")]
    + [(f"cli.cmd_{sub}.total_s", "s")
       for sub in ("sweep", "critical", "wigner_grid", "eval", "verify")]
    + [("cli.rows_written", "count"), ("cli.bytes_written", "bytes")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.spans", "count"), ("trace.wall_s", "s"),
       ("trace.overhead_s", "s")]
)


class CoverageError(RuntimeError):
    """The traced run missed a binding site or an expected call."""


class Tracer:
    """Span aggregates for one traced pass; ``clock`` is injectable."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list = []  # [name, start, time covered by children]
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.slab_seconds: Counter = Counter()
        self._slab: Optional[dict] = None

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    # --- oracle slab bookkeeping: an attempt is one truncation, i.e. the
    # pair of ladders at N and N + 20

    def slab_begin(self, r: float, u: float) -> None:
        self._slab = {"label": HEAVY_SLABS.get((r, u), "other"),
                      "ladders": 0, "levels": []}

    def ladder(self) -> None:
        if self._slab is not None:
            if self._slab["ladders"] % 2 == 0:
                self._slab["levels"].append(0)
            self._slab["ladders"] += 1

    def vector_levels(self, levels: int) -> None:
        self.counts["fock.vector_levels"] += levels
        if self._slab is not None and self._slab["levels"]:
            self._slab["levels"][-1] += levels

    def slab_end(self, duration: float, accepted: bool) -> None:
        slab, self._slab = self._slab, None
        levels = slab["levels"]
        self.slab_seconds[slab["label"]] += duration
        self.counts["attempts"] += len(levels)
        self.counts["slab_levels"] += sum(levels)
        if accepted and levels:
            self.counts["accepted"] += 1
            self.counts["rejected_levels"] += sum(levels[:-1])
        else:
            self.counts["rejected_levels"] += sum(levels)

    # --- results

    def metrics(self, max_gate_ratio: float = 0.0,
                span_cost_s: float = 0.0, wall_s: float = 0.0) -> dict:
        """Every ``PER_LAYER`` metric; absent functions read 0."""
        stats, counts = self.stats, self.counts
        kinds = {"calls": 0, "total_s": 1, "self_s": 2}
        spans = sum(s[0] for s in stats.values())
        computed = {
            "fock.vector_levels": counts["fock.vector_levels"],
            "statistics.mandel_q_curve.points":
                counts["statistics.mandel_q_curve.points"],
            "verify.truncation_attempts": counts["attempts"],
            "verify.truncation_useful_ratio":
                _ratio(counts["accepted"], counts["attempts"]),
            "verify.rejected_levels_frac":
                _ratio(counts["rejected_levels"], counts["slab_levels"]),
            "verify.max_gate_ratio": max_gate_ratio,
            "cli.rows_written": counts["cli.rows_written"],
            "cli.bytes_written": counts["cli.bytes_written"],
            "trace.spans": spans,
            "trace.wall_s": wall_s,
            "trace.overhead_s": spans * span_cost_s,
        }
        for label in ("r1-u2", "r0.05-u2", "other"):
            computed[f"verify.slab.{label}.s"] = self.slab_seconds[label]
        for layer in LAYERS:
            computed[f"{layer}.self_s"] = sum(
                s[2] for name, s in stats.items()
                if name.startswith(layer + "."))
        out = {}
        for name, _unit in PER_LAYER:
            if name in computed:
                out[name] = computed[name]
            else:
                function, kind = name.rsplit(".", 1)
                out[name] = stats.get(function, [0, 0.0, 0.0])[kinds[kind]]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _out_path(argv) -> Optional[str]:
    argv = list(argv)
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _vecs_size(args, kwargs) -> int:
    vecs = args[1] if len(args) > 1 else kwargs["vecs"]
    return int(vecs.size)


def _hooks(tracer: Tracer) -> dict:
    """name -> (before(args, kwargs), after(args, result, ok, duration))."""

    def cli_written(args, result, ok, duration):
        path = _out_path(args[0] if args else [])
        if path is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            tracer.counts["cli.rows_written"] += data.count(b"\n")
            tracer.counts["cli.bytes_written"] += len(data)

    def curve_points(args, kwargs):
        us = args[3] if len(args) > 3 else kwargs["us"]
        tracer.counts["statistics.mandel_q_curve.points"] += (
            len(us) if hasattr(us, "__len__") else 1)

    def slab_end(args, result, ok, duration):
        tracer.slab_end(duration, ok and not any(
            "error" in entry for entry in result))

    levels = (lambda a, k: tracer.vector_levels(_vecs_size(a, k)), None)
    return {
        "cli.main": (None, cli_written),
        "statistics.mandel_q_curve": (curve_points, None),
        "fock.apply_squeeze": levels,
        "fock.apply_displacement": levels,
        "fock.squeezed_fock_ladder": (lambda a, k: tracer.ladder(), None),
        "verify.moment_slab_report": (
            lambda a, k: tracer.slab_begin(a[0], a[1]), slab_end),
    }


def _wrap(tracer: Tracer, name: str, fn, hooks):
    before, after = hooks

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        if before is not None:
            before(args, kwargs)
        ok, result = False, None
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            duration = tracer.exit()
            if after is not None:
                after(args, result, ok, duration)

    wrapper.__traced__ = name
    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions of every layer at every binding site of
    the package; return the function that restores the originals."""
    modules = {layer: importlib.import_module(f"dpagauss.{layer}")
               for layer in LAYERS}
    hooks = _hooks(tracer)
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                    and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrappers[obj] = _wrap(tracer, name, obj,
                                      hooks.get(name, (None, None)))
    patched = []
    for module in [importlib.import_module("dpagauss"), *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    for layer, attr in BINDING_SITES:
        if not hasattr(getattr(modules[layer], attr), "__traced__"):
            raise CoverageError(f"dpagauss.{layer}.{attr} is not wrapped")

    def restore() -> None:
        for module, attr, obj in patched:
            setattr(module, attr, obj)
        leftover = [f"{m.__name__}.{a}" for m, a, _ in patched
                    if hasattr(getattr(m, a), "__traced__")]
        if leftover:
            raise CoverageError(f"originals not restored: {leftover}")

    return restore


def check_coverage(tracer: Tracer, workload: str) -> None:
    """Fail loudly when an expected function recorded no call, or when the
    closed-form workload reached the Fock oracle."""
    missing = [name for name in EXPECTED_CALLS[workload]
               if name not in tracer.stats]
    if missing:
        raise CoverageError(f"{workload}: no call recorded for {missing}")
    if workload == "figures":
        fock_calls = sorted(n for n in tracer.stats if n.startswith("fock."))
        if fock_calls:
            raise CoverageError(f"figures reached the Fock oracle: "
                                f"{fock_calls}")


def span_cost(samples: int = 20000) -> float:
    """Seconds one wrapper adds to a two-argument call (median of five
    trials against the bare call)."""

    def noop(a, b):
        return None

    wrapped = _wrap(Tracer(), "noop", noop, (None, None))
    trials = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            noop(1.0, 2.0)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            wrapped(1.0, 2.0)
        trials.append((time.perf_counter() - start - bare) / samples)
    return max(sorted(trials)[2], 0.0)
