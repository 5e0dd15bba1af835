"""Closed-form versus Fock-oracle verification grids.

Drives the brute-force oracle over a parameter grid and reports, for every
compared quantity, the closed form, the oracle value, their relative error
and the truncation used.  The report is a plain list of dicts so the CLI can
serialize it to JSON unchanged.

Cells sharing (r, u) reuse one squeezed Fock ladder and displace it once
per alpha; those displacements are the oracle's largest cost.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import astuple
from itertools import product
from typing import Optional, Sequence

import numpy as np

from . import fock, statistics, wigner
from .model import ModelParams, evolved_state

MOMENT_GATE = 1e-6
TRACE_DISTANCE_GATE = 1e-6

# reference quadrature angle for the moment comparisons; arbitrary but fixed,
# exercising both the stretched and the squeezed variance branches
REFERENCE_LAM = 0.7

# the pool's workers each run one BLAS thread, so that ``workers`` processes
# do not oversubscribe the CPUs; they start from a fresh interpreter, which
# reads these when it loads BLAS
POOL_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

DEFAULT_NBARS = (0.0, 0.2, 1.0)
DEFAULT_RS = (0.05, 0.2, 1.0)
DEFAULT_ALPHAS = (0.0, 0.5, 2.0)
DEFAULT_US = (0.0, 0.5, 2.0)

DEFAULT_EVOLUTION_GRID = tuple(product((0.0, 1.0), (0.1, 0.5), (0.0, 1.0),
                                       (0.0, 0.3)))

# (nbar, r, alpha, u, beta) spot checks of the Wigner density against the
# oracle's displaced photon-number parity
DEFAULT_WIGNER_POINTS = (
    (0.0, 0.1, 0.0, 0.0, 0.3 + 0.2j),
    (0.2, 0.1, 0.3, 0.5, 0.45 + 0.2j),
    (1.0, 0.4, 0.8, 0.6, 1.2 - 0.5j),
)


def _rel_err(closed: float, oracle: float) -> float:
    return abs(closed - oracle) / max(abs(closed), fock.RELATIVE_FLOOR)


def _entry(quantity: str, params: dict, closed: float, oracle: float,
           err: float, dim: int, gate: float) -> dict:
    """One report entry: a closed form against its oracle value."""
    return {"quantity": quantity, "params": params, "closed_form": closed,
            "oracle": oracle, "rel_err": err, "N_used": dim,
            "pass": bool(err <= gate)}


def _moment_entries(nbar: float, r: float, alpha: float, u: float,
                    moments: fock.FockMoments, dim: int,
                    lam: float) -> list[dict]:
    state = evolved_state(ModelParams(alpha, squeeze_mag=r, nbar=nbar), u)
    closed = {
        "quad_mean": statistics.quad_mean(state, lam),
        "quad_variance": statistics.quad_variance_state(state, lam),
        "mean_photon": statistics.mean_photon(state),
        "photon_variance": statistics.photon_variance(state),
    }
    oracle = {
        "quad_mean": moments.quad_mean(lam),
        "quad_variance": moments.quad_var(lam),
        "mean_photon": moments.mean_n,
        "photon_variance": moments.var_n,
    }
    cell = {"nbar": nbar, "r": r, "alpha": alpha, "u": u, "lam": lam}
    return [_entry(name, dict(cell), value, oracle[name],
                   _rel_err(value, oracle[name]), dim, MOMENT_GATE)
            for name, value in closed.items()]


def _slab_moments(r: float, u: float, nbars: Sequence[float],
                  alphas: Sequence[float],
                  dim: int) -> dict[tuple[float, float], fock.FockMoments]:
    """Moments for every (nbar, alpha) cell of an (r, u) slab at one
    truncation; raises ``fock.TruncationError`` when it is insufficient.

    The squeezed Fock ladder S|k> depends on neither nbar nor alpha and the
    displaced ladder not on nbar, so one ladder and one displacement per
    alpha serve the whole slab.  The ladder stays in its two parity parts:
    each is displaced and folded into the sums of every nbar cell at once,
    through one (columns x nbars) weight table, before the next.
    """
    weights = [fock.thermal_weights(nbar, dim) for nbar in nbars]
    count = max(map(len, weights))
    # column i: the weights of nbars[i], zero past its own levels
    table = np.stack([np.pad(w, (0, count - len(w))) for w in weights], 1)
    ladder = fock.squeezed_fock_ladder(count, (u + r) + 0j, dim)
    out = {}
    for alpha in alphas:
        state = evolved_state(ModelParams(alpha, squeeze_mag=r), u)
        moments = fock.ensemble_moments(
            fock._displaced_parts(state.displacement, ladder),
            (table[0::2], table[1::2]))
        out.update(zip([(nbar, alpha) for nbar in nbars], moments))
    return out


def _slab_dim(r: float, u: float, nbars: Sequence[float],
              alphas: Sequence[float]) -> int:
    """The first truncation a moment slab tries: the largest its cells
    suggest."""
    return max(fock.suggest_dim(evolved_state(
                   ModelParams(alpha, squeeze_mag=r, nbar=nbar), u))
               for nbar in nbars for alpha in alphas)


def moment_slab_report(r: float, u: float, nbars: Sequence[float],
                       alphas: Sequence[float]) -> list[dict]:
    """Verify one (r, u) slab of the moment grid.

    The oracle's truncation loop gates the whole slab: every moment at N
    and N + 20 must agree relative to max(1, |moment|).
    """
    moments, dim = fock._self_checked(
        lambda dim: _slab_moments(r, u, nbars, alphas, dim),
        lambda cells: [x for cell in cells.values() for x in astuple(cell)],
        1.0, _slab_dim(r, u, nbars, alphas), f"slab (r={r}, u={u})")
    entries = []
    for nbar in nbars:
        for alpha in alphas:
            entries.extend(_moment_entries(nbar, r, alpha, u,
                                           moments[(nbar, alpha)], dim,
                                           REFERENCE_LAM))
    return entries


def evolution_cell_report(nbar: float, r: float, alpha: float,
                          u: float) -> dict:
    """Trace distance between Hamiltonian evolution and the displaced-squeezed
    construction at matching truncations."""
    params = ModelParams(alpha, squeeze_mag=r, nbar=nbar)
    dim = fock.suggest_dim(evolved_state(params, u))
    # at r = 0 only u = 0 is admitted, and the preparation alone runs
    rho_h = fock.evolve_via_hamiltonian(params, 1.0 + u / r if u else 1.0,
                                        dim)
    rho_g = fock.build_rho_evolved(params, u, dim)
    dist = fock.trace_distance(rho_h, rho_g)
    return _entry("evolution_trace_distance",
                  {"nbar": nbar, "r": r, "alpha": alpha, "u": u},
                  0.0, dist, dist, dim, TRACE_DISTANCE_GATE)


def wigner_point_report(nbar: float, r: float, alpha: float, u: float,
                        beta: complex) -> dict:
    """Closed-form Wigner density against the oracle's displaced parity."""
    params = ModelParams(alpha, squeeze_mag=r, nbar=nbar)
    closed = wigner.wigner_beta(evolved_state(params, u), beta)
    oracle, dim = fock.numeric_wigner(params, u, beta)
    return _entry("wigner_density",
                  {"nbar": nbar, "r": r, "alpha": alpha, "u": u,
                   "beta_re": beta.real, "beta_im": beta.imag},
                  closed, oracle, _rel_err(closed, oracle), dim,
                  wigner.WIGNER_GATE)


@contextmanager
def _pool(workers: int):
    """A pool of ``workers`` spawned interpreters, and its imports, with
    ``POOL_BLAS_ENV`` set in this process's environment while it runs."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    saved = {name: os.environ.get(name) for name in POOL_BLAS_ENV}
    os.environ.update(POOL_BLAS_ENV)
    try:
        with ProcessPoolExecutor(
                workers, multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run_task(task) -> list[dict]:
    kind, args = task
    if kind == "moments":
        return moment_slab_report(*args)
    if kind == "evolution":
        return [evolution_cell_report(*args)]
    return [wigner_point_report(*args)]


def run_verification(*, nbars: Sequence[float] = DEFAULT_NBARS,
                     rs: Sequence[float] = DEFAULT_RS,
                     alphas: Sequence[float] = DEFAULT_ALPHAS,
                     us: Sequence[float] = DEFAULT_US,
                     evolution_grid=DEFAULT_EVOLUTION_GRID,
                     wigner_points=DEFAULT_WIGNER_POINTS,
                     workers: Optional[int] = None) -> list[dict]:
    """Run the full verification suite; deterministic entry order.

    The tasks run on ``workers`` processes (default: the CPU count); one
    worker runs them in this process.  The pool takes the moment slabs in
    descending order of their first truncation, then the evolution and
    Wigner cells, so the heaviest slab does not start last; the report keeps
    entry order.  The pool spawns fresh interpreters with one BLAS thread
    each (``POOL_BLAS_ENV``, set only while the pool runs).  One worker
    imports no ``multiprocessing`` and keeps the caller's process and BLAS
    threading, so under multithreaded BLAS its oracle values can differ from
    a pooled run's in the last bits; closed forms, entry order and pass
    flags do not.  Run it with ``OPENBLAS_NUM_THREADS=1`` to reproduce the
    pool's report.
    """
    if not (len(nbars) and len(rs) and len(alphas) and len(us)):
        raise ValueError("empty verification grid")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = []
    for r, u in product(rs, us):
        tasks.append(("moments", (r, u, tuple(nbars), tuple(alphas))))
    for cell in evolution_grid or ():
        tasks.append(("evolution", tuple(cell)))
    for point in wigner_points or ():
        tasks.append(("wigner", tuple(point)))

    if workers > 1 and len(tasks) > 1:
        cost = [_slab_dim(*args) if kind == "moments" else 0
                for kind, args in tasks]
        order = sorted(range(len(tasks)), key=cost.__getitem__, reverse=True)
        with _pool(workers) as pool:
            done = dict(zip(order, pool.map(_run_task,
                                            [tasks[i] for i in order])))
        grouped = [done[i] for i in range(len(tasks))]
    else:
        grouped = [_run_task(task) for task in tasks]
    return [entry for group in grouped for entry in group]


def all_passed(report: Sequence[dict]) -> bool:
    return all(entry["pass"] for entry in report)
