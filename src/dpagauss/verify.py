"""Closed-form versus Fock-oracle verification grids.

Drives the brute-force oracle over a parameter grid and reports, for every
compared quantity, the closed form, the oracle value, their relative error
and the truncation used.  The report is a plain list of dicts so the CLI can
serialize it to JSON unchanged.

Cells sharing (nbar, r, u) reuse one squeezed thermal ensemble; only the
displacement differs with alpha, and applying it is cheap.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from typing import Optional, Sequence

import numpy as np

from . import fock, statistics, wigner
from .model import ModelParams, evolved_state

MOMENT_GATE = 1e-6
TRACE_DISTANCE_GATE = 1e-6
WIGNER_GATE = 1e-6

# reference quadrature angle for the moment comparisons; arbitrary but fixed,
# exercising both the stretched and the squeezed variance branches
REFERENCE_LAM = 0.7

# largest truncation a moment slab may try
MAX_DIM = 40000

DEFAULT_NBARS = (0.0, 0.2, 1.0)
DEFAULT_RS = (0.05, 0.2, 1.0)
DEFAULT_ALPHAS = (0.0, 0.5, 2.0)
DEFAULT_US = (0.0, 0.5, 2.0)

DEFAULT_EVOLUTION_GRID = tuple(product((0.0, 1.0), (0.1, 0.5), (0.0, 1.0),
                                       (0.0, 0.3)))

# (nbar, r, alpha, u, beta) spot checks of the phase-space integral
DEFAULT_WIGNER_POINTS = (
    (0.0, 0.1, 0.0, 0.0, 0.3 + 0.2j),
    (0.2, 0.1, 0.3, 0.5, 0.45 + 0.2j),
    (1.0, 0.4, 0.8, 0.6, 1.2 - 0.5j),
)


def _rel_err(closed: float, oracle: float) -> float:
    return abs(closed - oracle) / max(abs(closed), 1e-6)


def _entry(quantity: str, params: dict, closed: float, oracle: float,
           err: float, dim: int, gate: float) -> dict:
    """One report entry: a closed form against its oracle value."""
    return {"quantity": quantity, "params": params, "closed_form": closed,
            "oracle": oracle, "rel_err": err, "N_used": dim,
            "pass": bool(err <= gate)}


def _cell_params(nbar: float, r: float, alpha: float) -> ModelParams:
    return ModelParams(alpha_mag=alpha, alpha_phase=0.0, squeeze_mag=r,
                       squeeze_phase=0.0, nbar=nbar)


def _moment_entries(nbar: float, r: float, alpha: float, u: float,
                    moments: fock.FockMoments, dim: int,
                    lam: float) -> list[dict]:
    state = evolved_state(_cell_params(nbar, r, alpha), u)
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
                  alphas: Sequence[float], dim: int
                  ) -> Optional[dict[tuple[float, float], fock.FockMoments]]:
    """Moments for every (nbar, alpha) cell of an (r, u) slab at one
    truncation, or None when the truncation is insufficient.

    The squeezed Fock ladder S|k> depends on neither nbar nor alpha and the
    displaced ladder not on nbar, so one ladder and one displacement per
    alpha serve the whole slab.
    """
    counts = {nbar: fock._thermal_vector_count(nbar, dim) for nbar in nbars}
    try:
        ladder = fock.squeezed_fock_ladder(max(counts.values()),
                                           (u + r) + 0j, dim)
        out = {}
        for alpha in alphas:
            state = evolved_state(_cell_params(0.0, r, alpha), u)
            if alpha == 0.0:
                displaced = ladder
            else:
                displaced = fock.apply_displacement(state.displacement, ladder)
            for nbar in nbars:
                count = counts[nbar]
                weights = fock.thermal_weights(nbar, dim)[:count]
                weights = weights / weights.sum()
                out[(nbar, alpha)] = fock.ensemble_moments(
                    displaced[:, :count], weights)
        return out
    except fock.TruncationError:
        return None


def moment_slab_report(r: float, u: float, nbars: Sequence[float],
                       alphas: Sequence[float]) -> list[dict]:
    """Verify one (r, u) slab of the moment grid.

    The N versus N + 20 self-check gates every cell in the slab; the slab
    grows its truncation by a quarter until the check passes, skipping the
    N + 20 ladder when N itself is already insufficient, and raises
    ``fock.TruncationError`` rather than try more than ``MAX_DIM`` levels.
    """
    dim = max(fock.suggest_dim(_cell_params(nbar, r, alpha), u)
              for nbar in nbars for alpha in alphas)
    while dim <= MAX_DIM:
        first = _slab_moments(r, u, nbars, alphas, dim)
        second = None if first is None else _slab_moments(
            r, u, nbars, alphas, dim + 20)
        if second is not None and all(
                fock._moments_agree(first[key], second[key],
                                    fock.SELF_CHECK_RTOL)
                for key in first):
            entries = []
            for nbar in nbars:
                for alpha in alphas:
                    entries.extend(_moment_entries(
                        nbar, r, alpha, u, second[(nbar, alpha)],
                        dim + 20, REFERENCE_LAM))
            return entries
        dim += max(1, dim // 4)
    raise fock.TruncationError(
        f"slab (r={r}, u={u}) needs more than {MAX_DIM} Fock levels "
        f"(next truncation {dim})")


def evolution_cell_report(nbar: float, r: float, alpha: float,
                          u: float) -> dict:
    """Trace distance between Hamiltonian evolution and the displaced-squeezed
    construction at matching truncations."""
    params = _cell_params(nbar, r, alpha)
    dim = max(fock.suggest_dim(params, u), 96)
    tau = u * params.prep_time / r
    rho_h = fock.evolve_via_hamiltonian(params, params.prep_time + tau, dim)
    rho_g = fock.build_rho_evolved(params, u, dim)
    dist = fock.trace_distance(rho_h, rho_g)
    return _entry("evolution_trace_distance",
                  {"nbar": nbar, "r": r, "alpha": alpha, "u": u},
                  0.0, dist, dist, dim, TRACE_DISTANCE_GATE)


def wigner_point_report(nbar: float, r: float, alpha: float, u: float,
                        beta: complex) -> dict:
    """Closed-form Wigner density against the defining-integral quadrature."""
    params = _cell_params(nbar, r, alpha)
    closed = wigner.wigner_beta(evolved_state(params, u), beta)
    oracle = fock.numeric_wigner(params, u, beta)
    return _entry("wigner_density",
                  {"nbar": nbar, "r": r, "alpha": alpha, "u": u,
                   "beta_re": beta.real, "beta_im": beta.imag},
                  closed, oracle, _rel_err(closed, oracle), 0, WIGNER_GATE)


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
    worker runs them in this process.
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_run_task, tasks))
    else:
        grouped = [_run_task(task) for task in tasks]
    return [entry for group in grouped for entry in group]


def all_passed(report: Sequence[dict]) -> bool:
    return all(entry["pass"] for entry in report)
