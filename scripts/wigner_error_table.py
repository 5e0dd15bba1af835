#!/usr/bin/env python3
"""Print the relative error of both Wigner densities against a 60-digit
evaluation, per unit band of the total squeeze u + r in [0, 12).

Each band draws a fixed seeded sample of 24 states (theta and lam uniform
in [-pi, pi), nbar in [0, 2), A in the box |Re|, |Im| < 2) and, per state,
four pairs of points out to 6 standard deviations (``grid_offsets`` in
tests/mp_reference.py): a ``grid`` point in the x columns that
``wigner-grid`` spans, about the ridge of its column, and an ``axis`` point
on the principal axes of the squeeze frame.  ``wigner_beta`` is evaluated
at the same points, as beta = e^{i lam} (x + i p) / sqrt(2).  Needs mpmath
(the ``test`` extra).

    python scripts/wigner_error_table.py
"""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

import mp_reference as ref  # noqa: E402
from dpagauss import (EvolvedState, quad_mean, wigner_beta,  # noqa: E402
                      wigner_quadrature)

BANDS = 12
STATES_PER_BAND = 24
POINTS_PER_STATE = 4


def band_errors(rng, band: int) -> dict:
    """Relative errors per (density, point kind) over one band's sample."""
    errors = {key: [] for key in ("quadrature grid", "quadrature axis",
                                  "beta grid", "beta axis")}
    for _ in range(STATES_PER_BAND):
        state = EvolvedState(
            displacement=complex(*rng.uniform(-2.0, 2.0, 2)),
            eff_squeeze=band + rng.uniform(), nbar=rng.uniform(0.0, 2.0),
            squeeze_phase=rng.uniform(-math.pi, math.pi))
        lam = rng.uniform(-math.pi, math.pi)
        mean_x = quad_mean(state, lam)
        mean_p = quad_mean(state, lam + 0.5 * math.pi)
        turn = complex(math.cos(lam), math.sin(lam)) / math.sqrt(2.0)
        for s, t in rng.uniform(-1.0, 1.0, (POINTS_PER_STATE, 2)):
            for kind, (dx, dp) in zip(("grid", "axis"),
                                      ref.grid_offsets(state, lam, s, t)):
                x, p = mean_x + dx, mean_p + dp
                beta = turn * complex(x, p)
                for name, got, want in (
                        ("quadrature", wigner_quadrature(state, lam, x, p),
                         ref.wigner_quadrature(state, lam, x, p)),
                        ("beta", wigner_beta(state, beta),
                         ref.wigner_beta(state, beta))):
                    errors[f"{name} {kind}"].append(
                        float(abs(got - want) / want))
    return errors


def main() -> int:
    rng = np.random.default_rng(0)
    rows = [band_errors(rng, band) for band in range(BANDS)]
    for key in rows[0]:
        print(f"{key}: relative error, max and median per band of u + r")
        for band, errors in enumerate(rows):
            print(f"  [{band:2d}, {band + 1:2d})  max {max(errors[key]):.2e}"
                  f"  median {float(np.median(errors[key])):.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
