#!/usr/bin/env python3
"""Print the relative error of A(tau) and of the photon statistics against a
60-digit evaluation, per band of the time u, at delta = 0 and at random
delta.

The closed forms run end to end, as ``eval`` runs them, and are compared
with ``photon_statistics`` in tests/mp_reference.py, whose A(tau) takes the
Heisenberg route (``photon_errors`` there).  Q is (Var n - <n>) / <n>,
which is ``mandel_q``'s value wherever its rounding guard admits the input,
and its error is relative to max(1, |Q|), as ``Q_ROUNDING_TOL`` measures
it.

Each band draws a fixed seeded sample of 32 states twice: at the relative
phase delta = phi - theta/2 = 0, where the critical solver works, and at
delta uniform in [-pi, pi).  r is log-uniform in [1e-3, 2], theta uniform
in [-pi, pi), nbar in [0, 2) and |alpha| in [0.1, 2).  Three inputs
outside those bands follow: two where ``mandel_q`` refuses to answer, and
one at a tiny r and u.  Needs mpmath (the ``test`` extra).

    python scripts/photon_error_table.py
"""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

import mp_reference as ref  # noqa: E402
from dpagauss import ModelParams  # noqa: E402

BANDS = ((0, 1), (1, 3), (3, 6), (6, 10), (10, 20))
STATES_PER_BAND = 32
QUANTITIES = ("displacement_amplitude", "mean_photon", "photon_variance",
              "mandel_q")
# (nbar, r, |alpha|, u) at delta = 0, outside the sampled bands
RECORDED = (
    # the displacement term of Var n cancels: eval exits 1 at both ("lost to
    # rounding")
    (9152.344813715865, 3.1004460017694713e-19, 5.7775808282818915,
     19.487641561708166),
    (7.5e13, 1.3e-31, 0.25, 9.4),
    # cosh u - 1 keeps one rounding of cosh u, times coth(r/2) = 2e10
    (0.3, 1e-10, 0.5, 1e-7))


def band_errors(rng, low: float, high: float, random_delta: bool) -> list:
    """Per quantity, the relative errors over one band's sample."""
    rows = []
    for _ in range(STATES_PER_BAND):
        theta = rng.uniform(-math.pi, math.pi)
        delta = rng.uniform(-math.pi, math.pi) if random_delta else 0.0
        alpha = rng.uniform(0.1, 2.0)
        r = 10.0 ** rng.uniform(-3.0, math.log10(2.0))
        params = ModelParams(alpha_mag=alpha, alpha_phase=0.5 * theta + delta,
                             squeeze_mag=r, squeeze_phase=theta,
                             nbar=rng.uniform(0.0, 2.0))
        rows.append(ref.photon_errors(params, rng.uniform(low, high)))
    return list(zip(*rows))


def main() -> int:
    rng = np.random.default_rng(0)
    for kind, random_delta in (("delta = 0", False), ("random delta", True)):
        table = [band_errors(rng, low, high, random_delta)
                 for low, high in BANDS]
        for column, name in enumerate(QUANTITIES):
            print(f"{name}, {kind}: relative error, max and median per "
                  "band of u")
            for (low, high), band in zip(BANDS, table):
                print(f"  [{low:2d}, {high:2d})  max {max(band[column]):.2e}"
                      f"  median {float(np.median(band[column])):.2e}")
    print("recorded inputs at delta = 0: relative error")
    for nbar, r, alpha, u in RECORDED:
        params = ModelParams(alpha_mag=alpha, squeeze_mag=r, nbar=nbar)
        print(f"  nbar={nbar!r} r={r!r} alpha={alpha!r} u={u!r}")
        for name, error in zip(QUANTITIES, ref.photon_errors(params, u)):
            print(f"    {name} {error:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
