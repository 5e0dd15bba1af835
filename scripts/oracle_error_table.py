#!/usr/bin/env python3
"""Print the error of the Fock oracle's values on a ``verify`` grid, per
quantity: the largest and the median over the grid's entries.

The script runs ``dpagauss verify --workers 1`` on the default grid, or on
the grid of a config file given as ``--config FILE`` (other ``verify`` flags
are passed on as well), and compares each oracle value of the report with:

* ``photon_statistics`` in tests/mp_reference.py (60 digits), for
  ``mean_photon`` and ``photon_variance``;
* ``wigner_beta`` there, for ``wigner_density``;
* the report's closed form, for ``quad_mean`` and ``quad_variance``, which
  have no 60-digit form yet.

Errors are relative to max(|reference|, RELATIVE_FLOOR), as ``verify``
measures them.  ``evolution_trace_distance`` is a distance between two
oracle states whose exact value is 0, so its values are printed as they
stand.  Needs mpmath (the ``test`` extra).

    python scripts/oracle_error_table.py [--config FILE]
"""

import json
import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

import mp_reference as ref  # noqa: E402
from dpagauss import ModelParams, cli, evolved_state  # noqa: E402
from dpagauss.fock import RELATIVE_FLOOR  # noqa: E402

# quantity -> what its oracle values are compared with
REFERENCES = {
    "quad_mean": "relative, against the closed form",
    "quad_variance": "relative, against the closed form",
    "mean_photon": "relative, against photon_statistics",
    "photon_variance": "relative, against photon_statistics",
    "evolution_trace_distance": "absolute, a distance whose exact value is 0",
    "wigner_density": "relative, against wigner_beta",
}


def entry_error(entry: dict) -> float:
    """The error of one report entry's oracle value."""
    quantity, cell = entry["quantity"], entry["params"]
    oracle = entry["oracle"]
    if quantity == "evolution_trace_distance":
        return oracle
    params = ModelParams(cell["alpha"], squeeze_mag=cell["r"],
                         nbar=cell["nbar"])
    if quantity == "wigner_density":
        exact = ref.wigner_beta(evolved_state(params, cell["u"]),
                                complex(cell["beta_re"], cell["beta_im"]))
    elif quantity in ("mean_photon", "photon_variance"):
        stats = ref.photon_statistics(params, cell["u"])
        exact = stats[1] if quantity == "mean_photon" else stats[2]
    else:
        exact = entry["closed_form"]
    return float(abs(oracle - exact) / max(abs(exact), RELATIVE_FLOOR))


def main(argv: list) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        report = pathlib.Path(scratch) / "report.json"
        code = cli.main(["verify", "--workers", "1", *argv,
                         "--out", str(report)])
        if not report.exists():
            return code
        entries = json.loads(report.read_text())["entries"]
    print("oracle error per quantity: max and median over the entries")
    for quantity, against in REFERENCES.items():
        errors = [entry_error(entry) for entry in entries
                  if entry["quantity"] == quantity]
        if errors:
            print(f"  {quantity:<25} max {max(errors):.2e}  median "
                  f"{np.median(errors):.2e}  over {len(errors):3d}  "
                  f"({against})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
