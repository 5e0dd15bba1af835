#!/usr/bin/env python3
"""Solve the critical displacement for the three benchmark parameter sets
with ``dpagauss critical`` and print the resulting phase-transition table;
with an output path, also write the records as one JSON list."""

import json
import pathlib
import sys
import tempfile

from dpagauss.cli import main as cli_main

BENCHMARKS = ((0.2, 0.1), (0.1, 0.2), (1.0, 1.0))


def main() -> int:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "critical.json"
        for nbar, r in BENCHMARKS:
            code = cli_main(["critical", "--nbar", str(nbar), "--r", str(r),
                             "--out", str(path)])
            if code != 0:
                return code
            record = json.loads(path.read_text(encoding="utf-8"))
            records.append(record)
            tangency = ("-" if record["tangency_u"] is None
                        else f"{record['tangency_u']:.4f}")
            print(f"nbar={nbar:<4} r={r:<4} alpha_c={record['alpha_c']:.4f} "
                  f"tangency_u={tangency} mechanism={record['mechanism']}")
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
        print(f"wrote {sys.argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
