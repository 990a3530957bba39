"""Write ``digests.json``: the expected output of every sweep operation.

Run from the repository root after a change that is meant to alter sweep
results (the injection streams, the codec, the forward pass)::

    python3 perfbench/make_digests.py

It runs every workload of ``workloads.SWEEPS`` once per pool seed, untraced,
and records each grid point's scores (as ``float.hex``), ECC counters or
weight-store hash, and output rows (to 7 significant digits).  ``run.py``
counts a grid point whose row differs from these as failed
(``workloads.rows_match``).
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import GRID, POOL, SWEEPS, SweepWorkload  # noqa: E402


def rounded(row: dict) -> dict:
    """``row`` with its output rows rounded to 7 significant digits."""
    return {key: [[float(f"{v:.7g}") for v in out] for out in value]
            if key.endswith("outputs") else value
            for key, value in row.items()}


def main() -> int:
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    digests = {"grid": list(GRID)}
    for name in SWEEPS:
        workload = SweepWorkload(name)
        try:
            digests[name] = [[rounded(row) for row in workload.run_op(seed)[0]]
                             for seed in range(POOL)]
        finally:
            workload.close()
        print(f"{name}: {POOL} operations recorded", flush=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
