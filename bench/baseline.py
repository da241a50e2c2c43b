"""Re-measure the ROADMAP baseline cells and check their sweep counts.

Usage (from the repository root):

    python3 bench/baseline.py [--workers N]

Runs ``estimate`` with 64 restarts at seed 42 on the four cells of the
ROADMAP baseline table, built and counted as the benchmark's workloads do
(``workloads.Cell``, ``workloads.search_stats``), and prints per cell the
total sweeps recorded in ``RestartDiagnostics``, the wall time and the share
of restarts that converged.  The sweep counts must equal the recorded ones
exactly; the exit code is 1 if any differs.  With two workers on a two-core
Intel Xeon VM it takes about 75 s.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from ibsest.estimator import estimate  # noqa: E402
from ibsest.io import parse_observation_file  # noqa: E402

from workloads import Cell, search_stats  # noqa: E402

# (cell, total sweeps at seed 42 with 64 restarts)
CELLS = (
    (Cell("table1", 1.0, 42, 64), 2259),
    (Cell("table3", 2.0, 42, 64), 3308),
    (Cell("table5", 1.0, 42, 64), 1329),
    (Cell("table5", 3.0, 42, 64), 12326),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)))
    args = parser.parse_args(argv)
    ok = True
    for cell, expected in CELLS:
        obs = parse_observation_file(cell.path)
        t0 = time.perf_counter()
        stats = search_stats([estimate(obs, cell.config(args.workers))])
        elapsed = time.perf_counter() - t0
        status = "ok" if stats["sweeps"] == expected else "MISMATCH"
        ok = ok and stats["sweeps"] == expected
        print(f"{cell.label}: {stats['sweeps']} sweeps (recorded {expected}) {status}"
              f"  {elapsed:.2f} s with {args.workers} worker(s)"
              f"  {stats['converged_frac']:.3f} of restarts converged")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
