"""Set-up child: a fresh interpreter gets ready for the first job of a workload.

It imports numpy and ``frattini.cli`` from the checkout and writes the
workload's seeded input files, then exits.  ``run.py`` times whole runs of
this script, from start to exit, as ``setup_s``.

    python3 perfbench/prepare.py --workload koszul-reps --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import source


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    source.use_checkout_source()
    import numpy  # noqa: F401  (part of what every job needs loaded)
    import frattini.cli  # noqa: F401
    import workloads

    workloads.prepare(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
