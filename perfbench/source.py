"""Locate the frattini sources of the checkout the benchmark lives in.

The benchmark always runs the package from ``<checkout>/src``, never an
installed copy, so that a run measures the code of the checkout it sits in.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class MissingSource(RuntimeError):
    """The checkout holds no frattini sources to benchmark."""


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on the import path and check it is used."""
    if not (SRC / "frattini" / "cli.py").is_file():
        raise MissingSource(f"no frattini sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frattini

    if Path(frattini.__file__).resolve().parent != SRC / "frattini":
        raise MissingSource(f"imported frattini from {frattini.__file__}, not from {SRC}")
