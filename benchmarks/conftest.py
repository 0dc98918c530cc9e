"""Shared fixtures for the benchmark harness.

``bench_experiments.py`` reproduces the paper's tables and figures, one
bench per :mod:`repro.experiments` entry; the other ``bench_*`` modules
measure the engine, codec and read service.  Results land under
``benchmarks/results/``.

Run with::

    pytest benchmarks/ --benchmark-only

Grid scale: ``REPRO_SCALE`` env var (default 4 → Run 1 at 128³/64³;
``REPRO_SCALE=8`` for a quick smoke pass, ``1`` for paper-size grids if you
have the patience).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

#: Grid divisor used by every benchmark in this directory.
SCALE = int(os.environ.get("REPRO_SCALE", "4"))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
