"""Shared fixtures for the test suite.

Grids are kept deliberately tiny (16³–64³) so the full suite runs in a few
minutes; the benchmark harness is where realistic sizes live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset
from repro.sim.datasets import make_dataset


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def z10_small() -> AMRDataset:
    """Run1_Z10 at the smallest scale (64³/32³): 23%/77% densities."""
    return make_dataset("Run1_Z10", scale=8)


@pytest.fixture(scope="session")
def z3_small() -> AMRDataset:
    """Run1_Z3 at the smallest scale: dense finest level (64%)."""
    return make_dataset("Run1_Z3", scale=8)


@pytest.fixture(scope="session")
def t3_small() -> AMRDataset:
    """Run2_T3 at the smallest scale: three levels, sparse finest."""
    return make_dataset("Run2_T3", scale=8)


@pytest.fixture
def scratch_registry(monkeypatch):
    """A private copy of the codec registry: whatever a test registers is
    gone again when it ends."""
    from repro.engine import registry

    monkeypatch.setattr(registry, "_SPECS", dict(registry._SPECS))
    monkeypatch.setattr(registry, "_LOOKUP", dict(registry._LOOKUP))
