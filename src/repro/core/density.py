"""The density filter: strategy selection thresholds (paper §3.4, Fig. 3).

TAC's hybrid rule is driven entirely by a level's data density:

* ``d < T1`` (50%): **OpST** — plenty of empty space, and the O(N²·d) cost
  is low at low density;
* ``T1 <= d < T2`` (60%): **AKDTree** — same rate-distortion as OpST
  (Fig. 11) at a density-independent cost (Fig. 13);
* ``d >= T2``: **GSP** — little left to remove; preserve locality and pad.

The dataset-scope rule of §4.4 reuses ``T2``: when the *finest* level is
denser than ``T2`` the whole dataset is better served by the 3D baseline.
"""

from __future__ import annotations

from enum import Enum

#: Paper's empirically chosen thresholds.
DEFAULT_T1 = 0.50
DEFAULT_T2 = 0.60


class Strategy(str, Enum):
    """Per-level pre-process strategies (plus references NaST and ZF)."""

    OPST = "opst"
    AKDTREE = "akdtree"
    GSP = "gsp"
    NAST = "nast"
    ZF = "zf"


def select_strategy(density: float) -> Strategy:
    """Choose the pre-process strategy for one level by its density."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if density < DEFAULT_T1:
        return Strategy.OPST
    if density < DEFAULT_T2:
        return Strategy.AKDTREE
    return Strategy.GSP


def use_3d_baseline(finest_density: float) -> bool:
    """Dataset-scope rule of §4.4: fall back to the 3D baseline when the
    finest level is denser than ``DEFAULT_T2`` (the up-sampling redundancy
    is then negligible and whole-domain locality wins)."""
    return finest_density >= DEFAULT_T2
