"""Cell-based halo finder and halo-distortion metrics (§4.2 metric 6).

The paper's halo finder [Davis et al. 1985 style] applies two criteria to
the uniform-resolution density field:

1. a cell is a *halo cell candidate* when its mass exceeds
   ``threshold_factor`` (81.66 in the paper) times the mean cell mass;
2. candidates form a halo when enough of them cluster in a region — we
   realize "a certain area" as 6-connected components with at least
   ``min_cells`` members (scipy's ``ndimage.label``).

Per halo we report position (center of mass), cell count, and total mass;
the Table 3 metrics compare the *biggest* halo of the original field with
its positional match in the decompressed field (relative mass difference
and cell-count difference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

#: Paper's candidate threshold: 81.66 × the average mass.
DEFAULT_THRESHOLD_FACTOR = 81.66

#: Minimum candidate cells per halo ("enough halo cell candidates").
DEFAULT_MIN_CELLS = 8


@dataclass(frozen=True)
class Halo:
    """One identified halo."""

    position: tuple[float, float, float]  # center of mass (cell units)
    n_cells: int
    mass: float


@dataclass
class HaloCatalog:
    """All halos of one field, sorted by decreasing mass."""

    halos: list[Halo] = field(default_factory=list)
    threshold: float = 0.0
    mean_mass: float = 0.0

    @property
    def n_halos(self) -> int:
        return len(self.halos)

    @property
    def biggest(self) -> Halo:
        if not self.halos:
            raise ValueError("catalog is empty")
        return self.halos[0]


def find_halos(
    density: np.ndarray,
    *,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
    min_cells: int = DEFAULT_MIN_CELLS,
) -> HaloCatalog:
    """Identify halos in a uniform density cube (see module docstring)."""
    density = np.asarray(density, dtype=np.float64)
    if density.ndim != 3:
        raise ValueError(f"halo finder expects a 3D field, got ndim={density.ndim}")
    if threshold_factor <= 0:
        raise ValueError("threshold_factor must be positive")
    if min_cells < 1:
        raise ValueError("min_cells must be >= 1")
    mean_mass = float(density.mean()) if density.size else 0.0
    threshold = threshold_factor * mean_mass
    candidates = density > threshold
    catalog = HaloCatalog(threshold=threshold, mean_mass=mean_mass)
    if not candidates.any():
        return catalog
    # 6-connectivity: faces only (the conservative clustering rule).
    structure = ndimage.generate_binary_structure(3, 1)
    labels, n_features = ndimage.label(candidates, structure=structure)
    if n_features == 0:
        return catalog
    ids = np.arange(1, n_features + 1)
    counts = ndimage.sum_labels(np.ones_like(density), labels, ids)
    masses = ndimage.sum_labels(density, labels, ids)
    centers = ndimage.center_of_mass(density, labels, ids)
    halos = [
        Halo(position=tuple(float(c) for c in center), n_cells=int(count), mass=float(mass))
        for center, count, mass in zip(centers, counts, masses)
        if count >= min_cells
    ]
    halos.sort(key=lambda h: h.mass, reverse=True)
    catalog.halos = halos
    return catalog


def match_halo(reference: Halo, catalog: HaloCatalog, max_distance: float = np.inf) -> Halo | None:
    """Nearest halo (center-of-mass distance) in ``catalog`` to ``reference``."""
    best = None
    best_dist = max_distance
    ref = np.asarray(reference.position)
    for halo in catalog.halos:
        dist = float(np.linalg.norm(np.asarray(halo.position) - ref))
        if dist < best_dist:
            best_dist = dist
            best = halo
    return best


@dataclass(frozen=True)
class HaloComparison:
    """Table 3's biggest-halo distortion metrics."""

    rel_mass_diff: float
    cell_count_diff: int
    position_offset: float
    matched: bool


def compare_biggest_halo(
    original: np.ndarray,
    reconstructed: np.ndarray,
    *,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
    min_cells: int = DEFAULT_MIN_CELLS,
) -> HaloComparison:
    """Compare the original field's biggest halo against its match in the
    reconstruction (relative mass difference and cell-count difference)."""
    cat_orig = find_halos(
        original, threshold_factor=threshold_factor, min_cells=min_cells
    )
    cat_rec = find_halos(
        reconstructed, threshold_factor=threshold_factor, min_cells=min_cells
    )
    if cat_orig.n_halos == 0:
        raise ValueError("no halos in the original field; lower the threshold")
    big = cat_orig.biggest
    match = match_halo(big, cat_rec)
    if match is None:
        return HaloComparison(
            rel_mass_diff=1.0, cell_count_diff=big.n_cells, position_offset=float("inf"), matched=False
        )
    return HaloComparison(
        rel_mass_diff=abs(match.mass - big.mass) / big.mass,
        cell_count_diff=abs(match.n_cells - big.n_cells),
        position_offset=float(np.linalg.norm(np.asarray(match.position) - np.asarray(big.position))),
        matched=True,
    )
