"""Registry of the paper's seven evaluation datasets (Table 1), synthesized.

Each entry records the grid pyramid and per-level densities from Table 1
plus a clustering strength σ that grows with cosmic time (Run 1 evolves from
redshift z=10 to z=2, which is why its finest-level density climbs from 23%
to ~64%).  ``make_dataset`` generates the synthetic Nyx field, refines it to
the registered densities, and returns a validated tree-based
:class:`~repro.amr.AMRDataset`.

Grids are scaled down by ``scale`` (a power of two) so the full evaluation
runs on one node: ``scale=4`` turns Run1's 512³/256³ into 128³/64³ with the
same level structure and densities.  Densities, not absolute grid sizes,
drive every effect the paper measures (empty-region overhead, strategy
selection, baseline crossover), so the shapes of all results survive the
rescale; this is the documented hardware substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amr.hierarchy import AMRDataset
from repro.sim.nyx import NYX_FIELDS, generate_field
from repro.sim.refinement import build_amr

#: Minimum coarsest-grid size we allow after scaling.
MIN_COARSE_GRID = 8


@dataclass(frozen=True)
class DatasetSpec:
    """Table 1 row: grid pyramid, densities, and generator knobs."""

    name: str
    finest_n: int
    densities: tuple[float, ...]  # finest first, sums to ~1
    sigma: float                  # log-normal clustering strength
    seed: int
    description: str = ""

    @property
    def n_levels(self) -> int:
        return len(self.densities)

    def grids(self, scale: int = 1) -> tuple[int, ...]:
        """Grid edge per level (finest first) at the given scale divisor."""
        finest = self.finest_n // scale
        return tuple(finest // (2**lvl) for lvl in range(self.n_levels))


#: The paper's seven datasets.  Density tuples are Table 1 verbatim
#: (fractions; Run2_T4's finest "3E-5" is the fraction 3e-5 = 0.003%).
TABLE1: dict[str, DatasetSpec] = {
    "Run1_Z10": DatasetSpec("Run1_Z10", 512, (0.23, 0.77), 1.0, 110, "run1 early (z=10)"),
    "Run1_Z5": DatasetSpec("Run1_Z5", 512, (0.58, 0.42), 1.4, 105, "run1 mid (z=5)"),
    "Run1_Z3": DatasetSpec("Run1_Z3", 512, (0.64, 0.36), 1.6, 103, "run1 late (z=3)"),
    "Run1_Z2": DatasetSpec("Run1_Z2", 512, (0.63, 0.37), 1.7, 102, "run1 latest (z=2)"),
    "Run2_T2": DatasetSpec("Run2_T2", 256, (0.002, 0.998), 1.2, 202, "run2 two levels"),
    "Run2_T3": DatasetSpec("Run2_T3", 512, (0.0002, 0.0056, 0.9942), 1.4, 203, "run2 three levels"),
    "Run2_T4": DatasetSpec(
        "Run2_T4", 1024, (3e-5, 0.0002, 0.022, 0.9777), 1.6, 204, "run2 four levels"
    ),
}

#: Names in Table 1 order.
DATASET_NAMES = tuple(TABLE1)


def resolve_scale(spec: DatasetSpec, scale: int) -> int:
    """Clamp ``scale`` so the coarsest grid stays >= MIN_COARSE_GRID."""
    if scale < 1 or (scale & (scale - 1)):
        raise ValueError(f"scale must be a power of two >= 1, got {scale}")
    coarse = spec.finest_n // (2 ** (spec.n_levels - 1))
    while scale > 1 and coarse // scale < MIN_COARSE_GRID:
        scale //= 2
    return scale


def make_dataset(
    name: str,
    *,
    scale: int = 4,
    field: str = "baryon_density",
    seed: int | None = None,
    refine_block: int = 4,
    dtype=np.float32,
) -> AMRDataset:
    """Synthesize one of the Table 1 datasets at a reduced scale.

    Parameters
    ----------
    name:
        Registry key, e.g. ``"Run1_Z10"``.
    scale:
        Power-of-two divisor of the paper's grid sizes (auto-clamped so the
        coarsest level keeps at least ``MIN_COARSE_GRID`` cells per edge).
    field:
        Which Nyx field to generate (see :data:`repro.sim.nyx.NYX_FIELDS`).
    seed:
        Override the registry seed (for ensemble studies).
    refine_block:
        Refinement granularity in cells (see :func:`repro.sim.refinement.build_amr`).
    """
    if name not in TABLE1:
        raise KeyError(f"unknown dataset {name!r}; available: {list(TABLE1)}")
    if field not in NYX_FIELDS:
        raise ValueError(f"unknown field {field!r}; choose from {NYX_FIELDS}")
    spec = TABLE1[name]
    scale = resolve_scale(spec, scale)
    n = spec.finest_n // scale
    use_seed = spec.seed if seed is None else int(seed)
    truth = generate_field(field, n, seed=use_seed, sigma=spec.sigma, dtype=dtype)
    # Refinement always follows the snapshot's baryon density (the physical
    # criterion), so every field of a snapshot shares one AMR structure.
    if field == "baryon_density":
        criterion = truth
    else:
        criterion = generate_field(
            "baryon_density", n, seed=use_seed, sigma=spec.sigma, dtype=dtype
        )
    return build_amr(
        truth,
        list(spec.densities),
        criterion=criterion,
        refine_block=refine_block,
        name=spec.name,
        field=field,
        meta={
            "scale": scale,
            "seed": use_seed,
            "sigma": spec.sigma,
            "paper_grids": spec.grids(1),
            "paper_densities": spec.densities,
        },
    )
