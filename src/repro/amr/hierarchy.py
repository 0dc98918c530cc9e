"""Tree-based AMR data structures.

An :class:`AMRDataset` is a stack of :class:`AMRLevel` objects ordered
**finest first** (index 0), matching Table 1 of the paper.  Each level holds
a dense cube for its whole domain extent plus a boolean mask of the cells
actually *stored* at that level.  Tree-based (quadtree/octree) AMR — the Nyx
configuration the paper targets — stores every point exactly once, at its
finest refinement, so the up-sampled masks of all levels must tile the
domain: that invariant is enforced by :meth:`AMRDataset.validate`.

A level's *density* is the fraction of its own grid cells that are stored,
which (because each grid spans the full domain) equals the fraction of the
domain volume resolved at that level — the quantity Table 1 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as _dataclass_field

import numpy as np

from repro.amr.upsample import upsample

#: Default refinement ratio between adjacent levels (Nyx uses 2).
DEFAULT_RATIO = 2


@dataclass
class AMRLevel:
    """One refinement level: a full-domain cube plus its storage mask.

    Attributes
    ----------
    data:
        ``(n, n, n)`` float array; meaningful only where ``mask`` is True
        (masked-out cells are conventionally zero but never read).
    mask:
        ``(n, n, n)`` bool; True where this level stores the point.
    level:
        Level index, 0 = finest.
    """

    data: np.ndarray
    mask: np.ndarray
    level: int

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data)
        self.mask = np.ascontiguousarray(np.asarray(self.mask, dtype=bool))
        if self.data.ndim != 3:
            raise ValueError(f"AMR levels are 3D, got ndim={self.data.ndim}")
        if self.data.shape != self.mask.shape:
            raise ValueError(
                f"data shape {self.data.shape} != mask shape {self.mask.shape}"
            )
        if self.level < 0:
            raise ValueError("level index must be non-negative")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def n(self) -> int:
        """Grid size per dimension."""
        return self.data.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def density(self) -> float:
        """Fraction of this level's cells stored here (Table 1's density)."""
        return self.n_points() / self.mask.size if self.mask.size else 0.0

    def n_points(self) -> int:
        """Number of values stored at this level."""
        return int(np.count_nonzero(self.mask))

    def values(self) -> np.ndarray:
        """The stored values in C scan order of the valid cells."""
        return self.data[self.mask]

    def masked_data(self) -> np.ndarray:
        """A level-sized copy of ``data`` with non-stored cells forced to
        zero (the up-sampled view's input).  Codecs do not need it: the TAC
        strategies read ``data`` as it is and zero what they keep."""
        return np.where(self.mask, self.data, self.data.dtype.type(0))


@dataclass
class AMRDataset:
    """A complete tree-based AMR snapshot of one field.

    Attributes
    ----------
    levels:
        Levels ordered finest (index 0) to coarsest.
    name:
        Dataset label, e.g. ``"Run1_Z10"``.
    field:
        Physical field name, e.g. ``"baryon_density"``.
    ratio:
        Refinement ratio between adjacent levels.
    box_size:
        Physical domain edge in Mpc (used by the power spectrum).
    """

    levels: list[AMRLevel]
    name: str = "amr"
    field: str = "field"
    ratio: int = DEFAULT_RATIO
    box_size: float = 64.0
    meta: dict = _dataclass_field(default_factory=dict)

    def __post_init__(self):
        if not self.levels:
            raise ValueError("an AMR dataset needs at least one level")
        for idx, lvl in enumerate(self.levels):
            if lvl.level != idx:
                raise ValueError(
                    f"levels must be ordered finest-first with level indices "
                    f"0..L-1; got level {lvl.level} at position {idx}"
                )
        for fine, coarse in zip(self.levels, self.levels[1:]):
            if fine.n != coarse.n * self.ratio:
                raise ValueError(
                    f"grid sizes must shrink by ratio {self.ratio}: "
                    f"{fine.n} vs {coarse.n}"
                )

    # -- basic geometry ---------------------------------------------------
    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> AMRLevel:
        return self.levels[0]

    def upsample_factor(self, level: int) -> int:
        """Up-sampling rate from ``level`` to the finest grid."""
        return self.ratio ** level

    # -- statistics ---------------------------------------------------------
    def densities(self) -> list[float]:
        """Per-level densities, finest first (compare with Table 1)."""
        return [lvl.density() for lvl in self.levels]

    def finest_density(self) -> float:
        return self.finest.density()

    def total_points(self) -> int:
        """Stored values across all levels (the dataset's true size)."""
        return sum(lvl.n_points() for lvl in self.levels)

    def original_bytes(self) -> int:
        """Uncompressed payload bytes (stored values only)."""
        itemsize = self.dtype().itemsize
        return self.total_points() * itemsize

    def dtype(self) -> np.dtype:
        return self.finest.dtype

    # -- invariants -----------------------------------------------------------
    def coverage(self) -> np.ndarray:
        """How many levels claim each finest-grid cell (should be 1)."""
        n = self.finest.n
        cover = np.zeros((n, n, n), dtype=np.int16)
        for lvl in self.levels:
            cover += upsample(lvl.mask.astype(np.int16), self.upsample_factor(lvl.level))
        return cover

    def validate(self) -> None:
        """Raise if the levels do not tile the domain exactly once."""
        cover = self.coverage()
        if not (cover == 1).all():
            over = int(np.count_nonzero(cover > 1))
            under = int(np.count_nonzero(cover == 0))
            raise ValueError(
                f"tree-based AMR masks must tile the domain exactly once: "
                f"{over} cells multiply covered, {under} cells uncovered"
            )

    # -- uniform view -----------------------------------------------------------
    def to_uniform(self) -> np.ndarray:
        """Merge all levels into the finest-resolution grid (Fig. 2 right).

        Coarse values are up-sampled piecewise-constant into the cells their
        level owns.  This is the paper's post-analysis view and the input to
        the 3D baseline.
        """
        n = self.finest.n
        out = np.zeros((n, n, n), dtype=self.dtype())
        for lvl in self.levels:
            factor = self.upsample_factor(lvl.level)
            mask_up = upsample(lvl.mask, factor)
            data_up = upsample(lvl.masked_data(), factor)
            np.copyto(out, data_up, where=mask_up)
        return out

    def summary(self) -> str:
        """One-line Table 1-style description."""
        grids = ", ".join(str(lvl.n) for lvl in self.levels)
        dens = ", ".join(f"{d:.4%}" for d in self.densities())
        return f"{self.name}: {self.n_levels} level(s); grids [{grids}]; densities [{dens}]"
