"""Shared infrastructure for the per-figure/table experiment modules.

Every experiment module exposes ``run(scale=...) -> ExperimentResult`` with
plain-dict rows, so the same code feeds the pytest-benchmark harness (which
writes ``benchmarks/results/<experiment>.txt``), ``repro experiments`` and
interactive use.  Dataset synthesis is cached
per (name, scale, field) because several experiments share inputs.

The global ``REPRO_SCALE`` environment variable overrides the default grid
divisor (4 → Run1 at 128³/64³); raise it for quicker smoke runs or lower it
toward the paper's full sizes if you have the patience.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.engine.registry import get_codec, get_spec
from repro.sim.datasets import make_dataset

#: Default grid divisor for experiments (paper grids / 4).
DEFAULT_SCALE = int(os.environ.get("REPRO_SCALE", "4"))


def experiment_scale(scale: int | None = None) -> int:
    """Resolve the effective scale (argument beats environment beats default)."""
    return int(scale) if scale is not None else DEFAULT_SCALE


@lru_cache(maxsize=32)
def dataset(name: str, scale: int, field_name: str = "baryon_density") -> AMRDataset:
    """Cached synthetic dataset (experiments share inputs heavily)."""
    return make_dataset(name, scale=scale, field=field_name)


def single_level_dataset(level: AMRLevel, name: str, template: AMRDataset) -> AMRDataset:
    """Wrap one AMR level as a standalone single-level dataset.

    Used by the per-level strategy studies (Figs. 7, 11–13): the level keeps
    its grid and mask but is treated as a complete dataset, so level-wise
    metrics (bit-rate, PSNR) are well-defined.
    """
    clone = AMRLevel(data=level.data, mask=level.mask, level=0)
    return AMRDataset(
        levels=[clone],
        name=name,
        field=template.field,
        ratio=template.ratio,
        box_size=template.box_size,
    )


def make_methods(adaptive_baseline: bool = False) -> dict[str, object]:
    """The paper's four comparison methods, fresh from the codec registry.

    Keys are the archive method names (``tac``, ``baseline_1d``, ``zmesh``,
    ``baseline_3d``) so result tables keep their historical column labels.
    """
    names = ("tac-hybrid" if adaptive_baseline else "tac", "1d", "zmesh", "3d")
    return {get_spec(name).method_name: get_codec(name) for name in names}


@dataclass
class ExperimentResult:
    """Uniform result record for one paper table/figure."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""
    paper_claim: str = ""

    def table(self, float_fmt: str = "{:.4g}") -> str:
        """Render rows as a fixed-width text table."""
        if not self.rows:
            return "(no rows)"
        columns = list(self.rows[0].keys())
        rendered = [
            [_fmt(row.get(col), float_fmt) for col in columns] for row in self.rows
        ]
        widths = [
            max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
        ]
        lines = [
            "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)),
            "  ".join("-" * widths[i] for i in range(len(columns))),
        ]
        lines += ["  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered]
        return "\n".join(lines)

    def report(self) -> str:
        """Full printable report (header, claim, table, notes)."""
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.paper_claim:
            parts.append(f"paper: {self.paper_claim}")
        parts.append(self.table())
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


def match_ratio_error_bound(
    compressor,
    ds: AMRDataset,
    target_ratio: float,
    *,
    per_level_scale=None,
    lo: float = 1e-6,
    hi: float = 1e-1,
    iterations: int = 10,
    include_masks: bool = False,
) -> float:
    """Bisect the (rel) error bound so the compressor hits ``target_ratio``.

    Compression ratio is monotone in the bound, so ~10 bisection steps pin
    it within a few percent — how the paper equalizes ratios before
    comparing post-analysis quality (Fig. 19, Table 3).
    """
    if target_ratio <= 0:
        raise ValueError("target_ratio must be positive")

    def ratio_at(eb: float) -> float:
        comp = compressor.compress(ds, eb, mode="rel", per_level_scale=per_level_scale)
        return comp.ratio(include_masks=include_masks)

    lo_eb, hi_eb = lo, hi
    for _ in range(iterations):
        mid = float(np.sqrt(lo_eb * hi_eb))  # bisect in log space
        if ratio_at(mid) < target_ratio:
            lo_eb = mid
        else:
            hi_eb = mid
    return float(np.sqrt(lo_eb * hi_eb))


def _fmt(value, float_fmt: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (np.inf, -np.inf):
            return "inf" if value > 0 else "-inf"
        return float_fmt.format(value)
    return str(value)
