"""Shared infrastructure for the per-figure/table experiment modules.

Every experiment module exposes ``run(scale=...) -> ExperimentResult`` with
plain-dict rows and ``check(result) -> (violations, deviations)``, the one
statement of its claims (:class:`Claims`).  An :class:`Experiment` pairs
the two, so the same code feeds the pytest-benchmark harness (which writes
``benchmarks/results/<experiment>.txt``), ``repro experiments``, tier-1 and
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
from typing import Callable, NamedTuple

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.baselines.uniform3d import Uniform3DCompressor
from repro.core.adaptive_eb import suggest_scales
from repro.core.tac import TACCompressor, TACConfig
from repro.engine.registry import get_codec, get_spec
from repro.sim.datasets import make_dataset

#: Default grid divisor for experiments (paper grids / 4).
DEFAULT_SCALE = int(os.environ.get("REPRO_SCALE", "4"))


#: A check's verdict: the claims violated, and each named deviation mapped
#: to its measured numbers.
Verdict = tuple[list[str], dict[str, str]]


def experiment_scale(scale: int | None = None) -> int:
    """Resolve the effective scale (argument beats environment beats default)."""
    return int(scale) if scale is not None else DEFAULT_SCALE


@lru_cache(maxsize=32)
def dataset(name: str, scale: int) -> AMRDataset:
    """Cached synthetic dataset (experiments share inputs heavily)."""
    return make_dataset(name, scale=scale)


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


def make_methods() -> dict[str, object]:
    """The paper's four comparison methods, fresh from the codec registry.

    Keys are the archive method names (``tac``, ``baseline_1d``, ``zmesh``,
    ``baseline_3d``) so result tables keep their historical column labels.
    """
    return {get_spec(name).method_name: get_codec(name) for name in ("tac", "1d", "zmesh", "3d")}


@dataclass
class ExperimentResult:
    """Uniform result record for one paper table/figure."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""
    paper_claim: str = ""
    #: Set by :class:`Experiment` once its check has judged the rows.
    verdict: Verdict | None = None

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
        """Full printable report (header, claim, table, notes, verdict)."""
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.paper_claim:
            parts.append(f"paper: {self.paper_claim}")
        parts.append(self.table())
        if self.notes:
            parts.append(f"notes: {self.notes}")
        if self.verdict is not None:
            violations, deviations = self.verdict
            parts.append(
                f"check: {'FAIL' if violations else 'ok'}"
                + "".join(f"; violation: {v}" for v in violations)
                + "".join(f"; deviation {name}: {what}" for name, what in deviations.items())
            )
        return "\n".join(parts)


@dataclass(frozen=True)
class Experiment:
    """A registry entry: the run that measures a claim and the check that judges it."""

    run: Callable[..., ExperimentResult]
    check: Callable[[ExperimentResult], Verdict]

    def __call__(self, **kwargs) -> ExperimentResult:
        """Run, then record the check's verdict on the result (its report's last line)."""
        result = self.run(**kwargs)
        result.verdict = self.check(result)
        return result


class Claims(NamedTuple):
    """A check's verdict, built one claim at a time: ``Claims([], {})``.

    ``require`` enforces a claim.  ``deviation`` records a paper claim this
    reproduction does not meet, mapped to its measured numbers; once the
    claim holds it is a violation, so the record cannot outlive its reason.
    """

    violations: list[str]
    deviations: dict[str, str]

    def require(self, holds: bool, message: str) -> None:
        if not holds:  # NaN comparisons are False, so they fail too
            self.violations.append(message)

    def deviation(self, name: str, deviates: bool, measured: str) -> None:
        if deviates:
            self.deviations[name] = measured
        else:
            self.violations.append(
                f"deviation {name} no longer deviates ({measured}): "
                "enforce the paper's claim and drop the deviation"
            )


def rows_by(result: ExperimentResult, key: str) -> dict[str, list[dict]]:
    """``result.rows`` grouped by ``row[key]``, in first-seen order."""
    groups: dict[str, list[dict]] = {}
    for row in result.rows:
        groups.setdefault(row[key], []).append(row)
    return groups


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


#: Matched-CR studies (Fig. 19, Table 3): the rows' compression ratios
#: spread by at most this factor.
MATCHED_CR = 1.05


def matched_cr_study(ds: AMRDataset, reference_eb: float, tuned: str, analysis: str):
    """Yield ``(method, ratio, uniform reconstruction)`` for the 3D baseline
    at ``reference_eb``, then for TAC with a uniform bound (``tac_1to1``) and
    with §4.5's per-level bounds for ``analysis`` (``tuned``), each bisected
    to the baseline's compression ratio."""
    baseline = Uniform3DCompressor()
    comp = baseline.compress(ds, reference_eb, mode="rel")
    target = comp.ratio(include_masks=False)
    yield "baseline_3d", target, baseline.decompress_uniform(comp)
    tac = TACCompressor(TACConfig())
    for label, scales in (("tac_1to1", None), (tuned, suggest_scales(ds.n_levels, analysis))):
        eb = match_ratio_error_bound(tac, ds, target, per_level_scale=scales)
        blob = tac.compress(ds, eb, mode="rel", per_level_scale=scales)
        yield label, blob.ratio(include_masks=False), tac.decompress(blob).to_uniform()


def require_matched_cr(claims: Claims, result: ExperimentResult, tuned: str) -> None:
    """Enforce a matched-CR study's rows: 3D, TAC(1:1), ``tuned``, at :data:`MATCHED_CR`."""
    methods = tuple(r["method"] for r in result.rows)
    claims.require(methods == ("baseline_3d", "tac_1to1", tuned), f"rows {methods}")
    spread = max(r["ratio"] for r in result.rows) / min(r["ratio"] for r in result.rows)
    claims.require(spread <= MATCHED_CR, f"CR spread x{spread:.3f}, need <= x{MATCHED_CR}")


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
