"""Unit + integration tests for the TAC hybrid compressor."""

import numpy as np
import pytest

from repro.amr.reconstruct import max_level_errors
from repro.core.container import CompressedDataset
from repro.core.density import DEFAULT_T1, DEFAULT_T2, Strategy
from repro.core.tac import TACCompressor, TACConfig, default_unit_block
from tests.helpers import assert_error_bounded, two_level_dataset


@pytest.fixture(scope="module")
def tac() -> TACCompressor:
    return TACCompressor()


class TestConfig:
    def test_defaults_match_paper(self):
        assert DEFAULT_T1 == 0.50 and DEFAULT_T2 == 0.60

    def test_rejects_conflicting_init(self):
        with pytest.raises(TypeError):
            TACCompressor(TACConfig(), unit_block=8)

    def test_default_unit_block_scaling(self):
        assert default_unit_block(64) == 4
        assert default_unit_block(128) == 8
        assert default_unit_block(512) == 16  # clamped at 16
        assert default_unit_block(16) == 4    # clamped at 4

    def test_brick_size_default_and_validation(self):
        from repro.core.gsp import DEFAULT_BRICK_SIZE

        assert TACConfig().brick_size == DEFAULT_BRICK_SIZE
        # The retired single-stream spelling names its replacement.
        with pytest.raises(ValueError, match="at least the level's edge"):
            TACConfig(brick_size=None)
        with pytest.raises(ValueError, match="brick_size"):
            TACConfig(brick_size=0)
        with pytest.raises(ValueError, match="brick_size"):
            TACConfig(brick_size=-8)


class TestRoundTrip:
    def test_error_bound_per_level(self, tac, z10_small):
        comp = tac.compress(z10_small, 1e-3, mode="rel")
        recon = tac.decompress(comp)
        errs = max_level_errors(z10_small, recon)
        for err, meta in zip(errs, comp.meta["levels"]):
            assert err <= meta["eb_abs"] * 1.001 + 1e-9

    def test_strategies_follow_density_filter(self, tac, z10_small):
        comp = tac.compress(z10_small, 1e-3, mode="rel")
        strategies = [m["strategy"] for m in comp.meta["levels"]]
        assert strategies == ["opst", "gsp"]  # 23% -> OpST, 77% -> GSP

    def test_three_level_dataset(self, tac, t3_small):
        comp = tac.compress(t3_small, 1e-3, mode="rel")
        recon = tac.decompress(comp)
        errs = max_level_errors(t3_small, recon)
        ebs = [m["eb_abs"] for m in comp.meta["levels"]]
        for err, eb in zip(errs, ebs):
            assert err <= eb * 1.001 + 1e-9

    def test_masks_roundtrip_inside_blob(self, tac, z10_small):
        comp = tac.compress(z10_small, 1e-3, mode="rel")
        recon = tac.decompress(comp)  # no structure passed: masks from blob
        for a, b in zip(z10_small.levels, recon.levels):
            assert np.array_equal(a.mask, b.mask)

    def test_structure_fallback_when_masks_excluded(self, z10_small):
        tac = TACCompressor(TACConfig(store_masks=False))
        comp = tac.compress(z10_small, 1e-3, mode="rel")
        assert not any(k.startswith("mask/") for k in comp.parts)
        with pytest.raises(ValueError, match="structure"):
            tac.decompress(comp)
        recon = tac.decompress(comp, structure=z10_small)
        errs = max_level_errors(z10_small, recon)
        assert max(errs) <= comp.meta["levels"][0]["eb_abs"] * 1.01

    def test_abs_mode(self, tac, z10_small):
        comp = tac.compress(z10_small, 1e8, mode="abs")
        recon = tac.decompress(comp)
        assert max(max_level_errors(z10_small, recon)) <= 1e8 * 1.001

    def test_invalid_cells_zeroed(self, tac, z10_small):
        recon = tac.decompress(tac.compress(z10_small, 1e-3, mode="rel"))
        for lvl in recon.levels:
            assert np.all(lvl.data[~lvl.mask] == 0)

    def test_container_serialization_roundtrip(self, tac, z10_small):
        comp = tac.compress(z10_small, 1e-3, mode="rel")
        blob = comp.to_bytes()
        restored = CompressedDataset.from_bytes(blob)
        recon = tac.decompress(restored)
        errs = max_level_errors(z10_small, recon)
        assert max(errs) <= max(m["eb_abs"] for m in comp.meta["levels"]) * 1.001


class TestPerLevelBounds:
    def test_scales_apply(self, tac, z10_small):
        comp = tac.compress(z10_small, 1e-3, mode="rel", per_level_scale=[3, 1])
        ebs = [m["eb_abs"] for m in comp.meta["levels"]]
        assert ebs[0] == pytest.approx(3 * ebs[1])
        recon = tac.decompress(comp)
        errs = max_level_errors(z10_small, recon)
        for err, eb in zip(errs, ebs):
            assert err <= eb * 1.001 + 1e-9

    def test_wrong_length_rejected(self, tac, z10_small):
        with pytest.raises(ValueError, match="entries"):
            tac.compress(z10_small, 1e-3, per_level_scale=[1.0])

    def test_non_positive_rejected(self, tac, z10_small):
        with pytest.raises(ValueError, match="positive"):
            tac.compress(z10_small, 1e-3, per_level_scale=[1.0, 0.0])

    def test_looser_fine_bound_smaller_payload(self, tac, z10_small):
        even = tac.compress(z10_small, 1e-3, mode="rel")
        skewed = tac.compress(z10_small, 1e-3, mode="rel", per_level_scale=[4, 1])
        assert skewed.compressed_bytes() < even.compressed_bytes()


class TestForcedStrategies:
    @pytest.mark.parametrize(
        "strategy", [Strategy.NAST, Strategy.OPST, Strategy.AKDTREE, Strategy.GSP, Strategy.ZF]
    )
    def test_every_strategy_roundtrips(self, strategy, z10_small):
        tac = TACCompressor(TACConfig(force_strategy=strategy))
        comp = tac.compress(z10_small, 1e-3, mode="rel")
        recon = tac.decompress(comp)
        errs = max_level_errors(z10_small, recon)
        ebs = [m["eb_abs"] for m in comp.meta["levels"]]
        for err, eb in zip(errs, ebs):
            assert err <= eb * 1.001 + 1e-9
        assert all(m["strategy"] == strategy.value for m in comp.meta["levels"])


class TestAdaptiveBaseline:
    def test_delegates_on_dense_finest(self, z3_small):
        tac = TACCompressor(TACConfig(adaptive_baseline=True))
        comp = tac.compress(z3_small, 1e-3, mode="rel")  # finest 64% >= T2
        assert comp.meta.get("delegated") == "baseline_3d"
        assert comp.method == "tac"
        recon = tac.decompress(comp)
        errs = max_level_errors(z3_small, recon)
        assert max(errs) <= comp.meta["level_ebs"][0] * 1.001

    def test_no_delegation_on_sparse_finest(self, z10_small):
        tac = TACCompressor(TACConfig(adaptive_baseline=True))
        comp = tac.compress(z10_small, 1e-3, mode="rel")  # finest 23% < T2
        assert "delegated" not in comp.meta

    def test_delegation_rejects_per_level_scales(self, z3_small):
        tac = TACCompressor(TACConfig(adaptive_baseline=True))
        with pytest.raises(ValueError, match="per-level"):
            tac.compress(z3_small, 1e-3, per_level_scale=[2, 1])


class TestEdgeCases:
    def test_empty_level_handled(self):
        ds = two_level_dataset(n=8, fine_fraction=0.25)
        # Empty the fine level entirely (coarse takes over).
        from repro.amr.hierarchy import AMRDataset, AMRLevel

        fine = AMRLevel(
            data=np.zeros_like(ds.levels[0].data),
            mask=np.zeros_like(ds.levels[0].mask),
            level=0,
        )
        coarse = AMRLevel(
            data=ds.levels[1].data,
            mask=np.ones_like(ds.levels[1].mask),
            level=1,
        )
        empty_fine = AMRDataset(levels=[fine, coarse], name="empty_fine")
        tac = TACCompressor()
        comp = tac.compress(empty_fine, 1e-3, mode="rel")
        assert comp.meta["levels"][0]["strategy"] == "empty"
        recon = tac.decompress(comp)
        assert recon.levels[0].n_points() == 0
        assert_error_bounded(
            coarse.values(), recon.levels[1].values(), comp.meta["levels"][1]["eb_abs"]
        )

    def test_timings_recorded(self, z10_small):
        from repro.utils.timer import TimingRecord

        tac = TACCompressor()
        record = TimingRecord()
        tac.compress(z10_small, 1e-3, mode="rel", timings=record)
        assert record.get("preprocess") > 0
        assert record.get("compress") > 0

    def test_preprocess_only_returns_artifact(self, z10_small):
        tac = TACCompressor()
        result, seconds = tac.preprocess_only(z10_small.levels[0], Strategy.OPST)
        assert seconds >= 0
        assert result.n_blocks() > 0


class TestDecodeTableReuse:
    """A decode pass builds one Huffman decode table per distinct code."""

    def _constant_level_dataset(self):
        # Three levels of constant values: their streams quantize to
        # near-identical symbol sets, so many bricks of one level carry the
        # same code-length window and their pass must build its table once.
        # Masks are 2-block-aligned so NaST(2) blocks hold only valid
        # (constant) cells.
        from repro.amr.hierarchy import AMRDataset, AMRLevel
        from repro.amr.upsample import upsample

        rng_local = np.random.default_rng(5)
        refine = rng_local.random((4, 4, 4)) < 0.5
        coarse_mask = ~refine
        owned_mid = upsample(refine, 2)
        refine_mid = upsample(refine & (rng_local.random((4, 4, 4)) < 0.5), 2)
        mid_mask = owned_mid & ~refine_mid
        fine_mask = upsample(refine_mid, 2)

        def const_level(mask, value, level):
            data = np.where(mask, np.float32(value), np.float32(0))
            return AMRLevel(data=data, mask=mask, level=level)

        ds = AMRDataset(
            levels=[
                const_level(fine_mask, 7.5, 0),
                const_level(mid_mask, 7.5, 1),
                const_level(coarse_mask, 3.0, 2),
            ],
            name="const3",
            field="test_field",
        )
        ds.validate()
        return ds

    def test_bricks_with_one_code_share_their_pass_table(self):
        from repro.sz.huffman import decode_table_cache_info

        tac = TACCompressor(TACConfig(force_strategy=Strategy.GSP, brick_size=8))
        ds = self._constant_level_dataset()
        comp = tac.compress(ds, 1e-3, mode="rel")
        n_streams = sum(1 for name in comp.parts if not name.startswith("mask/"))
        assert n_streams >= 8, "need a level of several bricks to exercise reuse"

        def counted_decompress():
            before = decode_table_cache_info()
            recon = tac.decompress(comp)
            after = decode_table_cache_info()
            return recon, after.hits - before.hits, after.misses - before.misses

        recon, hits, misses = counted_decompress()
        # Every stream is counted once: a table built, or one reused from
        # earlier in its own pass.
        assert hits + misses == n_streams
        assert hits >= 1
        for orig, back in zip(ds.levels, recon.levels):
            assert_error_bounded(orig.values(), back.values(), comp.meta["levels"][orig.level]["eb_abs"])
        # Nothing is kept between passes: a second read builds as many.
        again, hits_again, misses_again = counted_decompress()
        assert (hits_again, misses_again) == (hits, misses)
        for a, b in zip(recon.levels, again.levels):
            assert np.array_equal(a.data, b.data)
