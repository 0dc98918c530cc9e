"""Unit tests for the synthetic Nyx substrate (fields, refinement, registry)."""

import numpy as np
import pytest

from repro.sim.datasets import TABLE1, make_dataset, resolve_scale
from repro.sim.gaussian_field import FieldGenerator
from repro.sim.nyx import NYX_FIELDS, generate_field, lognormal_density
from repro.sim.refinement import build_amr, select_top_blocks
from tests.helpers import smooth_cube


class TestFieldGenerator:
    def test_deterministic_by_seed(self):
        a = FieldGenerator(16, seed=7).delta()
        b = FieldGenerator(16, seed=7).delta()
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = FieldGenerator(16, seed=1).delta()
        b = FieldGenerator(16, seed=2).delta()
        assert not np.allclose(a, b)

    def test_delta_normalized(self):
        delta = FieldGenerator(32, seed=3).delta()
        assert abs(float(delta.mean())) < 1e-10
        assert float(delta.std()) == pytest.approx(1.0, rel=1e-6)

    def test_steeper_spectrum_is_smoother(self):
        # Mean squared first difference measures roughness.
        def roughness(ns):
            f = FieldGenerator(32, seed=5, spectral_index=ns).delta()
            return float(np.mean(np.diff(f, axis=0) ** 2))

        assert roughness(-3.5) < roughness(-1.0)

    def test_correlated_delta_correlation(self):
        gen = FieldGenerator(32, seed=11)
        base = gen.delta()
        corr = gen.correlated_delta(0.9)
        rho = float(np.corrcoef(base.ravel(), corr.ravel())[0, 1])
        assert rho == pytest.approx(0.9, abs=0.05)

    def test_velocities_consistent_and_normalized(self):
        gen = FieldGenerator(16, seed=2)
        vx, vy, vz = gen.velocities(amplitude=3.0)
        for comp in (vx, vy, vz):
            assert float(np.sqrt(np.mean(comp**2))) == pytest.approx(3.0, rel=1e-6)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            FieldGenerator(16, box_size=-1)
        with pytest.raises(ValueError):
            FieldGenerator(16, cutoff_fraction=0)
        with pytest.raises(ValueError):
            FieldGenerator(16).correlated_delta(2.0)


class TestNyxFields:
    def test_all_fields_generate(self):
        snap = {name: generate_field(name, 8, seed=1) for name in NYX_FIELDS}
        assert set(snap) == set(NYX_FIELDS)
        for name, arr in snap.items():
            assert arr.shape == (8, 8, 8)
            assert arr.dtype == np.float32
            assert np.isfinite(arr).all(), name

    def test_baryon_density_positive_with_nyx_scale(self):
        rho = generate_field("baryon_density", 16, seed=3)
        assert (rho > 0).all()
        assert 1e7 < float(rho.mean()) < 1e11

    def test_lognormal_mean_preserved(self):
        rng = np.random.default_rng(0)
        delta = rng.standard_normal(200_000)
        delta -= delta.mean()
        delta /= delta.std()
        rho = lognormal_density(delta, 1.0, 1e9)
        assert float(rho.mean()) == pytest.approx(1e9, rel=0.05)

    def test_lognormal_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            lognormal_density(np.zeros(4), -1.0, 1.0)

    def test_temperature_positively_correlates_with_density(self):
        rho = generate_field("baryon_density", 16, seed=4).ravel()
        temp = generate_field("temperature", 16, seed=4).ravel()
        assert np.corrcoef(np.log(rho), np.log(temp))[0, 1] > 0.5

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            generate_field("pressure", 8)


class TestRefinement:
    def test_masks_tile_exactly(self):
        truth = smooth_cube(16)
        ds = build_amr(truth, [0.3, 0.7])
        ds.validate()

    def test_densities_near_targets(self):
        truth = smooth_cube(32)
        ds = build_amr(truth, [0.25, 0.75])
        assert ds.densities()[0] == pytest.approx(0.25, abs=0.05)

    def test_three_levels(self):
        truth = smooth_cube(16)
        ds = build_amr(truth, [0.1, 0.3, 0.6])
        ds.validate()
        assert [lvl.n for lvl in ds.levels] == [16, 8, 4]

    def test_refines_where_values_are_high(self):
        truth = smooth_cube(16).astype(np.float64)
        ds = build_amr(truth, [0.2, 0.8])
        fine = ds.levels[0]
        refined_mean = truth[fine.mask].mean() if fine.n_points() else 0
        assert refined_mean > truth.mean()

    def test_coarse_values_are_block_means(self):
        truth = smooth_cube(8).astype(np.float32)
        ds = build_amr(truth, [0.25, 0.75])
        coarse = ds.levels[1]
        coords = np.argwhere(coarse.mask)
        ci, cj, ck = coords[0]
        block = truth[2 * ci : 2 * ci + 2, 2 * cj : 2 * cj + 2, 2 * ck : 2 * ck + 2]
        assert coarse.data[ci, cj, ck] == pytest.approx(block.mean(), rel=1e-5)

    def test_rejects_non_cube(self):
        with pytest.raises(ValueError, match="cube"):
            build_amr(np.zeros((4, 4, 8)), [0.5, 0.5])

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            build_amr(np.zeros((8, 8, 8)), [])
        with pytest.raises(ValueError):
            build_amr(np.zeros((8, 8, 8)), [-1.0, 2.0])

    def test_rejects_indivisible_grid(self):
        with pytest.raises(ValueError, match="divisible"):
            build_amr(np.zeros((6, 6, 6)), [0.2, 0.3, 0.5])

    def test_rejects_non_pow2_block(self):
        with pytest.raises(ValueError, match="power of two"):
            build_amr(np.zeros((8, 8, 8)), [0.5, 0.5], refine_block=3)

    def test_select_top_blocks_respects_candidates(self):
        score = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        candidate = np.zeros((2, 2, 2), dtype=bool)
        candidate[0, 0, 0] = True
        chosen = select_top_blocks(score, candidate, 100, 1)
        assert chosen.sum() == 1 and chosen[0, 0, 0]


class TestRegistry:
    @pytest.mark.parametrize("name", list(TABLE1))
    def test_every_dataset_matches_table1(self, name):
        spec = TABLE1[name]
        ds = make_dataset(name, scale=8)
        ds.validate()
        assert ds.n_levels == spec.n_levels
        got = ds.densities()
        for target, actual in zip(spec.densities, got):
            # Block-granular refinement rounds tiny fractions; accept the
            # larger of 50% relative or 0.01 absolute slack.
            assert abs(actual - target) <= max(0.5 * target, 0.01), (
                f"{name}: target {target}, got {actual}"
            )

    def test_scale_clamped_for_small_coarse_grids(self):
        spec = TABLE1["Run2_T4"]
        assert resolve_scale(spec, 64) < 64

    def test_rejects_non_pow2_scale(self):
        with pytest.raises(ValueError, match="power of two"):
            make_dataset("Run1_Z10", scale=3)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_dataset("Run9_Z0")

    def test_seed_override_changes_data(self):
        a = make_dataset("Run1_Z10", scale=8)
        b = make_dataset("Run1_Z10", scale=8, seed=999)
        assert not np.array_equal(a.finest.data, b.finest.data)

    def test_deterministic(self):
        a = make_dataset("Run2_T2", scale=8)
        b = make_dataset("Run2_T2", scale=8)
        assert np.array_equal(a.finest.data, b.finest.data)
        assert np.array_equal(a.finest.mask, b.finest.mask)

    def test_meta_records_provenance(self):
        ds = make_dataset("Run1_Z5", scale=8)
        assert ds.meta["scale"] == 8
        assert ds.meta["paper_grids"][0] == 512
