"""Unit tests for the analysis substrate: metrics, P(k), halo finder, RD."""

import numpy as np
import pytest

from repro.analysis.halo_finder import (
    compare_biggest_halo,
    find_halos,
    match_halo,
)
from repro.analysis.metrics import mse, psnr, throughput_mb_s, value_range
from repro.analysis.power_spectrum import (
    DEFAULT_TOLERANCE,
    density_contrast,
    max_error_below_k,
    power_spectrum,
    relative_error,
)
from repro.analysis.rate_distortion import (
    RDPoint,
    crossover_bitrate,
    psnr_at_bitrate,
    rd_sweep,
)
from repro.core.container import CompressedDataset
from repro.core.tac import TACCompressor


class TestMetrics:
    def test_psnr_known_value(self):
        original = np.array([0.0, 1.0])  # range 1
        recon = original + 0.01
        # PSNR = -10 log10(1e-4) = 40 dB.
        assert psnr(original, recon) == pytest.approx(40.0, abs=1e-6)

    def test_psnr_exact_is_inf(self):
        data = np.arange(10.0)
        assert psnr(data, data) == np.inf

    def test_psnr_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))

    def test_mse_and_psnr_against_the_range(self):
        a = np.array([0.0, 2.0])
        b = np.array([0.0, 1.0])
        assert mse(a, b) == 0.5
        assert psnr(a, b) == pytest.approx(20 * np.log10(2.0) - 10 * np.log10(0.5))

    def test_value_range(self):
        assert value_range(np.array([-1.0, 3.0])) == 4.0
        assert value_range(np.zeros(0)) == 0.0

    def test_ratio_and_bitrate_product(self):
        # CR * bit-rate == 32 for float32 data.
        comp = CompressedDataset(
            method="x", dataset_name="d", parts={"L0/g0": bytes(100)},
            original_bytes=4000, n_values=1000,
        )
        assert comp.ratio() == 40.0
        assert comp.ratio() * comp.bit_rate() == pytest.approx(32.0)

    def test_throughput(self):
        assert throughput_mb_s(10_000_000, 2.0) == pytest.approx(5.0)
        assert throughput_mb_s(1, 0.0) == np.inf


class TestPowerSpectrum:
    def test_plane_wave_peaks_at_its_wavenumber(self):
        n, box = 32, 64.0
        x = np.arange(n) * (box / n)
        mode = 4  # k = 2*pi*4/box
        rho = 10.0 + np.cos(2 * np.pi * mode * x / box)[:, None, None] * np.ones((n, n, n))
        spec = power_spectrum(rho, box_size=box)
        k_expect = 2 * np.pi * mode / box
        k_peak = spec.k[np.argmax(spec.p)]
        assert k_peak == pytest.approx(k_expect, rel=0.15)

    def test_identical_fields_zero_error(self, z10_small):
        uniform = z10_small.to_uniform()
        spec = power_spectrum(uniform, box_size=64.0)
        assert max_error_below_k(spec, spec) == 0.0 < DEFAULT_TOLERANCE

    def test_perturbation_raises_error(self, z10_small, rng):
        uniform = z10_small.to_uniform().astype(np.float64)
        noisy = uniform * (1 + 0.05 * rng.standard_normal(uniform.shape))
        a = power_spectrum(uniform, box_size=64.0)
        b = power_spectrum(noisy, box_size=64.0)
        assert max_error_below_k(a, b, max_k=np.inf) > 0.0

    def test_contrast_zero_mean(self, rng):
        rho = rng.lognormal(0, 1, (8, 8, 8))
        delta = density_contrast(rho)
        assert abs(float(delta.mean())) < 1e-12

    def test_contrast_rejects_zero_mean_field(self):
        with pytest.raises(ValueError):
            density_contrast(np.zeros((4, 4, 4)))

    def test_rejects_non_cube(self):
        with pytest.raises(ValueError, match="cube"):
            power_spectrum(np.zeros((4, 4, 8)))

    def test_binning_mismatch_rejected(self):
        a = power_spectrum(np.ones((8, 8, 8)) + np.arange(8)[:, None, None], box_size=64.0)
        b = power_spectrum(np.ones((16, 16, 16)) + np.arange(16)[:, None, None], box_size=64.0)
        with pytest.raises(ValueError, match="binning"):
            relative_error(a, b)


class TestHaloFinder:
    def make_field_with_blobs(self, n=32):
        field = np.ones((n, n, n))
        field[4:8, 4:8, 4:8] = 1000.0     # big halo: 64 cells
        field[20:22, 20:22, 20:22] = 800.0  # small halo: 8 cells
        field[30, 30, 30] = 5000.0        # below min_cells: not a halo
        return field

    def test_finds_expected_halos(self):
        field = self.make_field_with_blobs()
        catalog = find_halos(field, threshold_factor=50, min_cells=8)
        assert catalog.n_halos == 2
        assert catalog.biggest.n_cells == 64

    def test_threshold_factor_applies(self):
        field = self.make_field_with_blobs()
        catalog = find_halos(field, threshold_factor=1e9, min_cells=1)
        assert catalog.n_halos == 0

    def test_min_cells_filters_singletons(self):
        field = self.make_field_with_blobs()
        with_singles = find_halos(field, threshold_factor=50, min_cells=1)
        without = find_halos(field, threshold_factor=50, min_cells=8)
        assert with_singles.n_halos == without.n_halos + 1

    def test_positions_at_centers_of_mass(self):
        field = self.make_field_with_blobs()
        catalog = find_halos(field, threshold_factor=50, min_cells=8)
        big = catalog.biggest
        assert big.position == pytest.approx((5.5, 5.5, 5.5), abs=0.01)

    def test_match_halo_nearest(self):
        field = self.make_field_with_blobs()
        catalog = find_halos(field, threshold_factor=50, min_cells=8)
        match = match_halo(catalog.biggest, catalog)
        assert match is catalog.biggest

    def test_compare_identical_fields(self):
        field = self.make_field_with_blobs()
        cmp_res = compare_biggest_halo(field, field, threshold_factor=50, min_cells=8)
        assert cmp_res.rel_mass_diff == 0.0
        assert cmp_res.cell_count_diff == 0
        assert cmp_res.matched

    def test_compare_perturbed_field(self):
        field = self.make_field_with_blobs()
        other = field.copy()
        other[4:8, 4:8, 4:8] *= 1.01  # 1% mass change in the big halo
        cmp_res = compare_biggest_halo(field, other, threshold_factor=50, min_cells=8)
        assert 0 < cmp_res.rel_mass_diff < 0.02

    def test_no_halos_raises(self):
        with pytest.raises(ValueError, match="no halos"):
            compare_biggest_halo(np.ones((8, 8, 8)), np.ones((8, 8, 8)))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            find_halos(np.ones((4, 4, 4)), threshold_factor=0)
        with pytest.raises(ValueError):
            find_halos(np.ones((4, 4, 4)), min_cells=0)
        with pytest.raises(ValueError):
            find_halos(np.ones((4, 4)))


class TestRateDistortion:
    def test_sweep_monotone(self, z10_small):
        points = rd_sweep(TACCompressor(), z10_small, (1e-2, 1e-3, 1e-4))
        rates = [p.bit_rate for p in points]
        psnrs = [p.psnr for p in points]
        assert rates == sorted(rates)  # tighter bound -> more bits
        assert psnrs == sorted(psnrs)  # tighter bound -> higher quality

    def test_point_fields(self, z10_small):
        points = rd_sweep(TACCompressor(), z10_small, (1e-3,))
        p = points[0]
        assert p.method == "tac"
        assert p.dataset == z10_small.name
        assert p.ratio * p.bit_rate == pytest.approx(32.0, rel=1e-6)
        assert p.compress_seconds > 0

    def test_psnr_interpolation(self):
        curve = [
            RDPoint("m", "d", 1e-2, 1.0, 32.0, 50.0, 0, 0),
            RDPoint("m", "d", 1e-3, 3.0, 32.0 / 3, 70.0, 0, 0),
        ]
        assert psnr_at_bitrate(curve, 2.0) == pytest.approx(60.0)
        assert psnr_at_bitrate(curve, 0.5) == 50.0  # clamped to endpoint

    def test_psnr_interpolation_empty_curve(self):
        with pytest.raises(ValueError):
            psnr_at_bitrate([], 1.0)

    def test_crossover_detection(self):
        a = [
            RDPoint("a", "d", 0, 1.0, 0, 40.0, 0, 0),
            RDPoint("a", "d", 0, 3.0, 0, 80.0, 0, 0),
        ]
        b = [
            RDPoint("b", "d", 0, 1.0, 0, 50.0, 0, 0),
            RDPoint("b", "d", 0, 3.0, 0, 60.0, 0, 0),
        ]
        rate = crossover_bitrate(a, b)
        assert rate is not None and 1.0 < rate < 3.0
        # b never overtakes a after the crossover... reversed query:
        assert crossover_bitrate(b, a) == pytest.approx(1.0)

    def test_crossover_none_when_disjoint(self):
        a = [RDPoint("a", "d", 0, 1.0, 0, 40.0, 0, 0)]
        b = [RDPoint("b", "d", 0, 5.0, 0, 50.0, 0, 0)]
        assert crossover_bitrate(a, b) is None
