"""Property-based round-trip harness (seeded fuzzing, stdlib-only).

Two generators drive > 200 randomized cases:

* **SZ substrate fuzz** — random dtype (float32/float64), shape (1D–4D),
  data texture, error mode (``abs``/``rel``/``pw_rel``), and bound; every
  case must honour ``|x − x̂| ≤ eb`` with the codec's documented ULP fine
  print, and round-trip dtype/shape exactly.
* **Registry codec fuzz** — random tree-based AMR datasets (1–3 levels,
  random densities, both dtypes) through every codec in the registry,
  asserting the per-value bound, exact mask recovery, and exact metadata
  round-trip through the container serialization.

Each case derives everything from its integer seed, so a failure report
like ``sz-case-looks wrong at seed 17`` is fully reproducible in
isolation with ``pytest -k 'case17'``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.amr.upsample import upsample
from repro.core.blocks import AXIS_PERMS, BlockExtraction, gather_blocks, invert_perm
from repro.core.container import CompressedDataset, resolve_global_eb
from repro.engine.registry import codec_names, get_codec, get_spec
from repro.sz.compressor import SZCompressor
from repro.sz.huffman import HuffmanCodec, decode_tables, huffman_code_lengths

from tests.helpers import assert_error_bounded, naive_canonical_codes, smooth_cube

#: Case counts: 120 SZ cases + 24 AMR scenarios × 4 codecs = 216 total,
#: plus 40 block gather/scatter and 40 Huffman-table bit-identity cases.
N_SZ_CASES = 120
N_AMR_SCENARIOS = 24
N_BLOCK_CASES = 40
N_TABLE_CASES = 40

#: Registry codecs under fuzz (canonical names; tac-hybrid shares tac's
#: format and is exercised separately by the strategy tests).
FUZZ_CODECS = ("tac", "1d", "zmesh", "3d")
#: The fuzz codecs that refuse per-level error bounds.
NO_PER_LEVEL_EB = {"zmesh", "3d"}


# ----------------------------------------------------------------------
# case generators
# ----------------------------------------------------------------------
def _random_array(rng: np.random.Generator) -> np.ndarray:
    """Random dtype/shape/texture array, sized for sub-second codec runs."""
    dtype = np.float32 if rng.random() < 0.5 else np.float64
    ndim = int(rng.integers(1, 5))
    # Keep total size <= ~4096 so 120 cases stay tier-1 fast.
    max_edge = {1: 4096, 2: 64, 3: 16, 4: 8}[ndim]
    shape = tuple(int(rng.integers(1, max_edge + 1)) for _ in range(ndim))
    kind = rng.choice(["smooth", "noise", "constant", "sparse", "bigscale"])
    if kind == "smooth":
        arr = np.cumsum(rng.standard_normal(shape), axis=0)
    elif kind == "noise":
        arr = rng.standard_normal(shape)
    elif kind == "constant":
        arr = np.full(shape, float(rng.normal()))
    elif kind == "sparse":
        arr = rng.standard_normal(shape)
        arr[rng.random(shape) < 0.8] = 0.0
    else:  # bigscale: Nyx-like magnitudes
        arr = (1.0 + np.abs(rng.standard_normal(shape))) * 1e9
    return np.ascontiguousarray(arr.astype(dtype))


def _sz_case(seed: int):
    rng = np.random.default_rng(1000 + seed)
    arr = _random_array(rng)
    mode = str(rng.choice(["abs", "rel", "pw_rel"]))
    if mode == "pw_rel":
        eb = float(10.0 ** rng.uniform(-4, -0.5))  # must stay < 1
    else:
        eb = float(10.0 ** rng.uniform(-6, -1))
        if mode == "abs" and arr.size:
            # Scale the bound to the data so it stays above the dtype's
            # representability floor (see test_abs_bound_near_ulp_floor
            # for the below-floor regime).
            eb *= max(1.0, float(np.max(np.abs(arr))))
    return arr, mode, eb


def _random_tree_masks(
    rng: np.random.Generator, n_levels: int, coarsest_n: int
) -> list[np.ndarray]:
    """Random masks satisfying the tree-AMR tiling invariant.

    Built coarsest-first: every cell a level owns is either stored there
    or refined into its 2×2×2 children on the next finer level, so the
    up-sampled masks tile the domain exactly once.
    """
    masks_coarse_first = []
    owned = np.ones((coarsest_n,) * 3, dtype=bool)
    for depth in range(n_levels):
        is_finest = depth == n_levels - 1
        if is_finest:
            masks_coarse_first.append(owned)
            break
        frac = float(rng.uniform(0.1, 0.9))
        refine = owned & (rng.random(owned.shape) < frac)
        masks_coarse_first.append(owned & ~refine)
        owned = upsample(refine, 2)
    return masks_coarse_first[::-1]  # finest first


def _amr_scenario(seed: int) -> tuple[AMRDataset, str, float, list[float] | None]:
    rng = np.random.default_rng(7000 + seed)
    n_levels = int(rng.integers(1, 4))
    coarsest_n = 4 if n_levels == 3 else int(rng.choice([4, 8]))
    dtype = np.float32 if rng.random() < 0.5 else np.float64
    masks = _random_tree_masks(rng, n_levels, coarsest_n)
    levels = []
    for idx, mask in enumerate(masks):
        n = mask.shape[0]
        cube = smooth_cube(n, seed=seed * 7 + idx, dtype=dtype)
        scale = float(10.0 ** rng.uniform(-1, 3))
        data = np.where(mask, cube * dtype(scale), dtype(0))
        levels.append(AMRLevel(data=data, mask=mask, level=idx))
    ds = AMRDataset(levels=levels, name=f"fuzz{seed}", field="fuzz_field")
    ds.validate()
    mode = str(rng.choice(["abs", "rel"]))
    eb = float(10.0 ** rng.uniform(-5, -2))
    if mode == "abs":
        # Scale the bound to the data magnitude so it stays meaningful.
        span = max(float(np.max(np.abs(lvl.data))) for lvl in levels) or 1.0
        eb *= span
    per_level_scale = None
    if n_levels > 1 and rng.random() < 0.4:
        per_level_scale = [float(s) for s in rng.uniform(0.5, 4.0, n_levels)]
    return ds, mode, eb, per_level_scale


# ----------------------------------------------------------------------
# SZ substrate fuzz
# ----------------------------------------------------------------------
class TestSZRoundTripFuzz:
    @pytest.mark.parametrize("seed", range(N_SZ_CASES), ids=lambda s: f"case{s}")
    def test_roundtrip_bounded(self, seed):
        arr, mode, eb = _sz_case(seed)
        codec = SZCompressor()
        blob = codec.compress(arr, eb, mode=mode)
        out = codec.decompress(blob)

        assert out.shape == arr.shape, "shape must round-trip exactly"
        assert out.dtype == arr.dtype, "storage dtype must round-trip exactly"

        if mode == "abs":
            assert_error_bounded(arr, out, eb)
        elif mode == "rel":
            spread = float(arr.max() - arr.min()) if arr.size else 0.0
            assert_error_bounded(arr, out, eb * spread)
        else:  # pw_rel: per-point relative bound, zeros exact
            a = arr.astype(np.float64)
            b = out.astype(np.float64)
            zeros = a == 0.0
            assert np.all(b[zeros] == 0.0), "exact zeros must survive pw_rel"
            if np.any(~zeros):
                rel = np.abs(b[~zeros] - a[~zeros]) / np.abs(a[~zeros])
                # eb plus the storage dtype's relative rounding step.
                slack = 4.0 * np.finfo(arr.dtype).eps
                assert float(rel.max()) <= eb * (1 + 1e-6) + slack

    def test_abs_bound_near_ulp_floor(self):
        """Bounds at the dtype's ULP scale: error stays within a few ULPs.

        Found by this harness: with float64 values around 5e9 and an
        absolute bound barely above ulp(max|x|) ≈ 9.5e-7, the multi-stage
        interp reconstruction can exceed ``eb + ulp/2`` by one more
        rounding step.  The codec's honest guarantee in this regime is
        ``eb`` plus a small number of ULPs, pinned here so a future codec
        change that widens the gap is caught.
        """
        rng = np.random.default_rng(33)
        arr = (1.0 + np.abs(rng.standard_normal((56, 34)))) * 1e9
        eb = 1.4e-6  # ~1.5 ulp of the max magnitude
        codec = SZCompressor()
        out = codec.decompress(codec.compress(arr, eb, mode="abs"))
        ulp = float(np.spacing(np.max(np.abs(arr))))
        assert float(np.max(np.abs(out - arr))) <= eb + 2.0 * ulp


# ----------------------------------------------------------------------
# vectorized-hot-path bit-identity fuzz (naive pure-Python references)
# ----------------------------------------------------------------------
def _naive_gather_blocks(data, origins, shape, perm_ids=None):
    """Reference gather: one Python loop iteration per sub-block."""
    out = np.empty((origins.shape[0], *shape), dtype=data.dtype)
    for idx in range(origins.shape[0]):
        x, y, z = (int(v) for v in origins[idx])
        perm = AXIS_PERMS[int(perm_ids[idx])] if perm_ids is not None else (0, 1, 2)
        in_shape = tuple(shape[perm.index(axis)] for axis in range(3))
        block = data[x : x + in_shape[0], y : y + in_shape[1], z : z + in_shape[2]]
        if perm != (0, 1, 2):
            block = block.transpose(perm)
        out[idx] = block
    return out


def _naive_scatter(out, stacked, origins, perm_ids, indices):
    """Reference scatter: one Python loop iteration per selected block."""
    for idx in indices:
        idx = int(idx)
        block = stacked[idx]
        perm = AXIS_PERMS[int(perm_ids[idx])]
        if perm != (0, 1, 2):
            block = block.transpose(invert_perm(perm))
        x, y, z = (int(v) for v in origins[idx])
        sx, sy, sz = block.shape
        out[x : x + sx, y : y + sy, z : z + sz] = block


def _block_case(seed: int):
    """Random grid + disjoint same-canonical-shape blocks with random perms."""
    rng = np.random.default_rng(4000 + seed)
    dtype = np.float32 if rng.random() < 0.5 else np.float64
    shape = tuple(
        int(rng.integers(1, 9)) for _ in range(3)
    )  # canonical (not necessarily sorted — perms are arbitrary ids)
    lattice = int(max(shape))
    nb = int(rng.integers(2, 5))
    grid_n = lattice * nb
    data = rng.standard_normal((grid_n, grid_n, grid_n)).astype(dtype)
    # Disjoint origins on the `lattice` grid (blocks fit because every
    # in-grid extent is <= lattice).
    cells = rng.permutation(nb**3)[: int(rng.integers(1, min(nb**3, 12) + 1))]
    bx, rem = np.divmod(cells, nb * nb)
    by, bz = np.divmod(rem, nb)
    origins = (np.stack([bx, by, bz], axis=1) * lattice).astype(np.int32)
    use_perms = rng.random() < 0.6
    perm_ids = (
        rng.integers(0, len(AXIS_PERMS), origins.shape[0]).astype(np.uint8)
        if use_perms
        else None
    )
    return data, origins, shape, perm_ids


class TestBlockGatherScatterBitIdentity:
    @pytest.mark.parametrize("seed", range(N_BLOCK_CASES), ids=lambda s: f"case{s}")
    def test_gather_matches_naive(self, seed):
        data, origins, shape, perm_ids = _block_case(seed)
        fast = gather_blocks(data, origins, shape, perm_ids)
        naive = _naive_gather_blocks(data, origins, shape, perm_ids)
        assert fast.dtype == naive.dtype
        assert np.array_equal(fast, naive), "vectorized gather diverged from reference"

    @pytest.mark.parametrize("seed", range(N_BLOCK_CASES), ids=lambda s: f"case{s}")
    def test_scatter_matches_naive(self, seed):
        data, origins, shape, perm_ids = _block_case(seed)
        if perm_ids is None:
            perm_ids = np.zeros(origins.shape[0], dtype=np.uint8)
        stacked = _naive_gather_blocks(data, origins, shape, perm_ids)
        extraction = BlockExtraction(
            padded_shape=data.shape, orig_shape=data.shape, block_size=1
        )
        extraction.coords[shape] = origins
        extraction.perms[shape] = perm_ids
        rng = np.random.default_rng(9000 + seed)
        if rng.random() < 0.5:
            indices = None
            chosen = range(origins.shape[0])
        else:
            k = int(rng.integers(1, origins.shape[0] + 1))
            indices = rng.permutation(origins.shape[0])[:k]
            chosen = indices
        fast = np.zeros(data.shape, dtype=data.dtype)
        extraction.scatter_group(shape, stacked, fast, indices=indices)
        naive = np.zeros(data.shape, dtype=data.dtype)
        _naive_scatter(naive, stacked, origins, perm_ids, chosen)
        assert np.array_equal(fast, naive), "vectorized scatter diverged from reference"


def _naive_decode_table(lengths, codes, max_len):
    """Reference dense decode table: one Python slice-fill per symbol."""
    size = 1 << max_len
    table_sym = np.zeros(size, dtype=np.int32)
    table_len = np.zeros(size, dtype=np.int64)
    for sym in np.flatnonzero(lengths):
        length = int(lengths[sym])
        lo = int(codes[sym]) << (max_len - length)
        hi = lo + (1 << (max_len - length))
        table_sym[lo:hi] = sym
        table_len[lo:hi] = length
    return table_sym, table_len


def _histogram_case(seed: int) -> np.ndarray:
    """Random histogram, biased toward the skewed shapes SZ produces."""
    rng = np.random.default_rng(6000 + seed)
    alphabet = int(rng.integers(1, 600))
    kind = rng.choice(["geometric", "zipf", "uniform", "sparse", "single", "two"])
    if kind == "geometric":
        counts = np.bincount(
            np.clip(rng.geometric(0.2, 4000), 1, alphabet) - 1, minlength=alphabet
        )
    elif kind == "zipf":
        weights = 1.0 / np.arange(1, alphabet + 1) ** 1.3
        counts = np.bincount(
            rng.choice(alphabet, size=3000, p=weights / weights.sum()),
            minlength=alphabet,
        )
    elif kind == "uniform":
        counts = rng.integers(0, 50, alphabet)
    elif kind == "sparse":
        counts = np.where(rng.random(alphabet) < 0.05, rng.integers(1, 1000), 0)
    elif kind == "single":
        counts = np.zeros(alphabet, dtype=np.int64)
        counts[int(rng.integers(0, alphabet))] = 100
    else:  # two symbols, wildly unequal
        counts = np.zeros(alphabet, dtype=np.int64)
        counts[int(rng.integers(0, alphabet))] = 1
        counts[int(rng.integers(0, alphabet))] += 10**6
    return np.asarray(counts, dtype=np.int64)


class TestHuffmanTableBitIdentity:
    @pytest.mark.parametrize("seed", range(N_TABLE_CASES), ids=lambda s: f"case{s}")
    def test_vectorized_table_build_matches_naive(self, seed):
        counts = _histogram_case(seed)
        max_len = int(np.random.default_rng(seed).choice([8, 12, 16]))
        if (1 << max_len) < int(np.count_nonzero(counts)):
            max_len = 16  # the 8-bit cap cannot hold wide uniform alphabets
        lengths = huffman_code_lengths(counts, max_len=max_len)
        codec = HuffmanCodec(lengths, max_len=max_len)
        naive_codes = naive_canonical_codes(lengths)
        assert np.array_equal(codec.codes, naive_codes), "canonical codes diverged"

        tables = decode_tables([(0, lengths)], max_len)
        # The table is as wide as the longest code present, never wider.
        bits = int(tables.bits[0])
        assert bits == max(int(lengths.max()), 1) <= max_len
        ref_sym, ref_len = _naive_decode_table(lengths, naive_codes, bits)
        assert tables.entry.dtype == np.int32
        assert np.array_equal(tables.entry >> 5, ref_sym), "decode table syms diverged"
        assert np.array_equal(tables.entry & 31, ref_len), "decode table lens diverged"


# ----------------------------------------------------------------------
# registry codec fuzz
# ----------------------------------------------------------------------
def _amr_cases():
    for seed in range(N_AMR_SCENARIOS):
        for codec_name in FUZZ_CODECS:
            yield pytest.param(seed, codec_name, id=f"case{seed}-{codec_name}")


class TestRegistryCodecFuzz:
    def test_all_fuzz_codecs_are_registered(self):
        names = set(codec_names(include_aliases=True))
        assert set(FUZZ_CODECS) <= names
        # Acceptance: all four paper codecs resolvable via get_codec(name).
        for name in FUZZ_CODECS:
            codec = get_codec(name)
            assert hasattr(codec, "compress") and hasattr(codec, "decompress")

    @pytest.mark.parametrize("seed,codec_name", _amr_cases())
    def test_roundtrip_bounded_and_metadata_exact(self, seed, codec_name):
        ds, mode, eb, per_level_scale = _amr_scenario(seed)
        spec = get_spec(codec_name)
        if spec.name in NO_PER_LEVEL_EB:
            per_level_scale = None
        codec = get_codec(codec_name)

        kwargs = {"per_level_scale": per_level_scale} if per_level_scale else {}
        comp = codec.compress(ds, eb, mode=mode, **kwargs)
        assert comp.method == spec.method_name

        # Exact container/metadata round-trip.
        blob = comp.to_bytes()
        loaded = CompressedDataset.from_bytes(blob)
        assert loaded.method == comp.method
        assert loaded.dataset_name == comp.dataset_name
        assert loaded.meta == comp.meta
        assert loaded.parts == comp.parts
        assert loaded.original_bytes == comp.original_bytes
        assert loaded.n_values == comp.n_values

        # Decompress from the deserialized form (the archival path).
        restored = get_codec(codec_name).decompress(loaded)
        assert restored.n_levels == ds.n_levels
        assert restored.name == ds.name
        assert restored.field == ds.field

        eb_abs = resolve_global_eb(ds, eb, mode)
        scales = per_level_scale or [1.0] * ds.n_levels
        for orig, back in zip(ds.levels, restored.levels):
            assert np.array_equal(orig.mask, back.mask), "masks must be exact"
            assert_error_bounded(
                orig.values(), back.values(), eb_abs * scales[orig.level]
            )
