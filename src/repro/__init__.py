"""TAC: error-bounded lossy compression for 3D AMR simulations.

Reproduction of Wang et al., "TAC: Optimizing Error-Bounded Lossy
Compression for Three-Dimensional Adaptive Mesh Refinement Simulations"
(HPDC 2022).  The package is organized as:

* :mod:`repro.core` — TAC itself: the OpST/AKDTree/GSP pre-process
  strategies, the density filter, and the hybrid level-wise compressor.
* :mod:`repro.sz` — the SZ-style error-bounded compressor substrate.
* :mod:`repro.amr` — tree-based AMR data structures and resampling.
* :mod:`repro.sim` — synthetic Nyx cosmology data hitting Table 1's
  level densities.
* :mod:`repro.baselines` — the 1D, zMesh, and 3D comparison baselines.
* :mod:`repro.engine` — the codec registry and the multi-entry batch
  archive (written sharded; older monolithic archives stay readable).
* :mod:`repro.ingest` — :class:`~repro.ingest.IngestSession`, the one way
  from many snapshots, fields or timesteps to one sharded archive.
* :mod:`repro.analysis` — PSNR/rate-distortion plus the cosmology-specific
  power-spectrum and halo-finder metrics.
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import TACCompressor, make_dataset

    dataset = make_dataset("Run1_Z10", scale=8)
    tac = TACCompressor()
    blob = tac.compress(dataset, error_bound=1e-4, mode="rel")
    restored = tac.decompress(blob)
    print(blob.ratio(), [l.density() for l in dataset.levels])
"""

from repro.amr import AMRDataset, AMRLevel
from repro.baselines import Naive1DCompressor, Uniform3DCompressor, ZMeshCompressor
from repro.core import (
    CompressedDataset,
    LazyCompressedDataset,
    Strategy,
    TACCompressor,
    TACConfig,
)
from repro.engine import (
    LazyBatchArchive,
    ShardedArchiveWriter,
    get_codec,
    register_codec,
)
from repro.sim import make_dataset
from repro.sz import SZCompressor, SZConfig

__version__ = "1.2.0"

__all__ = [
    "TACCompressor",
    "TACConfig",
    "Strategy",
    "CompressedDataset",
    "LazyCompressedDataset",
    "LazyBatchArchive",
    "SZCompressor",
    "SZConfig",
    "AMRDataset",
    "AMRLevel",
    "Naive1DCompressor",
    "ZMeshCompressor",
    "Uniform3DCompressor",
    "ShardedArchiveWriter",
    "get_codec",
    "register_codec",
    "make_dataset",
    "__version__",
]
