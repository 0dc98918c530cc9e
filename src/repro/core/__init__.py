"""TAC core: pre-process strategies, density filter, hybrid compressor."""

from repro.core.adaptive_eb import suggest_scales, tempered_ratio, volume_upsample_rate
from repro.core.akdtree import akdtree_extract, akdtree_plan
from repro.core.blocks import BlockExtraction, block_occupancy, integral_image
from repro.core.container import (
    CompressedDataset,
    ContainerIOError,
    LazyCompressedDataset,
    PartIntegrityError,
    StreamingContainerWriter,
    pack_mask,
    part_level,
    resolve_global_eb,
    stream_dataset,
    unpack_mask,
)
from repro.core.density import (
    DEFAULT_T1,
    DEFAULT_T2,
    Strategy,
    select_strategy,
    use_3d_baseline,
)
from repro.core.gsp import GSPResult, gsp_pad, zero_fill
from repro.core.nast import nast_extract
from repro.core.plan import (
    DecodeUnit,
    DecompressionPlan,
    PlanExecutorMixin,
    execute_plan,
    normalize_region,
)
from repro.core.opst import compute_bs, opst_extract, opst_plan
from repro.core.tac import TACCompressor, TACConfig, default_unit_block

__all__ = [
    "TACCompressor",
    "TACConfig",
    "Strategy",
    "CompressedDataset",
    "ContainerIOError",
    "PartIntegrityError",
    "part_level",
    "LazyCompressedDataset",
    "StreamingContainerWriter",
    "stream_dataset",
    "DecodeUnit",
    "DecompressionPlan",
    "PlanExecutorMixin",
    "execute_plan",
    "normalize_region",
    "select_strategy",
    "use_3d_baseline",
    "DEFAULT_T1",
    "DEFAULT_T2",
    "default_unit_block",
    "nast_extract",
    "opst_extract",
    "opst_plan",
    "compute_bs",
    "akdtree_extract",
    "akdtree_plan",
    "gsp_pad",
    "zero_fill",
    "GSPResult",
    "BlockExtraction",
    "block_occupancy",
    "integral_image",
    "pack_mask",
    "unpack_mask",
    "resolve_global_eb",
    "suggest_scales",
    "tempered_ratio",
    "volume_upsample_rate",
]
