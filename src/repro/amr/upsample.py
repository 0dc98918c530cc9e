"""Resolution changes between AMR levels.

Tree-based AMR stores each point once, at its finest refinement level; going
to the post-analysis uniform view means piecewise-constant *up-sampling* of
coarse data (the paper's Fig. 2 — each coarse cell duplicated ``r**3``
times).  The synthetic simulator also needs the adjoint, block-mean
*down-sampling*, to derive coarse-level values from the fine truth field.

Both directions are pure stride tricks / reshapes — no Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int


def upsample(data: np.ndarray, factor: int) -> np.ndarray:
    """Piecewise-constant up-sampling by ``factor`` along every axis.

    Matches the paper's 3D-baseline up-sampling: a coarse value is
    duplicated into the ``factor**ndim`` fine cells it covers.
    """
    factor = check_positive_int(factor, name="factor")
    if factor == 1:
        return np.asarray(data)
    out = np.asarray(data)
    for axis in range(out.ndim):
        out = np.repeat(out, factor, axis=axis)
    return out


def downsample_mean(data: np.ndarray, factor: int) -> np.ndarray:
    """Block-mean down-sampling by ``factor`` along every axis.

    Used by the synthetic simulator to produce coarse-level values from the
    fine-resolution truth field (conservative averaging, as finite-volume
    AMR codes do when coarsening).
    """
    factor = check_positive_int(factor, name="factor")
    arr = np.asarray(data)
    if factor == 1:
        return arr
    if any(dim % factor for dim in arr.shape):
        raise ValueError(f"shape {arr.shape} is not divisible by factor {factor}")
    # Reshape each axis n -> (n/f, f) then average the f-axes in one pass.
    new_shape = []
    for dim in arr.shape:
        new_shape.extend([dim // factor, factor])
    reshaped = arr.reshape(new_shape)
    axes = tuple(range(1, 2 * arr.ndim, 2))
    return reshaped.mean(axis=axes, dtype=np.float64).astype(arr.dtype)


def coarsen_mask_all(mask: np.ndarray, factor: int) -> np.ndarray:
    """Coarsen a boolean mask: a coarse cell is set iff *all* children are."""
    factor = check_positive_int(factor, name="factor")
    arr = np.asarray(mask, dtype=bool)
    if factor == 1:
        return arr
    if any(dim % factor for dim in arr.shape):
        raise ValueError(f"shape {arr.shape} is not divisible by factor {factor}")
    new_shape = []
    for dim in arr.shape:
        new_shape.extend([dim // factor, factor])
    reshaped = arr.reshape(new_shape)
    axes = tuple(range(1, 2 * arr.ndim, 2))
    return reshaped.all(axis=axes)
