"""Multilevel interpolation predictor (SZ3-style; Zhao et al., paper ref [42]).

The Lorenzo route in :mod:`repro.sz.predictor` pre-quantizes values and
decorrelates the integer lattice — exact and embarrassingly parallel, but
lattice rounding noise is amplified ``sqrt(2**ndim)``-fold by the N-D
difference, which blunts the very 3D advantage the paper builds on.  The
interpolation predictor avoids that: points are visited coarse-to-fine and
each is predicted by *linear interpolation of already-reconstructed
neighbours*, with the prediction residual quantized at ``2*eb``.  Every
point's error stays independently ``<= eb`` and code magnitudes track the
field's local interpolation error, not accumulated rounding.

Traversal (shared verbatim by compressor and decompressor — determinism is
what makes the scheme work):

* **anchors** — the stride-``2**L`` corner grid, quantized to the value
  lattice directly; anchor lattice indices are delta-coded in flat order
  (for 4D batches, consecutive blocks are spatially correlated, so deltas
  stay small).
* **levels** ``m = L .. 1`` with stride ``s = 2**m``, half-step ``h``:
  one pass per spatial axis.  The pass for ``axis`` visits points whose
  ``axis`` index is ``h (mod s)``, earlier axes already refined to the
  ``h`` grid, later axes still on the ``s`` grid — each new point is
  claimed by the *last* axis on which its index is odd at this level, so
  every point is predicted exactly once from neighbours that are already
  reconstructed.  Each pass is a strided-view NumPy expression.

A 4D input treats axis 0 as a batch dimension (the stacked sub-blocks of
the TAC strategies): interpolation runs within blocks only.

Both directions compute reconstructions with the same float64 expressions,
so compressor and decompressor stay bit-identical — required, because later
predictions consume earlier reconstructions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_error_bound

#: Values one decode pass holds in its prediction and scratch arrays (8
#: bytes each): a batch of streams runs each pass in chunks of streams
#: that stay under it, so those temporaries no longer grow with the batch
#: (a stream larger than it is a chunk of its own).  Measured on 16³
#: bricks, whose largest pass is 2 048 values per stream, at 2**13 /
#: 2**14 / 2**15 / 2**16 / unchunked: a 27-brick decode peaks at 1.62 /
#: 1.71 / 1.97 / 2.33 / 2.33 MB (tracemalloc) and 512 bricks at 11.9 /
#: 12.0 / 12.2 / 12.7 / 13.8 MB, while the 27-brick reconstruct takes
#: 1.0-1.1 ms at every setting (fastest of 150 calls, 2-core host).
PASS_VALUES = 1 << 14


def _levels_for(shape: tuple[int, ...], spatial_axes: range) -> int:
    """Number of refinement levels: enough for the largest spatial extent."""
    longest = max((shape[axis] for axis in spatial_axes), default=1)
    return max(int(np.ceil(np.log2(longest))) if longest > 1 else 1, 1)


def _pass_slices(shape, spatial_axes, axis, s: int, h: int):
    """Strided views of (new points, left parents, right parents) for a pass.

    Returns ``None`` when the pass is empty for this shape.
    """
    new_index: list[slice] = [slice(None)] * len(shape)
    left_index: list[slice] = [slice(None)] * len(shape)
    for ax in spatial_axes:
        if ax < axis:
            new_index[ax] = slice(0, None, h)
            left_index[ax] = slice(0, None, h)
        elif ax > axis:
            new_index[ax] = slice(0, None, s)
            left_index[ax] = slice(0, None, s)
    if shape[axis] <= h:
        return None
    new_index[axis] = slice(h, None, s)
    n_new = len(range(h, shape[axis], s))
    if n_new == 0:
        return None
    left_index[axis] = slice(0, n_new * s, s)
    right_index = list(left_index)
    right_index[axis] = slice(s, None, s)
    return tuple(new_index), tuple(left_index), tuple(right_index)


def _predict(recon: np.ndarray, new_ix, left_ix, right_ix, axis: int) -> np.ndarray:
    """Linear midpoint prediction; edge points fall back to their left parent.

    Returns a freshly-owned array (callers mutate it in place as the
    reconstruction buffer).  The midpoint ``0.5 * (left + right)`` is
    computed in place on the copied left-parent values — bit-identical to
    the explicit expression, since ``* 0.5`` commutes and rounds once
    either way.
    """
    right = recon[right_ix]
    pred = np.array(recon[left_ix], dtype=np.float64)
    if right.size:
        head = [slice(None)] * pred.ndim
        head[axis] = slice(0, right.shape[axis])
        sub = pred[tuple(head)]
        sub += right
        sub *= 0.5
    return pred


def _refine(recon: np.ndarray, codes: np.ndarray, pitch, new_ix, left_ix, right_ix, axis) -> None:
    """One decode pass over ``recon``, a chunk of streams: each new point
    is its prediction plus its dequantized code (``codes``, one row per
    stream).  The dequantization runs in one scratch buffer that is added
    onto the owned prediction in place; both are gone on return, before
    the next chunk's are made."""
    pred = _predict(recon, new_ix, left_ix, right_ix, axis)
    scratch = codes.astype(np.float64).reshape(pred.shape)
    scratch *= pitch
    pred += scratch
    recon[new_ix] = pred


def _traversal(full: tuple[int, ...], ndim: int):
    """``(anchor index, passes)`` for a batch of ``ndim``-D streams.

    ``full`` is the batch shape — axis 0 is the stream axis, a 4D stream's
    own leading axis (its stacked sub-blocks) is the next one, and neither
    is spatial.  Each pass is ``(new, left, right, axis)`` in the order
    both directions visit them.
    """
    spatial_axes = range(2, ndim + 1) if ndim == 4 else range(1, ndim + 1)
    n_levels = _levels_for(full, spatial_axes)
    anchor_ix: list[slice] = [slice(None)] * (ndim + 1)
    for ax in spatial_axes:
        anchor_ix[ax] = slice(0, None, 1 << n_levels)
    passes = []
    for m in range(n_levels, 0, -1):
        s = 1 << m
        for axis in spatial_axes:
            plan = _pass_slices(full, spatial_axes, axis, s, s >> 1)
            if plan is not None:
                passes.append(plan + (axis,))
    return tuple(anchor_ix), passes


def _check_ndim(ndim: int) -> None:
    if ndim not in (1, 2, 3, 4):
        raise ValueError(f"interpolation predictor supports 1-4D, got {ndim}D")


def interp_compress(data: np.ndarray, abs_eb, want_recon: bool = False):
    """Quantization-code stream for ``data`` under absolute bound ``abs_eb``.

    The returned int64 stream concatenates anchor delta codes and per-pass
    residual codes in traversal order; :func:`interp_decompress` consumes
    the same order.

    With ``abs_eb`` a sequence, ``data`` is a batch of same-shape streams
    along a leading stream axis, one bound per stream, and the result has
    one row of codes per stream.  The traversal runs once for the whole
    batch and every float operation stays elementwise (each stream's pitch
    broadcasts down its row, anchors are delta-coded within their row), so
    row ``i`` is bit-identical to compressing ``data[i]`` on its own.

    ``want_recon=True`` returns ``(codes, recon)``: the float64
    reconstruction the traversal filled pass by pass (later predictions
    consume earlier reconstructions), which is what
    :func:`interp_decompress` rebuilds from ``codes`` — same expressions,
    same order, so the two are bit-identical.
    """
    batched = np.ndim(abs_eb) == 1
    ebs = [check_error_bound(float(eb)) for eb in np.atleast_1d(abs_eb)]
    # float32 is read as it is: every expression below widens it to float64
    # exactly, so the codes are the ones a float64 copy would give.
    arr = np.asarray(data)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if not batched:
        arr = arr[None]
    ndim = arr.ndim - 1
    _check_ndim(ndim)
    n_streams = arr.shape[0]
    if len(ebs) != n_streams:
        raise ValueError(f"expected {n_streams} error bounds, got {len(ebs)}")
    codes = np.empty((n_streams, math.prod(arr.shape[1:])), dtype=np.int64)
    if codes.size == 0:
        recon = np.zeros(arr.shape, dtype=np.float64)
        if not batched:
            codes, recon = codes[0], recon[0]
        return (codes, recon) if want_recon else codes
    pitches = [2.0 * eb for eb in ebs]
    # Per-row |peak| from max and min: no |arr| temporary, no copy of a view.
    spatial = tuple(range(1, arr.ndim))
    peaks = np.maximum(arr.max(axis=spatial), -arr.min(axis=spatial)).tolist()
    for eb, pitch, peak in zip(ebs, pitches, peaks):
        if peak / pitch > float(2**62):
            raise ValueError(
                f"error bound {eb:g} is too small for data of magnitude "
                f"{peak / pitch * pitch:g}; lattice index would overflow int64"
            )
    pitch = np.array(pitches).reshape((n_streams,) + (1,) * ndim)
    anchor_ix, passes = _traversal(arr.shape, ndim)
    recon = np.zeros(arr.shape, dtype=np.float64)

    # Anchors: lattice-quantize, delta-code flat within each stream.
    lattice = np.rint(arr[anchor_ix] / pitch).astype(np.int64)
    cursor = lattice.size // n_streams
    codes[:, :cursor] = np.diff(lattice.reshape(n_streams, -1), prepend=np.int64(0), axis=1)
    recon[anchor_ix] = lattice.astype(np.float64) * pitch

    for new_ix, left_ix, right_ix, axis in passes:
        pred = _predict(recon, new_ix, left_ix, right_ix, axis)
        # One scratch buffer carries diff → code → dequantized residual;
        # `pred` is then reused in place as the reconstruction values.
        scratch = arr[new_ix] - pred
        scratch /= pitch
        np.rint(scratch, out=scratch)
        n_new = scratch.size // n_streams
        codes[:, cursor : cursor + n_new] = scratch.reshape(n_streams, -1)
        cursor += n_new
        scratch *= pitch
        pred += scratch
        recon[new_ix] = pred
    if not batched:
        codes, recon = codes[0], recon[0]
    return (codes, recon) if want_recon else codes


def interp_decompress(codes: np.ndarray, abs_eb, shape: tuple[int, ...]) -> np.ndarray:
    """Reconstruct the array from :func:`interp_compress` codes.

    ``codes`` may be int32 (the decoder's residuals, shifted in place from
    its symbols) or int64; any other dtype is converted to int64.  The
    anchors are summed in int64 either way.

    A 2-D ``codes`` array is a batch of same-shape streams, one per row,
    with ``abs_eb`` the matching sequence of bounds; the result then has
    a leading stream axis.  The traversal runs once for the whole batch
    and every float operation stays elementwise (each stream's pitch
    broadcasts down its row), so row ``i`` is bit-identical to decoding
    ``codes[i]`` on its own.  That is also why each pass may run over the
    batch in chunks of streams: a pass's prediction and scratch arrays
    hold at most :data:`PASS_VALUES` values (or one stream's worth).
    """
    codes = np.asarray(codes)
    if codes.dtype not in (np.int32, np.int64):
        codes = np.asarray(codes, dtype=np.int64)
    batched = codes.ndim == 2
    ebs = np.atleast_1d(np.asarray(abs_eb, dtype=np.float64))
    for eb in ebs:
        check_error_bound(float(eb))
    shape = tuple(int(dim) for dim in shape)
    ndim = len(shape)
    _check_ndim(ndim)
    if not batched:
        codes = codes.reshape(1, -1)
    n_streams = codes.shape[0]
    if ebs.size != n_streams:
        raise ValueError(f"expected {n_streams} error bounds, got {ebs.size}")
    size = int(np.prod(shape)) if shape else 0
    if size == 0:
        recon = np.zeros((n_streams,) + shape, dtype=np.float64)
        return recon if batched else recon[0]
    if codes.shape[1] != size:
        raise ValueError(f"expected {size} codes for shape {shape}, got {codes.shape[1]}")
    full = (n_streams,) + shape
    pitch = (2.0 * ebs).reshape((n_streams,) + (1,) * ndim)
    anchor_ix, passes = _traversal(full, ndim)

    recon = np.zeros(full, dtype=np.float64)
    anchor_shape = recon[anchor_ix].shape
    cursor = int(np.prod(anchor_shape[1:]))
    lattice = np.cumsum(codes[:, :cursor], axis=1, dtype=np.int64)
    recon[anchor_ix] = lattice.astype(np.float64).reshape(anchor_shape) * pitch

    for new_ix, left_ix, right_ix, axis in passes:
        n_new = math.prod(recon[(0,) + new_ix[1:]].shape)
        step = max(PASS_VALUES // n_new, 1)
        for lo in range(0, n_streams, step):
            chunk = slice(lo, lo + step)
            part = codes[chunk, cursor : cursor + n_new]
            _refine(recon[chunk], part, pitch[chunk], new_ix, left_ix, right_ix, axis)
        cursor += n_new
    if cursor != size:
        raise ValueError("code stream length mismatch (corrupt stream)")
    return recon if batched else recon[0]
