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

Traversal (one sweep, :func:`_sweep`, runs it for compressor and
decompressor alike — determinism is what makes the scheme work):

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

#: Values one pass holds in its prediction and scratch arrays (8 bytes
#: each), encoding or decoding: a batch of streams runs each pass in
#: chunks of streams that stay under it, so those temporaries do not grow
#: with the batch (a stream larger than it is a chunk of its own).
#: Measured on 16³ bricks, whose largest pass is 2 048 values per stream,
#: at 2**13 / 2**14 / 2**15 / 2**16 / unchunked: a 27-brick decode peaks
#: at 1.62 / 1.71 / 1.97 / 2.33 / 2.33 MB (tracemalloc) and 512 bricks at
#: 11.9 / 12.0 / 12.2 / 12.7 / 13.8 MB, while the 27-brick reconstruct
#: takes 1.0-1.1 ms at every setting (fastest of 150 calls, 2-core host).
#: The encode peaks in its sweep: a 64-brick float32 ``compress_many`` at
#: one encode thread (Run1_Z3's finest level at scale 4, a bound of 1e-4
#: or 1e-2 of the dataset's range) peaks at 3.42 / 3.50 / 3.77 / 4.29 /
#: 5.34 MB at those settings (13.0 / 13.4 / 14.4 / 16.4 / 20.4 B per
#: value: the float64 buffer, the int32 codes and one chunk's pass
#: arrays), in 16-17 ms at every setting at 1e-2 (median of 31 calls).
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


#: Lattice indices and residuals are written as int32 codes when every
#: stream's peak ``max |x| / (2 eb)`` is at most this; otherwise as int64.
#: A code is an anchor delta (at most twice a lattice index) or a residual
#: ``|x - pred| / (2 eb)`` with ``|pred| <= peak + eb`` (it interpolates
#: reconstructions), so every code stays within ``2 * CODE32_PEAK + 2 =
#: 2**30 + 2``: half of int32, which also leaves room for the symbol shift
#: by the Huffman radius.
CODE32_PEAK = float(2**29)


def _bounds(abs_eb, n_streams: int, ndim: int) -> np.ndarray:
    """The per-stream bounds as a float64 array, after the checks both
    directions run before any work: each bound, the dimensionality and
    one bound per stream."""
    ebs = np.atleast_1d(np.asarray(abs_eb, dtype=np.float64))
    for eb in ebs:
        check_error_bound(float(eb))
    if ndim not in (1, 2, 3, 4):
        raise ValueError(f"interpolation predictor supports 1-4D, got {ndim}D")
    if ebs.size != n_streams:
        raise ValueError(f"expected {n_streams} error bounds, got {ebs.size}")
    return ebs


def _code_dtype(values: np.ndarray, ebs: np.ndarray):
    """int32 when every stream's codes fit it (:data:`CODE32_PEAK`), else
    int64; raises when a stream's lattice index would overflow int64.  One
    max and one min per row, no ``|values|`` temporary."""
    if values.size == 0:
        return np.int32
    axes = tuple(range(1, values.ndim))
    peaks = np.maximum(values.max(axis=axes), -values.min(axis=axes)).tolist()
    widest = 0.0
    for eb, peak in zip(ebs.tolist(), peaks):
        width = 2.0 * eb
        if peak / width > float(2**62):
            raise ValueError(
                f"error bound {eb:g} is too small for data of magnitude "
                f"{peak / width * width:g}; lattice index would overflow int64"
            )
        widest = max(widest, peak / width)
    return np.int32 if widest <= CODE32_PEAK else np.int64


def _sweep(codes: np.ndarray, ebs: np.ndarray, recon: np.ndarray, encode: bool) -> None:
    """The traversal over a batch of streams, one per row of ``codes`` and
    one per leading index of the float64 ``recon``, which ends up holding
    the reconstruction.

    Encoding, ``recon`` starts out holding the values: each point's code
    is its rounded ``(x - pred) / pitch``, stored into ``codes``, and its
    reconstruction overwrites ``x``.  Every point is read once, by the pass
    that predicts it, before that pass writes it, and predictions read only
    points already reconstructed, so the buffer needs no second copy.
    Decoding, ``recon`` starts out zeroed and the codes are read.
    Everything else is one set of expressions, which is what keeps the two
    directions bit-identical.  Each pass runs over chunks of streams whose
    prediction and scratch arrays hold at most :data:`PASS_VALUES` values
    (or one stream's worth), both freed before the next chunk's are made;
    since every float operation is elementwise (each stream's pitch
    broadcasts down its row), no chunking changes a bit.
    """
    n_streams, ndim = recon.shape[0], recon.ndim - 1
    if recon.size == 0:
        return
    size = recon[0].size
    if codes.shape[1] != size:
        raise ValueError(f"expected {size} codes for shape {recon.shape[1:]}, got {codes.shape[1]}")
    pitch = (2.0 * ebs).reshape((n_streams,) + (1,) * ndim)
    anchor_ix, passes = _traversal(recon.shape, ndim)

    # Anchors: lattice-quantized, delta-coded flat within each stream.
    anchor_shape = recon[anchor_ix].shape
    cursor = math.prod(anchor_shape[1:])
    if not encode:
        lattice = np.cumsum(codes[:, :cursor], axis=1, dtype=np.int64)
    else:
        lattice = np.rint(recon[anchor_ix] / pitch).astype(np.int64).reshape(n_streams, cursor)
        codes[:, :cursor] = np.diff(lattice, prepend=np.int64(0), axis=1)
    recon[anchor_ix] = lattice.astype(np.float64).reshape(anchor_shape) * pitch

    for new_ix, left_ix, right_ix, axis in passes:
        n_new = math.prod(recon[(0,) + new_ix[1:]].shape)
        step = max(PASS_VALUES // n_new, 1)
        for lo in range(0, n_streams, step):
            rows = slice(lo, lo + step)
            part, own = recon[rows], codes[rows, cursor : cursor + n_new]
            pred = _predict(part, new_ix, left_ix, right_ix, axis)
            if not encode:
                scratch = own.astype(np.float64).reshape(pred.shape)
            else:
                # One scratch buffer carries diff -> code -> dequantized residual.
                scratch = part[new_ix] - pred
                scratch /= pitch[rows]
                np.rint(scratch, out=scratch)
                own[...] = scratch.reshape(own.shape)
            scratch *= pitch[rows]
            pred += scratch
            part[new_ix] = pred
            del pred, scratch
        cursor += n_new
    if cursor != size:
        raise ValueError("code stream length mismatch (corrupt stream)")


def interp_encode(values: np.ndarray, abs_eb) -> np.ndarray:
    """The codes of a batch of same-shape streams, sweeping in place.

    ``values`` is a C-ordered float64 array with a leading stream axis,
    one bound per stream in ``abs_eb``; it is the sweep's reconstruction
    buffer, so on return it holds the reconstruction
    :func:`interp_decompress` rebuilds from the codes.  The codes are
    int32 when every stream's ``max |x| / (2 eb)`` is at most
    :data:`CODE32_PEAK`, int64 otherwise.  :func:`interp_compress` is the
    same encode on a copy of its input.
    """
    ebs = _bounds(abs_eb, values.shape[0], values.ndim - 1)
    codes = np.empty((values.shape[0], values[0].size), dtype=_code_dtype(values, ebs))
    _sweep(codes, ebs, values, encode=True)
    return codes


def interp_compress(data: np.ndarray, abs_eb):
    """Quantization codes and reconstruction of ``data`` under absolute
    bound ``abs_eb``: ``(codes, recon)``.

    The code stream concatenates anchor delta codes and per-pass residual
    codes in traversal order; :func:`interp_decompress` consumes the same
    order.  The codes are int32 when the data's ``max |x| / (2 eb)`` is at
    most :data:`CODE32_PEAK` in every stream, int64 otherwise (the values
    are the same either way).  ``recon`` is the float64 reconstruction the
    traversal fills pass by pass (later predictions consume earlier
    reconstructions), which is what :func:`interp_decompress` rebuilds
    from ``codes``: both run :func:`_sweep`, so the two are bit-identical.
    It is a float64 copy of ``data`` that :func:`interp_encode` sweeps in
    place; ``data`` itself is never written.

    With ``abs_eb`` a sequence, ``data`` is a batch of same-shape streams
    along a leading stream axis, one bound per stream, and both results
    keep that axis: row ``i`` is bit-identical to compressing ``data[i]``
    on its own.
    """
    batched = np.ndim(abs_eb) == 1
    # float32 widens to float64 exactly, so the codes are the ones the
    # float32 values themselves give.
    recon = np.array(data, dtype=np.float64)
    if not batched:
        recon = recon[None]
    codes = interp_encode(recon, abs_eb)
    return (codes, recon) if batched else (codes[0], recon[0])


def interp_decompress(codes: np.ndarray, abs_eb, shape: tuple[int, ...]) -> np.ndarray:
    """Reconstruct the array from :func:`interp_compress` codes.

    ``codes`` may be int32 (the decoder's residuals, shifted in place from
    its symbols) or int64; any other dtype is converted to int64.  The
    anchors are summed in int64 either way.

    A 2-D ``codes`` array is a batch of same-shape streams, one per row,
    with ``abs_eb`` the matching sequence of bounds; the result then has
    a leading stream axis, and row ``i`` is bit-identical to decoding
    ``codes[i]`` on its own.
    """
    codes = np.asarray(codes)
    if codes.dtype not in (np.int32, np.int64):
        codes = np.asarray(codes, dtype=np.int64)
    batched = codes.ndim == 2
    if not batched:
        codes = codes.reshape(1, -1)
    shape = tuple(int(dim) for dim in shape)
    ebs = _bounds(abs_eb, codes.shape[0], len(shape))
    recon = np.zeros((codes.shape[0],) + shape, dtype=np.float64)
    _sweep(codes, ebs, recon, encode=False)
    return recon if batched else recon[0]


