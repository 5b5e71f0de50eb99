"""Array-level building blocks used by the layers in :mod:`repro.nn.layers`.

Everything here is a pure function of numpy arrays: image-to-column
transformations for convolutions, pooling-window helpers, numerically stable
softmax, one-hot encoding, and padding helpers.  Layers keep the stateful
bookkeeping (parameters, caches) and delegate the math to this module so the
math can be tested in isolation.

Memory layout
-------------
Every image batch is **shaped** NCHW, but its memory may be channels-last:
a convolution's ``(N·out_h·out_w, C)`` matmul output is NHWC memory, and the
layer returns it as an NCHW-shaped view (:func:`is_channels_last`).  Kernels
follow the layout of their input rather than a setting: an image-shaped
result is allocated in its input's memory order, so from the first
convolution onward a network stays channels-last without a transposing copy
per layer, while an NCHW-contiguous caller (a data loader batch, a
benchmark) keeps NCHW memory.  Gradient kernels whose input is a patch
matrix (:func:`col2im`, :func:`conv_backward_input`) always return
channels-last memory: that is the order the matrix rows are in.  Only
where values are stored changes; every add, max and matmul keeps its
operands and order, so results are bit-identical across layouts.

The convolution/pooling kernels are vectorized:

* :func:`im2col` finds receptive fields through a **zero-copy**
  :func:`numpy.lib.stride_tricks.sliding_window_view` of one image's offset
  table (in the input's memory order), and moves data once: a single
  :func:`numpy.take` that lays the patch matrix out contiguously for the
  following matrix multiply.
* :func:`col2im` scatters with one strided slice-add per kernel offset into a
  channels-last accumulator, a few images at a time so each block of the
  column gradient stays cache-resident across the ``k²`` adds, and uses a
  loop-free strided *assignment* when windows are disjoint
  (``stride >= kernel``).
* :func:`pool_windows` exposes pooling receptive fields as a zero-copy
  strided view; the pooling layers themselves reduce over shifted zero-copy
  slices without ever materializing windows.

The original offset-loop kernels are preserved in
:mod:`repro.nn._reference` for parity tests and benchmarks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import ShapeError
from repro.nn.dtype import as_float, default_dtype


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Return the spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding} gives non-positive output {out}"
        )
    return out


def is_channels_last(x: np.ndarray) -> bool:
    """Whether an NCHW-shaped batch is laid out channels-last (NHWC) in memory.

    An array that is C-contiguous as well (``C == 1`` or ``H == W == 1``, where
    both orders coincide) counts as NCHW, so such callers keep their layout.
    """
    return (
        x.ndim == 4
        and not x.flags.c_contiguous
        and x.transpose(0, 2, 3, 1).flags.c_contiguous
    )


def image_buffer(
    shape: Tuple[int, int, int, int], dtype, *, channels_last: bool, alloc=np.zeros
) -> np.ndarray:
    """A new NCHW-shaped batch from ``alloc``, NHWC in memory if asked."""
    n, c, h, w = shape
    if not channels_last:
        return alloc(shape, dtype=dtype)
    return alloc((n, h, w, c), dtype=dtype).transpose(0, 3, 1, 2)


def pad_images(x: np.ndarray, padding: int, *, value: float = 0.0) -> np.ndarray:
    """Pad an NCHW batch symmetrically along the spatial axes with ``value``.

    Max pooling pads with ``-inf`` so padding can never win the max (and can
    therefore never swallow gradient); everything else pads with zeros.  The
    padded copy keeps ``x``'s memory layout (see :func:`is_channels_last`).
    """
    if padding == 0:
        return x
    n, c, h, w = x.shape
    p = padding
    padded = image_buffer(
        (n, c, h + 2 * p, w + 2 * p), x.dtype, channels_last=is_channels_last(x), alloc=np.empty
    )
    padded[:, :, p:-p, p:-p] = x
    padded[:, :, :p] = value
    padded[:, :, -p:] = value
    padded[:, :, p:-p, :p] = value
    padded[:, :, p:-p, -p:] = value
    return padded


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, padding: int = 0
) -> Tuple[np.ndarray, int, int]:
    """Unfold an NCHW batch into a patch matrix for matrix-multiply convolution.

    Parameters
    ----------
    x:
        Input images of shape ``(N, C, H, W)``.
    kernel_h, kernel_w:
        Spatial extent of the convolution kernel.
    stride, padding:
        Convolution stride and symmetric zero padding.

    Returns
    -------
    cols:
        Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)`` where
        each row is one receptive field, flattened channel-major.
    out_h, out_w:
        Spatial output dimensions.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects a 4-D NCHW array, got shape {x.shape}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    x_padded = pad_images(x, padding)
    hp, wp = x_padded.shape[2:]
    # Each image flattened in its memory order: a view unless ``x`` is
    # neither NCHW- nor NHWC-contiguous.  The batch is gathered by a single
    # ``take`` whose inner loop is a flat per-element copy, not the k-element
    # runs a strided reshape of the window view would copy.
    channels_last = is_channels_last(x_padded)
    if channels_last:
        images = x_padded.transpose(0, 2, 3, 1).reshape(n, hp * wp * c)
    else:
        images = x_padded.reshape(n, c * hp * wp)
    index = _patch_index(hp, wp, c, kernel_h, kernel_w, stride, channels_last)
    cols = np.take(images, index, axis=1).reshape(n * out_h * out_w, index.shape[1])
    return cols, out_h, out_w


@lru_cache(maxsize=64)
def _patch_index(
    hp: int, wp: int, c: int, kernel_h: int, kernel_w: int, stride: int, channels_last: bool
) -> np.ndarray:
    """One padded image's patch-index table for :func:`im2col` (read-only).

    Row ``(y, x)``, column ``(c, i, j)`` holds the flat offset, within one
    image's memory, of the entry that patch-matrix cell reads.  Cached per
    geometry, so a call pays only the batch gather.
    """
    if channels_last:
        offsets = np.arange(hp * wp * c).reshape(hp, wp, c)
    else:
        offsets = np.arange(c * hp * wp).reshape(c, hp, wp).transpose(1, 2, 0)
    windows = sliding_window_view(offsets, (kernel_h, kernel_w), axis=(0, 1))[::stride, ::stride]
    index = windows.reshape(-1, c * kernel_h * kernel_w)
    index.flags.writeable = False
    return index


#: Column-gradient bytes :func:`col2im` accumulates per image block; sized so
#: a block stays resident in a 2 MiB per-core L2 cache across the ``k²`` adds.
COL2IM_BLOCK_BYTES = 1 << 21


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold a patch matrix back into an NCHW batch (adjoint of :func:`im2col`).

    Overlapping patch contributions are summed, which is exactly the gradient
    of :func:`im2col` with respect to its input.  When windows are disjoint
    (``stride >= kernel``) the scatter is a single loop-free strided
    assignment; otherwise one vectorized slice-add per kernel offset
    accumulates the overlaps, a cache-sized block of images at a time.  The
    result is an NCHW-shaped view of channels-last memory.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    expected_rows = n * out_h * out_w
    expected_cols = c * kernel_h * kernel_w
    if cols.shape != (expected_rows, expected_cols):
        raise ShapeError(
            f"col2im expected cols of shape {(expected_rows, expected_cols)}, got {cols.shape}"
        )
    cols6 = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    x_padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    if stride >= kernel_h and stride >= kernel_w:
        # Disjoint windows: every padded pixel belongs to at most one window,
        # so the adjoint is a pure (vectorized) scatter with no accumulation.
        target = sliding_window_view(
            x_padded, (kernel_h, kernel_w), axis=(1, 2), writeable=True
        )
        target[:, ::stride, ::stride] = cols6
        return _crop_nhwc(x_padded, padding)
    # Overlapping windows: accumulate one kernel offset at a time into the
    # NHWC buffer, whose (out_w, C) block is contiguous and matches the
    # column layout, so each add streams one long row per output line.
    # Images are taken a block at a time so the block's columns stay in cache
    # across the k² adds.  Every pixel still sums its offsets in (i, j) order,
    # one image at a time, so the result is bit-identical to the unblocked
    # scatter.
    block = max(1, COL2IM_BLOCK_BYTES // (cols.itemsize * out_h * out_w * expected_cols))
    for start in range(0, n, block):
        source = cols6[start:start + block]
        target = x_padded[start:start + block]
        for i in range(kernel_h):
            i_max = i + stride * out_h
            for j in range(kernel_w):
                j_max = j + stride * out_w
                target[:, i:i_max:stride, j:j_max:stride, :] += source[:, :, :, :, i, j]
    return _crop_nhwc(x_padded, padding)


def _crop_nhwc(x_padded: np.ndarray, padding: int) -> np.ndarray:
    """Crop a padded NHWC buffer and view it NCHW-shaped (no copy)."""
    if padding:
        x_padded = x_padded[:, padding:-padding, padding:-padding, :]
    return x_padded.transpose(0, 3, 1, 2)


#: Minimum input-channel count for the fused per-offset conv backward; below
#: this the per-offset matmuls are too skinny to beat one large matmul.
FUSED_BACKWARD_MIN_CHANNELS = 8


def conv_backward_input(
    grad_mat: np.ndarray,
    weight_matrix: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Input gradient of an im2col convolution, fused per kernel offset.

    Computes ``col2im(grad_mat @ weight_matrix)`` — when profitable without
    materializing the ``(N·out_h·out_w, C·kh·kw)`` column gradient: for every
    kernel offset ``(i, j)`` the slice ``weight_matrix[:, :, i, j]`` (viewing
    the matrix as ``(out, C, kh, kw)``) is multiplied against ``grad_mat``
    and the ``(N·out_h·out_w, C)`` result is accumulated straight into the
    padded input gradient.  For overlapping windows with enough input
    channels this replaces the single large matmul + contiguous prefetch +
    k² strided adds of the unfused path with k² small matmuls that write
    directly to their destination, skipping one full-size intermediate array
    (~2x on 5×5/stride-1 mid-network convolutions).  Disjoint windows keep
    the loop-free strided-assignment path, and narrow inputs (fewer than
    ``FUSED_BACKWARD_MIN_CHANNELS`` channels, where the per-offset matmuls
    are too skinny for BLAS to win) keep the unfused path.

    Parameters
    ----------
    grad_mat:
        Output gradient as a ``(N·out_h·out_w, out_like)`` matrix (the same
        orientation the forward pass multiplies from the right).
    weight_matrix:
        ``(out_like, C·kh·kw)`` weight matrix (``Conv2D.weight_matrix``, or a
        low-rank factor transposed to this orientation).
    input_shape, kernel_h, kernel_w, stride, padding:
        The convolution geometry being differentiated.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    expected_rows = n * out_h * out_w
    if grad_mat.shape[0] != expected_rows:
        raise ShapeError(
            f"conv_backward_input expected grad_mat with {expected_rows} rows, "
            f"got shape {grad_mat.shape}"
        )
    if weight_matrix.shape != (grad_mat.shape[1], c * kernel_h * kernel_w):
        raise ShapeError(
            f"conv_backward_input expected weight_matrix of shape "
            f"{(grad_mat.shape[1], c * kernel_h * kernel_w)}, got {weight_matrix.shape}"
        )
    if (stride >= kernel_h and stride >= kernel_w) or c < FUSED_BACKWARD_MIN_CHANNELS:
        return col2im(
            grad_mat @ weight_matrix, input_shape, kernel_h, kernel_w, stride, padding
        )
    weight4 = weight_matrix.reshape(grad_mat.shape[1], c, kernel_h, kernel_w)
    # NHWC accumulator: each contribution's rows are (n, y, x) with C
    # contiguous, so every add streams contiguous C-runs into place.
    x_padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=grad_mat.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            contribution = grad_mat @ weight4[:, :, i, j]  # (N·out_h·out_w, C)
            x_padded[:, i:i_max:stride, j:j_max:stride, :] += contribution.reshape(
                n, out_h, out_w, c
            )
    return _crop_nhwc(x_padded, padding)


def pool_windows(
    x: np.ndarray, pool_size: int, stride: int, padding: int, *, pad_value: float = 0.0
) -> Tuple[np.ndarray, int, int]:
    """Zero-copy ``(N, C, out_h, out_w, k, k)`` view of all pooling windows.

    The view aliases (a padded copy of) ``x``; reduce over the last two axes
    to pool.  ``pad_value`` selects the padding identity (``0`` for average
    pooling, ``-inf`` for max pooling).
    """
    if x.ndim != 4:
        raise ShapeError(f"pool_windows expects a 4-D NCHW array, got shape {x.shape}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, pool_size, stride, padding)
    out_w = conv_output_size(w, pool_size, stride, padding)
    x_padded = pad_images(x, padding, value=pad_value)
    windows = sliding_window_view(x_padded, (pool_size, pool_size), axis=(2, 3))
    return windows[:, :, ::stride, ::stride], out_h, out_w


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer class labels as a ``(len(labels), num_classes)`` one-hot matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must be in [0, {num_classes - 1}], got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=default_dtype())
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable element-wise logistic sigmoid."""
    x = as_float(x)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out
