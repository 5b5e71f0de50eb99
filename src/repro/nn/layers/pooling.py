"""Spatial pooling layers (max and average).

Both layers pool by reducing over the ``k²`` shifted zero-copy strided slices
of the (padded) input rather than materializing an explicit window tensor —
for the small kernels used here this measures >2x faster than the windowed
formulation and allocates nothing beyond the output.  Max pooling pads with
``-inf`` so an all-negative window can never arg-max onto the padding (whose
gradient would be silently cropped away); average pooling keeps zero padding
(padded positions count toward the mean, matching the seed semantics).

Outputs, arg-max maps and input gradients are allocated in the memory order
of the forward input (see :func:`repro.nn.functional.is_channels_last`):
channels-last activations stay channels-last, NCHW-contiguous ones stay
NCHW, and every array keeps its NCHW shape either way.

Backward context follows the cache lifecycle documented in
:mod:`repro.nn.layers.base`: max pooling caches only the compact arg-max
index map (``k²`` times smaller than the window tensor the seed
implementation retained), average pooling only the input geometry, both only
in training mode, and both release their caches at the end of ``backward``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.dtype import as_float, default_dtype
from repro.nn.functional import conv_output_size, image_buffer, is_channels_last, pad_images
from repro.nn.layers.base import Layer
from repro.utils.validation import check_positive_int


class _Pool2D(Layer):
    """Shared geometry/bookkeeping for 2-D pooling layers."""

    _cache_attrs = ("_input_shape", "_out_hw", "_channels_last")

    def __init__(
        self,
        pool_size: int = 2,
        stride: Optional[int] = None,
        *,
        padding: int = 0,
        name: str = "",
    ):
        super().__init__(name=name or type(self).__name__.lower())
        self.pool_size = check_positive_int(pool_size, "pool_size")
        self.stride = check_positive_int(stride if stride is not None else pool_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        if padding >= self.pool_size:
            # With padding >= pool_size a border window can lie entirely in
            # the padding: its output would be a pure padding artifact (-inf
            # for max pooling) and its gradient would vanish.
            raise ValueError(
                f"padding must be < pool_size, got padding={padding} "
                f"with pool_size={self.pool_size}"
            )
        self.padding = int(padding)
        self._input_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None
        self._channels_last: Optional[bool] = None

    # ------------------------------------------------------------- geometry
    def _check_input(self, x: np.ndarray) -> Tuple[int, int]:
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NCHW input, got shape {x.shape}")
        out_h = conv_output_size(x.shape[2], self.pool_size, self.stride, self.padding)
        out_w = conv_output_size(x.shape[3], self.pool_size, self.stride, self.padding)
        return out_h, out_w

    def _offset_slices(self, out_h: int, out_w: int) -> Iterator[Tuple[slice, slice]]:
        """Spatial slices selecting window entry ``(i, j)`` across all windows."""
        for i in range(self.pool_size):
            row = slice(i, i + self.stride * out_h, self.stride)
            for j in range(self.pool_size):
                yield row, slice(j, j + self.stride * out_w, self.stride)

    def _cache_geometry(self, x: np.ndarray, out_h: int, out_w: int) -> None:
        self._input_shape = x.shape
        self._out_hw = (out_h, out_w)
        self._channels_last = is_channels_last(x)

    def _check_grad(self, grad_output: np.ndarray) -> Tuple[int, int]:
        if self._input_shape is None or self._out_hw is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        n, c, _, _ = self._input_shape
        expected = (n, c) + self._out_hw
        if grad_output.shape != expected:
            raise ShapeError(
                f"{self.name}: expected grad_output of shape {expected}, "
                f"got {grad_output.shape}"
            )
        return self._out_hw

    def _scatter(self, contributions) -> np.ndarray:
        """Sum per-offset gradient contributions into the input and crop padding.

        ``contributions`` maps each kernel offset's spatial slices to a
        ``(N, C, out_h, out_w)``-broadcastable gradient term; each add is one
        vectorized strided operation.  The gradient is allocated in the
        forward input's memory order.
        """
        n, c, h, w = self._input_shape
        grad_padded = image_buffer(
            (n, c, h + 2 * self.padding, w + 2 * self.padding),
            default_dtype(),
            channels_last=self._channels_last,
        )
        for (rows, cols), term in contributions:
            grad_padded[:, :, rows, cols] += term
        if self.padding == 0:
            return grad_padded
        return grad_padded[:, :, self.padding:-self.padding, self.padding:-self.padding]

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(
                f"{self.name}: expected per-sample input shape (C, H, W), got {input_shape}"
            )
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.pool_size, self.stride, self.padding)
        return (c, out_h, out_w)


class MaxPool2D(_Pool2D):
    """Max pooling over non-overlapping or strided windows."""

    _cache_attrs = _Pool2D._cache_attrs + ("_argmax",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float(x)
        out_h, out_w = self._check_input(x)
        # -inf padding: a padded position can never be the window maximum, so
        # gradients always route to a real input entry.
        x_padded = pad_images(x, self.padding, value=-np.inf)
        slabs = [x_padded[:, :, rows, cols] for rows, cols in self._offset_slices(out_h, out_w)]
        # Chained in-place maximum: same left-fold as ``np.maximum.reduce``
        # (max is exact, so bitwise identical) without materializing the
        # (k², N, C, out_h, out_w) stack the reduce would build.  Copies and
        # ufunc outputs keep the input's memory order (``order="K"``).
        out = slabs[0].copy(order="K")
        argmax = np.zeros_like(out, dtype=np.int16) if self.training else None
        for t, slab in enumerate(slabs[1:], start=1):
            if argmax is not None:
                # Compact arg-max map built inside the fold: a strict ``>``
                # against the running max keeps the first/lowest offset on
                # ties, matching ``argmax`` over explicit windows.
                np.copyto(argmax, np.int16(t), where=slab > out)
            np.maximum(out, slab, out=out)
        if argmax is not None:
            # A NaN maximum equals no entry; the explicit-window map points
            # such windows at offset 0.
            nan = np.isnan(out)
            if nan.any():
                argmax[nan] = 0
            self._cache_geometry(x, out_h, out_w)
            self._argmax = argmax
        else:
            self.release_caches()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = as_float(grad_output)
        self._check_grad(grad_output)
        argmax = self._argmax
        out_h, out_w = self._out_hw
        grad_input = self._scatter(
            (spatial, np.where(argmax == t, grad_output, 0.0))
            for t, spatial in enumerate(self._offset_slices(out_h, out_w))
        )
        self.release_caches()
        return grad_input


class AvgPool2D(_Pool2D):
    """Average pooling over non-overlapping or strided windows."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float(x)
        out_h, out_w = self._check_input(x)
        x_padded = pad_images(x, self.padding)
        acc: Optional[np.ndarray] = None
        for rows, cols in self._offset_slices(out_h, out_w):
            slab = x_padded[:, :, rows, cols]
            acc = slab.copy(order="K") if acc is None else np.add(acc, slab, out=acc)
        out = acc / (self.pool_size * self.pool_size)
        if self.training:
            self._cache_geometry(x, out_h, out_w)
        else:
            self.release_caches()
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = as_float(grad_output)
        out_h, out_w = self._check_grad(grad_output)
        share = grad_output / (self.pool_size * self.pool_size)
        grad_input = self._scatter(
            (spatial, share) for spatial in self._offset_slices(out_h, out_w)
        )
        self.release_caches()
        return grad_input
