"""Parity tests: vectorized kernels vs the preserved loop reference kernels.

The vectorized im2col/col2im and pooling paths must match the seed's
offset-loop implementations (kept in :mod:`repro.nn._reference`) to 1e-12 on
randomized shapes — in fact they are bit-identical everywhere the semantics
did not intentionally change (max pooling with ``padding > 0`` now pads with
``-inf`` instead of zero; see ``TestMaxPoolPaddingFix``).
"""

import numpy as np
import pytest

from repro.nn import _reference as ref
from repro.nn import functional as F
from repro.nn.layers import AvgPool2D, MaxPool2D

ATOL = 1e-12


def random_conv_cases(rng):
    """Randomized (shape, kernel, stride, padding) conv geometries."""
    cases = []
    for _ in range(12):
        n = int(rng.integers(1, 5))
        c = int(rng.integers(1, 4))
        kernel = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 3))
        # Input large enough to give a positive output size.
        min_side = max(kernel - 2 * padding, 1)
        h = int(rng.integers(min_side + 2, min_side + 11))
        w = int(rng.integers(min_side + 2, min_side + 11))
        cases.append(((n, c, h, w), kernel, stride, padding))
    # Deterministic corner cases: 1x1 kernel, disjoint stride, kernel == input.
    cases.append(((2, 3, 8, 8), 1, 1, 0))
    cases.append(((2, 3, 8, 8), 2, 2, 0))
    cases.append(((1, 1, 4, 4), 4, 4, 0))
    cases.append(((2, 2, 5, 5), 3, 3, 1))
    return cases


class TestConvKernelParity:
    def test_im2col_matches_loop_reference(self, rng):
        for shape, kernel, stride, padding in random_conv_cases(rng):
            x = rng.standard_normal(shape)
            cols_new, oh_new, ow_new = F.im2col(x, kernel, kernel, stride, padding)
            cols_ref, oh_ref, ow_ref = ref.im2col_loop(x, kernel, kernel, stride, padding)
            assert (oh_new, ow_new) == (oh_ref, ow_ref)
            np.testing.assert_allclose(cols_new, cols_ref, atol=ATOL, rtol=0)

    def test_col2im_matches_loop_reference(self, rng):
        for shape, kernel, stride, padding in random_conv_cases(rng):
            x = rng.standard_normal(shape)
            cols, _, _ = F.im2col(x, kernel, kernel, stride, padding)
            grad_cols = rng.standard_normal(cols.shape)
            new = F.col2im(grad_cols, shape, kernel, kernel, stride, padding)
            expected = ref.col2im_loop(grad_cols, shape, kernel, kernel, stride, padding)
            np.testing.assert_allclose(new, expected, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("block_images", [1, 2, 3])
    def test_col2im_blocking_is_bit_identical(
        self, rng, monkeypatch, channels_last, block_images
    ):
        """Splitting the batch into image blocks never changes a single bit."""
        shape, kernel, stride, padding = (7, 3, 9, 8), 3, 1, 1
        x = rng.standard_normal(shape)
        cols, out_h, out_w = F.im2col(x, kernel, kernel, stride, padding)
        grad_cols = rng.standard_normal(cols.shape)
        expected = ref.col2im_loop(grad_cols, shape, kernel, kernel, stride, padding)
        image_bytes = grad_cols.itemsize * out_h * out_w * cols.shape[1]
        monkeypatch.setattr(F, "COL2IM_BLOCK_BYTES", block_images * image_bytes)
        new = F.col2im(grad_cols, shape, kernel, kernel, stride, padding)
        # Layout contract: the NHWC accumulator comes back as an NCHW view.
        assert channels_last(new)
        np.testing.assert_array_equal(new, expected)

    def test_rectangular_kernels(self, rng):
        x = rng.standard_normal((2, 3, 9, 11))
        for kh, kw in [(1, 3), (3, 1), (2, 4)]:
            cols_new, _, _ = F.im2col(x, kh, kw, 1, 1)
            cols_ref, _, _ = ref.im2col_loop(x, kh, kw, 1, 1)
            np.testing.assert_allclose(cols_new, cols_ref, atol=ATOL, rtol=0)
            g = rng.standard_normal(cols_new.shape)
            np.testing.assert_allclose(
                F.col2im(g, x.shape, kh, kw, 1, 1),
                ref.col2im_loop(g, x.shape, kh, kw, 1, 1),
                atol=ATOL,
                rtol=0,
            )

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), g> == <x, col2im(g)> — the defining adjoint identity."""
        shape = (3, 2, 7, 7)
        x = rng.standard_normal(shape)
        cols, _, _ = F.im2col(x, 3, 3, 2, 1)
        g = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * g))
        rhs = float(np.sum(x * F.col2im(g, shape, 3, 3, 2, 1)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pool_windows_matches_loop_reference(self, rng):
        for pool, stride, padding in [(2, 2, 0), (3, 2, 1), (2, 1, 0), (3, 3, 0)]:
            x = rng.standard_normal((2, 3, 8, 8))
            win_new, oh, ow = F.pool_windows(x, pool, stride, padding)
            win_ref, oh_r, ow_r = ref.extract_pool_windows_loop(x, pool, stride, padding)
            assert (oh, ow) == (oh_r, ow_r)
            flat = win_new.reshape(win_new.shape[:4] + (pool * pool,))
            np.testing.assert_allclose(flat, win_ref, atol=ATOL, rtol=0)


class TestFusedConvBackwardParity:
    """conv_backward_input must equal col2im(grad_mat @ W) to 1e-12."""

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding,out_like",
        [
            ((2, 16, 10, 10), 3, 1, 1, 12),  # fused path (c >= threshold)
            ((2, 8, 9, 9), 5, 1, 2, 6),      # fused path, rank-like out dim
            ((3, 3, 8, 8), 3, 1, 1, 10),     # narrow input -> unfused dispatch
            ((2, 16, 8, 8), 2, 2, 0, 7),     # disjoint stride -> unfused dispatch
            ((1, 9, 6, 6), 3, 2, 1, 5),      # overlapping strided
        ],
    )
    def test_matches_unfused_reference(self, rng, shape, kernel, stride, padding, out_like):
        n, c, h, w = shape
        out_h = F.conv_output_size(h, kernel, stride, padding)
        out_w = F.conv_output_size(w, kernel, stride, padding)
        grad_mat = rng.standard_normal((n * out_h * out_w, out_like))
        weight = rng.standard_normal((out_like, c * kernel * kernel))
        fused = F.conv_backward_input(
            grad_mat, weight, shape, kernel, kernel, stride, padding
        )
        reference = ref.col2im_loop(
            grad_mat @ weight, shape, kernel, kernel, stride, padding
        )
        np.testing.assert_allclose(fused, reference, atol=ATOL, rtol=0)

    def test_shape_validation(self, rng):
        grad_mat = rng.standard_normal((8, 4))
        weight = rng.standard_normal((4, 9))
        with pytest.raises(Exception):
            F.conv_backward_input(grad_mat, weight, (1, 1, 5, 5), 3, 3, 1, 0)
        with pytest.raises(Exception):
            F.conv_backward_input(
                rng.standard_normal((9, 4)), rng.standard_normal((5, 9)),
                (1, 1, 5, 5), 3, 3, 1, 0,
            )

    def test_conv_layer_backward_matches_manual_reference(self, rng):
        """Full Conv2D backward (fused path) vs the reference col2im chain."""
        from repro.nn.layers import Conv2D

        layer = Conv2D(16, 6, 3, stride=1, padding=1, rng=rng)
        x = rng.standard_normal((2, 16, 7, 7))
        layer.train()
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, 6)
        expected = ref.col2im_loop(
            grad_mat @ layer.weight_matrix, x.shape, 3, 3, 1, 1
        )
        np.testing.assert_allclose(grad_in, expected, atol=ATOL, rtol=0)


class TestPoolingLayerParity:
    @pytest.mark.parametrize("pool,stride", [(2, 2), (3, 2), (2, 1), (3, 3)])
    def test_maxpool_unpadded_matches_reference(self, rng, pool, stride):
        x = rng.standard_normal((3, 2, 9, 9))
        layer = MaxPool2D(pool, stride)
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        out_ref, grad_ref = ref.maxpool_forward_backward_loop(x, pool, stride, 0, grad_out)
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad_in, grad_ref, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("pool,stride,padding", [(2, 2, 0), (3, 2, 1), (2, 1, 0)])
    def test_avgpool_matches_reference(self, rng, pool, stride, padding):
        x = rng.standard_normal((3, 2, 8, 8))
        layer = AvgPool2D(pool, stride, padding=padding)
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        out_ref, grad_ref = ref.avgpool_forward_backward_loop(x, pool, stride, padding, grad_out)
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad_in, grad_ref, atol=ATOL, rtol=0)

    def test_maxpool_tie_breaking_matches_reference_argmax(self):
        """All-tied windows (e.g. post-ReLU zeros) must route gradient like argmax."""
        x = np.zeros((2, 2, 4, 4))
        layer = MaxPool2D(2, 2)
        out = layer.forward(x)
        grad_out = np.arange(out.size, dtype=float).reshape(out.shape) + 1.0
        grad_in = layer.backward(grad_out)
        out_ref, grad_ref = ref.maxpool_forward_backward_loop(x, 2, 2, 0, grad_out)
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad_in, grad_ref, atol=ATOL, rtol=0)

    def test_maxpool_padded_positive_input_matches_reference(self, rng):
        """With strictly positive inputs the -inf padding fix changes nothing."""
        x = np.abs(rng.standard_normal((2, 2, 6, 6))) + 0.5
        layer = MaxPool2D(3, 2, padding=1)
        out = layer.forward(x)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        out_ref, grad_ref = ref.maxpool_forward_backward_loop(x, 3, 2, 1, grad_out)
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
        np.testing.assert_allclose(grad_in, grad_ref, atol=ATOL, rtol=0)


def to_channels_last(x):
    """The same values as ``x``, NCHW-shaped, NHWC in memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class TestChannelsLastLayout:
    """Kernels follow their input's memory order; values never change."""

    def test_pad_images_follows_input_layout(self, rng, channels_last):
        x = rng.standard_normal((2, 3, 5, 4))
        for value in (0.0, -np.inf):
            expected = np.pad(
                x, ((0, 0), (0, 0), (2, 2), (2, 2)), constant_values=value
            )
            nchw = F.pad_images(x, 2, value=value)
            nhwc = F.pad_images(to_channels_last(x), 2, value=value)
            assert nchw.flags.c_contiguous
            assert channels_last(nhwc) and F.is_channels_last(nhwc)
            np.testing.assert_array_equal(nchw, expected)
            np.testing.assert_array_equal(nhwc, expected)

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (2, 2, 0), (3, 3, 1)])
    def test_im2col_is_layout_independent(self, rng, kernel, stride, padding):
        x = rng.standard_normal((2, 3, 7, 6))
        strided = rng.standard_normal((2, 3, 14, 6))[:, :, ::2]  # neither layout
        for variant in (to_channels_last(x), strided):
            cols, _, _ = F.im2col(variant, kernel, kernel, stride, padding)
            expected, _, _ = ref.im2col_loop(
                np.ascontiguousarray(variant), kernel, kernel, stride, padding
            )
            assert cols.flags.c_contiguous
            np.testing.assert_array_equal(cols, expected)
        empty, _, _ = F.im2col(x[:0], kernel, kernel, stride, padding)
        assert empty.shape == (0, 3 * kernel * kernel)

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (2, 2, 0), (3, 3, 1)])
    def test_col2im_returns_channels_last(self, rng, channels_last, kernel, stride, padding):
        shape = (2, 3, 7, 6)
        cols, _, _ = F.im2col(rng.standard_normal(shape), kernel, kernel, stride, padding)
        grad_cols = rng.standard_normal(cols.shape)
        new = F.col2im(grad_cols, shape, kernel, kernel, stride, padding)
        assert channels_last(new)
        np.testing.assert_array_equal(
            new, ref.col2im_loop(grad_cols, shape, kernel, kernel, stride, padding)
        )

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [((2, 16, 8, 8), 3, 1, 1), ((2, 3, 8, 8), 3, 1, 1), ((2, 16, 8, 8), 2, 2, 0)],
        ids=["fused", "narrow", "disjoint"],
    )
    def test_conv_backward_input_returns_channels_last(
        self, rng, channels_last, shape, kernel, stride, padding
    ):
        n, c, h, w = shape
        rows = n * F.conv_output_size(h, kernel, stride, padding) * F.conv_output_size(
            w, kernel, stride, padding
        )
        grad_mat = rng.standard_normal((rows, 5))
        weight = rng.standard_normal((5, c * kernel * kernel))
        grad_in = F.conv_backward_input(grad_mat, weight, shape, kernel, kernel, stride, padding)
        assert channels_last(grad_in)

    @pytest.mark.parametrize("layer_cls", [MaxPool2D, AvgPool2D])
    @pytest.mark.parametrize("pool,stride,padding", [(2, 2, 0), (3, 2, 1)])
    def test_pool_forward_backward_follow_input_layout(
        self, rng, channels_last, layer_cls, pool, stride, padding
    ):
        x = rng.standard_normal((2, 3, 8, 8))
        results = {}
        for name, data in (("nchw", x), ("nhwc", to_channels_last(x))):
            layer = layer_cls(pool, stride, padding=padding)
            out = layer.forward(data)
            grad_in = layer.backward(np.ones_like(out) + out)
            results[name] = (out, grad_in)
        for array in results["nchw"]:
            # NCHW memory order (a padded gradient is a cropped view).
            assert array.strides[3] == array.itemsize
            assert list(array.strides) == sorted(array.strides, reverse=True)
        for array in results["nhwc"]:
            assert channels_last(array)
        for a, b in zip(results["nchw"], results["nhwc"]):
            np.testing.assert_array_equal(a, b)


def argmax_map_by_equality(x, pool, stride, padding):
    """The arg-max map built the pre-fold way: lowest offset equal to the max."""
    x_padded = F.pad_images(x, padding, value=-np.inf)
    out_h = F.conv_output_size(x.shape[2], pool, stride, padding)
    out_w = F.conv_output_size(x.shape[3], pool, stride, padding)
    slabs = [
        x_padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
        for i in range(pool)
        for j in range(pool)
    ]
    out = np.maximum.reduce(slabs)
    argmax = np.zeros(out.shape, dtype=np.int16)
    for t in range(len(slabs) - 1, -1, -1):
        np.copyto(argmax, np.int16(t), where=(slabs[t] == out))
    return out, argmax


class TestMaxPoolArgmaxFold:
    """The arg-max map built inside the max fold equals the equality-pass map."""

    @pytest.mark.parametrize("pool,stride,padding", [(2, 2, 0), (3, 2, 1), (2, 1, 1)])
    def test_ties_infinities_and_nans(self, rng, pool, stride, padding):
        # Few distinct values force ties; -inf, +-0.0 and NaN cover the edges.
        x = rng.integers(-2, 3, size=(3, 4, 7, 7)).astype(float)
        x[0, 0, :3, :3] = -np.inf
        x[0, 1, 1, 1] = np.nan
        x[1, 2, :, :4] = -0.0
        x[1, 2, :, 4:] = 0.0
        layer = MaxPool2D(pool, stride, padding=padding)
        out = layer.forward(x)
        expected_out, expected_argmax = argmax_map_by_equality(x, pool, stride, padding)
        np.testing.assert_array_equal(out, expected_out)
        assert np.signbit(out).tolist() == np.signbit(expected_out).tolist()
        np.testing.assert_array_equal(layer._argmax, expected_argmax)


class TestMaxPoolPaddingFix:
    """Regression tests: padding must not win the max nor swallow gradient."""

    def test_all_negative_input_ignores_padding(self):
        x = -np.abs(np.random.default_rng(0).standard_normal((2, 3, 4, 4))) - 0.1
        layer = MaxPool2D(2, 2, padding=1)
        out = layer.forward(x)
        # Zero padding would have produced 0.0 in every border window; the
        # -inf padding must select the largest *real* (negative) entry.
        assert np.all(out < 0)

    def test_gradient_flows_for_all_negative_windows(self, grad_checker):
        rng = np.random.default_rng(3)
        x = -np.abs(rng.standard_normal((1, 1, 4, 4))) - 0.1
        layer = MaxPool2D(2, 2, padding=1)
        target = rng.standard_normal(layer.output_shape((1, 4, 4)))[None]

        def loss():
            return 0.5 * float(np.sum((layer.forward(x) - target) ** 2))

        out = layer.forward(x)
        grad_in = layer.backward(out - target)
        numeric = grad_checker(loss, x)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-6)
        # Every output window routes its gradient to a real input position,
        # so the total gradient mass is conserved (nothing cropped away).
        assert np.count_nonzero(grad_in) > 0

    def test_gradient_mass_conserved_with_padding(self):
        rng = np.random.default_rng(4)
        x = -np.abs(rng.standard_normal((2, 2, 4, 4))) - 0.1
        layer = MaxPool2D(2, 2, padding=1)
        out = layer.forward(x)
        grad_out = np.ones_like(out)
        grad_in = layer.backward(grad_out)
        # Disjoint windows: each unit of output gradient lands on exactly one
        # input entry.  With zero padding, border windows lost their unit.
        assert float(grad_in.sum()) == pytest.approx(float(grad_out.sum()))

    def test_padding_at_least_pool_size_rejected(self):
        """padding >= pool_size would create windows made purely of padding."""
        for layer_cls in (MaxPool2D, AvgPool2D):
            with pytest.raises(ValueError):
                layer_cls(2, 2, padding=2)
            with pytest.raises(ValueError):
                layer_cls(2, 2, padding=3)

    def test_avgpool_keeps_zero_padding_semantics(self, rng):
        """Average pooling still counts padded zeros toward the mean."""
        x = rng.standard_normal((1, 1, 2, 2))
        layer = AvgPool2D(2, 2, padding=1)
        out = layer.forward(x)
        out_ref, _ = ref.avgpool_forward_backward_loop(x, 2, 2, 1, np.zeros_like(out))
        np.testing.assert_allclose(out, out_ref, atol=ATOL, rtol=0)
