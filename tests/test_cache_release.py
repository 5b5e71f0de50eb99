"""Cache-lifecycle regression tests.

Backward context must be cached only in training mode and dropped at the end
of ``backward`` — layers must not retain O(batch) activations across
iterations or in inference-only use (seed bug: ``Conv2D._cols_cache``,
pooling windows and the linear/low-rank input caches lived forever).
"""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn import (
    AvgPool2D,
    Conv2D,
    Linear,
    LowRankConv2D,
    LowRankLinear,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.layers import Flatten


def cached_values(layer):
    """The layer's cache-slot values, in declaration order."""
    return [getattr(layer, attr) for attr in layer._cache_attrs]


def make_layers():
    return [
        (Conv2D(2, 3, 3, rng=0), np.ones((2, 2, 6, 6))),
        (LowRankConv2D(2, 3, 3, rank=2, rng=0), np.ones((2, 2, 6, 6))),
        (Linear(5, 4, rng=0), np.ones((2, 5))),
        (LowRankLinear(5, 4, rank=2, rng=0), np.ones((2, 5))),
        (MaxPool2D(2, 2), np.ones((2, 2, 6, 6))),
        (AvgPool2D(2, 2), np.ones((2, 2, 6, 6))),
        (ReLU(), np.ones((2, 5))),
        (Flatten(), np.ones((2, 2, 3))),
    ]


class TestCacheLifecycle:
    def test_training_forward_populates_caches(self):
        for layer, x in make_layers():
            layer.train()
            layer.forward(x)
            assert any(v is not None for v in cached_values(layer)), layer

    def test_backward_releases_caches(self):
        for layer, x in make_layers():
            layer.train()
            out = layer.forward(x)
            layer.backward(np.ones_like(out))
            assert all(v is None for v in cached_values(layer)), layer

    def test_second_backward_raises(self):
        layer = Conv2D(2, 3, 3, rng=0)
        out = layer.forward(np.ones((2, 2, 6, 6)))
        grad = np.ones_like(out)
        layer.backward(grad)
        with pytest.raises(ShapeError):
            layer.backward(grad)

    def test_eval_forward_skips_caching(self):
        for layer, x in make_layers():
            layer.eval()
            layer.forward(x)
            assert all(v is None for v in cached_values(layer)), layer

    def test_eval_forward_clears_stale_training_caches(self):
        layer = Conv2D(2, 3, 3, rng=0)
        layer.train()
        layer.forward(np.ones((2, 2, 6, 6)))
        assert layer._cols_cache is not None
        layer.eval()
        layer.forward(np.ones((2, 2, 6, 6)))
        assert layer._cols_cache is None

    def test_predict_leaves_no_caches(self):
        network = Sequential(
            [Conv2D(1, 2, 3, rng=0, name="c"), MaxPool2D(2, 2), Flatten(), Linear(8, 3, rng=1)]
        )
        network.predict(np.ones((4, 1, 6, 6)))
        for layer in network:
            assert all(v is None for v in cached_values(layer)), layer

    def test_release_caches_on_network(self):
        network = Sequential([Linear(5, 4, rng=0, name="a"), ReLU(), Linear(4, 2, rng=1, name="b")])
        network.train()
        network.forward(np.ones((3, 5)))
        assert any(any(v is not None for v in cached_values(l)) for l in network)
        network.release_caches()
        for layer in network:
            assert all(v is None for v in cached_values(layer)), layer

    def test_training_loop_still_works_after_release(self):
        """forward → backward → forward → backward keeps functioning."""
        layer = Linear(5, 4, rng=0)
        for _ in range(3):
            out = layer.forward(np.ones((2, 5)))
            layer.backward(np.ones_like(out))


class TestLossCacheLifecycle:
    def test_losses_release_caches_after_backward(self):
        from repro.nn import L1Loss, MSELoss, SoftmaxCrossEntropy

        rng = np.random.default_rng(0)
        sce = SoftmaxCrossEntropy()
        sce.forward(rng.standard_normal((8, 4)), np.arange(8) % 4)
        assert sce._probs is not None
        sce.backward()
        assert sce._probs is None and sce._targets is None
        for loss in (MSELoss(), L1Loss()):
            loss.forward(rng.standard_normal((8, 4)), rng.standard_normal((8, 4)))
            assert loss._diff is not None
            loss.backward()
            assert loss._diff is None
        with pytest.raises(ShapeError):
            sce.backward()


def small_convnet(lowrank: bool):
    from repro.core import convert_to_lowrank
    from repro.models.convnet import ConvNetConfig, build_convnet

    network = build_convnet(ConvNetConfig.small(), rng=0)
    if lowrank:
        network = convert_to_lowrank(
            network, ranks={"conv1": 4, "conv2": 5, "conv3": 6}, layers=("conv1", "conv2", "conv3")
        )
    return network, np.random.default_rng(1).standard_normal((4, 3, 16, 16))


def prefixed_mlp():
    from repro.models import build_mlp

    mlp = build_mlp(12, [8], 3, rng=0)
    network = Sequential([Flatten(name="flatten"), ReLU(name="prefix_relu")] + mlp.layers)
    return network, np.random.default_rng(1).standard_normal((5, 2, 3, 2))


class TestParameterOnlyBackward:
    """``Sequential.backward(need_input=False)`` stops at the first weighted layer."""

    @pytest.mark.parametrize(
        "make",
        [lambda: small_convnet(False), lambda: small_convnet(True), prefixed_mlp],
        ids=["convnet", "lra-convnet", "flatten-relu-prefix"],
    )
    def test_parameter_gradients_bit_identical(self, make):
        full, x = make()
        partial, _ = make()
        grads = {}
        for network, need_input in ((full, True), (partial, False)):
            network.train()
            network.zero_grad()
            out = network.forward(x)
            grad_out = np.cos(np.arange(out.size, dtype=float)).reshape(out.shape)
            result = network.backward(grad_out, need_input=need_input)
            if need_input:
                assert result.shape == x.shape
            else:
                assert result is None
            grads[need_input] = {name: p.grad.copy() for name, p in network.named_parameters()}
            for layer in network:
                assert all(v is None for v in cached_values(layer)), layer
        assert grads[True].keys() == grads[False].keys()
        for name, grad in grads[True].items():
            np.testing.assert_array_equal(grads[False][name], grad, err_msg=name)

    def test_network_without_parameters_only_releases_caches(self):
        network = Sequential([Flatten(), ReLU()])
        network.train()
        network.forward(np.ones((2, 2, 3)))
        assert network.backward(np.ones((2, 6)), need_input=False) is None
        for layer in network:
            assert all(v is None for v in cached_values(layer)), layer
