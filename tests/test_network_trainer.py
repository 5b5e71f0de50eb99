"""Tests for Sequential, regularizers and the Trainer loop."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.exceptions import LayerError, TrainingError
from repro.core import convert_to_lowrank
from repro.models import build_mlp
from repro.models.convnet import ConvNetConfig, build_convnet
from repro.nn import functional as F
from repro.nn import (
    SGD,
    Callback,
    LockstepSGD,
    LockstepTrainer,
    NetworkStack,
    GroupLassoRegularizer,
    L2Regularizer,
    Linear,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    Trainer,
    WeightGroup,
    accuracy,
)


class TestSequential:
    def test_add_and_lookup(self):
        net = Sequential([Linear(4, 3, name="fc1", rng=0), ReLU(name="relu1")])
        assert len(net) == 2
        assert net.get_layer("fc1").name == "fc1"
        assert net.layer_index("relu1") == 1
        with pytest.raises(LayerError):
            net.get_layer("missing")

    def test_duplicate_names_rejected(self):
        net = Sequential([Linear(4, 3, name="fc1", rng=0)])
        with pytest.raises(LayerError):
            net.add(Linear(3, 2, name="fc1", rng=0))

    def test_replace_layer(self):
        net = Sequential([Linear(4, 3, name="fc1", rng=0)])
        net.replace_layer("fc1", Linear(4, 3, name="fc1b", rng=1))
        assert net[0].name == "fc1b"

    def test_layers_of_type(self):
        net = build_mlp(8, [6], 3, rng=0)
        assert len(net.layers_of_type(Linear)) == 2
        assert len(net.layers_of_type(ReLU)) == 1

    def test_forward_backward_shapes(self):
        net = build_mlp(8, [6], 3, rng=0)
        x = np.random.default_rng(0).normal(size=(5, 8))
        out = net.forward(x)
        assert out.shape == (5, 3)
        grad_in = net.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_whole_network_gradient_check(self, grad_checker):
        net = build_mlp(6, [5], 3, rng=2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        targets = rng.integers(0, 3, size=4)
        loss = SoftmaxCrossEntropy()

        def value():
            return loss.forward(net.forward(x), targets)

        loss.forward(net.forward(x), targets)
        net.zero_grad()
        net.backward(loss.backward())
        for name, param in net.named_parameters():
            numeric = grad_checker(value, param.data)
            assert np.allclose(param.grad, numeric, atol=1e-6), name

    def test_predict_batches_match_full(self):
        net = build_mlp(8, [6], 3, rng=0)
        x = np.random.default_rng(1).normal(size=(10, 8))
        assert np.allclose(net.predict(x), net.predict(x, batch_size=3))

    def test_predict_classes(self):
        net = build_mlp(8, [6], 3, rng=0)
        x = np.random.default_rng(1).normal(size=(10, 8))
        classes = net.predict_classes(x)
        assert classes.shape == (10,)
        assert set(np.unique(classes)).issubset({0, 1, 2})

    def test_state_dict_roundtrip(self):
        net = build_mlp(8, [6], 3, rng=0)
        state = net.state_dict()
        net2 = build_mlp(8, [6], 3, rng=99)
        net2.load_state_dict(state)
        x = np.random.default_rng(2).normal(size=(4, 8))
        assert np.allclose(net.forward(x), net2.forward(x))

    def test_load_state_dict_strictness(self):
        net = build_mlp(8, [6], 3, rng=0)
        state = net.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(LayerError):
            net.load_state_dict(state)
        net.load_state_dict(state, strict=False)

    def test_load_state_dict_shape_mismatch(self):
        net = build_mlp(8, [6], 3, rng=0)
        state = net.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(LayerError):
            net.load_state_dict(state, strict=False)

    def test_output_shape_and_summary(self):
        net = build_mlp(8, [6], 3, rng=0)
        assert net.output_shape((8,)) == (3,)
        summary = net.summary((8,))
        assert "total parameters" in summary
        assert str(net.num_parameters()) in summary

    def test_train_eval_propagate(self):
        net = build_mlp(8, [6], 3, rng=0)
        net.train()
        assert all(layer.training for layer in net)
        net.eval()
        assert not any(layer.training for layer in net)


class TestRegularizers:
    def test_l2_penalty_and_gradient(self):
        net = build_mlp(4, [3], 2, rng=0)
        reg = L2Regularizer(net.parameters(), strength=0.1)
        expected = 0.05 * sum(float(np.sum(p.data**2)) for p in net.parameters())
        assert reg.penalty() == pytest.approx(expected)
        net.zero_grad()
        reg.apply_gradients()
        for param in net.parameters():
            assert np.allclose(param.grad, 0.1 * param.data)

    def test_group_lasso_penalty(self):
        from repro.nn.parameter import Parameter

        param = Parameter(np.array([[3.0, 4.0], [0.0, 0.0]]))
        groups = [
            WeightGroup(param, (0, slice(None)), "row0", "row"),
            WeightGroup(param, (1, slice(None)), "row1", "row"),
        ]
        reg = GroupLassoRegularizer(groups, strength=2.0)
        assert reg.penalty() == pytest.approx(2.0 * 5.0)
        param.zero_grad()
        reg.apply_gradients()
        assert np.allclose(param.grad[0], 2.0 * np.array([3.0, 4.0]) / 5.0)
        # All-zero group must not produce NaNs.
        assert np.all(np.isfinite(param.grad[1]))

    def test_group_lasso_gradient_matches_numerical(self, grad_checker):
        from repro.nn.parameter import Parameter

        rng = np.random.default_rng(0)
        param = Parameter(rng.normal(size=(4, 6)))
        groups = [WeightGroup(param, (i, slice(None)), f"row{i}", "row") for i in range(4)]
        reg = GroupLassoRegularizer(groups, strength=0.3)

        def penalty():
            return reg.penalty()

        param.zero_grad()
        reg.apply_gradients()
        assert np.allclose(param.grad, grad_checker(penalty, param.data), atol=1e-6)

    def test_zero_groups_listing(self):
        from repro.nn.parameter import Parameter

        param = Parameter(np.array([[1.0, 1.0], [1e-9, 0.0]]))
        groups = [
            WeightGroup(param, (0, slice(None)), "row0", "row"),
            WeightGroup(param, (1, slice(None)), "row1", "row"),
        ]
        reg = GroupLassoRegularizer(groups, strength=1.0)
        zeros = reg.zero_groups(threshold=1e-6)
        assert [g.label for g in zeros] == ["row1"]
        assert len(reg.group_norms()) == 2


class RecordingCallback(Callback):
    def __init__(self):
        self.begin_calls = 0
        self.end_calls = 0
        self.iterations = []

    def on_train_begin(self, trainer):
        self.begin_calls += 1

    def on_iteration_end(self, trainer, iteration):
        self.iterations.append(iteration)

    def on_train_end(self, trainer):
        self.end_calls += 1


class TestTrainer:
    def test_training_reaches_high_accuracy(self, blob_data, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        trainer.run(150)
        assert trainer.evaluate() > 0.9

    def test_history_records_every_iteration(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        trainer.run(30)
        assert trainer.history.iterations == list(range(1, 31))
        assert len(trainer.history.loss) == 30
        assert trainer.history.eval_iterations == [25]
        assert trainer.history.as_dict()["loss"] == trainer.history.loss

    def test_callbacks_invoked(self, mlp_trainer_factory, small_mlp):
        callback = RecordingCallback()
        trainer = mlp_trainer_factory(small_mlp, [callback])
        trainer.run(5)
        assert callback.begin_calls == 1
        assert callback.end_calls == 1
        assert callback.iterations == [1, 2, 3, 4, 5]

    def test_regularizer_penalty_recorded(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        trainer.add_regularizer(L2Regularizer(small_mlp.parameters(), strength=0.01))
        trainer.run(3)
        assert all(p > 0 for p in trainer.history.penalty)
        trainer.remove_regularizer(trainer.regularizers[0])
        trainer.run(2)
        assert trainer.history.penalty[-1] == 0.0

    def test_loss_decreases_on_easy_data(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        trainer.run(120)
        early = np.mean(trainer.history.loss[:10])
        late = np.mean(trainer.history.loss[-10:])
        assert late < early

    def test_rebind_optimizer_tracks_new_parameters(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        layer = small_mlp.get_layer("fc1")
        layer.weight.data = layer.weight.data.copy()  # replace the array object
        trainer.rebind_optimizer()
        assert any(p is layer.weight for p in trainer.optimizer.parameters)

    def test_invalid_arguments(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        with pytest.raises(TrainingError):
            trainer.run(-1)
        with pytest.raises(TrainingError):
            Trainer(
                small_mlp,
                SoftmaxCrossEntropy(),
                trainer.optimizer,
                trainer.train_loader,
                eval_interval=0,
            )

    def test_run_zero_iterations_is_noop(self, mlp_trainer_factory, small_mlp):
        trainer = mlp_trainer_factory(small_mlp)
        history = trainer.run(0)
        assert history.iterations == []

    def test_epoch_wraparound(self, blob_data):
        train, test = blob_data
        net = build_mlp(20, [8], 4, rng=0)
        loader = DataLoader(train, batch_size=64, shuffle=False, rng=0)
        trainer = Trainer(
            net, SoftmaxCrossEntropy(), SGD(net.parameters(), lr=0.01), loader,
            eval_data=test.arrays(),
        )
        # More iterations than batches per epoch forces the loader to restart.
        trainer.run(len(loader) * 3 + 1)
        assert trainer.iteration == len(loader) * 3 + 1


SMALL_CONVNET = ConvNetConfig.small()


def small_lra_convnet(seed):
    return convert_to_lowrank(
        build_convnet(SMALL_CONVNET, rng=seed),
        ranks={"conv1": 4, "conv2": 5, "conv3": 6},
        layers=("conv1", "conv2", "conv3"),
    )


def image_loader():
    rng = np.random.default_rng(5)
    size = SMALL_CONVNET.image_size
    inputs = rng.standard_normal((16, SMALL_CONVNET.input_channels, size, size))
    return DataLoader(ArrayDataset(inputs, rng.integers(0, 10, 16)), batch_size=8, rng=0)


class LayoutProbe:
    """Records image-shaped activations/gradients and input-gradient kernel calls."""

    def __init__(self, monkeypatch):
        self.arrays = []  # (label, array) for every NCHW-shaped output / input grad
        self.kernel_channels = []  # input channels of each col2im / conv_backward_input
        self._monkeypatch = monkeypatch
        for kernel, shape_arg in (("col2im", 1), ("conv_backward_input", 2)):
            original = getattr(F, kernel)

            def counted(*args, _original=original, _i=shape_arg, **kwargs):
                self.kernel_channels.append(args[_i][1])
                return _original(*args, **kwargs)

            monkeypatch.setattr(F, kernel, counted)

    def _record(self, label, array):
        if array is not None and array.ndim == 4:
            self.arrays.append((label, array))

    def wrap(self, owner, attr, label, *, pair=None):
        """Record ``owner.attr``'s image-shaped result (first item of a tuple)."""
        original = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            self._record(label, result[0] if isinstance(result, tuple) else result)
            return result

        self._monkeypatch.setattr(owner, attr, wrapped)

    def wrap_layer(self, layer):
        self.wrap(layer, "forward", f"{layer.name}.forward")
        self.wrap(layer, "backward", f"{layer.name}.backward")


class TestChannelsLastTraining:
    """One training step keeps every image activation and gradient NHWC in memory.

    The batch enters conv1 NCHW-contiguous; from conv1's output onward each
    spatial layer's output and input gradient is channels-last, and nothing
    computes conv1's input gradient.  (Flatten's input gradient un-flattens an
    NCHW-ordered matrix and is the one NCHW array; it is not recorded here.)
    """

    def check(self, probe, channels_last, expected_spatial):
        labels = [label for label, _ in probe.arrays]
        assert len(labels) == expected_spatial, labels
        for label, array in probe.arrays:
            assert channels_last(array), label
        assert probe.kernel_channels, "input-gradient kernels never ran"
        assert SMALL_CONVNET.input_channels not in probe.kernel_channels

    def test_trainer_step(self, monkeypatch, channels_last):
        network = small_lra_convnet(0)
        probe = LayoutProbe(monkeypatch)
        for layer in network:
            if layer.name != "flatten":
                probe.wrap_layer(layer)
        trainer = Trainer(
            network, SoftmaxCrossEntropy(), SGD(network.parameters(), lr=0.01), image_loader()
        )
        trainer.train_step()
        # conv1..relu3/pool3: 9 spatial outputs; 8 input gradients (conv1 has none).
        self.check(probe, channels_last, expected_spatial=17)

    def test_network_stack_step(self, monkeypatch, channels_last):
        stack = NetworkStack([small_lra_convnet(seed) for seed in (0, 1)])
        probe = LayoutProbe(monkeypatch)
        probe.wrap(stack, "_forward_conv", "conv.forward")
        probe.wrap(stack, "_backward_conv", "conv.backward")
        for step in stack._steps:
            if step.kind == "layer" and step.layer.name != "flatten":
                probe.wrap_layer(step.layer)
        trainer = LockstepTrainer(
            stack,
            SoftmaxCrossEntropy(),
            LockstepSGD(stack.parameters, lr=0.01),
            image_loader(),
        )
        trainer.train_step()
        self.check(probe, channels_last, expected_spatial=17)
