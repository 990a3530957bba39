"""Tests for the Network container and its EDEN-facing introspection."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Flatten, Linear, MaxPool2D, ReLU
from repro.nn.network import Network
from repro.nn.tensor import DataKind


def build_tiny_network(seed=0):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D("conv1", 2, 4, 3, padding=1, rng=rng),
        ReLU("relu1"),
        MaxPool2D("pool1", 2),
        Flatten("flat"),
        Linear("fc", 4 * 4 * 4, 3, rng=rng),
    ]
    return Network("tiny", layers, input_shape=(2, 8, 8), num_classes=3)


class TestStructure:
    def test_layer_indices_are_assigned_in_order(self):
        net = build_tiny_network()
        indices = [layer.layer_index for layer in net.leaf_layers()]
        assert indices == sorted(indices)
        for param in net.parameters():
            assert param.layer_index == net.named_parameters()[param.name].layer_index

    def test_parameter_count_and_bytes(self):
        net = build_tiny_network()
        expected = 4 * 2 * 9 + 4 + 64 * 3 + 3
        assert net.num_parameters() == expected
        assert net.parameter_bytes(32) == expected * 4
        assert net.parameter_bytes(8) == expected

    def test_depth_counts_parameterized_layers(self):
        net = build_tiny_network()
        assert net.depth == 2


class TestExecution:
    def test_forward_and_predict_shapes(self):
        net = build_tiny_network()
        x = np.random.default_rng(1).standard_normal((5, 2, 8, 8)).astype(np.float32)
        logits = net.forward(x)
        assert logits.shape == (5, 3)
        preds = net.predict(x, batch_size=2)
        assert preds.shape == (5,)
        assert set(preds) <= {0, 1, 2}

    def test_loss_and_backward_produce_gradients(self):
        net = build_tiny_network()
        x = np.random.default_rng(1).standard_normal((4, 2, 8, 8)).astype(np.float32)
        labels = np.array([0, 1, 2, 1])
        loss, grad, logits = net.loss(x, labels)
        assert loss > 0
        net.backward(grad)
        assert all(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_train_eval_mode_propagates(self):
        net = build_tiny_network()
        net.train()
        assert all(layer.training for layer in net.leaf_layers())
        net.eval()
        assert not any(layer.training for layer in net.leaf_layers())


class TestIntrospection:
    def test_data_type_specs_cover_weights_and_ifms(self):
        net = build_tiny_network()
        specs = net.data_type_specs()
        names = {s.name for s in specs}
        assert "conv1.weight" in names and "fc.weight" in names
        assert "conv1.ifm" in names and "fc.ifm" in names
        kinds = {s.kind for s in specs}
        assert kinds == {DataKind.WEIGHT, DataKind.IFM}

    def test_specs_respect_precision(self):
        net = build_tiny_network()
        fp32 = {s.name: s.size_bytes for s in net.data_type_specs(32)}
        int8 = {s.name: s.size_bytes for s in net.data_type_specs(8)}
        for name in fp32:
            assert int8[name] * 4 == fp32[name]

    def test_footprint_is_positive_and_scales_with_bits(self):
        net = build_tiny_network()
        assert net.footprint_bytes(32) == 4 * net.footprint_bytes(8)

    def test_weight_and_ifm_spec_filters(self):
        net = build_tiny_network()
        assert all(s.kind is DataKind.WEIGHT for s in net.weight_specs())
        assert all(s.kind is DataKind.IFM for s in net.ifm_specs())

    def test_spec_recording_does_not_leave_injector_installed(self):
        net = build_tiny_network()
        net.data_type_specs()
        assert net.fault_injector is None

    def test_loading_scopes_hook_and_mode_even_on_error(self):
        net = build_tiny_network()
        installed, hook = object(), object()
        net.set_fault_injector(installed)
        net.train()
        with pytest.raises(RuntimeError):
            with net.loading(hook):
                assert net.fault_injector is hook and not net.training
                raise RuntimeError
        assert net.fault_injector is installed and net.training

    def test_loading_the_installed_hook_does_not_reinstall_it(self, monkeypatch):
        net = build_tiny_network()
        hook = object()
        net.set_fault_injector(hook)
        installs = []
        monkeypatch.setattr(net, "set_fault_injector", installs.append)
        with net.loading(hook):
            pass
        assert installs == []


class TestStateManagement:
    def test_state_dict_roundtrip(self):
        net = build_tiny_network(seed=0)
        other = build_tiny_network(seed=1)
        x = np.random.default_rng(2).standard_normal((3, 2, 8, 8)).astype(np.float32)
        assert not np.allclose(net.forward(x), other.forward(x))
        other.load_state_dict(net.state_dict())
        np.testing.assert_allclose(net.forward(x), other.forward(x), rtol=1e-6)

    def test_load_state_dict_rejects_missing_keys(self):
        net = build_tiny_network()
        state = net.state_dict()
        state.pop("fc.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_bad_shapes(self):
        net = build_tiny_network()
        state = net.state_dict()
        state["fc.weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_clone_is_independent(self):
        net = build_tiny_network()
        clone = net.clone()
        clone.parameters()[0].data += 1.0
        assert not np.allclose(net.parameters()[0].data, clone.parameters()[0].data)

    def test_summary_mentions_all_layers(self):
        net = build_tiny_network()
        text = net.summary()
        assert "conv1" in text and "fc" in text and "total parameters" in text
