"""Numerical checks for the forward/backward primitives in repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.models import build_model_with_dataset


def numeric_grad(fn, array, index, eps=1e-3):
    """Central-difference derivative of scalar fn with respect to array[index]."""
    original = array[index]
    array[index] = original + eps
    upper = fn()
    array[index] = original - eps
    lower = fn()
    array[index] = original
    return (upper - lower) / (2 * eps)


# -- oracles: the slice-copy unfold and the formulas it used to feed ----------
# The kernels in ``F`` must reproduce these byte for byte, memory layout
# included: numpy reductions sum in memory order, so a conv output with other
# strides moves every later pooling and batchnorm result.

def reference_im2col(x, kernel, stride, padding):
    kh, kw = F._pair(kernel)
    sh, sw = F._pair(stride)
    ph, pw = F._pair(padding)
    n, c, h, w = x.shape
    oh = F.conv_output_size(h, kh, sh, ph)
    ow = F.conv_output_size(w, kw, sw, pw)
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            cols[:, :, i, j, :, :] = padded[:, :, i:i_end:sh, j:j_end:sw]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return cols, (oh, ow)


def reference_conv2d_forward(x, weight, bias, stride, padding):
    """Caches the unfolded columns, as the kernel once did."""
    out_channels, _, kh, kw = weight.shape
    cols, (oh, ow) = reference_im2col(x, (kh, kw), stride, padding)
    out = cols @ weight.reshape(out_channels, -1).T
    if bias is not None:
        out = out + bias.reshape(1, -1)
    out = out.reshape(x.shape[0], oh, ow, out_channels).transpose(0, 3, 1, 2)
    return out.astype(np.float32), (x.shape, cols, weight, stride, padding)


def reference_conv2d_backward(grad_out, cache):
    x_shape, cols, weight, stride, padding = cache
    out_channels = weight.shape[0]
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_channels)
    grad_weight = (grad_flat.T @ cols).reshape(weight.shape)
    grad_bias = grad_flat.sum(axis=0)
    grad_cols = grad_flat @ weight.reshape(out_channels, -1)
    grad_input = F.col2im(grad_cols, x_shape, weight.shape[2:], stride, padding)
    return (grad_input.astype(np.float32), grad_weight.astype(np.float32),
            grad_bias.astype(np.float32))


def reference_linear_forward(x, weight, bias):
    out = x @ weight.T
    if bias is not None:
        out = out + bias.reshape(1, -1)
    return out.astype(np.float32), (x, weight)


def reference_relu_forward(x):
    mask = x > 0
    return (x * mask).astype(np.float32), mask


def reference_batchnorm_forward(x, gamma, beta, running_mean, running_var,
                                training, momentum=0.1, eps=1e-5):
    axes, shape = ((0, 2, 3), (1, -1, 1, 1)) if x.ndim == 4 else ((0,), (1, -1))
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean[:] = (1.0 - momentum) * running_mean + momentum * mean
        running_var[:] = (1.0 - momentum) * running_var + momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
    return out.astype(np.float32), (x_hat, inv_std, gamma, axes, shape)


def assert_same_array(got, want):
    """Byte-equal values with the same dtype, shape and memory layout."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes(order="A") == want.tobytes(order="A")


def with_special_values(x):
    """``x`` with NaN, +-inf and +-0 written in place, whatever its layout."""
    x.flat[np.arange(5) * 7] = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    return x


class TestConv2d:
    def test_output_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        b = np.zeros(5, dtype=np.float32)
        out, _ = F.conv2d_forward(x, w, b, stride=1, padding=1)
        assert out.shape == (2, 5, 8, 8)

    def test_stride_and_padding_shapes(self, rng):
        x = rng.standard_normal((1, 2, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        out, _ = F.conv2d_forward(x, w, None, stride=2, padding=1)
        assert out.shape == (1, 4, 5, 5)

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 0)

    def test_known_value_identity_kernel(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0  # identity kernel
        out, _ = F.conv2d_forward(x, w, None, stride=1, padding=1)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_gradients_match_numeric(self, rng):
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        grad_out = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)

        def loss():
            out, _ = F.conv2d_forward(x, w, b, 1, 1)
            return float((out * grad_out).sum())

        out, cache = F.conv2d_forward(x, w, b, 1, 1)
        grad_x, grad_w, grad_b = F.conv2d_backward(grad_out, cache)
        assert np.isclose(grad_w[1, 0, 2, 1], numeric_grad(loss, w, (1, 0, 2, 1)), atol=1e-2)
        assert np.isclose(grad_x[0, 1, 3, 3], numeric_grad(loss, x, (0, 1, 3, 3)), atol=1e-2)
        assert np.isclose(grad_b[2], numeric_grad(loss, b, (2,)), atol=1e-2)


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        x = rng.standard_normal((4, 6)).astype(np.float32)
        w = rng.standard_normal((3, 6)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out, _ = F.linear_forward(x, w, b)
        np.testing.assert_allclose(out, x @ w.T + b, rtol=1e-5)

    def test_gradients_match_numeric(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        w = rng.standard_normal((4, 5)).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        grad_out = rng.standard_normal((3, 4)).astype(np.float32)

        def loss():
            out, _ = F.linear_forward(x, w, b)
            return float((out * grad_out).sum())

        _, cache = F.linear_forward(x, w, b)
        grad_x, grad_w, grad_b = F.linear_backward(grad_out, cache)
        assert np.isclose(grad_w[2, 3], numeric_grad(loss, w, (2, 3)), atol=1e-2)
        assert np.isclose(grad_x[1, 4], numeric_grad(loss, x, (1, 4)), atol=1e-2)


class TestPooling:
    def test_max_pool_forward_values(self):
        x = np.array([[[[1, 2, 5, 3],
                        [4, 0, 1, 2],
                        [7, 8, 2, 1],
                        [0, 3, 4, 9]]]], dtype=np.float32)
        out, _ = F.max_pool2d_forward(x, 2, 2)
        np.testing.assert_allclose(out[0, 0], [[4, 5], [8, 9]])

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.array([[[[1, 2], [4, 0]]]], dtype=np.float32)
        out, cache = F.max_pool2d_forward(x, 2, 2)
        grad = F.max_pool2d_backward(np.ones_like(out), cache)
        assert grad[0, 0, 1, 0] == 1.0
        assert grad[0, 0, 0, 0] == 0.0

    def test_avg_pool_forward_and_backward(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out, cache = F.avg_pool2d_forward(x, 2, 2)
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean(), rtol=1e-5)
        grad = F.avg_pool2d_backward(np.ones_like(out), cache)
        np.testing.assert_allclose(grad, np.full_like(x, 0.25), rtol=1e-5)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        out, shape = F.global_avg_pool_forward(x)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-5)
        grad = F.global_avg_pool_backward(np.ones_like(out), shape)
        np.testing.assert_allclose(grad, np.full_like(x, 1.0 / 25), rtol=1e-5)


class TestActivationsAndLoss:
    def test_relu_zeroes_negatives(self):
        x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        out, mask = F.relu_forward(x)
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])
        grad = F.relu_backward(np.ones_like(x), mask)
        np.testing.assert_allclose(grad, [[0.0, 0.0, 1.0]])

    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((5, 7)).astype(np.float32) * 10
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), rtol=1e-5)
        assert (probs >= 0).all()

    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = np.array([[20.0, 0.0], [0.0, 20.0]], dtype=np.float32)
        loss, grad = F.cross_entropy_loss(logits, np.array([0, 1]))
        assert loss < 1e-6
        assert grad.shape == logits.shape

    def test_cross_entropy_gradient_numeric(self, rng):
        logits = rng.standard_normal((4, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        _, grad = F.cross_entropy_loss(logits, labels)
        eps = 1e-3
        index = (2, 1)
        logits[index] += eps
        upper, _ = F.cross_entropy_loss(logits, labels)
        logits[index] -= 2 * eps
        lower, _ = F.cross_entropy_loss(logits, labels)
        logits[index] += eps
        assert np.isclose(grad[index], (upper - lower) / (2 * eps), atol=1e-3)


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        x = rng.standard_normal((8, 4, 3, 3)).astype(np.float32) * 3 + 1
        gamma = np.ones(4, dtype=np.float32)
        beta = np.zeros(4, dtype=np.float32)
        running_mean = np.zeros(4, dtype=np.float32)
        running_var = np.ones(4, dtype=np.float32)
        out, _ = F.batchnorm_forward(x, gamma, beta, running_mean, running_var, training=True)
        assert abs(float(out.mean())) < 1e-4
        assert abs(float(out.var()) - 1.0) < 1e-2
        assert not np.allclose(running_mean, 0.0)

    def test_eval_uses_running_stats(self, rng):
        x = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        gamma = np.ones(2, dtype=np.float32)
        beta = np.zeros(2, dtype=np.float32)
        running_mean = np.full(2, 5.0, dtype=np.float32)
        running_var = np.full(2, 4.0, dtype=np.float32)
        out, _ = F.batchnorm_forward(x, gamma, beta, running_mean, running_var, training=False)
        expected = (x - 5.0) / np.sqrt(4.0 + 1e-5)
        np.testing.assert_allclose(out, expected, rtol=1e-4)

    def test_backward_gradient_numeric(self, rng):
        x = rng.standard_normal((6, 3)).astype(np.float32)
        gamma = rng.standard_normal(3).astype(np.float32)
        beta = np.zeros(3, dtype=np.float32)
        rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
        grad_out = rng.standard_normal((6, 3)).astype(np.float32)

        def loss():
            out, _ = F.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(), training=True)
            return float((out * grad_out).sum())

        _, cache = F.batchnorm_forward(x, gamma, beta, rm.copy(), rv.copy(), training=True)
        grad_x, grad_gamma, _ = F.batchnorm_backward(grad_out, cache)
        assert np.isclose(grad_gamma[1], numeric_grad(loss, gamma, (1,)), atol=5e-2)
        assert np.isclose(grad_x[2, 0], numeric_grad(loss, x, (2, 0)), atol=5e-2)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            F.batchnorm_forward(np.zeros((2, 2, 2)), np.ones(2), np.zeros(2),
                                np.zeros(2), np.ones(2), training=True)


class TestIm2Col:
    def test_roundtrip_shapes(self, rng):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols, (oh, ow) = F.im2col(x, 3, 1, 1)
        assert cols.shape == (2 * oh * ow, 3 * 9)
        back = F.col2im(cols, x.shape, 3, 1, 1)
        assert back.shape == x.shape

    def test_invalid_output_size_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


#: (x shape, kernel, stride, padding): 1x1, 3x3 and 5x5 kernels at stride 1
#: and 2, padding 0 and 1, on a non-square batch; then one image (the
#: slice-copy unfold's columns are a transposed view), one output position
#: and 1x1 single-channel windows.
CONV_CASES = [((2, 3, 9, 7), k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in (0, 1)] + [
    ((1, 3, 9, 7), 3, 1, 0), ((1, 3, 9, 7), 1, 2, 1), ((3, 2, 5, 5), 5, 1, 0),
    ((3, 1, 6, 4), 1, 1, 0), ((3, 1, 6, 4), 3, 1, 0)]


class TestOracleParity:
    """The kernels against the slice-copy oracles above, byte for byte."""

    @pytest.mark.parametrize("shape,kernel,stride,padding", CONV_CASES)
    @pytest.mark.parametrize("special", [False, True])
    def test_im2col_and_conv_match_oracle(self, rng, shape, kernel, stride,
                                          padding, special):
        x = rng.standard_normal(shape).astype(np.float32)
        if special:
            x = with_special_values(x)
        w = rng.standard_normal((4, shape[1], kernel, kernel)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)

        cols, size = F.im2col(x, kernel, stride, padding)
        want_cols, want_size = reference_im2col(x, kernel, stride, padding)
        assert size == want_size
        assert_same_array(cols, want_cols)

        for bias in (b, None):
            out, cache = F.conv2d_forward(x, w, bias, stride, padding)
            want, want_cache = reference_conv2d_forward(x, w, bias, stride, padding)
            assert_same_array(out, want)
            grad_out = rng.standard_normal(out.shape).astype(np.float32)
            for got_grad, want_grad in zip(
                    F.conv2d_backward(grad_out, cache),
                    reference_conv2d_backward(grad_out, want_cache)):
                assert_same_array(got_grad, want_grad)

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 0)])
    def test_im2col_of_channels_last_input(self, rng, kernel, stride, padding):
        # Conv outputs are channels-last behind an NCHW shape; the next
        # layer unfolds them as they are.
        x = rng.standard_normal((2, 8, 6, 3)).astype(np.float32).transpose(0, 3, 1, 2)
        x = with_special_values(x)
        cols, _ = F.im2col(x, kernel, stride, padding)
        want, _ = reference_im2col(x, kernel, stride, padding)
        assert_same_array(cols, want)

    @pytest.mark.parametrize("special", [False, True])
    def test_relu_batchnorm_linear_match_oracle(self, rng, special):
        conv_out, _ = F.conv2d_forward(
            rng.standard_normal((3, 2, 7, 5)).astype(np.float32),
            rng.standard_normal((4, 2, 3, 3)).astype(np.float32), None, 1, 1)
        inputs = [conv_out, rng.standard_normal((3, 4, 7, 5)).astype(np.float32)]
        if special:
            inputs = [with_special_values(x.copy(order="K")) for x in inputs]
        gamma = rng.standard_normal(4).astype(np.float32)
        beta = rng.standard_normal(4).astype(np.float32)
        for x in inputs:
            out, mask = F.relu_forward(x)
            want, want_mask = reference_relu_forward(x)
            assert_same_array(out, want)
            assert_same_array(mask, want_mask)
            for training in (True, False):
                stats = [np.full(4, 0.5, np.float32), np.full(4, 2.0, np.float32)]
                want_stats = [stat.copy() for stat in stats]
                out, cache = F.batchnorm_forward(x, gamma, beta, *stats, training)
                want, want_cache = reference_batchnorm_forward(
                    x, gamma, beta, *want_stats, training)
                assert_same_array(out, want)
                assert_same_array(cache[0], want_cache[0])
                for stat, want_stat in zip(stats, want_stats):
                    assert_same_array(stat, want_stat)
        rows = rng.standard_normal((5, 6)).astype(np.float32)
        if special:
            rows = with_special_values(rows)
        w = rng.standard_normal((3, 6)).astype(np.float32)
        for bias in (rng.standard_normal(3).astype(np.float32), None):
            out, _ = F.linear_forward(rows, w, bias)
            want, _ = reference_linear_forward(rows, w, bias)
            assert_same_array(out, want)


class TestTrainingStepParity:
    """One training step's gradients against the oracle kernels.

    A conv now caches its input, not its columns, so any later kernel that
    wrote into an array an earlier layer cached would change the gradients
    silently; byte-equal gradients rule that out.
    """

    @staticmethod
    def _step(network, x, y):
        network.train()
        network.zero_grad()
        loss, grad, logits = network.loss(x, y)
        network.backward(grad)
        return logits, {p.name: p.grad for p in network.parameters()}

    @pytest.mark.parametrize("model", ["lenet", "resnet101", "mobilenetv2"])
    def test_gradients_match_oracle_kernels(self, monkeypatch, model):
        network, dataset, _ = build_model_with_dataset(model, seed=0)
        x, y = dataset.train_x[:4], dataset.train_y[:4]
        logits, grads = self._step(network.clone(), x, y)

        for name, oracle in (("im2col", reference_im2col),
                             ("conv2d_forward", reference_conv2d_forward),
                             ("conv2d_backward", reference_conv2d_backward),
                             ("linear_forward", reference_linear_forward),
                             ("relu_forward", reference_relu_forward),
                             ("batchnorm_forward", reference_batchnorm_forward)):
            monkeypatch.setattr(F, name, oracle)
        want_logits, want_grads = self._step(network.clone(), x, y)

        assert_same_array(logits, want_logits)
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            assert_same_array(grad, want_grads[name])
