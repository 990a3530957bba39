"""Numerical primitives (forward and backward) used by the layer classes.

Everything here is implemented with numpy.  Convolutions use im2col/col2im so
that the forward and backward passes reduce to matrix multiplications, which
keeps scaled-down model training fast enough to run inside the test suite.
Shapes follow the NCHW convention throughout.

:func:`im2col` is the one unfold, shared by the FP32 layers, pooling and the
integer plan (:mod:`repro.nn.integer`): a single gather through an index
table cached per unfold geometry.  A conv caches its input rather than its
columns, and :func:`conv2d_backward` unfolds that input again, which yields
the same column bytes without holding them between the passes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


#: gather tables keyed by unfold geometry and order, not batch size: one
#: table per layer, built once, whatever row count a pass runs at.
_GATHER_CACHE: dict = {}


def _gather_table(c: int, hp: int, wp: int, kernel: Tuple[int, int],
                  stride: Tuple[int, int], oh: int, ow: int,
                  window_major: bool) -> np.ndarray:
    """Flat (hp, wp)-padded input offsets of every column entry: an
    (OH*OW, C*KH*KW) table, or its (C*KH*KW, OH*OW) transpose."""
    key = (c, hp, wp, kernel, stride, oh, ow, window_major)
    table = _GATHER_CACHE.get(key)
    if table is None:
        kh, kw = kernel
        sh, sw = stride
        rows_y = (np.arange(oh) * sh)[:, None, None, None, None] \
            + np.arange(kh)[None, None, None, :, None]
        cols_x = (np.arange(ow) * sw)[None, :, None, None, None] \
            + np.arange(kw)[None, None, None, None, :]
        chans = np.arange(c)[None, None, :, None, None]
        grid = chans * (hp * wp) + rows_y * wp + cols_x  # (OH, OW, C, KH, KW)
        if window_major:
            table = grid.transpose(2, 3, 4, 0, 1).reshape(c * kh * kw, oh * ow)
        else:
            table = grid.reshape(oh * ow, c * kh * kw)
        _GATHER_CACHE[key] = table
    return table


def im2col(x: np.ndarray, kernel, stride, padding
           ) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N*OH*OW, C*KH*KW).

    One gather through a cached index table, after zero padding by slice
    assignment (``np.pad`` costs more than the gather at small shapes).
    ``np.take``, not ``flat[:, table]``: the subscript form hoists the
    advanced axis, so the trailing reshape would be a second full copy.

    The columns' memory layout is part of the result, because BLAS sums a
    transposed operand in another order.  For one image they are the
    transposed view of a (C, KH, KW, OH, OW) buffer, as a slice-copy unfold
    into that buffer leaves them; otherwise they are C-contiguous.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)

    padded = x
    if ph or pw:
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
    hp, wp = padded.shape[2], padded.shape[3]
    window_major = n == 1
    table = _gather_table(c, hp, wp, (kh, kw), (sh, sw), oh, ow, window_major)
    # mode="wrap" skips the per-element bounds-check path; the cached table
    # is in-bounds by construction, so the result is identical.
    cols = np.take(padded.reshape(n, c * hp * wp), table, axis=1, mode="wrap")
    if window_major:
        cols = cols.reshape(n, c, kh, kw, oh, ow).transpose(0, 4, 5, 1, 2, 3)
    return cols.reshape(n * oh * ow, c * kh * kw), (oh, ow)


def col2im(cols: np.ndarray, x_shape, kernel, stride, padding) -> np.ndarray:
    """Inverse of :func:`im2col`: fold columns back into an (N, C, H, W) tensor."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)

    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph:ph + h, pw:pw + w]


def conv2d_forward(x, weight, bias, stride, padding):
    """2D convolution forward pass.

    Returns the output and a cache used by :func:`conv2d_backward`.
    """
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_channels}"
        )
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding)
    w_flat = weight.reshape(out_channels, -1)
    out = cols @ w_flat.T
    if bias is not None:
        out += bias.reshape(1, -1)
    n = x.shape[0]
    # Channels-last memory behind an NCHW shape: later reductions (pooling,
    # batchnorm statistics) sum in memory order, so the layout is part of
    # the result.  A copy gives each length-1 C/H/W axis numpy's canonical
    # stride, which the transposed view lacks; only those shapes pay it.
    out = out.reshape(n, oh, ow, out_channels).transpose(0, 3, 1, 2)
    cache = (x, weight, stride, padding)
    return out.astype(np.float32, copy=1 in out.shape[1:]), cache


def conv2d_backward(grad_out, cache):
    """Backward pass of :func:`conv2d_forward`.

    Returns (grad_input, grad_weight, grad_bias).
    """
    x, weight, stride, padding = cache
    out_channels = weight.shape[0]
    cols, _ = im2col(x, weight.shape[2:], stride, padding)
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_channels)

    grad_weight = (grad_flat.T @ cols).reshape(weight.shape)
    grad_bias = grad_flat.sum(axis=0)
    grad_cols = grad_flat @ weight.reshape(out_channels, -1)
    grad_input = col2im(grad_cols, x.shape, weight.shape[2:], stride, padding)
    return (
        grad_input.astype(np.float32),
        grad_weight.astype(np.float32),
        grad_bias.astype(np.float32),
    )


def linear_forward(x, weight, bias):
    """Fully-connected forward: x (N, in) @ weight.T (in, out) + bias."""
    out = x @ weight.T
    if bias is not None:
        out += bias.reshape(1, -1)
    return out.astype(np.float32, copy=False), (x, weight)


def linear_backward(grad_out, cache):
    x, weight = cache
    grad_input = grad_out @ weight
    grad_weight = grad_out.T @ x
    grad_bias = grad_out.sum(axis=0)
    return (
        grad_input.astype(np.float32),
        grad_weight.astype(np.float32),
        grad_bias.astype(np.float32),
    )


def relu_forward(x):
    mask = x > 0
    return (x * mask).astype(np.float32, copy=False), mask


def relu_backward(grad_out, mask):
    return (grad_out * mask).astype(np.float32)


def max_pool2d_forward(x, kernel, stride):
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, sh, 0)
    ow = conv_output_size(w, kw, sw, 0)
    cols, _ = im2col(x.reshape(n * c, 1, h, w), (kh, kw), (sh, sw), 0)
    argmax = cols.argmax(axis=1)
    out = cols[np.arange(cols.shape[0]), argmax]
    out = out.reshape(n, c, oh, ow)
    cache = (x.shape, argmax, (kh, kw), (sh, sw), cols.shape)
    return out.astype(np.float32), cache


def max_pool2d_backward(grad_out, cache):
    x_shape, argmax, kernel, stride, cols_shape = cache
    n, c, h, w = x_shape
    grad_cols = np.zeros(cols_shape, dtype=np.float32)
    grad_flat = grad_out.reshape(-1)
    grad_cols[np.arange(cols_shape[0]), argmax] = grad_flat
    grad_input = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, 0)
    return grad_input.reshape(x_shape).astype(np.float32)


def avg_pool2d_forward(x, kernel, stride):
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    n, c, h, w = x.shape
    cols, (oh, ow) = im2col(x.reshape(n * c, 1, h, w), (kh, kw), (sh, sw), 0)
    out = cols.mean(axis=1).reshape(n, c, oh, ow)
    cache = (x.shape, (kh, kw), (sh, sw), cols.shape)
    return out.astype(np.float32), cache


def avg_pool2d_backward(grad_out, cache):
    x_shape, kernel, stride, cols_shape = cache
    n, c, h, w = x_shape
    kh, kw = kernel
    grad_cols = np.repeat(
        grad_out.reshape(-1, 1) / float(kh * kw), cols_shape[1], axis=1
    ).astype(np.float32)
    grad_input = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, 0)
    return grad_input.reshape(x_shape).astype(np.float32)


def global_avg_pool_forward(x):
    out = x.mean(axis=(2, 3))
    return out.astype(np.float32), x.shape


def global_avg_pool_backward(grad_out, x_shape):
    n, c, h, w = x_shape
    grad = grad_out.reshape(n, c, 1, 1) / float(h * w)
    return np.broadcast_to(grad, x_shape).astype(np.float32)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, training, momentum=0.1, eps=1e-5):
    """Batch normalization over (N, H, W) per channel for 4D inputs, or per
    feature for 2D inputs."""
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batchnorm expects 2D or 4D input, got {x.ndim}D")

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
    out = gamma.reshape(shape) * x_hat
    out += beta.reshape(shape)
    cache = (x_hat, inv_std, gamma, axes, shape)
    return out.astype(np.float32, copy=False), cache


def batchnorm_backward(grad_out, cache):
    x_hat, inv_std, gamma, axes, shape = cache
    m = 1
    for axis in axes:
        m *= grad_out.shape[axis]
    m = float(m)

    grad_gamma = (grad_out * x_hat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)

    grad_xhat = grad_out * gamma.reshape(shape)
    grad_input = (
        inv_std.reshape(shape)
        / m
        * (
            m * grad_xhat
            - grad_xhat.sum(axis=axes).reshape(shape)
            - x_hat * (grad_xhat * x_hat).sum(axis=axes).reshape(shape)
        )
    )
    return (
        grad_input.astype(np.float32),
        grad_gamma.astype(np.float32),
        grad_beta.astype(np.float32),
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return (exp / exp.sum(axis=1, keepdims=True)).astype(np.float32)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and its gradient with respect to the logits."""
    n = logits.shape[0]
    probs = softmax(logits)
    clipped = np.clip(probs[np.arange(n), labels], 1e-12, None)
    loss = float(-np.log(clipped).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= float(n)
    return loss, grad.astype(np.float32)
