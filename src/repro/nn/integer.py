"""Integer-GEMM inference kernels for the fused quantized execution path.

These kernels execute ``Linear``/``Conv2D`` layers directly on symmetric
integer codes (:mod:`repro.nn.quantization`): activations are quantized once
at the layer input, the GEMM accumulates integer products exactly, and the
result is dequantized *once* at the layer output — instead of the
fake-quantize path's quantize→dequantize round trip on every load followed
by a float GEMM.

Exactness contract
------------------
NumPy's native integer matmul does not go through BLAS and is an order of
magnitude slower than ``float32`` GEMM, so the kernels hold code arrays in
float containers and let BLAS do the accumulation.  The result is still the
*exact* ``int8 x int8 -> int32`` (or ``int16 x int16 -> int64``) sum: every
product and partial sum is an integer, and as long as its magnitude stays
below the float mantissa (2^24 for float32, 2^53 for float64) no rounding
can occur at any step.  :func:`exact_matmul` enforces that bound by chunking
the reduction dimension (int8 codes: 1024 columns per chunk) and
accumulating chunk results in float64.  Because every intermediate value is
exact, the result is independent of summation order — which is what makes
the integer path *bit-identical across batch shapes*, a property the FP32
path only gets by padding to a static shape.

The parity suite (``tests/test_engine_quantized.py``) verifies the kernels
against an ``int64`` reference accumulation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.quantization import QuantizationSpec


def gemm_dtype(bits: int) -> np.dtype:
    """Float container whose mantissa holds ``bits``-bit products exactly."""
    return np.dtype(np.float32 if bits <= 8 else np.float64)


def _product_bound(bits: int) -> int:
    # A corrupted b-bit code can be any two's-complement pattern, so the
    # per-element magnitude bound is 2^(b-1) (not qmax).
    return (1 << (bits - 1)) ** 2


def exact_matmul(a: np.ndarray, b: np.ndarray, bits: int) -> np.ndarray:
    """``a @ b`` with exact integer accumulation, via BLAS.

    ``a`` (M, K) and ``b`` (K, N) hold ``bits``-bit integer codes in the
    :func:`gemm_dtype` container.  Returns the exact integer-valued product
    as a float array (float32 when a single float32 GEMM is provably exact,
    float64 when chunked accumulation or 16-bit codes require it).
    """
    k = a.shape[1]
    bound = _product_bound(bits)
    if bits <= 8:
        chunk = (1 << 24) // bound
        if k <= chunk:
            return a @ b
        acc: Optional[np.ndarray] = None
        for start in range(0, k, chunk):
            part = a[:, start:start + chunk] @ b[start:start + chunk]
            acc = part.astype(np.float64) if acc is None else acc + part
        return acc
    if k * bound >= (1 << 53):  # pragma: no cover - no such model fits in RAM
        raise ValueError(f"{bits}-bit GEMM with K={k} exceeds exact float64 "
                         f"accumulation")
    return a @ b


def quantize_activations(x: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Quantize ``x`` to integer codes kept in the GEMM float container."""
    codes = np.rint(x * np.float32(1.0 / spec.scale))
    np.clip(codes, spec.qmin, spec.qmax, out=codes)
    dtype = gemm_dtype(spec.bits)
    return codes if codes.dtype == dtype else codes.astype(dtype)


def linear_integer_forward(x: np.ndarray, w_operand_t: np.ndarray,
                           w_scale: float, x_spec: QuantizationSpec,
                           bias: Optional[np.ndarray]) -> np.ndarray:
    """Fully-connected forward on integer codes, dequantized once at output.

    ``w_operand_t`` is the (in, out) transposed weight-code operand prepared
    by the plan compiler; ``w_scale``/``x_spec`` carry the symmetric scales.
    Returns float32 rows.
    """
    codes = quantize_activations(x, x_spec)
    acc = exact_matmul(codes, w_operand_t, x_spec.bits)
    acc *= acc.dtype.type(w_scale * x_spec.scale)   # fresh array: safe in place
    if bias is not None:
        acc += bias.reshape(1, -1)
    return acc if acc.dtype == np.float32 else acc.astype(np.float32)


def conv2d_integer_forward(x: np.ndarray, w_operand_t: np.ndarray,
                           w_scale: float, x_spec: QuantizationSpec,
                           bias: Optional[np.ndarray], kernel: Tuple[int, int],
                           stride: Tuple[int, int], padding: Tuple[int, int],
                           out_channels: int) -> np.ndarray:
    """2D convolution forward on integer codes (im2col + exact GEMM).

    ``w_operand_t`` is the (C*KH*KW, out_channels) flattened weight-code
    operand.  Dequantizes once at the layer output.  Returns float32 NCHW.
    """
    codes = quantize_activations(x, x_spec)
    cols, (oh, ow) = F.im2col(codes, kernel, stride, padding)
    acc = exact_matmul(cols, w_operand_t, x_spec.bits)
    acc *= acc.dtype.type(w_scale * x_spec.scale)   # fresh array: safe in place
    if bias is not None:
        acc += bias.reshape(1, -1)
    n = x.shape[0]
    out = acc.reshape(n, oh, ow, out_channels).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(out, dtype=np.float32)


def relu_infer(x: np.ndarray) -> np.ndarray:
    """Inference-only ReLU (no backward mask is built or kept)."""
    return np.maximum(x, np.float32(0.0))


def max_pool2d_infer(x: np.ndarray, kernel: Tuple[int, int],
                     stride: Tuple[int, int]) -> np.ndarray:
    """Inference-only max pooling over strided windows.

    The training kernel materializes im2col columns plus an argmax cache for
    the backward pass; serving needs neither — a strided window view plus
    one reduction does the same job in a fraction of the traffic.
    """
    kh, kw = kernel
    sh, sw = stride
    n, c, h, w = x.shape
    oh = F.conv_output_size(h, kh, sh, 0)
    ow = F.conv_output_size(w, kw, sw, 0)
    # KH*KW strided full-array maximums beat a windowed reduction here: the
    # reduction axes are tiny and non-contiguous, so ``windows.max(axis=..)``
    # degenerates into per-window scalar loops.
    out: Optional[np.ndarray] = None
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            window = x[:, :, i:i_end:sh, j:j_end:sw]
            if out is None:
                out = np.ascontiguousarray(window)
            else:
                np.maximum(out, window, out=out)
    return out
