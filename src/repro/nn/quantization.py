"""Symmetric linear quantization, as used by the paper (Section 2.1, Table 2).

The paper quantizes all models to int4, int8, int16 and FP32 with a symmetric
linear scheme: each tensor gets an affine scale mapping its values into
``[-2^(b-1), 2^(b-1) - 1]``.  Quantization matters to EDEN for two reasons:

* bit errors hit a *b*-bit integer representation rather than an IEEE-754
  float, so the magnitude of a single flip differs, and
* lower precision tensors pack more values per DRAM row, which changes how
  spatially-correlated error models (bitline / wordline locality) land.

This module provides per-tensor quantization parameters, fake-quantized
inference (quantize → dequantize around every load), and the integer codecs
the bit-error injector uses.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.network import Network
from repro.nn.tensor import TensorSpec

#: numeric precisions evaluated in the paper
SUPPORTED_BITS = (4, 8, 16, 32)

#: precisions the integer execution path can hold as code arrays
INTEGER_BITS = (4, 8, 16)


class ExecutionMode(enum.Enum):
    """How a compiled plan executes its GEMM layers.

    ``FP32`` is the historical float path: weights (possibly fake-quantized
    by a :class:`QuantizedLoadTransform`) are served as float32 arrays and
    every ``Linear``/``Conv2D`` runs a float GEMM.  ``INTEGER`` is the fused
    quantized hot path: weights stay *integer code arrays* (int8/int4/int16
    symmetric codes, bit errors applied to the codes) and GEMM layers run an
    exact integer-accumulate kernel, dequantizing once at the layer output.
    ``AUTO`` resolves to ``INTEGER`` when the session's injector and read
    semantics support it and falls back to ``FP32`` otherwise.
    """

    FP32 = "fp32"
    INTEGER = "integer"
    AUTO = "auto"

    @classmethod
    def resolve(cls, value) -> "ExecutionMode":
        """Coerce a mode name (or mode) into an :class:`ExecutionMode`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown execution mode {value!r}; expected one of "
                f"{[mode.value for mode in cls]}")


def code_dtype(bits: int) -> np.dtype:
    """Narrowest signed container for ``bits``-bit symmetric codes.

    int4 codes occupy one int8 byte each in working arrays — the 4-bit
    *packed* layout is what the DRAM bit-image (:func:`tensor_to_bits`, 4
    bits per element in uint64 words) and the injection engine operate on.
    """
    if bits not in INTEGER_BITS:
        raise ValueError(f"no integer container for {bits}-bit tensors")
    return np.dtype(np.int8 if bits <= 8 else np.int16)


def quantize_codes(values: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Quantize floats to codes in the narrowest signed container."""
    return quantize(values, spec).astype(code_dtype(spec.bits))


def recover_codes(stored: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Invert :func:`dequantize` on a stored (possibly corrupted) tensor.

    A bit-flipped b-bit code can land on any two's-complement pattern —
    including ``-2^(b-1)``, one below ``spec.qmin`` — so recovery must not
    clip the way :func:`quantize` does.  Exact for every b-bit pattern:
    ``|code| <= 2^(b-1) <= 32768`` keeps the float32 rounding error of
    ``code * scale`` far below half a step.  Returns the code array in the
    container :func:`code_dtype` picks.
    """
    codes = np.rint(np.asarray(stored, dtype=np.float64) / spec.scale)
    return codes.astype(code_dtype(spec.bits))


@dataclass(frozen=True)
class QuantizationSpec:
    """Per-tensor symmetric quantization parameters."""

    bits: int
    scale: float

    def __post_init__(self) -> None:
        if self.bits not in SUPPORTED_BITS:
            raise ValueError(f"unsupported precision {self.bits}; expected one of {SUPPORTED_BITS}")
        if self.bits != 32 and self.scale <= 0:
            raise ValueError("quantization scale must be positive")

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1))

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def is_float(self) -> bool:
        return self.bits == 32


def compute_scale(values: np.ndarray, bits: int) -> float:
    """Symmetric scale so that max(|values|) maps to the integer extreme."""
    if bits == 32:
        return 1.0
    max_abs = float(np.max(np.abs(values))) if values.size else 0.0
    if max_abs == 0.0:
        max_abs = 1.0
    return max_abs / float(2 ** (bits - 1) - 1)


def make_spec(values: np.ndarray, bits: int) -> QuantizationSpec:
    return QuantizationSpec(bits=bits, scale=compute_scale(values, bits))


def quantize(values: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Quantize float values to signed integers (int64 container).

    The division runs in float64 (matching :func:`recover_codes`): a
    float32 quotient would underflow for subnormal scales — ``scale``
    below ~1.4e-45 rounds to 0.0 in float32, turning every quotient into
    inf/nan and the cast into garbage codes.
    """
    if spec.is_float:
        raise ValueError("FP32 tensors are not integer-quantized")
    q = np.round(np.asarray(values, dtype=np.float64) / spec.scale)
    return np.clip(q, spec.qmin, spec.qmax).astype(np.int64)

def dequantize(codes: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    if spec.is_float:
        raise ValueError("FP32 tensors are not integer-quantized")
    return (codes.astype(np.float64) * spec.scale).astype(np.float32)


def fake_quantize(values: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Quantize then dequantize, simulating reduced-precision storage."""
    if spec.is_float:
        return values.astype(np.float32)
    return dequantize(quantize(values, spec), spec)


class QuantizedLoadTransform:
    """Fault-injector-compatible hook that fake-quantizes every load.

    Installing this on a :class:`~repro.nn.network.Network` makes every weight
    and IFM load behave as if the value was stored at ``bits`` precision, which
    is how Table 2's int4/int8/int16 baseline accuracies are measured.  It can
    also wrap an inner injector so bit errors are applied *on the quantized
    representation* (the realistic composition: DRAM stores the integer codes).
    """

    def __init__(self, bits: int, inner=None):
        if bits not in SUPPORTED_BITS:
            raise ValueError(f"unsupported precision {bits}")
        self.bits = bits
        self.inner = inner
        #: per-tensor scales, keyed by name and *data fingerprint*: a cache
        #: keyed on the name alone served stale scales after a parameter was
        #: retrained or mutated in place.  One entry per name bounds the
        #: cache (IFM tensors fingerprint differently on every batch).
        self._spec_cache: Dict[str, Tuple[tuple, QuantizationSpec]] = {}

    @staticmethod
    def _fingerprint(values: np.ndarray) -> tuple:
        """Cheap content fingerprint of ``values`` (shape + CRC of bytes)."""
        contiguous = np.ascontiguousarray(values)
        return (contiguous.shape, zlib.crc32(contiguous.view(np.uint8).data))

    def spec_for(self, name: str, values: np.ndarray) -> QuantizationSpec:
        fingerprint = self._fingerprint(values)
        cached = self._spec_cache.get(name)
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        spec = make_spec(values, self.bits)
        self._spec_cache[name] = (fingerprint, spec)
        return spec

    def reseed(self, seed: int) -> None:
        """Restart the wrapped injector's stream (quantizing draws nothing)."""
        reseed = getattr(self.inner, "reseed", None)
        if reseed is not None:
            reseed(seed)

    def apply(self, array: np.ndarray, spec: TensorSpec) -> np.ndarray:
        tensor_spec = spec.with_bits(self.bits)
        if self.bits == 32:
            out = array
        else:
            qspec = self.spec_for(spec.name, array)
            out = fake_quantize(array, qspec)
        if self.inner is not None:
            out = self.inner.apply(out, tensor_spec)
        return out


def quantize_network(network: Network, bits: int,
                     inner_injector=None) -> QuantizedLoadTransform:
    """Attach a fake-quantization load transform to ``network`` and return it."""
    transform = QuantizedLoadTransform(bits, inner=inner_injector)
    network.set_fault_injector(transform)
    return transform


def tensor_to_bits(values: np.ndarray, bits: int,
                   qspec: Optional[QuantizationSpec] = None):
    """Encode a float tensor as the raw unsigned integer words DRAM would hold.

    Returns (words, codec_state).  ``words`` is a uint64 array of per-element
    bit patterns (two's complement for integer precisions, IEEE-754 for FP32);
    ``codec_state`` is whatever :func:`bits_to_tensor` needs to decode.  Bit
    ``j`` of element ``e`` is flat DRAM bit ``e * bits + j`` (LSB-first) —
    the layout contract the packed injection engine
    (:mod:`repro.dram.packed`) and :func:`flip_bits_in_words` both assume.
    """
    values = np.asarray(values, dtype=np.float32)
    if bits == 32:
        words = values.view(np.uint32).astype(np.uint64)
        return words, None
    if qspec is None:
        qspec = make_spec(values, bits)
    codes = quantize(values, qspec)
    mask = (1 << bits) - 1
    words = (codes & mask).astype(np.uint64)
    return words, qspec


def bits_to_tensor(words: np.ndarray, bits: int, codec_state) -> np.ndarray:
    """Decode raw bit patterns produced by :func:`tensor_to_bits` back to floats.

    This sits on the injection hot path (every simulated weight/IFM load),
    so it must not add passes over the data beyond the container conversion:
    ``astype`` already copies, making the float32 view safe to return.
    """
    if bits == 32:
        return words.astype(np.uint32).view(np.float32)
    qspec: QuantizationSpec = codec_state
    mask = (1 << bits) - 1
    words = words.astype(np.int64) & mask
    sign_bit = 1 << (bits - 1)
    codes = np.where(words >= sign_bit, words - (1 << bits), words)
    return dequantize(codes, qspec)
