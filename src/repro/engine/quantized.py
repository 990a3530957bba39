"""Compiled integer execution plans: the fused quantized hot path.

EDEN's workloads store int4/int8/int16 models in approximate DRAM; the
fake-quantize transform (:class:`~repro.nn.quantization.QuantizedLoadTransform`)
models that storage faithfully but executes it expensively — every weight
load re-runs quantize→dequantize and every GEMM runs on float32 tensors.

:func:`compile_quantized_plan` turns a static-store session over such a
transform into a :class:`QuantizedPlan`:

* the materialized store (bit errors already applied to the stored
  representation) is *recovered* into narrow integer code arrays via
  :func:`~repro.nn.quantization.recover_codes` — exact, because each stored
  float is ``code * scale`` and recovery divides the scale back out;
* per-layer input scales are calibrated once over the session's dataset, so
  activation quantization is a static elementwise op (no per-batch max
  reduction, which is what makes the integer path batch-shape invariant);
* each ``Linear``/``Conv2D`` gets a fused kernel
  (:mod:`repro.nn.integer`): quantize input → exact integer GEMM on the
  stored codes → dequantize once at the layer output.  ``ReLU``/``MaxPool2D``
  get inference-only kernels that skip the training caches.

Dispatch through an installed plan never re-runs load hooks and never
re-quantizes weights: the only per-dispatch work is the activation
quantization, the GEMMs, and the remaining (non-GEMM) weight loads served
from the plan's float store.  Install/uninstall mutates the shared network
object and must happen under :func:`~repro.engine.session.network_lock` —
:class:`~repro.engine.session.InferenceSession` owns that critical section.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.session import _StaticStoreReader
from repro.nn import integer as IK
from repro.nn.layers import Conv2D, Layer, Linear, MaxPool2D, ReLU
from repro.nn.network import Network
from repro.nn.quantization import (INTEGER_BITS, QuantizationSpec,
                                   QuantizedLoadTransform, recover_codes)
from repro.nn.tensor import DataKind, TensorSpec


def integer_plan_supported(injector) -> bool:
    """Whether ``injector`` describes storage the integer path can execute.

    True for a :class:`QuantizedLoadTransform` at an integer precision whose
    inner injector (if any) corrupts the stored codes without an ECC
    corrector.  A corrector rewrites the *decoded floats*, so the store is
    no longer code-valued and exact recovery does not apply — those
    configurations stay on the FP32 fake-quantize path.
    """
    if not isinstance(injector, QuantizedLoadTransform):
        return False
    if injector.bits not in INTEGER_BITS:
        return False
    inner = injector.inner
    return inner is None or getattr(inner, "corrector", None) is None


class QuantizedPlan:
    """A compiled, store-backed integer execution plan for one network.

    Holds the recovered weight *codes* (narrow int8/int16 arrays — the same
    bytes a packed DRAM image decodes to), their per-tensor scales, the
    statically calibrated input quantization specs, and the float store for
    weights that are not GEMM operands (e.g. batch-norm gamma).  ``bind``
    compiles the per-layer kernel closures against a concrete network
    object; ``install``/``uninstall`` attach them.  The plan itself never
    touches the network's parameters, so one plan can serve the session
    owner and — rebuilt from shared-memory code arrays — any number of
    worker processes, with bit-identical results (every kernel step is
    exact integer arithmetic; see :mod:`repro.nn.integer`).
    """

    def __init__(self, bits: int, codes: Dict[str, np.ndarray],
                 weight_scales: Dict[str, float],
                 ifm_specs: Dict[str, QuantizationSpec],
                 float_store: Dict[str, np.ndarray]):
        self.bits = int(bits)
        self.codes = codes
        self.weight_scales = weight_scales
        self.ifm_specs = ifm_specs
        self.float_store = float_store
        #: GEMM operands derived from the codes: transposed, flattened and
        #: cast once into the exact-GEMM float container.
        self._operands: Dict[str, np.ndarray] = {}
        self._bindings: Optional[Tuple[weakref.ref,
                                       List[Tuple[Layer, Callable]]]] = None

    # -- kernels ------------------------------------------------------------------
    def _operand_for(self, name: str) -> np.ndarray:
        operand = self._operands.get(name)
        if operand is None:
            codes = self.codes[name]
            flat = codes.reshape(codes.shape[0], -1)
            operand = np.ascontiguousarray(
                flat.T.astype(IK.gemm_dtype(self.bits)))
            self._operands[name] = operand
        return operand

    def _ifm_spec(self, layer: Layer) -> QuantizationSpec:
        spec = self.ifm_specs.get(f"{layer.name}.ifm")
        if spec is None:
            # Uncalibrated layer (empty calibration set): unit scale keeps the
            # kernel well-defined; accuracy then depends on input range.
            spec = QuantizationSpec(bits=self.bits, scale=1.0)
        return spec

    def _kernel_for(self, layer: Layer) -> Optional[Callable]:
        if isinstance(layer, Conv2D):
            name = layer.weight.name
            if name not in self.codes:
                return None
            operand = self._operand_for(name)
            w_scale = self.weight_scales[name]
            x_spec = self._ifm_spec(layer)
            bias = layer.bias.data if layer.bias is not None else None
            kernel_size = layer.kernel_size
            stride, padding = layer.stride, layer.padding
            out_channels = layer.out_channels

            def conv_kernel(x, _operand=operand, _w_scale=w_scale,
                            _x_spec=x_spec, _bias=bias):
                return IK.conv2d_integer_forward(
                    x, _operand, _w_scale, _x_spec, _bias, kernel_size,
                    stride, padding, out_channels)
            return conv_kernel
        if isinstance(layer, Linear):
            name = layer.weight.name
            if name not in self.codes:
                return None
            operand = self._operand_for(name)
            w_scale = self.weight_scales[name]
            x_spec = self._ifm_spec(layer)
            bias = layer.bias.data if layer.bias is not None else None

            def linear_kernel(x, _operand=operand, _w_scale=w_scale,
                              _x_spec=x_spec, _bias=bias):
                return IK.linear_integer_forward(x, _operand, _w_scale,
                                                 _x_spec, _bias)
            return linear_kernel
        if isinstance(layer, ReLU):
            return IK.relu_infer
        if isinstance(layer, MaxPool2D):
            kernel_size, stride = layer.kernel_size, layer.stride

            def pool_kernel(x):
                return IK.max_pool2d_infer(x, kernel_size, stride)
            return pool_kernel
        return None

    # -- binding ------------------------------------------------------------------
    def bind(self, network: Network) -> List[Tuple[Layer, Callable]]:
        """Kernel closures for ``network``'s layers (cached per network)."""
        cached = self._bindings
        if cached is not None and cached[0]() is network:
            return cached[1]
        bindings = []
        for layer in network.leaf_layers():
            kernel = self._kernel_for(layer)
            if kernel is not None:
                bindings.append((layer, kernel))
        self._bindings = (weakref.ref(network), bindings)
        return bindings

    def install(self, network: Network) -> None:
        """Attach the fused kernels (caller holds the network lock)."""
        for layer, kernel in self.bind(network):
            layer._int_kernel = kernel

    def uninstall(self, network: Network) -> None:
        """Detach the fused kernels (caller holds the network lock)."""
        for layer, _ in self.bind(network):
            layer._int_kernel = None

    def nbytes(self) -> int:
        """Bytes held by the plan's code arrays and float store."""
        total = sum(array.nbytes for array in self.codes.values())
        total += sum(array.nbytes for array in self.float_store.values())
        return int(total)


class _CalibrationRecorder:
    """Load hook that records per-IFM absolute maxima during calibration."""

    __slots__ = ("max_abs",)

    def __init__(self):
        self.max_abs: Dict[str, float] = {}

    def apply(self, array: np.ndarray, spec: TensorSpec) -> np.ndarray:
        if spec.kind is DataKind.IFM:
            observed = float(np.max(np.abs(array))) if array.size else 0.0
            current = self.max_abs.get(spec.name, 0.0)
            if observed > current:
                self.max_abs[spec.name] = observed
            elif spec.name not in self.max_abs:
                self.max_abs[spec.name] = current
        return array


def _calibration_inputs(session) -> Optional[np.ndarray]:
    from repro.engine.session import _resolve_arrays

    if session.dataset is None:
        return None
    inputs, _ = _resolve_arrays(session.dataset)
    if len(inputs) == 0:
        return None
    return np.asarray(inputs[:max(session.batch_size, 64)], dtype=np.float32)


def _calibrate_ifm_specs(session, store: Dict[str, np.ndarray], bits: int
                         ) -> Dict[str, QuantizationSpec]:
    """Static per-layer input scales from one forward over calibration rows.

    The forward runs with weights served from the corrupted ``store`` (the
    ranges a deployed model would observe) and the recorder as the IFM hook.
    A fixed prefix of the dataset's validation split keeps the result a pure
    function of (dataset, store) — every process calibrating the same plan
    derives identical scales, which the cross-process bit-identity guarantee
    depends on.
    """
    from repro.engine.session import network_lock

    inputs = _calibration_inputs(session)
    recorder = _CalibrationRecorder()
    if inputs is not None:
        network = session.network
        with network_lock(network), \
                network.loading(_StaticStoreReader(recorder, store)):
            network.forward(inputs)
    specs: Dict[str, QuantizationSpec] = {}
    qmax = float(2 ** (bits - 1) - 1)
    for name, max_abs in recorder.max_abs.items():
        scale = (max_abs / qmax) if max_abs > 0.0 else 1.0
        specs[name] = QuantizationSpec(bits=bits, scale=scale)
    return specs


def compile_quantized_plan(session, injector=None,
                           seed: Optional[int] = None) -> QuantizedPlan:
    """Compile the session's static store into a :class:`QuantizedPlan`.

    Materializes the store for (``injector``, ``seed``) — both default to
    the session's own — recovers the GEMM weights into integer code arrays,
    keeps every other stored weight in the plan's float store, and
    calibrates static input scales.  Raises ``ValueError`` when
    :func:`integer_plan_supported` rejects the injector.
    """
    injector = session.injector if injector is None else injector
    if not integer_plan_supported(injector):
        raise ValueError(
            "integer execution needs a QuantizedLoadTransform at int4/int8/"
            f"int16 without an ECC corrector; got {type(injector).__name__}")
    store = session.materialize(injector, seed=seed)
    bits = injector.bits
    network = session.network
    params = network.named_parameters()
    gemm_weight_names = {layer.weight.name
                         for layer in network.leaf_layers()
                         if isinstance(layer, (Conv2D, Linear))}
    codes: Dict[str, np.ndarray] = {}
    weight_scales: Dict[str, float] = {}
    float_store: Dict[str, np.ndarray] = {}
    for name, stored in store.items():
        if name in gemm_weight_names:
            # spec_for's fingerprint cache returns the exact spec the store
            # was materialized with (the clean data is unchanged), so
            # recovery inverts the stored representation bit-exactly.
            qspec = injector.spec_for(name, params[name].data)
            codes[name] = recover_codes(stored, qspec)
            weight_scales[name] = qspec.scale
        else:
            float_store[name] = stored
    ifm_specs = _calibrate_ifm_specs(session, store, bits)
    return QuantizedPlan(bits=bits, codes=codes, weight_scales=weight_scales,
                         ifm_specs=ifm_specs, float_store=float_store)
