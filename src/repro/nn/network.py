"""The Network container: a stack of layers plus EDEN-facing introspection.

Beyond ordinary forward/backward execution, a :class:`Network` can

* report the full inventory of DNN data types (weights and IFMs) that EDEN
  characterizes and maps to DRAM partitions (:meth:`data_type_specs`),
* install a *fault injector* so every simulated memory load of a weight or
  IFM passes through an approximate-DRAM error model
  (:meth:`set_fault_injector`, or :meth:`loading` for one block), and
* snapshot/restore its parameters, which the retraining and characterization
  loops rely on.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import (
    Layer,
    Sequential,
    set_layer_injector,
    set_layer_mode,
    set_layer_precision,
)
from repro.nn.tensor import DataKind, Parameter, TensorSpec


class _SpecRecorder:
    """Fault-injector stand-in that records every load's TensorSpec."""

    def __init__(self) -> None:
        self.specs: List[TensorSpec] = []
        self._seen: set = set()

    def apply(self, array: np.ndarray, spec: TensorSpec) -> np.ndarray:
        if spec.name not in self._seen:
            self._seen.add(spec.name)
            self.specs.append(spec)
        return array


class Network:
    """A feed-forward DNN assembled from :class:`~repro.nn.layers.Layer` objects."""

    def __init__(self, name: str, layers: Sequence[Layer], input_shape, num_classes: int):
        self.name = name
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)  # (C, H, W) or (features,)
        self.num_classes = int(num_classes)
        self.training = False
        self._injector = None
        self._assign_layer_indices()

    # -- structure ----------------------------------------------------------------
    def _assign_layer_indices(self) -> None:
        for index, layer in enumerate(self.leaf_layers()):
            layer.layer_index = index
            for param in layer.parameters():
                param.layer_index = index

    def leaf_layers(self) -> List[Layer]:
        leaves: List[Layer] = []
        for layer in self.layers:
            if hasattr(layer, "iter_layers"):
                leaves.extend(layer.iter_layers())
            else:
                leaves.append(layer)
        return leaves

    @property
    def depth(self) -> int:
        """Number of parameterized leaf layers (conv + linear)."""
        return sum(1 for layer in self.leaf_layers() if layer.parameters())

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def named_parameters(self) -> Dict[str, Parameter]:
        return {param.name: param for param in self.parameters()}

    def num_parameters(self) -> int:
        return sum(param.num_elements for param in self.parameters())

    def parameter_bytes(self, dtype_bits: int = 32) -> int:
        return sum(param.num_elements * dtype_bits // 8 for param in self.parameters())

    # -- modes and hooks ----------------------------------------------------------
    def train(self) -> "Network":
        self.training = True
        set_layer_mode(self.layers, True)
        return self

    def eval(self) -> "Network":
        self.training = False
        set_layer_mode(self.layers, False)
        return self

    def set_fault_injector(self, injector) -> None:
        """Install ``injector`` (or clear it with ``None``) on every layer.

        The injector must expose ``apply(array, spec) -> array``; it is called
        on every simulated memory load of a weight or IFM.
        """
        self._injector = injector
        set_layer_injector(self.layers, injector)

    @property
    def fault_injector(self):
        return self._injector

    @contextlib.contextmanager
    def loading(self, hook):
        """Run the block in eval mode with ``hook`` intercepting every load.

        The hook is installed only when it differs from the current one
        (installing walks every layer); on exit the previous hook and the
        training mode are restored.  Callers sharing the network across
        threads hold :func:`repro.engine.session.network_lock` around it.
        """
        previous = self._injector
        was_training = self.training
        if was_training:
            self.eval()
        swap = hook is not previous
        if swap:
            self.set_fault_injector(hook)
        try:
            yield
        finally:
            if swap:
                self.set_fault_injector(previous)
            if was_training:
                self.train()

    def set_data_precision(self, weight_bits: Optional[int] = None,
                           ifm_bits: Optional[int] = None) -> None:
        """Set the storage precision advertised by weight / IFM load specs.

        EDEN can map weights and IFMs to DRAM partitions of different
        precision; injectors and correctors that key off ``spec.dtype_bits``
        then see the right per-kind value.  ``None`` leaves a kind unchanged.
        """
        set_layer_precision(self.layers, weight_bits=weight_bits,
                            ifm_bits=ifm_bits)

    # -- execution ----------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Class predictions for a batch of inputs (uses eval mode)."""
        was_training = self.training
        self.eval()
        predictions = []
        for start in range(0, len(x), batch_size):
            logits = self.forward(x[start:start + batch_size])
            predictions.append(np.argmax(logits, axis=1))
        if was_training:
            self.train()
        return np.concatenate(predictions) if predictions else np.empty(0, dtype=np.int64)

    def loss(self, x: np.ndarray, labels: np.ndarray):
        """Forward + cross-entropy; returns (loss, grad_wrt_logits, logits)."""
        logits = self.forward(x)
        loss, grad = F.cross_entropy_loss(logits, labels)
        return loss, grad, logits

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- EDEN-facing introspection --------------------------------------------------
    def data_type_specs(self, dtype_bits: Optional[int] = 32,
                        batch_size: int = 1) -> List[TensorSpec]:
        """Inventory of weight and IFM data types seen during one inference.

        Runs a single dummy forward pass with a recording hook, exactly like a
        real error-injection run, so composite layers (residual blocks, fire
        modules) report the same set of data types the injector would touch.
        ``dtype_bits=None`` keeps each spec at the precision its layer
        advertises (see :meth:`set_data_precision`) instead of stamping a
        uniform one.
        """
        recorder = _SpecRecorder()
        with self.loading(recorder):
            self.forward(np.zeros((batch_size,) + self.input_shape,
                                  dtype=np.float32))
        if dtype_bits is None:
            return list(recorder.specs)
        return [spec.with_bits(dtype_bits) for spec in recorder.specs]

    def weight_specs(self, dtype_bits: Optional[int] = 32) -> List[TensorSpec]:
        return [s for s in self.data_type_specs(dtype_bits) if s.kind is DataKind.WEIGHT]

    def ifm_specs(self, dtype_bits: Optional[int] = 32) -> List[TensorSpec]:
        return [s for s in self.data_type_specs(dtype_bits) if s.kind is DataKind.IFM]

    def footprint_bytes(self, dtype_bits: int = 32) -> int:
        """Total bytes of weights + IFMs touched by one inference (Table 1 metric)."""
        return sum(spec.size_bytes for spec in self.data_type_specs(dtype_bits))

    # -- state management ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {param.name: param.data.copy() for param in self.parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)[:5]}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    def clone(self) -> "Network":
        """Structural deep copy sharing no parameter storage (used by retraining)."""
        import copy

        clone = copy.deepcopy(self)
        clone.set_fault_injector(None)
        return clone

    def summary(self) -> str:
        lines = [f"Network {self.name!r}: input={self.input_shape}, classes={self.num_classes}"]
        for layer in self.leaf_layers():
            n_params = sum(p.num_elements for p in layer.parameters())
            lines.append(f"  [{layer.layer_index:3d}] {type(layer).__name__:<22s} "
                         f"{layer.name:<32s} params={n_params}")
        lines.append(f"  total parameters: {self.num_parameters()}")
        return "\n".join(lines)
