"""Serving build helpers shared by the serving front ends and benchmarks.

One place builds the canonical serving endpoint, so ``repro.cli serve`` /
``route`` / ``loadgen``, the server and router benchmark scripts and
``perfbench`` all serve the same thing:

* :func:`request_set` — ``n`` single-sample requests tiled from a dataset's
  validation split;
* :func:`serving_injector` — the weight-store injector and execution mode
  for a serving dtype (``fp32`` or an integer precision served through the
  fused integer-GEMM plan);
* :func:`build_serving_gateway` — a zoo model registered on a
  micro-batching :class:`~repro.serve.gateway.ServingGateway`.
"""

from __future__ import annotations

import numpy as np

from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.nn.models import build_model_with_dataset
from repro.nn.tensor import DataKind
from repro.serve.gateway import ServeConfig, ServingGateway


def request_set(dataset, n_requests: int) -> np.ndarray:
    """``n_requests`` single-sample inputs, tiling ``dataset``'s validation set.

    Returns the stacked inputs as an array of shape
    ``(n_requests,) + input_shape``.
    """
    val_x = np.asarray(dataset.val_x)
    repeats = -(-n_requests // len(val_x))        # ceil division
    return np.concatenate([val_x] * repeats)[:n_requests]


#: serving dtypes reachable from the CLI and benchmark drivers.
SERVING_DTYPES = ("fp32", "int8", "int4", "int16")


def serving_injector(dtype: str, *, ber: float, model_id: int, seed: int):
    """Injector + execution mode for a serving endpoint at ``dtype``.

    The weight store runs at ``ber`` with error model ``model_id`` and its
    streams fixed by ``seed``.  ``fp32`` returns the historical float
    injector.  Integer dtypes store the model as b-bit codes (bit errors
    applied to the codes) and select integer execution: the returned
    :class:`~repro.nn.quantization.QuantizedLoadTransform` wraps the bit
    error injector, and the mode is ``"integer"`` so a misconfigured
    endpoint fails loudly instead of silently serving FP32.  Returns the
    ``(injector, execution_mode)`` pair to pass to ``register``.
    """
    if dtype not in SERVING_DTYPES:
        raise ValueError(f"unknown serving dtype {dtype!r}; "
                         f"expected one of {SERVING_DTYPES}")
    bits = 32 if dtype == "fp32" else int(dtype[3:])
    inner = BitErrorInjector(make_error_model(model_id, ber, seed=seed),
                             bits=bits, data_kinds={DataKind.WEIGHT},
                             seed=seed)
    if dtype == "fp32":
        return inner, "fp32"
    from repro.nn.quantization import QuantizedLoadTransform

    return QuantizedLoadTransform(bits, inner=inner), "integer"


def build_serving_gateway(model: str = "lenet", *, ber: float = 1e-3,
                          model_id: int = 0, seed: int = 0, epochs: int = 0,
                          max_batch: int = 32, max_wait_ms: float = 2.0,
                          dtype: str = "fp32"):
    """Build the canonical one-endpoint serving gateway for ``model``.

    The shared builder behind ``repro.cli serve`` / ``loadgen`` and
    ``benchmarks/bench_server.py``: builds ``model`` from the zoo (trained
    for ``epochs`` when > 0; untrained serves fine for throughput work),
    stores its weights in approximate DRAM at ``ber`` (error model
    ``model_id``, stream fixed by ``seed``), and registers it under its
    model name on a gateway whose micro-batcher runs at
    ``max_batch``/``max_wait_ms``.  ``dtype`` selects the stored precision
    and execution path (see :func:`serving_injector`); integer dtypes
    serve through the fused integer-GEMM plan.  Returns
    ``(gateway, session, dataset)``.
    """
    from repro.nn.training import Trainer

    network, dataset, spec = build_model_with_dataset(model, seed=seed)
    if epochs > 0:
        Trainer(network, dataset, spec.training_config(epochs=epochs)).fit()
    network.eval()
    injector, execution_mode = serving_injector(dtype, ber=ber,
                                                model_id=model_id, seed=seed)
    gateway = ServingGateway(ServeConfig(max_batch=max_batch,
                                         max_wait_ms=max_wait_ms))
    session = gateway.register(model, network, dataset, injector=injector,
                               seed=seed, metric=spec.metric,
                               execution_mode=execution_mode)
    return gateway, session, dataset
