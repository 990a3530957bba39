#!/usr/bin/env python
"""Macro-benchmark: the fused integer-GEMM plan vs the FP32 static store.

Measures serving-shaped dispatch throughput (``predict(pad_to=...)`` one
micro-batch at a time) through both execution paths of the same zoo model
and records it through the shared benchmark harness
(:mod:`repro.analysis.perfhistory`) — the ``BENCH_quantized.json``
latest-run snapshot:

* **FP32 static store** — the historical serving configuration: weights
  stored as corrupted float32, forwards on the training kernels.
* **Fused integer plan** — weights stored as int8 codes (bit errors applied
  to the codes), executed by the compiled integer-GEMM schedule: quantize
  activations once per layer, exact integer GEMM on the stored codes,
  dequantize once at the layer output.

The headline is the int8/FP32 dispatch-rate ratio.  Usage::

    python benchmarks/bench_quantized.py [--output PATH]
        [--model NAME] [--dtype D] [--pad-to N] [--rows N] [--passes N]

Gate policy (registry + semantics: ``docs/benchmarks.md``): speedup
regressions are enforced by ``repro.cli perf check``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfhistory import (  # noqa: E402
    BENCHMARKS,
    add_harness_arguments,
    finish_run,
)
from repro.dram.error_models import make_error_model  # noqa: E402
from repro.dram.injection import BitErrorInjector  # noqa: E402
from repro.engine.session import InferenceSession  # noqa: E402
from repro.nn.models import build_model_with_dataset  # noqa: E402
from repro.nn.quantization import QuantizedLoadTransform  # noqa: E402
from repro.nn.tensor import DataKind  # noqa: E402

SPEC = BENCHMARKS["quantized"]


def measure_quantized_throughput(model_name: str = "lenet", *,
                                 ber: float = 1e-3, model_id: int = 0,
                                 dtype: str = "int8", pad_to: int = 16,
                                 n_rows: int = 1024, passes: int = 3,
                                 seed: int = 0) -> Dict:
    """Serving-shaped dispatch rate: fused integer plan vs FP32 static store.

    Both paths serve the same zoo model (``model_name``, weight store at
    ``ber`` with error model ``model_id``, streams fixed by ``seed``) from a
    materialized static store and run ``predict(pad_to=...)`` one
    ``pad_to``-row dispatch at a time — the shape the micro-batcher
    produces.  The FP32 path stores the weights as corrupted float32 (the
    historical serving configuration); the ``dtype`` path stores them as
    integer codes and executes the compiled fused plan.  The best of
    ``passes`` timed passes counts, and each pass covers ``n_rows`` rows.
    Returns a record dict with rows/second for both paths and the headline
    ``speedup`` CI gates on.
    """
    if not dtype.startswith("int"):
        raise ValueError(f"dtype must be an integer precision, got {dtype!r}")
    bits = int(dtype[3:])
    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    network.eval()
    error_model = make_error_model(model_id, ber, seed=seed)
    val_x = np.asarray(dataset.val_x, dtype=np.float32)
    reps = -(-n_rows // len(val_x))
    rows_in = np.concatenate([val_x] * reps)[:n_rows]

    fp32_injector = BitErrorInjector(error_model, bits=32,
                                     data_kinds={DataKind.WEIGHT}, seed=seed)
    fp32_session = InferenceSession(network, dataset, injector=fp32_injector,
                                    metric=spec.metric, seed=seed)
    int_injector = QuantizedLoadTransform(
        bits, inner=BitErrorInjector(error_model, bits=bits,
                                     data_kinds={DataKind.WEIGHT}, seed=seed))
    int_session = InferenceSession(network, dataset, injector=int_injector,
                                   metric=spec.metric, seed=seed,
                                   execution_mode="integer")

    def dispatch_rate(session: InferenceSession) -> float:
        session.predict(rows_in[:pad_to], pad_to=pad_to)   # compile + warm
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for lo in range(0, n_rows, pad_to):
                session.predict(rows_in[lo:lo + pad_to], pad_to=pad_to)
            best = min(best, time.perf_counter() - start)
        return n_rows / best

    fp32_rate = dispatch_rate(fp32_session)
    int_rate = dispatch_rate(int_session)
    return {
        "model": model_name,
        "dtype": dtype,
        "ber": float(ber),
        "pad_to": int(pad_to),
        "n_rows": int(n_rows),
        "passes": int(passes),
        "fp32_rows_per_sec": fp32_rate,
        "quantized_rows_per_sec": int_rate,
        "speedup": int_rate / fp32_rate,
    }




def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_harness_arguments(parser, SPEC)
    parser.add_argument("--model", default="lenet",
                        help="model zoo entry to benchmark")
    parser.add_argument("--dtype", default="int8",
                        choices=("int8", "int4", "int16"),
                        help="stored integer precision of the fused plan")
    parser.add_argument("--ber", type=float, default=1e-3,
                        help="weight-store bit error rate")
    parser.add_argument("--pad-to", type=int, default=16,
                        help="static dispatch shape (rows per micro-batch)")
    parser.add_argument("--rows", type=int, default=1024,
                        help="rows served per timed pass")
    parser.add_argument("--passes", type=int, default=5,
                        help="timed passes (best counts)")
    args = parser.parse_args()

    record = measure_quantized_throughput(
        args.model, ber=args.ber, dtype=args.dtype, pad_to=args.pad_to,
        n_rows=args.rows, passes=args.passes)
    print(f"serving dispatch rate ({args.model}, {args.pad_to}-row "
          f"dispatches, store at BER {args.ber:g}):")
    print(f"  fp32 static store   {record['fp32_rows_per_sec']:>10,.0f} rows/s")
    print(f"  {args.dtype} fused plan     "
          f"{record['quantized_rows_per_sec']:>10,.0f} rows/s")
    print(f"  speedup             {record['speedup']:>10.2f} x")

    metrics = {
        "speedup": record["speedup"],
        "fp32_rows_per_sec": record["fp32_rows_per_sec"],
        "quantized_rows_per_sec": record["quantized_rows_per_sec"],
    }
    units = {"speedup": "x", "fp32_rows_per_sec": "rows/s",
             "quantized_rows_per_sec": "rows/s"}
    details = {k: v for k, v in record.items() if k not in metrics}
    return finish_run(SPEC, args, metrics, units, details)


if __name__ == "__main__":
    raise SystemExit(main())
