#!/usr/bin/env python
"""Macro-benchmark: the serving gateway vs batch-1 per-request serving.

Measures the serving stack end to end and records it through the shared
benchmark harness (:mod:`repro.analysis.perfhistory`) — the
``BENCH_serving.json`` latest-run snapshot:

* **Micro-batched vs batch-1 serial** (the headline) — wall clock of serving
  N single-sample requests through the dynamic micro-batcher (coalesced
  dispatches of up to ``--max-batch`` through one compiled static-store
  plan) vs a gateway compiled at batch shape 1 (one forward pass per
  request).  The per-layer cost of a forward pass amortizes over the batch,
  so coalescing is where serving throughput comes from.
* **Bit-identity** — coalesced results must equal strictly serial
  per-request dispatch through the same compiled plan, bit for bit (static
  batch shapes make a request's result independent of its batch
  neighbours).  A mismatch fails the benchmark regardless of speed.
* **Cold vs warm registry** — registering a (model, operating point) pair
  compiles + materializes once; re-registering the same fingerprint is a
  cache hit.
* **Async front end** — concurrent client threads submitting through the
  worker-thread batcher.

The network is untrained: serving throughput does not depend on what the
weights converged to, and skipping training keeps the benchmark a pure
measurement of the serving stack.

Usage::

    python benchmarks/bench_serving.py [--output PATH]
        [--model NAME] [--requests N] [--max-batch N]

Gate policy (registry + semantics: ``docs/benchmarks.md``): the
bit-identity gate fails the run unconditionally; micro-batch speedup
regressions are enforced by ``repro.cli perf check``.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfhistory import (  # noqa: E402
    BENCHMARKS,
    add_harness_arguments,
    finish_run,
)
from repro.nn.models import build_model_with_dataset  # noqa: E402
from repro.serve.bench import request_set, serving_injector  # noqa: E402
from repro.serve.gateway import ServeConfig, ServingGateway  # noqa: E402

SPEC = BENCHMARKS["serving"]


def measure_serving(model_name: str = "lenet", *, ber: float = 1e-3,
                    model_id: int = 0, n_requests: int = 256,
                    max_batch: int = 32, client_threads: int = 4,
                    seed: int = 0, dtype: str = "fp32") -> Dict:
    """Measure the serving gateway against batch-1 per-request serving.

    Builds ``model_name`` from the zoo, stores its weights in approximate
    DRAM at ``ber`` (error model ``model_id``), and serves ``n_requests``
    single-sample requests four ways (serial batch-1, micro-batched,
    micro-batched via concurrent ``client_threads``, and the serial
    reference for the bit-identity check).  ``max_batch`` is the
    micro-batcher's coalescing bound, ``seed`` fixes every stream, and
    ``dtype`` selects the stored precision / execution path of every
    endpoint under test (see :func:`serving_injector`).
    Returns a JSON-serializable dict with timings, the headline
    ``microbatch_speedup``, ``bit_identical``, cold/warm registry seconds,
    and the gateway telemetry snapshot.
    """
    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    network.eval()
    requests = request_set(dataset, n_requests)
    injector, execution_mode = serving_injector(dtype, ber=ber,
                                                model_id=model_id, seed=seed)

    # -- cold vs warm registry ---------------------------------------------------
    gateway = ServingGateway(ServeConfig(max_batch=max_batch,
                                         auto_flush=False))
    started = time.perf_counter()
    gateway.register(model_name, network, dataset, injector=injector,
                     seed=seed, metric=spec.metric,
                     execution_mode=execution_mode)
    cold_register_seconds = time.perf_counter() - started
    started = time.perf_counter()
    gateway.register(f"{model_name}-replica", network, dataset,
                     injector=injector, seed=seed, metric=spec.metric,
                     execution_mode=execution_mode)
    warm_register_seconds = time.perf_counter() - started

    # -- batch-1 serial per-request serving --------------------------------------
    serial_gateway = ServingGateway(ServeConfig(max_batch=1,
                                                auto_flush=False))
    serial_gateway.register(model_name, network, dataset, injector=injector,
                            seed=seed, metric=spec.metric,
                            execution_mode=execution_mode)
    serial_gateway.predict(model_name, requests[0])      # warm caches
    started = time.perf_counter()
    serial_outputs = serial_gateway.predict_many(model_name, requests,
                                                 coalesce=False)
    serial_seconds = time.perf_counter() - started

    # -- micro-batched serving through the shared plan ---------------------------
    gateway.predict(model_name, requests[0])             # warm caches
    started = time.perf_counter()
    batched_outputs = gateway.predict_many(model_name, requests,
                                           coalesce=True)
    batched_seconds = time.perf_counter() - started

    # -- bit-identity: coalesced vs serial dispatch, same compiled shape ---------
    reference_outputs = gateway.predict_many(model_name, requests,
                                             coalesce=False)
    # Raw byte comparison: bit-identity must hold even through NaN logits
    # (corrupted FP32 weights produce them), which np.array_equal rejects.
    bit_identical = (batched_outputs.shape == reference_outputs.shape and
                     batched_outputs.tobytes() == reference_outputs.tobytes())

    # -- async front end: concurrent clients, worker-thread batcher --------------
    async_gateway = ServingGateway(ServeConfig(max_batch=max_batch,
                                               max_wait_ms=2.0,
                                               auto_flush=True))
    async_gateway.register(model_name, network, dataset, injector=injector,
                           seed=seed, metric=spec.metric,
                           execution_mode=execution_mode)
    async_gateway.predict(model_name, requests[0])       # warm caches
    shards = np.array_split(requests, client_threads)

    def client(shard: np.ndarray) -> None:
        futures = [async_gateway.submit(model_name, sample)
                   for sample in shard]
        for future in futures:
            future.result()

    threads = [threading.Thread(target=client, args=(shard,))
               for shard in shards]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    async_seconds = time.perf_counter() - started
    async_gateway.close()

    snapshot = gateway.snapshot()
    record = {
        "model": model_name,
        "dtype": dtype,
        "ber": float(ber),
        "n_requests": int(n_requests),
        "max_batch": int(max_batch),
        "client_threads": int(client_threads),
        "serial_batch1_seconds": serial_seconds,
        "microbatched_seconds": batched_seconds,
        "microbatch_speedup": serial_seconds / batched_seconds,
        "async_seconds": async_seconds,
        "serial_rps": n_requests / serial_seconds,
        "microbatched_rps": n_requests / batched_seconds,
        "async_rps": n_requests / async_seconds,
        "bit_identical": bit_identical,
        "cold_register_seconds": cold_register_seconds,
        "warm_register_seconds": warm_register_seconds,
        "registry": dict(gateway.registry.stats),
        "telemetry": snapshot,
        "serial_matches_batch1_predictions": bool(np.array_equal(
            np.argmax(serial_outputs, axis=1),
            np.argmax(batched_outputs, axis=1))),
    }
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_harness_arguments(parser, SPEC)
    parser.add_argument("--model", default="lenet",
                        help="model zoo entry to serve")
    parser.add_argument("--ber", type=float, default=1e-3,
                        help="weight-store bit error rate")
    parser.add_argument("--requests", type=int, default=512,
                        help="number of single-sample requests")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="micro-batcher coalescing bound")
    args = parser.parse_args(argv)

    record = measure_serving(args.model, ber=args.ber,
                             n_requests=args.requests,
                             max_batch=args.max_batch)
    print(f"serving {record['n_requests']} single-sample requests "
          f"({args.model}, weight store at BER {args.ber:g}):")
    print(f"  batch-1 serial       {record['serial_batch1_seconds']:8.3f} s  "
          f"({record['serial_rps']:8,.0f} req/s)")
    print(f"  micro-batched (<={args.max_batch:d})   "
          f"{record['microbatched_seconds']:8.3f} s  "
          f"({record['microbatched_rps']:8,.0f} req/s)")
    print(f"  async, {record['client_threads']} clients     "
          f"{record['async_seconds']:8.3f} s  "
          f"({record['async_rps']:8,.0f} req/s)")
    print(f"  speedup              {record['microbatch_speedup']:8.1f} x")
    print(f"  bit-identical        {record['bit_identical']}")
    print(f"  registry cold/warm   {record['cold_register_seconds'] * 1e3:.1f} ms "
          f"/ {record['warm_register_seconds'] * 1e3:.2f} ms")

    metrics = {
        "bit_identical": bool(record["bit_identical"]),
        "microbatch_speedup": record["microbatch_speedup"],
        "serial_rps": record["serial_rps"],
        "microbatched_rps": record["microbatched_rps"],
        "async_rps": record["async_rps"],
        "cold_register_seconds": record["cold_register_seconds"],
        "warm_register_seconds": record["warm_register_seconds"],
    }
    units = {
        "microbatch_speedup": "x", "serial_rps": "req/s",
        "microbatched_rps": "req/s", "async_rps": "req/s",
        "cold_register_seconds": "s", "warm_register_seconds": "s",
    }
    details = {k: v for k, v in record.items() if k not in metrics}
    return finish_run(SPEC, args, metrics, units, details)


if __name__ == "__main__":
    raise SystemExit(main())
