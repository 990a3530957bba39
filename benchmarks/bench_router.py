#!/usr/bin/env python
"""Macro-benchmark: the multi-replica router tier under generated load.

Spawns N local :class:`repro.serve.server.InferenceServer` replica
processes from ONE shared-memory plan export (no per-replica recompile or
re-materialization), fronts them with
:class:`repro.serve.router.RouterServer`, drives the router with the
deterministic load harness and records the run through the shared
benchmark harness (:mod:`repro.analysis.perfhistory`) — the
``BENCH_router.json`` latest-run snapshot:

* **Bit-identity gate** (always enforced) — the steady scenario through
  the router, balanced across all replicas, must be tobytes-identical to
  serial in-process ``session.predict`` for the same fixed seeds.  Every
  replica adopts the same materialized store and the gateway's static
  batch shapes make results occupancy-independent, so which replica served
  a request must never show up in the bytes.
* **Scale-out gate** — aggregate steady RPS with 3 local replicas vs the
  1-replica RPS through the same router.  Environment-aware (skipped below
  4 visible CPUs) and enforced by ``repro.cli perf check``; gate policy
  and skip semantics live in ``docs/benchmarks.md``.

Usage::

    python benchmarks/bench_router.py [--output PATH]
        [--model NAME] [--requests N] [--replicas N] [--concurrency N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfhistory import (  # noqa: E402
    BENCHMARKS,
    add_harness_arguments,
    finish_run,
    visible_cpu_count,
)
from repro.parallel.plan import export_session_plan              # noqa: E402
from repro.serve import loadgen                                  # noqa: E402
from repro.serve.bench import build_serving_gateway, request_set  # noqa: E402
from repro.serve.gateway import ServeConfig                      # noqa: E402
from repro.serve.replica import ReplicaManager                   # noqa: E402
from repro.serve.router import RouterConfig, route_in_thread     # noqa: E402
from repro.serve.server import ServerConfig                      # noqa: E402

SPEC = BENCHMARKS["router"]


def measure_topology(plan, model: str, samples: np.ndarray, *,
                     replicas: int, max_batch: int, queue_depth: int,
                     concurrency: int) -> dict:
    """Steady-scenario throughput through a router over ``replicas`` replicas.

    ``plan`` is the shared :class:`~repro.parallel.plan.ExportedPlan` every
    replica adopts, ``model`` the endpoint name, ``samples`` the request
    set; ``max_batch``/``queue_depth`` configure each replica and
    ``concurrency`` the closed-loop client.  Returns a dict with the
    :class:`~repro.serve.loadgen.LoadResult` record, the per-replica
    request spread and the router's final metrics.
    """
    manager = ReplicaManager(
        {model: plan},
        serve_config=ServeConfig(max_batch=max_batch),
        server_config=ServerConfig(max_queue_depth=queue_depth))
    handle = None
    target = None
    try:
        spawned = manager.spawn_many(replicas)
        handle = route_in_thread(spawned, manager, RouterConfig())
        target = loadgen.HttpTarget(handle.base_url)
        loadgen.run_steady(target, model, samples[:4 * replicas],
                           concurrency=concurrency)        # warm every replica
        result = loadgen.run_steady(target, model, samples,
                                    concurrency=concurrency)
        metrics = target.metrics()
    finally:
        if target is not None:
            target.close()
        if handle is not None:
            handle.stop()
        manager.close()
    return {
        "replicas": replicas,
        "steady": result.to_record(),
        "replica_spread": result.replica_counts(),
        "router": metrics["router"],
        "rows": result.stacked_rows() if result.ok == result.sent else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_harness_arguments(parser, SPEC)
    parser.add_argument("--model", default="lenet",
                        help="model zoo entry to serve")
    parser.add_argument("--ber", type=float, default=1e-3,
                        help="weight-store bit error rate")
    parser.add_argument("--requests", type=int, default=192,
                        help="steady-scenario request count")
    parser.add_argument("--replicas", type=int, default=3,
                        help="replica count of the scaled topology")
    parser.add_argument("--concurrency", type=int, default=12,
                        help="closed-loop client workers")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="per-replica admission bound")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="per-replica micro-batcher coalescing bound")
    parser.add_argument("--dtype", default="int8",
                        choices=("fp32", "int8", "int4", "int16"),
                        help="stored precision / execution path of the "
                             "endpoint")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cpus = visible_cpu_count()
    gateway, session, dataset = build_serving_gateway(
        args.model, ber=args.ber, seed=args.seed,
        max_batch=args.max_batch, max_wait_ms=2.0, dtype=args.dtype)
    samples = request_set(dataset, args.requests)
    reference = session.predict(samples, pad_to=args.max_batch)
    plan = export_session_plan(session)
    try:
        single = measure_topology(
            plan, args.model, samples, replicas=1,
            max_batch=args.max_batch, queue_depth=args.queue_depth,
            concurrency=args.concurrency)
        scaled = measure_topology(
            plan, args.model, samples, replicas=args.replicas,
            max_batch=args.max_batch, queue_depth=args.queue_depth,
            concurrency=args.concurrency)
    finally:
        plan.close()
        gateway.close()

    def identical(topology: dict) -> bool:
        rows = topology.pop("rows")
        return rows is not None and rows.tobytes() == reference.tobytes()

    single_identical = identical(single)
    scaled_identical = identical(scaled)
    bit_identical = single_identical and scaled_identical
    rps_single = single["steady"]["achieved_rps"]
    rps_scaled = scaled["steady"]["achieved_rps"]
    speedup = rps_scaled / rps_single if rps_single > 0 else float("nan")

    details = {
        "model": args.model,
        "dtype": args.dtype,
        "execution_mode": session.mode_label(),
        "ber": float(args.ber),
        "requests": int(args.requests),
        "concurrency": int(args.concurrency),
        "queue_depth": int(args.queue_depth),
        "max_batch": int(args.max_batch),
        "single": single,
        "scaled": scaled,
    }

    print(f"router tier ({args.model}, {args.dtype} weight store at BER "
          f"{args.ber:g}, {cpus} CPU(s) visible):")
    print(f"  1 replica   {rps_single:7,.0f} req/s  "
          f"(bit-identical: {single_identical})")
    print(f"  {args.replicas} replicas  {rps_scaled:7,.0f} req/s  "
          f"(bit-identical: {scaled_identical})  "
          f"spread: {scaled['replica_spread']}")
    print(f"  aggregate speedup: {speedup:.2f}x")

    metrics = {
        "bit_identical": bool(bit_identical),
        "scaleout_speedup": float(speedup),
        "rps_1_replica": float(rps_single),
        "rps_scaled": float(rps_scaled),
        "scaled_replicas": int(args.replicas),
    }
    units = {"scaleout_speedup": "x", "rps_1_replica": "req/s",
             "rps_scaled": "req/s", "scaled_replicas": "replicas"}
    return finish_run(SPEC, args, metrics, units, details)


if __name__ == "__main__":
    raise SystemExit(main())
