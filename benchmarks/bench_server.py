#!/usr/bin/env python
"""Macro-benchmark: the HTTP serving front end under generated load.

Stands a real :class:`repro.serve.server.InferenceServer` up around an
in-process gateway, drives it with the deterministic load-generation
harness (``repro.serve.loadgen``) and records the run through the shared
benchmark harness (:mod:`repro.analysis.perfhistory`) — the
``BENCH_server.json`` latest-run snapshot:

* **Steady scenario + bit-identity gate** (the headline) — a closed-loop
  client covers every request exactly once; the full HTTP response set
  must be bit-identical (tobytes-equal, NaN-safe through the base64 row
  encoding) to serial in-process ``session.predict`` for the same fixed
  seeds.  A mismatch fails the benchmark regardless of throughput.
* **Burst scenario + admission gate** — a barrier-released burst sized
  well above the server's ``max_queue_depth`` must shed (``shed > 0``)
  while every *admitted* response stays bit-correct against the per-index
  reference row.
* **Open-loop Poisson scenario** — seeded arrivals at a fixed rate, as a
  latency/throughput record (no gate: wall clocks are machine-dependent).

Usage::

    python benchmarks/bench_server.py [--output PATH]
        [--model NAME] [--requests N] [--queue-depth N] [--burst N]

Gate policy (registry + semantics: ``docs/benchmarks.md``): all three
gates here are hard — they fail the run unconditionally.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfhistory import (  # noqa: E402
    BENCHMARKS,
    add_harness_arguments,
    finish_run,
)
from repro.serve import loadgen                               # noqa: E402
from repro.serve.bench import build_serving_gateway, request_set  # noqa: E402
from repro.serve.server import ServerConfig, serve_in_thread  # noqa: E402

SPEC = BENCHMARKS["server"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_harness_arguments(parser, SPEC)
    parser.add_argument("--model", default="lenet",
                        help="model zoo entry to serve")
    parser.add_argument("--ber", type=float, default=1e-3,
                        help="weight-store bit error rate")
    parser.add_argument("--requests", type=int, default=192,
                        help="steady-scenario request count")
    parser.add_argument("--burst", type=int, default=64,
                        help="burst-scenario size (must exceed queue depth)")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="server admission bound")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="micro-batcher coalescing bound")
    parser.add_argument("--rate", type=float, default=400.0,
                        help="open-loop arrival rate (req/s)")
    parser.add_argument("--dtype", default="int8",
                        choices=("fp32", "int8", "int4", "int16"),
                        help="stored precision / execution path of the "
                             "endpoint (integer dtypes serve through the "
                             "fused integer-GEMM plan)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    gateway, session, dataset = build_serving_gateway(
        args.model, ber=args.ber, seed=args.seed,
        max_batch=args.max_batch, max_wait_ms=2.0, dtype=args.dtype)
    handle = serve_in_thread(gateway, ServerConfig(
        max_queue_depth=args.queue_depth))
    target = loadgen.HttpTarget(handle.base_url)
    try:
        steady_samples = request_set(dataset, args.requests)
        reference = session.predict(steady_samples, pad_to=args.max_batch)

        # -- steady: every request served, responses bit-identical ----------------
        steady = loadgen.run_steady(target, args.model, steady_samples,
                                    concurrency=4)
        steady_ok = steady.ok == steady.sent
        bit_identical = (steady_ok and steady.stacked_rows().tobytes()
                         == reference.tobytes())

        # -- burst: admission control sheds, admitted rows stay correct -----------
        burst_samples = request_set(dataset, args.burst)
        burst_reference = session.predict(burst_samples,
                                          pad_to=args.max_batch)
        burst = loadgen.run_burst(target, args.model, burst_samples)
        admitted_correct = all(
            row.tobytes() == burst_reference[index].tobytes()
            for index, row in burst.ok_rows().items())

        # -- open-loop: seeded Poisson arrivals (record only) ---------------------
        open_loop = loadgen.run_open_loop(
            target, args.model, request_set(dataset, args.requests),
            rate_rps=args.rate, seed=args.seed)

        snapshot = target.metrics()
    finally:
        target.close()
        handle.stop()
        gateway.close()

    steady_record = steady.to_record()
    details = {
        "model": args.model,
        "dtype": args.dtype,
        "execution_mode": session.mode_label(),
        "ber": float(args.ber),
        "queue_depth": int(args.queue_depth),
        "max_batch": int(args.max_batch),
        "steady": steady_record,
        "burst": burst.to_record(),
        "open_loop": open_loop.to_record(),
        "telemetry": snapshot,
    }

    print(f"HTTP front end ({args.model}, {args.dtype} weight store at BER "
          f"{args.ber:g}, queue depth {args.queue_depth}):")
    print(f"  steady   {steady.sent} requests, "
          f"{steady_record['achieved_rps']:7,.0f} req/s, "
          f"bit-identical to in-process predict: {bit_identical}")
    print(f"  burst    {burst.sent} at once -> {burst.ok} served, "
          f"{burst.shed} shed, admitted rows correct: {admitted_correct}")
    print(f"  open     {open_loop.sent} Poisson arrivals at {args.rate:.0f}/s "
          f"-> {open_loop.ok} ok, {open_loop.shed} shed")

    metrics = {
        "bit_identical": bool(bit_identical),
        "burst_shed": int(burst.shed),
        "burst_admitted_correct": bool(admitted_correct),
        "steady_rps": steady_record["achieved_rps"],
        "steady_p99_ms": steady_record["latency_ms"]["p99"],
        "open_loop_rps": open_loop.to_record()["achieved_rps"],
    }
    units = {"burst_shed": "requests", "steady_rps": "req/s",
             "steady_p99_ms": "ms", "open_loop_rps": "req/s"}
    return finish_run(SPEC, args, metrics, units, details)


if __name__ == "__main__":
    raise SystemExit(main())
