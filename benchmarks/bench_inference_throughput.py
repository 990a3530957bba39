#!/usr/bin/env python
"""Macro-benchmark: the inference engine's static-store vs per-read semantics.

Measures two things and records them through the shared benchmark
harness (:mod:`repro.analysis.perfhistory`) — the ``BENCH_inference.json``
latest-run snapshot:

* **Characterization sweep** (the headline) — wall clock of a coarse
  characterization-style BER sweep of the weight store (weights in
  approximate DRAM, IFMs in a reliable partition — the paper's static DNN
  storage model) under the legacy per-batch semantics vs the engine's
  static-store semantics.  Static-store corrupts each weight tensor once per
  BER point instead of once per batch, which is where every sweep's time
  went before the engine existed.
* **Serving throughput** — images/second at the nominal operating point and
  at an approximate operating point under both semantics, across batch
  sizes.  The static-store advantage grows as batches shrink (the
  latency-oriented serving regime).

Usage::

    python benchmarks/bench_inference_throughput.py [--output PATH]
        [--model NAME] [--batch-size N]

Gate policy (registry + semantics: ``docs/benchmarks.md``): sweep-speedup
regressions are enforced by ``repro.cli perf check``.

Throughput numbers use untrained networks: accuracy is irrelevant to timing,
and skipping training keeps the benchmark a pure measurement of the engine.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfhistory import (  # noqa: E402
    BENCHMARKS,
    add_harness_arguments,
    finish_run,
)
from repro.dram.error_models import make_error_model  # noqa: E402
from repro.dram.injection import BitErrorInjector  # noqa: E402
from repro.engine.session import InferenceSession, ReadSemantics  # noqa: E402
from repro.nn.models import build_model_with_dataset  # noqa: E402
from repro.nn.tensor import DataKind  # noqa: E402

SPEC = BENCHMARKS["inference"]

#: BER grid of the sweep benchmark: the low / middle / top of the coarse
#: characterization grid, so the measurement covers both sparse and dense
#: flip regimes.
SWEEP_BERS = (1e-4, 1e-3, 1e-2, 1e-1, 0.25)


def _timed_evaluate(session: InferenceSession, **kwargs) -> float:
    start = time.perf_counter()
    session.evaluate(**kwargs)
    return time.perf_counter() - start


def measure_inference_throughput(model_name: str = "resnet101", *,
                                 ber: float = 1e-3, model_id: int = 0,
                                 batch_sizes: Sequence[int] = (1, 16, 64),
                                 seed: int = 0) -> List[Dict]:
    """Images/second per batch size: nominal vs approximate, both semantics.

    ``model_name`` picks the zoo entry, ``ber``/``model_id`` the weight-store
    error model, ``batch_sizes`` the serving batch sizes to time, and
    ``seed`` fixes every stream.  Returns one record dict per batch size
    with nominal / static-store / per-read images-per-second and the
    semantics speedup.
    """
    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    network.eval()
    images = len(dataset.val_y)
    error_model = make_error_model(model_id, ber, seed=seed)

    rows: List[Dict] = []
    for batch_size in batch_sizes:
        row: Dict = {"model": model_name, "batch_size": int(batch_size), "ber": ber}
        nominal = InferenceSession(network, dataset, metric=spec.metric,
                                   batch_size=batch_size, seed=seed)
        row["nominal_images_per_sec"] = images / _timed_evaluate(nominal)

        for semantics, key in ((ReadSemantics.STATIC_STORE, "static_store"),
                               (ReadSemantics.PER_READ, "per_read")):
            injector = BitErrorInjector(error_model, bits=32,
                                        data_kinds={DataKind.WEIGHT}, seed=seed)
            session = InferenceSession(network, dataset, injector=injector,
                                       semantics=semantics, metric=spec.metric,
                                       batch_size=batch_size, seed=seed)
            session.evaluate()   # warm the weak-cell position caches
            row[f"{key}_images_per_sec"] = images / _timed_evaluate(session)
        row["semantics_speedup"] = (row["static_store_images_per_sec"]
                                    / row["per_read_images_per_sec"])
        rows.append(row)
    return rows


def measure_characterization_sweep(model_name: str = "resnet101", *,
                                   bers: Sequence[float] = SWEEP_BERS,
                                   model_id: int = 0, batch_size: int = 4,
                                   repeats: int = 1, seed: int = 0) -> Dict:
    """Wall clock of a weight-store BER sweep under both read semantics.

    Sweeps ``model_name`` over the ``bers`` grid with error model
    ``model_id``, evaluating
    at ``batch_size`` with ``repeats`` reseeded streams per point from
    ``seed``.  Returns a dict with the per-read and static-store timings,
    the speedup, and the sweep scores — so callers can also check
    static-store determinism (two identically-seeded runs must agree).
    """
    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    network.eval()
    base_model = make_error_model(model_id, 1e-3, seed=seed)

    def run_sweep(semantics: ReadSemantics) -> Dict:
        injector = BitErrorInjector(base_model, bits=32,
                                    data_kinds={DataKind.WEIGHT}, seed=seed)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=semantics, metric=spec.metric,
                                   batch_size=batch_size, seed=seed,
                                   repeats=repeats)
        scores: Dict[float, float] = {}
        start = time.perf_counter()
        for ber in bers:
            injector.set_error_model(base_model.with_ber(ber))
            scores[float(ber)] = session.evaluate()
        return {"seconds": time.perf_counter() - start, "scores": scores}

    legacy = run_sweep(ReadSemantics.PER_READ)
    static = run_sweep(ReadSemantics.STATIC_STORE)
    static_again = run_sweep(ReadSemantics.STATIC_STORE)
    if static["scores"] != static_again["scores"]:
        raise AssertionError("static-store sweep is not deterministic for a "
                             "fixed seed")
    return {
        "model": model_name,
        "bers": [float(b) for b in bers],
        "batch_size": int(batch_size),
        "repeats": int(repeats),
        "per_read_seconds": legacy["seconds"],
        "static_store_seconds": static["seconds"],
        "speedup": legacy["seconds"] / static["seconds"],
        "per_read_scores": legacy["scores"],
        "static_store_scores": static["scores"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_harness_arguments(parser, SPEC)
    parser.add_argument("--model", default="resnet101",
                        help="model zoo entry to benchmark")
    parser.add_argument("--batch-size", type=int, default=4,
                        help="batch size of the characterization sweep")
    args = parser.parse_args()

    sweep = measure_characterization_sweep(args.model,
                                           batch_size=args.batch_size)
    print(f"characterization sweep ({args.model}, batch={args.batch_size}, "
          f"BERs={sweep['bers']}):")
    print(f"  per-read (legacy)  {sweep['per_read_seconds']:8.2f} s")
    print(f"  static-store       {sweep['static_store_seconds']:8.2f} s")
    print(f"  speedup            {sweep['speedup']:8.1f} x")

    throughput = measure_inference_throughput(args.model)
    print("\nserving throughput (images/sec, weight store at BER 1e-3):")
    for row in throughput:
        print(f"  batch {row['batch_size']:>3d}: nominal "
              f"{row['nominal_images_per_sec']:>8,.0f}   static-store "
              f"{row['static_store_images_per_sec']:>8,.0f}   per-read "
              f"{row['per_read_images_per_sec']:>8,.0f}   "
              f"({row['semantics_speedup']:.2f}x)")

    batch1 = throughput[0]
    metrics = {
        "sweep_speedup": sweep["speedup"],
        "per_read_seconds": sweep["per_read_seconds"],
        "static_store_seconds": sweep["static_store_seconds"],
        "batch1_static_store_images_per_sec":
            batch1["static_store_images_per_sec"],
        "batch1_semantics_speedup": batch1["semantics_speedup"],
    }
    units = {
        "sweep_speedup": "x", "per_read_seconds": "s",
        "static_store_seconds": "s",
        "batch1_static_store_images_per_sec": "img/s",
        "batch1_semantics_speedup": "x",
    }
    return finish_run(SPEC, args, metrics, units,
                      {"sweep": sweep, "throughput": throughput})


if __name__ == "__main__":
    raise SystemExit(main())
