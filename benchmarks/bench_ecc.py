#!/usr/bin/env python
"""Macro-benchmark: ECC correction in the static weight-store loop.

Materializes the same burst-corrupted weight store (Error Model 4) twice
with the RS(72,64)-class codec in the loop and checks the post-correction
stores are bit-identical for a fixed seed, then sweeps a BER grid scoring
the model raw vs corrected under identical injection streams.  Records
everything through the shared benchmark harness
(:mod:`repro.analysis.perfhistory`) — the ``BENCH_ecc.json`` latest-run
snapshot:

* **corrected-store bit identity** — same (error model, seed, codec) must
  reproduce the exact corrected store bytes (hard identity gate);
* **decode accounting** — materialization must report corrected symbols
  (hard positive gate), and the sweep carries the corrected /
  uncorrectable codeword tail per BER point.

The headline is the raw vs corrected accuracy split at ``--ber``.  Usage::

    python benchmarks/bench_ecc.py [--output PATH]
        [--model NAME] [--epochs N] [--seed N] [--ber B] [--bers B...]

Gate policy (registry + semantics: ``docs/benchmarks.md``): both gates are
hard and also enforced by ``repro.cli perf check``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfhistory import (  # noqa: E402
    BENCHMARKS,
    add_harness_arguments,
    finish_run,
)

SPEC = BENCHMARKS["ecc"]


def _materialize_store(network, dataset, error_model, seed, correction):
    """Materialize one corrected static store; return (bytes dict, stats)."""
    from repro.engine.session import InferenceSession, ReadSemantics

    session = InferenceSession.from_error_model(
        network, dataset, error_model, bits=32, seed=seed,
        semantics=ReadSemantics.STATIC_STORE, correction=correction)
    try:
        store = session.materialize()
        data = {name: tensor.tobytes() for name, tensor in store.items()}
        stats = {key: value for key, value in session.injector.ecc_stats.items()
                 if key != "per_tensor"}
    finally:
        session.close()
    return data, stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_harness_arguments(parser, SPEC)
    parser.add_argument("--model", default="lenet",
                        help="model zoo entry to benchmark")
    parser.add_argument("--epochs", type=int, default=2,
                        help="training epochs before measuring")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--ber", type=float, default=1e-3,
                        help="headline bit error rate (raw vs corrected)")
    parser.add_argument("--bers", nargs="+", type=float,
                        default=[1e-4, 1e-3, 1e-2],
                        help="BER grid for the raw-vs-corrected sweep")
    parser.add_argument("--correction", default="rs72_64",
                        help="registered ECC codec name")
    args = parser.parse_args()

    from repro.analysis.runner import ExperimentRunner
    from repro.dram.error_models import make_error_model
    from repro.engine.session import ReadSemantics
    from repro.nn.models import build_model_with_dataset
    from repro.nn.training import Trainer

    network, dataset, spec = build_model_with_dataset(args.model,
                                                      seed=args.seed)
    Trainer(network, dataset, spec.training_config(epochs=args.epochs)).fit()

    error_model = make_error_model(4, args.ber, seed=args.seed)
    first, stats = _materialize_store(network, dataset, error_model,
                                      args.seed, args.correction)
    second, _ = _materialize_store(network, dataset, error_model,
                                   args.seed, args.correction)
    store_bit_identical = (first.keys() == second.keys()
                           and all(first[name] == second[name]
                                   for name in first))

    bers = sorted(set(args.bers) | {args.ber})
    started = time.perf_counter()
    with ExperimentRunner(network, dataset, metric=spec.metric,
                          seed=args.seed,
                          semantics=ReadSemantics.STATIC_STORE) as runner:
        sweep = runner.ecc_sweep(error_model, bers,
                                 correction=args.correction)
    sweep_seconds = time.perf_counter() - started
    headline = sweep[args.ber]

    print(f"corrected-store bit identity ({args.model}, Error Model 4 at "
          f"BER {args.ber:g}, {args.correction}): {store_bit_identical}")
    print(f"materialization decode: {stats['corrected_codewords']} corrected "
          f"codewords ({stats['corrected_symbols']} symbols), "
          f"{stats['uncorrectable_codewords']} uncorrectable")
    print(f"raw vs corrected accuracy over {len(bers)} BER points "
          f"({sweep_seconds:.2f}s):")
    for ber in bers:
        point = sweep[ber]
        print(f"  ber {ber:.1e}  raw {point['raw']:.3f}  "
              f"corrected {point['corrected']:.3f}  "
              f"uncorrectable cw {int(point['uncorrectable_codewords'])}")

    metrics = {
        "store_bit_identical": store_bit_identical,
        "corrected_symbols": stats["corrected_symbols"],
        "corrected_codewords": stats["corrected_codewords"],
        "uncorrectable_codewords": stats["uncorrectable_codewords"],
        "raw_accuracy": headline["raw"],
        "corrected_accuracy": headline["corrected"],
        "sweep_seconds": sweep_seconds,
    }
    units = {"sweep_seconds": "s", "raw_accuracy": "frac",
             "corrected_accuracy": "frac"}
    details = {"materialization_stats": stats,
               "sweep": {f"{ber:g}": sweep[ber] for ber in bers}}
    return finish_run(SPEC, args, metrics, units, details)


if __name__ == "__main__":
    raise SystemExit(main())
