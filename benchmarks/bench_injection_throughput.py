#!/usr/bin/env python
"""Micro-benchmark: packed injection engine vs. the boolean reference path.

Measures end-to-end ``inject_bit_errors`` throughput (values/second) on the
acceptance configuration — a 1M-element FP32 tensor at BER 1e-4 — plus a few
secondary points, and records the run through the shared benchmark
harness (:mod:`repro.analysis.perfhistory`): the ``BENCH_injection.json``
latest-run snapshot.

Usage::

    python benchmarks/bench_injection_throughput.py [--output PATH] [--size N]

Gate policy (registry + semantics: ``docs/benchmarks.md``): the
packed-vs-reference bit-identity gate fails the run unconditionally;
speedup regressions are enforced by ``repro.cli perf check``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfhistory import (  # noqa: E402
    BENCHMARKS,
    add_harness_arguments,
    finish_run,
)
from repro.dram.error_models import DramLayout, make_error_model  # noqa: E402
from repro.dram.injection import (  # noqa: E402
    inject_bit_errors,
    inject_bit_errors_reference,
)

SPEC = BENCHMARKS["injection"]


def _time_call(fn, *args, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def bench_config(name: str, *, size: int, bits: int, model_id: int, ber: float,
                 reference_repeats: int = 2, packed_repeats: int = 3) -> dict:
    values = np.random.default_rng(1).standard_normal(size).astype(np.float32)
    model = make_error_model(model_id, ber, seed=3)
    layout = DramLayout()

    reference_s = _time_call(
        lambda: inject_bit_errors_reference(values, bits, model, layout,
                                            np.random.default_rng(7)),
        repeats=reference_repeats,
    )
    # Cold: first injection of a geometry scans for weak cells.  A fresh
    # model per repeat keeps the position cache from engaging.
    cold_s = _time_call(
        lambda: inject_bit_errors(values, bits, make_error_model(model_id, ber, seed=3),
                                  layout, np.random.default_rng(7)),
        repeats=packed_repeats,
    )
    # Warm: repeated loads of the same tensors — the sweep access pattern —
    # reuse the cached weak positions.
    inject_bit_errors(values, bits, model, layout, np.random.default_rng(7))
    warm_s = _time_call(
        lambda: inject_bit_errors(values, bits, model, layout,
                                  np.random.default_rng(7)),
        repeats=packed_repeats,
    )

    # The whole point of the packed engine is that it changes nothing but time.
    reference_out = inject_bit_errors_reference(values, bits, model, layout,
                                                np.random.default_rng(7))
    packed_out = inject_bit_errors(values, bits, model, layout,
                                   np.random.default_rng(7))
    identical = bool(np.array_equal(reference_out, packed_out, equal_nan=True))

    return {
        "name": name,
        "size": size,
        "bits": bits,
        "model_id": model_id,
        "ber": ber,
        "before_values_per_sec": size / reference_s,
        "after_values_per_sec": size / cold_s,
        "after_warm_values_per_sec": size / warm_s,
        "speedup": reference_s / cold_s,
        "warm_speedup": reference_s / warm_s,
        "bit_identical": identical,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_harness_arguments(parser, SPEC)
    parser.add_argument("--size", type=int, default=1_000_000,
                        help="elements in the headline tensor")
    args = parser.parse_args()

    configs = [
        dict(name="fp32_1M_ber1e-4_model0", size=args.size, bits=32,
             model_id=0, ber=1e-4),
        dict(name="fp32_1M_ber1e-4_model1", size=args.size, bits=32,
             model_id=1, ber=1e-4),
        dict(name="fp32_1M_ber1e-4_model3", size=args.size, bits=32,
             model_id=3, ber=1e-4),
        dict(name="int8_1M_ber1e-3_model0", size=args.size, bits=8,
             model_id=0, ber=1e-3),
    ]

    results = []
    for config in configs:
        result = bench_config(**config)
        results.append(result)
        print(f"{result['name']:<28s} before {result['before_values_per_sec']:>12,.0f} v/s"
              f"   after {result['after_values_per_sec']:>12,.0f} v/s"
              f" (cold) {result['after_warm_values_per_sec']:>12,.0f} v/s (warm)"
              f"   speedup {result['speedup']:.1f}x / {result['warm_speedup']:.0f}x")

    headline = results[0]
    metrics = {
        "bit_identical": all(r["bit_identical"] for r in results),
        "headline_speedup": headline["speedup"],
        "headline_warm_speedup": headline["warm_speedup"],
        "reference_values_per_sec": headline["before_values_per_sec"],
        "cold_values_per_sec": headline["after_values_per_sec"],
        "warm_values_per_sec": headline["after_warm_values_per_sec"],
    }
    units = {
        "headline_speedup": "x", "headline_warm_speedup": "x",
        "reference_values_per_sec": "values/s",
        "cold_values_per_sec": "values/s", "warm_values_per_sec": "values/s",
    }
    return finish_run(SPEC, args, metrics, units, {"results": results})


if __name__ == "__main__":
    raise SystemExit(main())
