#!/usr/bin/env python
"""Macro-benchmark: the shared-memory worker pool vs serial sweeps and serving.

Measures :mod:`repro.parallel` end to end and records it through the shared
benchmark harness (:mod:`repro.analysis.perfhistory`) — the
``BENCH_parallel.json`` latest-run snapshot:

* **Characterization sweep, serial vs N workers** (the headline) — the
  coarse characterization's full BER grid scored through one
  ``ExperimentRunner``, serially and through its shared-memory
  ``PlanPool`` (zero-copy network/dataset views, one pickled injector
  per task).  The score dicts must be equal bit for bit; the wall-clock
  ratio is the speedup the perf harness gates on.
* **Device sweep** — the same comparison over ``ApproximateDram`` operating
  points (the ``device_sweep`` ``processes`` gap is closed).
* **Coarse characterization** — the full binary search with
  ``config.processes`` set; every field, including the ``tested`` memo,
  must match the serial run.
* **Multi-process serving** — a gateway with ``dispatch_processes`` workers
  (a ``PlanPool`` over the endpoint's shared plan export); coalesced
  results must be bit-identical to in-process serial dispatch.

The network is trained briefly first (``--epochs``): accuracy must move with
BER for the characterization search to be non-trivial.  Every stream is
seeded, so both runs of every comparison are deterministic.

Usage::

    python benchmarks/bench_parallel.py [--output PATH]
        [--model NAME] [--processes N]

Gate policy (registry + semantics: ``docs/benchmarks.md``): every
bit-identity gate fails the run unconditionally; the speedup gate is
environment-aware (skipped below 4 visible CPUs) and enforced by
``repro.cli perf check``.
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
    visible_cpu_count,
)
from repro.analysis.runner import ExperimentRunner  # noqa: E402
from repro.core.characterization import (  # noqa: E402
    coarse_grained_characterization,
)
from repro.core.config import AccuracyTarget, EdenConfig  # noqa: E402
from repro.core.correction import (  # noqa: E402
    ImplausibleValueCorrector,
    ThresholdStore,
)
from repro.dram.device import ApproximateDram, DramOperatingPoint  # noqa: E402
from repro.dram.error_models import make_error_model  # noqa: E402
from repro.dram.injection import BitErrorInjector  # noqa: E402
from repro.nn.models import build_model_with_dataset  # noqa: E402
from repro.nn.tensor import DataKind  # noqa: E402
from repro.nn.training import Trainer  # noqa: E402
from repro.serve.gateway import ServeConfig, ServingGateway  # noqa: E402

SPEC = BENCHMARKS["parallel"]

IDENTITY_KEYS = ("characterization_sweep_identical", "device_sweep_identical",
                 "coarse_characterization_identical", "serving_identical")

#: reseed stride of the characterization's historical repeat convention.
_CHARACTERIZATION_STRIDE = 101


def _coarse_equal(a, b) -> bool:
    return (a.baseline_score == b.baseline_score
            and a.max_tolerable_ber == b.max_tolerable_ber
            and a.accuracy_at_max == b.accuracy_at_max
            and a.tested == b.tested)


def measure_parallel(model_name: str = "lenet", *, processes: int = 4,
                     epochs: int = 2, repeats: int = 2, model_id: int = 0,
                     n_requests: int = 128, max_batch: int = 16,
                     seed: int = 0) -> Dict:
    """Measure serial-vs-parallel wall clocks and verify bit-identity.

    Builds and briefly trains ``model_name`` (``epochs`` epochs), then runs
    the four comparisons described in the module docstring with
    ``processes`` workers: the characterization BER-grid sweep and coarse
    search (error model ``model_id``, ``repeats`` streams per point), a
    vendor-A device sweep, and a serving gateway with
    ``dispatch_processes`` workers serving ``n_requests`` single-sample
    requests coalesced up to ``max_batch``.  ``seed`` fixes every stream.
    Returns a JSON-serializable dict with the timings, the headline
    ``characterization_sweep_speedup`` and the four ``*_identical`` flags.
    """
    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    Trainer(network, dataset, spec.training_config(epochs=epochs)).fit()
    network.eval()

    config = EdenConfig(evaluation_repeats=repeats, seed=seed)
    grid = [float(ber) for ber in config.ber_grid()]
    error_model = make_error_model(model_id, 1e-3, seed=seed)
    thresholds = ThresholdStore.from_network(network, dataset.train_x)
    corrector = ImplausibleValueCorrector(thresholds)
    target = AccuracyTarget.within_one_percent()

    def sweep_with(runner: ExperimentRunner) -> Dict:
        started = time.perf_counter()
        scores = runner.ber_sweep(error_model, grid, bits=config.bits,
                                  corrector=corrector, repeats=repeats,
                                  seed=seed, stride=_CHARACTERIZATION_STRIDE)
        return {"seconds": time.perf_counter() - started, "scores": scores}

    # -- characterization BER grid: serial vs shared-memory worker pool ----------
    with ExperimentRunner(network, dataset, metric=spec.metric) as runner:
        serial = sweep_with(runner)
    with ExperimentRunner(network, dataset, metric=spec.metric,
                          processes=processes) as runner:
        runner.ber_sweep(error_model, grid[:processes], bits=config.bits,
                         corrector=corrector, repeats=repeats, seed=seed,
                         stride=_CHARACTERIZATION_STRIDE)   # warm the pool
        parallel = sweep_with(runner)

    # -- device operating points: the closed `processes` gap ---------------------
    device = ApproximateDram(vendor="A", seed=seed)
    op_points = [
        DramOperatingPoint.from_reductions(
            delta_vdd=delta, nominal_vdd=device.nominal_vdd,
            nominal_timing=device.nominal_timing)
        for delta in (0.10, 0.15, 0.20, 0.25)
    ]
    with ExperimentRunner(network, dataset, metric=spec.metric) as runner:
        started = time.perf_counter()
        device_serial = runner.device_sweep(device, op_points, repeats=1,
                                            seed=seed)
        device_serial_seconds = time.perf_counter() - started
    with ExperimentRunner(network, dataset, metric=spec.metric,
                          processes=processes) as runner:
        # >= 2 points so the warm-up actually takes the pool branch
        # (one point would run serially and leave the pool cold).
        runner.device_sweep(device, op_points[:2], repeats=1, seed=seed)
        started = time.perf_counter()
        device_parallel = runner.device_sweep(device, op_points, repeats=1,
                                              seed=seed)
        device_parallel_seconds = time.perf_counter() - started

    # -- the full coarse search: serial vs config.processes ----------------------
    started = time.perf_counter()
    coarse_serial = coarse_grained_characterization(
        network, dataset, error_model, target, config, spec.metric, thresholds)
    coarse_serial_seconds = time.perf_counter() - started
    parallel_config = EdenConfig(evaluation_repeats=repeats, seed=seed,
                                 processes=processes)
    started = time.perf_counter()
    coarse_parallel = coarse_grained_characterization(
        network, dataset, error_model, target, parallel_config, spec.metric,
        thresholds)
    coarse_parallel_seconds = time.perf_counter() - started

    # -- serving: multi-process dispatch vs in-process serial dispatch -----------
    injector = BitErrorInjector(error_model, bits=config.bits,
                                data_kinds={DataKind.WEIGHT}, seed=seed)
    requests = np.asarray(dataset.val_x)[:n_requests]
    serve_record: Dict = {}
    with ServingGateway(ServeConfig(max_batch=max_batch, auto_flush=False)
                        ) as reference_gateway:
        reference_gateway.register(model_name, network, dataset,
                                   injector=injector, seed=seed,
                                   metric=spec.metric)
        reference = reference_gateway.predict_many(model_name, requests,
                                                   coalesce=False)
    with ServingGateway(ServeConfig(max_batch=max_batch, auto_flush=False,
                                    dispatch_processes=min(processes, 2))
                        ) as mp_gateway:
        mp_gateway.register(model_name, network, dataset, injector=injector,
                            seed=seed, metric=spec.metric)
        mp_gateway.predict(model_name, requests[0])        # warm the workers
        started = time.perf_counter()
        coalesced = mp_gateway.predict_many(model_name, requests,
                                            coalesce=True)
        serve_record["multiprocess_seconds"] = time.perf_counter() - started
    serve_record["identical"] = (reference.shape == coalesced.shape
                                 and reference.tobytes() == coalesced.tobytes())

    return {
        "model": model_name,
        "processes": int(processes),
        "repeats": int(repeats),
        "ber_grid": grid,
        "characterization_sweep_serial_seconds": serial["seconds"],
        "characterization_sweep_parallel_seconds": parallel["seconds"],
        "characterization_sweep_speedup": serial["seconds"] / parallel["seconds"],
        "characterization_sweep_identical": serial["scores"] == parallel["scores"],
        "device_sweep_serial_seconds": device_serial_seconds,
        "device_sweep_parallel_seconds": device_parallel_seconds,
        "device_sweep_identical": device_serial == device_parallel,
        "coarse_characterization_serial_seconds": coarse_serial_seconds,
        "coarse_characterization_parallel_seconds": coarse_parallel_seconds,
        "coarse_characterization_identical": _coarse_equal(coarse_serial,
                                                           coarse_parallel),
        "coarse_max_tolerable_ber": coarse_serial.max_tolerable_ber,
        "serving_identical": serve_record["identical"],
        "serving_multiprocess_seconds": serve_record["multiprocess_seconds"],
        "n_requests": int(n_requests),
        "max_batch": int(max_batch),
    }



def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_harness_arguments(parser, SPEC)
    parser.add_argument("--model", default="lenet",
                        help="model zoo entry to sweep")
    parser.add_argument("--processes", type=int, default=4,
                        help="worker pool process count")
    parser.add_argument("--epochs", type=int, default=2,
                        help="training epochs before characterizing")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    record = measure_parallel(args.model, processes=args.processes,
                              epochs=args.epochs, seed=args.seed)
    print(f"{args.model}: serial vs {args.processes} shared-memory workers "
          f"({visible_cpu_count()} CPUs visible)")
    print(f"  characterization sweep   "
          f"{record['characterization_sweep_serial_seconds']:7.2f} s -> "
          f"{record['characterization_sweep_parallel_seconds']:7.2f} s "
          f"({record['characterization_sweep_speedup']:.2f}x)  "
          f"identical={record['characterization_sweep_identical']}")
    print(f"  device sweep             "
          f"{record['device_sweep_serial_seconds']:7.2f} s -> "
          f"{record['device_sweep_parallel_seconds']:7.2f} s  "
          f"identical={record['device_sweep_identical']}")
    print(f"  coarse characterization  "
          f"{record['coarse_characterization_serial_seconds']:7.2f} s -> "
          f"{record['coarse_characterization_parallel_seconds']:7.2f} s  "
          f"identical={record['coarse_characterization_identical']}")
    print(f"  multi-process serving    identical={record['serving_identical']}")

    metrics = {key: bool(record[key]) for key in IDENTITY_KEYS}
    metrics.update({
        "characterization_sweep_speedup":
            record["characterization_sweep_speedup"],
        "characterization_sweep_serial_seconds":
            record["characterization_sweep_serial_seconds"],
        "characterization_sweep_parallel_seconds":
            record["characterization_sweep_parallel_seconds"],
    })
    units = {
        "characterization_sweep_speedup": "x",
        "characterization_sweep_serial_seconds": "s",
        "characterization_sweep_parallel_seconds": "s",
    }
    details = {k: v for k, v in record.items() if k not in metrics}
    return finish_run(SPEC, args, metrics, units, details)


if __name__ == "__main__":
    raise SystemExit(main())
