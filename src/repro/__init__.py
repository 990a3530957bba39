"""EDEN reproduction: energy-efficient DNN inference using approximate DRAM.

This package reproduces *EDEN: Enabling Energy-Efficient, High-Performance
Deep Neural Network Inference Using Approximate DRAM* (Koppula et al.,
MICRO-52, 2019) as a self-contained Python library:

* :mod:`repro.nn`   -- a from-scratch numpy DNN substrate (layers, training,
  quantization, pruning, a model zoo of scaled-down analogues of the paper's
  networks, and synthetic datasets);
* :mod:`repro.dram` -- the approximate-DRAM substrate (behavioural device,
  SoftMC-style profiler, EDEN's error models 0-4, MLE fitting, bit-error
  injection, DRAMPower-style energy model, partitions);
* :mod:`repro.core` -- EDEN itself (curricular retraining, implausible-value
  correction, coarse/fine characterization, Algorithm-1 mapping, pipeline);
* :mod:`repro.arch` -- the system-level evaluation substrate (CPU, GPU,
  Eyeriss/TPU accelerator models and the memory controller support);
* :mod:`repro.memsys` -- the cycle-level DDR4 memory-system model;
* :mod:`repro.engine` -- the inference engine (compiled sessions with
  static-store / per-read read semantics);
* :mod:`repro.serve` -- the serving gateway (session registry,
  micro-batching, telemetry) over compiled sessions;
* :mod:`repro.analysis` -- sweeps and table/figure regeneration used by the
  benchmark harness.

The ``docs/`` tree is the reference: ``docs/architecture.md`` (layer map and
data flow), ``docs/error-models.md``, ``docs/engine.md``, and
``docs/serving.md``.
"""

__version__ = "1.0.0"

from repro.core.pipeline import Eden, EdenResult
from repro.core.config import AccuracyTarget, EdenConfig

__all__ = ["Eden", "EdenResult", "AccuracyTarget", "EdenConfig", "__version__"]
