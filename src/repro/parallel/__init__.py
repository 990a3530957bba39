"""Shared-memory parallel execution: sweep fan-out and serving dispatch.

EDEN's evaluation is a wall of embarrassingly parallel work — BER grids,
per-vendor device sweeps, characterization searches, repeat averaging — and
its serving side wants many workers reading one stored model, exactly like
clients of one physical DRAM module.  This package is the execution
substrate for both:

* :mod:`repro.parallel.shm` — named tensors packed into
  ``multiprocessing.shared_memory`` segments, attached as zero-copy
  read-only views;
* :mod:`repro.parallel.plan` — exporting a compiled session (its network,
  dataset and materialized weight store or integer plan) as a plan, and
  rebuilding an equivalent session from it in another process
  (:func:`session_from_plan`);
* :mod:`repro.parallel.pool` — :class:`PlanPool`, the one worker pool: every
  sweep family (:class:`repro.analysis.runner.ExperimentRunner`, the
  characterization searches, the boosting evaluations) and multi-process
  serving dispatch (:class:`repro.serve.ServingGateway`) run through it.

Parallel results are bit-identical to serial ones by construction: every
task is independently seeded with exactly the stream the serial loop would
have restarted, and shared-memory views are bit-exact aliases of the
owner's tensors.  See ``docs/parallel.md``.
"""

from repro.parallel.plan import (
    AttachedPlan,
    ExportedPlan,
    PlanHandle,
    attach_plan,
    export_session_plan,
    network_skeleton,
    restore_network,
    session_from_plan,
)
from repro.parallel.pool import PlanPool
from repro.parallel.shm import SharedTensorStore, StoreHandle, attach_store

__all__ = [
    "AttachedPlan",
    "ExportedPlan",
    "PlanHandle",
    "PlanPool",
    "SharedTensorStore",
    "StoreHandle",
    "attach_plan",
    "attach_store",
    "export_session_plan",
    "network_skeleton",
    "restore_network",
    "session_from_plan",
]
