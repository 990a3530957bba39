"""The persistent sweep executor: one shared-memory plan, many point workers.

:class:`SweepExecutor` owns a process pool whose workers are primed once —
at pool creation — with a zero-copy plan of the network and dataset
(:func:`repro.parallel.plan.export_session_plan` of an injector-free
session): the skeleton is a few KB of structure, and every tensor payload
is a read-only view into shared memory.  After that, a sweep point costs
exactly one pickled injector plus two floats on the wire, however large the
model is.

Every experiment family routes its independent units through the same two
calls:

* :meth:`SweepExecutor.score_many` — one task per sweep point (BER grids,
  device operating points, per-tensor BER assignments, speculative
  characterization grids).  Each point is independently seeded, so parallel
  results are bit-identical to the serial loop.
* :meth:`SweepExecutor.score_repeats` — one task per *repeat* of a single
  point.  The serial repeat loop restarts the stream at ``seed + repeat *
  stride`` anyway, so repeats are independent too; the executor evaluates
  them concurrently and means the scores in repeat order, reproducing the
  serial mean bit-for-bit.

Workers snapshot the network at pool creation (like the serial runner's
memoization, an executor is bound to one network state): mutate or retrain
the network and you need a fresh executor.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.engine.session import InferenceSession, ReadSemantics
from repro.nn.network import Network
from repro.parallel.plan import PlanHandle, attach_plan, export_session_plan

#: module-level worker state: the session compiled from the pool's plan.
#: Set once per worker by the initializer — tasks then carry only the
#: injector and three ints, never the plan handle (whose skeleton bytes
#: would otherwise be re-pickled into every task).
_WORKER_STATE: Dict[str, InferenceSession] = {}


def _init_worker(handle: PlanHandle, metric: str, semantics: ReadSemantics,
                 batch_size: int, execution_mode) -> None:
    plan = attach_plan(handle)
    _WORKER_STATE["session"] = InferenceSession(
        plan.network, plan.dataset, semantics=semantics, metric=metric,
        batch_size=batch_size, execution_mode=execution_mode,
    )


def _score_task(injector, repeats: int, seed: int, stride: int,
                dataset) -> float:
    return _WORKER_STATE["session"].evaluate(dataset, injector=injector,
                                             repeats=repeats, seed=seed,
                                             stride=stride)


class SweepExecutor:
    """Process pool primed with a shared-memory plan of one network/dataset.

    Parameters
    ----------
    network, dataset:
        The model and (optional) dataset the workers evaluate.  Both are
        exported to shared memory once; the dataset may also be an
        ``(inputs, labels)`` pair.
    metric, semantics, batch_size:
        Evaluation configuration mirrored from the owning runner/session so
        worker scores are bit-identical to serial ones.
    processes:
        Worker count (must be >= 2 to be worth having; 1 is accepted and
        simply serializes through one worker).
    execution_mode:
        :class:`~repro.nn.quantization.ExecutionMode` (or its name) for the
        worker sessions.  Workers compile their own integer plans from the
        shipped injector — deterministically, so parallel quantized scores
        are bit-identical to the owner's serial ones.
    """

    def __init__(self, network: Network, dataset=None, *,
                 metric: str = "accuracy",
                 semantics: ReadSemantics = ReadSemantics.PER_READ,
                 batch_size: int = 64, processes: int = 2,
                 execution_mode=None):
        from repro.nn.quantization import ExecutionMode

        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = int(processes)
        self.metric = metric
        self.semantics = semantics
        self.batch_size = int(batch_size)
        self.execution_mode = ExecutionMode.resolve(
            execution_mode if execution_mode is not None
            else ExecutionMode.FP32)
        self._plan = export_session_plan(InferenceSession(network, dataset))
        import concurrent.futures

        from repro.parallel.shm import fork_context

        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.processes,
            mp_context=fork_context(),
            initializer=_init_worker,
            initargs=(self._plan.handle, metric, semantics, self.batch_size,
                      self.execution_mode),
        )

    # -- task submission ----------------------------------------------------------
    def submit_score(self, injector, *, repeats: int = 1, seed: int = 0,
                     stride: int = 1, dataset=None):
        """Submit one scoring task; returns its ``Future[float]``.

        ``injector`` is pickled into the task (fresh per point, matching the
        serial convention that reusing one injector with a stream restart is
        stream-identical to a fresh one); ``repeats``/``seed``/``stride``
        drive the repeat loop exactly like
        :meth:`repro.engine.session.InferenceSession.evaluate`; ``dataset``
        optionally ships an ``(inputs, labels)`` pair for ad-hoc evaluation
        sets (None evaluates the plan's own dataset).
        """
        return self._pool.submit(_score_task, injector, int(repeats),
                                 int(seed), int(stride), dataset)

    def score_many(self, injectors: Sequence, *, repeats: int = 1,
                   seed: int = 0, stride: int = 1, dataset=None) -> List[float]:
        """Score every injector in ``injectors`` concurrently.

        One task per injector (i.e. per sweep point);
        ``repeats``/``seed``/``stride``/``dataset`` apply to each as in
        :meth:`submit_score`.  Returns the scores in input order.
        """
        futures = [self.submit_score(injector, repeats=repeats, seed=seed,
                                     stride=stride, dataset=dataset)
                   for injector in injectors]
        return [float(future.result()) for future in futures]

    def score_repeats(self, injector, *, repeats: int, seed: int = 0,
                      stride: int = 1, dataset=None) -> float:
        """Evaluate one injector's ``repeats`` streams concurrently.

        Repeat ``r`` runs as its own task seeded at ``seed + r * stride``
        with ``repeats=1`` — the exact stream the serial loop would restart
        at — and the per-repeat scores are averaged in repeat order, so the
        result is bit-identical to the serial mean.  ``dataset`` as in
        :meth:`submit_score`.  Returns the mean score.
        """
        futures = [self.submit_score(injector, repeats=1,
                                     seed=seed + repeat * stride,
                                     stride=stride, dataset=dataset)
                   for repeat in range(int(repeats))]
        return float(np.mean([future.result() for future in futures]))

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink the shared plan (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._plan is not None:
            self._plan.close()
            self._plan = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
