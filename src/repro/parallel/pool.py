"""One worker pool over one exported session, for sweeps and serving alike.

:class:`PlanPool` exports a compiled
:class:`~repro.engine.session.InferenceSession` once
(:func:`repro.parallel.plan.export_session_plan`) and forks a process pool
whose initializer rebuilds that session in every worker with
:func:`repro.parallel.plan.session_from_plan`: the network structure is a
private copy, and every tensor payload (clean weights, dataset, materialized
store or integer codes) is a zero-copy view of the owner's shared memory.
A task then ships only what differs per call: :meth:`PlanPool.submit` runs
``fn(worker_session, *args, **kwargs)`` on a worker.

Both users submit unbound session methods:

* sweeps (:class:`repro.analysis.runner.ExperimentRunner`) pool an
  injector-free session and submit ``InferenceSession.evaluate`` with one
  pickled injector per sweep point or repeat.  Each task restarts exactly
  the stream the serial loop restarts, so scores are bit-identical to it.
* serving (:class:`repro.serve.ServingGateway` with ``dispatch_processes``)
  pools the endpoint's compiled session and submits
  ``InferenceSession.predict`` with one stacked batch.  Workers own their
  network copies, so endpoints sharing one network stop contending on the
  per-network lock, and rows are bit-identical to in-process dispatch.

The pool owns its export rather than borrowing one: workers fork lazily, so
the segments must live exactly as long as the pool, whatever happens to the
session afterwards.  Workers snapshot the session at pool creation: mutate
or retrain the network and you need a fresh pool.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Dict

from repro.engine.session import InferenceSession
from repro.parallel.plan import PlanHandle, export_session_plan, session_from_plan
from repro.parallel.shm import fork_context

#: module-level worker state: the session the initializer rebuilt.  Tasks
#: carry only their own arguments, never the plan handle (whose skeleton
#: bytes would otherwise be re-pickled into every task).
_WORKER_STATE: Dict[str, InferenceSession] = {}


def _init_worker(handle: PlanHandle) -> None:
    _WORKER_STATE["session"] = session_from_plan(handle)


def _run_task(fn: Callable, args: tuple, kwargs: dict):
    return fn(_WORKER_STATE["session"], *args, **kwargs)


class PlanPool:
    """Process pool whose workers each run a copy of one exported session.

    Parameters
    ----------
    session:
        The session to export.  Static-store sessions have their weight
        store materialized (if it was not already) or their integer plan
        compiled, and served from shared memory; per-read sessions ship
        their injector instead.  An injector-free session exports only the
        clean weights and dataset; sweep tasks then pass their own
        injector.
    processes:
        Worker process count (>= 1).
    include_injector:
        Also ship a static-store session's injector, for workers serving
        ``predict(..., ifm_errors=True)``.
    """

    def __init__(self, session: InferenceSession, *, processes: int,
                 include_injector: bool = False):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self._plan = export_session_plan(session,
                                         include_injector=include_injector)
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=int(processes),
            mp_context=fork_context(),
            initializer=_init_worker,
            initargs=(self._plan.handle,),
        )

    def submit(self, fn: Callable, *args, **kwargs
               ) -> concurrent.futures.Future:
        """Run ``fn(worker_session, *args, **kwargs)`` on a worker.

        ``fn`` must pickle by name — typically an unbound session method
        such as ``InferenceSession.evaluate`` or ``InferenceSession.predict``
        — and ``args``/``kwargs`` travel with the task.  Tasks are
        independent, so callers may keep several in flight to occupy every
        worker.  Returns the task's ``Future``.
        """
        return self._pool.submit(_run_task, fn, args, kwargs)

    def close(self) -> None:
        """Shut the pool down and release its plan export (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._plan is not None:
            self._plan.close()
            self._plan = None

    def __enter__(self) -> "PlanPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
