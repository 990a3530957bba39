"""Multi-process serving dispatch over an exported session plan.

:class:`PlanDispatcher` turns one compiled
:class:`~repro.engine.session.InferenceSession` into a pool of worker
processes, each holding a private copy of the network *structure* whose
weights — clean and corrupted alike — are zero-copy views into the owner's
shared-memory export (:func:`repro.parallel.plan.export_session_plan`).  A
dispatch ships only the stacked input batch; the worker's session carries the
owner's semantics, seed and plan, and runs the same ``predict`` the
in-process gateway would, so results are bit-identical to serial in-process
dispatch (the guarantee :mod:`repro.serve`'s micro-batcher is specified
against).

Because workers own their network copies, two endpoints serving the *same*
network object no longer contend on the per-network dispatch lock — the
process pool is what lets one stored model serve traffic from several
endpoints (or several gateways) concurrently.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.session import InferenceSession, ReadSemantics
from repro.parallel.plan import PlanHandle, attach_plan, export_session_plan

#: module-level worker state: the serving session built by the initializer.
_WORKER_STATE: Dict[str, InferenceSession] = {}


def session_from_plan(handle: PlanHandle,
                      batch_size: int = 64) -> InferenceSession:
    """Build a serving session in this process from an exported plan.

    ``handle`` is a :class:`~repro.parallel.plan.PlanHandle`; the segments
    it names are attached zero-copy (cached per process by token) and an
    :class:`~repro.engine.session.InferenceSession` is assembled around the
    rebuilt network with the exporting session's semantics, seed and (when
    shipped) injector.  It adopts the exported integer plan or weight store
    (:meth:`~repro.engine.session.InferenceSession.adopt`), so its
    ``predict`` reads, reseeds and pads exactly like the owner's.
    ``batch_size`` sets the session's chunking default.  This is how a
    dispatch worker or a :mod:`repro.serve.replica` server process turns
    one shared plan export into an executable endpoint without recompiling
    or re-materializing.  Returns the ready-to-``predict`` session.
    """
    plan = attach_plan(handle)
    session = InferenceSession(plan.network, injector=plan.injector,
                               semantics=ReadSemantics(handle.semantics),
                               seed=handle.seed, batch_size=batch_size)
    session.adopt(store=plan.store, qplan=plan.qplan)
    return session


def _init_plan_worker(handle: PlanHandle, batch_size: int) -> None:
    _WORKER_STATE["session"] = session_from_plan(handle, batch_size)


def _predict_task(batch: np.ndarray, pad_to: Optional[int],
                  ifm_errors: bool) -> np.ndarray:
    return _WORKER_STATE["session"].predict(batch, pad_to=pad_to,
                                            ifm_errors=ifm_errors)


class PlanDispatcher:
    """Dispatch callable running a compiled plan in worker processes.

    Parameters
    ----------
    session:
        The compiled session to export.  Static-store sessions have their
        weight store materialized (if it was not already) and served from
        shared memory; per-read sessions ship their injector instead, and
        workers reseed it per dispatch — the same per-dispatch determinism
        (and the same batching-variance caveat) as the in-process path.
    processes:
        Worker process count.
    pad_to:
        Forwarded to each worker session's ``predict`` (None chunks by the
        session's batch size): FP32 plans pad every dispatch to it, integer
        plans run each batch at its own row count — the same contract as
        the in-process dispatcher.
    ifm_errors:
        When True the session's injector is shipped to the workers, whose
        ``predict(..., ifm_errors=True)`` reseeds it per dispatch at the
        session seed; results are then deterministic per dispatch but not
        batching-invariant (see ``docs/serving.md``).  Per-read sessions
        ship and reseed their injector regardless of this flag — that *is*
        their read semantics.
    """

    def __init__(self, session: InferenceSession, *, processes: int = 2,
                 pad_to: Optional[int] = None, ifm_errors: bool = False):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.pad_to = pad_to
        self.ifm_errors = ifm_errors
        if ifm_errors and session._integer_mode_active(session.injector,
                                                       session.semantics):
            raise ValueError(
                "ifm_errors dispatch needs the FP32 path; integer-mode "
                "sessions serve IFMs from reliable DRAM")
        # The dispatcher owns its export (rather than borrowing the
        # session's cached one): workers fork lazily, and an export whose
        # lifetime were tied to the session's fingerprint could be unlinked
        # (re-export, registry eviction) before a late-spawning worker
        # attaches.  This plan lives exactly as long as the pool does.
        self._plan = export_session_plan(session, include_injector=ifm_errors)
        import concurrent.futures

        from repro.parallel.shm import fork_context

        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=int(processes),
            mp_context=fork_context(),
            initializer=_init_plan_worker,
            initargs=(self._plan.handle, session.batch_size),
        )

    def submit(self, batch: np.ndarray):
        """Submit one batch to the pool; returns a ``Future`` of the rows.

        Batches are independent (each worker holds its own network copy and
        a deterministic plan), so callers — notably the micro-batcher's
        flush path — may keep several in flight to occupy every worker.
        """
        return self._pool.submit(_predict_task, batch, self.pad_to,
                                 self.ifm_errors)

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        """Run one batch on a worker; returns the stacked output rows."""
        return self.submit(batch).result()

    def close(self) -> None:
        """Shut the worker pool down and unlink the dispatcher's plan export."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._plan is not None:
            self._plan.close()
            self._plan = None

    def __enter__(self) -> "PlanDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
