"""Dynamic micro-batching of single-sample inference requests.

Latency-oriented traffic arrives one sample at a time, but the engine's
forward pass amortizes its per-layer cost over a batch.  :class:`MicroBatcher`
sits between the two: clients :meth:`~MicroBatcher.submit` single samples and
get a future back; a worker coalesces queued samples into batches of up to
``max_batch``, dispatches each batch through one compiled session, and splits
the output rows back into the per-request futures.  The worker first takes
everything already queued (what arrived during the previous dispatch), then
holds an underfull batch open at most ``max_wait_ms`` for stragglers.  The
gateway sets that wait only for padded (FP32) plans, whose forward pass costs
the same at any occupancy; a shape-exact (fused integer) plan's cost scales
with its rows, so its endpoint gets no wait and dispatches as soon as the
worker is idle.

Determinism: when the dispatch function is :meth:`InferenceSession.predict`
with ``pad_to=max_batch`` — FP32 plans then run at a *static* batch shape,
and fused integer plans are exact at any shape — a request's result is
bit-identical however the queue happened to be coalesced: one request per
batch, full batches, or anything between.  The correctness tests and the
serving benchmark pin exactly this: coalesced results equal per-request
serial evaluation, bit for bit, for fixed seeds.

Two front ends share the same dispatch logic:

* ``auto=True`` (default) — a daemon worker thread drains the queue, so
  concurrent client threads share one compiled plan without further plumbing.
* ``auto=False`` — nothing runs until :meth:`~MicroBatcher.flush`, which
  drains the queue on the caller's thread in deterministic ``max_batch``
  chunks (used by benchmarks and tests that need reproducible coalescing).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional

import numpy as np

from repro.engine.session import DeadlineExceeded
from repro.serve.telemetry import ServingTelemetry


class _Pending:
    """One queued request: sample, future, enqueue time, optional deadline."""

    __slots__ = ("sample", "future", "enqueued_at", "deadline")

    def __init__(self, sample: np.ndarray, enqueued_at: float,
                 deadline: Optional[float] = None):
        self.sample = sample
        self.future: Future = Future()
        self.enqueued_at = enqueued_at
        self.deadline = deadline


class MicroBatcher:
    """Coalesces single-sample requests into batched dispatches.

    Parameters
    ----------
    dispatch:
        Callable mapping a stacked input array ``(n,) + sample_shape`` to an
        output array whose row ``i`` is request ``i``'s result (typically a
        bound :meth:`InferenceSession.predict`).  If it also exposes
        ``submit(batch) -> Future`` (e.g.
        :class:`repro.parallel.PlanDispatcher`), batches go through that
        instead, and :meth:`flush` keeps every ready batch in flight at
        once.
    max_batch:
        Largest number of requests coalesced into one dispatch.
    max_wait_ms:
        How long the worker holds an underfull batch open for stragglers
        before dispatching it anyway (the classic latency/throughput knob).
        Requests already queued join the batch first either way, so ``0``
        dispatches whatever queued during the previous dispatch as one
        batch, without sleeping on a timer.
    name:
        Model name used when recording telemetry.
    telemetry:
        Optional :class:`~repro.serve.telemetry.ServingTelemetry` that
        receives per-request latencies and per-batch occupancy/service time.
    auto:
        ``True`` starts the background worker thread; ``False`` defers all
        work to explicit :meth:`flush` calls.
    """

    def __init__(self, dispatch: Callable[[np.ndarray], np.ndarray], *,
                 max_batch: int = 32, max_wait_ms: float = 2.0,
                 name: str = "", telemetry: Optional[ServingTelemetry] = None,
                 auto: bool = True):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.dispatch = dispatch
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.name = name
        self.telemetry = telemetry
        self._queue: "queue.Queue[Optional[_Pending]]" = queue.Queue()
        self._closed = False
        #: serializes every _run_batches (worker vs flush callers) and keeps
        #: concurrent flushes from splitting one FIFO batch.
        self._flush_lock = threading.Lock()
        #: cheap guard pairing submit()'s closed-check with its enqueue, so a
        #: request can never slip in after close() drained the queue.
        self._state_lock = threading.Lock()
        self._worker: Optional[threading.Thread] = None
        if auto:
            self._worker = threading.Thread(target=self._worker_loop,
                                            name=f"microbatcher-{name or 'anon'}",
                                            daemon=True)
            self._worker.start()

    # -- client side --------------------------------------------------------------
    def submit(self, sample: np.ndarray, *,
               deadline: Optional[float] = None) -> Future:
        """Enqueue one ``sample`` (shape = the model's input shape).

        ``deadline``, when given, is an absolute :func:`time.perf_counter`
        timestamp plumbed into dispatch: a request still queued when its
        deadline passes is dropped at dispatch time — its future fails with
        :class:`repro.engine.DeadlineExceeded`, telemetry counts it as
        expired, and the forward pass runs without it (the batch is never
        padded with rows nobody will read).  Returns a
        :class:`concurrent.futures.Future` resolving to that sample's output
        row.  Raises ``RuntimeError`` after :meth:`close`.
        """
        pending = _Pending(np.asarray(sample), time.perf_counter(), deadline)
        with self._state_lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._queue.put(pending)
        return pending.future

    def flush(self) -> int:
        """Drain the queue on the calling thread (manual mode).

        Requests are dispatched in FIFO order in chunks of ``max_batch``.
        Safe to call in auto mode too (the lock keeps worker and caller from
        splitting one batch).  Every ready batch is submitted before the
        first result is awaited, so a process-backed dispatcher (anything
        exposing ``submit(batch) -> Future``, e.g.
        :class:`repro.parallel.PlanDispatcher`) runs all its workers
        concurrently; batch composition — and therefore every result — is
        the same as one batch at a time.  Returns the number of requests
        drained from the queue (served, or failed as expired).
        """
        with self._flush_lock:
            batches = []
            while True:
                batch = self._take_ready_batch()
                if not batch:
                    break
                batches.append(batch)
            self._run_batches(batches)
        return sum(len(batch) for batch in batches)

    def close(self) -> None:
        """Stop accepting requests, flush the queue, and join the worker."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if self._worker is not None:
            self._queue.put(None)          # wake the worker so it can exit
            self._worker.join(timeout=5.0)
            self._worker = None
        self.flush()                       # serve anything still queued

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- batching core ------------------------------------------------------------
    def _take_ready_batch(self) -> List[_Pending]:
        """Non-blocking: up to ``max_batch`` requests already in the queue.

        Callers must hold ``_flush_lock`` (it spans take + dispatch, so a
        concurrent flush and the worker can neither split one FIFO batch nor
        run the dispatch callable concurrently).  The ``None`` shutdown
        sentinel is re-enqueued, never discarded: it is the worker's only
        wake-up signal, and a flush racing :meth:`close` must not make the
        join wait out the worker's poll timeout.
        """
        batch: List[_Pending] = []
        saw_sentinel = False
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                saw_sentinel = True
                continue
            batch.append(item)
        if saw_sentinel:
            self._queue.put(None)
        return batch

    def _wait_for_batch(self) -> Optional[List[_Pending]]:
        """Blocking: one batch for the worker, or ``None`` on shutdown.

        Blocks for the first request, takes every request already queued
        (up to ``max_batch``), and only then holds the batch open up to
        ``max_wait_ms`` (or until full) before dispatching.
        """
        try:
            first = self._queue.get(timeout=0.1)
        except queue.Empty:
            return [] if not self._closed else None
        if first is None:
            return None
        batch = [first]
        deadline = time.perf_counter() + self.max_wait_ms / 1e3
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
            if item is None:
                with self._flush_lock:
                    self._run_batches([batch])
                return None
            batch.append(item)
        return batch

    def _worker_loop(self) -> None:
        while True:
            batch = self._wait_for_batch()
            if batch is None:
                return
            if batch:
                with self._flush_lock:
                    self._run_batches([batch])

    def _drop_expired(self, batch: List[_Pending]) -> List[_Pending]:
        """Claim a batch's futures, dropping expired or abandoned requests.

        Called at dispatch time, immediately before a batch is stacked.  An
        expired request's future gets :class:`DeadlineExceeded`, telemetry
        counts it as expired, and it never occupies a batch row.  Every
        surviving future is transitioned to *running* via
        ``set_running_or_notify_cancel`` — the executor handshake that makes
        the later ``set_result``/``set_exception`` race-free against clients
        cancelling futures (e.g. the HTTP front end's timed-out awaits);
        a future already cancelled by its client is silently discarded.
        Returns the still-live requests in their FIFO positions.
        """
        now = time.perf_counter()
        live: List[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and now > pending.deadline:
                if pending.future.set_running_or_notify_cancel():
                    if self.telemetry is not None:
                        self.telemetry.record_expired(self.name)
                    pending.future.set_exception(DeadlineExceeded(
                        f"request expired after "
                        f"{(now - pending.enqueued_at) * 1e3:.1f} ms in queue"))
            elif pending.future.set_running_or_notify_cancel():
                live.append(pending)
        return live

    def _submit(self, inputs: np.ndarray) -> Future:
        """Start one dispatch; a synchronous one returns a completed future."""
        submit = getattr(self.dispatch, "submit", None)
        if submit is not None:
            return submit(inputs)
        future: Future = Future()
        future.set_result(self.dispatch(inputs))
        return future

    def _run_batches(self, batches: List[List[_Pending]]) -> None:
        """Submit every batch, then fan results back out in FIFO order.

        All batches go in before any result is awaited, so a process-backed
        dispatcher keeps its whole worker pool busy (a synchronous dispatch
        has finished by the time :meth:`_submit` returns).  A failed
        submission or execution fails only its own batch's futures.
        Telemetry times each batch from its own submission to its own
        completion (recorded by a done-callback, so a batch finishing while
        an earlier one is still being gathered is not billed for the
        head-of-line wait).  Callers must hold ``_flush_lock``.
        """
        in_flight = []
        done_at: dict = {}
        for batch in batches:
            batch = self._drop_expired(batch)
            if not batch:
                continue
            started = time.perf_counter()
            try:
                # np.stack inside the try: a shape-mismatched sample must
                # fail its batch's futures, not abort the whole flush.
                future = self._submit(np.stack([p.sample for p in batch]))
            except Exception as error:
                for pending in batch:
                    pending.future.set_exception(error)
                continue
            future.add_done_callback(
                lambda f: done_at.setdefault(id(f), time.perf_counter()))
            in_flight.append((batch, started, future))
        for batch, started, future in in_flight:
            try:
                outputs = future.result()
            except Exception as error:
                for pending in batch:
                    pending.future.set_exception(error)
                continue
            # The done-callback can still be in flight right after result()
            # returns; fall back to "now", which is at most a hair later.
            finished = done_at.get(id(future)) or time.perf_counter()
            if self.telemetry is not None:
                self.telemetry.record_batch(self.name, len(batch),
                                            finished - started)
            for row, pending in enumerate(batch):
                if self.telemetry is not None:
                    self.telemetry.record_request(
                        self.name, finished - pending.enqueued_at)
                pending.future.set_result(outputs[row])
