"""The serving gateway: named model endpoints over compiled sessions.

:class:`ServingGateway` is the deployment-shaped front end of the engine
(EDEN's end state is a DNN stored once in approximate DRAM and read by live
inference traffic).  It composes the three serving pieces:

* a :class:`~repro.serve.registry.SessionRegistry` so each
  (model, operating point) pair is compiled and materialized once, shared by
  every endpoint that serves it, and evicted LRU-first under a memory budget;
* one :class:`~repro.serve.batcher.MicroBatcher` per registered endpoint,
  coalescing concurrent single-sample requests into batched dispatches
  through the shared plan;
* a :class:`~repro.serve.telemetry.ServingTelemetry` collecting per-model
  latency percentiles, throughput, batch occupancy, and — via the registry —
  cache hit/miss counters.

Execution contract: dispatches run through
:meth:`InferenceSession.predict` with ``pad_to=max_batch``.  FP32 plans pad
every forward pass to that static shape; fused integer plans are exact at
any shape and run each batch at its own row count.  Either way a request's
result is bit-identical whether it was served alone or coalesced with
``max_batch-1`` neighbours.  Weights come from the materialized store; IFM
loads are served reliably by default (``ifm_errors=True`` opts into
per-dispatch IFM injection, which trades away batching-invariance — see
``docs/serving.md``).

Endpoints that share one underlying :class:`~repro.nn.network.Network`
object (e.g. the same model registered at two operating points) are
serialized through a per-network lock: the engine installs its load hook on
the network for the duration of a dispatch, so two plans must not execute on
the same network concurrently.  With ``dispatch_processes`` > 0 each
endpoint instead runs its dispatches in worker processes holding private
network copies whose weights are zero-copy shared-memory views of the
compiled plan (a :class:`repro.parallel.PlanPool`) — bit-identical
results, no per-network contention, and the forward passes stop competing
for the serving process's GIL.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.engine.session import InferenceSession, network_lock
from repro.nn.network import Network
from repro.serve.batcher import MicroBatcher
from repro.serve.registry import SessionRegistry
from repro.serve.telemetry import ServingTelemetry


@dataclass
class ServeConfig:
    """Tuning knobs of a :class:`ServingGateway`.

    ``max_batch`` and ``max_wait_ms`` parameterize each endpoint's
    micro-batcher (largest coalesced batch / how long an underfull batch
    waits for stragglers).  FP32 endpoints pad every dispatch to
    ``max_batch``, which makes batching bit-invariant and a fuller batch
    free, so they wait ``max_wait_ms``; shape-exact (fused integer)
    endpoints run each batch at its own row count and get no wait: their
    worker dispatches as soon as it is idle, grouping what queued during
    the previous dispatch (:meth:`InferenceSession.shape_exact`).
    ``max_sessions`` and ``memory_budget_bytes`` bound the session
    registry; ``auto_flush`` selects the threaded front end (``False``
    defers dispatch to explicit ``flush()`` calls — deterministic, used by
    benchmarks); ``ifm_errors`` opts endpoints into per-dispatch IFM
    injection, which needs the FP32 path (:meth:`ServingGateway.register`
    rejects it for a shape-exact endpoint).  ``dispatch_processes``
    > 0 runs each endpoint's dispatches in that many worker *processes*
    attached zero-copy to the endpoint's shared-memory plan export
    (a :class:`repro.parallel.PlanPool`): results stay bit-identical to
    in-process dispatch, endpoints sharing one network stop contending on
    the per-network lock, and the numpy-bound forward passes leave the
    serving process's GIL alone.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    max_sessions: int = 8
    memory_budget_bytes: Optional[int] = None
    auto_flush: bool = True
    ifm_errors: bool = False
    dispatch_processes: int = 0


class _Endpoint:
    """A registered model name bound to its session, batcher and pool."""

    __slots__ = ("name", "session", "batcher", "pool")

    def __init__(self, name: str, session: InferenceSession,
                 batcher: MicroBatcher, pool=None):
        self.name = name
        self.session = session
        self.batcher = batcher
        self.pool = pool

    def close(self) -> None:
        self.batcher.close()
        if self.pool is not None:
            self.pool.close()


class ServingGateway:
    """Multi-model serving front end over the inference engine.

    Parameters
    ----------
    config:
        A :class:`ServeConfig`; defaults apply when omitted.
    registry:
        Optional shared :class:`SessionRegistry` (e.g. one registry behind
        several gateways); a private one is created otherwise.
    telemetry:
        Optional shared :class:`ServingTelemetry`; private by default.
    """

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 registry: Optional[SessionRegistry] = None,
                 telemetry: Optional[ServingTelemetry] = None):
        self.config = config or ServeConfig()
        self.registry = registry or SessionRegistry(
            max_sessions=self.config.max_sessions,
            memory_budget_bytes=self.config.memory_budget_bytes)
        self.telemetry = telemetry or ServingTelemetry()
        self._endpoints: Dict[str, _Endpoint] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- registration -------------------------------------------------------------
    def register(self, name: str, network: Optional[Network] = None,
                 dataset=None, *, injector=None, seed: int = 0,
                 session: Optional[InferenceSession] = None,
                 **session_kwargs) -> InferenceSession:
        """Create (or replace) the endpoint ``name``.

        Either pass a pre-compiled ``session`` (e.g.
        ``EdenResult.session``) or the raw ingredients — ``network``,
        optional ``dataset``, ``injector`` and ``seed`` plus
        ``session_kwargs`` forwarded to :class:`InferenceSession` — and the
        gateway compiles through its registry: registering the same model at
        the same operating point twice reuses the cached plan (a registry
        hit) instead of re-materializing.  Raises ``ValueError`` when the
        config asks for ``ifm_errors`` and the session is shape-exact: a
        fused integer plan serves IFMs from reliable DRAM.  A register that
        raises closes the pool it built and reverts the registry: the entry
        it compiled is dropped, and a cached session it replaced is put
        back.  Returns the endpoint's session.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        if session is None and network is None:
            raise ValueError("register() needs a session or a network")
        before = self.registry.snapshot()
        pool = None
        try:
            if session is not None:
                self.registry.add(session)
            else:
                session = self.registry.get_or_compile(
                    network, dataset, injector=injector, seed=seed,
                    **session_kwargs)
            if self.config.ifm_errors and session.shape_exact():
                raise ValueError(
                    "ifm_errors serving needs the FP32 path; integer "
                    "execution serves IFMs from reliable DRAM")
            dispatch, pool = self._dispatcher(session)
            # A shape-exact plan's cost scales with its rows: waiting for
            # stragglers buys it nothing.
            max_wait_ms = (0.0 if session.shape_exact()
                           else self.config.max_wait_ms)
            batcher = MicroBatcher(dispatch,
                                   max_batch=self.config.max_batch,
                                   max_wait_ms=max_wait_ms,
                                   name=name, telemetry=self.telemetry,
                                   auto=self.config.auto_flush)
        except BaseException:
            if pool is not None:
                pool.close()
            self.registry.revert(before)
            raise
        with self._lock:
            previous = self._endpoints.get(name)
            self._endpoints[name] = _Endpoint(name, session, batcher, pool)
        if previous is not None:
            previous.close()
        return session

    def _dispatcher(self, session: InferenceSession):
        """Build the endpoint's dispatch path for ``session``.

        Returns a ``(dispatch callable, pool or None)`` pair.  With
        ``dispatch_processes`` > 0 the callable runs
        ``predict(pad_to=max_batch)`` on a :class:`repro.parallel.PlanPool`
        over the exported plan (returned as the closeable pool) and exposes
        ``submit(batch) -> Future``, so the batcher's flush keeps every
        worker busy.  Otherwise it is an in-process closure running the
        same ``predict`` under the per-network lock.
        """
        pad_to = self.config.max_batch
        ifm_errors = self.config.ifm_errors
        if self.config.dispatch_processes > 0:
            # Late import: repro.parallel builds on the engine and is only
            # needed for multi-process gateways.
            from repro.parallel import PlanPool

            pool = PlanPool(session, processes=self.config.dispatch_processes,
                            include_injector=ifm_errors)

            def submit(batch: np.ndarray) -> Future:
                return pool.submit(InferenceSession.predict, batch,
                                   pad_to=pad_to, ifm_errors=ifm_errors)

            def dispatch_in_pool(batch: np.ndarray) -> np.ndarray:
                return submit(batch).result()

            dispatch_in_pool.submit = submit
            return dispatch_in_pool, pool
        lock = network_lock(session.network)

        def dispatch(batch: np.ndarray) -> np.ndarray:
            with lock:
                return session.predict(batch, pad_to=pad_to,
                                       ifm_errors=ifm_errors)
        return dispatch, None

    def _endpoint(self, name: str) -> _Endpoint:
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise KeyError(f"no endpoint {name!r}; registered: "
                           f"{sorted(self._endpoints)}")
        return endpoint

    def endpoints(self) -> List[str]:
        """Return the registered endpoint names, sorted."""
        return sorted(self._endpoints)

    def session_for(self, name: str) -> InferenceSession:
        """Return the compiled session behind endpoint ``name``."""
        return self._endpoint(name).session

    # -- request paths ------------------------------------------------------------
    def submit(self, name: str, sample: np.ndarray, *,
               deadline: Optional[float] = None) -> Future:
        """Enqueue one ``sample`` for endpoint ``name``.

        ``deadline`` (an absolute :func:`time.perf_counter` timestamp)
        travels with the request into dispatch: if it passes while the
        request is still queued, the future fails with
        :class:`repro.engine.DeadlineExceeded` instead of occupying a batch
        row — see :meth:`MicroBatcher.submit`.  Returns a future resolving
        to the model's output row for that sample.  The async front end:
        many client threads can submit against one compiled plan.
        """
        return self._endpoint(name).batcher.submit(sample, deadline=deadline)

    def predict(self, name: str, sample: np.ndarray) -> np.ndarray:
        """Blocking single-sample inference on endpoint ``name``.

        Submits ``sample``, flushes immediately when the gateway runs
        without a worker thread, and waits for the row.  Returns the output
        row (length ``num_classes``).
        """
        future = self.submit(name, sample)
        if not self.config.auto_flush:
            self._endpoint(name).batcher.flush()
        return future.result()

    def classify(self, name: str, sample: np.ndarray) -> int:
        """Return the argmax class id of endpoint ``name`` for ``sample``."""
        return int(np.argmax(self.predict(name, sample)))

    def predict_many(self, name: str, inputs: np.ndarray, *,
                     coalesce: bool = True) -> np.ndarray:
        """Serve ``inputs`` as single-sample requests on endpoint ``name``.

        ``coalesce=True`` enqueues every sample before dispatch, so the
        batcher packs them ``max_batch`` at a time (the micro-batched path);
        ``coalesce=False`` serves strictly one request per dispatch (the
        serial reference the bit-identity guarantee is stated against).
        Returns outputs of shape ``(len(inputs), num_classes)``.
        """
        endpoint = self._endpoint(name)
        if coalesce:
            futures = [endpoint.batcher.submit(sample) for sample in inputs]
            if not self.config.auto_flush:
                endpoint.batcher.flush()
            return np.stack([future.result() for future in futures])
        rows = []
        for sample in inputs:
            future = endpoint.batcher.submit(sample)
            if not self.config.auto_flush:
                endpoint.batcher.flush()
            rows.append(future.result())
        return np.stack(rows)

    # -- maintenance --------------------------------------------------------------
    def flush(self, name: Optional[str] = None) -> None:
        """Dispatch queued requests now (all endpoints, or just ``name``)."""
        targets = ([self._endpoint(name)] if name is not None
                   else list(self._endpoints.values()))
        for endpoint in targets:
            endpoint.batcher.flush()

    def _harvest_ecc(self) -> None:
        """Fold each endpoint's pending ECC decode deltas into telemetry.

        Endpoints whose session injector carries a codec
        (``correction="rs72_64"`` sessions) accumulate corrected /
        uncorrectable codeword counts as stores materialize; this drains the
        un-reported delta from each such injector and records it under the
        endpoint's name, so snapshots and reports stay cumulative without
        double counting.
        """
        with self._lock:
            endpoints = list(self._endpoints.values())
        for endpoint in endpoints:
            consume = getattr(endpoint.session.injector,
                              "consume_ecc_stats", None)
            if consume is None:
                continue
            delta = consume()
            if delta["corrected"] or delta["uncorrectable"]:
                self.telemetry.record_ecc(endpoint.name, **delta)

    def snapshot(self) -> Dict:
        """Return the telemetry snapshot plus the registry's cache counters."""
        self._harvest_ecc()
        return self.telemetry.snapshot(self.registry.stats)

    def report(self) -> str:
        """Return the serving report (latency, throughput, cache) as text."""
        self._harvest_ecc()
        return self.telemetry.report(self.registry.stats)

    def close(self) -> None:
        """Close every endpoint's batcher and worker pool; sessions survive."""
        self._closed = True
        with self._lock:
            endpoints = list(self._endpoints.values())
            self._endpoints.clear()
        for endpoint in endpoints:
            endpoint.close()

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
