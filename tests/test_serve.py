"""Serving gateway: registry eviction, batcher correctness, telemetry.

The registry must compile each (model, operating point, seed) triple once,
serve repeats from cache in LRU order, and evict least-recently-used stores
under its count/memory budgets.  The micro-batcher's coalesced results must
be bit-identical to strictly serial per-request dispatch for fixed seeds
(the static-batch-shape execution contract), including through the threaded
async front end.
"""

import threading
import time

import numpy as np
import pytest

from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.engine import InferenceSession, ReadSemantics
from repro.nn.tensor import DataKind
from repro.serve import (
    MicroBatcher,
    ServeConfig,
    ServingGateway,
    SessionRegistry,
    ServingTelemetry,
    percentile,
    session_store_bytes,
)


def _weight_injector(ber=1e-3, model_id=0, seed=0):
    return BitErrorInjector(make_error_model(model_id, ber, seed=seed),
                            bits=32, data_kinds={DataKind.WEIGHT}, seed=seed)


class TestSessionRegistry:
    def test_fingerprint_keyed_reuse(self, lenet_clone):
        network, dataset, _ = lenet_clone
        registry = SessionRegistry()
        injector = _weight_injector()
        first = registry.get_or_compile(network, dataset, injector=injector)
        second = registry.get_or_compile(network, dataset, injector=injector)
        assert first is second
        assert first.stats["materializations"] == 1
        assert registry.stats == {"hits": 1, "misses": 1, "compilations": 1,
                                  "evictions": 0,
                                  "stored_bytes": registry.stats["stored_bytes"]}

    def test_distinct_operating_points_compile_separately(self, lenet_clone):
        network, dataset, _ = lenet_clone
        registry = SessionRegistry()
        a = registry.get_or_compile(network, dataset,
                                    injector=_weight_injector(1e-4))
        b = registry.get_or_compile(network, dataset,
                                    injector=_weight_injector(1e-2))
        assert a is not b
        assert registry.stats["compilations"] == 2

    def test_lru_eviction_order(self, lenet_clone):
        network, dataset, _ = lenet_clone
        registry = SessionRegistry(max_sessions=2)
        inj_a, inj_b, inj_c = (_weight_injector(b) for b in (1e-4, 1e-3, 1e-2))
        registry.get_or_compile(network, dataset, injector=inj_a)
        registry.get_or_compile(network, dataset, injector=inj_b)
        # Touch A so B becomes least recently used, then insert C.
        registry.get_or_compile(network, dataset, injector=inj_a)
        registry.get_or_compile(network, dataset, injector=inj_c)
        assert len(registry) == 2
        assert registry.stats["evictions"] == 1
        assert registry.key_of(network, inj_b) not in registry
        assert registry.key_of(network, inj_a) in registry
        assert registry.key_of(network, inj_c) in registry

    def test_eviction_under_memory_budget(self, lenet_clone):
        network, dataset, _ = lenet_clone
        one_store = session_store_bytes(
            SessionRegistry().get_or_compile(network, dataset,
                                             injector=_weight_injector()))
        registry = SessionRegistry(max_sessions=10,
                                   memory_budget_bytes=int(one_store * 1.5))
        registry.get_or_compile(network, dataset,
                                injector=_weight_injector(1e-4))
        evicted = registry.sessions()[0]
        registry.get_or_compile(network, dataset,
                                injector=_weight_injector(1e-3))
        assert len(registry) == 1        # budget fits only one store
        assert registry.stats["evictions"] == 1
        # Eviction drops the materialized store but leaves the session usable.
        assert evicted.materialized_weights() is None
        assert registry.stats["stored_bytes"] <= int(one_store * 1.5)

    def test_single_oversized_plan_still_serves(self, lenet_clone):
        network, dataset, _ = lenet_clone
        registry = SessionRegistry(memory_budget_bytes=1)
        session = registry.get_or_compile(network, dataset,
                                          injector=_weight_injector())
        assert len(registry) == 1
        assert session.materialized_weights()

    def test_store_bytes_reaccounted_on_hit(self, lenet_clone):
        """Lookups re-account each entry's store bytes, so lazily
        materialized (or externally invalidated) stores keep the budget and
        the stored_bytes stat honest."""
        network, dataset, _ = lenet_clone
        registry = SessionRegistry()
        session = registry.get_or_compile(network, dataset,
                                          injector=_weight_injector(),
                                          materialize=False)
        session.materialize()
        registry.get(registry.key_of(network, session.injector))
        assert registry.stats["stored_bytes"] == session_store_bytes(session)
        assert registry.stats["stored_bytes"] == sum(
            a.nbytes for a in session.materialized_weights().values())

    def test_add_prebuilt_session_hits_on_recompile(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = _weight_injector()
        session = InferenceSession(network, dataset, injector=injector)
        registry = SessionRegistry()
        registry.add(session)
        again = registry.get_or_compile(network, dataset, injector=injector)
        assert again is session
        assert registry.stats["hits"] == 1

    def test_key_survives_id_reuse(self):
        """A new network allocated at a dead network's id() must not alias
        its cache key (CPython reuses addresses after garbage collection)."""
        from repro.nn.layers import Linear
        from repro.nn.network import Network as _Network

        def build():
            return _Network("tiny", [Linear("fc", 4, 2)], (4,), 2)

        # Build/drop networks, recording each dead network's key by the id
        # it occupied, until CPython hands a new network a dead one's id
        # (with nothing else allocating, that happens within a few
        # iterations; 512 is a wide safety margin).
        dead_keys = {}
        for _ in range(512):
            candidate = build()
            dead_key = dead_keys.get(id(candidate))
            if dead_key is not None:
                # Same name, same id, same (absent) injector and seed — but
                # a different object, so it must get a fresh key rather
                # than alias the dead network's cache entry.
                assert SessionRegistry.key_of(candidate) != dead_key
                return
            dead_keys[id(candidate)] = SessionRegistry.key_of(candidate)
            del candidate
        pytest.fail("allocator never reused an id")

    def test_model_token_stable_per_object(self, lenet_clone):
        from repro.serve.registry import model_token

        network, _, _ = lenet_clone
        assert model_token(network) == model_token(network)
        assert model_token(network) != model_token(network.clone())


class TestMicroBatcher:
    def test_coalesced_bit_identical_to_serial(self, lenet_clone):
        """The acceptance property: coalesced dispatch == per-request serial
        dispatch, bit for bit, for fixed seeds."""
        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(max_batch=8, auto_flush=False))
        gateway.register("m", network, dataset, injector=_weight_injector(),
                         metric=spec.metric)
        inputs = dataset.val_x[:20]      # 2 full batches + a partial one
        batched = gateway.predict_many("m", inputs, coalesce=True)
        serial = gateway.predict_many("m", inputs, coalesce=False)
        assert batched.tobytes() == serial.tobytes()
        gateway.close()

    def test_async_front_end_matches_serial(self, lenet_clone):
        """Concurrent submissions through the worker thread must produce the
        same rows as serial dispatch, however the queue was coalesced."""
        network, dataset, spec = lenet_clone
        injector = _weight_injector()
        sync_gateway = ServingGateway(ServeConfig(max_batch=8,
                                                  auto_flush=False))
        sync_gateway.register("m", network, dataset, injector=injector,
                              metric=spec.metric)
        inputs = dataset.val_x[:32]
        serial = sync_gateway.predict_many("m", inputs, coalesce=False)
        sync_gateway.close()

        async_gateway = ServingGateway(ServeConfig(max_batch=8,
                                                   max_wait_ms=1.0,
                                                   auto_flush=True))
        async_gateway.register("m", network, dataset, injector=injector,
                               metric=spec.metric)
        results = [None] * len(inputs)

        def client(indices):
            futures = [(async_gateway.submit("m", inputs[i]), i)
                       for i in indices]
            for future, i in futures:
                results[i] = future.result()

        threads = [threading.Thread(target=client,
                                    args=(range(lo, len(inputs), 4),))
                   for lo in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        async_gateway.close()
        assert np.stack(results).tobytes() == serial.tobytes()

    def test_max_batch_respected_and_occupancy_recorded(self):
        telemetry = ServingTelemetry()
        sizes = []

        def dispatch(batch):
            sizes.append(len(batch))
            return batch.sum(axis=1, keepdims=True)

        batcher = MicroBatcher(dispatch, max_batch=4, name="m",
                               telemetry=telemetry, auto=False)
        futures = [batcher.submit(np.full(3, i, dtype=np.float32))
                   for i in range(11)]
        batcher.flush()
        assert sizes == [4, 4, 3]
        for i, future in enumerate(futures):
            assert future.result()[0] == pytest.approx(3.0 * i)
        snapshot = telemetry.snapshot()["models"]["m"]
        assert snapshot["requests"] == 11
        assert snapshot["batches"] == 3
        assert snapshot["mean_occupancy"] == pytest.approx(11 / 3)
        batcher.close()

    def test_dispatch_error_propagates_to_every_future(self):
        def dispatch(batch):
            raise RuntimeError("backend down")

        batcher = MicroBatcher(dispatch, max_batch=4, auto=False)
        futures = [batcher.submit(np.zeros(2)) for _ in range(3)]
        batcher.flush()
        for future in futures:
            with pytest.raises(RuntimeError, match="backend down"):
                future.result()
        batcher.close()

    def test_shape_mismatch_fails_batch_not_worker(self):
        """A malformed sample must fail its batch's futures — and the worker
        thread must survive to serve later requests."""
        batcher = MicroBatcher(lambda batch: batch * 2, max_batch=4,
                               max_wait_ms=1.0, auto=True)
        bad = batcher.submit(np.zeros(3))
        mismatched = batcher.submit(np.zeros(5))   # can't stack with (3,)
        with pytest.raises(ValueError):
            bad.result(timeout=5)
        with pytest.raises(ValueError):
            mismatched.result(timeout=5)
        good = batcher.submit(np.ones(3))
        assert good.result(timeout=5)[0] == pytest.approx(2.0)
        batcher.close()

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(lambda batch: batch, auto=False)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(np.zeros(2))

    def test_pipelined_flush_matches_sequential_dispatch(self):
        """A dispatcher exposing submit() gets every ready batch in flight
        at once; results (and FIFO order) must match sequential dispatch."""
        from concurrent.futures import ThreadPoolExecutor

        class PoolDispatch:
            def __init__(self):
                self.pool = ThreadPoolExecutor(max_workers=4)
                self.submitted = 0

            def submit(self, batch):
                self.submitted += 1
                return self.pool.submit(lambda b: b * 3.0, batch)

            def __call__(self, batch):
                return self.submit(batch).result()

        dispatcher = PoolDispatch()
        batcher = MicroBatcher(dispatcher, max_batch=4, auto=False)
        futures = [batcher.submit(np.full(2, i, dtype=np.float32))
                   for i in range(10)]
        assert batcher.flush() == 10
        assert dispatcher.submitted == 3          # 4 + 4 + 2, all pipelined
        for i, future in enumerate(futures):
            assert future.result()[0] == pytest.approx(3.0 * i)
        batcher.close()
        dispatcher.pool.shutdown()

    def test_pipelined_flush_error_fails_only_its_batch(self):
        from concurrent.futures import ThreadPoolExecutor

        def work(batch):
            if batch[0, 0] == 0:
                raise RuntimeError("worker died")
            return batch

        class PoolDispatch:
            pool = ThreadPoolExecutor(max_workers=2)

            def submit(self, batch):
                return self.pool.submit(work, batch)

            def __call__(self, batch):
                return self.submit(batch).result()

        batcher = MicroBatcher(PoolDispatch(), max_batch=2, auto=False)
        bad = [batcher.submit(np.zeros(2, dtype=np.float32))
               for _ in range(2)]
        good = [batcher.submit(np.ones(2, dtype=np.float32))
                for _ in range(2)]
        batcher.flush()
        for future in bad:
            with pytest.raises(RuntimeError, match="worker died"):
                future.result()
        for future in good:
            assert future.result()[0] == pytest.approx(1.0)
        batcher.close()

    def test_flush_preserves_shutdown_sentinel(self):
        """A flush draining the queue must re-enqueue the ``None`` shutdown
        sentinel, not swallow the worker's only wake-up signal."""
        batcher = MicroBatcher(lambda batch: batch, max_batch=4, auto=False)
        batcher._queue.put(None)                 # sentinel ahead of a request
        future = batcher.submit(np.ones(2))
        with batcher._flush_lock:
            batch = batcher._take_ready_batch()
        assert [p.future for p in batch] == [future]
        # The sentinel must still be queued for the worker to consume.
        assert any(item is None for item in list(batcher._queue.queue))
        batcher.close()

    def test_close_during_concurrent_flush_does_not_stall(self):
        """close() must join the worker promptly even when concurrent
        flushes race it for the queue (and could historically swallow the
        shutdown sentinel, leaving close to wait out the join timeout)."""
        import time

        batcher = MicroBatcher(lambda batch: batch * 2, max_batch=2,
                               max_wait_ms=50.0, auto=True)
        stop = threading.Event()

        def flusher():
            while not stop.is_set():
                batcher.flush()

        flushers = [threading.Thread(target=flusher) for _ in range(3)]
        for thread in flushers:
            thread.start()
        futures = [batcher.submit(np.ones(2)) for _ in range(16)]
        worker = batcher._worker
        started = time.perf_counter()
        batcher.close()
        elapsed = time.perf_counter() - started
        stop.set()
        for thread in flushers:
            thread.join()
        assert not worker.is_alive()
        # Well under the 5 s join timeout a swallowed sentinel would cost.
        assert elapsed < 2.0
        for future in futures:
            assert future.result(timeout=1)[0] == pytest.approx(2.0)

    def test_zero_wait_groups_requests_queued_during_dispatch(self):
        """With no straggler wait, the requests that queued while the worker
        was busy still go out as one batch, not one dispatch each."""
        started, release = threading.Event(), threading.Event()
        sizes = []

        def dispatch(batch):
            sizes.append(len(batch))
            started.set()
            release.wait(timeout=5)
            return batch * 2

        batcher = MicroBatcher(dispatch, max_batch=8, max_wait_ms=0.0,
                               auto=True)
        first = batcher.submit(np.ones(2))
        assert started.wait(timeout=5)
        queued = [batcher.submit(np.full(2, i, dtype=np.float32))
                  for i in range(6)]
        release.set()
        assert first.result(timeout=5)[0] == pytest.approx(2.0)
        for i, future in enumerate(queued):
            assert future.result(timeout=5)[0] == pytest.approx(2.0 * i)
        batcher.close()
        assert sizes == [1, 6]

    def test_close_while_worker_drains_serves_every_future(self):
        """The shutdown sentinel met while draining the queue ends the
        straggler wait, and the worker itself serves every request queued
        ahead of it."""
        started, release = threading.Event(), threading.Event()
        calls = []

        def dispatch(batch):
            calls.append((len(batch), threading.current_thread().name))
            started.set()
            release.wait(timeout=5)
            return batch + 1

        batcher = MicroBatcher(dispatch, max_batch=4, max_wait_ms=10_000,
                               name="drain", auto=True)
        # A full first batch dispatches without waiting out the timer.
        futures = [batcher.submit(np.full(2, i, dtype=np.float32))
                   for i in range(10)]
        assert started.wait(timeout=5)
        closer = threading.Thread(target=batcher.close)
        closer.start()
        give_up = time.monotonic() + 5
        while not any(item is None for item in list(batcher._queue.queue)):
            assert time.monotonic() < give_up, "close() queued no sentinel"
            closer.join(timeout=0.01)
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        for i, future in enumerate(futures):
            assert future.result(timeout=1)[0] == pytest.approx(i + 1.0)
        assert calls == [(n, "microbatcher-drain") for n in (4, 4, 2)]


class TestGateway:
    def test_two_endpoints_route_independently(self, lenet_clone):
        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(max_batch=4, auto_flush=False))
        gateway.register("low", network, dataset,
                         injector=_weight_injector(1e-5), metric=spec.metric)
        gateway.register("high", network, dataset,
                         injector=_weight_injector(1e-2), metric=spec.metric)
        assert gateway.endpoints() == ["high", "low"]
        sample = dataset.val_x[0]
        low = gateway.predict("low", sample)
        high = gateway.predict("high", sample)
        assert low.shape == high.shape == (network.num_classes,)
        assert gateway.session_for("low") is not gateway.session_for("high")
        with pytest.raises(KeyError):
            gateway.predict("missing", sample)
        gateway.close()

    def test_same_op_point_shares_compiled_plan(self, lenet_clone):
        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(auto_flush=False))
        injector = _weight_injector()
        gateway.register("a", network, dataset, injector=injector,
                         metric=spec.metric)
        gateway.register("b", network, dataset, injector=injector,
                         metric=spec.metric)
        assert gateway.session_for("a") is gateway.session_for("b")
        assert gateway.registry.stats["compilations"] == 1
        assert gateway.registry.stats["hits"] == 1
        gateway.close()

    def test_report_mentions_models_and_cache(self, lenet_clone):
        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(max_batch=4, auto_flush=False))
        gateway.register("m", network, dataset, injector=_weight_injector(),
                         metric=spec.metric)
        gateway.predict_many("m", dataset.val_x[:6])
        report = gateway.report()
        assert "Serving telemetry" in report
        assert "Session registry" in report
        assert "m" in report
        snapshot = gateway.snapshot()
        assert snapshot["models"]["m"]["requests"] == 6
        assert snapshot["registry"]["compilations"] == 1
        gateway.close()

    def test_classify_returns_label(self, lenet_clone):
        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(max_batch=4, auto_flush=False))
        gateway.register("m", network, dataset,
                         injector=_weight_injector(1e-6), metric=spec.metric)
        label = gateway.classify("m", dataset.val_x[0])
        assert 0 <= label < network.num_classes
        gateway.close()


class TestDispatchRule:
    """Shape-exact (integer) endpoints dispatch when the worker is idle;
    padded (FP32) endpoints hold an underfull batch open for stragglers."""

    def test_idle_shape_exact_endpoint_never_sleeps_on_the_timer(
            self, lenet_clone):
        from repro.serve.bench import serving_injector

        network, dataset, spec = lenet_clone
        injector, mode = serving_injector("int8", ber=1e-3, model_id=0,
                                          seed=0)
        gateway = ServingGateway(ServeConfig(max_batch=8,
                                             max_wait_ms=10_000))
        session = gateway.register("m", network, dataset, injector=injector,
                                   metric=spec.metric, execution_mode=mode)
        assert session.shape_exact() and session.mode_label() == "int8"
        sample = dataset.val_x[0]
        expected = session.predict(sample[None], pad_to=8)[0]   # warm-up
        started = time.perf_counter()
        row = gateway.predict("m", sample)
        elapsed = time.perf_counter() - started
        gateway.close()
        assert row.tobytes() == expected.tobytes()
        assert elapsed < 1.0

    def test_padded_endpoint_groups_a_straggler(self, lenet_clone):
        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(max_batch=2,
                                             max_wait_ms=10_000))
        session = gateway.register("m", network, dataset,
                                   injector=_weight_injector(),
                                   metric=spec.metric)
        assert not session.shape_exact()
        first = gateway.submit("m", dataset.val_x[0])
        time.sleep(0.05)
        straggler = gateway.submit("m", dataset.val_x[1])
        rows = np.stack([first.result(timeout=30),
                         straggler.result(timeout=30)])
        snapshot = gateway.snapshot()["models"]["m"]
        gateway.close()
        assert snapshot["batches"] == 1
        assert snapshot["mean_occupancy"] == pytest.approx(2.0)
        expected = session.predict(dataset.val_x[:2], pad_to=2)
        assert rows.tobytes() == expected.tobytes()


class TestSessionPredict:
    def test_static_shapes_make_rows_batch_invariant(self, lenet_clone):
        network, dataset, _ = lenet_clone
        session = InferenceSession(network, dataset,
                                   injector=_weight_injector())
        alone = session.predict(dataset.val_x[:1], pad_to=8)
        together = session.predict(dataset.val_x[:8], pad_to=8)
        assert alone[0].tobytes() == together[0].tobytes()

    def test_predict_rejects_bad_shape(self, lenet_clone):
        network, dataset, _ = lenet_clone
        session = InferenceSession(network, dataset)
        with pytest.raises(ValueError, match="predict"):
            session.predict(np.zeros((4, 3)))

    def test_predict_restores_previous_hook(self, lenet_clone):
        network, dataset, _ = lenet_clone
        sentinel = _weight_injector()
        network.set_fault_injector(sentinel)
        session = InferenceSession(network, dataset,
                                   injector=_weight_injector(1e-2))
        session.predict(dataset.val_x[:2])
        assert network.fault_injector is sentinel

    def test_ifm_errors_deterministic_per_dispatch(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 5e-3, seed=0),
                                    bits=32, seed=0)
        session = InferenceSession(network, dataset, injector=injector)
        first = session.predict(dataset.val_x[:4], ifm_errors=True, seed=7)
        second = session.predict(dataset.val_x[:4], ifm_errors=True, seed=7)
        clean = session.predict(dataset.val_x[:4])
        assert first.tobytes() == second.tobytes()
        assert first.tobytes() != clean.tobytes()

    def test_per_read_semantics_supported(self, lenet_clone):
        network, dataset, _ = lenet_clone
        session = InferenceSession(network, dataset,
                                   injector=_weight_injector(1e-2),
                                   semantics=ReadSemantics.PER_READ)
        first = session.predict(dataset.val_x[:4], seed=3)
        second = session.predict(dataset.val_x[:4], seed=3)
        assert first.tobytes() == second.tobytes()


class TestTelemetry:
    def test_percentiles_and_throughput(self):
        ticks = iter(np.arange(0.0, 10.0, 0.5))
        telemetry = ServingTelemetry(clock=lambda: float(next(ticks)))
        for latency in (0.010, 0.020, 0.030, 0.040):
            telemetry.record_request("m", latency)
        telemetry.record_batch("m", 4, 0.05)
        stats = telemetry.snapshot()["models"]["m"]
        assert stats["p50_ms"] == pytest.approx(20.0)
        assert stats["p99_ms"] == pytest.approx(40.0)
        # 4 requests over 1.5s of (injected) clock time.
        assert stats["throughput_rps"] == pytest.approx(4 / 1.5)
        assert stats["mean_occupancy"] == pytest.approx(4.0)

    def test_latency_window_bounded(self):
        telemetry = ServingTelemetry(window=10)
        for i in range(100):
            telemetry.record_request("m", float(i))
        stats = telemetry.snapshot()["models"]["m"]
        assert stats["requests"] == 100
        assert stats["p50_ms"] >= 90_000    # only the newest 10 retained

    def test_percentile_nearest_rank(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert np.isnan(percentile([], 50))

    def test_window_wrap_at_exact_boundary(self):
        """Percentile semantics across the window boundary: at exactly
        ``window`` samples nothing is evicted; one more sample drops
        exactly the oldest, so percentiles describe the newest ``window``
        samples while the requests counter keeps the full history."""
        telemetry = ServingTelemetry(window=4)
        for latency in (1.0, 2.0, 3.0, 4.0):       # fills the window exactly
            telemetry.record_request("m", latency)
        stats = telemetry.snapshot()["models"]["m"]
        assert stats["p50_ms"] == pytest.approx(2_000.0)
        assert stats["p99_ms"] == pytest.approx(4_000.0)
        telemetry.record_request("m", 5.0)          # wraps: evicts the 1.0
        stats = telemetry.snapshot()["models"]["m"]
        assert stats["requests"] == 5               # cumulative, unwindowed
        assert stats["p50_ms"] == pytest.approx(3_000.0)   # over [2, 3, 4, 5]
        assert stats["p99_ms"] == pytest.approx(5_000.0)
        assert stats["mean_ms"] == pytest.approx(3_500.0)

    def test_wrap_mid_report_sees_consistent_window(self):
        """A snapshot racing the wrap must see a consistent window: never
        more than ``window`` samples, percentiles always from real
        samples."""
        telemetry = ServingTelemetry(window=8)
        stop = threading.Event()

        def writer():
            latency = 0.0
            while not stop.is_set():
                latency += 1.0
                telemetry.record_request("m", latency)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            last_requests = 0
            for _ in range(200):
                stats = telemetry.snapshot()["models"]["m"]
                if not stats["requests"]:
                    continue
                assert stats["requests"] >= last_requests
                last_requests = stats["requests"]
                # Nearest-rank percentiles of a consistent window are real
                # recorded samples with p50 <= p95 <= p99 <= newest.
                assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
                assert stats["p99_ms"] <= stats["requests"] * 1e3 + 1e-6
        finally:
            stop.set()
            thread.join()

    def test_shed_and_expired_counters_surface_in_report(self):
        from repro.analysis.reporting import format_serving_report

        telemetry = ServingTelemetry()
        telemetry.record_request("m", 0.010)
        telemetry.record_shed("m")
        telemetry.record_shed("m")
        telemetry.record_expired("m")
        stats = telemetry.snapshot()["models"]["m"]
        assert stats["shed"] == 2
        assert stats["expired"] == 1
        assert stats["requests"] == 1       # shed/expired are not requests
        report = format_serving_report(telemetry.snapshot())
        assert "shed" in report and "expired" in report

    def test_ecc_counters_surface_in_report(self):
        from repro.analysis.reporting import format_serving_report

        telemetry = ServingTelemetry()
        telemetry.record_request("m", 0.010)
        telemetry.record_ecc("m", corrected=5, uncorrectable=2)
        telemetry.record_ecc("m", corrected=3)
        stats = telemetry.snapshot()["models"]["m"]
        assert stats["ecc_corrected"] == 8       # cumulative across records
        assert stats["ecc_uncorrectable"] == 2
        assert stats["requests"] == 1            # decode counts are not traffic
        report = format_serving_report(telemetry.snapshot())
        assert "corrected" in report and "uncorrectable" in report

    def test_gateway_harvests_ecc_counters_from_codec_session(self, lenet_clone):
        from repro.core.ecc import make_codec

        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(4, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0,
                                    ecc=make_codec("rs72_64"))
        with ServingGateway(ServeConfig(auto_flush=False)) as gateway:
            gateway.register("m", network, dataset, injector=injector,
                             semantics=ReadSemantics.STATIC_STORE)
            gateway.predict("m", dataset.val_x[0])
            snapshot = gateway.snapshot()
            stats = snapshot["models"]["m"]
            assert stats["ecc_corrected"] > 0
            # A second snapshot must not double-count the same codewords.
            assert (gateway.snapshot()["models"]["m"]["ecc_corrected"]
                    == stats["ecc_corrected"])
            assert "corrected" in gateway.report()

    def test_shed_only_model_renders(self):
        """A model that only ever shed (never served) must still render a
        row without NaN crashes in the report path."""
        from repro.analysis.reporting import format_serving_report

        telemetry = ServingTelemetry()
        telemetry.record_shed("overloaded")
        report = format_serving_report(telemetry.snapshot())
        assert "overloaded" in report


class TestBatcherDeadlines:
    def test_expired_request_dropped_at_dispatch(self):
        """A queued request whose deadline passed is dropped at dispatch:
        its future fails with DeadlineExceeded, the live neighbours still
        dispatch, and telemetry counts the expiry."""
        import time as _time

        from repro.engine import DeadlineExceeded

        telemetry = ServingTelemetry()
        sizes = []

        def dispatch(batch):
            sizes.append(len(batch))
            return batch * 2

        batcher = MicroBatcher(dispatch, max_batch=8, name="m",
                               telemetry=telemetry, auto=False)
        expired = batcher.submit(np.ones(2),
                                 deadline=_time.perf_counter() - 1.0)
        live = batcher.submit(np.ones(2))
        batcher.flush()
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=1)
        assert live.result(timeout=1)[0] == pytest.approx(2.0)
        assert sizes == [1]                  # the expired row never dispatched
        stats = telemetry.snapshot()["models"]["m"]
        assert stats["expired"] == 1
        assert stats["requests"] == 1
        batcher.close()

    def test_all_expired_batch_skips_dispatch_entirely(self):
        import time as _time

        calls = []
        batcher = MicroBatcher(lambda b: calls.append(len(b)) or b,
                               max_batch=4, auto=False)
        futures = [batcher.submit(np.ones(2),
                                  deadline=_time.perf_counter() - 1.0)
                   for _ in range(3)]
        batcher.flush()
        assert calls == []                   # no forward pass burned
        for future in futures:
            assert future.exception(timeout=1) is not None
        batcher.close()

    def test_cancelled_future_discarded_without_crashing_worker(self):
        """A client that cancels (e.g. the HTTP front end timing out) must
        not crash the dispatch fan-out for its batch neighbours."""
        batcher = MicroBatcher(lambda b: b * 3, max_batch=4, auto=False)
        doomed = batcher.submit(np.ones(2))
        survivor = batcher.submit(np.ones(2))
        assert doomed.cancel()
        batcher.flush()
        assert survivor.result(timeout=1)[0] == pytest.approx(3.0)
        batcher.close()


class TestEdenResultServe:
    def test_pipeline_session_drops_into_gateway(self, lenet_clone):
        from repro.core.config import EdenConfig
        from repro.core.pipeline import Eden
        from repro.dram.error_models import make_error_model

        network, dataset, _ = lenet_clone
        eden = Eden(config=EdenConfig(retrain_epochs=0, ber_search_steps=4,
                                      evaluation_repeats=1, seed=0))
        result = eden.run(network, dataset,
                          make_error_model(0, 1e-3, seed=0), boost=False)
        gateway = result.serve(max_batch=4, auto_flush=False)
        assert gateway.endpoints() == [network.name]
        row = gateway.predict(network.name, dataset.val_x[0])
        assert row.shape == (network.num_classes,)
        assert gateway.registry.stats["compilations"] == 1
        # The same op point registered again is a cache hit, not a recompile.
        result.serve(gateway, name="replica")
        assert gateway.registry.stats["compilations"] == 1
        assert gateway.registry.stats["hits"] == 1
        gateway.close()
