"""Property-based registry invariants + serving-stack concurrency stress.

Two satellite suites of the HTTP-serving PR:

* **SessionRegistry invariants under random programs** — seeded random
  sequences of ``get_or_compile`` / ``get`` / ``add`` operations (plain
  pytest, hypothesis-style: the program is a pure function of its seed)
  must never exceed ``memory_budget_bytes`` while more than one entry is
  cached, never evict the entry an operation just inserted, and keep the
  hit/miss/compilation/eviction/stored-byte counters reconciled at every
  step.
* **Concurrency stress** — N producer threads driving a gateway through
  the loadgen harness must produce results tobytes-identical to serial
  dispatch (in-process MicroBatcher and multi-process PlanPool
  alike), and ``close()`` racing in-flight flushes must never deadlock
  (regression for the PR-4 shutdown-sentinel fix).
"""

import threading
import time

import numpy as np
import pytest

from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.engine import InferenceSession
from repro.nn.layers import Linear
from repro.nn.network import Network
from repro.nn.tensor import DataKind
from repro.serve import ServeConfig, ServingGateway, SessionRegistry, \
    session_store_bytes
from repro.serve import loadgen


def _weight_injector(ber, seed=0):
    return BitErrorInjector(make_error_model(0, ber, seed=seed), bits=32,
                            data_kinds={DataKind.WEIGHT}, seed=seed)


def _tiny_network(name, width, classes=3):
    return Network(name, [Linear("fc", width, classes)], (width,), classes)


class TestRegistryInvariants:
    """Seeded random register/get/evict programs against a live registry."""

    OPS_PER_PROGRAM = 60

    def _check_invariants(self, registry, budget, lookups, inserted_key):
        stats = registry.stats
        entries = registry.sessions()
        # Counters reconcile: every lookup is exactly one hit or miss, and
        # entries only enter via a compilation and leave via an eviction.
        assert stats["hits"] + stats["misses"] == lookups
        assert stats["compilations"] - stats["evictions"] == len(registry)
        # Byte accounting matches the cached sessions' actual stores.
        assert stats["stored_bytes"] == sum(session_store_bytes(s)
                                            for s in entries)
        # Budgets hold (single oversized-newest entry is the documented
        # exception: the plan just compiled must be allowed to serve).
        assert len(registry) <= registry.max_sessions
        if budget is not None and len(registry) > 1:
            assert stats["stored_bytes"] <= budget
        # The entry this operation inserted is never the one evicted.
        if inserted_key is not None:
            assert inserted_key in registry

    @pytest.mark.parametrize("program_seed", range(6))
    def test_random_program_invariants(self, program_seed):
        rng = np.random.default_rng(program_seed)
        networks = [_tiny_network(f"tiny{w}", w) for w in (4, 8, 16)]
        injectors = [_weight_injector(ber) for ber in (1e-4, 1e-3, 1e-2)]
        one_store = session_store_bytes(
            SessionRegistry().get_or_compile(networks[1], None,
                                             injector=injectors[0]))
        max_sessions = int(rng.integers(1, 5))
        budget = [None, int(one_store * 1.5), int(one_store * 3)][
            int(rng.integers(0, 3))]
        registry = SessionRegistry(max_sessions=max_sessions,
                                   memory_budget_bytes=budget)
        lookups = 0
        for _ in range(self.OPS_PER_PROGRAM):
            op = rng.choice(["compile", "get", "add"], p=[0.5, 0.25, 0.25])
            network = networks[int(rng.integers(len(networks)))]
            injector = injectors[int(rng.integers(len(injectors)))]
            seed = int(rng.integers(0, 2))
            inserted_key = None
            if op == "compile":
                key = registry.key_of(network, injector, seed)
                existed = key in registry
                registry.get_or_compile(network, None, injector=injector,
                                        seed=seed)
                lookups += 1
                if not existed:
                    inserted_key = key
            elif op == "get":
                known = registry.keys()
                if known and rng.random() < 0.8:
                    key = known[int(rng.integers(len(known)))]
                else:
                    key = registry.key_of(network, injector, seed)
                registry.get(key)
                lookups += 1
            else:
                session = InferenceSession(network, None, injector=injector,
                                           seed=seed)
                key = registry.key_of(network, injector, seed)
                if key in registry:
                    lookups += 1     # add() on a cached key counts a hit
                else:
                    inserted_key = key
                registry.add(session)
            self._check_invariants(registry, budget, lookups, inserted_key)

    def test_budget_holds_across_eviction_storm(self):
        """A directed program: a tight budget forced through many inserts
        keeps exactly the documented guarantees at every step."""
        network = _tiny_network("storm", 8)
        injectors = [_weight_injector(10.0 ** -k) for k in range(2, 8)]
        one_store = session_store_bytes(
            SessionRegistry().get_or_compile(network, None,
                                             injector=injectors[0]))
        budget = int(one_store * 2.5)
        registry = SessionRegistry(max_sessions=10,
                                   memory_budget_bytes=budget)
        for round_index in range(3):
            for injector in injectors:
                key = registry.key_of(network, injector)
                registry.get_or_compile(network, None, injector=injector)
                assert key in registry
                assert registry.stats["stored_bytes"] <= budget
        assert registry.stats["evictions"] > 0
        # Evicted sessions re-materialize on reuse: no correctness loss.
        session = registry.get_or_compile(network, None,
                                          injector=injectors[0])
        x = np.zeros((2, 8), dtype=np.float32)
        assert session.predict(x).shape == (2, 3)


class TestConcurrencyStress:
    """Producer threads through the loadgen harness vs serial dispatch."""

    def _stress_samples(self, n, width, seed=0):
        return np.random.default_rng(seed).standard_normal(
            (n, width)).astype(np.float32)

    def test_threaded_producers_bit_identical_to_serial(self):
        """N producers through the auto-flush MicroBatcher must coalesce to
        results tobytes-identical to serial in-process dispatch."""
        network = _tiny_network("stress", 8)
        gateway = ServingGateway(ServeConfig(max_batch=4, max_wait_ms=1.0))
        session = gateway.register("m", network, None,
                                   injector=_weight_injector(1e-3))
        samples = self._stress_samples(64, 8)
        reference = session.predict(samples, pad_to=4)
        target = loadgen.GatewayTarget(gateway)
        result = loadgen.run_steady(target, "m", samples, concurrency=8)
        gateway.close()
        assert result.ok == result.sent == 64
        assert result.stacked_rows().tobytes() == reference.tobytes()

    def test_plan_dispatcher_producers_bit_identical_to_serial(self):
        """The same guarantee through multi-process PlanPool workers
        (each holding a zero-copy view of the exported plan)."""
        network = _tiny_network("stress-mp", 8)
        gateway = ServingGateway(ServeConfig(max_batch=4, max_wait_ms=1.0,
                                             dispatch_processes=2))
        session = gateway.register("m", network, None,
                                   injector=_weight_injector(1e-3))
        samples = self._stress_samples(32, 8)
        reference = session.predict(samples, pad_to=4)
        target = loadgen.GatewayTarget(gateway)
        result = loadgen.run_steady(target, "m", samples, concurrency=6)
        gateway.close()
        assert result.ok == result.sent == 32
        assert result.stacked_rows().tobytes() == reference.tobytes()

    def test_close_during_inflight_flushes_never_deadlocks(self):
        """close() racing producers and concurrent flushes must return
        promptly (the PR-4 sentinel regression) and leave every submitted
        request resolved — served or cleanly failed, never hung."""
        network = _tiny_network("close-race", 8)
        gateway = ServingGateway(ServeConfig(max_batch=2, max_wait_ms=25.0))
        gateway.register("m", network, None, injector=_weight_injector(1e-3))
        target = loadgen.GatewayTarget(gateway)
        samples = self._stress_samples(200, 8)
        records = []
        records_lock = threading.Lock()
        stop_flushing = threading.Event()

        def producer(shard):
            for sample in shard:
                record = target.predict("m", sample)
                with records_lock:
                    records.append(record)

        def flusher():
            while not stop_flushing.is_set():
                try:
                    gateway.flush()
                except Exception:
                    return           # gateway closed underneath us: fine

        producers = [threading.Thread(target=producer, args=(shard,))
                     for shard in np.array_split(samples, 4)]
        flushers = [threading.Thread(target=flusher) for _ in range(2)]
        for thread in producers + flushers:
            thread.start()
        time.sleep(0.05)             # let traffic get in flight
        started = time.perf_counter()
        gateway.close()
        close_elapsed = time.perf_counter() - started
        stop_flushing.set()
        for thread in producers + flushers:
            thread.join(timeout=10)
        assert all(not t.is_alive() for t in producers + flushers)
        # Well under the 5 s worker-join timeout a swallowed shutdown
        # sentinel would cost.
        assert close_elapsed < 4.0
        # Every request that made it in resolved one way or the other.
        assert all(r.status in (200, 500) for r in records)
        assert any(r.status == 200 for r in records)
