"""Router tier: consistent hashing, backpressure spill, failover, respawn.

The acceptance properties of the multi-replica serving topology:

* steady traffic through the router is **bit-identical** to serial
  in-process ``session.predict`` — every replica adopts the same
  shared-memory plan export and the static batch shapes make results
  occupancy-independent, so the balancer's choice never shows in the bytes;
* the same ``X-Affinity-Key`` lands on the same replica while it is
  healthy (consistent hashing), and keyless traffic spreads;
* killing a replica under load causes **zero client-visible errors**: the
  router retries the failed request on another replica, health checks
  evict the corpse, and the manager respawns a replacement that rejoins;
* a replica reporting ``draining`` gauges leaves the ring (no new
  traffic) and rejoins once its probes look healthy again.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.serve import ServeConfig, ServerConfig, loadgen
from repro.serve.bench import build_serving_gateway, request_set
from repro.serve.replica import ReplicaManager
from repro.serve.router import (
    HashRing,
    RouterConfig,
    RouterServer,
    route_in_thread,
)

from tests.test_parallel import replica_parity_session


@pytest.fixture(scope="module")
def routed_lenet():
    """Two local lenet replicas (one shared plan export) behind a router."""
    gateway, session, dataset = build_serving_gateway(
        "lenet", ber=1e-3, seed=0, max_batch=8, dtype="int8")
    manager = ReplicaManager(
        {"lenet": session},
        serve_config=ServeConfig(max_batch=8),
        server_config=ServerConfig(max_queue_depth=32))
    replicas = manager.spawn_many(2)
    handle = route_in_thread(replicas, manager,
                             RouterConfig(health_interval_s=0.1))
    target = loadgen.HttpTarget(handle.base_url)
    try:
        yield session, dataset, handle, target
    finally:
        target.close()
        handle.stop()
        manager.close()
        gateway.close()


class TestHashRing:
    def test_same_key_same_node(self):
        ring = HashRing(vnodes=32)
        for node in ("a", "b", "c"):
            ring.add(node)
        keys = [f"key-{i}" for i in range(64)]
        first = [ring.ordered(key)[0] for key in keys]
        assert first == [ring.ordered(key)[0] for key in keys]
        assert set(first) == {"a", "b", "c"}     # vnodes spread the keys

    def test_ordered_covers_every_node_once(self):
        ring = HashRing(vnodes=8)
        for node in ("a", "b", "c", "d"):
            ring.add(node)
        order = ring.ordered("some-key")
        assert sorted(order) == ["a", "b", "c", "d"]

    def test_remove_only_remaps_departed_nodes_keys(self):
        ring = HashRing(vnodes=32)
        for node in ("a", "b", "c"):
            ring.add(node)
        keys = [f"session-{i}" for i in range(128)]
        before = {key: ring.ordered(key)[0] for key in keys}
        ring.remove("b")
        after = {key: ring.ordered(key)[0] for key in keys}
        for key in keys:
            if before[key] != "b":
                assert after[key] == before[key]
            else:
                assert after[key] in ("a", "c")
        ring.add("b")
        assert {key: ring.ordered(key)[0] for key in keys} == before

    def test_empty_ring_and_idempotent_membership(self):
        ring = HashRing(vnodes=4)
        assert ring.ordered("k") == []
        ring.add("a")
        ring.add("a")
        assert len(ring) == 1
        ring.remove("missing")
        assert ring.ordered("k") == ["a"]


class TestCandidateSelection:
    """Unit tests of the routing policy (no sockets; states built by hand)."""

    def _router(self, n=3):
        router = RouterServer([f"http://127.0.0.1:{9000 + i}"
                               for i in range(n)],
                              config=RouterConfig(spill_load=0.75))
        for state in router._states.values():
            router._join(state)
        return router

    def test_keyed_order_follows_ring(self):
        router = self._router()
        order = [s.name for s in router._candidates("user-1")]
        assert order == router.ring.ordered("user-1")

    def test_spill_defers_loaded_primary(self):
        router = self._router()
        primary = router._candidates("user-1")[0]
        primary.gauges = {"inflight": 60, "max_queue_depth": 64}
        spilled = router._candidates("user-1")
        assert spilled[0].name != primary.name
        assert spilled[-1].name == primary.name      # still a last resort
        # Unloaded again: the key snaps back to its ring primary.
        primary.gauges = {"inflight": 0, "max_queue_depth": 64}
        assert router._candidates("user-1")[0] is primary

    def test_keyless_prefers_least_loaded(self):
        router = self._router()
        states = list(router._states.values())
        states[0].inflight = 5
        states[1].inflight = 1
        states[2].inflight = 3
        assert router._candidates(None)[0] is states[1]

    def test_unjoined_replicas_are_never_candidates(self):
        router = self._router()
        for state in router._states.values():
            router._evict(state)
        assert router._candidates(None) == []
        assert router._candidates("user-1") == []


class TestRoutedServing:
    def test_steady_through_router_bit_identical(self, routed_lenet):
        session, dataset, _handle, target = routed_lenet
        samples = request_set(dataset, 32)
        result = loadgen.run_steady(target, "lenet", samples, concurrency=4)
        assert result.ok == result.sent == 32
        reference = session.predict(samples, pad_to=8)
        assert result.stacked_rows().tobytes() == reference.tobytes()
        # Keyless traffic actually used the replica set.
        assert sum(result.replica_counts().values()) == 32

    def test_affinity_same_key_same_replica(self, routed_lenet):
        _session, dataset, _handle, target = routed_lenet
        records = [target.predict("lenet", dataset.val_x[0],
                                  affinity="user-42") for _ in range(6)]
        assert all(r.ok for r in records)
        assert len({r.replica for r in records}) == 1

    def test_affinity_keys_spread_over_replicas(self, routed_lenet):
        _session, dataset, _handle, target = routed_lenet
        replicas = {target.predict("lenet", dataset.val_x[0],
                                   affinity=f"session-{i}").replica
                    for i in range(16)}
        assert len(replicas) == 2                # sha1 ring, 2 replicas

    def test_affine_steady_run_stays_on_one_replica(self, routed_lenet):
        session, dataset, _handle, target = routed_lenet
        samples = request_set(dataset, 12)
        result = loadgen.run_steady(target, "lenet", samples,
                                    concurrency=3, affinity="tenant-7")
        assert result.ok == result.sent
        assert len(result.replica_counts()) == 1
        reference = session.predict(samples, pad_to=8)
        assert result.stacked_rows().tobytes() == reference.tobytes()

    def test_router_health_and_metrics_routes(self, routed_lenet):
        _session, _dataset, _handle, target = routed_lenet
        health = target.health()
        assert health["role"] == "router"
        assert health["status"] == "ok"
        assert health["ring_size"] == 2
        metrics = target.metrics()
        assert metrics["router"]["ring_size"] == 2
        for replica in metrics["replicas"].values():
            assert replica["joined"] is True
            assert replica["gauges"]["max_queue_depth"] == 32
        text = target._request("GET", "/metrics")["payload"]
        assert "== router ==" in text
        json.dumps(metrics)                      # JSON-safe end to end

    def test_models_listing_proxies_to_a_replica(self, routed_lenet):
        session, _dataset, _handle, target = routed_lenet
        info = target.models()
        assert info["endpoints"] == ["lenet"]
        assert (tuple(info["models"]["lenet"]["input_shape"])
                == tuple(session.network.input_shape))

    def test_unknown_routes_404(self, routed_lenet):
        _session, dataset, _handle, target = routed_lenet
        assert target._request("GET", "/nope")["status"] == 404
        assert target.predict("missing", dataset.val_x[0]).status == 404


class TestReplicaFailure:
    def test_kill_under_load_evict_respawn_zero_client_errors(self):
        gateway, session, dataset = build_serving_gateway(
            "lenet", ber=1e-3, seed=0, max_batch=8, dtype="int8")
        manager = ReplicaManager(
            {"lenet": session}, serve_config=ServeConfig(max_batch=8),
            server_config=ServerConfig(max_queue_depth=32))
        replicas = manager.spawn_many(2)
        handle = route_in_thread(replicas, manager,
                                 RouterConfig(health_interval_s=0.1))
        target = loadgen.HttpTarget(handle.base_url)
        try:
            samples = request_set(dataset, 96)
            killer = threading.Timer(0.25, replicas[0].kill)
            killer.start()
            result = loadgen.run_steady(target, "lenet", samples,
                                        concurrency=6)
            killer.join()
            # Zero client-visible errors: the router retried every request
            # the dead replica dropped onto a healthy one.
            assert result.ok == result.sent == 96
            assert result.errors == 0
            reference = session.predict(samples, pad_to=8)
            assert result.stacked_rows().tobytes() == reference.tobytes()
            # Health-driven eviction + respawn: the corpse leaves the ring
            # and a replacement joins, healing the ring back to 2.
            deadline = time.perf_counter() + 15.0
            while time.perf_counter() < deadline:
                metrics = target.metrics()
                if (metrics["router"]["respawned"] >= 1
                        and metrics["router"]["ring_size"] == 2):
                    break
                time.sleep(0.1)
            assert metrics["router"]["ring_size"] == 2
            assert metrics["router"]["respawned"] == 1
            assert metrics["router"]["evicted"] >= 1
            assert replicas[0].name not in metrics["replicas"]
            # The respawned replica serves traffic bit-identically too.
            again = loadgen.run_steady(target, "lenet", samples[:16],
                                       concurrency=4)
            assert again.ok == again.sent
            assert again.stacked_rows().tobytes() \
                == reference[:16].tobytes()
        finally:
            target.close()
            handle.stop()
            manager.close()
            gateway.close()


class TestReplicaParity:
    def test_live_replica_matches_owner_predict(self, lenet_clone):
        # Per-read endpoints and IFM-injecting static stores keep drawing
        # errors on the replica side: the replica's session must carry the
        # owner's injector, semantics and seed to return the owner's bytes.
        network, dataset, _ = lenet_clone
        sessions = {kind: replica_parity_session(kind, network, dataset)[0]
                    for kind in ("per_read", "ifm_errors")}
        samples = np.asarray(dataset.val_x[:4])
        with ReplicaManager(sessions, serve_config=ServeConfig(
                max_batch=8, ifm_errors=True)) as manager:
            target = loadgen.HttpTarget(manager.spawn().url)
            try:
                for name, session in sessions.items():
                    for sample in samples:
                        record = target.predict(name, sample)
                        assert record.ok, record.error
                        reference = session.predict(sample[None], pad_to=8,
                                                    ifm_errors=True)
                        assert record.row.tobytes() == reference[0].tobytes()
            finally:
                target.close()


class _FakeReplicaHandler(BaseHTTPRequestHandler):
    """Serves canned ``/metrics`` gauges so probe behaviour is scriptable."""

    def do_GET(self):       # noqa: N802 - http.server API
        payload = json.dumps({"server": dict(self.server.gauges)})
        body = payload.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):       # noqa: D102 - silence test output
        pass


def _fake_replica():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeReplicaHandler)
    server.gauges = {"inflight": 0, "max_queue_depth": 64, "queue_free": 64,
                     "draining": False, "shed_total": 0, "expired_total": 0}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


def _wait_ring_size(target, size, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if target.health()["ring_size"] == size:
            return True
        time.sleep(0.05)
    return False


class TestDrainAndEviction:
    def test_drain_then_rejoin_and_failure_eviction(self):
        fake_a, url_a = _fake_replica()
        fake_b, url_b = _fake_replica()
        handle = route_in_thread(
            [url_a, url_b],
            config=RouterConfig(health_interval_s=0.05, fail_after=2))
        target = loadgen.HttpTarget(handle.base_url)
        try:
            assert _wait_ring_size(target, 2)
            # Draining gauges take the replica off the ring (no new
            # traffic) without counting as a failure...
            fake_a.gauges["draining"] = True
            assert _wait_ring_size(target, 1)
            # ...and it rejoins as soon as probes look healthy again.
            fake_a.gauges["draining"] = False
            assert _wait_ring_size(target, 2)
            # A replica whose port stops answering is evicted after
            # fail_after consecutive probe failures.
            fake_b.shutdown()
            fake_b.server_close()
            assert _wait_ring_size(target, 1, timeout=10.0)
            assert target.metrics()["router"]["evicted"] >= 1
        finally:
            target.close()
            handle.stop()
            fake_a.shutdown()
            fake_a.server_close()
