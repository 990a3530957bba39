"""HTTP serving front end: routing, admission control, deadlines, loadgen.

The acceptance properties of the network-facing layer:

* steady loadgen traffic through the HTTP front end is **bit-identical**
  (tobytes-equal, NaN-safe via the base64 row encoding) to serial
  in-process ``session.predict`` for fixed seeds;
* a burst sized well above ``max_queue_depth`` demonstrates admission
  control (``shed > 0``) while every *admitted* response stays correct;
* deadlines plumb end to end: an already-expired request is dropped at
  dispatch (504, counted as expired) without burning a forward pass;
* shutdown drains: requests admitted before ``stop()`` get their
  responses, later ones are refused.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.nn.tensor import DataKind
from repro.serve import (
    ServeConfig,
    ServerConfig,
    ServingGateway,
    decode_rows,
    encode_rows,
    serve_in_thread,
)
from repro.serve import loadgen


def _weight_injector(ber=1e-3, model_id=0, seed=0):
    return BitErrorInjector(make_error_model(model_id, ber, seed=seed),
                            bits=32, data_kinds={DataKind.WEIGHT}, seed=seed)


@pytest.fixture()
def served_lenet(lenet_clone):
    """A lenet gateway behind a live HTTP server (small queue for shedding)."""
    network, dataset, spec = lenet_clone
    gateway = ServingGateway(ServeConfig(max_batch=8, max_wait_ms=2.0))
    session = gateway.register("lenet", network, dataset,
                               injector=_weight_injector(),
                               metric=spec.metric)
    handle = serve_in_thread(gateway, ServerConfig(max_queue_depth=4))
    target = loadgen.HttpTarget(handle.base_url)
    try:
        yield gateway, session, dataset, handle, target
    finally:
        target.close()
        handle.stop()
        gateway.close()


class TestRowEncoding:
    def test_roundtrip_preserves_bits_including_nan(self):
        rows = np.array([[1.5, -0.0, np.inf], [np.nan, 3.0, -2.25]],
                        dtype=np.float32)
        # A NaN with a payload JSON floats would destroy.
        rows[1, 0] = np.frombuffer(np.uint32(0x7fc12345).tobytes(),
                                   dtype=np.float32)[0]
        decoded = decode_rows(encode_rows(rows))
        assert decoded.tobytes() == rows.tobytes()

    def test_empty(self):
        assert decode_rows([]).size == 0


class TestRouting:
    def test_healthz_reports_endpoints_and_admission(self, served_lenet):
        _gw, _s, _ds, handle, target = served_lenet
        health = target.health()
        assert health["status"] == "ok"
        assert health["endpoints"] == ["lenet"]
        assert health["inflight"] == 0
        assert health["max_queue_depth"] == 4

    def test_models_advertises_shapes(self, served_lenet):
        _gw, session, _ds, _h, target = served_lenet
        info = target.models()
        assert info["endpoints"] == ["lenet"]
        assert (tuple(info["models"]["lenet"]["input_shape"])
                == tuple(session.network.input_shape))
        assert info["models"]["lenet"]["num_classes"] \
            == session.network.num_classes

    def test_metrics_text_and_json(self, served_lenet):
        _gw, _s, dataset, _h, target = served_lenet
        assert target.predict("lenet", dataset.val_x[0]).ok
        text = target._request("GET", "/metrics")["payload"]
        assert "Serving telemetry" in text and "lenet" in text
        snapshot = target.metrics()
        assert snapshot["models"]["lenet"]["requests"] >= 1
        assert "registry" in snapshot

    def test_unknown_route_and_endpoint_404(self, served_lenet):
        _gw, _s, dataset, _h, target = served_lenet
        assert target._request("GET", "/nope")["status"] == 404
        record = target.predict("missing", dataset.val_x[0])
        assert record.status == 404

    def test_bad_json_and_bad_shape_400(self, served_lenet):
        _gw, _s, _ds, _h, target = served_lenet
        bad = target._request("POST", "/v1/models/lenet:predict",
                              b"{not json")
        assert bad["status"] == 400
        wrong = target._request(
            "POST", "/v1/models/lenet:predict",
            json.dumps({"sample": [1.0, 2.0]}).encode())
        assert wrong["status"] == 400
        missing = target._request("POST", "/v1/models/lenet:predict",
                                  json.dumps({"x": 1}).encode())
        assert missing["status"] == 400

    def test_method_not_allowed(self, served_lenet):
        _gw, _s, _ds, _h, target = served_lenet
        assert target._request("PUT", "/healthz")["status"] == 405

    def test_metrics_json_is_strict_rfc8259(self, served_lenet):
        """A single served request leaves NaN throughput in the snapshot;
        the JSON wire format must still parse under strict RFC 8259 rules
        (no bare NaN literals — jq/JSON.parse reject them)."""
        import http.client

        _gw, _s, dataset, handle, target = served_lenet
        assert target.predict("lenet", dataset.val_x[0]).ok
        connection = http.client.HTTPConnection("127.0.0.1", handle.port,
                                                timeout=10)
        connection.request("GET", "/metrics?format=json")
        body = connection.getresponse().read().decode("utf-8")
        connection.close()

        def reject(literal):
            raise AssertionError(f"non-standard JSON literal {literal!r}")

        snapshot = json.loads(body, parse_constant=reject)
        assert snapshot["models"]["lenet"]["requests"] >= 1

    def test_malformed_content_length_answers_400(self, served_lenet):
        """Framing garbage (non-numeric Content-Length) must get a clean
        400 + connection close, not kill the handler task silently."""
        import socket

        _gw, _s, _ds, handle, _t = served_lenet
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=10) as raw:
            raw.sendall(b"POST /v1/models/lenet:predict HTTP/1.1\r\n"
                        b"Content-Length: abc\r\n\r\n")
            raw.settimeout(10)
            response = raw.recv(65536).decode("latin-1")
        assert response.startswith("HTTP/1.1 400")
        assert "Connection: close" in response

    def test_multi_sample_request(self, served_lenet):
        _gw, session, dataset, _h, target = served_lenet
        batch = dataset.val_x[:3]
        result = target._request(
            "POST", "/v1/models/lenet:predict",
            json.dumps({"inputs": batch.tolist()}).encode())
        assert result["status"] == 200
        rows = decode_rows(result["payload"]["outputs_b64"])
        reference = session.predict(batch, pad_to=8)
        assert rows.tobytes() == reference.tobytes()


class TestAcceptance:
    def test_steady_loadgen_bit_identical_to_inprocess_predict(
            self, served_lenet):
        """The acceptance property: the full steady-scenario HTTP response
        set equals serial in-process predict, bit for bit."""
        _gw, session, dataset, _h, target = served_lenet
        samples = np.concatenate([dataset.val_x, dataset.val_x])[:40]
        result = loadgen.run_steady(target, "lenet", samples, concurrency=3)
        assert result.ok == result.sent == len(samples)
        reference = session.predict(samples, pad_to=8)
        assert result.stacked_rows().tobytes() == reference.tobytes()

    def test_burst_sheds_and_admitted_rows_stay_correct(self, served_lenet):
        """Admission control under a burst 8x the queue depth: some requests
        shed with 429, every admitted row bit-equal to its reference."""
        _gw, session, dataset, _h, target = served_lenet
        samples = np.concatenate([dataset.val_x] * 2)[:32]
        reference = session.predict(samples, pad_to=8)
        result = loadgen.run_burst(target, "lenet", samples)
        assert result.sent == 32
        assert result.errors == 0
        assert result.shed > 0
        assert result.ok >= 1          # queue depth admits at least one
        for index, row in result.ok_rows().items():
            assert row.tobytes() == reference[index].tobytes()
        # Server-side counters saw the sheds too.
        snapshot = target.metrics()
        assert snapshot["models"]["lenet"]["shed"] == result.shed


class TestDeadlines:
    def test_expired_request_dropped_without_forward_pass(self, served_lenet):
        _gw, session, dataset, _h, target = served_lenet
        before = session.stats["predictions"]
        record = target.predict("lenet", dataset.val_x[0], deadline_ms=0.0)
        assert record.status == 504
        assert record.expired
        snapshot = target.metrics()
        assert snapshot["models"]["lenet"]["expired"] >= 1
        # The dropped request never occupied a batch row.
        assert session.stats["predictions"] == before

    def test_generous_deadline_serves(self, served_lenet):
        _gw, _s, dataset, _h, target = served_lenet
        record = target.predict("lenet", dataset.val_x[0], deadline_ms=5000.0)
        assert record.status == 200


class TestDrain:
    def test_stop_drains_inflight_then_refuses(self, lenet_clone):
        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(max_batch=8, max_wait_ms=20.0))
        gateway.register("m", network, dataset, injector=_weight_injector(),
                         metric=spec.metric)
        handle = serve_in_thread(gateway, ServerConfig(max_queue_depth=32))
        target = loadgen.HttpTarget(handle.base_url)
        records = []

        def client():
            records.append(target.predict("m", dataset.val_x[0]))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.005)              # let the requests reach the server
        handle.stop()                  # drain: admitted requests must finish
        for thread in threads:
            thread.join(timeout=10)
        assert all(not thread.is_alive() for thread in threads)
        # Every request issued before the drain got a real answer (200) or
        # was refused cleanly (503 drain / connection refused) — never hung.
        assert len(records) == 4
        for record in records:
            assert record.status in (200, 503, -1)
        # At least the request(s) already admitted completed.
        post = target.predict("m", dataset.val_x[0])
        assert post.status in (-1, 503)      # listener is gone
        target.close()
        gateway.close()

    @pytest.mark.parametrize("front_end", ["server", "router"])
    def test_stop_never_abandons_a_late_connection(self, front_end):
        # Connections accepted just before the listener closes get their
        # handler task a few loop iterations later; stop() must still
        # answer or close every one of them instead of leaving it open
        # when the loop stops.
        from repro.serve.router import route_in_thread

        gateway = ServingGateway(ServeConfig())
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        stuck = []

        def client(port: int, delay: float) -> None:
            time.sleep(delay)
            try:
                sock = socket.create_connection(("127.0.0.1", port),
                                                timeout=2.0)
            except OSError:
                return                          # refused: listener gone
            try:
                sock.sendall(request)
                sock.recv(4096)                 # a response or EOF
            except socket.timeout:
                stuck.append(delay)
            except OSError:
                pass                            # reset: refused cleanly
            finally:
                sock.close()

        started = time.perf_counter()
        for round_index in range(20):
            if front_end == "server":
                handle = serve_in_thread(gateway)
            else:
                # An unreachable replica: the router still serves /healthz.
                handle = route_in_thread(["http://127.0.0.1:1"])
            threads = [threading.Thread(target=client,
                                        args=(handle.port, 0.0005 * i))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            time.sleep(0.0005 * (round_index % 8))
            handle.stop()
            for thread in threads:
                thread.join(timeout=5)
            assert all(not thread.is_alive() for thread in threads)
        gateway.close()
        assert stuck == []
        assert time.perf_counter() - started < 60

    def test_server_requires_auto_flush_gateway(self, lenet_clone):
        from repro.serve.server import InferenceServer

        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(auto_flush=False))
        gateway.register("m", network, dataset, injector=_weight_injector(),
                         metric=spec.metric)
        with pytest.raises(ValueError, match="auto_flush"):
            InferenceServer(gateway)
        gateway.close()


class TestLoadgenScenarios:
    def test_poisson_offsets_deterministic_and_monotonic(self):
        a = loadgen.poisson_offsets(64, 200.0, seed=7)
        b = loadgen.poisson_offsets(64, 200.0, seed=7)
        c = loadgen.poisson_offsets(64, 200.0, seed=8)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()
        assert np.all(np.diff(a) >= 0)

    def test_open_loop_serves_all_under_capacity(self, served_lenet):
        _gw, session, dataset, _h, target = served_lenet
        samples = dataset.val_x[:16]
        result = loadgen.run_open_loop(target, "lenet", samples,
                                       rate_rps=150.0, seed=3, concurrency=3)
        assert result.sent == 16
        assert result.errors == 0
        reference = session.predict(samples, pad_to=8)
        for index, row in result.ok_rows().items():
            assert row.tobytes() == reference[index].tobytes()

    def test_ramp_schedule_is_deterministic(self, served_lenet):
        _gw, _s, dataset, _h, target = served_lenet
        result = loadgen.run_ramp(target, "lenet", dataset.val_x[:12],
                                  start_rps=100.0, end_rps=400.0,
                                  segments=3, seed=5, concurrency=3)
        assert result.sent == 12
        assert result.errors == 0
        assert result.meta["segments"] == 3

    def test_mix_assignment_seeded(self, served_lenet):
        gateway, _s, dataset, _h, target = served_lenet
        network2 = gateway.session_for("lenet").network
        gateway.register("lenet@hi", network2, dataset,
                         injector=_weight_injector(1e-2))
        first = loadgen.run_mix(target, {"lenet": 0.5, "lenet@hi": 0.5},
                                dataset.val_x[:12], seed=11, concurrency=2)
        second = loadgen.run_mix(target, {"lenet": 0.5, "lenet@hi": 0.5},
                                 dataset.val_x[:12], seed=11, concurrency=2)
        assert ([r.endpoint for r in first.records]
                == [r.endpoint for r in second.records])
        assert {r.endpoint for r in first.records} \
            <= {"lenet", "lenet@hi"}
        assert first.errors == 0

    def test_result_record_is_json_and_reconciles(self, served_lenet):
        _gw, _s, dataset, _h, target = served_lenet
        result = loadgen.run_steady(target, "lenet", dataset.val_x[:8],
                                    concurrency=2)
        record = result.to_record()
        json.dumps(record)               # machine-readable, JSON-safe
        assert record["sent"] == (record["ok"] + record["shed"]
                                  + record["expired"] + record["errors"])
        assert sum(record["status_counts"].values()) == record["sent"]
        assert all(isinstance(key, str) for key in record["status_counts"])
        assert "statuses" not in record     # the raw list stays in memory
        assert sum(1 for r in result.records if r.status == 200) == \
            int(record["status_counts"].get("200", 0))
        assert record["latency_ms"]["p50"] <= record["latency_ms"]["p99"]

    def test_stacked_rows_refuses_partial_results(self):
        records = [loadgen.RequestRecord(0, "m", 200, 0.0,
                                         np.zeros(2, np.float32)),
                   loadgen.RequestRecord(1, "m", 429, 0.0)]
        result = loadgen.LoadResult("steady", records, 1.0)
        with pytest.raises(ValueError, match="needs every request"):
            result.stacked_rows()

    def test_status_and_replica_histograms(self):
        records = [loadgen.RequestRecord(0, "m", 200, 0.0, replica="r-0"),
                   loadgen.RequestRecord(1, "m", 200, 0.0, replica="r-1"),
                   loadgen.RequestRecord(2, "m", 429, 0.0, replica="r-0"),
                   loadgen.RequestRecord(3, "m", 200, 0.0)]
        result = loadgen.LoadResult("steady", records, 1.0)
        assert result.status_counts() == {"200": 3, "429": 1}
        assert result.replica_counts() == {"r-0": 2, "r-1": 1}
        # Raw statuses survive on the in-memory records for assertions.
        assert [r.status for r in result.records] == [200, 200, 429, 200]


class TestServerGauges:
    def test_metrics_json_exposes_live_admission_gauges(self, served_lenet):
        _gw, _s, dataset, _h, target = served_lenet
        assert target.predict("lenet", dataset.val_x[0]).ok
        gauges = target.metrics()["server"]
        assert gauges["inflight"] == 0           # nothing in flight now
        assert gauges["max_queue_depth"] == 4
        assert gauges["queue_free"] == 4
        assert gauges["draining"] is False
        assert gauges["shed_total"] >= 0
        assert gauges["expired_total"] >= 0

    def test_shed_total_counts_admission_refusals(self, served_lenet):
        _gw, _s, dataset, _h, target = served_lenet
        burst = loadgen.run_burst(target, "lenet", dataset.val_x[:32])
        assert burst.shed > 0                    # queue depth is 4
        gauges = target.metrics()["server"]
        assert gauges["shed_total"] >= burst.shed
