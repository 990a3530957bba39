"""Asyncio HTTP/JSON front end over the serving gateway.

This is the network-facing layer of the serving stack: an
:class:`InferenceServer` accepts HTTP/1.1 requests on an asyncio event loop,
admits them against a bounded queue, and bridges each admitted request into a
:class:`~repro.serve.gateway.ServingGateway`'s micro-batcher (a plain
``queue.Queue`` hand-off to the batcher's worker thread, so the event loop
never blocks on a forward pass).  Everything is standard library: ``asyncio``
streams for the transport, ``json`` for the wire format, ``base64`` for the
bit-exact output encoding.

Routes
------
``POST /v1/models/<name>:predict``
    Body ``{"sample": [...]}`` (one input) or ``{"inputs": [[...], ...]}``
    (several), optional ``"deadline_ms"``.  Responds with the output rows
    both human-readable (``argmax``) and bit-exact (``outputs_b64``: base64
    of each row's float32 bytes — JSON floats cannot round-trip NaN logits,
    base64 can).
``GET /healthz``
    Liveness + admission state: ``ok`` or ``draining``, registered
    endpoints, in-flight count.
``GET /metrics``
    The serving telemetry report as plain text
    (:func:`repro.analysis.reporting.format_serving_report`);
    ``/metrics?format=json`` returns the raw snapshot dict.
``GET /v1/models``
    The registered endpoint names.

Admission control
-----------------
At most ``max_queue_depth`` predict requests may be in flight at once; the
next one is *shed* with a ``429`` response (and counted in
:class:`~repro.serve.telemetry.ServingTelemetry`) instead of growing an
unbounded queue.  Every admitted request carries a deadline (request
``deadline_ms``, ``X-Deadline-Ms`` header, or the configured default): a
request still queued when its deadline passes is dropped by the batcher at
dispatch time (never burning a forward pass), and one that completes too
late is answered ``504`` — both counted as expired.  Shutdown is graceful:
:meth:`InferenceServer.stop` stops accepting new work, waits for in-flight
requests up to ``drain_timeout_s``, then tears the connections down.
"""

from __future__ import annotations

import asyncio
import base64
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.engine.session import DeadlineExceeded
from repro.serve.gateway import ServingGateway

#: HTTP reason phrases for the status codes the server emits.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


@dataclass
class ServerConfig:
    """Tuning knobs of an :class:`InferenceServer`.

    ``host``/``port`` select the listening socket (``port=0`` binds an
    ephemeral port, reported by :attr:`InferenceServer.port` once started);
    ``max_queue_depth`` bounds how many predict requests may be in flight
    before admission control sheds with ``429``; ``default_deadline_ms``
    (``None`` = no deadline) applies to requests that do not carry their
    own; ``drain_timeout_s`` bounds how long :meth:`InferenceServer.stop`
    waits for in-flight requests before cancelling their connections; and
    ``max_body_bytes`` rejects oversized request bodies with ``413``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_queue_depth: int = 64
    default_deadline_ms: Optional[float] = None
    drain_timeout_s: float = 5.0
    max_body_bytes: int = 16 * 2**20


def json_safe(value):
    """Recursively replace non-finite floats with ``None`` for strict JSON.

    ``value`` is any snapshot-shaped structure (dicts/lists/scalars).
    Telemetry snapshots legitimately contain ``nan`` (no traffic yet, empty
    latency window), but ``json.dumps`` would emit the non-standard ``NaN``
    literal that RFC 8259 parsers (jq, ``JSON.parse``) reject — so the wire
    gets ``null`` instead.  Returns the sanitized copy.
    """
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


async def read_http_request(reader: asyncio.StreamReader,
                            max_body_bytes: int
                            ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP request from ``reader``; ``None`` on clean close.

    The shared request parser behind :class:`InferenceServer` and the
    router tier (:class:`repro.serve.router.RouterServer`).  Bodies over
    ``max_body_bytes`` and malformed framing are reported through the
    sentinel methods ``"TOOBIG"`` / ``"BAD"`` rather than exceptions, so a
    protocol error answers a 4xx instead of killing the connection task.
    Returns ``(method, path, headers, body)`` with header names
    lower-cased, or ``None`` at EOF before a request line.
    """
    try:
        line = await reader.readline()
    except ValueError:                  # request line over the 64 KiB limit
        return "BAD", "", {}, b""
    if not line or not line.strip():
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        return "BAD", "", {}, b""
    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError:              # header line over the limit
            return "BAD", target, {}, b""
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:                  # "Content-Length: abc"
        return "BAD", target, headers, b""
    if length < 0:
        return "BAD", target, headers, b""
    if length > max_body_bytes:
        return "TOOBIG", target, headers, b""
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def handle_http_connection(reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter,
                                 route, max_body_bytes: int,
                                 tasks: set) -> None:
    """Serve HTTP/1.1 requests on one connection until it closes.

    The shared per-connection loop of the serving front ends: ``route`` is
    an async callable ``(method, path, headers, body) -> (status, payload,
    content_type[, extra_headers])`` (:meth:`InferenceServer._route` or the
    router's), ``max_body_bytes`` bounds request bodies, and the connection
    task registers itself in ``tasks`` so shutdown can cancel idle
    keep-alive connections.  ``reader``/``writer`` are the connection's
    asyncio streams.
    """
    task = asyncio.current_task()
    if task is not None:
        tasks.add(task)
    try:
        while True:
            request = await read_http_request(reader, max_body_bytes)
            if request is None:
                break
            method, path, headers, body = request
            try:
                result = await route(method, path, headers, body)
            except Exception as error:   # pragma: no cover - defensive
                result = (500, {"error": "internal", "detail": repr(error)},
                          "application/json")
            status, payload, content_type = result[:3]
            extra_headers = result[3] if len(result) > 3 else None
            # A malformed request line or an unread oversized body
            # poisons the stream; close instead of parsing garbage.
            keep_alive = (headers.get("connection", "").lower() != "close"
                          and method not in ("BAD", "TOOBIG"))
            writer.write(_render_response(status, payload, content_type,
                                          keep_alive,
                                          extra_headers=extra_headers))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionResetError, asyncio.IncompleteReadError,
            asyncio.CancelledError):
        pass
    finally:
        if task is not None:
            tasks.discard(task)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):  # pragma: no cover - teardown
            pass


#: loop iterations a shutdown step waits for asyncio's connection set-up
#: to settle.  A connection's handler registers three iterations after
#: accept() (transport creation, ``connection_made``, the task's first
#: step); the rest is margin.
_SETTLE_ITERATIONS = 8


async def close_and_drain(server: asyncio.AbstractServer, tasks: set,
                          inflight, drain_timeout_s: float) -> None:
    """Close ``server`` and drain its connections: the shared shutdown path.

    ``tasks`` is the connection-handler set :func:`handle_http_connection`
    maintains, ``inflight`` a callable returning the number of requests
    still being served, and ``drain_timeout_s`` bounds the wait for them.

    1. Stop accepting, let already-accepted sockets become transports, then
       close the listener.  Python 3.11's ``Server`` refuses to attach a
       transport once closed, so a socket accepted in the iteration before
       ``close()`` would otherwise stay open with no handler and its client
       would hang.
    2. Give in-flight requests up to ``drain_timeout_s`` to finish.
    3. Cancel connection handlers (idle keep-alive connections and any
       request that outlived the drain window) until the set stays empty,
       re-checking after every ``await``: a handler registers a few
       iterations after its accept, so one snapshot can miss it.  A
       cancelled handler closes its connection, so its client sees EOF.
    """
    loop = asyncio.get_running_loop()
    for sock in server.sockets:
        loop.remove_reader(sock.fileno())
    for _ in range(_SETTLE_ITERATIONS):
        await asyncio.sleep(0)
    server.close()
    deadline = time.perf_counter() + drain_timeout_s
    while inflight() > 0 and time.perf_counter() < deadline:
        await asyncio.sleep(0.005)
    quiet = 0
    while quiet < _SETTLE_ITERATIONS:
        if tasks:
            quiet = 0
            pending = list(tasks)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        else:
            quiet += 1
            await asyncio.sleep(0)
    # Python 3.12 made wait_closed() wait for open *client* connections
    # too; a keep-alive client that never disconnects must not hold
    # shutdown hostage, so the wait is bounded.
    try:
        await asyncio.wait_for(server.wait_closed(), timeout=1.0)
    except asyncio.TimeoutError:        # pragma: no cover - timing
        pass


def encode_rows(rows: np.ndarray) -> list:
    """Base64-encode each float32 row of ``rows`` for bit-exact transport.

    JSON numbers cannot carry NaN payloads (and text round-trips are where
    bit-identity guarantees go to die), so output rows travel as base64 of
    their raw little-endian float32 bytes.  Each row is encoded from a
    memoryview slice of the output buffer itself — ``b64encode`` accepts
    buffers, so no per-row ``tobytes`` copy is taken; the engine's output
    is already float32-contiguous on the hot path, making the wire encode
    a single pass over the buffer.  Returns a list of ASCII strings, one
    per row.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float32)
    if rows.size == 0:
        return ["" for _ in range(len(rows))]
    flat = memoryview(rows).cast("B")
    row_nbytes = rows.itemsize * int(np.prod(rows.shape[1:]))
    return [base64.b64encode(
                flat[start:start + row_nbytes]).decode("ascii")
            for start in range(0, len(rows) * row_nbytes, row_nbytes)]


def decode_rows(encoded: list) -> np.ndarray:
    """Decode :func:`encode_rows` output back into a float32 array.

    ``encoded`` is the ``outputs_b64`` list of a predict response.  Returns
    the stacked rows as a ``(len(encoded), num_classes)`` float32 array,
    bit-identical to the array the server encoded.
    """
    rows = [np.frombuffer(base64.b64decode(item), dtype=np.float32)
            for item in encoded]
    return np.stack(rows) if rows else np.empty((0, 0), dtype=np.float32)


class InferenceServer:
    """Asyncio HTTP front end serving a :class:`ServingGateway`.

    Parameters
    ----------
    gateway:
        The gateway whose endpoints this server exposes.  Its telemetry
        object also receives the server's shed/expired counts, so one
        ``/metrics`` scrape shows traffic, admission and cache behaviour
        together.
    config:
        A :class:`ServerConfig`; defaults apply when omitted.
    """

    def __init__(self, gateway: ServingGateway,
                 config: Optional[ServerConfig] = None):
        if not gateway.config.auto_flush:
            raise ValueError(
                "InferenceServer needs a gateway with auto_flush=True: the "
                "event loop only enqueues requests, so the batcher's worker "
                "thread must dispatch them")
        self.gateway = gateway
        self.config = config or ServerConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connection_tasks: set = set()
        self._inflight = 0
        self._draining = False
        self._started_at: Optional[float] = None
        self.port: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start accepting connections.

        Must run on the event loop that will serve traffic.  After this
        returns, :attr:`port` holds the actually bound port (useful with
        ``port=0``).
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.perf_counter()

    async def stop(self) -> None:
        """Drain and shut down: the graceful-shutdown path.

        Stops accepting new connections, refuses new predict requests with
        ``503`` while draining, waits up to ``drain_timeout_s`` for
        in-flight requests to finish, then closes the listener.  Requests
        admitted before the drain began get their responses.
        """
        self._draining = True
        if self._server is not None:
            await close_and_drain(self._server, self._connection_tasks,
                                  lambda: self._inflight,
                                  self.config.drain_timeout_s)
            self._server = None

    @property
    def base_url(self) -> str:
        """The server's root URL (valid once :meth:`start` has run)."""
        return f"http://{self.config.host}:{self.port}"

    # -- connection handling ------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Serve HTTP/1.1 requests on one connection until it closes."""
        await handle_http_connection(reader, writer, self._route,
                                     self.config.max_body_bytes,
                                     self._connection_tasks)

    # -- routing ------------------------------------------------------------------
    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes
                     ) -> Tuple[int, object, str]:
        """Dispatch one parsed request.

        ``method``/``target``/``headers``/``body`` come from
        :meth:`_read_request`.  Returns ``(status, payload, content_type)``
        where ``payload`` is a JSON-serializable object or a plain string.
        """
        if method == "BAD":
            return 400, {"error": "malformed request line"}, "application/json"
        if method == "TOOBIG":
            return 413, {"error": "body too large"}, "application/json"
        path, _, query = target.partition("?")
        if method == "GET":
            if path == "/healthz":
                return 200, self._health(), "application/json"
            if path == "/metrics":
                if "format=json" in query:
                    snapshot = self.gateway.snapshot()
                    snapshot["server"] = self._gauges(snapshot)
                    return 200, json_safe(snapshot), "application/json"
                return 200, self.gateway.report() + "\n", "text/plain"
            if path == "/v1/models":
                models = {}
                for name in self.gateway.endpoints():
                    session = self.gateway.session_for(name)
                    network = session.network
                    models[name] = {
                        "input_shape": [int(d) for d in network.input_shape],
                        "num_classes": int(network.num_classes),
                        "execution_mode": session.mode_label(),
                    }
                return 200, {"endpoints": self.gateway.endpoints(),
                             "models": models}, "application/json"
            return 404, {"error": f"no route {path!r}"}, "application/json"
        if method != "POST":
            return 405, {"error": f"method {method} not allowed"}, \
                "application/json"
        if path.startswith("/v1/models/") and path.endswith(":predict"):
            name = path[len("/v1/models/"):-len(":predict")]
            return await self._predict(name, headers, body)
        return 404, {"error": f"no route {path!r}"}, "application/json"

    def _gauges(self, snapshot: Dict) -> Dict:
        """Live admission-state gauges for ``/metrics?format=json``.

        ``snapshot`` is the gateway telemetry snapshot being served (its
        per-model ``shed``/``expired`` counters are summed here).  These
        are the balancer's inputs: a router polling a replica needs the
        *live* in-flight queue depth — not just the static
        ``max_queue_depth`` limit ``/healthz`` reports — plus the shed and
        expired totals whose deltas reveal a replica that is refusing or
        expiring work.  Returns the JSON-safe gauge dict.
        """
        models = snapshot.get("models", {})
        return {
            "inflight": self._inflight,
            "max_queue_depth": self.config.max_queue_depth,
            "queue_free": max(self.config.max_queue_depth - self._inflight, 0),
            "draining": self._draining,
            "shed_total": sum(m.get("shed", 0) for m in models.values()),
            "expired_total": sum(m.get("expired", 0) for m in models.values()),
        }

    def _health(self) -> Dict:
        """The ``/healthz`` payload: liveness plus admission state.

        Returns a JSON-serializable dict with the serving status
        (``ok``/``draining``), endpoint names, in-flight request count and
        the admission limit.
        """
        return {
            "status": "draining" if self._draining else "ok",
            "endpoints": self.gateway.endpoints(),
            "inflight": self._inflight,
            "max_queue_depth": self.config.max_queue_depth,
            "uptime_s": (time.perf_counter() - self._started_at
                         if self._started_at is not None else 0.0),
        }

    # -- the predict path ---------------------------------------------------------
    async def _predict(self, name: str, headers: Dict[str, str],
                       body: bytes) -> Tuple[int, Dict, str]:
        """Admit, dispatch and answer one predict request for endpoint ``name``.

        ``headers`` may carry ``x-deadline-ms``; ``body`` is the JSON
        request.  Returns the ``(status, payload, content_type)`` triple:
        ``200`` with encoded rows, ``429`` when shed, ``503`` while
        draining, ``504`` past deadline, ``400``/``404`` on bad input.
        """
        telemetry = self.gateway.telemetry
        if name not in self.gateway.endpoints():
            return 404, {"error": f"no endpoint {name!r}",
                         "endpoints": self.gateway.endpoints()}, \
                "application/json"
        # -- admission control: bounded queue depth -------------------------------
        if self._draining:
            telemetry.record_shed(name)
            return 503, {"error": "draining"}, "application/json"
        if self._inflight >= self.config.max_queue_depth:
            telemetry.record_shed(name)
            return 429, {"error": "shed", "inflight": self._inflight,
                         "max_queue_depth": self.config.max_queue_depth}, \
                "application/json"
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as error:
            return 400, {"error": f"bad JSON body: {error}"}, "application/json"
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}, \
                "application/json"
        if "sample" in payload:
            raw, single = [payload["sample"]], True
        elif "inputs" in payload:
            raw, single = payload["inputs"], False
        else:
            return 400, {"error": "body needs 'sample' or 'inputs'"}, \
                "application/json"
        expected = tuple(self.gateway.session_for(name).network.input_shape)
        try:
            inputs = np.asarray(raw, dtype=np.float32)
        except (TypeError, ValueError) as error:
            return 400, {"error": f"bad input array: {error}"}, \
                "application/json"
        if inputs.shape[1:] != expected or inputs.ndim < 1 or not len(inputs):
            return 400, {"error": f"inputs must have shape (n,) + {expected},"
                                  f" got {inputs.shape}"}, "application/json"

        deadline_ms = payload.get("deadline_ms",
                                  headers.get("x-deadline-ms",
                                              self.config.default_deadline_ms))
        admitted_at = time.perf_counter()
        deadline = (admitted_at + float(deadline_ms) / 1e3
                    if deadline_ms is not None else None)

        self._inflight += 1
        try:
            loop = asyncio.get_running_loop()
            pending = [self.gateway.submit(name, sample, deadline=deadline)
                       for sample in inputs]
            futures = [asyncio.wrap_future(future, loop=loop)
                       for future in pending]
            gathered = asyncio.gather(*futures)
            try:
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    rows = await asyncio.wait_for(gathered, max(remaining, 0.0))
                else:
                    rows = await gathered
            except asyncio.TimeoutError:
                # The batcher is the authority on requests it *claimed*
                # (it counts the ones it drops at dispatch); the server
                # counts only samples it cancels un-dispatched here, so one
                # late request can never be double-counted as expired.
                cancelled = [future.cancel() for future in pending]
                if any(cancelled):
                    telemetry.record_expired(name)
                return 504, {"error": "deadline",
                             "deadline_ms": float(deadline_ms)}, \
                    "application/json"
            except DeadlineExceeded as error:
                # Dropped by the batcher at dispatch time (already counted).
                gathered.exception()        # retrieve, silencing the logger
                return 504, {"error": "deadline", "detail": str(error),
                             "deadline_ms": float(deadline_ms)}, \
                    "application/json"
        finally:
            self._inflight -= 1
        outputs = np.stack(rows)
        response = {
            "model": name,
            "rows": int(len(outputs)),
            "argmax": [int(i) for i in np.argmax(outputs, axis=1)],
            "outputs_b64": encode_rows(outputs),
            "dtype": "float32",
            "latency_ms": (time.perf_counter() - admitted_at) * 1e3,
        }
        if single:
            response["argmax"] = response["argmax"][0]
        return 200, response, "application/json"


def _render_response(status: int, payload, content_type: str,
                     keep_alive: bool,
                     extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    """Serialize one HTTP/1.1 response.

    ``payload`` is JSON-encoded unless it is already a string (UTF-8) or raw
    ``bytes`` (passed through untouched — the router proxies replica bodies
    this way without re-encoding); ``status``, ``content_type`` and
    ``keep_alive`` fill the status line and headers, and ``extra_headers``
    appends additional response headers (e.g. the router's
    ``X-Repro-Replica``).  Returns the response bytes ready for the socket.
    """
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = json.dumps(payload).encode("utf-8")
    extras = "".join(f"{name}: {value}\r\n"
                     for name, value in (extra_headers or {}).items())
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extras}"
            "\r\n")
    return head.encode("latin-1") + body


class ServerHandle:
    """A running server on a background thread, with a blocking stop.

    Produced by :func:`run_in_thread` (and :func:`serve_in_thread`); tests,
    benchmarks and the load generator use it to stand a real HTTP front end
    up around an in-process gateway or a router tier.  ``server`` is the
    served object (anything with async ``stop()`` plus ``base_url``/``port``),
    ``loop`` its event loop and ``thread`` the thread running that loop.
    The loop runs on a daemon thread; :meth:`stop` drains the server, stops
    the loop and joins the thread.
    """

    def __init__(self, server, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def base_url(self) -> str:
        """Root URL of the running server."""
        return self.server.base_url

    @property
    def port(self) -> int:
        """The actually bound port (ephemeral ports resolved)."""
        return int(self.server.port)

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully drain the server and join its thread.

        ``timeout`` bounds the wait for the drain + join.  Safe to call
        twice.  Returns after the loop thread has exited.
        """
        if self._loop.is_closed():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop).result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_thread(server, thread_name: str = "repro-http-server"
                  ) -> ServerHandle:
    """Run any async server on a fresh background event loop.

    ``server`` is any object with ``async start()`` / ``async stop()``
    coroutine methods and ``base_url``/``port`` attributes valid after
    ``start`` — an :class:`InferenceServer` or a
    :class:`repro.serve.router.RouterServer`; ``thread_name`` labels the
    loop thread.  Blocks until ``start`` has completed (socket bound).
    Returns a :class:`ServerHandle` wrapping the running server.
    """
    started = threading.Event()
    state: Dict[str, object] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        state["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except Exception as error:       # surface bind failures to the caller
            state["error"] = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=run, name=thread_name, daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("HTTP server failed to start within 30 s")
    error = state.get("error")
    if error is not None:
        raise RuntimeError(f"HTTP server failed to start: {error!r}")
    return ServerHandle(server, state["loop"], thread)


def serve_in_thread(gateway: ServingGateway,
                    config: Optional[ServerConfig] = None) -> ServerHandle:
    """Start an :class:`InferenceServer` on a fresh background event loop.

    ``gateway`` supplies the endpoints; ``config`` the socket and admission
    knobs (an ephemeral port by default, so parallel test runs never
    collide).  Blocks until the socket is bound.  Returns a
    :class:`ServerHandle` whose ``base_url`` is ready for traffic.
    """
    return run_in_thread(InferenceServer(gateway, config))
