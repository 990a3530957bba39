"""Routing front end fanning traffic across N serving replicas.

:class:`RouterServer` is the scale-out tier above
:class:`~repro.serve.server.InferenceServer`: one asyncio HTTP front end
that proxies predict traffic across replicas — local processes spawned by a
:class:`~repro.serve.replica.ReplicaManager` (all adopting one
shared-memory plan export, so they serve the *same* corrupted store
bit-for-bit) or remote servers addressed by URL.

Routing policy
--------------
Requests carrying an ``X-Affinity-Key`` header are routed by consistent
hashing (:class:`HashRing`, SHA-1 over virtual nodes): the same key lands
on the same replica while it is healthy, which is what session- or
cache-affine traffic wants, and replica churn only remaps the keys that
hashed to the departed node.  Keyless requests go to the least-loaded
replica (router-tracked in-flight count, round-robin tie-break) — live
balancing rather than blind round-robin.  Both paths are
*backpressure-aware*: the router polls each replica's
``/metrics?format=json`` gauges (live in-flight depth, shed/expired
totals — the satellite counters :meth:`InferenceServer._gauges` exposes)
and spills past replicas whose queues are nearly full
(``spill_load``), and a replica answering ``429``/``503`` mid-request is
skipped in favour of the next candidate.

Failure handling
----------------
A health loop probes every replica each ``health_interval_s``.
``fail_after`` consecutive failures (probe or in-request connection
errors) evict the replica from the ring; a local replica whose process
died is respawned through the manager and rejoins only after its probes
pass (health-gated rejoin).  Graceful maintenance is drain-then-rejoin: a
draining replica sheds with ``503`` (which the router spills around) while
finishing its admitted requests, and rejoins the ring when probes see it
healthy again.  Every proxied response carries ``X-Repro-Replica`` naming
the replica that served it, so affinity and failover are observable from
the client side.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.serve.replica import LocalReplica, ReplicaManager
from repro.serve.server import (
    ServerHandle,
    close_and_drain,
    handle_http_connection,
    json_safe,
    run_in_thread,
)

#: request headers the router forwards to replicas.
_FORWARDED_HEADERS = ("content-type", "x-deadline-ms", "x-affinity-key")


@dataclass
class RouterConfig:
    """Tuning knobs of a :class:`RouterServer`.

    ``host``/``port`` select the listening socket (``port=0`` binds an
    ephemeral port); ``vnodes`` is the virtual-node count per replica on
    the consistent-hash ring (more vnodes = smoother key spread);
    ``health_interval_s`` is the probe period; ``fail_after`` the
    consecutive-failure count that evicts a replica; ``spill_load`` the
    queue-fullness fraction (0..1) beyond which affine traffic spills to
    the next ring candidate; ``retries`` bounds how many replicas one
    request may be attempted on; ``connect_timeout_s`` /
    ``request_timeout_s`` bound each proxied exchange;
    ``max_body_bytes`` rejects oversized request bodies with ``413``; and
    ``drain_timeout_s`` bounds how long :meth:`RouterServer.stop` waits
    for in-flight proxied requests.
    """

    host: str = "127.0.0.1"
    port: int = 0
    vnodes: int = 64
    health_interval_s: float = 0.25
    fail_after: int = 3
    spill_load: float = 0.75
    retries: int = 4
    connect_timeout_s: float = 5.0
    request_timeout_s: float = 120.0
    max_body_bytes: int = 16 * 2**20
    drain_timeout_s: float = 10.0


def _ring_hash(value: str) -> int:
    """Map ``value`` onto the hash ring (first 8 bytes of SHA-1).

    Returns the position as an unsigned 64-bit integer.  SHA-1 rather than
    ``hash()`` so ring placement is stable across processes and runs
    (``PYTHONHASHSEED`` never reshuffles affinity).
    """
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring of replica names with virtual nodes.

    ``vnodes`` virtual nodes per replica smooth the key distribution, so
    adding or removing one replica only remaps the keys that hashed to its
    arc — the property that keeps session/cache affinity stable under
    replica churn.
    """

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._points: List[Tuple[int, str]] = []
        self._nodes: set = set()

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Place ``node``'s virtual nodes on the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            bisect.insort(self._points, (_ring_hash(f"{node}#{i}"), node))

    def remove(self, node: str) -> None:
        """Take ``node`` off the ring (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]

    def ordered(self, key: str) -> List[str]:
        """Replica preference order for ``key``: clockwise from its hash.

        Returns every distinct node once, nearest arc first — the spill
        order the router walks when the primary replica is loaded or
        failing.  Empty when the ring is empty.
        """
        if not self._points:
            return []
        start = bisect.bisect_right(self._points, (_ring_hash(key),))
        order: List[str] = []
        seen: set = set()
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == len(self._nodes):
                    break
        return order


class ReplicaState:
    """The router's live view of one replica.

    ``name`` identifies the replica on the ring, ``host``/``port`` its
    address and ``local`` the managed :class:`LocalReplica` process when
    the router spawned it (``None`` for URL replicas).  The mutable fields
    track what routing needs: ``healthy``/``joined`` (eviction and
    ring membership), ``failures`` (consecutive probe/connect failures),
    ``inflight`` (router-side live proxied requests), ``gauges`` (the last
    polled ``/metrics`` server gauges) and ``routed`` (requests served).
    """

    __slots__ = ("name", "host", "port", "local", "healthy", "joined",
                 "failures", "inflight", "gauges", "routed")

    def __init__(self, name: str, host: str, port: int,
                 local: Optional[LocalReplica] = None):
        self.name = name
        self.host = host
        self.port = int(port)
        self.local = local
        self.healthy = False
        self.joined = False
        self.failures = 0
        self.inflight = 0
        self.gauges: Dict = {}
        self.routed = 0

    @property
    def url(self) -> str:
        """The replica's base URL."""
        return f"http://{self.host}:{self.port}"

    def load(self) -> float:
        """Estimated queue fullness in ``[0, 1+]`` — the spill signal.

        The numerator is the larger of the router's own live in-flight
        count and the replica's last *polled* in-flight gauge (the poll can
        lag, the router's counter cannot; other routers' traffic shows up
        only in the gauge — taking the max never undercounts on either
        side).  The denominator is the replica's advertised
        ``max_queue_depth``.  Returns the fraction (0 when never polled
        and idle).
        """
        depth = max(int(self.gauges.get("max_queue_depth", 64)), 1)
        live = max(self.inflight, int(self.gauges.get("inflight", 0)))
        return live / depth

    def snapshot(self) -> Dict:
        """Return the JSON-safe state for the router's ``/metrics`` payload."""
        return {
            "url": self.url,
            "local": self.local is not None,
            "healthy": self.healthy,
            "joined": self.joined,
            "failures": self.failures,
            "inflight": self.inflight,
            "routed": self.routed,
            "load": self.load(),
            "gauges": dict(self.gauges),
        }


async def _read_http_response(reader: asyncio.StreamReader
                              ) -> Tuple[int, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 response from ``reader``.

    Returns ``(status, headers, body)`` with header names lower-cased;
    raises ``asyncio.IncompleteReadError`` on a connection closed
    mid-response and ``ValueError`` on malformed framing.
    """
    line = await reader.readline()
    if not line:
        raise asyncio.IncompleteReadError(b"", None)
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2:
        raise ValueError(f"malformed status line {line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class _ReplicaClient:
    """Pooled keep-alive HTTP client to one replica, on the router's loop.

    ``host``/``port`` address the replica; ``connect_timeout_s`` bounds
    dialing.  Idle connections are pooled and reused; a request that fails
    on a *reused* connection retries once on a fresh one (the stale
    keep-alive race), while a failure on a fresh connection propagates —
    that is a real connectivity signal the router's failure handling wants.
    """

    def __init__(self, host: str, port: int, connect_timeout_s: float = 5.0):
        self.host = host
        self.port = int(port)
        self.connect_timeout_s = float(connect_timeout_s)
        self._pool: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(self, method: str, target: str,
                      headers: Optional[Dict[str, str]] = None,
                      body: bytes = b"", timeout: float = 120.0
                      ) -> Tuple[int, Dict[str, str], bytes]:
        """One proxied HTTP exchange with the replica.

        ``method``/``target``/``headers``/``body`` form the request;
        ``timeout`` bounds the wait for the complete response.  Returns
        ``(status, response headers, response body)``; raises ``OSError``
        (connect/reset) or ``asyncio.TimeoutError`` on failure.
        """
        for attempt in (0, 1):
            reused = bool(self._pool)
            if reused:
                reader, writer = self._pool.pop()
            else:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.connect_timeout_s)
            lines = [f"{method} {target} HTTP/1.1",
                     f"Host: {self.host}:{self.port}",
                     f"Content-Length: {len(body)}",
                     "Connection: keep-alive"]
            for name, value in (headers or {}).items():
                lines.append(f"{name}: {value}")
            try:
                writer.write(("\r\n".join(lines) + "\r\n\r\n"
                              ).encode("latin-1") + body)
                await writer.drain()
                status, rheaders, rbody = await asyncio.wait_for(
                    _read_http_response(reader), timeout)
            except asyncio.TimeoutError:
                writer.close()
                raise
            except (OSError, asyncio.IncompleteReadError, ValueError):
                writer.close()
                if not reused:
                    raise
                continue                     # stale keep-alive: one retry
            if rheaders.get("connection", "").lower() == "close":
                writer.close()
            else:
                self._pool.append((reader, writer))
            return status, rheaders, rbody
        raise ConnectionError("unreachable")     # pragma: no cover - loop exits

    def close(self) -> None:
        """Close every pooled connection."""
        pool, self._pool = self._pool, []
        for _reader, writer in pool:
            writer.close()


class RouterServer:
    """Asyncio HTTP router balancing predict traffic across replicas.

    Parameters
    ----------
    replicas:
        The initial replica set: :class:`LocalReplica` objects (from a
        :class:`ReplicaManager`) and/or base-URL strings of remote
        servers.  Replicas join the ring once their first health probe
        passes.
    manager:
        Optional :class:`ReplicaManager`; when given, a local replica
        whose process died is respawned through it (the manager must be
        the one that spawned the local replicas, so respawns adopt the
        same plan exports).  The caller keeps ownership — the router
        never closes it.
    config:
        A :class:`RouterConfig`; defaults apply when omitted.
    """

    def __init__(self, replicas: List[Union[LocalReplica, str]],
                 manager: Optional[ReplicaManager] = None,
                 config: Optional[RouterConfig] = None):
        if not replicas:
            raise ValueError("RouterServer needs at least one replica")
        self.manager = manager
        self.config = config or RouterConfig()
        self.ring = HashRing(self.config.vnodes)
        self._states: Dict[str, ReplicaState] = {}
        self._clients: Dict[str, _ReplicaClient] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._connection_tasks: set = set()
        self._respawn_tasks: set = set()
        self._health_task: Optional[asyncio.Task] = None
        self._inflight = 0
        self._draining = False
        self._rr = 0
        self._started_at: Optional[float] = None
        self.port: Optional[int] = None
        self.stats = {"routed": 0, "spilled": 0, "connect_errors": 0,
                      "exhausted": 0, "evicted": 0, "respawned": 0}
        for replica in replicas:
            self._add_replica(replica)

    # -- replica set --------------------------------------------------------------
    def _add_replica(self, replica: Union[LocalReplica, str]) -> ReplicaState:
        """Register ``replica`` (not yet on the ring; probes join it).

        Returns the new :class:`ReplicaState`.
        """
        from urllib.parse import urlsplit

        if isinstance(replica, LocalReplica):
            state = ReplicaState(replica.name, "127.0.0.1", replica.port,
                                 local=replica)
        else:
            parts = urlsplit(replica)
            name = parts.netloc or replica
            state = ReplicaState(name, parts.hostname or "127.0.0.1",
                                 parts.port or 80)
        if state.name in self._states:
            raise ValueError(f"duplicate replica {state.name!r}")
        self._states[state.name] = state
        self._clients[state.name] = _ReplicaClient(
            state.host, state.port, self.config.connect_timeout_s)
        return state

    def _join(self, state: ReplicaState) -> None:
        """Mark ``state`` healthy and place it on the ring."""
        state.healthy = True
        state.failures = 0
        if not state.joined:
            state.joined = True
            self.ring.add(state.name)

    def _evict(self, state: ReplicaState) -> None:
        """Take ``state`` off the ring (in-flight requests finish)."""
        if state.joined:
            self.stats["evicted"] += 1
        state.healthy = False
        state.joined = False
        self.ring.remove(state.name)

    def _drop(self, state: ReplicaState) -> None:
        """Forget ``state`` entirely (a dead process being replaced)."""
        self._evict(state)
        self._states.pop(state.name, None)
        client = self._clients.pop(state.name, None)
        if client is not None:
            client.close()

    def _retire(self, state: ReplicaState) -> None:
        """Drop a dead local replica and respawn **at most once** per corpse.

        Several in-flight proxies and the health loop can all notice the
        same dead process; only the caller that finds ``state`` still
        registered schedules the replacement, so one death never spawns
        more than one successor.
        """
        registered = self._states.get(state.name) is state
        self._drop(state)
        if registered:
            self._schedule_respawn()

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        """Probe the replicas, bind the listening socket, start balancing.

        Must run on the event loop that will serve traffic.  Replicas
        whose initial probe passes join the ring immediately; the rest
        stay out until the health loop sees them answer.  After this
        returns, :attr:`port` holds the actually bound port.
        """
        for state in list(self._states.values()):
            await self._probe(state)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.perf_counter()
        self._health_task = asyncio.create_task(self._health_loop())

    async def stop(self) -> None:
        """Drain and shut down the router (replicas are left running).

        Stops health checks and the listener, waits up to
        ``drain_timeout_s`` for in-flight proxied requests, cancels idle
        connections and closes the replica connection pools.  The replica
        processes belong to their manager and are not touched.
        """
        self._draining = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for task in list(self._respawn_tasks):
            task.cancel()
        if self._respawn_tasks:
            await asyncio.gather(*self._respawn_tasks, return_exceptions=True)
        if self._server is not None:
            await close_and_drain(self._server, self._connection_tasks,
                                  lambda: self._inflight,
                                  self.config.drain_timeout_s)
            self._server = None
        for client in self._clients.values():
            client.close()

    @property
    def base_url(self) -> str:
        """The router's root URL (valid once :meth:`start` has run)."""
        return f"http://{self.config.host}:{self.port}"

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Serve HTTP/1.1 requests on one client connection."""
        await handle_http_connection(reader, writer, self._route,
                                     self.config.max_body_bytes,
                                     self._connection_tasks)

    # -- health -------------------------------------------------------------------
    async def _health_loop(self) -> None:
        """Probe every replica each ``health_interval_s`` until stopped.

        The ``_draining`` check backstops task cancellation: on Python
        3.11 a cancel that lands exactly as an inner ``wait_for`` resolves
        can be swallowed, which would leave this loop running forever and
        deadlock :meth:`stop` — the flag bounds that race to one more
        iteration.
        """
        while not self._draining:
            await asyncio.sleep(self.config.health_interval_s)
            if self._draining:
                break
            for state in list(self._states.values()):
                await self._probe(state)

    async def _probe(self, state: ReplicaState) -> None:
        """One health check of ``state``: poll gauges, evict, respawn.

        A dead local process is dropped and respawned through the manager
        right away (no point probing a corpse); otherwise the replica's
        ``/metrics?format=json`` is polled — success refreshes the gauges
        and (re)joins the ring, ``fail_after`` consecutive failures evict.
        """
        if state.local is not None and not state.local.alive():
            self._retire(state)
            return
        client = self._clients.get(state.name)
        if client is None:                   # pragma: no cover - dropped race
            return
        try:
            status, _headers, body = await client.request(
                "GET", "/metrics?format=json", timeout=5.0)
            payload = json.loads(body.decode("utf-8"))
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError):
            self._note_failure(state)
            return
        if status != 200 or not isinstance(payload, dict):
            self._note_failure(state)
            return
        state.gauges = dict(payload.get("server", {}))
        if state.gauges.get("draining"):
            # Drain-then-rejoin: a draining replica finishes its admitted
            # requests but must stop receiving new ones.
            self._evict(state)
            state.failures = 0
            return
        self._join(state)

    def _note_failure(self, state: ReplicaState) -> None:
        """Count one failure against ``state``; evict at ``fail_after``."""
        state.failures += 1
        if state.failures >= self.config.fail_after and state.joined:
            self._evict(state)

    def _schedule_respawn(self) -> None:
        """Respawn one local replica through the manager, asynchronously."""
        if self.manager is None or self._draining:
            return
        task = asyncio.create_task(self._respawn())
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self) -> None:
        """Spawn a replacement replica and register it (joins via probes)."""
        loop = asyncio.get_running_loop()
        try:
            replica = await loop.run_in_executor(None, self.manager.spawn)
        except RuntimeError:                 # pragma: no cover - spawn failed
            return
        self.stats["respawned"] += 1
        state = self._add_replica(replica)
        await self._probe(state)

    # -- routing ------------------------------------------------------------------
    def _candidates(self, key: Optional[str]) -> List[ReplicaState]:
        """Replica attempt order for one request.

        ``key`` is the affinity key (``None`` for keyless traffic).  Keyed
        requests walk the consistent-hash ring from the key's position,
        but candidates at or above ``spill_load`` queue fullness are
        deferred behind unloaded ones (backpressure-aware spill; relative
        order is otherwise preserved, so the spilled-to replica is the
        key's next arc neighbour).  Keyless requests are ordered by live
        router-side load with a rotating tie-break.  Returns the healthy
        candidates, best first.
        """
        states = [s for s in self._states.values() if s.joined]
        if not states:
            return []
        if key is not None:
            order = [self._states[name] for name in self.ring.ordered(key)
                     if name in self._states]
            fresh = [s for s in order if s.load() < self.config.spill_load]
            loaded = [s for s in order if s.load() >= self.config.spill_load]
            return fresh + loaded
        self._rr += 1
        rotation = self._rr
        return sorted(
            states,
            key=lambda s, n=len(states): (s.inflight,
                                          (s.port + rotation) % max(n, 1)))

    async def _proxy(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes,
                     key: Optional[str]) -> Tuple[int, bytes, str, Dict]:
        """Proxy one request to the best replica, retrying across the set.

        ``method``/``target``/``headers``/``body`` form the client
        request and ``key`` its affinity key (``None`` when keyless).
        Connection failures count against the replica's health and move on
        to the next candidate, as do ``429``/``503`` backpressure answers
        (spill); at most ``retries`` replicas are attempted.  Returns the
        ``(status, raw body, content type, extra headers)`` quadruple —
        the body passes through as received, and ``X-Repro-Replica`` names
        the serving replica.
        """
        candidates = self._candidates(key)
        if not candidates:
            return (503, json.dumps({"error": "no healthy replicas"}
                                    ).encode("utf-8"),
                    "application/json", {})
        forward = {name: headers[name] for name in _FORWARDED_HEADERS
                   if name in headers}
        last: Optional[Tuple[int, bytes, str, Dict]] = None
        for state in candidates[:max(self.config.retries, 1)]:
            client = self._clients.get(state.name)
            if client is None:               # pragma: no cover - dropped race
                continue
            state.inflight += 1
            try:
                status, rheaders, rbody = await client.request(
                    method, target, forward, body,
                    timeout=self.config.request_timeout_s)
            except (OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                self.stats["connect_errors"] += 1
                self._note_failure(state)
                if state.local is not None and not state.local.alive():
                    self._retire(state)
                continue
            finally:
                state.inflight -= 1
            state.failures = 0
            content_type = rheaders.get("content-type", "application/json")
            extra = {"X-Repro-Replica": state.name}
            if status in (429, 503):
                self.stats["spilled"] += 1
                last = (status, rbody, content_type, extra)
                continue
            state.routed += 1
            self.stats["routed"] += 1
            return status, rbody, content_type, extra
        self.stats["exhausted"] += 1
        return last or (503,
                        json.dumps({"error": "all replicas failed"}
                                   ).encode("utf-8"),
                        "application/json", {})

    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes):
        """Dispatch one parsed client request.

        ``method``/``target``/``headers``/``body`` come from the shared
        request parser.  Router-owned routes (``/healthz``, ``/metrics``)
        are answered locally; predict and model-listing traffic is proxied.
        Returns a ``(status, payload, content_type[, extra_headers])``
        tuple for :func:`repro.serve.server.handle_http_connection`.
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
                    return 200, json_safe(self._metrics()), "application/json"
                return 200, self._metrics_text(), "text/plain"
            if path == "/v1/models":
                if self._draining:
                    return 503, {"error": "draining"}, "application/json"
                return await self._proxy(method, target, headers, body, None)
            return 404, {"error": f"no route {path!r}"}, "application/json"
        if method != "POST":
            return 405, {"error": f"method {method} not allowed"}, \
                "application/json"
        if path.startswith("/v1/models/") and path.endswith(":predict"):
            if self._draining:
                return 503, {"error": "draining"}, "application/json"
            self._inflight += 1
            try:
                return await self._proxy(method, target, headers, body,
                                         headers.get("x-affinity-key"))
            finally:
                self._inflight -= 1
        return 404, {"error": f"no route {path!r}"}, "application/json"

    # -- introspection ------------------------------------------------------------
    def _health(self) -> Dict:
        """The router's ``/healthz`` payload: liveness plus the replica set.

        Returns a JSON-serializable dict with the routing status, the
        per-replica health/ring membership, and the in-flight count.
        """
        return {
            "status": "draining" if self._draining else "ok",
            "role": "router",
            "inflight": self._inflight,
            "ring_size": len(self.ring),
            "replicas": {name: {"url": state.url, "healthy": state.healthy,
                                "joined": state.joined,
                                "inflight": state.inflight}
                         for name, state in sorted(self._states.items())},
            "uptime_s": (time.perf_counter() - self._started_at
                         if self._started_at is not None else 0.0),
        }

    def _metrics(self) -> Dict:
        """The ``/metrics?format=json`` payload: counters and replica gauges.

        Returns the router counters (routed/spilled/evicted/respawned…)
        plus each replica's :meth:`ReplicaState.snapshot`.
        """
        return {
            "router": dict(self.stats, inflight=self._inflight,
                           ring_size=len(self.ring)),
            "replicas": {name: state.snapshot()
                         for name, state in sorted(self._states.items())},
        }

    def _metrics_text(self) -> str:
        """Plain-text rendering of :meth:`_metrics` for ``/metrics``."""
        payload = self._metrics()
        lines = ["== router =="]
        lines.extend(f"{key:>16}: {value}"
                     for key, value in sorted(payload["router"].items()))
        for name, replica in payload["replicas"].items():
            lines.append(f"-- {name} ({replica['url']}) --")
            lines.extend(f"{key:>16}: {replica[key]}"
                         for key in ("healthy", "joined", "inflight",
                                     "routed", "load", "failures"))
        return "\n".join(lines) + "\n"


def route_in_thread(replicas: List[Union[LocalReplica, str]],
                    manager: Optional[ReplicaManager] = None,
                    config: Optional[RouterConfig] = None) -> ServerHandle:
    """Start a :class:`RouterServer` on a fresh background event loop.

    ``replicas``, ``manager`` and ``config`` are forwarded to the
    :class:`RouterServer` constructor.  Blocks until the router has probed
    the replicas and bound its socket.  Returns a
    :class:`~repro.serve.server.ServerHandle` whose ``base_url`` is ready
    for traffic.
    """
    return run_in_thread(RouterServer(replicas, manager, config),
                         thread_name="repro-http-router")
