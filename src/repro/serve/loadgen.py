"""Deterministic load generation against the serving stack.

The serving front end is only trustworthy under traffic, so this module is
the traffic rig: seeded, reproducible clients that drive either the HTTP
server (:class:`HttpTarget`) or a gateway directly in process
(:class:`GatewayTarget`), plus the canonical traffic scenarios every
serving PR can reuse:

* **steady** — closed-loop: ``concurrency`` workers each keep exactly one
  request in flight, covering every sample once.  The bit-identity
  scenario: all requests are admitted (load never exceeds the worker
  count), so the full response set can be compared byte-for-byte against
  serial in-process ``session.predict``.
* **burst** — ``burst_size`` requests released simultaneously (barrier
  start).  Sized above the server's ``max_queue_depth`` it demonstrates
  admission control: some requests are shed with ``429`` while every
  admitted response stays bit-correct.
* **ramp** — open-loop Poisson arrivals whose rate climbs across segments.
* **open-loop** — Poisson arrivals at a fixed rate.
* **mix** — closed-loop traffic spread over several endpoints by a seeded
  categorical draw.

Determinism policy: all randomness (arrival schedules, endpoint mixes)
comes from a seeded :class:`numpy.random.Generator`, so a scenario's
*request plan* is a pure function of its arguments.  What the *server*
does under that plan (which exact burst requests shed) depends on real
concurrency, so assertions built on these results must only use
schedule-determined facts (the plan) and outcome aggregates with
deterministic bounds (e.g. ``shed > 0`` when a burst exceeds the queue
depth by a wide margin, bit-identity of every admitted row).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, Dict, List, Optional
from urllib.parse import urlsplit

import numpy as np

from repro.engine.session import DeadlineExceeded
from repro.serve.server import decode_rows
from repro.serve.telemetry import percentile


class RequestRecord:
    """Outcome of one generated request.

    ``index`` is the request's position in the scenario plan, ``endpoint``
    the model it targeted, ``status`` the (HTTP or synthesized) status code,
    ``latency_s`` the client-observed latency, ``row`` the decoded output
    row for successful requests (``None`` otherwise), ``error`` a short
    diagnostic for failures and ``replica`` the serving replica's name when
    the response came through the router tier (``X-Repro-Replica``).
    """

    __slots__ = ("index", "endpoint", "status", "latency_s", "row", "error",
                 "replica")

    def __init__(self, index: int, endpoint: str, status: int,
                 latency_s: float, row: Optional[np.ndarray] = None,
                 error: str = "", replica: Optional[str] = None):
        self.index = index
        self.endpoint = endpoint
        self.status = status
        self.latency_s = latency_s
        self.row = row
        self.error = error
        self.replica = replica

    @property
    def ok(self) -> bool:
        """Whether the request was served successfully (status 200)."""
        return self.status == 200

    @property
    def shed(self) -> bool:
        """Whether admission control refused the request (429 or 503)."""
        return self.status in (429, 503)

    @property
    def expired(self) -> bool:
        """Whether the request missed its deadline (504)."""
        return self.status == 504


class LoadResult:
    """A scenario's complete, machine-readable outcome.

    ``scenario`` names the traffic pattern, ``records`` holds one
    :class:`RequestRecord` per generated request (in plan order),
    ``duration_s`` is the wall clock of the whole run and ``meta`` carries
    the scenario parameters (all JSON-safe).
    """

    def __init__(self, scenario: str, records: List[RequestRecord],
                 duration_s: float, meta: Optional[Dict] = None):
        self.scenario = scenario
        self.records = sorted(records, key=lambda r: r.index)
        self.duration_s = float(duration_s)
        self.meta = dict(meta or {})

    # -- aggregates ---------------------------------------------------------------
    @property
    def sent(self) -> int:
        """Total requests the scenario generated."""
        return len(self.records)

    @property
    def ok(self) -> int:
        """Requests answered 200."""
        return sum(1 for r in self.records if r.ok)

    @property
    def shed(self) -> int:
        """Requests refused by admission control (429/503)."""
        return sum(1 for r in self.records if r.shed)

    @property
    def expired(self) -> int:
        """Requests that missed their deadline (504)."""
        return sum(1 for r in self.records if r.expired)

    @property
    def errors(self) -> int:
        """Requests that failed any other way."""
        return sum(1 for r in self.records
                   if not (r.ok or r.shed or r.expired))

    def ok_rows(self) -> Dict[int, np.ndarray]:
        """Decoded output rows of the successful requests, keyed by index.

        Returns a dict mapping plan index to the float32 output row — the
        raw material of the bit-identity checks.
        """
        return {r.index: r.row for r in self.records if r.ok}

    def stacked_rows(self) -> np.ndarray:
        """Stack every successful row in plan order.

        Only meaningful when *all* requests succeeded (steady scenario);
        raises ``ValueError`` otherwise so a silent partial comparison can
        never masquerade as a passing bit-identity check.  Returns the
        ``(sent, num_classes)`` float32 array.
        """
        if self.ok != self.sent:
            raise ValueError(
                f"stacked_rows() needs every request served; "
                f"{self.sent - self.ok} of {self.sent} were not")
        return np.stack([r.row for r in self.records])

    def status_counts(self) -> Dict[str, int]:
        """Histogram of response statuses, keyed by the status code as text.

        Returns e.g. ``{"200": 250, "429": 6}`` — what :meth:`to_record`
        persists instead of the raw per-request list (hundreds of repeated
        ``200`` entries bloating every ``BENCH_*.json``); assertions that
        need plan-order statuses read ``records`` directly.
        """
        counts: Dict[str, int] = {}
        for record in self.records:
            key = str(record.status)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def replica_counts(self) -> Dict[str, int]:
        """Requests served per replica (router runs; empty otherwise).

        Returns a histogram of :attr:`RequestRecord.replica` over the
        records that carried one — how ``bench_router`` shows the balancer
        actually spread traffic.
        """
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.replica is not None:
                counts[record.replica] = counts.get(record.replica, 0) + 1
        return counts

    def to_record(self) -> Dict:
        """Summarize the run as a JSON-serializable dict.

        Returns scenario name and parameters, outcome counters, duration,
        achieved request rate, client-side latency percentiles over the
        successful requests, and the status histogram (raw per-request
        statuses stay on :attr:`records`) — everything
        ``benchmarks/bench_server.py`` persists.
        """
        latencies = [r.latency_s for r in self.records if r.ok]
        return {
            "scenario": self.scenario,
            "meta": self.meta,
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "expired": self.expired,
            "errors": self.errors,
            "duration_s": self.duration_s,
            "achieved_rps": (self.sent / self.duration_s
                             if self.duration_s > 0 else float("nan")),
            "latency_ms": {
                "p50": percentile(latencies, 50) * 1e3,
                "p95": percentile(latencies, 95) * 1e3,
                "p99": percentile(latencies, 99) * 1e3,
                "mean": (sum(latencies) / len(latencies) * 1e3
                         if latencies else float("nan")),
            },
            "status_counts": self.status_counts(),
        }


# -----------------------------------------------------------------------------------
# targets
# -----------------------------------------------------------------------------------

class HttpTarget:
    """Client of an :class:`~repro.serve.server.InferenceServer`.

    One keep-alive :class:`http.client.HTTPConnection` per calling thread
    (thread-local, so closed-loop workers never share a socket).
    ``base_url`` is the server root, e.g. ``handle.base_url``.
    """

    def __init__(self, base_url: str):
        parts = urlsplit(base_url)
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self._local = threading.local()
        self._connections: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=30.0)
            self._local.connection = connection
            with self._lock:
                self._connections.append(connection)
        return connection

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None,
                 headers: Optional[Dict[str, str]] = None) -> Dict:
        """One HTTP exchange; reconnects once on a dropped keep-alive.

        ``method``/``path``/``body`` describe the request; ``headers`` are
        extra request headers.  Returns ``{"status": int, "payload": parsed
        JSON or text, "headers": response header dict (lower-cased names)}``.
        """
        sent = dict(headers or {})
        if body:
            sent.setdefault("Content-Type", "application/json")
        for attempt in (0, 1):
            connection = self._connection()
            try:
                connection.request(method, path, body=body, headers=sent)
                response = connection.getresponse()
                data = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                connection.close()
                self._local.connection = None
                if attempt:
                    raise
        try:
            payload = json.loads(data.decode("utf-8"))
        except ValueError:
            payload = data.decode("utf-8", errors="replace")
        return {"status": response.status, "payload": payload,
                "headers": {name.lower(): value
                            for name, value in response.getheaders()}}

    def predict(self, endpoint: str, sample: np.ndarray,
                deadline_ms: Optional[float] = None,
                affinity: Optional[str] = None) -> RequestRecord:
        """Issue one predict request for ``sample`` against ``endpoint``.

        ``deadline_ms`` rides in the request body when given; ``affinity``
        is sent as ``X-Affinity-Key`` so a router pins the request to the
        key's replica.  Returns a :class:`RequestRecord` (index 0 —
        scenarios re-index) carrying the status, client latency, the
        serving replica when a router reported one and, on success, the
        decoded output row.
        """
        body = {"sample": np.asarray(sample, dtype=np.float32).tolist()}
        if deadline_ms is not None:
            body["deadline_ms"] = float(deadline_ms)
        encoded = json.dumps(body).encode("utf-8")
        headers = {"X-Affinity-Key": affinity} if affinity is not None else None
        started = time.perf_counter()
        try:
            result = self._request(
                "POST", f"/v1/models/{endpoint}:predict", encoded, headers)
        except (http.client.HTTPException, ConnectionError, OSError) as error:
            return RequestRecord(0, endpoint, -1,
                                 time.perf_counter() - started,
                                 error=repr(error))
        latency = time.perf_counter() - started
        payload = result["payload"]
        row = None
        error = ""
        if result["status"] == 200:
            row = decode_rows(payload["outputs_b64"])[0]
        elif isinstance(payload, dict):
            error = str(payload.get("error", ""))
        return RequestRecord(0, endpoint, result["status"], latency, row,
                             error,
                             replica=result["headers"].get("x-repro-replica"))

    def health(self) -> Dict:
        """Fetch ``/healthz``; returns the parsed JSON payload."""
        return self._request("GET", "/healthz")["payload"]

    def models(self) -> Dict:
        """Fetch ``/v1/models``; returns endpoint names and input shapes."""
        return self._request("GET", "/v1/models")["payload"]

    def metrics(self) -> Dict:
        """Fetch ``/metrics?format=json``; returns the telemetry snapshot."""
        return self._request("GET", "/metrics?format=json")["payload"]

    def close(self) -> None:
        """Close every connection this target ever opened."""
        with self._lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()

    def __enter__(self) -> "HttpTarget":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class GatewayTarget:
    """In-process target: requests go straight into a gateway's batcher.

    No HTTP, no admission control — used by stress tests that want maximum
    pressure on the :class:`~repro.serve.MicroBatcher` /
    :class:`~repro.parallel.PlanPool` dispatch path itself.
    ``gateway`` is the :class:`~repro.serve.ServingGateway` under test.
    Statuses are synthesized to match the HTTP vocabulary (200 ok, 504
    deadline, 500 other failures).
    """

    def __init__(self, gateway):
        self.gateway = gateway

    def predict(self, endpoint: str, sample: np.ndarray,
                deadline_ms: Optional[float] = None,
                affinity: Optional[str] = None) -> RequestRecord:
        """Submit ``sample`` to ``endpoint`` and wait for its row.

        ``deadline_ms`` converts to an absolute dispatch deadline;
        ``affinity`` is accepted for interface parity with
        :class:`HttpTarget` and ignored (there is no replica set in
        process).  Returns a :class:`RequestRecord` with a synthesized
        status.
        """
        deadline = (time.perf_counter() + deadline_ms / 1e3
                    if deadline_ms is not None else None)
        started = time.perf_counter()
        try:
            future = self.gateway.submit(endpoint, sample, deadline=deadline)
            row = future.result()
        except DeadlineExceeded as error:
            return RequestRecord(0, endpoint, 504,
                                 time.perf_counter() - started,
                                 error=str(error))
        except Exception as error:
            return RequestRecord(0, endpoint, 500,
                                 time.perf_counter() - started,
                                 error=repr(error))
        return RequestRecord(0, endpoint, 200,
                             time.perf_counter() - started, row)

    def close(self) -> None:
        """Nothing to release (the caller owns the gateway)."""


# -----------------------------------------------------------------------------------
# clients
# -----------------------------------------------------------------------------------

def _run_plan(target, plan: List[Dict], *, concurrency: int,
              start_barrier: bool = False) -> List[RequestRecord]:
    """Execute a request ``plan`` with ``concurrency`` worker threads.

    Each plan entry is ``{"index", "endpoint", "sample", "deadline_ms",
    "offset_s"?, "affinity"?}``; entries with an ``offset_s`` fire no
    earlier than that offset from the run start (open-loop pacing), others
    fire as soon as a worker is free (closed-loop); an ``affinity`` key
    rides on the request (router traffic pinning).  ``start_barrier=True`` lines every
    worker up on a barrier first (burst traffic).  Returns one
    :class:`RequestRecord` per entry.
    """
    queue_lock = threading.Lock()
    cursor = {"next": 0}
    records: List[Optional[RequestRecord]] = [None] * len(plan)
    barrier = (threading.Barrier(concurrency + 1) if start_barrier else None)
    epoch = {"t": time.perf_counter()}

    def worker() -> None:
        if barrier is not None:
            barrier.wait()
        while True:
            with queue_lock:
                position = cursor["next"]
                if position >= len(plan):
                    return
                cursor["next"] = position + 1
            entry = plan[position]
            offset = entry.get("offset_s")
            if offset is not None:
                delay = epoch["t"] + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            record = target.predict(entry["endpoint"], entry["sample"],
                                    entry.get("deadline_ms"),
                                    affinity=entry.get("affinity"))
            record.index = entry["index"]
            records[position] = record

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    if barrier is not None:
        epoch["t"] = time.perf_counter()
        barrier.wait()               # release every worker at once
    for thread in threads:
        thread.join()
    return [record for record in records if record is not None]


def _plan_entries(endpoint: str, samples: np.ndarray,
                  deadline_ms: Optional[float]) -> List[Dict]:
    """One plan entry per row of ``samples`` against ``endpoint``.

    ``deadline_ms`` is attached to every entry.  Returns the plan list.
    """
    return [{"index": i, "endpoint": endpoint, "sample": sample,
             "deadline_ms": deadline_ms}
            for i, sample in enumerate(samples)]


# -----------------------------------------------------------------------------------
# scenarios
# -----------------------------------------------------------------------------------

def run_steady(target, endpoint: str, samples: np.ndarray, *,
               concurrency: int = 4, deadline_ms: Optional[float] = None,
               affinity: Optional[str] = None) -> LoadResult:
    """Closed-loop steady traffic: every sample served exactly once.

    ``concurrency`` workers each keep one request in flight on ``target``
    against ``endpoint`` until ``samples`` is exhausted; ``deadline_ms``
    rides on every request when given, and ``affinity`` pins the whole
    run's traffic to one router replica (one session's worth of affine
    load).  With load bounded by the worker count, a correctly sized
    server admits everything — making this the scenario the bit-identity
    gate runs on.  Returns the :class:`LoadResult`.
    """
    plan = _plan_entries(endpoint, samples, deadline_ms)
    if affinity is not None:
        for entry in plan:
            entry["affinity"] = affinity
    started = time.perf_counter()
    records = _run_plan(target, plan, concurrency=concurrency)
    return LoadResult("steady", records, time.perf_counter() - started,
                      {"endpoint": endpoint, "concurrency": concurrency,
                       "deadline_ms": deadline_ms, "affinity": affinity})


def run_burst(target, endpoint: str, samples: np.ndarray, *,
              concurrency: Optional[int] = None,
              deadline_ms: Optional[float] = None) -> LoadResult:
    """Burst traffic: all requests released simultaneously.

    One worker per ``samples`` row (``concurrency`` defaults to
    ``len(samples)``) lines up on a barrier, then everything fires at
    ``target``'s ``endpoint`` at once with ``deadline_ms`` attached when
    given.  Sized well above the server's ``max_queue_depth``, this is the
    scenario that demonstrates shedding.  Returns the :class:`LoadResult`.
    """
    plan = _plan_entries(endpoint, samples, deadline_ms)
    workers = concurrency if concurrency is not None else len(plan)
    started = time.perf_counter()
    records = _run_plan(target, plan, concurrency=max(workers, 1),
                        start_barrier=True)
    return LoadResult("burst", records, time.perf_counter() - started,
                      {"endpoint": endpoint, "burst_size": len(plan),
                       "deadline_ms": deadline_ms})


def poisson_offsets(n: int, rate_rps: float, seed: int) -> np.ndarray:
    """Deterministic Poisson arrival offsets for ``n`` requests.

    Inter-arrival gaps are exponential with mean ``1 / rate_rps``, drawn
    from ``numpy.random.default_rng(seed)`` — the schedule is a pure
    function of ``(n, rate_rps, seed)``, never of the wall clock.  Returns
    the cumulative offsets in seconds as a float array.

    >>> poisson_offsets(3, 100.0, seed=0).shape
    (3,)
    >>> bool(np.all(np.diff(poisson_offsets(8, 50.0, seed=1)) >= 0))
    True
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / float(rate_rps), size=int(n))
    return np.cumsum(gaps)


def run_open_loop(target, endpoint: str, samples: np.ndarray, *,
                  rate_rps: float, seed: int = 0, concurrency: int = 16,
                  deadline_ms: Optional[float] = None) -> LoadResult:
    """Open-loop Poisson traffic at a fixed arrival rate.

    One request per ``samples`` row is fired at ``target``'s ``endpoint``;
    arrival offsets come from :func:`poisson_offsets(len(samples),
    rate_rps, seed)` (seeded — no wall-clock randomness); ``concurrency``
    bounds how many requests can actually be in flight, so a saturated
    server slows admission of late arrivals rather than spawning unbounded
    threads.  ``deadline_ms`` attaches to every request.  Returns the
    :class:`LoadResult`.
    """
    offsets = poisson_offsets(len(samples), rate_rps, seed)
    plan = _plan_entries(endpoint, samples, deadline_ms)
    for entry, offset in zip(plan, offsets):
        entry["offset_s"] = float(offset)
    started = time.perf_counter()
    records = _run_plan(target, plan,
                        concurrency=min(concurrency, max(len(plan), 1)))
    return LoadResult("open-loop", records, time.perf_counter() - started,
                      {"endpoint": endpoint, "rate_rps": float(rate_rps),
                       "seed": int(seed), "deadline_ms": deadline_ms})


def run_ramp(target, endpoint: str, samples: np.ndarray, *,
             start_rps: float, end_rps: float, segments: int = 4,
             seed: int = 0, concurrency: int = 16,
             deadline_ms: Optional[float] = None) -> LoadResult:
    """Ramp traffic: open-loop Poisson arrivals at a climbing rate.

    ``samples`` is split into ``segments`` consecutive slices aimed at
    ``target``'s ``endpoint``; slice ``k`` arrives at the ``k``-th rate of
    ``linspace(start_rps, end_rps, segments)``, each segment's schedule
    drawn from ``seed + k``.  ``concurrency`` and ``deadline_ms`` behave
    as in :func:`run_open_loop`.  Returns the :class:`LoadResult`.
    """
    rates = np.linspace(float(start_rps), float(end_rps), int(segments))
    plan = _plan_entries(endpoint, samples, deadline_ms)
    bounds = np.array_split(np.arange(len(plan)), int(segments))
    base = 0.0
    for k, (indices, rate) in enumerate(zip(bounds, rates)):
        if not len(indices):
            continue
        offsets = base + poisson_offsets(len(indices), rate, seed + k)
        for position, offset in zip(indices, offsets):
            plan[position]["offset_s"] = float(offset)
        base = float(offsets[-1])
    started = time.perf_counter()
    records = _run_plan(target, plan,
                        concurrency=min(concurrency, max(len(plan), 1)))
    return LoadResult("ramp", records, time.perf_counter() - started,
                      {"endpoint": endpoint, "start_rps": float(start_rps),
                       "end_rps": float(end_rps), "segments": int(segments),
                       "seed": int(seed), "deadline_ms": deadline_ms})


def run_mix(target, endpoints: Dict[str, float], samples: np.ndarray, *,
            seed: int = 0, concurrency: int = 4,
            deadline_ms: Optional[float] = None) -> LoadResult:
    """Multi-endpoint mix: closed-loop traffic spread by seeded weights.

    ``endpoints`` maps endpoint name to relative weight; each of the
    ``len(samples)`` requests fired at ``target`` draws its endpoint from
    the normalized weights with ``numpy.random.default_rng(seed)`` (the
    assignment is schedule-deterministic).  ``concurrency`` and
    ``deadline_ms`` behave as in :func:`run_steady`.  Returns the
    :class:`LoadResult`, whose records carry each request's endpoint.
    """
    names = sorted(endpoints)
    weights = np.array([float(endpoints[name]) for name in names])
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(names), size=len(samples), p=weights)
    plan = [{"index": i, "endpoint": names[c], "sample": sample,
             "deadline_ms": deadline_ms}
            for i, (c, sample) in enumerate(zip(chosen, samples))]
    started = time.perf_counter()
    records = _run_plan(target, plan, concurrency=concurrency)
    return LoadResult("mix", records, time.perf_counter() - started,
                      {"endpoints": {n: float(w)
                                     for n, w in zip(names, weights)},
                       "seed": int(seed), "concurrency": concurrency,
                       "deadline_ms": deadline_ms})


#: scenario name -> runner, the vocabulary of ``repro.cli loadgen``.
SCENARIOS: Dict[str, Callable] = {
    "steady": run_steady,
    "burst": run_burst,
    "open-loop": run_open_loop,
    "ramp": run_ramp,
    "mix": run_mix,
}
