"""The ``serve_http`` workload: its server, traffic and reference outputs.

The server is ``repro.cli serve`` with :data:`SERVE_ARGV` -- the int8
``lenet`` endpoint -- started by ``launcher.py``.  Traffic comes from this
module, not from ``repro.serve.loadgen``, so an edit to the library's load
generator cannot move the numbers: request bodies are encoded once before
any timing, and each of the :data:`CONNECTIONS` client threads keeps one
``http.client`` keep-alive connection.

A run has three phases, each a fixed share of ``--seconds`` and split into
:data:`ROUNDS` chunks that run in turn (closed, low, high, closed, ...):

``closed``
    Each connection sends its next request when the previous answer
    arrives.  Completed requests per second is the capacity.
``low`` and ``high``
    Open loop: seeded Poisson arrivals at :data:`RATES` requests per
    second.  On a 2-vCPU host the capacity measured 290-410 requests per
    second from run to run, so the rates sit at about a third and 55% of
    it: at 260 requests per second a slow spell of the host saturated the
    server and the latency percentiles swung by half.  A request whose
    connection is still busy at its due time waits, and its latency is
    timed from the due time, so a stall shows in every request behind it.
"""

from __future__ import annotations

import base64
import http.client
import itertools
import json
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

SERVE_ARGV = ["serve", "--dtype", "int8", "--port", "0"]
CONNECTIONS = 2
BODIES = 64
RATES = {"low": 120.0, "high": 200.0}
#: share of the run's seconds given to each phase, in round order.
PHASES = (("closed", 0.15), ("low", 0.45), ("high", 0.4))
#: chunks per phase; a phase's rate and percentiles are medians over them.
ROUNDS = 12
WARMUP_S = 1.0
HEADERS = {"Content-Type": "application/json"}

#: one request: (body index, due, sent, done, HTTP status or -1, response body)
Record = Tuple[int, float, float, float, int, bytes]


def serve_args():
    """The parsed ``repro.cli serve`` arguments the server runs with."""
    from repro.cli import build_parser

    return build_parser().parse_args(SERVE_ARGV)


def request_samples(seed: int) -> np.ndarray:
    """The :data:`BODIES` validation samples a run sends, chosen by ``seed``."""
    from repro.nn.models import build_model_with_dataset

    args = serve_args()
    _, dataset, _ = build_model_with_dataset(args.model, seed=args.seed)
    rng = np.random.default_rng(seed)
    return dataset.val_x[rng.choice(len(dataset.val_x), BODIES,
                                    replace=False)]


def encode_bodies(samples: np.ndarray) -> List[bytes]:
    """JSON request bodies, encoded once before the timed phases."""
    return [json.dumps({"sample": sample.tolist()}).encode()
            for sample in np.asarray(samples, dtype=np.float32)]


def reference_rows(samples: np.ndarray) -> np.ndarray:
    """In-process outputs for ``samples`` from the server's own build.

    ``session.predict`` at the micro-batcher's static batch shape is what
    every served row must equal, byte for byte.
    """
    from repro.serve.bench import build_serving_gateway

    args = serve_args()
    gateway, session, _ = build_serving_gateway(
        args.model, ber=args.ber, seed=args.seed, epochs=args.epochs,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        dtype=args.dtype)
    try:
        return session.predict(samples, pad_to=args.max_batch)
    finally:
        gateway.close()


def predict_path() -> str:
    return f"/v1/models/{serve_args().model}:predict"


def _post(conn: http.client.HTTPConnection, path: str, body: bytes
          ) -> Tuple[int, bytes]:
    conn.request("POST", path, body=body, headers=HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


def _drive(conns: List[http.client.HTTPConnection], work) -> List[Record]:
    """Run ``work(send, records)`` on one client thread per connection.

    ``send(body)`` posts ``body`` on the thread's keep-alive connection and
    returns ``(status, response body)``; a failed exchange returns status
    -1 and replaces the connection.
    """
    records: List[Record] = []
    path = predict_path()

    def client(slot: int) -> None:
        def send(body: bytes) -> Tuple[int, bytes]:
            try:
                return _post(conns[slot], path, body)
            except (OSError, http.client.HTTPException):
                conns[slot].close()
                conns[slot] = http.client.HTTPConnection(
                    conns[slot].host, conns[slot].port, timeout=30)
                return -1, b""
        work(send, records)

    threads = [threading.Thread(target=client, args=(slot,),
                                name=f"client-{slot}")
               for slot in range(len(conns))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def closed_loop(conns, bodies: List[bytes], picks: np.ndarray,
                seconds: float) -> List[Record]:
    """Each connection sends back to back for ``seconds``."""
    counter = itertools.count()
    end = time.monotonic() + seconds

    def work(send, records) -> None:
        while True:
            sent = time.monotonic()
            if sent >= end:
                return
            pick = int(picks[next(counter) % len(picks)])
            status, data = send(bodies[pick])
            records.append((pick, sent, sent, time.monotonic(), status, data))
    return _drive(conns, work)


def open_loop(conns, bodies: List[bytes], picks: np.ndarray,
              offsets: np.ndarray) -> List[Record]:
    """Send request ``i`` at ``offsets[i]`` seconds, or as soon as a
    connection is free after that."""
    counter = itertools.count()
    start = time.monotonic()

    def work(send, records) -> None:
        while True:
            i = next(counter)
            if i >= len(offsets):
                return
            due = start + offsets[i]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            status, data = send(bodies[int(picks[i])])
            records.append((int(picks[i]), due, sent, time.monotonic(),
                            status, data))
    return _drive(conns, work)


def poisson_offsets(rng: np.random.Generator, rate: float,
                    seconds: float) -> np.ndarray:
    """Seeded Poisson arrival offsets in ``[0, seconds)`` at ``rate``/s."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def run_phases(port: int, bodies: List[bytes], rng: np.random.Generator,
               seconds: float, on_window=None) -> Dict[str, List[dict]]:
    """Warm up, then run :data:`ROUNDS` rounds of every phase of
    :data:`PHASES` against ``port``.

    Interleaving the phases in short chunks spreads each of them over the
    whole run, so a slow spell of a shared host lands on one chunk of each
    phase rather than on most of one phase.  ``on_window("start"|"end")``
    is called just before the first and just after the last timed chunk.
    Returns, per phase, its chunks: each with its records and its ``start``
    and ``end`` (after the last answer) on the ``time.monotonic`` clock.
    """
    conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=30)
             for _ in range(CONNECTIONS)]
    try:
        closed_loop(conns, bodies, rng.integers(0, len(bodies), 4096),
                    WARMUP_S)
        if on_window:
            on_window("start")
        phases: Dict[str, List[dict]] = {name: [] for name, _ in PHASES}
        for _ in range(ROUNDS):
            for name, share in PHASES:
                length = seconds * share / ROUNDS
                picks = rng.integers(0, len(bodies), 1 << 12)
                start = time.monotonic()
                if name == "closed":
                    records = closed_loop(conns, bodies, picks, length)
                else:
                    records = open_loop(
                        conns, bodies, picks,
                        poisson_offsets(rng, RATES[name], length))
                phases[name].append({"records": records, "start": start,
                                     "end": time.monotonic()})
        if on_window:
            on_window("end")
    finally:
        for conn in conns:
            conn.close()
    return phases


def check_records(records: List[Record], expected: np.ndarray,
                  served: Dict[int, bytes]) -> int:
    """Count records that failed or differ from ``expected`` rows.

    Every 200 answer's row must equal ``expected[body index].tobytes()``;
    ``served`` collects the first row seen per body index, for comparing
    two runs.
    """
    failed = 0
    for pick, _, _, _, status, data in records:
        if status != 200:
            failed += 1
            continue
        try:
            row = base64.b64decode(json.loads(data)["outputs_b64"][0])
        except (ValueError, KeyError, IndexError, TypeError):
            failed += 1
            continue
        served.setdefault(pick, row)
        if row != expected[pick].tobytes():
            failed += 1
    return failed
