"""Serving telemetry: latency percentiles, throughput, and batch occupancy.

Every request that passes through a :class:`~repro.serve.gateway.ServingGateway`
is timed end to end (enqueue to result) and every dispatched batch records its
occupancy and service time; requests refused by admission control (shed) or
dropped past their deadline (expired) are counted per model alongside the
served traffic, as are ECC decode counters harvested from each endpoint's
weight-store codec (corrected / uncorrectable codewords).  :class:`ServingTelemetry` aggregates these per
model; :meth:`ServingTelemetry.report` renders the aggregate through
:func:`repro.analysis.reporting.format_serving_report`, next to the registry's
cache hit/miss counters.

All mutation goes through one lock, so batcher worker threads and client
threads can record concurrently.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional

#: latency samples kept per model; beyond this the window keeps the most
#: recent samples (percentiles then describe recent traffic, which is what a
#: serving dashboard wants).
DEFAULT_SAMPLE_WINDOW = 8192


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in 0..100).

    Uses the nearest-rank definition (the smallest sample with at least
    ``q``% of the distribution at or below it), which is exact for small
    windows and never interpolates between samples.  Returns ``nan`` for an
    empty list.

    >>> percentile([4.0, 1.0, 3.0, 2.0], 50)
    2.0
    >>> percentile([5.0], 99)
    5.0
    """
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


class _ModelStats:
    """Mutable per-model counters behind the telemetry lock."""

    __slots__ = ("requests", "batches", "samples", "service_seconds",
                 "latencies", "first_ts", "last_ts", "shed", "expired",
                 "ecc_corrected", "ecc_uncorrectable")

    def __init__(self) -> None:
        self.requests = 0
        self.batches = 0
        self.samples = 0
        self.service_seconds = 0.0
        self.latencies: List[float] = []
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.shed = 0
        self.expired = 0
        self.ecc_corrected = 0
        self.ecc_uncorrectable = 0


class ServingTelemetry:
    """Per-model serving metrics: latency distribution, throughput, occupancy.

    Parameters
    ----------
    window:
        Number of latency samples retained per model (see
        :data:`DEFAULT_SAMPLE_WINDOW`).
    clock:
        Monotonic time source; injectable so tests can drive deterministic
        timestamps.  Defaults to :func:`time.monotonic`.
    """

    def __init__(self, window: int = DEFAULT_SAMPLE_WINDOW,
                 clock=time.monotonic):
        self._lock = threading.Lock()
        self._models: Dict[str, _ModelStats] = {}
        self._window = int(window)
        self._clock = clock

    # -- recording ----------------------------------------------------------------
    def _stats_for(self, model: str) -> _ModelStats:
        stats = self._models.get(model)
        if stats is None:
            stats = self._models[model] = _ModelStats()
        return stats

    def record_request(self, model: str, latency_seconds: float) -> None:
        """Record one request's end-to-end ``latency_seconds`` for ``model``.

        Window semantics at the boundary: the latency window holds exactly
        the most recent ``min(requests, window)`` samples.  Recording the
        ``window + 1``-th sample appends the new latency and drops the
        oldest *within one locked section*, and :meth:`snapshot` takes the
        same lock — so a report issued while the window wraps sees either
        the pre-wrap window or the post-wrap window, never an over-full or
        half-updated list.  Percentiles therefore always describe a
        consistent suffix of the traffic; only the cumulative ``requests``
        counter remembers how much history the window has forgotten.
        """
        now = self._clock()
        with self._lock:
            stats = self._stats_for(model)
            stats.requests += 1
            stats.latencies.append(float(latency_seconds))
            if len(stats.latencies) > self._window:
                del stats.latencies[:len(stats.latencies) - self._window]
            if stats.first_ts is None:
                stats.first_ts = now
            stats.last_ts = now

    def record_shed(self, model: str) -> None:
        """Count one request for ``model`` refused by admission control.

        Shed requests never reach dispatch, so they contribute no latency
        sample and do not advance the throughput clock — only the ``shed``
        counter (surfaced in :meth:`snapshot` and the serving report).
        """
        with self._lock:
            self._stats_for(model).shed += 1

    def record_expired(self, model: str) -> None:
        """Count one admitted request for ``model`` dropped past its deadline.

        Recorded exactly once per dropped request: by the dispatch path when
        it discards a claimed request whose deadline passed in the queue
        (see :meth:`repro.serve.MicroBatcher.submit`), or by the HTTP front
        end for requests it cancels un-dispatched after its await times out
        — whoever owns the request at that moment, never both.
        """
        with self._lock:
            self._stats_for(model).expired += 1

    def record_ecc(self, model: str, corrected: int = 0,
                   uncorrectable: int = 0) -> None:
        """Accumulate ECC decode counters for ``model``'s weight store.

        ``corrected`` counts codewords the store's codec reverted exactly
        and ``uncorrectable`` the codewords flagged (or silently
        miscorrected) beyond correction strength; both are cumulative and
        surface in :meth:`snapshot` and the serving report.
        """
        with self._lock:
            stats = self._stats_for(model)
            stats.ecc_corrected += int(corrected)
            stats.ecc_uncorrectable += int(uncorrectable)

    def record_batch(self, model: str, occupancy: int,
                     service_seconds: float) -> None:
        """Record one dispatched batch for ``model``.

        ``occupancy`` is the number of requests coalesced into the batch and
        ``service_seconds`` the time its forward pass took.
        """
        with self._lock:
            stats = self._stats_for(model)
            stats.batches += 1
            stats.samples += int(occupancy)
            stats.service_seconds += float(service_seconds)

    # -- reading ------------------------------------------------------------------
    def snapshot(self, registry_stats: Optional[Dict[str, int]] = None) -> Dict:
        """Aggregate metrics as a plain dict (one entry per model).

        ``registry_stats`` (a :attr:`repro.serve.SessionRegistry.stats` dict)
        is embedded under ``"registry"`` when given, so one snapshot carries
        both traffic and cache behaviour.  Returns a JSON-serializable dict.
        """
        with self._lock:
            models = {}
            for name, stats in self._models.items():
                elapsed = ((stats.last_ts - stats.first_ts)
                           if stats.first_ts is not None else 0.0)
                models[name] = {
                    "requests": stats.requests,
                    "shed": stats.shed,
                    "expired": stats.expired,
                    "ecc_corrected": stats.ecc_corrected,
                    "ecc_uncorrectable": stats.ecc_uncorrectable,
                    "batches": stats.batches,
                    "mean_occupancy": (stats.samples / stats.batches
                                       if stats.batches else 0.0),
                    "throughput_rps": (stats.requests / elapsed
                                       if elapsed > 0 else float("nan")),
                    "service_seconds": stats.service_seconds,
                    "p50_ms": percentile(stats.latencies, 50) * 1e3,
                    "p95_ms": percentile(stats.latencies, 95) * 1e3,
                    "p99_ms": percentile(stats.latencies, 99) * 1e3,
                    "mean_ms": (sum(stats.latencies) / len(stats.latencies) * 1e3
                                if stats.latencies else float("nan")),
                }
        result: Dict = {"models": models}
        if registry_stats is not None:
            result["registry"] = dict(registry_stats)
        return result

    def report(self, registry_stats: Optional[Dict[str, int]] = None) -> str:
        """Render :meth:`snapshot` as plain text.

        ``registry_stats`` cache counters are included when given.  Returns
        the rendered table string.
        """
        from repro.analysis.reporting import format_serving_report

        return format_serving_report(self.snapshot(registry_stats))
