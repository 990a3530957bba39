"""Spans around the public entry points of each layer, kept in memory.

A :class:`Tracer` replaces the entry points listed in :data:`TRACE_POINTS`
with wrappers that record one span per call -- ``(name, start, end, parent,
extra)`` on the ``time.monotonic`` clock -- and restores the originals on
:meth:`Tracer.uninstall`.  The program's code is not edited: the wrappers are
installed from the benchmark's own files, in the runner process and inside
the server launcher.  ``time.monotonic`` is ``CLOCK_MONOTONIC`` on Linux, so
spans recorded in the server child share a time base with the client's
timestamps.

Synchronous calls nest through a per-thread stack, which gives each span its
parent and lets :func:`self_times` subtract the children.
``ServingGateway.submit`` does not nest on one thread and is recorded without
a parent: it returns a future that the batcher's thread completes, so its
span ends when the future is done.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

#: (module, class or None for a module function, attribute, span name, kind)
TRACE_POINTS = (
    ("repro.dram.injection", "BitErrorInjector", "apply", "dram.inject", "call"),
    ("repro.core.ecc", "RsCodecModel", "correct_words", "ecc.decode", "call"),
    ("repro.nn.network", "Network", "forward", "nn.forward", "call"),
    ("repro.engine.session", "InferenceSession", "materialize",
     "engine.materialize", "call"),
    ("repro.engine.session", "InferenceSession", "evaluate",
     "engine.evaluate", "call"),
    ("repro.engine.session", "InferenceSession", "predict",
     "engine.predict", "call"),
    ("repro.analysis.runner", "ExperimentRunner", "ecc_sweep",
     "analysis.runner", "call"),
    ("repro.serve.server", None, "encode_rows", "server.encode", "call"),
    ("repro.serve.gateway", "ServingGateway", "submit", "gateway.submit",
     "future"),
)

#: a span: (name, start, end, parent index or -1, extra count or 0)
Span = Tuple[str, float, float, int, int]


def _extra(name: str, args, result) -> int:
    """The count a span carries: codewords decoded or rows predicted."""
    if name == "ecc.decode":
        return int(result[1].codewords)
    if name == "engine.predict":
        return len(args[1])
    return 0


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`TRACE_POINTS`; returns ``self``."""
        for module_name, owner_name, attr, name, kind in TRACE_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrap = {"call": self._wrap_call, "future": self._wrap_future}[kind]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrap(original, name))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _reserve(self) -> int:
        """Index of a new, still empty span slot (safe across threads)."""
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    def _wrap_call(self, original, name: str):
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            # Reserve the slot first so children can name it as parent.
            index = self._reserve()
            stack.append(index)
            extra = 0
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
                extra = _extra(name, args, result)
                return result
            finally:
                spans[index] = (name, start, time.monotonic(), parent, extra)
                stack.pop()
        return traced

    def _wrap_future(self, original, name: str):
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._reserve()
            start = time.monotonic()
            future = original(*args, **kwargs)

            def done(_future) -> None:
                spans[index] = (name, start, time.monotonic(), -1, 0)
            future.add_done_callback(done)
            return future
        return traced


# -- analysis ---------------------------------------------------------------------
# A slot stays ``None`` while its call runs, and for good if it raised before
# the span could close; the functions below skip such slots.

def self_times(spans: Sequence[Optional[Span]]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run on its thread inside its interval and never
    overlap each other, so their durations add up to the part of the
    parent's interval they cover.
    """
    own = [span[2] - span[1] if span else 0.0 for span in spans]
    for span in spans:
        if span and span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def in_window(spans: Sequence[Optional[Span]], start: float, end: float
              ) -> List[int]:
    """Indices of the spans that lie wholly inside ``[start, end]``."""
    return [i for i, span in enumerate(spans)
            if span and span[1] >= start and span[2] <= end]


def layer_totals(spans: Sequence[Optional[Span]], indices: Sequence[int]
                 ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``s``, ``self_s`` and ``extra`` sum."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0})
    for i in indices:
        name, start, end, _, extra = spans[i]
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own[i]
        entry["extra"] += extra
    return totals


def durations_ms(spans: Sequence[Optional[Span]], indices: Sequence[int],
                 name: str) -> List[float]:
    """Durations in milliseconds of the spans called ``name`` in ``indices``."""
    return [(spans[i][2] - spans[i][1]) * 1e3 for i in indices
            if spans[i][0] == name]
