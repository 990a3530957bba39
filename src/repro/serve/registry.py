"""LRU registry of compiled inference sessions.

EDEN's deployment stores each DNN in approximate DRAM once per operating
point; the in-simulation analogue of that stored model is an
:class:`~repro.engine.session.InferenceSession` with its weight store
materialized.  Materialization is the expensive step (one injector pass over
every weight tensor), so a serving process wants to compile each
(model, operating point) pair exactly once and share the plan between all
clients — and to bound how many materialized stores it keeps alive.

:class:`SessionRegistry` is that cache: sessions are keyed by *model identity
× injector fingerprint × seed* (the fingerprint introduced with the engine —
see :func:`repro.engine.injector_fingerprint`), looked up in LRU order, and
evicted when either the session count or the total bytes of materialized
weight stores exceed the configured budget.  Eviction drops the store (the
session stays valid and re-materializes on next use), so an evicted plan
costs one recompilation, never correctness.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.engine.session import InferenceSession, injector_fingerprint
from repro.nn.network import Network
from repro.nn.quantization import ExecutionMode

#: monotonically increasing identity tokens for live networks.  ``id()`` is
#: unusable as a cache key: CPython reuses addresses after garbage
#: collection, so a *new* network could alias a dead one's cached session
#: and serve stale weights.  Tokens are handed out once per network object
#: (weakly keyed, so they die with the network) and never reused.
_MODEL_TOKENS: "weakref.WeakKeyDictionary[Network, int]" = \
    weakref.WeakKeyDictionary()
_MODEL_TOKENS_GUARD = threading.Lock()
_MODEL_TOKEN_COUNTER = itertools.count()


def model_token(network: Network) -> int:
    """Stable, never-reused identity token for a live ``network`` object.

    Two calls with the same object return the same token; a different
    object — even one allocated at a reused ``id()`` after the first was
    collected — always gets a fresh one.  Returns the token as an int.
    """
    with _MODEL_TOKENS_GUARD:
        token = _MODEL_TOKENS.get(network)
        if token is None:
            token = next(_MODEL_TOKEN_COUNTER)
            _MODEL_TOKENS[network] = token
        return token


class _Entry:
    """Cache slot: the compiled session plus its accounted store size."""

    __slots__ = ("session", "nbytes")

    def __init__(self, session: InferenceSession, nbytes: int):
        self.session = session
        self.nbytes = nbytes


def session_store_bytes(session: InferenceSession) -> int:
    """Bytes held by ``session``'s materialized weight store.

    Falls back to the network's parameter footprint when the session has no
    store yet (no injector, or not materialized) — the plan still pins the
    network's weights in memory.  Returns an int byte count.
    """
    store = session.materialized_weights()
    if store:
        return int(sum(array.nbytes for array in store.values()))
    return int(session.network.parameter_bytes())


class SessionRegistry:
    """LRU cache of compiled static-store sessions.

    Parameters
    ----------
    max_sessions:
        Upper bound on cached sessions; the least recently used entry is
        evicted first.
    memory_budget_bytes:
        Optional cap on the summed bytes of materialized weight stores; when
        exceeded, LRU entries are evicted (their stores dropped) until the
        remaining entries fit.  The most recently inserted entry is never
        evicted, so a single plan larger than the budget still serves.
    """

    def __init__(self, max_sessions: int = 8,
                 memory_budget_bytes: Optional[int] = None):
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = int(max_sessions)
        self.memory_budget_bytes = (None if memory_budget_bytes is None
                                    else int(memory_budget_bytes))
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.stats: Dict[str, int] = {"hits": 0, "misses": 0,
                                      "compilations": 0, "evictions": 0,
                                      "stored_bytes": 0}

    # -- keys ---------------------------------------------------------------------
    @staticmethod
    def key_of(network: Network, injector=None, seed: int = 0,
               execution_mode=None) -> tuple:
        """Cache key for a (``network``, ``injector``, ``seed``) combination.

        Model identity is the network object itself (name plus the stable
        :func:`model_token` — *not* ``id()``, which CPython reuses after
        garbage collection and would let a new network alias a dead one's
        cached session), the operating point is the injector fingerprint —
        which embeds the error model, per-tensor BER assignment, device
        operating point and precision — and ``seed`` selects the
        materialization stream.  ``execution_mode`` (an
        :class:`~repro.nn.quantization.ExecutionMode` or its name) joins the
        key when it is not the FP32 default: the same operating point
        compiled for integer execution is a different plan and must never
        alias the float one.  Returns a hashable tuple.
        """
        key = (network.name, model_token(network),
               injector_fingerprint(injector), int(seed))
        if execution_mode is not None:
            mode = ExecutionMode.resolve(execution_mode)
            if mode is not ExecutionMode.FP32:
                key += (mode.value,)
        return key

    # -- lookup / insert ----------------------------------------------------------
    def get(self, key: tuple) -> Optional[InferenceSession]:
        """Look up ``key``, refreshing its LRU position.

        Counts a hit or miss in :attr:`stats`.  Returns the cached session,
        or ``None`` on a miss.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        self._entries.move_to_end(key)
        self.stats["hits"] += 1
        # Re-account on every hit: a session compiled with
        # ``materialize=False`` (or evicted and reused) materializes its
        # store lazily on first use, and the budget must see those bytes.
        entry.nbytes = session_store_bytes(entry.session)
        self._evict_over_budget()
        self._refresh_bytes()
        return entry.session

    def get_or_compile(self, network: Network, dataset=None, *, injector=None,
                       seed: int = 0, materialize: bool = True,
                       **session_kwargs) -> InferenceSession:
        """The session compiled for this operating point, reusing a cached one.

        On a miss, a new :class:`InferenceSession` is built from ``network``,
        ``dataset``, ``injector`` and ``session_kwargs``, its weight store is
        materialized (unless ``materialize=False``), and the plan is cached
        under :meth:`key_of`\\ ``(network, injector, seed)``.  On a hit the
        cached session is returned untouched — registering the same model at
        the same operating point N times compiles once.  Returns the session.
        """
        key = self.key_of(network, injector, seed,
                          execution_mode=session_kwargs.get("execution_mode"))
        session = self.get(key)
        if session is not None:
            return session
        session = InferenceSession(network, dataset, injector=injector,
                                   seed=seed, **session_kwargs)
        if materialize and injector is not None:
            session.materialize()
        self.stats["compilations"] += 1
        self._insert(key, session)
        return session

    def add(self, session: InferenceSession, *, materialize: bool = True
            ) -> tuple:
        """Cache an externally compiled ``session``.

        Used e.g. by :meth:`repro.core.pipeline.EdenResult.serve`.  The key
        is derived from the session's own network/injector/seed, so a
        later :meth:`get_or_compile` with the same operating point hits this
        entry.  ``materialize`` forces the weight store into existence so the
        memory accounting is accurate.  Adding a *different* session object
        under an already-cached key replaces the cached one (counted as a
        hit — fingerprint-identical plans produce identical stores), so the
        registry always tracks the session its callers actually serve.
        Returns the cache key.
        """
        key = self.key_of(session.network, session.injector, session.seed,
                          execution_mode=session.execution_mode)
        if materialize and session.injector is not None:
            session.materialize()
        existing = self._entries.get(key)
        if existing is not None:
            self.stats["hits"] += 1
            if existing.session is not session:
                existing.session = session
            existing.nbytes = session_store_bytes(session)
            self._entries.move_to_end(key)
            self._evict_over_budget()
            self._refresh_bytes()
        else:
            self.stats["compilations"] += 1
            self._insert(key, session)
        return key

    def snapshot(self) -> Dict[tuple, InferenceSession]:
        """Return the cached sessions by key, for a later :meth:`revert`."""
        return {key: entry.session for key, entry in self._entries.items()}

    def revert(self, snapshot: Dict[tuple, InferenceSession]) -> None:
        """Undo the compiles and replacements made since ``snapshot``.

        For a caller whose compile succeeded but whose use of the plan then
        failed (e.g. a rejected gateway endpoint): an entry cached since the
        snapshot leaves the cache and its compilation no longer counts, and
        a session :meth:`add` swapped in under a cached key gives way to the
        one it replaced.  Entries a compile evicted stay evicted.  The
        sessions themselves are left as they are, since callers may still
        hold them.
        """
        for key in list(self._entries):
            entry = self._entries[key]
            if key not in snapshot:
                del self._entries[key]
                self.stats["compilations"] -= 1
            elif entry.session is not snapshot[key]:
                entry.session = snapshot[key]
                entry.nbytes = session_store_bytes(entry.session)
        self._refresh_bytes()

    # -- bookkeeping --------------------------------------------------------------
    def _insert(self, key: tuple, session: InferenceSession) -> None:
        self._entries[key] = _Entry(session, session_store_bytes(session))
        self._evict_over_budget()
        self._refresh_bytes()

    def _evict_over_budget(self) -> None:
        """Evict LRU entries until count and byte budgets are satisfied.

        The newest entry always survives: a serving process must be able to
        run the plan it just compiled even if that plan alone exceeds the
        configured budget.
        """
        def over_budget() -> bool:
            if len(self._entries) > self.max_sessions:
                return True
            if self.memory_budget_bytes is None:
                return False
            total = sum(entry.nbytes for entry in self._entries.values())
            return total > self.memory_budget_bytes

        while len(self._entries) > 1 and over_budget():
            _, entry = self._entries.popitem(last=False)
            # Drop the materialized store so the budget actually frees memory;
            # holders of the session can still use it (it re-materializes).
            entry.session.invalidate()
            self.stats["evictions"] += 1

    def _refresh_bytes(self) -> None:
        self.stats["stored_bytes"] = sum(entry.nbytes
                                         for entry in self._entries.values())

    # -- introspection ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def keys(self) -> List[tuple]:
        """Return the cached keys in LRU order (least recently used first)."""
        return list(self._entries)

    def sessions(self) -> List[InferenceSession]:
        """Return the cached sessions in LRU order (least recent first)."""
        return [entry.session for entry in self._entries.values()]

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (``nan`` before any)."""
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else float("nan")
