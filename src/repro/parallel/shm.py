"""Zero-copy shared-memory tensor segments for cross-process execution.

A :class:`SharedTensorStore` packs a set of named numpy arrays into one
``multiprocessing.shared_memory`` segment owned by the exporting process and
hands out a picklable :class:`StoreHandle`.  Any process — a forked sweep
worker, a serving dispatch worker — can :func:`attach_store` the handle and
get back read-only numpy views *into the segment itself*: no copy of the
tensors is ever pickled into a task, which is what makes fanning a large
materialized weight store out to N workers O(1) in memory instead of O(N).

Lifetime rules:

* the exporting process owns the segment and must :meth:`~SharedTensorStore.close`
  it (unlink + close); :class:`SharedTensorStore` is a context manager and
  also unlinks on garbage collection as a backstop;
* attached views stay valid for as long as the attaching process keeps its
  mapping open — on POSIX systems an unlink by the owner does not invalidate
  existing mappings, so in-flight workers finish safely even when the owner
  unlinks early;
* attachments are cached per process by the handle's unique ``token``, so
  a new export (new token) is attached afresh.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Tuple

import numpy as np


def fork_context() -> multiprocessing.context.BaseContext:
    """Return the ``fork`` multiprocessing context worker pools run under.

    The parallel subsystem requires ``fork`` (POSIX): forked workers share
    the owner's shared-memory resource tracker, so attach-side
    re-registration is a harmless duplicate and segments live exactly as
    long as their owner says.  Under ``spawn`` each worker would boot its
    own tracker and unlink segments the owner still serves.  Raises
    ``RuntimeError`` on platforms without ``fork``.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError as error:     # pragma: no cover - Windows only
        raise RuntimeError(
            "repro.parallel requires the 'fork' multiprocessing start "
            "method (POSIX); this platform does not provide it"
        ) from error

#: process-unique counter feeding the store tokens (combined with the pid so
#: tokens from a parent and its forked children can never collide).
_TOKEN_COUNTER = itertools.count()


def _next_token(prefix: str) -> str:
    return f"{prefix}-{os.getpid()}-{next(_TOKEN_COUNTER)}"


@dataclass(frozen=True)
class TensorRef:
    """Picklable location of one tensor inside a shared segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int


@dataclass(frozen=True)
class StoreHandle:
    """Picklable description of an exported :class:`SharedTensorStore`.

    ``segment`` is the OS-level shared-memory name, ``token`` uniquely
    identifies this export (attachments are cached per token), and ``refs``
    locate each tensor inside the segment.
    """

    token: str
    segment: str
    refs: Tuple[TensorRef, ...]


class SharedTensorStore:
    """Owner side of one shared-memory segment holding named tensors.

    Build with :meth:`create`; pass :attr:`handle` to other processes; call
    :meth:`close` (or use as a context manager) when no new attachment will
    be needed.  ``shm`` is the underlying segment, ``refs`` the per-tensor
    locations and ``token`` the unique export id (all three created by
    :meth:`create`, not caller-supplied).
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 refs: Tuple[TensorRef, ...], token: str):
        self._shm = shm
        self._refs = refs
        self._token = token
        self._closed = False

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray], *,
               token_prefix: str = "repro") -> "SharedTensorStore":
        """Pack ``arrays`` into a fresh shared segment.

        Every array is copied into the segment once (C-contiguous, native
        dtype); ``token_prefix`` namespaces the export token.  Returns the
        owning :class:`SharedTensorStore`.
        """
        specs: List[Tuple[str, np.ndarray]] = [
            (name, np.ascontiguousarray(array)) for name, array in arrays.items()
        ]
        total = sum(array.nbytes for _, array in specs)
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        refs: List[TensorRef] = []
        offset = 0
        for name, array in specs:
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=shm.buf[offset:offset + array.nbytes])
            view[...] = array
            refs.append(TensorRef(name=name, dtype=array.dtype.str,
                                  shape=tuple(array.shape), offset=offset,
                                  nbytes=array.nbytes))
            offset += array.nbytes
        return cls(shm, tuple(refs), _next_token(token_prefix))

    @property
    def handle(self) -> StoreHandle:
        """The picklable :class:`StoreHandle` other processes attach with."""
        return StoreHandle(token=self._token, segment=self._shm.name,
                           refs=self._refs)

    @property
    def nbytes(self) -> int:
        """Total bytes of tensor payload packed into the segment."""
        return sum(ref.nbytes for ref in self._refs)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Return read-only views of the owner's copy of the tensors."""
        return _views_of(self._shm, self._refs)

    def close(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:     # a live arrays() view still pins the mapping
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:       # pragma: no cover - double unlink race
            pass

    def __enter__(self) -> "SharedTensorStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def _views_of(shm: shared_memory.SharedMemory,
              refs: Tuple[TensorRef, ...]) -> Dict[str, np.ndarray]:
    views: Dict[str, np.ndarray] = {}
    for ref in refs:
        view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                          buffer=shm.buf[ref.offset:ref.offset + ref.nbytes])
        view.flags.writeable = False
        views[ref.name] = view
    return views


#: per-process attachment cache: token -> (SharedMemory, views).  Keeping the
#: SharedMemory object referenced keeps the mapping (and thus the views) alive.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]] = {}
_ATTACH_LOCK = threading.Lock()


def attach_store(handle: StoreHandle) -> Dict[str, np.ndarray]:
    """Map ``handle``'s segment and return read-only views of its tensors.

    Attachments are cached by ``handle.token``, so repeated tasks referencing
    the same export map the segment once per process.  The views alias shared
    memory directly — zero copies — and are marked non-writeable.  Returns a
    ``{tensor name: view}`` dict.
    """
    with _ATTACH_LOCK:
        cached = _ATTACHED.get(handle.token)
        if cached is not None:
            return cached[1]
        # CPython < 3.13 re-registers the segment with the resource tracker
        # on attach.  All attaching processes here are forked descendants
        # sharing the owner's tracker, whose cache is a set — the duplicate
        # registration is a no-op, and the owner's unlink unregisters the
        # name exactly once.  (Do NOT unregister here: that would delete the
        # owner's registration and make its unlink-time unregister fail.)
        shm = shared_memory.SharedMemory(name=handle.segment)
        views = _views_of(shm, handle.refs)
        _ATTACHED[handle.token] = (shm, views)
        return views


