"""Exporting compiled plans to — and attaching them from — other processes.

A *plan* is everything a worker process needs to execute a network exactly
like its owner: the network structure (a pickled skeleton with all tensor
payloads stripped), the clean weights, optionally the dataset's validation
split, and optionally a materialized static-store (the corrupted weights an
:class:`~repro.engine.session.InferenceSession` serves at one operating
point).  All tensor payloads travel through
:class:`~repro.parallel.shm.SharedTensorStore` segments — exported once,
mapped zero-copy by every worker — while the skeleton itself is a few
kilobytes of structure.

Every export carries a fresh token, so a re-export never aliases an older
one.  :func:`session_from_plan` is the other half of
:func:`export_session_plan`: it rebuilds, in any process, a session that
reads, reseeds and scores exactly like the exporter.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.session import InferenceSession, ReadSemantics, network_lock
from repro.nn.network import Network
from repro.parallel.shm import (
    SharedTensorStore,
    StoreHandle,
    attach_store,
    _next_token,
)

#: zero-length stand-in for stripped tensor payloads in the pickled skeleton.
_STUB = np.empty(0, dtype=np.float32)


def _holds_arrays(value) -> bool:
    """True when ``value`` is (or contains, one level deep) an ndarray."""
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (tuple, list)):
        return any(isinstance(item, np.ndarray) for item in value)
    return False


def network_skeleton(network: Network) -> bytes:
    """Pickle ``network``'s structure with every tensor payload stripped.

    Parameter data/grad/momentum buffers, private per-layer forward caches
    (``_cache`` and friends hold full activation tensors after an
    evaluation), and the installed fault injector are all swapped for stubs
    around the ``pickle.dumps`` call and restored before returning — the
    live network is untouched.  The stub window runs under the network's
    canonical :func:`repro.engine.session.network_lock`, so it cannot
    interleave with an in-process dispatch (which holds the same lock) or a
    concurrent export of the same network.  Returns the skeleton bytes;
    :func:`restore_network` rebuilds an executable network from them plus a
    weight-view mapping.
    """
    saved_params: List[Tuple[object, np.ndarray, Optional[np.ndarray],
                             Optional[np.ndarray]]] = []
    saved_caches: List[Tuple[object, str, object]] = []
    lock = network_lock(network)
    lock.acquire()
    previous_injector = network.fault_injector
    try:
        for param in network.parameters():
            saved_params.append((param, param.data, param.grad,
                                 param.momentum_buffer))
            param.data = _STUB
            param.grad = None
            param.momentum_buffer = None
        for layer in network.leaf_layers():
            for name, value in list(vars(layer).items()):
                # Callables cover installed fused kernels (`_int_kernel`
                # closures capture full weight-code arrays and would not
                # pickle as part of a skeleton anyway).
                if name.startswith("_") and value is not None and \
                        (_holds_arrays(value) or callable(value)):
                    saved_caches.append((layer, name, value))
                    setattr(layer, name, None)
        network.set_fault_injector(None)
        return pickle.dumps(network, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        network.set_fault_injector(previous_injector)
        for layer, name, value in saved_caches:
            setattr(layer, name, value)
        for param, data, grad, momentum in saved_params:
            param.data = data
            param.grad = grad
            param.momentum_buffer = momentum
        lock.release()


def restore_network(skeleton: bytes, weights: Dict[str, np.ndarray]) -> Network:
    """Rebuild an executable network from a skeleton plus weight views.

    Every parameter's payload is pointed at the corresponding (typically
    shared-memory, read-only) array in ``weights`` — evaluation never writes
    parameters, so read-only views are sufficient.  Returns the network in
    eval mode with no fault injector installed.
    """
    network: Network = pickle.loads(skeleton)
    for param in network.parameters():
        try:
            param.data = weights[param.name]
        except KeyError:
            raise KeyError(f"plan weights are missing parameter {param.name!r}")
    network.eval()
    return network


@dataclass(frozen=True)
class PlanHandle:
    """Picklable description of an exported plan.

    ``token`` uniquely identifies the export (worker attachments are cached
    by it), ``skeleton`` is the stripped network pickle, ``weights`` /
    ``dataset`` / ``store`` are shared-segment handles (the latter two
    optional), and ``injector`` optionally carries a pickled injector for
    plans that keep injecting on the worker side (per-read semantics or
    per-dispatch IFM errors).  ``semantics`` (a :class:`ReadSemantics`
    value), ``seed``, ``metric``, ``batch_size`` and ``execution_mode`` (an
    :class:`~repro.nn.quantization.ExecutionMode` value) are the exporting
    session's, so a worker session reads, reseeds and scores exactly like
    its owner.
    """

    token: str
    skeleton: bytes
    weights: StoreHandle
    dataset: Optional[StoreHandle] = None
    store: Optional[StoreHandle] = None
    injector: Optional[bytes] = None
    semantics: str = "static-store"
    seed: int = 0
    metric: str = "accuracy"
    batch_size: int = 64
    execution_mode: str = "fp32"
    #: pickled metadata of a compiled integer plan (bits, per-tensor scales,
    #: which store entries are code arrays).  When set, ``store`` carries the
    #: *integer code arrays* plus the non-GEMM float store — no float detour
    #: for the quantized weights — and workers rebuild a
    #: :class:`repro.engine.quantized.QuantizedPlan` from the mapped views.
    qplan: Optional[bytes] = None


class ExportedPlan:
    """Owner side of an exported plan: the shared segments plus the handle.

    Created by :func:`export_session_plan`
    (``handle`` plus the backing ``segments`` are assembled there, not
    caller-supplied); :meth:`close` unlinks every segment.

    Exports are reference-counted for multi-adopter lifetimes: the creator
    holds one reference (consumed by :meth:`close`), and any other component
    that must outlive the creator's interest — e.g. a
    :class:`repro.serve.replica.ReplicaManager` that respawns crashed
    replicas from the same segments long after the creator closed its
    export — takes its own with :meth:`retain` and drops it with
    :meth:`release`.  The segments are unlinked only when the last
    reference is gone, so the creator's close can never pull live shared
    memory out from under a replica that still needs to adopt it.
    """

    def __init__(self, handle: PlanHandle,
                 segments: List[SharedTensorStore]):
        self.handle = handle
        self._segments = segments
        self._refs = 1
        self._closed = False

    @property
    def nbytes(self) -> int:
        """Total shared-memory bytes held by this export."""
        return sum(segment.nbytes for segment in self._segments)

    @property
    def refs(self) -> int:
        """Live reference count (0 once the segments are unlinked)."""
        return self._refs

    def retain(self) -> "ExportedPlan":
        """Take an additional reference on this export.

        Each successful ``retain()`` must be balanced by one
        :meth:`release`; the segments stay mapped-able until every
        reference is dropped.  Raises ``RuntimeError`` once the export has
        already been unlinked (a late adopter must re-export instead of
        attaching segments that no longer exist).  Returns ``self`` so
        adopters can write ``plan = export.retain()``.
        """
        if self._refs <= 0:
            raise RuntimeError(
                "plan export already unlinked; re-export before retaining")
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; unlink the segments when none remain."""
        if self._refs <= 0:
            return
        self._refs -= 1
        if self._refs == 0:
            for segment in self._segments:
                segment.close()

    def close(self) -> None:
        """Drop the creator's reference (idempotent).

        The segments are unlinked immediately when no adopter holds a
        :meth:`retain` reference, and otherwise when the last adopter
        calls :meth:`release`.
        """
        if self._closed:
            return
        self._closed = True
        self.release()

    def __enter__(self) -> "ExportedPlan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def _export_dataset(dataset) -> Optional[SharedTensorStore]:
    if dataset is None:
        return None
    if hasattr(dataset, "val_x"):
        inputs, labels = np.asarray(dataset.val_x), np.asarray(dataset.val_y)
    else:
        inputs, labels = dataset
        inputs, labels = np.asarray(inputs), np.asarray(labels)
    return SharedTensorStore.create({"inputs": inputs, "labels": labels},
                                    token_prefix="dataset")


def export_session_plan(session, *, include_injector: bool = False
                        ) -> ExportedPlan:
    """Export ``session``'s compiled plan for worker processes.

    Under static-store semantics the session's weight store is materialized
    (when it has an injector) and exported alongside the clean weights,
    materialized for the session's current injector; under per-read
    semantics no store exists and the injector itself must travel instead.
    An injector-free session exports only the clean weights, skeleton and
    dataset — what sweep workers of a :class:`repro.parallel.PlanPool`
    need, since they materialize their own store per task (deterministic,
    hence bit-identical to the owner's).
    Per-read sessions always ship their pickled injector (it *is* their
    read semantics); ``include_injector`` ships a static-store session's
    injector too, for workers serving per-dispatch IFM errors.  The export
    runs under the network's canonical lock so the weight copy cannot
    observe another export's stub window.  Returns the owning
    :class:`ExportedPlan`.
    """
    network = session.network
    with network_lock(network):
        weights = SharedTensorStore.create(
            {param.name: param.data for param in network.parameters()},
            token_prefix="weights")
        segments = [weights]
        store_handle = None
        qplan_bytes = None
        integer_mode = session._integer_mode_active(session.injector,
                                                    session.semantics)
        if integer_mode:
            # Zero-copy quantized lane: ship the recovered code arrays (int8/
            # int16) and the non-GEMM float store — the corrupted float store
            # never crosses the process boundary.
            plan = session._quantized_plan(session.injector, session.seed)
            store_segment = SharedTensorStore.create(
                {**plan.codes, **plan.float_store}, token_prefix="store")
            segments.append(store_segment)
            store_handle = store_segment.handle
            qplan_bytes = pickle.dumps(
                {"bits": plan.bits,
                 "weight_scales": dict(plan.weight_scales),
                 "ifm_scales": {name: spec.scale
                                for name, spec in plan.ifm_specs.items()},
                 "code_names": list(plan.codes),
                 "float_names": list(plan.float_store)},
                protocol=pickle.HIGHEST_PROTOCOL)
        elif (session.injector is not None
                and session.semantics is ReadSemantics.STATIC_STORE):
            store = session.materialize()
            store_segment = SharedTensorStore.create(store,
                                                     token_prefix="store")
            segments.append(store_segment)
            store_handle = store_segment.handle
        dataset_store = _export_dataset(session.dataset)
        if dataset_store is not None:
            segments.append(dataset_store)
        injector_bytes = None
        per_read = session.semantics is ReadSemantics.PER_READ
        if (include_injector or per_read) and session.injector is not None \
                and not integer_mode:
            injector_bytes = pickle.dumps(session.injector,
                                          protocol=pickle.HIGHEST_PROTOCOL)
        handle = PlanHandle(
            token=_next_token("plan"),
            skeleton=network_skeleton(network),
            weights=weights.handle,
            dataset=dataset_store.handle if dataset_store is not None else None,
            store=store_handle,
            injector=injector_bytes,
            qplan=qplan_bytes,
            semantics=session.semantics.value,
            seed=session.seed,
            metric=session.metric,
            batch_size=session.batch_size,
            execution_mode=session.execution_mode.value,
        )
        return ExportedPlan(handle, segments)


class AttachedPlan:
    """Worker side of a plan: the rebuilt network plus attached tensor views.

    ``handle`` is the :class:`PlanHandle` this attachment was built from;
    the remaining attributes are derived during :func:`attach_plan`.
    """

    def __init__(self, handle: PlanHandle):
        self.handle = handle
        self.network = restore_network(handle.skeleton,
                                       attach_store(handle.weights))
        self.dataset: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if handle.dataset is not None:
            views = attach_store(handle.dataset)
            self.dataset = (views["inputs"], views["labels"])
        self.store: Optional[Dict[str, np.ndarray]] = None
        self.qplan = None
        if handle.qplan is not None:
            # Integer plan: the store segment holds code arrays plus the
            # non-GEMM float store; rebuild the executable plan around the
            # mapped views (`store` stays None — the int8 codes must never be
            # served as float weights).
            from repro.engine.quantized import QuantizedPlan
            from repro.nn.quantization import QuantizationSpec

            meta = pickle.loads(handle.qplan)
            views = attach_store(handle.store)
            bits = meta["bits"]
            self.qplan = QuantizedPlan(
                bits=bits,
                codes={name: views[name] for name in meta["code_names"]},
                weight_scales=meta["weight_scales"],
                ifm_specs={name: QuantizationSpec(bits=bits, scale=scale)
                           for name, scale in meta["ifm_scales"].items()},
                float_store={name: views[name]
                             for name in meta["float_names"]},
            )
        elif handle.store is not None:
            self.store = attach_store(handle.store)
        self.injector = (pickle.loads(handle.injector)
                         if handle.injector is not None else None)


#: per-process plan attachments, cached by the handle token.
_ATTACHED_PLANS: Dict[str, AttachedPlan] = {}


def attach_plan(handle: PlanHandle) -> AttachedPlan:
    """Attach (or return the cached attachment of) an exported plan.

    Caching is per ``handle.token``: every export carries a new token, so a
    process attaching a newer export maps its segments afresh — an older
    attachment stays mapped (safe) until the process exits.
    Returns the :class:`AttachedPlan`.
    """
    plan = _ATTACHED_PLANS.get(handle.token)
    if plan is None:
        plan = AttachedPlan(handle)
        _ATTACHED_PLANS[handle.token] = plan
    return plan


def session_from_plan(handle: PlanHandle) -> InferenceSession:
    """Build a session in this process from an exported plan.

    ``handle`` is a :class:`PlanHandle`; the segments it names are attached
    zero-copy (cached per process by token) and an
    :class:`~repro.engine.session.InferenceSession` is assembled around the
    rebuilt network and the plan's dataset with the exporting session's
    semantics, seed, metric, batch size, execution mode and (when shipped)
    injector.  It adopts the exported integer plan or weight store
    (:meth:`~repro.engine.session.InferenceSession.adopt`), so its
    ``evaluate`` and ``predict`` read, reseed and pad exactly like the
    owner's.  This is the one way a :class:`repro.parallel.PlanPool`
    worker or a :mod:`repro.serve.replica` server process turns a shared
    plan export into an executable session without recompiling or
    re-materializing.  Returns the session.
    """
    plan = attach_plan(handle)
    session = InferenceSession(plan.network, plan.dataset,
                               injector=plan.injector,
                               semantics=ReadSemantics(handle.semantics),
                               metric=handle.metric,
                               batch_size=handle.batch_size,
                               seed=handle.seed,
                               execution_mode=handle.execution_mode)
    session.adopt(store=plan.store, qplan=plan.qplan)
    return session
