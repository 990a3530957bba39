"""The inference engine: operating-point-scoped execution of a Network.

EDEN's storage model is *static*: the DNN's weights are written into
approximate DRAM once and then read (with the same stored, possibly-corrupted
bits) by every subsequent inference, while IFMs are transient values that are
rewritten and reread per inference.  The historical evaluation path in this
repo instead re-sampled fresh bit errors into every weight tensor on every
batch — equivalent to re-writing the whole model between batches, and the
dominant cost of every sweep.

:class:`InferenceSession` compiles a :class:`~repro.nn.network.Network` plus
an injector (error model / device operating point / quantization transform)
into an executable plan under one of two read semantics:

* :attr:`ReadSemantics.STATIC_STORE` — the paper-faithful default.  Weight
  tensors are *materialized* into their corrupted form once per operating
  point (one injector pass per tensor, seeded deterministically) and served
  from an in-memory store on every subsequent load; IFM loads still pass
  through the injector per read.  The store is invalidated automatically when
  the session's operating point changes (new error model object, new BER
  assignment, new DRAM operating point).
* :attr:`ReadSemantics.PER_READ` — the historical behavior: every load of
  every tensor draws fresh errors.  Bit-exact with the legacy per-batch path
  for fixed seeds; the right model for transient-error studies (e.g. refresh
  or timing glitches that corrupt the bus rather than the cells).

The session owns batching (``batch_size``) and repeat averaging with the
historical reseeding conventions.  It runs in the calling process; sweeps
fan out across processes through :mod:`repro.parallel`.
"""

from __future__ import annotations

import contextlib
import enum
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.datasets import Dataset
from repro.nn.metrics import evaluate as _metric_evaluate
from repro.nn.network import Network
from repro.nn.quantization import ExecutionMode
from repro.nn.tensor import DataKind, TensorSpec

#: sentinel distinguishing "argument not given" from an explicit None injector.
_UNSET = object()

#: one lock per live Network object (weakly keyed, so a lock's lifetime is
#: exactly its network's).  Sessions install load hooks on the network for
#: the duration of an evaluation/dispatch, and plan exports briefly stub the
#: network's tensors while pickling its skeleton — any two such critical
#: sections on the same network must not overlap.
_NETWORK_LOCKS: "weakref.WeakKeyDictionary[Network, threading.RLock]" = \
    weakref.WeakKeyDictionary()
_NETWORK_LOCKS_GUARD = threading.Lock()


def network_lock(network: Network) -> threading.RLock:
    """Return the canonical lock serializing stateful uses of ``network``.

    The engine installs load hooks on the network during a dispatch and the
    parallel layer stubs its tensors while pickling a skeleton; everything
    that temporarily mutates (or snapshots) a shared network must hold this
    lock.  One re-entrant lock per live network object, weakly keyed.
    """
    with _NETWORK_LOCKS_GUARD:
        lock = _NETWORK_LOCKS.get(network)
        if lock is None:
            lock = _NETWORK_LOCKS[network] = threading.RLock()
        return lock


class DeadlineExceeded(RuntimeError):
    """A dispatch's deadline passed before (or while) the engine served it.

    Raised by :meth:`InferenceSession.predict` when a ``deadline`` is given
    and the monotonic clock passes it at a chunk boundary, and set on request
    futures the serving layer drops at dispatch time (an expired request is
    shed instead of burning a forward pass — see
    :meth:`repro.serve.MicroBatcher.submit`).
    """


class ReadSemantics(enum.Enum):
    """How stored tensors are exposed to DRAM errors during inference."""

    #: weights corrupted once per operating point (paper-faithful storage).
    STATIC_STORE = "static-store"
    #: fresh errors on every load of every tensor (legacy behavior).
    PER_READ = "per-read"


class _StaticStoreReader:
    """Load hook that serves weights from a materialized store.

    Weight loads return the corrupted tensor materialized at session compile
    time (the arrays are treated as read-only by every layer, so no copy is
    taken); any other load — IFMs, or a weight the store does not know —
    passes through the wrapped injector per read.
    """

    __slots__ = ("inner", "store")

    def __init__(self, inner, store: Dict[str, np.ndarray]):
        self.inner = inner
        self.store = store

    def apply(self, array: np.ndarray, spec: TensorSpec) -> np.ndarray:
        cached = self.store.get(spec.name)
        if cached is not None:
            return cached
        if self.inner is None:
            return array
        return self.inner.apply(array, spec)


def _injector_fingerprint(injector) -> tuple:
    """Description of the operating point an injector exposes.

    Error models are immutable (rescaling goes through ``with_ber``, which
    returns a new instance), so identity of the model object — plus the
    per-tensor BER assignment, the DRAM device/operating point/layout and
    the precision — pins down exactly which corrupted store a configuration
    produces.  Objects without value equality (models, correctors, devices)
    are embedded *by reference*: tuple comparison falls back to identity,
    and keeping the tuple as the store key keeps the objects alive, so a
    garbage-collected-and-reallocated object can never alias a cached key.
    Unknown injector types are embedded whole, which can only cause extra
    re-materialization, never a stale store.
    """
    if injector is None:
        return (None,)
    parts: List = [type(injector).__name__, getattr(injector, "bits", None),
                   getattr(injector, "enabled", True)]
    model = getattr(injector, "error_model", None)
    if model is not None:
        parts.append(model)
    per_tensor = getattr(injector, "per_tensor_ber", None)
    if per_tensor is not None:
        parts.append(tuple(sorted(per_tensor.items())))
    for attr in ("device", "op_point", "bank", "layout", "ecc"):
        value = getattr(injector, attr, None)
        if value is not None:
            parts.append(value)
    kinds = getattr(injector, "data_kinds", None)
    if kinds is not None:
        parts.append(tuple(sorted(k.value for k in kinds)))
    corrector = getattr(injector, "corrector", _UNSET)
    if corrector is not _UNSET:
        parts.append(corrector)
    inner = getattr(injector, "inner", None)
    if inner is not None:
        parts.append(_injector_fingerprint(inner))
    if not hasattr(injector, "error_model") and not hasattr(injector, "op_point") \
            and not hasattr(injector, "inner"):
        parts.append(injector)
    return tuple(parts)


def injector_fingerprint(injector) -> tuple:
    """Hashable description of the operating point ``injector`` exposes.

    Two injectors with equal fingerprints produce the same materialized
    weight store for the same seed; the fingerprint is therefore the cache
    key used both by :class:`InferenceSession`'s store invalidation and by
    :class:`repro.serve.SessionRegistry`.  See :func:`_injector_fingerprint`
    for the exact embedding rules (objects without value equality are
    compared by identity).  Returns a hashable tuple.
    """
    return _injector_fingerprint(injector)


def _resolve_codec(correction):
    """Resolve a ``correction=`` argument to an ECC codec model (or None).

    Accepts None (no correction), a codec name registered in
    :data:`repro.core.ecc.CODECS`, or an already-built
    :class:`~repro.core.ecc.RsCodecModel`.
    """
    if correction is None:
        return None
    if isinstance(correction, str):
        from repro.core.ecc import make_codec

        return make_codec(correction)
    return correction


def _reseed(hook, seed: int) -> None:
    """Restart ``hook``'s stream at ``seed`` if it draws random numbers.

    Every drawing hook exposes ``reseed(seed)``; wrappers without a stream
    of their own delegate it to the hook they wrap.
    """
    reseed = getattr(hook, "reseed", None)
    if reseed is not None:
        reseed(seed)


def _resolve_arrays(dataset) -> Tuple[np.ndarray, np.ndarray]:
    """Accept a Dataset (validation split) or an (inputs, labels) pair."""
    if dataset is None:
        raise ValueError(
            "no dataset to evaluate: pass one to evaluate()/baseline() or "
            "construct the InferenceSession with a dataset"
        )
    if isinstance(dataset, Dataset):
        return dataset.val_x, dataset.val_y
    inputs, labels = dataset
    return np.asarray(inputs), np.asarray(labels)


class InferenceSession:
    """Executable plan for evaluating one network under one injection setup.

    Parameters
    ----------
    network, dataset:
        The model and (optionally) the dataset whose validation split
        :meth:`evaluate` scores by default.  ``dataset`` may also be an
        ``(inputs, labels)`` pair.
    injector:
        Any load hook with ``apply(array, spec)`` —
        :class:`~repro.dram.injection.BitErrorInjector`,
        :class:`~repro.dram.injection.DeviceBackedInjector`,
        :class:`~repro.nn.quantization.QuantizedLoadTransform`, or None for
        injection-free evaluation.
    semantics:
        :class:`ReadSemantics`; static-store is the paper-faithful default.
    metric:
        Metric name from :data:`repro.nn.metrics.METRICS` (``"accuracy"`` or
        ``"map"``) that :meth:`evaluate` scores with.
    batch_size:
        Inference batch size (64 matches the historical evaluation path).
    seed, repeats, reseed_stride:
        Defaults for the repeat-averaging loop; per-call overrides win.
    execution_mode:
        :class:`~repro.nn.quantization.ExecutionMode` (or its string name)
        selecting the GEMM path.  ``FP32`` (the default) is the historical
        float path.  ``INTEGER`` compiles the static store into a fused
        integer plan (:mod:`repro.engine.quantized`) and raises if the
        injector does not support one; ``AUTO`` takes the integer path when
        supported and falls back to ``FP32`` otherwise.
    """

    def __init__(self, network: Network, dataset=None, *, injector=None,
                 semantics: ReadSemantics = ReadSemantics.STATIC_STORE,
                 metric: str = "accuracy", batch_size: int = 64,
                 seed: int = 0, repeats: int = 1, reseed_stride: int = 1,
                 execution_mode=ExecutionMode.FP32):
        self.network = network
        self.dataset = dataset
        self.injector = injector
        self.semantics = semantics
        self.metric = metric
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.repeats = int(repeats)
        self.reseed_stride = int(reseed_stride)
        self.execution_mode = ExecutionMode.resolve(execution_mode)
        #: compiled integer plans, keyed by (injector fingerprint, seed).
        self._qplans: Dict[tuple, object] = {}
        #: weight store / integer plan adopted from another process's export
        #: (see :meth:`adopt`); they take precedence over compilation.
        self._adopted_store: Optional[Dict[str, np.ndarray]] = None
        self._adopted_qplan = None
        self._baseline: Optional[float] = None
        self._store: Optional[Dict[str, np.ndarray]] = None
        #: fingerprint the store was materialized for; holds references to
        #: the identity-compared objects inside it (see _injector_fingerprint).
        self._store_key = None
        self._weight_spec_cache: Optional[List[TensorSpec]] = None
        #: cached shared-memory export of the compiled plan (see export_plan);
        #: the config tuple records the store key and injector inclusion it
        #: was built for, so a fingerprint change re-exports.
        self._exported = None
        self._exported_config = None
        self.stats = {"evaluations": 0, "baseline_evaluations": 0,
                      "materializations": 0, "predictions": 0}

    # -- constructors -------------------------------------------------------------
    @classmethod
    def from_error_model(cls, network: Network, dataset, error_model, *,
                         ber: Optional[float] = None, bits: int = 32,
                         per_tensor_ber: Optional[Dict[str, float]] = None,
                         corrector=None, data_kinds=None, seed: int = 0,
                         correction=None, **kwargs) -> "InferenceSession":
        """Session driving injection from a fitted/parametric error model.

        ``correction`` layers symbol-level ECC over the injected loads: pass
        a codec name from :data:`repro.core.ecc.CODECS` (e.g. ``"rs72_64"``)
        or an :class:`~repro.core.ecc.RsCodecModel` instance, and the
        compiled store serves post-correction weights with
        corrected/uncorrectable accounting on the injector.
        """
        from repro.dram.injection import BitErrorInjector

        if ber is not None:
            error_model = error_model.with_ber(ber)
        injector = BitErrorInjector(error_model, bits=bits,
                                    per_tensor_ber=per_tensor_ber,
                                    corrector=corrector, data_kinds=data_kinds,
                                    seed=seed, ecc=_resolve_codec(correction))
        return cls(network, dataset, injector=injector, seed=seed, **kwargs)

    @classmethod
    def from_device(cls, network: Network, dataset, device, op_point, *,
                    bits: int = 32, corrector=None, seed: int = 0,
                    correction=None, **kwargs) -> "InferenceSession":
        """Session reading tensors from an ApproximateDram operating point.

        ``correction`` accepts the same codec name / instance as
        :meth:`from_error_model`, decoding every device read through ECC.
        """
        from repro.dram.injection import DeviceBackedInjector

        injector = DeviceBackedInjector(device, op_point, bits=bits,
                                        corrector=corrector, seed=seed,
                                        ecc=_resolve_codec(correction))
        return cls(network, dataset, injector=injector, seed=seed, **kwargs)

    # -- configuration ------------------------------------------------------------
    def set_injector(self, injector) -> None:
        """Swap the injector (the store re-materializes on next use)."""
        self.injector = injector
        self.invalidate()

    def set_semantics(self, semantics: ReadSemantics) -> None:
        """Switch the session's default read ``semantics`` for later calls."""
        self.semantics = semantics

    def invalidate(self) -> None:
        """Drop the materialized store and the recorded weight-spec scan.

        Call after reconfiguring the network (e.g.
        :meth:`~repro.nn.network.Network.set_data_precision`): the next
        evaluation re-records the load specs and re-materializes.
        """
        self._store = None
        self._store_key = None
        self._weight_spec_cache = None
        # Compiled integer plans derive from the store; an adopted plan is
        # externally owned (shared memory) and survives invalidation.
        self._qplans.clear()
        self._drop_export()

    def _drop_export(self) -> None:
        """Unlink the shared-memory plan export, if one exists."""
        if self._exported is not None:
            self._exported.close()
            self._exported = None
            self._exported_config = None

    # -- materialization ----------------------------------------------------------
    def _weight_specs(self) -> List[TensorSpec]:
        """Weight-kind specs in load order, exactly as the layers produce them.

        Recorded once per session with ``dtype_bits=None`` so each spec keeps
        the precision its layer advertises (``Network.set_data_precision``) —
        injectors and correctors see the same ``spec.dtype_bits`` during
        materialization as they would on a per-read load.  Reconfigure the
        network's precision and call :meth:`invalidate` to re-record.
        """
        if self._weight_spec_cache is None:
            self._weight_spec_cache = self.network.weight_specs(dtype_bits=None)
        return self._weight_spec_cache

    def materialize(self, injector=_UNSET, seed: Optional[int] = None
                    ) -> Dict[str, np.ndarray]:
        """Corrupt every weight tensor once and cache the result.

        The injector's stream is restarted at a salted function of ``seed``
        (the session seed by default) for the materialization pass, so the
        same operating point and seed always produce the same stored weights
        — regardless of what was evaluated before or how large the batches
        are.  The salt keeps the weight-corruption stream disjoint from the
        per-repeat IFM streams (which start at the unsalted ``seed``).  The
        stream is left at the end of the salted pass: every read path
        reseeds before it draws.  Returns the ``{tensor name: corrupted
        array}`` store.
        """
        injector = self.injector if injector is _UNSET else injector
        seed = self.seed if seed is None else int(seed)
        key = (_injector_fingerprint(injector), seed)
        if self._store is not None and self._store_key == key:
            return self._store
        store: Dict[str, np.ndarray] = {}
        if injector is not None:
            params = self.network.named_parameters()
            _reseed(injector, seed ^ _MATERIALIZE_SEED_SALT)
            for spec in self._weight_specs():
                store[spec.name] = injector.apply(params[spec.name].data, spec)
            self.stats["materializations"] += 1
        self._store = store
        self._store_key = key
        return store

    def materialized_weights(self) -> Optional[Dict[str, np.ndarray]]:
        """Return the current corrupted weight store.

        ``None`` before materialization (or after :meth:`invalidate`).
        """
        return self._store

    def export_plan(self, *, include_injector: bool = False):
        """Export the compiled plan to shared memory for worker processes.

        Materializes the weight store (when the session has an injector
        under static-store semantics; per-read sessions export no store)
        and packs it — together with the clean weights, the network
        skeleton and the dataset's validation split — into shared-memory
        segments keyed by the session's current injector fingerprint.  The export is cached:
        repeated calls under an unchanged fingerprint return the same
        :class:`repro.parallel.plan.ExportedPlan`, while a changed
        fingerprint (or :meth:`invalidate`) unlinks the stale segments and
        re-exports under a fresh token, which attached workers pick up on
        their next task — fingerprint invalidation across processes.
        ``include_injector`` additionally ships a static-store session's
        pickled injector, for workers serving per-dispatch IFM errors
        (per-read sessions always ship theirs).  Returns the
        :class:`~repro.parallel.plan.ExportedPlan` (owned by the session;
        dropped by :meth:`invalidate`).
        """
        # Late import: repro.parallel sits above the engine in the layer map
        # (the same documented exception repro.serve uses for reporting).
        from repro.parallel.plan import export_session_plan

        if self.injector is not None and \
                self.semantics is ReadSemantics.STATIC_STORE:
            # Per-read sessions export no store — materializing one would be
            # pure waste; static-store sessions materialize here so the
            # config below reflects the store actually exported.
            self.materialize()
        config = (_injector_fingerprint(self.injector), self.seed,
                  self.semantics, bool(include_injector))
        if self._exported is not None and self._exported_config == config:
            return self._exported
        self._drop_export()
        self._exported = export_session_plan(self,
                                             include_injector=include_injector)
        self._exported_config = config
        return self._exported

    # -- integer execution --------------------------------------------------------
    def _integer_mode_active(self, injector, semantics) -> bool:
        """Whether a call with this ``injector``/``semantics`` runs fused.

        Raises ``ValueError`` when the mode is an explicit ``INTEGER`` but
        the configuration cannot support it (wrong injector type or
        per-read semantics) — a silent FP32 fallback there would misreport
        what was measured.  ``AUTO`` falls back instead.
        """
        if self._adopted_qplan is not None:
            return True
        if injector is None or self.execution_mode is ExecutionMode.FP32:
            return False
        from repro.engine.quantized import integer_plan_supported

        supported = (semantics is ReadSemantics.STATIC_STORE
                     and integer_plan_supported(injector))
        if self.execution_mode is ExecutionMode.INTEGER and not supported:
            raise ValueError(
                "execution_mode=INTEGER needs static-store semantics and a "
                "QuantizedLoadTransform at int4/int8/int16 (without an ECC "
                "corrector); use AUTO for a graceful FP32 fallback")
        return supported

    def _quantized_plan(self, injector, seed: int):
        """The compiled (or adopted) integer plan for this operating point."""
        if self._adopted_qplan is not None:
            return self._adopted_qplan
        key = (_injector_fingerprint(injector), int(seed))
        plan = self._qplans.get(key)
        if plan is None:
            from repro.engine.quantized import compile_quantized_plan

            plan = compile_quantized_plan(self, injector, seed=seed)
            self._qplans[key] = plan
        return plan

    def adopt(self, *, store: Optional[Dict[str, np.ndarray]] = None,
              qplan=None) -> None:
        """Serve an exported weight ``store`` or integer ``qplan`` directly.

        Used by sessions rebuilt in worker processes
        (:func:`repro.parallel.session_from_plan`): the owner materializes
        the store or compiles the :class:`QuantizedPlan` once and exports
        it through shared memory; the worker adopts the rebuilt arrays
        instead of re-materializing or re-compiling.  An adopted store pins
        static-store reads to it (the session's injector, when shipped,
        still serves per-read IFM loads); an adopted plan pins the session
        to integer execution.  Both survive :meth:`invalidate`.
        """
        self._adopted_store = store
        self._adopted_qplan = qplan

    def shape_exact(self) -> bool:
        """Return whether :meth:`predict` runs a fused integer plan.

        Such a plan is exact at any batch shape, so it runs each batch at
        its own row count and its cost scales with the rows; an FP32 plan
        pads every batch to ``pad_to`` instead.  :meth:`predict` pads by
        this predicate and the serving gateway gives a shape-exact endpoint
        no straggler wait.  A configuration that cannot run integer
        execution reads ``False`` (its :meth:`predict` raises).
        """
        try:
            return self._integer_mode_active(self.injector, self.semantics)
        except ValueError:
            return False

    def mode_label(self) -> str:
        """Wire-format label of the session's GEMM path.

        Returns ``"int{bits}"`` (e.g. ``"int8"``) when the session executes
        through a fused integer plan, else ``"fp32"`` — the string
        ``GET /v1/models`` advertises per endpoint.
        """
        if not self.shape_exact():
            return "fp32"
        source = (self.injector if self._adopted_qplan is None
                  else self._adopted_qplan)
        return f"int{source.bits}"

    # -- execution ----------------------------------------------------------------
    @contextlib.contextmanager
    def _bound(self, injector, semantics: ReadSemantics, seed: int,
               ifm_errors: bool):
        """Install one call's execution setup on the network, then restore it.

        The setup is one of two shapes:

        * the fused integer plan's kernels plus a reader serving its float
          store — IFMs are read from reliable DRAM, and any order or shape
          of rows gives the same bits;
        * a load hook — the static-store reader (weights from the
          materialized or adopted store, IFMs through the injector when
          ``ifm_errors``), the injector itself under per-read semantics,
          or, with no injector, whatever hook the network already has.

        The injector that stays live on reads is reseeded at ``seed``.  The
        whole critical section holds :func:`network_lock` and runs in eval
        mode.  Yields ``live``: the injector drawing fresh errors on reads
        (None when absent).
        """
        qplan = (self._quantized_plan(injector, seed)
                 if self._integer_mode_active(injector, semantics) else None)
        network = self.network
        with network_lock(network):
            if qplan is not None:
                live = None
                # Every GEMM weight became codes behind a kernel; only a
                # non-empty float store needs a hook.
                hook = (_StaticStoreReader(None, qplan.float_store)
                        if qplan.float_store else None)
            else:
                per_read = semantics is ReadSemantics.PER_READ
                live = injector if (ifm_errors or per_read) else None
                store = self._adopted_store
                if store is None and injector is not None and not per_read:
                    store = self.materialize(injector, seed=seed)
                if per_read or store is None:
                    hook = (network.fault_injector if injector is None
                            else injector)
                else:
                    hook = _StaticStoreReader(live, store)
            with network.loading(hook):
                if qplan is not None:
                    qplan.install(network)
                try:
                    _reseed(live, seed)
                    yield live
                finally:
                    if qplan is not None:
                        qplan.uninstall(network)

    # -- evaluation ---------------------------------------------------------------
    def baseline(self, dataset=None) -> float:
        """Return the injection-free validation score on ``dataset``.

        Defaults to the session's own dataset, for which it is memoized.
        """
        if dataset is not None and dataset is not self.dataset:
            inputs, labels = _resolve_arrays(dataset)
            return float(_metric_evaluate(self.network, inputs, labels,
                                          metric=self.metric,
                                          batch_size=self.batch_size))
        if self._baseline is None:
            self.stats["baseline_evaluations"] += 1
            inputs, labels = _resolve_arrays(self.dataset)
            self._baseline = float(_metric_evaluate(self.network, inputs, labels,
                                                    metric=self.metric,
                                                    batch_size=self.batch_size))
        return self._baseline

    def evaluate(self, dataset=None, metric: Optional[str] = None, *,
                 injector=_UNSET, semantics: Optional[ReadSemantics] = None,
                 repeats: Optional[int] = None, seed: Optional[int] = None,
                 stride: Optional[int] = None) -> float:
        """Mean validation score under the session's injection setup.

        Every argument defaults to the session's own setting: ``dataset``
        and ``metric`` select what is scored, ``injector``/``semantics``
        override the injection setup, and ``repeats``/``seed``/``stride``
        drive the repeat-averaging loop.  The injector's stream is
        restarted at ``seed + repeat * stride`` before each repeat (matching
        every historical call site); in static-store mode the reseed only
        affects the transient IFM stream — the weight store stays fixed
        across repeats, as a real DRAM module would behave.  Returns the
        score averaged over repeats.
        """
        injector = self.injector if injector is _UNSET else injector
        semantics = self.semantics if semantics is None else semantics
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)
        metric = self.metric if metric is None else metric
        inputs, labels = _resolve_arrays(dataset if dataset is not None
                                         else self.dataset)
        scores: List[float] = []
        with self._bound(injector, semantics, seed, ifm_errors=True) as live:
            for repeat in range(repeats):
                _reseed(live, seed + repeat * stride)
                self.stats["evaluations"] += 1
                scores.append(_metric_evaluate(self.network, inputs, labels,
                                               metric=metric,
                                               batch_size=self.batch_size))
        return float(np.mean(scores))

    # -- serving ------------------------------------------------------------------
    def predict(self, inputs: np.ndarray, *, pad_to: Optional[int] = None,
                ifm_errors: bool = False, seed: Optional[int] = None,
                deadline: Optional[float] = None) -> np.ndarray:
        """Raw network outputs for ``inputs`` under the compiled plan.

        This is the serving entry point used by :mod:`repro.serve`: instead
        of scoring a metric over a dataset it returns the network's output
        rows, aligned with the ``inputs`` rows.

        Parameters
        ----------
        inputs:
            Array of shape ``(n,) + network.input_shape``.
        pad_to:
            When set, every forward pass runs at the *fixed* batch shape
            ``(pad_to,) + input_shape``: inputs are processed in chunks of
            ``pad_to`` rows, the last chunk zero-padded, and the padding rows
            sliced off the result.  Static shapes make each row's output
            independent of how many (and which) other requests share its
            batch — the property the micro-batcher's bit-identity guarantee
            rests on (BLAS kernels round differently for different matrix
            shapes, so *dynamic* batch shapes do not have it).  A fused
            integer plan is exact at any batch shape
            (:meth:`shape_exact`), so it chunks by ``pad_to`` without
            padding: the forward pass sees the batch's own row count.
            ``None`` chunks by the session's ``batch_size`` without
            padding.
        ifm_errors:
            Static-store mode serves weights from the materialized store and,
            by default, IFMs from reliable DRAM (no injection) — batching
            then cannot perturb results.  ``True`` additionally routes IFM
            loads through the injector, reseeded at ``seed`` per call:
            deterministic per dispatch, but a row's errors depend on its
            position in the batch, so coalesced and serial dispatches
            diverge.
        seed:
            Stream seed for this call (defaults to the session seed); used to
            key the store materialization and to reseed per-read/IFM streams.
        deadline:
            Optional absolute :func:`time.perf_counter` timestamp.  Checked
            before each chunk's forward pass: once the clock passes it,
            :class:`DeadlineExceeded` is raised instead of computing rows
            nobody will wait for.  A dispatch already past its deadline
            therefore costs nothing; one that expires mid-call aborts at the
            next chunk boundary (individual forward passes are never
            interrupted).

        Returns the stacked output rows as a float32 array of shape
        ``(n, num_classes)``.
        """
        inputs = np.asarray(inputs, dtype=np.float32)
        expected = tuple(self.network.input_shape)
        if inputs.shape[1:] != expected:
            raise ValueError(
                f"predict() expects inputs of shape (n,) + {expected}, "
                f"got {inputs.shape}"
            )
        seed = self.seed if seed is None else int(seed)
        exact = self.shape_exact()
        if ifm_errors and exact:
            raise ValueError(
                "integer execution serves IFMs from reliable DRAM; use "
                "execution_mode=FP32 (or AUTO without a quantized "
                "transform) for ifm_errors=True")
        chunk = int(pad_to) if pad_to else self.batch_size
        outputs: List[np.ndarray] = []
        pad = bool(pad_to) and not exact
        with self._bound(self.injector, self.semantics, seed, ifm_errors):
            for start in range(0, len(inputs), chunk):
                if deadline is not None and time.perf_counter() > deadline:
                    raise DeadlineExceeded(
                        f"deadline passed with {len(inputs) - start} of "
                        f"{len(inputs)} rows unserved")
                block = inputs[start:start + chunk]
                if pad and len(block) < chunk:
                    padded = np.zeros((chunk,) + block.shape[1:],
                                      dtype=block.dtype)
                    padded[:len(block)] = block
                    outputs.append(self.network.forward(padded)[:len(block)])
                else:
                    outputs.append(self.network.forward(block))
        self.stats["predictions"] += len(inputs)
        if not outputs:
            return np.empty((0, self.network.num_classes), dtype=np.float32)
        return np.concatenate(outputs)

    def close(self) -> None:
        """Release what the session owns: unlink its shared-memory export.

        Processes that adopted the export through
        :meth:`~repro.parallel.plan.ExportedPlan.retain` keep the segments
        attachable until they call ``release()``.
        """
        self._drop_export()

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: XOR salt separating the weight-materialization stream from the per-repeat
#: IFM streams: repeat 0 reseeds at `seed`, so materializing at the same
#: value would make stored-weight and IFM error positions perfectly
#: correlated instead of independent draws.
_MATERIALIZE_SEED_SALT = 0x5EED5EED


def evaluate(network: Network, dataset, injector=None, *,
             metric: str = "accuracy",
             semantics: ReadSemantics = ReadSemantics.PER_READ,
             repeats: int = 1, seed: int = 0, reseed_stride: int = 1,
             batch_size: int = 64) -> float:
    """One-shot scoring helper: the shared install/reseed/evaluate/restore loop.

    This is the single copy of the loop that used to be duplicated across the
    sweep, characterization, retraining and table modules: score ``network``
    on ``dataset`` with ``injector`` installed, at ``batch_size``, averaging
    ``repeats`` streams reseeded at ``seed + repeat * reseed_stride``, under
    the named ``metric``.  ``semantics`` defaults to
    :attr:`ReadSemantics.PER_READ` so existing call sites keep their
    historical (bit-exact) results; pass
    :attr:`ReadSemantics.STATIC_STORE` for paper-faithful stored-weight
    behavior.  Callers that score repeatedly should hold an
    :class:`InferenceSession`, which caches the materialized store and the
    weight-spec scan across calls.  Returns the mean validation score.
    """
    session = InferenceSession(network, dataset, injector=injector,
                               semantics=semantics, metric=metric,
                               batch_size=batch_size, seed=seed,
                               repeats=repeats, reseed_stride=reseed_stride)
    return session.evaluate()
