"""Unified sweep runner for every injection experiment.

Before this module existed, :mod:`repro.analysis.sweep`,
:mod:`repro.core.characterization`, :mod:`repro.core.boosting` and the figure
benchmarks each carried their own copy of the same loop: install an injector
on the network, reseed it per repeat, evaluate, average, restore the previous
injector.  That loop now lives in
:class:`repro.engine.session.InferenceSession` (which also owns batching and
the static-store/per-read read semantics); :class:`ExperimentRunner` binds one
session to a (network, dataset, metric) triple and adds the sweep vocabulary
plus the things the historical copies could not share:

* **one injector per sweep point** — BER grids
  (:meth:`~ExperimentRunner.ber_sweep`), device operating points
  (:meth:`~ExperimentRunner.device_sweep`) and per-tensor BER assignments
  (:meth:`~ExperimentRunner.per_tensor_sweep`) each build their points'
  injectors up front.  Each point restarts its own stream at the same seed,
  so points are order-independent;
* **memoized baseline scores** — the injection-free score of a
  (network, dataset, metric) triple is computed once per runner;
* **shared-memory parallelism** — with ``processes=N`` the runner holds one
  :class:`repro.parallel.PlanPool` over its injector-free session: the
  network and dataset are exported to shared memory once, worker processes
  attach zero-copy views, and the sweeps' points as well as the repeat loop
  of a single point (:meth:`~ExperimentRunner.score`) fan out through it.
  Each task is seeded with exactly the stream the serial loop restarts, so
  parallel results are bit-identical to serial ones.

Seeding conventions differ between the historical call sites (``seed +
repeat`` in the sweeps and retraining, ``seed + repeat * 101`` in the
characterization); ``reseed_stride`` preserves each convention so existing
results stay bit-exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import ErrorModel
from repro.dram.injection import BitErrorInjector, Corrector, DeviceBackedInjector
from repro.engine.session import InferenceSession, ReadSemantics, _resolve_codec
from repro.nn.datasets import Dataset
from repro.nn.network import Network


class ExperimentRunner:
    """Scores one network/dataset pair under many injection scenarios.

    The install/reseed/evaluate/restore loop itself lives in
    :class:`repro.engine.session.InferenceSession`; the runner binds one
    session to the (network, dataset, metric) triple and layers the sweep
    vocabulary (BER grids, device operating points, per-tensor BER
    assignments, shared-memory fan-out of sweep points) on top.
    ``semantics`` selects the session's read semantics: the default
    :attr:`ReadSemantics.PER_READ` reproduces the historical per-batch
    injection results bit-exactly, while :attr:`ReadSemantics.STATIC_STORE`
    materializes corrupted weights once per operating point (paper-faithful,
    and integer factors faster on weight-dominated sweeps).

    ``seed``, ``repeats`` and ``reseed_stride`` set the default
    repeat-averaging loop (each repeat restarts the injection stream at
    ``seed + repeat * reseed_stride``); ``processes`` > 1 routes independent
    work through a persistent :class:`repro.parallel.PlanPool` whose
    workers hold zero-copy shared-memory views of the network and dataset.
    """

    def __init__(self, network: Network, dataset: Dataset, *,
                 metric: str = "accuracy", seed: int = 0,
                 repeats: int = 1, reseed_stride: int = 1,
                 processes: int = 0,
                 semantics: ReadSemantics = ReadSemantics.PER_READ):
        self.network = network
        self.dataset = dataset
        self.metric = metric
        self.seed = int(seed)
        self.repeats = int(repeats)
        self.reseed_stride = int(reseed_stride)
        self.processes = int(processes)
        self.semantics = semantics
        self.session = InferenceSession(
            network, dataset, semantics=semantics, metric=metric, seed=seed,
            repeats=repeats, reseed_stride=reseed_stride,
        )
        self._plan_pool = None

    @property
    def stats(self) -> Dict[str, int]:
        """Evaluation counters of the underlying session (serial path only)."""
        return self.session.stats

    # -- the shared loop ----------------------------------------------------------
    def baseline(self, dataset: Optional[Dataset] = None) -> float:
        """Injection-free validation score on ``dataset``.

        Memoized only for the runner's own dataset: ad-hoc datasets (e.g.
        subsamples) are evaluated fresh, and a runner is bound to one network
        state — retraining the network warrants a new runner.  Returns the
        score.
        """
        return self.session.baseline(dataset)

    def score(self, injector, *, repeats: Optional[int] = None,
              seed: Optional[int] = None, stride: Optional[int] = None,
              dataset: Optional[Dataset] = None) -> float:
        """Mean validation score with ``injector`` installed.

        The injector's RNG is restarted at ``seed + repeat * stride`` before
        each of the ``repeats`` streams (injection is stochastic; averaging
        a few streams tames the noise), and the network's previous injector
        is always restored.  ``dataset`` defaults to the runner's own.
        Under static-store semantics the weights are materialized once per
        operating point and only the IFM stream is reseeded per repeat.
        With ``processes`` > 1 and several repeats, per-read repeat streams
        are evaluated concurrently on the pool and averaged in repeat
        order — bit-identical to the serial mean.  (Static-store repeats
        stay serial: they share one weight store materialized at the base
        ``seed``, which an isolated per-repeat task would have to rebuild
        at its shifted seed, changing the stored weights.)  Returns the
        score averaged over repeats.
        """
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)
        if (self.processes > 1 and repeats > 1 and injector is not None
                and self.semantics is ReadSemantics.PER_READ):
            # Repeat r as its own task at the stream the serial loop
            # restarts, averaged in repeat order.
            pool, shipped = self._pool(), self._pool_dataset(dataset)
            futures = [pool.submit(InferenceSession.evaluate, shipped,
                                   injector=injector, repeats=1,
                                   seed=seed + repeat * stride, stride=stride)
                       for repeat in range(repeats)]
            return float(np.mean([future.result() for future in futures]))
        return self.session.evaluate(dataset, injector=injector,
                                     repeats=repeats, seed=seed, stride=stride)

    def evaluate(self, injector=None, *, repeats: Optional[int] = None,
                 seed: Optional[int] = None, stride: Optional[int] = None,
                 dataset: Optional[Dataset] = None) -> float:
        """Score ``injector`` (or the baseline when it is None) in one call.

        ``repeats``/``seed``/``stride``/``dataset`` forward to :meth:`score`.
        Returns :meth:`baseline` for ``injector=None``, else :meth:`score`.
        """
        if injector is None:
            return self.baseline(dataset)
        return self.score(injector, repeats=repeats, seed=seed, stride=stride,
                          dataset=dataset)

    # -- model-driven sweeps ------------------------------------------------------
    def ber_sweep(self, error_model: ErrorModel, bers: Sequence[float], *,
                  bits: int = 32, corrector: Optional[Corrector] = None,
                  correction=None,
                  repeats: Optional[int] = None, seed: Optional[int] = None,
                  stride: Optional[int] = None) -> Dict[float, float]:
        """Score at each bit error rate in ``bers`` (the Figure 8/10 x-axis).

        Every point rescales the base ``error_model`` to the target BER and
        restarts the injection stream (``repeats`` streams from ``seed``
        spaced by ``stride``), injecting at ``bits``-bit precision through
        the optional ``corrector`` — so points are order-independent, which
        is what makes the pool fan-out legal.  ``correction``
        (a codec name from :data:`repro.core.ecc.CODECS` or an
        :class:`~repro.core.ecc.RsCodecModel`) layers symbol-level ECC over
        every injected load, scoring the post-correction weights; see
        :meth:`ecc_sweep` for the variant that also returns the decode
        accounting.  Returns a ``{ber: score}`` dict.
        """
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)
        codec = _resolve_codec(correction)
        injectors = [BitErrorInjector(error_model.with_ber(ber), bits=bits,
                                      corrector=corrector, seed=seed, ecc=codec)
                     for ber in bers]
        scores = self._score_points(injectors, repeats=repeats, seed=seed,
                                    stride=stride)
        return {float(ber): score for ber, score in zip(bers, scores)}

    def ecc_sweep(self, error_model: ErrorModel, bers: Sequence[float], *,
                  bits: int = 32, correction="rs72_64",
                  repeats: Optional[int] = None, seed: Optional[int] = None,
                  stride: Optional[int] = None) -> Dict[float, Dict[str, float]]:
        """Raw vs ECC-corrected score plus decode accounting per BER point.

        At every rate in ``bers`` the base ``error_model`` is rescaled and
        scored twice under identical injection streams (``repeats`` streams
        from ``seed`` spaced by ``stride``, ``bits``-bit precision): once
        raw, once decoding each load through the ``correction`` codec (name
        or :class:`~repro.core.ecc.RsCodecModel`).  Points always run
        serially so the codec accounting stays in-process.  Returns
        ``{ber: {"raw", "corrected", "codewords", "corrected_codewords",
        "corrected_symbols", "uncorrectable_codewords",
        "miscorrected_codewords"}}``.
        """
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)
        codec = _resolve_codec(correction)

        counters = ("codewords", "corrected_codewords", "corrected_symbols",
                    "uncorrectable_codewords", "miscorrected_codewords")
        raw_injector = BitErrorInjector(error_model, bits=bits, seed=seed)
        ecc_injector = BitErrorInjector(error_model, bits=bits, seed=seed,
                                        ecc=codec)
        results: Dict[float, Dict[str, float]] = {}
        for ber in bers:
            point_model = error_model.with_ber(ber)
            raw_injector.set_error_model(point_model)
            ecc_injector.set_error_model(point_model)
            raw = self.session.evaluate(injector=raw_injector,
                                        repeats=repeats, seed=seed,
                                        stride=stride)
            before = {key: ecc_injector.ecc_stats[key] for key in counters}
            corrected = self.session.evaluate(injector=ecc_injector,
                                              repeats=repeats, seed=seed,
                                              stride=stride)
            point = {"raw": raw, "corrected": corrected}
            for key in counters:
                point[key] = int(ecc_injector.ecc_stats[key]) - int(before[key])
            results[float(ber)] = point
        return results

    # -- device-backed sweeps -----------------------------------------------------
    def device_sweep(self, device: ApproximateDram,
                     op_points: Sequence[DramOperatingPoint], *,
                     bits: int = 32, corrector: Optional[Corrector] = None,
                     repeats: Optional[int] = None, seed: Optional[int] = None,
                     ) -> Dict[DramOperatingPoint, float]:
        """Score with tensors read from ``device`` at each of ``op_points``.

        Each point gets its own :class:`DeviceBackedInjector` (at
        ``bits``-bit precision, with the optional ``corrector``, averaging
        ``repeats`` streams from ``seed``).  Tensor base addresses are
        assigned deterministically in load order, so every injector maps
        the same tensor elements onto the same weak cells — matching
        real-device behaviour.  With ``processes`` > 1 the points run as
        pool tasks, bit-identical to the serial loop.  Returns an
        ``{op_point: score}`` dict.
        """
        seed = self.seed if seed is None else int(seed)
        repeats = self.repeats if repeats is None else int(repeats)
        injectors = [DeviceBackedInjector(device, op_point, bits=bits,
                                          corrector=corrector, seed=seed)
                     for op_point in op_points]
        scores = self._score_points(injectors, repeats=repeats, seed=seed,
                                    stride=self.reseed_stride)
        return {op: score for op, score in zip(op_points, scores)}

    # -- per-tensor sweeps --------------------------------------------------------
    def per_tensor_sweep(self, error_model: ErrorModel,
                         assignments: Sequence[Dict[str, float]], *,
                         bits: int = 32,
                         corrector: Optional[Corrector] = None,
                         repeats: Optional[int] = None,
                         seed: Optional[int] = None,
                         stride: Optional[int] = None,
                         dataset: Optional[Dataset] = None) -> List[float]:
        """Score a list of per-tensor BER ``assignments`` (fine-grained axis).

        Each assignment maps tensor names to the BER their DRAM partition
        would exhibit (the fine-grained mapping vocabulary); every one is
        scored with ``error_model`` rescaled per tensor, at ``bits``-bit
        precision through the optional ``corrector``, averaging ``repeats``
        streams from ``seed`` spaced by ``stride`` on ``dataset`` (the
        runner's own by default).  Assignments are independent, so with
        ``processes`` > 1 they fan out over the pool — bit-identical to the
        serial loop.  Returns the scores in assignment order.
        """
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)
        injectors = [BitErrorInjector(error_model, bits=bits,
                                      per_tensor_ber=assignment,
                                      corrector=corrector, seed=seed)
                     for assignment in assignments]
        return self._score_points(injectors, repeats=repeats, seed=seed,
                                  stride=stride, dataset=dataset)

    # -- pool plumbing ------------------------------------------------------------
    def _score_points(self, injectors: Sequence, *, repeats: int, seed: int,
                      stride: int, dataset: Optional[Dataset] = None
                      ) -> List[float]:
        """Score each sweep point's injector; returns scores in input order.

        With ``processes`` > 1 and more than one point, every point is one
        pool task (its injector pickled in, restarting the same streams);
        otherwise the points run serially through :meth:`score`.
        """
        if self.processes > 1 and len(injectors) > 1:
            pool, shipped = self._pool(), self._pool_dataset(dataset)
            futures = [pool.submit(InferenceSession.evaluate, shipped,
                                   injector=injector, repeats=repeats,
                                   seed=seed, stride=stride)
                       for injector in injectors]
            return [float(future.result()) for future in futures]
        return [self.score(injector, repeats=repeats, seed=seed,
                           stride=stride, dataset=dataset)
                for injector in injectors]

    def _pool_dataset(self, dataset):
        """Translate a per-call dataset into pool task form.

        ``None`` (and the runner's own dataset) mean "use the shared-memory
        copy the workers already hold"; anything else ships its arrays
        inline with each task.  Returns ``None`` or an ``(inputs, labels)``
        pair.
        """
        if dataset is None or dataset is self.dataset:
            return None
        if isinstance(dataset, Dataset):
            return (dataset.val_x, dataset.val_y)
        return dataset

    def _pool(self):
        """Lazily created, cached :class:`repro.parallel.PlanPool`.

        The pool exports the runner's injector-free session (network,
        dataset, metric, semantics, batch size) to shared memory once and
        keeps its workers alive across sweeps; it is shut down by
        :meth:`close` / garbage collection / interpreter exit.  Workers
        snapshot the network at pool creation — a runner (like its serial
        memoization) is bound to one network state, so mutate or retrain
        the network and you need a fresh runner.  ``stats`` only counts
        serial evaluations; worker-side counts stay in the workers.
        Returns the pool.
        """
        if self._plan_pool is None:
            from repro.parallel import PlanPool

            self._plan_pool = PlanPool(self.session, processes=self.processes)
        return self._plan_pool

    def close(self) -> None:
        """Shut down the worker pool, if one was started, and the session."""
        if self._plan_pool is not None:
            self._plan_pool.close()
            self._plan_pool = None
        self.session.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
