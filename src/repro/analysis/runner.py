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

* **injector reuse** — one :class:`~repro.dram.injection.BitErrorInjector`
  (or :class:`~repro.dram.injection.DeviceBackedInjector`) is reused across
  all points of a sweep; per point only the error model / operating point is
  swapped and the RNG restarted, which is stream-identical to constructing a
  fresh injector with that seed;
* **memoized baseline scores** — the injection-free score of a
  (network, dataset, metric) triple is computed once per runner;
* **shared-memory parallelism** — with ``processes=N`` the runner holds one
  :class:`repro.parallel.SweepExecutor`: the network and dataset are
  exported to shared memory once, worker processes attach zero-copy views,
  and every sweep family fans out through the same pool — BER grids
  (:meth:`~ExperimentRunner.ber_sweep`), device operating points
  (:meth:`~ExperimentRunner.device_sweep`), per-tensor BER assignments
  (:meth:`~ExperimentRunner.per_tensor_sweep`) and the repeat loop of a
  single point (:meth:`~ExperimentRunner.score`).  Each task is
  independently seeded with exactly the stream the serial loop would have
  restarted, so parallel results are bit-identical to serial ones.

Seeding conventions differ between the historical call sites (``seed +
repeat`` in the sweeps and retraining, ``seed + repeat * 101`` in the
characterization); ``reseed_stride`` preserves each convention so existing
results stay bit-exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
    work through a persistent :class:`repro.parallel.SweepExecutor` whose
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
        self._executor = None

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
        are evaluated concurrently on the executor and averaged in repeat
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
            return self._sweep_executor().score_repeats(
                injector, repeats=repeats, seed=seed, stride=stride,
                dataset=self._executor_dataset(dataset))
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
        is what makes the executor fan-out below legal.  ``correction``
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

        if self.processes > 1 and len(bers) > 1:
            # One fresh injector per point, pickled into its task — the
            # stream each worker restarts is exactly the serial one.
            injectors = [
                BitErrorInjector(error_model.with_ber(ber), bits=bits,
                                 corrector=corrector, seed=seed, ecc=codec)
                for ber in bers
            ]
            scores = self._sweep_executor().score_many(
                injectors, repeats=repeats, seed=seed, stride=stride)
            return {float(ber): score for ber, score in zip(bers, scores)}

        # Serial path: one injector object, reused across all points.
        injector = BitErrorInjector(error_model, bits=bits, corrector=corrector,
                                    seed=seed, ecc=codec)
        results: Dict[float, float] = {}
        for ber in bers:
            injector.set_error_model(error_model.with_ber(ber))
            results[float(ber)] = self.score(injector, repeats=repeats, seed=seed,
                                             stride=stride)
        return results

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

        One :class:`DeviceBackedInjector` (at ``bits``-bit precision, with
        the optional ``corrector``, averaging ``repeats`` streams from
        ``seed``) serves every point: tensor base addresses are assigned
        once (deterministically, in load order), so the same weak cells
        corrupt the same tensor elements at every operating point — matching
        real-device behaviour and the fresh-injector-per-point results of
        the historical loop.  With ``processes`` > 1 each point runs as its
        own executor task with a fresh, identically-addressed injector —
        bit-identical to the serial loop.  Returns an ``{op_point: score}``
        dict.
        """
        seed = self.seed if seed is None else int(seed)
        repeats = self.repeats if repeats is None else int(repeats)

        if self.processes > 1 and len(op_points) > 1:
            injectors = [
                DeviceBackedInjector(device, op_point, bits=bits,
                                     corrector=corrector, seed=seed)
                for op_point in op_points
            ]
            scores = self._sweep_executor().score_many(
                injectors, repeats=repeats, seed=seed,
                stride=self.reseed_stride)
            return {op: score for op, score in zip(op_points, scores)}

        injector = DeviceBackedInjector(device, op_points[0] if op_points else
                                        DramOperatingPoint.nominal(),
                                        bits=bits, corrector=corrector, seed=seed)
        results: Dict[DramOperatingPoint, float] = {}
        for op_point in op_points:
            injector.set_operating_point(op_point)
            results[op_point] = self.score(injector, repeats=repeats, seed=seed)
        return results

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
        ``processes`` > 1 they fan out over the executor — bit-identical to
        the serial loop, which reuses one injector and swaps the assignment
        per point.  Returns the scores in assignment order.
        """
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)

        if self.processes > 1 and len(assignments) > 1:
            injectors = [
                BitErrorInjector(error_model, bits=bits,
                                 per_tensor_ber=assignment,
                                 corrector=corrector, seed=seed)
                for assignment in assignments
            ]
            return self._sweep_executor().score_many(
                injectors, repeats=repeats, seed=seed, stride=stride,
                dataset=self._executor_dataset(dataset))

        injector = BitErrorInjector(error_model, bits=bits,
                                    corrector=corrector, seed=seed)
        scores: List[float] = []
        for assignment in assignments:
            injector.set_per_tensor_ber(assignment)
            scores.append(self.session.evaluate(dataset, injector=injector,
                                                repeats=repeats, seed=seed,
                                                stride=stride))
        return scores

    # -- executor plumbing --------------------------------------------------------
    def _executor_dataset(self, dataset):
        """Translate a per-call dataset into executor task form.

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

    def _sweep_executor(self):
        """Lazily created, cached :class:`repro.parallel.SweepExecutor`.

        The executor exports the network and dataset to shared memory once
        and keeps its worker pool alive across sweeps; it is shut down by
        :meth:`close` / garbage collection / interpreter exit.  Workers
        snapshot the network at pool creation — a runner (like its serial
        memoization) is bound to one network state, so mutate or retrain
        the network and you need a fresh runner.  ``stats`` only counts
        serial evaluations; worker-side counts stay in the workers.
        Returns the executor.
        """
        if self._executor is None:
            from repro.parallel import SweepExecutor

            self._executor = SweepExecutor(
                self.network, self.dataset, metric=self.metric,
                semantics=self.semantics,
                batch_size=self.session.batch_size,
                processes=self.processes,
            )
        return self._executor

    def close(self) -> None:
        """Shut down the executor pool, if one was started, and the session."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
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
