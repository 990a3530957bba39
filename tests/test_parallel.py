"""Shared-memory parallel executor: parallel results must equal serial ones.

The contract of :mod:`repro.parallel` is *bit-identity*: every sweep family
(BER grids, device operating points, per-tensor assignments, repeat
averaging, the coarse characterization search) and multi-process serving
dispatch must produce exactly the serial results — the executor only changes
where the work runs, never which streams are drawn.  These tests pin that,
plus the shared-memory plumbing itself (zero-copy round trips, skeleton
stripping leaving the live network untouched, fingerprint-keyed re-export).
"""

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner
from repro.core.characterization import coarse_grained_characterization
from repro.core.config import AccuracyTarget, EdenConfig
from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.engine.session import InferenceSession, ReadSemantics
from repro.nn.models import build_model_with_dataset
from repro.nn.network import Network
from repro.nn.quantization import QuantizedLoadTransform
from repro.nn.tensor import DataKind
from repro.parallel import (
    PlanDispatcher,
    SharedTensorStore,
    SweepExecutor,
    attach_plan,
    attach_store,
    export_session_plan,
    network_skeleton,
    restore_network,
    session_from_plan,
)
from repro.serve import ServeConfig, ServingGateway

from tests.conftest import TEST_GEOMETRY

BERS = (1e-4, 1e-3, 1e-2)


class TestSharedTensorStore:
    def test_roundtrip_and_read_only(self, rng):
        arrays = {
            "a": rng.standard_normal((4, 5)).astype(np.float32),
            "b": np.arange(7, dtype=np.int64),
        }
        store = SharedTensorStore.create(arrays)
        try:
            views = attach_store(store.handle)
            assert set(views) == {"a", "b"}
            for name in arrays:
                assert views[name].dtype == arrays[name].dtype
                assert views[name].tobytes() == arrays[name].tobytes()
            with pytest.raises((ValueError, RuntimeError)):
                views["a"][0, 0] = 1.0
        finally:
            store.close()

    def test_attachments_cached_by_token(self, rng):
        store = SharedTensorStore.create({"x": rng.standard_normal(8)})
        try:
            assert attach_store(store.handle)["x"] is attach_store(store.handle)["x"]
        finally:
            store.close()


class TestNetworkSkeleton:
    def test_restored_network_is_bit_identical(self, lenet_clone):
        network, dataset, _ = lenet_clone
        network.eval()
        x = np.asarray(dataset.val_x[:8])
        reference = network.forward(x)

        plan = export_session_plan(InferenceSession(network, dataset))
        try:
            # An injector-free session ships no store, injector or
            # quantized plan: workers materialize their own per task.
            assert plan.handle.store is None
            assert plan.handle.injector is None
            assert plan.handle.qplan is None
            attached = attach_plan(plan.handle)
            assert attached.network.forward(x).tobytes() == reference.tobytes()
            inputs, labels = attached.dataset
            assert inputs.tobytes() == np.asarray(dataset.val_x).tobytes()
            assert labels.tobytes() == np.asarray(dataset.val_y).tobytes()
        finally:
            plan.close()

    def test_stripping_leaves_live_network_untouched(self, lenet_clone):
        network, dataset, _ = lenet_clone
        network.eval()
        network.forward(np.asarray(dataset.val_x[:4]))   # populate caches
        injector = BitErrorInjector(make_error_model(0, 0.0, seed=0))
        network.set_fault_injector(injector)
        before = {p.name: p.data for p in network.parameters()}
        caches = {id(l): dict(vars(l)) for l in network.leaf_layers()}

        skeleton = network_skeleton(network)
        assert len(skeleton) < 64 * 1024      # structure only, no payloads

        assert network.fault_injector is injector
        for param in network.parameters():
            assert param.data is before[param.name]
        for layer in network.leaf_layers():
            for name, value in caches[id(layer)].items():
                assert vars(layer)[name] is value
        network.set_fault_injector(None)

        restored = restore_network(skeleton,
                                   {p.name: p.data for p in network.parameters()})
        x = np.asarray(dataset.val_x[:4])
        assert restored.forward(x).tobytes() == network.forward(x).tobytes()


class TestSweepExecutorParity:
    def test_score_matches_serial_session(self, lenet_clone):
        network, dataset, spec = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        session = InferenceSession(network, dataset, metric=spec.metric,
                                   semantics=ReadSemantics.PER_READ)
        serial = session.evaluate(injector=BitErrorInjector(model, seed=3),
                                  repeats=2, seed=3, stride=101)
        with SweepExecutor(network, dataset, metric=spec.metric,
                           semantics=ReadSemantics.PER_READ,
                           processes=2) as executor:
            parallel = executor.score_many([BitErrorInjector(model, seed=3)],
                                           repeats=2, seed=3, stride=101)[0]
            fanned = executor.score_repeats(BitErrorInjector(model, seed=3),
                                            repeats=2, seed=3, stride=101)
        assert serial == parallel == fanned

    def test_static_store_semantics_match(self, lenet_clone):
        network, dataset, spec = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        session = InferenceSession(network, dataset, metric=spec.metric,
                                   semantics=ReadSemantics.STATIC_STORE)
        serial = session.evaluate(injector=BitErrorInjector(model, seed=1),
                                  repeats=2, seed=1, stride=1)
        with SweepExecutor(network, dataset, metric=spec.metric,
                           semantics=ReadSemantics.STATIC_STORE,
                           processes=2) as executor:
            parallel = executor.score_many([BitErrorInjector(model, seed=1)],
                                           repeats=2, seed=1, stride=1)[0]
        assert serial == parallel


class TestRunnerParallelism:
    def test_device_sweep_parallel_equals_serial(self, lenet_clone):
        network, dataset, _ = lenet_clone
        device = ApproximateDram("A", geometry=TEST_GEOMETRY, seed=1)
        op_points = [
            DramOperatingPoint.from_reductions(
                delta_vdd=delta, nominal_vdd=device.nominal_vdd,
                nominal_timing=device.nominal_timing)
            for delta in (0.10, 0.20, 0.30)
        ]
        with ExperimentRunner(network, dataset, seed=2) as runner:
            serial = runner.device_sweep(device, op_points)
        with ExperimentRunner(network, dataset, seed=2,
                              processes=2) as runner:
            parallel = runner.device_sweep(device, op_points)
        assert serial == parallel

    def test_per_tensor_sweep_parallel_equals_serial(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        names = [spec.name for spec in network.weight_specs()][:2]
        assignments = [
            {names[0]: 1e-2, names[1]: 1e-4},
            {names[0]: 1e-4, names[1]: 1e-2},
            {names[0]: 5e-3, names[1]: 5e-3},
        ]
        with ExperimentRunner(network, dataset, seed=1) as runner:
            serial = runner.per_tensor_sweep(model, assignments)
        with ExperimentRunner(network, dataset, seed=1,
                              processes=2) as runner:
            parallel = runner.per_tensor_sweep(model, assignments)
        assert serial == parallel

    def test_score_repeat_fanout_equals_serial(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(3, 2e-3, seed=0)
        with ExperimentRunner(network, dataset, seed=4) as runner:
            serial = runner.score(BitErrorInjector(model, seed=4),
                                  repeats=3, stride=7)
        with ExperimentRunner(network, dataset, seed=4,
                              processes=2) as runner:
            parallel = runner.score(BitErrorInjector(model, seed=4),
                                    repeats=3, stride=7)
        assert serial == parallel

    def test_static_store_repeats_not_fanned_out(self, lenet_clone):
        # Static-store repeats share one weight store materialized at the
        # base seed; a per-repeat task would rebuild it at the shifted seed
        # and change the stored weights, so score() must keep them serial.
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        with ExperimentRunner(network, dataset, seed=4,
                              semantics=ReadSemantics.STATIC_STORE) as runner:
            serial = runner.score(BitErrorInjector(model, seed=4),
                                  repeats=3, stride=7)
        with ExperimentRunner(network, dataset, seed=4, processes=2,
                              semantics=ReadSemantics.STATIC_STORE) as runner:
            parallel = runner.score(BitErrorInjector(model, seed=4),
                                    repeats=3, stride=7)
        assert serial == parallel

    def test_ad_hoc_dataset_ships_to_workers(self, lenet_clone):
        network, dataset, _ = lenet_clone
        subsample = dataset.subsample_validation(0.5, seed=0)
        model = make_error_model(0, 1e-3, seed=0)
        with ExperimentRunner(network, dataset, seed=0) as runner:
            serial = runner.score(BitErrorInjector(model, seed=0),
                                  repeats=2, dataset=subsample)
        with ExperimentRunner(network, dataset, seed=0,
                              processes=2) as runner:
            parallel = runner.score(BitErrorInjector(model, seed=0),
                                    repeats=2, dataset=subsample)
        assert serial == parallel


class TestCoarseCharacterizationParallel:
    def test_parallel_equals_serial_including_tested_memo(self, lenet_clone):
        network, dataset, spec = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        target = AccuracyTarget.within_one_percent()
        config = EdenConfig(ber_search_steps=5, evaluation_repeats=2, seed=0)
        serial = coarse_grained_characterization(
            network, dataset, model, target, config, spec.metric)
        parallel_config = EdenConfig(ber_search_steps=5, evaluation_repeats=2,
                                     seed=0, processes=2)
        parallel = coarse_grained_characterization(
            network, dataset, model, target, parallel_config, spec.metric)
        assert serial.baseline_score == parallel.baseline_score
        assert serial.max_tolerable_ber == parallel.max_tolerable_ber
        assert serial.accuracy_at_max == parallel.accuracy_at_max
        assert serial.tested == parallel.tested


class TestSessionExport:
    def test_sweep_executor_exports_an_injector_free_plan(self, lenet_clone):
        network, dataset, spec = lenet_clone
        with SweepExecutor(network, dataset, metric=spec.metric,
                           processes=2) as executor:
            handle = executor._plan.handle
            assert handle.store is None and handle.store_key is None
            assert handle.injector is None and handle.qplan is None
            assert handle.dataset is not None

    def test_one_export_and_one_scoring_entry_point(self):
        import repro.parallel

        assert not hasattr(repro.parallel, "export_network_plan")
        assert "export_session_plan" in repro.parallel.__all__
        assert not hasattr(InferenceSession, "score")

    def test_export_reused_until_fingerprint_changes(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE)
        first = session.export_plan()
        assert session.export_plan() is first
        # A new operating point changes the fingerprint: the session must
        # re-export under a fresh token and unlink the stale segments.
        session.set_injector(
            BitErrorInjector(make_error_model(0, 1e-2, seed=0),
                             data_kinds={DataKind.WEIGHT}, seed=0))
        second = session.export_plan()
        assert second is not first
        assert second.handle.token != first.handle.token
        assert first._closed
        session.invalidate()
        assert second._closed

    def test_exported_store_matches_materialized(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE)
        exported = session.export_plan()
        attached = attach_plan(exported.handle)
        store = session.materialized_weights()
        assert set(attached.store) == set(store)
        for name, array in store.items():
            assert attached.store[name].tobytes() == array.tobytes()
        session.invalidate()

    def test_retained_export_survives_owner_close(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE)
        exported = session.export_plan()
        assert exported.refs == 1
        # An adopter (the ReplicaManager path) takes its own reference...
        assert exported.retain() is exported
        assert exported.refs == 2
        # ...so the owning session's invalidate must NOT unlink the
        # segments out from under it.
        session.invalidate()
        assert exported._closed
        assert exported.refs == 1
        attached = attach_plan(exported.handle)
        store = attached.store
        assert len(store) > 0
        # The adopter's release is the last reference: now it unlinks.
        exported.release()
        assert exported.refs == 0
        exported.release()                   # over-release is a no-op
        assert exported.refs == 0

    def test_retain_after_unlink_raises(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE)
        exported = session.export_plan()
        session.invalidate()                 # refs 1 -> 0: unlinked
        assert exported.refs == 0
        with pytest.raises(RuntimeError):
            exported.retain()
        exported.close()                     # idempotent after unlink

    @staticmethod
    def _segments_attachable(exported) -> bool:
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(
                name=exported.handle.weights.segment)
        except FileNotFoundError:
            return False
        shm.close()
        return True

    def test_session_close_unlinks_export(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE)
        exported = session.export_plan()
        assert self._segments_attachable(exported)
        session.close()
        assert exported.refs == 0
        assert not self._segments_attachable(exported)

    def test_session_close_keeps_retained_export_attachable(self,
                                                            lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        with InferenceSession(network, dataset, injector=injector,
                              semantics=ReadSemantics.STATIC_STORE) as session:
            exported = session.export_plan()
            adopter = exported.retain()
        # The session's reference is gone; the adopter's keeps the segments.
        assert exported.refs == 1
        assert self._segments_attachable(exported)
        adopter.release()
        assert exported.refs == 0
        assert not self._segments_attachable(exported)


class TestMultiProcessServing:
    def test_dispatch_processes_bit_identical(self, lenet_clone):
        network, dataset, spec = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        inputs = dataset.val_x[:20]
        with ServingGateway(ServeConfig(max_batch=8, auto_flush=False)
                            ) as gateway:
            gateway.register("m", network, dataset, injector=injector,
                             metric=spec.metric)
            reference = gateway.predict_many("m", inputs, coalesce=False)
        with ServingGateway(ServeConfig(max_batch=8, auto_flush=False,
                                        dispatch_processes=2)) as gateway:
            gateway.register("m", network, dataset, injector=injector,
                             metric=spec.metric)
            coalesced = gateway.predict_many("m", inputs, coalesce=True)
            serial = gateway.predict_many("m", inputs, coalesce=False)
        assert coalesced.tobytes() == reference.tobytes()
        assert serial.tobytes() == reference.tobytes()

    def test_plan_dispatcher_matches_session_predict(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE)
        inputs = np.asarray(dataset.val_x[:10])
        reference = session.predict(inputs, pad_to=4)
        dispatcher = PlanDispatcher(session, processes=2, pad_to=4)
        try:
            assert dispatcher(inputs).tobytes() == reference.tobytes()
        finally:
            dispatcher.close()
            session.invalidate()

    def test_plan_dispatcher_per_read_matches_session_predict(self, lenet_clone):
        # A per-read session has no store to freeze: the injector must ship
        # with the plan and be reseeded per dispatch, exactly like the
        # in-process per-read predict path.
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0), seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.PER_READ, seed=5)
        inputs = np.asarray(dataset.val_x[:10])
        reference = session.predict(inputs, pad_to=4)
        assert reference.tobytes() == session.predict(inputs, pad_to=4).tobytes()
        dispatcher = PlanDispatcher(session, processes=2, pad_to=4)
        try:
            assert dispatcher(inputs).tobytes() == reference.tobytes()
        finally:
            dispatcher.close()

    def test_plan_dispatcher_survives_session_reexport(self, lenet_clone):
        # The dispatcher owns its export: a session fingerprint change (which
        # unlinks the session's own cached export) must not break dispatch.
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE)
        inputs = np.asarray(dataset.val_x[:6])
        reference = session.predict(inputs, pad_to=4)
        dispatcher = PlanDispatcher(session, processes=2, pad_to=4)
        try:
            session.export_plan()                 # session-owned export...
            session.set_injector(
                BitErrorInjector(make_error_model(0, 1e-2, seed=0),
                                 data_kinds={DataKind.WEIGHT}, seed=0))
            session.export_plan()                 # ...re-exported + unlinked
            assert dispatcher(inputs).tobytes() == reference.tobytes()
        finally:
            dispatcher.close()
            session.invalidate()


def replica_parity_session(kind, network, dataset):
    """``(session, ifm_errors)`` for a session whose reads stay live.

    ``"per_read"`` draws fresh errors on every load; ``"ifm_errors"`` is a
    static store served with per-dispatch IFM injection.  The session seed
    differs from the injector's construction seed, so a copy that forgot to
    reseed per dispatch shows in the bytes.
    """
    per_read = kind == "per_read"
    injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0), seed=0)
    semantics = (ReadSemantics.PER_READ if per_read
                 else ReadSemantics.STATIC_STORE)
    return InferenceSession(network, dataset, injector=injector,
                            semantics=semantics, seed=5), not per_read


class TestReplicaParity:
    """A session rebuilt from an export reads and reseeds like its owner."""

    @pytest.mark.parametrize("kind", ["per_read", "ifm_errors"])
    def test_session_from_plan_matches_owner(self, lenet_clone, kind):
        network, dataset, _ = lenet_clone
        session, ifm_errors = replica_parity_session(kind, network, dataset)
        inputs = np.asarray(dataset.val_x[:10])
        reference = session.predict(inputs, pad_to=8, ifm_errors=ifm_errors)
        with export_session_plan(session,
                                 include_injector=ifm_errors) as export:
            replica = session_from_plan(export.handle)
            for _ in range(2):       # every call reseeds, like the owner's
                rows = replica.predict(inputs, pad_to=8,
                                       ifm_errors=ifm_errors)
                assert rows.tobytes() == reference.tobytes()


def _int8_session(network, dataset, metric):
    inner = BitErrorInjector(make_error_model(0, 1e-3, seed=0), bits=8,
                             data_kinds={DataKind.WEIGHT}, seed=0)
    return InferenceSession(network, dataset, metric=metric,
                            injector=QuantizedLoadTransform(8, inner=inner),
                            execution_mode="integer")


def _spy_forward_rows(monkeypatch, path):
    """Record each ``Network.forward`` call's row count in ``path``.

    Patched on the class, so forked dispatch workers record too.  Returns a
    callable reading (and clearing) the recorded counts.
    """
    original = Network.forward

    def forward(self, x):
        with open(path, "a") as log:
            log.write(f"{len(x)}\n")
        return original(self, x)

    monkeypatch.setattr(Network, "forward", forward)

    def seen():
        if not path.exists():
            return []
        counts = [int(line) for line in path.read_text().split()]
        path.unlink()
        return counts
    return seen


class TestShapeExactDispatch:
    """Integer plans run each batch at its own row count; FP32 pads."""

    MAX_BATCH = 8

    @pytest.mark.parametrize("model", ["lenet", "mobilenetv2"])
    def test_integer_rows_unpadded_and_exact(self, model, monkeypatch,
                                             tmp_path):
        network, dataset, spec = build_model_with_dataset(model, seed=0)
        session = _int8_session(network, dataset, spec.metric)
        inputs = np.asarray(dataset.val_x[:self.MAX_BATCH], dtype=np.float32)
        serial = np.concatenate([
            session.predict(inputs[i:i + 1], pad_to=self.MAX_BATCH)
            for i in range(self.MAX_BATCH)])
        seen = _spy_forward_rows(monkeypatch, tmp_path / "rows")
        for n in range(1, self.MAX_BATCH + 1):
            rows = session.predict(inputs[:n], pad_to=self.MAX_BATCH)
            assert seen() == [n]
            assert rows.tobytes() == serial[:n].tobytes()
        with PlanDispatcher(session, processes=1,
                            pad_to=self.MAX_BATCH) as dispatcher:
            for n in range(1, self.MAX_BATCH + 1):
                rows = dispatcher(inputs[:n])
                assert seen() == [n]
                assert rows.tobytes() == serial[:n].tobytes()

    def test_fp32_pads_to_static_shape(self, lenet_clone, monkeypatch,
                                       tmp_path):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector)
        inputs = np.asarray(dataset.val_x[:3])
        session.predict(inputs, pad_to=self.MAX_BATCH)      # materialize
        seen = _spy_forward_rows(monkeypatch, tmp_path / "rows")
        session.predict(inputs, pad_to=self.MAX_BATCH)
        assert seen() == [self.MAX_BATCH]
        with PlanDispatcher(session, processes=1,
                            pad_to=self.MAX_BATCH) as dispatcher:
            dispatcher(inputs)
            assert seen() == [self.MAX_BATCH]


class TestBoostingParallel:
    def test_retrain_scores_match_serial(self, lenet_clone):
        from repro.core.boosting import non_curricular_retrain

        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        serial = non_curricular_retrain(
            network, dataset, model, 1e-3,
            EdenConfig(retrain_epochs=1, evaluation_repeats=2, seed=0))
        parallel = non_curricular_retrain(
            network, dataset, model, 1e-3,
            EdenConfig(retrain_epochs=1, evaluation_repeats=2, seed=0,
                       processes=2))
        assert serial.baseline_score == parallel.baseline_score
        assert serial.boosted_score == parallel.boosted_score
        assert serial.epoch_scores == parallel.epoch_scores
