"""Parity and bit-identity suite for the fused integer-GEMM execution path.

The FP32 static-store path keeps its existing bit-identity gates untouched;
this suite pins the quantized path's own contract:

* the integer kernels agree with an int64 reference accumulation and with
  the training-path layouts they replace;
* integer execution tracks the fake-quantize reference on a trained model
  (same storage semantics, cheaper arithmetic) within documented tolerance;
* the path is exactly deterministic — bit-identical across batch shapes,
  repeated runs, worker processes (``SweepExecutor``) and dispatcher
  workers fed from shared memory (``PlanDispatcher``);
* misconfiguration fails loudly (``execution_mode="integer"`` without
  code-valued storage, IFM errors on the integer path);
* the serving layer advertises the execution mode and the zero-copy wire
  encoding matches the per-row reference bytes.
"""

import base64

import numpy as np
import pytest

from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.engine import compile_quantized_plan, integer_plan_supported
from repro.engine.session import InferenceSession, ReadSemantics
from repro.nn import functional as F
from repro.nn import integer as IK
from repro.nn.quantization import (
    QuantizationSpec,
    QuantizedLoadTransform,
    recover_codes,
)
from repro.nn.tensor import DataKind
from repro.parallel import PlanDispatcher, SweepExecutor
from repro.serve import ServeConfig, ServingGateway
from repro.serve.server import ServerConfig, encode_rows, serve_in_thread
from repro.serve import loadgen


def _store_injector(bits=8, ber=1e-3, model_id=0, seed=0):
    """A quantized static store with bit errors applied to the codes."""
    inner = BitErrorInjector(make_error_model(model_id, ber, seed=seed),
                             bits=bits, data_kinds={DataKind.WEIGHT},
                             seed=seed)
    return QuantizedLoadTransform(bits, inner=inner)


def _integer_session(network, dataset, metric, bits=8, ber=1e-3, seed=0):
    return InferenceSession(network, dataset, metric=metric, seed=seed,
                            injector=_store_injector(bits=bits, ber=ber,
                                                     seed=seed),
                            execution_mode="integer")


class TestSpecCacheFingerprint:
    """Regression: spec_for must key on the data, not only the tensor name."""

    def test_same_name_different_data_gets_fresh_spec(self, rng):
        transform = QuantizedLoadTransform(8)
        a = rng.standard_normal(64).astype(np.float32)
        spec_a = transform.spec_for("w", a)
        spec_b = transform.spec_for("w", a * 2.0)
        assert spec_b.scale == pytest.approx(spec_a.scale * 2.0)

    def test_unchanged_data_reuses_cached_spec(self, rng):
        transform = QuantizedLoadTransform(8)
        a = rng.standard_normal(64).astype(np.float32)
        assert transform.spec_for("w", a) is transform.spec_for("w", a)


class TestIntegerKernels:
    def test_exact_matmul_matches_int64_reference_int8(self, rng):
        # K spans multiple accumulation chunks; codes include the corrupted
        # extreme -128 that lies below qmin.
        k = 2500
        a = rng.integers(-128, 128, size=(7, k)).astype(np.float32)
        b = rng.integers(-128, 128, size=(k, 5)).astype(np.float32)
        reference = a.astype(np.int64) @ b.astype(np.int64)
        result = IK.exact_matmul(a, b, 8)
        assert np.array_equal(result.astype(np.int64), reference)

    def test_exact_matmul_matches_int64_reference_int16(self, rng):
        a = rng.integers(-32768, 32768, size=(4, 300)).astype(np.float64)
        b = rng.integers(-32768, 32768, size=(300, 3)).astype(np.float64)
        reference = a.astype(np.int64) @ b.astype(np.int64)
        assert np.array_equal(IK.exact_matmul(a, b, 16).astype(np.int64),
                              reference)

    def test_im2col_codes_matches_training_layout(self, rng):
        x = rng.standard_normal((3, 4, 9, 7)).astype(np.float32)
        for stride, padding in (((1, 1), (2, 1)), ((2, 2), (0, 0))):
            fast, (oh, ow) = IK.im2col_codes(x, (3, 3), stride, padding)
            reference, (roh, row_) = F.im2col(x, (3, 3), stride, padding)
            assert (oh, ow) == (roh, row_)
            assert np.array_equal(fast, reference)

    def test_max_pool_infer_matches_reduction(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (2, 2), axis=(2, 3))[:, :, ::2, ::2]
        reference = windows.max(axis=(4, 5))
        assert np.array_equal(IK.max_pool2d_infer(x, (2, 2), (2, 2)),
                              reference)

    def test_recover_codes_inverts_storage_exactly(self):
        spec = QuantizationSpec(bits=8, scale=0.0391)
        # Every representable pattern, including -128 (below qmin).
        codes = np.arange(-128, 128, dtype=np.int64)
        stored = (codes.astype(np.float64) * spec.scale).astype(np.float32)
        assert np.array_equal(recover_codes(stored, spec), codes)


class TestPlanCompilation:
    def test_plan_supported_requires_code_valued_storage(self):
        plain = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                 data_kinds={DataKind.WEIGHT}, seed=0)
        assert not integer_plan_supported(plain)
        assert not integer_plan_supported(None)
        assert integer_plan_supported(QuantizedLoadTransform(8))
        assert integer_plan_supported(_store_injector())

    def test_plan_codes_reconstruct_the_store(self, lenet_clone):
        network, dataset, spec = lenet_clone
        injector = _store_injector()
        session = InferenceSession(network, dataset, metric=spec.metric,
                                   injector=injector, seed=0,
                                   execution_mode="integer")
        plan = compile_quantized_plan(session)
        store = session.materialize()
        assert plan.bits == 8
        assert plan.codes                      # GEMM weights became codes
        for name, codes in plan.codes.items():
            assert codes.dtype == np.int8
            scale = plan.weight_scales[name]
            rebuilt = (codes.astype(np.float64) * scale).astype(np.float32)
            assert rebuilt.tobytes() == store[name].tobytes()

    def test_execution_mode_integer_rejects_float_storage(self, lenet_clone):
        network, dataset, spec = lenet_clone
        plain = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                 data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, metric=spec.metric,
                                   injector=plain, execution_mode="integer")
        with pytest.raises(ValueError, match="QuantizedLoadTransform"):
            session.predict(np.asarray(dataset.val_x[:2]))

    def test_execution_mode_auto_falls_back_to_fp32(self, lenet_clone):
        network, dataset, spec = lenet_clone
        plain = BitErrorInjector(make_error_model(0, 1e-3, seed=0),
                                 data_kinds={DataKind.WEIGHT}, seed=0)
        auto = InferenceSession(network, dataset, metric=spec.metric,
                                injector=plain, execution_mode="auto")
        reference = InferenceSession(network, dataset, metric=spec.metric,
                                     injector=plain)
        x = np.asarray(dataset.val_x[:4])
        assert auto.mode_label() == "fp32"
        assert auto.predict(x).tobytes() == reference.predict(x).tobytes()

    def test_mode_label_reports_stored_precision(self, lenet_clone):
        network, dataset, spec = lenet_clone
        session = _integer_session(network, dataset, spec.metric, bits=4)
        assert session.mode_label() == "int4"


class TestIntegerPathParity:
    def test_tracks_fake_quantize_reference(self, lenet_clone):
        network, dataset, spec = lenet_clone
        integer = _integer_session(network, dataset, spec.metric)
        reference = InferenceSession(network, dataset, metric=spec.metric,
                                     injector=_store_injector(), seed=0)
        x = np.asarray(dataset.val_x, dtype=np.float32)[:64]
        a = integer.predict(x, pad_to=16)
        b = reference.predict(x, pad_to=16)
        agreement = float(np.mean(np.argmax(a, axis=1) ==
                                  np.argmax(b, axis=1)))
        # The integer path additionally quantizes activations (the reference
        # serves IFMs in full precision), so logits differ slightly; on a
        # trained model the decisions must still almost always agree.
        assert agreement >= 0.95

    def test_table2_style_accuracy_on_integer_path(self, lenet_clone):
        # EDEN's Table 2 regime: int8 storage at a low error rate serves
        # within a point of the clean model; int4 degrades but still serves.
        network, dataset, spec = lenet_clone
        clean = InferenceSession(network, dataset,
                                 metric=spec.metric).evaluate()
        int8_acc = _integer_session(network, dataset, spec.metric, bits=8,
                                    ber=1e-4).evaluate()
        int4_acc = _integer_session(network, dataset, spec.metric, bits=4,
                                    ber=1e-4).evaluate()
        assert int8_acc >= clean - 0.02
        assert int4_acc >= clean - 0.25

    def test_batch_shape_invariance_is_exact(self, lenet_clone):
        network, dataset, spec = lenet_clone
        session = _integer_session(network, dataset, spec.metric)
        x = np.asarray(dataset.val_x, dtype=np.float32)[:12]
        batched = session.predict(x, pad_to=16)
        rowwise = np.concatenate([session.predict(x[i:i + 1], pad_to=16)
                                  for i in range(len(x))])
        assert batched.tobytes() == rowwise.tobytes()

    def test_repeated_evaluation_is_deterministic(self, lenet_clone):
        network, dataset, spec = lenet_clone
        first = _integer_session(network, dataset, spec.metric).evaluate()
        second = _integer_session(network, dataset, spec.metric).evaluate()
        assert first == second

    def test_ifm_errors_rejected_on_integer_path(self, lenet_clone):
        network, dataset, spec = lenet_clone
        session = _integer_session(network, dataset, spec.metric)
        with pytest.raises(ValueError, match="IFM"):
            session.predict(np.asarray(dataset.val_x[:2]), ifm_errors=True)


class TestCrossProcessBitIdentity:
    def test_sweep_executor_matches_serial_scores(self, lenet_clone):
        network, dataset, spec = lenet_clone
        serial = InferenceSession(network, dataset, metric=spec.metric,
                                  execution_mode="integer")
        injectors = [_store_injector(ber=ber, seed=1) for ber in (1e-4, 1e-2)]
        expected = [serial.evaluate(injector=injector, repeats=2, seed=1)
                    for injector in injectors]
        with SweepExecutor(network, dataset, metric=spec.metric,
                           semantics=ReadSemantics.STATIC_STORE,
                           execution_mode="integer",
                           processes=2) as executor:
            parallel = executor.score_many(
                [_store_injector(ber=ber, seed=1) for ber in (1e-4, 1e-2)],
                repeats=2, seed=1)
        assert parallel == expected

    def test_plan_dispatcher_matches_in_process_predict(self, lenet_clone):
        network, dataset, spec = lenet_clone
        session = _integer_session(network, dataset, spec.metric)
        inputs = np.asarray(dataset.val_x, dtype=np.float32)[:10]
        reference = session.predict(inputs, pad_to=4)
        dispatcher = PlanDispatcher(session, processes=2, pad_to=4)
        try:
            assert dispatcher(inputs).tobytes() == reference.tobytes()
        finally:
            dispatcher.close()

    def test_plan_dispatcher_rejects_ifm_errors(self, lenet_clone):
        network, dataset, spec = lenet_clone
        session = _integer_session(network, dataset, spec.metric)
        with pytest.raises(ValueError, match="IFM"):
            PlanDispatcher(session, processes=2, pad_to=4, ifm_errors=True)


class TestServingIntegration:
    def test_gateway_serves_integer_endpoint_bit_identically(self, lenet_clone):
        network, dataset, spec = lenet_clone
        inputs = np.asarray(dataset.val_x, dtype=np.float32)[:12]
        with ServingGateway(ServeConfig(max_batch=8,
                                        auto_flush=False)) as gateway:
            gateway.register("m", network, dataset,
                             injector=_store_injector(), metric=spec.metric,
                             execution_mode="integer")
            coalesced = gateway.predict_many("m", inputs, coalesce=True)
            serial = gateway.predict_many("m", inputs, coalesce=False)
        assert coalesced.tobytes() == serial.tobytes()

    def test_models_endpoint_advertises_execution_mode(self, lenet_clone):
        network, dataset, spec = lenet_clone
        gateway = ServingGateway(ServeConfig(max_batch=8, max_wait_ms=2.0))
        gateway.register("lenet-int8", network, dataset,
                         injector=_store_injector(), metric=spec.metric,
                         execution_mode="integer")
        handle = serve_in_thread(gateway, ServerConfig(max_queue_depth=8))
        target = loadgen.HttpTarget(handle.base_url)
        try:
            advertised = target.models()["models"]
            assert advertised["lenet-int8"]["execution_mode"] == "int8"
        finally:
            target.close()
            handle.stop()
            gateway.close()

    def test_encode_rows_matches_per_row_reference(self, rng):
        rows = rng.standard_normal((5, 3, 4)).astype(np.float32)
        reference = [base64.b64encode(
            np.ascontiguousarray(row, dtype=np.float32).tobytes()
        ).decode("ascii") for row in rows]
        assert encode_rows(rows) == reference
        assert encode_rows(rows[:0]) == []
