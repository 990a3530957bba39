"""Tests for symmetric quantization and the bit codecs used by error injection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.quantization import (
    QuantizationSpec,
    QuantizedLoadTransform,
    bits_to_tensor,
    compute_scale,
    dequantize,
    fake_quantize,
    make_spec,
    quantize,
    tensor_to_bits,
)
from repro.nn.tensor import DataKind, TensorSpec


def spec_of(name="t", shape=(4,), bits=32):
    return TensorSpec(name=name, kind=DataKind.WEIGHT, shape=shape,
                      dtype_bits=bits, layer_index=0)


class TestQuantizationSpec:
    def test_ranges_per_precision(self):
        assert QuantizationSpec(8, 0.1).qmin == -128
        assert QuantizationSpec(8, 0.1).qmax == 127
        assert QuantizationSpec(4, 0.1).qmax == 7
        assert QuantizationSpec(16, 0.1).qmax == 32767

    def test_rejects_unsupported_bits(self):
        with pytest.raises(ValueError):
            QuantizationSpec(12, 0.1)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            QuantizationSpec(8, 0.0)

    def test_fp32_is_float(self):
        assert QuantizationSpec(32, 1.0).is_float


class TestQuantizeDequantize:
    def test_scale_maps_max_to_extreme(self, rng):
        values = rng.standard_normal(100).astype(np.float32) * 3
        scale = compute_scale(values, 8)
        codes = quantize(values, QuantizationSpec(8, scale))
        assert int(np.abs(codes).max()) == 127

    def test_roundtrip_error_bounded_by_scale(self, rng):
        values = rng.standard_normal(200).astype(np.float32)
        spec = make_spec(values, 8)
        recovered = dequantize(quantize(values, spec), spec)
        assert np.max(np.abs(recovered - values)) <= spec.scale * 0.5 + 1e-7

    def test_higher_precision_has_lower_error(self, rng):
        values = rng.standard_normal(500).astype(np.float32)
        err4 = np.abs(fake_quantize(values, make_spec(values, 4)) - values).mean()
        err8 = np.abs(fake_quantize(values, make_spec(values, 8)) - values).mean()
        err16 = np.abs(fake_quantize(values, make_spec(values, 16)) - values).mean()
        assert err4 > err8 > err16

    def test_fp32_fake_quantize_is_identity(self, rng):
        values = rng.standard_normal(50).astype(np.float32)
        np.testing.assert_array_equal(fake_quantize(values, QuantizationSpec(32, 1.0)), values)

    def test_all_zero_tensor_does_not_crash(self):
        values = np.zeros(10, dtype=np.float32)
        spec = make_spec(values, 8)
        np.testing.assert_array_equal(fake_quantize(values, spec), values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_entries_leave_finite_codes_intact(self, rng):
        """One NaN used to make the scale NaN and the int64 cast garbage."""
        finite = rng.standard_normal(64).astype(np.float32)
        values = np.concatenate(
            [finite, np.array([np.nan, np.inf, -np.inf], dtype=np.float32)])
        spec = make_spec(values, 8)
        assert spec.scale == compute_scale(finite, 8)
        codes = quantize(values, spec)
        np.testing.assert_array_equal(codes[:64], quantize(finite, spec))
        assert codes[64:].tolist() == [0, spec.qmax, spec.qmin]
        assert np.isfinite(fake_quantize(values, spec)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_finite_entries_scale_like_all_zero(self):
        values = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
        assert compute_scale(values, 8) == compute_scale(np.zeros(3), 8)
        assert quantize(values, make_spec(values, 8)).tolist() == [0, 127, -128]

    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_finite_inputs_quantize_as_plain_max_abs_and_clip(self, bits, rng):
        values = rng.standard_normal(256).astype(np.float32) * 5
        scale = float(np.max(np.abs(values))) / float(2 ** (bits - 1) - 1)
        assert compute_scale(values, bits) == scale
        spec = QuantizationSpec(bits, scale)
        expected = np.clip(np.round(values.astype(np.float64) / scale),
                           spec.qmin, spec.qmax).astype(np.int64)
        assert quantize(values, spec).tobytes() == expected.tobytes()


class TestBitCodecs:
    def test_fp32_word_roundtrip(self, rng):
        values = rng.standard_normal(64).astype(np.float32)
        words, state = tensor_to_bits(values, 32)
        np.testing.assert_array_equal(bits_to_tensor(words, 32, state), values)

    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_integer_word_roundtrip(self, bits, rng):
        values = rng.standard_normal(64).astype(np.float32)
        words, state = tensor_to_bits(values, bits)
        recovered = bits_to_tensor(words, bits, state)
        np.testing.assert_allclose(recovered, fake_quantize(values, state), rtol=1e-6)

    def test_integer_words_fit_in_bit_width(self, rng):
        values = rng.standard_normal(64).astype(np.float32)
        for bits in (4, 8, 16):
            words, _ = tensor_to_bits(values, bits)
            assert int(words.max()) < (1 << bits)

    def test_negative_values_use_twos_complement(self):
        values = np.array([-1.0, 1.0], dtype=np.float32)
        words, state = tensor_to_bits(values, 8)
        # -1.0 maps to a negative code, whose two's complement pattern has the
        # top bit of the 8-bit field set.
        assert (int(words[0]) >> 7) & 1 == 1
        assert (int(words[1]) >> 7) & 1 == 0

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False,
                              width=32), min_size=1, max_size=64),
           st.sampled_from([4, 8, 16, 32]))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip_matches_fake_quantize(self, values, bits):
        array = np.asarray(values, dtype=np.float32)
        words, state = tensor_to_bits(array, bits)
        recovered = bits_to_tensor(words, bits, state)
        if bits == 32:
            np.testing.assert_array_equal(recovered, array)
        else:
            np.testing.assert_allclose(recovered, fake_quantize(array, state), rtol=1e-5)


class TestQuantizedLoadTransform:
    def test_caches_per_tensor_specs(self, rng):
        transform = QuantizedLoadTransform(8)
        values = rng.standard_normal(32).astype(np.float32)
        transform.apply(values, spec_of("a"))
        transform.apply(values * 10, spec_of("a"))   # same name: reuse scale
        transform.apply(values, spec_of("b"))
        assert set(transform._spec_cache) == {"a", "b"}

    def test_wraps_inner_injector(self, rng):
        calls = []

        class Inner:
            def apply(self, array, spec):
                calls.append(spec.dtype_bits)
                return array

        transform = QuantizedLoadTransform(8, inner=Inner())
        transform.apply(rng.standard_normal(8).astype(np.float32), spec_of("a"))
        assert calls == [8]

    def test_network_accuracy_degrades_gracefully_with_precision(self, lenet_trained):
        from repro.nn.metrics import evaluate
        from repro.nn.quantization import quantize_network

        network, dataset, _ = lenet_trained
        network = network.clone()
        baseline = evaluate(network, dataset.val_x, dataset.val_y)
        quantize_network(network, 8)
        int8 = evaluate(network, dataset.val_x, dataset.val_y)
        quantize_network(network, 4)
        int4 = evaluate(network, dataset.val_x, dataset.val_y)
        network.set_fault_injector(None)
        assert int8 >= baseline - 0.1
        assert int4 <= int8 + 0.05  # int4 never better than int8 by a margin
