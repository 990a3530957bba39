"""The packed injection engine must be bit-exact with the boolean path.

The refactored hot path (:func:`repro.dram.injection.inject_bit_errors`,
:meth:`repro.dram.error_models.ErrorModel.flip_word_mask`,
:meth:`repro.dram.device.ApproximateDram.read_words`) never materializes
per-bit booleans; these tests pin down that, for identical RNG seeds, it
produces *identical* corrupted tensors to the original boolean expansion
(kept as :func:`inject_bit_errors_reference`) — across the error models,
all four storage precisions, sparse and dense candidate sets, every numpy
bit generator and chunk seams — and that it leaves the RNG in the identical
stream state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram import packed
from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import DramLayout, make_error_model
from repro.dram.geometry import DramGeometry
from repro.dram.injection import inject_bit_errors, inject_bit_errors_reference
from repro.dram.packed import (
    PCG64_MULTIPLIER,
    expand_spans,
    hash_keys,
    make_bit_gather,
    sample_flip_positions,
    skip_stream,
    uniform_threshold,
    xor_mask_from_positions,
)

LAYOUTS = [DramLayout(), DramLayout(row_size_bits=1024, start_bit=4096 + 17)]
BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.SFC64, np.random.MT19937]
MASK128 = (1 << 128) - 1


def _pcg64_state(rng):
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def _both_paths(values, bits, model, layout, seed):
    rng_ref = np.random.default_rng(seed)
    rng_packed = np.random.default_rng(seed)
    reference = inject_bit_errors_reference(values, bits, model, layout, rng_ref)
    fast = inject_bit_errors(values, bits, model, layout, rng_packed)
    return reference, fast, rng_ref, rng_packed


class TestPackedParity:
    @pytest.mark.parametrize("model_id", [0, 1, 2, 3])
    @pytest.mark.parametrize("bits", [4, 8, 16, 32])
    def test_bit_exact_with_reference(self, model_id, bits):
        values = np.random.default_rng(model_id * 4 + bits).standard_normal(3001)
        values = values.astype(np.float32)
        for layout in LAYOUTS:
            for ber in (1e-4, 1e-2):
                model = make_error_model(model_id, ber, seed=5)
                reference, fast, rng_ref, rng_packed = _both_paths(
                    values, bits, model, layout, seed=99
                )
                np.testing.assert_array_equal(reference, fast)
                # The packed path must consume exactly as much RNG stream.
                assert rng_ref.random() == rng_packed.random()

    @pytest.mark.parametrize("model_id", [0, 3])
    def test_generators_without_advance_fall_back_to_dense(self, model_id):
        # MT19937 has no BitGenerator.advance; the sampler draws the whole
        # stream instead, staying bit-exact with the boolean path.
        values = np.random.default_rng(8).standard_normal(513).astype(np.float32)
        model = make_error_model(model_id, 1e-3, seed=1)
        rng_ref = np.random.Generator(np.random.MT19937(42))
        rng_packed = np.random.Generator(np.random.MT19937(42))
        reference = inject_bit_errors_reference(values, 32, model, DramLayout(), rng_ref)
        fast = inject_bit_errors(values, 32, model, DramLayout(), rng_packed)
        np.testing.assert_array_equal(reference, fast)
        assert rng_ref.random() == rng_packed.random()

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_every_bit_generator_is_stream_exact(self, bit_generator):
        # Philox has ``advance`` but counts 4-draw counter blocks, so only
        # PCG64 and PCG64DXSM may skip draws with it.
        total = 5000
        positions = np.sort(np.random.default_rng(0).choice(total, 300, replace=False))
        rng_a = np.random.Generator(bit_generator(42))
        rng_b = np.random.Generator(bit_generator(42))
        flips = sample_flip_positions(rng_a, total, positions, np.full(positions.size, 0.5))
        np.testing.assert_array_equal(flips, positions[rng_b.random(total)[positions] < 0.5])
        assert rng_a.random() == rng_b.random()
        skip_stream(rng_a, 1000)
        rng_b.random(1000)
        assert rng_a.random() == rng_b.random()

        values = np.random.default_rng(8).standard_normal(513).astype(np.float32)
        for model_id in (0, 4):
            model = make_error_model(model_id, 1e-2, seed=1)
            rng_ref = np.random.Generator(bit_generator(7))
            rng_packed = np.random.Generator(bit_generator(7))
            reference = inject_bit_errors_reference(values, 32, model, DramLayout(), rng_ref)
            fast = inject_bit_errors(values, 32, model, DramLayout(), rng_packed)
            np.testing.assert_array_equal(reference, fast)
            assert rng_ref.random() == rng_packed.random()

    @pytest.mark.parametrize("model_id", [0, 4])
    def test_seeds_beyond_32_bits(self, model_id):
        # ``default_rng`` takes any non-negative seed; the hash mix must too.
        values = np.random.default_rng(2).standard_normal(2000).astype(np.float32)
        model = make_error_model(model_id, 1e-3, seed=2**40)
        reference, fast, rng_ref, rng_packed = _both_paths(
            values, 32, model, DramLayout(), seed=2**40
        )
        np.testing.assert_array_equal(reference, fast)
        assert rng_ref.random() == rng_packed.random()

    @pytest.mark.parametrize("model_id", [0, 1, 2, 3])
    def test_dense_sampling_regime(self, model_id):
        # High BER: a candidate at a large share of all bits.
        values = np.random.default_rng(1).standard_normal(2000).astype(np.float32)
        model = make_error_model(model_id, 0.2, seed=2)
        reference, fast, rng_ref, rng_packed = _both_paths(
            values, 32, model, DramLayout(), seed=3
        )
        np.testing.assert_array_equal(reference, fast)
        assert rng_ref.random() == rng_packed.random()

    @pytest.mark.parametrize("model_id", [0, 1, 2, 3])
    def test_chunk_seams(self, model_id, monkeypatch):
        # Shrink the scan chunk so a small tensor spans many chunks.
        monkeypatch.setattr(packed, "CHUNK_BITS", 256)
        values = np.random.default_rng(4).standard_normal(100).astype(np.float32)
        model = make_error_model(model_id, 5e-2, seed=7)
        layout = DramLayout(row_size_bits=128, start_bit=31)
        reference, fast, rng_ref, rng_packed = _both_paths(values, 8, model, layout, seed=11)
        np.testing.assert_array_equal(reference, fast)
        assert rng_ref.random() == rng_packed.random()

    @given(
        model_id=st.sampled_from([0, 1, 2, 3]),
        bits=st.sampled_from([4, 8, 16, 32]),
        ber=st.floats(min_value=1e-5, max_value=0.3),
        size=st.integers(min_value=1, max_value=700),
        seed=st.integers(min_value=0, max_value=2**20),
        start_bit=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_packed_equals_reference(self, model_id, bits, ber, size,
                                              seed, start_bit):
        values = np.random.default_rng(seed ^ 0xABCD).standard_normal(size)
        values = values.astype(np.float32)
        model = make_error_model(model_id, ber, seed=seed % 17)
        layout = DramLayout(row_size_bits=512, start_bit=start_bit)
        reference, fast, rng_ref, rng_packed = _both_paths(
            values, bits, model, layout, seed
        )
        np.testing.assert_array_equal(reference, fast)
        assert rng_ref.random() == rng_packed.random()


class TestPositionCache:
    @pytest.mark.parametrize("model_id", [0, 1, 2, 3])
    def test_repeated_loads_reuse_cache_without_changing_results(self, model_id):
        # Same model instance injecting many tensors (the sweep access
        # pattern: cache hits after the first load of each geometry) must
        # match fresh model instances (no cache) on a continuing stream.
        values_a = np.random.default_rng(1).standard_normal(901).astype(np.float32)
        values_b = np.random.default_rng(2).standard_normal(901).astype(np.float32)
        values_c = np.random.default_rng(3).standard_normal(400).astype(np.float32)

        reused = make_error_model(model_id, 5e-3, seed=4)
        rng_reused = np.random.default_rng(9)
        out_reused = [inject_bit_errors(v, 32, reused, DramLayout(), rng_reused)
                      for v in (values_a, values_b, values_c, values_a)]
        assert reused._position_cache  # the cache actually engaged

        rng_fresh = np.random.default_rng(9)
        out_fresh = [
            inject_bit_errors(v, 32, make_error_model(model_id, 5e-3, seed=4),
                              DramLayout(), rng_fresh)
            for v in (values_a, values_b, values_c, values_a)
        ]
        for got, expected in zip(out_reused, out_fresh):
            np.testing.assert_array_equal(got, expected)

    def test_data_dependent_probabilities_not_cached(self):
        # Model 3's flip probabilities follow the stored data even when the
        # weak positions come from the cache: all-ones vs all-zeros tensors
        # of the same geometry must see different flip rates (FV1 >> FV0).
        from repro.dram.error_models import DataDependentErrorModel

        model = DataDependentErrorModel(0.05, 0.9, 0.0, seed=0)
        ones = np.full(4096, -1.0, dtype=np.float32)   # many 1-bits (sign+mantissa)
        rng = np.random.default_rng(0)
        corrupted_ones = inject_bit_errors(ones, 32, model, DramLayout(), rng)
        assert model._position_cache
        zeros = np.zeros(4096, dtype=np.float32)       # all 0-bits: FV0=0 -> no flips
        corrupted_zeros = inject_bit_errors(zeros, 32, model, DramLayout(), rng)
        assert not np.array_equal(corrupted_ones, ones)
        np.testing.assert_array_equal(corrupted_zeros, zeros)


class TestUniformThreshold:
    @given(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        key=st.integers(min_value=0, max_value=(1 << 53) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_compare_matches_float_compare(self, fraction, key):
        threshold = uniform_threshold(fraction)
        as_uniform = float(key) / float(1 << 53) + 1e-16
        assert (key < threshold) == (as_uniform < fraction)

    def test_extremes(self):
        assert uniform_threshold(0.0) == 0
        assert uniform_threshold(1e-17) == 0        # the +1e-16 floor
        assert uniform_threshold(2.0) == 1 << 53    # everything is weak

    def test_hash_keys_match_hash_uniform(self):
        indices = np.arange(10_000, dtype=np.uint64)
        keys = hash_keys(indices, seed=9, stream=101)
        uniforms = packed._hash_uniform(indices, seed=9, stream=101)
        np.testing.assert_array_equal(
            uniforms, keys.astype(np.float64) / float(1 << 53) + 1e-16
        )


class TestSampler:
    def test_sparse_and_dense_branches_agree(self):
        total = 40_000
        rng_positions = np.random.default_rng(0)
        positions = np.sort(rng_positions.choice(total, size=120, replace=False))
        probabilities = np.full(positions.size, 0.5)
        rng_a = np.random.default_rng(1)
        sparse = sample_flip_positions(rng_a, total, positions, probabilities)
        # Ground truth: the one-uniform-per-bit dense draw the legacy path did.
        rng_b = np.random.default_rng(1)
        expected = positions[rng_b.random(total)[positions] < probabilities]
        np.testing.assert_array_equal(np.sort(sparse), expected)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert rng_a.random() == rng_b.random()

    def test_no_candidates_still_advances_stream(self):
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        out = sample_flip_positions(rng_a, 1000, np.empty(0, dtype=np.int64),
                                    np.empty(0))
        rng_b.random(1000)
        assert out.size == 0
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert rng_a.random() == rng_b.random()

    def test_zero_probability_candidates_are_pruned(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        positions = np.array([5, 10, 20], dtype=np.int64)
        out = sample_flip_positions(rng_a, 100, positions, np.zeros(3))
        rng_b.random(100)
        assert out.size == 0
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert rng_a.random() == rng_b.random()

    def test_candidates_at_edges_and_table_seams(self):
        # The jump-ahead splits stream offsets at multiples of 2**16.
        total = 5 * (1 << 16) + 123
        seams = [k << 16 for k in range(1, 6)]
        positions = np.unique([0, total - 1] + seams + [seam - 1 for seam in seams]
                              + [seam - 2 for seam in seams])
        probabilities = np.full(positions.size, 0.5)
        rng_a = np.random.default_rng(21)
        rng_b = np.random.default_rng(21)
        uniforms = packed._pcg64_uniforms(*_pcg64_state(rng_a), positions + 1)
        flips = sample_flip_positions(rng_a, total, positions, probabilities)
        dense = rng_b.random(total)[positions]
        np.testing.assert_array_equal(uniforms, dense)
        np.testing.assert_array_equal(flips, positions[dense < probabilities])
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_stream_beyond_32_bits(self):
        # Too long to draw densely: the per-candidate ``advance`` loop is
        # the oracle here.
        total = (1 << 32) + (1 << 20)
        positions = np.array([0, 1, (1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32,
                              (1 << 32) + 70_000, total - 1], dtype=np.int64)
        probabilities = np.full(positions.size, 0.5)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        flips = sample_flip_positions(rng_a, total, positions, probabilities)
        draws, cursor = [], 0
        for position in positions.tolist():
            rng_b.bit_generator.advance(position - cursor)
            draws.append(rng_b.random())
            cursor = position + 1
        rng_b.bit_generator.advance(total - cursor)
        np.testing.assert_array_equal(flips, positions[np.array(draws) < probabilities])
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_seed_sequence_generators_with_full_width_increment(self):
        total = 200_000
        positions = np.sort(np.random.default_rng(1).choice(total, 3000, replace=False))
        probabilities = np.random.default_rng(2).random(positions.size)
        full_width = 0
        for entropy in (0, 1, 2**64 + 3, 2**127 + 12345, 98765432109876543210):
            seeds = np.random.SeedSequence(entropy)
            rng_a = np.random.Generator(np.random.PCG64(seeds))
            rng_b = np.random.Generator(np.random.PCG64(seeds))
            full_width += rng_a.bit_generator.state["state"]["inc"] >> 127
            flips = sample_flip_positions(rng_a, total, positions, probabilities)
            expected = positions[rng_b.random(total)[positions] < probabilities]
            np.testing.assert_array_equal(flips, expected)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert full_width  # at least one increment uses its top bit

    def test_buffered_half_word_survives(self):
        # ``rng.random`` keeps a buffered 32-bit half; ``advance`` drops it.
        rng_a = np.random.default_rng(6)
        rng_b = np.random.default_rng(6)
        for rng in (rng_a, rng_b):
            rng.integers(0, 10, dtype=np.uint32)
        positions = np.array([3, 40_000], dtype=np.int64)
        sample_flip_positions(rng_a, 50_000, positions, np.full(2, 0.5))
        skip_stream(rng_a, 70_000)
        rng_b.random(120_000)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert rng_a.integers(0, 1 << 32, dtype=np.uint32) == \
            rng_b.integers(0, 1 << 32, dtype=np.uint32)

    def test_step_and_output_formula_match_numpy(self):
        # Pins PCG64's LCG step and XSL-RR output against numpy itself, so
        # a change in numpy's PCG64 fails here first.
        bit_generator = np.random.PCG64(np.random.SeedSequence(2024))
        state, inc = _pcg64_state(np.random.Generator(bit_generator))
        expected = []
        for _ in range(64):
            state = (state * PCG64_MULTIPLIER + inc) & MASK128
            high, low = state >> 64, state & ((1 << 64) - 1)
            folded, rotation = high ^ low, state >> 122
            expected.append((folded >> rotation | folded << (64 - rotation)) & ((1 << 64) - 1))
        np.testing.assert_array_equal(bit_generator.random_raw(64),
                                      np.array(expected, dtype=np.uint64))

        rng = np.random.default_rng(77)
        uniforms = packed._pcg64_uniforms(*_pcg64_state(rng), np.arange(1, 5001))
        np.testing.assert_array_equal(uniforms, rng.random(5000))

    def test_xor_mask_folds_positions(self):
        mask = xor_mask_from_positions(np.array([0, 9, 9, 17]), num_words=3,
                                       bits_per_word=8)
        # Bit 9 appears twice: the XORs cancel.
        np.testing.assert_array_equal(mask, [1, 0, 2])

    def test_expand_spans_matches_list_of_aranges(self):
        los = np.array([4, 9, 9, 20, 0, 31, 40], dtype=np.int64)
        his = np.array([8, 9, 10, 20, 3, 33, 41], dtype=np.int64)
        expected = np.concatenate([np.arange(lo, hi) for lo, hi in zip(los, his)])
        np.testing.assert_array_equal(expand_spans(los, his), expected)
        assert expand_spans(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0
        assert expand_spans(np.array([5]), np.array([5])).size == 0
        np.testing.assert_array_equal(expand_spans(np.array([7]), np.array([8])), [7])

    def test_bit_gather_matches_boolean_expansion(self):
        words = np.array([0b1011, 0b0110], dtype=np.uint64)
        bit_at = make_bit_gather(words, 4)
        expected = [1, 1, 0, 1, 0, 1, 1, 0]
        got = bit_at(np.arange(8))
        np.testing.assert_array_equal(got, np.array(expected, dtype=bool))


class TestDeviceParity:
    GEOMETRY = DramGeometry(row_size_bytes=512, subarrays_per_bank=4,
                            rows_per_subarray=64)

    def _device(self, vendor="A", seed=1):
        return ApproximateDram(vendor, geometry=self.GEOMETRY, seed=seed)

    def _reference_read(self, device, stored, start, op_point, rng):
        addresses = np.arange(start, start + stored.size, dtype=np.uint64)
        probabilities = device.flip_probabilities(addresses, stored, op_point)
        flips = rng.random(stored.shape) < probabilities
        return np.logical_xor(stored, flips)

    @pytest.mark.parametrize("vendor", ["A", "B", "C"])
    def test_read_bits_matches_dense_formula(self, vendor):
        device = self._device(vendor)
        op_point = DramOperatingPoint.from_reductions(delta_vdd=0.30, delta_trcd_ns=6.0)
        stored = np.random.default_rng(3).random(20_000) < 0.5
        rng_ref = np.random.default_rng(11)
        rng_fast = np.random.default_rng(11)
        expected = self._reference_read(device, stored, 1234, op_point, rng_ref)
        got = device.read_bits(stored, 1234, op_point, rng=rng_fast)
        np.testing.assert_array_equal(expected, got)
        assert rng_ref.random() == rng_fast.random()

    def test_read_words_matches_read_bits(self):
        device = self._device()
        op_point = DramOperatingPoint.from_reductions(delta_vdd=0.25)
        words = np.random.default_rng(4).integers(0, 1 << 32, 4096, dtype=np.uint64)
        stored = ((words[:, None] >> np.arange(32, dtype=np.uint64)) & np.uint64(1))
        stored = stored.astype(bool).ravel()
        rng_a = np.random.default_rng(12)
        rng_b = np.random.default_rng(12)
        from_bits = device.read_bits(stored, 4096, op_point, rng=rng_a)
        from_words = device.read_words(words, 32, 4096, op_point, rng=rng_b)
        expanded = ((from_words[:, None] >> np.arange(32, dtype=np.uint64)) & np.uint64(1))
        np.testing.assert_array_equal(from_bits, expanded.astype(bool).ravel())

    def test_nominal_read_is_clean_and_stream_exact(self):
        device = self._device()
        stored = np.random.default_rng(5).random(5000) < 0.5
        rng_a = np.random.default_rng(6)
        rng_b = np.random.default_rng(6)
        out = device.read_bits(stored, 0, DramOperatingPoint.nominal(), rng=rng_a)
        np.testing.assert_array_equal(out, stored)
        rng_b.random(5000)
        assert rng_a.random() == rng_b.random()

    def test_spatial_tables_match_elementwise_multipliers(self):
        device = self._device("B", seed=9)
        addresses = np.arange(777, 777 + 30_000, dtype=np.uint64)
        np.testing.assert_array_equal(
            device._spatial_from_tables(addresses),
            device._spatial_multipliers(addresses),
        )
