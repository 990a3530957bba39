"""Tests for bit-error injection into tensors, DRAM energy and partitions."""

import numpy as np
import pytest

from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.energy import (
    DramEnergyModel,
    ENERGY_PARAMETER_SETS,
    TrafficProfile,
)
from repro.dram.error_models import DramLayout, make_error_model
from repro.dram.geometry import PartitionLevel
from repro.dram.injection import (
    BitErrorInjector,
    DeviceBackedInjector,
    flip_bits_in_words,
    inject_bit_errors,
)
from repro.dram.partitions import DramPartition, PartitionTable, operating_point_cost
from repro.dram.voltage import VoltageDomain
from repro.nn.quantization import fake_quantize, make_spec
from repro.nn.tensor import DataKind, TensorSpec

from tests.conftest import TEST_GEOMETRY


def spec_of(name, shape, bits=32):
    return TensorSpec(name=name, kind=DataKind.WEIGHT, shape=shape,
                      dtype_bits=bits, layer_index=0)


class TestFlipBits:
    def test_single_bit_flip_fp32_sign(self):
        values = np.array([1.0], dtype=np.float32)
        words = values.view(np.uint32).astype(np.uint64)
        mask = np.zeros(32, dtype=bool)
        mask[31] = True  # IEEE-754 sign bit
        flipped = flip_bits_in_words(words, 32, mask)
        result = flipped.astype(np.uint32).view(np.float32)
        assert result[0] == -1.0

    def test_no_flips_is_identity(self):
        words = np.array([123, 456], dtype=np.uint64)
        out = flip_bits_in_words(words, 8, np.zeros(16, dtype=bool))
        np.testing.assert_array_equal(out, words)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flip_bits_in_words(np.zeros(2, dtype=np.uint64), 8, np.zeros(15, dtype=bool))


class TestInjectBitErrors:
    def test_fp32_flip_fraction_matches_ber(self, rng):
        values = rng.standard_normal(20_000).astype(np.float32)
        model = make_error_model(0, 1e-2, seed=1)
        out = inject_bit_errors(values, 32, model, DramLayout(), rng)
        changed = float(np.mean(out != values))
        expected = 1.0 - (1.0 - 1e-2) ** 32
        assert changed == pytest.approx(expected, rel=0.2)

    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_integer_injection_changes_quantized_values(self, bits, rng):
        values = rng.standard_normal(10_000).astype(np.float32)
        quantized = fake_quantize(values, make_spec(values, bits))
        model = make_error_model(0, 2e-2, seed=1)
        out = inject_bit_errors(values, bits, model, DramLayout(), rng)
        changed = float(np.mean(out != quantized))
        expected = 1.0 - (1.0 - 2e-2) ** bits
        assert changed == pytest.approx(expected, rel=0.3)
        # Corrupted integer values stay inside the representable two's-complement
        # range (|qmin| / qmax is the worst-case growth factor).
        growth = (2 ** (bits - 1)) / (2 ** (bits - 1) - 1)
        assert np.abs(out).max() <= np.abs(quantized).max() * growth + 1e-6

    def test_zero_ber_is_lossless_for_fp32(self, rng):
        values = rng.standard_normal(1000).astype(np.float32)
        model = make_error_model(0, 1e-3, seed=1).with_ber(0.0)
        out = inject_bit_errors(values, 32, model, DramLayout(), rng)
        np.testing.assert_array_equal(out, values)

    def test_shape_preserved(self, rng):
        values = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        model = make_error_model(0, 1e-2, seed=1)
        assert inject_bit_errors(values, 32, model, DramLayout(), rng).shape == values.shape


class TestBitErrorInjector:
    def test_apply_respects_enabled_flag(self, rng):
        injector = BitErrorInjector(make_error_model(0, 5e-2, seed=1), seed=0)
        values = rng.standard_normal(5000).astype(np.float32)
        injector.enabled = False
        np.testing.assert_array_equal(injector.apply(values, spec_of("w", values.shape)), values)
        injector.enabled = True
        assert not np.array_equal(injector.apply(values, spec_of("w", values.shape)), values)

    def test_per_tensor_ber_overrides(self, rng):
        injector = BitErrorInjector(
            make_error_model(0, 1e-3, seed=1),
            per_tensor_ber={"clean": 0.0, "noisy": 0.1}, seed=0,
        )
        values = rng.standard_normal(5000).astype(np.float32)
        clean = injector.apply(values, spec_of("clean", values.shape))
        noisy = injector.apply(values, spec_of("noisy", values.shape))
        np.testing.assert_array_equal(clean, values)
        assert float(np.mean(noisy != values)) > 0.5

    def test_set_global_ber_rescales(self, rng):
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=1), seed=0)
        injector.set_global_ber(0.05)
        assert injector.error_model.expected_ber() == pytest.approx(0.05, rel=0.05)

    def test_corrector_applied_after_injection(self, rng):
        corrections = []

        def corrector(array, spec):
            corrections.append(spec.name)
            return np.clip(np.nan_to_num(array, nan=0.0, posinf=1.0, neginf=-1.0), -1, 1)

        injector = BitErrorInjector(make_error_model(0, 1e-2, seed=1),
                                    corrector=corrector, seed=0)
        values = rng.standard_normal(2000).astype(np.float32)
        out = injector.apply(values, spec_of("w", values.shape))
        assert corrections == ["w"]
        assert np.abs(out).max() <= 1.0

    def test_stats_track_loads(self, rng):
        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=1), seed=0)
        values = rng.standard_normal(128).astype(np.float32)
        injector.apply(values, spec_of("w", values.shape))
        injector.apply(values, spec_of("w", values.shape))
        assert injector.stats["loads"] == 2
        assert injector.stats["values_loaded"] == 256


class TestDeviceBackedInjector:
    def test_tensor_addresses_are_stable(self, device_vendor_a, rng):
        op_point = DramOperatingPoint.from_reductions(delta_vdd=0.3)
        injector = DeviceBackedInjector(device_vendor_a, op_point, seed=0)
        values = rng.standard_normal(4096).astype(np.float32)
        injector.apply(values, spec_of("a", values.shape))
        address_a = injector._addresses["a"]
        injector.apply(values, spec_of("b", values.shape))
        injector.apply(values, spec_of("a", values.shape))
        assert injector._addresses["a"] == address_a
        assert injector._addresses["b"] != address_a

    def test_nominal_operating_point_is_lossless(self, device_vendor_a, rng):
        injector = DeviceBackedInjector(device_vendor_a, DramOperatingPoint.nominal(), seed=0)
        values = rng.standard_normal(2048).astype(np.float32)
        np.testing.assert_array_equal(injector.apply(values, spec_of("a", values.shape)), values)

    def test_reduced_voltage_corrupts_values(self, device_vendor_a, rng):
        op_point = DramOperatingPoint.from_reductions(delta_vdd=0.30)
        injector = DeviceBackedInjector(device_vendor_a, op_point, seed=0)
        values = rng.standard_normal(20_000).astype(np.float32)
        out = injector.apply(values, spec_of("a", values.shape))
        assert not np.array_equal(out, values)


def _make_injector(kind, device, corrector, **kwargs):
    if kind == "model":
        return BitErrorInjector(make_error_model(0, 5e-2, seed=1),
                                corrector=corrector, seed=0, **kwargs)
    return DeviceBackedInjector(device, DramOperatingPoint.from_reductions(delta_vdd=0.3),
                                corrector=corrector, seed=0)


class _RecordingCorrector:
    def __init__(self):
        self.seen = []

    def __call__(self, array, spec):
        self.seen.append(array)
        return array


class TestPassthroughRules:
    """Both DRAM injectors share one read path and one set of passthroughs."""

    @pytest.mark.parametrize("kind", ["model", "device"])
    def test_disabled_returns_input_uncorrected_but_counted(self, kind, device_vendor_a, rng):
        corrector = _RecordingCorrector()
        injector = _make_injector(kind, device_vendor_a, corrector)
        injector.enabled = False
        values = rng.standard_normal(300).astype(np.float32)
        assert injector.apply(values, spec_of("w", values.shape)) is values
        assert corrector.seen == []
        assert injector.stats == {"loads": 1, "values_loaded": 300}

    @pytest.mark.parametrize("kind", ["model", "device"])
    def test_enabled_load_is_read_then_corrected(self, kind, device_vendor_a, rng):
        corrector = _RecordingCorrector()
        injector = _make_injector(kind, device_vendor_a, corrector)
        values = rng.standard_normal(300).astype(np.float32)
        out = injector.apply(values, spec_of("w", values.shape))
        assert len(corrector.seen) == 1 and corrector.seen[0] is out
        assert out is not values

    def test_excluded_kind_skips_corrector(self, rng):
        corrector = _RecordingCorrector()
        injector = _make_injector("model", None, corrector,
                                  data_kinds={DataKind.WEIGHT})
        values = rng.standard_normal(300).astype(np.float32)
        ifm = TensorSpec("x", DataKind.IFM, values.shape, 32, 0)
        assert injector.apply(values, ifm) is values
        assert corrector.seen == []
        assert injector.stats["loads"] == 1

    def test_zero_ber_load_is_corrected_unpacked(self, rng):
        corrector = _RecordingCorrector()
        injector = _make_injector("model", None, corrector,
                                  per_tensor_ber={"w": 0.0})
        values = rng.standard_normal(300).astype(np.float32)
        assert injector.apply(values, spec_of("w", values.shape)) is values
        # The corrector sees the input object itself: nothing was packed.
        assert len(corrector.seen) == 1 and corrector.seen[0] is values


class TestEnergyModel:
    def test_voltage_reduction_cuts_dynamic_energy_quadratically(self):
        model = DramEnergyModel("DDR4-2400")
        traffic = TrafficProfile(reads_bytes=1e8, writes_bytes=2e7,
                                 row_activations=1e6, execution_time_ms=10.0)
        nominal = model.energy(traffic)
        reduced = model.energy(traffic, voltage=VoltageDomain(vdd=1.05))
        scale = (1.05 / 1.35) ** 2
        assert reduced.activate_nj == pytest.approx(nominal.activate_nj * scale, rel=1e-6)
        assert reduced.total_nj < nominal.total_nj

    def test_energy_reduction_helper(self):
        model = DramEnergyModel("DDR4-2400")
        traffic = TrafficProfile(reads_bytes=1e8, writes_bytes=2e7,
                                 row_activations=1e6, execution_time_ms=10.0)
        reduction = model.energy_reduction(traffic, traffic, VoltageDomain(vdd=1.05))
        assert 0.1 < reduction < 0.5

    def test_breakdown_components_sum(self):
        model = DramEnergyModel("LPDDR3-1600")
        traffic = TrafficProfile(reads_bytes=1e7, writes_bytes=1e7,
                                 row_activations=1e5, execution_time_ms=5.0)
        energy = model.energy(traffic)
        assert energy.total_nj == pytest.approx(energy.dynamic_nj + energy.static_nj)
        assert energy.total_mj == pytest.approx(energy.total_nj * 1e-6)

    def test_memory_types_registered(self):
        assert set(ENERGY_PARAMETER_SETS) >= {"DDR4-2400", "DDR4-2133", "LPDDR3-1600", "GDDR5"}
        with pytest.raises(KeyError):
            DramEnergyModel("HBM3")

    def test_traffic_validation_and_scaling(self):
        with pytest.raises(ValueError):
            TrafficProfile(reads_bytes=-1)
        traffic = TrafficProfile(reads_bytes=640, writes_bytes=64, execution_time_ms=2.0)
        assert traffic.read_lines == 10 and traffic.write_lines == 1
        assert traffic.scaled_time(0.5).execution_time_ms == 1.0


class TestPartitions:
    def _op(self, delta_vdd):
        return DramOperatingPoint.from_reductions(delta_vdd=delta_vdd)

    def test_best_operating_point_prefers_aggressive_params(self):
        partition = DramPartition(0, PartitionLevel.BANK, 1 << 20)
        partition.add_operating_point(self._op(0.05), 1e-6)
        partition.add_operating_point(self._op(0.25), 1e-3)
        partition.add_operating_point(self._op(0.35), 1e-1)
        op_point, ber = partition.best_operating_point(max_ber=1e-2)
        assert op_point.vdd == pytest.approx(1.10)
        assert ber == 1e-3
        assert partition.best_operating_point(max_ber=1e-9) is None

    def test_reserve_tracks_capacity(self):
        partition = DramPartition(0, PartitionLevel.BANK, 1000)
        partition.reserve(600)
        assert partition.available_bytes == 400
        with pytest.raises(ValueError):
            partition.reserve(500)
        partition.reset_capacity()
        assert partition.available_bytes == 1000

    def test_reserve_rejects_negative_sizes(self):
        # A negative reservation would silently *grow* capacity.
        partition = DramPartition(0, PartitionLevel.BANK, 1000)
        with pytest.raises(ValueError):
            partition.reserve(-1)
        assert partition.available_bytes == 1000

    def test_reserve_truncates_before_validating(self):
        # The capacity check must see the same truncated size that gets
        # subtracted: historically 1000.7 was compared raw (and refused) but
        # 999.9 passed raw and subtracted int(999.9) == 999 — check and
        # mutation disagreed.  Both must now go through whole-byte sizes.
        partition = DramPartition(0, PartitionLevel.BANK, 1000)
        partition.reserve(999.9)
        assert partition.available_bytes == 1
        partition.reset_capacity()
        partition.reserve(1000.7)      # truncates to exactly the free space
        assert partition.available_bytes == 0

    def test_operating_point_cost_ordering(self):
        assert operating_point_cost(self._op(0.3)) < operating_point_cost(self._op(0.0))

    def test_operating_point_cost_default_follows_timing_model(self):
        # The default nominal tRCD must come from NOMINAL_DDR4_TIMING, not a
        # hard-coded literal that could drift from the timing model.
        from repro.dram.timing import NOMINAL_DDR4_TIMING
        from repro.dram.voltage import NOMINAL_VDD

        op = self._op(0.0)
        assert operating_point_cost(op) == operating_point_cost(
            op, nominal_vdd=NOMINAL_VDD,
            nominal_trcd_ns=NOMINAL_DDR4_TIMING.trcd_ns)
        nominal = DramOperatingPoint.nominal()
        assert operating_point_cost(nominal) == pytest.approx(2.0)

    def test_table_from_device(self, device_vendor_a):
        ops = [self._op(0.1), self._op(0.3)]
        table = PartitionTable.from_device(device_vendor_a, ops,
                                           level=PartitionLevel.BANK, sample_bits=1 << 12)
        assert len(table) == device_vendor_a.geometry.num_banks
        assert table.total_capacity_bytes() == device_vendor_a.geometry.capacity_bytes
        assert len(table.operating_points()) == 2
        for partition in table:
            assert partition.ber_by_op_point[ops[1]] >= partition.ber_by_op_point[ops[0]]

    def test_synthetic_table_spread(self):
        ops = {self._op(0.2): 1e-3}
        table = PartitionTable.synthetic(8, 1 << 20, ops, spread=0.5, seed=0)
        bers = [p.ber_by_op_point[list(ops)[0]] for p in table]
        assert len(set(bers)) == 8
        with pytest.raises(ValueError):
            PartitionTable.synthetic(0, 1 << 20, ops)
        with pytest.raises(ValueError):
            PartitionTable([], PartitionLevel.BANK)
