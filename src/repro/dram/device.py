"""Behavioural model of a real approximate DRAM module.

The paper's ground truth is a set of eight real DDR3/DDR4 modules operated
below nominal voltage and tRCD through SoftMC.  This module provides the
simulated equivalent: an :class:`ApproximateDram` whose bit flips are

* **deterministic in their spatial structure** — every cell has a fixed
  "weakness" value derived from a per-device seed, so the set of weak cells
  (and therefore which bitlines/wordlines are error-prone) is stable across
  reads, days and re-profiling, matching the temporal consistency the paper
  reports; and
* **stochastic per access** — a weak cell fails on any given access with the
  vendor's per-access failure probability, modulated by the stored data
  pattern (1→0 flips dominate under voltage reduction, 0→1 under tRCD
  reduction) and the cell's bitline/wordline failure multipliers.

Everything is generated lazily from counter-based hashing, so a multi-gigabyte
module costs no memory and reads of arbitrary addresses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.dram.error_models import BurstProfile
from repro.dram.geometry import DramGeometry
from repro.dram.packed import (
    _hash_uniform,
    expand_spans,
    hash_keys,
    iter_bit_chunks,
    make_bit_gather,
    sample_flip_positions,
    skip_stream,
    uniform_threshold,
    xor_mask_from_positions,
)
from repro.dram.timing import NOMINAL_DDR4_TIMING, TimingParameters
from repro.dram.vendors import MAX_BER, VendorProfile, get_vendor
from repro.dram.voltage import NOMINAL_VDD, VoltageDomain


@dataclass(frozen=True)
class DramOperatingPoint:
    """A (supply voltage, timing parameters) pair the module is operated at."""

    voltage: VoltageDomain = field(default_factory=VoltageDomain)
    timing: TimingParameters = NOMINAL_DDR4_TIMING

    @property
    def vdd(self) -> float:
        return self.voltage.vdd

    @property
    def trcd_ns(self) -> float:
        return self.timing.trcd_ns

    @classmethod
    def nominal(cls) -> "DramOperatingPoint":
        return cls()

    @classmethod
    def from_reductions(cls, delta_vdd: float = 0.0, delta_trcd_ns: float = 0.0,
                        nominal_vdd: float = NOMINAL_VDD,
                        nominal_timing: TimingParameters = NOMINAL_DDR4_TIMING,
                        ) -> "DramOperatingPoint":
        voltage = VoltageDomain(vdd=nominal_vdd, nominal_vdd=nominal_vdd).reduced_by(delta_vdd)
        timing = nominal_timing.with_reduced_trcd(delta_trcd_ns)
        return cls(voltage=voltage, timing=timing)

    def describe(self) -> str:
        return f"VDD={self.vdd:.2f}V, tRCD={self.trcd_ns:.1f}ns"


class ApproximateDram:
    """A DRAM module that can be operated below nominal voltage and latency."""

    def __init__(self, vendor: str = "A", geometry: Optional[DramGeometry] = None,
                 seed: int = 0, nominal_vdd: float = NOMINAL_VDD,
                 nominal_timing: TimingParameters = NOMINAL_DDR4_TIMING,
                 burst_profile: Optional[BurstProfile] = None):
        self.vendor: VendorProfile = get_vendor(vendor) if isinstance(vendor, str) else vendor
        self.geometry = geometry or DramGeometry()
        self.seed = int(seed)
        self.nominal_vdd = float(nominal_vdd)
        self.nominal_timing = nominal_timing
        # Optional correlated-burst overlay: the voltage/tRCD mechanisms keep
        # producing their single-bit flips, and weak aligned spans (stream
        # 17+k per class) fire on top so the single/burst mix approaches
        # burst_profile.single_fraction.  None (the default) adds no draws
        # and leaves every existing read bit-identical.
        self.burst_profile = burst_profile
        # per-bank caches of the bitline spatial factors (seed-determined, so
        # they never invalidate for the lifetime of the device object).
        self._bitline_factor_cache: Dict[int, np.ndarray] = {}

    # -- aggregate behaviour ---------------------------------------------------------
    def expected_ber(self, op_point: DramOperatingPoint, ones_fraction: float = 0.5) -> float:
        """Expected module-wide BER at an operating point for a data pattern.

        ``ones_fraction`` is the fraction of stored bits that are 1 (0.5 for a
        random pattern, 1.0 for 0xFF, 0.0 for 0x00).
        """
        vendor = self.vendor
        v_ber = vendor.voltage_ber(op_point.vdd, self.nominal_vdd)
        t_ber = vendor.trcd_ber(op_point.trcd_ns, self.nominal_timing.trcd_ns)
        bias_v = vendor.one_to_zero_bias_voltage
        bias_t = vendor.one_to_zero_bias_trcd
        v_component = v_ber * 2.0 * (bias_v * ones_fraction + (1.0 - bias_v) * (1.0 - ones_fraction))
        t_component = t_ber * 2.0 * (bias_t * ones_fraction + (1.0 - bias_t) * (1.0 - ones_fraction))
        return float(np.clip(v_component + t_component, 0.0, MAX_BER))

    # -- per-bit flip probabilities ----------------------------------------------------
    def _spatial_multipliers(self, bit_addresses: np.ndarray) -> np.ndarray:
        """Per-bit log-normal multipliers from bitline and wordline variation."""
        geometry = self.geometry
        row_bits = geometry.row_size_bits
        bank_bits = geometry.bank_size_bytes * 8
        bank = bit_addresses // bank_bits
        within_bank = bit_addresses % bank_bits
        row = within_bank // row_bits
        bitline = within_bank % row_bits

        bitline_key = bank * np.uint64(row_bits) + bitline
        wordline_key = bank * np.uint64(geometry.rows_per_bank) + row

        sigma_b = self.vendor.bitline_variation
        sigma_w = self.vendor.wordline_variation
        u_b = _hash_uniform(bitline_key, self.seed, stream=11)
        u_w = _hash_uniform(wordline_key, self.seed, stream=13)
        # Inverse-normal via scipy-free approximation: use the probit from the
        # logistic approximation, adequate for generating log-normal spread.
        z_b = np.log(u_b / (1.0 - u_b)) * 0.5513  # logistic ~ N(0,1) scaling
        z_w = np.log(u_w / (1.0 - u_w)) * 0.5513
        multiplier = np.exp(sigma_b * z_b - 0.5 * sigma_b ** 2) * np.exp(
            sigma_w * z_w - 0.5 * sigma_w ** 2
        )
        return multiplier

    def flip_probabilities(self, bit_addresses: np.ndarray, stored_bits: np.ndarray,
                           op_point: DramOperatingPoint) -> np.ndarray:
        """Probability that each addressed bit reads back flipped."""
        bit_addresses = np.asarray(bit_addresses, dtype=np.uint64)
        stored_bits = np.asarray(stored_bits, dtype=bool)
        if bit_addresses.shape != stored_bits.shape:
            raise ValueError("bit_addresses and stored_bits must have the same shape")

        vendor = self.vendor
        fail_prob = vendor.weak_cell_failure_probability
        v_ber = vendor.voltage_ber(op_point.vdd, self.nominal_vdd)
        t_ber = vendor.trcd_ber(op_point.trcd_ns, self.nominal_timing.trcd_ns)

        spatial = self._spatial_multipliers(bit_addresses)

        probabilities = np.zeros(bit_addresses.shape, dtype=np.float64)
        for mechanism, ber, stream in (("voltage", v_ber, 1), ("trcd", t_ber, 2)):
            if ber <= 0.0:
                continue
            weak_fraction = np.clip(ber / fail_prob * spatial, 0.0, 1.0)
            weakness = _hash_uniform(bit_addresses, self.seed, stream=stream)
            is_weak = weakness < weak_fraction
            weights = vendor.flip_weight(stored_bits, mechanism)
            probabilities += is_weak * np.clip(fail_prob * weights, 0.0, 1.0)
        return np.clip(probabilities, 0.0, 1.0)

    # -- packed read path ---------------------------------------------------------
    def _bitline_factors(self, bank: int) -> np.ndarray:
        """Spatial factor of every bitline in ``bank`` (cached; seed-determined)."""
        cached = self._bitline_factor_cache.get(bank)
        if cached is None:
            row_bits = self.geometry.row_size_bits
            keys = np.uint64(bank) * np.uint64(row_bits) + np.arange(row_bits, dtype=np.uint64)
            u_b = _hash_uniform(keys, self.seed, stream=11)
            z_b = np.log(u_b / (1.0 - u_b)) * 0.5513
            sigma_b = self.vendor.bitline_variation
            cached = np.exp(sigma_b * z_b - 0.5 * sigma_b ** 2)
            self._bitline_factor_cache[bank] = cached
        return cached

    def _wordline_factors(self, wordline_keys: np.ndarray) -> np.ndarray:
        u_w = _hash_uniform(wordline_keys, self.seed, stream=13)
        z_w = np.log(u_w / (1.0 - u_w)) * 0.5513
        sigma_w = self.vendor.wordline_variation
        return np.exp(sigma_w * z_w - 0.5 * sigma_w ** 2)

    def _spatial_from_tables(self, bit_addresses: np.ndarray) -> np.ndarray:
        """Per-bit spatial multipliers via per-bitline / per-wordline tables.

        The elementwise :meth:`_spatial_multipliers` recomputes the same
        ``exp(log(...))`` for every bit on a bitline; here each unique
        bitline/wordline factor is computed once and gathered, producing
        bit-identical float64 products.
        """
        geometry = self.geometry
        row_bits = geometry.row_size_bits
        bank_bits = geometry.bank_size_bytes * 8
        bank = bit_addresses // np.uint64(bank_bits)
        within_bank = bit_addresses % np.uint64(bank_bits)
        row = within_bank // np.uint64(row_bits)
        bitline = within_bank % np.uint64(row_bits)
        out = np.empty(bit_addresses.size, dtype=np.float64)
        for bank_id in np.unique(bank):
            selector = bank == bank_id
            bitline_factors = self._bitline_factors(int(bank_id))
            unique_rows, inverse = np.unique(row[selector], return_inverse=True)
            wordline_keys = np.uint64(int(bank_id) * geometry.rows_per_bank) + unique_rows
            row_factors = self._wordline_factors(wordline_keys)
            out[selector] = bitline_factors[bitline[selector]] * row_factors[inverse]
        return out

    def _flip_positions(self, num_bits: int, start_bit_address: int,
                        op_point: DramOperatingPoint, rng: np.random.Generator,
                        bit_at: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Flat positions (relative to the run start) of bits that flip on one read.

        Stream-exact replacement for ``rng.random(n) < flip_probabilities(...)``:
        candidate bits (non-zero flip probability) are found chunk by chunk,
        the stored value is gathered only at candidates via ``bit_at``, and
        uniforms are drawn through :func:`sample_flip_positions` so the RNG
        ends in the same state as a dense draw over all ``num_bits``.
        """
        vendor = self.vendor
        fail_prob = vendor.weak_cell_failure_probability
        v_ber = vendor.voltage_ber(op_point.vdd, self.nominal_vdd)
        t_ber = vendor.trcd_ber(op_point.trcd_ns, self.nominal_timing.trcd_ns)
        mechanisms = [(mechanism, ber, stream)
                      for mechanism, ber, stream in (("voltage", v_ber, 1), ("trcd", t_ber, 2))
                      if ber > 0.0]
        if not mechanisms:
            skip_stream(rng, num_bits)
            return np.empty(0, dtype=np.int64)

        position_chunks, probability_chunks = [], []
        for start, stop in iter_bit_chunks(num_bits):
            addresses = np.arange(start_bit_address + start, start_bit_address + stop,
                                  dtype=np.uint64)
            spatial = self._spatial_from_tables(addresses)
            weak_masks = []
            for _, ber, stream in mechanisms:
                weak_fraction = np.clip(ber / fail_prob * spatial, 0.0, 1.0)
                weakness = _hash_uniform(addresses, self.seed, stream=stream)
                weak_masks.append(weakness < weak_fraction)
            candidate = weak_masks[0]
            for mask in weak_masks[1:]:
                candidate = candidate | mask
            offsets = np.nonzero(candidate)[0]
            if offsets.size == 0:
                continue
            chunk_positions = offsets.astype(np.int64) + start
            stored = bit_at(chunk_positions)
            probabilities = np.zeros(offsets.size, dtype=np.float64)
            for weak, (mechanism, _, _) in zip(weak_masks, mechanisms):
                weights = vendor.flip_weight(stored, mechanism)
                probabilities += weak[offsets] * np.clip(fail_prob * weights, 0.0, 1.0)
            position_chunks.append(chunk_positions)
            probability_chunks.append(probabilities)

        if not position_chunks:
            skip_stream(rng, num_bits)
            return np.empty(0, dtype=np.int64)
        positions = np.concatenate(position_chunks)
        probabilities = np.concatenate(probability_chunks)
        return sample_flip_positions(rng, num_bits, positions, probabilities)

    def _burst_flip_positions(self, num_bits: int, start_bit_address: int,
                              op_point: DramOperatingPoint,
                              rng: np.random.Generator) -> np.ndarray:
        """Flat positions covered by the burst spans that fire on one read.

        Weak spans are deterministic per (seed, geometry): class ``k``'s
        aligned span indices hash (stream ``17 + k``) against a threshold
        derived from the operating point's BER and the profile's burst share.
        Each weak span in range consumes exactly one uniform — classes in
        profile order, spans ascending — and, when it fires, contributes
        every bit it covers (clipped to the run).  Positions may repeat when
        classes overlap; callers must apply them with XOR-toggle semantics.
        Returns an empty array when no profile is configured, drawing
        nothing.
        """
        profile = self.burst_profile
        if profile is None:
            return np.empty(0, dtype=np.int64)
        fail_prob = self.vendor.weak_cell_failure_probability
        base_ber = self.expected_ber(op_point)
        single = max(profile.single_fraction, 1e-12)
        burst_share = base_ber * (1.0 - profile.single_fraction) / single
        los, his = [], []
        for k, ((span_bits, _), weight) in enumerate(
                zip(profile.span_weights, profile.normalized_weights())):
            span_bits = int(span_bits)
            fraction = float(np.clip(burst_share * weight / fail_prob, 0.0, 1.0))
            first = start_bit_address // span_bits
            last = (start_bit_address + num_bits - 1) // span_bits
            spans = np.arange(first, last + 1, dtype=np.uint64)
            weak = spans[hash_keys(spans, self.seed, stream=17 + k)
                         < uniform_threshold(fraction)].astype(np.int64)
            if weak.size == 0:
                continue
            hit = weak[rng.random(weak.size) < fail_prob]
            los.append(np.maximum(hit * span_bits - start_bit_address, 0))
            his.append(np.minimum((hit + 1) * span_bits - start_bit_address, num_bits))
        if not los:
            return np.empty(0, dtype=np.int64)
        return expand_spans(np.concatenate(los), np.concatenate(his))

    def read_bits(self, stored_bits: np.ndarray, start_bit_address: int,
                  op_point: DramOperatingPoint,
                  rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Read a contiguous run of bits, applying per-access flips.

        ``stored_bits`` is a flat 0/1 array representing what was written; the
        returned array is what a read at ``op_point`` observes.
        """
        stored_bits = np.asarray(stored_bits).astype(bool).ravel()
        if start_bit_address < 0:
            raise ValueError("start_bit_address must be non-negative")
        end = start_bit_address + stored_bits.size
        if end > self.geometry.capacity_bits:
            raise ValueError(
                f"read of {stored_bits.size} bits at {start_bit_address} exceeds module capacity"
            )
        rng = rng or np.random.default_rng(self.seed)
        flips = self._flip_positions(stored_bits.size, start_bit_address, op_point, rng,
                                     lambda positions: stored_bits[positions])
        observed = stored_bits.copy()
        if flips.size:
            observed[flips] ^= True
        bursts = self._burst_flip_positions(stored_bits.size, start_bit_address,
                                            op_point, rng)
        if bursts.size:
            # XOR-toggle: overlapping span classes cancel, exactly like the
            # packed path's xor_mask_from_positions.
            np.bitwise_xor.at(observed, bursts, True)
        return observed

    def read_words(self, words: np.ndarray, bits_per_word: int, start_bit_address: int,
                   op_point: DramOperatingPoint,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Read packed words (``bits_per_word`` stored bits each), applying flips.

        The packed equivalent of :meth:`read_bits`: word ``w``'s bit ``j``
        (LSB-first) lives at bit address ``start_bit_address + w*bits_per_word
        + j``.  Bit-exact with expanding the words to booleans and calling
        :meth:`read_bits` under the same RNG state.
        """
        words = np.asarray(words, dtype=np.uint64)
        if start_bit_address < 0:
            raise ValueError("start_bit_address must be non-negative")
        num_bits = words.size * bits_per_word
        if start_bit_address + num_bits > self.geometry.capacity_bits:
            raise ValueError(
                f"read of {num_bits} bits at {start_bit_address} exceeds module capacity"
            )
        rng = rng or np.random.default_rng(self.seed)
        flips = self._flip_positions(num_bits, start_bit_address, op_point, rng,
                                     make_bit_gather(words, bits_per_word))
        observed = words ^ xor_mask_from_positions(flips, words.size, bits_per_word)
        bursts = self._burst_flip_positions(num_bits, start_bit_address, op_point, rng)
        if bursts.size:
            observed = observed ^ xor_mask_from_positions(bursts, words.size,
                                                          bits_per_word)
        return observed

    # -- partition-level aggregate behaviour --------------------------------------------
    def partition_ber(self, op_point: DramOperatingPoint, bank: int,
                      sample_bits: int = 1 << 15, ones_fraction: float = 0.5) -> float:
        """Monte-Carlo estimate of one bank's BER (banks differ via spatial variation)."""
        if not 0 <= bank < self.geometry.num_banks:
            raise ValueError(f"bank {bank} out of range")
        start = bank * self.geometry.bank_size_bytes * 8
        addresses = np.arange(start, start + sample_bits, dtype=np.uint64)
        rng = np.random.default_rng(self.seed + bank + 1)
        stored = rng.random(sample_bits) < ones_fraction
        probabilities = self.flip_probabilities(addresses, stored, op_point)
        return float(probabilities.mean())

    def describe(self) -> str:
        return (
            f"ApproximateDram(vendor={self.vendor.name}, "
            f"capacity={self.geometry.capacity_bytes / (1 << 30):.1f}GiB, seed={self.seed})"
        )
