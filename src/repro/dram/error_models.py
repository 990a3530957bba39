"""EDEN's four DRAM error models (paper Section 4).

Each model is a parameterizable probabilistic description of where bit flips
land when DRAM is operated with reduced voltage/latency:

* **Error Model 0** — uniform-random flips across a bank; parameters ``P``
  (fraction of weak cells) and ``F`` (probability a weak cell fails on a
  given access).
* **Error Model 1** — flips concentrate on particular *bitlines* (sense-amp
  and column-distance variation).
* **Error Model 2** — flips concentrate on particular *wordlines* (row
  distance variation).
* **Error Model 3** — uniform-random but *data-dependent*: stored 1s and 0s
  fail with different probabilities (``FV1`` / ``FV0``).

Beyond the paper's four, **Error Model 4** (:class:`BurstErrorModel`) mixes
single-bit flips with aligned multi-bit *burst* spans (byte / 2-byte / 4-byte
symbol runs, per :class:`BurstProfile`) — the ~90%/10% single/burst split
real DRAM fleets report, and the fault class ECC codecs are designed around
(see :mod:`repro.core.ecc`).

A model exposes per-bit flip probabilities for a tensor laid out in DRAM
(:class:`DramLayout` maps flat bit indices to wordline/bitline coordinates),
can generate flip masks, report its expected BER for a data pattern, and can
be rescaled to a target BER — which is how EDEN's characterization sweeps
error rates without re-profiling the device.

Weak-cell *positions* are deterministic per model seed (they represent
manufacturing variation frozen at fabrication time); only the per-access
failure outcome is stochastic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.dram.packed import (
    _hash_uniform,
    expand_spans,
    hash_keys,
    make_bit_gather,
    sample_flip_positions,
    scan_weak_positions,
    uniform_threshold,
    xor_mask_from_positions,
)

#: gathers stored bits: flat bit positions -> bool array of the bits' values.
#: Models whose failure probability is data-dependent call this only at their
#: (sparse) weak-cell positions.
BitGather = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DramLayout:
    """How a linear run of bits maps onto DRAM rows.

    ``row_size_bits`` is the wordline length; ``start_bit`` offsets the tensor
    within the bank.  The paper notes tensors are stored contiguously, so MSBs
    of consecutive same-width values land on the same bitlines — the effect
    that makes Error Model 1 so damaging for FP32 data (Section 6.3).
    """

    row_size_bits: int = 65536
    start_bit: int = 0

    def __post_init__(self) -> None:
        if self.row_size_bits <= 0:
            raise ValueError("row_size_bits must be positive")
        if self.start_bit < 0:
            raise ValueError("start_bit must be non-negative")

    def coordinates(self, bit_indices: np.ndarray):
        """Return (wordline, bitline) arrays for flat tensor bit indices."""
        absolute = np.asarray(bit_indices, dtype=np.uint64) + np.uint64(self.start_bit)
        wordline = absolute // np.uint64(self.row_size_bits)
        bitline = absolute % np.uint64(self.row_size_bits)
        return wordline, bitline


#: per-entry and per-model bounds on the weak-position cache (positions are
#: int64; 1M entries is 8 MB — plenty for every tensor in the model zoo).
_MAX_CACHED_POSITIONS = 1 << 20
_MAX_CACHE_ENTRIES = 32


class ErrorModel:
    """Base class: per-bit flip probabilities + sampling + rescaling.

    Models are treated as immutable after construction (rescaling goes
    through :meth:`with_ber`, which returns a new instance) — the packed
    engine relies on this to cache weak-cell positions per tensor geometry.
    """

    #: integer id matching the paper's numbering (0..3)
    model_id: int = -1

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._position_cache: Dict[Tuple[int, int, int], np.ndarray] = {}

    # -- interface ---------------------------------------------------------------
    def flip_probabilities(self, stored_bits: np.ndarray, layout: DramLayout) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract

    def expected_ber(self, ones_fraction: float = 0.5) -> float:
        raise NotImplementedError  # pragma: no cover - abstract

    def with_ber(self, target_ber: float) -> "ErrorModel":
        """Return a copy rescaled so ``expected_ber(0.5) == target_ber``."""
        raise NotImplementedError  # pragma: no cover - abstract

    def parameters(self) -> Dict[str, float]:
        raise NotImplementedError  # pragma: no cover - abstract

    def _weak_positions(self, num_bits: int, layout: DramLayout) -> np.ndarray:
        """Flat positions of the model's deterministic weak cells.

        Subclasses locate them with pure integer hash-key compares (see
        :func:`repro.dram.packed.uniform_threshold`).  Data-independent, so
        the base class caches the result per tensor geometry.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def _failure_probabilities(self, positions: np.ndarray,
                               bit_at: BitGather) -> np.ndarray:
        """Per-access failure probability at each weak position.

        Data-dependent models gather the stored bits via ``bit_at`` (only at
        the sparse weak positions); the default is undefined.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def _packed_candidates(self, num_bits: int, layout: DramLayout,
                           bit_at: BitGather) -> Tuple[np.ndarray, np.ndarray]:
        """(positions, probabilities) of every bit with a non-zero flip chance.

        Weak positions are deterministic per (model, tensor size, layout), so
        repeated loads of same-geometry tensors — every batch of every sweep
        point — reuse the cached scan and only the (cheap, possibly
        data-dependent) probability gather runs per load.
        """
        key = (num_bits, layout.row_size_bits, layout.start_bit)
        positions = self._position_cache.get(key)
        if positions is None:
            positions = self._weak_positions(num_bits, layout)
            if positions.size <= _MAX_CACHED_POSITIONS:
                if len(self._position_cache) >= _MAX_CACHE_ENTRIES:
                    # FIFO-evict one entry; clearing wholesale would thrash
                    # once a network's load geometries exceed the capacity.
                    self._position_cache.pop(next(iter(self._position_cache)))
                self._position_cache[key] = positions
        return positions, self._failure_probabilities(positions, bit_at)

    # -- shared helpers ------------------------------------------------------------
    def flip_mask(self, stored_bits: np.ndarray, layout: DramLayout,
                  rng: np.random.Generator) -> np.ndarray:
        """Sample a boolean flip mask for one access of ``stored_bits``."""
        probabilities = self.flip_probabilities(stored_bits, layout)
        return rng.random(stored_bits.shape) < probabilities

    def flip_word_mask(self, words: np.ndarray, bits_per_word: int, layout: DramLayout,
                       rng: np.random.Generator) -> np.ndarray:
        """Sample a packed uint64 XOR mask for one access of ``words``.

        Word ``w``'s bit ``j`` (LSB-first) is flat bit ``w*bits_per_word + j``
        — the same convention :func:`repro.dram.injection.flip_bits_in_words`
        uses.  For a fixed RNG state the mask is bit-exact with
        :meth:`flip_mask` on the boolean expansion of ``words``, and the RNG
        is left in the same state, but no per-bit boolean or probability
        arrays are ever materialized and uniforms are only drawn at weak
        cells.
        """
        words = np.asarray(words, dtype=np.uint64)
        num_bits = words.size * bits_per_word
        bit_at = make_bit_gather(words, bits_per_word)
        positions, probabilities = self._packed_candidates(num_bits, layout, bit_at)
        flips = sample_flip_positions(rng, num_bits, positions, probabilities)
        return xor_mask_from_positions(flips, words.size, bits_per_word)

    def name(self) -> str:
        return f"ErrorModel{self.model_id}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v:.3g}" for k, v in self.parameters().items())
        return f"{self.name()}({params})"


def _clip_probability(value: float) -> float:
    return float(np.clip(value, 0.0, 1.0))


def _grouped_weak_positions(num_bits: int, layout: DramLayout, seed: int, *,
                            by_wordline: bool, group_stream: int, cell_stream: int,
                            group_fraction: float, fraction_on_weak: float,
                            fraction_on_normal: float) -> np.ndarray:
    """Weak-cell scan shared by the bitline- and wordline-clustered models.

    A cell's weakness threshold depends on whether its group (bitline or
    wordline, i.e. absolute index modulo / divided by the row length) hashed
    below the group fraction.
    """
    group_threshold = uniform_threshold(group_fraction)
    on_weak = np.uint64(uniform_threshold(fraction_on_weak))
    on_normal = np.uint64(uniform_threshold(fraction_on_normal))
    row_bits = np.uint64(layout.row_size_bits)

    def weak_in_chunk(absolute: np.ndarray) -> np.ndarray:
        group_key = absolute // row_bits if by_wordline else absolute % row_bits
        weak_group = hash_keys(group_key, seed, stream=group_stream) < group_threshold
        cell_threshold = np.where(weak_group, on_weak, on_normal)
        return hash_keys(absolute, seed, stream=cell_stream) < cell_threshold

    return scan_weak_positions(num_bits, layout.start_bit, weak_in_chunk)


def _rescale_grouped(group_fraction: float, p_weak: float, p_normal: float,
                     failure: float, scale: float, target_ber: float):
    """Rescale a two-group (weak/normal) model to a target aggregate BER.

    Scales the per-group weak-cell fractions first; if the weak group's
    fraction saturates at 1.0 the residual is absorbed into the per-access
    failure probability, and finally into the normal group — so even large
    targets (the top of the paper's Figure 8 sweep) are met while preserving
    as much of the weak/normal contrast as possible.
    """
    p_weak = min(1.0, p_weak * scale)
    p_normal = min(1.0, p_normal * scale)

    def aggregate(pw, pn, f):
        return (group_fraction * pw + (1.0 - group_fraction) * pn) * f

    achieved = aggregate(p_weak, p_normal, failure)
    if achieved < target_ber * 0.999 and achieved > 0:
        failure = min(1.0, failure * target_ber / achieved)
        achieved = aggregate(p_weak, p_normal, failure)
    if achieved < target_ber * 0.999:
        # Last resort: raise the normal group until the aggregate is met.
        remaining = target_ber / max(failure, 1e-12) - group_fraction * p_weak
        p_normal = min(1.0, max(p_normal, remaining / max(1.0 - group_fraction, 1e-12)))
    return p_weak, p_normal, failure


class UniformErrorModel(ErrorModel):
    """Error Model 0: uniformly distributed weak cells."""

    model_id = 0

    def __init__(self, weak_cell_fraction: float, failure_probability: float, seed: int = 0):
        super().__init__(seed)
        self.weak_cell_fraction = _clip_probability(weak_cell_fraction)
        self.failure_probability = _clip_probability(failure_probability)

    def flip_probabilities(self, stored_bits: np.ndarray, layout: DramLayout) -> np.ndarray:
        stored_bits = np.asarray(stored_bits)
        indices = np.arange(stored_bits.size, dtype=np.uint64) + np.uint64(layout.start_bit)
        weakness = _hash_uniform(indices, self.seed, stream=101)
        weak = weakness < self.weak_cell_fraction
        return (weak * self.failure_probability).reshape(stored_bits.shape)

    def _weak_positions(self, num_bits: int, layout: DramLayout) -> np.ndarray:
        threshold = uniform_threshold(self.weak_cell_fraction)
        return scan_weak_positions(
            num_bits, layout.start_bit,
            lambda absolute: hash_keys(absolute, self.seed, stream=101) < threshold,
        )

    def _failure_probabilities(self, positions: np.ndarray,
                               bit_at: BitGather) -> np.ndarray:
        return np.full(positions.size, self.failure_probability)

    def expected_ber(self, ones_fraction: float = 0.5) -> float:
        return self.weak_cell_fraction * self.failure_probability

    def with_ber(self, target_ber: float) -> "UniformErrorModel":
        if target_ber < 0:
            raise ValueError("target BER must be non-negative")
        if target_ber == 0:
            return UniformErrorModel(0.0, 0.0, seed=self.seed)
        # Keep F fixed and scale P, saturating F upward if P would exceed 1.
        failure = self.failure_probability or 0.5
        weak = target_ber / failure
        if weak > 1.0:
            weak, failure = 1.0, min(1.0, target_ber)
        return UniformErrorModel(weak, failure, seed=self.seed)

    def parameters(self) -> Dict[str, float]:
        return {"P": self.weak_cell_fraction, "F": self.failure_probability}


class BitlineErrorModel(ErrorModel):
    """Error Model 1: weak cells cluster on a subset of bitlines."""

    model_id = 1

    def __init__(self, weak_bitline_fraction: float, weak_cell_fraction_on_weak: float,
                 weak_cell_fraction_on_normal: float, failure_probability: float,
                 seed: int = 0):
        super().__init__(seed)
        self.weak_bitline_fraction = _clip_probability(weak_bitline_fraction)
        self.weak_cell_fraction_on_weak = _clip_probability(weak_cell_fraction_on_weak)
        self.weak_cell_fraction_on_normal = _clip_probability(weak_cell_fraction_on_normal)
        self.failure_probability = _clip_probability(failure_probability)

    def _per_bit_weak_fraction(self, stored_bits: np.ndarray, layout: DramLayout) -> np.ndarray:
        indices = np.arange(np.asarray(stored_bits).size, dtype=np.uint64)
        _, bitline = layout.coordinates(indices)
        bitline_weakness = _hash_uniform(bitline, self.seed, stream=201)
        weak_bitline = bitline_weakness < self.weak_bitline_fraction
        return np.where(weak_bitline, self.weak_cell_fraction_on_weak,
                        self.weak_cell_fraction_on_normal)

    def flip_probabilities(self, stored_bits: np.ndarray, layout: DramLayout) -> np.ndarray:
        stored_bits = np.asarray(stored_bits)
        weak_fraction = self._per_bit_weak_fraction(stored_bits, layout)
        indices = np.arange(stored_bits.size, dtype=np.uint64) + np.uint64(layout.start_bit)
        weakness = _hash_uniform(indices, self.seed, stream=202)
        weak = weakness < weak_fraction
        return (weak * self.failure_probability).reshape(stored_bits.shape)

    def _weak_positions(self, num_bits: int, layout: DramLayout) -> np.ndarray:
        return _grouped_weak_positions(
            num_bits, layout, self.seed, by_wordline=False,
            group_stream=201, cell_stream=202,
            group_fraction=self.weak_bitline_fraction,
            fraction_on_weak=self.weak_cell_fraction_on_weak,
            fraction_on_normal=self.weak_cell_fraction_on_normal,
        )

    def _failure_probabilities(self, positions: np.ndarray,
                               bit_at: BitGather) -> np.ndarray:
        return np.full(positions.size, self.failure_probability)

    def expected_ber(self, ones_fraction: float = 0.5) -> float:
        mean_weak = (
            self.weak_bitline_fraction * self.weak_cell_fraction_on_weak
            + (1.0 - self.weak_bitline_fraction) * self.weak_cell_fraction_on_normal
        )
        return mean_weak * self.failure_probability

    def with_ber(self, target_ber: float) -> "BitlineErrorModel":
        current = self.expected_ber()
        if target_ber <= 0:
            return BitlineErrorModel(self.weak_bitline_fraction, 0.0, 0.0, 0.0, seed=self.seed)
        if current <= 0:
            return BitlineErrorModel(self.weak_bitline_fraction, target_ber, target_ber,
                                     1.0, seed=self.seed)
        scale = target_ber / current
        p_weak, p_normal, failure = _rescale_grouped(
            self.weak_bitline_fraction, self.weak_cell_fraction_on_weak,
            self.weak_cell_fraction_on_normal, self.failure_probability, scale, target_ber,
        )
        return BitlineErrorModel(self.weak_bitline_fraction, p_weak, p_normal, failure,
                                 seed=self.seed)

    def parameters(self) -> Dict[str, float]:
        return {
            "weak_bitline_fraction": self.weak_bitline_fraction,
            "PB_weak": self.weak_cell_fraction_on_weak,
            "PB_normal": self.weak_cell_fraction_on_normal,
            "FB": self.failure_probability,
        }


class WordlineErrorModel(ErrorModel):
    """Error Model 2: weak cells cluster on a subset of wordlines (rows)."""

    model_id = 2

    def __init__(self, weak_wordline_fraction: float, weak_cell_fraction_on_weak: float,
                 weak_cell_fraction_on_normal: float, failure_probability: float,
                 seed: int = 0):
        super().__init__(seed)
        self.weak_wordline_fraction = _clip_probability(weak_wordline_fraction)
        self.weak_cell_fraction_on_weak = _clip_probability(weak_cell_fraction_on_weak)
        self.weak_cell_fraction_on_normal = _clip_probability(weak_cell_fraction_on_normal)
        self.failure_probability = _clip_probability(failure_probability)

    def flip_probabilities(self, stored_bits: np.ndarray, layout: DramLayout) -> np.ndarray:
        stored_bits = np.asarray(stored_bits)
        indices = np.arange(stored_bits.size, dtype=np.uint64)
        wordline, _ = layout.coordinates(indices)
        wordline_weakness = _hash_uniform(wordline, self.seed, stream=301)
        weak_wordline = wordline_weakness < self.weak_wordline_fraction
        weak_fraction = np.where(weak_wordline, self.weak_cell_fraction_on_weak,
                                 self.weak_cell_fraction_on_normal)
        cell_weakness = _hash_uniform(indices + np.uint64(layout.start_bit), self.seed, stream=302)
        weak = cell_weakness < weak_fraction
        return (weak * self.failure_probability).reshape(stored_bits.shape)

    def _weak_positions(self, num_bits: int, layout: DramLayout) -> np.ndarray:
        return _grouped_weak_positions(
            num_bits, layout, self.seed, by_wordline=True,
            group_stream=301, cell_stream=302,
            group_fraction=self.weak_wordline_fraction,
            fraction_on_weak=self.weak_cell_fraction_on_weak,
            fraction_on_normal=self.weak_cell_fraction_on_normal,
        )

    def _failure_probabilities(self, positions: np.ndarray,
                               bit_at: BitGather) -> np.ndarray:
        return np.full(positions.size, self.failure_probability)

    def expected_ber(self, ones_fraction: float = 0.5) -> float:
        mean_weak = (
            self.weak_wordline_fraction * self.weak_cell_fraction_on_weak
            + (1.0 - self.weak_wordline_fraction) * self.weak_cell_fraction_on_normal
        )
        return mean_weak * self.failure_probability

    def with_ber(self, target_ber: float) -> "WordlineErrorModel":
        current = self.expected_ber()
        if target_ber <= 0:
            return WordlineErrorModel(self.weak_wordline_fraction, 0.0, 0.0, 0.0, seed=self.seed)
        if current <= 0:
            return WordlineErrorModel(self.weak_wordline_fraction, target_ber, target_ber,
                                      1.0, seed=self.seed)
        scale = target_ber / current
        p_weak, p_normal, failure = _rescale_grouped(
            self.weak_wordline_fraction, self.weak_cell_fraction_on_weak,
            self.weak_cell_fraction_on_normal, self.failure_probability, scale, target_ber,
        )
        return WordlineErrorModel(self.weak_wordline_fraction, p_weak, p_normal, failure,
                                  seed=self.seed)

    def parameters(self) -> Dict[str, float]:
        return {
            "weak_wordline_fraction": self.weak_wordline_fraction,
            "PW_weak": self.weak_cell_fraction_on_weak,
            "PW_normal": self.weak_cell_fraction_on_normal,
            "FW": self.failure_probability,
        }


class DataDependentErrorModel(ErrorModel):
    """Error Model 3: uniform weak cells whose failure depends on the stored value."""

    model_id = 3

    def __init__(self, weak_cell_fraction: float, failure_probability_one: float,
                 failure_probability_zero: float, seed: int = 0):
        super().__init__(seed)
        self.weak_cell_fraction = _clip_probability(weak_cell_fraction)
        self.failure_probability_one = _clip_probability(failure_probability_one)
        self.failure_probability_zero = _clip_probability(failure_probability_zero)

    def flip_probabilities(self, stored_bits: np.ndarray, layout: DramLayout) -> np.ndarray:
        stored_bits = np.asarray(stored_bits).astype(bool)
        indices = np.arange(stored_bits.size, dtype=np.uint64) + np.uint64(layout.start_bit)
        weakness = _hash_uniform(indices, self.seed, stream=401).reshape(stored_bits.shape)
        weak = weakness < self.weak_cell_fraction
        failure = np.where(stored_bits, self.failure_probability_one,
                           self.failure_probability_zero)
        return weak * failure

    def _weak_positions(self, num_bits: int, layout: DramLayout) -> np.ndarray:
        threshold = uniform_threshold(self.weak_cell_fraction)
        return scan_weak_positions(
            num_bits, layout.start_bit,
            lambda absolute: hash_keys(absolute, self.seed, stream=401) < threshold,
        )

    def _failure_probabilities(self, positions: np.ndarray,
                               bit_at: BitGather) -> np.ndarray:
        # Data-dependent: gather the stored bit at each weak cell per load.
        stored = bit_at(positions)
        return np.where(stored, self.failure_probability_one,
                        self.failure_probability_zero)

    def expected_ber(self, ones_fraction: float = 0.5) -> float:
        mean_failure = (
            ones_fraction * self.failure_probability_one
            + (1.0 - ones_fraction) * self.failure_probability_zero
        )
        return self.weak_cell_fraction * mean_failure

    def with_ber(self, target_ber: float) -> "DataDependentErrorModel":
        current = self.expected_ber()
        if target_ber <= 0:
            return DataDependentErrorModel(0.0, 0.0, 0.0, seed=self.seed)
        if current <= 0:
            return DataDependentErrorModel(target_ber, 1.0, 1.0, seed=self.seed)
        scale = target_ber / current
        weak = min(1.0, self.weak_cell_fraction * scale)
        # If P saturates, absorb the remaining scale into the failure probs.
        residual = (target_ber / weak) / max(current / self.weak_cell_fraction, 1e-30)
        return DataDependentErrorModel(
            weak,
            min(1.0, self.failure_probability_one * residual),
            min(1.0, self.failure_probability_zero * residual),
            seed=self.seed,
        )

    def parameters(self) -> Dict[str, float]:
        return {
            "P": self.weak_cell_fraction,
            "FV1": self.failure_probability_one,
            "FV0": self.failure_probability_zero,
        }


@dataclass(frozen=True)
class BurstProfile:
    """Mixture weights converting a scalar BER into singles + burst spans.

    ``single_fraction`` of the raw BER lands as independent single-bit flips;
    the remainder is split across aligned burst classes per ``span_weights``,
    a tuple of ``(span_bits, weight)`` pairs.  A burst flips *every* bit of
    one aligned span (absolute bit index // span_bits), modelling the
    multi-symbol upsets that ECC symbol codes are sized against.  Weights are
    normalized internally, so only their ratios matter.
    """

    single_fraction: float = 0.9
    span_weights: Tuple[Tuple[int, float], ...] = ((8, 0.5), (16, 0.3), (32, 0.2))

    def __post_init__(self) -> None:
        if not 0.0 <= self.single_fraction <= 1.0:
            raise ValueError("single_fraction must be within [0, 1]")
        for span_bits, weight in self.span_weights:
            if int(span_bits) <= 0:
                raise ValueError("span sizes must be positive bit counts")
            if weight < 0:
                raise ValueError("span weights must be non-negative")
        total = sum(weight for _, weight in self.span_weights)
        if self.single_fraction < 1.0 and total <= 0:
            raise ValueError("burst share is non-zero but no span class has "
                             "positive weight")

    def normalized_weights(self) -> Tuple[float, ...]:
        """Return the span-class weights normalized to sum to 1 (or empty)."""
        total = sum(weight for _, weight in self.span_weights)
        if total <= 0:
            return tuple(0.0 for _ in self.span_weights)
        return tuple(weight / total for _, weight in self.span_weights)


class BurstErrorModel(ErrorModel):
    """Error Model 4 (extension): single-bit flips plus aligned burst spans.

    A scalar ``ber`` is split by a :class:`BurstProfile` into a single-bit
    component (drawn exactly like :class:`UniformErrorModel`, hash stream
    501) and per-class burst components (streams ``502 + k``).  Burst *span
    positions* are deterministic per (seed, layout) — a span is "weak" when
    its aligned index hashes below the class threshold — and each weak span
    fires per access with probability ``failure_probability``, flipping every
    bit it covers via XOR so bursts compose with (and can cancel against)
    single-bit flips, exactly the same in the boolean reference and packed
    paths.

    Constructor parameters: ``ber`` is the target aggregate bit error rate,
    ``profile`` the mixture (defaults to 90% singles, 8/16/32-bit spans at
    0.5/0.3/0.2), ``failure_probability`` the per-access firing probability
    shared by weak cells and weak spans, and ``seed`` freezes the weak
    cell/span positions.
    """

    model_id = 4

    def __init__(self, ber: float, profile: Optional[BurstProfile] = None,
                 failure_probability: float = 0.5, seed: int = 0):
        super().__init__(seed)
        if ber < 0:
            raise ValueError("ber must be non-negative")
        self.ber = float(ber)
        self.profile = profile if profile is not None else BurstProfile()
        self.failure_probability = _clip_probability(failure_probability)
        if self.failure_probability <= 0.0:
            raise ValueError("failure_probability must be positive")
        failure = self.failure_probability
        self.single_weak_fraction = _clip_probability(
            self.ber * self.profile.single_fraction / failure)
        burst_share = self.ber * (1.0 - self.profile.single_fraction)
        self.span_weak_fractions = tuple(
            _clip_probability(burst_share * weight / failure)
            for weight in self.profile.normalized_weights())
        self._span_cache: Dict[Tuple[int, int], list] = {}

    # -- weak cells (single-bit phase, identical structure to model 0) -------------
    def _weak_positions(self, num_bits: int, layout: DramLayout) -> np.ndarray:
        threshold = uniform_threshold(self.single_weak_fraction)
        return scan_weak_positions(
            num_bits, layout.start_bit,
            lambda absolute: hash_keys(absolute, self.seed, stream=501) < threshold,
        )

    def _failure_probabilities(self, positions: np.ndarray,
                               bit_at: BitGather) -> np.ndarray:
        return np.full(positions.size, self.failure_probability)

    # -- weak spans (burst phase) --------------------------------------------------
    def _weak_spans(self, num_bits: int, layout: DramLayout) -> list:
        """Per span class: (lo, hi) bit ranges of deterministic weak spans.

        Spans are aligned on absolute bit addresses (``absolute //
        span_bits``), clipped to the tensor's bit range, and returned in
        ascending order.  Cached per tensor geometry, like weak cells.
        """
        key = (num_bits, layout.start_bit)
        cached = self._span_cache.get(key)
        if cached is not None:
            return cached
        start = layout.start_bit
        cached = []
        for k, ((span_bits, _), fraction) in enumerate(
                zip(self.profile.span_weights, self.span_weak_fractions)):
            span_bits = int(span_bits)
            first = start // span_bits
            last = (start + num_bits - 1) // span_bits
            spans = np.arange(first, last + 1, dtype=np.uint64)
            weak = spans[hash_keys(spans, self.seed, stream=502 + k)
                         < uniform_threshold(fraction)].astype(np.int64)
            lo = np.maximum(weak * span_bits - start, 0)
            hi = np.minimum((weak + 1) * span_bits - start, num_bits)
            cached.append((lo, hi))
        if len(self._span_cache) >= _MAX_CACHE_ENTRIES:
            self._span_cache.pop(next(iter(self._span_cache)))
        self._span_cache[key] = cached
        return cached

    def _fired_spans(self, num_bits: int, layout: DramLayout,
                     rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """``(los, his)`` bounds of the weak spans that fire on this access.

        Consumes exactly one uniform per weak span — classes in profile
        order, spans ascending — so the boolean and packed paths stay on the
        same stream by construction.
        """
        fired_los, fired_his = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for los, his in self._weak_spans(num_bits, layout):
            if los.size == 0:
                continue
            hit = rng.random(los.size) < self.failure_probability
            fired_los.append(los[hit])
            fired_his.append(his[hit])
        return np.concatenate(fired_los), np.concatenate(fired_his)

    # -- sampling ------------------------------------------------------------------
    def flip_probabilities(self, stored_bits: np.ndarray, layout: DramLayout) -> np.ndarray:
        """Approximate per-bit flip marginals (singles + covering spans).

        Span/single overlaps cancel under XOR, a second-order effect this
        summary ignores; sampling goes through :meth:`flip_mask` /
        :meth:`flip_word_mask`, which are exact.
        """
        stored_bits = np.asarray(stored_bits)
        indices = np.arange(stored_bits.size, dtype=np.uint64) + np.uint64(layout.start_bit)
        weak = _hash_uniform(indices, self.seed, stream=501) < self.single_weak_fraction
        probabilities = weak * self.failure_probability
        for k, ((span_bits, _), fraction) in enumerate(
                zip(self.profile.span_weights, self.span_weak_fractions)):
            span_keys = indices // np.uint64(int(span_bits))
            weak_span = _hash_uniform(span_keys, self.seed, stream=502 + k) < fraction
            probabilities = probabilities + weak_span * self.failure_probability
        return np.minimum(probabilities, 1.0).reshape(stored_bits.shape)

    def flip_mask(self, stored_bits: np.ndarray, layout: DramLayout,
                  rng: np.random.Generator) -> np.ndarray:
        """Boolean reference path: per-bit draws, then XOR whole fired spans."""
        stored_bits = np.asarray(stored_bits)
        num_bits = stored_bits.size
        indices = np.arange(num_bits, dtype=np.uint64) + np.uint64(layout.start_bit)
        weak = _hash_uniform(indices, self.seed, stream=501) < self.single_weak_fraction
        mask = rng.random(num_bits) < weak * self.failure_probability
        for lo, hi in zip(*self._fired_spans(num_bits, layout, rng)):
            mask[lo:hi] ^= True
        return mask.reshape(stored_bits.shape)

    def flip_word_mask(self, words: np.ndarray, bits_per_word: int, layout: DramLayout,
                       rng: np.random.Generator) -> np.ndarray:
        """Packed path: sparse single-bit sampling, then sparse span XORs."""
        words = np.asarray(words, dtype=np.uint64)
        num_bits = words.size * bits_per_word
        bit_at = make_bit_gather(words, bits_per_word)
        positions, probabilities = self._packed_candidates(num_bits, layout, bit_at)
        flips = sample_flip_positions(rng, num_bits, positions, probabilities)
        xor = xor_mask_from_positions(flips, words.size, bits_per_word)
        span_positions = expand_spans(*self._fired_spans(num_bits, layout, rng))
        if span_positions.size:
            xor ^= xor_mask_from_positions(span_positions, words.size, bits_per_word)
        return xor

    # -- rescaling / reporting -----------------------------------------------------
    def expected_ber(self, ones_fraction: float = 0.5) -> float:
        per_bit = self.single_weak_fraction + sum(self.span_weak_fractions)
        return min(1.0, per_bit * self.failure_probability)

    def with_ber(self, target_ber: float) -> "BurstErrorModel":
        if target_ber < 0:
            raise ValueError("target BER must be non-negative")
        return BurstErrorModel(target_ber, profile=self.profile,
                               failure_probability=self.failure_probability,
                               seed=self.seed)

    def parameters(self) -> Dict[str, float]:
        return {
            "ber": self.ber,
            "F": self.failure_probability,
            "single_fraction": self.profile.single_fraction,
        }


#: model id -> class; 0..3 match the paper's numbering, 4 is the burst
#: extension used by the ECC characterization axis.
ERROR_MODEL_CLASSES = {
    0: UniformErrorModel,
    1: BitlineErrorModel,
    2: WordlineErrorModel,
    3: DataDependentErrorModel,
    4: BurstErrorModel,
}


def make_error_model(model_id: int, target_ber: float, seed: int = 0) -> ErrorModel:
    """Construct an error model of the requested type with a given aggregate BER.

    Uses representative shape parameters (moderate locality, balanced data
    dependence) so sweeps over BER exercise each model's characteristic
    spatial/data structure.
    """
    if target_ber < 0:
        raise ValueError("target BER must be non-negative")
    if model_id == 0:
        return UniformErrorModel(min(1.0, 2.0 * target_ber), 0.5, seed=seed).with_ber(target_ber)
    if model_id == 1:
        base = BitlineErrorModel(0.05, 0.4, 0.002, 0.5, seed=seed)
        return base.with_ber(target_ber)
    if model_id == 2:
        base = WordlineErrorModel(0.05, 0.4, 0.002, 0.5, seed=seed)
        return base.with_ber(target_ber)
    if model_id == 3:
        base = DataDependentErrorModel(min(1.0, 2.0 * target_ber), 0.8, 0.2, seed=seed)
        return base.with_ber(target_ber)
    if model_id == 4:
        return BurstErrorModel(target_ber, seed=seed)
    raise ValueError(f"unknown error model id {model_id}; expected 0..4")
