"""Bit-error injection into DNN tensors (the paper's Figure 6 methodology).

The paper integrates its DRAM error models into PyTorch by intercepting the
loading of weights and IFMs, flipping bits according to the model, and then
applying implausible-value correction.  Here the equivalent hook is an object
with an ``apply(array, spec)`` method installed on a
:class:`~repro.nn.network.Network` (a hook that draws random numbers also
exposes ``reseed(seed)``):

* :class:`BitErrorInjector` — drives injection from a fitted/parametric
  :class:`~repro.dram.error_models.ErrorModel` (EDEN *offloading*: no device
  needed), optionally with different error rates per DNN data type
  (fine-grained mapping) and an optional value corrector applied after the
  flips (implausible-value correction, Section 3.2).
* :class:`DeviceBackedInjector` — reads the tensor's bits directly "from" an
  :class:`~repro.dram.device.ApproximateDram` at a chosen operating point,
  used for the real-device experiments (Figures 7 and 9).

Both understand the numeric precision of the stored tensor: integers are
flipped in their two's-complement codes, FP32 values in their IEEE-754 words.

The hot path is *packed*: error models emit sparse flip positions / packed
XOR masks directly (:meth:`~repro.dram.error_models.ErrorModel.flip_word_mask`,
:meth:`~repro.dram.device.ApproximateDram.read_words`), so no per-bit boolean
arrays are ever materialized.  For a fixed seed the results are bit-exact
with the original boolean expansion, which survives as
:func:`inject_bit_errors_reference` for property tests and benchmarking.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

import numpy as np

from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import DramLayout, ErrorModel
from repro.nn.quantization import bits_to_tensor, tensor_to_bits
from repro.nn.tensor import DataKind, TensorSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ecc import RsCodecModel

#: signature of a post-load value corrector (implausible-value correction).
Corrector = Callable[[np.ndarray, TensorSpec], np.ndarray]


def flip_bits_in_words(words: np.ndarray, bits_per_word: int, flip_mask_bits: np.ndarray
                       ) -> np.ndarray:
    """XOR per-bit flips (flat bit mask, LSB-first within each word) into words."""
    if flip_mask_bits.size != words.size * bits_per_word:
        raise ValueError("flip mask size does not match words * bits_per_word")
    flips = flip_mask_bits.reshape(words.size, bits_per_word)
    if not flips.any():
        return words.copy()
    bit_values = (np.uint64(1) << np.arange(bits_per_word, dtype=np.uint64))
    xor_mask = (flips.astype(np.uint64) * bit_values).sum(axis=1).astype(np.uint64)
    return (words ^ xor_mask).astype(np.uint64)


def inject_bit_errors(values: np.ndarray, bits: int, error_model: ErrorModel,
                      layout: DramLayout, rng: np.random.Generator) -> np.ndarray:
    """Flip bits of ``values`` (stored at ``bits`` precision) per ``error_model``."""
    values = np.asarray(values, dtype=np.float32)
    original_shape = values.shape
    words, codec_state = tensor_to_bits(values.ravel(), bits)
    xor_mask = error_model.flip_word_mask(words, bits, layout, rng)
    corrupted = bits_to_tensor(words ^ xor_mask, bits, codec_state)
    return corrupted.reshape(original_shape)


def inject_bit_errors_reference(values: np.ndarray, bits: int, error_model: ErrorModel,
                                layout: DramLayout, rng: np.random.Generator) -> np.ndarray:
    """The original boolean-expansion injection path (32x memory blowup).

    Kept as the ground truth the packed engine is verified against: for the
    same RNG state, :func:`inject_bit_errors` must return the same corrupted
    tensor and leave ``rng`` in the same state.
    """
    values = np.asarray(values, dtype=np.float32)
    original_shape = values.shape
    flat = values.ravel()
    words, codec_state = tensor_to_bits(flat, bits)
    stored_bits = ((words[:, None] >> np.arange(bits, dtype=np.uint64)) & np.uint64(1)).astype(bool)
    flip_mask = error_model.flip_mask(stored_bits.ravel(), layout, rng)
    corrupted_words = flip_bits_in_words(words, bits, flip_mask)
    corrupted = bits_to_tensor(corrupted_words, bits, codec_state)
    return corrupted.reshape(original_shape)


def _new_stats() -> Dict[str, int]:
    return {"loads": 0, "values_loaded": 0}


def _new_ecc_stats() -> Dict[str, object]:
    return {"codewords": 0, "corrected_codewords": 0, "corrected_symbols": 0,
            "uncorrectable_codewords": 0, "miscorrected_codewords": 0,
            "per_tensor": {}}


def _record_ecc(stats: Dict[str, object], name: str, report) -> None:
    """Fold one tensor's :class:`~repro.core.ecc.EccReport` into injector stats."""
    counts = report.as_dict()
    for key, value in counts.items():
        stats[key] += value
    tensor = stats["per_tensor"].setdefault(
        name, {key: 0 for key in counts})
    for key, value in counts.items():
        tensor[key] += value


def _consume_ecc_delta(stats: Dict[str, object],
                       reported: Dict[str, int]) -> Dict[str, int]:
    """Return corrected/uncorrectable counter deltas since the last consume."""
    corrected = int(stats["corrected_codewords"])
    uncorrectable = int(stats["uncorrectable_codewords"]) + int(
        stats["miscorrected_codewords"])
    delta = {"corrected": corrected - reported["corrected"],
             "uncorrectable": uncorrectable - reported["uncorrectable"]}
    reported["corrected"] = corrected
    reported["uncorrectable"] = uncorrectable
    return delta


class _DramLoadHook:
    """Counters, stream, ECC decode and the read path of both DRAM injectors.

    Subclasses say which loads they touch (:meth:`_touches`) and what one
    read observes (:meth:`_read`).  A disabled hook or an untouched load
    returns the input object uncorrected; an exact read returns it unpacked,
    but still corrected.
    """

    def __init__(self, bits: int, corrector: Optional[Corrector], seed: int,
                 ecc: Optional["RsCodecModel"]):
        self.bits = int(bits)
        self.corrector = corrector
        self.enabled = True
        self.ecc = ecc
        self.ecc_stats = _new_ecc_stats()
        self._ecc_reported = {"corrected": 0, "uncorrectable": 0}
        self._rng = np.random.default_rng(seed)
        self.stats = _new_stats()

    def reseed(self, seed: int) -> None:
        """Restart the injection RNG stream (per-repeat determinism)."""
        self._rng = np.random.default_rng(seed)

    def _touches(self, spec: TensorSpec) -> bool:
        """Whether loads of ``spec`` go through approximate DRAM."""
        return True

    def _read(self, spec: TensorSpec) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Stored words -> the words one read of ``spec`` observes (None: exact)."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- Network hook ---------------------------------------------------------------
    def apply(self, array: np.ndarray, spec: TensorSpec) -> np.ndarray:
        self.stats["loads"] += 1
        self.stats["values_loaded"] += int(np.asarray(array).size)
        if not self.enabled or not self._touches(spec):
            return array
        read = self._read(spec)
        if read is None:
            out = array
        else:
            values = np.asarray(array, dtype=np.float32)
            words, codec_state = tensor_to_bits(values.ravel(), self.bits)
            observed = read(words)
            if self.ecc is not None:
                observed, report = self.ecc.correct_words(
                    words, observed, self.bits,
                    key=zlib.crc32(spec.name.encode()))
                _record_ecc(self.ecc_stats, spec.name, report)
            out = bits_to_tensor(observed, self.bits, codec_state).reshape(values.shape)
        if self.corrector is not None:
            out = self.corrector(out, spec)
        return out

    def consume_ecc_stats(self) -> Dict[str, int]:
        """Return corrected/uncorrectable deltas since the last call.

        Telemetry harvesters call this on every snapshot; the delta contract
        means repeated snapshots never double-count a codeword.
        """
        return _consume_ecc_delta(self.ecc_stats, self._ecc_reported)


class BitErrorInjector(_DramLoadHook):
    """Injects model-driven bit errors into every weight/IFM load.

    Parameters
    ----------
    error_model:
        The default error model applied to every data type.
    bits:
        Storage precision of the tensors in DRAM (4, 8, 16 or 32).
    per_tensor_ber:
        Optional mapping from tensor name to a BER overriding the default
        model's rate for that tensor — this is how fine-grained DNN-to-DRAM
        mapping exposes different partitions' error rates to the DNN.
    corrector:
        Optional implausible-value corrector applied after injection.
    ecc:
        Optional :class:`~repro.core.ecc.RsCodecModel`.  When set, every
        injected load is decoded through the codec before it reaches the
        network: correctable codewords are reverted to the stored bits,
        uncorrectable ones stay corrupted, and per-tensor counts accumulate
        in :attr:`ecc_stats` (drain deltas via :meth:`consume_ecc_stats`).
    data_kinds:
        Optional subset of :class:`~repro.nn.tensor.DataKind` to inject into;
        loads of any other kind pass through untouched.  ``{DataKind.WEIGHT}``
        models a mapping that stores only the weights in approximate DRAM
        while IFMs stay in a reliable partition.  None (the default) injects
        into every load.
    enabled:
        Injection can be toggled without uninstalling the hook (used by the
        curricular retraining ramp when the current error rate is zero).
    """

    def __init__(self, error_model: ErrorModel, bits: int = 32,
                 per_tensor_ber: Optional[Dict[str, float]] = None,
                 corrector: Optional[Corrector] = None,
                 layout: Optional[DramLayout] = None,
                 data_kinds: Optional[Iterable[DataKind]] = None,
                 seed: int = 0, ecc: Optional["RsCodecModel"] = None):
        super().__init__(bits, corrector, seed, ecc)
        self.error_model = error_model
        self.per_tensor_ber = dict(per_tensor_ber or {})
        self.layout = layout or DramLayout()
        self.data_kinds = frozenset(data_kinds) if data_kinds is not None else None
        self._model_cache: Dict[float, ErrorModel] = {}

    # -- configuration -----------------------------------------------------------
    def set_error_model(self, error_model: ErrorModel) -> None:
        self.error_model = error_model
        self._model_cache.clear()

    def set_global_ber(self, ber: float) -> None:
        """Rescale the default model to a new aggregate BER (curricular ramp)."""
        self.set_error_model(self.error_model.with_ber(ber))

    def set_per_tensor_ber(self, per_tensor_ber: Dict[str, float]) -> None:
        """Swap the per-tensor BER overrides (fine-grained sweep).

        The derived-model cache is keyed by BER against the unchanged base
        model, so previously derived models stay valid across assignments.
        """
        self.per_tensor_ber = dict(per_tensor_ber)

    def _model_for(self, spec: TensorSpec) -> ErrorModel:
        ber = self.per_tensor_ber.get(spec.name)
        if ber is None:
            return self.error_model
        cached = self._model_cache.get(ber)
        if cached is None:
            cached = self.error_model.with_ber(ber)
            self._model_cache[ber] = cached
        return cached

    # -- read path ------------------------------------------------------------------
    def _touches(self, spec: TensorSpec) -> bool:
        return self.data_kinds is None or spec.kind in self.data_kinds

    def _read(self, spec: TensorSpec):
        model = self._model_for(spec)
        if model.expected_ber() <= 0.0:
            return None
        return lambda words: words ^ model.flip_word_mask(
            words, self.bits, self.layout, self._rng)


class DeviceBackedInjector(_DramLoadHook):
    """Injects bit errors by "reading" tensors from an approximate DRAM device.

    Each tensor is assigned a stable base address in the device (tensors are
    packed sequentially from the start of a bank), so its elements always map
    to the same cells: the same weak cells corrupt the same tensor elements
    across inference runs, matching real-device behaviour.  An optional
    ``ecc`` codec decodes every read like
    :class:`BitErrorInjector`'s, with the same :attr:`ecc_stats` accounting.
    """

    def __init__(self, device: ApproximateDram, op_point: DramOperatingPoint,
                 bits: int = 32, corrector: Optional[Corrector] = None,
                 bank: int = 0, seed: int = 0,
                 ecc: Optional["RsCodecModel"] = None):
        super().__init__(bits, corrector, seed, ecc)
        self.device = device
        self.op_point = op_point
        self.bank = int(bank)
        self._addresses: Dict[str, int] = {}
        self._next_bit = bank * device.geometry.bank_size_bytes * 8

    def _address_of(self, spec: TensorSpec) -> int:
        address = self._addresses.get(spec.name)
        if address is None:
            size_bits = spec.num_elements * self.bits
            capacity = self.device.geometry.capacity_bits
            if self._next_bit + size_bits > capacity:
                # Wrap around (the synthetic tensors are far smaller than the
                # module; wrapping only matters for pathological configs).
                self._next_bit = 0
            address = self._next_bit
            self._addresses[spec.name] = address
            self._next_bit += size_bits
        return address

    def _read(self, spec: TensorSpec):
        address = self._address_of(spec)
        return lambda words: self.device.read_words(
            words, self.bits, address, self.op_point, rng=self._rng)
