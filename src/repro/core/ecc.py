"""Symbol-level ECC codec models for approximate-DRAM weight stores.

Real server DRAM pairs every 64 data bytes with 8 check bytes and a
Reed-Solomon-class code over 8-bit symbols; the decoder corrects any
codeword with at most ``t = parity_symbols // 2`` corrupted symbols and
flags denser corruption as detected-uncorrectable (with a small silent
*miscorrection* tail).  This module models exactly that accounting —
per-codeword syndrome bookkeeping over the packed stored/observed words —
without implementing Galois-field arithmetic: the injector knows the
ground-truth stored bits, so "decode" reduces to counting corrupted
symbols per codeword and reverting the flips of every correctable one.

:class:`RsCodecModel.correct_words` is deterministic for a fixed
``(seed, key)`` and is wired into store materialization by
:class:`repro.dram.injection.BitErrorInjector` (``ecc=``) and
:meth:`repro.engine.session.InferenceSession.from_error_model`
(``correction="rs72_64"``), so STATIC_STORE plans serve post-correction
weights and report corrected/uncorrectable counts per tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dram.packed import _hash_uniform


@dataclass(frozen=True)
class RsCodecSpec:
    """Shape of a symbol-level code: RS(72,64)-class by default.

    ``symbol_bits`` is the symbol width, ``data_symbols`` the number of data
    symbols per codeword and ``parity_symbols`` the check symbols that buy
    correction strength — the classic chipkill-style RS(72,64) layout is 64
    data + 8 parity 8-bit symbols, correcting ``t = parity_symbols // 2 = 4``
    corrupted symbols per codeword.
    """

    symbol_bits: int = 8
    data_symbols: int = 64
    parity_symbols: int = 8

    def __post_init__(self) -> None:
        if min(self.symbol_bits, self.data_symbols, self.parity_symbols) <= 0:
            raise ValueError("codec dimensions must be positive")

    @property
    def correctable_symbols(self) -> int:
        """``t``: the maximum number of corrupted symbols the code corrects."""
        return self.parity_symbols // 2

    @property
    def data_bits(self) -> int:
        """Data payload of one codeword, in bits."""
        return self.symbol_bits * self.data_symbols

    @property
    def total_symbols(self) -> int:
        """Data plus parity symbols per codeword."""
        return self.data_symbols + self.parity_symbols


@dataclass
class EccReport:
    """Per-call decode accounting: how many codewords landed where.

    ``codewords`` is everything decoded; ``corrected_codewords`` had between
    1 and ``t`` corrupted symbols (``corrected_symbols`` sums them);
    ``uncorrectable_codewords`` exceeded ``t`` and were flagged;
    ``miscorrected_codewords`` exceeded ``t`` but silently decoded wrong.
    """

    codewords: int = 0
    corrected_codewords: int = 0
    corrected_symbols: int = 0
    uncorrectable_codewords: int = 0
    miscorrected_codewords: int = 0

    def merge(self, other: "EccReport") -> None:
        """Accumulate ``other``'s counters into this report in place."""
        self.codewords += other.codewords
        self.corrected_codewords += other.corrected_codewords
        self.corrected_symbols += other.corrected_symbols
        self.uncorrectable_codewords += other.uncorrectable_codewords
        self.miscorrected_codewords += other.miscorrected_codewords

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dict (telemetry/JSON friendly)."""
        return {
            "codewords": self.codewords,
            "corrected_codewords": self.corrected_codewords,
            "corrected_symbols": self.corrected_symbols,
            "uncorrectable_codewords": self.uncorrectable_codewords,
            "miscorrected_codewords": self.miscorrected_codewords,
        }


class RsCodecModel:
    """Syndrome-accounting decoder model over packed weight-store words.

    Parameters: ``spec`` fixes the code shape (default RS(72,64)-class),
    ``miscorrection_rate`` is the probability an uncorrectable codeword
    silently decodes to wrong data instead of being flagged (0 disables the
    tail, making the decoder provably never silently wrong), and ``seed``
    makes the miscorrection lottery deterministic (hash stream 602 over
    codeword indices, offset by the caller's ``key``).
    """

    def __init__(self, spec: Optional[RsCodecSpec] = None,
                 miscorrection_rate: float = 0.0, seed: int = 0):
        self.spec = spec if spec is not None else RsCodecSpec()
        if not 0.0 <= miscorrection_rate <= 1.0:
            raise ValueError("miscorrection_rate must be within [0, 1]")
        self.miscorrection_rate = float(miscorrection_rate)
        self.seed = int(seed)

    def name(self) -> str:
        """Return the codec's display name, e.g. ``rs(72,64)x8``."""
        spec = self.spec
        return (f"rs({spec.total_symbols},{spec.data_symbols})"
                f"x{spec.symbol_bits}")

    def correct_words(self, stored: np.ndarray, observed: np.ndarray,
                      bits_per_word: int, *, key: int = 0
                      ) -> Tuple[np.ndarray, EccReport]:
        """Decode one tensor's packed words; return (corrected, report).

        ``stored`` are the ground-truth words written to DRAM, ``observed``
        what the read returned (``bits_per_word`` meaningful LSB-first bits
        each); consecutive data bits fill codewords of ``spec.data_bits``
        bits.  Decode works on whole words: one of ``symbol_bits`` and
        ``bits_per_word`` must divide the other and codewords must end on
        word boundaries, else ``ValueError``.  Codewords with at most ``t``
        corrupted symbols are reverted to the stored words exactly; denser
        codewords stay as observed (flagged uncorrectable) unless the
        deterministic miscorrection lottery — hash of the codeword index
        offset by ``key``, so distinct tensors draw distinct lotteries —
        additionally garbles their first symbol.  Returns new
        post-correction words and the :class:`EccReport` for every codeword.
        """
        stored = np.asarray(stored, dtype=np.uint64)
        observed = np.asarray(observed, dtype=np.uint64)
        if stored.shape != observed.shape:
            raise ValueError("stored and observed must have the same shape")
        spec = self.spec
        width = min(spec.symbol_bits, bits_per_word)  # symbol bits per word
        if max(spec.symbol_bits, bits_per_word) % width \
                or spec.data_bits % bits_per_word:
            raise ValueError(f"{bits_per_word}-bit words do not tile "
                             f"{self.name()} symbols and codewords")
        n = stored.size
        words_per_codeword = spec.data_bits // bits_per_word
        n_codewords = -(-n // words_per_codeword)
        corrected = observed.copy()
        flat = corrected.reshape(-1)
        # Cost follows the errors: only words that differ from what was
        # stored can hold a corrupted symbol or need reverting.
        touched = np.flatnonzero(stored != observed)
        if touched.size == 0:
            return corrected, EccReport(codewords=int(n_codewords))
        stored = stored.reshape(-1)
        diff = stored[touched] ^ flat[touched]
        mask = np.uint64((1 << width) - 1)
        if bits_per_word > width:
            # Several symbols per word: each non-zero slice is one symbol.
            symbols = np.zeros(touched.size, dtype=np.int64)
            for shift in range(0, bits_per_word, width):
                symbols += ((diff >> np.uint64(shift)) & mask) != 0
        else:
            # A symbol spans consecutive words and counts once across them:
            # keep the first dirty word of each symbol (``touched`` ascends).
            dirty = np.flatnonzero((diff & mask) != 0)
            symbol_of = touched[dirty] // (spec.symbol_bits // bits_per_word)
            first = np.ones(dirty.size, dtype=bool)
            np.not_equal(symbol_of[1:], symbol_of[:-1], out=first[1:])
            symbols = np.zeros(touched.size, dtype=np.int64)
            symbols[dirty[first]] = 1
        # Group the touched words by codeword (again ascending) and count
        # each dirty codeword's corrupted symbols.
        codeword_of = touched // words_per_codeword
        opens = np.ones(touched.size, dtype=bool)
        np.not_equal(codeword_of[1:], codeword_of[:-1], out=opens[1:])
        group = np.cumsum(opens) - 1
        error_counts = np.bincount(group, weights=symbols).astype(np.int64)
        codewords = codeword_of[opens]

        t = spec.correctable_symbols
        correctable = (error_counts > 0) & (error_counts <= t)
        uncorrectable = error_counts > t
        miscorrected = np.zeros(codewords.size, dtype=bool)
        if self.miscorrection_rate > 0.0 and uncorrectable.any():
            indices = codewords.astype(np.uint64) + np.uint64(key)
            lottery = _hash_uniform(indices, self.seed, stream=602)
            miscorrected = uncorrectable & (lottery < self.miscorrection_rate)

        report = EccReport(
            codewords=int(n_codewords),
            corrected_codewords=int(correctable.sum()),
            corrected_symbols=int(error_counts[correctable].sum()),
            uncorrectable_codewords=int((uncorrectable & ~miscorrected).sum()),
            miscorrected_codewords=int(miscorrected.sum()))
        revert = touched[correctable[group]]
        flat[revert] = stored[revert]
        if miscorrected.any():
            # A miscorrecting decoder writes garbage: garble the first
            # symbol of each miscorrected codeword on top of the raw flips.
            starts = codewords[miscorrected] * words_per_codeword
            words = starts[:, None] + np.arange(spec.symbol_bits // width)
            flat[words[words < n]] ^= mask
        return corrected, report


#: named codec registry for the ``correction=`` string API.
CODECS: Dict[str, RsCodecSpec] = {
    "rs72_64": RsCodecSpec(symbol_bits=8, data_symbols=64, parity_symbols=8),
}


def make_codec(name: str, seed: int = 0,
               miscorrection_rate: float = 0.0) -> RsCodecModel:
    """Build a registered codec model by name; returns an :class:`RsCodecModel`.

    ``name`` must be a key of :data:`CODECS` (currently ``"rs72_64"``);
    ``seed`` and ``miscorrection_rate`` configure the miscorrection lottery.
    """
    try:
        spec = CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; expected one of {sorted(CODECS)}"
        ) from None
    return RsCodecModel(spec, miscorrection_rate=miscorrection_rate, seed=seed)
