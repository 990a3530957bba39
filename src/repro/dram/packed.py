"""Packed-word primitives shared by the error models and the device model.

The original injection path expanded every tensor into a per-bit boolean
array (a 32x memory blowup for FP32), drew one uniform per bit, and folded
the resulting boolean flip mask back into words.  This module provides the
building blocks of the packed replacement, which never materializes per-bit
booleans and — crucially — is *bit-exact* with the boolean path for a fixed
RNG seed:

* the per-cell "weakness" uniforms are deterministic counter-based hashes, so
  the set of bits with a non-zero flip probability (the *candidates*) can be
  found with pure integer compares, chunk by chunk (:func:`hash_keys`,
  :func:`uniform_threshold`);
* the legacy path consumed exactly one ``rng.random()`` draw per stored bit.
  PCG64 takes one 128-bit LCG step per double, so the draw at stream offset
  ``p`` is a closed-form function of the generator's ``(state, inc)``:
  :func:`sample_flip_positions` computes it *only at candidate positions*,
  by a jump-ahead vectorized over the candidates (two constant tables for
  the low 16 bits of each offset, one Python-int jump per distinct high
  part), then sets the state a full draw would leave.  The flips are
  identical to what the dense path would have produced; other bit
  generators take that dense path;
* flips are applied as sparse XORs straight into the packed words
  (:func:`xor_mask_from_positions`).

Everything here is layout-agnostic: callers hand in flat bit indices and get
back flat flip positions.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Tuple

import numpy as np

#: bits processed per chunk while scanning for weak cells.  The weak-cell
#: hash makes ~10 in-place passes over a chunk's uint64 keys; at 1 MiB per
#: uint64 buffer a chunk stays resident in a typical L2 cache instead of
#: streaming through memory on every pass.  A multiple of
#: every supported word width (4/8/16/32/64) so chunk edges never split a
#: word.  Kept module-level so tests can shrink it to exercise chunk seams.
CHUNK_BITS = 1 << 17

_MANTISSA_SCALE = float(1 << 53)
_MASK64 = (1 << 64) - 1


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 mix function: uint64 -> well-mixed uint64."""
    z = (values + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_keys(indices: np.ndarray, seed: int, stream: int) -> np.ndarray:
    """53-bit integer hash keys underlying :func:`_hash_uniform`.

    ``_hash_uniform`` maps these keys to floats via ``k / 2**53 + 1e-16``;
    comparing keys against :func:`uniform_threshold` reproduces the float
    comparison exactly without ever leaving the integer domain.  The mixing
    is value-identical to :func:`_splitmix64` but runs in-place on two
    buffers — this scan dominates the packed hot path.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    # Reduce mod 2**64 so seeds of any size hash (unchanged below 2**33).
    z = indices ^ np.uint64((seed * 0x9E3779B1 + stream * 0x85EBCA77) & _MASK64)
    z += np.uint64(0x9E3779B97F4A7C15)
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    z >>= np.uint64(11)
    return z


def _hash_uniform(indices: np.ndarray, seed: int, stream: int) -> np.ndarray:
    """Deterministic per-index uniforms in (0, 1), independent across streams."""
    # 53-bit mantissa keeps the uniform well away from exactly 0 or 1.
    return hash_keys(indices, seed, stream).astype(np.float64) / _MANTISSA_SCALE + 1e-16


def uniform_threshold(fraction: float) -> int:
    """Smallest key ``k`` whose hashed uniform is >= ``fraction``.

    A hashed cell is "weak" iff ``_hash_uniform < fraction``, i.e. iff its
    :func:`hash_keys` value is strictly below this threshold.  The search
    evaluates the same float expression ``_hash_uniform`` uses, so the
    integer compare is exact — including the additive 1e-16 and any rounding
    at the top of the range.
    """
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if float(mid) / _MANTISSA_SCALE + 1e-16 >= fraction:
            hi = mid
        else:
            lo = mid + 1
    return lo


def iter_bit_chunks(num_bits: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` chunk bounds covering ``[0, num_bits)``."""
    for start in range(0, num_bits, CHUNK_BITS):
        yield start, min(start + CHUNK_BITS, num_bits)


def scan_weak_positions(num_bits: int, start_bit: int,
                        weak_in_chunk: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Flat positions in ``[0, num_bits)`` whose cells are weak.

    ``weak_in_chunk`` maps a chunk of *absolute* bit indices (tensor-relative
    index plus ``start_bit``, the hash domain every error model keys on) to a
    boolean weakness mask.  The chunked scan bounds peak memory regardless of
    tensor size.
    """
    chunks = []
    for start, stop in iter_bit_chunks(num_bits):
        absolute = np.arange(start, stop, dtype=np.uint64) + np.uint64(start_bit)
        weak = np.nonzero(weak_in_chunk(absolute))[0]
        if weak.size:
            chunks.append(weak.astype(np.int64) + start)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def make_bit_gather(words: np.ndarray, bits_per_word: int) -> Callable[[np.ndarray], np.ndarray]:
    """Return ``bit_at(positions) -> bool array`` over packed ``words``.

    Flat bit position ``i`` maps to bit ``i % bits_per_word`` (LSB-first) of
    ``words[i // bits_per_word]`` — the same convention the boolean expansion
    used.
    """
    words = np.asarray(words, dtype=np.uint64)

    def bit_at(positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        shifts = (positions % bits_per_word).astype(np.uint64)
        return ((words[positions // bits_per_word] >> shifts) & np.uint64(1)).astype(bool)

    return bit_at


def xor_mask_from_positions(flip_positions: np.ndarray, num_words: int,
                            bits_per_word: int) -> np.ndarray:
    """Fold flat flip positions into a per-word uint64 XOR mask."""
    xor = np.zeros(num_words, dtype=np.uint64)
    flip_positions = np.asarray(flip_positions, dtype=np.int64)
    if flip_positions.size:
        shifts = (flip_positions % bits_per_word).astype(np.uint64)
        np.bitwise_xor.at(xor, flip_positions // bits_per_word, np.uint64(1) << shifts)
    return xor


def expand_spans(los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Concatenated ``np.arange(lo, hi)`` over the ``(lo, hi)`` pairs, in order.

    One ``np.repeat`` of per-span offsets onto a running index replaces a
    Python loop of ``arange`` calls; empty spans contribute nothing.

    >>> expand_spans(np.array([3, 10, 7]), np.array([5, 10, 8])).tolist()
    [3, 4, 7]
    """
    los = np.asarray(los, dtype=np.int64)
    lengths = np.maximum(np.asarray(his, dtype=np.int64) - los, 0)
    starts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(los - starts, lengths)


def skip_stream(rng: np.random.Generator, num_draws: int) -> None:
    """Consume ``num_draws`` uniform draws without keeping them.

    Uses ``BitGenerator.advance`` for PCG64 and PCG64DXSM (one state step
    per double) and draws-and-discards in chunks for every other generator
    — Philox's ``advance`` counts 4-draw counter blocks, and SFC64/MT19937
    have none — so the stream ends where ``rng.random(num_draws)`` would
    have left it.  ``advance`` also drops a buffered 32-bit half that
    ``random`` keeps, so that is restored.
    """
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        before = bit_generator.state
        bit_generator.advance(num_draws)
        if before["has_uint32"]:
            after = bit_generator.state
            after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
            bit_generator.state = after
        return
    for start, stop in iter_bit_chunks(num_draws):
        rng.random(stop - start)


# -- PCG64 jump-ahead ----------------------------------------------------------------
#
# PCG64 is the LCG ``s -> A*s + inc (mod 2**128)`` followed by the XSL-RR
# output of the new state, and ``random()`` keeps the top 53 output bits.
# After ``q`` steps from ``s0`` the state is ``A**q * s0 + inc * G(q)`` with
# ``G(q) = sum_{j<q} A**j``, so the draw at stream offset ``p`` (state after
# ``q = p + 1`` steps) is a pure function of ``(s0, inc, p)``.  Splitting
# ``q = high * 2**16 + low``, the state at ``high * 2**16`` steps is one
# Python-int jump per distinct ``high``, and the remaining ``low`` steps are a
# 128-bit multiply-add against two constant 65,536-entry tables.

#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``).
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

_MASK128 = (1 << 128) - 1
#: low bits of the step count resolved by table lookup.
_LOW_BITS = 16
#: candidates per vectorized jump-ahead batch (bounds the temporaries).
_JUMP_CHUNK = 1 << 14
_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


@functools.lru_cache(maxsize=64)
def _lcg_jump(steps: int) -> Tuple[int, int]:
    """``(A**steps, G(steps)) mod 2**128`` by binary doubling."""
    acc_mult, acc_plus = 1, 0
    cur_mult, cur_plus = PCG64_MULTIPLIER, 1
    while steps:
        if steps & 1:
            acc_mult = acc_mult * cur_mult & _MASK128
            acc_plus = (acc_plus * cur_mult + cur_plus) & _MASK128
        cur_plus = (cur_mult + 1) * cur_plus & _MASK128
        cur_mult = cur_mult * cur_mult & _MASK128
        steps >>= 1
    return acc_mult, acc_plus


def _pcg64_jump(state: int, inc: int, steps: int) -> int:
    """PCG64's 128-bit state ``steps`` steps after ``state``."""
    mult, plus = _lcg_jump(steps)
    return (mult * state + plus * inc) & _MASK128


def _halves(value: int) -> Tuple[np.uint64, np.uint64]:
    return np.uint64(value >> 64), np.uint64(value & _MASK64)


def _mul_high64(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the full 128-bit products ``a * b`` (32-bit partials)."""
    a0, a1 = a & _U32, a >> _SHIFT32
    b0, b1 = b & _U32, b >> _SHIFT32
    cross_a = a0 * b1
    cross_b = a1 * b0
    middle = ((a0 * b0) >> _SHIFT32) + (cross_a & _U32) + (cross_b & _U32)
    return a1 * b1 + (cross_a >> _SHIFT32) + (cross_b >> _SHIFT32) + (middle >> _SHIFT32)


def _mul128(a_high, a_low, b_high, b_low) -> Tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` on uint64 (high, low) halves; ``a`` is an array."""
    return _mul_high64(a_low, b_low) + a_high * b_low + a_low * b_high, a_low * b_low


def _add128(a_high, a_low, b_high, b_low) -> Tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` on uint64 (high, low) halves."""
    low = a_low + b_low
    return a_high + b_high + (low < a_low), low


@functools.lru_cache(maxsize=None)
def _pcg64_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(A**j, G(j))`` as uint64 (high, low) halves for ``j < 2**_LOW_BITS``.

    Built once, on first use (not at import), by vectorized doubling: from
    the first ``n`` entries, ``A**(n+j) = A**n * A**j`` and
    ``G(n+j) = G(n) + A**n * G(j)`` give the next ``n``.
    """
    power_high, power_low = np.zeros(1, np.uint64), np.ones(1, np.uint64)
    sum_high, sum_low = np.zeros(1, np.uint64), np.zeros(1, np.uint64)
    for level in range(_LOW_BITS):
        mult, plus = _lcg_jump(1 << level)
        next_power_high, next_power_low = _mul128(power_high, power_low, *_halves(mult))
        next_sum_high, next_sum_low = _add128(
            *_mul128(sum_high, sum_low, *_halves(mult)), *_halves(plus))
        power_high = np.concatenate([power_high, next_power_high])
        power_low = np.concatenate([power_low, next_power_low])
        sum_high = np.concatenate([sum_high, next_sum_high])
        sum_low = np.concatenate([sum_low, next_sum_low])
    tables = power_high, power_low, sum_high, sum_low
    for table in tables:
        table.flags.writeable = False   # shared by every caller
    return tables


def _pcg64_uniforms(state: int, inc: int, steps: np.ndarray) -> np.ndarray:
    """``random()`` outputs of the states ``steps`` (int64, > 0) steps after ``state``."""
    power_high, power_low, sum_high, sum_low = _pcg64_tables()
    low = steps & ((1 << _LOW_BITS) - 1)
    high_of = steps >> _LOW_BITS
    # Runs of equal high parts share one base state (one run each when sorted).
    run_start = np.empty(steps.size, dtype=bool)
    run_start[0] = True
    np.not_equal(high_of[1:], high_of[:-1], out=run_start[1:])
    which = np.cumsum(run_start) - 1
    bases, base, cursor = [], state, 0
    for high in high_of[run_start].tolist():
        if high < cursor:
            base, cursor = state, 0
        # Jump from the previous base: the gaps repeat, so ``_lcg_jump`` hits its cache.
        base = _pcg64_jump(base, inc, (high - cursor) << _LOW_BITS)
        bases.append(base)
        cursor = high
    base_high = np.array([base >> 64 for base in bases], dtype=np.uint64)[which]
    base_low = np.array([base & _MASK64 for base in bases], dtype=np.uint64)[which]
    high, low_word = _add128(
        *_mul128(power_high[low], power_low[low], base_high, base_low),
        *_mul128(sum_high[low], sum_low[low], *_halves(inc)))
    # XSL-RR: rotate (high ^ low) right by the state's top 6 bits.
    folded = high ^ low_word
    rotation = high >> np.uint64(58)
    output = (folded >> rotation) | (folded << ((np.uint64(64) - rotation) & np.uint64(63)))
    return (output >> np.uint64(11)).astype(np.float64) * (1.0 / _MANTISSA_SCALE)


def _pcg64_flip_positions(bit_generator: np.random.PCG64, total_bits: int,
                          positions: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Jump-ahead sampler: draws only the candidates' uniforms, O(candidates)."""
    snapshot = bit_generator.state
    state, inc = snapshot["state"]["state"], snapshot["state"]["inc"]
    flips = []
    for lo in range(0, positions.size, _JUMP_CHUNK):
        chunk = positions[lo:lo + _JUMP_CHUNK]
        chosen = _pcg64_uniforms(state, inc, chunk + 1) < probabilities[lo:lo + _JUMP_CHUNK]
        flips.append(chunk[chosen])
    # Setting the state (rather than ``advance``) keeps a buffered 32-bit
    # half, exactly as ``rng.random(total_bits)`` would.
    snapshot["state"]["state"] = _pcg64_jump(state, inc, total_bits)
    bit_generator.state = snapshot
    return np.concatenate(flips)


def _dense_flip_positions(rng: np.random.Generator, total_bits: int,
                          positions: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Generic sampler: draws every uniform in chunks; exact for any generator."""
    flips = []
    lo = 0
    for start, stop in iter_bit_chunks(total_bits):
        uniforms = rng.random(stop - start)
        hi = int(np.searchsorted(positions, stop))
        if hi > lo:
            chunk_positions = positions[lo:hi]
            chosen = uniforms[chunk_positions - start] < probabilities[lo:hi]
            if chosen.any():
                flips.append(chunk_positions[chosen])
            lo = hi
    if not flips:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(flips)


def sample_flip_positions(rng: np.random.Generator, total_bits: int,
                          positions: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Which candidate bits flip on this access — stream-exact vs. the dense path.

    ``positions`` are the sorted flat indices with a non-zero flip
    probability and ``probabilities`` their per-access failure probabilities.
    The result equals ``positions[rng.random(total_bits)[positions] <
    probabilities]`` bit for bit, and the generator ends in exactly the state
    that full draw would leave it in.  For PCG64 only the candidates'
    uniforms are computed, by vectorized jump-ahead; every other generator
    draws the whole stream in chunks.
    """
    positions = np.asarray(positions, dtype=np.int64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    keep = probabilities > 0.0
    if not keep.all():
        positions, probabilities = positions[keep], probabilities[keep]
    if positions.size == 0:
        skip_stream(rng, total_bits)
        return positions
    if isinstance(rng.bit_generator, np.random.PCG64):
        return _pcg64_flip_positions(rng.bit_generator, total_bits, positions, probabilities)
    return _dense_flip_positions(rng, total_bits, positions, probabilities)
