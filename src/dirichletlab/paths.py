"""Deterministic seed-derived sign paths.

Signs are produced by a counter-mode SplitMix64-style generator keyed by
(master_seed, trial_index, element index), so any sign is random-access:
no stream state, bit-identical results from any thread or worker, and
distinct trial indices give statistically independent streams.  The sign
is the top bit of the mixed 64-bit word, mapped to {-1, +1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .frequencies import FrequencySequence, _check_budget

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TRIAL_GAMMA = 0xBF58476D1CE4E5B9
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.float64(1.0).view(np.uint64)


def _mix64(z: int) -> int:
    """Finalizer of SplitMix64 (Stafford variant 13)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _signs_in_place(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Signs of the counters ``z``, computed in place.

    ``z`` is run through the finalizer of ``_mix64``; ``scratch`` is a
    uint64 buffer of the same size that it overwrites.  The sign is the
    mixed word's top bit (set -> +1.0, clear -> -1.0), written straight into
    the IEEE-754 bits of ``z``, whose float64 view is returned.
    """
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _M1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _M2
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    np.invert(z, out=z)
    z &= _SIGN_BIT
    z |= _ONE_BITS
    return z.view(np.float64)


def _stream_key(master_seed: int, trial_index: int) -> int:
    base = _mix64(master_seed & _MASK)
    return _mix64(base ^ ((trial_index + 1) * _TRIAL_GAMMA & _MASK))


@dataclass(frozen=True)
class SamplePath:
    """An assignment of a sign in {-1,+1} to every index of a sequence.

    ``forced`` pins finitely many indices to fixed signs (used to realize
    conditioning events such as "all signs +1 up to a cutoff"); everywhere
    else the counter generator decides.
    """

    seq: FrequencySequence
    master_seed: int
    trial_index: int = 0
    forced: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.trial_index < 0:
            raise ValidationError("trial_index must be >= 0")
        pins: dict[int, int] = {}
        for idx, sign in self.forced:
            if sign not in (-1, 1):
                raise ValidationError(f"forced sign for index {idx} must be +-1")
            if idx < self.seq.start_index:
                raise ValidationError(f"forced index {idx} precedes start_index")
            if pins.setdefault(idx, sign) != sign:
                raise ValidationError(f"conflicting forced signs for index {idx}")
        # sorted pin arrays, so one binary search places every pin
        order = sorted(pins)
        object.__setattr__(self, "_pin_index", np.array(order, dtype=np.uint64))
        object.__setattr__(
            self, "_pin_sign", np.array([pins[i] for i in order], dtype=np.float64)
        )

    # ---- sign access --------------------------------------------------

    def sign_at(self, index: int) -> int:
        if index < self.seq.start_index:
            raise ValidationError(f"index {index} precedes start_index")
        pos = int(np.searchsorted(self._pin_index, np.uint64(index)))
        if pos < self._pin_index.size and int(self._pin_index[pos]) == index:
            return int(self._pin_sign[pos])
        key = _stream_key(self.master_seed, self.trial_index)
        z = _mix64((key + index * _GAMMA) & _MASK)
        return 1 if (z >> 63) else -1

    def signs_for_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized signs (float64 in {-1.0, +1.0}) for an index array."""
        idx = np.ascontiguousarray(indices, dtype=np.uint64)
        z = idx * np.uint64(_GAMMA)
        z += np.uint64(_stream_key(self.master_seed, self.trial_index))
        signs = _signs_in_place(z, np.empty_like(z))
        if self._pin_index.size and signs.size:
            pos = np.searchsorted(self._pin_index, idx)
            np.minimum(pos, self._pin_index.size - 1, out=pos)
            hit = self._pin_index[pos] == idx
            signs[hit] = self._pin_sign[pos[hit]]
        return signs

    def _sign_chunks(self, count: int, chunk: int):
        """Yield ``(offset, signs)`` over the first ``count`` served signs,
        ``chunk`` at a time, equal to ``signs_up_to``'s vector sliced at
        the same offsets.

        Every ``signs`` is a view into one buffer that the next chunk
        overwrites, so a stream of any length holds O(chunk) memory.
        """
        size = min(count, chunk)
        steps = np.arange(size, dtype=np.uint64) * np.uint64(_GAMMA)
        z = np.empty(size, dtype=np.uint64)
        scratch = np.empty_like(z)
        key = _stream_key(self.master_seed, self.trial_index)
        pins = self._pin_index
        for offset in range(0, count, chunk):
            m = min(chunk, count - offset)
            first = self.seq.start_index + offset
            # key + (first + j) * gamma, mod 2**64, for j < m
            np.add(steps[:m], np.uint64((key + first * _GAMMA) & _MASK), out=z[:m])
            signs = _signs_in_place(z[:m], scratch[:m])
            if pins.size:
                lo, hi = np.searchsorted(pins, np.array([first, first + m], np.uint64))
                signs[(pins[lo:hi] - np.uint64(first)).astype(np.intp)] = (
                    self._pin_sign[lo:hi]
                )
            yield offset, signs

    def signs_up_to(self, cutoff: float, budget: int | None = None) -> np.ndarray:
        """Signs of all served elements <= cutoff, in element order."""
        count = self.seq.counting_function(cutoff)
        _check_budget(count, budget)
        start = self.seq.start_index
        return self.signs_for_indices(np.arange(start, start + count, dtype=np.uint64))


def all_plus_path(
    seq: FrequencySequence, master_seed: int, trial_index: int, cutoff: float
) -> SamplePath:
    """Path forced to +1 on every element <= cutoff, random beyond."""
    count = seq.counting_function(cutoff)
    start = seq.start_index
    forced = tuple((i, 1) for i in range(start, start + count))
    return SamplePath(seq, master_seed, trial_index, forced=forced)

