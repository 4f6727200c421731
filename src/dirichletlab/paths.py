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


def _mix64(z: int) -> int:
    """Finalizer of SplitMix64 (Stafford variant 13)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


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
        key = np.uint64(_stream_key(self.master_seed, self.trial_index))
        z = _mix64_array(key + idx * np.uint64(_GAMMA))
        signs = (z >> np.uint64(63)).astype(np.float64) * 2.0 - 1.0
        if self._pin_index.size and signs.size:
            pos = np.searchsorted(self._pin_index, idx)
            np.minimum(pos, self._pin_index.size - 1, out=pos)
            hit = self._pin_index[pos] == idx
            signs[hit] = self._pin_sign[pos[hit]]
        return signs

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

