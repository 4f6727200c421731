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
from .frequencies import FrequencySequence
from .summation import _CHUNK

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TRIAL_GAMMA = 0xBF58476D1CE4E5B9
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SIGN_BIT = np.uint64(1 << 63)
_MINUS_ONE_BITS = np.float64(-1.0).view(np.uint64)
# j * gamma mod 2**64 for the j-th position of a chunk
_STEPS = np.arange(_CHUNK, dtype=np.uint64) * np.uint64(_GAMMA)


def _mix64(z: int) -> int:
    """Finalizer of SplitMix64 (Stafford variant 13)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _signs_in_place(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Signs of the counters ``z``, computed in place.

    ``z`` is run through the finalizer of ``_mix64`` but for its last
    ``z ^= z >> 31``, which leaves the top bit as it is; ``scratch`` is a
    uint64 buffer of the same size that it overwrites.  The sign is the
    mixed word's top bit (set -> +1.0, clear -> -1.0), written straight into
    the IEEE-754 bits of ``z``, whose float64 view is returned: the top bit
    alone, xored with the bits of -1.0, gives +1.0 or -1.0.
    """
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _M1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _M2
    z &= _SIGN_BIT
    z ^= _MINUS_ONE_BITS
    return z.view(np.float64)


def _stream_key(master_seed: int, trial_index: int) -> int:
    base = _mix64(master_seed & _MASK)
    return _mix64(base ^ ((trial_index + 1) * _TRIAL_GAMMA & _MASK))


@dataclass(frozen=True)
class SamplePath:
    """An assignment of a sign in {-1,+1} to every index of a sequence,
    decided by the counter generator."""

    seq: FrequencySequence
    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if self.trial_index < 0:
            raise ValidationError("trial_index must be >= 0")
        object.__setattr__(
            self, "_key", _stream_key(self.master_seed, self.trial_index)
        )

    def _fill_signs(self, offset: int, z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Signs of the served positions ``[offset, offset + z.size)``.

        The one sign generator: ``z`` (at most ``_CHUNK`` entries) and
        ``scratch`` (at least as long) are uint64 buffers it overwrites;
        the signs land in ``z``, whose float64 view is returned.
        """
        m = z.size
        first = self.seq.start_index + offset
        # key + (first + j) * gamma, mod 2**64, for j < m
        np.add(_STEPS[:m], np.uint64((self._key + first * _GAMMA) & _MASK), out=z)
        return _signs_in_place(z, scratch[:m])

    def sign_at(self, index: int) -> int:
        if index < self.seq.start_index:
            raise ValidationError(f"index {index} precedes start_index")
        z = np.empty(1, dtype=np.uint64)
        return int(self._fill_signs(index - self.seq.start_index, z, np.empty_like(z))[0])

    def _sign_chunks(self, count: int):
        """Yield ``(offset, signs)`` over the first ``count`` served signs,
        ``_CHUNK`` at a time, equal to ``signs_up_to``'s vector sliced at
        the same offsets.

        Every ``signs`` is a view into one buffer that the next chunk
        overwrites, so a stream of any length holds O(_CHUNK) memory.
        """
        z = np.empty(min(count, _CHUNK), dtype=np.uint64)
        scratch = np.empty_like(z)
        for offset in range(0, count, _CHUNK):
            yield offset, self._fill_signs(offset, z[:count - offset], scratch)

    def signs_up_to(self, cutoff: float) -> np.ndarray:
        """Signs (float64 in {-1.0, +1.0}) of all served elements <= cutoff,
        in element order."""
        count = self.seq._count_up_to(cutoff)
        z = np.empty(count, dtype=np.uint64)
        scratch = np.empty(min(count, _CHUNK), dtype=np.uint64)
        for offset in range(0, count, _CHUNK):
            self._fill_signs(offset, z[offset:offset + _CHUNK], scratch)
        return z.view(np.float64)
