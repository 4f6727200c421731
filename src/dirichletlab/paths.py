"""Deterministic seed-derived sign paths.

Signs are produced by a counter-mode SplitMix64 generator keyed by
(master_seed, trial_index), so any sign is random-access: no stream
state, bit-identical results from any thread or worker, and distinct
trial indices give statistically independent streams.  Word k of a path
is the SplitMix64 finalizer of ``key + k * gamma`` (mod 2**64), and the
sign of element index i is bit ``i % 64`` of word ``i // 64`` (set -> +1,
clear -> -1).  The bits are read from the word's little-endian bytes,
least significant first, so the stream does not depend on the host.
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
_GAMMA_U64 = np.uint64(_GAMMA)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
# a run of n signs from any bit of a word lies in whole words of at most
# n + _SLACK bits
_SLACK = 126
# row b holds the signs of bits 0..7 of the byte b
_BYTE_SIGNS = np.where((np.arange(256)[:, None] >> np.arange(8)) & 1, 1.0, -1.0)


def _mix64(z: int) -> int:
    """Finalizer of SplitMix64 (Stafford variant 13)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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

    def _fill_signs(self, offset: int, count: int, buf: np.ndarray) -> np.ndarray:
        """Signs of the served positions ``[offset, offset + count)``.

        The one sign generator: it mixes the words that hold those signs
        (``_mix64``, one word per 64 signs) and decodes each of their
        bytes into ``buf``, a float64 buffer of at least ``count + _SLACK``
        entries that it overwrites.  The returned view into ``buf`` starts
        at the first sign's bit of its word.
        """
        first_word, lead = divmod(self.seq.start_index + offset, 64)
        words = (lead + count + 63) // 64
        z = np.arange(first_word, first_word + words, dtype=np.uint64)
        # key + k * gamma, mod 2**64, for each word index k
        z *= _GAMMA_U64
        z += np.uint64(self._key)
        z ^= z >> _S30
        z *= _M1
        z ^= z >> _S27
        z *= _M2
        z ^= z >> _S31
        out = buf[:64 * words]
        # byte j of a little-endian word holds its bits 8j .. 8j + 7; the
        # indices are bytes, never out of range, and "clip" writes straight
        # into ``out``, where the default "raise" would buffer it
        _BYTE_SIGNS.take(z.astype("<u8", copy=False).view(np.uint8), axis=0,
                         out=out.reshape(-1, 8), mode="clip")
        return out[lead:lead + count]

    def sign_at(self, index: int) -> int:
        if index < self.seq.start_index:
            raise ValidationError(f"index {index} precedes start_index")
        signs = self._fill_signs(index - self.seq.start_index, 1, np.empty(1 + _SLACK))
        return int(signs[0])

    def _sign_chunks(self, count: int):
        """Yield ``(offset, signs)`` over the first ``count`` served signs,
        ``_CHUNK`` at a time, equal to ``signs_up_to``'s vector sliced at
        the same offsets.

        Every ``signs`` is a view into one buffer that the next chunk
        overwrites, so a stream of any length holds O(_CHUNK) memory.
        """
        buf = np.empty(min(count, _CHUNK) + _SLACK)
        for offset in range(0, count, _CHUNK):
            yield offset, self._fill_signs(offset, min(_CHUNK, count - offset), buf)

    def signs_up_to(self, cutoff: float) -> np.ndarray:
        """Signs (float64 in {-1.0, +1.0}) of all served elements <= cutoff,
        in element order."""
        count = self.seq._count_up_to(cutoff)
        return self._fill_signs(0, count, np.empty(count + _SLACK))
