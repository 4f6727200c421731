"""Deterministic seed-derived sign paths.

Signs are produced by a counter-mode SplitMix64 generator keyed by
(master_seed, trial_index), so any sign is random-access: no stream
state, bit-identical results from any thread or worker, and distinct
trial indices give statistically independent streams.  Word k of a path
is the SplitMix64 finalizer of ``key + k * gamma`` (mod 2**64), and the
sign of element index i is bit ``i % 64`` of word ``i // 64`` (set -> +1,
clear -> -1).  The bits are read from the word's little-endian bytes,
least significant first, so the stream does not depend on the host.

Every word is computed on its own, so the one mixer, ``_mix_words``,
mixes rows of words of many paths, or many rows of one path, in one
call.  ``_sign_stream``, the one sign stream, yields the signs of a block
of paths chunk-major, one chunk of every path before the next chunk, so a
caller's weight chunk stays in cache across the block; each of its mixing
calls covers about ``_CHUNK`` words: one chunk of each of ``_BLOCK``
paths, or ``_BLOCK`` chunks of one path.  Every sign is decoded by the one
byte table (``_decode``).  A path's signs take two forms: the stream,
which only ``evaluation._signed_sums`` reads, and one vector of its first
``count`` signs (``SamplePath._signs``), filled from its own stream, which
a scan holds for its life and a study reads whole.  A single sign is its
bit of the word from the definition, in Python ints (``_mix64``), with no
numpy call.
"""

from __future__ import annotations

import operator
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
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
# row b holds the signs of bits 0..7 of the byte b
_BYTE_SIGNS = np.where((np.arange(256)[:, None] >> np.arange(8)) & 1, 1.0, -1.0)
# the words that hold one _CHUNK of signs
_CHUNK_WORDS = _CHUNK // 64
# the paths of a block: one chunk of each fills a _CHUNK-word mixing call
_BLOCK = _CHUNK // _CHUNK_WORDS
# k * gamma, mod 2**64, for the word offsets k of one row of a mixing call
_STEPS = np.arange(_CHUNK_WORDS + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _mix64(z: int) -> int:
    """Finalizer of SplitMix64 (Stafford variant 13)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _stream_key(master_seed: int, trial_index: int) -> int:
    base = _mix64(master_seed & _MASK)
    return _mix64(base ^ ((trial_index + 1) * _TRIAL_GAMMA & _MASK))


def _mix_words(bases: list[int], z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The one word mixer.  Row r of ``z``, a (len(bases), width) array of
    little-endian uint64 with width at most ``_CHUNK_WORDS + 1``, gets
    ``width`` consecutive words of one path: word k is the finalizer of
    ``bases[r] + k * gamma`` (mod 2**64), ``bases[r]`` being ``key + first
    * gamma`` for the row's first word index ``first``.  ``tmp``, 64-bit
    entries of z's shape, takes the shifted words, so every step runs in
    place.  Returns z's bytes, row by row."""
    # a lone row takes its base as a scalar: no array of bases to build
    if len(bases) == 1:
        np.add(_STEPS[:z.shape[-1]], bases[0], out=z)
    else:
        np.add(_STEPS[:z.shape[-1]], np.array(bases, dtype=np.uint64)[:, None], out=z)
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _M1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _M2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z.view(np.uint8)


def _decode(data: np.ndarray, buf: np.ndarray) -> None:
    """The one decode: the signs of the bits of ``data``, the bytes of
    little-endian words, 8 per byte in bit order, over the start of the
    float64 buffer ``buf``."""
    # byte j of a little-endian word holds its bits 8j .. 8j + 7; the
    # indices are bytes, never out of range, and "clip" writes straight
    # into the buffer, where the default "raise" would buffer it
    _BYTE_SIGNS.take(data, axis=0, out=buf[:8 * data.size].reshape(-1, 8), mode="clip")


def _sign_stream(paths, count: int):
    """Yield ``(offset, i, signs)`` over the first ``count`` served signs of
    the block ``paths``, a non-empty list of paths of one sequence: for
    each ``_CHUNK`` of signs, at ``offset``, one entry for each path
    ``paths[i]`` in order.  ``signs`` are that path's signs of the served
    positions ``offset`` onward, bit for bit the bits that ``sign_at``
    reads from the words.

    One ``_mix_words`` call covers max(1, ``_BLOCK`` // len(paths))
    chunks of every path, one row of words per chunk and path: one chunk of
    ``_BLOCK`` paths, or ``_BLOCK`` chunks of one.  A block of one path
    and at most one chunk, as each of a scan's streams at a small cutoff,
    is one mixing call of one row and one decode, without the block's
    bookkeeping, which would cost a short stream a fifth more.  Every
    ``signs`` is a view into one buffer that the next entry overwrites, so
    the stream holds the words of one call and one chunk of signs, however
    long it is.
    """
    first_word, lead = divmod(paths[0].seq.start_index, 64)
    if len(paths) == 1 and count <= _CHUNK:
        if count:
            words = (lead + count + 63) // 64
            z, tmp = np.empty((2, words), "<u8")
            buf = np.empty(64 * words)
            _decode(_mix_words([(paths[0]._key + first_word * _GAMMA) & _MASK], z, tmp), buf)
            yield 0, 0, buf[lead:lead + count]
        return
    per = max(1, _BLOCK // len(paths))
    rows = min(per, -(-count // _CHUNK)) * len(paths)
    width = (lead + min(count, _CHUNK) + 63) // 64
    z = np.empty(rows * width, "<u8")
    # the signs of one chunk, 64 per word; between two entries no one
    # reads them, so the mixer takes its shifted words (rows * width) here
    buf = np.empty(max(64, rows) * width)
    for lo in range(0, count, per * _CHUNK):
        offsets = range(lo, min(lo + per * _CHUNK, count), _CHUNK)
        bases = [(p._key + (first_word + off // 64) * _GAMMA) & _MASK
                 for off in offsets for p in paths]
        shape = (len(bases), (lead + min(_CHUNK, count - lo) + 63) // 64)
        size = shape[0] * shape[1]
        data = iter(_mix_words(bases, z[:size].reshape(shape),
                               buf[:size].view("<u8").reshape(shape)))
        for offset in offsets:
            m = min(_CHUNK, count - offset)
            for i in range(len(paths)):
                _decode(next(data)[:8 * ((lead + m + 63) // 64)], buf)
                yield offset, i, buf[lead:lead + m]


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

    def sign_at(self, index: int) -> int:
        if index < self.seq.start_index:
            raise ValidationError(f"index {index} precedes start_index")
        # bit index % 64 of word index // 64, in Python ints (numpy's too)
        k, bit = divmod(operator.index(index), 64)
        return 1 if _mix64(self._key + k * _GAMMA) >> bit & 1 else -1

    def signs_up_to(self, cutoff: float) -> np.ndarray:
        """Signs (float64 in {-1.0, +1.0}) of all served elements <= cutoff,
        in element order."""
        return self._signs(self.seq._count_up_to(cutoff))

    def _signs(self, count: int) -> np.ndarray:
        """The vector of the path's first ``count`` served signs, filled
        from one ``_sign_stream([self], count)`` pass: a caller that knows
        its count (a scan's certificate, a study's weights) reads its signs
        as one array, with the bits the stream gives."""
        signs = np.empty(count)
        for offset, _, chunk in _sign_stream([self], count):
            signs[offset:offset + chunk.size] = chunk
        return signs
