"""Deterministic exact and compensated summation.

Large runs accumulate up to 10**8 terms; naive left-to-right float64
accumulation loses several digits there.  ``exact_sum`` is the exact
summation: the correctly rounded sum of an array, equal bit for bit to
``math.fsum`` of its elements as a Python list, but computed with numpy
passes instead of a list.  It works in ``_CHUNK``-term blocks that stay in
cache: ``_BlockSum`` turns each block into an exact (int, shift) pair with
35-bit digit planes (more for a shorter block), adds the pairs as Python
ints and rounds the total once.  ``exact_sum`` adds slices of its input
to one ``_BlockSum`` and ``limits.char_function`` the log-cosine blocks it
computes.
``compensated_sum`` reduces long arrays chunk-by-chunk with numpy's
pairwise summation, sums short inputs and the remainder chunk exactly,
and combines the chunk totals with ``math.fsum``; ``_sum_of_squares`` does
the same for the squares of an array, one chunk of squares at a time.
They serve the power sums; a path's signed sums are
``evaluation._signed_sums``' dots.  Everything below is independent of
thread count and of BLAS builds.
"""

from __future__ import annotations

import math

import numpy as np

# Chunk size for pairwise partial sums; small enough that fsum over the
# chunk totals stays cheap even for 10**8-element inputs.
_CHUNK = 1 << 16


def exact_sum(values) -> float:
    """The correctly rounded sum of a float64 array, equal bit for bit to
    ``math.fsum`` over ``values.tolist()``.

    The input is summed in ``_CHUNK``-term blocks by ``_BlockSum``, which
    keeps each block in cache and adds it exactly: a full block gets 35
    bits per digit plane, an input of at most ``_CHUNK`` terms is one block.
    One int true division rounds the exact total (half-even).  A block with
    a non-finite value or one too large to scale exactly, and an exact zero
    total, whose sign only ``math.fsum`` knows, send the whole input to
    ``math.fsum`` itself, so its results and exceptions carry over.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    acc = _BlockSum(min(arr.size, _CHUNK))
    if all(acc.add(arr[lo:lo + _CHUNK]) for lo in range(0, arr.size, _CHUNK)):
        # a nonzero exact total never rounds to zero
        total = acc.value()
        if total:
            return total
    # empty, non-finite, too large to scale exactly, or exactly zero
    return math.fsum(arr.tolist())


class _BlockSum:
    """The exact running sum of float64 blocks of at most ``_CHUNK`` terms.

    ``add`` turns a block of m terms into an exact pair: with
    B = 52 - m.bit_length() bits per digit plane (35 for a full block),
    the block is scaled by its own power of two so that every |y| < 2**B,
    which is exact.  Each plane takes the integer parts q = trunc(y), whose
    sum is exact in any order because every partial sum is an integer below
    m * 2**B <= 2**52; the fractions are shifted up B bits for the next
    plane until none is left.  The plane sums give the block's sum as
    total / 2**shift with Python ints, and the pairs of all blocks are
    aligned to the largest shift and added.  ``value`` rounds once.  The
    plane loop runs in two reused ``_CHUNK``-float buffers that stay in
    cache.
    """

    def __init__(self, size: int):
        self._y = np.empty(size)
        self._q = np.empty(size)
        self.total = 0
        self.shift = 0

    def add(self, block: np.ndarray) -> bool:
        """Add a non-empty block exactly; False, adding nothing, when it
        holds a non-finite value or one with |x| >= 2**B."""
        m = block.size
        bits = 52 - m.bit_length()
        plane = 2.0 ** bits
        top = max(float(block.max()), -float(block.min()))
        if not top < plane:
            return False
        if top == 0.0:
            return True
        shift = bits - math.frexp(top)[1]
        y = np.ldexp(block, shift, out=self._y[:m])
        q = self._q[:m]
        total = 0
        while True:
            np.trunc(y, out=q)
            total += int(q.sum())
            y -= q
            if not y.any():
                break
            y *= plane
            total <<= bits
            shift += bits
        if shift > self.shift:
            self.total <<= shift - self.shift
            self.shift = shift
        self.total += total << (self.shift - shift)
        return True

    def value(self) -> float:
        """The running sum, correctly rounded (half-even)."""
        return self.total / (1 << self.shift)


def compensated_sum(values) -> float:
    """Sum a 1-d array of floats with compensated accumulation.

    Deterministic for a fixed input array regardless of worker/thread
    count.  Up to ``_CHUNK`` (2**16) terms this is ``exact_sum``, the
    correctly rounded exact sum (equal to ``math.fsum``).  Above that,
    each 2**16-term chunk is reduced by numpy's pairwise summation and only
    the chunk totals (plus the remainder, summed by ``exact_sum``) are
    combined by ``math.fsum``.  The error is then bounded by the rounding
    errors of the pairwise chunk sums, not by a few ulps of the exact
    total: numpy sums runs of up to 128 terms in 8 interleaved accumulators
    and halves pairwise above that, so each chunk contributes about
    (16 + 9) * u * sum(|x|) over the chunk at most, with u the unit
    roundoff.  ``_sum_of_squares`` takes the same ``_chunk_partial`` of
    each chunk of squares, so its sums are bit-identical to this
    function's on the same terms.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return math.fsum(_chunk_partial(arr[lo:lo + _CHUNK], arr.size)
                     for lo in range(0, arr.size, _CHUNK))


def _sum_of_squares(values) -> float:
    """``compensated_sum(values * values)``, bit for bit, without the
    array of squares: each ``_CHUNK`` is squared into one reused buffer
    and reduced by ``_chunk_partial``."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    buf = np.empty(min(arr.size, _CHUNK))
    chunks = (arr[lo:lo + _CHUNK] for lo in range(0, arr.size, _CHUNK))
    return math.fsum(_chunk_partial(np.multiply(c, c, out=buf[:c.size]), arr.size)
                     for c in chunks)


def _chunk_partial(chunk: np.ndarray, total: int) -> float:
    """The partial that ``compensated_sum`` takes of one ``_CHUNK``-aligned
    chunk of a ``total``-term sum: numpy's pairwise sum of a full chunk of
    a sum longer than ``_CHUNK``, else ``exact_sum`` of the chunk."""
    if chunk.size == _CHUNK and total > _CHUNK:
        return float(chunk.sum())
    return exact_sum(chunk)
