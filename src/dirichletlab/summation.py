"""Deterministic exact and compensated summation.

Large runs accumulate up to 10**8 terms; naive left-to-right float64
accumulation loses several digits there.  ``exact_sum`` is the exact
summation: the correctly rounded sum of an array, equal bit for bit to
``math.fsum`` of its elements as a Python list, but computed with numpy
passes instead of a list.  ``compensated_sum`` reduces long arrays
chunk-by-chunk with numpy's pairwise summation, sums short inputs and the
remainder chunk exactly, and combines the chunk totals with ``math.fsum``.
Everything below is independent of thread count and of BLAS builds.
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

    With n terms and B = 52 - n.bit_length() bits per digit plane, the
    input is scaled by a power of two so that every |y| < 2**B, which is
    exact.  Each plane takes the integer parts q = trunc(y), whose sum is
    exact in any order because every partial sum is an integer below
    n * 2**B <= 2**52; the fractions are shifted up B bits for the next
    plane until none is left.  The plane sums, accumulated in a Python
    int, hold the exact total, which one int true division rounds
    correctly (half-even).  Non-finite or all-zero input, and
    max|x| >= 2**B, where scaling could round, go to ``math.fsum`` itself,
    so its results and exceptions carry over.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    n = arr.size
    bits = 52 - n.bit_length()
    plane = 2.0 ** bits
    top = max(float(arr.max()), -float(arr.min())) if n else 0.0
    if not 0.0 < top < plane:
        # empty, non-finite, all zero, or too large to scale exactly
        terms = arr.tolist()
        return math.fsum(terms)
    shift = bits - math.frexp(top)[1]
    y = np.ldexp(arr, shift)
    q = np.empty_like(y)
    total = 0
    while True:
        np.trunc(y, out=q)
        total += int(q.sum())
        y -= q
        if not y.any():
            return total / (1 << shift)
        y *= plane
        total <<= bits
        shift += bits


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
    roundoff.

    ``evaluation._signed_sums`` takes the same ``_chunk_partial`` of each
    chunk of products it never materializes in full, so its sums are
    bit-identical to this function's on the same terms.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return math.fsum(_chunk_partial(arr[lo:lo + _CHUNK], arr.size)
                     for lo in range(0, arr.size, _CHUNK))


def _chunk_partial(chunk: np.ndarray, total: int) -> float:
    """The partial that ``compensated_sum`` takes of one ``_CHUNK``-aligned
    chunk of a ``total``-term sum: numpy's pairwise sum of a full chunk of
    a sum longer than ``_CHUNK``, else ``exact_sum`` of the chunk."""
    if chunk.size == _CHUNK and total > _CHUNK:
        return float(chunk.sum())
    return exact_sum(chunk)
