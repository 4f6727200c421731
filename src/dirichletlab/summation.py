"""Deterministic compensated summation helpers.

Large runs accumulate up to 10**8 terms; naive left-to-right float64
accumulation loses several digits there.  Everything below is independent
of thread count and of BLAS builds: arrays are reduced chunk-by-chunk with
numpy's pairwise summation and the chunk totals are combined with
``math.fsum``.
"""

from __future__ import annotations

import math

import numpy as np

# Chunk size for pairwise partial sums; small enough that fsum over the
# chunk totals stays cheap even for 10**8-element inputs.
_CHUNK = 1 << 16


def compensated_sum(values) -> float:
    """Sum a 1-d array of floats with compensated accumulation.

    Deterministic for a fixed input array regardless of worker/thread
    count.  Up to ``_CHUNK`` (2**16) terms this is ``math.fsum``, the
    correctly rounded exact sum.  Above that, each 2**16-term chunk is
    reduced by numpy's pairwise summation and only the chunk totals (plus
    the exactly summed remainder) are combined by ``math.fsum``.  The error
    is then bounded by the rounding errors of the pairwise chunk sums, not
    by a few ulps of the exact total: numpy sums runs of up to 128 terms in
    8 interleaved accumulators and halves pairwise above that, so each
    chunk contributes about (16 + 9) * u * sum(|x|) over the chunk at most,
    with u the unit roundoff.

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
    a sum longer than ``_CHUNK``, else ``math.fsum`` of the chunk."""
    if chunk.size == _CHUNK and total > _CHUNK:
        return float(chunk.sum())
    return math.fsum(chunk.tolist())
