"""Deterministic summation: exact sums and BLAS-safe row dots.

Large runs accumulate up to 10**8 terms; naive left-to-right float64
accumulation loses several digits there.  There are two rules, and
neither depends on the thread count or the BLAS build.

Every plain sum, the power sums and tail heads among them, is
``exact_sum``: the correctly rounded sum of an array, equal bit for bit
to ``math.fsum`` of its elements as a Python list, but computed with
numpy passes instead of a list.  It works in ``_CHUNK``-term blocks that
stay in cache: ``_BlockSum`` turns each block into an exact (int, shift)
pair with 35-bit digit planes (more for a shorter block), adds the pairs
as Python ints and rounds the total once.  ``exact_sum`` adds slices of
its input to one ``_BlockSum`` and ``limits.char_function`` the
log-cosine blocks it computes.

Every sum of products is the ``math.fsum`` of BLAS ddots over rows of at
most ``_ROW`` terms, too short for BLAS to split across threads: those of
``_row_dots``, which ``_sum_of_squares`` (the normal-limit variance) and
``evaluation._signed_sums`` (a path's signed sums) take, and, for the
rows of a stack that end within a chunk, ``np.dot`` mapped over the stack.
"""

from __future__ import annotations

import math

import numpy as np

# The block of ``exact_sum``, and the chunk that the streamed passes over
# signs, powers and signed sums work in: 2**16 floats stay in cache.
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


# The longest row one BLAS dot sums: OpenBLAS splits a dot of more than
# 10,000 terms across its threads, each summing its own part, so a longer
# row's value would depend on the thread count.
_ROW = _CHUNK // 8


def _row_dots(x: np.ndarray, y: np.ndarray) -> list[float]:
    """The dots of the equal-length arrays ``x`` and ``y`` over ``_ROW``-term
    rows: one stacked ``np.matmul`` over the full rows and one ``np.dot`` for
    the rest, each row too short for BLAS to split, so no dot depends on the
    thread count.

    The stacked rule of ``evaluation._signed_sums`` keeps these bits: the
    rows of a stack that end within a chunk are dotted by ``np.dot`` mapped
    over the stack, the same ddot each row gets here, where a gemv over the
    stacked rows would sum in its own order."""
    k = x.size - x.size % _ROW
    dots = np.matmul(x[:k].reshape(-1, 1, _ROW), y[:k].reshape(-1, _ROW, 1)).ravel().tolist()
    if k < x.size:
        dots.append(np.dot(x[k:], y[k:]))
    return dots


def _sum_of_squares(values) -> float:
    """sum(values**2) as ``math.fsum`` of ``_row_dots(values, values)``,
    without an array of squares.  A row's dot of m <= L = ``_ROW`` terms
    is within gamma_m of its exact sum of squares, in any order (Higham,
    *Accuracy and Stability of Numerical Algorithms*, sec. 3.1), and the
    ``fsum`` rounds once more, so the value is within gamma_{L+1} of the
    exact sum, with gamma_k = ku / (1 - ku) and u = 2**-53."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return math.fsum(_row_dots(arr, arr))
