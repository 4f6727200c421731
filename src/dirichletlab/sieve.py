"""Segmented sieve of Eratosthenes with a process-wide cached prime table.

The cache only ever grows; repeated queries at increasing cutoffs reuse
previously sieved segments.  Cutoffs up to ~2*10**8 are the intended
desk-scale regime (a few seconds, ~100 MB for the prime table).
"""

from __future__ import annotations

import math
import threading

import numpy as np

_SEGMENT = 1 << 22

_lock = threading.Lock()
_primes = np.empty(0, dtype=np.int64)
_sieved_to = 1  # primes below or equal to this bound are cached


def _simple_sieve(limit: int) -> np.ndarray:
    """Plain sieve for small limits (used for base primes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_comp = np.zeros(limit + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, int(math.isqrt(limit)) + 1):
        if not is_comp[p]:
            is_comp[p * p :: p] = True
    return np.flatnonzero(~is_comp).astype(np.int64)


def _extend(limit: int) -> None:
    global _primes, _sieved_to
    if limit <= _sieved_to:
        return
    base = _simple_sieve(int(math.isqrt(limit)) + 1)
    chunks = [_primes]
    lo = _sieved_to + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT - 1, limit)
        seg = np.ones(hi - lo + 1, dtype=bool)
        if lo <= 1:
            seg[: max(0, 2 - lo)] = False
        for p in base:
            p = int(p)
            if p * p > hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            seg[start - lo :: p] = False
        chunks.append((np.flatnonzero(seg) + lo).astype(np.int64))
        lo = hi + 1
    _primes = np.concatenate(chunks)
    _sieved_to = limit


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (a view into the cache)."""
    limit = int(limit)
    with _lock:
        _extend(limit)
        idx = int(np.searchsorted(_primes, limit, side="right"))
        return _primes[:idx]


def prime_count(x: float) -> int:
    """Number of primes <= x."""
    if x < 2:
        return 0
    return int(primes_up_to(int(math.floor(x))).size)


def primes_slice(first_index: int, count: int) -> np.ndarray:
    """``count`` consecutive primes starting at 1-based ``first_index``.

    The cache is extended only while it holds fewer primes than needed."""
    last = first_index + count - 1
    # Rosser-Schoenfeld upper bound on the m-th prime, valid for m >= 6.
    m = max(last, 6)
    bound = int(m * (math.log(m) + math.log(math.log(m)))) + 10
    with _lock:
        while _primes.size < last:
            _extend(bound)
            bound *= 2
        return _primes[first_index - 1 : last]
