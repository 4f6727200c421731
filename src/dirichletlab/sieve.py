"""Segmented sieve of Eratosthenes with a process-wide cached prime table.

The cache only ever grows; repeated queries at increasing cutoffs reuse
previously sieved segments.  The table is one ``uint32`` buffer filled in
place, so a limit of 2**32 or more is refused (``ResourceBudgetError``)
before sieving; the term budget never asks for a prime above ~1.2*10**9.
A growth past the buffer's room copies the table once into a buffer with
room for the primes up to twice the limit, by the Rosser-Schoenfeld bound;
pages past the filled prefix are never written and take no memory.

Segments hold odd numbers only, start as a tile of the wheel of the odd
primes up to 13, and have the base primes from 17 crossed off; the base
primes come from the cache, grown first to the square root of the limit.
Cutoffs up to ~2*10**8 are the intended desk-scale regime: a cold sieve
to 2*10**8 takes 0.36-0.48 s and grows the peak RSS by 45-46 MB (one
pinned x86-64 vCPU of a shared host, numpy 2.4).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ResourceBudgetError

_SEGMENT = 1 << 21  # odd numbers per segment
_BLOCK = 1 << 16  # segment entries read into the table at once
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_PERIOD = 15015  # odd numbers per turn of the wheel, 3*5*7*11*13

_lock = threading.Lock()
_primes = np.empty(0, dtype=np.uint32)  # the filled prefix of the table
_sieved_to = 1  # primes below or equal to this bound are cached


def _wheel() -> np.ndarray:
    """wheel[j]: the odd number 2j + 1 has no odd prime factor up to 13."""
    wheel = np.ones(_PERIOD, dtype=bool)
    for q in _WHEEL_PRIMES[1:]:
        wheel[q // 2 :: q] = False  # q(2i + 1) = 2(q // 2 + qi) + 1
    return wheel


_WHEEL = _wheel()


def _pi_upper(x: int) -> int:
    """An upper bound on pi(x) for x >= 2: pi(x) < 1.25506 x / log x for
    x > 1 (Rosser-Schoenfeld 1962)."""
    return int(1.25506 * x / math.log(x)) + 1


def _tile_wheel(seg: np.ndarray, first: int) -> None:
    """Fill ``seg`` with the wheel from the odd number ``first`` on."""
    turn = np.roll(_WHEEL, -(first // 2 % _PERIOD))
    whole = seg.size - seg.size % _PERIOD
    seg[:whole].reshape(-1, _PERIOD)[:] = turn
    seg[whole:] = turn[: seg.size - whole]


def _extend(limit: int) -> None:
    global _primes, _sieved_to
    if limit <= _sieved_to:
        return
    if limit >= 1 << 32:
        raise ResourceBudgetError(
            f"cannot sieve to {limit}: the prime table holds uint32 values "
            "below 2**32")
    root = math.isqrt(limit)
    _extend(root)  # the base primes are read from the cache
    base = _primes[len(_WHEEL_PRIMES) : int(np.searchsorted(
        _primes, np.uint32(root), side="right"))].astype(np.int64)

    count = _primes.size
    table = _primes.base
    if table is None or table.size < _pi_upper(limit):
        table = np.empty(_pi_upper(2 * limit), dtype=np.uint32)
        table[:count] = _primes
        _primes = table[:count]
    small = [q for q in _WHEEL_PRIMES if _sieved_to < q <= limit]
    table[count : count + len(small)] = small
    count += len(small)

    seg = np.empty(_SEGMENT, dtype=bool)
    lo = max(_sieved_to + 1, 17) | 1  # the first odd number of a segment
    while lo <= limit:
        s = seg[: min(_SEGMENT, (limit - lo) // 2 + 1)]
        _tile_wheel(s, lo)
        hi = lo + 2 * (s.size - 1)
        ps = base[: int(np.searchsorted(base, math.isqrt(hi), side="right"))]
        # the first odd multiple of p at or past max(p*p, lo)
        start = np.maximum(ps * ps, -(-lo // ps) * ps)
        start += ps * (start % 2 == 0)
        for p, i in zip(ps.tolist(), ((start - lo) // 2).tolist()):
            s[i::p] = False
        # the primes go into the table a block at a time, so that their
        # int64 indices take a small temporary
        for a in range(0, s.size, _BLOCK):
            found = np.flatnonzero(s[a : a + _BLOCK])
            found <<= 1
            found += lo + 2 * a
            table[count : count + found.size] = found
            count += found.size
        lo = hi + 2
    _primes = table[:count]
    _sieved_to = limit


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as a uint32 array (a view into the cache); a
    limit of 2**32 or more raises ``ResourceBudgetError``."""
    limit = int(limit)
    with _lock:
        _extend(limit)
        # a uint32 key, so the table is not cast to int64 to search it
        idx = int(np.searchsorted(_primes, np.uint32(max(limit, 0)), side="right"))
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
