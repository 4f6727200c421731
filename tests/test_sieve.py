import math
import tracemalloc

import numpy as np
import pytest

from dirichletlab import ResourceBudgetError, sieve

from conftest import trial_division_primes


def plain_sieve(limit: int) -> np.ndarray:
    """Primes <= limit by an Eratosthenes sieve over every integer."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


@pytest.fixture
def cold(monkeypatch):
    """An empty prime cache for one test; the shared one comes back after."""
    monkeypatch.setattr(sieve, "_primes", np.empty(0, dtype=np.uint32))
    monkeypatch.setattr(sieve, "_sieved_to", 1)


def test_primes_up_to_matches_trial_division(small_primes):
    got = sieve.primes_up_to(10_000)
    assert got.tolist() == small_primes


def test_cache_grows_consistently(small_primes):
    a = sieve.primes_up_to(100).tolist()
    b = sieve.primes_up_to(10_000).tolist()
    assert b[: len(a)] == a
    assert b == small_primes


def test_prime_count(small_primes):
    assert sieve.prime_count(1) == 0
    assert sieve.prime_count(2) == 1
    assert sieve.prime_count(9999.5) == len(
        [p for p in small_primes if p <= 9999]
    )


def test_nth_prime(small_primes):
    for n in (1, 2, 5, 6, 25, 168, 1229):
        assert sieve.primes_slice(n, 1).tolist() == [small_primes[n - 1]]


def test_primes_slice(small_primes):
    got = sieve.primes_slice(10, 7).tolist()
    assert got == small_primes[9:16]


def test_cold_cache_serves_small_indices_and_reuses_the_cache(
    monkeypatch, small_primes
):
    monkeypatch.setattr(sieve, "_primes", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(sieve, "_sieved_to", 1)
    assert sieve.primes_slice(1, 3).tolist() == [2, 3, 5]
    sieve.primes_up_to(10_000)
    extent = sieve._sieved_to
    # the last prime <= 10**4
    assert sieve.primes_slice(1229, 1).tolist() == [small_primes[1228]]
    assert sieve._sieved_to == extent


def test_every_small_limit_matches_trial_division(cold):
    # the wheel primes 2-13 and the first crossed-off prime 17 included
    for limit in range(1, 201):
        sieve._primes = np.empty(0, dtype=np.uint32)
        sieve._sieved_to = 1
        assert sieve.primes_up_to(limit).tolist() == trial_division_primes(limit)


def test_limits_at_the_wheel_period(cold):
    # 30030 = 2 * 15015 odd numbers, one turn of the 3*5*7*11*13 wheel
    for limit in (30029, 30030, 30031):
        sieve._primes = np.empty(0, dtype=np.uint32)
        sieve._sieved_to = 1
        assert np.array_equal(sieve.primes_up_to(limit), plain_sieve(limit))


def test_limits_at_segment_edges(cold):
    # a cache past 10**4 holds every base prime, so a growth to at most
    # 10**8 sieves segments from the odd number 10001 on; segment k ends at
    # the odd number 10001 + 2k * _SEGMENT - 2
    last = [10_001 + 2 * k * sieve._SEGMENT - 2 for k in (1, 2, 3)]
    oracle = plain_sieve(last[-1] + 2)
    for edge in last:
        for limit in (edge - 1, edge, edge + 1, edge + 2):
            sieve._primes = np.empty(0, dtype=np.uint32)
            sieve._sieved_to = 1
            sieve.primes_up_to(10_000)
            got = sieve.primes_up_to(limit)
            assert np.array_equal(got, oracle[: np.searchsorted(oracle, limit, "right")])


def test_growth_in_steps_equals_one_cold_sieve_and_keeps_served_arrays(cold):
    served = [sieve.primes_up_to(limit)
              for limit in (20, 1_000, 1_001, 30_031, 5_000_000, 5_000_001, 9_000_000)]
    kept = [a.copy() for a in served]
    stepped = sieve.primes_up_to(9_000_000).copy()
    sieve._primes = np.empty(0, dtype=np.uint32)
    sieve._sieved_to = 1
    assert np.array_equal(stepped, sieve.primes_up_to(9_000_000))
    for a, b in zip(served, kept):
        assert np.array_equal(a, b)


def test_limit_past_uint32_is_refused_before_sieving(cold):
    with pytest.raises(ResourceBudgetError):
        sieve.primes_up_to(2**32)
    assert sieve._sieved_to == 1
    assert sieve.primes_up_to(100).tolist() == trial_division_primes(100)


def test_cold_sieve_allocates_one_table_and_one_segment(cold):
    # the one uint32 table, reserved with room for pi(2 * limit) by the
    # Rosser-Schoenfeld bound (pages it never writes take no RSS, but
    # tracemalloc counts them), one bool segment and a megabyte of slack
    limit = 11_000_000
    room = int(1.25506 * 2 * limit / math.log(2 * limit)) + 1
    tracemalloc.start()
    try:
        sieve.primes_up_to(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * room + sieve._SEGMENT + 2**20


def test_warm_prime_count_copies_nothing(cold):
    sieve.primes_up_to(10**7)
    tracemalloc.start()
    try:
        assert sieve.prime_count(1e7) == 664_579
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
