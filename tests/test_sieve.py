import numpy as np

from dirichletlab import sieve


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
