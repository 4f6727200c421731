import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirichletlab import Primes
from dirichletlab.summation import _CHUNK, _ROW, _sum_of_squares, exact_sum


def test_matches_fsum_small():
    vals = [0.1, 0.2, -0.3, 1e16, -1e16, 1.0]
    assert exact_sum(np.array(vals)) == math.fsum(vals)


def test_large_array_deterministic_and_accurate():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300_000)
    s1 = exact_sum(x)
    s2 = exact_sum(x)
    assert s1 == s2
    assert s1.hex() == math.fsum(x.tolist()).hex()


def test_cancellation_heavy():
    # pairs that cancel exactly plus a tiny residue: naive cumulative
    # summation loses the residue, the exact sum must not
    big = np.full(10_000, 1e12)
    arr = np.concatenate([big, -big, np.full(10, 1e-6)])
    assert abs(exact_sum(arr) - 1e-5) < 1e-18


@given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=200))
@settings(max_examples=100, deadline=None)
def test_property_matches_fsum(vals):
    assert exact_sum(np.array(vals, dtype=float)) == math.fsum(vals)


# --- exact_sum: equal to math.fsum(x.tolist()) by float.hex, or raising
# the same exception.  Lengths 2**k - 1 put the plane sums closest to
# 2**53, where one bit too many per plane would round.

_LENGTHS = (0, 1, 2, 511, 512, 1023, 4095, (1 << 16) - 1, 1 << 16, (1 << 16) + 1)


def assert_matches_fsum(x):
    try:
        want = math.fsum(x.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            exact_sum(x)
        return
    assert exact_sum(x).hex() == want.hex()


@given(
    n=st.sampled_from(_LENGTHS),
    lo=st.integers(-1080, 60),
    width=st.sampled_from([0, 1, 3, 10, 30, 100, 300, 1140]),
    signs=st.sampled_from(["mixed", "positive", "negative"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_property_exact_sum_matches_fsum(n, lo, width, signs, seed):
    # magnitudes 2**e * [1, 2) with e uniform in [lo, lo + width], clipped
    # to [2**-1074, 2**60]: subnormals (5e-324 included) up to 2**60.
    # Narrow ranges need few digit planes, so each plane shows in the sum.
    rng = np.random.default_rng(seed)
    hi = min(lo + width, 59)
    e = rng.integers(min(lo, hi), hi + 1, n)
    x = np.ldexp(rng.uniform(1.0, 2.0, n), e)
    x[x == 0.0] = 5e-324
    x[rng.random(n) < 0.01] = 5e-324
    if signs == "mixed":
        x *= rng.choice([-1.0, 1.0], n)
    elif signs == "negative":
        x = -x
    assert_matches_fsum(x)


@given(
    n=st.sampled_from(_LENGTHS[1:]),
    zeros=st.sampled_from(["+0", "-0", "mixed"]),
    residue=st.sampled_from([0.0, 5e-324, -1e-300, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_property_exact_sum_zeros_and_cancellation(n, zeros, residue, seed):
    rng = np.random.default_rng(seed)
    z = {"+0": np.zeros(n), "-0": np.full(n, -0.0),
         "mixed": rng.choice([0.0, -0.0], n)}[zeros]
    assert_matches_fsum(z)
    # x with -x, shuffled, sums to exactly zero; plus one residue
    half = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-200, 50, n))
    x = np.concatenate([half, -half, [residue]])
    rng.shuffle(x)
    assert_matches_fsum(x)


@given(
    n=st.sampled_from(_LENGTHS[1:]),
    bad=st.sampled_from([
        [math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
        [math.inf, math.nan], [1e308, 1e308, -1e308], [-1e308, -1e308],
        [2.0 ** 60], [1.7e308],
    ]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_property_exact_sum_non_finite_and_overflow(n, bad, seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.standard_normal(n), bad])
    rng.shuffle(x)
    assert_matches_fsum(x)
    assert_matches_fsum(np.array(bad))


def test_exact_sum_full_planes():
    # every term within a factor 4/3 of the largest: each plane's integer
    # sum nears n * 2**B <= 2**52, the most the kernel allows; with two
    # bits more per plane, the plane sums pass 2**53 and round
    rng = np.random.default_rng(5)
    for n in (1, 3, 511, 1023, 4095, (1 << 16) - 1):
        for _ in range(16):
            x = rng.uniform(1.5, 2.0, n)
            assert_matches_fsum(x)
            assert_matches_fsum(-x)


def test_exact_sum_log_cosines():
    # the characteristic function's sum: 664,579 log-cosines, primes to 1e7
    w = Primes().elements_up_to(1e7) ** -0.55
    x = np.log(np.abs(np.cos(0.9 * w / math.sqrt(_sum_of_squares(w)))))
    assert x.size == 664_579
    assert_matches_fsum(x)


# --- exact_sum over several _CHUNK-term blocks: each block takes its own
# scale and plane count, so the blocks' exact totals must be aligned to one
# shift before the one rounding.

_BLOCK_LENGTHS = tuple(k * _CHUNK + d for k in (1, 2, 3) for d in (-1, 0, 1))


def _blocks_of(n, exponents, rng, signs="mixed"):
    """n terms 2**e * [1, 2), e the block's entry of ``exponents`` plus a
    spread of up to 8, with random signs when ``signs`` is mixed."""
    e = np.repeat(exponents, _CHUNK)[:n] + rng.integers(0, 9, n)
    x = np.ldexp(rng.uniform(1.0, 2.0, n), np.clip(e, -1074, 1023))
    if signs == "mixed":
        x *= rng.choice([-1.0, 1.0], n)
    return x


@given(
    n=st.sampled_from(_BLOCK_LENGTHS),
    exponents=st.lists(st.sampled_from([-1074, -1000, -120, -60, 0, 25]),
                       min_size=4, max_size=4),
    signs=st.sampled_from(["mixed", "positive"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3 * _CHUNK + 1, exponents=[0, -60, -120, -60], signs="mixed", seed=0)
@example(n=2 * _CHUNK, exponents=[-60, 0, 0, 0], signs="positive", seed=1)
@settings(max_examples=60, deadline=None)
def test_property_exact_sum_across_blocks(n, exponents, signs, seed):
    rng = np.random.default_rng(seed)
    assert_matches_fsum(_blocks_of(n, exponents, rng, signs))


@pytest.mark.parametrize("n", [_CHUNK + 1, 2 * _CHUNK, 3 * _CHUNK - 1])
def test_exact_sum_blocks_with_different_shifts(n):
    # block magnitudes 1, 2**-60, 2**60 (down to the first bits past a
    # lower block's plane), so every block scales by its own power of two
    rng = np.random.default_rng(n)
    for exponents in ([0, -60, 0, -60], [-60, 0, 0, 0], [0, 0, -60, 0],
                      [-1000, -1060, -940, -1000], [-30, 30, -30, 30]):
        x = _blocks_of(n, exponents, rng)
        assert_matches_fsum(x)
        assert_matches_fsum(-np.abs(x))


def test_exact_sum_zero_blocks_and_signed_zeros():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(3 * _CHUNK + 5)
    x[_CHUNK:2 * _CHUNK] = 0.0  # an all-zero block between nonzero ones
    assert_matches_fsum(x)
    x[_CHUNK:2 * _CHUNK] = -0.0
    assert_matches_fsum(x)
    for n in _BLOCK_LENGTHS:
        assert_matches_fsum(np.full(n, -0.0))
        assert_matches_fsum(np.zeros(n))


@pytest.mark.parametrize("n", _BLOCK_LENGTHS)
def test_exact_sum_cancels_across_blocks_to_zero(n):
    # each term's negation sits in another block; the total is exactly 0.0
    rng = np.random.default_rng(n)
    half = np.ldexp(rng.uniform(1.0, 2.0, n // 2), rng.integers(-200, 30, n // 2))
    x = np.concatenate([half, -half[::-1], [0.0] * (n % 2)])
    assert exact_sum(x).hex() == math.fsum(x.tolist()).hex() == "0x0.0p+0"
    assert_matches_fsum(np.append(x, 5e-324))


@pytest.mark.parametrize("n", _BLOCK_LENGTHS)
@pytest.mark.parametrize("bad", [-math.inf, math.nan, 2.0 ** 35, 1e308])
def test_exact_sum_bad_value_in_last_block_only(n, bad):
    x = np.random.default_rng(n).standard_normal(n)
    x[-1] = bad
    assert_matches_fsum(x)
    x[-1] = 0.5
    x[(n - 1) // _CHUNK * _CHUNK] = bad  # the last block's first term
    assert_matches_fsum(x)


def test_exact_sum_intermediate_overflow_across_blocks():
    for n in (_CHUNK + 1, 2 * _CHUNK, 3 * _CHUNK - 1):
        for bad in ([1e308, 1e308], [-1e308, -1e308], [1e308, 1e308, -1e308],
                    [1.7e308, -1.7e308], [math.inf, -math.inf]):
            x = np.zeros(n)
            x[np.linspace(0, n - 1, len(bad)).astype(int)] = bad
            assert_matches_fsum(x)


def test_exact_sum_scales_full_blocks_at_35_bits(monkeypatch):
    # a full block holds values up to just below 2**35 without math.fsum;
    # 2**35 itself, in any full block, sends the whole input there
    rng = np.random.default_rng(3)
    x = rng.uniform(2.0 ** 34, 2.0 ** 35, 3 * _CHUNK + 1)
    x *= rng.choice([-1.0, 1.0], x.size)
    want = math.fsum(x.tolist())
    fsum = math.fsum
    calls = []

    def counting(terms):
        calls.append(1)
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", counting)
    assert exact_sum(x).hex() == want.hex()
    assert calls == []
    x[_CHUNK + 7] = 2.0 ** 35
    assert exact_sum(x).hex() == fsum(x.tolist()).hex()
    assert calls == [1]


def _exact_squares(w):
    """Arrays whose terms sum exactly to sum(w**2): each w = hi + lo with
    26-bit halves (Veltkamp), whose products hi*hi, 2*hi*lo and lo*lo are
    exact floats for these magnitudes."""
    c = w * (2.0 ** 27 + 1)
    hi = c - (c - w)
    lo = w - hi
    return np.concatenate([hi * hi, 2.0 * hi * lo, lo * lo])


@pytest.mark.parametrize("n", [0, 1, 7, _ROW - 1, _ROW, _ROW + 1, _CHUNK, _CHUNK + 1,
                               3 * _CHUNK + 5])
def test_sum_of_squares_is_fsum_of_row_dots(n):
    # the fsum of one np.dot per _ROW-term row, and within gamma_{_ROW+1}
    # of the exact sum of squares (see _sum_of_squares); r, the exact sum
    # rounded once, is within u of it
    rng = np.random.default_rng(n)
    w = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    want = math.fsum(float(np.dot(w[lo:lo + _ROW], w[lo:lo + _ROW]))
                     for lo in range(0, n, _ROW))
    got = _sum_of_squares(w)
    assert got.hex() == want.hex()
    r = Fraction(math.fsum(_exact_squares(w).tolist()))
    u = Fraction(1, 2 ** 53)
    gamma = (_ROW + 1) * u / (1 - (_ROW + 1) * u)
    assert abs(Fraction(got) - r) <= (gamma + u) * r / (1 - u)
