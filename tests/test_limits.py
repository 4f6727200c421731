import math
import tracemalloc

import numpy as np
import pytest

from dirichletlab import (
    Naturals,
    Primes,
    ResourceBudgetError,
    ValidationError,
    char_function,
    clt_sample,
    ks_statistic,
    variance_profile,
)
from dirichletlab import frequencies, limits
from dirichletlab.limits import char_function_gaussian_gap
from dirichletlab.summation import compensated_sum

from conftest import explicit, normal_cdf as oracle_cdf


def test_char_function_matches_cos_product_oracle():
    seq = explicit([2.0, 3.0, 7.0])
    sigma, t = 0.8, 1.7
    w = np.array([2.0, 3.0, 7.0]) ** -sigma
    v = math.sqrt(float(np.sum(w * w)))
    oracle = float(np.prod(np.cos(t * w / v)))
    assert char_function(seq, sigma, t, 10.0) == pytest.approx(oracle, rel=1e-12)


def test_char_function_tracks_negative_sign():
    # one factor, so V is its weight and the argument is t = 2 in
    # (pi/2, pi): the product must go negative
    seq = explicit([2.0])
    val = char_function(seq, 1.0, 2.0, 10.0)
    assert val == pytest.approx(math.cos(2.0), rel=1e-12)
    assert val < 0


def test_char_function_even_in_t():
    seq = Naturals()
    a = char_function(seq, 0.7, 0.9, 1e4)
    b = char_function(seq, 0.7, -0.9, 1e4)
    assert a == pytest.approx(b, rel=1e-12)


def test_gaussian_gap_shrinks_toward_critical_line():
    ts = np.linspace(-1.0, 1.0, 21)
    gaps = [
        char_function_gaussian_gap(Naturals(), s, 1e5, ts)
        for s in (0.75, 0.65, 0.6, 0.55)
    ]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))


def test_clt_sample_deterministic_and_normalized():
    seq = Naturals()
    a = clt_sample(seq, 0.6, 1e5, master_seed=5, trials=400)
    b = clt_sample(seq, 0.6, 1e5, master_seed=5, trials=400)
    assert np.array_equal(a, b)
    assert abs(float(np.mean(a))) < 0.15
    assert 0.7 < float(np.var(a)) < 1.3


def test_clt_sample_holds_one_weight_array():
    # the variance squares one chunk at a time, so the draws hold the
    # 8-byte-per-term weights and a few chunk buffers, not a second
    # full-length array of squares
    primes = Primes()
    n = primes.counting_function(1e7)
    # a first draw builds the sieve and the tail enclosure outside the trace
    clt_sample(primes, 0.6, 1e7, 1, 1)
    tracemalloc.start()
    try:
        clt_sample(primes, 0.6, 1e7, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n <= peak < 8 * n + 6 * 8 * 2 ** 16


def test_clt_sample_warns_when_cutoff_starves_variance():
    with pytest.warns(UserWarning, match="variance enclosure"):
        clt_sample(Naturals(), 0.6, 1e3, master_seed=1, trials=3)


def test_clt_sample_validation():
    with pytest.raises(ValidationError):
        clt_sample(Naturals(), 0.6, 1e4, master_seed=1, trials=0)


def test_ks_statistic_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(257)
    got = ks_statistic(x)
    xs = np.sort(x)
    n = xs.size
    oracle = 0.0
    for i, v in enumerate(xs, start=1):
        c = oracle_cdf(float(v))
        oracle = max(oracle, i / n - c, c - (i - 1) / n)
    assert got == pytest.approx(oracle, abs=1e-15)


def test_ks_statistic_detects_shift():
    rng = np.random.default_rng(4)
    close = ks_statistic(rng.standard_normal(2000))
    far = ks_statistic(rng.standard_normal(2000) + 1.0)
    assert close < 0.05 < far


def test_variance_profile_scale_rule():
    prof = variance_profile(Naturals(), 0.75)
    assert prof.scale == pytest.approx(math.exp(2.0))
    assert prof.head_count == int(math.exp(2.0))
    assert prof.tail_variance_lo <= prof.tail_variance_hi


def test_variance_profile_names_the_patched_budgets_sigma(monkeypatch):
    # the scale exp(1/(2 sigma - 1)) fits a budget of 100 from
    # sigma = 1/2 + 1/(2 ln 100) ~ 0.6086 on; at sigma = 0.6 it is 148
    monkeypatch.setattr(frequencies, "DEFAULT_TERM_BUDGET", 100)
    with pytest.raises(ResourceBudgetError, match="minimal feasible sigma") as info:
        variance_profile(Naturals(), 0.6)
    named = float(str(info.value).rsplit(" ", 1)[-1])
    assert named == pytest.approx(0.5 + 0.5 / math.log(100), abs=1e-6)


def test_variance_profile_dichotomy_direction():
    # divergent reciprocal sum: the head variance grows as sigma drops;
    # primes (thinner) stay an order of magnitude flatter over the ladder
    ladder = (0.75, 0.65, 0.6, 0.57)
    nat = [variance_profile(Naturals(), s).head_variance for s in ladder]
    assert all(x < y for x, y in zip(nat, nat[1:]))
    pri = [variance_profile(Primes(), s).head_variance for s in ladder]
    assert max(pri) - min(pri) < (max(nat) - min(nat)) / 2


def test_variance_profile_tail_brackets_brute_force():
    prof = variance_profile(Naturals(), 0.6)
    s2 = 2 * 0.6
    elems = np.arange(int(prof.scale) + 1, 10_000_001, dtype=np.float64)
    brute = float(np.sum(elems ** (-s2)))
    missing = 1e7 ** (1.0 - s2) / (s2 - 1.0)
    assert brute <= prof.tail_variance_hi
    assert prof.tail_variance_lo <= brute + missing


def test_variance_profile_holds_one_head_length_array():
    # the critical powers are subtracted a chunk at a time and the gaps are
    # freed before the 10**6 second-moment weights, so the call holds about
    # 8 bytes per head term, not a second head-length array
    seq = Naturals()
    variance_profile(seq, 0.535)  # the tail enclosure's caches, outside the trace
    tracemalloc.start()
    try:
        prof = variance_profile(seq, 0.535)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.head_count == 1_600_320
    assert peak <= 10 * prof.head_count


def test_variance_profile_budget_error_names_feasible_sigma():
    with pytest.raises(ResourceBudgetError, match="minimal feasible sigma"):
        variance_profile(Naturals(), 0.51)


def test_variance_profile_validation():
    with pytest.raises(ValidationError):
        variance_profile(Naturals(), 0.5)
    with pytest.raises(ValidationError):
        variance_profile(Naturals(), 1.2)


def test_char_function_golden():
    # captured before the characteristic function took whole grids
    assert char_function(Primes(), 0.6, 0.5, 1e6).hex() == "0x1.c38507337677ep-1"
    gap = char_function_gaussian_gap(Primes(), 0.55, 1e7, np.linspace(-1, 1, 21))
    assert gap.hex() == "0x1.3695b459ac280p-8"


def reference_char_function(seq, sigma, t, cutoff):
    """One t at a time, summed by fsum over a list."""
    w = seq.elements_up_to(cutoff) ** (-float(sigma))
    c = np.cos(float(t) * w / math.sqrt(compensated_sum(w * w)))
    if np.any(c == 0.0):
        return 0.0
    sign = 1.0 if int(np.count_nonzero(c < 0)) % 2 == 0 else -1.0
    return sign * math.exp(math.fsum(np.log(np.abs(c)).tolist()))


# The last column is the unit of the t grid (None: 1).  A unit of 0.25
# stretches the grid fourfold, so that with the computed V ~ 1.28 the
# arguments t * w / V pass pi/2 and many factors go negative.
_CASES = [
    (Primes(), 0.55, 1e6, None),
    (Naturals(), 0.7, 3e4, None),
    (Naturals(), 1.0, 2000.0, 0.25),
    (explicit([2.0, 3.0, 7.0]), 0.8, 10.0, None),
]


@pytest.mark.parametrize("seq, sigma, cutoff, unit", _CASES)
def test_char_function_grid_matches_scalar_calls(seq, sigma, cutoff, unit):
    ts = np.concatenate([np.linspace(-3.0, 3.0, 13), [0.0, -0.0, 1e-300, 40.0]])
    ts /= unit or 1.0
    grid = char_function(seq, sigma, ts, cutoff)
    assert isinstance(grid, list) and len(grid) == ts.size
    scalar = [char_function(seq, sigma, float(t), cutoff) for t in ts]
    oracle = [reference_char_function(seq, sigma, t, cutoff) for t in ts]
    assert [v.hex() for v in grid] == [v.hex() for v in scalar]
    assert [v.hex() for v in grid] == [v.hex() for v in oracle]


def test_non_finite_sigma_and_t_rejected():
    seq = Naturals()
    for call in (
        lambda: clt_sample(seq, math.nan, 1e4, master_seed=1, trials=3),
        lambda: clt_sample(seq, math.inf, 1e4, master_seed=1, trials=3),
        lambda: char_function(seq, math.nan, 0.5, 1e4),
        lambda: char_function(seq, 0.6, math.inf, 1e4),
        lambda: char_function(seq, 0.6, [0.0, math.nan], 1e4),
        lambda: char_function(seq, 0.6, np.zeros((2, 2)), 1e4),
        lambda: char_function_gaussian_gap(seq, 0.6, 1e4, []),
        lambda: char_function_gaussian_gap(seq, 0.6, 1e4, [math.nan]),
    ):
        with pytest.raises(ValidationError):
            call()


# --- phi is even bit for bit: -t * w / V is the negated argument and
# np.cos is bitwise even, so a mirrored t may reuse a computed value.


@pytest.mark.parametrize("seq, sigma, cutoff, unit", _CASES)
def test_char_function_even_bit_for_bit(seq, sigma, cutoff, unit):
    for t in (0.9, 1.0, 2.5, 1e-300, 40.0):
        t /= unit or 1.0
        plus = char_function(seq, sigma, t, cutoff)
        minus = char_function(seq, sigma, -t, cutoff)
        assert minus.hex() == plus.hex()


def test_numpy_cos_is_bitwise_even_on_prime_arguments():
    w = Primes().elements_up_to(1e7) ** -0.55
    x = 1.0 * w / math.sqrt(compensated_sum(w * w))
    assert x.size == 664_579
    assert np.array_equal(np.cos(-x).view(np.int64), np.cos(x).view(np.int64))


def test_symmetric_grid_evaluates_each_magnitude_once(monkeypatch):
    calls = []
    original = limits._char_value

    def counting(tk, *args):
        calls.append(tk)
        return original(tk, *args)

    monkeypatch.setattr(limits, "_char_value", counting)
    ts = np.concatenate([np.linspace(-1.0, 1.0, 21), [0.0, -0.0]])
    char_function(Naturals(), 0.7, ts, 3e4)
    assert sorted(abs(t) for t in calls) == sorted(set(abs(ts).tolist()))


@pytest.mark.parametrize("t", [1e308, -1e308])
def test_char_function_overflowing_argument_matches_reference(t):
    # the weights n**0.5 reach 2 from n = 4 on, so t * w overflows to inf
    # before the division by V, and those factors' cosines are NaN
    seq = Naturals()
    with np.errstate(over="ignore", invalid="ignore"):
        got = char_function(seq, -0.5, t, 2000.0)
        want = reference_char_function(seq, -0.5, t, 2000.0)
        grid = char_function(seq, -0.5, [t, -t, 1.0], 2000.0)
    assert math.isnan(got) and math.isnan(want)
    assert got.hex() == want.hex() == grid[0].hex() == grid[1].hex()
    assert grid[2].hex() == reference_char_function(seq, -0.5, 1.0, 2000.0).hex()


def test_char_function_rejects_non_finite_normalization():
    seq = Naturals()
    # the weights n**200 overflow
    with pytest.raises(ValidationError, match="are not finite"):
        char_function(seq, -200.0, 0.5, 100.0)
    # the weights n**150 are finite, but their square sum overflows
    with pytest.raises(ValidationError, match="must be finite and positive"):
        char_function(seq, -150.0, 0.5, 100.0)
    # the weights 2**-1100 underflow to 0, and so does the variance
    with pytest.raises(ValidationError, match="must be finite and positive"):
        char_function(explicit([2.0]), 1100.0, 0.5, 10.0)


def test_char_function_at_zero_skips_the_pass(monkeypatch):
    passes = []
    original = limits._BlockSum

    def counting(size):
        passes.append(size)
        return original(size)

    monkeypatch.setattr(limits, "_BlockSum", counting)
    seq = Naturals()
    values = char_function(seq, 0.7, [0.0, -0.0, 0.5], 3e4)
    assert values[:2] == [1.0, 1.0] and len(passes) == 1
    assert values[2].hex() == reference_char_function(seq, 0.7, 0.5, 3e4).hex()
