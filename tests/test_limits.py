import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from dirichletlab import frequencies, limits, sieve
from dirichletlab.limits import char_function_gaussian_gap
from dirichletlab.summation import _sum_of_squares

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


def test_gaussian_gap_where_t_squared_overflows():
    # (1e160)**2 overflows a float; exp(-t**2 / 2) is 0.0 there
    assert limits.gaussian_char(-1e160) == 0.0
    assert limits.gaussian_char(0.5) == math.exp(-0.5 * 0.5 ** 2)
    gap = char_function_gaussian_gap(Naturals(), 0.6, 1e3, np.array([1e160]))
    assert gap == abs(char_function(Naturals(), 0.6, 1e160, 1e3))


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


def test_variance_profile_names_the_primes_own_feasible_sigma(monkeypatch):
    # primes refuse a scale x before sieving once the lower bound
    # x/log x * (1 + 1/log x) on pi(x) passes the budget, which at 6e7 is
    # about sigma = 0.52392, not the naturals' 0.527918; the sigma named is
    # found without sieving
    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(sieve, "_extend", no_sieving)
    with pytest.raises(ResourceBudgetError, match="minimal feasible sigma") as info:
        variance_profile(Primes(), 0.523)
    named = float(str(info.value).rsplit(" ", 1)[-1])
    assert 0.523 < named <= 0.524
    x = math.exp(1.0 / (2.0 * named - 1.0))
    assert frequencies._prime_count_lower(x) == pytest.approx(
        frequencies.DEFAULT_TERM_BUDGET, rel=1e-3)


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
    # captured when V became the fsum of row dots.  A 40-digit product of
    # the same factors, over a 40-digit V, puts phi 2.9e-17 from the first
    # value, and the gap 1.1e-16 (one ulp of phi) from the second; V of
    # the primes to 1e7 at 0.55 moved from 0.78 ulp below its 40-digit
    # value to 1.22 ulps above
    assert char_function(Primes(), 0.6, 0.5, 1e6).hex() == "0x1.c38507337670cp-1"
    gap = char_function_gaussian_gap(Primes(), 0.55, 1e7, np.linspace(-1, 1, 21))
    assert gap.hex() == "0x1.3695b459ae900p-8"


def reference_char_function(seq, sigma, t, cutoff):
    """One t at a time, summed by fsum over a list; V is the library's
    normalizer, ``_sum_of_squares(w)``, here and in the helpers below."""
    w = seq.elements_up_to(cutoff) ** (-float(sigma))
    c = np.cos(float(t) * w / math.sqrt(_sum_of_squares(w)))
    if np.any(c == 0.0):
        return 0.0
    sign = 1.0 if int(np.count_nonzero(c < 0)) % 2 == 0 else -1.0
    return sign * math.exp(math.fsum(np.log(np.abs(c)).tolist()))


def accurate_char_function(seq, sigma, t, cutoff):
    """``reference_char_function`` with log cos x for |x| <= 1 taken as
    log1p(-2 * sin(x / 2)**2), which has no cancellation for small x."""
    w = seq.elements_up_to(cutoff) ** (-float(sigma))
    x = float(t) * w / math.sqrt(_sum_of_squares(w))
    c = np.cos(x)
    if np.any(c == 0.0):
        return 0.0
    sign = 1.0 if int(np.count_nonzero(c < 0)) % 2 == 0 else -1.0
    logs = np.log(np.abs(c))
    small = np.abs(x) <= 1.0
    logs[small] = np.log1p(-2.0 * np.sin(x[small] / 2.0) ** 2)
    return sign * math.exp(math.fsum(logs.tolist()))


def has_tail(seq, sigma, t, cutoff):
    """Whether some factor of phi(t) is in the tail: sigma > 0 and some
    |t| * w / V at most X0."""
    w = seq.elements_up_to(cutoff) ** (-float(sigma))
    x = abs(float(t)) * w / math.sqrt(_sum_of_squares(w))
    return sigma > 0 and bool(np.any(x <= limits.X0))


def mp_char_function(seq, sigma, t, cutoff):
    """The product of the same float factors at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    w = seq.elements_up_to(cutoff) ** (-float(sigma))
    sd = math.sqrt(_sum_of_squares(w))
    with mpmath.workdps(40):
        scale = mpmath.mpf(float(t)) / mpmath.mpf(sd)
        return mpmath.fprod(mpmath.cos(scale * mpmath.mpf(v)) for v in w.tolist())


# phi = exp(L) is formed from a rounded log L, so its relative error is
# counted in units of 2**-52 * max(1, |L|), about an ulp of L or of phi;
# with a tail, phi lies within this many of accurate_char_function
_TAIL_UNITS = 2


def assert_matches_the_oracles(seq, sigma, t, cutoff, value):
    """Bit-equal to ``reference_char_function`` without a tail; with one,
    within _TAIL_UNITS units of ``accurate_char_function``, and no farther
    from it than the reference is, but for one unit: each rounds its own L,
    and where the tail's log is large, one ulp of L is more than the
    reference's error in it."""
    old = reference_char_function(seq, sigma, t, cutoff)
    if not has_tail(seq, sigma, t, cutoff):
        assert value.hex() == old.hex()
        return
    good = accurate_char_function(seq, sigma, t, cutoff)
    unit = 2.0 ** -52 * max(1.0, abs(math.log(abs(good)))) * abs(good)
    assert abs(value - good) <= _TAIL_UNITS * unit, (t, value, good)
    assert abs(value - good) <= abs(old - good) + unit, (t, value, good, old)


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
    assert [v.hex() for v in grid] == [v.hex() for v in scalar]
    for t, value in zip(ts, grid):
        assert_matches_the_oracles(seq, sigma, t, cutoff, value)


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


# --- phi is even bit for bit: it is evaluated at |t|, so a mirrored t
# may reuse a computed value.  reference_char_function takes cos of
# -t * w / V, so it agrees at a negative t only while np.cos is bitwise
# even.


@pytest.mark.parametrize("seq, sigma, cutoff, unit", _CASES)
def test_char_function_even_bit_for_bit(seq, sigma, cutoff, unit):
    for t in (0.9, 1.0, 2.5, 1e-300, 40.0):
        t /= unit or 1.0
        plus = char_function(seq, sigma, t, cutoff)
        minus = char_function(seq, sigma, -t, cutoff)
        assert minus.hex() == plus.hex()


def test_numpy_cos_is_bitwise_even_on_prime_arguments():
    w = Primes().elements_up_to(1e7) ** -0.55
    x = 1.0 * w / math.sqrt(_sum_of_squares(w))
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


def test_tail_power_sums_are_shared_down_to_sub_blocks(monkeypatch):
    # each tail sub-block and whole block is summed once per call; only the
    # terms from the head to the next multiple of _SUB are summed per |t|
    terms = []
    original = limits._power_sums

    def counting(w, sd):
        terms.append(w.size)
        return original(w, sd)

    monkeypatch.setattr(limits, "_power_sums", counting)
    seq, sigma, cutoff = Naturals(), 0.6, 3e5
    ts = np.linspace(-5.0, 5.0, 21)
    char_function(seq, sigma, ts, cutoff)
    w, var = limits._weights_and_variance(seq, sigma, cutoff)
    heads = [int(np.count_nonzero(a * w / math.sqrt(var) > limits.X0))
             for a in set(abs(ts).tolist())]
    assert sum(terms) <= w.size + sum(head + limits._SUB for head in heads)


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
    assert_matches_the_oracles(seq, 0.7, 0.5, 3e4, values[2])


# --- the tail: factors cos(x) with x <= X0 take the series of log cos x


def test_log_cos_coefficients_are_the_taylor_coefficients():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c = mpmath.taylor(lambda x: mpmath.log(mpmath.cos(x)), 0, 16)
    assert limits.LOG_COS == tuple(float(c[2 * k]) for k in range(1, 9))


@given(st.floats(0.0, 0.125, exclude_min=True))
@settings(max_examples=200, deadline=None)
def test_log_cos_series_is_within_two_ulps(x):
    # one factor with w = x and V = 1, through the functions char_function
    # sums its tail with
    mpmath = pytest.importorskip("mpmath")
    piece = limits._power_sums(np.array([x]), 1.0)
    got = math.fsum(limits._series_terms(1.0, *piece))
    # cos x is 1 - x**2 / 2 - ..., so 40 digits of its log need about
    # 2 * log10(1 / x) more of cos x
    with mpmath.workdps(40 + 2 * int(-math.log10(x))):
        want = float(mpmath.log(mpmath.cos(mpmath.mpf(x))))
    assert abs(got - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("seq, sigma, t, cutoff", [
    (Primes(), 0.6, 0.3, 1e5),
    (Naturals(), 0.6, 0.3, 2e4),
    (Naturals(), 0.7, 0.5, 2e4),
])
def test_char_function_matches_a_40_digit_product(seq, sigma, t, cutoff):
    # log of a rounded cos x near 1 is off by up to 2**-53 / (x**2 / 2)
    # relative; summed over thousands of small factors that cost phi
    # 3.8e-15 at primes up to 1e5, where the series is 4.1e-17 off
    want = mp_char_function(seq, sigma, t, cutoff)
    got = char_function(seq, sigma, t, cutoff)
    assert abs(got - want) <= 2.0 ** -52 * abs(want)


def test_accurate_oracle_matches_a_40_digit_product():
    # the oracle of the tail cases is itself checked on a small case
    for t in (0.5, 2.0):
        want = mp_char_function(Naturals(), 0.7, t, 2000.0)
        got = accurate_char_function(Naturals(), 0.7, t, 2000.0)
        assert abs(got - want) <= 4 * math.ulp(got)


@pytest.mark.parametrize("seq, sigma, cutoff, ts", [
    # sigma <= 0: no tail, however small the factors
    (Naturals(), -0.5, 2000.0, (0.3, -1.0, 2.5)),
    (Naturals(), 0.0, 1000.0, (0.3, -1.0, 2.5)),
    # every factor in the head
    (explicit([2.0, 3.0, 7.0]), 0.8, 10.0, (0.5, 1.7, -3.0)),
    (Naturals(), 1.0, 2000.0, (400.0, -1000.0)),
])
def test_char_function_without_a_tail_equals_the_reference(seq, sigma, cutoff, ts):
    for t in ts:
        if sigma > 0:
            assert not has_tail(seq, sigma, t, cutoff)
        got = char_function(seq, sigma, t, cutoff)
        assert got.hex() == reference_char_function(seq, sigma, t, cutoff).hex()
