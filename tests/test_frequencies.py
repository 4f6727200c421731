import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirichletlab
from dirichletlab import (
    DivergenceError,
    Explicit,
    Naturals,
    Primes,
    ResourceBudgetError,
    SamplePath,
    ValidationError,
    WeightedNaturals,
    make_sequence,
    sequence_spec,
)
from dirichletlab import frequencies, sieve
from dirichletlab.evaluation import decide
from dirichletlab.limits import char_function, clt_sample
from dirichletlab.summation import _CHUNK, _ROW
from dirichletlab.zeros import scan, scan_certificate

from conftest import explicit, partial_sum_table, zeta_em


@pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "seq",
    [Naturals(), Primes(), WeightedNaturals(2.0),
     explicit([2.0, 3.0, 5.0])],
    ids=["naturals", "primes", "weighted", "explicit"],
)
def test_non_finite_cutoffs_rejected(seq, cutoff):
    # every cutoff reaches the kind's count through one finiteness check,
    # which raises instead of hanging or overflowing
    calls = [
        lambda: seq.counting_function(cutoff),
        lambda: seq.elements_up_to(cutoff),
        lambda: seq.next_elements(cutoff, 3),
        lambda: seq.tail_power_sum(2.0, cutoff),
        lambda: SamplePath(seq, 1, 0).signs_up_to(cutoff),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="finite"):
            call()


# ---------------------------------------------------------------------------
# Naturals


def test_naturals_basics():
    seq = Naturals()
    assert seq.element(1) == 1.0
    assert seq.counting_function(10.5) == 10
    assert seq.elements_up_to(5).tolist() == [1, 2, 3, 4, 5]
    assert seq.elements_up_to(6)[seq.counting_function(3):].tolist() == [4, 5, 6]
    assert seq.tail_converges(1.5) and not seq.tail_converges(1.0)


def test_naturals_power_sum_matches_zeta_oracle():
    seq = Naturals()
    for s in (1.5, 2.0, 3.0):
        full = zeta_em(s)
        head = seq.power_sum(s, 10_000)
        lo, hi = seq.tail_power_sum(s, 10_000)
        assert lo <= full - head <= hi
        assert hi - lo < 1e-6


_HEAD_CASES = [(seq, sigma, cutoff)
               for seq in (Naturals(), Primes(), WeightedNaturals(exponent=2.0))
               for sigma in (1.1, 1.5, 2.0, 3.0) for cutoff in (1e3, 1e4)]


def test_power_sums_are_correctly_rounded():
    # heads longer than one 2**16-term block are rounded once, like fsum
    terms = Naturals()._powers(1, 10**6, -0.6)
    assert Naturals().power_sum(0.6, 1e6).hex() == math.fsum(terms.tolist()).hex()
    n = 10**5
    for seq, sigma, cutoff in _HEAD_CASES:
        first = seq._first_above(cutoff)
        head = math.fsum(seq._powers(first, n, -sigma).tolist())
        lo, hi = seq._remainder_enclosure(sigma, first + n - 1)
        got = seq.tail_power_sum(sigma, cutoff, head_terms=n)
        assert [v.hex() for v in got] == [(head + lo).hex(), (head + hi).hex()]


def test_naturals_tail_diverges():
    with pytest.raises(DivergenceError):
        Naturals().tail_power_sum(1.0, 100)


def test_budget_enforced(monkeypatch):
    with pytest.raises(ResourceBudgetError):
        Naturals().elements_up_to(1e9)
    with pytest.raises(ResourceBudgetError):
        Naturals().power_sum(2.0, 1e12)
    finite = explicit([2.0, 3.0, 5.0, 7.0])
    monkeypatch.setattr(frequencies, "DEFAULT_TERM_BUDGET", 2)
    assert finite.elements_up_to(3.0).tolist() == [2.0, 3.0]
    monkeypatch.setattr(frequencies, "DEFAULT_TERM_BUDGET", 3)
    with pytest.raises(ResourceBudgetError):
        finite.elements_up_to(7.0)
    monkeypatch.undo()
    with pytest.raises(ResourceBudgetError):
        SamplePath(Naturals(), 1, 0).signs_up_to(1e9)


def _budget_calls():
    seq = Naturals()
    cert = scan_certificate(seq, 0.75, 1e4, 0.05)
    path = SamplePath(seq, 1, 0)
    return {
        "decide": lambda: decide(path, [1.0], cert),
        "scan": lambda: scan(path, 0.75, 2.0, cert),
        "partial_sum_table": lambda: partial_sum_table(path, [(1.0, 1e4)]),
        "char_function": lambda: char_function(seq, 0.75, 0.5, 1e4),
        "clt_sample": lambda: clt_sample(seq, 0.75, 1e4, 1, 2),
    }


@pytest.mark.parametrize("name", sorted(_budget_calls()))
def test_every_operation_counts_through_the_budget(monkeypatch, name):
    # certified and sampling paths alike count their terms through the one
    # gate, so a smaller budget refuses each of them at cutoff 1e4
    call = _budget_calls()[name]
    monkeypatch.setattr(frequencies, "DEFAULT_TERM_BUDGET", 1000)
    with pytest.raises(ResourceBudgetError):
        call()


@pytest.mark.parametrize("seq", [Naturals(), Primes(), WeightedNaturals(2.0)],
                         ids=["naturals", "primes", "weighted"])
def test_powers_prefix_is_the_shorter_array_bit_for_bit(seq):
    # _powers fills in _CHUNK steps from its first index, so the first m
    # powers of a longer call are the m powers of a shorter one: a
    # sign-change setup's heuristic and certified weights share one array
    counts = [1, 2, _ROW - 1, _ROW, _ROW + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
              2 * _CHUNK - 1, 2 * _CHUNK + _ROW + 1]
    for sigma in (0.53, 0.75, 1.0, 2.0):
        longest = seq._powers(seq.start_index, 2 * _CHUNK + 3 * _ROW, -sigma)
        for m in counts:
            alone = seq._powers(seq.start_index, m, -sigma)
            assert np.array_equal(longest[:m].view(np.uint64), alone.view(np.uint64))


def test_primes_refuse_before_sieving(monkeypatch):
    # a cutoff whose lower bound on pi(x) exceeds the budget is refused
    # before the sieve is asked for a single prime
    def no_sieving(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(sieve, "_extend", no_sieving)
    with pytest.raises(ResourceBudgetError):
        Primes().elements_up_to(1e12)
    with pytest.raises(ResourceBudgetError):
        Primes().counting_function(1e12)


def test_no_public_callable_takes_a_budget():
    # one term budget, DEFAULT_TERM_BUDGET, applies per operation, and the
    # characteristic function always normalizes by the truncated standard
    # deviation; no public function or method lets a caller move either
    for name in dirichletlab.__all__:
        obj = getattr(dirichletlab, name)
        if inspect.isclass(obj):
            fns = [f for _, f in inspect.getmembers(obj, inspect.isfunction)]
        else:
            fns = [obj] if inspect.isfunction(obj) else []
        for fn in fns:
            params = inspect.signature(fn).parameters
            assert "budget" not in params, (name, fn)
            assert "normalization" not in params, (name, fn)


# ---------------------------------------------------------------------------
# Primes


def test_primes_match_sieve_oracle(small_primes):
    seq = Primes()
    assert seq.elements_up_to(1000).tolist() == [
        float(p) for p in small_primes if p <= 1000
    ]
    assert seq.element(25) == small_primes[24]
    assert seq.counting_function(541) == 100


def test_primes_tail_enclosure_brackets_brute_force():
    seq = Primes()
    for s, cutoff in ((2.0, 100.0), (1.5, 1000.0)):
        lo, hi = seq.tail_power_sum(s, cutoff)
        # brute force far enough out that the missing remainder is tiny
        elems = seq.elements_up_to(2_000_000)[seq.counting_function(cutoff):]
        brute = float(np.sum(elems ** (-s)))
        missing = 2_000_000.0 ** (1.0 - s) / (s - 1.0)
        assert lo <= brute + missing
        assert brute <= hi
        assert lo < hi


def test_primes_start_index_shifts():
    seq = Primes(start_index=3)
    assert seq.element(3) == 5.0
    assert seq.elements_up_to(11).tolist() == [5.0, 7.0, 11.0]
    assert seq.counting_function(11) == 3


# ---------------------------------------------------------------------------
# WeightedNaturals


def test_weighted_values_and_counting():
    seq = WeightedNaturals(exponent=2.0)
    assert seq.start_index == 2  # keeps every served element >= 1
    assert seq.element(2) == pytest.approx(2 * math.log(3) ** 2)
    for i in range(2, 200):
        assert seq.counting_function(seq.element(i)) == i - 1


def test_weighted_reciprocal_sum_converges_but_abscissa_is_one():
    seq = WeightedNaturals(exponent=2.0)
    assert seq.tail_converges(1.0)
    assert not seq.tail_converges(0.99)


def test_weighted_tail_enclosure_brackets_brute_force():
    seq = WeightedNaturals(exponent=2.0)
    lo, hi = seq.tail_power_sum(1.0, 1000.0, head_terms=200)
    elems = seq.elements_up_to(5_000_000.0)[seq.counting_function(1000.0):]
    brute = float(np.sum(1.0 / elems))
    assert brute <= hi
    assert lo <= brute + 1.0 / math.log(5_000_000.0)  # crude remainder room
    assert lo < hi


def _partial_tail(seq, sigma, cutoff, n):
    """fsum of the next ``n`` served powers past ``cutoff``, and an upper
    bound of the terms after them by integral comparison: for primes
    p > P by the integers n > P, for weighted naturals by
    sum_{n>M} n**-s log(n+1)**(-a s) <= min(log(M)**(1-a s)/(a s-1),
    log(M+1)**(-a s) M**(1-s)/(s-1)), the second for s > 1 only."""
    first = seq._first_above(cutoff)
    partial = math.fsum(seq._powers(first, n, -sigma).tolist())
    last = first + n - 1
    if isinstance(seq, Primes):
        return partial, seq.element(last) ** (1.0 - sigma) / (sigma - 1.0)
    s = seq.exponent * sigma
    rest = math.log(last) ** (1.0 - s) / (s - 1.0)
    if sigma > 1.0:
        rest = min(rest, math.log(last + 1.0) ** -s
                   * last ** (1.0 - sigma) / (sigma - 1.0))
    return partial, rest


def _assert_brackets(seq, sigma, cutoff, head_terms, partial, rest):
    # the partial sum lies below the tail and partial + rest above it;
    # the enclosure is rounded to nearest, not outward, so each end has
    # 2**-50 relative room
    lo, hi = seq.tail_power_sum(sigma, cutoff, head_terms=head_terms)
    assert lo <= (partial + rest) * (1.0 + 2.0 ** -50)
    assert hi * (1.0 + 2.0 ** -50) >= partial


@pytest.mark.parametrize("exponent", [1.5, 2.0, 3.0, 5.0])
def test_weighted_tail_enclosure_brackets_partial_sums(exponent):
    # the remainder must start past the last head element's own index for
    # every head length: one that starts earlier overstates the lower end
    seq = WeightedNaturals(exponent)
    for sigma in (1.0, 1.1, 1.5, 2.0, 3.0):
        for cutoff in (10.0, 1e3, 1e5):
            partial, rest = _partial_tail(seq, sigma, cutoff, 10**5)
            for head_terms in (16, 100, 2000):
                _assert_brackets(seq, sigma, cutoff, head_terms, partial, rest)


def test_prime_tail_enclosure_brackets_partial_sums_for_short_heads():
    seq = Primes()
    for sigma in (1.1, 1.5, 2.0, 3.0):
        for cutoff in (2.0, 100.0, 1e4):
            partial, rest = _partial_tail(seq, sigma, cutoff, 10**5)
            for head_terms in (16, 40, 100):
                _assert_brackets(seq, sigma, cutoff, head_terms, partial, rest)


@given(st.floats(1.5, 8.0), st.floats(1.0, 4.0), st.floats(3.0, 1e5),
       st.integers(16, 3000))
@example(exponent=3.0, sigma=2.0, cutoff=1e3, head_terms=16)
@settings(max_examples=25, deadline=None)
def test_property_weighted_enclosure_brackets_partial_sums(
        exponent, sigma, cutoff, head_terms):
    seq = WeightedNaturals(exponent)
    partial, rest = _partial_tail(seq, sigma, cutoff, 20_000)
    _assert_brackets(seq, sigma, cutoff, head_terms, partial, rest)


def test_explicit_tail_enclosure_brackets_brute_force():
    # an explicit sequence with more elements past the cutoff than the
    # head holds: the elements past the head are summed, not dropped,
    # whatever the head's length
    seq = explicit(range(1, 30_001))
    for sigma, cutoff in ((2.0, 1.0), (1.5, 1.0), (0.5, 5000.0)):
        brute = math.fsum(n ** -sigma for n in range(int(cutoff) + 1, 30_001))
        for head_terms in (16, 100, frequencies.DEFAULT_TAIL_HEAD_TERMS):
            _assert_brackets(seq, sigma, cutoff, head_terms, brute, 0.0)


def test_weighted_count_bound_dominates_brute_force():
    seq = WeightedNaturals(exponent=2.0)

    def upper(count):
        # the enclosure's upper end of sum(1/p) past the first count elements
        return seq._remainder_enclosure(1.0, seq.start_index + count - 1)[1]

    count = 500
    bound = upper(count)
    # every element past the first count
    elems = seq.elements_up_to(10_000_000.0)[count:]
    brute = float(np.sum(1.0 / elems))
    assert brute < bound
    # the analytic bound accepts astronomically large counts and decays
    b1 = upper(10 ** 9)
    b2 = upper(10 ** 1950)
    assert b2 < b1 < bound


def test_weighted_exponent_validation():
    with pytest.raises(ValidationError):
        WeightedNaturals(exponent=1.0)


# ---------------------------------------------------------------------------
# Explicit


def test_explicit_validation():
    with pytest.raises(ValidationError):
        explicit([2.0, 2.0])
    with pytest.raises(ValidationError):
        explicit([0.5, 2.0])
    with pytest.raises(ValidationError):
        explicit([])


def test_explicit_warns_on_construction():
    with pytest.warns(UserWarning):
        Explicit((2.0, 3.0))


def test_explicit_exact_tail():
    seq = explicit([2.0, 3.0, 4.0])
    lo, hi = seq.tail_power_sum(0.3, 2.5)
    exact = 3.0 ** -0.3 + 4.0 ** -0.3
    assert lo == hi == pytest.approx(exact, abs=1e-15)
    assert seq.tail_power_sum(1.0, 10.0) == (0.0, 0.0)


def test_explicit_from_file(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("# comment\n2.0\n3.5 # inline\n\n7\n")
    seq = Explicit.from_file(p)
    assert seq.values == (2.0, 3.5, 7.0)
    bad = tmp_path / "bad.txt"
    bad.write_text("2.0\nnot-a-number\n")
    with pytest.raises(ValidationError, match="bad.txt:2"):
        Explicit.from_file(bad)
    dec = tmp_path / "dec.txt"
    dec.write_text("3.0\n2.0\n")
    with pytest.raises(ValidationError, match="dec.txt:2"):
        Explicit.from_file(dec)


# ---------------------------------------------------------------------------
# One index <-> value rule for every kind


_EXPLICIT_SPEC = "explicit:" + ",".join(str(1.5 * k * k) for k in range(1, 41))


@pytest.mark.parametrize(
    "spec", ["naturals", "primes", "weighted:2.0", "weighted:3.0",
             _EXPLICIT_SPEC, "primes;start=3", "weighted:3.0;start=5"]
)
def test_element_counting_and_slicing_agree(spec):
    seq = make_sequence(spec)  # quiet for explicit specs
    start = seq.start_index
    last = len(seq.values) if isinstance(seq, Explicit) else start + 299
    for i in range(start, last + 1):
        x = seq.element(i)
        assert seq.elements_up_to(x)[-1] == x  # bit-equal
        assert seq.counting_function(x) == i - start + 1
    everything = seq.elements_up_to(seq.element(last) * 2.0)
    for c in (0.5, seq.element(start), seq.element(start + 7) + 0.25,
              seq.element(last - 3)):
        for k in (1, 5, 16):
            expected = everything[everything > c][:k]
            assert np.array_equal(seq.next_elements(c, k), expected)
    with pytest.raises(ValidationError):
        seq.element(start - 1)
    if isinstance(seq, Explicit):
        with pytest.raises(ValidationError):
            seq.element(last + 1)


# ---------------------------------------------------------------------------
# Factory round trip, cache, properties


@pytest.mark.parametrize(
    "spec", ["naturals", "primes", "weighted:2.0", "weighted:1.5",
             "explicit:2.0,3.0,5.5", "naturals;start=5", "primes;start=3",
             "weighted:1.5;start=7", "explicit:2.0,3.0,5.5;start=2"]
)
def test_spec_round_trip(spec):
    seq = make_sequence(spec)
    again = make_sequence(sequence_spec(seq))
    assert type(again) is type(seq)
    assert sequence_spec(again) == sequence_spec(seq)
    # canonical specs come back byte for byte; the suffix only when the
    # start index is not the kind's default
    assert again == seq and sequence_spec(seq) == spec


def test_make_sequence_rejects_unknown():
    with pytest.raises(ValidationError):
        make_sequence("fibonacci")
    with pytest.raises(ValidationError):
        make_sequence("weighted:abc")
    with pytest.raises(ValidationError):
        make_sequence("naturals;start=x")
    with pytest.raises(ValidationError):
        make_sequence("explicit:2.0,3.0;start=3")


@given(st.integers(1, 5000))
@settings(max_examples=60, deadline=None)
def test_property_naturals_count_inverts_element(i):
    seq = Naturals()
    assert seq.counting_function(seq.element(i)) == i


@given(st.integers(2, 3000), st.floats(1.1, 4.0))
@settings(max_examples=60, deadline=None)
def test_property_weighted_enclosure_is_ordered(i, sigma):
    seq = WeightedNaturals(exponent=2.0)
    cutoff = seq.element(i)
    lo, hi = seq.tail_power_sum(sigma, cutoff, head_terms=64)
    assert 0.0 <= lo <= hi


@given(st.floats(1.2, 3.5), st.floats(10.0, 5000.0))
@settings(max_examples=40, deadline=None)
def test_property_tail_decreases_in_cutoff(sigma, cutoff):
    seq = Naturals()
    lo1, hi1 = seq.tail_power_sum(sigma, cutoff)
    lo2, hi2 = seq.tail_power_sum(sigma, cutoff * 2.0)
    assert hi2 <= hi1
    assert lo2 <= hi1


# --- _powers: every p**e the package forms from a count, chunk by chunk

_BLOCK = 2 ** 16
_POWER_COUNTS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)
_LONG_EXPLICIT = explicit((np.arange(1.0, 4 * _BLOCK + 1.0) * 1.5 + 0.25).tolist())


@pytest.mark.parametrize("seq", [Naturals(), Primes(), WeightedNaturals(2.0),
                                 _LONG_EXPLICIT], ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("exponent", [-0.5, -0.53, -0.8, -1.0, -1.2, -2.0])
def test_powers_match_whole_array_power_bit_for_bit(seq, exponent):
    # a numpy SIMD path that rounded differently by position in the array
    # would break payload hashes; pin chunked against whole-array `**`
    for first in (seq.start_index, seq.start_index + 12_345):
        for count in _POWER_COUNTS:
            got = seq._powers(first, count, exponent)
            want = seq._values(first, count) ** exponent
            assert got.dtype == np.float64 and got.size == want.size == count
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_powers_past_the_end_of_an_explicit_sequence():
    seq = _LONG_EXPLICIT
    size = len(seq.values)
    for first, count in ((size - 4, 10), (size - _BLOCK - 3, 2 * _BLOCK),
                         (size + 1, 5)):
        got = seq._powers(first, count, -0.53)
        want = seq._values(first, count) ** -0.53
        assert got.size == want.size == max(0, size - first + 1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_powers_leave_an_explicit_sequence_unchanged():
    seq = explicit(np.arange(2.0, 3 * _BLOCK + 9.0).tolist())
    before = seq._array.copy()
    seq._powers(1, 3 * _BLOCK + 7, -0.53)
    seq._powers(5, _BLOCK + 1, -0.5)
    assert np.array_equal(seq._array.view(np.uint64), before.view(np.uint64))
    assert seq._array.tolist() == list(seq.values)
