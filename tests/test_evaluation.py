import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirichletlab import (
    Naturals,
    Primes,
    ResourceBudgetError,
    SamplePath,
    ValidationError,
    WeightedNaturals,
)
from dirichletlab import evaluation, frequencies
from dirichletlab.evaluation import (
    EXACT,
    PROBABILISTIC,
    TailCertificate,
    decide,
    evaluate,
    excursion_probability_bound,
    heuristic_cutoff,
    mellin_discrepancy,
    partial_sum_table,
    tail_certificate,
)
from dirichletlab.frequencies import FrequencySequence
from dirichletlab.limits import variance_profile
from dirichletlab.summation import compensated_sum

from conftest import explicit, path_with_signs, zeta_em


def test_partial_sum_trivial_cases():
    seq = explicit([2.0, 3.0])
    plus = path_with_signs(seq, [1, 1])
    assert partial_sum_table(plus, [(1.0, 10.0)])[0] == pytest.approx(1 / 2 + 1 / 3)
    mixed = path_with_signs(seq, [1, -1])
    assert partial_sum_table(mixed, [(1.0, 10.0)])[0] == pytest.approx(1 / 2 - 1 / 3)


def test_partial_sum_matches_order_reversed_oracle():
    path = SamplePath(Naturals(), 21, 0)
    value = partial_sum_table(path, [(0.8, 50_000)])[0]
    terms = [path.sign_at(i) * i ** -0.8 for i in range(1, 50_001)]
    oracle = math.fsum(reversed(terms))
    assert value == pytest.approx(oracle, abs=1e-11)


def test_partial_sum_table_consistent():
    path = SamplePath(Primes(), 5, 2)
    points = [(0.7, 1000.0), (1.0, 5000.0), (1.5, 100.0)]
    table = partial_sum_table(path, points)
    for (s, c), v in zip(points, table):
        assert v == partial_sum_table(path, [(s, c)])[0]
    # a cutoff below 1 is rejected alone or among valid points
    for call in (lambda: partial_sum_table(path, [(0.8, 0.5)]),
                 lambda: partial_sum_table(path, points + [(0.8, 0.5)])):
        with pytest.raises(ValidationError, match="cutoff must be >= 1"):
            call()


_CH = 1 << 16
# term counts on both sides of the chunk edges of the summation kernel
_KERNEL_LENGTHS = [0, 1, _CH - 1, _CH, _CH + 1, 3 * _CH + 7]


@given(
    lengths=st.lists(st.sampled_from(_KERNEL_LENGTHS), min_size=1, max_size=4),
    start=st.sampled_from([1, 2, 7, 1 << 40]),
    lead=st.lists(st.sampled_from([-1, 1]), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_property_streamed_sums_match_compensated_sum(lengths, start, lead, seed):
    # the kernel never builds the full product, yet each sum must equal
    # compensated_sum over the materialized signs bit for bit
    rng = np.random.default_rng(seed)
    # signed terms over many magnitudes, so any other chunking or order of
    # reduction would round differently
    weights = [rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
               for n in lengths]
    path = path_with_signs(Naturals(start_index=start), lead, seed)
    signs = path.signs_up_to(start - 1 + max(lengths))
    expected = [compensated_sum(signs[:w.size] * w) for w in weights]
    got = evaluation._signed_sums(path, weights)
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_weight_cache_separates_start_indices():
    # Naturals(start_index=5) and Naturals() share a spec string; each
    # certificate's weights are its own sequence's, and neither certificate
    # serves the other's paths
    shifted = SamplePath(Naturals(start_index=5), 1, 0)
    plain = SamplePath(Naturals(), 1, 0)
    certs = [tail_certificate(p.seq, 0.7, 100.0, 0.05) for p in (shifted, plain)]
    cold = evaluate(shifted, [0.8], certs[0])[0].partial_sum
    evaluate(plain, [0.8], certs[1])
    assert evaluate(shifted, [0.8], certs[0])[0].partial_sum == cold
    assert cold == partial_sum_table(shifted, [(0.8, 100)])[0]
    oracle = math.fsum(shifted.sign_at(i) * i ** -0.8 for i in range(5, 101))
    assert cold == pytest.approx(oracle, abs=1e-14)
    assert [c.scan_weights[0.8][0].size for c in certs] == [96, 100]
    for path, cert in ((shifted, certs[1]), (plain, certs[0])):
        with pytest.raises(ValidationError, match="another sequence"):
            decide(path, [0.8], cert)


def test_weight_cache_evicts_oldest(monkeypatch):
    # a certificate's memo is limited by the term budget, read at call
    # time, and cut back as each array joins it, so it holds at most the
    # budget while the next array is formed; a call that needs more than
    # the budget forms no array
    seq = Naturals()
    path = SamplePath(seq, 1, 0)
    cert = tail_certificate(seq, 0.6, 1000.0, 0.05)
    monkeypatch.setattr(frequencies, "DEFAULT_TERM_BUDGET", 2500)
    held = []  # the memo's size as each array is formed
    upper_sum = evaluation._upper_sum
    monkeypatch.setattr(evaluation, "_upper_sum",
                        lambda w: held.append(len(cert.scan_weights)) or upper_sum(w))
    for sigma in (0.6, 0.7, 0.8, 0.9):  # 1000 weights each
        decide(path, [sigma], cert)
    assert list(cert.scan_weights) == [0.8, 0.9]
    decide(path, [1.0, 1.1], cert)
    assert held == [0, 1, 2, 2, 2, 2]
    memo = dict(cert.scan_weights)
    assert list(memo) == [1.0, 1.1]
    with pytest.raises(ResourceBudgetError, match="needs 3000 terms"):
        decide(path, [0.6, 0.7, 0.8], cert)
    assert len(held) == 6 and cert.scan_weights == memo


def test_weight_cache_miss_reads_elements_without_counting(monkeypatch):
    # a certificate counts its terms once; a memo miss reads the elements
    # by that count
    seq = WeightedNaturals(2.0)
    cert = tail_certificate(seq, 0.6, 1e4, 0.05)
    assert cert.count == seq.counting_function(1e4)
    elems = seq.elements_up_to(1e4)
    counted = []
    original = FrequencySequence.counting_function

    def counting(self, x):
        counted.append(x)
        return original(self, x)

    monkeypatch.setattr(FrequencySequence, "counting_function", counting)
    decide(SamplePath(seq, 1, 0), [0.8], cert)
    w, _ = cert.scan_weights[0.8]
    assert counted == []
    assert np.array_equal(w, elems ** -0.8)


def test_tail_certificate_second_moment_matches_zeta_oracle():
    # doubled exponent 1.5 beyond cutoff 10**3 on the naturals
    cert = tail_certificate(Naturals(), 0.75, 1e3, 0.05)
    oracle = zeta_em(1.5) - math.fsum(n ** -1.5 for n in range(1, 1001))
    assert oracle == pytest.approx(0.0633, abs=5e-4)
    assert cert.tail_second_moment == pytest.approx(oracle, rel=1e-4)
    assert cert.tail_second_moment >= oracle  # upper end of the enclosure


def test_threshold_and_bound_round_trip():
    cert = tail_certificate(Naturals(), 0.75, 1e3, 0.05)
    t = cert.threshold
    assert t == pytest.approx(math.sqrt(18 * cert.tail_second_moment * math.log(6 / 0.05)))
    back = excursion_probability_bound(cert.tail_second_moment, t)
    assert back == pytest.approx(0.05, rel=1e-12)


def test_fixed_threshold_instance_round_trip():
    # at threshold 1/10 the failure bound is exactly 6*exp(-1/(1800*T)),
    # and feeding that bound back as the budget reproduces threshold 1/10
    for t_moment in (1e-5, 3e-4, 2e-4):
        bound = excursion_probability_bound(t_moment, 0.1)
        assert bound == pytest.approx(
            6.0 * math.exp(-1.0 / (1800.0 * t_moment)), rel=1e-12
        )
        if bound < 1.0:
            back = math.sqrt(18.0 * t_moment * math.log(6.0 / bound))
            assert back == pytest.approx(0.1, rel=1e-12)


def test_evaluate_radius_scales_with_exponent_gap():
    path = SamplePath(Naturals(), 3, 0)
    cert = tail_certificate(Naturals(), 0.75, 1e3, 0.05)
    v1, v2 = evaluate(path, [0.75, 1.75], cert)
    assert v1.kind == v2.kind == PROBABILISTIC
    assert v1.error_radius == pytest.approx(cert.threshold)
    assert v2.error_radius == pytest.approx(cert.threshold / 1e3)
    with pytest.raises(ValidationError):
        evaluate(path, [0.7], cert)


def test_evaluate_exact_for_exhausted_finite_sequence():
    seq = explicit([2.0, 3.0, 4.0])
    cert = tail_certificate(seq, 0.2, 10.0, 0.5)
    assert cert.exhausted and cert.eta == 0.0
    cv = evaluate(SamplePath(seq, 1, 0), [0.2], cert)[0]
    assert cv.kind == EXACT
    assert cv.error_radius == 0.0
    assert cv.decided_sign in (-1, 1)


def _cert_at(path, sigmas, cutoff, ulps, exhausted):
    """A certificate based at min(sigmas) whose radius there is the exact
    sum's magnitude moved ``ulps`` floats up (or down, not below 0), or an
    exhausted one with radius 0."""
    sigma0 = min(sigmas)
    cert = TailCertificate(path.seq, sigma0, cutoff, threshold=1.0, eta=0.5,
                           tail_second_moment=1.0)
    if exhausted:
        return dataclasses.replace(cert, threshold=0.0, eta=0.0, exhausted=True)
    radius = abs(evaluate(path, [sigma0], cert)[0].partial_sum)
    for _ in range(abs(ulps)):
        radius = math.nextafter(radius, math.inf if ulps > 0 else 0.0)
    return dataclasses.replace(cert, threshold=radius)


# one 1.0 and fourteen weights just under half an ulp of 1: summed left to
# right (numpy's dot does so below 16 terms) every small term is lost, so
# the dot product errs by about 12.6 ulps of 1 of the 14 its bound allows
_STAIR = explicit([1.0] + [1e16 + 4.0 * k for k in range(14)])


@given(
    seq=st.one_of(
        st.sampled_from([Naturals(), Primes(), WeightedNaturals(2.0)]),
        st.lists(st.floats(1.0, 1e4), min_size=1, max_size=40, unique=True)
        .map(sorted).map(explicit),
    ),
    cutoff=st.floats(1.0, 3000.0),
    sigmas=st.lists(st.floats(0.55, 3.0), min_size=1, max_size=4),
    plus=st.sampled_from([0, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
    ulps=st.integers(-3, 3),
    exhausted=st.booleans(),
)
@example(seq=_STAIR, cutoff=2e16, sigmas=[1.0], plus=15, seed=1, ulps=-1,
         exhausted=False)
@example(seq=Naturals(), cutoff=70_000.0, sigmas=[0.6, 0.9], plus=0, seed=5,
         ulps=1, exhausted=False)
@settings(max_examples=80, deadline=None)
def test_property_decide_equals_exact_decisions(
    seq, cutoff, sigmas, plus, seed, ulps, exhausted
):
    # radii at the exact sum and a few floats either side put the fast
    # value inside its error band, so the exact fallback runs as well; a
    # path whose leading ``plus`` signs are +1 sums without cancellation
    path = path_with_signs(seq, [1] * plus, seed)
    cert = _cert_at(path, sigmas, cutoff, ulps, exhausted)
    expected = [cv.decided_sign for cv in evaluate(path, sigmas, cert)]
    assert decide(path, sigmas, cert) == expected


def test_decide_falls_back_to_the_exact_sum_near_the_radius(monkeypatch):
    calls = []
    original = evaluation._chunk_partial

    def counting(chunk, total):
        calls.append(total)
        return original(chunk, total)

    monkeypatch.setattr(evaluation, "_chunk_partial", counting)
    path = SamplePath(WeightedNaturals(2.0), 1, 0)
    sigmas = [0.8, 1.1, 1.7]
    # radius exactly at the sum's magnitude: no error band can clear it
    at_sum = _cert_at(path, [0.8], 1e4, 0, False)
    calls.clear()
    assert decide(path, [0.8], at_sum) == [None]
    assert calls == [path.seq.counting_function(1e4)]
    # far radii leave every decision to the dot product
    for threshold in (0.0, 1e-6, 1e6):
        cert = dataclasses.replace(at_sum, threshold=threshold)
        calls.clear()
        got = decide(path, sigmas, cert)
        assert calls == []
        assert got == [cv.decided_sign for cv in evaluate(path, sigmas, cert)]


_LONG = 1 << 16


@given(
    seq=st.sampled_from([Naturals(), WeightedNaturals(2.0)]),
    n=st.integers(_LONG + 1, 3 * _LONG),
    sigmas=st.lists(st.sampled_from([0.55, 0.6, 0.75, 1.0, 1.6]),
                    min_size=1, max_size=3),
    plus=st.sampled_from([0, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
    ulps=st.integers(-3, 3),
    exhausted=st.booleans(),
)
@example(seq=Naturals(), n=_LONG + 1, sigmas=[0.55], plus=0, seed=2, ulps=0,
         exhausted=False)
@example(seq=Naturals(), n=3 * _LONG, sigmas=[1.6, 0.6], plus=3, seed=7,
         ulps=-3, exhausted=True)
@settings(max_examples=25, deadline=None)
def test_property_decide_equals_exact_decisions_past_one_chunk(
    seq, n, sigmas, plus, seed, ulps, exhausted
):
    # sums of more than one chunk, where the exact path is compensated_sum's
    # chunked one: radii at that sum and up to three floats either side
    path = path_with_signs(seq, [1] * plus, seed)
    cutoff = seq.element(seq.start_index + n - 1)
    assert seq.counting_function(cutoff) == n
    cert = _cert_at(path, sigmas, cutoff, ulps, exhausted)
    expected = [cv.decided_sign for cv in evaluate(path, sigmas, cert)]
    assert decide(path, sigmas, cert) == expected


def _cancelling_ones(path, n, excess):
    """Weights 1.0 but for a last one chosen so that the path's signed sum
    of the first ``n'' >= n`` terms is exactly ``excess`` (a multiple of
    2**-40 below 1 in magnitude), with ``n'`` the first length where that
    last weight comes out positive."""
    while True:
        signs = path.signs_up_to(n)
        head = int(signs[:-1].sum())
        last = signs[-1]
        if head != 0 and (head > 0) != (last > 0):
            w = np.ones(n)
            w[-1] = abs(head) + excess * last
            return w
        n += 1


@pytest.mark.parametrize("n", [1000, _LONG + 1000])
def test_heuristic_signs_equal_compensated_sum_signs(monkeypatch, n):
    # the heuristic pass keeps sign(v) with v >= 0 counted as +1; the filter
    # at radius 0 gives the same signs, long sums included, and sums that
    # come out within the band of 0 (here exactly 0 and +-2**-40) are
    # settled by the exact sums it falls back to
    seq = Naturals()
    path = SamplePath(seq, 11, 2)
    weights = [_cancelling_ones(path, n, e) for e in (0.0, 2.0**-40, -(2.0**-40))]
    weights += [w for w, _ in evaluation._weight_pairs(
        seq, [(0.53, 3 * _LONG), (0.75, _LONG + 7), (1.2, 900)])]
    fallbacks = []
    original = evaluation._signed_sums

    def counting(p, ws):
        ws = list(ws)
        fallbacks.append(len(ws))
        return original(p, ws)

    monkeypatch.setattr(evaluation, "_signed_sums", counting)
    entries = [(w, evaluation._upper_sum(w)) for w in weights]
    got = evaluation._filtered_signs(path, entries, [0.0] * len(weights))
    signs = path.signs_up_to(max(w.size for w in weights))
    sums = [compensated_sum(signs[:w.size] * w) for w in weights]
    assert sums[:3] == [0.0, 2.0**-40, -(2.0**-40)]
    assert [1 if g is None else g for g in got] == [1 if v >= 0 else -1 for v in sums]
    assert fallbacks == [3]


def test_decide_runs_no_pairwise_pass_for_far_radii_on_a_long_sum(monkeypatch):
    # a 10**5-term sum: the far radii are settled by the chunked dot
    # products alone, and a radius at the sum re-streams it through
    # _signed_sums, one pairwise full chunk and one exact remainder
    calls = []
    original = evaluation._chunk_partial

    def counting(chunk, total):
        calls.append(chunk.size)
        return original(chunk, total)

    monkeypatch.setattr(evaluation, "_chunk_partial", counting)
    path = SamplePath(Naturals(), 3, 0)
    sigmas = [0.6, 0.8, 1.3]
    at_sum = _cert_at(path, [0.6], 1e5, 0, False)
    calls.clear()
    assert decide(path, [0.6], at_sum) == [None]
    assert calls == [_LONG, 100_000 - _LONG]
    for threshold in (0.0, 1e-6, 1e6):
        cert = dataclasses.replace(at_sum, threshold=threshold)
        calls.clear()
        got = decide(path, sigmas, cert)
        assert calls == []
        assert got == [cv.decided_sign for cv in evaluate(path, sigmas, cert)]


@pytest.mark.parametrize("n", [0, 1, 2, 15, 1000, _LONG, _LONG + 1, 3 * _LONG, 10**8])
def test_band_slack_covers_the_proven_error_bound(n):
    # the bounds of decide's docstring, in exact rational arithmetic:
    # gamma_{n-1} up to one chunk, and past it twice gamma_{K-1} (dots and
    # pairwise partials) plus the rounding of the fsum of the dots
    u = Fraction(1, 2**53)

    def gamma(k):
        return k * u / (1 - k * u)

    if n <= _LONG:
        proven = gamma(max(n - 1, 0))
    else:
        proven = 2 * gamma(_LONG - 1) + u * (1 + gamma(_LONG - 1))
    assert Fraction(evaluation._band_slack(n)) >= proven


@pytest.mark.parametrize("small", [2.0**-53, 2.0**-54 * 1.5, 1e-17])
def test_upper_sum_bounds_the_exact_sum(small):
    # a 1.0 in front of many terms at or below half an ulp of 1: the
    # accumulator that holds the 1.0 drops them, so the float sum falls
    # short of the exact one, which the bound must still cover
    for n in (2, 17, 1000, _LONG + 3):
        w = np.full(n, small)
        w[0] = 1.0
        exact = sum(Fraction(x) for x in (1.0, small)) + (n - 2) * Fraction(small)
        assert Fraction(evaluation._upper_sum(w)) >= exact
    rng = np.random.default_rng(4)
    w = rng.uniform(0.0, 1.0, 5000) ** 8
    assert Fraction(evaluation._upper_sum(w)) >= sum(map(Fraction, w.tolist()))


class _CountingDict(dict):
    """A dict that counts its reads by key."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def pop(self, key, *default):
        self.reads += 1
        return super().pop(key, *default)


def test_decide_reads_the_weight_cache_once_per_exponent():
    # each certified point reads one memo entry, array and bound together:
    # the certificate's memo is swapped for a counting copy of itself, and
    # no module-level dict holds weights beside it
    seq = WeightedNaturals(2.0)
    path = SamplePath(seq, 5, 0)
    sigmas = [0.7, 0.9, 1.1, 1.6, 2.4]
    cert = tail_certificate(seq, 0.65, 1e4, 0.01)
    expected = decide(path, sigmas, cert)  # warms the memo
    memo = cert.__dict__["scan_weights"] = _CountingDict(cert.scan_weights)
    assert decide(path, sigmas, cert) == expected
    assert memo.reads == len(sigmas)
    assert not [name for name, value in vars(evaluation).items()
                if isinstance(value, dict) and not name.startswith("__")]


def test_decided_sign_logic():
    from dirichletlab.evaluation import CertifiedValue

    assert CertifiedValue(1.0, 0.5, 10, 0.4, PROBABILISTIC).decided_sign == 1
    assert CertifiedValue(1.0, -0.5, 10, 0.4, PROBABILISTIC).decided_sign == -1
    assert CertifiedValue(1.0, 0.3, 10, 0.4, PROBABILISTIC).decided_sign is None


def test_heuristic_cutoff_rule_and_budget_error():
    assert heuristic_cutoff(1.0) == pytest.approx(math.e)
    assert heuristic_cutoff(0.75) == math.exp(2.0)
    # exp(1/(2*sigma - 1)) overflows a float this close to 1/2
    assert heuristic_cutoff(0.5 + 1e-4) == math.inf
    with pytest.raises(ValidationError):
        heuristic_cutoff(0.5)
    # the variance profile's scale is the rule; past the budget it names
    # the smallest exponent whose scale fits
    assert variance_profile(Naturals(), 0.8).scale == heuristic_cutoff(0.8)
    with pytest.raises(ResourceBudgetError, match="minimal feasible sigma"):
        variance_profile(Naturals(), 0.51)


def test_partial_sum_golden():
    # captured before the chunk partials were summed by exact_sum
    got = partial_sum_table(SamplePath(Naturals(), 7, 0), [(0.75, 1e5)])[0]
    assert got.hex() == "-0x1.7936c234ec894p+0"


def test_non_finite_exponents_rejected():
    seq = Naturals()
    path = SamplePath(seq, 1, 0)
    cert = tail_certificate(seq, 0.8, 1e4, 0.01)
    for call in (
        lambda: tail_certificate(seq, math.nan, 1e4, 0.01),
        lambda: tail_certificate(seq, math.inf, 1e4, 0.01),
        lambda: evaluate(path, [math.nan], cert),
        lambda: evaluate(path, [math.inf], cert),
        lambda: partial_sum_table(path, [(math.nan, 1e4)]),
        lambda: partial_sum_table(path, [(0.9, 1e3), (math.nan, 1e3)]),
    ):
        with pytest.raises(ValidationError, match="must be finite"):
            call()


def test_mellin_identity_small():
    path = SamplePath(Naturals(), 13, 4)
    for s in (0.7, 1.0, 2.3):
        assert mellin_discrepancy(path, s, 2000.0) < 1e-12


@given(st.integers(0, 10_000), st.floats(0.6, 2.5))
@settings(max_examples=40, deadline=None)
def test_property_mellin_identity(seed, s):
    path = SamplePath(Primes(), seed, 0)
    assert mellin_discrepancy(path, s, 500.0) < 1e-12


@given(st.lists(st.lists(st.sampled_from([0.55, 0.7, 1.3, 2.0]),
                         min_size=1, max_size=3), min_size=1, max_size=8),
       st.sampled_from([1.0, 1e3, 3e4, 5e4, 1e5]),
       st.integers(1500, 4000))
@settings(max_examples=60, deadline=None)
def test_property_weight_cache_returns_the_requested_array(calls, cutoff, budget):
    # any interleaving of certified calls under a budget small enough to
    # evict: each sigma gets exactly its own array with its own bound, every
    # memo entry is one, and the memo never holds more than the budget
    # (patched by hand: a function-scoped monkeypatch would span every
    # example)
    seq = WeightedNaturals(2.0)
    path = SamplePath(seq, 1, 0)
    cert = tail_certificate(seq, 0.55, cutoff, 0.05)
    count = cert.count
    saved = frequencies.DEFAULT_TERM_BUDGET
    frequencies.DEFAULT_TERM_BUDGET = budget
    try:
        for sigmas in calls:
            if len(sigmas) * count > budget:
                memo = dict(cert.scan_weights)
                with pytest.raises(ResourceBudgetError):
                    decide(path, sigmas, cert)
                assert cert.scan_weights == memo
                continue
            entries, _ = evaluation._certified_weights(path, sigmas, cert)
            for sigma, (w, bound) in [*zip(sigmas, entries),
                                      *cert.scan_weights.items()]:
                expected = seq._powers(seq.start_index, count, -sigma)
                assert w.tobytes() == expected.tobytes()
                assert bound == evaluation._upper_sum(expected)
            assert len(cert.scan_weights) * count <= budget
    finally:
        frequencies.DEFAULT_TERM_BUDGET = saved


def test_held_weights_count_against_the_budget(monkeypatch):
    # one call's weight arrays are checked in total before any is formed:
    # each 1000-term array fits a budget of 2500, three of them do not
    seq = Naturals()
    path = SamplePath(seq, 1, 0)
    cert = tail_certificate(seq, 0.6, 1000.0, 0.05)
    monkeypatch.setattr(frequencies, "DEFAULT_TERM_BUDGET", 2500)
    formed = []  # every weight array is passed to _upper_sum once formed
    upper_sum = evaluation._upper_sum
    monkeypatch.setattr(evaluation, "_upper_sum",
                        lambda w: formed.append(w.size) or upper_sum(w))
    for call in (lambda: partial_sum_table(path, [(s, 1000.0) for s in (0.7, 0.8, 0.9)]),
                 lambda: decide(path, [0.7, 0.8, 0.9], cert),
                 lambda: evaluate(path, [0.7, 0.8, 0.9], cert)):
        with pytest.raises(ResourceBudgetError, match="needs 3000 terms"):
            call()
        assert formed == [] and cert.scan_weights == {}
    assert len(decide(path, [0.7, 0.8], cert)) == 2


def test_weight_cache_miss_holds_no_element_array():
    # a weight array is filled a chunk at a time: forming it allocates the
    # 8-byte-per-term result and a few chunks, not the elements beside it
    count = 2_000_000
    tracemalloc.start()
    try:
        [(w, _)] = evaluation._weight_pairs(Naturals(), [(0.53, count)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.size == count
    assert 8 * count <= peak < 8 * count + 4 * 8 * 2 ** 16
