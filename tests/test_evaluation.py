import dataclasses
import math
import tracemalloc

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
from dirichletlab import evaluation
from dirichletlab.evaluation import (
    EXACT,
    PROBABILISTIC,
    TailCertificate,
    decide,
    evaluate,
    excursion_probability_bound,
    heuristic_cutoff,
    mellin_discrepancy,
    partial_sum,
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
    assert partial_sum(plus, 1.0, 10.0) == pytest.approx(1 / 2 + 1 / 3)
    mixed = path_with_signs(seq, [1, -1])
    assert partial_sum(mixed, 1.0, 10.0) == pytest.approx(1 / 2 - 1 / 3)


def test_partial_sum_matches_order_reversed_oracle():
    path = SamplePath(Naturals(), 21, 0)
    value = partial_sum(path, 0.8, 50_000)
    terms = [path.sign_at(i) * i ** -0.8 for i in range(1, 50_001)]
    oracle = math.fsum(reversed(terms))
    assert value == pytest.approx(oracle, abs=1e-11)


def test_partial_sum_table_consistent():
    path = SamplePath(Primes(), 5, 2)
    points = [(0.7, 1000.0), (1.0, 5000.0), (1.5, 100.0)]
    table = partial_sum_table(path, points)
    for (s, c), v in zip(points, table):
        assert v == partial_sum(path, s, c)


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
    # Naturals(start_index=5) and Naturals() share a spec string; the
    # weight cache must still never hand one of them the other's weights
    shifted = SamplePath(Naturals(start_index=5), 1, 0)
    evaluation._WEIGHT_CACHE.clear()
    cold = partial_sum(shifted, 0.8, 100)
    partial_sum(SamplePath(Naturals(), 1, 0), 0.8, 1000)
    warm = partial_sum(shifted, 0.8, 100)
    assert warm == cold
    oracle = math.fsum(shifted.sign_at(i) * i ** -0.8 for i in range(5, 101))
    assert cold == pytest.approx(oracle, abs=1e-14)


def test_weight_cache_evicts_oldest(monkeypatch):
    monkeypatch.setattr(evaluation, "_WEIGHT_CACHE", {})
    monkeypatch.setattr(evaluation, "_WEIGHT_CACHE_LIMIT", 2500)
    for sigma in (0.6, 0.7, 0.8, 0.9):  # 1000 weights each
        evaluation._weights(Naturals(), sigma, 1000)
    assert [s for _, s in evaluation._WEIGHT_CACHE] == [0.8, 0.9]


def test_weight_cache_miss_reads_elements_without_counting(monkeypatch):
    monkeypatch.setattr(evaluation, "_WEIGHT_CACHE", {})
    seq = WeightedNaturals(2.0)
    count = seq.counting_function(1e4)
    elems = seq.elements_up_to(1e4)
    counted = []
    original = FrequencySequence.counting_function

    def counting(self, x):
        counted.append(x)
        return original(self, x)

    monkeypatch.setattr(FrequencySequence, "counting_function", counting)
    given_count = evaluation._weights(seq, 0.8, 1e4, count=count)
    assert counted == []
    counted_here = evaluation._weights(seq, 0.9, 1e4)
    assert counted == [1e4]
    assert np.array_equal(given_count, elems ** -0.8)
    assert np.array_equal(counted_here, elems ** -0.9)


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


def test_decided_sign_logic():
    from dirichletlab.evaluation import CertifiedValue

    assert CertifiedValue(1.0, 0.5, 10, 0.4, PROBABILISTIC).decided_sign == 1
    assert CertifiedValue(1.0, -0.5, 10, 0.4, PROBABILISTIC).decided_sign == -1
    assert CertifiedValue(1.0, 0.3, 10, 0.4, PROBABILISTIC).decided_sign is None


def test_heuristic_cutoff_rule_and_budget_error():
    assert heuristic_cutoff(1.0) == pytest.approx(math.e)
    assert heuristic_cutoff(0.75) == math.exp(2.0)
    with pytest.raises(ValidationError):
        heuristic_cutoff(0.5)
    # the variance profile's scale is the rule; past the budget it names
    # the smallest exponent whose scale fits
    assert variance_profile(Naturals(), 0.8).scale == heuristic_cutoff(0.8)
    with pytest.raises(ResourceBudgetError, match="minimal feasible sigma"):
        variance_profile(Naturals(), 0.51, budget=1_000_000)


def test_partial_sum_golden():
    # captured before the chunk partials were summed by exact_sum
    got = partial_sum(SamplePath(Naturals(), 7, 0), 0.75, 1e5)
    assert got.hex() == "-0x1.01b5a965cf71cp+0"


def test_non_finite_exponents_rejected():
    seq = Naturals()
    path = SamplePath(seq, 1, 0)
    cert = tail_certificate(seq, 0.8, 1e4, 0.01)
    for call in (
        lambda: tail_certificate(seq, math.nan, 1e4, 0.01),
        lambda: tail_certificate(seq, math.inf, 1e4, 0.01),
        lambda: evaluate(path, [math.nan], cert),
        lambda: evaluate(path, [math.inf], cert),
        lambda: partial_sum(path, math.nan, 1e4),
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


def test_weight_cache_replacement_counts_only_other_entries(monkeypatch):
    # a longer array for a cached (seq, sigma) replaces the shorter one, so
    # only the other entries count toward the limit: 1000 + 1200 <= 2500
    monkeypatch.setattr(evaluation, "_WEIGHT_CACHE", {})
    monkeypatch.setattr(evaluation, "_WEIGHT_CACHE_LIMIT", 2500)
    for sigma, cutoff in ((0.7, 1000), (0.6, 1000), (0.6, 1200)):
        evaluation._weights(Naturals(), sigma, cutoff)
    assert [(s, a.size) for (_, s), a in evaluation._WEIGHT_CACHE.items()] == [
        (0.7, 1000), (0.6, 1200)]


def test_weight_cache_miss_holds_no_element_array(monkeypatch):
    # a cold miss fills its weights a chunk at a time: it allocates the
    # 8-byte-per-term result and a few chunks, not the elements beside it
    monkeypatch.setattr(evaluation, "_WEIGHT_CACHE", {})
    count = 2_000_000
    tracemalloc.start()
    try:
        w = evaluation._weights(Naturals(), 0.53, float(count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.size == count
    assert 8 * count <= peak < 8 * count + 4 * 8 * 2 ** 16
