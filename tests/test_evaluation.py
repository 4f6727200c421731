import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dirichletlab import (
    Naturals,
    Primes,
    ResourceBudgetError,
    SamplePath,
    ValidationError,
    WeightedNaturals,
)
from dirichletlab import evaluation, frequencies, paths, summation
from dirichletlab.bounds import excursion_probability_bound
from dirichletlab.evaluation import (
    EXACT,
    PROBABILISTIC,
    TailCertificate,
    decide,
    evaluate,
    heuristic_cutoff,
    mellin_discrepancy,
    tail_certificate,
)
from dirichletlab.frequencies import FrequencySequence
from dirichletlab.limits import variance_profile
from dirichletlab.zeros import scan_certificate

from conftest import explicit, partial_sum_table, path_with_signs, zeta_em


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
_ROW = evaluation._ROW
# term counts on both sides of the row and chunk edges of the summation kernel
_KERNEL_LENGTHS = [0, 1, _ROW - 1, _ROW, _ROW + 1, _CH - 1, _CH, _CH + 1,
                   2 * _CH + _ROW + 5, 3 * _CH + 7]
# one 1.0 and fourteen weights just under half an ulp of 1: summed left to
# right (numpy's dot does so below 16 terms) every small term is lost, so
# the dot product errs by about 12.6 ulps of 1 of the 14 its bound allows
_STAIR = explicit([1.0] + [1e16 + 4.0 * k for k in range(14)])


def _assert_within_band(sums, signs, weights):
    # the products s_i * w_i are exact, as s_i = +-1, so their math.fsum is
    # the exact signed sum rounded once; exact_sum gives it bit for bit
    # (test_summation checks this) at a tenth of fsum's time over a list.
    # The band bounds any summation order's error on |w| (it also covers
    # the weights' own rounding, not made here)
    assert len(sums) == len(weights)
    for value, w in zip(sums, weights):
        exact = summation.exact_sum(signs[:w.size] * w)
        assert abs(value - exact) <= evaluation._band_slack(np.abs(w)), (w.size, value, exact)


@given(
    lengths=st.lists(st.sampled_from(_KERNEL_LENGTHS), min_size=1, max_size=4),
    start=st.sampled_from([1, 2, 7, 1 << 40]),
    lead=st.lists(st.sampled_from([-1, 1]), max_size=4),
    seed=st.integers(0, 2**32 - 1),
    stair=st.booleans(),
)
# arrays of several lengths read the same streamed chunk of signs
@example(lengths=[3 * _CH + 7, _CH + 1, _CH - 1], start=1, lead=[], seed=3, stair=False)
@example(lengths=[_CH - 1, 3 * _CH + 7, _CH], start=7, lead=[1, -1], seed=4, stair=False)
# the stair under + signs, summed left to right, errs by more than half
# its band, so a band half as wide fails here
@example(lengths=[_ROW + 1], start=1, lead=[1] * 15, seed=9, stair=True)
@settings(max_examples=25, deadline=None)
def test_property_streamed_sums_lie_within_the_band(lengths, start, lead, seed, stair):
    # the kernel never builds the full product, yet each sum must lie
    # within the band of the exact signed sum over the materialized signs
    rng = np.random.default_rng(seed)
    # signed terms over many magnitudes
    weights = [rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
               for n in lengths]
    if stair:
        weights.append(_STAIR.elements_up_to(2e16) ** -1.0)
    path = path_with_signs(Naturals(start_index=start), lead, seed)
    signs = path.signs_up_to(start - 1 + max(w.size for w in weights))
    _assert_within_band(evaluation._signed_sums([path], weights)[0], signs, weights)


def _word_signs(path, offset, count):
    # SplitMix64 words key + k * gamma in uint64 arithmetic (wrapping), their
    # bits least significant first: the signs of served positions
    # [offset, offset + count)
    first, lead = divmod(path.seq.start_index + offset, 64)
    k = np.uint64(first) + np.arange((lead + count + 63) // 64, dtype=np.uint64)
    z = np.uint64(path._key) + k * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    bits = np.unpackbits(z.astype("<u8").view(np.uint8), bitorder="little")
    return np.where(bits[lead:lead + count] == 1, 1.0, -1.0)


# the signs of each path that one mixing call covers in a block of n paths
def _batch(n):
    return max(1, paths._BLOCK // n) * _CH


@st.composite
def _blocks(draw):
    """A block size and one to two sum lengths on both sides of the row,
    chunk and mixing-call edges of that block, at most about 2**22 signs in
    all."""
    n = draw(st.integers(1, 70))
    b = _batch(n)
    lengths = [k for k in (1, 63, _ROW - 1, _ROW + 1, _CH - 1, _CH, _CH + 1,
                           b - 1, b + 1, b + _CH + 5)
               if n * k <= (1 << 22) + 2 * _CH]
    return n, draw(st.lists(st.sampled_from(lengths), min_size=1, max_size=2))


@given(block=_blocks(), start=st.sampled_from([1, 2, 63, 64, 65, 1 << 40]),
       seed=st.integers(0, 2**32 - 1))
# one path across its first mixing call's edge, 64 chunks in
@example(block=(1, [64 * _CH - 1]), start=1, seed=5)
@example(block=(1, [64 * _CH + 1]), start=1, seed=6)
# two chunks in one call for a block of two; a block past 64 paths
@example(block=(2, [_CH + 1, 63]), start=65, seed=7)
@example(block=(70, [_CH + 1]), start=1 << 40, seed=8)
@settings(max_examples=15, deadline=None)
def test_property_block_kernel_matches_each_path(block, start, seed):
    # a block streams its paths chunk-major through shared mixing calls;
    # every entry must be that path's own signs, and every sum must lie
    # within the band of the path's exact signed sum
    n, lengths = block
    seq = Naturals(start_index=start)
    block_paths = [SamplePath(seq, seed, t) for t in range(n)]
    count = max(lengths)
    entries = []
    for offset, i, signs in paths._sign_stream(block_paths, count):
        entries.append((offset, i))
        own = _word_signs(block_paths[i], offset, min(_CH, count - offset))
        assert signs.tobytes() == own.tobytes()
    assert entries == [(o, i) for o in range(0, count, _CH) for i in range(n)]
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal(k) * 10.0 ** rng.uniform(-6, 6, k) for k in lengths]
    got = evaluation._signed_sums(block_paths, weights)
    assert len(got) == n
    for path, sums in zip(block_paths, got):
        _assert_within_band(sums, path.signs_up_to(start - 1 + count), weights)


@given(lengths=st.permutations([0, 1, _ROW - 1, _ROW + 1, _CH - 1, _CH + 1]),
       n=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
# an empty array ahead of longer ones, in an order that no sort gives
@example(lengths=[1, 0, _CH + 1, _ROW - 1, _CH - 1, _ROW + 1], n=1, seed=1)
@example(lengths=[_ROW - 1, 0, 1, _CH + 1, _ROW + 1, _CH - 1], n=3, seed=2)
@settings(max_examples=20, deadline=None)
def test_property_block_sums_keep_the_callers_order(lengths, n, seed):
    # the kernel visits the arrays longest first and stops at the first
    # that ends before a chunk; each sum must still be the one its array
    # gives alone, bit for bit, in the order the caller passed the arrays
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal(k) for k in lengths]
    block = [SamplePath(Naturals(), seed, t) for t in range(n)]
    got = evaluation._signed_sums(block, weights)
    alone = [[evaluation._signed_sums([p], [w])[0][0] for w in weights] for p in block]
    assert [[v.hex() for v in sums] for sums in got] == \
        [[v.hex() for v in sums] for sums in alone]


@given(rows=st.lists(st.sampled_from([1, 5, _ROW - 1, _ROW + 1, _CH + 1, _CH + _ROW]),
                    min_size=1, max_size=5),
       lone=st.lists(st.sampled_from([0, 3, _ROW, _CH + 7]), max_size=3),
       height=st.integers(0, 4), n=st.sampled_from([1, 3]),
       seed=st.integers(0, 2**32 - 1))
# a stack whose rows end in a second chunk's first _ROW terms, beside a
# longer lone array
@example(rows=[_CH + 1], lone=[_CH + 7], height=3, n=3, seed=1)
@settings(max_examples=20, deadline=None)
def test_property_stacked_rows_sum_as_each_row_alone(rows, lone, height, n, seed):
    # a stack's rows go through the kernel together, mapped in one call
    # where they end within a chunk; each row's sum must be the bits it
    # gets as a lone array, for every path of a block, in the caller's order
    rng = np.random.default_rng(seed)
    stacks = [[rng.standard_normal(k) for _ in range(height)] for k in rows]
    weights = [*stacks, *(rng.standard_normal(k) for k in lone)]
    block = [SamplePath(Naturals(), seed, t) for t in range(n)]
    got = evaluation._signed_sums(block, weights)
    flat = [w for item in weights for w in (item if isinstance(item, list) else [item])]
    alone = [[evaluation._signed_sums([p], [w])[0][0] for w in flat] for p in block]
    assert [[v.hex() for v in sums] for sums in got] == \
        [[v.hex() for v in sums] for sums in alone]


# (sequence, cutoff) of a held vector: 304 terms (weighted:2.0 at 10**4),
# exactly _ROW, between _ROW and _CHUNK, exactly _CHUNK, one term past it,
# and 10**5
_HELD_CASES = [(WeightedNaturals(2.0), 1e4), (Naturals(), float(_ROW)),
               (Naturals(), 20_000.0), (Naturals(), float(_CH)),
               (Naturals(), _CH + 1.0), (Naturals(), 1e5)]


@given(case=st.sampled_from(_HELD_CASES),
       sigmas=st.lists(st.floats(0.55, 3.0), min_size=1, max_size=6),
       cuts=st.lists(st.sampled_from([0, 1, _ROW - 1, _ROW, _ROW + 1, _CH + _ROW]),
                     max_size=3),
       seed=st.integers(0, 2**32 - 1))
# rows that end one term past a chunk, and a _ROW into the second chunk
@example(case=_HELD_CASES[4], sigmas=[0.6, 2.5], cuts=[_CH + _ROW], seed=1)
@example(case=_HELD_CASES[5], sigmas=[0.6], cuts=[_CH + _ROW, _ROW], seed=2)
@settings(max_examples=30, deadline=None)
def test_property_held_sums_are_the_streamed_sums(case, sigmas, cuts, seed):
    # a scan's rounds sum each row alone against its held vector of signs;
    # every value must be, float.hex for float.hex, that of a streamed pass
    # over the same path: a round's stack of full rows, shorter rows within
    # the vector, a row of zeros (0.0, not -0.0, as fsum gives it) and an
    # empty stack
    seq, cutoff = case
    path = SamplePath(seq, seed, 0)
    count = seq._count_up_to(cutoff)
    held = path._signs(count)
    assert held.shape == (count,)
    stack = evaluation._weight_arrays(seq, [(s, count) for s in sigmas])
    shorter = [w[:min(k, count)] for w, k in zip(stack, cuts)]
    weights = [stack, *shorter, np.zeros(min(count, 7)), []]
    got = evaluation._signed_sums([path], weights, held)[0]
    want = evaluation._signed_sums([path], weights)[0]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert len(got) == len(sigmas) + len(shorter) + 1 and got[-1].hex() == "0x0.0p+0"


# (sequence, cutoff): no terms; counts within one _ROW, within one _CHUNK,
# and past one chunk by one term and by more than one _ROW
_STACK_CASES = [(WeightedNaturals(2.0), 1.0), (WeightedNaturals(2.0), 1e5),
                (Naturals(), float(_ROW)), (Naturals(), 10_000.0),
                (Naturals(), float(_CH)), (Naturals(), _CH + 1.0),
                (Naturals(), 2.0 * _CH + _ROW + 3)]


@given(case=st.sampled_from(_STACK_CASES),
       calls=st.lists(st.lists(st.floats(0.55, 4.0), max_size=12), min_size=1,
                      max_size=3),
       seed=st.integers(0, 2**32 - 1), evict=st.booleans())
@example(case=_STACK_CASES[1], calls=[[0.6, 0.7, 0.9], [], [0.7, 1.5, 0.6]],
         seed=3, evict=True)
@settings(max_examples=30, deadline=None)
def test_property_stacked_rounds_equal_each_exponent_alone(case, calls, seed, evict):
    # decide and evaluate dot a round's exponents as one stack, each with
    # the decision radius its certificate formed once; every sum, radius
    # and sign must be, float.hex for float.hex, that of the exponent on
    # its own from freshly formed weights, with or without a budget that
    # evicts entries between calls (patched by hand: a function-scoped
    # monkeypatch would span every example)
    seq, cutoff = case
    path = SamplePath(seq, seed, 0)
    cert = tail_certificate(seq, 0.55, cutoff, 0.05)
    saved = frequencies.DEFAULT_TERM_BUDGET
    if evict:
        frequencies.DEFAULT_TERM_BUDGET = max(map(len, calls)) * cert.count or 1
    try:
        for sigmas in calls:
            values = evaluate(path, sigmas, cert)
            signs = decide(path, sigmas, cert)
            assert len(values) == len(signs) == len(sigmas)
            for s, cv, sign in zip(sigmas, values, signs):
                w, = evaluation._weight_arrays(seq, [(s, cert.count)])
                v = evaluation._signed_sums([path], [w])[0][0]
                rho = math.nextafter(evaluation._certified_radius(cert, s)
                                     + evaluation._band_slack(w), math.inf)
                assert (cv.partial_sum.hex(), cv.error_radius.hex()) == (v.hex(), rho.hex())
                # the memo keeps the radius in the weights' own entry
                assert cert.scan_weights[s][1].hex() == rho.hex()
                assert sign == evaluation._sign_beyond(v, rho) == cv.decided_sign
                if cert.count == 0:
                    assert cv.partial_sum == 0.0
            assert len(cert.scan_weights) * cert.count <= frequencies.DEFAULT_TERM_BUDGET
    finally:
        frequencies.DEFAULT_TERM_BUDGET = saved


def test_decision_radii_are_each_certificates_own():
    # two certificates of one sequence whose thresholds differ, asked in
    # turn at the same sigma, each keep and use their own decision radius
    seq = WeightedNaturals(2.0)
    path = SamplePath(seq, 3, 0)
    low = tail_certificate(seq, 0.6, 1e4, 0.05)
    high = dataclasses.replace(low, threshold=4.0 * low.threshold)
    band = evaluation._band_slack(*evaluation._weight_arrays(seq, [(0.8, low.count)]))
    want = {id(c): math.nextafter(evaluation._certified_radius(c, 0.8) + band, math.inf)
            for c in (low, high)}
    assert want[id(low)] < want[id(high)]
    for cert in (low, high, low, high):
        (cv,) = evaluate(path, [0.8], cert)
        assert cv.error_radius == want[id(cert)]
        assert decide(path, [0.8], cert) == [evaluation._sign_beyond(cv.partial_sum,
                                                                   want[id(cert)])]
        assert [(s, rho) for s, (_, rho) in cert.scan_weights.items()] == [
            (0.8, want[id(cert)])]


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


def test_weight_cache_hit_becomes_the_newest(monkeypatch):
    # with room for three 1035-term arrays, a call that reads 0.7, forms
    # 1.3 and reads 0.7 again forms only 1.3: the first read moved 0.7 past
    # the entry that 1.3 pushes out
    seq = WeightedNaturals(2.0)
    path = SamplePath(seq, 1, 0)
    cert = tail_certificate(seq, 0.55, 5e4, 0.05)
    assert cert.count == 1035
    monkeypatch.setattr(frequencies, "DEFAULT_TERM_BUDGET", 3 * 1035)
    formed = []
    weight_arrays = evaluation._weight_arrays
    monkeypatch.setattr(evaluation, "_weight_arrays", lambda seq, points: (
        formed.extend(s for s, _ in points) or weight_arrays(seq, points)))
    decide(path, [0.7, 2.0, 0.55], cert)
    decide(path, [0.7, 1.3, 0.7], cert)
    assert formed == [0.7, 2.0, 0.55, 1.3]
    assert list(cert.scan_weights) == [0.55, 1.3, 0.7]


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


def test_every_tail_certificate_has_a_cutoff_of_at_least_one():
    # the certified radius rounds its exponent down, which rounds the radius
    # up only for a cutoff of at least 1: a certificate below it, built or
    # constructed, is refused before it holds a count or a threshold
    for cutoff in (0.5, 0.0, -1.0):
        with pytest.raises(ValidationError, match="cutoff must be >= 1"):
            tail_certificate(Naturals(), 0.6, cutoff, 0.01)
    for cutoff in (0.5, -1.0, math.nan):
        with pytest.raises(ValidationError, match="cutoff must be >= 1"):
            TailCertificate(Naturals(), 0.6, cutoff, threshold=1.0, eta=0.5,
                            tail_second_moment=1.0)
    assert tail_certificate(Naturals(), 0.6, 1.0, 0.01).count == 1


def test_threshold_and_bound_round_trip():
    cert = tail_certificate(Naturals(), 0.75, 1e3, 0.05)
    t = cert.threshold
    assert t == pytest.approx(math.sqrt(18 * cert.tail_second_moment * math.log(6 / 0.05)))
    back = excursion_probability_bound(cert.tail_second_moment, t)
    assert back == pytest.approx(0.05, rel=1e-12)


def _mp_threshold(t_upper, eta):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return mpmath.sqrt(18 * mpmath.mpf(t_upper) * mpmath.log(6 / mpmath.mpf(eta)))


@given(t_upper=st.floats(0.0, 1e300), eta=st.floats(1e-300, 1.0, exclude_max=True))
@example(t_upper=0.0, eta=0.05)
@example(t_upper=5e-324, eta=1e-300)
@settings(max_examples=300, deadline=None)
def test_tail_threshold_is_rounded_up(t_upper, eta):
    # the threshold is at least sqrt(18 * T * ln(6/eta)) at 50 digits, for
    # the float T the enclosure returns.  The naturals never run out, so
    # even a T of 0 (one that underflowed) leaves the certificate
    # unexhausted, with a positive threshold and its eta
    seq = Naturals()
    with mock.patch.object(Naturals, "tail_power_sum", lambda *a, **k: (0.0, t_upper)):
        cert = tail_certificate(seq, 0.75, 1e3, eta)
    assert cert.exhausted is False and cert.eta == eta
    assert cert.threshold > 0.0
    assert cert.threshold >= _mp_threshold(t_upper, eta)


def test_exhaustion_comes_from_the_sequence():
    # at sigma0 = 200 the naturals' tail second moment underflows to 0.0,
    # but elements remain above the cutoff: the threshold takes the floor
    # 2**-1000 under its root, eta is kept and the grade is probabilistic
    path = SamplePath(Naturals(), 1, 0)
    cert = tail_certificate(path.seq, 200, 1e4, 0.05)
    assert cert.tail_second_moment == 0.0
    assert cert.exhausted is False and cert.eta == 0.05
    assert cert.threshold == math.nextafter(2.0 ** -500, math.inf)
    (cv,) = evaluate(path, [200.0], cert)
    assert (cv.kind, cv.sigma0, cv.eta) == (PROBABILISTIC, 200.0, 0.05)
    # a finite sequence cut at or past its last element is exhausted and
    # exact, one cut below it is not, and a scan at 1/2 is allowed alike
    seq = explicit([2.0, 3.0, 4.0])
    for cutoff, exhausted in ((4.0, True), (10.0, True), (3.5, False)):
        cert = tail_certificate(seq, 0.6, cutoff, 0.05)
        assert cert.exhausted is exhausted
        (cv,) = evaluate(SamplePath(seq, 1, 0), [0.6], cert)
        assert cv.kind == (EXACT if exhausted else PROBABILISTIC)
        if exhausted:
            assert scan_certificate(seq, 0.5, cutoff, 0.05).exhausted
        else:
            with pytest.raises(ValidationError, match="finite sequence summed exactly"):
                scan_certificate(seq, 0.5, cutoff, 0.05)


def test_tail_thresholds_of_the_studies_are_rounded_up():
    for seq in (Naturals(), WeightedNaturals(exponent=2.0)):
        for sigma0 in (0.55, 0.6, 0.7, 0.75, 0.9, 1.2):
            for cutoff in (1e3, 1e4, 1e5):
                for eta in (0.05, 0.01, 1e-6):
                    cert = tail_certificate(seq, sigma0, cutoff, eta)
                    want = _mp_threshold(cert.tail_second_moment, eta)
                    assert cert.threshold >= want


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
    # the radius bounds rounding only: the float above the band alone
    w, rho = cert.scan_weights[0.2]
    assert cv.error_radius == rho == math.nextafter(evaluation._band_slack(w), math.inf)
    assert 0.0 < cv.error_radius < 1e-14
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


def _assert_decide_agrees_with_evaluate(path, sigmas, cert):
    """Every sign ``decide`` keeps is ``evaluate``'s where both decide, and
    None arises only where the filter's bracket can hold the radius: the
    filter value D and evaluate's value V are each within the band of the
    real value, so |V| - r <= 3 * band there."""
    values = evaluate(path, sigmas, cert)
    radii = [evaluation._certified_radius(cert, s) for s in sigmas]
    for d, cv, r in zip(decide(path, sigmas, cert), values, radii):
        if d is None:
            band = evaluation._band_slack(cert.scan_weights[cv.sigma][0])
            assert abs(cv.partial_sum) - r <= 3 * band
        elif cv.decided_sign is not None:
            assert d == cv.decided_sign


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
    # radii at the exact sum and a few floats either side put the filter
    # value inside its error band; a path whose leading ``plus`` signs are
    # +1 sums without cancellation
    path = path_with_signs(seq, [1] * plus, seed)
    cert = _cert_at(path, sigmas, cutoff, ulps, exhausted)
    _assert_decide_agrees_with_evaluate(path, sigmas, cert)


def _count_exact_blocks(monkeypatch):
    # every exact sum adds its blocks through _BlockSum.add
    calls = []
    original = summation._BlockSum.add

    def counting(self, block):
        calls.append(block.size)
        return original(self, block)

    monkeypatch.setattr(summation._BlockSum, "add", counting)
    return calls


def _assert_decide_sums_nothing_exactly(calls, path, cutoff, sigmas):
    at_sum = _cert_at(path, sigmas[:1], cutoff, 0, False)
    calls.clear()
    assert decide(path, sigmas[:1], at_sum) == [None]
    assert calls == []
    for threshold in (0.0, 1e-6, 1e6):
        cert = dataclasses.replace(at_sum, threshold=threshold)
        got = decide(path, sigmas, cert)
        values = evaluate(path, sigmas, cert)
        assert calls == []
        assert got == [cv.decided_sign for cv in values]


def test_decide_sums_nothing_exactly(monkeypatch):
    # decide and evaluate stream the signs once through the dot products
    # alone, even at a radius equal to the sum, where no bracket can clear it
    calls = _count_exact_blocks(monkeypatch)
    _assert_decide_sums_nothing_exactly(
        calls, SamplePath(WeightedNaturals(2.0), 3, 0), 1e4, [0.8, 1.1, 1.7])


def test_decide_runs_no_pairwise_pass_for_far_radii_on_a_long_sum(monkeypatch):
    # a 10**5-term sum, one full chunk and a remainder: far radii and a
    # radius at the sum are all settled by the chunked dot products alone,
    # and evaluate's values are the same dots
    calls = _count_exact_blocks(monkeypatch)
    _assert_decide_sums_nothing_exactly(
        calls, SamplePath(Naturals(), 3, 0), 1e5, [0.6, 0.8, 1.3])


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
    # sums of more than one chunk, where evaluate's value is the fsum of many
    # row dots: radii at that sum and up to three floats either side
    path = path_with_signs(seq, [1] * plus, seed)
    cutoff = seq.element(seq.start_index + n - 1)
    assert seq.counting_function(cutoff) == n
    cert = _cert_at(path, sigmas, cutoff, ulps, exhausted)
    _assert_decide_agrees_with_evaluate(path, sigmas, cert)


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
def test_heuristic_signs_equal_compensated_sum_signs(n):
    # the heuristic pass keeps sign(v) with v >= 0 counted as +1; the filter
    # at radius 0, in one pass, gives the same signs outside its band, long
    # sums included, and None (counted +1) for sums within the band of 0,
    # here exactly 0 and +-2**-40
    seq = Naturals()
    path = SamplePath(seq, 11, 2)
    weights = [_cancelling_ones(path, n, e) for e in (0.0, 2.0**-40, -(2.0**-40))]
    weights += evaluation._weight_arrays(
        seq, [(0.53, 3 * _LONG), (0.75, _LONG + 7), (1.2, 900)])
    entries = [(w, evaluation._band_slack(w)) for w in weights]
    rhos = [math.nextafter(band, math.inf) for _, band in entries]  # radius 0
    got = evaluation._filtered_signs([path], weights, rhos)[0]
    signs = path.signs_up_to(max(w.size for w in weights))
    sums = [summation.exact_sum(signs[:w.size] * w) for w in weights]
    assert sums[:3] == [0.0, 2.0**-40, -(2.0**-40)]
    assert got[:3] == [None] * 3
    for g, v, (_, band) in zip(got[3:], sums[3:], entries[3:]):
        assert abs(v) > 4 * band
        assert g == (1 if v >= 0 else -1)


@pytest.mark.parametrize("n", [0, 1, 2, 15, 1000, _LONG, _LONG + 1, 3 * _LONG, 10**8])
def test_band_slack_covers_the_proven_error_bound(n):
    # the bounds of decide's docstring, in exact rational arithmetic, times
    # the exact weight sum W: gamma_{n-1} up to one chunk, and past it
    # gamma_{K-1} plus the final rounding, then 2 * _POW_ULPS ulps of the
    # weights, and subnormal ulps; n equal weights (a broadcast view, so
    # 10**8 of them take no memory) from subnormal to near overflow
    u = Fraction(1, 2**53)
    ulps = evaluation._POW_ULPS

    def gamma(k):
        return k * u / (1 - k * u)

    if n <= _LONG:
        summation = gamma(max(n - 1, 0))
    else:
        summation = gamma(_LONG - 1) + u * (1 + gamma(_LONG - 1))
    for x in (2.0**-1074, 3e-310, 2.0**-1022, 0.37, 1.0, 1e290):
        w = np.broadcast_to(x, (n,))
        proven = ((summation + 2 * ulps * u) * n * Fraction(x)
                  + n * ulps * Fraction(2) ** -1074)
        assert Fraction(evaluation._band_slack(w)) >= proven


@given(
    threshold=st.floats(1e-300, 1e10),
    cutoff=st.floats(1.0, 1e20),
    sigma0=st.floats(-2.0, 3.0),
    gap=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
)
@example(threshold=1.0, cutoff=1e5, sigma0=0.55, gap=2.55)
# a power just below 2**-1021 times a threshold above 2**21: a normal radius
@example(threshold=2097428.0, cutoff=28469.0, sigma0=0.0, gap=69.0)
@settings(max_examples=150, deadline=None)
def test_certified_radius_is_rounded_outward(threshold, cutoff, sigma0, gap):
    # threshold * cutoff**-(sigma - sigma0) against 60-digit mpmath: never
    # below it, and above it where it is a normal float by little more
    # than the exponent's one ulp down; an exhausted certificate keeps +0.0
    mpmath = pytest.importorskip("mpmath")
    path = SamplePath(explicit([1.0, 2.0]), 1, 0)
    sigma = sigma0 + gap
    cert = TailCertificate(path.seq, sigma0, cutoff, threshold, eta=0.5,
                           tail_second_moment=1.0)
    r = evaluation._certified_radius(cert, sigma)
    with mpmath.workdps(60):
        mp = mpmath.mpf
        want = mp(threshold) * mp(cutoff) ** -(mp(sigma) - mp(sigma0))
        assert mp(r) >= want
        if want > 2.0 ** -1000:
            step = 2 * math.ulp(sigma - sigma0) * math.log(cutoff)
            assert mp(r) <= want * (1 + mp(2.0) ** -45 + step)
    exhausted = dataclasses.replace(cert, threshold=0.0, eta=0.0, exhausted=True)
    r0 = evaluation._certified_radius(exhausted, sigma)
    assert r0 == 0.0 and math.copysign(1.0, r0) == 1.0


def test_powers_within_pow_ulps_of_mpmath():
    # the assumption behind _POW_ULPS, on the spread its docstring names:
    # every sequence kind, elements up to 10**6 (the first ones, the last
    # and random ones between) and sigma in [0.5, 6], against 120-bit mpmath
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(26)
    worst = 0.0
    for seq in (Naturals(), Primes(), WeightedNaturals(2.0), WeightedNaturals(3.0)):
        n = seq.counting_function(1e6)
        elems = seq.elements_up_to(1e6)
        for sigma in [0.5, 6.0] + rng.uniform(0.5, 6.0, 3).tolist():
            w = seq._powers(seq.start_index, n, -sigma)
            picks = np.concatenate([np.arange(20), rng.integers(0, n, 200), [n - 1]])
            with mpmath.workprec(120):
                for p, x in zip(elems[picks].tolist(), w[picks].tolist()):
                    exact = mpmath.mpf(p) ** -mpmath.mpf(sigma)
                    worst = max(worst, float(abs(mpmath.mpf(x) - exact)) / math.ulp(x))
    assert worst <= evaluation._POW_ULPS


def test_exact_grade_sign_is_the_real_value_sign():
    # a 200-bit sum of +3.66e-18 whose float sum is -6.94e-18: with an
    # exhausted certificate neither decide nor evaluate may keep -1
    mpmath = pytest.importorskip("mpmath")
    seq = explicit((9.0, 24.0, 35.0, 38.0))
    path = SamplePath(seq, 0, 0)
    sigma = 0.8849149077106495
    cert = tail_certificate(seq, 0.5, 38.0, 0.05)
    assert cert.exhausted
    with mpmath.workprec(200):
        real = mpmath.fsum(int(x) * mpmath.mpf(p) ** -mpmath.mpf(sigma)
                           for x, p in zip(path.signs_up_to(38.0), seq.values))
    assert 3.6e-18 < real < 3.7e-18
    (cv,) = evaluate(path, [sigma], cert)
    assert cv.kind == EXACT and cv.partial_sum < 0.0
    assert cv.decided_sign != -1
    assert decide(path, [sigma], cert) != [-1]


def _real_zero(mpmath, values, signs):
    """A float next to a zero of sum s_i * p_i**-x, whose signs at +inf
    (the first element's) and at -inf (the last's) differ: the bracket is
    widened until it holds both, then bisected with 200-bit values until
    its ends are adjacent floats."""
    def sign(x):
        with mpmath.workprec(200):
            return mpmath.sign(mpmath.fsum(
                s * mpmath.mpf(p) ** -mpmath.mpf(x) for s, p in zip(signs, values)))

    lo, hi = -1.0, 1.0
    while sign(hi) != signs[0]:
        hi *= 2
    while sign(lo) != signs[-1]:
        lo *= 2
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats
            break
        at = sign(mid)
        if at == 0:
            return mid
        lo, hi = (mid, hi) if at == signs[-1] else (lo, mid)
    return lo


@given(
    values=st.lists(st.integers(1, 100), min_size=2, max_size=8, unique=True)
    .map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
@example(values=[9, 24, 35, 38], seed=0)
@settings(max_examples=40, deadline=None)
def test_property_no_decided_sign_disagrees_near_a_zero(values, seed):
    # the 61 floats within 30 ulps of a 200-bit zero of a small explicit
    # sum with mixed signs, under an exhausted certificate: every sign
    # decide or evaluate keeps is the 200-bit value's
    mpmath = pytest.importorskip("mpmath")
    seq = explicit([float(v) for v in values])
    path = SamplePath(seq, seed, 0)
    signs = [int(x) for x in path.signs_up_to(values[-1])]
    assume(signs[0] != signs[-1])
    zero = _real_zero(mpmath, values, signs)
    assume(abs(zero) < 100.0)  # every weight stays a finite float
    sigmas = [zero]
    for _ in range(30):
        sigmas = [math.nextafter(sigmas[0], -math.inf), *sigmas,
                  math.nextafter(sigmas[-1], math.inf)]
    cert = tail_certificate(seq, sigmas[0], float(values[-1]), 0.05)
    assert cert.exhausted
    with mpmath.workprec(200):
        truth = [int(mpmath.sign(mpmath.fsum(
            sg * mpmath.mpf(p) ** -mpmath.mpf(x) for sg, p in zip(signs, values))))
            for x in sigmas]
    for got in (decide(path, sigmas, cert),
                [cv.decided_sign for cv in evaluate(path, sigmas, cert)]):
        assert all(g is None or g == t for g, t in zip(got, truth))


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
    # captured when every sum became the fsum of row dots; 2.07 ulps above
    # a 200-bit sum of the real terms, against a band of 2.2e6 ulps
    got = partial_sum_table(SamplePath(Naturals(), 7, 0), [(0.75, 1e5)])[0]
    assert got.hex() == "-0x1.7936c234ec88fp+0"


_THREAD_PROBE = """
from dirichletlab import Naturals, SamplePath
from dirichletlab.evaluation import (_signed_sums, _weight_arrays, evaluate,
                                    tail_certificate)
from dirichletlab.limits import _weights_and_variance, clt_sample
path = SamplePath(Naturals(), 7, 0)
[w] = _weight_arrays(path.seq, [(0.75, path.seq._count_up_to(1e5))])
print(_signed_sums([path], [w])[0][0].hex())
print(*(x.hex() for x in clt_sample(Naturals(), 0.6, 1e6, 1, 64).tolist()))
print(_weights_and_variance(Naturals(), 0.6, 1e6)[1].hex())
cert = tail_certificate(Naturals(), 0.55, 1e5, 0.05)
assert cert.count > 10_000
round_ = evaluate(SamplePath(Naturals(), 7, 0), [0.6, 0.75, 0.9, 1.3, 2.2], cert)
print(*(cv.partial_sum.hex() for cv in round_))
"""


def test_sums_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS sums a dot of more than 10,000 terms on several threads, each
    # its own part; the kernel's rows are shorter, so the golden point, 64
    # draws of 10**6 terms, their variance and a stacked round of five
    # 10**5-term certified sums read the same at one BLAS thread and at two
    src = str(Path(evaluation.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout.split())
    assert outs[0] == outs[1]
    assert len(outs[0]) == 71
    # the round's stack gives each exponent the sum it gets alone
    alone = partial_sum_table(SamplePath(Naturals(), 7, 0),
                              [(s, 1e5) for s in (0.6, 0.75, 0.9, 1.3, 2.2)])
    assert outs[0][-5:] == [v.hex() for v in alone]
    assert outs[0][0] == "-0x1.7936c234ec88fp+0"


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
            ws, rhos = evaluation._certified_weights(path, sigmas, cert)
            for sigma, (w, rho) in [*zip(sigmas, zip(ws, rhos)),
                                    *cert.scan_weights.items()]:
                expected = seq._powers(seq.start_index, count, -sigma)
                assert w.tobytes() == expected.tobytes()
                assert rho == math.nextafter(evaluation._certified_radius(cert, sigma)
                                             + evaluation._band_slack(expected), math.inf)
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
    formed = []  # every weight array is formed by _powers
    powers = FrequencySequence._powers
    monkeypatch.setattr(FrequencySequence, "_powers",
                        lambda self, *args: formed.append(args) or powers(self, *args))
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
        [w] = evaluation._weight_arrays(Naturals(), [(0.53, count)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.size == count
    assert 8 * count <= peak < 8 * count + 4 * 8 * 2 ** 16
