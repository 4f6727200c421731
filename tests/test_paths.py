import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichletlab import Naturals, Primes, SamplePath, ValidationError, limits, paths
from dirichletlab.experiments import BuEventConfig, _trials
from dirichletlab.frequencies import make_sequence

from conftest import path_with_signs


def test_sign_values_and_determinism():
    path = SamplePath(Naturals(), master_seed=42, trial_index=3)
    signs = [path.sign_at(i) for i in range(1, 200)]
    assert set(signs) <= {-1, 1}
    assert signs == [path.sign_at(i) for i in range(1, 200)]
    again = SamplePath(Naturals(), master_seed=42, trial_index=3)
    assert signs == [again.sign_at(i) for i in range(1, 200)]


def test_vectorized_matches_scalar():
    path = SamplePath(Primes(), master_seed=9, trial_index=1)
    vec = path.signs_up_to(path.seq.element(499))
    assert vec.tolist() == [float(path.sign_at(i)) for i in range(1, 500)]


def _sha(signs):
    return hashlib.sha256(signs.tobytes()).hexdigest()


def test_generator_bits_are_pinned():
    # golden digests: any change to the generator's bits changes payloads
    assert _sha(SamplePath(Naturals(), 7, 0).signs_up_to(10**5)) == (
        "cfa18912a8a1308e39185cb7353bfcd33fd6c50cfcc474c351c290a2dda192ab")
    signs = SamplePath(make_sequence("weighted:2.0"), 1, 0).signs_up_to(1e5)
    assert signs.size == 1782
    assert _sha(signs) == (
        "7b56a66850104682b61f7c53d108b985023b379261d1d336ac78164f3a8105f5")


def test_streams_differ_across_trials_and_seeds():
    n = 100_000
    base = SamplePath(Naturals(), 7, 0).signs_up_to(n)
    other_trial = SamplePath(Naturals(), 7, 1).signs_up_to(n)
    other_seed = SamplePath(Naturals(), 8, 0).signs_up_to(n)
    for other in (other_trial, other_seed):
        corr = float(np.mean(base * other))
        assert abs(corr) < 0.05


def test_signs_balanced():
    n = 1_000_000
    signs = SamplePath(Naturals(), 123, 0).signs_up_to(n)
    assert abs(float(np.mean(signs))) <= 0.004


def test_normalized_sums_have_unit_variance():
    # CLT sanity on the generator itself: 400 trials of n=4096 signs
    n, trials = 4096, 400
    vals = []
    for t in range(trials):
        s = SamplePath(Naturals(), 55, t).signs_up_to(n)
        vals.append(float(np.sum(s)) / math.sqrt(n))
    var = float(np.var(vals))
    assert 0.8 < var < 1.2


def test_forced_path_validation():
    with pytest.raises(ValidationError):
        SamplePath(Naturals(), 3, -1)
    with pytest.raises(ValidationError):
        SamplePath(Naturals(start_index=4), 3, 0).sign_at(2)


def _brute_force_sup(path, seq, lo, hi, sigma0, terms):
    # max over x in (lo, hi] of |sum over lo < p <= x of X_p p**-sigma0|
    acc, best = 0.0, 0.0
    for i in range(seq.start_index, seq.start_index + terms):
        p = seq.element(i)
        if lo < p <= hi:
            acc += path.sign_at(i) * p ** -sigma0
            best = max(best, abs(acc))
    return best


def test_running_sup_matches_brute_force():
    # the running sup of the bu_event trial's prefix windows
    cfg = BuEventConfig(cutoff_ladder=(10.0, 100.0), horizon_factor=2.0)
    seq = make_sequence(cfg.seq)
    row = _trials(cfg, range(2, 3))[0]
    path = SamplePath(seq, cfg.master_seed, 2)
    for u, sup in zip(cfg.cutoff_ladder, row["sups"]):
        best = _brute_force_sup(path, seq, u, u * cfg.horizon_factor, 0.5, 200)
        assert sup == pytest.approx(best, rel=1e-12)
        assert sup > 0.0


def test_running_sup_empty_range():
    cfg = BuEventConfig(cutoff_ladder=(1.0,), horizon_factor=2.0)
    seq = make_sequence(cfg.seq)
    assert seq.elements_up_to(2.0)[seq.counting_function(1.0):].size == 0
    assert _trials(cfg, range(1))[0]["sups"] == [0.0]


_CH = 1 << 16


@given(
    st.sampled_from([1, 2, 7, 1 << 40]),
    st.lists(st.sampled_from([-1, 1]), max_size=4),
    st.sampled_from([0, 1, _CH - 1, _CH, _CH + 1, 2 * _CH + 3]),
    st.integers(0, 2 ** 63 - 1),
)
@settings(max_examples=40, deadline=None)
def test_property_scalar_vector_agree(start, lead, count, seed):
    # the stream, the vector filled from it and the single sign read from
    # the word serve the same signs
    path = path_with_signs(Naturals(start_index=start), lead, seed)
    vec = path.signs_up_to(start - 1 + count)
    chunks = [(off, signs.copy()) for off, _, signs in paths._sign_stream([path], count)]
    assert [off for off, _ in chunks] == list(range(0, count, _CH))
    streamed = np.concatenate([np.empty(0)] + [signs for _, signs in chunks])
    assert vec.size == count
    assert vec.tobytes() == streamed.tobytes()
    assert vec[:len(lead)].tolist() == [float(s) for s in lead][:count]
    edges = {0, count - 1, len(lead)} | {e + d for e in (_CH, 2 * _CH)
                                         for d in (-1, 0)}
    for k in sorted(k for k in edges if 0 <= k < count):
        assert float(path.sign_at(start + k)) == vec[k]


def test_mixing_calls_cover_a_block(monkeypatch):
    # one mixer call mixes about _CH words: one chunk of each of 64 paths,
    # or 64 chunks of one path; a stream of at most one chunk is one call,
    # and a single sign is none
    words = []
    original = paths._mix_words

    def counting(bases, z, tmp):
        words.append(z.size)
        return original(bases, z, tmp)

    monkeypatch.setattr(paths, "_mix_words", counting)
    primes = Primes()
    assert -(-primes.counting_function(1e7) // _CH) == 11
    limits.clt_sample(primes, 0.6, 1e7, 1, 64)
    assert len(words) == 11
    assert words[:10] == [64 * (_CH // 64 + 1)] * 10
    path = SamplePath(Naturals(), 1, 0)
    words.clear()
    for _ in paths._sign_stream([path], 3 * 64 * _CH + 5):
        pass
    assert len(words) == 4
    block = [SamplePath(Naturals(), 1, t) for t in range(64)]
    for count in (1, 1782, _CH):
        for stream in (paths._sign_stream([path], count), paths._sign_stream(block, count)):
            words.clear()
            for _ in stream:
                pass
            assert len(words) == 1
    words.clear()
    for i in (1, 63, 64, _CH + 1, (1 << 40) + 37):
        path.sign_at(i)
    assert words == []


_GAMMA = 0x9E3779B97F4A7C15


def _oracle_signs(path, first, count):
    # bit i % 64 of the integer word i // 64, read with Python ints alone
    out = []
    for i in range(first, first + count):
        word = paths._mix64(path._key + (i // 64) * _GAMMA)
        out.append(1.0 if word >> (i % 64) & 1 else -1.0)
    return out


@given(
    st.integers(0, 2 ** 64 - 1),
    st.integers(0, 2 ** 20),
    st.one_of(st.integers(1, 200),
              st.sampled_from([_CH - 1, _CH, _CH + 1, 1 << 40, (1 << 40) + 37])),
    st.one_of(st.integers(0, 200),
              st.sampled_from([_CH - 1, _CH, _CH + 63, 2 * _CH + 65])),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_property_signs_match_the_word_bit_oracle(seed, trial, start, count, data):
    # the sign of index i is bit i % 64 of word i // 64, mixed from
    # key + (i // 64) * gamma; every accessor serves that bit
    path = SamplePath(Naturals(start_index=start), seed, trial)
    oracle = _oracle_signs(path, start, count)
    vec = path.signs_up_to(start - 1 + count)
    assert vec.tolist() == oracle
    streamed = [x for _, _, signs in paths._sign_stream([path], count) for x in signs.tolist()]
    assert streamed == oracle
    if count:
        picks = data.draw(st.lists(st.integers(0, count - 1), max_size=8))
        for k in {0, count - 1, *picks}:
            assert path.sign_at(start + k) == oracle[k]


def test_sign_bits_pass_binomial_bounds():
    # For independent fair signs, each statistic below is the mean of m
    # independent +-1 values (a product of two distinct signs is one), and
    # Hoeffding's bound on the binomial gives
    # P(|mean| >= t) <= 2 exp(-m t**2 / 2).
    # Over 4 keys x (mean, lag 1, lag 64, 64 bit positions) = 268 checks,
    # each at level 1e-4 / 268 (Bonferroni), the family fails a correct
    # generator with probability below 1e-4.
    n = 1 << 20
    keys = [(1, 0), (2, 0), (2, 1), (2 ** 63 + 5, 7)]
    level = 1e-4 / (len(keys) * (3 + 64))

    def bound(m):
        return math.sqrt(2.0 * math.log(2.0 / level) / m)

    for seed, trial in keys:
        # indices 64 .. 64 + n - 1, so column b of the rows holds bit b
        signs = SamplePath(Naturals(), seed, trial).signs_up_to(n + 63)[63:]
        assert signs.size == n
        assert abs(float(np.mean(signs))) < bound(n)
        for lag in (1, 64):
            assert abs(float(np.mean(signs[lag:] * signs[:-lag]))) < bound(n - lag)
        by_bit = np.abs(signs.reshape(-1, 64).mean(axis=0))
        assert float(by_bit.max()) < bound(n // 64)
