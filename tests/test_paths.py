import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichletlab import Naturals, Primes, SamplePath, ValidationError
from dirichletlab.experiments import BuEventConfig, _bu_trial
from dirichletlab.frequencies import make_sequence
from dirichletlab.paths import all_plus_path


def test_sign_values_and_determinism():
    path = SamplePath(Naturals(), master_seed=42, trial_index=3)
    signs = [path.sign_at(i) for i in range(1, 200)]
    assert set(signs) <= {-1, 1}
    assert signs == [path.sign_at(i) for i in range(1, 200)]
    again = SamplePath(Naturals(), master_seed=42, trial_index=3)
    assert signs == [again.sign_at(i) for i in range(1, 200)]


def test_vectorized_matches_scalar():
    path = SamplePath(Primes(), master_seed=9, trial_index=1)
    idx = np.arange(1, 500, dtype=np.uint64)
    vec = path.signs_for_indices(idx)
    assert vec.tolist() == [float(path.sign_at(i)) for i in range(1, 500)]


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


def test_forced_path_pins_only_requested_indices():
    base = SamplePath(Naturals(), 3, 0)
    pinned = SamplePath(Naturals(), 3, 0, forced=((5, 1), (9, -1)))
    assert pinned.sign_at(5) == 1
    assert pinned.sign_at(9) == -1
    for i in (1, 2, 3, 4, 6, 7, 8, 10, 11):
        assert pinned.sign_at(i) == base.sign_at(i)
    vec = pinned.signs_up_to(12)
    assert vec[4] == 1.0 and vec[8] == -1.0


def test_forced_path_validation():
    with pytest.raises(ValidationError):
        SamplePath(Naturals(), 3, 0, forced=((5, 2),))
    with pytest.raises(ValidationError):
        SamplePath(Naturals(start_index=4), 3, 0, forced=((2, 1),))


def test_forced_duplicates():
    # a repeated pin with the same sign is harmless; conflicting ones have
    # no defined winner and are rejected
    same = SamplePath(Naturals(), 3, 0, forced=((5, 1), (5, 1)))
    assert same.sign_at(5) == 1 and same.signs_up_to(6)[4] == 1.0
    with pytest.raises(ValidationError, match="conflicting"):
        SamplePath(Naturals(), 3, 0, forced=((5, 1), (7, 1), (5, -1)))


def test_all_plus_path():
    p = all_plus_path(Naturals(), 1, 0, 50)
    assert p.signs_up_to(50).tolist() == [1.0] * 50
    # beyond the forced range the generator takes over
    tail = [p.sign_at(i) for i in range(51, 200)]
    assert -1 in tail


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
    row = _bu_trial(cfg, 2)
    path = SamplePath(seq, cfg.master_seed, 2)
    for u, sup in zip(cfg.cutoff_ladder, row["sups"]):
        best = _brute_force_sup(path, seq, u, u * cfg.horizon_factor, 0.5, 200)
        assert sup == pytest.approx(best, rel=1e-12)
        assert sup > 0.0


def test_running_sup_empty_range():
    cfg = BuEventConfig(cutoff_ladder=(1.0,), horizon_factor=2.0)
    seq = make_sequence(cfg.seq)
    assert seq.elements_between(1.0, 2.0).size == 0
    assert _bu_trial(cfg, 0)["sups"] == [0.0]


@given(st.integers(0, 2 ** 63 - 1), st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_property_scalar_vector_agree(seed, trial):
    path = SamplePath(Naturals(), seed, trial)
    idx = np.arange(1, 40, dtype=np.uint64)
    assert path.signs_for_indices(idx).tolist() == [
        float(path.sign_at(i)) for i in range(1, 40)
    ]


@given(
    st.lists(
        st.tuples(st.integers(1, 200), st.sampled_from((-1, 1))),
        max_size=40,
        unique_by=lambda pin: pin[0],
    ),
    st.integers(1, 120),
    st.integers(0, 80),
    st.integers(0, 2 ** 63 - 1),
)
@settings(max_examples=100, deadline=None)
def test_property_pinned_vector_matches_scalar(pins, lo, n, seed):
    # pins fall below, inside and beyond [lo, lo + n) and arrive unsorted
    path = SamplePath(Naturals(), seed, 2, forced=tuple(pins))
    base = SamplePath(Naturals(), seed, 2)
    pinned = dict(pins)
    oracle = [float(pinned.get(i, base.sign_at(i))) for i in range(lo, lo + n)]
    assert [float(path.sign_at(i)) for i in range(lo, lo + n)] == oracle
    idx = np.arange(lo, lo + n, dtype=np.uint64)
    assert path.signs_for_indices(idx).tolist() == oracle
    assert path.signs_for_indices(idx[::-1]).tolist() == oracle[::-1]
