import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichletlab import (
    ResourceBudgetError,
    ValidationError,
    WeightedRademacherInstance,
    exact_tail,
    hoeffding_bound,
    levy_bound,
    wilson_interval,
)
from dirichletlab.bounds import prefix_tail_probabilities


def brute_tail(weights, lam, mode):
    """Independent oracle: explicit iteration over all sign tuples."""
    n = len(weights)
    hits = 0
    for signs in product((-1, 1), repeat=n):
        prefix = 0.0
        best = -math.inf
        for s, a in zip(signs, weights):
            prefix += s * a
            best = max(best, abs(prefix))
        stat = abs(prefix) if mode == "sum" else best
        if stat >= lam:
            hits += 1
    return Fraction(hits, 2 ** n)


def test_exact_tail_matches_brute_force_oracle():
    weights = (0.8, 1.3, 0.2, 0.9)
    inst = WeightedRademacherInstance(weights)
    for lam in (0.5, 1.0, 2.0, 3.0):
        for mode in ("sum", "max_prefix_abs"):
            assert exact_tail(inst, lam, mode=mode) == brute_tail(
                weights, lam, mode
            )


def test_exact_tail_is_dyadic_rational():
    inst = WeightedRademacherInstance((1.0, 0.5, 0.25))
    p = exact_tail(inst, 1.0)
    assert isinstance(p, Fraction)
    assert p == Fraction(1, 2)
    # denominator is a power of two
    assert p.denominator & (p.denominator - 1) == 0


def test_hoeffding_dominates_exact():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        inst = WeightedRademacherInstance(
            tuple(float(w) for w in rng.uniform(0.05, 2.0, n))
        )
        sd = math.sqrt(inst.sum_of_squares)
        for lam in np.linspace(0.2 * sd, 3.5 * sd, 8):
            assert exact_tail(inst, float(lam)) <= hoeffding_bound(inst, float(lam))


def test_levy_dominates_exact_max_prefix():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        inst = WeightedRademacherInstance(
            tuple(float(w) for w in rng.uniform(0.05, 2.0, n))
        )
        sd = math.sqrt(inst.sum_of_squares)
        for t in np.linspace(0.3 * sd, 4.0 * sd, 8):
            exact = exact_tail(inst, float(t), mode="max_prefix_abs")
            assert exact <= levy_bound(inst, float(t))  # exact Fractions


def test_prefix_tail_probabilities_monotone_pieces():
    inst = WeightedRademacherInstance((0.5, 0.5, 0.5))
    probs = prefix_tail_probabilities(inst, 1.0)
    assert probs == [Fraction(0), Fraction(1, 2), Fraction(1, 4)]


def test_enumeration_cap():
    inst = WeightedRademacherInstance(tuple([1.0] * 25))
    with pytest.raises(ResourceBudgetError):
        exact_tail(inst, 1.0)


def test_validation():
    with pytest.raises(ValidationError):
        WeightedRademacherInstance(())
    with pytest.raises(ValidationError):
        WeightedRademacherInstance((1.0, math.inf))
    inst = WeightedRademacherInstance((1.0,))
    with pytest.raises(ValidationError):
        hoeffding_bound(inst, 0.0)
    with pytest.raises(ValidationError):
        exact_tail(inst, -1.0)
    with pytest.raises(ValidationError):
        exact_tail(inst, 1.0, mode="median")


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0 and 0.0 < hi < 0.25
    lo, hi = wilson_interval(20, 20)
    assert 0.75 < lo < 1.0 and hi == 1.0
    lo, hi = wilson_interval(10, 20)
    assert lo < 0.5 < hi
    wide = wilson_interval(10, 20, confidence=0.999)
    assert wide[0] < lo and wide[1] > hi


def test_wilson_validation():
    with pytest.raises(ValidationError):
        wilson_interval(5, 0)
    with pytest.raises(ValidationError):
        wilson_interval(21, 20)
    with pytest.raises(ValidationError):
        wilson_interval(1, 10, confidence=1.0)


@given(
    st.lists(st.floats(0.01, 3.0), min_size=1, max_size=10),
    st.floats(0.05, 8.0),
)
@settings(max_examples=120, deadline=None)
def test_property_bounds_dominate(weights, lam):
    inst = WeightedRademacherInstance(tuple(weights))
    assert exact_tail(inst, lam) <= hoeffding_bound(inst, lam)
    assert exact_tail(inst, lam, mode="max_prefix_abs") <= levy_bound(inst, lam)


@given(st.integers(0, 50), st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_property_wilson_contains_estimate(k, n):
    if k > n:
        k = n
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
