import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichletlab.summation import compensated_sum


def test_matches_fsum_small():
    vals = [0.1, 0.2, -0.3, 1e16, -1e16, 1.0]
    assert compensated_sum(np.array(vals)) == math.fsum(vals)


def test_large_array_deterministic_and_accurate():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300_000)
    s1 = compensated_sum(x)
    s2 = compensated_sum(x)
    assert s1 == s2
    assert abs(s1 - math.fsum(x.tolist())) < 1e-9


def test_cancellation_heavy():
    # pairs that cancel exactly plus a tiny residue: naive cumulative
    # summation loses the residue, the compensated sum must not
    big = np.full(10_000, 1e12)
    arr = np.concatenate([big, -big, np.full(10, 1e-6)])
    assert abs(compensated_sum(arr) - 1e-5) < 1e-18


@given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=200))
@settings(max_examples=100, deadline=None)
def test_property_matches_fsum(vals):
    assert compensated_sum(np.array(vals, dtype=float)) == math.fsum(vals)
