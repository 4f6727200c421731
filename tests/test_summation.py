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


def test_chunk_rule_matches_reshaped_partials():
    # up to 2**16 terms: fsum; above: pairwise sums of the full chunks,
    # reduced as one 2-d array, plus fsum of the remainder, combined by fsum
    ch = 1 << 16
    rng = np.random.default_rng(3)
    x = rng.standard_normal(ch) * 10.0 ** rng.uniform(-8, 8, ch)
    assert compensated_sum(x) == math.fsum(x.tolist())
    for n in (ch + 1, 3 * ch, 3 * ch + 7, 10 ** 6):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        full = n - n % ch
        partials = x[:full].reshape(-1, ch).sum(axis=1).tolist()
        partials.append(math.fsum(x[full:].tolist()))
        assert compensated_sum(x).hex() == math.fsum(partials).hex()
