"""Shared independent oracles for the test suite.

These are deliberately implemented from scratch (trial division, an
Euler-Maclaurin zeta evaluation) so they share no code with the package
under test.  Two helpers are the exception.  ``partial_sum_table`` reads
partial sums from the package's one summation kernel.  ``path_with_signs``
finds, through the public path API, a path that carries prescribed signs.
``explicit`` builds an ``Explicit`` sequence without its construction
warning.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from dirichletlab import Explicit, SamplePath, ValidationError
from dirichletlab.evaluation import _signed_sums, _weight_arrays


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def zeta_em(s: float, n_terms: int = 64) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin with three
    correction terms; accurate to ~1e-14 for s in (1, 10]."""
    n = n_terms
    head = math.fsum(k ** (-s) for k in range(1, n))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    tail += s * n ** (-s - 1.0) / 12.0
    tail -= s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0
    return head + tail


def partial_sum_table(path: SamplePath, points) -> list[float]:
    """sum(X_p * p**-sigma for served p <= cutoff) for each (sigma, cutoff)
    pair: ``_signed_sums``' values over ``_weight_arrays``' weights, from
    one sign pass."""
    if any(c < 1 for _, c in points):
        raise ValidationError("cutoff must be >= 1")
    seq = path.seq
    weights = _weight_arrays(seq, [(s, seq._count_up_to(c)) for s, c in points])
    return _signed_sums([path], weights)[0]


def path_with_signs(seq, signs, master_seed: int = 0) -> SamplePath:
    """The path of ``seq`` with the least trial index whose leading served
    signs are ``signs``; a pattern of k signs takes about 2**k draws."""
    start = seq.start_index
    for trial in itertools.count():
        path = SamplePath(seq, master_seed, trial)
        if all(path.sign_at(start + k) == s for k, s in enumerate(signs)):
            return path


def explicit(values, **kw) -> Explicit:
    """``Explicit(values)`` with its construction warning silenced, so it
    can also be built where no ``recwarn`` captures it (parametrize lists)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Explicit(tuple(values), **kw)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@pytest.fixture(scope="session")
def small_primes():
    return trial_division_primes(10_000)


@pytest.fixture(autouse=True)
def _quiet_expected_warnings(recwarn):
    yield
