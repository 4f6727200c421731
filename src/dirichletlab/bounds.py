"""Exact and closed-form concentration oracles for weighted sign sums.

For S = sum(a_k * X_k) with independent uniform signs X_k, this module
gives the exact (dyadic-rational) tail probabilities by exhaustive
enumeration, the Hoeffding subgaussian bound, and a maximal-inequality
bound of the form 3 * max over prefixes of P(|S_m| >= t/3).  Enumeration
doubles an array of achievable sums, so probabilities come out as exact
Fractions with power-of-two denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .errors import ResourceBudgetError, ValidationError

EXHAUSTIVE_CAP = 24


@dataclass(frozen=True)
class WeightedRademacherInstance:
    """A finite weight vector for a sum of independent uniform signs."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValidationError("need at least one weight")
        for a in self.weights:
            if not math.isfinite(a):
                raise ValidationError("weights must be finite")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def sum_of_squares(self) -> float:
        return math.fsum(a * a for a in self.weights)


def _check_cap(n: int) -> None:
    if n > EXHAUSTIVE_CAP:
        raise ResourceBudgetError(
            f"exhaustive enumeration capped at {EXHAUSTIVE_CAP} weights, got {n}"
        )


def hoeffding_bound(instance: WeightedRademacherInstance, lam: float) -> float:
    """Two-sided subgaussian bound min(1, 2 exp(-lam^2 / (2 sum a^2)))."""
    if lam <= 0:
        raise ValidationError("lam must be positive")
    ss = instance.sum_of_squares
    if ss == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-(lam * lam) / (2.0 * ss)))


def _prefix_sums(weights: tuple[float, ...]):
    """For m = 1..n, the 2^m achievable values of S_m = sum(+-a_k, k <= m),
    by array doubling: the first half negates a_m, the second adds it."""
    sums = np.zeros(1, dtype=np.float64)
    for a in weights:
        sums = np.concatenate([sums - a, sums + a])
        yield sums


def exact_tail(
    instance: WeightedRademacherInstance, lam: float, mode: str = "sum"
) -> Fraction:
    """Exact P(statistic >= lam) as a dyadic rational.

    mode "sum":            statistic is |S_n|.
    mode "max_prefix_abs": statistic is max over 1 <= m <= n of |S_m|.
    """
    if lam <= 0:
        raise ValidationError("lam must be positive")
    _check_cap(instance.n)
    if mode not in ("sum", "max_prefix_abs"):
        raise ValidationError(f"unknown mode {mode!r}")
    stat = np.full(1, -np.inf)
    for sums in _prefix_sums(instance.weights):
        # |S_n| is the last |S_m|; the running max pairs each path with
        # both of its extensions, as the doubling does
        stat = (np.abs(sums) if mode == "sum" else
                np.maximum(np.concatenate([stat, stat]), np.abs(sums)))
    count = int(np.count_nonzero(stat >= lam))
    return Fraction(count, 2 ** instance.n)


def prefix_tail_probabilities(
    instance: WeightedRademacherInstance, threshold: float
) -> list[Fraction]:
    """Exact P(|S_m| >= threshold) for every prefix length m = 1..n."""
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    _check_cap(instance.n)
    return [Fraction(int(np.count_nonzero(np.abs(sums) >= threshold)), 2 ** m)
            for m, sums in enumerate(_prefix_sums(instance.weights), start=1)]


def levy_bound(
    instance: WeightedRademacherInstance,
    t: float,
    mode: str = "exact",
) -> Fraction | float:
    """Maximal-inequality bound 3 * max over m of P(|S_m| >= t/3).

    mode "exact" evaluates the prefix probabilities exhaustively and
    returns an exact Fraction; mode "hoeffding" substitutes the
    subgaussian bound for each prefix probability and returns a float.
    The exact max-prefix tail probability is always <= this bound.
    """
    if t <= 0:
        raise ValidationError("t must be positive")
    if mode == "exact":
        probs = prefix_tail_probabilities(instance, t / 3.0)
        return min(Fraction(1), 3 * max(probs))
    if mode == "hoeffding":
        # prefix variances are increasing, so the largest bound is the full one
        return min(1.0, 3.0 * hoeffding_bound(instance, t / 3.0))
    raise ValidationError(f"unknown mode {mode!r}")


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Always contains the point estimate successes/trials and stays inside
    [0, 1], including at 0 or all successes.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValidationError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValidationError("confidence must lie in (0,1)")
    z = NormalDist().inv_cdf(0.5 * (1.0 + confidence))
    n = float(trials)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    lo, hi = max(0.0, center - half), min(1.0, center + half)
    # rounding can nudge an endpoint past the point estimate at the extremes
    if successes == 0:
        lo = 0.0
    if successes == trials:
        hi = 1.0
    return (min(lo, phat), max(hi, phat))
