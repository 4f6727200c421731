"""Exact and closed-form concentration oracles for weighted sign sums.

For S = sum(a_k * X_k) with independent uniform signs X_k, this module
gives the exact (dyadic-rational) tail probabilities by exhaustive
enumeration, the Hoeffding subgaussian bound, Etemadi's maximal
inequality 3 * max over prefixes of P(|S_m| >= t/3), and the tail law
that the certificates chain from the two, with its inverse.  Enumeration
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
from .frequencies import _check_finite

EXHAUSTIVE_CAP = 24

# The tail law, one table.  Etemadi's maximal inequality (Billingsley,
# *Probability and Measure*, Thm 22.5) bounds P(max_m |S_m| >= t) by
# _MAXIMAL * max_m P(|S_m| >= t / _MAXIMAL); the two-sided subgaussian
# bound bounds each P(|S_m| >= lam) by _TWO_SIDED * exp(-lam**2 / (2 T)),
# T >= sum a_k**2.  Chained, P(max_m |S_m| >= t) <= _LEADING * exp(-t**2
# / (_SPREAD * T)), the law behind every tail certificate.
_MAXIMAL = 3
_TWO_SIDED = 2
_LEADING = _TWO_SIDED * _MAXIMAL  # 6
_SPREAD = 2 * _MAXIMAL ** 2  # 18: (t/3)**2 / (2 T) = t**2 / (18 T)


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
    return min(1.0, _TWO_SIDED * math.exp(-(lam * lam) / (2.0 * ss)))


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


def levy_bound(instance: WeightedRademacherInstance, t: float) -> Fraction:
    """Etemadi's maximal-inequality bound 3 * max over m of P(|S_m| >=
    t/3), with the prefix probabilities evaluated exhaustively: an exact
    Fraction.  The exact max-prefix tail probability is always <= this
    bound.  (The name is historical: the inequality is Etemadi's, not
    Levy's.)
    """
    if t <= 0:
        raise ValidationError("t must be positive")
    probs = prefix_tail_probabilities(instance, t / _MAXIMAL)
    return min(Fraction(1), _MAXIMAL * max(probs))


def excursion_probability_bound(tail_second_moment: float, threshold: float) -> float:
    """A float at least 6 * exp(-t**2 / (18 * T)), t = ``threshold`` and T
    = ``tail_second_moment``: the tail law's bound on the chance that some
    prefix of a sign sum with sum of squares at most T leaves the band of
    half-width t.  Positive, and 0.0 only when T == 0.

    Rounding up.  x = t**2 / (18 * T) is formed exactly as a Fraction, so
    no square overflows and no subnormal T loses digits, and x_lo is the
    largest float at most min(x, 2000) (exp underflows past 746 either
    way), so exp(-x_lo) >= exp(-x).  With u = 2**-53, ``math.exp`` is
    within one ulp: 2u relative for a normal result, 2**-1074 for a
    subnormal one.  The product y by 6 rounds by u relative or 2**-1075.
    So 6 * exp(-x_lo) <= y * (1 + 3u + 8u**2) + 7 * 2**-1074.  y times 1 +
    2**-50 = 1 + 8u, rounded, is at least y * (1 + 7u - 8u**2) - 2**-1075,
    above the first term less its subnormal rounding; the 8 * 2**-1074
    added covers the second term and that rounding, and the float above
    the sum covers its own rounding.  An exp that underflows to 0.0 leaves
    6 * exp(-x) at most 6 * 2**-1074, under the 9 * 2**-1074 returned.
    """
    _check_finite("threshold", threshold)
    _check_finite("tail_second_moment", tail_second_moment)
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    if tail_second_moment < 0:
        raise ValidationError("tail_second_moment must be >= 0")
    if tail_second_moment == 0.0:
        return 0.0
    x = Fraction(threshold) ** 2 / (_SPREAD * Fraction(tail_second_moment))
    x = min(x, 2000)
    x_lo = float(x)  # correctly rounded
    if x_lo > x:
        x_lo = math.nextafter(x_lo, -math.inf)
    y = _LEADING * math.exp(-x_lo)
    return math.nextafter(y * (1.0 + 2.0 ** -50) + 8 * 2.0 ** -1074, math.inf)


def excursion_threshold(tail_second_moment: float, eta: float) -> float:
    """A float at least sqrt(18 * T * ln(6/eta)), T =
    ``tail_second_moment``: the threshold at which the tail law's bound
    (see ``excursion_probability_bound``) is ``eta``.

    It is rounded up from q = 18 * T * L, L = ln(6/eta) > ln 6, u =
    2**-53.  The float 6/eta is within u relative, which moves its log by
    at most u(1 + u) < 0.6u * L; ``math.log`` is taken within one ulp (2u
    relative), and the two products round by u each.  So the float q is at
    least q * (1 - 4.6u) when no step underflows, and q times 1 + 2**-50 =
    1 + 8u, rounded, is at least q * (1 + 2.4u - 45u**2) > q.  A step that
    underflows leaves q below 2**-1012 (18T below 2**-1022 and L below
    746), under the floor 2**-1000.  The float above the rounded square
    root then lies above sqrt(q), so a T that underflows to 0.0 takes the
    floor too.
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError("eta must lie in (0,1)")
    q = _SPREAD * tail_second_moment * math.log(_LEADING / eta) * (1.0 + 2.0 ** -50)
    return math.nextafter(math.sqrt(max(q, 2.0 ** -1000)), math.inf)


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
