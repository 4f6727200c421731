"""Evaluation of the random series at real exponents with error control.

Two certificate grades are produced:

* exact        -- the sequence is finite and fully summed; radius 0.
* probabilistic -- a maximal-inequality tail certificate: with failure
  probability at most eta over the path's randomness, simultaneously for
  every exponent above the certificate's base exponent, the truncation
  error is below threshold * cutoff**-(sigma - sigma0).

Only the decision |S| > radius reaches a scan's payload, so ``decide``
filters: a floating-point dot product with an a-priori error bound settles
every point whose bound clears the radius, and the exact sum runs only for
the few whose bound straddles it.  The decisions equal those of the exact
values that ``evaluate`` returns.

Below the certifiable range the near-critical rule ``heuristic_cutoff``
picks a truncation scale for partial sums that carry no error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .frequencies import (
    DEFAULT_TAIL_HEAD_TERMS,
    FrequencySequence,
    _check_budget,
    _check_finite,
)
from .paths import SamplePath
from .summation import _CHUNK, _chunk_partial, exact_sum

EXACT = "exact"
PROBABILISTIC = "probabilistic"

# ---------------------------------------------------------------------------
# Weight cache: p**-sigma arrays are path-independent and reused heavily
# across Monte Carlo trials.  Bounded by total float count, per process;
# the oldest entries are evicted first.  A miss fills its array with
# ``_powers``, one ``_CHUNK`` of elements at a time, so it holds about
# 8 bytes per term while it runs, not 16.  A longer array for a cached
# key replaces the shorter one, which does not count toward the limit.
# Keyed on the frozen sequence itself, so sequences that differ only in
# start_index never share an array.
# A plain module-level dict without a lock: each worker process fills its
# own, and it is not safe to share between threads.

_WEIGHT_CACHE: dict[tuple[FrequencySequence, float], np.ndarray] = {}
_WEIGHT_CACHE_LIMIT = 120_000_000


def _weights(seq: FrequencySequence, sigma: float, cutoff: float,
             budget: int | None = None, count: int | None = None) -> np.ndarray:
    """``p**-sigma`` over the served elements ``p <= cutoff``, through the
    per-process ``_WEIGHT_CACHE``, which has no lock and so is not
    thread-safe.  ``budget`` is checked on hits and misses alike.  A caller
    that already holds ``count = seq.counting_function(cutoff)``, checked
    against the budget, passes it to skip the count; a miss then computes
    the ``count`` weights with ``seq._powers`` without counting again, and
    holds no element array beside them."""
    _check_finite("sigma", sigma)
    if count is None:
        count = seq._count_up_to(cutoff, budget)
    key = (seq, float(sigma))
    cached = _WEIGHT_CACHE.get(key)
    if cached is not None and cached.size >= count:
        return cached[:count]
    _WEIGHT_CACHE.pop(key, None)  # a shorter array is replaced, not counted
    w = seq._powers(seq.start_index, count, -float(sigma))
    total = sum(a.size for a in _WEIGHT_CACHE.values()) + w.size
    while total > _WEIGHT_CACHE_LIMIT and _WEIGHT_CACHE:
        total -= _WEIGHT_CACHE.pop(next(iter(_WEIGHT_CACHE))).size
    if w.size <= _WEIGHT_CACHE_LIMIT:
        _WEIGHT_CACHE[key] = w
    return w


def _signed_sums(path: SamplePath, weights) -> list[float]:
    """``compensated_sum(signs[:w.size] * w)`` for each weight array ``w``,
    bit for bit, where ``signs`` are the signs of ``path``.

    The one kernel behind every partial sum.  The path's signs are
    streamed ``_CHUNK`` at a time in one pass and never held in full.
    Each product is formed one chunk at a time and reduced by
    ``compensated_sum``'s own ``_chunk_partial``; ``fsum`` over the
    partials gives the sum.  One sum is not one ``compensated_sum`` call.
    """
    weights = list(weights)
    count = max((w.size for w in weights), default=0)
    partials: list[list[float]] = [[] for _ in weights]
    prod = np.empty(min(count, _CHUNK))
    for lo, signs in path._sign_chunks(count):
        for w, parts in zip(weights, partials):
            m = min(w.size - lo, _CHUNK)
            if m <= 0:
                continue
            np.multiply(signs[:m], w[lo:lo + m], out=prod[:m])
            parts.append(_chunk_partial(prod[:m], w.size))
    return [math.fsum(parts) for parts in partials]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailCertificate:
    """Simultaneous bound on tail excursions above a base exponent.

    Claims: P( sup over x > cutoff of |sum over cutoff < p <= x of
    X_p * p**-sigma0| >= threshold ) <= eta.  The threshold is
    sqrt(18 * T * ln(6/eta)) with T the upper end of the tail enclosure at
    the doubled exponent; the constants 3 (maximal inequality) and 2
    (two-sided subgaussian bound) combine into the leading 6.
    """

    seq: FrequencySequence
    sigma0: float
    cutoff: float
    threshold: float
    eta: float
    tail_second_moment: float
    exhausted: bool = False


def excursion_probability_bound(tail_second_moment: float, threshold: float) -> float:
    """6 * exp(-threshold**2 / (18 * T)): failure bound at a fixed threshold."""
    _check_finite("threshold", threshold)
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    if tail_second_moment == 0.0:
        return 0.0
    return 6.0 * math.exp(-(threshold ** 2) / (18.0 * tail_second_moment))


def tail_certificate(
    seq: FrequencySequence,
    sigma0: float,
    cutoff: float,
    eta: float,
    head_terms: int = DEFAULT_TAIL_HEAD_TERMS,
) -> TailCertificate:
    """Certificate at base exponent sigma0 with failure probability eta.

    Requires the doubled exponent 2*sigma0 to lie above the sequence's
    tail-convergence threshold; at sigma0 = 1/2 this is exactly what fails
    for sequences with divergent reciprocal sum.
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError("eta must lie in (0,1)")
    _check_finite("sigma0", sigma0)
    _, t_upper = seq.tail_power_sum(2.0 * sigma0, cutoff, head_terms=head_terms)
    t_upper = float(t_upper)
    exhausted = t_upper == 0.0
    threshold = math.sqrt(18.0 * t_upper * math.log(6.0 / eta))
    return TailCertificate(
        seq=seq,
        sigma0=float(sigma0),
        cutoff=float(cutoff),
        threshold=threshold,
        eta=0.0 if exhausted else float(eta),
        tail_second_moment=t_upper,
        exhausted=exhausted,
    )


@dataclass(frozen=True)
class CertifiedValue:
    """A partial sum together with an error radius and its provenance."""

    sigma: float
    partial_sum: float
    cutoff: float
    error_radius: float
    kind: str
    eta: float = 0.0
    sigma0: float | None = None

    @property
    def decided_sign(self) -> int | None:
        """+1/-1 when the partial sum beats the radius, else None."""
        return _sign_beyond(self.partial_sum, self.error_radius)


def _sign_beyond(value: float, radius: float) -> int | None:
    """+1/-1 when ``value`` lies beyond ``radius`` on that side, else None."""
    if value > radius:
        return 1
    if value < -radius:
        return -1
    return None


def partial_sum(
    path: SamplePath, sigma: float, cutoff: float, budget: int | None = None
) -> float:
    """sum(X_p * p**-sigma for served p <= cutoff), compensated and
    deterministic for fixed inputs regardless of worker count."""
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    return _signed_sums(path, [_weights(path.seq, sigma, cutoff, budget=budget)])[0]


def partial_sum_table(
    path: SamplePath,
    points: list[tuple[float, float]],
    budget: int | None = None,
) -> list[float]:
    """Partial sums for many (sigma, cutoff) pairs, sharing one sign pass."""
    return _signed_sums(
        path, [_weights(path.seq, s, c, budget=budget) for s, c in points]
    )


def _certified_weights(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> tuple[list[np.ndarray], list[float]]:
    """The weights and radii of ``evaluate`` and ``decide``, after their
    one validation.  The certificate's terms are counted once per call,
    not once per exponent: every exponent shares the cutoff.

    The radius is threshold * cutoff**-(sigma - sigma0), or 0 for an
    exhausted certificate; the truncation identity behind it carries
    implied constant exactly 1.
    """
    if cert.seq != path.seq:
        raise ValidationError("certificate was built for another sequence")
    for sigma in sigmas:
        if sigma < cert.sigma0:
            raise ValidationError(
                f"sigma={sigma} below certificate base exponent {cert.sigma0}"
            )
    if cert.cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    count = path.seq.counting_function(cert.cutoff)
    _check_budget(count, None)
    weights = [_weights(path.seq, s, cert.cutoff, count=count) for s in sigmas]
    if cert.exhausted:
        return weights, [0.0] * len(sigmas)
    radii = [cert.threshold * cert.cutoff ** (-(s - cert.sigma0)) for s in sigmas]
    return weights, radii


def evaluate(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> list[CertifiedValue]:
    """Certified values at every exponent in ``sigmas``, each at least the
    certificate's base exponent, from one pass over the path's signs.
    Each partial sum is exact (see ``_signed_sums``)."""
    weights, radii = _certified_weights(path, sigmas, cert)
    values = _signed_sums(path, weights)
    if cert.exhausted:
        return [CertifiedValue(s, v, cert.cutoff, 0.0, EXACT)
                for s, v in zip(sigmas, values)]
    return [
        CertifiedValue(s, v, cert.cutoff, r, PROBABILISTIC,
                       eta=cert.eta, sigma0=cert.sigma0)
        for s, v, r in zip(sigmas, values, radii)
    ]


# (n - 1) * _DOT_SLACK * fl(sum(w)), rounded up, bounds the error of any
# n-term float64 sum of the exact products +-w.  In any summation order
# that error is at most gamma_{n-1} * sum(w), with gamma_k = ku / (1 - ku)
# and u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms,
# sec. 4.2), and fl(sum(w)) >= (1 - gamma_{n-1}) * sum(w) by the same
# bound.  For n <= 2**16 the two denominators together stay below
# 1 + 2**-35, so the factor 1 + 2**-30 covers them, and (n - 1) times it
# is exact in float64.
_DOT_SLACK = 2.0 ** -53 * (1.0 + 2.0 ** -30)


def decide(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> list[int | None]:
    """``[cv.decided_sign for cv in evaluate(path, sigmas, cert)]``, with
    the same validation, from one pass over the path's signs, without
    summing every point exactly.

    Sums of at most ``_CHUNK`` terms, where the exact sum is the correctly
    rounded one, are filtered.  The signs are +-1, so ``np.dot(signs, w)``
    forms every product exactly, and it lies within ``err`` (see
    ``_DOT_SLACK``) of the exact sum S in any summation order.  Rounding
    is monotone and the radius r is a float, so fl(S) lies in [lo, hi],
    the floats just outside dot -+ err.  When lo > r, hi < -r, or both
    lie in [-r, r], that interval settles the decision; otherwise the
    exact ``_chunk_partial`` sums the point.  Longer sums go through
    ``_signed_sums`` as in ``evaluate``.
    """
    weights, radii = _certified_weights(path, sigmas, cert)
    count = weights[0].size if weights else 0
    if not 0 < count <= _CHUNK:
        return [_sign_beyond(v, r) for v, r in zip(_signed_sums(path, weights), radii)]
    (_, signs), = path._sign_chunks(count)
    slack = (count - 1) * _DOT_SLACK
    prod = np.empty(count)
    out = []
    for w, radius in zip(weights, radii):
        dot = float(np.dot(signs, w))
        err = math.nextafter(slack * float(w.sum()), math.inf)
        lo = math.nextafter(dot - err, -math.inf)
        hi = math.nextafter(dot + err, math.inf)
        # a NaN or infinite bound fails every test and falls through
        if lo > radius:
            out.append(1)
        elif hi < -radius:
            out.append(-1)
        elif -radius <= lo and hi <= radius:
            out.append(None)
        else:
            np.multiply(signs, w, out=prod)
            out.append(_sign_beyond(_chunk_partial(prod, count), radius))
    return out


def heuristic_cutoff(sigma: float) -> float:
    """Near-critical truncation rule exp(1/(2*sigma - 1))."""
    if sigma <= 0.5:
        raise ValidationError("heuristic cutoff rule needs sigma > 1/2")
    return math.exp(1.0 / (2.0 * sigma - 1.0))


def mellin_discrepancy(path: SamplePath, sigma: float, upper_limit: float) -> float:
    """|closed-form transform of the sign step function - direct sum|.

    The step function is piecewise constant, so the transform integral up
    to ``upper_limit`` has an exact closed form; up to rounding the two
    sides agree identically for any finite path.
    """
    if upper_limit < 1:
        raise ValidationError("upper_limit must be >= 1")
    s = float(sigma)
    elems = path.seq.elements_up_to(upper_limit)
    if elems.size == 0:
        return 0.0
    signs = path.signs_up_to(upper_limit)
    prefix = np.cumsum(signs)
    pows = elems ** (-s)
    nxt = np.empty_like(pows)
    nxt[:-1] = pows[1:]
    nxt[-1] = upper_limit ** (-s)
    left_terms = prefix * (pows - nxt)
    left = exact_sum(left_terms) + float(prefix[-1]) * upper_limit ** (-s)
    right = exact_sum(signs * pows)
    return abs(left - right)
