"""Evaluation of the random series at real exponents with error control.

Two certificate grades are produced:

* exact        -- the sequence is finite and fully summed; radius 0.
* probabilistic -- a maximal-inequality tail certificate: with failure
  probability at most eta over the path's randomness, simultaneously for
  every exponent above the certificate's base exponent, the truncation
  error is below threshold * cutoff**-(sigma - sigma0).

Only signs of partial sums reach the payloads of scans and sign-change
counts, so every kept sign goes through one filter, ``_filtered_signs``: a
floating-point dot product per streamed chunk, with an a-priori bound on
its distance from the value ``_signed_sums`` would return, settles every
sum whose bracket clears the radius, and only the few whose bracket
straddles it are summed again by ``_signed_sums``.  ``decide`` runs it at
the certified radii, and the heuristic pass of a sign-change trial at
radius 0.  The signs equal those of the values that ``_signed_sums``
returns, at any length.

Each shared weight array ``p**-sigma`` has one owner: a certificate's
``scan_weights`` holds those of ``evaluate`` and ``decide``, a study's setup
its others.  ``_weight_pairs`` caches nothing, and no module-level container
holds an array, so no sequence is handed another's weights.

Below the certifiable range the near-critical rule ``heuristic_cutoff``
picks a truncation scale for partial sums that carry no error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import frequencies
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


def _weight_pairs(seq: FrequencySequence, requests) -> list[tuple[np.ndarray, float]]:
    """``(w, _upper_sum(w))`` for each ``(sigma, count)`` in ``requests``,
    ``w`` the first ``count`` weights ``p**-sigma`` of ``seq``.  The total
    count and every sigma are checked before any array is formed; uncached."""
    _check_budget(sum(n for _, n in requests))
    for s, _ in requests:
        _check_finite("sigma", s)
    ws = (seq._powers(seq.start_index, n, -float(s)) for s, n in requests)
    return [(w, _upper_sum(w)) for w in ws]


def _upper_sum(w: np.ndarray) -> float:
    """A float at least the exact sum of the positive array ``w``.

    Summed in any order, the float sum s of n positive terms satisfies
    s >= (1 - gamma_{n-1}) * sum(w), so sum(w) <= s * (1 + 2(n-1)u) while
    2(n-1)u <= 1/2 (u = 2**-53); the factor 1 + n * 2**-51 is exact and
    larger, and the float just above the rounded product is above s times
    it.
    """
    return math.nextafter(float(w.sum()) * (1.0 + w.size * 2.0 ** -51), math.inf)


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

    @cached_property
    def count(self) -> int:
        """The served terms up to the cutoff, counted once."""
        return self.seq._count_up_to(self.cutoff)

    @cached_property
    def scan_weights(self) -> dict[float, tuple[np.ndarray, float]]:
        """sigma -> ``_weight_pairs`` pair of ``count`` terms, at most the
        budget in total, oldest dropped first.  Not safe to share across threads."""
        return {}


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


def partial_sum_table(
    path: SamplePath, points: list[tuple[float, float]]
) -> list[float]:
    """sum(X_p * p**-sigma for served p <= cutoff) for each (sigma,
    cutoff) pair, compensated, deterministic for fixed inputs regardless
    of worker count, and sharing one sign pass."""
    if any(c < 1 for _, c in points):
        raise ValidationError("cutoff must be >= 1")
    seq = path.seq
    pairs = _weight_pairs(seq, [(s, seq._count_up_to(c)) for s, c in points])
    return _signed_sums(path, [w for w, _ in pairs])


def _certified_weights(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> tuple[list[tuple[np.ndarray, float]], list[float]]:
    """The weight pairs (see ``_weight_pairs``) and radii of ``evaluate``
    and ``decide``, after their one validation.  Every exponent shares the
    certificate's cutoff and ``count``, so its pair is kept in the
    certificate's ``scan_weights`` by sigma alone, once the pairs the call
    holds pass the term budget.

    The radius is threshold * cutoff**-(sigma - sigma0), +0.0 for an
    exhausted certificate, whose threshold is sqrt(18 * 0 * ln(6/eta)) =
    0.0; the truncation identity behind it carries implied constant
    exactly 1.
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
    n, memo = cert.count, cert.scan_weights
    _check_budget(len(sigmas) * n)
    entries = []
    for s in map(float, sigmas):
        entry = memo.get(s)
        if entry is None:
            entry = memo[s] = _weight_pairs(path.seq, [(s, n)])[0]
            while len(memo) * n > frequencies.DEFAULT_TERM_BUDGET:
                del memo[next(iter(memo))]
        entries.append(entry)
    radii = [cert.threshold * cert.cutoff ** (-(s - cert.sigma0)) for s in sigmas]
    return entries, radii


def evaluate(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> list[CertifiedValue]:
    """Certified values at every exponent in ``sigmas``, each at least the
    certificate's base exponent, from one pass over the path's signs.
    Each partial sum is exact (see ``_signed_sums``)."""
    entries, radii = _certified_weights(path, sigmas, cert)
    values = _signed_sums(path, [w for w, _ in entries])
    kind = EXACT if cert.exhausted else PROBABILISTIC
    sigma0 = None if cert.exhausted else cert.sigma0
    return [CertifiedValue(s, v, cert.cutoff, r, kind, eta=cert.eta, sigma0=sigma0)
            for s, v, r in zip(sigmas, values, radii)]


# (n - 1) * _DOT_SLACK bounds gamma_{n-1} = (n-1)u / (1 - (n-1)u), with
# u = 2**-53, for every n <= 2**17: there (n-1)u < 2**-36, so the
# denominator stays above 1 - 2**-36 and the factor 1 + 2**-30 covers it,
# and (n - 1) times it is exact in float64.
_DOT_SLACK = 2.0 ** -53 * (1.0 + 2.0 ** -30)


def _band_slack(n: int) -> float:
    """The float c such that c * sum(w) bounds the distance from the filter
    value of an n-term sum to the value ``_signed_sums`` returns; see
    ``decide``."""
    if n <= _CHUNK:
        return max(n - 1, 0) * _DOT_SLACK
    return (2 * _CHUNK - 1) * _DOT_SLACK


def _filtered_signs(path: SamplePath, entries, radii) -> list[int | None]:
    """``[_sign_beyond(v, r) for v, r in zip(_signed_sums(path, weights),
    radii)]`` for the weight pairs ``(w, bound)`` of ``_weight_pairs``,
    from one pass over the path's signs plus a second, ``_signed_sums``
    itself, over only the sums that the filter leaves open.

    Every streamed chunk of signs is dotted with each weight array
    (``np.dot``, any summation order), and ``math.fsum`` of a sum's dots
    is its filter value, bracketed by ``_band_slack`` times its bound; see
    ``decide`` for why the bracket holds the exact path's value.
    """
    count = max((w.size for w, _ in entries), default=0)
    dots: list[list[float]] = [[] for _ in entries]
    for lo, signs in path._sign_chunks(count):
        for (w, _), parts in zip(entries, dots):
            if lo < w.size:
                parts.append(np.dot(signs[:w.size - lo], w[lo:lo + _CHUNK]))
    out: list[int | None] = []
    open_ = []
    for j, ((w, bound), parts, r) in enumerate(zip(entries, dots, radii)):
        value = math.fsum(parts)
        err = math.nextafter(_band_slack(w.size) * bound, math.inf)
        lo = math.nextafter(value - err, -math.inf)
        hi = math.nextafter(value + err, math.inf)
        # a NaN or infinite bound fails every test and goes to the exact sum
        if lo > r:
            out.append(1)
        elif hi < -r:
            out.append(-1)
        else:
            out.append(None)
            if not (-r <= lo and hi <= r):
                open_.append(j)
    if open_:
        exact = _signed_sums(path, [entries[j][0] for j in open_])
        for j, v in zip(open_, exact):
            out[j] = _sign_beyond(v, radii[j])
    return out


def decide(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> list[int | None]:
    """``[cv.decided_sign for cv in evaluate(path, sigmas, cert)]``, with
    the same validation, from one pass over the path's signs, without
    summing every point exactly: ``_filtered_signs`` at the certified
    radii, over the weight entries, each array with its own bound.

    Why the filter's decisions are the exact path's.  Write a sum of n
    terms as chunks c of m_c <= ``_CHUNK`` terms, with S_c the exact sum
    of the chunk's products x_i = s_i * w_i, W_c = sum of its w_i, W the
    sum over all chunks and B >= W the weight bound.  The signs are +-1,
    so every product is exact, and any float summation order leaves an
    m-term sum within gamma_{m-1} * W_c of S_c (Higham, *Accuracy and
    Stability of Numerical Algorithms*, sec. 4.2), with gamma_k =
    ku / (1 - ku) and u = 2**-53.  So each chunk's dot d_c is within
    gamma_{m_c-1} * W_c of S_c.

    * n <= ``_CHUNK``: one chunk, the filter value D is d, and the exact
      path returns fl(S), the correctly rounded S.  |D - S| <=
      gamma_{n-1} * B, which ``_band_slack`` covers.
    * n > ``_CHUNK``: the exact path is ``compensated_sum``'s, V =
      fl(sum of p_c), with p_c the pairwise sum of a full chunk or the
      correctly rounded sum of the last one, each within
      gamma_{m_c-1} * W_c of S_c (a one-term chunk is exact).  So the
      dots and the partials are within 2 * gamma_{K-1} * W of each other
      in total, with K = ``_CHUNK`` (gamma grows with m).  D is the
      correctly rounded sum of the dots, which is at most
      (1 + gamma_{K-1}) * W in magnitude, so it adds at most
      u * (1 + gamma_{K-1}) * W, and |D - P| <= (2 * gamma_{K-1} + u *
      (1 + gamma_{K-1})) * B with P the exact sum of the partials.  That
      is below (2K - 1) * ``_DOT_SLACK`` * B, ``_band_slack`` above
      ``_CHUNK``.

    In both cases the value that is rounded once (S, or P) lies within
    err of D, where err is the float just above the rounded product of
    the slack and B.  Rounding is monotone and the radius r is a float,
    so the exact path's value lies in [lo, hi], the floats just outside
    D -+ err.  When lo > r, hi < -r, or both lie in [-r, r], that bracket
    settles the decision; otherwise ``_signed_sums`` sums the point.
    """
    return _filtered_signs(path, *_certified_weights(path, sigmas, cert))


def heuristic_cutoff(sigma: float) -> float:
    """Near-critical truncation rule exp(1/(2*sigma - 1)); inf where that
    overflows a float, within about 7e-4 of 1/2."""
    if sigma <= 0.5:
        raise ValidationError("heuristic cutoff rule needs sigma > 1/2")
    try:
        return math.exp(1.0 / (2.0 * sigma - 1.0))
    except OverflowError:
        return math.inf


def mellin_discrepancy(path: SamplePath, sigma: float, upper_limit: float) -> float:
    """|closed-form transform of the sign step function - direct sum|.

    The step function is piecewise constant, so the transform integral up
    to ``upper_limit`` has an exact closed form; up to rounding the two
    sides agree identically for any finite path.
    """
    if upper_limit < 1:
        raise ValidationError("upper_limit must be >= 1")
    s = float(sigma)
    n = path.seq._count_up_to(upper_limit)
    if n == 0:
        return 0.0
    signs = path.signs_up_to(upper_limit)
    prefix = np.cumsum(signs)
    pows = path.seq._powers(path.seq.start_index, n, -s)
    nxt = np.empty_like(pows)
    nxt[:-1] = pows[1:]
    nxt[-1] = upper_limit ** (-s)
    left_terms = prefix * (pows - nxt)
    left = exact_sum(left_terms) + float(prefix[-1]) * upper_limit ** (-s)
    right = exact_sum(signs * pows)
    return abs(left - right)
