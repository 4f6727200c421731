"""Evaluation of the random series at real exponents with error control.

Two certificate grades are produced:

* exact        -- the sequence is finite and fully summed; the radius
  bounds floating-point rounding only.
* probabilistic -- a maximal-inequality tail certificate: with failure
  probability at most eta over the path's randomness, simultaneously for
  every exponent above the certificate's base exponent, the truncation
  error is below threshold * cutoff**-(sigma - sigma0).

Every partial sum and every kept sign comes from one kernel,
``_signed_sums``: dots of a block of paths' streamed signs, or of the
vector of signs a scan holds for its one path, with stacks of weight
arrays ``p**-sigma`` that every path of the block reads, one BLAS
ddot per piece of a row too short for BLAS to split across threads, so no
value depends on the thread count.  The stacked rule: a stack is a list of
equal-length rows, such as the weights of every exponent of one scan
round, and rows that end within a chunk are dotted by ``np.dot`` mapped
over the stack in one call; the same rows, one ddot each, so a row's sum
has the bits it has alone.  A gemv over the rows would not: it sums in its
own order.  A kept sign is that of the real partial sum, sum X_p *
p**-sigma over the float elements p, by one rule: a bracket [lo, hi] that
contains the real value, +1 when lo > r, -1 when hi < -r and undecided
otherwise, with r the truncation radius.  The bracket is the kernel's
value widened by ``_band_slack``, which bounds both the summation error
and the rounding of the weights.  ``evaluate`` adds that bound into its
error radius; ``decide`` and ``_filtered_signs`` take the sign beyond it.
A scan holds one vector of its path's signs (``SamplePath._signs``) and
decides each round from it (``_decide``), bit for bit as ``decide`` does:
the kernel sums each row alone, one ddot (or ``_row_dots`` past ``_ROW``
terms) and its ``fsum``, the chunk loop's pieces without its bookkeeping.
A sign-change trial filters its whole block in one
stream: the certified grid at the certified radii and the heuristic sums at
radius 0.

Certificates are checked where their exponents enter: ``evaluate`` and
``decide`` run ``_check_certificate`` (the certificate's sequence is the
path's, every exponent at least its base exponent) once per call, and
``zeros.scan`` once per scan, on its initial grid, before it streams its
signs; its rounds read their memo rows unchecked.

Every weight array ``p**-sigma`` outside ``frequencies`` is formed by
``_weight_arrays``, after its one budget and exponent check, and has one
owner: a certificate's ``scan_weights`` holds those of ``evaluate`` and
``decide``, each with its exponent's decision radius in one entry, and
``_certified_weights`` is its only writer; a study's setup holds the
stacks its trials sum, with their radii.  The first m weights of an array
are the array of m weights, so nested arrays are prefix views of one.
``_weight_arrays`` caches nothing, and no module-level container holds an
array or a radius, so no sequence or certificate is handed another's.

Below the certifiable range the near-critical rule ``heuristic_cutoff``
picks a truncation scale for partial sums that carry no error bound, and
``_heuristic_count`` is the one gate that refuses a scale past the term
budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import frequencies
from .bounds import excursion_threshold
from .errors import ResourceBudgetError, ValidationError
from .frequencies import FrequencySequence, _check_budget, _check_finite
from .paths import SamplePath, _sign_stream
from .summation import _CHUNK, _ROW, _row_dots, exact_sum

EXACT = "exact"
PROBABILISTIC = "probabilistic"


def _weight_arrays(seq: FrequencySequence, requests) -> list[np.ndarray]:
    """The first ``count`` weights ``p**-sigma`` of ``seq`` for each
    ``(sigma, count)`` in ``requests``.  The total count and every sigma are
    checked before any array is formed; uncached.  The first m weights of
    an array are, bit for bit, the array of m weights: ``_powers`` fills
    both from the same first index in the same ``_CHUNK`` steps."""
    _check_budget(sum(n for _, n in requests))
    for s, _ in requests:
        _check_finite("sigma", s)
    return [seq._powers(seq.start_index, n, -float(s)) for s, n in requests]


def _upper_sum(w: np.ndarray) -> float:
    """A float at least the exact sum of the positive array ``w``.

    Summed in any order, the float sum s of n positive terms satisfies
    s >= (1 - gamma_{n-1}) * sum(w), so sum(w) <= s * (1 + 2(n-1)u) while
    2(n-1)u <= 1/2 (u = 2**-53); the factor 1 + n * 2**-51 is exact and
    larger, and the float just above the rounded product is above s times
    it.
    """
    return math.nextafter(float(w.sum()) * (1.0 + w.size * 2.0 ** -51), math.inf)


def _signed_sums(paths, weights, held=None) -> list[list[float]]:
    """A float value of sum(signs[:n] * row) for each row of n weights of
    each stack of ``weights``, with ``signs`` the signs of ``paths[i]``,
    for each path of the block ``paths`` (paths of the weights' sequence),
    which all read the same stacks: one list of sums per path, the rows of
    each stack in order, the stacks in the order of ``weights``, each within
    its row's ``_band_slack`` of the real sum (see ``decide``).  A stack is
    a list of equal-length weight arrays, its rows, read in place; a lone
    array is a stack of one.

    The block's signs are streamed chunk-major by ``_sign_stream`` to the
    longest row, so each weight chunk stays in cache while every path of
    the block reads it.  Each ``_CHUNK`` of a path's signs is dotted with
    each row's piece by ``summation._row_dots``, in pieces of at most
    ``_ROW`` terms, or, where the rows end in at most ``_ROW`` more terms,
    by one ``np.dot`` per row, mapped over the stack's rows in one call:
    either way one BLAS ddot per piece and row, so a row's sum has the same
    bits alone or in any stack.  The stacks are visited longest first, so
    those a chunk still reaches come first and the visit stops at the first
    that ends before the chunk; an empty one costs nothing.  ``math.fsum``
    of a row's dots is its value.

    A block of one path may pass instead ``held``, the vector of its signs
    (``SamplePath._signs``, a scan's), at least the longest row long.  It
    holds every row's end, so each row is summed alone: one ``np.dot`` up
    to ``_ROW`` terms, ``math.fsum`` of ``_row_dots`` past that.  ``_CHUNK``
    is a multiple of ``_ROW``, so those are the chunk loop's pieces, dots
    and ``fsum``: the same bits, at the cost of the dots, without the
    loop's sort and its dots kept per stack.
    """
    if held is not None:
        values = []
        for rows in weights:
            if not isinstance(rows, list):
                rows = [rows]
            if not rows:
                continue
            n = rows[0].size
            x = held if held.size == n else held[:n]
            if n > _ROW:
                values += [math.fsum(_row_dots(x, row)) for row in rows]
            else:
                for d in map(x.dot, rows):
                    # the fsum of one dot: the dot, with -0.0 as 0.0
                    values.append(float(d) + 0.0)
        return [values]
    stacks = [w if isinstance(w, list) else [w] for w in weights]
    # the stacks that have rows, longest first
    ranked = sorted(filter(stacks.__getitem__, range(len(stacks))),
                    key=lambda k: stacks[k][0].size, reverse=True)
    count = stacks[ranked[0]][0].size if ranked else 0
    # per path and stack: each row's dots of its pieces longer than _ROW,
    # made at the first such piece, and the dots of the pieces that end
    # the rows, one per row
    heads = [[None] * len(stacks) for _ in paths]
    tails = [[()] * len(stacks) for _ in paths]
    for lo, i, signs in _sign_stream(paths, count):
        path_heads, path_tails = heads[i], tails[i]
        for k in ranked:
            rows = stacks[k]
            m = min(rows[0].size - lo, _CHUNK)
            if m <= 0:
                break
            x = signs[:m]
            if m > _ROW:
                if path_heads[k] is None:
                    path_heads[k] = [[] for _ in rows]
                for dots, row in zip(path_heads[k], rows):
                    dots += _row_dots(x, row[lo:lo + m])
            else:
                # the rows end in this chunk: one np.dot each, mapped over
                # the stack in one call, with no Python step per row
                pieces = rows if lo == 0 else [row[lo:] for row in rows]
                path_tails[k] = list(zip(map(x.dot, pieces)))
    sums = []
    for path_heads, path_tails in zip(heads, tails):
        values = []
        for rows, dots, ends in zip(stacks, path_heads, path_tails):
            if dots is None:
                dots = ends or [()] * len(rows)  # rows of no terms sum to 0.0
            elif ends:
                dots = map(chain, dots, ends)
            values += map(math.fsum, dots)
        sums.append(values)
    return sums


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailCertificate:
    """Simultaneous bound on tail excursions above a base exponent.

    Claims: P( sup over x > cutoff of |sum over cutoff < p <= x of
    X_p * p**-sigma0| >= threshold ) <= eta.  The threshold is
    ``bounds.excursion_threshold(T, eta)``, T the upper end of the tail
    enclosure at the doubled exponent: the tail law of ``bounds``,
    Etemadi's maximal inequality over the two-sided subgaussian bound, at
    failure probability eta.  The cutoff is at least 1, however the
    certificate is made (see ``_certified_radius``).
    """

    seq: FrequencySequence
    sigma0: float
    cutoff: float
    threshold: float
    eta: float
    tail_second_moment: float
    exhausted: bool = False

    def __post_init__(self):
        # _certified_radius rounds its exponent down, which rounds the
        # radius up only for a cutoff of at least 1
        if not self.cutoff >= 1:
            raise ValidationError("cutoff must be >= 1")

    @cached_property
    def count(self) -> int:
        """The served terms up to the cutoff, counted once."""
        return self.seq._count_up_to(self.cutoff)

    @cached_property
    def scan_weights(self) -> dict[float, tuple[np.ndarray, float]]:
        """sigma -> ``(w, rho)``: the ``count`` weights ``p**-sigma`` and
        their decision radius (``_decision_radius``), formed together and
        dropped together, at most the budget of weights in total, the least
        recently used dropped first.  ``_certified_weights`` alone writes
        it.  Not safe to share across threads."""
        return {}


def tail_certificate(seq: FrequencySequence, sigma0: float, cutoff: float,
                     eta: float) -> TailCertificate:
    """Certificate at base exponent sigma0 with failure probability eta.

    Requires the doubled exponent 2*sigma0 to lie above the sequence's
    tail-convergence threshold; at sigma0 = 1/2 this is exactly what fails
    for sequences with divergent reciprocal sum.

    The threshold is ``bounds.excursion_threshold`` of the enclosure's
    upper end T, rounded up, and takes its floor when T underflows to 0.0.
    Only a sequence that serves no element above the cutoff is exhausted:
    its certificate keeps threshold 0.0 and eta 0.
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError("eta must lie in (0,1)")
    _check_finite("sigma0", sigma0)
    _, t_upper = seq.tail_power_sum(2.0 * sigma0, cutoff)
    t_upper = float(t_upper)
    exhausted = seq.next_elements(cutoff, 1).size == 0
    threshold = 0.0 if exhausted else excursion_threshold(t_upper, eta)
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


def _certified_radius(cert: TailCertificate, sigma: float) -> float:
    """The certified truncation radius at ``sigma``: threshold *
    cutoff**-(sigma - sigma0) rounded up, +0.0 for an exhausted
    certificate, whose threshold is 0.0 (nothing lies past its cutoff); the
    truncation identity behind it carries implied constant exactly 1.

    The exponent is rounded down, which rounds the power up because every
    certificate's cutoff is at least 1.  ``grown``, the threshold
    times 1 + (2 * ``_POW_ULPS`` + 2)u, covers the power's ``_POW_ULPS``
    ulps and its own half ulp, at most 2u relative per ulp (u = 2**-53) for
    normal floats; the floors 2**-1021 exceed any subnormal result plus its
    error, and the float above the last product covers its rounding.  A
    power below 2**-1021 is taken instead as the square of the power at half
    the exponent (halving is exact), floored the same way, and ``twice``,
    the threshold times 1 + (4 * ``_POW_ULPS`` + 4)u, covers both half
    powers' ulps and the extra product.
    """
    tiny = 2.0 ** -1021
    grown = cert.threshold * (1.0 + (2 * _POW_ULPS + 2) * 2.0 ** -53)
    if not grown:
        return 0.0
    e = math.nextafter(sigma - cert.sigma0, -math.inf)
    p = cert.cutoff ** -e
    if p < tiny:
        half = max(cert.cutoff ** (-e / 2), tiny)
        twice = cert.threshold * (1.0 + (4 * _POW_ULPS + 4) * 2.0 ** -53)
        r = twice * half * half
    else:
        r = grown * p
    return math.nextafter(max(r, tiny), math.inf)


def _decision_radius(radius: float, band: float) -> float:
    """The decision radius rho of a sum with truncation radius ``radius``
    over weights whose band is ``band`` (``_band_slack``): the float above
    their sum, both the error radius of ``evaluate`` and the radius a kept
    sign must clear (see ``decide``).  A certified sum's radius is the
    ``_certified_radius``, which depends on the certificate and sigma
    alone, so a ``scan_weights`` entry forms rho once, with the weights,
    and drops it with them; a heuristic sum's is 0.0."""
    return math.nextafter(radius + band, math.inf)


def _check_certificate(path: SamplePath, sigmas: list[float], cert: TailCertificate) -> None:
    """The certificate check: ``cert`` was built for the path's sequence,
    and every exponent of ``sigmas`` is at least its base exponent.
    ``evaluate`` and ``decide`` run it once per call, on their exponents;
    ``zeros.scan`` runs it once per scan, on its initial grid, which every
    later point lies between, so its rounds read their memo rows
    unchecked."""
    if cert.seq != path.seq:
        raise ValidationError("certificate was built for another sequence")
    for sigma in sigmas:
        if sigma < cert.sigma0:
            raise ValidationError(
                f"sigma={sigma} below certificate base exponent {cert.sigma0}"
            )


def _certified_weights(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> tuple[list[np.ndarray], list[float]]:
    """The weight arrays and decision radii of ``evaluate`` and ``decide``,
    one each per exponent of ``sigmas``, which ``_check_certificate`` has
    passed.  Every exponent shares the certificate's cutoff and ``count``,
    so its entry is kept in the certificate's ``scan_weights`` by sigma
    alone: one memo read per exponent, once the rows the call holds,
    len(sigmas) * ``count`` terms, pass the term budget.  That check runs on
    every call, a scan's rounds included: a round's size is known only when
    the round is made.
    """
    n, memo = cert.count, cert.scan_weights
    _check_budget(len(sigmas) * n)
    ws, rhos = [], []
    for s in map(float, sigmas):
        # a hit moves to the newest place, so the least recently used goes first
        entry = memo.pop(s, None)
        if entry is None:
            w, = _weight_arrays(path.seq, [(s, n)])
            entry = w, _decision_radius(_certified_radius(cert, s), _band_slack(w))
            while (len(memo) + 1) * n > frequencies.DEFAULT_TERM_BUDGET:
                del memo[next(iter(memo))]
        memo[s] = entry
        ws.append(entry[0])
        rhos.append(entry[1])
    return ws, rhos


def evaluate(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> list[CertifiedValue]:
    """Certified values at every exponent in ``sigmas``, each at least the
    certificate's base exponent, from one pass over the path's signs.
    Each partial sum is ``_signed_sums``' over the stack of the exponents'
    weight arrays; its error radius is the decision radius of
    ``_certified_weights``, the certified one plus the weights' band,
    rounded up, so it also bounds the distance to the real value (see
    ``decide``)."""
    _check_certificate(path, sigmas, cert)
    ws, rhos = _certified_weights(path, sigmas, cert)
    values = _signed_sums([path], [ws])[0]
    kind = EXACT if cert.exhausted else PROBABILISTIC
    sigma0 = None if cert.exhausted else cert.sigma0
    return [CertifiedValue(s, v, cert.cutoff, rho, kind, eta=cert.eta, sigma0=sigma0)
            for s, v, rho in zip(sigmas, values, rhos)]


# n * _DOT_SLACK bounds gamma_{n-1} = (n-1)u / (1 - (n-1)u), with
# u = 2**-53, for every n <= 2**17: there (n-1)u < 2**-36, so the
# denominator stays above 1 - 2**-36 and the factor 1 + 2**-30 covers it,
# and n times it is exact in float64.
_DOT_SLACK = 2.0 ** -53 * (1.0 + 2.0 ** -30)

_POW_ULPS = 4
"""Assumed: a float power ``p ** -sigma`` (``_powers``, and Python's ``**``)
is within this many ulps of the result.  Against 120-bit mpmath, numpy
2.4.6's ``_powers`` is within 0.655 ulp over Naturals, Primes, weighted:2.0
and weighted:3.0 up to 10**6 and sigma in [0.5, 6], a spread the tests
check against this bound."""


def _band_slack(w: np.ndarray) -> float:
    """The band of the n weights ``w``: a float at least the distance from
    the real value of a signed sum sum X_i * p_i**-sigma to its
    ``_signed_sums`` value.  It is (min(n, ``_CHUNK``) + 2 * ``_POW_ULPS``)
    * ``_DOT_SLACK`` * ``_upper_sum(w)`` plus n * ``_POW_ULPS`` * 2**-1074,
    each step rounded up; see ``decide``."""
    n = w.size
    slack = (min(n, _CHUNK) + 2 * _POW_ULPS) * _DOT_SLACK
    return math.nextafter(math.nextafter(slack * _upper_sum(w), math.inf)
                          + n * _POW_ULPS * 2.0 ** -1074, math.inf)


def _filtered_signs(paths, weights, rhos) -> list[list[int | None]]:
    """For each path of the block ``paths``, the sign of each sum's real
    value beyond its radius, or None, for the stacks ``weights`` of
    ``_signed_sums`` and one decision radius rho
    per row, which every path shares: one list of signs per path.  The
    real value lies within the band of the ``_signed_sums`` value (see
    ``decide``), so with rho the float above the radius plus the band the
    sign is that value's beyond rho.  A NaN or infinite rho leaves the sum
    undecided.
    """
    return [list(map(_sign_beyond, values, rhos))
            for values in _signed_sums(paths, weights)]


def decide(
    path: SamplePath, sigmas: list[float], cert: TailCertificate
) -> list[int | None]:
    """The signs of the real partial sums at ``sigmas`` beyond the certified
    radii, or None, with ``evaluate``'s validation, from one pass over the
    path's signs: the sign of each of ``_signed_sums``' values over the
    stack of the exponents' weight arrays beyond its decision radius, by
    ``_sign_beyond``, the rule ``_filtered_signs`` applies to a block.  It
    is ``evaluate``'s ``decided_sign``, from the same sum and the same error
    radius.

    Why a kept sign is the real value's.  Split a sum of n terms into
    chunks c of m_c <= K = ``_CHUNK`` terms; let w_i = fl(p_i**-sigma), S_c
    the exact sum of a chunk's products s_i * w_i (exact, as s_i = +-1),
    W_c the sum of its w_i, S and W the totals, B = ``_upper_sum(w)`` >= W
    and R = sum s_i * p_i**-sigma the real value.  With u = 2**-53 and
    gamma_k = ku / (1 - ku), any float summation order leaves an m-term
    sum within gamma_{m-1} * W_c of S_c, a correctly rounded one within
    u * W_c (Higham, *Accuracy and Stability of Numerical Algorithms*,
    sec. 4.2); a one-term sum is exact.

    * Summation.  The ``_signed_sums`` value V is the ``fsum`` of its
      dots, each of m_d <= min(n, L) terms, L = ``summation._ROW`` <= K,
      and within gamma_{m_d-1} times its weights' sum of its exact value.
      So V is within gamma_{K'-1} * W of S, K' = min(n, K), plus, past
      one dot, the final rounding's u * (1 + gamma_{K'-1}) * W: below K' *
      ``_DOT_SLACK`` * W.
    * Weights.  w_i is within ``_POW_ULPS`` ulps of p_i**-sigma, and an
      ulp is at most 2u * w_i, or 2**-1074 for a subnormal w_i, so
      |S - R| <= 2 * ``_POW_ULPS`` * u * W + n * ``_POW_ULPS`` * 2**-1074.

    So V is within ``_band_slack(w)`` of R.  With rho the float above the
    radius r plus that band, which is also ``evaluate``'s error radius, V >
    rho gives R > r and V < -rho gives R < -r.
    """
    _check_certificate(path, sigmas, cert)
    return _decide(path, sigmas, cert, None)


def _decide(path: SamplePath, sigmas: list[float], cert: TailCertificate,
            held) -> list[int | None]:
    """``decide`` without its certificate check, which the caller has run
    (``zeros.scan`` once per scan), reading the path's signs from ``held``,
    the vector of its first ``cert.count`` signs (``SamplePath._signs``),
    when it is not None, and streaming them otherwise: the same sums, bit
    for bit."""
    ws, rhos = _certified_weights(path, sigmas, cert)
    values, = _signed_sums([path], [ws], held)
    return list(map(_sign_beyond, values, rhos))


def heuristic_cutoff(sigma: float) -> float:
    """Near-critical truncation rule exp(1/(2*sigma - 1)); inf where that
    overflows a float, within about 7e-4 of 1/2."""
    if sigma <= 0.5:
        raise ValidationError("heuristic cutoff rule needs sigma > 1/2")
    try:
        return math.exp(1.0 / (2.0 * sigma - 1.0))
    except OverflowError:
        return math.inf


def _heuristic_count(seq: FrequencySequence, sigma: float) -> int:
    """The number of served elements up to ``heuristic_cutoff(sigma)``.

    Raises ResourceBudgetError, naming the minimal feasible exponent, when
    that scale overflows a float or needs more terms than the budget: the
    scale rule inverted at the sequence's ``_budget_cutoff``, or at the
    largest float where no budget binds.
    """
    scale = heuristic_cutoff(sigma)
    try:
        if math.isinf(scale):
            raise ResourceBudgetError("the scale overflows a float")
        return seq._count_up_to(scale)
    except ResourceBudgetError as exc:
        top = min(seq._budget_cutoff(), sys.float_info.max)
        sigma_min = 0.5 + 0.5 / math.log(top)
        raise ResourceBudgetError(
            f"scale {scale:.3g}: {exc}; minimal feasible sigma is about "
            f"{sigma_min:.6f}"
        ) from None


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
    signs = path._signs(n)
    prefix = np.cumsum(signs)
    pows, = _weight_arrays(path.seq, [(s, n)])
    nxt = np.empty_like(pows)
    nxt[:-1] = pows[1:]
    nxt[-1] = upper_limit ** (-s)
    left_terms = prefix * (pows - nxt)
    left = exact_sum(left_terms) + float(prefix[-1]) * upper_limit ** (-s)
    right = exact_sum(signs * pows)
    return abs(left - right)
