"""Distributional diagnostics near the critical exponent.

Normalized by its truncated standard deviation, the series value is a
weighted sum of independent signs; as the exponent drops toward 1/2 the
weights flatten and the law approaches a standard normal.  This module
provides the exact characteristic function of the (truncated) value, a
Monte Carlo sampler of the normalized value, a Kolmogorov-Smirnov
distance against the standard normal, and the variance profile at the
near-critical truncation scale.  The characteristic function is a
product of cosines cos(x), evaluated at |t|: the factors with x > X0, a
head of a few elements, take an exact log-space pass for each t, and the
tail takes the series of log cos x in LOG_COS over power sums of the
weights; those of every ``_SUB``-aligned sub-block past the head are formed
once per call and serve every t, and only the fewer than ``_SUB`` terms
from the head to the next sub-block are summed for each |t|.  The series
is accurate to the rounding of its sum, where log of a rounded cos x near
1 is not.  Each diagnostic counts its terms through ``_count_up_to``, so one
term budget bounds every operation; the variance profile's second moment
is truncated at ``SECOND_MOMENT_CUTOFF``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .evaluation import _heuristic_count, _signed_sums, _weight_arrays, heuristic_cutoff
from .frequencies import FrequencySequence, _check_budget, _check_finite
from .paths import _BLOCK, SamplePath
from .summation import _CHUNK, _BlockSum, _sum_of_squares

SECOND_MOMENT_CUTOFF = 1_000_000.0
# a factor cos(x) with x <= X0 is in the tail of ``char_function``
X0 = 0.125
# the tail's power sums are shared across |t| down to _SUB-term sub-blocks
_SUB = 4096
# log cos x = sum over k >= 1 of LOG_COS[k - 1] * x**(2k) for |x| < pi/2
# through x**16, the k-th coefficient being
# (-1)**k * 2**(2k-1) * (2**(2k) - 1) * B_2k / (k * (2k)!) with B_2k the
# Bernoulli numbers (Abramowitz & Stegun, ch. 4)
LOG_COS = (-1 / 2, -1 / 12, -1 / 45, -17 / 2520, -31 / 14175, -691 / 935550,
           -10922 / 42567525, -929569 / 10216206000)


def _weights_and_variance(seq: FrequencySequence, sigma: float,
                          cutoff: float) -> tuple[np.ndarray, float]:
    """The weights ``p**-sigma`` over the served ``p <= cutoff`` and their
    sum of squares, the truncated variance, checked finite and positive.
    The variance is ``summation._sum_of_squares``, the ``fsum`` of
    BLAS-safe row dots, so it reads the same at every thread count."""
    n = seq._count_up_to(cutoff)
    if n == 0:
        raise ValidationError("no elements at or below cutoff")
    w, = _weight_arrays(seq, [(sigma, n)])
    var = _sum_of_squares(w)
    if not 0.0 < var < math.inf:
        raise ValidationError(
            f"truncated variance must be finite and positive, got {var}")
    return w, var


def char_function(
    seq: FrequencySequence,
    sigma: float,
    t: float | np.ndarray,
    cutoff: float,
) -> float | list[float]:
    """Characteristic function of the normalized truncated value at t.

    Equals the product over served p <= cutoff of cos(x) with
    x = |t| * p**-sigma / V and V the truncated standard deviation.
    ``t`` is a float, giving a float, or a 1-d grid, giving a list with one
    value per t; the weights and V come from ``_weights_and_variance`` once
    per call.  Evaluated at |t|, so phi is even by construction, and each
    magnitude once per call.  The weights and V are finite, so at t = +-0
    every factor is exactly cos(+-0) = 1, and 1.0 is returned without a
    pass.

    The factors split into a head and a tail, and the log-magnitude of the
    product is the sum of theirs.  For sigma > 0 the weights do not
    increase, so neither does the rounded x, and the factors with x > X0
    form a prefix, the head; every other factor forms the tail.  For
    sigma <= 0 the tail is empty.  The head runs the exact path in pieces
    of ``_SUB``, ``_SUB``, 2 * ``_SUB``, ... terms, doubling up to ``_CHUNK``
    and then ``_CHUNK`` at a time, so a short head reads ``_SUB`` terms:
    the factors are formed, checked for a zero, counted for sign, turned
    into log-magnitudes and added to one ``summation._BlockSum``, which is
    exact whatever the pieces.  The tail's factors are positive, and its
    log is the series sum over k of LOG_COS[k - 1] * |t|**(2k) * S_k with
    the power sums S_k = sum (p**-sigma / V)**(2k), which do not depend on
    t.  Each ``_CHUNK``-aligned block past the one where the head ends, and
    each ``_SUB``-aligned sub-block of that block past the head's, has its
    S_k summed once per call (numpy's pairwise sum, scaled by a power of
    two so that no power of |t| overflows); only the terms from the head
    to the next multiple of ``_SUB`` are summed for each |t|.
    ``math.fsum`` adds the head's log and the tail's terms, so a value
    depends on its |t| alone, not on the grid.  For x <= X0 the first
    omitted term of the series is below 2.4e-19 of the first, under the
    rounding of the sum, and the series has no cancellation: log(cos x) of
    a rounded cos x near 1 carries a relative error up to
    2**-53 / (x**2 / 2), which the tail avoids.  No full-length array
    beside the weights is formed.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValidationError("t must be a float or a 1-d grid")
    points = ts.ravel().tolist()
    _check_finite("t", *points)
    w, var = _weights_and_variance(seq, sigma, cutoff)
    sd = math.sqrt(var)
    buf = np.empty(min(w.size, _CHUNK))
    # the weights of sigma > 0 do not increase, so their small factors
    # are a suffix; no factor is at or below -inf
    x0 = X0 if sigma > 0 else -math.inf
    blocks: dict = {}
    known: dict[float, float] = {}
    for tk in points:
        if abs(tk) not in known:
            known[abs(tk)] = _char_value(abs(tk), w, sd, buf, x0, blocks)
    values = [known[abs(tk)] for tk in points]
    return values[0] if ts.ndim == 0 else values


def _char_value(a: float, w: np.ndarray, sd: float, buf: np.ndarray,
                x0: float, blocks: dict) -> float:
    """prod cos(a * w / sd) for a >= 0: the head, the factors before the
    first with x = a * w / sd <= x0, exactly, in pieces that double from
    ``_SUB`` to ``_CHUNK`` terms; the rest by the series, over the terms up
    to the next multiple of ``_SUB`` and then over ``blocks``, the call's
    power sums of tail sub-blocks and whole blocks by ``(lo, hi)``."""
    if a == 0.0:
        return 1.0
    acc = _BlockSum(buf.size)
    exact = True
    negatives = 0
    head = w.size
    lo = 0
    while lo < w.size:
        # pieces of _SUB, _SUB, 2 * _SUB, ... up to _CHUNK, then _CHUNK
        hi = min(max(2 * lo, _SUB), lo + _CHUNK, w.size)
        c = buf[:hi - lo]
        np.multiply(a, w[lo:hi], out=c)
        c /= sd
        small = c <= x0
        if small.any():
            head = lo + int(small.argmax())
            c = c[:head - lo]
        np.cos(c, out=c)
        if np.any(c == 0.0):
            return 0.0
        if exact and c.size:
            negatives += int(np.count_nonzero(c < 0))
            np.abs(c, out=c)
            np.log(c, out=c)
            exact = acc.add(c)
        if head < w.size:
            break
        lo = hi
    if not exact:
        # a log-magnitude is at most 0 and far above -2**35, and a zero
        # factor returned above, so only a NaN factor fails a block
        return math.nan
    logs = [acc.value()]
    if head < w.size:
        sub = min(head - head % _SUB + _SUB, w.size)
        end = min(head - head % _CHUNK + _CHUNK, w.size)
        spans = [(lo, min(lo + _SUB, end)) for lo in range(sub, end, _SUB)]
        spans += [(lo, min(lo + _CHUNK, w.size)) for lo in range(end, w.size, _CHUNK)]
        for span in spans:
            if span not in blocks:
                blocks[span] = _power_sums(w[span[0]:span[1]], sd)
        pieces = [_power_sums(w[head:sub], sd)] + [blocks[span] for span in spans]
        for piece in filter(None, pieces):
            logs += _series_terms(a, *piece)
    sign = 1.0 if negatives % 2 == 0 else -1.0
    return sign * math.exp(math.fsum(logs))


def _power_sums(w: np.ndarray, sd: float) -> tuple[int, list[float]] | None:
    """``(e, sums)`` with sums[k - 1] = sum r**(2k) for k = 1..len(LOG_COS),
    each numpy's pairwise sum, where r = fl(w / sd) * 2**-e, scaled
    exactly by the exponent e of the first, largest, ratio; None for a
    block of zeros, whose terms are all 0.  ``w`` is one tail piece: a
    sub-block or whole block, once per call, or the fewer than ``_SUB``
    terms from the head to the next sub-block, once per |t|."""
    r = w / sd
    if r[0] == 0.0:
        return None
    e = math.frexp(float(r[0]))[1]
    y = np.ldexp(r, -e, out=r)
    y *= y
    power = y.copy()
    sums = [float(power.sum())]
    for _ in LOG_COS[1:]:
        power *= y
        sums.append(float(power.sum()))
    return e, sums


def _series_terms(a: float, e: int, sums: list[float]) -> list[float]:
    """LOG_COS[k - 1] * (a * 2**e)**(2k) * sums[k - 1] for each k: the
    terms of the tail's log from one block's ``_power_sums``.  a * 2**e
    is exact, and at most about 2 * X0 on a tail block, so no power
    overflows."""
    y = math.ldexp(a, e) ** 2
    terms, power = [], 1.0
    for coef, s in zip(LOG_COS, sums):
        power *= y
        terms.append(coef * power * s)
    return terms


def gaussian_char(t: float) -> float:
    """exp(-t**2 / 2), the standard normal's characteristic function at t,
    and 0.0 where t**2 overflows a float."""
    try:
        return math.exp(-0.5 * t ** 2)
    except OverflowError:
        return 0.0


def char_function_gaussian_gap(
    seq: FrequencySequence, sigma: float, cutoff: float, t_grid: np.ndarray
) -> float:
    """sup over the grid of |char_function(t) - exp(-t**2/2)|."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValidationError("t_grid must be a non-empty 1-d grid")
    phis = char_function(seq, sigma, ts, cutoff)
    return max(abs(phi - gaussian_char(t)) for t, phi in zip(ts.tolist(), phis))


def clt_sample(seq: FrequencySequence, sigma: float, cutoff: float,
               master_seed: int, trials: int) -> np.ndarray:
    """Monte Carlo draws of the truncated value over its truncated sd.

    Draw i is the path of trial index i, summed by ``_signed_sums``; the
    paths go through it in blocks of ``_BLOCK`` (64) that all read the one
    weight array, so each chunk of it serves a whole block while it is in
    cache, and one mixing call makes the words of that chunk for every path
    of the block.  The trial count is checked against the term budget
    before the draws' array is allocated.  Warns when the truncated
    variance captures less than 90% of the full variance enclosure, i.e.
    when the cutoff is too small for the chosen exponent to make the
    normalized truncation honest.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    _check_budget(trials)
    w, var = _weights_and_variance(seq, sigma, cutoff)
    if seq.tail_converges(2.0 * sigma):
        _, tail_hi = seq.tail_power_sum(2.0 * sigma, cutoff)
        if var < 0.9 * (var + tail_hi):
            warnings.warn(
                f"truncated variance captures only "
                f"{var / (var + tail_hi):.1%} of the variance enclosure",
                stacklevel=2,
            )
    sd = math.sqrt(var)
    out = np.empty(trials, dtype=np.float64)
    for lo in range(0, trials, _BLOCK):
        block = [SamplePath(seq, master_seed, i) for i in range(lo, min(lo + _BLOCK, trials))]
        out[lo:lo + len(block)] = [sums[0] / sd for sums in _signed_sums(block, [w])]
    return out


def ks_statistic(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the sample to the standard normal."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValidationError("empty sample")
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


@dataclass(frozen=True)
class VarianceProfile:
    """Variance split at the near-critical truncation scale.

    ``head_variance`` is the summed squared gap between the sigma-weight
    and the critical weight over elements up to the scale;
    ``tail_variance`` is a rigorous enclosure of the variance carried by
    elements beyond the scale at the doubled exponent.  For sequences with
    convergent reciprocal sum both stay bounded as sigma drops to 1/2; for
    divergent ones the head blows up.
    """

    sigma: float
    scale: float
    head_count: int
    head_variance: float
    tail_variance_lo: float
    tail_variance_hi: float
    truncated_second_moment: float
    second_moment_cutoff: float


def variance_profile(seq: FrequencySequence, sigma: float) -> VarianceProfile:
    """Head/tail variance decomposition at scale exp(1/(2*sigma - 1)).

    Valid for 1/2 < sigma <= 1.  Raises ResourceBudgetError, naming the
    minimal feasible exponent, when the scale overflows a float or requires
    more served elements than the budget allows (``_heuristic_count``).
    """
    if not 0.5 < sigma <= 1.0:
        raise ValidationError("variance profile needs 1/2 < sigma <= 1")
    scale = heuristic_cutoff(sigma)
    count = _heuristic_count(seq, sigma)
    m = seq._count_up_to(SECOND_MOMENT_CUTOFF)
    # one array serves both sums: the second moment reads its first m
    # weights, then the critical powers are subtracted from its first
    # count weights in place, one chunk at a time, so only one array of
    # max(count, m) terms is held in full
    w, = _weight_arrays(seq, [(sigma, max(count, m))])
    second = _sum_of_squares(w[:m])
    gaps = w[:count]
    for lo in range(0, count, _CHUNK):
        gaps[lo:lo + _CHUNK] -= seq._powers(seq.start_index + lo,
                                            min(count - lo, _CHUNK), -0.5)
    head = _sum_of_squares(gaps)
    if not seq.tail_converges(2.0 * sigma):
        raise DivergenceError("tail variance diverges at the doubled exponent")
    t_lo, t_hi = seq.tail_power_sum(2.0 * sigma, scale)
    return VarianceProfile(
        sigma=float(sigma),
        scale=scale,
        head_count=count,
        head_variance=head,
        tail_variance_lo=t_lo,
        tail_variance_hi=t_hi,
        truncated_second_moment=second,
        second_moment_cutoff=SECOND_MOMENT_CUTOFF,
    )
