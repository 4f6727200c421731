"""Distributional diagnostics near the critical exponent.

Normalized by its truncated standard deviation, the series value is a
weighted sum of independent signs; as the exponent drops toward 1/2 the
weights flatten and the law approaches a standard normal.  This module
provides the exact characteristic function of the (truncated) value, a
Monte Carlo sampler of the normalized value, a Kolmogorov-Smirnov
distance against the standard normal, and the variance profile at the
near-critical truncation scale.  Each counts its terms through
``_count_up_to``, so one term budget bounds every operation; the variance
profile's second moment is truncated at ``SECOND_MOMENT_CUTOFF``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ResourceBudgetError, ValidationError
from . import frequencies
from .evaluation import _signed_sums, heuristic_cutoff
from .frequencies import FrequencySequence, _check_finite
from .paths import SamplePath
from .summation import _CHUNK, _BlockSum, _sum_of_squares

SECOND_MOMENT_CUTOFF = 1_000_000.0


def _weights_and_variance(seq: FrequencySequence, sigma: float,
                          cutoff: float) -> tuple[np.ndarray, float]:
    """The weights ``p**-sigma`` over the served ``p <= cutoff`` and their
    sum of squares, the truncated variance, checked finite and positive."""
    _check_finite("sigma", sigma)
    n = seq._count_up_to(cutoff)
    if n == 0:
        raise ValidationError("no elements at or below cutoff")
    w = seq._powers(seq.start_index, n, -float(sigma))
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

    Equals the product over served p <= cutoff of cos(t * p**-sigma / V),
    with V the truncated standard deviation.  Evaluated in log space with
    explicit sign tracking so products of thousands of factors neither
    underflow nor lose the sign.  ``t`` is a float, giving a float, or a
    1-d grid, giving a list with one value per t; the weights and V come
    from ``_weights_and_variance`` once per call.

    Each t runs one blocked pass: ``_CHUNK`` factors at a time are formed,
    checked for a zero, counted for sign, turned into log-magnitudes and
    added to one ``summation._BlockSum``, so no full-length array of
    cosines is held and the sum equals ``exact_sum`` of all the
    log-magnitudes.
    phi is even, and exactly so in floating point: -t * w / V is the
    negated argument, and ``np.cos`` is bitwise even.  So a t whose mirror
    -t (or +-0) was already evaluated in the call reuses that value.  numpy
    does not promise an even ``cos`` (it may pick another implementation on
    another CPU); the reuse is right only where
    ``test_numpy_cos_is_bitwise_even_on_prime_arguments`` passes, and a
    failure there means that assumption broke, not a flaky test.  The
    weights and V are finite, so at t = +-0 every factor is exactly
    cos(+-0) = 1, and 1.0 is returned without a pass.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValidationError("t must be a float or a 1-d grid")
    points = ts.ravel().tolist()
    _check_finite("t", *points)
    w, var = _weights_and_variance(seq, sigma, cutoff)
    sd = math.sqrt(var)
    buf = np.empty(min(w.size, _CHUNK))
    known: dict[float, float] = {}
    for tk in points:
        if abs(tk) not in known:
            known[abs(tk)] = _char_value(tk, w, sd, buf)
    values = [known[abs(tk)] for tk in points]
    return values[0] if ts.ndim == 0 else values


def _char_value(tk: float, w: np.ndarray, sd: float, buf: np.ndarray) -> float:
    """prod cos(tk * w / sd), one ``_CHUNK`` block at a time."""
    if tk == 0.0:
        return 1.0
    acc = _BlockSum(buf.size)
    exact = True
    negatives = 0
    for lo in range(0, w.size, _CHUNK):
        c = buf[:min(w.size - lo, _CHUNK)]
        np.multiply(tk, w[lo:lo + c.size], out=c)
        c /= sd
        np.cos(c, out=c)
        if np.any(c == 0.0):
            return 0.0
        if exact:
            negatives += int(np.count_nonzero(c < 0))
            np.abs(c, out=c)
            np.log(c, out=c)
            exact = acc.add(c)
    if not exact:
        # a log-magnitude is at most 0 and far above -2**35, and a zero
        # factor returned above, so only a NaN factor fails a block
        return math.nan
    sign = 1.0 if negatives % 2 == 0 else -1.0
    return sign * math.exp(acc.value())


def char_function_gaussian_gap(
    seq: FrequencySequence, sigma: float, cutoff: float, t_grid: np.ndarray
) -> float:
    """sup over the grid of |char_function(t) - exp(-t**2/2)|."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValidationError("t_grid must be a non-empty 1-d grid")
    phis = char_function(seq, sigma, ts, cutoff)
    return max(abs(phi - math.exp(-0.5 * t ** 2))
               for t, phi in zip(ts.tolist(), phis))


def clt_sample(seq: FrequencySequence, sigma: float, cutoff: float,
               master_seed: int, trials: int) -> np.ndarray:
    """Monte Carlo draws of the truncated value over its truncated sd.

    Warns when the truncated variance captures less than 90% of the full
    variance enclosure, i.e. when the cutoff is too small for the chosen
    exponent to make the normalized truncation honest.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
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
    for i in range(trials):
        path = SamplePath(seq, master_seed, i)
        out[i] = _signed_sums(path, [w])[0] / sd
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
    minimal feasible exponent, when the scale requires more served
    elements than the budget allows.
    """
    if not 0.5 < sigma <= 1.0:
        raise ValidationError("variance profile needs 1/2 < sigma <= 1")
    scale = heuristic_cutoff(sigma)
    try:
        if math.isinf(scale):
            raise ResourceBudgetError("the scale overflows a float")
        count = seq._count_up_to(scale)
    except ResourceBudgetError as exc:
        # invert the scale rule at the budget to name the smallest workable sigma
        sigma_min = 0.5 + 0.5 / math.log(float(frequencies.DEFAULT_TERM_BUDGET))
        raise ResourceBudgetError(
            f"scale {scale:.3g}: {exc}; minimal feasible sigma is about "
            f"{sigma_min:.6f}"
        ) from None
    # the critical powers are subtracted one chunk at a time, so only the
    # gaps are held in full, and they are freed before the second moment
    gaps = seq._powers(seq.start_index, count, -float(sigma))
    for lo in range(0, gaps.size, _CHUNK):
        gaps[lo:lo + _CHUNK] -= seq._powers(seq.start_index + lo,
                                            min(gaps.size - lo, _CHUNK), -0.5)
    head_count, head = gaps.size, _sum_of_squares(gaps)
    del gaps
    if not seq.tail_converges(2.0 * sigma):
        raise DivergenceError("tail variance diverges at the doubled exponent")
    t_lo, t_hi = seq.tail_power_sum(2.0 * sigma, scale)
    w = seq._powers(seq.start_index, seq._count_up_to(SECOND_MOMENT_CUTOFF),
                    -float(sigma))
    second = _sum_of_squares(w)
    return VarianceProfile(
        sigma=float(sigma),
        scale=scale,
        head_count=head_count,
        head_variance=head,
        tail_variance_lo=t_lo,
        tail_variance_hi=t_hi,
        truncated_second_moment=second,
        second_moment_cutoff=SECOND_MOMENT_CUTOFF,
    )
