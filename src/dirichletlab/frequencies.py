"""Frequency sequences and their deterministic summatory functions.

A frequency sequence is a strictly increasing sequence of reals >= 1 whose
power series sum(p**-sigma) diverges for sigma < 1 and converges for
sigma > 1.  Three built-in families are served (naturals, primes, and
log-weighted naturals whose reciprocal sum converges), plus arbitrary
explicit finite sequences loaded from text files.

Each kind supplies two primitives over its own 1-based numbering:
``_values(first, count)``, elements first .. first+count-1 as float64
(fewer, or none, past the end of a finite sequence), and ``_count_leq(x)``,
the number of elements <= x counted from index 1.  The base class derives
``element``, ``counting_function``, ``elements_up_to`` and
``next_elements`` from them once, so every operation maps indices to values
by the same rule; ``start_index`` only decides which elements are served.
Every cutoff reaches ``_count_leq`` through one check that rejects
infinite and NaN values, and every operation that reads terms counts them
through ``_count_up_to``.  ``_check_budget`` behind it is the one gate
against ``DEFAULT_TERM_BUDGET`` (``ResourceBudgetError`` past it), also for
the total of the weight arrays one call holds; ``Primes`` refuses before it
sieves.  Powers ``p**e`` of served elements are formed by ``_powers``,
``_CHUNK`` elements at a time, so no element array is held beside them.

All operations are pure and deterministic; sequence objects are immutable
and safe to share across threads and worker processes.
"""

from __future__ import annotations

import math
import sys
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import sieve
from .errors import DivergenceError, ResourceBudgetError, ValidationError
from .summation import _CHUNK, exact_sum

DEFAULT_TERM_BUDGET = 60_000_000
# the exactly summed head of every tail enclosure
DEFAULT_TAIL_HEAD_TERMS = 20_000


def _check_finite(name: str, *values: float) -> None:
    """Reject an infinite or NaN argument, naming it."""
    for value in values:
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def _check_budget(n: int) -> int:
    """``n``, the number of terms an operation reads or holds, checked
    against ``DEFAULT_TERM_BUDGET`` (read at call time)."""
    if n > DEFAULT_TERM_BUDGET:
        raise ResourceBudgetError(f"operation needs {n} terms, exceeding "
                                  f"the budget of {DEFAULT_TERM_BUDGET}")
    return n


def _text_lines(path):
    """Yield ``(lineno, text)`` for each line of a text file that is not
    blank once its '#' comment is cut, stripped.  Raises ValidationError
    when the file cannot be read as UTF-8 text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # missing, a directory, not text
        raise ValidationError(f"cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class _SequenceOps:
    """Operations derived from each kind's two primitives (module docstring)."""

    start_index: int

    def __post_init__(self):
        if self.start_index < 1:
            raise ValidationError("start_index must be >= 1")

    # ---- primitives implemented by each kind -------------------------

    def _values(self, first: int, count: int) -> np.ndarray:
        raise NotImplementedError

    def _count_leq(self, x: float) -> int:
        raise NotImplementedError

    def tail_converges(self, sigma: float) -> bool:
        raise NotImplementedError

    def _remainder_enclosure(self, sigma: float, index: int) -> tuple[float, float]:
        """Enclosure of sum(p**-sigma) over the elements past ``index``.

        ``index`` is the global 1-based index of the last exactly summed
        element (``start_index`` only decides which elements are served);
        a kind that needs that element reads it as ``self.element(index)``.
        """
        raise NotImplementedError

    # ---- derived operations ------------------------------------------

    def element(self, index: int) -> float:
        if index < self.start_index:
            raise ValidationError(f"index {index} precedes start_index")
        values = self._values(index, 1)
        if values.size == 0:
            raise ValidationError(f"sequence exhausted before index {index}")
        return float(values[0])

    def _finite_count_leq(self, x: float) -> int:
        """``_count_leq`` behind the check that every cutoff passes."""
        _check_finite("cutoff", x)
        return self._count_leq(x)

    def counting_function(self, x: float) -> int:
        """Number of served elements <= x."""
        return max(0, self._finite_count_leq(x) - self.start_index + 1)

    def _count_up_to(self, cutoff: float) -> int:
        """``counting_function(cutoff)``, checked against the term budget."""
        return _check_budget(self.counting_function(cutoff))

    def _budget_cutoff(self) -> float:
        """About the largest cutoff ``_count_up_to`` accepts, found without
        counting: the served element that brings the count to the budget,
        or inf where a finite sequence never gets there."""
        values = self._values(self.start_index + DEFAULT_TERM_BUDGET - 1, 1)
        return float(values[0]) if values.size else math.inf

    def elements_up_to(self, cutoff: float) -> np.ndarray:
        return self._values(self.start_index, self._count_up_to(cutoff))

    def _first_above(self, cutoff: float) -> int:
        """Index of the first served element strictly above ``cutoff``."""
        return max(self._finite_count_leq(cutoff) + 1, self.start_index)

    def next_elements(self, cutoff: float, count: int) -> np.ndarray:
        """The next ``count`` served elements strictly above ``cutoff``.

        May return fewer for finite sequences.
        """
        return self._values(self._first_above(cutoff), count)

    def _powers(self, first: int, count: int, exponent: float) -> np.ndarray:
        """``self._values(first, count) ** exponent``, bit for bit.

        The result is allocated once and filled ``_CHUNK`` elements at a
        time, so only one chunk of elements is held beside it.  What
        ``_values`` returns is only read, never written: ``Explicit``
        serves views of its own array.  Fewer powers, or none, past the
        end of a finite sequence.  Raises ValidationError unless every
        power is finite, which the last one settles: the elements are
        >= 1 and increasing, so for a positive exponent it is the largest,
        and for any other every power is at most 1.
        """
        exponent = float(exponent)
        out = np.empty(count)
        # only a positive exponent can overflow, which the check below
        # reports without numpy's warning
        with np.errstate(over="ignore") if exponent > 0 else nullcontext():
            for lo in range(0, count, _CHUNK):
                m = min(count - lo, _CHUNK)
                values = self._values(first + lo, m)
                np.power(values, exponent, out=out[lo:lo + values.size])
                if values.size < m:  # a finite sequence ran out
                    out = out[:lo + values.size].copy()
                    break
        if out.size and not math.isfinite(out[-1]):
            raise ValidationError(f"the powers p**{exponent:g} are not finite")
        return out

    def power_sum(self, sigma: float, cutoff: float) -> float:
        """sum(p**-sigma for served p <= cutoff), correctly rounded."""
        if cutoff < 1:
            raise ValidationError("cutoff must be >= 1")
        n = self._count_up_to(cutoff)
        if n == 0:
            return 0.0
        return exact_sum(self._powers(self.start_index, n, -float(sigma)))

    def tail_power_sum(
        self,
        sigma: float,
        cutoff: float,
        head_terms: int = DEFAULT_TAIL_HEAD_TERMS,
    ) -> tuple[float, float]:
        """Two-sided enclosure of sum(p**-sigma for served p > cutoff).

        The leading ``head_terms`` tail elements are summed exactly and
        rounded once (``exact_sum``); the rest is bracketed by the kind's
        ``_remainder_enclosure`` past the global index of the last head
        element, read from the head's size.  A finite sequence that runs
        out within the head has no rest.  Raises DivergenceError below the
        convergence threshold.
        """
        sigma = float(sigma)
        if not self.tail_converges(sigma):
            raise DivergenceError(
                f"tail diverges at exponent {sigma} for {type(self).__name__}"
            )
        head_terms = max(int(head_terms), 16)
        first = self._first_above(cutoff)
        head = self._powers(first, head_terms, -sigma)
        head_sum = exact_sum(head)
        rem_lo, rem_hi = (
            self._remainder_enclosure(sigma, first + head.size - 1)
            if head.size == head_terms else (0.0, 0.0)
        )
        return (head_sum + rem_lo, head_sum + rem_hi)


@dataclass(frozen=True)
class Naturals(_SequenceOps):
    """The natural numbers 1, 2, 3, ... served from ``start_index``."""

    start_index: int = 1

    def _values(self, first, count):
        return np.arange(first, first + count, dtype=np.float64)

    def _count_leq(self, x):
        return max(0, int(math.floor(x)))

    def tail_converges(self, sigma: float) -> bool:
        return sigma > 1.0

    def _remainder_enclosure(self, sigma, index):
        n2 = float(index)  # the last summed integer is its own index
        lo = (n2 + 1.0) ** (1.0 - sigma) / (sigma - 1.0)
        hi = n2 ** (1.0 - sigma) / (sigma - 1.0)
        return lo, hi


def _prime_count_lower(x: float) -> float:
    """A lower bound on pi(x): x/log x * (1 + 1/log x) for x >= 599
    (Dusart, "Estimates of some functions over primes without R.H.",
    2010), x/log x for x >= 17 (Rosser-Schoenfeld 1962), 0 below 17."""
    if x < 17:
        return 0.0
    log_x = math.log(x)
    return x / log_x * (1.0 + 1.0 / log_x if x >= 599 else 1.0)


@dataclass(frozen=True)
class Primes(_SequenceOps):
    """The rational primes 2, 3, 5, ... served by a cached segmented sieve."""

    start_index: int = 1

    def _values(self, first, count):
        return sieve.primes_slice(first, count).astype(np.float64)

    def _count_leq(self, x):
        # refuse a cutoff past the budget before sieving to it
        if (bound := _prime_count_lower(x)) > DEFAULT_TERM_BUDGET:
            raise ResourceBudgetError(
                f"more than {bound:.3g} primes up to {x:g}, exceeding "
                f"the budget of {DEFAULT_TERM_BUDGET}")
        return sieve.prime_count(x)

    def _budget_cutoff(self) -> float:
        """Where ``_prime_count_lower``, which does not decrease, passes the
        budget, past which ``_count_leq`` refuses before sieving: bisected
        in log x between 17 and the largest float, to a float's resolution."""
        lo, hi = 17.0, sys.float_info.max
        while lo < (mid := math.sqrt(lo) * math.sqrt(hi)) < hi:
            lo, hi = (lo, mid) if _prime_count_lower(mid) > DEFAULT_TERM_BUDGET else (mid, hi)
        return hi

    def tail_converges(self, sigma: float) -> bool:
        return sigma > 1.0

    def _remainder_enclosure(self, sigma, index):
        # Chebyshev-type bounds: x/log x < pi(x) < 1.26 x/log x, the lower
        # valid for x >= 17.  The remainder past the last head prime K is
        # s*Integral_K^inf (pi(x)-pi(K)) x^(-s-1) dx, bounded both ways;
        # K is the index-th prime, so pi(K) is the index.
        k = self.element(index)
        if k < 17:
            raise ValidationError("prime tail remainder requires head past 17")
        logk = math.log(k)
        pi_k = float(index)
        s = sigma
        hi = s * 1.26 / ((s - 1.0) * logk) * k ** (1.0 - s) - pi_k * k ** (-s)
        lo = (
            s / (2.0 * logk * (s - 1.0)) * (k ** (1.0 - s) - k ** (2.0 * (1.0 - s)))
            - pi_k * (k ** (-s) - k ** (-2.0 * s))
        )
        return max(lo, 0.0), max(hi, 0.0)


@dataclass(frozen=True)
class WeightedNaturals(_SequenceOps):
    """Elements n * log(n+1)**exponent with exponent > 1.

    The reciprocal sum converges while the power-sum abscissa stays at 1.
    Served from start_index 2 by default so every element is >= 1
    (the n=1 element log(2)**exponent would fall below 1).  The sequence
    is its float elements fl(n * log(n+1)**exponent): decisions and the
    certificate's head sums are about those, not the real products.
    """

    exponent: float = 2.0
    start_index: int = 2

    def __post_init__(self):
        _check_finite("weighted-naturals exponent", self.exponent)
        if not self.exponent > 1.0:
            raise ValidationError("weighted-naturals exponent must be > 1")
        super().__post_init__()
        # the last element a budgeted cutoff's tail head reads, and every
        # one before it, must be a finite float
        last = self.start_index + DEFAULT_TERM_BUDGET + DEFAULT_TAIL_HEAD_TERMS
        with np.errstate(over="ignore"):
            finite = math.isfinite(self._values(last, 1)[0])
        if not finite:
            raise ValidationError(
                f"weighted-naturals exponent {self.exponent!r} overflows a "
                f"float within the term budget")
        if self.element(self.start_index) < 1.0:
            raise ValidationError(
                "first served element falls below 1; raise start_index"
            )

    def _values(self, first, count):
        idx = np.arange(first, first + count, dtype=np.float64)
        return idx * np.log(idx + 1.0) ** self.exponent

    def _log_value(self, n: int) -> float:
        return math.log(n) + self.exponent * math.log(math.log(n + 1))

    def _count_leq(self, x):
        """Largest n with n*log(n+1)**a <= x; 0 if none.  Handles huge x."""
        if x < math.log(2.0) ** self.exponent:  # the n=1 element
            return 0
        # ulp-scale slack so an element exactly equal to x still counts;
        # consecutive elements are far wider apart than this at any n the
        # comparison can reach
        logx = math.log(x)
        tol = 32.0 * sys.float_info.epsilon * max(1.0, abs(logx))
        logx += tol
        lo, hi = 1, 2
        while self._log_value(hi) <= logx:
            hi *= 2
        # invariant: value(lo) <= x < value(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._log_value(mid) <= logx:
                lo = mid
            else:
                hi = mid
        return lo

    def tail_converges(self, sigma: float) -> bool:
        return sigma >= 1.0

    def _remainder_enclosure(self, sigma, index):
        a = self.exponent
        m = index  # the remainder sums over n > m
        # Upper: terms <= 1/(n log(n)**(a*s)) for s >= 1, then integral
        # comparison; for s > 1 a second bound keeps the algebraic decay.
        asig = a * sigma
        logm = math.log(m)
        hi = logm ** (1.0 - asig) / (asig - 1.0)
        if sigma > 1.0:
            alt = math.log(m + 1) ** (-asig) * m ** (1.0 - sigma) / (sigma - 1.0)
            hi = min(hi, alt)
        # Lower: truncate the comparison integral at (m+2)**2 where the
        # log factor is controlled; the int's log is finite for any index.
        log_u = math.log(m + 2)
        log_u2 = 2.0 * log_u
        if sigma > 1.0:
            u = m + 2.0
            lo = log_u2 ** (-asig) * (
                u ** (1.0 - sigma) - u ** (2.0 * (1.0 - sigma))
            ) / (sigma - 1.0)
        else:
            lo = log_u2 ** (-asig) * log_u
        return max(lo, 0.0), hi


@dataclass(frozen=True)
class Explicit(_SequenceOps):
    """A finite, strictly increasing sequence supplied by the caller.

    Condition P1 (elements >= 1) is checked; whether the power sums have
    the right abscissa of convergence is the caller's responsibility and a
    warning is emitted on construction.
    """

    values: tuple[float, ...]
    start_index: int = 1

    def __post_init__(self):
        if not self.values:
            raise ValidationError("explicit sequence must be nonempty")
        prev = None
        for i, v in enumerate(self.values):
            if not math.isfinite(v) or v < 1.0:
                raise ValidationError(f"element {i + 1} is {v}; must be >= 1")
            if prev is not None and v <= prev:
                raise ValidationError(f"element {i + 1} breaks strict increase")
            prev = v
        super().__post_init__()
        if self.start_index > len(self.values):
            raise ValidationError("start_index out of range")
        array = np.array(self.values, dtype=np.float64)
        array.flags.writeable = False  # slices of it are served as views
        object.__setattr__(self, "_array", array)
        warnings.warn(
            "explicit sequences are accepted as-is; the abscissa-of-"
            "convergence condition is the caller's responsibility",
            stacklevel=3,
        )

    @classmethod
    def from_file(cls, path) -> "Explicit":
        """Load one positive real per line; '#' starts a comment."""
        values = []
        for lineno, line in _text_lines(path):
            try:
                v = float(line)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: not a real number: {line!r}"
                ) from None
            if not math.isfinite(v) or v < 1.0:
                raise ValidationError(f"{path}:{lineno}: element {v} is below 1")
            if values and v <= values[-1]:
                raise ValidationError(
                    f"{path}:{lineno}: sequence not strictly increasing"
                )
            values.append(v)
        if not values:
            raise ValidationError(f"{path}: no elements found")
        return cls(tuple(values))

    def _values(self, first, count):
        return self._array[first - 1 : first - 1 + count]

    def _count_leq(self, x):
        return int(np.searchsorted(self._array, x, side="right"))

    def tail_converges(self, sigma: float) -> bool:
        return True  # finite

    def _remainder_enclosure(self, sigma, index):
        # the elements past the head, summed exactly like the head
        rest = exact_sum(self._powers(index + 1, len(self.values) - index, -sigma))
        return rest, rest


# ---------------------------------------------------------------------------
# Factory used by configs/CLI so sequences round-trip through plain strings.

FrequencySequence = _SequenceOps  # public alias for annotations


def make_sequence(spec: str) -> _SequenceOps:
    """Build a sequence from a spec string.

    Formats: ``naturals``, ``primes``, ``weighted:<exponent>``,
    ``explicit:v1,v2,...``, ``explicit@/path/to/file``, each optionally
    followed by ``;start=<n>`` to serve from index n instead of the kind's
    default start_index.
    """
    spec = spec.strip()
    base, sep, start = spec.rpartition(";start=")
    if sep:
        seq = make_sequence(base)
        try:
            start_index = int(start)
        except ValueError:
            raise ValidationError(f"bad start index in {spec!r}") from None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return replace(seq, start_index=start_index)
    if spec == "naturals":
        return Naturals()
    if spec == "primes":
        return Primes()
    if spec.startswith("weighted:"):
        try:
            a = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad weighted exponent in {spec!r}") from None
        return WeightedNaturals(exponent=a)
    if spec == "weighted":
        return WeightedNaturals()
    if spec.startswith("explicit:"):
        body = spec.split(":", 1)[1]
        try:
            values = tuple(float(x) for x in body.split(",") if x.strip())
        except ValueError:
            raise ValidationError(f"bad explicit values in {spec!r}") from None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return Explicit(values)
    if spec.startswith("explicit@"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return Explicit.from_file(spec.split("@", 1)[1])
    raise ValidationError(f"unknown sequence spec {spec!r}")


def sequence_spec(seq: _SequenceOps) -> str:
    """Canonical spec string for a sequence (inverse of make_sequence)."""
    if isinstance(seq, Naturals):
        spec = "naturals"
    elif isinstance(seq, Primes):
        spec = "primes"
    elif isinstance(seq, WeightedNaturals):
        spec = f"weighted:{seq.exponent!r}"
    elif isinstance(seq, Explicit):
        spec = "explicit:" + ",".join(repr(v) for v in seq.values)
    else:
        raise ValidationError(f"unknown sequence type {type(seq).__name__}")
    if seq.start_index != type(seq).start_index:  # the kind's default
        spec += f";start={seq.start_index}"
    return spec
