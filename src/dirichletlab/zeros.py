"""Certified sign scanning, sign-change counting, and no-zero certification.

Zeros are counted as certified sign changes between adjacent decided grid
points: a lower bound on the true zero count.  Undecided points break
adjacency, so the count is conservative.  Probabilistic failure is
accounted by a union bound over the distinct tail certificates used; one
certificate covers every exponent above its base, so a whole scan
normally spends its budget exactly once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from ._version import SCHEMA_VERSION
from .errors import ValidationError
from .evaluation import TailCertificate, _check_certificate, _decide, tail_certificate
from .frequencies import _check_finite, sequence_spec
from .paths import SamplePath

_MAX_GRID_POINTS = 20_000
# the no-zero scan policy: the domination search starts at SIGMA_SWITCH
# (or just above sigma_lo), and the scan below it refines to NO_ZERO_RESOLUTION
SIGMA_SWITCH = 2.0
NO_ZERO_RESOLUTION = 2e-3


@dataclass
class SignScanReport:
    """Outcome of a certified sign scan over a sigma interval."""

    seq: str
    master_seed: int
    trial_index: int
    sigma_lo: float
    sigma_hi: float
    sigma_grid: list[float]
    decided_signs: list[str]  # "+", "-", or "undecided" per grid point
    sign_changes: int
    undecided_measure: float
    no_zero_certified: bool
    eta_total: float
    certificate: dict
    refinement_rounds: int
    resolution: float
    domination_sigma: float | None = None
    schema_version: int = SCHEMA_VERSION
    kind: str = field(default="sign_scan")

    def to_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=32, typed=True)
def _initial_grid(sigma_lo: float, sigma_hi: float, points: int) -> tuple[float, ...]:
    """Geometric in (sigma - 1/2) when possible: the action accumulates
    toward the critical exponent.  Falls back to uniform spacing when the
    interval starts at or below 1/2 (exact-certificate scans allow that).
    Memoized, as a tuple: every trial of a study scans the same grid."""
    if sigma_lo > 0.5:
        d_lo, d_hi = sigma_lo - 0.5, sigma_hi - 0.5
        ratio = (d_hi / d_lo) ** (1.0 / (points - 1))
        grid = [0.5 + d_lo * ratio ** i for i in range(points)]
    else:
        step = (sigma_hi - sigma_lo) / (points - 1)
        grid = [sigma_lo + step * i for i in range(points)]
    grid[0], grid[-1] = sigma_lo, sigma_hi
    return tuple(grid)


# a decided sign's report string
_sign_str = {1: "+", -1: "-", None: "undecided"}.__getitem__


def _certified_changes(signs: list[int | None]) -> int:
    """Sign changes between adjacent grid points that are both decided."""
    return sum(1 for x, y in zip(signs, signs[1:])
               if x is not None and y is not None and x != y)


def scan_certificate(seq, sigma_lo: float, cutoff: float, eta: float) -> TailCertificate:
    """The tail certificate for scans of ``seq`` from ``sigma_lo`` up.

    Its base exponent is (sigma_lo + 1/2)/2, halfway to the critical line,
    and sigma_lo itself at or below 1/2, where only a finite sequence
    summed to its end can be certified, with an exact certificate.
    """
    _check_finite("sigma_lo", sigma_lo)
    exact_possible = seq.next_elements(cutoff, 1).size == 0
    if sigma_lo <= 0.5 and not exact_possible:
        raise ValidationError(
            "scanning at or below 1/2 needs a finite sequence summed exactly"
        )
    sigma0 = (sigma_lo + 0.5) / 2.0 if sigma_lo > 0.5 else sigma_lo
    return tail_certificate(seq, sigma0, cutoff, eta)


def scan(
    path: SamplePath,
    sigma_lo: float,
    sigma_hi: float,
    cert: TailCertificate,
    initial_grid: int = 16,
    max_refinement: int = 6,
    resolution: float = 1e-3,
) -> SignScanReport:
    """Certified signs on an adaptive grid plus a conservative change count.

    The one certificate ``cert`` (see ``scan_certificate``) covers every
    grid point, so the whole scan spends its eta once, and it is checked
    once, on the initial grid, before any sign is streamed: every later
    point lies between two grid points, so the rounds read their memo rows
    unchecked.  The path's first ``cert.count`` signs are made once, as one
    vector (``SamplePath._signs``) held for the scan's life, and every
    round sums its rows against it, one at a time, with the bits
    ``decide`` gives them.
    The open intervals, wider than ``resolution`` with an undecided sign or
    different signs at their ends, are kept in a list, ascending, each with
    the signs at its ends and its midpoint beside it; each of up to
    ``max_refinement`` rounds decides their midpoints alone, and the two
    halves of each interval are tested as they are made, the open ones
    replacing it with their midpoints.  The grid is sorted once.
    """
    _check_finite("sigma_hi", sigma_hi)
    if not sigma_lo < sigma_hi:
        raise ValidationError("need sigma_lo < sigma_hi")
    _check_finite("resolution", resolution)
    if resolution <= 0:
        raise ValidationError("resolution must be positive")
    if not 2 <= initial_grid <= _MAX_GRID_POINTS:
        raise ValidationError(
            f"initial_grid must lie in [2, {_MAX_GRID_POINTS}], got {initial_grid}"
        )

    # ascending floats, and so are the midpoints
    grid = _initial_grid(float(sigma_lo), float(sigma_hi), initial_grid)
    # the one certificate check: each midpoint, the rounded half of a sum
    # of two grid points, is at least the smaller
    _check_certificate(path, grid, cert)
    held = path._signs(cert.count)
    decided = _decide(path, grid, cert, held)
    signs: dict[float, int | None] = dict(zip(grid, decided))
    # the open intervals (a, b, sign at a, sign at b), and their midpoints
    work = [(a, b, x, y) for a, b, x, y in zip(grid, grid[1:], decided, decided[1:])
            if b - a > resolution and (x is None or x != y)]
    mids = [0.5 * (a + b) for a, b, _, _ in work]
    rounds = 0
    while work and rounds < max_refinement and len(signs) + len(work) <= _MAX_GRID_POINTS:
        decided = _decide(path, mids, cert, held)
        signs.update(zip(mids, decided))
        halves, next_mids = [], []
        for (a, b, x, y), m, z in zip(work, mids, decided):
            if m - a > resolution and (x is None or x != z):
                halves.append((a, m, x, z))
                next_mids.append(0.5 * (a + m))
            if b - m > resolution and (z is None or z != y):
                halves.append((m, b, z, y))
                next_mids.append(0.5 * (m + b))
        work, mids = halves, next_mids
        rounds += 1
    pts = sorted(signs)
    return _report(path, cert, pts, list(map(signs.__getitem__, pts)), rounds, resolution)


def _report(path: SamplePath, cert: TailCertificate, pts: list[float],
            decided: list[int | None], rounds: int, resolution: float
            ) -> SignScanReport:
    """The report of the ascending float grid ``pts``, which it keeps, and
    its signs ``decided``: the undecided measure and the certified changes
    in one pass."""
    gaps, changes = [], 0
    for a, b, x, y in zip(pts, pts[1:], decided, decided[1:]):
        if x is None or y is None:
            gaps.append(b - a)
        elif x != y:
            changes += 1
    return SignScanReport(
        seq=sequence_spec(path.seq),
        master_seed=path.master_seed,
        trial_index=path.trial_index,
        sigma_lo=pts[0],
        sigma_hi=pts[-1],
        sigma_grid=pts,
        decided_signs=list(map(_sign_str, decided)),
        sign_changes=changes,
        undecided_measure=math.fsum(gaps),
        no_zero_certified=False,
        eta_total=cert.eta,
        certificate={k: getattr(cert, k)
                     for k in ("sigma0", "cutoff", "threshold", "eta", "exhausted")},
        refinement_rounds=rounds,
        resolution=float(resolution),
    )


@lru_cache(maxsize=32)
def _single_term_domination_sigma(seq, sigma_start: float):
    """An exponent from which on the first element alone beats the rigorous
    upper tail bound, or None: the first such rung of the ladder
    sigma_start * 1.5**k, the start always tested, the rest up to 64.
    Termwise monotonicity makes the domination persist for every larger
    exponent.  The two sides are compared as logarithms, which do not
    underflow, and a tail upper end that underflowed to 0.0 bounds nothing:
    a start whose does is replaced by the first rung below it whose does
    not, where domination persists up to the start.  Path-independent, so
    memoized on the frozen sequence."""
    p1 = seq.element(seq.start_index)
    if seq.next_elements(p1, 1).size == 0:
        return sigma_start  # the first element is the whole sequence
    sigma = sigma_start
    _, tail_hi = seq.tail_power_sum(sigma, p1)
    while tail_hi == 0.0:
        sigma /= 1.5
        _, tail_hi = seq.tail_power_sum(sigma, p1)
    while not math.log(tail_hi) < -sigma * math.log(p1):
        sigma *= 1.5
        if sigma > 64.0:
            return None
        _, tail_hi = seq.tail_power_sum(sigma, p1)
        if tail_hi == 0.0:
            return None
    return sigma


def certify_no_zeros(
    path: SamplePath,
    sigma_lo: float,
    cert: TailCertificate,
) -> SignScanReport:
    """Attempt to certify that the series has no zero on [sigma_lo, inf).

    Strategy: find an exponent where the leading element dominates the
    whole tail (this closes the unbounded region, because the domination
    ratio is termwise decreasing in the exponent), certify one common sign
    on [sigma_lo, that exponent] by scanning, and require the common sign
    to match the leading element's sign.  Where that exponent is at most
    sigma_lo the leading element decides the whole half-line, with no
    scan and no certificate read: the report's grid is sigma_lo alone, and
    its eta_total is 0.0.  Failure to certify is a legitimate outcome and
    raises nothing.
    """
    seq = path.seq
    lead = path.sign_at(seq.start_index)
    dom_sigma = _single_term_domination_sigma(seq, max(SIGMA_SWITCH, sigma_lo + 1e-9))
    if dom_sigma is not None and dom_sigma <= sigma_lo:
        # the leading term alone fixes the sign on the whole half-line, for
        # every path: no certificate can fail there
        report = _report(path, cert, [float(sigma_lo)], [lead], 0, NO_ZERO_RESOLUTION)
        report.eta_total = 0.0
    else:
        hi = dom_sigma if dom_sigma is not None else max(SIGMA_SWITCH, sigma_lo + 1.0)
        report = scan(path, sigma_lo, hi, cert, resolution=NO_ZERO_RESOLUTION)
    report.domination_sigma = dom_sigma
    # one decided sign everywhere, the leading element's: no certified
    # change, and a failed probabilistic certificate shows as a mismatch
    report.no_zero_certified = dom_sigma is not None and set(
        report.decided_signs) == {_sign_str(lead)}
    return report
