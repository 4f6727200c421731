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
from .evaluation import TailCertificate, decide, tail_certificate
from .frequencies import (
    DEFAULT_TAIL_HEAD_TERMS,
    Explicit,
    _check_finite,
    sequence_spec,
)
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


def _initial_grid(sigma_lo: float, sigma_hi: float, points: int) -> list[float]:
    """Geometric in (sigma - 1/2) when possible: the action accumulates
    toward the critical exponent.  Falls back to uniform spacing when the
    interval starts at or below 1/2 (exact-certificate scans allow that)."""
    if sigma_lo > 0.5:
        d_lo, d_hi = sigma_lo - 0.5, sigma_hi - 0.5
        ratio = (d_hi / d_lo) ** (1.0 / (points - 1))
        grid = [0.5 + d_lo * ratio ** i for i in range(points)]
    else:
        step = (sigma_hi - sigma_lo) / (points - 1)
        grid = [sigma_lo + step * i for i in range(points)]
    grid[0], grid[-1] = sigma_lo, sigma_hi
    return grid


def _sign_str(sign: int | None) -> str:
    if sign is None:
        return "undecided"
    return "+" if sign > 0 else "-"


def _certified_changes(signs: list[int | None]) -> int:
    """Sign changes between adjacent grid points that are both decided."""
    return sum(1 for x, y in zip(signs, signs[1:])
               if x is not None and y is not None and x != y)


def scan_certificate(
    seq,
    sigma_lo: float,
    cutoff: float,
    eta: float,
    head_terms: int = DEFAULT_TAIL_HEAD_TERMS,
) -> TailCertificate:
    """The tail certificate for scans of ``seq`` from ``sigma_lo`` up.

    Its base exponent is (sigma_lo + 1/2)/2, halfway to the critical line,
    and sigma_lo itself at or below 1/2, where only a finite sequence
    summed to its end can be certified, with an exact certificate.
    """
    _check_finite("sigma_lo", sigma_lo)
    exact_possible = isinstance(seq, Explicit) and cutoff >= seq.values[-1]
    if sigma_lo <= 0.5 and not exact_possible:
        raise ValidationError(
            "scanning at or below 1/2 needs a finite sequence summed exactly"
        )
    sigma0 = (sigma_lo + 0.5) / 2.0 if sigma_lo > 0.5 else sigma_lo
    return tail_certificate(seq, sigma0, cutoff, eta, head_terms=head_terms)


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
    grid point, so the whole scan spends its eta once.  Undecided or
    sign-change intervals are bisected down to ``resolution`` for up to
    ``max_refinement`` rounds; each round is one ``decide`` call.
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
    signs: dict[float, int | None] = {}

    def certify(sigmas: list[float]) -> None:
        signs.update(zip(sigmas, decide(path, sigmas, cert)))

    certify(_initial_grid(sigma_lo, sigma_hi, initial_grid))
    rounds = 0
    while rounds < max_refinement:
        pts = sorted(signs)
        new_points = []
        for a, b in zip(pts, pts[1:]):
            if b - a <= resolution:
                continue
            sa, sb = signs[a], signs[b]
            if sa is None or sb is None or sa != sb:
                new_points.append(0.5 * (a + b))
        if not new_points or len(signs) + len(new_points) > _MAX_GRID_POINTS:
            break
        certify(new_points)
        rounds += 1

    pts = sorted(signs)
    decided = [signs[s] for s in pts]
    undecided_measure = math.fsum(
        b - a
        for (a, b, x, y) in zip(pts, pts[1:], decided, decided[1:])
        if x is None or y is None
    )
    return SignScanReport(
        seq=sequence_spec(path.seq),
        master_seed=path.master_seed,
        trial_index=path.trial_index,
        sigma_lo=float(sigma_lo),
        sigma_hi=float(sigma_hi),
        sigma_grid=[float(s) for s in pts],
        decided_signs=[_sign_str(s) for s in decided],
        sign_changes=_certified_changes(decided),
        undecided_measure=float(undecided_measure),
        no_zero_certified=False,
        eta_total=cert.eta,
        certificate={
            "sigma0": cert.sigma0,
            "cutoff": cert.cutoff,
            "threshold": cert.threshold,
            "eta": cert.eta,
            "exhausted": cert.exhausted,
        },
        refinement_rounds=rounds,
        resolution=float(resolution),
    )


@lru_cache(maxsize=32)
def _single_term_domination_sigma(seq, sigma_start: float):
    """Smallest ladder exponent up to 64 where the first element alone
    beats the rigorous upper tail bound.  Termwise monotonicity then makes the
    domination persist for every larger exponent.  Path-independent, so
    memoized on the frozen sequence."""
    p1 = seq.element(seq.start_index)
    sigma = sigma_start
    while sigma <= 64.0:
        _, tail_hi = seq.tail_power_sum(sigma, p1)
        if tail_hi < p1 ** (-sigma):
            return sigma
        sigma *= 1.5
    return None


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
    to match the leading element's sign.  Failure to certify is a
    legitimate outcome and raises nothing.
    """
    seq = path.seq
    dom_sigma = _single_term_domination_sigma(seq, max(SIGMA_SWITCH, sigma_lo + 1e-9))
    hi = dom_sigma if dom_sigma is not None else max(SIGMA_SWITCH, sigma_lo + 1.0)
    report = scan(path, sigma_lo, hi, cert, resolution=NO_ZERO_RESOLUTION)
    report.domination_sigma = dom_sigma
    # one decided sign everywhere, the leading element's: no certified
    # change, and a failed probabilistic certificate shows as a mismatch
    report.no_zero_certified = dom_sigma is not None and set(
        report.decided_signs) == {_sign_str(path.sign_at(seq.start_index))}
    return report
