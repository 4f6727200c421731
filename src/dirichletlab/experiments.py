"""Reproducible Monte Carlo experiments over random sign series.

Four studies are provided:

* no_zero      -- per-trial no-zero certification on the half-line
  [sigma_lo, inf), one certified scan per trial, and from the certified
  count a lower bound on the probability of "no zero on [sigma_lo, inf)",
  the finite-scale surrogate of "no real zero".
* sign_change  -- certified sign-change counts on nested intervals
  [sigma_k, sigma_hi] for a descending ladder of left endpoints,
  supplemented by heuristic signs below the certifiable range.
* bu_event     -- empirical frequency of critical-exponent tail
  excursions beyond a cutoff versus the closed-form bound
  6*exp(-threshold**2/(18*T_U)), plus the bound on a ladder of cutoffs.
* exceedance   -- frequency with which the normalized critical partial
  sum exceeds a level at at least one of several scales.  Finite-scale
  frequencies only: no almost-sure statement is claimed or checkable.

Every per-trial outcome is a pure function of (config, trial_index), so
reports are byte-identical for any worker count.  Wall time is recorded
on the report object but excluded from the payload and its hash.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache, partial

import numpy as np

from ._version import SCHEMA_VERSION, VERSION
from .bounds import wilson_interval
from .errors import ValidationError
from .evaluation import (
    _filtered_signs,
    _signed_sums,
    _weight_pairs,
    decide,
    excursion_probability_bound,
    heuristic_cutoff,
)
from .frequencies import WeightedNaturals, _check_finite, make_sequence
from .paths import SamplePath
from .zeros import _certified_changes, _initial_grid, certify_no_zeros, scan_certificate

# the head of every study's tail enclosures: certificates and excursion bounds
HEAD_TERMS = 20_000
# the smallest cutoff a heuristic sign is summed to
HEURISTIC_MIN_CUTOFF = 10_000.0


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(_canonical_json(config_dict).encode()).hexdigest()


def rows_to_csv(rows: list[dict]) -> str:
    """CSV of dict rows: columns in first-seen key order, floats as repr,
    list cells as quoted canonical JSON, missing cells empty."""
    cols: list[str] = []
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for k in cols:
            v = row.get(k, "")
            if isinstance(v, (list, tuple)):
                cells.append('"' + _canonical_json(list(v)) + '"')
            elif isinstance(v, float):
                cells.append(repr(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _config_dict(cfg) -> dict:
    d = {"kind": cfg.kind}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        d[f.name] = list(v) if isinstance(v, tuple) else v
    return d


# ---------------------------------------------------------------------------
# Configs


@dataclass(frozen=True)
class NoZeroConfig:
    seq: str = "weighted:2.0"
    sigma_lo: float = 0.6
    cutoff: float = 100_000.0
    eta: float = 1e-3
    trials: int = 500
    master_seed: int = 1
    kind: str = field(default="no_zero", init=False)


@dataclass(frozen=True)
class SignChangeConfig:
    seq: str = "naturals"
    ladder: tuple[float, ...] = (0.70, 0.62, 0.56, 0.53)
    sigma_hi: float = 2.0
    trials: int = 200
    master_seed: int = 1
    grid_points: int = 28
    cert_cutoff: float = 100_000.0
    eta: float = 0.01
    heuristic_max_cutoff: float = 20_000_000.0
    kind: str = field(default="sign_change", init=False)


@dataclass(frozen=True)
class BuEventConfig:
    seq: str = "weighted:2.0"
    cutoff_ladder: tuple[float, ...] = (100.0, 1_000.0, 10_000.0, 30_000.0)
    horizon_factor: float = 1_000.0
    threshold: float = 0.1
    trials: int = 2000
    master_seed: int = 1
    bound_count_ladder: tuple[int, ...] = ()
    kind: str = field(default="bu_event", init=False)


@dataclass(frozen=True)
class ExceedanceConfig:
    seq: str = "naturals"
    scales: tuple[float, ...] = (100.0, 1_000.0, 10_000.0)
    level: float = 1.0
    trials: int = 1000
    master_seed: int = 1
    kind: str = field(default="exceedance", init=False)


# ---------------------------------------------------------------------------
# Report


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    config_hash: str
    master_seed: int
    per_trial: list[dict]
    aggregates: dict
    wall_time_s: float
    code_version: str = VERSION
    schema_version: int = SCHEMA_VERSION

    def payload_dict(self) -> dict:
        """Everything except wall time: the reproducible part."""
        payload = asdict(self)
        del payload["wall_time_s"]
        return payload

    def payload_json(self) -> str:
        return _canonical_json(self.payload_dict())

    def report_hash(self) -> str:
        return hashlib.sha256(self.payload_json().encode()).hexdigest()

    def per_trial_csv(self) -> str:
        return rows_to_csv(self.per_trial)


def _fraction_entry(successes: int, trials: int) -> dict:
    lo, hi = wilson_interval(successes, trials, 0.95)
    return {
        "count": successes,
        "trials": trials,
        "fraction": successes / trials,
        "wilson_confidence": 0.95,
        "wilson_lo": lo,
        "wilson_hi": hi,
    }


# ---------------------------------------------------------------------------
# no_zero


def _no_zero_setup(cfg: NoZeroConfig, seq):
    """``certify_no_zeros`` with sigma_lo and the config's tail
    certificate bound."""
    # building the certificate checks eta and the sigma_lo <= 1/2 rule
    cert = scan_certificate(seq, cfg.sigma_lo, cfg.cutoff, cfg.eta, HEAD_TERMS)
    if not seq.reciprocal_sum_converges:
        warnings.warn(
            "reciprocal sum diverges: no-zero certification is expected to "
            "fail on most trials in this regime",
            stacklevel=2,
        )
    return partial(certify_no_zeros, sigma_lo=cfg.sigma_lo, cert=cert)


def _no_zero_trial(cfg: NoZeroConfig, certify, path: SamplePath) -> dict:
    rep = certify(path)
    return {
        "certified": bool(rep.no_zero_certified),
        "sign_changes": rep.sign_changes,
        "undecided_measure": rep.undecided_measure,
        "eta_total": rep.eta_total,
    }


def _aggregate_no_zero(cfg: NoZeroConfig, certify, rows: list[dict]) -> dict:
    """The certified fraction, and log2 of a lower bound on the probability
    of "no zero on [sigma_lo, inf)", the finite-scale surrogate of "no real
    zero".

    A certified trial has no zero there unless its certificate failed, an
    event of probability at most eta (0 for an exhausted certificate), so
    that probability is at least wilson_lo - eta at the Wilson confidence.
    The bound is None when that difference is not positive.
    """
    certified = _fraction_entry(sum(1 for r in rows if r["certified"]), len(rows))
    margin = certified["wilson_lo"] - max(r["eta_total"] for r in rows)
    return {
        "certified": certified,
        "no_zero_probability_log2_lower_bound": (
            math.log2(margin) if margin > 0 else None
        ),
    }


# ---------------------------------------------------------------------------
# sign_change


def _sign_change_setup(cfg: SignChangeConfig, seq) -> dict:
    if not cfg.ladder:
        raise ValidationError("ladder must not be empty")
    _check_finite("sigma_hi", cfg.sigma_hi)
    if not all(0.5 < s < cfg.sigma_hi for s in cfg.ladder):
        raise ValidationError(
            f"ladder values must lie in (1/2, sigma_hi = {cfg.sigma_hi:g})"
        )
    if cfg.grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    _check_finite("heuristic_max_cutoff", cfg.heuristic_max_cutoff)
    ladder = sorted(cfg.ladder, reverse=True)
    rule = heuristic_cutoff(ladder[-1])
    if rule > cfg.heuristic_max_cutoff:
        raise ValidationError(
            f"smallest ladder value needs cutoff {rule:.3g} > "
            f"heuristic_max_cutoff {cfg.heuristic_max_cutoff:.3g}"
        )
    grid = sorted(set(_initial_grid(ladder[-1], cfg.sigma_hi, cfg.grid_points))
                  | set(float(s) for s in ladder))
    cutoffs = [min(max(heuristic_cutoff(s), HEURISTIC_MIN_CUTOFF),
                   cfg.heuristic_max_cutoff) for s in grid]
    cert = scan_certificate(seq, ladder[-1], cfg.cert_cutoff, cfg.eta, HEAD_TERMS)
    entries = _weight_pairs(seq, [(s, seq._count_up_to(c))
                                  for s, c in zip(grid, cutoffs)])
    rung_start = [grid.index(float(rv)) for rv in ladder]  # every rung is in grid
    return {
        "grid": grid,
        "entries": entries,
        "cert": cert,
        "ladder": ladder,
        "rung_start": rung_start,
    }


def _sign_change_trial(cfg: SignChangeConfig, st: dict, path: SamplePath) -> dict:
    # both passes stream the path's signs: the certified one stops at the
    # certificate cutoff, the heuristic one at the longest undecided sum
    certified = decide(path, st["grid"], st["cert"])
    # the heuristic sum's sign stands in wherever the certified one is
    # undecided: the filter at radius 0, where a zero sum counts as +1
    undecided = [j for j, s in enumerate(certified) if s is None]
    heuristic = _filtered_signs(path, [st["entries"][j] for j in undecided],
                                [0.0] * len(undecided))
    combined = list(certified)
    for j, sign in zip(undecided, heuristic):
        combined[j] = 1 if sign is None else sign
    m = len(combined)
    return {
        "combined_counts": [_certified_changes(combined[j0:])
                            for j0 in st["rung_start"]],
        "certified_counts": [_certified_changes(certified[j0:])
                             for j0 in st["rung_start"]],
        "decided_fraction": (m - len(undecided)) / m,
    }


def _aggregate_sign_change(cfg: SignChangeConfig, st: dict,
                           rows: list[dict]) -> dict:
    n = len(rows)
    per_rung = []
    for k, sigma_k in enumerate(st["ladder"]):
        comb = [r["combined_counts"][k] for r in rows]
        cert = [r["certified_counts"][k] for r in rows]
        per_rung.append(
            {
                "sigma": sigma_k,
                "mean_count": math.fsum(comb) / n,
                "median_count": float(sorted(comb)[n // 2]),
                "mean_certified_count": math.fsum(cert) / n,
                "median_certified_count": float(sorted(cert)[n // 2]),
            }
        )
    return {
        "ladder_descending": list(st["ladder"]),
        "per_rung": per_rung,
        "mean_decided_fraction": math.fsum(r["decided_fraction"] for r in rows) / n,
        "eta_per_trial": st["cert"].eta,
        "includes_heuristic_signs": True,
    }


# ---------------------------------------------------------------------------
# bu_event


def _bu_setup(cfg: BuEventConfig, seq) -> dict:
    """The critical weights up to the largest horizon, each cutoff's index
    window (a, b] and its bound, and the bound-only ladder."""
    if not seq.reciprocal_sum_converges:
        raise ValidationError(
            "excursion study needs a convergent reciprocal sum"
        )
    # the ladder's analytic bound is a weighted sequence's; each count must
    # pass it before any trial runs
    if cfg.bound_count_ladder and not isinstance(seq, WeightedNaturals):
        raise ValidationError("bound_count_ladder needs a weighted sequence")
    _check_finite("horizon_factor", cfg.horizon_factor)
    if cfg.horizon_factor <= 1:
        raise ValidationError("horizon_factor must exceed 1")
    if not cfg.cutoff_ladder:
        raise ValidationError("cutoff_ladder must not be empty")
    per_cutoff, windows = [], []
    for u in cfg.cutoff_ladder:
        horizon = u * cfg.horizon_factor
        windows.append((seq.counting_function(u), seq.counting_function(horizon)))
        _, t_upper = seq.tail_power_sum(1.0, u, head_terms=HEAD_TERMS)
        # the bound checks the threshold
        per_cutoff.append({"cutoff": u, "horizon": horizon,
                           "tail_reciprocal_upper": t_upper,
                           "bound": excursion_probability_bound(t_upper, cfg.threshold)})
    ladder = []
    for c in cfg.bound_count_ladder:
        t_upper = seq.tail_reciprocal_upper_for_count(int(c))
        ladder.append({"leading_count": int(c), "tail_reciprocal_upper": t_upper,
                       "bound": excursion_probability_bound(t_upper, cfg.threshold)})
    count = seq._count_up_to(max(cfg.cutoff_ladder) * cfg.horizon_factor)
    return {"weights": seq._powers(seq.start_index, count, -0.5),
            "windows": windows, "per_cutoff": per_cutoff, "bound_count_ladder": ladder}


def _bu_trial(cfg: BuEventConfig, st: dict, path: SamplePath) -> dict:
    w = st["weights"]
    prefix = np.empty(w.size)  # the signed weights, then their running sums
    for lo, signs in path._sign_chunks(w.size):
        np.multiply(signs, w[lo:lo + signs.size], out=prefix[lo:lo + signs.size])
    np.cumsum(prefix, out=prefix)
    sups = []
    for a, b in st["windows"]:
        if b <= a:
            sups.append(0.0)
            continue
        base = prefix[a - 1] if a > 0 else 0.0
        window = prefix[a:b] - base
        sups.append(float(np.max(np.abs(window))))
    return {"sups": sups}


def _aggregate_bu(cfg: BuEventConfig, st: dict, rows: list[dict]) -> dict:
    n = len(rows)
    per_cutoff = []
    for k, entry in enumerate(st["per_cutoff"]):
        exceed = sum(1 for r in rows if r["sups"][k] >= cfg.threshold)
        per_cutoff.append({**entry, **_fraction_entry(exceed, n)})
    return {"threshold": cfg.threshold, "per_cutoff": per_cutoff,
            "bound_count_ladder": [dict(e) for e in st["bound_count_ladder"]]}


# ---------------------------------------------------------------------------
# exceedance


def _exceedance_setup(cfg: ExceedanceConfig, seq) -> dict:
    """The critical weights up to each scale and the path-independent
    normalizers sqrt(sum(1/p, p <= y))."""
    _check_finite("level", cfg.level)
    if not cfg.scales:
        raise ValidationError("scales must not be empty")
    if list(cfg.scales) != sorted(set(cfg.scales)):
        raise ValidationError("scales must be strictly increasing")
    norms = [math.sqrt(seq.power_sum(1.0, y)) for y in cfg.scales]
    pairs = _weight_pairs(seq, [(0.5, seq._count_up_to(y)) for y in cfg.scales])
    return {"weights": [w for w, _ in pairs], "norms": norms}


def _exceedance_trial(cfg: ExceedanceConfig, st: dict, path: SamplePath) -> dict:
    sums = _signed_sums(path, st["weights"])
    return {"normalized": [s / norm for s, norm in zip(sums, st["norms"])]}


def _aggregate_exceedance(cfg: ExceedanceConfig, st: dict,
                          rows: list[dict]) -> dict:
    n = len(rows)
    m = len(cfg.scales)
    cumulative = []
    for k in range(1, m + 1):
        hit = sum(
            1 for r in rows if any(v >= cfg.level for v in r["normalized"][:k])
        )
        cumulative.append({"scales_used": k, **_fraction_entry(hit, n)})
    per_scale = []
    for k, y in enumerate(cfg.scales):
        hit = sum(1 for r in rows if r["normalized"][k] >= cfg.level)
        per_scale.append({"scale": y, **_fraction_entry(hit, n)})
    return {
        "level": cfg.level,
        "degenerate_level": cfg.level <= 0,
        "cumulative": cumulative,
        "per_scale": per_scale,
        "finite_scale_only": True,
    }


# ---------------------------------------------------------------------------
# Runner: kind -> (setup, trial, aggregate).  setup(cfg, seq) validates the
# config and builds what its trials share; trial(cfg, shared, path) returns
# one row without the trial index; aggregate(cfg, shared, rows).

_KINDS = {
    "no_zero": (_no_zero_setup, _no_zero_trial, _aggregate_no_zero),
    "sign_change": (_sign_change_setup, _sign_change_trial,
                    _aggregate_sign_change),
    "bu_event": (_bu_setup, _bu_trial, _aggregate_bu),
    "exceedance": (_exceedance_setup, _exceedance_trial,
                   _aggregate_exceedance),
}


@lru_cache(maxsize=1)
def _setup(cfg):
    """``(seq, shared, caught)``: the config's sequence, its kind's setup
    and the warnings building them raised, once per config and process,
    keyed by ``replace(cfg, trials=1, master_seed=0)``: no setup reads those."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seq = make_sequence(cfg.seq)
        shared = _KINDS[cfg.kind][0](cfg, seq)
    return seq, shared, caught


def _trial(cfg, i: int) -> dict:
    """Row ``i``: the trial index, then the kind's trial on path ``i``."""
    seq, shared, _ = _setup(replace(cfg, trials=1, master_seed=0))
    row = _KINDS[cfg.kind][1](cfg, shared, SamplePath(seq, cfg.master_seed, i))
    return {"trial": i, **row}


def run_experiment(cfg, workers: int = 1) -> ExperimentReport:
    """Build the config's setup, run every trial (in a process pool when
    workers > 1) and aggregate, dispatching on the config's kind field."""
    if cfg.trials < 1:
        raise ValidationError("trials must be >= 1")
    # built here before any pool starts, so forked workers inherit it; its
    # warnings are raised on every call, cached or not
    _, shared, caught = _setup(replace(cfg, trials=1, master_seed=0))
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    t0 = time.monotonic()
    if workers <= 1:
        rows = [_trial(cfg, i) for i in range(cfg.trials)]
    else:
        chunk = max(1, cfg.trials // (4 * workers))
        # the pool starts all its workers up front, so none beyond the trials
        with ProcessPoolExecutor(max_workers=min(workers, cfg.trials)) as ex:
            rows = list(ex.map(partial(_trial, cfg), range(cfg.trials),
                               chunksize=chunk))
    agg = _KINDS[cfg.kind][2](cfg, shared, rows)
    cd = _config_dict(cfg)
    return ExperimentReport(
        kind=cfg.kind,
        config=cd,
        config_hash=config_hash(cd),
        master_seed=cfg.master_seed,
        per_trial=rows,
        aggregates=agg,
        wall_time_s=time.monotonic() - t0,
    )
