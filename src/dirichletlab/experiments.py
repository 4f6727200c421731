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
  excursions beyond a cutoff versus the tail law's closed-form bound
  ``bounds.excursion_probability_bound``, plus the bound on a ladder of
  cutoffs.
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
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from ._version import SCHEMA_VERSION, VERSION
from .bounds import excursion_probability_bound, wilson_interval
from .errors import ValidationError
from .evaluation import (
    _band_slack,
    _certified_radius,
    _decision_radius,
    _filtered_signs,
    _heuristic_count,
    _signed_sums,
    _weight_arrays,
)
from .frequencies import WeightedNaturals, _check_budget, _check_finite, make_sequence
from .paths import _BLOCK, SamplePath
from .zeros import _certified_changes, _initial_grid, certify_no_zeros, scan_certificate

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
        """Everything except wall time: the reproducible part.  The dict
        shares the report's containers, without a deep copy: callers only
        read or serialize it."""
        return {"kind": self.kind, "config": self.config,
                "config_hash": self.config_hash, "master_seed": self.master_seed,
                "per_trial": self.per_trial, "aggregates": self.aggregates,
                "code_version": self.code_version,
                "schema_version": self.schema_version}

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
    cert = scan_certificate(seq, cfg.sigma_lo, cfg.cutoff, cfg.eta)
    if not seq.tail_converges(1.0):
        warnings.warn(
            "reciprocal sum diverges: no-zero certification is expected to "
            "fail on most trials in this regime",
            stacklevel=2,
        )
    return partial(certify_no_zeros, sigma_lo=cfg.sigma_lo, cert=cert)


def _no_zero_trial(cfg: NoZeroConfig, certify, paths: list[SamplePath]) -> list[dict]:
    # each path's scan refines its own grid, so the block is certified path
    # by path
    return [
        {
            "certified": bool(rep.no_zero_certified),
            "sign_changes": rep.sign_changes,
            "undecided_measure": rep.undecided_measure,
            "eta_total": rep.eta_total,
        }
        for rep in map(certify, paths)
    ]


def _aggregate_no_zero(cfg: NoZeroConfig, certify, rows: list[dict]) -> dict:
    """The certified fraction, and log2 of a lower bound on the probability
    of "no zero on [sigma_lo, inf)", the finite-scale surrogate of "no real
    zero".

    A certified trial has no zero there unless its certificate failed, an
    event of probability at most its eta_total (0 for an exhausted
    certificate, and where the leading term dominates at or below sigma_lo,
    which reads none), so that probability is at least wilson_lo - the
    largest eta_total at the Wilson confidence.
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
    """The grid (the initial grid of [bottom rung, sigma_hi] and every
    rung), the certificate, and the stacks the trials' filter sums.

    Each exponent has one array ``p**-sigma`` of max(h, n) terms, h its
    heuristic count and n the certificate's ``count``, checked in total
    against the term budget, after the grid's n terms a point.  ``weights``
    is one stack of the arrays' first n terms, then each one's first h;
    ``rhos`` their decision radii, at the certified radius and at 0.0."""
    if not cfg.ladder:
        raise ValidationError("ladder must not be empty")
    _check_finite("sigma_hi", cfg.sigma_hi)
    if not all(0.5 < s < cfg.sigma_hi for s in cfg.ladder):
        raise ValidationError(
            f"ladder values must lie in (1/2, sigma_hi = {cfg.sigma_hi:g})"
        )
    if cfg.grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    ladder = sorted(cfg.ladder, reverse=True)
    cert = scan_certificate(seq, ladder[-1], cfg.cert_cutoff, cfg.eta)
    n = cert.count
    _check_budget(cfg.grid_points * n)
    grid = sorted(set(_initial_grid(ladder[-1], cfg.sigma_hi, cfg.grid_points))
                  | set(float(s) for s in ladder))
    # the bottom rung, grid[0], has the largest scale, so it is refused first
    floor = seq._count_up_to(HEURISTIC_MIN_CUTOFF)
    counts = [max(_heuristic_count(seq, s), floor) for s in grid]
    # a prefix of an array is, bit for bit, the shorter array (_weight_arrays)
    arrays = _weight_arrays(seq, [(s, max(h, n)) for s, h in zip(grid, counts)])
    heuristic = [w[:h] for w, h in zip(arrays, counts)]
    return {
        "grid": grid,
        "weights": [[w[:n] for w in arrays], *heuristic],
        "rhos": [*(_decision_radius(_certified_radius(cert, s), _band_slack(w[:n]))
                   for s, w in zip(grid, arrays)),
                 *(_decision_radius(0.0, _band_slack(w)) for w in heuristic)],
        "cert": cert,
        "ladder": ladder,
        "rung_start": [grid.index(float(rv)) for rv in ladder],  # every rung is in grid
    }


def _sign_change_trial(cfg: SignChangeConfig, st: dict,
                       paths: list[SamplePath]) -> list[dict]:
    # one filter streams the block's signs chunk-major to the longest array,
    # so each weight chunk is read once per block: the certified grid, one
    # stack of rows read in place, at the certified radii, then each
    # heuristic sum at radius 0, where a bracket holding 0 counts +1
    m = len(st["grid"])
    rows = []
    for signs in _filtered_signs(paths, st["weights"], st["rhos"]):
        certified = signs[:m]
        # each sign is +-1 or None: the certified one, else the heuristic
        # one, else +1
        combined = [c or h or 1 for c, h in zip(certified, signs[m:])]
        rows.append({
            "combined_counts": [_certified_changes(combined[j0:])
                                for j0 in st["rung_start"]],
            "certified_counts": [_certified_changes(certified[j0:])
                                 for j0 in st["rung_start"]],
            "decided_fraction": (m - certified.count(None)) / m,
        })
    return rows


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
    if not seq.tail_converges(1.0):
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
        _, t_upper = seq.tail_power_sum(1.0, u)
        # the bound checks the threshold
        per_cutoff.append({"cutoff": u, "horizon": horizon,
                           "tail_reciprocal_upper": t_upper,
                           "bound": excursion_probability_bound(t_upper, cfg.threshold)})
    ladder = []
    for c in map(int, cfg.bound_count_ladder):
        # the index of the last of the leading c elements
        m = seq.start_index + c - 1
        if m < 3:
            raise ValidationError("count too small for the analytic bound")
        t_upper = seq._remainder_enclosure(1.0, m)[1]
        ladder.append({"leading_count": c, "tail_reciprocal_upper": t_upper,
                       "bound": excursion_probability_bound(t_upper, cfg.threshold)})
    count = seq._count_up_to(max(cfg.cutoff_ladder) * cfg.horizon_factor)
    return {"weights": _weight_arrays(seq, [(0.5, count)])[0],
            "windows": windows, "per_cutoff": per_cutoff, "bound_count_ladder": ladder}


def _bu_trial(cfg: BuEventConfig, st: dict, paths: list[SamplePath]) -> list[dict]:
    # each path's running sums take a full-length array, so the block goes
    # path by path
    return [{"sups": _bu_sups(st, path)} for path in paths]


def _bu_sups(st: dict, path: SamplePath) -> list[float]:
    """The path's sup of |running sum| over each cutoff's index window."""
    w = st["weights"]
    prefix = path._signs(w.size)  # the signed weights, then their running sums
    prefix *= w
    np.cumsum(prefix, out=prefix)
    sups = []
    for a, b in st["windows"]:
        if b <= a:
            sups.append(0.0)
            continue
        base = prefix[a - 1] if a > 0 else 0.0
        window = prefix[a:b] - base
        sups.append(float(np.max(np.abs(window))))
    return sups


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
    # a scale below the first element would have a normalizer of 0
    if seq.counting_function(cfg.scales[0]) == 0:
        raise ValidationError(
            f"scale {cfg.scales[0]:g} lies below the first served element "
            f"{seq.element(seq.start_index):g}"
        )
    norms = [math.sqrt(seq.power_sum(1.0, y)) for y in cfg.scales]
    counts = [seq._count_up_to(y) for y in cfg.scales]
    # the scales increase, so each scale's weights are a prefix of the last's
    w, = _weight_arrays(seq, [(0.5, counts[-1])])
    return {"weights": [w[:n] for n in counts], "norms": norms}


def _exceedance_trial(cfg: ExceedanceConfig, st: dict,
                      paths: list[SamplePath]) -> list[dict]:
    return [{"normalized": [s / norm for s, norm in zip(sums, st["norms"])]}
            for sums in _signed_sums(paths, st["weights"])]


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
# config and builds what its trials share; trial(cfg, shared, paths) takes
# the paths of a block of consecutive trials and returns one row per path,
# in order, without the trial index; aggregate(cfg, shared, rows).

_KINDS = {
    "no_zero": (_no_zero_setup, _no_zero_trial, _aggregate_no_zero),
    "sign_change": (_sign_change_setup, _sign_change_trial,
                    _aggregate_sign_change),
    "bu_event": (_bu_setup, _bu_trial, _aggregate_bu),
    "exceedance": (_exceedance_setup, _exceedance_trial,
                   _aggregate_exceedance),
}


_SETUPS: dict = {}  # at most one config -> (seq, shared, caught)


def _setup(cfg):
    """``(seq, shared, caught)``: the config's sequence, its kind's setup
    and the warnings building them raised, once per config and process,
    keyed by ``replace(cfg, trials=1, master_seed=0)``: no setup reads those.
    One setup is held, dropped before another is built, so that two are
    never held at once; ``_setup.cache_clear()`` drops it."""
    if cfg not in _SETUPS:
        _SETUPS.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seq = make_sequence(cfg.seq)
            shared = _KINDS[cfg.kind][0](cfg, seq)
        _SETUPS[cfg] = seq, shared, caught
    return _SETUPS[cfg]


_setup.cache_clear = _SETUPS.clear


def _trials(cfg, indices: range) -> list[dict]:
    """The rows of the consecutive trials ``indices``: each its trial index,
    then its row of the kind's trial on the block of their paths."""
    seq, shared, _ = _setup(replace(cfg, trials=1, master_seed=0))
    paths = [SamplePath(seq, cfg.master_seed, i) for i in indices]
    rows = _KINDS[cfg.kind][1](cfg, shared, paths)
    return [{"trial": i, **row} for i, row in zip(indices, rows)]


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
    # blocks of consecutive trials, in trial order: at most _BLOCK paths,
    # and in the pool at most a quarter of a worker's share, one block a task
    size = _BLOCK if workers <= 1 else min(_BLOCK, max(1, cfg.trials // (4 * workers)))
    blocks = [range(lo, min(lo + size, cfg.trials)) for lo in range(0, cfg.trials, size)]
    if workers <= 1:
        rows = [row for block in blocks for row in _trials(cfg, block)]
    else:
        # imported here, so a one-worker run loads no process machinery
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers up front, so none beyond the trials
        with ProcessPoolExecutor(max_workers=min(workers, cfg.trials)) as ex:
            rows = [row for block_rows in ex.map(partial(_trials, cfg), blocks)
                    for row in block_rows]
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
