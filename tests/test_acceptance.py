"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion, prints exactly one
PASS/FAIL line, and enforces the stated runtime budget.  Pilot fixtures
(frozen from designated seeds) are collected in the constants below.
"""

import dataclasses
import math
import time

import numpy as np

from dirichletlab import (
    BuEventConfig,
    Explicit,
    Naturals,
    NoZeroConfig,
    Primes,
    SamplePath,
    SignChangeConfig,
    ExceedanceConfig,
    WeightedRademacherInstance,
    clt_sample,
    exact_tail,
    hoeffding_bound,
    ks_statistic,
    levy_bound,
    mellin_discrepancy,
    run_experiment,
    tail_certificate,
    variance_profile,
    wilson_interval,
)
from dirichletlab.limits import char_function_gaussian_gap

# --- pilot fixtures (designated pilot seed 1 unless noted) -----------------

# no-zero experiment, weighted:2.0 defaults, N=500: 66 certified trials
# (46 while the weighted tail remainder started at an index recovered from
# the last head element's value, which overstated T)
PILOT_NO_ZERO_COUNT = 66
PILOT_NO_ZERO_FRACTION = PILOT_NO_ZERO_COUNT / 500
FRESH_SEEDS = (11, 12, 13)

# sign-change experiment, naturals defaults, N=200: per-rung mean counts
PILOT_SIGN_CHANGE_MEANS = (0.26, 0.315, 0.40, 0.735)
# required mean increase per rung = half the pilot gaps
SIGN_CHANGE_MARGINS = (0.0275, 0.0425, 0.1675)

# primes head-variance stays below this constant over the exponent ladder
PILOT_PRIMES_HEAD_VARIANCE = 0.09


def _verdict(label: str, elapsed: float, budget: float, failures: list[str]):
    ok = not failures and elapsed < budget
    if elapsed >= budget:
        failures = failures + [f"runtime {elapsed:.1f}s >= budget {budget:.0f}s"]
    print(f"{'PASS' if ok else 'FAIL'} {label} ({elapsed:.1f}s)")
    assert ok, f"{label}: " + "; ".join(failures)


def test_criterion_1_exact_probabilities_never_exceed_bounds():
    start = time.monotonic()
    failures = []
    rng = np.random.default_rng(2024)
    for k in range(200):
        n = int(rng.integers(1, 17))
        weights = tuple(float(x) for x in rng.uniform(0.05, 2.0, n))
        inst = WeightedRademacherInstance(weights)
        total = sum(abs(w) for w in weights)
        for lam in np.linspace(0.05, 1.1, 20) * total:
            lam = float(lam)
            p_sum = exact_tail(inst, lam, mode="sum")
            if float(p_sum) > hoeffding_bound(inst, lam):
                failures.append(f"instance {k}: sum tail beats bound at {lam:.4g}")
            p_max = exact_tail(inst, lam, mode="max_prefix_abs")
            if p_max > levy_bound(inst, lam):
                failures.append(f"instance {k}: prefix tail beats bound at {lam:.4g}")
    _verdict("criterion 1 (exact tails vs. bounds)",
             time.monotonic() - start, 30.0, failures)


def test_criterion_2_summatory_transform_identity():
    start = time.monotonic()
    failures = []
    rng = np.random.default_rng(7)
    for k in range(100):
        size = int(rng.integers(10, 10_001))
        gaps = rng.exponential(scale=1.0, size=size)
        values = 1.0 + np.cumsum(gaps)
        seq = Explicit(tuple(float(v) for v in values))
        path = SamplePath(seq, master_seed=k, trial_index=0)
        upper = float(values[-1]) + 1.0
        for s in (0.7, 1.0, 1.5, 2.3):
            disc = mellin_discrepancy(path, s, upper)
            if disc > 1e-10:
                failures.append(f"path {k}, s={s}: discrepancy {disc:.3g}")
    _verdict("criterion 2 (transform identity <= 1e-10)",
             time.monotonic() - start, 10.0, failures)


def test_criterion_3_certificate_radius_soundness():
    start = time.monotonic()
    failures = []
    seq = Naturals()
    sigma0, u, u_ref, eta, trials = 0.75, 1e3, 1e5, 0.05, 10_000
    sigmas = (0.75, 1.0, 1.5)
    cert = tail_certificate(seq, sigma0, u, eta)
    radii = np.array(
        [cert.threshold * u ** (-(s - sigma0)) for s in sigmas]
    )
    elems = seq.elements_up_to(u_ref)
    n_head = seq.counting_function(u)
    tail_w = np.stack([elems[n_head:] ** (-s) for s in sigmas], axis=1)
    bad = 0
    for i in range(trials):
        signs = SamplePath(seq, master_seed=2, trial_index=i).signs_up_to(u_ref)
        tail = signs[n_head:] @ tail_w
        if np.any(np.abs(tail) > radii):
            bad += 1
    allowed = eta * trials + 3.0 * math.sqrt(eta * (1 - eta) * trials)
    if bad > allowed:
        failures.append(f"{bad} radius violations > allowed {allowed:.1f}")
    _verdict(f"criterion 3 (radius soundness, {bad} of {trials} outside)",
             time.monotonic() - start, 300.0, failures)


def test_criterion_4_no_zero_positive_fraction_and_seed_stability():
    start = time.monotonic()
    failures = []
    cfg = NoZeroConfig()
    rep = run_experiment(cfg)
    agg = rep.aggregates["certified"]
    if agg["wilson_lo"] <= 0.0:
        failures.append(f"Wilson lower bound {agg['wilson_lo']:.4g} not > 0")
    if agg["count"] != PILOT_NO_ZERO_COUNT:
        failures.append(
            f"pilot seed regression: {agg['count']} != {PILOT_NO_ZERO_COUNT}"
        )
    for seed in FRESH_SEEDS:
        frep = run_experiment(dataclasses.replace(cfg, master_seed=seed))
        count = frep.aggregates["certified"]["count"]
        lo, hi = wilson_interval(count, cfg.trials, confidence=0.999)
        if not lo <= PILOT_NO_ZERO_FRACTION <= hi:
            failures.append(
                f"seed {seed}: pilot fraction {PILOT_NO_ZERO_FRACTION} "
                f"outside [{lo:.4f}, {hi:.4f}]"
            )
    _verdict("criterion 4 (certified no-zero fraction, 4 seeds)",
             time.monotonic() - start, 600.0, failures)


def test_criterion_5_sign_change_counts_grow_toward_critical_line():
    start = time.monotonic()
    failures = []
    rep = run_experiment(SignChangeConfig())
    for row in rep.per_trial:
        cc = row["combined_counts"]
        if any(x > y for x, y in zip(cc, cc[1:])):
            failures.append(f"trial {row['trial']}: counts not nondecreasing {cc}")
            break
    means = [r["mean_count"] for r in rep.aggregates["per_rung"]]
    for k, margin in enumerate(SIGN_CHANGE_MARGINS):
        if means[k + 1] < means[k] + margin:
            failures.append(
                f"rung {k}->{k + 1}: mean gap {means[k + 1] - means[k]:.4f} "
                f"< margin {margin}"
            )
    _verdict(f"criterion 5 (sign-change ladder means {means})",
             time.monotonic() - start, 900.0, failures)


def test_criterion_6_normal_limit_diagnostics():
    start = time.monotonic()
    failures = []
    samples = clt_sample(Naturals(), 0.6, 1e6, master_seed=1, trials=2000)
    ks = ks_statistic(samples)
    if ks > 0.05:
        failures.append(f"KS distance {ks:.4f} > 0.05")
    ts = np.linspace(-1.0, 1.0, 21)
    gaps = [
        char_function_gaussian_gap(Naturals(), s, 1e6, ts)
        for s in (0.75, 0.65, 0.6, 0.55)
    ]
    if any(a <= b for a, b in zip(gaps, gaps[1:])):
        failures.append(f"characteristic-function gaps not decreasing: {gaps}")
    _verdict(f"criterion 6 (KS={ks:.4f}, gaps decreasing)",
             time.monotonic() - start, 300.0, failures)


def test_criterion_7_variance_dichotomy_and_tail_enclosures():
    start = time.monotonic()
    failures = []
    ladder = (0.75, 0.65, 0.6, 0.57)
    nat = [variance_profile(Naturals(), s) for s in ladder]
    pri = [variance_profile(Primes(), s) for s in ladder]
    nat_heads = [p.head_variance for p in nat]
    if any(a >= b for a, b in zip(nat_heads, nat_heads[1:])):
        failures.append(f"naturals head variance not increasing: {nat_heads}")
    if max(p.head_variance for p in pri) > PILOT_PRIMES_HEAD_VARIANCE:
        failures.append(
            f"primes head variance exceeds pilot constant "
            f"{PILOT_PRIMES_HEAD_VARIANCE}: {[p.head_variance for p in pri]}"
        )
    for seq, profs in ((Naturals(), nat), (Primes(), pri)):
        for s, prof in zip(ladder, profs):
            s2 = 2.0 * s
            elems = seq.next_elements(prof.scale, 10_000_000)
            brute = float(np.sum(elems ** (-s2)))
            _, missing = seq.tail_power_sum(s2, float(elems[-1]))
            slack = 1e-9 * max(1.0, brute)
            if brute > prof.tail_variance_hi + slack:
                failures.append(
                    f"{type(seq).__name__} sigma={s}: brute force tail "
                    f"{brute:.6f} above enclosure {prof.tail_variance_hi:.6f}"
                )
            if prof.tail_variance_lo > brute + missing + slack:
                failures.append(
                    f"{type(seq).__name__} sigma={s}: enclosure lower end "
                    f"{prof.tail_variance_lo:.6f} above brute force + remainder"
                )
    _verdict("criterion 7 (variance dichotomy, enclosures vs. brute force)",
             time.monotonic() - start, 300.0, failures)


def test_criterion_8_excursion_bound_ladders():
    start = time.monotonic()
    failures = []
    cfg = BuEventConfig(
        bound_count_ladder=(10 ** 3, 10 ** 9, 10 ** 100, 10 ** 1950)
    )
    rep = run_experiment(cfg)
    for row in rep.aggregates["per_cutoff"]:
        if row["wilson_hi"] > row["bound"]:
            failures.append(
                f"cutoff {row['cutoff']}: Wilson upper {row['wilson_hi']:.4f} "
                f"> bound {row['bound']:.4f}"
            )
    bounds = [r["bound"] for r in rep.aggregates["bound_count_ladder"]]
    if any(a <= b for a, b in zip(bounds, bounds[1:])):
        failures.append(f"count-ladder bounds not decreasing: {bounds}")
    if bounds[-1] >= 0.5:
        failures.append(f"largest-count bound {bounds[-1]:.4f} not below 1/2")
    _verdict(f"criterion 8 (excursion bounds, final={bounds[-1]:.4f})",
             time.monotonic() - start, 300.0, failures)


def test_criterion_9_worker_count_reproducibility():
    start = time.monotonic()
    failures = []
    configs = [
        NoZeroConfig(trials=3, cutoff=1e4),
        SignChangeConfig(ladder=(0.70, 0.65), trials=3),
        BuEventConfig(trials=5, cutoff_ladder=(100.0, 1000.0),
                      horizon_factor=100.0),
        ExceedanceConfig(trials=8),
    ]
    for cfg in configs:
        p1 = run_experiment(cfg, workers=1).payload_json()
        p3 = run_experiment(cfg, workers=3).payload_json()
        if p1 != p3:
            failures.append(f"{cfg.kind}: payloads differ across worker counts")
    _verdict("criterion 9 (byte-identical payloads across worker counts)",
             time.monotonic() - start, 300.0, failures)
