import concurrent.futures
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from dirichletlab import (
    BuEventConfig,
    ExceedanceConfig,
    NoZeroConfig,
    ResourceBudgetError,
    SignChangeConfig,
    ValidationError,
    run_experiment,
)
from dirichletlab import evaluation, experiments, frequencies, zeros
from dirichletlab.evaluation import evaluate, tail_certificate
from dirichletlab.experiments import (
    _config_dict,
    _setup,
    _trials,
    config_hash,
    rows_to_csv,
)
from dirichletlab.frequencies import FrequencySequence, WeightedNaturals, make_sequence
from dirichletlab.paths import SamplePath
from dirichletlab.summation import _CHUNK as _CH, exact_sum
from dirichletlab.zeros import certify_no_zeros, scan_certificate

from conftest import normal_cdf


def test_config_hash_is_canonical():
    cfg = NoZeroConfig(trials=5)
    d1 = _config_dict(cfg)
    d2 = dict(reversed(list(d1.items())))
    assert config_hash(d1) == config_hash(d2)
    assert config_hash(d1) != config_hash(_config_dict(NoZeroConfig(trials=6)))


def test_payload_excludes_wall_time():
    rep = run_experiment(ExceedanceConfig(trials=5))
    payload = rep.payload_dict()
    assert "wall_time" not in json.dumps(payload)
    assert rep.wall_time_s >= 0.0
    assert payload["config_hash"] == rep.config_hash
    assert payload["code_version"]


def test_payload_is_the_report_without_wall_time():
    # the payload is built from the report's fields, sharing its containers
    # instead of deep-copying them: it equals the report as a dict less its
    # wall time, key for key and in order, for every kind of study
    for cfg in (NoZeroConfig(trials=2), ExceedanceConfig(trials=3),
                SignChangeConfig(ladder=(0.9, 0.8), trials=1, grid_points=8,
                                 cert_cutoff=1e4),
                BuEventConfig(trials=2)):
        rep = run_experiment(cfg)
        want = asdict(rep)
        del want["wall_time_s"]
        assert list(rep.payload_dict().items()) == list(want.items())


def test_reports_identical_across_worker_counts():
    cfg = ExceedanceConfig(trials=12)
    r1 = run_experiment(cfg, workers=1)
    r2 = run_experiment(cfg, workers=4)
    assert r1.payload_json() == r2.payload_json()
    assert r1.report_hash() == r2.report_hash()


@pytest.mark.parametrize("cfg, digest", [
    pytest.param(NoZeroConfig(trials=8, master_seed=1),
                 "3d00a136436fd435d0636afffd3a4e3ab29c275c97e3f2cc4d6bd2c710c39217",
                 id="no_zero-default"),
    # sigma_lo 0.66 derives the certificate base sigma0 = 0.58
    pytest.param(NoZeroConfig(trials=4, master_seed=2, cutoff=1e4, sigma_lo=0.66),
                 "b92b001725efd81a560a68df1ed568f39bd1d4040ea1cc1eddcc73f18fbce374",
                 id="no_zero-sigma_lo_0.66"),
    pytest.param(SignChangeConfig(trials=2, master_seed=1),
                 "d26f1c857cdd80f5fb73b59e5e1c68f64f76cc62c999d303ddf61337a8e7bfab",
                 id="sign_change-default"),
    # the default configs but for bu_event's trial count (2000 trials take
    # seconds; 32 read the same 201,165 weights)
    pytest.param(BuEventConfig(trials=32),
                 "59c5f5687c040242dce6c68273099ead7d8ca8a1ee7797d331baa92e23582b9d",
                 id="bu_event-default"),
    pytest.param(ExceedanceConfig(),
                 "b82b8c6f7cc1deaaf8ed89e54591b845f9d4b943cbe0b48b9e246d9ef4058933",
                 id="exceedance-default"),
])
def test_experiment_payload_golden(cfg, digest):
    # report hashes at schema 5; sign_change's per_trial and aggregates are
    # those of schema 4 less its heuristic_max_cutoff config key, and the
    # no_zero digests moved when the weighted tail remainder started past
    # the last head element's own index (smaller T and thresholds)
    assert run_experiment(cfg).report_hash() == digest


def test_no_zero_builds_one_certificate_per_config(monkeypatch):
    # the certificate depends on the config alone, so the scans of four
    # trials share one
    built = []
    original = zeros.tail_certificate

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(zeros, "tail_certificate", counting)
    _setup.cache_clear()
    run_experiment(NoZeroConfig(trials=4, cutoff=1e4))
    assert len(built) == 1


def test_pool_starts_no_more_workers_than_trials(monkeypatch):
    # a pool starts all its workers up front, so it must ask for no idle ones
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    run_experiment(NoZeroConfig(trials=1), workers=64)
    run_experiment(ExceedanceConfig(trials=3), workers=2)
    run_experiment(ExceedanceConfig(trials=3), workers=8)
    assert asked == [1, 2, 3]


def test_one_worker_run_imports_no_process_pool():
    # the pool's modules are imported only by a run with workers, so a
    # fresh interpreter's one-worker run leaves them unloaded
    src = str(Path(experiments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from dirichletlab import ExceedanceConfig, NoZeroConfig, run_experiment\n"
        "run_experiment(NoZeroConfig(trials=2, cutoff=1e4), workers=1)\n"
        "run_experiment(ExceedanceConfig(trials=2))\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
        "             if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_pooled_run_builds_its_setup_once_before_the_pool(monkeypatch):
    # the setup is built in the calling process before the pool starts, so
    # forked workers and the aggregate share it instead of building their own
    events = []
    setup, trial, aggregate = experiments._KINDS["sign_change"]

    def recording_setup(cfg, seq):
        events.append(("setup", os.getpid()))
        return setup(cfg, seq)

    class RecordingPool:
        def __init__(self, max_workers):
            events.append(("pool", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setitem(experiments._KINDS, "sign_change",
                        (recording_setup, trial, aggregate))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    _setup.cache_clear()
    cfg = SignChangeConfig(ladder=(0.9, 0.8), trials=3, grid_points=8,
                           cert_cutoff=1e4)
    assert len(run_experiment(cfg, workers=2).per_trial) == 3
    assert events == [("setup", os.getpid()), ("pool", 2)]


def _recording_setup(monkeypatch, kind: str) -> list:
    """Swaps ``kind``'s setup for one that records every setup it builds."""
    built = []
    setup, trial, aggregate = experiments._KINDS[kind]

    def recording(cfg, seq):
        built.append(setup(cfg, seq))
        return built[-1]

    monkeypatch.setitem(experiments._KINDS, kind, (recording, trial, aggregate))
    _setup.cache_clear()
    return built


def test_runs_differing_in_trials_and_seed_share_one_setup(monkeypatch):
    # no setup reads trials or master_seed, so runs that differ only there
    # build one setup, and its rows are those of a freshly built one
    built = _recording_setup(monkeypatch, "no_zero")
    runs = [run_experiment(NoZeroConfig(trials=t, master_seed=m, cutoff=1e4))
            for t, m in ((1, 1), (3, 1), (2, 7))]
    assert len(built) == 1
    _setup.cache_clear()
    fresh = run_experiment(NoZeroConfig(trials=2, master_seed=7, cutoff=1e4))
    assert len(built) == 2
    assert runs[-1].payload_json() == fresh.payload_json()


def test_setup_warnings_are_raised_on_every_run():
    # a cached setup raises the warnings of its build again
    cfg = NoZeroConfig(seq="naturals", trials=1, cutoff=1e3)
    for _ in range(2):
        with pytest.warns(UserWarning, match="diverges") as caught:
            run_experiment(cfg)
        assert len(caught) == 1


def test_rerun_is_bit_identical():
    cfg = NoZeroConfig(trials=4, cutoff=1e4)
    assert (
        run_experiment(cfg).payload_json() == run_experiment(cfg).payload_json()
    )


# ---------------------------------------------------------------------------
# no_zero


def test_no_zero_trial_decided_by_its_leading_term_spends_no_eta():
    # at sigma_lo = 1000 the leading term of weighted:2.0 dominates the
    # whole tail for every path, so no certificate is read and none can
    # fail: each row's eta_total is 0.0 and the bound is log2(wilson_lo)
    rep = run_experiment(NoZeroConfig(seq="weighted:2.0", sigma_lo=1000.0, trials=3))
    assert [r["eta_total"] for r in rep.per_trial] == [0.0] * 3
    certified = rep.aggregates["certified"]
    assert certified["count"] == 3
    assert rep.aggregates["no_zero_probability_log2_lower_bound"] == math.log2(
        certified["wilson_lo"])


def test_no_zero_finite_sequence_certifies_every_assignment():
    cfg = NoZeroConfig(seq="explicit:2.0,3.0", sigma_lo=0.1, trials=4)
    rep = run_experiment(cfg)
    assert rep.aggregates["certified"]["fraction"] == 1.0
    assert all(r["eta_total"] == 0.0 for r in rep.per_trial)


@pytest.mark.parametrize("cfg, eta, finite", [
    # a probabilistic certificate: the bound pays its eta
    (NoZeroConfig(trials=10, cutoff=1e4, sigma_lo=0.8, eta=0.2), 0.2, True),
    # wilson_lo of 10 trials is at most 0.72, so no certified count clears
    # an eta of 0.9
    (NoZeroConfig(trials=10, cutoff=1e4, sigma_lo=0.8, eta=0.9), 0.9, False),
    # an exhausted certificate fails never: the bound is log2(wilson_lo)
    (NoZeroConfig(seq="explicit:2.0,3.0", sigma_lo=0.1, trials=4), 0.0, True),
])
def test_no_zero_lower_bound_is_wilson_lo_minus_eta(cfg, eta, finite):
    rep = run_experiment(cfg)
    assert {r["eta_total"] for r in rep.per_trial} == {eta}
    certified = rep.aggregates["certified"]
    assert certified["count"] > 0
    bound = rep.aggregates["no_zero_probability_log2_lower_bound"]
    if finite:
        assert bound == math.log2(certified["wilson_lo"] - eta)
    else:
        assert certified["wilson_lo"] <= eta
        assert bound is None


def test_no_zero_trial_is_a_direct_certify_no_zeros_call():
    # the scan policy lives in zeros alone: a direct call with the study's
    # sigma_lo and certificate gives each trial's report
    cfg = NoZeroConfig(trials=20)
    seq, certify, _ = _setup(cfg)
    cert = scan_certificate(seq, cfg.sigma_lo, cfg.cutoff, cfg.eta)
    for i in range(cfg.trials):
        path = SamplePath(seq, cfg.master_seed, i)
        assert certify(path) == certify_no_zeros(path, cfg.sigma_lo, cert)


def test_no_zero_validation_and_divergence_warning():
    with pytest.raises(ValidationError):
        run_experiment(NoZeroConfig(trials=0))
    with pytest.raises(ValidationError):
        run_experiment(NoZeroConfig(seq="naturals", sigma_lo=0.4, trials=1))
    with pytest.warns(UserWarning, match="diverges"):
        run_experiment(
            NoZeroConfig(seq="naturals", trials=1, cutoff=1e3)
        )


# ---------------------------------------------------------------------------
# sign_change


@pytest.fixture
def min_cutoff(monkeypatch):
    """Sets ``experiments.HEURISTIC_MIN_CUTOFF`` for one test, with the
    setup cache cleared before and after, so no setup built under one
    value serves a config under another."""
    _setup.cache_clear()
    yield partial(monkeypatch.setattr, experiments, "HEURISTIC_MIN_CUTOFF")
    _setup.cache_clear()


def test_sign_change_counts_nondecreasing_along_descending_ladder():
    cfg = SignChangeConfig(ladder=(0.70, 0.65, 0.62), trials=25)
    rep = run_experiment(cfg)
    for row in rep.per_trial:
        cc = row["combined_counts"]  # ordered by descending sigma rung
        assert all(x <= y for x, y in zip(cc, cc[1:]))
        kk = row["certified_counts"]
        assert all(x <= y for x, y in zip(kk, kk[1:]))
        assert all(k <= c for k, c in zip(kk, cc))


def test_sign_change_convergent_sequence_counts_stay_flat():
    cfg = SignChangeConfig(
        seq="weighted:2.0", ladder=(0.70, 0.65, 0.62), trials=25,
    )
    rep = run_experiment(cfg)
    means = [r["mean_count"] for r in rep.aggregates["per_rung"]]
    assert max(means) - min(means) < 0.5


def test_sign_change_decided_fraction_matches_evaluate():
    cfg = SignChangeConfig(ladder=(0.9, 0.8), trials=6, grid_points=8,
                           cert_cutoff=1e4)
    rep = run_experiment(cfg)
    seq = make_sequence(cfg.seq)
    cert = tail_certificate(seq, 0.5 + 0.5 * (0.8 - 0.5), cfg.cert_cutoff,
                            cfg.eta)
    grid = _setup(cfg)[1]["grid"]
    assert grid[0] == 0.8 and grid[-1] == cfg.sigma_hi
    fractions = []
    for row in rep.per_trial:
        path = SamplePath(seq, cfg.master_seed, row["trial"])
        decided = [cv.decided_sign is not None for cv in evaluate(path, grid, cert)]
        assert row["decided_fraction"] == sum(decided) / len(grid)
        fractions.append(row["decided_fraction"])
    assert 0.0 < min(fractions) < 1.0


def test_sign_change_rows_match_the_exact_sums(min_cutoff):
    # every kept sign is the sign of the exact path's value: evaluate's
    # decided sign where the certified sum beats its radius, else the sign
    # of exact_sum over the heuristic cutoff (a zero sum counts +1);
    # the 1e5-term certified sums and the 2e5-term heuristic sums, every
    # one raised to 2e5 terms, span more than one chunk
    min_cutoff(2e5)
    cfg = SignChangeConfig(ladder=(0.7, 0.56), trials=3, grid_points=10)
    seq, st, _ = _setup(cfg)
    weights = st["weights"][1:]  # the heuristic sums', after the certified grid
    assert max(w.size for w in weights) == 200_000
    for i in range(cfg.trials):
        path = SamplePath(seq, cfg.master_seed, i)
        signs = path.signs_up_to(200_000)
        certified = [cv.decided_sign for cv in evaluate(path, st["grid"], st["cert"])]
        combined = [
            s if s is not None
            else 1 if exact_sum(signs[:w.size] * w) >= 0 else -1
            for s, w in zip(certified, weights)
        ]
        row = _trials(cfg, range(i, i + 1))[0]
        assert row["decided_fraction"] == sum(
            s is not None for s in certified) / len(certified)
        assert row["combined_counts"] == [
            sum(1 for a, b in zip(combined[j0:], combined[j0 + 1:]) if a != b)
            for j0 in st["rung_start"]
        ]
        # a certified change needs both neighbours decided by the certificate
        assert row["certified_counts"] == [
            sum(1 for a, b in zip(certified[j0:], certified[j0 + 1:])
                if a is not None and b is not None and a != b)
            for j0 in st["rung_start"]
        ]


def test_sign_change_grid_is_the_scan_grid_plus_the_ladder():
    # one geometric grid formula, so sigma_hi is its top point, once
    cfg = SignChangeConfig(ladder=(0.8, 0.7), trials=1, grid_points=28,
                           cert_cutoff=1e4)
    grid = _setup(cfg)[1]["grid"]
    assert grid == sorted(set(zeros._initial_grid(0.7, 2.0, 28)) | {0.8})
    assert len(grid) == 29 and grid[-1] == cfg.sigma_hi
    assert min(b - a for a, b in zip(grid, grid[1:])) > 1e-9


def test_sign_change_weights_are_freed_with_their_setup(monkeypatch):
    # a run's weight arrays are held by its setup alone, in the stacks its
    # trials sum: the certificate's memo is never written, so no array
    # outlives the setup
    built = _recording_setup(monkeypatch, "sign_change")
    run_experiment(SignChangeConfig(ladder=(0.9, 0.8), trials=2, grid_points=8,
                                    cert_cutoff=1e4))
    st = built.pop()
    assert st["cert"].scan_weights == {}
    views = [*st["weights"][0], *st["weights"][1:]]
    assert len(views) == 2 * len(st["grid"])
    refs = [weakref.ref(a) for w in views for a in (w, w.base)]
    del st, views
    _setup.cache_clear()
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_setup_is_dropped_before_the_next_is_built(monkeypatch):
    # one setup is held at a time: a new config's setup starts building
    # only once the previous config's weight arrays are gone
    setup, trial, aggregate = experiments._KINDS["sign_change"]
    refs, alive = [], []

    def recording(cfg, seq):
        gc.collect()
        alive.append(sum(r() is not None for r in refs))
        return setup(cfg, seq)

    monkeypatch.setitem(experiments._KINDS, "sign_change",
                        (recording, trial, aggregate))
    _setup.cache_clear()
    first = SignChangeConfig(ladder=(0.9, 0.8), trials=1, grid_points=8,
                             cert_cutoff=1e4)
    run_experiment(first)
    st = _setup(replace(first, master_seed=0))[1]
    views = [*st["weights"][0], *st["weights"][1:]]
    assert len(views) == 2 * len(st["grid"])
    refs += [weakref.ref(a) for w in views for a in (w, w.base)]
    del st, views
    run_experiment(replace(first, ladder=(0.85, 0.75)))
    _setup.cache_clear()
    assert alive == [0, 0]


def test_sign_change_setup_forms_each_exponents_weights_once():
    # each grid exponent has one array: its certified row and its
    # heuristic weights are both its first terms, and each equals, bit for
    # bit, a fresh array of its own length, with the decision radius of
    # that fresh array
    _setup.cache_clear()
    seq, st, _ = _setup(SignChangeConfig())
    cert = st["cert"]
    rows, *heuristic = st["weights"]
    m = len(st["grid"])
    assert len(rows) == len(heuristic) == m and len(st["rhos"]) == 2 * m
    for s, row, w, rho, h_rho in zip(st["grid"], rows, heuristic, st["rhos"],
                                     st["rhos"][m:]):
        assert np.shares_memory(w, row)
        fresh = {k: seq._powers(seq.start_index, k, -s) for k in (w.size, row.size)}
        for array in (w, row):
            assert np.array_equal(array.view(np.uint64), fresh[array.size].view(np.uint64))
        assert h_rho == evaluation._decision_radius(
            0.0, evaluation._band_slack(fresh[w.size]))
        assert rho == evaluation._decision_radius(
            evaluation._certified_radius(cert, s), evaluation._band_slack(fresh[row.size]))
    assert cert.scan_weights == {}
    _setup.cache_clear()


def test_sign_change_setup_holds_one_array_per_exponent():
    # the default setup and one trial hold each grid exponent's weights
    # once, max(heuristic count, certificate count) terms: about 169.4 MiB,
    # where a heuristic array and a certified one each would be 174.1 MiB
    cfg = SignChangeConfig(trials=1)
    _setup.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        run_experiment(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    st = _setup(replace(cfg, master_seed=0))[1]
    n = st["cert"].count
    terms = sum(max(w.size, n) for w in st["weights"][1:])
    _setup.cache_clear()
    assert terms == 22_196_986
    assert held <= 8 * terms + 2**20


def test_sign_change_trial_streams_its_signs():
    # a warm trial streams its block's signs through the sums a chunk at a
    # time: its peak allocation stays far below one full-length float64
    # sign vector (8 bytes per term of the longest heuristic sum), for a
    # block of one path and of two
    cfg = SignChangeConfig(ladder=(0.70, 0.62, 0.535), trials=2,
                           grid_points=8)
    max_count = max(w.size for w in _setup(cfg)[1]["weights"][1:])
    assert max_count > 1_000_000
    _trials(cfg, range(1))
    for block in (range(1, 2), range(2)):
        tracemalloc.start()
        try:
            _trials(cfg, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * max_count / 2


def test_sign_change_streams_a_block_of_two_paths(monkeypatch):
    # the default two-trial run is one block: one filter, certified and
    # heuristic sums together, streams both paths in one _sign_stream call
    # to the longest array, so each weight chunk is read once for the two
    # trials
    cfg = SignChangeConfig(trials=2)
    _, st, _ = _setup(cfg)
    calls = []
    original = evaluation._sign_stream

    def recording(paths, count):
        calls.append((len(paths), count))
        return original(paths, count)

    monkeypatch.setattr(evaluation, "_sign_stream", recording)
    run_experiment(cfg)
    assert calls == [(2, max(st["cert"].count, max(w.size for w in st["weights"][1:])))]


def test_block_of_differing_undecided_sets_gives_each_paths_rows():
    # hand-built heuristic arrays, the longest at grid point 3, over paths
    # whose certified filters leave different points undecided: none, the
    # first only (so the longest array is decided), the first two and the
    # first four.  A block streams every path to the longest array, decided
    # or not; each path's row is the one it gives alone.
    cfg = SignChangeConfig(ladder=(0.9, 0.7), trials=1, grid_points=6,
                           cert_cutoff=1e5)
    seq, st, _ = _setup(cfg)
    lengths = [2 * _CH + 1, 3, _CH - 1, 3 * _CH + 7, 1, _CH, 10]
    assert len(lengths) == len(st["grid"])
    heuristic = evaluation._weight_arrays(seq, list(zip(st["grid"], lengths)))
    st = {**st, "weights": [st["weights"][0], *heuristic],
          "rhos": [*st["rhos"][:len(lengths)],
                   *(evaluation._decision_radius(0.0, evaluation._band_slack(w))
                     for w in heuristic)]}
    block = [SamplePath(seq, cfg.master_seed, i) for i in (1, 0, 5, 3, 29)]
    undecided = [tuple(j for j, s in enumerate(evaluation.decide(p, st["grid"], st["cert"]))
                       if s is None) for p in block]
    assert undecided == [(), (0,), (0, 1), (0, 1, 2, 3), (0, 1, 2)]
    trial = experiments._KINDS["sign_change"][1]
    rows = trial(cfg, st, block)
    alone = [trial(cfg, st, [p])[0] for p in block]
    assert experiments._canonical_json(rows) == experiments._canonical_json(alone)


_SMALL = {
    "no_zero": NoZeroConfig(cutoff=1e4),
    # heuristic sums of 1e4 to 6.7e4 terms, across the chunk edge
    "sign_change": SignChangeConfig(ladder=(0.8, 0.545), grid_points=6,
                                    cert_cutoff=1e4),
    "bu_event": BuEventConfig(cutoff_ladder=(10.0, 100.0), horizon_factor=100.0),
    "exceedance": ExceedanceConfig(scales=(100.0, 1e4, 1e5)),
}


@pytest.mark.parametrize("kind", sorted(_SMALL))
def test_blocked_runs_equal_trials_one_by_one(kind):
    # a run passes its trials in blocks of up to 64 paths; every row is the
    # one its trial gives in a block of its own, across the block edge too
    cfg = _SMALL[kind]
    alone = [_trials(cfg, range(i, i + 1))[0] for i in range(65)]
    for trials in (1, 2, 64, 65):
        rows = run_experiment(replace(cfg, trials=trials)).per_trial
        assert experiments._canonical_json(rows) == experiments._canonical_json(alone[:trials])


@pytest.mark.parametrize("kind", ["sign_change", "exceedance"])
def test_pooled_blocks_equal_one_process(kind):
    cfg = replace(_SMALL[kind], trials=5)
    pooled = run_experiment(cfg, workers=3)
    assert pooled.payload_json() == run_experiment(cfg, workers=1).payload_json()


def test_sign_change_validation():
    with pytest.raises(ValidationError):
        run_experiment(SignChangeConfig(ladder=(0.5, 0.7), trials=1))
    # every rung lies below sigma_hi
    for ladder, sigma_hi in (((2.5,), 2.0), ((0.7,), 0.6), ((0.7,), 0.7)):
        with pytest.raises(ValidationError, match="ladder values must lie in"):
            run_experiment(SignChangeConfig(ladder=ladder, sigma_hi=sigma_hi,
                                            trials=1))
    # a bottom rung whose scale exceeds the term budget, as in
    # variance_profile
    with pytest.raises(ResourceBudgetError, match="minimal feasible sigma"):
        run_experiment(SignChangeConfig(ladder=(0.7, 0.52), trials=1))
    with pytest.raises(ValidationError, match="ladder must not be empty"):
        run_experiment(SignChangeConfig(ladder=(), trials=1))
    with pytest.raises(ValidationError, match="sigma_hi must be finite"):
        run_experiment(SignChangeConfig(sigma_hi=math.nan, trials=1))
    # the setup, not the certified filter, refuses a cutoff below the first
    # element
    with pytest.raises(ValidationError, match="cutoff must be >= 1"):
        run_experiment(SignChangeConfig(cert_cutoff=0.5, trials=1))


def test_sign_change_setup_checks_its_weights_against_the_budget(
        monkeypatch, min_cutoff):
    # the heuristic arrays are checked in total before any is formed: each
    # of the 5 holds 1000 terms, and the 4 grid points fit a budget of
    # 4500, all 5 arrays do not
    min_cutoff(1e3)
    cfg = SignChangeConfig(ladder=(0.8, 0.7), grid_points=4, trials=1,
                           cert_cutoff=1e3)
    formed = []  # every weight array is passed to _upper_sum once formed
    upper_sum = evaluation._upper_sum
    monkeypatch.setattr(evaluation, "_upper_sum",
                        lambda w: formed.append(w.size) or upper_sum(w))
    monkeypatch.setattr(frequencies, "DEFAULT_TERM_BUDGET", 4500)
    with pytest.raises(ResourceBudgetError, match="needs 5000 terms"):
        run_experiment(cfg)
    assert formed == []


# ---------------------------------------------------------------------------
# bu_event


def test_bu_event_past_finite_sequence_is_trivial():
    cfg = BuEventConfig(
        seq="explicit:2.0,3.0,4.0",
        cutoff_ladder=(10.0,),
        horizon_factor=100.0,
        trials=10,
    )
    rep = run_experiment(cfg)
    row = rep.aggregates["per_cutoff"][0]
    assert row["fraction"] == 0.0
    assert row["bound"] >= 0.0


def test_bu_event_bound_ladder_decays_below_half():
    cfg = BuEventConfig(
        trials=5,
        cutoff_ladder=(100.0,),
        horizon_factor=10.0,
        bound_count_ladder=(10 ** 3, 10 ** 9, 10 ** 100, 10 ** 1950),
    )
    rep = run_experiment(cfg)
    bounds = [b["bound"] for b in rep.aggregates["bound_count_ladder"]]
    assert all(x > y for x, y in zip(bounds, bounds[1:]))
    assert bounds[-1] < 0.5


def test_bu_event_counts_its_windows_once_per_config(monkeypatch):
    # the weights' count and each cutoff's index window are path-independent:
    # a run's counting_function calls do not grow with its trials
    calls = []
    original = WeightedNaturals.counting_function

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(WeightedNaturals, "counting_function", counting)
    counts = []
    for trials in (1, 5):
        _setup.cache_clear()
        calls.clear()
        run_experiment(BuEventConfig(trials=trials))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2 * len(BuEventConfig().cutoff_ladder) + 1


def test_bu_event_wilson_contains_fraction():
    cfg = BuEventConfig(trials=30, cutoff_ladder=(100.0, 1000.0),
                        horizon_factor=50.0)
    rep = run_experiment(cfg)
    for row in rep.aggregates["per_cutoff"]:
        assert row["wilson_lo"] <= row["fraction"] <= row["wilson_hi"]


def test_bu_event_validation():
    with pytest.raises(ValidationError):
        run_experiment(BuEventConfig(seq="naturals", trials=1))
    with pytest.raises(ValidationError):
        run_experiment(BuEventConfig(threshold=0.0, trials=1))
    for threshold in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="threshold must be finite"):
            run_experiment(BuEventConfig(threshold=threshold, trials=1))
    with pytest.raises(ValidationError, match="cutoff_ladder must not be empty"):
        run_experiment(BuEventConfig(cutoff_ladder=(), trials=1))
    for horizon in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="horizon_factor must be finite"):
            run_experiment(BuEventConfig(horizon_factor=horizon, trials=1))


# ---------------------------------------------------------------------------
# exceedance


def test_exceedance_cumulative_fraction_nondecreasing():
    rep = run_experiment(ExceedanceConfig(trials=60))
    fracs = [c["fraction"] for c in rep.aggregates["cumulative"]]
    assert all(x <= y for x, y in zip(fracs, fracs[1:]))
    assert not rep.aggregates["degenerate_level"]


def test_exceedance_single_scale_matches_normal_tail():
    cfg = ExceedanceConfig(scales=(10_000.0,), level=2.0, trials=400)
    rep = run_experiment(cfg)
    row = rep.aggregates["per_scale"][0]
    target = 1.0 - normal_cdf(2.0)
    # finite-scale bias allowed: the Wilson interval must reach the target
    assert row["wilson_lo"] - 0.02 <= target <= row["wilson_hi"] + 0.02


def test_exceedance_degenerate_level_flagged():
    rep = run_experiment(ExceedanceConfig(level=0.0, trials=10))
    assert rep.aggregates["degenerate_level"]


def test_exceedance_trials_neither_count_nor_look_up(monkeypatch):
    # the setup counts the scales and holds their weights, so a run's
    # counting and weight lookups do not grow with its trials
    calls = []
    counting, arrays = FrequencySequence.counting_function, experiments._weight_arrays
    monkeypatch.setattr(FrequencySequence, "counting_function",
                        lambda self, x: calls.append(x) or counting(self, x))
    monkeypatch.setattr(experiments, "_weight_arrays",
                        lambda *args: calls.append(args) or arrays(*args))
    per_run = []
    for trials in (1, 5):
        _setup.cache_clear()
        calls.clear()
        run_experiment(ExceedanceConfig(trials=trials))
        per_run.append(len(calls))
    assert per_run[0] == per_run[1] > 0


def test_exceedance_validation():
    with pytest.raises(ValidationError):
        run_experiment(ExceedanceConfig(scales=(100.0, 100.0), trials=1))
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="level must be finite"):
            run_experiment(ExceedanceConfig(level=level, trials=1))
    with pytest.raises(ValidationError, match="scales must not be empty"):
        run_experiment(ExceedanceConfig(scales=(), trials=1))


def test_per_trial_csv_shape():
    rep = run_experiment(ExceedanceConfig(trials=5))
    csv = rep.per_trial_csv()
    lines = csv.strip().split("\n")
    assert lines[0].split(",")[0] == "trial"
    assert len(lines) == 6


def test_rows_to_csv_round_trip():
    samples = [0.25, -1.5, 3.0]
    csv = rows_to_csv([{"sample": x} for x in samples])
    lines = csv.strip().split("\n")
    assert lines[0] == "sample"
    assert [float(x) for x in lines[1:]] == samples
