import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dirichletlab import (
    Naturals,
    SamplePath,
    ValidationError,
    WeightedNaturals,
    certify_no_zeros,
    make_sequence,
    scan,
    scan_certificate,
)
from dirichletlab import evaluation, paths, zeros
from dirichletlab.frequencies import FrequencySequence
from dirichletlab._version import SCHEMA_VERSION
from dirichletlab.experiments import NoZeroConfig, run_experiment
from dirichletlab.zeros import _MAX_GRID_POINTS, _single_term_domination_sigma

from conftest import explicit, path_with_signs


def bisect_root(f, lo, hi, iters=80):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_scan_streams_signs_once_per_scan(monkeypatch):
    # the scan holds its path's signs: one streamed pass of the
    # certificate's count, however many rounds read them
    calls = []
    original = paths._sign_stream

    def counting(block, count):
        calls.append((len(block), count))
        return original(block, count)

    monkeypatch.setattr(paths, "_sign_stream", counting)
    monkeypatch.setattr(evaluation, "_sign_stream", counting)
    seq = WeightedNaturals(2.0)
    cert = scan_certificate(seq, 0.6, 1e4, 0.05)
    rep = scan(SamplePath(seq, 3, 1), 0.6, 2.0, cert, max_refinement=4)
    assert rep.refinement_rounds >= 1 and len(rep.sigma_grid) > 16
    assert calls == [(1, cert.count)] and cert.count == seq.counting_function(1e4)


def test_certificate_is_checked_once_per_scan_and_once_per_call(monkeypatch):
    # a scan checks its certificate once, on its initial grid, however many
    # rounds read the memo; decide and evaluate check theirs once per call
    calls = []
    original = evaluation._check_certificate

    def counting(path, sigmas, cert):
        calls.append(list(sigmas))
        return original(path, sigmas, cert)

    monkeypatch.setattr(evaluation, "_check_certificate", counting)
    monkeypatch.setattr(zeros, "_check_certificate", counting)
    seq = WeightedNaturals(2.0)
    cert = scan_certificate(seq, 0.6, 1e4, 0.05)
    path = SamplePath(seq, 3, 1)
    rep = scan(path, 0.6, 2.0, cert, max_refinement=4)
    grid = list(zeros._initial_grid(0.6, 2.0, 16))
    assert rep.refinement_rounds >= 1 and calls == [grid]
    rep = certify_no_zeros(path, 0.6, cert)
    assert rep.refinement_rounds >= 1 and calls == [grid, grid]
    calls.clear()
    evaluation.decide(path, [0.7, 1.1], cert)
    evaluation.evaluate(path, [0.9], cert)
    assert calls == [[0.7, 1.1], [0.9]]


@pytest.mark.parametrize("sigma_lo, other, message", [
    (0.6, None, "below certificate base exponent"),
    (0.8, Naturals(), "another sequence"),
])
def test_scan_refuses_its_certificate_before_streaming(monkeypatch, sigma_lo, other, message):
    # the one check runs before the scan streams its signs: a certificate
    # for sigma_lo 0.8 has base exponent 0.65 > 0.6, and one built for
    # another sequence serves none of this path's exponents
    streamed = []
    monkeypatch.setattr(paths, "_sign_stream", lambda block, count: streamed.append(count))
    monkeypatch.setattr(evaluation, "_sign_stream", paths._sign_stream)
    seq = WeightedNaturals(2.0)
    cert = scan_certificate(other or seq, 0.8, 1e4, 0.05)
    assert cert.sigma0 == 0.65
    with pytest.raises(ValidationError, match=message):
        scan(SamplePath(seq, 3, 1), sigma_lo, 2.0, cert)
    assert streamed == []


def test_scan_checks_every_initial_grid_point():
    # far from 1/2 the geometric grid can round below sigma_lo: from
    # 2**52 + 1 its inner points are 2**52, which a certificate based at
    # sigma_lo does not cover, so the scan checks the whole grid, not
    # sigma_lo alone
    seq = WeightedNaturals(2.0)
    lo = 2.0 ** 52 + 1
    assert min(zeros._initial_grid(lo, lo + 2, 16)) < lo
    cert = evaluation.tail_certificate(seq, lo, 1e4, 0.05)
    with pytest.raises(ValidationError, match="below certificate base exponent"):
        scan(SamplePath(seq, 1, 0), lo, lo + 2, cert)


def _assert_scan_signs_are_decides(seq, sigma_lo, sigma_hi, cutoff, seed, **kw):
    # a scan's signs, from its held signs, are decide's at its grid points,
    # from streamed ones; a fresh certificate per scan bounds the memo
    cert = scan_certificate(seq, sigma_lo, cutoff, 1e-3)
    path = SamplePath(seq, seed, 0)
    rep = scan(path, sigma_lo, sigma_hi, cert, **kw)
    assert rep.decided_signs == list(map(zeros._sign_str,
                                         evaluation.decide(path, rep.sigma_grid, cert)))
    return rep, cert


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_property_scan_signs_are_decides_below_one_chunk(seed):
    rep, cert = _assert_scan_signs_are_decides(WeightedNaturals(2.0), 0.55, 2.0, 1e4, seed)
    assert cert.count < evaluation._CHUNK and rep.refinement_rounds >= 1


# seeds whose scan below refines: it runs both its rounds
_REFINING_PAST_ONE_CHUNK = (1, 2)


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=1)
@example(seed=2)
@settings(max_examples=4, deadline=None)
def test_property_scan_signs_are_decides_past_one_chunk(seed):
    # 100,000 signs, held as one vector, against which every round sums its
    # rows past one _CHUNK.  The property holds for every seed; refining
    # does not: seeds 484, 1189 and 520357 decide all 8 initial points "-"
    # and run no round, so only the example seeds must cover a round
    rep, cert = _assert_scan_signs_are_decides(Naturals(), 0.65, 3.0, 1e5, seed,
                                               initial_grid=8, max_refinement=2)
    assert cert.count > evaluation._CHUNK
    if seed in _REFINING_PAST_ONE_CHUNK:
        assert rep.refinement_rounds == 2
    assume(rep.refinement_rounds >= 1)


@given(values=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=8, unique=True),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_property_scan_signs_are_decides_on_an_exhausted_certificate(values, seed):
    rep, cert = _assert_scan_signs_are_decides(explicit(sorted(values)), -1.0, 4.0,
                                               100.0, seed, resolution=1e-4)
    assert cert.exhausted


def test_scan_counts_terms_once_per_round(monkeypatch):
    # the certificate counts its terms once, however many exponents and
    # rounds use it: a scan with a fresh certificate counts them once, and
    # a second scan with the same certificate counts none
    seq = WeightedNaturals(2.0)
    cert = scan_certificate(seq, 0.6, 1e4, 0.05)
    path = SamplePath(seq, 3, 1)
    counted = []
    original = FrequencySequence.counting_function

    def counting(self, x):
        counted.append(x)
        return original(self, x)

    monkeypatch.setattr(FrequencySequence, "counting_function", counting)
    rep = scan(path, 0.6, 2.0, cert, max_refinement=4)
    assert rep.refinement_rounds >= 1
    assert len(rep.sigma_grid) > 2 * (1 + rep.refinement_rounds)
    assert counted == [cert.cutoff]
    assert scan(path, 0.6, 2.0, cert, max_refinement=4) == rep
    assert counted == [cert.cutoff]


def test_scan_counts_terms_once_per_round_on_a_cold_cache(monkeypatch):
    # memo misses read the elements by the certificate's count, so a scan
    # that fills its certificate's memo counts no more than a warm one
    seq = WeightedNaturals(2.0)
    cert = scan_certificate(seq, 0.6, 1e4, 0.05)
    counted = []
    original = FrequencySequence.counting_function

    def counting(self, x):
        counted.append(x)
        return original(self, x)

    monkeypatch.setattr(FrequencySequence, "counting_function", counting)
    rep = scan(SamplePath(seq, 3, 1), 0.6, 2.0, cert, max_refinement=4)
    assert len(rep.sigma_grid) > 2 * (1 + rep.refinement_rounds)
    assert sorted(cert.scan_weights) == rep.sigma_grid
    assert counted == [cert.cutoff]


def test_scan_rejects_initial_grid_outside_cap():
    path = SamplePath(Naturals(), 1, 0)
    cert = scan_certificate(path.seq, 0.6, 10.0, 0.05)
    for points in (_MAX_GRID_POINTS + 1, 1, 0, -3):
        with pytest.raises(ValidationError, match="initial_grid"):
            scan(path, 0.6, 2.0, cert, initial_grid=points, max_refinement=0)
    rep = scan(path, 0.6, 2.0, cert, initial_grid=2, max_refinement=0)
    assert len(rep.sigma_grid) == 2


def test_evaluate_rejects_certificate_of_another_sequence():
    cert = scan_certificate(Naturals(), 0.6, 1e3, 0.05)
    with pytest.raises(ValidationError, match="another sequence"):
        scan(SamplePath(Naturals(start_index=2), 1, 0), 0.6, 2.0, cert)


def test_three_term_sign_change_brackets_bisection_oracle():
    # signs (+,-,-): f(s) = 2**-s - 3**-s - 4**-s crosses zero once
    seq = explicit([2.0, 3.0, 4.0])
    f = lambda s: 2.0 ** -s - 3.0 ** -s - 4.0 ** -s
    root = bisect_root(f, 0.2, 3.0)
    assert root == pytest.approx(1.2932, abs=1e-3)
    path = path_with_signs(seq, [1, -1, -1])
    rep = scan(path, 0.2, 3.0, scan_certificate(seq, 0.2, 1e4, 0.05),
               resolution=1e-4, max_refinement=12)
    assert rep.eta_total == 0.0  # exact certificates
    assert rep.sign_changes == 1
    # the change must be bracketed by adjacent grid points of opposite sign
    grid, signs = rep.sigma_grid, rep.decided_signs
    brackets = [
        (a, b)
        for a, b, x, y in zip(grid, grid[1:], signs, signs[1:])
        if x != y
    ]
    assert len(brackets) == 1
    a, b = brackets[0]
    assert a <= root <= b
    assert b - a <= 2e-4


def test_scan_counts_match_dense_oracle_on_random_finite_paths():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        vals = np.sort(rng.uniform(1.5, 30.0, size=5))
        vals += np.arange(5) * 1e-3  # enforce strict increase
        seq = explicit([float(v) for v in vals])
        assignment = [int(s) for s in rng.choice([-1, 1], size=5)]
        path = path_with_signs(seq, assignment)
        rep = scan(path, 0.05, 4.0, scan_certificate(seq, 0.05, 1e4, 0.05),
                   resolution=1e-4, max_refinement=14)
        dense = np.linspace(0.05, 4.0, 20_001)
        w = np.array(assignment, dtype=float)
        f = (vals[None, :] ** (-dense[:, None]) * w).sum(axis=1)
        signs = np.sign(f)
        oracle = int(np.sum(signs[:-1] != signs[1:]))
        assert rep.sign_changes == oracle


def test_refinement_monotonicity():
    seq = explicit([2.0, 3.0, 4.0, 5.0, 6.0])
    path = path_with_signs(seq, [1, -1, -1, 1, -1])
    cert = scan_certificate(seq, 0.05, 1e4, 0.05)
    prev = -1
    for rounds in (0, 2, 4, 8):
        rep = scan(path, 0.05, 4.0, cert, resolution=1e-5, max_refinement=rounds)
        assert rep.sign_changes >= prev
        prev = rep.sign_changes


def test_scan_validation():
    path = SamplePath(Naturals(), 1, 0)
    with pytest.raises(ValidationError):
        scan(path, 2.0, 0.6, scan_certificate(path.seq, 2.0, 1e4, 0.05))
    with pytest.raises(ValidationError):
        scan_certificate(path.seq, 0.4, 1e4, 0.05)  # below 1/2 needs a finite sequence
    with pytest.raises(ValidationError):
        scan_certificate(path.seq, 0.6, 1e4, 0.0)


def test_sign_change_count_respects_undecided_adjacency():
    path = SamplePath(Naturals(), 5, 0)
    rep = scan(path, 0.55, 2.0, scan_certificate(path.seq, 0.55, 2000.0, 0.05),
               max_refinement=2)
    s = rep.decided_signs
    recount = sum(
        1 for x, y in zip(s, s[1:])
        if x != "undecided" and y != "undecided" and x != y
    )
    assert rep.sign_changes == recount
    measure = math.fsum(
        b - a
        for a, b, x, y in zip(rep.sigma_grid, rep.sigma_grid[1:], s, s[1:])
        if x == "undecided" or y == "undecided"
    )
    assert rep.undecided_measure == pytest.approx(measure)


def test_no_zero_certification_exhaustive_two_terms():
    # every sign assignment on {2,3} yields a zero-free series: the
    # leading term dominates at every exponent
    seq = explicit([2.0, 3.0])
    for s1 in (1, -1):
        for s2 in (1, -1):
            rep = certify_no_zeros(path_with_signs(seq, [s1, s2]), 0.1,
                                   scan_certificate(seq, 0.1, 1e4, 1e-3))
            assert rep.no_zero_certified
            assert rep.sign_changes == 0
            assert rep.eta_total == 0.0
            assert rep.domination_sigma is not None


def test_no_zero_certification_detects_change():
    # (+,-,-) on {2,3,4} has a real zero, so certification must refuse
    seq = explicit([2.0, 3.0, 4.0])
    rep = certify_no_zeros(path_with_signs(seq, [1, -1, -1]), 0.2,
                           scan_certificate(seq, 0.2, 1e4, 1e-3))
    assert not rep.no_zero_certified
    assert rep.sign_changes >= 1


@pytest.mark.parametrize("spec, sigma_lo", [("weighted:2.0", 100.0),
                                            ("naturals", 100.0), ("primes", 70.0)])
def test_no_zero_certification_above_the_domination_ladder(spec, sigma_lo):
    # far right the first term dominates the whole tail, so the domination
    # search must test its start even above the ladder's top, 64
    seq = make_sequence(spec)
    cert = scan_certificate(seq, sigma_lo, 1e4, 1e-3)
    for trial in range(3):
        rep = certify_no_zeros(SamplePath(seq, 1, trial), sigma_lo, cert)
        assert rep.domination_sigma == sigma_lo + 1e-9
        assert rep.no_zero_certified


def test_no_zero_certification_where_the_weights_underflow():
    # at sigma_lo = 1000 the first weight 2.41**-1000 and the tail's upper
    # end both underflow to 0.0, so neither a scan nor a float comparison
    # can decide there; a tail upper end of 0.0 bounds nothing, so the
    # domination search steps down to a rung whose does not, and the
    # leading term alone decides the half-line above it
    seq = WeightedNaturals(2.0)
    p1 = seq.element(seq.start_index)
    assert p1 ** -1000.0 == seq.tail_power_sum(1000.0, p1)[1] == 0.0
    for sigma_lo in (700.0, 1000.0):
        dom = _single_term_domination_sigma(seq, sigma_lo + 1e-9)
        assert dom <= sigma_lo and seq.tail_power_sum(dom, p1)[1] > 0.0
    rep = run_experiment(NoZeroConfig(seq="weighted:2.0", sigma_lo=1000.0, trials=3))
    assert rep.aggregates["certified"]["count"] == 3
    cert = scan_certificate(seq, 1000.0, 1e4, 1e-3)
    for trial in range(3):
        path = SamplePath(seq, 1, trial)
        rep = certify_no_zeros(path, 1000.0, cert)
        assert rep.no_zero_certified and rep.sigma_grid == [1000.0]
        assert rep.decided_signs == ["+" if path.sign_at(seq.start_index) > 0 else "-"]


def _reference_scan(path, sigma_lo, sigma_hi, cert, initial_grid,
                    max_refinement, resolution, calls):
    """The sort-and-recheck loop the worklist replaced: each round sorts
    every point and re-checks every adjacent pair.  Each decide call's
    exponents are appended to ``calls``."""
    signs = {}

    def certify(sigmas):
        calls.append(list(sigmas))
        signs.update(zip(sigmas, evaluation.decide(path, sigmas, cert)))

    certify(zeros._initial_grid(sigma_lo, sigma_hi, initial_grid))
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
        if not new_points or len(signs) + len(new_points) > zeros._MAX_GRID_POINTS:
            break
        certify(new_points)
        rounds += 1
    pts = sorted(signs)
    return pts, [zeros._sign_str(signs[s]) for s in pts], rounds


@given(seq=st.one_of(st.lists(st.floats(1.0, 100.0), min_size=3, max_size=8,
                              unique=True).map(sorted).map(explicit),
                     st.just(WeightedNaturals(2.0))),
       lo=st.floats(0.0, 1.0), width=st.floats(0.01, 4.0),
       seed=st.integers(0, 2**32 - 1), initial_grid=st.integers(2, 40),
       max_refinement=st.integers(0, 8),
       resolution=st.sampled_from([1e-3, 2e-3, 1e-2, 0.1]),
       cap=st.one_of(st.none(), st.integers(0, 60)))
# (+, -, -) on {2, 3, 4} changes sign once in (-1, 3): refined to the last
# round, and stopped after two by a cap two points above the grid
@example(seq=explicit([2.0, 3.0, 4.0]), lo=0.5, width=4.0, seed=0, initial_grid=5,
         max_refinement=8, resolution=1e-3, cap=None)
@example(seq=explicit([2.0, 3.0, 4.0]), lo=0.5, width=4.0, seed=0, initial_grid=5,
         max_refinement=8, resolution=1e-3, cap=2)
@settings(max_examples=100, deadline=None)
def test_property_worklist_scan_matches_the_sort_and_recheck_loop(
        seq, lo, width, seed, initial_grid, max_refinement, resolution, cap):
    # the worklist's open intervals are the leaves of the reference's
    # bisection, ascending, so every decide call gets the same exponents in
    # the same order, and the grid, signs and rounds agree; a small grid
    # cap stops both at the same round (patched by hand: a function-scoped
    # monkeypatch would span every example).  A finite path is scanned
    # exactly on [-3, 4.5], weighted:2.0 at cutoff 1e3 from [0.55, 1.5]
    if isinstance(seq, WeightedNaturals):
        sigma_lo, cutoff = 0.55 + 0.95 * lo, 1e3
    else:
        sigma_lo, cutoff = -3.0 + 3.5 * lo, 100.0
    cert = scan_certificate(seq, sigma_lo, cutoff, 1e-3)
    sigma_hi = sigma_lo + width
    path = SamplePath(seq, seed, 0)
    saved, decide = zeros._MAX_GRID_POINTS, zeros._decide
    got_calls, want_calls = [], []
    zeros._decide = lambda p, sigmas, c, held: (got_calls.append(list(sigmas))
                                                or decide(p, sigmas, c, held))
    if cap is not None:
        zeros._MAX_GRID_POINTS = initial_grid + cap
    try:
        rep = scan(path, sigma_lo, sigma_hi, cert, initial_grid=initial_grid,
                   max_refinement=max_refinement, resolution=resolution)
        want = _reference_scan(path, sigma_lo, sigma_hi, cert, initial_grid,
                               max_refinement, resolution, want_calls)
    finally:
        zeros._MAX_GRID_POINTS, zeros._decide = saved, decide
    assert (rep.sigma_grid, rep.decided_signs, rep.refinement_rounds) == want
    assert got_calls == want_calls


def _two_zeros_between_grid_points():
    """ROADMAP item 1's path: signs + - - + + - on six elements, exactly
    summed from sigma_lo 0.05, with zeros at 0.2061 and 0.2479 (40-digit
    mpmath) between the uniform grid's points 0.18 and 0.31."""
    seq = explicit([1.4485154722766005, 3.3746079840040646, 6.2728726130938774,
                    84.45286596055729, 111.22884925177692, 961.9872781891745])
    path = path_with_signs(seq, [1, -1, -1, 1, 1, -1])
    return path, scan_certificate(seq, 0.05, 1e4, 0.05)


def test_two_zeros_lie_between_two_positive_grid_points():
    # F(0.225) < 0, yet F is decided positive at both grid points around it
    path, cert = _two_zeros_between_grid_points()
    w = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
    assert cert.exhausted and float(w @ np.array(path.seq.values) ** -0.225) < 0.0
    rep = certify_no_zeros(path, 0.05, cert)
    grid = [round(s, 12) for s in rep.sigma_grid]
    k = grid.index(0.18)
    assert grid[k + 1] == 0.31 and rep.decided_signs[k:k + 2] == ["+", "+"]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: a scan certifies its grid points, not the intervals "
    "between them, so two zeros between two positive points go unseen"))
def test_no_zero_certificate_sees_zeros_between_same_sign_grid_points():
    path, cert = _two_zeros_between_grid_points()
    assert not certify_no_zeros(path, 0.05, cert).no_zero_certified


def test_no_zero_certified_is_antitone_in_left_endpoint():
    seq = WeightedNaturals(exponent=2.0)
    cert_lo = scan_certificate(seq, 0.6, 1e4, 1e-3)
    cert_hi = scan_certificate(seq, 0.8, 1e4, 1e-3)
    hits = 0
    for trial in range(12):
        path = SamplePath(seq, 31, trial)
        lo = certify_no_zeros(path, 0.6, cert_lo)
        hi = certify_no_zeros(path, 0.8, cert_hi)
        if lo.no_zero_certified:
            assert hi.no_zero_certified
            hits += 1
    # regression guard: the antitone check must actually trigger sometimes
    assert hits >= 0


def test_scan_report_names_start_index():
    seq = Naturals(start_index=5)
    rep = scan(SamplePath(seq, 1, 0), 0.8, 2.0, scan_certificate(seq, 0.8, 1e4, 0.05))
    assert rep.seq != "naturals"
    assert make_sequence(rep.seq) == Naturals(start_index=5)


def test_report_serialization_round_trip():
    seq = explicit([2.0, 3.0, 4.0])
    rep = scan(path_with_signs(seq, [1, 1, 1]), 0.3, 2.0,
               scan_certificate(seq, 0.3, 1e4, 0.05))
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["kind"] == "sign_scan"
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["seq"].startswith("explicit:")
    assert data["sign_changes"] == rep.sign_changes
    assert data["certificate"]["exhausted"] is True
