"""The benchmark's workloads: a cold first result, a warm pass, and the
correctness checks on each pass's output.

Every library call goes through its defining module's attribute at call
time (``experiments.run_experiment``, ``limits.clt_sample``), so the
tracer's patches are seen.  Each check is an invariant that any correct
version of the library satisfies, not a frozen pilot number.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from dirichletlab import experiments, frequencies, limits


@dataclasses.dataclass
class Outcome:
    """One pass's canonical payload and its checked operations."""

    payload: str
    attempted: int
    failed: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.payload.encode()).hexdigest()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.failures.append(what)


def pool_workers() -> int:
    """nproc, but at least 2 so the process-pool branch always runs."""
    return max(2, len(os.sched_getaffinity(0)))


class NoZero:
    """weighted:2.0, cutoff 1e5, forced all-plus path: many small sign
    regenerations, forced pins and certified grid points per trial."""

    def __init__(self, trials: int, pooled: bool):
        self.trials = self.ops = trials
        self.pooled = pooled

    def config(self, seed: int, trials: int):
        return experiments.NoZeroConfig(trials=trials, master_seed=seed)

    def workers(self) -> int:
        return pool_workers() if self.pooled else 1

    def _run(self, cfg, workers: int) -> Outcome:
        rep = experiments.run_experiment(cfg, workers=workers)
        out = Outcome(rep.payload_json(), attempted=len(rep.per_trial))
        for r in rep.per_trial:
            certified_clean = not r["certified"] or (
                r["sign_changes"] == 0 and r["undecided_measure"] == 0)
            out.check(certified_clean and r["eta_total"] <= cfg.eta,
                      f"trial {r['trial']}: {r}")
        return out

    def first_result(self, seed: int) -> Outcome:
        return self._run(self.config(seed, 1), 1)

    def run_pass(self, seed: int, workers: int) -> Outcome:
        return self._run(self.config(seed, self.trials), workers)

    def reference(self, seed: int) -> Outcome:
        """The same pass at workers=1; a pooled pass must match it byte
        for byte."""
        return self._run(self.config(seed, self.trials), 1)


class SignChange:
    """naturals, heuristic cutoffs up to ~1.7e7: one large sign vector and
    about 60 large compensated sums per trial."""

    pooled = False

    def __init__(self, trials: int):
        self.trials = self.ops = trials

    def workers(self) -> int:
        return 1

    def _run(self, cfg) -> Outcome:
        rep = experiments.run_experiment(cfg, workers=1)
        out = Outcome(rep.payload_json(), attempted=len(rep.per_trial))
        for r in rep.per_trial:
            comb, cert = r["combined_counts"], r["certified_counts"]
            monotone = all(x <= y for x, y in zip(comb, comb[1:]))
            bounded = all(c <= k for c, k in zip(cert, comb))
            out.check(monotone and bounded, f"trial {r['trial']}: {r}")
        return out

    def first_result(self, seed: int) -> Outcome:
        return self._run(experiments.SignChangeConfig(trials=1, master_seed=seed))

    def run_pass(self, seed: int, workers: int) -> Outcome:
        return self._run(experiments.SignChangeConfig(trials=self.trials, master_seed=seed))


CLT_SIGMA, CLT_CUTOFF = 0.6, 1e7
GAP_SIGMAS = (0.75, 0.65, 0.6, 0.55)
PROFILE_SIGMAS = (0.75, 0.65, 0.6, 0.57)
# asymptotic Kolmogorov critical value at level 0.001
KS_C = 1.949


class CltPrimes:
    """Primes up to 1e7: normal-limit draws, KS, characteristic-function
    gaps and variance profiles; the only workload on the sieve and the
    prime tail enclosures."""

    pooled = False

    def __init__(self, draws: int):
        self.draws = draws
        self.ops = draws + 2 + len(PROFILE_SIGMAS)

    def workers(self) -> int:
        return 1

    def first_result(self, seed: int) -> Outcome:
        draws = limits.clt_sample(frequencies.Primes(), CLT_SIGMA, CLT_CUTOFF, seed, 1)
        out = Outcome(json.dumps(draws.tolist()), attempted=1)
        out.check(bool(np.isfinite(draws).all()), "first draw not finite")
        return out

    def run_pass(self, seed: int, workers: int) -> Outcome:
        primes = frequencies.Primes()
        draws = limits.clt_sample(primes, CLT_SIGMA, CLT_CUTOFF, seed, self.draws)
        ks = limits.ks_statistic(draws)
        ts = np.linspace(-1.0, 1.0, 21)
        gaps = [limits.char_function_gaussian_gap(primes, s, CLT_CUTOFF, ts)
                for s in GAP_SIGMAS]
        profiles = [limits.variance_profile(primes, s) for s in PROFILE_SIGMAS]
        payload = json.dumps({
            "draws": draws.tolist(),
            "ks": ks,
            "gaps": gaps,
            "profiles": [dataclasses.asdict(p) for p in profiles],
        }, sort_keys=True, separators=(",", ":"))
        out = Outcome(payload, attempted=len(draws) + 2 + len(profiles))
        for i, x in enumerate(draws.tolist()):
            out.check(math.isfinite(x), f"draw {i} is {x}")
        critical = KS_C / math.sqrt(len(draws))
        out.check(ks < critical, f"KS {ks:.4f} >= critical {critical:.4f}")
        out.check(all(a > b for a, b in zip(gaps, gaps[1:])),
                  f"char-fn gaps not decreasing: {gaps}")
        for p in profiles:
            out.check(p.tail_variance_lo <= p.tail_variance_hi,
                      f"sigma={p.sigma}: tail enclosure {p.tail_variance_lo} > "
                      f"{p.tail_variance_hi}")
        return out


WORKLOADS = {
    "no_zero": NoZero(trials=8, pooled=False),
    "sign_change": SignChange(trials=2),
    "clt_primes": CltPrimes(draws=64),
    "no_zero_pool": NoZero(trials=8, pooled=True),
}
