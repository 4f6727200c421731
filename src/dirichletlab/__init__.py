"""Numerical laboratory for random sign Dirichlet series.

Frequency sequences, deterministic seed-derived sign paths, certified
evaluation with truncation-error certificates, certified sign-change
scanning and no-zero certification, distributional diagnostics near the
critical exponent, exact concentration oracles, and reproducible Monte
Carlo experiments.
"""

from ._version import VERSION as __version__
from .bounds import (
    WeightedRademacherInstance,
    exact_tail,
    excursion_probability_bound,
    hoeffding_bound,
    levy_bound,
    wilson_interval,
)
from .errors import (
    DirichletLabError,
    DivergenceError,
    ResourceBudgetError,
    ValidationError,
)
from .evaluation import (
    CertifiedValue,
    TailCertificate,
    evaluate,
    heuristic_cutoff,
    mellin_discrepancy,
    tail_certificate,
)
from .experiments import (
    BuEventConfig,
    ExceedanceConfig,
    ExperimentReport,
    NoZeroConfig,
    SignChangeConfig,
    run_experiment,
)
from .frequencies import (
    Explicit,
    FrequencySequence,
    Naturals,
    Primes,
    WeightedNaturals,
    make_sequence,
    sequence_spec,
)
from .limits import (
    VarianceProfile,
    char_function,
    clt_sample,
    ks_statistic,
    variance_profile,
)
from .paths import SamplePath
from .zeros import SignScanReport, certify_no_zeros, scan, scan_certificate

__all__ = [
    "__version__",
    "BuEventConfig",
    "CertifiedValue",
    "DirichletLabError",
    "DivergenceError",
    "ExceedanceConfig",
    "ExperimentReport",
    "Explicit",
    "FrequencySequence",
    "Naturals",
    "NoZeroConfig",
    "Primes",
    "ResourceBudgetError",
    "SamplePath",
    "SignChangeConfig",
    "SignScanReport",
    "TailCertificate",
    "ValidationError",
    "VarianceProfile",
    "WeightedNaturals",
    "WeightedRademacherInstance",
    "certify_no_zeros",
    "char_function",
    "clt_sample",
    "evaluate",
    "exact_tail",
    "excursion_probability_bound",
    "heuristic_cutoff",
    "hoeffding_bound",
    "ks_statistic",
    "levy_bound",
    "make_sequence",
    "mellin_discrepancy",
    "run_experiment",
    "scan",
    "scan_certificate",
    "sequence_spec",
    "tail_certificate",
    "variance_profile",
    "wilson_interval",
]
