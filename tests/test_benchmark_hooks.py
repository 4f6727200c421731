"""The benchmark's span tracer (perfbench/spans.py) wraps library entry
points by name and reads their results; these passes keep the names and
results it hooks working."""

import importlib.util
import sys
from pathlib import Path

from dirichletlab.experiments import _setup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_workload_passes_fail_no_operation():
    spans, workloads = _load("spans"), _load("workloads")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for workload in (workloads.NoZero(trials=2, pooled=False),
                         workloads.SignChange(trials=1),
                         workloads.CltPrimes(draws=2)):
            out = workload.run_pass(1, 1)
            assert out.attempted > 0
            assert (out.failed, out.failures) == (0, [])
    finally:
        tracer.uninstall()
        _setup.cache_clear()
    names = {span[0] for span in tracer.spans}
    assert {"experiments.run_experiment", "zeros.scan",
            "limits.char_function"} <= names
