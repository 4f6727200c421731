"""In-memory span tracer that wraps dirichletlab's entry points from outside.

Each wrapped callable records a span ``[name, start, end, parent, pass_id,
attrs]``.  ``parent`` is the index of the enclosing span (-1 at the top),
so a span's self time is its duration minus the durations of the spans
whose parent it is.  Spans stay in a list until ``write`` dumps them.

A function imported into several modules (``compensated_sum`` lives in
``summation`` and is imported into ``evaluation``, ``experiments``,
``frequencies`` and ``limits``) is patched in every dirichletlab module
that holds it, so every call site is seen.  Methods are patched on every
class of the frequency-sequence hierarchy that defines them.  Nothing
wrapped here runs more than about 10**5 times per workload pass.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _signs_attrs(args, kwargs, result):
    path, indices = args[0], args[1]
    size = _size(indices)
    return {"terms": size, "pins": len(path.forced) if size else 0}


def _weights_attrs(args, kwargs, result):
    # a hit returns a slice of the cached array; a miss a fresh array
    return {"terms": _size(result), "hit": result.base is not None}


def _scan_attrs(args, kwargs, report):
    decided = sum(1 for s in report.decided_signs if s != "undecided")
    return {
        "grid_points": len(report.sigma_grid),
        "decided": decided,
        "rounds": report.refinement_rounds,
    }


# (module, attribute, span name, attrs hook) for module-level functions
FUNCTIONS = [
    ("dirichletlab.paths", "all_plus_path", "paths.all_plus_path", None),
    ("dirichletlab.evaluation", "_weights", "evaluation.weights", _weights_attrs),
    ("dirichletlab.evaluation", "evaluate", "evaluation.evaluate", None),
    ("dirichletlab.evaluation", "tail_certificate", "evaluation.tail_certificate", None),
    ("dirichletlab.summation", "compensated_sum", "summation.compensated_sum",
     lambda a, k, r: {"terms": _size(a[0])}),
    ("dirichletlab.sieve", "primes_up_to", "sieve.primes_up_to",
     lambda a, k, r: {"extent": int(a[0])}),
    ("dirichletlab.sieve", "prime_count", "sieve.prime_count", None),
    ("dirichletlab.sieve", "nth_prime", "sieve.nth_prime",
     lambda a, k, r: {"extent": int(r)}),
    ("dirichletlab.sieve", "primes_slice", "sieve.primes_slice", None),
    ("dirichletlab.zeros", "certify_no_zeros", "zeros.certify_no_zeros", None),
    ("dirichletlab.zeros", "scan", "zeros.scan", _scan_attrs),
    ("dirichletlab.limits", "clt_sample", "limits.clt_sample", None),
    ("dirichletlab.limits", "char_function", "limits.char_function", None),
    ("dirichletlab.limits", "ks_statistic", "limits.ks_statistic", None),
    ("dirichletlab.limits", "variance_profile", "limits.variance_profile", None),
    ("dirichletlab.experiments", "run_experiment", "experiments.run_experiment", None),
]

# (class path, method, span name, attrs hook)
METHODS = [
    ("dirichletlab.paths.SamplePath", "signs_for_indices", "paths.signs", _signs_attrs),
    ("dirichletlab.frequencies.FrequencySequence", "counting_function",
     "frequencies.counting_function", None),
    ("dirichletlab.frequencies.FrequencySequence", "elements_up_to",
     "frequencies.elements_up_to", lambda a, k, r: {"terms": _size(r)}),
    ("dirichletlab.frequencies.FrequencySequence", "tail_power_sum",
     "frequencies.tail_power_sum", None),
]


def _resolve(dotted: str):
    module, _, attr = dotted.rpartition(".")
    return getattr(sys.modules[module], attr)


def _class_tree(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_class_tree(sub))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, attrs_hook):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs_hook is not None:
                rec[5] = attrs_hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every listed entry point; names the library lacks are
        recorded in ``missing`` and their metrics read 0."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dirichletlab" or n.startswith("dirichletlab."))]
        for module, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for cls_path, attr, name, hook in METHODS:
            try:
                classes = _class_tree(_resolve(cls_path))
            except (AttributeError, KeyError):
                self.missing.append(cls_path)
                continue
            for cls in classes:
                if attr in vars(cls):
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], name, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, passes: set[int]) -> None:
        """Dump the spans of ``passes`` as JSON lines.  ``parent`` is an
        index into the full span list, so it is the parent's line number
        when ``passes`` are the first passes recorded."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id, attrs in self.spans:
                if pass_id not in passes:
                    continue
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id,
                                     "attrs": attrs}, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(spans: list[list], passes: set[int]) -> tuple[dict, dict]:
    """Per-layer metrics over the spans of ``passes``, and the array sizes
    behind each per-term rate."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    attr_max: dict[tuple[str, str], float] = {}
    char_terms = 0
    for i, (name, start, end, parent, pass_id, attrs) in enumerate(spans):
        if pass_id not in passes:
            continue
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        for key, value in (attrs or {}).items():
            attr_sum[name, key] = attr_sum.get((name, key), 0) + value
            attr_max[name, key] = max(attr_max.get((name, key), 0), value)
        if (name == "frequencies.elements_up_to" and parent >= 0
                and spans[parent][0] == "limits.char_function"):
            char_terms += attrs["terms"]

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def a(name, key):
        return attr_sum.get((name, key), 0)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    def layer(prefix):
        return sum(v for n, v in self_s.items() if n.startswith(prefix + "."))

    sign_terms = a("paths.signs", "terms")
    sum_terms = a("summation.compensated_sum", "terms")
    grid = a("zeros.scan", "grid_points")
    m = {
        "paths.signs.calls": (c("paths.signs"), "count"),
        "paths.forced_pins": (a("paths.signs", "pins"), "count"),
        "paths.signs.terms": (sign_terms, "count"),
        "paths.signs.self_s": (s("paths.signs"), "s"),
        "paths.signs.ns_per_term": (per(s("paths.signs"), sign_terms, 1e9), "ns/term"),
        "paths.all_plus_path.self_s": (s("paths.all_plus_path"), "s"),
        "evaluation.weights.calls": (c("evaluation.weights"), "count"),
        "evaluation.weights.hit_ratio": (
            per(a("evaluation.weights", "hit"), c("evaluation.weights"), 1.0), "frac"),
        "evaluation.weights.self_s": (s("evaluation.weights"), "s"),
        "evaluation.evaluate.calls": (c("evaluation.evaluate"), "count"),
        "evaluation.evaluate.us_per_call": (
            per(incl.get("evaluation.evaluate", 0.0), c("evaluation.evaluate"), 1e6), "us/call"),
        "evaluation.tail_certificate.calls": (c("evaluation.tail_certificate"), "count"),
        "evaluation.tail_certificate.self_s": (s("evaluation.tail_certificate"), "s"),
        "frequencies.tail_power_sum.calls": (c("frequencies.tail_power_sum"), "count"),
        "frequencies.tail_power_sum.us_per_call": (
            per(incl.get("frequencies.tail_power_sum", 0.0),
                c("frequencies.tail_power_sum"), 1e6), "us/call"),
        "summation.compensated_sum.calls": (c("summation.compensated_sum"), "count"),
        "summation.compensated_sum.terms": (sum_terms, "count"),
        "summation.compensated_sum.ns_per_term": (
            per(s("summation.compensated_sum"), sum_terms, 1e9), "ns/term"),
        "frequencies.counting_function.calls": (c("frequencies.counting_function"), "count"),
        "frequencies.counting_function.self_s": (s("frequencies.counting_function"), "s"),
        "frequencies.elements_up_to.terms": (a("frequencies.elements_up_to", "terms"), "count"),
        "sieve.extent": (max(attr_max.get(("sieve.primes_up_to", "extent"), 0),
                             attr_max.get(("sieve.nth_prime", "extent"), 0)), "count"),
        "sieve.self_s": (layer("sieve"), "s"),
        "zeros.certify_no_zeros.self_s": (layer("zeros"), "s"),
        "zeros.scan.grid_points": (grid, "count"),
        "zeros.scan.refinement_rounds": (a("zeros.scan", "rounds"), "count"),
        "zeros.decided_ratio": (per(a("zeros.scan", "decided"), grid, 1.0), "frac"),
        "limits.clt_sample.self_s": (s("limits.clt_sample"), "s"),
        "limits.char_function.calls": (c("limits.char_function"), "count"),
        "limits.char_function.ns_per_term": (
            per(incl.get("limits.char_function", 0.0), char_terms, 1e9), "ns/term"),
        "limits.ks_statistic.self_s": (s("limits.ks_statistic"), "s"),
        "limits.variance_profile.self_s": (s("limits.variance_profile"), "s"),
        "experiments.glue.self_s": (s("experiments.run_experiment"), "s"),
    }
    arrays = {
        "paths.signs": {"max_terms": attr_max.get(("paths.signs", "terms"), 0)},
        "summation.compensated_sum": {
            "max_terms": attr_max.get(("summation.compensated_sum", "terms"), 0)},
        "evaluation.weights": {"max_terms": attr_max.get(("evaluation.weights", "terms"), 0)},
        "limits.char_function": {
            "terms_per_call": per(char_terms, c("limits.char_function"), 1.0)},
    }
    for entry in arrays.values():
        n = entry.get("max_terms", entry.get("terms_per_call", 0))
        entry["float64_bytes_computed"] = int(n) * 8
    return m, arrays
