"""Command-line surface: configs in, reports and plot-ready data out.

Config files are flat ``key = value`` text ('#' comments); command-line
flags override file keys.  Every subcommand writes a JSON report whose
payload is byte-identical for identical configs regardless of worker
count, prints a one-line summary, and exits 0 on success, 1 on a
validation error or a request where the series diverges, 2 on a
resource/budget error, 3 on an internal error.
Optional CSV and self-contained SVG line charts accompany sweeps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._version import VERSION
from .bounds import (
    WeightedRademacherInstance,
    exact_tail,
    hoeffding_bound,
    levy_bound,
)
from .errors import DivergenceError, ResourceBudgetError, ValidationError
from .evaluation import evaluate, tail_certificate
from .experiments import (
    BuEventConfig,
    ExceedanceConfig,
    NoZeroConfig,
    SignChangeConfig,
    _canonical_json,
    config_hash,
    rows_to_csv,
    run_experiment,
)
from .frequencies import _check_finite, _text_lines, make_sequence
from .limits import (
    char_function,
    clt_sample,
    ks_statistic,
    variance_profile,
)
from .paths import SamplePath
from .zeros import scan, scan_certificate


def read_config_file(path: str) -> dict[str, str]:
    """Raw ``key = value`` text; the subcommand's casts parse the values,
    exactly as they parse the same values given as flags."""
    values = {}
    for lineno, line in _text_lines(path):
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _floats(text: str) -> tuple[float, ...]:
    values = tuple(float(x) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _whole_numbers(text: str) -> tuple[int, ...]:
    """Comma-separated whole numbers; float notation such as 1e3 is fine."""
    values = tuple(float(x) for x in text.split(",") if x.strip())
    if not all(v.is_integer() for v in values):
        raise ValueError("expected whole numbers")
    return tuple(int(v) for v in values)


def _svg_polyline(xs, ys, title: str) -> str:
    """Self-contained SVG line chart, enough for a sigma sweep."""
    width, height, pad = 640, 400, 50
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" '
        f'font-family="monospace">{title}</text>'
        f'<polyline fill="none" stroke="steelblue" stroke-width="2" '
        f'points="{pts}"/>'
        f'<text x="{pad}" y="{height-15}" font-family="monospace" '
        f'font-size="11">x: [{x0:g}, {x1:g}]  y: [{y0:g}, {y1:g}]</text>'
        f"</svg>\n"
    )


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each takes the resolved option values and the worker
# count and returns (summary, payload, extra_files, ok).


def _cmd_eval(v, workers):
    seq = make_sequence(v["seq"])
    path = SamplePath(seq, v["seed"], v["trial"])
    cert = tail_certificate(seq, v["sigma0"], v["cutoff"], v["eta"])
    cv = evaluate(path, [v["sigma"]], cert)[0]
    payload = {
        "kind": "eval",
        "config": v,
        "sigma": cv.sigma,
        "partial_sum": cv.partial_sum,
        "error_radius": cv.error_radius,
        "certificate_kind": cv.kind,
        "eta": cv.eta,
        "decided_sign": cv.decided_sign,
    }
    summary = (
        f"F({cv.sigma:g}) = {cv.partial_sum:.6g} +- {cv.error_radius:.3g} "
        f"[{cv.kind}, eta={cv.eta:g}]"
    )
    return summary, payload, {}, True


def _cmd_scan(v, workers):
    seq = make_sequence(v["seq"])
    path = SamplePath(seq, v["seed"], v["trial"])
    cert = scan_certificate(seq, v["sigma_lo"], v["cutoff"], v["eta"])
    rep = scan(path, v["sigma_lo"], v["sigma_hi"], cert,
               initial_grid=v["grid"], resolution=v["resolution"])
    summary = (
        f"scan [{rep.sigma_lo:g},{rep.sigma_hi:g}]: {rep.sign_changes} certified "
        f"sign changes, undecided measure {rep.undecided_measure:.3g}, "
        f"eta={rep.eta_total:g}"
    )
    return summary, rep.to_dict(), {}, True


def _cmd_clt(v, workers):
    seq = make_sequence(v["seq"])
    samples = clt_sample(seq, v["sigma"], v["cutoff"], v["seed"], v["trials"])
    ks = ks_statistic(samples)
    payload = {
        "kind": "clt",
        "config": v,
        "ks_statistic": ks,
        "sample_mean": float(np.mean(samples)),
        "sample_var": float(np.var(samples)),
    }
    summary = f"clt: n={v['trials']}, KS distance to N(0,1) = {ks:.4f}"
    csv = rows_to_csv([{"sample": float(x)} for x in samples])
    return summary, payload, {"csv": csv}, True


def _cmd_char_fn(v, workers):
    seq = make_sequence(v["seq"])
    _check_finite("t_max", v["t_max"])
    ts = np.linspace(-v["t_max"], v["t_max"], v["t_points"])
    phis = char_function(seq, v["sigma"], ts, v["cutoff"])
    grid = [{"t": t, "phi": phi, "gaussian": math.exp(-0.5 * t ** 2)}
            for t, phi in zip(ts.tolist(), phis)]
    gap = max(abs(r["phi"] - r["gaussian"]) for r in grid)
    payload = {
        "kind": "char_fn",
        "config": v,
        "sup_gap_to_gaussian": gap,
        "grid": grid,
    }
    svg = _svg_polyline([r["t"] for r in grid], [r["phi"] for r in grid],
                        f"char fn, sigma={v['sigma']:g}")
    summary = f"char-fn: sup |phi - gaussian| = {gap:.5f} on |t| <= {v['t_max']:g}"
    return summary, payload, {"csv": rows_to_csv(grid), "svg": svg}, True


def _cmd_variance_profile(v, workers):
    seq = make_sequence(v["seq"])
    profiles = [variance_profile(seq, s) for s in v["sigmas"]]
    rows = [{k: getattr(p, k) for k in ("sigma", "scale", "head_variance",
                                        "tail_variance_lo", "tail_variance_hi")}
            for p in profiles]
    payload = {
        "kind": "variance_profile",
        "config": v,
        "profiles": [{**r, "head_count": p.head_count}
                     for r, p in zip(rows, profiles)],
    }
    csv = rows_to_csv(rows)
    svg = _svg_polyline([p.sigma for p in profiles],
                        [p.head_variance for p in profiles],
                        "head variance vs sigma")
    summary = "variance-profile: " + ", ".join(
        f"V({p.sigma:g})={p.head_variance:.4f}" for p in profiles
    )
    return summary, payload, {"csv": csv, "svg": svg}, True


def _cmd_inequalities(v, workers):
    rng = np.random.default_rng(v["seed"])
    failures = 0
    checked = 0
    for _ in range(v["instances"]):
        n = int(rng.integers(1, v["n"] + 1))
        weights = tuple(float(w) for w in rng.uniform(0.05, 2.0, n))
        inst = WeightedRademacherInstance(weights)
        sd = math.sqrt(inst.sum_of_squares)
        lams = np.linspace(0.1 * sd, 4.0 * sd, v["lambdas"])
        for lam in lams:
            lam = float(lam)
            checked += 1
            if exact_tail(inst, lam, mode="sum") > hoeffding_bound(inst, lam):
                failures += 1
            if exact_tail(inst, lam, mode="max_prefix_abs") > levy_bound(inst, lam):
                failures += 1
    ok = failures == 0
    payload = {
        "kind": "inequalities",
        "config": v,
        "checked_thresholds": checked,
        "violations": failures,
    }
    summary = (
        f"inequalities: {checked} thresholds x 2 bounds, {failures} violations"
    )
    return summary, payload, {}, ok


def _cmd_report(v, workers):
    if not v["input"]:
        raise ValidationError("report needs --input pointing at a report file")
    try:
        data = json.loads(Path(v["input"]).read_text())
    except (OSError, ValueError) as exc:  # missing, unreadable, not JSON
        raise ValidationError(f"cannot read report {v['input']}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{v['input']} does not hold a report object")
    kind = data.get("kind", "?")
    keys = sorted(data.get("aggregates", {}).keys()) or sorted(data.keys())
    summary = f"report {v['input']}: kind={kind}, fields: {', '.join(keys)}"
    return summary, None, {}, True


# ---------------------------------------------------------------------------
# The subcommand table: name -> (options, body), options dest -> (cast,
# default, help).  Casts run on config-file text and flag text alike, so
# file keys and flags behave identically.


def _experiment(cls, rows: dict, summarize, chart=None):
    """(options, body) of an experiment subcommand from rows flag ->
    (config field, cast, help).  Defaults are the dataclass's, so a run
    without flags is its default config; the body runs ``cls(**fields)``
    and summarizes the aggregates in one line (and, given ``chart``, an
    SVG)."""
    options = {flag: (cast, getattr(cls, name), help_text)
               for flag, (name, cast, help_text) in rows.items()}

    def body(v, workers):
        cfg = cls(**{name: v[flag] for flag, (name, _c, _h) in rows.items()})
        rep = run_experiment(cfg, workers=workers)
        extra = {"csv": rep.per_trial_csv()}
        if chart is not None:
            extra["svg"] = chart(rep.aggregates)
        return summarize(rep.aggregates), rep.payload_dict(), extra, True

    return options, body


_SEQ_HELP = "sequence spec, e.g. naturals, primes, weighted:2.0"

_COMMON = {
    "seq": (str, "naturals", _SEQ_HELP),
    "seed": (int, 1, "master seed"),
}

_SUBCOMMANDS: dict[str, tuple[dict, object]] = {
    "eval": ({
        **_COMMON,
        "trial": (int, 0, "trial index"),
        "sigma": (float, 1.0, "evaluation exponent"),
        "sigma0": (float, 0.75, "certificate base exponent"),
        "cutoff": (float, 1e4, "truncation cutoff"),
        "eta": (float, 0.05, "certificate failure budget"),
    }, _cmd_eval),
    "scan": ({
        **_COMMON,
        "trial": (int, 0, "trial index"),
        "sigma_lo": (float, 0.6, "left endpoint"),
        "sigma_hi": (float, 2.0, "right endpoint"),
        "cutoff": (float, 1e4, "truncation cutoff"),
        "eta": (float, 0.05, "certificate failure budget"),
        "grid": (int, 16, "initial grid points"),
        "resolution": (float, 1e-3, "refinement resolution"),
    }, _cmd_scan),
    "no-zeros": _experiment(NoZeroConfig, {
        "seq": ("seq", str, "sequence spec"),
        "seed": ("master_seed", int, "master seed"),
        "trials": ("trials", int, "Monte Carlo trials"),
        "sigma_lo": ("sigma_lo", float,
                     "left endpoint of the certified half-line"),
        "cutoff": ("cutoff", float, "truncation cutoff"),
        "eta": ("eta", float, "per-trial failure budget"),
    }, lambda agg: "no-zeros: certified {count}/{trials} (Wilson [{wilson_lo:.4f}, "
                   "{wilson_hi:.4f}])".format(**agg["certified"])),
    "sign-changes": _experiment(SignChangeConfig, {
        "seq": ("seq", str, _SEQ_HELP),
        "seed": ("master_seed", int, "master seed"),
        "trials": ("trials", int, "Monte Carlo trials"),
        "ladder": ("ladder", _floats, "descending sigma ladder"),
        "sigma_hi": ("sigma_hi", float, "right endpoint"),
        "grid_points": ("grid_points", int, "shared grid size"),
        "cert_cutoff": ("cert_cutoff", float, "certificate cutoff"),
        "eta": ("eta", float, "certificate failure budget"),
        "max_cutoff": ("heuristic_max_cutoff", float, "heuristic cutoff budget"),
    }, lambda agg: "sign-changes mean counts: " + ", ".join(
        "sigma={sigma:g}: {mean_count:.3f}".format(**r) for r in agg["per_rung"]
    ), lambda agg: _svg_polyline([r["sigma"] for r in agg["per_rung"]],
                                 [r["mean_count"] for r in agg["per_rung"]],
                                 "mean sign-change count vs sigma")),
    "clt": ({
        **_COMMON,
        "sigma": (float, 0.6, "exponent"),
        "cutoff": (float, 1e6, "truncation cutoff"),
        "trials": (int, 2000, "sample size"),
    }, _cmd_clt),
    "char-fn": ({
        "seq": (str, "naturals", "sequence spec"),
        "sigma": (float, 0.6, "exponent"),
        "cutoff": (float, 1e6, "truncation cutoff"),
        "t_max": (float, 1.0, "grid endpoint"),
        "t_points": (_count, 41, "grid size on [-t_max, t_max]"),
    }, _cmd_char_fn),
    "variance-profile": ({
        "seq": (str, "primes", "sequence spec"),
        "sigmas": (_floats, (0.75, 0.65, 0.6, 0.57), "exponent sweep"),
    }, _cmd_variance_profile),
    "inequalities": ({
        "n": (_count, 16, "maximum weight count per instance"),
        "instances": (_count, 200, "random instances"),
        "seed": (int, 1, "RNG seed for instances"),
        "lambdas": (_count, 20, "threshold grid size per instance"),
    }, _cmd_inequalities),
    "bu-event": _experiment(BuEventConfig, {
        "seq": ("seq", str, "sequence spec"),
        "seed": ("master_seed", int, "master seed"),
        "trials": ("trials", int, "Monte Carlo trials"),
        "ladder": ("cutoff_ladder", _floats, "cutoff ladder"),
        "horizon": ("horizon_factor", float, "horizon factor"),
        "threshold": ("threshold", float, "excursion threshold"),
        "bound_counts": ("bound_count_ladder", _whole_numbers,
                         "extra leading-term counts for bound-only ladder"),
    }, lambda agg: "bu-event: " + "; ".join(
        "U={cutoff:g}: freq {fraction:.4f} vs bound {bound:.4f}".format(**r)
        for r in agg["per_cutoff"]
    )),
    "exceedance": _experiment(ExceedanceConfig, {
        "seq": ("seq", str, _SEQ_HELP),
        "seed": ("master_seed", int, "master seed"),
        "trials": ("trials", int, "Monte Carlo trials"),
        "scales": ("scales", _floats, "increasing scale list"),
        "level": ("level", float, "exceedance level"),
    }, lambda agg: "exceedance: level {level:g}, fraction {fraction:.4f} using all "
                   "{scales_used} scales".format(level=agg["level"],
                                                 **agg["cumulative"][-1])),
    "report": ({
        "input": (str, "", "path of a report JSON file to summarize"),
    }, _cmd_report),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichletlab",
        description="numerical laboratory for random sign Dirichlet series",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (opts, _body) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=_count, default=1)
        p.add_argument("--dry-run", action="store_true")
        p.add_argument("--csv", action="store_true", help="also write CSV extract")
        p.add_argument("--svg", action="store_true", help="also write an SVG chart")
        for dest, (_cast, _default, help_text) in opts.items():
            p.add_argument(
                "--" + dest.replace("_", "-"), dest=dest, default=None,
                help=help_text,
            )
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; file and flag text both go
    through the option's cast, and a failed cast names its key."""
    opts = _SUBCOMMANDS[args.subcommand][0]
    given = read_config_file(args.config) if args.config else {}
    given.update((dest, getattr(args, dest)) for dest in opts
                 if getattr(args, dest) is not None)
    values = {dest: default for dest, (_c, default, _h) in opts.items()}
    for key, text in given.items():
        if key not in opts:
            raise ValidationError(
                f"unknown config key {key!r} for {args.subcommand}"
            )
        try:
            values[key] = opts[key][0](text)
        except ValueError as exc:
            raise ValidationError(f"bad value {text!r} for {key}: {exc}") from None
    return values


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # keep exit 2 reserved for resource errors; bad flags are validation
        code = exc.code or 0
        return 1 if code else 0
    try:
        values = _resolve(args)
        out_dir = args.out or os.environ.get("DIRICHLETLAB_OUT", ".")
        if args.dry_run:
            plan = json.dumps(values, sort_keys=True, default=list)
            print(f"dry-run {args.subcommand}: {plan}")
            return 0
        summary, payload, extra, ok = _SUBCOMMANDS[args.subcommand][1](
            values, args.workers
        )
        if payload is not None:
            base = Path(out_dir) / f"{args.subcommand}_{config_hash(values)[:12]}"
            base.parent.mkdir(parents=True, exist_ok=True)
            base.with_suffix(".json").write_text(_canonical_json(payload) + "\n")
            for ext in ("csv", "svg"):
                if getattr(args, ext) and ext in extra:
                    base.with_suffix("." + ext).write_text(extra[ext])
        print(summary)
        return 0 if ok else 1
    except (ValidationError, DivergenceError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"resource budget error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
