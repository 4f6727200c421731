"""Command-line surface: configs in, reports and plot-ready data out.

Config files are flat ``key = value`` text ('#' comments); command-line
flags override file keys.  Every subcommand writes a JSON report whose
payload is byte-identical for identical configs regardless of worker
count, prints a one-line summary, and exits 0 on success, 1 on a
validation error, 2 on a resource/budget error, 3 on an internal error.
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
from .errors import ResourceBudgetError, ValidationError
from .evaluation import evaluate, tail_certificate
from .experiments import (
    BuEventConfig,
    ExceedanceConfig,
    NoZeroConfig,
    SignChangeConfig,
    config_hash,
    run_experiment,
)
from .frequencies import make_sequence
from .limits import (
    char_function,
    clt_sample,
    ks_statistic,
    samples_to_csv,
    variance_profile,
)
from .paths import SamplePath
from .zeros import certify_no_zeros, scan

_SENTINEL = object()


def _parse_value(text: str):
    """Typed parse of a config-file value: bool, int, float, list, or str."""
    t = text.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in t:
        return tuple(_parse_value(x) for x in t.split(",") if x.strip())
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    return t


def read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # missing, unreadable, not text
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = _parse_value(val)
    return values


def _floats(text) -> tuple[float, ...]:
    if isinstance(text, tuple):
        return tuple(float(x) for x in text)
    return tuple(float(x) for x in str(text).split(",") if x.strip())


def _svg_polyline(xs, ys, title: str, width=640, height=400) -> str:
    """Self-contained SVG line chart, enough for a sigma sweep."""
    pad = 50
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
# Option tables: dest -> (cast, default, help).  Casts run on both config
# file values and CLI strings, so file keys and flags behave identically.
# The experiment subcommands take their defaults from the config
# dataclasses, so a run without flags is the dataclass's default config.

_COMMON = {
    "seq": (str, "naturals", "sequence spec, e.g. naturals, primes, weighted:2.0"),
    "seed": (int, 1, "master seed"),
}

_OPTIONS: dict[str, dict] = {
    "eval": {
        **_COMMON,
        "trial": (int, 0, "trial index"),
        "sigma": (float, 1.0, "evaluation exponent"),
        "sigma0": (float, 0.75, "certificate base exponent"),
        "cutoff": (float, 1e4, "truncation cutoff"),
        "eta": (float, 0.05, "certificate failure budget"),
    },
    "scan": {
        **_COMMON,
        "trial": (int, 0, "trial index"),
        "sigma_lo": (float, 0.6, "left endpoint"),
        "sigma_hi": (float, 2.0, "right endpoint"),
        "cutoff": (float, 1e4, "truncation cutoff"),
        "eta": (float, 0.05, "certificate failure budget"),
        "grid": (int, 16, "initial grid points"),
        "resolution": (float, 1e-3, "refinement resolution"),
    },
    "no-zeros": {
        "seq": (str, NoZeroConfig.seq, "sequence spec"),
        "seed": (int, NoZeroConfig.master_seed, "master seed"),
        "trials": (int, NoZeroConfig.trials, "Monte Carlo trials"),
        "sigma_lo": (float, NoZeroConfig.sigma_lo,
                     "left endpoint of the certified half-line"),
        "cutoff": (float, NoZeroConfig.cutoff, "truncation cutoff"),
        "eta": (float, NoZeroConfig.eta, "per-trial failure budget"),
        "forced": (lambda v: str(v).lower() != "false",
                   NoZeroConfig.include_forced,
                   "also run the all-plus conditioned variant"),
    },
    "sign-changes": {
        "seq": (str, SignChangeConfig.seq, _COMMON["seq"][2]),
        "seed": (int, SignChangeConfig.master_seed, "master seed"),
        "trials": (int, SignChangeConfig.trials, "Monte Carlo trials"),
        "ladder": (_floats, SignChangeConfig.ladder, "descending sigma ladder"),
        "sigma_hi": (float, SignChangeConfig.sigma_hi, "right endpoint"),
        "grid_points": (int, SignChangeConfig.grid_points, "shared grid size"),
        "cert_cutoff": (float, SignChangeConfig.cert_cutoff,
                        "certificate cutoff"),
        "eta": (float, SignChangeConfig.eta, "certificate failure budget"),
        "max_cutoff": (float, SignChangeConfig.heuristic_max_cutoff,
                       "heuristic cutoff budget"),
    },
    "clt": {
        **_COMMON,
        "sigma": (float, 0.6, "exponent"),
        "cutoff": (float, 1e6, "truncation cutoff"),
        "trials": (int, 2000, "sample size"),
    },
    "char-fn": {
        "seq": (str, "naturals", "sequence spec"),
        "sigma": (float, 0.6, "exponent"),
        "cutoff": (float, 1e6, "truncation cutoff"),
        "t_max": (float, 1.0, "grid endpoint"),
        "t_points": (int, 41, "grid size on [-t_max, t_max]"),
    },
    "variance-profile": {
        "seq": (str, "primes", "sequence spec"),
        "sigmas": (_floats, (0.75, 0.65, 0.6, 0.57), "exponent sweep"),
    },
    "inequalities": {
        "n": (int, 16, "maximum weight count per instance"),
        "instances": (int, 200, "random instances"),
        "seed": (int, 1, "RNG seed for instances"),
        "lambdas": (int, 20, "threshold grid size per instance"),
    },
    "bu-event": {
        "seq": (str, BuEventConfig.seq, "sequence spec"),
        "seed": (int, BuEventConfig.master_seed, "master seed"),
        "trials": (int, BuEventConfig.trials, "Monte Carlo trials"),
        "ladder": (_floats, BuEventConfig.cutoff_ladder, "cutoff ladder"),
        "horizon": (float, BuEventConfig.horizon_factor, "horizon factor"),
        "threshold": (float, BuEventConfig.threshold, "excursion threshold"),
        "bound_counts": (lambda v: tuple(int(x) for x in _floats(v)),
                         BuEventConfig.bound_count_ladder,
                         "extra leading-term counts for bound-only ladder"),
    },
    "exceedance": {
        "seq": (str, ExceedanceConfig.seq, _COMMON["seq"][2]),
        "seed": (int, ExceedanceConfig.master_seed, "master seed"),
        "trials": (int, ExceedanceConfig.trials, "Monte Carlo trials"),
        "scales": (_floats, ExceedanceConfig.scales, "increasing scale list"),
        "level": (float, ExceedanceConfig.level, "exceedance level"),
    },
    "report": {
        "input": (str, "", "path of a report JSON file to summarize"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichletlab",
        description="numerical laboratory for random sign Dirichlet series",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, opts in _OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1)
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
    """defaults < config file < explicit flags, all run through the casts."""
    opts = _OPTIONS[args.subcommand]
    values = {dest: default for dest, (_c, default, _h) in opts.items()}
    if args.config:
        for key, val in read_config_file(args.config).items():
            if key not in opts:
                raise ValidationError(
                    f"unknown config key {key!r} for {args.subcommand}"
                )
            values[key] = opts[key][0](val)
    for dest in opts:
        flag = getattr(args, dest, None)
        if flag is not None:
            values[dest] = opts[dest][0](flag)
    return values


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns (summary, payload, extra_files, ok).


def _cmd_eval(v, workers):
    seq = make_sequence(v["seq"])
    path = SamplePath(seq, v["seed"], v["trial"])
    cert = tail_certificate(seq, v["sigma0"], v["cutoff"], v["eta"])
    cv = evaluate(path, v["sigma"], cert)
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
    rep = scan(
        path, v["sigma_lo"], v["sigma_hi"],
        initial_grid=v["grid"], eta_budget=v["eta"],
        cutoff=v["cutoff"], resolution=v["resolution"],
    )
    summary = (
        f"scan [{rep.sigma_lo:g},{rep.sigma_hi:g}]: {rep.sign_changes} certified "
        f"sign changes, undecided measure {rep.undecided_measure:.3g}, "
        f"eta={rep.eta_total:g}"
    )
    extra = {}
    return summary, rep.to_dict(), extra, True


def _cmd_no_zeros(v, workers):
    cfg = NoZeroConfig(
        seq=v["seq"], sigma_lo=v["sigma_lo"], cutoff=v["cutoff"],
        eta=v["eta"], trials=v["trials"], master_seed=v["seed"],
        include_forced=v["forced"],
    )
    rep = run_experiment(cfg, workers=workers)
    c = rep.aggregates["certified"]
    summary = (
        f"no-zeros: certified {c['count']}/{c['trials']} "
        f"(Wilson [{c['wilson_lo']:.4f}, {c['wilson_hi']:.4f}])"
    )
    return summary, rep.payload_dict(), {"csv": rep.per_trial_csv()}, True


def _cmd_sign_changes(v, workers):
    cfg = SignChangeConfig(
        seq=v["seq"], ladder=v["ladder"], sigma_hi=v["sigma_hi"],
        trials=v["trials"], master_seed=v["seed"],
        grid_points=v["grid_points"], cert_cutoff=v["cert_cutoff"],
        eta=v["eta"], heuristic_max_cutoff=v["max_cutoff"],
    )
    rep = run_experiment(cfg, workers=workers)
    means = [r["mean_count"] for r in rep.aggregates["per_rung"]]
    sigmas = [r["sigma"] for r in rep.aggregates["per_rung"]]
    summary = "sign-changes mean counts: " + ", ".join(
        f"sigma={s:g}: {m:.3f}" for s, m in zip(sigmas, means)
    )
    extra = {"csv": rep.per_trial_csv()}
    extra["svg"] = _svg_polyline(sigmas, means, "mean sign-change count vs sigma")
    return summary, rep.payload_dict(), extra, True


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
    return summary, payload, {"csv": samples_to_csv(samples)}, True


def _cmd_char_fn(v, workers):
    seq = make_sequence(v["seq"])
    ts = np.linspace(-v["t_max"], v["t_max"], v["t_points"])
    rows = []
    for t in ts:
        phi = char_function(seq, v["sigma"], float(t), v["cutoff"])
        rows.append((float(t), phi, math.exp(-0.5 * float(t) ** 2)))
    gap = max(abs(p - g) for _, p, g in rows)
    payload = {
        "kind": "char_fn",
        "config": v,
        "sup_gap_to_gaussian": gap,
        "grid": [{"t": t, "phi": p, "gaussian": g} for t, p, g in rows],
    }
    csv = "t,phi,gaussian\n" + "\n".join(
        f"{t!r},{p!r},{g!r}" for t, p, g in rows
    ) + "\n"
    svg = _svg_polyline([r[0] for r in rows], [r[1] for r in rows],
                        f"char fn, sigma={v['sigma']:g}")
    summary = f"char-fn: sup |phi - gaussian| = {gap:.5f} on |t| <= {v['t_max']:g}"
    return summary, payload, {"csv": csv, "svg": svg}, True


def _cmd_variance_profile(v, workers):
    seq = make_sequence(v["seq"])
    rows = []
    for s in v["sigmas"]:
        prof = variance_profile(seq, s)
        rows.append(prof)
    payload = {
        "kind": "variance_profile",
        "config": v,
        "profiles": [
            {
                "sigma": p.sigma,
                "scale": p.scale,
                "head_count": p.head_count,
                "head_variance": p.head_variance,
                "tail_variance_lo": p.tail_variance_lo,
                "tail_variance_hi": p.tail_variance_hi,
            }
            for p in rows
        ],
    }
    csv = "sigma,scale,head_variance,tail_variance_lo,tail_variance_hi\n" + \
        "\n".join(
            f"{p.sigma!r},{p.scale!r},{p.head_variance!r},"
            f"{p.tail_variance_lo!r},{p.tail_variance_hi!r}"
            for p in rows
        ) + "\n"
    svg = _svg_polyline([p.sigma for p in rows], [p.head_variance for p in rows],
                        "head variance vs sigma")
    summary = "variance-profile: " + ", ".join(
        f"V({p.sigma:g})={p.head_variance:.4f}" for p in rows
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


def _cmd_bu_event(v, workers):
    cfg = BuEventConfig(
        seq=v["seq"], cutoff_ladder=v["ladder"], horizon_factor=v["horizon"],
        threshold=v["threshold"], trials=v["trials"], master_seed=v["seed"],
        bound_count_ladder=v["bound_counts"],
    )
    rep = run_experiment(cfg, workers=workers)
    parts = [
        f"U={r['cutoff']:g}: freq {r['fraction']:.4f} vs bound {r['bound']:.4f}"
        for r in rep.aggregates["per_cutoff"]
    ]
    summary = "bu-event: " + "; ".join(parts)
    return summary, rep.payload_dict(), {"csv": rep.per_trial_csv()}, True


def _cmd_exceedance(v, workers):
    cfg = ExceedanceConfig(
        seq=v["seq"], scales=v["scales"], level=v["level"],
        trials=v["trials"], master_seed=v["seed"],
    )
    rep = run_experiment(cfg, workers=workers)
    last = rep.aggregates["cumulative"][-1]
    summary = (
        f"exceedance: level {cfg.level:g}, fraction {last['fraction']:.4f} "
        f"using all {last['scales_used']} scales"
    )
    return summary, rep.payload_dict(), {"csv": rep.per_trial_csv()}, True


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


_COMMANDS = {
    "eval": _cmd_eval,
    "scan": _cmd_scan,
    "no-zeros": _cmd_no_zeros,
    "sign-changes": _cmd_sign_changes,
    "clt": _cmd_clt,
    "char-fn": _cmd_char_fn,
    "variance-profile": _cmd_variance_profile,
    "inequalities": _cmd_inequalities,
    "bu-event": _cmd_bu_event,
    "exceedance": _cmd_exceedance,
    "report": _cmd_report,
}


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
        summary, payload, extra, ok = _COMMANDS[args.subcommand](
            values, args.workers
        )
        if payload is not None:
            tag = config_hash(json.loads(json.dumps(values, default=list)))[:12]
            base = Path(out_dir) / f"{args.subcommand}_{tag}"
            base.parent.mkdir(parents=True, exist_ok=True)
            base.with_suffix(".json").write_text(
                json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=list) + "\n"
            )
            if args.csv and "csv" in extra:
                base.with_suffix(".csv").write_text(extra["csv"])
            if args.svg and "svg" in extra:
                base.with_suffix(".svg").write_text(extra["svg"])
        print(summary)
        return 0 if ok else 1
    except ValidationError as exc:
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
