"""Command-line interface.

Three subcommands: ``fit`` runs the full MSPE pipeline on a CSV dataset,
``simulate`` runs the Monte Carlo study harness, ``dist`` inspects the
moment-matching samplers.  Data go to stdout or files; progress and
diagnostics go to stderr.  Exit codes: 0 success, 2 usage/validation,
3 data error, 4 numerical failure.

All randomness flows from ``--seed``; when omitted, a seed is drawn from
system entropy and printed so the run can be reproduced.  Flags may also be
given in a flat ``key = value`` config file (``--config``); explicit flags
win over the file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import mmdist, simulate
from .errors import DataError, NumericalError
from .model import Dataset, read_csv_dataset
from .mspe import BootstrapConfig, DoubleBootstrapResult, mspe_report
from .pipeline import DEFAULT_RIDGE, WorldFits
from .streams import draw_master_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

STANDARD_RATIOS = (0.5, 1.0, 2.0)


class UsageError(Exception):
    """Validation failure mapped to exit code 2."""


# ---------------------------------------------------------------------------
# config file + flag merging
# ---------------------------------------------------------------------------

def read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _read_config(args) -> dict:
    """The ``--config`` file of a subcommand; every key must name one of its
    options."""
    config = read_config_file(args.config) if args.config else {}
    unknown = sorted(config.keys() - (vars(args).keys() - {"command", "func"}))
    if unknown:
        keys = ", ".join(unknown)
        raise UsageError(f"unknown config key for {args.command}: {keys}")
    return config


def merge_option(args, config: dict, name: str, cast, default):
    """flag > config file > default."""
    flag_val = getattr(args, name)
    if flag_val is not None:
        return flag_val
    if name in config:
        try:
            return cast(config[name])
        except ValueError as exc:
            raise UsageError(f"config key {name}: {exc}") from None
    return default


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def resolve_seed(seed) -> int:
    if seed is not None:
        return int(seed)
    drawn = draw_master_seed()
    print(f"seed: {drawn}", file=sys.stderr)
    return drawn


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; '' for missing values."""
    if x != x:  # nan
        return ""
    return repr(float(x))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_dump(obj) -> str:
    """Strict JSON: a NaN or infinite estimate is a numerical failure, not
    a ``NaN`` token that JSON readers reject."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(
            f"cannot write non-finite values as JSON ({exc})"
        ) from None


def _progress(stream):
    def cb(done, total):
        if stream.isatty():
            print(f"\rreplicate {done}/{total}", end="", file=stream, flush=True)
            if done == total:
                print(file=stream)
        elif done == total or done % max(1, total // 10) == 0:
            print(f"replicate {done}/{total}", file=stream)

    return cb


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _cluster_table(d: Dataset, fit: WorldFits, res: DoubleBootstrapResult) -> dict:
    """The per-cluster report columns in file order, for JSON and CSV alike."""
    return {
        "cluster": [str(cid) for cid in d.cluster_ids],
        "n_i": [int(size) for size in d.sizes],
        "eblup": fit.theta_hat,
        "rho": fit.rho,
        "naive": fit.naive_mse,
        "mse_boot": res.mse_boot,
        "mse_double": res.mse_double,
        "bias": res.bias,
        "mse_bc_simple": res.corrected_simple,
        "mse_bc_robust": res.corrected_robust,
    }


def _report_json(table: dict, fit, res, cfg: BootstrapConfig, seed: int) -> dict:
    fitted = ("mu", "sigma2_u", "sigma2_v", "gamma_u", "gamma_v")
    return {
        "global": {"beta": list(fit.beta), **{k: getattr(fit, k) for k in fitted}},
        "failures": res.failures,
        "config": {
            "b1": cfg.b1,
            "b2": cfg.b2,
            "c": cfg.c,
            "family": cfg.family,
            "g": cfg.g_kind,
            "c_clip": cfg.c_clip,
            "seed": seed,
        },
        "clusters": [dict(zip(table, row)) for row in zip(*table.values())],
    }


def _report_csv(table: dict) -> str:
    lines = [",".join(table)]
    for cluster, n_i, *values in zip(*table.values()):
        lines.append(",".join([cluster, str(n_i), *map(_fmt, values)]))
    return "\n".join(lines) + "\n"


def _bootstrap_config(args, config, seed, *, desk_defaults=False) -> BootstrapConfig:
    """BootstrapConfig from the options a flag or config key sets; the others
    keep the defaults of ``BootstrapConfig`` (or of ``desk_scale``)."""
    options = dict(
        b1=merge_option(args, config, "b1", int, None),
        b2=merge_option(args, config, "b2", int, None),
        c=merge_option(args, config, "c", int, None),
        family=merge_option(args, config, "family", str, None),
        g_kind=merge_option(args, config, "g", str, None),
        c_clip=merge_option(args, config, "c_clip", float, None),
    )
    ridge = tuple(
        merge_option(args, config, name, float, default)
        for name, default in zip(("ridge_b1", "ridge_b2"), DEFAULT_RIDGE)
    )
    make = BootstrapConfig.desk_scale if desk_defaults else BootstrapConfig
    try:
        return make(
            master_seed=seed,
            ridge=ridge,
            **{name: value for name, value in options.items() if value is not None},
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_fit(args) -> int:
    config = _read_config(args)
    seed = resolve_seed(merge_option(args, config, "seed", int, None))
    cfg = _bootstrap_config(args, config, seed)
    dataset = read_csv_dataset(args.input)
    print(
        f"fit: {dataset.n} clusters, {dataset.total} observations, r={dataset.r}",
        file=sys.stderr,
    )
    fit, res = mspe_report(dataset, cfg)
    table = _cluster_table(dataset, fit, res)
    payload = _json_dump(_report_json(table, fit, res, cfg, seed))
    csv_text = _report_csv(table)
    if args.out:
        _write_text(Path(args.out + ".json"), payload)
        _write_text(Path(args.out + ".csv"), csv_text)
        print(f"wrote {args.out}.json and {args.out}.csv", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _records_csv(result: simulate.StudyResult) -> str:
    lines = ["replicate,cluster," + ",".join(simulate.RECORD_COLUMNS)]
    reps, n, _ = result.records.shape
    for rep in range(reps):
        for i in range(n):
            row = result.records[rep, i]
            lines.append(
                f"{rep + 1},{i + 1}," + ",".join(_fmt(v) for v in row)
            )
    return "\n".join(lines) + "\n"


def _summary_dict(result: simulate.StudyResult) -> dict:
    est = {
        name: {
            "rb_median": m.rb_median,
            "rb_mean": m.rb_mean,
            "rb_abs_median": m.rb_abs_median,
            "rb_abs_mean": m.rb_abs_mean,
            "cv_median": m.cv_median,
            "cv_mean": m.cv_mean,
            "underestimation_pct": m.underestimation_pct,
        }
        for name, m in result.metrics.items()
    }
    top = {
        "model": result.model.kind,
        "family": result.family,
        "n": result.scenario.n,
        "n_i": result.scenario.n_i,
        "sigma2_u": result.scenario.sigma2_u,
        "sigma2_v": result.scenario.sigma2_v,
        "replicates": result.replicates,
        "double_bootstrap": result.double,
        "smse_mean": float(np.mean(result.smse)),
        "rbn_median": est["naive"]["rb_median"],
        "estimators": est,
    }
    key = "robust" if "robust" in est else "boot"
    top["rb_median"] = est[key]["rb_median"]
    top["cv_median"] = est[key]["cv_median"]
    return top


def _render_table(summaries: list[dict]) -> str:
    lines = [
        "model    RB       CV       RBN",
        "-" * 34,
    ]
    for s in summaries:
        est = s["estimators"]
        key = "robust" if "robust" in est else "boot"
        lines.append(
            f"{s['model']:<6}  {est[key]['rb_median']:7.3f}  "
            f"{est[key]['cv_median']:7.3f}  {est['naive']['rb_median']:7.3f}"
        )
        lines.append(
            f"{'':<6}  {est[key]['rb_mean']:7.3f}  "
            f"{est[key]['cv_mean']:7.3f}  {est['naive']['rb_mean']:7.3f}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    config = _read_config(args)
    seed = resolve_seed(merge_option(args, config, "seed", int, None))
    cfg = _bootstrap_config(args, config, seed, desk_defaults=True)

    all_models = merge_option(args, config, "all_models", _parse_bool, False)
    model_name = merge_option(args, config, "model", str, None)
    if all_models:
        model_names = list(simulate.MODEL_NAMES)
    elif model_name:
        model_names = [model_name]
    else:
        raise UsageError("choose an error model with --model m1..m8 or --all-models")

    n = merge_option(args, config, "n", int, 60)
    ratio = merge_option(args, config, "ratio", float, None)
    sigma_u = merge_option(args, config, "sigma_u", float, None)
    sigma_v = merge_option(args, config, "sigma_v", float, None)
    replicates = merge_option(args, config, "replicates", int, 200)
    if replicates < 1:
        raise UsageError(f"replicates must be at least 1 (got {replicates})")
    jobs = merge_option(args, config, "jobs", int, os.cpu_count() or 1)
    double = not merge_option(args, config, "single_only", _parse_bool, False)
    table = merge_option(args, config, "table", _parse_bool, False)

    if sigma_u is not None or sigma_v is not None:
        if sigma_u is None or sigma_v is None:
            raise UsageError("--sigma-u and --sigma-v must be given together")
        if ratio is not None:
            raise UsageError("give either --ratio or --sigma-u/--sigma-v, not both")
        if not (0 <= sigma_u < math.inf and 0 <= sigma_v < math.inf):
            raise UsageError("--sigma-u and --sigma-v must be finite and >= 0")
        scenario = simulate.Scenario(n=n, sigma2_u=sigma_u, sigma2_v=sigma_v)
    else:
        ratio = 1.0 if ratio is None else ratio
        if ratio not in STANDARD_RATIOS:
            raise UsageError(
                f"ratio must be one of {{0.5, 1, 2}} (got {ratio:g}); "
                "custom ratios need --sigma-u/--sigma-v"
            )
        scenario = simulate.Scenario.from_ratio(n=n, ratio=ratio)

    summaries, records = [], {}
    for name in model_names:
        try:
            model = simulate.error_model(name)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        print(
            f"simulate: model={model.kind} n={n} "
            f"sigma2_u={scenario.sigma2_u:g} sigma2_v={scenario.sigma2_v:g} "
            f"replicates={replicates} family={cfg.family} "
            f"b1={cfg.b1} b2={cfg.b2} c={cfg.c} double={double} jobs={jobs}",
            file=sys.stderr,
        )
        result = simulate.run_study(
            scenario,
            model,
            cfg,
            replicates,
            double=double,
            jobs=jobs,
            progress=_progress(sys.stderr),
        )
        summaries.append(_summary_dict(result))
        if args.out:
            suffix = f"_{model.kind}" if all_models else ""
            records[Path(f"{args.out}{suffix}_records.csv")] = _records_csv(result)

    payload = summaries[0] if not all_models else {s["model"]: s for s in summaries}
    # serialise first: a non-finite summary must leave no file behind
    summary_json = _json_dump(payload) if args.out or not table else None
    if args.out:
        for path, text in records.items():
            _write_text(path, text)
        _write_text(Path(args.out + "_summary.json"), summary_json)
        print(f"wrote {args.out}_summary.json", file=sys.stderr)
    if table:
        sys.stdout.write(_render_table(summaries))
    elif not args.out:
        sys.stdout.write(summary_json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def cmd_dist(args) -> int:
    if args.count < 2:  # the MC standard error needs two draws
        raise UsageError(f"--count must be at least 2 (got {args.count})")
    seed = resolve_seed(args.seed)
    family = args.family.replace("-", "_")
    if family not in mmdist.FAMILIES:
        raise UsageError(
            f"family must be one of {', '.join(mmdist.FAMILIES)} (got {args.family})"
        )
    try:
        if family == mmdist.THREE_POINT:
            dist = mmdist.make_three_point(args.z2, args.z4)
        else:
            dist = mmdist.make_student_t(args.z2, args.z4)
    except DataError as exc:
        raise UsageError(str(exc)) from None

    out = [f"family: {dist.family}", f"z2: {_fmt(dist.z2)}", f"z4: {_fmt(dist.z4)}"]
    if dist.family == mmdist.THREE_POINT:
        p, atom = dist.params["p"], dist.params["atom"]
        out.append(f"p: {_fmt(p)}")
        out.append(
            f"atoms: 0 (prob {_fmt(1 - p)}), +/-{_fmt(atom)} (prob {_fmt(p / 2)} each)"
        )
    else:
        out.append(f"df: {_fmt(dist.params['df'])}")
        out.append(f"scale: {_fmt(dist.params['scale'])}")

    rng = np.random.default_rng(seed)
    draws = mmdist.sample(dist, rng, args.count)
    out.append(f"empirical moments of {args.count} draws (value +/- MC s.e.):")
    for label, power in (("mean", 1), ("variance", 2), ("fourth moment", 4)):
        vals = draws**power
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(args.count))
        out.append(f"  {label}: {est:.6f} +/- {se:.6f}")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common_bootstrap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b1", type=int, help="level-one bootstrap replicates")
    p.add_argument("--b2", type=int, help="double-bootstrap outer replicates")
    p.add_argument("--c", type=int, help="inner replicates per outer world")
    p.add_argument(
        "--family",
        choices=list(mmdist.FAMILIES),
        help="moment-matching family (default three_point)",
    )
    p.add_argument("--g", choices=["arctan", "clipped"], help="robust-correction g")
    p.add_argument("--c-clip", dest="c_clip", type=float, help="clip constant for g")
    p.add_argument("--ridge-b1", dest="ridge_b1", type=float, help="ridge B1 (> 0)")
    p.add_argument("--ridge-b2", dest="ridge_b2", type=float, help="ridge B2 (>= 2)")
    p.add_argument("--seed", type=int, help="master seed (64-bit unsigned)")
    p.add_argument("--config", help="flat key = value config file; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nerboot",
        description=(
            "Moment-matching double-bootstrap MSPE estimation for EBLUPs in "
            "nested-error regression models"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a CSV dataset and estimate MSPEs")
    p_fit.add_argument("input", help="CSV with header cluster,y[,s],x1,...,xr")
    p_fit.add_argument("--out", help="output path prefix (writes .json and .csv)")
    p_fit.add_argument(
        "--jobs",
        type=int,
        help="accepted for interface symmetry; the fit pipeline is single-process",
    )
    _add_common_bootstrap_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo study harness")
    p_sim.add_argument("--model", help="error model m1..m8")
    p_sim.add_argument(
        "--all-models",
        dest="all_models",
        action="store_const",
        const=True,
        help="run every model m1..m8",
    )
    p_sim.add_argument("--n", type=int, help="number of clusters (default 60)")
    p_sim.add_argument("--ratio", type=float, help="sigma_U^2/sigma_V^2, in {0.5,1,2}")
    p_sim.add_argument("--sigma-u", dest="sigma_u", type=float, help="sigma_U^2")
    p_sim.add_argument("--sigma-v", dest="sigma_v", type=float, help="sigma_V^2")
    p_sim.add_argument("--replicates", type=int, help="study replicates (default 200)")
    p_sim.add_argument("--jobs", type=int, help="parallel workers (default: cores)")
    p_sim.add_argument(
        "--single-only",
        dest="single_only",
        action="store_const",
        const=True,
        help="skip the double bootstrap (naive + level-one estimates only)",
    )
    p_sim.add_argument("--out", help="output path prefix for records/summary files")
    p_sim.add_argument(
        "--table",
        action="store_const",
        const=True,
        help="print a text table (median line, mean line per model)",
    )
    _add_common_bootstrap_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_dist = sub.add_parser("dist", help="inspect a moment-matching distribution")
    p_dist.add_argument("family", help="three-point | student-t")
    p_dist.add_argument("z2", type=float, help="target variance")
    p_dist.add_argument("z4", type=float, help="target fourth moment")
    p_dist.add_argument("--count", type=int, default=100000, help="number of draws")
    p_dist.add_argument("--seed", type=int, help="sampler seed")
    p_dist.set_defaults(func=cmd_dist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
