"""Command-line interface.

Three subcommands: ``fit`` runs the full MSPE pipeline on a CSV dataset,
``simulate`` runs the Monte Carlo study harness, ``dist`` inspects the
moment-matching samplers.  Data go to stdout or files; progress and
diagnostics go to stderr.  Exit codes: 0 success, 2 usage/validation,
3 data error, 4 numerical failure.

All randomness flows from ``--seed``; when omitted, a seed is drawn from
system entropy, once every other argument has been checked, and printed so
the run can be reproduced.  Every option of
``fit`` and ``simulate`` may also be set in a flat ``key = value`` config
file (``--config``); its values become the options' defaults, so flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import mmdist, simulate
from .errors import DataError, NumericalError
from .model import Dataset, read_csv_dataset
from .mspe import BootstrapConfig, DoubleBootstrapResult, mspe_report
from .pipeline import WorldFits, usable_cpus
from .streams import draw_master_seed, substream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

STANDARD_RATIOS = (0.5, 1.0, 2.0)
_DEFAULT = " (default %(default)s)"  # help suffix


class UsageError(Exception):
    """Validation failure mapped to exit code 2."""


# ---------------------------------------------------------------------------
# config file
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


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _config_defaults(sub: argparse.ArgumentParser, args) -> dict:
    """The keys of the ``--config`` file, each cast as its flag casts its
    argument; a switch (a flag that takes none) reads a boolean."""
    options = {action.dest: action for action in sub._actions if action.option_strings}
    config = read_config_file(args.config)
    unknown = sorted(config.keys() - (options.keys() - {"help", "config"}))
    if unknown:
        keys = ", ".join(unknown)
        raise UsageError(f"unknown config key for {args.command}: {keys}")
    values = {}
    for key, text in config.items():
        action = options[key]
        cast = _parse_bool if action.nargs == 0 else action.type or str
        try:
            values[key] = cast(text)
        except ValueError as exc:
            raise UsageError(f"config key {key}: {exc}") from None
    return values


def resolve_seed(seed) -> int:
    """``seed``, or a fresh one printed to stderr when none is given."""
    if seed is None:
        seed = draw_master_seed()
        print(f"seed: {seed}", file=sys.stderr)
    return seed


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
        msg = f"cannot write non-finite values as JSON ({exc})"
        raise NumericalError(msg) from None


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


def _report_json(table: dict, fit, res, cfg: BootstrapConfig) -> dict:
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
            "seed": cfg.master_seed,
        },
        "clusters": [dict(zip(table, row)) for row in zip(*table.values())],
    }


def _report_csv(table: dict) -> str:
    lines = [",".join(table)]
    for cluster, n_i, *values in zip(*table.values()):
        lines.append(",".join([cluster, str(n_i), *map(_fmt, values)]))
    return "\n".join(lines) + "\n"


def _bootstrap_config(args) -> BootstrapConfig:
    """The bootstrap settings, each checked before the seed is resolved, so a
    usage error draws no seed; a given seed is checked last."""
    try:
        cfg = BootstrapConfig(
            b1=args.b1, b2=args.b2, c=args.c, family=args.family, g_kind=args.g,
            c_clip=args.c_clip, ridge=(args.ridge_b1, args.ridge_b2),
        )
        return replace(cfg, master_seed=resolve_seed(args.seed))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_fit(args) -> int:
    cfg = _bootstrap_config(args)
    dataset = read_csv_dataset(args.input)
    print(
        f"fit: {dataset.n} clusters, {dataset.total} observations, r={dataset.r}",
        file=sys.stderr,
    )
    fit, res = mspe_report(dataset, cfg)
    table = _cluster_table(dataset, fit, res)
    payload = _json_dump(_report_json(table, fit, res, cfg))
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
            row = ",".join(map(_fmt, result.records[rep, i]))
            lines.append(f"{rep + 1},{i + 1},{row}")
    return "\n".join(lines) + "\n"


def _headline(est: dict) -> dict:
    """The estimator a summary leads with: robust, or boot when single-only."""
    return est["robust" if "robust" in est else "boot"]


def _summary_dict(result: simulate.StudyResult) -> dict:
    scalars = [
        f.name for f in fields(simulate.EstimatorMetrics) if f.name not in ("rb", "cv")
    ]
    est = {
        name: {key: getattr(m, key) for key in scalars}
        for name, m in result.metrics.items()
    }
    return {
        "model": result.model.kind,
        "family": result.family,
        "n": result.scenario.n,
        "n_i": simulate.N_I,
        "sigma2_u": result.scenario.sigma2_u,
        "sigma2_v": result.scenario.sigma2_v,
        "replicates": result.replicates,
        "double_bootstrap": result.double,
        "smse_mean": float(np.mean(result.smse)),
        "rb_median": _headline(est)["rb_median"],
        "cv_median": _headline(est)["cv_median"],
        "rbn_median": est["naive"]["rb_median"],
        "estimators": est,
    }


def _render_table(summaries: list[dict]) -> str:
    lines = ["model    RB       CV       RBN", "-" * 34]
    for s in summaries:
        head, naive = _headline(s["estimators"]), s["estimators"]["naive"]
        lines.append(
            f"{s['model']:<6}  {s['rb_median']:7.3f}  "
            f"{s['cv_median']:7.3f}  {s['rbn_median']:7.3f}"
        )
        lines.append(
            f"{'':<6}  {head['rb_mean']:7.3f}  "
            f"{head['cv_mean']:7.3f}  {naive['rb_mean']:7.3f}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    if args.all_models and args.model:
        raise UsageError("give either --model or --all-models, not both")
    if not (args.all_models or args.model):
        raise UsageError("choose an error model with --model m1..m8 or --all-models")
    try:
        models = [
            simulate.error_model(name)
            for name in (simulate.MODEL_NAMES if args.all_models else [args.model])
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    for name, least in (("replicates", 1), ("jobs", 1)):
        value = getattr(args, name)
        if value < least:
            raise UsageError(f"{name} must be at least {least} (got {value})")
    double = not args.single_only

    sigma_u, sigma_v, ratio = args.sigma_u, args.sigma_v, args.ratio
    if sigma_u is not None or sigma_v is not None:
        if sigma_u is None or sigma_v is None:
            raise UsageError("--sigma-u and --sigma-v must be given together")
        if ratio is not None:
            raise UsageError("give either --ratio or --sigma-u/--sigma-v, not both")
    else:
        ratio = 1.0 if ratio is None else ratio
        if ratio not in STANDARD_RATIOS:
            raise UsageError(
                f"ratio must be one of {{0.5, 1, 2}} (got {ratio:g}); "
                "custom ratios need --sigma-u/--sigma-v"
            )
    try:
        if ratio is None:
            scenario = simulate.Scenario(n=args.n, sigma2_u=sigma_u, sigma2_v=sigma_v)
        else:
            scenario = simulate.Scenario.from_ratio(n=args.n, ratio=ratio)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    cfg = _bootstrap_config(args)

    summaries, records = [], {}
    for model in models:
        print(
            f"simulate: model={model.kind} n={args.n} "
            f"sigma2_u={scenario.sigma2_u:g} sigma2_v={scenario.sigma2_v:g} "
            f"replicates={args.replicates} family={cfg.family} "
            f"b1={cfg.b1} b2={cfg.b2} c={cfg.c} double={double} jobs={args.jobs}",
            file=sys.stderr,
        )
        result = simulate.run_study(
            scenario, model, cfg, args.replicates,
            double=double, jobs=args.jobs, progress=_progress(sys.stderr),
        )
        summaries.append(_summary_dict(result))
        if args.out:
            suffix = f"_{model.kind}" if args.all_models else ""
            records[Path(f"{args.out}{suffix}_records.csv")] = _records_csv(result)

    payload = {s["model"]: s for s in summaries} if args.all_models else summaries[0]
    # serialise first: a non-finite summary must leave no file behind
    summary_json = _json_dump(payload) if args.out or not args.table else None
    if args.out:
        for path, text in records.items():
            _write_text(path, text)
        _write_text(Path(args.out + "_summary.json"), summary_json)
        print(f"wrote {args.out}_summary.json", file=sys.stderr)
    if args.table:
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

    out = [f"family: {dist.family}", f"z2: {_fmt(args.z2)}", f"z4: {_fmt(args.z4)}"]
    if dist.family == mmdist.THREE_POINT:
        p, atom = dist.params["p"], dist.params["atom"]
        out.append(f"p: {_fmt(p)}")
        out.append(
            f"atoms: 0 (prob {_fmt(1 - p)}), +/-{_fmt(atom)} (prob {_fmt(p / 2)} each)"
        )
    else:
        out.append(f"df: {_fmt(dist.params['df'])}")
        out.append(f"scale: {_fmt(dist.params['scale'])}")

    try:
        rng = substream(resolve_seed(args.seed))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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

def _add_common_bootstrap_flags(p, defaults: BootstrapConfig) -> None:
    """The bootstrap flags; their defaults are the settings of ``defaults``."""
    for flag, kind, default, text in (
        ("--b1", int, defaults.b1, "level-one bootstrap replicates"),
        ("--b2", int, defaults.b2, "double-bootstrap outer replicates"),
        ("--c", int, defaults.c, "inner replicates per outer world"),
        ("--c-clip", float, defaults.c_clip, "clip constant for g"),
        ("--ridge-b1", float, defaults.ridge[0], "ridge B1, > 0"),
        ("--ridge-b2", float, defaults.ridge[1], "ridge B2, >= 2"),
    ):
        p.add_argument(flag, type=kind, default=default, help=text + _DEFAULT)
    p.add_argument(
        "--family", choices=mmdist.FAMILIES, default=defaults.family,
        help="moment-matching family" + _DEFAULT,
    )
    p.add_argument(
        "--g", choices=["arctan", "clipped"], default=defaults.g_kind,
        help="robust-correction g" + _DEFAULT,
    )
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
    _add_common_bootstrap_flags(p_fit, BootstrapConfig())
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo study harness")
    p_sim.add_argument("--model", help="error model m1..m8")
    p_sim.add_argument("--all-models", action="store_true", help="run every model")
    p_sim.add_argument("--n", type=int, default=60, help="cluster count" + _DEFAULT)
    p_sim.add_argument("--ratio", type=float, help="sigma_U^2/sigma_V^2, in {0.5,1,2}")
    p_sim.add_argument("--sigma-u", type=float, help="sigma_U^2")
    p_sim.add_argument("--sigma-v", type=float, help="sigma_V^2")
    p_sim.add_argument(
        "--replicates", type=int, default=200, help="study replicates" + _DEFAULT
    )
    p_sim.add_argument(
        "--jobs", type=int, default=usable_cpus(),
        help="parallel workers (default %(default)s, the usable CPUs)",
    )
    p_sim.add_argument(
        "--single-only", action="store_true",
        help="skip the double bootstrap (naive + level-one estimates only)",
    )
    p_sim.add_argument("--out", help="output path prefix for records/summary files")
    p_sim.add_argument(
        "--table", action="store_true",
        help="print a text table (median line, mean line per model)",
    )
    _add_common_bootstrap_flags(p_sim, BootstrapConfig.desk_scale())
    p_sim.set_defaults(func=cmd_simulate)

    p_dist = sub.add_parser("dist", help="inspect a moment-matching distribution")
    p_dist.add_argument("family", help="three-point | student-t")
    p_dist.add_argument("z2", type=float, help="target variance")
    p_dist.add_argument("z4", type=float, help="target fourth moment")
    p_dist.add_argument("--count", type=int, default=100000, help="number of draws")
    p_dist.add_argument("--seed", type=int, help="sampler seed")
    p_dist.set_defaults(func=cmd_dist)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv``.  The values of a ``--config`` file become the defaults
    of the subcommand's options and ``argv`` is parsed again, so an explicit
    flag wins over the file."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        (commands,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        sub = commands.choices[args.command]
        sub.set_defaults(**_config_defaults(sub, args))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
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
