"""nerboot benchmark: workloads, output check, timing and traced breakdown.

Imported by ``run.py``, which pins the BLAS thread count before numpy loads
and puts the checkout's ``src`` first on ``sys.path``.  See NOTES.md for why
each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import nerboot
from nerboot import cli, mmdist, model, moments, mspe, simulate, streams
from nerboot.mspe import BootstrapConfig

from tracer import Tracer

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "refs"
REF_COUNT = 16       # stored input sets; seed s runs input set s % REF_COUNT
RTOL = 1e-9          # catches a changed random stream, accepts reordered sums
SETUP_PROBES = 9     # fresh processes whose median set-up time is reported
STUDY_REPLICATES = 8
STUDY_JOBS = 2

# public functions timed by the traced run, as <module>.<function>
TARGETS = (
    "model.summarize",
    "model.read_csv_dataset",
    "transform.center",
    "transform.uncenter",
    "variance.estimate_sigma2_v",
    "variance.estimate_sigma2_u",
    "gls.fit_fixed_effects",
    "predictor.eblup",
    "moments.estimate_fourth_moments",
    "mmdist.sample",
    "mmdist.make_distribution",
    "streams.substream",
    "pipeline.fit_model",
    "mspe.mse_single",
    "mspe.mse_double",
    "mspe.mspe_report",
    "simulate.draw_error",
    "simulate.run_study",
    "cli.main",
)
LEVELS = ("single", "outer", "inner")

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_s_p50": "s",
    "worlds_per_s": "1/s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"{t}.{stat}": unit for t in TARGETS
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("self_share", "share"))},
    **{f"mspe.worlds_{kind}.{level}": "count" for kind in ("attempted", "failed")
       for level in LEVELS},
    "variance.sigma2_u_truncated_share": "share",
    "moments.gamma_u_floored_share": "share",
    "moments.gamma_v_floored_share": "share",
    "mmdist.t_fallback_share": "share",
    "warnings.count": "count",
    "simulate.parallel_efficiency": "ratio",
    "trace.overhead_share": "share",
    "trace.self_sum_share": "share",
    "failed_share": "share",
}


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def mismatch(actual, expected) -> np.ndarray:
    """Boolean mask of entries farther than RTOL (relative) from the reference.

    Entries near zero get an absolute floor of RTOL * 1e-3 times the largest
    reference magnitude.  NaN never matches; a shape change fails every entry.
    """
    expected = np.asarray(expected, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if actual.shape != expected.shape:
        return np.ones(expected.shape, dtype=bool)
    floor = RTOL * 1e-3 * float(np.max(np.abs(expected), initial=0.0))
    return ~(np.abs(actual - expected) <= RTOL * np.abs(expected) + floor)


def wrong_units(outputs, reference, robust, n_units) -> np.ndarray:
    """Per-unit verdict: any output off its reference, or a robust MSPE
    estimate that is not finite and positive.  Units are the leading axis."""
    wrong = np.zeros(n_units, dtype=bool)
    for key, expected in reference.items():
        if key not in outputs:
            return np.ones(n_units, dtype=bool)
        wrong |= mismatch(outputs[key], expected).reshape(n_units, -1).any(axis=1)
    robust = np.asarray(robust, dtype=np.float64).reshape(n_units, -1)
    wrong |= ~(np.isfinite(robust) & (robust > 0)).all(axis=1)
    return wrong


def load_reference(name: str, k: int) -> dict:
    prefix = f"k{k:02d}_"
    with np.load(REF_DIR / f"{name}.npz") as z:
        return {key[len(prefix):]: z[key] for key in z.files if key.startswith(prefix)}


@dataclass
class Tally:
    attempted: int = 0    # operations: worlds, or study replicates
    failed: int = 0
    worlds_done: int = 0
    reports_done: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.worlds_done += other.worlds_done
        self.reports_done += other.reports_done


def worlds_per_report(cfg: BootstrapConfig) -> int:
    """The original fit plus every level-one, outer and inner refit."""
    return 1 + cfg.b1 + cfg.b2 + cfg.b2 * cfg.c


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class FitRagged600T:
    """``nerboot fit`` on a CSV, one mspe_report per call; an operation is a world."""

    name = "fit-ragged600-t"
    has_pool = False

    def setup(self, k: int, workdir: Path) -> None:
        rng = np.random.default_rng([2, k])
        n = 600
        sizes = rng.integers(2, 13, size=n)
        total = int(sizes.sum())
        x = rng.uniform(0.5, 1.0, size=(total, 3))
        s = rng.uniform(0.5, 2.0, size=total)
        u = simulate.draw_error("chi2_5", 1.0, rng, n)
        v = simulate.draw_error("t6", 1.0, rng, total)
        y = x.sum(axis=1) + np.repeat(u, sizes) + s * v
        labels = np.repeat(np.arange(n), sizes)
        lines = ["cluster,y,s,x1,x2,x3"]
        for lab, yv, sv, xr in zip(labels, y, s, x):
            lines.append(
                f"c{lab},{float(yv)!r},{float(sv)!r},"
                + ",".join(repr(float(xv)) for xv in xr)
            )
        csv_path = workdir / "ragged600.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        self.json_path = workdir / "report.json"
        self.cfg = BootstrapConfig.desk_scale(
            master_seed=int(rng.integers(2**63)), family=mmdist.STUDENT_T
        )
        self.argv = [
            "fit", str(csv_path), "--out", str(workdir / "report"),
            "--b1", str(self.cfg.b1), "--b2", str(self.cfg.b2), "--c", str(self.cfg.c),
            "--family", self.cfg.family, "--seed", str(self.cfg.master_seed),
        ]
        # the CLI rebuilds its design cache on every call; this warms the rest
        nerboot.fit_model(model.read_csv_dataset(csv_path), self.cfg.ridge)

    def call(self, serial: bool):
        self.json_path.unlink(missing_ok=True)
        return cli.main(self.argv)

    def outputs(self, exit_code):
        if exit_code != 0:
            return None, None
        payload = json.loads(self.json_path.read_text())
        clusters = payload["clusters"]
        arrays = {
            key: np.array([c[key] for c in clusters])
            for key in ("mse_boot", "mse_double", "mse_bc_robust")
        }
        return arrays, payload["failures"]

    def judge(self, result, reference) -> Tally:
        worlds = worlds_per_report(self.cfg)
        outputs, failures = (None, None) if result is None else self.outputs(result)
        if outputs is None or wrong_units(
            outputs, reference, outputs["mse_bc_robust"], 1
        )[0]:
            return Tally(attempted=worlds, failed=worlds)
        failed = sum(failures.values())
        return Tally(worlds, failed, worlds - failed, 1)


class StudyM3Jobs2:
    """One run_study cell per call; an operation is a study replicate."""

    name = "study-m3-jobs2"
    has_pool = True

    def setup(self, k: int, workdir: Path) -> None:
        rng = np.random.default_rng([3, k])
        self.scenario = simulate.Scenario.from_ratio(60, 0.5)
        self.law = simulate.error_model("m3")
        self.cfg = BootstrapConfig.desk_scale(master_seed=int(rng.integers(2**63)))
        design = simulate.make_design(
            self.scenario, streams.substream(self.cfg.master_seed, streams.DESIGN)
        )
        nerboot.fit_model(design, self.cfg.ridge)  # first design-cache build

    def call(self, serial: bool):
        return simulate.run_study(
            self.scenario,
            self.law,
            self.cfg,
            STUDY_REPLICATES,
            jobs=1 if serial else STUDY_JOBS,
        )

    def outputs(self, result):
        return {"records": result.records}, None

    def judge(self, result, reference) -> Tally:
        reps = STUDY_REPLICATES
        if result is None:
            return Tally(attempted=reps, failed=reps)
        records = result.records
        robust = records[:, :, simulate.RECORD_COLUMNS.index("mse_bc_robust")]
        failed = int(wrong_units({"records": records}, reference, robust, reps).sum())
        ok = reps - failed
        return Tally(reps, failed, ok * worlds_per_report(self.cfg), ok)


WORKLOADS = {w.name: w for w in (FitRagged600T, StudyM3Jobs2)}


# ---------------------------------------------------------------------------
# counters read from return values (traced run only)
# ---------------------------------------------------------------------------

def _argument_reader(func, param):
    """Reads one argument of a call to ``func``, however it was passed."""
    params = list(inspect.signature(func).parameters.values())
    index = [p.name for p in params].index(param)
    default = params[index].default

    def read(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(param, default)

    return read


def counter_hooks(counts: Counter) -> dict:
    """Tracer hooks that fill ``counts`` from arguments and return values.

    A hook is only built for a function that still exists.
    """
    hooks = {}

    def sigma2_u(args, kwargs, result):
        counts["sigma2_u_truncated"] += result[0] == 0.0

    hooks["variance.estimate_sigma2_u"] = sigma2_u

    if hasattr(moments, "estimate_fourth_moments"):
        read_u = _argument_reader(moments.estimate_fourth_moments, "sigma2_u")
        read_v = _argument_reader(moments.estimate_fourth_moments, "sigma2_v")

        def fourth_moments(args, kwargs, result):
            counts["gamma_u_floored"] += result.gamma_u == read_u(args, kwargs) ** 2
            counts["gamma_v_floored"] += result.gamma_v == read_v(args, kwargs) ** 2

        hooks["moments.estimate_fourth_moments"] = fourth_moments

    if hasattr(mmdist, "make_distribution"):
        read_family = _argument_reader(mmdist.make_distribution, "family")

        def make_distribution(args, kwargs, result):
            if read_family(args, kwargs) == mmdist.STUDENT_T:
                counts["t_requests"] += 1
                counts["t_fallbacks"] += result.family != mmdist.STUDENT_T

        hooks["mmdist.make_distribution"] = make_distribution

    if hasattr(mspe, "mse_double"):
        read_cfg = _argument_reader(mspe.mse_double, "cfg")

        def mse_double(args, kwargs, result):
            cfg = read_cfg(args, kwargs)
            scheduled = {"single": cfg.b1, "outer": cfg.b2, "inner": cfg.b2 * cfg.c}
            for level in LEVELS:
                counts[f"attempted.{level}"] += scheduled[level]
                counts[f"failed.{level}"] += result.failures[level]

        hooks["mspe.mse_double"] = mse_double
    return hooks


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Call:
    seconds: float
    result: object       # None when the call raised
    warnings: int


def timed_call(wl, serial: bool) -> Call:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = wl.call(serial)
        except Exception:
            traceback.print_exc()
            result = None
        seconds = time.perf_counter() - start
    return Call(seconds, result, len(caught))


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def measure_untraced(wl, reference, seconds: float, tally: Tally) -> dict:
    """Closed loop of top-level calls until the next one would overrun."""
    durations = []
    start = time.perf_counter()
    while True:
        call = timed_call(wl, serial=False)
        durations.append(call.seconds)
        tally.add(wl.judge(call.result, reference))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    busy = sum(durations)
    print(f"calls: {len(durations)}, seconds: {[round(d, 4) for d in durations]}",
          file=sys.stderr)
    return {
        "call_s_p50": statistics.median(durations),
        "worlds_per_s": tally.worlds_done / busy,
        "replicates_per_s": tally.reports_done / busy,
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(wl, reference, seconds: float, tally: Tally) -> dict:
    """Cycles of untraced and traced calls; the traced one runs serially.

    Deterministic counters are reported per traced call, self times as the
    mean per traced call.
    """
    counts: Counter = Counter()
    tracer = Tracer("nerboot", TARGETS, counter_hooks(counts))
    parallel, serial, traced = [], [], []
    traced_warnings = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        if wl.has_pool:
            call = timed_call(wl, serial=False)
            parallel.append(call.seconds)
            tally.add(wl.judge(call.result, reference))
        call = timed_call(wl, serial=True)
        serial.append(call.seconds)
        tally.add(wl.judge(call.result, reference))
        with tracer:
            call = timed_call(wl, serial=True)
        traced.append(call.seconds)
        traced_warnings += call.warnings
        tally.add(wl.judge(call.result, reference))
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break

    n = len(traced)
    wall = sum(traced)
    metrics = {}
    for t in TARGETS:
        metrics[f"{t}.calls"] = tracer.calls(t) / n
        metrics[f"{t}.self_s"] = tracer.self_s(t) / n
        metrics[f"{t}.self_share"] = tracer.self_s(t) / wall
    for level in LEVELS:
        metrics[f"mspe.worlds_attempted.{level}"] = counts[f"attempted.{level}"] / n
        metrics[f"mspe.worlds_failed.{level}"] = counts[f"failed.{level}"] / n
    metrics["variance.sigma2_u_truncated_share"] = _share(
        counts["sigma2_u_truncated"], tracer.calls("variance.estimate_sigma2_u")
    )
    fourth_calls = tracer.calls("moments.estimate_fourth_moments")
    metrics["moments.gamma_u_floored_share"] = _share(counts["gamma_u_floored"], fourth_calls)
    metrics["moments.gamma_v_floored_share"] = _share(counts["gamma_v_floored"], fourth_calls)
    metrics["mmdist.t_fallback_share"] = _share(counts["t_fallbacks"], counts["t_requests"])
    metrics["warnings.count"] = traced_warnings / n
    # untraced jobs=STUDY_JOBS rate over STUDY_JOBS x the untraced serial rate
    metrics["simulate.parallel_efficiency"] = (
        statistics.median(serial) / (STUDY_JOBS * statistics.median(parallel))
        if parallel
        else 0.0
    )
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(serial) - 1.0
    metrics["trace.self_sum_share"] = sum(tracer.self_s(t) for t in TARGETS) / wall
    metrics["failed_share"] = _share(tally.failed, tally.attempted)
    print(
        f"cycles: {n}, traced seconds: {[round(d, 4) for d in traced]}, "
        f"untraced serial seconds: {[round(d, 4) for d in serial]}, "
        f"untraced parallel seconds: {[round(d, 4) for d in parallel]}",
        file=sys.stderr,
    )
    return metrics


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def median_setup_seconds(run_py: Path, workload: str, seed: int) -> float:
    """Median set-up time over fresh processes: import nerboot, generate the
    inputs and build the design cache once."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_1m": os.getloadavg()[0],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, run_py: Path,
        workdir: Path) -> dict:
    """One benchmark run; returns the result object printed by run.py."""
    wl = WORKLOADS[workload]()
    k = seed % REF_COUNT
    wl.setup(k, workdir)
    reference = load_reference(workload, k)
    tally = Tally()
    if trace:
        values = measure_traced(wl, reference, seconds, tally)
        units = PER_LAYER_UNITS
    else:
        values = measure_untraced(wl, reference, seconds, tally)
        values["setup_s"] = median_setup_seconds(run_py, workload, seed)
        units = END_TO_END_UNITS
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
