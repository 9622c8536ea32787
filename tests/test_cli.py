import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

import nerboot.cli
from nerboot.cli import main
from nerboot.mspe import BootstrapConfig
from nerboot.pipeline import DEFAULT_RIDGE

from conftest import benchmark_dataset


def write_fixture_csv(path, n=60, seed=1):
    d = benchmark_dataset(n=n, m=3, seed=seed)
    lines = ["cluster,y,s,x1"]
    labels = np.repeat([f"area{i:02d}" for i in range(d.n)], d.sizes)
    for lab, y, s, x in zip(labels, d.y, d.s, d.x[:, 0]):
        lines.append(f"{lab},{float(y)!r},{float(s)!r},{float(x)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    return write_fixture_csv(tmp_path_factory.mktemp("data") / "bench.csv")


def _fit_args(csv_path, out, seed="11", b=("24", "6", "6")):
    return [
        "fit", str(csv_path), "--out", str(out),
        "--b1", b[0], "--b2", b[1], "--c", b[2], "--seed", seed,
    ]


def test_fit_end_to_end(fixture_csv, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(_fit_args(fixture_csv, out, b=("100", "50", "50"))) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["global"]["sigma2_v"] > 0
    assert payload["failures"] == {"single": 0, "outer": 0, "inner": 0}
    clusters = payload["clusters"]
    assert len(clusters) == 60
    assert clusters[0]["cluster"] == "area00"
    # in aggregate the corrected estimate exceeds the too-small naive plug-in
    # (per cluster the ordering is dominated by bootstrap noise)
    naive = np.array([c["naive"] for c in clusters])
    robust = np.array([c["mse_bc_robust"] for c in clusters])
    assert np.all(robust > 0.0)
    assert robust.mean() > naive.mean()

    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("cluster,n_i,eblup,rho,naive")
    assert len(csv_lines) == 61


def test_fit_deterministic_across_runs_and_jobs(fixture_csv, tmp_path):
    # fit is single-process and takes no --jobs (see test_fit_has_no_jobs_flag)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_fit_args(fixture_csv, out_a)) == 0
    assert main(_fit_args(fixture_csv, out_b)) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


SNAPSHOTS = Path(__file__).parent / "data"


def _assert_same_tree(got, want, where="$"):
    """Same JSON structure and keys; numbers equal to rtol 1e-12."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_same_tree(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_tree(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("family", ["three_point", "student_t"])
def test_fit_report_matches_stored_snapshot(fixture_csv, tmp_path, family):
    # tests/data/fit_report_<family>.{json,csv}: the `fit` report of the
    # fixture dataset at these sizes and seed, stored when it was last
    # verified; a refactor must reproduce it
    out = tmp_path / "report"
    assert main(_fit_args(fixture_csv, out, seed="7") + ["--family", family]) == 0
    stored = SNAPSHOTS / f"fit_report_{family}"
    _assert_same_tree(
        json.loads((tmp_path / "report.json").read_text()),
        json.loads(stored.with_suffix(".json").read_text()),
    )
    got = (tmp_path / "report.csv").read_text().splitlines()
    want = stored.with_suffix(".csv").read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        g, w = got_row.split(","), want_row.split(",")
        assert g[:2] == w[:2] and len(g) == len(w)
        for gv, wv in zip(g[2:], w[2:]):
            assert math.isclose(float(gv), float(wv), rel_tol=1e-12), (g[0], wv)


def test_fit_missing_file_exit_code(capsys):
    assert main(["fit", "no_such_file.csv", "--seed", "1"]) == 3
    assert "no_such_file.csv" in capsys.readouterr().err


def test_fit_singleton_cluster_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("cluster,y,x1\nlonely,1.0,0.5\npair,1.0,0.5\npair,2.0,0.7\n")
    code = main(["fit", str(bad), "--seed", "1"])
    assert code == 3
    assert "lonely" in capsys.readouterr().err


def test_fit_non_finite_estimate_is_numerical_failure(
    fixture_csv, tmp_path, capsys, monkeypatch
):
    # a NaN estimate must not reach report.json as an invalid NaN token
    real = nerboot.cli.mspe_report

    def with_nan(d, cfg):
        fit, res = real(d, cfg)
        res.mse_boot[3] = np.nan
        return fit, res

    monkeypatch.setattr("nerboot.cli.mspe_report", with_nan)
    out = tmp_path / "report"
    assert main(_fit_args(fixture_csv, out)) == 4
    assert "non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_fit_missing_seed_prints_one(fixture_csv, tmp_path, capsys):
    out = tmp_path / "r"
    assert main([
        "fit", str(fixture_csv), "--out", str(out),
        "--b1", "2", "--b2", "1", "--c", "1",
    ]) == 0
    assert "seed:" in capsys.readouterr().err


def test_dist_three_point(capsys):
    assert main(["dist", "three-point", "1", "3", "--count", "20000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "p: 0.3333333333333333" in out
    assert "1.7320508" in out
    assert "fourth moment" in out


def test_dist_student_t(capsys):
    assert main(["dist", "student-t", "1", "6", "--count", "20000", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "df: 6" in out
    assert "0.816496" in out


def test_dist_infeasible_moments(capsys):
    assert main(["dist", "three-point", "1", "0.5", "--seed", "3"]) == 2
    assert main(["dist", "student-t", "1", "3", "--seed", "3"]) == 2
    assert main(["dist", "pearson", "1", "3", "--seed", "3"]) == 2
    assert main(["dist", "three-point", "nan", "3", "--seed", "3"]) == 2
    assert main(["dist", "student-t", "1", "inf", "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err and "nan" not in captured.out


@pytest.mark.parametrize(
    "bad", [["--ridge-b1", "0"], ["--ridge-b2", "1.5"], ["--ridge-b1", "nan"], "config"]
)
def test_fit_invalid_ridge_is_usage_error(fixture_csv, tmp_path, capsys, bad):
    if bad == "config":
        conf = tmp_path / "ridge.conf"
        conf.write_text("ridge_b2 = 1.5\n")
        bad = ["--config", str(conf)]
    assert main(["fit", str(fixture_csv), "--seed", "1", *bad]) == 2
    err = capsys.readouterr().err
    assert "B1 > 0 and B2 >= 2" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "m1", "--replicates", "0", "--seed", "1"],
        ["dist", "three-point", "1", "3", "--count", "-1", "--seed", "1"],
        ["dist", "three-point", "1", "3", "--count", "0", "--seed", "1"],
        ["dist", "student-t", "1", "6", "--count", "1", "--seed", "1"],
        ["simulate", "--model", "m1", "--n", "0", "--seed", "1"],
        ["simulate", "--model", "m1", "--n", "1", "--seed", "1"],
        ["simulate", "--model", "m1", "--jobs", "0", "--seed", "1"],
        ["simulate", "--model", "m1", "--jobs", "-2", "--seed", "1"],
        # without --seed: rejected before a seed is drawn
        ["simulate", "--model", "m1", "--n", "0"],
        ["dist", "three-point", "1", "3", "--count", "1"],
    ],
)
def test_bad_counts_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "at least" in captured.err
    assert "seed:" not in captured.err
    assert "simulate: model" not in captured.err  # rejected before the banner
    assert "nan" not in captured.out


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["simulate", "--model", "m9"], "", "unknown error model 'm9'"),
        (["dist", "gaussian", "1", "3"], "", "family must be one of"),
        (["dist", "three-point", "nan", "3"], "", "must be finite"),
        (["dist", "student-t", "1", "3"], "", "requires z4/z2^2 > 3"),
        (
            ["simulate", "--model", "m1", "--sigma-u", "-1", "--sigma-v", "1"],
            "",
            "must be finite and >= 0",
        ),
        (["simulate", "--model", "m1", "--b1", "0"], "", "must all be >= 1"),
        (["simulate", "--model", "m1", "--all-models"], "", "not both"),
        (["simulate", "--model", "m1"], "all_models = true\n", "not both"),
        (["simulate", "--all-models"], "model = m1\n", "not both"),
    ],
)
def test_usage_errors_draw_no_seed(argv, config, message, tmp_path, capsys):
    if config:
        (tmp_path / "run.conf").write_text(config)
        argv = argv + ["--config", str(tmp_path / "run.conf")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert "seed:" not in err and "simulate: model" not in err


def test_bad_jobs_from_config_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("jobs = 0\n")
    argv = ["simulate", "--model", "m1", "--seed", "1", "--config", str(conf)]
    assert main(argv) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "three-point", "1", "3", "--count", "5"],
        ["simulate", "--model", "m1", "--replicates", "1"],
        ["fit", "no_such_file.csv"],
    ],
)
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_is_usage_error(argv, seed, capsys):
    assert main([*argv, "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert "seed must be in [0, 2^64)" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "sigmas, config",
    [
        (["--sigma-u", "-1", "--sigma-v", "1"], ""),
        (["--sigma-u", "1", "--sigma-v", "-0.5"], ""),
        (["--sigma-u", "nan", "--sigma-v", "1"], ""),
        ([], "sigma_u = 1\nsigma_v = -1\n"),
    ],
)
def test_negative_variances_are_usage_errors(sigmas, config, tmp_path, capsys):
    argv = [
        "simulate", "--model", "m1", "--replicates", "2", "--n", "5",
        "--b1", "2", "--b2", "1", "--c", "1", "--seed", "1", "--jobs", "1",
        "--out", str(tmp_path / "run"), *sigmas,
    ]
    if config:
        (tmp_path / "run.conf").write_text(config)
        argv += ["--config", str(tmp_path / "run.conf")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be finite and >= 0" in err and "Traceback" not in err
    assert "simulate:" not in err  # rejected before any model runs
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize(
    "flags, config, message",
    [
        ([], "family = bogus\n", "family must be one of three_point, student_t"),
        (["--g", "clipped", "--c-clip", "nan"], "", "c_clip must be finite"),
    ],
)
def test_bad_family_or_c_clip_is_usage_error(
    fixture_csv, tmp_path, capsys, flags, config, message
):
    argv = _fit_args(fixture_csv, tmp_path / "report", b=("2", "1", "1")) + flags
    if config:
        (tmp_path / "opts.conf").write_text(config)
        argv += ["--config", str(tmp_path / "opts.conf")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["fit", "DATA"], "b_1"),
        (["fit", "DATA"], "model"),  # an option of simulate only
        (["simulate", "--model", "m1", "--n", "5"], "input"),  # of fit only
        (["fit", "DATA"], "jobs"),  # fit is single-process
    ],
)
def test_unknown_config_key_is_usage_error(fixture_csv, tmp_path, capsys, argv, key):
    (tmp_path / "opts.conf").write_text(f"{key} = 3\n")
    argv = [str(fixture_csv) if a == "DATA" else a for a in argv] + [
        "--b1", "2", "--b2", "1", "--c", "1", "--seed", "1",
        "--out", str(tmp_path / "run"), "--config", str(tmp_path / "opts.conf"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"unknown config key for {argv[0]}: {key}" in err
    assert not list(tmp_path.glob("run*"))


def test_fit_has_no_jobs_flag(fixture_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_fit_args(fixture_csv, tmp_path / "report") + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_bootstrap_defaults_come_from_bootstrap_config():
    parser = nerboot.cli.build_parser()
    fit_args = parser.parse_args(["fit", "data.csv", "--seed", "5"])
    sim_args = parser.parse_args(["simulate", "--seed", "5"])
    cfg = nerboot.cli._bootstrap_config(fit_args)
    assert cfg == BootstrapConfig(master_seed=5)
    cfg = nerboot.cli._bootstrap_config(sim_args)
    assert cfg == BootstrapConfig.desk_scale(5)
    # an unset ridge component keeps its default
    ridge_args = parser.parse_args(["simulate", "--ridge-b2", "3", "--seed", "5"])
    cfg = nerboot.cli._bootstrap_config(ridge_args)
    assert cfg.ridge == (DEFAULT_RIDGE[0], 3.0)


def test_simulate_summary_fields(tmp_path, capsys):
    args = [
        "simulate", "--model", "m1", "--n", "8", "--ratio", "1",
        "--replicates", "6", "--b1", "3", "--b2", "2", "--c", "2",
        "--seed", "5", "--jobs", "1",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("rb_median", "cv_median", "rbn_median"):
        assert key in payload
    assert payload["model"] == "m1"
    assert "robust" in payload["estimators"]


def test_simulate_invalid_ratio_usage_error(capsys):
    code = main(["simulate", "--model", "m1", "--ratio", "3", "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "0.5, 1, 2" in err
    assert "--sigma-u" in err


def test_simulate_custom_sigmas(tmp_path, capsys):
    args = [
        "simulate", "--model", "m2", "--n", "8", "--sigma-u", "0.3",
        "--sigma-v", "1.0", "--replicates", "4", "--b1", "2", "--single-only",
        "--seed", "6", "--jobs", "1",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma2_u"] == 0.3
    assert payload["double_bootstrap"] is False


def test_simulate_writes_records_and_summary(tmp_path):
    out = tmp_path / "study"
    args = [
        "simulate", "--model", "m1", "--n", "8", "--ratio", "1",
        "--replicates", "5", "--b1", "2", "--single-only",
        "--seed", "7", "--jobs", "1", "--out", str(out),
    ]
    assert main(args) == 0
    records = (tmp_path / "study_records.csv").read_text().splitlines()
    assert records[0] == (
        "replicate,cluster,theta_true,theta_hat,naive,mse_boot,mse_double,"
        "mse_bc_robust"
    )
    assert len(records) == 1 + 5 * 8
    # single-only runs leave the double-bootstrap columns empty
    assert records[1].endswith(",,")
    summary = json.loads((tmp_path / "study_summary.json").read_text())
    assert summary["replicates"] == 5


def test_simulate_non_finite_summary_writes_nothing(tmp_path, capsys, monkeypatch):
    # the records files must not be left behind when the summary fails
    real = nerboot.cli._summary_dict

    def with_nan(result):
        summary = real(result)
        summary["smse_mean"] = float("nan")
        return summary

    monkeypatch.setattr("nerboot.cli._summary_dict", with_nan)
    out = tmp_path / "study"
    args = [
        "simulate", "--model", "m1", "--n", "8", "--ratio", "1",
        "--replicates", "3", "--b1", "2", "--single-only",
        "--seed", "7", "--jobs", "1", "--out", str(out),
    ]
    assert main(args) == 4
    assert "non-finite values" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_all_models_table(tmp_path, capsys):
    args = [
        "simulate", "--all-models", "--n", "8", "--ratio", "1",
        "--replicates", "3", "--b1", "2", "--single-only",
        "--seed", "8", "--jobs", "1", "--table", "--out", str(tmp_path / "all"),
    ]
    assert main(args) == 0
    table_rows = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    # header + rule + two lines (medians, means) per model
    assert len(table_rows) == 2 + 2 * 8
    assert table_rows[0].startswith("model")
    assert table_rows[2].startswith("m1")

    payload = json.loads((tmp_path / "all_summary.json").read_text())
    assert set(payload) == {f"m{k}" for k in range(1, 9)}
    # per-model records files exist alongside the summary
    assert (tmp_path / "all_m3_records.csv").exists()


def test_config_file_merging(fixture_csv, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# study defaults\nb1 = 2\nb2 = 1\nc = 1\nseed = 42\n")
    out = tmp_path / "viaconf"
    assert main(["fit", str(fixture_csv), "--out", str(out), "--config", str(conf)]) == 0
    payload = json.loads((tmp_path / "viaconf.json").read_text())
    assert payload["config"]["b1"] == 2
    assert payload["config"]["seed"] == 42

    # explicit flag wins over the file
    out2 = tmp_path / "flagwins"
    assert main([
        "fit", str(fixture_csv), "--out", str(out2),
        "--config", str(conf), "--b1", "3",
    ]) == 0
    payload2 = json.loads((tmp_path / "flagwins.json").read_text())
    assert payload2["config"]["b1"] == 3


def test_out_in_config_file_writes_the_files(fixture_csv, tmp_path, capsys):
    runs = {
        "fit": (["fit", str(fixture_csv)], ["fit.json", "fit.csv"]),
        "sim": (
            ["simulate", "--model", "m1", "--n", "5", "--replicates", "2",
             "--jobs", "1"],
            ["sim_records.csv", "sim_summary.json"],
        ),
    }
    for name, (argv, files) in runs.items():
        conf = tmp_path / f"{name}.conf"
        conf.write_text(f"out = {tmp_path / name}\nb1 = 2\nb2 = 1\nc = 1\nseed = 3\n")
        assert main([*argv, "--config", str(conf)]) == 0
        assert capsys.readouterr().out == ""
        for file in files:
            assert (tmp_path / file).stat().st_size > 0


# sample argument text for every option of fit and simulate: a value for the
# flag and a different one for the config file; None marks a switch
OPTION_SAMPLES = {
    "out": ("flagout", "fileout"),
    "jobs": ("3", "4"),
    "b1": ("7", "8"),
    "b2": ("5", "6"),
    "c": ("3", "2"),
    "family": ("student_t", "three_point"),
    "g": ("clipped", "arctan"),
    "c_clip": ("0.5", "2.5"),
    "ridge_b1": ("0.25", "0.5"),
    "ridge_b2": ("3", "4.5"),
    "seed": ("11", "12"),
    "model": ("m3", "m5"),
    "all_models": None,
    "n": ("9", "10"),
    "ratio": ("0.5", "2"),
    "sigma_u": ("0.3", "0.7"),
    "sigma_v": ("1.5", "0.2"),
    "replicates": ("5", "6"),
    "single_only": None,
    "table": None,
}
BASE_ARGV = {"fit": ["fit", "data.csv"], "simulate": ["simulate"]}


@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_every_option_reads_from_the_config_file(tmp_path, command):
    parser = nerboot.cli.build_parser()
    (commands,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = [
        (action.dest, action.option_strings[-1])
        for action in commands.choices[command]._actions
        if action.option_strings and action.dest not in ("help", "config")
    ]
    # a new option without a sample fails here
    assert {dest for dest, _ in options} <= OPTION_SAMPLES.keys()
    conf = tmp_path / "opts.conf"

    def parsed(dest, argv, file_text=None):
        if file_text is not None:
            conf.write_text(f"{dest} = {file_text}\n")
            argv = [*argv, "--config", str(conf)]
        return getattr(nerboot.cli.parse_args([*BASE_ARGV[command], *argv]), dest)

    for dest, flag in options:
        flag_text, file_text = OPTION_SAMPLES[dest] or (None, "false")
        flag_argv = [flag] if flag_text is None else [flag, flag_text]
        from_flag = parsed(dest, flag_argv)
        from_file = parsed(dest, [], flag_text or "true")
        assert from_file == from_flag and type(from_file) is type(from_flag), dest
        # an explicit flag wins over the file
        from_both = parsed(dest, flag_argv, file_text)
        assert from_both == from_flag != parsed(dest, [], file_text), dest
