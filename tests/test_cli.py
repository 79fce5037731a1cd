"""End-to-end command line runs against the library API and exit-code map."""

import json
from pathlib import Path

import numpy as np
import pytest

from panelmg import (
    DgpSpec,
    OutOfRange,
    PanelData,
    compute_ridge_kappa,
    confidence_interval,
    estimate,
    holm_adjust,
    jackknife,
    poolability_test,
    read_csv,
    run_monte_carlo,
    simulate_dgp,
)
from panelmg.cli import main
from oracles import random_panel


def write_panel_csv(path, y, x, unit_labels=None, time_labels=None):
    n, t = y.shape
    k = x.shape[2]
    units = unit_labels or [f"u{i + 1}" for i in range(n)]
    times = time_labels or [f"p{s + 1}" for s in range(t)]
    lines = ["unit,time,y," + ",".join(f"x{j + 1}" for j in range(k))]
    for i in range(n):
        for s in range(t):
            vals = ",".join(repr(float(v)) for v in x[i, s])
            lines.append(f"{units[i]},{times[s]},{float(y[i, s])!r},{vals}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def panel_csv(tmp_path):
    y, x, _ = random_panel(3, 8, 5, 2)
    return write_panel_csv(tmp_path / "panel.csv", y, x)


class TestEstimateCommand:
    def test_json_matches_library(self, panel_csv, capsys):
        assert main(["estimate", "--input", str(panel_csv)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "panelmg/1"
        assert doc["kind"] == "estimate-report"
        assert doc["n_units"] == 8
        assert doc["n_periods"] == 5
        assert doc["n_regressors"] == 2
        assert doc["level"] == 0.95

        panel = read_csv(panel_csv)
        for value in ("tw-mg", "tw-mg-ridge", "tw-pooled", "mg"):
            est = estimate(panel, value)
            jk = jackknife(panel, value, kappa=est.kappa_used)
            entry = doc["estimators"][value]
            assert entry["kappa"] == est.kappa_used
            for j, coef in enumerate(entry["coefficients"]):
                ci = confidence_interval(est, jk, coefficient=j)
                assert coef["name"] == f"x{j + 1}"
                assert coef["estimate"] == ci.point
                assert coef["std_error"] == ci.std_error
                assert coef["ci_lower"] == ci.lower
                assert coef["ci_upper"] == ci.upper
        assert doc["estimators"]["tw-mg-ridge"]["kappa"] == compute_ridge_kappa(panel)
        assert "unit_slopes" not in doc

    def test_level_flag_changes_intervals(self, panel_csv, capsys):
        assert main(["estimate", "--input", str(panel_csv), "--level", "0.9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["level"] == 0.9
        panel = read_csv(panel_csv)
        est = estimate(panel, "tw-mg")
        jk = jackknife(panel, "tw-mg")
        ci = confidence_interval(est, jk, level=0.9, coefficient=0)
        coef = doc["estimators"]["tw-mg"]["coefficients"][0]
        assert coef["ci_lower"] == ci.lower
        assert coef["ci_upper"] == ci.upper

    def test_explicit_ridge_kappa(self, panel_csv, capsys):
        code = main(
            [
                "estimate",
                "--input",
                str(panel_csv),
                "--estimators",
                "tw-mg-ridge",
                "--ridge-kappa",
                "0.5",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["estimators"]["tw-mg-ridge"]
        assert entry["kappa"] == 0.5
        panel = read_csv(panel_csv)
        est = estimate(panel, "tw-mg-ridge", kappa=0.5)
        assert entry["coefficients"][0]["estimate"] == est.beta_hat[0]

    def test_csv_format_with_unit_slopes(self, panel_csv, capsys):
        code = main(
            [
                "estimate",
                "--input",
                str(panel_csv),
                "--format",
                "csv",
                "--unit-slopes",
                "--estimators",
                "tw-mg,tw-pooled",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "estimator,unit,coefficient,estimate,std_error,ci_lower,ci_upper"
        aggregate = [l for l in lines[1:] if l.split(",")[1] == ""]
        per_unit = [l for l in lines[1:] if l.split(",")[1] != ""]
        # two methods x two coefficients, then 8 units x 2 slopes for tw-mg only
        assert len(aggregate) == 4
        assert len(per_unit) == 16
        assert all(l.startswith("tw-mg,u") for l in per_unit)
        panel = read_csv(panel_csv)
        est = estimate(panel, "tw-mg")
        first = per_unit[0].split(",")
        assert first[:3] == ["tw-mg", "u1", "x1"]
        assert float(first[3]) == est.unit_slopes[0, 0]
        assert first[4:] == ["", "", ""]

    def test_table_format(self, panel_csv, capsys):
        assert main(["estimate", "--input", str(panel_csv), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "panel: 8 units x 5 periods, 2 regressor(s)" in out
        assert "estimator" in out
        assert "ridge kappa" in out

    def test_output_flag_writes_file(self, panel_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "estimate",
                "--input",
                str(panel_csv),
                "--estimators",
                "tw-pooled",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "estimate-report"

    def test_plain_and_ridge_agree_on_moderate_panel(self, tmp_path, capsys):
        # with 18 periods and a mild data-driven shift the two mean-group
        # fits should agree to about two decimals
        rng = np.random.default_rng(20260815)
        n, t, k = 167, 18, 2
        x = (
            2.0 * rng.standard_normal((n, 1, k))
            + rng.standard_normal((1, t, k))
            + 0.7 * rng.standard_normal((n, t, k))
        )
        beta = np.array([1.2, -0.4])
        y = (
            x @ beta
            + rng.standard_normal(n)[:, None]
            + rng.standard_normal(t)[None, :]
            + 0.5 * rng.standard_normal((n, t))
        )
        path = write_panel_csv(tmp_path / "moderate.csv", y, x)
        code = main(
            ["estimate", "--input", str(path), "--estimators", "tw-mg,tw-mg-ridge"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        plain = [c["estimate"] for c in doc["estimators"]["tw-mg"]["coefficients"]]
        ridge = [c["estimate"] for c in doc["estimators"]["tw-mg-ridge"]["coefficients"]]
        assert np.abs(np.array(plain) - np.array(ridge)).max() < 0.004
        assert abs(plain[0] - 1.2) < 0.05
        assert abs(plain[1] + 0.4) < 0.05


class TestEstimateErrors:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["estimate", "--input", str(tmp_path / "absent.csv")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_header_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("unit,period,y,x1\na,1,0.0,0.0\n")
        assert main(["estimate", "--input", str(path)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_unbalanced_panel_is_data_error(self, tmp_path, capsys):
        y, x, _ = random_panel(4, 5, 4, 1)
        path = write_panel_csv(tmp_path / "panel.csv", y, x)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["estimate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert "u5" in err and "p4" in err

    def test_constant_regressor_is_estimation_error(self, tmp_path, capsys):
        y, x, _ = random_panel(5, 6, 5, 2)
        x[2, :, 0] = 5.0
        path = write_panel_csv(tmp_path / "panel.csv", y, x)
        assert main(["estimate", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert "estimation error" in err
        assert "u3" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--level", "1.5"],
            ["--estimators", "bogus"],
            ["--estimators", ""],
            ["--ridge-kappa", "-1"],
            ["--threads", "1"],  # only simulate takes --threads
            ["--ridge-kappa", "nan"],
            ["--ridge-kappa", "inf"],
        ],
    )
    def test_usage_errors(self, panel_csv, capsys, extra):
        assert main(["estimate", "--input", str(panel_csv)] + extra) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert main(["estimate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err


CLEAN_ROWS = ["unit,time,y,x1"] + [
    f"u{i},p{s},{i + s * 0.5},{i * s + 1.25}" for i in (1, 2, 3) for s in (1, 2, 3)
]


def faulty_csv(path, kind):
    """The 3x3 panel of CLEAN_ROWS with one fault; row 0 is the header."""
    rows = list(CLEAN_ROWS)
    if kind == "ragged":
        rows[4] = "u2,p1,2.5"
    elif kind == "unparseable":
        rows[2] = "u1,p2,abc,1.0"
    elif kind == "duplicate":
        rows.insert(3, "u1,p1,9.0,9.0")
    elif kind == "unbalanced":
        del rows[9]
    elif kind == "non-finite":
        rows[4] = "u2,p1,2.5,nan"
    elif kind == "not-utf8":
        rows[2] = "u1,p2,\xff,1.0"
    elif kind == "long-field":
        rows[2] = 'u1,p2,"' + "9" * 131073 + '",1.0'
    encoding = "latin-1" if kind == "not-utf8" else "utf-8"
    path.write_text("\n".join(rows) + "\n", encoding=encoding)
    return path


class TestFaultyInputBytes:
    """The stderr line and exit code of both commands on faulty CSVs."""

    @pytest.mark.parametrize("command", ["estimate", "test"])
    @pytest.mark.parametrize(
        "kind,message",
        [
            ("ragged", "record 4 has 3 fields, expected 4"),
            ("unparseable", "cannot parse value in record 2 (unit 'u1', time 'p2'): 'abc'"),
            ("duplicate", "duplicate cell for unit 'u1', time 'p1'"),
            ("unbalanced", "missing observation for unit 'u3' at time 'p3'"),
            ("non-finite", "non-finite x1 at unit 'u2', time 'p1'"),
            ("not-utf8", "{path}: not UTF-8 text (invalid start byte)"),
            ("long-field", "{path}: line 3: field larger than field limit (131072)"),
        ],
    )
    def test_stderr_and_exit_code(self, tmp_path, capsys, command, kind, message):
        path = faulty_csv(tmp_path / f"{kind}.csv", kind)
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: {message.format(path=path)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["estimate", "test"])
    @pytest.mark.parametrize("padding", [0, 3000], ids=["short", "past-first-chunk"])
    @pytest.mark.parametrize(
        "record1,message",
        [
            ("u1,p1,2.0", "record 1 has 3 fields, expected 4"),
            ("u1,p1,2.0,1.0", "{path}: not UTF-8 text (invalid start byte)"),
        ],
        ids=["earlier-record-wins", "bad-byte-first"],
    )
    def test_bad_byte_is_reported_in_record_order(
        self, tmp_path, capsys, command, padding, record1, message
    ):
        # record 3 holds 0xff; blank rows push it past the decoder's first chunk
        path = tmp_path / "late-byte.csv"
        path.write_bytes(
            f"unit,time,y,x1\n{record1}\nu1,p2,2.0,3.0\n".encode()
            + b" , \n" * padding
            + b"u1,p3,\xff,4.0\n"
        )
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: {message.format(path=path)}\n"
        assert captured.out == ""


def tiny_simulate(prefix):
    return [
        "simulate",
        "--dgp",
        "1",
        "--n",
        "6",
        "--t",
        "4",
        "--reps",
        "2",
        "--seed",
        "5",
        "--estimators",
        "tw-pooled",
        "--output-prefix",
        str(prefix),
    ]


class TestThreadsResolution:
    def test_env_variable_accepted(self, tmp_path, capsys, monkeypatch):
        assert main(tiny_simulate(tmp_path / "one")) == 0
        monkeypatch.setenv("PANELMG_THREADS", "2")
        assert main(tiny_simulate(tmp_path / "env")) == 0
        capsys.readouterr()
        assert (tmp_path / "env.json").read_bytes() == (tmp_path / "one.json").read_bytes()

    def test_env_variable_must_be_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PANELMG_THREADS", "abc")
        assert main(tiny_simulate(tmp_path / "x")) == 1
        assert "PANELMG_THREADS" in capsys.readouterr().err

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PANELMG_THREADS", "abc")
        assert main(tiny_simulate(tmp_path / "x") + ["--threads", "2"]) == 0
        capsys.readouterr()

    def test_estimate_and_test_ignore_env(self, panel_csv, capsys, monkeypatch):
        monkeypatch.setenv("PANELMG_THREADS", "abc")
        for command in ("estimate", "test"):
            assert main([command, "--input", str(panel_csv)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_help_lists_no_threads(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--input" in out
        assert "--threads" not in out


class TestTestCommand:
    def test_json_matches_library(self, panel_csv, capsys):
        assert main(["test", "--input", str(panel_csv)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "panelmg/1"
        assert doc["kind"] == "poolability-report"
        assert doc["ridge"] is False
        assert doc["kappa"] is None

        report = poolability_test(read_csv(panel_csv))
        assert doc["joint"]["statistic"] == report.joint_stat
        assert doc["joint"]["df"] == 2
        assert doc["joint"]["p_value"] == report.joint_pvalue
        raw = [t["p_value"] for t in doc["per_coefficient"]]
        holm = [t["holm_p_value"] for t in doc["per_coefficient"]]
        assert holm == list(holm_adjust(raw))
        assert [t["name"] for t in doc["per_coefficient"]] == ["x1", "x2"]
        assert doc["delta"] == [float(v) for v in report.delta]

    def test_ridge_flag(self, panel_csv, capsys):
        assert main(["test", "--input", str(panel_csv), "--ridge"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ridge"] is True
        assert doc["kappa"] == compute_ridge_kappa(read_csv(panel_csv))

    def test_homogeneous_panel_keeps_large_pvalue(self, tmp_path, capsys):
        y, x, _ = random_panel(84, 80, 6, 1, slope_spread=0.0)
        path = write_panel_csv(tmp_path / "homog.csv", y, x)
        assert main(["test", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["joint"]["df"] == 1
        assert doc["joint"]["p_value"] > 0.1

    def test_rejection_still_exits_zero(self, tmp_path, capsys):
        panel, _ = simulate_dgp(DgpSpec(3, 300, 6, 83))
        path = write_panel_csv(
            tmp_path / "het.csv", np.asarray(panel.y), np.asarray(panel.x)
        )
        assert main(["test", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["joint"]["p_value"] < 0.01

    def test_csv_format(self, panel_csv, capsys):
        assert main(["test", "--input", str(panel_csv), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scope,name,statistic,df,p_value,holm_p_value"
        assert lines[1].startswith("joint,all,")
        assert lines[2].startswith("coefficient,x1,")
        assert lines[3].startswith("coefficient,x2,")
        assert len(lines) == 4

    def test_table_format(self, panel_csv, capsys):
        assert main(["test", "--input", str(panel_csv), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "slope-homogeneity test" in out
        assert "joint statistic" in out

    def test_too_few_units_is_data_error(self, tmp_path, capsys):
        y, x, _ = random_panel(1, 2, 5, 1)
        path = write_panel_csv(tmp_path / "tiny.csv", y, x)
        assert main(["test", "--input", str(path)]) == 2
        assert "data error" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_reports_matching_library(self, tmp_path, capsys):
        prefix = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--dgp",
                "1",
                "--n",
                "12",
                "--t",
                "5",
                "--reps",
                "3",
                "--seed",
                "7",
                "--estimators",
                "tw-mg,tw-pooled",
                "--output-prefix",
                str(prefix),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {prefix}.csv and {prefix}.json" in out

        want = run_monte_carlo([(1, 12, 5)], ["tw-mg", "tw-pooled"], 3, 7)
        doc = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
        assert doc == want.to_json_dict()
        want.write_csv(tmp_path / "library.csv")
        assert Path(f"{prefix}.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_grid_expands_in_document_order(self, tmp_path, capsys):
        prefix = tmp_path / "grid"
        code = main(
            [
                "simulate",
                "--dgp",
                "1,2",
                "--n",
                "8",
                "--t",
                "4,5",
                "--reps",
                "2",
                "--seed",
                "3",
                "--estimators",
                "tw-pooled",
                "--output-prefix",
                str(prefix),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
        got = [(c["dgp"], c["n_units"], c["n_periods"]) for c in doc["cells"]]
        assert got == [(1, 8, 4), (1, 8, 5), (2, 8, 4), (2, 8, 5)]

    def test_reruns_and_thread_counts_are_byte_identical(self, tmp_path, capsys):
        args = [
            "simulate",
            "--dgp",
            "1",
            "--n",
            "10",
            "--t",
            "4",
            "--reps",
            "4",
            "--seed",
            "21",
            "--estimators",
            "tw-mg",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output-prefix", str(a)]) == 0
        assert main(args + ["--output-prefix", str(b), "--threads", "3"]) == 0
        capsys.readouterr()
        assert (
            (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ["--dgp", "1", "--n", "8", "--t", "4", "--reps", "0", "--seed", "1"],
            ["--dgp", "1", "--n", "8", "--t", "4", "--reps", "1", "--seed", "-1"],
            ["--dgp", "9", "--n", "8", "--t", "4", "--reps", "1", "--seed", "1"],
            ["--dgp", "a", "--n", "8", "--t", "4", "--reps", "1", "--seed", "1"],
            ["--dgp", "1", "--n", "8", "--t", "4", "--reps", "1"],
            [
                "--dgp",
                "4",
                "--n",
                "8",
                "--t",
                "3",
                "--reps",
                "1",
                "--seed",
                "1",
                "--estimators",
                "tw-mg",
            ],
            ["--dgp", "1", "--n", "8", "--t", "4", "--reps", "1", "--seed", "1", "--threads", "0"],
        ],
    )
    def test_usage_errors(self, tmp_path, capsys, args):
        code = main(
            ["simulate"] + args + ["--output-prefix", str(tmp_path / "x")]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_library_and_cli_report_the_same_message(self, tmp_path, capsys):
        with pytest.raises(OutOfRange) as exc:
            run_monte_carlo([(1, 8, 4)], ["tw-mg"], 0, 1)
        args = ["--dgp", "1", "--n", "8", "--t", "4", "--reps", "0", "--seed", "1"]
        assert main(["simulate"] + args + ["--output-prefix", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"usage error: {exc.value}\n"
