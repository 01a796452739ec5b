import json

import numpy as np
import pytest

from robustaft import SurvivalSample, write_csv
from robustaft.cli import main
from oracles import ols_lstsq


def write_sample(tmp_path, sample, name="data.csv"):
    path = tmp_path / name
    write_csv(sample, path)
    return str(path)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_table(out):
    meta, coefs, outliers = {}, {}, {}
    mode = "meta"
    for line in out.splitlines():
        if line.startswith("coef"):
            mode = "coef"
            continue
        if line.startswith("outliers"):
            mode = "outlier"
            continue
        parts = line.split()
        if mode == "meta" and len(parts) == 2:
            meta[parts[0]] = parts[1]
        elif mode == "coef":
            coefs[parts[0]] = [float(v) for v in parts[1:]]
        elif mode == "outlier":
            outliers[int(parts[0])] = float(parts[1])
    return meta, coefs, outliers


@pytest.fixture
def uncensored_csv(tmp_path):
    rng = np.random.default_rng(61)
    x = np.column_stack([np.ones(50), rng.uniform(size=50)])
    y = x @ np.array([1.0, 2.0]) + rng.normal(size=50)
    sample = SurvivalSample(y=y, delta=np.ones(50, dtype=int), x=x)
    return write_sample(tmp_path, sample), x, y


class TestFit:
    def test_stute_equals_ols_on_uncensored_data(self, capsys, uncensored_csv):
        path, x, y = uncensored_csv
        rc, out, _ = run_cli(capsys, ["fit", path, "--method", "stute"])
        assert rc == 0
        _, coefs, _ = parse_table(out)
        expected = ols_lstsq(x, y)
        assert coefs["x1"][0] == pytest.approx(expected[0], abs=1e-9)
        assert coefs["x2"][0] == pytest.approx(expected[1], abs=1e-9)

    def test_huge_lambda_matches_stute_output(self, capsys, uncensored_csv):
        path, _, _ = uncensored_csv
        rc, out_pen, _ = run_cli(
            capsys, ["fit", path, "--method", "penalized", "--lambda", "1e16"]
        )
        assert rc == 0
        rc, out_stute, _ = run_cli(capsys, ["fit", path, "--method", "stute"])
        assert rc == 0
        _, pen_coefs, _ = parse_table(out_pen)
        _, stute_coefs, _ = parse_table(out_stute)
        assert pen_coefs == stute_coefs

    def test_planted_outlier_row_is_listed(self, capsys, tmp_path):
        rng = np.random.default_rng(62)
        x = np.column_stack([np.ones(40), rng.uniform(size=40)])
        y = x @ np.array([1.0, 1.0]) + rng.normal(size=40) * 0.2
        y[24] += 10.0  # 50x the noise scale
        sample = SurvivalSample(y=y, delta=np.ones(40, dtype=int), x=x)
        path = write_sample(tmp_path, sample)
        rc, out, _ = run_cli(capsys, ["fit", path, "--method", "two-step"])
        assert rc == 0
        _, _, outliers = parse_table(out)
        assert list(outliers) == [25]  # 1-based data row
        assert outliers[25] > 0.0

    def test_output_format_parity(self, capsys, tmp_path):
        rng = np.random.default_rng(63)
        x = np.column_stack([np.ones(35), rng.uniform(size=35)])
        y = x @ np.array([1.0, 1.0]) + rng.normal(size=35) * 0.3
        y[10] -= 12.0
        path = write_sample(tmp_path, SurvivalSample(y=y, delta=np.ones(35, dtype=int), x=x))

        rc, table_out, _ = run_cli(capsys, ["fit", path, "--method", "two-step"])
        assert rc == 0
        rc, csv_out, _ = run_cli(capsys, ["fit", path, "--method", "two-step", "--format", "csv"])
        assert rc == 0
        rc, jsonl_out, _ = run_cli(
            capsys, ["fit", path, "--method", "two-step", "--format", "json-lines"]
        )
        assert rc == 0

        meta_t, coefs_t, outliers_t = parse_table(table_out)

        csv_values = {}
        for line in csv_out.splitlines()[1:]:
            record, index, field, value = line.split(",")
            csv_values[(record, index, field)] = value
        jsonl = [json.loads(line) for line in jsonl_out.splitlines()]

        for k, (est, se, lo, hi) in coefs_t.items():
            idx = k[1:]
            assert float(csv_values[("coefficient", idx, "estimate")]) == est
            assert float(csv_values[("coefficient", idx, "std_error")]) == se
            assert float(csv_values[("coefficient", idx, "ci_lower")]) == lo
            assert float(csv_values[("coefficient", idx, "ci_upper")]) == hi
        coef_records = {str(r["index"]): r for r in jsonl if r["record"] == "coefficient"}
        for k, (est, se, lo, hi) in coefs_t.items():
            r = coef_records[k[1:]]
            assert (r["estimate"], r["std_error"], r["ci_lower"], r["ci_upper"]) == (est, se, lo, hi)

        assert float(meta_t["lambda"]) == float(csv_values[("fit", "", "lambda")])
        fit_record = next(r for r in jsonl if r["record"] == "fit")
        assert float(meta_t["lambda"]) == fit_record["lambda"]

        outlier_records = {r["row"]: r["alpha_w"] for r in jsonl if r["record"] == "outlier"}
        assert outliers_t == outlier_records
        for row, alpha_w in outliers_t.items():
            assert float(csv_values[("outlier", str(row), "alpha_w")]) == alpha_w

    def test_validation_error_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,delta,x1\n1,1,1\n2,3,1\n3,1,1\n")
        rc, out, err = run_cli(capsys, ["fit", str(path), "--method", "stute"])
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file_exits_one(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, ["fit", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "error:" in err

    def test_singular_gram_exits_two(self, capsys, tmp_path):
        x = np.column_stack([np.ones(10), 2.0 * np.ones(10)])
        sample = SurvivalSample(y=np.arange(10.0), delta=np.ones(10, dtype=int), x=x)
        path = write_sample(tmp_path, sample)
        rc, _, err = run_cli(capsys, ["fit", path, "--method", "stute"])
        assert rc == 2
        assert "collinear" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--reps", "0"], "reps must be at least 2"),
        (["simulate", "--sample-size", "0"], "n must exceed p"),
        (["simulate", "--reps", "2", "--sample-size", "60", "--threads", "0"], "threads must be"),
        (["fit", "{csv}", "--tau0", "nan"], "tau0 must be nonnegative"),
        (["fit", "{csv}", "--method", "penalized", "--lambda", "nan"], "lambda_override must be"),
        (["fit", "{csv}", "--lambda0", "nan"], "lambda0 must be positive"),
    ],
)
def test_bad_input_exits_one(capsys, uncensored_csv, argv, message):
    argv = [uncensored_csv[0] if a == "{csv}" else a for a in argv]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and message in err


class TestSimulate:
    def test_fixed_seed_is_deterministic(self, capsys, tmp_path):
        args = [
            "simulate", "--profile", "desk", "--seed", "7",
            "--reps", "4", "--sample-size", "80",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b), "--threads", "2"]) == 0
        assert out_a.read_text() == out_b.read_text()
        header = out_a.read_text().splitlines()[0]
        assert header == "estimator,mu,pi_uc_hat,bias,variance,mse,coverage,reps_used"

    def test_unwritable_output_exits_one(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys,
            [
                "simulate", "--profile", "desk", "--seed", "1", "--reps", "2",
                "--sample-size", "60", "--output", str(tmp_path / "missing" / "r.csv"),
            ],
        )
        assert rc == 1
        assert "error:" in err

    def test_stdout_report(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["simulate", "--profile", "desk", "--seed", "3", "--reps", "2", "--sample-size", "60"],
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("estimator,")
        assert len(lines) == 1 + 3 * 4  # three estimators, four grid points
