import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from robustaft import SurvivalSample, write_csv
import robustaft.cli as cli_mod
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

    def test_unsplittable_csv_exits_one(self, capsys, tmp_path):
        path = tmp_path / "huge_field.csv"
        path.write_text("y,delta,x1\n1,1,1\n2,1," + "1" * 200_000 + "\n3,1,1\n")
        rc, out, err = run_cli(capsys, ["fit", str(path)])
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: {path}: line 3:") and err.count("\n") == 1

    def test_csv_that_is_not_utf8_exits_one(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,delta,x1\n1,1,1\n2,1,2\n3,0,3\n4,1,\xff\n")
        rc, out, err = run_cli(capsys, ["fit", str(path)])
        assert rc == 1
        assert out == ""
        assert err == f"error: {path}: line 5: not UTF-8\n"

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


SMALL_CSV = """y,delta,x1,x2
1.2,1,1,0.1
1.5,1,1,0.2
0.9,0,1,0.3
1.8,1,1,0.4
1.4,1,1,0.5
2.1,1,1,0.6
-6.0,1,1,0.7
1.9,0,1,0.8
2.3,1,1,0.9
2.2,1,1,1.0
"""

# estimate, std_error, ci_lower, ci_upper
COEF_X1 = ("1.1993980169971676", "0.10369977367670408", "0.9961501953858729",
           "1.4026458386084624")
COEF_X2 = ("1.1260623229461786", "0.13682003497857803", "0.8578999820246553",
           "1.3942246638677018")
LAMBDA = "0.39819884867155864"
ALPHA_W = "-2.300681654703104"

GOLDEN = {
    "table": [
        "method      two-step",
        "n           10",
        "p           2",
        "pi_uc_hat   0.8",
        f"lambda      {LAMBDA}",
        "iterations  10",
        "tau0        0.3",
        "coef  estimate                  std_error                 ci_lower                  "
        "ci_upper                  ",
        "x1    1.1993980169971676        0.10369977367670408       0.9961501953858729        "
        "1.4026458386084624        ",
        "x2    1.1260623229461786        0.13682003497857803       0.8578999820246553        "
        "1.3942246638677018        ",
        "outliers (original row, alpha_w):",
        f"  7  {ALPHA_W}",
    ],
    "csv": [
        "record,index,field,value",
        "fit,,method,two-step",
        "fit,,n,10",
        "fit,,p,2",
        "fit,,pi_uc_hat,0.8",
        f"fit,,lambda,{LAMBDA}",
        "fit,,iterations,10",
        "fit,,tau0,0.3",
        *(f"coefficient,{k},{field},{value}"
          for k, values in ((1, COEF_X1), (2, COEF_X2))
          for field, value in zip(("estimate", "std_error", "ci_lower", "ci_upper"), values)),
        f"outlier,7,alpha_w,{ALPHA_W}",
    ],
    "json-lines": [
        '{"record": "fit", "method": "two-step", "n": 10, "p": 2, "pi_uc_hat": 0.8, '
        f'"lambda": {LAMBDA}, "iterations": 10, "tau0": 0.3}}',
        *('{"record": "coefficient", "index": %d, "estimate": %s, "std_error": %s, '
          '"ci_lower": %s, "ci_upper": %s}' % (k, *values)
          for k, values in ((1, COEF_X1), (2, COEF_X2))),
        f'{{"record": "outlier", "row": 7, "alpha_w": {ALPHA_W}}}',
    ],
}


# the CI workflow's 12-row CSV: its last two rows tie in y, the censored one first
TIED_CSV = SMALL_CSV + "1.6,0,1,0.35\n1.6,1,1,0.45\n"
TIED_HEAD = ["n           12", "p           2", "pi_uc_hat   0.75"]
TIED_LAMBDA = ["lambda      0.3939262763696897", "iterations  10", "tau0        0.3"]
TIED_OUTLIER = ["outliers (original row, alpha_w):", "  7  -2.0870508551604936"]
COEF_HEADER = GOLDEN["table"][7]

TIED_GOLDEN = {
    "stute": [
        "method      stute", *TIED_HEAD, COEF_HEADER,
        "x1    1.0795513117796687        0.4200974520495551        0.2561754357654985        "
        "1.9029271877938387        ",
        "x2    0.1866891701619277        1.2007916709861703        -2.166819257906636        "
        "2.540197598230491         ",
    ],
    "penalized": [
        "method      penalized", *TIED_HEAD, *TIED_LAMBDA, COEF_HEADER,
        "x1    1.1840352287861697        0.09941128167194101       0.9891926970521987        "
        "1.3788777605201408        ",
        "x2    1.0400304859063354        0.1616117538956058        0.7232772687925972        "
        "1.3567837030200736        ",
        *TIED_OUTLIER,
    ],
    "two-step": [
        "method      two-step", *TIED_HEAD, *TIED_LAMBDA, COEF_HEADER,
        "x1    1.1949558995029481        0.09643359336073681       1.0059495296161232        "
        "1.383962269389773         ",
        "x2    1.1292218158761778        0.1368665499076609        0.8609683073689086        "
        "1.3974753243834468        ",
        *TIED_OUTLIER,
    ],
}


@pytest.mark.parametrize(
    "text, options, golden",
    [(SMALL_CSV, ["--format", fmt], GOLDEN[fmt]) for fmt in sorted(GOLDEN)]
    + [(TIED_CSV, ["--method", m, "--format", "table"], TIED_GOLDEN[m]) for m in sorted(TIED_GOLDEN)],
    ids=[*sorted(GOLDEN), *(f"tied-{m}" for m in sorted(TIED_GOLDEN))],
)
def test_fit_output_is_pinned_to_the_byte(capsys, tmp_path, text, options, golden):
    path = tmp_path / "small.csv"
    path.write_text(text)
    rc, out, err = run_cli(capsys, ["fit", str(path), *options])
    assert (rc, err) == (0, "")
    assert out == "\n".join(golden) + "\n"


@pytest.mark.parametrize(
    "text, options, context",
    [
        (SMALL_CSV.replace(",1,1,", ",0,1,"), [], ""),
        # this level shifts every row with positive weight, so the bread keeps only censored rows
        (
            SMALL_CSV,
            ["--method", "penalized", "--lambda", "1e-300"],
            " (sandwich bread over the 2 of 10 rows with zero shift)",
        ),
    ],
    ids=["all-censored", "tiny-lambda"],
)
def test_zero_gram_exits_two_naming_the_weights(capsys, tmp_path, text, options, context):
    path = tmp_path / "data.csv"
    path.write_text(text)
    rc, out, err = run_cli(capsys, ["fit", str(path), *options])
    assert (rc, out) == (2, "")
    assert err == (
        f"error: weighted Gram matrix is zero{context}: "
        "no kept row has positive Kaplan-Meier weight\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--reps", "0"], "reps must be at least 2"),
        (["simulate", "--sample-size", "0"], "n must exceed p"),
        (["simulate", "--reps", "2", "--sample-size", "60", "--threads", "0"], "threads must be"),
        (["fit", "{csv}", "--method", "penalized", "--lambda", "nan"], "--lambda must be"),
        (["fit", "{csv}", "--method", "penalized", "--lambda", "inf"], "must be positive and finite"),
        (["fit", "{csv}", "--method", "stute", "--lambda", "-1"], "--lambda must be"),
        # 7.1 PiB: more than any address space, so the allocation fails before a page is touched
        (["simulate", "--sample-size", "1000000000000000", "--reps", "2"], "Unable to allocate"),
        (["fit", "{csv}", "--ci-level", "2"], "level must lie strictly between 0 and 1"),
        # (1 + level) / 2 rounds to 1.0, where the normal quantile is infinite
        (["fit", "{csv}", "--ci-level", "0.9999999999999999"], "level must lie strictly"),
        # outcomes near 1e200 overflow the influence vectors' covariance
        (["fit", "{huge_csv}", "--method", "stute"], "covariance is not finite"),
    ],
)
def test_bad_input_exits_one(capsys, tmp_path, uncensored_csv, argv, message):
    path, x, y = uncensored_csv
    huge = SurvivalSample(y=y * 1e200, delta=np.ones(y.shape[0], dtype=int), x=x)
    placeholders = {"{csv}": path, "{huge_csv}": write_sample(tmp_path, huge, "huge.csv")}
    argv = [placeholders.get(a, a) for a in argv]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("flag, value", [("--lambda0", "1e-4"), ("--tau0", "0.3"), ("--max-iter", "10")])
def test_removed_fit_option_exits_two(capsys, uncensored_csv, flag, value):
    """The penalty constant, the screening threshold and the cycle count are
    fixed, so argparse rejects the options that once set them."""
    with pytest.raises(SystemExit) as exc:
        main(["fit", uncensored_csv[0], flag, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


def test_bad_ci_level_fails_before_the_file_is_read(capsys, monkeypatch, uncensored_csv):
    def refuse(*args, **kwargs):
        raise AssertionError("the file was read before --ci-level was checked")

    monkeypatch.setattr(cli_mod, "load_csv", refuse)
    rc, out, err = run_cli(capsys, ["fit", uncensored_csv[0], "--ci-level", "2"])
    assert (rc, out) == (1, "")
    assert err == "error: level must lie strictly between 0 and 1\n"


@pytest.mark.parametrize("method", ["stute", "two-step"])
def test_bad_lambda_fails_before_the_file_is_read(capsys, monkeypatch, uncensored_csv, method):
    def refuse(*args, **kwargs):
        raise AssertionError("the file was read before --lambda was checked")

    monkeypatch.setattr(cli_mod, "load_csv", refuse)
    rc, out, err = run_cli(capsys, ["fit", uncensored_csv[0], "--method", method, "--lambda", "0"])
    assert (rc, out) == (1, "")
    assert err == "error: --lambda must be positive and finite\n"


def test_the_command_line_imports_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that imports
    the command line has no scipy module loaded."""
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    code = (
        "import sys, robustaft.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


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

    def test_threads_flag_starts_no_thread(self, capsys, monkeypatch):
        args = ["simulate", "--seed", "5", "--reps", "2", "--sample-size", "60"]
        rc, serial, _ = run_cli(capsys, args + ["--threads", "1"])
        assert rc == 0

        def refuse(thread):
            raise AssertionError(f"simulate started a thread: {thread!r}")

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        rc, out, err = run_cli(capsys, args + ["--threads", "4"])
        assert (rc, err) == (0, "")
        assert out == serial

    def test_unwritable_output_exits_one(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("the study ran before the output was opened")

        # the path is opened first, so the study never runs
        monkeypatch.setattr(cli_mod, "run_study", refuse)
        rc, out, err = run_cli(
            capsys,
            [
                "simulate", "--profile", "desk", "--seed", "1", "--reps", "2",
                "--sample-size", "60", "--output", str(tmp_path / "missing" / "r.csv"),
            ],
        )
        assert (rc, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_rejected_study_leaves_the_output_untouched(self, capsys, tmp_path):
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"keep\n")
        fresh = tmp_path / "new.csv"
        for flags in (["--reps", "0"], ["--sample-size", "1"], ["--sample-size", "2"]):
            for path in (keep, fresh):
                rc, out, err = run_cli(capsys, ["simulate", "--output", str(path), *flags])
                assert (rc, out) == (1, "")
                assert err.startswith("error:") and err.count("\n") == 1
            assert keep.read_bytes() == b"keep\n"
            assert not fresh.exists()

    def test_failed_study_leaves_no_file_it_made(self, capsys, tmp_path):
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"keep\n")
        fresh = tmp_path / "new.csv"
        for path in (fresh, keep):
            # 7.1 PiB: the first block's draw fails before a page is touched
            argv = ["simulate", "--sample-size", "1000000000000000", "--reps", "2"]
            rc, out, err = run_cli(capsys, argv + ["--output", str(path)])
            assert (rc, out) == (1, "")
            assert err.startswith("error:") and err.count("\n") == 1
        assert not fresh.exists()
        assert keep.read_bytes() == b"keep\n"

    def test_dropped_replications_print_one_warning_line(self, capsys):
        rc, out, err = run_cli(
            capsys, ["simulate", "--sample-size", "8", "--reps", "200", "--seed", "3"]
        )
        assert rc == 0 and out.startswith("estimator,")
        assert err == (
            "warning: 31 replication(s) hit a singular Gram matrix or a non-finite "
            "covariance and were excluded\n"
        )

    def test_stdout_report(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["simulate", "--profile", "desk", "--seed", "3", "--reps", "2", "--sample-size", "60"],
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("estimator,")
        assert len(lines) == 1 + 3 * 4  # three estimators, four grid points

    def test_estimator_rows_that_lost_every_replication_are_nan(self, capsys):
        rc, out, err = run_cli(capsys, ["simulate", "--sample-size", "3", "--reps", "2", "--seed", "5"])
        assert rc == 0
        assert err == (
            "warning: 7 replication(s) hit a singular Gram matrix or a non-finite "
            "covariance and were excluded\n"
        )
        lost = [line.split(",") for line in out.splitlines() if line.split(",")[1] == "2.0"]
        assert [row[0] for row in lost] == ["stute", "penalized", "two-step"]
        assert all(row[3:] == ["nan"] * 4 + ["0"] for row in lost)
