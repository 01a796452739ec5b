"""Tests of the benchmark's own logic: python -m pytest perfbench"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402
import robustaft as ra  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, parse_importtime, self_times  # noqa: E402
from workloads import _accuracy, _cell_output, _pooled_fits  # noqa: E402


# -- tail percentile --------------------------------------------------------------
def test_tail_needs_twenty_samples():
    assert run.tail_latency(list(range(19))) is None
    assert run.tail_latency(list(range(20))) == (50.0, 9, 20)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(v) for v in np.random.default_rng(0).permutation(np.arange(1, 101))]
    pct, value, count = run.tail_latency(samples)
    assert (pct, value, count) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    pct, value, count = run.tail_latency(samples[:37])
    assert pct == pytest.approx(100 * 27 / 37)
    assert sum(s > value for s in samples[:37]) == 10


# -- self time ----------------------------------------------------------------------
def _span(sid, parent, start, end):
    return [sid, parent, 0, "m.f", start, end, ""]


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),   # grandchild: counts against span 1 only
        _span(3, 0, 5.0, 9.0),
        _span(4, 0, 8.0, 9.5),   # overlaps span 3: the union is 5.0-9.5
        _span(5, 0, 9.8, 11.0),  # runs past its parent: clipped at 10.0
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 3.0 - 4.5 - 0.2)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.5)


def test_traced_self_times_add_up_to_operation_time():
    sample = ra.generate_sample(ra.DgpConfig(n=300, mu=3.0, seed=5))
    tracer = Tracer()
    keys = tracer.install(ra)
    try:
        tracer.op = 0
        root = tracer.begin("bench.op")
        ss = ra.sort_sample(sample)
        kw = ra.km_weights(ss)
        pen = ra.fit_penalized(ss, kw)
        ra.sandwich_ci(ss, kw, ra.fit_two_step(ss, kw, pen))
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert "cli.main" in keys and "inference.compute_psi" in keys
    assert ra.sort_sample.__module__ == "robustaft.data" and not hasattr(ra.sort_sample, "__wrapped__")
    names = [s[3] for s in tracer.spans]
    # calls made inside the package are traced through the rebound attributes
    assert names.count("wls.wls_solve") == 11
    assert "inference.censoring_km" in names
    selfs = self_times(tracer.spans)
    root_span = tracer.spans[0]
    assert sum(selfs.values()) == pytest.approx(root_span[5] - root_span[4], rel=1e-9)


def test_exception_is_attributed_to_the_span_it_first_leaves():
    tracer = Tracer()
    tracer.install(ra)
    try:
        x = np.column_stack([np.ones(50), np.ones(50)])  # collinear design
        sample = ra.SurvivalSample(y=np.arange(50.0), delta=np.ones(50, dtype=int), x=x)
        with pytest.raises(ra.SingularGramError):
            ra.stute_fit(ra.sort_sample(sample), ra.km_weights(ra.sort_sample(sample)))
    finally:
        tracer.uninstall()
    raised = [(s[3], s[6]) for s in tracer.spans if s[6]]
    assert raised == [("wls.wls_solve", "SingularGramError")]


def test_parse_importtime_reads_cumulative_seconds():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   robustaft.data\n"
        "import time:       300 |     640777 |   robustaft.inference\n"
        "import time:      2000 |     700000 | robustaft\n"
        "import time:        15 |         15 | robustaftish\n"
    )
    assert parse_importtime(stderr) == {
        "data": 0.00012, "inference": 0.640777, "robustaft": 0.7,
    }


def test_useful_cycles_stops_at_first_non_decrease():
    assert run.useful_cycles([5.0, 4.0, 3.0, 3.0, 3.0], 4) == 3
    assert run.useful_cycles([5.0, 4.0, 3.0, 2.0, 1.0], 4) == 4
    assert run.useful_cycles([5.0, 5.0], 1) == 1


# -- set-up time -------------------------------------------------------------------
def test_setup_time_divides_each_import_by_its_neighbouring_controls(monkeypatch):
    # Two untimed warm-ups, then control, (import, control) x 3.
    times = iter([9.0, 9.0, 1.0, 4.0, 3.0, 6.0, 1.0, 5.0, 1.0])
    monkeypatch.setattr(run, "_run_python", lambda code, env: next(times))
    got = run.setup_time("src", samples=3)
    assert got["runs"]["ratio"] == [2.0, 3.0, 5.0]
    assert got["setup_s"] == pytest.approx(3.0 * run.SETUP_CONTROL_REF_S)
    assert got["setup_raw_s"] == 5.0
    assert got["setup_control_s"] == 1.0


# -- accuracy -----------------------------------------------------------------------
def _fit(error, half):
    beta = np.array([0.0, ref.TRUE_SLOPE + error])
    return beta, beta - half, beta + half


def test_pooled_coverage_is_level_without_bias_and_moves_smoothly():
    coverage, mse = _pooled_fits([_fit(0.01, 0.1), _fit(-0.01, 0.1)])
    assert coverage == pytest.approx(ref.LEVEL)
    assert mse == pytest.approx(1e-4)
    covs = [_pooled_fits([_fit(b, 0.1)])[0] for b in (0.0, 0.05, 0.1, 0.15, 0.3)]
    assert all(a > b for a, b in zip(covs, covs[1:]))
    assert covs[2] == pytest.approx(0.5, abs=1e-3)  # centred on the CI edge
    assert covs[-1] < 1e-3


def test_accuracy_averages_coverage_error_and_mse_over_groups():
    got = _accuracy({"two-step": [(0.93, 0.04), (0.99, 0.02)], "penalized": [(0.5, 1.0)]})
    assert got["coverage_err.two-step"] == pytest.approx(0.03)
    assert got["coverage_err.penalized"] == pytest.approx(0.45)
    assert got["rmse.two-step"] == pytest.approx(np.sqrt(0.03))


# -- output checks --------------------------------------------------------------------
@pytest.fixture(scope="module")
def cell():
    sample = ra.generate_sample(ra.DgpConfig(n=20_000, mu=3.0, seed=9))
    ss = ra.sort_sample(sample)
    kw = ra.km_weights(ss)
    stute = ra.stute_fit(ss, kw)
    pen = ra.fit_penalized(ss, kw)
    two = ra.fit_two_step(ss, kw, pen)
    cis = {name: ra.sandwich_ci(ss, kw, fit)
           for name, fit in (("stute", stute), ("penalized", pen), ("two-step", two))}
    return ref.Problem(sample.y, sample.delta, sample.x), _cell_output(ss, stute, pen, two, cis)


def test_checker_accepts_package_output(cell):
    prob, out = cell
    assert ref.check_cell(prob, out) == []


@pytest.mark.parametrize("field", ["stute", "two_step", "pen_beta"])
def test_checker_rejects_corrupted_beta(cell, field):
    prob, out = cell
    bad = dict(out)
    scale = 1.0 + (1e-6 if field != "pen_beta" else 1e-2)
    bad[field] = out[field] * scale
    assert ref.check_cell(prob, bad)


def test_checker_rejects_corrupted_ci(cell):
    prob, out = cell
    est, lo, hi = out["cis"]["two-step"]
    for broken in ((est, est + 1e-3, hi), (est, lo, np.array([hi[0], np.nan]))):
        bad = dict(out, cis=dict(out["cis"], **{"two-step": broken}))
        assert any("two-step: CI" in p for p in ref.check_cell(prob, bad))


def test_report_check_ignores_coverage_only():
    want = {("two-step", 2.0): {"pi_uc_hat": 0.64, "bias": -0.01, "variance": 0.02,
                                "mse": 0.0201, "reps_used": 200}}
    rows = {key: dict(cols, coverage=0.5) for key, cols in want.items()}
    assert ref.check_report(rows, want) == []
    rows[("two-step", 2.0)]["bias"] = -0.0100001
    assert ref.check_report(rows, want)


def test_fit_table_check_compares_printed_numbers():
    text = (
        "method      two-step\nn           3\np           2\n"
        "coef  estimate                  std_error                 ci_lower                  ci_upper\n"
        "x1    1.5                       0.25                      1.0                       2.0\n"
        "x2    0.1                       0.125                     -0.15                     0.35\n"
    )
    want = {"meta": {"method": "two-step", "n": "3"},
            "coefficients": [[1.5, 0.25, 1.0, 2.0], [0.1, 0.125, -0.15, 0.35]], "outliers": []}
    assert ref.check_fit_table(text, want) == []
    assert ref.check_fit_table(text.replace("0.125", "0.1250000001"), want)


# -- the loop counts failures without stopping ---------------------------------------
class _Flaky:
    units_per_op = 1

    def calibrate(self):
        pass

    def run(self, i):
        if i == 1:
            raise ValueError("boom")
        return i

    def check(self, i, out):
        return ["bad output"] if i == 2 else []


def test_failed_and_raising_operations_are_counted_not_fatal():
    loop = run.measure(_Flaky(), 0, ops=4)
    assert loop.attempted == 4
    assert [i for i, _ in loop.failures] == [1, 2]
