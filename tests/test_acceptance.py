"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import itertools
import time

import numpy as np

from robustaft import (
    DgpConfig,
    PenalizedConfig,
    SurvivalSample,
    build_weighted_design,
    compute_psi,
    fit_penalized,
    generate_sample,
    km_weights,
    sandwich_ci,
    sort_sample,
    stute_fit,
)
from robustaft.cli import main
from robustaft.simulation import _cell_seed
from oracles import km_jump_weights, l1_shift_objective_min, psi_double_loop, random_instance


def report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_weight_identities():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for n in range(2, 9):
        y = np.arange(1.0, n + 1)
        x = np.ones((n, 1))
        for bits in itertools.product((0, 1), repeat=n):
            delta = np.array(bits)
            kw = km_weights(sort_sample(SurvivalSample(y=y, delta=delta, x=x)))
            assert kw.w.sum() <= 1.0 + 1e-12
            assert np.array_equal(kw.w == 0.0, delta == 0)
            if delta[-1] == 1:
                assert abs(kw.w.sum() - 1.0) < 1e-12
            else:
                assert kw.w.sum() < 1.0
            worst = max(worst, float(np.max(np.abs(kw.w - km_jump_weights(y, delta)))))
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"{checked} delta patterns, max oracle gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_convex_solver_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_kkt = 0.0
    for _ in range(50):
        sample = random_instance(rng)
        ss = sort_sample(sample)
        kw = km_weights(ss)
        fit = fit_penalized(ss, kw, PenalizedConfig(max_iter=2000, tol=1e-13))
        d = build_weighted_design(ss, kw)
        oracle = l1_shift_objective_min(d.xw, d.yw, fit.lam)
        worst_rel = max(
            worst_rel, abs(fit.objective_trace[-1] - oracle) / max(abs(oracle), 1e-12)
        )
        resid = d.yw - d.xw @ fit.beta - fit.alpha_w
        active = fit.alpha_w != 0.0
        if active.any():
            worst_kkt = max(worst_kkt, float(np.max(np.abs(2 * np.abs(resid[active]) - fit.lam))))
        if (~active).any():
            worst_kkt = max(worst_kkt, float(np.max(2 * np.abs(resid[~active])) - fit.lam))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_rel < 1e-6 and worst_kkt < 1e-6 and elapsed < 30.0,
        f"50 instances, max objective rel diff {worst_rel:.2e}, "
        f"max KKT violation {worst_kkt:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_objective_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(333)
    worst = -np.inf
    for _ in range(1000):
        sample = random_instance(rng)
        ss = sort_sample(sample)
        fit = fit_penalized(ss, km_weights(ss))
        worst = max(worst, float(np.max(np.diff(fit.objective_trace))))
    elapsed = time.perf_counter() - start
    report(
        3,
        worst <= 1e-10 and elapsed < 30.0,
        f"1000 fits, max per-cycle objective increase {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_infinite_penalty_collapse():
    rng = np.random.default_rng(444)
    worst = 0.0
    for _ in range(100):
        sample = random_instance(rng)
        ss = sort_sample(sample)
        kw = km_weights(ss)
        fit = fit_penalized(ss, kw, PenalizedConfig(lambda_override=1e16))
        baseline = stute_fit(ss, kw)
        assert np.all(fit.alpha_w == 0.0)
        worst = max(worst, float(np.max(np.abs(fit.beta - baseline.beta))))
    report(4, worst < 1e-10, f"100 instances, max coefficient gap {worst:.2e}")


def test_criterion_5_influence_vector_oracle():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(20):
        sample = random_instance(rng, n=int(rng.integers(5, 41)))
        ss = sort_sample(sample)
        kw = km_weights(ss)
        beta = rng.normal(size=sample.p)
        alpha = np.where(rng.random(sample.n) < 0.15, 4.0 * rng.normal(size=sample.n), 0.0)
        ours = compute_psi(ss, kw, beta, alpha)
        oracle = psi_double_loop(ss.base.y, ss.base.delta, ss.base.x, beta, alpha)
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
    report(5, worst < 1e-12, f"20 instances, max elementwise gap {worst:.2e}")


def test_criterion_6_replication_orderings(desk_study):
    bias_s = desk_study.row("stute", 5.0).bias
    bias_t = desk_study.row("two-step", 5.0).bias
    cond_a = abs(bias_s) > 2.0 * abs(bias_t)
    cond_b = all(
        desk_study.row("two-step", mu).mse < desk_study.row("stute", mu).mse
        for mu in (2.0, 3.0, 4.0, 5.0)
    )
    cond_c = all(
        desk_study.row(name, 2.0).mse > desk_study.row(name, 5.0).mse
        for name in ("stute", "penalized", "two-step")
    )
    report(
        6,
        cond_a and cond_b and cond_c and desk_study.runtime_seconds < 600.0,
        f"bias ratio {abs(bias_s) / max(abs(bias_t), 1e-12):.1f}x, "
        f"screened-vs-baseline MSE ordering {cond_b}, censoring degradation {cond_c}, "
        f"study ran in {desk_study.runtime_seconds:.0f}s",
    )


def test_criterion_7_coverage_bands(desk_study):
    cov_two = desk_study.row("two-step", 5.0).coverage
    cov_stute = desk_study.row("stute", 5.0).coverage
    report(
        7,
        0.90 <= cov_two <= 0.98 and cov_stute < 0.80,
        f"screened coverage {cov_two:.3f} (band [0.90, 0.98]), "
        f"baseline coverage {cov_stute:.3f} (< 0.80)",
    )


def test_criterion_8_simulation_determinism(tmp_path):
    args = ["simulate", "--profile", "desk", "--seed", "11"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(args + ["--output", str(paths[0])]) == 0
    assert main(args + ["--output", str(paths[1])]) == 0
    assert main(args + ["--output", str(paths[2]), "--threads", "4"]) == 0
    texts = [p.read_text() for p in paths]
    ok = texts[0] == texts[1] == texts[2]
    report(8, ok, "desk profile CSV bit-identical across two runs and --threads 4")


def test_criterion_9_variance_calibration():
    """Median plug-in variance of the penalized slope vs its Monte Carlo variance.

    With the rule-based penalty the soft threshold clamps many clean
    residuals.  Profiling out the shifts turns the l1 mean-shift problem into
    weighted Huber regression with threshold lambda / 2 (She & Owen 2011,
    JASA): a clamped row's residual is absorbed by its shift, so the row does
    not move the coefficients, and the sandwich bread is the Gram matrix over
    the zero-shift rows only.  The full Gram matrix would put the ratio near
    0.15; with the zero-shift bread it must sit within +/-30% of 1.
    """
    plugins, estimates = [], []
    for rep in range(300):
        cfg = DgpConfig(n=1000, mu=5.0, outlier_shift=0.0, seed=_cell_seed(7, 0, rep))
        ss = sort_sample(generate_sample(cfg))
        kw = km_weights(ss)
        fit = fit_penalized(ss, kw)
        inf = sandwich_ci(ss, kw, fit)
        plugins.append(inf.cov_beta[1, 1])
        estimates.append(fit.beta[1])
    ratio = float(np.median(plugins) / np.var(estimates))
    report(
        9,
        0.7 <= ratio <= 1.3,
        f"median plug-in / Monte Carlo variance = {ratio:.3f} (band [0.7, 1.3])",
    )
