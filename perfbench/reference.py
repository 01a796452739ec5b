"""Independent reference computations and output checks.

Nothing here calls robustaft: the data-generating process, the sort order,
the Kaplan-Meier weights and the three estimators are recomputed with plain
numpy (``np.linalg.lstsq`` for every least-squares step), so a check fails
when the package's output disagrees with this second implementation.
Every checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

import numpy as np

LEVEL = 0.95
TAU0 = 0.3
LAMBDA0 = 1e-4
MAX_ITER = 10
TRUE_SLOPE = 1.0
COEF = 1
DESK_GRID = (2.0, 3.0, 4.0, 5.0)
DESK_N = 500
DESK_REPS = 200

# Relative agreement required between a package beta and the lstsq reference.
BETA_RTOL = 1e-8
# The package's penalized solver stops after a fixed MAX_ITER cycles, so its
# KKT conditions hold only to within the last cycle's change. At n = 1e5 that
# change is about 1e-4 of lambda/2; the check allows 1e-2.
KKT_RTOL = 1e-2
# Report columns other than coverage must match the reference this closely.
REPORT_RTOL = 1e-8
REPORT_ATOL = 1e-12


# -- data -----------------------------------------------------------------------
def cell_seed(base_seed: int, mu_index: int, rep_index: int) -> int:
    payload = mu_index.to_bytes(8, "little") + rep_index.to_bytes(8, "little")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (base_seed ^ int.from_bytes(digest, "little")) & 0xFFFFFFFFFFFFFFFF


def draw_sample(n: int, mu: float, seed: int):
    """(y, delta, x) of the two-covariate design: five outliers per 1000, shift -20."""
    rng = np.random.default_rng(seed)
    x2 = rng.uniform(0.0, 1.0, n)
    noise = rng.standard_normal(n)
    censor = rng.normal(mu, 1.0, n)
    t = (1.0 + x2) + np.where(x2 >= 1.0 - 5e-3, -20.0, 0.0) + noise
    x = np.column_stack([np.ones(n), x2])
    return np.minimum(t, censor), (t <= censor).astype(np.int64), x


def sort_order(y, delta):
    """Stable order by y ascending, uncensored first within ties."""
    return np.lexsort((-np.asarray(delta), np.asarray(y)))


def km_weights(delta_sorted):
    """Kaplan-Meier jump weights of sorted censoring indicators.

    w_(i) = delta_(i) / (n - i + 1) * prod_{j<i} ((n - j) / (n - j + 1)) ** delta_(j).
    """
    d = np.asarray(delta_sorted, dtype=float)
    n = d.shape[0]
    j = np.arange(n, dtype=float)
    factors = np.where(d[:-1] == 1.0, (n - 1.0 - j[:-1]) / (n - j[:-1]), 1.0)
    return d / (n - j) * np.concatenate(([1.0], np.cumprod(factors)))


def lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


class Problem:
    """A sorted sample with its sqrt(w)-scaled design, from this module alone."""

    def __init__(self, y, delta, x):
        self.order = sort_order(y, delta)
        delta = np.asarray(delta)[self.order]
        sw = np.sqrt(km_weights(delta))
        self.xw = np.asarray(x, dtype=float)[self.order] * sw[:, None]
        self.yw = np.asarray(y, dtype=float)[self.order] * sw
        self.n = delta.shape[0]
        self.pi_uc = float(delta.mean())

    def stute(self):
        return lstsq(self.xw, self.yw)

    def penalized(self):
        """Alternating minimisation, MAX_ITER cycles plus a final beta refresh."""
        lam = float(self.n) ** (LAMBDA0 - self.pi_uc / 2.0)
        aw = np.zeros(self.n)
        for _ in range(MAX_ITER):
            r = self.yw - self.xw @ lstsq(self.xw, self.yw - aw)
            aw = np.where(np.abs(r) <= lam / 2.0, 0.0, r - np.sign(r) * lam / 2.0)
        return lstsq(self.xw, self.yw - aw), aw, lam

    def refit(self, flagged):
        keep = np.ones(self.n, dtype=bool)
        keep[flagged] = False
        return lstsq(self.xw[keep], self.yw[keep])


# -- checks ---------------------------------------------------------------------
def _beta_problems(label, got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return [f"{label}: beta {got!r} is not a finite vector like {want!r}"]
    rel = float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))
    if rel > BETA_RTOL:
        return [f"{label}: beta {got!r} differs from lstsq {want!r} (rel {rel:.2e})"]
    return []


def kkt_violation(prob: Problem, beta, alpha_w, lam) -> float:
    """Largest KKT violation of the penalized pair, as a share of lambda/2.

    With r = yw - xw @ beta: |r| <= lambda/2 where alpha_w = 0, and
    r - alpha_w = sign(alpha_w) * lambda/2 elsewhere.
    """
    half = lam / 2.0
    r = prob.yw - prob.xw @ np.asarray(beta, dtype=float)
    aw = np.asarray(alpha_w, dtype=float)
    active = aw != 0.0
    worst = 0.0
    if (~active).any():
        worst = max(worst, float(np.max(np.abs(r[~active]))) - half)
    if active.any():
        worst = max(worst, float(np.max(np.abs(r[active] - aw[active] - np.sign(aw[active]) * half))))
    return worst / half


def check_cell(prob: Problem, out: dict) -> list[str]:
    """Check one three-estimator cell against ``prob``.

    ``out`` holds ``perm`` (the package's sort permutation), ``stute``,
    ``pen_beta``, ``alpha_w``, ``lam``, ``two_step`` and ``outliers``
    (coefficients and flagged sorted indices), and ``cis``: estimator ->
    (estimate, lower, upper) arrays.
    """
    problems = []
    if not np.array_equal(np.asarray(out["perm"]), prob.order):
        return ["sort: permutation differs from the reference order"]
    problems += _beta_problems("stute", out["stute"], prob.stute())
    if out["lam"] is None or not math.isfinite(out["lam"]) or out["lam"] <= 0:
        problems.append(f"penalized: lambda {out['lam']!r} is not positive")
        return problems
    kkt = kkt_violation(prob, out["pen_beta"], out["alpha_w"], out["lam"])
    if not kkt <= KKT_RTOL:
        problems.append(f"penalized: KKT violated by {kkt:.2e} of lambda/2")
    flagged = np.flatnonzero(np.abs(np.asarray(out["alpha_w"])) > TAU0)
    if not np.array_equal(np.asarray(out["outliers"]), flagged):
        problems.append("two-step: flagged rows differ from |alpha_w| > tau0")
    problems += _beta_problems("two-step", out["two_step"], prob.refit(flagged))
    for name, (est, lo, hi) in out["cis"].items():
        est, lo, hi = (np.asarray(a, dtype=float) for a in (est, lo, hi))
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            problems.append(f"{name}: CI bounds are not finite")
        elif not np.all((lo <= est) & (est <= hi)):
            problems.append(f"{name}: CI [{lo!r}, {hi!r}] does not contain {est!r}")
    return problems


def parse_fit_table(text: str) -> dict:
    """Numbers printed by ``robustaft fit --format table``."""
    meta, coefs, outliers = {}, [], []
    section = "meta"
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "coef":
            section = "coef"
        elif fields[0] == "outliers":
            section = "outliers"
        elif section == "meta":
            meta[fields[0]] = fields[1]
        elif section == "coef":
            coefs.append([float(v) for v in fields[1:]])
        else:
            outliers.append((int(fields[0]), float(fields[1])))
    return {"meta": meta, "coefficients": coefs, "outliers": outliers}


def check_fit_table(text: str, want: dict) -> list[str]:
    """Compare printed numbers with ``want`` (same layout) at round-trip precision."""
    try:
        got = parse_fit_table(text)
    except (ValueError, IndexError) as err:
        return [f"fit output unparsable: {err}"]
    problems = []
    for key, value in want["meta"].items():
        if got["meta"].get(key) != value:
            problems.append(f"fit output: {key} = {got['meta'].get(key)!r}, expected {value!r}")
    if got["coefficients"] != want["coefficients"]:
        problems.append(f"fit output: coefficients {got['coefficients']!r} != {want['coefficients']!r}")
    if got["outliers"] != want["outliers"]:
        problems.append("fit output: outlier list differs")
    return problems


# -- study ----------------------------------------------------------------------
def desk_reference(seed: int) -> dict:
    """(estimator, mu) -> report columns other than coverage, for one study seed."""
    out = {}
    for i, mu in enumerate(DESK_GRID):
        est = {"stute": [], "penalized": [], "two-step": []}
        pis = []
        for j in range(DESK_REPS):
            prob = Problem(*draw_sample(DESK_N, mu, cell_seed(seed, i, j)))
            pis.append(prob.pi_uc)
            pen_beta, aw, _ = prob.penalized()
            est["stute"].append(prob.stute()[COEF])
            est["penalized"].append(pen_beta[COEF])
            est["two-step"].append(prob.refit(np.flatnonzero(np.abs(aw) > TAU0))[COEF])
        for name, values in est.items():
            v = np.array(values)
            err = v - TRUE_SLOPE
            out[(name, mu)] = {
                "pi_uc_hat": float(np.mean(pis)),
                "bias": float(err.mean()),
                "variance": float(v.var()),
                "mse": float(np.mean(err**2)),
                "reps_used": len(values),
            }
    return out


def read_report(text: str) -> dict:
    rows = {}
    for rec in csv.DictReader(io.StringIO(text)):
        rows[(rec["estimator"], float(rec["mu"]))] = {
            k: (int(v) if k == "reps_used" else float(v))
            for k, v in rec.items()
            if k not in ("estimator", "mu")
        }
    return rows


def check_report(rows: dict, want: dict) -> list[str]:
    problems = []
    if set(rows) != set(want):
        return [f"report rows {sorted(rows)} differ from {sorted(want)}"]
    for key, cols in want.items():
        for col, value in cols.items():
            got = rows[key][col]
            if col == "reps_used":
                ok = got == value
            else:
                ok = abs(got - value) <= max(REPORT_RTOL * abs(value), REPORT_ATOL)
            if not ok:
                problems.append(f"report {key} {col}: {got!r}, reference {value!r}")
    return problems
