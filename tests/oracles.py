"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, literal way (explicit loops,
generic solvers) so it shares no code path with the package.
"""

from functools import cache

import numpy as np

from robustaft import SurvivalSample


def km_jump_weights(y, delta):
    """Textbook Kaplan-Meier jumps, one unique time at a time.

    ``y`` must be sorted nondecreasing with uncensored-first tie order.
    Each uncensored observation receives an equal share of its time's jump.
    """
    n = len(y)
    w = np.zeros(n)
    surv = 1.0
    at_risk = n
    i = 0
    while i < n:
        j = i
        while j < n and y[j] == y[i]:
            j += 1
        deaths = int(np.sum(delta[i:j]))
        if deaths:
            new_surv = surv * (1.0 - deaths / at_risk)
            jump = surv - new_surv
            for m in range(i, j):
                if delta[m] == 1:
                    w[m] = jump / deaths
            surv = new_surv
        at_risk -= j - i
        i = j
    return w


def ols_lstsq(x, y):
    """QR-based least squares, independent of the package's Cholesky route."""
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    return beta


def l1_shift_objective_min(xw, yw, lam, max_iter=6000):
    """Minimum of ||yw - xw b - v||^2 + lam ||v||_1 by accelerated proximal gradient.

    Treats (b, v) as one block with smooth part ||yw - A z||^2, A = [xw, I].
    Returns the best objective value seen (the iteration is not monotone).
    """
    n, p = xw.shape
    a_mat = np.hstack([xw, np.eye(n)])
    lip = 2.0 * np.linalg.eigvalsh(a_mat.T @ a_mat)[-1]
    step = 1.0 / lip

    def objective(z):
        r = yw - a_mat @ z
        return float(r @ r + lam * np.abs(z[p:]).sum())

    z = np.zeros(p + n)
    momentum = z.copy()
    tk = 1.0
    best = objective(z)
    for _ in range(max_iter):
        grad = -2.0 * a_mat.T @ (yw - a_mat @ momentum)
        z_new = momentum - step * grad
        tail = z_new[p:]
        z_new[p:] = np.sign(tail) * np.maximum(np.abs(tail) - step * lam, 0.0)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        momentum = z_new + ((tk - 1.0) / t_new) * (z_new - z)
        z, tk = z_new, t_new
        best = min(best, objective(z))
    return best


def censoring_surv_left(y, delta, t):
    """Left limit of the censoring-distribution Kaplan-Meier survival at t.

    Unique-time loop; failures shrink the risk set before censorings at the
    same time.
    """
    surv = 1.0
    at_risk = len(y)
    i = 0
    n = len(y)
    while i < n and y[i] < t:
        j = i
        while j < n and y[j] == y[i]:
            j += 1
        deaths = int(np.sum(delta[i:j]))
        censored = (j - i) - deaths
        if censored:
            surv *= 1.0 - censored / (at_risk - deaths)
        at_risk -= j - i
        i = j
    return surv


def psi_double_loop(y, delta, x, beta, alpha):
    """Influence vectors evaluated by direct double sums (sorted inputs).

    Each sum is a function of the evaluation point alone, so it is kept per
    point: tied rows read it once.
    """
    n, p = x.shape
    xi = y - x @ beta - alpha
    g_left = np.array([1.0 - censoring_surv_left(y, delta, y[i]) for i in range(n)])

    @cache
    def cdf_h(t):
        return np.sum(y <= t) / n

    @cache
    def gamma1(t, k):
        total, count = 0.0, 0
        for i in range(n):
            if t < y[i]:
                total += delta[i] * x[i, k] * xi[i] / (1.0 - g_left[i])
                count += 1
        if count == 0:
            return 0.0
        return total / n / (1.0 - cdf_h(t))

    @cache
    def gamma2(t, k):
        total = 0.0
        for i in range(n):
            for j in range(n):
                if y[j] < t and y[j] < y[i]:
                    total += (
                        (1 - delta[j])
                        * delta[i]
                        * x[i, k]
                        * xi[i]
                        / ((1.0 - cdf_h(y[j])) ** 2 * (1.0 - g_left[i]))
                    )
        return total / n**2

    psi = np.zeros((n, p))
    for i in range(n):
        for k in range(p):
            psi[i, k] = (
                x[i, k] * xi[i] * delta[i] / (1.0 - g_left[i])
                + gamma1(y[i], k) * (1 - delta[i])
                - gamma2(y[i], k)
            )
    return psi


def shift_pair(alpha):
    """A dense shift array as ``compute_psi`` takes it: its nonzero entries' ascending
    flat offsets and their values."""
    dense = np.asarray(alpha, dtype=float).ravel()
    rows = np.flatnonzero(dense)
    return rows, dense[rows]


def joint_screened_beta(xw, yw, flagged):
    """Coefficients of min over (b, shifts free on ``flagged``) of the squared error.

    Solved as one least-squares problem on [xw, E] where E selects the
    flagged coordinates.
    """
    n, p = xw.shape
    selector = np.zeros((n, len(flagged)))
    for col, i in enumerate(flagged):
        selector[i, col] = 1.0
    sol, *_ = np.linalg.lstsq(np.hstack([xw, selector]), yw, rcond=None)
    return sol[:p]


def random_instance(rng, n=None, p=None, censored=True, outliers=True):
    """A small random sample: intercept plus normal covariates, optional
    gross outliers and normal censoring tuned to a random uncensored rate."""
    n = int(n if n is not None else rng.integers(10, 51))
    p = int(p if p is not None else rng.integers(1, 4))
    x = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)])
    beta = rng.normal(size=p)
    t = x @ beta + rng.normal(size=n)
    if outliers and rng.random() < 0.7:
        k = int(rng.integers(1, max(2, n // 10)))
        idx = rng.choice(n, size=k, replace=False)
        t[idx] += rng.choice([-1.0, 1.0], size=k) * rng.uniform(5.0, 15.0, size=k)
    if censored:
        c = rng.normal(np.quantile(t, rng.uniform(0.55, 0.98)), 1.0, size=n)
        y = np.minimum(t, c)
        delta = (t <= c).astype(int)
        if delta.sum() < p + 1:
            y, delta = t, np.ones(n, dtype=int)
    else:
        y, delta = t, np.ones(n, dtype=int)
    return SurvivalSample(y=y, delta=delta, x=x)
