"""Scalar loop versions of the batched optimizer code, kept as test oracles.

Each function is the one-row (or one-start) loop that the batched code in
ergopulse replaced.  Tests compare the batched code against them row by
row, so these bodies must not be vectorized.
"""

import itertools
import math

import numpy as np

from ergopulse import matrixcore
from ergopulse.optimizer import STEP_SCALE


def simplex_project(v):
    """Euclidean projection of one row onto the probability simplex."""
    n = v.shape[0]
    mu = np.sort(v)[::-1]
    csum = 0.0
    theta = 0.0
    for i in range(n):
        csum += mu[i]
        t = (csum - 1.0) / (i + 1.0)
        if mu[i] - t > 0.0:
            theta = t
    w = v - theta
    for i in range(n):
        if w[i] < 0.0:
            w[i] = 0.0
    return w


def tv_value(w):
    """w_1 + sum_i |w_{i+1} - w_i| + w_n of one row."""
    v = w[0] + w[w.shape[0] - 1]
    for i in range(w.shape[0] - 1):
        v += abs(w[i + 1] - w[i])
    return v


def tv_descent(w0, step_scale, max_iters, step_tol):
    """Projected subgradient descent for tv_value from one start.

    Returns (best_point, best_value, iterations, smallest_value_seen).
    """
    n = w0.shape[0]
    w = simplex_project(w0.copy())
    for i in range(n):
        if w[i] > 1.0 - 1e-12:
            w[i] = 1.0 - 1e-12
    best = w.copy()
    best_v = tv_value(w)
    min_seen = best_v
    iters = 0
    g = np.empty(n, dtype=np.float64)
    for k in range(1, max_iters + 1):
        iters = k
        for i in range(n):
            g[i] = 0.0
        g[0] += 1.0
        g[n - 1] += 1.0
        for i in range(n - 1):
            diff = w[i + 1] - w[i]
            if diff > 0.0:
                g[i + 1] += 1.0
                g[i] -= 1.0
            elif diff < 0.0:
                g[i + 1] -= 1.0
                g[i] += 1.0
        w_new = simplex_project(w - (step_scale / k) * g)
        for i in range(n):
            if w_new[i] > 1.0 - 1e-12:
                w_new[i] = 1.0 - 1e-12
        v = tv_value(w_new)
        if v < min_seen:
            min_seen = v
        if v < best_v:
            best_v = v
            best[:] = w_new
        moved = 0.0
        for i in range(n):
            delta = abs(w_new[i] - w[i])
            if delta > moved:
                moved = delta
        w = w_new
        if moved < step_tol:
            break
    return best, best_v, iters, min_seen


def fd_descent(objective, starts, max_iters, step_tol):
    """Finite-difference projected descent, one start after another, with
    a scalar objective.  Returns (best_row, best_value, total_iterations)."""

    def clip(w):
        return np.minimum(w, 1.0 - 1e-12)

    best_w = None
    best_v = math.inf
    total_iters = 0
    h = 1e-7
    for w0 in starts:
        n = w0.shape[0]
        w = clip(simplex_project(np.ascontiguousarray(w0, dtype=np.float64)))
        v = objective(w)
        if v < best_v:
            best_v, best_w = v, w.copy()
        grad = np.empty(n)
        for k in range(1, max_iters + 1):
            total_iters += 1
            for i in range(n):
                bump = np.zeros(n)
                bump[i] = h
                grad[i] = (objective(w + bump) - objective(w - bump)) / (2 * h)
            norm = float(np.linalg.norm(grad))
            if norm == 0.0:
                break
            step = STEP_SCALE / (k * norm)
            w_new = clip(simplex_project(w - step * grad))
            v_new = objective(w_new)
            if v_new < best_v:
                best_v, best_w = v_new, w_new.copy()
            moved = float(np.max(np.abs(w_new - w)))
            w = w_new
            if moved < step_tol:
                break
    return best_w, best_v, total_iters


def schedule_series_terms(a, scale, i_max):
    """(tv_term, c_series_sum, total_rhs) of one weight row."""
    n = a.shape[0]
    if scale == 0.0:
        return 0.0, 0.0, 0.0
    tv = float(a[0] + np.abs(np.diff(a)).sum() + a[-1])
    tv_term = math.expm1(scale * tv)
    diffs = np.abs(np.diff(a))
    prefix = np.concatenate([[0.0], np.cumsum(diffs)])
    lead = np.empty(n - 1)
    lead[0] = 2.0 * a[0]
    if n > 2:
        steps = np.arange(2, n)
        lead[1:] = a[0] + prefix[steps - 1] + a[steps - 1]
    follow = 2.0 * a[1:]
    worst = float((lead + follow).max()) * scale
    if worst >= i_max + 2:
        raise ValueError(
            "tail majorant invalid: per-step norms reach %.6g >= i_max + 2 = %d; "
            "raise i_max" % (worst, i_max + 2)
        )
    series = matrixcore._defect_series_batch(lead * scale, follow * scale, i_max)
    if n > 2:
        c_series = math.exp(2.0 * scale) * float(series[:-1].sum()) + float(
            series[-1]
        )
    else:
        c_series = float(series[-1])
    return tv_term, c_series, c_series + tv_term


def simplex_lattice(n, steps):
    """Every lattice row with spacing 1/steps, by placing n - 1 bars among
    steps + n - 1 slots."""
    for bars in itertools.combinations(range(steps + n - 1), n - 1):
        prev = -1
        counts = np.empty(n, dtype=np.float64)
        for i, b in enumerate(bars):
            counts[i] = b - prev - 1
            prev = b
        counts[n - 1] = steps + n - 2 - prev
        yield counts / steps
