"""Earlier versions of ergopulse code, kept as test oracles.

Most functions are the one-row (or one-start) loops that the batched
code in ergopulse replaced; tests compare the batched code against them
row by row, so these bodies must not be vectorized.  The bound and limit
oracles at the end derive the spectrum, commutant part and potential of
a system afresh on every call, as the code did before PulseSystem
cached them.  chain_product is the per-pulse loop that the blocked
pairwise tree in ergopulse._kernels replaced.  expm_pade13 and
pulse_product_taylor are independent references for matrixcore.expm and
pulse_product: the former is the hand-written Pade-13 kernel that
matrixcore.expm used before it became scipy.linalg.expm, the latter
builds every factor from its Taylor sum.
"""

import itertools
import math

import numpy as np

from ergopulse import matrixcore
from ergopulse._kernels import RENORM_EVERY
from ergopulse.ergodic import (
    COBOUNDARY_TOL,
    commutant_project,
    solve_coboundary,
    spectrum,
    yosida_split,
)
from ergopulse.errors import NotACoboundaryError
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


def conj_weighted_sum(u, x, w):
    """sum of w[k-1] * u^k x (u^k)* over k = 1..len(w), one term at a time.

    The running power and its adjoint are tracked incrementally instead of
    recomputing u^k, and the power is re-unitarized (polar correction via
    SVD) every RENORM_EVERY steps.
    """
    d = u.shape[0]
    uh = np.ascontiguousarray(np.conj(u).T)
    p = np.eye(d, dtype=np.complex128)
    q = np.eye(d, dtype=np.complex128)
    acc = np.zeros((d, d), dtype=np.complex128)
    for k in range(w.shape[0]):
        p = np.dot(u, p)
        q = np.dot(q, uh)
        if (k + 1) % RENORM_EVERY == 0:
            left, _sig, right = np.linalg.svd(p)
            p = np.ascontiguousarray(np.dot(left, right))
            q = np.ascontiguousarray(np.conj(p).T)
        acc += w[k] * np.dot(np.dot(p, x), q)
    return acc


def chain_product(u, factors, idx):
    """Left-to-right product u.factors[idx[0]].u.factors[idx[1]]...., one
    matrix product at a time."""
    d = u.shape[0]
    out = np.eye(d, dtype=np.complex128)
    for k in range(idx.shape[0]):
        out = np.dot(out, u)
        out = np.dot(out, factors[idx[k]])
    return out


def expm_pade13(a):
    """Scaling and squaring around the degree-13 Pade approximant, with
    the 1-norm taken by a double loop over the entries."""
    d = a.shape[0]
    b = [
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    ]
    eye = np.eye(d, dtype=np.complex128)
    norm1 = 0.0
    for j in range(d):
        col = 0.0
        for i in range(d):
            col += abs(a[i, j])
        if col > norm1:
            norm1 = col
    squarings = 0
    if norm1 > 5.371920351148152:
        squarings = int(np.ceil(np.log2(norm1 / 5.371920351148152)))
    m = a / (2.0**squarings)
    m2 = np.dot(m, m)
    m4 = np.dot(m2, m2)
    m6 = np.dot(m2, m4)
    odd = np.dot(m6, b[13] * m6 + b[11] * m4 + b[9] * m2)
    odd = odd + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye
    odd = np.dot(m, odd)
    even = np.dot(m6, b[12] * m6 + b[10] * m4 + b[8] * m2)
    even = even + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * eye
    r = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        r = np.dot(r, r)
    return r


def pulse_product_taylor(sys, s, terms=12):
    """u e^{a_1 X t} u e^{a_2 X t} ... with every factor the Taylor sum
    of (a_k X t)^j / j! over j < terms, multiplied one step at a time.

    Only meant for weights small enough that the dropped orders sit far
    below roundoff.
    """
    d = sys.dim
    acc = np.eye(d, dtype=np.complex128)
    for a in s.weights:
        m = a * sys.t * sys.generator
        term = np.eye(d, dtype=np.complex128)
        factor = term.copy()
        for j in range(1, terms):
            term = term @ m / j
            factor = factor + term
        acc = acc @ sys.u @ factor
    return acc


def _rate_constants(norm_x, norm_x0, norm_y, abs_t):
    m = 4.0 * abs_t**2 * math.exp(2.0 * abs_t * norm_y) * norm_y**2
    m += 2.0 * norm_y * abs_t
    m_prime = math.exp(norm_x * abs_t) * (
        m + 2.0 * abs_t**2 * norm_y * (2.0 * norm_y + 3.0 * norm_x0)
    )
    return m, m_prime


def limit_evolution(sys, n):
    """e^{P(X) t} u^n, with P(X) projected afresh."""
    projected = commutant_project(spectrum(sys.u), sys.generator)
    return matrixcore.expm(projected * sys.t) @ np.linalg.matrix_power(sys.u, n)


def equidistant_bound_constants(sys):
    """(m_const, m_prime_const) from a fresh yosida_split of the generator."""
    split = yosida_split(spectrum(sys.u), sys.generator)
    return _rate_constants(
        matrixcore.op_norm(sys.generator),
        matrixcore.op_norm(split.fixed_part),
        matrixcore.op_norm(split.potential),
        abs(sys.t),
    )


def schedule_bound_rhs(sys, s, i_max=40):
    """(m_const, m_prime_const, tv_term, c_series_sum, total_rhs), with the
    potential solved from the generator itself."""
    spec = spectrum(sys.u)
    norm_p = matrixcore.op_norm(commutant_project(spec, sys.generator))
    if norm_p >= COBOUNDARY_TOL:
        raise NotACoboundaryError(norm_p)
    norm_y = matrixcore.op_norm(solve_coboundary(spec, sys.generator))
    abs_t = abs(sys.t)
    m, m_prime = _rate_constants(
        matrixcore.op_norm(sys.generator), norm_p, norm_y, abs_t
    )
    return (m, m_prime) + schedule_series_terms(s.weights, abs_t * norm_y, i_max)
