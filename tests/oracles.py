"""Earlier versions of ergopulse code, kept as test oracles.

Most functions are the one-row (or one-start) loops that the batched
code in ergopulse replaced; tests compare the batched code against them
row by row, so these bodies must not be vectorized.  The bound and limit
oracles at the end derive the spectrum, commutant part and potential of
a system afresh on every call, as the code did before PulseSystem
cached them, through commutant_project and solve_coboundary here: the
sum of P x P over the cluster projectors of u (cluster_projectors, formed
from the spectrum's basis and labels), and the division of the
cross-cluster entries of V* w V by 1 - lambda_i conj(lambda_j), which
ergopulse.ergodic replaced by one entrywise multiplier step.
spectrum_clusters is the per-chain loop that labelled the eigenphase
clusters and took their phases before ergopulse.ergodic._spectrum did it
with one reduceat per quantity; the two must agree bit for bit.
conj_weighted_sum is no earlier version: it is the literal per-term sum
in extended precision, an independent reference for the eigenbasis
kernel.  chain_product is the per-pulse loop that the blocked pairwise
tree in ergopulse._kernels replaced, and chain_tree is that tree as it
was before it shared repeated pairs and blocks: it multiplies every
pair, and the shared tree must match it bit for bit.
expm_pade13 and pulse_product_taylor are independent references for
matrixcore.expm and pulse_product: the former is the hand-written
Pade-13 kernel that matrixcore.expm used before it became
scipy.linalg.expm, the latter builds every factor from its Taylor sum.
expm_multiples is the reference for the scalar-multiples form of
matrixcore.expm: scipy.linalg.expm on each c a in turn.
tv_value adds one difference at a time, so it rounds unlike the
pairwise sum of ergopulse._kernels.tv_value and is compared within a
tolerance.  defect_series_truncated is the defect series as matrixcore
summed it before the closed form: orders up to i_max plus a tail
majorant.
The *_stacked functions at the end are the stacked bound-descent code
(_defect_series_batch, _step_norms, _schedule_series_terms,
simplex_project, tv_value and _descend_fd) as it was before its numpy
calls were cut, and minimize_bound_rhs_stacked composes them into the
bound minimizer; the package must match them bit for bit.  laid_out
gives a stack in C, Fortran or strided layout.
"""

import itertools
import math

import numpy as np
import scipy.linalg

from ergopulse import matrixcore
from ergopulse.ergodic import COBOUNDARY_TOL, spectrum
from ergopulse.errors import ClusteringAmbiguityError, NotACoboundaryError
from ergopulse.optimizer import STEP_SCALE

# x86-64 long doubles carry a 64-bit mantissa (eps 1.08e-19); where
# np.longdouble is float64, conj_weighted_sum below is no reference
LONGDOUBLE_IS_WIDE = np.finfo(np.longdouble).eps <= 1e-18


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


def defect_series_truncated(a, b, i_max):
    """S(a, b) for paired norm arrays: the orders 2..i_max of the series
    as one einsum over power tables, plus the geometric tail majorant
    2 e^s s^(i_max+1)/(i_max+1)! (i_max+2)/(i_max+2-s), s = a + b, which
    needs s < i_max + 2.  Zero where either norm is zero."""
    if float((a + b).max(initial=0.0)) >= i_max + 2:
        raise ValueError("tail majorant invalid for a + b >= i_max + 2")
    c = np.zeros((i_max + 1, i_max + 1))
    for j in range(1, i_max):
        for k in range(1, i_max + 1 - j):
            c[j, k] = 2.0 * (math.comb(j + k, j) - 1) / math.factorial(j + k)
    out = np.zeros_like(a)
    live = (a > 0.0) & (b > 0.0)
    av, bv = a[live], b[live]
    exponents = np.arange(i_max + 1)[:, None]
    a_pow, b_pow = av[None, :] ** exponents, bv[None, :] ** exponents
    total = np.einsum("jk,jm,km->m", c, a_pow, b_pow)
    s = av + bv
    tail = (
        2.0
        * np.exp(s)
        * s ** (i_max + 1)
        / math.factorial(i_max + 1)
        * (i_max + 2)
        / (i_max + 2 - s)
    )
    out[live] = total + tail
    return out


def schedule_series_terms(a, scale):
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
    series = matrixcore._defect_series_batch(lead * scale, follow * scale)
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
    """sum of w[k-1] * p^k x (p^k)* over k = 1..len(w), one term at a time
    in np.clongdouble, where p is the unitary polar factor of u from four
    Newton-Schulz steps p <- p (3I - p* p) / 2.

    A reference only where the long double is wider than float64
    (LONGDOUBLE_IS_WIDE); otherwise it rounds like the code it checks.
    """
    d = u.shape[0]
    eye = np.eye(d, dtype=np.clongdouble)
    p = u.astype(np.clongdouble)
    for _ in range(4):
        p = p @ (3 * eye - p.conj().T @ p) / 2
    xx = x.astype(np.clongdouble)
    power = eye
    acc = np.zeros((d, d), dtype=np.clongdouble)
    for k in range(w.shape[0]):
        power = p @ power
        acc += w[k] * (power @ xx @ power.conj().T)
    return acc.astype(np.complex128)


def chain_product(u, factors, idx):
    """Left-to-right product u.factors[idx[0]].u.factors[idx[1]]...., one
    matrix product at a time."""
    d = u.shape[0]
    out = np.eye(d, dtype=np.complex128)
    for k in range(idx.shape[0]):
        out = np.dot(out, u)
        out = np.dot(out, factors[idx[k]])
    return out


def chain_tree(u, factors, idx, block=256):
    """Left-to-right product u.factors[idx[0]].u.factors[idx[1]]...., as
    a pairwise tree over blocks of block pulses that multiplies every
    pair."""
    uf = np.matmul(u, factors)
    out = np.eye(u.shape[0], dtype=np.complex128)
    for start in range(0, idx.shape[0], block):
        m = uf[idx[start : start + block]]
        while m.shape[0] > 1:
            half = m.shape[0] // 2
            pairs = np.matmul(m[0 : 2 * half : 2], m[1 : 2 * half : 2])
            if m.shape[0] % 2:
                # the odd leftover is the block's last factor
                pairs[-1] = np.dot(pairs[-1], m[-1])
            m = pairs
        out = np.dot(out, m[0])
    return out


def expm_multiples(a, scalars):
    """The stack of e^(c a), one scipy.linalg.expm call per scalar c."""
    return np.stack([scipy.linalg.expm(c * a) for c in scalars])


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


def spectrum_clusters(u, cluster_tol):
    """(col_labels, cluster_phases) of a unitary u, chain by chain: walk
    the sorted eigenphases from just past the first gap wider than
    cluster_tol, start a chain at each such gap, refuse the first chain
    that spans more than cluster_tol, and take base + mean offset as its
    phase.  Raises ClusteringAmbiguityError as ergopulse.ergodic.spectrum
    does."""
    tri, _vecs = scipy.linalg.schur(np.asarray(u, dtype=np.complex128), output="complex")
    phases = np.angle(np.diag(tri)) % (2 * np.pi)
    d = phases.shape[0]
    order = np.argsort(phases, kind="stable")
    sorted_phases = phases[order]
    wrap_gap = 2 * np.pi - sorted_phases[-1] + sorted_phases[0]
    wide = np.append(np.diff(sorted_phases), wrap_gap) > cluster_tol
    if d > 1 and not wide.any():
        raise ClusteringAmbiguityError(sorted_phases, cluster_tol)
    walk = (np.arange(d) + int(np.argmax(wide)) + 1) % d
    chain_ids = np.concatenate(([0], np.cumsum(wide[walk[:-1]])))
    reps = []
    for c in range(chain_ids[-1] + 1):
        chain = walk[chain_ids == c]
        base = sorted_phases[chain[0]]
        offsets = (sorted_phases[chain] - base) % (2 * np.pi)
        if offsets.max() > cluster_tol:
            raise ClusteringAmbiguityError(sorted_phases[chain], cluster_tol)
        reps.append((base + offsets.mean()) % (2 * np.pi))
    rank = np.argsort(np.asarray(reps), kind="stable")
    labels = np.empty(d, dtype=np.int64)
    labels[order[walk]] = np.argsort(rank)[chain_ids]
    return labels, np.asarray(reps)[rank]


def cluster_projectors(spec):
    """V_k V_k* for every label k, V_k = spec.basis[:, spec.col_labels == k]:
    the orthogonal projector onto cluster k's eigenspace."""
    labels = range(spec.cluster_phases.shape[0])
    blocks = (spec.basis[:, spec.col_labels == k] for k in labels)
    return [v @ v.conj().T for v in blocks]


def commutant_project(spec, x):
    """Sum of P x P over the cluster projectors P of u."""
    out = np.zeros_like(x, dtype=np.complex128)
    for proj in cluster_projectors(spec):
        out += proj @ x @ proj
    return out


def solve_coboundary(spec, w):
    """y with y - u y u* = w: the cross-cluster entries of V* w V divided by
    1 - lambda_i conj(lambda_j), the rest 0.  w must pass the coboundary
    rule, with its commutant part projected as above."""
    w = np.asarray(w, dtype=np.complex128)
    resid = matrixcore.op_norm(commutant_project(spec, w))
    norm_w = matrixcore.op_norm(w)
    if resid > COBOUNDARY_TOL * norm_w:
        raise NotACoboundaryError(resid, norm_w, COBOUNDARY_TOL)
    basis = spec.basis
    in_eigenbasis = basis.conj().T @ w @ basis
    lam = np.exp(1j * spec.col_phases)
    divisors = 1.0 - np.outer(lam, lam.conj())
    cross = spec.col_labels[:, None] != spec.col_labels[None, :]
    solved = np.zeros_like(in_eigenbasis)
    solved[cross] = in_eigenbasis[cross] / divisors[cross]
    return basis @ solved @ basis.conj().T


def limit_evolution(sys, n):
    """e^{P(X) t} u^n, with P(X) projected afresh."""
    projected = commutant_project(spectrum(sys.u), sys.generator)
    return matrixcore.expm(projected * sys.t) @ np.linalg.matrix_power(sys.u, n)


def equidistant_bound_constants(sys):
    """(m_const, m_prime_const) from a fresh split of the generator."""
    spec = spectrum(sys.u)
    fixed = commutant_project(spec, sys.generator)
    return _rate_constants(
        matrixcore.op_norm(sys.generator),
        matrixcore.op_norm(fixed),
        matrixcore.op_norm(solve_coboundary(spec, sys.generator - fixed)),
        abs(sys.t),
    )


def schedule_bound_rhs(sys, s):
    """(m_const, m_prime_const, tv_term, c_series_sum, total_rhs), with the
    potential solved from the generator itself, which must pass the
    relative coboundary rule."""
    spec = spectrum(sys.u)
    norm_x = matrixcore.op_norm(sys.generator)
    norm_p = matrixcore.op_norm(commutant_project(spec, sys.generator))
    if norm_p > COBOUNDARY_TOL * norm_x:
        raise NotACoboundaryError(norm_p, norm_x, COBOUNDARY_TOL)
    norm_y = matrixcore.op_norm(solve_coboundary(spec, sys.generator))
    abs_t = abs(sys.t)
    m, m_prime = _rate_constants(norm_x, norm_p, norm_y, abs_t)
    return (m, m_prime) + schedule_series_terms(s.weights, abs_t * norm_y)


# -- the stacked bound-descent kernels before their numpy calls were cut --

LAYOUTS = ("C", "F", "strided")


def laid_out(x, layout):
    """x as a C-ordered, Fortran-ordered, or non-contiguous (every other
    row and column of a larger array) stack of the same values."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        big = np.full(tuple(2 * k for k in x.shape), np.nan)
        big[tuple(slice(None, None, 2) for _ in x.shape)] = x
        return big[tuple(slice(None, None, 2) for _ in x.shape)]
    return np.ascontiguousarray(x)



def defect_series_stacked(a, b):
    """matrixcore._defect_series_batch with both phi2 branches evaluated
    on every entry of np.stack([lo, -d]) and one picked by np.where."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    d = hi - lo
    y = np.stack([lo, -d])
    # both phi2 branches run everywhere; the discarded one may overflow
    # or divide 0/0
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.full_like(y, matrixcore._PHI2_TAYLOR[0])
        for c in matrixcore._PHI2_TAYLOR[1:]:
            phi *= y
            phi += c
        phi = np.where(np.abs(y) < 1.0, phi, (np.expm1(y) / y - 1.0) / y)
        inner = (lo * phi[0] + d * phi[1]) * np.exp(hi) * (2.0 + 2.0**-46)
        out = lo * inner + np.finfo(np.float64).smallest_subnormal
    return np.where(lo > 0.0, out, 0.0)


def step_norms_stacked(a):
    """evolution._step_norms with np.diff and a fresh prefix sum."""
    m, n = a.shape
    diffs = np.abs(np.diff(a, axis=1))
    lead = np.empty((m, n - 1))
    lead[:, 0] = 2.0 * a[:, 0]
    lead[:, 1:] = a[:, :1] + np.cumsum(diffs[:, :-1], axis=1) + a[:, 1:-1]
    return lead, 2.0 * a[:, 1:]


def schedule_series_terms_stacked(a, scale):
    """evolution._schedule_series_terms over the stacked oracles here."""
    m, n = a.shape
    if scale == 0.0:
        return np.zeros(m), np.zeros(m), np.zeros(m)
    lead, follow = step_norms_stacked(a)
    series = defect_series_stacked(lead * scale, follow * scale)
    c_series = series[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        tv_term = np.expm1(scale * tv_value_stacked(a))
        if n > 2:
            # e^(2 scale) overflows from scale 354.89; a zero sum stays 0
            prefactor = math.exp(2.0 * scale) if scale < 354.0 else math.inf
            partial = series[:, :-1].sum(axis=1)
            c_series = np.where(partial > 0.0, prefactor * partial, 0.0) + c_series
    return tv_term, c_series, c_series + tv_term


def simplex_project_stacked(v):
    """_kernels.simplex_project with theta read by np.take_along_axis."""
    n = v.shape[-1]
    mu = -np.sort(-v, axis=-1)
    t = (np.cumsum(mu, axis=-1) - 1.0) / np.arange(1.0, n + 1.0)
    keep = mu - t > 0.0
    last = n - 1 - np.argmax(keep[..., ::-1], axis=-1)
    theta = np.take_along_axis(t, last[..., None], axis=-1)
    theta = np.where(keep.any(axis=-1, keepdims=True), theta, 0.0)
    w = v - theta
    return np.where(w < 0.0, 0.0, w)


def tv_value_stacked(w):
    """_kernels.tv_value with np.diff."""
    w = np.ascontiguousarray(w)
    # abs in place: lattice certification scores chunks of tens of
    # thousands of rows, where a second (m, n - 1) temporary shows in
    # peak memory
    steps = np.diff(w, axis=-1)
    return w[..., 0] + np.abs(steps, out=steps).sum(axis=-1) + w[..., -1]


def descend_fd_stacked(objective, starts, max_iters, step_tol):
    """optimizer._descend_fd with np.concatenate for every call's rows,
    every compaction made, and no stop for a non-finite gradient norm."""

    def _clip_row(w):
        return np.minimum(w, 1.0 - 1e-12)

    m, n = starts.shape
    h = 1e-7
    w = _clip_row(simplex_project_stacked(starts))
    best = w.copy()
    best_v = np.full(m, np.inf)
    live = np.arange(m)
    # rows scored with the next call, and the starts they belong to
    pending, owner = w, live
    shifts = h * np.eye(n)
    total = 0

    def record(values, rows, idx):
        better = values < best_v[idx]
        best_v[idx[better]] = values[better]
        best[idx[better]] = rows[better]

    for k in range(1, max_iters + 1):
        if live.size == 0:
            break
        total += live.size
        bumped = np.concatenate(
            [w[:, None, :] + shifts, w[:, None, :] - shifts]
        ).reshape(-1, n)
        values = objective(np.concatenate([bumped, pending]))
        record(values[bumped.shape[0]:], pending, owner)
        plus, minus = values[: bumped.shape[0]].reshape(2, live.size, n)
        grad = (plus - minus) / (2 * h)
        # row-wise dot products round as np.linalg.norm does on one row
        norm = np.sqrt(grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
        moving = norm != 0.0
        w, grad, norm, live = w[moving], grad[moving], norm[moving], live[moving]
        step = STEP_SCALE / (k * norm)
        w_new = _clip_row(simplex_project_stacked(w - step[:, None] * grad))
        pending, owner = w_new, live
        going = ~(np.max(np.abs(w_new - w), axis=1) < step_tol)
        w = w_new[going]
        live = live[going]
    if pending.shape[0]:
        record(objective(pending), pending, owner)
    i = int(np.argmin(best_v))
    return best[i], float(best_v[i]), total


def minimize_bound_rhs_stacked(sys, n, config):
    """(value, minimizer weights, iterations_used, certified_by_grid) of
    optimizer.minimize_bound_rhs, its objective and descent built from the
    stacked oracles here; the starts, the orientation tie-break and the
    certification are the package's own."""
    from ergopulse.optimizer import _canonical_orientation, _certify, _starts
    from ergopulse.optimizer import STEP_TOL

    scale = abs(sys.t) * sys.potential_norm

    def objective(w):
        rows = np.minimum(np.asarray(w, dtype=np.float64), 1.0 - 1e-12)
        rows = rows / rows.sum(axis=1, keepdims=True)
        return schedule_series_terms_stacked(rows, scale)[2]

    best_w, best_v, total_iters = descend_fd_stacked(
        objective, _starts(n, config), config.max_iters, STEP_TOL
    )
    best_w, best_v = _canonical_orientation(best_w, best_v, objective, STEP_TOL)
    certified = _certify(n, config.grid_resolution, objective, best_v)
    weights = np.minimum(best_w, 1.0 - 1e-12)
    return float(best_v), weights, total_iters, certified
