"""Hot numerical kernels in plain numpy.

conj_weighted_sum evaluates a weighted conjugation orbit as a blocked
sqrt(N) sum: with B = ceil(sqrt(N)) and U = u^B, every term index is
k = qB + r with 1 <= r <= B, so

    sum_k w_k u^k x u^-k = sum_q U^q (sum_r w_{qB+r} u^r x u^-r) U^-q.

The B small conjugates u^r x u^-r are one stacked matmul, the inner
sums of all full blocks are one (Q-1 x B) @ (B x d^2) product over the
weights (the last block takes only the weights it has), and only the
Q = ceil(N / B) outer terms are a Python loop.  Running powers are
polar-corrected, on the schedule stated at RENORM_EVERY, so that none
drifts off the unitary group over long orbits.

chain_product forms u F_k for the distinct factors in one stacked matmul,
then walks the index row in blocks of CHAIN_BLOCK: each block's
u F_{idx[k]} are gathered and reduced pairwise, (m0 m1)(m2 m3)..., one
stacked matmul per tree level, and the block results are multiplied
into the running product left to right.  The factor order never
changes; only the rounding follows a tree instead of a chain.
simplex_project and tv_value, the optimizer kernels, work on stacks of
rows with whole-array operations; tv_value is the package's one
total-variation sum.  Matrix exponentials are not a kernel here:
matrixcore.expm is scipy.linalg.expm.
"""

from __future__ import annotations

import math

import numpy as np


# Re-unitarize a running power of u after at most this many
# multiplications by u; drift over 1e5 multiplications is otherwise
# visible in the last few digits.  conj_weighted_sum corrects the small
# powers u^r every RENORM_EVERY steps and the block powers U^q = u^(qB)
# every max(1, RENORM_EVERY // B) blocks.
RENORM_EVERY = 1024

# Pulses per block of the pairwise chain product: memory is
# O(CHAIN_BLOCK d^2) besides the distinct factors, and the Python loop
# runs N / CHAIN_BLOCK times.  Blocks of 64, 1024 and 8192 were slower on
# rows of N = 16..4096 with d = 2..8.
CHAIN_BLOCK = 256


def _polar(p):
    """Nearest unitary to p: the polar factor left @ right of its SVD."""
    left, _sig, right = np.linalg.svd(p)
    return np.dot(left, right)


def conj_weighted_sum(u, x, w):
    """sum of w[k-1] * u^k x (u^k)* over k = 1..len(w), for real weights w.

    Blocked sqrt(N) evaluation (see the module docstring).  Besides w
    itself it holds O(sqrt(N) d^2) memory, never an (N, d, d) stack.
    """
    d = u.shape[0]
    n = w.shape[0]
    b = math.isqrt(n - 1) + 1
    q_count = -(-n // b)

    powers = np.empty((b, d, d), dtype=np.complex128)
    powers[0] = u
    for r in range(1, b):
        np.dot(u, powers[r - 1], out=powers[r])
        if (r + 1) % RENORM_EVERY == 0:
            powers[r] = _polar(powers[r])
    adjoints = np.conj(powers).transpose(0, 2, 1)
    conjugates = np.matmul(np.matmul(powers, x), adjoints)

    # complex128 viewed as interleaved float64 pairs, so the real weights
    # multiply real and imaginary parts in one real product.  The last,
    # partial block reads its weights in place, so w is never copied into
    # a padded array.  einsum rather than matmul: a BLAS gemm of this
    # shape touches about 1 MB of the BLAS packing buffer, which then
    # stays resident for the life of the process.
    flat = conjugates.reshape(b, d * d).view(np.float64)
    full = (q_count - 1) * b
    inner = np.empty((q_count, 2 * d * d))
    np.einsum("qr,rk->qk", w[:full].reshape(q_count - 1, b), flat, out=inner[:-1])
    np.einsum("r,rk->k", w[full:], flat[: n - full], out=inner[-1])
    inner = inner.view(np.complex128).reshape(q_count, d, d)

    block = powers[b - 1]
    every = max(1, RENORM_EVERY // b)
    acc = inner[0].copy()
    p = block
    for q in range(1, q_count):
        acc += np.dot(np.dot(p, inner[q]), np.conj(p).T)
        if q + 1 < q_count:
            p = np.dot(p, block)
            if (q + 1) % every == 0:
                p = _polar(p)
    return acc


def chain_product(u, factors, idx):
    """Left-to-right product u.factors[idx[0]].u.factors[idx[1]]....

    Blocked pairwise tree (see the module docstring).  Besides the stack
    u @ factors it holds O(CHAIN_BLOCK d^2) memory, never an (N, d, d)
    stack.
    """
    uf = np.matmul(u, factors)
    out = np.eye(u.shape[0], dtype=np.complex128)
    for start in range(0, idx.shape[0], CHAIN_BLOCK):
        m = uf[idx[start : start + CHAIN_BLOCK]]
        while m.shape[0] > 1:
            half = m.shape[0] // 2
            pairs = np.matmul(m[0 : 2 * half : 2], m[1 : 2 * half : 2])
            if m.shape[0] % 2:
                # the odd leftover is the block's last factor
                pairs[-1] = np.dot(pairs[-1], m[-1])
            m = pairs
        out = np.dot(out, m[0])
    return out


def simplex_project(v):
    """Row-wise Euclidean projection onto the probability simplex.

    Sort and threshold (Condat, Math. Prog. 2016) on every row of an
    (..., n) array at once: theta is the last running threshold
    (cumsum - 1) / k that leaves the k-th largest entry positive.
    """
    n = v.shape[-1]
    mu = -np.sort(-v, axis=-1)
    t = (np.cumsum(mu, axis=-1) - 1.0) / np.arange(1.0, n + 1.0)
    keep = mu - t > 0.0
    last = n - 1 - np.argmax(keep[..., ::-1], axis=-1)
    theta = np.take_along_axis(t, last[..., None], axis=-1)
    theta = np.where(keep.any(axis=-1, keepdims=True), theta, 0.0)
    w = v - theta
    return np.where(w < 0.0, 0.0, w)


def tv_value(w):
    """w_1 + sum_i |w_{i+1} - w_i| + w_n for every row of an (..., n) array.

    The stack is made C-ordered first (no copy when it already is), so
    each row's differences are summed as that row alone would be and a
    stacked call returns the per-row values bit for bit.
    """
    w = np.ascontiguousarray(w)
    # abs in place: lattice certification scores chunks of tens of
    # thousands of rows, where a second (m, n - 1) temporary shows in
    # peak memory
    steps = np.diff(w, axis=-1)
    return w[..., 0] + np.abs(steps, out=steps).sum(axis=-1) + w[..., -1]
