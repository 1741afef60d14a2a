"""Hot numerical kernels in plain numpy.

conj_weighted_sum sums a weighted conjugation orbit in the eigenbasis of
u, as a blocked sqrt(N) split on d^2 scalars: no matrix power drifts.

chain_product forms u F_k for the distinct factors in one stacked matmul,
then walks the index row in blocks of CHAIN_BLOCK: each block is reduced
pairwise, (m0 m1)(m2 m3)..., one stacked matmul per tree level, and the
block results are multiplied into the running product left to right.
The factor order never changes; only the rounding follows a tree
instead of a chain.  Repeats are multiplied once: while a level's table
of k distinct matrices has k^2 < h for its h pairs, pairs must repeat,
and each distinct pair is one slice of that level's matmul; equal blocks
are reduced once, through a memo keyed on their index bytes.  So an
equidistant row of N pulses costs one block and N / CHAIN_BLOCK products,
and a row of many distinct weights pays one comparison per level.  Every
product keeps its operands and its matmul or dot call, so the result is
bit-identical to the tree that multiplies every pair.  Memory stays
O(CHAIN_BLOCK d^2) besides the distinct factors and the memo, which
holds one d x d result and one CHAIN_BLOCK-index key per distinct block
(at most the size of the index row).

simplex_project and tv_value, the optimizer kernels, work on stacks of
rows with whole-array operations; tv_value is the package's one
total-variation sum.  Matrix exponentials are not a kernel here: they
live in matrixcore.expm, whose scalar-multiples form runs the Taylor
factors of pulse_product as one matrix product per Horner level.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


# Pulses per block of the pairwise chain product: memory is
# O(CHAIN_BLOCK d^2) besides the distinct factors, and the Python loop
# runs N / CHAIN_BLOCK times.  Blocks of 64, 1024 and 8192 were slower on
# rows of N = 16..4096 with d = 2..8.
CHAIN_BLOCK = 256


def conj_weighted_sum(u, x, w):
    """sum of w[k-1] * u^k x (u^k)* over k = 1..len(w), for real weights w.

    With u = V diag(lam) V* from the complex Schur form, the sum is
    V (V* x V o G) V*, o the entrywise product, G_ij = sum_k w_k z_ij^k
    and z_ij = lam_i conj(lam_j).  With B = ceil(sqrt(N)) and k = qB + r
    (1 <= r <= B), G = sum_q z^(qB) sum_r w_{qB+r} z^r: the inner sums of
    all full blocks are one (Q-1 x B) @ (B x d^2) product over the
    weights, and the Q = ceil(N / B) outer terms one entrywise product.
    Besides w it holds O(sqrt(N) d^2) memory.

    The strictly upper part of the Schur form is dropped and every lam
    scaled to modulus one, so the result is the exact mean of the
    unitary V diag(lam/|lam|) V*, which is u to within u's own distance
    from the unitary group.
    """
    d = u.shape[0]
    n = w.shape[0]
    b = math.isqrt(n - 1) + 1
    q_count = -(-n // b)

    tri, vecs = scipy.linalg.schur(u, output="complex")
    lam = np.diag(tri) / np.abs(np.diag(tri))
    z = np.outer(lam, lam.conj()).reshape(d * d)
    # running products, not exp(i k phase): powers of exact roots of
    # unity such as 1j stay exact, so periodic orbits cancel exactly
    powers = np.cumprod(np.broadcast_to(z, (b, d * d)), axis=0)

    # complex128 viewed as float64 pairs, so the real weights multiply real
    # and imaginary parts in one real product; the partial last block reads
    # its weights in place.  einsum, not matmul: a BLAS gemm of this shape
    # keeps about 1 MB of packing buffer resident for the process's life.
    flat = powers.view(np.float64)
    full = (q_count - 1) * b
    inner = np.empty((q_count, 2 * d * d))
    np.einsum("qr,rk->qk", w[:full].reshape(q_count - 1, b), flat, out=inner[:-1])
    np.einsum("r,rk->k", w[full:], flat[: n - full], out=inner[-1])
    inner = inner.view(np.complex128)

    steps = np.broadcast_to(powers[-1], (q_count - 1, d * d))
    mix = inner[0] + (inner[1:] * np.cumprod(steps, axis=0)).sum(axis=0)
    adj = vecs.conj().T
    return vecs @ ((adj @ x @ vecs) * mix.reshape(d, d)) @ adj


def chain_product(u, factors, idx):
    """Left-to-right product u.factors[idx[0]].u.factors[idx[1]]....

    Blocked pairwise tree that multiplies each repeated pair and each
    repeated block once (see the module docstring and _block_product).
    Every product has the same operands, and is made by the same matmul
    or dot call, as in the tree that multiplies every pair, so the result
    is bit-identical to it.  Besides the stack u @ factors and the memo
    it holds O(CHAIN_BLOCK d^2) memory, never an (N, d, d) stack.
    """
    uf = np.matmul(u, factors)
    out = np.eye(u.shape[0], dtype=np.complex128)
    blocks = {}
    for start in range(0, idx.shape[0], CHAIN_BLOCK):
        ids = idx[start : start + CHAIN_BLOCK]
        key = ids.tobytes()
        if key not in blocks:
            blocks[key] = _block_product(uf, ids)
        out = np.dot(out, blocks[key])
    return out


def _block_product(table, ids):
    """table[ids[0]] table[ids[1]] ... by the pairwise tree.

    While the k-entry table has k^2 < h for the level's h pairs, pairs
    must repeat: each pair is coded left * k + right, each distinct code
    multiplied once, and the codes' ranks are the next level's ids (a
    one-entry table needs no codes: its one pair is (0, 0)).  From
    the first level with k^2 >= h on, the level is the table itself, so
    k^2 >= h holds at every later level, and the plain strided loop runs.
    """
    while ids.shape[0] > 1:
        k = table.shape[0]
        half = ids.shape[0] // 2
        if k * k >= half:
            break
        if k == 1:
            # every pair is (0, 0): without the code table, short
            # equidistant rows cost no more than in the unshared tree
            pairs = np.matmul(table, table)
            next_ids = np.zeros(half, dtype=np.intp)
        else:
            codes = ids[0 : 2 * half : 2] * k + ids[1 : 2 * half : 2]
            rank = np.zeros(k * k, dtype=np.intp)
            rank[codes] = 1
            code = np.flatnonzero(rank)
            rank[code] = np.arange(code.shape[0])
            left, right = np.divmod(code, k)
            pairs = np.matmul(table.take(left, axis=0), table.take(right, axis=0))
            next_ids = rank[codes]
        if ids.shape[0] % 2:
            # the odd leftover is the block's last factor
            last = np.dot(pairs[next_ids[-1]], table[ids[-1]])
            pairs = np.concatenate([pairs, last[None]])
            next_ids[-1] = pairs.shape[0] - 1
        table, ids = pairs, next_ids
    m = table[ids]
    while m.shape[0] > 1:
        half = m.shape[0] // 2
        pairs = np.matmul(m[0 : 2 * half : 2], m[1 : 2 * half : 2])
        if m.shape[0] % 2:
            pairs[-1] = np.dot(pairs[-1], m[-1])
        m = pairs
    return m[0]


def simplex_project(v):
    """Row-wise Euclidean projection onto the probability simplex.

    Sort and threshold (Condat, Math. Prog. 2016) on every row of an
    (..., n) array at once: theta is the last running threshold
    (cumsum - 1) / k that leaves the k-th largest entry positive, or 0
    where none does.  It is read from the thresholds by one flat index
    per row, and the sums and the test run in place.
    """
    n = v.shape[-1]
    mu = np.negative(v, dtype=np.float64)
    mu.sort(axis=-1)
    np.negative(mu, out=mu)
    t = mu.cumsum(axis=-1)
    t -= 1.0
    t /= np.arange(1.0, n + 1.0)
    keep = np.subtract(mu, t, out=mu) > 0.0
    # distance of the last kept k from the row's end; 0 where none is
    # kept, and the masked thresholds are 0 there
    back = keep[..., ::-1].argmax(axis=-1)
    rows = np.where(keep, t, 0.0).reshape(-1, n)
    theta = rows[np.arange(rows.shape[0]), n - 1 - back.reshape(-1)]
    w = v - theta.reshape(back.shape + (1,))
    return np.where(w < 0.0, 0.0, w)


def tv_value(w):
    """w_1 + sum_i |w_{i+1} - w_i| + w_n for every row of an (..., n) array.

    The stack is made C-ordered first (no copy when it already is), so
    each row's differences are summed as that row alone would be and a
    stacked call returns the per-row values bit for bit.  The differences
    are one slice subtraction, the arithmetic of np.diff without its
    Python wrapper.
    """
    w = np.ascontiguousarray(w)
    # abs in place: lattice certification scores chunks of tens of
    # thousands of rows, where a second (m, n - 1) temporary shows in
    # peak memory
    steps = w[..., 1:] - w[..., :-1]
    return w[..., 0] + np.add.reduce(np.abs(steps, out=steps), axis=-1) + w[..., -1]
