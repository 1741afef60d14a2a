"""Hot numerical kernels in plain numpy.

conj_weighted_sum sums a weighted conjugation orbit in the eigenbasis of
u that matrixcore.unitary_eig gives, as a blocked sqrt(N) split on the
d(d+1)/2 scalars of the upper triangle of a Hermitian table, padded to
an even count: no matrix power drifts.  Its weight product is one
stacked vector-matrix matmul, which BLAS runs as gemv and which packs
nothing.

chain_product multiplies the row out as a blocked pairwise tree: the
index row is walked in blocks of CHAIN_BLOCK, each block is reduced
pairwise, (m0 m1)(m2 m3)..., one stacked matmul per tree level, and the
block results are multiplied into the running product left to right.
The factor order never changes; only the rounding follows a tree
instead of a chain.  Each block forms the leaves it multiplies, from
its gathered factors or, where pairs repeat at its first level, from the
row's few distinct factors, and no table of leaves is kept: it would
double the bytes of the factors.  Repeats are multiplied once:
while a level's table of k distinct matrices has k^2 < h for its h
pairs, pairs must repeat, and each distinct pair is one slice of that
level's matmul; equal blocks are reduced once, through a memo keyed on
their index bytes.  So an equidistant row of N pulses costs one block
and N / CHAIN_BLOCK products, and a row of many distinct weights pays
one comparison per level.  Every product keeps its operands and its
matmul or dot call, and each leaf is its own slice of its matmul
wherever it is formed, so the result is bit-identical to the tree that
multiplies every pair.

At the dimensions of REAL_FORM_DIMS the tree runs in float64, on the
2d x 2d real form of each d x d complex matrix: small float64 matmuls
cost several times less per product than complex128 ones.  The real
form W(m) holds the float view of row i of m (its entries as (re, im)
pairs) as row 2i, and that of row i of i m as row 2i + 1, so
W(ab) = W(a) W(b).  The float view of a times [W(b) | W(ib)] is W(ab),
row by row, so leaves need no widening copy: they are u F_k transposed,
F_k^T u^T, one stacked matmul on the float views of the transposed
factors, and the tree forms the transposed row,
P^T = (F_N^T u^T) ... (F_1^T u^T), on the index row reversed.  Each
part of an entry is held twice in W(m), and the two copies drift apart
by a rounding or so over the tree; the result reads back their mean,
re = (W[2i, 2j] + W[2i+1, 2j+1]) / 2 and
im = (W[2i, 2j+1] - W[2i+1, 2j]) / 2.  Elsewhere the leaves are the
complex products u F_k.  Besides the factors, their transposed form in
the real form (the factors' own stack when they come from the Taylor
side of matrixcore.expm, else a copy of their size) and the memo, which holds one
result and one CHAIN_BLOCK-index key per distinct block (at most the
size of the index row), the tree holds O(CHAIN_BLOCK d^2) memory.

simplex_project and tv_value, the optimizer kernels, work on stacks of
rows with whole-array operations; tv_value is the package's one
total-variation sum.  Matrix exponentials are not a kernel here: they
live in matrixcore.expm, whose scalar-multiples form makes the Taylor
factors of pulse_product in one matrix product from shared powers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .matrixcore import unitary_eig


# Pulses per block of the pairwise chain product: memory is
# O(CHAIN_BLOCK d^2) besides the distinct factors, and the Python loop
# runs N / CHAIN_BLOCK times.  Blocks of 64, 1024 and 8192 were slower on
# rows of N = 16..4096 with d = 2..8.
CHAIN_BLOCK = 256

# Dimensions d at which chain_product multiplies in the 2d x 2d real
# form; elsewhere its leaves are complex.  On Uhrig rows the real form won
# at d = 2..11 and lost at d = 1 and from d = 12 on, where its twice as
# many flops outweigh its lower cost per call (BENCH_chain_real_form.json).
REAL_FORM_DIMS = range(2, 12)


def conj_weighted_sum(u, x, w):
    """sum of w[k-1] * u^k x (u^k)* over k = 1..len(w), for real weights w.

    With u = V diag(lam) V* from matrixcore.unitary_eig, the sum is
    V (V* x V o G) V*, o the entrywise product, G_ij = sum_k w_k z_ij^k
    and z_ij = lam_i conj(lam_j).  The weights are real and z_ji is
    conj(z_ij), so G is Hermitian: only its m = d(d+1)/2 entries with
    i <= j are summed (_half_table), and the rest is their mirror.  With
    B = ceil(sqrt(N)) and k = qB + r (1 <= r <= B),
    G = sum_q z^(qB) sum_r w_{qB+r} z^r: the inner sums of all full blocks
    are one stack of Q-1 (1 x B) @ (B x 2m) products over the weights,
    and the Q = ceil(N / B) outer terms one entrywise product.  Besides w
    it holds O(sqrt(N) d^2) memory.

    Every lam is scaled to modulus one, so the result is the exact mean
    of the unitary V diag(lam/|lam|) V*, which is u to within
    unitary_eig's residual and u's own distance from the unitary group.
    """
    d = u.shape[0]
    n = w.shape[0]
    b = math.isqrt(n - 1) + 1
    q_count = -(-n // b)

    lam, vecs = unitary_eig(u)
    lam /= np.abs(lam)
    rows, cols, upper, lower, diag = _half_table(d)
    m = rows.shape[0]
    z = lam[rows] * lam[cols].conj()
    # z_ii is 1, not the rounded |lam_i|^2, which is off by an eps or two
    # in modulus and in phase and drifts by about N eps over the orbit
    z[diag] = 1.0
    # running products, not exp(i k phase): powers of exact roots of
    # unity such as 1j stay exact, so periodic orbits cancel exactly
    powers = np.empty((b, m), dtype=np.complex128)
    np.multiply.accumulate(np.broadcast_to(z, (b, m)), axis=0, out=powers)

    # complex128 viewed as float64 pairs, so the real weights multiply real
    # and imaginary parts in one real product; the partial last block reads
    # its weights in place.  Each full block is a (1 x B) @ (B x 2m)
    # slice of one stacked matmul, which BLAS runs as gemv: gemv streams
    # its operands and packs nothing, where a 2-D gemm of the same product
    # keeps its packing buffer resident for the process's life.
    flat = powers.view(np.float64)
    full = (q_count - 1) * b
    inner = np.empty((q_count, 2 * m))
    np.matmul(w[:full].reshape(q_count - 1, 1, b), flat, out=inner[:-1, None])
    np.matmul(w[full:], flat[: n - full], out=inner[-1])
    inner = inner.view(np.complex128)

    outer = np.empty((q_count - 1, m), dtype=np.complex128)
    np.multiply.accumulate(
        np.broadcast_to(powers[-1], outer.shape), axis=0, out=outer
    )
    outer *= inner[1:]
    half = inner[0] + outer.sum(axis=0)
    mix = np.empty(d * d, dtype=np.complex128)
    mix[lower] = half.conj()
    mix[upper] = half
    adj = vecs.conj().T
    return vecs @ ((adj @ x @ vecs) * mix.reshape(d, d)) @ adj


@functools.cache
def _half_table(d):
    """(rows, cols, upper, lower, diag) for conj_weighted_sum at dimension
    d: the pairs i <= j of np.triu_indices, their flat indices i d + j and
    j d + i, and the positions of the pairs i = j.  When their count m is
    odd, the last pair is repeated: the stacked gemv over 2m columns runs
    about twice as slow when 2m is 2 mod 4 (6 columns against 8 at
    N = 1e5)."""
    rows, cols = np.triu_indices(d)
    if rows.shape[0] % 2:
        rows = np.append(rows, rows[-1])
        cols = np.append(cols, cols[-1])
    diag = np.flatnonzero(rows == cols)
    return rows, cols, rows * d + cols, cols * d + rows, diag


def chain_product(u, factors, idx):
    """Left-to-right product u.factors[idx[0]].u.factors[idx[1]]....,
    for a nonempty index row idx.

    Blocked pairwise tree that multiplies each repeated pair and each
    repeated block once (see the module docstring and _block_product).
    Each block forms the leaves it multiplies from the factors it reads.
    At the dimensions of REAL_FORM_DIMS a leaf is W(F_k^T u^T), the
    2d x 2d real form of the transposed leaf, the tree multiplies the
    transposed row in float64, and the d x d result is read back once, as
    the mean of the two copies of each part; elsewhere a leaf is u F_k.
    Every product, leaves included, has the same operands, and is made by
    the same matmul or dot call, as in the tree that multiplies every
    pair, so the result is bit-identical to it.  factors may have any
    strides.  The real form reads the stack transposed and C-ordered:
    the stack itself where factors is the transposed view that
    matrixcore.expm's Taylor side returns, and a copy otherwise.  The
    complex side copies nothing, as each block gathers what it reads.
    Besides the factors, any transposed copy and the memo, it holds
    O(CHAIN_BLOCK d^2) memory, never an (N, d, d) stack.

    A product that overflows gives inf or nan entries without a warning;
    the caller checks the result (pulse_product raises ValueError).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if u.shape[0] not in REAL_FORM_DIMS:
            return _walk(factors, idx, functools.partial(np.matmul, u))
        transposed = np.ascontiguousarray(factors.transpose(0, 2, 1))
        leaf = functools.partial(_real_leaves, right=_right_factor(u.T))
        return _read_back_transposed(_walk(transposed, idx[::-1], leaf))


def _walk(factors, row, leaf):
    """The product of the blocks of a nonempty row, left to right, each
    from _block_product on factors with the leaf rule leaf; equal blocks
    are reduced once, through a memo keyed on their index bytes."""
    blocks = {}
    out = None
    for start in range(0, row.shape[0], CHAIN_BLOCK):
        ids = row[start : start + CHAIN_BLOCK]
        key = ids.tobytes()
        if key not in blocks:
            blocks[key] = _block_product(factors, ids, leaf)
        out = blocks[key] if out is None else np.dot(out, blocks[key])
    return out


def _right_factor(b):
    """[W(b) | W(ib)], a (2d, 4d) float64 array: the float view of a
    complex matrix a, (d, 2d), times it is W(ab) row by row.  Row 2l + s
    of block c is row l of b times units[s, c], so each entry is a part
    of b, or its negative, exactly."""
    d = b.shape[0]
    # built per call, not at import: an import-time array moved the heap
    # layout that the N = 1e5 temporaries of cohen_uniformity_probe are
    # sensitive to (BENCH_chain_real_form.json, notes)
    units = np.array([[1.0, 1.0j], [1.0j, -1.0]])
    w = np.multiply(b[:, None, None, :], units[:, :, None], order="C")
    return w.view(np.float64).reshape(2 * d, 4 * d)


def _real_leaves(a, right):
    """W(a_k b) for a (k, d, d) complex stack a and right = _right_factor(b):
    one stacked matmul of the float views of the a_k."""
    d = a.shape[1]
    return np.matmul(a.view(np.float64), right).reshape(-1, 2 * d, 2 * d)


def _read_back_transposed(w):
    """m^T, C-ordered, for the complex m whose 2d x 2d real form w is
    (W(m) up to rounding): the mean of the two copies of each part,
    re = (w[2i, 2j] + w[2i+1, 2j+1]) / 2 and
    im = (w[2i, 2j+1] - w[2i+1, 2j]) / 2.  Of an exact W(m) it returns
    m^T bit for bit.  Where the sum of two finite copies overflows (an
    entry above half the float range), that part is formed again as
    a/2 + b/2.  An inf part may form inf - inf: the caller silences it."""
    d = w.shape[0] // 2
    out = np.empty((d, d), dtype=np.complex128)
    np.add(w[0::2, 0::2], w[1::2, 1::2], out=out.real.T)
    np.subtract(w[0::2, 1::2], w[1::2, 0::2], out=out.imag.T)
    out.view(np.float64)[...] *= 0.5
    if not np.isfinite(out).all():
        for part, a, b in (
            (out.real.T, w[0::2, 0::2], w[1::2, 1::2]),
            (out.imag.T, w[0::2, 1::2], -w[1::2, 0::2]),
        ):
            redo = ~np.isfinite(part) & np.isfinite(a) & np.isfinite(b)
            part[redo] = 0.5 * a[redo] + 0.5 * b[redo]
    return out


def _block_product(table, ids, leaf):
    """leaf(table[ids])[0] leaf(table[ids])[1] ... by the pairwise tree.

    leaf maps a stack of factors to their leaves, one slice each.  The
    block forms the leaves it multiplies, once: leaf(table[ids]) when no
    pair repeats at its first level, and otherwise the k leaves
    leaf(table) of its k-entry table, at most 11, since k^2 < h <=
    CHAIN_BLOCK / 2 there.

    While the k-entry table has k^2 < h for the level's h pairs, pairs
    must repeat: each pair is coded left * k + right, each distinct code
    multiplied once, and the codes' ranks are the next level's ids (a
    one-entry table needs no codes: its one pair is (0, 0)).  From
    the first level with k^2 >= h on, the level is the table itself, so
    k^2 >= h holds at every later level, and the plain strided loop runs
    (_tree).
    """
    if table.shape[0] ** 2 >= ids.shape[0] // 2:
        return _tree(leaf(table[ids]))
    table = leaf(table)
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
    return _tree(table[ids])


def _tree(m):
    """m[0] m[1] ... by the pairwise tree, (m0 m1)(m2 m3)..., one strided
    stacked matmul per level; an odd leftover is folded into the level's
    last product."""
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
