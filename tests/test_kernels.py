"""Kernel tests: each kernel must agree with a plain restatement of its
math.  The eigenbasis conj_weighted_sum is checked against the per-term
sum in extended precision, the pairwise chain_product against the
per-pulse loop and bit for bit against the unshared tree, and the
batched optimizer kernels row by row against the scalar loops, in
oracles.py, and tv_value also against exact rational sums.
"""

import itertools
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import ergopulse
from ergopulse._kernels import (
    CHAIN_BLOCK,
    REAL_FORM_DIMS,
    _half_table,
    _read_back_transposed,
    chain_product,
    conj_weighted_sum,
    simplex_project,
    tv_value,
)
from ergopulse.matrixcore import MAX_DIM, expm, op_norm, random_unitary
from ergopulse.evolution import PulseSystem, pulse_product
from ergopulse.schedules import equidistant, pathological, pathological_tv_exact

import oracles


def _random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


# ----------------------------------------------------- kernel behavior


def test_conj_weighted_sum_matches_plain_loop():
    rng = np.random.default_rng(21)
    u = random_unitary(3, seed=4)
    x = _random_complex(rng, 3)
    w = rng.dirichlet(np.ones(60))
    want = np.zeros((3, 3), dtype=complex)
    p = np.eye(3, dtype=complex)
    for k in range(60):
        p = u @ p
        want += w[k] * (p @ x @ p.conj().T)
    assert_allclose(conj_weighted_sum(u, x, w), want, atol=1e-12)


def test_conj_weighted_sum_long_row_matches_eig_closed_form():
    n = 2548
    u = random_unitary(2, seed=33)
    x = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]])
    w = np.full(n, 1.0 / n)
    got = conj_weighted_sum(u, x, w)
    phases, vecs = np.linalg.eig(u)
    # diagonalize: sum_k w_k u^k x u^-k has closed form in the eigenbasis
    y = vecs.conj().T @ x @ vecs
    k = np.arange(1, n + 1)
    ratio = np.outer(phases, phases.conj())
    mix = np.array(
        [
            [np.sum(w * ratio[i, j] ** k) for j in range(2)]
            for i in range(2)
        ]
    )
    want = vecs @ (mix * y) @ vecs.conj().T
    assert_allclose(got, want, atol=1e-10)


def _degenerate_unitary(kind, d, rng):
    if kind == "identity":
        return np.eye(d, dtype=np.complex128)
    if kind == "roots":
        m = int(rng.integers(1, 13))
        return np.diag(np.exp(2j * np.pi * rng.integers(0, m, size=d) / m))
    v = random_unitary(d, seed=int(rng.integers(2**31)))
    if kind == "repeated":
        phases = rng.choice(rng.uniform(0, 2 * np.pi, size=2), size=d)
        return (v * np.exp(1j * phases)) @ v.conj().T
    return v


_SQUARES = sorted({k * k + e for k in range(1, 51) for e in (-1, 0, 1)} - {0})
_PRIMES = [2, 3, 5, 7, 11, 13, 31, 97, 101, 127, 257, 1021, 1031, 2029, 2477]


@pytest.mark.skipif(
    not oracles.LONGDOUBLE_IS_WIDE,
    reason="np.longdouble is float64 here, so the oracle has no extra digits",
)
@settings(deadline=None, max_examples=150)
@given(
    d=st.integers(1, 8),
    n=st.one_of(
        st.integers(1, 2500), st.sampled_from(_SQUARES), st.sampled_from(_PRIMES)
    ),
    kind=st.sampled_from(["haar", "identity", "repeated", "roots"]),
    zero_runs=st.integers(0, 3),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, n=4, kind="roots", zero_runs=0, scale=1.0, seed=0)
@example(d=8, n=2500, kind="haar", zero_runs=2, scale=1e3, seed=1)
@example(d=1, n=1, kind="haar", zero_runs=0, scale=1.0, seed=2)
def test_conj_weighted_sum_matches_loop_oracle(d, n, kind, zero_runs, scale, seed):
    rng = np.random.default_rng(seed)
    u = _degenerate_unitary(kind, d, rng)
    x = scale * _random_complex(rng, d)
    w = rng.dirichlet(np.ones(n))
    for _ in range(zero_runs):
        start = int(rng.integers(n))
        w[start : start + int(rng.integers(1, n + 1))] = 0.0
    got = conj_weighted_sum(u, x, w)
    want = oracles.conj_weighted_sum(u, x, w)
    assert op_norm(got - want) <= 1e-12 * max(1.0, op_norm(x))


EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_half_table_holds_each_pair_once_padded_to_even(d):
    rows, cols, upper, lower, diag = _half_table(d)
    m = d * (d + 1) // 2
    assert rows.shape[0] == m + m % 2
    assert set(zip(rows.tolist(), cols.tolist())) == {
        (i, j) for i in range(d) for j in range(i, d)
    }
    if m % 2:
        assert (rows[-1], cols[-1]) == (rows[-2], cols[-2])
    assert np.array_equal(upper, rows * d + cols)
    assert np.array_equal(lower, cols * d + rows)
    assert np.array_equal(diag, np.flatnonzero(rows == cols))
    assert _half_table(d) is _half_table(d)


@pytest.mark.parametrize("d", range(1, 9))
def test_conj_weighted_sum_of_the_adjoint_is_the_adjoint(d):
    # G is Hermitian, so the mean of x* is the adjoint of the mean of x;
    # d = 1, 2, 5, 6 have an odd number of pairs i <= j, and a pad
    rng = np.random.default_rng(40 + d)
    u = random_unitary(d, seed=d)
    x = _random_complex(rng, d)
    for n in (1, 2, 3, 1000, 1023):
        w = rng.dirichlet(np.ones(n))
        got = conj_weighted_sum(u, x.conj().T, w)
        want = conj_weighted_sum(u, x, w).conj().T
        assert op_norm(got - want) <= 8 * d * EPS * op_norm(x)


@pytest.mark.parametrize("b", [1, 2, 7, 32, 316])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_hermitian_x_gives_a_hermitian_mean(b, edge):
    # N = B^2 - 1, B^2 and B^2 + 1 sit on the edges of the sqrt(N) blocks
    n = max(1, b * b + edge)
    rng = np.random.default_rng(n)
    w = rng.dirichlet(np.ones(n))
    for _ in range(2):
        start = int(rng.integers(n))
        w[start : start + int(rng.integers(1, n + 1))] = 0.0
    for d in (2, 5, 8):
        u = random_unitary(d, seed=n + d)
        a = _random_complex(rng, d)
        x = a + a.conj().T
        mean = conj_weighted_sum(u, x, w)
        assert op_norm(mean - mean.conj().T) <= 8 * d * EPS * op_norm(x)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_the_identity_is_its_own_mean(d):
    # z_ii is exactly 1, so G's diagonal is the sum of the weights, with
    # no drift of N eps from a rounded |lam_i|^2
    n = 100_000
    u = random_unitary(d, min_phase_gap=0.1, seed=d)
    mean = conj_weighted_sum(u, np.eye(d, dtype=np.complex128), np.full(n, 1.0 / n))
    assert op_norm(mean - np.eye(d)) <= 8 * d * EPS


# the means of the cesaro benchmark jobs, one hash per line; the d = 2
# mean runs the padded half table
WEIGHTED_MEAN_HASHES = (
    "import hashlib\n"
    "import numpy as np\n"
    "import ergopulse as ep\n"
    "rng = np.random.default_rng(8)\n"
    "for d, family in ((8, ep.pathological_family), (5, ep.uhrig_family)):\n"
    "    u = ep.random_unitary(d, min_phase_gap=0.1, seed=d)\n"
    "    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))\n"
    "    mean = ep.weighted_cesaro_mean(u, x, family()(100_000))\n"
    "    print(hashlib.sha256(mean.tobytes()).hexdigest())\n"
    "u = ep.random_unitary(2, min_phase_gap=0.1, seed=2)\n"
    "x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))\n"
    "mean = ep.cesaro_mean(u, x, 100_000)\n"
    "print(hashlib.sha256(mean.tobytes()).hexdigest())\n"
)


def test_weighted_means_are_byte_identical_across_processes(tmp_path):
    # the weight product runs through BLAS gemv; two fresh interpreters
    # must still give the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergopulse.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", WEIGHTED_MEAN_HASHES],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(outs[0].split()) == 3
    assert outs[0] == outs[1]


def test_chain_product_matches_plain_loop():
    # Lengths around the block edges (one pulse short of, at, and past one
    # and two blocks) and a long row; factors e^{a x} with a ~ 1/n, as in
    # pulse_product, from a non-normal x.
    eps = np.finfo(np.float64).eps
    lengths = [2, 3, CHAIN_BLOCK - 1, CHAIN_BLOCK, CHAIN_BLOCK + 1]
    lengths += [2 * CHAIN_BLOCK + 3, 4097]
    dims = [1, 2, 5, 8, REAL_FORM_DIMS[-1], REAL_FORM_DIMS[-1] + 1]
    for d, n in itertools.product(dims, lengths):
        rng = np.random.default_rng([d, n])
        u = random_unitary(d, seed=int(rng.integers(2**31)))
        x = _random_complex(rng, d)
        factors = np.stack(
            [expm(a * x) for a in rng.uniform(0.0, 2.0 / n, size=5)]
        )
        # the rounding error of an n-fold product grows with n and with
        # the product of the factor norms
        log_norms = np.log([op_norm(f) for f in factors])
        for kind, idx in [
            ("all-equal", np.zeros(n, dtype=np.intp)),
            ("alternating", np.arange(n) % 2),
            ("random", rng.integers(0, 5, size=n)),
        ]:
            got = chain_product(u, factors, idx)
            want = oracles.chain_product(u, factors, idx)
            tol = 4.0 * n * eps * np.exp(log_norms[idx].sum())
            assert op_norm(got - want) <= tol, (d, n, kind)


def test_chain_product_matches_unshared_tree_bit_for_bit():
    # Sharing repeated pairs and blocks keeps every product's operands and
    # call, so rows of one, two and three factors (all-equal, alternating,
    # period 3) and of many (random) give the unshared tree's bits.  As in
    # pulse_product, each row gets only the factors it uses; unitary
    # factors keep every product finite.  The dimensions take in both
    # ends of the real form's range, one dimension past each, and
    # MAX_DIM.
    lengths = [1, 2, 3, CHAIN_BLOCK - 1, CHAIN_BLOCK, CHAIN_BLOCK + 1]
    lengths += [2 * CHAIN_BLOCK + 3, 4097]
    dims = [1, 2, 5, 8, REAL_FORM_DIMS[-1], REAL_FORM_DIMS[-1] + 1, MAX_DIM]
    for d, n in itertools.product(dims, lengths):
        rng = np.random.default_rng([d, n, 3])
        seeds = rng.integers(2**31, size=41)
        u, *factors = [random_unitary(d, seed=int(s)) for s in seeds]
        factors = np.stack(factors)
        for kind, k, idx in [
            ("all-equal", 1, np.zeros(n, dtype=np.intp)),
            ("alternating", 2, np.arange(n) % 2),
            ("period-3", 3, np.arange(n) % 3),
            ("random", 40, rng.integers(0, 40, size=n)),
        ]:
            got = chain_product(u, factors[:k], idx)
            want = oracles.chain_tree(u, factors[:k], idx, CHAIN_BLOCK)
            assert np.array_equal(got, want), (d, n, kind)


@pytest.mark.parametrize("d", [1, 2, 8, REAL_FORM_DIMS[-1], REAL_FORM_DIMS[-1] + 1, 16])
def test_chain_product_reads_expm_stacks_as_c_ordered_copies(d):
    # expm's Taylor side returns a C-ordered stack of the transposed
    # factors, viewed transposed; the tree reads it as it reads a
    # C-ordered copy, byte for byte, on both sides of the real form and on
    # rows of one weight, of few weights (k^2 < h, so pairs are shared)
    # and of all-distinct weights
    rng = np.random.default_rng([d, 61])
    u = random_unitary(d, seed=d)
    h = _random_complex(rng, d)
    # ||x||_1 <= 1/2 and |weight t| < 1: every slice takes the Taylor side
    x = -0.25j * (h + h.conj().T) / np.abs(h).sum(axis=0).max()
    for n in (2, 7, CHAIN_BLOCK + 1, 1500):
        for kind, weights in [
            ("equal", np.full(n, 1.0 / n)),
            ("few-weight", rng.choice([0.1, 0.25, 0.4], size=n)),
            ("all-distinct", rng.uniform(0.0, 1.0, size=n)),
        ]:
            values, idx = np.unique(weights, return_inverse=True)
            factors = expm(x, values * (0.7 - 0.3j))
            # the real form's transposed copy is the stack itself
            transposed = np.ascontiguousarray(factors.transpose(0, 2, 1))
            assert np.shares_memory(transposed, factors)
            got = chain_product(u, factors, idx)
            want = chain_product(u, np.ascontiguousarray(factors), idx)
            assert got.tobytes() == want.tobytes(), (n, kind)


# pulse products of Uhrig rows at N = 4096, one hash per line: three
# dimensions of the real form and one past it
PULSE_PRODUCT_HASHES = (
    "import hashlib\n"
    "import numpy as np\n"
    "import ergopulse as ep\n"
    "from ergopulse._kernels import REAL_FORM_DIMS\n"
    "rng = np.random.default_rng(9)\n"
    "for d in (2, 6, 8, REAL_FORM_DIMS[-1] + 1):\n"
    "    u = ep.random_unitary(d, min_phase_gap=0.1, seed=d)\n"
    "    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))\n"
    "    sys = ep.PulseSystem(u=u, generator=-1j * (h + h.conj().T), t=0.7)\n"
    "    p = ep.pulse_product(sys, ep.uhrig(4096))\n"
    "    print(hashlib.sha256(p.tobytes()).hexdigest())\n"
)


def test_pulse_products_are_byte_identical_across_processes(tmp_path):
    # the real form runs its leaves and tree levels through BLAS dgemm;
    # two fresh interpreters must still give the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergopulse.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", PULSE_PRODUCT_HASHES],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(outs[0].split()) == 4
    assert outs[0] == outs[1]


def test_real_form_reads_back_bit_for_bit():
    # W(m), written out entry by entry: row 2i holds (re, im) of row i of
    # m, row 2i + 1 holds (-im, re); both copies agree, so their mean is
    # m, signed zeros, subnormals and entries up to half the float range
    # included
    rng = np.random.default_rng(12)
    for d in REAL_FORM_DIMS:
        m = _random_complex(rng, d)
        m.real[0, 0], m.imag[0, -1] = -0.0, 0.0
        m.real[-1, 0], m.imag[-1, -1] = 5e-324, -3e-310
        m[d // 2, d // 2] = complex(np.finfo(np.float64).max / 2, -1e300)
        w = np.empty((d, 2, d, 2))
        w[:, 0, :, 0] = m.real
        w[:, 0, :, 1] = m.imag
        w[:, 1, :, 0] = -m.imag
        w[:, 1, :, 1] = m.real
        got = _read_back_transposed(w.reshape(2 * d, 2 * d))
        assert got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(m.T).tobytes(), d


def test_real_form_reads_back_entries_above_half_the_float_range():
    # the two copies of a part sum past the float range: that part is
    # read back as a/2 + b/2, m itself for an exact W(m); a part whose
    # copy is inf stays inf, and one that meets inf - inf stays nan
    big = np.finfo(np.float64).max
    for d in (2, 5):
        m = np.full((d, d), 0.25 + 0.5j)
        m[0, 0] = complex(big, -big)
        m[d - 1, 0] = complex(0.75 * big, 1.3e308)
        w = np.empty((d, 2, d, 2))
        w[:, 0, :, 0] = m.real
        w[:, 0, :, 1] = m.imag
        w[:, 1, :, 0] = -m.imag
        w[:, 1, :, 1] = m.real
        w = w.reshape(2 * d, 2 * d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                got = _read_back_transposed(w)
                assert got.tobytes() == np.ascontiguousarray(m.T).tobytes(), d
                w[2, 2] = np.inf  # re of m[1, 1] in one copy
                w[2, 3] = w[3, 2] = np.inf  # im of m[1, 1]: inf - inf
                got = _read_back_transposed(w)
        assert got[1, 1].real == np.inf and np.isnan(got[1, 1].imag)


@pytest.mark.parametrize("n", [4, 2 * CHAIN_BLOCK + 3])
def test_overflowing_chain_warns_nothing(n):
    # u e^{aX} u e^{aX} = I, but at a = 1/4 the tree's first products
    # overflow; inf and nan run through the real form's matmuls, the memo
    # and the read-back, whose mean of two copies may meet inf - inf,
    # without a RuntimeWarning, and pulse_product names the overflow
    u = np.diag([1.0 + 0.0j, -1.0])
    x = np.array([[0.0, 2000.0], [2000.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = chain_product(u, expm(x, np.array([0.25])), np.zeros(n, dtype=np.intp))
        assert not np.isfinite(p).all()
        with pytest.raises(ValueError, match="the pulse product overflows"):
            pulse_product(PulseSystem(u=u, generator=x), equidistant(4))


def test_chain_product_keeps_no_table_of_real_leaves():
    import tracemalloc

    # an all-distinct row at d = 8 and N = 4096: each block forms the
    # leaves it multiplies, so besides the transposed copy of the factors
    # (their bytes), the work arrays are a gathered block, its leaves and
    # the tree's first level, under two CHAIN_BLOCK stacks of 2d x 2d
    # float64.  A table of every leaf in the real form would add twice
    # the factors' bytes
    d, n = 8, 4096
    rng = np.random.default_rng(31)
    u = random_unitary(d, seed=31)
    h = _random_complex(rng, d)
    factors = expm(-1j * (h + h.conj().T), rng.uniform(0.0, 1e-3, size=n))
    idx = rng.permutation(n)
    tracemalloc.start()
    try:
        chain_product(u, factors, idx)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= factors.nbytes + 2 * CHAIN_BLOCK * (2 * d) ** 2 * 8


@pytest.mark.parametrize("d", [1, REAL_FORM_DIMS[-1] + 1])
def test_chain_product_keeps_no_table_of_complex_leaves(d):
    import tracemalloc

    # an all-distinct row of N = 4096 on the complex side: each block
    # forms its leaves u F_k from its gathered factors, so the work arrays
    # are a gathered block, its leaves and the tree's first level, under
    # three CHAIN_BLOCK stacks of d x d complex128.  Besides them the memo
    # holds one key of CHAIN_BLOCK indices and one d x d result per block
    # (with at most 512 bytes of object overhead each).  A table u @ factors
    # would add the factors' bytes: 9.4 MB at d = 12
    n = 4096
    rng = np.random.default_rng(32)
    u = random_unitary(d, seed=32)
    h = _random_complex(rng, d)
    factors = expm(-1j * (h + h.conj().T), rng.uniform(0.0, 1e-3, size=n))
    idx = rng.permutation(n)
    memo = idx.nbytes + n // CHAIN_BLOCK * (d * d * 16 + 512)
    tracemalloc.start()
    try:
        chain_product(u, factors, idx)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * CHAIN_BLOCK * d * d * 16 + memo


def test_simplex_project_known_points():
    assert_allclose(simplex_project(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15)
    assert_allclose(simplex_project(np.array([0.6, 0.6])), [0.5, 0.5], atol=1e-15)
    assert_allclose(
        simplex_project(np.array([0.2, 0.3, 0.5])), [0.2, 0.3, 0.5], atol=1e-15
    )


def test_simplex_project_properties():
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = rng.normal(scale=2.0, size=rng.integers(2, 9))
        w = simplex_project(v)
        assert np.all(w >= 0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        # projection is the closest simplex point: beat a few random rows
        for _ in range(5):
            other = rng.dirichlet(np.ones(v.shape[0]))
            assert np.linalg.norm(v - w) <= np.linalg.norm(v - other) + 1e-12


def test_tv_value_matches_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(25):
        w = rng.dirichlet(np.ones(6))
        want = w[0] + np.abs(np.diff(w)).sum() + w[-1]
        assert tv_value(w) == pytest.approx(want, abs=1e-15)


# ------------------------------------------- batched kernels vs oracles


@settings(deadline=None, max_examples=200)
@given(
    v=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 8)),
        # magnitudes near 1e17 make every threshold test fail (theta = 0)
        elements=st.floats(-1e18, 1e18, allow_nan=False, allow_infinity=False),
    )
)
@example(v=np.array([[1e17, 1e17], [0.3, 0.9]]))
def test_simplex_project_rows_match_scalar_oracle(v):
    got = simplex_project(v)
    want = np.stack([oracles.simplex_project(row.copy()) for row in v])
    assert np.array_equal(got, want)



_finite = st.floats(-1e18, 1e18, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(
    v=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 9)),
        elements=st.one_of(
            _finite,
            st.sampled_from((0.0, -0.0, 5e-324, 1e-310, 1.0, 0.5, 1e17, -1e17)),
        ),
    ),
    layout=st.sampled_from(oracles.LAYOUTS),
)
@example(v=np.array([[1e17, 1e17], [0.3, 0.9]]), layout="F")
def test_simplex_project_is_bit_identical_to_stacked_oracle(v, layout):
    v = oracles.laid_out(v, layout)
    assert np.array_equal(simplex_project(v), oracles.simplex_project_stacked(v))
    for row in v:
        assert np.array_equal(simplex_project(row), oracles.simplex_project_stacked(row))


@settings(deadline=None, max_examples=200)
@given(
    w=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 20)),
        elements=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 5e-324, 1e-310))),
    ),
    layout=st.sampled_from(oracles.LAYOUTS),
)
def test_tv_value_is_bit_identical_to_stacked_oracle(w, layout):
    w = oracles.laid_out(w, layout)
    assert np.array_equal(tv_value(w), oracles.tv_value_stacked(w))
    assert np.array_equal(tv_value(w[0]), oracles.tv_value_stacked(w[0]))


def test_tv_value_fortran_ordered_stacks_match_single_rows():
    # a column-major stack is summed as its rows alone would be, too
    rng = np.random.default_rng(3)
    for n in (9, 10, 17, 64, 257):
        for m in (2, 7, 64):
            w = np.asfortranarray(rng.dirichlet(np.ones(n), size=m))
            assert np.array_equal(tv_value(w), [tv_value(row) for row in w]), (n, m)


def test_tv_value_stacked_rows_match_single_rows_and_exact_sums():
    # A stacked call sums each row as that row alone would be summed, and
    # every sum is within n eps of the exact rational sum of its row.
    rng = np.random.default_rng(2)
    eps = np.finfo(float).eps
    shapes = [(n, m) for n in range(2, 40) for m in (1, 2, 7, 64, 513)]
    shapes += [(100, 513), (257, 513), (1000, 64), (4096, 16), (100_000, 3)]
    for n, m in shapes:
        w = rng.dirichlet(np.ones(n), size=m)
        got = tv_value(w)
        assert np.array_equal(got, [tv_value(row) for row in w]), (n, m)
        assert_allclose(got, [oracles.tv_value(row) for row in w], rtol=n * eps)
    for n in (2, 3, 7, 64, 1001, 4096):
        # the float row rounds the exact rationals, each within eps/2
        got = float(tv_value(pathological(n).weights))
        exact = pathological_tv_exact(n)
        assert abs(Fraction(got) - exact) <= n * eps * exact, n
    for n in (2, 5, 40, 1000):
        for _ in range(5):
            k = rng.integers(0, 1000, size=n)
            k[0] += 1
            total = int(k.sum())
            w = k / total
            exact = (
                Fraction(int(k[0]), total)
                + sum(Fraction(abs(int(b) - int(a)), total) for a, b in zip(k, k[1:]))
                + Fraction(int(k[-1]), total)
            )
            got = float(tv_value(w))
            assert abs(Fraction(got) - exact) <= n * eps * exact, n
