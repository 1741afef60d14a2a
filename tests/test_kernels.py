"""Kernel tests: each kernel must agree with a plain restatement of its
math.  The eigenbasis conj_weighted_sum is checked against the per-term
sum in extended precision, the pairwise chain_product against the
per-pulse loop and bit for bit against the unshared tree, and the
batched optimizer kernels row by row against the scalar loops, in
oracles.py, and tv_value also against exact rational sums.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ergopulse._kernels import (
    CHAIN_BLOCK,
    chain_product,
    conj_weighted_sum,
    simplex_project,
    tv_value,
)
from ergopulse.matrixcore import expm, op_norm, random_unitary
from ergopulse.schedules import pathological, pathological_tv_exact

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


def test_chain_product_matches_plain_loop():
    # Lengths around the block edges (one pulse short of, at, and past one
    # and two blocks) and a long row; factors e^{a x} with a ~ 1/n, as in
    # pulse_product, from a non-normal x.
    eps = np.finfo(np.float64).eps
    lengths = [2, 3, CHAIN_BLOCK - 1, CHAIN_BLOCK, CHAIN_BLOCK + 1]
    lengths += [2 * CHAIN_BLOCK + 3, 4097]
    for d, n in itertools.product([1, 2, 5, 8], lengths):
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
    # factors keep every product finite.
    lengths = [1, 2, 3, CHAIN_BLOCK - 1, CHAIN_BLOCK, CHAIN_BLOCK + 1]
    lengths += [2 * CHAIN_BLOCK + 3, 4097]
    for d, n in itertools.product([1, 2, 5, 8], lengths):
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
