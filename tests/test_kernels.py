"""Kernel tests: each kernel must agree with a plain restatement of its
math.  The blocked conj_weighted_sum is checked against the per-term
loop, the pairwise chain_product against the per-pulse loop, and the
batched optimizer kernels row by row against the scalar loops, in
oracles.py.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ergopulse._kernels import (
    CHAIN_BLOCK,
    RENORM_EVERY,
    chain_product,
    conj_weighted_sum,
    simplex_project,
    tv_descent,
    tv_value,
)
from ergopulse.matrixcore import expm, op_norm, random_unitary

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


def test_conj_weighted_sum_renormalization_path_stays_accurate(polar_calls):
    # enough terms to cross the polar-correction threshold twice
    n = 2 * RENORM_EVERY + 500
    u = random_unitary(2, seed=33)
    x = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]])
    w = np.full(n, 1.0 / n)
    got = conj_weighted_sum(u, x, w)
    # 51 small powers, 50 blocks: U^20 and U^40 are re-unitarized
    assert len(polar_calls) == 2
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


def test_tv_descent_reaches_uniform_floor():
    w0 = np.ascontiguousarray([[0.9, 0.05, 0.05]])
    (best,), (best_v,), iters, (min_seen,) = tv_descent(w0, 0.25, 2000, 1e-12)
    # a lone subgradient start stalls near the floor, not on it; the
    # barycenter start in minimize_tv is what pins the exact optimum
    assert best_v == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert_allclose(best, np.full(3, 1 / 3), atol=1e-3)
    assert min_seen >= 2.0 / 3.0 - 1e-12
    assert 1 <= iters <= 2000


def test_tv_descent_stationary_at_uniform():
    w0 = np.full((1, 4), 0.25)
    (best,), (best_v,), iters, _ = tv_descent(w0, 0.25, 50, 1e-12)
    assert_allclose(best, w0[0], atol=1e-12)
    assert best_v == pytest.approx(0.5, abs=1e-15)


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


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 6),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    max_iters=st.integers(0, 200),
    step_tol=st.sampled_from([1e-12, 1e-4, 1e-3, 1e-2]),
)
def test_tv_descent_lockstep_matches_per_start_oracle(
    n, rows, seed, max_iters, step_tol
):
    # Rows stop on their own step_tol test at different iterations, so
    # the lockstep bookkeeping must track each one exactly as a lone run.
    rng = np.random.default_rng(seed)
    w0 = rng.dirichlet(np.ones(n), size=rows)
    w0[0] = rng.normal(scale=2.0, size=n)  # an off-simplex start
    best, best_v, total, min_seen = tv_descent(w0, 0.25, max_iters, step_tol)
    assert type(total) is int
    want_total = 0
    for i in range(rows):
        o_best, o_v, o_iters, o_seen = oracles.tv_descent(
            w0[i].copy(), 0.25, max_iters, step_tol
        )
        assert np.array_equal(best[i], o_best)
        assert best_v[i] == o_v
        assert min_seen[i] == o_seen
        assert tv_descent(w0[i : i + 1], 0.25, max_iters, step_tol)[2] == o_iters
        want_total += o_iters
    assert total == want_total


def test_tv_value_rows_match_scalar_oracle():
    rng = np.random.default_rng(2)
    w = rng.dirichlet(np.ones(7), size=40)
    assert np.array_equal(tv_value(w), [oracles.tv_value(row) for row in w])
