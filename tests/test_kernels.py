"""Kernel-lane tests: the jitted functions and their uncompiled bodies
must agree, and both must agree with plain restatements of the math.

When ERGOPULSE_NO_NUMBA selects the numpy lane, python_lane() returns the
kernel itself, so the parity tests degenerate to consistency checks and
the cross-lane comparison moves into a subprocess.  The batched optimizer
kernels are checked row by row against the scalar loops in oracles.py.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ergopulse._kernels import (
    NUMBA_ENABLED,
    RENORM_EVERY,
    backend,
    chain_product,
    conj_weighted_sum,
    expm_pade13,
    python_lane,
    simplex_project,
    tv_descent,
    tv_value,
)
from ergopulse.matrixcore import random_unitary

import oracles


def _random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_backend_reports_active_lane():
    assert backend() == ("numba" if NUMBA_ENABLED else "numpy")


def test_python_lane_unwraps_jitted_kernels():
    plain = python_lane(chain_product)
    if NUMBA_ENABLED:
        assert plain is chain_product.py_func
        assert plain is not chain_product
    else:
        assert plain is chain_product
    u = np.diag([1.0, 1.0j])
    factors = np.stack([np.eye(2, dtype=np.complex128)])
    idx = np.zeros(3, dtype=np.int64)
    assert_allclose(plain(u, factors, idx), np.diag([1.0, -1.0j]), atol=1e-15)
    assert np.array_equal(plain(u, factors, idx), chain_product(u, factors, idx))


# ------------------------------------------------------- lane agreement


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_conj_weighted_sum_lanes_agree(dim):
    rng = np.random.default_rng(dim)
    u = random_unitary(dim, seed=rng.integers(1 << 30))
    x = _random_complex(rng, dim)
    w = rng.dirichlet(np.ones(17))
    jit_out = conj_weighted_sum(u, x, w)
    py_out = python_lane(conj_weighted_sum)(u, x, w)
    assert_allclose(jit_out, py_out, atol=1e-13, rtol=1e-13)


def test_chain_product_lanes_agree():
    rng = np.random.default_rng(5)
    u = random_unitary(3, seed=11)
    factors = np.stack([random_unitary(3, seed=s) for s in (1, 2, 3)])
    idx = rng.integers(0, 3, size=40)
    jit_out = chain_product(u, factors, idx)
    py_out = python_lane(chain_product)(u, factors, idx)
    assert_allclose(jit_out, py_out, atol=1e-13, rtol=1e-13)


def test_expm_pade13_lanes_agree():
    rng = np.random.default_rng(9)
    a = _random_complex(rng, 4)
    assert_allclose(
        expm_pade13(a), python_lane(expm_pade13)(a), atol=1e-12, rtol=1e-12
    )


def test_tv_descent_lanes_agree():
    w0 = np.ascontiguousarray([[0.7, 0.1, 0.2]])
    jit = tv_descent(w0.copy(), 0.25, 300, 1e-12)
    py = python_lane(tv_descent)(w0.copy(), 0.25, 300, 1e-12)
    assert_allclose(jit[0], py[0], atol=1e-13)
    assert jit[1] == pytest.approx(py[1], abs=1e-13)
    assert jit[2] == py[2]


def test_numpy_lane_subprocess_matches_active_lane():
    # force the fallback lane in a child interpreter and compare numbers
    code = (
        "import json, numpy as np\n"
        "from ergopulse._kernels import backend, tv_value, expm_pade13\n"
        "row = np.array([0.2, 0.5, 0.3])\n"
        "m = np.array([[0.1, -0.7], [0.4, 0.2]], dtype=np.complex128)\n"
        "print(json.dumps({'backend': backend(), 'tv': tv_value(row),\n"
        "                  'expm': [[z.real, z.imag] for z in expm_pade13(m).ravel()]}))\n"
    )
    env = dict(os.environ, ERGOPULSE_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["backend"] == "numpy"
    row = np.array([0.2, 0.5, 0.3])
    assert got["tv"] == pytest.approx(tv_value(row), abs=1e-15)
    here = expm_pade13(np.array([[0.1, -0.7], [0.4, 0.2]], dtype=np.complex128))
    child = np.array([complex(re, im) for re, im in got["expm"]]).reshape(2, 2)
    assert_allclose(child, here, atol=1e-13, rtol=1e-13)


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


def test_conj_weighted_sum_renormalization_path_stays_accurate():
    # enough terms to cross the polar-correction threshold twice
    n = 2 * RENORM_EVERY + 500
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


def test_chain_product_matches_plain_loop():
    u = random_unitary(2, seed=8)
    factors = np.stack([random_unitary(2, seed=s) for s in (14, 15)])
    idx = np.array([0, 1, 1, 0, 1])
    want = np.eye(2, dtype=complex)
    for i in idx:
        want = want @ u @ factors[i]
    assert_allclose(chain_product(u, factors, idx), want, atol=1e-13)


def test_expm_pade13_matches_scipy():
    rng = np.random.default_rng(3)
    for scale in (0.1, 1.0, 20.0):  # the large norm forces squaring steps
        a = scale * _random_complex(rng, 4)
        want = scipy.linalg.expm(a)
        got = expm_pade13(a)
        assert_allclose(got, want, atol=1e-9 * np.exp(min(scale, 30.0)))


def test_expm_pade13_zero_matrix_is_identity():
    z = np.zeros((3, 3), dtype=np.complex128)
    assert_allclose(expm_pade13(z), np.eye(3), atol=0)


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
