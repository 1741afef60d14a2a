import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ergopulse import matrixcore
from ergopulse.matrixcore import (
    exp_product_defect_bound,
    expm,
    is_unitary,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    op_norm,
    random_unitary,
    save_matrix,
)

import oracles


def _random_complex(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * m


# ------------------------------------------------------------- as_operator


def test_as_operator_returns_clean_input_itself():
    # no copy on this hot path: a complex128 C-contiguous array comes back
    # as the same object, anything else as a fresh normalized array
    a = np.eye(2, dtype=np.complex128)
    assert matrixcore.as_operator(a) is a
    for other in (np.eye(2), np.asfortranarray([[1.0, 2j], [3.0, 4.0]])):
        out = matrixcore.as_operator(other)
        assert not np.shares_memory(out, other)
        assert out.dtype == np.complex128 and out.flags.c_contiguous
        assert np.array_equal(out, other)


# ---------------------------------------------------------------- op_norm


def test_op_norm_identity():
    assert op_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)


def test_op_norm_diagonal_picks_largest_modulus():
    m = np.diag([3.0, -4.0j])
    assert op_norm(m) == pytest.approx(4.0, abs=1e-14)


def test_op_norm_matches_svdvals_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = _random_complex(rng, 6)
        assert op_norm(m) == pytest.approx(
            float(scipy.linalg.svdvals(m)[0]), rel=1e-13
        )


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(12)
    m = _random_complex(rng, 5)
    u = random_unitary(5, seed=1)
    v = random_unitary(5, seed=2)
    assert op_norm(u @ m @ v) == pytest.approx(op_norm(m), rel=1e-12)


def test_op_norm_cstar_identity_and_submultiplicative():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = _random_complex(rng, 4)
        b = _random_complex(rng, 4)
        assert op_norm(a.conj().T @ a) == pytest.approx(op_norm(a) ** 2, rel=1e-12)
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) * (1 + 1e-12)


def test_op_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        op_norm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        op_norm(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        op_norm(np.eye(matrixcore.MAX_DIM + 1))


# ------------------------------------------------------------------- expm


def test_expm_zero_is_identity():
    assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_nilpotent_closed_form():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(expm(n), np.eye(2) + n, atol=1e-15)


def test_expm_diagonal_phases():
    m = np.diag([1j * np.pi, 0.0])
    assert_allclose(expm(m), np.diag([-1.0 + 0.0j, 1.0]), atol=1e-14)


def test_expm_matches_hermitian_eigh_reference():
    # for Hermitian H = V diag(lam) V*, exp(-iHt) = V diag(exp(-i lam t)) V*,
    # a reference that shares no code with the Pade route
    rng = np.random.default_rng(21)
    for dim in range(2, 9):
        for scale in (0.1, 1.0, 4.0):
            g = _random_complex(rng, dim, scale)
            h = (g + g.conj().T) / 2
            lam, v = np.linalg.eigh(h)
            for t in (1.0, -0.3, 0.7 + 0.4j, 0.2j):
                m = -1j * t * h
                ref = (v * np.exp(-1j * lam * t)) @ v.conj().T
                assert op_norm(expm(m) - ref) <= 1e-12 * math.exp(op_norm(m))


def test_expm_matches_pade13_oracle():
    # an independent degree-13 Pade implementation, at d = 2..8 and norms
    # large enough to need many squarings
    rng = np.random.default_rng(13)
    for dim in range(2, 9):
        for scale in (0.05, 0.5, 2.0, 8.0, 40.0):
            m = _random_complex(rng, dim, scale)
            err = op_norm(expm(m) - oracles.expm_pade13(m))
            assert err <= 1e-12 * math.exp(op_norm(m))


def test_expm_small_non_normal_matches_taylor():
    # a small non-normal matrix keeps its off-diagonal first-order term:
    # the four-term Taylor sum leaves out less than eps^4 / 24
    for eps in (1e-5, 1e-7, 1e-9):
        rng = np.random.default_rng(31)
        for dim in range(2, 9):
            a = _random_complex(rng, dim)
            a /= op_norm(a)
            assert op_norm(a @ a.conj().T - a.conj().T @ a) > 0.1
            m = eps * a
            taylor = np.eye(dim) + m + m @ m / 2.0 + m @ m @ m / 6.0
            assert op_norm(expm(m) - taylor) <= 1e-15
        nil = np.array([[0.0, eps], [0.0, 0.0]])
        assert op_norm(expm(nil) - (np.eye(2) + nil)) <= 1e-15


def test_expm_skew_hermitian_gives_unitary():
    rng = np.random.default_rng(22)
    h = _random_complex(rng, 6)
    h = h + h.conj().T
    assert is_unitary(expm(-1j * h), tol=1e-12)


def test_expm_commuting_sum_factorizes():
    d1 = np.diag([0.3 + 0.1j, -0.2, 1.0j])
    d2 = np.diag([-1.0, 0.5j, 0.25])
    assert_allclose(expm(d1 + d2), expm(d1) @ expm(d2), atol=1e-13)


def test_expm_stack_equals_per_matrix_calls_bytewise():
    # pulse_product exponentiates every distinct weight in one stacked
    # call; each slice must be exactly what a lone call returns
    rng = np.random.default_rng(41)
    weights = np.concatenate([[0.0, 1e-9, 1e-7], rng.uniform(0.0, 2.0, 5), [40.0]])
    for dim in (1, 2, 3, 8):
        g = _random_complex(rng, dim)
        normal = -1j * (g + g.conj().T)
        non_normal = _random_complex(rng, dim)
        for x in (normal, non_normal):
            for t in (1.0, 0.7 - 0.4j):
                stack = (weights * t)[:, None, None] * x
                got = expm(stack)
                assert got.shape == stack.shape
                for k in range(stack.shape[0]):
                    assert np.array_equal(got[k], expm(stack[k]))
    # tiny nilpotent and triangular factors, mixed with diagonal ones,
    # take scipy's triangular and diagonal branches inside one stack
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    stack = np.stack(
        [1e-7 * nil, 1e-7 * nil.T, np.diag([0.3j, -0.2]), [[0.5, 30.0], [0.0, -0.2j]]]
    )
    got = expm(stack)
    assert got[0][0, 1] == 1e-7 and got[1][1, 0] == 1e-7
    for k in range(stack.shape[0]):
        assert np.array_equal(got[k], expm(stack[k]))


def test_expm_rejects_bad_stacks():
    big = matrixcore.MAX_DIM + 1
    bad_nan = np.zeros((3, 2, 2))
    bad_nan[2, 0, 1] = np.inf
    for bad, match in [
        (np.zeros((3, 2, 3)), "square"),
        (np.zeros((1, 2, 2, 2)), "square"),
        (bad_nan, "non-finite"),
        (np.zeros((2, big, big)), "dimension"),
        (np.zeros((2, 0, 0)), "dimension"),
    ]:
        with pytest.raises(ValueError, match=match):
            expm(bad)


# ----------------------------------------------- exp_product_defect_bound


def test_defect_bound_zero_when_either_norm_vanishes():
    assert exp_product_defect_bound(0.0, 1.7) == 0.0
    assert exp_product_defect_bound(0.9, 0.0) == 0.0


def test_defect_bound_first_terms_small_norms():
    # leading term is 2/2! * (binom(2,1) - 1) * a * b = a * b
    got = exp_product_defect_bound(1e-6, 1e-6)
    assert got == pytest.approx(1e-12, rel=1e-4)


def test_defect_bound_monotone_in_each_norm():
    lo = exp_product_defect_bound(0.5, 0.5)
    hi_a = exp_product_defect_bound(0.8, 0.5)
    hi_b = exp_product_defect_bound(0.5, 0.8)
    assert lo < hi_a and lo < hi_b


def test_defect_bound_dominates_measured_defect():
    rng = np.random.default_rng(31)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        a = _random_complex(rng, dim)
        b = _random_complex(rng, dim)
        a *= rng.uniform(0.05, 2.0) / op_norm(a)
        b *= rng.uniform(0.05, 2.0) / op_norm(b)
        measured = op_norm(
            scipy.linalg.expm(a) @ scipy.linalg.expm(b) - scipy.linalg.expm(a + b)
        )
        assert measured <= exp_product_defect_bound(op_norm(a), op_norm(b))


def test_defect_bound_tail_needs_room():
    with pytest.raises(ValueError, match="i_max"):
        exp_product_defect_bound(30.0, 30.0, i_max=40)
    # the same norms pass once the series is long enough
    assert exp_product_defect_bound(30.0, 30.0, i_max=80) > 0


def test_defect_bound_validates_arguments():
    with pytest.raises(ValueError):
        exp_product_defect_bound(-1.0, 1.0)
    with pytest.raises(ValueError):
        exp_product_defect_bound(math.nan, 1.0)
    with pytest.raises(ValueError):
        exp_product_defect_bound(1.0, 1.0, i_max=1)


@settings(deadline=None, max_examples=60)
@given(
    a=st.floats(min_value=0.01, max_value=3.0),
    b=st.floats(min_value=0.01, max_value=3.0),
)
def test_defect_bound_tail_shrinks_with_longer_series(a, b):
    # more explicit terms can only tighten the majorized tail
    assert exp_product_defect_bound(a, b, 60) <= exp_product_defect_bound(a, b, 20)


# --------------------------------------------------------- random_unitary


def test_random_unitary_is_unitary_and_seeded():
    u1 = random_unitary(5, 0.1, seed=7)
    u2 = random_unitary(5, 0.1, seed=7)
    u3 = random_unitary(5, 0.1, seed=8)
    assert is_unitary(u1, tol=1e-12)
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)


def test_random_unitary_respects_min_phase_gap():
    for seed in range(20):
        u = random_unitary(6, 0.3, seed=seed)
        phases = np.sort(np.angle(np.linalg.eigvals(u)) % (2 * np.pi))
        gaps = np.append(np.diff(phases), 2 * np.pi - phases[-1] + phases[0])
        assert gaps.min() >= 0.3 - 1e-9


def test_random_unitary_dim_one():
    u = random_unitary(1, seed=3)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_random_unitary_rejects_infeasible_gap():
    with pytest.raises(ValueError, match="do not fit"):
        random_unitary(8, 1.0, seed=0)
    with pytest.raises(ValueError):
        random_unitary(0, 0.1, seed=0)
    with pytest.raises(ValueError):
        random_unitary(3, -0.5, seed=0)


# -------------------------------------------------------------- JSON I/O


def test_matrix_json_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(41)
    m = _random_complex(rng, 4) * 1e3 + _random_complex(rng, 4) * 1e-7
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


def test_matrix_json_dict_shape():
    obj = matrix_to_json_dict(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert obj["dim"] == 2
    assert obj["entries"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"dim": 2},
        {"entries": []},
        {"dim": 2, "entries": [[1.0, 0.0]] * 3},
        {"dim": 2, "entries": [[1.0, 0.0]] * 5},
        {"dim": 2, "entries": [[1.0, 0.0]] * 3 + [[math.inf, 0.0]]},
        {"dim": 2, "entries": [[1.0, 0.0]] * 3 + [[1.0]]},
        {"dim": 2, "entries": [[1.0, 0.0]] * 3 + [["1", "0"]]},
        {"dim": 2, "entries": [[1.0, 0.0]] * 3 + [[True, 0.0]]},
        {"dim": 0, "entries": []},
        {"dim": 2.0, "entries": [[1.0, 0.0]] * 4},
        {"dim": 2, "entries": [[1.0, 0.0]] * 4, "extra": 1},
    ],
)
def test_matrix_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        matrix_from_json_dict(obj)


def test_matrix_json_rejects_non_finite_serialization():
    with pytest.raises(ValueError):
        matrix_to_json_dict(np.array([[np.inf, 0], [0, 1]]))


def test_matrix_file_round_trip_bitwise(tmp_path):
    path = tmp_path / "u.json"
    u = random_unitary(3, 0.2, seed=9)
    save_matrix(u, path)
    first = path.read_bytes()
    save_matrix(load_matrix(path), path)
    assert path.read_bytes() == first
