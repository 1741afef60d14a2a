import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ergopulse import matrixcore
from ergopulse.ergodic import DEFAULT_CLUSTER_TOL, spectrum
from ergopulse.errors import ClusteringAmbiguityError
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
    # the four-term Taylor sum leaves out less than eps^4 / 24; the
    # scalar-multiples form takes its Taylor route here
    for eps in (1e-5, 1e-7, 1e-9):
        rng = np.random.default_rng(31)
        for dim in range(2, 9):
            a = _random_complex(rng, dim)
            a /= op_norm(a)
            assert op_norm(a @ a.conj().T - a.conj().T @ a) > 0.1
            m = eps * a
            taylor = np.eye(dim) + m + m @ m / 2.0 + m @ m @ m / 6.0
            assert op_norm(expm(m) - taylor) <= 1e-15
            assert op_norm(expm(a, [eps])[0] - taylor) <= 1e-15
        nil = np.array([[0.0, eps], [0.0, 0.0]])
        assert op_norm(expm(nil) - (np.eye(2) + nil)) <= 1e-15
        assert op_norm(expm(nil, [1.0])[0] - (np.eye(2) + nil)) <= 1e-15


def test_expm_skew_hermitian_gives_unitary():
    rng = np.random.default_rng(22)
    h = _random_complex(rng, 6)
    h = h + h.conj().T
    assert is_unitary(expm(-1j * h), tol=1e-12)


def test_expm_commuting_sum_factorizes():
    d1 = np.diag([0.3 + 0.1j, -0.2, 1.0j])
    d2 = np.diag([-1.0, 0.5j, 0.25])
    assert_allclose(expm(d1 + d2), expm(d1) @ expm(d2), atol=1e-13)


def test_expm_rejects_bad_stacks():
    # expm takes one matrix: any (k, d, d) stack is refused as not square,
    # whatever its entries or dimension
    big = matrixcore.MAX_DIM + 1
    bad_nan = np.zeros((3, 2, 2))
    bad_nan[2, 0, 1] = np.inf
    for bad in (
        np.zeros((3, 2, 2)),
        np.zeros((1, 2, 2)),
        np.zeros((3, 2, 3)),
        np.zeros((1, 2, 2, 2)),
        bad_nan,
        np.zeros((2, big, big)),
        np.zeros((2, 0, 0)),
    ):
        with pytest.raises(ValueError, match="must be square"):
            expm(bad)


EPS = np.finfo(np.float64).eps


def _expm_40_digits(mpmath, m):
    """e^m by mpmath at 40 significant digits, rounded to complex128."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(m.tolist()))
        return np.array(e.tolist(), dtype=np.complex128)


def test_expm_squaring_matches_40_digit_mpmath():
    """expm(m) lies within 64 eps of e^m in the spectral norm, relative
    to ||e^m||, for dense, strictly upper-triangular and skew-Hermitian m
    of d in {2, 3, 5, 8}, scaled to ||m||_1 = r in {0.5, 2, 8, 32} by a
    real and by a complex multiple: 0 to 5 squarings.  This seed's
    largest error is 17 eps; over five other seeds it was 22 eps, at
    r = 32."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(47)
    kinds = {
        "dense": lambda g: g,
        "upper": lambda g: np.triu(g, 1),
        "skew": lambda g: g - g.conj().T,
    }
    worst = 0.0
    for make in kinds.values():
        for dim in (2, 3, 5, 8):
            for r in (0.5, 2.0, 8.0, 32.0):
                for c in (-1.0, np.exp(1j * rng.uniform(0.0, 2 * np.pi))):
                    g = c * make(_random_complex(rng, dim))
                    m = g * (r / np.abs(g).sum(axis=0).max())
                    want = _expm_40_digits(mpmath, m)
                    err = op_norm(expm(m) - want) / op_norm(want)
                    worst = max(worst, err)
    assert worst <= 64 * EPS


def test_expm_squarings_are_the_fewest_that_reach_the_radius():
    # s is the smallest integer >= 0 with r 2^-s <= 1, exact at and
    # around every power of two
    def fits(r, s):
        return s >= 0 and math.ldexp(r, -s) <= 1.0

    tiny = float(np.finfo(np.float64).smallest_subnormal)
    grid = [0.0, tiny, 1e-300, 0.3, 0.5, 1.0, 1.5, 3.0, 1e10, 1e308, 1.7e308]
    for k in range(-60, 1024):
        p = math.ldexp(1.0, k)
        grid += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    grid.append(float(np.finfo(np.float64).max))
    for r in grid:
        s = matrixcore._squarings(r)
        assert fits(r, s) and not fits(r, s - 1), r
    assert [matrixcore._squarings(float(2**k)) for k in range(6)] == list(range(6))
    assert matrixcore._squarings(math.nextafter(1.0, 2.0)) == 1
    assert matrixcore._squarings(float(np.finfo(np.float64).max)) == 1024


def test_expm_within_the_radius_is_the_taylor_side_bit_for_bit():
    # for ||m||_1 <= 1 expm(m) is no squaring of expm(m, [1.0])[0]
    rng = np.random.default_rng(49)
    for dim in (1, 2, 3, 5, 8, 16):
        g = _random_complex(rng, dim)
        norm1 = np.abs(g).sum(axis=0).max()
        for r in (1e-12, 0.01, 0.5, 0.999, 1.0):
            # less 4 ulps, so the rounded norm stays <= 1
            m = g * (r / norm1 * (1.0 - 4 * EPS))
            assert np.abs(m).sum(axis=0).max() <= 1.0
            e = expm(m)
            # C-ordered, though the Taylor side's stack holds e^T
            assert e.flags.c_contiguous
            assert np.array_equal(e, expm(m, [1.0])[0])
        assert expm(g).flags.c_contiguous
    # ||m||_1 = 1 exactly
    m = np.array([[0.5, 0.5j], [-0.5, 0.0]])
    assert np.array_equal(expm(m), expm(m, [1.0])[0])


def test_expm_past_the_radius_is_the_one_slice_case_bit_for_bit():
    # expm(m) is expm(m, [1.0])[0] at every ||m||_1, not only <= 1
    rng = np.random.default_rng(67)
    kinds = (lambda g: g, lambda g: np.triu(g, 1), lambda g: g - g.conj().T)
    for dim in (1, 2, 3, 5, 8, 16):
        g = _random_complex(rng, dim)
        for make in kinds:
            h = make(g)
            norm1 = np.abs(h).sum(axis=0).max()
            if norm1 == 0.0:  # strictly upper at d = 1
                continue
            for r in (1.0 + 4 * EPS, 1.5, 2.0, 7.3, 32.0, 200.0):
                m = h * (r / norm1)
                e = expm(m)
                assert e.flags.c_contiguous
                assert np.array_equal(e, expm(m, [1.0])[0])


def test_expm_multiples_have_one_layout_at_every_radius():
    # inside the radius, past it and mixed, the result is the transposed
    # view of a C-ordered stack of the e^(c_k m)^T, which the real form of
    # chain_product reads without a copy
    rng = np.random.default_rng(71)
    g = _random_complex(rng, 3)
    m = g / np.abs(g).sum(axis=0).max()
    for scalars in ([0.5, 1.0], [0.5, 3.0j], [40.0, -300.0]):
        e = expm(m, scalars)
        assert e.transpose(0, 2, 1).flags.c_contiguous
        assert np.shares_memory(np.ascontiguousarray(e.transpose(0, 2, 1)), e)


def test_expm_overflow_is_a_value_error():
    # pytest turns the RuntimeWarning that an unguarded overflow gives
    # into a failure, so each case must raise and nothing else
    with pytest.raises(ValueError, match="overflows: e\\^m came out non-finite"):
        expm([[800.0]])
    with pytest.raises(ValueError, match="overflows: e\\^m came out non-finite"):
        expm(np.diag([750.0, 1.0]) + np.diag([1.0], 1))
    with pytest.raises(ValueError, match="overflows: \\|\\|m\\|\\|_1 is not finite"):
        expm([[1.5e308 + 1.5e308j]])
    with pytest.raises(ValueError, match="overflows: \\|\\|m\\|\\|_1 is not finite"):
        expm([[1e308, 0.0], [1e308, 0.0]])
    # the scalar form on that m: a zero multiple is I, and a small one
    # still overflows
    assert np.array_equal(expm([[1e308, 0.0], [1e308, 0.0]], [0.0]), [np.eye(2)])
    with pytest.raises(ValueError, match="overflows: e\\^\\(c_k m\\)"):
        expm([[1e308, 0.0], [1e308, 0.0]], [0.1])
    # a scalar-form slice past the radius, alone and beside Taylor slices
    for scalars in ([800.0], [0.1, 800.0]):
        with pytest.raises(ValueError, match="overflows: e\\^\\(c_k m\\)"):
            expm([[1.0, 0.0], [0.0, 0.5]], scalars)
    # the Taylor side scales m and c by powers of 2 before it forms their
    # powers: a tiny c on an ||m||_1 near the float range, and a huge c on
    # a tiny m, give the finite e^(c m) of the single form
    a = np.array([[1.7e308, 1.7e308], [0.0, 0.0]])
    assert_allclose(expm(a, [5.8e-309])[0], expm(a * 5.8e-309), rtol=1e-14)
    assert_allclose(expm(a * 5.8e-309), expm(a * 5.8e-309, [1.0])[0])
    tiny = np.array([[1.0, 1j], [0.0, -1.0]]) * 2.0**-600
    assert_allclose(
        expm(tiny, [0.45 * 2.0**600])[0], expm(tiny * (0.45 * 2.0**600)), rtol=1e-14
    )
    # decay past the float range underflows to 0 without a warning
    assert_allclose(expm(np.diag([-800.0, 0.0])), np.diag([0.0, 1.0]), atol=0)
    assert_allclose(expm(-a), [[0.0, -1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_multiples_match_per_scalar_scipy():
    """In one call per generator, the slices inside the Taylor radius lie
    within 4 eps of per-scalar scipy.linalg.expm calls, and the slices
    past it, squared, within 16 eps of e^(c a) at 40 digits, relative in
    the spectral norm (at most 5.8 eps over five seeds, 3.9 eps on this
    seed under Prescott)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(43)
    nil = np.array([[0.0, 1e-7], [0.0, 0.0]])
    generators = [nil, np.zeros((3, 3)), np.array([[0.4 - 1.3j]])]
    for dim in (2, 3, 5, 8):
        g = _random_complex(rng, dim)
        generators += [g, np.triu(g, 1)]
    for a in generators:
        norm1 = max(np.abs(a).sum(axis=0).max(), 1e-300)
        # |c| ||a||_1 on both sides of the Taylor radius 1, complex scalars
        radii = np.concatenate([rng.uniform(0.0, 1.0, 40), rng.uniform(1.0, 6.0, 8)])
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, radii.shape))
        scalars = np.concatenate([[0.0, 1.0 / norm1, 1e-12], radii * phases / norm1])
        got = expm(a, scalars)
        assert got.shape == (len(scalars),) + a.shape
        big = np.abs(scalars) * np.abs(a).sum(axis=0).max() > 1.0
        want = oracles.expm_multiples(a, scalars[~big])
        for e, w in zip(got[~big], want):
            assert op_norm(e - w) <= 4 * EPS * op_norm(w)
        for c, e in zip(scalars[big], got[big]):
            w = _expm_40_digits(mpmath, c * a)
            assert op_norm(e - w) <= 16 * EPS * op_norm(w)
    got = expm(nil, np.array([1.0, 2.5 - 1.0j]))
    assert got[0][0, 1] == 1e-7 and got[1][0, 1] == (2.5 - 1.0j) * 1e-7
    zero = expm(np.zeros((3, 3)), np.array([0.3, 2e300]))
    assert np.array_equal(zero, [np.eye(3)] * 2)


def test_expm_multiples_match_40_digit_mpmath():
    """Each slice of expm(a, scalars) lies within 4 eps of e^(c a) at 40
    digits, relative in the spectral norm, where the degree rule drops
    the most levels: one call per radius r = |c| ||a||_1 in {1e-8, 1e-5,
    1e-3, 0.1, 1} (degrees 2, 3, 5, 10 and 19), on dense and strictly
    upper-triangular a of d in {2, 5, 8, 12, 16}, with real and complex
    c."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(53)
    worst = 0.0
    for dim in (2, 5, 8, 12, 16):
        g = _random_complex(rng, dim)
        for a in (g, np.triu(g, 1)):
            a = a / np.abs(a).sum(axis=0).max()
            for r in (1e-8, 1e-5, 1e-3, 0.1, 1.0):
                phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
                scalars = r * np.concatenate([[1.0, -1.0], phases])
                got = expm(a, scalars)
                for c, e in zip(scalars, got):
                    want = _expm_40_digits(mpmath, c * a)
                    worst = max(worst, op_norm(e - want) / op_norm(want))
    assert worst <= 4 * EPS


def test_expm_multiples_past_the_radius_match_40_digit_mpmath():
    """Each slice of expm(a, scalars) lies within 64 eps of e^(c a) at 40
    digits, relative in the spectral norm, on dense, strictly
    upper-triangular and skew-Hermitian a of d in {2, 4, 8, 16}: one call
    each, mixing r = |c| ||a||_1 = 0.5 (inside the radius, at the call's
    degree), a complex c at r = 3 (2 squarings) and c = -32 (5
    squarings; e^(c a) unitary for the skew a).  This seed's largest
    error is 23 eps; over five other seeds it was 27 eps."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(61)
    kinds = (lambda g: g, lambda g: np.triu(g, 1), lambda g: g - g.conj().T)
    worst = 0.0
    for make in kinds:
        for dim in (2, 4, 8, 16):
            g = make(_random_complex(rng, dim))
            a = g / np.abs(g).sum(axis=0).max()
            phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
            scalars = np.array([0.5 * phases[0], 3.0 * phases[1], -32.0])
            for c, e in zip(scalars, expm(a, scalars)):
                want = _expm_40_digits(mpmath, c * a)
                worst = max(worst, op_norm(e - want) / op_norm(want))
    assert worst <= 64 * EPS


def test_expm_multiples_inside_the_radius_hold_one_stack():
    import tracemalloc

    # every slice inside the radius: the one (k, d, d) stack the product
    # writes, the result a view of it, the (n, k) table of scalar powers,
    # and besides them O(k) arrays (|c|, r) and numpy's ufunc iterator
    # buffers of np.getbufsize() entries; a second stack, such as a
    # Horner scheme's other work buffer, would add 1.18 MB
    d, k = 6, 2048
    rng = np.random.default_rng(59)
    g = _random_complex(rng, d)
    a = g / np.abs(g).sum(axis=0).max()
    scalars = rng.uniform(-1.0, 1.0, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    n = matrixcore._taylor_degree(float(np.abs(scalars).max()))
    expm(a, scalars)
    tracemalloc.start()
    try:
        expm(a, scalars)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = d * d * k * 16
    assert peak <= stack + 16 * n * k + 48 * k + 2 * np.getbufsize() * 16


def test_expm_multiples_taylor_degree_rule():
    # the smallest n >= 1 with r^(n+1)/(n+1)! e^r <= u/32 as evaluated,
    # so that the exact tail stays <= u/24 where r is rounded low; tails
    # in exact rational arithmetic, e^r bounded above by its series
    u = Fraction(1, 2**53)

    def tail(r, n):
        r = Fraction(r)
        exp_up = sum(r**j / math.factorial(j) for j in range(30)) + Fraction(1, 10**30)
        return r ** (n + 1) / math.factorial(n + 1) * exp_up

    assert matrixcore._taylor_degree(0.0) == 1
    grid = np.concatenate([np.geomspace(1e-18, 1e-2, 40), np.linspace(0.01, 1, 100)])
    for r in map(float, grid):
        n = matrixcore._taylor_degree(r)
        assert n >= 1
        # r rounded low by 16 ulps keeps the tail within u/24
        assert tail(r * (1.0 + 16 * EPS), n) <= u / 24, r
        # minimal: one level fewer misses the evaluated u/32
        assert n == 1 or tail(r, n - 1) > u / 32, r
    # at these radii testing u/32 instead of u/24 costs no level
    for r in (1e-5, 1e-3, 1e-2, 0.1, 0.5, 1.0):
        n = matrixcore._taylor_degree(r)
        assert tail(r, n - 1) > u / 24, r
    assert [matrixcore._taylor_degree(r) for r in (1e-8, 1e-3, 1.0)] == [2, 5, 19]


def test_expm_multiples_reruns_are_bytewise_identical():
    rng = np.random.default_rng(45)
    a = _random_complex(rng, 5)
    scalars = rng.uniform(-0.5, 0.5, 300) * np.exp(1j * rng.uniform(0, 6, 300))
    first = expm(a, scalars)
    assert np.array_equal(expm(a, scalars), first)
    assert np.array_equal(expm(a.copy(), list(scalars)), first)


def test_expm_multiples_rejects_bad_input():
    a = np.eye(2)
    for bad in (np.ones((2, 2)), np.array([]), [1.0, np.nan], [np.inf], 0.5):
        with pytest.raises(ValueError, match="scalars"):
            expm(a, bad)
    with pytest.raises(ValueError, match="non-finite"):
        expm(np.full((2, 2), 1e300), [1e10])
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((3, 2, 2)), [1.0])


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


def _exact_defect_bracket(a, b):
    """Fractions lower <= S(a, b) <= upper, 10^-30 apart relatively.

    S = sum_{i>=2} 2/i! [(a+b)^i - a^i - b^i - ab h_{i-2}(a, b)], with
    h_n = sum_k a^k b^(n-k), has nonnegative terms, each at most
    2 (a+b)^i/i!: lower is a partial sum, upper adds the geometric
    majorant of its tail.  Exact in integers: a = A/2^e, b = B/2^e.
    """
    fa, fb = Fraction(a), Fraction(b)
    e = max(fa.denominator, fb.denominator).bit_length() - 1
    big_a, big_b = int(fa * 2**e), int(fb * 2**e)
    s = fa + fb
    pow_a, pow_b, pow_s = big_a, big_b, big_a + big_b
    h, pow_h = 1, 1  # h_{i-2} and A^(i-2)
    lower, fact, i = Fraction(0), 1, 1
    while True:
        i += 1
        if i > 2:
            pow_h *= big_a
            h = big_b * h + pow_h
        pow_a, pow_b, pow_s = pow_a * big_a, pow_b * big_b, pow_s * (big_a + big_b)
        fact *= i
        term = 2 * (pow_s - pow_a - pow_b - big_a * big_b * h)
        lower += Fraction(term, fact << (e * i))
        if i + 2 > 2 * s:
            tail = 2 * s ** (i + 1) / (fact * (i + 1)) / (1 - s / (i + 2))
            if tail <= lower * Fraction(1, 10**30):
                return lower, lower + tail


# a = b; a << b; tiny norms; pairs 1e-7 apart, as finite-difference bumps
# make them; both sides of the branch points 1 of lo, hi and hi - lo; and
# norms past the old radius a + b >= 42 of the truncated series
RIGOUR_PAIRS = [
    (1e-8, 1e-8), (0.3, 0.3), (1.0, 1.0), (2.5, 2.5), (30.0, 30.0),
    (1e-8, 1.0), (1e-6, 5.0), (1e-3, 40.0), (0.01, 30.0),
    (1e-8, 2e-8), (3e-8, 1e-8),
    (0.3, 0.3 + 1e-7), (1.0 - 1e-7, 1.0), (1.0, 1.0 + 1e-7), (2.0, 2.0 - 1e-7),
    (0.5, 1.0 - 2**-40), (0.5, 1.0), (0.5, 1.0 + 2**-40),
    (1.0 - 2**-40, 1.5), (1.0 + 2**-40, 1.5),
    (0.25, 1.25 - 2**-40), (0.5, 1.5), (0.25, 1.25 + 2**-40),
    (21.0, 21.0), (5.0, 40.0), (25.0, 35.0),
]


def test_defect_series_brackets_exact_sum():
    # never below the exact series, and above it by at most 2^-46
    rng = np.random.default_rng(41)
    pairs = RIGOUR_PAIRS + [tuple(10.0 ** rng.uniform(-8, 1.5, 2)) for _ in range(40)]
    a, b = (np.array(col) for col in zip(*pairs))
    got = matrixcore._defect_series_batch(a, b)
    assert np.array_equal(got, matrixcore._defect_series_batch(b, a))
    for x, y, value in zip(a, b, got):
        lower, upper = _exact_defect_bracket(float(x), float(y))
        assert Fraction(float(value)) >= upper, (x, y)
        assert Fraction(float(value)) <= lower * (1 + Fraction(1, 2**46)), (x, y)


@settings(deadline=None, max_examples=100)
@given(
    a=st.floats(min_value=1e-8, max_value=20.0),
    b=st.floats(min_value=1e-8, max_value=20.0),
)
def test_defect_series_matches_truncated_series_oracle(a, b):
    # inside the old radius the truncated series plus its tail majorant
    # sits above the exact sum, and close to it where the tail is small
    got = float(matrixcore._defect_series_batch(np.array([a]), np.array([b]))[0])
    want = float(oracles.defect_series_truncated(np.array([a]), np.array([b]), 40)[0])
    assert got <= want * (1 + 1e-13)
    if a + b <= 4.0:
        assert got == pytest.approx(want, rel=1e-13)


def test_defect_bound_has_no_radius():
    # the truncated-series oracle refuses a + b >= i_max + 2; the closed
    # form bounds any finite norms
    with pytest.raises(ValueError, match="tail majorant"):
        oracles.defect_series_truncated(np.array([30.0]), np.array([30.0]), 40)
    lower, upper = _exact_defect_bracket(30.0, 30.0)
    assert Fraction(exp_product_defect_bound(30.0, 30.0)) >= upper
    assert math.isfinite(exp_product_defect_bound(300.0, 300.0))


def test_defect_bound_overflow_gives_inf_never_nan():
    inf = math.inf
    tiny = 5e-324  # the smallest subnormal
    for a, b, want in [
        (800.0, 800.0, inf),
        (1e-300, 800.0, inf),
        (400.0, 400.0, inf),
        (1e200, 1e200, inf),
        (1e-300, 1e-300, tiny),
        (tiny, tiny, tiny),
        (0.0, 800.0, 0.0),
        (1e308, 0.0, 0.0),
    ]:
        assert exp_product_defect_bound(a, b) == want, (a, b)
        assert exp_product_defect_bound(b, a) == want, (a, b)
    # subnormal and 1e-300 norms against a normal one: finite, above the
    # leading term ab, and no larger than the ab e^(a+b) majorant of S
    for a in (tiny, 1e-310, 1e-300):
        for b in (1e-3, 1.0, 30.0, 700.0):
            got = exp_product_defect_bound(a, b)
            assert math.isfinite(got) and a * b <= got, (a, b)
            assert got <= a * b * math.exp(a + b) + tiny, (a, b)


def test_defect_bound_validates_arguments():
    with pytest.raises(ValueError):
        exp_product_defect_bound(-1.0, 1.0)
    with pytest.raises(ValueError):
        exp_product_defect_bound(math.nan, 1.0)
    with pytest.raises(ValueError):
        exp_product_defect_bound(math.inf, 1.0)



# norms at and next to the branch point |y| = 1, zero, subnormal, the
# smallest normal, past exp's overflow at 709.78, near the top and +inf
_ONE_DOWN, _ONE_UP = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
_DEFECT_NORMS = (
    0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300, 1e-8, 0.5, _ONE_DOWN, 1.0,
    _ONE_UP, 2.0, 700.0, 709.78, 710.0, 1e300, math.inf,
)
_norms = st.one_of(
    st.sampled_from(_DEFECT_NORMS),
    st.floats(0.0, 3.0),
    st.floats(0.0, 1e3),
    st.floats(0.0, 1e308),
)


@settings(deadline=None, max_examples=300)
@given(
    m=st.integers(1, 6),
    k=st.integers(1, 6),
    a=st.lists(_norms, min_size=36, max_size=36),
    b=st.lists(_norms, min_size=36, max_size=36),
    gap=st.sampled_from((None, 1.0, _ONE_DOWN, _ONE_UP)),
    layouts=st.tuples(st.sampled_from(oracles.LAYOUTS), st.sampled_from(oracles.LAYOUTS)),
)
@example(
    m=2, k=3, a=[1.0, _ONE_DOWN, _ONE_UP, 0.0, 5e-324, 710.0] + [0.5] * 30,
    b=[1.0, 0.25, 3.0, 1e-310, 1.0, 1e300] + [0.5] * 30, gap=None, layouts=("F", "strided"),
)
@example(m=3, k=2, a=[0.25] * 36, b=[0.0] * 36, gap=1.0, layouts=("C", "C"))
def test_defect_series_is_bit_identical_to_stacked_oracle(m, k, a, b, gap, layouts):
    # gap: b = a + gap on every other entry, so -d sits at or next to -1
    a, b = (np.array(x[: m * k]).reshape(m, k) for x in (a, b))
    if gap is not None:
        b.reshape(-1)[::2] = a.reshape(-1)[::2] + gap
    a, b = (oracles.laid_out(x, lay) for x, lay in zip((a, b), layouts))
    got = matrixcore._defect_series_batch(a, b)
    # a = b = inf gives inf - inf in d and NaN in both; the oracle forms d
    # outside its np.errstate, so it warns there, and the package does not
    with np.errstate(invalid="ignore"):
        want = oracles.defect_series_stacked(a, b)
    assert np.array_equal(got, want, equal_nan=True)


def test_defect_series_peak_memory_at_16384_by_5():
    # lo and d fall on both sides of 1, so both phi2 branches run on
    # copies of their entries; 16,384 x 5 float64 is 0.625 MiB per array
    import tracemalloc

    rng = np.random.default_rng(29)
    a = rng.uniform(0.0, 2.0, (16384, 5))
    b = rng.uniform(0.0, 2.0, (16384, 5))
    lo, d = np.minimum(a, b), np.abs(a - b)
    for y in (lo, d):
        assert (y < 1.0).any() and (y >= 1.0).any()
    tracemalloc.start()
    try:
        out = matrixcore._defect_series_batch(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, oracles.defect_series_stacked(a, b))
    assert peak <= 5.8 * 2**20, peak / 2**20


# ------------------------------------------------------------- is_unitary


def _with_residual(e, seed):
    """m with m m* = V diag(1 + e) V*, V a seeded random unitary: the
    residual's operator norm is max |e| and its Frobenius norm ||e||_2."""
    v = random_unitary(len(e), seed=seed)
    return (v * np.sqrt(1.0 + np.asarray(e))) @ v.conj().T


def _count_svd(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_is_unitary_accepts_exact_unitaries_without_an_svd(monkeypatch):
    calls = _count_svd(monkeypatch)
    perm = np.eye(5)[[2, 0, 4, 1, 3]]
    for u in (np.eye(1), np.eye(4), perm, np.diag([1j, -1.0, 1.0])):
        assert is_unitary(u, tol=0.0)
        assert is_unitary(u)
    assert is_unitary(random_unitary(8, seed=3))
    assert calls == []


def test_is_unitary_full_rank_residual_within_tol_goes_to_the_svd(monkeypatch):
    # ||r|| = 0.9 tol < tol < ||r||_F = 1.8 tol: the Frobenius test cannot
    # accept, and the SVD must
    tol = 1e-6
    m = _with_residual([0.9 * tol, -0.9 * tol, 0.9 * tol, -0.9 * tol], seed=5)
    calls = _count_svd(monkeypatch)
    assert is_unitary(m, tol=tol)
    assert calls == [1]


@pytest.mark.parametrize(
    "e",
    [
        [1.01e-6, 0.0, 0.0],
        [0.0, -1.01e-6, 0.0],
        [1.01e-6, -1.01e-6, 1.01e-6],
        [1.01e-6, 0.5e-6, -0.5e-6],
    ],
)
def test_is_unitary_refuses_residual_just_above_tol(e):
    m = _with_residual(e, seed=11)
    assert not is_unitary(m, tol=1e-6)
    assert is_unitary(m, tol=1.02e-6)


# non-reals, NaN and inf are in test_inputs' real-scalar table
@pytest.mark.parametrize("tol", ["x", -1.0, -1e-300])
def test_is_unitary_refuses_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        is_unitary(np.eye(2), tol=tol)


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


def test_random_unitary_refuses_bool_or_non_integer_dim():
    for bad in (2.5, 3.0, True, False, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match="dim must be an integer"):
            random_unitary(bad, seed=0)
    assert np.array_equal(random_unitary(np.int64(3), seed=4), random_unitary(3, seed=4))


def test_random_unitary_rejects_infeasible_gap():
    with pytest.raises(ValueError, match="do not fit"):
        random_unitary(8, 1.0, seed=0)
    with pytest.raises(ValueError):
        random_unitary(0, 0.1, seed=0)
    with pytest.raises(ValueError, match=r"dim must be in \[1, 64\], got 65"):
        random_unitary(matrixcore.MAX_DIM + 1, seed=0)
    with pytest.raises(ValueError):
        random_unitary(3, -0.5, seed=0)


# ------------------------------------------------------------ unitary_eig

EIG_KINDS = (
    "random",
    "identity",
    "degenerate",
    "conjugate pairs",
    "clusters 1e-9",
    "gaps 1e-7",
    "ambiguous chain",
    "unitary to 1e-10",
)


def _eig_case(kind, d, seed):
    """(u, delta): a d x d u of the given kind and a bound delta on its
    distance from the unitary group beyond rounding.  Phases are uniform
    ("random"), the identity exactly ("identity"), diag(1, 1, -1, i)
    repeated to d ("degenerate"), pairs +-theta that share the eigenvalue
    cos(theta) of the Hermitian part ("conjugate pairs"), up to three
    centres spread by 1e-9 ("clusters 1e-9"), one run of phases 1e-7
    apart ("gaps 1e-7") or 0.6e-8 apart, which chains past
    DEFAULT_CLUSTER_TOL from d = 3 on ("ambiguous chain"), or uniform
    with an error of norm 4e-11 added ("unitary to 1e-10", so that u u*
    is I within 1e-10).  All but the identity are set in a random
    basis."""
    if kind == "identity":
        return np.eye(d, dtype=np.complex128), 0.0
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 2 * np.pi, 3)
    if kind in ("random", "unitary to 1e-10"):
        phases = rng.uniform(0.0, 2 * np.pi, d)
    elif kind == "degenerate":
        phases = np.resize([0.0, 0.0, np.pi, np.pi / 2], d)
    elif kind == "conjugate pairs":
        half = rng.uniform(0.0, np.pi, (d + 1) // 2)
        phases = np.concatenate((half, -half))[:d]
    elif kind == "clusters 1e-9":
        phases = centres[rng.integers(0, 3, d)] + 1e-9 * rng.uniform(-1.0, 1.0, d)
    elif kind == "gaps 1e-7":
        phases = centres[0] + 1e-7 * rng.permutation(d)
    else:
        phases = centres[0] + 0.6e-8 * np.arange(d)
    q = random_unitary(d, seed=seed)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    if kind != "unitary to 1e-10":
        return u, 0.0
    noise = _random_complex(rng, d)
    return u + noise * (4e-11 / op_norm(noise)), 4e-11


def _schur_eig(u):
    tri, vecs = scipy.linalg.schur(u, output="complex")
    return np.diag(tri), vecs


def _phases_from_gap(lam, ref):
    """The phases of lam in increasing order, in (-pi, pi] after turning
    the centre of the widest gap between the phases of ref to -1, so no
    wrap splits two lists that agree."""
    p = np.sort(np.angle(ref))
    gaps = np.diff(np.append(p, p[0] + 2 * np.pi))
    k = int(np.argmax(gaps))
    return np.sort(np.angle(-lam * np.exp(-1j * (p[k] + gaps[k] / 2))))


@pytest.mark.parametrize("kind", EIG_KINDS)
def test_unitary_eig_is_an_orthonormal_eigenbasis_matching_schur(kind):
    for d in range(1, matrixcore.MAX_DIM + 1):
        u, delta = _eig_case(kind, d, seed=d)
        assert is_unitary(u)
        lam, vecs = matrixcore.unitary_eig(u)
        eye = np.eye(d)
        assert op_norm(vecs.conj().T @ vecs - eye) <= 8 * d * EPS, d
        assert op_norm((vecs * lam) @ vecs.conj().T - u) <= 8 * d * EPS + 2 * delta, d
        want, _ = _schur_eig(u)
        err = np.abs(_phases_from_gap(lam, want) - _phases_from_gap(want, want))
        assert err.max() <= 4 * d * EPS + delta, d


@pytest.mark.parametrize("kind", EIG_KINDS)
def test_unitary_eig_clusters_match_schur(kind):
    # spectrum reads unitary_eig; the same clustering walk on the Schur
    # phases must give the same verdict, cluster phases and projectors
    for d in range(1, matrixcore.MAX_DIM + 1):
        u, delta = _eig_case(kind, d, seed=d)
        tri_lam, schur_vecs = _schur_eig(u)
        try:
            labels, reps = oracles.phase_clusters(
                np.angle(tri_lam) % (2 * np.pi), DEFAULT_CLUSTER_TOL
            )
        except ClusteringAmbiguityError:
            with pytest.raises(ClusteringAmbiguityError):
                spectrum(u)
            continue
        spec = spectrum(u)
        assert spec.cluster_phases.shape == reps.shape, d
        circle = np.abs(np.angle(np.exp(1j * (spec.cluster_phases - reps))))
        assert circle.max() <= 4 * d * EPS + delta, d
        gap = np.diff(np.append(reps, reps[0] + 2 * np.pi)).min()
        for k, got in enumerate(oracles.cluster_projectors(spec)):
            block = schur_vecs[:, labels == k]
            err = op_norm(got - block @ block.conj().T)
            assert err <= (32 * d * EPS + 2 * delta) / gap, (d, k)
    if kind == "ambiguous chain":
        # the chain spans 0.6e-8 (d - 1) > DEFAULT_CLUSTER_TOL from d = 3 on
        with pytest.raises(ClusteringAmbiguityError):
            spectrum(_eig_case(kind, 3, seed=3)[0])


def test_unitary_eig_of_a_diagonal_u_is_its_diagonal():
    # the Cayley transform of a diagonal u is diagonal, so the basis is a
    # permutation and the Rayleigh quotients are u's entries, bit for bit
    u = np.diag(np.exp(1j * np.array([0.3, 2.0, -1.0, 0.3, np.pi])))
    lam, vecs = matrixcore.unitary_eig(u)
    perm = np.abs(vecs)
    assert set(np.unique(perm)) <= {0.0, 1.0}
    assert np.array_equal(perm @ perm.T, np.eye(5))
    assert np.array_equal(lam, np.diag(u)[perm.argmax(axis=0)])


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
        {"dim": 65, "entries": [[1.0, 0.0]] * 65**2},
        {"dim": 2.0, "entries": [[1.0, 0.0]] * 4},
        {"dim": 2, "entries": [[1.0, 0.0]] * 4, "extra": 1},
    ],
)
def test_matrix_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        matrix_from_json_dict(obj)


@pytest.mark.parametrize(
    "bad, part",
    [
        ([True, 0.0], "real part"),
        ([0.0, "1"], "imaginary part"),
        ([None, 0.0], "real part"),
        ([0.0, math.nan], "imaginary part"),
        ([-math.inf, 0.0], "real part"),
        ([0.0, 10**400], "imaginary part"),
        ([1.0], None),
        ([1.0, 0.0, 0.0], None),
        ((1.0, 0.0), None),
    ],
)
@pytest.mark.parametrize("k", [37, 63])
def test_matrix_json_names_a_deep_bad_entry_by_index(bad, part, k):
    # the entries before and after the bad one are valid, so the message
    # must come from entry k alone
    entries = [[float(j), -0.5] for j in range(64)]
    entries[k] = bad
    if part is None:
        match = f"^entry {k} must be a \\[re, im\\] pair"
    else:
        match = f"^entry {k} {part} must be a finite real number"
    with pytest.raises(ValueError, match=match):
        matrix_from_json_dict({"dim": 8, "entries": entries})


def test_matrix_json_entries_convert_as_float_does():
    # ints and floats, as json.load gives them, including ints past 2**53
    # and 2**64 that float() rounds, signed zeros and subnormals; numpy
    # reals and Fractions are numbers.Real too and convert the same way
    plain = [[2**53 + 1, -0.0], [-(2**64) - 3, 5e-324], [10**300, 1], [0, -7.5]]
    mixed = plain[:3] + [[Fraction(1, 3), np.float32(0.1)]]
    for parts in (plain, mixed):
        want = np.array([complex(float(re), float(im)) for re, im in parts])
        got = matrix_from_json_dict({"dim": 2, "entries": parts})
        assert got.shape == (2, 2) and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()


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
