import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ergopulse.ergodic import (
    DEFAULT_CLUSTER_TOL,
    cesaro_mean,
    commutant_project,
    solve_coboundary,
    spectrum,
    weighted_cesaro_mean,
    yosida_split,
)
from ergopulse.errors import ClusteringAmbiguityError, NotACoboundaryError
from ergopulse.matrixcore import op_norm, random_unitary
from ergopulse.schedules import (
    Schedule,
    equidistant,
    pathological,
    tv_functional,
    uhrig_family,
)

import oracles

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def _random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def _conj_power_oracle(u, x, k):
    uk = np.linalg.matrix_power(u, k)
    return uk @ x @ uk.conj().T


# ---------------------------------------------------------------- spectrum


def test_spectrum_of_diag_unitary():
    spec = spectrum(np.diag([1.0, -1.0]))
    assert spec.cluster_phases.shape == (2,)
    assert spec.cluster_phases[0] == pytest.approx(0.0, abs=1e-12)
    assert spec.cluster_phases[1] == pytest.approx(np.pi, abs=1e-12)
    p0, p1 = oracles.cluster_projectors(spec)
    assert_allclose(p0, np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(p1, np.diag([0.0, 1.0]), atol=1e-12)


def test_spectrum_degenerate_eigenspace_is_one_cluster():
    u = np.diag([1.0, 1.0, np.exp(1.0j)])
    spec = spectrum(u)
    assert spec.cluster_phases.shape == (2,)
    assert spec.cluster_phases[0] == pytest.approx(0.0, abs=1e-12)
    proj0 = oracles.cluster_projectors(spec)[0]
    assert_allclose(proj0, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_spectrum_merges_phases_within_tol():
    u = np.diag(np.exp(1j * np.array([0.3, 0.3 + 1e-10, 1.1])))
    spec = spectrum(u, cluster_tol=1e-8)
    assert spec.cluster_phases.shape == (2,)
    assert spec.cluster_phases[0] == pytest.approx(0.3 + 5e-11, abs=1e-12)
    assert np.count_nonzero(spec.col_labels == 0) == 2


def test_spectrum_merges_across_phase_wraparound():
    u = np.diag(np.exp(1j * np.array([1e-10, 2 * np.pi - 1e-10])))
    spec = spectrum(u, cluster_tol=1e-8)
    assert spec.cluster_phases.shape == (1,)
    assert spec.col_labels.tolist() == [0, 0]


@settings(deadline=None, max_examples=100)
@given(
    phi=st.floats(0.0, 2 * np.pi),
    straddle=st.booleans(),
    merged=st.booleans(),
    offset=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectrum_splits_close_phases_at_cluster_tol(
    phi, straddle, merged, offset, seed
):
    # phases phi, phi + g, phi + 2 in a random basis, with g within
    # [tol / 2, 2 tol] but at least 1e-6 tol from tol itself
    tol = DEFAULT_CLUSTER_TOL
    if merged:
        g = tol * (1 - 1e-6) * (0.5 + 0.5 * offset)
    else:
        g = tol * (1 + 1e-6) * (1 + offset)
    if straddle:
        # phi and phi + g on either side of 0 = 2 pi
        phi = -offset * g
    rng = np.random.default_rng(seed)
    ginibre = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    basis, _ = np.linalg.qr(ginibre)
    far_phase = (phi + 2.0) % (2 * np.pi)
    u = (basis * np.exp(1j * np.array([phi, phi + g, far_phase]))) @ basis.conj().T
    spec = spectrum(u)
    assert spec.cluster_phases.shape == ((2,) if merged else (3,))
    # the close pair's eigenspace is well separated, whether merged or split
    distance = np.abs(np.angle(np.exp(1j * (spec.cluster_phases - far_phase))))
    far = int(np.argmin(distance))
    projectors = oracles.cluster_projectors(spec)
    near = sum(proj for k, proj in enumerate(projectors) if k != far)
    far_want = np.outer(basis[:, 2], basis[:, 2].conj())
    assert op_norm(projectors[far] - far_want) <= 1e-12
    assert op_norm(near - basis[:, :2] @ basis[:, :2].conj().T) <= 1e-12


def test_spectrum_rejects_ambiguous_chain():
    # pairwise gaps sit below tol but the chain spans more than tol, also
    # when it runs across 0 = 2 pi
    for start in (0.0, -0.6e-8):
        u = np.diag(np.exp(1j * (start + np.array([0.0, 0.6e-8, 1.2e-8]))))
        with pytest.raises(ClusteringAmbiguityError) as info:
            spectrum(u, cluster_tol=1e-8)
        assert info.value.cluster_tol == 1e-8
        assert len(info.value.phases) == 3


def test_spectrum_of_one_dimension_with_huge_tol():
    # the single phase's own wrap gap, 2 pi, sits below tol = 10
    spec = spectrum(np.array([[np.exp(0.7j)]]), cluster_tol=10.0)
    assert spec.cluster_phases.shape == (1,)
    assert spec.cluster_phases[0] == pytest.approx(0.7, abs=1e-15)
    assert spec.col_labels.tolist() == [0]


def test_spectrum_labels_follow_ranked_phases_across_wraparound():
    # the first wide gap follows the smallest phase, not the wrap gap, and
    # the cluster {-0.4e-8, 0.2e-8} straddles 0 = 2 pi, so its phase,
    # 2 pi - 1e-9, ranks last
    u = np.diag(np.exp(1j * np.array([0.2e-8, 3.0, -0.4e-8, 1.0])))
    spec = spectrum(u, cluster_tol=1e-8)
    reps = spec.cluster_phases
    assert np.all(np.diff(reps) > 0)
    assert_allclose(reps, [1.0, 3.0, 2 * np.pi - 1e-9], rtol=0, atol=1e-15)
    ranks = {1.0: 0, 3.0: 1}
    for j, phase in enumerate(spec.col_phases):
        near = [r for r in ranks if abs(phase - r) < 0.1]
        assert spec.col_labels[j] == (ranks[near[0]] if near else 2)


def test_spectrum_rejects_everything_close():
    u = np.diag(np.exp(1j * np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])))
    with pytest.raises(ClusteringAmbiguityError):
        spectrum(u, cluster_tol=3.0)
    # the same unitary clusters fine at a sane tolerance
    assert spectrum(u, cluster_tol=1e-8).cluster_phases.shape == (3,)


def test_spectrum_validates_input():
    with pytest.raises(ValueError, match="not unitary"):
        spectrum(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        spectrum(np.eye(2), cluster_tol=0.0)


@pytest.mark.parametrize(
    "tol", ["1e-8", None, True, False, np.bool_(True), 1e-8 + 0j, [1e-8], np.inf, np.nan, -1]
)
def test_spectrum_refuses_bool_or_non_real_cluster_tol(tol):
    with pytest.raises(ValueError, match="cluster_tol must be (a finite real number|positive)"):
        spectrum(np.eye(2), cluster_tol=tol)


def test_spectrum_takes_any_positive_real_cluster_tol():
    want = spectrum(np.diag([1.0, 1.0j]), cluster_tol=1.0).col_labels
    for tol in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
        spec = spectrum(np.diag([1.0, 1.0j]), cluster_tol=tol)
        assert np.array_equal(spec.col_labels, want)
        assert spec.cluster_tol == 1.0 and type(spec.cluster_tol) is float


def _phase_cluster_unitary(rng, dim, kind, groups, rotate):
    """A unitary whose eigenphases are uniform ("random"), or sit at up
    to groups centres: exactly on them ("degenerate"), within 0.45 tol of
    them ("within_tol"; "wrap" puts the first centre at 0 = 2 pi), within
    0.8 tol ("spread", often an ambiguous chain) or up to 0.9 tol above a
    centre at 0 ("above_zero": a chain starts at a tiny phase, so the last
    bits of its mean offset show in its phase).  Diagonal, or in a random
    basis, where the Schur form moves each phase by rounding."""
    if kind == "random":
        phases = rng.uniform(0.0, 2 * np.pi, dim)
    else:
        centres = rng.uniform(0.0, 2 * np.pi, groups)
        if kind in ("wrap", "above_zero"):
            centres[0] = 0.0
        low, high = {
            "degenerate": (0.0, 0.0),
            "within_tol": (-0.45, 0.45),
            "wrap": (-0.45, 0.45),
            "spread": (-0.8, 0.8),
            "above_zero": (0.0, 0.9),
        }[kind]
        phases = centres[rng.integers(0, groups, dim)]
        phases += DEFAULT_CLUSTER_TOL * rng.uniform(low, high, dim)
    if not rotate:
        return np.diag(np.exp(1j * phases))
    q = random_unitary(dim, seed=int(rng.integers(2**31)))
    return (q * np.exp(1j * phases)) @ q.conj().T


@settings(deadline=None, max_examples=300)
@given(
    dim=st.integers(1, 12),
    kind=st.sampled_from(
        ("random", "degenerate", "within_tol", "wrap", "spread", "above_zero")
    ),
    groups=st.integers(1, 4),
    rotate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectrum_matches_per_chain_loop_oracle(dim, kind, groups, rotate, seed):
    # labels, cluster phases, verdict and the reported chain, bit for bit;
    # a chain of 8 or more phases takes numpy's blocked pairwise sum
    u = _phase_cluster_unitary(np.random.default_rng(seed), dim, kind, groups, rotate)
    try:
        labels, phases = oracles.spectrum_clusters(u, DEFAULT_CLUSTER_TOL)
    except ClusteringAmbiguityError as err:
        with pytest.raises(ClusteringAmbiguityError) as info:
            spectrum(u)
        assert info.value.phases == err.phases
        assert info.value.cluster_tol == err.cluster_tol
        return
    spec = spectrum(u)
    assert np.array_equal(spec.col_labels, labels)
    assert np.array_equal(spec.cluster_phases, phases)


def test_spectrum_projector_algebra_random():
    for seed in range(8):
        u = random_unitary(5, 0.2, seed=seed)
        spec = spectrum(u)
        total = np.zeros((5, 5), dtype=np.complex128)
        recon = np.zeros((5, 5), dtype=np.complex128)
        projectors = oracles.cluster_projectors(spec)
        for i, (phase_i, pi) in enumerate(zip(spec.cluster_phases, projectors)):
            assert op_norm(pi - pi.conj().T) <= 1e-10
            assert op_norm(pi @ pi - pi) <= 1e-10
            total += pi
            recon += np.exp(1j * phase_i) * pi
            for j, pj in enumerate(projectors):
                if i != j:
                    assert op_norm(pi @ pj) <= 1e-10
        assert op_norm(total - np.eye(5)) <= 1e-10
        assert op_norm(recon - u) <= 1e-9


def test_spectrum_phases_sorted_and_deterministic():
    u = random_unitary(6, 0.1, seed=33)
    s1 = spectrum(u)
    s2 = spectrum(u)
    assert np.all(np.diff(s1.cluster_phases) > 0)
    assert np.array_equal(s1.basis, s2.basis)
    assert np.array_equal(s1.cluster_phases, s2.cluster_phases)
    assert np.array_equal(s1.col_labels, s2.col_labels)


def test_spectrum_phases_of_long_chains_near_zero_match_the_loop_oracle():
    # a chain that starts at a tiny phase keeps every bit of its mean
    # offset, so a sum taken in another order shows here
    rng = np.random.default_rng(61)
    for _ in range(200):
        dim = int(rng.integers(8, 13))
        u = _phase_cluster_unitary(rng, dim, "above_zero", 1, False)
        labels, phases = oracles.spectrum_clusters(u, DEFAULT_CLUSTER_TOL)
        spec = spectrum(u)
        assert np.array_equal(spec.col_labels, labels)
        assert np.array_equal(spec.cluster_phases, phases)


# ------------------------------------------------------- commutant_project


def test_commutant_project_is_diagonal_part_for_generic_diag_u():
    spec = spectrum(np.diag([1.0, 1.0j]))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(commutant_project(spec, x), np.diag([1.0, 4.0]), atol=1e-14)


def test_commutant_project_block_structure():
    # degenerate pair keeps its full 2x2 block, cross terms die
    spec = spectrum(np.diag([1.0, 1.0, 1.0j]))
    x = np.arange(9.0).reshape(3, 3) + 1j
    got = commutant_project(spec, x)
    want = x.copy()
    want[0:2, 2] = 0
    want[2, 0:2] = 0
    assert_allclose(got, want, atol=1e-13)


def test_commutant_project_invariants_random():
    rng = np.random.default_rng(44)
    for seed in range(6):
        dim = int(rng.integers(2, 7))
        u = random_unitary(dim, 0.15, seed=100 + seed)
        spec = spectrum(u)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        px = commutant_project(spec, x)
        # idempotent, trace preserving, commutes with u
        assert op_norm(commutant_project(spec, px) - px) <= 1e-12
        assert abs(np.trace(px) - np.trace(x)) <= 1e-12
        assert op_norm(u @ px - px @ u) <= 1e-11
        # Hilbert-Schmidt orthogonality of the two parts
        assert abs(np.trace(px.conj().T @ (x - px))) <= 1e-11
        # Hermitian inputs stay Hermitian
        h = _random_hermitian(rng, dim)
        ph = commutant_project(spec, h)
        assert op_norm(ph - ph.conj().T) <= 1e-12


def test_commutant_project_dimension_mismatch():
    spec = spectrum(np.eye(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutant_project(spec, np.eye(3))


def _clustered_unitary(rng, dim, kind, merged):
    """A unitary in a random basis: Haar-like phases ("random"), the first
    phase doubled ("degenerate"), or the first two g apart ("near_tol"),
    with g in [tol / 2, tol) when merged and (tol, 2 tol] when not, at
    least 1e-6 tol from tol itself."""
    if kind == "random":
        return random_unitary(dim, 0.05, seed=int(rng.integers(2**31)))
    phi = rng.uniform(0.0, 2 * np.pi)
    phases = phi + 2.0 + 0.5 * np.arange(dim)
    phases[:2] = phi
    if kind == "near_tol":
        tol, step = DEFAULT_CLUSTER_TOL, rng.uniform(0.5, 1.0)
        phases[1] += tol * (1 - 1e-6) * step if merged else tol * (1 + 1e-6) * 2 * step
    q = random_unitary(dim, seed=int(rng.integers(2**31)))
    return (q * np.exp(1j * phases)) @ q.conj().T


@settings(deadline=None, max_examples=120)
@given(
    dim=st.integers(2, 8),
    kind=st.sampled_from(("random", "degenerate", "near_tol")),
    merged=st.booleans(),
    exponent=st.integers(-9, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigenbasis_step_matches_loop_oracles(dim, kind, merged, exponent, seed):
    # P(x) within 1e-14 max(1, ||x||) of the projector sum.  y within
    # 1e-14 max(1, ||x||, ||y||) of the division form: where a gap sits
    # just above the cluster tolerance, 1 / (1 - z) is about 1e8, so the
    # rounding of V* x V reaches y magnified by that much
    rng = np.random.default_rng(seed)
    u = _clustered_unitary(rng, dim, kind, merged)
    spec = spectrum(u)
    # a scalar u has no coboundary but 0, so x - P(x) is refused as noise
    assume(spec.cluster_phases.shape[0] > 1)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x *= 10.0**exponent
    want_p = oracles.commutant_project(spec, x)
    want_y = oracles.solve_coboundary(spec, x - want_p)
    scale_p = 1e-14 * max(1.0, op_norm(x))
    scale_y = 1e-14 * max(1.0, op_norm(x), op_norm(want_y))
    split = yosida_split(spec, x)
    assert op_norm(commutant_project(spec, x) - want_p) <= scale_p
    assert op_norm(split.fixed_part - want_p) <= scale_p
    assert op_norm(split.potential - want_y) <= scale_y
    assert op_norm(solve_coboundary(spec, x - want_p) - want_y) <= scale_y


# -------------------------------------------------------------- cesaro_mean


def test_cesaro_mean_single_step():
    u = random_unitary(3, 0.2, seed=1)
    x = np.arange(9.0).reshape(3, 3)
    assert_allclose(cesaro_mean(u, x, 1), u @ x @ u.conj().T, atol=1e-14)


def test_cesaro_mean_period_four_cancels_exactly():
    mean = cesaro_mean(np.diag([1.0, 1.0j]), SX, 4)
    assert np.array_equal(mean, np.zeros((2, 2)))


def test_cesaro_mean_fixes_commutant_elements():
    u = random_unitary(4, 0.2, seed=2)
    x = u + u @ u + 3 * np.eye(4)
    assert op_norm(cesaro_mean(u, x, 57) - x) <= 1e-12


def test_cesaro_mean_matches_matrix_power_oracle():
    rng = np.random.default_rng(55)
    u = random_unitary(4, 0.1, seed=3)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    n = 137
    want = sum(_conj_power_oracle(u, x, k) for k in range(1, n + 1)) / n
    assert op_norm(cesaro_mean(u, x, n) - want) <= 1e-12


def test_cesaro_mean_long_run_stays_accurate():
    rng = np.random.default_rng(56)
    u = random_unitary(3, 0.3, seed=4)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    n = 2500
    want = sum(_conj_power_oracle(u, x, k) for k in range(1, n + 1)) / n
    assert op_norm(cesaro_mean(u, x, n) - want) <= 1e-10


def test_long_means_do_not_drift_from_eigenbasis_closed_form():
    # B = 1025 and Q = 1024: both running powers z^r and z^(qB) are long
    n = 2**20 + 3
    rng = np.random.default_rng(58)
    u = random_unitary(3, 0.3, seed=11)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    spec = spectrum(u)
    basis = spec.basis
    y = basis.conj().T @ x @ basis
    phi = spec.col_phases[:, None] - spec.col_phases[None, :]
    z = np.exp(1j * phi)
    # (1/n) sum_k z^k = z (1 - z^n) / (n (1 - z)), and 1 where z = 1
    off = ~np.eye(3, dtype=bool)
    cesaro_mix = np.ones((3, 3), dtype=np.complex128)
    cesaro_mix[off] = (
        z[off] * (1 - np.exp(1j * n * phi[off])) / (n * (1 - z[off]))
    )
    s = pathological(n)
    k = np.arange(1, n + 1)
    weighted_mix = np.array(
        [[np.sum(s.weights * np.exp(1j * k * p)) for p in row] for row in phi]
    )
    for got, mix in (
        (cesaro_mean(u, x, n), cesaro_mix),
        (weighted_cesaro_mean(u, x, s), weighted_mix),
    ):
        want = basis @ (mix * y) @ basis.conj().T
        assert op_norm(got - want) <= 1e-10 * op_norm(x)


@pytest.mark.parametrize("scale", [1 + 4e-11, 1 - 4e-11])
def test_cesaro_mean_of_near_unitary_is_the_unitary_mean(scale):
    # u0 * scale passes the 1e-10 unitarity check; its mean is taken for
    # the unitary with the same eigenvectors and phases, so powers of
    # scale never enter
    u0 = random_unitary(3, 0.3, seed=7)
    rng = np.random.default_rng(59)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    got = cesaro_mean(u0 * scale, x, 1000)
    assert op_norm(got - cesaro_mean(u0, x, 1000)) <= 1e-12 * op_norm(x)


def test_cesaro_mean_converges_to_commutant_projection():
    u = random_unitary(4, 0.25, seed=5)
    rng = np.random.default_rng(57)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    px = commutant_project(spectrum(u), x)
    err = [op_norm(cesaro_mean(u, x, n) - px) for n in (10, 100, 1000)]
    assert err[0] > err[1] > err[2]
    # boundary terms oscillate, so check the decay envelope rather than an
    # exact 1/n constant
    assert err[2] <= err[0] / 50


def test_cesaro_mean_validation():
    with pytest.raises(ValueError):
        cesaro_mean(np.eye(2), np.eye(3), 5)
    with pytest.raises(ValueError):
        cesaro_mean(2 * np.eye(2), np.eye(2), 5)
    with pytest.raises(ValueError):
        cesaro_mean(np.eye(2), np.eye(2), 0)


def test_cesaro_mean_rejects_bool_pulse_count():
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        cesaro_mean(np.eye(2), np.eye(2), True)


# ----------------------------------------------------- weighted_cesaro_mean


def test_weighted_mean_with_equidistant_weights_equals_cesaro():
    u = random_unitary(3, 0.2, seed=6)
    x = np.eye(3, dtype=np.complex128)
    x[0, 1] = x[1, 0] = 1.0
    got = weighted_cesaro_mean(u, x, equidistant(12))
    assert np.array_equal(got, cesaro_mean(u, x, 12))


def test_weighted_mean_matches_direct_loop():
    rng = np.random.default_rng(66)
    u = random_unitary(4, 0.1, seed=7)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    row = rng.dirichlet(np.ones(9))
    s = Schedule(9, row)
    want = sum(w * _conj_power_oracle(u, x, k + 1) for k, w in enumerate(row))
    assert op_norm(weighted_cesaro_mean(u, x, s) - want) <= 1e-13


def test_weighted_mean_requires_schedule():
    with pytest.raises(ValueError, match="Schedule"):
        weighted_cesaro_mean(np.eye(2), np.eye(2), [0.5, 0.5])


def test_weighted_mean_of_coboundary_obeys_tv_bound():
    rng = np.random.default_rng(67)
    for seed in range(5):
        dim = int(rng.integers(2, 6))
        u = random_unitary(dim, 0.2, seed=200 + seed)
        spec = spectrum(u)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w = x - commutant_project(spec, x)
        y = solve_coboundary(spec, w)
        for n in (4, 16, 64):
            for s in (equidistant(n), uhrig_family()(n), pathological(n)):
                drift = op_norm(weighted_cesaro_mean(u, w, s))
                assert drift <= tv_functional(s) * op_norm(y) + 1e-10


# --------------------------------------------------------- solve_coboundary


def test_solve_coboundary_hand_example():
    spec = spectrum(np.diag([1.0, -1.0]))
    y = solve_coboundary(spec, 2 * SX)
    assert_allclose(y, SX, atol=1e-14)


def test_solve_coboundary_residual_and_gauge():
    rng = np.random.default_rng(77)
    for seed in range(8):
        dim = int(rng.integers(2, 7))
        u = random_unitary(dim, 0.15, seed=300 + seed)
        spec = spectrum(u)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w = x - commutant_project(spec, x)
        y = solve_coboundary(spec, w)
        assert op_norm(y - u @ y @ u.conj().T - w) <= 1e-11
        assert op_norm(commutant_project(spec, y)) <= 1e-12


def test_solve_coboundary_rejects_commutant_content():
    spec = spectrum(np.diag([1.0, -1.0]))
    with pytest.raises(NotACoboundaryError) as info:
        solve_coboundary(spec, np.eye(2))
    assert info.value.projection_norm == pytest.approx(1.0, abs=1e-12)


def test_not_a_coboundary_message_states_the_tested_ratio():
    # the rule is relative, so the refusal reports ||P(w)|| / ||w||: here
    # ||P(w)|| = ||diag(2, 0)|| = 2 and ||w|| = 1 + sqrt(2)
    spec = spectrum(np.diag([1.0, -1.0]))
    w = np.array([[2.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotACoboundaryError) as info:
        solve_coboundary(spec, w)
    assert info.value.projection_norm == pytest.approx(2.0, rel=1e-14)
    assert info.value.generator_norm == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-14)
    assert str(info.value) == (
        "operator is not a coboundary: its commutant projection has op_norm 2; "
        "||P(x)|| / ||x|| = 0.828427 exceeds the tolerance 1e-08 (||x|| = 2.41421)"
    )


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_solve_coboundary_rule_is_relative(scale):
    # the rule ||P(w)|| <= COBOUNDARY_TOL ||w|| gives one verdict at every
    # scale: s I is refused even where its norm is tiny, and s X is
    # solved even where it is huge
    spec = spectrum(np.diag([1.0, -1.0]))
    with pytest.raises(NotACoboundaryError):
        solve_coboundary(spec, scale * np.eye(2))
    y = solve_coboundary(spec, 2 * scale * SX)
    assert op_norm(y - scale * SX) <= 1e-15 * scale


def test_split_with_eigenphase_zero_divides_no_zero():
    # 1 - lambda_i conj(lambda_j) is exactly 0 on the diagonal when a
    # phase is 0; those entries must never reach the division
    for u in (np.diag([1.0, -1.0]), np.diag([1.0, 1j]), np.diag([1.0, 1.0, -1.0])):
        spec = spectrum(u)
        x = np.ones((u.shape[0], u.shape[0]), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = yosida_split(spec, x)
            y = solve_coboundary(spec, split.coboundary_part)
        assert np.all(np.isfinite(split.potential))
        assert_allclose(y, split.potential, atol=1e-15)


def test_solve_coboundary_zero_maps_to_zero():
    spec = spectrum(random_unitary(3, 0.2, seed=8))
    assert np.array_equal(solve_coboundary(spec, np.zeros((3, 3))), np.zeros((3, 3)))


def test_solve_coboundary_dimension_mismatch():
    spec = spectrum(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_coboundary(spec, np.zeros((3, 3)))


# -------------------------------------------------------------- yosida_split


def test_yosida_split_reconstructs_and_separates():
    rng = np.random.default_rng(88)
    for seed in range(6):
        dim = int(rng.integers(2, 6))
        u = random_unitary(dim, 0.2, seed=400 + seed)
        spec = spectrum(u)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        split = yosida_split(spec, x)
        assert op_norm(split.fixed_part + split.coboundary_part - x) <= 1e-12
        assert op_norm(u @ split.fixed_part - split.fixed_part @ u) <= 1e-11
        y = split.potential
        assert (
            op_norm(y - u @ y @ u.conj().T - split.coboundary_part) <= 1e-11
        )


def test_yosida_split_of_commutant_element_has_zero_potential():
    u = random_unitary(3, 0.3, seed=9)
    split = yosida_split(spectrum(u), u + 2 * np.eye(3))
    assert op_norm(split.coboundary_part) <= 1e-12
    assert op_norm(split.potential) <= 1e-12


def test_cesaro_mean_of_coboundary_telescopes_exactly():
    # mean over k=1..n of the conjugated coboundary collapses to boundary terms
    rng = np.random.default_rng(99)
    u = random_unitary(4, 0.2, seed=10)
    spec = spectrum(u)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = x - commutant_project(spec, x)
    y = solve_coboundary(spec, w)
    for n in (3, 10, 50):
        mean = cesaro_mean(u, w, n)
        boundary = (
            _conj_power_oracle(u, y, 1) - _conj_power_oracle(u, y, n + 1)
        ) / n
        assert op_norm(mean - boundary) <= 1e-12
        assert op_norm(mean) <= 2 * op_norm(y) / n + 1e-12
