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
    assert len(spec.clusters) == 2
    assert spec.clusters[0][0] == pytest.approx(0.0, abs=1e-12)
    assert spec.clusters[1][0] == pytest.approx(np.pi, abs=1e-12)
    assert_allclose(spec.clusters[0][1], np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(spec.clusters[1][1], np.diag([0.0, 1.0]), atol=1e-12)


def test_spectrum_degenerate_eigenspace_is_one_cluster():
    u = np.diag([1.0, 1.0, np.exp(1.0j)])
    spec = spectrum(u)
    assert len(spec.clusters) == 2
    phase0, proj0 = spec.clusters[0]
    assert phase0 == pytest.approx(0.0, abs=1e-12)
    assert_allclose(proj0, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_spectrum_merges_phases_within_tol():
    u = np.diag(np.exp(1j * np.array([0.3, 0.3 + 1e-10, 1.1])))
    spec = spectrum(u, cluster_tol=1e-8)
    assert len(spec.clusters) == 2
    assert spec.clusters[0][0] == pytest.approx(0.3 + 5e-11, abs=1e-12)
    assert int(round(np.trace(spec.clusters[0][1]).real)) == 2


def test_spectrum_merges_across_phase_wraparound():
    u = np.diag(np.exp(1j * np.array([1e-10, 2 * np.pi - 1e-10])))
    spec = spectrum(u, cluster_tol=1e-8)
    assert len(spec.clusters) == 1
    assert_allclose(spec.clusters[0][1], np.eye(2), atol=1e-12)


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
    assert len(spec.clusters) == (2 if merged else 3)
    # the close pair's eigenspace is well separated, whether merged or split
    far = min(
        spec.clusters,
        key=lambda c: abs(np.angle(np.exp(1j * (c[0] - far_phase)))),
    )
    near = sum(proj for _phase, proj in spec.clusters if proj is not far[1])
    assert op_norm(far[1] - np.outer(basis[:, 2], basis[:, 2].conj())) <= 1e-12
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
    assert len(spec.clusters) == 1
    assert spec.clusters[0][0] == pytest.approx(0.7, abs=1e-15)
    assert np.array_equal(spec.clusters[0][1], np.ones((1, 1)))
    assert spec.col_labels.tolist() == [0]


def test_spectrum_labels_follow_ranked_phases_across_wraparound():
    # the first wide gap follows the smallest phase, not the wrap gap, and
    # the cluster {-0.4e-8, 0.2e-8} straddles 0 = 2 pi, so its phase,
    # 2 pi - 1e-9, ranks last
    u = np.diag(np.exp(1j * np.array([0.2e-8, 3.0, -0.4e-8, 1.0])))
    spec = spectrum(u, cluster_tol=1e-8)
    reps = [phase for phase, _ in spec.clusters]
    assert reps == sorted(reps)
    assert_allclose(reps, [1.0, 3.0, 2 * np.pi - 1e-9], rtol=0, atol=1e-15)
    ranks = {1.0: 0, 3.0: 1}
    for j, phase in enumerate(spec.col_phases):
        near = [r for r in ranks if abs(phase - r) < 0.1]
        assert spec.col_labels[j] == (ranks[near[0]] if near else 2)
    for label, (_phase, proj) in enumerate(spec.clusters):
        cols = spec.basis[:, spec.col_labels == label]
        assert_allclose(proj, cols @ cols.conj().T, atol=1e-15)


def test_spectrum_rejects_everything_close():
    u = np.diag(np.exp(1j * np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])))
    with pytest.raises(ClusteringAmbiguityError):
        spectrum(u, cluster_tol=3.0)
    # the same unitary clusters fine at a sane tolerance
    assert len(spectrum(u, cluster_tol=1e-8).clusters) == 3


def test_spectrum_validates_input():
    with pytest.raises(ValueError, match="not unitary"):
        spectrum(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        spectrum(np.eye(2), cluster_tol=0.0)


def test_spectrum_projector_algebra_random():
    for seed in range(8):
        u = random_unitary(5, 0.2, seed=seed)
        spec = spectrum(u)
        total = np.zeros((5, 5), dtype=np.complex128)
        recon = np.zeros((5, 5), dtype=np.complex128)
        for i, (phase_i, pi) in enumerate(spec.clusters):
            assert op_norm(pi - pi.conj().T) <= 1e-10
            assert op_norm(pi @ pi - pi) <= 1e-10
            total += pi
            recon += np.exp(1j * phase_i) * pi
            for j, (_, pj) in enumerate(spec.clusters):
                if i != j:
                    assert op_norm(pi @ pj) <= 1e-10
        assert op_norm(total - np.eye(5)) <= 1e-10
        assert op_norm(recon - u) <= 1e-9


def test_spectrum_phases_sorted_and_deterministic():
    u = random_unitary(6, 0.1, seed=33)
    s1 = spectrum(u)
    s2 = spectrum(u)
    phases = [p for p, _ in s1.clusters]
    assert phases == sorted(phases)
    assert np.array_equal(s1.basis, s2.basis)
    for (p1, m1), (p2, m2) in zip(s1.clusters, s2.clusters):
        assert p1 == p2
        assert np.array_equal(m1, m2)


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
    assume(len(spec.clusters) > 1)
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
    with pytest.raises(ValueError, match="positive integer"):
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
