import csv
import json
import math
from fractions import Fraction

import ergopulse.ergodic
import ergopulse.evolution
import ergopulse.matrixcore
import ergopulse.optimizer

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ergopulse.cli import PRESETS
from ergopulse.errors import NotACoboundaryError
from ergopulse.evolution import (
    BoundBreakdown,
    PulseSystem,
    _powers,
    _schedule_series_terms,
    _step_norms,
    control_error,
    convergence_sweep,
    equidistant_bound_constants,
    limit_evolution,
    pulse_product,
    report_to_json_dict,
    schedule_bound_rhs,
    write_report_csv,
)
from ergopulse.matrixcore import is_unitary, op_norm, random_unitary
from ergopulse.schedules import (
    Schedule,
    ScheduleFamily,
    equidistant,
    equidistant_family,
    pathological,
    pathological_family,
    table_density_family,
    uhrig,
    uhrig_family,
)
from ergopulse.ergodic import commutant_project, spectrum
from ergopulse._kernels import CHAIN_BLOCK

import oracles

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SZ = np.diag([1.0 + 0.0j, -1.0])


def _product_oracle(sys, s):
    acc = np.eye(sys.dim, dtype=np.complex128)
    for a in s.weights:
        acc = acc @ sys.u @ oracles.expm_pade13(a * sys.t * sys.generator)
    return acc


def _coboundary_system(rng, dim, seed, t=1.0):
    u = random_unitary(dim, 0.2, seed=seed)
    spec = spectrum(u)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = x - commutant_project(spec, x)
    w *= 1.0 / op_norm(w)
    return PulseSystem(u=u, generator=w, t=t)


# -------------------------------------------------------------- PulseSystem


def test_pulse_system_validation():
    with pytest.raises(ValueError, match="not unitary"):
        PulseSystem(u=2 * np.eye(2), generator=SX)
    with pytest.raises(ValueError, match="share a dimension"):
        PulseSystem(u=np.eye(2), generator=np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        PulseSystem(u=np.eye(2), generator=SX, t=math.inf)
    sys = PulseSystem(u=np.eye(2), generator=SX, t=0.5 + 0.25j)
    assert sys.t == 0.5 + 0.25j
    assert sys.dim == 2
    with pytest.raises(AttributeError):
        sys.t = 1.0


def test_pulse_system_stores_read_only_copies():
    u = np.diag([1.0 + 0j, 1.0j])
    sys = PulseSystem(u=u, generator=-1j * SX)
    with pytest.raises(ValueError, match="read-only"):
        sys.u[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        sys.generator[0, 1] = 0.0
    u[0, 0] = -1.0  # the caller's array stays writable and detached
    assert sys.u[0, 0] == 1.0


def test_pulse_system_derives_spectrum_once(monkeypatch):
    rng = np.random.default_rng(41)
    sys = _coboundary_system(rng, 3, seed=41, t=0.6)
    # public spectrum and PulseSystem.spec both derive through _spectrum
    calls = []
    real = ergopulse.ergodic._spectrum

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (ergopulse.ergodic, ergopulse.evolution):
        monkeypatch.setattr(module, "_spectrum", counting)
    report = convergence_sweep(sys, uhrig_family(), [4, 8, 16, 32, 64])
    assert report.bound_route == "schedule"
    equidistant_bound_constants(sys)
    limit_evolution(sys, 8)
    schedule_bound_rhs(sys, equidistant(8))
    assert len(calls) == 1


def test_pulse_system_checks_unitarity_once(monkeypatch):
    # __post_init__ checks u; the spectrum read from spec does not again
    calls = []
    real = ergopulse.matrixcore.is_unitary

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ergopulse.matrixcore, "is_unitary", counting)
    sys = PulseSystem(u=SZ, generator=-1j * SX, t=0.5)
    assert len(calls) == 1
    assert sys.spec.cluster_phases.shape == (2,)
    assert len(calls) == 1
    spectrum(sys.u)  # the public entry point still checks its input
    assert len(calls) == 2


def _degenerate_unitary(rng, dim):
    phases = rng.uniform(0.0, 2 * np.pi, size=dim)
    phases[1] = phases[0]
    q = random_unitary(dim, seed=int(rng.integers(2**31)))
    return (q * np.exp(1j * phases)) @ q.conj().T


@pytest.mark.parametrize("coboundary", [True, False])
@pytest.mark.parametrize("t", [0.7, 0.5 - 0.4j])
@pytest.mark.parametrize("degenerate", [False, True])
def test_cached_derivation_matches_per_call_oracle(coboundary, t, degenerate):
    rng = np.random.default_rng([int(coboundary), int(degenerate), int(t.imag != 0)])
    for _ in range(4):
        dim = int(rng.integers(3, 6))
        if degenerate:
            u = _degenerate_unitary(rng, dim)
        else:
            u = random_unitary(dim, 0.2, seed=int(rng.integers(2**31)))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if coboundary:
            x = x - commutant_project(spectrum(u), x)
        sys = PulseSystem(u=u, generator=x / op_norm(x), t=t)
        assert sys.spec.cluster_phases.shape == (dim - int(degenerate),)

        n = int(rng.integers(2, 40))
        want = oracles.limit_evolution(sys, n)
        assert_allclose(limit_evolution(sys, n), want, rtol=0, atol=1e-13)
        b = equidistant_bound_constants(sys)
        want = oracles.equidistant_bound_constants(sys)
        assert_allclose((b.m_const, b.m_prime_const), want, rtol=1e-13)
        s = Schedule(n, rng.dirichlet(np.ones(n)))
        if coboundary:
            b = schedule_bound_rhs(sys, s)
            got = (b.m_const, b.m_prime_const, b.tv_term, b.c_series_sum, b.total_rhs)
            assert_allclose(got, oracles.schedule_bound_rhs(sys, s), rtol=1e-13)
        else:
            with pytest.raises(NotACoboundaryError):
                oracles.schedule_bound_rhs(sys, s)
            with pytest.raises(NotACoboundaryError, match="yosida_split"):
                schedule_bound_rhs(sys, s)


# ------------------------------------------------------------ pulse_product


def test_pulse_product_zero_generator_gives_pulse_powers():
    u = random_unitary(3, 0.2, seed=1)
    sys = PulseSystem(u=u, generator=np.zeros((3, 3)))
    got = pulse_product(sys, equidistant(6))
    assert op_norm(got - np.linalg.matrix_power(u, 6)) <= 1e-13


def test_pulse_product_matches_plain_loop_oracle():
    rng = np.random.default_rng(7)
    for seed, t in ((1, 1.0), (2, 0.3), (3, 0.7 + 0.4j)):
        dim = int(rng.integers(2, 6))
        u = random_unitary(dim, 0.2, seed=seed)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        sys = PulseSystem(u=u, generator=x, t=t)
        s = Schedule(7, rng.dirichlet(np.ones(7)))
        assert op_norm(pulse_product(sys, s) - _product_oracle(sys, s)) <= 1e-12


def test_pulse_product_small_weights_match_taylor_oracle():
    # pathological(4096) alternates weights 1/N^2 ~ 6e-8 with ~2/N on a
    # non-normal generator; every small factor must keep its X t / N^2 term
    sys = _coboundary_system(np.random.default_rng(41), 3, seed=41)
    x = sys.generator
    assert op_norm(x @ x.conj().T - x.conj().T @ x) > 0.1
    s = pathological_family()(4096)
    want = oracles.pulse_product_taylor(sys, s)
    assert op_norm(pulse_product(sys, s) - want) <= 1e-11


def test_pulse_product_respects_weight_order():
    sys = PulseSystem(u=np.diag([1.0, 1.0j]), generator=-1j * SX, t=1.0)
    s_tilted = Schedule(2, [0.9, 0.1])
    flipped = Schedule(2, [0.1, 0.9])
    assert (
        op_norm(pulse_product(sys, s_tilted) - pulse_product(sys, flipped)) > 1e-3
    )


@pytest.mark.parametrize(
    "f", [pulse_product, control_error, schedule_bound_rhs], ids=lambda f: f.__name__
)
def test_pulse_product_requires_schedule(f):
    # a list of weights is refused before any of its attributes is read
    sys = PulseSystem(u=np.eye(2), generator=SX)
    with pytest.raises(ValueError, match="s must be a Schedule"):
        f(sys, [0.5, 0.5])


@pytest.mark.parametrize(
    "family", [equidistant_family(), uhrig_family(), pathological_family()]
)
def test_pulse_product_overflow_is_a_value_error(family):
    # u e^{aX} u e^{aX} = I exactly, but every factor is finite and the
    # tree's first products overflow; a warning would fail the test
    sys = PulseSystem(u=SZ, generator=2000.0 * SX)
    with pytest.raises(ValueError, match="the pulse product overflows"):
        pulse_product(sys, family(8))


def test_pulse_product_above_half_the_float_range_is_finite():
    # u = I and X = diag(709.5, 0): the product is diag(e^709.5, 1), about
    # 1.35e308, finite, though the two copies of each part that the real
    # form holds would sum past the float range; a warning would fail the
    # test
    sys = PulseSystem(u=np.eye(2), generator=np.diag([709.5, 0.0]), t=1.0)
    p = pulse_product(sys, Schedule(2, [0.5, 0.5]))
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(math.exp(709.5), rel=1e-13)
    assert p[1, 1] == 1.0 and p[0, 1] == 0.0 and p[1, 0] == 0.0


def test_pulse_product_unitary_for_skew_hermitian_generator():
    sys = PRESETS["qubit-z-x"](1.0)
    assert is_unitary(pulse_product(sys, uhrig_family()(8)), tol=1e-12)


def test_pulse_product_never_builds_a_pulse_stack():
    import tracemalloc

    # a uniform d = 8 row at N = 65,536 has one distinct weight, so the
    # work arrays are the row's index and a block of the chain; an
    # (N, d, d) complex stack alone would be 67 MB
    rng = np.random.default_rng(65)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sys = PulseSystem(u=random_unitary(8, seed=65), generator=-1j * (g + g.conj().T))
    row = equidistant(65_536)
    tracemalloc.start()
    try:
        pulse_product(sys, row)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# ---------------------------------------------------------- limit_evolution


_POWER_COUNTS = list(range(1, 71)) + [2**k for k in range(7, 17)]


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_powers_are_bit_identical_to_matrix_power(d):
    # the system's cached ladder against numpy's own products: n = 1..70
    # and the powers of two to 2^16, then an increasing grid of other
    # counts, each set all at once on a fresh system, then one count at
    # a time on another, rising and then falling, so that each count is
    # read from a ladder grown for it or from a longer one
    u = random_unitary(d, seed=d)
    grid = [5, 6, 7, 11, 100, 1000, 4095, 5000, 65_535]
    for ns in (_POWER_COUNTS, grid):
        want = [np.linalg.matrix_power(u, n) for n in ns]
        sys = PulseSystem(u=u, generator=np.zeros((d, d)))
        for n, p, w in zip(ns, _powers(sys, ns), want):
            assert np.array_equal(p, w), n
        sys = PulseSystem(u=u, generator=np.zeros((d, d)))
        for n, w in [*zip(ns, want), *zip(ns[::-1], want[::-1])]:
            assert np.array_equal(_powers(sys, [n])[0], w), n


def test_ladder_is_cached_read_only_and_replaced_whole():
    sys = PulseSystem(u=random_unitary(3, seed=3), generator=np.zeros((3, 3)))
    short = sys._ladder(5)
    assert len(short) == 3 and short[0] is sys.u
    assert sys._ladder(7) is short  # long enough: no new squaring
    assert sys._ladder(1) is short
    long = sys._ladder(1000)
    # a longer ladder is a new tuple that keeps the old rungs; the one
    # handed out before is left as it was
    assert len(long) == 10 and len(short) == 3
    assert all(a is b for a, b in zip(short, long))
    assert sys._ladder(8) is long
    for rung in long:
        with pytest.raises(ValueError, match="read-only"):
            rung[0, 0] = 0.0
    # u^n that is a rung is that rung, and stays read-only
    with pytest.raises(ValueError, match="read-only"):
        _powers(sys, [4])[0][0, 0] = 0.0


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_limit_evolution_is_bit_identical_to_matrix_power(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sys = PulseSystem(u=random_unitary(d, seed=d), generator=x, t=0.7)
    for n in _POWER_COUNTS:
        want = sys.limit_factor @ np.linalg.matrix_power(sys.u, n)
        assert np.array_equal(limit_evolution(sys, n), want), n


def test_limit_evolution_commuting_case_is_exact():
    u = np.diag([1.0, 1.0j])
    x = np.diag([1.0j, -2.0j])
    sys = PulseSystem(u=u, generator=x, t=0.8)
    want = scipy.linalg.expm(x * 0.8) @ np.linalg.matrix_power(u, 5)
    assert op_norm(limit_evolution(sys, 5) - want) <= 1e-13
    # generator lies in the commutant, so any schedule gives the limit exactly
    assert control_error(sys, equidistant(5)) <= 1e-13


def test_limit_evolution_unitary_for_skew_hermitian_generator():
    sys = PRESETS["qubit-z-x"](2.0)
    assert is_unitary(limit_evolution(sys, 9), tol=1e-12)


def test_limit_evolution_validates_n():
    sys = PulseSystem(u=np.eye(2), generator=SX)
    with pytest.raises(ValueError):
        limit_evolution(sys, 0)


def test_limit_evolution_rejects_bool_pulse_count():
    sys = PulseSystem(u=np.eye(2), generator=SX)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        limit_evolution(sys, True)


# -------------------------------------------------------------- convergence


def test_control_error_preset_halves_when_pulses_double():
    sys = PRESETS["qubit-z-x"](1.0)
    e100 = control_error(sys, equidistant(100))
    e200 = control_error(sys, equidistant(200))
    assert 1.7 <= e100 / e200 <= 2.3


def test_involutive_pulse_refocuses_exactly_at_even_counts():
    # u^2 = I and u X u* = -X make adjacent factors cancel pairwise, so the
    # product hits its limit up to rounding; the preset uses a quarter-turn
    # pulse precisely to avoid this degeneracy
    sys = PulseSystem(u=SZ, generator=-1j * SX, t=1.0)
    for n in (4, 16):
        assert control_error(sys, equidistant(n)) <= 1e-13


def test_control_error_invariant_under_basis_change():
    rng = np.random.default_rng(17)
    sys = _coboundary_system(rng, 3, seed=21)
    v = random_unitary(3, 0.0, seed=99)
    rotated = PulseSystem(
        u=v @ sys.u @ v.conj().T,
        generator=v @ sys.generator @ v.conj().T,
        t=sys.t,
    )
    s = uhrig_family()(16)
    assert control_error(rotated, s) == pytest.approx(
        control_error(sys, s), abs=1e-11
    )


# ----------------------------------------------------- equidistant constants


def test_equidistant_constants_closed_form():
    # u = diag(1,-1), X = 2 s_x: potential is s_x with unit norm, the
    # commutant part vanishes, and at t = 1 the constants collapse to
    # m = 4 e^2 + 2 and m' = e^2 (m + 4)
    sys = PulseSystem(u=SZ, generator=2 * SX, t=1.0)
    b = equidistant_bound_constants(sys)
    m_expected = 4.0 * math.exp(2.0) + 2.0
    assert b.m_const == pytest.approx(m_expected, rel=1e-14)
    assert b.m_prime_const == pytest.approx(
        math.exp(2.0) * (m_expected + 4.0), rel=1e-14
    )
    assert b.total_rhs == b.m_prime_const
    assert math.isnan(b.tv_term) and math.isnan(b.c_series_sum)


def test_equidistant_constants_vanish_for_commutant_generator():
    sys = PulseSystem(u=SZ, generator=SZ, t=1.0)
    b = equidistant_bound_constants(sys)
    assert b.m_const == 0.0
    assert b.m_prime_const == 0.0
    # e^{||X|| |t|} overflows past 709.78, but ||Y|| = 0 keeps both at 0
    b = equidistant_bound_constants(PulseSystem(u=SZ, generator=-800j * SZ))
    assert (b.m_const, b.m_prime_const) == (0.0, 0.0)
    # |t|^2 overflows past 1.34e154; ||Y|| = 0 still gives 0, not inf * 0
    b = equidistant_bound_constants(PulseSystem(u=SZ, generator=-1j * SZ, t=1e155))
    assert (b.m_const, b.m_prime_const) == (0.0, 0.0)


def test_equidistant_constants_overflow_to_inf():
    # |t|^2 overflows past |t| = 1.34e154, ||Y||^2 past ||Y|| = 1.34e154
    for generator, t in ((-1j * SX, 1e155), (-1e155j * SX, 1.0)):
        b = equidistant_bound_constants(PulseSystem(u=SZ, generator=generator, t=t))
        assert (b.m_const, b.m_prime_const) == (math.inf, math.inf)


def test_equidistant_constants_tiny_time_against_huge_generator():
    # |t|^2 underflows to 0 while ||Y||^2 overflows, yet s = |t| ||Y|| is
    # 5e-11: m = 4 s^2 e^{2s} + 2s and m' = e^{2s} (m + 4 s^2)
    sys = PulseSystem(u=SZ, generator=-1e160j * SX, t=1e-170)
    b = equidistant_bound_constants(sys)
    assert b.m_const == pytest.approx(1.0000000001e-10, rel=1e-14)
    assert b.m_prime_const == pytest.approx(1.0000000003e-10, rel=1e-14)
    # s = 5e29: both constants overflow
    sys = PulseSystem(u=SZ, generator=-1e200j * SX, t=1e-170)
    b = equidistant_bound_constants(sys)
    assert (b.m_const, b.m_prime_const) == (math.inf, math.inf)


def test_equidistant_constants_grow_with_time():
    s1 = PulseSystem(u=SZ, generator=2 * SX, t=0.5)
    s2 = PulseSystem(u=SZ, generator=2 * SX, t=1.5)
    assert (
        equidistant_bound_constants(s1).m_prime_const
        < equidistant_bound_constants(s2).m_prime_const
    )


def test_equidistant_constants_bound_the_error():
    sys = PRESETS["qubit-z-x"](1.0)
    b = equidistant_bound_constants(sys)
    for n in (8, 64, 256):
        assert control_error(sys, equidistant(n)) <= b.m_prime_const / n


def _exact_rate_constants(mpmath, sys):
    """m, m' and e^x (1 + 3r), from the exact |t| and the cached norms."""
    t = mpmath.mpc(sys.t.real, sys.t.imag)
    s, r, x = (
        abs(t) * mpmath.mpf(norm)
        for norm in (sys.potential_norm, sys.fixed_norm, sys.generator_norm)
    )
    m = 4 * s**2 * mpmath.exp(2 * s) + 2 * s
    e_x = mpmath.exp(x)
    return m, e_x * (m + 2 * s * (2 * s + 3 * r)), e_x * (1 + 3 * r)


def _with_norms(sys, potential, fixed, generator):
    sys.__dict__.update(
        potential_norm=potential, fixed_norm=fixed, generator_norm=generator
    )
    return sys


def test_rate_constants_are_upper_bounds_of_the_exact_values():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(57)
    systems = [PRESETS["qubit-z-x"](1.1)]
    for seed in range(60):
        dim = int(rng.integers(2, 6))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = rng.uniform(0.05, 3.0)
        if seed % 2:
            t *= np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        u = random_unitary(dim, 0.2, seed=900 + seed)
        systems.append(PulseSystem(u=u, generator=x * rng.uniform(0.1, 2.0), t=t))
    # e^{2s} and e^x near 1e150 magnify the rounding of s and x
    systems.append(_with_norms(PRESETS["qubit-z-x"](1.0), 170.0, 3.0, 350.0))
    rel = 1 + mpmath.mpf(2) ** -40
    tiny = 2.0**-1074
    with mpmath.workdps(50):
        for sys in systems:
            b = equidistant_bound_constants(sys)
            want_m, want_m_prime, _ = _exact_rate_constants(mpmath, sys)
            assert want_m <= b.m_const <= want_m * rel
            assert want_m_prime <= b.m_prime_const <= want_m_prime * rel

        # s = |t| ||Y|| underflows to 0 or to a subnormal although |t| and
        # ||Y|| are positive: s is then bounded by a few 2^-1074, which m'
        # carries with its factor e^x (1 + 3r)
        for t, norms in (
            (1e-200, (1e-200, 0.0, 1e-200)),
            (1e-30, (1e-300, 1e300, 1e31)),
            (1e-160, (3e-160, 0.0, 3e-160)),
            (1e-170 + 2e-170j, (1e-150, 1e169, 0.0)),
        ):
            sys = _with_norms(PRESETS["qubit-z-x"](t), *norms)
            b = equidistant_bound_constants(sys)
            want_m, want_m_prime, factor = _exact_rate_constants(mpmath, sys)
            assert 0 < want_m <= b.m_const <= want_m + 16 * tiny
            assert want_m_prime <= b.m_prime_const
            assert b.m_prime_const <= (want_m_prime + 16 * tiny * factor) * rel


# -------------------------------------------------------- schedule_bound_rhs


def test_schedule_bound_zero_generator():
    sys = PulseSystem(u=np.diag([1.0, 1.0j]), generator=np.zeros((2, 2)))
    b = schedule_bound_rhs(sys, equidistant(4))
    assert b.total_rhs == 0.0
    assert b.tv_term == 0.0 and b.c_series_sum == 0.0


def test_schedule_bound_refuses_commutant_content():
    sys = PulseSystem(u=SZ, generator=SZ, t=1.0)
    with pytest.raises(NotACoboundaryError, match="yosida_split") as info:
        schedule_bound_rhs(sys, equidistant(4))
    # the generator lies in the commutant: the tested ratio is 1
    assert "||P(x)|| / ||x|| = 1 exceeds the tolerance 1e-08" in str(info.value)
    assert info.value.generator_norm == sys.generator_norm


def test_schedule_bound_dominates_measured_error():
    rng = np.random.default_rng(31)
    for seed in range(6):
        dim = int(rng.integers(2, 5))
        sys = _coboundary_system(rng, dim, seed=500 + seed, t=rng.uniform(0.2, 1.2))
        for n in (4, 9):
            for s in (
                equidistant(n),
                uhrig_family()(n),
                Schedule(n, rng.dirichlet(np.ones(n))),
            ):
                b = schedule_bound_rhs(sys, s)
                assert control_error(sys, s) <= b.total_rhs
                assert b.total_rhs == pytest.approx(
                    b.tv_term + b.c_series_sum, rel=1e-15
                )


def test_schedule_bound_dominates_for_complex_time():
    rng = np.random.default_rng(32)
    sys = _coboundary_system(rng, 3, seed=600, t=0.4 + 0.3j)
    s = uhrig_family()(8)
    assert control_error(sys, s) <= schedule_bound_rhs(sys, s).total_rhs


def test_schedule_bound_equidistant_rhs_halves():
    sys = PRESETS["qubit-z-x"](1.0)
    r64 = schedule_bound_rhs(sys, equidistant(64)).total_rhs
    r128 = schedule_bound_rhs(sys, equidistant(128)).total_rhs
    assert 0.4 <= r128 / r64 <= 0.65


def test_schedule_bound_has_no_radius():
    # per-step norms of 45, past the radius of the truncated series,
    # get a finite bound
    sys = PulseSystem(u=SZ, generator=45.0 * SX, t=1.0)
    for s in (equidistant(2), equidistant(5)):
        b = schedule_bound_rhs(sys, s)
        assert math.isfinite(b.total_rhs)
        assert control_error(sys, s) <= b.total_rhs


@settings(deadline=None, max_examples=150)
@given(
    raw=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=16),
    t=st.floats(0.0, 12.0),
)
def test_a_leading_zero_weight_leaves_the_bound_unchanged(raw, t):
    # the identity of the schedule_bound_rhs docstring: the bound of
    # (0, w) is the bound of w.  The two rows sum their prefixes, TV and
    # steps in other orders, which the docstring bounds to first order by
    # 2 (n + 1) M u relative, M = 2 + scale (TV + 2); the largest seen
    # over 80,000 random rows was 0.44 of it
    total = math.fsum(raw)
    assume(total > 0.0 and max(raw) < total)
    w = np.array(raw) / total
    assume(w.max() < 1.0)
    n = w.shape[0]
    sys = PRESETS["qubit-z-x"](t)
    want = schedule_bound_rhs(sys, Schedule(n, w)).total_rhs
    got = schedule_bound_rhs(sys, Schedule(n + 1, np.concatenate(([0.0], w))))
    if not math.isfinite(want):
        assert got.total_rhs == want
        return
    scale = abs(sys.t) * sys.potential_norm
    m = 2.0 + scale * (float(np.abs(np.diff(w)).sum() + w[0] + w[-1]) + 2.0)
    assert abs(got.total_rhs - want) <= 2 * (n + 1) * m * 2.0**-53 * want


def test_bounds_use_norms_rounded_up():
    rng = np.random.default_rng(33)
    for seed in range(4):
        dim = int(rng.integers(2, 7))
        u = random_unitary(dim, 0.2, seed=700 + seed)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        sys = PulseSystem(u=u, generator=x, t=rng.uniform(0.2, 1.2))
        for norm, m in (
            (sys.generator_norm, sys.generator),
            (sys.fixed_norm, sys.fixed_part),
            (sys.potential_norm, sys.potential),
        ):
            assert norm > op_norm(m) > 0.0
    zero = PulseSystem(u=SZ, generator=np.zeros((2, 2)))
    assert zero.generator_norm == zero.fixed_norm == zero.potential_norm == 0.0
    # every bound reads the cached norms: inflate each and watch them move
    sys = PRESETS["qubit-z-x"](1.0)
    m_prime = equidistant_bound_constants(sys).m_prime_const
    for name in ("generator_norm", "fixed_norm", "potential_norm"):
        sys = PRESETS["qubit-z-x"](1.0)
        sys.__dict__[name] = getattr(sys, name) + 0.5
        assert equidistant_bound_constants(sys).m_prime_const > m_prime
    scale = abs(sys.t) * sys.potential_norm
    s = equidistant(2)
    b = schedule_bound_rhs(sys, s)
    assert b.total_rhs == _schedule_series_terms(s.weights[None, :], scale)[2][0]
    norm_y = sys.potential_norm
    m = 4.0 * math.exp(2.0 * norm_y) * norm_y**2 + 2.0 * norm_y
    # m_const is rounded up by a few ulps from the inflated norm
    assert m < b.m_const < m * (1.0 + 1e-14)
    res = ergopulse.optimizer.minimize_bound_rhs(
        sys, 2, ergopulse.optimizer.OptimizerConfig(restarts=1, max_iters=5)
    )
    assert res.value == b.total_rhs


def test_rate_constants_are_cached_and_equal_a_fresh_computation(monkeypatch):
    rng = np.random.default_rng(61)
    systems = [
        PRESETS["qubit-z-x"](1.0),
        PulseSystem(u=SZ, generator=-1j * SX, t=0.0),
        *(_coboundary_system(rng, d, seed=800 + d, t=0.3 * d) for d in (2, 4, 7)),
    ]
    # m' overflows; the generator is no coboundary
    systems.append(_with_norms(PRESETS["qubit-z-x"](1.0), 400.0, 3.0, 800.0))
    real = ergopulse.evolution._rate_constants
    calls = []

    def counting(sys):
        calls.append(sys)
        return real(sys)

    monkeypatch.setattr(ergopulse.evolution, "_rate_constants", counting)
    for sys in systems:
        b = equidistant_bound_constants(sys)
        if sys.is_coboundary:
            for s in (equidistant(2), equidistant(64), uhrig(9)):
                rhs = schedule_bound_rhs(sys, s)
                assert (rhs.m_const, rhs.m_prime_const) == (
                    b.m_const,
                    b.m_prime_const,
                )
        assert calls == [sys]
        calls.clear()
        want = real(sys)
        assert [v.hex() for v in (b.m_const, b.m_prime_const)] == [
            v.hex() for v in want
        ]
    assert math.isinf(b.m_prime_const)


_EQUAL_ROW_SCALES = [0.0, 5e-324, 1e-300, 1e-8, 1.0, *np.linspace(354.0, 400.0, 24)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 4096, 4097])
def test_equal_row_bound_is_the_stacked_series_bit_for_bit(n):
    # an equal row sums its defect series as one term repeated; the
    # bound keeps every bit of _schedule_series_terms, across the
    # overflow of the prefactor e^(2 scale) from 354.89
    base = PRESETS["qubit-z-x"](1.0)
    s = equidistant(n)
    for target in _EQUAL_ROW_SCALES:
        sys = PRESETS["qubit-z-x"](target / base.potential_norm)
        scale = abs(sys.t) * sys.potential_norm
        b = schedule_bound_rhs(sys, s)
        with np.errstate(over="ignore"):
            want = _schedule_series_terms(s.weights[None, :], scale)
        got = (b.tv_term, b.c_series_sum, b.total_rhs)
        assert [v.hex() for v in got] == [float(w[0]).hex() for w in want], target
    assert math.isinf(b.total_rhs)


def test_cached_arrays_are_read_only():
    rng = np.random.default_rng(67)
    systems = (
        PRESETS["qubit-z-x"](1.0),
        _hamiltonian_system(3, 19),
        _coboundary_system(rng, 4, 67),
    )
    for sys in systems:
        control_error(sys, uhrig(64))
        split = sys._split
        arrays = [
            sys.u,
            sys.generator,
            sys.fixed_part,
            sys.potential,
            split.coboundary_part,
            sys.limit_factor,
            sys.spec.basis,
            sys.spec.cluster_phases,
            sys.spec.col_phases,
            sys.spec.col_labels,
            *sys._ladder(64),
        ]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


def _spread_unitary(rng, dim, degenerate):
    """Haar-conjugated unitary with eigenphases at least 0.2 apart, the
    first one doubled when degenerate."""
    k = dim - int(degenerate)
    phases = np.cumsum(0.2 + rng.dirichlet(np.ones(k)) * (2 * np.pi - 0.2 * k))
    if degenerate:
        phases = np.append(phases, phases[0])
    q = random_unitary(dim, seed=int(rng.integers(2**31)))
    return (q * np.exp(1j * phases)) @ q.conj().T


@settings(deadline=None, max_examples=200)
@given(
    dim=st.integers(2, 5),
    degenerate=st.booleans(),
    complex_t=st.booleans(),
    coboundary=st.booleans(),
    kind=st.sampled_from(("equidistant", "uhrig", "dirichlet")),
    n=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_bounds_dominate_measured_error_property(
    dim, degenerate, complex_t, coboundary, kind, n, seed
):
    assume(dim > 2 or not degenerate)  # a doubled phase at d = 2 makes u scalar
    rng = np.random.default_rng(seed)
    u = _spread_unitary(rng, dim, degenerate)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = x - commutant_project(spectrum(u), x)
    if not coboundary:
        x = x + commutant_project(spectrum(u), rng.standard_normal((dim, dim)) * 1j)
    t = rng.uniform(0.1, 1.5)
    if complex_t:
        t *= np.exp(1j * rng.uniform(-1.0, 1.0))
    sys = PulseSystem(u=u, generator=x / op_norm(x), t=t)
    if kind == "equidistant":
        row = equidistant(n)
    elif kind == "uhrig":
        row = uhrig_family()(n)
    else:
        row = Schedule(n, rng.dirichlet(np.ones(n)))
    err = control_error(sys, row)
    constants = equidistant_bound_constants(sys)
    if sys.is_coboundary:
        assert err <= schedule_bound_rhs(sys, row).total_rhs
        if kind == "equidistant":
            assert n * err <= constants.m_const
    elif kind == "equidistant":
        assert n * err <= constants.m_prime_const


@settings(deadline=None, max_examples=40)
@given(
    dim=st.integers(2, 4),
    degenerate=st.booleans(),
    coboundary=st.booleans(),
    kind=st.sampled_from(("equidistant", "uhrig")),
    seed=st.integers(0, 2**32 - 1),
)
def test_bound_route_and_bounds_do_not_depend_on_scale(
    dim, degenerate, coboundary, kind, seed
):
    # (s X, t / s) is the same physics as (X, t): the coboundary rule is
    # relative, so every scale takes the same bound route, and every row's
    # bound still holds
    assume(dim > 2 or not degenerate)
    rng = np.random.default_rng(seed)
    u = _spread_unitary(rng, dim, degenerate)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = x - commutant_project(spectrum(u), x)
    if not coboundary:
        x = x + commutant_project(spectrum(u), rng.standard_normal((dim, dim)) * 1j)
    x /= op_norm(x)
    t = rng.uniform(0.1, 1.5)
    family = equidistant_family() if kind == "equidistant" else uhrig_family()
    routes = set()
    for s in (1e-9, 1.0, 1e9):
        sys = PulseSystem(u=u, generator=s * x, t=t / s)
        report = convergence_sweep(sys, family, [4, 8, 16, 32])
        routes.add(report.bound_route)
        for err, b in zip(report.errors, report.bounds or ()):
            assert err <= b.total_rhs
    assert len(routes) == 1


@settings(deadline=None, max_examples=60)
@given(
    phi=st.floats(0.0, 2 * np.pi),
    straddle=st.booleans(),
    merged=st.booleans(),
    offset=st.floats(0.0, 1.0),
    t=st.floats(0.1, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
@example(phi=0.0, straddle=False, merged=True, offset=1.0, t=1.0, seed=523)
def test_bounds_hold_for_phases_near_cluster_tol(
    phi, straddle, merged, offset, t, seed
):
    # phases phi, phi + g, phi + 2 with g within [tol / 2, 2 tol] but at
    # least 1e-6 tol from tol itself, as in the spectrum's own property.
    # Y - u Y u* alone is no coboundary when the close pair merges: its
    # commutant part keeps (1 - e^{ig}) Y_12, about g ||Y||, and can pass
    # the 1e-8 rule.  So X is Y - u Y u* minus that commutant part, a
    # coboundary whether or not the pair merges.
    tol = ergopulse.ergodic.DEFAULT_CLUSTER_TOL
    if merged:
        g = tol * (1 - 1e-6) * (0.5 + 0.5 * offset)
    else:
        g = tol * (1 + 1e-6) * (1 + offset)
    if straddle:
        phi = -offset * g
    rng = np.random.default_rng(seed)
    q = random_unitary(3, seed=int(rng.integers(2**31)))
    u = (q * np.exp(1j * np.array([phi, phi + g, phi + 2.0]))) @ q.conj().T
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y *= 0.5 / op_norm(y)
    x = y - u @ y @ u.conj().T
    sys = PulseSystem(u=u, generator=x - commutant_project(spectrum(u), x), t=t)
    assert sys.spec.cluster_phases.shape == ((2,) if merged else (3,))
    for n in (8, 64):
        for row in (equidistant(n), uhrig_family()(n)):
            assert control_error(sys, row) <= schedule_bound_rhs(sys, row).total_rhs


@settings(deadline=None, max_examples=150)
@given(
    rows=st.integers(1, 6),
    n=st.integers(2, 9),
    scale=st.floats(0.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_schedule_series_terms_rows_match_scalar_oracle(rows, n, scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.full(n, 0.5), size=rows)
    a[0, rng.integers(n)] = 0.0  # vanishing weights zero out defect terms
    want = [oracles.schedule_series_terms(row, scale) for row in a]
    got = _schedule_series_terms(a, scale)
    for k in range(3):
        assert got[k].shape == (rows,)
        assert_allclose(got[k], [w[k] for w in want], rtol=1e-13, atol=0)


@settings(deadline=None, max_examples=120)
@given(
    rows=st.integers(1, 40),
    n=st.integers(2, 40),
    scale=st.sampled_from([0.0, 0.3, 1.0, 7.5, 400.0]),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(1, 39), max_size=6),
)
def test_schedule_series_terms_score_rows_alike_in_any_stack(
    rows, n, scale, seed, cuts
):
    # a row's terms do not depend on the other rows in its stack, bit for
    # bit: the optimizer relies on this to score rows of different roles
    # in one call.  n up to 40 passes numpy's 8-element pairwise-sum
    # block; at scale 400 the step prefactor and expm1 overflow to +inf.
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.full(n, 0.5), size=rows)
    a[rng.integers(rows), rng.integers(n)] = 0.0
    whole = _schedule_series_terms(a, scale)
    bounds = [0] + sorted({c for c in cuts if c < rows}) + [rows]
    parts = [_schedule_series_terms(a[i:j], scale) for i, j in zip(bounds, bounds[1:])]
    for k in range(3):
        assert np.array_equal(np.concatenate([p[k] for p in parts]), whole[k])
        assert not np.isnan(whole[k]).any()
    alone = [_schedule_series_terms(a[i : i + 1], scale)[2][0] for i in range(rows)]
    assert np.array_equal(alone, whole[2])



@settings(deadline=None, max_examples=200)
@given(
    rows=st.integers(1, 6),
    n=st.integers(2, 12),
    # 0 takes the early return; 354 and up the infinite step prefactor
    scale=st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 353.9, 354.0, 400.0, 1e300]),
        st.floats(0.0, 50.0),
    ),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 5e-324, 1e-310]),
    layout=st.sampled_from(oracles.LAYOUTS),
)
@example(rows=3, n=2, scale=0.0, seed=1, zeros=0.0, layout="F")
@example(rows=3, n=2, scale=400.0, seed=2, zeros=5e-324, layout="strided")
@example(rows=4, n=12, scale=354.0, seed=3, zeros=1e-310, layout="F")
def test_step_norms_and_series_terms_are_bit_identical_to_stacked_oracle(
    rows, n, scale, seed, zeros, layout
):
    # n = 2 has no prefix and no partial sum; zeros puts zero or
    # subnormal weights in, so norms and defect terms vanish or underflow
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.full(n, 0.5), size=rows)
    a[rng.integers(rows), rng.integers(n)] = zeros
    a = oracles.laid_out(a, layout)
    for got, want in zip(_step_norms(a), oracles.step_norms_stacked(a)):
        assert np.array_equal(got, want)
    got = _schedule_series_terms(a, scale)
    want = oracles.schedule_series_terms_stacked(a, scale)
    for k in range(3):
        assert np.array_equal(got[k], want[k], equal_nan=True)


def test_schedule_series_terms_overflow_gives_inf():
    # past scale ~355 the step prefactor e^(2 scale) overflows: rows with
    # a nonzero defect get +inf, a spike row keeps its zero series, and no
    # entry is NaN
    even, spike = np.full(3, 1.0 / 3.0), np.array([0.0, 1.0, 0.0])
    tv_term, c_series, total = _schedule_series_terms(np.stack([even, spike]), 400.0)
    assert np.array_equal(c_series, [math.inf, 0.0])
    assert math.isfinite(tv_term[0]) and tv_term[1] == math.inf  # tv 2/3 and 2
    assert np.array_equal(total, [math.inf, math.inf])
    # overflow inside the defect series itself, at any row count
    for n in (2, 3, 6):
        got = _schedule_series_terms(np.full((2, n), 1.0 / n), 2000.0)
        assert not np.isnan(np.concatenate(got)).any()
        assert np.array_equal(got[2], [math.inf, math.inf])


def test_schedule_bound_validation():
    sys = PRESETS["qubit-z-x"](1.0)
    with pytest.raises(ValueError):
        schedule_bound_rhs(sys, [0.5, 0.5])


# --------------------------------------------------------- convergence_sweep


def test_sweep_schedule_route_slope_and_bounds():
    sys = PRESETS["qubit-z-x"](1.0)
    rep = convergence_sweep(sys, equidistant_family(), (4, 8, 16, 32, 64))
    assert rep.bound_route == "schedule"
    assert rep.family_name == "uniform"
    assert rep.window == (False, False, True, True, True)
    assert all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    assert -1.3 <= rep.fitted_slope <= -0.8
    for err, b in zip(rep.errors, rep.bounds):
        assert err <= b.total_rhs


def test_sweep_constants_route_for_equidistant_family():
    sys = PulseSystem(u=SZ, generator=-1j * (SX + SZ), t=1.0)
    rep = convergence_sweep(sys, equidistant_family(), (4, 8, 16))
    assert rep.bound_route == "constants"
    for n, err, b in zip(rep.n_values, rep.errors, rep.bounds):
        assert b.total_rhs == pytest.approx(b.m_prime_const / n, rel=1e-15)
        assert math.isnan(b.tv_term)
        assert err <= b.total_rhs


def test_sweep_no_route_for_general_generator_off_equidistant():
    sys = PulseSystem(u=SZ, generator=-1j * (SX + SZ), t=1.0)
    rep = convergence_sweep(sys, uhrig_family(), (4, 8, 16))
    assert rep.bound_route is None
    assert rep.bounds is None
    assert rep.fitted_slope is not None


def test_sweep_route_follows_the_rows_not_the_name():
    # a commutant part in X, so only the equal split has a proved bound;
    # the pathological rows break M'/N (0.861 against 0.540 at N = 64)
    sys = PulseSystem(u=SZ, generator=-1j * np.array([[1.0, 1.0], [1.0, -0.5]]))
    ns = (4, 8, 16, 32, 64)
    fake = convergence_sweep(sys, ScheduleFamily("fake", pathological), ns)
    assert fake.bound_route is None and fake.bounds is None
    assert fake.errors[-1] > equidistant_bound_constants(sys).m_prime_const / 64
    mine = convergence_sweep(sys, ScheduleFamily("mine", equidistant), ns)
    want = convergence_sweep(sys, equidistant_family(), ns)
    assert mine.bound_route == want.bound_route == "constants"
    assert report_to_json_dict(mine)["bounds"] == report_to_json_dict(want)["bounds"]
    # one row off the equal split is enough to lose the route
    mixed = ScheduleFamily("mixed", lambda n: equidistant(n) if n < 64 else uhrig(n))
    assert convergence_sweep(sys, mixed, ns).bound_route is None


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_sweep_constants_bound_is_rounded_up(seed):
    # total_rhs is at least the exact m_prime_const / N; where the nearest
    # quotient is low it is the next float up, and a power of two N keeps
    # the plain quotient, which is exact there
    rng = np.random.default_rng(seed)
    u = random_unitary(3, 0.2, seed=seed)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sys = PulseSystem(u=u, generator=x / op_norm(x), t=rng.uniform(0.1, 1.0))
    assume(not sys.is_coboundary)
    rep = convergence_sweep(sys, equidistant_family(), (3, 64, 1000, 4095))
    assert rep.bound_route == "constants"
    for n, b in zip(rep.n_values, rep.bounds):
        exact = Fraction(b.m_prime_const) / n
        nearest = b.m_prime_const / n
        assert Fraction(b.total_rhs) >= exact
        if Fraction(nearest) >= exact:
            assert b.total_rhs == nearest
        else:
            assert b.total_rhs == math.nextafter(nearest, math.inf)


def test_sweep_constants_bound_moves_a_low_quotient_up():
    quotient_up = ergopulse.evolution._quotient_up
    # 1.0 / 3 rounds to nearest below 1/3, 1.0 / 10 above 1/10
    assert Fraction(1.0 / 3) < Fraction(1, 3) < Fraction(quotient_up(1.0, 3))
    assert quotient_up(1.0, 3) == math.nextafter(1.0 / 3, math.inf)
    assert Fraction(1.0 / 10) > Fraction(1, 10) and quotient_up(1.0, 10) == 1.0 / 10
    assert quotient_up(math.inf, 1000) == math.inf
    assert quotient_up(0.0, 1000) == 0.0
    # an underflowing quotient stays positive
    assert quotient_up(5e-324, 1000) == 5e-324


def _hamiltonian_system(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g + g.conj().T
    return PulseSystem(
        u=random_unitary(d, 0.1, seed=seed), generator=-1j * h / op_norm(h), t=1.1
    )


_SWEEP_FAMILIES = (
    equidistant_family(),
    uhrig_family(),
    pathological_family(),
    table_density_family([0.0, 0.5, 1.0], [0.5, 1.5, 0.5]),
)


@pytest.mark.parametrize("family", _SWEEP_FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("kind", ["hamiltonian", "coboundary"])
def test_sweep_errors_match_control_error_row_by_row(family, kind):
    # every row is its own expm call and its norm one slice of a stacked
    # SVD, so every error is control_error's, bit for bit
    if kind == "hamiltonian":
        sys = _hamiltonian_system(3, 17)
    else:
        sys = _coboundary_system(np.random.default_rng(5), 4, 5, t=0.9)
    ns = (16, 32, 64, 128, 256, 512, 1024)
    rep = convergence_sweep(sys, family, ns)
    assert rep.errors == tuple(control_error(sys, family(n)) for n in ns)


def test_sweep_and_control_error_agree_whichever_grows_the_ladder():
    # the ladder is shared: control_error at small counts first, then a
    # sweep that needs a longer ladder, then control_error again, give
    # the bits of fresh systems that ran each call alone
    ns = (16, 32, 64, 128, 256, 512, 1024)
    family = uhrig_family()
    rows = [family(n) for n in ns]
    fresh = [control_error(_hamiltonian_system(3, 17), row) for row in rows]
    alone_sweep = convergence_sweep(_hamiltonian_system(3, 17), family, ns).errors
    sys = _hamiltonian_system(3, 17)
    assert [control_error(sys, row) for row in rows[:2]] == fresh[:2]
    assert convergence_sweep(sys, family, ns).errors == alone_sweep
    assert [control_error(sys, row) for row in rows] == fresh
    assert limit_evolution(sys, 4096).tobytes() == (
        limit_evolution(_hamiltonian_system(3, 17), 4096).tobytes()
    )


def test_sweep_batches_never_hold_a_second_stack():
    import tracemalloc

    # a d = 8 Uhrig sweep to N = 4096 peaks no higher than the product of
    # its largest row plus a few CHAIN_BLOCK stacks of d x d matrices: no
    # copy of a large row's factors, and no row's stack alive during the
    # next row's expm call (each would add about 2 MB here)
    sys = _hamiltonian_system(8, 29)
    family = uhrig_family()
    ns = [2**k for k in range(4, 13)]
    sys.limit_factor, sys.is_coboundary  # derive once, outside the trace
    largest = family(ns[-1])
    tracemalloc.start()
    try:
        pulse_product(sys, largest)
        _current, one_row = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        convergence_sweep(sys, family, ns)
        _current, sweep = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sweep <= one_row + 2 * CHAIN_BLOCK * 8 * 8 * 16


def test_sweep_refuses_a_non_finite_difference_as_control_error_does():
    # op_norm refuses a matrix with a non-finite entry, and the sweep's
    # stacked norm keeps that ValueError.  A limit factor near the float
    # range (set in the cache here) makes limit_factor @ u^3 overflow,
    # while the pulse product, u^3, stays finite
    u = np.array([[0.8, 0.6], [0.6, -0.8]])
    sys = PulseSystem(u=u, generator=np.zeros((2, 2)))
    sys.__dict__["limit_factor"] = np.full((2, 2), 1.7e308 + 0j)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            control_error(sys, equidistant(3))
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            convergence_sweep(sys, equidistant_family(), (2, 3, 4))


def test_sweep_exact_zero_errors_skip_slope():
    sys = PulseSystem(u=np.eye(1), generator=np.zeros((1, 1)))
    rep = convergence_sweep(sys, equidistant_family(), (2, 4, 8))
    assert rep.errors == (0.0, 0.0, 0.0)
    assert rep.fitted_slope is None
    assert rep.bound_route == "schedule"


def test_sweep_validation():
    sys = PRESETS["qubit-z-x"](1.0)
    fam = equidistant_family()
    with pytest.raises(ValueError, match="at least 3"):
        convergence_sweep(sys, fam, (4, 8))
    with pytest.raises(ValueError, match="strictly increasing"):
        convergence_sweep(sys, fam, (4, 4, 8))
    with pytest.raises(ValueError, match=">= 2"):
        convergence_sweep(sys, fam, (1, 2, 4))
    with pytest.raises(ValueError, match="family"):
        convergence_sweep(sys, equidistant, (4, 8, 16))


# ------------------------------------------------------------------ reports


def test_write_report_csv_round_trips_floats(tmp_path):
    sys = PRESETS["qubit-z-x"](1.0)
    rep = convergence_sweep(sys, equidistant_family(), (4, 8, 16))
    path = tmp_path / "rep.csv"
    write_report_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "N",
        "error",
        "slope_window_flag",
        "m_const",
        "m_prime_const",
        "tv_term",
        "c_series_sum",
        "total_rhs",
    ]
    assert len(rows) == 4
    for row, n, err, flag, b in zip(
        rows[1:], rep.n_values, rep.errors, rep.window, rep.bounds
    ):
        assert row[0] == str(n)
        assert float(row[1]) == err  # repr round-trip is exact
        assert row[2] == ("1" if flag else "0")
        assert float(row[7]) == b.total_rhs


def test_write_report_csv_blank_bounds_when_no_route(tmp_path):
    sys = PulseSystem(u=SZ, generator=-1j * (SX + SZ), t=1.0)
    rep = convergence_sweep(sys, uhrig_family(), (4, 8, 16))
    path = tmp_path / "rep.csv"
    write_report_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(row[3:] == ["", "", "", "", ""] for row in rows[1:])


def test_report_writers_keep_their_bytes_for_nan_and_inf_fields(tmp_path):
    # NaN (a field that does not apply) is a blank CSV cell and a JSON
    # null, +inf is "inf" in the CSV and null in the JSON, and every other
    # float is its repr; the bytes are pinned
    nan, inf = math.nan, math.inf
    rep = ergopulse.evolution.ConvergenceReport(
        family_name="uhrig",
        n_values=(4, 8, 16),
        errors=(0.125, 3.0e-17, 0.0),
        window=(False, True, True),
        fitted_slope=None,
        bound_route="schedule",
        bounds=(
            BoundBreakdown(nan, nan, 0.1, 2.5e-300, 0.1),
            BoundBreakdown(1.0 / 3.0, inf, nan, inf, inf),
            BoundBreakdown(0.0, -0.0, 5e-324, nan, 1e308),
        ),
    )
    path = tmp_path / "rep.csv"
    write_report_csv(rep, path)
    assert path.read_bytes() == (
        b"N,error,slope_window_flag,m_const,m_prime_const,tv_term,"
        b"c_series_sum,total_rhs\n"
        b"4,0.125,0,,,0.1,2.5e-300,0.1\n"
        b"8,3e-17,1,0.3333333333333333,inf,,inf,inf\n"
        b"16,0.0,1,0.0,-0.0,5e-324,,1e+308\n"
    )
    text = json.dumps(report_to_json_dict(rep), sort_keys=True, allow_nan=False)
    assert text == (
        '{"bound_route": "schedule", "bounds": ['
        '{"c_series_sum": 2.5e-300, "m_const": null, "m_prime_const": null, '
        '"total_rhs": 0.1, "tv_term": 0.1}, '
        '{"c_series_sum": null, "m_const": 0.3333333333333333, '
        '"m_prime_const": null, "total_rhs": null, "tv_term": null}, '
        '{"c_series_sum": null, "m_const": 0.0, "m_prime_const": -0.0, '
        '"total_rhs": 1e+308, "tv_term": 5e-324}], '
        '"errors": [0.125, 3e-17, 0.0], "family": "uhrig", '
        '"fitted_slope": null, "n_values": [4, 8, 16], '
        '"slope_window_flags": [0, 1, 1]}'
    )


def test_report_json_dict_nan_becomes_null():
    sys = PulseSystem(u=SZ, generator=-1j * (SX + SZ), t=1.0)
    rep = convergence_sweep(sys, equidistant_family(), (4, 8, 16))
    obj = report_to_json_dict(rep)
    assert obj["bound_route"] == "constants"
    assert obj["bounds"][0]["tv_term"] is None
    assert obj["bounds"][0]["m_prime_const"] > 0
    assert obj["n_values"] == [4, 8, 16]
    assert isinstance(obj["fitted_slope"], float)
    assert obj["slope_window_flags"] == [0, 1, 1]
