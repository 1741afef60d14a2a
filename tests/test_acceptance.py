"""Acceptance gate: ten numbered criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line
per criterion with its measured runtime and margin.  Each test asserts
the criterion's inequalities at the stated tolerances and then asserts
the stated runtime budget; a failure of either shows up as that
criterion's single red line.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ergopulse._kernels import tv_value
from ergopulse.cli import PRESETS, main
from ergopulse.ergodic import (
    cesaro_mean,
    commutant_project,
    solve_coboundary,
    spectrum,
)
from ergopulse.evolution import (
    PulseSystem,
    control_error,
    convergence_sweep,
    equidistant_bound_constants,
    limit_evolution,
    pulse_product,
    schedule_bound_rhs,
)
from ergopulse.matrixcore import (
    exp_product_defect_bound,
    expm,
    op_norm,
    random_unitary,
)
from ergopulse.optimizer import brute_force_simplex_grid, minimize_tv
from ergopulse.schedules import (
    Schedule,
    equidistant,
    equidistant_family,
    pathological_tv_exact,
    uhrig_family,
)


def _pass(number, start, budget, detail):
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, (
            "criterion %d exceeded its %.0fs budget: %.1fs" % (number, budget, elapsed)
        )
        line = "criterion %02d: PASS in %.2fs (budget %.0fs) - %s"
        print(line % (number, elapsed, budget, detail))
    else:
        print("criterion %02d: PASS in %.2fs - %s" % (number, elapsed, detail))


def _random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _random_coboundary_system(useed, xseed, trial):
    """Seeded (u, X, t) with X a coboundary, minimal-norm ||Y|| <= 1, |t| <= 1."""
    dim = 2 + trial % 3
    u = random_unitary(dim, min_phase_gap=0.1, seed=useed + trial)
    rng = np.random.default_rng(xseed + trial)
    y0 = _random_complex(rng, dim)
    x = y0 - u @ y0 @ u.conj().T
    spec = spectrum(u)
    norm_y = op_norm(solve_coboundary(spec, x))
    x *= rng.uniform(0.2, 1.0) / norm_y
    t = rng.uniform(0.1, 1.0)
    return PulseSystem(u=u, generator=x, t=t)


def test_criterion_01_commutant_projector_matches_cesaro_limit():
    start = time.perf_counter()
    n = 100_000
    worst = 0.0
    for trial in range(50):
        dim = 2 + trial % 7
        u = random_unitary(dim, min_phase_gap=0.1, seed=2000 + trial)
        rng = np.random.default_rng(3000 + trial)
        x = _random_complex(rng, dim)
        spec = spectrum(u)
        p = commutant_project(spec, x)
        gap = op_norm(p - cesaro_mean(u, x, n))
        allowance = 100.0 * op_norm(x) / n
        assert gap <= allowance
        worst = max(worst, gap / allowance)
        assert op_norm(commutant_project(spec, p) - p) <= 1e-10
        assert op_norm(u @ p - p @ u) <= 1e-10
        assert op_norm(commutant_project(spec, x.conj().T) - p.conj().T) <= 1e-10
    _pass(1, start, 120, "50 systems, worst gap at %.3f of allowance" % worst)


def test_criterion_02_equidistant_convergence_rate():
    start = time.perf_counter()
    counts = [2**k for k in range(4, 13)]
    system = PRESETS["qubit-z-x"](1.0)
    report = convergence_sweep(system, equidistant_family(), counts)
    errs = report.errors
    assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    assert report.fitted_slope is not None
    assert -1.3 <= report.fitted_slope <= -0.8
    _pass(2, start, 30, "slope %.6f over N=16..4096" % report.fitted_slope)


def test_criterion_03_equidistant_bound_dominates_scaled_error():
    start = time.perf_counter()
    n = 4096
    row = equidistant(n)
    worst = 0.0
    for trial in range(20):
        system = _random_coboundary_system(1000, 42, trial)
        scaled_err = control_error(system, row) * n
        m = equidistant_bound_constants(system).m_const
        assert scaled_err <= m
        worst = max(worst, scaled_err / m)
    _pass(3, start, 120, "20 systems, worst error*N at %.3f of M" % worst)


def test_criterion_04_schedule_bound_dominates_error():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        system = _random_coboundary_system(4000, 5000, trial)
        rng = np.random.default_rng(5500 + trial)
        n = int(rng.integers(8, 257))
        s = Schedule(n, rng.dirichlet(np.ones(n)))
        err = control_error(system, s)
        rhs = schedule_bound_rhs(system, s, i_max=40).total_rhs
        assert err <= rhs
        worst = max(worst, err / rhs)
    _pass(4, start, 120, "20 schedules, worst error at %.3f of bound" % worst)


def test_criterion_05_pathological_variation_exact_rationals():
    start = time.perf_counter()
    sample = list(range(2, 101, 2)) + [150, 200, 300, 500, 1000, 2000, 5000, 10000]
    for n in sample:
        assert pathological_tv_exact(n) == Fraction(2 * n * n - 2 * n + 2, n * n)
    final = pathological_tv_exact(10_000)
    assert abs(final - 2) < Fraction(15, 10_000) * 2
    _pass(
        5,
        start,
        1,
        "%d even rows match exactly; V(1e4) = 2 - %s" % (len(sample), 2 - final),
    )


def test_criterion_06_tv_minimizer_is_uniform_and_grid_certified():
    start = time.perf_counter()
    for n in (2, 3, 4, 5):
        res = minimize_tv(n)
        assert np.max(np.abs(res.minimizer.weights - 1.0 / n)) <= 1e-6
        assert abs(res.value - 2.0 / n) <= 1e-9
        if n <= 4:
            _w, grid_v = brute_force_simplex_grid(
                n, 0.02, lambda w: float(tv_value(w))
            )
            assert grid_v >= 2.0 / n - 1e-12
            assert grid_v <= 2.0 / n + 4 * 0.02
            assert res.certified_by_grid
    _pass(6, start, 60, "n=2..5 uniform within 1e-6, grids certify n<=4")


def test_criterion_07_limit_is_schedule_independent():
    start = time.perf_counter()
    n = 4096
    system = PRESETS["qubit-z-x"](1.0)
    product_uhrig = pulse_product(system, uhrig_family()(n))
    product_equi = pulse_product(system, equidistant(n))
    limit = limit_evolution(system, n)
    split = op_norm(product_uhrig - product_equi)
    err_u = op_norm(product_uhrig - limit)
    err_e = op_norm(product_equi - limit)
    assert split < 0.05
    assert err_u < 0.05
    assert err_e < 0.05
    _pass(7, start, 10, "N=4096 split %.2e, errors %.2e / %.2e" % (split, err_u, err_e))


def test_criterion_08_exponential_defect_bound_never_violated():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        dim = 2 + trial % 5
        rng = np.random.default_rng(6000 + trial)
        a = _random_complex(rng, dim)
        b = _random_complex(rng, dim)
        a *= rng.uniform(0.05, 2.0) / op_norm(a)
        b *= rng.uniform(0.05, 2.0) / op_norm(b)
        measured = op_norm(expm(a) @ expm(b) - expm(a + b))
        bound = exp_product_defect_bound(op_norm(a), op_norm(b))
        assert measured <= bound
        worst = max(worst, measured / bound)
    _pass(8, start, 60, "1000 pairs, zero violations, worst at %.3f of bound" % worst)


def test_criterion_09_coboundary_sum_telescopes_to_boundary_form():
    start = time.perf_counter()
    for trial in range(200):
        dim = 2 + trial % 5
        u = random_unitary(dim, seed=7000 + trial)
        rng = np.random.default_rng(8000 + trial)
        y = _random_complex(rng, dim)
        n = int(rng.integers(1, 65))
        x = y - u @ y @ u.conj().T
        partial_sum = cesaro_mean(u, x, n) * n
        u_np1 = np.linalg.matrix_power(u, n + 1)
        boundary = u @ y @ u.conj().T - u_np1 @ y @ u_np1.conj().T
        assert op_norm(partial_sum - boundary) <= 1e-10
        assert op_norm(boundary) <= 2.0 * op_norm(y)
    _pass(9, start, 30, "200 triples telescope exactly, norms within 2||Y||")


def test_criterion_10_sweep_output_is_deterministic(tmp_path, capsys):
    start = time.perf_counter()
    args = [
        "sweep",
        "--system",
        "qubit-z-x",
        "--family",
        "uhrig",
        "--n",
        "16,64,256",
        "--t",
        "0.8",
    ]
    for fmt in ("csv", "json"):
        first = tmp_path / ("first." + fmt)
        second = tmp_path / ("second." + fmt)
        assert main(args + ["--format", fmt, "--out", str(first)]) == 0
        assert main(args + ["--format", fmt, "--out", str(second)]) == 0
        assert first.stat().st_size > 0
        assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    _pass(10, start, None, "csv and json reruns byte-identical")
