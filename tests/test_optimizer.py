import math
from itertools import product as iter_product

import ergopulse as ep
import ergopulse.optimizer
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ergopulse._kernels import tv_value
from ergopulse.cli import PRESETS
from ergopulse.errors import TooLargeInstanceError
from ergopulse.evolution import _schedule_series_terms, schedule_bound_rhs
from ergopulse.optimizer import (
    CERTIFY_ROWS,
    LATTICE_LIMIT,
    OptimizationResult,
    OptimizerConfig,
    _certify,
    _descend_fd,
    _lattice_groups,
    _starts,
    brute_force_simplex_grid,
    minimize_bound_rhs,
    minimize_tv,
    simplex_lattice,
)
from ergopulse.schedules import Schedule, equidistant, tv_functional

import oracles

LIGHT = OptimizerConfig(restarts=10, max_iters=500)


def _tv_of_row(row):
    # Raw-row total variation: lattice points include simplex vertices,
    # which Schedule (weights strictly below 1) would reject, and the
    # grid objective contract is a plain function of the weight row.
    row = np.asarray(row, dtype=np.float64)
    return float(row[0] + np.abs(np.diff(row)).sum() + row[-1])


def test_tv_of_row_helper_matches_schedule_functional():
    rng = np.random.default_rng(7)
    for _ in range(25):
        row = rng.dirichlet(np.ones(4))
        assert _tv_of_row(row) == pytest.approx(
            tv_functional(Schedule(4, row)), abs=1e-14
        )


# ------------------------------------------------------------ scalar lemma


@settings(deadline=None, max_examples=150)
@given(
    x=st.floats(-5, 5),
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
)
def test_pointwise_triangle_lower_bound(x, a, b):
    # the elementwise inequality behind the 2/n lower bound for the
    # total-variation functional
    assert abs(x - a) + abs(x - b) >= abs(b - a) - 1e-12


# ---------------------------------------------------------- simplex_lattice


def test_simplex_lattice_small_enumeration():
    pts = sorted(tuple(w) for w in simplex_lattice(2, 0.5))
    assert pts == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    pts3 = list(simplex_lattice(3, 0.5))
    assert len(pts3) == 6  # binom(4, 2)
    for w in pts3:
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert (w >= 0).all()


def test_simplex_lattice_counts_match_stars_and_bars():
    assert sum(1 for _ in simplex_lattice(4, 0.25)) == math.comb(7, 3)
    assert sum(1 for _ in simplex_lattice(2, 0.01)) == 101


def test_simplex_lattice_rejects_bad_resolution():
    with pytest.raises(ValueError, match="divide"):
        list(simplex_lattice(3, 0.03))
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(
            ValueError, match="resolution must be (a finite real number|positive)"
        ):
            list(simplex_lattice(3, bad))
    with pytest.raises(ValueError):
        list(simplex_lattice(1, 0.5))


def _checked_lattice_groups(n, steps):
    """The groups of _lattice_groups(n, 1/steps), joined, after checking
    that each is a run of whole leading counts [lo, hi) within the row
    budget, or one lead alone, and that the next lead would not fit."""
    groups = list(_lattice_groups(n, 1.0 / steps))
    leads = [math.comb(steps - k + n - 2, n - 2) for k in range(steps + 1)]
    lo = 0
    for k, g in enumerate(groups):
        first = np.rint(g[:, 0] * steps)
        hi = int(first[-1]) + 1
        # rows of leads lo..hi-1 only, and as many as those leads have
        assert first[0] == lo and (np.diff(first) >= 0).all()
        assert g.shape[0] == sum(leads[lo:hi])
        assert hi - lo == 1 or g.shape[0] <= CERTIFY_ROWS
        if k + 1 < len(groups):  # the next lead did not fit
            assert g.shape[0] + leads[hi] > CERTIFY_ROWS
        lo = hi
    assert lo == steps + 1
    return np.concatenate(groups)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 6), steps=st.sampled_from([2, 4, 5, 8, 10, 20, 25, 50]))
def test_chunked_lattice_matches_itertools_oracle(n, steps):
    # up to 60,000 rows: (5, 25) has a lead of 3,276 rows, above the budget
    if math.comb(steps + n - 1, n - 1) > 60_000:
        return
    want = np.array(list(oracles.simplex_lattice(n, steps)))
    assert np.array_equal(_checked_lattice_groups(n, steps), want)
    assert np.array_equal(np.array(list(simplex_lattice(n, 1.0 / steps))), want)


def test_simplex_lattice_refuses_huge_instances():
    with pytest.raises(TooLargeInstanceError) as info:
        list(simplex_lattice(5, 0.01))
    assert info.value.lattice_size == math.comb(104, 4)
    assert info.value.limit == LATTICE_LIMIT


# -------------------------------------------------- brute_force_simplex_grid


def _brute_oracle(n, steps, objective):
    # independent nested-loop enumeration in lexicographic order
    best_w, best_v = None, math.inf
    for counts in iter_product(range(steps + 1), repeat=n - 1):
        if sum(counts) > steps:
            continue
        row = np.array(list(counts) + [steps - sum(counts)], dtype=float) / steps
        v = objective(row)
        if v < best_v - 1e-15 or (
            best_w is not None
            and abs(v - best_v) <= 1e-15
            and tuple(row) < tuple(best_w)
        ):
            best_w, best_v = row, v
    return best_w, best_v


def test_brute_force_matches_independent_enumeration():
    got_w, got_v = brute_force_simplex_grid(3, 0.05, _tv_of_row)
    want_w, want_v = _brute_oracle(3, 20, _tv_of_row)
    assert got_v == pytest.approx(want_v, abs=1e-14)
    assert_allclose(got_w, want_w, atol=1e-14)
    # the lattice minimum of the tv functional at this spacing
    assert got_v == pytest.approx(0.7, abs=1e-12)


def test_brute_force_constant_objective_takes_lex_smallest():
    w, v = brute_force_simplex_grid(3, 0.5, lambda row: 1.0)
    assert v == 1.0
    assert_allclose(w, [0.0, 0.0, 1.0], atol=0)


def test_brute_force_two_weights_exact():
    w, v = brute_force_simplex_grid(2, 0.1, _tv_of_row)
    assert_allclose(w, [0.5, 0.5], atol=1e-15)
    assert v == pytest.approx(1.0, abs=1e-15)


# ------------------------------------------------------------- minimize_tv


def test_minimize_tv_finds_uniform_row():
    for n in (2, 3, 4, 5):
        res = minimize_tv(n, LIGHT)
        assert_allclose(res.minimizer.weights, np.full(n, 1.0 / n), atol=1e-6)
        assert res.value == pytest.approx(2.0 / n, abs=1e-9)
        assert res.iterations_used == 0


def test_minimize_tv_certifies_small_instances(monkeypatch):
    # the closed form's proof certifies it; only the lattice size is read
    def refuse(*_args):
        raise AssertionError("minimize_tv scored the lattice")

    monkeypatch.setattr(ergopulse.optimizer, "_lattice_groups", refuse)
    assert minimize_tv(3, LIGHT).certified_by_grid
    assert minimize_tv(5, LIGHT).certified_by_grid  # 316,251 points
    # default 0.02 spacing overflows the lattice limit at n = 6
    assert not minimize_tv(6, LIGHT).certified_by_grid  # 3,478,761 points


@pytest.mark.parametrize("n", range(2, 8))
def test_minimize_tv_certificate_matches_lattice_search(n):
    for res in (0.5, 0.25, 0.2, 0.1, 0.05, 0.02):
        result = minimize_tv(n, OptimizerConfig(grid_resolution=res))
        assert result.certified_by_grid == _certify(n, res, tv_value, result.value)


def test_minimize_tv_barycenter_start_is_already_optimal():
    res = minimize_tv(4, OptimizerConfig(restarts=0, max_iters=50))
    assert np.array_equal(res.minimizer.weights, np.full(4, 0.25))
    assert res.value == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_minimize_tv_is_the_closed_form_for_every_config(n):
    # the descent settings belong to the bound minimizer; none moves the
    # TV minimizer off the equal row
    row = equidistant(n).weights
    for restarts, seed, max_iters in iter_product((0, 100), (0, 7), (1, 2000)):
        cfg = OptimizerConfig(restarts=restarts, max_iters=max_iters, seed=seed)
        res = minimize_tv(n, cfg)
        assert np.array_equal(res.minimizer.weights, row)
        assert res.value == tv_value(row)
        assert res.iterations_used == 0


def test_minimize_tv_deterministic():
    a = minimize_tv(5, LIGHT)
    b = minimize_tv(5, LIGHT)
    assert np.array_equal(a.minimizer.weights, b.minimizer.weights)
    assert a.value == b.value


def test_config_rejects_resolution_that_does_not_divide_one():
    # refused up front, before any descent runs
    with pytest.raises(ValueError, match="resolution must divide 1"):
        OptimizerConfig(grid_resolution=0.03)
    assert OptimizerConfig(grid_resolution=0.04).grid_resolution == 0.04


@pytest.mark.parametrize(
    "resolution", [0.5000000001, 0.6, 0.03, 0.0, -0.5, 5e-324, 1e-310, 1e308]
)
def test_config_and_lattice_share_one_spacing_rule(resolution):
    # OptimizerConfig refuses exactly the spacings that simplex_lattice
    # refuses, with the same message; a spacing within 1e-9 of 1/2 is the
    # 1/2 lattice for both
    try:
        rows = list(simplex_lattice(3, resolution))
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            OptimizerConfig(grid_resolution=resolution)
        assert str(info.value) == str(exc)
    else:
        assert np.array_equal(rows, list(simplex_lattice(3, 0.5)))
        OptimizerConfig(grid_resolution=resolution)


def test_minimize_tv_validation():
    with pytest.raises(ValueError):
        minimize_tv(1)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(grid_resolution=-0.1)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("restarts", 2.5),
        ("restarts", True),
        ("max_iters", 10.0),
        ("max_iters", True),
        ("seed", 1.5),
        ("seed", False),
        ("seed", -1),
    ],
)
def test_config_rejects_non_integer_and_negative_settings(field, bad):
    # refused up front, not deep in the start sampler
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: bad})


def test_config_accepts_numpy_integers():
    cfg = OptimizerConfig(restarts=np.int64(3), max_iters=np.int32(5), seed=np.int64(7))
    assert (cfg.restarts, cfg.max_iters, cfg.seed) == (3, 5, 7)


def test_minimize_tv_agrees_with_grid_within_lattice_slack():
    for n in (2, 3, 4):
        res = minimize_tv(n, LIGHT)
        _w, grid_v = brute_force_simplex_grid(n, 0.02, _tv_of_row)
        assert abs(res.value - grid_v) <= 4 * 0.02


# ------------------------------------------------------- minimize_bound_rhs


BOUND_CFG = OptimizerConfig(restarts=8, max_iters=400, grid_resolution=0.05)


def test_minimize_bound_rhs_two_weights_finds_even_split():
    # With two weights only the unprefactored final defect term and the
    # total-variation term remain, and the even split minimizes both.
    sys = PRESETS["qubit-z-x"](1.0)
    res = minimize_bound_rhs(sys, 2, BOUND_CFG)
    assert_allclose(res.minimizer.weights, [0.5, 0.5], atol=1e-6)
    assert res.certified_by_grid
    assert res.near_uniform
    assert res.max_deviation_from_uniform <= 1e-6
    direct = schedule_bound_rhs(sys, res.minimizer).total_rhs
    assert res.value == pytest.approx(direct, rel=1e-6)


def test_minimize_bound_rhs_three_weights_short_time_uniform():
    # At short pulse spacings the quadratic head of the bound dominates
    # and its simplex minimum is the even split.
    sys = PRESETS["qubit-z-x"](0.3)
    res = minimize_bound_rhs(sys, 3, BOUND_CFG)
    assert_allclose(res.minimizer.weights, np.full(3, 1.0 / 3.0), atol=1e-6)
    assert res.certified_by_grid
    uniform_v = schedule_bound_rhs(sys, equidistant(3)).total_rhs
    assert res.value <= uniform_v + 1e-12


def test_minimize_bound_rhs_three_weights_long_time_front_loads():
    # Every step except the last carries an exponential prefactor, so at
    # long pulse spacings shifting weight onto the final step beats the
    # even split outright; the optimizer must report that honest optimum
    # rather than snap to uniform.
    sys = PRESETS["qubit-z-x"](math.sqrt(2.0))  # unit generator scale
    res = minimize_bound_rhs(sys, 3, BOUND_CFG)
    uniform_v = schedule_bound_rhs(sys, equidistant(3)).total_rhs
    padded_v = schedule_bound_rhs(sys, Schedule(3, [0.0, 0.5, 0.5])).total_rhs
    assert res.value < uniform_v - 1.0
    assert res.value <= padded_v + 1e-9
    assert np.max(np.abs(res.minimizer.weights - 1.0 / 3.0)) > 0.1
    assert res.certified_by_grid
    assert res.minimizer.weights[-1] == max(res.minimizer.weights)
    assert not res.near_uniform
    assert res.max_deviation_from_uniform > 0.1


def test_bound_rhs_zero_first_weight_drops_to_shorter_row():
    # A zero first weight contributes no defect term and no variation,
    # so the padded three-weight row must price exactly like the
    # two-weight row it degenerates to.
    sys = PRESETS["qubit-z-x"](1.1)
    padded = schedule_bound_rhs(sys, Schedule(3, [0.0, 0.5, 0.5])).total_rhs
    short = schedule_bound_rhs(sys, Schedule(2, [0.5, 0.5])).total_rhs
    assert padded == pytest.approx(short, rel=1e-12)


def test_minimize_bound_rhs_beats_or_ties_lopsided_rows(seeded=3):
    sys = PRESETS["qubit-z-x"](0.7)
    cfg = OptimizerConfig(restarts=6, max_iters=150, grid_resolution=0.05)
    res = minimize_bound_rhs(sys, 3, cfg)
    rng = np.random.default_rng(seeded)
    for _ in range(10):
        row = Schedule(3, rng.dirichlet(np.ones(3)))
        assert res.value <= schedule_bound_rhs(sys, row).total_rhs + 1e-9


def _bound_objective(scale):
    # the bound objective of minimize_bound_rhs at scale = |t| ||Y||
    def objective(w):
        rows = np.minimum(np.asarray(w, dtype=np.float64), 1.0 - 1e-12)
        return _schedule_series_terms(rows / rows.sum(axis=1, keepdims=True), scale)[2]

    return objective


@pytest.mark.parametrize(
    "n, scale", [(2, 1.0), (3, 0.7), (3, 1.4), (4, 0.8), (3, 0.0), (9, 1.0)]
)
def test_lockstep_fd_descent_matches_per_start_oracle(n, scale):
    objective = _bound_objective(scale)
    starts = _starts(n, OptimizerConfig(restarts=5, seed=n))
    # step_tol 1e-2 stops rows at different iterations; scale 0 gives a
    # flat objective whose zero gradient stops every row at once;
    # max_iters 1 and 2 leave the last steps to the call after the loop
    for max_iters, step_tol in ((60, 1e-12), (60, 1e-2), (1, 1e-12), (2, 1e-2)):
        got_w, got_v, got_iters = _descend_fd(objective, starts, max_iters, step_tol)
        want_w, want_v, want_iters = oracles.fd_descent(
            lambda w: objective(w[None, :])[0], starts, max_iters, step_tol
        )
        assert np.array_equal(got_w, want_w)
        assert got_v == want_v
        assert got_iters == want_iters



@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 5),
    restarts=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.0, 0.3, 0.7, 1.4, 3.0]),
    max_iters=st.integers(1, 40),
    step_tol=st.sampled_from([1e-12, 1e-4, 1e-2]),
)
def test_fd_descent_is_bit_identical_to_stacked_oracle(
    n, restarts, seed, scale, max_iters, step_tol
):
    # the same rows in the same order reach the objective, so the stacked
    # oracle's objective may be the package's own
    objective = _bound_objective(scale)
    starts = _starts(n, OptimizerConfig(restarts=restarts, seed=seed))
    got_w, got_v, got_iters = _descend_fd(objective, starts, max_iters, step_tol)
    want_w, want_v, want_iters = oracles.descend_fd_stacked(
        objective, starts, max_iters, step_tol
    )
    assert got_w.tobytes() == want_w.tobytes()
    assert got_v == want_v
    assert got_iters == want_iters


@pytest.mark.parametrize("t, n", list(iter_product((0.5, 1.0, 2.0), (3, 5))))
def test_minimize_bound_rhs_is_bit_identical_to_stacked_oracles(t, n):
    sys = PRESETS["qubit-z-x"](t)
    cfg = OptimizerConfig()
    res = minimize_bound_rhs(sys, n, cfg)
    value, weights, iters, certified = oracles.minimize_bound_rhs_stacked(sys, n, cfg)
    assert res.value == value
    assert res.minimizer.weights.tobytes() == weights.tobytes()
    assert res.iterations_used == iters
    assert res.certified_by_grid == certified


def _coboundary_system(seed, d, scale):
    """A seeded non-normal coboundary system of dimension d at
    |t| ||Y|| = scale."""
    rng = np.random.default_rng(seed)
    u = ep.random_unitary(d, min_phase_gap=0.1, seed=seed)
    y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = y - u @ y @ u.conj().T
    x /= ep.op_norm(ep.solve_coboundary(ep.spectrum(u), x))
    return ep.PulseSystem(u=u, generator=x, t=scale)


@pytest.mark.parametrize(
    "system",
    [("qubit-z-x", t) for t in (0.3, 1.0, 1.5, 2.0, 5.0, 150.0)]
    + [("coboundary", 11, 3, 1.3), ("coboundary", 12, 4, 0.9)],
    ids=str,
)
def test_minimize_bound_rhs_two_weights_beats_descent_and_dense_segment(system):
    if system[0] == "qubit-z-x":
        sys = PRESETS["qubit-z-x"](system[1])
    else:
        sys = _coboundary_system(*system[1:])
    res = minimize_bound_rhs(sys, 2)
    assert res.value <= oracles.minimize_bound_rhs_stacked(sys, 2, OptimizerConfig())[0]
    # one dense call on the segment (a, 1 - a), a in [0, 1]
    a = np.linspace(0.0, 1.0, 2**14 + 1)
    objective = _bound_objective(abs(sys.t) * sys.potential_norm)
    assert res.value <= (1.0 + 1e-12) * objective(np.stack((a, 1.0 - a), axis=1)).min()
    direct = schedule_bound_rhs(sys, res.minimizer).total_rhs
    assert res.value == pytest.approx(direct, rel=1e-9)


def test_minimize_bound_rhs_two_weights_at_t0_is_the_even_split():
    # every row scores 0, and ties go to the even split
    res = minimize_bound_rhs(PRESETS["qubit-z-x"](0.0), 2)
    assert res.value == 0.0
    assert np.array_equal(res.minimizer.weights, [0.5, 0.5])
    assert res.near_uniform


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [600.0, 1e308])
def test_minimize_bound_rhs_two_weights_all_overflowing_is_the_even_split(t):
    # every row scores +inf
    res = minimize_bound_rhs(PRESETS["qubit-z-x"](t), 2)
    assert res.value == math.inf
    assert np.array_equal(res.minimizer.weights, [0.5, 0.5])


@pytest.mark.parametrize("t", [2.0, 150.0])
def test_minimize_bound_rhs_two_weights_long_time_is_an_endpoint(t):
    w = minimize_bound_rhs(PRESETS["qubit-z-x"](t), 2).minimizer.weights
    assert min(np.abs(w - [0.0, 1.0]).max(), np.abs(w - [1.0, 0.0]).max()) <= 1e-9


def test_minimize_bound_rhs_two_weights_makes_a_fixed_number_of_calls(monkeypatch):
    # the search's calls, one for the reversed row unless the result is
    # the even split, and one for the 51-row certifying lattice; the
    # descent settings are not read
    calls = []
    real = ergopulse.optimizer._schedule_series_terms

    def counting(rows, scale):
        calls.append(rows.shape[0])
        return real(rows, scale)

    monkeypatch.setattr(ergopulse.optimizer, "_schedule_series_terms", counting)
    search = ergopulse.optimizer._SEARCH_CALLS
    for t, reversed_calls in ((1.0, 0), (2.0, 1)):
        for cfg in (OptimizerConfig(), OptimizerConfig(restarts=0, max_iters=1)):
            calls.clear()
            res = minimize_bound_rhs(PRESETS["qubit-z-x"](t), 2, cfg)
            assert res.iterations_used == search
            assert len(calls) == search + reversed_calls + 1
            assert calls[-1] == 51


# iterations_used of the descent that stepped rows with an infinite or NaN
# gradient norm: a row with overflowing squares took a zero step, and a
# row with inf - inf values kept stepping through NaN weights
_OVERFLOW_ITERATIONS_BEFORE = {150.0: 278, 300.0: 2254, 600.0: 3250}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", sorted(_OVERFLOW_ITERATIONS_BEFORE))
def test_minimize_bound_rhs_stops_rows_whose_gradient_overflows(t):
    # at t = 150 (|t| ||Y|| = 106) the squared gradient overflows; at
    # t = 300 and 600 the objective itself does, and +-h values give
    # inf - inf
    sys = PRESETS["qubit-z-x"](t)
    res = minimize_bound_rhs(sys, 3)
    even = schedule_bound_rhs(sys, equidistant(3)).total_rhs
    assert res.value <= even or res.value == even == math.inf
    assert not np.isnan(res.minimizer.weights).any()
    assert res.iterations_used <= _OVERFLOW_ITERATIONS_BEFORE[t]
    if t >= 300.0:
        # every start's +-h values overflow: each row stops at once
        assert res.iterations_used == OptimizerConfig().restarts + 1


def test_minimize_bound_rhs_makes_one_objective_call_per_iteration(monkeypatch):
    # one call per descent iteration, one for the last steps, one for the
    # reversed row and one for the whole 1,326-row certifying lattice
    calls = []
    real = ergopulse.optimizer._schedule_series_terms

    def counting(rows, scale):
        calls.append(rows.shape[0])
        return real(rows, scale)

    monkeypatch.setattr(ergopulse.optimizer, "_schedule_series_terms", counting)
    cfg = OptimizerConfig()
    res = minimize_bound_rhs(PRESETS["qubit-z-x"](1.0), 3, cfg)
    assert res.certified_by_grid
    assert len(calls) <= cfg.max_iters + 3
    assert calls[-1] == math.comb(52, 2)


def test_certify_scores_a_lattice_within_the_row_budget_in_one_call():
    sys = PRESETS["qubit-z-x"](1.0)
    scale = abs(sys.t) * sys.potential_norm
    calls = []

    def objective(rows):
        calls.append(rows.shape[0])
        return _schedule_series_terms(rows, scale)[2]

    verdicts = set()
    for n, resolution in ((3, 0.02), (4, 0.05), (5, 0.1)):
        size = math.comb(round(1 / resolution) + n - 1, n - 1)
        assert size <= CERTIFY_ROWS
        grid_v = float(objective(np.stack(list(simplex_lattice(n, resolution)))).min())
        for value in (grid_v, 2.0 * grid_v + 1.0):
            calls.clear()
            got = _certify(n, resolution, objective, value)
            assert calls == [size]
            slack = 4.0 * resolution * max(1.0, abs(value))
            assert got == (grid_v >= value - slack)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, resolution", [(4, 0.01), (5, 0.02)])
def test_lattice_groups_join_whole_chunks_up_to_the_row_budget(n, resolution):
    # (4, 0.01): 176,851 rows in leads of 1 to 5,151 rows; (5, 0.02):
    # 316,251 rows in leads of 1 to 23,426 rows; the larger leads exceed
    # the budget alone
    steps = round(1 / resolution)
    rows = _checked_lattice_groups(n, steps)
    # every composition of steps into n counts, once each, in strictly
    # increasing lexicographic order: the whole lattice, in order
    counts = np.rint(rows * steps).astype(np.int64)
    assert np.array_equal(counts / steps, rows)
    assert (counts >= 0).all() and (counts.sum(axis=1) == steps).all()
    assert rows.shape[0] == math.comb(steps + n - 1, n - 1)
    step = np.diff(counts, axis=0)
    lead = (step != 0).argmax(axis=1)
    assert (step[np.arange(step.shape[0]), lead] > 0).all()


def test_minimize_bound_rhs_cli_defaults_keep_known_optimum():
    # optimize --mode bound --system qubit-z-x --n 3 at CLI defaults
    res = minimize_bound_rhs(
        PRESETS["qubit-z-x"](1.0), 3, OptimizerConfig(restarts=12, max_iters=250)
    )
    assert abs(res.value - 2.3301980797406134) <= 1e-9
    assert res.iterations_used == 3250
    assert not res.near_uniform
    assert res.certified_by_grid


def test_minimize_bound_rhs_refuses_commutant_generator():
    from ergopulse.errors import NotACoboundaryError
    from ergopulse.evolution import PulseSystem

    sys = PulseSystem(
        u=np.diag([1.0, -1.0]), generator=np.diag([1.0j, -1.0j]), t=1.0
    )
    with pytest.raises(NotACoboundaryError, match="yosida_split") as refused:
        minimize_bound_rhs(sys, 3)
    with pytest.raises(NotACoboundaryError) as bound_refused:
        schedule_bound_rhs(sys, Schedule(3, [0.2, 0.3, 0.5]))
    assert str(refused.value) == str(bound_refused.value)


def test_optimizer_result_minimizer_is_valid_schedule():
    res = minimize_tv(4, LIGHT)
    assert isinstance(res.minimizer, Schedule)
    assert res.minimizer.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_optimizer_result_uniform_proximity_report():
    res = minimize_tv(3, LIGHT)
    assert res.near_uniform
    assert res.max_deviation_from_uniform == pytest.approx(0.0, abs=1e-6)
    lopsided = OptimizationResult(
        minimizer=Schedule(3, [0.6, 0.3, 0.1]),
        value=1.2,
        iterations_used=1,
        certified_by_grid=False,
    )
    assert lopsided.max_deviation_from_uniform == pytest.approx(0.6 - 1 / 3)
    assert not lopsided.near_uniform
