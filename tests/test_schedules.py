import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ergopulse.errors import InvalidDensityError
from ergopulse.schedules import (
    Schedule,
    ScheduleFamily,
    cohen_uniformity_probe,
    equidistant,
    equidistant_family,
    family_by_name,
    from_cdf,
    load_schedule,
    pathological,
    pathological_family,
    pathological_row_exact,
    pathological_tv_exact,
    save_schedule,
    schedule_from_json_dict,
    schedule_to_json_dict,
    table_density_family,
    tv_functional,
    uhrig,
    uhrig_family,
)

import oracles

simplex_rows = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=12
).map(lambda xs: np.array(xs) / np.sum(xs))


# ------------------------------------------------------------- Schedule


def test_schedule_normalizes_and_freezes():
    s = Schedule(3, [0.5, 0.25, 0.25])
    assert s.n == 3
    assert s.weights.dtype == np.float64
    with pytest.raises(AttributeError):
        s.n = 4


@pytest.mark.parametrize(
    "n,weights",
    [
        (0, []),
        (2, [0.5]),
        (2, [0.6, 0.6]),
        (2, [-0.1, 1.1]),
        (1, [1.0]),
        (2, [math.nan, 1.0]),
        (2, [0.5, 0.5 + 1e-9]),
    ],
)
def test_schedule_rejects_bad_rows(n, weights):
    with pytest.raises(ValueError):
        Schedule(n, weights)


@pytest.mark.parametrize(
    "weights, message",
    [
        ([0.5, 0.25], "must be a length-3 vector"),
        ([math.nan, 0.5, 0.5], "non-finite"),
        ([0.25, math.inf, 0.5], "non-finite"),
        ([0.25, 0.5, -math.inf], "non-finite"),
        # non-finite comes before range, which comes before the sum
        ([-0.5, math.nan, 2.0], "non-finite"),
        ([-0.5, math.inf, 0.5], "non-finite"),
        ([-0.25, 0.75, 0.5], "0 <= a_i < 1"),
        ([1.0, 0.0, 0.0], "0 <= a_i < 1"),
        ([1.5, 0.0, -0.5], "0 <= a_i < 1"),
        ([0.5, 0.25, 0.3], "must sum to 1"),
    ],
)
def test_schedule_row_messages_in_order(weights, message):
    with pytest.raises(ValueError, match=message):
        Schedule(3, weights)


def test_equidistant_rows_and_tv():
    s = equidistant(4)
    assert np.array_equal(s.weights, np.full(4, 0.25))
    assert tv_functional(s) == pytest.approx(0.5, abs=1e-15)
    for n in (2, 7, 100):
        assert tv_functional(equidistant(n)) == pytest.approx(2.0 / n, abs=1e-14)


def test_equidistant_needs_two_weights():
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        equidistant(1)


def test_schedule_needs_two_weights():
    # one weight would have to be 1, which no weight may reach
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        Schedule(1, [1.0])
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        schedule_from_json_dict({"n": 1, "weights": [1.0]})


# ------------------------------------------------------------- densities


def test_uniform_density_reproduces_equidistant():
    s = from_cdf(lambda x: x, 6)
    assert_allclose(s.weights, np.full(6, 1.0 / 6.0), atol=1e-15)


def test_uhrig_panel_weights_match_closed_form():
    # integral of (pi/2) sin(pi x) over [(i-1)/n, i/n] is
    # (cos(pi (i-1)/n) - cos(pi i/n)) / 2
    for n in (2, 4, 9):
        s = uhrig_family()(n)
        i = np.arange(1, n + 1)
        exact = 0.5 * (np.cos(np.pi * (i - 1) / n) - np.cos(np.pi * i / n))
        assert_allclose(s.weights, exact, atol=1e-14)


def test_uhrig_tv_frozen_value():
    # closed form at n=4: a_1 + (a_2 - a_1) + (a_2 - a_3) + a_4 = sqrt(2)/2
    assert tv_functional(uhrig_family()(4)) == pytest.approx(
        0.7071067811865476, abs=1e-14
    )


# uhrig(n)[i-1] = (cos(pi (i-1)/n) - cos(pi i/n)) / 2 to 40 digits (mpmath,
# 50-digit working precision), at i = 1, 2, n//2, n-1, n
UHRIG_REFERENCE = {
    16: {
        1: "0.009607359798384775436908881932880481513033",
        2: "0.02845287394597184649899952336872537507576",
        8: "0.09754516100806413392414243423851112046385",
        15: "0.02845287394597184649899952336872537507576",
        16: "0.009607359798384775436908881932880481513033",
    },
    4096: {
        1: "1.470685588904198858911306171614418680503e-7",
        2: "4.412055901546156012537836198290339979882e-7",
        2048: "3.834951593713522634692841789742883215705e-4",
        4095: "4.412055901546156012537836198290339979882e-7",
        4096: "1.470685588904198858911306171614418680503e-7",
    },
    100_001: {
        1: "2.467351752787617179423356747385026700619e-10",
        2: "7.402055255927721669476419538262529677024e-10",
        50_000: "1.570780618148978597598262323336574533109e-5",
        100_000: "7.402055255927721669476419538262529677024e-10",
        100_001: "2.467351752787617179423356747385026700619e-10",
    },
}


@pytest.mark.parametrize("n", sorted(UHRIG_REFERENCE))
def test_uhrig_matches_40_digit_reference(n):
    w = uhrig(n).weights
    for i, ref in UHRIG_REFERENCE[n].items():
        exact = Fraction(ref)
        assert abs(Fraction(float(w[i - 1])) - exact) <= Fraction(1, 10**15) * exact
    assert np.array_equal(w, w[::-1])
    assert abs(w.sum() - 1.0) <= 2.3e-16


def test_uhrig_family_is_the_closed_form():
    fam = uhrig_family()
    assert fam.builder is uhrig
    assert np.array_equal(fam(1000).weights, uhrig(1000).weights)


@pytest.mark.parametrize("n", [True, False, 1, 0, -4, 2.0, 2.5, "4", None])
def test_uhrig_rejects_bad_n(n):
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        uhrig(n)


def test_density_must_be_nonnegative():
    # the density cos(2 pi x) dips below zero on (1/4, 3/4)
    with pytest.raises(InvalidDensityError, match="negative on"):
        from_cdf(lambda x: np.sin(2 * np.pi * x) / (2 * np.pi), 8)


def test_density_must_be_normalized():
    with pytest.raises(InvalidDensityError, match="integrates to"):
        from_cdf(lambda x: 2.0 * x, 4)


def test_density_must_be_finite():
    with pytest.raises(InvalidDensityError, match="non-finite"):
        from_cdf(lambda x: np.where(x > 0.5, np.inf, x), 4)


def test_density_near_normalized_is_renormalized_exactly():
    s = from_cdf(lambda x: (1.0 + 5e-7) * x, 4)
    assert abs(s.weights.sum() - 1.0) <= 1e-13


def test_from_cdf_rejects_bad_n_and_shapes():
    for n in (True, 1, 3.0):
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            from_cdf(lambda x: x, n)
    with pytest.raises(ValueError, match="one value per panel edge"):
        from_cdf(lambda x: 0.5, 4)
    with pytest.raises(ValueError, match="one value per panel edge"):
        from_cdf(lambda x: x[:-1], 4)


def test_from_cdf_calls_cdf_once_on_the_edges():
    seen = []
    from_cdf(lambda x: seen.append(x.copy()) or x, 5)
    assert len(seen) == 1
    assert_allclose(seen[0], np.arange(6) / 5, atol=1e-16)


def test_table_density_uniform():
    fam = table_density_family([0.0, 1.0], [1.0, 1.0])
    assert_allclose(fam(5).weights, np.full(5, 0.2), atol=1e-15)
    assert fam.name == "table"


def _interp_panel_exact(xs, ys, a, b):
    """Integral over [a, b] of the piecewise-linear interpolant, in rationals."""
    xs = [Fraction(v) for v in xs]
    ys = [Fraction(v) for v in ys]
    total = Fraction(0)
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        lo, hi = max(a, x0), min(b, x1)
        if lo < hi:
            f_lo = y0 + (y1 - y0) * (lo - x0) / (x1 - x0)
            f_hi = y0 + (y1 - y0) * (hi - x0) / (x1 - x0)
            total += (hi - lo) * (f_lo + f_hi) / 2
    return total


@pytest.mark.parametrize(
    "xs,ys,n",
    [
        ([0.0, 0.3, 0.55, 1.0], [0.5, 1.5, 1.0, 0.7222222222222222], 7),
        ([0.0, 0.1, 0.45, 0.8, 1.0], [0.0, 2.0, 0.2, 1.4, 0.95], 9),
        ([0.0, 0.5, 1.0], [2.0, 0.0, 2.0], 5),
    ],
)
def test_table_rows_are_exact_panel_integrals(xs, ys, n):
    # panels straddling a knot are where a quadrature rule is not exact
    fam = table_density_family(xs, ys)
    total = _interp_panel_exact(xs, ys, Fraction(0), Fraction(1))
    want = [
        _interp_panel_exact(xs, ys, Fraction(i, n), Fraction(i + 1, n)) / total
        for i in range(n)
    ]
    assert_allclose(fam(n).weights, [float(v) for v in want], rtol=0, atol=1e-15)


def test_row_construction_memory_stays_small():
    import tracemalloc

    table = table_density_family(
        [0.0, 0.3, 0.55, 1.0], [0.5, 1.5, 1.0, 0.7222222222222222]
    )
    tracemalloc.start()
    try:
        uhrig_family()(100_000)
        table(100_000)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_table_density_validation():
    with pytest.raises(ValueError, match="span"):
        table_density_family([0.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        table_density_family([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidDensityError):
        table_density_family([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        table_density_family([0.0], [1.0])


# ---------------------------------------------------------- pathological


def test_pathological_rows_frozen():
    assert np.array_equal(
        pathological(4).weights, np.array([0.4375, 0.0625, 0.4375, 0.0625])
    )
    assert_allclose(
        pathological(3).weights, [5.0 / 9.0, 1.0 / 9.0, 1.0 / 3.0], atol=1e-16
    )


def test_pathological_exact_rows_sum_to_one():
    for n in (2, 3, 4, 5, 17, 100, 101):
        assert sum(pathological_row_exact(n), Fraction(0)) == 1


def test_pathological_tv_closed_form_exact():
    # oracle: the summed rational variation collapses to (2n^2-2n+2)/n^2
    for n in list(range(2, 60)) + [999, 1000, 10_000]:
        assert pathological_tv_exact(n) == Fraction(2 * n * n - 2 * n + 2, n * n)
    assert pathological_tv_exact(4) == Fraction(13, 8)
    assert tv_functional(pathological(4)) == pytest.approx(1.625, abs=1e-15)


def test_pathological_tv_approaches_two_from_below():
    vals = [float(pathological_tv_exact(n)) for n in (10, 100, 1000, 10_000)]
    assert all(v < 2.0 for v in vals)
    assert vals == sorted(vals)
    assert abs(vals[-1] - 2.0) < 2e-4


# ------------------------------------------------------------- functional


def test_tv_functional_requires_schedule():
    with pytest.raises(ValueError):
        tv_functional([0.5, 0.5])


@settings(deadline=None, max_examples=120)
@given(row=simplex_rows)
def test_tv_functional_at_least_two_over_n(row):
    try:
        s = Schedule(len(row), row)
    except ValueError:
        return  # rounding pushed the sum outside tolerance; not a tv statement
    assert tv_functional(s) >= 2.0 / len(row) - 1e-12


@settings(deadline=None, max_examples=80)
@given(row=simplex_rows)
def test_tv_functional_monotone_rows_touch_lower_envelope(row):
    ordered = np.sort(row)[::-1]
    try:
        s = Schedule(len(ordered), ordered)
    except ValueError:
        return
    # a nonincreasing row telescopes: tv = 2 a_1
    assert tv_functional(s) == pytest.approx(2.0 * ordered[0], rel=1e-12)


def test_tv_functional_reversal_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        row = rng.dirichlet(np.ones(6))
        s = Schedule(6, row)
        r = Schedule(6, row[::-1])
        assert tv_functional(s) == pytest.approx(tv_functional(r), abs=1e-15)


# --------------------------------------------------------------- families


def test_family_by_name_lookup():
    assert family_by_name("uniform").builder is equidistant
    assert family_by_name("equidistant").name == "uniform"
    assert family_by_name("uhrig").name == "uhrig"
    assert family_by_name("pathological").builder is pathological
    with pytest.raises(ValueError, match="unknown schedule family"):
        family_by_name("smooth")


def test_family_call_validates_row_length():
    bad = ScheduleFamily("bad", lambda n: equidistant(n + 1))
    with pytest.raises(ValueError, match="invalid row"):
        bad(4)


# ----------------------------------------------------- uniformity probe


def _tail_sup_oracle(family, grid, k):
    best = 0.0
    for n in grid:
        if k > n:
            continue
        w = list(family(n).weights) + [0.0]
        best = max(best, sum(abs(w[i + 1] - w[i]) for i in range(k - 1, n)))
    return best


def test_probe_grid_is_geometric_with_endpoint():
    rep = cohen_uniformity_probe(equidistant_family(), 100)
    assert rep.n_grid == (4, 8, 16, 32, 64, 100)
    rep2 = cohen_uniformity_probe(equidistant_family(), 64)
    assert rep2.n_grid == (4, 8, 16, 32, 64)


def test_probe_verdicts():
    assert (
        cohen_uniformity_probe(equidistant_family(), 256).verdict
        == "consistent-with-uniform"
    )
    assert (
        cohen_uniformity_probe(uhrig_family(), 256).verdict
        == "consistent-with-uniform"
    )
    assert (
        cohen_uniformity_probe(pathological_family(), 256).verdict
        == "violates-uniform"
    )


def test_probe_tail_sup_matches_plain_loop_oracle():
    for fam in (equidistant_family(), uhrig_family(), pathological_family()):
        rep = cohen_uniformity_probe(fam, 64, k_grid=(1, 2, 4, 8, 100 // 3))
        for k, got in rep.tail_sup:
            assert got == pytest.approx(
                _tail_sup_oracle(fam, rep.n_grid, k), abs=1e-14
            )


PROBE_FAMILIES = (
    equidistant_family(),
    uhrig_family(),
    pathological_family(),
    table_density_family([0.0, 0.3, 0.55, 1.0], [0.5, 1.5, 1.0, 0.7222222222222222]),
)


def _exact_tails(weights):
    """Entry k - 1 is a_n plus the steps |a_{i+1} - a_i| from i = k on, of
    the float row, summed in rationals."""
    row = [Fraction(float(v)) for v in weights]
    tails = [row[-1]]
    for a, b in zip(row[-2::-1], row[:0:-1]):
        tails.append(tails[-1] + abs(b - a))
    return tails[::-1]


@pytest.mark.parametrize("n_max", [8, 9, 33, 4097])
def test_probe_matches_row_loop_oracle(n_max):
    # k_grids reach past the small grid counts, where a row has no tail
    eps = Fraction(np.finfo(np.float64).eps)
    for fam in PROBE_FAMILIES:
        tails = {}
        for k_grid in ((1, 2, 4, 8), (3, 5, 8), (1, 6, n_max)):
            got = cohen_uniformity_probe(fam, n_max, k_grid)
            want = oracles.cohen_uniformity_probe(fam, n_max, k_grid)
            assert got.n_grid == want.n_grid
            assert got.tv_sequence == want.tv_sequence
            assert got.verdict == want.verdict
            for k, value in got.tail_sup:
                best = max(
                    tails.setdefault(n, _exact_tails(fam(n).weights))[k - 1]
                    for n in got.n_grid
                    if k <= n
                )
                assert abs(Fraction(value) - best) <= 4 * eps * best, (fam.name, k)


def test_probe_tail_sup_nonincreasing_in_k():
    for fam in (uhrig_family(), pathological_family()):
        rep = cohen_uniformity_probe(fam, 128)
        vals = [v for _, v in rep.tail_sup]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))


def test_probe_uniform_tv_sequence():
    rep = cohen_uniformity_probe(equidistant_family(), 32)
    assert rep.tv_sequence == ((4, 0.5), (8, 0.25), (16, 0.125), (32, 0.0625))


def test_probe_validation():
    with pytest.raises(ValueError):
        cohen_uniformity_probe(equidistant_family(), 3)
    with pytest.raises(ValueError):
        cohen_uniformity_probe(equidistant_family(), 16, k_grid=())
    with pytest.raises(ValueError):
        cohen_uniformity_probe(equidistant_family(), 16, k_grid=(0, 1))
    with pytest.raises(ValueError, match="at least max"):
        cohen_uniformity_probe(equidistant_family(), 8, k_grid=(1, 16))
    with pytest.raises(ValueError):
        cohen_uniformity_probe(equidistant, 16)  # bare function, not a family


# ------------------------------------------------------------------ JSON


def test_schedule_json_round_trip_bitwise(tmp_path):
    s = uhrig_family()(7)
    path = tmp_path / "s.json"
    save_schedule(s, path)
    first = path.read_bytes()
    loaded = load_schedule(path)
    assert loaded.n == 7
    assert np.array_equal(loaded.weights, s.weights)
    save_schedule(loaded, path)
    assert path.read_bytes() == first


def test_schedule_json_dict_shape():
    obj = schedule_to_json_dict(equidistant(2))
    assert obj == {"n": 2, "weights": [0.5, 0.5]}


@pytest.mark.parametrize(
    "obj",
    [
        [0.5, 0.5],
        {"n": 2},
        {"weights": [0.5, 0.5]},
        {"n": 2, "weights": [0.5]},
        {"n": 2, "weights": [0.5, "0.5"]},
        {"n": 2, "weights": [0.5, True]},
        {"n": 2.0, "weights": [0.5, 0.5]},
        {"n": 2, "weights": [0.5, 0.5], "tv": 1.0},
        {"n": 2, "weights": [0.5, math.inf]},
        {"n": 2, "weights": [0.4, 0.4]},
    ],
)
def test_schedule_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        schedule_from_json_dict(obj)
