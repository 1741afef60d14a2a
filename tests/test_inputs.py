"""One rule per input kind, at every entry point that takes one.

Counts go through matrixcore.require_count, real scalars through
matrixcore.require_real, and PulseSystem.t is a finite complex; each bad
value below must raise ValueError, never be rounded, parsed or passed on.
"""

import math

import numpy as np
import pytest

from ergopulse import (
    OptimizerConfig,
    PulseSystem,
    Schedule,
    cesaro_mean,
    cohen_uniformity_probe,
    control_error,
    convergence_sweep,
    equidistant,
    equidistant_bound_constants,
    equidistant_family,
    exp_product_defect_bound,
    from_cdf,
    is_unitary,
    limit_evolution,
    matrix_from_json_dict,
    minimize_bound_rhs,
    minimize_tv,
    pathological,
    pathological_tv_exact,
    pulse_product,
    random_unitary,
    schedule_bound_rhs,
    schedule_from_json_dict,
    simplex_lattice,
    spectrum,
    uhrig,
    uhrig_family,
)
from ergopulse.cli import PRESETS

U = np.diag([1.0, 1.0j])
X = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
SYS = PRESETS["qubit-z-x"](1.0)

BAD_COUNTS = (True, np.bool_(True), 4.7, 4.0, "3", math.nan, math.inf)
BIG = 10**400  # an int past the float range
BAD_REALS = (True, "3", BIG, math.nan, math.inf)
BAD_TIMES = BAD_REALS + (complex(1.0, math.inf),)

COUNT_SITES = {
    "cesaro_mean": lambda v: cesaro_mean(U, X, v),
    "limit_evolution": lambda v: limit_evolution(SYS, v),
    "Schedule": lambda v: Schedule(v, [1.0]),
    "equidistant": equidistant,
    "uhrig": uhrig,
    "pathological": pathological,
    "pathological_tv_exact": pathological_tv_exact,
    "from_cdf": lambda v: from_cdf(lambda x: x, v),
    "probe n_max": lambda v: cohen_uniformity_probe(uhrig_family(), v),
    "probe k_grid": lambda v: cohen_uniformity_probe(uhrig_family(), 16, [1, v]),
    "restarts": lambda v: OptimizerConfig(restarts=v),
    "max_iters": lambda v: OptimizerConfig(max_iters=v),
    "seed": lambda v: OptimizerConfig(seed=v),
    "simplex_lattice n": lambda v: list(simplex_lattice(v, 0.5)),
    "minimize_tv": minimize_tv,
    "minimize_bound_rhs": lambda v: minimize_bound_rhs(SYS, v),
    "random_unitary dim": random_unitary,
    "json dim": lambda v: matrix_from_json_dict({"dim": v, "entries": [[1, 0]]}),
    "json n": lambda v: schedule_from_json_dict({"n": v, "weights": [1.0]}),
    "convergence_sweep": lambda v: convergence_sweep(
        SYS, equidistant_family(), [v, 8, 16]
    ),
}

REAL_SITES = {
    "spectrum cluster_tol": lambda v: spectrum(U, v),
    "random_unitary min_phase_gap": lambda v: random_unitary(2, v),
    "defect bound a": lambda v: exp_product_defect_bound(v, 1.0),
    "defect bound b": lambda v: exp_product_defect_bound(1.0, v),
    "is_unitary tol": lambda v: is_unitary(U, v),
    "json entry": lambda v: matrix_from_json_dict({"dim": 1, "entries": [[v, 0]]}),
    "json weight": lambda v: schedule_from_json_dict({"n": 2, "weights": [v, 0.5]}),
}

# a lattice spacing is a real that is also positive, not subnormal (where
# 1/resolution overflows) and divides 1
SPACING_SITES = {
    "grid_resolution": lambda v: OptimizerConfig(grid_resolution=v),
    "simplex_lattice resolution": lambda v: list(simplex_lattice(3, v)),
}
BAD_SPACINGS = BAD_REALS + (0.0, -0.5, 0.6, 0.03, 5e-324, 1e-310, 1e-320)

# inputs that a check written per site lets through as a number: int()
# rounds 4.7 and parses "4", float() parses "0.1" and takes True as 1.0,
# complex() parses "1", and float(10**400) raises OverflowError
DRIFT_CASES = {
    "sweep rounds 4.7": lambda: convergence_sweep(
        SYS, equidistant_family(), [4.7, 8, 16]
    ),
    "sweep parses strings": lambda: convergence_sweep(
        SYS, equidistant_family(), ["4", "8", "16"]
    ),
    "probe rounds k": lambda: cohen_uniformity_probe(uhrig_family(), 16, [1.5, 2.9]),
    "t string": lambda: PulseSystem(U, X, t="1"),
    "t bool": lambda: PulseSystem(U, X, t=True),
    "gap string": lambda: random_unitary(2, "0.1"),
    "defect bound string and bool": lambda: exp_product_defect_bound("1", True),
    "cluster_tol overflow": lambda: spectrum(U, BIG),
    "grid_resolution string": lambda: OptimizerConfig(grid_resolution="0.02"),
}


def _cases(sites, values):
    return [
        ("%s %s" % (site, "10**400" if v is BIG else repr(v)), call, v)
        for site, call in sites.items()
        for v in values
    ]


TABLE = (
    _cases(COUNT_SITES, BAD_COUNTS)
    + _cases(REAL_SITES, BAD_REALS)
    + _cases(SPACING_SITES, BAD_SPACINGS)
    + _cases({"t": lambda v: PulseSystem(U, X, t=v)}, BAD_TIMES)
    + [(name, lambda _v, call=call: call(), None) for name, call in DRIFT_CASES.items()]
)


@pytest.mark.parametrize(
    "call, value", [case[1:] for case in TABLE], ids=[case[0] for case in TABLE]
)
def test_bad_counts_reals_and_times_raise_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("k_grid", [4, np.int64(4), None, 2.5])
def test_probe_k_grid_must_be_iterable(k_grid):
    with pytest.raises(ValueError, match="k_grid"):
        cohen_uniformity_probe(uhrig_family(), 16, k_grid)


# every entry point that takes a system or optimizer settings, with its
# other arguments valid
SYSTEM_SITES = {
    "pulse_product": lambda v: pulse_product(v, equidistant(4)),
    "control_error": lambda v: control_error(v, equidistant(4)),
    "limit_evolution": lambda v: limit_evolution(v, 4),
    "schedule_bound_rhs": lambda v: schedule_bound_rhs(v, equidistant(4)),
    "equidistant_bound_constants": equidistant_bound_constants,
    "convergence_sweep": lambda v: convergence_sweep(
        v, equidistant_family(), [4, 8, 16]
    ),
    "minimize_bound_rhs": lambda v: minimize_bound_rhs(v, 2),
}
CONFIG_SITES = {
    "minimize_tv": lambda v: minimize_tv(3, v),
    "minimize_bound_rhs": lambda v: minimize_bound_rhs(SYS, 2, v),
}
BAD_SYSTEMS = (None, {}, (U, X), U)
BAD_CONFIGS = ({}, {"restarts": 2}, False, "default", (12, 250, 0.02, 0))
OBJECT_TABLE = [
    (name, call, value, "sys must be a PulseSystem")
    for name, call, value in _cases(SYSTEM_SITES, BAD_SYSTEMS)
] + [
    (name, call, value, "config must be an OptimizerConfig or None")
    for name, call, value in _cases(CONFIG_SITES, BAD_CONFIGS)
]


@pytest.mark.parametrize(
    "call, value, message",
    [case[1:] for case in OBJECT_TABLE],
    ids=[case[0] for case in OBJECT_TABLE],
)
def test_bad_systems_and_configs_raise_value_error(call, value, message):
    # refused by kind before any attribute is read, where an AttributeError
    # or, for a falsy config, the defaults would follow
    with pytest.raises(ValueError, match=message):
        call(value)


def test_numpy_counts_and_reals_give_the_same_bits():
    i = np.int64
    for cast in (np.float32, np.float64):
        gap, tol, res, t = (cast(v) for v in (0.5, 1e-8, 0.25, 0.5))
        pairs = [
            (cesaro_mean(U, X, i(7)), cesaro_mean(U, X, 7)),
            (limit_evolution(SYS, i(5)), limit_evolution(SYS, 5)),
            (uhrig(i(6)).weights, uhrig(6).weights),
            (pathological(i(5)).weights, pathological(5).weights),
            (Schedule(i(2), [0.5, 0.5]).weights, Schedule(2, [0.5, 0.5]).weights),
            (
                random_unitary(i(3), gap, seed=1),
                random_unitary(3, float(gap), seed=1),
            ),
            (spectrum(U, tol).basis, spectrum(U, float(tol)).basis),
            (exp_product_defect_bound(gap, res), exp_product_defect_bound(0.5, 0.25)),
            (
                np.stack(list(simplex_lattice(i(3), res))),
                np.stack(list(simplex_lattice(3, float(res)))),
            ),
            (
                PulseSystem(U, X, t=t).limit_factor,
                PulseSystem(U, X, t=float(t)).limit_factor,
            ),
        ]
        for got, want in pairs:
            assert np.array_equal(got, want)
    assert type(Schedule(i(2), [0.5, 0.5]).n) is int

    got = cohen_uniformity_probe(uhrig_family(), i(16), [i(2), 4])
    want = cohen_uniformity_probe(uhrig_family(), 16, [2, 4])
    assert (got.n_grid, got.tail_sup, got.tv_sequence) == (
        want.n_grid,
        want.tail_sup,
        want.tv_sequence,
    )

    got = convergence_sweep(SYS, equidistant_family(), np.array([4, 8, 16]))
    want = convergence_sweep(SYS, equidistant_family(), [4, 8, 16])
    assert got.n_values == want.n_values
    assert all(type(n) is int for n in got.n_values)
    assert np.array_equal(got.errors, want.errors)

    cfg = OptimizerConfig(restarts=i(2), max_iters=i(5), seed=i(3))
    got = minimize_bound_rhs(SYS, i(3), cfg)
    want = minimize_bound_rhs(SYS, 3, OptimizerConfig(restarts=2, max_iters=5, seed=3))
    assert np.array_equal(got.minimizer.weights, want.minimizer.weights)
    assert got.value == want.value
    assert minimize_tv(i(4)).value == minimize_tv(4).value
