"""Schedule optimization over the probability simplex.

minimize_tv returns the minimizer of the total-variation functional in
closed form: the equal-weights row, with value 2/n, whose proof stands
in for a lattice search.  minimize_bound_rhs minimizes the per-schedule
error bound of a concrete pulse system by projected descent with
diminishing steps from a deterministic barycenter start plus seeded
random restarts, all run in lockstep on one (R, n) array, and certifies
its result against an exhaustive simplex-lattice search when the
lattice is small enough.  Objectives score an (m, n) stack of rows in
one call, and a row scores the same bits in any stack.  So each descent
iteration is one call, scoring its finite-difference bumps with the
previous iteration's steps, and certification scores the lattice in
groups of up to CERTIFY_ROWS rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import simplex_project, tv_value
from .errors import TooLargeInstanceError
from .evolution import PulseSystem, _schedule_series_terms
from .matrixcore import require_count, require_real
from .schedules import Schedule, equidistant

LATTICE_LIMIT = 500_000
# Rows per objective call in lattice certification.  The bound objective
# peaks at about 15 float64 per weight per row, so a group of 2^11 rows
# holds about 240 n KiB; its per-row cost is already flat from about
# 1,000 rows, and the default n = 3 lattice (1,326 rows) is one call.
CERTIFY_ROWS = 2**11
STEP_SCALE = 0.25
STEP_TOL = 1e-12
UNIFORM_PROXIMITY_TOL = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of both minimizers.

    restarts, max_iters and seed drive the descent of minimize_bound_rhs:
    the barycenter start plus restarts random rows drawn from seed, each
    stopped after max_iters iterations or once a step moves less than
    STEP_TOL.  grid_resolution is the spacing of the certifying lattice,
    by the rule of _lattice_size.  minimize_tv reads only grid_resolution:
    its result is certified wherever that lattice fits within
    LATTICE_LIMIT.  restarts and seed are counts >= 0, max_iters one >= 1.
    """

    restarts: int = 12
    max_iters: int = 250
    grid_resolution: float = 0.02
    seed: int = 0

    def __post_init__(self):
        require_count(self.restarts, "restarts", 0)
        require_count(self.max_iters, "max_iters", 1)
        require_count(self.seed, "seed", 0)
        _lattice_size(2, self.grid_resolution)


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """certified_by_grid: no row of the lattice at grid_resolution beats
    value by more than 4 grid_resolution max(1, |value|), and that lattice
    fits within LATTICE_LIMIT.  It does not prove a global optimum."""

    minimizer: Schedule
    value: float
    iterations_used: int
    certified_by_grid: bool

    @property
    def max_deviation_from_uniform(self) -> float:
        """Sup-norm distance of the minimizer from the even split."""
        w = self.minimizer.weights
        return float(np.max(np.abs(w - 1.0 / w.shape[0])))

    @property
    def near_uniform(self) -> bool:
        """Whether the minimizer sits within UNIFORM_PROXIMITY_TOL of the
        even split.  The bound objective front-loads an exponential
        prefactor on every step but the last, so at long pulse spacings
        its true minimizer drifts away from uniform; this flag makes that
        visible instead of assuming the even split always wins."""
        return self.max_deviation_from_uniform <= UNIFORM_PROXIMITY_TOL


def _clip_row(w: np.ndarray) -> np.ndarray:
    return np.minimum(w, 1.0 - 1e-12)


def _canonical_orientation(w, value, objective, tie_tol):
    """Break orientation ties deterministically: when the reversed row is
    as good (within tie_tol), keep the lexicographically smaller one.
    objective scores a stack of rows."""
    rev = w[::-1].copy()
    if np.array_equal(rev, w):
        return w, value
    rev_value = float(objective(rev[None, :])[0])
    if rev_value < value - tie_tol:
        return rev, rev_value
    if abs(rev_value - value) <= tie_tol:
        for a, b in zip(rev, w):
            if a != b:
                return (rev, rev_value) if a < b else (w, value)
    return w, value


def _lattice_size(n: int, resolution: float) -> tuple[int, int]:
    """(steps, points) of the n-weight simplex lattice, for a count n >= 2:
    steps = 1/resolution and points = binom(steps + n - 1, n - 1).  The one
    rule for a spacing: positive, not subnormal (1/resolution may overflow)
    and dividing 1 into steps >= 2 parts within 1e-9."""
    n = require_count(n, "n", 2)
    resolution = require_real(resolution, "resolution")
    if not resolution >= np.finfo(np.float64).tiny:
        raise ValueError(
            f"resolution must be positive and not subnormal, got {resolution!r}"
        )
    steps = round(1.0 / resolution)
    if steps < 2 or abs(steps * resolution - 1.0) > 1e-9:
        raise ValueError(
            "resolution must divide 1 (got %r); try 0.05, 0.02 or 0.01"
            % (resolution,)
        )
    return steps, math.comb(steps + n - 1, n - 1)


def _lattice_groups(n: int, resolution: float):
    """Yield the simplex lattice as (m, n) arrays of weight rows, in
    lexicographic order throughout, refusing lattices above LATTICE_LIMIT.

    A group is a run of whole leading counts [lo, hi): as many as fit
    within CERTIFY_ROWS rows, or one alone when its rows exceed that.
    Lead k has binom(steps - k + n - 2, n - 2) rows, so the runs are found
    before any array is built.  Rows are built column by column: every
    partial row with r left repeats r + 1 times, once per next count
    0..r.  A group thus bounds the objective's (m, n) temporaries, and
    the whole lattice is never held at once.
    """
    steps, size = _lattice_size(n, resolution)
    if size > LATTICE_LIMIT:
        raise TooLargeInstanceError(size, LATTICE_LIMIT)
    sizes = [math.comb(steps - k + n - 2, n - 2) for k in range(steps + 1)]
    lo = 0
    while lo <= steps:
        hi, m = lo + 1, sizes[lo]
        while hi <= steps and m + sizes[hi] <= CERTIFY_ROWS:
            m += sizes[hi]
            hi += 1
        cols = [np.arange(lo, hi, dtype=np.int32)]
        left = steps - cols[0]
        for _ in range(n - 2):
            reps = left + 1
            first = np.repeat(np.cumsum(reps, dtype=np.int32) - reps, reps)
            nxt = np.arange(first.shape[0], dtype=np.int32) - first
            cols = [np.repeat(c, reps) for c in cols] + [nxt]
            left = np.repeat(left, reps) - nxt
        cols.append(left)
        rows = np.empty((m, n))
        for j, c in enumerate(cols):
            np.divide(c, steps, out=rows[:, j])
        yield rows
        lo = hi


def simplex_lattice(n: int, resolution: float):
    """Yield every weight row on the simplex lattice with the given spacing,
    in lexicographic order.

    The spacing must divide 1; the lattice has binom(R + n - 1, n - 1)
    points for R = 1/resolution and is refused above LATTICE_LIMIT.
    """
    for rows in _lattice_groups(n, resolution):
        yield from rows


def brute_force_simplex_grid(n: int, resolution: float, objective):
    """Exhaustive lattice minimization of a scalar objective over the simplex.

    Returns (weights, value); ties go to the lexicographically smallest
    row so the result is deterministic.
    """
    best_w = None
    best_v = math.inf
    # rows arrive in lexicographic order, so a strict < keeps the
    # smallest of tied rows
    for w in simplex_lattice(n, resolution):
        v = float(objective(w))
        if v < best_v:
            best_v = v
            best_w = w.copy()
    return best_w, best_v


def _certify(n, resolution, objective, value) -> bool:
    """Whether no lattice row beats value by more than the slack
    4 resolution max(1, |value|); False for a lattice above LATTICE_LIMIT.
    It does not prove a global optimum.  objective scores a stack of rows,
    once per group of _lattice_groups."""
    if _lattice_size(n, resolution)[1] > LATTICE_LIMIT:
        return False
    grid_v = min(
        float(objective(rows).min()) for rows in _lattice_groups(n, resolution)
    )
    slack = 4.0 * resolution * max(1.0, abs(value))
    return grid_v >= value - slack


def _starts(n: int, cfg: OptimizerConfig) -> np.ndarray:
    """The barycenter followed by cfg.restarts seeded Dirichlet rows."""
    rng = np.random.default_rng(cfg.seed)
    starts = [np.full(n, 1.0 / n)]
    starts += [rng.dirichlet(np.ones(n)) for _ in range(cfg.restarts)]
    return np.stack(starts)


def minimize_tv(n: int, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Minimize the total-variation functional over valid n-weight rows,
    for a count n >= 2.

    The minimizer is the equal row, in closed form.  With a_0 = a_{n+1} = 0,
    TV(a) = sum_{i=0..n} |a_{i+1} - a_i| is the length of a path from 0 up
    to max a_i and back, so TV(a) >= 2 max a_i >= 2/n, and equality needs
    every a_i = 1/n.

    So no lattice scan runs: certified_by_grid is whether the lattice at
    config.grid_resolution fits within LATTICE_LIMIT, the verdict of
    _certify(n, resolution, tv_value, value).  Every lattice row has
    TV >= 2/n, tv_value rounds by O(n eps), and a lattice that fits has
    resolution >= 1/499,999 (at n = 2), so _certify's slack
    4 resolution max(1, value) >= 8e-6 always covers the rounding.
    """
    cfg = config or OptimizerConfig()
    _steps, size = _lattice_size(n, cfg.grid_resolution)
    row = equidistant(n)
    return OptimizationResult(
        minimizer=row,
        value=float(tv_value(row.weights)),
        iterations_used=0,
        certified_by_grid=size <= LATTICE_LIMIT,
    )


def _descend_fd(objective, starts, max_iters, step_tol):
    """Projected descent along central finite-difference gradients, run in
    lockstep on every row of starts, with one objective call per iteration.

    Iteration k scores every live row shifted by +-h along every axis
    together with the rows iteration k - 1 stepped to (the first call
    scores the starts), and one last call scores the final steps.  A
    stepped row's value only updates the record of its start, never the
    next step, and a row scores the same in any stack, so this deferral
    leaves every bit of the result as a separate call per row set would.
    The rows of a call are written into one buffer allocated up front,
    and a row set is compacted only when some row leaves it.

    A row stops when its step moves less than step_tol, or when its
    gradient norm is zero or not finite: where the objective overflows,
    (+-h values inf - inf) or the squares of a finite gradient do, the
    row stops where it stands, and no overflow or invalid-value warning
    escapes.  Returns (best_row, best_value, total_iterations); ties go
    to the earliest start, then the earliest iterate.
    """
    m, n = starts.shape
    h = 1e-7
    w = _clip_row(simplex_project(starts))
    best = w.copy()
    best_v = np.full(m, np.inf)
    live = np.arange(m)
    # rows scored with the next call, and the starts they belong to
    pending, owner = w, live
    # w - h e_i rounds as w + (-h e_i) does
    shifts = (h * np.eye(n)) * np.array([1.0, -1.0])[:, None, None, None]
    # the +h bumps, the -h bumps, then the pending rows of one call
    buf = np.empty(((2 * n + 1) * m, n))
    total = 0

    def record(values, rows, idx):
        better = values < best_v[idx]
        idx = idx[better]
        best_v[idx] = values[better]
        best[idx] = rows[better]

    for k in range(1, max_iters + 1):
        if live.size == 0:
            break
        total += live.size
        nb = 2 * n * live.size
        np.add(w[:, None, :], shifts, out=buf[:nb].reshape(2, live.size, n, n))
        rows = buf[: nb + pending.shape[0]]
        rows[nb:] = pending
        values = objective(rows)
        record(values[nb:], pending, owner)
        plus, minus = values[:nb].reshape(2, live.size, n)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = (plus - minus) / (2 * h)
            # row-wise dot products round as np.linalg.norm does on one row
            norm = np.sqrt(grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
        moving = (norm > 0.0) & (norm < np.inf)
        if not moving.all():
            w, grad, norm, live = w[moving], grad[moving], norm[moving], live[moving]
        step = STEP_SCALE / (k * norm)
        w_new = _clip_row(simplex_project(w - step[:, None] * grad))
        pending, owner = w_new, live
        stopped = np.maximum.reduce(np.abs(w_new - w), axis=1) < step_tol
        if stopped.any():
            w_new, live = w_new[~stopped], live[~stopped]
        w = w_new
    if pending.shape[0]:
        record(objective(pending), pending, owner)
    i = int(np.argmin(best_v))
    return best[i], float(best_v[i]), total


def minimize_bound_rhs(
    sys: PulseSystem,
    n: int,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Minimize the per-schedule error bound over valid n-weight rows.

    The objective is total_rhs of schedule_bound_rhs, so the generator
    must be a coboundary, and n is a count >= 2.  Descent uses central
    finite differences for the subgradient (the objective is piecewise
    smooth in the weights).
    """
    n = require_count(n, "n", 2)
    cfg = config or OptimizerConfig()
    sys._require_coboundary()
    scale = abs(sys.t) * sys.potential_norm

    def objective(w: np.ndarray) -> np.ndarray:
        rows = _clip_row(np.asarray(w, dtype=np.float64))
        rows /= np.add.reduce(rows, axis=1, keepdims=True)
        return _schedule_series_terms(rows, scale)[2]

    best_w, best_v, total_iters = _descend_fd(
        objective, _starts(n, cfg), cfg.max_iters, STEP_TOL
    )
    best_w, best_v = _canonical_orientation(best_w, best_v, objective, STEP_TOL)
    certified = _certify(n, cfg.grid_resolution, objective, best_v)
    return OptimizationResult(
        minimizer=Schedule(n, _clip_row(best_w)),
        value=float(best_v),
        iterations_used=total_iters,
        certified_by_grid=certified,
    )
