"""Schedule optimization over the probability simplex.

minimize_tv returns the minimizer of the total-variation functional in
closed form: the equal-weights row, with value 2/n.  minimize_bound_rhs
minimizes the per-schedule error bound of a concrete pulse system by
projected descent with diminishing steps from a deterministic barycenter
start plus seeded random restarts, all run in lockstep on one (R, n)
array.  Both certify the result against an exhaustive simplex-lattice
search when the lattice is small enough.  Objectives score an (m, n)
stack of rows in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import simplex_project, tv_value
from .errors import TooLargeInstanceError
from .evolution import PulseSystem, _schedule_series_terms
from .schedules import Schedule, equidistant

LATTICE_LIMIT = 500_000
STEP_SCALE = 0.25
UNIFORM_PROXIMITY_TOL = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of both minimizers.

    restarts, max_iters, step_tol and seed drive the descent of
    minimize_bound_rhs: the barycenter start plus restarts random rows
    drawn from seed, each stopped after max_iters iterations or once a
    step moves less than step_tol.  minimize_tv is a closed form and
    reads only grid_resolution, the lattice spacing that both
    minimizers certify against.
    """

    restarts: int = 12
    max_iters: int = 250
    step_tol: float = 1e-12
    grid_resolution: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError("%s must be an integer (got %r)" % (name, value))
        if self.restarts < 0 or self.max_iters < 1 or self.seed < 0:
            raise ValueError("restarts and seed must be >= 0 and max_iters >= 1")
        if not (0 < self.grid_resolution <= 0.5):
            raise ValueError("grid_resolution must be in (0, 0.5]")
        _lattice_steps(self.grid_resolution)
        if not (math.isfinite(self.step_tol) and self.step_tol >= 0):
            raise ValueError("step_tol must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
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


def _lattice_steps(resolution: float) -> int:
    """1/resolution as an integer, refusing spacings that do not divide 1."""
    resolution = float(resolution)
    if not math.isfinite(resolution) or resolution <= 0.0:
        raise ValueError(
            "resolution must be a positive finite number (got %r)"
            % (resolution,)
        )
    steps = round(1.0 / resolution)
    if steps < 2 or abs(steps * resolution - 1.0) > 1e-9:
        raise ValueError(
            "resolution must divide 1 (got %r); try 0.05, 0.02 or 0.01"
            % (resolution,)
        )
    return steps


def _lattice_chunks(n: int, resolution: float):
    """Yield the simplex lattice as (m, n) arrays of weight rows, one chunk
    per leading count, with rows in lexicographic order throughout.

    Each chunk holds the compositions of the remaining count built column
    by column: every partial row with r left repeats r + 1 times, once
    per next count 0..r.  Chunking, and keeping the integer counts as
    separate columns, holds memory near one float copy of the largest
    chunk.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("n must be an integer >= 2")
    steps = _lattice_steps(resolution)
    size = math.comb(steps + n - 1, n - 1)
    if size > LATTICE_LIMIT:
        raise TooLargeInstanceError(size, LATTICE_LIMIT)
    for lead in range(steps + 1):
        cols = [np.array([lead], dtype=np.int32)]
        left = np.array([steps - lead], dtype=np.int32)
        for _ in range(n - 2):
            reps = left + 1
            first = np.repeat(np.cumsum(reps, dtype=np.int32) - reps, reps)
            nxt = np.arange(first.shape[0], dtype=np.int32) - first
            cols = [np.repeat(c, reps) for c in cols] + [nxt]
            left = np.repeat(left, reps) - nxt
        cols.append(left)
        rows = np.empty((left.shape[0], n))
        for j, c in enumerate(cols):
            np.divide(c, steps, out=rows[:, j])
        yield rows


def simplex_lattice(n: int, resolution: float):
    """Yield every weight row on the simplex lattice with the given spacing,
    in lexicographic order.

    The spacing must divide 1; the lattice has binom(R + n - 1, n - 1)
    points for R = 1/resolution and is refused above LATTICE_LIMIT.
    """
    for chunk in _lattice_chunks(n, resolution):
        yield from chunk


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
    """Grid certification: no lattice point beats the reported value by
    more than a lattice-scaled slack.  objective scores a stack of rows."""
    try:
        grid_v = min(
            float(objective(rows).min()) for rows in _lattice_chunks(n, resolution)
        )
    except TooLargeInstanceError:
        return False
    slack = 4.0 * resolution * max(1.0, abs(value))
    return grid_v >= value - slack


def _starts(n: int, cfg: OptimizerConfig) -> np.ndarray:
    """The barycenter followed by cfg.restarts seeded Dirichlet rows."""
    rng = np.random.default_rng(cfg.seed)
    starts = [np.full(n, 1.0 / n)]
    starts += [rng.dirichlet(np.ones(n)) for _ in range(cfg.restarts)]
    return np.stack(starts)


def minimize_tv(n: int, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Minimize the total-variation functional over valid n-weight rows.

    The minimizer is the equal row, in closed form.  With a_0 = a_{n+1} = 0,
    TV(a) = sum_{i=0..n} |a_{i+1} - a_i| is the length of a path from 0 up
    to max a_i and back, so TV(a) >= 2 max a_i >= 2/n, and equality needs
    every a_i = 1/n.  Only config.grid_resolution is read, for the lattice
    certification.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("n must be an integer >= 2")
    cfg = config or OptimizerConfig()
    row = equidistant(int(n))
    value = float(tv_value(row.weights))
    return OptimizationResult(
        minimizer=row,
        value=value,
        iterations_used=0,
        certified_by_grid=_certify(row.n, cfg.grid_resolution, tv_value, value),
    )


def _descend_fd(objective, starts, max_iters, step_tol):
    """Projected descent along central finite-difference gradients, run in
    lockstep on every row of starts.

    Each iteration scores all live rows shifted by +-h along every axis in
    one objective call and the stepped rows in another.  A row stops when
    its gradient vanishes or its step moves less than step_tol.  Returns
    (best_row, best_value, total_iterations); ties go to the earliest
    start, then the earliest iterate.
    """
    m, n = starts.shape
    h = 1e-7
    w = _clip_row(simplex_project(starts))
    best = w.copy()
    best_v = objective(w)
    live = np.arange(m)
    shifts = h * np.eye(n)
    total = 0
    for k in range(1, max_iters + 1):
        if live.size == 0:
            break
        total += live.size
        bumped = np.concatenate(
            [w[:, None, :] + shifts, w[:, None, :] - shifts]
        ).reshape(-1, n)
        plus, minus = objective(bumped).reshape(2, live.size, n)
        grad = (plus - minus) / (2 * h)
        # row-wise dot products round as np.linalg.norm does on one row
        norm = np.sqrt(grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
        moving = norm != 0.0
        w, grad, norm, live = w[moving], grad[moving], norm[moving], live[moving]
        step = STEP_SCALE / (k * norm)
        w_new = _clip_row(simplex_project(w - step[:, None] * grad))
        v_new = objective(w_new)
        better = v_new < best_v[live]
        best_v[live[better]] = v_new[better]
        best[live[better]] = w_new[better]
        going = ~(np.max(np.abs(w_new - w), axis=1) < step_tol)
        w = w_new[going]
        live = live[going]
    i = int(np.argmin(best_v))
    return best[i], float(best_v[i]), total


def minimize_bound_rhs(
    sys: PulseSystem,
    n: int,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Minimize the per-schedule error bound over valid n-weight rows.

    The objective is total_rhs of schedule_bound_rhs, so the generator
    must be a coboundary.  Descent uses central finite differences for
    the subgradient (the objective is piecewise smooth in the weights).
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("n must be an integer >= 2")
    cfg = config or OptimizerConfig()
    n = int(n)
    sys._require_coboundary()
    scale = abs(sys.t) * sys.potential_norm_upper

    def objective(w: np.ndarray) -> np.ndarray:
        rows = _clip_row(np.asarray(w, dtype=np.float64))
        rows = rows / rows.sum(axis=1, keepdims=True)
        return _schedule_series_terms(rows, scale)[2]

    best_w, best_v, total_iters = _descend_fd(
        objective, _starts(n, cfg), cfg.max_iters, cfg.step_tol
    )
    best_w, best_v = _canonical_orientation(
        best_w, best_v, objective, max(cfg.step_tol, 1e-15)
    )
    certified = _certify(n, cfg.grid_resolution, objective, best_v)
    return OptimizationResult(
        minimizer=Schedule(n, _clip_row(best_w)),
        value=float(best_v),
        iterations_used=total_iters,
        certified_by_grid=certified,
    )
