"""Pulse-weight schedules: rows of nonnegative weights summing to 1.

A Schedule fixes the fraction of the total evolution time spent between
consecutive pulses; a ScheduleFamily produces one row per pulse count so
limits in the pulse count make sense.  The total-variation functional
a_1 + sum |a_{i+1} - a_i| + a_n controls how far a family can stray from
mean behavior, and cohen_uniformity_probe collects the numerical evidence
for (or against) that control along a geometric grid.  Every row builder
takes a count n >= 2, since a single weight would have to be 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from os import PathLike
from typing import Callable

import numpy as np

from ._kernels import tv_value
from .errors import InvalidDensityError
from .matrixcore import json_object, require_count, require_real

WEIGHT_SUM_TOL = 1e-12
DENSITY_NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Schedule:
    """A row of n weights with 0 <= a_i < 1 and sum exactly 1 (within
    WEIGHT_SUM_TOL), n a count >= 2, since one weight would have to be 1."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        n = require_count(self.n, "n", 2)
        arr = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if arr.ndim != 1 or arr.shape[0] != n:
            raise ValueError(
                f"weights must be a length-{n} vector, got shape {arr.shape}"
            )
        # NaN makes both extremes NaN, and +-inf shows in one of them
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("weights contain non-finite entries")
        if lo < 0 or hi >= 1.0:
            raise ValueError("each weight must satisfy 0 <= a_i < 1")
        total = float(arr.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", arr)


@dataclass(frozen=True, eq=False)
class ScheduleFamily:
    """A name and a row builder n -> Schedule, nothing more: what depends
    on the rows, such as convergence_sweep's bound route, reads the rows."""

    name: str
    builder: Callable[[int], Schedule] = field(repr=False)

    def __call__(self, n: int) -> Schedule:
        s = self.builder(n)
        if not isinstance(s, Schedule) or s.n != n:
            raise ValueError(
                f"family {self.name!r} returned an invalid row for n={n}"
            )
        return s


def equidistant(n: int) -> Schedule:
    """All weights equal to 1/n."""
    n = require_count(n, "equidistant n", 2)
    return Schedule(n, np.full(n, 1.0 / n))


def uhrig(n: int) -> Schedule:
    """Panel integrals of the Uhrig density (pi/2) sin(pi x) in closed form:
    a_i = sin(pi/2n) sin(pi m_i/2n) with m_i = min(2i-1, 2(n-i)+1).  The min
    keeps the sine argument at most pi/2, so the right end has no
    cancellation and the row is an exact palindrome: the sines are taken
    for the left ceil(n/2) panels, where m_i = 2i-1, and mirrored."""
    n = require_count(n, "uhrig n", 2)
    half = math.pi / (2 * n)
    left = math.sin(half) * np.sin(np.arange(1, n + 1, 2) * half)
    return Schedule(n, np.concatenate((left, left[n // 2 - 1 :: -1])))


def from_cdf(cdf: Callable[[np.ndarray], np.ndarray], n: int) -> Schedule:
    """Weights as the increments of a CDF over n equal panels of [0, 1].

    cdf is called once, on the array of the n+1 panel edges.  The increments
    must be finite, at least -1e-12 and sum to 1 within
    DENSITY_NORMALIZATION_TOL; the row is then renormalized to sum to 1.
    """
    n = require_count(n, "from_cdf n", 2)
    edges = np.linspace(0.0, 1.0, n + 1)
    vals = np.asarray(cdf(edges), dtype=np.float64)
    if vals.shape != edges.shape:
        raise ValueError("cdf must return one value per panel edge")
    if not np.isfinite(vals).all():
        raise InvalidDensityError("cdf produced non-finite values")
    panels = np.diff(vals)
    k = int(np.argmin(panels))
    if panels[k] < -1e-12:
        raise InvalidDensityError(
            "density is negative on [%.12g, %.12g] (cdf increment %.6g)"
            % (edges[k], edges[k + 1], panels[k])
        )
    total = float(panels.sum())
    if abs(total - 1.0) > DENSITY_NORMALIZATION_TOL:
        raise InvalidDensityError(
            "density integrates to %.12g, not 1 within %g"
            % (total, DENSITY_NORMALIZATION_TOL)
        )
    return Schedule(n, np.clip(panels / total, 0.0, None))


def pathological(n: int) -> Schedule:
    """The alternating spike row: a_1 = (2n-1)/n^2, then 1/n^2, repeating,
    with a final 1/n when n is odd.

    Sums to 1 for every n >= 2 but its total variation tends to 2, so it
    deliberately fails the uniformity the density families enjoy.
    """
    n = require_count(n, "pathological n", 2)
    big = (2.0 * n - 1.0) / (n * n)
    small = 1.0 / (n * n)
    weights = np.empty(n)
    weights[0::2] = big
    weights[1::2] = small
    if n % 2 == 1:
        weights[-1] = 1.0 / n
    return Schedule(n, weights)


def pathological_row_exact(n: int) -> list[Fraction]:
    """The pathological row in exact rationals."""
    n = require_count(n, "pathological n", 2)
    big = Fraction(2 * n - 1, n * n)
    small = Fraction(1, n * n)
    row = [big if i % 2 == 0 else small for i in range(n)]
    if n % 2 == 1:
        row[-1] = Fraction(1, n)
    return row


def pathological_tv_exact(n: int) -> Fraction:
    """Exact total variation of the pathological row, summed in rationals."""
    row = pathological_row_exact(n)
    total = row[0] + row[-1]
    for a, b in zip(row, row[1:]):
        total += abs(b - a)
    return total


def tv_functional(s: Schedule) -> float:
    """a_1 + sum |a_{i+1} - a_i| + a_n."""
    if not isinstance(s, Schedule):
        raise ValueError("tv_functional expects a Schedule")
    return float(tv_value(s.weights))


def equidistant_family() -> ScheduleFamily:
    return ScheduleFamily("uniform", equidistant)


def cdf_family(
    cdf: Callable[[np.ndarray], np.ndarray], name: str = "density"
) -> ScheduleFamily:
    return ScheduleFamily(name, lambda n: from_cdf(cdf, n))


def uhrig_family() -> ScheduleFamily:
    """Density family with f(x) = (pi/2) sin(pi x)."""
    return ScheduleFamily("uhrig", uhrig)


def pathological_family() -> ScheduleFamily:
    return ScheduleFamily("pathological", pathological)


def table_density_family(xs, ys, name: str = "table") -> ScheduleFamily:
    """Density family from samples, linearly interpolated on [0, 1]; rows
    are exact panel integrals of the interpolant, whose CDF is the trapezoid
    sum up to the last knot plus one quadratic term."""
    xa = np.asarray(xs, dtype=np.float64)
    ya = np.asarray(ys, dtype=np.float64)
    if xa.ndim != 1 or xa.shape != ya.shape or xa.shape[0] < 2:
        raise ValueError("need matching 1-D sample arrays with >= 2 points")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("table samples must be finite")
    if (np.diff(xa) <= 0).any():
        raise ValueError("sample xs must be strictly increasing")
    if xa[0] != 0.0 or xa[-1] != 1.0:
        raise ValueError("sample xs must span [0, 1] exactly")
    if (ya < 0).any():
        raise InvalidDensityError("table density has negative samples")
    slope = np.diff(ya) / np.diff(xa)
    at_knot = np.concatenate(([0.0], np.cumsum(np.diff(xa) * (ya[:-1] + ya[1:]) / 2)))

    def cdf(x):
        j = np.searchsorted(xa[1:-1], x, side="right")
        h = x - xa[j]
        return at_knot[j] + h * (ya[j] + 0.5 * slope[j] * h)

    return cdf_family(cdf, name=name)


def family_by_name(name: str) -> ScheduleFamily:
    """Look up the built-in families by CLI name."""
    table = {
        "uniform": equidistant_family,
        "equidistant": equidistant_family,
        "uhrig": uhrig_family,
        "pathological": pathological_family,
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(
            f"unknown schedule family {name!r}; pick one of {sorted(table)}"
        ) from None


@dataclass(frozen=True, eq=False)
class UniformityReport:
    """Numerical evidence about a family's drift from mean behavior.

    tail_sup maps each probed k to the supremum over the N grid of
    sum_{i>=k} |a_{N,i+1} - a_{N,i}| (rows padded with zeros past N, so
    the final drop a_{N,N} is included).  Each row is differenced once,
    and its tails are pairwise sums of those |differences|: within a few
    ulps of the exact sum over the float row, but evidence, not a bound,
    since nothing rounds them outward.  tv_sequence records (N, tv), tv
    from _kernels.tv_value, and the verdict summarizes whether tv trends
    to zero.
    """

    family_name: str
    n_grid: tuple[int, ...]
    tail_sup: tuple[tuple[int, float], ...]
    tv_sequence: tuple[tuple[int, float], ...]
    verdict: str


def cohen_uniformity_probe(
    family: ScheduleFamily, n_max: int, k_grid=(1, 2, 4, 8)
) -> UniformityReport:
    """Probe the weighted-mean uniformity conditions along a geometric grid.

    n_max is a count >= 4 and k_grid an iterable of counts in [1, n_max].
    The verdict is "violates-uniform" when the total variation at the
    largest probed N stays above 0.5, and "consistent-with-uniform"
    otherwise.
    This is numerical evidence over a finite grid, not a proof.
    """
    if not isinstance(family, ScheduleFamily):
        raise ValueError("family must be a ScheduleFamily")
    try:
        entries = iter(k_grid)
    except TypeError:
        raise ValueError(
            f"k_grid must be an iterable of counts, got {type(k_grid).__name__}"
        ) from None
    ks = sorted({require_count(k, "k_grid entry", 1) for k in entries})
    if not ks:
        raise ValueError("k_grid must hold at least one count")
    n_max = require_count(n_max, "n_max", 4)
    if n_max < ks[-1]:
        raise ValueError("n_max must be at least max(k_grid)")
    grid = [4 << k for k in range(n_max.bit_length()) if 4 << k < n_max]
    grid.append(n_max)

    tail_sup = {k: 0.0 for k in ks}
    tv_seq = []
    for n in grid:
        a = family(n).weights
        steps = a[1:] - a[:-1]
        np.abs(steps, out=steps)
        # the tail at k is a_N plus steps[k - 1:]: from the largest k down,
        # each k adds the steps between it and the next larger k
        tail, end = a[-1], n - 1
        for k in reversed(ks):
            if k <= n:
                tail += np.add.reduce(steps[k - 1 : end])
                end = k - 1
                tail_sup[k] = max(tail_sup[k], float(tail))
        tv_seq.append((n, float(tv_value(a))))

    final_tv = tv_seq[-1][1]
    verdict = "violates-uniform" if final_tv > 0.5 else "consistent-with-uniform"
    return UniformityReport(
        family_name=family.name,
        n_grid=tuple(grid),
        tail_sup=tuple((k, tail_sup[k]) for k in ks),
        tv_sequence=tuple(tv_seq),
        verdict=verdict,
    )


def schedule_to_json_dict(s: Schedule) -> dict:
    return {"n": s.n, "weights": [float(w) for w in s.weights]}


def schedule_from_json_dict(obj) -> Schedule:
    json_object(obj, "schedule JSON", ("n", "weights"))
    n = require_count(obj["n"], "schedule JSON n", 2)
    weights = obj["weights"]
    if not isinstance(weights, list) or len(weights) != n:
        raise ValueError('"weights" must be a list of exactly n numbers')
    vals = [require_real(v, f"weight {k}") for k, v in enumerate(weights)]
    return Schedule(n, np.array(vals))


def save_schedule(s: Schedule, path: str | PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_json_dict(s), fh, sort_keys=True)
        fh.write("\n")


def load_schedule(path: str | PathLike) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_json_dict(json.load(fh))
