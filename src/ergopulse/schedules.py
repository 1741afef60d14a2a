"""Pulse-weight schedules: rows of nonnegative weights summing to 1.

A Schedule fixes the fraction of the total evolution time spent between
consecutive pulses; a ScheduleFamily produces one row per pulse count so
limits in the pulse count make sense.  The total-variation functional
a_1 + sum |a_{i+1} - a_i| + a_n controls how far a family can stray from
mean behavior, and cohen_uniformity_probe collects the numerical evidence
for (or against) that control along a geometric grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from os import PathLike
from typing import Callable

import numpy as np

from .errors import InvalidDensityError

WEIGHT_SUM_TOL = 1e-12
DENSITY_NORMALIZATION_TOL = 1e-6
# Gauss-Legendre nodes per panel in from_density.
QUAD_POINTS = 64


@dataclass(frozen=True, eq=False)
class Schedule:
    """A row of n weights with 0 <= a_i < 1 and sum exactly 1 (within
    WEIGHT_SUM_TOL)."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError("n must be a positive integer")
        arr = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if arr.ndim != 1 or arr.shape[0] != self.n:
            raise ValueError(
                f"weights must be a length-{self.n} vector, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("weights contain non-finite entries")
        if (arr < 0).any() or (arr >= 1.0).any():
            raise ValueError("each weight must satisfy 0 <= a_i < 1")
        total = float(arr.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "weights", arr)


@dataclass(frozen=True, eq=False)
class ScheduleFamily:
    """A named rule n -> Schedule.

    kind is one of "equidistant", "density", "pathological", "custom" and
    records how rows are generated, which downstream reporting uses.
    """

    name: str
    kind: str
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
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(
            "equidistant needs n >= 2: a single weight would have to be 1, "
            "which is not a valid schedule entry"
        )
    return Schedule(int(n), np.full(int(n), 1.0 / n))


def from_density(f: Callable[[np.ndarray], np.ndarray], n: int) -> Schedule:
    """Weights as panel integrals of a probability density on [0, 1].

    Each of the n equal panels is integrated with QUAD_POINTS-node
    Gauss-Legendre quadrature.  The density must be nonnegative at every
    sampled node and integrate to 1 within DENSITY_NORMALIZATION_TOL; the
    row is then renormalized so the weights sum to 1 exactly.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("from_density needs n >= 2")
    nodes, quad_w = np.polynomial.legendre.leggauss(QUAD_POINTS)
    edges = np.linspace(0.0, 1.0, int(n) + 1)
    half = np.diff(edges) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    xs = centers[:, None] + half[:, None] * nodes[None, :]
    flat = xs.reshape(-1)
    try:
        vals = np.asarray(f(flat), dtype=np.float64)
        if vals.shape != flat.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in flat], dtype=np.float64)
    if not np.isfinite(vals).all():
        raise InvalidDensityError("density produced non-finite samples")
    if vals.min() < -1e-12:
        bad = flat[int(np.argmin(vals))]
        raise InvalidDensityError(
            "density is negative at x=%.12g (value %.6g)" % (bad, vals.min())
        )
    panels = (vals.reshape(int(n), -1) * quad_w[None, :]).sum(axis=1) * half
    total = float(panels.sum())
    if abs(total - 1.0) > DENSITY_NORMALIZATION_TOL:
        raise InvalidDensityError(
            "density integrates to %.12g, not 1 within %g"
            % (total, DENSITY_NORMALIZATION_TOL)
        )
    return Schedule(int(n), np.clip(panels / total, 0.0, None))


def pathological(n: int) -> Schedule:
    """The alternating spike row: a_1 = (2n-1)/n^2, then 1/n^2, repeating,
    with a final 1/n when n is odd.

    Sums to 1 for every n >= 2 but its total variation tends to 2, so it
    deliberately fails the uniformity the density families enjoy.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("pathological needs n >= 2")
    n = int(n)
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
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("pathological needs n >= 2")
    n = int(n)
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
    w = s.weights
    return float(w[0] + np.abs(np.diff(w)).sum() + w[-1])


def equidistant_family() -> ScheduleFamily:
    return ScheduleFamily("uniform", "equidistant", equidistant)


def density_family(
    f: Callable[[np.ndarray], np.ndarray], name: str = "density"
) -> ScheduleFamily:
    return ScheduleFamily(name, "density", lambda n: from_density(f, n))


def uhrig_family() -> ScheduleFamily:
    """Density family with f(x) = (pi/2) sin(pi x)."""
    return density_family(lambda x: 0.5 * np.pi * np.sin(np.pi * x), name="uhrig")


def pathological_family() -> ScheduleFamily:
    return ScheduleFamily("pathological", "pathological", pathological)


def table_density_family(xs, ys, name: str = "table") -> ScheduleFamily:
    """Density family from samples, linearly interpolated on [0, 1]."""
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
    return density_family(lambda x: np.interp(x, xa, ya), name=name)


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
    the final drop a_{N,N} is included).  tv_sequence records (N, tv) and
    the verdict summarizes whether tv trends to zero.
    """

    family_name: str
    n_grid: tuple[int, ...]
    tail_sup: tuple[tuple[int, float], ...]
    tv_sequence: tuple[tuple[int, float], ...]
    verdict: str


def _padded_diffs(weights: np.ndarray) -> np.ndarray:
    """|a_{i+1} - a_i| for i = 1..N with a_{N+1} = 0."""
    padded = np.append(weights, 0.0)
    return np.abs(np.diff(padded))


def cohen_uniformity_probe(
    family: ScheduleFamily, n_max: int, k_grid=(1, 2, 4, 8)
) -> UniformityReport:
    """Probe the weighted-mean uniformity conditions along a geometric grid.

    The verdict is "violates-uniform" when the total variation at the
    largest probed N stays above 0.5, and "consistent-with-uniform"
    otherwise.  This is numerical evidence over a finite grid, not a proof.
    """
    if not isinstance(family, ScheduleFamily):
        raise ValueError("family must be a ScheduleFamily")
    ks = sorted({int(k) for k in k_grid})
    if not ks or ks[0] < 1:
        raise ValueError("k_grid must hold positive integers")
    if not isinstance(n_max, (int, np.integer)) or n_max < 4:
        raise ValueError("n_max must be an integer >= 4")
    if n_max < ks[-1]:
        raise ValueError("n_max must be at least max(k_grid)")
    grid = []
    n = 4
    while n < n_max:
        grid.append(n)
        n *= 2
    grid.append(int(n_max))

    tail_sup = {k: 0.0 for k in ks}
    tv_seq = []
    for n in grid:
        row = family(n)
        diffs = _padded_diffs(row.weights)
        suffix = np.concatenate([np.cumsum(diffs[::-1])[::-1], [0.0]])
        for k in ks:
            tail = float(suffix[k - 1]) if k <= n else 0.0
            if tail > tail_sup[k]:
                tail_sup[k] = tail
        tv_seq.append((n, tv_functional(row)))

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
    if not isinstance(obj, dict):
        raise ValueError("schedule JSON must be an object")
    unknown = set(obj) - {"n", "weights"}
    if unknown:
        raise ValueError(f"schedule JSON has unknown keys {sorted(unknown)}")
    if "n" not in obj or "weights" not in obj:
        raise ValueError('schedule JSON needs "n" and "weights"')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError('"n" must be an integer')
    weights = obj["weights"]
    if not isinstance(weights, list) or len(weights) != n:
        raise ValueError('"weights" must be a list of exactly n numbers')
    vals = []
    for k, v in enumerate(weights):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"weight {k} must be a number, got {v!r}")
        if not math.isfinite(float(v)):
            raise ValueError(f"weight {k} must be finite")
        vals.append(float(v))
    return Schedule(n, np.array(vals))


def save_schedule(s: Schedule, path: str | PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_json_dict(s), fh, sort_keys=True)
        fh.write("\n")


def load_schedule(path: str | PathLike) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_json_dict(json.load(fh))
