"""Pulse-interleaved product formulas and their error bounds.

A PulseSystem holds a pulse unitary u, a generator X, and a time t.  The
controlled evolution interleaves u with short exponentials of X weighted
by a schedule; as the pulse count grows it approaches e^{P(X) t} u^N with
P the commutant projection.  This module computes the product, the limit,
the measured distance between them, and two rigorous upper bounds: a pair
of constants (m_const, m_prime_const) giving a 1/N rate for equidistant
rows, and a per-schedule right-hand side built from a defect series plus
a total-variation term.

Both bounds read the system only through ||X||, ||P(X)|| and ||Y||, each
derived once per system (one yosida_split) and rounded up by d machine
epsilons for the error of the SVD; the rate constants are rounded up
from there.  A bound that overflows is +inf.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from numbers import Complex
from os import PathLike

import numpy as np

from . import matrixcore
from ._kernels import chain_product, tv_value
from .ergodic import (
    DEFAULT_CLUSTER_TOL,
    UnitarySpectrum,
    YosidaSplit,
    _spectrum,
    is_coboundary_norm,
    require_coboundary_norm,
    yosida_split,
)
from .schedules import Schedule, ScheduleFamily


@dataclass(frozen=True, eq=False)
class PulseSystem:
    """Pulse unitary u, generator X, and evolution time t.

    For Hamiltonian control pass X = -i H; t is any finite complex number
    but a bool.  u and X are stored as copies, and everything derived
    from (u, X, t) is computed once, on first use, and cached on the
    instance: the spectrum of u, the commutant part P(X), the potential
    Y of X - P(X), their norms, the limit factor e^{P(X) t}, the rate
    constants of the bounds (_rate_constants), and the ladder of
    squarings u^(2^i) that every u^n is read from (_ladder), about
    log2(max n) d x d matrices for the largest count n asked for so far.
    Every array held is read-only.  The norms are rounded up, so the
    bounds built from them stay upper bounds.
    """

    u: np.ndarray
    generator: np.ndarray
    t: complex = 1.0

    def __post_init__(self):
        u, x = matrixcore.require_pair(self.u, self.generator, "generator")
        u, x = u.copy(), x.copy()
        if isinstance(self.t, bool) or not isinstance(self.t, Complex):
            raise ValueError(f"t must be a complex number, got {self.t!r}")
        t = complex(
            matrixcore.require_real(self.t.real, "t.real"),
            matrixcore.require_real(self.t.imag, "t.imag"),
        )
        # the cached quantities below assume u and X never change
        _read_only(u, x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "generator", x)
        object.__setattr__(self, "t", t)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @cached_property
    def spec(self) -> UnitarySpectrum:
        """Clustered spectrum of u, which __post_init__ checked unitary."""
        spec = _spectrum(self.u, DEFAULT_CLUSTER_TOL)
        _read_only(
            spec.cluster_phases, spec.basis, spec.col_phases, spec.col_labels
        )
        return spec

    @cached_property
    def _split(self) -> YosidaSplit:
        split = yosida_split(self.spec, self.generator)
        _read_only(split.fixed_part, split.coboundary_part, split.potential)
        return split

    @property
    def fixed_part(self) -> np.ndarray:
        """P(X), the projection of the generator onto the commutant of u."""
        return self._split.fixed_part

    @property
    def potential(self) -> np.ndarray:
        """The potential Y with Y - u Y u* = X - P(X)."""
        return self._split.potential

    def _norm_upper(self, m: np.ndarray) -> float:
        """op_norm(m) rounded up by the SVD's relative error, taken as d
        machine epsilons (the SVD noise level numpy.linalg.matrix_rank
        assumes), so that no bound reads a norm below the exact one."""
        return float(matrixcore.op_norm(m)) * (1.0 + self.dim * math.ulp(1.0))

    @cached_property
    def generator_norm(self) -> float:
        return self._norm_upper(self.generator)

    @cached_property
    def fixed_norm(self) -> float:
        return self._norm_upper(self.fixed_part)

    @cached_property
    def potential_norm(self) -> float:
        return self._norm_upper(self.potential)

    @cached_property
    def _rates(self) -> tuple[float, float]:
        """(m, m'), _rate_constants of the cached norms."""
        return _rate_constants(self)

    @cached_property
    def limit_factor(self) -> np.ndarray:
        """e^{P(X) t}, the factor in front of u^n in the limit object, by
        matrixcore.expm's single form: scaling and squaring around its
        Taylor sum, numpy alone.  ValueError if it overflows."""
        return _read_only(matrixcore.expm(self.fixed_part * self.t))

    def _ladder(self, n: int) -> tuple[np.ndarray, ...]:
        """The squarings u^(2^i) for i < n.bit_length(), a count n >= 1,
        from the cached ladder.  A ladder too short for n is squared up
        to length and cached as a new tuple, never extended in place, so
        a ladder once returned never changes."""
        ladder = self.__dict__.get("_ladder_cache", (self.u,))
        if len(ladder) < n.bit_length():
            rungs = list(ladder)
            while len(rungs) < n.bit_length():
                rungs.append(_read_only(np.matmul(rungs[-1], rungs[-1])))
            ladder = self.__dict__["_ladder_cache"] = tuple(rungs)
        return ladder

    @property
    def is_coboundary(self) -> bool:
        """Whether X = Y - u Y u*, by ergodic.is_coboundary_norm."""
        return is_coboundary_norm(self.fixed_norm, self.generator_norm)

    def _require_coboundary(self) -> None:
        require_coboundary_norm(
            self.fixed_norm,
            self.generator_norm,
            hint="split the generator with yosida_split and bound the "
            "commutant part separately",
        )


def _require_kind(value, kind: type, name: str) -> None:
    """ValueError naming name unless value is an instance of kind, so no
    attribute of a wrong object is ever read."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}")


def _read_only(*arrays: np.ndarray) -> np.ndarray:
    """Mark each array read-only; returns the last."""
    for a in arrays:
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BoundBreakdown:
    """Components of an error bound.

    m_const and m_prime_const are schedule-independent rate constants for
    equidistant rows (error <= m_prime_const / N, with m_const the
    coboundary-only part).  tv_term and c_series_sum are the two summands
    of the per-schedule bound; total_rhs is what upper-bounds the measured
    error.  Fields that do not apply to the route that produced the
    breakdown are NaN.
    """

    m_const: float
    m_prime_const: float
    tv_term: float
    c_series_sum: float
    total_rhs: float


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Measured control errors over a grid of pulse counts.

    window flags the rows used for the log-log slope fit (the upper half
    of the grid).  fitted_slope is None when any windowed error vanishes.
    bounds carries one BoundBreakdown per row when a bound route applies:
    "schedule" for coboundary generators, "constants" for a general
    generator where every row is the equal split (each weight == 1.0 / n,
    as equidistant builds it; m_prime_const / N rounded up), else None.
    """

    family_name: str
    n_values: tuple[int, ...]
    errors: tuple[float, ...]
    window: tuple[bool, ...]
    fitted_slope: float | None
    bound_route: str | None
    bounds: tuple[BoundBreakdown, ...] | None


def pulse_product(sys: PulseSystem, s: Schedule) -> np.ndarray:
    """The interleaved product u e^{a_1 X t} u e^{a_2 X t} ... u e^{a_n X t},
    multiplied left to right.  The factors of the row's distinct weights
    are one matrixcore.expm call, and kernels.chain_product multiplies
    the row out; their docstrings give the method, its cost and its
    error.  The factors depend on the row alone: no two rows share an
    expm call, whose rounding may follow a slice's place in it.

    ValueError if a factor or a product of factors overflows, which the
    tree's products can do where the exact product is finite: u = diag(1,
    -1) and X = [[0, 2000], [2000, 0]] give u e^{aX} u e^{aX} = I, yet at
    a = 1/4 the matmul of that pair adds terms of size about e^{1000}/4,
    past the float range."""
    _require_kind(sys, PulseSystem, "sys")
    _require_kind(s, Schedule, "s")
    values = np.unique(s.weights)
    factors = matrixcore.expm(sys.generator, values * sys.t)
    # searchsorted rather than return_inverse: np.unique's inverse holds
    # several N-length temporaries at once
    p = chain_product(sys.u, factors, np.searchsorted(values, s.weights))
    if not np.isfinite(p).all():
        raise ValueError(
            "the pulse product overflows: a product of its factors came "
            "out non-finite"
        )
    return p


def _powers(sys: PulseSystem, ns) -> list[np.ndarray]:
    """[u^n for n in ns], counts n >= 1, from the system's cached ladder
    of squarings u^(2^i) (PulseSystem._ladder).  Each u^n takes the
    products of np.linalg.matrix_power(u, n) in its order: u for n = 1,
    u u for 2, (u u) u for 3, and above that the ladder's powers at the
    set bits of n, lowest first, multiplied left to right; so the bits
    are its.  A u^n that is a rung of the ladder is that read-only rung."""
    ladder = sys._ladder(max(ns))
    out = []
    for n in ns:
        if n == 3:
            out.append(np.matmul(ladder[1], ladder[0]))
            continue
        p = None
        for i, z in enumerate(ladder[: n.bit_length()]):
            if n >> i & 1:
                p = z if p is None else np.matmul(p, z)
        out.append(p)
    return out


def limit_evolution(sys: PulseSystem, n: int) -> np.ndarray:
    """The n-pulse limit object e^{P(X) t} u^n, for a count n >= 1.  u^n
    is _powers' one-count case, bit-identical to np.linalg.matrix_power."""
    _require_kind(sys, PulseSystem, "sys")
    n = matrixcore.require_count(n, "n", 1)
    return sys.limit_factor @ _powers(sys, [n])[0]


def control_error(sys: PulseSystem, s: Schedule) -> float:
    """Operator-norm distance between the pulse product and its limit
    object at the same pulse count.  The limit comes first, so a limit
    factor that overflows raises its ValueError before the product is
    multiplied out."""
    _require_kind(sys, PulseSystem, "sys")
    _require_kind(s, Schedule, "s")
    limit = limit_evolution(sys, s.n)
    return matrixcore.op_norm(pulse_product(sys, s) - limit)


def _or_inf(f, *args) -> float:
    """f(*args), or +inf where that raises OverflowError (exp past 709.78)."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _next_up(v: float, steps: int) -> float:
    """v moved steps floats toward +inf."""
    for _ in range(steps):
        v = math.nextafter(v, math.inf)
    return v


def _quotient_up(m: float, n: int) -> float:
    """m / n rounded up: the nearest float, or the next one up where that
    lies below the exact quotient."""
    q = m / n
    if math.isfinite(q) and Fraction(q) * n < Fraction(m):
        q = math.nextafter(q, math.inf)
    return q


def _rate_constants(sys: PulseSystem) -> tuple[float, float]:
    """m = 4 s^2 e^{2s} + 2s and m' = e^x (m + 2s (2s + 3r)) in the products
    s = |t| ||Y||, r = |t| ||P(X)|| and x = |t| ||X|| of the cached norms,
    rounded up: each returned value is at least the exact one, and +inf
    where it overflows.  Both are 0 exactly where t or ||Y|| is.

    They are evaluated as m = 2s (1 + g) and m' = 2s e^x (1 + g + 2s + 3r)
    with g = 2s e^{2s}, so every bracket is >= 1 and only the final
    product by 2s can underflow.

    Proof of the bound, with u = 2^-53, abs (hypot) and math.exp within
    1 ulp, and next^k(v) the k-th float above v.  A correctly rounded
    fl(z) has z <= next(fl(z)), also where fl(z) is 0 or subnormal, and a
    step up from a normal v adds ulp(v) > u v.  |t| <= next^2(abs(t)),
    two steps since |t| may lie in the binade above; so s, r and x are
    at most next(fl(next^2(abs(t)) norm)), and m and m' increase in all
    three, which leaves the rounding after that.  g carries 3u (exp 2u,
    the product u; 2s is exact) and 1 + g 4u, so m <= next(fl(m))
    (1 + 4.01u): 5 more steps cover that where next(fl(m)) is normal, as
    (1 + u)^5 > 1 + 4.01u, and 3 where it is subnormal, as there
    next(fl(m)) 4.01u < 2.01 2^-1074 and a step adds 2^-1074.  In m',
    1 + g + 2s + 3r carries 6u (g 3u and three sums of positive terms),
    e^x 2u and their product 1u: 9u, so 10 more steps, 11 in all.
    Overflow gives +inf; 2s > 0, so no 0 * inf arises.
    """
    abs_t = abs(sys.t)
    if abs_t == 0.0 or sys.potential_norm == 0.0:
        return 0.0, 0.0
    t_up = _next_up(abs_t, 2)
    s, r, x = (
        _next_up(t_up * norm, 1)
        for norm in (sys.potential_norm, sys.fixed_norm, sys.generator_norm)
    )
    two_s = 2.0 * s
    # two_s * e^{two_s} overflows to inf without raising; math.exp raises
    g = two_s * _or_inf(math.exp, two_s)
    m = two_s * (1.0 + g)
    m_prime = two_s * (_or_inf(math.exp, x) * (1.0 + g + two_s + 3.0 * r))
    return _next_up(m, 6), _next_up(m_prime, 11)


def equidistant_bound_constants(sys: PulseSystem) -> BoundBreakdown:
    """Rate constants for equidistant rows: the measured error is bounded
    by m_prime_const / N, and by m_const / N when the generator has no
    commutant component."""
    _require_kind(sys, PulseSystem, "sys")
    m, m_prime = sys._rates
    return BoundBreakdown(m, m_prime, math.nan, math.nan, m_prime)


def schedule_bound_rhs(sys: PulseSystem, s: Schedule) -> BoundBreakdown:
    """Rigorous upper bound on control_error(sys, s) for a coboundary
    generator.

    Sums the per-step defect series S (matrixcore._defect_series_batch:
    the whole series in closed form, rounded outward, with no radius)
    with an exponential prefactor on all but the last step, and adds
    e^{||Y|| tv |t|} - 1 for the final comparison with the limit object.
    The norms enter rounded up by the SVD's error, as PulseSystem keeps
    them.  A row of n > 2 equal weights sums one repeated term
    (_equal_row_terms), with the same bits.  Where a term overflows the
    bound is +inf.  Generators with a commutant component are refused:
    split them with yosida_split and bound the pieces separately.

    A leading zero weight leaves the bound unchanged.  The bound reads a
    row only through lead_k, follow_k (_step_norms) and the TV.  For
    w' = (0, a_1, ..., a_n), step 1 has lead'_1 = 0, so its term S(0, .)
    is exactly 0, and for k >= 2, as |a'_2 - a'_1| = a_1 stands in for
    the leading a'_1 = 0, lead'_k = lead_(k-1) and
    follow'_k = 2 a_k = follow_(k-1); the TV is unchanged likewise.  So
    w' has a zero step and then the steps of w: the same last step and
    the same sums.  (A trailing zero adds a last step: not neutral.)  In
    floating point the prefixes, the TV and the prefactored sum are
    summed in other orders.  Each sum of at most n + 1 nonnegative terms
    errs by at most n u relative (u = 2^-53), and S and expm1 magnify a
    relative change of their arguments by at most
    M = 2 + scale (TV + 2): the degree-i parts of S(a, b) have
    (i - 2) S_i <= (a + b) S_(i-1) coefficient by coefficient, so
    sum_i i S_i <= (2 + a + b) S, with a <= scale TV and b <= 2 scale,
    and x e^x / (e^x - 1) <= 1 + x.  So to first order the totals differ
    by 2 (n + 1) M u relative, plus 2 (n - 2) u from the prefactored sums
    and the two evaluations' own roundings, which the tests measure
    within the first term.
    """
    _require_kind(sys, PulseSystem, "sys")
    _require_kind(s, Schedule, "s")
    sys._require_coboundary()
    m, m_prime = sys._rates
    scale = abs(sys.t) * sys.potential_norm
    a = s.weights[None, :]
    if s.n > 2 and scale != 0.0 and (s.weights == s.weights[0]).all():
        tv_term, c_series, total = _equal_row_terms(a, scale)
    else:
        tv_term, c_series, total = _schedule_series_terms(a, scale)
    return BoundBreakdown(
        m, m_prime, float(tv_term[0]), float(c_series[0]), float(total[0])
    )


def _step_norms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lead, follow) for an (m, n) stack of weight rows.

    lead and follow are the per-step norms, in units of |t| ||Y||, of the
    single-step defects between partial products k and k+1: 2 a_1 and
    2 a_2 for the first step, then the running total-variation prefix
    a_1 + sum_{j<k} |a_{j+1} - a_j| + a_k and 2 a_{k+1}.  The prefix is
    summed in place in lead, and at n = 2 there is none.
    """
    m, n = a.shape
    lead = np.empty((m, n - 1))
    np.multiply(a[:, 0], 2.0, out=lead[:, 0])
    if n > 2:
        prefix = lead[:, 1:]
        steps = a[:, 1:-1] - a[:, :-2]
        np.abs(steps, out=steps).cumsum(axis=1, out=prefix)
        prefix += a[:, :1]
        prefix += a[:, 1:-1]
    return lead, 2.0 * a[:, 1:]


def _schedule_series_terms(
    a: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (tv_term, c_series_sum, total_rhs) for an (m, n) stack of
    weight rows at scale = |t| * ||Y||.  Schedule-independent data is
    baked into scale, so optimizers can score many rows in one call.

    The per-step defect series is matrixcore._defect_series_batch: closed
    form, rounded outward, valid at any scale.  Terms that overflow give
    +inf, never NaN.
    """
    m, n = a.shape
    if scale == 0.0:
        return np.zeros(m), np.zeros(m), np.zeros(m)
    lead, follow = _step_norms(a)
    lead *= scale
    follow *= scale
    series = matrixcore._defect_series_batch(lead, follow)
    c_series = series[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        tv_term = np.expm1(scale * tv_value(a))
        if n > 2:
            # e^(2 scale) overflows from scale 354.89; a zero sum stays 0
            prefactor = math.exp(2.0 * scale) if scale < 354.0 else math.inf
            partial = np.add.reduce(series[:, :-1], axis=1)
            c_series = np.where(partial > 0.0, prefactor * partial, 0.0) + c_series
    return tv_term, c_series, c_series + tv_term


def _equal_row_terms(
    a: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_schedule_series_terms of one row of n > 2 equal weights at a
    scale > 0, bit for bit, without its (n - 1)-long step arrays.

    Every step of such a row has lead = follow = 2 a scale (the running
    prefix is a + 0 + a, exact), so the defect series is one term S, and
    tv_value is a + 0 + a as well.  The n - 2 prefactored steps are summed
    as np.add.reduce of n - 2 copies of S, pairwise in numpy's order, as
    there.
    """
    n = a.shape[1]
    step = np.full(1, 2.0 * a[0, 0] * scale)
    series = matrixcore._defect_series_batch(step, step)
    with np.errstate(over="ignore"):
        tv_term = np.expm1(scale * (2.0 * a[:, 0]))
        prefactor = math.exp(2.0 * scale) if scale < 354.0 else math.inf
        partial = np.add.reduce(np.full(n - 2, series[0]))
        # partial is 0 only where 2 a scale underflows, at a finite
        # prefactor, so no 0 * inf arises
        c_series = prefactor * partial + series
    return tv_term, c_series, c_series + tv_term


def convergence_sweep(
    sys: PulseSystem,
    family: ScheduleFamily,
    n_values,
) -> ConvergenceReport:
    """Measured control error over a grid of pulse counts, with bounds
    attached where a bound route applies and a log-log slope fitted over
    the upper half of the grid.  n_values are >= 3 increasing counts >= 2.
    The bound route (see ConvergenceReport) is read from the system and
    the rows, never from the family.

    The errors are control_error's, bit for bit, computed as one batch:
    the limit factor first, every u^n from the system's ladder of
    squarings (_powers, the bits of np.linalg.matrix_power), each row's
    pulse_product, its expm stack freed before the next row's call, and
    the operator norms of all the differences in one stacked SVD call,
    which gives op_norm's bits.  A difference with a non-finite entry
    raises op_norm's ValueError."""
    _require_kind(sys, PulseSystem, "sys")
    _require_kind(family, ScheduleFamily, "family")
    ns = [matrixcore.require_count(n, "pulse count", 2) for n in n_values]
    if len(ns) < 3:
        raise ValueError("need at least 3 pulse counts")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("pulse counts must be strictly increasing")

    rows = [family(n) for n in ns]
    # the limit factor first, as in control_error: its overflow is the
    # error reported, before any pulse product is multiplied out
    limits = [sys.limit_factor @ p for p in _powers(sys, ns)]
    diffs = np.empty((len(ns), sys.dim, sys.dim), dtype=np.complex128)
    for row, limit, diff in zip(rows, limits, diffs):
        np.subtract(pulse_product(sys, row), limit, out=diff)
        if not np.isfinite(diff).all():
            raise ValueError("matrix contains non-finite entries")
    errors = np.linalg.svd(diffs, compute_uv=False)[:, 0].tolist()
    if sys.is_coboundary:
        route = "schedule"
        bounds = [schedule_bound_rhs(sys, row) for row in rows]
    elif all((row.weights == 1.0 / row.n).all() for row in rows):
        route = "constants"
        constants = equidistant_bound_constants(sys)
        bounds = [
            replace(constants, total_rhs=_quotient_up(constants.m_prime_const, n))
            for n in ns
        ]
    else:
        route = None
        bounds = None

    half = len(ns) // 2
    window = [i >= half for i in range(len(ns))]
    windowed = [(n, e) for n, e, w in zip(ns, errors, window) if w]
    if all(e > 0.0 for _n, e in windowed):
        log_n = np.log([float(n) for n, _e in windowed])
        log_e = np.log([e for _n, e in windowed])
        slope = float(np.polyfit(log_n, log_e, 1)[0])
    else:
        slope = None

    return ConvergenceReport(
        family_name=family.name,
        n_values=tuple(ns),
        errors=tuple(errors),
        window=tuple(window),
        fitted_slope=slope,
        bound_route=route,
        bounds=tuple(bounds) if bounds is not None else None,
    )


_BOUND_FIELDS = tuple(f.name for f in fields(BoundBreakdown))
# a breakdown's fields in _BOUND_FIELDS order, read in place (astuple
# deep-copies each one)
_bound_values = operator.attrgetter(*_BOUND_FIELDS)


def _number(value: float) -> float | None:
    """A bound field as the CSV writes it: None (a blank cell) where the
    field does not apply."""
    return None if math.isnan(value) else float(value)


def write_report_csv(report: ConvergenceReport, path: str | PathLike) -> None:
    """One row per pulse count with the bound breakdown columns (empty
    where no bound applies)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("N", "error", "slope_window_flag") + _BOUND_FIELDS)
        for i, n in enumerate(report.n_values):
            row = [
                str(n),
                repr(float(report.errors[i])),
                "1" if report.window[i] else "0",
            ]
            if report.bounds is None:
                row += [""] * len(_BOUND_FIELDS)
            else:
                # csv writes None as a blank cell and a float as its repr
                row += map(_number, _bound_values(report.bounds[i]))
            writer.writerow(row)


def report_to_json_dict(report: ConvergenceReport) -> dict:
    """JSON-ready representation; a NaN (a field that does not apply) or
    +inf (an overflow) becomes null, as strict JSON has no token for it."""
    bounds = None
    if report.bounds is not None:
        bounds = [
            dict(zip(_BOUND_FIELDS, map(matrixcore.json_number, _bound_values(b))))
            for b in report.bounds
        ]
    return {
        "family": report.family_name,
        "n_values": list(report.n_values),
        "errors": [matrixcore.json_number(e) for e in report.errors],
        "slope_window_flags": [1 if w else 0 for w in report.window],
        "fitted_slope": report.fitted_slope,
        "bound_route": report.bound_route,
        "bounds": bounds,
    }
