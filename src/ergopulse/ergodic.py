"""Spectral structure of a unitary and the ergodic averages it generates.

A unitary u acts on matrices by conjugation x -> u x u*.  The fixed points
of that action form the commutant of u; averaging the conjugation orbit
(plain or weighted Cesaro means) converges to the projection P onto that
commutant.  The complementary part of any operator is a coboundary
y - u y u*.  In an eigenbasis V of u, conjugation multiplies entry (i, j)
of V* x V by z_ij = lambda_i conj(lambda_j).  So P keeps the entries
whose i and j share an eigenphase cluster, and the potential y divides
the others by 1 - z_ij: one entrywise multiplier each (_split).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixcore
from ._kernels import conj_weighted_sum
from .errors import ClusteringAmbiguityError, NotACoboundaryError
from .schedules import Schedule

DEFAULT_CLUSTER_TOL = 1e-8
COBOUNDARY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class UnitarySpectrum:
    """Clustered eigenstructure of a unitary, as arrays: orthonormal
    eigenvector columns (basis, from matrixcore.unitary_eig), their phases
    in [0, 2pi) and cluster labels, and cluster_phases[k], the increasing
    representative phase of label k.  Cluster k's spectral projector is
    V_k V_k*, V_k = basis[:, col_labels == k].
    """

    cluster_phases: np.ndarray
    cluster_tol: float
    basis: np.ndarray
    col_phases: np.ndarray
    col_labels: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def spectrum(u, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> UnitarySpectrum:
    """Eigenbasis, eigenphases and eigenphase cluster labels of a unitary.

    Phases closer than cluster_tol along the circle are merged into one
    cluster.  A chain of pairwise-close phases that spans more than
    cluster_tol admits no consistent grouping and raises
    ClusteringAmbiguityError.  cluster_tol is a positive real.
    """
    tol = matrixcore.require_real(cluster_tol, "cluster_tol")
    if tol <= 0:
        raise ValueError(f"cluster_tol must be positive, got {tol!r}")
    return _spectrum(matrixcore.require_unitary(u), tol)


def _spectrum(arr: np.ndarray, cluster_tol: float) -> UnitarySpectrum:
    """spectrum of an operator already checked unitary, at a cluster_tol
    already checked positive and finite."""
    lam, vecs = matrixcore.unitary_eig(arr)
    phases = np.angle(lam) % (2 * np.pi)
    d = arr.shape[0]
    order = np.argsort(phases, kind="stable")
    sorted_phases = phases[order]
    wrap_gap = 2 * np.pi - sorted_phases[-1] + sorted_phases[0]
    wide = np.append(np.diff(sorted_phases), wrap_gap) > cluster_tol
    if d > 1 and not wide.any():
        raise ClusteringAmbiguityError(sorted_phases, cluster_tol)
    # walk the circle from just past the first wide gap; each wide gap
    # on the way starts the next chain
    walk = (np.arange(d) + int(np.argmax(wide)) + 1) % d
    walked = sorted_phases[walk]
    breaks = wide[walk[:-1]]
    chain_ids = np.concatenate(([0], np.cumsum(breaks)))
    starts = np.flatnonzero(np.concatenate(([True], breaks)))
    # each phase's offset from the first of its chain, 0 for that first
    offsets = (walked - walked[starts][chain_ids]) % (2 * np.pi)
    too_wide = np.flatnonzero(np.maximum.reduceat(offsets, starts) > cluster_tol)
    if too_wide.size:
        raise ClusteringAmbiguityError(walked[chain_ids == too_wide[0]], cluster_tol)
    # reduceat adds a segment's first entry to the pairwise sum of the
    # rest, so each chain gets a leading 0: its sum is then the one
    # np.mean takes of the chain's offsets alone, bit for bit
    padded = np.zeros(d + starts.size)
    padded[np.arange(d) + chain_ids + 1] = offsets
    sums = np.add.reduceat(padded, starts + np.arange(starts.size))
    reps = (walked[starts] + sums / np.bincount(chain_ids)) % (2 * np.pi)
    rank = np.argsort(reps, kind="stable")
    labels = np.empty(d, dtype=np.int64)
    labels[order[walk]] = np.argsort(rank)[chain_ids]
    return UnitarySpectrum(
        cluster_phases=reps[rank],
        cluster_tol=cluster_tol,
        basis=np.ascontiguousarray(vecs),
        col_phases=phases,
        col_labels=labels,
    )


def _split(spec: UnitarySpectrum, x, name: str) -> YosidaSplit:
    """P(x), x - P(x) and y, from V* x V times the same-cluster mask and
    times 1 / (1 - z_ij) where the labels differ (0 where they agree).
    Both exist for every x, so no tolerance is tested."""
    arr = matrixcore.as_operator(x, name)
    if arr.shape[0] != spec.dim:
        raise ValueError(
            f"dimension mismatch: {name} is {arr.shape[0]}, spectrum is {spec.dim}"
        )
    basis = spec.basis
    inner = basis.conj().T @ arr @ basis
    same = spec.col_labels[:, None] == spec.col_labels[None, :]
    lam = np.exp(1j * spec.col_phases)
    inverse = np.zeros_like(inner)
    inverse[~same] = 1.0 / (1.0 - np.outer(lam, lam.conj())[~same])
    fixed, potential = (basis @ (inner * g) @ basis.conj().T for g in (same, inverse))
    return YosidaSplit(fixed, arr - fixed, potential)


def commutant_project(spec: UnitarySpectrum, x) -> np.ndarray:
    """Projection of x onto the commutant of u: the entries of V* x V
    inside each eigenphase cluster, taken back to the standard basis."""
    return _split(spec, x, "x").fixed_part


def is_coboundary_norm(fixed_norm: float, norm: float) -> bool:
    """The coboundary rule: ||P(x)|| = fixed_norm <= COBOUNDARY_TOL ||x||.
    It is relative, so x and s x get the same verdict at every scale s,
    and 0 is a coboundary."""
    return fixed_norm <= COBOUNDARY_TOL * norm


def require_coboundary_norm(fixed_norm: float, norm: float, hint: str = "") -> None:
    """Raise NotACoboundaryError unless is_coboundary_norm(fixed_norm, norm)."""
    if not is_coboundary_norm(fixed_norm, norm):
        raise NotACoboundaryError(fixed_norm, norm, COBOUNDARY_TOL, hint)


def cesaro_mean(u, x, n: int) -> np.ndarray:
    """Average of u^k x (u^k)* for k = 1..n, a count n >= 1."""
    uu, xx = matrixcore.require_pair(u, x, "x")
    n = matrixcore.require_count(n, "n", 1)
    return conj_weighted_sum(uu, xx, np.full(n, 1.0 / n))


def weighted_cesaro_mean(u, x, s: Schedule) -> np.ndarray:
    """Schedule-weighted average: sum of s.weights[k-1] * u^k x (u^k)*."""
    uu, xx = matrixcore.require_pair(u, x, "x")
    if not isinstance(s, Schedule):
        raise ValueError("s must be a Schedule")
    return conj_weighted_sum(uu, xx, s.weights)


@dataclass(frozen=True, eq=False)
class YosidaSplit:
    """Decomposition x = fixed_part + (potential - u potential u*).

    fixed_part lies in the commutant of u; the remainder is the coboundary
    of the potential, which carries no commutant component (the gauge that
    minimizes its Hilbert-Schmidt norm).
    """

    fixed_part: np.ndarray
    coboundary_part: np.ndarray
    potential: np.ndarray


def solve_coboundary(spec: UnitarySpectrum, w) -> np.ndarray:
    """Solve y - u y u* = w for the potential y, which has no commutant
    part (that pins the gauge).  A w that fails the coboundary rule
    (require_coboundary_norm) has no solution: NotACoboundaryError reports
    the norm of its commutant projection and its ratio to ||w||."""
    split = _split(spec, w, "w")
    require_coboundary_norm(matrixcore.op_norm(split.fixed_part), matrixcore.op_norm(w))
    return split.potential


def yosida_split(spec: UnitarySpectrum, x) -> YosidaSplit:
    """Split x into its commutant projection and a coboundary with an
    explicit potential.  x - P(x) is a coboundary by construction, so no
    tolerance is tested, at any scale of x."""
    return _split(spec, x, "x")
