"""Dense complex-matrix groundwork: validation, the operator norm, matrix
exponentials, a rigorous bound on the product defect ||e^A e^B - e^(A+B)||,
seeded random unitaries with controlled eigenphase gaps, and a small JSON
interchange format for matrices.

Everything operates on square complex128 arrays of dimension at most
MAX_DIM (expm also takes a stack of them).  Public entry points validate
and normalize their inputs with as_operator, so downstream code can
assume clean, C-contiguous data.
"""

from __future__ import annotations

import functools
import json
import math
from os import PathLike

import numpy as np
import scipy.linalg

MAX_DIM = 64
UNITARITY_TOL = 1e-10


def as_operator(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate a square complex matrix and return it as a C-contiguous
    complex128 array.  With stack=True, validate a (k, d, d) stack of
    square matrices instead.

    An input that already is one is returned as it is, not copied, so the
    result may share memory with the caller's array; callers that keep or
    freeze it take their own copy (PulseSystem does).
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 + stack or arr.shape[-1] != arr.shape[-2]:
        kind = "a stack of square matrices" if stack else "square"
        raise ValueError(f"{name} must be {kind}, got shape {arr.shape}")
    if not 1 <= arr.shape[-1] <= MAX_DIM:
        raise ValueError(
            f"{name} dimension must be in [1, {MAX_DIM}], got {arr.shape[-1]}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def op_norm(m) -> float:
    """Operator (spectral) norm, computed from a full SVD.

    Dimensions are capped at MAX_DIM, so the full decomposition is cheaper
    and more robust than any iterative estimate.
    """
    arr = as_operator(m)
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def is_unitary(m, tol: float = UNITARITY_TOL) -> bool:
    """Whether m m* is the identity within tol in operator norm."""
    arr = as_operator(m)
    eye = np.eye(arr.shape[0])
    return op_norm(arr @ arr.conj().T - eye) <= tol


def expm(m) -> np.ndarray:
    """Matrix exponential e^m, by scipy.linalg.expm; given a (k, d, d)
    stack, the exponential of every matrix in it, in one call.

    One route for every input, normal or not and at any scale: scaling
    and squaring around a Pade approximant whose degree and scaling are
    chosen from 1-norm estimates (Al-Mohy & Higham, SIMAX 31(3), 2009).
    No normality test picks a method, so a small non-normal matrix keeps
    its off-diagonal first-order term.  scipy runs that algorithm on each
    matrix of a stack in turn, so a stacked result equals the per-matrix
    calls byte for byte.
    """
    arr = np.asarray(m)
    return scipy.linalg.expm(as_operator(arr, stack=arr.ndim == 3))


@functools.lru_cache(maxsize=8)
def _defect_coefficients(i_max: int) -> np.ndarray:
    """Matrix C[j, k] = 2 * (binom(j+k, j) - 1) / (j+k)! over 1 <= j, k
    with j + k <= i_max; zero elsewhere.  Cached: the big-integer
    binomials and factorials are expensive next to the series itself."""
    c = np.zeros((i_max + 1, i_max + 1), dtype=np.float64)
    for j in range(1, i_max):
        for k in range(1, i_max + 1 - j):
            c[j, k] = 2.0 * (math.comb(j + k, j) - 1) / math.factorial(j + k)
    c.setflags(write=False)
    return c


def _defect_series_batch(a: np.ndarray, b: np.ndarray, i_max: int) -> np.ndarray:
    """Vectorized defect-bound series for paired norm arrays a, b.

    Entries where either norm is zero give exactly zero (the defect
    vanishes identically there, so no tail is charged).
    """
    out = np.zeros_like(a)
    live = (a > 0.0) & (b > 0.0)
    if not live.any():
        return out
    av, bv = a[live], b[live]
    coeffs = _defect_coefficients(int(i_max))
    exponents = np.arange(i_max + 1)[:, None]
    a_pow = av[None, :] ** exponents
    b_pow = bv[None, :] ** exponents
    total = np.einsum("jk,jm,km->m", coeffs, a_pow, b_pow)
    s = av + bv
    tail = (
        2.0
        * np.exp(s)
        * s ** (i_max + 1)
        / math.factorial(i_max + 1)
        * (i_max + 2)
        / (i_max + 2 - s)
    )
    out[live] = total + tail
    return out


def exp_product_defect_bound(a_norm: float, b_norm: float, i_max: int = 40) -> float:
    """Upper bound for ||e^A e^B - e^(A+B)|| given ||A|| <= a_norm,
    ||B|| <= b_norm.

    Sums 2/i! * (binom(i, j) - 1) * a^j b^(i-j) over 2 <= i <= i_max,
    1 <= j <= i-1, then adds a geometric tail majorant for the dropped
    orders.  The majorant needs a_norm + b_norm < i_max + 2; a larger sum
    is rejected rather than silently under-bounded.
    """
    a = float(a_norm)
    b = float(b_norm)
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0 or b < 0:
        raise ValueError("norms must be finite and nonnegative")
    if not isinstance(i_max, (int, np.integer)) or i_max < 2:
        raise ValueError("i_max must be an integer >= 2")
    if a == 0.0 or b == 0.0:
        return 0.0
    if a + b >= i_max + 2:
        raise ValueError(
            "tail majorant invalid for a_norm + b_norm = %.6g >= i_max + 2 = %d; "
            "raise i_max" % (a + b, i_max + 2)
        )
    return float(_defect_series_batch(np.array([a]), np.array([b]), int(i_max))[0])


def random_unitary(dim: int, min_phase_gap: float = 0.0, seed=None) -> np.ndarray:
    """Seeded random unitary whose eigenphases are pairwise separated by at
    least min_phase_gap on the circle.

    Phases are laid out as the mandatory gap plus Dirichlet-distributed
    slack, then conjugated by a Haar-random basis.
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [1, {MAX_DIM}], got {dim}")
    gap = float(min_phase_gap)
    if not math.isfinite(gap) or gap < 0:
        raise ValueError("min_phase_gap must be finite and nonnegative")
    if dim * gap >= 2 * np.pi:
        raise ValueError(
            "infeasible: %d phases with pairwise gap %.6g do not fit on the circle"
            % (dim, gap)
        )
    rng = np.random.default_rng(seed)
    slack = rng.dirichlet(np.ones(dim)) * (2 * np.pi - dim * gap)
    phases = (rng.uniform(0.0, 2 * np.pi) + np.cumsum(gap + slack)) % (2 * np.pi)
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    q = q * (np.conj(r.diagonal()) / np.abs(r.diagonal()))
    return (q * np.exp(1j * phases)) @ q.conj().T


def matrix_to_json_dict(m) -> dict:
    """Row-major {"dim": d, "entries": [[re, im], ...]} representation."""
    arr = as_operator(m)
    d = arr.shape[0]
    flat = arr.reshape(-1)
    return {
        "dim": d,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def _require_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a real number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{where} must be finite, got {value!r}")
    return out


def matrix_from_json_dict(obj) -> np.ndarray:
    """Parse and validate the matrix JSON representation."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    unknown = set(obj) - {"dim", "entries"}
    if unknown:
        raise ValueError(f"matrix JSON has unknown keys {sorted(unknown)}")
    if "dim" not in obj or "entries" not in obj:
        raise ValueError('matrix JSON needs "dim" and "entries"')
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError('"dim" must be an integer')
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f'"dim" must be in [1, {MAX_DIM}], got {dim}')
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ValueError(
            '"entries" must list exactly dim*dim [re, im] pairs (%d expected, got %s)'
            % (dim * dim, len(entries) if isinstance(entries, list) else type(entries))
        )
    flat = np.empty(dim * dim, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"entry {k} must be a [re, im] pair, got {pair!r}")
        flat[k] = complex(
            _require_real(pair[0], f"entry {k} real part"),
            _require_real(pair[1], f"entry {k} imaginary part"),
        )
    return flat.reshape(dim, dim)


def save_matrix(m, path: str | PathLike) -> None:
    """Write a matrix to path in the JSON interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_dict(m), fh, sort_keys=True)
        fh.write("\n")


def load_matrix(path: str | PathLike) -> np.ndarray:
    """Read a matrix from the JSON interchange format."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json_dict(json.load(fh))
