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


# Taylor coefficients 1/(k+2)! of phi2, k = 16 down to 0, for Horner
_PHI2_TAYLOR = tuple(1 / math.factorial(k + 2) for k in range(16, -1, -1))


def _defect_series_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S(a, b) = sum_{i>=2} (2/i!) sum_{j=1}^{i-1} (binom(i, j) - 1) a^j b^(i-j)
    for paired norm arrays a, b >= 0, rounded outward: each entry lies in
    [S, (1 + 2^-46) S] or is +inf, and is 0 where a or b is.

    The series sums to 2[expm1(a) expm1(b) - ab e[0,a,b]], e[0,a,b] the
    second divided difference of exp.  With lo <= hi, d = hi - lo and
    phi2(y) = (e^y - 1 - y)/y^2 = int_0^1 (1-t) e^(ty) dt, that is
    S = 2 lo e^hi [lo phi2(lo) + d phi2(-d)]: two nonnegative terms, and
    no radius.  phi2 is its degree-16 Taylor polynomial (Horner) where
    |y| < 1, else (expm1(y)/y - 1)/y.

    Proof of the bound, with u = 2^-53 and exp, expm1 within 4 ulps
    (eta = 8u; SVML, behind NumPy's AVX-512 kernels, states 4, glibc 1).
    phi2, |y| < 1: Horner on rounded coefficients errs by at most
    sum_j gamma_{2j+2} |y|^j/(j+2)! <= 2u/(1-34u) sum_j (j+1)/(j+2)!
    = 2u/(1-34u), the dropped terms by < 0.078u, and phi2 >= 1/e there:
    relative error < 5.65u.  phi2, |y| >= 1: E = expm1(y)/y carries
    eta + u, which E - 1 magnifies by |E/(E-1)| <= (e-1)/(e-2) < 2.393;
    with the subtraction and the division, < 23.6u.  d is exact for
    lo >= hi/2 (Sterbenz); otherwise its rounding moves k(x) = x phi2(-x)
    by under u(1+u), since k increases and x k' <= k.  So each bracket
    term carries < 25.6u, their sum 1u more, e^hi eta, and the products
    by e^hi, by 2(1 + 2^-47) (exact) and by lo 1u each: |rho| < 37.6u to
    first order, plus < 1e-12 u.  The result is S (1 + 2^-47)(1 + rho),
    and (1 + 64u)(1 - 38u) >= 1 while (1 + 64u)(1 + 38u) < 1 + 2^-46.

    Underflow: for hi >= 2^-1000, roundings below 2^-1022 before the
    product by lo stay under 2^-70 of the result, and the final + 2^-1074
    covers that product's absolute error <= 2^-1075; for hi < 2^-1000,
    S < 2^-1999.  Overflow gives +inf, and the only NaN, 0 * inf, needs
    lo = 0, which np.where maps to 0.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    d = hi - lo
    y = np.stack([lo, -d])
    # both phi2 branches run everywhere; the discarded one may overflow
    # or divide 0/0
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.full_like(y, _PHI2_TAYLOR[0])
        for c in _PHI2_TAYLOR[1:]:
            phi *= y
            phi += c
        phi = np.where(np.abs(y) < 1.0, phi, (np.expm1(y) / y - 1.0) / y)
        inner = (lo * phi[0] + d * phi[1]) * np.exp(hi) * (2.0 + 2.0**-46)
        out = lo * inner + np.finfo(np.float64).smallest_subnormal
    return np.where(lo > 0.0, out, 0.0)


def exp_product_defect_bound(a_norm: float, b_norm: float) -> float:
    """Upper bound on ||e^A e^B - e^(A+B)|| given ||A|| <= a_norm and
    ||B|| <= b_norm: the defect series S of _defect_series_batch, in
    closed form for any finite norms, rounded outward; +inf on overflow.
    """
    a = float(a_norm)
    b = float(b_norm)
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0 or b < 0:
        raise ValueError("norms must be finite and nonnegative")
    return float(_defect_series_batch(np.array([a]), np.array([b]))[0])


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
