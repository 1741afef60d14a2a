"""Dense complex-matrix groundwork: validation, the operator norm, matrix
exponentials, a rigorous bound on the product defect ||e^A e^B - e^(A+B)||,
seeded random unitaries with controlled eigenphase gaps, and a small JSON
interchange format for matrices.

Everything operates on square complex128 arrays of dimension at most
MAX_DIM.  expm also takes one matrix and many scalar multiples; the
small multiples share a truncated Taylor sum evaluated for all of them
at once, one matrix product per Horner level.  Public entry points
validate and normalize their inputs with as_operator, require_count,
require_real and require_pair, so downstream code can assume clean,
C-contiguous data and plain ints and finite floats.
"""

from __future__ import annotations

import json
import math
import numbers
from os import PathLike

import numpy as np
import scipy.linalg

MAX_DIM = 64
UNITARITY_TOL = 1e-10


def as_operator(m, name: str = "matrix") -> np.ndarray:
    """Validate a square complex matrix and return it as a C-contiguous
    complex128 array.

    An input that already is one is returned as it is, not copied, so the
    result may share memory with the caller's array; callers that keep or
    freeze it take their own copy (PulseSystem does).
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not 1 <= arr.shape[0] <= MAX_DIM:
        raise ValueError(
            f"{name} dimension must be in [1, {MAX_DIM}], got {arr.shape[0]}"
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


def require_unitary(u) -> np.ndarray:
    """u as_operator, or ValueError unless unitary within UNITARITY_TOL."""
    arr = as_operator(u, "u")
    if not is_unitary(arr):
        raise ValueError(
            "u is not unitary within %.1e in operator norm" % UNITARITY_TOL
        )
    return arr


def require_pair(u, x, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(u, x) as operators of one dimension, u unitary (require_unitary);
    name names x in the messages."""
    uu = require_unitary(u)
    xx = as_operator(x, name)
    if uu.shape != xx.shape:
        raise ValueError(f"u and {name} must share a dimension")
    return uu, xx


def require_count(value, name: str, minimum: int) -> int:
    """value as an int, or ValueError unless it is an int or np.integer of
    at least minimum.  bool, np.bool_, floats (4.0 too) and strings are
    refused, so no count is ever rounded or parsed."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_real(value, name: str) -> float:
    """value as a float, or ValueError unless it is a numbers.Real other
    than bool whose float is finite.  Strings, NaN, +-inf and ints or
    fractions past the float range (10**400) are refused."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        out = float(value) if real else math.nan
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return out


def expm(m, scalars=None) -> np.ndarray:
    """Matrix exponential e^m, by scipy.linalg.expm.  Given also a 1-D
    array of k complex scalars c, the (k, d, d) stack of the e^(c_k m).

    scipy.linalg.expm is one route for every input, normal or not and at
    any scale: scaling and squaring around a Pade approximant whose degree
    and scaling are chosen from 1-norm estimates (Al-Mohy & Higham, SIMAX
    31(3), 2009).  No normality test picks a method, so a small non-normal
    matrix keeps its off-diagonal first-order term.

    The scalar-multiples form sends every c_k with r_k = |c_k| ||m||_1 > 1
    to scipy.linalg.expm as above, in one call on their stack.  The
    others share one truncated Taylor sum
    T_n(c m) = sum_{j<=n} (c m)^j / j!, by Horner, E <- I + (c/j) m E
    for j = n..1 (Moler & Van Loan, SIAM Rev. 45(1), 2003, sec. 3).
    E is held as a (d, d, k) array, so m E for all k slices is one
    (d x d) @ (d x dk) product per level, then a scale by c/j and + I.
    The degree n is the smallest with r^(n+1)/(n+1)! e^r <= 2^-53 at the
    largest of those r, plus 3; the result of a slice therefore depends
    on the other slices of the call.

    Error, in the 1-norm, with u = 2^-53 and r = r_k <= 1.  Truncation:
    ||e^(cm) - T_n|| <= r^(n+1)/(n+1)! e^r, and the 3 extra terms cut the
    rule's 2^-53 by (n-1)n(n+1) >= 24, which also covers r being rounded
    low by a few ulps.  Rounding, to first order in u: one level adds
    F_j with ||F_j|| <= kappa u (r/j) ||E_j|| + u ||E_(j-1)||, where
    kappa = 1 + sqrt(2)(d + 4) gathers the complex inner products of the
    product (sqrt(2) gamma_(d+2)), c/j (u) and the scaling (sqrt(2)
    gamma_2), and u is the + I.  The later levels carry F_j to the result
    through c^(j-1) m^(j-1) / (j-1)!, and every ||E_j|| <= e^r, so the
    rounding error is at most u e^r (kappa (e^r - 1) + e^r): 52u at
    r = 1 and d = 2, about (kappa r + 1) u as r -> 0.  Measured, the slices
    lie within 2 eps of scipy.linalg.expm in the spectral norm.

    A scalar array that is not 1-D, is empty or holds a non-finite
    value, and a product c_k m that overflows, raise ValueError.
    """
    if scalars is None:
        return scipy.linalg.expm(as_operator(m))
    a = as_operator(m)
    c = np.asarray(scalars, dtype=np.complex128)
    if c.ndim != 1 or c.shape[0] == 0 or not np.isfinite(c).all():
        raise ValueError("scalars must be a nonempty 1-D array of finite numbers")
    d = a.shape[0]
    k = c.shape[0]
    # an r or a product that overflows is caught below: r = inf is not
    # small, so the product lands in big
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.abs(c) * np.abs(a).sum(axis=0).max()
        small = r <= 1.0
        big = c[~small, None, None] * a
    if not np.isfinite(big).all():
        raise ValueError("c_k m contains non-finite entries")
    if big.shape[0]:
        big = scipy.linalg.expm(big)
    if not small.any():
        return big
    # out is filled after the Horner work buffers are freed, so a call
    # holds at most two stacks at once, like one scipy call on all of them
    taylor = _taylor_horner(a, c[small], _taylor_degree(r[small].max()))
    out = np.empty((k, d, d), dtype=np.complex128)
    out[~small] = big
    out[small] = taylor
    return out


def _taylor_degree(r: float) -> int:
    """Smallest n with r^(n+1)/(n+1)! e^r <= 2^-53, plus 3, for 0 <= r <= 1."""
    bound = r * math.exp(r)
    n = 0
    while bound > 2.0**-53:
        n += 1
        bound *= r / (n + 1)
    return n + 3


def _taylor_horner(a: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """(k, d, d) stack of sum_{j<=n} (c_k a)^j / j!, n >= 1, by Horner on
    E[i, l, slice]: the slice axis last makes the scale by c/j a
    contiguous broadcast and the diagonals E[i, i, :] the rows 0, d + 1,
    2(d + 1), ... of the (d^2, k) view."""
    d = a.shape[0]
    k = c.shape[0]
    # the top level, I + (c/n) a I, needs no product
    e = a[:, :, None] * (c / n)
    e.reshape(d * d, k)[:: d + 1] += 1.0
    nxt = np.empty_like(e)
    for j in range(n - 1, 0, -1):
        np.matmul(a, e.reshape(d, d * k), out=nxt.reshape(d, d * k))
        nxt *= c / j
        nxt.reshape(d * d, k)[:: d + 1] += 1.0
        e, nxt = nxt, e
    return e.transpose(2, 0, 1)


# Taylor coefficients 1/(k+2)! of phi2, k = 16 down to 0, for Horner
_PHI2_TAYLOR = tuple(1 / math.factorial(k + 2) for k in range(16, -1, -1))
_TINY = float(np.finfo(np.float64).smallest_subnormal)


def _defect_series_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S(a, b) = sum_{i>=2} (2/i!) sum_{j=1}^{i-1} (binom(i, j) - 1) a^j b^(i-j)
    for paired norm arrays a, b >= 0 of one shape, rounded outward: each
    entry lies in [S, (1 + 2^-46) S] or is +inf, and is 0 where a or b is.

    The series sums to 2[expm1(a) expm1(b) - ab e[0,a,b]], e[0,a,b] the
    second divided difference of exp.  With lo <= hi, d = hi - lo and
    phi2(y) = (e^y - 1 - y)/y^2 = int_0^1 (1-t) e^(ty) dt, that is
    S = 2 lo e^hi [lo phi2(lo) + d phi2(-d)]: two nonnegative terms, and
    no radius.  phi2 is its degree-16 Taylor polynomial (Horner) where
    |y| < 1, else (expm1(y)/y - 1)/y.

    lo and -d = lo - hi (the negated d, bit for bit) share one (2, ...)
    buffer y, and phi2 of both is written into a second one.  Each branch
    runs only on the entries that select it, on a copy of those entries
    when the two branches split y, and a branch no entry selects is
    skipped outright, so the common call (every |y| < 1) makes no expm1
    pass at all.  The bracket, the products and the final + 2^-1074 run
    in place, and hi = max(a, b) is formed again for e^hi instead of
    being held: at its peak a call holds about 8.25 input-sized float64
    arrays where the branches split y, and about 5.5 where they do not.

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
    y = np.empty((2,) + a.shape)
    lo, neg_d = y
    phi = np.empty_like(y)
    inner, term = phi
    # inf - inf at a = b = inf; the expm1 branch overflows from y = 709.78
    # and gives inf / inf at y = inf; e^hi overflows; lo = 0 meets inf in
    # the last product
    with np.errstate(over="ignore", invalid="ignore"):
        np.minimum(a, b, out=lo)
        np.subtract(lo, np.maximum(a, b, out=inner), out=neg_d)
        small = np.abs(y, out=phi) < 1.0
        count = np.count_nonzero(small)
        if count == small.size:
            _phi2_taylor(y, out=phi)
        elif count == 0:
            _phi2_expm1(y, out=phi)
        else:
            phi[small] = _phi2_taylor(y[small])
            big = np.logical_not(small, out=small)
            phi[big] = _phi2_expm1(y[big])
        inner *= lo
        term *= neg_d
        inner -= term
        inner *= np.exp(np.maximum(a, b, out=term), out=term)
        inner *= 2.0 + 2.0**-46
        inner *= lo
        inner += _TINY
    return np.where(lo > 0.0, inner, 0.0)


def _phi2_taylor(y, out=None):
    """phi2 by its degree-16 Taylor polynomial, Horner from the top."""
    out = np.multiply(y, _PHI2_TAYLOR[0], out=out)
    out += _PHI2_TAYLOR[1]
    for c in _PHI2_TAYLOR[2:]:
        out *= y
        out += c
    return out


def _phi2_expm1(y, out=None):
    """phi2 as (expm1(y)/y - 1)/y, for |y| >= 1."""
    out = np.expm1(y, out=out)
    out /= y
    out -= 1.0
    out /= y
    return out


def exp_product_defect_bound(a_norm: float, b_norm: float) -> float:
    """Upper bound on ||e^A e^B - e^(A+B)|| given ||A|| <= a_norm and
    ||B|| <= b_norm: the defect series S of _defect_series_batch, in
    closed form for any finite, nonnegative real norms, rounded outward;
    +inf on overflow.
    """
    a = require_real(a_norm, "a_norm")
    b = require_real(b_norm, "b_norm")
    if a < 0 or b < 0:
        raise ValueError(f"norms must be nonnegative, got {a!r} and {b!r}")
    return float(_defect_series_batch(np.array([a]), np.array([b]))[0])


def random_unitary(dim: int, min_phase_gap: float = 0.0, seed=None) -> np.ndarray:
    """Seeded random unitary of a count dim in [1, MAX_DIM] whose
    eigenphases are pairwise separated by at least min_phase_gap, a
    nonnegative real, on the circle.

    Phases are laid out as the mandatory gap plus Dirichlet-distributed
    slack, then conjugated by a Haar-random basis.
    """
    dim = require_count(dim, "dim", 1)
    if dim > MAX_DIM:
        raise ValueError(f"dim must be in [1, {MAX_DIM}], got {dim}")
    gap = require_real(min_phase_gap, "min_phase_gap")
    if gap < 0:
        raise ValueError(f"min_phase_gap must be nonnegative, got {gap!r}")
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


def json_object(obj, what: str, required: tuple, optional: tuple = ()) -> dict:
    """obj, checked to be a JSON object with every required key and no key
    outside required and optional; what names it in the messages."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{what} has unknown keys {sorted(unknown)}")
    if not all(key in obj for key in required):
        raise ValueError(f"{what} needs " + " and ".join(f'"{k}"' for k in required))
    return obj


def matrix_from_json_dict(obj) -> np.ndarray:
    """Parse and validate the matrix JSON representation."""
    json_object(obj, "matrix JSON", ("dim", "entries"))
    dim = require_count(obj["dim"], '"dim"', 1)
    if dim > MAX_DIM:
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
            require_real(pair[0], f"entry {k} real part"),
            require_real(pair[1], f"entry {k} imaginary part"),
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
