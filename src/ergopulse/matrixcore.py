"""Dense complex-matrix groundwork: validation, the operator norm, the
eigenbasis of a unitary, matrix exponentials, a rigorous bound on the
product defect ||e^A e^B - e^(A+B)||, seeded random unitaries with
controlled eigenphase gaps, and a small JSON interchange format for
matrices.

Everything operates on square complex128 arrays of dimension at most
MAX_DIM.  expm also takes one matrix and many scalar multiples; the
small multiples share a truncated Taylor sum, a combination of the
matrix's powers formed once for all of them in one matrix product, and
one matrix of any norm is scaled into that sum's radius and squared
back.  Public entry points validate and normalize their inputs with
as_operator, require_count, require_real and require_pair, so
downstream code can assume clean, C-contiguous data and plain ints and
finite floats.

The module needs numpy alone on import, and expm(m) numpy alone at any
norm: only expm's scalar multiples past the Taylor radius import
scipy.linalg, on the first call that has one.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import numbers
from os import PathLike

import numpy as np

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
    """Whether m m* is the identity within tol in operator norm, tol a
    real >= 0.

    The residual r = m m* - I is tested by its Frobenius norm first:
    ||r|| <= ||r||_F, so a Frobenius norm within tol accepts m without an
    SVD.  Only a larger one runs the SVD, whose norm gives the verdict.
    """
    tol = require_real(tol, "tol")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    arr = as_operator(m)
    r = arr @ arr.conj().T
    diag = r.reshape(-1)[:: arr.shape[0] + 1]
    diag -= 1.0
    if math.sqrt(np.vdot(r, r).real) <= tol:
        return True
    return op_norm(r) <= tol


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


def unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with u = V diag(lam) V*: V's columns an orthonormal
    eigenbasis of a unitary u, and lam the Rayleigh quotients diag(V* u V),
    from numpy's Hermitian eigensolvers alone.  u is an operator already
    checked unitary (require_unitary); it is not checked again.

    Method (Golub & Van Loan, Matrix Computations, 4th ed., secs. 7.1 and
    8.1).  The Hermitian part (u + u*)/2 has the eigenvalues cos(theta_j),
    so the 2d points +-theta_j hold every eigenphase, and the widest gap G
    between them is at least pi/d.  Rotating u by e^(i(pi - c)), c the
    centre of that gap, gives w with no eigenvalue within G/2 of -1 along
    the circle, so N = (I + w)^-1 has ||N|| <= 1/(2 sin(G/4)), about 2d/pi
    (41 at d = 64).  H = i(N - N*) is the Cayley transform
    i(I - w)(I + w)^-1 of w: it shares u's eigenvectors and maps each
    phase alpha of w in (-pi, pi) to tan(alpha/2), increasing with slope
    at least 1/2, so phases that differ stay apart.  H is formed exactly
    Hermitian, and np.linalg.eigh of it gives V.

    Accuracy, with eps = 2^-53.  inv is backward stable: the computed N is
    (I + w + F)^-1 with ||F|| = O(d eps), so it lies within
    O(d eps ||N||^2) of the exact N, and H within twice that of the exact
    transform H0.  eigh returns V orthonormal to O(d eps) with a residual
    O(d eps ||H||), ||H|| <= 2 ||N||.  So V* H0 V = diag + E with
    ||E|| = O(d eps ||N||^2).  w = f(H0) for f(t) = (1 + it)/(1 - it),
    and |f'| <= 2 on the reals, so the off-diagonal part of V* u V is
    O(||E||), at worst O(d^3 eps) (6e-11 at d = 64, times a small
    constant), far below the eigenphase cluster tolerances.  That part
    is the residual ||V diag(lam) V* - u||, and for a normal u the norm of
    its column j bounds the distance from lam_j to u's spectrum.
    Measured on random unitaries of d = 1..64, both the residual and
    ||V* V - I|| stay within a few d eps, as for the complex Schur form.

    A u unitary only to within delta (1e-10 under require_unitary) moves
    the cos(theta_j) by O(delta) and their arccos by at most about
    sqrt(2 delta), far inside the pi/(2d) margin.  The result then
    describes the unitary nearest u to within O(delta), as a Schur form
    with its strictly upper part dropped does.
    """
    d = u.shape[0]
    # reversed, eigvalsh's ascending cos(theta_j) give the folded phases
    # theta_j in [0, pi] in increasing order
    cos = np.linalg.eigvalsh(u + u.conj().T)[::-1] * 0.5
    theta = np.arccos(cos.clip(-1.0, 1.0))
    # the gaps between the 2d points +-theta_j are the gap across 0, the
    # gaps between neighbours in [0, pi] (each twice) and the gap across pi
    edges = np.concatenate(([-theta[0]], theta, [2 * math.pi - theta[-1]]))
    gaps = edges[1:] - edges[:-1]
    k = int(gaps.argmax())
    w = u * cmath.exp(1j * (math.pi - edges[k] - 0.5 * gaps[k]))
    w.reshape(d * d)[:: d + 1] += 1.0
    n = np.linalg.inv(w)
    vecs = np.linalg.eigh(1j * (n - n.conj().T))[1]
    return (vecs.conj() * (u @ vecs)).sum(axis=0), vecs


def expm(m, scalars=None) -> np.ndarray:
    """Matrix exponential e^m.  Given also a 1-D array of k complex
    scalars c, the (k, d, d) stack of the e^(c_k m).

    Taylor side.  Both forms share one truncated Taylor sum
    T_n(c m) = sum_{j<=n} (c m)^j / j!, at radii r = |c| ||m||_1 <= 1,
    formed from shared powers (Moler & Van Loan, SIAM Rev. 45(1), 2003,
    sec. 3; _taylor_powers).  With ||m||_1 = f 2^e, 1/2 <= f < 1, the
    powers of b = 2^-e m and of z_k = 2^e c_k (exact scalings, but for
    results below the normal range) are formed by doubling, in about
    log2 n stacked products each, and sum_j z_k^j (b^T)^j / j! for all k
    is one (k x n) @ (n x d^2) product, with I added to the diagonals
    after it: n d^2 k complex multiply-adds in one BLAS call for the
    stack, and O(n (d^3 + k)) for the powers.  A call holds one stack,
    the (n, k) table of the z_k^j and O(n d^2) more.  The stack is
    C-ordered and holds the T_n(c_k m)^T; the result is its view
    transposed, not a copy (kernels.chain_product's real form reads the
    stack itself).  The
    degree n is the smallest n >= 1 with r^(n+1)/(n+1)! e^r <= 2^-53/24
    at the largest r of the call (_taylor_degree), so n <= 19.  A slice's
    result therefore depends on the other slices of the call: on their
    largest r, and, bit by bit, on its position in the product, whose
    rounding BLAS may order by the shape of the call.  |z_k| <= 2(1 + u)
    and ||b||_1 < 1, so no power, term or sum overflows, whatever ||m||_1
    is.

    Its error, in the 1-norm, with u = 2^-53 and r <= 1.  Truncation:
    ||e^(cm) - T_n|| <= r^(n+1)/(n+1)! e^r <= u/24.  _taylor_degree
    tests the tail against u/32, so that this holds for the exact radius
    although r and the tail are rounded: an r low by k ulps raises the
    tail by a factor of about 1 + (n + 2) k u.  Rounding, to first order
    in u, with gamma = sqrt(2) gamma_(d+2) bounding the error of a
    complex matrix product relative to the product of its factors'
    norms: a power j formed by doubling is j - 1 products deep, so b^j
    errs by at most (j - 1) gamma f^j and z^j by (j - 1) sqrt(2) gamma_2
    |z|^j (complex products); the scale by a rounded 1/j! adds 2u; the
    length-n complex inner products of the stacked product add
    sqrt(2) gamma_(n+2) sum_j r^j / j! <= sqrt(2) gamma_(n+2) (e^r - 1);
    and the + I adds u e^r.  As f^j |z|^j = r^j and
    sum_j (j - 1) r^j / j! = (r - 1) e^r + 1, the rounding error is at
    most eps0 = ((r - 1) e^r + 1)(gamma + sqrt(2) gamma_2)
    + (e^r - 1)(2u + sqrt(2) gamma_(n+2)) + u e^r: 66u at r = 1, d = 2
    and n = 19, and about u + (2u + sqrt(2) gamma_(n+2)) r as r -> 0.
    The product sums each slice's terms from the highest power down, the
    smallest first, which measured more accurate than the other order
    (BENCH_taylor_powers.json).

    expm(m): scaling and squaring around the Taylor side (Moler & Van
    Loan, sec. 3; Higham, SIMAX 26(4), 2005).  With r = ||m||_1, s is the
    smallest integer >= 0 with r 2^-s <= 1 (_squarings, exact), X_0 is
    T_n(2^-s m), the Taylor side at c = 2^-s, a matrix of 1-norm
    r 2^-s <= 1 (above 1/2 if s > 0), and X_(i+1) = X_i X_i for i < s.
    The scalings by powers of 2 are exact but for entries they take
    below the normal range, which move X_0 by under 2^-1074 each.  For r <= 1,
    s = 0 and expm(m) equals expm(m, [1.0])[0] bit for bit, C-ordered.
    No normality test picks a method, so a small non-normal matrix keeps
    its off-diagonal first-order term.

    Error of the squarings, to first order in u, with gamma as above.
    Let beta = e^(r 2^-s), so ||e^(2^(i-s) m)|| <= beta^(2^i).  An error
    e_i of X_i grows to e_(i+1) <= 2 beta^(2^i) e_i + gamma beta^(2^(i+1)),
    so ||X_s - e^m|| <= (2^s eps0 / beta + (2^s - 1) gamma) beta^(2^s)
    <= 2r (eps0 + gamma) e^r for s >= 1, as 2^s < 2r and beta >= 1;
    for s = 0 it is eps0.  Relative to ||e^m|| that is about
    2r (eps0 + gamma) where ||e^m|| is near e^||m||; where it is far
    smaller (a skew-Hermitian m, say) the squarings may lose more, as
    with any squaring method (Moler & Van Loan, sec. 3), and the bound
    is loose.  Measured against 40-digit mpmath, on dense, strictly
    upper-triangular and skew-Hermitian m with d <= 8 and r <= 32, the
    spectral-norm error relative to ||e^m|| was at most 17 eps over six
    seeds of 96 matrices (scipy.linalg.expm: 45 eps;
    BENCH_taylor_powers.json), and the tests hold it to 64 eps.

    The scalar-multiples form sends every c_k with r_k > 1 to
    scipy.linalg.expm, in one call on their stack: scaling and squaring
    around a Pade approximant whose degree and scaling are chosen from
    1-norm estimates (Al-Mohy & Higham, SIMAX 31(3), 2009).  scipy.linalg
    is imported by the first call that reaches it, so a process that
    calls expm(m) and expm(m, scalars) with r_k <= 1 only never loads
    scipy.  A call with such slices returns a C-ordered stack.

    A scalar array that is not 1-D, is empty or holds a non-finite value,
    and a product c_k m past the radius that overflows, raise ValueError.
    So does an exponential that overflows: an ||m||_1 that is not finite,
    or a result with a non-finite entry.
    """
    a = as_operator(m)
    if scalars is None:
        # |z| of finite entries may still overflow, and so may their sum
        with np.errstate(over="ignore"):
            r = float(np.abs(a).sum(axis=0).max())
        if not math.isfinite(r):
            raise ValueError(
                "the matrix exponential overflows: ||m||_1 is not finite"
            )
        s = _squarings(r)
        scale = np.full(1, math.ldexp(1.0, -s), dtype=np.complex128)
        e = _taylor_powers(a, scale, _taylor_degree(math.ldexp(r, -s)), r)
        e = e[0].T.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                e = e @ e
        return _finite(e, "e^m")
    c = np.asarray(scalars, dtype=np.complex128)
    if c.ndim != 1 or c.shape[0] == 0 or not np.isfinite(c).all():
        raise ValueError("scalars must be a nonempty 1-D array of finite numbers")
    d = a.shape[0]
    k = c.shape[0]
    # an r or a product that overflows is caught below: r = inf or nan
    # (0 inf) is not small, so the product lands in big
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max())
        r = np.abs(c) * norm
        top = float(r.max())
        if top <= 1.0:
            # every slice inside the radius: no masks, no scatter, and no
            # overflow to check for
            taylor = _taylor_powers(a, c, _taylor_degree(top), norm)
            return taylor.transpose(0, 2, 1)
        small = r <= 1.0
        big = c[~small, None, None] * a
    if not np.isfinite(big).all():
        raise ValueError("c_k m contains non-finite entries")
    # e^(c_k m) may overflow past the radius
    with np.errstate(over="ignore", invalid="ignore"):
        if big.shape[0]:
            import scipy.linalg

            big = scipy.linalg.expm(big)
    if not small.any():
        return _finite(big, "e^(c_k m)")
    out = np.empty((k, d, d), dtype=np.complex128)
    out[~small] = big
    taylor = _taylor_powers(a, c[small], _taylor_degree(r[small].max()), norm)
    out[small] = taylor.transpose(0, 2, 1)
    return _finite(out, "e^(c_k m)")


def _finite(e: np.ndarray, what: str) -> np.ndarray:
    """e, or ValueError naming the overflow unless every entry is finite."""
    if not np.isfinite(e).all():
        raise ValueError(
            f"the matrix exponential overflows: {what} came out non-finite"
        )
    return e


def _squarings(r: float) -> int:
    """Smallest integer s >= 0 with r 2^-s <= 1, for a finite r >= 0,
    exactly: r = f 2^e with 1/2 <= f < 1 (math.frexp), and f = 1/2 is
    r = 2^(e-1), which needs one squaring fewer."""
    f, e = math.frexp(r)
    return max(0, e - (f == 0.5))


def _taylor_degree(r: float) -> int:
    """Smallest n >= 1 with r^(n+1)/(n+1)! e^r <= 2^-58 as evaluated, for
    0 <= r <= 1.  2^-58 is u/32, not the u/24 the truncation bound needs
    (expm), so that r rounded low by a few ulps, and the rounding of the
    tail itself, cannot lower n; at r in {1e-5, 1e-3, 1e-2, 0.1, 0.5, 1}
    it gives the degrees of u/24."""
    bound = 0.5 * r * r * math.exp(r)
    n = 1
    while bound > 2.0**-58:
        n += 1
        bound *= r / (n + 1)
    return n


# 1/j! for j = 19 down to 1, 19 = _taylor_degree(1.0) being the
# highest degree of the Taylor side.  A tuple, as _PHI2_TAYLOR is: an
# import-time array moves the heap layout that the N = 1e5 temporaries
# of cesaro's jobs are sensitive to (see _kernels._right_factor)
_INV_FACTORIALS = tuple(1 / math.factorial(j) for j in range(19, 0, -1))


def _taylor_powers(a: np.ndarray, c: np.ndarray, n: int, norm: float) -> np.ndarray:
    """C-ordered (k, d, d) stack of T_n(c_k a)^T = sum_{j<=n} (c_k a^T)^j / j!,
    for 1 <= n <= 19, norm = ||a||_1 and every |c_k| norm <= 1 (expm).

    With norm = f 2^e, 1/2 <= f < 1 (f = e = 0 for a = 0, where n = 1),
    the powers of B = 2^-e a^T and of z_k = 2^e c_k are formed by
    doubling: powers m + 1 .. m + h are power m times powers 1 .. h,
    h <= m, one stacked matmul of (d, d) tables and one multiply of
    k-rows per step.  Row n - j of the (n, d, d) table q and of the (n, k)
    table t holds power j, so the one product t^T @ q sums each slice's
    terms from the smallest up.  The rows of q are scaled by 1/j! first,
    and I is added to the diagonals of the product last."""
    d = a.shape[0]
    k = c.shape[0]
    e = math.frexp(norm)[1]
    q = np.empty((n, d, d), dtype=np.complex128)
    t = np.empty((n, k), dtype=np.complex128)
    q[-1] = a.T
    t[-1] = c
    for x, shift in ((q[-1], -e), (t[-1], e)):
        np.ldexp(x.view(np.float64), shift, out=x.view(np.float64))
    m = 1
    while m < n:
        h = min(m, n - m)
        np.matmul(q[n - m], q[n - h :], out=q[n - m - h : n - m])
        np.multiply(t[n - m], t[n - h :], out=t[n - m - h : n - m])
        m += h
    q *= np.array(_INV_FACTORIALS[19 - n :])[:, None, None]
    out = np.empty((k, d, d), dtype=np.complex128)
    flat = out.reshape(k, d * d)
    np.matmul(t.T, q.reshape(n, d * d), out=flat)
    flat[:, :: d + 1] += 1.0
    return out


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


def json_number(value: float) -> float | None:
    """value for strict JSON: a float, or None (null) where it is not finite."""
    return float(value) if math.isfinite(value) else None


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
    parts = _plain_parts(entries)
    if parts is not None:
        return parts.view(np.complex128).reshape(dim, dim)
    # another numbers.Real type, or a bad entry, which the loop names
    flat = np.empty(dim * dim, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"entry {k} must be a [re, im] pair, got {pair!r}")
        flat[k] = complex(
            require_real(pair[0], f"entry {k} real part"),
            require_real(pair[1], f"entry {k} imaginary part"),
        )
    return flat.reshape(dim, dim)


def _plain_parts(entries: list) -> np.ndarray | None:
    """The [re, im] pairs' parts as one float64 array, or None unless every
    pair is a list of two floats or ints (what json.load gives; bools are
    not ints here) whose floats are finite.  The parts convert as float()
    converts them, so the result equals the per-entry require_real's."""
    if not all(
        type(pair) is list
        and len(pair) == 2
        and type(pair[0]) in (float, int)
        and type(pair[1]) in (float, int)
        for pair in entries
    ):
        return None
    try:
        parts = np.fromiter(
            itertools.chain.from_iterable(entries), np.float64, 2 * len(entries)
        )
    except OverflowError:  # an int past the float range, such as 10**400
        return None
    return parts if np.isfinite(parts).all() else None


def save_matrix(m, path: str | PathLike) -> None:
    """Write a matrix to path in the JSON interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_dict(m), fh, sort_keys=True)
        fh.write("\n")


def load_matrix(path: str | PathLike) -> np.ndarray:
    """Read a matrix from the JSON interchange format."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json_dict(json.load(fh))
