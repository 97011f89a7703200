"""Dense complex matrix kernels: adjoint, Hermitian part and check, the SVD
kernels (singular values, operator norm, functions of |A| and |A*|,
Kittaneh's bound), functional calculus, Hermitian powers, and the Loewner
order test.

All operations are pure functions of ``complex128`` input; a LAPACK failure
propagates as the ``np.linalg.LinAlgError`` that numpy raises. Besides
square matrices, the kernels the catalog evaluates with take (m, n, n)
stacks and return one result per matrix: ``adjoint``, ``hermitian_part``,
``check_hermitian``, ``singular_values``, ``operator_norm``,
``norm_hermitian``, ``abs_sides``, ``kittaneh_bound``,
``apply_scalar_function``, ``hermitian_power`` and ``loewner_leq``. Each
matrix's result is bitwise what it is alone, because stacked matmul, eigh,
eigvalsh and svd are, and two rules keep it so: a per-matrix exponent or
function is applied to that matrix's eigenvalue or singular value row alone,
and Frobenius norms of a stack (not bitwise those of its matrices) only
decide pass/fail tests.

|A|, |A*|, the singular values and the operator norm come from one
backward-stable SVD A = U S V*, never from a spectrum of A*A or AA*, which
would square the operand's range and turn eps-level roundoff into
sqrt(eps)-level error.

Roundoff tests scale with the magnitudes they compare. ``_clears`` decides
positivity, invertibility, the Loewner order and (for ``functions``) a
function's domain; ``_leq`` decides every link, with the last absolute floor.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotInvertible, NotPositive

# Relative tolerance for accepting an input as Hermitian.
EPS_HERM = 1e-10
# Relative margin by which a spectrum must clear zero to count as invertible.
INV_CUTOFF = 1e-10
# Relative slack by which a nonnegative spectrum may dip below zero (roundoff).
PSD_SLACK = 1e-12
# Default relative tolerance of a link (``_leq``) in certify, search and radius.
_LINK_TOL = 1e-8


def _clears(low, scale, invertible=False):
    """Whether a least eigenvalue is nonnegative within roundoff (if invertible, clear of zero), relative to scale."""
    return low > INV_CUTOFF * scale if invertible else low >= -PSD_SLACK * scale


def _leq(lhs, rhs, tol_rel):
    """Whether the link lhs <= rhs holds within tol_rel relative to 1 + |lhs| + |rhs|."""
    return rhs - lhs >= -tol_rel * (1.0 + abs(lhs) + abs(rhs))


def _as_square(A):
    """Validate and return a finite complex square matrix, or a 3-D stack of them."""
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] < 1:
        what = "stack of square matrices" if M.ndim == 3 else "square matrix"
        raise ValueError(f"expected a {what}, got shape {M.shape}")
    if not np.isfinite(M).all():  # both parts of every entry
        raise ValueError("matrix entries must be finite")
    return M


def _adj(A):
    """Conjugate transpose of a complex array (of each matrix of a stack)."""
    return A.conj().swapaxes(-1, -2)


def adjoint(A) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return _adj(np.asarray(A, dtype=np.complex128))


def hermitian_part(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    return (A + _adj(A)) / 2


def _pow2_rows(A):
    """(A * 2**-e, e) with one exponent e per matrix of a stack (an int for a
    matrix), such that sums of squares of the scaled entries neither overflow
    nor underflow. In range, e = 0 and the matrix is kept as it is;
    otherwise e brings its largest real or imaginary part into [1/2, 1), and
    the scaling is exact."""
    top = np.abs(A).max(axis=(-2, -1))
    out = ~((2.0**-500 < top) & (top < 2.0**500))
    if not out.any():
        return A, (0 if A.ndim == 2 else np.zeros(len(A), dtype=int))
    parts = np.maximum(np.abs(A.real).max(axis=(-2, -1)), np.abs(A.imag).max(axis=(-2, -1)))
    e = np.where(out, np.maximum(np.frexp(parts)[1], -1023), 0)  # 2**1023 is the largest finite power of two
    S = np.where(out[..., None, None], A * np.ldexp(1.0, -e)[..., None, None], A)
    return S, (int(e) if A.ndim == 2 else e)


def check_hermitian(H) -> np.ndarray:
    """Assert H is Hermitian up to EPS_HERM*||H|| and return its symmetrization.

    The norms are taken in power-of-two-scaled units (see ``_pow2_rows``),
    so they neither overflow nor underflow. A stack passes when each of its
    matrices does; the test, not its Frobenius norms, is bitwise that of the
    matrices alone.
    """
    H = _as_square(H)
    S, e = _pow2_rows(H)
    axes = (-2, -1) if H.ndim == 3 else None
    scale = np.linalg.norm(S, axis=axes)
    dev = np.linalg.norm(S - _adj(S), axis=axes)
    bad = dev > EPS_HERM * scale
    if bad.any():
        k = np.flatnonzero(bad)[0] if H.ndim == 3 else ()
        e_k = int(np.asarray(e)[k])
        raise NotHermitian(
            f"matrix deviates from Hermitian by {math.ldexp(dev[k], e_k):.3e} (scale {math.ldexp(scale[k], e_k):.3e})"
        )
    return (H + _adj(H)) / 2


def singular_values(A):
    """Singular values in ascending order, from one SVD; one row of them per
    matrix of a stack."""
    return np.linalg.svd(_as_square(A), compute_uv=False)[..., ::-1]


def operator_norm(A):
    """Largest singular value (``singular_values``); an array of them for a
    stack."""
    top = singular_values(A)[..., -1]
    return float(top) if top.ndim == 0 else top


def norm_hermitian(H):
    """Operator norm of a Hermitian matrix (largest |eigenvalue|); an array
    of them for a stack."""
    H = np.asarray(H)
    lam = np.linalg.eigvalsh((H + _adj(H)) / 2)
    top = np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))
    return float(top) if top.ndim == 0 else top


def _spectral(V, vals):
    """V diag(vals) V*, symmetrized; vals holds one row per matrix of V."""
    return hermitian_part((V * vals[..., None, :]) @ _adj(V))


def _on_rows(side, x):
    """side on the rows of x: an exponent or a function for all rows, or a
    sequence of one per row.

    A scalar exponent takes numpy's sqrt, square and reciprocal fast paths
    (p = 0.5, 2, -1) and an array of exponents does not, so rows that share
    an exponent are raised by that scalar: each row is then bitwise what it
    is alone. A ScalarFunction's domain test sees all the values it is
    given, so a sequence of functions goes one per row.
    """
    if callable(side):
        return side(x)
    if np.ndim(side) == 0:
        return x ** float(side)
    if callable(side[0]):
        return np.stack([fk(row) for fk, row in zip(side, x, strict=True)])
    groups = {}
    for k, q in enumerate(side):
        groups.setdefault(float(q), []).append(k)
    out = np.empty_like(x)
    for q, rows in groups.items():
        out[rows] = x[rows] ** q
    return out


def abs_sides(A, *fwd, adj=None):
    """Functions of |A| and |A*| from one SVD A = U S V*, as |A| = V S V* and
    |A*| = U S U*: each side of ``fwd`` read on |A|, then ``adj`` read on
    |A*|; a single reading alone, else a tuple of them.

    Each side is an exponent or a function, with one per matrix for a stack
    (see ``_on_rows``).
    """
    U, s, Vh = np.linalg.svd(_as_square(A))
    reads = [_spectral(_adj(Vh), _on_rows(side, s)) for side in fwd]
    if adj is not None:
        reads.append(_spectral(U, _on_rows(adj, s)))
    return reads[0] if len(reads) == 1 else tuple(reads)


def kittaneh_bound(A):
    """Kittaneh's upper bound || |A| + |A*| || / 2 on w(A), and ||A||, from
    one SVD A = U S V*, as lambda_max(U S U* + V S V*) / 2; arrays of them
    for a stack."""
    M = _as_square(A)
    U, s, Vh = np.linalg.svd(M)
    S = s[..., None, :]
    bound = np.linalg.eigvalsh((U * S) @ _adj(U) + (_adj(Vh) * S) @ Vh)[..., -1] / 2
    if M.ndim == 2:
        return float(bound), float(s[0])
    return bound, s[..., 0]


def apply_scalar_function(f, H) -> np.ndarray:
    """Evaluate f on a Hermitian matrix through the spectral decomposition.

    ``f`` must be vectorized over eigenvalue arrays; it is responsible for its
    own domain checks (ScalarFunction raises DomainViolation). For a stack,
    ``f`` may be a sequence of one function per matrix (see ``_on_rows``).
    """
    H = check_hermitian(H)
    lam, V = np.linalg.eigh(H)
    return _spectral(V, np.asarray(_on_rows(f, lam), dtype=np.float64))


def _first(rows):
    """Index of the first true row of a boolean stack test, or () for a matrix."""
    return np.flatnonzero(rows)[0] if np.ndim(rows) else ()


def hermitian_power(H, p) -> np.ndarray:
    """H**p for Hermitian H via functional calculus.

    Fractional powers clip eigenvalues that are negative within roundoff;
    genuinely negative spectra raise NotPositive. Negative powers require
    the spectrum to clear the relative invertibility cutoff. For a stack, p
    may hold one exponent per matrix, and any matrix that fails a test
    raises for the stack.
    """
    H = check_hermitian(H)
    lam, V = np.linalg.eigh(H)
    q = np.broadcast_to(np.asarray(p, dtype=np.float64), lam.shape[:-1])
    scale = np.abs(lam).max(axis=-1, initial=0.0)
    low = lam[..., 0]
    refused = (q < 0) & ~_clears(low, scale, invertible=True)
    if refused.any():
        raise NotInvertible(f"min eigenvalue {low[_first(refused)]:.3e} below invertibility cutoff")
    fractional = q != np.trunc(q)
    negative = fractional & ~_clears(low, scale)
    if negative.any():
        raise NotPositive(f"min eigenvalue {low[_first(negative)]:.3e} negative beyond tolerance")
    if fractional.any():
        lam = np.where(fractional[..., None], np.clip(lam, 0.0, None), lam)
    return _spectral(V, _on_rows(p, lam))


def loewner_leq(A, B) -> bool:
    """Test A <= B in the positive semidefinite order, up to relative slack.

    True iff lambda_min(B - A) >= -PSD_SLACK * (||A|| + ||B||), at any
    magnitude; for stacks, an array of one verdict per pair. The norms are
    taken only where the gap is negative, as a nonnegative gap clears any scale.
    """
    A = check_hermitian(A)
    B = check_hermitian(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    gap = np.linalg.eigvalsh(B - A)[..., 0]
    ok = np.array(gap >= 0.0)
    if not ok.all():
        low = ~ok
        ok[low] = _clears(gap[low], norm_hermitian(A[low]) + norm_hermitian(B[low]))
    return bool(ok) if ok.ndim == 0 else ok
