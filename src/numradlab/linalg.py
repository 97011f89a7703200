"""Dense complex matrix kernels: adjoint, Hermitian eigendecomposition,
operator norm, absolute value, functional calculus, and order tests.

All operations work on square ``complex128`` arrays and are pure functions
of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotInvertible, NotPositive

# Relative tolerance for accepting an input as Hermitian.
EPS_HERM = 1e-10
# Relative spectral cutoff below which negative powers refuse to evaluate.
INV_CUTOFF = 1e-10
# Slack granted to closed domain endpoints (absorbs eigenvalue roundoff).
PSD_SLACK = 1e-12


def as_matrix(A) -> np.ndarray:
    """Validate and return a square finite complex matrix."""
    return _as_square(A, 2)


def _as_square(A, ndim):
    """Validate and return a finite complex array of ndim dimensions whose
    last two are square: a matrix at ndim 2, a stack of them at ndim 3."""
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != ndim or M.shape[-1] != M.shape[-2] or M.shape[-1] < 1:
        what = "square matrix" if ndim == 2 else "stack of square matrices"
        raise ValueError(f"expected a {what}, got shape {M.shape}")
    if not np.isfinite(M).all():  # both parts of every entry
        raise ValueError("matrix entries must be finite")
    return M


def adjoint(A) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(A, dtype=np.complex128).T)


def hermitian_part(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    return (A + A.conj().T) / 2


def _pow2_scaled(A):
    """(A * 2**-e, e) such that sums of squares of the scaled entries neither
    overflow nor underflow. In range, e = 0 and A is returned as it is;
    otherwise e brings the largest real or imaginary part into [1/2, 1),
    and the scaling is exact."""
    if 2.0**-500 < np.abs(A).max() < 2.0**500:
        return A, 0
    e = int(np.frexp(max(np.abs(A.real).max(), np.abs(A.imag).max()))[1])
    e = max(e, -1023)  # 2**1023 is the largest finite power of two
    return A * np.ldexp(1.0, -e), e


def check_hermitian(H, eps=EPS_HERM) -> np.ndarray:
    """Assert H is Hermitian up to eps*||H|| and return its symmetrization.

    The norms are taken in power-of-two-scaled units (see ``_pow2_scaled``),
    so they neither overflow nor underflow.
    """
    H = as_matrix(H)
    S, e = _pow2_scaled(H)
    scale = np.linalg.norm(S)
    dev = np.linalg.norm(S - S.conj().T)
    if dev > eps * scale:
        raise NotHermitian(
            f"matrix deviates from Hermitian by {math.ldexp(dev, e):.3e} (scale {math.ldexp(scale, e):.3e})"
        )
    return (H + H.conj().T) / 2


def _eigh(H):
    """Diagonalize an exactly Hermitian matrix without re-validating it."""
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition H = V diag(eigenvalues) V* with ascending eigenvalues."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def hermitian_eigen(H, eps_res=None) -> HermitianEigen:
    """Diagonalize a Hermitian matrix and verify the residual contract.

    Raises NotHermitian if the input is not Hermitian within EPS_HERM, and
    NoConvergence if the factorization misses the residual target
    ``eps_res * (1 + ||H||)`` (default eps_res = 1e-11 * n).
    """
    H = check_hermitian(H)
    n = H.shape[0]
    if eps_res is None:
        eps_res = 1e-11 * n
    lam, V = _eigh(H)
    scale = 1.0 + float(np.abs(lam).max(initial=0.0))
    resid = np.linalg.norm(H @ V - V * lam, 2)
    unit = np.linalg.norm(V.conj().T @ V - np.eye(n), 2)
    if resid > eps_res * scale or unit > eps_res:
        raise NoConvergence(
            f"eigendecomposition residual {resid:.3e} / unitarity {unit:.3e} "
            f"exceed budget {eps_res:.3e}"
        )
    return HermitianEigen(eigenvalues=lam, vectors=V)


def operator_norm(A) -> float:
    """Largest singular value, computed from the Gram matrix spectrum."""
    A, e = _pow2_scaled(as_matrix(A))
    lam = np.linalg.eigvalsh(hermitian_part(A.conj().T @ A))
    return math.ldexp(math.sqrt(max(float(lam[-1]), 0.0)), e)


def norm_hermitian(H) -> float:
    """Operator norm of a Hermitian matrix (largest |eigenvalue|)."""
    lam = np.linalg.eigvalsh((H + H.conj().T) / 2)
    return float(max(abs(lam[0]), abs(lam[-1])))


def _gram_eigh(A, adjoint_side=False):
    """Singular values and vectors of A from the spectrum of A*A (or A A*),
    formed in power-of-two-scaled units so the squares stay in range."""
    A, e = _pow2_scaled(as_matrix(A))
    G = A @ A.conj().T if adjoint_side else A.conj().T @ A
    lam, V = _eigh((G + G.conj().T) / 2)
    return np.ldexp(np.sqrt(np.clip(lam, 0.0, None)), e), V


def abs_operator(A) -> np.ndarray:
    """Positive square root of A*A."""
    root, V = _gram_eigh(A)
    return hermitian_part((V * root) @ V.conj().T)


def gram_function(A, fn, adjoint_side=False):
    """Apply ``t -> fn(sqrt(t))`` to the spectrum of A*A, i.e. compute fn(|A|).

    With adjoint_side=True computes fn(|A*|) from A A* instead.
    """
    sv, V = _gram_eigh(A, adjoint_side)
    vals = fn(sv)
    return hermitian_part((V * vals) @ V.conj().T)


def abs_power(A, p, adjoint_side=False):
    """|A|**p (or |A*|**p) via the Gram spectrum."""
    return gram_function(A, lambda s: s**p, adjoint_side=adjoint_side)


def apply_scalar_function(f, H) -> np.ndarray:
    """Evaluate f on a Hermitian matrix through the spectral decomposition.

    ``f`` must be vectorized over eigenvalue arrays; it is responsible for its
    own domain checks (ScalarFunction raises DomainViolation).
    """
    H = check_hermitian(H)
    lam, V = _eigh(H)
    vals = np.asarray(f(lam), dtype=np.float64)
    return hermitian_part((V * vals) @ V.conj().T)


def hermitian_power(H, p) -> np.ndarray:
    """H**p for Hermitian H via functional calculus.

    Fractional powers clip eigenvalues that are negative within roundoff;
    genuinely negative spectra raise NotPositive. Negative powers require
    the spectrum to clear the relative invertibility cutoff.
    """
    H = check_hermitian(H)
    lam, V = _eigh(H)
    scale = float(np.abs(lam).max(initial=0.0))
    if p < 0 and lam[0] <= INV_CUTOFF * max(scale, 1.0):
        raise NotInvertible(f"min eigenvalue {lam[0]:.3e} below invertibility cutoff")
    if p != int(p):
        if lam[0] < -PSD_SLACK * (1.0 + scale):
            raise NotPositive(f"min eigenvalue {lam[0]:.3e} negative beyond tolerance")
        lam = np.clip(lam, 0.0, None)
    vals = lam**p
    return hermitian_part((V * vals) @ V.conj().T)


def lambda_min(H) -> float:
    """Smallest eigenvalue; equals the infimum of <Hx,x> over unit vectors."""
    H = check_hermitian(H)
    return float(np.linalg.eigvalsh(H)[0])


def lambda_max(H) -> float:
    """Largest eigenvalue; equals the supremum of <Hx,x> over unit vectors."""
    H = check_hermitian(H)
    return float(np.linalg.eigvalsh(H)[-1])


def loewner_leq(A, B, tol=1e-10) -> bool:
    """Test A <= B in the positive semidefinite order, up to relative slack.

    True iff lambda_min(B - A) >= -tol * (1 + ||A|| + ||B||).
    """
    A = check_hermitian(A)
    B = check_hermitian(B)
    if A.shape != B.shape:
        from .errors import DimensionMismatch

        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    gap = float(np.linalg.eigvalsh(B - A)[0])
    scale = 1.0 + norm_hermitian(A) + norm_hermitian(B)
    return gap >= -tol * scale
