"""Weighted operator means, the f-connection, the deformed exponential, and
the scalar refinement factors used by the conditioned product bounds."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainViolation, InvalidBounds, NotInvertible, NotPositive, UnsupportedParameter
from .functions import ScalarFunction
from .linalg import INV_CUTOFF, PSD_SLACK, _eigh, _first, _spectral, check_hermitian, hermitian_part


def _positive_spectrum(A, name, invertible):
    """Eigendecomposition of a positive (optionally invertible) operand, or
    of each matrix of a stack; any matrix that fails raises for the stack."""
    A = check_hermitian(A)
    lam, V = _eigh(A)
    scale = np.maximum(np.abs(lam).max(axis=-1, initial=0.0), 1.0)
    low = lam[..., 0]
    negative = low < -PSD_SLACK * scale
    if negative.any():
        raise NotPositive(f"{name} has negative eigenvalue {low[_first(negative)]:.3e}")
    singular = low <= INV_CUTOFF * scale
    if invertible and singular.any():
        raise NotInvertible(f"{name} min eigenvalue {low[_first(singular)]:.3e} is below the invertibility cutoff")
    return np.clip(lam, 0.0, None), V


def _check_weight(v):
    v = float(v)
    if not 0.0 < v < 1.0:
        raise InvalidBounds(f"weight v must lie in (0, 1), got {v:g}")
    return v


def weighted_arithmetic(A, B, v) -> np.ndarray:
    """(1 - v) A + v B."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    v = _check_weight(v)
    return (1.0 - v) * A + v * B


def pd_roots(A):
    """(A^{1/2}, A^{-1/2}) for a positive invertible matrix (or stack), one
    factorization."""
    lam, V = _positive_spectrum(A, "A", invertible=True)
    root = np.sqrt(lam)
    return _spectral(V, root), _spectral(V, 1.0 / root)


def weighted_geometric(A, B, v) -> np.ndarray:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^v A^{1/2} for positive A (invertible), B
    PSD, or for each pair of two stacks."""
    v = _check_weight(v)
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    half, inv_half = pd_roots(A)
    mid = inv_half @ B @ inv_half
    lam, V = _positive_spectrum(mid, "A^{-1/2} B A^{-1/2}", invertible=False)
    return hermitian_part(half @ _spectral(V, lam**v) @ half)


def f_connection(A, B, f: ScalarFunction) -> np.ndarray:
    """A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}; generalizes both weighted means."""
    A = np.asarray(A, dtype=np.complex128)
    B = check_hermitian(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    half, inv_half = pd_roots(A)
    mid = hermitian_part(inv_half @ B @ inv_half)
    lam, V = _eigh(mid)
    vals = f(lam)  # DomainViolation if the spectrum escapes f's domain
    return hermitian_part(half @ _spectral(V, vals) @ half)


def deformed_exp(r, x) -> float:
    """(1 + r x)**(1/r); undefined for r = 0 or 1 + r x <= 0."""
    r = float(r)
    x = float(x)
    if r == 0.0:
        raise UnsupportedParameter("deformed exponential is undefined for r = 0")
    base = 1.0 + r * x
    if base <= 0.0:
        raise DomainViolation(f"1 + r*x = {base:g} must be positive")
    return base ** (1.0 / r)


def gamma_factor(m_lo, M_hi) -> float:
    """(1 - (1 - 1/h')^2 / 8)^{-1} with h' = M_hi / m_lo; equals 1 at h' = 1."""
    m_lo = float(m_lo)
    M_hi = float(M_hi)
    if not 0.0 < m_lo <= M_hi:
        raise InvalidBounds(f"need 0 < m_lo <= M_hi, got ({m_lo:g}, {M_hi:g})")
    h = M_hi / m_lo
    return 1.0 / (1.0 - (1.0 - 1.0 / h) ** 2 / 8.0)


def refined_amgm_factor(m, M) -> float:
    """(M + m) / (2 sqrt(M m)) >= 1 for 0 < m < M."""
    m = float(m)
    M = float(M)
    if not 0.0 < m < M:
        raise InvalidBounds(f"need 0 < m < M, got ({m:g}, {M:g})")
    return (M + m) / (2.0 * np.sqrt(M * m))
