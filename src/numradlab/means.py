"""The weighted geometric mean, the f-connection with its f^2 companion, and
the scalar refinement factor of the gamma-refined product bound."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidBounds, NotInvertible, NotPositive
from .linalg import _clears, _first, _on_rows, _spectral, check_hermitian, hermitian_part, hermitian_power


def _check_weight(v):
    v = float(v)
    if not 0.0 < v < 1.0:
        raise InvalidBounds(f"weight v must lie in (0, 1), got {v:g}")
    return v


def pd_roots(A):
    """(A^{1/2}, A^{-1/2}) for a positive invertible matrix (or stack), one
    factorization; any matrix that fails raises for the stack."""
    lam, V = np.linalg.eigh(check_hermitian(A))
    scale = np.abs(lam).max(axis=-1, initial=0.0)
    low = lam[..., 0]
    negative = ~_clears(low, scale)
    if negative.any():
        raise NotPositive(f"A has negative eigenvalue {low[_first(negative)]:.3e}")
    singular = ~_clears(low, scale, invertible=True)
    if singular.any():
        raise NotInvertible(f"A min eigenvalue {low[_first(singular)]:.3e} is below the invertibility cutoff")
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
    return hermitian_part(half @ hermitian_power(inv_half @ B @ inv_half, v) @ half)


def f_connection(A, B, f):
    """The f-connection A^{1/2} f(M) A^{1/2}, M = A^{-1/2} B A^{-1/2}, for
    positive invertible A and Hermitian B, and A^{1/2} f(M)^2 A^{1/2} from the
    same spectrum of M, left unsymmetrized for a caller that symmetrizes a
    product of it. f = t^v gives A #_v B, and f = t gives B. For stacks,
    ``f`` may be a sequence of one function per pair (see ``_on_rows``)."""
    A = np.asarray(A, dtype=np.complex128)
    B = check_hermitian(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    half, inv_half = pd_roots(A)
    lam, V = np.linalg.eigh(hermitian_part(inv_half @ B @ inv_half))
    vals = _on_rows(f, lam)  # DomainViolation if the spectrum escapes f's domain
    return hermitian_part(half @ _spectral(V, vals) @ half), half @ _spectral(V, vals**2) @ half


def gamma_factor(m_lo, M_hi) -> float:
    """(1 - (1 - 1/h')^2 / 8)^{-1} with h' = M_hi / m_lo; equals 1 at h' = 1."""
    m_lo = float(m_lo)
    M_hi = float(M_hi)
    if not 0.0 < m_lo <= M_hi:
        raise InvalidBounds(f"need 0 < m_lo <= M_hi, got ({m_lo:g}, {M_hi:g})")
    h = M_hi / m_lo
    return 1.0 / (1.0 - (1.0 - 1.0 / h) ** 2 / 8.0)
