"""Deterministic random-instance generation.

Every draw is a pure function of (seed, index, stream tag) through a
counter-based Philox generator, so parallel evaluation cannot perturb the
streams. Structured kinds are constructive (spectra designed first, then
conjugated by Haar-approximate unitaries) rather than rejection-sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBounds, UnsupportedParameter
from .functions import SchwarzPair, schwarz_power_pair
from .linalg import adjoint, gram_function, hermitian_part
from .radius import complex_gaussian, stream_rng

KINDS = (
    "generic",
    "normal",
    "square-zero",
    "positive",
    "positive-invertible",
    "ordered-pair",
    "sandwich-triple",
)


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for deterministic random matrices of one structural kind."""

    dim: int
    kind: str = "generic"
    scale: float = 1.0
    seed: int = 0
    lam_lo: float = 0.5
    lam_hi: float = 4.0
    gap: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidBounds("dim must be >= 1")
        if self.kind not in KINDS:
            raise UnsupportedParameter(f"unknown ensemble kind {self.kind!r} (valid: {', '.join(KINDS)})")
        if self.scale <= 0:
            raise InvalidBounds("scale must be positive")
        if self.kind == "positive-invertible" and not 0 < self.lam_lo <= self.lam_hi:
            raise InvalidBounds("need 0 < lam_lo <= lam_hi")
        if self.kind in ("ordered-pair", "sandwich-triple") and self.gap <= 0:
            raise InvalidBounds("gap must be positive")


@dataclass(frozen=True)
class SandwichSample:
    """Constructed (A, B, X, f, g) with verified scalar sandwich bounds."""

    A: np.ndarray
    B: np.ndarray
    X: np.ndarray
    pair: SchwarzPair
    m: float
    M: float


def haar_unitary(rng, n) -> np.ndarray:
    """Haar-approximate unitary from a QR of a complex Gaussian matrix."""
    Z = complex_gaussian(rng, (n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    ph = np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1, d)), 1.0)
    return Q * ph


def generic_matrix(rng, n, scale=1.0):
    return complex_gaussian(rng, (n, n)) * scale


def normal_matrix(rng, n, scale=1.0):
    U = haar_unitary(rng, n)
    lam = complex_gaussian(rng, n) * scale
    return (U * lam) @ U.conj().T


def square_zero_matrix(rng, n, scale=1.0):
    if n == 1:
        return np.zeros((1, 1), dtype=np.complex128)
    k = n // 2
    M = np.zeros((n, n), dtype=np.complex128)
    M[:k, k:] = complex_gaussian(rng, (k, n - k)) * scale
    U = haar_unitary(rng, n)
    return U @ M @ U.conj().T


def positive_matrix(rng, n, scale=1.0):
    G = complex_gaussian(rng, (n, n)) * scale
    return hermitian_part(G.conj().T @ G)


def positive_invertible_matrix(rng, n, lam_lo, lam_hi, scale=1.0):
    V = haar_unitary(rng, n)
    lam = rng.uniform(lam_lo * scale, lam_hi * scale, size=n)
    return hermitian_part((V * lam) @ V.conj().T)


def ordered_pair(rng, n, scale=1.0, gap=1.0):
    A = hermitian_part(generic_matrix(rng, n, scale))
    W = complex_gaussian(rng, (n, n))
    P = hermitian_part(W.conj().T @ W)
    top = float(np.linalg.eigvalsh(P)[-1])
    P *= gap * (1.0 + rng.uniform()) / top
    return A, hermitian_part(A + P)


def sandwich_operands(rng, n, gap=1.0):
    """Draw (A, B, X, pair) with lambda_max(B* f^2(|X|) B) + gap below
    lambda_min(A* g^2(|X*|) A), plus a comfortable multiplicative margin.

    Bands: X singular values in [1, 1.3], B spectrum in [0.7, 1], A spectrum
    sized so the upper block clears both the additive gap and a ratio of 3,
    which keeps the pointwise refined AM-GM factors valid on every unit
    vector (needed by the gamma-refined product bound).
    """
    alpha = rng.uniform(0.25, 0.75)
    pair = schwarz_power_pair(alpha)
    sig = rng.uniform(1.0, 1.3, size=n)
    X = (haar_unitary(rng, n) * sig) @ haar_unitary(rng, n).conj().T
    B = positive_invertible_matrix(rng, n, 0.7, 1.0)
    s_cap = 1.3 ** (2 * alpha)  # >= lambda_max(B* f^2(|X|) B)
    target = max(3.0 * s_cap, s_cap + gap) * 1.15
    a_lo = np.sqrt(target)
    A = positive_invertible_matrix(rng, n, a_lo, 1.25 * a_lo)
    return A, B, X, pair


def sandwich_triple(rng, n, gap=1.0):
    """``sandwich_operands`` with the attained sandwich bounds m and M."""
    A, B, X, pair = sandwich_operands(rng, n, gap)
    f, g = pair.f, pair.g
    S = hermitian_part(adjoint(B) @ gram_function(X, lambda s: np.asarray(f(s)) ** 2) @ B)
    T = hermitian_part(
        adjoint(A) @ gram_function(X, lambda s: np.asarray(g(s)) ** 2, adjoint_side=True) @ A
    )
    m = float(np.linalg.eigvalsh(S)[-1])
    M = float(np.linalg.eigvalsh(T)[0])
    return SandwichSample(A=A, B=B, X=X, pair=pair, m=m, M=M)


def sample(spec: EnsembleSpec, index: int, stream: str = "0"):
    """Draw the instance for (spec.seed, index); deterministic and pure.

    ``stream`` separates independent draws of the same kind within one
    logical instance (e.g. the A-side and B-side of a pair).
    """
    rng = stream_rng(spec.seed, f"ensemble:{spec.kind}:{stream}", index)
    n = spec.dim
    if spec.kind == "generic":
        return generic_matrix(rng, n, spec.scale)
    if spec.kind == "normal":
        return normal_matrix(rng, n, spec.scale)
    if spec.kind == "square-zero":
        return square_zero_matrix(rng, n, spec.scale)
    if spec.kind == "positive":
        return positive_matrix(rng, n, spec.scale)
    if spec.kind == "positive-invertible":
        return positive_invertible_matrix(rng, n, spec.lam_lo, spec.lam_hi, spec.scale)
    if spec.kind == "ordered-pair":
        return ordered_pair(rng, n, spec.scale, spec.gap)
    return sandwich_triple(rng, n, spec.gap)


def sample_unit_vector(dim, seed, index) -> np.ndarray:
    """Normalized complex Gaussian vector, deterministic in (seed, index)."""
    rng = stream_rng(seed, "unit-vector", index)
    z = complex_gaussian(rng, dim)
    nrm = np.linalg.norm(z)
    if nrm == 0.0:  # pragma: no cover - probability zero
        z = np.zeros(dim, dtype=np.complex128)
        z[0] = 1.0
        return z
    return z / nrm
