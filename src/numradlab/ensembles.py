"""Deterministic random-instance generation.

Every draw is a pure function of (seed, index, stream tag) through a
counter-based Philox generator, so the order of evaluation cannot perturb
the streams. Structured kinds are constructive (spectra designed first, then
conjugated by Haar-approximate unitaries) rather than rejection-sampled.
Each kind draws one matrix; ``ordered_pair`` and ``sandwich_operands``
construct operand tuples from caller-supplied generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBounds, UnsupportedParameter
from .linalg import _adj, _spectral, hermitian_part
from .radius import complex_gaussian, stream_rng

KINDS = (
    "generic",
    "normal",
    "square-zero",
    "positive",
    "positive-invertible",
)
# Spectral band of positive-invertible draws, before scaling.
_PI_LO, _PI_HI = 0.5, 3.0


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for deterministic random dim x dim matrices of one ``KINDS``
    entry, drawn from ``seed`` at magnitude ``scale``; positive-invertible
    spectra lie in [0.5, 3] * scale."""

    dim: int
    kind: str = "generic"
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidBounds("dim must be >= 1")
        if self.kind not in KINDS:
            raise UnsupportedParameter(f"unknown ensemble kind {self.kind!r} (valid: {', '.join(KINDS)})")
        if self.scale <= 0:
            raise InvalidBounds("scale must be positive")


def _haar(Z):
    """Haar-approximate unitaries from the QRs of complex Gaussian matrices;
    Z may be a stack of any depth, factored by one QR call."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    ph = np.where(np.abs(d) > 0, d / np.abs(np.where(d == 0, 1, d)), 1.0)
    return Q * ph[..., None, :]


def _kind_draws(spec, rng):
    """The random numbers of one draw of a matrix kind, in stream order."""
    n = spec.dim
    if spec.kind in ("generic", "positive"):
        return (complex_gaussian(rng, (n, n)),)
    if spec.kind == "normal":  # Haar factor, then eigenvalues
        return complex_gaussian(rng, (n, n)), complex_gaussian(rng, n)
    if spec.kind == "square-zero":  # the off-diagonal block, then the Haar factor
        if n == 1:
            return ()
        return complex_gaussian(rng, (n // 2, n - n // 2)), complex_gaussian(rng, (n, n))
    # positive-invertible: Haar factor, then eigenvalues
    return complex_gaussian(rng, (n, n)), rng.uniform(_PI_LO * spec.scale, _PI_HI * spec.scale, size=n)


def _kind_matrices(spec, draws, count):
    """Matrices of a kind from the stacked draws of ``_kind_draws``."""
    n, scale = spec.dim, spec.scale
    if spec.kind == "generic":
        return draws[0] * scale
    if spec.kind == "positive":
        G = draws[0] * scale
        return hermitian_part(_adj(G) @ G)
    if spec.kind == "normal":
        U = _haar(draws[0])
        return (U * (draws[1] * scale)[:, None, :]) @ _adj(U)
    if spec.kind == "square-zero":
        M = np.zeros((count, n, n), dtype=np.complex128)
        if n == 1:
            return M
        M[:, : n // 2, n // 2 :] = draws[0] * scale
        U = _haar(draws[1])
        return U @ M @ _adj(U)
    return _spectral(_haar(draws[0]), draws[1])


def sample_stack(spec: EnsembleSpec, indices, stream: str = "0") -> np.ndarray:
    """``sample`` of a matrix kind at each index, as one (m, n, n) stack.

    Each draw consumes its own stream in the order ``sample`` does; the
    stack's Haar factors then come from one QR and its products from stacked
    matmuls, so each matrix is bitwise the one ``sample`` draws.
    """
    rows = [_kind_draws(spec, stream_rng(spec.seed, f"ensemble:{spec.kind}:{stream}", i)) for i in indices]
    return _kind_matrices(spec, [np.stack(part) for part in zip(*rows)], len(rows))


def ordered_pair(rng, n, scale=1.0, gap=1.0):
    """Hermitian (A, B) with B - A positive semidefinite and its top
    eigenvalue in [gap, 2 gap)."""
    A = hermitian_part(complex_gaussian(rng, (n, n)) * scale)
    W = complex_gaussian(rng, (n, n))
    P = hermitian_part(W.conj().T @ W)
    top = float(np.linalg.eigvalsh(P)[-1])
    P *= gap * (1.0 + rng.uniform()) / top
    return A, hermitian_part(A + P)


def _sandwich_draws(rng, n, weight):
    """The random numbers of one ``sandwich_operands`` draw, in stream order:
    alpha (drawn when weight is None), X's singular values, the Gaussian
    matrices of X's two Haar factors and of B's and A's eigenvectors, and
    the spectra of B and A."""
    alpha = rng.uniform(0.25, 0.75) if weight is None else weight
    sig = rng.uniform(1.0, 1.3, size=n)
    Z = [complex_gaussian(rng, (n, n)) for _ in range(3)]
    lam_b = rng.uniform(0.7, 1.0, size=n)
    s_cap = 1.3 ** (2 * alpha)  # >= lambda_max(B* f^2(|X|) B)
    target = max(3.0 * s_cap, s_cap + 1.0) * 1.15
    a_lo = np.sqrt(target)
    Z.append(complex_gaussian(rng, (n, n)))
    lam_a = rng.uniform(a_lo, 1.25 * a_lo, size=n)
    return alpha, sig, np.stack(Z), lam_b, lam_a


def sandwich_operands(rngs, n, weights=None):
    """Draw (A, B, X, alpha) with lambda_max(B* f^2(|X|) B) + 1 below
    lambda_min(A* g^2(|X*|) A) for the power pair (t^alpha, t^(1 - alpha)),
    plus a comfortable multiplicative margin; one draw per generator of
    ``rngs``, returned as stacks A, B, X and the list of alphas.

    Bands: X singular values in [1, 1.3], B spectrum in [0.7, 1], A spectrum
    sized so the upper block clears both a gap of 1 and a ratio of 3,
    which keeps the pointwise refined AM-GM factors valid on every unit
    vector (needed by the gamma-refined product bound). alpha is drawn from
    [0.25, 0.75], or taken from ``weights`` (one per generator).
    """
    weights = [None] * len(rngs) if weights is None else weights
    rows = [_sandwich_draws(rng, n, w) for rng, w in zip(rngs, weights, strict=True)]
    alpha, sig, Z, lam_b, lam_a = (np.stack(part) for part in zip(*rows))
    U = _haar(Z)
    X = (U[:, 0] * sig[:, None, :]) @ _adj(U[:, 1])
    return _spectral(U[:, 3], lam_a), _spectral(U[:, 2], lam_b), X, alpha.tolist()


def sample(spec: EnsembleSpec, index: int, stream: str = "0") -> np.ndarray:
    """Draw the matrix for (spec.seed, index); deterministic and pure.

    ``stream`` separates independent draws of the same kind within one
    logical instance (e.g. the A-side and B-side of a pair).
    """
    return sample_stack(spec, [index], stream)[0]
