"""Oracles that the tests check the package against.

- A sampled optimizer over the complex unit sphere, independent of the
  support-line enclosure. Every value it returns is attained at its witness
  vector, so it is a lower bound of the supremum it searches for.
- ``sandwich_triple``: one sandwich draw with its attained bounds m and M,
  the reference for the catalog's sandwich builders.
- ``DavidsonReference``: the two-step Davidson bound on the support lines
  near a solved reference line, which the enclosure's fixed Ritz subspace
  replaced; the new bound must accept wherever it does.
"""

import cmath
import math
from dataclasses import dataclass
from math import cos, sin

import numpy as np

from numradlab import radius
from numradlab.ensembles import sandwich_operands
from numradlab.functions import SchwarzPair, schwarz_power_pair
from numradlab.linalg import adjoint, gram_function, hermitian_part
from numradlab.radius import complex_gaussian, stream_rng


def _normalize_rows(X):
    norms = np.sqrt(np.einsum("ij,ij->i", X.real, X.real) + np.einsum("ij,ij->i", X.imag, X.imag))
    norms = np.where(norms == 0.0, 1.0, norms)
    return X / norms[:, None]


@dataclass(frozen=True)
class SphereSampler:
    """Deterministic unit-vector stream plus a local-search budget.

    The sample stream depends only on (seed, samples): enlarging ``samples``
    extends the stream without changing its prefix, so estimates built from
    stream minima are monotone in the sample count.
    """

    seed: int
    samples: int = 5000
    descent_steps: int = 50

    def unit_vectors(self, n) -> np.ndarray:
        rng = stream_rng(self.seed, "sphere-samples")
        return _normalize_rows(complex_gaussian(rng, (self.samples, n)))

    def descent_rng(self):
        return stream_rng(self.seed, "sphere-descent")


def _select_starts(X, vals, k_starts, overlap=0.9):
    """Top-valued samples thinned so no two starts share a basin-sized overlap."""
    order = np.argsort(vals)[::-1]
    starts = []
    for idx in order[: max(32 * k_starts, 200)]:
        x = X[idx]
        if any(abs(np.vdot(s, x)) > overlap for s in starts):
            continue
        starts.append(x)
        if len(starts) == k_starts:
            break
    if not starts:
        starts.append(X[order[0]])
    return np.array(starts)


def sphere_sup(objective, n, sampler: SphereSampler):
    """Supremum search over the complex unit sphere of dimension n.

    ``objective`` must accept a batch of unit rows, shape (m, n), and return
    shape (m,). The sampled maximum seeds a batched multi-start pattern
    search (gradient-free, shrinking steps). Returns (value, witness); the
    value is a certified lower bound of the true supremum, attained at the
    witness.
    """
    X = sampler.unit_vectors(n)
    vals = np.asarray(objective(X), dtype=float)
    top = int(np.argmax(vals))
    best_x, best_v = X[top].copy(), float(vals[top])
    if sampler.descent_steps <= 0:
        return best_v, best_x
    k_starts = int(np.clip(sampler.samples // 64, 4, 16))
    P = _select_starts(X, vals, k_starts)
    k = P.shape[0]
    cur = np.asarray(objective(P), dtype=float)
    steps = np.full(k, 0.3)
    rng = sampler.descent_rng()
    n_dirs = 8
    rows = np.arange(k)
    # Two sweeps of slow-decay pattern search: steps shrink only on rejected
    # rounds, so accepted moves can keep traversing at a productive scale.
    for _ in range(2 * sampler.descent_steps):
        D = complex_gaussian(rng, (k, n_dirs, n))
        cand = P[:, None, :] + steps[:, None, None] * D
        flat = _normalize_rows(cand.reshape(k * n_dirs, n))
        cv = np.asarray(objective(flat), dtype=float).reshape(k, n_dirs)
        arg = np.argmax(cv, axis=1)
        cand_best = cv[rows, arg]
        improved = cand_best > cur
        P[improved] = flat.reshape(k, n_dirs, n)[rows[improved], arg[improved]]
        cur[improved] = cand_best[improved]
        steps[~improved] *= 0.65
    j = int(np.argmax(cur))
    if cur[j] > best_v:
        best_v, best_x = float(cur[j]), P[j].copy()
    return best_v, best_x


@dataclass(frozen=True)
class SandwichSample:
    """Constructed (A, B, X, f, g) with verified scalar sandwich bounds."""

    A: np.ndarray
    B: np.ndarray
    X: np.ndarray
    pair: SchwarzPair
    m: float
    M: float


def sandwich_triple(rng, n, gap=1.0):
    """``sandwich_operands`` with the attained sandwich bounds m and M."""
    A, B, X, (alpha,) = sandwich_operands([rng], n, gap)
    A, B, X, pair = A[0], B[0], X[0], schwarz_power_pair(alpha)
    f, g = pair.f, pair.g
    S = hermitian_part(adjoint(B) @ gram_function(X, lambda s: np.asarray(f(s)) ** 2) @ B)
    T = hermitian_part(
        adjoint(A) @ gram_function(X, lambda s: np.asarray(g(s)) ** 2, adjoint_side=True) @ A
    )
    m = float(np.linalg.eigvalsh(S)[-1])
    M = float(np.linalg.eigvalsh(T)[0])
    return SandwichSample(A=A, B=B, X=X, pair=pair, m=m, M=M)


class DavidsonReference:
    """The near-line bound that ``radius._Reference`` replaced, kept verbatim
    as the tests' oracle: the eigenbasis of a solved line, which bounds the
    lines near it by two Davidson steps.

    With B = e^{i t0} A / 2, the line at t0 is H(t0) = B + B* = Q diag(lam) Q*
    and H(t0 + pi/2) = i (B - B*). As H(t0 + d) = cos d H(t0) + sin d H(t0 +
    pi/2) exactly, H(t0 + d) is M = cos d diag(lam) + sin d K in the basis Q,
    with K = Q* H(t0 + pi/2) Q, so a nearby line costs O(n^2). lam and K are
    held divided by a power of two that brings ||M|| below 1, so no square
    formed in a bound overflows or underflows.
    """

    __slots__ = ("t0", "h", "scale", "lam", "K", "k_diag", "k_norm", "double")

    def __init__(self, t0, half):
        B = cmath.exp(1j * t0) * half
        lam, Q = np.linalg.eigh(B + B.conj().T)
        C = Q.conj().T @ B @ Q
        K = 1j * (C - C.conj().T)  # exactly Hermitian, with a real diagonal
        self.t0, self.h = t0, float(lam[-1])
        size = max(-lam[0], lam[-1]) + float(np.linalg.norm(K))
        self.scale = math.ldexp(1.0, math.frexp(size)[1])
        self.lam, self.K = lam / self.scale, K / self.scale
        self.k_diag = self.K.diagonal().real.copy()
        self.k_norm = float(np.linalg.norm(self.K))  # ||K||_2 <= ||K||_F
        # With lam_1 - lam_2 within the roundoff slack of ``line``, Weyl's test
        # fails at every offset: such a line bounds no line near it.
        self.double = self.lam[-1] - self.lam[-2] <= len(lam) * radius._EPS

    def offset(self, t):
        """The angle from this line to t, in [-pi, pi] (exact)."""
        return math.remainder(t - self.t0, radius._TWO_PI)

    def line(self, t, tol):
        """The line at t as (h, a), or None where the bound is refused.

        Two Davidson steps from the top eigenvector e of diag(lam), each
        preconditioned by (theta - diag M)^-1, give a unit Ritz vector y with
        Rayleigh quotient a = theta, which y attains, and residual r. By Weyl,
        lambda_2(M) <= mu = cos d lam_2 + |sin d| ||K||, and where theta > mu
        the Kato-Temple inequality gives lambda_max(M) <= h = theta +
        ||r||^2 / (theta - mu). The bound is refused when that Temple term
        exceeds radius._TEMPLE_SHARE * tol * theta, or when the arithmetic
        overflows, divides by zero or turns invalid.
        """
        d = self.offset(t)
        c, s = cos(d), sin(d)
        lam, K = self.lam, self.K
        n = len(lam)
        diag = c * lam + s * self.k_diag  # M is never formed: M v = c lam v + s K v
        V = np.zeros((n, 3), dtype=np.complex128)
        MV = np.empty((n, 3), dtype=np.complex128)
        V[-1, 0] = 1.0
        MV[:, 0] = s * K[:, -1]
        MV[-1, 0] += c * lam[-1]
        theta, y, My = diag[-1], V[:, 0], MV[:, 0]
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                for k in (1, 2):
                    den = theta - diag
                    if k == 1:
                        den[-1] = 1.0  # the residual of e has no e component
                    v = (My - theta * y) / den
                    if k == 2:  # v is orthogonal to e from the start; Gram-Schmidt, twice
                        for _ in range(2):
                            v -= V[:, :k] @ (V[:, :k].conj().T @ v)
                    v /= np.linalg.norm(v)
                    V[:, k], MV[:, k] = v, s * (K @ v) + c * (lam * v)
                    ritz, X = np.linalg.eigh(V[:, : k + 1].conj().T @ MV[:, : k + 1])
                    theta, y, My = ritz[-1], V[:, : k + 1] @ X[:, -1], MV[:, : k + 1] @ X[:, -1]
                unit = np.linalg.norm(y)
                y, My = y / unit, My / unit
                theta = float(np.vdot(y, My).real)
                res = float(np.linalg.norm(My - theta * y))
        except (FloatingPointError, np.linalg.LinAlgError):
            return None
        # theta, ||r|| and mu are computed within about n eps ||M|| < n eps of
        # the exact values for M and y; raising ||r|| and mu by n eps keeps the
        # Temple term a bound on lambda_max(M) - theta.
        slack = n * radius._EPS
        mu = c * float(lam[-2]) + abs(s) * self.k_norm + slack
        if not theta > mu:
            return None
        res += slack
        temple = res * (res / (theta - mu))
        if not temple <= radius._TEMPLE_SHARE * tol * theta:
            return None
        return self.scale * (theta + temple), self.scale * theta
