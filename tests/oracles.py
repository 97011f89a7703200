"""Oracles that the tests check the package against.

- A sampled optimizer over the complex unit sphere, independent of the
  support-line enclosure. Every value it returns is attained at its witness
  vector, so it is a lower bound of the supremum it searches for.
- ``sandwich_triple``: one sandwich draw with its attained bounds m and M,
  the reference for the catalog's sandwich builders.
"""

from dataclasses import dataclass

import numpy as np

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
