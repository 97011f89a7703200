import numpy as np
import pytest

from numradlab import errors
from numradlab.functions import power
from numradlab.linalg import hermitian_part, loewner_leq, norm_hermitian, operator_norm
from numradlab.means import f_connection, gamma_factor, weighted_geometric
from numradlab.radius import complex_gaussian, stream_rng


def random_pd(rng, n, shift=0.05):
    G = complex_gaussian(rng, (n, n))
    return hermitian_part(G.conj().T @ G) + shift * np.eye(n)


def test_weighted_geometric_scalars_and_idempotence():
    got = weighted_geometric(np.array([[4.0]]), np.array([[9.0]]), 0.5)
    assert got[0, 0].real == pytest.approx(6.0, abs=1e-12)
    rng = stream_rng(30, "geoid")
    A = random_pd(rng, 3)
    for v in (0.25, 0.5, 0.9):
        np.testing.assert_allclose(weighted_geometric(A, A, v), A, atol=1e-10)
    # scalar general weight: a^(1-v) b^v
    got = weighted_geometric(np.array([[4.0]]), np.array([[9.0]]), 0.25)
    assert got[0, 0].real == pytest.approx(4.0**0.75 * 9.0**0.25, abs=1e-12)


def test_weighted_geometric_riccati_oracle():
    rng = stream_rng(31, "riccati")
    for _ in range(20):
        A = random_pd(rng, 3)
        B = random_pd(rng, 3)
        X = weighted_geometric(A, B, 0.5)
        resid = np.linalg.norm(X @ np.linalg.inv(A) @ X - B, 2)
        assert resid <= 1e-8 * (1 + operator_norm(B))


def test_weighted_geometric_errors():
    singular = np.diag([1.0, 0.0]).astype(complex)
    pd = np.eye(2, dtype=complex)
    with pytest.raises(errors.NotInvertible):
        weighted_geometric(singular, pd, 0.5)
    with pytest.raises(errors.NotPositive):
        weighted_geometric(pd, np.diag([1.0, -1.0]).astype(complex), 0.5)


def test_geometric_symmetry_at_half():
    rng = stream_rng(32, "geosym")
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = random_pd(rng, n)
        B = random_pd(rng, n)
        lhs = weighted_geometric(A, B, 0.5)
        rhs = weighted_geometric(B, A, 0.5)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * (1 + norm_hermitian(A) + norm_hermitian(B))


def test_am_gm_loewner_order():
    rng = stream_rng(33, "amgm")
    for k in range(200):
        n = int(rng.integers(2, 6))
        A = random_pd(rng, n)
        B = random_pd(rng, n)
        for v in (0.25, 0.5, 0.75):
            geo = weighted_geometric(A, B, v)
            ari = (1 - v) * A + v * B
            assert loewner_leq(geo, ari)


def test_f_connection_reductions():
    rng = stream_rng(34, "fconn")
    A = random_pd(rng, 3)
    B = random_pd(rng, 3)
    conn, square = f_connection(A, B, power(1.0))
    np.testing.assert_allclose(conn, B, atol=1e-9)
    np.testing.assert_allclose(square, B @ np.linalg.inv(A) @ B, atol=1e-8)
    def one(t):
        return np.ones_like(t)

    for got in f_connection(A, B, one):
        np.testing.assert_allclose(got, A, atol=1e-10)
    conn, square = f_connection(4 * np.eye(2, dtype=complex), 9 * np.eye(2, dtype=complex), power(0.5))
    np.testing.assert_allclose(conn, 6 * np.eye(2), atol=1e-10)
    np.testing.assert_allclose(square, 9 * np.eye(2), atol=1e-10)
    # arithmetic-mean function reproduces the weighted arithmetic mean
    for v in (0.25, 0.5, 0.75):
        def aff(t, v=v):
            return (1.0 - v) + v * t

        np.testing.assert_allclose(f_connection(A, B, aff)[0], (1 - v) * A + v * B, atol=1e-9)
        np.testing.assert_allclose(f_connection(A, B, power(v))[0], weighted_geometric(A, B, v), atol=1e-9)
    # a stack takes one function per pair, and each pair's result is bitwise its own
    fs = [power(0.5), one, lambda t: 0.75 + 0.25 * t]
    P = np.stack([A, 2 * A, A + B])
    Q = np.stack([B, B, 3 * B])
    stacked = f_connection(P, Q, fs)
    for k, fk in enumerate(fs):
        for got, alone in zip(stacked, f_connection(P[k], Q[k], fk)):
            np.testing.assert_array_equal(got[k], alone)


def test_gamma_factor_examples():
    assert gamma_factor(2.0, 2.0) == pytest.approx(1.0)
    assert gamma_factor(1.0, 2.0) == pytest.approx(32.0 / 31.0)
    assert gamma_factor(1.0, 1e15) == pytest.approx(8.0 / 7.0, rel=1e-6)
    with pytest.raises(errors.InvalidBounds):
        gamma_factor(2.0, 1.0)
    with pytest.raises(errors.InvalidBounds):
        gamma_factor(0.0, 1.0)


def test_scalar_refined_amgm_bulk():
    rng = stream_rng(35, "amgmscalar")
    a = rng.uniform(0.1, 10.0, size=10_000)
    b = a * np.exp(rng.uniform(0.05, 2.0, size=10_000) * rng.choice([-1.0, 1.0], size=10_000))
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    m = lo + rng.uniform(0.05, 0.45, size=10_000) * (hi - lo)
    M = lo + rng.uniform(0.55, 0.95, size=10_000) * (hi - lo)
    factor = (M + m) / (2 * np.sqrt(M * m))
    slack = (a + b) / 2 - factor * np.sqrt(a * b)
    assert slack.min() >= -1e-12


def test_scalar_gamma_bound_bulk():
    rng = stream_rng(36, "gammascalar")
    a = rng.uniform(0.1, 10.0, size=10_000)
    b = rng.uniform(0.1, 10.0, size=10_000)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    gammas = np.array([gamma_factor(float(l), float(h)) for l, h in zip(lo, hi)])
    slack = (a + b) / 2 - gammas * np.sqrt(a * b)
    assert slack.min() >= -1e-12
