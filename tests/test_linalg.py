import numpy as np
import pytest

from numradlab import errors
from numradlab.linalg import (
    abs_sides,
    adjoint,
    apply_scalar_function,
    check_hermitian,
    hermitian_part,
    hermitian_power,
    loewner_leq,
    norm_hermitian,
    operator_norm,
)
from numradlab.radius import complex_gaussian, numerical_radius, stream_rng


def random_complex(rng, n):
    return complex_gaussian(rng, (n, n))


def random_hermitian(rng, n):
    return hermitian_part(random_complex(rng, n))


def test_adjoint_examples():
    I = np.eye(2, dtype=complex)
    np.testing.assert_array_equal(adjoint(I), I)
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_array_equal(adjoint(A), np.array([[0, 0], [1, 0]]))
    B = np.array([[1j, 0], [0, 0]])
    np.testing.assert_array_equal(adjoint(B), np.array([[-1j, 0], [0, 0]]))


def test_adjoint_involution_exact():
    rng = stream_rng(0, "adjoint")
    A = random_complex(rng, 5)
    np.testing.assert_array_equal(adjoint(adjoint(A)), A)


def test_operator_norm_examples():
    assert operator_norm(np.diag([2.0, -5.0]).astype(complex)) == pytest.approx(5.0)
    assert operator_norm(np.array([[0, 3], [0, 0]], dtype=complex)) == pytest.approx(3.0)
    # sum of the first hard-coded example pair
    A = np.array([[1, 0], [-3, 1]], dtype=complex)
    B = np.array([[-1, 2], [0, 1]], dtype=complex)
    assert operator_norm(A + B) ** 2 == pytest.approx(14.52, abs=5e-3)


def test_norm_properties_random():
    rng = stream_rng(2, "normprops")
    for n in (1, 2, 3, 5, 8):
        A = random_complex(rng, n)
        nrm = operator_norm(A)
        assert operator_norm(adjoint(A)) == pytest.approx(nrm, rel=1e-10)
        assert operator_norm(adjoint(A) @ A) == pytest.approx(nrm**2, rel=1e-10)
        # cross-check against an independent SVD oracle
        assert nrm == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e170])
def test_operator_norm_scale_invariance(scale):
    # A*A of the scaled matrix overflows or underflows here; the SVD squares nothing
    rng = stream_rng(5, "normscale")
    for n in (1, 2, 3, 8):
        A = random_complex(rng, n)
        assert operator_norm(scale * A) / scale == pytest.approx(operator_norm(A), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
def test_gram_kernels_scale_invariance(scale):
    # A*A of the scaled matrix overflows or underflows here; the SVD squares nothing
    rng = stream_rng(6, "gramscale")
    for n in (1, 2, 3, 8):
        A = random_complex(rng, n)
        absA = abs_sides(A, 1.0)
        err = np.linalg.norm(abs_sides(scale * A, 1.0) / scale - absA, 2)
        assert err <= 1e-12 * norm_hermitian(absA)
        root = abs_sides(A, adj=0.5) if n == 3 else abs_sides(A, 0.5)
        scaled = abs_sides(scale * A, adj=0.5) if n == 3 else abs_sides(scale * A, 0.5)
        err = np.linalg.norm(scaled / np.sqrt(scale) - root, 2)
        assert err <= 1e-12 * norm_hermitian(root)


@pytest.mark.parametrize("scale", [1e-160, 1e-11, 1e160])
def test_check_hermitian_scale_invariance(scale):
    # np.linalg.norm of the unscaled input overflows (or underflows) at
    # 1e+-160; at 1e-11 an absolute floor on the tolerance accepted it
    rng = stream_rng(7, "hermscale")
    A = random_complex(rng, 3)
    with pytest.raises(errors.NotHermitian):
        check_hermitian(scale * A)
    H = hermitian_part(A)
    np.testing.assert_array_equal(check_hermitian(scale * H), scale * H)


def test_abs_operator_examples():
    A = np.array([[0, 2], [0, 0]], dtype=complex)
    np.testing.assert_allclose(abs_sides(A, 1.0), np.diag([0.0, 2.0]), atol=1e-12)
    rng = stream_rng(3, "abspos")
    H = random_hermitian(rng, 4)
    P = hermitian_power(H @ H, 0.5)  # PSD by construction
    np.testing.assert_allclose(abs_sides(P, 1.0), P, atol=1e-10)


def test_abs_operator_cross_checked_by_singular_values():
    A = np.array([[1, 0], [-3, 1]], dtype=complex)
    absA = abs_sides(A, 1.0)
    assert norm_hermitian(absA) == pytest.approx(operator_norm(A), rel=1e-12)
    sv = np.linalg.svd(A, compute_uv=False)
    np.testing.assert_allclose(np.linalg.eigvalsh(absA), np.sort(sv), atol=1e-12)


def test_abs_operator_square_reconstructs_gram():
    rng = stream_rng(4, "abssquare")
    for n in (2, 5, 8):
        A = random_complex(rng, n)
        absA = abs_sides(A, 1.0)
        err = np.linalg.norm(absA @ absA - adjoint(A) @ A, 2)
        assert err <= 1e-11 * n * (1.0 + operator_norm(A) ** 2)


@pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
def test_abs_sides_match_their_svd_on_square_zero(n):
    # formed from the spectra of A*A and AA*, |A| and |A*| of a square-zero A
    # were off by up to 1.9e-8 ||A||
    from numradlab.ensembles import EnsembleSpec, sample

    for k in range(10):
        A = sample(EnsembleSpec(dim=n, kind="square-zero", seed=1), k)
        U, s, Vh = np.linalg.svd(A)
        absA, absAs = abs_sides(A, 1.0, adj=1.0)
        assert np.linalg.norm(absA - (adjoint(Vh) * s) @ Vh, 2) <= 1e-13 * s[0]
        assert np.linalg.norm(absAs - (U * s) @ adjoint(U), 2) <= 1e-13 * s[0]


def test_apply_scalar_function_examples():
    from numradlab.functions import power

    rng = stream_rng(5, "fc")
    H = random_hermitian(rng, 4)
    H += (operator_norm(H) + 1.0) * np.eye(4)  # shift spectrum into [0, inf)
    np.testing.assert_allclose(apply_scalar_function(power(1.0), H), H, atol=1e-12)
    np.testing.assert_allclose(
        apply_scalar_function(power(0.5), np.diag([4.0, 9.0]).astype(complex)),
        np.diag([2.0, 3.0]),
        atol=1e-12,
    )
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(apply_scalar_function(power(2.0), pauli_x), np.eye(2), atol=1e-12)


def test_apply_scalar_function_commutes_and_composes():
    from numradlab.functions import power

    rng = stream_rng(6, "compose")
    G = random_complex(rng, 5)
    P = hermitian_part(adjoint(G) @ G)  # PSD
    fP = apply_scalar_function(power(1.5), P)
    assert np.linalg.norm(fP @ P - P @ fP, 2) <= 1e-10 * (1 + operator_norm(P) ** 2)
    # (t^a) o (t^b) = t^(ab) on PSD inputs
    inner = apply_scalar_function(power(0.5), P)
    outer = apply_scalar_function(power(3.0), inner)
    direct = apply_scalar_function(power(1.5), P)
    assert np.linalg.norm(outer - direct, 2) <= 1e-10 * (1 + operator_norm(P) ** 1.5)


def test_apply_scalar_function_domain_violation():
    from numradlab.functions import power

    H = np.diag([1.0, -2.0]).astype(complex)
    with pytest.raises(errors.DomainViolation):
        apply_scalar_function(power(0.5), H)
    # the domain slack is relative to the spectrum, so a negative eigenvalue
    # a tenth of the spectrum's size is refused at any magnitude, not clipped
    for scale in (1.0, 1e-13, 1e-19, 2.0**-600):
        with pytest.raises(errors.DomainViolation):
            apply_scalar_function(power(0.5), scale * np.diag([-1.0, 0.1]).astype(complex))


def test_lambda_min_matches_hand_computed_radius_gap():
    # 2x2 nilpotent Jordan block: |A| has spectrum {0, 1} and w(A) = 1/2,
    # so the subtracted term inf ||(|A| - w I) x||^2, the least eigenvalue
    # of (|A| - w I)^2, is 1/4.
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    w = numerical_radius(A).value
    D = abs_sides(A, 1.0) - w * np.eye(2)
    assert np.linalg.eigvalsh(D @ D)[0] == pytest.approx(0.25, abs=1e-10)


def test_loewner_examples():
    # the slack is relative to ||A|| + ||B||, so the verdicts hold at any
    # magnitude; an absolute floor ordered the unordered pair both ways at 2^-40
    P = np.array([[1, 1j], [-1j, 1]])  # positive semidefinite, rank one
    for scale in (1.0, 2.0**-40, 2.0**-600, 2.0**60):
        assert loewner_leq(scale * np.diag([1.0, 2.0]).astype(complex), scale * np.diag([2.0, 3.0]).astype(complex))
        A = scale * np.diag([1.0, 5.0]).astype(complex)
        assert loewner_leq(A, A)
        assert loewner_leq(A, A + scale * P)
        B = scale * np.diag([2.0, 3.0]).astype(complex)
        assert not loewner_leq(A, B)
        assert not loewner_leq(B, A)


def test_loewner_reflexive_transitive_on_psd_chains():
    rng = stream_rng(8, "chain")
    for _ in range(25):
        n = int(rng.integers(2, 6))
        G = random_complex(rng, n)
        A = hermitian_part(adjoint(G) @ G)
        Wp = random_complex(rng, n)
        Wq = random_complex(rng, n)
        P = hermitian_part(adjoint(Wp) @ Wp)
        Q = hermitian_part(adjoint(Wq) @ Wq)
        B = A + P
        C = B + Q
        assert loewner_leq(A, A)
        assert loewner_leq(A, B) and loewner_leq(B, C)
        assert loewner_leq(A, C)


def test_hermitian_power_negative_requires_invertible():
    with pytest.raises(errors.NotInvertible):
        hermitian_power(np.diag([1.0, 0.0]).astype(complex), -0.5)
    with pytest.raises(errors.NotPositive):
        hermitian_power(np.diag([1.0, -1.0]).astype(complex), 0.5)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 64])
def test_stacked_kernels_match_matrix_calls_bitwise(n):
    from numradlab.functions import power
    from numradlab.linalg import _pow2_rows, kittaneh_bound, singular_values
    from numradlab.means import pd_roots, weighted_geometric

    rng = stream_rng(n, "stacked-kernels")
    m = 6
    G = complex_gaussian(rng, (m, n, n))
    P = hermitian_part(adjoint(G) @ G) / n + 0.5 * np.eye(n)  # positive definite
    A = G.copy()
    A[1] *= 2.0**600  # scaled into range row by row
    exps = [0.5, 2.0, -1.0, 1.5, 0.5, 3.0]
    funcs = [power(abs(e)) for e in exps]
    v = np.array([0.1, 0.25, 0.5, 0.75, 0.9, 0.5])

    def same_rows(stacked, one):
        assert len(stacked) == m
        for k in range(m):
            single = one(k)
            if np.ndim(single) == 0:
                assert stacked[k] == single, k
            else:
                assert np.array_equal(stacked[k], single), k

    same_rows(adjoint(A), lambda k: adjoint(A[k]))
    same_rows(hermitian_part(A), lambda k: hermitian_part(A[k]))
    same_rows(check_hermitian(P), lambda k: check_hermitian(P[k]))
    for part in range(2):  # row 1 alone leaves the normal range; the others stay as they are, at e = 0
        same_rows(_pow2_rows(A)[part], lambda k: _pow2_rows(A[k])[part])
    same_rows(operator_norm(A), lambda k: operator_norm(A[k]))
    same_rows(norm_hermitian(P), lambda k: norm_hermitian(P[k]))
    same_rows(singular_values(A), lambda k: singular_values(A[k]))
    same_rows(abs_sides(A, lambda s: s), lambda k: abs_sides(A[k], lambda s: s))
    same_rows(abs_sides(G, adj=funcs), lambda k: abs_sides(G[k], adj=funcs[k]))
    same_rows(abs_sides(G, exps), lambda k: abs_sides(G[k], exps[k]))
    same_rows(abs_sides(A, adj=0.5), lambda k: abs_sides(A[k], adj=0.5))
    for side in range(3):  # one SVD, read on |G| twice and on |G*| once
        stacked = abs_sides(G, exps, funcs, adj=exps)[side]
        same_rows(stacked, lambda k: abs_sides(G[k], exps[k], funcs[k], adj=exps[k])[side])
    for part in range(2):
        same_rows(kittaneh_bound(A)[part], lambda k: kittaneh_bound(A[k])[part])
    same_rows(hermitian_power(P, exps), lambda k: hermitian_power(P[k], exps[k]))
    same_rows(apply_scalar_function(funcs, P), lambda k: apply_scalar_function(funcs[k], P[k]))
    same_rows(loewner_leq(P, P + np.eye(n)), lambda k: loewner_leq(P[k], P[k] + np.eye(n)))
    same_rows(pd_roots(P)[1], lambda k: pd_roots(P[k])[1])
    same_rows(weighted_geometric(P, P[::-1], 0.5), lambda k: weighted_geometric(P[k], P[::-1][k], 0.5))
    # per-row weights and divisors broadcast as the scalars of a one-matrix call
    same_rows((1 - v)[:, None, None] * P, lambda k: (1 - v[k]) * P[k])
    same_rows(A / v[:, None, None], lambda k: A[k] / v[k])


def test_stacked_kernels_refuse_for_any_matrix():
    rng = stream_rng(7, "stacked-refusals")
    P = hermitian_part(complex_gaussian(rng, (3, 4, 4)))
    P[0] = P[0] @ P[0] + np.eye(4)
    P[2] = P[2] @ P[2] + np.eye(4)
    P[1] = -(P[1] @ P[1]) - np.eye(4)  # negative definite
    with pytest.raises(errors.NotPositive):
        hermitian_power(P, [1.0, 0.5, 1.0])
    hermitian_power(P, [0.5, 2.0, 0.5])  # integer powers need no positivity
    with pytest.raises(errors.NotInvertible):
        hermitian_power(P[[0, 2, 1]] * [[[1.0]], [[1.0]], [[0.0]]], -1.0)
    Q = P.copy()
    Q[2, 0, 1] += 1.0
    with pytest.raises(errors.NotHermitian):
        check_hermitian(Q)
