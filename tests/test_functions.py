import numpy as np
import pytest

from numradlab import errors
from numradlab.functions import (
    CONCAVE,
    CONVEX,
    INCREASING,
    NONNEG,
    SUPERQUADRATIC,
    deformed_exp_function,
    jensen_gap_mu,
    power,
    schwarz_power_pair,
    superquadratic_defect,
)
from numradlab.linalg import hermitian_part
from numradlab.radius import complex_gaussian, quad_forms, stream_rng
from oracles import SphereSampler, sphere_sup


def test_power_flags():
    p = power(2.0)
    assert {NONNEG, INCREASING, CONVEX, SUPERQUADRATIC} <= p.flags
    assert CONCAVE not in p.flags
    half = power(0.5)
    assert {NONNEG, INCREASING, CONCAVE} <= half.flags
    assert CONVEX not in half.flags and SUPERQUADRATIC not in half.flags
    lin = power(1.0)
    assert {CONVEX, CONCAVE, INCREASING} <= lin.flags
    inv = power(-1.0)
    assert CONVEX in inv.flags and INCREASING not in inv.flags


def test_eval_examples():
    assert power(2.0)(3.0) == pytest.approx(9.0)
    assert deformed_exp_function(1.0)(0.5) == pytest.approx(1.5)
    with pytest.raises(errors.DomainViolation):
        deformed_exp_function(1.0)(-1.5)
    # every domain is a half-line, so the deformed exponential takes r > 0 only
    for r in (-1.0, float("nan")):
        with pytest.raises(errors.UnsupportedParameter):
            deformed_exp_function(r)
    with pytest.raises(errors.UnsupportedParameter):
        deformed_exp_function(0.0)
    with pytest.raises(errors.DomainViolation):
        power(-0.5)(0.0)
    # domain slack and margin are relative to the largest |point|: a point a
    # tenth of the scale outside a closed endpoint is refused, and one a tenth
    # inside an open endpoint admitted, at any magnitude
    for scale in (1.0, 1e-13, 1e-19, 2.0**-600):
        with pytest.raises(errors.DomainViolation):
            power(0.5)(scale * np.array([-0.1, 1.0]))
        np.testing.assert_allclose(power(-1.0)(scale * np.array([0.1, 1.0])), [10.0 / scale, 1.0 / scale])


def test_schwarz_pair_grid_invariant():
    t = np.linspace(0.0, 100.0, 1000)
    for alpha in (0.0, 0.25, 0.5, 0.8, 1.0):
        pair = schwarz_power_pair(alpha)
        ft, gt = np.asarray(pair.f(t)), np.asarray(pair.g(t))
        assert np.all(ft >= 0) and np.all(gt >= 0)
        err = np.abs(ft * gt - t)
        assert np.all(err <= 1e-12 * (1.0 + t))


def test_superquadratic_defect_hand_values():
    f2 = power(2.0)
    assert superquadratic_defect(f2, 1.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert superquadratic_defect(f2, 0.7, 0.7) == pytest.approx(0.0, abs=1e-12)
    f3 = power(3.0)
    assert superquadratic_defect(f3, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(errors.NotSuperquadratic):
        superquadratic_defect(power(1.5), 1.0, 2.0)
    with pytest.raises(errors.DomainViolation):
        superquadratic_defect(f2, -1.0, 2.0)


def test_superquadratic_defect_grid():
    s = np.linspace(0.0, 10.0, 100)
    t = np.linspace(0.0, 10.0, 100)
    for r in (2.0, 2.5, 3.0, 4.0):
        f = power(r)
        worst = min(
            superquadratic_defect(f, float(si), float(ti)) for si in s for ti in t
        )
        assert worst >= -1e-12


def _random_psd(rng, n, shift=0.0):
    G = complex_gaussian(rng, (n, n))
    return hermitian_part(G.conj().T @ G) + shift * np.eye(n)


def test_jensen_gap_examples():
    rng = stream_rng(10, "jensen")
    A = _random_psd(rng, 3)
    assert jensen_gap_mu(power(2.0), A, A) == pytest.approx(0.0, abs=1e-10)
    # gap attained at the second basis vector: exhaustive 2-dim oracle gives 0
    A2 = np.diag([1.0, 3.0]).astype(complex)
    B2 = np.diag([5.0, 3.0]).astype(complex)
    est = jensen_gap_mu(power(2.0), A2, B2)
    assert -1e-12 <= est <= 1e-6
    t = np.linspace(0, np.pi / 2, 2000)
    u = np.cos(t) ** 2 * 1 + np.sin(t) ** 2 * 3
    v = np.cos(t) ** 2 * 5 + np.sin(t) ** 2 * 3
    oracle = np.min(u**2 + v**2 - 2 * ((u + v) / 2) ** 2)
    assert oracle == pytest.approx(0.0, abs=1e-12)


def test_jensen_gap_nonnegative_for_convex():
    rng = stream_rng(11, "jensen-prop")
    for trial in range(100):
        n = 2 + trial % 5
        A = _random_psd(rng, n)
        B = _random_psd(rng, n)
        f = (power(2.0), power(3.0), power(1.5))[trial % 3]
        assert jensen_gap_mu(f, A, B) >= -1e-12


def _sampled_jensen_gap(f, A, B, sampler):
    """The attained sampled minimum of the Jensen-gap objective over the sphere."""
    M = (A + B) / 2

    def gap(X):
        qa, qb, qm = (quad_forms(H, X).real for H in (A, B, M))
        return f(qa) + f(qb) - 2.0 * f(qm)

    value, _ = sphere_sup(lambda X: -gap(X), A.shape[0], sampler)
    return -value


def test_jensen_gap_below_sampled_estimates():
    rng = stream_rng(12, "jensen-mono")
    A = _random_psd(rng, 4)
    B = _random_psd(rng, 4)
    exact = jensen_gap_mu(power(2.0), A, B)
    assert exact == 0.0  # A - B is indefinite
    for samples in (50, 200, 1000, 5000):
        assert exact <= _sampled_jensen_gap(power(2.0), A, B, SphereSampler(seed=7, samples=samples, descent_steps=12))


def test_jensen_gap_zero_for_affine_f():
    # g vanishes identically, also where A - B is definite; summing f-values
    # near 1e9 used to leave roundoff of either sign
    rng = stream_rng(14, "jensen-affine")
    for n in (1, 2, 5):
        A = 1e8 * _random_psd(rng, n, shift=1.0)
        B = 1e8 * _random_psd(rng, n, shift=1.0)
        for f in (power(1.0), deformed_exp_function(1.0)):
            assert jensen_gap_mu(f, A, B) == 0.0
            assert jensen_gap_mu(f, A + 1e9 * np.eye(n), B) == 0.0


def test_jensen_gap_definite_pairs_match_dense_boundary():
    # A - B positive definite: the infimum is positive and lies on the boundary
    # of W(A + iB); a dense sweep of that boundary bounds it from above
    rng = stream_rng(15, "jensen-definite")
    for trial in range(30):
        n = 1 + trial % 5
        B = _random_psd(rng, n)
        A = B + _random_psd(rng, n, shift=0.1)
        f = (power(2.0), power(3.0), power(1.5), deformed_exp_function(0.5))[trial % 4]
        mu = jensen_gap_mu(f, A, B)
        t = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        X = np.linalg.eigh(np.cos(t)[:, None, None] * A + np.sin(t)[:, None, None] * B)[1][:, :, -1]
        u, v = quad_forms(A, X).real, quad_forms(B, X).real
        dense = float(np.min(f(u) + f(v) - 2.0 * f((u + v) / 2)))
        assert 0.0 < mu <= dense * (1 + 1e-12)
        if f.kind == "power" and f.params[0] == 2.0:  # g = (u - v)^2 / 2
            assert mu == pytest.approx(np.linalg.eigvalsh(A - B)[0] ** 2 / 2, rel=1e-9)


def test_jensen_gap_nonnegative_on_psd_pairs():
    rng = stream_rng(16, "jensen-psd")
    for trial in range(60):
        n = 1 + trial % 6
        B = _random_psd(rng, n, shift=1e-3)
        A = _random_psd(rng, n, shift=1e-3) + (B if trial % 2 else 0.0)  # odd trials: A - B definite
        f = (power(2.0), power(3.0), power(1.5), power(1.0), power(-1.0))[trial % 5]
        assert jensen_gap_mu(f, A, B) >= 0.0


def test_jensen_gap_flag_and_domain_checks():
    rng = stream_rng(13, "jensen-dom")
    A = _random_psd(rng, 3)
    with pytest.raises(errors.UnsupportedParameter):
        jensen_gap_mu(power(0.5), A, A)
    with pytest.raises(errors.DomainViolation):
        jensen_gap_mu(power(1.5), A - 10 * np.eye(3), A)
