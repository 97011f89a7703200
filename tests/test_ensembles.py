import numpy as np
import pytest

from numradlab.catalog import CheckInstance, InequalityId, _rng, evaluate
from numradlab.ensembles import EnsembleSpec, ordered_pair, sample
from numradlab.errors import InvalidBounds, UnsupportedParameter
from numradlab.functions import power
from numradlab.linalg import loewner_leq, operator_norm
from numradlab.radius import stream_rng
from numradlab.suite import draw_instance
from oracles import SandwichSample, sandwich_triple

DIMS = (2, 3, 5, 8)
BULK = 1000


def test_spec_validation():
    with pytest.raises(UnsupportedParameter):
        EnsembleSpec(dim=2, kind="weird")
    with pytest.raises(InvalidBounds):
        EnsembleSpec(dim=0)
    with pytest.raises(UnsupportedParameter):
        EnsembleSpec(dim=2, kind="ordered-pair")
    # a NaN or infinite scale gives no usable draw, so it is refused as a bound
    for scale in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidBounds):
            EnsembleSpec(dim=2, scale=scale)


def test_determinism_bitwise():
    spec = EnsembleSpec(dim=4, kind="generic", seed=123)
    np.testing.assert_array_equal(sample(spec, 7), sample(spec, 7))
    # independent of evaluation order
    a_then_b = (sample(spec, 0), sample(spec, 1))
    b_then_a = (sample(spec, 1), sample(spec, 0))
    np.testing.assert_array_equal(a_then_b[0], b_then_a[1])
    np.testing.assert_array_equal(a_then_b[1], b_then_a[0])
    # streams separate draws within one instance
    assert not np.array_equal(sample(spec, 0, stream="A"), sample(spec, 0, stream="B"))


@pytest.mark.parametrize("dim", DIMS)
def test_generic_and_normal_guarantees(dim):
    gen = EnsembleSpec(dim=dim, kind="generic", seed=dim)
    nor = EnsembleSpec(dim=dim, kind="normal", seed=dim)
    for i in range(BULK):
        A = sample(gen, i)
        assert A.shape == (dim, dim) and np.all(np.isfinite(A.real))
        N = sample(nor, i)
        dev = np.linalg.norm(N @ N.conj().T - N.conj().T @ N)
        assert dev <= 1e-10 * max(1.0, np.linalg.norm(N) ** 2)


@pytest.mark.parametrize("dim", DIMS)
def test_square_zero_guarantee(dim):
    spec = EnsembleSpec(dim=dim, kind="square-zero", seed=dim)
    for i in range(BULK):
        S = sample(spec, i)
        assert np.linalg.norm(S @ S) <= 1e-12 * max(1.0, np.linalg.norm(S) ** 2)


@pytest.mark.parametrize("dim", DIMS)
def test_positive_kinds_guarantees(dim):
    pos = EnsembleSpec(dim=dim, kind="positive", seed=dim)
    pin = EnsembleSpec(dim=dim, kind="positive-invertible", seed=dim)
    for i in range(BULK):
        P = sample(pos, i)
        assert np.linalg.eigvalsh(P)[0] >= -1e-12
        Q = sample(pin, i)
        lam = np.linalg.eigvalsh(Q)
        assert lam[0] >= 0.5 - 1e-10 and lam[-1] <= 3.0 + 1e-10


@pytest.mark.parametrize("dim", DIMS)
def test_ordered_pair_guarantee(dim):
    for i in range(200):
        A, B = ordered_pair(stream_rng(dim, "ensemble:ordered-pair:0", i), dim)
        assert loewner_leq(A, B)
        assert operator_norm(B - A) >= 1.0 - 1e-10


@pytest.mark.parametrize("dim", DIMS)
def test_sandwich_triple_guarantee(dim):
    def draw(i):
        return sandwich_triple(stream_rng(dim, "ensemble:sandwich-triple:0", i), dim)

    accepted = 0
    for i in range(BULK):
        tri = draw(i)
        assert isinstance(tri, SandwichSample)
        if tri.m < tri.M and tri.m > 0:
            accepted += 1
    # constructive sampler: acceptance far above the 90% floor
    assert accepted >= 0.9 * BULK
    # build-then-verify through the hypothesis checker on a subset
    for i in range(50):
        tri = draw(i)
        inst = CheckInstance(A=tri.A, B=tri.B, X=tri.X, pair=tri.pair, h=power(2.0))
        rep = evaluate(InequalityId.CONDITIONED_PRODUCT, inst).hypothesis
        assert rep.satisfied
        assert rep.bounds["m"] == pytest.approx(tri.m)
        assert rep.bounds["M"] == pytest.approx(tri.M)


@pytest.mark.parametrize("member", [InequalityId.CONDITIONED_PRODUCT, InequalityId.GAMMA_PRODUCT])
def test_sandwich_builders_draw_sandwich_triple_operands(member):
    # the suite builders skip the bounds m and M, and with them no draw
    for dim in DIMS:
        ens = EnsembleSpec(dim=dim, seed=dim)
        for i in range(5):
            inst = draw_instance(member, ens, i)
            tri = sandwich_triple(_rng(ens, member, i, tag="triple"), dim)
            for name in ("A", "B", "X"):
                assert getattr(inst, name).tobytes() == getattr(tri, name).tobytes()
            assert inst.pair == tri.pair
