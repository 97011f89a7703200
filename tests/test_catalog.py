import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest

from numradlab import catalog, ensembles
from numradlab.catalog import (
    CheckInstance,
    InequalityId,
    Status,
    evaluate,
    _INF_NOTE,
    _schwarz_sides,
)
from numradlab.ensembles import EnsembleSpec, sample
from numradlab.errors import BudgetExhausted, DimensionMismatch, NotInvertible, NotPositive, UnsupportedParameter
from numradlab.functions import SchwarzPair, deformed_exp_function, power
from numradlab.report import IneqRecord
from numradlab.linalg import abs_sides, adjoint, apply_scalar_function, hermitian_part, hermitian_power, operator_norm
from numradlab.means import weighted_geometric
from numradlab.radius import RadiusResult, complex_gaussian, numerical_radius, quad_forms, stream_rng
from numradlab.suite import draw_chunk, draw_instance, run_suite
from oracles import SphereSampler, sandwich_triple, sphere_sup

EX1_A = np.array([[1, 0], [-3, 1]], dtype=complex)
EX1_B = np.array([[-1, 2], [0, 1]], dtype=complex)
EX2_A = np.array([[2, 0], [3, 1]], dtype=complex)
EX2_B = np.array([[0, 1], [0, 1]], dtype=complex)


# Every id in record order, the order of every `--ineq all` report.
MEMBER_IDS = (
    "norm-sandwich", "kittaneh-chain", "power-mix", "sum-sq-kittaneh", "product-power", "general-product",
    "dragomir-vector", "sum-new-bound", "sum-new-normal", "wsq-sum", "convex-product", "convex-product-power",
    "scalar-refined-amgm", "conditioned-product", "conditioned-specials", "gamma-product", "refined-convexity",
    "improved-convex-product", "superquad-radius", "superquad-power", "hosseini-geo", "hosseini-geo-norms",
    "euclidean-sandwich", "fconn-radius", "geo-radius", "mixed-schwarz", "mond-pecaric", "norm-convexity",
    "superquad-defect",
)


def test_ids_complete_and_resolvable():
    # the ids come from the record keys: names, values and order are pinned
    assert [(m.name, m.value) for m in InequalityId] == [(i.upper().replace("-", "_"), i) for i in MEMBER_IDS]
    for member in InequalityId:
        assert InequalityId(member.value) is member
        assert InequalityId[member.name] is member
        assert getattr(InequalityId, member.name) is member
        assert pickle.loads(pickle.dumps(member)) is member
    assert repr(InequalityId.NORM_SANDWICH) == "<InequalityId.NORM_SANDWICH: 'norm-sandwich'>"
    with pytest.raises(ValueError):
        InequalityId("nope")
    # one record per member, in the same order, and no record without a member
    assert list(catalog.MEMBERS) == list(InequalityId)


def _mis_sized(inst):
    """Copies of a size-3 draw with one operand of size 2: a 2 x 3 A where A is
    its only matrix, else its first matrix cut to 2 x 2; and, where it has
    vectors, its first vector cut to 2 entries."""
    names = [name for name in "ABX" if getattr(inst, name) is not None]
    if len(names) == 1:
        yield dataclasses.replace(inst, **{names[0]: getattr(inst, names[0])[:2]})
    elif names:
        yield dataclasses.replace(inst, **{names[0]: getattr(inst, names[0])[:2, :2]})
    if any(np.ndim(v) == 1 for tup in inst.vectors for v in tup):
        first, *rest = inst.vectors
        yield dataclasses.replace(inst, vectors=((first[0][:2], *first[1:]), *rest))


# The draws of these two members hold scalars only: no matrix and no vector.
_SCALAR_MEMBERS = (InequalityId.SCALAR_REFINED_AMGM, InequalityId.SUPERQUAD_DEFECT)


@pytest.mark.parametrize("member", [m for m in InequalityId if m not in _SCALAR_MEMBERS], ids=lambda m: m.value)
def test_a_mis_sized_operand_raises_dimension_mismatch(member):
    # one check, before any hypothesis, answers every member the same way,
    # not with numpy's ValueError from a broadcast, a stack or a product
    inst = draw_instance(member, EnsembleSpec(dim=3, seed=1), 0)
    cases = list(_mis_sized(inst))
    assert cases
    for bad in cases:
        with pytest.raises(DimensionMismatch):
            evaluate(member, bad)


def test_a_chunk_of_two_sizes_raises_dimension_mismatch():
    # each instance is well formed, but a chunk shares one size
    member = InequalityId.NORM_SANDWICH
    insts = [draw_instance(member, EnsembleSpec(dim=n, seed=1), 0) for n in (3, 2)]
    assert [evaluate(member, inst).status for inst in insts] == [Status.HOLDS] * 2
    with pytest.raises(DimensionMismatch):
        catalog.evaluate_many(member, insts)


@pytest.mark.parametrize("member", list(InequalityId), ids=lambda m: m.value)
def test_every_outcome_names_its_links(member):
    inst = draw_instance(member, EnsembleSpec(dim=3, seed=1), 0)
    res = evaluate(member, inst)
    assert res.status is not Status.NOT_APPLICABLE
    binding = res.details["binding"]
    assert res.details[binding + ".lhs"] == res.lhs
    assert res.details[binding + ".rhs"] == res.rhs


def test_example_pair_one_values():
    inst = CheckInstance(A=EX1_A, B=EX1_B)
    new = evaluate(InequalityId.SUM_NEW_BOUND, inst)
    kit = evaluate(InequalityId.SUM_SQ_KITTANEH, inst)
    assert new.status is Status.HOLDS and kit.status is Status.HOLDS
    assert new.lhs == pytest.approx(14.5208, abs=1e-3)
    assert new.rhs == pytest.approx(29.5864, abs=1e-3)
    assert kit.rhs == pytest.approx(25.2828, abs=1e-3)
    # strict ordering of the two upper bounds on this pair
    assert new.lhs < kit.rhs < new.rhs


def test_example_pair_two_values():
    inst = CheckInstance(A=EX2_A, B=EX2_B)
    new = evaluate(InequalityId.SUM_NEW_BOUND, inst)
    kit = evaluate(InequalityId.SUM_SQ_KITTANEH, inst)
    assert new.lhs == pytest.approx(17.9443, abs=1e-3)
    assert new.rhs == pytest.approx(25.4026, abs=1e-3)
    assert kit.rhs == pytest.approx(29.4467, abs=1e-3)
    # reversed ordering: no general comparison between the two bounds
    assert new.lhs < new.rhs < kit.rhs


def test_norm_sandwich_left_equality_case():
    res = evaluate(InequalityId.NORM_SANDWICH, CheckInstance(A=np.array([[0, 1], [0, 0]], dtype=complex)))
    assert res.status is Status.HOLDS
    assert res.details["binding"] == "half-norm <= w"
    assert res.slack == pytest.approx(0.0, abs=1e-9)
    assert res.details["w"] == pytest.approx(0.5, abs=1e-10)
    assert res.details["norm"] == pytest.approx(1.0, abs=1e-12)


def test_geo_radius_scalar_reduction():
    inst = CheckInstance(
        A=4 * np.eye(2, dtype=complex), B=9 * np.eye(2, dtype=complex), X=np.eye(2, dtype=complex)
    )
    res = evaluate(InequalityId.GEO_RADIUS, inst)
    assert res.status is Status.HOLDS
    assert res.lhs == pytest.approx(6.0, abs=1e-9)
    assert res.rhs == pytest.approx(6.5, abs=1e-12)


def test_fconn_radius_sqrt_matches_geo_radius():
    rng = stream_rng(40, "fconn-geo")
    G = complex_gaussian(rng, (3, 3))
    A = hermitian_part(G.conj().T @ G) + 0.2 * np.eye(3)
    G = complex_gaussian(rng, (3, 3))
    B = hermitian_part(G.conj().T @ G) + 0.2 * np.eye(3)
    X = complex_gaussian(rng, (3, 3))
    fc = evaluate(InequalityId.FCONN_RADIUS, CheckInstance(A=A, B=B, X=X, f=power(0.5)))
    geo = evaluate(InequalityId.GEO_RADIUS, CheckInstance(A=A, B=B, X=X))
    assert fc.status is Status.HOLDS and geo.status is Status.HOLDS
    assert fc.lhs == pytest.approx(geo.lhs, rel=1e-8)
    assert fc.rhs == pytest.approx(geo.rhs, rel=1e-10)


def test_verify_hypotheses_conditioned_example():
    pair = SchwarzPair(power(0.5), power(0.5))
    inst = CheckInstance(
        A=3 * np.eye(2, dtype=complex),
        B=np.eye(2, dtype=complex),
        X=np.eye(2, dtype=complex),
        pair=pair,
        h=power(1.0),
    )
    rep = evaluate(InequalityId.CONDITIONED_PRODUCT, inst).hypothesis
    assert rep.satisfied
    assert rep.bounds["m"] == pytest.approx(1.0)
    assert rep.bounds["M"] == pytest.approx(9.0)
    # no spectral gap when everything is the identity
    flat = CheckInstance(
        A=np.eye(2, dtype=complex),
        B=np.eye(2, dtype=complex),
        X=np.eye(2, dtype=complex),
        pair=pair,
        h=power(1.0),
    )
    res2 = evaluate(InequalityId.CONDITIONED_PRODUCT, flat)
    assert not res2.hypothesis.satisfied
    assert res2.status is Status.NOT_APPLICABLE


def test_gamma_product_reports_both_readings():
    rng = stream_rng(41, "gammatri")
    tri = sandwich_triple(rng, 3)
    inst = CheckInstance(A=tri.A, B=tri.B, X=tri.X, pair=tri.pair, h=power(2.0))
    res = evaluate(InequalityId.GAMMA_PRODUCT, inst)
    rep = res.hypothesis
    assert rep.satisfied
    assert rep.bounds["m_lo"] > 0 and rep.bounds["M_hi"] > rep.bounds["m_lo"]
    assert any("g^2(|X|)" in note for note in rep.notes)
    assert res.status is Status.HOLDS


def test_conditioned_improves_general_product_bound():
    rng = stream_rng(42, "improve")
    for k in range(25):
        n = 2 + k % 3
        tri = sandwich_triple(rng, n)
        alpha = tri.pair.f.params[0]
        r = (1.0, 1.5, 2.0)[k % 3]
        cond = evaluate(
            InequalityId.CONDITIONED_PRODUCT,
            CheckInstance(A=tri.A, B=tri.B, X=tri.X, pair=tri.pair, h=power(r)),
        )
        gp = evaluate(
            InequalityId.GENERAL_PRODUCT,
            CheckInstance(A=tri.A, B=tri.B, X=tri.X, r=r, v=1.0 - alpha),
        )
        assert cond.status is Status.HOLDS and gp.status is Status.HOLDS
        assert cond.rhs <= gp.rhs + 1e-9
        assert cond.lhs == pytest.approx(gp.lhs, rel=1e-9)


def test_wsq_lhs_below_sum_new_lhs():
    rng = stream_rng(43, "wsq")
    for _ in range(10):
        A = complex_gaussian(rng, (4, 4))
        B = complex_gaussian(rng, (4, 4))
        wsq = evaluate(InequalityId.WSQ_SUM, CheckInstance(A=A, B=B))
        new = evaluate(InequalityId.SUM_NEW_BOUND, CheckInstance(A=A, B=B))
        assert wsq.status is Status.HOLDS and new.status is Status.HOLDS
        assert wsq.lhs <= new.lhs + 1e-9


def test_pointwise_mixed_schwarz_equality_case():
    H = np.diag([2.0, -1.0, 0.5]).astype(complex)
    x = np.array([1.0, 0.0, 0.0], dtype=complex)
    pair = SchwarzPair(power(0.5), power(0.5))
    inst = CheckInstance(A=H, pair=pair, vectors=((x, x),))
    res = evaluate(InequalityId.MIXED_SCHWARZ, inst)
    assert res.status is Status.HOLDS
    assert res.slack == pytest.approx(0.0, abs=1e-10)


def test_pointwise_mond_pecaric_hand_value():
    A = np.diag([1.0, 3.0]).astype(complex)
    x = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    inst = CheckInstance(A=A, f=power(2.0), vectors=((x,),))
    res = evaluate(InequalityId.MOND_PECARIC, inst)
    assert res.status is Status.HOLDS
    assert res.lhs == pytest.approx(4.0, abs=1e-12)
    assert res.rhs == pytest.approx(5.0, abs=1e-12)
    # concave functions check the reversed inequality
    inst_c = CheckInstance(A=A, f=power(0.5), vectors=((x,),))
    res_c = evaluate(InequalityId.MOND_PECARIC, inst_c)
    assert res_c.status is Status.HOLDS


def test_pointwise_superquad_defect_zero_at_equal_points():
    inst = CheckInstance(f=power(2.0), vectors=((0.7, 0.7),))
    res = evaluate(InequalityId.SUPERQUAD_DEFECT, inst)
    assert res.status is Status.HOLDS
    assert res.slack == pytest.approx(0.0, abs=1e-12)


def test_pointwise_members_without_vectors_are_not_applicable():
    # each link is one entry of vectors; with none, the chain has no link to bind
    eye = np.eye(2, dtype=complex)
    cases = {
        InequalityId.MIXED_SCHWARZ: CheckInstance(A=eye, pair=SchwarzPair(power(0.5), power(0.5))),
        InequalityId.MOND_PECARIC: CheckInstance(A=eye, f=power(2.0)),
        InequalityId.DRAGOMIR_VECTOR: CheckInstance(),
        InequalityId.SUPERQUAD_DEFECT: CheckInstance(f=power(2.0)),
    }
    for member, inst in cases.items():
        res = evaluate(member, inst)
        assert res.status is Status.NOT_APPLICABLE, member
        assert not res.hypothesis.satisfied


@pytest.mark.parametrize("k", [520, 600])
def test_normality_test_does_not_underflow(k):
    # unscaled, A A* - A* A and ||A||_F^2 underflow here, and A would pass as normal
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for s in (1.0, 2.0**-k):
        res = evaluate(InequalityId.SUM_NEW_NORMAL, CheckInstance(A=s * A, B=s * np.eye(2, dtype=complex)))
        assert res.status is Status.NOT_APPLICABLE
        assert res.hypothesis.conditions["A normal"] is False
        assert res.hypothesis.conditions["B normal"] is True


@pytest.mark.parametrize("k", [520, 600])
def test_kittaneh_chain_square_norm_keeps_its_scale(k):
    # an unscaled A @ A underflows here: ||A^2|| would read 0 at 2^-600
    A = complex_gaussian(stream_rng(5, "kittaneh-scale"), (4, 4))
    base = evaluate(InequalityId.KITTANEH_CHAIN, CheckInstance(A=A)).details["mid <= right.rhs"]
    s = 2.0**-k
    res = evaluate(InequalityId.KITTANEH_CHAIN, CheckInstance(A=s * A))
    assert res.details["mid <= right.rhs"] == pytest.approx(s * base, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [520, 600])
def test_euclidean_sandwich_square_norm_keeps_its_scale(k):
    # an unscaled A @ A + B @ B underflows here: the rhs drifts 8e-14 off its
    # scale at 2^-520 and reads 0 at 2^-600
    member = InequalityId.EUCLIDEAN_SANDWICH
    inst = draw_instance(member, EnsembleSpec(dim=4, seed=1), 0)
    base = evaluate(member, inst).details["w_e <= sqrt norm.rhs"]
    s = 2.0**-k
    res = evaluate(member, CheckInstance(A=s * inst.A, B=s * inst.B))
    assert res.details["w_e <= sqrt norm.rhs"] == pytest.approx(s * base, rel=1e-14, abs=0.0)


def test_dragomir_requires_unit_z():
    rng = stream_rng(44, "drag")
    x = complex_gaussian(rng, 3)
    y = complex_gaussian(rng, 3)
    z = complex_gaussian(rng, 3)
    bad = CheckInstance(vectors=((x, y, 2 * z / np.linalg.norm(z)),))
    assert evaluate(InequalityId.DRAGOMIR_VECTOR, bad).status is Status.NOT_APPLICABLE
    good = CheckInstance(vectors=((x, y, z / np.linalg.norm(z)),))
    assert evaluate(InequalityId.DRAGOMIR_VECTOR, good).status is Status.HOLDS


def test_norm_convexity_check_hand_value():
    A = np.diag([2.0, 0.0]).astype(complex)
    B = np.diag([0.0, 2.0]).astype(complex)
    res = evaluate(InequalityId.NORM_CONVEXITY, CheckInstance(A=A, B=B, v=0.5, f=power(2.0)))
    assert res.status is Status.HOLDS
    assert res.lhs == pytest.approx(1.0, abs=1e-12)
    assert res.rhs == pytest.approx(2.0, abs=1e-12)
    # identity function: both sides agree for any v
    res_id = evaluate(InequalityId.NORM_CONVEXITY, CheckInstance(A=A, B=B, v=0.3, f=power(1.0)))
    assert res_id.slack == pytest.approx(0.0, abs=1e-12)


def test_refined_convexity_equal_operands():
    rng = stream_rng(45, "refined")
    G = complex_gaussian(rng, (3, 3))
    A = hermitian_part(G.conj().T @ G)
    res = evaluate(InequalityId.REFINED_CONVEXITY, CheckInstance(A=A, B=A, v=0.4, f=power(2.0)))
    assert res.status is Status.HOLDS
    assert res.details["mu_estimate"] == pytest.approx(0.0, abs=1e-9)
    assert res.slack == pytest.approx(0.0, abs=1e-8)


def _sampled_inf(P, Q, g, seed):
    """Attained sampled minimum of g(<Px,x>, <Qx,x>) over the sphere, at the
    sample and descent budget the suite used before its infima were exact."""
    value, _ = sphere_sup(
        lambda X: -g(quad_forms(P, X).real, quad_forms(Q, X).real),
        P.shape[0],
        SphereSampler(seed=seed, samples=256, descent_steps=8),
    )
    return -value


def _subtracted_infima(member, inst):
    """(computed infimum, P, Q, objective) for one suite draw of a member
    that subtracts an infimum over the sphere."""
    res = evaluate(member, inst)
    if member in (InequalityId.REFINED_CONVEXITY, InequalityId.IMPROVED_CONVEX_PRODUCT):
        f = inst.f if member is InequalityId.REFINED_CONVEXITY else inst.h
        if member is InequalityId.REFINED_CONVEXITY:
            P, Q, mu = inst.A, inst.B, res.details["mu_estimate"]
        else:
            sides = {}
            _schwarz_sides([inst], None, sides)
            S, T = sides["S"][0], sides["T"][0]
            P, Q = hermitian_power(S, 1 / (1 - inst.v)), hermitian_power(T, 1 / inst.v)
            mu = res.details["gap_estimate"]
        return mu, P, Q, lambda u, v: f(u) + f(v) - 2.0 * f((u + v) / 2)
    p, q, r = inst.p, inst.q, inst.r
    if member is InequalityId.HOSSEINI_GEO:
        P, Q, d = inst.A, hermitian_part(adjoint(inst.X) @ inst.B @ inst.X), 4
    else:
        P, Q, d = inst.A, inst.B, 4 if inst.variant == 0 else 2
    ea, eb = r * p / d, r * q / d
    return res.details["delta_estimate"], P, Q, lambda u, v: (u**ea - v**eb) ** 2


def test_exact_infima_never_exceed_sampled_ones_on_suite_draws():
    members = (
        InequalityId.REFINED_CONVEXITY,
        InequalityId.IMPROVED_CONVEX_PRODUCT,
        InequalityId.HOSSEINI_GEO,
        InequalityId.HOSSEINI_GEO_NORMS,
    )
    zeros = boundary = 0
    for dim in (2, 3, 5, 8):
        ens = EnsembleSpec(dim=dim, seed=1)
        for member in members:
            for i in range(16):
                inst = draw_instance(member, ens, i)
                if member is InequalityId.HOSSEINI_GEO_NORMS and inst.variant == 2:
                    continue
                mu, P, Q, g = _subtracted_infima(member, inst)
                sampled = _sampled_inf(P, Q, g, seed=i)
                assert mu <= max(sampled, 0.0)
                if mu == 0.0:
                    zeros += 1
                else:
                    boundary += 1
    assert zeros > 0 and boundary > 0


def test_inconclusive_path_never_violates():
    rng = stream_rng(46, "inconcl")
    G = complex_gaussian(rng, (3, 3))
    A = hermitian_part(G.conj().T @ G)
    # zero tolerance forces the stricter test to fail on the tight instance;
    # members that subtract an infimum report at worst Inconclusive
    res = evaluate(InequalityId.REFINED_CONVEXITY, CheckInstance(A=A, B=A, v=0.4, f=power(2.0)), tol_rel=0.0)
    assert res.status in (Status.HOLDS, Status.INCONCLUSIVE)
    # the note that explains an inconclusive result rides on every result
    assert _INF_NOTE in res.semantics


def test_parameter_hypotheses_not_applicable():
    rng = stream_rng(47, "params")
    A = complex_gaussian(rng, (3, 3))
    assert evaluate(InequalityId.POWER_MIX, CheckInstance(A=A, r=0.5, v=0.5)).status is Status.NOT_APPLICABLE
    assert evaluate(InequalityId.POWER_MIX, CheckInstance(A=A, r=2.0, v=1.5)).status is Status.NOT_APPLICABLE
    assert evaluate(InequalityId.SUPERQUAD_POWER, CheckInstance(A=A, r=1.5)).status is Status.NOT_APPLICABLE
    bad_pq = CheckInstance(A=np.eye(3, dtype=complex), B=np.eye(3, dtype=complex), p=2.0, q=3.0, r=2.0)
    assert evaluate(InequalityId.HOSSEINI_GEO_NORMS, bad_pq).status is Status.NOT_APPLICABLE
    singular = np.diag([1.0, 0.0, 2.0]).astype(complex)
    geo = CheckInstance(A=singular, B=np.eye(3, dtype=complex), X=np.eye(3, dtype=complex))
    assert evaluate(InequalityId.GEO_RADIUS, geo).status is Status.NOT_APPLICABLE


def test_a_meaningless_link_tolerance_is_refused():
    # a NaN tol_rel fails every link and an infinite one passes any link, so
    # neither gives a verdict; 0 is the strictest test
    member = InequalityId.NORM_SANDWICH
    ens = EnsembleSpec(dim=3, seed=1)
    inst = draw_instance(member, ens, 0)
    for tol in (math.nan, math.inf, -1e-8):
        with pytest.raises(UnsupportedParameter):
            evaluate(member, inst, tol_rel=tol)
        with pytest.raises(UnsupportedParameter):
            catalog.evaluate_many(member, [], tol_rel=tol)
        with pytest.raises(UnsupportedParameter):
            run_suite([member, InequalityId.SUPERQUAD_POWER], ens, 5, tol_rel=tol)
    assert evaluate(member, inst, tol_rel=0.0).status is Status.HOLDS


def test_euclidean_sandwich_equality_instance():
    A = np.diag([1.0, 2.0, 0.5]).astype(complex)
    res = evaluate(InequalityId.EUCLIDEAN_SANDWICH, CheckInstance(A=A, B=A))
    assert res.status is Status.HOLDS
    assert res.details["w_e"] == pytest.approx(np.sqrt(2.0) * 2.0, abs=1e-8)


def test_superquad_members_hold_on_random():
    rng = stream_rng(48, "squad")
    for k in range(10):
        A = complex_gaussian(rng, (4, 4))
        res = evaluate(InequalityId.SUPERQUAD_RADIUS, CheckInstance(A=A, f=power(2.0 + k % 3)))
        assert res.status is Status.HOLDS
        res_p = evaluate(InequalityId.SUPERQUAD_POWER, CheckInstance(A=A, r=2.0 + k % 3))
        assert res_p.status is Status.HOLDS


def test_superquad_norm_keeps_its_scale_at_small_magnitudes():
    # The singular values come from one SVD of A, which squares nothing; the
    # entries of an unscaled A*A underflow, and from them the norm read 0 at 2^-600.
    A = complex_gaussian(stream_rng(49, "squad scale"), (4, 4))
    norm = evaluate(InequalityId.SUPERQUAD_POWER, CheckInstance(A=A, r=2.0)).details["norm"]
    for scale in (2.0**-600, 2.0**-520):
        res = evaluate(InequalityId.SUPERQUAD_POWER, CheckInstance(A=scale * A, r=2.0))
        assert res.details["norm"] == pytest.approx(scale * norm, rel=1e-14, abs=0.0), scale


def test_superquad_power_link_on_jordan_blocks():
    # J_n has w = cos(pi / (n + 1)) and singular values 1 (n - 1 times) and 0,
    # so the paper's link w^r <= ||A||^r - min_j |s_j - w|^r reads
    # cos^r <= 1 - (1 - cos)^r, with both sides in closed form
    member, link = InequalityId.SUPERQUAD_POWER, "w^r <= norm^r - inf"
    for n in range(2, 65):
        c = math.cos(math.pi / (n + 1))
        insts = [CheckInstance(A=np.eye(n, k=1, dtype=complex), r=r) for r in catalog.R_SUPER_GRID]
        for inst, res in zip(insts, catalog.evaluate_many(member, insts)):
            assert res.status is Status.HOLDS
            assert res.details[f"{link}.lhs"] == pytest.approx(c**inst.r, rel=1e-13, abs=0.0)
            assert res.details[f"{link}.rhs"] == pytest.approx(1 - (1 - c) ** inst.r, rel=1e-13, abs=0.0)


def test_superquad_power_subtracted_term_stays_under_its_ceiling():
    # With a = w and b = ||A|| - w <= a, d = min_j |s_j - w| <= b, and t^r convex,
    # (a + b)^r - a^r >= (2b)^r - b^r >= (2^r - 1) d^r: the paper's subtracted
    # term inf = d^r is at most (||A||^r - w^r) / (2^r - 1), a third of the gap at
    # r = 2. inf is read back from the link's rhs, ||A||^r - inf.
    member, link = InequalityId.SUPERQUAD_POWER, "w^r <= norm^r - inf"

    def ceiling_sides(inst, res):
        """(2^r - 1) inf, ||A||^r - w^r and ||A||^r of one result."""
        top = res.details["norm"] ** inst.r
        return (2**inst.r - 1) * (top - res.details[f"{link}.rhs"]), top - res.details[f"{link}.lhs"], top

    draws = [(dim, seed) for dim in (2, 3, 5, 8) for seed in (1, 9001)]
    insts = [draw_chunk(member, EnsembleSpec(dim=dim, seed=seed), range(64)) for dim, seed in draws]
    results = [(inst, res) for chunk in insts for inst, res in zip(chunk, catalog.evaluate_many(member, chunk))]
    assert len(results) == 512
    for inst, res in results:
        assert res.status is Status.HOLDS
        scaled_inf, gap, top = ceiling_sides(inst, res)
        assert scaled_inf <= gap + 1e-12 * top
    # J_2 (w = 1/2, singular values 0 and 1, so inf = 2^-r) attains the ceiling
    for r in catalog.R_SUPER_GRID:
        inst = CheckInstance(A=np.eye(2, k=1, dtype=complex), r=r)
        scaled_inf, gap, _ = ceiling_sides(inst, evaluate(member, inst))
        assert scaled_inf == pytest.approx(gap, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("k", [520, 600])
def test_superquad_power_sqrt_form_keeps_its_scale(k):
    # sqrt(||A||^2 - inf_2) formed from unscaled squares drifted 1e-13 off its
    # scale at 2^-520 and read 0 at 2^-600, where both squares underflow
    member = InequalityId.SUPERQUAD_POWER
    inst = draw_instance(member, EnsembleSpec(dim=4, seed=1), 0)
    base = evaluate(member, inst).details["w <= sqrt form.rhs"]
    s = 2.0**-k
    res = evaluate(member, dataclasses.replace(inst, A=s * inst.A))
    assert res.details["w <= sqrt form.rhs"] == pytest.approx(s * base, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
def test_kittaneh_chain_mid_is_half_the_norm_on_square_zero(n):
    # |A| and |A*| of a square-zero A have orthogonal supports, so
    # || |A| + |A*| || / 2 = ||A|| / 2; with |A| from the spectrum of A*A, mid
    # overstated it by up to 1.5e-8 relative
    for k in range(10):
        A = sample(EnsembleSpec(dim=n, kind="square-zero", seed=1), k)
        res = evaluate(InequalityId.KITTANEH_CHAIN, CheckInstance(A=A))
        assert res.details["w <= mid.rhs"] == pytest.approx(operator_norm(A) / 2, rel=1e-13, abs=0.0)


def test_two_sided_members_decompose_each_operand_once(monkeypatch):
    # |X| and |X*|, and gamma-product's g^2(|X|) beside them, come from one SVD
    # of X; kittaneh-chain decomposes A (mid and ||A||) and A^2 once each.
    # Gram spectra took two or three eigensolves per operand.
    M = InequalityId
    expected = {M.KITTANEH_CHAIN: 2, M.POWER_MIX: 1, M.MIXED_SCHWARZ: 1, M.GENERAL_PRODUCT: 1, M.GAMMA_PRODUCT: 1}
    ens = EnsembleSpec(dim=3, seed=1)
    svd = np.linalg.svd
    for member, count in expected.items():
        insts = [draw_instance(member, ens, i) for i in range(4)]
        shapes = []
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
            results = catalog.evaluate_many(member, insts)
        assert [r.status for r in results] == [Status.HOLDS] * 4, member
        # a lone 3 x 3 SVD would be an enclosure's Kittaneh cap
        assert set(shapes) <= {(4, 3, 3), (3, 3)}, member
        assert shapes.count((4, 3, 3)) == count, member


def test_non_power_h_takes_the_general_branch():
    # every drawn h is a power, which _h_matrix fuses into one exponent; the
    # deformed exponential is nonnegative, increasing and convex, but no power
    h = deformed_exp_function(0.5)
    for member in (InequalityId.CONVEX_PRODUCT, InequalityId.CONDITIONED_PRODUCT, InequalityId.GAMMA_PRODUCT):
        inst = draw_instance(member, EnsembleSpec(dim=3, seed=1), 0)
        assert evaluate(member, dataclasses.replace(inst, h=h)).status is Status.HOLDS, member


def test_h_matrix_fused_powers_match_the_functional_calculus():
    G = complex_gaussian(stream_rng(50, "h-matrix"), (3, 4, 4))
    H = hermitian_part(adjoint(G) @ G) + 0.5 * np.eye(4)
    hs = [power(2.0), power(1.5), power(3.0)]
    for pre in (None, [1.0 / 0.75, 2.0, 1.0 / 0.9]):
        fused = catalog._h_matrix(hs, H, pre)
        direct = apply_scalar_function(hs, hermitian_power(H, [1.0] * 3 if pre is None else pre))
        for F, D in zip(fused, direct):
            assert np.linalg.norm(F - D, 2) <= 1e-12 * np.linalg.norm(D, 2)


def test_suite_smoke_all_members_two_dims():
    for dim in (2, 3):
        ens = EnsembleSpec(dim=dim, kind="generic", seed=500 + dim)
        rep = run_suite(list(InequalityId), ens, trials=25)
        assert rep.total_violated == 0
        for record in rep.records:
            assert record.trials == 25
            assert record.holds + record.violated + record.inconclusive + record.not_applicable == 25


def test_run_suite_deterministic_and_empty():
    ens = EnsembleSpec(dim=4, kind="generic", seed=7)
    ids = [InequalityId.NORM_SANDWICH, InequalityId.REFINED_CONVEXITY]
    r1 = run_suite(ids, ens, trials=20)
    r2 = run_suite(ids, ens, trials=20)
    assert r1.to_json() == r2.to_json()
    empty = run_suite(ids, ens, trials=0)
    assert empty.records == [IneqRecord(i.value, 0, 0, 0, 0, 0, None, None, None, {}, []) for i in ids]


def test_every_catalog_enclosure_takes_the_one_tolerance(monkeypatch, tmp_path):
    from numradlab import cli

    tols = []

    def recording_radius(A, tol=None):
        tols.append(tol)
        return numerical_radius(A, tol=tol)

    monkeypatch.setattr(catalog, "numerical_radius", recording_radius)
    ens = EnsembleSpec(dim=3, kind="generic", seed=5)
    member = InequalityId.NORM_SANDWICH
    evaluate(member, draw_instance(member, ens, 0))
    catalog.evaluate_many(member, [draw_instance(member, ens, i) for i in range(3)])
    run_suite([member, InequalityId.REFINED_CONVEXITY], ens, trials=2)
    out = str(tmp_path / "s.json")
    assert cli.main(["search", "--ineq", member.value, "--dim", "2", "--restarts", "1", "--out", out]) == 0
    assert tols and set(tols) == {catalog._RADIUS_TOL}


# Every link side that reads a radius, by the end of the enclosure it reads.
# A w that a left side rises with reads ``left``.
LEFT_READS = {
    ("norm-sandwich", "w <= norm", "lhs"),
    ("kittaneh-chain", "w <= mid", "lhs"),
    ("power-mix", "w^r <= mix", "lhs"),
    ("product-power", "w^r <= mean", "lhs"),
    ("general-product", "w^r <= mean", "lhs"),
    ("wsq-sum", "w^2 <= bound", "lhs"),
    ("convex-product", "h(w^2) <= mix", "lhs"),
    ("convex-product-power", "w^2r <= mean", "lhs"),
    ("conditioned-product", "h(w) <= amgm norm", "lhs"),
    ("conditioned-specials", "w^r <= amgm norm", "lhs"),
    ("gamma-product", "h(w) <= norm / 2 gamma", "lhs"),
    ("improved-convex-product", "h(w^2) <= refined mix", "lhs"),
    ("superquad-radius", "f(w) <= f(norm) - inf", "lhs"),
    ("superquad-power", "w^r <= norm^r - inf", "lhs"),
    ("superquad-power", "w <= sqrt form", "lhs"),
    ("hosseini-geo", "w^r <= refined mean", "lhs"),
    ("euclidean-sandwich", "w_e <= sqrt norm", "lhs"),
    ("fconn-radius", "w <= half norm", "lhs"),
    ("geo-radius", "w <= half norm", "lhs"),
}
# Every other side reads ``value``: the right sides, and the four sides
# formed from |sigma_j - w|, which are not monotone in w.
VALUE_READS = {
    ("norm-sandwich", "half-norm <= w", "rhs"),
    ("sum-new-bound", "norm^2 <= new bound", "rhs"),
    ("sum-new-normal", "norm^2 <= new bound", "rhs"),
    ("wsq-sum", "w^2 <= bound", "rhs"),
    ("euclidean-sandwich", "sqrt2 |sharp| <= w_e", "rhs"),
    ("superquad-radius", "f(w) <= f(norm) - inf", "rhs"),
    ("superquad-power", "w^r <= norm^r - inf", "rhs"),
    ("superquad-power", "w <= sqrt form", "rhs"),
    ("superquad-power", "sqrt form <= norm", "lhs"),
}


def test_every_radius_read_takes_its_end_of_the_enclosure(monkeypatch):
    # Every member's draws 0-11 at dims 3 and 8, with left rebound to upper:
    # moving upper alone moves exactly the left reads, and moving value with
    # upper held at the computed value moves exactly the value reads.
    def link_sides(doctor=None):
        def radii(M, tol):
            return [dataclasses.replace(res, **doctor(res)) for res in numerical_radius(M, tol=tol)]

        with monkeypatch.context() as m:
            if doctor:
                m.setattr(catalog, "numerical_radius", radii)
                m.setattr(RadiusResult, "left", property(lambda res: res.upper))
            sides = {}
            for dim in (3, 8):
                for member in InequalityId:
                    insts = draw_chunk(member, EnsembleSpec(dim=dim, seed=1), range(12))
                    for k, res in enumerate(catalog.evaluate_many(member, insts)):
                        for key, val in res.details.items():
                            if key.endswith((".lhs", ".rhs")):
                                sides[(member.value, *key.rsplit(".", 1), dim, k)] = val
            return sides

    def moved(sides):
        assert sides.keys() == base.keys()
        return {key[:3] for key, val in sides.items() if repr(val) != repr(base[key])}

    base = link_sides()
    assert moved(link_sides(lambda res: {"upper": 1.001 * res.value})) == LEFT_READS
    assert moved(link_sides(lambda res: {"value": res.value * (1 - 1e-3), "upper": res.value})) == VALUE_READS


def test_run_suite_refuses_a_kind_it_never_draws():
    # each member's builder picks its own kinds, so a report under kind
    # "normal" would record draws that were generic
    with pytest.raises(UnsupportedParameter):
        run_suite([InequalityId.NORM_SANDWICH], EnsembleSpec(dim=2, kind="normal", seed=1), trials=1)


@pytest.mark.parametrize("member", list(InequalityId), ids=lambda m: m.value)
def test_missing_operands_are_not_applicable(member):
    # an empty instance, and drawn ones that each lack one matrix, scalar or function
    names = [f.name for f in dataclasses.fields(CheckInstance) if f.name not in ("vectors", "variant")]
    cases = [CheckInstance()]
    for index in range(3):  # the specials members cycle through three variants
        inst = draw_instance(member, EnsembleSpec(dim=3, seed=1), index)
        cases += [dataclasses.replace(inst, **{name: None}) for name in names if getattr(inst, name) is not None]
    for inst in cases:
        assert evaluate(member, inst).status is Status.NOT_APPLICABLE


@pytest.mark.parametrize("member", [InequalityId.CONDITIONED_SPECIALS, InequalityId.HOSSEINI_GEO_NORMS], ids=lambda m: m.value)
def test_variants_outside_the_three_are_not_evaluated(member):
    # a variant outside the three fails its hypotheses instead of being read as another
    ens = EnsembleSpec(dim=3, seed=1)
    for index in range(3):
        res = evaluate(member, dataclasses.replace(draw_instance(member, ens, index), variant=7))
        assert res.status is Status.NOT_APPLICABLE
        assert res.hypothesis.conditions["variant in {0, 1, 2}"] is False


def test_every_member_keys_its_draws_with_its_own_id(monkeypatch):
    # the (seed, tag, index) of every stream a chunk of draws requests; a new
    # key changes every report, so the keys are pinned for all members
    keys = []

    def recording(seed, tag, index=0):
        keys.append((seed, tag, int(index)))
        return stream_rng(seed, tag, index)

    monkeypatch.setattr(catalog, "stream_rng", recording)
    monkeypatch.setattr(ensembles, "stream_rng", recording)
    doc = {}
    for member in InequalityId:
        keys.clear()
        draw_chunk(member, EnsembleSpec(dim=3, seed=1), [0, 1, 2])
        assert keys and all(f":{member.value}:" in tag for _, tag, _ in keys), member
        doc[member.value] = sorted(keys)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "ddb777d97108f120a8f9a43a865138750594206bc515f765641d1762d5c9f21b"


# sha256 of the params of draws 0-59 at dim 3, seed 1; params sit in every
# report's min_slack_params, and each grid axis steps at its own draw period
PARAMS_DIGESTS = {
    "norm-sandwich": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "kittaneh-chain": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "power-mix": "acb3677f8132c604985843c8cb1d91ed0275f4ce6caa9ff181f34478a9ce391b",
    "sum-sq-kittaneh": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "product-power": "854b548152e78a73c4978a88ae11e9c0c63bba5cf042e93c9b40dd994aa5f4fd",
    "general-product": "acb3677f8132c604985843c8cb1d91ed0275f4ce6caa9ff181f34478a9ce391b",
    "dragomir-vector": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "sum-new-bound": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "sum-new-normal": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "wsq-sum": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "convex-product": "6ec7d69dfa61cb465d2ed650966e735916e76b4c5a2e7d00549ec896a186a62e",
    "convex-product-power": "721a4cca23676c0c97be6a2a1356d5a598d689be5600bb8017e2a52d8e2492c6",
    "scalar-refined-amgm": "df652a40b9301bf3ae1292728417a17d96a08989f231388168a0474261f7ac1a",
    "conditioned-product": "3b6a8ebe5f0b5a10782ce661ab3b96f2e9dc259d443dc2998b0cdbf8c94a277f",
    "conditioned-specials": "ab329529500be52880aca2b1182c03244bc12f2764ccc2dda32edddcae37c447",
    "gamma-product": "adfbc35a221a91d30c47dc675f4496b787ce165752b079c43b958e867227b249",
    "refined-convexity": "c6b76a3ea42023d08d251fcd7de467bbc87ee07033a58ea633ea30f4b19f1fa9",
    "improved-convex-product": "6ec7d69dfa61cb465d2ed650966e735916e76b4c5a2e7d00549ec896a186a62e",
    "superquad-radius": "7c7267564a3e0848a56daef96ec12abb096bbc2aa15bd4248c603a665fcc61d5",
    "superquad-power": "3639b8b6f22dddf01c0943906fd34f30d4c4213d9491f522f0a7bdbbd340cb83",
    "hosseini-geo": "bed2529ec8a80110563dafe9cfcae6244e6052dc5629a0416cec5a7bdf400282",
    "hosseini-geo-norms": "39ca6e6e0d2f5254b4c5f4e2ac6340d9821d51f51d6b3a9c9240f08b8761a157",
    "euclidean-sandwich": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "fconn-radius": "1dca0f7e49709db964960560c94e7511933c0e342062c31b0054bbde5e8d0eae",
    "geo-radius": "34b2b19eff1c21ff7ddfbb99ff600ba178e571564ba5f7d76872ee5d7d4ea0d0",
    "mixed-schwarz": "044909999782e91183c8268c6f9d33cc5b9a472dfa20d74ab1677a50844f5cf5",
    "mond-pecaric": "d63f135188f712973588d786d7cc4454b95eda1189dff0fd753089fc8ca8442a",
    "norm-convexity": "c6b76a3ea42023d08d251fcd7de467bbc87ee07033a58ea633ea30f4b19f1fa9",
    "superquad-defect": "7c7267564a3e0848a56daef96ec12abb096bbc2aa15bd4248c603a665fcc61d5",
}


@pytest.mark.parametrize("member", list(InequalityId), ids=lambda m: m.value)
def test_every_member_pins_its_draw_parameters(member):
    insts = draw_chunk(member, EnsembleSpec(dim=3, seed=1), range(60))
    doc = json.dumps([inst.params() for inst in insts], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == PARAMS_DIGESTS[member.value]


def test_draw_hooks_read_their_streams_in_order():
    # sha256 of the values that come from the draws' streams alone, at dim 3,
    # seed 1: a hook that read its stream in another order would change them.
    # z and the unit rows are left out: their norms go through BLAS and
    # reductions, whose bits may differ by platform
    ens = EnsembleSpec(dim=3, seed=1)

    def draws(member):
        return draw_chunk(InequalityId(member), ens, range(3))

    doc = {
        "scalar-refined-amgm": [[i.a, i.b, i.m, i.M] for i in draws("scalar-refined-amgm")],
        "superquad-defect": [[list(st) for st in i.vectors] for i in draws("superquad-defect")],
        "dragomir-vector": [
            [[v.real.tolist(), v.imag.tolist()] for x, y, _ in i.vectors for v in (x, y)] for i in draws("dragomir-vector")
        ],
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "a9e54d513ef9d0c1445f252a3f585c35ad05e11b16d464e61e81b26abab018d8"


# the members that require a Hermitian operand: mond-pecaric's evaluator, and
# the seven whose hypotheses name an operand's positivity
_HERMITIAN_READERS = (
    "mond-pecaric", "refined-convexity", "hosseini-geo", "hosseini-geo-norms", "euclidean-sandwich", "fconn-radius",
    "geo-radius", "norm-convexity",
)


@pytest.mark.parametrize("member", [InequalityId(i) for i in _HERMITIAN_READERS], ids=lambda m: m.value)
def test_a_non_hermitian_operand_is_refused_not_raised(member):
    # a positivity hypothesis fails a non-Hermitian operand itself; it does
    # not certify the operand's Hermitian part. An operand beyond the float
    # range is refused as such, not raised from the Hermitian test
    inst = draw_instance(member, EnsembleSpec(dim=3, seed=1), 0)
    changes = (((0, 1), 0.3, "matrix deviates from Hermitian"), ((0, 0), np.inf, "beyond the float range"))
    for entry, change, note in changes:
        A = inst.A.copy()
        A[entry] += change
        res = evaluate(member, dataclasses.replace(inst, A=A))
        assert res.status is Status.NOT_APPLICABLE
        assert res.hypothesis.notes[-1].startswith(f"evaluation refused: {note}")
        assert not any(ok for name, ok in res.hypothesis.conditions.items() if name.startswith("A positive"))


@pytest.mark.parametrize(
    "member", [InequalityId(i) for i in _HERMITIAN_READERS if i != "mond-pecaric"], ids=lambda m: m.value
)
def test_evaluators_read_the_operands_their_check_certified(member):
    # A and B within EPS_HERM of Hermitian pass the positivity check as their
    # Hermitian parts, so every side is computed from those parts alone
    insts = draw_chunk(member, EnsembleSpec(dim=4, seed=3), range(6))
    rng = stream_rng(3, "test:anti-hermitian", 0)
    for inst in insts:
        moved = {}
        for name in "AB":
            Z = complex_gaussian(rng, inst.A.shape)
            moved[name] = getattr(inst, name) + 1e-13 * (Z - adjoint(Z))
        res = evaluate(member, dataclasses.replace(inst, **moved))
        ref = evaluate(member, dataclasses.replace(inst, **{k: hermitian_part(M) for k, M in moved.items()}))
        assert res.status is ref.status is not Status.NOT_APPLICABLE
        assert (res.lhs, res.rhs) == (ref.lhs, ref.rhs)


def test_a_draw_refused_mid_check_keeps_the_conditions_decided():
    # general-product's check forms its sides after the r and v conditions;
    # at 1e160 they overflow, and the report keeps what was decided first
    member = InequalityId.GENERAL_PRODUCT
    res = evaluate(member, draw_instance(member, EnsembleSpec(dim=3, seed=1, scale=1e160), 0))
    assert res.status is Status.NOT_APPLICABLE
    assert res.hypothesis.conditions == {"r >= 1": True, "0 < v < 1": True}
    assert res.hypothesis.notes == ["evaluation refused: beyond the float range"]
    assert not res.hypothesis.satisfied


@pytest.mark.parametrize("routine", ["eigh", "eigvalsh", "svd"])
def test_a_lapack_failure_refuses_its_draw_in_every_kernel(routine, monkeypatch):
    # every kernel lets numpy's LinAlgError through, and evaluate refuses the
    # draw whichever decomposition failed
    insts = {member: draw_instance(member, EnsembleSpec(dim=3, seed=1), 0) for member in InequalityId}

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    results = [evaluate(member, inst) for member, inst in insts.items()]
    refused = [res for res in results if res.status is Status.NOT_APPLICABLE]
    assert refused
    assert all(res.hypothesis.notes[-1] == "evaluation refused: beyond the float range" for res in refused)


@pytest.mark.parametrize("seed", [1, 9001])
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_conditioned_specials_unit_operands_are_exact(dim, seed):
    # variants 1 and 2 are the weighted sandwich A* X B with I for the operands
    # they leave out; products with I and the SVD of I are exact, so their
    # sides and radius targets are bitwise the specializations written out
    member = InequalityId.CONDITIONED_SPECIALS
    insts = draw_chunk(member, EnsembleSpec(dim=dim, seed=seed), range(30))
    hyps = [catalog.HypothesisReport(satisfied=True) for _ in insts]
    ops = catalog._verify_chunk(member, insts, hyps)
    live = [k for k, hyp in enumerate(hyps) if hyp.satisfied]
    targets = []

    def radii(M):
        targets.append(M)
        return numerical_radius(M, tol=1e-12)

    chunk = {name: M[live] for name, M in ops.items()}
    catalog.MEMBERS[member].evaluate([insts[k] for k in live], [hyps[k] for k in live], chunk, radii)
    target = dict(zip(live, targets[0], strict=True))
    assert {inst.variant for inst in insts} == {0, 1, 2}
    for k, inst in enumerate(insts):
        if inst.variant == 1:
            S, T = abs_sides(inst.X, 2 * (1 - inst.v), adj=2 * inst.v)
            want = inst.X
        elif inst.variant == 2:
            S, T = hermitian_part(adjoint(inst.B) @ inst.B), hermitian_part(adjoint(inst.A) @ inst.A)
            want = adjoint(inst.A) @ inst.B
        else:
            continue
        assert ops["S"][k].tobytes() == S.tobytes() and ops["T"][k].tobytes() == T.tobytes(), k
        if k in target:
            assert target[k].tobytes() == want.tobytes(), k


def test_run_suite_norm_sandwich_hundred_holds():
    ens = EnsembleSpec(dim=4, kind="generic", seed=7)
    rep = run_suite([InequalityId.NORM_SANDWICH], ens, trials=100)
    rec = rep.records[0]
    assert rec.holds == 100 and rec.violated == 0


def test_run_suite_budget_exhausted(monkeypatch):
    def hopeless_builder(ens, member, indices):
        return [CheckInstance(A=np.eye(ens.dim, dtype=complex), f=dataclasses.replace(power(2.0), flags=frozenset())) for _ in indices]

    member = InequalityId.MOND_PECARIC
    monkeypatch.setitem(catalog.MEMBERS, member, dataclasses.replace(catalog.MEMBERS[member], build=hopeless_builder))
    ens = EnsembleSpec(dim=2, kind="generic", seed=1)
    with pytest.raises(BudgetExhausted):
        run_suite([InequalityId.MOND_PECARIC], ens, trials=1)


def test_verdict_counts_do_not_depend_on_magnitude():
    # the hypothesis and kernel floors are relative to the operands' size, so
    # a scaled draw verifies and certifies as its unscaled twin does
    def counts(scale):
        rep = run_suite(list(InequalityId), EnsembleSpec(dim=3, seed=1, scale=scale), trials=20)
        return {r.ineq: (r.holds, r.violated, r.inconclusive, r.not_applicable) for r in rep.records}

    unscaled = counts(1.0)
    for scale in (2.0**-500, 2.0**-60, 1e-20, 2.0**60):
        assert counts(scale) == unscaled, scale


def test_a_check_holds_only_when_every_link_holds(monkeypatch):
    # "small" fails its own tolerance (3e-8) beside "big", whose slack is
    # less in absolute terms but within its tolerance (2e-5): the check fails
    # on "small", not holds on "big"
    member = InequalityId.KITTANEH_CHAIN
    record = catalog.MEMBERS[member]

    def doctored(insts, hyps, ops, radii):
        links = [("big", 1000.0, 1000.0 - 1e-6), ("small", 1.0, 1.0 - 5e-7)]
        return [(links, details, semantics) for _, details, semantics in record.evaluate(insts, hyps, ops, radii)]

    monkeypatch.setitem(catalog.MEMBERS, member, dataclasses.replace(record, evaluate=doctored))
    res = evaluate(member, draw_instance(member, EnsembleSpec(dim=3, seed=1), 0))
    assert res.status is Status.VIOLATED
    assert (res.details["binding"], res.lhs, res.rhs) == ("small", 1.0, 1.0 - 5e-7)


@pytest.mark.parametrize(
    "links, binding, status",
    [
        # tied least slacks, among failing links and among holding ones: the first binds
        ([("wide", 0.0, 1.0), ("tie-a", 1.0, 0.5), ("tie-b", 2.0, 1.5)], "tie-a", Status.VIOLATED),
        ([("wide", 0.0, 2.0), ("tie-a", 1.0, 1.5), ("tie-b", 2.0, 2.5)], "tie-a", Status.HOLDS),
        # a NaN after a failing link binds before a failing link of less
        # slack, and before a later NaN; it refuses the draw
        (
            [("fails", 1.0, 0.5), ("nan-a", math.nan, 1.0), ("fails-more", 3.0, 0.0), ("nan-b", 1.0, math.nan)],
            "nan-a",
            Status.NOT_APPLICABLE,
        ),
    ],
)
def test_the_binding_link_is_the_first_nan_else_the_first_least_slack(links, binding, status, monkeypatch):
    member = InequalityId.KITTANEH_CHAIN
    record = catalog.MEMBERS[member]
    seen = []

    def doctored(insts, hyps, ops, radii):
        outcomes = [(links, details, semantics) for _, details, semantics in record.evaluate(insts, hyps, ops, radii)]
        seen.extend(details for _, details, _ in outcomes)
        return outcomes

    monkeypatch.setitem(catalog.MEMBERS, member, dataclasses.replace(record, evaluate=doctored))
    res = evaluate(member, draw_instance(member, EnsembleSpec(dim=3, seed=1), 0))
    assert res.status is status
    assert seen[0]["binding"] == binding
    if status is not Status.NOT_APPLICABLE:
        assert (res.details["binding"], res.lhs, res.rhs) == next(link for link in links if link[0] == binding)


def test_psd_hypothesis_agrees_with_the_kernels():
    # the hypothesis test and the kernels share one relative slack: both refuse
    # a spectrum whose least eigenvalue is -1e-11 of its norm, and both accept
    # one at -1e-13, at any magnitude
    U, _ = np.linalg.qr(complex_gaussian(stream_rng(5, "psd-agree"), (3, 3)))
    for scale in (1.0, 2.0**-600):
        for low, positive in ((-1e-11, False), (-1e-13, True)):
            H = scale * hermitian_part(U @ np.diag([low, 0.5, 1.0]) @ adjoint(U))
            reports = [catalog.HypothesisReport(satisfied=True)]
            catalog._psd("A")([CheckInstance(A=H)], reports, {})
            assert reports[0].conditions["A positive semidefinite"] is positive
            if positive:
                hermitian_power(H, 0.5)
                weighted_geometric(np.eye(3), H, 0.5)
            else:
                with pytest.raises(NotPositive):
                    hermitian_power(H, 0.5)
                with pytest.raises(NotPositive):
                    weighted_geometric(np.eye(3), H, 0.5)


def test_sampled_members_note_semantics():
    ens = EnsembleSpec(dim=3, kind="generic", seed=9)
    inst = draw_instance(InequalityId.HOSSEINI_GEO, ens, 0)
    res = evaluate(InequalityId.HOSSEINI_GEO, inst)
    assert res.status is Status.HOLDS
    assert any("stricter test" in s for s in res.semantics)
    assert any("lower bound" in s for s in res.semantics)


def same_result(a, b):
    """Field-by-field equality of two check results, bitwise in every number."""
    # repr prints each float exactly, so equal reprs mean bitwise-equal numbers
    assert repr(a) == repr(b)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 64])
def test_evaluate_many_matches_one_by_one(dim, monkeypatch):
    ens = EnsembleSpec(dim=dim, kind="generic", seed=41)
    for member in InequalityId:
        insts = [draw_instance(member, ens, i) for i in range(12 if dim <= 8 else 2)]
        batch = catalog.evaluate_many(member, insts, tol_rel=1e-8)
        assert len(batch) == len(insts)
        for inst, res in zip(insts, batch):
            same_result(res, evaluate(member, inst, tol_rel=1e-8))
    # a draw that fails its hypotheses (r < 1), and one whose evaluator is
    # refused after its radius came back, beside draws that hold
    ens = EnsembleSpec(dim=dim, kind="generic", seed=42)
    insts = [draw_instance(InequalityId.POWER_MIX, ens, i) for i in range(4)]
    insts[1] = dataclasses.replace(insts[1], r=0.5)
    batch = catalog.evaluate_many(InequalityId.POWER_MIX, insts)
    assert [r.status for r in batch] == [Status.HOLDS, Status.NOT_APPLICABLE, Status.HOLDS, Status.HOLDS]
    for inst, res in zip(insts, batch):
        same_result(res, evaluate(InequalityId.POWER_MIX, inst))
    # a refusal raised inside a stacked kernel, by the middle draw of a chunk:
    # a square root of a negative definite operand
    insts = [draw_instance(InequalityId.MOND_PECARIC, ens, i) for i in range(3)]
    insts[1] = dataclasses.replace(insts[1], A=-insts[1].A, f=power(0.5))
    batch = catalog.evaluate_many(InequalityId.MOND_PECARIC, insts)
    assert [r.status for r in batch] == [Status.HOLDS, Status.NOT_APPLICABLE, Status.HOLDS]
    assert batch[1].hypothesis.notes[0].startswith("evaluation refused: value")
    for inst, res in zip(insts, batch):
        same_result(res, evaluate(InequalityId.MOND_PECARIC, inst))
    refused = draw_instance(InequalityId.NORM_SANDWICH, ens, 1).A
    operator_norm = catalog.operator_norm

    def norm_refusing(A):
        if any(np.array_equal(M, refused) for M in A):
            raise NotInvertible("refused after the radius")
        return operator_norm(A)

    monkeypatch.setattr(catalog, "operator_norm", norm_refusing)
    insts = [draw_instance(InequalityId.NORM_SANDWICH, ens, i) for i in range(3)]
    insts[1] = CheckInstance(A=refused)
    radii = []
    monkeypatch.setattr(
        catalog, "numerical_radius", lambda A, **kw: radii.append(A.shape) or numerical_radius(A, **kw)
    )
    batch = catalog.evaluate_many(InequalityId.NORM_SANDWICH, insts)
    assert radii[0] == (3, dim, dim)  # one enclosure call for the chunk
    assert radii[1:] == [(1, dim, dim)] * 3  # then one per draw, as the refusal sends the chunk back
    assert [r.status for r in batch] == [Status.HOLDS, Status.NOT_APPLICABLE, Status.HOLDS]
    assert batch[1].hypothesis.notes == ["evaluation refused: refused after the radius"]
    for inst, res in zip(insts, batch):
        same_result(res, evaluate(InequalityId.NORM_SANDWICH, inst))


def one_by_one_record(ineq, ensemble, trials, tol_rel, draws):
    """Reference for ``suite._run_member``: draw, evaluate and keep one index at a time."""
    import statistics

    from numradlab import suite as suite_mod

    kept, budget = [], 100 * max(trials, 1)
    while len(kept) < trials:
        if draws[0] >= budget:
            raise BudgetExhausted(f"{ineq.value}: no hypothesis-satisfying instance within {budget} draws")
        index = draws[0]
        inst = suite_mod.draw_instance(ineq, ensemble, index)
        draws[0] += 1
        result = evaluate(ineq, inst, tol_rel=tol_rel)
        if result.status is not Status.NOT_APPLICABLE:
            kept.append((index, inst, result))
    slacks = [r.slack for _, _, r in kept]
    index, inst, _ = min(kept, key=lambda k: k[2].slack)
    return IneqRecord(
        ineq=ineq.value,
        trials=trials,
        holds=sum(r.status is Status.HOLDS for _, _, r in kept),
        violated=sum(r.status is Status.VIOLATED for _, _, r in kept),
        inconclusive=sum(r.status is Status.INCONCLUSIVE for _, _, r in kept),
        not_applicable=0,
        min_slack=min(slacks),
        median_slack=statistics.median(slacks),
        min_slack_index=index,
        min_slack_params=inst.params(),
        notes=sorted({note for _, _, r in kept for note in r.semantics}),
    )


def test_run_member_chunks_keep_the_one_by_one_draws(monkeypatch):
    from numradlab import suite as suite_mod

    rejected = {1, 4, 5, 9, 13, 14, 15}
    index_of = {}
    draw = suite_mod.draw_chunk
    verify = catalog._verify_chunk

    def tagged_draw(ineq, ensemble, indices):
        insts = draw(ineq, ensemble, indices)
        for index, inst in zip(indices, insts):
            index_of[id(inst.A)] = index, inst.A  # holding A keeps its id unique
        return insts

    def rejecting_verify(ineq, insts, hyps):
        operands = verify(ineq, insts, hyps)
        for inst, hyp in zip(insts, hyps):
            if index_of[id(inst.A)][0] in rejected:
                hyp.satisfied = False
        return operands

    monkeypatch.setattr(suite_mod, "CHUNK", 4)
    monkeypatch.setattr(suite_mod, "draw_chunk", tagged_draw)
    monkeypatch.setattr(catalog, "_verify_chunk", rejecting_verify)
    ens = EnsembleSpec(dim=3, kind="generic", seed=43)
    member = InequalityId.PRODUCT_POWER
    record = suite_mod._run_member(member, ens, 10, 1e-8)
    draws = [0]
    assert record == one_by_one_record(member, ens, 10, 1e-8, draws)
    assert record.min_slack_index not in rejected
    # a budget spent at the same draw count: only two indices below 100 verify
    rejected = set(range(300)) - {3, 7}
    index_of.clear()
    calls = []
    monkeypatch.setattr(suite_mod, "draw_chunk", lambda *a: calls.extend(a[2]) or tagged_draw(*a))
    with pytest.raises(BudgetExhausted):
        suite_mod._run_member(member, ens, 3, 1e-8)
    assert calls == list(range(300))
    draws = [0]
    with pytest.raises(BudgetExhausted):
        one_by_one_record(member, ens, 3, 1e-8, draws)
    assert draws == [300]


def test_refusing_chunks_grow(monkeypatch):
    # at 2**60 most convex-product draws are refused: 75 draws keep 20, which
    # chunks sized by the count still needed took 14 calls to draw
    from numradlab import suite as suite_mod

    member, ens = InequalityId.CONVEX_PRODUCT, EnsembleSpec(dim=3, seed=1, scale=2.0**60)
    sizes = []
    draw = suite_mod.draw_chunk
    monkeypatch.setattr(suite_mod, "draw_chunk", lambda ineq, e, indices: sizes.append(len(indices)) or draw(ineq, e, indices))
    record = suite_mod._run_member(member, ens, 20, 1e-8)
    assert len(sizes) <= 4
    assert record == one_by_one_record(member, ens, 20, 1e-8, [0])


@pytest.mark.parametrize(
    "member, scale",
    [
        (InequalityId.CONVEX_PRODUCT, 2.0**10),
        (InequalityId.IMPROVED_CONVEX_PRODUCT, 2.0**10),
        (InequalityId.IMPROVED_CONVEX_PRODUCT, 2.0**30),
        (InequalityId.CONVEX_PRODUCT_POWER, 2.0**60),
        (InequalityId.SUPERQUAD_RADIUS, 1e150),
        (InequalityId.MOND_PECARIC, 1e150),
    ],
)
def test_draws_beyond_the_float_range_are_refused(member, scale):
    # these raised LinAlgError, ValueError or OverflowError, or read violated
    # on an infinite side, before an overflow refused its own draw only
    ens = EnsembleSpec(dim=3, seed=1, scale=scale)
    rec = run_suite([member], ens, trials=20).records[0]
    assert (rec.holds, rec.violated, rec.inconclusive) == (20, 0, 0)
    from numradlab.suite import draw_chunk

    insts = draw_chunk(member, ens, range(20))
    batch = catalog.evaluate_many(member, insts)
    refused = [r for r in batch if r.status is Status.NOT_APPLICABLE]
    assert refused and len(refused) < len(batch)
    assert all(r.hypothesis.notes[-1] == "evaluation refused: beyond the float range" for r in refused)
    assert all(r.status is Status.HOLDS for r in batch if r.status is not Status.NOT_APPLICABLE)
    for inst, res in zip(insts, batch):  # the refusals do not sink their chunk-mates
        same_result(res, evaluate(member, inst))


@pytest.mark.parametrize("dim", [2, 8])
def test_run_suite_chunks_of_one_give_the_same_report(dim, monkeypatch):
    from numradlab import suite as suite_mod

    ens = EnsembleSpec(dim=dim, seed=11)
    chunked = run_suite(list(InequalityId), ens, trials=20)
    monkeypatch.setattr(suite_mod, "CHUNK", 1)
    assert run_suite(list(InequalityId), ens, trials=20).to_json() == chunked.to_json()
