"""Inequality catalog: member enumeration, hypothesis verification, and
two-sided evaluation with slack accounting.

Every member computes its left and right side exactly as displayed, using
the kernel modules. Numerical radii are attained lower bounds, which are
safe on the right of a link and lenient on its left by at most the radius
enclosure's width. Infima inside subtracted refinement terms are taken over
the joint numerical range of a Hermitian pair: exactly 0 when a zero test
proves it, otherwise an attained minimum over the range's boundary. Either
way they are upper estimates, which only shrink the right side, and a failure
there is reported Inconclusive.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from types import GeneratorType

import numpy as np

from .errors import DomainViolation, NotInvertible, NotPositive, UnsupportedParameter
from .functions import (
    CONCAVE,
    CONVEX,
    INCREASING,
    NONNEG,
    SUPERQUADRATIC,
    ScalarFunction,
    SchwarzPair,
    jensen_gap_mu,
    superquadratic_defect,
)
from .linalg import (
    EPS_HERM,
    INV_CUTOFF,
    abs_power,
    adjoint,
    apply_scalar_function,
    as_matrix,
    check_hermitian,
    gram_function,
    hermitian_part,
    hermitian_power,
    loewner_leq,
    norm_hermitian,
    operator_norm,
)
from .means import gamma_factor, pd_roots, weighted_geometric
from .radius import _boundary_inf, numerical_radius, quad_forms


class InequalityId(enum.Enum):
    NORM_SANDWICH = "norm-sandwich"
    KITTANEH_CHAIN = "kittaneh-chain"
    POWER_MIX = "power-mix"
    SUM_SQ_KITTANEH = "sum-sq-kittaneh"
    PRODUCT_POWER = "product-power"
    GENERAL_PRODUCT = "general-product"
    DRAGOMIR_VECTOR = "dragomir-vector"
    SUM_NEW_BOUND = "sum-new-bound"
    SUM_NEW_NORMAL = "sum-new-normal"
    WSQ_SUM = "wsq-sum"
    CONVEX_PRODUCT = "convex-product"
    CONVEX_PRODUCT_POWER = "convex-product-power"
    SCALAR_REFINED_AMGM = "scalar-refined-amgm"
    CONDITIONED_PRODUCT = "conditioned-product"
    CONDITIONED_SPECIALS = "conditioned-specials"
    GAMMA_PRODUCT = "gamma-product"
    REFINED_CONVEXITY = "refined-convexity"
    IMPROVED_CONVEX_PRODUCT = "improved-convex-product"
    SUPERQUAD_RADIUS = "superquad-radius"
    SUPERQUAD_POWER = "superquad-power"
    HOSSEINI_GEO = "hosseini-geo"
    HOSSEINI_GEO_NORMS = "hosseini-geo-norms"
    EUCLIDEAN_SANDWICH = "euclidean-sandwich"
    FCONN_RADIUS = "fconn-radius"
    GEO_RADIUS = "geo-radius"
    MIXED_SCHWARZ = "mixed-schwarz"
    MOND_PECARIC = "mond-pecaric"
    NORM_CONVEXITY = "norm-convexity"
    SUPERQUAD_DEFECT = "superquad-defect"


def lookup_id(name: str) -> InequalityId:
    for member in InequalityId:
        if member.value == name:
            return member
    raise KeyError(name)


class Status(enum.Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


#: Members whose right side subtracts an infimum over the sphere; a failed
#: stricter test on these may legitimately be Inconclusive rather than Violated.
INCONCLUSIVE_CAPABLE = frozenset(
    {
        InequalityId.REFINED_CONVEXITY,
        InequalityId.IMPROVED_CONVEX_PRODUCT,
        InequalityId.HOSSEINI_GEO,
        InequalityId.HOSSEINI_GEO_NORMS,
    }
)

#: Members evaluated pointwise at supplied vectors rather than as norm bounds.
POINTWISE_MEMBERS = frozenset(
    {
        InequalityId.MIXED_SCHWARZ,
        InequalityId.MOND_PECARIC,
        InequalityId.DRAGOMIR_VECTOR,
        InequalityId.SUPERQUAD_DEFECT,
    }
)


@dataclass(frozen=True)
class EvalOptions:
    """Numeric knobs for the evaluators: the radius enclosure's relative gap."""

    radius_tol: float = 1e-10


DEFAULT_OPTIONS = EvalOptions()
# Suite preset: a radius gap far below the certification tolerance.
SUITE_OPTIONS = EvalOptions(radius_tol=1e-12)


@dataclass
class CheckInstance:
    """Operands for one inequality check; members read the fields they need."""

    A: np.ndarray | None = None
    B: np.ndarray | None = None
    X: np.ndarray | None = None
    vectors: tuple = ()
    a: float | None = None
    b: float | None = None
    m: float | None = None
    M: float | None = None
    s: float | None = None
    t: float | None = None
    r: float | None = None
    v: float | None = None
    p: float | None = None
    q: float | None = None
    pair: SchwarzPair | None = None
    h: ScalarFunction | None = None
    f: ScalarFunction | None = None
    variant: int = 0

    def params(self) -> dict:
        out = {}
        for key in ("r", "v", "p", "q", "a", "b", "m", "M", "s", "t"):
            val = getattr(self, key)
            if val is not None:
                out[key] = float(val)
        if self.pair is not None:
            out["pair"] = self.pair.name
        if self.h is not None:
            out["h"] = self.h.name
        if self.f is not None:
            out["f"] = self.f.name
        out["variant"] = self.variant
        return out


@dataclass
class HypothesisReport:
    satisfied: bool
    conditions: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


@dataclass
class CheckResult:
    ineq: InequalityId
    lhs: float
    rhs: float
    slack: float
    status: Status
    hypothesis: HypothesisReport
    witness: np.ndarray | None = None
    details: dict = field(default_factory=dict)
    semantics: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# small shared helpers


def _psd_ok(H, name, conditions, invertible=False):
    lam = np.linalg.eigvalsh(hermitian_part(H))
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if invertible:
        ok = lam[0] > INV_CUTOFF * scale
        conditions[f"{name} positive invertible"] = bool(ok)
    else:
        ok = lam[0] >= -1e-10 * scale
        conditions[f"{name} positive semidefinite"] = bool(ok)
    return bool(ok)


def _is_normal(A):
    A = as_matrix(A)
    dev = np.linalg.norm(A @ A.conj().T - A.conj().T @ A)
    return dev <= 1e-10 * max(1.0, np.linalg.norm(A) ** 2)


def _pair_gram(X, fn):
    """fn(|X|)^2 materialized from the singular spectrum of X."""
    return gram_function(X, lambda s: np.asarray(fn(s), dtype=float) ** 2)


def _pair_gram_adj(X, fn):
    return gram_function(X, lambda s: np.asarray(fn(s), dtype=float) ** 2, adjoint_side=True)


def _schwarz_sides(inst):
    """S = B* f^2(|X|) B and T = A* g^2(|X*|) A for the product members."""
    f, g = inst.pair.f, inst.pair.g
    S = hermitian_part(adjoint(inst.B) @ _pair_gram(inst.X, f) @ inst.B)
    T = hermitian_part(adjoint(inst.A) @ _pair_gram_adj(inst.X, g) @ inst.A)
    return S, T


def _h_matrix(h: ScalarFunction, H, pre_exponent=1.0):
    """h(H**pre_exponent); fuses exponents when h is a pure power."""
    if h.kind == "power":
        return hermitian_power(H, h.params[0] * pre_exponent)
    M = hermitian_power(H, pre_exponent) if pre_exponent != 1.0 else H
    return apply_scalar_function(h, M)


def _singular_values(A):
    lam = np.linalg.eigvalsh(hermitian_part(adjoint(A) @ A))
    return np.sqrt(np.clip(lam, 0.0, None))


def _amgm_factor(m, M):
    return math.sqrt(M * m) / (M + m)


def _chain(ineq, hyp, links, details, semantics, witness=None):
    """Assemble a result from named (lhs, rhs) links; the binding link wins."""
    slacks = [r - l for _, l, r in links]
    k = int(np.argmin(slacks))
    name, lhs, rhs = links[k]
    for nm, l, r in links:
        details[f"{nm}.lhs"] = float(l)
        details[f"{nm}.rhs"] = float(r)
    details["binding"] = name
    return ineq, float(lhs), float(rhs), details, semantics, witness


_W_NOTE = "numerical radius: attained lower bound of a support-line enclosure"
_INF_NOTE = "subtracted infimum: exact 0 or an attained minimum over the joint numerical range (stricter test)"


# ---------------------------------------------------------------------------
# hypothesis verification


def verify_hypotheses(ineq: InequalityId, inst: CheckInstance) -> HypothesisReport:
    """Check a member's hypotheses; failures are reported, never thrown."""
    cond: dict = {}
    bounds: dict = {}
    notes: list = []

    def rng_ok(name, ok):
        cond[name] = bool(ok)

    if ineq in (InequalityId.POWER_MIX, InequalityId.GENERAL_PRODUCT):
        rng_ok("r >= 1", inst.r is not None and inst.r >= 1.0)
        rng_ok("0 < v < 1", inst.v is not None and 0.0 < inst.v < 1.0)
    elif ineq is InequalityId.PRODUCT_POWER:
        rng_ok("r >= 1", inst.r is not None and inst.r >= 1.0)
    elif ineq is InequalityId.SUM_NEW_NORMAL:
        rng_ok("A normal", _is_normal(inst.A))
        rng_ok("B normal", _is_normal(inst.B))
    elif ineq in (InequalityId.CONVEX_PRODUCT, InequalityId.IMPROVED_CONVEX_PRODUCT):
        rng_ok("0 < v < 1", inst.v is not None and 0.0 < inst.v < 1.0)
        rng_ok("h nonneg increasing convex", _has_flags(inst.h, NONNEG, INCREASING, CONVEX))
    elif ineq is InequalityId.CONVEX_PRODUCT_POWER:
        rng_ok("r >= 1", inst.r is not None and inst.r >= 1.0)
    elif ineq is InequalityId.SCALAR_REFINED_AMGM:
        a, b, m, M = inst.a, inst.b, inst.m, inst.M
        ok = all(x is not None for x in (a, b, m, M)) and 0 < min(a, b) <= m < M <= max(a, b)
        rng_ok("min{a,b} <= m < M <= max{a,b}", ok)
        if ok:
            bounds.update(m=float(m), M=float(M))
    elif ineq is InequalityId.CONDITIONED_PRODUCT:
        rng_ok("h nonneg increasing convex", _has_flags(inst.h, NONNEG, INCREASING, CONVEX))
        S, T = _schwarz_sides(inst)
        _sandwich_gap(S, T, cond, bounds, notes)
    elif ineq is InequalityId.CONDITIONED_SPECIALS:
        rng_ok("r >= 1", inst.r is not None and inst.r >= 1.0)
        if inst.variant != 2:
            rng_ok("0 <= v <= 1", inst.v is not None and 0.0 <= inst.v <= 1.0)
        S, T = _specials_sides(inst)
        _sandwich_gap(S, T, cond, bounds, notes)
    elif ineq is InequalityId.GAMMA_PRODUCT:
        rng_ok("h nonneg increasing convex", _has_flags(inst.h, NONNEG, INCREASING, CONVEX))
        S, T_star = _schwarz_sides(inst)
        g = inst.pair.g
        T_plain = hermitian_part(adjoint(inst.A) @ _pair_gram(inst.X, g) @ inst.A)
        lam_s = np.linalg.eigvalsh(S)
        lam_t = np.linalg.eigvalsh(T_star)
        m_lo = float(min(lam_s[0], lam_t[0]))
        M_hi = float(max(lam_s[-1], lam_t[-1]))
        scale = max(1.0, M_hi)
        cond["operands positive invertible"] = m_lo > INV_CUTOFF * scale
        star = loewner_leq(S, T_star) or loewner_leq(T_star, S)
        plain = loewner_leq(S, T_plain) or loewner_leq(T_plain, S)
        cond["Loewner sandwich (conclusion operands, either order)"] = bool(star)
        notes.append(
            "hypothesis reading with g^2(|X|) on the A side "
            + ("also holds" if plain else "does not hold")
        )
        bounds.update(m_lo=m_lo, M_hi=M_hi)
    elif ineq is InequalityId.REFINED_CONVEXITY or ineq is InequalityId.NORM_CONVEXITY:
        rng_ok("0 < v < 1", inst.v is not None and 0.0 < inst.v < 1.0)
        rng_ok("f nonneg nondecreasing convex", _has_flags(inst.f, NONNEG, INCREASING, CONVEX))
        _psd_ok(inst.A, "A", cond)
        _psd_ok(inst.B, "B", cond)
    elif ineq in (InequalityId.SUPERQUAD_RADIUS,):
        rng_ok("f nonneg superquadratic", _has_flags(inst.f, NONNEG, SUPERQUADRATIC))
    elif ineq is InequalityId.SUPERQUAD_POWER:
        rng_ok("r >= 2", inst.r is not None and inst.r >= 2.0)
    elif ineq in (InequalityId.HOSSEINI_GEO, InequalityId.HOSSEINI_GEO_NORMS):
        p, q, r = inst.p, inst.q, inst.r
        ok_pq = (
            p is not None
            and q is not None
            and p >= q > 1.0
            and abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12
        )
        rng_ok("p >= q > 1 with 1/p + 1/q = 1", ok_pq)
        rng_ok("r >= 2/q", r is not None and q is not None and q > 0 and r >= 2.0 / q - 1e-12)
        _psd_ok(inst.A, "A", cond, invertible=True)
        _psd_ok(inst.B, "B", cond, invertible=True)
    elif ineq in (InequalityId.EUCLIDEAN_SANDWICH, InequalityId.GEO_RADIUS):
        _psd_ok(inst.A, "A", cond, invertible=True)
        _psd_ok(inst.B, "B", cond)
    elif ineq is InequalityId.FCONN_RADIUS:
        _psd_ok(inst.A, "A", cond, invertible=True)
        _psd_ok(inst.B, "B", cond)
    elif ineq is InequalityId.MOND_PECARIC:
        flags = inst.f.flags if inst.f is not None else frozenset()
        rng_ok("f convex or concave", CONVEX in flags or CONCAVE in flags)
    elif ineq is InequalityId.SUPERQUAD_DEFECT:
        rng_ok("f superquadratic", _has_flags(inst.f, SUPERQUADRATIC))
        pts = inst.vectors if inst.vectors else ((inst.s, inst.t),)
        ok = all(
            s is not None and t is not None and s >= 0 and t >= 0 for s, t in pts
        )
        rng_ok("s, t >= 0", ok)
    elif ineq is InequalityId.DRAGOMIR_VECTOR:
        ok = bool(inst.vectors) and all(
            abs(np.linalg.norm(np.asarray(tr[2])) - 1.0) <= 1e-10 for tr in inst.vectors
        )
        rng_ok("unit z", ok)
    # remaining members (NORM_SANDWICH, KITTANEH_CHAIN, SUM_SQ_KITTANEH,
    # SUM_NEW_BOUND, WSQ_SUM, MIXED_SCHWARZ) have no hypotheses beyond shape.

    satisfied = all(cond.values()) if cond else True
    return HypothesisReport(satisfied=satisfied, conditions=cond, bounds=bounds, notes=notes)


def _has_flags(fn, *flags):
    return fn is not None and all(fl in fn.flags for fl in flags)


def _sandwich_gap(S, T, cond, bounds, notes):
    """Spectral-gap sandwich: m = lambda_max of the lower side, M = lambda_min
    of the upper one; satisfied when the lower side is positive invertible and
    m < M (which forces lower <= m < M <= upper in the Loewner order)."""
    lam_s = np.linalg.eigvalsh(S)
    lam_t = np.linalg.eigvalsh(T)
    scale = max(1.0, float(lam_s[-1]), float(lam_t[-1]))
    for lower, upper, lam_lo, lam_up, label in (
        (S, T, lam_s, lam_t, "S <= m < M <= T"),
        (T, S, lam_t, lam_s, "T <= m < M <= S"),
    ):
        positive = lam_lo[0] > INV_CUTOFF * scale
        m = float(lam_lo[-1])
        M = float(lam_up[0])
        if positive and m < M:
            cond["lower side positive invertible"] = True
            cond["spectral gap m < M"] = True
            bounds.update(m=m, M=M)
            notes.append(f"ordering {label}")
            return
    cond["lower side positive invertible"] = bool(
        lam_s[0] > INV_CUTOFF * scale or lam_t[0] > INV_CUTOFF * scale
    )
    cond["spectral gap m < M"] = False
    bounds.update(m=float(min(lam_s[-1], lam_t[-1])), M=float(max(lam_s[0], lam_t[0])))


def _specials_sides(inst):
    """The lower/upper operands of each Remark-style specialization."""
    v = inst.v if inst.v is not None else 0.5
    if inst.variant == 0:
        S = hermitian_part(adjoint(inst.B) @ abs_power(inst.X, 2 * (1 - v)) @ inst.B)
        T = hermitian_part(adjoint(inst.A) @ abs_power(inst.X, 2 * v, adjoint_side=True) @ inst.A)
    elif inst.variant == 1:
        S = abs_power(inst.X, 2 * (1 - v))
        T = abs_power(inst.X, 2 * v, adjoint_side=True)
    else:
        S = abs_power(inst.B, 2.0)
        T = abs_power(inst.A, 2.0)
    return S, T


# ---------------------------------------------------------------------------
# evaluators (one per member); each returns (ineq, lhs, rhs, details,
# semantics, witness). One that needs numerical radii is a generator: it
# yields each matrix and is sent back its ``RadiusResult``.


def _ev_norm_sandwich(inst, hyp):
    res = yield inst.A
    nrm = operator_norm(inst.A)
    details = {"w": res.value, "norm": nrm}
    links = [("half-norm <= w", nrm / 2, res.value), ("w <= norm", res.value, nrm)]
    return _chain(InequalityId.NORM_SANDWICH, hyp, links, details, [_W_NOTE], res.witness)


def _ev_kittaneh_chain(inst, hyp):
    A = inst.A
    res = yield A
    absA = gram_function(A, lambda s: s)
    absAs = gram_function(A, lambda s: s, adjoint_side=True)
    mid = norm_hermitian(absA + absAs) / 2
    right = (operator_norm(A) + math.sqrt(operator_norm(A @ A))) / 2
    links = [("w <= mid", res.value, mid), ("mid <= right", mid, right)]
    return _chain(InequalityId.KITTANEH_CHAIN, hyp, links, {"w": res.value}, [_W_NOTE], res.witness)


def _ev_power_mix(inst, hyp):
    A, r, v = inst.A, inst.r, inst.v
    res = yield A
    lhs = res.value**r
    rhs = norm_hermitian(abs_power(A, 2 * r * v) + abs_power(A, 2 * r * (1 - v), adjoint_side=True)) / 2
    return InequalityId.POWER_MIX, lhs, rhs, {"w": res.value}, [_W_NOTE], res.witness


def _ev_sum_sq_kittaneh(inst, hyp):
    A, B = inst.A, inst.B
    lhs = operator_norm(A + B) ** 2
    rhs = norm_hermitian(adjoint(A) @ A + adjoint(B) @ B) + norm_hermitian(
        A @ adjoint(A) + B @ adjoint(B)
    )
    return InequalityId.SUM_SQ_KITTANEH, lhs, rhs, {}, [], None


def _ev_product_power(inst, hyp):
    A, B, r = inst.A, inst.B, inst.r
    res = yield adjoint(B) @ A
    lhs = res.value**r
    rhs = norm_hermitian(abs_power(A, 2 * r) + abs_power(B, 2 * r)) / 2
    return InequalityId.PRODUCT_POWER, lhs, rhs, {"w": res.value}, [_W_NOTE], res.witness


def _ev_general_product(inst, hyp):
    A, X, B, r, v = inst.A, inst.X, inst.B, inst.r, inst.v
    res = yield adjoint(A) @ X @ B
    lhs = res.value**r
    T = hermitian_part(adjoint(A) @ abs_power(X, 2 * v, adjoint_side=True) @ A)
    S = hermitian_part(adjoint(B) @ abs_power(X, 2 * (1 - v)) @ B)
    rhs = norm_hermitian(hermitian_power(T, r) + hermitian_power(S, r)) / 2
    return InequalityId.GENERAL_PRODUCT, lhs, rhs, {"w": res.value}, [_W_NOTE], res.witness


def _ev_sum_new(normal_form):
    def ev(inst, hyp):
        A, B = inst.A, inst.B
        lhs = operator_norm(A + B) ** 2
        if normal_form:
            P = hermitian_part(adjoint(A) @ A)
            Q = hermitian_part(adjoint(B) @ B)
        else:
            P = hermitian_part(A @ adjoint(A))
            Q = hermitian_part(B @ adjoint(B))
        res = yield B @ adjoint(A)
        rhs = (norm_hermitian(P + Q) + norm_hermitian(P - Q)) / 2 + res.value + 2 * operator_norm(
            A
        ) * operator_norm(B)
        ineq = InequalityId.SUM_NEW_NORMAL if normal_form else InequalityId.SUM_NEW_BOUND
        details = {"w(BA*)": res.value}
        return ineq, lhs, rhs, details, ["w(BA*) on the rhs is a lower bound (stricter test)"], None

    return ev


def _ev_wsq_sum(inst, hyp):
    A, B = inst.A, inst.B
    w_sum = yield A + B
    lhs = w_sum.value**2
    P = hermitian_part(A @ adjoint(A))
    Q = hermitian_part(B @ adjoint(B))
    w_ba = (yield B @ adjoint(A)).value
    w_a = (yield A).value
    w_b = (yield B).value
    rhs = (norm_hermitian(P + Q) + norm_hermitian(P - Q)) / 2 + w_ba + 2 * w_a * w_b
    details = {"w(A+B)": w_sum.value, "w(BA*)": w_ba, "w(A)": w_a, "w(B)": w_b}
    return InequalityId.WSQ_SUM, lhs, rhs, details, [_W_NOTE], w_sum.witness


def _ev_convex_product(inst, hyp):
    A, X, B, v, h = inst.A, inst.X, inst.B, inst.v, inst.h
    S, T = _schwarz_sides(inst)
    res = yield adjoint(A) @ X @ B
    lhs = h(res.value**2)
    rhs = norm_hermitian((1 - v) * _h_matrix(h, S, 1.0 / (1.0 - v)) + v * _h_matrix(h, T, 1.0 / v))
    return InequalityId.CONVEX_PRODUCT, lhs, rhs, {"w": res.value}, [_W_NOTE], res.witness


def _ev_convex_product_power(inst, hyp):
    A, X, B, r = inst.A, inst.X, inst.B, inst.r
    S, T = _schwarz_sides(inst)
    res = yield adjoint(A) @ X @ B
    lhs = res.value ** (2 * r)
    rhs = norm_hermitian(hermitian_power(S, 2 * r) + hermitian_power(T, 2 * r)) / 2
    return InequalityId.CONVEX_PRODUCT_POWER, lhs, rhs, {"w": res.value}, [_W_NOTE], res.witness


def _ev_scalar_refined_amgm(inst, hyp):
    a, b, m, M = inst.a, inst.b, inst.m, inst.M
    lhs = (M + m) / (2 * math.sqrt(M * m)) * math.sqrt(a * b)
    rhs = (a + b) / 2
    return InequalityId.SCALAR_REFINED_AMGM, lhs, rhs, {}, [], None


def _ev_conditioned_product(inst, hyp):
    A, X, B, h = inst.A, inst.X, inst.B, inst.h
    S, T = _schwarz_sides(inst)
    m, M = hyp.bounds["m"], hyp.bounds["M"]
    res = yield adjoint(A) @ X @ B
    lhs = h(res.value)
    rhs = _amgm_factor(m, M) * norm_hermitian(_h_matrix(h, S) + _h_matrix(h, T))
    details = {"w": res.value, "m": m, "M": M}
    return InequalityId.CONDITIONED_PRODUCT, lhs, rhs, details, [_W_NOTE], res.witness


def _ev_conditioned_specials(inst, hyp):
    r = inst.r
    m, M = hyp.bounds["m"], hyp.bounds["M"]
    S, T = _specials_sides(inst)
    if inst.variant == 0:
        target = adjoint(inst.A) @ inst.X @ inst.B
    elif inst.variant == 1:
        target = inst.X
    else:
        target = adjoint(inst.A) @ inst.B
    res = yield target
    lhs = res.value**r
    rhs = _amgm_factor(m, M) * norm_hermitian(hermitian_power(S, r) + hermitian_power(T, r))
    details = {"w": res.value, "m": m, "M": M, "variant": inst.variant}
    return InequalityId.CONDITIONED_SPECIALS, lhs, rhs, details, [_W_NOTE], res.witness


def _ev_gamma_product(inst, hyp):
    A, X, B, h = inst.A, inst.X, inst.B, inst.h
    S, T = _schwarz_sides(inst)
    gamma = gamma_factor(hyp.bounds["m_lo"], hyp.bounds["M_hi"])
    res = yield adjoint(A) @ X @ B
    lhs = h(res.value)
    rhs = norm_hermitian(_h_matrix(h, S) + _h_matrix(h, T)) / (2 * gamma)
    details = {"w": res.value, "gamma": gamma, **hyp.bounds}
    return InequalityId.GAMMA_PRODUCT, lhs, rhs, details, [_W_NOTE], res.witness


def _ev_refined_convexity(inst, hyp):
    A, B, v, f = inst.A, inst.B, inst.v, inst.f
    lhs = norm_hermitian(apply_scalar_function(f, (1 - v) * hermitian_part(A) + v * hermitian_part(B)))
    base = norm_hermitian((1 - v) * apply_scalar_function(f, A) + v * apply_scalar_function(f, B))
    mu = jensen_gap_mu(f, A, B)
    rhs = base - min(v, 1 - v) * mu
    details = {"mu_estimate": mu, "base": base}
    return InequalityId.REFINED_CONVEXITY, lhs, rhs, details, [_INF_NOTE], None


def _ev_improved_convex_product(inst, hyp):
    A, X, B, v, h = inst.A, inst.X, inst.B, inst.v, inst.h
    S, T = _schwarz_sides(inst)
    S_pow = hermitian_power(S, 1.0 / (1.0 - v))
    T_pow = hermitian_power(T, 1.0 / v)
    res = yield adjoint(A) @ X @ B
    lhs = h(res.value**2)
    base = norm_hermitian((1 - v) * apply_scalar_function(h, S_pow) + v * apply_scalar_function(h, T_pow))
    gap = jensen_gap_mu(h, S_pow, T_pow)
    rhs = base - min(v, 1 - v) * gap
    details = {"w": res.value, "gap_estimate": gap}
    return InequalityId.IMPROVED_CONVEX_PRODUCT, lhs, rhs, details, [_W_NOTE, _INF_NOTE], res.witness


def _ev_superquad_radius(inst, hyp):
    A, f = inst.A, inst.f
    res = yield A
    sigma = _singular_values(A)
    lhs = f(res.value)
    f_abs = np.asarray(f(sigma))
    inf_term = float(np.min(np.asarray(f(np.abs(sigma - res.value)))))
    rhs = float(np.max(f_abs)) - inf_term
    details = {"w": res.value, "inf_term": inf_term}
    sem = [_W_NOTE, "infimum term computed exactly as the smallest eigenvalue"]
    return InequalityId.SUPERQUAD_RADIUS, lhs, rhs, details, sem, res.witness


def _ev_superquad_power(inst, hyp):
    A, r = inst.A, inst.r
    res = yield A
    sigma = _singular_values(A)
    nrm = float(sigma.max())
    inf_r = float(np.min(np.abs(sigma - res.value) ** r))
    inf_2 = float(np.min(np.abs(sigma - res.value) ** 2))
    mid = math.sqrt(max(nrm**2 - inf_2, 0.0))
    links = [
        ("w^r <= norm^r - inf", res.value**r, nrm**r - inf_r),
        ("w <= sqrt form", res.value, mid),
        ("sqrt form <= norm", mid, nrm),
    ]
    details = {"w": res.value, "norm": nrm}
    sem = [_W_NOTE, "infimum terms computed exactly as smallest eigenvalues"]
    return _chain(InequalityId.SUPERQUAD_POWER, hyp, links, details, sem, res.witness)


def _hosseini_delta_inf(P, Q, ea, eb):
    """inf over unit x of (<Px,x>^ea - <Qx,x>^eb)^2 for positive definite P, Q.

    It is 0 when phi(u, v) = u^ea - v^eb changes sign between the extreme
    eigenvectors of P - Q, as the sphere is connected. Otherwise phi has one
    sign and a nonzero gradient on W(P + iQ), so the minimum is on its boundary.
    """

    def phi(u, v):
        return np.clip(u, 0.0, None) ** ea - np.clip(v, 0.0, None) ** eb

    X = np.linalg.eigh(P - Q)[1][:, [0, -1]].T
    ends = phi(quad_forms(P, X).real, quad_forms(Q, X).real)
    if ends.min() <= 0.0 <= ends.max():
        return 0.0
    return _boundary_inf(P, Q, lambda u, v: phi(u, v) ** 2)


def _ev_hosseini_geo(inst, hyp):
    A, B, X, p, q, r = inst.A, inst.B, inst.X, inst.p, inst.q, inst.r
    G = weighted_geometric(A, B, 0.5)
    res = yield G @ X
    lhs = res.value**r
    K = hermitian_part(adjoint(X) @ B @ X)
    base = norm_hermitian(hermitian_power(A, r * p / 2) / p + hermitian_power(K, r * q / 2) / q)
    delta = _hosseini_delta_inf(A, K, r * p / 4, r * q / 4)
    rhs = base - delta / p
    details = {"w": res.value, "delta_estimate": delta}
    sem = [_W_NOTE, _INF_NOTE, "X unconstrained (no contraction assumption imposed)"]
    return InequalityId.HOSSEINI_GEO, lhs, rhs, details, sem, res.witness


def _ev_hosseini_geo_norms(inst, hyp):
    A, B, p, q, r = inst.A, inst.B, inst.p, inst.q, inst.r
    G = weighted_geometric(A, B, 0.5)
    g_norm = norm_hermitian(G)
    details = {"sharp_norm": g_norm, "variant": inst.variant}
    sem = []
    if inst.variant == 0:
        lhs = g_norm**r
        base = norm_hermitian(hermitian_power(A, r * p / 2) / p + hermitian_power(B, r * q / 2) / q)
        delta = _hosseini_delta_inf(A, B, r * p / 4, r * q / 4)
        rhs = base - delta / p
        details["delta_estimate"] = delta
        sem.append(_INF_NOTE)
    elif inst.variant == 1:
        lhs = g_norm ** (2 * r)
        base = norm_hermitian(hermitian_power(A, r * p) / p + hermitian_power(B, r * q) / q)
        delta = _hosseini_delta_inf(A, B, r * p / 2, r * q / 2)
        rhs = base - delta / p
        details["delta_estimate"] = delta
        sem.append(_INF_NOTE)
    else:
        lhs = g_norm**2
        base = norm_hermitian((A @ A + B @ B) / 2)
        lam = np.linalg.eigvalsh(hermitian_part(A - B))
        lo, hi = float(lam[0]), float(lam[-1])
        inf_sq = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi)
        rhs = base - inf_sq / 2
        details["inf_term"] = inf_sq
        sem.append("infimum of <(A-B)x,x>^2 computed exactly from the spectrum of A-B")
    return InequalityId.HOSSEINI_GEO_NORMS, lhs, rhs, details, sem, None


def _ev_euclidean_sandwich(inst, hyp):
    A, B = hermitian_part(inst.A), hermitian_part(inst.B)
    G = weighted_geometric(A, B, 0.5)
    we = (yield A + 1j * B).value
    upper = math.sqrt(norm_hermitian(A @ A + B @ B))
    links = [
        ("sqrt2 |sharp| <= w_e", math.sqrt(2.0) * norm_hermitian(G), we),
        ("w_e <= sqrt norm", we, upper),
    ]
    sem = ["w_e: attained lower bound, as w(A + iB) of the Hermitian pair"]
    return _chain(InequalityId.EUCLIDEAN_SANDWICH, hyp, links, {"w_e": we}, sem)


def _ev_fconn_radius(inst, hyp):
    A, B, X, f = inst.A, inst.B, inst.X, inst.f
    half, inv_half = pd_roots(A)
    mid = hermitian_part(inv_half @ hermitian_part(B) @ inv_half)
    lam, V = np.linalg.eigh(mid)
    f_vals = np.asarray(f(lam), dtype=float)
    f_mid = hermitian_part((V * f_vals) @ V.conj().T)
    f2_mid = hermitian_part((V * f_vals**2) @ V.conj().T)
    connection = hermitian_part(half @ f_mid @ half)
    res = yield connection @ X
    lhs = res.value
    inner = hermitian_part(adjoint(X) @ (half @ f2_mid @ half) @ X)
    rhs = norm_hermitian(inner + A) / 2
    return InequalityId.FCONN_RADIUS, lhs, rhs, {"w": res.value}, [_W_NOTE], res.witness


def _ev_geo_radius(inst, hyp):
    A, B, X = inst.A, inst.B, inst.X
    G = weighted_geometric(A, B, 0.5)
    res = yield G @ X
    lhs = res.value
    rhs = norm_hermitian(hermitian_part(adjoint(X) @ hermitian_part(B) @ X) + hermitian_part(A)) / 2
    return InequalityId.GEO_RADIUS, lhs, rhs, {"w": res.value}, [_W_NOTE], res.witness


def _ev_norm_convexity(inst, hyp):
    A, B, v, f = inst.A, inst.B, inst.v, inst.f
    lhs = norm_hermitian(apply_scalar_function(f, (1 - v) * hermitian_part(A) + v * hermitian_part(B)))
    rhs = norm_hermitian((1 - v) * apply_scalar_function(f, A) + v * apply_scalar_function(f, B))
    return InequalityId.NORM_CONVEXITY, lhs, rhs, {}, [], None


# pointwise members -----------------------------------------------------------


def _pointwise_links(ineq, inst, vectors):
    links = []
    if ineq is InequalityId.MIXED_SCHWARZ:
        A = inst.A
        f, g = inst.pair.f, inst.pair.g
        f_abs = gram_function(A, f)
        g_abs = gram_function(A, g, adjoint_side=True)
        for k, (x, y) in enumerate(vectors):
            lhs = abs(np.vdot(y, A @ x))
            rhs = np.linalg.norm(f_abs @ x) * np.linalg.norm(g_abs @ y)
            links.append((f"pair {k}", float(lhs), float(rhs)))
    elif ineq is InequalityId.MOND_PECARIC:
        A = check_hermitian(inst.A)
        f = inst.f
        fA = apply_scalar_function(f, A)
        convex = CONVEX in f.flags
        for k, (x,) in enumerate(vectors):
            qa = float(np.vdot(x, A @ x).real)
            qf = float(np.vdot(x, fA @ x).real)
            if convex:
                links.append((f"x {k}", f(qa), qf))
            else:
                links.append((f"x {k}", qf, f(qa)))
    elif ineq is InequalityId.DRAGOMIR_VECTOR:
        for k, (x, y, z) in enumerate(vectors):
            lhs = abs(np.vdot(z, x)) ** 2 + abs(np.vdot(z, y)) ** 2
            nx = np.linalg.norm(x) ** 2
            ny = np.linalg.norm(y) ** 2
            rhs = float(np.linalg.norm(z) ** 2 * max(nx, ny) + abs(np.vdot(x, y)))
            links.append((f"triple {k}", float(lhs), rhs))
    elif ineq is InequalityId.SUPERQUAD_DEFECT:
        f = inst.f
        for k, (s, t) in enumerate(vectors):
            defect = superquadratic_defect(f, s, t)
            links.append((f"(s,t) {k}", 0.0, float(defect)))
    else:  # pragma: no cover
        raise UnsupportedParameter(f"{ineq} is not a pointwise member")
    return links


def pointwise_lemma_check(ineq, inst, vectors=None, tol_rel=1e-8) -> "CheckResult":
    """Evaluate a pointwise lemma at supplied (or instance) vector tuples."""
    if ineq not in POINTWISE_MEMBERS:
        raise UnsupportedParameter(f"{ineq} is not a pointwise member")
    if vectors is None:
        vectors = inst.vectors
    inst = dataclasses.replace(inst, vectors=tuple(vectors))
    return evaluate(ineq, inst, tol_rel=tol_rel)


def norm_convexity_check(f, A, B, v, refined=False, tol_rel=1e-8) -> "CheckResult":
    """Convexity-of-norm check, plain or with the subtracted Jensen-gap term."""
    ineq = InequalityId.REFINED_CONVEXITY if refined else InequalityId.NORM_CONVEXITY
    inst = CheckInstance(A=as_matrix(A), B=as_matrix(B), v=float(v), f=f)
    return evaluate(ineq, inst, tol_rel=tol_rel)


def _ev_pointwise(ineq):
    def ev(inst, hyp):
        links = _pointwise_links(ineq, inst, inst.vectors)
        return _chain(ineq, hyp, links, {"checks": float(len(links))}, [])

    return ev


_EVALUATORS = {
    InequalityId.NORM_SANDWICH: _ev_norm_sandwich,
    InequalityId.KITTANEH_CHAIN: _ev_kittaneh_chain,
    InequalityId.POWER_MIX: _ev_power_mix,
    InequalityId.SUM_SQ_KITTANEH: _ev_sum_sq_kittaneh,
    InequalityId.PRODUCT_POWER: _ev_product_power,
    InequalityId.GENERAL_PRODUCT: _ev_general_product,
    InequalityId.DRAGOMIR_VECTOR: _ev_pointwise(InequalityId.DRAGOMIR_VECTOR),
    InequalityId.SUM_NEW_BOUND: _ev_sum_new(normal_form=False),
    InequalityId.SUM_NEW_NORMAL: _ev_sum_new(normal_form=True),
    InequalityId.WSQ_SUM: _ev_wsq_sum,
    InequalityId.CONVEX_PRODUCT: _ev_convex_product,
    InequalityId.CONVEX_PRODUCT_POWER: _ev_convex_product_power,
    InequalityId.SCALAR_REFINED_AMGM: _ev_scalar_refined_amgm,
    InequalityId.CONDITIONED_PRODUCT: _ev_conditioned_product,
    InequalityId.CONDITIONED_SPECIALS: _ev_conditioned_specials,
    InequalityId.GAMMA_PRODUCT: _ev_gamma_product,
    InequalityId.REFINED_CONVEXITY: _ev_refined_convexity,
    InequalityId.IMPROVED_CONVEX_PRODUCT: _ev_improved_convex_product,
    InequalityId.SUPERQUAD_RADIUS: _ev_superquad_radius,
    InequalityId.SUPERQUAD_POWER: _ev_superquad_power,
    InequalityId.HOSSEINI_GEO: _ev_hosseini_geo,
    InequalityId.HOSSEINI_GEO_NORMS: _ev_hosseini_geo_norms,
    InequalityId.EUCLIDEAN_SANDWICH: _ev_euclidean_sandwich,
    InequalityId.FCONN_RADIUS: _ev_fconn_radius,
    InequalityId.GEO_RADIUS: _ev_geo_radius,
    InequalityId.MIXED_SCHWARZ: _ev_pointwise(InequalityId.MIXED_SCHWARZ),
    InequalityId.MOND_PECARIC: _ev_pointwise(InequalityId.MOND_PECARIC),
    InequalityId.NORM_CONVEXITY: _ev_norm_convexity,
    InequalityId.SUPERQUAD_DEFECT: _ev_pointwise(InequalityId.SUPERQUAD_DEFECT),
}


def evaluate(ineq: InequalityId, inst: CheckInstance, tol_rel=1e-8, options=None) -> CheckResult:
    """Verify hypotheses and evaluate both sides of one catalog member.

    Status is Holds when the hypotheses are met and slack clears
    ``-tol_rel * (1 + |lhs| + |rhs|)``; a failed check on a member that
    subtracts an infimum is Inconclusive, on any other member Violated.
    Hypothesis failures yield NotApplicable, never raise.
    """
    return evaluate_many(ineq, [inst], tol_rel=tol_rel, options=options)[0]


def evaluate_many(ineq: InequalityId, insts, tol_rel=1e-8, options=None) -> list:
    """``evaluate`` on each of several instances of one member, in order.

    The instances share one dimension. Every evaluator runs to its next
    radius request; the matrices requested in one round are enclosed by one
    ``numerical_radius`` call, and the results are sent back. Each result
    equals that of ``evaluate`` on its instance alone.
    """
    options = options or DEFAULT_OPTIONS
    results = [None] * len(insts)
    hyps = [verify_hypotheses(ineq, inst) for inst in insts]
    pending = []  # (index, evaluator, requested matrix)

    def advance(i, run, res):
        """Run an evaluator to its next radius request, or record its result."""
        try:
            M = run.send(res)
        except StopIteration as stop:
            results[i] = _verdict(ineq, hyps[i], stop.value, tol_rel)
        except (NotInvertible, NotPositive, DomainViolation) as exc:
            hyps[i].notes.append(f"evaluation refused: {exc}")
            hyps[i].satisfied = False
            results[i] = _not_applicable(ineq, hyps[i])
        else:
            pending.append((i, run, M))

    for i, (inst, hyp) in enumerate(zip(insts, hyps)):
        if hyp.satisfied:
            advance(i, _steps(_EVALUATORS[ineq], inst, hyp), None)
        else:
            results[i] = _not_applicable(ineq, hyp)
    while pending:
        requests = pending.copy()
        pending.clear()
        radii = numerical_radius(np.stack([M for _, _, M in requests]), tol=options.radius_tol)
        for (i, run, _), res in zip(requests, radii):
            advance(i, run, res)
    return results


def _steps(evaluator, inst, hyp):
    """The evaluator as a generator, also when it needs no radius."""
    out = evaluator(inst, hyp)
    if isinstance(out, GeneratorType):
        out = yield from out
    return out


def _not_applicable(ineq, hyp):
    return CheckResult(ineq, math.nan, math.nan, math.nan, Status.NOT_APPLICABLE, hyp, None, {}, [])


def _verdict(ineq, hyp, outcome, tol_rel):
    _, lhs, rhs, details, semantics, witness = outcome
    slack = rhs - lhs
    tol = tol_rel * (1.0 + abs(lhs) + abs(rhs))
    if slack >= -tol:
        status = Status.HOLDS
    elif ineq in INCONCLUSIVE_CAPABLE:
        status = Status.INCONCLUSIVE
    else:
        status = Status.VIOLATED
    return CheckResult(ineq, float(lhs), float(rhs), float(slack), status, hyp, witness, details, list(semantics))
