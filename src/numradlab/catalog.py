"""Inequality catalog: one record per member, and the two-sided evaluation
with slack accounting that the records feed.

``MEMBERS`` maps each ``InequalityId`` to a ``Member``. The records are
written keyed by their id strings, and ``InequalityId`` is derived from those
keys in record order, so a record's key is the one place its id is named. Its
``build`` draws a chunk of seeded instances, each a deterministic function of
(ensemble seed, member, draw index) and bitwise what it is alone; the member
keys the draws' streams. Hypothesis-bearing members are drawn constructively,
so essentially every draw verifies, and parameter grids (``_grid``) cycle with
the draw index to cover interior weights and the special cases (v = 1/2,
r = 1). Its ``check`` parts verify the hypotheses, its ``evaluate`` computes
both sides, and ``subtracts_infimum`` marks a right side that subtracts an
infimum. Adding a member takes one record.

Every member computes its left and right side exactly as displayed, using the
kernel modules. A radius w on a link's right reads the attained lower bound
``value``, safe there; on its left, ``RadiusResult.left``, for now ``value``
too, lenient by at most the enclosure's width. The four superquad sides in
|sigma_j - w|, not monotone in w, are neither and read ``value``. Infima
inside subtracted refinement terms are taken over the joint numerical range of
a Hermitian pair: exactly 0 when a zero test proves it, otherwise an attained
minimum over the range's boundary. Either way they are upper estimates, which
only shrink the right side, and a failure there is reported Inconclusive.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .ensembles import EnsembleSpec, _haar, sample_stack, sandwich_operands
from .errors import DimensionMismatch, DomainViolation, NotHermitian, NotInvertible, NotPositive, UnsupportedParameter
from .functions import (
    CONCAVE,
    CONVEX,
    INCREASING,
    NONNEG,
    SUPERQUADRATIC,
    ScalarFunction,
    SchwarzPair,
    deformed_exp_function,
    jensen_gap_mu,
    power,
    schwarz_power_pair,
    superquadratic_defect,
)
from .linalg import (
    _LINK_TOL,
    _clears,
    _leq,
    _pow2_rows,
    _spectral,
    abs_sides,
    adjoint,
    apply_scalar_function,
    check_hermitian,
    hermitian_part,
    hermitian_power,
    kittaneh_bound,
    loewner_leq,
    norm_hermitian,
    operator_norm,
    singular_values,
)
from .means import f_connection, gamma_factor, weighted_geometric
from .radius import _boundary_inf, complex_gaussian, numerical_radius, quad_forms, stream_rng


class Status(enum.Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


# Relative gap of every radius enclosure the evaluators make, far below the
# default link tolerance ``linalg._LINK_TOL``.
_RADIUS_TOL = 1e-12


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
        for key in ("r", "v", "p", "q", "a", "b", "m", "M"):
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
    details: dict = field(default_factory=dict)
    semantics: list = field(default_factory=list)


@dataclass(frozen=True)
class Member:
    """One catalog member. Each callable takes a chunk: instances of the
    member that share one dimension, whose matrices it stacks.

    - ``build(ensemble, member, indices)`` draws one instance per index,
      from streams keyed by ``member``, the record's ``MEMBERS`` key; all
      but the sandwich members and conditioned-specials take it from
      ``_build_operands``;
    - ``check`` is a tuple of parts, run in order; each part
      ``(insts, reports, operands)`` fills each report's conditions and
      bounds, and stores in the dict ``operands`` the stacks that the
      evaluator reads rather than rebuilds: ``_psd(name)`` the operand it
      validated, the product members' checks A* X B and its sides S and T;
    - ``evaluate(insts, hyps, operands, radii)`` takes the instances whose
      hypotheses hold, and returns one outcome each: its named links
      ``(name, lhs, rhs)``, details and semantics (see ``_verdict``); a w
      that a link's left rises with reads ``left``, every other w ``value``;
    - ``subtracts_infimum`` marks a right side that subtracts an infimum
      over the sphere: a failed check there is Inconclusive, not Violated.
    """

    build: Callable
    check: tuple
    evaluate: Callable
    subtracts_infimum: bool = False


# ---------------------------------------------------------------------------
# small shared helpers; they take a chunk: the instances of one member, whose
# matrices are stacked along a leading axis


class _MissingOperand(Exception):
    """An instance lacks an operand its member reads; the draw is refused."""


def _given(insts, name):
    """Each instance's operand ``name``, which none may lack."""
    values = [getattr(inst, name) for inst in insts]
    if any(value is None for value in values):
        raise _MissingOperand(f"operand {name} missing")
    return values


def _stack(insts, name):
    return np.stack(_given(insts, name))


def _in_range(M):
    """M; an entry beyond the float range raises OverflowError, which refuses the draw."""
    if not np.isfinite(M).all():
        raise OverflowError(_RANGE_NOTE)
    return M


def _squares(fns):
    """s -> fn(s)^2 for each function, one per matrix."""
    return [lambda s, fn=fn: np.asarray(fn(s), dtype=float) ** 2 for fn in fns]


def _sandwich(operands, A, X, B, s_side, t_side, plain=False):
    """Store in ``operands`` a product member's target "AXB" = A* X B and sides
    S = B* s(|X|) B and T = A* t(|X*|) A, from one SVD of each X (sides as in
    ``abs_sides``); with plain, return A* t(|X|) A."""
    F, *G = abs_sides(X, s_side, t_side, adj=t_side) if plain else abs_sides(X, s_side, adj=t_side)
    operands["AXB"] = adjoint(A) @ X @ B
    operands["S"] = hermitian_part(adjoint(B) @ F @ B)
    *T_plain, operands["T"] = (hermitian_part(adjoint(A) @ M @ A) for M in G)
    return T_plain[0] if plain else None


def _schwarz_sides(insts, reports, operands, plain=False):
    """Check part: the sandwich of each pair (f, g), S = B* f^2(|X|) B and
    T = A* g^2(|X*|) A; with plain, returns A* g^2(|X|) A."""
    A, X, B, pairs = _stack(insts, "A"), _stack(insts, "X"), _stack(insts, "B"), _given(insts, "pair")
    f2, g2 = _squares([pair.f for pair in pairs]), _squares([pair.g for pair in pairs])
    return _sandwich(operands, A, X, B, f2, g2, plain)


def _weighted_sides(insts, reports, operands, stacks=None):
    """Check part: the sandwich at each weight v, S = B* |X|^{2(1 - v)} B and
    T = A* |X*|^{2v} A, of the instances' A, X and B or of ``stacks``. An
    instance without v takes v = 1/2; where v matters, its v condition fails."""
    A, X, B = stacks or (_stack(insts, name) for name in "AXB")
    v = [i.v if i.v is not None else 0.5 for i in insts]
    _sandwich(operands, A, X, B, [2 * (1 - w) for w in v], [2 * w for w in v])


# The operands each variant of conditioned-specials reads; the others are I.
_SPECIALS_READS = {0: "XAB", 1: "X", 2: "BA"}


def _specials_operands(insts):
    """The stacks A, X and B of conditioned-specials' sandwiches A* X B, with
    I for each operand an instance's variant does not read. Products with I
    are exact, and so is the SVD of I, so each variant's sides and target
    are bitwise those of its own operands."""
    n = next((M.shape[-1] for i in insts for M in (i.A, i.X, i.B) if M is not None), 1)
    stacks = {name: [np.eye(n, dtype=np.complex128)] * len(insts) for name in "AXB"}
    for k, inst in enumerate(insts):
        for name in _SPECIALS_READS.get(inst.variant, ""):
            stacks[name][k] = _given([inst], name)[0]
    return [np.stack(stacks[name]) for name in "AXB"]


def _h_matrix(hs, H, pre=None):
    """h(H**pre) with one h and one pre-exponent per matrix (pre = 1 when
    None); fuses exponents when every h is a pure power."""
    pre = [1.0] * len(hs) if pre is None else pre
    if all(h.kind == "power" for h in hs):
        return hermitian_power(H, [h.params[0] * p for h, p in zip(hs, pre)])
    M = hermitian_power(H, pre)
    plain = [p == 1.0 for p in pre]
    M[plain] = H[plain]
    return apply_scalar_function(hs, M)


def _amgm_factor(m, M):
    return math.sqrt(M * m) / (M + m)


_W_NOTE = "numerical radius: attained lower bound of a support-line enclosure"
_INF_NOTE = "subtracted infimum: exact 0 or an attained minimum over the joint numerical range (stricter test)"


# ---------------------------------------------------------------------------
# instance builders. Each takes an ensemble, the member and the draw indices
# of a chunk and returns one instance per index; the draws' matrices are made
# in stacks, and every draw is bitwise what it is alone.

V_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
R_GRID = (1.0, 1.5, 2.0, 3.0)
R_SUPER_GRID = (2.0, 2.5, 3.0, 4.0)
PQ_GRID = ((2.0, 2.0), (3.0, 1.5))
ALPHA_GRID = (0.3, 0.5, 0.7)

# Function grids, built once: their functions and pairs are frozen, so draws share them.
_POWERS = tuple(map(power, R_GRID))
_SUPER_POWERS = tuple(map(power, R_SUPER_GRID))
_PAIRS = tuple(map(schwarz_power_pair, ALPHA_GRID))
_MOND_PECARIC_POWERS = tuple(map(power, (2.0, 3.0, 1.5, 0.5)))
_FCONN_FUNCS = (power(0.5), power(0.25), power(1.0), deformed_exp_function(1.0))

VECTORS_PER_TRIAL = 6


def _grid(**axes):
    """``params(i)``: the parameters of draw i, one value from each axis. The
    first axis steps with every draw, and each later axis steps when the axes
    before it wrap."""

    def params(i):
        out = {}
        for name, values in axes.items():
            i, k = divmod(i, len(values))
            out[name] = values[k]
        return out

    return params


def _draws(ens, member, indices, field, kind="generic"):
    spec = EnsembleSpec(dim=ens.dim, kind=kind, scale=ens.scale, seed=ens.seed)
    return sample_stack(spec, indices, stream=f"{member.value}:{field}")


def _rng(ens, member, index, tag="aux"):
    # the tag, "suite:" prefix included, keys every draw: a new tag changes every report
    return stream_rng(ens.seed, f"suite:{member.value}:{tag}", index)


def _unit_rows(rng, count, n):
    Z = complex_gaussian(rng, (count, n))
    return Z / np.linalg.norm(Z, axis=1)[:, None]


def _build_operands(*fields, params=_grid(), draw=None):
    """Builder of a member from stacked matrix draws, one per field: "A"
    for a generic draw, or "A:kind" for another kind of ``ensembles.KINDS``
    drawn at the ensemble's dim, scale and seed. Each draw's parameters
    come from ``params(index)``; with ``draw``, its other fields (vectors,
    scalars) come from ``draw(rng, n)``, called with the draw's own stream
    ``_rng(ensemble, member, index)`` and the ensemble's dim. ``build.kinds``
    maps each field to its kind ("" for generic)."""
    kinds = dict(field.partition(":")[::2] for field in fields)

    def build(ens, member, indices):
        stacks = {name: _draws(ens, member, indices, name, kind or "generic") for name, kind in kinds.items()}
        out = []
        for k, i in enumerate(indices):
            drawn = draw(_rng(ens, member, i), ens.dim) if draw else {}
            out.append(CheckInstance(**{name: M[k] for name, M in stacks.items()}, **params(i), **drawn))
        return out

    build.kinds = kinds
    return build


def _dragomir_triples(rng, n):
    """Six triples (x, y, z): x and y scaled Gaussians, z a unit vector."""
    triples = []
    for _ in range(VECTORS_PER_TRIAL):
        x = complex_gaussian(rng, n) * rng.uniform(0.5, 2.0)
        y = complex_gaussian(rng, n) * rng.uniform(0.5, 2.0)
        z = complex_gaussian(rng, n)
        triples.append((x, y, z / np.linalg.norm(z)))
    return {"vectors": tuple(triples)}


def _amgm_scalars(rng, n):
    """a and b > 0, and min{a, b} < m < M < max{a, b}."""
    a = rng.uniform(0.2, 5.0)
    b = max(a * float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0) + 1.0), 0.05)
    lo, span = min(a, b), abs(a - b)
    return {"a": a, "b": b, "m": lo + rng.uniform(0.05, 0.45) * span, "M": lo + rng.uniform(0.55, 0.95) * span}


def _schwarz_pairs(rng, n):
    X = _unit_rows(rng, 2 * VECTORS_PER_TRIAL, n)
    return {"vectors": tuple(zip(X[::2], X[1::2]))}


def _unit_vectors(rng, n):
    return {"vectors": tuple((x,) for x in _unit_rows(rng, VECTORS_PER_TRIAL, n))}


def _defect_points(rng, n):
    return {"vectors": tuple(map(tuple, rng.uniform(0.0, 10.0, size=(VECTORS_PER_TRIAL, 2)).tolist()))}


def _hosseini_params(i):
    p, q = PQ_GRID[i % len(PQ_GRID)]
    admissible = tuple(r for r in R_GRID if r >= 2.0 / q - 1e-12)
    r = admissible[(i // len(PQ_GRID)) % len(admissible)]
    return {"p": p, "q": q, "r": r}


def _build_sandwich(ens, member, indices):
    rngs = [_rng(ens, member, i, tag="triple") for i in indices]
    A, B, X, alpha = sandwich_operands(rngs, ens.dim)
    params = _grid(h=_POWERS)
    return [
        CheckInstance(A=A[k], B=B[k], X=X[k], pair=schwarz_power_pair(alpha[k]), **params(i))
        for k, i in enumerate(indices)
    ]


# conditioned-specials' parameters, one grid per variant; variant 1 skips
# v = 1/2, which admits no spectral gap there, and variant 2 reads no v
_SPECIALS_PARAMS = (
    _grid(variant=(0, 1, 2), r=R_GRID, v=V_GRID),
    _grid(variant=(0, 1, 2), r=R_GRID, v=(0.1, 0.25, 0.75, 0.9)),
    _grid(variant=(0, 1, 2), r=R_GRID),
)


def _build_conditioned_specials(ens, member, indices):
    """Each variant is the weighted sandwich A* X B with the operands it
    leaves out taken as I: variant 0 draws A, X and B, a sandwich at weight v
    (2(1 - v) in place of 2 alpha); variant 1 draws X alone, whose singular
    values clear 1 on the side v picks; variant 2 draws A and B alone, two
    scaled unitaries. Each variant's Haar factors come from one QR."""
    n = ens.dim
    out = {}
    params = {i: _SPECIALS_PARAMS[i % len(_SPECIALS_PARAMS)](i) for i in indices}
    rows = {0: [], 1: [], 2: []}
    for i in indices:
        rows[params[i]["variant"]].append(i)
    if rows[0]:
        rngs = [_rng(ens, member, i, tag="build") for i in rows[0]]
        A, B, X, _ = sandwich_operands(rngs, n, weights=[1 - params[i]["v"] for i in rows[0]])
        for k, i in enumerate(rows[0]):
            out[i] = CheckInstance(A=A[k], B=B[k], X=X[k], **params[i])
    if rows[1]:
        sig, Z = [], []
        for i in rows[1]:
            rng = _rng(ens, member, i, tag="build")
            c = 2.0 if params[i]["v"] > 0.5 else 0.45
            sig.append(rng.uniform(c, 1.1 * c, size=n))
            Z.append([complex_gaussian(rng, (n, n)) for _ in range(2)])
        U = _haar(np.array(Z))
        X = (U[:, 0] * np.array(sig)[:, None, :]) @ adjoint(U[:, 1])
        for k, i in enumerate(rows[1]):
            out[i] = CheckInstance(X=X[k], **params[i])
    if rows[2]:
        Z, lam = [], []
        for i in rows[2]:
            rng = _rng(ens, member, i, tag="build")
            ZA, lam_a = complex_gaussian(rng, (n, n)), rng.uniform(2.2, 3.0, size=n)
            ZB, lam_b = complex_gaussian(rng, (n, n)), rng.uniform(0.8, 1.2, size=n)
            Z.append([ZA, ZB, complex_gaussian(rng, (n, n)), complex_gaussian(rng, (n, n))])
            lam.append([lam_a, lam_b])
        U = _haar(np.array(Z))
        P = _spectral(U[:, :2], np.array(lam))
        A, B = U[:, 2] @ P[:, 0], U[:, 3] @ P[:, 1]
        for k, i in enumerate(rows[2]):
            out[i] = CheckInstance(A=A[k], B=B[k], **params[i])
    return [out[i] for i in indices]


# ---------------------------------------------------------------------------
# hypothesis checks. Each takes a chunk, its reports and the operands dict
# (see ``Member``); records share the checks of common conditions.


def _verify_chunk(ineq, insts, reports):
    """Fill a chunk's hypothesis reports, and return the stacked operands
    that the member's evaluator reuses (see ``Member``)."""
    operands = {}
    for part in MEMBERS[ineq].check:
        part(insts, reports, operands)
    for rep in reports:
        rep.satisfied = all(rep.conditions.values())
    return operands


def _each(reports, name, oks):
    for rep, ok in zip(reports, oks, strict=True):
        rep.conditions[name] = bool(ok)


def _scalar(name, test):
    """A condition on each instance's own parameters."""

    def check(insts, reports, operands):
        _each(reports, name, [test(inst) for inst in insts])

    return check


def _r_at_least(bound):
    return _scalar(f"r >= {bound:g}", lambda i: i.r is not None and i.r >= bound)


def _psd(name, invertible=False):
    kind = "positive invertible" if invertible else "positive semidefinite"

    def check(insts, reports, operands):
        operands[name] = check_hermitian(_in_range(_stack(insts, name)))
        lam = np.linalg.eigvalsh(operands[name])
        _each(reports, f"{name} {kind}", _clears(lam[:, 0], np.abs(lam).max(axis=-1, initial=0.0), invertible))

    return check


def _normal(name):
    def check(insts, reports, operands):
        A, _ = _pow2_rows(_stack(insts, name))  # normality is scale-free; scaled, neither side underflows
        dev = np.linalg.norm(A @ adjoint(A) - adjoint(A) @ A, axis=(1, 2))
        _each(reports, f"{name} normal", dev <= 1e-10 * np.linalg.norm(A, axis=(1, 2)) ** 2)

    return check


_v_open = _scalar("0 < v < 1", lambda i: i.v is not None and 0.0 < i.v < 1.0)
_h_convex = _scalar("h nonneg increasing convex", lambda i: _has_flags(i.h, NONNEG, INCREASING, CONVEX))
_convexity = (
    _v_open,
    _scalar("f nonneg nondecreasing convex", lambda i: _has_flags(i.f, NONNEG, INCREASING, CONVEX)),
    _psd("A"),
    _psd("B"),
)
_hosseini = (
    _scalar(
        "p >= q > 1 with 1/p + 1/q = 1",
        lambda i: i.p is not None
        and i.q is not None
        and i.p >= i.q > 1.0
        and abs(1.0 / i.p + 1.0 / i.q - 1.0) <= 1e-12,
    ),
    _scalar("r >= 2/q", lambda i: i.r is not None and i.q is not None and i.q > 0 and i.r >= 2.0 / i.q - 1e-12),
    _psd("A", invertible=True),
    _psd("B", invertible=True),
)
_mean_operands = (_psd("A", invertible=True), _psd("B"))
# The members that specialize a theorem three ways, one per variant.
_variants = _scalar("variant in {0, 1, 2}", lambda i: i.variant in (0, 1, 2))
# The pointwise members evaluate one link per entry of ``vectors``.
_vectors_given = _scalar("vectors given", lambda i: bool(i.vectors))
_superquad_points = (
    _vectors_given,
    _scalar("f superquadratic", lambda i: _has_flags(i.f, SUPERQUADRATIC)),
    _scalar("s, t >= 0", lambda i: all(s is not None and t is not None and s >= 0 and t >= 0 for s, t in i.vectors)),
)


def _check_scalar_amgm(insts, reports, operands):
    for rep, i in zip(reports, insts):
        a, b, m, M = i.a, i.b, i.m, i.M
        ok = all(x is not None for x in (a, b, m, M)) and 0 < min(a, b) <= m < M <= max(a, b)
        rep.conditions["min{a,b} <= m < M <= max{a,b}"] = bool(ok)
        if ok:
            rep.bounds.update(m=float(m), M=float(M))


def _check_specials(insts, reports, operands):
    for rep, i in zip(reports, insts):
        if i.variant in (0, 1):
            rep.conditions["0 <= v <= 1"] = bool(i.v is not None and 0.0 <= i.v <= 1.0)
    _weighted_sides(insts, reports, operands, _specials_operands(insts))
    _sandwich_gap(insts, reports, operands)


def _check_gamma(insts, reports, operands):
    T_plain = _schwarz_sides(insts, reports, operands, plain=True)
    S, T_star = operands["S"], operands["T"]
    lam_s, lam_t = np.linalg.eigvalsh(S), np.linalg.eigvalsh(T_star)
    star, plain = _either_order(S, T_star), _either_order(S, T_plain)
    for k, rep in enumerate(reports):
        m_lo = float(min(lam_s[k, 0], lam_t[k, 0]))
        M_hi = float(max(lam_s[k, -1], lam_t[k, -1]))
        rep.conditions["operands positive invertible"] = _clears(m_lo, M_hi, invertible=True)
        rep.conditions["Loewner sandwich (conclusion operands, either order)"] = bool(star[k])
        rep.notes.append(
            "hypothesis reading with g^2(|X|) on the A side " + ("also holds" if plain[k] else "does not hold")
        )
        rep.bounds.update(m_lo=m_lo, M_hi=M_hi)


def _either_order(P, Q):
    """P <= Q or Q <= P for each pair of the stacks; the second order is
    tested only where the first fails."""
    ok = loewner_leq(P, Q)
    rest = ~ok
    if rest.any():
        ok[rest] = loewner_leq(Q[rest], P[rest])
    return ok


def _has_flags(fn, *flags):
    return fn is not None and all(fl in fn.flags for fl in flags)


def _sandwich_gap(insts, reports, operands):
    """Spectral-gap sandwich of the sides S and T in ``operands``: m =
    lambda_max of the lower side, M = lambda_min of the upper one; satisfied
    when the lower side is positive invertible and m < M (which forces
    lower <= m < M <= upper in the Loewner order)."""
    for rep, lam_s, lam_t in zip(reports, *(np.linalg.eigvalsh(operands[side]) for side in "ST")):
        cond, bounds = rep.conditions, rep.bounds
        scale = max(float(lam_s[-1]), float(lam_t[-1]))
        for lam_lo, lam_up, label in ((lam_s, lam_t, "S <= m < M <= T"), (lam_t, lam_s, "T <= m < M <= S")):
            m = float(lam_lo[-1])
            M = float(lam_up[0])
            if _clears(lam_lo[0], scale, invertible=True) and m < M:
                cond["lower side positive invertible"] = True
                cond["spectral gap m < M"] = True
                bounds.update(m=m, M=M)
                rep.notes.append(f"ordering {label}")
                break
        else:
            cond["lower side positive invertible"] = bool(_clears(max(lam_s[0], lam_t[0]), scale, invertible=True))
            cond["spectral gap m < M"] = False
            bounds.update(m=float(min(lam_s[-1], lam_t[-1])), M=float(max(lam_s[0], lam_t[0])))


# ---------------------------------------------------------------------------
# evaluators (one per member). Each takes a chunk of instances whose
# hypotheses hold, their reports, the stacked operands of the hypothesis
# check, and ``radii``, which encloses a stack of matrices; it returns one
# outcome (links, details, semantics) per instance, with one named link
# (name, lhs, rhs) per inequality. Every kernel call takes the chunk's stack,
# and each round of radius requests forms one stack. Scalar arithmetic stays
# per draw, in Python floats, as the one-draw formulas write it.


def _ev_norm_sandwich(insts, hyps, ops, radii):
    A = _stack(insts, "A")
    out = []
    for res, nrm in zip(radii(A), operator_norm(A).tolist()):
        links = [("half-norm <= w", nrm / 2, res.value), ("w <= norm", res.left, nrm)]
        out.append((links, {"w": res.value, "norm": nrm}, [_W_NOTE]))
    return out


def _ev_kittaneh_chain(insts, hyps, ops, radii):
    A = _stack(insts, "A")
    mids, rights = (x.tolist() for x in kittaneh_bound(A))
    S, e = _pow2_rows(A)  # ||A^2|| in scaled units, so that it cannot underflow
    roots = np.ldexp(np.sqrt(operator_norm(S @ S)), e).tolist()
    out = []
    for res, mid, nrm, root in zip(radii(A), mids, rights, roots):
        links = [("w <= mid", res.left, mid), ("mid <= right", mid, (nrm + root) / 2)]
        out.append((links, {"w": res.value}, [_W_NOTE]))
    return out


def _ev_power_mix(insts, hyps, ops, radii):
    A = _stack(insts, "A")
    r = [i.r for i in insts]
    v = [i.v for i in insts]
    fwd, adj = abs_sides(A, [2 * ri * vi for ri, vi in zip(r, v)], adj=[2 * ri * (1 - vi) for ri, vi in zip(r, v)])
    rhs = (norm_hermitian(fwd + adj) / 2).tolist()
    res = radii(A)
    return [([("w^r <= mix", w.left**ri, h)], {"w": w.value}, [_W_NOTE]) for w, ri, h in zip(res, r, rhs)]


def _ev_sum_sq_kittaneh(insts, hyps, ops, radii):
    A, B = _stack(insts, "A"), _stack(insts, "B")
    lhs = [x**2 for x in operator_norm(A + B).tolist()]
    rhs = (norm_hermitian(adjoint(A) @ A + adjoint(B) @ B) + norm_hermitian(A @ adjoint(A) + B @ adjoint(B))).tolist()
    return [([("norm^2 <= kittaneh", l, r)], {}, []) for l, r in zip(lhs, rhs)]


def _ev_product_power(insts, hyps, ops, radii):
    A, B = _stack(insts, "A"), _stack(insts, "B")
    r = [i.r for i in insts]
    res = radii(adjoint(B) @ A)
    rhs = (norm_hermitian(abs_sides(A, [2 * ri for ri in r]) + abs_sides(B, [2 * ri for ri in r])) / 2).tolist()
    return [([("w^r <= mean", w.left**ri, h)], {"w": w.value}, [_W_NOTE]) for w, ri, h in zip(res, r, rhs)]


def _ev_general_product(insts, hyps, ops, radii):
    r = [i.r for i in insts]
    res = radii(ops["AXB"])
    rhs = (norm_hermitian(hermitian_power(ops["T"], r) + hermitian_power(ops["S"], r)) / 2).tolist()
    return [([("w^r <= mean", w.left**ri, h)], {"w": w.value}, [_W_NOTE]) for w, ri, h in zip(res, r, rhs)]


def _half_sum_diff(A, B, normal_form=False):
    """(||P + Q|| + ||P - Q||) / 2 with P = AA*, Q = BB* (A*A, B*B in normal form)."""
    P, Q = (hermitian_part(adjoint(M) @ M if normal_form else M @ adjoint(M)) for M in (A, B))
    return ((norm_hermitian(P + Q) + norm_hermitian(P - Q)) / 2).tolist()


def _ev_sum_new(normal_form):
    def ev(insts, hyps, ops, radii):
        A, B = _stack(insts, "A"), _stack(insts, "B")
        lhs = [x**2 for x in operator_norm(A + B).tolist()]
        half = _half_sum_diff(A, B, normal_form)
        res = radii(B @ adjoint(A))
        na, nb = operator_norm(A).tolist(), operator_norm(B).tolist()
        sem = ["w(BA*) on the rhs is a lower bound (stricter test)"]
        return [
            ([("norm^2 <= new bound", l, h + w.value + 2 * a * b)], {"w(BA*)": w.value}, sem)
            for l, h, w, a, b in zip(lhs, half, res, na, nb)
        ]

    return ev


def _ev_wsq_sum(insts, hyps, ops, radii):
    A, B = _stack(insts, "A"), _stack(insts, "B")
    half = _half_sum_diff(A, B)
    res = radii(np.concatenate([A + B, B @ adjoint(A), A, B]))
    m = len(insts)
    out = []
    for h, w_sum, w_ba, w_a, w_b in zip(half, res[:m], res[m : 2 * m], res[2 * m : 3 * m], res[3 * m :]):
        rhs = h + w_ba.value + 2 * w_a.value * w_b.value
        details = {"w(A+B)": w_sum.value, "w(BA*)": w_ba.value, "w(A)": w_a.value, "w(B)": w_b.value}
        out.append(([("w^2 <= bound", w_sum.left**2, rhs)], details, [_W_NOTE]))
    return out


def _ev_convex_product(insts, hyps, ops, radii):
    v = np.array([i.v for i in insts])[:, None, None]
    h = [i.h for i in insts]
    S, T = ops["S"], ops["T"]
    res = radii(ops["AXB"])
    mix = (1 - v) * _h_matrix(h, S, [1.0 / (1.0 - i.v) for i in insts]) + v * _h_matrix(h, T, [1.0 / i.v for i in insts])
    return [
        ([("h(w^2) <= mix", hk(w.left**2), rhs)], {"w": w.value}, [_W_NOTE])
        for hk, w, rhs in zip(h, res, norm_hermitian(mix).tolist())
    ]


def _ev_convex_product_power(insts, hyps, ops, radii):
    r2 = [2 * i.r for i in insts]
    res = radii(ops["AXB"])
    rhs = (norm_hermitian(hermitian_power(ops["S"], r2) + hermitian_power(ops["T"], r2)) / 2).tolist()
    return [([("w^2r <= mean", w.left**e, h)], {"w": w.value}, [_W_NOTE]) for w, e, h in zip(res, r2, rhs)]


def _ev_scalar_refined_amgm(insts, hyps, ops, radii):
    out = []
    for i in insts:
        a, b, m, M = i.a, i.b, i.m, i.M
        lhs = (M + m) / (2 * math.sqrt(M * m)) * math.sqrt(a * b)
        out.append(([("scaled geometric <= arithmetic", lhs, (a + b) / 2)], {}, []))
    return out


def _ev_conditioned_product(insts, hyps, ops, radii):
    h = [i.h for i in insts]
    res = radii(ops["AXB"])
    norms = norm_hermitian(_h_matrix(h, ops["S"]) + _h_matrix(h, ops["T"])).tolist()
    out = []
    for hk, hyp, w, nrm in zip(h, hyps, res, norms):
        m, M = hyp.bounds["m"], hyp.bounds["M"]
        links = [("h(w) <= amgm norm", hk(w.left), _amgm_factor(m, M) * nrm)]
        out.append((links, {"w": w.value, "m": m, "M": M}, [_W_NOTE]))
    return out


def _ev_conditioned_specials(insts, hyps, ops, radii):
    r = [i.r for i in insts]
    res = radii(ops["AXB"])
    norms = norm_hermitian(hermitian_power(ops["S"], r) + hermitian_power(ops["T"], r)).tolist()
    out = []
    for i, rk, hyp, w, nrm in zip(insts, r, hyps, res, norms):
        m, M = hyp.bounds["m"], hyp.bounds["M"]
        details = {"w": w.value, "m": m, "M": M, "variant": i.variant}
        out.append(([("w^r <= amgm norm", w.left**rk, _amgm_factor(m, M) * nrm)], details, [_W_NOTE]))
    return out


def _ev_gamma_product(insts, hyps, ops, radii):
    h = [i.h for i in insts]
    res = radii(ops["AXB"])
    norms = norm_hermitian(_h_matrix(h, ops["S"]) + _h_matrix(h, ops["T"])).tolist()
    out = []
    for hk, hyp, w, nrm in zip(h, hyps, res, norms):
        gamma = gamma_factor(hyp.bounds["m_lo"], hyp.bounds["M_hi"])
        details = {"w": w.value, "gamma": gamma, **hyp.bounds}
        out.append(([("h(w) <= norm / 2 gamma", hk(w.left), nrm / (2 * gamma))], details, [_W_NOTE]))
    return out


def _convexity_sides(insts, ops):
    """(norm of f at the convex combination, its unrefined bound) for the
    convexity members."""
    A, B = ops["A"], ops["B"]
    v = np.array([i.v for i in insts])[:, None, None]
    f = [i.f for i in insts]
    lhs = norm_hermitian(apply_scalar_function(f, (1 - v) * A + v * B))
    base = norm_hermitian((1 - v) * apply_scalar_function(f, A) + v * apply_scalar_function(f, B))
    return lhs.tolist(), base.tolist(), f


def _ev_refined_convexity(insts, hyps, ops, radii):
    lhs, base, f = _convexity_sides(insts, ops)
    mu = jensen_gap_mu(f, ops["A"], ops["B"])
    return [
        ([("f(mix) <= refined", l, b - min(i.v, 1 - i.v) * m)], {"mu_estimate": m, "base": b}, [_INF_NOTE])
        for i, l, b, m in zip(insts, lhs, base, mu)
    ]


def _ev_norm_convexity(insts, hyps, ops, radii):
    lhs, base, _ = _convexity_sides(insts, ops)
    return [([("f(mix) <= mix of f", l, b)], {}, []) for l, b in zip(lhs, base)]


def _ev_improved_convex_product(insts, hyps, ops, radii):
    v = np.array([i.v for i in insts])[:, None, None]
    h = [i.h for i in insts]
    S_pow = hermitian_power(ops["S"], [1.0 / (1.0 - i.v) for i in insts])
    T_pow = hermitian_power(ops["T"], [1.0 / i.v for i in insts])
    res = radii(ops["AXB"])
    base = norm_hermitian((1 - v) * apply_scalar_function(h, S_pow) + v * apply_scalar_function(h, T_pow)).tolist()
    gaps = jensen_gap_mu(h, S_pow, T_pow)
    out = []
    for i, hk, w, b, gap in zip(insts, h, res, base, gaps):
        links = [("h(w^2) <= refined mix", hk(w.left**2), b - min(i.v, 1 - i.v) * gap)]
        out.append((links, {"w": w.value, "gap_estimate": gap}, [_W_NOTE, _INF_NOTE]))
    return out


def _ev_superquad_radius(insts, hyps, ops, radii):
    A = _stack(insts, "A")
    res = radii(A)
    sem = [_W_NOTE, "infimum term computed exactly as the smallest eigenvalue"]
    out = []
    for i, w, sigma in zip(insts, res, singular_values(A)):
        f = i.f
        inf_term = float(np.min(np.asarray(f(np.abs(sigma - w.value)))))
        rhs = float(np.max(np.asarray(f(sigma)))) - inf_term
        out.append(([("f(w) <= f(norm) - inf", f(w.left), rhs)], {"w": w.value, "inf_term": inf_term}, sem))
    return out


def _ev_superquad_power(insts, hyps, ops, radii):
    A = _stack(insts, "A")
    res = radii(A)
    sem = [_W_NOTE, "infimum terms computed exactly as smallest eigenvalues"]
    out = []
    for i, w, sigma in zip(insts, res, singular_values(A)):
        r, nrm, dist = i.r, float(sigma.max()), np.abs(sigma - w.value)
        inf_r = float(np.min(dist**r))
        # sqrt(norm^2 - inf_2) in units of 2^e > ||A||, so that no square underflows
        e = math.frexp(nrm)[1]
        nrm_e, dist_e = math.ldexp(nrm, -e), np.ldexp(dist, -e)
        mid = math.ldexp(math.sqrt(max(nrm_e**2 - float(np.min(dist_e**2)), 0.0)), e)
        links = [
            ("w^r <= norm^r - inf", w.left**r, nrm**r - inf_r),
            ("w <= sqrt form", w.left, mid),
            ("sqrt form <= norm", mid, nrm),
        ]
        out.append((links, {"w": w.value, "norm": nrm}, sem))
    return out


def _hosseini_delta_inf(P, Q, ea, eb):
    """inf over unit x of (<Px,x>^ea - <Qx,x>^eb)^2 for positive definite P, Q,
    for each pair of the stacks P, Q with its exponents ea, eb.

    It is 0 when phi(u, v) = u^ea - v^eb changes sign between the extreme
    eigenvectors of P - Q, as the sphere is connected. Otherwise phi has one
    sign and a nonzero gradient on W(P + iQ), so the minimum is on its boundary.
    """
    out = []
    for Pk, Qk, a, b, vecs in zip(P, Q, ea, eb, np.linalg.eigh(P - Q)[1], strict=True):

        def phi(u, v, a=a, b=b):
            return np.clip(u, 0.0, None) ** a - np.clip(v, 0.0, None) ** b

        X = vecs[:, [0, -1]].T
        ends = phi(quad_forms(Pk, X).real, quad_forms(Qk, X).real)
        if ends.min() <= 0.0 <= ends.max():
            out.append(0.0)
        else:
            out.append(_boundary_inf(Pk, Qk, lambda u, v, phi=phi: phi(u, v) ** 2))
    return out


def _hosseini_base(A, K, p, q, r, d):
    """|| A^{r p / d} / p + K^{r q / d} / q || and the subtracted infimum with
    exponents r p / 2d, r q / 2d, for each pair of the stacks A, K, with one
    d per pair."""
    pp = np.array(p)[:, None, None]
    qq = np.array(q)[:, None, None]
    ea = [rk * pk / dk for rk, pk, dk in zip(r, p, d)]
    eb = [rk * qk / dk for rk, qk, dk in zip(r, q, d)]
    base = norm_hermitian(hermitian_power(A, ea) / pp + hermitian_power(K, eb) / qq).tolist()
    return base, _hosseini_delta_inf(A, K, [e / 2 for e in ea], [e / 2 for e in eb])


def _ev_hosseini_geo(insts, hyps, ops, radii):
    A, B, X = ops["A"], ops["B"], _stack(insts, "X")
    p, q, r = [i.p for i in insts], [i.q for i in insts], [i.r for i in insts]
    G = weighted_geometric(A, B, 0.5)
    res = radii(G @ X)
    K = hermitian_part(adjoint(X) @ B @ X)
    base, delta = _hosseini_base(A, K, p, q, r, [2] * len(insts))
    sem = [_W_NOTE, _INF_NOTE, "X unconstrained (no contraction assumption imposed)"]
    return [
        ([("w^r <= refined mean", w.left**rk, b - dk / pk)], {"w": w.value, "delta_estimate": dk}, sem)
        for w, rk, pk, b, dk in zip(res, r, p, base, delta)
    ]


def _ev_hosseini_geo_norms(insts, hyps, ops, radii):
    """Variants 0 and 1 are Hosseini's bound at d = 2 and d = 1, from one
    ``_hosseini_base`` call; variant 2 takes its infimum from the spectrum."""
    A, B = ops["A"], ops["B"]
    g_norms = norm_hermitian(weighted_geometric(A, B, 0.5)).tolist()
    link = "sharp norm power <= refined mean"
    out = [None] * len(insts)
    rows = [k for k, i in enumerate(insts) if i.variant != 2]
    if rows:
        group = [insts[k] for k in rows]
        p, q, r = ([getattr(i, name) for i in group] for name in "pqr")
        d = [2 if i.variant == 0 else 1 for i in group]
        base, delta = _hosseini_base(A[rows], B[rows], p, q, r, d)
        for k, i, dk, b, dl in zip(rows, group, d, base, delta):
            details = {"sharp_norm": g_norms[k], "variant": i.variant, "delta_estimate": dl}
            out[k] = ([(link, g_norms[k] ** (2 * i.r / dk), b - dl / i.p)], details, [_INF_NOTE])
    rows = [k for k, i in enumerate(insts) if i.variant == 2]
    if rows:
        Ag, Bg = A[rows], B[rows]
        base = norm_hermitian((Ag @ Ag + Bg @ Bg) / 2).tolist()
        sem = ["infimum of <(A-B)x,x>^2 computed exactly from the spectrum of A-B"]
        for k, b, lam in zip(rows, base, np.linalg.eigvalsh(Ag - Bg)):
            lo, hi = float(lam[0]), float(lam[-1])
            inf_sq = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi)
            details = {"sharp_norm": g_norms[k], "variant": insts[k].variant, "inf_term": inf_sq}
            out[k] = ([(link, g_norms[k] ** 2, b - inf_sq / 2)], details, sem)
    return out


def _ev_euclidean_sandwich(insts, hyps, ops, radii):
    A, B = ops["A"], ops["B"]
    sharp = norm_hermitian(weighted_geometric(A, B, 0.5)).tolist()
    res = radii(A + 1j * B)
    # A^2 + B^2 in power-of-two-scaled units, one exponent per pair, so that it cannot underflow
    S, e = _pow2_rows(np.concatenate([A, B], axis=-1))
    As, Bs = np.split(S, 2, axis=-1)
    uppers = np.ldexp(np.sqrt(norm_hermitian(As @ As + Bs @ Bs)), e).tolist()
    sem = ["w_e: attained lower bound, as w(A + iB) of the Hermitian pair"]
    out = []
    for w, g, upper in zip(res, sharp, uppers):
        links = [("sqrt2 |sharp| <= w_e", math.sqrt(2.0) * g, w.value), ("w_e <= sqrt norm", w.left, upper)]
        out.append((links, {"w_e": w.value}, sem))
    return out


def _ev_fconn_radius(insts, hyps, ops, radii):
    A, B, X = ops["A"], ops["B"], _stack(insts, "X")
    connection, square = f_connection(A, B, _given(insts, "f"))
    res = radii(connection @ X)
    inner = hermitian_part(adjoint(X) @ square @ X)
    rhs = (norm_hermitian(inner + A) / 2).tolist()
    return [([("w <= half norm", w.left, h)], {"w": w.value}, [_W_NOTE]) for w, h in zip(res, rhs)]


def _ev_geo_radius(insts, hyps, ops, radii):
    A, B, X = ops["A"], ops["B"], _stack(insts, "X")
    res = radii(weighted_geometric(A, B, 0.5) @ X)
    rhs = (norm_hermitian(hermitian_part(adjoint(X) @ B @ X) + A) / 2).tolist()
    return [([("w <= half norm", w.left, h)], {"w": w.value}, [_W_NOTE]) for w, h in zip(res, rhs)]


# pointwise members -----------------------------------------------------------


def _ev_mixed_schwarz(insts, hyps, ops, radii):
    A, pairs = _stack(insts, "A"), _given(insts, "pair")
    f_abs, g_abs = abs_sides(A, [pair.f for pair in pairs], adj=[pair.g for pair in pairs])
    out = []
    for i, fk, gk in zip(insts, f_abs, g_abs):
        links = []
        for k, (x, y) in enumerate(i.vectors):
            lhs = abs(np.vdot(y, i.A @ x))
            rhs = np.linalg.norm(fk @ x) * np.linalg.norm(gk @ y)
            links.append((f"pair {k}", float(lhs), float(rhs)))
        out.append((links, {}, []))
    return out


def _ev_mond_pecaric(insts, hyps, ops, radii):
    A = check_hermitian(_in_range(_stack(insts, "A")))
    fA = apply_scalar_function([i.f for i in insts], A)
    out = []
    for i, Ak, fk in zip(insts, A, fA):
        f = i.f
        convex = CONVEX in f.flags
        links = []
        for k, (x,) in enumerate(i.vectors):
            qa = float(np.vdot(x, Ak @ x).real)
            qf = float(np.vdot(x, fk @ x).real)
            links.append((f"x {k}", f(qa), qf) if convex else (f"x {k}", qf, f(qa)))
        out.append((links, {}, []))
    return out


def _ev_dragomir_vector(insts, hyps, ops, radii):
    out = []
    for i in insts:
        links = []
        for k, (x, y, z) in enumerate(i.vectors):
            lhs = abs(np.vdot(z, x)) ** 2 + abs(np.vdot(z, y)) ** 2
            nx = np.linalg.norm(x) ** 2
            ny = np.linalg.norm(y) ** 2
            rhs = float(np.linalg.norm(z) ** 2 * max(nx, ny) + abs(np.vdot(x, y)))
            links.append((f"triple {k}", float(lhs), rhs))
        out.append((links, {}, []))
    return out


def _ev_superquad_defect(insts, hyps, ops, radii):
    out = []
    for i in insts:
        links = [(f"(s,t) {k}", 0.0, float(superquadratic_defect(i.f, s, t))) for k, (s, t) in enumerate(i.vectors)]
        out.append((links, {}, []))
    return out


# The records, keyed by id string in report order: ``--ineq all`` reports in
# this order, and ``InequalityId`` takes its names and values from the keys.
MEMBERS = {
    "norm-sandwich": Member(_build_operands("A"), (), _ev_norm_sandwich),
    "kittaneh-chain": Member(_build_operands("A"), (), _ev_kittaneh_chain),
    "power-mix": Member(
        _build_operands("A", params=_grid(r=R_GRID, v=V_GRID)), (_r_at_least(1), _v_open), _ev_power_mix
    ),
    "sum-sq-kittaneh": Member(_build_operands("A", "B"), (), _ev_sum_sq_kittaneh),
    "product-power": Member(_build_operands("A", "B", params=_grid(r=R_GRID)), (_r_at_least(1),), _ev_product_power),
    "general-product": Member(
        _build_operands("A", "X", "B", params=_grid(r=R_GRID, v=V_GRID)),
        (_r_at_least(1), _v_open, _weighted_sides),
        _ev_general_product,
    ),
    "dragomir-vector": Member(
        _build_operands(draw=_dragomir_triples),
        (
            _vectors_given,
            _scalar("unit z", lambda i: all(abs(np.linalg.norm(np.asarray(tr[2])) - 1.0) <= 1e-10 for tr in i.vectors)),
        ),
        _ev_dragomir_vector,
    ),
    "sum-new-bound": Member(_build_operands("A", "B"), (), _ev_sum_new(normal_form=False)),
    "sum-new-normal": Member(
        _build_operands("A:normal", "B:normal"), (_normal("A"), _normal("B")), _ev_sum_new(normal_form=True)
    ),
    "wsq-sum": Member(_build_operands("A", "B"), (), _ev_wsq_sum),
    "convex-product": Member(
        _build_operands("A", "X", "B", params=_grid(pair=_PAIRS, h=_POWERS, v=V_GRID)),
        (_v_open, _h_convex, _schwarz_sides),
        _ev_convex_product,
    ),
    "convex-product-power": Member(
        _build_operands("A", "X", "B", params=_grid(pair=_PAIRS, r=R_GRID)),
        (_r_at_least(1), _schwarz_sides),
        _ev_convex_product_power,
    ),
    "scalar-refined-amgm": Member(_build_operands(draw=_amgm_scalars), (_check_scalar_amgm,), _ev_scalar_refined_amgm),
    "conditioned-product": Member(_build_sandwich, (_h_convex, _schwarz_sides, _sandwich_gap), _ev_conditioned_product),
    "conditioned-specials": Member(
        _build_conditioned_specials, (_r_at_least(1), _variants, _check_specials), _ev_conditioned_specials
    ),
    "gamma-product": Member(_build_sandwich, (_h_convex, _check_gamma), _ev_gamma_product),
    "refined-convexity": Member(
        _build_operands("A:positive", "B:positive", params=_grid(f=_POWERS, v=V_GRID)),
        _convexity,
        _ev_refined_convexity,
        subtracts_infimum=True,
    ),
    "improved-convex-product": Member(
        _build_operands("A", "X", "B", params=_grid(pair=_PAIRS, h=_POWERS, v=V_GRID)),
        (_v_open, _h_convex, _schwarz_sides),
        _ev_improved_convex_product,
        subtracts_infimum=True,
    ),
    "superquad-radius": Member(
        _build_operands("A", params=_grid(f=_SUPER_POWERS)),
        (_scalar("f nonneg superquadratic", lambda i: _has_flags(i.f, NONNEG, SUPERQUADRATIC)),),
        _ev_superquad_radius,
    ),
    "superquad-power": Member(
        _build_operands("A", params=_grid(r=R_SUPER_GRID)), (_r_at_least(2),), _ev_superquad_power
    ),
    "hosseini-geo": Member(
        _build_operands("A:positive-invertible", "B:positive-invertible", "X", params=_hosseini_params),
        _hosseini,
        _ev_hosseini_geo,
        subtracts_infimum=True,
    ),
    "hosseini-geo-norms": Member(
        _build_operands(
            "A:positive-invertible", "B:positive-invertible", params=lambda i: {**_hosseini_params(i), "variant": i % 3}
        ),
        (_variants, *_hosseini),
        _ev_hosseini_geo_norms,
        subtracts_infimum=True,
    ),
    "euclidean-sandwich": Member(
        _build_operands("A:positive-invertible", "B:positive-invertible"), _mean_operands, _ev_euclidean_sandwich
    ),
    "fconn-radius": Member(
        _build_operands("A:positive-invertible", "B:positive", "X", params=_grid(f=_FCONN_FUNCS)),
        _mean_operands,
        _ev_fconn_radius,
    ),
    "geo-radius": Member(_build_operands("A:positive-invertible", "B:positive", "X"), _mean_operands, _ev_geo_radius),
    "mixed-schwarz": Member(
        _build_operands("A", params=_grid(pair=_PAIRS), draw=_schwarz_pairs), (_vectors_given,), _ev_mixed_schwarz
    ),
    "mond-pecaric": Member(
        _build_operands("A:positive", params=_grid(f=_MOND_PECARIC_POWERS), draw=_unit_vectors),
        (
            _vectors_given,
            _scalar("f convex or concave", lambda i: i.f is not None and (CONVEX in i.f.flags or CONCAVE in i.f.flags)),
        ),
        _ev_mond_pecaric,
    ),
    "norm-convexity": Member(
        _build_operands("A:positive", "B:positive", params=_grid(f=_POWERS, v=V_GRID)), _convexity, _ev_norm_convexity
    ),
    "superquad-defect": Member(
        _build_operands(params=_grid(f=_SUPER_POWERS), draw=_defect_points), _superquad_points, _ev_superquad_defect
    ),
}
InequalityId = enum.Enum("InequalityId", [(key.upper().replace("-", "_"), key) for key in MEMBERS], module=__name__)
MEMBERS = {InequalityId(key): record for key, record in MEMBERS.items()}

# A draw that raises one of these is refused (reported NotApplicable); the
# float errors come from operands or sides beyond the float range, or from a LAPACK failure.
_REFUSALS = (NotInvertible, NotPositive, NotHermitian, DomainViolation, _MissingOperand)
_FLOAT_RANGE = (FloatingPointError, OverflowError, np.linalg.LinAlgError)
_RANGE_NOTE = "beyond the float range"


def evaluate(ineq: InequalityId, inst: CheckInstance, tol_rel=_LINK_TOL) -> CheckResult:
    """Verify hypotheses and evaluate both sides of one catalog member.

    Status is Holds when the hypotheses are met and every link passes
    ``linalg._leq`` at ``tol_rel``; a failed check on a member that
    subtracts an infimum is Inconclusive, on any other member Violated.
    Hypothesis failures yield NotApplicable, never raise, and so does a draw
    whose evaluation is refused: an operand outside a function's domain, a
    non-Hermitian operand where the member needs a Hermitian one, or a side
    beyond the float range or a LAPACK failure in any kernel (both noted as
    beyond the float range); its report keeps the conditions decided before it.
    A malformed instance raises DimensionMismatch before any check runs: a
    matrix operand that is not square, or matrices and 1-D vectors of
    different sizes. A NaN, infinite or negative tol_rel raises UnsupportedParameter.
    """
    return evaluate_many(ineq, [inst], tol_rel=tol_rel)[0]


def evaluate_many(ineq: InequalityId, insts, tol_rel=_LINK_TOL) -> list:
    """``evaluate`` on each of several instances of one member, in order.

    The instances share one dimension and form one chunk: the hypotheses
    and the evaluator run on stacks of their matrices, and the matrices
    whose radii they need are enclosed by one ``numerical_radius`` call per
    round. Every matrix and 1-D vector of the chunk shares one size, or
    DimensionMismatch is raised.
    Numpy overflow and invalid operations raise inside the chunk. A refusal
    raised anywhere in it sends the chunk back one instance at a time, so
    that it refuses only its own instance; each result equals that of
    ``evaluate`` on its instance alone.
    """
    if not 0 <= tol_rel < math.inf:
        raise UnsupportedParameter(f"tol_rel must be finite and >= 0, not {tol_rel!r}")
    if not insts:
        return []
    _one_size(insts)

    def radii(M):
        return numerical_radius(_in_range(M), tol=_RADIUS_TOL)

    hyps = [HypothesisReport(satisfied=True) for _ in insts]
    try:
        with np.errstate(over="raise", invalid="raise"):
            operands = _verify_chunk(ineq, insts, hyps)
            live = [k for k, hyp in enumerate(hyps) if hyp.satisfied]
            outcomes = {}
            if live:
                chunk = {name: M[live] for name, M in operands.items()}
                found = MEMBERS[ineq].evaluate([insts[k] for k in live], [hyps[k] for k in live], chunk, radii)
                outcomes = dict(zip(live, found, strict=True))
    except _REFUSALS + _FLOAT_RANGE as exc:
        if len(insts) > 1:
            return [result for inst in insts for result in evaluate_many(ineq, [inst], tol_rel)]
        return [_refused(ineq, hyps[0], _RANGE_NOTE if isinstance(exc, _FLOAT_RANGE) else str(exc))]
    return [
        _verdict(ineq, hyp, outcomes[k], tol_rel) if k in outcomes else _not_applicable(ineq, hyp)
        for k, hyp in enumerate(hyps)
    ]


def _one_size(insts):
    """Raise DimensionMismatch unless every matrix operand of the chunk is
    square, and its matrices and 1-D vectors share one size."""
    sizes = set()
    for inst in insts:
        for name in "ABX":
            M = getattr(inst, name)
            if M is not None:
                shape = np.shape(M)
                if len(shape) != 2 or shape[0] != shape[1]:
                    raise DimensionMismatch(f"operand {name} of shape {shape} is not square")
                sizes.add(shape[0])
        sizes.update(len(v) for tup in inst.vectors for v in tup if np.ndim(v) == 1)
    if len(sizes) > 1:
        raise DimensionMismatch(f"operand sizes {sorted(sizes)} differ")


def _not_applicable(ineq, hyp):
    return CheckResult(ineq, math.nan, math.nan, math.nan, Status.NOT_APPLICABLE, hyp, {}, [])


def _refused(ineq, hyp, reason):
    hyp.notes.append(f"evaluation refused: {reason}")
    hyp.satisfied = False
    return _not_applicable(ineq, hyp)


def _verdict(ineq, hyp, outcome, tol_rel):
    """The result of an outcome's named links: it holds when every link passes ``_leq``. The binding
    link gives lhs and rhs: the failing link, else the link, of least slack (or the first NaN)."""
    links, details, semantics = outcome
    links = [(name, float(lhs), float(rhs)) for name, lhs, rhs in links]
    for name, lhs, rhs in links:
        details[f"{name}.lhs"], details[f"{name}.rhs"] = lhs, rhs
    failing = [link for link in links if not _leq(link[1], link[2], tol_rel)]
    candidates = failing or links
    slacks = [rhs - lhs for _, lhs, rhs in candidates]
    nans = [k for k, slack in enumerate(slacks) if slack != slack]  # argmin's rule: the first NaN, else the first least
    name, lhs, rhs = candidates[nans[0] if nans else slacks.index(min(slacks))]
    details["binding"] = name
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return _refused(ineq, hyp, _RANGE_NOTE)
    if not failing:
        status = Status.HOLDS
    elif MEMBERS[ineq].subtracts_infimum:
        status = Status.INCONCLUSIVE
    else:
        status = Status.VIOLATED
    return CheckResult(ineq, lhs, rhs, rhs - lhs, status, hyp, details, list(semantics))
