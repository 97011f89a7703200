"""Per-member random instance builders and the certification suite driver.

Builders are deterministic functions of (ensemble seed, member, draw index);
hypothesis-bearing members are drawn constructively so essentially every
draw verifies. Parameter grids cycle with the draw index to cover interior
weights and the special cases (v = 1/2, r = 1).
"""

from __future__ import annotations

import numpy as np

from .catalog import (
    CheckInstance,
    InequalityId,
    SUITE_OPTIONS,
    Status,
    evaluate_many,
)
from .ensembles import EnsembleSpec, haar_unitary, positive_invertible_matrix, sample, sandwich_operands
from .errors import BudgetExhausted
from .functions import parse_function, power, schwarz_power_pair
from .radius import complex_gaussian, stream_rng

V_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
R_GRID = (1.0, 1.5, 2.0, 3.0)
R_SUPER_GRID = (2.0, 2.5, 3.0, 4.0)
PQ_GRID = ((2.0, 2.0), (3.0, 1.5))
ALPHA_GRID = (0.3, 0.5, 0.7)
FCONN_FUNCS = ("pow:0.5", "pow:0.25", "pow:1", "expr:1")

VECTORS_PER_TRIAL = 6
# Draws evaluated together by the suite: their radii share stacked eigensolves,
# and at most this many instances are held at once.
CHUNK = 64


def _spec(ens, kind, **kw):
    return EnsembleSpec(dim=ens.dim, kind=kind, scale=ens.scale, seed=ens.seed, **kw)


def _draw(ens, member, index, field, kind="generic", **kw):
    return sample(_spec(ens, kind, **kw), index, stream=f"{member.value}:{field}")


def _rng(ens, member, index, tag="aux"):
    return stream_rng(ens.seed, f"suite:{member.value}:{tag}", index)


def _unit_rows(rng, count, n):
    Z = complex_gaussian(rng, (count, n))
    return Z / np.linalg.norm(Z, axis=1)[:, None]


def _build_norm_sandwich(ens, i):
    return CheckInstance(A=_draw(ens, InequalityId.NORM_SANDWICH, i, "A"))


def _build_kittaneh_chain(ens, i):
    return CheckInstance(A=_draw(ens, InequalityId.KITTANEH_CHAIN, i, "A"))


def _build_power_mix(ens, i):
    return CheckInstance(
        A=_draw(ens, InequalityId.POWER_MIX, i, "A"),
        r=R_GRID[i % len(R_GRID)],
        v=V_GRID[(i // len(R_GRID)) % len(V_GRID)],
    )


def _build_sum_pair(member):
    def build(ens, i):
        return CheckInstance(A=_draw(ens, member, i, "A"), B=_draw(ens, member, i, "B"))

    return build


def _build_sum_new_normal(ens, i):
    member = InequalityId.SUM_NEW_NORMAL
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="normal"),
        B=_draw(ens, member, i, "B", kind="normal"),
    )


def _build_product_power(ens, i):
    member = InequalityId.PRODUCT_POWER
    return CheckInstance(
        A=_draw(ens, member, i, "A"),
        B=_draw(ens, member, i, "B"),
        r=R_GRID[i % len(R_GRID)],
    )


def _build_general_product(ens, i):
    member = InequalityId.GENERAL_PRODUCT
    return CheckInstance(
        A=_draw(ens, member, i, "A"),
        X=_draw(ens, member, i, "X"),
        B=_draw(ens, member, i, "B"),
        r=R_GRID[i % len(R_GRID)],
        v=V_GRID[(i // len(R_GRID)) % len(V_GRID)],
    )


def _build_dragomir(ens, i):
    member = InequalityId.DRAGOMIR_VECTOR
    rng = _rng(ens, member, i)
    n = ens.dim
    triples = []
    for _ in range(VECTORS_PER_TRIAL):
        x = complex_gaussian(rng, n) * rng.uniform(0.5, 2.0)
        y = complex_gaussian(rng, n) * rng.uniform(0.5, 2.0)
        z = complex_gaussian(rng, n)
        z = z / np.linalg.norm(z)
        triples.append((x, y, z))
    return CheckInstance(vectors=tuple(triples))


def _build_convex_product(ens, i):
    member = InequalityId.CONVEX_PRODUCT
    return CheckInstance(
        A=_draw(ens, member, i, "A"),
        X=_draw(ens, member, i, "X"),
        B=_draw(ens, member, i, "B"),
        pair=schwarz_power_pair(ALPHA_GRID[i % len(ALPHA_GRID)]),
        h=power(R_GRID[(i // len(ALPHA_GRID)) % len(R_GRID)]),
        v=V_GRID[(i // (len(ALPHA_GRID) * len(R_GRID))) % len(V_GRID)],
    )


def _build_convex_product_power(ens, i):
    member = InequalityId.CONVEX_PRODUCT_POWER
    return CheckInstance(
        A=_draw(ens, member, i, "A"),
        X=_draw(ens, member, i, "X"),
        B=_draw(ens, member, i, "B"),
        pair=schwarz_power_pair(ALPHA_GRID[i % len(ALPHA_GRID)]),
        r=R_GRID[(i // len(ALPHA_GRID)) % len(R_GRID)],
    )


def _build_scalar_amgm(ens, i):
    rng = _rng(ens, InequalityId.SCALAR_REFINED_AMGM, i)
    a = rng.uniform(0.2, 5.0)
    b = a * float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0) + 1.0)
    b = max(b, 0.05)
    lo, hi = min(a, b), max(a, b)
    span = hi - lo
    m = lo + rng.uniform(0.05, 0.45) * span
    M = lo + rng.uniform(0.55, 0.95) * span
    return CheckInstance(a=a, b=b, m=m, M=M)


def _build_sandwich(member):
    def build(ens, i):
        A, B, X, pair = sandwich_operands(_rng(ens, member, i, tag="triple"), ens.dim, gap=ens.gap)
        return CheckInstance(A=A, B=B, X=X, pair=pair, h=power(R_GRID[i % len(R_GRID)]))

    return build


def _build_conditioned_specials(ens, i):
    member = InequalityId.CONDITIONED_SPECIALS
    rng = _rng(ens, member, i, tag="build")
    variant = i % 3
    r = R_GRID[(i // 3) % len(R_GRID)]
    n = ens.dim
    if variant == 0:
        v = V_GRID[(i // 12) % len(V_GRID)]
        A, B, X = _specials_triple(rng, n, v, ens.gap)
        return CheckInstance(A=A, B=B, X=X, r=r, v=v, variant=0)
    if variant == 1:
        choices = (0.1, 0.25, 0.75, 0.9)  # v = 1/2 admits no spectral gap here
        v = choices[(i // 12) % len(choices)]
        c = 2.0 if v > 0.5 else 0.45
        sig = rng.uniform(c, 1.1 * c, size=n)
        X = (haar_unitary(rng, n) * sig) @ haar_unitary(rng, n).conj().T
        return CheckInstance(X=X, r=r, v=v, variant=1)
    A = positive_invertible_matrix(rng, n, 2.2, 3.0)
    B_ = positive_invertible_matrix(rng, n, 0.8, 1.2)
    UA = haar_unitary(rng, n)
    UB = haar_unitary(rng, n)
    return CheckInstance(A=UA @ A, B=UB @ B_, r=r, variant=2)


def _specials_triple(rng, n, v, gap):
    """Sandwich construction for the A*XB specialization at weight v."""
    sig = rng.uniform(1.0, 1.3, size=n)
    X = (haar_unitary(rng, n) * sig) @ haar_unitary(rng, n).conj().T
    B = positive_invertible_matrix(rng, n, 0.7, 1.0)
    s_cap = 1.3 ** (2 * (1 - v))
    target = max(3.0 * s_cap, s_cap + gap) * 1.15
    a_lo = np.sqrt(target)
    A = positive_invertible_matrix(rng, n, a_lo, 1.25 * a_lo)
    return A, B, X


def _build_refined_convexity(ens, i):
    member = InequalityId.REFINED_CONVEXITY
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="positive"),
        B=_draw(ens, member, i, "B", kind="positive"),
        f=power(R_GRID[i % len(R_GRID)]),
        v=V_GRID[(i // len(R_GRID)) % len(V_GRID)],
    )


def _build_improved_convex_product(ens, i):
    member = InequalityId.IMPROVED_CONVEX_PRODUCT
    return CheckInstance(
        A=_draw(ens, member, i, "A"),
        X=_draw(ens, member, i, "X"),
        B=_draw(ens, member, i, "B"),
        pair=schwarz_power_pair(ALPHA_GRID[i % len(ALPHA_GRID)]),
        h=power(R_GRID[(i // len(ALPHA_GRID)) % len(R_GRID)]),
        v=V_GRID[(i // (len(ALPHA_GRID) * len(R_GRID))) % len(V_GRID)],
    )


def _build_superquad_radius(ens, i):
    return CheckInstance(
        A=_draw(ens, InequalityId.SUPERQUAD_RADIUS, i, "A"),
        f=power(R_SUPER_GRID[i % len(R_SUPER_GRID)]),
    )


def _build_superquad_power(ens, i):
    return CheckInstance(
        A=_draw(ens, InequalityId.SUPERQUAD_POWER, i, "A"),
        r=R_SUPER_GRID[i % len(R_SUPER_GRID)],
    )


def _hosseini_params(i):
    p, q = PQ_GRID[i % len(PQ_GRID)]
    admissible = tuple(r for r in R_GRID if r >= 2.0 / q - 1e-12)
    r = admissible[(i // len(PQ_GRID)) % len(admissible)]
    return p, q, r


def _build_hosseini_geo(ens, i):
    member = InequalityId.HOSSEINI_GEO
    p, q, r = _hosseini_params(i)
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="positive-invertible", lam_lo=0.5, lam_hi=3.0),
        B=_draw(ens, member, i, "B", kind="positive-invertible", lam_lo=0.5, lam_hi=3.0),
        X=_draw(ens, member, i, "X"),
        p=p,
        q=q,
        r=r,
    )


def _build_hosseini_geo_norms(ens, i):
    member = InequalityId.HOSSEINI_GEO_NORMS
    p, q, r = _hosseini_params(i)
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="positive-invertible", lam_lo=0.5, lam_hi=3.0),
        B=_draw(ens, member, i, "B", kind="positive-invertible", lam_lo=0.5, lam_hi=3.0),
        p=p,
        q=q,
        r=r,
        variant=i % 3,
    )


def _build_euclidean_sandwich(ens, i):
    member = InequalityId.EUCLIDEAN_SANDWICH
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="positive-invertible", lam_lo=0.5, lam_hi=3.0),
        B=_draw(ens, member, i, "B", kind="positive-invertible", lam_lo=0.5, lam_hi=3.0),
    )


def _build_fconn_radius(ens, i):
    member = InequalityId.FCONN_RADIUS
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="positive-invertible", lam_lo=0.5, lam_hi=3.0),
        B=_draw(ens, member, i, "B", kind="positive"),
        X=_draw(ens, member, i, "X"),
        f=parse_function(FCONN_FUNCS[i % len(FCONN_FUNCS)]),
    )


def _build_geo_radius(ens, i):
    member = InequalityId.GEO_RADIUS
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="positive-invertible", lam_lo=0.5, lam_hi=3.0),
        B=_draw(ens, member, i, "B", kind="positive"),
        X=_draw(ens, member, i, "X"),
    )


def _build_mixed_schwarz(ens, i):
    member = InequalityId.MIXED_SCHWARZ
    rng = _rng(ens, member, i)
    X = _unit_rows(rng, 2 * VECTORS_PER_TRIAL, ens.dim)
    pairs = tuple((X[2 * k], X[2 * k + 1]) for k in range(VECTORS_PER_TRIAL))
    return CheckInstance(
        A=_draw(ens, member, i, "A"),
        pair=schwarz_power_pair(ALPHA_GRID[i % len(ALPHA_GRID)]),
        vectors=pairs,
    )


def _build_mond_pecaric(ens, i):
    member = InequalityId.MOND_PECARIC
    rng = _rng(ens, member, i)
    X = _unit_rows(rng, VECTORS_PER_TRIAL, ens.dim)
    funcs = (power(2.0), power(3.0), power(1.5), power(0.5))
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="positive"),
        f=funcs[i % len(funcs)],
        vectors=tuple((x,) for x in X),
    )


def _build_norm_convexity(ens, i):
    member = InequalityId.NORM_CONVEXITY
    return CheckInstance(
        A=_draw(ens, member, i, "A", kind="positive"),
        B=_draw(ens, member, i, "B", kind="positive"),
        f=power(R_GRID[i % len(R_GRID)]),
        v=V_GRID[(i // len(R_GRID)) % len(V_GRID)],
    )


def _build_superquad_defect(ens, i):
    member = InequalityId.SUPERQUAD_DEFECT
    rng = _rng(ens, member, i)
    pts = tuple((float(s), float(t)) for s, t in rng.uniform(0.0, 10.0, size=(VECTORS_PER_TRIAL, 2)))
    return CheckInstance(f=power(R_SUPER_GRID[i % len(R_SUPER_GRID)]), vectors=pts)


BUILDERS = {
    InequalityId.NORM_SANDWICH: _build_norm_sandwich,
    InequalityId.KITTANEH_CHAIN: _build_kittaneh_chain,
    InequalityId.POWER_MIX: _build_power_mix,
    InequalityId.SUM_SQ_KITTANEH: _build_sum_pair(InequalityId.SUM_SQ_KITTANEH),
    InequalityId.PRODUCT_POWER: _build_product_power,
    InequalityId.GENERAL_PRODUCT: _build_general_product,
    InequalityId.DRAGOMIR_VECTOR: _build_dragomir,
    InequalityId.SUM_NEW_BOUND: _build_sum_pair(InequalityId.SUM_NEW_BOUND),
    InequalityId.SUM_NEW_NORMAL: _build_sum_new_normal,
    InequalityId.WSQ_SUM: _build_sum_pair(InequalityId.WSQ_SUM),
    InequalityId.CONVEX_PRODUCT: _build_convex_product,
    InequalityId.CONVEX_PRODUCT_POWER: _build_convex_product_power,
    InequalityId.SCALAR_REFINED_AMGM: _build_scalar_amgm,
    InequalityId.CONDITIONED_PRODUCT: _build_sandwich(InequalityId.CONDITIONED_PRODUCT),
    InequalityId.CONDITIONED_SPECIALS: _build_conditioned_specials,
    InequalityId.GAMMA_PRODUCT: _build_sandwich(InequalityId.GAMMA_PRODUCT),
    InequalityId.REFINED_CONVEXITY: _build_refined_convexity,
    InequalityId.IMPROVED_CONVEX_PRODUCT: _build_improved_convex_product,
    InequalityId.SUPERQUAD_RADIUS: _build_superquad_radius,
    InequalityId.SUPERQUAD_POWER: _build_superquad_power,
    InequalityId.HOSSEINI_GEO: _build_hosseini_geo,
    InequalityId.HOSSEINI_GEO_NORMS: _build_hosseini_geo_norms,
    InequalityId.EUCLIDEAN_SANDWICH: _build_euclidean_sandwich,
    InequalityId.FCONN_RADIUS: _build_fconn_radius,
    InequalityId.GEO_RADIUS: _build_geo_radius,
    InequalityId.MIXED_SCHWARZ: _build_mixed_schwarz,
    InequalityId.MOND_PECARIC: _build_mond_pecaric,
    InequalityId.NORM_CONVEXITY: _build_norm_convexity,
    InequalityId.SUPERQUAD_DEFECT: _build_superquad_defect,
}


def draw_instance(ineq: InequalityId, ensemble: EnsembleSpec, index: int) -> CheckInstance:
    """Deterministic instance for (ensemble.seed, index) satisfying the
    member's structural form (hypotheses verify for essentially every draw)."""
    return BUILDERS[ineq](ensemble, index)


def _run_member(ineq, ensemble, trials, tol_rel, options):
    from .report import IneqRecord
    import statistics

    counts = {Status.HOLDS: 0, Status.VIOLATED: 0, Status.INCONCLUSIVE: 0, Status.NOT_APPLICABLE: 0}
    slacks = []
    notes = set()
    min_slack = None
    min_index = None
    min_params = {}
    draws = 0
    budget = 100 * max(trials, 1)
    while len(slacks) < trials:
        if draws >= budget:
            raise BudgetExhausted(
                f"{ineq.value}: no hypothesis-satisfying instance within {budget} draws"
            )
        # A draw's outcome depends on its index alone, so evaluating the next
        # indices together keeps exactly the draws a one-by-one loop keeps.
        indices = range(draws, min(draws + min(trials - len(slacks), CHUNK), budget))
        insts = [draw_instance(ineq, ensemble, index) for index in indices]
        draws = indices.stop
        results = evaluate_many(ineq, insts, tol_rel=tol_rel, options=options)
        for index, inst, result in zip(indices, insts, results):
            if result.status is Status.NOT_APPLICABLE:
                continue
            counts[result.status] += 1
            slacks.append(result.slack)
            notes.update(result.semantics)
            if min_slack is None or result.slack < min_slack:
                min_slack = result.slack
                min_index = index
                min_params = inst.params()
    return IneqRecord(
        ineq=ineq.value,
        trials=trials,
        holds=counts[Status.HOLDS],
        violated=counts[Status.VIOLATED],
        inconclusive=counts[Status.INCONCLUSIVE],
        not_applicable=counts[Status.NOT_APPLICABLE],
        min_slack=min_slack,
        median_slack=(statistics.median(slacks) if slacks else None),
        min_slack_index=min_index,
        min_slack_params=min_params,
        notes=sorted(notes),
    )


def _worker(args):
    return _run_member(*args)


def run_suite(ids, ensemble: EnsembleSpec, trials: int, tol_rel=1e-8, options=None, jobs=1):
    """Evaluate each member on `trials` hypothesis-satisfying instances.

    Fully deterministic given the ensemble seed: per-member results do not
    depend on the order members are evaluated in or on the worker count.
    """
    from .report import SuiteReport
    import time

    if trials < 0:
        raise ValueError("trials must be >= 0")
    ids = list(ids)
    options = options or SUITE_OPTIONS
    start = time.perf_counter()
    if trials == 0:
        from .report import IneqRecord

        records = [
            IneqRecord(i.value, 0, 0, 0, 0, 0, None, None, None, {}, []) for i in ids
        ]
    elif jobs > 1 and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; serial runs skip it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_worker, [(i, ensemble, trials, tol_rel, options) for i in ids]))
    else:
        records = [_run_member(i, ensemble, trials, tol_rel, options) for i in ids]
    wall = time.perf_counter() - start
    config = {
        "ids": [i.value for i in ids],
        "dim": ensemble.dim,
        "kind": ensemble.kind,
        "scale": ensemble.scale,
        "seed": ensemble.seed,
        "trials": trials,
        "tol_rel": tol_rel,
    }
    return SuiteReport.build(config=config, records=records, wall_time=wall)
