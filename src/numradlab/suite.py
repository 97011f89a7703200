"""Per-member random instance builders and the certification suite driver.

Builders are deterministic functions of (ensemble seed, member, draw index);
each builds a chunk of indices at once, with the draws' matrices made in
stacks, and every draw bitwise what it is alone. Hypothesis-bearing members
are drawn constructively so essentially every draw verifies. Parameter
grids cycle with the draw index to cover interior weights and the special
cases (v = 1/2, r = 1).
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
from .ensembles import EnsembleSpec, _haar, sample_stack, sandwich_operands
from .errors import BudgetExhausted
from .functions import parse_function, power, schwarz_power_pair
from .linalg import _adj, _spectral
from .radius import complex_gaussian, stream_rng

V_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
R_GRID = (1.0, 1.5, 2.0, 3.0)
R_SUPER_GRID = (2.0, 2.5, 3.0, 4.0)
PQ_GRID = ((2.0, 2.0), (3.0, 1.5))
ALPHA_GRID = (0.3, 0.5, 0.7)
FCONN_FUNCS = ("pow:0.5", "pow:0.25", "pow:1", "expr:1")

VECTORS_PER_TRIAL = 6
_PI_BAND = {"lam_lo": 0.5, "lam_hi": 3.0}
# Draws built and evaluated together by the suite, as stacks of matrices; at
# most this many instances are held at once.
CHUNK = 64


def _spec(ens, kind, **kw):
    return EnsembleSpec(dim=ens.dim, kind=kind, scale=ens.scale, seed=ens.seed, **kw)


def _draws(ens, member, indices, field, kind="generic", **kw):
    return sample_stack(_spec(ens, kind, **kw), indices, stream=f"{member.value}:{field}")


def _rng(ens, member, index, tag="aux"):
    return stream_rng(ens.seed, f"suite:{member.value}:{tag}", index)


def _unit_rows(rng, count, n):
    Z = complex_gaussian(rng, (count, n))
    return Z / np.linalg.norm(Z, axis=1)[:, None]


def _build_operands(member, *fields, params=lambda i: {}):
    """Builder of a member from stacked matrix draws, one per field ("A",
    or "A:kind" for a kind other than generic; positive-invertible draws
    take spectra in [0.5, 3]), with each draw's parameters from
    ``params(index)``."""
    kinds = [field.partition(":")[::2] for field in fields]

    def build(ens, indices):
        stacks = [
            _draws(ens, member, indices, name, kind or "generic", **(_PI_BAND if kind == "positive-invertible" else {}))
            for name, kind in kinds
        ]
        names = [name for name, _ in kinds]
        return [CheckInstance(**dict(zip(names, mats)), **params(i)) for i, *mats in zip(indices, *stacks)]

    return build


def _r_v(i):
    return {"r": R_GRID[i % len(R_GRID)], "v": V_GRID[(i // len(R_GRID)) % len(V_GRID)]}


def _pair_h_v(i):
    return {
        "pair": schwarz_power_pair(ALPHA_GRID[i % len(ALPHA_GRID)]),
        "h": power(R_GRID[(i // len(ALPHA_GRID)) % len(R_GRID)]),
        "v": V_GRID[(i // (len(ALPHA_GRID) * len(R_GRID))) % len(V_GRID)],
    }


def _f_v(i):
    return {"f": power(R_GRID[i % len(R_GRID)]), "v": V_GRID[(i // len(R_GRID)) % len(V_GRID)]}


def _build_dragomir(ens, indices):
    member = InequalityId.DRAGOMIR_VECTOR
    n = ens.dim
    out = []
    for i in indices:
        rng = _rng(ens, member, i)
        triples = []
        for _ in range(VECTORS_PER_TRIAL):
            x = complex_gaussian(rng, n) * rng.uniform(0.5, 2.0)
            y = complex_gaussian(rng, n) * rng.uniform(0.5, 2.0)
            z = complex_gaussian(rng, n)
            z = z / np.linalg.norm(z)
            triples.append((x, y, z))
        out.append(CheckInstance(vectors=tuple(triples)))
    return out


def _build_scalar_amgm(ens, indices):
    out = []
    for i in indices:
        rng = _rng(ens, InequalityId.SCALAR_REFINED_AMGM, i)
        a = rng.uniform(0.2, 5.0)
        b = a * float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0) + 1.0)
        b = max(b, 0.05)
        lo, hi = min(a, b), max(a, b)
        span = hi - lo
        m = lo + rng.uniform(0.05, 0.45) * span
        M = lo + rng.uniform(0.55, 0.95) * span
        out.append(CheckInstance(a=a, b=b, m=m, M=M))
    return out


def _build_sandwich(member):
    def build(ens, indices):
        rngs = [_rng(ens, member, i, tag="triple") for i in indices]
        A, B, X, alpha = sandwich_operands(rngs, ens.dim, gap=ens.gap)
        return [
            CheckInstance(A=A[k], B=B[k], X=X[k], pair=schwarz_power_pair(alpha[k]), h=power(R_GRID[i % len(R_GRID)]))
            for k, i in enumerate(indices)
        ]

    return build


def _build_conditioned_specials(ens, indices):
    """Variant 0 is a sandwich at weight v (2(1 - v) in place of 2 alpha),
    variant 1 a lone X whose singular values clear 1 on the side v picks,
    variant 2 two scaled unitaries. Each variant's Haar factors come from
    one QR."""
    member = InequalityId.CONDITIONED_SPECIALS
    n = ens.dim
    out = {}
    rows = {0: [], 1: [], 2: []}
    for i in indices:
        rows[i % 3].append(i)
    if rows[0]:
        vs = [V_GRID[(i // 12) % len(V_GRID)] for i in rows[0]]
        rngs = [_rng(ens, member, i, tag="build") for i in rows[0]]
        A, B, X, _ = sandwich_operands(rngs, n, ens.gap, weights=[1 - v for v in vs])
        for k, (i, v) in enumerate(zip(rows[0], vs)):
            out[i] = CheckInstance(A=A[k], B=B[k], X=X[k], r=R_GRID[(i // 3) % len(R_GRID)], v=v, variant=0)
    if rows[1]:
        choices = (0.1, 0.25, 0.75, 0.9)  # v = 1/2 admits no spectral gap here
        vs = [choices[(i // 12) % len(choices)] for i in rows[1]]
        sig, Z = [], []
        for i, v in zip(rows[1], vs):
            rng = _rng(ens, member, i, tag="build")
            c = 2.0 if v > 0.5 else 0.45
            sig.append(rng.uniform(c, 1.1 * c, size=n))
            Z.append([complex_gaussian(rng, (n, n)) for _ in range(2)])
        U = _haar(np.array(Z))
        X = (U[:, 0] * np.array(sig)[:, None, :]) @ _adj(U[:, 1])
        for k, (i, v) in enumerate(zip(rows[1], vs)):
            out[i] = CheckInstance(X=X[k], r=R_GRID[(i // 3) % len(R_GRID)], v=v, variant=1)
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
            out[i] = CheckInstance(A=A[k], B=B[k], r=R_GRID[(i // 3) % len(R_GRID)], variant=2)
    return [out[i] for i in indices]


def _hosseini_params(i):
    p, q = PQ_GRID[i % len(PQ_GRID)]
    admissible = tuple(r for r in R_GRID if r >= 2.0 / q - 1e-12)
    r = admissible[(i // len(PQ_GRID)) % len(admissible)]
    return {"p": p, "q": q, "r": r}


def _build_mixed_schwarz(ens, indices):
    member = InequalityId.MIXED_SCHWARZ
    A = _draws(ens, member, indices, "A")
    out = []
    for k, i in enumerate(indices):
        X = _unit_rows(_rng(ens, member, i), 2 * VECTORS_PER_TRIAL, ens.dim)
        pairs = tuple((X[2 * j], X[2 * j + 1]) for j in range(VECTORS_PER_TRIAL))
        out.append(CheckInstance(A=A[k], pair=schwarz_power_pair(ALPHA_GRID[i % len(ALPHA_GRID)]), vectors=pairs))
    return out


def _build_mond_pecaric(ens, indices):
    member = InequalityId.MOND_PECARIC
    A = _draws(ens, member, indices, "A", kind="positive")
    funcs = (power(2.0), power(3.0), power(1.5), power(0.5))
    out = []
    for k, i in enumerate(indices):
        X = _unit_rows(_rng(ens, member, i), VECTORS_PER_TRIAL, ens.dim)
        out.append(CheckInstance(A=A[k], f=funcs[i % len(funcs)], vectors=tuple((x,) for x in X)))
    return out


def _build_superquad_defect(ens, indices):
    member = InequalityId.SUPERQUAD_DEFECT
    out = []
    for i in indices:
        rng = _rng(ens, member, i)
        pts = tuple((float(s), float(t)) for s, t in rng.uniform(0.0, 10.0, size=(VECTORS_PER_TRIAL, 2)))
        out.append(CheckInstance(f=power(R_SUPER_GRID[i % len(R_SUPER_GRID)]), vectors=pts))
    return out


_M = InequalityId

#: One chunk builder per member: (ensemble, indices) -> one instance per index.
BUILDERS = {
    _M.NORM_SANDWICH: _build_operands(_M.NORM_SANDWICH, "A"),
    _M.KITTANEH_CHAIN: _build_operands(_M.KITTANEH_CHAIN, "A"),
    _M.POWER_MIX: _build_operands(_M.POWER_MIX, "A", params=_r_v),
    _M.SUM_SQ_KITTANEH: _build_operands(_M.SUM_SQ_KITTANEH, "A", "B"),
    _M.PRODUCT_POWER: _build_operands(_M.PRODUCT_POWER, "A", "B", params=lambda i: {"r": R_GRID[i % len(R_GRID)]}),
    _M.GENERAL_PRODUCT: _build_operands(_M.GENERAL_PRODUCT, "A", "X", "B", params=_r_v),
    _M.DRAGOMIR_VECTOR: _build_dragomir,
    _M.SUM_NEW_BOUND: _build_operands(_M.SUM_NEW_BOUND, "A", "B"),
    _M.SUM_NEW_NORMAL: _build_operands(_M.SUM_NEW_NORMAL, "A:normal", "B:normal"),
    _M.WSQ_SUM: _build_operands(_M.WSQ_SUM, "A", "B"),
    _M.CONVEX_PRODUCT: _build_operands(_M.CONVEX_PRODUCT, "A", "X", "B", params=_pair_h_v),
    _M.CONVEX_PRODUCT_POWER: _build_operands(
        _M.CONVEX_PRODUCT_POWER,
        "A",
        "X",
        "B",
        params=lambda i: {
            "pair": schwarz_power_pair(ALPHA_GRID[i % len(ALPHA_GRID)]),
            "r": R_GRID[(i // len(ALPHA_GRID)) % len(R_GRID)],
        },
    ),
    _M.SCALAR_REFINED_AMGM: _build_scalar_amgm,
    _M.CONDITIONED_PRODUCT: _build_sandwich(_M.CONDITIONED_PRODUCT),
    _M.CONDITIONED_SPECIALS: _build_conditioned_specials,
    _M.GAMMA_PRODUCT: _build_sandwich(_M.GAMMA_PRODUCT),
    _M.REFINED_CONVEXITY: _build_operands(_M.REFINED_CONVEXITY, "A:positive", "B:positive", params=_f_v),
    _M.IMPROVED_CONVEX_PRODUCT: _build_operands(_M.IMPROVED_CONVEX_PRODUCT, "A", "X", "B", params=_pair_h_v),
    _M.SUPERQUAD_RADIUS: _build_operands(
        _M.SUPERQUAD_RADIUS, "A", params=lambda i: {"f": power(R_SUPER_GRID[i % len(R_SUPER_GRID)])}
    ),
    _M.SUPERQUAD_POWER: _build_operands(
        _M.SUPERQUAD_POWER, "A", params=lambda i: {"r": R_SUPER_GRID[i % len(R_SUPER_GRID)]}
    ),
    _M.HOSSEINI_GEO: _build_operands(
        _M.HOSSEINI_GEO, "A:positive-invertible", "B:positive-invertible", "X", params=_hosseini_params
    ),
    _M.HOSSEINI_GEO_NORMS: _build_operands(
        _M.HOSSEINI_GEO_NORMS,
        "A:positive-invertible",
        "B:positive-invertible",
        params=lambda i: {**_hosseini_params(i), "variant": i % 3},
    ),
    _M.EUCLIDEAN_SANDWICH: _build_operands(_M.EUCLIDEAN_SANDWICH, "A:positive-invertible", "B:positive-invertible"),
    _M.FCONN_RADIUS: _build_operands(
        _M.FCONN_RADIUS,
        "A:positive-invertible",
        "B:positive",
        "X",
        params=lambda i: {"f": parse_function(FCONN_FUNCS[i % len(FCONN_FUNCS)])},
    ),
    _M.GEO_RADIUS: _build_operands(_M.GEO_RADIUS, "A:positive-invertible", "B:positive", "X"),
    _M.MIXED_SCHWARZ: _build_mixed_schwarz,
    _M.MOND_PECARIC: _build_mond_pecaric,
    _M.NORM_CONVEXITY: _build_operands(_M.NORM_CONVEXITY, "A:positive", "B:positive", params=_f_v),
    _M.SUPERQUAD_DEFECT: _build_superquad_defect,
}


def draw_chunk(ineq: InequalityId, ensemble: EnsembleSpec, indices) -> list:
    """``draw_instance`` at each index, built together: the matrices of all
    the draws come from stacked Haar factors and products."""
    return BUILDERS[ineq](ensemble, list(indices))


def draw_instance(ineq: InequalityId, ensemble: EnsembleSpec, index: int) -> CheckInstance:
    """Deterministic instance for (ensemble.seed, index) satisfying the
    member's structural form (hypotheses verify for essentially every draw)."""
    return draw_chunk(ineq, ensemble, [index])[0]


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
        insts = draw_chunk(ineq, ensemble, indices)
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
