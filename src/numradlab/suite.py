"""The certification suite: draws each member's instances with its
``catalog.MEMBERS`` builder, in chunks of up to ``CHUNK`` draws, evaluates
them until the member has the requested number of hypothesis-satisfying
trials, and collects one record per member into a report.
"""

from __future__ import annotations

from .catalog import MEMBERS, CheckInstance, InequalityId, Status, evaluate_many
from .ensembles import EnsembleSpec
from .errors import BudgetExhausted

# Draws built and evaluated together by the suite, as stacks of matrices; at
# most this many instances are held at once.
CHUNK = 64


def draw_chunk(ineq: InequalityId, ensemble: EnsembleSpec, indices) -> list:
    """``draw_instance`` at each index, built together: the matrices of all
    the draws come from stacked Haar factors and products."""
    return MEMBERS[ineq].build(ensemble, list(indices))


def draw_instance(ineq: InequalityId, ensemble: EnsembleSpec, index: int) -> CheckInstance:
    """Deterministic instance for (ensemble.seed, index) satisfying the
    member's structural form (hypotheses verify for essentially every draw)."""
    return draw_chunk(ineq, ensemble, [index])[0]


def _run_member(ineq, ensemble, trials, tol_rel):
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
        results = evaluate_many(ineq, insts, tol_rel=tol_rel)
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


def run_suite(ids, ensemble: EnsembleSpec, trials: int, tol_rel=1e-8):
    """Evaluate each member on `trials` hypothesis-satisfying instances.

    Fully deterministic given the ensemble seed: per-member results do not
    depend on the order members are evaluated in.
    """
    from .report import SuiteReport
    import time

    if trials < 0:
        raise ValueError("trials must be >= 0")
    ids = list(ids)
    start = time.perf_counter()
    records = [_run_member(i, ensemble, trials, tol_rel) for i in ids]
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
