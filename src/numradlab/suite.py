"""The certification suite: draws each member's instances with its
``catalog.MEMBERS`` builder, in chunks of up to ``CHUNK`` draws, evaluates
them until the member has the requested number of hypothesis-satisfying
trials, and collects one record per member into a report. ``search`` draws
its starting instances through the same loop and draw budget.
"""

from __future__ import annotations

from .catalog import MEMBERS, CheckInstance, InequalityId, Status, evaluate_many
from .ensembles import EnsembleSpec
from .errors import BudgetExhausted, UnsupportedParameter
from .linalg import _LINK_TOL

# Draws built and evaluated together by the suite, as stacks of matrices; at
# most this many instances are held at once.
CHUNK = 64


def draw_chunk(ineq: InequalityId, ensemble: EnsembleSpec, indices) -> list:
    """``draw_instance`` at each index, built together: the matrices of all
    the draws come from stacked Haar factors and products."""
    return MEMBERS[ineq].build(ensemble, ineq, list(indices))


def draw_instance(ineq: InequalityId, ensemble: EnsembleSpec, index: int) -> CheckInstance:
    """Deterministic instance for (ensemble.seed, index) satisfying the
    member's structural form (hypotheses verify for essentially every draw)."""
    return draw_chunk(ineq, ensemble, [index])[0]


def _kept_draws(ineq, ensemble, count, tol_rel=_LINK_TOL):
    """Yield ``(index, instance, result)`` for the first ``count`` draws
    that are not NotApplicable, in index order. Raises BudgetExhausted when
    100 draws per requested one do not suffice."""
    kept = draws = 0
    size, budget = count, 100 * max(count, 1)
    while kept < count:
        if draws >= budget:
            raise BudgetExhausted(f"{ineq.value}: no hypothesis-satisfying instance within {budget} draws")
        # A draw's outcome depends on its index alone, so evaluating the next
        # indices together keeps exactly the draws a one-by-one loop keeps.
        indices = range(draws, min(draws + min(size, CHUNK), budget))
        insts = draw_chunk(ineq, ensemble, indices)
        draws = indices.stop
        start = kept
        for index, inst, result in zip(indices, insts, evaluate_many(ineq, insts, tol_rel=tol_rel)):
            if result.status is not Status.NOT_APPLICABLE:
                kept += 1
                yield index, inst, result
                if kept == count:
                    return
        # after a chunk that refused draws, the next one doubles (it covers what is still needed)
        size = count - kept if kept - start == len(indices) else 2 * len(indices)


def _run_member(ineq, ensemble, trials, tol_rel):
    from .report import IneqRecord
    import statistics

    counts = dict.fromkeys((Status.HOLDS, Status.VIOLATED, Status.INCONCLUSIVE), 0)
    slacks = []
    notes = set()
    min_slack = min_index = None
    min_params = {}
    for index, inst, result in _kept_draws(ineq, ensemble, trials, tol_rel):
        counts[result.status] += 1
        slacks.append(result.slack)
        notes.update(result.semantics)
        if min_slack is None or result.slack < min_slack:
            min_slack, min_index, min_params = result.slack, index, inst.params()
    return IneqRecord(
        ineq=ineq.value,
        trials=trials,
        holds=counts[Status.HOLDS],
        violated=counts[Status.VIOLATED],
        inconclusive=counts[Status.INCONCLUSIVE],
        not_applicable=0,
        min_slack=min_slack,
        median_slack=(statistics.median(slacks) if slacks else None),
        min_slack_index=min_index,
        min_slack_params=min_params,
        notes=sorted(notes),
    )


def run_suite(ids, ensemble: EnsembleSpec, trials: int, tol_rel=_LINK_TOL):
    """Evaluate each member on `trials` hypothesis-satisfying instances.

    Fully deterministic given the ensemble seed: per-member results do not
    depend on the order members are evaluated in. Members draw their own
    kinds, so the ensemble's kind must be "generic".
    """
    from .report import SuiteReport
    import time

    if trials < 0:
        raise ValueError("trials must be >= 0")
    if ensemble.kind != "generic":
        raise UnsupportedParameter(f"members draw their own kinds; the suite takes 'generic', not {ensemble.kind!r}")
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
