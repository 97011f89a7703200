"""Workload definitions, input generation and output checks.

Imports no numpy at module level: the worker starts its set-up clock before
``import numradlab``, which is what pulls numpy in.

Every workload is a closed loop of one caller issuing requests through
numradlab's public entry points. Requests come in cycles; a cycle covers the
workload's full mix once and uses fresh inputs (a new certify seed, new
matrices), so no request repeats an earlier one. Runs always end on a cycle
boundary, which keeps the request mix identical between runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "certify" or "radius"
    dims: tuple
    trials: int = 0  # certify: trials per member request
    cycle_s: float = 1.0  # rough wall seconds per cycle at the seed commit; sizes traced passes and inputs


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance-gate shape: every member at dims 2, 3, 5, 8. Bound by
        # per-call overhead (dispatch, drawing, sphere search, small sweeps).
        Workload("certify-desk", "certify", (2, 3, 5, 8), trials=12, cycle_s=2.2),
        # Desk-scale ceiling: every member at dim 64, bound by batched
        # eigensolves in the radius sweep.
        Workload("certify-wide", "certify", (64,), trials=1, cycle_s=1.7),
        # User matrices through load_matrix + numerical_radius + operator_norm
        # at CLI defaults; bypasses catalog, suite and ensembles.
        Workload("radius-exchange", "radius", (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64), cycle_s=2.6),
    )
}

RADIUS_KINDS = ("generic", "normal", "square-zero")
RADIUS_TOL = 1e-10  # the `numradlab radius` default; the grid stays at its default
MIN_REQUESTS = 100  # so the 90th percentile has at least ten samples beyond it


def request_seed(seed, cycle):
    """Certify seed of one cycle; cycle -1 is the warm-up cycle."""
    return seed * 1_000_003 + cycle + 1


def certify_schedule(workload, members):
    """(member, dim) requests of one certify cycle."""
    return [(member, dim) for dim in workload.dims for member in members]


def radius_schedule(workload):
    """(kind, dim) requests of one radius cycle, in a fixed interleaved order
    so that any prefix of a cycle mixes small and large matrices."""
    pairs = [(kind, dim) for dim in workload.dims for kind in RADIUS_KINDS]
    stride = 7  # coprime with len(pairs) == 33
    return [pairs[(i * stride) % len(pairs)] for i in range(len(pairs))]


def trace_cycles(workload, seconds):
    """Cycles in each half of a traced run: about a third of ``seconds`` untraced.

    Depends only on the workload and ``seconds``, so two traced runs with the
    same arguments do identical work and their counts repeat exactly."""
    return max(1, int(seconds / (3.0 * workload.cycle_s)))


# -- radius inputs ------------------------------------------------------------


def _unitary(rng, n):
    import numpy as np

    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def make_matrix(rng, kind, n):
    """A matrix of the given kind plus its reference values, from plain numpy.

    Returns (A, ref) where ref holds the operator norm and, for normal
    matrices, the spectral radius, which equals the numerical radius.
    """
    import numpy as np

    ref = {"kind": kind, "dim": n}
    if kind == "generic":
        A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    elif kind == "normal":
        U = _unitary(rng, n)
        lam = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        A = (U * lam) @ U.conj().T
        ref["rho"] = float(np.abs(lam).max())
    else:
        k = n // 2
        M = np.zeros((n, n), dtype=complex)
        M[:k, k:] = (rng.standard_normal((k, n - k)) + 1j * rng.standard_normal((k, n - k))) / math.sqrt(2.0)
        U = _unitary(rng, n)
        A = U @ M @ U.conj().T
    ref["norm"] = float(np.linalg.svd(A, compute_uv=False)[0])
    return A, ref


def exchange_document(A):
    """The matrix exchange format: {"dim": n, "rows": n x n [re, im] pairs}."""
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in A]
    return json.dumps({"dim": len(rows), "rows": rows})


def write_radius_inputs(workdir, workload, seed, cycles):
    """Write the matrices of a warm-up cycle and of ``cycles`` measured cycles.

    Returns {"warmup": [ref, ...], "cycles": [[ref, ...], ...]}; each ref
    carries the file path and the reference values the output checks use.
    """
    import numpy as np

    schedule = radius_schedule(workload)

    def one(cycle, i, kind, dim):
        rng = np.random.default_rng([seed, cycle + 1, i])
        A, ref = make_matrix(rng, kind, dim)
        path = workdir / f"m{cycle + 1}-{i}.json"
        path.write_text(exchange_document(A), encoding="utf-8")
        ref["path"] = str(path)
        return ref

    refs = [[one(c, i, kind, dim) for i, (kind, dim) in enumerate(schedule)] for c in range(-1, cycles)]
    return {"warmup": refs[0], "cycles": refs[1:]}


# -- output checks --------------------------------------------------------------


def check_certify(report_text, member, dim, trials, seed):
    """Failed checks in one single-member certify report, and its escalations.

    A check fails unless it holds: the report must show zero violated, zero
    inconclusive, and holds == trials, for the requested configuration.
    """
    try:
        doc = json.loads(report_text)
        config = doc["config"]
        (record,) = doc["records"]
    except (ValueError, KeyError, TypeError):
        return trials, 0
    if (config.get("dim"), config.get("seed"), config.get("trials"), record.get("ineq")) != (dim, seed, trials, member):
        return trials, 0
    holds = record.get("holds")
    escalations = 0
    for note in record.get("notes", ()):
        if note.startswith("escalations: "):
            escalations = int(note.split(": ", 1)[1])
    if record.get("violated") == 0 and record.get("inconclusive") == 0 and holds == trials:
        return 0, escalations
    return (trials - holds if isinstance(holds, int) and 0 <= holds < trials else trials), escalations


def check_radius(ref, A, value, witness, norm):
    """True when one radius request's outputs meet the reference checks."""
    import numpy as np

    if not (math.isfinite(value) and math.isfinite(norm)):
        return False
    if abs(norm - ref["norm"]) > 1e-10 * (1.0 + ref["norm"]):
        return False
    if ref["kind"] == "normal":
        if abs(value - ref["rho"]) > 1e-8:
            return False
    elif ref["kind"] == "square-zero":
        if abs(value - ref["norm"] / 2) > 1e-8:
            return False
    elif not ref["norm"] / 2 <= value <= ref["norm"]:
        return False
    x = np.asarray(witness)
    if x.shape != (ref["dim"],) or abs(np.linalg.norm(x) - 1.0) > 1e-9:
        return False
    return abs(np.vdot(x, A @ x)) >= value * (1.0 - 1e-9)
