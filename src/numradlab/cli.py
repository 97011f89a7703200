"""Command line front end: certify suites, reproduce the hard-coded example
pairs, compute radii for user matrices, and search for minimal slack."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import io
import json
import math
import os
import stat
import sys

import numpy as np

from .errors import BudgetExhausted, NumradError
from .linalg import _LINK_TOL, _leq, adjoint, hermitian_part, operator_norm
from .matio import _pairs, load_matrix, matrix_to_dict
from .radius import complex_gaussian, numerical_radius, stream_rng

# The certification core (catalog, ensembles, suite) is imported by the
# commands that use it, so `radius` loads only errors, linalg, matio and radius.

EXAMPLE_PAIRS = (
    {
        "label": "example-1",
        "A": np.array([[1.0, 0.0], [-3.0, 1.0]], dtype=complex),
        "B": np.array([[-1.0, 2.0], [0.0, 1.0]], dtype=complex),
        "reference": {"lhs": (14.52, 2), "new": (29.58, 2), "kittaneh": (25.28, 2)},
        "ordering": "kittaneh < new",
    },
    {
        "label": "example-2",
        "A": np.array([[2.0, 0.0], [3.0, 1.0]], dtype=complex),
        "B": np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex),
        "reference": {"lhs": (17.94, 2), "new": (25.4, 1), "kittaneh": (29.44, 2)},
        "ordering": "new < kittaneh",
    },
)


def display_round(x, decimals):
    """Truncate toward zero at the displayed precision (the reference values
    are truncations: 29.5867 appears as 29.58)."""
    factor = 10.0**decimals
    return math.floor(x * factor) / factor if x >= 0 else -math.floor(-x * factor) / factor


def paper_examples():
    """Evaluate the two hard-coded pairs; returns one record per pair."""
    from .catalog import CheckInstance, InequalityId, evaluate

    out = []
    for spec in EXAMPLE_PAIRS:
        inst = CheckInstance(A=spec["A"], B=spec["B"])
        new = evaluate(InequalityId.SUM_NEW_BOUND, inst)
        kit = evaluate(InequalityId.SUM_SQ_KITTANEH, inst)
        computed = {"lhs": new.lhs, "new": new.rhs, "kittaneh": kit.rhs}
        matches = {
            key: display_round(computed[key], nd) == ref
            for key, (ref, nd) in spec["reference"].items()
        }
        if new.rhs > kit.rhs:
            ordering = "kittaneh < new"
            verdict = "new bound > Kittaneh bound"
        else:
            ordering = "new < kittaneh"
            verdict = "Kittaneh bound > new bound"
        chain_ok = computed["lhs"] < min(new.rhs, kit.rhs) and ordering == spec["ordering"]
        out.append(
            {
                "label": spec["label"],
                "computed": computed,
                "reference": spec["reference"],
                "matches": matches,
                "verdict": verdict,
                "chain_ok": chain_ok,
            }
        )
    return out


def _write(path, what, text):
    """Rewrite ``path`` in place with ``text``, then cut a regular file to its new
    length; a failure raises NumradError("cannot write <what>: ..."). Truncating
    first would make ext4 flush the old bytes at close (auto_da_alloc)."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise NumradError(f"cannot write {what}: {exc}") from None


def _cmd_certify(args):
    from .ensembles import EnsembleSpec
    from .suite import run_suite

    ensemble = EnsembleSpec(dim=args.dim, kind="generic", scale=1.0, seed=args.seed)
    report = run_suite(args.ineq, ensemble, args.trials, tol_rel=args.tol)
    for line in report.summary_lines():
        print(line)
    print(
        f"total: violated={report.total_violated} inconclusive={report.total_inconclusive} "
        f"wall={report.wall_time:.2f}s"
    )
    if args.report:
        _write(args.report, "report", report.to_csv() if args.format == "csv" else report.to_json())
        print(f"report written to {args.report} ({args.format})")
    return 2 if report.total_violated else 0


def _cmd_examples(args):
    rows = paper_examples()
    all_ok = True
    for row in rows:
        print(f"[{row['label']}]")
        for key, title in (("lhs", "||A+B||^2"), ("new", "new bound rhs"), ("kittaneh", "Kittaneh rhs")):
            ref, nd = row["reference"][key]
            shown = display_round(row["computed"][key], nd)
            ok = row["matches"][key]
            all_ok &= ok
            print(
                f"  {title:15s} computed {row['computed'][key]:.6f} "
                f"(displayed {shown:.{nd}f}) reference {ref:.{nd}f} "
                f"{'match' if ok else 'MISMATCH'}"
            )
        all_ok &= row["chain_ok"]
        print(f"  ordering verdict: {row['verdict']} ({'chain ok' if row['chain_ok'] else 'CHAIN BROKEN'})")
    return 0 if all_ok else 2


def _cmd_radius(args):
    try:
        A = load_matrix(args.matrix)
    except OSError as exc:
        raise NumradError(f"cannot read matrix: {exc}") from None
    try:
        res = numerical_radius(A, tol=args.tol)
        nrm = operator_norm(A)
    except OverflowError:
        raise NumradError("the numerical radius or the norm exceeds the float range") from None
    print(f"w(A)        = {res.value:.12g}")
    print(f"||A||       = {nrm:.12g}")
    print(f"theta*      = {res.theta_star:.12g}")
    print(f"upper       = {res.upper:.12g}")
    print(f"gap         = {res.refinement_width:.3g}")
    print("witness     = [" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in res.witness) + "]")
    ok = _leq(nrm / 2, res.value, _LINK_TOL) and _leq(res.left, nrm, _LINK_TOL)
    slacks = f"{res.value - nrm / 2:.3g}, {nrm - res.left:.3g}"
    print(f"sandwich ||A||/2 <= w <= ||A||: {'OK' if ok else 'FAIL'} (slacks {slacks})")
    return 0 if ok else 2


def _instance_document(ineq, inst, result):
    doc = {
        "ineq": ineq.value,
        "status": result.status.value,
        "lhs": result.lhs,
        "rhs": result.rhs,
        "slack": result.slack,
        "params": inst.params(),
        "matrices": {},
    }
    for name in ("A", "B", "X"):
        M = getattr(inst, name)
        if M is not None:
            doc["matrices"][name] = matrix_to_dict(M)
    if inst.vectors:
        doc["vectors"] = [_pairs(v) for tup in inst.vectors for v in tup]
    return doc


def _perturbed(inst, rng, sigma, kinds):
    """``inst`` with its matrices, a and b perturbed at step sigma; None if it
    has none. A matrix M moves to M + sigma Z, or, if ``kinds`` names it
    positive, to G M G* with G = I + sigma Z, which keeps it positive."""
    changes = {}
    for name in ("A", "B", "X"):
        M = getattr(inst, name)
        if M is not None:
            Z = sigma * complex_gaussian(rng, M.shape)
            if kinds.get(name) in ("positive", "positive-invertible"):
                G = np.eye(len(M)) + Z
                changes[name] = hermitian_part(G @ M @ adjoint(G))
            else:
                changes[name] = M + Z
    for name in ("a", "b"):
        val = getattr(inst, name)
        if val is not None:
            changes[name] = abs(float(val) * (1.0 + sigma * rng.standard_normal()))
    return dataclasses.replace(inst, **changes) if changes else None


def _descend(ineq, inst, result, rng):
    """Random descent from ``inst``: 30 perturbations, each kept when it lowers the slack."""
    from .catalog import MEMBERS, Status, evaluate

    kinds = getattr(MEMBERS[ineq].build, "kinds", {})  # a builder of its own names no kinds
    sigma = 0.1
    for _ in range(30):
        cand = _perturbed(inst, rng, sigma, kinds)
        if cand is None:
            break
        try:
            cand_result = evaluate(ineq, cand)
        except NumradError:
            sigma *= 0.6
            continue
        if cand_result.status is Status.NOT_APPLICABLE or not math.isfinite(cand_result.slack):
            sigma *= 0.6
            continue
        if cand_result.slack < result.slack:
            inst, result = cand, cand_result
            sigma *= 1.2
        else:
            sigma *= 0.6
    return inst, result


def _cmd_search(args):
    from .catalog import Status
    from .ensembles import EnsembleSpec
    from .suite import _kept_draws

    ineq = args.ineq
    ensemble = EnsembleSpec(dim=args.dim, kind="generic", scale=1.0, seed=args.seed)
    rng = stream_rng(args.seed, f"search:{ineq.value}")
    best = None
    try:
        for _, inst, result in _kept_draws(ineq, ensemble, max(args.restarts, 1)):
            if args.restarts:  # with --restarts 0, the first start is written as drawn
                inst, result = _descend(ineq, inst, result, rng)
            if best is None or result.slack < best[1].slack:
                best = (inst, result)
    except BudgetExhausted:
        if best is None:
            raise
    inst, result = best
    out_path = args.out or f"{ineq.value}-min-slack.json"
    _write(out_path, "instance", json.dumps(_instance_document(ineq, inst, result), indent=1, sort_keys=True) + "\n")
    print(f"{ineq.value}: min slack {result.slack:.6g} (status {result.status.value}) after {args.restarts} restarts")
    print(f"instance written to {out_path}")
    if result.status is Status.VIOLATED:
        print(
            f"error: {ineq.value}: slack {result.slack} went negative on a theorem member; "
            "this indicates an implementation bug",
            file=sys.stderr,
        )
        return 2
    return 0


def _member_id(text):
    """Parse one inequality id."""
    from .catalog import InequalityId

    try:
        return InequalityId(text.strip())
    except ValueError:
        valid = ", ".join(m.value for m in InequalityId)
        raise argparse.ArgumentTypeError(f"unknown inequality id {text.strip()!r}; valid ids: {valid}") from None


def _member_ids(text):
    """Parse comma-separated inequality ids, or 'all'."""
    from .catalog import InequalityId

    ids = list(InequalityId) if text.strip() == "all" else [_member_id(t) for t in text.split(",") if t.strip()]
    if not ids:
        raise argparse.ArgumentTypeError("no inequality id given")
    return ids


def _count(text):
    """Parse a flag that counts something: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text, positive=False):
    """Parse a tolerance flag: a finite float >= 0, or > 0 when ``positive``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 <= value < math.inf or (positive and value == 0):
        raise argparse.ArgumentTypeError(f"must be finite and {'> 0' if positive else '>= 0'}, got {text}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="numradlab", description=__doc__)
    # argparse converts a string default with the flag's type, so a malformed
    # value fails only the commands that take a seed, as a usage error
    default_seed = os.environ.get("NUMRAD_SEED", "0")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="run the inequality certification suite")
    cert.add_argument("--ineq", type=_member_ids, default="all", help="comma-separated inequality ids, or 'all'")
    cert.add_argument("--dim", type=int, default=4)
    cert.add_argument("--trials", type=_count, default=100)
    cert.add_argument("--seed", type=int, default=default_seed)
    cert.add_argument("--tol", type=_tolerance, default=_LINK_TOL)
    cert.add_argument("--report", default=None, help="path for the report file")
    cert.add_argument("--format", choices=("json", "csv"), default="json")
    cert.set_defaults(func=_cmd_certify)

    ex = sub.add_parser("examples", help="reproduce the hard-coded example pairs")
    ex.set_defaults(func=_cmd_examples)

    rad = sub.add_parser("radius", help="numerical radius of a matrix file")
    rad.add_argument("--matrix", required=True, help="matrix exchange document path")
    rad.add_argument("--tol", type=functools.partial(_tolerance, positive=True), default=1e-10)
    rad.set_defaults(func=_cmd_radius)

    sea = sub.add_parser("search", help="random-restart search for minimal slack")
    sea.add_argument("--ineq", type=_member_id, required=True, help="one inequality id")
    sea.add_argument("--dim", type=int, default=4)
    sea.add_argument("--restarts", type=_count, default=50)
    sea.add_argument("--seed", type=int, default=default_seed)
    sea.add_argument("--out", default=None, help="output instance path")
    sea.set_defaults(func=_cmd_search)
    return parser


@functools.lru_cache(maxsize=1)
def _cached_parser(seed_text):
    # build_parser reads NUMRAD_SEED, so a parser serves every call made
    # under the same value. Building one takes about a millisecond, a
    # noticeable share of a small certify request.
    return build_parser()


def main(argv=None) -> int:
    parser = _cached_parser(os.environ.get("NUMRAD_SEED", "0"))
    help_text = io.StringIO()  # argparse drops a failed write, so main writes the help
    try:
        try:
            with contextlib.redirect_stdout(help_text):
                args = parser.parse_args(argv)
        except SystemExit as exc:  # a usage error, or --help
            code = 1 if exc.code else 0
        else:
            code = args.func(args)
        if sys.stdout is None:  # descriptor 1 was closed at start
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(help_text.getvalue())
        sys.stdout.flush()  # an unwritable stdout fails here, inside the try, not at exit
        return code
    except OSError as exc:
        # commands turn their own file errors into NumradError, so this one is
        # stdout's: point it at devnull, so that the flush at exit stays silent
        if sys.stdout is not None:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except (NumradError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
