"""Acceptance gate: every criterion runs at its stated tolerance and reports
one pass/fail line in the terminal summary."""

import time

import numpy as np

import conftest
from numradlab import cli
from numradlab.catalog import InequalityId
from numradlab.cli import display_round, paper_examples
from numradlab.ensembles import EnsembleSpec, sample
from numradlab.linalg import hermitian_part, operator_norm
from numradlab.means import weighted_geometric
from numradlab.radius import complex_gaussian, numerical_radius, quad_forms, stream_rng
from numradlab.suite import run_suite
from oracles import SphereSampler, sphere_sup


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def test_criterion_1_example_pair_one():
    t0 = time.perf_counter()
    row = paper_examples()[0]
    elapsed = time.perf_counter() - t0
    shown = {k: display_round(row["computed"][k], nd) for k, (_, nd) in row["reference"].items()}
    ok = (
        shown["lhs"] == 14.52
        and shown["new"] == 29.58
        and shown["kittaneh"] == 25.28
        and row["computed"]["lhs"] < row["computed"]["kittaneh"] < row["computed"]["new"]
        and elapsed < 1.0
    )
    assert _report(
        "criterion 1: example pair 1 reproduces 14.52 / 29.58 / 25.28 with lhs < Kittaneh < new",
        ok,
        f"{shown['lhs']} / {shown['new']} / {shown['kittaneh']}, {elapsed:.2f}s",
    )


def test_criterion_2_example_pair_two():
    t0 = time.perf_counter()
    row = paper_examples()[1]
    elapsed = time.perf_counter() - t0
    shown = {k: display_round(row["computed"][k], nd) for k, (_, nd) in row["reference"].items()}
    ok = (
        shown["lhs"] == 17.94
        and shown["new"] == 25.4
        and shown["kittaneh"] == 29.44
        and row["computed"]["lhs"] < row["computed"]["new"] < row["computed"]["kittaneh"]
        and elapsed < 1.0
    )
    assert _report(
        "criterion 2: example pair 2 reproduces 17.94 / 25.4 / 29.44 with lhs < new < Kittaneh",
        ok,
        f"{shown['lhs']} / {shown['new']} / {shown['kittaneh']}, {elapsed:.2f}s",
    )


def test_criterion_3_soundness_suite():
    t0 = time.perf_counter()
    violated = 0
    inconclusive = 0
    stray_inconclusive = 0
    for dim in (2, 3, 5, 8):
        ens = EnsembleSpec(dim=dim, kind="generic", scale=1.0, seed=1000 + dim)
        rep = run_suite(list(InequalityId), ens, trials=1000, tol_rel=1e-8)
        violated += rep.total_violated
        inconclusive += rep.total_inconclusive
        capable = {"refined-convexity", "improved-convex-product", "hosseini-geo", "hosseini-geo-norms"}
        stray_inconclusive += sum(r.inconclusive for r in rep.records if r.ineq not in capable)
    elapsed = time.perf_counter() - t0
    ok = violated == 0 and inconclusive == 0 and stray_inconclusive == 0 and elapsed < 120.0
    assert _report(
        "criterion 3: 29 members x 1000 trials x dims {2,3,5,8}: zero violated, "
        "zero inconclusive, < 2 min",
        ok,
        f"violated={violated} inconclusive={inconclusive} wall={elapsed:.1f}s",
    )


def test_criterion_4_radius_oracles():
    rng = stream_rng(2024, "crit4")
    worst_gap = 0.0
    for k in range(100):
        n = 2 + k % 3
        A = complex_gaussian(rng, (n, n))
        w = numerical_radius(A).value
        val, _ = sphere_sup(lambda X: np.abs(quad_forms(A, X)), n, SphereSampler(seed=9000 + k))
        worst_gap = max(worst_gap, abs(w - val))
    worst_normal = 0.0
    worst_nil = 0.0
    for dim in (2, 3, 5, 8):
        normal = EnsembleSpec(dim=dim, kind="normal", seed=40 + dim)
        nil = EnsembleSpec(dim=dim, kind="square-zero", seed=50 + dim)
        for i in range(25):
            N = sample(normal, i)
            worst_normal = max(
                worst_normal,
                abs(numerical_radius(N).value - float(np.max(np.abs(np.linalg.eigvals(N))))),
            )
            S = sample(nil, i)
            worst_nil = max(worst_nil, abs(numerical_radius(S).value - operator_norm(S) / 2))
    ok = worst_gap <= 1e-6 and worst_normal <= 1e-8 and worst_nil <= 1e-8
    assert _report(
        "criterion 4: sweep vs sphere <= 1e-6 (100 matrices), normal and square-zero oracles <= 1e-8",
        ok,
        f"gap={worst_gap:.2e} normal={worst_normal:.2e} nilpotent={worst_nil:.2e}",
    )


def test_criterion_5_kernel_quality():
    # the eigendecomposition that the functional calculus and the means run
    rng = stream_rng(2025, "crit5")
    worst_resid = 0.0
    worst_unit = 0.0
    for n in (2, 5, 16, 64):
        H = hermitian_part(complex_gaussian(rng, (n, n)))
        lam, V = np.linalg.eigh(H)
        worst_resid = max(worst_resid, np.linalg.norm(H @ V - V * lam, 2))
        worst_unit = max(worst_unit, np.linalg.norm(V.conj().T @ V - np.eye(n), 2))
    worst_riccati = 0.0
    for k in range(100):
        n = 2 + k % 7
        G = complex_gaussian(rng, (n, n))
        A = hermitian_part(G.conj().T @ G) + 0.05 * np.eye(n)
        G = complex_gaussian(rng, (n, n))
        B = hermitian_part(G.conj().T @ G) + 0.05 * np.eye(n)
        X = weighted_geometric(A, B, 0.5)
        worst_riccati = max(worst_riccati, np.linalg.norm(X @ np.linalg.inv(A) @ X - B, 2))
    ok = worst_resid <= 1e-10 and worst_unit <= 1e-10 and worst_riccati <= 1e-8
    assert _report(
        "criterion 5: eigen residual/unitarity <= 1e-10 up to dim 64; Riccati residual <= 1e-8",
        ok,
        f"resid={worst_resid:.2e} unit={worst_unit:.2e} riccati={worst_riccati:.2e}",
    )


def test_criterion_6_scalar_suites():
    rng = stream_rng(2026, "crit6")
    a = rng.uniform(0.1, 10.0, size=10_000)
    b = a * np.exp(rng.uniform(0.05, 2.0, size=10_000) * rng.choice([-1.0, 1.0], size=10_000))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    m = lo + rng.uniform(0.05, 0.45, size=10_000) * (hi - lo)
    M = lo + rng.uniform(0.55, 0.95, size=10_000) * (hi - lo)
    amgm_slack = (a + b) / 2 - (M + m) / (2 * np.sqrt(M * m)) * np.sqrt(a * b)
    a2 = rng.uniform(0.1, 10.0, size=10_000)
    b2 = rng.uniform(0.1, 10.0, size=10_000)
    lo2, hi2 = np.minimum(a2, b2), np.maximum(a2, b2)
    h = hi2 / lo2
    gammas = 1.0 / (1.0 - (1.0 - 1.0 / h) ** 2 / 8.0)
    gamma_slack = (a2 + b2) / 2 - gammas * np.sqrt(a2 * b2)
    ok = amgm_slack.min() >= -1e-12 and gamma_slack.min() >= -1e-12
    assert _report(
        "criterion 6: refined AM-GM and gamma scalar bounds on 10^4 draws, slack >= -1e-12",
        ok,
        f"amgm_min={amgm_slack.min():.2e} gamma_min={gamma_slack.min():.2e}",
    )


def test_criterion_7_deterministic_reports(tmp_path):
    args = [
        "certify",
        "--ineq",
        "norm-sandwich,hosseini-geo,scalar-refined-amgm",
        "--dim",
        "3",
        "--trials",
        "40",
        "--seed",
        "19",
    ]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    c1 = cli.main(args + ["--report", str(p1)])
    c2 = cli.main(args + ["--report", str(p2)])
    identical = p1.read_bytes() == p2.read_bytes()
    ok = c1 == 0 and c2 == 0 and identical
    assert _report(
        "criterion 7: identical certify flags produce byte-identical reports",
        ok,
        f"bytes={p1.stat().st_size}",
    )
