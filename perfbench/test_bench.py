"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

They start traced benchmark runs, so they take about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402
from workloads import WORKLOADS, check_certify, check_radius, make_matrix  # noqa: E402

EXACT = ("calls", "rows", "streams", "escalations", "draws_per_check", "bytes", "eig_matrices", "eig_flops_computed")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_tracer_replaces_every_binding():
    import numradlab
    from numradlab import catalog, cli, radius

    original = radius.numerical_radius
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        # bound by `from .radius import numerical_radius` in these modules
        for mod in (catalog, cli, numradlab):
            assert mod.numerical_radius.__wrapped__ is original
        assert len(package_modules()) > 10
    finally:
        tracer.uninstall()
    assert catalog.numerical_radius is original and radius.numerical_radius is original
    assert not hasattr(numradlab.operator_norm, "__wrapped__")


def test_output_checks_reject_wrong_results():
    import numpy as np

    report = {
        "config": {"dim": 3, "seed": 5, "trials": 4},
        "records": [{"ineq": "power-mix", "holds": 4, "violated": 0, "inconclusive": 0, "notes": ["escalations: 2"]}],
    }
    assert check_certify(json.dumps(report), "power-mix", 3, 4, 5) == (0, 2)
    report["records"][0].update(holds=3, violated=1)
    assert check_certify(json.dumps(report), "power-mix", 3, 4, 5) == (1, 2)
    assert check_certify(json.dumps(report), "power-mix", 3, 4, 6)[0] == 4
    assert check_certify("not json", "power-mix", 3, 4, 5)[0] == 4

    from numradlab.linalg import operator_norm
    from numradlab.radius import numerical_radius

    for kind in ("generic", "normal", "square-zero"):
        A, ref = make_matrix(np.random.default_rng(1), kind, 6)
        res = numerical_radius(A, tol=1e-10)
        nrm = operator_norm(A)
        assert check_radius(ref, A, res.value, res.witness, nrm)
        assert not check_radius(ref, A, res.value * (1 + 1e-6), res.witness, nrm)
        assert not check_radius(ref, A, res.value, 2 * res.witness, nrm)
        assert not check_radius(ref, A, res.value, res.witness, nrm * 1.001)


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_reproduce_outputs_and_counts(workload):
    """`correct` in a traced run requires the traced pass to reproduce the
    untraced pass's certify reports byte for byte (radius outputs bit for
    bit); counts must repeat exactly across two traced runs."""
    first = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    second = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(PER_LAYER_UNITS)
    exact = [name for name in PER_LAYER_UNITS if name.split(".", 1)[1].endswith(EXACT)]
    assert len(exact) >= 15
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["radius.sweep_calls"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    result = last_json(bench("--workload", "certify-desk", "--seed", "4", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
