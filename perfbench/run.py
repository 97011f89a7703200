"""numradlab benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload certify-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
reports the per-layer metrics of a traced run. Each metric is printed by
name with its unit, then the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.

The program is used from source (``src`` on ``PYTHONPATH``); every
measurement happens in a fresh interpreter started by this script, with one
BLAS thread and one caller in a closed loop.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, write_radius_inputs  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 9001  # kept out of tuning; confirmation runs of a claim use it
SETUP_SAMPLES = 5  # fresh interpreters per untraced run; setup_s is their median
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # the whole run, set-up included

# Host speed (README.md): reported times are scaled to the host state in
# which the worker's speed probe takes PROBE_REF_S, the fast state of the
# shared 2-core host the benchmark was tuned on.
PROBE_REF_S = 0.95e-3
PROBE_WINDOW_S = 0.3  # probes this close to a request describe its host state

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "radius.sweep_calls": "count",
    "radius.sweep_busy_s": "s",
    "radius.sphere_calls": "count",
    "radius.sphere_busy_s": "s",
    "radius.sphere_rows": "count",
    "radius.euclid_busy_s": "s",
    "ensembles.calls": "count",
    "ensembles.busy_s": "s",
    "ensembles.rng_streams": "count",
    "suite.self_s": "s",
    "suite.draws_per_check": "ratio",
    "suite.escalations": "count",
    "suite.member_max_s": "s",
    "catalog.evaluate_calls": "count",
    "catalog.self_s": "s",
    "catalog.hypothesis_busy_s": "s",
    "linalg.calls": "count",
    "linalg.busy_s": "s",
    "means.calls": "count",
    "means.busy_s": "s",
    "functions.jensen_busy_s": "s",
    "kernel.eig_calls": "count",
    "kernel.eig_matrices": "count",
    "kernel.eig_flops_computed": "flop",
    "kernel.busy_s": "s",
    "matio.busy_s": "s",
    "matio.bytes": "B",
    "report.busy_s": "s",
    "report.bytes": "B",
    "cli.busy_s": "s",
    "trace.overhead_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("NUMRAD_SEED", None)
    return env


def spawn(cfg, name, env, root, deadline):
    """Run one worker in a fresh interpreter and return its result document."""
    workdir = Path(cfg["workdir"])
    cfg = dict(cfg, out=str(workdir / f"{name}.out.json"))
    cfg_path = workdir / f"{name}.cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(cfg_path)],
            cwd=root, env=env, stdout=subprocess.DEVNULL, timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {name} did not finish in time") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {name} exited with code {proc.returncode}")
    return json.loads(Path(cfg["out"]).read_text(encoding="utf-8"))


def scaled_setup(doc):
    """setup_s in reference seconds, from the probes taken right after set-up."""
    return doc["setup_s"] * PROBE_REF_S / statistics.median(doc["setup_probe_s"])


def scaled_latencies(res):
    """Each request's time in reference seconds, from the probes around it."""
    at, durations = res["probe_at"], res["probe_s"]
    out = []
    for start, dt in zip(res["start"], res["lat"]):
        lo = bisect.bisect_left(at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(at, start + dt + PROBE_WINDOW_S)
        near = durations[lo:hi] or [durations[min(lo, len(durations) - 1)]]
        out.append(dt * PROBE_REF_S / statistics.median(near))
    return out


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of all order statistics. Request latencies cluster by
    request type, and a single order statistic jumps between clusters from
    run to run; the weighted mean moves smoothly."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n, sub = x.size, 64
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    mid = (np.arange(n * sub) + 0.5) / (n * sub)  # midpoint rule, `sub` points per order statistic
    logpdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    w = np.exp(logpdf - logpdf.max()).reshape(n, sub).sum(axis=1)
    return float(w @ x / w.sum())


def cycle_rates(res, lat):
    """Operations per second of each whole cycle."""
    ops, busy = {}, {}
    for cycle, n, dt in zip(res["cycle"], res["ops"], lat):
        ops[cycle] = ops.get(cycle, 0) + n
        busy[cycle] = busy.get(cycle, 0.0) + dt
    return [ops[c] / busy[c] for c in sorted(ops)]


def radius_cycles(workload, seconds):
    """Matrix cycles to generate: twice what the seed commit serves in ``seconds``."""
    return max(4, math.ceil(2.0 * seconds / workload.cycle_s))


def measure(args, root, workdir, deadline):
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    cfg = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "workdir": str(workdir)}
    if workload.kind == "radius":
        inputs = write_radius_inputs(workdir, workload, args.seed, radius_cycles(workload, args.seconds))
        cfg["inputs"] = str(workdir / "inputs.json")
        Path(cfg["inputs"]).write_text(json.dumps(inputs), encoding="utf-8")

    if args.trace:
        out_dir = root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload.name}.jsonl.gz"
        res = spawn(dict(cfg, mode="trace", spans=str(spans)), "trace", env, root, deadline)
        metrics = {name: (res["metrics"][name], unit) for name, unit in PER_LAYER_UNITS.items()}
        notes = [f"spans written to {spans.relative_to(root)}"]
        if res["missed_bindings"]:
            notes.append("tracer missed bindings: " + ", ".join(res["missed_bindings"]))
        if not res["outputs_match"]:
            notes.append("traced outputs differ from untraced outputs")
        correct = res["failed"] == 0 and res["outputs_match"] and not res["missed_bindings"]
    else:
        docs = [spawn(dict(cfg, mode="setup"), f"setup{i}", env, root, deadline) for i in range(SETUP_SAMPLES - 1)]
        res = spawn(dict(cfg, mode="run"), "run", env, root, deadline)
        docs.append(res)
        lat = scaled_latencies(res)
        rates = cycle_rates(res, lat)
        values = {
            "setup_s": statistics.median(scaled_setup(d) for d in docs),
            "ops_per_s": statistics.median(rates),
            "latency_p50_ms": 1000.0 * hd_quantile(lat, 0.5),
            "latency_p90_ms": 1000.0 * hd_quantile(lat, 0.9),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        raw = res["lat"]
        notes = [
            f"setup_s: median of {len(docs)} fresh interpreters",
            f"ops_per_s: median of {len(rates)} request cycles",
            f"latency: {len(lat)} requests",
            f"host speed: median probe {1e3 * statistics.median(res['probe_s']):.3f} ms "
            f"(reference {1e3 * PROBE_REF_S:.3f} ms, {len(res['probe_s'])} probes)",
            f"unscaled: setup_s {statistics.median(d['setup_s'] for d in docs):.6g} s, "
            f"ops_per_s {statistics.median(cycle_rates(res, raw)):.6g} 1/s, "
            f"latency_p50_ms {1000.0 * hd_quantile(raw, 0.5):.6g} ms, "
            f"latency_p90_ms {1000.0 * hd_quantile(raw, 0.9):.6g} ms",
        ]
        correct = res["failed"] == 0
    return res, metrics, notes, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}; held-out {HELDOUT_SEED}")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "numradlab" / "__init__.py").is_file():
        print("perfbench: no src/numradlab here; run from the root of a numradlab checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work_root = root / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        res, metrics, notes, correct = measure(args, root, workdir, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    attempted, failed = res["total_ops"], res["failed"]
    print("environment: " + json.dumps(res["environment"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, failed_frac {failed / attempted:.6g}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
