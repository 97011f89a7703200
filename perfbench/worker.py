"""One benchmark process: set-up, timed closed loop, or traced pass.

Run by ``run.py`` in a fresh interpreter as ``python3 perfbench/worker.py
CONFIG.json``; the config names the mode, workload, seed, seconds, a scratch
directory and the output path. ``src`` must be on ``PYTHONPATH``.

Modes:
  setup  import numradlab and serve the first warm-up request; report the
         set-up time.
  run    set-up and the rest of the warm-up cycle, then whole request cycles
         until ``seconds`` have passed and at least MIN_REQUESTS requests
         were served; report latencies, throughput, failures, peak memory.
  trace  set-up and warm-up, then the same fixed cycles twice: untraced,
         then traced. Reports per-layer metrics, the tracing overhead, and
         whether the traced pass reproduced the untraced outputs exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    MIN_REQUESTS,
    RADIUS_TOL,
    WORKLOADS,
    certify_schedule,
    check_certify,
    check_radius,
    request_seed,
    trace_cycles,
)


class CertifyClient:
    """Issues ``numradlab certify`` one member per request through cli.main."""

    def __init__(self, cfg, workload):
        from numradlab import cli
        from numradlab.catalog import InequalityId

        self.cli = cli  # looked up per call, so an installed tracer sees it
        self.workload = workload
        self.seed = cfg["seed"]
        self.report = str(Path(cfg["workdir"]) / "report.json")
        self.members = [m.value for m in InequalityId]
        self.console = io.StringIO()

    def requests(self, cycle):
        seed = request_seed(self.seed, cycle)
        return [(m, d, seed) for m, d in certify_schedule(self.workload, self.members)]

    def serve(self, request):
        """Returns (seconds, operations, failed operations, output, escalations)."""
        member, dim, seed = request
        trials = self.workload.trials
        argv = ["certify", "--ineq", member, "--dim", str(dim), "--trials", str(trials),
                "--seed", str(seed), "--report", self.report, "--format", "json"]
        self.console.seek(0)
        self.console.truncate()
        with contextlib.redirect_stdout(self.console):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash fails every check of the request
                code = repr(exc)
            dt = time.perf_counter() - t0
        if code != 0:
            return dt, trials, trials, None, 0
        text = Path(self.report).read_text(encoding="utf-8")
        failed, escalations = check_certify(text, member, dim, trials, seed)
        return dt, trials, failed, text, escalations


class RadiusClient:
    """Serves exchange-format matrix files the way ``numradlab radius`` does."""

    def __init__(self, cfg, workload):
        from numradlab import linalg, matio, radius

        self.linalg, self.matio, self.radius = linalg, matio, radius  # looked up per call
        self.warm = cfg["inputs"]["warmup"]
        self.cycles = cfg["inputs"]["cycles"]

    def requests(self, cycle):
        if cycle < 0:
            return self.warm
        # More cycles than were generated only happens on a far faster program;
        # the matrices then repeat from the first cycle.
        return self.cycles[cycle % len(self.cycles)]

    def serve(self, ref):
        t0 = time.perf_counter()
        try:
            A = self.matio.load_matrix(ref["path"])
            res = self.radius.numerical_radius(A, tol=RADIUS_TOL)
            nrm = self.linalg.operator_norm(A)
        except Exception:  # a crash fails the request
            return time.perf_counter() - t0, 1, 1, None, 0
        dt = time.perf_counter() - t0
        ok = check_radius(ref, A, res.value, res.witness, nrm)
        output = (res.value, res.theta_star, res.witness.tobytes(), res.refinement_width, nrm)
        return dt, 1, 0 if ok else 1, output, 0


class SpeedProbe:
    """A fixed piece of reference work, timed between requests.

    Its durations let ``run.py`` express request times in seconds of a
    reference host state (see README.md, "Host speed"). The work mixes
    interpreter arithmetic, small-array numpy calls and small and mid-sized
    Hermitian eigensolves, the kinds of work numradlab's time splits into.
    It calls plain numpy only, so changes to numradlab cannot move it.
    """

    EVERY_S = 0.1

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)

        def gaussian(n):
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        self.np = np
        self.small, self.mid = gaussian(8), gaussian(48)
        self.mid = self.mid + self.mid.conj().T
        self.phases = np.exp(1j * np.linspace(0.0, 6.0, 64))
        self.eigvalsh = np.linalg.eigvalsh  # bound before any tracer is installed
        self.times, self.durations = [], []

    def sample(self, count=1):
        np, B = self.np, self.small
        for _ in range(count):
            t0 = time.perf_counter()
            acc = 0
            for i in range(5000):
                acc += i * i
            for _ in range(15):
                H = (B + B.conj().T) / 2
                np.einsum("ij,ij->i", B.conj(), (H @ B).T)
                np.linalg.norm(self.phases[:, None] * H[0])
                self.eigvalsh(H)
            self.eigvalsh(self.mid)
            self.times.append(t0)
            self.durations.append(time.perf_counter() - t0)

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S:
            self.sample()


def run_cycles(client, cycles=None, seconds=0.0, tracer=None, probe=None, keep_outputs=False):
    """Serve ``cycles`` whole cycles, or, when ``cycles`` is None, whole cycles
    until ``seconds`` have passed and MIN_REQUESTS requests were served."""
    res = {"lat": [], "start": [], "cycle": [], "ops": [], "outputs": []}
    failed = escalations = 0
    t_begin = time.perf_counter()
    cycle = 0
    while cycles is None or cycle < cycles:
        for request in client.requests(cycle):
            if probe is not None:
                probe.maybe_sample()
            if tracer is not None:
                tracer.request = len(res["lat"]) + 1
            start = time.perf_counter()
            dt, n, bad, out, esc = client.serve(request)
            for key, value in zip(("lat", "start", "cycle", "ops"), (dt, start, cycle, n)):
                res[key].append(value)
            if keep_outputs:
                res["outputs"].append(out)
            failed += bad
            escalations += esc
        cycle += 1
        if cycles is None and time.perf_counter() - t_begin >= seconds and len(res["lat"]) >= MIN_REQUESTS:
            break
    if probe is not None:
        probe.sample()
    res.update(failed=failed, escalations=escalations, total_ops=sum(res["ops"]), busy=sum(res["lat"]))
    return res


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(config_path):
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    seconds = float(cfg["seconds"])
    workload = WORKLOADS[cfg["workload"]]
    if "inputs" in cfg:  # the benchmark's own data; read before the set-up clock starts
        cfg["inputs"] = json.loads(Path(cfg["inputs"]).read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    import numradlab  # noqa: F401  (the set-up clock covers this import)

    client = (CertifyClient if workload.kind == "certify" else RadiusClient)(cfg, workload)
    first, *rest = client.requests(-1)  # the warm-up cycle
    client.serve(first)
    out = {"setup_s": time.perf_counter() - t0}
    if cfg["mode"] != "trace":
        probe = SpeedProbe()
        probe.sample(6)
        out["setup_probe_s"] = probe.durations[1:]  # the first call pays one-time costs
    if cfg["mode"] != "setup":
        for request in rest:
            client.serve(request)

    if cfg["mode"] == "run":
        res = run_cycles(client, seconds=seconds, probe=probe)
        out.update({k: res[k] for k in ("lat", "start", "cycle", "ops", "failed", "total_ops")})
        out.update(probe_at=probe.times, probe_s=probe.durations)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["environment"] = environment()
    elif cfg["mode"] == "trace":
        from tracer import Tracer

        cycles = trace_cycles(workload, seconds)
        plain = run_cycles(client, cycles, keep_outputs=True)
        tracer = Tracer()
        tracer.install()
        try:
            missed = tracer.unwrapped_bindings()
            traced = run_cycles(client, cycles, tracer=tracer, keep_outputs=True)
        finally:
            tracer.uninstall()
        checks = traced["total_ops"] if workload.kind == "certify" else 0
        metrics = tracer.layer_metrics(checks)
        metrics["suite.escalations"] = traced["escalations"]
        metrics["trace.overhead_frac"] = 1.0 - plain["busy"] / traced["busy"]
        tracer.write_spans(cfg["spans"])
        out.update(
            {
                "metrics": metrics,
                "total_ops": plain["total_ops"] + traced["total_ops"],
                "failed": plain["failed"] + traced["failed"],
                "missed_bindings": missed,
                "outputs_match": plain["outputs"] == traced["outputs"],
                "environment": environment(),
            }
        )
    Path(cfg["out"]).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
