"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload is set up three times (``setup_s`` is the median), then its loop
runs for ``--seconds`` (and at least until every percentile has enough
samples), then every recorded answer is certified.

``--trace 1`` measures the per-layer metrics.  It runs a fixed number of
operations (set by the workload and ``--seconds``, never by timing, so the
exact counts repeat) traced on ``--seed``, each one right after the same
operation on an untraced twin, and then traced on a second seed derived
from it.  ``tracing.overhead_ratio`` compares the traced pass with its
twin; ``tracing.seed2_max_share_shift`` compares the layer shares of the
two seeds.

The line before the result is a provenance record: commit, source digest,
host, seed, run length, the sample count behind each metric and, for a
traced run, the full layer table of both seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
#: The loop stops at this many seconds even when percentiles are short of
#: samples, so a run ends well within its time limit.
LOOP_CAP_S = 120.0
#: Mixed into the seed of the second traced pass.
SECOND_SEED_OFFSET = 1_000_003


def _bootstrap() -> None:
    """Import the program under test from this checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {SRC / 'repro'} not found; run from a full checkout"
        )
    sys.path[:0] = [str(SRC), str(ROOT)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _windowed_p95(values: list[float], window: int) -> tuple[float, int]:
    """Median over consecutive full windows of each window's 95th percentile,
    and the number of samples in those windows.

    A burst of load from outside the process moves the tail of the windows
    it falls in; the median over windows keeps the tail the run typically
    saw instead of its worst burst.
    """
    import numpy as np

    windows = [values[i:i + window] for i in range(0, len(values) - window + 1, window)]
    return _median([float(np.percentile(w, 95)) for w in windows]), len(windows) * window


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "host": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
    }


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and every metric's name and unit."""
    return json.loads(SPEC_PATH.read_text())


def _metric_block(values: dict, metrics: list[dict]) -> dict:
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def run_end_to_end(name: str, seed: int, seconds: float, config, solver=None):
    """Set up, run the loop for ``seconds``, certify; ``(values, certifier, info)``."""
    from perfbench.certify import Certifier
    from perfbench.workloads import WORKLOADS

    certifier = Certifier()
    cls = WORKLOADS[name]
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = cls(seed, config, certifier, solver=solver)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    steps = 0
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= seconds and (workload.enough(steps) or certifier.failed):
            break
        if elapsed >= LOOP_CAP_S:
            break
        workload.step(steps)
        steps += 1
    loop_s = time.perf_counter() - loop_start
    workload.certify()
    workload.close()
    requests, queries = workload.request_s, workload.query_s
    p95, p95_samples = _windowed_p95(queries, config.query_window)
    values = {
        "setup_s": _median(setups),
        "request_ms_p50": _median(requests) * 1e3,
        "query_us_p50": _median(queries) * 1e6,
        "query_us_p95": p95 * 1e6,
        "requests_per_s": len(requests) / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "samples": {
            "setup_s": len(setups),
            "request_ms_p50": len(requests),
            "query_us_p50": len(queries),
            "query_us_p95": p95_samples,
            "requests_per_s": len(requests),
            "peak_rss_mb": 1,
        },
        "loop_s": loop_s,
        "setup_runs_s": setups,
    }
    return values, certifier, info


def trace_ops(name: str, seconds: float) -> int:
    """Operations per traced pass: fixed by the workload and ``seconds``."""
    if name == "cold-solve":  # one solve of each density per 40 s
        return max(2, 2 * round(seconds / 40))
    if name == "warm-query":
        return max(200, int(500 * seconds))
    return max(1, round(seconds / 10))


@dataclass
class TracedPass:
    workload: object
    tracer: object
    snapshot: dict
    store_delta: dict


def run_pass(name: str, seed: int, ops: int, config, certifier, twin: bool):
    """A traced pass of ``ops`` operations, certified afterwards.

    With ``twin``, each operation first runs on an untraced twin built from
    the same seed, so both see the same load from outside the process and
    their wall-time ratio is the tracing overhead.  Returns
    ``(TracedPass, twin workload or None)``.
    """
    from repro import telemetry

    from perfbench.tracer import LayerTracer, layer_patches
    from perfbench.workloads import WORKLOADS

    tracer = LayerTracer()
    collector = telemetry.TelemetryCollector()
    patches = layer_patches(tracer)
    workload = WORKLOADS[name](seed, config, certifier, tracer=tracer)
    plain = WORKLOADS[name](seed, config, certifier) if twin else None
    both = [w for w in (plain, workload) if w is not None]
    for each in both:
        each.setup()
    base = workload.store_stats().as_dict()
    try:
        for index in range(ops):
            if plain is not None:
                plain.step(index)
            with tracer.installed(patches), telemetry.collect(collector):
                workload.step(index)
        stats = workload.store_stats().as_dict()
        for each in both:
            each.certify()
    finally:
        for each in both:
            each.close()
    delta = {key: stats[key] - base[key] for key in stats}
    return TracedPass(workload, tracer, collector.snapshot(), delta), plain


def traced_values(run: TracedPass) -> dict:
    """Every per-layer metric of one traced pass."""
    from perfbench.tracer import layer_metrics

    workload = run.workload
    values = layer_metrics(run.tracer, run.snapshot)
    pool_wall = run.tracer.layers["service.jobs.pool"].wall_s
    pool_metrics = workload.pool_metrics()
    busy = pool_metrics["service.jobs.worker_busy_s"]
    values.update(pool_metrics)
    values.update({
        "sim_rounds": workload.sim_rounds(),
        "service.jobs.solver_invocations": workload.solver_invocations(),
        "service.jobs.pool_wall_s": pool_wall,
        "service.jobs.pool_utilisation": (
            busy / (workload.workers * pool_wall) if pool_wall else 0.0),
        **{f"service.store.{key}": run.store_delta[key]
           for key in ("hits", "misses", "disk_loads", "evictions")},
    })
    return values


def run_traced(name: str, seed: int, seconds: float, config):
    """Untraced, traced and second-seed traced passes; ``(values, certifier, info)``."""
    from perfbench.certify import Certifier
    from perfbench.tracer import LAYER_SELF_METRIC, ROUND_NAMES, shares

    certifier = Certifier()
    ops = trace_ops(name, seconds)
    main, plain = run_pass(name, seed, ops, config, certifier, twin=True)
    second_seed = seed + SECOND_SEED_OFFSET
    second, _ = run_pass(name, second_seed, ops, config, certifier, twin=False)

    values = traced_values(main)
    second_values = traced_values(second)
    additive = list(LAYER_SELF_METRIC.values())
    main_shares = shares({key: values[key] for key in additive})
    second_shares = shares({key: second_values[key] for key in additive})
    values["tracing.overhead_ratio"] = main.workload.busy_s / plain.busy_s
    values["tracing.seed2_max_share_shift"] = max(
        abs(main_shares[key] - second_shares[key]) for key in additive)
    if name == "cold-solve":  # the served rounds must equal the ledgers' total
        for pass_values in (values, second_values):
            ledger = sum(pass_values[f"congest.rounds.{c}"] for c in ROUND_NAMES)
            certifier.check(ledger == pass_values["sim_rounds"],
                            f"ledger rounds {ledger} != served rounds {pass_values['sim_rounds']}")
    info = {
        "ops_per_pass": ops,
        "untraced_busy_s": plain.busy_s,
        "traced_busy_s": main.workload.busy_s,
        "second_seed": second_seed,
        "layer_shares": main_shares,
        "second_seed_layer_shares": second_shares,
        "second_seed_values": second_values,
    }
    return values, certifier, info


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    _bootstrap()

    from perfbench.certify import self_check
    from perfbench.workloads import FULL, SMOKE

    config = SMOKE if args.smoke else FULL
    checker_ok = self_check()
    if args.trace:
        values, certifier, info = run_traced(args.workload, args.seed, args.seconds, config)
        metrics = _metric_block(values, spec["per_layer"])
    else:
        values, certifier, info = run_end_to_end(args.workload, args.seed, args.seconds, config)
        metrics = _metric_block(values, spec["end_to_end"])
    certifier.report()
    if not checker_ok:
        print("perfbench: the wrong-solver self-check was not counted as failed",
              file=sys.stderr)
    record = provenance(args.workload, args.seed, args.seconds, args.trace)
    record.update(info, self_check=checker_ok,
                  error_rate=certifier.failed / max(1, certifier.attempted))
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": checker_ok and certifier.failed == 0,
        "attempted": certifier.attempted,
        "failed": certifier.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
