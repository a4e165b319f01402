"""Smoke test of the repository benchmark at tiny sizes.

Every workload runs once untraced and once traced through the real command
line.  The test checks that every metric named in ``BENCHMARK.json`` is
emitted with its unit, that every answer is certified correct, that the
traced layer self times add up to the traced wall time, and that a
deliberately wrong solver is counted as failed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench.run import ROOT, SPEC_PATH, load_spec

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_meets_the_contract():
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate is 0
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["error_rate"] == 0.0
    assert set(provenance["host"]) >= {"nproc", "python", "numpy"}

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected]
    for metric in expected:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(metrics[metric["name"]]["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in metrics.values())
        assert set(provenance["samples"]) == set(metrics)
        return
    from perfbench.tracer import LAYER_SELF_METRIC

    wall = metrics["tracing.traced_wall_s"]["value"]
    parts = sum(metrics[name]["value"] for name in LAYER_SELF_METRIC.values())
    assert wall > 0 and parts == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert metrics["tracing.overhead_ratio"]["value"] > 0
    if workload == "warm-query":
        assert metrics["service.jobs.solver_invocations"]["value"] == 3  # set-up only
        assert metrics["core.find_edges.compute_pairs_calls"]["value"] == 0
    if workload == "cold-solve":
        assert metrics["core.find_edges.compute_pairs_calls"]["value"] > 0
        assert metrics["sim_rounds"]["value"] > 0


def test_exact_counts_repeat():
    """Two traced runs with one seed agree on every exact count."""
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "rounds", "words")]
    runs = []
    for _ in range(2):
        done = _run("--workload", "cold-solve", "--seed", "5", "--seconds", "0.5",
                    "--trace", "1", "--smoke")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({name: metrics[name]["value"] for name in counts})
    assert runs[0] == runs[1]


def test_wrong_solver_is_counted_as_failed():
    # In a child process: registering a solver is process-wide.
    script = (
        "import json, sys; sys.path[:0] = ['src', '.'];"
        "from perfbench import run; run._bootstrap();"
        "from perfbench.certify import WRONG_SOLVER, self_check;"
        "from perfbench.workloads import SMOKE;"
        "checked = self_check();"  # also registers WRONG_SOLVER
        "_, c, _ = run.run_end_to_end('cold-solve', 1, 0.2, SMOKE, solver=WRONG_SOLVER);"
        "print(json.dumps([checked, c.attempted, c.failed]))"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    checked, attempted, failed = json.loads(done.stdout.strip().splitlines()[-1])
    assert checked
    assert failed >= 1
    assert failed == attempted - 1  # every solve; only the repeat check passes


def test_fails_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = _run("--workload", "cold-solve", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
