"""Benchmark-harness helpers.

Each ``test_eN_*.py`` regenerates one experiment from DESIGN.md's index:
it sweeps the workload, prints the paper-shaped table, and times one
representative unit through the ``benchmark`` fixture so the whole suite
runs under ``pytest benchmarks/ --benchmark-only``.

The tables and metrics land under ``benchmarks/results/`` (the files
EXPERIMENTS.md cites) only on request — ``REPRO_WRITE_RESULTS=1`` — so a
plain test run checks every sweep and assertion but leaves the tracked
result files alone.  Regenerate them deliberately with::

    REPRO_WRITE_RESULTS=1 PYTHONPATH=src python -m pytest benchmarks
    python tools/bench_summary.py

Heavy experiments use ``benchmark.pedantic(..., rounds=1, iterations=1)``:
the sweep itself is the measurement; re-running it for timing statistics
would multiply minutes of simulation for no extra information.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from typing import Optional

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import report as telemetry_report

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Environment variable that opts a run into rewriting ``RESULTS_DIR``.
WRITE_RESULTS_ENV = "REPRO_WRITE_RESULTS"


def writing_results() -> bool:
    """Whether this run should persist its tables under ``RESULTS_DIR``."""
    return os.environ.get(WRITE_RESULTS_ENV) == "1"


@pytest.fixture(autouse=True)
def _bench_telemetry():
    """Run every benchmark under a telemetry collector.

    Strictly observational — counting generators are stream-identical and
    the bridged tracer only mirrors records, so the committed tables stay
    byte-identical (e17 asserts the overhead contract).  The collector is
    what lets :func:`write_metrics` attach the ``phase_breakdown`` column
    to every result row.

    Multi-process benchmarks report their workers' phases too: worker
    summaries shipped back by the :mod:`repro.parallel` dispatcher and the
    job engine land in this collector via
    :meth:`~repro.telemetry.collector.TelemetryCollector.merge_worker`,
    and :func:`~repro.telemetry.report.phase_breakdown` folds them into the
    per-phase totals — so a dispatched run's breakdown shows the search
    work itself, not just the parent's dispatch overhead.
    """
    with telemetry.collect() as collector:
        yield collector


def write_result(name: str, text: str) -> None:
    """Print an experiment's table; persist it under benchmarks/results/
    when :func:`writing_results` is on."""
    if not writing_results():
        print(f"\n{text}\n[not written: set {WRITE_RESULTS_ENV}=1]")
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def _git(*args: str) -> Optional[str]:
    """Standard output of a git command in this checkout, or ``None``
    outside a git checkout."""
    try:
        return subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def current_commit() -> str:
    """Short hash of HEAD, or "unknown" outside a git checkout."""
    return (_git("rev-parse", "--short", "HEAD") or "").strip() or "unknown"


def provenance() -> dict:
    """Where a result row came from.

    ``commit`` is HEAD; ``dirty`` says whether the checkout had uncommitted
    changes outside ``benchmarks/results/`` (the files a results run
    rewrites itself), so a row measured on a modified tree never passes
    for its commit's (omitted outside a git checkout); ``host`` is the
    fingerprint that makes timings comparable: cores, python, numpy.
    """
    stamp: dict = {
        "commit": current_commit(),
        "host": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    status = _git("status", "--porcelain", "--", ":/", ":(top,exclude)benchmarks/results")
    if status is not None:
        stamp["dirty"] = bool(status.strip())
    return stamp


def write_metrics(experiment: str, records: list[dict]) -> None:
    """Persist machine-readable metrics as ``results/<experiment>.json``.

    Each record carries the cross-PR diffable schema — ``experiment``,
    ``n``, ``wall_seconds``, ``rounds``, and the :func:`provenance` stamp
    (``commit``, ``dirty``, ``host``) — plus any extra keys the experiment
    finds useful; ``tools/bench_summary.py`` rolls every
    such file into ``BENCH_SUMMARY.json`` for trajectory diffs.

    When the ambient telemetry collector is live (the autouse
    ``_bench_telemetry`` fixture), every record additionally carries the
    test-so-far ``phase_breakdown`` — per-span wall/self seconds, RNG
    draws, and per-phase congest rounds (``repro.telemetry/v1``, validated
    by ``tools/bench_summary.py --check``).

    Writes nothing unless :func:`writing_results` is on.
    """
    if not writing_results():
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = provenance()
    breakdown = None
    collector = telemetry.active()
    if collector is not None:
        breakdown = telemetry_report.phase_breakdown(collector.snapshot())
    payload = [
        {
            "experiment": experiment,
            "n": record.get("n"),
            "wall_seconds": record.get("wall_seconds"),
            "rounds": record.get("rounds"),
            **stamp,
            **({"phase_breakdown": breakdown} if breakdown is not None else {}),
            **{
                key: value
                for key, value in record.items()
                if key not in ("n", "wall_seconds", "rounds")
            },
        }
        for record in records
    ]
    path = RESULTS_DIR / f"{experiment}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
