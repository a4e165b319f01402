"""Certification of every answer the benchmark times, done outside the timing.

A closure must pass :func:`repro.analysis.validate_apsp` and equal
:func:`repro.floyd_warshall` exactly; a ``dist`` answer must equal the
oracle closure; a ``path`` must run from ``u`` to ``v`` with
:func:`repro.path_weight` equal to the distance (``None`` exactly when
``v`` is unreachable).  Failures are counted against the operations
attempted, never dropped.

:data:`WRONG_SOLVER` is a solver registered through
:func:`repro.service.register_solver` that returns a closure one unit short
on one entry; :func:`self_check` proves that both the certifier and the
serving path count it as failed.
"""

from __future__ import annotations

import math
import sys
import traceback
from typing import Optional

import numpy as np

from repro import floyd_warshall, path_weight, random_digraph_no_negative_cycle, validate_apsp
from repro.errors import ReproError
from repro.service import (
    QueryEngine,
    SolveOutcome,
    SolverCapabilities,
    available_solvers,
    register_solver,
)

WRONG_SOLVER = "perfbench-wrong"

#: How many failure descriptions a certifier keeps for the error report.
MAX_REASONS = 5


class Certifier:
    """Counts certified operations and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(what)
        return ok

    def fail(self, what: str, error: BaseException) -> None:
        """Count an operation that raised instead of answering."""
        frame = traceback.extract_tb(error.__traceback__)[-1]
        self.check(False, f"{what}: {type(error).__name__}: {error} "
                          f"({frame.filename}:{frame.lineno})")

    def closure(self, graph, distances: np.ndarray) -> np.ndarray:
        """Check a served closure; returns the oracle closure."""
        oracle = floyd_warshall(graph)
        ok = validate_apsp(graph, distances).valid and np.array_equal(distances, oracle)
        self.check(ok, f"closure of an n={graph.num_vertices} graph")
        return oracle

    def dist(self, oracle: np.ndarray, u: int, v: int, value: float) -> None:
        self.check(value == oracle[u, v], f"dist({u}, {v}) = {value}, expected {oracle[u, v]}")

    def path(self, graph, oracle: np.ndarray, u: int, v: int, path: Optional[list]) -> None:
        expected = oracle[u, v]
        if path is None:
            ok = math.isinf(expected)
        else:
            ok = (
                len(path) >= 1
                and path[0] == u
                and path[-1] == v
                and not math.isinf(expected)
                and _weight(graph, path) == expected
            )
        self.check(ok, f"path({u}, {v}) = {path}, expected weight {expected}")

    def report(self, stream=sys.stderr) -> None:
        for reason in self.reasons:
            print(f"perfbench: failed: {reason}", file=stream)


def _weight(graph, path: list) -> float:
    try:
        return path_weight(graph.weights, path)
    except ReproError:  # the path uses a missing edge
        return math.nan


class _WrongSolver:
    """Floyd–Warshall with one finite off-diagonal distance lowered by 1."""

    name = WRONG_SOLVER
    capabilities = SolverCapabilities(
        rounds_accounted=False, description="deliberately wrong (benchmark self-check)"
    )

    def __init__(self, options) -> None:
        self.options = options

    def solve(self, graph) -> SolveOutcome:
        return SolveOutcome(distances=wrong_closure(graph), rounds=0.0, solver=self.name)


def wrong_closure(graph) -> np.ndarray:
    distances = floyd_warshall(graph).copy()
    finite = np.isfinite(distances) & ~np.eye(graph.num_vertices, dtype=bool)
    u, v = np.argwhere(finite)[0]
    distances[u, v] -= 1.0
    return distances


def register_wrong_solver() -> None:
    if WRONG_SOLVER not in available_solvers():
        register_solver(WRONG_SOLVER, _WrongSolver, capabilities=_WrongSolver.capabilities)


def self_check() -> bool:
    """True when a wrong closure is counted as failed both by the certifier
    and when served through :class:`QueryEngine`."""
    register_wrong_solver()
    graph = random_digraph_no_negative_cycle(6, density=0.8, rng=0)
    certifier = Certifier()
    certifier.closure(graph, wrong_closure(graph))
    try:
        served = QueryEngine(solver=WRONG_SOLVER).ensure_solved(graph)
    except ReproError as error:
        certifier.fail("wrong solver", error)
    else:
        certifier.closure(graph, served.distances)
    return certifier.attempted == 2 and certifier.failed == 2
