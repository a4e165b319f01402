"""Sweep-level scale-out: batch per-graph solves over a shared weight arena.

The sweep granularity is the second embarrassingly-parallel axis: a 10k-graph
sweep is 10k independent solves.  :func:`solve_weights_batch` stacks all
weight matrices into one arena column, splits the graph index range into
contiguous chunks, and has each worker solve its chunk writing distances and
round counts into writable output columns in disjoint slices — no result
pickling either direction.

Determinism: each graph ``i`` gets a fresh solver seeded ``seed + i``, so the
output is invariant to chunking and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.graphs.digraph import WeightedDigraph
from repro.parallel.dispatch import ClassDispatcher

_WEIGHTS = "sweep.weights"
_DISTANCES = "sweep.distances"
_ROUNDS = "sweep.rounds"

#: Chunks per worker: enough to even out per-chunk solve-time variance
#: without paying per-task dispatch overhead on every graph.
_CHUNKS_PER_WORKER = 4


@dataclass
class BatchSolveResult:
    """Stacked outputs of a batch solve: one slab per graph."""

    distances: np.ndarray  # (num_graphs, n, n) float64
    rounds: np.ndarray  # (num_graphs,) float64
    solver: str
    workers: int


def _solve_chunk_task(arena, spec: dict) -> dict:
    """Solve graphs ``[lo, hi)`` from the arena into its output columns."""

    from repro.service.solvers import make_solver

    weights = arena[_WEIGHTS]
    distances = arena.writable(_DISTANCES)
    rounds = arena.writable(_ROUNDS)
    options = spec["options"]
    for index in range(spec["lo"], spec["hi"]):
        solver = make_solver(spec["solver"], replace(options, seed=options.seed + index))
        outcome = solver.solve(WeightedDigraph(weights[index]))
        distances[index] = outcome.distances
        rounds[index] = outcome.rounds
    return {"lo": spec["lo"], "hi": spec["hi"]}


def solve_weights_batch(
    weights: np.ndarray,
    *,
    solver: str = "floyd-warshall",
    options=None,
    workers: Optional[int] = None,
    dispatcher: Optional[ClassDispatcher] = None,
) -> BatchSolveResult:
    """Solve every graph in the ``(G, n, n)`` weight stack, in parallel.

    ``dispatcher`` reuses an existing pool; otherwise one is created for
    ``workers`` (``None`` → :func:`~repro.parallel.dispatch.default_workers`)
    and shut down before returning.  Graphs must be free of negative cycles
    (use ``random_digraph_no_negative_cycle``-style generators); a solver
    raising propagates out of the batch.
    """

    from repro.service.solvers import SolveOptions

    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.ndim != 3 or weights.shape[1] != weights.shape[2]:
        raise ValueError(f"weights must be (num_graphs, n, n), got {weights.shape}")
    num_graphs, n, _ = weights.shape
    if options is None:
        options = SolveOptions()
    owned = dispatcher is None
    if owned:
        dispatcher = ClassDispatcher(workers)
    try:
        arena = dispatcher.make_arena(
            {
                _WEIGHTS: weights,
                _DISTANCES: np.zeros((num_graphs, n, n), dtype=np.float64),
                _ROUNDS: np.zeros(num_graphs, dtype=np.float64),
            }
        )
        try:
            num_chunks = max(1, min(num_graphs, dispatcher.max_workers * _CHUNKS_PER_WORKER))
            bounds = np.linspace(0, num_graphs, num_chunks + 1).astype(np.int64)
            specs = [
                {"lo": int(lo), "hi": int(hi), "solver": solver, "options": options}
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            dispatcher.map_arena(_solve_chunk_task, arena, specs)
            distances = np.array(arena[_DISTANCES], copy=True)
            rounds = np.array(arena[_ROUNDS], copy=True)
        finally:
            arena.dispose()
    finally:
        if owned:
            dispatcher.shutdown()
    return BatchSolveResult(
        distances=distances,
        rounds=rounds,
        solver=solver,
        workers=dispatcher.max_workers,
    )
