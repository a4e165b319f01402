"""Shared-memory columnar scale-out plane.

A sweep of many small graphs is embarrassingly parallel: every graph is an
independent solve.  :func:`solve_weights_batch` stacks the weight matrices
into a :class:`ShmArena` — named ``multiprocessing.shared_memory`` blocks
described by a picklable manifest — and a :class:`ClassDispatcher` farms
contiguous chunks of graphs to a persistent worker pool whose workers attach
the arena once and read and write the columns zero-copy.

Determinism contract: graph ``i`` is solved with seed ``seed + i``, so a
sweep is byte-identical to the in-process path regardless of worker count.
"""

from __future__ import annotations

from repro.parallel.arena import ArenaEntry, ArenaManifest, LocalArena, ShmArena, shm_available
from repro.parallel.dispatch import ClassDispatcher, default_workers
from repro.parallel.sweeps import BatchSolveResult, solve_weights_batch

__all__ = [
    "ArenaEntry",
    "ArenaManifest",
    "BatchSolveResult",
    "ClassDispatcher",
    "LocalArena",
    "ShmArena",
    "default_workers",
    "shm_available",
    "solve_weights_batch",
]
