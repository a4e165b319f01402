"""Proposition 2: distance products from negative-triangle detection.

Vassilevska Williams and Williams' reduction: to compute
``C = A ⋆ B`` build, for a guess matrix ``D``, the tripartite graph with
``f(i, k) = A[i, k]``, ``f(j, k) = B[k, j]`` and ``f(i, j) = −D[i, j]``;
then ``{i, j}`` lies in a negative triangle iff ``C[i, j] < D[i, j]``
(Equation 1).  Binary-searching every entry of ``D`` simultaneously pins
down every ``C[i, j]`` with ``O(log M)`` FindEdges calls.

An initial call with ``D ≡ 2M + 1`` separates the ``+∞`` entries (no
``k``-path at all) from the finite ones, which are then bisected inside
``[−2M, 2M]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.core.problems import FindEdgesBackend, FindEdgesInstance
from repro.errors import GraphError
from repro.graphs.generators import tripartite_from_matrices

NEG_SENTINEL = float("-inf")


@dataclass
class DistanceProductReport:
    """Outcome of one Proposition-2 distance product."""

    product: np.ndarray
    rounds: float
    find_edges_calls: int
    ledger: RoundLedger = field(default_factory=RoundLedger)
    aborts: int = 0


def _validate_operand(matrix: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphError(f"{name} must be square")
    if np.isnan(arr).any() or np.isneginf(arr).any():
        raise GraphError(f"{name} must be over Z ∪ {{+inf}}")
    finite = arr[np.isfinite(arr)]
    if finite.size and not np.array_equal(finite, np.round(finite)):
        raise GraphError(f"{name} entries must be integers")
    return arr


def distance_product_via_find_edges(
    a: np.ndarray,
    b: np.ndarray,
    backend: FindEdgesBackend,
) -> DistanceProductReport:
    """Compute ``A ⋆ B`` with ``O(log M)`` calls to a FindEdges solver.

    ``backend`` must solve the *unrestricted* FindEdges problem (the
    triangle counts of the constructed graphs are unbounded; promise-only
    solvers must be wrapped in Proposition 1 first, as
    :class:`repro.core.find_edges.QuantumFindEdges` does).
    """
    a = _validate_operand(a, "A")
    b = _validate_operand(b, "B")
    if a.shape != b.shape:
        raise GraphError(f"operand shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    finite_values = np.concatenate(
        [a[np.isfinite(a)].ravel(), b[np.isfinite(b)].ravel()]
    )
    max_abs = float(np.abs(finite_values).max()) if finite_values.size else 0.0
    bound = int(max_abs)

    ledger = RoundLedger()
    total_rounds = 0.0
    calls = 0
    aborts = 0

    def run_call(d_matrix: np.ndarray, active: np.ndarray) -> np.ndarray:
        """One FindEdges call over the scope pairs ``(i, n + j)`` selected by
        ``active``; returns the solution pairs as a boolean ``(n, n)`` mask."""
        nonlocal total_rounds, calls, aborts
        graph = tripartite_from_matrices(a, b, d_matrix)
        scope = np.zeros((3 * n, 3 * n), dtype=bool)
        scope[:n, n:2 * n] = active
        solution = backend.find_edges(FindEdgesInstance(graph, scope=scope))
        calls += 1
        total_rounds += solution.rounds
        aborts += solution.aborts
        ledger.merge(solution.ledger, prefix=f"product.call{calls}.")
        return solution.pair_mask(3 * n)[:n, n:2 * n]

    # Phase 1: +∞ detection.  C[i, j] is finite iff it is < 2M + 1.
    d0 = np.full((n, n), float(2 * bound + 1))
    finite_mask = run_call(d0, np.ones((n, n), dtype=bool))

    # Phase 2: bisection over [−2M, 2M] for finite entries.
    lo = np.full((n, n), float(-2 * bound))
    hi = np.full((n, n), float(2 * bound + 1))
    while True:
        active = finite_mask & (hi - lo > 1)
        if not active.any():
            break
        mid = np.floor((lo + hi) / 2.0)
        d_matrix = np.where(active, mid, NEG_SENTINEL)
        below_mask = run_call(d_matrix, active)
        hi = np.where(active & below_mask, mid, hi)
        lo = np.where(active & ~below_mask, mid, lo)

    product = np.where(finite_mask, lo, np.inf)
    return DistanceProductReport(
        product=product,
        rounds=total_rounds,
        find_edges_calls=calls,
        ledger=ledger,
        aborts=aborts,
    )
