"""Problem definitions: FindEdges and FindEdgesWithPromise (Section 3).

A :class:`FindEdgesInstance` generalizes the paper's input ``(G, S)``
slightly: the *witness* graph (whose edges close triangles) and the *pair*
weights (the third edge of each queried pair) may come from different
matrices.  With both equal this is exactly the paper's problem; the split is
what makes Proposition 1's edge-sampled sub-instances well-defined (see
:func:`repro.graphs.triangles.witnessed_negative_pair_counts`).

Solvers implement the :class:`FindEdgesBackend` protocol; the library ships
three: the centralized reference (tests/ground truth), the classical Dolev
et al. triangle-listing baseline, and the paper's quantum algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, runtime_checkable

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.errors import GraphError, PromiseViolationError
from repro.graphs.digraph import UndirectedWeightedGraph
from repro.graphs.triangles import (
    witnessed_negative_pair_counts,
    witnessed_two_hop_min,
)

#: A pair set is a set of canonical (sorted) vertex-index tuples.
PairSet = set[tuple[int, int]]


def pair_mask(pairs: Iterable[tuple[int, int]], num_vertices: int) -> np.ndarray:
    """A pair collection as the canonical *pair mask*: the boolean
    ``(n, n)`` upper triangle with ``mask[a, b]`` set for each pair
    ``{a, b}``, ``a < b``.

    This is the one conversion at the public boundary — everything from the
    distance product through Step 3 passes pair masks.  Pairs may repeat or
    come in either orientation; a self-pair or an out-of-range endpoint
    raises :class:`GraphError` naming the pair as the caller wrote it.
    """
    arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    bad = (arr < 0).any(axis=1) | (arr >= num_vertices).any(axis=1)
    invalid = bad | (arr[:, 0] == arr[:, 1])
    if invalid.any():
        first = int(np.argmax(invalid))
        u, v = arr[first].tolist()
        reason = "out of range" if bad[first] else "is a self-pair"
        raise GraphError(f"scope pair ({u}, {v}) {reason}")
    mask = np.zeros((num_vertices, num_vertices), dtype=bool)
    mask[arr.min(axis=1), arr.max(axis=1)] = True
    return mask


def mask_pairs(mask: np.ndarray) -> PairSet:
    """The :data:`PairSet` of a pair mask (Python-int tuples)."""
    us, vs = np.nonzero(mask)
    return set(zip(us.tolist(), vs.tolist()))


@dataclass
class FindEdgesInstance:
    """An instance of FindEdges / FindEdgesWithPromise.

    Parameters
    ----------
    graph:
        The witness graph ``G`` — its edges provide the two witness sides
        ``{u, w}, {w, v}`` of each triangle.
    scope:
        The pair set ``S ⊆ P(V)`` — a :data:`PairSet` (converted once, by
        :func:`pair_mask`) or a pair mask, which is kept as given (not
        copied); ``None`` means "all edges of the pair graph" (the plain
        FindEdges problem).  After construction ``scope`` is ``None`` or
        the pair mask.
    pair_graph:
        Where the pair-edge weights ``f(u, v)`` are read from; defaults to
        ``graph``.  Proposition 1's loop passes the *sampled* graph as
        ``graph`` and the original graph here.
    """

    graph: UndirectedWeightedGraph
    scope: Optional[PairSet | np.ndarray] = None
    pair_graph: Optional[UndirectedWeightedGraph] = None

    def __post_init__(self) -> None:
        n = self.graph.num_vertices
        if (self.pair_graph or self.graph).num_vertices != n:
            raise GraphError("witness and pair graphs must have the same vertex set")
        if self.scope is None:
            return
        if not isinstance(self.scope, np.ndarray):
            self.scope = pair_mask(self.scope, n)
        elif (
            self.scope.dtype != bool
            or self.scope.shape != (n, n)
            or np.tril(self.scope).any()
        ):
            raise GraphError("a scope mask must be a boolean (n, n) strict upper triangle")

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def effective_pair_graph(self) -> UndirectedWeightedGraph:
        return self.pair_graph or self.graph

    def scope_mask(self) -> np.ndarray:
        """The scope as a pair mask, defaulting to all pair-graph edges."""
        if self.scope is not None:
            return self.scope
        return np.triu(np.isfinite(self.effective_pair_graph().weights), k=1)

    def effective_scope(self) -> PairSet:
        """The scope as a :data:`PairSet`, defaulting to all pair-graph edges."""
        return mask_pairs(self.scope_mask())

    def triangle_counts(self) -> np.ndarray:
        """Ground-truth ``Γ(u, v)`` matrix of this instance (asymmetric
        counting; centralized, for verification and promise checks)."""
        return witnessed_negative_pair_counts(
            self.graph.weights, self.effective_pair_graph().weights
        )

    def reference_mask(self) -> np.ndarray:
        """Ground-truth output as a pair mask: scope pairs with ``Γ(u, v) > 0``.

        Uses the two-hop min-plus existence test rather than full triangle
        counting (``Γ > 0 ⟺ min_w two-hop < −f(u, v)``) — the counts are
        only needed by the promise checks.
        """
        scope = self.scope_mask()
        found = np.zeros_like(scope)
        us, vs = np.nonzero(scope)
        if us.size:
            rows = np.unique(us)
            cols = np.unique(vs)
            two_hop = witnessed_two_hop_min(self.graph.weights, rows, cols)
            w = self.effective_pair_graph().weights[us, vs]
            hit = np.isfinite(w) & (
                two_hop[np.searchsorted(rows, us), np.searchsorted(cols, vs)] < -w
            )
            found[us[hit], vs[hit]] = True
        return found

    def reference_solution(self) -> PairSet:
        """Ground-truth output as a :data:`PairSet` (see :meth:`reference_mask`)."""
        return mask_pairs(self.reference_mask())

    def max_scope_triangle_count(self) -> int:
        """``max_{pair ∈ S} Γ(u, v)`` — the quantity the promise bounds."""
        scope = self.scope_mask()
        if not scope.any():
            return 0
        return int(self.triangle_counts()[scope].max())

    def check_promise(self, bound: float) -> None:
        """Raise :class:`PromiseViolationError` unless ``Γ(u, v) ≤ bound``
        for every scope pair."""
        worst = self.max_scope_triangle_count()
        if worst > bound:
            raise PromiseViolationError(
                f"promise violated: max Γ over scope is {worst} > bound {bound:.1f}"
            )


class FindEdgesSolution:
    """Output of a FindEdges solver.

    ``pairs`` is the set of scope pairs reported to lie in a negative
    triangle — passed as a :data:`PairSet` or, by the solvers that work on
    pair masks, as the pair mask itself; either form reads back through
    :attr:`pairs` and :meth:`pair_mask`, converted once on first use.
    ``rounds`` is the CONGEST-CLIQUE round charge, ``ledger`` the per-phase
    breakdown, and ``aborts`` counts randomized-protocol retries that
    aborted before one succeeded.
    """

    def __init__(
        self,
        pairs: PairSet | np.ndarray,
        rounds: float,
        ledger: Optional[RoundLedger] = None,
        aborts: int = 0,
        details: Optional[dict] = None,
    ) -> None:
        is_mask = isinstance(pairs, np.ndarray)
        self._pairs, self._mask = (None, pairs) if is_mask else (pairs, None)
        self.rounds, self.aborts = rounds, aborts
        self.ledger = RoundLedger() if ledger is None else ledger
        self.details = {} if details is None else details

    @property
    def pairs(self) -> PairSet:
        if self._pairs is None:
            self._pairs = mask_pairs(self._mask)
        return self._pairs

    def pair_mask(self, num_vertices: int) -> np.ndarray:
        """The reported pairs as a pair mask over ``num_vertices`` vertices."""
        if self._mask is None:
            self._mask = pair_mask(self._pairs, num_vertices)
        return self._mask

    def errors_against(self, instance: FindEdgesInstance) -> tuple[PairSet, PairSet]:
        """``(false_positives, false_negatives)`` against ground truth."""
        truth = instance.reference_solution()
        return (self.pairs - truth, truth - self.pairs)

    def is_correct_for(self, instance: FindEdgesInstance) -> bool:
        false_pos, false_neg = self.errors_against(instance)
        return not false_pos and not false_neg


@runtime_checkable
class FindEdgesBackend(Protocol):
    """Anything that solves FindEdges instances.

    Implementations must handle arbitrary ``Γ`` (no promise) — solvers built
    around FindEdgesWithPromise wrap themselves in Proposition 1's reduction
    to meet this contract.
    """

    def find_edges(self, instance: FindEdgesInstance) -> FindEdgesSolution:
        """Solve the instance."""
        ...
