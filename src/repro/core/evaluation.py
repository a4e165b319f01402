"""Evaluation procedures for the Step-3 quantum searches (Figures 4 and 5).

The quantum searches of ComputePairs query, for a pair ``{u, v}`` and a fine
block ``w``, whether some ``w ∈ w`` closes a negative triangle — i.e.
whether ``min_{w∈w}(f(u, w) + f(w, v)) < −f(u, v)``.  (The paper's
Inequality (2) prints this test as ``min ≤ f(u, v)``; the negative-triangle
definition it is checking — ``f(u,v) + f(u,w) + f(w,v) < 0`` — requires the
strict ``< −f(u, v)`` form, which is what this implementation uses.)

Two pieces live here:

* :func:`block_two_hop` — the node-local computation performed by the triple
  node ``(u, v, w)`` from the weights it gathered in Step 1.  In the
  simulator this is evaluated directly from the instance's weight matrix;
  it is byte-identical to what the triple nodes would compute and costs no
  rounds (local computation is free in the model).
* the **round costs** of one application of the evaluation procedure:
  :func:`fig4_eval_rounds` for class ``α = 0`` and :func:`fig5_eval_rounds`
  for ``α > 0`` (with the bandwidth-duplication labeling
  ``Tα × [2^α / (720·log n)]``).  These compute the exact Lemma-1 charge of
  the procedure's message pattern: each search node sends each queried pair
  (2 vertex ids + 1 weight = 3 words) to the responsible (duplicated) triple
  node, per-destination loads capped at ``β`` pairs by the typicality
  truncation, and the answers (1 word per pair) flow back — "with the same
  complexity as Step 1" (Fig. 4), hence the factor 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.congest.partitions import CliquePartitions
from repro.congest.router import route_rounds
from repro.core.constants import PaperConstants

#: Words per queried pair in the forward direction: two endpoint ids and the
#: pair weight (Fig. 4 Step 1: "together to each pair sent, its weight").
PAIR_QUERY_WORDS = 3
#: Words per answer in the backward direction (one bit, one-word granularity).
PAIR_ANSWER_WORDS = 1


def block_two_hop(
    weights: np.ndarray,
    block_u: np.ndarray,
    block_v: np.ndarray,
    fine_blocks: Sequence[np.ndarray],
) -> np.ndarray:
    """``H[a, b, w] = min_{w ∈ fine_blocks[w]} (weights[u_a, w] + weights[w, v_b])``.

    The slice of two-hop min-plus values the triple nodes ``(u, v, ·)``
    jointly hold after Step 1 of ComputePairs, one layer per fine block.
    Shape ``(len(block_u), len(block_v), len(fine_blocks))``; entries are
    ``+inf`` where no witness path exists.
    """
    layers = np.empty((len(fine_blocks), len(block_u), len(block_v)))
    rows_u = weights[block_u]
    cols_v = weights[:, block_v]
    for index, fine in enumerate(fine_blocks):
        left = rows_u[:, fine].T                    # (|w|, |u|)
        right = cols_v[fine]                        # (|w|, |v|)
        # (|w|, |u|, 1) + (|w|, 1, |v|) → min over the leading witness axis,
        # a reduction over contiguous (|u|, |v|) slabs.
        np.min(left[:, :, None] + right[:, None, :], axis=0, out=layers[index])
    return layers.transpose(1, 2, 0)


def duplication_count(constants: PaperConstants, n: int, alpha: int) -> int:
    """Size of the duplication index set ``[2^α / (720 log n)]`` for class
    ``α`` (Section 5.3.2), at least 1.  The ``720 log n`` denominator uses
    the same (scaled) constant as Lemma 4 so that ``|Tα| × duplication ≤ n``
    keeps holding under the scale knob."""
    if alpha == 0:
        return 1
    denom = constants.class_bound_factor * constants.scale * constants.log_n(n)
    return max(1, int(round((2.0 ** alpha) / denom)))


@dataclass(frozen=True)
class QueryPlan:
    """Columnar form of one class's evaluation query plan.

    One row per (search node, destination) entry — the unit the historical
    dict-of-dicts plan (`query_plan[src_label][dst_label] = pairs`, preserved
    in :func:`repro.core._reference.step3_query_plan_dicts`) stored as a
    Python dict entry.  ``src_phys``/``dst_phys`` are the entry's *physical*
    hosts (label positions already reduced mod ``n``), ``pair_counts`` the
    number of queried pairs, all ``int64`` columns; loads reduce with one
    ``np.bincount`` per direction and the β-cap is one ``np.minimum``.
    """

    src_phys: np.ndarray
    dst_phys: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self) -> None:
        for name in ("src_phys", "dst_phys", "pair_counts"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, column)
        if not (self.src_phys.shape == self.dst_phys.shape == self.pair_counts.shape):
            raise ValueError("QueryPlan columns must align")
        if self.src_phys.ndim != 1:
            raise ValueError("QueryPlan columns must be 1-D")

    def __len__(self) -> int:
        return int(self.src_phys.size)

    @classmethod
    def from_mappings(
        cls,
        node_physical: Mapping[object, int],
        query_plan: Mapping[object, Mapping[object, int]],
        dest_physical: Mapping[object, int],
    ) -> "QueryPlan":
        """Columnarize a dict-of-dicts plan (the reference/interop path —
        tests and the preserved loop forms speak this shape)."""
        src: list[int] = []
        dst: list[int] = []
        counts: list[int] = []
        for src_label, destinations in query_plan.items():
            src_phys = int(node_physical[src_label])
            for dst_label, num_pairs in destinations.items():
                src.append(src_phys)
                dst.append(int(dest_physical[dst_label]))
                counts.append(int(num_pairs))
        return cls(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
        )


def query_loads(
    num_nodes: int, plan: QueryPlan, beta_pairs: float
) -> tuple[np.ndarray, np.ndarray]:
    """Source/destination word loads of one forward evaluation delivery.

    Per-destination pair counts are capped at ``β`` by the typicality
    truncation (`np.minimum`) before conversion to words; the per-physical-
    node histograms are one ``np.bincount`` per direction — byte-identical
    to the dict walk preserved in
    :func:`repro.core._reference.query_loads_dicts`.
    """
    capped = np.minimum(plan.pair_counts, int(np.ceil(beta_pairs)))
    np.maximum(capped, 0, out=capped)
    words = (PAIR_QUERY_WORDS * capped).astype(np.float64)
    src_load = np.bincount(plan.src_phys, weights=words, minlength=num_nodes)
    dst_load = np.bincount(plan.dst_phys, weights=words, minlength=num_nodes)
    return src_load.astype(np.int64), dst_load.astype(np.int64)


def evaluation_rounds(num_nodes: int, plan: QueryPlan, beta_pairs: float) -> float:
    """Round cost of one application of the evaluation procedure.

    Forward (queries) plus backward (answers); the backward direction moves
    ``PAIR_ANSWER_WORDS / PAIR_QUERY_WORDS`` as many words along the reversed
    pattern, which Lemma 1 charges at most as much as the forward direction,
    so the paper's "same complexity" is charged as a second forward cost.
    """
    src_load, dst_load = query_loads(num_nodes, plan, beta_pairs)
    one_way = route_rounds(num_nodes, src_load, dst_load)
    return 2.0 * one_way


def step0_duplication_loads(
    num_nodes: int,
    src_phys: np.ndarray,
    dst_phys: np.ndarray,
    size_words: np.ndarray,
) -> float:
    """Round cost of Fig. 5's Step 0: every class-``α`` triple node
    broadcasts its Step-1 data to its duplicate labels (once per class, not
    per oracle call — the duplicated data is classical and static).

    One row per (source triple, duplicate) entry: ``src_phys[i]`` ships
    ``size_words[i]`` words to ``dst_phys[i]``; rows whose duplicate is
    hosted on the source's own physical node are free (one mask), and the
    loads are two ``np.bincount`` histograms — the dict walk survives as
    :func:`repro.core._reference.step0_duplication_loads_dicts`.
    """
    src_phys = np.asarray(src_phys, dtype=np.int64)
    dst_phys = np.asarray(dst_phys, dtype=np.int64)
    words = np.asarray(size_words, dtype=np.float64)
    moved = src_phys != dst_phys
    src_load = np.bincount(src_phys[moved], weights=words[moved], minlength=num_nodes)
    dst_load = np.bincount(dst_phys[moved], weights=words[moved], minlength=num_nodes)
    return route_rounds(num_nodes, src_load.astype(np.int64), dst_load.astype(np.int64))
