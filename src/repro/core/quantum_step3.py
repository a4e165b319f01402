"""Step 3 of Algorithm ComputePairs: the quantum searches (Section 5.3).

For every class ``α``, every search node ``(u, v, x)`` runs one quantum
search per kept pair over the domain ``X = Tα[u, v]`` — "is there a fine
block ``w`` of class ``α`` containing a witness ``w`` that closes a negative
triangle with this pair?".  All searches across all nodes advance in
lockstep because each Grover iteration is one application of the *global*
evaluation procedure (Figure 4 for ``α = 0``, Figure 5 with bandwidth
duplication for ``α > 0``); the network-wide round charge of a phase is
therefore the shared iteration schedule's cost, with the evaluation round
cost measured from the procedure's actual message pattern.

Since PR 5 the per-class accounting and lane setup are pure index
arithmetic, end to end:

* the search labels, their pair counts and their physical hosts live in one
  :class:`_SearchArrays` column set (label positions resolved in bulk by
  ``SchemeView.positions_of_array``);
* the per-node domains are the CSR of
  :meth:`~repro.core.identify_class.ClassAssignment.domain_csr` —
  label offsets plus flat fine-block ids, no per-label dict;
* the Fig. 4/5 query plan is a columnar
  :class:`~repro.core.evaluation.QueryPlan` built by ``repeat``/``stack``
  over the CSR (duplication destinations via
  ``ProductLabels.positions_of``), with loads reduced by ``np.bincount``;
* the per-node searches register in bulk:
  :meth:`repro.quantum.batched.BatchedMultiSearch.add_lanes` consumes a
  padded 3-D witness-table stack (built in cache-sized chunks), and one
  batched seed column seeds the class's batch generator.

The per-label dict forms survive in :mod:`repro.core._reference`
(``run_step3_loops`` and friends) and ``tests/test_step3_equivalence.py``
property-tests the two drivers byte-identical — rounds, per-node loads,
RNG streams, and found pairs.

The per-node searches are simulated by one
:class:`repro.quantum.batched.BatchedMultiSearch` per class — every search
node is a lane of the same lockstep schedule, with the typicality machinery
of Theorem 3 (``β = 800 · 2^α · √n · log n``) enforced per lane exactly as
the per-label :class:`repro.quantum.multisearch.MultiSearch` runs did:
solution sets that overload one block (Lemma 3 failing) are truncated
exactly as ``C̃_m`` would, and Lemma 5's fidelity penalty is injected per
repetition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.congest.gridops import expand_ranges
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions, ProductLabels
from repro.core.constants import PaperConstants
from repro.core.evaluation import (
    QueryPlan,
    duplication_count,
    evaluation_rounds,
    step0_duplication_loads,
)
from repro.core.identify_class import ClassAssignment
from repro.errors import NetworkError
from repro import telemetry
from repro.quantum.amplitude import max_iterations
from repro.quantum.batched import BatchedMultiSearch
from repro.util.mathutil import guarded_log
from repro.util.rng import ensure_rng

#: Per-node search payload: canonical pairs (k, 2), their weights (k,) and
#: their witness truth table over all fine blocks (k, num_fine).
NodePairs = Mapping[tuple[int, int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]

#: Element budget of one padded witness-table chunk handed to
#: ``BatchedMultiSearch.add_lanes`` — keeps the (lanes, max_m, max_X) bool
#: stack (and the nnz-sized CSR outputs derived from it) cache-resident
#: instead of materializing one class-wide block.
_LANE_CHUNK_CELLS = 1 << 20


def found_pair_set(
    found_chunks: Sequence[np.ndarray], num_vertices: int
) -> set[tuple[int, int]]:
    """The distinct ``(a, b)`` rows of a class's found-pair chunks.

    Many lanes find the same pair, so the rows are collapsed through a flat
    ``a·n + b`` boolean mask before any Python tuple is built (``tolist``
    yields Python ints, so the tuples match per-pair adds).  The mask is
    linear in ``n²`` and sort-free, unlike ``np.unique(axis=0)``.
    """
    if not found_chunks:
        return set()
    found = np.concatenate(found_chunks).reshape(-1, 2)
    seen = np.zeros(num_vertices * num_vertices, dtype=bool)
    seen[found[:, 0] * num_vertices + found[:, 1]] = True
    keys = np.flatnonzero(seen)
    return set(zip((keys // num_vertices).tolist(), (keys % num_vertices).tolist()))


@dataclass
class Step3Report:
    """Diagnostics of the search phase."""

    found_pairs: set[tuple[int, int]] = field(default_factory=set)
    eval_rounds_per_alpha: dict[int, float] = field(default_factory=dict)
    search_rounds_per_alpha: dict[int, float] = field(default_factory=dict)
    duplication_per_alpha: dict[int, int] = field(default_factory=dict)
    typicality_truncations: int = 0
    corrupted_repetitions: int = 0
    total_searches: int = 0


@dataclass
class _SearchArrays:
    """Columnar view of the search labels: one row per ``node_pairs`` key
    (in dict order — the order every per-label loop used), with the pair
    counts and the labels' physical hosts resolved in bulk."""

    keys: list
    components: np.ndarray   # (L, 3) int64 label rows
    num_pairs: np.ndarray    # (L,) kept pairs per label
    physical: np.ndarray     # (L,) physical host of each search label

    @classmethod
    def build(cls, network: CongestClique, node_pairs: NodePairs) -> "_SearchArrays":
        keys = list(node_pairs)
        components = np.asarray(keys, dtype=np.int64).reshape(len(keys), 3)
        num_pairs = np.fromiter(
            (len(node_pairs[key][0]) for key in keys),
            dtype=np.int64,
            count=len(keys),
        )
        view = network.scheme("search")
        positions = view.positions_of_array(components)
        return cls(keys, components, num_pairs, positions % view.num_nodes)


class _TripleArrays:
    """Lazily built columnar view of the class assignment: the triple label
    rows (in ``assignment.classes`` dict order, which fixes the duplication
    schemes' label order), their class values, and their positions in the
    triple scheme."""

    def __init__(self, network: CongestClique, assignment: ClassAssignment) -> None:
        self._network = network
        self._assignment = assignment
        self._built = False
        self.rows: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.positions: np.ndarray | None = None
        self.scheme_size = 0

    def ensure(self) -> "_TripleArrays":
        if not self._built:
            classes = self._assignment.classes
            self.rows = np.asarray(list(classes.keys()), dtype=np.int64).reshape(
                len(classes), 3
            )
            self.values = np.fromiter(
                classes.values(), dtype=np.int64, count=len(classes)
            )
            view = self._network.scheme("triple")
            self.positions = view.positions_of_array(self.rows)
            self.scheme_size = len(view)
            self._built = True
        return self


def run_step3(
    network: CongestClique,
    partitions: CliquePartitions,
    constants: PaperConstants,
    assignment: ClassAssignment,
    node_pairs: NodePairs,
    *,
    rng=None,
    search_mode: str = "quantum",
    amplification: float = 12.0,
) -> Step3Report:
    """Execute Step 3 and return the union of detected pairs.

    ``node_pairs[(bu, bv, x)] = (pairs, weights, witness_table)`` where
    ``witness_table[ℓ, w]`` says whether fine block ``w`` contains a witness
    for pair ``ℓ`` — the truth tables the evaluation procedure would compute
    (see the simulation contract in :mod:`repro.quantum.distributed`).

    ``search_mode`` selects ``"quantum"`` (Grover, ``O(√|X|)`` evaluations)
    or ``"classical"`` (linear scan over ``X``, ``|X|`` evaluations) — the
    latter is the ablation baseline quantifying exactly where the quantum
    speedup enters.

    Each class's searches advance off one batch generator seeded from a
    per-lane seed column (see :mod:`repro.quantum.batched`); the schedule
    and the seed column are both drawn from ``rng``.
    """
    if search_mode not in ("quantum", "classical"):
        raise ValueError(f"unknown search_mode {search_mode!r}")
    generator = ensure_rng(rng)
    report = Step3Report()
    arrays = _SearchArrays.build(network, node_pairs)
    triples = _TripleArrays(network, assignment)

    for alpha in sorted(set(assignment.classes.values())):
        with telemetry.span("step3.class", alpha=alpha, mode=search_mode):
            _run_class(
                network,
                partitions,
                constants,
                assignment,
                node_pairs,
                arrays,
                triples,
                alpha,
                report,
                generator,
                search_mode,
                amplification,
            )
    return report


def class_query_plan(
    network: CongestClique,
    arrays: _SearchArrays,
    domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    beta: float,
    dup: int,
    *,
    prefix_of: np.ndarray | None = None,
) -> QueryPlan:
    """The class's evaluation query plan as columnar index arithmetic.

    Per search label with kept pairs and a non-empty domain, one row per
    destination: every fine block of the label's domain (times ``dup``
    duplicates for ``α > 0``, destinations resolved through ``prefix_of``,
    the triple-position → duplication-prefix map).  ``per_dest`` is the
    Fig. 4 pair budget ``min(num_pairs, ⌈β⌉)``, split ``⌈per_dest/dup⌉``
    per duplicate by Fig. 5.  The dict-of-dicts form survives as
    :func:`repro.core._reference.step3_query_plan_dicts`.
    """
    counts, offsets, flat_blocks = domain_csr
    queried = (counts > 0) & (arrays.num_pairs > 0)
    per_dest = np.minimum(arrays.num_pairs[queried], int(np.ceil(beta)))
    queried_counts = counts[queried]
    flat_ix = expand_ranges(offsets[:-1][queried], queried_counts)
    dest_rows = np.stack(
        [
            np.repeat(arrays.components[queried, 0], queried_counts),
            np.repeat(arrays.components[queried, 1], queried_counts),
            flat_blocks[flat_ix],
        ],
        axis=1,
    )
    triple_positions = network.scheme("triple").positions_of_array(dest_rows)
    entry_src = np.repeat(arrays.physical[queried], queried_counts)
    if dup > 1:
        if prefix_of is None:
            raise NetworkError("duplicated query plan needs the prefix map")
        prefixes = prefix_of[triple_positions]
        if prefixes.size and int(prefixes.min()) < 0:
            raise NetworkError("domain block outside the duplication scheme")
        share = np.maximum(1, -(-per_dest // dup))
        dup_positions = (
            prefixes[:, None] * dup + np.arange(dup, dtype=np.int64)[None, :]
        ).ravel()
        return QueryPlan(
            np.repeat(entry_src, dup),
            dup_positions % network.num_nodes,
            np.repeat(np.repeat(share, queried_counts), dup),
        )
    return QueryPlan(
        entry_src,
        triple_positions % network.num_nodes,
        np.repeat(per_dest, queried_counts),
    )


def _class_prelude(
    network: CongestClique,
    partitions: CliquePartitions,
    constants: PaperConstants,
    assignment: ClassAssignment,
    arrays: _SearchArrays,
    triples: _TripleArrays,
    alpha: int,
    report: Step3Report,
) -> tuple | None:
    """Network-coupled prep of one class.

    Builds the domain CSR, registers the duplication scheme and charges the
    Fig. 5 Step-0 replication, and prices one oracle application.  Returns
    ``(domain_csr, in_domain, beta, eval_r)``, or ``None`` when no label has
    a populated domain (rounds recorded as zero, nothing charged).
    """
    n = partitions.num_vertices
    beta = constants.eval_beta(n, alpha)
    dup = duplication_count(constants, n, alpha)
    report.duplication_per_alpha[alpha] = dup

    # Per-node search domains for this class, as one CSR over the labels.
    counts, offsets, flat_blocks = assignment.domain_csr(
        arrays.components[:, 0], arrays.components[:, 1], alpha,
        partitions.num_coarse,
    )
    in_domain = counts > 0
    if not in_domain.any():
        report.eval_rounds_per_alpha[alpha] = 0.0
        report.search_rounds_per_alpha[alpha] = 0.0
        return None

    # --- destination labels (duplicated triple nodes) and Step 0 charge ---
    # Positions and physical hosts are pure arithmetic off the scheme views;
    # no Node (or per-label dict entry) is materialized for any of this.
    prefix_of: np.ndarray | None = None
    if dup > 1:
        cls = triples.ensure()
        alpha_sel = cls.values == alpha
        alpha_rows = cls.rows[alpha_sel]
        alpha_positions = cls.positions[alpha_sel]
        dup_labels = ProductLabels(alpha_rows, dup)
        network.register_scheme(f"step3_dup_alpha{alpha}", dup_labels)
        # Fig. 5 Step 0: replicate the Step-1 data to the duplicates (once).
        size_u = partitions.coarse.max_block_size
        size_w = partitions.fine.max_block_size
        words = size_u * size_w * 2  # F_uw plus F_wv
        num_alpha = int(alpha_positions.size)
        dup_positions = dup_labels.positions_of(
            np.repeat(np.arange(num_alpha, dtype=np.int64), dup),
            np.tile(np.arange(dup, dtype=np.int64), num_alpha),
        )
        step0 = step0_duplication_loads(
            network.num_nodes,
            np.repeat(alpha_positions % network.num_nodes, dup),
            dup_positions % network.num_nodes,
            np.full(dup_positions.size, words, dtype=np.int64),
        )
        network.charge_local(f"step3.alpha{alpha}.duplication", step0)
        prefix_of = np.full(cls.scheme_size, -1, dtype=np.int64)
        prefix_of[alpha_positions] = np.arange(num_alpha, dtype=np.int64)

    # --- evaluation round cost of one oracle application -----------------
    plan = class_query_plan(
        network, arrays, (counts, offsets, flat_blocks), beta, dup,
        prefix_of=prefix_of,
    )
    eval_r = evaluation_rounds(network.num_nodes, plan, beta)
    # An oracle application always costs at least one round of interaction.
    eval_r = max(eval_r, 1.0)
    report.eval_rounds_per_alpha[alpha] = eval_r
    return (counts, offsets, flat_blocks), in_domain, beta, eval_r


def _run_class(
    network: CongestClique,
    partitions: CliquePartitions,
    constants: PaperConstants,
    assignment: ClassAssignment,
    node_pairs: NodePairs,
    arrays: _SearchArrays,
    triples: _TripleArrays,
    alpha: int,
    report: Step3Report,
    generator,
    search_mode: str,
    amplification: float,
) -> None:
    prelude = _class_prelude(
        network, partitions, constants, assignment, arrays, triples,
        alpha, report,
    )
    if prelude is None:
        return
    (counts, offsets, flat_blocks), in_domain, beta, eval_r = prelude

    # --- the searches ------------------------------------------------------
    if search_mode == "classical":
        _run_class_classical(
            network, node_pairs, arrays, (counts, offsets, flat_blocks),
            in_domain, alpha, eval_r, report, partitions.num_vertices,
        )
        return

    max_domain = int(counts[in_domain].max())
    max_m = int(arrays.num_pairs[in_domain].max())
    cap = max_iterations(max_domain + 1)
    repetitions = max(
        1, int(np.ceil(amplification * guarded_log(max(max_m, 2))))
    )
    schedule = generator.integers(0, cap + 1, size=repetitions).tolist()

    # One batched run for the whole class: every search node is a lane of
    # the same lockstep schedule, and the lane seed column (one batched
    # draw, one seed per lane) seeds the class's batch generator.  The
    # padded witness-table stacks are built in cache-sized chunks and
    # registered through add_lanes.
    lane_indices = np.nonzero(in_domain & (arrays.num_pairs > 0))[0]
    seeds = np.empty(0, dtype=np.int64)
    if lane_indices.size:
        seeds = generator.integers(0, 2**63 - 1, size=lane_indices.size)
    batched = BatchedMultiSearch(
        batch_rng=seeds, beta=beta, eval_rounds=eval_r,
        amplification=amplification,
    )
    lane_pairs = register_class_lanes(
        batched, arrays, node_pairs, (counts, offsets, flat_blocks),
        lane_indices,
    )

    phase_rounds = 0.0
    found_chunks: list[np.ndarray] = []
    for pairs, result in zip(lane_pairs, batched.run(schedule).values()):
        report.total_searches += int(result.found.size)
        report.typicality_truncations += result.typicality.truncated_entries
        report.corrupted_repetitions += result.corrupted_repetitions
        phase_rounds = max(phase_rounds, result.rounds)
        found = pairs[result.found_mask()]
        if found.size:
            found_chunks.append(found)
    report.found_pairs.update(
        found_pair_set(found_chunks, partitions.num_vertices)
    )
    # All nodes search in the same (global) rounds: the phase costs the
    # longest node schedule, not the sum.
    network.charge_local(f"step3.alpha{alpha}.search", phase_rounds)
    report.search_rounds_per_alpha[alpha] = phase_rounds


def register_class_lanes(
    batched: BatchedMultiSearch,
    arrays: _SearchArrays,
    node_pairs: NodePairs,
    domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    lane_indices: np.ndarray,
) -> list[np.ndarray]:
    """Register the class's search lanes in bulk, chunk by chunk.

    Each chunk's padded ``(lanes, max_m, max_X)`` witness-table stack stays
    within the ``_LANE_CHUNK_CELLS`` budget (cache-resident instead of one
    class-wide block) and goes through
    :meth:`~repro.quantum.batched.BatchedMultiSearch.add_lanes`.  Returns each lane's kept-pair array,
    aligned with registration order (exposed for e15's lane-setup timing).
    """
    counts, offsets, flat_blocks = domain_csr
    lane_items = counts[lane_indices]
    lane_searches = arrays.num_pairs[lane_indices]
    lane_pairs: list[np.ndarray] = []
    start = 0
    while start < lane_indices.size:
        stop = _chunk_stop(lane_items, lane_searches, start)
        chunk = lane_indices[start:stop]
        items = lane_items[start:stop]
        searches = lane_searches[start:stop]
        stack = np.zeros(
            (int(chunk.size), int(searches.max()), int(items.max())),
            dtype=bool,
        )
        chunk_keys = []
        for lane, label_ix in enumerate(chunk.tolist()):
            label = arrays.keys[label_ix]
            chunk_keys.append(label)
            blocks = flat_blocks[offsets[label_ix]:offsets[label_ix + 1]]
            table = node_pairs[label][2]
            stack[lane, : table.shape[0], : blocks.size] = table[:, blocks]
            lane_pairs.append(node_pairs[label][0])
        batched.add_lanes(chunk_keys, items, searches, stack)
        start = stop
    return lane_pairs


def _chunk_stop(
    lane_items: np.ndarray, lane_searches: np.ndarray, start: int
) -> int:
    """End index of the padded chunk starting at ``start`` whose bool stack
    stays within the ``_LANE_CHUNK_CELLS`` element budget (always at least
    one lane)."""
    max_items = 0
    max_searches = 0
    stop = start
    while stop < lane_items.size:
        max_items = max(max_items, int(lane_items[stop]))
        max_searches = max(max_searches, int(lane_searches[stop]))
        cells = (stop - start + 1) * max_items * max_searches
        if cells > _LANE_CHUNK_CELLS and stop > start:
            break
        stop += 1
    return stop


def _run_class_classical(
    network: CongestClique,
    node_pairs: NodePairs,
    arrays: _SearchArrays,
    domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    in_domain: np.ndarray,
    alpha: int,
    eval_r: float,
    report: Step3Report,
    num_vertices: int,
) -> None:
    """Linear-scan ablation: every node checks each block of its domain with
    one evaluation each — ``|X| · r`` rounds instead of ``Õ(√|X|) · r``,
    and deterministic (exact) detection."""
    counts, offsets, flat_blocks = domain_csr
    max_domain = int(counts[in_domain].max())
    rounds = eval_r * max_domain
    found_chunks: list[np.ndarray] = []
    for label_ix in np.nonzero(in_domain)[0].tolist():
        label = arrays.keys[label_ix]
        pairs, _weights, witness_table = node_pairs[label]
        if len(pairs) == 0:
            continue
        blocks = flat_blocks[offsets[label_ix]:offsets[label_ix + 1]]
        hit = witness_table[:, blocks].any(axis=1)
        report.total_searches += len(pairs)
        found = pairs[hit]
        if found.size:
            found_chunks.append(found)
    report.found_pairs.update(found_pair_set(found_chunks, num_vertices))
    network.charge_local(f"step3.alpha{alpha}.search", rounds)
    report.search_rounds_per_alpha[alpha] = rounds
