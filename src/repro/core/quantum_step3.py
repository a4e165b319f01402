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

* the search labels and their pair counts are :class:`NodePairs` columns
  (label positions resolved in bulk by ``SchemeView.positions_of_array``);
* the per-node domains are the CSR of
  :meth:`~repro.core.identify_class.ClassAssignment.domain_csr` —
  label offsets plus flat fine-block ids, no per-label dict;
* the Fig. 4/5 query plan is a columnar
  :class:`~repro.core.evaluation.QueryPlan` built by ``repeat``/``stack``
  over the CSR (duplication destinations via
  ``ProductLabels.positions_of``), with loads reduced by ``np.bincount``;
* Step 2 hands over :class:`NodePairs`, one CSR over the search labels:
  label offsets into a sample column of *kept-cell* rows, and one pair,
  weight and witness-table row per kept cell (a pair that at least one
  ``x`` of its segment kept — at rate 1, all ``F`` of them share it);
* the per-node searches register in bulk, one
  :meth:`repro.quantum.batched.BatchedMultiSearch.add_lanes` call per
  segment: the segment's kept cells restricted to the class domain form
  the cell table, whose solution counts and item column are computed once
  per cell and gathered per sample, and one batched seed column seeds the
  class's batch generator;
* found pairs leave as a pair mask (:mod:`repro.core.problems`), with no
  tuple built.

The per-label dict forms survive in :mod:`repro.core._reference`
(``run_step3_loops`` and friends, fed :meth:`NodePairs.as_dict`) and ``tests/test_step3_equivalence.py``
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
from repro.core.problems import mask_pairs
from repro.errors import NetworkError
from repro import telemetry
from repro.quantum.amplitude import max_iterations
from repro.quantum.batched import BatchedMultiSearch
from repro.util.mathutil import guarded_log
from repro.util.rng import ensure_rng


@dataclass
class NodePairs:
    """Step 2's kept pairs of every search label, as one CSR.

    Search label ``l`` is ``labels[l] = (bu, bv, x)``, segment-major (the
    search scheme's order, which every per-label loop used).  Its kept
    samples are ``rows[offsets[l] : offsets[l + 1]]``, each the row of a
    *kept cell* — a pair that at least one ``x`` of its segment kept —
    whose canonical pair (``a < b``), pair weight and witness truth row over
    all fine blocks are ``pairs``, ``weights`` and ``tables`` at that row
    (``tables[c, w]``: fine block ``w`` holds a witness closing a negative
    triangle with the pair).  Each segment's kept cells are one contiguous
    row range, so the per-pair work is done once per cell however many
    ``x`` sampled it.
    """

    labels: np.ndarray    # (L, 3) int64
    offsets: np.ndarray   # (L + 1,) int64
    rows: np.ndarray      # (K,) int64 kept-cell row of each sample
    pairs: np.ndarray     # (C, 2) int64
    weights: np.ndarray   # (C,)
    tables: np.ndarray    # (C, F) bool

    @property
    def num_pairs(self) -> np.ndarray:
        """Kept pairs per label."""
        return np.diff(self.offsets)

    def as_dict(self) -> dict:
        """Each label's ``(pairs, weights, witness_table)`` — the per-label
        dict view the loop forms of :mod:`repro.core._reference` take."""
        view = {}
        for index, label in enumerate(self.labels.tolist()):
            rows = self.rows[self.offsets[index]:self.offsets[index + 1]]
            view[tuple(label)] = self.pairs[rows], self.weights[rows], self.tables[rows]
        return view


@dataclass
class Step3Report:
    """Diagnostics of the search phase; ``found`` is the pair mask of the
    detected pairs."""

    found: np.ndarray
    eval_rounds_per_alpha: dict[int, float] = field(default_factory=dict)
    search_rounds_per_alpha: dict[int, float] = field(default_factory=dict)
    duplication_per_alpha: dict[int, int] = field(default_factory=dict)
    typicality_truncations: int = 0
    corrupted_repetitions: int = 0
    total_searches: int = 0

    @property
    def found_pairs(self) -> set[tuple[int, int]]:
        return mask_pairs(self.found)

    def mark_found(self, node_pairs: NodePairs, rows: list[np.ndarray]) -> None:
        """Record the pairs of the found kept-cell rows."""
        if rows:
            pairs = node_pairs.pairs[np.concatenate(rows)]
            self.found[pairs[:, 0], pairs[:, 1]] = True


def _triple_columns(network: CongestClique, assignment: ClassAssignment):
    """The triple label rows (in ``assignment.classes`` dict order, which
    fixes the duplication schemes' label order), their class values, their
    triple-scheme positions and the scheme size."""
    classes = assignment.classes
    rows = np.asarray(list(classes), dtype=np.int64).reshape(len(classes), 3)
    view = network.scheme("triple")
    return (
        rows,
        np.fromiter(classes.values(), dtype=np.int64, count=len(classes)),
        view.positions_of_array(rows),
        len(view),
    )


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

    ``node_pairs`` is Step 2's :class:`NodePairs` CSR; its witness tables
    are the truth tables the evaluation procedure would compute (see the
    simulation contract in :mod:`repro.quantum.distributed`).

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
    n = partitions.num_vertices
    report = Step3Report(found=np.zeros((n, n), dtype=bool))

    for alpha in sorted(set(assignment.classes.values())):
        with telemetry.span("step3.class", alpha=alpha, mode=search_mode):
            _run_class(
                network,
                partitions,
                constants,
                assignment,
                node_pairs,
                alpha,
                report,
                generator,
                search_mode,
                amplification,
            )
    return report


def class_query_plan(
    network: CongestClique,
    node_pairs: NodePairs,
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
    per duplicate by Fig. 5.  Label positions resolve in bulk through
    ``SchemeView.positions_of_array``.  The dict-of-dicts form survives as
    :func:`repro.core._reference.step3_query_plan_dicts`.
    """
    counts, offsets, flat_blocks = domain_csr
    num_pairs = node_pairs.num_pairs
    queried = (counts > 0) & (num_pairs > 0)
    labels = node_pairs.labels[queried]
    per_dest = np.minimum(num_pairs[queried], int(np.ceil(beta)))
    queried_counts = counts[queried]
    flat_ix = expand_ranges(offsets[:-1][queried], queried_counts)
    dest_rows = np.stack(
        [
            np.repeat(labels[:, 0], queried_counts),
            np.repeat(labels[:, 1], queried_counts),
            flat_blocks[flat_ix],
        ],
        axis=1,
    )
    triple_positions = network.scheme("triple").positions_of_array(dest_rows)
    search = network.scheme("search")
    entry_src = np.repeat(
        search.positions_of_array(labels) % search.num_nodes, queried_counts
    )
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
    node_pairs: NodePairs,
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
        node_pairs.labels[:, 0], node_pairs.labels[:, 1], alpha,
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
        rows, values, positions, scheme_size = _triple_columns(network, assignment)
        alpha_rows = rows[values == alpha]
        alpha_positions = positions[values == alpha]
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
        prefix_of = np.full(scheme_size, -1, dtype=np.int64)
        prefix_of[alpha_positions] = np.arange(num_alpha, dtype=np.int64)

    # --- evaluation round cost of one oracle application -----------------
    plan = class_query_plan(
        network, node_pairs, (counts, offsets, flat_blocks), beta, dup,
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
    alpha: int,
    report: Step3Report,
    generator,
    search_mode: str,
    amplification: float,
) -> None:
    prelude = _class_prelude(
        network, partitions, constants, assignment, node_pairs, alpha, report,
    )
    if prelude is None:
        return
    (counts, offsets, flat_blocks), in_domain, beta, eval_r = prelude

    # --- the searches ------------------------------------------------------
    if search_mode == "classical":
        _run_class_classical(
            network, node_pairs, (counts, offsets, flat_blocks), in_domain,
            alpha, eval_r, report,
        )
        return

    max_domain = int(counts[in_domain].max())
    num_pairs = node_pairs.num_pairs
    max_m = int(num_pairs[in_domain].max())
    cap = max_iterations(max_domain + 1)
    repetitions = max(
        1, int(np.ceil(amplification * guarded_log(max(max_m, 2))))
    )
    schedule = generator.integers(0, cap + 1, size=repetitions).tolist()

    # One batched run for the whole class: every search node is a lane of
    # the same lockstep schedule, and the lane seed column (one batched
    # draw, one seed per lane) seeds the class's batch generator.
    lane_indices = np.flatnonzero(in_domain & (num_pairs > 0))
    seeds = np.empty(0, dtype=np.int64)
    if lane_indices.size:
        seeds = generator.integers(0, 2**63 - 1, size=lane_indices.size)
    batched = BatchedMultiSearch(
        batch_rng=seeds, beta=beta, eval_rounds=eval_r,
        amplification=amplification,
    )
    register_class_lanes(
        batched, node_pairs, (counts, offsets, flat_blocks), lane_indices
    )

    phase_rounds = 0.0
    found_rows: list[np.ndarray] = []
    for label_ix, result in zip(lane_indices.tolist(), batched.run(schedule).values()):
        report.total_searches += int(result.found.size)
        report.typicality_truncations += result.typicality.truncated_entries
        report.corrupted_repetitions += result.corrupted_repetitions
        phase_rounds = max(phase_rounds, result.rounds)
        hit = np.flatnonzero(result.found >= 0)
        if hit.size:
            found_rows.append(node_pairs.rows[node_pairs.offsets[label_ix] + hit])
    report.mark_found(node_pairs, found_rows)
    # All nodes search in the same (global) rounds: the phase costs the
    # longest node schedule, not the sum.
    network.charge_local(f"step3.alpha{alpha}.search", phase_rounds)
    report.search_rounds_per_alpha[alpha] = phase_rounds


def _segment_runs(
    node_pairs: NodePairs,
    domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    label_indices: np.ndarray,
):
    """Split ascending class labels into runs of one segment each.

    Yields ``(run, blocks, lo, hi, cells, cell_table)`` per run with kept
    samples: the run's label indices, the segment's class domain
    ``Tα[bu, bv]``, the run's sample range ``lo:hi``, each sample's row in
    ``cell_table``, and the segment's kept cells restricted to the domain —
    the once-per-cell table both search modes read.
    """
    _counts, offsets, flat_blocks = domain_csr
    segments = node_pairs.labels[label_indices, :2]
    breaks = np.flatnonzero((np.diff(segments, axis=0) != 0).any(axis=1)) + 1
    for run in np.split(label_indices, breaks):
        if not run.size:
            continue
        lo = int(node_pairs.offsets[run[0]])
        hi = int(node_pairs.offsets[run[-1] + 1])
        if hi == lo:
            continue
        rows = node_pairs.rows[lo:hi]
        base = int(rows.min())
        blocks = flat_blocks[offsets[run[0]]:offsets[run[0] + 1]]
        cell_table = node_pairs.tables[base:int(rows.max()) + 1][:, blocks]
        yield run, blocks, lo, hi, rows - base, cell_table


def register_class_lanes(
    batched: BatchedMultiSearch,
    node_pairs: NodePairs,
    domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    lane_indices: np.ndarray,
) -> None:
    """Register the class's search lanes in bulk, one
    :meth:`~repro.quantum.batched.BatchedMultiSearch.add_lanes` call per
    segment: the lanes of a segment share its domain and its kept cells, so
    the cell table is cut once and every sample indexes it (exposed for
    e15's lane-setup timing)."""
    for run, blocks, lo, hi, cells, cell_table in _segment_runs(
        node_pairs, domain_csr, lane_indices
    ):
        batched.add_lanes(
            list(map(tuple, node_pairs.labels[run].tolist())),
            np.full(run.size, blocks.size, dtype=np.int64),
            np.append(node_pairs.offsets[run], hi) - lo,
            cells,
            cell_table,
        )


def _run_class_classical(
    network: CongestClique,
    node_pairs: NodePairs,
    domain_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    in_domain: np.ndarray,
    alpha: int,
    eval_r: float,
    report: Step3Report,
) -> None:
    """Linear-scan ablation: every node checks each block of its domain with
    one evaluation each — ``|X| · r`` rounds instead of ``Õ(√|X|) · r``,
    and deterministic (exact) detection."""
    counts = domain_csr[0]
    rounds = eval_r * int(counts[in_domain].max())
    found_rows: list[np.ndarray] = []
    for _run, _blocks, lo, hi, cells, cell_table in _segment_runs(
        node_pairs, domain_csr, np.flatnonzero(in_domain)
    ):
        report.total_searches += hi - lo
        found_rows.append(node_pairs.rows[lo:hi][cell_table.any(axis=1)[cells]])
    report.mark_found(node_pairs, found_rows)
    network.charge_local(f"step3.alpha{alpha}.search", rounds)
    report.search_rounds_per_alpha[alpha] = rounds
