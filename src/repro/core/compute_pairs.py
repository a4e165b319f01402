"""Algorithm ComputePairs (Figure 1) — the Õ(n^{1/4})-round solver for
FindEdgesWithPromise (Theorem 2).

The three steps, all message-accurate on a :class:`CongestClique`:

1. **Load** — every triple node ``(u, v, w) ∈ T = V × V × V′`` gathers the
   witness weights ``f(u, w)`` for ``{u, w} ∈ P(u, w)`` and ``f(w, v)`` for
   ``{w, v} ∈ P(w, v)``; ``Θ(n^{5/4})`` words per node ⇒ ``O(n^{1/4})``
   rounds by Lemma 1.
2. **Sample** — every search node ``(u, v, x) ∈ V × V × [√n]`` draws its
   random pair set ``Λx(u, v) ⊆ P(u, v)`` with rate ``10 log n / √n``,
   aborts unless all sets are *well-balanced* (Lemma 2), and loads the pair
   weights and scope membership of its sampled pairs.
3. **Search** — Algorithm IdentifyClass partitions the triples into load
   classes, then each node runs one quantum search per kept pair over each
   class's blocks (:mod:`repro.core.quantum_step3`).

Aborts (low-probability bad events of the randomized constructions) raise
:class:`ProtocolAbortedError` internally; :func:`compute_pairs` retries with
fresh randomness a bounded number of times, mirroring the paper's
"with probability ≥ 1 − 2/n the protocol does not abort".
"""

from __future__ import annotations

import numpy as np

from repro.congest.batch import MessageBatch
from repro.congest.message import Message
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.constants import SIMULATION, PaperConstants
from repro.core.evaluation import block_two_hop
from repro.core.identify_class import run_identify_class
from repro.core.problems import FindEdgesInstance, FindEdgesSolution
from repro.core.quantum_step3 import NodePairs, run_step3
from repro.errors import ConvergenceError, ProtocolAbortedError
from repro import telemetry
from repro.util.rng import RngLike, ensure_rng, spawn_rng

#: Cell budget of one batched Step-2 uniform draw — chunks are
#: whole-segment-aligned concatenations of the per-segment draws, so the
#: variates (and hence the samples) are those of one call per segment.
_STEP2_DRAW_CELLS = 1 << 22


class _BatchedUniforms:
    """Segment-aligned batched uniform draws.

    Step 2's per-segment draw sizes are a deterministic function of the
    partition (``num_fine · |P(bu, bv)|``), so the whole uniform stream can
    be drawn ahead in large chunks instead of one generator call per
    segment.  ``Generator.random`` fills its output from the bit stream
    sequentially, so a chunk covering segments ``i..j`` yields exactly the
    concatenation of the per-segment draws — the *variates* are those of
    the per-segment loop (:func:`repro.core._reference.step2_sample_loops`),
    only the call count changes.  On a mid-segment abort the already-drawn
    tail is discarded with the attempt (each retry spawns a fresh child
    generator), and in the non-abort path the stream position after Step 2
    is the per-segment loop's, so downstream consumers are unaffected.
    """

    def __init__(self, rng: np.random.Generator, sizes: np.ndarray) -> None:
        self._rng = rng
        self._sizes = [int(size) for size in sizes]
        self._next_segment = 0
        self._buffer = np.empty(0)
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        if self._cursor == self._buffer.size:
            total = 0
            while (
                self._next_segment < len(self._sizes)
                and total < _STEP2_DRAW_CELLS
            ):
                total += self._sizes[self._next_segment]
                self._next_segment += 1
            self._buffer = self._rng.random(total)
            self._cursor = 0
        out = self._buffer[self._cursor:self._cursor + count]
        if out.size != count:
            raise RuntimeError(
                "step-2 draw plan out of sync with the segment loop"
            )
        self._cursor += count
        return out


def compute_pairs(
    instance: FindEdgesInstance,
    *,
    constants: PaperConstants = SIMULATION,
    rng: RngLike = None,
    search_mode: str = "quantum",
    max_retries: int = 5,
    amplification: float = 12.0,
    attach_payloads: bool = False,
) -> FindEdgesSolution:
    """Solve FindEdgesWithPromise with Algorithm ComputePairs.

    Returns the detected scope pairs together with the full round ledger.
    Retries up to ``max_retries`` times on protocol aborts; raises
    :class:`ConvergenceError` if every attempt aborts (probability
    ``O(n^{-max_retries})`` under the paper's parameters).
    """
    generator = ensure_rng(rng)
    aborts = 0
    with telemetry.span(
        "compute_pairs",
        n=instance.num_vertices,
        search_mode=search_mode,
    ) as outer:
        for _ in range(max_retries):
            try:
                solution = _compute_pairs_once(
                    instance,
                    constants=constants,
                    rng=spawn_rng(generator),
                    search_mode=search_mode,
                    amplification=amplification,
                    attach_payloads=attach_payloads,
                )
            except ProtocolAbortedError:
                aborts += 1
                continue
            solution.aborts = aborts
            outer.set("aborts", aborts).set("rounds", solution.rounds)
            return solution
    raise ConvergenceError(
        f"ComputePairs aborted {max_retries} times in a row; "
        "constants.scale may be too aggressive for this n"
    )


def _compute_pairs_once(
    instance: FindEdgesInstance,
    *,
    constants: PaperConstants,
    rng: np.random.Generator,
    search_mode: str,
    amplification: float,
    attach_payloads: bool = False,
) -> FindEdgesSolution:
    n = instance.num_vertices
    with telemetry.span("compute_pairs.step0_setup", n=n):
        network = CongestClique(n, rng=spawn_rng(rng))
        collector = telemetry.active()
        if collector is not None:
            collector.attach(network)
        partitions = CliquePartitions(n)
        witness = instance.graph.weights

        network.register_scheme("triple", partitions.triple_labels())
        network.register_scheme("search", partitions.search_labels())

    with telemetry.span("compute_pairs.step1_load", n=n):
        _step1_load(network, partitions, witness if attach_payloads else None)

    # Node-local two-hop tables: what the triple nodes (u, v, ·) jointly
    # compute from the weights gathered in Step 1 (free: local computation).
    # The witness weights are symmetric, so the (bv, bu) table is the
    # transposed (bu, bv) one — each unordered block pair is computed once.
    fine_blocks = partitions.fine.blocks()
    cache: dict[tuple[int, int], np.ndarray] = {}

    def two_hop_for(bu: int, bv: int) -> np.ndarray:
        key = (min(bu, bv), max(bu, bv))
        if key not in cache:
            cache[key] = block_two_hop(
                witness,
                partitions.coarse.block(key[0]),
                partitions.coarse.block(key[1]),
                fine_blocks,
            )
        return cache[key] if bu <= bv else cache[key].transpose(1, 0, 2)

    with telemetry.span("compute_pairs.step2_sample", n=n):
        node_pairs, coverage = _step2_sample(
            network, partitions, instance, constants, rng, two_hop_for
        )

    with telemetry.span("compute_pairs.step3_identify", n=n):
        assignment = run_identify_class(
            network, instance, partitions, constants, two_hop_for, rng
        )

    with telemetry.span("compute_pairs.step3_search", n=n):
        step3 = run_step3(
            network,
            partitions,
            constants,
            assignment,
            node_pairs,
            rng=rng,
            search_mode=search_mode,
            amplification=amplification,
        )

    details = {
        "coverage": coverage,
        "num_search_nodes": len(node_pairs.labels),
        "total_kept_pairs": int(node_pairs.offsets[-1]),
        "classes": sorted(set(assignment.classes.values())),
        "eval_rounds_per_alpha": step3.eval_rounds_per_alpha,
        "search_rounds_per_alpha": step3.search_rounds_per_alpha,
        "duplication_per_alpha": step3.duplication_per_alpha,
        "typicality_truncations": step3.typicality_truncations,
        "corrupted_repetitions": step3.corrupted_repetitions,
        "total_searches": step3.total_searches,
    }
    return FindEdgesSolution(
        step3.found,
        rounds=network.ledger.total,
        ledger=network.ledger,
        details=details,
    )


def step1_batch(partitions: CliquePartitions) -> MessageBatch:
    """The Step-1 gather traffic as one arithmetic batch.

    Pure index arithmetic over the flattened ``(bu, bv, bw)`` grid: triple
    node ``t`` decomposes as ``bu = t // (C·F)``, ``bv = (t // F) % C``,
    ``bw = t % F``, and both message families are range-product cells —
    the u-side sends coarse block ``bu`` (one ``|bw|``-word row slice per
    vertex), the w-side sends fine block ``bw`` (one ``|bv|``-word slice
    per vertex).  No Python loop at any ``n``; the loop form survives as
    :func:`repro.core._reference.step1_batch_loops`.
    """
    num_coarse = partitions.num_coarse
    num_fine = partitions.num_fine
    coarse_starts = partitions.coarse.block_starts()
    coarse_sizes = partitions.coarse.block_sizes()
    fine_starts = partitions.fine.block_starts()
    fine_sizes = partitions.fine.block_sizes()

    triples = np.arange(num_coarse * num_coarse * num_fine, dtype=np.int64)
    bu = triples // (num_coarse * num_fine)
    bv = (triples // num_fine) % num_coarse
    bw = triples % num_fine

    u_side = MessageBatch.from_range_product(
        coarse_starts[bu], coarse_sizes[bu], triples, fine_sizes[bw]
    )
    w_side = MessageBatch.from_range_product(
        fine_starts[bw], fine_sizes[bw], triples, coarse_sizes[bv]
    )
    return MessageBatch.concat([u_side, w_side])


def _step1_load(
    network: CongestClique,
    partitions: CliquePartitions,
    witness: np.ndarray | None = None,
) -> None:
    """Step 1: ship the witness-weight slices to the triple nodes.

    Row owner ``u`` (a base node) sends, for each triple node
    ``(u, v, w)`` with ``u ∈ u``, its row restricted to the fine block
    ``w`` (``f(u, w)`` values); and for each triple node with ``w ∈ w``, its
    row restricted to the coarse block ``v`` (``f(w, v)`` values).

    By default payloads are elided (the simulator computes the resulting
    node-local tables directly from the instance matrix) and the traffic is
    a columnar :class:`MessageBatch` built arithmetically — sizes are exact
    either way, so the Lemma 1 charge is exact.  Passing the ``witness``
    matrix attaches the *actual* row slices, tagged with their role, so the
    fidelity tests can rebuild each triple node's local tables purely from
    its inbox and prove the elision faithful; that path keeps per-message
    objects (the payloads are per-message anyway).
    """
    coarse = partitions.coarse
    fine = partitions.fine
    if witness is None:
        network.deliver(
            step1_batch(partitions),
            "compute_pairs.step1_load", scheme="base", dst_scheme="triple",
        )
        return
    messages: list[Message] = []
    for bu in range(partitions.num_coarse):
        rows_u = coarse.block(bu)
        for bv in range(partitions.num_coarse):
            for bw in range(partitions.num_fine):
                label = (bu, bv, bw)
                fine_block = fine.block(bw)
                coarse_block = coarse.block(bv)
                size_fine = len(fine_block)
                size_coarse = len(coarse_block)
                for u in rows_u.tolist():
                    payload = ("uw", u, witness[u, fine_block].copy())
                    messages.append(Message(u, label, payload, size_words=size_fine))
                for w in fine_block.tolist():
                    payload = ("wv", w, witness[w, coarse_block].copy())
                    messages.append(Message(w, label, payload, size_words=size_coarse))
    network.deliver(
        messages, "compute_pairs.step1_load", scheme="base", dst_scheme="triple"
    )


def _cube_view(matrix: np.ndarray, rows_u: slice, rows_v: slice) -> np.ndarray:
    """The ``(|U|, |V|)`` view of an ``n × n`` matrix over canonical (sorted)
    pairs, in sample-cube orientation: pairs are stored smaller endpoint
    first, so a segment whose ``U`` block lies after its ``V`` block reads
    the transposed slice.  A view, so in-place updates write through."""
    if rows_u.start > rows_v.start:
        return matrix[rows_v, rows_u].T
    return matrix[rows_u, rows_v]


def _step2_sample(
    network: CongestClique,
    partitions: CliquePartitions,
    instance: FindEdgesInstance,
    constants: PaperConstants,
    rng: np.random.Generator,
    two_hop_for,
):
    """Step 2 as one pass over sample cubes: sample every ``Λx(u, v)``,
    enforce well-balancedness, and load the pair weights / scope membership
    of the sampled pairs — with no per-search-node Python loop.

    Every coarse block pair ``(bu, bv)`` with at least one pair in
    ``P(u, v)`` is a *segment*, held as a boolean sample cube of shape
    ``(F, |U|, |V|)``: ``cube[x, i, j]`` says whether search node
    ``(bu, bv, x)`` sampled the pair of ``U``-vertex ``i`` and ``V``-vertex
    ``j``.  A cross segment's ``F·|U|·|V|`` uniforms reshape straight into
    the cube; a diagonal segment's triu-ordered uniforms scatter into its
    upper triangle — so the draw, and the row-major ``(x, i, j)`` sample
    order, are exactly the per-node loop form's
    (:func:`repro.core._reference.step2_sample_loops`; the byte-identity —
    node pairs, weights, witness tables, coverage, delivered batches,
    rounds, RNG stream, abort diagnostics — is property-tested in
    ``tests/test_step2_equivalence.py``).

    Balance (Lemma 2 (i)) and owner loads are per-vertex counts along the
    cube's axes.  The per-pair work — eligibility, pair weight and the
    witness truth row — is done once per kept block cell, not once per
    ``(x, pair)`` sample; each sample only records its cell's row.

    Returns ``(node_pairs, coverage)``.  ``node_pairs`` is the
    :class:`~repro.core.quantum_step3.NodePairs` CSR of every search label's
    kept (in-scope, finite-weight) samples: label offsets into a column of
    kept-cell rows, plus one canonical pair, pair weight and witness truth
    row per kept cell — a segment's ``x`` that sample the same cell share
    its row (at rate 1, all ``F`` of them).  ``coverage`` is the fraction of
    in-scope pairs covered by at least one ``Λx`` set (Lemma 2 (ii) says it
    is 1 w.h.p.).

    The per-segment uniforms come from :class:`_BatchedUniforms` — a few
    large generator calls instead of one per segment — with byte-identical
    variates, samples, and post-Step-2 stream position (the per-segment
    sizes are pure block-size arithmetic, so the draw plan is known ahead
    of the segment loop).
    """
    n = instance.num_vertices
    rate = constants.lambda_rate(n)
    balance = constants.balance_bound(n)
    pair_weights = instance.effective_pair_graph().weights
    num_coarse = partitions.num_coarse
    num_fine = partitions.num_fine

    # Eligibility as a boolean matrix over canonical (sorted) pair
    # positions: the scope's pair mask, restricted to finite pair weights.
    eligible_mask = instance.scope_mask() & np.isfinite(pair_weights)
    covered_mask = np.zeros((n, n), dtype=bool)

    starts = partitions.coarse.block_starts()
    sizes = partitions.coarse.block_sizes()
    request_nodes: list[np.ndarray] = []
    request_owners: list[np.ndarray] = []
    request_counts: list[np.ndarray] = []
    segments: list[tuple[int, int]] = []
    label_counts: list[np.ndarray] = []
    sample_rows: list[np.ndarray] = []
    cell_pairs: list[np.ndarray] = []
    cell_weights: list[np.ndarray] = []
    cell_tables: list[np.ndarray] = []
    num_rows = 0

    seg_sizes = sizes.astype(np.int64)
    seg_counts = seg_sizes[:, None] * seg_sizes[None, :]
    np.fill_diagonal(seg_counts, seg_sizes * (seg_sizes - 1) // 2)
    seg_cells = seg_counts.ravel() * num_fine
    draw = _BatchedUniforms(rng, seg_cells[seg_cells > 0]).take
    for bu in range(num_coarse):
        for bv in range(num_coarse):
            num_pairs = int(seg_counts[bu, bv])
            if num_pairs == 0:
                continue
            seg = bu * num_coarse + bv
            size_u, size_v = int(sizes[bu]), int(sizes[bv])
            rows_u = slice(int(starts[bu]), int(starts[bu]) + size_u)
            rows_v = slice(int(starts[bv]), int(starts[bv]) + size_v)
            sampled = draw(num_fine * num_pairs) < rate
            if bu == bv:
                cube = np.zeros((num_fine, size_u, size_v), dtype=bool)
                upper_i, upper_j = np.triu_indices(size_u, k=1)
                cube[:, upper_i, upper_j] = sampled.reshape(num_fine, num_pairs)
            else:
                cube = sampled.reshape(num_fine, size_u, size_v)

            # Well-balancedness (Lemma 2 (i)): sampled pairs per U vertex —
            # on a diagonal segment a vertex is also the larger endpoint of
            # the pairs in its column.  Abort on the first violating x, as
            # the per-node loop did.
            per_row = np.count_nonzero(cube, axis=2)
            per_u = (per_row + np.count_nonzero(cube, axis=1)) if bu == bv else per_row
            per_x = per_u.max(axis=1)
            if int(per_x.max()) > balance:
                first_x = int(np.flatnonzero(per_x > balance)[0])
                raise ProtocolAbortedError(
                    "compute_pairs.step2",
                    f"Λ_{first_x}({bu},{bv}) unbalanced: "
                    f"{int(per_x[first_x])} > {balance:.1f}",
                )

            # Owner loads: the request names each pair (1 word) at its owner
            # (the smaller endpoint — the V vertex when bu > bv), the reply
            # carries weight plus membership (2 words).  nonzero of the
            # (x, owner) counts is x-major then owner-ascending, exactly the
            # concatenation the loop produced.
            if bu > bv:
                per_owner, owner_start = np.count_nonzero(cube, axis=1), rows_v.start
            else:
                per_owner, owner_start = per_row, rows_u.start
            owner_x, owner_local = np.nonzero(per_owner)
            request_nodes.append(seg * num_fine + owner_x)
            request_owners.append(owner_start + owner_local)
            request_counts.append(per_owner[owner_x, owner_local])

            # Per-cell work, once per kept cell: eligibility, coverage, and
            # the pair, weight and witness truth row of every cell that at
            # least one x kept.  table[c, w] = True iff fine block w holds a
            # witness closing a negative triangle with the cell's pair:
            # min_{w∈w}(f(a,w) + f(w,b)) < −f(a,b); the two-hop tensor is
            # indexed [U vertex, V vertex], the cube's orientation.
            weights = _cube_view(pair_weights, rows_u, rows_v)
            kept = cube & _cube_view(eligible_mask, rows_u, rows_v)
            kept_cells = kept.any(axis=0)
            covered = _cube_view(covered_mask, rows_u, rows_v)
            covered |= kept_cells

            # Per-sample work: each kept sample's cell row.  The flat sample
            # index is x-major (sample order), so each x owns one
            # contiguous slice.
            num_cells = size_u * size_v
            samples = np.flatnonzero(kept)
            x_bounds = np.searchsorted(samples, np.arange(num_fine + 1) * num_cells)
            segments.append((bu, bv))
            label_counts.append(np.diff(x_bounds))
            if samples.size:
                cell_ids = np.flatnonzero(kept_cells)
                a = rows_u.start + cell_ids // size_v
                b = rows_v.start + cell_ids % size_v
                cell_pairs.append(np.stack([b, a] if bu > bv else [a, b], axis=1))
                weight = weights.ravel()[cell_ids]
                cell_weights.append(weight)
                cell_tables.append(
                    two_hop_for(bu, bv)[cell_ids // size_v, cell_ids % size_v]
                    < -weight[:, None]
                )
                sample_rows.append(
                    num_rows + np.searchsorted(cell_ids, samples % num_cells)
                )
                num_rows += cell_ids.size

    if request_nodes:
        nodes = np.concatenate(request_nodes)
        owners = np.concatenate(request_owners)
        counts = np.concatenate(request_counts)
    else:
        nodes = owners = counts = np.empty(0, dtype=np.int64)
    network.deliver(
        MessageBatch(nodes, owners, counts),
        "compute_pairs.step2_request", scheme="search", dst_scheme="base",
    )
    network.deliver(
        MessageBatch(owners, nodes, 2 * counts),
        "compute_pairs.step2_reply", scheme="base", dst_scheme="search",
    )

    num_eligible = int(np.count_nonzero(eligible_mask))
    coverage = (
        1.0
        if num_eligible == 0
        else int(np.count_nonzero(covered_mask & eligible_mask)) / num_eligible
    )
    seg = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    offsets = np.zeros(seg.shape[0] * num_fine + 1, dtype=np.int64)
    if label_counts:
        np.cumsum(np.concatenate(label_counts), out=offsets[1:])

    def column(parts: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
        return np.concatenate(parts) if parts else empty

    node_pairs = NodePairs(
        labels=np.column_stack(
            [np.repeat(seg, num_fine, axis=0), np.tile(np.arange(num_fine), seg.shape[0])]
        ),
        offsets=offsets,
        rows=column(sample_rows, np.empty(0, dtype=np.int64)),
        pairs=column(cell_pairs, np.empty((0, 2), dtype=np.int64)),
        weights=column(cell_weights, np.empty(0, dtype=pair_weights.dtype)),
        tables=column(cell_tables, np.empty((0, num_fine), dtype=bool)),
    )
    return node_pairs, coverage
