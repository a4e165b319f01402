"""Algorithm IdentifyClass (Figure 2) — classifying triples by triangle load.

Each triple ``(u, v, w) ∈ T`` is assigned a class index ``c_{uvw}``
approximating ``log(|Δ(u, v; w)| / n)``, where ``Δ(u, v; w)`` is the set of
scope pairs in ``P(u, v)`` having a negative-triangle witness inside the
fine block ``w`` (Definition 3).  The classification drives the per-class
load balancing of Step 3: class-``α`` triples answer queries about many
pairs, so they get ``~2^α`` bandwidth duplicates (Section 5.3.2), and
Lemma 4 caps how many such triples can exist.

The protocol is sampling-based: every vertex samples its scope partners
with probability ``10 log n / n``, the samples (with their pair weights) are
broadcast, and each triple node counts locally how many sampled pairs it
witnesses — an unbiased estimator ``d_{uvw}`` of
``|Δ(u, v; w)| · 10 log n / n`` that Proposition 5 shows lands in the right
class with high probability.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.congest.gridops import expand_ranges
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions, DistinctLabels
from repro.core.constants import PaperConstants
from repro.core.problems import FindEdgesInstance
from repro.errors import ProtocolAbortedError
from repro.util.rng import RngLike, ensure_rng


@dataclass
class ClassAssignment:
    """Output of IdentifyClass.

    ``classes[(bu, bv, bw)] = α`` for every triple label, and
    ``t_alpha[(bu, bv)][α]`` lists the fine blocks of ``Tα[u, v]``
    (the per-block-pair view used by Step 3's searches, Section 5.3).
    """

    classes: dict[tuple[int, int, int], int]
    t_alpha: dict[tuple[int, int], dict[int, list[int]]] = field(default_factory=dict)
    sample_size: int = 0

    @property
    def max_class(self) -> int:
        return max(self.classes.values(), default=0)

    def blocks_of_class(self, bu: int, bv: int, alpha: int) -> list[int]:
        """``Tα[u, v]`` for one coarse block pair."""
        return self.t_alpha.get((bu, bv), {}).get(alpha, [])

    def present_classes(self, bu: int, bv: int) -> list[int]:
        """Class indices that are non-empty for this block pair."""
        return sorted(self.t_alpha.get((bu, bv), {}).keys())

    def domain_csr(
        self, bu: np.ndarray, bv: np.ndarray, alpha: int, num_coarse: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The class-``alpha`` search domains in CSR form, built in one pass.

        ``bu``/``bv`` are the coarse components of the search labels (in
        label order); the domain of label ``l`` is ``Tα[bu[l], bv[l]]``, and
        the return value ``(counts, offsets, flat)`` lays those domains out
        back to back: label ``l``'s fine-block ids are
        ``flat[offsets[l] : offsets[l + 1]]`` (``counts[l]`` of them, zero
        when the class is empty for that block pair).  Because the domain
        depends only on ``(bu, bv)``, the per-block-pair lists of
        ``t_alpha`` are concatenated once and every label gathers its slice
        arithmetically — no per-label dict lookup (the lookup form survives
        as :func:`repro.core._reference.step3_domains_dicts`).
        """
        bu = np.asarray(bu, dtype=np.int64)
        bv = np.asarray(bv, dtype=np.int64)
        grid_counts = np.zeros(num_coarse * num_coarse, dtype=np.int64)
        per_pair: dict[int, np.ndarray] = {}
        for (cu, cv), per_alpha in self.t_alpha.items():
            blocks = per_alpha.get(alpha)
            if blocks:
                pair_id = int(cu) * num_coarse + int(cv)
                per_pair[pair_id] = np.asarray(blocks, dtype=np.int64)
                grid_counts[pair_id] = len(blocks)
        grid_offsets = np.zeros(grid_counts.size + 1, dtype=np.int64)
        np.cumsum(grid_counts, out=grid_offsets[1:])
        grid_flat = (
            np.concatenate([per_pair[pair_id] for pair_id in sorted(per_pair)])
            if per_pair
            else np.empty(0, dtype=np.int64)
        )
        pair_ids = bu * num_coarse + bv
        counts = grid_counts[pair_ids]
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat = grid_flat[expand_ranges(grid_offsets[pair_ids], counts)]
        return counts, offsets, flat


def run_identify_class(
    network: CongestClique,
    instance: FindEdgesInstance,
    partitions: CliquePartitions,
    constants: PaperConstants,
    two_hop_for,
    rng: RngLike = None,
) -> ClassAssignment:
    """Execute Algorithm IdentifyClass on the network.

    ``two_hop_for(bu, bv)`` must return the block two-hop tensor
    ``H[a, b, w]`` of :func:`repro.core.evaluation.block_two_hop` — the
    values the triple nodes hold locally after Step 1 of ComputePairs.

    Raises :class:`ProtocolAbortedError` when some ``|Λ(u)|`` exceeds the
    ``20 log n`` abort threshold (probability ``≤ 1/n`` by Proposition 5);
    the caller retries with fresh randomness.
    """
    generator = ensure_rng(rng)
    n = instance.num_vertices
    pair_weights = instance.effective_pair_graph().weights
    scope = instance.effective_scope()

    # Node u's local view of S: the partners v with {u, v} ∈ S.
    partners: dict[int, list[int]] = defaultdict(list)
    for u, v in scope:
        partners[u].append(v)
        partners[v].append(u)

    # Step 1: sample Λ(u) per node; abort on oversize.
    rate = constants.identify_rate(n)
    abort_bound = constants.identify_abort_bound(n)
    sampled: dict[int, np.ndarray] = {}
    for u in range(n):
        own = np.asarray(partners.get(u, ()), dtype=np.int64)
        if own.size == 0:
            continue
        mask = generator.random(own.size) < rate
        chosen = own[mask]
        if chosen.size > abort_bound:
            raise ProtocolAbortedError(
                "identify_class",
                f"|Λ({u})| = {chosen.size} exceeds bound {abort_bound:.1f}",
            )
        if chosen.size:
            sampled[u] = chosen

    # Broadcast R: each broadcaster ships (partner id, pair weight) tuples,
    # two words per sample.  Every node then knows R, which the simulator
    # assembles directly below, so the broadcast is charged payload-free
    # (base positions are vertex ids).
    network.broadcast_volume(
        np.fromiter(sampled.keys(), dtype=np.int64, count=len(sampled)),
        np.fromiter(
            (2 * chosen.size for chosen in sampled.values()),
            dtype=np.int64,
            count=len(sampled),
        ),
        "identify_class.broadcast_samples",
    )

    # Assemble R (globally known after the broadcast), grouped by the coarse
    # block pair that owns each sampled pair.
    coarse_of = partitions.coarse.block_index_array()
    coarse_start = {
        index: int(block[0]) for index, block in enumerate(partitions.coarse.blocks())
    }
    by_block_pair: dict[tuple[int, int], list[tuple[int, int, float]]] = defaultdict(list)
    seen: set[tuple[int, int]] = set()
    for u, chosen in sampled.items():
        for v in chosen.tolist():
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                continue
            seen.add((a, b))
            weight = float(pair_weights[a, b])
            bu, bv = int(coarse_of[a]), int(coarse_of[b])
            # Register under both orientations: the triple nodes (bu, bv, ·)
            # and (bv, bu, ·) each count the pair (P(u, v) is unordered).
            by_block_pair[(bu, bv)].append((a, b, weight))
            if bu != bv:
                by_block_pair[(bv, bu)].append((b, a, weight))

    # Step 2 (local): every triple node computes d_{uvw} and its class.
    classes: dict[tuple[int, int, int], int] = {}
    t_alpha: dict[tuple[int, int], dict[int, list[int]]] = {}
    num_fine = partitions.num_fine
    for bu in range(partitions.num_coarse):
        for bv in range(partitions.num_coarse):
            entries = by_block_pair.get((bu, bv), ())
            per_alpha: dict[int, list[int]] = defaultdict(list)
            if entries:
                two_hop = two_hop_for(bu, bv)
                rows = np.array([a - coarse_start[bu] for a, _, _ in entries])
                cols = np.array([b - coarse_start[bv] for _, b, _ in entries])
                weights = np.array([w for _, _, w in entries])
                # (num_entries, num_fine): does block w witness pair (a, b)?
                hits = two_hop[rows, cols, :] < -weights[:, None]
                counts = hits.sum(axis=0)
            else:
                counts = np.zeros(num_fine, dtype=np.int64)
            for bw in range(num_fine):
                alpha = _class_of(float(counts[bw]), n, constants)
                classes[(bu, bv, bw)] = alpha
                per_alpha[alpha].append(bw)
            t_alpha[(bu, bv)] = dict(per_alpha)

    # Every triple node announces its (single-word) class so that search
    # nodes know each Tα[u, v] — which ``t_alpha`` already holds, so the
    # broadcast is charged payload-free.  Broadcasting one word from each of
    # the n triple nodes costs O(1) rounds, charged through the physical
    # hosts of the announce scheme.  The labels are dict keys —
    # duplicate-free by construction, so registration skips the set() scan.
    network.register_scheme(
        "identify_class_announce",
        DistinctLabels([("class", label) for label in classes]),
    )
    network.broadcast_volume(
        np.arange(len(classes), dtype=np.int64),
        np.ones(len(classes), dtype=np.int64),
        "identify_class.broadcast_classes",
        scheme="identify_class_announce",
    )

    return ClassAssignment(
        classes=classes, t_alpha=t_alpha, sample_size=len(seen)
    )


def _class_of(estimate: float, n: int, constants: PaperConstants) -> int:
    """The smallest ``c ≥ 0`` with ``d_{uvw} < 10 · 2^c · log n`` (scaled)."""
    alpha = 0
    while estimate >= constants.class_threshold(n, alpha):
        alpha += 1
        if alpha > 64:  # can't happen: estimate ≤ n², threshold doubles
            raise RuntimeError("class index runaway")
    return alpha
