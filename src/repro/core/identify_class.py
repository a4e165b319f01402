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
    scope = instance.scope_mask()

    # Node u's local view of S as one per-vertex CSR: the row-major nonzero
    # of the symmetric scope mask lists every vertex's partners v with
    # {u, v} ∈ S, ascending — canonical, whatever order the scope was
    # built in.
    part_u, part_v = np.nonzero(scope | scope.T)

    # Step 1: sample Λ(u) per node; abort on oversize.  Node u draws deg(u)
    # uniforms, vertex by vertex; Generator.random fills sequentially, so
    # one draw of the concatenation yields exactly those variates.
    rate = constants.identify_rate(n)
    abort_bound = constants.identify_abort_bound(n)
    chosen = generator.random(part_u.size) < rate
    sizes = np.bincount(part_u[chosen], minlength=n)
    oversized = np.flatnonzero(sizes > abort_bound)
    if oversized.size:
        u = int(oversized[0])
        raise ProtocolAbortedError(
            "identify_class",
            f"|Λ({u})| = {int(sizes[u])} exceeds bound {abort_bound:.1f}",
        )

    # Broadcast R: each broadcaster ships (partner id, pair weight) tuples,
    # two words per sample.  Every node then knows R, which the simulator
    # assembles directly below, so the broadcast is charged payload-free
    # (base positions are vertex ids).
    broadcasters = np.flatnonzero(sizes)
    network.broadcast_volume(
        broadcasters, 2 * sizes[broadcasters], "identify_class.broadcast_samples"
    )

    # Assemble R (globally known after the broadcast): each sampled pair
    # once, canonical a < b.  The triple nodes (bu, bv, ·) and (bv, bu, ·)
    # each count a cross-block pair (P(u, v) is unordered), so those pairs
    # register under both orientations.
    low = np.minimum(part_u[chosen], part_v[chosen])
    high = np.maximum(part_u[chosen], part_v[chosen])
    keys = np.unique(low * n + high)
    a, b = keys // n, keys % n
    coarse_of = partitions.coarse.block_index_array()
    cross = coarse_of[a] != coarse_of[b]
    rows = np.concatenate([a, b[cross]])
    cols = np.concatenate([b, a[cross]])
    weights = pair_weights[rows, cols]
    num_coarse = partitions.num_coarse
    block_pair = coarse_of[rows] * num_coarse + coarse_of[cols]
    starts = partitions.coarse.block_starts()

    # Step 2 (local): every triple node computes d_{uvw} and its class.
    counts = np.zeros((num_coarse * num_coarse, partitions.num_fine), dtype=np.int64)
    for pair_id in np.unique(block_pair).tolist():
        bu, bv = divmod(pair_id, num_coarse)
        entries = block_pair == pair_id
        # (entries, num_fine): does block w witness pair (a, b)?
        hits = two_hop_for(bu, bv)[
            rows[entries] - starts[bu], cols[entries] - starts[bv], :
        ] < -weights[entries, None]
        counts[pair_id] = hits.sum(axis=0)
    estimates, inverse = np.unique(counts.ravel(), return_inverse=True)
    alphas = np.array(
        [_class_of(float(estimate), n, constants) for estimate in estimates.tolist()],
        dtype=np.int64,
    )[inverse].reshape(counts.shape)
    classes: dict[tuple[int, int, int], int] = {}
    t_alpha: dict[tuple[int, int], dict[int, list[int]]] = {}
    for pair_id, row in enumerate(alphas.tolist()):
        bu, bv = divmod(pair_id, num_coarse)
        per_alpha: dict[int, list[int]] = defaultdict(list)
        for bw, alpha in enumerate(row):
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
        classes=classes, t_alpha=t_alpha, sample_size=int(keys.size)
    )


def _class_of(estimate: float, n: int, constants: PaperConstants) -> int:
    """The smallest ``c ≥ 0`` with ``d_{uvw} < 10 · 2^c · log n`` (scaled)."""
    alpha = 0
    while estimate >= constants.class_threshold(n, alpha):
        alpha += 1
        if alpha > 64:  # can't happen: estimate ≤ n², threshold doubles
            raise RuntimeError("class index runaway")
    return alpha
