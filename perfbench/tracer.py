"""Layer tracing from outside the program.

:class:`LayerTracer` replaces the public entry points of each layer with
timing wrappers for the duration of a ``with tracer.installed():`` block
and restores the originals afterwards.  Where a module imports a function
by name, the wrapper replaces the name in the *calling* module (for
example ``repro.core.compute_pairs.run_step3``), since that is the name
the call resolves.  Nothing under ``src/`` is edited.

Every wrapped call is a frame on one stack, so a layer's self time is its
wall time minus the wall time of the wrapped calls made inside it.  The
benchmark opens a root frame (:meth:`LayerTracer.op`) around each timed
request, so the root's self time is the part of the traced wall time that
no layer claims.  The wrappers' own work outside the wrapped call (reading
counters, naming buckets, counting) is credited to the ``tracing`` layer,
so a caller's self time excludes it.  The layer self times, that
bookkeeping and the remainder add up to the traced wall time exactly.

Steps 0-2 of ComputePairs have no public function.  Their times, the RNG
draw counts and the congest word counts come from the spans and ledgers
that :func:`repro.telemetry.collect` records, read by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Optional

ROOT = "op"
#: The pseudo-layer that holds the wrappers' own bookkeeping time.
BOOKKEEPING = "tracing"

#: Layer → the metric holding its total self time.  These metrics, with
#: ``tracing.bookkeeping_s`` and ``tracing.unattributed_s`` (the root's self
#: time), partition ``tracing.traced_wall_s``.
LAYER_SELF_METRIC = {
    "service.queries": "service.queries.self_s",
    "service.jobs.submit": "service.jobs.submit.self_s",
    "service.jobs.run": "service.jobs.run.self_s",
    "service.jobs.pool": "service.jobs.pool.self_s",
    "service.hashing": "service.hashing.s",
    "service.store": "service.store.self_s",
    "matrix.successor": "matrix.successor_s",
    "matrix.reconstruct_path": "matrix.reconstruct_path_s",
    "matrix.batch_lookup": "matrix.batch_lookup_s",
    "core.apsp_solver": "core.apsp_solver.self_s",
    "core.reductions": "core.reductions.self_s",
    "graphs.tripartite": "graphs.tripartite_s",
    "core.find_edges": "core.find_edges.self_s",
    "core.compute_pairs": "core.compute_pairs.self_s",
    "core.identify_class": "core.identify_class.self_s",
    "core.quantum_step3": "core.quantum_step3.self_s",
    "quantum.batched": "quantum.batched.run_s",
    "congest.deliver": "congest.deliver_s",
    "congest.broadcast": "congest.broadcast_s",
    BOOKKEEPING: "tracing.bookkeeping_s",
    ROOT: "tracing.unattributed_s",
}

#: Ledger phase prefix → ``congest.rounds.<category>``.
ROUND_CATEGORIES = (
    ("compute_pairs.step1", "step1"),
    ("compute_pairs.step2", "step2"),
    ("identify_class", "identify"),
    ("step3", "step3"),
)
ROUND_NAMES = [name for _, name in ROUND_CATEGORIES] + ["other"]


@dataclass
class Patch:
    """One wrapped entry point.

    ``bucket(args, result, before)`` names a sub-bucket for the call's wall
    time (``before`` is what ``pre(args)`` returned ahead of the call);
    ``after(args, result)`` records counts.  ``pre``, ``bucket``, ``after``
    and the wrapper's own bookkeeping run outside the call's timed interval
    and are credited to the ``tracing`` layer, not to the caller.
    """

    owner: Any
    attr: str
    layer: str
    pre: Optional[Callable] = None
    bucket: Optional[Callable] = None
    after: Optional[Callable] = None


@dataclass
class LayerStats:
    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Self/inclusive wall time per layer, per-bucket call times, counts."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.buckets: dict[tuple[str, str], LayerStats] = defaultdict(LayerStats)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []

    def _call(self, layer: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` as a frame of ``layer``; returns ``(result, wall_s)``."""
        frame = [0.0]  # wall time of the wrapped calls made inside this one
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            stats = self.layers[layer]
            stats.calls += 1
            stats.wall_s += elapsed
            stats.self_s += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed
        return result, elapsed

    def _bookkeeping(self, seconds: float) -> None:
        """Credit a wrapper's time outside its call to the ``tracing`` layer,
        as a child of the enclosing frame so the caller's self time excludes it."""
        stats = self.layers[BOOKKEEPING]
        stats.wall_s += seconds
        stats.self_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    def op(self, fn: Callable, *args, **kwargs) -> tuple[Any, float]:
        """Run one timed request as a root frame; returns ``(result, wall_s)``."""
        return self._call(ROOT, fn, args, kwargs)

    def _wrap(self, original: Callable, patch: Patch) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entry = time.perf_counter()
            before = patch.pre(args) if patch.pre is not None else None
            result, elapsed = tracer._call(patch.layer, original, args, kwargs)
            if patch.bucket is not None:
                stats = tracer.buckets[(patch.layer, patch.bucket(args, result, before))]
                stats.calls += 1
                stats.wall_s += elapsed
            if patch.after is not None:
                patch.after(args, result)
            tracer._bookkeeping(time.perf_counter() - entry - elapsed)
            return result

        return traced

    @contextmanager
    def installed(self, patches: list[Patch]):
        """Wrap every patch target; restore the originals on exit."""
        applied = []
        try:
            for patch in patches:
                own = patch.attr in vars(patch.owner)
                original = getattr(patch.owner, patch.attr)
                setattr(patch.owner, patch.attr, self._wrap(original, patch))
                applied.append((patch, own, original))
            yield self
        finally:
            for patch, own, original in reversed(applied):
                if own:
                    setattr(patch.owner, patch.attr, original)
                else:
                    delattr(patch.owner, patch.attr)

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """The additive self-time metrics (absent layers read 0)."""
        return {metric: self.layers[layer].self_s
                for layer, metric in LAYER_SELF_METRIC.items()}


def _per_call(seconds: float, stats: LayerStats, scale: float) -> float:
    return seconds / stats.calls * scale if stats.calls else 0.0


def layer_patches(tracer: LayerTracer) -> list[Patch]:
    """The entry points wrapped in a traced run, one :class:`Patch` each."""
    # import_module, not ``import a.b as m``: ``repro.core`` re-exports
    # functions that share their module's name (``compute_pairs``).
    apsp_solver_module = import_module("repro.core.apsp_solver")
    compute_pairs_module = import_module("repro.core.compute_pairs")
    find_edges_module = import_module("repro.core.find_edges")
    reductions_module = import_module("repro.core.reductions")
    jobs_module = import_module("repro.service.jobs")
    queries_module = import_module("repro.service.queries")
    from repro.congest.network import CongestClique
    from repro.core.apsp_solver import QuantumAPSP
    from repro.core.find_edges import QuantumFindEdges
    from repro.quantum.batched import BatchedMultiSearch
    from repro.service.jobs import JobEngine
    from repro.service.queries import QueryEngine
    from repro.service.store import ResultStore

    counts = tracer.counts

    def query(args, result, before):
        return "query"

    def digest_size(args, result, before):
        return f"n{args[0].num_vertices}"

    def store_get(args, result, before):
        if args[0].stats.disk_loads > before:
            return "disk_load"
        return "get"

    def solved_pairs(args, solution):
        counts["core.compute_pairs.aborts"] += solution.aborts
        for phase, rounds in solution.ledger.phases():
            category = next(
                (name for prefix, name in ROUND_CATEGORIES if phase.startswith(prefix)),
                "other",
            )
            counts[f"congest.rounds.{category}"] += rounds

    def batched_run(args, result):
        counts["quantum.batched.lanes"] += len(args[0])

    return [
        Patch(QueryEngine, "ensure_solved", "service.queries"),
        Patch(QueryEngine, "dist", "service.queries", bucket=query),
        Patch(QueryEngine, "path", "service.queries", bucket=query),
        Patch(QueryEngine, "query_batch", "service.queries", bucket=query),
        Patch(JobEngine, "submit", "service.jobs.submit"),
        Patch(JobEngine, "run", "service.jobs.run"),
        Patch(JobEngine, "run_pending_parallel", "service.jobs.pool"),
        Patch(jobs_module, "graph_digest", "service.hashing", bucket=digest_size),
        Patch(ResultStore, "get", "service.store",
              pre=lambda args: args[0].stats.disk_loads, bucket=store_get),
        Patch(ResultStore, "put", "service.store", bucket=lambda a, r, b: "put"),
        Patch(jobs_module, "successor_matrix", "matrix.successor"),
        Patch(queries_module, "reconstruct_path", "matrix.reconstruct_path"),
        Patch(queries_module, "batch_distance_lookup", "matrix.batch_lookup"),
        Patch(QuantumAPSP, "solve", "core.apsp_solver"),
        Patch(apsp_solver_module, "distance_product_via_find_edges", "core.reductions"),
        Patch(reductions_module, "tripartite_from_matrices", "graphs.tripartite"),
        Patch(QuantumFindEdges, "find_edges", "core.find_edges"),
        Patch(find_edges_module, "compute_pairs", "core.compute_pairs", after=solved_pairs),
        Patch(compute_pairs_module, "run_identify_class", "core.identify_class"),
        Patch(compute_pairs_module, "run_step3", "core.quantum_step3"),
        Patch(BatchedMultiSearch, "run", "quantum.batched", after=batched_run),
        Patch(CongestClique, "deliver", "congest.deliver"),
        Patch(CongestClique, "broadcast_all", "congest.broadcast"),
        Patch(CongestClique, "broadcast_volume", "congest.broadcast"),
    ]


def _subtree_rng_draws(spans: list[dict], root_name: str) -> int:
    """RNG draws charged to spans named ``root_name`` and their descendants."""
    parent = {span["span_id"]: span["parent_id"] for span in spans}
    roots = {span["span_id"] for span in spans if span["name"] == root_name}
    total = 0
    for span in spans:
        node = span["span_id"]
        while node is not None and node not in roots:
            node = parent.get(node)
        if node is not None:
            total += span["rng_draws"]
    return total


def layer_metrics(tracer: LayerTracer, snapshot: dict) -> dict[str, float]:
    """The per-layer metrics read from one traced pass.

    ``snapshot`` is the :func:`repro.telemetry.collect` snapshot of the same
    pass.  Layers the workload never enters read 0.
    """
    layers, buckets, counts = tracer.layers, tracer.buckets, tracer.counts
    spans = snapshot["spans"]
    span_wall: Counter = Counter()
    for span in spans:
        span_wall[span["name"]] += span["duration_s"]

    def bucket_mean(layer: str, bucket: str, scale: float) -> float:
        stats = buckets[(layer, bucket)]
        return _per_call(stats.wall_s, stats, scale)

    compute_pairs_calls = layers["core.compute_pairs"].calls
    attempts = compute_pairs_calls + counts["core.compute_pairs.aborts"]
    submits = layers["service.jobs.submit"]
    paths = layers["matrix.reconstruct_path"]
    lookups = layers["matrix.batch_lookup"]
    return {
        "core.reductions.find_edges_calls": layers["core.find_edges"].calls,
        "core.find_edges.compute_pairs_calls": compute_pairs_calls,
        "core.compute_pairs.aborts": counts["core.compute_pairs.aborts"],
        "core.compute_pairs.useful_ratio": (
            compute_pairs_calls / attempts if attempts else 0.0),
        "core.compute_pairs.rng_draws": _subtree_rng_draws(spans, "compute_pairs"),
        "quantum.batched.runs": layers["quantum.batched"].calls,
        "quantum.batched.lanes": counts["quantum.batched.lanes"],
        "congest.words": sum(entry["words"] for entry in snapshot["congest"].values()),
        **{f"congest.rounds.{name}": counts[f"congest.rounds.{name}"] for name in ROUND_NAMES},
        **tracer.self_times(),
        "tracing.traced_wall_s": layers[ROOT].wall_s,
        "core.compute_pairs.step0_s": span_wall["compute_pairs.step0_setup"],
        "core.compute_pairs.step1_s": span_wall["compute_pairs.step1_load"],
        "core.compute_pairs.step2_s": span_wall["compute_pairs.step2_sample"],
        "core.identify_class.s": layers["core.identify_class"].wall_s,
        "core.quantum_step3.s": layers["core.quantum_step3"].wall_s,
        "service.hashing.digest_us.n32": bucket_mean("service.hashing", "n32", 1e6),
        "service.hashing.digest_us.n128": bucket_mean("service.hashing", "n128", 1e6),
        "service.hashing.digest_us.n256": bucket_mean("service.hashing", "n256", 1e6),
        "service.jobs.submit_self_us": _per_call(submits.self_s, submits, 1e6),
        "service.store.get_us": bucket_mean("service.store", "get", 1e6),
        "service.store.put_ms": bucket_mean("service.store", "put", 1e3),
        "service.store.disk_load_ms": bucket_mean("service.store", "disk_load", 1e3),
        "service.queries.self_us": _per_call(
            layers["service.queries"].self_s, buckets[("service.queries", "query")], 1e6),
        "matrix.reconstruct_path_us": _per_call(paths.wall_s, paths, 1e6),
        "matrix.batch_lookup_us": _per_call(lookups.wall_s, lookups, 1e6),
    }


def shares(self_times: dict[str, float]) -> dict[str, float]:
    """Each additive metric as a share of the traced wall time."""
    total = sum(self_times.values())
    return {name: (value / total if total else 0.0) for name, value in self_times.items()}
