"""The three workloads, each a closed loop with one client.

A workload is built from its seed alone: every graph and every request
comes from generators seeded by ``(seed, purpose, index)``, so the same seed
replays the same operations.  The program sees only the generated graphs
and requests, through the public ``repro`` API.

Each workload has a ``setup`` (timed by the runner as ``setup_s``), a
``step(index)`` that issues the ``index``-th operation of the loop, and a
``certify`` that checks every recorded answer after the loop has ended.
Timed calls go through :meth:`Workload.timed`, which is also where a traced
pass opens the root frame of :class:`~perfbench.tracer.LayerTracer`.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import shutil
import statistics
import tempfile
import time
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro import random_digraph_no_negative_cycle
from repro.errors import ReproError
from repro.service import JobEngine, JobState, QueryEngine, QueryRequest, ResultStore, SolveOptions
from repro.service.store import StoreStats

from perfbench.certify import Certifier

#: Scratch directories of batch-serve stores live here, inside the checkout.
WORK_ROOT = pathlib.Path(__file__).resolve().parent / ".work"

#: What :meth:`Workload.call` returns for a call that raised (already
#: counted as failed, so certification skips it).
FAILED = object()


def seeded_rng(seed: int, purpose: str, *index: int) -> np.random.Generator:
    """An independent generator for one purpose of one workload seed."""
    return np.random.default_rng(
        [seed % 2**63, zlib.crc32(purpose.encode()), *index]
    )


@dataclass(frozen=True)
class Config:
    """Sizes of every workload; :data:`SMOKE` shrinks them for the smoke test."""

    scale: float = 0.5
    # cold-solve
    cold_n: int = 48
    cold_densities: tuple = (0.5, 0.15)
    cold_queries_per_solve: int = 2000  # two p95 windows, ~1% of a solve
    warmup_n: int = 8
    # warm-query
    warm_sizes: tuple = (32, 128, 256)
    warm_per_size: int = 2
    warm_batch: int = 64
    warm_mix: tuple = (0.80, 0.15, 0.05)  # dist, path, query_batch
    # batch-serve
    batch_n: int = 16
    batch_fresh: int = 4
    batch_repeated: int = 4
    batch_capacity: int = 4
    batch_workers: int = 2
    batch_queries_per_graph: int = 32
    # every workload: the loop runs for at least min_requests requests and
    # one query window; p95 is taken per window of query_window queries
    min_requests: int = 2
    query_window: int = 1000


FULL = Config()
SMOKE = replace(
    FULL,
    cold_n=8, cold_queries_per_solve=20, warmup_n=6,
    warm_sizes=(8, 12, 16), warm_per_size=1, warm_batch=8,
    batch_n=6, batch_fresh=2, batch_repeated=2, batch_capacity=2,
    batch_queries_per_graph=4, query_window=20,
)


class Workload:
    """Shared recording, timing and failure accounting."""

    name = ""
    workers = 1  # processes solving in parallel

    def __init__(self, seed: int, config: Config, certifier: Certifier,
                 tracer=None, solver: Optional[str] = None) -> None:
        self.seed = seed
        self.config = config
        self.certifier = certifier
        self.tracer = tracer
        self.solver = solver
        self.request_s: list[float] = []
        self.query_s: list[float] = []
        self.busy_s = 0.0  # wall time inside timed calls

    # -- timing ------------------------------------------------------------

    def timed(self, fn: Callable, *args):
        """Run one client call; returns ``(result, wall seconds)``."""
        if self.tracer is not None:
            return self.tracer.op(fn, *args)
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start

    def call(self, what: str, fn: Callable, *args, request: bool = False,
             query: bool = False):
        """A timed call whose latency is recorded; a call that raises is
        counted as failed and returns :data:`FAILED`."""
        try:
            result, elapsed = self.timed(fn, *args)
        except Exception as error:  # noqa: BLE001 — counted, and the loop goes on
            self.certifier.fail(what, error)
            return FAILED
        self.busy_s += elapsed
        if request:
            self.request_s.append(elapsed)
        if query:
            self.query_s.append(elapsed)
        return result

    def query_mix(self, engine: QueryEngine, graph, rng: np.random.Generator,
                  count: int, path_share: float) -> list[tuple]:
        """``count`` warm dist/path queries; returns ``(kind, u, v, answer)``."""
        answers = []
        n = graph.num_vertices
        for _ in range(count):
            u, v = (int(x) for x in rng.integers(n, size=2))
            if rng.random() < path_share:
                answers.append(("path", u, v, self.call("path", engine.path, graph, u, v, query=True)))
            else:
                answers.append(("dist", u, v, self.call("dist", engine.dist, graph, u, v, query=True)))
        return answers

    def certify_answers(self, graph, oracle: np.ndarray, answers: list[tuple]) -> None:
        for kind, u, v, answer in answers:
            if answer is FAILED:
                continue
            if kind == "dist":
                self.certifier.dist(oracle, u, v, answer)
            else:
                self.certifier.path(graph, oracle, u, v, answer)

    def enough(self, steps: int) -> bool:
        return (steps >= self.config.min_requests
                and len(self.query_s) >= self.config.query_window)

    # -- per-workload hooks --------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, index: int) -> None:
        raise NotImplementedError

    def certify(self) -> None:
        raise NotImplementedError

    def engines(self) -> list:
        """The job engines whose counters the trace reports."""
        raise NotImplementedError

    def sim_rounds(self) -> float:
        """Simulated CONGEST-CLIQUE rounds of the loop's solves."""
        return 0.0

    def pool_metrics(self) -> dict[str, float]:
        """Process-pool figures of the loop's jobs (0 without a pool)."""
        return dict.fromkeys((
            "service.jobs.worker_busy_s", "service.jobs.queue_wait_s_p50",
            "service.jobs.attempts_per_job", "service.jobs.cache_hit_ratio"), 0.0)

    def close(self) -> None:
        pass

    def store_stats(self) -> StoreStats:
        return self.engines()[0].store.stats

    def solver_invocations(self) -> int:
        return sum(engine.solver_invocations for engine in self.engines())


class ColdSolve(Workload):
    """Distinct n=48 graphs, alternating density, each solved cold by the
    quantum pipeline through ``QueryEngine.ensure_solved`` with no cache
    directory, then read warm."""

    name = "cold-solve"

    def setup(self) -> None:
        config = self.config
        solver = self.solver or "quantum"
        options = SolveOptions(scale=config.scale, seed=self.seed)
        # One small solve on a throwaway engine finishes lazy imports and
        # first-call work before the loop; its engine is then dropped.
        warmup = random_digraph_no_negative_cycle(
            config.warmup_n, rng=seeded_rng(self.seed, "warmup"))
        try:
            QueryEngine(solver=solver, options=options).ensure_solved(warmup)
        except ReproError:
            pass  # a failing solver is counted in the loop, not here
        self.engine = QueryEngine(solver=solver, options=options)
        self.solved: list[tuple] = []  # (graph, artifact, answers)

    def graph(self, index: int):
        config = self.config
        density = config.cold_densities[index % len(config.cold_densities)]
        return random_digraph_no_negative_cycle(
            config.cold_n, density=density, rng=seeded_rng(self.seed, "graph", index))

    def enough(self, steps: int) -> bool:
        # Whole density pairs only, so both densities weigh equally in the median.
        return super().enough(steps) and steps % len(self.config.cold_densities) == 0

    def step(self, index: int) -> None:
        graph = self.graph(index)
        artifact = self.call("cold solve", self.engine.ensure_solved, graph, request=True)
        if artifact is FAILED:
            return
        answers = self.query_mix(
            self.engine, graph, seeded_rng(self.seed, "queries", index),
            self.config.cold_queries_per_solve, path_share=0.2)
        self.solved.append((graph, artifact, answers))

    def certify(self) -> None:
        digests = [artifact.digest for _, artifact, _ in self.solved]
        self.certifier.check(len(set(digests)) == len(digests), "cold graphs repeated")
        for graph, artifact, answers in self.solved:
            oracle = self.certifier.closure(graph, artifact.distances)
            self.certify_answers(graph, oracle, answers)

    def engines(self) -> list:
        return [self.engine.engine]

    def sim_rounds(self) -> float:
        return float(sum(artifact.rounds for _, artifact, _ in self.solved))


class WarmQuery(Workload):
    """A seeded dist/path/query_batch mix over graphs pre-solved in set-up."""

    name = "warm-query"

    def setup(self) -> None:
        config = self.config
        self.engine = QueryEngine(solver=self.solver or "floyd-warshall")
        self.pool = [
            random_digraph_no_negative_cycle(size, rng=seeded_rng(self.seed, "pool", size, j))
            for size in config.warm_sizes
            for j in range(config.warm_per_size)
        ]
        self.artifacts = [self.engine.ensure_solved(graph) for graph in self.pool]
        self.presolved = self.engine.solver_invocations
        self.rng = seeded_rng(self.seed, "ops")
        self.answers: list[list[tuple]] = [[] for _ in self.pool]

    def step(self, index: int) -> None:
        rng = self.rng
        dist_share, path_share, _ = self.config.warm_mix
        which = int(rng.integers(len(self.pool)))
        graph = self.pool[which]
        n = graph.num_vertices
        roll = rng.random()
        answers = self.answers[which]
        if roll < dist_share + path_share:
            u, v = (int(x) for x in rng.integers(n, size=2))
            kind = "dist" if roll < dist_share else "path"
            fn = self.engine.dist if kind == "dist" else self.engine.path
            answers.append((kind, u, v, self.call(kind, fn, graph, u, v, request=True, query=True)))
            return
        pairs = rng.integers(n, size=(self.config.warm_batch, 2))
        requests = [QueryRequest("dist", int(u), int(v)) for u, v in pairs]
        results = self.call("query_batch", self.engine.query_batch, graph, requests, request=True)
        if results is not FAILED:
            answers.extend(
                ("dist", r.request.u, r.request.v, r.value) for r in results)

    def certify(self) -> None:
        self.certifier.check(
            self.engine.solver_invocations == self.presolved,
            f"{self.engine.solver_invocations - self.presolved} solves in the warm loop")
        for graph, artifact, answers in zip(self.pool, self.artifacts, self.answers):
            oracle = self.certifier.closure(graph, artifact.distances)
            self.certify_answers(graph, oracle, answers)

    def engines(self) -> list:
        return [self.engine.engine]


class BatchServe(Workload):
    """Batches of fresh and repeated n=16 graphs through a shared store.

    A :class:`JobEngine` and a :class:`QueryEngine` share one disk-backed
    :class:`ResultStore` whose memory capacity is below the working set.
    Each batch submits ``batch_fresh`` never-seen and ``batch_repeated``
    already-solved graphs, drains them with ``run_pending_parallel``, and
    then reads answers back for each graph of the batch.
    """

    name = "batch-serve"

    def setup(self) -> None:
        config = self.config
        solver = self.solver or "quantum"
        WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="batch-serve-", dir=WORK_ROOT)
        store = ResultStore(capacity=config.batch_capacity, cache_dir=self.workdir)
        options = SolveOptions(scale=config.scale, seed=self.seed)
        self.jobs = JobEngine(store=store, solver=solver, options=options)
        self.engine = QueryEngine(solver=solver, options=options, store=store)
        self.workers = max(1, min(config.batch_workers, os.cpu_count() or 1))
        self.rng = seeded_rng(self.seed, "batches")
        self.fresh_count = 0
        self.batches: list[list[tuple]] = []  # [(graph, job, answers)] per batch
        self.known = [self.fresh_graph() for _ in range(config.batch_repeated)]
        self.serve(self.known)

    def fresh_graph(self):
        self.fresh_count += 1
        return random_digraph_no_negative_cycle(
            self.config.batch_n, rng=seeded_rng(self.seed, "graph", self.fresh_count))

    def serve(self, graphs: list) -> list:
        """Submit every graph, drain the queue on the pool; the batch's jobs."""
        jobs = [self.jobs.submit(graph) for graph in graphs]
        self.jobs.run_pending_parallel(max_workers=self.workers)
        return jobs

    def step(self, index: int) -> None:
        config = self.config
        picks = self.rng.choice(len(self.known), size=config.batch_repeated, replace=False)
        fresh = [self.fresh_graph() for _ in range(config.batch_fresh)]
        graphs = fresh + [self.known[int(i)] for i in picks]
        graphs = [graphs[int(i)] for i in self.rng.permutation(len(graphs))]
        jobs = self.call("batch", self.serve, graphs, request=True)
        if jobs is FAILED:
            return
        self.known.extend(fresh)
        batch = []
        for graph, job in zip(graphs, jobs):
            rng = seeded_rng(self.seed, "queries", index, len(batch))
            answers = self.query_mix(self.engine, graph, rng,
                                     config.batch_queries_per_graph, path_share=0.2)
            batch.append((graph, job, answers))
        self.batches.append(batch)

    def served_jobs(self) -> list:
        return [job for batch in self.batches for _, job, _ in batch]

    def certify(self) -> None:
        for batch in self.batches:
            for graph, job, answers in batch:
                if not self.certifier.check(job.state is JobState.DONE,
                                            f"{job.job_id} {job.state.value}: {job.error}"):
                    continue
                oracle = self.certifier.closure(graph, job.artifact.distances)
                self.certify_answers(graph, oracle, answers)
        # Only the fresh graphs are solved; a repeated one comes from the store.
        solves = sum(1 for job in self.served_jobs() if not job.cache_hit)
        fresh = self.config.batch_fresh * len(self.batches)
        self.certifier.check(solves == fresh, f"{solves} solves for {fresh} fresh graphs")

    def engines(self) -> list:
        return [self.jobs, self.engine.engine]

    def sim_rounds(self) -> float:
        return float(sum(job.artifact.rounds for job in self.served_jobs()
                         if job.state is JobState.DONE and not job.cache_hit))

    def pool_metrics(self) -> dict[str, float]:
        jobs = self.served_jobs()
        dispatched = [job for job in jobs if not job.cache_hit]
        return {
            "service.jobs.worker_busy_s": sum(job.duration_s for job in dispatched),
            "service.jobs.queue_wait_s_p50": (
                statistics.median(job.queue_wait_s for job in dispatched) if dispatched else 0.0),
            "service.jobs.attempts_per_job": (
                sum(job.attempts for job in dispatched) / len(dispatched) if dispatched else 0.0),
            "service.jobs.cache_hit_ratio": (
                sum(job.cache_hit for job in jobs) / len(jobs) if jobs else 0.0),
        }

    def close(self) -> None:
        for child in multiprocessing.active_children():
            child.join(timeout=60)
            if child.is_alive():
                child.terminate()
                child.join()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


WORKLOADS = {cls.name: cls for cls in (ColdSolve, WarmQuery, BatchServe)}
