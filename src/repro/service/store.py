"""Content-addressed result store: solve once, answer queries forever.

A :class:`ClosureArtifact` bundles everything needed to answer distance and
path queries about one graph — the distance closure, the first-hop
successor matrix, the round charge, and provenance (solver name, library
version).  The :class:`ResultStore` keeps artifacts in memory under their
graph digest with LRU eviction, and can additionally persist them as
``.npz`` archives under a cache directory so closures survive processes.

Archives live flat in the cache directory as ``<digest>.<solver>.npz``.
Writes are atomic (temp file + ``os.replace``), so a crashed writer can
never leave a torn archive.

Persisted artifacts carry ``repro.__version__``; an archive written by a
different library version is treated as stale and ignored on load (counted
in :attr:`StoreStats.stale_discards`), so a cache directory can never serve
closures computed by incompatible code.

Integrity: every persisted archive embeds a content checksum
(:func:`artifact_checksum` — SHA-256 over the provenance fields and the
raw array bytes).  ``_load_from_disk`` recomputes and compares; an archive
that fails to parse, fails the checksum, or is missing fields is
**quarantined** — renamed to ``<name>.quarantined`` beside the original,
counted in :attr:`StoreStats.quarantined` (and the ``store.quarantined``
telemetry counter) — and reported as a miss, so the engine transparently
re-solves instead of serving corrupt distances.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro import telemetry
from repro._version import __version__
from repro.graphs.digraph import WeightedDigraph
from repro.matrix.witness import successor_matrix
from repro.service import faults
from repro.service.hashing import graph_digest
from repro.service.solvers import SolveOutcome

PathLike = Union[str, pathlib.Path]


def _count(name: str) -> None:
    """Mirror a :class:`StoreStats` bump into telemetry when enabled."""
    collector = telemetry.active()
    if collector is not None:
        collector.metrics.inc(name)


def artifact_key(digest: str, solver: str) -> str:
    """The store key of a closure: content address *and* solver name.

    Distances are solver-independent, but the round charge — the paper's
    core metric — is not, so closures computed by different solvers must
    not answer for each other (a cached Floyd–Warshall closure served to a
    ``quantum`` request would report ``rounds=0`` for the quantum solver).
    """
    return f"{digest}:{solver}"


def artifact_checksum(artifact: "ClosureArtifact") -> str:
    """SHA-256 content checksum of an artifact.

    Covers provenance (digest, solver, version, rounds) and the dtype,
    shape, and raw bytes of both matrices, so any bit that matters to a
    served answer is under the hash.  Arrays are made contiguous before
    hashing — the checksum is a function of content, not memory layout.
    """
    hasher = hashlib.sha256()
    hasher.update(
        f"{artifact.digest}|{artifact.solver}|{artifact.version}"
        f"|{artifact.rounds!r}".encode()
    )
    for array in (artifact.distances, artifact.successors):
        array = np.ascontiguousarray(array)
        hasher.update(f"|{array.dtype.str}|{array.shape}|".encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


@dataclass
class ClosureArtifact:
    """A solved APSP instance, ready to serve point queries."""

    digest: str
    distances: np.ndarray
    successors: np.ndarray
    rounds: float
    solver: str
    version: str = __version__

    @property
    def key(self) -> str:
        return artifact_key(self.digest, self.solver)

    @property
    def num_vertices(self) -> int:
        return int(self.distances.shape[0])

    @classmethod
    def from_solve(
        cls, graph: WeightedDigraph, outcome: SolveOutcome
    ) -> "ClosureArtifact":
        """Build an artifact from a solver outcome, deriving the successor
        matrix centrally from the closure (the footnote-1 witness trick)."""
        successors = successor_matrix(graph.apsp_matrix(), outcome.distances)
        return cls(
            digest=graph_digest(graph),
            distances=np.asarray(outcome.distances, dtype=np.float64),
            successors=successors,
            rounds=float(outcome.rounds),
            solver=outcome.solver,
        )


@dataclass
class StoreStats:
    """Counters exposed for tests, benchmarks, and CLI summaries."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_loads: int = 0
    stale_discards: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_loads": self.disk_loads,
            "stale_discards": self.stale_discards,
            "quarantined": self.quarantined,
        }


class ResultStore:
    """LRU cache of closure artifacts keyed by ``digest:solver``
    (:func:`artifact_key`).

    Parameters
    ----------
    capacity:
        Maximum number of artifacts held in memory; the least recently
        *used* (``get`` or ``put``) entry is evicted first.
    cache_dir:
        Optional directory for ``.npz`` persistence.  ``put`` writes
        through; ``get`` falls back to disk on a memory miss and promotes
        the loaded artifact back into memory.
    """

    def __init__(
        self,
        capacity: int = 64,
        cache_dir: Optional[PathLike] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._entries: "OrderedDict[str, ClosureArtifact]" = OrderedDict()
        # Serializes memory lookups, disk loads and write-through.
        self._lock = threading.Lock()
        self.stats = StoreStats()

    # -- core cache operations ----------------------------------------------

    def get(self, key: str) -> Optional[ClosureArtifact]:
        """The artifact stored under :func:`artifact_key` ``key``, or
        ``None`` (counted as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                _count("store.hits")
                return entry
            entry = self._load_from_disk(key)
            if entry is not None:
                self.stats.hits += 1
                self.stats.disk_loads += 1
                _count("store.hits")
                _count("store.disk_loads")
                self._insert(entry)
                return entry
            self.stats.misses += 1
            _count("store.misses")
            return None

    def put(self, artifact: ClosureArtifact) -> None:
        """Insert (or refresh) an artifact; write through to disk if
        persistence is enabled."""
        with self._lock:
            self._insert(artifact)
            if self.cache_dir is not None:
                self._persist(artifact)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear_memory(self) -> None:
        """Drop every in-memory entry (persisted archives are kept)."""
        with self._lock:
            self._entries.clear()

    def _insert(self, artifact: ClosureArtifact) -> None:
        self._entries[artifact.key] = artifact
        self._entries.move_to_end(artifact.key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            _count("store.evictions")

    # -- persistence ---------------------------------------------------------

    def _artifact_path(self, key: str) -> pathlib.Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key.replace(':', '.')}.npz"

    def _persist(self, artifact: ClosureArtifact) -> None:
        """Atomically write-through one artifact.

        The archive is written to a same-directory temp file and moved into
        place with ``os.replace``, so a reader (or the quarantine scan) can
        never observe a torn ``.npz`` — a crashed writer leaves at worst a
        stale temp file that no load path ever opens.
        """
        path = self._artifact_path(artifact.key)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle,
                    distances=artifact.distances,
                    successors=artifact.successors,
                    rounds=np.float64(artifact.rounds),
                    solver=np.str_(artifact.solver),
                    version=np.str_(artifact.version),
                    digest=np.str_(artifact.digest),
                    checksum=np.str_(artifact_checksum(artifact)),
                )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        plane = faults.active()
        if plane is not None:
            plane.maybe_corrupt_file(path)

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a bad archive aside (never served, never re-read) and count
        it; the caller reports a miss so the engine re-solves."""
        target = path.with_suffix(path.suffix + ".quarantined")
        try:
            path.replace(target)
        except OSError:
            # Even unlink-resistant corruption must not take the store
            # down; the miss path already triggers a re-solve.
            pass
        self.stats.quarantined += 1
        _count("store.quarantined")

    def _load_from_disk(self, key: str) -> Optional[ClosureArtifact]:
        if self.cache_dir is None:
            return None
        path = self._artifact_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                version = str(data["version"])
                if version != __version__:
                    self.stats.stale_discards += 1
                    _count("store.stale_discards")
                    return None
                artifact = ClosureArtifact(
                    digest=str(data["digest"]),
                    distances=data["distances"],
                    successors=data["successors"],
                    rounds=float(data["rounds"]),
                    solver=str(data["solver"]),
                    version=version,
                )
                stored = str(data["checksum"])
        except Exception:  # noqa: BLE001 — any parse failure means corruption
            self._quarantine(path)  # unreadable archive
            return None
        if stored != artifact_checksum(artifact):
            self._quarantine(path)  # checksum mismatch
            return None
        return artifact
