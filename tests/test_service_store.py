"""Result store: LRU semantics, persistence, version staleness, atomic
writes."""

from collections import OrderedDict

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.service import ClosureArtifact, ResultStore, graph_digest
from repro.service.solvers import make_solver
from repro.service.store import artifact_checksum


def make_artifact(seed: int, n: int = 8) -> tuple[repro.WeightedDigraph, ClosureArtifact]:
    graph = repro.random_digraph_no_negative_cycle(n, density=0.5, rng=seed)
    outcome = make_solver("floyd-warshall").solve(graph)
    return graph, ClosureArtifact.from_solve(graph, outcome)


class TestArtifact:
    def test_from_solve_is_queryable(self):
        graph, artifact = make_artifact(3)
        truth = repro.floyd_warshall(graph)
        assert np.array_equal(artifact.distances, truth)
        assert artifact.digest == graph_digest(graph)
        assert artifact.version == repro.__version__
        path = repro.reconstruct_path(artifact.successors, 0, 5)
        if path is not None:
            assert repro.path_weight(graph.apsp_matrix(), path) == truth[0, 5]


class TestLru:
    def test_hit_and_miss_counters(self):
        store = ResultStore(capacity=4)
        _, artifact = make_artifact(1)
        assert store.get(artifact.key) is None
        store.put(artifact)
        assert store.get(artifact.key) is artifact
        assert store.stats.misses == 1
        assert store.stats.hits == 1

    def test_eviction_drops_least_recently_used(self):
        store = ResultStore(capacity=2)
        artifacts = [make_artifact(seed)[1] for seed in range(3)]
        store.put(artifacts[0])
        store.put(artifacts[1])
        assert store.get(artifacts[0].key) is artifacts[0]  # refresh 0
        store.put(artifacts[2])  # evicts 1, the LRU entry
        assert store.stats.evictions == 1
        assert artifacts[1].key not in store
        assert store.get(artifacts[0].key) is artifacts[0]
        assert store.get(artifacts[2].key) is artifacts[2]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultStore(capacity=0)


@pytest.fixture(scope="module")
def artifacts():
    """Enough distinct artifacts that small capacities evict often."""
    return [make_artifact(seed)[1] for seed in range(24)]


def op_sequence(artifacts, seed: int, length: int = 120):
    rng = np.random.default_rng(seed)
    verbs = rng.choice(["put", "get"], size=length, p=[0.4, 0.6])
    picks = rng.integers(0, len(artifacts), size=length)
    return [(verb, artifacts[pick]) for verb, pick in zip(verbs, picks)]


def run_store(store: ResultStore, ops) -> list:
    """Apply a (verb, artifact) sequence; record what each get served."""
    served = []
    for verb, artifact in ops:
        if verb == "put":
            store.put(artifact)
        else:
            got = store.get(artifact.key)
            served.append(None if got is None else artifact_checksum(got))
    return served


def run_lru_model(capacity: int, ops) -> tuple[list, dict]:
    """Reference LRU: an OrderedDict where get and put both refresh."""
    entries: OrderedDict = OrderedDict()
    counts = {"hits": 0, "misses": 0, "evictions": 0}
    served = []
    for verb, artifact in ops:
        key = artifact.key
        if verb == "put":
            entries[key] = artifact
            entries.move_to_end(key)
            while len(entries) > capacity:
                entries.popitem(last=False)
                counts["evictions"] += 1
        elif key in entries:
            entries.move_to_end(key)
            counts["hits"] += 1
            served.append(artifact_checksum(entries[key]))
        else:
            counts["misses"] += 1
            served.append(None)
    return served, counts


class TestLruModel:
    """The store is observationally a reference LRU over random put/get
    sequences: same served bytes, hits, misses and evictions."""

    @pytest.mark.parametrize("capacity", [2, 4, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_lru(self, artifacts, capacity, seed):
        ops = op_sequence(artifacts, seed)
        store = ResultStore(capacity=capacity)
        served = run_store(store, ops)
        want_served, want_counts = run_lru_model(capacity, ops)
        assert served == want_served
        stats = store.stats.as_dict()
        assert {name: stats[name] for name in want_counts} == want_counts
        assert stats["disk_loads"] == stats["quarantined"] == 0
        distinct_puts = {a.key for verb, a in ops if verb == "put"}
        assert len(store) == min(capacity, len(distinct_puts))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_unbounded_capacity_never_evicts(self, artifacts, seed):
        ops = op_sequence(artifacts, seed)
        store = ResultStore(capacity=1024)
        assert run_store(store, ops) == run_lru_model(1024, ops)[0]
        assert store.stats.evictions == 0

    @pytest.mark.parametrize("seed", [5, 6])
    def test_write_through_serves_every_put_key(
        self, tmp_path, artifacts, seed
    ):
        """With persistence, an evicted key comes back from disk: every get
        of a key put earlier hits and serves byte-identical content."""
        ops = op_sequence(artifacts, seed)
        store = ResultStore(capacity=2, cache_dir=tmp_path)
        served = run_store(store, ops)
        put_so_far: set = set()
        want = []
        for verb, artifact in ops:
            if verb == "put":
                put_so_far.add(artifact.key)
            else:
                want.append(
                    artifact_checksum(artifact)
                    if artifact.key in put_so_far else None
                )
        assert served == want
        assert store.stats.disk_loads > 0
        assert store.stats.quarantined == store.stats.stale_discards == 0


class TestPersistence:
    def test_round_trip_through_disk(self, tmp_path):
        _, artifact = make_artifact(5)
        ResultStore(cache_dir=tmp_path).put(artifact)
        fresh = ResultStore(cache_dir=tmp_path)
        loaded = fresh.get(artifact.key)
        assert loaded is not None
        assert np.array_equal(loaded.distances, artifact.distances)
        assert np.array_equal(loaded.successors, artifact.successors)
        assert loaded.solver == artifact.solver
        assert fresh.stats.disk_loads == 1
        assert fresh.stats.hits == 1
        # Promoted to memory: the next get does not touch disk again.
        assert fresh.get(artifact.key) is loaded
        assert fresh.stats.disk_loads == 1

    def test_memory_clear_keeps_archives(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        _, artifact = make_artifact(6)
        store.put(artifact)
        store.clear_memory()
        assert len(store) == 0
        assert store.get(artifact.key) is not None

    def test_stale_version_is_discarded(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        _, artifact = make_artifact(7)
        artifact.version = "0.0.0"
        store.put(artifact)
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(artifact.key) is None
        assert fresh.stats.stale_discards == 1
        assert fresh.stats.misses == 1

    def test_stale_discard_reaches_telemetry(self, tmp_path):
        _, artifact = make_artifact(7)
        artifact.version = "0.0.0"
        ResultStore(cache_dir=tmp_path).put(artifact)
        fresh = ResultStore(cache_dir=tmp_path)
        with telemetry.collect() as collector:
            assert fresh.get(artifact.key) is None
            counters = collector.metrics.snapshot()["counters"]
        assert counters["store.stale_discards"] == 1
        assert counters["store.misses"] == 1

    def test_archives_are_flat_digest_solver_npz(self, tmp_path):
        _, artifact = make_artifact(9)
        ResultStore(cache_dir=tmp_path).put(artifact)
        names = [path.name for path in tmp_path.iterdir()]
        assert names == [f"{artifact.digest}.{artifact.solver}.npz"]

    def test_quarantined_archive_sits_beside_original(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        _, artifact = make_artifact(10)
        store.put(artifact)
        path = store._artifact_path(artifact.key)
        path.write_bytes(b"torn archive")
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(artifact.key) is None
        assert fresh.stats.quarantined == 1
        quarantined = path.with_suffix(path.suffix + ".quarantined")
        assert quarantined.exists()
        assert quarantined.parent == path.parent == tmp_path
        assert not path.exists()

    def test_no_cache_dir_means_no_disk(self):
        store = ResultStore()
        _, artifact = make_artifact(8)
        store.put(artifact)
        store.clear_memory()
        assert store.get(artifact.key) is None


class TestAtomicPersist:
    def test_no_temp_files_survive_a_put(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        for seed in range(4):
            store.put(make_artifact(seed)[1])
        leftovers = [
            path for path in tmp_path.rglob("*") if ".tmp" in path.name
        ]
        assert leftovers == []

    def test_interrupted_write_leaves_prior_archive_intact(
        self, tmp_path, monkeypatch
    ):
        """A writer dying mid-write must not tear the existing archive."""
        store = ResultStore(cache_dir=tmp_path)
        _, artifact = make_artifact(3)
        store.put(artifact)
        good_bytes = store._artifact_path(artifact.key).read_bytes()

        def exploding_savez(handle, **kwargs):
            handle.write(b"partial garbage")
            raise OSError("disk vanished mid-write")

        monkeypatch.setattr(np, "savez_compressed", exploding_savez)
        with pytest.raises(OSError):
            store.put(artifact)
        # The final path still holds the previous complete archive and the
        # torn temp file is gone.
        assert store._artifact_path(artifact.key).read_bytes() == good_bytes
        assert not [
            path for path in tmp_path.rglob("*") if ".tmp" in path.name
        ]
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get(artifact.key) is not None
        assert fresh.stats.quarantined == 0
