"""The batched RNG consumption contract against the sequential reference.

Step 3 draws all active lanes' corruption flags and measurement batches
from **one** batch generator per class (:mod:`repro.quantum.batched`), and
Step 2 draws its per-segment uniforms in large aligned chunks.  The
sequential reference is :meth:`repro.quantum.multisearch.MultiSearch.run`,
one lane at a time on the generator seeded from that lane's entry of the
Step-3 seed column.  The variates are not byte-identical to it, so
correctness here is *property*-based, with fixed seeds throughout (every
test is deterministic — a pass today is a pass forever):

* surface — there is one draw order: no entry point, solver option or CLI
  flag selects a contract, and no lane carries its own generator;
* validity — everything the batched run reports found is a true solution;
* distributional equivalence — per-search measurement marginals, per-lane
  round charges, and corruption counts match the sequential reference's
  empirical distributions under two-sample χ² tests against committed
  α=0.001 critical values;
* corruption frequency — within the Lemma-5 deviation-bound envelope
  (mean ``Σ δ_r``, 5σ Binomial slack);
* charge identity — for the same schedule the round/ledger charges of a
  full Step-3 (and full ComputePairs) run equal those of running every
  lane through ``MultiSearch.run`` whenever some lane of each class runs
  the whole schedule (every committed simulation-regime table);
* committed-table regression — the production path regenerates every
  committed E1/E11 round value exactly;
* telemetry — the batched draws land on the open span with exact
  per-call/per-element counts, at most three calls per repetition, and a
  traced solve is self-consistent.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.core.constants import PaperConstants
from repro.core.problems import FindEdgesInstance
from repro.core.quantum_step3 import run_step3
from repro.quantum.amplitude import max_iterations
from repro.quantum.batched import BatchedMultiSearch
from repro.quantum.multisearch import MultiSearch, uniform_atypical_mass
from repro.telemetry import report as telemetry_report

from test_step3_equivalence import CONSTANTS, build_env

pytestmark = pytest.mark.rng_contract

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: Upper χ² critical values at α = 0.001 by degrees of freedom — committed
#: constants (no scipy dependency, no tunable threshold at runtime).
CHI2_CRITICAL_001 = {
    1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458,
    7: 24.322, 8: 26.124, 9: 27.877, 10: 29.588, 11: 31.264, 12: 32.909,
}


def chi_square_two_sample(counts_a, counts_b):
    """Two-sample χ² statistic over shared categories (zero cells dropped).

    With unequal totals the standard scaling ``K1 = √(N2/N1)``,
    ``K2 = √(N1/N2)`` applies; df = (number of non-empty cells) − 1.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    k1 = math.sqrt(b.sum() / a.sum())
    k2 = math.sqrt(a.sum() / b.sum())
    stat = float((((k1 * a - k2 * b) ** 2) / (a + b)).sum())
    return stat, a.size - 1


def assert_distributions_close(counts_a, counts_b):
    stat, df = chi_square_two_sample(counts_a, counts_b)
    if df == 0:  # single shared category — identical support, nothing to test
        return
    assert df in CHI2_CRITICAL_001, f"df={df} outside committed table"
    assert stat <= CHI2_CRITICAL_001[df], (stat, df)


def make_lanes(structure_seed, *, num_lanes, max_items=6, max_searches=2,
               solution_rate=0.5, zero_solutions=False):
    """A fixed random lane structure (the *structure* seed is independent of
    the per-run consumption seeds the tests sweep)."""
    rng = np.random.default_rng(structure_seed)
    lanes = []
    for index in range(num_lanes):
        num_items = int(rng.integers(2, max_items + 1))
        num_searches = int(rng.integers(1, max_searches + 1))
        if zero_solutions:
            table = np.zeros((num_searches, num_items), dtype=bool)
        else:
            table = rng.random((num_searches, num_items)) < solution_rate
        lanes.append((f"lane{index}", num_items, table))
    return lanes


def lane_seeds(seed, num_lanes):
    """One seed column drawn from the driver generator, as Step 3 does."""
    return np.random.default_rng(seed).integers(0, 2**63 - 1, size=num_lanes)


def make_batched(lanes, *, seed, beta=None, eval_rounds=2.0,
                 amplification=12.0, batch_rng=None):
    """A batched multi-search set up the way Step 3 sets it up: the seed
    column seeds the class's batch generator (unless ``batch_rng`` is
    given)."""
    batched = BatchedMultiSearch(
        batch_rng=lane_seeds(seed, len(lanes)) if batch_rng is None else batch_rng,
        beta=beta,
        eval_rounds=eval_rounds,
        amplification=amplification,
    )
    for key, num_items, table in lanes:
        batched.add(key, num_items, table)
    return batched


def run_sequential(lanes, schedule, *, seed, beta=None, eval_rounds=2.0,
                   amplification=12.0):
    """The sequential reference: one ``MultiSearch.run`` per lane, lane
    ``i`` on ``default_rng(seed column[i])``."""
    reports = {}
    for (key, num_items, table), lane_seed in zip(
        lanes, lane_seeds(seed, len(lanes))
    ):
        reports[key] = MultiSearch(
            num_items,
            marked_table=table,
            beta=beta,
            eval_rounds=eval_rounds,
            amplification=amplification,
            rng=np.random.default_rng(int(lane_seed)),
        ).run(schedule=schedule)
    return reports


RUNNERS = ("multisearch", "batched")


def run_lanes(runner, lanes, schedule, *, seed, beta):
    if runner == "multisearch":
        return run_sequential(lanes, schedule, seed=seed, beta=beta)
    return make_batched(lanes, seed=seed, beta=beta).run(schedule)


class TestContractSurface:
    """There is one draw order: no entry point takes a contract selector,
    and no lane carries a generator of its own."""

    def test_batched_requires_batch_rng(self):
        with pytest.raises(TypeError, match="batch_rng"):
            BatchedMultiSearch()

    def test_batched_lanes_take_no_generator(self):
        batched = BatchedMultiSearch(batch_rng=0)
        table = np.array([[True, False]])
        with pytest.raises(TypeError, match="rng"):
            batched.add("lane", 2, table, rng=0)
        with pytest.raises(TypeError, match="seeds"):
            batched.add_lanes(
                ["lane"], np.array([2]), np.array([0, 1]), np.array([0]), table,
                seeds=[0],
            )

    def test_step3_takes_no_contract_option(self):
        with pytest.raises(TypeError, match="rng_contract"):
            run_step3(None, None, None, None, None, rng=0, rng_contract="v2")

    def test_compute_pairs_takes_no_contract_option(self):
        with pytest.raises(TypeError, match="rng_contract"):
            repro.compute_pairs(None, constants=None, rng=0, rng_contract="v2")

    def test_find_edges_backends_take_no_contract_option(self):
        for backend in (repro.QuantumFindEdges, repro.GroverFreeFindEdges):
            with pytest.raises(TypeError, match="rng_contract"):
                backend(constants=CONSTANTS, rng=0, rng_contract="v2")

    def test_solver_options_and_capabilities(self):
        from repro.service.solvers import SolveOptions, SolverCapabilities

        assert [f.name for f in dataclasses.fields(SolveOptions)] == [
            "scale", "seed", "min_duration_s",
        ]
        assert "rng_contracts" not in {
            f.name for f in dataclasses.fields(SolverCapabilities)
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["apsp"],
            ["find-edges"],
            ["query", "--graph", "graph.npz"],
            ["serve-batch"],
        ],
        ids=["apsp", "find-edges", "query", "serve-batch"],
    )
    def test_cli_rejects_contract_flag(self, argv, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        parser.parse_args(argv)
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--rng-contract", "v2"])
        assert "--rng-contract" in capsys.readouterr().err


class TestFoundValuesAreSolutions:
    """Validity: every reported element really solves its search."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("beta", [None, 3.0])
    @pytest.mark.parametrize("early_stop", [True, False])
    def test_found_values_solve_their_search(self, seed, beta, early_stop):
        lanes = make_lanes(11, num_lanes=4, max_items=8, solution_rate=0.4)
        batched = make_batched(lanes, seed=seed, beta=beta)
        reports = batched.run([1, 2, 0, 3, 2, 1, 2], early_stop=early_stop)
        for (key, num_items, table) in lanes:
            found = reports[key].found
            for search, element in enumerate(found):
                if element >= 0:
                    assert element < num_items
                    assert table[search, element], (key, search, element)

    def test_zero_solution_lanes_find_nothing(self):
        lanes = make_lanes(13, num_lanes=3, zero_solutions=True)
        batched = make_batched(lanes, seed=0, beta=1.5)
        reports = batched.run([1, 2, 1, 2])
        for key, _items, _table in lanes:
            assert (reports[key].found == -1).all()
            # Never able to finish early → charged the whole schedule.
            assert reports[key].repetitions == 4


class TestMeasurementMarginals:
    """Per-search found-element marginals and per-lane charge distributions
    match the sequential reference's empirically (two-sample χ², N seeds
    per runner)."""

    SCHEDULE = [1, 2, 0, 3, 1, 2, 1, 3]
    NUM_SEEDS = 240

    def collect(self, runner, beta):
        lanes = make_lanes(5, num_lanes=3, max_items=6, max_searches=2)
        # Per (lane, search): histogram over categories {-1, 0, .., items-1}.
        marginals = [
            np.zeros((table.shape[0], num_items + 1), dtype=np.int64)
            for _key, num_items, table in lanes
        ]
        repetition_hist = [
            np.zeros(len(self.SCHEDULE) + 1, dtype=np.int64) for _ in lanes
        ]
        corrupted_hist = [
            np.zeros(len(self.SCHEDULE) + 1, dtype=np.int64) for _ in lanes
        ]
        for seed in range(self.NUM_SEEDS):
            reports = run_lanes(runner, lanes, self.SCHEDULE, seed=seed, beta=beta)
            for index, (key, _items, _table) in enumerate(lanes):
                report = reports[key]
                for search, element in enumerate(report.found):
                    marginals[index][search, element + 1] += 1
                repetition_hist[index][report.repetitions] += 1
                corrupted_hist[index][report.corrupted_repetitions] += 1
        return lanes, marginals, repetition_hist, corrupted_hist

    @pytest.mark.parametrize("beta", [None, 2.0])
    def test_marginals_match_multisearch(self, beta):
        lanes, m1, r1, c1 = self.collect("multisearch", beta)
        _lanes, m2, r2, c2 = self.collect("batched", beta)
        for index in range(len(lanes)):
            for search in range(m1[index].shape[0]):
                assert_distributions_close(m1[index][search], m2[index][search])
            assert_distributions_close(r1[index], r2[index])
            assert_distributions_close(c1[index], c2[index])


class TestCorruptionBounds:
    """Lemma 5 envelope: with zero-solution lanes (full schedule exposure)
    and finite β, corruption counts sit at mean ``Σ δ_r`` within 5σ."""

    SCHEDULE = [1, 1, 2, 1, 1, 2]
    NUM_SEEDS = 150
    BETA = 2.0

    #: Fixed shape chosen so every δ_r sits strictly inside (0, 1):
    #: 3 searches over 10 items at β=2 gives δ ∈ {0.18.., 0.36..}.
    NUM_LANES, NUM_SEARCHES, NUM_ITEMS = 4, 3, 10

    def deltas(self):
        """δ per (lane, repetition): Lemma 5's per-repetition deviation
        bound, ``min(1, 2k·√mass)`` — structural, identical every run."""
        padded_items = self.NUM_ITEMS + 1
        root = math.sqrt(
            uniform_atypical_mass(padded_items, self.NUM_SEARCHES, self.BETA)
        )
        iterations = np.minimum(self.SCHEDULE, max_iterations(padded_items))
        per_rep = np.minimum(1.0, 2.0 * iterations * root)
        return np.tile(per_rep, (self.NUM_LANES, 1))

    def total(self, runner):
        lanes = [
            (
                f"lane{index}",
                self.NUM_ITEMS,
                np.zeros((self.NUM_SEARCHES, self.NUM_ITEMS), dtype=bool),
            )
            for index in range(self.NUM_LANES)
        ]
        total = 0
        for seed in range(self.NUM_SEEDS):
            reports = run_lanes(
                runner, lanes, self.SCHEDULE, seed=seed, beta=self.BETA
            )
            total += sum(reports[key].corrupted_repetitions for key, _i, _t in lanes)
        return total

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_corruption_within_lemma5_envelope(self, runner):
        total, deltas = self.total(runner), self.deltas()
        assert 0.0 < deltas.min() and deltas.max() < 1.0  # non-degenerate
        mean_per_run = float(deltas.sum())
        var_per_run = float((deltas * (1.0 - deltas)).sum())
        expected = self.NUM_SEEDS * mean_per_run
        sigma = math.sqrt(self.NUM_SEEDS * var_per_run)
        assert abs(total - expected) <= 5.0 * sigma, (total, expected, sigma)


class _RecordingGenerator(np.random.Generator):
    """A plain generator's stream that records every draw's method and
    output, so a test can replay the batch generator's consumption."""

    def __init__(self, bit_generator, log):
        super().__init__(bit_generator)
        self._log = log

    def random(self, *args, **kwargs):
        out = super().random(*args, **kwargs)
        self._log.append(("random", np.atleast_1d(out).copy()))
        return out

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self._log.append(("integers", np.atleast_1d(out).copy()))
        return out


class TestZeroSolutionSkip:
    """Zero-solution searches are never drawn, yet charge as before.

    Every lane mixes zero- and one-solution searches (one more lane has
    only zero-solution searches), so no lane can finish early.  The test
    replays the recorded batch-generator log against a reference model of
    one repetition: corruption flags for every active lane, one measurement
    variate per pending search *with a solution* of every non-corrupted
    lane, one slot per hit (slot 0 is the single real solution).
    """

    SCHEDULE = [1, 1, 2, 1, 1, 2, 1, 2]
    #: Per lane: the (search, item) solutions of a 3-search, 10-item table.
    SOLUTIONS = [
        [(1, 1), (2, 5)],
        [(0, 2)],
        [(0, 0), (1, 3)],
        [(2, 9)],
        [],
    ]

    def lanes(self):
        lanes = []
        for index, solutions in enumerate(self.SOLUTIONS):
            table = np.zeros((3, 10), dtype=bool)
            for search, item in solutions:
                table[search, item] = True
            lanes.append((f"lane{index}", 10, table))
        return lanes

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("beta", [None, 2.0])
    def test_draws_cover_pending_nonzero_searches(self, seed, beta):
        lanes = self.lanes()
        seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(lanes))
        log = []
        recording = _RecordingGenerator(
            np.random.default_rng(seeds).bit_generator, log
        )
        batched = make_batched(lanes, seed=seed, beta=beta, batch_rng=recording)
        reports = batched.run(self.SCHEDULE)

        pending = [
            {search for search in range(3) if table[search].any()}
            for _key, _items, table in lanes
        ]
        # With finite β every δ is positive, so no lane can freeze and every
        # lane draws a corruption flag each repetition; with β = None there
        # is no corruption and lanes with nothing left to find are frozen.
        # A measured repetition draws exactly one variate per entry of
        # ``batch`` — possibly none.
        prepared = [
            schedule_values(lane, self.SCHEDULE, beta) for lane in batched._lanes
        ]
        if beta is not None:
            assert all(delta.min() > 0 for _, _, delta in prepared)
        entries = iter(log)
        measured_per_rep = []
        for rep in range(len(self.SCHEDULE)):
            if beta is None:
                measured = [index for index in range(len(lanes)) if pending[index]]
            else:
                method, flags = next(entries)
                assert method == "random" and flags.size == len(lanes)
                measured = [
                    index for index in range(len(lanes))
                    if flags[index] >= prepared[index][2][rep]
                ]
            batch = [(index, s) for index in measured for s in sorted(pending[index])]
            measured_per_rep.append(len(batch))
            if not measured:
                continue
            method, draws = next(entries)
            assert method == "random"
            assert draws.size == len(batch), (rep, draws.size, len(batch))
            hits = []
            for (index, search), draw in zip(batch, draws):
                iters, theta, _delta = prepared[index]
                angle = (2 * iters[rep] + 1) * theta[search]
                if draw < np.sin(angle) ** 2:
                    hits.append((index, search))
            if hits:
                method, slots = next(entries)
                assert method == "integers" and slots.size == len(hits)
                for (index, search), slot in zip(hits, slots):
                    if slot == 0:
                        pending[index].discard(search)
        assert next(entries, None) is None
        assert measured_per_rep[0] > 0

        sequential = run_sequential(lanes, self.SCHEDULE, seed=seed, beta=beta)
        for index, (key, _items, table) in enumerate(lanes):
            report = reports[key]
            unfound = {
                search for search in range(3)
                if report.found[search] < 0 and table[search].any()
            }
            assert unfound == pending[index]
            # A zero-solution search keeps its lane to the full schedule,
            # charged exactly as MultiSearch.run charges it.
            assert report.repetitions == len(self.SCHEDULE)
            assert report.rounds == sequential[key].rounds
            assert report.oracle_calls == sequential[key].oracle_calls
            assert report.repetitions == sequential[key].repetitions


def schedule_values(lane, schedule, beta):
    """A lane's ``(iters, theta, delta)`` under ``schedule``, derived the
    way :meth:`MultiSearch.run` derives them per repetition: BBHT-capped
    iteration counts, Grover angles per search, Lemma 5 deviation bounds."""
    padded_items = lane.num_items + 1
    iters = np.minimum(np.asarray(schedule), max_iterations(padded_items))
    theta = np.arcsin(np.sqrt((lane.counts + 1) / padded_items))
    delta = np.zeros(len(schedule))
    if beta is not None:
        mass = uniform_atypical_mass(padded_items, lane.counts.size, beta)
        delta = np.minimum(1.0, 2.0 * iters * math.sqrt(mass))
    return iters, theta, delta


def run_lanes_sequentially(self, schedule, *, early_stop=True):
    """Stand-in for :meth:`BatchedMultiSearch.run` in the charge-identity
    tests: every lane runs through ``MultiSearch.run`` on the generator its
    entry of the Step-3 seed column (``batch_rng``) seeds."""
    reports = {}
    for lane, lane_seed in zip(self._lanes, np.asarray(self.batch_rng)):
        marked = [
            lane.flat[start:start + count]
            for start, count in zip(lane.starts.tolist(), lane.counts.tolist())
        ]
        # The effective (truncated) solution sets are typical by
        # construction, so MultiSearch keeps them as they are.
        report = MultiSearch(
            lane.num_items,
            marked,
            beta=self.beta,
            eval_rounds=self.eval_rounds,
            amplification=self.amplification,
            rng=np.random.default_rng(int(lane_seed)),
        ).run(schedule=schedule, early_stop=early_stop)
        reports[lane.key] = dataclasses.replace(report, typicality=lane.typicality)
    return reports


def run_step3_once(n, seed):
    network, partitions, assignment, node_pairs = build_env(n, seed, CONSTANTS)
    generator = np.random.default_rng(seed + 77)
    report = run_step3(
        network, partitions, CONSTANTS, assignment, node_pairs,
        rng=generator, search_mode="quantum",
    )
    return (
        report,
        network.ledger.snapshot(),
        generator.random(8),
        network.rng.random(8),
    )


def solve_e11_instance():
    graph = repro.random_undirected_graph(81, density=0.3, max_weight=6, rng=4)
    return repro.compute_pairs(
        FindEdgesInstance(graph), constants=CONSTANTS, rng=4
    )


class TestChargeIdentity:
    """Same schedule ⇒ same round/ledger charges as the sequential reference.

    The driver generator's stream (schedule + seed-column draws) does not
    depend on how the lanes consume their randomness; the *charges*
    additionally agree whenever some lane of each class runs the whole
    schedule — true on all these configs (and every committed
    simulation-regime table)."""

    CASES = [(16, 0), (16, 1), (16, 2), (16, 3), (48, 0), (48, 1), (128, 0)]

    @pytest.mark.parametrize("n,seed", CASES)
    def test_step3_charges_identical(self, n, seed, monkeypatch):
        report1, ledger1, driver1, network1 = run_step3_once(n, seed)
        monkeypatch.setattr(BatchedMultiSearch, "run", run_lanes_sequentially)
        report2, ledger2, driver2, network2 = run_step3_once(n, seed)
        assert report1.eval_rounds_per_alpha == report2.eval_rounds_per_alpha
        assert report1.search_rounds_per_alpha == report2.search_rounds_per_alpha
        assert report1.duplication_per_alpha == report2.duplication_per_alpha
        assert report1.total_searches == report2.total_searches
        assert ledger1 == ledger2
        assert np.array_equal(driver1, driver2)
        assert np.array_equal(network1, network2)

    def test_compute_pairs_charges_identical(self, monkeypatch):
        batched = solve_e11_instance()
        monkeypatch.setattr(BatchedMultiSearch, "run", run_lanes_sequentially)
        sequential = solve_e11_instance()
        assert batched.rounds == sequential.rounds
        assert batched.ledger.snapshot() == sequential.ledger.snapshot()


def load_metrics(name):
    return json.loads((RESULTS / f"{name}.json").read_text())


class TestCommittedTables:
    """The committed benchmark round columns, regenerated in-process by the
    production path."""

    def test_regenerates_e1_rounds(self):
        # Mirrors benchmarks/test_e1_apsp_rounds.py::run_quantum.
        constants = PaperConstants(scale=0.5)
        for row in load_metrics("e1_apsp_rounds"):
            graph = repro.random_digraph_no_negative_cycle(
                row["n"], density=0.5, max_weight=6, rng=7
            )
            backend = repro.QuantumFindEdges(constants=constants, rng=7)
            report = repro.QuantumAPSP(backend=backend).solve(graph)
            assert report.rounds == row["rounds"], row

    def test_regenerates_e11_rounds(self):
        # Mirrors benchmarks/test_e11_scale_sensitivity.py::run_at_scale.
        for row in load_metrics("e11_scale_sensitivity"):
            graph = repro.random_undirected_graph(
                row["n"], density=0.3, max_weight=6, rng=4
            )
            solution = repro.compute_pairs(
                FindEdgesInstance(graph),
                constants=PaperConstants(scale=row["scale"]),
                rng=4,
            )
            assert solution.rounds == row["rounds"], row


class _LoggingGenerator(np.random.Generator):
    """Ground truth for RNG accounting: logs every (method, size) draw while
    producing the byte-identical stream of a plain generator."""

    def __init__(self, bit_generator, log):
        super().__init__(bit_generator)
        self._log = log

    def random(self, *args, **kwargs):
        out = super().random(*args, **kwargs)
        self._log.append(("random", int(np.size(out))))
        return out

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self._log.append(("integers", int(np.size(out))))
        return out


class TestTelemetryAttribution:
    SCHEDULE = [1, 2, 0, 3, 2, 1, 2]

    def test_v2_draws_charged_to_batched_span(self):
        lanes = make_lanes(11, num_lanes=4, max_items=8, solution_rate=0.4)
        seeds = np.random.default_rng(3).integers(0, 2**63 - 1, size=len(lanes))

        # Ground truth: same seed column through a logging generator.
        log = []
        logging_rng = _LoggingGenerator(
            np.random.default_rng(seeds).bit_generator, log
        )
        truth = make_batched(
            lanes, seed=3, beta=2.0, batch_rng=logging_rng
        ).run(self.SCHEDULE)
        assert log, "batched run drew nothing?"

        # Counted run: materialize_rng builds a CountingGenerator from the
        # seed column because a collector is installed.
        with telemetry.collect() as collector:
            counted = make_batched(lanes, seed=3, beta=2.0).run(self.SCHEDULE)
            snapshot = collector.snapshot()

        # Counting is stream-identical: same reports as the ground truth.
        for key, _items, _table in lanes:
            assert np.array_equal(truth[key].found, counted[key].found)
            assert truth[key].rounds == counted[key].rounds
            assert truth[key].corrupted_repetitions == (
                counted[key].corrupted_repetitions
            )

        spans = [s for s in snapshot["spans"] if s["name"] == "quantum.batched_run"]
        assert len(spans) == 1
        span = spans[0]
        assert span["rng_calls"] == len(log)
        assert span["rng_draws"] == sum(size for _method, size in log)
        # ≤ 3 batched calls per repetition: corruption, measurement, slots.
        assert span["rng_calls"] <= 3 * len(self.SCHEDULE)

    def test_v2_solve_snapshot_is_consistent(self):
        with telemetry.collect() as collector:
            graph = repro.random_undirected_graph(
                48, density=0.5, max_weight=7, rng=2
            )
            repro.compute_pairs(
                FindEdgesInstance(graph), constants=CONSTANTS, rng=2
            )
            snapshot = collector.snapshot()
        assert telemetry_report.consistency_problems(snapshot) == []
        assert snapshot["rng"]["calls"] > 0

    def test_batch_generator_calls_per_repetition(self, monkeypatch):
        # The contract's own claim: per executed repetition a class's batch
        # generator makes at most three calls — corruption flags,
        # measurement variates, measurement slots — whatever its lane count.
        classes = []
        batched_run = BatchedMultiSearch.run

        def logged_run(self, schedule, **kwargs):
            log = []
            self.batch_rng = _LoggingGenerator(
                np.random.default_rng(self.batch_rng).bit_generator, log
            )
            reports = batched_run(self, schedule, **kwargs)
            executed = max(report.repetitions for report in reports.values())
            classes.append((len(log), executed, len(self)))
            return reports

        monkeypatch.setattr(BatchedMultiSearch, "run", logged_run)
        graph = repro.random_undirected_graph(81, density=0.3, max_weight=6, rng=4)
        repro.compute_pairs(
            FindEdgesInstance(graph), constants=PaperConstants(scale=0.05), rng=4
        )
        assert classes and all(lanes for _calls, _executed, lanes in classes)
        assert max(lanes for _calls, _executed, lanes in classes) > 3
        for calls, executed, lanes in classes:
            assert 0 < calls <= 3 * executed, (calls, executed, lanes)
