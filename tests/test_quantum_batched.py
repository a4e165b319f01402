"""BatchedMultiSearch against the sequential MultiSearch reference.

The class-level batching of Step 3 advances every lane off one batch
generator, so its reports match per-node
:meth:`~repro.quantum.multisearch.MultiSearch.run` in distribution rather
than draw for draw (the statistical comparison lives in
``tests/test_rng_contract_v2.py``).  What does hold exactly is
property-tested here across the interesting regimes:

* charges — every lane is charged what ``MultiSearch.run`` charges for the
  repetitions it executed (rounds, oracle calls, fidelity bound), and a
  lane holding a zero-solution search runs the whole schedule exactly like
  ``MultiSearch.run`` does;
* validity — every found value solves its search, and the typicality
  truncation is ``MultiSearch``'s;
* registration — :meth:`~repro.quantum.batched.BatchedMultiSearch.add` and
  :meth:`~repro.quantum.batched.BatchedMultiSearch.add_lanes` give
  identical reports for the same ``batch_rng``.

The regimes: plain searches (``beta=None``) and typical inputs (large
``beta``); zero-solution searches (the lanes that can never early-stop —
the case the freeze fast-path accelerates); atypical solution sets
(``beta`` small enough to truncate); corrupted repetitions (``beta < m`` so
Lemma 5's bound is non-zero); ``early_stop=False``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QuantumSimulationError
from repro.quantum.amplitude import max_iterations
from repro.quantum.batched import BatchedMultiSearch
from repro.quantum.multisearch import MultiSearch


def random_lanes(rng, *, num_lanes, max_items, max_searches, solution_rate):
    """Random per-lane (num_items, marked_table) inputs."""
    lanes = []
    for index in range(num_lanes):
        num_items = int(rng.integers(1, max_items + 1))
        num_searches = int(rng.integers(1, max_searches + 1))
        table = rng.random((num_searches, num_items)) < solution_rate
        lanes.append((f"lane{index}", num_items, table))
    return lanes


def lane_seeds(seed, num_lanes):
    """The per-lane seed column, drawn the way the Step-3 driver draws it."""
    return np.random.default_rng(seed).integers(0, 2**63 - 1, size=num_lanes)


def run_sequential(lanes, schedule, *, beta, eval_rounds, amplification, seed,
                   early_stop=True):
    """The reference: one ``MultiSearch.run`` per lane on its own seed."""
    reports = {}
    for (key, num_items, table), lane_seed in zip(
        lanes, lane_seeds(seed, len(lanes))
    ):
        search = MultiSearch(
            num_items,
            marked_table=table,
            beta=beta,
            eval_rounds=eval_rounds,
            amplification=amplification,
            rng=int(lane_seed),
        )
        reports[key] = search.run(schedule=schedule, early_stop=early_stop)
    return reports


def run_batched(lanes, schedule, *, beta, eval_rounds, amplification, seed,
                early_stop=True):
    batched = BatchedMultiSearch(
        batch_rng=lane_seeds(seed, len(lanes)),
        beta=beta, eval_rounds=eval_rounds, amplification=amplification,
    )
    for key, num_items, table in lanes:
        batched.add(key, num_items, table)
    return batched.run(schedule, early_stop=early_stop)


def assert_matches_sequential(lanes, schedule, batched, sequential, *,
                              beta, eval_rounds, amplification):
    """The exact part of batched ≡ sequential (see the module docstring)."""
    assert sequential.keys() == batched.keys()
    full_lanes = 0
    for key, num_items, table in lanes:
        report, reference = batched[key], sequential[key]
        assert report.typicality == reference.typicality, key
        # Found values solve their search (truncation only drops solutions).
        for search, element in enumerate(report.found):
            if element >= 0:
                assert table[search, element], (key, search, element)
        # The charge of the executed prefix: a zero-solution twin of the
        # lane never stops early, so MultiSearch.run on that prefix charges
        # every repetition of it (and meets the same Lemma-5 bounds).
        prefix = MultiSearch(
            num_items,
            marked_table=np.zeros_like(table),
            beta=beta,
            eval_rounds=eval_rounds,
            amplification=amplification,
            rng=0,
        ).run(schedule=schedule[:report.repetitions])
        assert report.repetitions == prefix.repetitions, key
        assert report.rounds == prefix.rounds, key
        assert report.oracle_calls == prefix.oracle_calls, key
        assert report.fidelity_bound_max == prefix.fidelity_bound_max, key
        if not table.any(axis=1).all():
            # A zero-solution search keeps the lane to the whole schedule
            # under both implementations: identical charges.
            full_lanes += 1
            assert report.repetitions == len(schedule), key
            assert report.repetitions == reference.repetitions, key
            assert report.rounds == reference.rounds, key
            assert report.oracle_calls == reference.oracle_calls, key
            assert report.fidelity_bound_max == reference.fidelity_bound_max, key
    assert full_lanes, "no lane runs the whole schedule"


def assert_reports_identical(a_reports, b_reports):
    assert a_reports.keys() == b_reports.keys()
    for key in a_reports:
        a, b = a_reports[key], b_reports[key]
        assert np.array_equal(a.found, b.found), key
        assert a.rounds == b.rounds, key
        assert a.repetitions == b.repetitions, key
        assert a.oracle_calls == b.oracle_calls, key
        assert a.corrupted_repetitions == b.corrupted_repetitions, key
        assert a.fidelity_bound_max == b.fidelity_bound_max, key
        assert a.typicality == b.typicality, key


BETA_REGIMES = [
    None,          # idealized C_m: no typicality machinery at all
    1000.0,        # typical: no truncation, zero corruption probability
    3.0,           # truncating: solution loads can exceed β/2
]


def check_against_sequential(lanes, schedule, *, seed, early_stop=True, **params):
    sequential = run_sequential(
        lanes, schedule, seed=seed, early_stop=early_stop, **params
    )
    batched = run_batched(
        lanes, schedule, seed=seed, early_stop=early_stop, **params
    )
    assert_matches_sequential(lanes, schedule, batched, sequential, **params)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("beta", BETA_REGIMES)
def test_batched_matches_sequential(seed, beta):
    rng = np.random.default_rng(seed)
    lanes = random_lanes(
        rng, num_lanes=7, max_items=9, max_searches=12, solution_rate=0.25
    )
    cap = max_iterations(max(num_items for _, num_items, _ in lanes) + 1)
    schedule = rng.integers(0, cap + 1, size=25).tolist()
    check_against_sequential(
        lanes, schedule, beta=beta, eval_rounds=1.5, amplification=12.0,
        seed=seed,
    )


def corruption_lanes(rng):
    # beta < m makes the uniform atypical mass positive, so repetitions can
    # be corrupted — the regime where lanes can never freeze.
    lanes = []
    for index in range(4):
        num_items = int(rng.integers(2, 5))
        num_searches = int(rng.integers(20, 40))
        table = rng.random((num_searches, num_items)) < 0.15
        lanes.append((f"lane{index}", num_items, table))
    return lanes


@pytest.mark.parametrize("seed", range(8))
def test_batched_matches_sequential_with_corruption(seed):
    rng = np.random.default_rng(100 + seed)
    lanes = corruption_lanes(rng)
    schedule = rng.integers(0, 4, size=30).tolist()
    check_against_sequential(
        lanes, schedule, beta=8.0, eval_rounds=2.0, amplification=12.0,
        seed=seed,
    )


@pytest.mark.parametrize("seed", range(4))
def test_batched_matches_sequential_no_early_stop(seed):
    rng = np.random.default_rng(200 + seed)
    lanes = random_lanes(
        rng, num_lanes=5, max_items=6, max_searches=8, solution_rate=0.6
    )
    # Search 2 has no solution, which keeps this lane to the whole schedule.
    anchor = np.zeros((3, 6), dtype=bool)
    anchor[0, 2] = anchor[1, 4] = True
    lanes.append(("anchor", 6, anchor))
    schedule = rng.integers(0, 7, size=20).tolist()
    check_against_sequential(
        lanes, schedule, beta=500.0, eval_rounds=1.0, amplification=12.0,
        seed=seed, early_stop=False,
    )


def test_zero_solution_lanes_charge_full_schedule():
    # A lane with no solutions anywhere never finds and never stops early:
    # the freeze fast-path must still charge the whole schedule.
    table = np.zeros((5, 4), dtype=bool)
    batched = BatchedMultiSearch(batch_rng=0, beta=1000.0, eval_rounds=2.0)
    batched.add("empty", 4, table)
    schedule = [1, 2, 0, 3]
    report = batched.run(schedule)["empty"]
    sequential = MultiSearch(
        4, marked_table=table, beta=1000.0, eval_rounds=2.0, rng=0
    ).run(schedule=schedule)
    assert report.rounds == sequential.rounds
    assert report.repetitions == len(schedule)
    assert not report.found_mask().any()


def test_empty_schedule_charges_nothing():
    batched = BatchedMultiSearch(batch_rng=1, beta=100.0)
    batched.add("a", 3, np.ones((2, 3), dtype=bool))
    report = batched.run([])["a"]
    assert report.rounds == 0.0
    assert report.repetitions == 0
    assert report.oracle_calls == 0


def test_duplicate_keys_rejected():
    batched = BatchedMultiSearch(batch_rng=0)
    batched.add("a", 3, np.ones((1, 3), dtype=bool))
    with pytest.raises(QuantumSimulationError):
        batched.add("a", 3, np.ones((1, 3), dtype=bool))


def cell_table_view(lanes):
    """The bulk-registration view of per-lane tables: every search's row in
    one cell table (padded to the widest lane), plus the per-lane
    ``num_items`` and search ``bounds`` and each search's cell."""
    num_items = np.array([items for _, items, _ in lanes], dtype=np.int64)
    bounds = np.zeros(len(lanes) + 1, dtype=np.int64)
    np.cumsum([table.shape[0] for _, _, table in lanes], out=bounds[1:])
    cell_table = np.zeros((int(bounds[-1]), int(num_items.max())), dtype=bool)
    for index, (_, items, table) in enumerate(lanes):
        cell_table[bounds[index]:bounds[index + 1], :items] = table
    return num_items, bounds, np.arange(int(bounds[-1])), cell_table


def run_bulk(lanes, schedule, *, beta, eval_rounds, amplification, seed,
             early_stop=True):
    batched = BatchedMultiSearch(
        batch_rng=lane_seeds(seed, len(lanes)),
        beta=beta, eval_rounds=eval_rounds, amplification=amplification,
    )
    batched.add_lanes([key for key, _, _ in lanes], *cell_table_view(lanes))
    return batched.run(schedule, early_stop=early_stop)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("beta", BETA_REGIMES)
def test_add_lanes_equals_add_loop(seed, beta):
    # Bulk registration from one cell table is bit-identical to the
    # per-label add loop for the same batch_rng — including atypical lanes
    # (beta=3.0 truncates).
    rng = np.random.default_rng(300 + seed)
    lanes = random_lanes(
        rng, num_lanes=7, max_items=9, max_searches=12, solution_rate=0.3
    )
    cap = max_iterations(max(num_items for _, num_items, _ in lanes) + 1)
    schedule = rng.integers(0, cap + 1, size=25).tolist()
    kwargs = dict(beta=beta, eval_rounds=1.5, amplification=12.0, seed=seed)
    assert_reports_identical(
        run_batched(lanes, schedule, **kwargs),
        run_bulk(lanes, schedule, **kwargs),
    )


@pytest.mark.parametrize("seed", range(4))
def test_add_lanes_equals_add_loop_with_corruption(seed):
    rng = np.random.default_rng(400 + seed)
    lanes = corruption_lanes(rng)
    schedule = rng.integers(0, 4, size=30).tolist()
    kwargs = dict(beta=8.0, eval_rounds=2.0, amplification=12.0, seed=seed)
    assert_reports_identical(
        run_batched(lanes, schedule, **kwargs),
        run_bulk(lanes, schedule, **kwargs),
    )


class TestAddLanesValidation:
    def good_inputs(self):
        cell_table = np.zeros((3, 4), dtype=bool)
        cell_table[0, :3] = True
        cell_table[1] = True
        # Lane "a": two searches over cells 0 and 2 (3 items); lane "b":
        # three searches, two of them over the shared cell 1 (4 items).
        return (
            ["a", "b"],
            np.array([3, 4]),
            np.array([0, 2, 5]),
            np.array([0, 2, 1, 1, 2]),
            cell_table,
        )

    def test_accepts_well_formed_table(self):
        batched = BatchedMultiSearch(batch_rng=0, beta=100.0)
        batched.add_lanes(*self.good_inputs())
        assert len(batched) == 2

    def test_shared_cells_equal_the_add_loop(self):
        keys, items, bounds, cells, cell_table = self.good_inputs()
        lanes = [
            (key, int(items[index]),
             cell_table[cells[bounds[index]:bounds[index + 1]], :items[index]])
            for index, key in enumerate(keys)
        ]
        kwargs = dict(beta=100.0, eval_rounds=1.0, amplification=12.0, seed=5)
        schedule = [1, 0, 2, 1, 1]
        bulk = BatchedMultiSearch(
            batch_rng=lane_seeds(5, 2), beta=100.0, eval_rounds=1.0,
        )
        bulk.add_lanes(keys, items, bounds, cells, cell_table)
        assert_reports_identical(
            run_batched(lanes, schedule, **kwargs), bulk.run(schedule)
        )

    def test_rejects_marked_item_outside_window(self):
        keys, items, bounds, cells, cell_table = self.good_inputs()
        cells = cells.copy()
        cells[0] = 1  # cell 1 marks item 3, outside lane a's 3 items
        batched = BatchedMultiSearch(batch_rng=0, beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items, bounds, cells, cell_table)

    def test_rejects_misaligned_columns(self):
        keys, items, bounds, cells, cell_table = self.good_inputs()
        batched = BatchedMultiSearch(batch_rng=0, beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items[:1], bounds, cells, cell_table)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items, bounds, cells[:-1], cell_table)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items, bounds, cells + 3, cell_table)

    def test_rejects_window_larger_than_table(self):
        keys, items, bounds, cells, cell_table = self.good_inputs()
        batched = BatchedMultiSearch(batch_rng=0, beta=100.0)
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(keys, items + 10, bounds, cells, cell_table)

    def test_rejects_duplicate_key_across_paths(self):
        batched = BatchedMultiSearch(batch_rng=0, beta=100.0)
        batched.add("a", 3, np.ones((1, 3), dtype=bool))
        with pytest.raises(QuantumSimulationError):
            batched.add_lanes(*self.good_inputs())

    def test_empty_bulk_is_a_no_op(self):
        batched = BatchedMultiSearch(batch_rng=0, beta=100.0)
        batched.add_lanes(
            [], np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty((0, 1), dtype=bool),
        )
        assert len(batched) == 0
