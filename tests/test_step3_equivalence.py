"""Array-backed Step-3 accounting ≡ the preserved dict-walking forms.

The columnar :class:`repro.core.evaluation.QueryPlan` path —
``query_loads``/``evaluation_rounds``/``step0_duplication_loads`` plus the
CSR-domain, bulk-lane ``run_step3`` driver — must reproduce the dict forms
preserved in :mod:`repro.core._reference` *byte for byte*: identical
per-node loads, identical round charges (evaluation, Step-0 duplication,
search phases), identical found pairs and diagnostics, and identically
consumed RNG streams (the driver generator *and* the network generator the
duplication schemes draw their seeds from).

Also here: the classical-ablation properties of satellite 3 —
``_run_class_classical`` finds a superset of the quantum ``found_pairs`` on
the same instance, and its per-class round charge is exactly
``eval_r × max|X|`` under the array-backed ``eval_r``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core import _reference as reference
from repro.core.compute_pairs import _step2_sample
from repro.core.constants import PaperConstants
from repro.core.evaluation import (
    QueryPlan,
    block_two_hop,
    evaluation_rounds,
    query_loads,
    step0_duplication_loads,
)
from repro.core.identify_class import ClassAssignment, run_identify_class
from repro.core.quantum_step3 import run_step3

from test_step2_equivalence import _tripartite_instance as tripartite_instance

SIZES = [16, 48, 128]
CONSTANTS = PaperConstants(scale=0.5)
#: 2^1 / (class_bound_factor · scale · log n) > 1 — forces dup > 1 at n=16.
DUP_CONSTANTS = PaperConstants(scale=0.5, class_bound_factor=0.333)


def build_env(n: int, seed: int, constants: PaperConstants, instance=None):
    """One fully seeded Step-3 input world (network, partitions, assignment,
    node_pairs), built through the real Step-2 and IdentifyClass paths so
    both drivers see identical pipeline state."""
    if instance is None:
        graph = repro.random_undirected_graph(n, density=0.5, max_weight=7, rng=seed)
        instance = repro.FindEdgesInstance(graph)
    graph = instance.graph
    partitions = CliquePartitions(n)
    network = CongestClique(n, rng=seed + 1)
    network.register_scheme("triple", partitions.triple_labels())
    network.register_scheme("search", partitions.search_labels())
    fine_blocks = partitions.fine.blocks()
    cache: dict = {}

    def two_hop_for(bu, bv):
        if (bu, bv) not in cache:
            cache[(bu, bv)] = block_two_hop(
                graph.weights,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )
        return cache[(bu, bv)]

    rng = np.random.default_rng(seed)
    node_pairs, _coverage = _step2_sample(
        network, partitions, instance, constants, rng, two_hop_for
    )
    assignment = run_identify_class(
        network, instance, partitions, constants, two_hop_for, rng
    )
    return network, partitions, assignment, node_pairs


def forced_class_assignment(assignment: ClassAssignment, alpha: int) -> ClassAssignment:
    """Reassign every triple to class ``alpha`` (the Fig. 5 regime)."""
    classes = {label: alpha for label in assignment.classes}
    t_alpha = {
        key: {alpha: sorted({bw for blocks in per.values() for bw in blocks})}
        for key, per in assignment.t_alpha.items()
    }
    return ClassAssignment(classes=classes, t_alpha=t_alpha)


def run_both(n, seed, constants, search_mode, *, force_alpha=None, instance=None):
    outcomes = []
    for driver in (run_step3, reference.run_step3_loops):
        network, partitions, assignment, node_pairs = build_env(
            n, seed, constants, instance
        )
        if force_alpha is not None:
            assignment = forced_class_assignment(assignment, force_alpha)
        if driver is reference.run_step3_loops:
            node_pairs = node_pairs.as_dict()
        generator = np.random.default_rng(seed + 77)
        report = driver(
            network,
            partitions,
            constants,
            assignment,
            node_pairs,
            rng=generator,
            search_mode=search_mode,
        )
        outcomes.append(
            {
                "report": report,
                "ledger": network.ledger.snapshot(),
                "driver_stream": generator.random(16),
                "network_stream": network.rng.random(16),
            }
        )
    return outcomes


def assert_outcomes_identical(array_form, loops_form):
    a, b = array_form["report"], loops_form["report"]
    assert a.found_pairs == b.found_pairs
    assert a.eval_rounds_per_alpha == b.eval_rounds_per_alpha
    assert a.search_rounds_per_alpha == b.search_rounds_per_alpha
    assert a.duplication_per_alpha == b.duplication_per_alpha
    assert a.typicality_truncations == b.typicality_truncations
    assert a.corrupted_repetitions == b.corrupted_repetitions
    assert a.total_searches == b.total_searches
    assert array_form["ledger"] == loops_form["ledger"]
    # Both generators — the driver's (schedule + lane seeds) and the
    # network's (duplication-scheme seeds) — were consumed identically.
    assert np.array_equal(array_form["driver_stream"], loops_form["driver_stream"])
    assert np.array_equal(array_form["network_stream"], loops_form["network_stream"])


class TestRunStep3Equivalence:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_quantum_driver_matches_reference(self, n, seed):
        array_form, loops_form = run_both(n, seed, CONSTANTS, "quantum")
        assert_outcomes_identical(array_form, loops_form)

    @pytest.mark.parametrize("n", SIZES)
    def test_classical_driver_matches_reference(self, n):
        array_form, loops_form = run_both(n, 5, CONSTANTS, "classical")
        assert_outcomes_identical(array_form, loops_form)

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("search_mode", ["quantum", "classical"])
    def test_duplicated_class_matches_reference(self, n, search_mode):
        # Force every triple into class 1 so the Fig. 5 path runs: the dup
        # scheme registration, the prefix map, and the Step-0 charge must
        # all agree (including the network-generator seed draws).
        array_form, loops_form = run_both(
            n, 7, DUP_CONSTANTS, search_mode, force_alpha=1
        )
        report = array_form["report"]
        assert all(dup > 1 for dup in report.duplication_per_alpha.values())
        assert any(
            phase.startswith("step3.alpha1.duplication")
            for phase in array_form["ledger"]
        )
        assert_outcomes_identical(array_form, loops_form)


class TestStep3EquivalenceEdgeCases:
    """The CSR hand-off where it is least regular: scoped instances at
    rate < 1, and lanes whose solutions fail Lemma 3."""

    @pytest.mark.parametrize("m", [10, 27, 48])
    @pytest.mark.parametrize("search_mode", ["quantum", "classical"])
    def test_scoped_rate_below_one(self, m, search_mode):
        # Only the I×J segments hold scope pairs, so every other label is
        # empty, and at rate < 1 the x of one segment keep different
        # numbers of pairs (uneven lanes).
        constants = PaperConstants(scale=0.05)
        instance = tripartite_instance(m, 7)
        assert constants.lambda_rate(3 * m) < 1
        array_form, loops_form = run_both(
            3 * m, 7, constants, search_mode, instance=instance
        )
        _, _, _, node_pairs = build_env(3 * m, 7, constants, instance)
        num_pairs = node_pairs.num_pairs
        assert (num_pairs == 0).any()
        assert len(set(num_pairs[num_pairs > 0].tolist())) > 1
        assert array_form["report"].total_searches > 0
        assert_outcomes_identical(array_form, loops_form)

    @pytest.mark.parametrize("n, scale", [(48, 0.5), (48, 0.05), (81, 0.05)])
    def test_atypical_lanes_fall_back_identically(self, n, scale):
        # A tiny β makes some item solve more than β/2 of a lane's searches
        # (Lemma 3 fails): those lanes take the sequential truncation path.
        constants = PaperConstants(scale=scale, eval_beta_factor=0.5)
        array_form, loops_form = run_both(n, 5, constants, "quantum")
        assert array_form["report"].typicality_truncations > 0
        assert_outcomes_identical(array_form, loops_form)


def random_dict_plan(rng, num_nodes):
    node_physical = {}
    query_plan = {}
    dest_physical = {
        f"d{index}": int(rng.integers(0, num_nodes)) for index in range(12)
    }
    for index in range(int(rng.integers(1, 9))):
        label = f"s{index}"
        node_physical[label] = int(rng.integers(0, num_nodes))
        query_plan[label] = {
            f"d{int(dest)}": int(rng.integers(0, 40))
            for dest in rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
        }
    return node_physical, query_plan, dest_physical


class TestLoadEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("beta", [0.5, 5.0, 17.3, 1000.0])
    def test_query_loads_match_dict_walk(self, seed, beta):
        rng = np.random.default_rng(seed)
        num_nodes = 16
        node_physical, query_plan, dest_physical = random_dict_plan(rng, num_nodes)
        plan = QueryPlan.from_mappings(node_physical, query_plan, dest_physical)
        src, dst = query_loads(num_nodes, plan, beta)
        ref_src, ref_dst = reference.query_loads_dicts(
            num_nodes, node_physical, query_plan, dest_physical, beta
        )
        assert np.array_equal(src, np.asarray(ref_src))
        assert np.array_equal(dst, np.asarray(ref_dst))
        assert evaluation_rounds(num_nodes, plan, beta) == (
            reference.evaluation_rounds_dicts(
                num_nodes, node_physical, query_plan, dest_physical, beta
            )
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_step0_loads_match_dict_walk(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_nodes = 12
        source_physical = {}
        duplicate_physical = {}
        words_per_source = {}
        src_rows, dst_rows, words_rows = [], [], []
        for index in range(int(rng.integers(1, 10))):
            label = f"t{index}"
            host = int(rng.integers(0, num_nodes))
            duplicates = rng.integers(0, num_nodes, size=int(rng.integers(1, 5)))
            words = int(rng.integers(1, 50))
            source_physical[label] = host
            duplicate_physical[label] = duplicates.tolist()
            words_per_source[label] = words
            for phys in duplicates.tolist():
                src_rows.append(host)
                dst_rows.append(phys)
                words_rows.append(words)
        array_rounds = step0_duplication_loads(
            num_nodes,
            np.asarray(src_rows, dtype=np.int64),
            np.asarray(dst_rows, dtype=np.int64),
            np.asarray(words_rows, dtype=np.int64),
        )
        assert array_rounds == reference.step0_duplication_loads_dicts(
            num_nodes, source_physical, duplicate_physical, words_per_source
        )


class TestClassicalAblation:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_classical_finds_superset_of_quantum(self, n, seed):
        results = {}
        for mode in ("quantum", "classical"):
            network, partitions, assignment, node_pairs = build_env(
                n, seed, CONSTANTS
            )
            results[mode] = run_step3(
                network, partitions, CONSTANTS, assignment, node_pairs,
                rng=seed + 1, search_mode=mode,
            )
        # The linear scan is exact on the same domains; Grover can only
        # miss (verification forbids false positives in both modes).
        assert results["quantum"].found_pairs <= results["classical"].found_pairs

    @pytest.mark.parametrize("n", SIZES)
    def test_classical_round_charge_is_eval_r_times_max_domain(self, n):
        network, partitions, assignment, node_pairs = build_env(n, 9, CONSTANTS)
        report = run_step3(
            network, partitions, CONSTANTS, assignment, node_pairs,
            rng=2, search_mode="classical",
        )
        for alpha, eval_r in report.eval_rounds_per_alpha.items():
            max_domain = max(
                (
                    len(assignment.blocks_of_class(bu, bv, alpha))
                    for (bu, bv, _x) in node_pairs.labels.tolist()
                    if assignment.blocks_of_class(bu, bv, alpha)
                ),
                default=0,
            )
            if max_domain == 0:
                assert report.search_rounds_per_alpha[alpha] == 0.0
            else:
                assert report.search_rounds_per_alpha[alpha] == pytest.approx(
                    eval_r * max_domain
                )
