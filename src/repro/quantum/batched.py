"""Class-level batching of the Step-3 multi-searches.

:class:`~repro.quantum.multisearch.MultiSearch` simulates the ``m`` lockstep
Grover searches of *one* search node.  In Step 3 of ComputePairs every
search node of a class runs its searches against the *same* global iteration
schedule (each Grover step is one application of the network-wide evaluation
procedure), so the natural execution unit is the whole class:
:class:`BatchedMultiSearch` advances every node's BBHT counters
simultaneously, one repetition of the shared schedule at a time.

The batching is an execution reorganization of the same protocol: each lane
runs exactly what :meth:`~repro.quantum.multisearch.MultiSearch.run` runs
for that node on the shared schedule — the same measurement probabilities,
corruption bounds, early stop and charges.  The per-repetition work that
does *not* draw randomness is hoisted out of the loop and vectorized —
success probabilities for all (search, repetition) pairs in one
trigonometric pass over the CSR solution counts, Lemma 5 fidelity deltas
and cumulative round/oracle charges per lane up front — which is where the
speedup comes from: the sequential version recomputes all of it per node
per repetition.

Lanes are registered either one at a time (:meth:`BatchedMultiSearch.add`,
which delegates the CSR layout and the Theorem 3 typicality truncation to
:class:`MultiSearch`) or in bulk (:meth:`BatchedMultiSearch.add_lanes`):
searches that index rows of one shared *cell table*, whose solution counts
and CSR item column are computed once per cell and shared by every lane
that searches the cell, with no per-lane :class:`MultiSearch` (and hence no
per-search Python array list) constructed at all.  Lane state is held
directly on the :class:`_Lane` — effective CSR columns and typicality
report — and both registration paths produce bit-identical runs.

What remains in the lockstep loop is the irreducible randomness.  One
*batch generator* per class — seeded from the per-lane seed column the
Step-3 driver draws — serves every lane: per repetition it draws the
corruption flags for all active lanes in one call, the measurement
variates for every pending search *with at least one solution* of every
non-corrupted lane in one flat call, and the measurement slots for all
hits in one call.  Zero-solution searches are never drawn: their outcome
is deterministic (a measurement can only land on the padding slot, which
verification discards), so they only keep their lane pending — with the
same drop-out, early-stop, freeze and charge behaviour as if they had been
measured.

The sequential reference is :meth:`MultiSearch.run`, one lane at a time on
a private generator.  The batched run consumes randomness in a different
order, so it matches that reference in distribution rather than draw for
draw: per-search marginals, found-value validity and corruption rates
(property-tested against it, e.g. in ``tests/test_quantum_batched.py``),
plus the exact round/oracle charge of every executed repetition, which
depends only on the shared schedule.

Lanes drop out of the active set as they finish (every search found, or the
repetition budget exhausted), mirroring the per-node early stop.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Union

import numpy as np

from repro.errors import QuantumSimulationError
from repro.quantum.amplitude import max_iterations
from repro.quantum.multisearch import (
    MultiSearch,
    MultiSearchReport,
    TypicalityReport,
    solutions_are_typical,
    uniform_atypical_mass,
    untruncated_typicality,
)
from repro import telemetry
from repro.util.rng import SeedLike, materialize_rng

#: Element budget of one ``(lanes, cells)`` membership block in
#: :meth:`BatchedMultiSearch.add_lanes` — bounds the per-lane load product's
#: memory however many lanes share one large cell table.
_LOAD_CHUNK_CELLS = 1 << 20


class _Lane:
    """One search node's registration: its effective (typicality-truncated)
    solution CSR — search ``ℓ``'s solutions are
    ``flat[starts[ℓ] : starts[ℓ] + counts[ℓ]]``, where ``flat`` may be
    shared with other lanes — and its typicality report.  Everything the
    shared schedule determines is computed for all lanes at once in
    :meth:`BatchedMultiSearch._run`.
    """

    __slots__ = ("key", "num_items", "counts", "starts", "flat", "typicality")

    def __init__(
        self,
        key: Hashable,
        num_items: int,
        counts: np.ndarray,
        starts: np.ndarray,
        flat: np.ndarray,
        typicality: TypicalityReport,
    ) -> None:
        self.key = key
        self.num_items = int(num_items)
        self.counts = counts
        self.starts = starts
        self.flat = flat
        self.typicality = typicality

    @classmethod
    def of_search(cls, key: Hashable, search: MultiSearch) -> "_Lane":
        """The lane of a constructed :class:`MultiSearch`."""
        return cls(
            key, search.num_items, search._eff_counts, search._eff_offsets[:-1],
            search._eff_flat, search.typicality,
        )


class BatchedMultiSearch:
    """All search nodes of one class, advanced in vectorized lockstep.

    Parameters mirror :class:`MultiSearch` (``beta``, ``eval_rounds``,
    ``amplification`` are shared by the whole class); lanes are added with
    :meth:`add` (one label at a time) or :meth:`add_lanes` (a shared cell table)
    in the same order the sequential implementation would have constructed
    them.  ``batch_rng`` seeds the class's one batch generator: a
    generator, an integer seed, or — the canonical Step-3 use — the whole
    per-lane seed column.  It materializes at run time, so the decision to
    count its draws follows whatever telemetry collector is installed then.

    Scale-out contract: a class is indivisible.  Every lane draws from the
    shared batch generator (at most three calls per repetition across
    *all* lanes), so splitting a class's lanes across processes would
    change the stream.  Classes are independent, but Step 3 runs them one
    after another in one process: the search is about a third of a
    ComputePairs solve, so dispatching whole classes to a pool can win at
    most ~1.5x, and on a 2-core host it lost at every size measured.
    """

    def __init__(
        self,
        *,
        batch_rng: Union[np.random.Generator, SeedLike],
        beta: Optional[float] = None,
        eval_rounds: float = 1.0,
        amplification: float = 12.0,
    ) -> None:
        self.beta = beta
        self.eval_rounds = float(eval_rounds)
        self.amplification = float(amplification)
        self.batch_rng = batch_rng
        self._lanes: list[_Lane] = []
        self._keys: set[Hashable] = set()

    def __len__(self) -> int:
        return len(self._lanes)

    def add(
        self,
        key: Hashable,
        num_items: int,
        marked_table: np.ndarray,
    ) -> None:
        """Register one search node (its domain size and truth table of
        marked blocks per search) under ``key``.

        Construction delegates to :class:`MultiSearch`, so the CSR layout
        and the Theorem 3 typicality truncation are the sequential ones by
        definition.
        """
        if key in self._keys:
            raise QuantumSimulationError(f"duplicate search-node key {key!r}")
        self._keys.add(key)
        search = MultiSearch(
            num_items,
            marked_table=marked_table,
            beta=self.beta,
            eval_rounds=self.eval_rounds,
            amplification=self.amplification,
        )
        self._lanes.append(_Lane.of_search(key, search))

    def add_lanes(
        self,
        keys: Sequence[Hashable],
        num_items: np.ndarray,
        bounds: np.ndarray,
        cells: np.ndarray,
        cell_table: np.ndarray,
    ) -> None:
        """Register many lanes at once over one shared cell table.

        ``cell_table`` is a boolean ``(C, X)`` truth table whose row ``c``
        marks the solutions of a search over cell ``c``.  Lane ``i`` runs
        ``bounds[i + 1] − bounds[i]`` searches over items
        ``0 .. num_items[i] − 1``; its search ``ℓ`` is over cell
        ``cells[bounds[i] + ℓ]``, and every marked item must lie inside the
        lane's window.  Many lanes may search the same cell — Step 3's lanes
        of one segment all index their segment's kept cells.

        Solution counts and the CSR item column are computed once per cell;
        each search gathers its count and start, and the lanes share the
        item column, so nothing per lane is copied.  Lemma 3's per-lane item
        loads come from one ``(lanes, C) @ (C, X)`` product, in row chunks
        of at most ``_LOAD_CHUNK_CELLS`` membership cells.  The rare
        atypical lane (some item solves more than ``β/2`` of the lane's
        searches) falls back to the sequential truncation machinery,
        keeping the deterministic ``C̃_m`` behaviour bit-identical.
        Property-tested equal to the :meth:`add` loop in
        ``tests/test_quantum_batched.py``.
        """
        num_items = np.asarray(num_items, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        cells = np.asarray(cells, dtype=np.int64)
        cell_table = np.asarray(cell_table, dtype=bool)
        num_lanes = len(keys)
        if (
            cell_table.ndim != 2
            or num_items.shape != (num_lanes,)
            or bounds.shape != (num_lanes + 1,)
            or int(bounds[0]) != 0
            or cells.shape != (int(bounds[-1]),)
        ):
            raise QuantumSimulationError("misaligned bulk-lane arrays")
        if num_lanes == 0:
            return
        if int(cells.min()) < 0 or int(cells.max()) >= cell_table.shape[0]:
            raise QuantumSimulationError("search cell outside the cell table")
        sizes = np.diff(bounds)
        if int(num_items.min()) < 1:
            raise QuantumSimulationError("num_items must be positive")
        if int(sizes.min()) < 1:
            raise QuantumSimulationError("need at least one search per lane")
        if int(num_items.max()) > cell_table.shape[1]:
            raise QuantumSimulationError("lane window exceeds the cell table")

        # Once per cell: solution counts and the row-major CSR item column.
        num_cells = cell_table.shape[0]
        cell_counts = np.count_nonzero(cell_table, axis=1)
        cell_starts = np.zeros(num_cells + 1, dtype=np.int64)
        np.cumsum(cell_counts, out=cell_starts[1:])
        flat = np.nonzero(cell_table)[1]
        marked = cell_counts > 0
        cell_width = np.zeros(num_cells, dtype=np.int64)
        cell_width[marked] = flat[cell_starts[1:][marked] - 1] + 1
        search_lane = np.repeat(np.arange(num_lanes, dtype=np.int64), sizes)
        if (cell_width[cells] > num_items[search_lane]).any():
            raise QuantumSimulationError("a marked item lies outside its lane's window")
        counts = cell_counts[cells]
        starts = cell_starts[cells]

        # Per-lane item loads: cell multiplicities per lane times the table.
        max_loads = np.empty(num_lanes, dtype=np.int64)
        table = cell_table.astype(np.float64)
        step = max(1, _LOAD_CHUNK_CELLS // max(1, num_cells))
        for lo in range(0, num_lanes, step):
            hi = min(num_lanes, lo + step)
            chunk = slice(int(bounds[lo]), int(bounds[hi]))
            membership = np.bincount(
                (search_lane[chunk] - lo) * num_cells + cells[chunk],
                minlength=(hi - lo) * num_cells,
            ).reshape(hi - lo, num_cells)
            max_loads[lo:hi] = (membership @ table).max(axis=1)

        for index, key in enumerate(keys):
            if key in self._keys:
                raise QuantumSimulationError(f"duplicate search-node key {key!r}")
            self._keys.add(key)
            items = int(num_items[index])
            lane = slice(int(bounds[index]), int(bounds[index + 1]))
            max_load = int(max_loads[index])
            if self.beta is not None and not solutions_are_typical(self.beta, max_load):
                # Atypical solutions: delegate the deterministic truncation
                # to the sequential machinery (rare — Lemma 3 failing).
                search = MultiSearch(
                    items,
                    marked_table=cell_table[cells[lane], :items],
                    beta=self.beta,
                    eval_rounds=self.eval_rounds,
                    amplification=self.amplification,
                )
                self._lanes.append(_Lane.of_search(key, search))
                continue
            typicality = untruncated_typicality(
                self.beta, items, int(sizes[index]), max_load
            )
            self._lanes.append(
                _Lane(key, items, counts[lane], starts[lane], flat, typicality)
            )

    def run(
        self,
        schedule: Sequence[int],
        *,
        early_stop: bool = True,
    ) -> dict[Hashable, MultiSearchReport]:
        """Advance every lane through the shared iteration schedule.

        Returns ``{key: report}``; each report is distributed like
        ``MultiSearch(...).run(schedule=schedule)`` on the same lane, with
        the same round/oracle charge for the same number of executed
        repetitions.
        """
        with telemetry.span(
            "quantum.batched_run",
            lanes=len(self._lanes),
            repetitions=len(schedule),
        ):
            return self._run(schedule, early_stop=early_stop)

    def _run(
        self,
        schedule: Sequence[int],
        *,
        early_stop: bool,
    ) -> dict[Hashable, MultiSearchReport]:
        """The lockstep loop: all lanes advance off one batch generator.

        Per repetition at most three generator calls happen, regardless of
        lane count: corruption flags for the active lanes (lane order),
        measurement variates for every pending search with at least one
        solution of every non-corrupted lane (flat ``(lane, search)``
        order), and measurement slots for the hits.  The control flow per
        lane — charge, corrupted skip, empty-pending drop-out, early stop,
        deterministic fast-forward — is that of :meth:`MultiSearch.run`,
        expressed over flat cross-lane arrays instead of a per-lane inner
        loop; zero-solution searches count as pending but never enter the
        measurement batch.
        """
        repetitions = len(schedule)
        lanes = self._lanes
        num_lanes = len(lanes)
        if not num_lanes:
            return {}
        # Everything the shared schedule determines, computed up front as
        # matrices — the values the sequential run recomputes inside its
        # repetition loop.  Iteration counts (clamped to the BBHT cap) and
        # cumulative round/oracle charges depend only on the padded domain
        # size, so they are (domains, repetitions) matrices; cumsum
        # accumulates left to right exactly like `total_rounds +=` did.
        # Lemma 5's per-repetition deviation bounds are (lanes, repetitions).
        padded_items = np.fromiter(
            (lane.num_items + 1 for lane in lanes), dtype=np.int64, count=num_lanes
        )
        sizes = np.fromiter(
            (lane.counts.size for lane in lanes), dtype=np.int64, count=num_lanes
        )
        domains, domain_of = np.unique(padded_items, return_inverse=True)
        iters = np.minimum(
            np.asarray(schedule, dtype=np.int64)[None, :],
            np.array([max_iterations(d) for d in domains.tolist()])[:, None],
        )
        terms = iters + 1
        rounds_cum = np.cumsum(terms * self.eval_rounds, axis=1)
        oracle_cum = np.cumsum(terms, axis=1)
        typical = self.beta is not None
        if typical:
            # One (scipy) mass evaluation per distinct (domain, searches).
            _, first, inverse = np.unique(
                padded_items * (int(sizes.max()) + 1) + sizes,
                return_index=True, return_inverse=True,
            )
            mass = np.array([
                uniform_atypical_mass(int(padded_items[i]), int(sizes[i]), self.beta)
                for i in first.tolist()
            ])[inverse]
            delta_mat = np.minimum(
                1.0, 2.0 * iters[domain_of] * np.sqrt(mass)[:, None]
            )
            # With every deviation bound at zero, repetitions can never be
            # corrupted — together with an empty live set this makes the
            # lane's remaining evolution fully deterministic.
            can_freeze = ~delta_mat.any(axis=1)
        else:
            can_freeze = np.ones(num_lanes, dtype=bool)

        lane_off = np.zeros(num_lanes + 1, dtype=np.int64)
        np.cumsum(sizes, out=lane_off[1:])
        search_lane = np.repeat(np.arange(num_lanes, dtype=np.int64), sizes)
        counts = np.concatenate([lane.counts for lane in lanes])
        padded = counts + 1
        # Grover angle θ = asin(√((count + 1) / padded items)) per (domain,
        # count): probs for repetition k are sin²((2k+1)·θ) — elementwise
        # identical to amplitude.batch_success_probability — so each
        # repetition evaluates one small (domains, counts) table and every
        # measured search gathers its entry.
        grid = np.minimum(np.arange(1, domains[-1] + 1)[None, :], domains[:, None])
        theta = np.arcsin(np.sqrt(grid.astype(np.float64) / domains[:, None]))
        theta_of = domain_of[search_lane] * theta.shape[1] + counts
        live = np.bincount(search_lane[counts > 0], minlength=num_lanes)
        last_rep = np.full(num_lanes, -1, dtype=np.int64)
        corrupted = np.zeros(num_lanes, dtype=np.int64)
        fidelity_max = np.zeros(num_lanes, dtype=np.float64)
        # Measurement slots of found searches; the solution *values* resolve
        # per lane after the loop.
        found_slot = np.full(lane_off[-1], -1, dtype=np.int64)
        # Deterministic lanes (nothing findable, nothing corruptible) charge
        # the full schedule without consuming randomness.
        lane_active = ~(can_freeze & (live == 0))
        if repetitions:
            last_rep[~lane_active] = repetitions - 1
        brng = (
            materialize_rng(self.batch_rng)
            if repetitions and lane_active.any()
            else None
        )
        pending = np.ones(lane_off[-1], dtype=bool)
        pend_count = sizes.copy()
        measuring = np.zeros(num_lanes, dtype=bool)
        # Working set: indices of pending searches with at least one
        # solution in still-active lanes, always ascending — so the
        # measurement batch below keeps the contract's flat (lane, search)
        # draw order while per-repetition work shrinks with completions.
        # Zero-solution searches stay out of it for good: measuring one can
        # only hit the padding slot, so it would consume randomness without
        # any effect.  They still count in ``pend_count``.
        work = np.flatnonzero(counts > 0)
        work_lane = search_lane[work]

        for rep in range(repetitions):
            idx = np.flatnonzero(lane_active)
            if not idx.size:
                break
            last_rep[idx] = rep  # this repetition's charge is incurred
            if typical:
                delta_col = delta_mat[idx, rep]
                fidelity_max[idx] = np.maximum(fidelity_max[idx], delta_col)
                corr = brng.random(idx.size) < delta_col
                if corr.any():
                    # Corrupted repetitions: verification discards them;
                    # the lanes stay active.
                    corrupted[idx[corr]] += 1
                    meas_idx = idx[~corr]
                else:
                    meas_idx = idx
            else:
                meas_idx = idx
            # All found before a corrupted tail repetition: charge this
            # repetition, then stop (same as the sequential drop-out).
            exhausted = pend_count[meas_idx] == 0
            if exhausted.any():
                lane_active[meas_idx[exhausted]] = False
                meas_idx = meas_idx[~exhausted]
            if not meas_idx.size:
                continue
            measuring[:] = False
            measuring[meas_idx] = True
            picked = measuring[work_lane]
            flat = work[picked]
            draws = brng.random(flat.size)
            probs = (np.sin((2 * iters[:, rep, None] + 1) * theta) ** 2).ravel()[
                theta_of[flat]
            ]
            hits = flat[draws < probs]
            if hits.size:
                slots = brng.integers(0, padded[hits])
                real = slots < counts[hits]
                real_hits = hits[real]
                if real_hits.size:
                    found_slot[real_hits] = slots[real]
                    pending[real_hits] = False
                    per_lane = np.bincount(
                        search_lane[real_hits], minlength=num_lanes
                    )
                    pend_count -= per_lane
                    live -= per_lane
            if early_stop:
                done = meas_idx[pend_count[meas_idx] == 0]
                if done.size:
                    lane_active[done] = False  # finished this repetition
            frozen = meas_idx[
                can_freeze[meas_idx]
                & (live[meas_idx] == 0)
                & (pend_count[meas_idx] > 0)
            ]
            if frozen.size:
                # Only zero-solution searches remain and corruption is
                # impossible: fast-forward to the end of the schedule.
                last_rep[frozen] = repetitions - 1
                lane_active[frozen] = False
            keep = pending[work] & lane_active[work_lane]
            work = work[keep]
            work_lane = work_lane[keep]

        reports: dict[Hashable, MultiSearchReport] = {}
        for index, lane in enumerate(lanes):
            slots = found_slot[lane_off[index]:lane_off[index + 1]]
            found = np.full(slots.size, -1, dtype=np.int64)
            local = np.flatnonzero(slots >= 0)
            if local.size:
                found[local] = lane.flat[lane.starts[local] + slots[local]]
            executed = int(last_rep[index]) + 1
            domain = domain_of[index]
            reports[lane.key] = MultiSearchReport(
                found=found,
                rounds=float(rounds_cum[domain, executed - 1]) if executed else 0.0,
                repetitions=executed,
                oracle_calls=int(oracle_cum[domain, executed - 1]) if executed else 0,
                typicality=lane.typicality,
                corrupted_repetitions=int(corrupted[index]),
                fidelity_bound_max=float(fidelity_max[index]),
            )
        return reports
