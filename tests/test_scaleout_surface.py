"""The scale-out surface that is gone stays gone.

Step 3 has one in-process driver (no worker pool behind ``compute_pairs``
or ``run_step3``), the result store has one flat layout (no shards), and
the sweep dispatcher has no knobs beyond its worker count.
"""

import numpy as np
import pytest

import repro
from repro.core.quantum_step3 import run_step3
from repro.parallel import ClassDispatcher, solve_weights_batch
from repro.service import ResultStore


class TestRemovedSurface:
    def test_compute_pairs_takes_no_workers(self):
        with pytest.raises(TypeError, match="workers"):
            repro.compute_pairs(None, rng=0, workers=1)

    def test_step3_takes_no_dispatcher(self):
        with pytest.raises(TypeError, match="dispatcher"):
            run_step3(None, None, None, None, None, rng=0, dispatcher=None)

    def test_store_takes_no_num_shards(self):
        with pytest.raises(TypeError, match="num_shards"):
            ResultStore(num_shards=1)

    def test_dispatcher_takes_no_arena(self):
        with pytest.raises(TypeError, match="arena"):
            ClassDispatcher(1, arena=None)

    def test_sweep_takes_no_chunks_per_worker(self):
        weights = np.zeros((2, 3, 3))
        with pytest.raises(TypeError, match="chunks_per_worker"):
            solve_weights_batch(weights, workers=1, chunks_per_worker=1)

    @pytest.mark.parametrize(
        "argv",
        [["query", "--graph", "graph.npz"], ["serve-batch"]],
        ids=["query", "serve-batch"],
    )
    def test_cli_rejects_shards_flag(self, argv, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        parser.parse_args(argv)
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--shards", "2"])
        assert "--shards" in capsys.readouterr().err
