"""``tools/bench_summary.py --check`` on result-row provenance stamps."""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_summary  # noqa: E402

HOST = {"cores": 2, "python": "3.12.1", "numpy": "2.1.0"}


def problems_of(**stamp):
    record = {"experiment": "e1", "commit": "abc1234", "wall_seconds": 0.1, **stamp}
    summary = {"experiments": {"e1_apsp_rounds": [record]}, "trajectory": []}
    return bench_summary.check(summary)


def test_well_typed_and_absent_stamps_pass():
    assert problems_of(dirty=False, host=HOST) == []
    assert problems_of(dirty=True, host=HOST) == []
    assert problems_of() == []  # rows written before the stamp existed


def test_mistyped_dirty_flag_is_flagged():
    (problem,) = problems_of(dirty="no", host=HOST)
    assert "'dirty'" in problem


def test_incomplete_host_is_flagged():
    for host in ({"cores": "2", "python": "3.12.1", "numpy": "2.1.0"},
                 {"cores": 2, "python": "3.12.1"},
                 "2 cores"):
        (problem,) = problems_of(dirty=False, host=host)
        assert "'host'" in problem
