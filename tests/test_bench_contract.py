"""The benchmark's use of the library, checked in the test suite.

`benchmarks/workloads.py` calls `build_report`, `transform_system`, `solve`
and the fixed-step iterates with their own correctness gates (selected k,
error against the reference, measured against predicted rates).  One
in-process `small-sweep` round runs those gates here, so a library change
that breaks one fails the suite, not only a later benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH_DIR))  # workloads.py imports its sibling `tracing`
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return workloads


def test_small_sweep_round_passes_its_checks(workloads, tmp_path):
    wl = workloads.WORKLOADS["small-sweep"](1, tmp_path / "work", tmp_path / "spans")
    wl.prepare()
    rd = wl.round(workloads.NullTracer, False, 0)
    assert rd.failures == []
    assert rd.attempted > 0
    assert rd.runs > 0
    assert all(rd.products[s] > 0 for s in workloads.SCHEMES)
