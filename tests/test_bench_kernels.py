"""Smoke test of benchmarks/bench_kernels.py: its rows run and measure."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_field_rows_measure(bench):
    assert bench.bench_antilog(3, 5) > 0
    assert bench.bench_trace_sequence(3, 5) > 0


def test_scan_row_visits_every_leaf(bench):
    seconds, leaves = bench.bench_search(3, 4)
    assert seconds > 0
    assert leaves == 1 + 127 + 966 + 1701  # partitions of Z_8, <= 4 blocks
