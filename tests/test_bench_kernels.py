"""Smoke test of benchmarks/bench_kernels.py: its rows run and measure."""

import importlib.util
from pathlib import Path

import pytest

from scheme_forge.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_field_rows_measure(bench):
    assert bench.bench_antilog(3, 5) > 0
    t_block, t_seq, peak = bench.bench_trace_sequence(3, 5)
    assert t_block > 0 and t_seq > 0
    assert peak > 0  # the 121-byte block at least
    seconds, peak = bench.bench_psi(3, 5)
    assert seconds > 0
    assert 242 * 16 / (1 << 20) <= peak < 1  # the complex128 vector, and little more


def test_tally_row_measures(bench):
    # the rate counts L = 29,524 terms a build: one sub-block tallied by
    # (e mod N, t), then folded over the two norm periods
    seconds, peak = bench.bench_tally(3, 10, 8)
    assert seconds > 0
    assert 0 < peak < 1


def test_gauss_direct_row_measures(bench):
    seconds, peak = bench.bench_gauss_direct(3, 5, 11)
    assert seconds > 0
    assert 0 < peak < 1


def test_davenport_hasse_row_measures(bench):
    seconds, peak = bench.bench_davenport_hasse(3, 2, 2, 1)
    assert seconds > 0
    assert 0 < peak < 1


def test_signature_row_measures(bench):
    # the (22, 2, 2) table of {0 | 1..21} on F_{3^5}, and nothing larger
    seconds, cells, peak = bench.bench_signature_rows(
        3, 5, 22, [[0], list(range(1, 22))])
    assert seconds > 0
    assert cells == 22 * 2 * 2
    assert cells * 8 / (1 << 20) <= peak < 1


def test_dual_classes_row_measures(bench):
    # the (2, 8196) int64 table of the order-2 scheme on F_4099, built and
    # grouped: the table and its sorted row keys at least, and below 1 MB
    seconds, peak = bench.bench_dual_classes(4099, 1, 2, [[0], [1]])
    assert seconds > 0
    assert 2 * 2 * 8196 * 8 / (1 << 20) <= peak < 1


def test_verify_stage_rows_measure(bench, tmp_path):
    assert bench.bench_intersection(3, 5, 22) > 0
    assert bench.bench_eigenmatrices(3, 5, 22) > 0
    seconds, nbytes = bench.bench_json_render(3, 5, 22)
    assert seconds > 0
    # the rendered document is the one the verify command writes
    out = tmp_path / "verify.json"
    assert main(["verify", "--p", "3", "--f", "5", "--n", "22", "--parts",
                 "|".join(str(i) for i in range(22)), "--output", str(out)]) == 0
    assert nbytes == out.stat().st_size


def test_scan_row_visits_every_leaf(bench):
    seconds, leaves = bench.bench_search(3, 4)
    assert seconds > 0
    assert leaves == 1 + 127 + 966 + 1701  # partitions of Z_8, <= 4 blocks


def test_closure_rows_measure(bench):
    t_two, n_two, t_meet, n_meet = bench.bench_closure(3, 4)
    assert t_two > 0 and t_meet > 0
    # 14 two-block partitions, one per orbit; meets in two rounds
    assert n_two == 14 and n_meet > 0
