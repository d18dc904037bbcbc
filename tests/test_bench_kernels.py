"""Smoke test of benchmarks/bench_kernels.py: every stage of its table runs
on a small case and measures."""

import importlib.util
import json
from pathlib import Path

import pytest

from scheme_forge.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "bench_kernels.py"

# small cases of every stage in the table, in its order
SMALL = {
    "modulus_scan": [(3, 5)],
    "norm_stream": [(3, 5)],
    "periods": [(3, 10, 8)],
    "gauss_sums": [(3, 5)],
    "signature_row": [(3, 5, 22)],
    "recheck_batch": [(3, 4)],
    "dual_classes": [(4099, 1, 2)],
    "eigenmatrices": [(3, 5, 22)],
    "intersection_numbers": [(3, 5, 22)],
    "chunks": [("verify", 3, 5, 22), ("search", 3, 4)],
    "search_phase": [("two-block", 3, 4), ("meets", 3, 4), ("recheck", 3, 4)],
}
MB = 1 << 20


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rows(bench):
    """{row name: (stage, seconds, traced peak MB)} of every small case."""
    out = {}
    for name, cases in SMALL.items():
        for case in cases:
            stage = getattr(bench, name)(*case)
            out[stage.name] = (stage, *bench.measure(stage))
    return out


def test_every_table_stage_measures(bench, rows):
    assert list(SMALL) == [make.__name__ for make, _ in bench.TABLE]
    for stage, seconds, peak in rows.values():
        assert seconds > 0 and stage.work > 0, stage.name
        assert (peak is None) == stage.clocked, stage.name
        assert peak is None or peak < 1, stage.name


def test_field_rows_measure(rows):
    assert rows["norm stream F_3^5"][0].work == 121  # L = (q - 1)/(p - 1)
    # the complex128 psi vector transformed in place, and little more
    assert rows["gauss sums F_3^5"][2] >= 242 * 16 / MB


def test_tally_row_measures(rows):
    # L = 29,524 terms: one sub-block tallied, folded over two norm periods
    assert rows["periods F_3^10 N=8"][0].work == 29524


def test_signature_row_measures(rows):
    # the (22, 22, 2) sums of the order-22 scheme on F_{3^5}
    stage, _, peak = rows["signature sums F_3^5 N=22 R=1"]
    assert stage.work == 22 * 22 * 2 and peak >= stage.work * 8 / MB
    # the search's first recheck batch at p = 3, d <= 4: its 19 rows
    stage, _, peak = rows["signature sums F_3^2 N=8 d<=4 R=19"]
    assert stage.work == 19 * 8 * 4 * 2 and peak >= stage.work * 8 / MB


def test_dual_classes_row_measures(rows):
    # the (2, 8196) int64 table of the order-2 scheme on F_4099, built and
    # grouped: the table and its sorted row keys at least
    assert rows["dual classes F_4099^1 N=2"][2] >= 2 * 2 * 8196 * 8 / MB


def test_verify_stage_rows_measure(rows, tmp_path):
    # the pieces laid out are the document the verify command writes
    (stage,) = [s for s, _, _ in rows.values()
                if s.name.startswith("jsonio.chunks verify F_3^5 N=22")]
    out = tmp_path / "verify.json"
    assert main(["verify", "--p", "3", "--f", "5", "--n", "22", "--parts",
                 "|".join(str(i) for i in range(22)), "--output", str(out)]) == 0
    assert stage.work == out.stat().st_size


def test_search_document_row_measures(rows, tmp_path):
    # the pieces laid out are the document the search command writes
    (stage,) = [s for s, _, _ in rows.values()
                if s.name.startswith("jsonio.chunks search p=3 d<=4")]
    out = tmp_path / "search.json"
    assert main(["search-nonexistence", "--p", "3", "--allow-symmetric",
                 "--output", str(out)]) == 0
    assert stage.work == out.stat().st_size


def test_closure_rows_measure(rows):
    # all 2^7 masks of two-block partitions of Z_8 are tested
    assert rows["search two-block p=3 d<=4"][0].work == 128
    assert rows["search meets p=3 d<=4"][0].work > 0


def test_recheck_row_measures(rows):
    # the 19 closed schemes of Z_8 with at most 4 blocks, filters off
    assert rows["search recheck p=3 d<=4"][0].work == 19


ENVIRONMENT = {"python", "numpy", "blas", "blas_threads", "nproc", "cpu",
               "loadavg"}
STAGE = {"stage", "seconds", "peak_mb", "work", "unit"}


def check_bench_document(doc):
    assert set(doc) == {"environment", "src_lines", "stages"}
    env = doc["environment"]
    assert set(env) == ENVIRONMENT and set(env["loadavg"]) == {"start", "end"}
    assert env["nproc"] >= 1 and env["blas_threads"] >= 1
    assert doc["src_lines"] > 0 and doc["stages"]
    for row in doc["stages"]:
        assert set(row) == STAGE and row["seconds"] > 0 and row["work"] > 0


def test_json_document(bench, tmp_path, capsys):
    # one traced row and one the search clocks, which has no peak
    out = tmp_path / "bench.json"
    bench.main(["--json", str(out)],
               table=[(bench.norm_stream, [(3, 5)]),
                      (bench.search_phase, [("recheck", 3, 4)])])
    doc = json.loads(out.read_text())
    check_bench_document(doc)
    names = ["norm stream F_3^5", "search recheck p=3 d<=4"]
    assert [row["stage"] for row in doc["stages"]] == names
    assert [row["peak_mb"] is None for row in doc["stages"]] == [False, True]
    printed = capsys.readouterr().out
    assert all(name in printed for name in names)


def test_committed_json_documents():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        check_bench_document(json.loads(path.read_text()))


def _bench_doc(stages, nproc=2):
    return {"environment": {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
                            "blas_threads": 1, "nproc": nproc, "cpu": "cpu",
                            "loadavg": {"start": [0.5, 0.5, 0.5],
                                        "end": [0.5, 0.5, 0.5]}},
            "src_lines": 100,
            "stages": [{"stage": name, "seconds": seconds, "peak_mb": peak,
                        "work": 1, "unit": "cells"} for name, seconds, peak in stages]}


def test_compare_flags_a_slower_row_and_lists_unmatched_stages(bench, tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(_bench_doc([("a", 1.0, 10.0), ("b", 1.0, 10.0),
                                          ("gone", 1.0, None)])))
    new.write_text(json.dumps(_bench_doc([("a", 1.2, 10.5), ("b", 1.3, 11.5),
                                          ("added", 1.0, None)])))
    assert bench.main(["--compare", str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    (a,) = [line for line in lines if line.startswith("a ")]
    (b,) = [line for line in lines if line.startswith("b ")]
    # 1.2 and 1.05 are within the bounds; 1.3 and 1.15 are above them
    assert a.split()[-2:] == ["10.5", "1.05"] and "1.20" in a.split()
    assert b.split()[-1] == "seconds,peak" and "1.30" in b.split()
    assert f"only in {old}: gone" in lines and f"only in {new}: added" in lines


def test_compare_refuses_another_core_count(bench, tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(_bench_doc([("a", 1.0, 10.0)])))
    new.write_text(json.dumps(_bench_doc([("a", 1.0, 10.0)], nproc=4)))
    assert bench.main(["--compare", str(old), str(new)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "refused: nproc is 2" in err
