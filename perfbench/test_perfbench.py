"""Self-tests of the benchmark: output gate, span self time, heap peaks.

    python3 -m pytest perfbench -q      (from the repository root)
"""

import hashlib
import json
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import Span, Tracer, replace_everywhere, self_times, traced  # noqa: E402

SRC = os.path.join(ROOT, "src")
SMALL = ["construct", "--kind", "five_class", "--p", "3", "--p1", "11"]


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _spec_for(inv):
    return {"exit_code": inv.rc, "stdout_sha256": hashlib.sha256(inv.stdout).hexdigest()}


def test_gate_catches_one_flipped_byte():
    inv = run.invoke("plain", SMALL)
    assert inv.rc == 0 and inv.stdout
    spec = _spec_for(inv)
    assert run.gate(spec, inv, SRC) is None
    good = inv.stdout
    for pos in (0, len(good) // 2, len(good) - 1):
        inv.stdout = good[:pos] + bytes([good[pos] ^ 0x01]) + good[pos + 1:]
        assert "sha256" in run.gate(spec, inv, SRC)
    inv.stdout = good
    inv.rc = 1
    assert "exit code" in run.gate(spec, inv, SRC)


def test_gate_checks_scan_counts_and_origin():
    doc = {"checked": 5, "found": []}
    stdout = json.dumps(doc).encode()
    inv = run.Invocation(rc=0, stdout=stdout, stderr=b"", started=0.0, ended=1.0,
                         cpu_s=1.0, peak_rss_mb=1.0,
                         report={"module": os.path.join(SRC, "scheme_forge", "cli.py")})
    spec = {"exit_code": 0, "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_json": {"checked": 5, "found": []}}
    assert run.gate(spec, inv, SRC) is None
    spec["stdout_json"]["checked"] = 6
    assert "checked" in run.gate(spec, inv, SRC)
    inv.report["module"] = "/elsewhere/scheme_forge/cli.py"
    assert "imported from" in run.gate(spec, inv, SRC)


def test_seed_changes_option_order_not_meaning():
    from scheme_forge.cli import build_parser

    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    for w in workloads.values():
        parsed = [vars(build_parser().parse_args(run.command_argv(w, s))) for s in range(8)]
        assert all(p == parsed[0] for p in parsed)
        assert len({tuple(run.command_argv(w, s)) for s in range(8)}) > 1
        assert run.command_argv(w, 3) == run.command_argv(w, 3)


def _fake_module():
    """A module whose functions call each other through module globals."""
    mod = types.ModuleType("fakepkg.mod")
    exec(
        "import time\n"
        "def leaf():\n    time.sleep(0.02)\n"
        "def mid():\n    time.sleep(0.01)\n    leaf()\n"
        "def top():\n    mid()\n    time.sleep(0.01)\n    mid()\n",
        mod.__dict__)
    return mod


def test_self_time_is_duration_minus_children(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    tracer = Tracer()
    for name in ("leaf", "mid", "top"):
        assert replace_everywhere(getattr(mod, name),
                                  traced(tracer, name, getattr(mod, name)),
                                  prefix="fakepkg") == 1
    mod.top()
    spans = {s.id: s for s in tracer.spans}
    assert sorted(s.name for s in spans.values()) == ["leaf", "leaf", "mid", "mid", "top"]
    selfs = self_times(spans.values())
    for s in spans.values():
        kids = [c for c in spans.values() if c.parent == s.id]
        assert selfs[s.id] == pytest.approx(s.duration - sum(c.duration for c in kids),
                                            abs=1e-9)
        assert selfs[s.id] > 0
    (top,) = [s for s in spans.values() if s.name == "top"]
    assert len([c for c in spans.values() if c.parent == top.id]) == 2


def test_self_time_counts_overlapping_children_once():
    parent = Span(1, "p", None, 0.0)
    parent.end = 10.0
    kids = []
    for i, (lo, hi) in enumerate([(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)]):
        kid = Span(2 + i, "k", 1, lo)
        kid.end = hi
        kids.append(kid)
    assert self_times([parent, *kids])[1] == pytest.approx(10.0 - 5.0 - 2.0)


def test_heap_peaks_nest():
    tracer = Tracer(heap_spans=("outer", "inner"))

    def inner():
        big = np.ones(8 << 20, dtype=np.uint8)
        return int(big[0])

    def outer():
        keep = np.ones(4 << 20, dtype=np.uint8)
        traced(tracer, "inner", inner)()
        return keep

    traced(tracer, "outer", outer)()
    peaks = {s.name: s.peak_mb for s in tracer.spans}
    assert 8 <= peaks["inner"] < 9
    assert 12 <= peaks["outer"] < 13


def test_traced_run_reports_every_layer_metric():
    inv = run.invoke("trace", SMALL)
    assert inv.rc == 0, inv.stderr.decode()
    metrics = inv.report["metrics"]
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]
    added_by_run = {"search.candidates_per_s", "trace.overhead_s", "gate.fail_rate"}
    assert set(metrics) | added_by_run == {m["name"] for m in declared}
    assert metrics["finite_field.build_field_s"] > 0
    assert metrics["scheme_core.intersection_numbers_peak_mb"] > 0
    assert metrics["finite_field.sub_vec_elements"] > 0
    assert metrics["constructions.five_class_3mod8_self_s"] > 0
    assert metrics["jsonio.dumps_bytes"] == len(inv.stdout)


def test_every_metric_has_a_reason():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    spec = json.load(open(os.path.join(HERE, "workloads.json")))
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert {m["name"] for m in bench["per_layer"]} == set(spec["layer_moves"])


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            (tmp_path / "perfbench" / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    t0 = time.monotonic()
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan-p7-d3",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, timeout=60)
    assert res.returncode != 0
    assert b'"correct"' not in res.stdout
    assert time.monotonic() - t0 < 60
