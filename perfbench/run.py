"""scheme-forge benchmark: one-shot CLI workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each operation is one CLI invocation in a fresh process, started
only after the previous one exited, because users run ``scheme-forge`` one
command at a time and ``build_field``'s in-process cache would otherwise
hide the cost of building the field.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
medians over invocations repeated until ``--seconds`` have passed (at least
MIN_INVOCATIONS of them), and the median import time over several
import-only starts plus every invocation.  With ``--trace 1`` it runs the
command once untraced and once with every layer wrapped in spans
(``layers.py``) and reports the per-layer metrics, the tracing overhead
(traced minus untraced wall time) and the scan rate.

Every invocation passes the output gate: exit code and stdout sha256 equal
the ones recorded in ``workloads.json``.  The seed only permutes the order of
the command's options, which must not change a byte of the output.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 8        # import-only starts per untraced run, after a warm-up
MIN_INVOCATIONS = 2     # per untraced run, even when one outlasts --seconds
INVOKE_TIMEOUT_S = 150  # a hung invocation is killed and counted as failed


@dataclass
class Invocation:
    rc: int
    stdout: bytes
    stderr: bytes
    started: float      # monotonic clock, just before the spawn
    ended: float        # monotonic clock, just after the reap
    cpu_s: float        # user + system time of the child
    peak_rss_mb: float  # the child's own ru_maxrss
    report: dict        # what child.py wrote to its report pipe

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    @property
    def setup_s(self) -> float | None:
        """Spawn until ``scheme_forge.cli`` is imported, read in the child."""
        imported = self.report.get("imported")
        return None if imported is None else imported - self.started


def invoke(mode: str, argv: list[str]) -> Invocation:
    """Spawn child.py, drain its pipes, reap it with wait4 for its rusage."""
    rfd, wfd = os.pipe()
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, str(wfd), mode, *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, pass_fds=(wfd,))
    os.close(wfd)
    chunks: dict[str, bytes] = {}
    readers = [threading.Thread(target=lambda k=k, f=f: chunks.__setitem__(k, f.read()))
               for k, f in (("stderr", proc.stderr),
                            ("report", os.fdopen(rfd, "rb")))]
    killer = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
    for t in (*readers, killer):
        t.start()
    stdout = proc.stdout.read()
    for t in readers:
        t.join()
    _, status, ru = os.wait4(proc.pid, 0)
    ended = time.monotonic()
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    try:
        report = json.loads(chunks["report"] or b"{}")
    except json.JSONDecodeError:
        report = {}
    return Invocation(rc=proc.returncode, stdout=stdout, stderr=chunks["stderr"],
                      started=started, ended=ended, cpu_s=ru.ru_utime + ru.ru_stime,
                      peak_rss_mb=ru.ru_maxrss / 1024, report=report)


def gate(spec: dict, inv: Invocation, src_dir: str) -> str | None:
    """None if the invocation's output is the recorded one, else the reason."""
    module = inv.report.get("module", "")
    if not module.startswith(src_dir + os.sep):
        return f"scheme_forge imported from {module or 'nowhere'}, not {src_dir}"
    if inv.rc != spec["exit_code"]:
        return f"exit code {inv.rc}, expected {spec['exit_code']}"
    digest = hashlib.sha256(inv.stdout).hexdigest()
    if digest != spec["stdout_sha256"]:
        return f"stdout sha256 {digest}, expected {spec['stdout_sha256']}"
    for key, want in spec.get("stdout_json", {}).items():
        got = json.loads(inv.stdout).get(key)
        if got != want:
            return f"stdout {key} = {got!r}, expected {want!r}"
    return None


def command_argv(spec: dict, seed: int) -> list[str]:
    """The workload's command with its options in a seed-chosen order."""
    sub, *pairs = spec["options"]
    random.Random(seed).shuffle(pairs)
    return [sub] + [tok for pair in pairs for tok in pair]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def bench(name: str, spec: dict, seed: int, seconds: float, trace: bool,
          src_dir: str) -> dict:
    argv = command_argv(spec, seed)
    failures: list[str] = []

    def run(mode):
        inv = invoke(mode, argv)
        why = gate(spec, inv, src_dir)
        if why:
            tail = inv.stderr.decode(errors="replace").strip().splitlines()[-3:]
            failures.append(why)
            print(f"GATE FAIL {name} ({mode}): {why}", *tail, sep="\n  ",
                  file=sys.stderr)
        return inv

    probes = [invoke("import", []) for _ in range(1 + (0 if trace else SETUP_PROBES))]
    for p in probes:
        if p.rc != 0 or p.setup_s is None:
            raise SystemExit(f"import probe failed (exit {p.rc}):\n"
                             + p.stderr.decode(errors="replace"))
    env = dict(probes[0].report["env"], nproc=os.cpu_count(),
               affinity=sorted(os.sched_getaffinity(0)), cpu_model=cpu_model())

    plain = []
    least = 1 if trace else MIN_INVOCATIONS
    deadline = time.monotonic() + (0 if trace else seconds)
    while len(plain) < least or time.monotonic() < deadline:
        plain.append(run("plain"))
    runs = list(plain)

    out = {"env": env, "invocations": len(plain)}
    if not trace:
        out["end_to_end"] = {
            "setup_s": statistics.median([i.setup_s for i in probes[1:] + plain
                                          if i.setup_s is not None]),
            "wall_s": statistics.median([i.wall_s for i in plain]),
            "cpu_s": statistics.median([i.cpu_s for i in plain]),
            "peak_rss_mb": statistics.median([i.peak_rss_mb for i in plain]),
        }
    else:
        traced = run("trace")
        runs.append(traced)
        if "metrics" not in traced.report:
            raise SystemExit("traced run reported no metrics:\n"
                             + traced.stderr.decode(errors="replace"))
        layer = dict(traced.report["metrics"])
        untraced_wall = plain[0].wall_s
        checked = spec.get("stdout_json", {}).get("checked", 0)
        layer["search.candidates_per_s"] = checked / untraced_wall
        layer["trace.overhead_s"] = traced.wall_s - untraced_wall
        layer["gate.fail_rate"] = len(failures) / len(runs)
        out["per_layer"] = layer
        out["spans"] = traced.report["spans"]
    out["attempted"] = len(runs)
    out["failed"] = len(failures)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "scheme_forge", "cli.py")):
        print(f"no scheme-forge source under {src_dir}; run from the repo root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = bench(name, workloads[name], args.seed, args.seconds,
                    bool(args.trace), src_dir)
        values = res["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({"workload": name, "env": res["env"],
                          "invocations": res["invocations"]}))
        for m in wanted:
            print(f"{name} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
        if args.trace:
            print(f"{name} spans recorded = {res['spans']}")
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["failed"] == 0
        prefix = f"{name}." if len(names) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
