"""Self-test of the benchmark at smoke size (about two minutes).

    python3 perfbench/selftest.py

Checks that:
- BENCHMARK.json names exactly the workloads and metrics of metrics.py,
  with the same units;
- every workload prints every metric with its unit, and measures each
  metric on the workloads that own it;
- the exact counts repeat across two processes at one seed;
- a wrong kernel result injected through the tracer's kernel wrapper is
  counted as failed ops, not reported as a pass;
- without the library source the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

EXACT = {
    "mc-density": "search.mc.hit_count",
    "lattice-search": "search.minimal.examined",
    "prime-pipeline": "primes.match.count",
}


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def result(done):
    if done.returncode != 0:
        raise AssertionError(f"benchmark exited {done.returncode}: {done.stderr[-1000:]}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(last)}")
    return last


def check_manifest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(metrics.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from metrics.WORKLOADS")
    for key, catalog in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        wanted = {name: unit for name, (unit, _) in catalog.items()}
        if listed != wanted:
            raise AssertionError(f"{key} differs: {set(listed) ^ set(wanted)}")


def check_workload(workload):
    counts = []
    for trace, catalog in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER), (1, None)):
        last = result(run(workload, trace))
        if not last["correct"] or last["failed"]:
            raise AssertionError(f"{workload} trace {trace}: {last['failed']} failed ops")
        if trace:
            counts.append(last["metrics"][EXACT[workload]]["value"])
        if catalog is None:
            continue
        emitted = last["metrics"]
        if set(emitted) != set(catalog):
            raise AssertionError(f"{workload} trace {trace}: metrics {set(emitted) ^ set(catalog)}")
        for name, (unit, _) in catalog.items():
            if emitted[name]["unit"] != unit:
                raise AssertionError(f"{name}: unit {emitted[name]['unit']}, expected {unit}")
        measured = set(json.loads((ROOT / ".bench_out" / f"{workload}-seed1-trace{trace}.json").read_text())["measured"])
        missing = [n for n, (_, owners) in catalog.items() if workload in owners and n not in measured]
        if missing:
            raise AssertionError(f"{workload}: not measured: {missing}")
    if counts[0] != counts[1]:
        raise AssertionError(f"{workload}: {EXACT[workload]} {counts[0]} then {counts[1]} at one seed")


def check_fault_injection():
    last = result(run("lattice-search", 1, "--inject-fault"))
    frac = last["metrics"]["failed_ops_frac"]["value"]
    if last["correct"] or last["failed"] == 0 or frac <= 0:
        raise AssertionError(f"injected kernel fault not caught: {last['failed']} failed, frac {frac}")


def check_bare_directory():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run("mc-density", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError("benchmark ran without the library source")


def main() -> int:
    checks = [("manifest", check_manifest)]
    checks += [(f"workload {w}", lambda w=w: check_workload(w)) for w in metrics.WORKLOADS]
    checks += [("fault injection", check_fault_injection), ("bare directory", check_bare_directory)]
    failures = 0
    for name, check in checks:
        try:
            check()
            print(f"ok   {name}")
        except (AssertionError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
