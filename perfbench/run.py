"""mstd benchmark: one run of one workload.

    python3 perfbench/run.py --workload mc-density --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout root is the parent of this directory and
the library is imported from its ``src/``.  Each workload runs in a
fresh interpreter (worker.py), as a closed loop with one caller that
repeats the workload's fixed job until --seconds have passed.  Set-up
time is the median over several fresh interpreters of launch-to-inputs-
ready.  Every output is checked; failures count in ``failed``.

--trace 0 prints the end-to-end metrics; --trace 1 makes the separate
traced run and prints the per-layer metrics.  The last line of stdout is
one JSON object {correct, attempted, failed, metrics}; the lines above
it list every metric with its unit, then the environment.  Full results
(raw samples, problems, spans) go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

DEADLINE_S = 170  # the whole run must end within 180 s
SETUP_SPAWNS = 9
PROBE_REPS = 3
COLD_CALL = ["classify", "0,2,3,4,7,11,12,14"]
FLOOR_SCAN = "import mstd.search as s, time; t = time.perf_counter(); f = s.min_mstd_diameter(); print(f, time.perf_counter() - t)"


class RunFailed(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _remaining(start):
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise RunFailed("out of time")
    return left


def _worker_cmd(args, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def run_worker(cmd, start) -> tuple[float, str, str]:
    """Start a worker; return (launch-to-ready seconds, rest of stdout, stderr).

    stderr goes to a file so that reading stdout line by line cannot
    block on a full stderr pipe; a timer kills the worker at the deadline.
    """
    with tempfile.TemporaryFile("w+", dir=ROOT / ".bench_out") as err_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err_file, env=_env(), cwd=ROOT, text=True)
        watchdog = threading.Timer(max(_remaining(start), 0), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        err_file.seek(0)
        err = err_file.read()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RunFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return ready, out, err


def time_command(cmd, start) -> tuple[float, str]:
    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=_remaining(start))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{cmd} timed out")
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RunFailed(f"{cmd} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return elapsed, done.stdout


def cli_probes(start, reps, ledger) -> tuple[dict, dict]:
    """Fresh-interpreter probes of import cost, cold CLI calls and the floor scan.

    Returns (values, samples): import costs are differences of medians,
    the other probes keep their samples.
    """
    py = sys.executable

    def med(code):
        return statistics.median(time_command([py, "-c", code], start)[0] for _ in range(reps))

    values, samples = {}, {}
    bare = med("pass")
    values["cli.import_s"] = med("import mstd") - bare
    _, loaded = time_command([py, "-c", "import sys, mstd; print('scipy' in sys.modules)"], start)
    # scipy's import cost, counted only while mstd still loads scipy
    values["cli.import_scipy_s"] = (
        med("import numpy, scipy.integrate") - med("import numpy") if loaded.strip() == "True" else 0.0
    )
    cold, floor = [], []
    for _ in range(reps):
        try:
            elapsed, out = time_command([py, "-m", "mstd.cli", *COLD_CALL], start)
            report = json.loads(out)
            ok = (report["sum_count"], report["diff_count"], report["verdict"]) == (26, 25, "mstd")
            cold.append(elapsed)
            ledger.append(None if ok else f"cold call printed {out.strip()}")
        except (RunFailed, ValueError, KeyError, TypeError) as exc:
            ledger.append(f"cold call: {exc}")
        try:
            _, out = time_command([py, "-c", FLOOR_SCAN], start)
            value, seconds = out.split()
            floor.append(float(seconds))
            ledger.append(None if value == "14" else f"diameter floor {value}, expected 14")
        except (RunFailed, ValueError) as exc:
            ledger.append(f"floor scan: {exc}")
    samples["cli.cold_call_s"] = cold or [0.0]
    samples["search.floor_scan_s"] = floor or [0.0]
    return values, samples


def tail(values):
    """(percentile, value) for the highest of p99.9/p99/p95/p90/p75 with ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return q, cuts[round(q * 10) - 1]
    return None


def environment(load_start) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }


def _loadavg():
    try:
        return os.getloadavg()
    except OSError:
        return None


def measure(args, start) -> dict:
    if not (ROOT / "src" / "mstd" / "__init__.py").is_file():
        raise RunFailed(f"no library source under {ROOT / 'src'}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--smoke"] if args.smoke else []
    # set-up is an end-to-end metric, so only the timed run samples it
    spawns = 1 if args.smoke or args.trace else SETUP_SPAWNS

    def calibrated_setup(ready, report):
        return (ready - report["setup_busy"]) * report["setup_factor"]

    setup, setup_raw = [], []
    for _ in range(spawns - 1):
        ready, out, _ = run_worker(_worker_cmd(args, *extra, "--setup-only"), start)
        setup.append(calibrated_setup(ready, json.loads(out)))
        setup_raw.append(ready)
    worker_extra = list(extra)
    if args.trace:
        worker_extra += ["--spans-out", str(out_dir / f"{tag}-spans.json")]
    if args.inject_fault:
        worker_extra.append("--inject-fault")
    ready, out, err = run_worker(_worker_cmd(args, *worker_extra), start)
    raw = json.loads(out.strip().splitlines()[-1])
    setup.append(calibrated_setup(ready, raw))
    setup_raw.append(ready)

    probe_problems = []
    samples = dict(raw["samples"])
    values = dict(raw["exact"])
    if args.trace:
        probe_values, probe_samples = cli_probes(start, 1 if args.smoke else PROBE_REPS, probe_problems)
        samples.update(probe_samples)
        values.update(probe_values)
        values.update(raw["layer"])
        values["lib.stderr_bytes"] = len(err.encode())
    else:
        samples["setup_s"] = setup
        samples["wall_s"] = [p["wall"] for p in raw["passes"]]
        values["peak_rss_mb"] = raw["passes"][0]["peak_rss_mb"]
    for name, series in samples.items():
        values[name] = statistics.median(series)

    attempted = raw["attempted"] + len(probe_problems)
    failed = raw["failed"] + sum(p is not None for p in probe_problems)
    values["failed_ops_frac"] = failed / attempted
    return {
        "tag": tag,
        "values": values,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": raw["problems"] + [p for p in probe_problems if p],
        "stray_stderr": err[-2000:],
        "setup_raw_s": setup_raw,
        "passes": raw["passes"],
        "inputs": raw["inputs"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="seconds-long job sizes (self-test)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt kernel results through the tracer (self-test; needs --trace 1)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    load_start = _loadavg()
    try:
        run = measure(args, start)
    except (RunFailed, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    catalog = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    emitted = {}
    for name, (unit, _owners) in catalog.items():
        value = run["values"].get(name, 0)
        emitted[name] = {"value": value, "unit": unit}
        line = f"{name:40s} {value!r:>24} {unit}"
        if name in run["samples"]:
            series = run["samples"][name]
            line += f"  median of n={len(series)}"
            top = tail(series)
            if top:
                line += f", p{top[0]:g}={top[1]!r}"
        print(line)
    env = environment(load_start)
    for key, value in env.items():
        print(f"# env {key}: {value}")
    if not args.trace:
        print(f"# raw seconds (uncalibrated): wall_s median {statistics.median(p['wall_raw'] for p in run['passes'])!r}, "
              f"setup_s median {statistics.median(run['setup_raw_s'])!r}")
    for problem in run["problems"][:20]:
        print(f"# check failed: {problem}")

    run["env"] = env
    run["measured"] = sorted(run["values"])
    with open(ROOT / ".bench_out" / f"{run['tag']}.json", "w") as fh:
        json.dump(run, fh, indent=1)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": emitted,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
