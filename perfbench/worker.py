"""One run of one workload, in a fresh interpreter started by run.py.

Prints "ready" once mstd is imported and the inputs are built (run.py
times set-up up to that line), then runs the workload's fixed job in
passes until the time is up, checks every output, and prints one JSON
line of raw results.  With --trace the time is split between untraced
passes and passes under the span tracer, and the layer probes run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import calibrate
import metrics

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    import mstd

    src = (ROOT / "src").resolve()
    if src not in Path(mstd.__file__).resolve().parents:
        raise SystemExit(f"mstd imported from {mstd.__file__}, not from {src}")


class Ledger:
    """Every library output, grouped by op; decides which ops failed.

    The first output of an op is checked by its oracle; every later
    output of the same op must be byte-identical to it, which is the
    determinism check.  An exception is a failed op.
    """

    def __init__(self):
        self.outputs = defaultdict(list)
        self.checks = {}
        self.problems = []

    def record(self, key, check, output=None, error=None):
        self.checks.setdefault(key, check)
        if error is not None:
            self.problems.append(f"{key}: {type(error).__name__}: {error}")
            self.outputs[key].append(None)
        else:
            self.outputs[key].append(json.dumps(output, sort_keys=True))

    def settle(self) -> tuple[int, int]:
        attempted = failed = 0
        for key, outs in self.outputs.items():
            attempted += len(outs)
            done = [o for o in outs if o is not None]
            failed += len(outs) - len(done)
            if not done:
                continue
            try:
                problems = self.checks[key](json.loads(done[0]))
            except Exception as exc:  # a crashing check is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += len(done)
                self.problems += [f"{key}: {p}" for p in problems[:5]]
            else:
                differ = sum(o != done[0] for o in done)
                failed += differ
                if differ:
                    self.problems.append(f"{key}: {differ} of {len(done)} outputs differ from the first")
        return attempted, failed


class WarningCounter:
    """Counts warnings by phase instead of printing them."""

    def __init__(self):
        self.phase = None
        self.total = Counter()
        self.integration = Counter()

    def show(self, message, category, filename, lineno, file=None, line=None):
        self.total[self.phase] += 1
        if category.__name__ == "IntegrationWarning":
            self.integration[self.phase] += 1


def run_pass(wl, ledger, counter, sampler, tracer=None, index=0) -> dict:
    """One pass of the fixed job; returns per-phase times and work counts.

    ``times`` are calibrated seconds (see calibrate.py), ``raw`` wall seconds.
    """
    spans, units, warned, integration = {}, {}, 0, 0
    for phase in wl.phases:
        counter.phase = phase.name
        before = (sum(counter.total.values()), sum(counter.integration.values()))
        span = None
        if tracer is not None:
            tracer.phase, tracer.pass_index = phase.name, index
            span = tracer.open(f"bench.{phase.name}")
        t0 = time.perf_counter()
        try:
            out, units[phase.name] = phase.run()
            error = None
        except Exception as exc:
            out, error, units[phase.name] = None, exc, 0
        spans[phase.name] = (t0, time.perf_counter())
        if span is not None:
            tracer.close(span)
        warned += sum(counter.total.values()) - before[0]
        integration += sum(counter.integration.values()) - before[1]
        ledger.record(phase.name, phase.check, out, error)
    times = {name: sampler.calibrated(t0, t1) for name, (t0, t1) in spans.items()}
    raw = {name: t1 - t0 for name, (t0, t1) in spans.items()}
    return {"times": times, "raw": raw, "units": units, "wall": sum(times.values()), "wall_raw": sum(raw.values()),
            "warnings": warned, "integration_warnings": integration}


def loop(wl, seconds, ledger, counter, sampler, tracer=None) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(wl, ledger, counter, sampler, tracer, len(passes)))
        if len(passes) == 1:
            # peak memory of set-up plus one pass; later passes only add
            # allocator fragmentation, which varies with the pass count
            passes[0]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= seconds:
            return passes


def _timed(fn, reps):
    out, samples = None, []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - t0)
    return out, samples


def microbench(wl_mod, seed, ledger, samples, smoke) -> dict:
    """Kernel and front-end probes, the same on every workload.

    Adds timing samples to ``samples``; returns the derived values.
    """
    from mstd import cli, primes, sets

    scale = 10 if smoke else 1
    cases = {
        "conway": wl_mod.CONWAY,
        "dense50": tuple(sorted(random.Random(wl_mod.derive(seed, "dense50", 0, 2**31)).sample(range(101), 50))),
        "sparse": tuple(2**k for k in range(1, 31)),
    }
    for case, kernel, reps in [("conway", "bits", 2000), ("conway", "pairs", 2000), ("dense50", "bits", 300),
                               ("dense50", "pairs", 300), ("sparse", "pairs", 300)]:
        elems = cases[case]
        out, times = _timed(lambda: list(sets.sum_diff_counts(elems, kernel=kernel)), reps // scale)
        ledger.record(f"sets.counts.{case}.{kernel}", lambda o, e=elems: (
            [] if tuple(o) == wl_mod.oracles.naive_counts(e) else [f"counts {o}"]), out)
        samples[f"sets.counts_us.{case}.{kernel}"] = [t * 1e6 for t in times]

    s3 = sets.base_expansion(sets.IntSet(wl_mod.CONWAY), 3)
    out, times = _timed(lambda: sets.classify(s3).to_dict(), 50 // scale)
    ledger.record("sets.classify.s3", lambda o: wl_mod.paper_counts(o, s3.elements, (26**3, 25**3)), out)
    samples["sets.classify_us.s3"] = [t * 1e6 for t in times]

    t = primes.PrimeTuple(wl_mod.TUPLE_T)
    out, times = _timed(lambda: primes.singular_series(t, rel_tol=1e-3).to_dict(), 20 // scale)
    ledger.record("primes.series.tol1e-3", lambda o: wl_mod.oracles.check_series(o, wl_mod.TUPLE_T, 1e-3), out)
    samples["primes.series_s.tol1e-3"] = times

    argv = ["classify", ",".join(map(str, wl_mod.CONWAY))]
    sink = io.StringIO()

    def call_main():
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)

    _, main_times = _timed(call_main, 200 // scale)
    _, lib_times = _timed(lambda: sets.classify(sets.IntSet(wl_mod.CONWAY)), 200 // scale)
    printed = json.loads(sink.getvalue().splitlines()[-1])
    ledger.record("cli.main.classify", lambda o: wl_mod.paper_counts(o, wl_mod.CONWAY, (26, 25)), printed)
    return {"cli.main_overhead_us": (statistics.median(main_times) - statistics.median(lib_times)) * 1e6}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(wl, untraced, traced, tracer) -> dict:
    """Per-layer metrics from the untraced passes, the traced passes and the spans."""
    m = {}
    phase_s = {p.name: _median([ps["times"][p.name] for ps in untraced]) for p in wl.phases}
    units = untraced[0]["units"]

    def ratio(a, b):  # a failed phase has no work count; report 0, not a crash
        return a / b if b else 0.0

    def rate(phase):
        return ratio(units[phase], phase_s[phase])

    names = {p.name for p in wl.phases}
    n_traced = len(traced)
    for phase in metrics.KERNEL_PHASES:
        if phase in names:
            calls, busy = tracer.kernel.get(phase, (0, 0.0))
            m[f"sets.calls.{phase}"] = calls / n_traced
            m[f"sets.busy_s.{phase}"] = busy / n_traced

    def dur(s):
        return s["end"] - s["start"]

    def child_time(span, name):
        return sum(dur(c) for c in tracer.children(span) if c["name"] == name)

    if "mc" in names:
        m["mc_samples_per_s"] = rate("mc")
        m["mc_sparse_samples_per_s"] = rate("mc_sparse")
        m["search.mc.us_per_sample"] = ratio(1e6, rate("mc"))
        m["search.mc.sparse_us_per_sample"] = ratio(1e6, rate("mc_sparse"))
    if "dense" in names:
        m["lattice_dense_subsets_per_s"] = rate("dense")
        m["lattice_sparse_subsets_per_s"] = rate("sparse")
        m["minimal_s"] = phase_s["minimal"]
        m["search.lattice.us_per_subset"] = ratio(1e6, rate("dense"))
        m["sequences.certify_s"] = phase_s["sparse"]
        m["search.lattice.pruned_frac"] = 1 - ratio(m["sets.calls.dense"], units["dense"])
        m["search.minimal.self_s"] = _median([tracer.self_time(s) for s in tracer.named("search.minimal_mstd_in", "minimal")])
        certify = tracer.named("sequences.certify_no_mstd", "sparse")
        m["sequences.certify.self_s"] = _median([dur(s) - child_time(s, "search.exhaustive_search") for s in certify])
        m["sequences.check_growth_s"] = _median([dur(s) for s in tracer.named("sequences.check_growth", "sparse")
                                                 if s["parent"] in {c["id"] for c in certify}])
    if "match" in names:
        m["match_s"] = phase_s["match"]
        m["series_s"] = phase_s["series"]
        m["primes.series_s.tol1e-5"] = phase_s["series"]
        m["primes.ap_s"] = phase_s["ap"]
        m["primes.pipeline_s"] = phase_s["pipeline"]
        matches = tracer.named("primes.match_tuple", "match")
        sieves = [c for s in matches for c in tracer.children(s) if c["name"] == "primes.PrimeSieve"]
        m["primes.sieve_s"] = _median([dur(s) for s in sieves])
        m["primes.sieve_bytes.computed"] = sieves[0]["computed_bytes"] if sieves else 0
        m["primes.match.residual_s"] = _median([
            dur(s) - child_time(s, "primes.PrimeSieve") - child_time(s, "primes.singular_series") for s in matches])
        m["primes.integration_warnings"] = untraced[0]["integration_warnings"]
    m["lib.warnings"] = untraced[0]["warnings"]
    m["wall_raw_s"] = _median([p["wall_raw"] for p in untraced])
    m["host.speed_factor"] = _median([p["wall"] / p["wall_raw"] for p in untraced if p["wall_raw"]])
    m["trace.overhead_s"] = _median([p["wall"] for p in traced]) - _median([p["wall"] for p in untraced])
    m["trace.spans"] = len(tracer.spans)
    by_layer = tracer.self_by_layer(n_traced)
    for layer in metrics.TRACED_LAYERS:
        m[f"trace.self_s.{layer}"] = by_layer.get(layer, 0.0)
    return m


def output_metrics(wl, ledger) -> dict:
    """Exact counts read from the checked (first) output of each phase."""
    first = {key: json.loads(outs[0]) for key, outs in ledger.outputs.items() if outs and outs[0]}
    m = {}
    if "mc" in first:
        m["search.mc.hit_count"] = first["mc"]["hit_count"]
    if "dense" in first:
        m["search.lattice.examined"] = first["dense"]["examined"]
        m["search.lattice.hit_frac"] = first["dense"]["hit_count"] / max(first["dense"]["examined"], 1)
    if "minimal" in first:
        m["search.minimal.examined"] = first["minimal"]["examined"]
        m["search.minimal.objective_value"] = first["minimal"]["objective_value"]
    if "sparse" in first:
        m["sequences.certify.examined"] = first["sparse"]["examined"]
    if "match" in first:
        m["primes.match.count"] = first["match"]["count"]
    if "series" in first:
        m["primes.series.truncation_prime"] = first["series"]["truncation_prime"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt every kernel result seen through the tracer (self-test)")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    sampler = calibrate.Sampler()
    sampler.start(calibrate.SETUP_PERIOD_S)
    _import_library()
    import workloads
    from mstd import cli, reproduce

    wl = workloads.build(args.workload, args.seed, args.smoke)
    setup_busy, setup_factor = sampler.correction(0.0, time.perf_counter())
    print("ready", flush=True)
    sampler.stop()
    if args.setup_only:
        print(json.dumps({"setup_busy": setup_busy, "setup_factor": setup_factor}))
        return 0
    sampler.start()

    counter = WarningCounter()
    warnings.simplefilter("always")
    warnings.showwarning = counter.show
    ledger = Ledger()
    result = {"inputs": wl.inputs, "setup_busy": setup_busy, "setup_factor": setup_factor}
    samples = {}

    if not args.trace:
        passes = loop(wl, args.seconds, ledger, counter, sampler)
        sampler.stop()
    else:
        from spans import Tracer

        passes = loop(wl, args.seconds / 2, ledger, counter, sampler)
        corrupt = (lambda elems, counts: (counts[0] + 1, counts[1])) if args.inject_fault else None
        tracer = Tracer(f"{args.workload}/seed{args.seed}/pid{os.getpid()}", corrupt)
        tracer.install()
        try:
            traced = loop(wl, args.seconds / 2, ledger, counter, sampler, tracer)
            sampler.stop()
            tracer.phase, tracer.pass_index = "claims", None
            for claim in wl.claims:
                kwargs = wl.claim_args if claim.startswith("density") else {}
                t0 = time.perf_counter()
                try:
                    out, error = reproduce.run_claim(claim, **kwargs), None
                except Exception as exc:
                    out, error = None, exc
                samples[f"reproduce.claim_s.{claim}"] = [time.perf_counter() - t0]
                ledger.record(f"claim.{claim}", lambda o: [] if o["passed"] else [f"{o['claim']} not passed"],
                              out, error)
            tracer.phase = "cli"
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["classify", ",".join(map(str, workloads.CONWAY))])
        finally:
            tracer.uninstall()
        probes = microbench(workloads, args.seed, ledger, samples, args.smoke)
        result["layer"] = {**layer_metrics(wl, passes, traced, tracer), **probes}
        if args.spans_out:
            tracer.dump(args.spans_out)

    if wl.threads2 is not None:
        # the threads=2 report must equal the threads=1 report of the same
        # phase; the traced run also times a threads=1 rerun right before
        # it, so that the speed-up compares neighbouring moments
        phase = next(p for p in wl.phases if p.name == wl.threads2_phase)
        runs = [phase.run, wl.threads2] if args.trace else [wl.threads2]
        took = []
        for run in runs:
            t0 = time.perf_counter()
            try:
                out, error = run()[0], None
            except Exception as exc:
                out, error = None, exc
            took.append(time.perf_counter() - t0)
            ledger.record(phase.name, phase.check, out, error)
        if args.trace:
            result["layer"]["search.mc.threads2_speedup"] = took[0] / took[1] if out else 0.0

    attempted, failed = ledger.settle()
    result.update({
        "passes": passes,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": ledger.problems[:50],
        "exact": output_metrics(wl, ledger),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
