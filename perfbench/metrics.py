"""Every metric the benchmark reports: name, unit, and the workloads that
measure it.  BENCHMARK.json lists the same names; the self-test checks
that the two agree.

A per-layer metric is printed on every workload.  On a workload that
does not run its layer it reads 0: that layer did no work there (for
example ``sets.calls.mc``, the contiguous Monte Carlo path, which never
calls the kernel).
"""

from __future__ import annotations

MC = ("mc-density",)
LATTICE = ("lattice-search",)
PRIME = ("prime-pipeline",)
ALL = MC + LATTICE + PRIME
WORKLOADS = ALL

# The rates and times of single workloads (mc_samples_per_s,
# minimal_s, ...) are per-layer here: every end-to-end metric must be
# measured, and never 0, on every workload.
END_TO_END = {
    "setup_s": ("s", ALL),
    "wall_s": ("s", ALL),
    "peak_rss_mb": ("MB", ALL),
}

# phase -> workload, for the phases whose kernel calls go through the
# sum_diff_counts references held by mstd.search and mstd.sequences
KERNEL_PHASES = {"mc": MC, "mc_sparse": MC, "dense": LATTICE, "sparse": LATTICE, "minimal": LATTICE}

CLAIM_OWNERS = {
    "density-4.5e-4": MC,
    "conway-counts": LATTICE,
    "min-size-8": LATTICE,
    "fib-no-mstd": LATTICE,
    "s3-special": LATTICE,
    "tuple-T-admissible": PRIME,
    "p19-prime-mstd": PRIME,
    "hl-twin-ratio": PRIME,
}

TRACED_LAYERS = ("sets", "search", "sequences", "primes", "reproduce", "cli")

PER_LAYER = {
    # workload rates and times, from the untraced passes of a traced run
    "mc_samples_per_s": ("1/s", MC),
    "mc_sparse_samples_per_s": ("1/s", MC),
    "lattice_dense_subsets_per_s": ("1/s", LATTICE),
    "lattice_sparse_subsets_per_s": ("1/s", LATTICE),
    "minimal_s": ("s", LATTICE),
    "match_s": ("s", PRIME),
    "series_s": ("s", PRIME),
    "failed_ops_frac": ("frac", ALL),
    # raw wall seconds of one pass, and the host speed the calibration saw
    "wall_raw_s": ("s", ALL),
    "host.speed_factor": ("x", ALL),
    # sets
    "sets.counts_us.conway.bits": ("us", ALL),
    "sets.counts_us.conway.pairs": ("us", ALL),
    "sets.counts_us.dense50.bits": ("us", ALL),
    "sets.counts_us.dense50.pairs": ("us", ALL),
    "sets.counts_us.sparse.pairs": ("us", ALL),
    "sets.classify_us.s3": ("us", ALL),
    **{f"sets.calls.{p}": ("count", w) for p, w in KERNEL_PHASES.items()},
    **{f"sets.busy_s.{p}": ("s", w) for p, w in KERNEL_PHASES.items()},
    # search
    "search.floor_scan_s": ("s", ALL),
    "search.mc.us_per_sample": ("us", MC),
    "search.mc.sparse_us_per_sample": ("us", MC),
    "search.mc.hit_count": ("count", MC),
    "search.mc.threads2_speedup": ("x", MC),
    "search.lattice.examined": ("count", LATTICE),
    "search.lattice.pruned_frac": ("frac", LATTICE),
    "search.lattice.hit_frac": ("frac", LATTICE),
    "search.lattice.us_per_subset": ("us", LATTICE),
    "search.minimal.examined": ("count", LATTICE),
    "search.minimal.objective_value": ("int", LATTICE),
    "search.minimal.self_s": ("s", LATTICE),
    # sequences
    "sequences.certify_s": ("s", LATTICE),
    "sequences.certify.examined": ("count", LATTICE),
    "sequences.certify.self_s": ("s", LATTICE),
    "sequences.check_growth_s": ("s", LATTICE),
    # primes
    "primes.sieve_s": ("s", PRIME),
    "primes.sieve_bytes.computed": ("bytes", PRIME),
    "primes.match.residual_s": ("s", PRIME),
    "primes.match.count": ("count", PRIME),
    "primes.series_s.tol1e-3": ("s", ALL),
    "primes.series_s.tol1e-5": ("s", PRIME),
    "primes.series.truncation_prime": ("int", PRIME),
    "primes.ap_s": ("s", PRIME),
    "primes.pipeline_s": ("s", PRIME),
    "primes.integration_warnings": ("count", PRIME),
    # reproduce
    **{f"reproduce.claim_s.{c}": ("s", w) for c, w in CLAIM_OWNERS.items()},
    # cli
    "cli.import_s": ("s", ALL),
    "cli.import_scipy_s": ("s", ALL),
    "cli.cold_call_s": ("s", ALL),
    "cli.main_overhead_us": ("us", ALL),
    # the traced run itself
    "trace.overhead_s": ("s", ALL),
    "trace.spans": ("count", ALL),
    **{f"trace.self_s.{layer}": ("s", ALL) for layer in TRACED_LAYERS},
    "lib.warnings": ("count", ALL),
    "lib.stderr_bytes": ("bytes", ALL),
}
