"""The three workloads: inputs derived from the seed, the phases of each
workload's fixed job, and the check applied to every phase output.

Every library call goes through a module attribute (``search.minimal_mstd_in``),
so the tracer's patches see it.  A phase returns a JSON-safe output and
its work count (samples or subsets); its check returns a list of
problems, empty when the output is right.

Values marked REGRESSION were read from the seed commit and are not
oracles: they pin an exact count that has no cheaper independent check.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles
from mstd import primes, search, sequences, sets

# 30-fold dilation of the minimal MSTD pattern (the paper's tuple T).
TUPLE_T = (0, 60, 90, 120, 210, 330, 360, 420)
CONWAY = (0, 2, 3, 4, 7, 11, 12, 14)

# Job sizes.  "full" is what the benchmark measures; "smoke" is the
# seconds-long variant the self-test runs.
SIZES = {
    "full": {
        "mc_n": 100,
        "mc_samples": 2 * oracles.MC_CHUNK,  # two chunks, so threads=2 splits the job
        "mc_sparse_primes_below": 200,
        "mc_sparse_samples": oracles.MC_CHUNK,
        "dense_span": 26,
        "dense_n": 20,
        "dense_size": 10,
        "sparse_upto": 18,
        "sparse_budget": 200_000,
        "minimal_primes_upto": 439,
        "minimal_expect": {"examined": 2068457, "objective_value": 73},  # REGRESSION
        "match_x": 10**8,
        "match_expect_count": 57,  # REGRESSION
        "series_tol": 1e-5,
        "ap": (12, 10**5),
        "ap_expect": [4943, 60060],  # REGRESSION
        "pipeline_x": (9 * 10**6, 10**7),  # narrow, so the seed moves the position, not the work
    },
    "smoke": {
        "mc_n": 100,
        "mc_samples": oracles.MC_CHUNK + 1024,
        "mc_sparse_primes_below": 200,
        "mc_sparse_samples": 4096,
        "dense_span": 18,
        "dense_n": 12,
        "dense_size": 6,
        "sparse_upto": 12,
        "sparse_budget": 200_000,
        "minimal_primes_upto": None,  # ground {0..19} instead of primes
        "minimal_expect": {"examined": 6, "objective_value": 14},  # REGRESSION
        "match_x": 10**6,
        "match_expect_count": 13,  # REGRESSION
        "series_tol": 1e-5,
        "ap": (10, 10**4),
        "ap_expect": [199, 210],  # REGRESSION
        "pipeline_x": (10**4, 10**5),
    },
}

HIT_CAP = search.DEFAULT_HIT_CAP
CERTIFY_R = 4

# Pinned reproduce claims, each run in the workload whose layers it uses.
CLAIMS = {
    "mc-density": ["density-4.5e-4"],
    "lattice-search": ["conway-counts", "min-size-8", "fib-no-mstd", "s3-special"],
    "prime-pipeline": ["tuple-T-admissible", "p19-prime-mstd", "hl-twin-ratio"],
}


def derive(seed: int, tag: str, lo: int, hi: int) -> int:
    """A value in [lo, hi) fixed by (seed, tag), the same on every platform."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return lo + int.from_bytes(digest[:8], "little") % (hi - lo)


@dataclass
class Phase:
    name: str
    run: Callable[[], tuple[dict, int]]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    name: str
    phases: list[Phase]
    inputs: dict
    claims: list[str] = field(default_factory=list)
    claim_args: dict = field(default_factory=dict)
    # Reruns the phase named by ``threads2_phase`` at threads=2; its
    # output must be byte-identical to the threads=1 output.
    threads2: Callable[[], tuple[dict, int]] | None = None
    threads2_phase: str | None = None


def paper_counts(out, elems, expected) -> list[str]:
    problems = []
    if (out["sum_count"], out["diff_count"]) != expected:
        problems.append(f"counts {out['sum_count']}/{out['diff_count']}, paper value {expected}")
    if (out["sum_count"], out["diff_count"]) != oracles.naive_counts(elems):
        problems.append("counts disagree with pair enumeration")
    return problems


def _prime_ground(limit: int) -> tuple[int, ...]:
    """The primes <= limit as the CLI's --primes-upto builds them."""
    return tuple(int(p) for p in primes.PrimeSieve(limit).primes())


def _check_prime_ground(ground, limit) -> list[str]:
    if list(ground) != oracles.primes_upto(limit):
        return [f"prime ground is not the primes <= {limit} (trial division)"]
    return []


# -- mc-density -------------------------------------------------------

def mc_density(seed: int, size: dict) -> Workload:
    n = size["mc_n"]
    samples = size["mc_samples"]
    sparse_samples = size["mc_sparse_samples"]
    mc_seed = derive(seed, "mc", 0, 2**31)
    sparse_seed = derive(seed, "mc_sparse", 0, 2**31)
    ground = _prime_ground(size["mc_sparse_primes_below"] - 1)
    sparse_cfg = search.SearchConfig(
        ground=sets.IntSet(ground, diameter_cap=None),
        mode=search.MODE_MONTE_CARLO,
        samples=sparse_samples,
        seed=sparse_seed,
    )

    def run_mc(threads=1):
        return search.monte_carlo_density(n, samples, seed=mc_seed, threads=threads).to_dict(), samples

    def run_sparse():
        return search.special_search(sparse_cfg).to_dict(), sparse_samples

    return Workload(
        name="mc-density",
        phases=[
            Phase("mc", run_mc, lambda out: oracles.check_monte_carlo(
                out, range(n + 1), mc_seed, samples, special=False, hit_cap=HIT_CAP)),
            Phase("mc_sparse", run_sparse, lambda out: _check_prime_ground(ground, size["mc_sparse_primes_below"] - 1)
                  + oracles.check_monte_carlo(out, ground, sparse_seed, sparse_samples, special=True, hit_cap=HIT_CAP)),
        ],
        inputs={"mc_seed": mc_seed, "mc_sparse_seed": sparse_seed},
        claims=CLAIMS["mc-density"],
        claim_args={"samples": samples, "seed": mc_seed},
        threads2=lambda: run_mc(threads=2),
        threads2_phase="mc",
    )


# -- lattice-search ---------------------------------------------------

def lattice_search(seed: int, size: dict) -> Workload:
    rng = random.Random(derive(seed, "dense", 0, 2**31))
    dense_ground = tuple(sorted(rng.sample(range(size["dense_span"]), size["dense_n"])))
    k = size["dense_size"]
    upto = size["sparse_upto"]
    if size["minimal_primes_upto"] is None:
        minimal_ground = tuple(range(20))
    else:
        minimal_ground = _prime_ground(size["minimal_primes_upto"])
    expect = size["minimal_expect"]
    dense_cfg = search.SearchConfig(ground=sets.IntSet(dense_ground), min_size=k, max_size=k)
    spec = sequences.SequenceSpec.shifted_geometric(1, 2, 0)
    minimal_set = sets.IntSet(minimal_ground, diameter_cap=None)

    def run_dense():
        out = search.exhaustive_search(dense_cfg).to_dict()
        return out, out["examined"]

    def run_sparse():
        out = sequences.certify_no_mstd(spec, r=CERTIFY_R, upto=upto, budget=size["sparse_budget"]).to_dict()
        return out, out["examined"]

    def run_minimal():
        out = search.minimal_mstd_in(minimal_set).to_dict()
        return out, out["examined"]

    def run_conway():
        return sets.classify(sets.IntSet(CONWAY)).to_dict(), 1

    def check_minimal(out):
        problems = []
        if size["minimal_primes_upto"] is not None:
            problems += _check_prime_ground(minimal_ground, size["minimal_primes_upto"])
        best = [h for h in out["hits"] if h[-1] == out["objective_value"]]
        if not best or not oracles.is_mstd(best[0]) or not set(best[0]) <= set(minimal_ground):
            problems.append(f"no verified MSTD hit with max {out['objective_value']}")
        elif size["minimal_primes_upto"] is not None:
            problems += oracles.check_prime_set(best[0], "minimal hit")
        problems += oracles.recheck_hits(out["hits"])
        if out["optimal"] is not True or out["exhausted"] is not True:
            problems.append("minimal search not certified optimal")
        for key, value in expect.items():
            if out[key] != value:
                problems.append(f"{key} {out[key]}, regression value {value}")
        return problems

    return Workload(
        name="lattice-search",
        phases=[
            Phase("dense", run_dense, lambda out: oracles.check_lattice_level(out, dense_ground, k, HIT_CAP)),
            Phase("sparse", run_sparse, lambda out: oracles.check_geometric_certificate(out, CERTIFY_R, upto)),
            Phase("minimal", run_minimal, check_minimal),
            Phase("conway", run_conway, lambda out: paper_counts(out, CONWAY, (26, 25))),
        ],
        inputs={"dense_ground": dense_ground},
        claims=CLAIMS["lattice-search"],
    )


# -- prime-pipeline ---------------------------------------------------

def prime_pipeline(seed: int, size: dict) -> Workload:
    t = primes.PrimeTuple(TUPLE_T)
    twin = primes.PrimeTuple((0, 2))
    match_x = size["match_x"]
    tol = size["series_tol"]
    ap_length, ap_bound = size["ap"]
    pipeline_x = derive(seed, "pipeline_x", *size["pipeline_x"])

    def run_match():
        return primes.match_tuple(t, match_x).to_dict(), match_x

    def check_match(out):
        problems = oracles.check_matches(out["matches"], TUPLE_T, match_x)
        if out["count"] != size["match_expect_count"]:
            problems.append(f"count {out['count']}, regression value {size['match_expect_count']}")
        if out["matches"] != sorted(set(out["matches"])) or len(out["matches"]) != min(out["count"], 1000):
            problems.append("match list not the first matches in order")
        return problems

    def run_series():
        return primes.singular_series(t, rel_tol=tol).to_dict(), 1

    def run_ap():
        return {"ap": list(primes.find_prime_ap(ap_length, ap_bound))}, 1

    def check_ap(out):
        first, diff = out["ap"]
        problems = oracles.check_prime_set([first + i * diff for i in range(ap_length)], "AP")
        if first > ap_bound or out["ap"] != size["ap_expect"]:
            problems.append(f"AP {out['ap']}, regression value {size['ap_expect']}")
        return problems

    def run_pipeline():
        report = primes.match_tuple(t, pipeline_x)
        built = [primes.dilated_conway(m, 30) for m in report.matches]
        return {
            "count": report.count,
            "matches": list(report.matches),
            "sets": [list(s.elements) for s in built],
            "classes": [sets.classify(s).to_dict() for s in built],
        }, pipeline_x

    def check_pipeline(out):
        expected = [int(m) for m in oracles.tuple_matches(TUPLE_T, pipeline_x)]
        problems = oracles.check_matches(out["matches"], TUPLE_T, pipeline_x)
        if out["matches"] != expected or out["count"] != len(expected):
            problems.append(f"{out['count']} matches, sieve recount {len(expected)}")
        if 19 not in out["matches"]:
            problems.append("shift 19 missing (paper value)")
        for m, elems, cls in zip(out["matches"], out["sets"], out["classes"]):
            if elems != [m + b for b in TUPLE_T]:
                problems.append(f"set for shift {m} is {elems}")
            problems += paper_counts(cls, elems, (26, 25))
        return problems

    def run_paper():
        adm = primes.is_admissible(t).to_dict()
        report = primes.match_tuple(twin, 10**6)
        return {"admissible": adm, "twin_ratio": report.ratio, "twin_matches": list(report.matches)}, 1

    def check_paper(out):
        problems = oracles.check_matches(out["twin_matches"], (0, 2), 10**6)
        if not out["admissible"]["admissible"] or out["admissible"]["checked_moduli"] != [2, 3, 5, 7]:
            problems.append(f"T admissibility {out['admissible']} (paper: admissible, moduli [2, 3, 5, 7])")
        if not 0.9 <= out["twin_ratio"] <= 1.1:
            problems.append(f"twin ratio {out['twin_ratio']} outside [0.9, 1.1]")
        return problems

    return Workload(
        name="prime-pipeline",
        phases=[
            Phase("match", run_match, check_match),
            Phase("series", run_series, lambda out: oracles.check_series(out, TUPLE_T, tol)),
            Phase("ap", run_ap, check_ap),
            Phase("pipeline", run_pipeline, check_pipeline),
            Phase("paper", run_paper, check_paper),
        ],
        inputs={"pipeline_x": pipeline_x, "match_x": match_x},
        claims=CLAIMS["prime-pipeline"],
    )


BUILDERS = {"mc-density": mc_density, "lattice-search": lattice_search, "prime-pipeline": prime_pipeline}


def build(name: str, seed: int, smoke: bool) -> Workload:
    return BUILDERS[name](seed, SIZES["smoke" if smoke else "full"])
