"""Subset search engines over integer ground sets.

Three engines share one report shape:

* exhaustive enumeration of the subset lattice, ascending cardinality
  and lexicographic index order within a cardinality, truncated by a
  budget;
* Monte Carlo sampling of uniform random subsets (each element kept
  with probability 1/2), chunked so that results depend only on the
  seed and the sample count, never on worker scheduling;
* a best-first minimality search for the smallest MSTD subset of a
  ground set under a max-element or diameter objective.

The lattice engines (exhaustive, special-exhaustive, minimality, and
the prefix pass of ``sequences.certify_finitely_many``) share one
budgeted loop, ``_scan``, fed a stream of candidate tuples; each run
is one ``_scan`` call.  It counts each candidate toward the budget
before any test, so a budget stop leaves ``examined`` equal to the
budget; it then skips candidates below the diameter floor (they count
as examined but are not classified), classifies the rest, and applies
the hit cap and the first-hit stop.  The minimality stream chains its
levels lazily in ascending objective order, so no list of levels is
built.

The Monte Carlo engine draws each chunk's samples as raw mask bytes and
classifies them a block at a time with ``sets.PairCensus``, one
bit-sliced pair form for every ground; each hit it finds is counted
again by ``sum_diff_counts`` before it is kept.  Chunk descriptors are
generated lazily, and a pool holds at most two chunks per worker in
flight, merging results in chunk order.

Every reported hit is re-classified before it is stored; engines never
report a set they did not verify.  The only pruning rule, skipping
subsets of diameter below 14, is itself established at runtime by an
exhaustive scan (see ``min_mstd_diameter``) before any engine uses it.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, combinations, starmap, takewhile

import numpy as np

from .errors import DomainError
from .sets import CONWAY, IntSet, PairCensus, _select_bits, sum_diff_counts

MODE_EXHAUSTIVE = "exhaustive"
MODE_MONTE_CARLO = "monte-carlo"

OBJECTIVE_FIRST_HIT = "first-hit"
OBJECTIVE_COUNT_ALL = "count-all"
OBJECTIVE_MIN_MAX = "minimize-max-element"
OBJECTIVE_MIN_DIAMETER = "minimize-diameter"

_MINIMAL_OBJECTIVES = (OBJECTIVE_MIN_MAX, OBJECTIVE_MIN_DIAMETER)

DEFAULT_BUDGET = 5_000_000
DEFAULT_HIT_CAP = 1000

_MC_CHUNK = 1 << 16

_diameter_floor_verified = False


def min_mstd_diameter() -> int:
    """Smallest diameter any MSTD set can have, verified by scan.

    A set of diameter below 14 shifts into {0..13}, so one pass over
    the 2^14 subsets of {0..13} suffices to establish the floor.  The
    scan runs once per process and is cached; engines call this before
    enabling diameter pruning so the rule is never assumed.
    """
    global _diameter_floor_verified
    if not _diameter_floor_verified:
        for size in range(2, 15):
            for combo in combinations(range(14), size):
                sc, dc = sum_diff_counts(combo)
                if sc > dc:
                    raise RuntimeError(
                        f"diameter floor refuted by {combo}; pruning unsound"
                    )
        _diameter_floor_verified = True
    return 14


@dataclass(frozen=True)
class SearchConfig:
    """Parameters for one search run.

    min_size/max_size bound subset cardinality; both must be >= 0 (an
    empty window is legal and yields an empty exhausted report).  budget caps how many
    subsets the exhaustive engine may generate.  samples and seed only
    matter in monte-carlo mode, where the size window does not apply
    (sampling is over the full power set).  objective is count-all or
    first-hit, and first-hit needs exhaustive mode; the minimize-*
    objectives are minimal_mstd_in's and are rejected here.
    """

    ground: IntSet
    min_size: int = 0
    max_size: int | None = None
    budget: int = DEFAULT_BUDGET
    mode: str = MODE_EXHAUSTIVE
    samples: int | None = None
    seed: int = 0
    objective: str = OBJECTIVE_COUNT_ALL
    hit_cap: int = DEFAULT_HIT_CAP
    threads: int = 1

    def __post_init__(self):
        if self.mode not in (MODE_EXHAUSTIVE, MODE_MONTE_CARLO):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.objective in _MINIMAL_OBJECTIVES:
            raise DomainError(
                f"objective {self.objective!r} is served by minimal_mstd_in, not a search config"
            )
        if self.objective not in (OBJECTIVE_FIRST_HIT, OBJECTIVE_COUNT_ALL):
            raise DomainError(f"unknown objective {self.objective!r}")
        if self.mode == MODE_MONTE_CARLO and self.objective == OBJECTIVE_FIRST_HIT:
            raise DomainError("objective 'first-hit' needs exhaustive mode; monte-carlo runs every sample")
        if self.min_size < 0:
            raise DomainError("min_size must be >= 0")
        if self.max_size is not None and self.max_size < 0:
            raise DomainError("max_size must be >= 0")
        if self.budget < 1:
            raise DomainError("budget must be >= 1")
        if self.hit_cap < 1:
            raise DomainError("hit_cap must be >= 1")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")
        if self.mode == MODE_MONTE_CARLO and (self.samples is None or self.samples < 1):
            raise DomainError("monte-carlo mode requires samples >= 1")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a search run.

    exhausted means the configured window (or, for minimality search,
    everything below the returned bound) was fully enumerated within
    budget.  density_estimate and stderr are set in monte-carlo mode
    only.  pruning names every rule that was active during the run.
    """

    hits: tuple[IntSet, ...]
    hit_count: int
    examined: int
    density_estimate: float | None
    stderr: float | None
    exhausted: bool
    seed: int | None
    pruning: tuple[str, ...] = ()
    optimal: bool | None = None
    objective_value: int | None = None

    def to_dict(self) -> dict:
        out = {
            "hits": [list(h.elements) for h in self.hits],
            "hit_count": self.hit_count,
            "examined": self.examined,
            "density": self.density_estimate,
            "stderr": self.stderr,
            "exhausted": self.exhausted,
            "seed": self.seed,
        }
        if self.pruning:
            out["pruning"] = list(self.pruning)
        if self.optimal is not None:
            out["optimal"] = self.optimal
        if self.objective_value is not None:
            out["objective_value"] = self.objective_value
        return out


def _is_hit(combo: tuple[int, ...], special: bool) -> bool:
    sc, dc = sum_diff_counts(combo)
    return sc > dc and (not special or sc - dc >= len(combo))


def _scan(stream, budget, examined, special, hit_cap, first_hit):
    """The one budgeted loop behind every lattice engine.

    Each candidate tuple of ``stream`` counts toward ``budget`` before
    any test; ``examined`` is the count carried in from earlier scans.
    Candidates below the verified diameter floor count as examined but
    are not classified.  Returns (hits, hit_count, examined, complete),
    where complete means the stream ran dry: False after a budget stop
    or a first-hit stop.
    """
    floor = min_mstd_diameter()
    hits: list[IntSet] = []
    hit_count = 0
    for combo in stream:
        if examined >= budget:
            return hits, hit_count, examined, False
        examined += 1
        if not combo or combo[-1] - combo[0] < floor or not _is_hit(combo, special):
            continue
        hit_count += 1
        if len(hits) < hit_cap:
            hits.append(IntSet(combo, diameter_cap=None))
        if first_hit:
            return hits, hit_count, examined, False
    return hits, hit_count, examined, True


def _lattice_scan(cfg: SearchConfig, special: bool) -> SearchReport:
    elems = cfg.ground.elements
    hi_size = len(elems) if cfg.max_size is None else min(cfg.max_size, len(elems))
    stream = chain.from_iterable(
        combinations(elems, size) for size in range(cfg.min_size, hi_size + 1)
    )
    hits, hit_count, examined, complete = _scan(
        stream, cfg.budget, 0, special, cfg.hit_cap, cfg.objective == OBJECTIVE_FIRST_HIT
    )
    return SearchReport(
        hits=tuple(hits),
        hit_count=hit_count,
        examined=examined,
        density_estimate=None,
        stderr=None,
        exhausted=complete,
        seed=cfg.seed,
        pruning=(f"skip diameter < {min_mstd_diameter()}",),
    )


def exhaustive_search(cfg: SearchConfig) -> SearchReport:
    """Enumerate the configured size window and report MSTD subsets.

    Order is deterministic: ascending cardinality, lexicographic over
    index tuples within each cardinality.  A budget stop yields a
    partial report with exhausted=False, never an error.
    """
    if cfg.mode != MODE_EXHAUSTIVE:
        raise DomainError("exhaustive_search requires mode=exhaustive")
    return _lattice_scan(cfg, special=False)


def special_search(cfg: SearchConfig) -> SearchReport:
    """Same engines as exhaustive_search/monte-carlo, filtered on
    gap >= |subset| (the margin that survives appending any large
    element) instead of bare MSTD."""
    if cfg.mode == MODE_EXHAUSTIVE:
        return _lattice_scan(cfg, special=True)
    return _mc_scan(cfg, special=True)


# -- Monte Carlo ------------------------------------------------------

def _mc_hits(sum_counts, diff_counts, sizes, special: bool) -> np.ndarray:
    """``_is_hit`` elementwise on a census block: MSTD, and with
    ``special`` also a gap of at least the size."""
    hit = sum_counts > diff_counts
    if special:
        hit &= sum_counts - diff_counts >= sizes
    return hit


def _mc_chunk(
    census: PairCensus,
    seed: int,
    chunk_index: int,
    count: int,
    special: bool,
    want_hits: int,
) -> tuple[int, list[int]]:
    """Classify ``count`` random subsets; returns (hit_count, hit_masks).

    Deterministic in (seed, chunk_index) alone: each chunk draws from
    its own SeedSequence spawn, so the merged result is independent of
    how chunks are scheduled across workers.  Subset k is the ground
    elements at the set bits of bytes k * nbytes ... (k + 1) * nbytes
    of the chunk's ``rng.bytes`` draw, read little-endian.  A
    ``PairCensus`` classifies the subsets a block at a time, and every
    hit it finds is counted again by ``sum_diff_counts`` before it is
    reported.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk_index,))))
    nbytes = census.nbytes
    buf = rng.bytes(nbytes * count)
    full = (1 << census.n) - 1
    hit_count = 0
    hit_masks: list[int] = []
    for start in range(0, count, census.block):
        sc, dc, size = census.counts(buf[start * nbytes : (start + census.block) * nbytes])
        for row in np.flatnonzero(_mc_hits(sc, dc, size, special)).tolist():
            at = (start + row) * nbytes
            mask = int.from_bytes(buf[at : at + nbytes], "little") & full
            chosen = _select_bits(mask, census.elements)
            if sum_diff_counts(chosen) != (int(sc[row]), int(dc[row])):
                raise RuntimeError(f"batched census disagrees with sum_diff_counts on {chosen}")
            hit_count += 1
            if len(hit_masks) < want_hits:
                hit_masks.append(mask)
    return hit_count, hit_masks


def _mc_chunks(cfg: SearchConfig, census: PairCensus, special: bool):
    """Argument tuples of ``_mc_chunk`` for a run, one per chunk of
    ``_MC_CHUNK`` samples, generated lazily: 10**15 samples are 1.5e10
    chunks."""
    for index, start in enumerate(range(0, cfg.samples, _MC_CHUNK)):
        yield census, cfg.seed, index, min(_MC_CHUNK, cfg.samples - start), special, cfg.hit_cap


def _mc_results(chunks, workers: int):
    """``_mc_chunk`` results in chunk order.  A pool holds at most
    2 * workers chunks in flight, so ``chunks`` is read as it is used."""
    if workers == 1:
        yield from starmap(_mc_chunk, chunks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for args in chunks:
            pending.append(pool.submit(_mc_chunk, *args))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _mc_scan(cfg: SearchConfig, special: bool) -> SearchReport:
    samples = cfg.samples
    workers = _pool_size(cfg.threads, -(-samples // _MC_CHUNK))
    hit_count = 0
    hit_masks: list[int] = []
    census = PairCensus(cfg.ground.elements)
    for count, masks in _mc_results(_mc_chunks(cfg, census, special), workers):
        hit_count += count
        hit_masks += masks[: cfg.hit_cap - len(hit_masks)]
    hits = tuple(
        IntSet(_select_bits(mask, cfg.ground.elements), diameter_cap=None) for mask in hit_masks
    )
    density = hit_count / samples
    stderr = math.sqrt(density * (1.0 - density) / samples)
    return SearchReport(
        hits=hits,
        hit_count=hit_count,
        examined=samples,
        density_estimate=density,
        stderr=stderr,
        exhausted=False,
        seed=cfg.seed,
    )


def _pool_size(threads: int, chunks: int) -> int:
    """Worker processes for a Monte Carlo run.  A pool forks all its
    workers at once, so more than one per chunk or CPU is waste; results
    merge in chunk order, so the report does not depend on this."""
    return max(1, min(threads, chunks, os.cpu_count() or 1))


def monte_carlo_density(
    n: int,
    samples: int,
    seed: int = 0,
    threads: int = 1,
    hit_cap: int = DEFAULT_HIT_CAP,
) -> SearchReport:
    """Estimate the fraction of subsets of {0..n} that are MSTD.

    Subsets are drawn with independent inclusion probability 1/2, the
    measure under which the classical density estimates are stated.
    Deterministic given (n, samples, seed) regardless of threads.
    """
    n = int(n)
    if n < 0:
        raise DomainError("n must be >= 0")
    cfg = SearchConfig(
        ground=IntSet(range(n + 1)),
        mode=MODE_MONTE_CARLO,
        samples=int(samples),
        seed=int(seed),
        threads=threads,
        hit_cap=hit_cap,
    )
    return _mc_scan(cfg, special=False)


# -- Minimality search ------------------------------------------------

def minimal_mstd_in(
    ground: IntSet,
    objective: str = OBJECTIVE_MIN_MAX,
    budget: int = DEFAULT_BUDGET,
    hit_cap: int = DEFAULT_HIT_CAP,
) -> SearchReport:
    """Best MSTD subset of ``ground`` under the objective.

    Two candidate streams feed one verifier: a probe over dilations
    p + c*s of the known minimal pattern that happen to lie inside the
    ground (cheap, often supplies the optimum on structured grounds),
    and one ``_scan`` call over the lattice levels, where level =
    forced max element (or forced endpoint pair for the diameter
    objective).  The levels below the probe's bound stream lazily in
    ascending objective order (pairs come from a merge of one ascending
    run per left end, so memory stays linear in the ground), and the
    scan stops at the first hit.  ``optimal`` certifies that every level
    strictly below the returned bound was exhausted; levels whose
    objective value makes any MSTD subset impossible (below the
    verified diameter floor) are skipped soundly without enumeration.
    """
    if objective not in _MINIMAL_OBJECTIVES:
        raise DomainError(f"minimality search needs a minimize-* objective, got {objective!r}")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    if hit_cap < 1:
        raise DomainError("hit_cap must be >= 1")
    elems = ground.elements
    floor = min_mstd_diameter()
    pruning = (f"skip diameter < {floor}", "dilated minimal-pattern probe")
    ground_lookup = set(elems)
    examined = 0
    hits: list[IntSet] = []

    def value_of(elements: tuple[int, ...]) -> int:
        if objective == OBJECTIVE_MIN_MAX:
            return elements[-1]
        return elements[-1] - elements[0]

    # Probe: affine images of the minimal pattern inside the ground.
    best: IntSet | None = None
    for scale in range(1, ground.diameter // floor + 1):
        for shift in elems:
            if shift + floor * scale > elems[-1] or examined >= budget:
                break
            cand = tuple(shift + c * scale for c in CONWAY)
            examined += 1
            if all(v in ground_lookup for v in cand) and _is_hit(cand, special=False):
                hit = IntSet(cand, diameter_cap=None)
                if len(hits) < hit_cap:
                    hits.append(hit)
                if best is None or value_of(cand) < value_of(best.elements):
                    best = hit

    bound = None if best is None else value_of(best.elements)
    if objective == OBJECTIVE_MIN_MAX:
        levels = ((elems[m], m) for m in range(len(elems)))
    else:
        def from_left(i):
            return ((elems[j] - elems[i], (i, j)) for j in range(i + 1, len(elems)))

        levels = heapq.merge(*(from_left(i) for i in range(len(elems))))
    below_bound = takewhile(lambda level: bound is None or level[0] < bound, levels)
    stream = chain.from_iterable(
        _level(elems, objective, where, floor) for value, where in below_bound if value >= floor
    )
    found, _, examined, complete = _scan(stream, budget, examined, False, 1, True)
    if found:  # every level below the hit's was exhausted first
        best = found[0]
        if len(hits) < hit_cap:
            hits.append(best)
    ran_out = not found and not complete

    return SearchReport(
        hits=tuple(hits),
        hit_count=len(hits),
        examined=examined,
        density_estimate=None,
        stderr=None,
        exhausted=not ran_out,
        seed=None,
        pruning=pruning,
        optimal=None if best is None else not ran_out,
        objective_value=None if best is None else value_of(best.elements),
    )


def _level(elems, objective, where, floor):
    """Candidates of one minimality level, in scan order.

    A level fixes the subset's max element (min-max objective: level m
    is elems[m] plus any subset of the elements below it) or both
    endpoints (min-diameter: level (i, j) is elems[i], elems[j] plus any
    subset of the elements between them).  Candidates ascend by
    cardinality, lexicographic within; combinations stream in
    nondecreasing first-element order, so the candidate that breaks the
    diameter floor is the last of its cardinality block: it is yielded
    (and counted as examined), the rest of the block is skipped.
    """
    if objective == OBJECTIVE_MIN_MAX:
        head, interior, tail = (), elems[:where], (elems[where],)
    else:
        i, j = where
        head, interior, tail = (elems[i],), elems[i + 1 : j], (elems[j],)
    for size in range(len(interior) + 1):
        for combo in combinations(interior, size):
            cand = head + combo + tail
            yield cand
            if cand[-1] - cand[0] < floor:
                break  # later candidates start no lower
