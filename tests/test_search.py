"""Exhaustive enumeration, Monte Carlo density, minimality search."""

import concurrent.futures
import functools
import gc
import itertools
import math
import multiprocessing
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mstd import (
    CONWAY,
    CapacityError,
    DomainError,
    IntSet,
    PrimeSieve,
    SearchConfig,
    SequenceSpec,
    base_expansion,
    classify,
    exhaustive_search,
    materialize,
    min_mstd_diameter,
    minimal_mstd_in,
    monte_carlo_density,
    special_search,
    sum_diff_counts,
)
from mstd import search
from mstd.search import (
    _BLOCK, _MASK_K, _MC_CHUNK, _blocks, _census_hits, _lattice_block, _level, _MaskLevel, _mc_chunk, _mc_scan,
    _ordered, _scan, _ScanGround, PairCensus, bit_slices, byte_slices,
)

GROUND_15 = IntSet(range(15))


def naive_mstd(elements):
    sums = {a + b for a in elements for b in elements}
    diffs = {a - b for a in elements for b in elements}
    return len(sums) > len(diffs)


def test_minimal_diameter_is_fourteen():
    assert min_mstd_diameter() == 14


def test_floor_scan_counts_the_sets_that_contain_zero(monkeypatch):
    # every set of diameter below 14 shifts onto one subset of {0..13}
    # that holds 0: 2^13 - 1 of two or more elements, each counted
    # through the module's sum_diff_counts, so a fault in it is seen
    seen = []
    honest = search.sum_diff_counts
    min_mstd_diameter.cache_clear()
    monkeypatch.setattr(search, "sum_diff_counts", lambda e, *a, **k: seen.append(e) or honest(e))
    assert min_mstd_diameter() == 14
    assert len(seen) == len(set(seen)) == 2**13 - 1
    assert all(e[0] == 0 and len(e) >= 2 and e[-1] <= 13 for e in seen)
    min_mstd_diameter.cache_clear()
    monkeypatch.setattr(search, "sum_diff_counts", lambda e, *a, **k: (99, 0) if e == (0, 5, 13) else honest(e))
    with pytest.raises(RuntimeError, match="floor refuted"):
        min_mstd_diameter()
    # a refuted scan is not cached: the next call scans again
    monkeypatch.undo()
    assert min_mstd_diameter() == 14


# -- exhaustive engine -------------------------------------------------

def test_no_mstd_below_size_eight():
    report = exhaustive_search(SearchConfig(ground=GROUND_15, max_size=7))
    assert report.hit_count == 0
    assert report.exhausted
    assert report.examined == sum(1 for k in range(8) for _ in itertools.combinations(range(15), k))


def test_size_eight_hits_match_naive_enumeration():
    report = exhaustive_search(
        SearchConfig(ground=GROUND_15, min_size=8, max_size=8)
    )
    expected = [
        combo
        for combo in itertools.combinations(range(15), 8)
        if naive_mstd(combo)
    ]
    assert [h.elements for h in report.hits] == expected
    assert CONWAY in [h.elements for h in report.hits]
    assert report.hit_count == len(expected) == 2


def test_short_ground_has_no_hits():
    report = exhaustive_search(SearchConfig(ground=IntSet(range(8))))
    assert report.hit_count == 0
    assert report.exhausted
    assert report.examined == 256


def test_empty_size_window():
    report = exhaustive_search(SearchConfig(ground=IntSet(range(5)), min_size=9))
    assert report.hit_count == 0
    assert report.examined == 0
    assert report.exhausted


def test_budget_truncates_enumeration():
    report = exhaustive_search(SearchConfig(ground=GROUND_15, budget=500))
    assert not report.exhausted
    assert report.examined == 500


def test_first_hit_stops_early():
    report = exhaustive_search(
        SearchConfig(ground=GROUND_15, min_size=8, max_size=8, objective="first-hit")
    )
    assert report.hit_count == 1
    assert report.hits[0].elements == CONWAY
    assert not report.exhausted


def test_hit_cap_truncates_stored_hits_only():
    report = exhaustive_search(
        SearchConfig(ground=IntSet(range(16)), min_size=8, max_size=9, hit_cap=3)
    )
    assert len(report.hits) == 3
    assert report.hit_count > 3


def test_every_reported_hit_reclassifies_mstd():
    report = exhaustive_search(
        SearchConfig(ground=IntSet(range(16)), min_size=8, max_size=8)
    )
    assert report.hit_count > 0
    for hit in report.hits:
        assert classify(hit).verdict == "mstd"


def test_affine_closure_of_hits():
    base = exhaustive_search(SearchConfig(ground=GROUND_15, min_size=8, max_size=8))
    image_ground = IntSet(3 * e + 5 for e in range(15))
    image = exhaustive_search(
        SearchConfig(ground=image_ground, min_size=8, max_size=8)
    )
    mapped = [tuple(3 * e + 5 for e in h.elements) for h in base.hits]
    assert [h.elements for h in image.hits] == mapped


def test_exhaustive_rejects_monte_carlo_config():
    cfg = SearchConfig(ground=GROUND_15, mode="monte-carlo", samples=10)
    with pytest.raises(DomainError):
        exhaustive_search(cfg)


def test_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(ground=GROUND_15, mode="simulated-annealing")
    with pytest.raises(DomainError):
        SearchConfig(ground=GROUND_15, objective="maximize-gap")
    with pytest.raises(DomainError):
        SearchConfig(ground=GROUND_15, budget=0)
    with pytest.raises(DomainError, match="max_size"):
        SearchConfig(ground=GROUND_15, max_size=-1)
    for bad in ({"min_size": -1}, {"hit_cap": 0}, {"threads": 0}):
        with pytest.raises(DomainError, match=next(iter(bad))):
            SearchConfig(ground=GROUND_15, **bad)
    with pytest.raises(DomainError):
        monte_carlo_density(-1, 10)
    with pytest.raises(DomainError):
        SearchConfig(ground=GROUND_15, mode="monte-carlo")  # samples missing
    # objectives no search engine honours are refused, not run as count-all
    for objective in ("minimize-max-element", "minimize-diameter"):
        with pytest.raises(DomainError, match="minimal_mstd_in"):
            SearchConfig(ground=GROUND_15, min_size=8, max_size=8, objective=objective)
    with pytest.raises(DomainError, match="first-hit"):
        SearchConfig(ground=GROUND_15, mode="monte-carlo", samples=2000, objective="first-hit")


# -- the scan loop -----------------------------------------------------

def _scan_order(elems, lo, hi):
    """Every subset of the size window in the documented scan order."""
    return [c for k in range(lo, hi + 1) for c in itertools.combinations(elems, k)]


@pytest.mark.parametrize(
    "elems, lo, hi, hit_cap",
    [
        ((0, 2, 3, 4, 7, 10, 11, 12, 14), 0, 9, 1000),
        ((0, 2, 3, 4, 7, 10, 11, 12, 14, 16, 17), 8, 11, 1000),
        ((0, 2, 3, 4, 7, 10, 11, 12, 14, 16, 17), 8, 11, 1),
    ],
    ids=["full-window", "size-window", "hit-cap"],
)
def test_every_budget_examines_a_prefix(elems, lo, hi, hit_cap):
    total = sum(math.comb(len(elems), k) for k in range(lo, hi + 1))
    order = _scan_order(elems, lo, hi)
    is_hit = [naive_mstd(c) for c in order]
    naive_hits = [c for c, hit in zip(order, is_hit) if hit]
    assert len(naive_hits) >= 2

    def run(budget):
        cfg = SearchConfig(ground=IntSet(elems), min_size=lo, max_size=hi, budget=budget, hit_cap=hit_cap)
        return exhaustive_search(cfg)

    full = run(total)
    assert full.exhausted and full.examined == total
    assert [h.elements for h in full.hits] == naive_hits[:hit_cap]
    assert full.hit_count == len(naive_hits)
    for budget in range(1, total + 2):
        report = run(budget)
        examined = min(budget, total)
        assert report.examined == examined
        assert report.exhausted == (budget >= total)
        assert report.hits == full.hits[: len(report.hits)]
        seen = [c for c, hit in zip(order[:examined], is_hit) if hit]
        assert report.hit_count == len(seen)
        assert [h.elements for h in report.hits] == seen[:hit_cap]


@pytest.mark.parametrize(
    "ground, lo, hi",
    [
        (GROUND_15, 8, 8),
        (IntSet(range(16)), 8, 9),
        (IntSet((0, 2, 3, 4, 7, 9, 10, 11, 12, 14, 16)), 0, 11),
        (IntSet(3 * e + 5 for e in range(15)), 8, 8),
        (IntSet(range(12)), 0, 12),  # no MSTD subset at all
    ],
)
def test_first_hit_is_first_count_all_hit(ground, lo, hi):
    def run(objective):
        return exhaustive_search(SearchConfig(ground=ground, min_size=lo, max_size=hi, objective=objective))

    count_all, first = run("count-all"), run("first-hit")
    order = _scan_order(ground.elements, lo, hi)
    naive_hits = [i for i, c in enumerate(order) if naive_mstd(c)]
    assert first.hits == count_all.hits[:1]
    if naive_hits:
        assert first.hits[0].elements == order[naive_hits[0]]
        assert (first.hit_count, first.examined, first.exhausted) == (1, naive_hits[0] + 1, False)
    else:
        assert first.to_dict() == count_all.to_dict()
        assert (first.hit_count, first.examined, first.exhausted) == (0, len(order), True)


# -- the block driver against the tuple stream it replaced ------------

FLOOR = 14
MIN_MAX, MIN_DIAMETER = "minimize-max-element", "minimize-diameter"


@functools.lru_cache(maxsize=None)
def naive_hit(combo, special):
    gap = len({a + b for a in combo for b in combo}) - len({a - b for a in combo for b in combo})
    return gap > 0 and (not special or gap >= len(combo))


def reference_level(elems, objective, where):
    """A minimality level as the tuple stream the scan once consumed."""
    if objective == MIN_MAX:
        head, interior, tail = (), elems[:where], (elems[where],)
    else:
        i, j = where
        head, interior, tail = (elems[i],), elems[i + 1 : j], (elems[j],)
    for size in range(len(interior) + 1):
        for combo in itertools.combinations(interior, size):
            cand = head + combo + tail
            yield cand
            if cand[-1] - cand[0] < FLOOR:
                break


def reference_scan(stream, budget, examined, special, hit_cap, first_hit):
    """The per-tuple loop the block driver replaced, on naive counts."""
    hits, hit_count = [], 0
    for combo in stream:
        if examined >= budget:
            return hits, hit_count, examined, False
        examined += 1
        if not combo or combo[-1] - combo[0] < FLOOR or not naive_hit(combo, special):
            continue
        hit_count += 1
        if len(hits) < hit_cap:
            hits.append(combo)
        if first_hit:
            return hits, hit_count, examined, False
    return hits, hit_count, examined, True


def reference_minimal(elems, objective, budget):
    """minimal_mstd_in as (hits, examined, exhausted, objective value),
    from the per-pair probe and the tuple stream."""
    value = (lambda c: c[-1]) if objective == MIN_MAX else (lambda c: c[-1] - c[0])
    hits, examined, best = [], 0, None
    for scale in range(1, (elems[-1] - elems[0]) // FLOOR + 1):
        for shift in elems:
            if shift + FLOOR * scale > elems[-1] or examined >= budget:
                break
            examined += 1
            cand = tuple(shift + c * scale for c in CONWAY)
            if set(cand) <= set(elems) and naive_hit(cand, False):
                hits.append(cand)
                best = cand if best is None or value(cand) < value(best) else best
    if objective == MIN_MAX:
        levels = sorted((e, m) for m, e in enumerate(elems))
    else:
        levels = sorted((b - a, (i, j)) for i, a in enumerate(elems) for j, b in enumerate(elems) if i < j)
    stream = itertools.chain.from_iterable(
        reference_level(elems, objective, where) for v, where in levels
        if FLOOR <= v and (best is None or v < value(best))
    )
    found, _, examined, complete = reference_scan(stream, budget, examined, False, 1, True)
    best = found[0] if found else best
    return hits + found, examined, bool(found) or complete, None if best is None else value(best)


def budgets_around(stream_length, edges, rng):
    """Budgets at, and one either side of, every given edge, the stream's
    end, and a few random points."""
    marks = {1, stream_length, *edges, *(rng.randrange(1, stream_length + 1) for _ in range(4))}
    return sorted({b for m in marks for b in (m - 1, m, m + 1) if b >= 1})


def conway_ground(rng, extra, span):
    """A Conway image plus ``extra`` random elements below ``span``."""
    shift = rng.randrange(4)
    image = {c + shift for c in CONWAY}
    return tuple(sorted(image | set(rng.sample(sorted(set(range(span)) - image), extra))))


def assert_matches_reference(report, expected):
    hits, hit_count, examined, complete = expected
    assert [h.elements for h in report.hits] == hits
    assert (report.hit_count, report.examined, report.exhausted) == (hit_count, examined, complete)


def rank_blocks(ground, size, count):
    """``_blocks`` of the first ``count`` candidates of ``size`` as rank
    descriptors, on any ground."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_MASK_K", -1)
        return list(_blocks(ground, [0] * size + [count]))


def scan_lattice(blocks, budget, special, hit_cap, first_hit, workers):
    """``_scan`` over lattice blocks, its hits as tuples."""
    hits, hit_count, examined, complete = _scan(
        blocks, functools.partial(_lattice_block, special, hit_cap), budget, 0, hit_cap, first_hit, workers
    )
    return [h.elements for h in hits], hit_count, examined, complete


@pytest.mark.parametrize("mask_k", [_MASK_K, 0], ids=["mask", "rank"])
@pytest.mark.parametrize("seed", range(3))
def test_lattice_blocks_match_the_tuple_stream(monkeypatch, seed, mask_k):
    # this 15-element ground is one mask level at the default _MASK_K,
    # whatever share of it the window and the budget want; at 0 it is
    # rank blocks of _BLOCK candidates, as on a ground classified row by
    # row, which put block edges inside sizes 7 and 8 (its own census
    # blocks hold every size whole)
    monkeypatch.setattr(_ScanGround, "block", _BLOCK)
    monkeypatch.setattr(search, "_MASK_K", mask_k)
    monkeypatch.setattr(search, "_MASK_SHARE", 0)
    rng = random.Random(seed)
    elems = conway_ground(rng, 7, 30)
    lo, hi = [(0, len(elems)), (7, 9), (8, 8)][seed]
    stream = [c for k in range(lo, hi + 1) for c in itertools.combinations(elems, k)]
    # block edges: every size starts a block, and a block holds _BLOCK rows
    edges = list(itertools.accumulate(
        min(_BLOCK, math.comb(len(elems), k) - start)
        for k in range(lo, hi + 1) for start in range(0, math.comb(len(elems), k), _BLOCK)
    ))
    full_blocks = [b for a, b in zip([0] + edges, edges) if b - a == _BLOCK]
    assert full_blocks
    # a budget inside a later block, and the whole stream, whose first
    # hit lies past the first block, run in a pool too
    first = next(p for p, c in enumerate(stream) if naive_hit(c, False))
    assert seed == 2 or first >= edges[0]
    pooled = {rng.randrange(edges[1] + 1, len(stream)), len(stream)}

    def blocks():
        streamed = [math.comb(len(elems), k) if lo <= k <= hi else 0 for k in range(len(elems) + 1)]
        return _blocks(_ScanGround(elems), streamed)

    for budget in budgets_around(len(stream), full_blocks[:1] + rng.sample(edges, 3) + sorted(pooled), rng):
        for special, run in ((False, exhaustive_search), (True, special_search)):
            for objective, hit_cap in (("count-all", 1000), ("count-all", 5), ("first-hit", 1), ("count-all", 1)):
                cfg = SearchConfig(ground=IntSet(elems), min_size=lo, max_size=hi, budget=budget,
                                   objective=objective, hit_cap=hit_cap)
                first_hit = objective == "first-hit"
                expected = reference_scan(stream, budget, 0, special, hit_cap, first_hit)
                assert_matches_reference(run(cfg), expected)
                if budget in pooled and (objective, hit_cap) in (("count-all", 5), ("first-hit", 1)):
                    assert scan_lattice(blocks(), budget, special, hit_cap, first_hit, 2) == expected


@pytest.mark.parametrize(
    "elems",
    [
        *(tuple(range(n)) for n in (1, 2, 3, 9, 15)),
        tuple(PrimeSieve(100).primes()[:18].tolist()),
        tuple(materialize(SequenceSpec.fibonacci(), 14)),
        tuple(2**64 + 3 * e for e in range(16)),  # past int64
        tuple(range(22)),
    ],
    ids=lambda elems: f"{len(elems)}-from-{elems[0] % 1000}",
)
def test_search_reports_match_in_mask_and_rank_order(monkeypatch, elems):
    # a ground of at most _MASK_K elements is one mask level (at
    # _MASK_SHARE = 0, for any window and budget); at _MASK_K = 0 the
    # same scan runs in rank blocks.  Both engines give one report for
    # windows from size 0 (the empty set and singletons) up, budgets of
    # 1, at and beside the rank blocks' edges and past the window, both
    # objectives and hit caps 1, 3 and 1000; the rank blocks of a whole
    # window also in a pool of two.  Every mask level costs
    # all its 2^n masks, so the 22-element ground runs only its whole
    # lattice, at budgets around its first edge and past its end
    n = len(elems)
    ground = _ScanGround(elems)
    assert ground.k <= _MASK_K
    rng = random.Random(n)
    for lo, hi in [(0, None), (0, 1), (8, 9)] if n < 22 else [(0, None)]:
        streamed = [math.comb(n, s) if lo <= s <= (n if hi is None else hi) else 0 for s in range(n + 1)]
        monkeypatch.setattr(search, "_MASK_K", 0)
        edges = list(itertools.accumulate(count for count, _ in _blocks(ground, streamed)))
        monkeypatch.undo()
        count = sum(streamed)
        inner = rng.sample(edges, min(2, len(edges))) if n < 22 else []
        marks = {1, count + 1, *(e + d for e in {*edges[:1], *inner} for d in (-1, 0, 1))}
        for i, budget in enumerate(sorted(b for b in marks if b >= 1)):
            for special, run in ((False, exhaustive_search), (True, special_search)):
                for objective, hit_cap in (("count-all", (1, 3, 1000)[i % 3]), ("first-hit", 1)):
                    cfg = SearchConfig(ground=IntSet(elems, diameter_cap=None), min_size=lo, max_size=hi,
                                       budget=budget, objective=objective, hit_cap=hit_cap)
                    monkeypatch.setattr(search, "_MASK_SHARE", 0)
                    mask = run(cfg).to_dict()
                    monkeypatch.setattr(search, "_MASK_K", 0)
                    assert run(cfg).to_dict() == mask
                    if budget > count and objective == "count-all" and len(edges) > 1:
                        assert run(replace(cfg, threads=2)).to_dict() == mask
                    monkeypatch.undo()


@pytest.mark.parametrize("n", [3, 9, 16, 20, 22, 23])
def test_search_takes_mask_order_for_wide_enough_windows(monkeypatch, n):
    # a search's block kind, from the rule: a mask level when the ground
    # has at most _MASK_K elements and the window's candidates, capped by
    # the budget, are at least _MASK_SHARE of its 2^n masks; else rank
    # blocks.  The dense benchmark's window (size 10 of 20, 17.6%) is a
    # mask level, size 2 of {0..21} (231 candidates) rank blocks
    class First(Exception):
        pass

    def blocks(ground, streamed, budget=math.inf):
        for _, block in _blocks(ground, streamed, budget):
            raise First(isinstance(block, _MaskLevel))
        yield

    monkeypatch.setattr(search, "_blocks", blocks)
    rng = random.Random(n)
    elems = tuple(sorted(rng.sample(range(2 * n + 4), n)))
    kinds = set()
    for lo, hi in [(0, n), (2, 2), (n // 2, n // 2), (max(0, n // 2 - 3), n // 2 - 1), (n - 1, n)]:
        window = sum(math.comb(n, s) for s in range(lo, hi + 1))
        for budget in sorted({1, 1000, window // 9, window // 11, search.DEFAULT_BUDGET} - {0}):
            mask = n <= _MASK_K and min(window, budget) >= search._MASK_SHARE * 2**n
            with pytest.raises(First) as first:
                exhaustive_search(SearchConfig(ground=IntSet(elems), min_size=lo, max_size=hi, budget=budget))
            assert first.value.args == (mask,)
            kinds.add(mask)
    assert (True in kinds) is (n <= _MASK_K) and (False in kinds) is (n > 3)
    assert math.comb(20, 10) / 2**20 >= search._MASK_SHARE > 231 / 2**22


def test_minimality_levels_on_the_primes_are_mask_levels():
    # every level below the optimum, both objectives, on the primes up
    # to 439: each is one mask level of all its streamed candidates
    elems = tuple(PrimeSieve(439).primes().tolist())
    maxima = [m for m, e in enumerate(elems) if FLOOR <= e < 73]
    pairs = [(i, j) for j, b in enumerate(elems) for i, a in enumerate(elems[:j]) if FLOOR <= b - a < 68]
    for objective, levels in ((MIN_MAX, maxima), (MIN_DIAMETER, pairs)):
        assert len(levels) > 10
        for where in levels:
            (count, level), = _level(elems, objective, where, FLOOR)
            assert isinstance(level, _MaskLevel) and count >= search._MASK_SHARE * 2**level.ground.k


# (objective, levels of at most this many interior elements in mask
# order): the default, and 0, which puts every level on rank blocks
OBJECTIVE_BY_MASK_K = pytest.mark.parametrize(
    "objective, mask_k",
    [(MIN_MAX, _MASK_K), (MIN_DIAMETER, _MASK_K), (MIN_MAX, 0), (MIN_DIAMETER, 0)],
    ids=[MIN_MAX, MIN_DIAMETER, f"rank-{MIN_MAX}", f"rank-{MIN_DIAMETER}"],
)


@OBJECTIVE_BY_MASK_K
def test_level_blocks_match_the_tuple_stream(monkeypatch, objective, mask_k):
    monkeypatch.setattr(_ScanGround, "block", _BLOCK)  # block edges inside the levels
    monkeypatch.setattr(search, "_MASK_K", mask_k)
    rng = random.Random(5)
    elems = conway_ground(rng, 7, 30)
    if objective == MIN_MAX:
        levels = [m for m, e in enumerate(elems) if e >= FLOOR]
    else:
        levels = [w for _, w in sorted((b - a, (i, j)) for i, a in enumerate(elems)
                                       for j, b in enumerate(elems) if b - a >= FLOOR)]
    stream = [c for w in levels for c in reference_level(elems, objective, w)]
    floor_breaks = [p + 1 for p, c in enumerate(stream) if c[-1] - c[0] < FLOOR]
    assert floor_breaks or objective == MIN_DIAMETER
    sizes = [count for w in levels for count, _ in _level(elems, objective, w, FLOOR)]
    assert sum(sizes) == len(stream)
    if mask_k:  # every level is one block
        assert len(sizes) == len(levels)
    else:
        assert max(sizes) == _BLOCK or objective == MIN_DIAMETER
    ends = list(itertools.accumulate(sizes))
    largest = ends[sizes.index(max(sizes))]  # the end of the largest block
    first = next(p for p, c in enumerate(stream) if c[-1] - c[0] >= FLOOR and naive_hit(c, False))
    if mask_k:  # the first hit cuts the first level inside it
        assert 0 < first < ends[0] - 1
    else:
        assert first >= ends[0]  # the first hit lies in a later block
    pooled = {first + 1, len(stream)}
    marks = rng.sample(floor_breaks, min(4, len(floor_breaks))) + [largest, *sorted(pooled)]
    for budget in budgets_around(len(stream), marks, rng):
        for hit_cap, first_hit in ((1000, False), (5, False), (1, True)):
            expected = reference_scan(stream, budget, 0, False, hit_cap, first_hit)
            for workers in (1, 2) if budget in pooled else (1,):
                blocks = itertools.chain.from_iterable(_level(elems, objective, w, FLOOR) for w in levels)
                assert scan_lattice(blocks, budget, False, hit_cap, first_hit, workers) == expected


@pytest.mark.parametrize(
    "elems",
    [
        conway_ground(random.Random(11), 6, 26),
        conway_ground(random.Random(12), 8, 40),
        tuple(materialize(SequenceSpec.fibonacci(), 30)),  # sparse: many scales per probe batch
        tuple(2**64 + e for e in range(30)),  # past int64
    ],
    ids=["dense", "sparse", "fibonacci", "past-int64"],
)
@OBJECTIVE_BY_MASK_K
def test_minimal_matches_the_reference_search(monkeypatch, elems, objective, mask_k):
    monkeypatch.setattr(search, "_MASK_K", mask_k)
    most = 50_000
    full = reference_minimal(elems, objective, most)
    for budget in sorted({1, 2, 17, 600, full[1] - 1, full[1], most} - {0}):
        report = minimal_mstd_in(IntSet(elems, diameter_cap=None), objective=objective, budget=budget)
        hits, examined, exhausted, value = reference_minimal(elems, objective, budget)
        assert [h.elements for h in report.hits] == hits
        assert (report.examined, report.exhausted, report.objective_value) == (examined, exhausted, value)
    if len(elems) <= 16:
        assert report.exhausted and report.objective_value == _brute_optimum(elems, objective)


def rank_order(blocks, take, hit_cap):
    """(take, hit positions, first hits) of rank blocks that hold one
    level, cut at ``take`` and merged in stream order."""
    at, found, start = [], [], 0
    for count, block in blocks:
        if start >= take:
            break
        _, positions, hits = _lattice_block(False, hit_cap, block, min(count, take - start))
        at += (start + positions).tolist()
        found += hits[: hit_cap - len(found)]
        start += count
    return take, at, found


@pytest.mark.parametrize("objective", [MIN_MAX, MIN_DIAMETER])
@pytest.mark.parametrize("seed", range(2))
def test_mask_order_matches_rank_order_on_every_level(monkeypatch, objective, seed):
    # every level of a small ground, classified whole in mask order and
    # block by block in rank order, cut everywhere in levels of at most
    # 64 candidates; in larger ones at the first and last candidate, on
    # and after each hit, at both sides of each size's start and at
    # random points inside it
    rng = random.Random(seed)
    elems = conway_ground(rng, 6, 26 + 4 * seed)
    if objective == MIN_MAX:
        levels = [m for m, e in enumerate(elems) if e >= FLOOR]
    else:
        levels = [(i, j) for i, a in enumerate(elems) for j, b in enumerate(elems) if b - a >= FLOOR]
    cuts = hits = 0
    for where in levels:
        monkeypatch.setattr(search, "_MASK_SHARE", 0)  # levels of few candidates too
        (count, level), = _level(elems, objective, where, FLOOR)
        assert isinstance(level, _MaskLevel) and count == sum(level.streamed)
        monkeypatch.setattr(search, "_MASK_K", 0)
        rank = list(_level(elems, objective, where, FLOOR))
        monkeypatch.undo()
        _, hits_at, _ = rank_order(rank, count, 1)
        starts = list(itertools.accumulate(level.streamed))
        takes = {1, count, *(p + d for p in hits_at for d in (0, 1, 2)), *(s + d for s in starts for d in (0, 1))}
        takes |= {rng.randrange(1, count + 1) for _ in range(4)} | set(range(1, 65) if count <= 64 else ())
        hits += len(hits_at)
        for take in sorted(t for t in takes if 1 <= t <= count):
            for hit_cap in (1, 3):
                mask = _lattice_block(False, hit_cap, level, take)
                assert (mask[0], mask[1].tolist(), mask[2]) == rank_order(rank, take, hit_cap)
                cuts += 1
    assert cuts > 10 * len(levels) and hits > 0


@pytest.mark.parametrize("cut", [False, True], ids=["whole", "floor-cut"])
@pytest.mark.parametrize("lead, tail", [(0, 1), (1, 1)])
def test_mask_positions_are_combinations_stream_indices(lead, tail, cut):
    # the stream built here size by size from itertools.combinations of
    # the interior, each size cut after its first candidate below the
    # floor when ``cut``; elements 3 apart put the floor inside the
    # interior once k >= 5
    for k in range(13):
        n = lead + k + tail
        elems = tuple(range(0, 3 * n, 3))
        stream, streamed = {}, []
        for size in range(k + 1):
            before = len(stream)
            for combo in itertools.combinations(range(lead, lead + k), size):
                cand = tuple(range(lead)) + combo + tuple(range(n - tail, n))
                stream[cand] = len(stream)
                if cut and elems[cand[-1]] - elems[cand[0]] < FLOOR:
                    break
            streamed.append(len(stream) - before)
        level = _MaskLevel(_ScanGround(elems, lead, tail), tuple(streamed))
        # _level's own cut: min-max levels always, diameter levels at or past the floor
        if cut and (lead, tail) == (0, 1):
            assert next(_level(elems, MIN_MAX, n - 1, FLOOR))[1].streamed == tuple(streamed)
        if not cut and (lead, tail) == (1, 1) and elems[-1] >= FLOOR:
            assert next(_level(elems, MIN_DIAMETER, (0, n - 1), FLOOR))[1].streamed == tuple(streamed)
        expected = [
            stream.get(tuple(range(lead)) + tuple(lead + e for e in range(k) if m >> e & 1)
                       + tuple(range(n - tail, n)), len(stream))
            for m in range(1 << k)
        ]
        assert [level.position(m) for m in range(1 << k)] == expected
        assert sorted(p for p in expected if p < len(stream)) == list(range(len(stream)))


def test_mask_level_peak_memory():
    # one whole level of _MASK_K interior elements, traced cold: the
    # tiles of 2^c masks come one at a time, and only hits are kept, so
    # no array is sized 2^k; the primes hold few hits, {0..K} hundreds,
    # the powers of two none, in 9 words (tiles of 2^12 masks, past the
    # byte budget).  {0..K}'s whole block is not traced: its 1594 hits
    # are tuples, not the arrays this bound is about
    primes = tuple(PrimeSieve(1000).primes()[: _MASK_K + 1].tolist())
    interval = tuple(range(_MASK_K + 1))
    powers = tuple(2**i for i in range(_MASK_K + 1))
    assert search._pair_bits(powers)[0].shape[2] == 9

    def traced(run):
        # a full collection empties CPython's free lists, so tuples the run
        # parks there count against the bound whatever ran before
        gc.collect()
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for elems in (primes, interval, powers):
        (count, level), = _level(elems, MIN_MAX, _MASK_K, FLOOR)
        assert level.ground.k == _MASK_K and count > 2**19
        _, tiles_peak = traced(lambda: sum(1 for _ in search._mask_tiles(level.ground)))
        block = functools.partial(_lattice_block, False, search.DEFAULT_HIT_CAP, level, count)
        (_, hits, _), block_peak = (block(), 0) if elems == interval else traced(block)
        assert (len(hits) > 0) is (elems != powers)
        assert tiles_peak < 2**20 and block_peak < 2**20


def test_mask_levels_are_spot_checked(monkeypatch):
    # a kernel fault that no hit shows: the recount of each tile's last
    # mask still sees it
    elems = tuple(range(0, 60, 5))  # an AP: no MSTD subset
    min_mstd_diameter()
    (count, level), = _level(elems, MIN_MAX, len(elems) - 1, FLOOR)
    honest = search.sum_diff_counts
    monkeypatch.setattr(search, "sum_diff_counts", lambda e, *a, **k: (honest(e)[0], honest(e)[1] + 1))
    with pytest.raises(RuntimeError, match="disagrees with sum_diff_counts"):
        _lattice_block(False, 1, level, count)
    monkeypatch.undo()
    assert _lattice_block(False, 1, level, count)[1].tolist() == []


def tile_budget(monkeypatch, ground, c):
    """Patch the tile byte budget (and the floor on c, which is the run of
    masks that one recount covers) so that ``ground``'s tiles hold 2^c
    masks."""
    words = search._pair_bits(ground.elements)[0].shape[2]
    monkeypatch.setattr(search, "_TILE_BYTES", 8 * words << c)
    monkeypatch.setattr(search, "_CHECK_BITS", min(c, search._CHECK_BITS))


@pytest.mark.parametrize("tile_bits", [0, 3, 12])
def test_mask_tiles_match_pair_enumeration(monkeypatch, tile_bits):
    # every mask of small levels, counted in tiles of 2^c masks (byte
    # budgets for c = 0 and 3 leave high elements for each tile to add),
    # against |A+A| and |A-A| enumerated pair by pair; and the level's
    # hits, special or not, against the same counts, in stream order.
    # Without fixed elements the empty mask is a candidate, with no
    # differences
    rng = random.Random(7)
    grounds = [tuple(range(5, 41, 3))]  # an AP
    for _ in range(2):  # Conway's set and elements inside it
        shift = rng.randrange(4)
        image = {c + shift for c in CONWAY}
        grounds.append(tuple(sorted(image | set(rng.sample(sorted(set(range(shift, shift + 15)) - image), 4)))))
    grounds.append(tuple(2**64 + e for e in grounds[1]))  # past int64
    hits = 0
    for elems in grounds:
        for lead, tail in ((0, 0), (0, 1), (1, 1)):
            for k in (0, 1, 2, 3, 5, 8, 10):
                level_elems = elems[: lead + k] + elems[len(elems) - tail :]
                if not level_elems:
                    continue
                ends = level_elems[:lead], level_elems[lead + k :]
                cands = [ends[0] + tuple(level_elems[lead + e] for e in range(k) if m >> e & 1) + ends[1]
                         for m in range(1 << k)]
                counts = [(len({a + b for a in c for b in c}), len({a - b for a in c for b in c})) for c in cands]
                ground = _ScanGround(level_elems, lead, tail)
                tile_budget(monkeypatch, ground, tile_bits)
                got = []
                for first, sums, nonneg in search._mask_tiles(ground):
                    assert first == len(got) and len(sums) == 1 << min(k, tile_bits)
                    got += zip(sums.tolist(), np.maximum(2 * nonneg - 1, 0).tolist())
                assert got == counts
                level = _MaskLevel(ground, tuple(math.comb(k, s) for s in range(k + 1)))
                for special in (False, True):
                    expected = sorted((level.position(m), c) for m, (c, (sc, dc)) in enumerate(zip(cands, counts))
                                      if sc > dc and (not special or sc - dc >= len(c)))
                    take, at, found = _lattice_block(special, 1 << k, level, 1 << k)
                    assert (at.tolist(), found) == ([p for p, _ in expected], [c for _, c in expected])
                    hits += len(expected)
    assert hits > 0


def test_mask_tiles_are_recounted_tile_by_tile(monkeypatch):
    # a kernel fault in one pair's bit: the sum of the tail and the top
    # interior element, which no other pair has, is dropped.  Only the
    # masks that hold that element miscount, the first of them in a
    # later tile of 16 masks, and an AP has no hit to recount, so only
    # the recount of the last mask of each run of 16 can see it
    elems = tuple(range(0, 60, 5))
    min_mstd_diameter()
    (count, level), = _level(elems, MIN_MAX, len(elems) - 1, FLOOR)
    k = level.ground.k
    tile_budget(monkeypatch, level.ground, 4)
    honest = list(search._mask_tiles(level.ground))
    assert len(honest) == 2 ** (k - 4)
    pair_bits = search._pair_bits

    def dropped(elements):
        bits, sum_words = pair_bits(elements)
        n = len(elements)
        bits[n - 2, n - 1, :sum_words] = bits[n - 1, n - 2, :sum_words] = 0
        return bits, sum_words

    monkeypatch.setattr(search, "_pair_bits", dropped)
    wrong = [first + r for (first, sums, _), (_, good, _) in zip(search._mask_tiles(level.ground), honest)
             for r in np.flatnonzero(sums != good).tolist()]
    assert wrong == [m for m in range(1 << k) if m >> (k - 1) & 1]
    with pytest.raises(RuntimeError, match="disagrees with sum_diff_counts"):
        _lattice_block(False, 1, level, count)
    monkeypatch.undo()
    assert _lattice_block(False, 1, level, count)[1].tolist() == []


def test_mask_levels_recount_one_mask_in_4096(monkeypatch):
    # the spot checks do not thin out as tiles grow: a level of k = 14 (an
    # AP, two words) with no special hit, in tiles of 2^12, 2^13 and 2^14
    # masks, is recounted 2^14 / 4096 times, at the end of every 4096 masks
    elems = tuple(range(0, 75, 5))
    min_mstd_diameter()
    (count, level), = _level(elems, MIN_MAX, len(elems) - 1, FLOOR)
    assert level.ground.k == 14 and search._pair_bits(elems)[0].shape[2] == 2
    honest = search.sum_diff_counts
    for c in (12, 13, 14):
        monkeypatch.setattr(search, "_TILE_BYTES", 16 << c)
        assert [first for first, _, _ in search._mask_tiles(level.ground)] == list(range(0, 1 << 14, 1 << c))
        seen = []
        monkeypatch.setattr(search, "sum_diff_counts", lambda e, *a, **k: seen.append(e) or honest(e))
        assert _lattice_block(True, 1, level, count)[1].tolist() == []
        assert seen == [level.ground.mask_subset(m) for m in range(4095, 1 << 14, 4096)]
        monkeypatch.undo()
    assert len(list(search._mask_tiles(level.ground))) == 1  # the default budget: one tile of 2^14


@pytest.mark.parametrize(
    "elems",
    [
        base_expansion(IntSet(CONWAY), 2).elements,  # 64 elements: census
        base_expansion(IntSet(CONWAY), 2).elements + (10**4,),  # 65: row by row
        tuple(2 ** (10 * i) for i in range(20)),  # past int64, no MSTD subset
        tuple(2**70 + 2**64 * i for i in CONWAY + tuple(range(15, 27))),  # past int64, with hits
        tuple(2**i for i in range(70)),  # past int64, 70 elements: unranked by position
    ],
    ids=["width-64", "width-65", "powers-past-int64", "conway-past-int64", "powers-of-two-70"],
)
def test_lattice_blocks_on_wide_and_huge_grounds(elems):
    lo, hi = (7, 9) if 2**10 in elems else (8, 8)
    stream = list(itertools.islice((c for k in range(lo, hi + 1) for c in itertools.combinations(elems, k)), 5000))
    assert any(naive_hit(c, False) for c in stream) is (2**10 not in elems)
    for budget in (2047, 2048, 2049, 4999):
        for special, run in ((False, exhaustive_search), (True, special_search)):
            for objective, hit_cap in (("count-all", 5), ("first-hit", 1)):
                cfg = SearchConfig(ground=IntSet(elems, diameter_cap=None), min_size=lo, max_size=hi,
                                   budget=budget, objective=objective, hit_cap=hit_cap)
                expected = reference_scan(stream, budget, 0, special, hit_cap, objective == "first-hit")
                assert_matches_reference(run(cfg), expected)


def frame(lead, interior, tail, n):
    """Ground-index rows of a scan ground of n elements: the ``lead``
    first and ``tail`` last elements, and each interior combination."""
    return [tuple(range(lead)) + tuple(lead + c for c in combo) + tuple(range(n - tail, n)) for combo in interior]


@pytest.mark.parametrize("lead, tail", [(0, 0), (0, 1), (1, 1)])
def test_unranked_rows_match_itertools(monkeypatch, lead, tail):
    # blocks of 7 put block edges inside every size of k >= 3; each
    # block's rows, by position and by element, equal the combinations
    # in order, as do blocks from a middle rank
    monkeypatch.setattr(_ScanGround, "block", 7)
    rng = random.Random(lead + 2 * tail)
    for k in range(13):
        n = lead + k + tail
        if n == 0:
            continue
        ground = _ScanGround(tuple(range(n)), lead, tail)
        for size in range(k + 1):
            expected = frame(lead, itertools.combinations(range(k), size), tail, n)
            starts = [(b[2], count) for count, b in rank_blocks(ground, size, len(expected))]
            middle = rng.randrange(len(expected))
            starts.append((middle, len(expected) - middle))
            assert [first for first, _ in starts[:-1]] == list(range(0, len(expected), 7))
            for first, count in starts:
                want = expected[first : first + count]
                assert [tuple(r) for r in ground.index_rows(size, first, count).tolist()] == want
                member = ground.member_rows(size, first, count)
                assert member.shape == (n, count)
                assert [tuple(np.flatnonzero(r).tolist()) for r in member.T] == want


def test_unranking_where_the_counts_pass_int64():
    # C(200, 30) > 2**63: ranks stay int64 because the tables are clipped
    elems = tuple(range(0, 400, 2))
    assert math.comb(200, 30) > 2**63
    stream = list(itertools.islice(itertools.combinations(elems, 30), 3001))  # one past the budget
    ground = _ScanGround(elems)
    for first, count in ((0, 3001), (1999, 1002), (2047, 2)):
        rows = ground.index_rows(30, first, count)
        assert [ground.subset(r) for r in rows] == stream[first : first + count]
        member = ground.member_rows(30, first, count)
        assert [tuple(itertools.compress(elems, r.tolist())) for r in member.T] == stream[first : first + count]
    table, forced = search._binomials(170, 30)
    assert table.max() <= search._RANK_CAP and forced > 0 and table.size <= 66 * 202
    for objective in ("count-all", "first-hit"):
        cfg = SearchConfig(ground=IntSet(elems), min_size=30, max_size=30, budget=3000, objective=objective)
        assert_matches_reference(exhaustive_search(cfg), reference_scan(stream, 3000, 0, False, 1000,
                                                                        objective == "first-hit"))


def test_census_blocks_are_spot_checked(monkeypatch):
    # a kernel that counts one sum too many makes every size-6 subset of
    # this ground look balanced or better, and none is MSTD: only the
    # recount of one candidate per block can notice, the last mask of
    # each tile of the mask level or, at _MASK_K = 0, the first row of
    # each rank block
    ground = IntSet((0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17))
    min_mstd_diameter()  # the floor scan runs before the fault
    honest = search.sum_diff_counts
    for mask_k in (_MASK_K, 0):
        monkeypatch.setattr(search, "_MASK_K", mask_k)
        monkeypatch.setattr(search, "sum_diff_counts", lambda e, *a, **k: (honest(e)[0] + 1, honest(e)[1]))
        with pytest.raises(RuntimeError, match="disagrees with sum_diff_counts"):
            exhaustive_search(SearchConfig(ground=ground, min_size=6, max_size=6))
        monkeypatch.setattr(search, "sum_diff_counts", honest)
        assert exhaustive_search(SearchConfig(ground=ground, min_size=6, max_size=6)).hit_count == 0


# -- monte carlo -------------------------------------------------------

def test_density_of_short_interval_is_zero():
    report = monte_carlo_density(10, 100_000, seed=0)
    assert report.hit_count == 0
    assert report.density_estimate == 0.0


def test_density_deterministic_and_seed_sensitive():
    a = monte_carlo_density(60, 50_000, seed=11)
    b = monte_carlo_density(60, 50_000, seed=11)
    c = monte_carlo_density(60, 50_000, seed=12)
    assert a.to_dict() == b.to_dict()
    assert a.seed == 11
    assert c.to_dict() != a.to_dict()


def test_density_independent_of_worker_count():
    serial = monte_carlo_density(60, 200_000, seed=2, threads=1)
    pooled = monte_carlo_density(60, 200_000, seed=2, threads=3)
    assert serial.to_dict() == pooled.to_dict()


def test_ordered_starts_one_worker_per_call_read(monkeypatch):
    # _ordered reads min(threads, CPUs) calls before it runs any: one
    # call runs in this process, more start a pool of one worker per
    # call read; a thread pool stands in for the process pool to record
    # the starts
    started = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        for threads in (1, 2, 3, 5):
            for calls in (0, 1, 2, 3, 7):
                started.clear()
                assert list(_ordered(pow, [(c, 2) for c in range(calls)], threads)) == [c * c for c in range(calls)]
                workers = min(threads, cpus, calls)
                assert started == ([workers] if workers > 1 else [])
    # through an engine: a budget that lets one lattice block through
    # starts no pool, whatever the thread count; one more candidate does
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ground = IntSet(range(31))
    block = _ScanGround(ground.elements).block
    for budget, pools in ((1000, []), (block, []), (block + 1, [2])):
        started.clear()
        cfg = SearchConfig(ground=ground, min_size=8, max_size=8, budget=budget, threads=2)
        report = exhaustive_search(cfg)
        assert started == pools
        assert report.to_dict() == exhaustive_search(replace(cfg, threads=1)).to_dict()


def test_only_a_run_that_starts_a_pool_imports_one():
    # serial engines in a fresh interpreter leave the pool module and
    # multiprocessing unloaded; three Monte Carlo chunks at threads=2 start
    # a pool (two CPUs stand in for the host's) and report what one
    # thread reports
    code = (
        "import os, sys\n"
        "import mstd\n"
        "from mstd import CONWAY, IntSet, SearchConfig, classify, exhaustive_search, monte_carlo_density\n"
        "classify(IntSet(CONWAY))\n"
        "exhaustive_search(SearchConfig(ground=IntSet(range(16)), min_size=8, max_size=8))\n"
        "monte_carlo_density(100, 70000)\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
        "os.cpu_count = lambda: 2\n"
        "pooled = monte_carlo_density(100, 140000, threads=2).to_dict()\n"
        "print('concurrent.futures.process' in sys.modules)\n"
        "print(pooled == monte_carlo_density(100, 140000, threads=1).to_dict())\n"
    )
    src = str(Path(search.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.split("\n") == ["[]", "True", "True", ""]


def test_monte_carlo_hits_reclassify_mstd():
    report = monte_carlo_density(60, 150_000, seed=4)
    assert report.hit_count > 0
    assert report.hits
    for hit in report.hits:
        assert classify(hit).verdict == "mstd"


def test_monte_carlo_matches_exhaustive_ratio():
    exact = exhaustive_search(SearchConfig(ground=GROUND_15, budget=1 << 15))
    assert exact.exhausted
    truth = exact.hit_count / (1 << 15)
    mc = monte_carlo_density(14, 400_000, seed=3)
    tolerance = 4 * max(mc.stderr, 1e-6)
    assert abs(mc.density_estimate - truth) <= tolerance
    assert mc.density_estimate == mc.hit_count / 400_000


def test_monte_carlo_dilated_ground_same_hits():
    # subsets of 2*{0..30} are dilations of subsets of {0..30}, so the
    # same seed must produce the same hit pattern on both grounds
    plain = special_search(
        SearchConfig(ground=IntSet(range(31)), mode="monte-carlo", samples=50_000, seed=9)
    )
    dilated = special_search(
        SearchConfig(
            ground=IntSet(range(0, 62, 2)), mode="monte-carlo", samples=50_000, seed=9
        )
    )
    assert plain.hit_count == dilated.hit_count
    assert [tuple(2 * e for e in h.elements) for h in plain.hits] == [
        h.elements for h in dilated.hits
    ]


def naive_monte_carlo(elems, samples, seed, special, hit_cap):
    """(hit_count, hits) from the documented stream: chunk c draws
    SeedSequence(seed, spawn_key=(c,)) bytes, sample k of the chunk is
    bytes k * nbytes ... (k + 1) * nbytes read little-endian, and bit j
    picks elems[j]; classified by pair enumeration."""
    nbytes = (len(elems) + 7) // 8
    hit_count, hits = 0, []
    for chunk, start in enumerate(range(0, samples, 1 << 16)):
        take = min(1 << 16, samples - start)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk,))))
        buf = rng.bytes(nbytes * take)
        for k in range(take):
            mask = int.from_bytes(buf[k * nbytes : (k + 1) * nbytes], "little")
            chosen = [e for j, e in enumerate(elems) if mask >> j & 1]
            gap = len({a + b for a in chosen for b in chosen}) - len({a - b for a in chosen for b in chosen})
            if gap > 0 and (not special or gap >= len(chosen)):
                hit_count += 1
                if len(hits) < hit_cap:
                    hits.append(chosen)
    return hit_count, hits


MC_PRIMES = [p for p in range(2, 600) if all(p % q for q in range(2, int(p**0.5) + 1))]


@pytest.mark.parametrize(
    "elems, samples",
    [
        ((5,), 63),
        ((0, 7), 65),
        (CONWAY, 2049),
        (CONWAY + (20,), (1 << 16) + 1),
        (tuple(range(0, 128, 2)), 2049),
        (tuple(MC_PRIMES[:65]), 2049),
        (tuple(range(101)), 2049),
        (tuple(MC_PRIMES[:101]), 1),
    ],
)
def test_monte_carlo_matches_naive_recount(elems, samples):
    for special in (False, True):
        for seed, hit_cap in ((1, 1000), (8, 2)):
            cfg = SearchConfig(
                ground=IntSet(elems, diameter_cap=None), mode="monte-carlo",
                samples=samples, seed=seed, hit_cap=hit_cap,
            )
            report = _mc_scan(cfg, special)
            hit_count, hits = naive_monte_carlo(elems, samples, seed, special, hit_cap)
            assert report.hit_count == hit_count
            assert [list(h.elements) for h in report.hits] == hits
            assert report.examined == samples
            assert report.density_estimate == hit_count / samples


def test_monte_carlo_special_rule_at_its_boundary():
    # random subsets of a test-sized ground are special far too rarely
    # to reach gap == size by sampling, so the block rule is pinned on
    # counts: a special hit needs a gap of at least the size
    sc = np.array([26, 26, 26, 10, 9, 0])
    dc = np.array([25, 18, 19, 2, 9, 0])
    size = np.array([8, 8, 8, 9, 1, 0])  # gaps 1, 8, 7, 8, 0, 0
    assert _census_hits(sc, dc, size, special=False).tolist() == [True, True, True, True, False, False]
    assert _census_hits(sc, dc, size, special=True).tolist() == [False, True, False, False, False, False]
    # on real sets it is the lattice engines' rule: S3 (gap 1951, size
    # 512) stays special for two far appends and is MSTD only after three
    sets = [(0, 1, 3), (0, 1, 2), CONWAY]
    grown = base_expansion(IntSet(CONWAY), 3)
    for _ in range(4):
        sets.append(grown.elements)
        grown = IntSet(grown.elements + (2 * grown.total,), diameter_cap=None)
    counts = np.array([sum_diff_counts(e) for e in sets])
    sizes = np.array([len(e) for e in sets])
    for special in (False, True):
        expected = [naive_hit(e, special) for e in sets]
        assert _census_hits(counts[:, 0], counts[:, 1], sizes, special).tolist() == expected
    assert [naive_hit(e, True) for e in sets] == [False] * 3 + [True] * 3 + [False]


@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_census_of_every_subset_matches_lattice_count(n):
    # every subset of {0..n-1} through the batched kernel, against the
    # scalar bit kernel's count of the same power set (the lattice engine
    # runs the census too, so it is no independent check by itself)
    census = PairCensus(tuple(range(n)))
    mstd_count = 0
    for start in range(0, 1 << n, census.block):
        # row k: the bits of start + k, element j at bit j
        index = np.arange(start, min(start + census.block, 1 << n))
        member = (index[:, None] >> np.arange(n) & 1).astype(np.uint8)
        sc, dc, _ = census.word_counts(bit_slices(member.T), len(member))
        mstd_count += int(np.count_nonzero(sc > dc))
    scalar = 0
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            sc, dc = sum_diff_counts(combo, kernel="bits")
            scalar += sc > dc
    lattice = exhaustive_search(SearchConfig(ground=IntSet(range(n))))
    assert lattice.exhausted
    assert mstd_count == scalar == lattice.hit_count > 0


@pytest.mark.parametrize("hit_cap", [1, 2, 5])
def test_lattice_census_block_matches_row_by_row(monkeypatch, hit_cap):
    # the first 12288-candidate lattice block of sizes 9 and 10 of
    # {0..17} goes to the census whole; whole and budget-cut blocks
    # give the row-by-row positions and hits (hits merged across census
    # blocks: test_monte_carlo_matches_naive_recount)
    ground = _ScanGround(tuple(range(18)))
    blocks = [b for size in (9, 10) for _, b in itertools.islice(rank_blocks(ground, size, math.comb(18, size)), 1)]
    assert ground.by_census and ground.block == 12288

    def classify():
        return [
            (take, at.tolist(), found)
            for special in (False, True)
            for block in blocks
            for take, at, found in (_lattice_block(special, hit_cap, block, t) for t in (ground.block, 1000))
        ]

    census = classify()
    monkeypatch.setattr(search, "_CENSUS_PAIRS", 0)
    assert classify() == census
    assert max(len(found) for _, _, found in census) == hit_cap


def test_census_blocks_below_the_floor_match_row_by_row(monkeypatch):
    # the census counts rows of diameter below the floor, which row by
    # row skips; none can be a hit, so (take, positions, hits) agree:
    # the last block of sizes 2-6 of {0..30}, most of whose rows lie
    # below the floor, and the min-max levels 14 and 15 of {0..30},
    # which hold the first hits, whole and budget-cut
    ground = _ScanGround(tuple(range(31)))
    tails = [list(rank_blocks(ground, size, math.comb(31, size)))[-1] for size in range(2, 7)]
    below = 0
    for count, (_, size, first) in tails:
        rows = ground.index_rows(size, first, count)
        below += int(np.count_nonzero(rows[:, -1] - rows[:, 0] < FLOOR))
    assert 2 * below > sum(count for count, _ in tails)
    monkeypatch.setattr(search, "_MASK_K", 0)  # the levels as rank blocks
    levels = [b for m in (14, 15) for b in _level(ground.elements, MIN_MAX, m, FLOOR)]
    monkeypatch.undo()
    blocks = tails + levels
    assert all(b.by_census for _, (b, _, _) in blocks)

    def classify():
        return [
            (take, at.tolist(), found)
            for special in (False, True)
            for count, block in blocks
            for take, at, found in (_lattice_block(special, 2, block, t) for t in (count, count // 2 + 1))
        ]

    census = classify()
    monkeypatch.setattr(search, "_CENSUS_PAIRS", 0)
    assert classify() == census
    assert sum(len(at) for _, at, _ in census) > 0


def test_census_ground_blocks_of_few_candidates_go_to_the_census(monkeypatch):
    # a census ground classifies every rank block by census, also one of
    # no more candidates than the ground has elements: sizes 8 and 9 of
    # CONWAY and four more elements in blocks of at most 12, and its
    # min-diameter level from 0 to 14, which holds CONWAY, in rank blocks
    # of at most the level's 10 elements, against naive classification
    elems = tuple(sorted(CONWAY + (5, 9, 17, 20)))
    monkeypatch.setattr(search, "_MASK_K", 0)  # the level as rank blocks
    level = list(_level(elems, MIN_DIAMETER, (0, len(elems) - 3), FLOOR))
    monkeypatch.setattr(search, "_counted_hits", lambda *a: pytest.fail("counted row by row"))
    ground = _ScanGround(elems)
    blocks = [(ground, size, math.comb(len(elems), size)) for size in (8, 9)]
    blocks += [(g, size, count) for count, (g, size, first) in level if first == 0]
    hits = 0
    for g, size, count in blocks:
        n = len(g.elements)
        assert g.by_census and n <= len(elems)
        interior = g.elements[g.lead : n - g.tail]
        stream = [g.elements[: g.lead] + c + g.elements[n - g.tail :] for c in itertools.combinations(interior, size)]
        assert len(stream) == count
        for special in (False, True):
            for first in range(0, count, n):
                take = min(n, count - first)
                cands = stream[first : first + take]
                expected = [i for i, c in enumerate(cands) if naive_hit(c, special)]
                took, at, found = _lattice_block(special, 2, (g, size, first), take)
                assert (took, at.tolist(), found) == (take, expected, [cands[i] for i in expected[:2]])
                hits += len(expected)
    assert hits > 0


def test_lattice_blocks_are_census_blocks_on_census_grounds():
    # a census ground's lattice blocks are its census blocks; a ground
    # past _CENSUS_PAIRS element pairs takes _BLOCK candidates per block
    # and never builds a census
    narrow = _ScanGround(tuple(range(18)))  # 35 sums, 18 differences
    assert narrow.by_census and narrow.block == narrow.census.block == 64 * (2**19 // (128 * 18 + 8 * 53))
    counts = [count for count, _ in rank_blocks(narrow, 9, math.comb(18, 9))]
    assert counts == [12288] * 3 + [math.comb(18, 9) - 3 * 12288]
    edge = max(n for n in range(400) if n * (n + 1) // 2 <= search._CENSUS_PAIRS)
    primes = tuple(PrimeSieve(3000).primes().tolist())
    assert _ScanGround(primes[:edge]).by_census
    wide = _ScanGround(primes[: edge + 1])
    assert not wide.by_census and wide.block == _BLOCK
    assert [count for count, _ in rank_blocks(wide, 2, 5000)] == [2048, 2048, 904]
    assert "census" not in vars(wide)


def test_census_spot_checks_see_a_slicing_fault(monkeypatch):
    # a bit_slices that swaps two elements' rows gives wrong subsets that
    # agree with a recount decoded from the words; the recount of each
    # rank block's first candidate, unranked again, sees it
    primes = IntSet(tuple(PrimeSieve(100).primes().tolist()))  # 25 elements: census rank blocks
    cfg = SearchConfig(ground=primes, min_size=8, max_size=8, budget=50_000)
    honest, rows = search.bit_slices, list(range(25))
    rows[3], rows[20] = 20, 3
    min_mstd_diameter()
    monkeypatch.setattr(search, "bit_slices", lambda member: honest(member[rows]))
    with pytest.raises(RuntimeError, match="disagrees with sum_diff_counts"):
        exhaustive_search(cfg)
    monkeypatch.undo()
    assert exhaustive_search(cfg).examined == 50_000


def test_census_lattice_block_peak_memory():
    # one whole census block on a narrow ground, whose blocks are the
    # longest: about 110 and 93 bytes per subset (search.py, PairCensus
    # memory) keep it under 1 MiB
    primes = tuple(PrimeSieve(73).primes().tolist())
    for ground, count in ((_ScanGround(primes, tail=1), 8640), (_ScanGround(tuple(range(21))), 10496)):
        assert ground.block == count
        block = next(b for _, b in rank_blocks(ground, 10, math.comb(ground.k, 10)))
        _lattice_block(False, search.DEFAULT_HIT_CAP, block, count)  # builds the census, once per ground
        tracemalloc.start()
        try:
            _lattice_block(False, search.DEFAULT_HIT_CAP, block, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_monte_carlo_ground_guard_acts_before_the_ground(monkeypatch):
    # {0..n} has n + 1 elements, (n + 1)(n + 2)/2 element pairs, 2n + 1
    # sums and n + 1 nonnegative differences; a 64-subset block holds 64
    # bytes per element and 8 per sum or difference, and ANDs each pair
    # once.  Past the bound the ground is never built; at the edge it is
    # (and the stand-in ground stops the run there).

    class Built(Exception):
        pass

    def ground(*args, **kwargs):
        raise Built

    edge = max(n for n in range(1 << 15) if 64 * (n + 1) + 8 * (3 * n + 2) <= search._CENSUS_BLOCK_BYTES
               and (n + 1) * (n + 2) // 2 <= search._CENSUS_BLOCK_PAIRS)
    assert edge == 8190  # the pair bound binds first
    monkeypatch.setattr(search, "IntSet", ground)
    with pytest.raises(Built):
        monte_carlo_density(edge, 1)
    for n in (edge + 1, 16_777_216):
        with pytest.raises(CapacityError, match="census block"):
            monte_carlo_density(n, 1)


def test_monte_carlo_memory_independent_of_diameter():
    # a two-element ground of diameter 2 * 10**6: nothing of the
    # diameter's size may be built
    cfg = SearchConfig(ground=IntSet((0, 2 * 10**6)), mode="monte-carlo", samples=10, seed=1)
    tracemalloc.start()
    try:
        report = special_search(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.hit_count, report.examined) == (0, 10)
    assert peak < 4 * 2**20


def test_monte_carlo_block_draws_join_to_the_chunk_stream(monkeypatch):
    # each census block draws its own rows as it starts; Generator.bytes
    # draws whole uint32 words, and every block but a chunk's last holds
    # a multiple of 64 rows, so the draws joined are the chunk's one draw
    # of its documented stream, for rows of 1 to 13 bytes and chunks that
    # end mid-block
    drawn = []

    def slices(raw, n):
        drawn.append(raw)
        return byte_slices(raw, n)

    monkeypatch.setattr(search, "byte_slices", slices)
    for width in range(1, 14):
        census = PairCensus(tuple(range(8 * width - width % 3)))  # n of 8w - 2 .. 8w
        for index, take in ((0, 2 * census.mc_block + 37), (3, _MC_CHUNK), (1, 1000)):
            drawn.clear()
            _mc_chunk(census, 5, False, 10, index, take)
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5, spawn_key=(index,))))
            assert len(drawn) == -(-take // census.mc_block)
            assert b"".join(drawn) == rng.bytes(width * take)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 101])
def test_byte_slices_match_an_independent_decode(n):
    # subset k of a draw is row k of ceil(n / 8) bytes, read as one
    # little-endian int: element j is in it when bit j is set; the rows
    # past the last, up to a multiple of 64, are empty
    width = (n + 7) // 8
    rng = np.random.default_rng(n)
    for count in (1, 63, 64, 65, 4097):
        raw = rng.bytes(width * count)
        x = byte_slices(raw, n)
        assert x.shape == (n, -(-count // 64)) and x.dtype == np.uint64
        bits = [[int(word) >> b & 1 for word in row for b in range(64)] for row in x.tolist()]
        for k in range(64 * x.shape[1]):
            mask = int.from_bytes(raw[k * width : (k + 1) * width], "little") if k < count else 0
            assert [row[k] for row in bits] == [mask >> j & 1 for j in range(n)]


def test_monte_carlo_spot_checks_see_a_slicing_fault(monkeypatch):
    # a byte_slices with one wrong swap mask (0x...CCCD for 0x...CCCC)
    # moves bits of every word: its samples are wrong but agree with a
    # recount decoded from the words; the recount of each block's first
    # row, decoded from the drawn bytes, sees it
    def faulty(raw, n):
        width = (n + 7) // 8
        words = -(-len(raw) // (64 * width))
        rows = np.frombuffer(raw.ljust(64 * width * words, b"\0"), dtype=np.uint8)
        x = rows.reshape(words, 8, 8, width).transpose(0, 1, 3, 2).copy().view(np.uint64)
        for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCD), (28, 0x00000000F0F0F0F0)):
            t = (x ^ (x >> np.uint64(shift))) & np.uint64(mask)
            x ^= t ^ (t << np.uint64(shift))
        return np.ascontiguousarray(x.view(np.uint8).reshape(words, 8, width, 8).transpose(2, 3, 0, 1)).reshape(
            8 * width, 8 * words).view(np.uint64)[:n]

    min_mstd_diameter()
    monkeypatch.setattr(search, "byte_slices", faulty)
    with pytest.raises(RuntimeError, match="disagrees with sum_diff_counts"):
        monte_carlo_density(100, _MC_CHUNK, seed=0)
    monkeypatch.undo()
    assert monte_carlo_density(100, _MC_CHUNK, seed=0).hit_count > 0


def test_monte_carlo_chunk_peak_memory():
    # a whole 2^16-sample chunk of {0..100} draws its rows one census
    # block at a time, never the chunk's 832 KiB at once
    census = PairCensus(tuple(range(101)))
    assert census.mc_block == 5056
    _mc_chunk(census, 3, False, search.DEFAULT_HIT_CAP, 0, _MC_CHUNK)
    tracemalloc.start()
    try:
        take, at, _ = _mc_chunk(census, 3, False, search.DEFAULT_HIT_CAP, 1, _MC_CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert take == _MC_CHUNK and len(at) > 0
    assert peak < 2**20


def test_monte_carlo_chunks_are_lazy(monkeypatch):
    # 10**15 samples are ~1.5e10 chunks; the driver pulls them as it
    # classifies them, so a run stopped in its third chunk built three
    class Stop(Exception):
        pass

    drawn = []

    def chunk(census, seed, special, hit_cap, index, take):
        assert (census.elements, seed, special, hit_cap) == (GROUND_15.elements, 4, True, 7)
        drawn.append((index, take))
        if index == 2 and take == _MC_CHUNK:
            raise Stop
        return take, np.zeros(0, dtype=np.intp), []

    monkeypatch.setattr(search, "_mc_chunk", chunk)

    def run(samples):
        drawn.clear()
        cfg = SearchConfig(ground=GROUND_15, mode="monte-carlo", samples=samples, seed=4, hit_cap=7)
        return special_search(cfg)

    with pytest.raises(Stop):
        run(10**15)
    assert drawn == [(0, _MC_CHUNK), (1, _MC_CHUNK), (2, _MC_CHUNK)]
    for samples, sizes in (
        (1, [1]),
        (_MC_CHUNK, [_MC_CHUNK]),
        (_MC_CHUNK + 1, [_MC_CHUNK, 1]),
        (3 * _MC_CHUNK - 5, [_MC_CHUNK, _MC_CHUNK, _MC_CHUNK - 5]),
    ):
        assert run(samples).examined == samples
        assert drawn == list(enumerate(sizes))


def test_pool_reads_chunks_as_it_uses_them():
    # a pool keeps at most 2 * workers blocks in flight and yields their
    # results in block order, so an endless block stream is fine
    census = PairCensus(GROUND_15.elements)  # 4 of its 2^15 subsets are MSTD
    drawn = []

    def endless():
        for index in itertools.count():
            drawn.append(index)
            yield 1000, index

    def first_hit(workers):
        drawn.clear()
        classify = functools.partial(_mc_chunk, census, 3, False, 10)
        return _scan(endless(), classify, 10**18, 0, 10, True, workers)

    serial = first_hit(1)
    blocks = (serial[2] - 1) // 1000 + 1  # up to the first hit's
    assert len(drawn) == blocks >= 2
    assert first_hit(2) == serial
    assert len(drawn) <= blocks + 2 * 2
    assert not multiprocessing.active_children()  # the stop shut the pool down

    census = PairCensus(CONWAY + (20,))
    drawn.clear()
    work = ((index, 2000) for _, index in endless())
    results = _ordered(functools.partial(_mc_chunk, census, 3, False, 10), work, 2)
    try:
        got = [(take, at.tolist(), found) for take, at, found in itertools.islice(results, 4)]
    finally:
        results.close()
    assert len(drawn) <= 2 * 2 + 4
    serial = [_mc_chunk(census, 3, False, 10, i, 2000) for i in range(4)]
    assert got == [(take, at.tolist(), found) for take, at, found in serial]
    assert len({len(at) for _, at, _ in got}) > 1
    assert not multiprocessing.active_children()


# -- special search ----------------------------------------------------

def test_no_special_sets_at_diameter_fourteen():
    report = special_search(SearchConfig(ground=GROUND_15))
    assert report.hit_count == 0
    assert report.exhausted


def test_special_search_finds_expanded_conway():
    s3 = base_expansion(IntSet(CONWAY), 3)
    ground = IntSet(s3.elements, diameter_cap=None)
    report = special_search(
        SearchConfig(ground=ground, min_size=512, max_size=512, budget=10)
    )
    assert report.hit_count == 1
    assert report.hits[0].elements == s3.elements
    c = classify(report.hits[0])
    assert c.gap >= 512


def test_special_hits_have_gap_at_least_size():
    s2 = base_expansion(IntSet(CONWAY), 2)
    report = special_search(
        SearchConfig(ground=s2, mode="monte-carlo", samples=20_000, seed=1)
    )
    for hit in report.hits:
        c = classify(hit)
        assert c.gap >= len(hit)


# -- minimality --------------------------------------------------------

def test_minimal_max_element_in_interval():
    report = minimal_mstd_in(GROUND_15, objective="minimize-max-element")
    assert report.objective_value == 14
    assert report.optimal
    assert report.hits[0].elements == CONWAY


def test_minimal_diameter_in_interval():
    report = minimal_mstd_in(IntSet(range(20)), objective="minimize-diameter")
    assert report.objective_value == 14
    assert report.optimal


def test_minimal_in_fibonacci_prefix_finds_nothing():
    terms = materialize(SequenceSpec.fibonacci(), 18)
    report = minimal_mstd_in(IntSet(terms), objective="minimize-max-element")
    assert report.hit_count == 0
    assert report.exhausted
    assert report.objective_value is None
    assert report.optimal is None


def test_minimal_in_primes_finds_dilated_conway():
    ground = IntSet(int(p) for p in PrimeSieve(439).primes())
    report = minimal_mstd_in(ground, objective="minimize-max-element", budget=100_000)
    found = [h.elements for h in report.hits]
    assert (19, 79, 109, 139, 229, 349, 379, 439) in found
    assert not report.optimal  # lower levels were not exhausted in budget


def _brute_optimum(elems, objective):
    """Best objective value over every MSTD subset, by pair enumeration."""
    values = [
        c[-1] if objective == "minimize-max-element" else c[-1] - c[0]
        for k in range(2, len(elems) + 1)
        for c in itertools.combinations(elems, k)
        if naive_mstd(c)
    ]
    return min(values, default=None)


@pytest.mark.parametrize(
    "elems",
    [
        tuple(range(15)),
        (0, 1, 2, 3, 6, 7, 10, 11, 12, 13, 14),  # no Conway image: the level scan must find it
        tuple(3 * e + 5 for e in range(15)),
        # the probe finds 2*CONWAY + 1 (max 29); the level scan must beat it
        (0, 1, 2, 3, 5, 7, 9, 10, 11, 12, 14, 15, 23, 25, 29),
        tuple(materialize(SequenceSpec.fibonacci(), 14)),  # no MSTD subset
    ],
    ids=["interval", "no-probe", "affine", "probe-beaten", "fibonacci"],
)
@pytest.mark.parametrize("objective", ["minimize-max-element", "minimize-diameter"])
def test_minimal_within_budget_and_optimal_only_when_proved(elems, objective):
    truth = _brute_optimum(elems, objective)
    for budget in (1, 3, 10, 50, 200, 1000, 10**5):
        report = minimal_mstd_in(IntSet(elems), objective=objective, budget=budget)
        assert report.examined <= budget
        if report.optimal:
            assert report.objective_value == truth
        if report.objective_value is not None:
            assert report.objective_value >= truth
    # with room to finish, the search proves the brute-force optimum
    assert report.exhausted
    assert report.objective_value == truth
    assert report.optimal is (None if truth is None else True)


def test_minimal_rejects_search_objectives():
    with pytest.raises(DomainError):
        minimal_mstd_in(GROUND_15, objective="first-hit")


def test_minimal_scans_no_level_at_or_above_the_probe_bound():
    # the six Conway images in {0..19} are probe hits at the floor, 14,
    # so the level stream is empty and no seventh hit is added
    report = minimal_mstd_in(IntSet(range(20)), objective="minimize-diameter")
    assert report.examined == 6 and report.hit_count == 6
    assert report.optimal and report.objective_value == 14


def test_minimal_diameter_levels_ascend_across_left_ends():
    # the ground's first element starts an MSTD subset of diameter 28
    # (inside 2 * no_probe); the optimum, 14, lies in no_probe + 40, so
    # the stream must interleave the endpoint pairs of all left ends
    no_probe = (0, 1, 2, 3, 6, 7, 10, 11, 12, 13, 14)
    ground = IntSet([2 * e for e in no_probe] + [e + 40 for e in no_probe])
    report = minimal_mstd_in(ground, objective="minimize-diameter")
    assert report.optimal and report.objective_value == 14


def test_minimal_rejects_empty_budget():
    for budget in (0, -5):
        for objective in ("minimize-max-element", "minimize-diameter"):
            with pytest.raises(DomainError):
                minimal_mstd_in(IntSet(range(20)), objective=objective, budget=budget)


def test_minimal_diameter_levels_stream_in_linear_memory():
    # a sorted list of all n(n-1)/2 endpoint pairs of the 669 primes
    # <= 5000 takes about 40 MB; the merged stream holds O(n) of them
    ground = IntSet(int(p) for p in PrimeSieve(5000).primes())
    min_mstd_diameter()  # the one-off floor scan is not the search's memory
    tracemalloc.start()
    try:
        report = minimal_mstd_in(ground, objective="minimize-diameter", budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.examined == 1 and not report.exhausted
    assert peak < 4 * 2**20


# -- report serialization ----------------------------------------------

def test_report_json_schema():
    report = exhaustive_search(SearchConfig(ground=GROUND_15, max_size=7))
    data = report.to_dict()
    for key in ("hits", "hit_count", "examined", "density", "stderr", "exhausted", "seed"):
        assert key in data
    assert data["hits"] == []
    assert data["density"] is None

    mc = monte_carlo_density(20, 1000, seed=0).to_dict()
    assert mc["density"] == mc["hit_count"] / 1000
