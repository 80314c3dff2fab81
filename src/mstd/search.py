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

Every run is one call of one budgeted driver, ``_scan``: exhaustive and
special search, Monte Carlo, the minimality levels and the prefix pass
of ``sequences.certify_finitely_many``.  It takes blocks of candidates
and a classifier, cuts a block at the budget before it is classified
(so a budget stop leaves ``examined`` equal to the budget), and applies
the hit cap and the first-hit stop to the hit positions.  With more
than one thread and more than one block past the budget cut, the blocks
are classified in a process pool and merged in block order, so a report
does not depend on the thread count.

Every lattice engine takes its blocks from ``_blocks``: a scan ground
of at most ``_MASK_K`` interior elements, of whose 2^k interior masks
at least ``_MASK_SHARE`` are wanted, is one ``_MaskLevel``, whose masks
are classified in mask order and whose hits are put back in stream
order, so budget and first-hit stops fall where rank order puts them
(one block never starts a pool); any other ground is rank descriptors,
(scan ground, size, rank of its first candidate), for one census block
of candidates (2048 on grounds classified row by row), unranked by the
combinatorial number system.  Candidates below the diameter floor count
as examined: row by row they are not classified, and census and mask
blocks count them with the rest, though none can be a hit.  Under the
min-max objective each cardinality of a minimality level stops at its
first candidate below the floor, a position ``_level`` computes from
binomial counts; levels stream lazily in ascending objective order.  A
Monte Carlo block is a chunk of 2^16 samples, drawn as random bytes from
the chunk's own seed stream, one census block of rows at a time.

Monte Carlo chunks and the rank blocks of census grounds reach
``PairCensus``, one bit-sliced pair form for every ground, through
``_census_scan``, which decodes the hits.  Its kernel, ``word_counts``,
takes a block of subsets bit-sliced (Biham 1997, "A fast new DES
implementation in software"): one uint64 word holds one ground element
across 64 subsets, one AND per pair of ground elements marks that
pair's sum and difference in 64 subsets, and each subset's bits are
counted.  Its rows are keyed by the ground's distinct pair sums and
differences.  Each left element's pairs find their rows by binary
search once per ground, kept as int32 indices, or as a slice when they
are consecutive (every row of an arithmetic progression), while the
ground's element pairs fit ``_CENSUS_ROW_PAIRS``; past it they are
found again for each block, so one form serves every ground, whatever
its size, diameter or spacing.  ``_check_census_capacity`` raises
CapacityError before one census block could pass
``_CENSUS_BLOCK_BYTES`` or, which bounds its time,
``_CENSUS_BLOCK_PAIRS`` element pairs.

Monte Carlo rows are bit-sliced from the drawn bytes by 8 x 8 bit
transposes (``byte_slices``).  A lattice ground of at most 300 elements
(``_CENSUS_PAIRS``) is unranked one pass per element straight into
membership rows, element-major, which ``bit_slices`` packs; wider
grounds, which cost less row by row, are unranked one pass per position
into index rows and counted one set at a time.  Mask levels are counted
subset-major instead (``_mask_tiles``): each mask gets one row bitmask
over the same rows, the OR of its element pairs' bits, built by
doubling for 2^c masks at a time and counted by a popcount across each
mask's words.  The first candidate of every census block (decoded from
the drawn bytes or unranked again, not from the sliced words), the last
mask of every 4096 masks and every hit are counted again by
``sum_diff_counts``: a count that disagrees raises instead of
reporting, so engines never report a set they did not verify.  The only
pruning rule, skipping subsets of diameter below 14, is itself
established at runtime by an exhaustive scan (see
``min_mstd_diameter``) before any engine uses it.
"""

from __future__ import annotations

import heapq
import math
import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from itertools import chain, combinations, compress, islice, starmap, takewhile
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError
from .sets import CONWAY, IntSet, _distinct_sets, _select_bits, sum_diff_counts

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

# Lattice candidates per block on grounds classified row by row; census
# grounds take blocks of ``census.block`` candidates.
_BLOCK = 2048
# Grounds of more element pairs (j >= i) classify row by row, for cost
# (see ``_ScanGround.by_census``)
_CENSUS_PAIRS = 300 * 301 // 2
# PairCensus memory.  A block of 64 * w subsets holds w words per
# distinct pair sum and difference, plus 128 * w bytes per element in a
# lattice block (its membership rows take 64 * w) and 320 * w per byte
# of a drawn row in a Monte Carlo block (the rows, their transposed
# copy, the swap temporary, the words and the AND buffer).  w is the
# larger of two rules: at most 32 words while the tables stay within
# 2**17 words (1 MiB), or as many as keep the block within 2**19 bytes;
# so narrow grounds get longer blocks, which pay the per-element loop
# less often, and wide ones never shorter.  Tables are unpacked one byte
# per bit for counting, at most 2**11 words (128 KiB) at a time.  The
# rule leaves out the int64 results and the unranking arrays: under
# tracemalloc a lattice block peaks at 70 bytes per subset (594 KiB) on
# the 8640-subset blocks of the 21 primes up to 73 (tail 1), 62 (636
# KiB) on the 10496 of {0..20}; a 2^16-sample chunk at 741 KiB on
# {0..100} (5056-subset blocks), 2.5 MiB on grounds of a few elements.
# Row indices are kept while the ground's element pairs (j >= i) fit
# 2**22, at most 32 MiB of int32 indices.
_CENSUS_UNPACK_WORDS = 1 << 11
_CENSUS_ROW_PAIRS = 1 << 22
# Bound on the smallest census block, 64 subsets: 64 membership bytes per
# element and a word per distinct pair sum and difference ({0..n}: n < 1.53M);
# and on its time, one AND per element pair (j >= i): 2^25 pairs, so
# {0..n} up to n = 8190, where `mstd density --n 8190 --samples 1` takes
# about 2 s in all (2-core Xeon, CPython 3.11, numpy 2.4).
_CENSUS_BLOCK_BYTES = 1 << 27
_CENSUS_BLOCK_PAIRS = 1 << 25
# Binomial tables are clipped here, so ranks and counts stay int64
_RANK_CAP = 1 << 62
# (scale, shift) pairs the minimality probe tests per batch of scales
_PROBE_PAIRS = 1 << 14
# Scan grounds of at most this many interior elements may be one block in
# mask order (``_blocks``): all 2^k masks, even when a hit cuts it.  Whole
# min-max levels of the first k + 1 primes, us per mask against per
# candidate in rank order: 0.015 vs 0.20 at k = 20 and 22, 0.017 vs 0.20
# at 24 (2-core Xeon, CPython 3.11, numpy 2.4); all of {0..21}: 0.054
# against 0.52 s.  So a first hit wastes at most 0.07 s at k = 22; at 24,
# 0.28 s, and {0..24} keeps about 7000 hits (nearly 1 MiB).
_MASK_K = 22
# ... when the wanted candidates (streamed, capped by the budget where it
# is known) are at least this share of 2^k.  One size of {0..17}, {0..19},
# {0..21} and the first 22 primes, rank blocks' time over the mask
# level's, best of 3: 0.61-0.69 at shares of 7.1-7.6%, 1.05-1.45 at
# 11.9-12.2%; at k = 16, 0.95-1.04 at 12-17%.  Size 2 of {0..21} takes
# 0.5 ms in rank blocks against 0.054 s as a mask level.
_MASK_SHARE = 0.1
# A mask level is counted in tiles of 2^c consecutive masks: c is the
# largest value up to k for which one table of 2^c masks (a tile, or the
# table of its low masks) fits this many bytes, but never below
# ``_CHECK_BITS``.  The tiles of a 2-word level hold 2^14 masks, of 3-4
# words 2^13, of more words 2^12 (at most 10 words, 320 KiB, at _MASK_K).
# Under tracemalloc the level of {0..22} (2 words) peaks at 0.84 MB, 0.29
# in tiles of 2^12; the powers 2^0..2^22 (9 words) at 0.92 MB.  At 2^16
# and 2^17 bytes lattice-search's peak RSS matched 2^12-mask tiles; at
# 2^18 it is 0.3-0.4 MB higher, and only there do the 3-4-word levels of
# ``minimal`` on the primes get tiles of 2^13 masks (0.057 to 0.041 s).
_TILE_BYTES = 1 << 18
# The last mask of every 2^12 masks of a mask level is counted again
_CHECK_BITS = 12


@cache
def min_mstd_diameter() -> int:
    """Smallest diameter any MSTD set can have, verified by scan.

    A set of diameter below 14, less its least element, is exactly one
    subset of {0..13} that contains 0, and MSTD is translation
    invariant; so one pass over those 2^13 subsets (8191 of two or more
    elements) establishes the floor.  The scan runs once per process
    and is cached; engines call this before enabling diameter pruning so
    the rule is never assumed.
    """
    for size in range(1, 14):
        for rest in combinations(range(1, 14), size):
            combo = (0, *rest)
            sc, dc = sum_diff_counts(combo)
            if sc > dc:
                raise RuntimeError(f"diameter floor refuted by {combo}; pruning unsound")
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
    objectives are minimal_mstd_in's and are rejected here.  threads
    caps the worker processes that classify blocks, in either mode (see
    ``_ordered``); it never changes a report.  minimal_mstd_in and the
    ``sequences`` certifiers take no thread count and run serially.
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
        if self.mode == MODE_MONTE_CARLO and self.seed < 0:
            raise DomainError(f"monte-carlo mode requires seed >= 0, got {self.seed}")


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


class PairCensus:
    """|A+A|, |A-A| and |A| for many subsets A of one ground at once,
    which arrive as bit-sliced words (``word_counts``): up to ``block``
    lattice candidates or ``mc_block`` Monte Carlo samples at a time.
    Memory is the ground's distinct pair sums and differences, one
    block's tables, and the element pairs' row indices while they fit
    ``_CENSUS_ROW_PAIRS``."""

    def __init__(self, elements: Sequence[int]):
        self.elements = tuple(elements)
        self.n = n = len(self.elements)
        sums, nonneg_diffs = _distinct_sets(self.elements)
        rows = len(sums) + len(nonneg_diffs)
        _check_census_capacity(n, rows)
        top = 2 * self.elements[-1]
        self._ground = _int_array(self.elements, top)
        self._sums = _int_array(sums, top)
        self._diffs = _int_array(nonneg_diffs, top)
        self.block, self.mc_block = (64 * max(1, min(32, (1 << 17) // rows), (1 << 19) // (per_word + 8 * rows))
                                     for per_word in (128 * n, 320 * ((n + 7) // 8)))
        self._rows = list(map(self._pair_rows, range(n))) if n * (n + 1) // 2 <= _CENSUS_ROW_PAIRS else None

    def _pair_rows(self, i: int) -> tuple:
        """The sum rows and the difference rows of the pairs (i, j), j >= i.
        Both ascend strictly, so each row is updated at most once."""
        ground = self._ground
        return (_row_index(self._sums.searchsorted(ground[i:] + ground[i])),
                _row_index(self._diffs.searchsorted(ground[i:] - ground[i])))

    def word_counts(self, x: np.ndarray, count: int, sizes: bool = True):
        """(sum counts, difference counts, sizes if ``sizes`` else None) of
        the first ``count`` subsets held in ``x``, an (n, words) uint64
        array in which bit b of x[j, w] means element j is in subset 64w + b."""
        words = x.shape[1]
        sums = np.zeros((len(self._sums), words), dtype=np.uint64)
        diffs = np.zeros((len(self._diffs), words), dtype=np.uint64)
        pair_rows = self._rows if self._rows is not None else map(self._pair_rows, range(self.n))
        out = np.empty_like(x)
        for i, (sum_rows, diff_rows) in enumerate(pair_rows):
            both = np.bitwise_and(x[i], x[i:], out=out[: self.n - i])  # the pairs (i, j), j >= i
            sums[sum_rows] |= both
            diffs[diff_rows] |= both
        # A-A is the nonnegative differences, mirrored about 0
        nonneg = _column_counts(diffs)[:count]
        return (_column_counts(sums)[:count], np.maximum(2 * nonneg - 1, 0),
                _column_counts(x)[:count] if sizes else None)


def bit_slices(member: np.ndarray) -> np.ndarray:
    """The rows of an (n, subsets) 0/1 matrix bit-sliced for
    ``PairCensus.word_counts``: x[j, w] bit b is member[j, 64 * w + b],
    and bits past the last subset are 0."""
    packed = np.packbits(member, axis=1, bitorder="little")
    words = np.zeros((len(member), (packed.shape[1] + 7) // 8 * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def byte_slices(raw: bytes, n: int) -> np.ndarray:
    """Rows of ceil(n / 8) bytes, row k subset k's little-endian bit mask,
    bit-sliced as ``bit_slices`` slices membership rows: each 8 x 8 bit
    block (8 rows of one byte column) is one uint64, whose bit 8r + e a
    masked-swap transpose (Hacker's Delight 7-3) moves to 8e + r."""
    width = (n + 7) // 8
    words = -(-len(raw) // (64 * width))
    rows = np.frombuffer(raw.ljust(64 * width * words, b"\0"), dtype=np.uint8)
    x = rows.reshape(words, 8, 8, width).transpose(0, 1, 3, 2).copy().view(np.uint64)  # [w, g, c]: rows 64w + 8g + r
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)):
        t = (x ^ (x >> np.uint64(shift))) & np.uint64(mask)
        x ^= t ^ (t << np.uint64(shift))
    # byte e of x[w, g, c] is byte g of element 8c + e's word w
    return np.ascontiguousarray(x.view(np.uint8).reshape(words, 8, width, 8).transpose(2, 3, 0, 1)).reshape(
        8 * width, 8 * words).view(np.uint64)[:n]


def _check_census_capacity(elements: int, rows: int) -> None:
    """CapacityError if a 64-subset census block of ``elements`` elements
    and ``rows`` distinct pair sums and differences passes the bound on
    its bytes or on its element pairs."""
    need, pairs = 64 * elements + 8 * rows, elements * (elements + 1) // 2
    if need > _CENSUS_BLOCK_BYTES or pairs > _CENSUS_BLOCK_PAIRS:
        raise CapacityError(f"a 64-subset census block over {elements} elements needs {need} bytes and "
                            f"{pairs} element pairs, cap is {_CENSUS_BLOCK_BYTES} bytes and {_CENSUS_BLOCK_PAIRS} pairs")


def _int_array(values: Sequence[int], top: int) -> np.ndarray:
    """``values`` as int64, or as exact Python ints (an object array)
    when ``top``, the largest value to be computed from them, passes
    int64."""
    return np.array(values, dtype=np.int64 if top < 1 << 63 else object)


def _row_index(rows: np.ndarray):
    """Distinct ascending table rows as an index: a slice when they are
    consecutive, else int32 (a census has fewer than 2**31 rows)."""
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows.astype(np.int32)


def _column_counts(table: np.ndarray) -> np.ndarray:
    """Set bits in each bit column of a (rows, words) uint64 table.  A
    step unpacks at most ``_CENSUS_UNPACK_WORDS`` rows, so its column
    sums fit uint16."""
    step = max(1, _CENSUS_UNPACK_WORDS // table.shape[1])
    total = np.zeros(64 * table.shape[1], dtype=np.int64)
    for k in range(0, len(table), step):
        unpacked = np.unpackbits(table[k : k + step].view(np.uint8), axis=1, bitorder="little")
        total += unpacked.sum(axis=0, dtype=np.uint16)
    return total


def _census_hits(sum_counts, diff_counts, sizes, special: bool) -> np.ndarray:
    """The hit rule, elementwise: MSTD, and with ``special`` also a gap
    of at least the size."""
    hit = sum_counts > diff_counts
    if special:
        hit &= sum_counts - diff_counts >= sizes
    return hit


def _counted_hits(subsets: list[tuple[int, ...]], special: bool) -> np.ndarray:
    """``_census_hits`` of each subset, counted one at a time by
    ``sum_diff_counts``."""
    counts = np.array([sum_diff_counts(s) for s in subsets], dtype=np.int64).reshape(-1, 2)
    return _census_hits(counts[:, 0], counts[:, 1], np.array([len(s) for s in subsets], dtype=np.int64), special)


def _census_scan(census: PairCensus, blocks, special: bool):
    """(hit positions, ascending, and every hit as a tuple of ground
    elements) among the subsets that ``blocks`` yields as (x, count,
    first): ``count`` subsets, bit-sliced as ``PairCensus.word_counts``
    takes them, the first of them decoded from the source the words were
    sliced from; sizes are counted only for ``special``.  ``first``
    (unless empty) and every hit, decoded from ``x``, are counted again
    by ``sum_diff_counts``, looked up when called; a census it disagrees
    with raises, so a slicing fault that moves a subset's bits shows."""
    found, hits, start = [np.zeros(0, dtype=np.intp)], [], 0
    for x, count, first in blocks:
        sc, dc, size = census.word_counts(x, count, special)
        at = np.flatnonzero(_census_hits(sc, dc, size, special))
        subsets = _decode(census.elements, x, at)
        for r, subset in zip([0, *at.tolist()], [first, *subsets]):
            if subset and sum_diff_counts(subset) != (int(sc[r]), int(dc[r])):
                raise RuntimeError(f"batched census disagrees with sum_diff_counts on {subset}")
        hits += subsets
        found.append(start + at)
        start += count
    return np.concatenate(found), hits


def _decode(elements: tuple, x: np.ndarray, rows: np.ndarray) -> list[tuple]:
    """The subsets at ``rows`` of the bit-sliced words ``x``, as tuples of
    ``elements``: the one decoder of census hits."""
    bits = x[:, rows >> 6] >> (rows & 63).astype(np.uint64) & np.uint64(1)
    return [tuple(compress(elements, column)) for column in bits.T.tolist()]


def _ordered(fn, work, threads: int):
    """``fn(*args)`` for every ``args`` of ``work``, in order.  The first
    min(threads, CPUs) items are read before any call: if that is one
    item, every call runs here, else a process pool starts one worker
    per item read (a pool forks all its workers at once, so more would
    be waste).  The pool holds at most 2 * workers calls in flight, so
    ``work`` is read as it is used; closing the generator cancels the
    calls not yet started and waits for the running ones, so no worker
    outlives it.  The pool module is imported when the first pool starts."""
    work = iter(work)
    head = list(islice(work, min(threads, os.cpu_count() or 1)))
    work, workers = chain(head, work), len(head)
    if workers <= 1:
        yield from starmap(fn, work)
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending: deque = deque()
        for args in work:
            pending.append(pool.submit(fn, *args))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _scan(blocks, classify, budget, examined, hit_cap, first_hit, threads=1):
    """The one budgeted driver behind every engine.

    ``blocks`` yields (count, block) pairs in scan order, ``block``
    holding ``count`` >= 1 candidates.  ``classify(block, take)``
    returns (take, the hit positions among the block's first ``take``
    candidates, ascending, and the first ``hit_cap`` hits as tuples);
    it runs in ``_ordered``, so with more than one worker it and the
    blocks must pickle.  ``examined`` is the count carried in from
    earlier scans, and a block is cut at the budget before it is
    classified.  The hit cap and a first-hit stop apply by position, in
    block order, so the result does not depend on ``threads``.  Returns
    (hits, hit_count, examined, complete), where complete means the
    stream ran dry: False after a budget stop or a first-hit stop.
    """
    ran_dry = False

    def cut(room):
        nonlocal ran_dry
        for count, block in blocks:
            if room <= 0:
                return
            yield block, min(count, room)
            if count > room:
                return
            room -= count
        ran_dry = True

    hits: list[IntSet] = []
    hit_count = 0
    results = _ordered(classify, cut(budget - examined), threads)
    try:
        for take, at, found in results:
            if first_hit and len(at):
                return [IntSet(found[0])], 1, examined + int(at[0]) + 1, False
            hit_count += len(at)
            hits += [IntSet(e) for e in found[: hit_cap - len(hits)]]
            examined += take
    finally:
        results.close()
    return hits, hit_count, examined, ran_dry


# -- Lattice engines --------------------------------------------------

class _ScanGround:
    """The ground of a lattice scan: its ``lead`` first and ``tail`` last
    elements are in every candidate, which chooses among the ``k``
    elements between.  A candidate is (size, rank among that size's
    choices in lexicographic order).  The census is built when the block
    length or a block first needs it."""

    def __init__(self, elements: tuple[int, ...], lead: int = 0, tail: int = 0):
        self.elements = elements
        self.values = _int_array(elements, elements[-1])
        self.lead, self.tail = lead, tail
        self.k = len(elements) - lead - tail

    @cached_property
    def census(self) -> PairCensus:
        return PairCensus(self.elements)

    @property
    def by_census(self) -> bool:
        """Whether rank blocks are classified by census.  A census block
        costs about one AND and one OR per element pair and word of 64
        subsets, whatever the subset size; row by row a subset costs
        ``sum_diff_counts``, more the larger it is.  The first n primes,
        one size to a budget of 200,000, census against row by row, best
        of 3 (2-core Xeon): size 8, 0.46 vs 1.13 s at n = 150, 0.93-1.09
        vs 1.26-1.28 at 250-280, 1.33-1.47 vs 1.30-1.37 at 330-361; size
        3, 0.45 vs 0.65 at 150, rows ahead from 200.  So the census runs
        to 300 elements, past which both sizes run faster row by row."""
        n = len(self.elements)
        return n * (n + 1) // 2 <= _CENSUS_PAIRS

    @cached_property
    def block(self) -> int:
        """Candidates per lattice block: one census block on census
        grounds, else ``_BLOCK``."""
        return self.census.block if self.by_census else _BLOCK

    def subset(self, row: np.ndarray) -> tuple[int, ...]:
        return tuple(map(self.elements.__getitem__, row.tolist()))

    def member_rows(self, size: int, first: int, count: int) -> np.ndarray:
        """Candidates ``first`` .. ``first + count - 1`` of ``size`` as an
        (n, count) 0/1 membership matrix, one pass per element.  With
        ``left`` elements to choose and slack d, a candidate of rank r
        takes the next element if r is below the C(d + left - 1, left - 1)
        candidates that do; else r drops by that many and d by one.  As
        unsigned ints, min(r, r - C) is the next rank either way."""
        k, lead, slack = self.k, self.lead, self.k - size
        table, forced = _binomials(slack, size)
        member = np.zeros((len(self.elements), count), dtype=np.uint8)
        member[: lead + forced] = member[lead + k :] = 1
        rank = np.arange(first, first + count, dtype=np.uint64)
        at = np.full(count, (size - forced) * (slack + 1) + slack, dtype=np.intp)  # [left, d] in the table
        flat = table.view(np.uint64).ravel()
        for e in range(forced, k):
            takers = flat[at]
            taken = rank < takers
            member[lead + e] = taken
            np.minimum(rank, rank - takers, out=rank)
            at -= 1 + taken * np.intp(slack)
        return member

    def mask_subset(self, mask: int) -> tuple[int, ...]:
        """The candidate of interior mask ``mask``: the lead, interior
        element e when bit e of the mask is set, and the tail.  The tuple
        is built at its final length: one grown from an iterator and
        freed stays parked on CPython's free list of its length, so the
        spot checks would hold about one tuple each until the next full
        collection."""
        lead, k = self.lead, self.k
        interior = [e for i, e in enumerate(self.elements[lead : lead + k]) if mask >> i & 1]
        return (*self.elements[:lead], *interior, *self.elements[lead + k :])

    def index_rows(self, size: int, first: int, count: int) -> np.ndarray:
        """The same candidates as rows of ground indices, one ``_pick``
        per position."""
        k, lead = self.k, self.lead
        table, forced = _binomials(k - size, size)
        rows = np.empty((count, lead + size + self.tail), dtype=np.intp)
        rows[:, : lead + forced] = np.arange(lead + forced)
        rows[:, lead + size :] = len(self.elements) - 1
        rank, slack = np.arange(first, first + count, dtype=np.int64), k - size
        for p in range(forced, size):
            slack, rank = _pick(table, slack, size - p, rank)
            rows[:, lead + p] = lead + k - size + p - slack
        return rows


def _pick(table: np.ndarray, slack, s: int, rank: np.ndarray):
    """(slack, rank) after the next position of candidates of rank
    ``rank`` with s elements to choose, ``slack`` of those from the
    least free one on left out.  A candidate takes that element while
    its rank is below the C(slack + s - 1, s - 1) candidates that do;
    else, by binary search in C(d + s, s), the element after which d
    are left out whose candidates start at the largest count not past
    the rank: C(slack + s, s) - C(d + s, s)."""
    column = table[s + 1]
    from_here = column[slack]
    after = column.searchsorted(from_here - rank)
    after = np.where(table[s][slack] > rank, slack, after)
    return after, rank - (from_here - column[after])


@lru_cache(maxsize=256)
def _binomials(slack: int, size: int) -> tuple[np.ndarray, int]:
    """(table, forced) for choosing size of slack + size elements.  The
    table's [j, d] is C(d + j - 1, j - 1) for d <= slack, clipped at
    ``_RANK_CAP``, and row 0 is 0; row j + 1 is the running sum of row
    j, exact up to its first value at or past the clip.  Rows stop once
    column ``slack`` reaches the clip: every rank below it takes the
    ``forced`` first elements.  Ranks below 2^62 / (slack + size) meet
    only exact counts, and a table holds at most about 66 (slack + size
    + 2) words."""
    rows = [np.zeros(slack + 1, dtype=np.uint64), np.ones(slack + 1, dtype=np.uint64)]
    while len(rows) < size + 2 and rows[-1][-1] < _RANK_CAP:
        run = np.cumsum(rows[-1])
        rows.append(np.where(np.logical_or.accumulate(run >= _RANK_CAP), np.uint64(_RANK_CAP), run))
    table = np.array(rows, dtype=np.int64)
    table.flags.writeable = False  # one table serves every caller
    return table, size + 2 - len(rows)


@dataclass(frozen=True)
class _MaskLevel:
    """A scan ground as one block, classified in mask order: all 2^k
    interior masks (``_mask_tiles``), whose hits are put back in stream
    order.  ``streamed[s]`` is how many candidates of interior size s
    the stream holds, each a prefix of its lexicographic order: as
    ``_level`` cuts it, or a search window's sizes whole."""

    ground: _ScanGround
    streamed: tuple[int, ...]

    def position(self, mask: int) -> int:
        """The stream position of the candidate of ``mask``, or the level's
        count where its size's stream ends before it.  A position is the
        count streamed of the smaller sizes plus the lexicographic rank
        within its size, by the combinatorial number system: with the
        mask's s elements e_1 > ... > e_s, C(k, s) - 1 - sum_i
        C(k - 1 - e_i, i), the reflected set's colexicographic rank
        counted from the end."""
        k = self.ground.k
        elements = [e for e in range(k - 1, -1, -1) if mask >> e & 1]
        size = len(elements)
        rank = math.comb(k, size) - 1 - sum(math.comb(k - 1 - e, i) for i, e in enumerate(elements, 1))
        if rank < self.streamed[size]:
            return sum(self.streamed[:size]) + rank
        return sum(self.streamed)


def _pair_bits(elements: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """(bits, sum words) for the subset-major count of ``elements``:
    bits[i, j] is the row bitmask of the element pair (i, j), one bit at
    its sum's row among the distinct pair sums, in the first ``sum
    words`` words, and one at its difference's row among the distinct
    nonnegative differences, in the rest; rows ascend, as the census
    keys them."""
    n = len(elements)
    values = _int_array(elements, 2 * elements[-1])
    pairs = (values[:, None] + values, abs(values[:, None] - values))
    sums, diffs = (np.unique(t.ravel(), return_inverse=True) for t in pairs)
    sum_words = (len(sums[0]) + 63) // 64
    bits = np.zeros((n * n, sum_words + (len(diffs[0]) + 63) // 64), dtype=np.uint64)
    for rows in (sums[1], diffs[1] + 64 * sum_words):
        bits[np.arange(n * n), rows >> 6] = np.uint64(1) << (rows & 63).astype(np.uint64)
    return bits.reshape(n, n, -1), sum_words


def _mask_tiles(ground: _ScanGround):
    """(first mask, sum counts, nonnegative difference counts) of each
    tile of 2^c consecutive masks of a mask level (c as ``_TILE_BYTES``
    gives it), counted subset-major: each mask gets one row bitmask
    (``_pair_bits``), held word-major, whose set bits are counted.

    A mask's bitmask is the OR of its element pairs' bits.  The fixed
    pairs and those of the c low interior elements are one table per
    level, built by OR-doubling on the low elements: each element
    doubles the table, and its new half ORs in the element's pairs with
    the fixed elements, itself and the lower elements present, which
    are doubled alongside.  A tile's high elements add their own pairs,
    the same for every mask of the tile, and their pairs with each low
    element, doubled across the tile on the low elements."""
    lead, k = ground.lead, ground.k
    bits, sum_words = _pair_bits(ground.elements)
    c = min(k, max(_CHECK_BITS, (_TILE_BYTES // (8 * bits.shape[2])).bit_length() - 1))
    inner = bits[lead : lead + k]
    fixed = [*range(lead), *range(lead + k, len(bits))]
    base = np.bitwise_or.reduce(bits[fixed][:, fixed], axis=(0, 1))
    own = np.bitwise_or.reduce(inner[:, fixed], axis=1) | inner[range(k), range(lead, lead + k)]
    # low[:, m]: the bits of low mask m and the fixed elements; after e
    # doublings, pending[f - e][:, m] holds those that element f adds to m
    low, pending = np.empty((bits.shape[2], 1 << c), dtype=np.uint64), own[:c, :, None]
    low[:, 0] = base
    for e in range(c):
        np.bitwise_or(low[:, : 1 << e], pending[0], out=low[:, 1 << e : 2 << e])
        pending = np.concatenate((pending[1:], pending[1:] | inner[e, lead + e + 1 : lead + c, :, None]), axis=2)
    tile = np.empty_like(low)
    high_own, high_pairs, cross = own[c:], inner[c:, lead + c : lead + k], inner[:c, lead + c : lead + k]
    for high in range(1 << (k - c)):
        if high:
            at = (high >> np.arange(k - c) & 1).astype(bool)
            start = np.bitwise_or.reduce(high_pairs[at][:, at], axis=(0, 1)) | np.bitwise_or.reduce(high_own[at])
            # the masks that hold low element b: those below 2^b, ORed with
            # b's pairs with the tile's high elements
            tile[:, 0] = start
            for b, row in enumerate(np.bitwise_or.reduce(cross[:, at], axis=1)):
                np.bitwise_or(tile[:, : 1 << b], row[:, None], out=tile[:, 1 << b : 2 << b])
            tile |= low
        counts = np.bitwise_count(tile if high else low)
        sums, diffs = counts[:sum_words], counts[sum_words:]  # a level has far fewer than 2^15 rows
        yield high << c, sums.sum(axis=0, dtype=np.int16), diffs.sum(axis=0, dtype=np.int16)


def _mask_level(special: bool, hit_cap: int, level: _MaskLevel, take: int):
    """``_lattice_block`` on a ``_MaskLevel``: every mask is classified,
    one ``_mask_tiles`` tile at a time, and the hits among the level's
    first ``take`` stream positions are returned in stream order, each
    put there by ``_MaskLevel.position``.  The last mask of every run of
    2^``_CHECK_BITS`` masks (of the level, if shorter), unless empty, and
    every hit are counted again by ``sum_diff_counts``, looked up when
    called; a tile it disagrees with raises.  A tile holds whole runs."""
    ground, found = level.ground, []
    fixed, run = ground.lead + ground.tail, 1 << _CHECK_BITS
    for first, sums, nonneg in _mask_tiles(ground):
        diffs = np.maximum(2 * nonneg - 1, 0)  # A-A: nonnegative differences mirrored about 0; none in the empty set
        sizes = np.bitwise_count(np.arange(first, first + len(sums), dtype=np.uint64)) + fixed if special else None
        at = np.flatnonzero(_census_hits(sums, diffs, sizes, special)).tolist()
        checked = {r: ground.mask_subset(first + r) for r in (*range(min(run, len(sums)) - 1, len(sums), run), *at)}
        for r, subset in checked.items():
            if subset and sum_diff_counts(subset) != (int(sums[r]), int(diffs[r])):
                raise RuntimeError(f"mask level count disagrees with sum_diff_counts on {subset}")
        found += [(level.position(first + r), checked[r]) for r in at]
    position = sorted(hit for hit in found if hit[0] < take)
    return take, np.array([p for p, _ in position], dtype=np.intp), [s for _, s in position[:hit_cap]]


def _blocks(ground: _ScanGround, streamed, budget=math.inf):
    """(count, block) of every lattice engine: the first ``streamed[s]``
    candidates of interior size s as one ``_MaskLevel`` on a ground of at
    most ``_MASK_K`` interior elements when at least ``_MASK_SHARE`` of
    its 2^k masks are wanted (streamed, up to the ``budget``), else as
    rank descriptors (ground, size, first rank) of at most
    ``ground.block`` candidates each."""
    streamed = tuple(streamed)
    if ground.k <= _MASK_K and min(sum(streamed), budget) >= _MASK_SHARE * (1 << ground.k):
        yield sum(streamed), _MaskLevel(ground, streamed)
        return
    for size, count in enumerate(streamed):
        yield from ((min(ground.block, count - a), (ground, size, a)) for a in range(0, count, ground.block))


def _lattice_block(special: bool, hit_cap: int, block, take: int):
    """The classifier ``_scan`` runs on lattice blocks.

    ``block`` is a ``_MaskLevel``, classified by ``_mask_level``, or a
    rank descriptor.  Census grounds (``by_census``) send a rank block
    to the census whole, as membership rows; rows of diameter below the
    floor are counted with the rest and can never be hits.  Other
    grounds' blocks are counted one set at a time, skipping candidates
    of diameter below the floor.  Rank blocks of candidates of fewer
    than two elements are classified on neither path.
    """
    if isinstance(block, _MaskLevel):
        return _mask_level(special, hit_cap, block, take)
    ground, size, first = block
    if size + ground.lead + ground.tail < 2:
        return take, np.zeros(0, dtype=np.intp), []
    if ground.by_census:
        source = ground.subset(ground.index_rows(size, first, 1)[0])
        at, found = _census_scan(ground.census, [(bit_slices(ground.member_rows(size, first, take)), take, source)],
                                 special)
        return take, at, found[:hit_cap]
    rows = ground.index_rows(size, first, take)
    wide = np.flatnonzero(ground.values[rows[:, -1]] - ground.values[rows[:, 0]] >= min_mstd_diameter())
    at = wide[_counted_hits([ground.subset(rows[r]) for r in wide.tolist()], special)]
    return take, at, [ground.subset(rows[r]) for r in at[:hit_cap].tolist()]


def _lattice_scan(cfg: SearchConfig, special: bool) -> SearchReport:
    elems = cfg.ground.elements
    n, top = len(elems), len(elems) if cfg.max_size is None else cfg.max_size
    streamed = (math.comb(n, s) if cfg.min_size <= s <= top else 0 for s in range(n + 1))
    blocks = _blocks(_ScanGround(elems), streamed, cfg.budget)
    pruning = (f"skip diameter < {min_mstd_diameter()}",)
    hits, hit_count, examined, complete = _scan(
        blocks, partial(_lattice_block, special, cfg.hit_cap), cfg.budget, 0, cfg.hit_cap,
        cfg.objective == OBJECTIVE_FIRST_HIT, cfg.threads,
    )
    return SearchReport(
        hits=tuple(hits),
        hit_count=hit_count,
        examined=examined,
        density_estimate=None,
        stderr=None,
        exhausted=complete,
        seed=cfg.seed,
        pruning=pruning,
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

def _mc_chunk(census: PairCensus, seed: int, special: bool, hit_cap: int, index: int, take: int):
    """The classifier ``_scan`` runs on Monte Carlo chunks: chunk
    ``index`` draws ``take`` random subsets.

    Deterministic in (seed, index) alone: each chunk draws from its own
    SeedSequence spawn, so the merged result is independent of how
    chunks are scheduled across workers.  Subset k is the ground
    elements at the set bits of row k of the chunk's ``rng.bytes`` draw,
    rows of ceil(n / 8) bytes read little-endian.  Each census block
    draws its rows as it starts; blocks but the last hold 64 * w rows and
    ``Generator.bytes`` draws whole uint32 words, so the draws join up.
    A block's first subset is decoded from its first row for the spot
    check."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
    n, width = census.n, (census.n + 7) // 8

    def drawn(count):
        raw = rng.bytes(width * count)
        first = int.from_bytes(raw[:width], "little") & ((1 << n) - 1)  # the bits of row 0 that byte_slices keeps
        return byte_slices(raw, n), count, _select_bits(first, census.elements)

    counts = (min(census.mc_block, take - a) for a in range(0, take, census.mc_block))
    at, found = _census_scan(census, map(drawn, counts), special)
    return take, at, found[:hit_cap]


def _mc_scan(cfg: SearchConfig, special: bool) -> SearchReport:
    samples = cfg.samples
    chunks = ((min(_MC_CHUNK, samples - start), start // _MC_CHUNK) for start in range(0, samples, _MC_CHUNK))
    classify = partial(_mc_chunk, PairCensus(cfg.ground.elements), cfg.seed, special, cfg.hit_cap)
    hits, hit_count, _, _ = _scan(chunks, classify, samples, 0, cfg.hit_cap, False, cfg.threads)
    density = hit_count / samples
    stderr = math.sqrt(density * (1.0 - density) / samples)
    return SearchReport(
        hits=tuple(hits),
        hit_count=hit_count,
        examined=samples,
        density_estimate=density,
        stderr=stderr,
        exhausted=False,
        seed=cfg.seed,
    )


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
    # before the ground's n + 1 ints are built; {0..n}: 2n + 1 sums, n + 1 differences
    _check_census_capacity(n + 1, 3 * n + 2)
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
    scan stops at the first hit.  Levels are ``_blocks``, as a search
    is; in mask order or in rank blocks, ``examined`` and the hit are
    those of the candidate stream in ascending size, lexicographic
    within.
    ``optimal`` certifies that every level strictly below the returned
    bound was exhausted; levels whose objective value makes any MSTD
    subset impossible (below the verified diameter floor) are skipped
    soundly without enumeration.
    """
    if objective not in _MINIMAL_OBJECTIVES:
        raise DomainError(f"minimality search needs a minimize-* objective, got {objective!r}")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    elems = ground.elements
    floor = min_mstd_diameter()
    pruning = (f"skip diameter < {floor}", "dilated minimal-pattern probe")
    hits: list[IntSet] = []

    def value_of(elements: tuple[int, ...]) -> int:
        if objective == OBJECTIVE_MIN_MAX:
            return elements[-1]
        return elements[-1] - elements[0]

    # Probe: affine images of the minimal pattern inside the ground.
    best: IntSet | None = None
    examined, images = _probe(elems, floor, budget)
    for cand in compress(images, _counted_hits(images, special=False)):
        hit = IntSet(cand)
        if len(hits) < DEFAULT_HIT_CAP:
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
    stream = (b for value, w in below_bound if value >= floor for b in _level(elems, objective, w, floor))
    found, _, examined, complete = _scan(stream, partial(_lattice_block, False, 1), budget, examined, 1, True)
    if found:  # every level below the hit's was exhausted first
        best = found[0]
        if len(hits) < DEFAULT_HIT_CAP:
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


def _probe(elems, floor, budget):
    """(pairs tried, in-ground images) of the probe over dilations
    shift + c * scale of the minimal pattern.

    Pairs run in (scale, shift) order, shifts ascending through the
    ground while the image's top stays in it, and stop after ``budget``
    pairs; every pair counts, in the ground or not.  Membership is one
    ``searchsorted`` over every image of a batch of consecutive scales.
    """
    values = _int_array(elems, elems[-1])
    pattern = np.array(CONWAY)
    top = elems[-1]
    last = (top - elems[0]) // floor
    tried = 0
    images: list[tuple[int, ...]] = []
    scale = 1
    while scale <= last and tried < budget:
        batch = max(1, _PROBE_PAIRS // bisect_right(elems, top - floor * scale))
        scales = np.array(range(scale, min(scale + batch, last + 1)), dtype=values.dtype)
        counts = values.searchsorted(top - floor * scales, side="right")
        ends = np.cumsum(counts)
        take = min(int(ends[-1]), budget - tried)
        scale_of = np.repeat(scales, counts)[:take]
        shift_of = values[np.arange(take) - np.repeat(ends - counts, counts)[:take]]
        image = shift_of[:, None] + scale_of[:, None] * pattern
        inside = (values[values.searchsorted(image)] == image).all(axis=1)
        images += map(tuple, image[inside].tolist())
        tried += take
        scale += len(scales)
    return tried, images


def _level(elems, objective, where, floor):
    """Blocks of one minimality level, in scan order, from ``_blocks``.

    A level fixes the subset's max element (min-max objective: level m
    is elems[m] plus any subset of the elements below it) or both
    endpoints (min-diameter: level (i, j) is elems[i], elems[j] plus any
    subset of the elements between them), and its elements are the
    scan ground, the fixed ones its lead and tail.  Candidates ascend by
    cardinality, lexicographic within.  Under min-max, a candidate whose least element lies within
    ``floor`` of the top has diameter below the floor, and so has every
    later candidate of its cardinality: the first such candidate is the
    last one streamed (it counts as examined and is not classified).
    Counted in bulk, that is C(k, s) - C(k - t, s) candidates of size s,
    plus one when C(k - t, s) > 0, for k interior elements of which the
    first t lie at least ``floor`` below the top.  A mask level counts
    the same candidates, and maps its hits to the same positions.
    """
    if objective == OBJECTIVE_MIN_MAX:
        level = elems[: where + 1]
        ground = _ScanGround(level, tail=1)
        t = bisect_right(level, level[-1] - floor, 0, ground.k)
    else:
        i, j = where
        level = elems[i : j + 1]
        ground = _ScanGround(level, lead=1, tail=1)
        t = ground.k  # every candidate spans the level's diameter, at least the floor
    k = ground.k
    return _blocks(ground, [math.comb(k, size) - math.comb(k - t, size) + (size <= k - t) for size in range(k + 1)])
