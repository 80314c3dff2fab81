"""Prime machinery: sieve, tuple admissibility, singular series,
constellation matching, and prime arithmetic progressions.

The pipeline that motivates this module: pick the offset tuple
T = 30 * {0,2,3,4,7,11,12,14} \\ {0} joined with 0 (i.e. the minimal
MSTD pattern dilated by 30), verify T is admissible, scan for shifts n
with every n + b prime, and each match yields an 8-element MSTD set
consisting entirely of primes.  Admissibility plus the singular series
also power the Hardy-Littlewood prediction used to sanity-check the
scan counts: the singular series times the discrete sum over
2 <= n <= x of prod_i 1/log(n + b_i).  Every factor carries its own
offset, so the summand is smooth; the sum is exact for n <= 2^12 and
beyond that a midpoint-rule integral taken by Gauss-Legendre
quadrature on geometric panels (relative error about 1e-10).

Every prime table and the singular series come from one window
producer, ``_odd_windows``, which marks odd integers a window at a time.
``PrimeSieve`` has it mark its table in place; the singular series takes
its primes one window at a time and keeps only each window's sum, so its
memory does not grow with the cutoff.  The tuple scan and
``prime_count`` stream cache-sized windows through the same marking
routine, ``_cross_off``, on a mod-30 wheel: only the residue classes in
which every n + b is prime to 30 get flags, and the shifts n <= 5 that
the wheel leaves out are checked by trial division.  One cap on sieve
limits, ``_capped``, holds for the table, the series cutoff and
``prime_count``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .sets import CONWAY, IntSet, Report

# np.bool_ flags: 1 byte per integer; 2**27 is 128 MiB, a sane guard.
_SIEVE_LIMIT_CAP = 1 << 27

# The sieve table is marked one segment of this many odd integers at a
# time (1 MiB of flags).  The tuple scan walks each wheel class in windows
# of this many class steps, divided among the class's flag arrays, so a
# window is 1 MiB of flags too, and covers up to 30 * 2^20 integers.
_SEGMENT = 1 << 20

# The tuple scan's wheel: a shift n >= 7 can match only in a class
# r mod _WHEEL with every r + b prime to _WHEEL.
_WHEEL = 30

# A base prime with fewer multiples than this in a window costs more in
# its own slice call than in its writes, so those primes are crossed off
# together through one index array.  At the scan limit, with base primes
# to 3.7e5, that took T from about 7 to about 2.5 s per 10^9 shifts and
# the two-residue tuple 0,6 from about 15 to about 4 (one window of 2^20
# class steps timed per class and scaled; 2-core Xeon).
_SLICE_MIN = 16

_MATCH_CAP = 1000

# The logs of the largest float, about 709.78, and of the smallest normal one
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)

# The singular series sums its log factors over windows of this many odd
# integers (512 Ki integers).  For T at rel_tol 1e-5 (cutoff 6.4e6) windows
# of 2^15 to 2^19 flags took 23 / 18 / 15 / 14.5 / 18 ms at best, and at
# 1e-6 334 / 263 / 216 / 161 / 180 ms, against 37 and 350 ms for the whole
# table; at 2^18 its traced peak is 1.6 MiB, against 23.5 MiB.
# It also keeps every cutoff up to 524289, and so rel_tol 1e-3 for up to
# 22 offsets, in one window (2-core Xeon, CPython 3.11, numpy 2.4).
_SERIES_SEGMENT = 1 << 18

# v(p) for the primes below the spread is found from blocks of this many
# offset residues (rows x m; 512 KiB of int64).  The 40 primes 47..251
# with 24999983, 1.6M primes below the spread, took 0.78 s at rel_tol 0.1,
# and blocks of 2^14 or 2^18 cells were no faster.
_RESIDUE_CELLS = 1 << 16

# The tuple scan's stated time limit on x + spread, about 1.4e11.  Its
# time per 10^9 shifts grows with x, as the base primes do: at 1e10 T took
# 1.4 s per 10^9 and 0,6 (the most flag arrays) 2.3 s, and the whole scan
# to the limit 5.2 and 10.6 minutes (2-core Xeon, CPython 3.11, numpy
# 2.4); the base sieve alone would admit x near 1.8e16, years of it.
_SCAN_LIMIT = 1 << 37

# The prediction sums n <= _HEAD_N term by term and integrates the rest
# over _TAIL_PANELS geometric panels of _GAUSS_NODES points each.
_HEAD_N = 1 << 12
_TAIL_PANELS = 63
_GAUSS_NODES = 8


class PrimeSieve:
    """Boolean prime table on [0, limit] with O(1) membership.

    The package's one prime table: admissibility moduli, AP primorials
    and every base-prime list (its own, the series windows' and the tuple
    scan's) come from one.  The table holds every integer, but only its
    odd half is marked: 2 is set directly, and ``_odd_windows``, the
    producer whose shorter windows the singular series streams, marks the
    view of the odd integers from 3 in place, _SEGMENT flags at a time.
    A limit below 2 yields an empty (but valid) sieve rather than an
    error; a limit above the cap raises CapacityError.
    """

    __slots__ = ("limit", "flags")

    def __init__(self, limit: int):
        self.limit = limit = _capped(limit)
        self.flags = flags = np.zeros(max(limit + 1, 0), dtype=bool)
        flags[2:3] = True
        for _ in _odd_windows(limit, _SEGMENT, flags[3::2]):  # marks the odd view in place
            pass

    def __contains__(self, n) -> bool:
        n = int(n)
        return 0 <= n <= self.limit and bool(self.flags[n])

    def primes(self) -> np.ndarray:
        return np.flatnonzero(self.flags)

    def count(self) -> int:
        return int(self.flags.sum())


def _capped(limit) -> int:
    """The sieve limit as an int, or CapacityError past the cap."""
    limit = int(limit)
    if limit > _SIEVE_LIMIT_CAP:
        raise CapacityError(f"sieve limit {limit} exceeds cap {_SIEVE_LIMIT_CAP}")
    return limit


def _odd_windows(limit: int, size: int, odd: np.ndarray | None = None):
    """Yield (lo, flags) over the odd integers 3 <= n <= limit, size at a
    time: flags[i] stands for lo + 2i and is set iff that integer is prime.

    The multiples of the odd primes up to sqrt(limit), which a smaller
    PrimeSieve supplies, are crossed off each window by ``_cross_off``
    with step 2 (Bays & Hudson 1977).  The windows are views of ``odd``
    (odd[i] standing for 3 + 2i) when it is given, so a whole table is
    marked in place; otherwise they share one buffer, so each is valid
    only until the next is asked for.
    """
    total = max((limit - 1) // 2, 0)  # the odd integers 3..limit
    if not total:
        return
    base = PrimeSieve(math.isqrt(limit)).primes()[1:]
    shared = odd is None
    if shared:
        odd = np.empty(min(size, total), dtype=bool)
    for i in range(0, total, size):
        flags = odd[: min(size, total - i)] if shared else odd[i : i + size]
        flags.fill(True)
        _cross_off(flags, 3 + 2 * i, 2, base)
        yield 3 + 2 * i, flags


def _cross_off(flags: np.ndarray, lo: int, step: int, base: np.ndarray) -> None:
    """Clear the flag of every multiple p*k >= p*p of a base prime p.

    flags[i] stands for lo + step*i, every base prime is prime to step,
    and a base prime itself keeps its flag.  The multiples of p in range
    sit at the indices i = (-lo) * s mod p, s = (1 + p*t)/step being the
    inverse of step mod p for t = -1/p mod step (looked up by p mod
    step); the first of them at or past p*p's place is the start, and
    the next ones follow every p flags.  The starts are found for all
    base primes in one vector expression, and primes with none are
    skipped.  A prime with at least _SLICE_MIN multiples in range clears
    them with one slice assignment; the others' indices are built
    together and cleared at once.
    """
    inverse = (1 + base * _negated_inverses(step)[base % step]) // step
    square = np.maximum(-((lo - base * base) // step), 0)  # the first index at or past p*p
    starts = square + ((-lo) % base * inverse - square) % base
    live = starts < flags.size
    sliced = live & (base * _SLICE_MIN < flags.size)
    for p, start in zip(base[sliced].tolist(), starts[sliced].tolist()):
        flags[start::p] = False
    few = live & ~sliced
    if few.any():
        p, start = base[few], starts[few]
        hits = (flags.size - 1 - start) // p + 1
        first = np.cumsum(hits) - hits  # where each prime's run of indices begins
        index = np.repeat(p, hits)
        index *= np.arange(index.size)
        index += np.repeat(start - p * first, hits)
        flags[index] = False


@functools.cache
def _negated_inverses(step: int) -> np.ndarray:
    """t[a] = -1/a mod step for each a prime to step (0 elsewhere)."""
    return np.array([-pow(a, -1, step) % step if math.gcd(a, step) == 1 else 0 for a in range(step)])


@dataclass(frozen=True)
class PrimeTuple:
    """Offset pattern (b_1, ..., b_m), stored sorted with b_1 = 0."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        if not self.offsets:
            raise DomainError("tuple needs at least one offset")
        offs = sorted(int(b) for b in self.offsets)
        for a, b in zip(offs, offs[1:]):
            if a == b:
                raise DomainError(f"duplicate offset {a}")
        base = offs[0]
        object.__setattr__(self, "offsets", tuple(b - base for b in offs))

    @property
    def m(self) -> int:
        return len(self.offsets)

    @property
    def spread(self) -> int:
        return self.offsets[-1]


@dataclass(frozen=True)
class AdmissibilityResult(Report):
    admissible: bool
    witness_modulus: int | None
    checked_moduli: tuple[int, ...]


def _residue_counts(t: PrimeTuple) -> dict[int, int]:
    """{p: v(p)}, v(p) the number of distinct offset residues mod p, for
    the primes p <= m in ascending order, up to and including the first
    prime the offsets cover (v(p) = p)."""
    counts = {}
    for p in PrimeSieve(t.m).primes().tolist():
        counts[p] = v = len({b % p for b in t.offsets})
        if v == p:
            break
    return counts


def is_admissible(t: PrimeTuple) -> AdmissibilityResult:
    """Does the tuple avoid covering all residues mod every k >= 2?

    Only prime moduli p <= m need checking: a composite modulus is
    covered only if each of its prime factors is, and m offsets occupy
    at most m classes, so any p > m has a free class automatically.
    """
    counts = _residue_counts(t)
    witness = next((p for p, v in counts.items() if v == p), None)
    return AdmissibilityResult(witness is None, witness, tuple(counts))


@dataclass(frozen=True)
class SingularSeries(Report):
    """Truncated product over primes of (p/(p-1))^(m-1) * (p-v)/(p-1).

    v = v(p) is the number of distinct offset residues mod p.  Beyond
    the offset spread v = m exactly, so the log of the tail is bounded
    by sum of m^2/p^2 < m^2/(P-1); truncation_prime P is chosen to push
    that bound below the requested relative tolerance.
    """

    value: float
    truncation_prime: int
    tail_bound: float
    per_prime_v: dict


def singular_series(t: PrimeTuple, rel_tol: float = 1e-3) -> SingularSeries:
    """Numeric value of the tuple's density constant to ``rel_tol``.

    Zero is exact, not approximate: the value vanishes iff some prime
    p <= m is fully covered, which is checked first and short-circuits.
    The product is truncated at max(spread + 1, m^2/rel_tol), and a
    truncation point beyond the sieve cap raises the sieve's
    CapacityError.  The primes up to it are taken one window of
    _SERIES_SEGMENT odd integers at a time, and each window adds one
    partial sum of logs, so memory stays one window whatever the cutoff;
    the cap now bounds time (about 0.3 s at 1e8).  A value past the
    float range, a natural log above about 709.78 (450 offsets can reach
    it), raises CapacityError too.
    """
    if not 0 < rel_tol <= 0.1:
        raise DomainError(f"rel_tol must be in (0, 0.1], got {rel_tol}")
    m = t.m
    per_prime_v = _residue_counts(t)
    covered = next((p for p, v in per_prime_v.items() if v == p), None)
    if covered is not None:
        return SingularSeries(0.0, covered, 0.0, per_prime_v)
    if m == 1:
        return SingularSeries(1.0, 2, 0.0, per_prime_v)
    cutoff = max(t.spread + 1, 2 * m + 2, int(m * m / rel_tol) + 2)
    offsets = np.array(t.offsets)
    partials = []
    for lo, flags in _odd_windows(_capped(cutoff), _SERIES_SEGMENT):
        primes = np.flatnonzero(flags)
        primes *= 2
        primes += lo
        if lo == 3:
            primes = np.concatenate(([2], primes))
        partials.append(_log_factors(primes, offsets, t.spread))
    # fsum adds the windows' partial sums exactly, and returns a lone one as is
    log_value = math.fsum(partials)
    if log_value > _LOG_FLOAT_MAX:
        raise CapacityError(
            f"singular series is exp({log_value:.6g}), past the float range (at most exp({_LOG_FLOAT_MAX:.6g}))"
        )
    return SingularSeries(math.exp(log_value), cutoff, m * m / (cutoff - 1), per_prime_v)


def _log_factors(primes: np.ndarray, offsets: np.ndarray, spread: int) -> float:
    """The sum over ``primes`` (ascending) of the log of the series factor
    (p/(p-1))^(m-1) * (p-v)/(p-1).

    v = m beyond the spread; below it, v counts the distinct sorted
    residues of the offsets, for _RESIDUE_CELLS residues at a time.  The
    factors are those of one whole-array expression, op for op, and are
    summed by one np.sum, so a cutoff within one window gives the value
    a single table of primes gives.
    """
    m = offsets.size
    v = np.full(primes.size, m, dtype=np.float64)
    near = int(np.searchsorted(primes, spread, side="right"))
    rows = max(_RESIDUE_CELLS // m, 1)
    for i in range(0, near, rows):
        residues = offsets % primes[i : min(i + rows, near), None]
        residues.sort(axis=1)
        v[i : i + len(residues)] = np.count_nonzero(residues[:, 1:] != residues[:, :-1], axis=1) + 1
    p = primes.astype(np.float64)
    logs = np.divide(-1, p)
    np.log1p(logs, out=logs)
    logs *= -(m - 1)  # (m - 1) * log(p/(p-1))
    p -= 1
    np.subtract(1, v, out=v)
    v /= p
    np.log1p(v, out=v)  # log((p-v)/(p-1))
    logs += v
    return logs.sum()


def _log_summand(u: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """log prod_i 1/log(u + b_i) = -sum_i log log(u + b_i) at every point of u."""
    return -np.log(np.log(u[..., None] + offsets)).sum(axis=-1)


def _hardy_littlewood_sum(offsets: tuple[int, ...], x: int) -> tuple[float, float]:
    """(total, shift): the sum over 2 <= n <= x of prod_i 1/log(n + b_i)
    is total * exp(shift).

    The summand falls with n.  When its value at n = 2 is below the
    smallest normal float (the first 371 primes above 450 as offsets
    reach it), shift is its log and the terms are summed divided by it,
    so none is subnormal; else shift is 0.  Terms n <= _HEAD_N are added
    exactly.  The rest is the midpoint rule's integral of the summand
    from _HEAD_N + 1/2 to x + 1/2; its error, about f'(_HEAD_N)/24, kept
    T's sum within 4e-10 of the exact sum for x from 1e4 to 1e8.
    """
    b = np.array(offsets, dtype=np.float64)
    head = _log_summand(np.arange(2, min(x, _HEAD_N) + 1, dtype=np.float64), b)
    shift = float(head[0]) if head[0] < _LOG_FLOAT_MIN else 0.0
    total = np.exp(head - shift).sum()
    if x > _HEAD_N:
        edges = np.geomspace(_HEAD_N + 0.5, x + 0.5, _TAIL_PANELS + 1)
        mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
        nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
        u = mid[:, None] + half[:, None] * nodes
        total += (half[:, None] * weights * np.exp(_log_summand(u, b) - shift)).sum()
    return float(total), shift


@dataclass(frozen=True)
class MatchReport:
    """Scan outcome for one tuple up to x.

    count is exact (every n in [1, x] with all n + b_i prime); matches
    lists the first ones up to a cap; predicted is the Hardy-Littlewood
    count, the singular series times the sum over 2 <= n <= x of
    prod_i 1/log(n + b_i) (exact up to n = 2^12, quadrature beyond, to
    about 1e-10 relative); ratio is count/predicted, None when the
    prediction is zero.
    """

    x: int
    count: int
    matches: tuple[int, ...]
    predicted: float
    ratio: float | None
    series: SingularSeries

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "count": self.count,
            "matches": list(self.matches),
            "predicted": self.predicted,
            "ratio": self.ratio,
            "series_value": self.series.value,
        }


def match_tuple(
    t: PrimeTuple,
    x: int,
    rel_tol: float = 1e-3,
    match_cap: int = _MATCH_CAP,
) -> MatchReport:
    """Count shifts n <= x with n + b prime for every offset b.

    The scan streams windows over a mod-30 wheel (Bays & Hudson 1977;
    Pritchard 1981).  A shift n >= 7 can match only in a class r mod 30
    with every r + b prime to 30, so only those classes get flags: per
    30 integers T needs 8 flags and no tuple more than 12, against 15
    for odd shifts.  Each class is walked in windows of class steps with
    one flag array per residue of r + b mod 30, in which the multiples
    of the base primes from 7 to sqrt(x + spread), which one PrimeSieve
    supplies, are crossed off; the offsets' views are ANDed and counted.
    The shifts n <= 5 are checked by trial division.  Memory is one
    window, _SEGMENT flags plus the spread/30 more each flag array
    reaches, however large x is (near the scan limit, the primes with
    few multiples in a window add an index array of about 1.4 MB).  The
    spread is below the sieve cap, because the singular series, computed
    first, is cut off at spread + 1 or later, under that cap.
    Time grows with x, so x + spread is held to _SCAN_LIMIT (5 to 11
    minutes of scanning), and to the base sieve's reach, sqrt(x +
    spread) <= 2^27; past either, CapacityError is raised before the
    scan allocates anything.
    Shifts n, not primes, are counted; with b_1 normalized to 0 every
    match n is itself prime.
    """
    x = int(x)
    if match_cap < 0:
        raise DomainError(f"match_cap must be >= 0, got {match_cap}")
    series = singular_series(t, rel_tol)
    if x < 2:
        return MatchReport(x=x, count=0, matches=(), predicted=0.0, ratio=None, series=series)
    # the largest x + spread in the stated time whose base sieve fits
    top = min((_SIEVE_LIMIT_CAP + 1) ** 2 - 1, _SCAN_LIMIT)
    if x + t.spread > top:
        raise CapacityError(
            f"scan limit x + spread = {x + t.spread} exceeds {top}; "
            f"x may be at most {top - t.spread}"
        )
    count, matches = _scan_windows(t.offsets, x, match_cap)
    # a zero series (inadmissible tuple) needs no sum over its offsets
    total, shift = _hardy_littlewood_sum(t.offsets, x) if series.value else (0.0, 0.0)
    predicted = math.exp(math.log(series.value) + shift + math.log(total)) if shift else series.value * total
    ratio = count / predicted if predicted > 0 else None
    return MatchReport(
        x=x, count=count, matches=matches, predicted=predicted, ratio=ratio, series=series
    )


def prime_count(limit: int, cap: int) -> tuple[int, tuple[int, ...]]:
    """(the number of primes <= limit, the first ``cap`` of them), streamed
    through the tuple scan's windows, so memory is one window however
    large the limit.  The limit is capped as PrimeSieve's is."""
    limit = _capped(limit)
    return _scan_windows((0,), limit, cap) if limit >= 2 else (0, ())


def _scan_windows(
    offsets: tuple[int, ...], x: int, match_cap: int
) -> tuple[int, tuple[int, ...]]:
    """The count and the first match_cap of the shifts 1 <= n <= x that match.

    The shifts n <= 5 are tested by trial division.  A shift n >= 7 has
    every n + b >= 7, so it can match only in a class r mod 30 (a
    ``_wheel_classes`` entry) with every r + b prime to 30: 8 classes
    for T, none for a tuple with an odd offset or one that covers the
    residues mod 3 or mod 5 (and 6 is not prime).  Each class is walked
    in windows of _SEGMENT // d class steps, d the number of its flag
    arrays: one per residue c of r + b mod 30, holding the integers
    30k + c that its offsets reach.  The multiples of the base primes
    from 7 to sqrt(x + spread) are crossed off in each array, and the
    offsets' views are ANDed and counted.  Each class lists its first
    match_cap matches, so the first match_cap of all the lists are the
    first overall.
    """
    spread = offsets[-1]
    small = PrimeSieve(math.isqrt(x + spread)).primes()
    shifts = [n for n in range(1, min(x, 5) + 1) if all(_is_prime(n + b, small) for b in offsets)]
    count, lists = len(shifts), [shifts[:match_cap]]
    for r, residues in _wheel_classes(offsets):
        found, listed = _scan_class(r, residues, x, small[3:], match_cap)  # base primes from 7
        count += found
        lists.append(listed)
    return count, tuple(sorted(itertools.chain(*lists))[:match_cap])


def _scan_class(
    r: int, residues: dict[int, list[int]], x: int, base: np.ndarray, match_cap: int
) -> tuple[int, list[int]]:
    """The count and the first match_cap of the matching shifts 30k + r in
    [7, x], one ``_wheel_classes`` entry's windows crossed off by ``base``."""
    first = int(r < 7)  # n = 1, the integer 1 in class 1 at k = 0, crossed off by no prime
    steps = (x - r) // _WHEEL + 1 - first  # the shifts 30k + r <= x, k >= first
    if steps < 1:
        return 0, []
    size = min(max(_SEGMENT // len(residues), 1), steps)
    # one buffer per flag array, and one for the AND, for every window:
    # fresh arrays cost page faults; array c holds 30(k + q) + c for its
    # offsets' carries q = (r + b) // 30
    arrays = [(c, q, np.empty(size + q[-1] - q[0], dtype=bool)) for c, q in residues.items()]
    ands = np.empty(size, dtype=bool)
    count, listed = 0, []
    for k in range(first, first + steps, size):
        n = min(size, first + steps - k)
        views = []
        for c, q, buffer in arrays:
            window = buffer[: n + q[-1] - q[0]]  # window[i] stands for 30(k + q[0] + i) + c
            window.fill(True)
            _cross_off(window, _WHEEL * (k + q[0]) + c, _WHEEL, base)
            views += [window[j - q[0] : j - q[0] + n] for j in q]
        hits = ands[:n]
        np.copyto(hits, views[0])
        for view in views[1:]:
            hits &= view
        found = int(np.count_nonzero(hits))
        count += found
        if found and len(listed) < match_cap:  # decode only what the cap lists
            listed += (_WHEEL * (k + np.flatnonzero(hits)[: match_cap - len(listed)]) + r).tolist()
    return count, listed


def _wheel_classes(offsets: tuple[int, ...]) -> list[tuple[int, dict[int, list[int]]]]:
    """(r, {c: carries}) for each class r mod 30 with every r + b prime
    to 30: c runs over the distinct residues (r + b) mod 30, and its
    carries are the (r + b) // 30 of its offsets, ascending.

    The flags per 30 integers, the sum of the dicts' sizes, are at most
    12 for any tuple (0 and 6: six classes of two residues), against 15
    for windows of odd shifts; T needs 8.
    """
    classes = []
    for r in range(_WHEEL):
        if all(math.gcd(r + b, _WHEEL) == 1 for b in offsets):
            residues: dict[int, list[int]] = {}
            for b in offsets:
                residues.setdefault((r + b) % _WHEEL, []).append((r + b) // _WHEEL)
            classes.append((r, residues))
    return classes


def _is_prime(m: int, primes: np.ndarray) -> bool:
    """Is m prime?  primes holds every prime <= sqrt(m)."""
    return m >= 2 and not np.any(m % primes[: np.searchsorted(primes, math.isqrt(m), side="right")] == 0)


def dilated_conway(p: int, s: int) -> IntSet:
    """{p + c*s : c in the minimal MSTD pattern}; MSTD for all p >= 0, s >= 1.

    Sum and difference counts are invariant under x -> p + s*x, so the
    image always classifies MSTD with the same 26/25 census.
    """
    p, s = int(p), int(s)
    if p < 0:
        raise DomainError(f"shift must be nonnegative, got {p}")
    if s < 1:
        raise DomainError(f"dilation factor must be >= 1, got {s}")
    return IntSet(p + c * s for c in CONWAY)


def find_prime_ap(
    length: int,
    start_bound: int,
    max_diff: int | None = None,
) -> tuple[int, int] | None:
    """Smallest-first-term AP of ``length`` primes with first term <= start_bound.

    The difference scan is restricted to multiples of the product of
    primes q <= length with q != first term: for any other q, some term
    p + k*d would be divisible by q.  A prime first term p < length is
    impossible outright (the term p + p*d = p(1+d) is composite), so
    such starts are skipped.  Every candidate is still verified against
    the sieve; the modulus rule only narrows the search.  Returns None
    when no AP exists within the bounds (a normal outcome).

    First terms are searched up to a bound b that starts at
    max(2^16, (length - 1) * max_diff) and doubles until an AP turns up
    or b reaches start_bound, each step sieving to b + (length - 1) *
    max_diff and trying only its new first terms.  So memory follows the
    answer, not start_bound, and the smallest first term still comes
    first, with its smallest difference.  First terms are tested by all
    their differences at once, a block of them at a time.  Memory does
    not follow the answer past max_diff: the first step already sieves
    to b + (length - 1) * max_diff, so an explicit large max_diff pays
    for that sieve before any first term is tried (length 2, bound 10,
    max_diff 1e8 took 0.5-0.7 s and a 130 MB peak RSS to find (2, 1)).
    A negative max_diff raises DomainError.  Past length 1, one below the
    smallest modulus (primorial // length for a prime length, else the
    primorial), 0 included, returns None before any sieve to the bound.
    """
    length = int(length)
    bound = int(start_bound)
    if length < 1:
        raise DomainError(f"AP length must be >= 1, got {length}")
    if max_diff is not None and max_diff < 0:
        raise DomainError(f"AP max_diff must be >= 0, got {max_diff}")
    if bound < 2:
        return None
    if length == 1:  # 2 is the least prime, whatever the bound
        return (2, 0)
    primes = PrimeSieve(length).primes().tolist()
    primorial = math.prod(primes)
    if max_diff is not None and max_diff < (primorial // length if primes[-1] == length else primorial):
        return None
    if max_diff is None:
        headroom = (_SIEVE_LIMIT_CAP - bound) // (length - 1)
        max_diff = max(min(100 * primorial, headroom), primorial)
    max_diff = int(max_diff)
    reach = (length - 1) * max_diff
    low, high = 1, min(bound, max(1 << 16, reach))
    while True:
        flags = PrimeSieve(high + reach).flags  # capacity-checked by the sieve itself
        firsts = np.flatnonzero(flags[low + 1 : high + 1]) + low + 1
        firsts = firsts[firsts >= length]
        # a first term p <= length leaves p out of the modulus: only p = length can
        own = int(firsts.size > 0 and firsts[0] == length)
        for group, modulus in ((firsts[:own], primorial // length), (firsts[own:], primorial)):
            found = _first_prime_ap(flags, group, length, modulus, max_diff)
            if found:
                return found
        if high == bound:
            return None
        low, high = high, min(bound, 2 * high)


def _first_prime_ap(
    flags: np.ndarray, firsts: np.ndarray, length: int, modulus: int, max_diff: int
) -> tuple[int, int] | None:
    """The first p in ``firsts`` and the smallest d, a multiple of modulus
    up to max_diff, with every p + k*d prime (k < length), or None.

    Each first term is tested by all its differences at once; a block
    holds as many first terms as keep it near 2^16 candidate terms, and
    a first term with more differences than that is tested in pieces.
    """
    steps = np.arange(1, length)[:, None]
    count = max_diff // modulus  # differences per first term
    if count < 1:
        return None
    width = min(count, max(1, (1 << 16) // (length - 1)))
    rows = max(1, (1 << 16) // ((length - 1) * width))  # rows > 1 only if width == count
    for i in range(0, firsts.size, rows):
        block = firsts[i : i + rows, None, None]
        for j in range(0, count, width):
            d = modulus * np.arange(j + 1, min(count, j + width) + 1)
            ok = flags[block + steps * d].all(axis=1)  # ok[r, c]: block[r] with d[c]
            hit = ok.any(axis=1)
            if hit.any():
                r = int(hit.argmax())
                return int(block[r, 0, 0]), int(d[ok[r].argmax()])
    return None


def mstd_in_ap(ap: tuple[int, int, int]) -> IntSet:
    """Embed the minimal MSTD pattern in an arithmetic progression.

    ap = (first, difference, length); the pattern's offsets reach 14,
    so the progression must have at least 15 terms.  When ap is a prime
    AP the result is an MSTD set consisting entirely of primes.
    """
    first, diff, length = (int(v) for v in ap)
    if length < 15:
        raise DomainError(f"AP length {length} < 15: the pattern needs offsets up to 14")
    if first < 0:
        raise DomainError(f"AP first term must be nonnegative, got {first}")
    if diff < 1:
        raise DomainError(f"AP difference must be >= 1, got {diff}")
    return IntSet(first + c * diff for c in CONWAY)
