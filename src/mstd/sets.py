"""Exact arithmetic on finite sets of nonnegative integers.

The objects here are small enough to hold in memory, so every answer is
exact: sumsets A+A, difference sets A-A, and the classification of a set
as sum-dominated (MSTD), balanced, or difference-dominated.

Two interchangeable kernels compute |A+A| and |A-A|.  The auto rule in
``_bit_vector`` picks one from the density of the set for every operation
here; only ``sum_diff_counts`` lets a caller force one, which is how
tests cross-check both against each other and against a naive quadratic
reference:

* ``bits``  -- a dense bit-vector over [min, max] held in a Python int.
  Shifting the membership mask by each element and OR-ing accumulates
  the sumset; shifting by (diameter - element) accumulates all
  differences in one unsigned vector.  Cost: k * diameter / wordsize.
* ``pairs`` -- ``SumDiffSets``, A+A and the nonnegative half of A-A as
  Python sets, grown by adjoining one element at a time at O(k) each,
  so ``append_analysis`` adjoins x to a sparse set's census.
  Cost: k**2, independent of the diameter, so it wins on sparse sets.

Two capacity rules bound memory.  ``DEFAULT_DIAMETER_CAP``, fixed and
read when called, bounds the bit vector (2 * diameter bits, offset by
min(A)); the auto rule falls back to pairs past it, only ``bits`` forced
on ``sum_diff_counts`` raises CapacityError, and ``base_expansion``
refuses a wider expansion.  ``SumDiffSets`` raises CapacityError before
its sets could pass ``_PAIR_SETS_BYTES``.

Results come back as dataclasses derived from ``Report``, whose
``to_dict`` is the one rule that turns a report into JSON: field by
field in declaration order, a nested report becomes its dict, an IntSet
its element list, a tuple a list, and dict keys become strings.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import InitVar, dataclass, fields
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DomainError, exact_int

# Bit-vector kernels allocate ~diameter bits per operand; 2**24 bits is
# 2 MiB, enough for every built-in workload while keeping a typo like
# "1e100" from freezing the process.  Past it the pair kernel runs, and
# ``base_expansion`` refuses to build a set this wide.
DEFAULT_DIAMETER_CAP = 1 << 24

# Density threshold for the auto kernel: the bit vector wins while the
# diameter stays within ~512 bits per element (measured crossover on
# CPython 3.10; the exact constant only affects speed, never results).
_AUTO_BITS_PER_ELEMENT = 512

# SumDiffSets memory per entry: up to 80 bytes of hash table (3 slots while
# a table doubles) and an int of 28 bytes plus 4 per 30 bits.  The cap
# admits the first 1600 Fibonacci numbers (about 460 MB held).
_SET_ENTRY_BYTES = 112
_PAIR_SETS_BYTES = 3 << 28

VERDICT_MSTD = "mstd"
VERDICT_BALANCED = "balanced"
VERDICT_DIFF_DOMINATED = "diff_dominated"

# The smallest set whose sums outnumber its differences (26 vs 25).
# It is unique at size 8 and diameter 14 up to reflection and shift.
CONWAY = (0, 2, 3, 4, 7, 11, 12, 14)


@dataclass(frozen=True, slots=True)
class IntSet:
    """Immutable sorted set of nonnegative integers.

    Invariants: nonempty, strictly increasing, every element an integer
    (2.5 is refused, not truncated) and >= 0.  The diameter is bounded
    only by a ``diameter_cap`` passed in (CapacityError past it): kernels
    count sets past ``DEFAULT_DIAMETER_CAP`` by pairs.
    """

    elements: tuple[int, ...]
    diameter_cap: InitVar[int | None] = None

    def __post_init__(self, diameter_cap: int | None) -> None:
        elems = tuple(sorted(map(exact_int, self.elements)))
        if not elems:
            raise DomainError("set must be nonempty")
        if elems[0] < 0:
            raise DomainError(f"elements must be nonnegative, got {elems[0]}")
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise DomainError(f"duplicate element {a}")
        if diameter_cap is not None and elems[-1] - elems[0] > diameter_cap:
            raise CapacityError(f"diameter {elems[-1] - elems[0]} exceeds cap {diameter_cap}")
        object.__setattr__(self, "elements", elems)

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    @property
    def diameter(self) -> int:
        return self.elements[-1] - self.elements[0]

    @property
    def total(self) -> int:
        return sum(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def to_dict(self) -> dict:
        return {"elements": list(self.elements)}


class Report:
    """Base of the report dataclasses: ``to_dict`` is the JSON object the
    CLI prints.

    Each field, in declaration order, becomes one key: a nested report
    becomes its dict, an IntSet its element list, a tuple a list, and a
    dict's keys become strings; other values are kept as they are.
    SearchReport and MatchReport write their own to_dict instead,
    because their JSON renames or leaves out fields.
    """

    def to_dict(self) -> dict:
        return {field.name: _json_value(getattr(self, field.name)) for field in fields(self)}


def _json_value(value):
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, IntSet):
        return list(value.elements)
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {str(key): item for key, item in value.items()}
    return value


@dataclass(frozen=True)
class Classification(Report):
    """Sum/difference census of one set."""

    sum_count: int
    diff_count: int
    verdict: str
    gap: int
    special: bool

    @classmethod
    def from_counts(cls, sum_count: int, diff_count: int, size: int) -> "Classification":
        gap = sum_count - diff_count
        if gap > 0:
            verdict = VERDICT_MSTD
        elif gap == 0:
            verdict = VERDICT_BALANCED
        else:
            verdict = VERDICT_DIFF_DOMINATED
        return cls(
            sum_count=sum_count,
            diff_count=diff_count,
            verdict=verdict,
            gap=gap,
            special=gap >= size,
        )


@dataclass(frozen=True)
class AppendAnalysis(Report):
    """Effect of adjoining one element to a set."""

    new_sums: int
    new_diffs: int
    threshold_met: bool
    before: Classification
    after: Classification


def _shift_or(base: int) -> tuple[int, int]:
    """Sum and difference masks of the set whose membership mask is ``base``.

    Shifting ``base`` by each member and OR-ing convolves it with
    itself: bit i + j of the sum mask is set for every pair of member
    bits i, j, and bit top + i - j of the difference mask, where top is
    the highest member bit.  Counts are shift invariant, so ``base``
    need not start at bit 0.
    """
    top = base.bit_length() - 1
    smask = 0
    dmask = 0
    m = base
    while m:
        lsb = m & -m
        b = lsb.bit_length() - 1
        smask |= base << b
        # a - b biased by +top keeps the vector nonnegative; every
        # difference appears because both signs of each pair occur.
        dmask |= base << (top - b)
        m ^= lsb
    return smask, dmask


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits as 0/1 selectors for ``compress``


def _select_bits(mask: int, items: Sequence) -> tuple:
    """``items[i]`` for every set bit i of ``mask`` (each must index
    ``items``), ascending, in time linear in the mask's width.  A mask
    with under one set bit in 32 is read bit by bit from its binary text,
    any other by ``compress``: on masks of 101 to 2^21 bits, each way ran
    4x to 17x slower on the other's side (2-core Xeon, CPython 3.11)."""
    text = f"{mask:b}"
    if mask.bit_count() * 32 < mask.bit_length():
        top, out = len(text) - 1, []
        at = text.rfind("1")
        while at >= 0:
            out.append(items[top - at])
            at = text.rfind("1", 0, at)
        return tuple(out)
    return tuple(compress(items, text[::-1].encode().translate(_BIT_BYTES)))


def _bit_vector(elems: tuple[int, ...], kernel: str) -> int | None:
    """The kernel choice and the capacity rule, in one place.

    Returns the membership mask of ``elems`` offset by min (bit a - min
    per member a) when the bit kernel should run, or None for pairs.
    ``DEFAULT_DIAMETER_CAP`` bounds the widest vector, 2 * diameter bits:
    an explicit "bits" over it raises CapacityError, "auto" uses pairs.
    """
    if not elems:
        raise DomainError("set must be nonempty")
    lo = elems[0]
    diameter = elems[-1] - lo
    fits_cap = 2 * diameter <= DEFAULT_DIAMETER_CAP
    if kernel == "auto":
        if not (fits_cap and diameter <= _AUTO_BITS_PER_ELEMENT * len(elems)):
            return None
    elif kernel == "bits":
        if not fits_cap:
            raise CapacityError(f"bit kernel needs {2 * diameter} bits, cap is {DEFAULT_DIAMETER_CAP}")
    elif kernel == "pairs":
        return None
    else:
        raise DomainError(f"unknown kernel {kernel!r}")
    base = 0
    for a in elems:
        base |= 1 << (a - lo)
    return base


class SumDiffSets:
    """A, A+A and the nonnegative half of A-A (symmetric about 0): the
    pairs kernel.  ``adjoin(x)``, for a new x, adds x + a and |x - a| for
    every a in A and x itself, at O(|A|); it raises CapacityError, before
    either set grows, when they could pass ``_PAIR_SETS_BYTES``."""

    def __init__(self, elements: Iterable[int] = ()):
        self.elements, self.sums, self.diffs = [], set(), set()  # elements ascend
        for x in elements:
            self.adjoin(x)

    def adjoin(self, x: int) -> None:
        elems, sums, diffs = self.elements, self.sums, self.diffs
        ascending = not elems or x > elems[-1]
        entry = _SET_ENTRY_BYTES + (x if ascending else elems[-1]).bit_length() // 7
        if (len(sums) + len(diffs) + 2 * len(elems) + 2) * entry > _PAIR_SETS_BYTES:
            raise CapacityError(f"pair census of {len(elems) + 1} elements could pass {_PAIR_SETS_BYTES} bytes")
        if ascending:  # the kernel's case: no gap is negative
            elems.append(x)
            for a in elems:
                sums.add(x + a)
                diffs.add(x - a)
        elif x in elems:
            raise DomainError(f"element {x} already present")
        else:
            insort(elems, x)
            sums.update(map(x.__add__, elems))
            diffs.update(map(abs, map(x.__sub__, elems)))

    def counts(self) -> tuple[int, int]:  # (|A+A|, |A-A|)
        return len(self.sums), 2 * len(self.diffs) - 1


def _distinct_sets(elems: tuple[int, ...]) -> tuple[tuple, tuple]:
    """A+A and the nonnegative half of A-A as sorted tuples, by the
    kernel the auto rule picks."""
    base = _bit_vector(elems, "auto")
    if base is None:
        census = SumDiffSets(elems)
        return tuple(sorted(census.sums)), tuple(sorted(census.diffs))
    smask, dmask = _shift_or(base)
    # the difference mask is biased by the diameter, its top member bit
    diameter = elems[-1] - elems[0]
    return (
        _select_bits(smask, range(2 * elems[0], 2 * elems[-1] + 1)),
        _select_bits(dmask >> diameter, range(diameter + 1)),
    )


def sum_diff_counts(elements: tuple[int, ...], kernel: str = "auto") -> tuple[int, int]:
    """Return (|A+A|, |A-A|) for a sorted tuple of distinct integers.

    ``kernel`` is one of "auto", "bits", "pairs"; this is the one call
    that can force a kernel.  Auto falls back to the pair kernel when the
    bit vector would exceed ``DEFAULT_DIAMETER_CAP``, so it raises
    CapacityError only past the pair kernel's memory cap.
    """
    base = _bit_vector(elements, kernel)
    if base is None:
        return SumDiffSets(elements).counts()
    smask, dmask = _shift_or(base)
    return smask.bit_count(), dmask.bit_count()


def sumset(s: IntSet) -> IntSet:
    """A+A as an IntSet, by the kernel the auto rule picks."""
    return IntSet(_distinct_sets(s.elements)[0])


def diffset(s: IntSet) -> tuple[int, ...]:
    """A-A as a sorted tuple (differences can be negative, so not an
    IntSet), by the kernel the auto rule picks."""
    nonneg = _distinct_sets(s.elements)[1]
    return tuple(-d for d in reversed(nonneg[1:])) + nonneg


def classify(s: IntSet) -> Classification:
    """Census of A+A versus A-A.

    verdict is "mstd" when |A+A| > |A-A|, "balanced" on equality, else
    "diff_dominated".  ``special`` records gap >= |A|, the margin needed
    to keep the verdict stable under one far-out adjoined element.
    """
    sc, dc = sum_diff_counts(s.elements)
    return Classification.from_counts(sc, dc, len(s))


def append_analysis(s: IntSet, x: int) -> AppendAnalysis:
    """Classify S and S + {x} and count the sums/differences x creates.

    S goes to the kernel "auto" picks.  Pairs count S once and adjoin x;
    bits count S + {x} afresh, as a dense S's sums would not fit in sets.
    threshold_met records x >= 2 * sum(S): past that point x+x exceeds
    every old sum and every s+x exceeds every old element sum, so the
    adjoined element contributes exactly |S|+1 new sums and 2|S| new
    differences, shrinking the gap by |S|-1 regardless of which x it is.
    """
    x = int(x)
    if x < 0:
        raise DomainError(f"elements must be nonnegative, got {x}")
    base = _bit_vector(s.elements, "auto")
    if base is None:
        census = SumDiffSets(s.elements)
        before_counts = census.counts()
        census.adjoin(x)
        after_counts = census.counts()
    elif x in s.elements:
        raise DomainError(f"element {x} already present")
    else:
        smask, dmask = _shift_or(base)
        before_counts = smask.bit_count(), dmask.bit_count()
        after_counts = sum_diff_counts(tuple(sorted((*s.elements, x))))
    before = Classification.from_counts(*before_counts, len(s))
    after = Classification.from_counts(*after_counts, len(s) + 1)
    return AppendAnalysis(
        new_sums=after.sum_count - before.sum_count,
        new_diffs=after.diff_count - before.diff_count,
        threshold_met=x >= 2 * s.total,
        before=before,
        after=after,
    )


def base_expansion(s: IntSet, k: int) -> IntSet:
    """k-digit base-b expansion of S with b = 2*max(S)+1.

    Elements are all sums sum_i d_i * b**i with every digit d_i in S.
    The base is wide enough that digitwise sums (<= 2*max) never carry
    and digitwise differences (|d| <= max < b/2) never borrow, so
    |S_k + S_k| = |S+S|**k and |S_k - S_k| = |S-S|**k: cardinality
    ratios are preserved exactly while the set grows.  CapacityError,
    before it is built, if its diameter passes ``DEFAULT_DIAMETER_CAP``.
    """
    k = int(k)
    if k < 1:
        raise DomainError(f"expansion length must be >= 1, got {k}")
    if 0 not in s.elements:
        raise DomainError("base expansion requires 0 in the set")
    if s.max == 0:
        return s  # {0} expands to {0}; b = 1 would be degenerate
    b = 2 * s.max + 1
    # the diameter max * (b**k - 1) / (b - 1) is at least 2 ** low, so a
    # cap below that refuses before b**k is formed
    cap = DEFAULT_DIAMETER_CAP
    low = s.max.bit_length() - 1 + (k - 1) * (b.bit_length() - 1)
    if low > cap.bit_length() or s.max * (b**k - 1) // (b - 1) > cap:
        raise CapacityError(f"expansion of length {k} has a diameter past the cap {cap}")
    vals = [0]
    for _ in range(k):
        vals = [v * b + d for v in vals for d in s.elements]
    return IntSet(vals)
