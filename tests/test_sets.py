"""Core set arithmetic: sumsets, difference sets, classification."""

import ast
import copy
import inspect
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from mstd import (
    CONWAY,
    CapacityError,
    DomainError,
    IntSet,
    append_analysis,
    base_expansion,
    classify,
    diffset,
    sum_diff_counts,
    sumset,
)
from mstd import search, sets
from mstd.search import PairCensus, bit_slices
from mstd.sets import SumDiffSets

CONWAY_SET = IntSet(CONWAY)


def naive_counts(elements):
    sums = {a + b for a in elements for b in elements}
    diffs = {a - b for a in elements for b in elements}
    return len(sums), len(diffs)


def random_set(rng, max_diameter=512, max_size=24):
    size = rng.randint(1, max_size)
    top = rng.randint(size, max_diameter)
    base = rng.randint(0, 1000)
    picks = rng.sample(range(top + 1), min(size, top + 1))
    return IntSet(base + p for p in picks)


# -- IntSet construction -----------------------------------------------

def test_elements_sorted_and_deduplicated_rejected():
    s = IntSet([14, 0, 2, 3, 4, 7, 11, 12])
    assert s.elements == CONWAY
    with pytest.raises(DomainError):
        IntSet([1, 1, 2])


def test_empty_set_rejected():
    with pytest.raises(DomainError):
        IntSet([])


def test_negative_elements_rejected():
    with pytest.raises(DomainError):
        IntSet([-1, 0, 3])


def test_diameter_cap_enforced():
    # the check is off unless a cap is passed: past the bit-vector bound
    # every kernel counts by pairs
    with pytest.raises(CapacityError):
        IntSet([0, 1 << 25], diameter_cap=1 << 24)
    assert IntSet([0, 1 << 24], diameter_cap=1 << 24).diameter == 1 << 24
    big = IntSet([0, 1 << 25])
    assert big.diameter == 1 << 25
    assert classify(big).sum_count == 3


def test_intset_immutable():
    s = IntSet([0, 1])
    with pytest.raises(AttributeError):
        s.elements = (5,)


def test_intset_is_a_hashable_value():
    s, t = IntSet([3, 0, 2]), IntSet(x for x in (2, 3, 0))
    assert s == t and hash(s) == hash(t)
    assert s != (0, 2, 3) and s != IntSet([0, 2])
    assert {s: "x"}[t] == "x"
    assert 2 in s and 1 not in s
    with pytest.raises(AttributeError):
        del s.elements
    # nor any other name; a frozen slotted dataclass raises TypeError here
    # on CPython 3.11, so either error is a refusal
    with pytest.raises((AttributeError, TypeError)):
        s.other = 1
    assert s.elements == (0, 2, 3)
    for clone in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert clone == s and hash(clone) == hash(s) and clone.elements == (0, 2, 3)


def test_cached_extremes():
    s = IntSet([3, 9, 20])
    assert (s.min, s.max, s.diameter, s.total) == (3, 20, 17, 32)
    assert len(s) == 3


# -- sumset / diffset --------------------------------------------------

def test_sumset_small_example():
    assert sumset(IntSet([0, 1, 3])).elements == (0, 1, 2, 3, 4, 6)
    assert sumset(IntSet([0])).elements == (0,)


def test_diffset_small_example():
    assert diffset(IntSet([0, 1, 3])) == (-3, -2, -1, 0, 1, 2, 3)
    assert diffset(IntSet([0])) == (0,)


def test_conway_cardinalities():
    assert len(sumset(CONWAY_SET)) == 26
    assert len(diffset(CONWAY_SET)) == 25


def test_diffset_symmetric_contains_zero():
    rng = random.Random(402)
    for _ in range(50):
        d = diffset(random_set(rng))
        assert 0 in d
        assert tuple(sorted(-x for x in d)) == d
        assert len(d) % 2 == 1


def test_sumset_matches_naive_enumeration():
    rng = random.Random(403)
    for _ in range(50):
        s = random_set(rng)
        expected = sorted({a + b for a in s.elements for b in s.elements})
        assert list(sumset(s).elements) == expected


def test_diffset_matches_naive_enumeration():
    rng = random.Random(404)
    for _ in range(50):
        s = random_set(rng)
        expected = sorted({a - b for a in s.elements for b in s.elements})
        assert list(diffset(s)) == expected


def test_diffset_lower_bound_equality_iff_progression():
    # |S-S| >= 2|S|-1 always; equality exactly for arithmetic progressions
    rng = random.Random(405)
    for _ in range(100):
        s = random_set(rng, max_diameter=200, max_size=12)
        d = len(diffset(s))
        assert d >= 2 * len(s) - 1
    ap = IntSet(range(4, 40, 3))
    assert len(diffset(ap)) == 2 * len(ap) - 1


# -- kernels -----------------------------------------------------------

def test_bits_and_pairs_kernels_agree():
    rng = random.Random(406)
    for _ in range(200):
        s = random_set(rng)
        bits = sum_diff_counts(s.elements, kernel="bits")
        pairs = sum_diff_counts(s.elements, kernel="pairs")
        auto = sum_diff_counts(s.elements)
        assert bits == pairs == auto == naive_counts(s.elements)
    # every kernel against naive comprehension, on dense sets far from 0
    # and on sparse sets whose diameter is far past the auto crossover;
    # sumset and diffset reach both kernels through the auto rule
    for _ in range(40):
        shift = rng.randint(10**6, 10**12)
        far = IntSet(shift + e for e in random_set(rng).elements)
        shift = rng.randint(0, 10**9)
        sparse = IntSet(shift + e for e in rng.sample(range(1 << 20), rng.randint(1, 12)))
        for s in (far, sparse):
            e = s.elements
            for kernel in ("bits", "pairs", "auto"):
                assert sum_diff_counts(e, kernel=kernel) == naive_counts(e)
            assert list(sumset(s).elements) == sorted({a + b for a in e for b in e})
            assert list(diffset(s)) == sorted({a - b for a in e for b in e})
    # wide bit-kernel masks: sparse and dense sets of diameter past 2048
    # (the last one past the auto crossover, so it runs pairs)
    wide = [
        IntSet(rng.sample(range(30_000), 150)),
        IntSet(rng.sample(range(2500), 400)),
        IntSet([0, 2049, 2051]),
    ]
    for s in wide:
        e = s.elements
        assert list(sumset(s).elements) == sorted({a + b for a in e for b in e})
        assert list(diffset(s)) == sorted({a - b for a in e for b in e})


def census_grounds():
    """AP and non-AP grounds whose sizes straddle byte and word edges."""
    primes = [p for p in range(2, 600) if all(p % q for q in range(2, int(p**0.5) + 1))]
    return [
        (5,),
        (0, 7),
        CONWAY,
        CONWAY + (20,),
        tuple(range(0, 128, 2)),
        tuple(primes[:65]),
        tuple(range(101)),
        tuple(10**12 + 3 * k for k in range(9)),
        tuple(2**k for k in range(101)),  # all pair sums distinct, sums past 2**64
    ]


def member_counts(census, member):
    """(sum counts, difference counts, sizes) of the rows of a (count, n)
    0/1 membership matrix; ``bit_slices`` takes it element-major."""
    return census.word_counts(bit_slices(member.T), len(member))


def test_pair_census_matches_naive_counts():
    rng = np.random.default_rng(611)
    for ground in census_grounds():
        census = PairCensus(ground)
        for count in sorted({1, 63, 65, census.block}):
            member = rng.integers(0, 2, size=(count, len(ground)), dtype=np.uint8)
            sc, dc, size = member_counts(census, member)
            assert len(sc) == len(dc) == len(size) == count
            for row in range(count):
                chosen = [e for e, bit in zip(ground, member[row].tolist()) if bit]
                assert (sc[row], dc[row], size[row]) == (*naive_counts(chosen), len(chosen))


def test_pair_census_bounds_its_memory():
    # a block of 64 w subsets: w <= 32 while its tables stay within 2**17
    # words, or more while the whole block (128 w bytes per element, w
    # words per row) stays within 2**19 bytes; never none
    assert PairCensus(tuple(range(101))).block == 2176  # 302 rows: 2**19 // (128 * 101 + 8 * 302) = 34
    primes_73 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
    assert PairCensus(primes_73).block == 8640  # 91 sums, 56 differences: 2**19 // (128 * 21 + 8 * 147) = 135
    assert PairCensus(tuple(range(1000))).block == 2048  # 2999 rows: 32 words
    assert PairCensus(tuple(2**k for k in range(101))).block == 768  # 10202 rows: 2**17 // 10202 = 12
    sparse = sorted(random.Random(5).sample(range(10**9), 600))
    assert PairCensus(sparse).block == 64  # ~360000 rows
    # Monte Carlo blocks hold 320 w bytes per byte of a drawn row (the
    # rows, their transposed copy, the swap temporary, the words and the
    # AND buffer), so they are longer where the tables leave room
    assert PairCensus(tuple(range(101))).mc_block == 5056  # 2**19 // (320 * 13 + 8 * 302) = 79
    primes_200 = tuple(p for p in range(2, 200) if all(p % q for q in range(2, p)))
    assert PairCensus(primes_200).mc_block == 6656  # 46 elements, 386 rows: 2**19 // (320 * 6 + 8 * 386) = 104
    assert PairCensus(tuple(range(1000))).mc_block == 2048  # 32 words, as above
    assert PairCensus(tuple(2**k for k in range(101))).mc_block == 768
    # {0..2047} has 2**21 element pairs, each pair's rows consecutive, so
    # its row cache is slices and a full block's memory follows its 6143
    # distinct sums and differences (one 16-byte index per pair would be
    # 32 MiB); the block's own 1344 x 2048 membership matrix is built
    # inside the traced region
    ground = tuple(range(2048))
    tracemalloc.start()
    try:
        census = PairCensus(ground)
        member = np.random.default_rng(7).integers(0, 2, size=(census.block, len(ground)), dtype=np.uint8)
        sc, dc, size = member_counts(census, member)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.block == 1344
    assert peak < 12 * 2**20
    for row in range(3):
        chosen = tuple(np.flatnonzero(member[row]).tolist())
        assert (sc[row], dc[row], size[row]) == (*sum_diff_counts(chosen), len(chosen))


def test_bits_kernel_respects_capacity(monkeypatch):
    wide = (0, 5, 1 << 20)
    # the bound is read when called
    monkeypatch.setattr(sets, "DEFAULT_DIAMETER_CAP", 1 << 20)
    with pytest.raises(CapacityError):
        sum_diff_counts(wide, kernel="bits")
    # auto quietly switches to the pair kernel instead of failing
    assert sum_diff_counts(wide) == naive_counts(wide)
    s = IntSet(wide)
    assert len(sumset(s)) == naive_counts(wide)[0]
    assert len(diffset(s)) == naive_counts(wide)[1]
    monkeypatch.setattr(sets, "DEFAULT_DIAMETER_CAP", 1 << 21)
    assert sum_diff_counts(wide, kernel="bits") == naive_counts(wide)
    # the vector is offset by min, so only the diameter counts
    narrow_far = IntSet([10**8, 10**8 + 1])
    assert sum_diff_counts(narrow_far.elements, kernel="bits") == (3, 3)
    assert sumset(narrow_far).elements == (2 * 10**8, 2 * 10**8 + 1, 2 * 10**8 + 2)
    assert diffset(narrow_far) == (-1, 0, 1)


def test_unknown_kernel_rejected():
    with pytest.raises(DomainError):
        sum_diff_counts((0, 1), kernel="fft")


def _bit_loop(mask, items):
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(items[i])
        mask >>= 1
        i += 1
    return tuple(out)


def test_select_bits_matches_a_bit_loop():
    rng = random.Random(32)
    sparse = sum(1 << i for i in rng.sample(range(4000), 20))  # 20 * 32 < 4000: read bit by bit
    dense = rng.getrandbits(4000) | 1 << 3999
    lone_top, lone_bottom = 1 << 3999, 1
    for mask in (0, sparse, dense, lone_top, lone_bottom, (1 << 64) - 1, 1 << 63 | 1):
        for items in (range(4000), range(7, 4007), tuple(range(10_000, 14_000))):
            assert sets._select_bits(mask, items) == _bit_loop(mask, items)
    assert sparse.bit_count() * 32 < sparse.bit_length() and dense.bit_count() * 32 >= dense.bit_length()
    assert sets._select_bits(0, ()) == ()


def test_sets_does_not_import_numpy():
    tree = ast.parse(inspect.getsource(sets))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert imported and not [name for name in imported if name.split(".")[0] == "numpy"]


# -- classify ----------------------------------------------------------

def test_conway_is_the_canonical_mstd_set():
    c = classify(CONWAY_SET)
    assert c.sum_count == 26
    assert c.diff_count == 25
    assert c.verdict == "mstd"
    assert c.gap == 1
    assert not c.special


def test_progressions_are_balanced():
    for n in (1, 2, 5, 14):
        c = classify(IntSet(range(n + 1)))
        assert c.verdict == "balanced"
        assert c.gap == 0
    assert classify(IntSet([7])).verdict == "balanced"


def test_difference_dominated_example():
    c = classify(IntSet([0, 1, 3]))
    assert (c.sum_count, c.diff_count) == (6, 7)
    assert c.verdict == "diff_dominated"
    assert c.gap == -1


def test_classify_matches_naive_oracle_small_exhaustive():
    # every nonempty subset of {0..10}
    universe = list(range(11))
    for mask in range(1, 1 << 11):
        elems = tuple(universe[i] for i in range(11) if mask >> i & 1)
        sc, dc = naive_counts(elems)
        c = classify(IntSet(elems))
        assert (c.sum_count, c.diff_count) == (sc, dc)


def test_affine_invariance():
    rng = random.Random(407)
    for _ in range(60):
        s = random_set(rng, max_diameter=120, max_size=10)
        base = classify(s)
        c = rng.randint(1, 5)
        t = rng.randint(0, 50)
        image = classify(IntSet(c * e + t for e in s.elements))
        assert (image.sum_count, image.diff_count) == (base.sum_count, base.diff_count)
        assert image.verdict == base.verdict


def test_special_requires_gap_at_least_size():
    c = classify(base_expansion(CONWAY_SET, 2))
    assert c.gap == 26 * 26 - 25 * 25  # 51
    assert len(base_expansion(CONWAY_SET, 2)) == 64
    assert not c.special  # 51 < 64
    c3 = classify(base_expansion(CONWAY_SET, 3))
    assert c3.special  # 1951 >= 512


# -- SumDiffSets -------------------------------------------------------

def spread_set(rng):
    """2..31 distinct integers in [1, 10**e) for a random e up to 30,
    with room for a new element between the extremes."""
    top = 10 ** rng.randint(2, 30)
    elems = sorted(random_ints(rng, rng.randint(2, min(30, top // 4)), 1, top))
    return elems if elems[-1] - elems[0] >= len(elems) else elems + [elems[-1] + 2]


def random_ints(rng, count, low, high):
    """``count`` distinct integers in [low, high), for ranges of any size."""
    picked = set()
    while len(picked) < count:
        picked.add(rng.randrange(low, high))
    return picked


@pytest.mark.parametrize("where", ["above", "inside", "below"])
def test_adjoin_matches_pair_enumeration(where):
    rng = random.Random(f"adjoin-{where}")
    for _ in range(60):
        elems = spread_set(rng)
        census = SumDiffSets(elems)
        if where == "above":
            x = elems[-1] + rng.randint(1, 10 ** rng.randint(1, 30))
        elif where == "below":
            x = rng.randrange(elems[0])
        else:
            i = rng.choice([i for i, (a, b) in enumerate(zip(elems, elems[1:])) if b - a > 1])
            x = rng.randrange(elems[i] + 1, elems[i + 1])
        census.adjoin(x)
        grown = elems + [x]
        assert census.elements == sorted(grown)
        assert census.sums == {a + b for a in grown for b in grown}
        assert census.diffs == {abs(a - b) for a in grown for b in grown}
        assert census.counts() == naive_counts(grown)


def test_adjoin_rejects_a_member_and_leaves_the_census_as_it_was():
    census = SumDiffSets(CONWAY)
    with pytest.raises(DomainError, match="already present"):
        census.adjoin(7)
    assert census.elements == list(CONWAY)
    assert census.counts() == (26, 25)


def test_pair_census_capacity_is_checked_before_growth(monkeypatch):
    census = SumDiffSets(range(0, 100, 7))
    entries = len(census.sums) + len(census.diffs)
    # room for the entries held, not for the 2 * 16 an adjoin may add
    monkeypatch.setattr(sets, "_PAIR_SETS_BYTES", (entries + 31) * sets._SET_ENTRY_BYTES)
    with pytest.raises(CapacityError):
        census.adjoin(1000)
    assert len(census.elements) == 15 and len(census.sums) + len(census.diffs) == entries
    with pytest.raises(CapacityError):
        sum_diff_counts(tuple(range(0, 10**9, 10**7)), kernel="pairs")


def test_pair_census_bytes_bound_what_it_holds():
    # the capacity rule bounds each entry by a hash-table share plus the
    # largest sum's int object, also while a table of more than 50000
    # entries doubles; tracemalloc sees what the sets allocate
    rng = random.Random(64)
    for top in (10**6, 10**12, 10**40):
        elems = sorted(random_ints(rng, 400, 0, top))
        tracemalloc.start()
        try:
            census = SumDiffSets(elems)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = len(census.sums) + len(census.diffs)
        assert peak <= entries * (sets._SET_ENTRY_BYTES + elems[-1].bit_length() // 7)


# -- append_analysis ---------------------------------------------------

def test_append_conway_example():
    report = append_analysis(CONWAY_SET, 200)
    assert report.threshold_met  # 200 >= 2*53
    assert report.new_sums == 9
    assert report.new_diffs == 16
    assert report.after.verdict != "mstd"


def test_append_singleton_example():
    report = append_analysis(IntSet([0]), 5)
    assert (report.new_sums, report.new_diffs) == (2, 2)
    assert report.threshold_met


def test_append_member_rejected():
    with pytest.raises(DomainError):
        append_analysis(CONWAY_SET, 7)
    with pytest.raises(DomainError, match="nonnegative"):
        append_analysis(IntSet([0, 1]), -1)


def test_append_threshold_forces_exact_counts():
    rng = random.Random(408)
    for _ in range(80):
        s = random_set(rng, max_diameter=300, max_size=12)
        x = 2 * s.total + rng.randint(0, 100)
        report = append_analysis(s, x)
        assert report.threshold_met
        assert report.new_sums == len(s) + 1
        assert report.new_diffs == 2 * len(s)
        assert report.after.gap == report.before.gap - (len(s) - 1)


def test_append_counts_match_recomputation():
    rng = random.Random(409)
    for _ in range(80):
        s = random_set(rng, max_diameter=200, max_size=10)
        x = rng.randint(0, 600)
        if x in s.elements:
            continue
        report = append_analysis(s, x)
        before = naive_counts(s.elements)
        after = naive_counts(s.elements + (x,))
        assert report.new_sums == after[0] - before[0]
        assert report.new_diffs == after[1] - before[1]
        assert report.new_sums <= len(s) + 1
        assert report.new_diffs <= 2 * len(s)


def test_append_to_special_set_stays_mstd(monkeypatch):
    s3 = base_expansion(CONWAY_SET, 3)
    # S3 in a bit vector, then (cap 0) by pairs, to the same report
    reports = []
    for cap in (sets.DEFAULT_DIAMETER_CAP, 0):
        monkeypatch.setattr(sets, "DEFAULT_DIAMETER_CAP", cap)
        for x in (2 * s3.total, 2 * s3.total + 12345):
            report = append_analysis(s3, x)
            assert report.threshold_met
            assert report.after.verdict == "mstd"
            reports.append(report)
    assert reports[:2] == reports[2:]


def test_append_keeps_a_dense_set_in_bit_vectors():
    # auto sends these 1500 integers below 750000 to bits; their 1.3
    # million sums and differences would take over 100 MB as Python sets
    rng = random.Random(1500)
    s = IntSet(rng.sample(range(750_000), 1500))
    inside = next(a + 1 for a, b in zip(s.elements, s.elements[1:]) if b - a > 1)
    for x in (inside, 750_017):
        tracemalloc.start()
        try:
            report = append_analysis(s, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert (report.before.sum_count, report.before.diff_count) == sum_diff_counts(s.elements)
        grown = tuple(sorted(s.elements + (x,)))
        assert (report.after.sum_count, report.after.diff_count) == sum_diff_counts(grown, kernel="bits")
    with pytest.raises(DomainError, match="already present"):
        append_analysis(s, s.elements[700])


# -- base_expansion ----------------------------------------------------

def test_base_expansion_identity():
    assert base_expansion(CONWAY_SET, 1).elements == CONWAY


def test_base_expansion_two_digit_binary():
    s = base_expansion(IntSet([0, 1]), 2)  # base 3
    assert s.elements == (0, 1, 3, 4)
    assert len(sumset(s)) == 9
    assert len(diffset(s)) == 9


def test_base_expansion_requires_zero_and_positive_k():
    with pytest.raises(DomainError):
        base_expansion(IntSet([1, 2]), 2)
    with pytest.raises(DomainError):
        base_expansion(CONWAY_SET, 0)


def test_base_expansion_conway_cubed():
    s3 = base_expansion(CONWAY_SET, 3)
    assert len(s3) == 512
    c = classify(s3)
    assert (c.sum_count, c.diff_count) == (17576, 15625)
    assert c.special


def test_base_expansion_multiplicative_cardinalities():
    rng = random.Random(410)
    for _ in range(20):
        small = random_set(rng, max_diameter=11, max_size=5)
        base = IntSet([0] + [e - small.min for e in small.elements if e != small.min])
        sc, dc = naive_counts(base.elements)
        for k in (1, 2, 3):
            sk = base_expansion(base, k)
            assert len(sk) == len(base) ** k
            got = sum_diff_counts(sk.elements)
            assert got == (sc**k, dc**k)


def test_base_expansion_capacity(monkeypatch):
    with pytest.raises(CapacityError, match="cap 16777216"):
        base_expansion(CONWAY_SET, 6)  # diameter 14*(29^6-1)/28 > 2^24
    diameter = 14 * (29**6 - 1) // 28
    monkeypatch.setattr(sets, "DEFAULT_DIAMETER_CAP", diameter)
    assert len(base_expansion(CONWAY_SET, 6)) == 8**6
    monkeypatch.setattr(sets, "DEFAULT_DIAMETER_CAP", diameter - 1)
    with pytest.raises(CapacityError):
        base_expansion(CONWAY_SET, 6)


def test_pair_census_refuses_a_ground_past_its_block_bound(monkeypatch):
    # {0..9}: one 64-subset block holds 64 * 10 membership bytes and 8
    # bytes for each of its 19 sums and 10 nonnegative differences
    need = 64 * 10 + 8 * (19 + 10)
    monkeypatch.setattr(search, "_CENSUS_BLOCK_BYTES", need)
    assert PairCensus(range(10)).n == 10
    monkeypatch.setattr(search, "_CENSUS_BLOCK_BYTES", need - 1)
    with pytest.raises(CapacityError, match="census block"):
        PairCensus(range(10))


def test_pair_census_refuses_a_ground_past_its_pair_bound(monkeypatch):
    # {0..9} has 10 * 11 / 2 = 55 element pairs (j >= i), one AND each per block
    monkeypatch.setattr(search, "_CENSUS_BLOCK_PAIRS", 55)
    assert PairCensus(range(10)).n == 10
    monkeypatch.setattr(search, "_CENSUS_BLOCK_PAIRS", 54)
    with pytest.raises(CapacityError, match="55 element pairs"):
        PairCensus(range(10))


def test_pair_census_row_cache_matches_the_per_block_rows(monkeypatch):
    # an AP ground (slices), a prime ground (int32 rows) and a ground past
    # int64 (object arrays) count the same with the row cache as with
    # rows found again for each block, past a cache bound of 0
    rng = np.random.default_rng(13)
    primes = [p for p in range(2, 400) if all(p % q for q in range(2, int(p**0.5) + 1))]
    for ground in (tuple(range(0, 300, 3)), tuple(primes), tuple(2**k for k in range(70))):
        cached = PairCensus(ground)
        assert cached._rows is not None
        member = rng.integers(0, 2, size=(cached.block + 65, len(ground)), dtype=np.uint8)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_CENSUS_ROW_PAIRS", 0)
            per_block = PairCensus(ground)
        assert per_block._rows is None
        for a in range(0, len(member), cached.block):
            block = member[a : a + cached.block]
            pairs = zip(member_counts(cached, block), member_counts(per_block, block))
            assert all(np.array_equal(c, p) for c, p in pairs)
        for row in range(3):
            chosen = tuple(e for e, bit in zip(ground, member[row].tolist()) if bit)
            expected = tuple(np.array([v]) for v in sum_diff_counts(chosen))
            assert member_counts(cached, member[row : row + 1])[:2] == expected


def test_pair_census_row_cache_at_its_bound():
    # {0..n-2, n}: no element pair's sum or difference rows are all
    # consecutive, so the cache holds 8 bytes per pair (j >= i); at the
    # largest n within _CENSUS_ROW_PAIRS it is kept and takes at most
    # 8 bytes per pair and 4 MiB more, one element past it is not kept
    bound = search._CENSUS_ROW_PAIRS
    edge = max(n for n in range(2800, 3000) if n * (n + 1) // 2 <= bound)
    for n, kept in ((edge, True), (edge + 1, False)):
        ground = tuple(range(n - 1)) + (n,)
        tracemalloc.start()
        try:
            census = PairCensus(ground)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (census._rows is not None) is kept
        if kept:
            assert all(not isinstance(r, slice) for rows in census._rows[:-2] for r in rows)
            assert peak < 8 * bound + (4 << 20), peak
        else:
            assert peak < 4 << 20, peak
    member = np.zeros((1, len(ground)), dtype=np.uint8)
    member[0, [0, 1, 3, -1]] = 1
    assert [int(v[0]) for v in member_counts(census, member)] == [*sum_diff_counts((0, 1, 3, edge + 1)), 4]
