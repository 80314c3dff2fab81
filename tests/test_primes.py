"""Sieve, admissibility, singular series, tuple matching, prime APs."""

import functools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mstd
from mstd import (
    CapacityError,
    DomainError,
    PrimeSieve,
    classify,
    dilated_conway,
    find_prime_ap,
    is_admissible,
    match_tuple,
    mstd_in_ap,
    singular_series,
)
from mstd.primes import PrimeTuple, prime_count

TUPLE_T = PrimeTuple((0, 60, 90, 120, 210, 330, 360, 420))
TWIN = PrimeTuple((0, 2))

# partial Euler product over p <= 10^6, frozen; agrees with the
# published twin-prime constant 2*C_2 to 8 places
TWIN_SERIES_REFERENCE = 1.3203236316


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


# -- sieve ---------------------------------------------------------------

def test_small_primes():
    assert list(PrimeSieve(20).primes()) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_every_small_limit_matches_trial_division():
    # limits up to 300 reach the base-prime recursion's small cases
    for n in range(301):
        expected = [k for k in range(n + 1) if trial_division_is_prime(k)]
        assert PrimeSieve(n).primes().tolist() == expected, n


def test_limit_below_two_is_empty():
    assert list(PrimeSieve(1).primes()) == []
    assert PrimeSieve(1).count() == 0


def test_prime_count_to_a_million():
    assert PrimeSieve(1_000_000).count() == 78498


def test_membership_matches_trial_division():
    sieve = PrimeSieve(200_000)
    rng = random.Random(601)
    for _ in range(3000):
        n = rng.randint(0, 200_000)
        assert (n in sieve) == trial_division_is_prime(n)


def test_sieve_capacity_cap():
    with pytest.raises(CapacityError):
        PrimeSieve((1 << 27) + 1)


def test_every_table_to_2000_matches_a_plain_sieve():
    for n in range(2001):
        # the plain sieve's table is never shorter than 2 flags
        assert PrimeSieve(n).flags.tobytes() == bytes(bytearray_sieve(n))[: n + 1], n


@pytest.mark.parametrize("segment", [7, 64])
def test_sieve_segment_edges(monkeypatch, segment):
    # segment k of the odd view starts at the integer 3 + 2*k*segment
    monkeypatch.setattr(mstd.primes, "_SEGMENT", segment)
    edges = [3 + 2 * k * segment for k in range(1, 4)]
    for n in sorted({e + d for e in edges for d in (-2, -1, 0, 1, 2)} | {5000}):
        assert PrimeSieve(n).flags.tobytes() == bytes(bytearray_sieve(n)), n


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_cross_off_clears_odd_multiples_from_p_squared(p):
    # flags[i] stands for lo + 2i: windows start below, at and above p^2;
    # a window of 20p flags holds enough multiples for a slice of its own
    q = p * p
    for lo in sorted({3, p, q - 2 * p, q - 2, q, q + 2, 3 * q + 2 * p, 10**12 + 1}):
        for size in (1, p, 3 * p + 5, 20 * p):
            flags = np.ones(size, dtype=bool)
            mstd.primes._cross_off(flags, lo, 2, np.array([p]))
            expected = [not (v % p == 0 and v >= q) for v in range(lo, lo + 2 * size, 2)]
            assert flags.tolist() == expected, (lo, size)


@pytest.mark.parametrize("p", [7, 11, 13, 31])
def test_cross_off_on_the_wheel_clears_multiples_from_p_squared(p):
    # flags[i] stands for lo + 30i, lo in every class prime to 30: windows
    # start below, at (the class of p^2) and above p^2
    q = p * p
    for c in (1, 7, 11, 13, 17, 19, 23, 29):
        for lo in sorted({c, c + 30, q - (q - c) % 30 - 60, q - (q - c) % 30, q + (c - q) % 30, 10**12 + c}):
            for size in (1, p, 3 * p + 5, 20 * p):
                flags = np.ones(size, dtype=bool)
                mstd.primes._cross_off(flags, lo, 30, np.array([p]))
                expected = [not (v % p == 0 and v >= q) for v in range(lo, lo + 30 * size, 30)]
                assert flags.tolist() == expected, (lo, size)


def test_cross_off_on_the_wheel_with_many_primes():
    # the starts of all base primes are found at once, and the primes below
    # 500/16 get slices of their own: every flag is cleared iff some base
    # prime divides its integer past its square
    base = np.array([p for p in range(7, 200) if trial_division_is_prime(p)])
    for lo in (1, 7, 49, 121, 10**6 + 13, 2**37 + 19):
        flags = np.ones(500, dtype=bool)
        mstd.primes._cross_off(flags, lo, 30, base)
        expected = [not any(v % p == 0 and v >= p * p for p in base.tolist()) for v in range(lo, lo + 30 * 500, 30)]
        assert flags.tolist() == expected, lo


def test_wheel_flags_per_thirty_integers_are_at_most_twelve():
    # every pattern of even residues mod 30 that holds 0: the classes
    # picked are those in which r + b is prime to 30 for each b, and their
    # flag arrays number at most 12 (0 and 6 reach it); odd shifts took 15
    most = 0
    for mask in range(1 << 14):
        offsets = (0,) + tuple(2 * (i + 1) for i in range(14) if mask >> i & 1)
        classes = mstd.primes._wheel_classes(offsets)
        assert [r for r, _ in classes] == [
            r for r in range(30) if all((r + b) % 2 and (r + b) % 3 and (r + b) % 5 for b in offsets)
        ], offsets
        for r, residues in classes:
            arrays = sorted((30 * q + c - r, c) for c, carries in residues.items() for q in carries)
            assert [b for b, _ in arrays] == list(offsets), (offsets, r)
        flags = sum(len(residues) for _, residues in classes)
        assert flags <= 12, offsets
        most = max(most, flags)
    assert most == 12
    assert sum(map(len, dict(mstd.primes._wheel_classes((0, 6))).values())) == 12
    assert sum(map(len, dict(mstd.primes._wheel_classes(TUPLE_T.offsets)).values())) == 8


# -- admissibility -------------------------------------------------------

def test_tuple_t_is_admissible():
    result = is_admissible(TUPLE_T)
    assert result.admissible
    assert result.witness_modulus is None
    assert result.checked_moduli == (2, 3, 5, 7)


def test_parity_blocked_tuple():
    result = is_admissible(PrimeTuple((0, 1)))
    assert not result.admissible
    assert result.witness_modulus == 2


def test_mod_three_blocked_tuple():
    result = is_admissible(PrimeTuple((0, 2, 4)))
    assert not result.admissible
    assert result.witness_modulus == 3


def test_witness_really_covers_all_residues():
    rng = random.Random(602)
    for _ in range(60):
        m = rng.randint(2, 6)
        offsets = sorted(rng.sample(range(60), m))
        result = is_admissible(PrimeTuple(tuple(offsets)))
        if not result.admissible:
            p = result.witness_modulus
            assert {b % p for b in offsets} == set(range(p))


def test_inadmissible_tuples_have_finitely_many_matches():
    # beyond the witness modulus some n+b_i is a proper multiple of it
    assert match_tuple(PrimeTuple((0, 1)), 100_000).count == 1
    assert match_tuple(PrimeTuple((0, 2, 4)), 100_000).count == 1  # n=3 only


def test_tuple_normalization_and_validation():
    assert PrimeTuple((5, 7, 9)).offsets == (0, 2, 4)
    assert PrimeTuple((13, 11)).offsets == (0, 2)
    with pytest.raises(DomainError):
        PrimeTuple((3, 3))
    with pytest.raises(DomainError):
        PrimeTuple(())


# -- singular series -----------------------------------------------------

def test_twin_constant():
    series = singular_series(TWIN, rel_tol=1e-3)
    assert series.value == pytest.approx(TWIN_SERIES_REFERENCE, rel=1e-3)
    assert series.tail_bound <= 1e-3
    assert series.per_prime_v == {2: 1}


def test_single_offset_series_is_exactly_one():
    assert singular_series(PrimeTuple((0,))).value == 1.0


def test_vanishing_series():
    series = singular_series(PrimeTuple((0, 1)))
    assert series.value == 0.0


def test_series_monotone_convergence():
    loose = singular_series(TWIN, rel_tol=1e-2)
    tight = singular_series(TWIN, rel_tol=1e-4)
    assert tight.truncation_prime > loose.truncation_prime
    assert abs(tight.value - loose.value) <= loose.tail_bound * loose.value


def test_series_matches_plain_product():
    rng = random.Random(604)
    tuples = [TUPLE_T, TWIN] + [
        PrimeTuple(tuple(rng.sample(range(0, 300, 2), rng.randint(2, 6)))) for _ in range(20)
    ]
    for t in tuples:
        series = singular_series(t, rel_tol=1e-3)
        if series.value == 0.0:
            continue
        assert series.value == pytest.approx(plain_series(t, series.truncation_prime), rel=1e-9), t


def plain_series(t, cutoff):
    """The product over the primes p <= cutoff, found by trial division, as
    exp of the math.fsum of each factor's log."""
    m = t.m
    logs = []
    for p in range(2, cutoff + 1):
        if trial_division_is_prime(p):
            v = len({b % p for b in t.offsets})
            logs.append((m - 1) * math.log(p / (p - 1)) + math.log((p - v) / (p - 1)))
    return math.exp(math.fsum(logs))


def whole_array_series(t, cutoff):
    """The product over one array of every prime <= cutoff, summed by one
    np.sum: the series' summation order when its cutoff fits one window."""
    m = t.m
    primes = np.flatnonzero(np.frombuffer(bytes(bytearray_sieve(cutoff)), dtype=np.uint8))
    near = primes[primes <= t.spread]
    residues = np.sort(np.array(t.offsets)[None, :] % near[:, None], axis=1)
    v = np.full(primes.size, m)
    v[: near.size] = 1 + np.count_nonzero(np.diff(residues, axis=1), axis=1)
    p = primes.astype(np.float64)
    logs = -(m - 1) * np.log1p(-1 / p) + np.log1p((1 - v) / (p - 1))
    return math.exp(logs.sum())


def window_edge_cases(window):
    """(tuple, rel_tol, cutoff) with the cutoff at and next to the first
    integers of three series windows, each past 100: an odd cutoff c is
    the spread + 1 of (0, 6, c - 1), an even one m^2/rel_tol + 2 of
    (0, 2, 6)."""
    k0 = max(1, -(-100 // (2 * window)))
    cases = []
    for k in range(k0, k0 + 3):
        first = 3 + 2 * k * window  # window k's first odd integer
        for c in range(first - 3, first + 3):
            if c % 2:
                cases.append((PrimeTuple((0, 6, c - 1)), 0.1, c))
            else:
                cases.append((PrimeTuple((0, 2, 6)), 9 / (c - 1.5), c))
    return cases


@pytest.mark.parametrize("window", [7, 64, 1000])
def test_series_across_windows_matches_trial_division(monkeypatch, window):
    # windows of 7 odd integers hold 14 integers; residue blocks of 16
    # cells split the primes below every spread here into many blocks
    monkeypatch.setattr(mstd.primes, "_SERIES_SEGMENT", window)
    monkeypatch.setattr(mstd.primes, "_RESIDUE_CELLS", 16)
    cases = [(TWIN, 0.1, None), (TWIN, 0.01, None), (TUPLE_T, 0.1, None), (TUPLE_T, 0.01, None)]
    cases += [(PrimeTuple((0, 2, 6, 8, 12, 18, 20, 26)), 0.1, None), (PrimeTuple((0, 6, 30, 36, 2310, 4206)), 0.1, None)]
    cases += window_edge_cases(window)
    one_window = 3 + 2 * (window - 1)  # the last integer of the first window
    for t, tol, edge in cases:
        series = singular_series(t, rel_tol=tol)
        cutoff = series.truncation_prime
        assert edge in (None, cutoff) and series.value > 0, (t, tol)
        assert series.value == pytest.approx(plain_series(t, cutoff), rel=1e-12), (t, tol)
        if cutoff <= one_window:
            assert series.value == whole_array_series(t, cutoff), (t, tol)


@pytest.mark.parametrize("t", [TWIN, TUPLE_T, PrimeTuple((0, 2, 6, 8, 12, 18, 20, 26, 30, 32))])
def test_series_in_one_window_is_the_whole_array_sum(t):
    # the default --tol 1e-3 cuts these off within the first window
    series = singular_series(t)
    assert series.truncation_prime <= 3 + 2 * (mstd.primes._SERIES_SEGMENT - 1)
    assert series.value == whole_array_series(t, series.truncation_prime)


def test_series_memory_is_one_window():
    # the whole table of 6.4M flags, its primes and their float arrays
    # took about 23.5 MiB
    singular_series(TUPLE_T, 1e-3)  # the first call builds numpy's lazy state
    tracemalloc.start()
    try:
        series = singular_series(TUPLE_T, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.truncation_prime == 6_400_001  # 64/1e-5 rounds down to 6399999
    assert peak < 4 << 20, peak


def test_series_tolerance_validated():
    with pytest.raises(DomainError):
        singular_series(TWIN, rel_tol=0.5)
    with pytest.raises(DomainError):
        singular_series(TWIN, rel_tol=0.0)


def test_series_sieve_is_capped():
    # twins truncate at 4/rel_tol + 2: here 2^27 + 2, just past the sieve cap
    with pytest.raises(CapacityError):
        singular_series(TWIN, rel_tol=2.0**-25)
    # a wide spread forces the truncation point past the cap at any tolerance
    with pytest.raises(CapacityError):
        singular_series(PrimeTuple((0, 1_000_000_000_000)))


# the first 450 primes past 450, as offsets: the series' log passes
# log(max float) = 709.78 at rel_tol 0.1, while the first 400 stay below it
WIDE_PRIMES = [p for p in range(451, 4000) if trial_division_is_prime(p)][:450]


def sieve_log_series(t, cutoff):
    """math.fsum of each factor's log over the primes p <= cutoff of a
    plain sieve; v(p) = m past the spread."""
    m, flags = t.m, bytearray_sieve(cutoff)
    return math.fsum(
        (m - 1) * math.log(p / (p - 1))
        + math.log((p - (len({b % p for b in t.offsets}) if p <= t.spread else m)) / (p - 1))
        for p in range(2, cutoff + 1)
        if flags[p]
    )


def test_series_past_the_float_range_raises_before_the_scan(monkeypatch):
    wide = PrimeTuple(tuple(WIDE_PRIMES))
    log_value = sieve_log_series(wide, int(450 * 450 / 0.1) + 2)  # the cutoff m^2/rel_tol + 2
    assert log_value > math.log(sys.float_info.max)
    with pytest.raises(CapacityError, match=rf"exp\({log_value:.6g}\)"):
        singular_series(wide, rel_tol=0.1)

    def no_scan(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(mstd.primes, "_scan_windows", no_scan)
    with pytest.raises(CapacityError, match="float range"):
        match_tuple(wide, 1000, rel_tol=0.1)
    # 400 of the offsets keep their value
    narrow = PrimeTuple(tuple(WIDE_PRIMES[:400]))
    series = singular_series(narrow, rel_tol=0.1)
    assert series.value == pytest.approx(math.exp(sieve_log_series(narrow, series.truncation_prime)), rel=1e-9)


# -- match_tuple ---------------------------------------------------------

def test_twin_matches_to_100():
    report = match_tuple(TWIN, 100)
    assert report.count == 8
    assert report.matches == (3, 5, 11, 17, 29, 41, 59, 71)


def test_parity_tuple_matches_once():
    report = match_tuple(PrimeTuple((0, 1)), 100)
    assert report.count == 1
    assert report.matches == (2,)


def test_conway_tuple_match_includes_19():
    report = match_tuple(TUPLE_T, 10_000)
    assert 19 in report.matches
    assert report.count >= 1


def test_matches_verify_primality():
    sieve = PrimeSieve(11_000)
    report = match_tuple(TUPLE_T, 10_000)
    for n in report.matches:
        for b in TUPLE_T.offsets:
            assert (n + b) in sieve


def test_match_below_two_is_empty():
    report = match_tuple(TWIN, 1)
    assert report.count == 0
    assert report.matches == ()


def test_match_cap_truncates_listing_not_count():
    report = match_tuple(TWIN, 10_000, match_cap=5)
    assert len(report.matches) == 5
    assert report.count == 205  # pi_2(10^4), frozen from the full scan


def test_negative_match_cap_rejected():
    with pytest.raises(DomainError):
        match_tuple(TWIN, 100, match_cap=-1)
    assert match_tuple(TWIN, 100, match_cap=0).matches == ()


def test_cousin_tuple_ratio_near_one():
    report = match_tuple(PrimeTuple((0, 4)), 1_000_000)
    assert 0.9 <= report.ratio <= 1.1


def hardy_littlewood_sum(offsets, x):
    """Plain-Python sum over 2 <= n <= x of prod_i 1/log(n + b_i)."""
    return math.fsum(
        math.prod(1 / math.log(n + b) for b in offsets) for n in range(2, x + 1)
    )


@pytest.mark.parametrize("t", [TUPLE_T, TWIN, PrimeTuple((0,))], ids=["T", "twin", "single"])
@pytest.mark.parametrize("x", [10**3, 10**4, 10**5])
def test_prediction_matches_plain_sum(t, x):
    report = match_tuple(t, x)
    expected = report.series.value * hardy_littlewood_sum(t.offsets, x)
    assert report.predicted == pytest.approx(expected, rel=1e-6)
    assert report.ratio == pytest.approx(report.count / expected, rel=1e-6)


def test_prediction_nondecreasing_in_x():
    predicted = [match_tuple(TUPLE_T, 10**k).predicted for k in range(2, 7)]
    assert predicted == sorted(predicted)


@pytest.mark.parametrize("k", [300, 380, 400])
def test_prediction_of_many_offsets_stays_finite(k):
    # from the first 371 of these offsets on, the summand at n = 2, its
    # largest value, is below the smallest normal float; the oracle adds
    # the exact discrete sum (all head terms at x = 1000) in the log
    # domain, scaled by its largest term, so no term underflows
    t = PrimeTuple(tuple(WIDE_PRIMES[:k]))
    report = match_tuple(t, 1000, rel_tol=0.1)
    logs = [-math.fsum(math.log(math.log(n + b)) for b in t.offsets) for n in range(2, 1001)]
    top = max(logs)
    log_sum = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    expected = math.exp(math.log(report.series.value) + log_sum)
    assert report.predicted == pytest.approx(expected, rel=1e-12, abs=0)
    assert report.ratio is not None


def test_match_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (TUPLE_T, TWIN, PrimeTuple((0,)), PrimeTuple((0, 1))):
            match_tuple(t, 100_000)


def test_tuple_t_ratio_at_1e8():
    # 57 matches against ~62 predicted; the window is +-2 Poisson s.d.
    report = match_tuple(TUPLE_T, 10**8)
    assert report.count == 57
    assert 0.75 <= report.ratio <= 1.25, report.ratio


# -- the segmented scan ---------------------------------------------------

ORACLE_X = 10**5


def bytearray_sieve(limit):
    """Plain sieve of Eratosthenes over one bytearray: flags[n] == 1 iff n prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


@functools.lru_cache(maxsize=None)
def all_oracle_matches(offsets):
    flags = bytearray_sieve(ORACLE_X + offsets[-1])
    return [n for n in range(1, ORACLE_X + 1) if all(flags[n + b] for b in offsets)]


def oracle_matches(offsets, x):
    """Every shift 1 <= n <= x (at most ORACLE_X) with all n + b prime."""
    return [n for n in all_oracle_matches(offsets) if n <= x]


SCAN_TUPLES = {
    "twin": TWIN,
    "cousin": PrimeTuple((0, 4)),
    "T": TUPLE_T,
    "parity": PrimeTuple((0, 1)),  # its one match, n = 2, sits in the first window
    "single": PrimeTuple((0,)),
    "inadmissible": PrimeTuple((0, 2, 4)),
    "wide": PrimeTuple((0, 5000)),  # the spread is wider than every window
    # an odd offset leaves n = 2 as the only shift that can match
    "odd-3": PrimeTuple((0, 3)),
    "odd-1-3": PrimeTuple((0, 1, 3)),
    "odd-1-5": PrimeTuple((0, 1, 5)),
    "odd-7": PrimeTuple((0, 7)),  # no match: 9 is not prime
    # six wheel classes of two residues each, the most flags any tuple needs
    "zero-six": PrimeTuple((0, 6)),
    "small-shift": PrimeTuple((0, 2, 6)),  # matches at n = 5, below the wheel
    "covered-mod-5": PrimeTuple((0, 6, 12, 18, 24)),  # no wheel class: n = 5 only
    "six-offsets": PrimeTuple((0, 4, 6, 10, 12, 16)),
}


def class_window_edges(offsets, window):
    """The shifts at which the windows of each wheel class start: class r
    (every r + b prime to 30) takes its shifts 30k + r from k = 1 if r < 7,
    else from k = 0, in windows of window // d class steps, d the number
    of distinct residues r + b mod 30."""
    edges = set()
    for r in range(30):
        if all((r + b) % 2 and (r + b) % 3 and (r + b) % 5 for b in offsets):
            steps = max(window // len({(r + b) % 30 for b in offsets}), 1)
            edges |= {30 * (int(r < 7) + j * steps) + r for j in (0, 1, 2)}
    return edges


@pytest.mark.parametrize("window", [7, 64, 1000])
@pytest.mark.parametrize("name", list(SCAN_TUPLES))
def test_window_edges_cut_no_match(monkeypatch, window, name):
    t = SCAN_TUPLES[name]
    monkeypatch.setattr(mstd.primes, "_SEGMENT", window)
    for x in (2, window - 1, window, window + 1, 3 * window + 2, ORACLE_X):
        expected = oracle_matches(t.offsets, x)
        report = match_tuple(t, x, match_cap=10**6)
        assert (report.count, list(report.matches)) == (len(expected), expected), (name, x)
        for n in report.matches:
            assert all(trial_division_is_prime(n + b) for b in t.offsets), (name, n)
    # each wheel class's windows start at shifts of their own, and the small
    # shifts end at 5; these go to the scan alone, since match_tuple's series
    # would sieve in segments of `window` flags at every x
    edges = {e + d for e in class_window_edges(t.offsets, window) for d in (-1, 0, 1)}
    for x in sorted({3, 4, 5, 6, 7} | edges):
        expected = oracle_matches(t.offsets, x)
        assert mstd.primes._scan_windows(t.offsets, x, 10**6) == (len(expected), tuple(expected)), (name, x)


@pytest.mark.parametrize("window", [7, 64, 1000])
def test_match_cap_across_windows(monkeypatch, window):
    monkeypatch.setattr(mstd.primes, "_SEGMENT", window)
    x = 20_000
    expected = oracle_matches(TWIN.offsets, x)
    # the cap-th match lies mid-window: the first match past 2.5 windows in
    middle = next(i for i, n in enumerate(expected) if n > 5 * window // 2)
    for cap in (0, 1, middle, middle + 1, len(expected), len(expected) + 1):
        report = match_tuple(TWIN, x, match_cap=cap)
        assert report.count == len(expected), cap
        assert list(report.matches) == expected[:cap], cap


@pytest.mark.parametrize("window", [7, 64, 1000])
@pytest.mark.parametrize("name", list(SCAN_TUPLES))
def test_match_cap_on_every_scan_tuple(monkeypatch, window, name):
    t = SCAN_TUPLES[name]
    monkeypatch.setattr(mstd.primes, "_SEGMENT", window)
    x = 3000
    expected = oracle_matches(t.offsets, x)
    for cap in sorted({0, 1, 2, len(expected) // 2, len(expected), len(expected) + 1}):
        report = match_tuple(t, x, match_cap=cap)
        assert (report.count, list(report.matches)) == (len(expected), expected[:cap]), cap
    # each wheel class lists its first cap matches; a cut falls inside a
    # class's list whenever another class has a match below it
    for cap in range(0, len(expected), max(1, len(expected) // 40)):
        assert mstd.primes._scan_windows(t.offsets, x, cap) == (len(expected), tuple(expected[:cap])), cap


def test_scan_memory_is_one_window():
    # a whole table of 10^7 flags would alone be 9.5 MiB
    match_tuple(TUPLE_T, 10**5)  # the first call builds numpy's lazy state
    tracemalloc.start()
    try:
        match_tuple(TUPLE_T, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("x", [-5, 0, 1, 2, 3, 10, 97, 10**6, 1234567])
def test_prime_count_matches_the_sieve(x):
    table = PrimeSieve(x)
    for cap in (0, 1, 1000):
        assert prime_count(x, cap) == (table.count(), tuple(table.primes()[:cap].tolist()))


def test_prime_count_across_windows(monkeypatch):
    monkeypatch.setattr(mstd.primes, "_SEGMENT", 64)
    flags = bytearray_sieve(ORACLE_X)
    expected = [n for n in range(ORACLE_X + 1) if flags[n]]
    for x in (63, 64, 65, 1000, ORACLE_X):
        want = [p for p in expected if p <= x]
        assert prime_count(x, 50) == (len(want), tuple(want[:50]))


def test_prime_count_is_capped_like_the_sieve(monkeypatch):
    monkeypatch.setattr(mstd.primes, "_SIEVE_LIMIT_CAP", 1000)
    assert prime_count(1000, 1)[0] == PrimeSieve(1000).count() == 168
    with pytest.raises(CapacityError, match="sieve limit 1001 exceeds cap 1000"):
        prime_count(1001, 1)


def test_prime_count_memory_is_one_window():
    # a whole table of 10^7 flags would alone be 9.5 MiB, and its 664579
    # primes 5 MiB more
    prime_count(10**5, 10)
    tracemalloc.start()
    try:
        count, first = prime_count(10**7, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (count, len(first)) == (664579, 1000)
    assert peak < 4 << 20, peak


def test_scan_past_the_base_sieve_raises_at_once():
    started = time.perf_counter()
    with pytest.raises(CapacityError, match="x may be at most"):
        match_tuple(TWIN, 10**40)
    assert time.perf_counter() - started < 1


def test_scan_limit_edge(monkeypatch):
    # with a cap of 100 base primes reach sqrt(x + spread) <= 100, so
    # x + spread <= 101^2 - 1 = 10200, and twins allow x <= 10198
    monkeypatch.setattr(mstd.primes, "_SIEVE_LIMIT_CAP", 100)
    report = match_tuple(TWIN, 10_198, rel_tol=0.1)
    assert report.count == len(oracle_matches(TWIN.offsets, 10_198))
    message = r"x \+ spread = 10201 exceeds 10200; x may be at most 10198"
    with pytest.raises(CapacityError, match=message):
        match_tuple(TWIN, 10_199, rel_tol=0.1)


def test_scan_time_limit_edge(monkeypatch):
    # x + spread may reach 2^37; the stand-in scan stops the run at the
    # edge, so no shift is scanned
    scanned = []
    monkeypatch.setattr(mstd.primes, "_scan_windows", lambda offsets, x, cap: scanned.append(x) or (0, ()))
    assert match_tuple(TWIN, 2**37 - 2).count == 0 and scanned == [2**37 - 2]
    message = rf"x \+ spread = {2**37 + 1} exceeds {2**37}; x may be at most {2**37 - 2}"
    with pytest.raises(CapacityError, match=message):
        match_tuple(TWIN, 2**37 - 1)
    assert scanned == [2**37 - 2]


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(mstd.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mstd.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"


# -- dilations and APs ---------------------------------------------------

def test_dilated_conway_examples():
    assert dilated_conway(19, 30).elements == (19, 79, 109, 139, 229, 349, 379, 439)
    assert dilated_conway(0, 1).elements == (0, 2, 3, 4, 7, 11, 12, 14)
    c = classify(dilated_conway(5, 7))
    assert (c.sum_count, c.diff_count) == (26, 25)


def test_dilations_always_mstd():
    rng = random.Random(603)
    for _ in range(50):
        p = rng.randint(0, 10_000)
        s = rng.randint(1, 2000)
        c = classify(dilated_conway(p, s))
        assert (c.sum_count, c.diff_count, c.verdict) == (26, 25, "mstd")


def test_dilation_parameters_validated():
    with pytest.raises(DomainError):
        dilated_conway(-1, 1)
    with pytest.raises(DomainError):
        dilated_conway(0, 0)


def test_ten_term_prime_ap():
    assert find_prime_ap(10, 1000) == (199, 210)


def test_three_term_prime_ap():
    assert find_prime_ap(3, 10) == (3, 2)


def test_single_term_ap_is_first_prime():
    # no table is built, so a bound past the sieve cap is no error
    for bound in (0, 1):
        assert find_prime_ap(1, bound) is None
    for bound in (2, 3, 10**6, 2**27 + 1, 10**40):
        assert find_prime_ap(1, bound) == (2, 0)
    assert find_prime_ap(1, 10, max_diff=0) == (2, 0)


def test_ap_absent_within_bound():
    assert find_prime_ap(10, 100) is None
    # max_diff 0 leaves only the one-term AP
    for length in (2, 3, 5):
        assert find_prime_ap(length, 100, max_diff=0) is None


def test_found_aps_verify_prime():
    for length, bound in ((4, 100), (5, 100), (6, 200)):
        result = find_prime_ap(length, bound)
        assert result is not None
        first, diff = result
        for k in range(length):
            assert trial_division_is_prime(first + k * diff)


@functools.lru_cache(maxsize=None)
def ap_oracle_sieve():
    return bytearray_sieve(3_000_000)


def oracle_prime_ap(length, bound, max_diff=None):
    """One plain sieve to bound + (length - 1) * max_diff, first terms in
    order, then each difference that is a multiple of every prime
    q <= length other than the first term, smallest first."""
    small = [q for q in range(2, length + 1) if trial_division_is_prime(q)]
    primorial = math.prod(small)
    if max_diff is None:
        max_diff = max(min(100 * primorial, ((1 << 27) - bound) // (length - 1)), primorial)
    flags = ap_oracle_sieve()
    assert bound + (length - 1) * max_diff < len(flags)
    for p in range(length, bound + 1):
        if flags[p]:
            modulus = math.prod(q for q in small if q != p)
            for d in range(modulus, max_diff + 1, modulus):
                if all(flags[p + k * d] for k in range(1, length)):
                    return (p, d)
    return None


def test_prime_ap_grid_matches_a_one_sieve_search():
    for length in range(2, 13):
        for bound in (10, 100, 1000, 10**4, 10**5):
            assert find_prime_ap(length, bound) == oracle_prime_ap(length, bound), (length, bound)


@pytest.mark.parametrize(
    "length, bound, max_diff",
    # the first two search first terms in five doubling steps and find none
    [(11, 10**6, 2310), (12, 10**6, 2310), (9, 10**6, 210), (3, 10**6, 2), (5, 10**6, 6)],
)
def test_prime_ap_past_the_first_step_matches_a_one_sieve_search(length, bound, max_diff):
    assert find_prime_ap(length, bound, max_diff) == oracle_prime_ap(length, bound, max_diff)


def test_prime_ap_memory_follows_the_answer():
    # one sieve to 10^8 + 2 * 600 would alone be 95 MiB
    find_prime_ap(3, 10)
    tracemalloc.start()
    try:
        found = find_prime_ap(3, 10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == (3, 2)
    assert peak < 2 << 20, peak


def test_prime_ap_below_the_smallest_modulus_sieves_nothing():
    # no difference below 2 (length 3: 6 // 3) or 1 (length 2: 2 // 2)
    # keeps every term prime: one sieve to 10^8 would be about 95 MiB
    find_prime_ap(3, 10)
    tracemalloc.start()
    try:
        found = [find_prime_ap(3, 10**8, max_diff=1), find_prime_ap(2, 10**8, max_diff=0)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == [None, None]
    assert peak < 1 << 20, peak
    # at the smallest modulus itself the search runs: prime and composite lengths
    for length, bound, smallest in ((3, 100, 2), (2, 100, 1), (4, 1000, 6), (5, 1000, 6)):
        assert find_prime_ap(length, bound, max_diff=smallest - 1) is None
        assert find_prime_ap(length, bound, max_diff=smallest) == oracle_prime_ap(length, bound, smallest)
        assert find_prime_ap(length, bound, max_diff=smallest) is not None


def test_prime_ap_sieve_cap(monkeypatch):
    monkeypatch.setattr(mstd.primes, "_SIEVE_LIMIT_CAP", 10**5)
    # found in the first step, whose sieve fits under the cap
    assert find_prime_ap(10, 2 * 10**5, max_diff=210) == (199, 210)
    # none below 2^16, and the next step's sieve, to 2^17 + 11 * 2310, is past the cap
    with pytest.raises(CapacityError, match="sieve limit 156482 exceeds cap 100000"):
        find_prime_ap(12, 2 * 10**5, max_diff=2310)


def _no_sieve(limit):
    raise AssertionError(f"sieve to {limit} built")


@pytest.mark.parametrize(
    "call, args",
    [
        (find_prime_ap, (0, 10)),
        (find_prime_ap, (2, 10, -5)),
        (find_prime_ap, (1, 10, -1)),
        (find_prime_ap, (12, 10**6, -2310)),
        (mstd_in_ap, ((-1, 1, 15),)),
        (mstd_in_ap, ((0, 0, 15),)),
    ],
    ids=["length-0", "negative-max-diff", "one-term-negative-max-diff", "long-negative-max-diff",
         "negative-first", "zero-difference"],
)
def test_ap_input_rejected_before_any_sieve(monkeypatch, call, args):
    monkeypatch.setattr(mstd.primes, "PrimeSieve", _no_sieve)
    with pytest.raises(DomainError):
        call(*args)


def test_mstd_in_ap_identity():
    assert mstd_in_ap((0, 1, 15)).elements == (0, 2, 3, 4, 7, 11, 12, 14)


def test_mstd_in_ap_is_affine_conway():
    s = mstd_in_ap((199, 210, 15))
    assert s.elements == tuple(199 + 210 * c for c in (0, 2, 3, 4, 7, 11, 12, 14))
    assert classify(s).verdict == "mstd"


def test_mstd_in_ap_needs_fifteen_terms():
    with pytest.raises(DomainError):
        mstd_in_ap((199, 210, 10))
