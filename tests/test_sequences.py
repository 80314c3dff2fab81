"""Sequence generators and the no-MSTD / finiteness certifiers."""

import random

import pytest

from mstd import (
    CONWAY,
    CapacityError,
    DomainError,
    IntSet,
    SequenceSpec,
    base_expansion,
    certify_finitely_many,
    certify_no_mstd,
    check_growth,
    classify,
    materialize,
    sum_diff_counts,
    verify_difference_bound,
)
from mstd import sequences

FIB = SequenceSpec.fibonacci()


def random_growth_sequence(rng, r, length, start_value=None):
    """Strictly increasing terms with a_k > a_{k-1} + a_{k-r} past the seeds."""
    terms = [start_value if start_value is not None else rng.randint(0, 3)]
    for _ in range(r - 1):
        terms.append(terms[-1] + rng.randint(1, 4))
    while len(terms) < length:
        terms.append(terms[-1] + terms[-r] + rng.randint(1, 9))
    return terms


# -- materialize -------------------------------------------------------

def test_fibonacci_prefix_is_deduplicated():
    assert materialize(FIB, 6) == [0, 1, 2, 3, 5, 8]
    assert materialize(FIB, 10) == [0, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_shifted_geometric_closed_form():
    spec = SequenceSpec.shifted_geometric(1, 3, 1)
    assert materialize(spec, 4) == [4, 10, 28, 82]
    spec = SequenceSpec.shifted_geometric(2, 2, 0)
    assert materialize(spec, 5) == [4, 8, 16, 32, 64]


def test_linear_recurrence_materializes_from_seeds():
    spec = SequenceSpec.linear_recurrence([1, 1], [4, 7])
    assert materialize(spec, 5) == [4, 7, 11, 18, 29]


def test_raw_fibonacci_recurrence_rejected_for_duplicate():
    spec = SequenceSpec.linear_recurrence([1, 1], [0, 1])
    with pytest.raises(DomainError, match="index"):
        materialize(spec, 5)  # 0,1,1,... repeats


def test_explicit_prefix_and_exhaustion():
    spec = SequenceSpec.explicit([3, 6, 12])
    assert materialize(spec, 2) == [3, 6]
    with pytest.raises(DomainError):
        materialize(spec, 4)


def test_materialize_caps_the_total_bit_length(monkeypatch):
    naive = [0, 1]
    while len(naive) < 1600:
        naive.append(naive[-1] + naive[-2] if len(naive) > 2 else 2)
    assert materialize(FIB, 1600) == naive  # certify_finitely_many(fibonacci, 4, 1600) fits
    monkeypatch.setattr(sequences, "DEFAULT_DIAMETER_CAP", 100)
    fits = max(n for n in range(1, 40) if sum(t.bit_length() for t in naive[:n]) <= 100)
    assert materialize(FIB, fits) == naive[:fits]
    with pytest.raises(CapacityError, match="100 bits"):
        materialize(FIB, fits + 1)
    # repeated zero terms have no bits; they are refused as they are built
    with pytest.raises(DomainError, match="index 2"):
        materialize(SequenceSpec.linear_recurrence([1], [0]), 10**12)


def test_materialize_requires_positive_count():
    with pytest.raises(DomainError):
        materialize(FIB, 0)


def test_geometric_parameters_validated():
    with pytest.raises(DomainError):
        SequenceSpec.shifted_geometric(0, 3, 1)  # c = 0
    with pytest.raises(DomainError):
        SequenceSpec.shifted_geometric(1, 1, 0)  # ratio 1 never grows
    with pytest.raises(DomainError):
        SequenceSpec.shifted_geometric(1, 2, -1)  # d < 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: SequenceSpec(kind="nope"),
        lambda: SequenceSpec.linear_recurrence([0, 0], [1, 2]),  # all coefficients zero
        lambda: SequenceSpec.linear_recurrence([1, 1], [1]),  # fewer seeds than coefficients
        lambda: SequenceSpec.linear_recurrence([1], [1], 1),  # positive constant
        lambda: SequenceSpec.explicit([]),
        lambda: materialize(SequenceSpec.explicit([-1, 2]), 2),
        lambda: check_growth(FIB, 0, 10),  # window r = 0
    ],
    ids=["kind", "zero-coeffs", "few-seeds", "positive-constant", "empty-explicit", "negative-term", "window-zero"],
)
def test_invalid_sequence_input_rejected(build):
    with pytest.raises(DomainError):
        build()


# -- check_growth ------------------------------------------------------

def test_fibonacci_growth_r3_holds_symbolically():
    cert = check_growth(FIB, 3, 50)
    assert cert.holds
    assert cert.symbolic
    assert cert.first_violation is None
    assert cert.checked_upto == 50


def test_powers_of_two_growth_r3_holds():
    cert = check_growth(SequenceSpec.shifted_geometric(1, 2, 0), 3, 50)
    assert cert.holds and cert.symbolic


def test_explicit_violation_at_k2():
    cert = check_growth(SequenceSpec.explicit([1, 2, 3, 5, 8]), 1, 5)
    assert not cert.holds
    assert cert.first_violation[0] == 2  # 2 > 1+1 fails
    assert not cert.symbolic


def test_explicit_kind_never_symbolic():
    terms = random_growth_sequence(random.Random(7), 3, 20)
    cert = check_growth(SequenceSpec.explicit(terms), 3, 20)
    assert cert.holds
    assert not cert.symbolic


def test_growth_monotone_in_r():
    rng = random.Random(501)
    for _ in range(40):
        r = rng.randint(1, 4)
        terms = random_growth_sequence(rng, r, 16)
        spec = SequenceSpec.explicit(terms)
        assert check_growth(spec, r, 16).holds
        for bigger in range(r + 1, 6):
            assert check_growth(spec, bigger, 16).holds


def test_growth_needs_room_to_check():
    with pytest.raises(DomainError):
        check_growth(FIB, 3, 2)  # upto < r+1


def test_fibonacci_symbolic_exactly_from_r3():
    # a_k - a_{k-1} = a_{k-2}, which passes a_{k-r} exactly when r >= 3;
    # for r <= 2 it fails at k = 4 (3 <= 2 + 1 and 3 <= 2 + 2)
    for r in range(1, 7):
        for upto in range(r + 1, 40):
            for start in range(r + 1, upto + 1):
                assert check_growth(FIB, r, upto, start).symbolic == (r >= 3), (r, upto, start)


def test_shifted_geometric_symbolic_matches_its_closed_form():
    # a_k - a_{k-1} - a_{k-r} = c*q**(k-r)*(q**r - q**(r-1) - 1) - d, for
    # ratio q, is nondecreasing in k when the factor is positive and at
    # most -d otherwise: k = start settles every k >= start
    for c in range(1, 4):
        for q in range(2, 5):
            for d in (0, 1, 2, 3, 5, 7, 10, 17, 30, 57):
                spec = SequenceSpec.shifted_geometric(c, q, d)
                assert materialize(spec, 12) == [c * q**k + d for k in range(1, 13)]
                for r in range(1, 7):
                    factor = q**r - q ** (r - 1) - 1
                    for start in range(r + 1, r + 6):
                        closed = factor > 0 and c * q ** (start - r) * factor > d
                        for upto in (start, start + 3):
                            cert = check_growth(spec, r, upto, start)
                            assert cert.symbolic == closed, (c, q, d, r, start, upto)


def test_random_recurrence_symbolic_iff_growth_holds_to_500_terms():
    rng = random.Random(504)
    seen = set()
    for _ in range(300):
        coeffs = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        coeffs[rng.randrange(len(coeffs))] += 1
        seeds = sorted(rng.sample(range(12), rng.randint(len(coeffs), len(coeffs) + 2)))
        constant = rng.choice((0, 0, -1, -4))
        r = rng.randint(1, 5)
        start = rng.randint(r + 1, r + 6)
        terms = list(seeds)
        while len(terms) < 500:
            terms.append(sum(c * terms[-1 - i] for i, c in enumerate(coeffs)) + constant)
        grows = all(terms[k - 1] > terms[k - 2] + terms[k - r - 1] for k in range(start, 501))
        spec = SequenceSpec.linear_recurrence(coeffs, seeds, constant)
        try:
            cert = check_growth(spec, r, start, start)
        except DomainError:  # a prefix that does not increase
            assert any(b <= a for a, b in zip(terms[:start], terms[1:start]))
            continue
        assert cert.symbolic == grows, (coeffs, seeds, constant, r, start)
        seen.add(grows)
    assert seen == {True, False}


# -- certify_no_mstd ---------------------------------------------------

def test_fibonacci_certified():
    cert = certify_no_mstd(FIB, 3, 40)
    assert cert.verdict == "certified-no-mstd"
    assert cert.small_subset_bound == 7
    assert cert.route == "min-size-8"
    assert cert.mstd_witness is None


def test_geometric_certified():
    cert = certify_no_mstd(SequenceSpec.shifted_geometric(2, 3, 5), 3, 30)
    assert cert.verdict == "certified-no-mstd"


def test_recurrence_with_zero_margin_at_r3():
    # a_k = a_{k-1} + a_{k-3}: at r = 3, b_k = a_k - a_{k-1} - a_{k-3} = 0;
    # at r = 4, b_k = a_{k-3} - a_{k-4} > 0 for every k
    spec = SequenceSpec.linear_recurrence([1, 0, 1], [1, 2, 3])
    assert not check_growth(spec, 3, 30).symbolic
    assert check_growth(spec, 4, 30).symbolic
    # the search covers subsets of the first 18 terms only, and growth at
    # r = 3 cannot carry it to the rest
    cert = certify_no_mstd(spec, 4, 18)
    assert cert.growth.symbolic and cert.route == "small-subset-search" and cert.small_search_exhausted
    assert cert.verdict == "consistent-within-budget"


def test_large_r_search_without_growth_at_r3_is_only_consistent():
    # 2**k + 10 grows at r = 4 for every k, but not at r = 3: a_4 = 26 <= 18 + 12
    spec = SequenceSpec.shifted_geometric(1, 2, 10)
    assert check_growth(spec, 3, 18).first_violation == (4, 26, 18, 12)
    cert = certify_no_mstd(spec, 4, 18)
    assert cert.growth.symbolic and cert.route == "small-subset-search"
    assert cert.verdict == "consistent-within-budget"


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("budget", [0, -5])
def test_no_mstd_budget_below_one_rejected(r, budget):
    with pytest.raises(DomainError, match="budget"):
        certify_no_mstd(FIB, r, 40, budget=budget)


def test_large_r_runs_small_subset_search():
    # 2r+1 = 9 > 7 forces an actual size-8..9 enumeration
    cert = certify_no_mstd(SequenceSpec.shifted_geometric(1, 3, 0), 4, 20)
    assert cert.verdict == "certified-no-mstd"
    assert cert.route == "small-subset-search"
    assert cert.small_search_exhausted
    assert cert.examined > 0


def test_dense_explicit_prefix_refuted_by_conway():
    cert = certify_no_mstd(SequenceSpec.explicit(list(range(15))), 3, 15)
    assert cert.verdict == "refuted"
    assert cert.mstd_witness is not None
    assert classify(IntSet(cert.mstd_witness)).verdict == "mstd"
    assert tuple(cert.mstd_witness) == CONWAY


def test_nonsymbolic_growth_is_only_consistent():
    terms = random_growth_sequence(random.Random(8), 3, 25)
    cert = certify_no_mstd(SequenceSpec.explicit(terms), 3, 25)
    assert cert.verdict == "consistent-within-budget"


def test_tiny_budget_is_inconclusive():
    cert = certify_no_mstd(SequenceSpec.explicit(list(range(15))), 3, 15, budget=10)
    assert cert.verdict == "inconclusive"
    assert cert.mstd_witness is None


def test_growth_sequences_have_no_mstd_subsets_at_desk_scale():
    # empirical Thm-1.1 check: enumerate every subset of a short prefix
    rng = random.Random(502)
    for _ in range(5):
        r = rng.randint(1, 3)
        terms = random_growth_sequence(rng, r, 12)
        ground = IntSet(terms, diameter_cap=None)
        hits = [
            combo
            for mask in range(1, 1 << 12)
            for combo in [tuple(terms[i] for i in range(12) if mask >> i & 1)]
            if sum_diff_counts(combo)[0] > sum_diff_counts(combo)[1]
        ]
        assert hits == [], f"growth sequence {terms} produced MSTD subsets"
        del ground


# -- verify_difference_bound -------------------------------------------

def test_fibonacci_difference_bound_example():
    terms = materialize(FIB, 10)
    report = verify_difference_bound(IntSet(terms[:9]), terms[9], 3)
    assert report.verdict == "bound-holds"
    assert report.hypothesis_applies
    assert report.new_diffs >= 11 >= report.new_sums
    assert report.gap_change < 0  # never moves toward MSTD


def test_dense_set_hypothesis_not_applicable():
    report = verify_difference_bound(IntSet(range(14)), 14, 3)
    assert report.verdict == "hypothesis-not-applicable"
    assert not report.hypothesis_applies


def test_powers_of_three_append_is_threshold_case():
    terms = [3**k for k in range(1, 9)]
    report = verify_difference_bound(IntSet(terms), 3**9, 3)
    assert report.verdict == "bound-holds"
    assert report.new_sums == 9
    assert report.new_diffs == 16


def test_difference_bound_preconditions():
    with pytest.raises(DomainError):
        verify_difference_bound(IntSet([1, 2, 4]), 100, 3)  # too few elements
    with pytest.raises(DomainError):
        verify_difference_bound(IntSet(range(14)), 5, 3)  # not above max
    with pytest.raises(DomainError):
        verify_difference_bound(IntSet(range(14)), 14, 0)  # r >= 1


def test_difference_bound_on_random_growth_instances():
    rng = random.Random(503)
    for _ in range(100):
        r = 3
        k = rng.randint(2 * r + 2, 14)
        terms = random_growth_sequence(rng, r, k)
        report = verify_difference_bound(IntSet(terms[: k - 1]), terms[k - 1], r)
        assert report.verdict == "bound-holds"
        assert report.new_diffs >= k + 1 >= report.new_sums


# -- certify_finitely_many ---------------------------------------------

def test_fibonacci_finiteness_consistent():
    cert = certify_finitely_many(FIB, 4, 40)
    assert cert.growth.holds
    assert cert.verdict == "consistent-within-budget"
    assert cert.special_witness is None


def test_spliced_fixture_growth_from_the_splice():
    low = list(range(15))
    high = [100 * 3**k for k in range(1, 6)]
    spec = SequenceSpec.explicit(low + high)
    cert = certify_finitely_many(spec, 16, 20)
    assert cert.growth.holds
    assert cert.verdict == "consistent-within-budget"
    assert cert.search_exhausted


def test_special_prefix_is_refuted():
    s3 = base_expansion(IntSet(CONWAY), 3)
    cert = certify_finitely_many(SequenceSpec.explicit(list(s3.elements)), 4, 512)
    assert cert.verdict == "refuted"
    assert cert.special_witness is not None
    witness = classify(IntSet(cert.special_witness, diameter_cap=None))
    assert witness.special


def special_prefixes(terms, budget):
    """(witness, examined) of the prefix pass, counting each of the
    first ``budget`` prefixes afresh by ``sum_diff_counts``."""
    for j in range(2, min(len(terms), budget + 1) + 1):
        sc, dc = sum_diff_counts(tuple(terms[:j]))
        if sc > dc and sc - dc >= j:
            return terms[:j], j - 1
    return None, min(len(terms) - 1, budget)


def test_prefix_pass_matches_counting_every_prefix():
    # S3 is special, and so is its prefix of 126 elements: budgets cut
    # the pass before, at and after that prefix
    s3 = list(base_expansion(IntSet(CONWAY), 3).elements)
    terms = s3 + [2 * sum(s3) * 3**k for k in range(1, 8)]
    assert special_prefixes(terms, len(terms))[1] == 125
    for budget in (1, 2, 9, 123, 124, 125, 126, 200, 65536):
        cert = certify_finitely_many(SequenceSpec.explicit(terms), 4, len(terms), special_search_budget=budget)
        expected, upto = special_prefixes(terms, budget)
        assert cert.examined == (upto if expected else budget)
        assert cert.special_witness == (IntSet(expected, diameter_cap=None) if expected else None)
        assert cert.verdict == ("refuted" if expected else "consistent-within-budget")
        assert cert.searched_window == 0


def test_prefix_pass_recounts_only_its_first_prefix_and_witness(monkeypatch):
    recounted = []

    def counting(elements, *args, **kwargs):
        recounted.append(len(elements))
        return sum_diff_counts(elements, *args, **kwargs)

    monkeypatch.setattr(sequences, "sum_diff_counts", counting)
    cert = certify_finitely_many(FIB, 4, 1600)  # counting every prefix afresh would take minutes
    assert cert.verdict == "consistent-within-budget" and cert.examined == 1599 + 2**15
    assert recounted == [2]
    recounted.clear()
    s3 = base_expansion(IntSet(CONWAY), 3)
    cert = certify_finitely_many(SequenceSpec.explicit(s3.elements), 4, 512)
    assert recounted == [2, len(cert.special_witness)]


@pytest.mark.parametrize("budget", [0, -5])
def test_finiteness_budget_below_one_rejected(budget):
    # as certify_no_mstd and minimal_mstd_in refuse it: no verdict from no search
    with pytest.raises(DomainError, match="budget"):
        certify_finitely_many(FIB, 4, 20, special_search_budget=budget)


def test_finiteness_start_must_precede_upto():
    with pytest.raises(DomainError):
        certify_finitely_many(FIB, 10, 5)
