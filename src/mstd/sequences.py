"""Sequence generators and certificates about their MSTD subsets.

A sequence whose terms grow fast enough (a_k > a_{k-1} + a_{k-r} for
every k past the window start) cannot contain an MSTD subset unless it
already contains a small one, of at most 2r+1 elements.  The certifiers
here turn that statement into checkable artifacts:

* ``check_growth`` verifies the inequality on a finite window and, for
  the two closed-form families (the de-duplicated Fibonacci listing and
  c*r**k + d), decides it for every k at once.
* ``certify_no_mstd`` combines growth with an exhaustive search over
  the small-subset window.
* ``verify_difference_bound`` adjoins one element to the census of a
  set, counts the exact number of new sums and new differences and
  checks them against the claimed bounds (new_diffs >= |S|+1 >= new_sums).
* ``certify_finitely_many`` handles the weaker conclusion "at most
  finitely many MSTD subsets": growth with window 3 from a start index,
  plus a falsification search for special MSTD subsets.

Certificates never overclaim: a verdict of certified-no-mstd is issued
only when the growth condition is known in closed form for all k;
finite evidence alone yields consistent-within-budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, islice

from .errors import CapacityError, DomainError
from .search import SearchConfig, _census_hits, _scan, exhaustive_search, special_search
from .sets import DEFAULT_DIAMETER_CAP, IntSet, Report, SumDiffSets, append_analysis, sum_diff_counts

KIND_FIBONACCI = "fibonacci"
KIND_SHIFTED_GEOMETRIC = "shifted_geometric"
KIND_LINEAR_RECURRENCE = "linear_recurrence"
KIND_EXPLICIT = "explicit"

_KINDS = (KIND_FIBONACCI, KIND_SHIFTED_GEOMETRIC, KIND_LINEAR_RECURRENCE, KIND_EXPLICIT)

VERDICT_CERTIFIED = "certified-no-mstd"
VERDICT_CONSISTENT = "consistent-within-budget"
VERDICT_REFUTED = "refuted"
VERDICT_INCONCLUSIVE = "inconclusive"

BOUND_HOLDS = "bound-holds"
BOUND_VIOLATED = "bound-violated"
BOUND_NOT_APPLICABLE = "hypothesis-not-applicable"


@dataclass(frozen=True)
class SequenceSpec:
    """A sequence given by kind plus parameters.

    kinds: fibonacci (the de-duplicated listing 0,1,2,3,5,8,...),
    shifted_geometric (a_k = c*r**k + d with c >= 1, r >= 2, d >= 0),
    linear_recurrence (coeffs applied to the trailing seeds), explicit
    (a stored prefix).  Terms are 1-indexed everywhere.
    """

    kind: str
    c: int | None = None
    r: int | None = None
    d: int | None = None
    coeffs: tuple[int, ...] | None = None
    seeds: tuple[int, ...] | None = None
    elements: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown sequence kind {self.kind!r}")
        if self.kind == KIND_SHIFTED_GEOMETRIC:
            if self.c is None or self.c < 1:
                raise DomainError("shifted_geometric needs integer c >= 1")
            if self.r is None or self.r < 2:
                raise DomainError("shifted_geometric needs integer ratio r >= 2")
            if self.d is None or self.d < 0:
                raise DomainError("shifted_geometric needs integer d >= 0")
        elif self.kind == KIND_LINEAR_RECURRENCE:
            if not self.coeffs or any(c < 0 for c in self.coeffs) or sum(self.coeffs) < 1:
                raise DomainError("linear_recurrence needs nonnegative coeffs, not all zero")
            if not self.seeds or len(self.seeds) < len(self.coeffs):
                raise DomainError("linear_recurrence needs at least as many seeds as coeffs")
            object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        elif self.kind == KIND_EXPLICIT:
            if not self.elements:
                raise DomainError("explicit sequence needs elements")
            object.__setattr__(self, "elements", tuple(int(x) for x in self.elements))

    @classmethod
    def fibonacci(cls) -> "SequenceSpec":
        return cls(kind=KIND_FIBONACCI)

    @classmethod
    def shifted_geometric(cls, c: int, r: int, d: int) -> "SequenceSpec":
        return cls(kind=KIND_SHIFTED_GEOMETRIC, c=int(c), r=int(r), d=int(d))

    @classmethod
    def linear_recurrence(cls, coeffs, seeds) -> "SequenceSpec":
        return cls(kind=KIND_LINEAR_RECURRENCE, coeffs=tuple(coeffs), seeds=tuple(seeds))

    @classmethod
    def explicit(cls, elements) -> "SequenceSpec":
        return cls(kind=KIND_EXPLICIT, elements=tuple(elements))


def _terms(spec: SequenceSpec):
    """The terms of ``spec``, endlessly (explicit: as many as stored)."""
    if spec.kind == KIND_FIBONACCI:
        yield from (0, 1)
        a, b = 1, 2
        while True:
            yield b
            a, b = b, a + b
    elif spec.kind == KIND_SHIFTED_GEOMETRIC:
        yield from (spec.c * spec.r**k + spec.d for k in count(1))
    elif spec.kind == KIND_LINEAR_RECURRENCE:
        trail = deque(spec.seeds, maxlen=len(spec.seeds))
        yield from spec.seeds
        while True:
            trail.append(sum(c * trail[-1 - i] for i, c in enumerate(spec.coeffs)))
            yield trail[-1]
    else:
        yield from spec.elements


def materialize(spec: SequenceSpec, n: int) -> list[int]:
    """First n terms, validated nonnegative and strictly increasing.

    Terms are checked as they are built, and their bit lengths may add
    up to at most ``DEFAULT_DIAMETER_CAP`` bits (CapacityError past it):
    a Fibonacci term is about 0.69 bits longer than the last, so that
    admits about 6900 terms.  Strictly increasing terms have at least
    log2(k) bits at index k, so the cap bounds the term count as well.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"term count must be >= 1, got {n}")
    if spec.kind == KIND_EXPLICIT and n > len(spec.elements):
        raise DomainError(f"explicit sequence has {len(spec.elements)} terms, {n} requested")
    terms: list[int] = []
    bits = 0
    for term in islice(_terms(spec), n):
        if not terms and term < 0:
            raise DomainError(f"sequence terms must be nonnegative, a_1 = {term}")
        if terms and term <= terms[-1]:
            i = len(terms)
            raise DomainError(
                f"sequence not strictly increasing at index {i + 1}: "
                f"a_{i} = {terms[-1]}, a_{i + 1} = {term}"
            )
        bits += term.bit_length()
        if bits > DEFAULT_DIAMETER_CAP:
            raise CapacityError(f"{n} terms pass the cap of {DEFAULT_DIAMETER_CAP} bits in all")
        terms.append(term)
    return terms


@dataclass(frozen=True)
class GrowthCertificate(Report):
    """Window check of a_k > a_{k-1} + a_{k-r}.

    holds covers k in [start, checked_upto].  symbolic additionally
    asserts the inequality for every k >= start, which is only claimed
    for the closed-form kinds.  first_violation, when present, is
    (k, a_k, a_{k-1}, a_{k-r}).
    """

    r: int
    start: int
    checked_upto: int
    holds: bool
    first_violation: tuple[int, int, int, int] | None
    symbolic: bool


def _symbolic_growth(spec: SequenceSpec, r: int, start: int) -> bool:
    """Closed-form growth for all k >= start, where a proof is known.

    fibonacci: a_k - a_{k-1} = a_{k-2} > a_{k-r} exactly when r >= 3.
    shifted_geometric: the inequality rearranges to
    c * r**(k-r) * (r**r - r**(r-1) - 1) > d, whose left side is
    nondecreasing in k, so checking k = start settles every k >= start.
    Other kinds: no closed form, return False.
    """
    if spec.kind == KIND_FIBONACCI:
        return r >= 3
    if spec.kind == KIND_SHIFTED_GEOMETRIC:
        rho = spec.r
        factor = rho**r - rho ** (r - 1) - 1
        if factor <= 0:
            return False
        return spec.c * rho ** max(start - r, 0) * factor > spec.d
    return False


def check_growth(spec: SequenceSpec, r: int, upto: int, start: int | None = None) -> GrowthCertificate:
    """Verify a_k > a_{k-1} + a_{k-r} for k in [start, upto].

    start defaults to r+1, the first index where a_{k-r} exists; an
    explicit larger start checks the tail-window variant.  Closed-form
    kinds also report whether the inequality holds for all k (symbolic).
    """
    return _growth(spec, r, upto, start)[0]


def _growth(spec: SequenceSpec, r: int, upto: int, start: int | None) -> tuple[GrowthCertificate, list[int]]:
    """(``check_growth``'s certificate, the terms a_1..a_upto it checked),
    so a certifier materializes its prefix once."""
    r = int(r)
    upto = int(upto)
    if r < 1:
        raise DomainError(f"growth window r must be >= 1, got {r}")
    start = r + 1 if start is None else max(int(start), r + 1)
    if upto < start:
        raise DomainError(f"upto = {upto} is below the first checkable index {start}")
    terms = materialize(spec, upto)
    holds = True
    violation = None
    for k in range(start, upto + 1):
        a_k, a_prev, a_back = terms[k - 1], terms[k - 2], terms[k - r - 1]
        if a_k <= a_prev + a_back:
            holds = False
            violation = (k, a_k, a_prev, a_back)
            break
    return GrowthCertificate(
        r=r,
        start=start,
        checked_upto=upto,
        holds=holds,
        first_violation=violation,
        symbolic=holds and _symbolic_growth(spec, r, start),
    ), terms


@dataclass(frozen=True)
class NoMstdCertificate(Report):
    """Outcome of certify_no_mstd.

    route records how the small-subset condition was settled:
    "min-size-8" (bound 2r+1 <= 7, nothing to search because no MSTD
    set has fewer than 8 elements), "small-subset-search" (exhaustive
    scan of sizes 8..2r+1), or "refutation-search" (growth failed, so
    we only hunted for a counterexample).
    """

    growth: GrowthCertificate
    small_subset_bound: int
    small_search_exhausted: bool
    mstd_witness: IntSet | None
    verdict: str
    route: str
    examined: int


def certify_no_mstd(
    spec: SequenceSpec,
    r: int,
    upto: int,
    budget: int = 2_000_000,
) -> NoMstdCertificate:
    """Certify that the first ``upto`` terms contain no MSTD subset.

    Growth plus absence of small MSTD subsets (size <= 2r+1) rules out
    all MSTD subsets.  For r <= 3 the small-subset window sits entirely
    below 8, the minimum size of any MSTD set, so there is nothing to
    search.  Verdicts: certified-no-mstd only when growth is symbolic
    (holds for every k, not just the window); consistent-within-budget
    when all finite evidence passed but the growth condition is only
    known on the window; refuted with a witness; inconclusive when the
    budget ran out or growth failed without a witness found.
    """
    growth, terms = _growth(spec, r, upto, None)
    bound = 2 * int(r) + 1
    if growth.holds and bound <= 7:
        # every MSTD set has at least 8 elements, so the small-subset
        # window [1, 2r+1] cannot contain one: nothing to search
        route, witness, exhausted, examined = "min-size-8", None, True, 0
    else:
        # the window 8..2r+1; without growth there is nothing to certify,
        # so hunt a counterexample of any size
        route = "small-subset-search" if growth.holds else "refutation-search"
        rep = exhaustive_search(
            SearchConfig(
                ground=IntSet(terms),
                min_size=8,
                max_size=bound if growth.holds else len(terms),
                budget=budget,
                objective="first-hit",
            )
        )
        witness = rep.hits[0] if rep.hits else None
        exhausted, examined = rep.exhausted, rep.examined
    if witness is not None:
        verdict = VERDICT_REFUTED
    elif not growth.holds or not exhausted:
        verdict = VERDICT_INCONCLUSIVE
    elif growth.symbolic:
        verdict = VERDICT_CERTIFIED
    else:
        verdict = VERDICT_CONSISTENT
    return NoMstdCertificate(
        growth=growth,
        small_subset_bound=bound,
        small_search_exhausted=exhausted,
        mstd_witness=witness,
        verdict=verdict,
        route=route,
        examined=examined,
    )


@dataclass(frozen=True)
class DifferenceBoundReport(Report):
    """Exact new-sum/new-difference census for one adjoined element.

    t is the pair-count parameter floor((k+2)/2) used by the counting
    argument; it satisfies both 2t >= k+1 and t <= k-r once
    k >= 2r+2, which is exactly the precondition enforced here.
    """

    set_size: int
    r: int
    t: int
    new_sums: int
    new_diffs: int
    gap_change: int
    hypothesis_applies: bool
    verdict: str


def verify_difference_bound(s_prime: IntSet, new_element: int, r: int) -> DifferenceBoundReport:
    """Check, by ``append_analysis``, that adjoining ``new_element`` to S'
    creates at least |S|+1 new differences and at most |S|+1 new sums.

    The hypothesis is the growth inequality on the top elements of
    S = S' + {x}: x > s_{k-1} + s_{k-r} (1-indexed, s_k = x).  When it
    fails the verdict is hypothesis-not-applicable and the counts are
    still reported.  gap_change = new_sums - new_diffs, the shift in
    the sum-minus-difference gap; nonpositive means the set moved no
    closer to MSTD.
    """
    r = int(r)
    x = int(new_element)
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    if x <= s_prime.max:
        raise DomainError(f"new element {x} must exceed max(S') = {s_prime.max}")
    k = len(s_prime) + 1
    if k < 2 * r + 2:
        raise DomainError(f"|S'|+1 = {k} is below the required 2r+2 = {2 * r + 2}")
    change = append_analysis(s_prime, x)
    new_sums, new_diffs = change.new_sums, change.new_diffs
    applies = x > s_prime.elements[k - 2] + s_prime.elements[k - r - 1]  # s_{k-1} + s_{k-r}
    if not applies:
        verdict = BOUND_NOT_APPLICABLE
    elif new_diffs >= k + 1 >= new_sums:
        verdict = BOUND_HOLDS
    else:
        verdict = BOUND_VIOLATED
    return DifferenceBoundReport(
        set_size=k,
        r=r,
        t=(k + 2) // 2,
        new_sums=new_sums,
        new_diffs=new_diffs,
        gap_change=new_sums - new_diffs,
        hypothesis_applies=applies,
        verdict=verdict,
    )


@dataclass(frozen=True)
class FinitenessCertificate(Report):
    """Outcome of certify_finitely_many.

    The verdict covers only the special-subset search: refuted means a
    special MSTD subset was found (with witness); otherwise
    consistent-within-budget.  Whether the growth half of the
    hypothesis held is read from ``growth`` directly.
    """

    growth: GrowthCertificate
    special_witness: IntSet | None
    verdict: str
    examined: int
    searched_window: int
    search_exhausted: bool


def certify_finitely_many(
    spec: SequenceSpec,
    start: int,
    upto: int,
    special_search_budget: int = 65_536,
) -> FinitenessCertificate:
    """Check the hypotheses for "at most finitely many MSTD subsets".

    Condition one is growth with window 3 from ``start`` (checked on
    [start, upto], symbolically when possible).  Condition two, the
    absence of special MSTD subsets, is only falsifiable at finite
    scale; the search examines every leading prefix of the sequence,
    adjoining one term per prefix to one census (special sets built by
    digit expansion show up exactly there), and then exhausts the subset
    lattice of the longest leading window the budget allows.  A budget
    below 1 raises DomainError.
    """
    if special_search_budget < 1:
        raise DomainError(f"budget must be >= 1, got {special_search_budget}")
    upto = int(upto)
    growth, terms = _growth(spec, 3, upto, start)

    found, _, examined, _ = _scan([(upto - 1, terms)], _prefix_block, special_search_budget, 0, 1, True)
    witness = found[0] if found else None

    window = 0
    exhausted = witness is not None  # prefix scan stopped early on purpose
    if witness is None:
        remaining = special_search_budget - examined
        window = min(upto, max(remaining.bit_length() - 1, 0))
        if window > 0:
            rep = special_search(
                SearchConfig(
                    ground=IntSet(terms[:window]),
                    budget=max(remaining, 1),
                    objective="first-hit",
                )
            )
            examined += rep.examined
            witness = rep.hits[0] if rep.hits else None
            exhausted = rep.exhausted
    return FinitenessCertificate(
        growth=growth,
        special_witness=witness,
        verdict=VERDICT_REFUTED if witness else VERDICT_CONSISTENT,
        examined=examined,
        searched_window=window,
        search_exhausted=exhausted,
    )


def _prefix_block(terms: list[int], take: int):
    """Prefix-pass classifier: terms[:2] ... terms[:take + 1] by the special
    rule, one term adjoined per prefix, up to the first hit (all a first-hit
    scan reads); the first prefix and the hit are recounted by sum_diff_counts."""
    census = SumDiffSets(terms[:1])
    for k in range(take):
        census.adjoin(terms[k + 1])
        counts = census.counts()
        hit = _census_hits(*counts, k + 2, special=True)
        if (k == 0 or hit) and sum_diff_counts(tuple(terms[: k + 2])) != counts:
            raise RuntimeError(f"adjoined census disagrees with sum_diff_counts on {terms[: k + 2]}")
        if hit:
            return take, [k], [terms[: k + 2]]
    return take, [], []
