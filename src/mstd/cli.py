"""Command-line surface: every library operation as a subcommand.

Each handler returns its report: a library result with ``to_dict`` or a
plain dict.  ``main`` prints it as one JSON object on one line and picks
the exit code: 0 success, 1 for a claim that failed its check
(``passed`` false; its report is still printed) or a domain or capacity
error (bad values, cap exceeded; one stderr line, no report), 2 usage
error (unknown command, unparseable arguments, or a flag the subcommand
does not read).  Lists of hits, matches and primes stop at 1000 entries
(``search.DEFAULT_HIT_CAP``, ``primes._MATCH_CAP``), while ``count`` and
the ``hit_count`` of search and density count all of them.  Stochastic
commands echo their seed so reports are reproducible artifacts.

Set inputs are inline comma lists ("0,2,3") or @file references (one
integer per line).  Sequences use a small grammar:
fibonacci | geometric:c,r,d | recurrence:c1,..:s1,.. | explicit:e1,e2,..
``_COMMON`` names the common flags and the subcommands whose handlers
read them, and only those subcommands accept them.  A common flag left
off the command line takes its built-in default (``_flag``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

from .errors import CapacityError, DomainError
from .primes import (
    PrimeSieve,
    PrimeTuple,
    dilated_conway,
    find_prime_ap,
    is_admissible,
    match_tuple,
    mstd_in_ap,
    prime_count,
    singular_series,
)
from .reproduce import CLAIM_IDS, TUPLE_T, run_claim
from .search import (
    MODE_EXHAUSTIVE,
    MODE_MONTE_CARLO,
    SearchConfig,
    exhaustive_search,
    minimal_mstd_in,
    monte_carlo_density,
    special_search,
)
from .sequences import (
    SequenceSpec,
    certify_finitely_many,
    certify_no_mstd,
    check_growth,
    materialize,
    verify_difference_bound,
)
from .sets import IntSet, append_analysis, base_expansion, classify, diffset, sumset

# Ranges in an integer list expand to at most this many integers in all,
# checked before expanding: "0..1000000000" must not build 10^9 ints.
INT_LIST_RANGE_CAP = 1 << 24


def _int_list(text: str) -> list[int]:
    """Parse '1,2,3', 'lo..hi' (inclusive), or '@path' (one integer per line)."""
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                return [int(line.strip()) for line in fh if line.strip()]
        out: list[int] = []
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if ".." in tok:
                lo_text, hi_text = tok.split("..")
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise ValueError(f"empty range {tok!r}")
                if len(out) + hi - lo + 1 > INT_LIST_RANGE_CAP:
                    raise ValueError(f"range {tok!r} would pass {INT_LIST_RANGE_CAP} integers")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(tok))
        return out
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read integer list {text!r}: {exc}")


def _seq_spec(text: str) -> SequenceSpec:
    head, _, rest = text.partition(":")
    kind = head.strip().lower().replace("-", "_")
    try:
        if kind == "fibonacci":
            return SequenceSpec.fibonacci()
        if kind in ("geometric", "shifted_geometric"):
            c, r, d = (int(v) for v in rest.split(","))
            return SequenceSpec.shifted_geometric(c, r, d)
        if kind in ("recurrence", "linear_recurrence"):
            coeffs_text, _, seeds_text = rest.partition(":")
            return SequenceSpec.linear_recurrence(
                [int(v) for v in coeffs_text.split(",")],
                [int(v) for v in seeds_text.split(",")],
            )
        if kind == "explicit":
            return SequenceSpec.explicit(_int_list(rest))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad sequence spec {text!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown sequence kind {head!r} (use fibonacci, geometric:c,r,d, "
        f"recurrence:coeffs:seeds, or explicit:elements)"
    )


def _integral(text: str) -> int:
    """Integer, also in scientific notation like 1e23, read exactly.

    ValueError unless the value is integral and a finite float: nan,
    inf, 1e400, 2.5 and 1e-3 are refused.
    """
    try:
        return int(text)
    except ValueError:
        pass
    if not math.isfinite(float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    # Fraction forms 10**exponent; a finite float never needs one this long
    _, _, exponent = text.lower().partition("e")
    if exponent and abs(int(exponent)) > 400:
        raise ValueError(f"exponent out of range: {text!r}")
    from fractions import Fraction  # plain integers never pay for its import

    value = Fraction(text)
    if value.denominator != 1:
        raise ValueError(f"not an integer: {text!r}")
    return int(value)


def _count(text: str) -> int:
    try:
        return _integral(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a count: {text!r}")


# The common flags: type, built-in default (a budget of None leaves the
# library's), and the subcommands whose handlers read them.  Only those
# subcommands accept the flag; on the rest it ends in argparse's exit 2.
# reproduce reads only an explicit --seed or --threads, since an unset
# one leaves its claim as pinned.
_COMMON = {
    "seed": (int, 0, ("search", "density", "reproduce")),
    "threads": (int, 1, ("search", "density", "reproduce")),
    "budget": (_count, None, ("search", "minimal", "certify", "certify-finite")),
}


def _emit(payload: dict) -> None:
    # a report may hold integers of more digits than the interpreter turns
    # into text (sequence terms): lift that limit only while printing
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(payload))
    finally:
        sys.set_int_max_str_digits(limit)


def _flag(args, key):
    """A common flag from the command line, else built in."""
    value = getattr(args, key)
    return _COMMON[key][1] if value is None else value


def _ground_from_args(args) -> IntSet:
    if args.terms is not None and args.seq is None:
        raise DomainError("--terms applies only to --seq grounds")
    if args.ground is not None:
        return IntSet(args.ground)
    if args.seq is not None:
        if args.terms is None:
            raise DomainError("--seq grounds need --terms")
        return IntSet(materialize(args.seq, args.terms))
    return IntSet(int(p) for p in PrimeSieve(args.primes_upto).primes())


def _budget(args, keyword="budget") -> dict:
    """The budget as a keyword argument if set; otherwise the library default applies."""
    budget = _flag(args, "budget")
    return {} if budget is None else {keyword: budget}


# -- handlers: each returns its report, which main prints ---------------

def _cmd_classify(args):
    return classify(IntSet(args.set))


def _cmd_sumset(args):
    return sumset(IntSet(args.set))


def _cmd_diffset(args):
    return {"elements": list(diffset(IntSet(args.set)))}


def _cmd_expand(args):
    return base_expansion(IntSet(args.set), args.k)


def _cmd_append(args):
    return append_analysis(IntSet(args.set), args.x)


def _cmd_bound(args):
    return verify_difference_bound(IntSet(args.set), args.x, args.r)


def _cmd_seq(args):
    return {"terms": materialize(args.seq, args.terms)}


def _cmd_search(args):
    # a flag the chosen mode leaves unread is refused, not ignored
    if args.mode == MODE_EXHAUSTIVE and args.samples is not None:
        raise DomainError("exhaustive search takes no --samples (sampling: --mode monte-carlo --special)")
    if args.mode == MODE_MONTE_CARLO:
        if not args.special:
            raise DomainError("monte-carlo search needs --special (plain density: the density command)")
        if (args.min_size, args.max_size, args.budget) != (None, None, None):
            raise DomainError("monte-carlo search samples every size without a budget: "
                              "it takes no --min-size, --max-size or --budget")
    config = SearchConfig(
        ground=_ground_from_args(args),
        min_size=args.min_size or 0,
        max_size=args.max_size,
        mode=args.mode,
        samples=args.samples,
        seed=_flag(args, "seed"),
        objective=args.objective,
        threads=_flag(args, "threads"),
        **_budget(args),
    )
    return special_search(config) if args.special else exhaustive_search(config)


def _cmd_density(args):
    return monte_carlo_density(args.n, args.samples, seed=_flag(args, "seed"), threads=_flag(args, "threads"))


def _cmd_minimal(args):
    return minimal_mstd_in(_ground_from_args(args), objective=args.objective, **_budget(args))


def _cmd_certify(args):
    return certify_no_mstd(args.seq, r=args.r, upto=args.upto, **_budget(args))


def _cmd_certify_finite(args):
    return certify_finitely_many(
        args.seq, start=args.start, upto=args.upto, **_budget(args, "special_search_budget")
    )


def _cmd_growth(args):
    return check_growth(args.seq, r=args.r, upto=args.upto, start=args.start)


def _cmd_primes_admissible(args):
    return is_admissible(PrimeTuple(tuple(args.offsets)))


def _cmd_primes_series(args):
    return singular_series(PrimeTuple(tuple(args.offsets)), rel_tol=args.tol)


def _cmd_primes_match(args):
    return match_tuple(PrimeTuple(tuple(args.offsets)), args.upto, rel_tol=args.tol)


def _cmd_primes_ap(args):
    result = find_prime_ap(args.length, args.bound, max_diff=args.max_diff)
    if result is None:
        payload = {"found": False, "first": None, "difference": None}
    else:
        payload = {"found": True, "first": result[0], "difference": result[1]}
    payload["length"] = args.length
    return payload


def _cmd_primes_sieve(args):
    count, primes = prime_count(args.upto)
    return {"limit": args.upto, "count": count, "primes": list(primes)}


def _cmd_primes_dilate(args):
    hit = dilated_conway(args.shift, args.scale)
    return {**hit.to_dict(), **classify(hit).to_dict()}


def _cmd_primes_apset(args):
    hit = mstd_in_ap((args.first, args.diff, args.length))
    return {**hit.to_dict(), **classify(hit).to_dict()}


def _cmd_primes_mstd(args):
    report = match_tuple(PrimeTuple(TUPLE_T), args.upto)
    return {
        "x": report.x,
        "count": report.count,
        "matches": list(report.matches),
        "sets": [list(dilated_conway(n, 30).elements) for n in report.matches],
    }


def _cmd_reproduce(args):
    # only explicit flags reach a claim: built-in defaults do not unpin it
    return run_claim(args.claim, samples=args.samples, seed=args.seed, threads=args.threads)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line (no usage dump), exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_ground_options(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--ground", type=_int_list, help="inline list or @file")
    group.add_argument("--seq", type=_seq_spec, help="sequence generator")
    group.add_argument("--primes-upto", type=_count, help="primes <= N as the ground")
    sub.add_argument("--terms", type=int, help="terms to materialize with --seq")


@cache
def _flag_parsers() -> dict:
    """One parent parser per common flag, built once and shared by every
    parser ``build_parser`` makes."""
    flags = {key: _Parser(add_help=False) for key in _COMMON}
    for key, (kind, _, _) in _COMMON.items():
        flags[key].add_argument("--" + key.replace("_", "-"), type=kind)
    return flags


def _command(subs, name, handler, help):
    """The parser of one subcommand, with the common flags its handler reads."""
    flags = _flag_parsers()
    parents = [flags[key] for key, (_, _, readers) in _COMMON.items() if name in readers]
    sub = subs.add_parser(name.rpartition(" ")[2], parents=parents, help=help)
    sub.set_defaults(handler=handler)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mstd",
        description="Sumset vs difference-set toolkit: classification, certificates, searches, prime constellations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = _command(subs, "classify", _cmd_classify, "sum/difference census of a set")
    sub.add_argument("set", type=_int_list)

    sub = _command(subs, "sumset", _cmd_sumset, "A+A")
    sub.add_argument("set", type=_int_list)

    sub = _command(subs, "diffset", _cmd_diffset, "A-A")
    sub.add_argument("set", type=_int_list)

    sub = _command(subs, "expand", _cmd_expand, "carry-free base expansion")
    sub.add_argument("set", type=_int_list)
    sub.add_argument("k", type=int, help="number of digits")

    sub = _command(subs, "append", _cmd_append, "effect of adjoining one element")
    sub.add_argument("set", type=_int_list)
    sub.add_argument("x", type=int, help="element to adjoin")

    sub = _command(
        subs, "bound", _cmd_bound, "new-sums/new-differences bound for one adjoined element"
    )
    sub.add_argument("set", type=_int_list, help="the set before adjoining")
    sub.add_argument("x", type=int, help="element to adjoin (must exceed max)")
    sub.add_argument("--r", type=int, required=True, help="growth window parameter")

    sub = _command(subs, "seq", _cmd_seq, "materialize a sequence prefix")
    sub.add_argument("--seq", type=_seq_spec, required=True)
    sub.add_argument("--terms", type=int, required=True)

    sub = _command(subs, "search", _cmd_search, "subset search over a ground set")
    _add_ground_options(sub)
    sub.add_argument("--min-size", type=int, default=None)
    sub.add_argument("--max-size", type=int, default=None)
    sub.add_argument("--mode", choices=(MODE_EXHAUSTIVE, MODE_MONTE_CARLO), default=MODE_EXHAUSTIVE)
    sub.add_argument("--samples", type=_count, default=None)
    sub.add_argument("--special", action="store_true", help="require gap >= |subset|")
    sub.add_argument("--objective", choices=("count-all", "first-hit"), default="count-all")

    sub = _command(subs, "density", _cmd_density, "Monte Carlo MSTD density of {0..n}")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--samples", type=_count, required=True)

    sub = _command(subs, "minimal", _cmd_minimal, "smallest MSTD subset of a ground set")
    _add_ground_options(sub)
    sub.add_argument(
        "--objective",
        choices=("minimize-max-element", "minimize-diameter"),
        default="minimize-max-element",
    )

    sub = _command(subs, "certify", _cmd_certify, "no-MSTD-subsets certificate")
    sub.add_argument("--seq", type=_seq_spec, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--upto", type=int, required=True)

    sub = _command(
        subs, "certify-finite", _cmd_certify_finite, "finitely-many-MSTD-subsets hypotheses"
    )
    sub.add_argument("--seq", type=_seq_spec, required=True)
    sub.add_argument("--start", type=int, required=True)
    sub.add_argument("--upto", type=int, required=True)

    sub = _command(subs, "growth", _cmd_growth, "growth-inequality window check")
    sub.add_argument("--seq", type=_seq_spec, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--upto", type=int, required=True)
    sub.add_argument("--start", type=int, default=None)

    primes = subs.add_parser("primes", help="prime tuple machinery")
    psubs = primes.add_subparsers(dest="primes_command", required=True)

    sub = _command(psubs, "primes admissible", _cmd_primes_admissible, "residue-coverage check")
    sub.add_argument("offsets", type=_int_list)

    sub = _command(psubs, "primes series", _cmd_primes_series, "singular series value")
    sub.add_argument("offsets", type=_int_list)
    sub.add_argument("--tol", type=float, default=1e-3)

    sub = _command(psubs, "primes match", _cmd_primes_match, "count shifts matching the tuple")
    sub.add_argument("offsets", type=_int_list)
    sub.add_argument("--upto", type=_count, required=True)
    sub.add_argument("--tol", type=float, default=1e-3)

    sub = _command(psubs, "primes ap", _cmd_primes_ap, "prime arithmetic progression")
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--bound", type=_count, required=True)
    sub.add_argument("--max-diff", dest="max_diff", type=_count, default=None)

    sub = _command(psubs, "primes sieve", _cmd_primes_sieve, "primes up to a limit")
    sub.add_argument("--upto", type=_count, required=True)

    sub = _command(
        psubs, "primes dilate", _cmd_primes_dilate, "affine image of the minimal pattern"
    )
    sub.add_argument("--shift", type=int, required=True)
    sub.add_argument("--scale", type=int, required=True)

    sub = _command(psubs, "primes apset", _cmd_primes_apset, "embed the minimal pattern in an AP")
    sub.add_argument("--first", type=int, required=True)
    sub.add_argument("--diff", type=int, required=True)
    sub.add_argument("--length", type=int, required=True)

    sub = _command(psubs, "primes mstd", _cmd_primes_mstd, "MSTD prime sets from tuple matches")
    sub.add_argument("--upto", type=_count, required=True)

    sub = _command(subs, "reproduce", _cmd_reproduce, "pinned result pipelines")
    sub.add_argument("claim", choices=CLAIM_IDS)
    sub.add_argument("--samples", type=_count, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        budget = getattr(args, "budget", None)  # refused before any ground is built
        if budget is not None and budget < 1:
            raise DomainError(f"budget must be >= 1, got {budget}")
        report = args.handler(args)
    except (DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = report if isinstance(report, dict) else report.to_dict()
    _emit(payload)
    # a claim that fails its check still prints its report
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
