"""Command-line surface: every library operation as a subcommand.

Each handler returns its report: a library result with ``to_dict`` or a
plain dict.  ``main`` prints it, as machine-readable JSON by default
(one object per line) or a flat key/value table with --format table,
and picks the exit code: 0 success, 1 for a claim that failed its
check (``passed`` false; its report is still printed) or a domain or
capacity error (bad values, cap exceeded; one stderr line, no report),
2 usage error (unknown command, unparseable arguments).  Stochastic
commands echo their seed so reports are reproducible artifacts.

Set inputs are inline comma lists ("0,2,3") or @file references (one
integer per line).  Sequences use a small grammar:
fibonacci | geometric:c,r,d | recurrence:c1,..:s1,.. | explicit:e1,e2,..
Defaults for the global flags can also come from a config file of
key=value lines (--config), with command-line flags winning.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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
from .sets import (
    DEFAULT_DIAMETER_CAP,
    IntSet,
    append_analysis,
    base_expansion,
    classify,
    diffset,
    sumset,
)

_GLOBAL_DEFAULTS = {
    "format": "json",
    "seed": 0,
    "threads": 1,
    "budget": None,  # library defaults apply when unset
    "diameter_cap": DEFAULT_DIAMETER_CAP,
}


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


def _nonnegative_count(text: str) -> int:
    value = _count(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative count: {text!r}")
    return value


def _emit(payload: dict, fmt: str) -> None:
    # a report may hold integers of more digits than the interpreter turns
    # into text (sequence terms): lift that limit only while printing
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "table":
            _print_table(payload)
        else:
            print(json.dumps(payload))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _print_table(payload: dict, indent: int = 0) -> None:
    pad = " " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_table(value, indent + 2)
        elif isinstance(value, list):
            print(f"{pad}{key}: {json.dumps(value)}")
        else:
            print(f"{pad}{key}: {value}")


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                key = key.strip().lower().replace("-", "_")
                if key not in _GLOBAL_DEFAULTS:
                    raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value.strip() if key == "format" else _config_int(value, path, lineno)
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}")
    return values


def _config_int(value: str, path: str, lineno: int) -> int:
    try:
        return _integral(value)
    except ValueError:
        raise DomainError(f"{path}:{lineno}: expected integer, got {value.strip()!r}")


def _resolve_globals(args) -> dict:
    cfg = dict(_GLOBAL_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    for key in _GLOBAL_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if cfg["format"] not in ("json", "table"):
        raise DomainError(f"unknown format {cfg['format']!r}")
    if cfg["budget"] is not None and cfg["budget"] < 1:
        raise DomainError(f"budget must be >= 1, got {cfg['budget']}")
    return cfg


def _ground_from_args(args) -> IntSet:
    if args.ground is not None:
        return IntSet(args.ground, diameter_cap=None)
    if args.seq is not None:
        if args.terms is None:
            raise DomainError("--seq grounds need --terms")
        return IntSet(materialize(args.seq, args.terms), diameter_cap=None)
    return IntSet(
        (int(p) for p in PrimeSieve(args.primes_upto).primes()), diameter_cap=None
    )


def _budget(cfg, keyword="budget") -> dict:
    """--budget as a keyword argument if given; otherwise the library default applies."""
    return {} if cfg["budget"] is None else {keyword: cfg["budget"]}


# -- handlers: each returns its report, which main prints ---------------

def _cmd_classify(args, cfg):
    return classify(IntSet(args.set, diameter_cap=None), diameter_cap=cfg["diameter_cap"])


def _cmd_sumset(args, cfg):
    return sumset(IntSet(args.set, diameter_cap=None), diameter_cap=cfg["diameter_cap"])


def _cmd_diffset(args, cfg):
    s = IntSet(args.set, diameter_cap=None)
    return {"elements": list(diffset(s, diameter_cap=cfg["diameter_cap"]))}


def _cmd_expand(args, cfg):
    return base_expansion(IntSet(args.set, diameter_cap=None), args.k, diameter_cap=cfg["diameter_cap"])


def _cmd_append(args, cfg):
    return append_analysis(IntSet(args.set, diameter_cap=None), args.x, diameter_cap=cfg["diameter_cap"])


def _cmd_bound(args, cfg):
    s = IntSet(args.set, diameter_cap=None)
    return verify_difference_bound(s, args.x, args.r, diameter_cap=cfg["diameter_cap"])


def _cmd_seq(args, cfg):
    return {"terms": materialize(args.seq, args.terms)}


def _cmd_search(args, cfg):
    ground = _ground_from_args(args)
    mode = args.mode
    if mode == MODE_MONTE_CARLO and not args.special:
        raise DomainError("monte-carlo search needs --special (plain density: the density command)")
    config = SearchConfig(
        ground=ground,
        min_size=args.min_size,
        max_size=args.max_size,
        mode=mode,
        samples=args.samples,
        seed=cfg["seed"],
        objective=args.objective,
        hit_cap=args.hit_cap,
        threads=cfg["threads"],
        **_budget(cfg),
    )
    return special_search(config) if args.special else exhaustive_search(config)


def _cmd_density(args, cfg):
    return monte_carlo_density(
        args.n,
        args.samples,
        seed=cfg["seed"],
        threads=cfg["threads"],
        hit_cap=args.hit_cap,
    )


def _cmd_minimal(args, cfg):
    return minimal_mstd_in(_ground_from_args(args), objective=args.objective, **_budget(cfg))


def _cmd_certify(args, cfg):
    return certify_no_mstd(args.seq, r=args.r, upto=args.upto, **_budget(cfg))


def _cmd_certify_finite(args, cfg):
    return certify_finitely_many(
        args.seq, start=args.start, upto=args.upto, **_budget(cfg, "special_search_budget")
    )


def _cmd_growth(args, cfg):
    return check_growth(args.seq, r=args.r, upto=args.upto, start=args.start)


def _cmd_primes_admissible(args, cfg):
    return is_admissible(PrimeTuple(tuple(args.offsets)))


def _cmd_primes_series(args, cfg):
    return singular_series(PrimeTuple(tuple(args.offsets)), rel_tol=args.tol)


def _cmd_primes_match(args, cfg):
    return match_tuple(
        PrimeTuple(tuple(args.offsets)), args.upto, rel_tol=args.tol, match_cap=args.cap
    )


def _cmd_primes_ap(args, cfg):
    result = find_prime_ap(args.length, args.bound, max_diff=args.max_diff)
    if result is None:
        payload = {"found": False, "first": None, "difference": None}
    else:
        payload = {"found": True, "first": result[0], "difference": result[1]}
    payload["length"] = args.length
    return payload


def _cmd_primes_sieve(args, cfg):
    count, primes = prime_count(args.upto, args.cap)
    return {"limit": args.upto, "count": count, "primes": list(primes)}


def _cmd_primes_dilate(args, cfg):
    hit = dilated_conway(args.shift, args.scale)
    return {**hit.to_dict(), **classify(hit).to_dict()}


def _cmd_primes_apset(args, cfg):
    hit = mstd_in_ap((args.first, args.diff, args.length))
    return {**hit.to_dict(), **classify(hit).to_dict()}


def _cmd_primes_mstd(args, cfg):
    report = match_tuple(PrimeTuple(TUPLE_T), args.upto, match_cap=args.cap)
    return {
        "x": report.x,
        "count": report.count,
        "matches": list(report.matches),
        "sets": [list(dilated_conway(n, 30).elements) for n in report.matches],
    }


def _cmd_reproduce(args, cfg):
    # only an explicit --seed unpins a claim's recorded seed
    return run_claim(
        args.claim,
        samples=args.samples,
        seed=args.seed,
        threads=cfg["threads"],
    )


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


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--threads", type=int, default=None)
    common.add_argument("--budget", type=_count, default=None)
    common.add_argument("--diameter-cap", dest="diameter_cap", type=_count, default=None)
    common.add_argument("--config", default=None, help="key=value defaults file")

    parser = _Parser(
        prog="mstd",
        description="Sumset vs difference-set toolkit: classification, certificates, searches, prime constellations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", parents=[common], help="sum/difference census of a set")
    sub.add_argument("set", type=_int_list)
    sub.set_defaults(handler=_cmd_classify)

    sub = subs.add_parser("sumset", parents=[common], help="A+A")
    sub.add_argument("set", type=_int_list)
    sub.set_defaults(handler=_cmd_sumset)

    sub = subs.add_parser("diffset", parents=[common], help="A-A")
    sub.add_argument("set", type=_int_list)
    sub.set_defaults(handler=_cmd_diffset)

    sub = subs.add_parser("expand", parents=[common], help="carry-free base expansion")
    sub.add_argument("set", type=_int_list)
    sub.add_argument("k", type=int, help="number of digits")
    sub.set_defaults(handler=_cmd_expand)

    sub = subs.add_parser("append", parents=[common], help="effect of adjoining one element")
    sub.add_argument("set", type=_int_list)
    sub.add_argument("x", type=int, help="element to adjoin")
    sub.set_defaults(handler=_cmd_append)

    sub = subs.add_parser(
        "bound", parents=[common], help="new-sums/new-differences bound for one adjoined element"
    )
    sub.add_argument("set", type=_int_list, help="the set before adjoining")
    sub.add_argument("x", type=int, help="element to adjoin (must exceed max)")
    sub.add_argument("--r", type=int, required=True, help="growth window parameter")
    sub.set_defaults(handler=_cmd_bound)

    sub = subs.add_parser("seq", parents=[common], help="materialize a sequence prefix")
    sub.add_argument("--seq", type=_seq_spec, required=True)
    sub.add_argument("--terms", type=int, required=True)
    sub.set_defaults(handler=_cmd_seq)

    sub = subs.add_parser("search", parents=[common], help="subset search over a ground set")
    _add_ground_options(sub)
    sub.add_argument("--min-size", type=int, default=0)
    sub.add_argument("--max-size", type=int, default=None)
    sub.add_argument("--mode", choices=(MODE_EXHAUSTIVE, MODE_MONTE_CARLO), default=MODE_EXHAUSTIVE)
    sub.add_argument("--samples", type=_count, default=None)
    sub.add_argument("--special", action="store_true", help="require gap >= |subset|")
    sub.add_argument("--objective", choices=("count-all", "first-hit"), default="count-all")
    sub.add_argument("--hit-cap", type=int, default=1000)
    sub.set_defaults(handler=_cmd_search)

    sub = subs.add_parser("density", parents=[common], help="Monte Carlo MSTD density of {0..n}")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--samples", type=_count, required=True)
    sub.add_argument("--hit-cap", type=int, default=1000)
    sub.set_defaults(handler=_cmd_density)

    sub = subs.add_parser("minimal", parents=[common], help="smallest MSTD subset of a ground set")
    _add_ground_options(sub)
    sub.add_argument(
        "--objective",
        choices=("minimize-max-element", "minimize-diameter"),
        default="minimize-max-element",
    )
    sub.set_defaults(handler=_cmd_minimal)

    sub = subs.add_parser("certify", parents=[common], help="no-MSTD-subsets certificate")
    sub.add_argument("--seq", type=_seq_spec, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--upto", type=int, required=True)
    sub.set_defaults(handler=_cmd_certify)

    sub = subs.add_parser(
        "certify-finite", parents=[common], help="finitely-many-MSTD-subsets hypotheses"
    )
    sub.add_argument("--seq", type=_seq_spec, required=True)
    sub.add_argument("--start", type=int, required=True)
    sub.add_argument("--upto", type=int, required=True)
    sub.set_defaults(handler=_cmd_certify_finite)

    sub = subs.add_parser("growth", parents=[common], help="growth-inequality window check")
    sub.add_argument("--seq", type=_seq_spec, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--upto", type=int, required=True)
    sub.add_argument("--start", type=int, default=None)
    sub.set_defaults(handler=_cmd_growth)

    primes = subs.add_parser("primes", help="prime tuple machinery")
    psubs = primes.add_subparsers(dest="primes_command", required=True)

    sub = psubs.add_parser("admissible", parents=[common], help="residue-coverage check")
    sub.add_argument("offsets", type=_int_list)
    sub.set_defaults(handler=_cmd_primes_admissible)

    sub = psubs.add_parser("series", parents=[common], help="singular series value")
    sub.add_argument("offsets", type=_int_list)
    sub.add_argument("--tol", type=float, default=1e-3)
    sub.set_defaults(handler=_cmd_primes_series)

    sub = psubs.add_parser("match", parents=[common], help="count shifts matching the tuple")
    sub.add_argument("offsets", type=_int_list)
    sub.add_argument("--upto", type=_count, required=True)
    sub.add_argument("--tol", type=float, default=1e-3)
    sub.add_argument("--cap", type=_nonnegative_count, default=1000)
    sub.set_defaults(handler=_cmd_primes_match)

    sub = psubs.add_parser("ap", parents=[common], help="prime arithmetic progression")
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--bound", type=_count, required=True)
    sub.add_argument("--max-diff", dest="max_diff", type=_count, default=None)
    sub.set_defaults(handler=_cmd_primes_ap)

    sub = psubs.add_parser("sieve", parents=[common], help="primes up to a limit")
    sub.add_argument("--upto", type=_count, required=True)
    sub.add_argument("--cap", type=_nonnegative_count, default=1000, help="max primes listed")
    sub.set_defaults(handler=_cmd_primes_sieve)

    sub = psubs.add_parser("dilate", parents=[common], help="affine image of the minimal pattern")
    sub.add_argument("--shift", type=int, required=True)
    sub.add_argument("--scale", type=int, required=True)
    sub.set_defaults(handler=_cmd_primes_dilate)

    sub = psubs.add_parser("apset", parents=[common], help="embed the minimal pattern in an AP")
    sub.add_argument("--first", type=int, required=True)
    sub.add_argument("--diff", type=int, required=True)
    sub.add_argument("--length", type=int, required=True)
    sub.set_defaults(handler=_cmd_primes_apset)

    sub = psubs.add_parser("mstd", parents=[common], help="MSTD prime sets from tuple matches")
    sub.add_argument("--upto", type=_count, required=True)
    sub.add_argument("--cap", type=_nonnegative_count, default=1000)
    sub.set_defaults(handler=_cmd_primes_mstd)

    sub = subs.add_parser("reproduce", parents=[common], help="pinned result pipelines")
    sub.add_argument("claim", choices=CLAIM_IDS)
    sub.add_argument("--samples", type=_count, default=None)
    sub.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_globals(args)
        report = args.handler(args, cfg)
    except (DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = report if isinstance(report, dict) else report.to_dict()
    _emit(payload, cfg["format"])
    # a claim that fails its check still prints its report
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
