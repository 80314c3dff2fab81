"""CLI surface: parsing, output formats, exit codes, reproducibility."""

import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from mstd import cli
from mstd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- every subcommand through one report path ----------------------------

# One small, fast case per subcommand, keyed by its name as typed.
SUBCOMMANDS = {
    "classify": ["classify", "0,2,3,4,7,11,12,14"],
    "sumset": ["sumset", "0,1,3"],
    "diffset": ["diffset", "0,1,3"],
    "expand": ["expand", "0,1", "2"],
    "append": ["append", "0,2,3,4,7,11,12,14", "100"],
    "bound": ["bound", "1,2,4,8,16,32,64,128,256,512", "2000", "--r", "3"],
    "seq": ["seq", "--seq", "fibonacci", "--terms", "10"],
    "search": ["search", "--ground", "0..15", "--min-size", "8", "--max-size", "8"],
    "density": ["density", "--n", "20", "--samples", "1000", "--seed", "1"],
    "minimal": ["minimal", "--ground", "0..15"],
    "certify": ["certify", "--seq", "explicit:0..14", "--r", "3", "--upto", "15"],
    "certify-finite": ["certify-finite", "--seq", "fibonacci", "--start", "4", "--upto", "20", "--budget", "1000"],
    "growth": ["growth", "--seq", "fibonacci", "--r", "2", "--upto", "20"],
    "primes admissible": ["primes", "admissible", "0,60,90,120,210,330,360,420"],
    "primes series": ["primes", "series", "0,2,6"],
    "primes match": ["primes", "match", "0,2", "--upto", "1000"],
    "primes ap": ["primes", "ap", "--length", "3", "--bound", "100"],
    "primes sieve": ["primes", "sieve", "--upto", "100"],
    "primes dilate": ["primes", "dilate", "--shift", "19", "--scale", "30"],
    "primes apset": ["primes", "apset", "--first", "7", "--diff", "30", "--length", "15"],
    "primes mstd": ["primes", "mstd", "--upto", "1e4"],
    "reproduce": ["reproduce", "conway-counts"],
}


def _subcommand_names(parser, prefix=""):
    for action in parser._subparsers._group_actions:
        for name, sub in action.choices.items():
            if sub._subparsers is None:
                yield prefix + name
            else:
                yield from _subcommand_names(sub, f"{prefix}{name} ")


def test_subcommand_table_lists_every_subcommand():
    assert sorted(_subcommand_names(cli.build_parser())) == sorted(SUBCOMMANDS)


# The common flags each subcommand's handler reads, written from the
# handlers, not from the parser.  --diameter-cap and --config, flags that
# are gone, stay in COMMON_FLAGS with no readers, so every subcommand
# refuses them.
READS = {
    "search": {"--seed", "--threads", "--budget"},
    "density": {"--seed", "--threads"},
    "reproduce": {"--seed", "--threads"},
    "minimal": {"--budget"},
    "certify": {"--budget"},
    "certify-finite": {"--budget"},
}
# a value each read shows: --seed 5 and --budget 1 change the report,
# --threads 0 exits 1 (and so do --seed and --threads on a pinned claim)
COMMON_FLAGS = {"--seed": "5", "--threads": "0", "--budget": "1", "--diameter-cap": "12345", "--config": "mstd.conf"}


@pytest.mark.parametrize("flag", list(COMMON_FLAGS))
@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_each_subcommand_accepts_only_the_common_flags_it_reads(capsys, monkeypatch, name, flag):
    argv = [*SUBCOMMANDS[name], flag, COMMON_FLAGS[flag]]
    if flag not in READS.get(name, ()):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.count("\n") == 1 and f"unrecognized arguments: {flag}" in captured.err
    else:
        assert run(capsys, *argv) != run(capsys, *SUBCOMMANDS[name])


@pytest.mark.parametrize("argv", list(SUBCOMMANDS.values()), ids=list(SUBCOMMANDS))
def test_every_subcommand_prints_one_report_in_both_formats(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert isinstance(report, dict) and report
    code, out, err = run(capsys, *argv, "--format", "table")
    assert (code, err) == (0, "")
    top = [line for line in out.splitlines() if not line.startswith(" ")]
    assert [line.partition(":")[0] for line in top] == list(report)
    assert all(line.startswith(f"{key}:") for line, key in zip(top, report))


def test_every_report_class_survives_a_json_round_trip():
    # the table printer shows only lists through json.dumps, so a tuple
    # or an int key left in a report would change the table silently
    from mstd import (
        CONWAY, IntSet, PrimeTuple, SequenceSpec, append_analysis, base_expansion, certify_finitely_many,
        certify_no_mstd, check_growth, classify, is_admissible, singular_series, verify_difference_bound,
    )
    from mstd.sets import Report

    s3 = list(base_expansion(IntSet(CONWAY), 3).elements)
    reports = [
        classify(IntSet(CONWAY)),
        append_analysis(IntSet(CONWAY), 100),
        is_admissible(PrimeTuple((0, 2, 4))),
        singular_series(PrimeTuple((0, 2, 6))),
        check_growth(SequenceSpec.fibonacci(), 2, 20),
        certify_no_mstd(SequenceSpec.explicit(list(range(15))), 3, 15),
        verify_difference_bound(IntSet([2**k for k in range(10)]), 2000, 3),
        certify_finitely_many(SequenceSpec.explicit(s3), 4, 512),
    ]
    assert {type(r) for r in reports} == set(Report.__subclasses__())
    for report in reports:
        data = report.to_dict()
        assert list(data) == list(report.__dataclass_fields__)
        assert json.loads(json.dumps(data)) == data, type(report).__name__


# -- basic commands ------------------------------------------------------

def test_classify_conway(capsys):
    data = run_json(capsys, "classify", "0,2,3,4,7,11,12,14")
    assert data == {
        "sum_count": 26,
        "diff_count": 25,
        "verdict": "mstd",
        "gap": 1,
        "special": False,
    }


def test_sumset_and_diffset(capsys):
    assert run_json(capsys, "sumset", "0,1,3")["elements"] == [0, 1, 2, 3, 4, 6]
    assert run_json(capsys, "diffset", "0,1,3")["elements"] == [-3, -2, -1, 0, 1, 2, 3]


def test_range_shorthand(capsys):
    data = run_json(capsys, "classify", "0..14")
    assert data["verdict"] == "balanced"


def test_set_from_file(capsys, tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("".join(f"{e}\n" for e in (0, 2, 3, 4, 7, 11, 12, 14)))
    data = run_json(capsys, "classify", f"@{path}")
    assert data["verdict"] == "mstd"


def test_table_format(capsys):
    code, out, _ = run(capsys, "classify", "0,2,3,4,7,11,12,14", "--format", "table")
    assert code == 0
    assert "verdict: mstd" in out
    assert "sum_count: 26" in out


def test_expand_and_append(capsys):
    data = run_json(capsys, "expand", "0,1", "2")
    assert data["elements"] == [0, 1, 3, 4]
    data = run_json(capsys, "append", "0,2,3,4,7,11,12,14", "200")
    assert data["new_sums"] == 9
    assert data["new_diffs"] == 16
    assert data["threshold_met"] is True


def test_bound_command(capsys):
    data = run_json(capsys, "bound", "1,2,4,8,16,32,64,128,256,512", "2000", "--r", "3")
    assert data["verdict"] == "bound-holds"
    assert data["new_diffs"] >= data["set_size"] + 1 >= data["new_sums"]


def test_bound_honours_the_diameter_cap(capsys, monkeypatch):
    # under a cap of 1 the bit kernel cannot hold {0..14}, so the pair
    # kernel counts it, to the same report
    from mstd import sets

    honest, built = sets.SumDiffSets, []
    monkeypatch.setattr(sets, "SumDiffSets", lambda *args: built.append(args) or honest(*args))
    uncapped = run_json(capsys, "bound", "0..13", "14", "--r", "3")
    assert not built
    monkeypatch.setattr(sets, "DEFAULT_DIAMETER_CAP", 1)
    capped = run_json(capsys, "bound", "0..13", "14", "--r", "3")
    assert capped == uncapped and built


def test_seq_command(capsys):
    data = run_json(capsys, "seq", "--seq", "fibonacci", "--terms", "6")
    assert data["terms"] == [0, 1, 2, 3, 5, 8]
    data = run_json(capsys, "seq", "--seq", "geometric:1,3,1", "--terms", "4")
    assert data["terms"] == [4, 10, 28, 82]
    data = run_json(capsys, "seq", "--seq", "recurrence:1,1:4,7", "--terms", "4")
    assert data["terms"] == [4, 7, 11, 18]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_seq_prints_terms_past_the_digit_limit(capsys, fmt):
    # a_k = 10**6 * a_(k-1) + a_(k-2) passes 4300 decimal digits, the
    # interpreter's default limit on int-to-text conversion, near k = 717
    expected = [1, 2]
    while len(expected) < 800:
        expected.append(10**6 * expected[-1] + expected[-2])
    limit = sys.get_int_max_str_digits()
    assert expected[-1].bit_length() > 4300 * 3.33 and limit
    code, out, err = run(capsys, "seq", "--seq", "recurrence:1000000,1:1,2", "--terms", "800", "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # lifted only while printing
    sys.set_int_max_str_digits(0)
    try:
        terms = json.loads(out)["terms"] if fmt == "json" else json.loads(out.removeprefix("terms: "))
    finally:
        sys.set_int_max_str_digits(limit)
    assert terms == expected


# -- search family -------------------------------------------------------

def test_search_exhaustive(capsys):
    data = run_json(capsys, "search", "--ground", "0..14", "--max-size", "7")
    assert data["hit_count"] == 0
    assert data["exhausted"] is True


def test_search_first_hit(capsys):
    data = run_json(
        capsys, "search", "--ground", "0..14", "--min-size", "8",
        "--max-size", "8", "--objective", "first-hit",
    )
    assert data["hits"] == [[0, 2, 3, 4, 7, 11, 12, 14]]


def test_search_ground_from_sequence(capsys):
    data = run_json(capsys, "search", "--seq", "fibonacci", "--terms", "14")
    assert data["hit_count"] == 0


def test_search_rejects_first_hit_in_monte_carlo(capsys):
    code, out, err = run(
        capsys, "search", "--ground", "0..20", "--mode", "monte-carlo", "--special",
        "--objective", "first-hit", "--samples", "2000",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "first-hit" in err


def test_search_rejects_negative_max_size(capsys):
    code, out, err = run(capsys, "search", "--ground", "0..14", "--max-size", "-1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "max_size" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--ground", "0..15", "--min-size", "8", "--max-size", "9", "--hit-cap", "3"],
        ["search", "--ground", "0..15", "--objective", "first-hit", "--budget", "30000"],
        ["search", "--ground", "0..30", "--mode", "monte-carlo", "--special", "--samples", "3000"],
    ],
    ids=["search", "first-hit", "monte-carlo"],
)
def test_thread_count_leaves_stdout_unchanged(capsys, argv):
    serial = run(capsys, *argv, "--threads", "1")
    pooled = run(capsys, *argv, "--threads", "2")
    assert serial[0] == 0, serial[2]
    assert serial == pooled


MONTE_CARLO = ["search", "--ground", "0..30", "--mode", "monte-carlo", "--special", "--samples", "1000"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["search", "--ground", "0..15", "--min-size", "8", "--max-size", "8", "--samples", "5"], "--samples"),
        ([*MONTE_CARLO, "--min-size", "5"], "--min-size"),
        ([*MONTE_CARLO, "--max-size", "6"], "--max-size"),
        ([*MONTE_CARLO, "--budget", "3"], "--budget"),
        (["search", "--ground", "0..15", "--terms", "5"], "--terms"),
        (["minimal", "--ground", "0..15", "--terms", "5"], "--terms"),
    ],
    ids=["exhaustive-samples", "monte-carlo-min-size", "monte-carlo-max-size", "monte-carlo-budget",
         "search-terms", "minimal-terms"],
)
def test_search_refuses_its_flags_that_the_run_leaves_unread(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error:") and flag in err


def test_search_monte_carlo_needs_special(capsys):
    code, _, err = run(
        capsys, "search", "--ground", "0..30", "--mode", "monte-carlo",
        "--samples", "1000",
    )
    assert code == 1
    assert "special" in err


def test_density_deterministic(capsys):
    first = run_json(capsys, "density", "--n", "40", "--samples", "20000", "--seed", "3")
    second = run_json(capsys, "density", "--n", "40", "--samples", "20000", "--seed", "3")
    assert first == second
    assert first["seed"] == 3


def test_density_scientific_notation_count(capsys):
    data = run_json(capsys, "density", "--n", "10", "--samples", "1e4")
    assert data["hit_count"] == 0


def test_monte_carlo_on_grounds_of_a_thousand_elements(capsys):
    # the census keeps no per-pair state, so grounds past 1023 elements run
    data = run_json(capsys, "density", "--n", "1023", "--samples", "10")
    assert (data["examined"], data["hit_count"]) == (10, 0)
    data = run_json(
        capsys, "search", "--primes-upto", "10000", "--mode", "monte-carlo",
        "--special", "--samples", "20",
    )
    assert (data["examined"], data["hit_count"]) == (20, 0)


def test_minimal_command(capsys):
    data = run_json(
        capsys, "minimal", "--ground", "0..14", "--objective", "minimize-max-element"
    )
    assert data["objective_value"] == 14
    assert data["optimal"] is True


def test_certify_and_growth(capsys):
    data = run_json(capsys, "certify", "--seq", "fibonacci", "--r", "3", "--upto", "40")
    assert data["verdict"] == "certified-no-mstd"
    data = run_json(capsys, "growth", "--seq", "geometric:1,2,0", "--r", "3", "--upto", "50")
    assert data["holds"] is True
    assert data["symbolic"] is True


def test_certify_finite(capsys):
    data = run_json(
        capsys, "certify-finite", "--seq", "fibonacci", "--start", "4", "--upto", "30"
    )
    assert data["verdict"] == "consistent-within-budget"


# -- primes family -------------------------------------------------------

def test_primes_admissible(capsys):
    data = run_json(capsys, "primes", "admissible", "0,60,90,120,210,330,360,420")
    assert data["admissible"] is True
    data = run_json(capsys, "primes", "admissible", "0,2,4")
    assert data["admissible"] is False
    assert data["witness_modulus"] == 3


def test_primes_series(capsys):
    data = run_json(capsys, "primes", "series", "0,2", "--tol", "0.001")
    assert data["value"] == pytest.approx(1.3203, rel=1e-3)


def test_primes_match(capsys):
    data = run_json(capsys, "primes", "match", "0,2", "--upto", "100")
    assert data["count"] == 8
    assert data["matches"] == [3, 5, 11, 17, 29, 41, 59, 71]


def test_scientific_notation_is_read_exactly(capsys):
    # through a float, 1e23 would be 99999999999999991611392
    code, out, err = run(capsys, "primes", "sieve", "--upto", "1e23")
    assert (code, out) == (1, "")
    assert f"sieve limit {10**23} exceeds" in err
    assert run_json(capsys, "primes", "match", "0,2", "--upto", "2.5e3")["x"] == 2500


@pytest.mark.parametrize("value", ["1.5", "1e-3", "nan", "inf", "0e999999999", "1e-999999999"])
def test_non_integral_upto_exits_two(capsys, value):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["primes", "match", "0,2", "--upto", value])
    assert exc.value.code == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--upto" in err


def test_scan_past_the_base_sieve_exits_one(capsys):
    code, out, err = run(capsys, "primes", "match", "0,2", "--upto", "1e40")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"x + spread = {10**40 + 2} exceeds" in err


def test_scan_past_the_time_limit_exits_one(capsys):
    # 2e11 fits the base sieve, but would scan for about 11 minutes
    started = time.perf_counter()
    code, out, err = run(capsys, "primes", "match", "0,2", "--upto", "2e11")
    assert (code, out) == (1, "")
    assert time.perf_counter() - started < 1
    assert err.count("\n") == 1 and f"exceeds {2**37}; x may be at most {2**37 - 2}" in err


def test_primes_ap(capsys):
    data = run_json(capsys, "primes", "ap", "--length", "10", "--bound", "1000")
    assert data == {"found": True, "first": 199, "difference": 210, "length": 10}
    data = run_json(capsys, "primes", "ap", "--length", "10", "--bound", "100")
    assert data["found"] is False
    # one term is the least prime: no sieve, so no cap on the bound
    data = run_json(capsys, "primes", "ap", "--length", "1", "--bound", "2e8")
    assert data == {"found": True, "first": 2, "difference": 0, "length": 1}


def test_primes_ap_bound_past_the_sieve_cap(capsys):
    # the first terms are searched in doubling steps, so a small answer
    # needs no sieve to the bound
    data = run_json(capsys, "primes", "ap", "--length", "2", "--bound", "2e8")
    assert data == {"found": True, "first": 2, "difference": 1, "length": 2}


def test_primes_sieve_dilate_apset(capsys):
    data = run_json(capsys, "primes", "sieve", "--upto", "20")
    assert data["primes"] == [2, 3, 5, 7, 11, 13, 17, 19]
    data = run_json(capsys, "primes", "dilate", "--shift", "19", "--scale", "30")
    assert data["elements"] == [19, 79, 109, 139, 229, 349, 379, 439]
    data = run_json(
        capsys, "primes", "apset", "--first", "0", "--diff", "1", "--length", "15"
    )
    assert data["elements"] == [0, 2, 3, 4, 7, 11, 12, 14]


def test_primes_mstd_pipeline(capsys):
    data = run_json(capsys, "primes", "mstd", "--upto", "10000", "--cap", "2")
    assert data["matches"][0] == 19
    assert data["sets"][0] == [19, 79, 109, 139, 229, 349, 379, 439]


def test_search_ground_from_primes(capsys):
    data = run_json(
        capsys, "search", "--primes-upto", "439", "--min-size", "8", "--max-size", "8",
        "--budget", "200000",
    )
    assert data["exhausted"] is False  # C(85,8) is far beyond this budget


# -- reproduce -----------------------------------------------------------

def test_reproduce_fast_claims(capsys):
    for claim in ("conway-counts", "tuple-T-admissible", "p19-prime-mstd"):
        data = run_json(capsys, "reproduce", claim)
        assert data["passed"] is True, claim


def test_reproduce_density_with_overridden_samples(capsys):
    data = run_json(capsys, "reproduce", "density-4.5e-4", "--samples", "1e5")
    assert data["passed"] is True
    assert data["measured"]["samples"] == 100_000
    assert data["measured"]["seed"] == 1  # pinned seed survives the override
    assert data["params"]["samples"] == 100_000


@pytest.mark.parametrize("claim", ["conway-counts", "min-size-8", "tuple-T-1e9"])
def test_pinned_claims_refuse_overrides(capsys, claim):
    # only the density claim takes --samples, --seed and --threads; any
    # other claim exits 1 before it runs instead of printing its pinned report
    for override in (["--samples", "5"], ["--seed", "3"], ["--samples", "5", "--seed", "3"], ["--threads", "2"]):
        code, out, err = run(capsys, "reproduce", claim, *override)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:") and "pinned" in err


def test_tuple_t_claim_window_is_two_poisson_sds(capsys, monkeypatch):
    # the pinned x = 1e9 takes seconds; the pass rule is the same at 1e6
    from mstd import reproduce

    monkeypatch.setitem(reproduce.MANIFEST["tuple-T-1e9"], "x", 10**6)
    data = run_json(capsys, "reproduce", "tuple-T-1e9")
    measured = data["measured"]
    lo, hi = measured["window"]
    sd = measured["predicted"] ** 0.5
    assert (lo, hi) == pytest.approx((measured["predicted"] - 2 * sd, measured["predicted"] + 2 * sd))
    assert data["passed"] is (lo <= measured["count"] <= hi)
    assert data["expected"] == {"poisson_sds": 2, "regression_count": 219}


def test_failed_claim_prints_its_report_and_exits_one(capsys):
    # no count k of 1000 samples has k/1000 in the claim's window, so
    # the claim fails whatever the sampler draws
    from mstd.reproduce import MANIFEST

    lo, hi = MANIFEST["density-4.5e-4"]["window"]
    assert not any(lo <= k / 1000 <= hi for k in range(1001))
    code, out, err = run(capsys, "reproduce", "density-4.5e-4", "--samples", "1000")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["passed"] is False


def test_reproduce_unknown_claim_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "warp-drive"])
    assert exc.value.code == 2


# -- exit codes ----------------------------------------------------------

def test_domain_error_exits_one(capsys):
    code, _, err = run(capsys, "classify", "1,1,2")
    assert code == 1
    assert err.startswith("error:")
    for argv, word in (
        (["search", "--seq", "fibonacci"], "--terms"),
        (["primes", "ap", "--length", "2", "--bound", "10", "--max-diff", "-5"], "max_diff"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:") and word in err


def test_series_past_the_float_range_exits_one(capsys):
    # the first 450 primes past 450 as offsets: the series' log passes
    # log(max float); match computes the series first
    offsets = ",".join(map(str, [p for p in range(451, 4000) if all(p % d for d in range(2, p))][:450]))
    for argv in (["primes", "series", offsets], ["primes", "match", offsets, "--upto", "1000"]):
        code, out, err = run(capsys, *argv, "--tol", "0.1")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:") and "float range" in err
        log_value = float(err.partition("exp(")[2].partition(")")[0])
        assert log_value > math.log(sys.float_info.max)


def test_capacity_error_exits_one(capsys):
    # the expansion's diameter 14*(29^6-1)/28 exceeds the default 2^24 cap
    code, _, err = run(capsys, "expand", "0,2,3,4,7,11,12,14", "6")
    assert code == 1
    assert "error:" in err
    # 14*(29^5-1)/28 does not: 8^5 elements
    assert len(run_json(capsys, "expand", "0,2,3,4,7,11,12,14", "5")["elements"]) == 8**5


@pytest.mark.parametrize("k", ["10000", "100000000"])
def test_expansion_past_the_cap_exits_one_at_once(capsys, k):
    # 3**k has about 0.48 * k digits: it must be refused from bit lengths,
    # before the power is formed, and the message must not print it
    started = time.perf_counter()
    code, out, err = run(capsys, "expand", "0,1", k)
    assert time.perf_counter() - started < 1
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--n", "10", "--samples", "10", "--seed", "-1"],
        ["search", "--ground", "0..20", "--mode", "monte-carlo", "--special", "--samples", "10", "--seed", "-5"],
        ["reproduce", "density-4.5e-4", "--samples", "10", "--seed", "-2"],
    ],
    ids=["density", "search", "reproduce"],
)
def test_negative_monte_carlo_seed_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error:")


def test_density_past_the_census_bound_exits_one_before_the_ground(capsys, monkeypatch):
    from mstd import search

    def no_ground(*args, **kwargs):
        raise AssertionError("the ground was built")

    monkeypatch.setattr(search, "IntSet", no_ground)
    # the census bound is the one rule: its element pairs from n = 8191,
    # its bytes too at and past n = 2^24
    for n in ("8191", "16777216", "16777217"):
        code, out, err = run(capsys, "density", "--n", n, "--samples", "1")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:") and "census block" in err


def test_exhaustive_search_echoes_a_negative_seed(capsys):
    assert run_json(capsys, "search", "--ground", "0..15", "--max-size", "3", "--seed", "-5")["seed"] == -5


def _naive_sums(elements):
    return sorted({a + b for a in elements for b in elements})


def _naive_diffs(elements):
    return sorted({a - b for a in elements for b in elements})


def _naive_census(elements):
    sums, diffs = _naive_sums(elements), _naive_diffs(elements)
    gap = len(sums) - len(diffs)
    verdict = "mstd" if gap > 0 else "balanced" if gap == 0 else "diff_dominated"
    return {
        "sum_count": len(sums),
        "diff_count": len(diffs),
        "verdict": verdict,
        "gap": gap,
        "special": gap >= len(elements),
    }


def _naive_append(elements, x):
    before, after = _naive_census(elements), _naive_census(elements + [x])
    return {
        "new_sums": after["sum_count"] - before["sum_count"],
        "new_diffs": after["diff_count"] - before["diff_count"],
        "threshold_met": x >= 2 * sum(elements),
        "before": before,
        "after": after,
    }


@pytest.mark.parametrize(
    "argv, cap, expected",
    [
        (["sumset", "100000000,100000001"], None, {"elements": _naive_sums([10**8, 10**8 + 1])}),
        (["classify", "0,1,40000000"], None, _naive_census([0, 1, 40_000_000])),
        (["diffset", "0,20000000"], None, {"elements": _naive_diffs([0, 20_000_000])}),
        (
            ["append", "0,2,3,4,7,11,12,14", "20000000"],
            None,
            _naive_append([0, 2, 3, 4, 7, 11, 12, 14], 20_000_000),
        ),
        (["classify", "0,20000000"], 1_000_000, _naive_census([0, 20_000_000])),
    ],
    ids=["sumset", "classify", "diffset", "append", "classify-cap"],
)
def test_wide_sets_fall_back_to_pairs(capsys, monkeypatch, argv, cap, expected):
    if cap is not None:
        from mstd import sets

        monkeypatch.setattr(sets, "DEFAULT_DIAMETER_CAP", cap)
    assert run_json(capsys, *argv) == expected


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "2.5", "1e-3"])
def test_non_finite_count_flag_exits_two(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["density", "--n", "10", "--samples", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--samples" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_budget_below_one_exits_one(capsys, value):
    for name in ("search", "minimal", "certify", "certify-finite"):
        code, out, err = run(capsys, *SUBCOMMANDS[name], "--budget", value)
        assert (code, out, err) == (1, "", f"error: budget must be >= 1, got {value}\n"), name


@pytest.mark.parametrize(
    "flag, value",
    [("--budget", "0.5"), ("--budget", "1e400"), ("--seed", "2.5"), ("--seed", "1e999"), ("--seed", "-1e999"),
     ("--threads", "-1e400")],
)
def test_malformed_common_flag_value_exits_two(capsys, flag, value):
    # flag=value, so argparse hands a negative value to the flag's type
    # rather than reading it as an option
    for name in (name for name, flags in READS.items() if flag in flags):
        with pytest.raises(SystemExit) as exc:
            main([*SUBCOMMANDS[name], f"{flag}={value}"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, ""), name
        assert captured.err.count("\n") == 1 and f"argument {flag}: " in captured.err, name
        assert captured.err.endswith(f": '{value}'\n"), name


@pytest.mark.parametrize(
    "argv",
    [
        ["primes", "match", "0,2", "--upto", "100", "--cap", "-1"],
        ["primes", "sieve", "--upto", "100", "--cap", "-2"],
        ["primes", "mstd", "--upto", "10000", "--cap", "-1"],
    ],
    ids=["match", "sieve", "mstd"],
)
def test_negative_cap_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--cap" in captured.err
    assert "Traceback" not in captured.err


def test_missing_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2


def test_huge_range_exits_two_before_expanding(capsys, monkeypatch):
    def bounded_range(*args):
        # a range past the cap is never built, even if the guard breaks
        assert len(range(*args)) <= cli.INT_LIST_RANGE_CAP
        return range(*args)

    monkeypatch.setattr(cli, "range", bounded_range, raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["search", "--ground", "0..1000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.strip().splitlines()) == 1 and "0..1000000000" in err
    assert peak < 2**20
    # ranges count together, and a list of exactly the cap is allowed
    monkeypatch.setattr(cli, "INT_LIST_RANGE_CAP", 10)
    assert cli._int_list("0..9") == list(range(10))
    assert cli._int_list("0..4,20,6..9") == [0, 1, 2, 3, 4, 20, 6, 7, 8, 9]
    for text in ("0..10", "0..4,5..10", "3,0..9"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", text])
        assert exc.value.code == 2


def run_limited(argv):
    """``mstd argv`` in a child limited to 1 GiB of address space."""
    pytest.importorskip("resource")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from mstd.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--n", "20000000", "--samples", "1"],
        ["density", "--n", "10000000000", "--samples", "1"],
        ["growth", "--seq", "fibonacci", "--r", "3", "--upto", "100000000"],
        ["search", "--seq", "geometric:1,2,0", "--terms", "100000000", "--max-size", "1"],
        ["classify", "@{ints}"],
        ["certify-finite", "--seq", "fibonacci", "--start", "4", "--upto", "6000"],
    ],
    ids=["density-past-cap", "density-huge", "growth", "search-terms", "classify-spread-out", "certify-finite-pairs"],
)
def test_huge_input_exits_one_under_a_memory_limit(argv, tmp_path):
    # a guard that checks after allocating ends in a MemoryError
    # traceback instead; {ints} is 6000 integers below 10**12, whose
    # pair census would need about 3 GB
    ints = tmp_path / "ints.txt"
    rng = random.Random(6000)
    ints.write_text("\n".join(str(v) for v in rng.sample(range(10**12), 6000)))
    done = run_limited([a.replace("{ints}", str(ints)) for a in argv])
    assert (done.returncode, done.stdout) == (1, ""), done.stderr[-2000:]
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error:")


def test_fibonacci_finiteness_at_1600_terms_fits_a_memory_limit():
    # the prefix pass adjoins one term per prefix: about 2 s and 500 MB;
    # counting every prefix afresh would take minutes
    done = run_limited(["certify-finite", "--seq", "fibonacci", "--start", "4", "--upto", "1600"])
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout)["verdict"] == "consistent-within-budget"


# the 40 primes 47..251 and the prime 24999983: 41 offsets with a spread
# of 24999936, so 1.6M primes lie below the spread
WIDE_OFFSETS = [p for p in range(47, 252) if all(p % d for d in range(2, p))] + [24999983]


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize(
    "argv",
    [["primes", "series", "{wide}", "--tol", "0.1"], ["primes", "match", "{wide}", "--upto", "1000"]],
    ids=["series", "match"],
)
def test_wide_tuple_series_fits_a_memory_limit(argv):
    # one residue table over the primes below the spread took 490 MiB here
    wide = ",".join(map(str, WIDE_OFFSETS))
    done = run_limited([a.replace("{wide}", wide) for a in argv])
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout)
    offsets = [b - WIDE_OFFSETS[0] for b in WIDE_OFFSETS]
    if argv[1] == "series":
        assert len(WIDE_OFFSETS) == 41 and report["value"] > 0
        small = [p for p in range(2, 42) if all(p % d for d in range(2, p))]
        assert report["per_prime_v"] == {str(p): len({b % p for b in offsets}) for p in small}
    else:
        matches = [n for n in range(1, 1001) if all(is_prime(n + b) for b in offsets)]
        assert (report["count"], report["matches"]) == (len(matches), matches)


def test_malformed_set_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "zero,two"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["classify", "5..3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.count("\n") == 1 and "empty range" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify", "0,1"])
    assert exc.value.code == 2


def test_bad_sequence_spec_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--seq", "geometric:one,two", "--terms", "3"])
    assert exc.value.code == 2
