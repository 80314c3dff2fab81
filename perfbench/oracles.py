"""Independent checks of library outputs.

Nothing here imports ``mstd``: every check recomputes its answer by a
different route (ordered-pair enumeration, trial division, a bytearray
sieve, a bit-sliced pair census across many subsets at once) and
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

# The library's Monte Carlo engine draws each chunk of 2**16 samples from
# SeedSequence(seed, spawn_key=(chunk_index,)); its reports are pinned
# to that stream, so the recount regenerates it the same way.
MC_CHUNK = 1 << 16

_BLOCK = 1 << 14  # subsets per census block; bounds the oracle's memory


def naive_counts(elems) -> tuple[int, int]:
    """|A+A| and |A-A| over all ordered pairs."""
    return len({a + b for a in elems for b in elems}), len({a - b for a in elems for b in elems})


def is_mstd(elems) -> bool:
    sc, dc = naive_counts(elems)
    return sc > dc


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0 or n % 3 == 0:
        return n in (2, 3)
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit by trial division (small limits only)."""
    return [n for n in range(2, limit + 1) if is_prime(n)]


def sieve_flags(limit: int) -> np.ndarray:
    """uint8 flags on [0, limit], 1 for primes, from a bytearray sieve."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return np.frombuffer(bytes(flags), dtype=np.uint8)


def census(members: np.ndarray, elems) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|A+A|, |A-A|, |A|) for every row of a boolean membership matrix.

    Row r is the subset {elems[j] : members[r, j]}.  The rows are packed
    64 to a machine word, so one AND per element pair marks that pair's
    sum and difference for 64 subsets at once.
    """
    lo = elems[0]
    offs = [e - lo for e in elems]
    top = offs[-1]
    n = len(offs)
    total = members.shape[0]
    sc = np.empty(total, dtype=np.int64)
    dc = np.empty(total, dtype=np.int64)
    for start in range(0, total, _BLOCK):
        block = members[start : start + _BLOCK]
        rows = block.shape[0]
        words = -(-rows // 64)
        padded = np.zeros((words * 64, n), dtype=bool)
        padded[:rows] = block
        bits = np.packbits(padded, axis=0, bitorder="little").T.copy().view(np.uint64)
        sums = np.zeros((2 * top + 1, words), dtype=np.uint64)
        diffs = np.zeros((top + 1, words), dtype=np.uint64)
        for i in range(n):
            row_i = bits[i]
            for j in range(i, n):
                both = row_i & bits[j]
                sums[offs[i] + offs[j]] |= both
                diffs[offs[j] - offs[i]] |= both

        def per_subset(table):
            flags = np.unpackbits(table.view(np.uint8), axis=1, bitorder="little")
            return flags.sum(axis=0, dtype=np.int64)[:rows]

        sc[start : start + rows] = per_subset(sums)
        dc[start : start + rows] = 2 * per_subset(diffs) - 1
    return sc, dc, members.sum(axis=1, dtype=np.int64)


def _hit_rows(members, elems, special):
    sc, dc, size = census(members, elems)
    hit = (size >= 2) & (sc > dc)
    if special:
        hit &= sc - dc >= size
    return np.flatnonzero(hit)


def _hit_sets(members, rows, elems, cap):
    return [[elems[j] for j in np.flatnonzero(members[r])] for r in rows[:cap]]


def recheck_hits(hits, special=False) -> list[str]:
    problems = []
    for h in hits:
        sc, dc = naive_counts(h)
        if not (sc > dc and (not special or sc - dc >= len(h))):
            problems.append(f"reported hit {h} has counts {sc}/{dc}")
    return problems


def mc_members(seed: int, samples: int, n: int):
    """Yield the Monte Carlo subsets chunk by chunk as membership rows."""
    nbytes = (n + 7) // 8
    for index, start in enumerate(range(0, samples, MC_CHUNK)):
        count = min(MC_CHUNK, samples - start)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
        raw = np.frombuffer(rng.bytes(nbytes * count), dtype=np.uint8).reshape(count, nbytes)
        yield np.unpackbits(raw, axis=1, bitorder="little")[:, :n].astype(bool)


def check_monte_carlo(out, elems, seed, samples, special, hit_cap) -> list[str]:
    """Recount every sampled subset and rebuild the hit list."""
    elems = tuple(elems)
    hit_count = 0
    hits = []
    for members in mc_members(seed, samples, len(elems)):
        rows = _hit_rows(members, elems, special)
        hit_count += len(rows)
        hits += _hit_sets(members, rows, elems, hit_cap - len(hits))
    problems = recheck_hits(out["hits"], special)
    if out["hit_count"] != hit_count:
        problems.append(f"hit_count {out['hit_count']}, recount {hit_count}")
    if out["hits"] != hits:
        problems.append("hit list differs from the recount")
    if out["examined"] != samples or out["density"] != hit_count / samples:
        problems.append("examined/density inconsistent with the sample count")
    return problems


def check_lattice_level(out, elems, size, hit_cap) -> list[str]:
    """Recount every subset of one cardinality of a small ground."""
    elems = tuple(elems)
    n = len(elems)
    total = math.comb(n, size)
    index = np.fromiter(chain.from_iterable(combinations(range(n), size)), dtype=np.int16, count=total * size)
    members = np.zeros((total, n), dtype=bool)
    members[np.repeat(np.arange(total), size), index] = True
    rows = _hit_rows(members, elems, special=False)
    problems = recheck_hits(out["hits"])
    if out["hit_count"] != len(rows):
        problems.append(f"hit_count {out['hit_count']}, recount {len(rows)}")
    if out["hits"] != _hit_sets(members, rows, elems, hit_cap):
        problems.append("hit list differs from the recount")
    if out["examined"] != total or out["exhausted"] is not True:
        problems.append(f"examined {out['examined']} of {total} subsets")
    return problems


def check_geometric_certificate(out, r, upto) -> list[str]:
    """certify_no_mstd on the powers of two 2, 4, ..., 2**upto.

    Distinct pairs of powers of two have distinct sums and distinct
    differences, so a k-subset has k(k+1)/2 sums and k(k-1)+1
    differences: never MSTD, and the certificate must say so after
    scanning every subset of sizes 8..2r+1.
    """
    terms = [2**k for k in range(1, upto + 1)]
    problems = []
    if not all(terms[k] > terms[k - 1] + terms[k - r] for k in range(r, upto)):
        problems.append("growth inequality fails on the window")
    expected = sum(math.comb(upto, s) for s in range(8, 2 * r + 2))
    growth = out["growth"]
    if not (growth["holds"] and growth["symbolic"] and growth["checked_upto"] == upto):
        problems.append(f"growth certificate {growth}")
    if out["verdict"] != "certified-no-mstd" or out["mstd_witness"] is not None:
        problems.append(f"verdict {out['verdict']} witness {out['mstd_witness']}")
    if out["examined"] != expected or not out["small_search_exhausted"]:
        problems.append(f"examined {out['examined']}, expected {expected}")
    return problems


def check_prime_set(values, what) -> list[str]:
    bad = [v for v in values if not is_prime(v)]
    return [f"{what}: {bad[:5]} not prime"] if bad else []


def check_matches(matches, offsets, x) -> list[str]:
    """Every reported shift n <= x has n + b prime for every offset b."""
    problems = []
    for n in matches:
        if not 1 <= n <= x:
            problems.append(f"match {n} outside [1, {x}]")
        problems += check_prime_set([n + b for b in offsets], f"match {n}")
    return problems


def tuple_matches(offsets, x) -> np.ndarray:
    """All shifts n in [1, x] with every n + b prime, from an own sieve."""
    flags = sieve_flags(x + offsets[-1])
    acc = flags[1 : x + 1].copy()
    for b in offsets[1:]:
        acc &= flags[1 + b : x + 1 + b]
    return np.flatnonzero(acc) + 1


def check_series(out, offsets, rel_tol) -> list[str]:
    """Recompute the truncated singular-series product as a sum of logs."""
    m = len(offsets)
    cutoff = out["truncation_prime"]
    problems = []
    if m * m / (cutoff - 1) > rel_tol:
        problems.append(f"truncation at {cutoff} leaves a tail bound above {rel_tol}")
    ps = np.flatnonzero(sieve_flags(cutoff)).astype(np.float64)
    v = np.full(ps.shape, float(m))
    spread = offsets[-1]
    for i, p in enumerate(ps[ps <= spread]):
        v[i] = len({b % int(p) for b in offsets})
    logs = (m - 1) * (np.log(ps) - np.log(ps - 1)) + np.log(ps - v) - np.log(ps - 1)
    value = math.exp(math.fsum(logs.tolist()))
    if not math.isclose(out["value"], value, rel_tol=1e-9):
        problems.append(f"series value {out['value']}, recomputed {value}")
    for p_text, got in out["per_prime_v"].items():
        if got != len({b % int(p_text) for b in offsets}):
            problems.append(f"v({p_text}) = {got}")
    return problems
