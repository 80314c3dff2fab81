"""Spans recorded around the calls into each mstd module.

The tracer patches module attributes from outside the library: the
entry points the benchmark calls, the references one module holds to
another (``mstd.sequences.exhaustive_search``), and the kernel
reference ``sum_diff_counts`` held by ``mstd.search`` and
``mstd.sequences``.  Kernel calls are too many for one span each (the
minimal search makes ~2M), so they are aggregated per phase and charged
to the innermost open span.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import mstd.cli
import mstd.primes
import mstd.reproduce
import mstd.search
import mstd.sequences
import mstd.sets

# (module, attribute) pairs wrapped in a span named after the callee,
# "<defining module>.<function>": mstd.sequences.exhaustive_search is
# search's function, so its span is "search.exhaustive_search".
_SPANNED = [
    (mstd.search, "monte_carlo_density"),
    (mstd.search, "special_search"),
    (mstd.search, "exhaustive_search"),
    (mstd.search, "minimal_mstd_in"),
    (mstd.search, "min_mstd_diameter"),
    (mstd.sequences, "certify_no_mstd"),
    (mstd.sequences, "check_growth"),
    (mstd.sequences, "exhaustive_search"),
    (mstd.primes, "match_tuple"),
    (mstd.primes, "singular_series"),
    (mstd.primes, "find_prime_ap"),
    (mstd.primes, "dilated_conway"),
    (mstd.primes, "is_admissible"),
    (mstd.sets, "classify"),
    (mstd.reproduce, "run_claim"),
    (mstd.cli, "main"),
]
_KERNEL_REFS = [mstd.search, mstd.sequences]


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans and kernel aggregates for one benchmark run.

    ``corrupt`` replaces each kernel result before the engines see it;
    the benchmark's self-test uses it to prove that a wrong kernel is
    caught by the checks.
    """

    def __init__(self, run_id: str, corrupt=None):
        self.run_id = run_id
        self.corrupt = corrupt
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.phase = None
        self.pass_index = None
        self.kernel = defaultdict(lambda: [0, 0.0])  # phase -> [calls, busy_s]
        self._saved = []

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "run": self.run_id,
            "pass": self.pass_index,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
            "kernel_calls": 0,
            "kernel_s": 0.0,
            **attrs,
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def _counted(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            agg = self.kernel[self.phase]
            agg[0] += 1
            agg[1] += dt
            if self.stack:
                top = self.stack[-1]
                top["kernel_calls"] += 1
                top["kernel_s"] += dt
            return result if self.corrupt is None else self.corrupt(args[0], result)

        return kernel

    def _sieve_class(self):
        tracer = self
        base = mstd.primes.PrimeSieve

        class TracedSieve(base):
            __slots__ = ()

            def __init__(self, limit):
                span = tracer.open("primes.PrimeSieve", computed_bytes=max(int(limit) + 1, 0))
                try:
                    super().__init__(limit)
                finally:
                    tracer.close(span)

        return TracedSieve

    def install(self) -> None:
        patches = [(m, attr, self._spanned(_span_name(getattr(m, attr)), getattr(m, attr))) for m, attr in _SPANNED]
        patches += [(m, "sum_diff_counts", self._counted(m.sum_diff_counts)) for m in _KERNEL_REFS]
        patches.append((mstd.primes, "PrimeSieve", self._sieve_class()))
        for module, attr, replacement in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def self_time(self, span: dict) -> float:
        """Span duration minus its child spans and the kernel calls it made."""
        inner = sum(c["end"] - c["start"] for c in self.children(span))
        return span["end"] - span["start"] - inner - span["kernel_s"]

    def self_by_layer(self, passes: int) -> dict:
        """Per layer: span durations minus child spans and kernel calls.

        Spans of the repeated passes count as one average pass; spans
        outside the passes (claims, the CLI call) count once.  Kernel
        time is charged to ``sets``, the layer that ran it.
        """
        inner = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                inner[span["parent"]] += span["end"] - span["start"]
        totals = defaultdict(float)
        for span in self.spans:
            weight = 1 / passes if span["pass"] is not None else 1
            own = span["end"] - span["start"] - inner[span["id"]] - span["kernel_s"]
            totals[span["name"].split(".", 1)[0]] += weight * own
            totals["sets"] += weight * span["kernel_s"]
        return totals

    def named(self, name: str, phase: str | None = None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and (phase is None or s["phase"] == phase)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)
