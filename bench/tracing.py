"""Per-layer tracing from outside the package.

A traced pass wraps the public functions of each module of `parikh`.
A function imported by name into several modules is wrapped in every
namespace that holds it (found by identity), so `windows.RegularMembership`
and `membership.RegularMembership`, or `membership.nonneg_integer_solve`
and `intlinalg.nonneg_integer_solve`, report as one layer.  Classes are
wrapped on their methods.  Nothing is installed in an untraced pass.

Each wrapped call is a span (name, start, end, parent span) kept in
memory and written out when the pass ends.  A span's self time is its
duration minus the durations of its child spans.  The two hottest
leaves, `Grammar.transitions_from` and `RegularMembership.result`, are
counted and timed but keep no span record, so that a pass with 10^5
point queries stays small in memory; their time is still subtracted
from their parent's self time.  `Vec` construction is counted only.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from parikh import (
    bundles,
    cli,
    decomposition,
    grammar,
    intlinalg,
    membership,
    runs,
    semilinear,
    vector,
    windows,
)


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list = []  # [span index or -1, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def wrap(self, name, fn, keep=True, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            index = -1
            if keep:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += took
                if keep:
                    tracer.spans[index] = (name, start, end, parent[0] if parent else -1)
                tracer.self_s[name] += took - frame[1]
                tracer.counts[name] += 1
            if after is not None:
                after(tracer.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.recording:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def counted_iter(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.recording:
                    tracer.counts[name] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _add(key, measure):
    def after(counts, result):
        counts[key] += measure(result)
    return after


def _patch_everywhere(original, replacement) -> None:
    """Rebind every module-level name in the package that is `original`."""
    for name, mod in list(sys.modules.items()):
        if name != "parikh" and not name.startswith("parikh."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


# (module, function name, span name, keep span record, after-call counter)
FUNCTIONS = [
    (cli, "main", "cli.main", True, None),
    (grammar, "parse_grammar", "grammar.parse_grammar", True, None),
    (grammar, "normalize", "grammar.normalize", True, None),
    (membership, "oracle_language", "membership.oracle_language", True,
     _add("membership.oracle_vectors", len)),
    (runs, "enumerate_runs", "runs.enumerate_runs", True,
     lambda counts, r: counts.update({"runs.runs_found": len(r.runs),
                                      "runs.enumerate_capped": int(r.capped)})),
    (runs, "enumerate_simple_cycles", "runs.enumerate_simple_cycles", True,
     _add("runs.simple_cycles_found", len)),
    (runs, "is_run", "runs.is_run", True, None),
    (runs, "order_subrun", "runs.order_subrun", True, None),
    (decomposition, "decompose_run", "decomposition.decompose_run", True,
     _add("decomposition.cycle_terms", lambda d: len(d.cycles))),
    (intlinalg, "is_linearly_independent", "intlinalg.is_linearly_independent", True, None),
    (intlinalg, "nonneg_integer_solve", "intlinalg.nonneg_integer_solve", True,
     _add("intlinalg.nonneg_solve_hits", lambda r: r is not None)),
    (intlinalg, "determinant", "intlinalg.determinant", True, None),
    (windows, "compare_within_window", "windows.compare_within_window", True, None),
    (windows, "universality_within_window", "windows.universality_within_window", True, None),
    (bundles, "two_letter_bundles", "bundles.two_letter_bundles", True,
     _add("bundles.bundles_found", lambda r: len(r.bundles))),
    (semilinear, "linear_member", "semilinear.linear_member", True, None),
]

# (class, method, span name, keep span record, after-call counter)
METHODS = [
    (grammar.Grammar, "transitions_from", "grammar.transitions_from", False, None),
    (membership.RegularMembership, "__init__", "membership.regular_build", True, None),
    (membership.RegularMembership, "result", "membership.regular_query", False,
     _add("membership.regular_hits", lambda r: r.status == membership.MEMBER)),
    (membership.GeneralMembership, "__init__", "membership.general_build", True, None),
    (membership.GeneralMembership, "result", "membership.general_query", True,
     _add("membership.general_hits", lambda r: r.status == membership.MEMBER)),
]


def install() -> Tracer:
    """Wrap every traced entry point; returns the (not yet recording) tracer."""
    tracer = Tracer()
    for mod, attr, name, keep, after in FUNCTIONS:
        original = getattr(mod, attr)
        _patch_everywhere(original, tracer.wrap(name, original, keep, after))
    for cls, attr, name, keep, after in METHODS:
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], keep, after))
    vec_init = vector.Vec.__dict__["__init__"]
    vector.Vec.__init__ = tracer.counter("vector.Vec", vec_init)
    iter_window = windows.iter_window
    _patch_everywhere(iter_window, tracer.counted_iter("windows.points", iter_window))
    return tracer


def _self(*names):
    return lambda t: sum(t.self_s.get(n, 0.0) for n in names)


def _count(name):
    return lambda t: t.counts.get(name, 0)


# per-layer metric -> how it is read off a tracer (units in metrics.py)
READERS = {
    "cli.self_s": _self("cli.main"),
    "cli.commands": _count("cli.main"),
    "grammar.parse_s": _self("grammar.parse_grammar"),
    "grammar.normalize_s": _self("grammar.normalize"),
    "grammar.transitions_from_calls": _count("grammar.transitions_from"),
    "grammar.transitions_from_s": _self("grammar.transitions_from"),
    "vector.vec_constructed": _count("vector.Vec"),
    "membership.oracle_s": _self("membership.oracle_language"),
    "membership.oracle_calls": _count("membership.oracle_language"),
    "membership.oracle_vectors": _count("membership.oracle_vectors"),
    "membership.regular_build_s": _self("membership.regular_build"),
    "membership.regular_builds": _count("membership.regular_build"),
    "membership.regular_query_s": _self("membership.regular_query"),
    "membership.regular_queries": _count("membership.regular_query"),
    "membership.regular_hits": _count("membership.regular_hits"),
    "membership.general_build_s": _self("membership.general_build"),
    "membership.general_query_s": _self("membership.general_query"),
    "membership.general_hits": _count("membership.general_hits"),
    "runs.enumerate_runs_s": _self("runs.enumerate_runs"),
    "runs.runs_found": _count("runs.runs_found"),
    "runs.enumerate_capped": _count("runs.enumerate_capped"),
    "runs.simple_cycles_s": _self("runs.enumerate_simple_cycles"),
    "runs.simple_cycles_found": _count("runs.simple_cycles_found"),
    "runs.is_run_calls": _count("runs.is_run"),
    "runs.order_s": _self("runs.order_subrun"),
    "decomposition.decompose_s": _self("decomposition.decompose_run"),
    "decomposition.cycle_terms": _count("decomposition.cycle_terms"),
    "intlinalg.independence_checks": _count("intlinalg.is_linearly_independent"),
    "intlinalg.independence_s": _self("intlinalg.is_linearly_independent"),
    "intlinalg.nonneg_solves": _count("intlinalg.nonneg_integer_solve"),
    "intlinalg.nonneg_solve_hits": _count("intlinalg.nonneg_solve_hits"),
    "intlinalg.determinants": _count("intlinalg.determinant"),
    "windows.sweep_s": _self("windows.compare_within_window",
                             "windows.universality_within_window"),
    "windows.points": _count("windows.points"),
    "bundles.two_letter_s": _self("bundles.two_letter_bundles"),
    "bundles.bundles_found": _count("bundles.bundles_found"),
    "semilinear.linear_member_calls": _count("semilinear.linear_member"),
}


def read_metrics(tracer: Tracer) -> dict:
    return {name: read(tracer) for name, read in READERS.items()}
