"""Transition multisets, the Euler/connectivity check, orderings, and trees.

A multiset of transitions is a *subrun* from marking `s` to marking `t`
when consumption and production balance per nonterminal
(``source(R) - s = target(R) - t``) and every used nonterminal is
reachable from `s` through the used transitions.  Runs, paths, and
cycles are the special cases (to zero, singleton to singleton, and
singleton back to itself).  Any subrun can be fired in some order that
never consumes a missing nonterminal; that ordering also yields a
derivation tree whose per-vertex free-symbol accounting stays
nonnegative.  So one breadth-first firing search, `_fire`, lists every
run (`enumerate_runs`) and every cycle (`iter_cycles`), and a cycle's
splits into two smaller cycles are looked up among those it listed.
The run and simple-cycle listings come as dense per-transition counts
(`dense_runs`, `dense_simple_cycles`), which the multiset listings wrap.
The search keeps only the states that can still finish within its size
cap: each pending nonterminal q still costs at least its least run size
d(q), the least fixpoint of d(q) = min over rules of 1 + sum of
d(targets) (`CompiledGrammar.least_run_sizes`).  `base_run_bound`
returns the bounds of a run's decomposition into a base run plus simple
cycles as one record; its gamma(N) - 1 caps every simple-cycle listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, le, mul, sub
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence

from .grammar import CompiledGrammar, Grammar
from .intlinalg import hadamard_bound
from .vector import Vec


class SearchCapExceeded(RuntimeError):
    """A bounded combinatorial search outgrew its configured cap."""


DEFAULT_STATE_CAP = 500_000


@dataclass(frozen=True)
class TransitionMultiset:
    """Nonnegative multiplicities over a grammar's transition ids."""

    grammar: Grammar
    counts: Vec

    def __post_init__(self):
        for tid, c in self.counts:
            if c < 0:
                raise ValueError(f"negative multiplicity for transition {tid}")
            self.grammar.transition(tid)  # raises on unknown id

    @staticmethod
    def from_counts(grammar: Grammar, counts) -> "TransitionMultiset":
        return TransitionMultiset(grammar, Vec(counts))

    def size(self) -> int:
        return self.counts.total()

    def is_zero(self) -> bool:
        return self.counts.is_zero()

    def source(self) -> Vec:
        acc: dict[str, int] = {}
        for tid, c in self.counts:
            t = self.grammar.transition(tid)
            acc[t.source] = acc.get(t.source, 0) + c
        return Vec(acc)

    def target(self) -> Vec:
        acc = Vec.zero()
        for tid, c in self.counts:
            acc = acc + self.grammar.transition(tid).targets * c
        return acc

    def parikh(self) -> Vec:
        cg = self.grammar.compiled
        return Vec.from_tuple(cg.output_sum(cg.counts(self.counts)), cg.letters)

    def supp(self) -> frozenset[str]:
        return frozenset(self.grammar.transition(tid).source for tid, c in self.counts if c > 0)

    def __add__(self, other: "TransitionMultiset") -> "TransitionMultiset":
        self._check_same(other)
        return TransitionMultiset(self.grammar, self.counts + other.counts)

    def __sub__(self, other: "TransitionMultiset") -> "TransitionMultiset":
        self._check_same(other)
        return TransitionMultiset(self.grammar, self.counts - other.counts)

    def scaled(self, k: int) -> "TransitionMultiset":
        return TransitionMultiset(self.grammar, self.counts * k)

    def __le__(self, other: "TransitionMultiset") -> bool:
        self._check_same(other)
        return self.counts <= other.counts

    def _check_same(self, other: "TransitionMultiset") -> None:
        # equal grammars may list their rules under other ids (`Grammar`
        # equality ignores them), and then one id names two rules
        a, b = self.grammar, other.grammar
        if a is not b and (
            a != b or any(s.tid != t.tid for s, t in zip(a.transitions, b.transitions))
        ):
            raise ValueError("transition multisets belong to different grammars")


def parse_multiset(g: Grammar, text: str) -> TransitionMultiset:
    """Parse `id*count` pairs, e.g. ``t1*3 t2*1``; `-` is the empty multiset."""
    counts: dict[str, int] = {}
    if text.strip() != "-":
        for tok in text.split():
            tid, star, num = tok.partition("*")
            k = 1
            if star:
                try:
                    k = int(num)
                except ValueError:
                    raise ValueError(f"bad multiplicity in {tok!r}") from None
            counts[tid] = counts.get(tid, 0) + k
    return TransitionMultiset.from_counts(g, counts)


def format_multiset(ms: TransitionMultiset) -> str:
    if ms.is_zero():
        return "-"
    order = {t.tid: i for i, t in enumerate(ms.grammar.transitions)}
    items = sorted(ms.counts.items(), key=lambda kv: order.get(kv[0], len(order)))
    return " ".join(f"{tid}*{c}" for tid, c in items)


@dataclass(frozen=True)
class RunStats:
    source: Vec
    target: Vec
    parikh: Vec
    supp: frozenset[str]
    size: int


def run_stats(ms: TransitionMultiset) -> RunStats:
    """Linear summaries of a transition multiset."""
    return RunStats(ms.source(), ms.target(), ms.parikh(), ms.supp(), ms.size())


@dataclass(frozen=True)
class SubrunCheck:
    ok: bool
    reason: Optional[str] = None  # 'euler' | 'connectivity'

    def __bool__(self) -> bool:
        return self.ok


def is_subrun(ms: TransitionMultiset, src: Vec, dst: Vec) -> SubrunCheck:
    """Check the balance condition and reachability for a subrun src -> dst.

    The balance check is tried first, so an invalid multiset failing both
    conditions reports 'euler'.
    """
    cg = ms.grammar.compiled
    ends = _dense_ends(cg, src, dst)
    if ends is None:
        return SubrunCheck(False, "euler")
    counts = cg.counts(ms.counts)
    balance = [e - s for s, e in zip(*ends)]  # must equal targets(R) - source(R)
    for i, c in enumerate(counts):
        if c:
            balance[cg.source[i]] += c
            for r in cg.targets[i]:
                balance[r] -= c
    if any(balance):
        return SubrunCheck(False, "euler")
    if not _reaches_used(cg, counts, ends[0]):
        return SubrunCheck(False, "connectivity")
    return SubrunCheck(True)


def _dense_ends(
    cg: CompiledGrammar, src: Vec, dst: Vec
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nonterminal counts of two markings as dense tuples, or None when
    they differ on a symbol that is not a nonterminal (no transition
    touches it, so no multiset can balance the difference)."""
    index = cg.nt_index
    if [x for x in src if x[0] not in index] != [x for x in dst if x[0] not in index]:
        return None
    return tuple(src.get(q) for q in cg.nonterminals), tuple(dst.get(q) for q in cg.nonterminals)


def _reaches_used(cg: CompiledGrammar, counts: Sequence[int], marking: Sequence[int]) -> bool:
    """Whether the source of every used transition is reachable from the
    marking's positive entries along the used transitions."""
    seen = [c > 0 for c in marking]
    stack = [q for q, hit in enumerate(seen) if hit]
    while stack:
        for i in cg.from_source[stack.pop()]:
            if counts[i] > 0:
                for r in cg.targets[i]:
                    if not seen[r]:
                        seen[r] = True
                        stack.append(r)
    return all(seen[cg.source[i]] for i, c in enumerate(counts) if c > 0)


@dataclass(frozen=True)
class Subrun:
    """A checked subrun certificate: multiset plus end markings."""

    multiset: TransitionMultiset
    src: Vec
    dst: Vec

    def check(self) -> SubrunCheck:
        return is_subrun(self.multiset, self.src, self.dst)


def is_run(ms: TransitionMultiset, p: str) -> SubrunCheck:
    return is_subrun(ms, Vec.unit(p), Vec.zero())


def is_cycle(ms: TransitionMultiset, p: str) -> SubrunCheck:
    return is_subrun(ms, Vec.unit(p), Vec.unit(p))


def order_subrun(ms: TransitionMultiset, src: Vec, dst: Vec) -> list[str]:
    """A firing order for a valid subrun that never goes negative.

    Greedy: at each step take the first transition (grammar order) with
    a remaining use whose source is available and whose removal leaves a
    valid subrun from the advanced marking.  Such a transition always
    exists for a valid certificate.
    """
    if not is_subrun(ms, src, dst):
        raise ValueError("not a valid subrun certificate")
    cg = ms.grammar.compiled
    counts = list(cg.counts(ms.counts))
    marking = [src.get(q) for q in cg.nonterminals]
    left = sum(counts)
    seq: list[str] = []
    while left:
        for i, q in enumerate(cg.source):
            if counts[i] <= 0 or marking[q] < 1:
                continue
            # firing i shifts both sides of the balance equation by the
            # same amount, so the rest stays balanced; only reachability
            # can fail
            counts[i] -= 1
            marking[q] -= 1
            for r in cg.targets[i]:
                marking[r] += 1
            if _reaches_used(cg, counts, marking):
                seq.append(cg.tids[i])
                left -= 1
                break
            counts[i] += 1
            marking[q] += 1
            for r in cg.targets[i]:
                marking[r] -= 1
        else:  # pragma: no cover - impossible for valid certificates
            raise AssertionError("no firable transition found in a valid subrun")
    return seq


@dataclass(frozen=True)
class DerivationTree:
    """Rooted tree of transition applications with free-symbol accounting.

    `parents[0]` is None and every other parent index precedes its child,
    so ancestry is well founded by construction.  For each vertex the
    free multiset (its targets minus the sources claimed by its children)
    must be nonnegative.
    """

    grammar: Grammar
    labels: tuple[str, ...]
    parents: tuple[Optional[int], ...]

    def __post_init__(self):
        if len(self.labels) != len(self.parents):
            raise ValueError("labels and parents disagree in length")
        if self.labels:
            if self.parents[0] is not None:
                raise ValueError("vertex 0 must be the root")
            for i, p in enumerate(self.parents):
                if i == 0:
                    continue
                if p is None or not 0 <= p < i:
                    raise ValueError(f"vertex {i} needs a parent earlier in the order")
        for i in range(len(self.labels)):
            if not self.free(i).nonneg():
                raise ValueError(f"the children of vertex {i} consume more than it produced")

    def children(self, v: int) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parents) if p == v)

    def free(self, v: int) -> Vec:
        t = self.grammar.transition(self.labels[v])
        acc = t.targets
        for w in self.children(v):
            acc = acc - Vec.unit(self.grammar.transition(self.labels[w]).source)
        return acc

    def free_total(self) -> Vec:
        acc = Vec.zero()
        for v in range(len(self.labels)):
            acc = acc + self.free(v)
        return acc

    def depth(self, v: int) -> int:
        d = 0
        while self.parents[v] is not None:
            v = self.parents[v]  # type: ignore[assignment]
            d += 1
        return d

    def max_depth(self) -> int:
        return max((self.depth(v) for v in range(len(self.labels))), default=-1)

    def used(self) -> TransitionMultiset:
        return TransitionMultiset.from_counts(self.grammar, ((tid, 1) for tid in self.labels))

    def size(self) -> int:
        return len(self.labels)


def subrun_to_tree(ms: TransitionMultiset, p: str, dst: Vec = Vec.zero()) -> DerivationTree:
    """Build a derivation tree using exactly the multiset, starting at `p`.

    Transitions are attached in firing order; each one hangs off the
    earliest-created vertex that still has a free copy of its source.
    The resulting tree satisfies used() == ms and free_total() == dst.
    """
    seq = order_subrun(ms, Vec.unit(p), dst)
    if not seq:
        raise ValueError("cannot build a tree for the empty multiset")
    g = ms.grammar
    labels = [seq[0]]
    parents: list[Optional[int]] = [None]
    free: list[Vec] = [g.transition(seq[0]).targets]
    for tid in seq[1:]:
        t = g.transition(tid)
        for v, f in enumerate(free):
            if f.get(t.source) >= 1:
                free[v] = f - Vec.unit(t.source)
                labels.append(tid)
                parents.append(v)
                free.append(t.targets)
                break
        else:  # pragma: no cover - the firing order always leaves a slot
            raise AssertionError("no vertex offers the required nonterminal")
    return DerivationTree(g, tuple(labels), tuple(parents))


def tree_to_multiset(tree: DerivationTree) -> TransitionMultiset:
    """Count transition uses; the inverse of subrun_to_tree."""
    return tree.used()


def tree_size_bound(depth: int, regular: bool) -> int:
    """Strict bound on vertices of a derivation tree with no vertex at
    the given depth: depth+1 when at most one child per vertex, else
    2**(depth+1)."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return depth + 1 if regular else 2 ** (depth + 1)


@dataclass(frozen=True)
class BaseRunBound:
    """The three bounds of the run decomposition
    (`decomposition.decompose_run`) for a grammar with N nonterminals
    and A letters, gamma the bounded-depth tree size bound
    (`tree_size_bound` above).

    cycle_size: gamma(N), a strict bound on the size of a simple cycle.
    Every cycle from q of size >= gamma(N) is a smaller nonzero cycle
    anchored in its support plus a cycle from q, so splitting ends in
    simple cycles of size at most gamma(N) - 1, each anchored in the
    support of the cycle it came from.
    coeff_bound: hadamard_bound(A, cycle_size), a bound on the
    determinant of A simple-cycle letter vectors, and so on the count
    each cycle outside an independent core keeps
    (`intlinalg.reduce_multiplicities`).
    value: gamma(N^2) + (2 * cycle_size)**(1+A) * coeff_bound, the size
    bound on the base run.
    """

    value: int
    cycle_size: int
    coeff_bound: int


def base_run_bound(g: Grammar) -> BaseRunBound:
    """The decomposition's bounds for g, which must be in normal form."""
    if not g.is_normal_form():
        raise ValueError("grammar must be in normal form")
    n = len(g.nonterminals)
    a = len(g.alphabet)
    regular = g.is_regular()
    gamma_n = tree_size_bound(n, regular)
    coeff = hadamard_bound(a, gamma_n)
    value = tree_size_bound(n * n, regular) + (2 * gamma_n) ** (1 + a) * coeff
    return BaseRunBound(value, gamma_n, coeff)


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _dense_unit(cg: CompiledGrammar, q: str) -> tuple[int, ...]:
    i = cg.nt_index.get(q)
    if i is None:
        raise ValueError(f"unknown nonterminal {q!r}")
    return _unit(len(cg.nonterminals), i)


def _fire(
    cg: CompiledGrammar,
    starts: Sequence[tuple[int, ...]],
    ends: Sequence[tuple[int, ...]],
    max_size: int,
    limit: Optional[tuple[int, ...]],
    state_cap: int,
) -> Iterator[tuple[list[tuple[Vec, int]], bool, bool]]:
    """The breadth-first firing search behind every run and cycle listing.

    A state is (marking, used, need): dense nonterminal and
    per-transition use counts, and the sum of the marking's run-size
    weights (`CompiledGrammar.run_size_weights`).  The marking follows
    from the start and the uses, so each start's visited set holds use
    counts alone.  All starts share one
    state count, and transitions are tried in grammar order, so a capped
    search stops at the same state every time.  `limit` caps each
    transition's uses.  The ends are all empty (a run search) or all
    equal to the starts (a cycle search).

    Only the states that can still finish within `max_size` are kept,
    and only kept states count towards `state_cap`.  A run from a
    marking to the empty one is a forest with one derivation tree per
    pending nonterminal, so with d(q) the least run size
    (`CompiledGrammar.least_run_sizes`) it takes at least the sum of d
    over the marking.  Towards a unit end, one tree may instead end at
    the pending end nonterminal, so the largest d over the marking's
    support is not counted.  A state whose bound is finite but more than
    the size left is cut.  A state that can never finish is dropped:
    in a run search one that reaches a nonterminal without runs, in a
    cycle search an empty marking or two such nonterminals pending.

    Yields `(found, capped, exhausted)` per size 1..max_size: `found`
    lists (dense use counts, start index) for the new states at their
    start's end marking, in the `Vec.sort_key` order of their multisets
    (the first start wins a tie).  A capped level is partial.
    `exhausted` says the frontier ran dry with nothing capped or cut, so
    no larger size finds more (a cycle search counts its drops as cuts).  A capped level, or one that leaves
    the frontier empty, is the last.
    """
    cycles = any(map(any, ends))
    least = cg.least_run_sizes
    weight, changes, tops = cg.run_size_weights
    # per step: the change in the weight sum, and that change less a floor
    # for the new marking's largest weight where it is not counted: its
    # targets' largest, or 1 after a final rule (any nonempty marking has 1)
    steps = [
        (i, q, cg.delta[i], None if limit is None else limit[i], changes[i],
         changes[i] - max(tops[i], 1) if cycles else changes[i])
        for i, q in enumerate(cg.source)
        if (limit is None or limit[i] > 0)
        # a run search never fires into a nonterminal without runs, nor so
        # out of one: each of its rules has such a target
        and (cycles or all(least[r] is not None for r in cg.targets[i]))
    ]
    by_name = sorted(range(len(cg.tids)), key=cg.tids.__getitem__)
    no_use = (0,) * len(cg.tids)
    frontiers = [[(m, no_use, sum(map(mul, m, weight)))] for m in starts]
    visited: list[set[tuple[int, ...]]] = [{no_use} for _ in starts]
    states = len(starts)
    cut = False
    for size in range(1, max_size + 1):
        room = max_size - size
        level: dict[tuple[int, ...], int] = {}
        new: list[list] = [[] for _ in starts]
        capped = False
        for k, (marking, used, need) in ((k, s) for k, f in enumerate(frontiers) for s in f):
            seen, out, end = visited[k], new[k], ends[k]
            for i, src, delta, cap, change, gap in steps:
                if marking[src] < 1 or (cap is not None and used[i] >= cap):
                    continue
                # at least the bound, and exact in a run search; below 0 only
                # where a final rule empties the marking in a cycle search
                over = need + gap
                if not 0 <= over <= room and (
                    over < 0
                    or not cycles
                    or need + change - max(compress(weight, map(add, marking, delta))) > room
                ):
                    cut = True
                    continue
                new_used = used[:i] + (used[i] + 1,) + used[i + 1:]
                if new_used in seen:
                    continue
                seen.add(new_used)
                states += 1
                if states > state_cap:
                    capped = True
                    break
                new_marking = tuple(map(add, marking, delta))
                out.append((new_marking, new_used, need + change))
                if new_marking == end:
                    level.setdefault(new_used, k)
            if capped:
                break
        frontiers = new
        found = sorted(
            level.items(), key=lambda f: [(cg.tids[i], f[0][i]) for i in by_name if f[0][i]]
        )
        dry = not any(frontiers)
        yield found, capped, dry and not (capped or cut)
        if capped or dry:
            return


def iter_cycles(
    g: Grammar,
    anchors: Sequence[str],
    max_size: int,
    within: Optional[TransitionMultiset] = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Iterator[tuple[TransitionMultiset, str]]:
    """Enumerate cycles from the given anchors in (size, multiset) order.

    Yields (multiset, anchor) pairs, deduplicated across anchors (the
    least anchor wins).  `within` restricts the search to sub-multisets
    of the given bound.  Raises SearchCapExceeded when the breadth-first
    search keeps more than `state_cap` states (it keeps only those that
    can still close a cycle within `max_size`, see `_fire`), and
    ValueError for an anchor that is not a nonterminal.
    """
    cg = g.compiled
    anchors = sorted(set(anchors))
    units = [_dense_unit(cg, q) for q in anchors]
    limit = None if within is None else cg.counts(within.counts)
    for used, k in _cycles(cg, units, max_size, limit, state_cap):
        yield TransitionMultiset(g, cg.multiset(used)), anchors[k]


def _cycles(
    cg: CompiledGrammar,
    units: Sequence[tuple[int, ...]],
    max_size: int,
    limit: Optional[tuple[int, ...]],
    state_cap: int,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """`iter_cycles` on dense tuples: (use counts, start index) pairs."""
    for found, capped, _exhausted in _fire(cg, units, units, max_size, limit, state_cap):
        if capped:
            raise SearchCapExceeded(f"cycle search exceeded {state_cap} states; raise the cap")
        yield from found


@dataclass(frozen=True)
class RunSearch:
    """Result of a bounded run enumeration."""

    runs: tuple[TransitionMultiset, ...]
    # the grammar has no runs beyond those listed: the search ran dry
    # before the size cap cut off a state that could still finish
    complete: bool
    capped: bool  # state cap was hit; listing may be incomplete


def enumerate_runs(
    g: Grammar,
    p: str,
    max_size: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> RunSearch:
    """All runs from `p` of size <= max_size, by breadth-first firing
    (`_fire` from p to the empty marking).  `state_cap` counts only the
    states that can still finish a run within max_size.  The search is
    complete when it runs dry with no such state cut off by max_size;
    states that can never finish (they hold a nonterminal without runs)
    do not count against it, so a `p` without runs gives a complete
    empty listing.  A capped search keeps the runs of its partial last
    level.  Raises ValueError when `p` is not a nonterminal.
    """
    cg = g.compiled
    found, complete, capped = dense_runs(g, p, max_size, state_cap)
    runs = tuple(TransitionMultiset(g, cg.multiset(used)) for used in found)
    return RunSearch(runs, complete, capped)


def dense_runs(
    g: Grammar,
    p: str,
    max_size: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[list[tuple[int, ...]], bool, bool]:
    """`enumerate_runs` on dense tuples: the runs' per-transition use
    counts (`CompiledGrammar` order) in listing order, and the search's
    complete and capped flags."""
    cg = g.compiled
    start = _dense_unit(cg, p)
    runs: list[tuple[int, ...]] = []
    capped = exhausted = False
    for found, capped, exhausted in _fire(
        cg, [start], [(0,) * len(start)], max_size, None, state_cap
    ):
        runs.extend(used for used, _k in found)
    return runs, exhausted, capped


def is_simple_cycle(ms: TransitionMultiset, q: str) -> bool:
    """True iff `ms` is a nonzero cycle from q that is not the sum of two
    smaller nonzero cycles from q (those a search bounded by `ms` lists).
    A loop anchored elsewhere does not count (`enumerate_simple_cycles`)."""
    if ms.is_zero() or not is_cycle(ms, q):
        return False
    # testing each part's rest stops at a split's smaller part, where a
    # lookup among listed parts would search on to the larger one
    for part, _anchor in iter_cycles(ms.grammar, [q], ms.size() - 1, within=ms):
        if is_cycle(ms - part, q):
            return False
    return True


def _removable_cycle(
    cg: CompiledGrammar,
    run: tuple[int, ...],
    start: tuple[int, ...],
    keep: AbstractSet[Optional[int]],
    listed: list[tuple[int, ...]],
) -> Optional[tuple[tuple[int, ...], int]]:
    """`find_removable_cycle` on dense tuples: `run` holds use counts that
    balance from the unit marking `start` to the empty one, `keep` holds
    nonterminal ids, and the answer is (cycle counts, anchor id).

    `listed` holds the cycles that a cycle search over some run
    containing `run` listed, in its order, up to the one it accepted
    (empty for a first step).  They are tested again first, in that
    order, and only when none passes does a fresh search over `run`
    start; its listing, up to the cycle it accepts, then replaces
    `listed`.  `find_removable_cycle` says why that is exact.
    """
    n = len(cg.nonterminals)

    def anchor_of(cycle: tuple[int, ...]) -> Optional[int]:
        if not all(map(le, cycle, run)):
            return None
        rest = tuple(map(sub, run, cycle))
        held = set(compress(cg.source, rest))
        # a cycle is balanced, so the rest is too; only reachability is left
        if not keep <= held or not _reaches_used(cg, rest, start):
            return None
        return next(
            (q for q in sorted(set(compress(cg.source, cycle)))
             if q in held and _reaches_used(cg, cycle, _unit(n, q))),
            None,
        )

    for cycle in listed:
        if (anchor := anchor_of(cycle)) is not None:
            return cycle, anchor
    units = [_unit(n, q) for q in sorted(set(compress(cg.source, run)))]
    listed.clear()
    for cycle, _k in _cycles(cg, units, sum(run), run, DEFAULT_STATE_CAP):
        listed.append(cycle)
        if (anchor := anchor_of(cycle)) is not None:
            return cycle, anchor
    return None


def find_removable_cycle(
    ms: TransitionMultiset, p: str, keep: Optional[Iterable[str]] = None
) -> Optional[tuple[TransitionMultiset, str]]:
    """Smallest cycle inside the run `ms` whose removal keeps a run from
    `p` whose support holds `keep` (default: all of `ms`'s), with its
    anchor: the first nonterminal of the cycle's support that the rest
    holds and the cycle returns to.  None when there is no such cycle;
    by default, when `ms` is a skeleton run.  Raises ValueError when `p`
    is not a nonterminal.

    Candidates come from one cycle search over `ms` from every
    nonterminal of its support, smallest first with the `Vec.sort_key`
    tie-break, so repeated stripping is reproducible.  `strip_cycles`
    asks again after each removal, and first re-tests, in order, the
    cycles the last search listed up to the one it accepted; it
    searches afresh only when none passes.  That is exact.  A search
    over the smaller run lists exactly the cycles that fit in it, in the
    same order, and keeps a subset of the larger run's search states
    (no more anchors, a smaller limit and size cap), so it hits no state
    cap the larger search did not.  So up to the last accepted cycle it
    lists just the listed cycles that fit, and the first of those that
    passes is the one it would accept.  Each is tested in full again,
    because a cycle that failed in a larger run can pass in a smaller.
    """
    cg = ms.grammar.compiled
    start = _dense_unit(cg, p)
    check = is_run(ms, p)
    if not check and check.reason == "euler":
        return None  # a cycle is balanced, so no rest balances either
    run = cg.counts(ms.counts)
    # a name that is not a nonterminal (id None) is never held
    held = set(compress(cg.source, run)) if keep is None else {cg.nt_index.get(q) for q in keep}
    hit = _removable_cycle(cg, run, start, held, [])
    if hit is None:
        return None
    return TransitionMultiset(ms.grammar, cg.multiset(hit[0])), cg.nonterminals[hit[1]]


def strip_cycles(
    ms: TransitionMultiset, p: str
) -> tuple[list[tuple[TransitionMultiset, str]], TransitionMultiset]:
    """Strip removable cycles off the run `ms` from `p` until none is
    left: each step removes `find_removable_cycle`'s cycle with every
    anchor recorded so far to keep.  Returns the (cycle, anchor) pairs
    in stripping order and the rest, a run from `p`.  Raises ValueError
    unless `ms` is a run from the nonterminal `p`.

    Each step first re-tests the cycles the last search listed, up to
    the one it accepted, so stripping many copies of one cycle takes
    one search, not one per copy.
    """
    start = _check_run(ms, p)
    g = ms.grammar
    cg = g.compiled
    run = cg.counts(ms.counts)
    held: set[int] = set()
    listed: list[tuple[int, ...]] = []
    stripped = []
    made: dict[tuple[int, ...], TransitionMultiset] = {}  # one multiset per distinct cycle
    while (hit := _removable_cycle(cg, run, start, held, listed)) is not None:
        cycle, anchor = hit
        if cycle not in made:
            made[cycle] = TransitionMultiset(g, cg.multiset(cycle))
        stripped.append((made[cycle], cg.nonterminals[anchor]))
        held.add(anchor)
        run = tuple(map(sub, run, cycle))
    return stripped, TransitionMultiset(g, cg.multiset(run))


def _check_run(ms: TransitionMultiset, p: str) -> tuple[int, ...]:
    """The unit marking of `p`; ValueError unless `ms` is a run from that
    nonterminal."""
    start = _dense_unit(ms.grammar.compiled, p)
    if not is_run(ms, p):
        raise ValueError("not a run from the given nonterminal")
    return start


def is_skeleton_run(ms: TransitionMultiset, p: str) -> bool:
    """True iff no cycle can be removed from the run without shrinking
    its support.  Raises ValueError unless `ms` is a run from the
    nonterminal `p`."""
    start = _check_run(ms, p)
    cg = ms.grammar.compiled
    run = cg.counts(ms.counts)
    return _removable_cycle(cg, run, start, set(compress(cg.source, run)), []) is None


def enumerate_simple_cycles(
    g: Grammar,
    q: str,
    cap: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[TransitionMultiset]:
    """All simple cycles from q of size <= min(cap, gamma - 1), smallest
    first, where gamma = tree_size_bound(N, regular) in this module; a
    candidate is dropped when two cycles listed before it add up to it.

    Simple cycles are not bounded in size: with `S -> a : T`,
    `T -> b : T`, `T -> : S`, `S -> :` the cycle t1 t2*k t3 from S is
    simple at every k, its loop being anchored at T.  The cut at gamma - 1
    rests on `BaseRunBound.cycle_size` in this module; a smaller cap is an
    explicit truncation chosen by the caller.
    """
    cg = g.compiled
    cycles = dense_simple_cycles(g, q, cap, state_cap)
    return [TransitionMultiset(g, cg.multiset(used)) for used in cycles]


def dense_simple_cycles(
    g: Grammar,
    q: str,
    cap: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[tuple[int, ...]]:
    """`enumerate_simple_cycles` on dense tuples: the cycles'
    per-transition use counts (`CompiledGrammar` order), smallest first."""
    limit = min(cap, base_run_bound(g).cycle_size - 1)
    cg = g.compiled
    listed: set[tuple[int, ...]] = set()
    out = []
    for used, _k in _cycles(cg, [_dense_unit(cg, q)], limit, None, state_cap):
        if not any(tuple(map(sub, used, c)) in listed for c in listed):
            out.append(used)
        listed.add(used)
    return out

