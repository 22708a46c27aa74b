"""Membership deciders and the brute-force enumeration oracle.

For regular grammars, membership is decided from one table kind: the
letter vectors of bounded-size paths into a fixed end, built backwards
and keyed by (required support, first nonterminal).  A final rule is a
step into the sentinel FINAL, so runs are the paths into FINAL and the
cycles at q the paths into q; one walk back through such a table gives
the base run and every cycle of a witness.  A vector is accepted when
it is a table run vector plus a nonnegative integer combination of
linearly independent cycle vectors anchored in the run's support.  With
the bound at its theoretical value the procedure is exact; with a
smaller desk-scale bound a yes is still sound (the witness is checkable)
and a no is definite only when the build certifies it (below).

The cycle tables are built with the decision state, its one run table
on first use.  A point query and a window sweep (`box_members`) read
that table cut to their box: a run vector past the box on a one-way
letter (`CompiledGrammar.letter_sign`) stays out of it whatever cycles
are added, so it is never tabulated.  For a point v the box is
everything below v on the letters no rule lowers and above v on those
no rule raises.  The build also certifies a no: once no vector of its
last frontier lies in the box, no longer run can be pumped into it, so
a miss there is a non-member even below the theoretical bound.  Grammars
without one-way letters, and box-less reads (the bundles' queries,
`miss()`), read the full run table, which then serves every box.

For general normal-form grammars the same scheme runs on explicitly
enumerated base runs and simple cycles under user caps.  The state is
read off the firing search's dense per-transition counts
(`runs.dense_runs`, `runs.dense_simple_cycles`) and their letter
vectors (`CompiledGrammar.output_sum`): it keeps the first run per
support and vector and the first cycle per anchor and vector, and only
those become `TransitionMultiset`s.

Three engine states, one per name in `ENGINES`, answer through one
interface, picked by name in `engine` alone: `result(v)` answers a
point, `box_members(lo, hi)` a box's members, `miss(lo, hi)` every box
point no query reaches, and `note` names the engine and its sizes.
`result` and `box_members` are written once (`_Engine`); each state's
`miss` is its one decision, where a no becomes definite: at the
completeness threshold or past the last frontier (regular-dp), after an
exhaustive run enumeration or at full caps (general-caps), and inside
the window of an exhausted search (oracle); a search cut by its state
cap or depth answers unknown.  A box-less `miss()` answers for every
vector (the oracle: unknown): bundles read truncation off it.  Other
modules read a result's `verdict` (None: unknown), not its status.

The regular and general states share one query structure.
`_prepare_queries` pairs each group of base vectors with one support
(ordered by support size, then names) with every maximal independent
subset of the cycle vectors anchored in that support, as an
`intlinalg.CosetIndex` of the group's bases over the subset.  The pool
is taken without k-fold multiples (k >= 2) of its other vectors, which
reach no point their root does not, and there is one
`intlinalg.PeriodLattice` per distinct period set, shared by its
indexes.  A point is answered by the first query that reaches it
(`_first_hit`), a box by the union of every query's box points
(`_box_union`).  So a witness follows one rule in both: the first
group, then the first subset in dense-tuple order, then the base with
the lexicographically largest coefficient tuple.

The brute-force oracle is the independent cross-check: `dense_oracle`
is its one search, plain breadth-first expansion of sentential forms,
pruned only where a letter has left the window for good.  It gives the
dense letter tuples found and whether the search was exhausted; only
then is a miss inside the window a definite no.  The oracle engine
answers on those tuples, and `oracle_language` turns them into `Vec`s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from operator import add, sub
from typing import Optional, Sequence

from .decomposition import CycleTerm, Decomposition, base_run_bound
from .grammar import CompiledGrammar, Grammar, normalize
from .intlinalg import CosetIndex, IntTuple, PeriodLattice, maximal_independent_subsets
from .runs import (
    DEFAULT_STATE_CAP,
    SearchCapExceeded,
    TransitionMultiset,
    cycle_enumeration_complete,
    dense_runs,
    dense_simple_cycles,
)
from .vector import Vec

Cell = tuple[frozenset, str]


# ---------------------------------------------------------------------------
# brute-force oracle


class OracleLanguage(frozenset):
    """The vectors an `oracle_language` search found, as a frozenset of
    `Vec`.  `exhausted` says the search ran dry without cutting a state
    at the step budget: the set is then the grammar's whole language on
    the window, at any depth."""

    __slots__ = ("exhausted",)

    def __new__(cls, members, exhausted: bool):
        self = super().__new__(cls, members)
        self.exhausted = exhausted
        return self


def _two_way_reach(cg: CompiledGrammar, two_way: list[int]) -> list[tuple[int, int]]:
    """Per nonterminal id: bitmasks of the letters in `two_way` that some
    rule reachable from it raises, and that some such rule lowers (a
    fixpoint over rule targets)."""
    reach = []
    for ids in cg.from_source:
        up = down = 0
        for i in ids:
            for j in two_way:
                up |= (cg.output[i][j] > 0) << j
                down |= (cg.output[i][j] < 0) << j
        reach.append((up, down))
    changed = True
    while changed:
        changed = False
        for q, ids in enumerate(cg.from_source):
            up, down = reach[q]
            for i in ids:
                for r in cg.targets[i]:
                    up |= reach[r][0]
                    down |= reach[r][1]
            if (up, down) != reach[q]:
                reach[q] = (up, down)
                changed = True
    return reach


def _past(value: IntTuple, guards: Sequence[tuple[int, int, int]]) -> bool:
    """Whether value is past a guard (j, s, limit): s * value[j] > limit."""
    for j, s, limit in guards:
        if s * value[j] > limit:
            return True
    return False


def dense_oracle(g: Grammar, depth: int, window: int) -> tuple[frozenset[IntTuple], bool]:
    """Dense letter tuples (alphabet order) of all derivations of at most
    `depth` steps, filtered to max-norm <= window, and whether the search
    was exhausted.

    Breadth-first over sentential forms (nonterminal multiset plus
    accumulated letter vector).  A state is dropped when it has passed
    the window on a side it cannot come back from: on a one-way letter
    (all emissions nonnegative or all nonpositive), or on a two-way
    letter that no rule reachable from its pending nonterminals moves
    back.  A state that stays in reach of the window but has more
    pending nonterminals than steps left is cut by the budget.  The
    result is always an under-approximation of the in-window language;
    it is exhausted, and then exact, when the search ran dry before
    `depth` and cut nothing: every derivation of an in-window vector was
    then followed to its end.

    A state is (ascending tuple of pending nonterminal ids, dense letter
    tuple), on the grammar's compiled view.
    """
    cg = g.compiled
    dim = len(cg.letters)
    sign = cg.letter_sign
    # per source nonterminal: (targets, target count, output or None,
    # guards) per transition, where a guard (j, s, limit) prunes when
    # s * value[j] > limit: the one-way sides of the window box
    # (`_box_guards`) on the letters the transition moves, the only ones
    # it can newly push out
    window_guards = _box_guards(sign, (-window,) * dim, (window,) * dim)
    moves = [
        [
            (
                cg.targets[i],
                cg.target_count[i],
                cg.output[i] if any(cg.output[i]) else None,
                tuple((j, s, limit) for j, s, limit in window_guards if cg.output[i][j]),
            )
            for i in ids
        ]
        for ids in cg.from_source
    ]
    # the same guards per pending marking, for the two-way letters that no
    # rule reachable from it moves back; none when every letter is one-way
    two_way = [j for j, s in enumerate(sign) if s is None]
    reach = _two_way_reach(cg, two_way) if two_way else []
    marking_guards: dict[IntTuple, tuple] = {}

    def guards_of(marking: IntTuple) -> tuple:
        up = down = 0
        for q in set(marking):
            up |= reach[q][0]
            down |= reach[q][1]
        return tuple((j, 1, window) for j in two_way if not down >> j & 1) + tuple(
            (j, -1, window) for j in two_way if not up >> j & 1
        )

    start = ((cg.nt_index[g.start],), (0,) * dim)
    visited = {start}
    frontier = [start]
    done: set[IntTuple] = set()
    cut = False
    for level in range(depth):
        budget = depth - level
        new_frontier = []
        for marking, value in frontier:
            # expand one occurrence of the least pending nonterminal; the
            # language of completed derivations is unaffected by the
            # expansion policy
            rest = marking[1:]
            for targets, count, out, guards in moves[marking[0]]:
                # a step past the budget is a cut unless it leaves the
                # window anyway; once one is cut, the rest need no test
                over = len(rest) + count >= budget
                if over and cut:
                    continue
                if out is None:
                    new_value = value
                else:
                    new_value = tuple(map(add, value, out))
                    if _past(new_value, guards):
                        continue
                if targets:
                    new_marking = tuple(sorted(rest + targets))
                elif rest:
                    new_marking = rest
                else:
                    done.add(new_value)
                    continue
                if two_way:
                    mg = marking_guards.get(new_marking)
                    if mg is None:
                        mg = marking_guards[new_marking] = guards_of(new_marking)
                    if _past(new_value, mg):
                        continue
                if over:
                    cut = True
                    continue
                state = (new_marking, new_value)
                if state not in visited:
                    visited.add(state)
                    new_frontier.append(state)
        frontier = new_frontier
        if not frontier:
            break
    found = frozenset(v for v in done if all(-window <= x <= window for x in v))
    return found, not frontier and not cut


def oracle_language(g: Grammar, depth: int, window: int) -> OracleLanguage:
    """Letter vectors of all derivations of at most `depth` steps, filtered
    to max-norm <= window: `dense_oracle`'s tuples as `Vec`s, with its
    `exhausted` flag."""
    found, exhausted = dense_oracle(g, depth, window)
    letters = g.compiled.letters
    return OracleLanguage((Vec.from_tuple(v, letters) for v in found), exhausted)


# ---------------------------------------------------------------------------
# DP tables for regular grammars


# the end of every run: a final rule `q -> out :` is a step from q to FINAL,
# which is no legal symbol name and never enters a support
FINAL = ""


def _require_regular_normal(g: Grammar) -> None:
    if not g.is_regular() or not g.is_normal_form():
        raise ValueError("this procedure needs a regular grammar in normal form")


def _box_guards(
    sign: Sequence[Optional[int]], lo: Sequence[int], hi: Sequence[int]
) -> list[tuple[int, int, int]]:
    """(j, s, limit) for each one-way side of the box with per-letter
    bounds lo and hi, in letter order: a vector v is past that side when
    s * v[j] > limit.  The box is cut above hi[j] only when no rule
    lowers letter j, and below lo[j] only when no rule raises it; a
    letter moved both ways is not cut."""
    guards = []
    for j, s in enumerate(sign):
        if s is None:
            continue
        if s >= 0:
            guards.append((j, 1, hi[j]))
        if s <= 0:
            guards.append((j, -1, -lo[j]))
    return guards


def _path_cells(
    g: Grammar,
    end: str,
    bound: int,
    support_limit: int = 0,
    box: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> dict[Cell, dict[IntTuple, int]]:
    """Letter vectors of the paths of size <= bound into `end` (a
    nonterminal, or FINAL for runs), built backwards one rule at a time
    from the empty path at (empty support, end).

    cells[(P, q)] maps the vector of each path from q whose support
    includes P (q removed, every P of size <= support_limit) to the
    least size that reaches it.  The vectors at size `bound` are the last
    frontier: none means there are no paths beyond the tabulated ones.

    With box=(lo, hi), per-letter bounds, a path vector is dropped once
    it has left the box on a one-way letter: above hi[j] on a letter j
    no rule lowers, or below lo[j] on one no rule raises (`_box_guards`).
    Extending the path backwards, or adding any cycle vector, only moves
    that letter further out, so no vector built from it comes back into
    the box.  The cells kept are the full
    cells restricted to the vectors that stay, at the same least sizes;
    cells left empty are not kept."""
    cg = g.compiled
    names = cg.nonterminals
    zero = (0,) * len(cg.letters)
    # (j, s, limit): drop a vector v with s * v[j] > limit
    guards = [] if box is None else _box_guards(cg.letter_sign, *box)
    if any(limit < 0 for _j, _s, limit in guards):
        return {}  # even the empty path is out of the box
    # r -> [(q, out, guards)]: only the letters out moves can newly leave
    # the box, and a guard here reads the vector before out is added
    steps: dict[str, list[tuple[str, IntTuple, list]]] = {}
    for src, targets, out in zip(cg.source, cg.targets, cg.output):
        r = names[targets[0]] if targets else FINAL
        moved = [(j, s, limit - s * out[j]) for j, s, limit in guards if out[j]]
        steps.setdefault(r, []).append((names[src], out, moved))

    cells: dict[Cell, dict[IntTuple, int]] = {(frozenset(), end): {zero: 0}}
    frontier: dict[Cell, list[IntTuple]] = {(frozenset(), end): [zero]}
    for size in range(1, bound + 1):
        new_frontier: dict[Cell, list[IntTuple]] = {}
        for (p2, r), vecs in frontier.items():
            grown = p2 if r == FINAL else p2 | {r}
            for q, out, moved in steps.get(r, ()):
                vecs_in = vecs
                for j, s, limit in moved:
                    vecs_in = [v for v in vecs_in if s * v[j] <= limit]
                if not vecs_in:
                    continue
                new_vecs = vecs_in if out == zero else [tuple(map(add, v, out)) for v in vecs_in]
                # keep a support object q is not in: fewer sets built and kept
                narrow = p2 - {q} if q in p2 else p2
                wide = grown - {q} if q in grown else grown
                wider = wide != narrow and len(wide) <= support_limit
                for support in (narrow, wide) if wider else (narrow,):
                    key = (support, q)
                    cell = cells.setdefault(key, {})
                    bucket = None
                    for new_vec in new_vecs:
                        if new_vec not in cell:
                            cell[new_vec] = size
                            if bucket is None:
                                bucket = new_frontier.setdefault(key, [])
                            bucket.append(new_vec)
        frontier = new_frontier
        if not frontier:
            break
    return cells


# ---------------------------------------------------------------------------
# membership results and witnesses


# a yes witness is a decomposition: base run plus pumped cycles
Witness = Decomposition


MEMBER = "member"
NON_MEMBER = "non_member"
NO_WITHIN_BOUND = "no_within_bound"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class MembershipResult:
    status: str
    witness: Optional[Witness] = None
    note: str = ""

    @property
    def verdict(self) -> Optional[bool]:
        """True for MEMBER, False for NON_MEMBER, None (unknown) otherwise."""
        return True if self.status == MEMBER else (False if self.status == NON_MEMBER else None)


_NO = MembershipResult(NON_MEMBER)
_FOREIGN = MembershipResult(NON_MEMBER, note="letters outside the alphabet")
_CAPS_BELOW = MembershipResult(UNKNOWN, note="caps below the completeness thresholds")


# ---------------------------------------------------------------------------
# queries: base vectors plus nonnegative combinations of independent periods


def _support_order(supp: frozenset) -> tuple[int, list[str]]:
    """The order of query groups in both engines: size, then names."""
    return len(supp), sorted(supp)


# a query: (group key, periods, coset index of the group's bases, anchors)
Query = tuple[object, tuple[IntTuple, ...], CosetIndex, list[str]]


def _without_multiples(pool: list[IntTuple]) -> list[IntTuple]:
    """The vectors of the nonzero `pool`, in order, that are no k-fold
    multiple, k >= 2, of another one.  A maximal independent subset
    holding k * u maps to one holding u instead, which spans the same
    space and reaches a superset of points: the dropped vectors reach
    nothing new."""
    # v = g * prim with prim primitive (coprime entries) and g > 0; per
    # primitive direction, the multipliers g of the pool's vectors
    split = []
    scales: dict[IntTuple, list[int]] = {}
    for v in pool:
        g = math.gcd(*v)
        prim = tuple(x // g for x in v)
        split.append((prim, g))
        scales.setdefault(prim, []).append(g)
    return [
        v
        for v, (prim, g) in zip(pool, split)
        if not any(g % m == 0 for m in scales[prim] if m < g)
    ]


def _prepare_queries(
    groups: Sequence[tuple[object, dict[IntTuple, object], list[str]]],
    pools: dict[str, dict[IntTuple, object]],
    dim: int,
) -> list[Query]:
    """One query per group (key, bases, anchors), in order, and per
    maximal independent subset of the nonzero cycle vectors anchored in
    `anchors` (the keys of `pools[q]`, a zero key skipped), taken without
    their k-fold multiples (`_without_multiples`); the subsets of one
    group come in the order of their dense vector tuples.  Queries over
    equal periods share one `PeriodLattice`."""
    lattices: dict[tuple[IntTuple, ...], PeriodLattice] = {}
    queries = []
    for key, bases, anchors in groups:
        pool = _without_multiples(sorted({v for q in anchors for v in pools[q] if any(v)}))
        for subset in maximal_independent_subsets(pool):
            zs = tuple(pool[i] for i in subset)
            lattice = lattices.get(zs)
            if lattice is None:
                lattice = lattices[zs] = PeriodLattice(zs, dim)
            queries.append((key, zs, CosetIndex(lattice, bases), anchors))
    return queries


def _first_hit(queries: list[Query], t: IntTuple) -> Optional[tuple]:
    """(key, base, periods, coefficients, anchors) from the first query
    that reaches the dense tuple t (`CosetIndex.lookup`), or None."""
    for key, zs, index, anchors in queries:
        hit = index.lookup(t)
        if hit is not None:
            return key, hit[0], zs, hit[1], anchors
    return None


def _box_union(queries: list[Query], lo: int, hi: int) -> frozenset[IntTuple]:
    """Dense tuples of the box [lo..hi]^dim that some query reaches,
    enumerated query by query (`CosetIndex.box_points`)."""
    found: set[IntTuple] = set()
    for _key, _zs, index, _anchors in queries:
        found |= index.box_points(lo, hi)
    return frozenset(found)


# ---------------------------------------------------------------------------
# the one answer path of the engine states


class _Engine:
    """A point's answer (`result`) and a box's members (`box_members`),
    written once for the three engine states.  A state supplies `order`,
    `_hit(t)` (what reaches the dense tuple t, or None), `_box(lo, hi)`
    and `miss`, its one decision.  A hit (key, base, periods,
    coefficients, anchors) has the witness that `_pools`, `_base_run`
    and `_cycle` give; the oracle's empty hit has none."""

    order: tuple[str, ...]
    # the last (lo, hi) asked of box_members, with its members
    _last_box: Optional[tuple[int, int, frozenset[IntTuple]]] = None

    def result(self, v: Vec, want_witness: bool = True) -> MembershipResult:
        """NON_MEMBER for a letter outside the alphabet; MEMBER when `_hit`
        reaches v, with the hit's witness when asked; else `miss` at v."""
        if any(sym not in self.order for sym in v.support()):
            return _FOREIGN
        tv = v.to_tuple(self.order)
        hit = self._hit(tv)
        if hit is None:
            return self.miss(tv, tv)
        return MembershipResult(MEMBER, self._witness(hit) if want_witness and hit else None)

    def box_members(self, lo: int, hi: int) -> frozenset[IntTuple]:
        """Dense tuples (alphabet order) of every vector in [lo..hi]^alphabet
        that `result` answers MEMBER, enumerated at once (`_box`) instead
        of asked point by point.  The last box enumerated and its members
        are kept, and a box inside it with the same top is read off them,
        so the sweeps of one window (symmetric, or over the naturals)
        enumerate once."""
        last = self._last_box
        if last is not None:
            if last[:2] == (lo, hi):
                return last[2]
            if last[0] <= lo and hi == last[1]:
                return frozenset(t for t in last[2] if min(t, default=lo) >= lo)
        members = self._box(lo, hi)
        self._last_box = (lo, hi, members)
        return members

    def _witness(self, hit: tuple) -> Witness:
        """The base run behind a hit's base in its group, and one cycle term
        per period with a positive coefficient, anchored at the first
        anchor whose pool holds it."""
        key, w, zs, coeffs, anchors = hit
        terms = []
        for z, n in zip(zs, coeffs):
            if n:
                anchor = next(q for q in anchors if z in self._pools[q])
                terms.append(CycleTerm(self._cycle(anchor, z), anchor, n))
        return Witness(self._base_run(key, w), tuple(terms))


# ---------------------------------------------------------------------------
# regular decision procedure


@dataclass(frozen=True)
class _Runs:
    """The run table of a `RegularMembership` and what its queries need.

    `box` is the per-letter (lo, hi) the table is cut to, or None when
    nothing is cut; `last` holds the vectors the build first reached at
    the bound (its last frontier, empty when the build ran out of paths
    earlier); `queries` are the prepared queries over `cells`."""

    box: Optional[tuple[IntTuple, IntTuple]]
    cells: dict[Cell, dict[IntTuple, int]]
    last: frozenset[IntTuple]
    queries: list[Query]


class RegularMembership(_Engine):
    """Shared decision state for one regular grammar and one run bound.

    The cycle tables are built with the state, its one run table on
    first use.  A point query or a window sweep reads a run table cut to
    its box on one-way letters: a point v needs only the runs below v on
    the letters no rule lowers and above v on those no rule raises.  The
    table serves every box inside it; a box outside it rebuilds the table
    at the join of the two boxes, and a box-less read (`_queries`,
    `miss()`) rebuilds a cut table in full.  Without one-way letters
    nothing is cut and the full run table, built once, serves.  Window
    sweeps should reuse one instance.
    """

    def __init__(self, g: Grammar, bound: Optional[int] = None):
        _require_regular_normal(g)
        self.grammar = g
        self.complete_bound = base_run_bound(g).value
        self.bound = self.complete_bound if bound is None else bound
        if self.bound < 1:
            raise ValueError("bound must be at least 1")
        below = "" if self.bound >= self.complete_bound else " (below the completeness threshold)"
        self.note = f"regular-dp with run bound {self.bound}{below}"
        self._no_within_bound = MembershipResult(
            NO_WITHIN_BOUND, note=f"no witness with base runs of size <= {self.bound}"
        )
        self.order = g.alphabet
        self._support_limit = min(len(self.order), len(g.nonterminals))
        # per anchor q: the cells of paths into q; its cycle vectors (zero
        # included, at size 0) are the cell at (empty support, q)
        self._paths = {q: _path_cells(g, q, len(g.nonterminals)) for q in g.nonterminals}
        self._pools = {q: self._paths[q][(frozenset(), q)] for q in g.nonterminals}
        self._sign = g.compiled.letter_sign
        self._table: Optional[_Runs] = None

    @property
    def _queries(self) -> list[Query]:
        return self._runs().queries

    def _runs(self, lo: Optional[IntTuple] = None, hi: Optional[IntTuple] = None) -> _Runs:
        """The state's run table, holding every run vector that can still
        be pumped into the box [lo..hi] (per letter), at its least size;
        with no box, every run up to the bound.  A full table serves every
        box, a cut one every box inside it on its one-way sides: below its
        top where it is cut above, above its bottom where it is cut below.
        Any other request rebuilds it, at the join of the two boxes or in
        full."""
        runs = self._table
        if runs is not None and runs.box is None:
            return runs
        if runs is not None and lo is not None:
            cut_lo, cut_hi = runs.box
            if all(
                s is None or ((s < 0 or h <= ch) and (s > 0 or l >= cl))
                for s, l, h, cl, ch in zip(self._sign, lo, hi, cut_lo, cut_hi)
            ):
                return runs
            lo, hi = tuple(map(min, lo, cut_lo)), tuple(map(max, hi, cut_hi))
        # a box with no one-way side cuts nothing: build the full table
        box = None if lo is None or not _box_guards(self._sign, lo, hi) else (lo, hi)
        cells = _path_cells(self.grammar, FINAL, self.bound, self._support_limit, box)
        last = frozenset(v for cell in cells.values() for v, n in cell.items() if n == self.bound)
        # one group per run cell from the start, by support size and names
        start = self.grammar.start
        keys = sorted((key for key in cells if key[1] == start),
                      key=lambda key: _support_order(key[0]))
        groups = [(key, cells[key], sorted(key[0] | {start})) for key in keys]
        queries = _prepare_queries(groups, self._pools, len(self.order))
        self._table = _Runs(box, cells, last, queries)
        return self._table

    def miss(self, lo: Optional[IntTuple] = None, hi: Optional[IntTuple] = None) -> MembershipResult:
        """The answer for every vector of the box [lo..hi] (per letter),
        or with no box of any vector, that no query reaches: NON_MEMBER,
        else NO_WITHIN_BOUND.

        It is a definite no when the bound reaches the completeness
        threshold, or when no vector of the last frontier lies in the box
        on its one-way letters (with no box: the full table's last
        frontier is empty): a longer path only extends a frontier vector,
        which moves such a letter further out, so no level past the bound
        adds a run vector that can be pumped into the box.  The answer
        depends on the grammar, the bound and the box alone."""
        if self.bound >= self.complete_bound:
            return _NO
        last = self._runs(lo, hi).last
        if last:
            guards = [] if lo is None else _box_guards(self._sign, lo, hi)
            if any(all(s * v[j] <= limit for j, s, limit in guards) for v in last):
                return self._no_within_bound
        return _NO

    result = _Engine.result  # on the class itself, which `bench/tracing.py` wraps

    def _hit(self, t: IntTuple) -> Optional[tuple]:
        """The first query of the run table cut to t's box that reaches t.
        The answer and witness are those of the full run table; only the
        no (`miss` at t) is sharper."""
        return _first_hit(self._runs(t, t).queries, t)

    def _box(self, lo: int, hi: int) -> frozenset[IntTuple]:
        dim = len(self.order)
        return _box_union(self._runs((lo,) * dim, (hi,) * dim).queries, lo, hi)

    # -- witness reconstruction ------------------------------------------

    def _base_run(self, key: Cell, w: IntTuple) -> TransitionMultiset:
        # the table the hit came from: nothing rebuilds it between the two
        return self._walk(self._table.cells, key, w)

    def _cycle(self, anchor: str, z: IntTuple) -> TransitionMultiset:
        return self._walk(self._paths[anchor], (frozenset(), anchor), z)

    def _walk(self, cells: dict, key: Cell, vec: IntTuple) -> TransitionMultiset:
        """The transitions of the path behind cells[key][vec]: each step takes
        the first rule out of the current nonterminal, in grammar order, whose
        next cell holds the rest of the vector at a smaller size, to size 0."""
        g = self.grammar
        cg = g.compiled
        names = cg.nonterminals
        counts: dict[str, int] = {}
        size = cells[key][vec]
        while size:
            p, q = key
            for i in cg.from_source[cg.nt_index[q]]:
                r = names[cg.targets[i][0]] if cg.targets[i] else FINAL
                rest_key = (p - {r}, r)
                rest = tuple(map(sub, vec, cg.output[i]))
                rest_size = cells.get(rest_key, {}).get(rest)
                if rest_size is not None and rest_size < size:
                    break
            else:  # pragma: no cover - table construction guarantees a step
                raise AssertionError("path table walk failed")
            key, vec, size = rest_key, rest, rest_size
            counts[cg.tids[i]] = counts.get(cg.tids[i], 0) + 1
        return TransitionMultiset.from_counts(g, counts)


def member_regular(g: Grammar, v: Vec, bound: Optional[int] = None) -> MembershipResult:
    """Decide membership for a regular grammar.

    With the default bound the answer is exact.  A smaller bound keeps
    yes answers sound; a no stays NON_MEMBER when the run table cut to
    v's box certifies it (see `RegularMembership.miss`) and is
    NO_WITHIN_BOUND otherwise.  The state is shared per (grammar, bound)
    through `_regular_state`.
    """
    return _regular_state(g, bound).result(v)


@lru_cache(maxsize=32)
def _regular_state(g: Grammar, bound: Optional[int]) -> RegularMembership:
    return RegularMembership(g, bound)


# ---------------------------------------------------------------------------
# general grammars: bounded guessing


class GeneralMembership(_Engine):
    """Bounded base-run and cycle enumeration for normal-form grammars.

    The base runs are grouped by support, in the order of the regular
    engine's run cells (support size, then names), each dense vector
    standing for its first, smallest run in the search's listing order;
    the periods are the simple cycle vectors anchored in the support,
    each standing for its first cycle.  Runs and cycles are grouped and
    keyed on the search's dense counts, and a `TransitionMultiset` is
    built only for each run and cycle kept, so the witnesses cost a hit
    nothing new.  Points and boxes are answered by the same queries as
    `RegularMembership`."""

    def __init__(
        self,
        g: Grammar,
        run_cap: int = 10,
        cycle_cap: int = 8,
        state_cap: int = DEFAULT_STATE_CAP,
    ):
        if not g.is_normal_form():
            raise ValueError("grammar must be in normal form")
        self.grammar = g
        self.order = g.alphabet
        self.run_cap = run_cap
        self.cycle_cap = cycle_cap
        self.state_cap = state_cap
        self.note = f"general-caps with run cap {run_cap}, cycle cap {cycle_cap}"
        cg = g.compiled
        runs, self.runs_complete, self.runs_capped = dense_runs(g, g.start, run_cap, state_cap)
        # per support: dense base vector -> its first (smallest) run, the
        # one run there that becomes a multiset
        sources = [cg.nonterminals[q] for q in cg.source]
        by_support: dict[frozenset, dict[IntTuple, TransitionMultiset]] = {}
        for used in runs:
            bases = by_support.setdefault(frozenset(compress(sources, used)), {})
            w = cg.output_sum(used)
            if w not in bases:
                bases[w] = TransitionMultiset(g, cg.multiset(used))
        self._bases = {supp: by_support[supp] for supp in sorted(by_support, key=_support_order)}
        # per anchor: each nonzero cycle vector -> its first cycle there; an
        # anchor whose cycle search outgrows the state cap pumps nothing:
        # fewer cycles only lose yes answers, and a miss becomes unknown
        self._pools: dict[str, dict[IntTuple, TransitionMultiset]] = {}
        self.cycles_capped = False
        for q in sorted({q for supp in by_support for q in supp}):
            pool = self._pools[q] = {}
            try:
                cycles = dense_simple_cycles(g, q, cycle_cap, state_cap)
            except SearchCapExceeded:
                self.cycles_capped = True
                continue
            for used in cycles:
                z = cg.output_sum(used)
                if any(z) and z not in pool:
                    pool[z] = TransitionMultiset(g, cg.multiset(used))
        self.cycles_complete = cycle_enumeration_complete(g, cycle_cap)

    @cached_property
    def _queries(self) -> list[Query]:
        # built on the first query; `two_letter_bundles` reads only bases and pools
        groups = [(supp, bases, sorted(supp)) for supp, bases in self._bases.items()]
        return _prepare_queries(groups, self._pools, len(self.order))

    def miss(self, lo: Optional[IntTuple] = None, hi: Optional[IntTuple] = None) -> MembershipResult:
        """The answer for a vector no base and cycle subset reaches, the
        same in every box and with no box.  An exhaustive run enumeration
        (`RunSearch.complete`: no run left that the run cap cut off, which
        holds at once when the start has no run) lists the whole language.
        At full caps the no rests on the base-run bound and on the split
        that `cycle_enumeration_complete` states, not on a size bound for
        simple cycles (they have none)."""
        if self.runs_complete:
            return MembershipResult(NON_MEMBER, note="run enumeration was exhaustive")
        if self.runs_capped or self.cycles_capped:
            search = "run" if self.runs_capped else "cycle"
            return MembershipResult(
                UNKNOWN, note=f"{search} search stopped at the state cap of {self.state_cap}"
            )
        if self.cycles_complete and self.run_cap >= base_run_bound(self.grammar).value:
            return _NO
        return _CAPS_BELOW

    result = _Engine.result  # on the class itself, which `bench/tracing.py` wraps

    def _hit(self, t: IntTuple) -> Optional[tuple]:
        return _first_hit(self._queries, t)

    def _box(self, lo: int, hi: int) -> frozenset[IntTuple]:
        return _box_union(self._queries, lo, hi)

    def _base_run(self, supp: frozenset, w: IntTuple) -> TransitionMultiset:
        return self._bases[supp][w]

    def _cycle(self, anchor: str, z: IntTuple) -> TransitionMultiset:
        return self._pools[anchor][z]


def member_general(
    g: Grammar,
    v: Vec,
    run_cap: int = 10,
    cycle_cap: int = 8,
    state_cap: int = DEFAULT_STATE_CAP,
) -> MembershipResult:
    """Bounded membership for general normal-form grammars: a yes comes
    with a checkable witness, otherwise unknown (or a definite no when
    the enumerations were provably exhaustive)."""
    return _general_state(g, run_cap, cycle_cap, state_cap).result(v)


@lru_cache(maxsize=32)
def _general_state(g: Grammar, run_cap: int, cycle_cap: int, state_cap: int) -> GeneralMembership:
    return GeneralMembership(g, run_cap, cycle_cap, state_cap)


# ---------------------------------------------------------------------------
# the brute-force oracle as an engine, and the one engine switch


class OracleMembership(_Engine):
    """`dense_oracle` to `depth` on the window [-window..window]^alphabet
    as an engine state, answering on its dense tuples.  The vectors found
    are members (with no decomposition); a miss is a definite no only
    inside the window and when the search was exhausted."""

    def __init__(self, g: Grammar, depth: int, window: int):
        self.order = g.alphabet
        self.depth = depth
        self.window = window
        self.found, self.exhausted = dense_oracle(g, depth, window)
        cut = "" if self.exhausted else " (search cut at the depth)"
        self.note = f"oracle with depth {depth}, window {window}{cut}"

    def miss(self, lo: Optional[IntTuple] = None, hi: Optional[IntTuple] = None) -> MembershipResult:
        """A definite no only inside the window of an exhausted search."""
        if lo is None or min(lo, default=0) < -self.window or max(hi, default=0) > self.window:
            return MembershipResult(
                UNKNOWN, note=f"note: the vector lies outside the oracle window {self.window}"
            )
        if not self.exhausted:
            return MembershipResult(
                UNKNOWN, note=f"note: the oracle search was cut at depth {self.depth}"
            )
        return _NO

    def _hit(self, t: IntTuple) -> Optional[tuple]:
        # found: a member with no decomposition behind it
        return () if t in self.found else None

    def _box(self, lo: int, hi: int) -> frozenset[IntTuple]:
        return frozenset(t for t in self.found if all(lo <= x <= hi for x in t))


ENGINES = ("regular-dp", "general-caps", "oracle")

DESK_BOUND_CAP = 200


@lru_cache(maxsize=32)
def desk_run_bound(g: Grammar) -> int:
    """regular-dp's default run bound: the base-run bound, at most
    DESK_BOUND_CAP; worked out once per grammar, as `engine` asks on
    every call."""
    return min(base_run_bound(g).value, DESK_BOUND_CAP)


def engine(
    g: Grammar,
    name: str,
    window: int = 0,
    bound: Optional[int] = None,
    run_cap: int = 10,
    cycle_cap: int = 8,
    depth: Optional[int] = None,
) -> RegularMembership | GeneralMembership | OracleMembership:
    """The state of the engine `name` (one of `ENGINES`) for g.

    regular-dp reads the normalized grammar (`normalize`) at the run
    bound (default `desk_run_bound`), shared through `_regular_state`;
    general-caps reads it under the run and cycle caps, shared through
    `_general_state`.  The oracle searches g to `depth` (default
    4 * window + 4) on the window [-window..window]^alphabet."""
    if name == "oracle":
        return OracleMembership(g, 4 * window + 4 if depth is None else depth, window)
    g = normalize(g)
    if name == "regular-dp":
        return _regular_state(g, desk_run_bound(g) if bound is None else bound)
    if name == "general-caps":
        return _general_state(g, run_cap, cycle_cap, DEFAULT_STATE_CAP)
    raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
