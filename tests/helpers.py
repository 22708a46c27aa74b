"""Shared test utilities: seeded random instance generators and small
independent oracles (written naively on purpose; they cross-check the
library, so they must not reuse its algorithms)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import add
from typing import Optional, Sequence

from parikh import (
    CycleTerm,
    Grammar,
    TransitionMultiset,
    Vec,
    Witness,
    difference_grammar,
    grammar_from_rules,
    member_regular,
    parse_grammar,
    trim,
)
from parikh.decomposition import base_run_bound
from parikh.intlinalg import CosetIndex, PeriodLattice
from parikh.membership import (
    DESK_BOUND_CAP,
    MEMBER,
    NON_MEMBER,
    UNKNOWN,
    Cell,
    GeneralMembership,
    IntTuple,
    MembershipResult,
    RegularMembership,
    oracle_language,
)
from parikh.runs import (
    SearchCapExceeded,
    enumerate_runs,
    enumerate_simple_cycles,
)

GA_TEXT = "alphabet: a\nstart: S\nS -> a : S\nS -> :\n"
GB_TEXT = "alphabet: a\nstart: S\nS -> a : T\nT -> a : S\nS -> :\n"
GC_TEXT = "alphabet: a\nstart: S\nS -> a : S S\nS -> :\n"
# S -> b : S, S -> : Q1, Q1 -> : Q2, ..., Q30 -> a : derives every a b^n, the
# shortest (a) in 31 steps; the all-words grammar derives every a^m b^n
CHAIN_TEXT = "alphabet: a b\nstart: S\nS -> b : S\nS -> : Q1\n" + "".join(
    f"Q{i} -> : Q{i + 1}\n" for i in range(1, 30)
) + "Q30 -> a :\n"
ALL_WORDS_TEXT = "alphabet: a b\nstart: S\nS -> a : S\nS -> b : S\nS -> :\n"


def ga() -> Grammar:
    return parse_grammar(GA_TEXT)


def gb() -> Grammar:
    return parse_grammar(GB_TEXT)


def gc() -> Grammar:
    return parse_grammar(GC_TEXT)


def random_grammar(
    rng: random.Random,
    max_nonterminals: int = 4,
    max_letters: int = 2,
    regular: bool = False,
    neg_prob: float = 0.15,
    extra_rules: int = 3,
    exact_letters: Optional[int] = None,
) -> Grammar:
    """Random normal-form grammar with at least one final transition."""
    n = rng.randint(1, max_nonterminals)
    a = exact_letters if exact_letters is not None else rng.randint(1, max_letters)
    nts = [f"Q{i}" for i in range(n)]
    letters = ["a", "b", "c"][:a]
    rules = []
    for _ in range(rng.randint(n, n + extra_rules)):
        src = rng.choice(nts)
        if rng.random() < 0.3:
            out = Vec.zero()
        else:
            sign = -1 if rng.random() < neg_prob else 1
            out = Vec.unit(rng.choice(letters), sign)
        roll = rng.random()
        if regular:
            targets = Vec.zero() if roll < 0.35 else Vec.unit(rng.choice(nts))
        elif roll < 0.3:
            targets = Vec.zero()
        elif roll < 0.75:
            targets = Vec.unit(rng.choice(nts))
        else:
            targets = Vec.unit(rng.choice(nts)) + Vec.unit(rng.choice(nts))
        rules.append((src, out, targets))
    if not any(t.is_zero() for _, _, t in rules):
        rules.append((rng.choice(nts), Vec.zero(), Vec.zero()))
    return grammar_from_rules(letters, "Q0", rules)


def random_grammar_with_dead_ends(rng: random.Random, start: Optional[str] = None, **kw) -> Grammar:
    """`random_grammar` plus two nonterminals without runs, which some
    rules lead into: `U`, whose every rule leads back to `U`, and `Z`,
    which has no rules.  `start` replaces the start symbol; with
    `regular` set every added rule has one target, so the grammar stays
    regular."""
    g = random_grammar(rng, **kw)
    regular = kw.get("regular", False)
    nts, letters = list(g.nonterminals), list(g.alphabet)
    rules = [(t.source, t.output, t.targets) for t in g.transitions]
    rules.append(("U", Vec.unit(rng.choice(letters)), Vec.unit("U")))
    if regular:
        rules.append(("U", Vec.zero(), Vec.unit("U")))
    else:
        rules.append(("U", Vec.zero(), Vec.unit("U") + Vec.unit(rng.choice(nts))))
    for _ in range(rng.randint(1, 3)):
        targets = Vec.unit(rng.choice(["U", "Z"]))
        if not regular and rng.random() < 0.5:
            targets = targets + Vec.unit(rng.choice(nts))
        out = Vec.unit(rng.choice(letters)) if rng.random() < 0.5 else Vec.zero()
        rules.append((rng.choice(nts), out, targets))
    return grammar_from_rules(letters, start or g.start, rules)


def random_marking(rng: random.Random, g: Grammar, max_total: int = 2) -> Vec:
    total = rng.randint(1, max_total)
    acc = Vec.zero()
    for _ in range(total):
        acc = acc + Vec.unit(rng.choice(g.nonterminals))
    return acc


def simulate_subrun(
    rng: random.Random, g: Grammar, src: Vec, steps: int
) -> tuple[TransitionMultiset, Vec]:
    """Fire random enabled transitions; valid subrun by construction."""
    marking = src
    counts: dict[str, int] = {}
    for _ in range(steps):
        enabled = [t for t in g.transitions if marking.get(t.source) >= 1]
        if not enabled:
            break
        t = rng.choice(enabled)
        counts[t.tid] = counts.get(t.tid, 0) + 1
        marking = marking - Vec.unit(t.source) + t.targets
    return TransitionMultiset.from_counts(g, counts), marking


def random_run(
    rng: random.Random, g: Grammar, max_steps: int = 24, tries: int = 40
) -> Optional[TransitionMultiset]:
    """Random run from the start symbol: simulate, preferring finals once
    the marking grows, and retry until a derivation terminates."""
    for _ in range(tries):
        marking = Vec.unit(g.start)
        counts: dict[str, int] = {}
        for _ in range(max_steps):
            if marking.is_zero():
                return TransitionMultiset.from_counts(g, counts)
            enabled = [t for t in g.transitions if marking.get(t.source) >= 1]
            if not enabled:
                break
            finals = [t for t in enabled if t.targets.is_zero()]
            shrinking = [t for t in enabled if t.targets.total() <= 1]
            if finals and (marking.total() > 2 or rng.random() < 0.45):
                t = rng.choice(finals)
            elif shrinking and marking.total() > 3:
                t = rng.choice(shrinking)
            else:
                t = rng.choice(enabled)
            counts[t.tid] = counts.get(t.tid, 0) + 1
            marking = marking - Vec.unit(t.source) + t.targets
        if marking.is_zero() and counts:
            return TransitionMultiset.from_counts(g, counts)
    return None


def random_ring_grammar(rng: random.Random, n: int, letters: Sequence[str], neg: float = 0.25) -> Grammar:
    """Normal-form grammar on Q0..Q{n-1} built around the ring Q0 -> Q1
    -> ... -> Q0, each ring rule emitting one letter, plus up to n + 1
    unary or binary rules whose letter may be negative, and final rules
    on a random nonempty set of nonterminals."""
    nts = [f"Q{i}" for i in range(n)]
    rules = [(q, Vec.unit(rng.choice(letters)), Vec.unit(nts[(i + 1) % n])) for i, q in enumerate(nts)]
    for _ in range(rng.randint(1, n + 1)):
        out = Vec.zero()
        if rng.random() >= 0.3:
            out = Vec.unit(rng.choice(letters), -1 if rng.random() < neg else 1)
        targets = Vec.unit(rng.choice(nts))
        if rng.random() < 0.25:
            targets = targets + Vec.unit(rng.choice(nts))
        rules.append((rng.choice(nts), out, targets))
    rules.extend((q, Vec.zero(), Vec.zero()) for q in rng.sample(nts, rng.randint(1, n)))
    return grammar_from_rules(list(letters), "Q0", rules)


def random_long_run(rng: random.Random, g: Grammar, grow: int) -> Optional[TransitionMultiset]:
    """Run from the start symbol of at least `grow` transitions: fire
    random rules with targets for `grow` steps (only one-target rules
    while more than three nonterminals are pending), then wind down on
    final rules where one is enabled; None past 3 * grow + 50 steps."""
    marking = Vec.unit(g.start)
    counts: dict[str, int] = {}
    for step in range(3 * grow + 50):
        if marking.is_zero():
            return TransitionMultiset.from_counts(g, counts)
        enabled = [t for t in g.transitions if marking.get(t.source) >= 1]
        if step < grow:
            pool = [t for t in enabled if not t.targets.is_zero()] or enabled
            if marking.total() > 3:
                pool = [t for t in pool if t.targets.total() <= 1] or pool
        else:
            pool = ([t for t in enabled if t.targets.is_zero()]
                    or [t for t in enabled if t.targets.total() <= 1] or enabled)
        t = rng.choice(pool)
        counts[t.tid] = counts.get(t.tid, 0) + 1
        marking = marking - Vec.unit(t.source) + t.targets
    return None


def with_unreachable_cycle(g: Grammar) -> tuple[Grammar, dict[str, int]]:
    """Extend a grammar with a detached two-state cycle; returns the new
    grammar and the cycle's counts (a connectivity-violating addition)."""
    rules = [(t.source, t.output, t.targets) for t in g.transitions]
    rules.append(("Zc0", Vec.zero(), Vec.unit("Zc1")))
    rules.append(("Zc1", Vec.zero(), Vec.unit("Zc0")))
    g2 = grammar_from_rules(g.alphabet, g.start, rules)
    n = len(g.transitions)
    return g2, {f"t{n + 1}": 1, f"t{n + 2}": 1}


# ---------------------------------------------------------------------------
# independent oracles


def cofactor_determinant(m: Sequence[Sequence[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_determinant(minor)
    return total


def naive_rank(vectors: Sequence[Vec]) -> int:
    syms = sorted({s for v in vectors for s in v.support()})
    rows = [[Fraction(v.get(s)) for s in syms] for v in vectors]
    rank = 0
    for col in range(len(syms)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def ref_nonneg_integer_solve(periods: Sequence[Vec], v: Vec) -> Optional[list[int]]:
    """Coefficients n in N^k with sum n_i * periods[i] = v, or None, by
    Gauss-Jordan over `Fraction`s; the periods must be independent."""
    if naive_rank(periods) != len(periods):
        raise ValueError("periods must be linearly independent")
    syms = sorted({s for p in [*periods, v] for s in p.support()})
    rows = [[Fraction(p.get(s)) for p in periods] + [Fraction(v.get(s))] for s in syms]
    k = len(periods)
    pivots: list[int] = []
    for col in range(k):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    # independent periods: every column is a pivot; the rest must be 0 = 0
    if any(row[k] != 0 for row in rows[k:]):
        return None
    sol = [row[k] for row in rows[:k]]
    if any(x.denominator != 1 or x < 0 for x in sol):
        return None
    return [int(x) for x in sol]


def random_bundle_parts(rng: random.Random) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(bases, periods) of a random simple bundle over some of the letters
    a, b, c: 1-4 bases and 0-dim linearly independent periods."""
    letters = rng.sample("abc", rng.randint(1, 3))
    while True:
        periods = tuple(
            Vec({s: rng.randint(-2, 2) for s in letters})
            for _ in range(rng.randint(0, len(letters)))
        )
        if naive_rank(periods) == len(periods):
            break
    bases = tuple(
        Vec({s: rng.randint(-3, 3) for s in letters}) for _ in range(rng.randint(1, 4))
    )
    return bases, periods


def ref_minimal_bases(bases: Sequence[Vec], periods: Sequence[Vec]) -> tuple[Vec, ...]:
    """The distinct bases that no other base reaches by adding an
    N-combination of the periods, in `Vec.sort_key` order: every pair is
    checked with the exact `Fraction` solve above."""
    uniq = sorted(set(bases), key=Vec.sort_key)
    return tuple(
        w for w in uniq
        if not any(u != w and ref_nonneg_integer_solve(periods, w - u) is not None for u in uniq)
    )


def enumerate_combinations(base: Vec, periods: Sequence[Vec], coeff_bound: int) -> set[Vec]:
    """All base + sum c_i * periods[i] with 0 <= c_i <= coeff_bound."""
    out = set()
    for combo in product(range(coeff_bound + 1), repeat=len(periods)):
        acc = base
        for c, p in zip(combo, periods):
            if c:
                acc = acc + p * c
        out.add(acc)
    return out


def brute_force_multisets(g: Grammar, max_total: int):
    """Every transition count tuple with total in [1..max_total]."""
    tids = [t.tid for t in g.transitions]

    def rec(i: int, left: int, acc: dict[str, int]):
        if i == len(tids):
            if acc:
                yield TransitionMultiset.from_counts(g, dict(acc))
            return
        for c in range(left + 1):
            if c:
                acc[tids[i]] = c
            yield from rec(i + 1, left - c, acc)
            if c:
                del acc[tids[i]]

    yield from rec(0, max_total, {})


# ---------------------------------------------------------------------------
# Vec-based reference searches: the plain loops the library's searches on
# the compiled grammar view must reproduce exactly (same sets, same order,
# same cap behaviour).


def ref_oracle_language(g: Grammar, depth: int, window: int) -> frozenset:
    order = g.alphabet
    rising = {i for i, s in enumerate(order) if all(t.output.get(s) >= 0 for t in g.transitions)}
    falling = {i for i, s in enumerate(order) if all(t.output.get(s) <= 0 for t in g.transitions)}
    start = (Vec.unit(g.start), (0,) * len(order))
    visited, frontier, done = {start}, [start], set()
    for level in range(depth):
        budget = depth - level
        new_frontier = []
        for marking, value in frontier:
            q = marking.support()[0]
            for t in g.transitions:
                if t.source != q:
                    continue
                new_marking = marking - Vec.unit(q) + t.targets
                if new_marking.total() > budget - 1:
                    continue
                new_value = tuple(v + t.output.get(s) for v, s in zip(value, order))
                if any((i in rising and x > window) or (i in falling and x < -window)
                       for i, x in enumerate(new_value)):
                    continue
                if new_marking.is_zero():
                    done.add(new_value)
                elif (new_marking, new_value) not in visited:
                    visited.add((new_marking, new_value))
                    new_frontier.append((new_marking, new_value))
        frontier = new_frontier
    return frozenset(Vec.from_tuple(v, order) for v in done if all(abs(x) <= window for x in v))


@lru_cache(maxsize=256)
def ref_least_run_sizes(g: Grammar) -> dict:
    """Per nonterminal, the fewest transitions in a run from it (None for
    no run), by breadth-first search over nonempty markings at doubling
    budgets.  Within a budget b >= d(q), every marking on the least
    run's way has at most b - level pending nonterminals, so the first
    level that reaches the empty marking is d(q).  A least run tree repeats no
    nonterminal on a root-to-leaf path (a repeat could stand in for its
    ancestor), so it has at most 1 + f + ... + f^(N-1) vertices (f the
    widest fan-out) and no pending q below its root q; a search finding
    nothing within that budget means no run."""
    fan = max([1] + [t.targets.total() for t in g.transitions])
    cap = sum(fan**k for k in range(len(g.nonterminals)))
    out = {}
    for q in g.nonterminals:
        out[q] = None
        budget = 1
        while out[q] is None and budget < 2 * cap:
            frontier, seen = {Vec.unit(q)}, set()
            for level in range(1, min(budget, cap) + 1):
                # a derivation tree can grow its pending leaves in any order,
                # so each step expands the first pending nonterminal
                frontier = {
                    m - Vec.unit(t.source) + t.targets
                    for m in frontier
                    for t in g.transitions
                    if t.source == m.support()[0]
                }
                if Vec.zero() in frontier:
                    out[q] = level
                    break
                # every pending nonterminal still needs a step
                frontier = {
                    m for m in frontier if m.total() <= budget - level and not m.get(q)
                } - seen
                seen |= frontier
            budget *= 2
    return out


def ref_steps_needed(d: dict, marking: Vec, to_unit: bool) -> Optional[int]:
    """Bound on the steps from `marking` to the empty marking, or to a
    unit marking when `to_unit` (one pending occurrence may then be the
    one left over, so the costliest is not counted), given the least run
    sizes `d`.  None when no number of steps gets there."""
    costs = [d[q] for q, c in marking for _ in range(c)]
    if to_unit:
        if not costs:
            return None
        costs.remove(None if None in costs else max(costs))
    return None if None in costs else sum(costs)


def ref_enumerate_runs(g: Grammar, p: str, max_size: int, state_cap: int, prune: bool = True):
    """(runs, complete, capped) as plain values.  With `prune`, a state is
    kept only when `ref_steps_needed` says it can finish within
    max_size; one that can finish but not in time is cut, and a cut
    search is not complete."""
    start = (Vec.unit(p), Vec.zero())
    frontier, visited, found = [start], {start}, []
    capped = exhausted = cut = False
    d = ref_least_run_sizes(g)
    states = 1
    for size in range(1, max_size + 1):
        new_frontier, level = [], set()
        for marking, used in frontier:
            for t in g.transitions:
                if marking.get(t.source) < 1:
                    continue
                state = (marking - Vec.unit(t.source) + t.targets, used + Vec.unit(t.tid))
                if prune:
                    need = ref_steps_needed(d, state[0], False)
                    if need is None:
                        continue
                    if size + need > max_size:
                        cut = True
                        continue
                if state in visited:
                    continue
                visited.add(state)
                states += 1
                if states > state_cap:
                    capped = True
                    break
                new_frontier.append(state)
                if state[0].is_zero():
                    level.add(state[1])
            if capped:
                break
        found.extend(sorted(level, key=Vec.sort_key))
        frontier = new_frontier
        if capped:
            break
        if not frontier:
            exhausted = True
            break
    return found, exhausted and not capped and not cut, capped


def ref_iter_cycles(
    g: Grammar, anchors, max_size: int, within=None, state_cap: int = 500_000, prune: bool = True
):
    """Yields (counts Vec, anchor); raises RuntimeError('cap') past the cap.
    With `prune`, a state is kept only when `ref_steps_needed` says it
    can get back to its anchor within max_size."""
    anchors = sorted(set(anchors))
    d = ref_least_run_sizes(g)
    frontiers = {q: [(Vec.unit(q), Vec.zero())] for q in anchors}
    visited = {q: set(f) for q, f in frontiers.items()}
    states = len(anchors)
    for size in range(1, max_size + 1):
        level: dict = {}
        new_frontiers: dict = {q: [] for q in anchors}
        for q in anchors:
            for marking, used in frontiers[q]:
                for t in g.transitions:
                    if marking.get(t.source) < 1:
                        continue
                    new_used = used + Vec.unit(t.tid)
                    if within is not None and not new_used <= within:
                        continue
                    state = (marking - Vec.unit(t.source) + t.targets, new_used)
                    if prune:
                        need = ref_steps_needed(d, state[0], True)
                        if need is None or size + need > max_size:
                            continue
                    if state in visited[q]:
                        continue
                    visited[q].add(state)
                    states += 1
                    if states > state_cap:
                        raise RuntimeError("cap")
                    new_frontiers[q].append(state)
                    if state[0] == Vec.unit(q) and new_used not in level:
                        level[new_used] = q
        for used in sorted(level, key=Vec.sort_key):
            yield used, level[used]
        frontiers = new_frontiers
        if all(not f for f in frontiers.values()):
            return


def ref_is_subrun(g: Grammar, counts: Vec, src: Vec, dst: Vec) -> Optional[str]:
    """None when valid, else 'euler' or 'connectivity'."""
    ms = TransitionMultiset(g, counts)
    if ms.source() - src != ms.target() - dst:
        return "euler"
    edges: dict = {}
    for tid, _c in counts:
        t = g.transition(tid)
        edges.setdefault(t.source, set()).update(t.targets.support())
    seen = {q for q, c in src if c > 0}
    stack = list(seen)
    while stack:
        for r in edges.get(stack.pop(), ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return None if ms.supp() <= seen else "connectivity"


def ref_removable_cycle(g: Grammar, run: Vec, p: str, keep) -> Optional[tuple[Vec, str]]:
    """The first cycle a fresh `ref_iter_cycles` search over `run` lists
    whose removal leaves a run from p using every nonterminal in `keep`,
    with the least nonterminal of its support that the rest uses and it
    returns to; None when there is none."""
    def sources(counts: Vec) -> set:
        return {g.transition(tid).source for tid, _c in counts}

    for cycle, _q in ref_iter_cycles(g, sorted(sources(run)), run.total(), within=run):
        rest = run - cycle
        held = sources(rest)
        if not set(keep) <= held or ref_is_subrun(g, rest, Vec.unit(p), Vec.zero()) is not None:
            continue
        for q in sorted(sources(cycle)):
            if q in held and ref_is_subrun(g, cycle, Vec.unit(q), Vec.unit(q)) is None:
                return cycle, q
    return None


def ref_strip_cycles(g: Grammar, run: Vec, p: str) -> tuple[list, Vec]:
    """Strip `ref_removable_cycle`s, each with the anchors stripped so
    far to keep, until none is left: one fresh search per stripped copy.
    Returns the (cycle, anchor) pairs in order and the rest."""
    stripped: list = []
    while (hit := ref_removable_cycle(g, run, p, {q for _c, q in stripped})) is not None:
        stripped.append(hit)
        run = run - hit[0]
    return stripped, run


def ref_order_subrun(g: Grammar, counts: Vec, src: Vec, dst: Vec) -> list:
    seq, marking = [], src
    while not counts.is_zero():
        for t in g.transitions:
            if counts.get(t.tid) <= 0 or marking.get(t.source) < 1:
                continue
            rest = counts - Vec.unit(t.tid)
            advanced = marking - Vec.unit(t.source) + t.targets
            if ref_is_subrun(g, rest, advanced, dst) is None:
                seq.append(t.tid)
                counts, marking = rest, advanced
                break
        else:
            raise AssertionError("stuck")
    return seq


def ref_simple_cycles(g: Grammar, q: str, limit: int) -> list:
    """Simple cycles from q of size <= limit, via the reference search."""
    out = []
    for cand, _ in ref_iter_cycles(g, [q], limit):
        size = cand.total()
        simple = size == 1 or not any(
            ref_is_subrun(g, cand - part, Vec.unit(q), Vec.unit(q)) is None
            for part, _ in ref_iter_cycles(g, [q], size - 1, within=cand)
        )
        if simple:
            out.append(cand)
    return out


# The run and path tables as two separate breadth-first builders: the
# reference the one backward path table in `parikh.membership` must
# reproduce (same cells, least sizes and exhaustion flag).


def supports_up_to(g: Grammar, limit: int) -> set[frozenset]:
    """Every set of at most `limit` nonterminals of g."""
    return {frozenset(c) for k in range(limit + 1) for c in combinations(g.nonterminals, k)}


def ref_run_cells(g: Grammar, bound: int, supports) -> tuple[dict, bool]:
    """Run cells built forwards from the final rules, keyed by the empty
    support and each support in `supports`; level n adds vectors of runs
    of size n.  Also reports whether the frontier emptied before the
    bound."""
    cg = g.compiled
    names = cg.nonterminals
    zero = (0,) * len(cg.letters)
    finals: dict[str, list[IntTuple]] = {}
    unaries: dict[str, list[tuple[str, IntTuple]]] = {}  # r -> [(q, out)]
    for src, targets, out in zip(cg.source, cg.targets, cg.output):
        if targets:
            unaries.setdefault(names[targets[0]], []).append((names[src], out))
        else:
            finals.setdefault(names[src], []).append(out)

    cells: dict[Cell, dict[IntTuple, int]] = {}
    frontier: dict[Cell, list[IntTuple]] = {}
    for q, outs in finals.items():
        key = (frozenset(), q)
        cell = cells.setdefault(key, {})
        fresh = []
        for out in outs:
            if out not in cell:
                cell[out] = 1
                fresh.append(out)
        if fresh:
            frontier[key] = fresh

    exhausted = False
    for level in range(2, bound + 1):
        new_frontier: dict[Cell, list[IntTuple]] = {}
        for (p2, r), vecs in frontier.items():
            for q, out in unaries.get(r, ()):
                keys = {(p2 - {q}, q)}
                grown = (p2 | {r}) - {q}
                if grown in supports:
                    keys.add((grown, q))
                for key in keys:
                    cell = cells.setdefault(key, {})
                    bucket = None
                    for vec in vecs:
                        new_vec = tuple(map(add, vec, out)) if out != zero else vec
                        if new_vec not in cell:
                            cell[new_vec] = level
                            if bucket is None:
                                bucket = new_frontier.setdefault(key, [])
                            bucket.append(new_vec)
        frontier = new_frontier
        if not frontier:
            exhausted = True
            break
    else:
        exhausted = not frontier
    return cells, exhausted


def ref_path_cells(g: Grammar, bound: int) -> dict:
    """Path cells between all nonterminal pairs (q1, q2), built breadth-first
    from the empty path at every (q, q)."""
    cg = g.compiled
    names = cg.nonterminals
    cells: dict[tuple[str, str], dict[IntTuple, int]] = {}
    zero = (0,) * len(cg.letters)
    frontier: dict[tuple[str, str], list[IntTuple]] = {}
    for q in names:
        cells[(q, q)] = {zero: 0}
        frontier[(q, q)] = [zero]
    steps: dict[str, list[tuple[str, IntTuple]]] = {}  # r -> [(q1, out)]
    for src, targets, out in zip(cg.source, cg.targets, cg.output):
        if targets:
            steps.setdefault(names[targets[0]], []).append((names[src], out))
    for level in range(1, bound + 1):
        new_frontier: dict[tuple[str, str], list[IntTuple]] = {}
        for (r, q2), vecs in frontier.items():
            for q1, out in steps.get(r, ()):
                cell = cells.setdefault((q1, q2), {})
                for vec in vecs:
                    new_vec = tuple(map(add, vec, out))
                    if new_vec not in cell:
                        cell[new_vec] = level
                        new_frontier.setdefault((q1, q2), []).append(new_vec)
        frontier = new_frontier
        if not frontier:
            break
    return cells


# Point-by-point window sweeps: the reference the set-at-a-time sweeps in
# `parikh.windows` must reproduce (same verdict, witness and notes).  Each
# engine answers one Vec at a time, on a freshly built decision state.


def ref_box_members(state, lo: int, hi: int, status: str = MEMBER) -> frozenset:
    """Dense tuples in [lo..hi]^alphabet that `state.result` answers with
    `status` (by default, accepts)."""
    return frozenset(
        t
        for t in product(range(lo, hi + 1), repeat=len(state.order))
        if state.result(Vec.from_tuple(t, state.order), want_witness=False).status == status
    )


def ref_reaches_box(g: Grammar, v: Sequence[int], lo: Sequence[int], hi: Sequence[int]) -> bool:
    """Whether the vector v can still be pumped into the box with
    per-letter bounds lo, hi: it is not past hi on a letter no rule
    lowers, nor below lo on one no rule raises."""
    for j, letter in enumerate(g.alphabet):
        emitted = [t.output.get(letter) for t in g.transitions]
        if all(x >= 0 for x in emitted) and v[j] > hi[j]:
            return False
        if all(x <= 0 for x in emitted) and v[j] < lo[j]:
            return False
    return True


def ref_box_certified(state: RegularMembership, lo: Sequence[int], hi: Sequence[int],
                      supports=None) -> bool:
    """Whether a regular-dp miss inside the box is a definite no: the bound
    reaches the completeness threshold, or no run vector first reached at
    the bound (read off the forward reference build over `supports`,
    by default the state's tracked ones) reaches the box.  Both read the
    trimmed grammar, as the state does."""
    if state.bound >= state.complete_bound:
        return True
    if supports is None:
        supports = state._periods
    t = trim(state.grammar)
    cells, _exhausted = ref_run_cells(t, state.bound, supports)
    return not any(
        n == state.bound and ref_reaches_box(t, vec, lo, hi)
        for cell in cells.values()
        for vec, n in cell.items()
    )


def ref_full_table_result(state: RegularMembership, v: Vec) -> MembershipResult:
    """`state.result(v)` as answered from the full run table: the first
    query over every run up to the bound that reaches v, and a no that
    is definite only at the completeness threshold or when the whole
    build ran out of paths."""
    if any(sym not in state.order for sym in v.support()):
        return MembershipResult(NON_MEMBER, note="letters outside the alphabet")
    tv = v.to_tuple(state.order)
    _cut, runs = state._runs()
    for key, zs, index, anchors in runs.queries:
        if not zs:
            hit = (tv, ()) if tv in runs.cells[key] else None
        else:
            hit = index.lookup(tv)
        if hit is not None:
            w, coeffs = hit
            witness = state._witness((key, w, zs, coeffs, anchors))
            return MembershipResult(MEMBER, witness)
    _cells, exhausted = ref_run_cells(state.grammar, state.bound, state._periods)
    if state.bound >= state.complete_bound or exhausted:
        return MembershipResult(NON_MEMBER)
    return MembershipResult(UNKNOWN, note=f"no witness with base runs of size <= {state.bound}")


def ref_regular_reachable(g: Grammar, v: Sequence[int]) -> bool:
    """Whether some run of the regular grammar g has letter vector v, by a
    forward search over (nonterminal, partial vector) from the start that
    drops a partial vector once it is past v on a letter emitted only one
    way.  Finite when every letter is emitted one way."""
    start = (g.start, (0,) * len(g.alphabet))
    seen = {start}
    todo = [start]
    while todo:
        q, u = todo.pop()
        for t in g.transitions:
            if t.source != q:
                continue
            w = tuple(x + t.output.get(a) for x, a in zip(u, g.alphabet))
            if not ref_reaches_box(g, w, v, v):
                continue
            if t.targets.is_zero():
                if w == tuple(v):
                    return True
                continue
            (r, _count), = t.targets
            if (r, w) not in seen:
                seen.add((r, w))
                todo.append((r, w))
    return False


# member_regular at the completeness threshold tabulates every run up to
# it; above this threshold that is too slow for a test
EXACT_DIFFERENCE_BOUND = 1000


def zero_in_difference(g1: Grammar, g2: Grammar) -> Optional[bool]:
    """Whether the zero vector is in the language of difference_grammar(g1,
    g2), that is, whether L(g1) and L(g2) meet, decided exactly: by
    `member_regular` at its default bound (the completeness threshold)
    when that is at most EXACT_DIFFERENCE_BOUND, else by an oracle search
    that was exhausted.  None when neither applies."""
    diff = difference_grammar(g1, g2)
    zero = Vec.zero()
    if base_run_bound(diff).value <= EXACT_DIFFERENCE_BOUND:
        res = member_regular(diff, zero)
        assert res.status in (MEMBER, NON_MEMBER), res
        return res.status == MEMBER
    found = oracle_language(diff, 33, 0)
    return zero in found if found.exhausted else None


def ref_member_fn(g: Grammar, engine: str, window: int, bound=None, run_cap=10,
                  cycle_cap=8, depth=None, nonneg: bool = False):
    """A point answer (True, False or None = unknown) for every vector of
    the window box, with the engine's provenance note.  regular-dp
    answers a miss for the whole box at once: a definite no only when
    the box is certified, and then every point query must agree."""
    if engine == "regular-dp":
        if bound is None:
            bound = min(base_run_bound(trim(g)).value, DESK_BOUND_CAP)
        state = RegularMembership(g, bound)
        note = f"regular-dp with run bound {bound}" + (
            "" if bound >= state.complete_bound else " (below the completeness threshold)"
        )
        dim = len(g.alphabet)
        certified = ref_box_certified(state, ((0 if nonneg else -window),) * dim, (window,) * dim)

        def regular(v):
            status = state.result(v, want_witness=False).status
            if status == MEMBER:
                return True
            if certified:
                assert status == NON_MEMBER, v
                return False
            return None

        return regular, note
    if engine == "general-caps":
        state = GeneralMembership(g, run_cap, cycle_cap)
        answer = {MEMBER: True, NON_MEMBER: False}  # None: unknown
        return (
            lambda v: answer.get(state.result(v, want_witness=False).status),
            f"general-caps with run cap {run_cap}, cycle cap {cycle_cap}",
        )
    if depth is None:
        depth = 4 * window + 4
    members = oracle_language(g, depth, window)
    # a miss is a definite no only when the search was exhausted
    miss = False if members.exhausted else None
    note = f"oracle with depth {depth}, window {window}" + (
        "" if members.exhausted else " (search cut at the depth)"
    )
    return (lambda v: True if v in members else miss), note


def _ref_box(alphabet, window: int, nonneg: bool = False):
    lo = 0 if nonneg else -window
    for values in product(range(lo, window + 1), repeat=len(alphabet)):
        yield Vec.from_tuple(values, alphabet)


def ref_compare_within_window(g1: Grammar, g2: Grammar, window: int, mode: str,
                              engine: str, **params):
    """(verdict, witness, notes) of the point-by-point comparison sweep."""
    f1, note1 = ref_member_fn(g1, engine, window, **params)
    f2, note2 = ref_member_fn(g2, engine, window, **params)
    unknown_at = None
    for v in _ref_box(g1.alphabet, window):
        m1, m2 = f1(v), f2(v)
        if mode == "inclusion":
            bad = m1 is True and m2 is False
            unk = (m1 is None and m2 is not True) or (m1 is True and m2 is None)
        elif mode == "equivalence":
            bad = (m1 is True and m2 is False) or (m2 is True and m1 is False)
            unk = m1 is None or m2 is None
        else:
            bad = m1 is True and m2 is True
            unk = (m1 is None and m2 is not False) or (m2 is None and m1 is not False)
        if bad:
            return False, v, (note1, note2)
        if unk and unknown_at is None:
            unknown_at = v
    if unknown_at is not None:
        return None, unknown_at, (note1, note2)
    return True, None, (note1, note2)


def ref_universality_within_window(g: Grammar, window: int, ambient: str, engine: str,
                                   **params):
    """(verdict, witness, notes) of the point-by-point universality sweep."""
    nonneg = ambient == "naturals"
    fn, note = ref_member_fn(g, engine, window, **params, nonneg=nonneg)
    unknown_at = None
    for v in _ref_box(g.alphabet, window, nonneg):
        m = fn(v)
        if m is False:
            return False, v, (note,)
        if m is None and unknown_at is None:
            unknown_at = v
    if unknown_at is not None:
        return None, unknown_at, (note,)
    return True, None, (note,)


# The general engine's query loop as a Fraction solve per (base, maximal
# cycle subset) on Vecs: the reference `GeneralMembership.result` must
# reproduce (same status, witness and note).


def ref_maximal_independent_subsets(periods: Sequence[Vec]) -> list[tuple[int, ...]]:
    """Index tuples of the maximal independent subsets, sorted; each
    candidate is checked with a fresh rank."""
    results: list[tuple[int, ...]] = []

    def independent(vecs):
        return naive_rank(vecs) == len(vecs)

    def extend(chosen: list[int], start: int) -> None:
        extended = False
        for i in range(start, len(periods)):
            if independent([periods[j] for j in chosen] + [periods[i]]):
                extended = True
                extend(chosen + [i], i + 1)
        if not extended:
            vecs = [periods[j] for j in chosen]
            for i in range(len(periods)):
                if i not in chosen and independent(vecs + [periods[i]]):
                    return
            results.append(tuple(chosen))

    extend([], 0)
    return sorted(set(results)) or [()]


def ref_state_cycles(state: GeneralMembership, q: str) -> list:
    """The simple cycles at q under the state's cycle and state caps,
    listed afresh: none when the search outgrows the state cap."""
    try:
        return enumerate_simple_cycles(state.grammar, q, state.cycle_cap, state.state_cap)
    except SearchCapExceeded:
        return []


def ref_general_result(state: GeneralMembership, v: Vec) -> MembershipResult:
    """`state.result(v)` recomputed from a fresh run enumeration and the
    state's simple cycles, one `ref_nonneg_integer_solve` per candidate.

    Supports are tried by size, then names; per support, the maximal
    independent subsets of its cycle vectors in dense tuple order; per
    subset, of the bases it reaches v from (the first run per vector),
    the one with the lexicographically largest coefficient tuple."""
    g = state.grammar
    if any(sym not in g.alphabet for sym in v.support()):
        return MembershipResult(NON_MEMBER, note="letters outside the alphabet")
    search = enumerate_runs(g, g.start, state.run_cap, state.state_cap)
    groups: dict = {}
    for run in search.runs:
        groups.setdefault(run.supp(), {}).setdefault(run.parikh(), run)
    for supp in sorted(groups, key=lambda s: (len(s), sorted(s))):
        pool: dict = {}
        for q in sorted(supp):
            for cyc in ref_state_cycles(state, q):
                key = cyc.parikh()
                if not key.is_zero() and key not in pool:
                    pool[key] = (cyc, q)
        vec_list = sorted(pool, key=lambda x: x.to_tuple(g.alphabet))
        for idx in ref_maximal_independent_subsets(vec_list):
            vecs = [vec_list[i] for i in idx]
            best = None
            for w, run in groups[supp].items():
                if not vecs:
                    coeffs = [] if (v - w).is_zero() else None
                else:
                    coeffs = ref_nonneg_integer_solve(vecs, v - w)
                if coeffs is not None and (best is None or coeffs > best[0]):
                    best = (coeffs, run)
            if best is not None:
                coeffs, run = best
                terms = tuple(CycleTerm(*pool[p], n) for p, n in zip(vecs, coeffs) if n > 0)
                return MembershipResult(MEMBER, Witness(run, terms))
    if search.complete:
        return MembershipResult(NON_MEMBER, note="run enumeration was exhaustive")
    if search.capped:
        return MembershipResult(
            UNKNOWN, note=f"run search stopped at the state cap of {state.state_cap}"
        )
    bounds = base_run_bound(g)
    if state.run_cap >= bounds.value and state.cycle_cap >= bounds.cycle_size - 1:
        return MembershipResult(NON_MEMBER)
    return MembershipResult(UNKNOWN, note="caps below the completeness thresholds")


# The query structure before k-fold multiples left the cycle pools and
# equal period sets shared a lattice: the reference the pruned queries of
# `membership._prepare_queries` must reach the same points as.


def regular_query_groups(state: RegularMembership) -> list:
    """The (key, bases, anchors) groups of the full run table's queries:
    one per run cell from the start, by support size, then names."""
    cells = state._runs()[1].cells
    start = state.grammar.start
    keys = sorted((key for key in cells if key[1] == start), key=lambda k: (len(k[0]), sorted(k[0])))
    return [(key, cells[key], sorted(key[0] | {start})) for key in keys]


def general_query_groups(state: GeneralMembership) -> list:
    """The (key, bases, anchors) groups of a general-caps state's queries."""
    return [(supp, bases, sorted(supp)) for supp, bases in state._bases.items()]


def ref_queries(groups, pools: dict, dim: int, multiples: bool = True) -> list:
    """One (key, periods, coset index, anchors) query per group and per
    maximal independent subset of the group's whole pool
    (`ref_maximal_independent_subsets`), each index over a lattice of its
    own.  With multiples=False a pool vector that is k times another one,
    k >= 2, is left out first."""
    letters = "abcdefgh"[:dim]
    queries = []
    for key, bases, anchors in groups:
        pool = sorted({v for q in anchors for v in pools[q]})
        if not multiples:
            pool = [v for v in pool if not any(
                u != v and any(tuple(k * x for x in u) == v for k in range(2, max(map(abs, v)) + 1))
                for u in pool
            )]
        for subset in ref_maximal_independent_subsets([Vec.from_tuple(z, letters) for z in pool]):
            zs = tuple(pool[i] for i in subset)
            queries.append((key, zs, CosetIndex(PeriodLattice(zs, dim), bases), anchors))
    return queries


def ref_all_support_groups(state: RegularMembership) -> list:
    """The (key, bases, anchors) groups of one query per run cell from the
    start, over the forward reference build that keys every support of
    at most min(A, N) nonterminals, by support size, then names."""
    g = state.grammar
    limit = min(len(g.alphabet), len(g.nonterminals))
    cells, _exhausted = ref_run_cells(g, state.bound, supports_up_to(g, limit))
    keys = sorted((key for key in cells if key[1] == g.start),
                  key=lambda k: (len(k[0]), sorted(k[0])))
    return [(key, cells[key], sorted(key[0] | {g.start})) for key in keys]
