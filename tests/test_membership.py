import os
import random
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from parikh import (
    GeneralMembership,
    MembershipResult,
    RegularMembership,
    Vec,
    grammar_from_rules,
    is_run,
    member_general,
    member_regular,
    oracle_language,
    parse_grammar,
    regular_bundles,
    trim,
)
from parikh import intlinalg, membership, normalize
from parikh.hardness import hard_grammar
from parikh.runs import (
    DEFAULT_STATE_CAP,
    SearchCapExceeded,
    TransitionMultiset,
    dense_runs,
    dense_simple_cycles,
    enumerate_runs,
    enumerate_simple_cycles,
)
from parikh.membership import (
    FINAL,
    MEMBER,
    NON_MEMBER,
    UNKNOWN,
    _box_union,
    _first_hit,
    _cut,
    _path_cells,
    _without_multiples,
    dense_oracle,
)
from helpers import (
    CHAIN_TEXT,
    ga,
    gb,
    gc,
    general_query_groups,
    random_grammar,
    random_grammar_with_dead_ends,
    ref_all_support_groups,
    ref_box_members,
    ref_full_table_result,
    ref_general_result,
    ref_path_cells,
    ref_queries,
    ref_reaches_box,
    ref_regular_reachable,
    ref_run_cells,
    ref_state_cycles,
    regular_query_groups,
    supports_up_to,
)


def vecs(xs):
    return {Vec.unit("a", x) if x else Vec.zero() for x in xs}


class TestOracle:
    def test_ga(self):
        assert oracle_language(ga(), 5, 5) == vecs(range(5))

    def test_no_final(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : S")
        assert oracle_language(g, 8, 8) == frozenset()

    def test_gc(self):
        assert oracle_language(gc(), 7, 3) == vecs(range(4))

    def test_window_filter(self):
        assert oracle_language(ga(), 10, 2) == vecs(range(3))

    def test_exhausted_only_when_nothing_was_cut(self):
        # a^5 takes 6 steps; at depth 6 the one step past the budget
        # leaves the window anyway, so it does not count as cut
        assert not oracle_language(ga(), 5, 5).exhausted
        assert oracle_language(ga(), 6, 5).exhausted
        assert oracle_language(ga(), 6, 5) == vecs(range(6))
        assert not oracle_language(ga(), 0, 5).exhausted

    def test_two_way_letter_is_pruned_where_it_moves_one_way(self):
        # a moves both ways, but U only raises it and D only lowers it
        g = parse_grammar(
            "alphabet: a\nstart: S\nS -> : U\nS -> : D\n"
            "U -> a : U\nU -> :\nD -> a^-1 : D\nD -> :"
        )
        found = oracle_language(g, 50, 3)
        assert found == vecs(range(-3, 4)) and found.exhausted
        both = parse_grammar("alphabet: a\nstart: S\nS -> a : S\nS -> a^-1 : S\nS -> :")
        assert not oracle_language(both, 50, 3).exhausted


class VecSetOracle:
    """The oracle engine's answers read off `oracle_language`'s `Vec` set,
    as the engine gave them before it answered on dense tuples."""

    def __init__(self, g, depth, window):
        self.order, self.depth, self.window = g.alphabet, depth, window
        self.found = oracle_language(g, depth, window)

    def miss(self, lo=None, hi=None):
        if lo is None or min(lo, default=0) < -self.window or max(hi, default=0) > self.window:
            return (UNKNOWN, f"note: the vector lies outside the oracle window {self.window}")
        if not self.found.exhausted:
            return (UNKNOWN, f"note: the oracle search was cut at depth {self.depth}")
        return (NON_MEMBER, "")

    def result(self, v):
        if v in self.found:
            return (MEMBER, "")
        if any(sym not in self.order for sym in v.support()):
            return (NON_MEMBER, "letters outside the alphabet")
        tv = v.to_tuple(self.order)
        return self.miss(tv, tv)

    def box_members(self, lo, hi):
        found = (v.to_tuple(self.order) for v in self.found)
        return frozenset(t for t in found if all(lo <= x <= hi for x in t))


_oracle_rng = random.Random(2417)
ORACLE_GRAMMARS = [
    random_grammar(_oracle_rng, max_letters=3, regular=k % 2 == 0, neg_prob=0.3, extra_rules=4)
    for k in range(40)
]


ORACLE_SIZES = ((0, 0), (0, 2), (1, 1), (4, 1), (6, 2), (9, 2))


@pytest.mark.parametrize("index", range(len(ORACLE_GRAMMARS)))
def test_dense_oracle_is_the_search_behind_oracle_language(index):
    g = ORACLE_GRAMMARS[index]
    for depth, window in ORACLE_SIZES:
        found, exhausted = dense_oracle(g, depth, window)
        assert all(len(t) == len(g.alphabet) for t in found)
        language = oracle_language(g, depth, window)
        assert language == frozenset(Vec.from_tuple(t, g.alphabet) for t in found)
        assert language.exhausted is exhausted


def _oracle_probes(g, window):
    """Every point of the window box, points just outside it on each
    side, and one vector with a letter outside the alphabet."""
    dim = len(g.alphabet)
    points = list(product(range(-window, window + 1), repeat=dim))
    for j in range(dim):
        for x in (-window - 1, window + 1, 3 * window + 2):
            points.append(tuple(x if i == j else 0 for i in range(dim)))
    probes = [Vec.from_tuple(t, g.alphabet) for t in points]
    return probes + [Vec.unit("z") + Vec.unit(g.alphabet[0])]


@pytest.mark.parametrize("index", range(len(ORACLE_GRAMMARS)))
def test_oracle_engine_answers_as_the_vec_set_did(index):
    g = ORACLE_GRAMMARS[index]
    dim = len(g.alphabet)
    for depth, window in ORACLE_SIZES:
        state = membership.engine(g, "oracle", window, depth=depth)
        ref = VecSetOracle(g, depth, window)
        for v in _oracle_probes(g, window):
            res = state.result(v)
            assert (res.status, res.note or "") == ref.result(v), (v, depth, window)
            assert res.witness is None
        for lo, hi in ((-window, window), (0, window), (-window - 1, window + 1), (1, 1)):
            assert state.box_members(lo, hi) == ref.box_members(lo, hi)
            box = ((lo,) * dim, (hi,) * dim)
            miss = state.miss(*box)
            assert (miss.status, miss.note or "") == ref.miss(*box)
        assert (state.miss().status, state.miss().note) == (UNKNOWN, ref.miss()[1])


def test_oracle_engine_cases_cover_every_outcome():
    assert any(not g.is_regular() for g in ORACLE_GRAMMARS)
    assert any(None in g.compiled.letter_sign for g in ORACLE_GRAMMARS[::2])
    assert any(None in g.compiled.letter_sign for g in ORACLE_GRAMMARS[1::2])
    statuses = set()
    for g in ORACLE_GRAMMARS:
        for depth, window in ORACLE_SIZES:
            state = membership.engine(g, "oracle", window, depth=depth)
            for v in _oracle_probes(g, window):
                res = state.result(v)
                statuses.add((res.status, state.exhausted, v.norm_inf() <= window))
    assert statuses >= {
        (MEMBER, True, True), (MEMBER, False, True),
        (NON_MEMBER, True, True), (UNKNOWN, False, True),
        (UNKNOWN, True, False), (UNKNOWN, False, False),
    }


def entry(cells, support, q, alphabet) -> frozenset:
    """The vectors of the path cell from q whose support includes
    `support` (q removed), as Vecs."""
    cell = cells.get((frozenset(support) - {q}, q), {})
    return frozenset(Vec.from_tuple(v, alphabet) for v in cell)


def run_cells(g, bound):
    """Run cells for every support of size <= the alphabet's."""
    return _path_cells(g, FINAL, bound, supports_up_to(g, len(g.alphabet)))


class TestRunTable:
    def test_ga_unfolding(self):
        g = ga()
        assert entry(run_cells(g, 2), {"S"}, "S", g.alphabet) == vecs([0, 1])
        assert entry(run_cells(g, 1), {"S"}, "S", g.alphabet) == vecs([0])

    def test_unreachable_final_empty(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : S\nT -> :")
        assert entry(run_cells(g, 5), (), "S", g.alphabet) == frozenset()

    def test_support_constraint_monotone(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_grammar(rng, regular=True)
            cells = run_cells(g, 8)
            for q in g.nonterminals:
                loose = entry(cells, (), q, g.alphabet)
                for q2 in g.nonterminals:
                    assert entry(cells, {q2}, q, g.alphabet) <= loose

    def test_vector_norm_and_size_bounded(self):
        rng = random.Random(44)
        for _ in range(15):
            g = random_grammar(rng, regular=True)
            bound = 7
            for cell in run_cells(g, bound).values():
                assert len(cell) <= (2 * bound + 1) ** len(g.alphabet)
                for vec in cell:
                    assert max((abs(x) for x in vec), default=0) <= bound


class TestPathTable:
    # the paths from q1 into q2 are the cell (empty support, q1) of the
    # path cells into q2
    def test_ga(self):
        g = ga()
        assert entry(_path_cells(g, "S", 1), (), "S", g.alphabet) == vecs([0, 1])

    def test_two_state_loop(self):
        g = parse_grammar("alphabet: a b\nstart: S\nS -> a : T\nT -> b : S")
        paths = entry(_path_cells(g, "S", 2), (), "S", g.alphabet)
        assert paths == {Vec.zero(), Vec({"a": 1, "b": 1})}

    def test_disconnected_pair_empty(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : S\nT -> a : T")
        assert entry(_path_cells(g, "T", 4), (), "S", g.alphabet) == frozenset()


def test_one_path_table_matches_the_separate_run_and_path_builders():
    # run cells are the paths into FINAL, cycle cells the paths into each q
    rng = random.Random(71)
    exhausted_seen, supports_seen = set(), False
    for _ in range(40):
        g = random_grammar(rng, max_letters=3, regular=True, neg_prob=0.4)
        zero = (0,) * len(g.alphabet)
        for bound in range(1, 13):
            for limit in range(min(len(g.alphabet), len(g.nonterminals)) + 1):
                supports = supports_up_to(g, limit)
                cells = _path_cells(g, FINAL, bound, supports)
                ref_cells, ref_exhausted = ref_run_cells(g, bound, supports)
                assert cells == {**ref_cells, (frozenset(), FINAL): {zero: 0}}
                # an empty last frontier: nothing was first reached at the bound
                exhausted = all(n < bound for cell in cells.values() for n in cell.values())
                assert exhausted == ref_exhausted
                exhausted_seen.add(exhausted)
                supports_seen |= any(support for support, _q in cells)
            ref_paths = ref_path_cells(g, bound)
            for q2 in g.nonterminals:
                paths = _path_cells(g, q2, bound)
                assert paths == {
                    (frozenset(), q1): cell for (q1, end), cell in ref_paths.items() if end == q2
                }
    assert exhausted_seen == {True, False} and supports_seen


def test_box_cut_keeps_exactly_the_full_cells_that_reach_the_box():
    rng = random.Random(73)
    signs_seen, cut_seen = set(), set()
    for _ in range(60):
        g = random_grammar(rng, max_letters=3, regular=True, neg_prob=0.4)
        signs_seen.update(g.compiled.letter_sign)
        supports = supports_up_to(g, min(len(g.alphabet), len(g.nonterminals)))
        dim = len(g.alphabet)
        for bound in (3, 12):
            full = _path_cells(g, FINAL, bound, supports)
            # the box of a point query, then the boxes of window sweeps
            point = tuple(rng.randint(-2, 2) for _ in range(dim))
            boxes = [("point", (point, point))]
            for window in (0, 2):
                for lo, hi in ((-window, window), (0, window), (1, window + 1), (-window - 1, -1)):
                    label = "lo > 0" if lo > 0 else "hi < 0" if hi < 0 else "around 0"
                    boxes.append((label, ((lo,) * dim, (hi,) * dim)))
            for label, box in boxes:
                cut = _path_cells(g, FINAL, bound, supports, _cut(g.compiled.letter_sign, *box))
                kept = {
                    key: {v: n for v, n in cell.items() if ref_reaches_box(g, v, *box)}
                    for key, cell in full.items()
                }
                assert cut == {key: cell for key, cell in kept.items() if cell}
                if cut != full:
                    cut_seen.add(label)
    # a one-way negative letter, an all-zero letter and a two-way letter
    assert signs_seen == {1, -1, 0, None}
    assert cut_seen == {"lo > 0", "hi < 0", "around 0", "point"}


def test_point_queries_read_a_cut_table_and_certify_from_its_last_frontier():
    # three fresh states per (grammar, bound) ask every point of [-2..2]^A:
    # in order, in reverse, and after a box sweep that cuts the table first
    rng = random.Random(79)
    outcomes = set()
    for _ in range(40):
        g = random_grammar(rng, max_letters=3, regular=True, neg_prob=0.4)
        one_way = all(s is not None for s in g.compiled.letter_sign)
        box = product(range(-2, 3), repeat=len(g.alphabet))
        points = [Vec.from_tuple(t, g.alphabet) for t in box]
        for bound in (3, 12, 40):
            forward, backward, swept = (RegularMembership(g, bound) for _ in range(3))
            swept.box_members(-2, 2)
            answers = [forward.result(v) for v in points]
            assert [backward.result(v) for v in reversed(points)] == answers[::-1]
            assert [swept.result(v) for v in points] == answers
            for v, got in zip(points, answers):
                full = ref_full_table_result(forward, v)
                if full.status == UNKNOWN and got.status == NON_MEMBER:
                    # a no the full table could not prove; the frontier did
                    if one_way:
                        assert not ref_regular_reachable(g, v.to_tuple(g.alphabet)), v
                    outcomes.add("certified" if one_way else "certified, two-way letter")
                else:
                    assert got == full, v
                    outcomes.add(got.status)
    assert outcomes == {
        MEMBER, NON_MEMBER, UNKNOWN, "certified", "certified, two-way letter"
    }


class TestMemberRegular:
    def test_gb_examples(self):
        res = member_regular(gb(), Vec.unit("a", 4), bound=113)
        assert res.status == MEMBER
        w = res.witness
        assert w.base_run.parikh() == Vec.zero()
        assert [(t.cycle.parikh(), t.count) for t in w.cycles] == [(Vec({"a": 2}), 2)]
        assert member_regular(gb(), Vec.unit("a", 3), bound=113).status == NON_MEMBER

    def test_bounded_no_is_flagged(self):
        # the chain's only run into FINAL needs 31 steps: at bound 20 the
        # build is still growing (a sits in its last frontier), so a miss
        # is no proof
        res = member_regular(parse_grammar(CHAIN_TEXT), Vec.unit("a"), bound=20)
        assert res == MembershipResult(UNKNOWN, note="no witness with base runs of size <= 20")

    def test_frontier_below_the_box_certifies_the_no(self):
        # bound 5 is far below gb's threshold of 113, but every run of size
        # 5 emits a^4, past a^3 on a letter no rule lowers
        assert member_regular(gb(), Vec.unit("a", 3), bound=5) == MembershipResult(NON_MEMBER)
        assert member_regular(gb(), Vec.unit("a", 4), bound=5).status == MEMBER
        assert member_regular(gb(), Vec.unit("a", 5), bound=5) == MembershipResult(
            UNKNOWN, note="no witness with base runs of size <= 5")

    def test_witnesses_expand_to_runs(self):
        rng = random.Random(47)
        checked = 0
        while checked < 200:
            g = random_grammar(rng, regular=True)
            state = RegularMembership(g, bound=40)
            for v in oracle_language(g, 10, 6):
                res = state.result(v)
                assert res.status == MEMBER
                total = res.witness.expand()
                assert is_run(total, g.start)
                assert total.parikh() == v
                checked += 1

    def test_unproductive_start_answers_no_everywhere(self):
        # the start U has no run (its rules lead to U and to Z, which has
        # none), so the trimmed grammar keeps U alone: every point and box
        # is a definite no at any bound
        rng = random.Random(61)
        for _ in range(20):
            g = random_grammar(rng, regular=True, neg_prob=0.3)
            rules = [(t.source, t.output, t.targets) for t in g.transitions] + [
                ("U", Vec.unit(rng.choice(g.alphabet)), Vec.unit("U")),
                ("U", Vec.zero(), Vec.unit("Z")),
                (rng.choice(g.nonterminals), Vec.zero(), Vec.unit("U")),
            ]
            g = grammar_from_rules(g.alphabet, "U", rules)
            states = [RegularMembership(g, bound) for bound in (1, 5, 30, None)]
            for state in states + [membership.engine(g, "regular-dp")]:
                for t in product(range(-2, 3), repeat=len(g.alphabet)):
                    v = Vec.from_tuple(t, g.alphabet)
                    assert state.result(v) == MembershipResult(NON_MEMBER)
                assert state.box_members(-2, 2) == frozenset()
                assert state.miss().verdict is False

    def test_witnesses_are_multisets_of_the_callers_grammar(self):
        # on grammars with useless nonterminals the tables read the trimmed
        # grammar, and every witness still names the caller's object
        rng = random.Random(67)
        checked = 0
        while checked < 150:
            g = random_grammar(rng, regular=True, neg_prob=0.3)
            if trim(g) is g:
                continue
            for state in (RegularMembership(g, bound=30), membership.engine(g, "regular-dp")):
                for v in oracle_language(g, 10, 3):
                    res = state.result(v)
                    assert res.status == MEMBER
                    parts = (res.witness.base_run, *(term.cycle for term in res.witness.cycles))
                    assert all(part.grammar is g for part in parts)
                    total = res.witness.expand()
                    assert is_run(total, g.start) and total.parikh() == v
                    checked += 1

    def test_foreign_letter_rejected(self):
        assert member_regular(ga(), Vec.unit("z"), bound=10).status == NON_MEMBER

    def test_requires_regular(self):
        with pytest.raises(ValueError):
            member_regular(gc(), Vec.zero())


# a grammar whose witness of a^0 at bound 3 changed when unused
# nonterminals sized its cycle tables, and three nonterminals no run uses
GRAMMAR_28 = (
    "alphabet: a\nstart: Q0\nQ0 -> a : Q1\nQ1 -> a^-1 : Q1\nQ1 -> a : Q0\n"
    "Q1 -> a^-1 : Q0\nQ0 -> : Q0\nQ0 -> :\n"
)
DETACHED_CYCLE = "Zu0 -> : Zu1\nZu1 -> : Zu2\nZu2 -> : Zu0\n"


class TestUnusedNonterminals:
    """A regular-dp answer depends on the trimmed grammar, the bound and
    the box alone: nonterminals no run from the start uses change no
    status, note, witness, box member or miss."""

    @staticmethod
    def answers(g, bound):
        """Every point answer on [-2..2]^A, each witness as transition
        counts, then the box's members, the box's miss and `miss()`."""
        state = RegularMembership(g, bound)
        dim = len(g.alphabet)
        points = []
        for t in product(range(-2, 3), repeat=dim):
            res = state.result(Vec.from_tuple(t, g.alphabet))
            w = res.witness
            parts = w and (w.base_run.counts, [(c.cycle.counts, c.anchor, c.count) for c in w.cycles])
            points.append((res.status, res.note, parts))
        box = ((-2,) * dim, (2,) * dim)
        return points, state.box_members(-2, 2), state.miss(*box), state.miss()

    def test_detached_cycles_and_dead_ends_change_no_answer(self):
        rng = random.Random(16180)
        seen = set()
        for _ in range(60):
            g = random_grammar(rng, max_nonterminals=3, max_letters=3, regular=True, neg_prob=0.3)
            rules = [(t.source, t.output, t.targets) for t in g.transitions]
            cycle = [(f"Zu{i}", Vec.zero(), Vec.unit(f"Zu{(i + 1) % 3}")) for i in range(3)]
            # U has no run, Z no rule; rules from the grammar's own lead into them
            dead = [("U", Vec.unit(rng.choice(g.alphabet)), Vec.unit("U"))] + [
                (rng.choice(g.nonterminals), Vec.unit(rng.choice(g.alphabet), rng.choice((1, -1))),
                 Vec.unit(rng.choice("UZ")))
                for _ in range(rng.randint(1, 3))
            ]
            for bound in (3, 12):
                want = self.answers(g, bound)
                for extra in (cycle, dead):
                    grown = grammar_from_rules(g.alphabet, g.start, rules + extra)
                    assert self.answers(grown, bound) == want, (rules, extra, bound)
                seen.update(status for status, _note, _parts in want[0])
        assert seen == {MEMBER, NON_MEMBER, UNKNOWN}

    def test_a_detached_cycle_keeps_grammar_28s_witness(self):
        # sized by the caller's N, Q0's pool took the closed walk t1 t2 t4
        # (a a^-1 a^-1), and a^0's witness became t1 t3 t6 plus it twice
        g = parse_grammar(GRAMMAR_28)
        grown = parse_grammar(GRAMMAR_28 + DETACHED_CYCLE)
        for grammar in (g, grown):
            res = RegularMembership(grammar, 3).result(Vec.zero())
            assert res.status == MEMBER
            assert res.witness.base_run.counts == Vec({"t6": 1}) and res.witness.cycles == ()
        assert self.answers(grown, 3) == self.answers(g, 3)


def test_verdict_reads_the_status():
    statuses = (MEMBER, NON_MEMBER, UNKNOWN)
    assert [MembershipResult(s).verdict for s in statuses] == [True, False, None]


@pytest.mark.parametrize("call, message", [
    (lambda: RegularMembership(ga(), 0), "bound must be at least 1"),
    # the check is `runs.base_run_bound`'s, the first thing the engine reads
    (lambda: GeneralMembership(parse_grammar("alphabet: a\nstart: S\nS -> : S S S")),
     "grammar must be in normal form"),
])
def test_invalid_engine_arguments_are_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_unknown_engine_name_lists_the_engines():
    with pytest.raises(ValueError, match="unknown engine 'nope'") as info:
        membership.engine(ga(), "nope")
    assert str(membership.ENGINES) in str(info.value)


def test_boxless_miss_answers_for_every_vector():
    # regular-dp: a definite no exactly at the completeness threshold or
    # when the forward reference build over the tracked supports ran dry,
    # and then a no in every box; a build over every support that ran dry
    # still makes it definite.  general-caps: its answer in any box; the
    # oracle: unknown.  The reference builds read the trimmed grammar, as
    # the state does.  On a trimmed grammar the tracked supports run dry
    # first only past a zero cycle: the last grammar's T U V W adds no
    # vector, so its tracked build (the empty support alone) runs dry
    # before size 5, while the support {U} first keys the run a through
    # T U V W T at size 6
    rng = random.Random(83)
    seen = set()
    zero_cycle = parse_grammar(
        "alphabet: a\nstart: S\nS -> a : T\nT -> : U\nU -> : V\nV -> : W\nW -> : T\nT -> :"
    )
    grammars = [random_grammar(rng, max_letters=2, regular=True, neg_prob=0.3) for _ in range(30)]
    for g in grammars + [zero_cycle]:
        t = trim(g)
        box = ((-1,) * len(g.alphabet), (1,) * len(g.alphabet))
        every = supports_up_to(t, min(len(t.alphabet), len(t.nonterminals)))
        for bound in (2, 6, 30):
            state = RegularMembership(g, bound)
            _cells, exhausted = ref_run_cells(t, bound, state._periods)
            _cells, every_exhausted = ref_run_cells(t, bound, every)
            assert exhausted or not every_exhausted
            definite = bound >= state.complete_bound or exhausted
            assert state.miss().verdict is (False if definite else None)
            assert not definite or state.miss(*box).verdict is False
            seen.add(definite)
            if exhausted and not every_exhausted and bound < state.complete_bound:
                seen.add("tracked supports ran dry first")
        general = GeneralMembership(g, 5, 3)
        assert general.miss() == general.miss(*box)
        assert membership.engine(g, "oracle", 1).miss().verdict is None
    assert seen == {True, False, "tracked supports ran dry first"}


class TestQueryStructure:
    """The queries drop k-fold multiples from each pool and share one
    lattice per period set; they must reach the points that one query
    per maximal independent subset of the whole pool reaches."""

    @pytest.mark.parametrize("regular", [True, False])
    def test_pruned_queries_reach_what_every_subset_reaches(self, regular):
        rng = random.Random(2111 if regular else 2112)
        seen = set()
        # the supports {A} and {B} are not nested and have equal pools, so
        # their queries share every lattice
        twins = parse_grammar(
            "alphabet: a b\nstart: S\nS -> : A\nS -> : B\n"
            "A -> a : A\nA -> b : A\nA -> :\nB -> a : B\nB -> b : B\nB -> :"
        )
        grammars = [twins] + [
            random_grammar(rng, max_nonterminals=4, max_letters=3, regular=regular,
                           neg_prob=0.3, extra_rules=5)
            for _ in range(60)
        ]
        for g in grammars:
            if regular:
                state = RegularMembership(g, 8)
                groups = regular_query_groups(state)
            else:
                state = GeneralMembership(g, 6, 4)
                groups = general_query_groups(state)
            dim = len(g.alphabet)
            queries = state._queries
            ref = ref_queries(groups, state._pools, dim)
            for t in product(range(-2, 3), repeat=dim):
                assert (_first_hit(queries, t) is None) == (_first_hit(ref, t) is None), (g, t)
            assert _box_union(queries, -2, 2) == _box_union(ref, -2, 2), g
            lattices = {}
            for _key, zs, index, _anchors in queries:
                assert lattices.setdefault(zs, index.lattice) is index.lattice
            if len(ref) > len(ref_queries(groups, state._pools, dim, multiples=False)):
                seen.add("multiples dropped")
            if len(lattices) < len(queries):
                seen.add("lattice shared")
            if any(x < 0 for t in g.compiled.output for x in t):
                seen.add("negative letters")
            if dim == 3:
                seen.add("three letters")
        assert seen == {"multiples dropped", "lattice shared", "negative letters", "three letters"}

    def test_only_k_fold_multiples_leave_the_pool(self):
        pool = sorted([(2, 0), (3, 0), (4, 0), (6, 0), (-1, 0), (-2, 0), (1, 1), (3, 3),
                       (2, -2), (0, 5)])
        assert _without_multiples(pool) == sorted([(2, 0), (3, 0), (-1, 0), (1, 1), (2, -2),
                                                   (0, 5)])

    def test_cycles_of_coprime_lengths_both_pump(self):
        # cycles a^2 and a^3 (and a^4) at S, and at bound 1 only the empty
        # base run: a^3 needs the 3-cycle, which is no multiple of a^2
        g = parse_grammar(
            "alphabet: a\nstart: S\nS -> :\nS -> a : T\nT -> a : S\n"
            "S -> a : U\nU -> a : V\nV -> a : S"
        )
        for n in (2, 3, 4, 5, 6, 9):
            res = member_regular(g, Vec.unit("a", n), 1)
            if n == 5:
                assert res == MembershipResult(
                    UNKNOWN, note="no witness with base runs of size <= 1"), n
            else:
                assert res.status == MEMBER, n

    def test_chain_builds_one_index_per_cell_and_root(self, monkeypatch):
        # the chain's pool at S is b, b^2, ..., b^31: only b is kept
        g = parse_grammar(CHAIN_TEXT)
        built = []
        original = intlinalg.CosetIndex.__init__

        def counting(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(intlinalg.CosetIndex, "__init__", counting)
        assert member_regular(g, Vec.unit("a"), 31).status == MEMBER
        assert 0 < len(built) <= 466


# the CLI corpus grammar with no one-way letter: at the desk bound its
# full run table is the one every query reads
CORPUS_TEXT = (
    "alphabet: a b\nstart: Q0\n"
    "Q0 -> a^-1 : Q0\nQ0 -> a^2 b^-1 : Q0\nQ0 -> a : Q0\nQ0 -> b^3 :"
)


class TestTrackedSupports:
    """A regular run table keys only the supports that keep a query: one
    whose period set no smaller support also has.  The kept queries
    answer as one query per support and period set did."""

    def test_tracked_cells_equal_the_reference_cells_over_every_support(self):
        rng = random.Random(2121)
        seen = set()
        for _ in range(40):
            g = random_grammar(rng, max_letters=3, regular=True, neg_prob=0.4)
            # the state's tables read the trimmed grammar; so do the references
            t = trim(g)
            dim = len(g.alphabet)
            every = supports_up_to(t, min(dim, len(t.nonterminals)))
            tracked = RegularMembership(g, 3)._periods
            assert set(tracked) <= every
            assert all(supp - {q} in tracked for supp in tracked for q in supp)
            if len(tracked) < len(every):
                seen.add("supports left out")
            for bound in (3, 12):
                full, _exhausted = ref_run_cells(t, bound, every)
                point = tuple(rng.randint(-2, 2) for _ in range(dim))
                for box in (None, (point, point), ((-2,) * dim, (2,) * dim)):
                    state = RegularMembership(g, bound)
                    cut, runs = state._runs(*box) if box else state._runs()
                    # a fresh state builds its table under the request's own cut
                    assert cut == runs.cut == ({} if box is None else _cut(state._sign, *box))
                    kept = {
                        key: {v: n for v, n in cell.items()
                              if box is None or ref_reaches_box(t, v, *box)}
                        for key, cell in full.items()
                        if key[0] in tracked
                    }
                    cells = {key: cell for key, cell in runs.cells.items() if key[1] != FINAL}
                    assert cells == {key: cell for key, cell in kept.items() if cell}
                    if runs.cut and cells != {k: full[k] for k in cells}:
                        seen.add("cut")
        assert seen == {"supports left out", "cut"}

    def test_kept_queries_give_the_hits_of_every_query_over_every_support(self):
        # the first hit (group, base, periods, coefficients, anchors) and
        # the box union of the full table's and of the cut tables' queries
        rng = random.Random(2141)
        seen = set()
        for _ in range(40):
            g = random_grammar(rng, max_nonterminals=4, max_letters=3, regular=True,
                               neg_prob=0.3, extra_rules=5)
            dim = len(g.alphabet)
            points = list(product(range(-2, 3), repeat=dim))
            for bound in (3, 8):
                state = RegularMembership(g, bound)
                ref = ref_queries(ref_all_support_groups(state), state._pools, dim,
                                  multiples=False)
                # kept: exactly the queries whose periods no smaller support has
                assert [(key, zs) for key, zs, _index, _anchors in state._queries] == [
                    (key, zs) for key, zs, _index, _anchors in ref
                    if not any(k[0] < key[0] and z == zs for k, z, _i, _a in ref)
                ]
                hits = [_first_hit(ref, t) for t in points]
                assert [_first_hit(state._queries, t) for t in points] == hits
                assert _box_union(state._queries, -2, 2) == _box_union(ref, -2, 2)
                cut = RegularMembership(g, bound)
                assert [cut._hit(t) for t in points] == hits
                assert cut._box(-2, 2) == _box_union(ref, -2, 2)
                keys = [key for key, _zs, _index, _anchors in state._queries]
                if any(keys.count(key) < sum(r[0] == key for r in ref) for key in keys):
                    seen.add("periods dropped at a kept support")
                if any(len(key[0]) > 1 for key in keys):
                    seen.add("two-member support")
                if cut._table.cut:
                    seen.add("cut")
                if any(hit and any(hit[3]) and hit[0][0] for hit in hits):
                    seen.add("pumped hit off the empty support")
                if any(x < 0 for t in g.compiled.output for x in t):
                    seen.add("negative letters")
            seen.add(f"{dim} letters")
        assert seen == {"periods dropped at a kept support", "two-member support", "cut",
                        "pumped hit off the empty support", "negative letters", "1 letters",
                        "2 letters", "3 letters"}

    def test_sharper_nos_agree_with_an_exhausted_oracle(self):
        # a no that the last frontier of the tracked supports certifies
        # and the one over every support of the trimmed grammar does not
        rng = random.Random(4242)
        sharper = []
        for draw in range(1, 151):
            g = random_grammar(rng, max_letters=2, regular=True, neg_prob=0.3)
            trimmed = trim(g)
            dim = len(g.alphabet)
            every = supports_up_to(trimmed, min(dim, len(trimmed.nonterminals)))
            for bound in (2, 6, 30):
                state = RegularMembership(g, bound)
                if bound >= state.complete_bound:
                    continue
                cells, _exhausted = ref_run_cells(trimmed, bound, every)
                last = [v for cell in cells.values() for v, n in cell.items() if n == bound]
                for t in product(range(-2, 3), repeat=dim):
                    got = state.result(Vec.from_tuple(t, g.alphabet), want_witness=False)
                    if got.status == NON_MEMBER and any(
                        ref_reaches_box(trimmed, v, t, t) for v in last
                    ):
                        sharper.append((draw, bound, t))
                        found = oracle_language(trimmed, 24, 2)
                        assert found.exhausted and Vec.from_tuple(t, g.alphabet) not in found
        assert {(71, 2, (0, s * k)) for s in (1, -1) for k in (1, 2)} <= set(sharper)

    def test_corpus_grammar_builds_few_indexes(self, monkeypatch):
        # only the empty support keeps a query: the rest repeat its periods
        built = []
        original = intlinalg.CosetIndex.__init__

        def counting(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(intlinalg.CosetIndex, "__init__", counting)
        state = membership.engine(parse_grammar(CORPUS_TEXT), "regular-dp")
        assert state.result(Vec.unit("a", -3)).status == MEMBER
        assert 0 < len(built) <= 20
        assert state.result(Vec.unit("b", 5)) == MembershipResult(
            UNKNOWN, note="no witness with base runs of size <= 200")


class TestMemberGeneral:
    def test_gc_three(self):
        res = member_general(gc(), Vec.unit("a", 3), run_cap=9, cycle_cap=6)
        assert res.status == MEMBER

    def test_negative_grammar(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a^-1 : S\nS -> :")
        res = member_general(g, Vec.unit("a", -4), run_cap=8, cycle_cap=4)
        assert res.status == MEMBER
        assert res.witness.expand().parikh() == Vec.unit("a", -4)

    def test_outside_caps_unknown(self):
        res = member_general(gb(), Vec.unit("a", 3), run_cap=5, cycle_cap=2)
        assert res.status == UNKNOWN

    def test_exhausted_enumeration_gives_definite_no(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : T\nT -> :")
        res = member_general(g, Vec.unit("a", 2), run_cap=10, cycle_cap=4)
        assert res.status == NON_MEMBER

    def test_capped_run_search_is_not_a_definite_no(self):
        # run_cap reaches the base-run bound (17408) and the cycle listing
        # is complete, but 4 states cut the run search before the run t2 t3 t4
        g = parse_grammar(
            "alphabet: a\nstart: S\nS -> : S S\nS -> : Q1\nQ1 -> : Q2\nQ2 -> a :"
        )
        res = member_general(g, Vec.unit("a"), run_cap=17408, cycle_cap=15, state_cap=4)
        assert res == MembershipResult(UNKNOWN, note="run search stopped at the state cap of 4")
        found = member_general(g, Vec.unit("a"), 8, 15)
        assert found.status == MEMBER
        assert found.witness.base_run.counts.to_dict() == {"t2": 1, "t3": 1, "t4": 1}

    def test_capped_cycle_search_answers_unknown(self):
        # at a state cap of 40 the run search fits and the cycle search
        # from S does not; at 10 neither fits.  No cap may raise
        g = parse_grammar(
            "alphabet: a\nstart: S\nS -> : S S\nS -> : Q1\nQ1 -> : Q2\nQ2 -> a :"
        )
        res = member_general(g, Vec.unit("a", 2), 8, 15, state_cap=10)
        assert res.status == UNKNOWN and "state cap of 10" in res.note
        state = GeneralMembership(g, 8, 15, state_cap=40)
        assert state.cycles_capped and not state.runs_capped
        assert state.result(Vec.unit("a", 3)) == MembershipResult(
            UNKNOWN, note="cycle search stopped at the state cap of 40"
        )
        found = state.result(Vec.unit("a", 2))
        assert found.status == MEMBER and found.witness.parikh() == Vec.unit("a", 2)

    def test_full_caps_give_a_definite_no(self):
        # the run cap reaches the base-run bound (34) and a cycle cap of 1
        # completes the cycle listing: a miss is a definite no there, and
        # one run step less leaves it unknown
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : S\nS -> :")
        state = GeneralMembership(g, 34, 1)
        assert not state.runs_complete and state.cycles_complete
        assert state.result(Vec.unit("a", -1)) == MembershipResult(NON_MEMBER)
        assert member_general(g, Vec.unit("a", -1), 33, 1) == MembershipResult(
            UNKNOWN, note="caps below the completeness thresholds"
        )

    def test_start_without_runs_is_a_definite_no(self):
        # the run search from S drops every state (each holds S) without
        # cutting one, so it is exhaustive at any run cap
        grammars = [parse_grammar("alphabet: a b\nstart: S\nS -> a : S\nS -> b : S T\nT -> b :\n")]
        rng = random.Random(61)
        grammars += [random_grammar_with_dead_ends(rng, start="U") for _ in range(10)]
        for g in map(normalize, grammars):
            for caps in ((3, 2), (8, 5)):
                state = GeneralMembership(g, *caps)
                assert state.runs_complete and not state.runs_capped
                for v in product(range(-2, 3), repeat=len(g.alphabet)):
                    assert state.result(Vec.from_tuple(v, g.alphabet)) == MembershipResult(
                        NON_MEMBER, note="run enumeration was exhaustive"
                    )

    def test_monotone_in_caps(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_grammar(rng, max_nonterminals=3)
            state_small = GeneralMembership(g, 4, 3)
            state_big = GeneralMembership(g, 8, 5)
            for v in oracle_language(g, 8, 4):
                if state_small.result(v).status == MEMBER:
                    assert state_big.result(v).status == MEMBER


class TestAgainstOracle:
    def test_regular_full_agreement_small(self):
        rng = random.Random(59)
        done = 0
        while done < 12:
            g = random_grammar(rng, max_nonterminals=3, max_letters=2, regular=True)
            lang14 = oracle_language(g, 14, 8)
            if lang14 != oracle_language(g, 28, 8):
                continue
            state = RegularMembership(g, bound=60)
            members = state.box_members(-8, 8)
            assert members == {v.to_tuple(g.alphabet) for v in lang14}
            done += 1


def test_general_engine_rejects_letters_outside_the_alphabet():
    for res in (member_general(gb(), Vec.unit("b"), 3, 3), member_regular(gb(), Vec.unit("b"))):
        assert res.status == NON_MEMBER and res.note == "letters outside the alphabet"


def _fresh_states(seed: int, count: int):
    """(grammar, build): seeded random normal-form grammars, half of them
    regular, with two-way letters, and per grammar a function that builds
    a fresh state of the engine it is given, bypassing `engine`'s cache."""
    rng = random.Random(seed)
    for k in range(count):
        g = random_grammar(rng, max_letters=2 + k % 3 // 2, regular=k % 2 == 0, neg_prob=0.3,
                           extra_rules=4)
        bound, depth = rng.randint(1, 8), rng.randint(2, 10)
        builds = {
            "regular-dp": lambda g=g, bound=bound: RegularMembership(g, bound),
            "general-caps": lambda g=g: GeneralMembership(g, 5, 3),
            "oracle": lambda g=g, depth=depth: membership.OracleMembership(g, depth, 2),
        }
        yield g, builds


def test_every_engine_answers_a_foreign_letter_alike():
    # one shared answer path: the same result from every engine state,
    # with or without a witness asked for
    expected = MembershipResult(NON_MEMBER, note="letters outside the alphabet")
    engines = set()
    for g, builds in _fresh_states(2501, 24):
        for v in (Vec.unit("z"), Vec.unit("z") + Vec.unit(g.alphabet[0]), Vec.unit("z", -2)):
            for name, build in builds.items():
                if name == "regular-dp" and not g.is_regular():
                    continue
                engines.add(name)
                state = build()
                assert state.result(v) == expected
                assert state.result(v, want_witness=False) == expected
    assert engines == set(membership.ENGINES)


@pytest.mark.parametrize("name", membership.ENGINES)
def test_naturals_box_read_off_the_last_box_equals_a_fresh_enumeration(name):
    # box_members(0, w) after box_members(-w, w) is read off the kept
    # members; it must equal a fresh state's enumeration and the point
    # queries
    seen = set()
    for g, builds in _fresh_states(2502, 40):
        if name == "regular-dp" and not g.is_regular():
            continue
        for w in (1, 2):
            state = builds[name]()
            symmetric = state.box_members(-w, w)
            naturals = state.box_members(0, w)
            assert state._last_box[:2] == (-w, w)  # read off, not enumerated again
            assert naturals == builds[name]().box_members(0, w)
            assert naturals == ref_box_members(builds[name](), 0, w)
            if naturals and symmetric - naturals:
                seen.add("filtered")
    assert seen == {"filtered"}


def _general_cases():
    """(grammar, run cap, cycle cap): seeded random normal-form grammars
    with negative outputs, then every hard grammar up to level 3."""
    rng = random.Random(67)
    cases = [
        (random_grammar(rng, max_letters=3, neg_prob=0.4), rng.randint(3, 7), rng.randint(2, 5))
        for _ in range(32)
    ]
    cases += [
        (normalize(hard_grammar(n, variant)), 8, 5)
        for n in range(4)
        for variant in ("full", "stripped", "cone")
    ]
    return cases


def _general_probes(state, rng):
    """Every base vector, each base pumped by one or two cycle vectors of
    its support, and a few random vectors (one with a foreign letter)."""
    alphabet = state.grammar.alphabet
    probes = []
    bases = sorted(
        ((w, supp, run) for supp, group in state._bases.items() for w, run in group.items()),
        key=lambda base: (base[2].size(), Vec.from_tuple(base[0], alphabet).sort_key()),
    )
    for w, supp, _run in bases:
        probes.append(w)
        for q in sorted(supp):
            for cyc in ref_state_cycles(state, q)[:3]:
                z = cyc.parikh().to_tuple(alphabet)
                probes += [tuple(a + k * b for a, b in zip(w, z)) for k in (1, 2)]
    probes = list(dict.fromkeys(probes))[:60]
    probes += [tuple(rng.randint(-4, 4) for _ in alphabet) for _ in range(8)]
    vecs = [Vec.from_tuple(t, alphabet) for t in probes]
    return vecs + [Vec.unit("zz")]


@pytest.mark.parametrize("index", range(len(_general_cases())))
def test_general_result_matches_fraction_reference(index):
    g, run_cap, cycle_cap = _general_cases()[index]
    state = GeneralMembership(g, run_cap, cycle_cap)
    for v in _general_probes(state, random.Random(index)):
        got = state.result(v)
        assert got == ref_general_result(state, v), v
        assert state.result(v, want_witness=False) == MembershipResult(got.status, None, got.note)


def test_general_reference_cases_cover_every_outcome():
    statuses, pumped = set(), False
    for g, run_cap, cycle_cap in _general_cases():
        state = GeneralMembership(g, run_cap, cycle_cap)
        for v in _general_probes(state, random.Random(0)):
            res = state.result(v)
            statuses.add(res.status)
            pumped |= res.status == MEMBER and any(t.count > 1 for t in res.witness.cycles)
    assert statuses == {MEMBER, NON_MEMBER, UNKNOWN} and pumped


def test_general_cycle_subsets_are_tried_in_dense_tuple_order():
    # cycles a, b and ab at S: a+b is reached by {b, a} and by {b, ab}.
    # {b, a} comes first in dense tuple order ((0,1),(1,0)) < ((0,1),(1,1)),
    # so the terms come in that order; of the bases the subset reaches a+b
    # from, the empty run has the largest coefficients (1, 1)
    g = parse_grammar(
        "alphabet: a b\nstart: S\nS -> a : S\nS -> b : S\nS -> a : T\nT -> b : S\nS -> :"
    )
    state = GeneralMembership(g, 4, 3)
    v = Vec({"a": 1, "b": 1})
    res = state.result(v)
    assert res == ref_general_result(state, v)
    assert res.witness.base_run.counts.to_dict() == {"t5": 1}
    assert [(t.cycle.counts.to_dict(), t.count) for t in res.witness.cycles] == [
        ({"t2": 1}, 1),
        ({"t1": 1}, 1),
    ]


def _vec_letters(ms):
    """A multiset's letter vector as a dense tuple, summed as Vecs."""
    acc = Vec.zero()
    for tid, c in ms.counts:
        acc = acc + ms.grammar.transition(tid).output * c
    return acc.to_tuple(ms.grammar.alphabet)


def _ref_general_build(g, run_cap, cycle_cap, state_cap):
    """`GeneralMembership`'s bases, pools and (runs_complete, runs_capped,
    cycles_capped), rebuilt from the multiset listings: the first run per
    support and vector, the first nonzero cycle per anchor and vector."""
    search = enumerate_runs(g, g.start, run_cap, state_cap)
    by_support = {}
    for run in search.runs:
        by_support.setdefault(run.supp(), {}).setdefault(_vec_letters(run), run)
    bases = [(supp, list(by_support[supp].items()))
             for supp in sorted(by_support, key=lambda supp: (len(supp), sorted(supp)))]
    pools, cycles_capped = [], False
    for q in sorted(set().union(*by_support)):
        pool = {}
        try:
            for cyc in enumerate_simple_cycles(g, q, cycle_cap, state_cap):
                z = _vec_letters(cyc)
                if any(z):
                    pool.setdefault(z, cyc)
        except SearchCapExceeded:
            cycles_capped, pool = True, {}
        pools.append((q, list(pool.items())))
    return bases, pools, (search.complete, search.capped, cycles_capped)


def test_general_build_matches_the_multiset_listings():
    # small state caps stop the run search, or only some anchors' cycle
    # searches, partway through a level
    rng = random.Random(71)
    seen = set()
    for index in range(60):
        g = random_grammar(rng, max_letters=3, neg_prob=0.3)
        for caps in ((6, 4), (10, 8)):
            for state_cap in (6, 20, 60, DEFAULT_STATE_CAP):
                state = GeneralMembership(g, *caps, state_cap=state_cap)
                got = (
                    [(supp, list(bases.items())) for supp, bases in state._bases.items()],
                    [(q, list(pool.items())) for q, pool in state._pools.items()],
                    (state.runs_complete, state.runs_capped, state.cycles_capped),
                )
                assert got == _ref_general_build(g, *caps, state_cap), (index, caps, state_cap)
                if state.runs_capped and state._bases:
                    seen.add("runs capped with runs kept")
                if state.cycles_capped and any(state._pools.values()):
                    seen.add("some cycle searches capped")
    assert seen == {"runs capped with runs kept", "some cycle searches capped"}


def test_general_build_makes_one_multiset_per_kept_run_and_cycle(monkeypatch):
    # t1 t3 t5 and t2 t4 t5 are runs with support {S, T} and vector a b,
    # and t1 t3 and t2 t4 cycles at S and at T with vector a b: only the
    # first run per support and vector, and the first cycle per anchor
    # and vector, becomes a TransitionMultiset: 22 of 30 runs and 8 cycles
    g = parse_grammar(
        "alphabet: a b\nstart: S\nS -> a : T\nS -> b : T\nT -> b : S\nT -> a : S\nS -> :\n"
    )
    made = []
    post_init = TransitionMultiset.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(TransitionMultiset, "__post_init__", counted)
    state = GeneralMembership(g, 7, 4)
    kept = [ms for group in (*state._bases.values(), *state._pools.values()) for ms in group.values()]
    assert len(made) == len(kept) and {id(ms) for ms in made} == {id(ms) for ms in kept}
    runs, _complete, _capped = dense_runs(g, g.start, 7)
    cycles = [c for q in state._pools for c in dense_simple_cycles(g, q, 4)]
    assert len(runs) + len(cycles) > len(kept)


@st.composite
def normal_form_grammars(draw):
    """Grammars over one or two letters with up to three nonterminals;
    every rule emits at most one letter, positively or negatively, and
    has at most two targets (one for a regular grammar)."""
    letters = ("a", "b")[: draw(st.integers(1, 2))]
    nts = [f"Q{i}" for i in range(draw(st.integers(1, 3)))]
    max_targets = draw(st.sampled_from((1, 2)))
    outputs = [Vec.zero()] + [Vec.unit(x, s) for x in letters for s in (1, -1)]
    rule = st.tuples(
        st.sampled_from(nts),
        st.sampled_from(outputs),
        st.lists(st.sampled_from(nts), max_size=max_targets),
    )
    rules = draw(st.lists(rule, min_size=1, max_size=len(nts) + 3))
    return grammar_from_rules(
        letters, "Q0", [(src, out, sum(map(Vec.unit, ts), Vec.zero())) for src, out, ts in rules]
    )


@settings(max_examples=80, deadline=None)
@given(normal_form_grammars(), st.integers(1, 30))
def test_definite_answers_agree_with_an_exhausted_oracle(g, bound):
    # every vector the oracle finds is a member; when its search is
    # exhausted, it finds every member in the window.  A yes must carry a
    # witness that expands to a run onto v, a no must miss the oracle, and
    # against an exhausted oracle every definite answer must match it.
    # The same holds for each engine's box members, asked through
    # `membership.engine`, and for the regular bundles, which are exact
    # when not truncated
    window = 2
    found = oracle_language(g, 30, window)
    event(f"oracle exhausted: {found.exhausted}")
    names = ("general-caps", "regular-dp") if g.is_regular() else ("general-caps",)
    engines = [membership.engine(g, name, bound=bound, run_cap=6, cycle_cap=4) for name in names]
    boxes = [state.box_members(-window, window) for state in engines]
    bundles = None
    if g.is_regular():
        bundles = regular_bundles(g, bound)
        event(f"bundles truncated: {bundles.truncated}")
    for t in product(range(-window, window + 1), repeat=len(g.alphabet)):
        v = Vec.from_tuple(t, g.alphabet)
        for state, box in zip(engines, boxes):
            res = state.result(v)
            assert (t in box) == (res.status == MEMBER)
            if res.status == MEMBER:
                total = res.witness.expand()
                assert is_run(total, g.start) and total.parikh() == v
                assert v in found or not found.exhausted
            elif res.status == NON_MEMBER:
                assert v not in found
        if bundles is not None and found.exhausted:
            if bundles.member(v):
                assert v in found
            elif not bundles.truncated:
                assert v not in found


# Prints both engines' answers, witnesses and box members on fixed
# grammars: the general engine's query order rests on frozenset-keyed
# groups, so it must not follow the hash seed.
_WITNESS_SCRIPT = """
from itertools import product
from parikh import GeneralMembership, RegularMembership, Vec, normalize, parse_grammar
from parikh.hardness import hard_grammar
from parikh.runs import format_multiset
texts = [
    "alphabet: a\\nstart: S\\nS -> a : T\\nT -> a : S\\nS -> :",
    "alphabet: a b\\nstart: S\\nS -> a : S\\nS -> b : S\\nS -> a : T\\nT -> b : S\\nS -> :",
    "alphabet: a b\\nstart: S\\nS -> a : S\\nS -> b^-1 : T\\nT -> a^-1 : U\\nU -> b : S\\nS -> :",
    "alphabet: a b\\nstart: S\\nS -> a : S T\\nT -> b^-1 : S\\nS -> :\\nT -> b :",
    "alphabet: a b\\nstart: S\\nS -> : T\\nT -> a : U\\nU -> b : T\\nU -> :",
]
grammars = [parse_grammar(t) for t in texts] + [normalize(hard_grammar(1, "cone"))]
for g in grammars:
    engines = [GeneralMembership(g, 7, 5)]
    if g.is_regular():
        engines.append(RegularMembership(g, 12))
    for state in engines:
        print(sorted(state.box_members(-2, 2)))
        for t in product(range(-2, 3), repeat=len(g.alphabet)):
            res = state.result(Vec.from_tuple(t, g.alphabet))
            if res.witness is not None:
                terms = [(format_multiset(c.cycle), c.anchor, c.count) for c in res.witness.cycles]
                print(t, format_multiset(res.witness.base_run), terms)
"""


def test_witnesses_do_not_follow_the_hash_seed():
    src = os.path.dirname(os.path.dirname(membership.__file__))
    outputs = []
    for seed in ("0", "1", "2", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _WITNESS_SCRIPT], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert all(out == outputs[0] for out in outputs)
    assert outputs[0].count("t") > 50  # witnesses from every grammar
