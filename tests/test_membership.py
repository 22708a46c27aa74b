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
    NO_WITHIN_BOUND,
    NON_MEMBER,
    UNKNOWN,
    _box_union,
    _first_hit,
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
    return _path_cells(g, FINAL, bound, len(g.alphabet))


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
                cells = _path_cells(g, FINAL, bound, limit)
                ref_cells, ref_exhausted = ref_run_cells(g, bound, limit)
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
        limit = min(len(g.alphabet), len(g.nonterminals))
        dim = len(g.alphabet)
        for bound in (3, 12):
            full = _path_cells(g, FINAL, bound, limit)
            # the box of a point query, then the boxes of window sweeps
            point = tuple(rng.randint(-2, 2) for _ in range(dim))
            boxes = [("point", (point, point))]
            for window in (0, 2):
                for lo, hi in ((-window, window), (0, window), (1, window + 1), (-window - 1, -1)):
                    label = "lo > 0" if lo > 0 else "hi < 0" if hi < 0 else "around 0"
                    boxes.append((label, ((lo,) * dim, (hi,) * dim)))
            for label, box in boxes:
                cut = _path_cells(g, FINAL, bound, limit, box)
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
                if full.status == NO_WITHIN_BOUND and got.status == NON_MEMBER:
                    # a no the full table could not prove; the frontier did
                    if one_way:
                        assert not ref_regular_reachable(g, v.to_tuple(g.alphabet)), v
                    outcomes.add("certified" if one_way else "certified, two-way letter")
                else:
                    assert got == full, v
                    outcomes.add(got.status)
    assert outcomes == {
        MEMBER, NON_MEMBER, NO_WITHIN_BOUND, "certified", "certified, two-way letter"
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
        assert res.status == NO_WITHIN_BOUND
        assert res.note == "no witness with base runs of size <= 20"

    def test_frontier_below_the_box_certifies_the_no(self):
        # bound 5 is far below gb's threshold of 113, but every run of size
        # 5 emits a^4, past a^3 on a letter no rule lowers
        assert member_regular(gb(), Vec.unit("a", 3), bound=5) == MembershipResult(NON_MEMBER)
        assert member_regular(gb(), Vec.unit("a", 4), bound=5).status == MEMBER
        assert member_regular(gb(), Vec.unit("a", 5), bound=5).status == NO_WITHIN_BOUND

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

    def test_foreign_letter_rejected(self):
        assert member_regular(ga(), Vec.unit("z"), bound=10).status == NON_MEMBER

    def test_requires_regular(self):
        with pytest.raises(ValueError):
            member_regular(gc(), Vec.zero())


def test_verdict_reads_the_status():
    statuses = (MEMBER, NON_MEMBER, NO_WITHIN_BOUND, UNKNOWN)
    assert [MembershipResult(s).verdict for s in statuses] == [True, False, None, None]


def test_boxless_miss_answers_for_every_vector():
    # regular-dp: a definite no exactly at the completeness threshold or
    # when the forward reference build ran dry, and then a no in every
    # box; general-caps: its answer in any box; the oracle: unknown
    rng = random.Random(83)
    seen = set()
    for _ in range(30):
        g = random_grammar(rng, max_letters=2, regular=True, neg_prob=0.3)
        box = ((-1,) * len(g.alphabet), (1,) * len(g.alphabet))
        for bound in (2, 6, 30):
            state = RegularMembership(g, bound)
            _cells, exhausted = ref_run_cells(g, bound, state._support_limit)
            definite = bound >= state.complete_bound or exhausted
            assert state.miss().verdict is (False if definite else None)
            assert not definite or state.miss(*box).verdict is False
            seen.add(definite)
        general = GeneralMembership(g, 5, 3)
        assert general.miss() == general.miss(*box)
        assert membership.engine(g, "oracle", 1).miss().verdict is None
    assert seen == {True, False}


class TestQueryStructure:
    """The queries drop k-fold multiples from each pool and share one
    lattice per period set; they must reach the points that one query
    per maximal independent subset of the whole pool reaches."""

    @pytest.mark.parametrize("regular", [True, False])
    def test_pruned_queries_reach_what_every_subset_reaches(self, regular):
        rng = random.Random(2111 if regular else 2112)
        seen = set()
        for _ in range(60):
            g = random_grammar(rng, max_nonterminals=4, max_letters=3, regular=regular,
                               neg_prob=0.3, extra_rules=5)
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
            if len(ref) > len(queries):
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
            status = member_regular(g, Vec.unit("a", n), 1).status
            assert status == (NO_WITHIN_BOUND if n == 5 else MEMBER), n

    def test_chain_builds_one_index_per_cell_and_root(self, monkeypatch):
        # the chain's pool at S is b, b^2, ..., b^31: only b is kept
        g = parse_grammar(CHAIN_TEXT)
        membership._regular_state.cache_clear()
        built = []
        original = intlinalg.CosetIndex.__init__

        def counting(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(intlinalg.CosetIndex, "__init__", counting)
        assert member_regular(g, Vec.unit("a"), 31).status == MEMBER
        assert 0 < len(built) <= 466
        membership._regular_state.cache_clear()


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
