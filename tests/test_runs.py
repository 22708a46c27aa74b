import random

import pytest

from parikh import (
    DerivationTree,
    Grammar,
    Transition,
    TransitionMultiset,
    Vec,
    enumerate_simple_cycles,
    format_multiset,
    is_run,
    is_simple_cycle,
    is_skeleton_run,
    is_subrun,
    order_subrun,
    parse_grammar,
    parse_multiset,
    run_stats,
    subrun_to_tree,
    tree_size_bound,
    tree_to_multiset,
)
from parikh.runs import dense_simple_cycles, find_removable_cycle, is_cycle, iter_cycles
from helpers import ga, gb, random_grammar, random_marking, random_run, simulate_subrun


def ms(g, text):
    return parse_multiset(g, text)


class TestTransitionMultiset:
    def test_multisets_of_grammars_with_other_ids_do_not_mix(self):
        # g2 lists g1's rules under other ids; the grammars are equal, as
        # equality ignores ids, but t1 is a in g1 and b in g2
        text = "alphabet: a b\nstart: S\nS -> a : S\nS -> b : S\nS -> :"
        g1 = parse_grammar(text)
        ids = {"t1": "t2", "t2": "t1", "t3": "t3"}
        g2 = Grammar(g1.alphabet, g1.nonterminals, g1.start, tuple(
            Transition(ids[t.tid], t.source, t.output, t.targets) for t in g1.transitions))
        assert g1 == g2
        x = TransitionMultiset.from_counts(g1, {"t1": 1})
        y = TransitionMultiset.from_counts(g2, {"t1": 1})
        for combine in (lambda: x + y, lambda: x - y, lambda: x <= y):
            with pytest.raises(ValueError, match="different grammars"):
                combine()
        # an equal grammar under the same ids adds as one
        z = TransitionMultiset.from_counts(parse_grammar(text), {"t2": 1})
        assert (x + z).parikh() == Vec({"a": 1, "b": 1})

    def test_order_is_per_transition_within_one_grammar(self):
        g = ga()
        small, large, other = ms(g, "t2*1"), ms(g, "t1*2 t2*1"), ms(g, "t1*1")
        assert ms(g, "-") <= small <= large and small <= small
        assert not large <= small
        assert not other <= small and not small <= other
        # t1 names another rule in gb
        with pytest.raises(ValueError, match="different grammars"):
            small <= ms(gb(), "t1*1 t2*1 t3*1")


class TestRunStats:
    def test_ga_example(self):
        stats = run_stats(ms(ga(), "t1*3 t2*1"))
        assert stats.source == Vec({"S": 4})
        assert stats.target == Vec({"S": 3})
        assert stats.parikh == Vec({"a": 3})
        assert stats.size == 4
        assert stats.supp == {"S"}

    def test_empty(self):
        stats = run_stats(ms(ga(), "-"))
        assert stats.source == stats.target == stats.parikh == Vec.zero()
        assert stats.size == 0

    def test_scaling_with_negative_output(self):
        g = parse_grammar("alphabet: a\nstart: q\nq -> a^-1 : q1 q1\nq1 -> :")
        stats = run_stats(ms(g, "t1*2"))
        assert stats.parikh == Vec({"a": -2})
        assert stats.target == Vec({"q1": 4})


class TestIsSubrun:
    def test_run_accepted(self):
        assert is_subrun(ms(ga(), "t1*3 t2*1"), Vec.unit("S"), Vec.zero())

    def test_euler_violation(self):
        chk = is_subrun(ms(ga(), "t2*2"), Vec.unit("S"), Vec.zero())
        assert not chk and chk.reason == "euler"

    def test_connectivity_violation(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> :\nT -> a : T")
        chk = is_subrun(ms(g, "t1*1 t2*1"), Vec.unit("S"), Vec.zero())
        assert not chk and chk.reason == "connectivity"

    def test_multiset_text_round_trip(self):
        m = ms(gb(), "t1*3 t2*2")
        assert parse_multiset(gb(), format_multiset(m)).counts == m.counts
        assert format_multiset(ms(gb(), "-")) == "-"

    def test_certificate_bundle(self):
        from parikh import Subrun

        cert = Subrun(ms(ga(), "t1*1 t2*1"), Vec.unit("S"), Vec.zero())
        assert cert.check()
        bad = Subrun(ms(ga(), "t2*2"), Vec.unit("S"), Vec.zero())
        assert bad.check().reason == "euler"


class TestOrdering:
    def test_ga_example(self):
        assert order_subrun(ms(ga(), "t1*2 t2*1"), Vec.unit("S"), Vec.zero()) == [
            "t1",
            "t1",
            "t2",
        ]

    def test_empty(self):
        assert order_subrun(ms(ga(), "-"), Vec.unit("S"), Vec.unit("S")) == []

    def test_branching_first(self):
        g = parse_grammar(
            "alphabet: a b\nstart: S\nS -> : T U\nT -> a :\nU -> b :"
        )
        seq = order_subrun(ms(g, "t1*1 t2*1 t3*1"), Vec.unit("S"), Vec.zero())
        assert seq[0] == "t1" and sorted(seq[1:]) == ["t2", "t3"]

    def test_invalid_certificate_rejected(self):
        with pytest.raises(ValueError):
            order_subrun(ms(ga(), "t2*2"), Vec.unit("S"), Vec.zero())

    def _simulate(self, g, seq, src):
        marking = src
        for tid in seq:
            t = g.transition(tid)
            marking = marking - Vec.unit(t.source)
            assert marking.nonneg(), "consumed a missing nonterminal"
            marking = marking + t.targets
        return marking

    def test_random_subruns_order_and_simulate(self):
        rng = random.Random(23)
        done = 0
        while done < 150:
            g = random_grammar(rng, max_nonterminals=4, max_letters=2)
            src = random_marking(rng, g)
            m, dst = simulate_subrun(rng, g, src, rng.randint(1, 10))
            if m.is_zero():
                continue
            seq = order_subrun(m, src, dst)
            counts: dict[str, int] = {}
            for tid in seq:
                counts[tid] = counts.get(tid, 0) + 1
            assert Vec(counts) == m.counts
            assert self._simulate(g, seq, src) == dst
            done += 1


class TestTrees:
    def test_chain_round_trip(self):
        m = ms(ga(), "t1*1 t2*1")
        tree = subrun_to_tree(m, "S")
        assert tree.size() == 2
        assert tree.free_total() == Vec.zero()
        assert tree_to_multiset(tree).counts == m.counts

    def test_single_vertex(self):
        tree = subrun_to_tree(ms(ga(), "t2*1"), "S")
        assert tree.size() == 1 and tree.labels == ("t2",)

    def test_cycle_keeps_free_symbol(self):
        tree = subrun_to_tree(ms(ga(), "t1*1"), "S", Vec.unit("S"))
        assert tree.size() == 1
        assert tree.free_total() == Vec.unit("S")

    def test_random_round_trips(self):
        rng = random.Random(29)
        done = 0
        while done < 120:
            g = random_grammar(rng)
            src = Vec.unit(rng.choice(g.nonterminals))
            m, dst = simulate_subrun(rng, g, src, rng.randint(1, 9))
            if m.is_zero():
                continue
            tree = subrun_to_tree(m, src.support()[0], dst)
            assert tree_to_multiset(tree).counts == m.counts
            assert tree.free_total() == dst
            for v in range(tree.size()):
                assert tree.free(v).nonneg()
            done += 1

    @pytest.mark.parametrize("labels, parents, message", [
        (("t1",), (None, 0), "labels and parents disagree in length"),
        (("t1", "t2"), (1, 0), "vertex 0 must be the root"),
        (("t1", "t1", "t2"), (None, 2, 0), "vertex 1 needs a parent earlier in the order"),
        # t2 (S -> :) produces no S for its child to consume
        (("t2", "t2"), (None, 0), "consumes more than its parent produced"),
    ])
    def test_invalid_trees_are_rejected(self, labels, parents, message):
        with pytest.raises(ValueError, match=message):
            DerivationTree(ga(), labels, parents)


class TestTreeSizeBound:
    def test_examples(self):
        assert tree_size_bound(3, True) == 4
        assert tree_size_bound(3, False) == 16
        assert tree_size_bound(0, False) == 2

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="^depth must be nonnegative$"):
            tree_size_bound(-1, True)

    def test_bounds_random_trees(self):
        rng = random.Random(31)
        done = 0
        while done < 80:
            g = random_grammar(rng, max_nonterminals=3)
            m = random_run(rng, g, max_steps=14)
            if m is None:
                continue
            tree = subrun_to_tree(m, g.start)
            depth_missing = tree.max_depth() + 1
            assert tree.size() < tree_size_bound(depth_missing, g.is_regular())
            done += 1


class TestSimpleCycles:
    def test_listing_requires_normal_form(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> : S S S")
        with pytest.raises(ValueError, match="^grammar must be in normal form$"):
            dense_simple_cycles(g, "S", 3)

    def test_self_loop_simple(self):
        assert is_simple_cycle(ms(ga(), "t1*1"), "S")

    def test_doubled_loop_not_simple(self):
        assert not is_simple_cycle(ms(ga(), "t1*2"), "S")

    def test_two_state_loop(self):
        g = parse_grammar("alphabet: a b\nstart: S\nS -> a : T\nT -> b : S")
        assert is_simple_cycle(ms(g, "t1*1 t2*1"), "S")

    def test_non_cycle_rejected(self):
        assert not is_simple_cycle(ms(ga(), "t2*1"), "S")
        assert not is_simple_cycle(ms(ga(), "-"), "S")

    def test_enumeration_examples(self):
        assert [format_multiset(c) for c in enumerate_simple_cycles(ga(), "S", 5)] == ["t1*1"]
        g = parse_grammar("alphabet: a b\nstart: S\nS -> a : T\nT -> b : S")
        assert [format_multiset(c) for c in enumerate_simple_cycles(g, "S", 5)] == ["t1*1 t2*1"]
        nocycle = parse_grammar("alphabet: a\nstart: S\nS -> a : T\nT -> :")
        assert enumerate_simple_cycles(nocycle, "S", 5) == []

    def test_simple_cycles_through_a_loop_anchored_elsewhere_are_unbounded(self):
        g = parse_grammar("alphabet: a b\nstart: S\nS -> a : T\nT -> b : T\nT -> : S\nS -> :")
        gamma = tree_size_bound(len(g.nonterminals), g.is_regular())
        loop = ms(g, "t2*1")
        for k in range(1, gamma + 3):
            cycle = ms(g, f"t1*1 t2*{k} t3*1")
            assert is_simple_cycle(cycle, "S")
            # what bounds the listing instead: T's loop splits off
            assert is_cycle(loop, "T") and is_cycle(cycle - loop, "S")
        assert [format_multiset(c) for c in enumerate_simple_cycles(g, "S", 10)] == ["t1*1 t3*1"]

    def test_long_cycles_split_off_a_cycle_anchored_in_their_support(self):
        # every cycle from q of size gamma..gamma+1 is a smaller nonzero
        # cycle from an anchor in its support plus a cycle from q
        rng = random.Random(41)
        checked = 0
        for k in range(80):
            regular = k % 2 == 0
            g = random_grammar(rng, max_nonterminals=3 if regular else 2, regular=regular)
            gamma = tree_size_bound(len(g.nonterminals), g.is_regular())
            for q in g.nonterminals:
                for cycle, _ in iter_cycles(g, [q], gamma + 1):
                    if cycle.size() < gamma:
                        continue
                    parts = iter_cycles(g, sorted(cycle.supp()), cycle.size() - 1, within=cycle)
                    assert any(is_cycle(cycle - part, q) for part, _ in parts), cycle.counts
                    checked += 1
        assert checked >= 400


class TestSkeletonRuns:
    def test_minimal_run(self):
        assert is_skeleton_run(ms(ga(), "t2*1"), "S")

    def test_pumped_run_not_skeleton(self):
        assert not is_skeleton_run(ms(ga(), "t1*1 t2*1"), "S")

    def test_non_run_rejected(self):
        with pytest.raises(ValueError):
            is_skeleton_run(ms(ga(), "t1*1"), "S")

    def test_removable_cycle_is_smallest(self):
        cycle, anchor = find_removable_cycle(ms(gb(), "t1*2 t2*2 t3*1"), "S")
        assert format_multiset(cycle) == "t1*1 t2*1"
        assert anchor in {"S", "T"}

    def test_unbalanced_multiset_has_no_removable_cycle(self):
        # t1 t2 is a cycle at S, but no removal balances the rest: t1 once
        # more than t2 leaves a T pending
        m = ms(gb(), "t1*2 t2*1 t3*1")
        assert is_run(m, "S").reason == "euler"
        assert find_removable_cycle(m, "S") is None

    def test_large_runs_never_skeleton(self):
        rng = random.Random(37)
        done = 0
        while done < 40:
            g = random_grammar(rng, max_nonterminals=2, regular=True)
            m = random_run(rng, g, max_steps=20)
            if m is None:
                continue
            bound = tree_size_bound(len(g.nonterminals) ** 2, g.is_regular())
            if m.size() < bound:
                continue
            assert is_run(m, g.start)
            assert not is_skeleton_run(m, g.start)
            done += 1
