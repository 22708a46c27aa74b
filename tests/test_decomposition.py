import random
from functools import partial

import pytest

from parikh import (
    CycleTerm,
    Decomposition,
    Vec,
    base_run_bound,
    decompose_run,
    format_multiset,
    is_simple_cycle,
    is_skeleton_run,
    normalize,
    parse_grammar,
    parse_multiset,
    tree_size_bound,
    validate_decomposition,
)
from parikh import runs
from parikh.runs import enumerate_runs, find_removable_cycle, strip_cycles
from helpers import (
    brute_force_multisets,
    ga,
    gb,
    random_grammar,
    random_long_run,
    random_ring_grammar,
    random_run,
    ref_removable_cycle,
    ref_strip_cycles,
)


class TestBaseRunBound:
    def test_regular_two_states_unary(self):
        assert base_run_bound(gb()).value == 113

    def test_regular_one_state_unary(self):
        assert base_run_bound(ga()).value == 34

    def test_general_one_state_unary(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : S S\nS -> :")
        assert base_run_bound(g).value == 260

    def test_requires_normal_form(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> : S S S")
        with pytest.raises(ValueError):
            base_run_bound(g)


class TestDecomposeRun:
    def test_ga_pumped(self):
        m = parse_multiset(ga(), "t1*5 t2*1")
        dec = decompose_run(ga(), m, "S")
        assert format_multiset(dec.base_run) == "t2*1"
        assert [(format_multiset(t.cycle), t.anchor, t.count) for t in dec.cycles] == [
            ("t1*1", "S", 5)
        ]
        validate_decomposition(dec, m, "S")

    def test_skeleton_identity(self):
        m = parse_multiset(ga(), "t2*1")
        dec = decompose_run(ga(), m, "S")
        assert dec.base_run.counts == m.counts and dec.cycles == ()

    def test_gb_loop(self):
        m = parse_multiset(gb(), "t1*2 t2*2 t3*1")
        dec = decompose_run(gb(), m, "S")
        assert format_multiset(dec.base_run) == "t3*1"
        assert [(format_multiset(t.cycle), t.count) for t in dec.cycles] == [("t1*1 t2*1", 2)]
        assert dec.parikh() == Vec({"a": 4})

    def test_rejects_non_run(self):
        with pytest.raises(ValueError):
            decompose_run(ga(), parse_multiset(ga(), "t1*1"), "S")

    def test_random_runs_validate(self):
        rng = random.Random(41)
        done = 0
        while done < 80:
            g = random_grammar(rng)
            m = random_run(rng, g, max_steps=16)
            if m is None:
                continue
            dec = decompose_run(g, m, g.start)
            validate_decomposition(dec, m, g.start)
            assert dec.parikh() == m.parikh()
            done += 1


class TestValidateDecomposition:
    """Each check of `validate_decomposition` rejects a decomposition
    tampered to fail it alone, also under `python -O`."""

    # t1: S -> a : T, t2: T -> a : S, t3: S -> :
    TEXT = "alphabet: a\nstart: S\nS -> a : T\nT -> a : S\nS -> :"

    def tampered(self, base, cycles, original):
        g = parse_grammar(self.TEXT)
        dec = Decomposition(parse_multiset(g, base), tuple(
            CycleTerm(parse_multiset(g, c), anchor, count) for c, anchor, count in cycles))
        return dec, parse_multiset(g, original)

    @pytest.mark.parametrize("base, cycles, original, message", [
        ("t1*1", [], "t1*1", "base component is not a run"),
        ("t3*1", [], "t1*1 t2*1 t3*1", "letter vector not preserved"),
        # 115 transitions, past the bound 113
        ("t1*57 t2*57 t3*1", [], "t1*57 t2*57 t3*1", "base run exceeds the size bound"),
        ("t3*1", [("t1*1 t2*1", "T", 1)], "t1*1 t2*1 t3*1",
         "cycle anchored outside the base run support"),
        ("t3*1", [("t1*1 t2*1", "S", 0)], "t3*1", "cycle term with zero multiplicity"),
        ("t3*1", [("t1*2 t2*2", "S", 1)], "t1*2 t2*2 t3*1", "non-simple cycle in decomposition"),
        ("t3*1", [("t1*1 t2*1", "S", 1)] * 2, "t1*2 t2*2 t3*1",
         "cycle letter vectors are linearly dependent"),
    ])
    def test_rejects_each_tampered_check(self, base, cycles, original, message):
        dec, original = self.tampered(base, cycles, original)
        with pytest.raises(AssertionError, match=message):
            validate_decomposition(dec, original, "S")


class TestEnumerationCompleteness:
    corpus = [
        "alphabet: a\nstart: S\nS -> a : S\nS -> :",
        "alphabet: a\nstart: S\nS -> a : T\nT -> a : S\nS -> :",
        "alphabet: a b\nstart: S\nS -> a : T\nT -> b : U\nU -> : S\nS -> :",
        "alphabet: a\nstart: S\nS -> a : S S\nS -> :",
        "alphabet: a b\nstart: S\nS -> a : S T\nT -> b :\nS -> :",
    ]

    def test_no_simple_cycle_missed(self):
        # brute force over all count vectors, library enumeration per anchor
        from parikh import enumerate_simple_cycles, is_cycle, tree_size_bound

        for text in self.corpus:
            g = normalize(parse_grammar(text))
            gamma = tree_size_bound(len(g.nonterminals), g.is_regular())
            for q in g.nonterminals:
                brute = {
                    m.counts
                    for m in brute_force_multisets(g, min(gamma + 1, 9))
                    if is_cycle(m, q) and is_simple_cycle(m, q)
                }
                listed = {m.counts for m in enumerate_simple_cycles(g, q, 9)}
                assert listed == {c for c in brute if sum(k for _, k in c) < gamma}
                # and nothing simple exists at or past the bound
                assert all(sum(k for _, k in c) < gamma for c in brute)


def _seeded_runs(seed: int, long_runs: int, short_runs: int):
    """(grammar, run) pairs: runs of 20..120 transitions over ring
    grammars with negative letters, then short runs over `random_grammar`s."""
    rng = random.Random(seed)
    out = []
    while len(out) < long_runs:
        g = random_ring_grammar(rng, rng.randint(2, 4), ["a", "b"][: rng.randint(1, 2)])
        m = random_long_run(rng, g, rng.randint(15, 110))
        if m is not None and 20 <= m.size() <= 120:
            out.append((g, m))
    while len(out) < long_runs + short_runs:
        g = random_grammar(rng)
        m = random_run(rng, g, max_steps=24)
        if m is not None:
            out.append((g, m))
    return out


def _count_searches(monkeypatch) -> list:
    """Count the firing searches (`runs._fire` calls) from here on."""
    calls = []
    fire = runs._fire

    def counted(*args):
        calls.append(1)
        return fire(*args)

    monkeypatch.setattr(runs, "_fire", counted)
    return calls


class TestStripCycles:
    def test_matches_one_fresh_search_per_copy(self):
        # the reference searches afresh for every stripped copy and checks
        # candidates on Vecs; the library re-tests the last search's cycles
        long_seen = 0
        for g, m in _seeded_runs(2001, 80, 220):
            stripped, rest = strip_cycles(m, g.start)
            ref_stripped, ref_rest = ref_strip_cycles(g, m.counts, g.start)
            assert [(c.counts, q) for c, q in stripped] == ref_stripped, m.counts
            assert rest.counts == ref_rest
            first = find_removable_cycle(m, g.start)
            ref_first = ref_removable_cycle(g, m.counts, g.start, m.supp())
            assert (first and (first[0].counts, first[1])) == ref_first
            assert is_skeleton_run(m, g.start) == (ref_first is None)
            long_seen += m.size() >= 20
        assert long_seen >= 80

    def test_find_removable_cycle_keeps_the_given_support(self):
        g = gb()
        m = parse_multiset(g, "t1*2 t2*2 t3*1")
        for keep in ([], ["S"], ["T"], ["S", "T"], ["S", "T", "nope"]):
            hit = find_removable_cycle(m, "S", keep=keep)
            ref = ref_removable_cycle(g, m.counts, "S", keep)
            assert (hit and (hit[0].counts, hit[1])) == ref, keep

    def test_unknown_root_is_named(self):
        m = parse_multiset(ga(), "t1*2 t2*1")
        for strip in (partial(decompose_run, ga()), strip_cycles, find_removable_cycle, is_skeleton_run):
            with pytest.raises(ValueError, match="unknown nonterminal 'X'"):
                strip(m, "X")

    def test_one_search_per_distinct_cycle(self, monkeypatch):
        calls = _count_searches(monkeypatch)
        dec = decompose_run(ga(), parse_multiset(ga(), "t1*3000 t2*1"), "S")
        assert [(format_multiset(t.cycle), t.count) for t in dec.cycles] == [("t1*1", 3000)]
        assert len(calls) <= 2  # one per stripped copy would be 3,001
        multi = 0
        for g, m in _seeded_runs(2002, 10, 0):
            calls.clear()
            stripped, _rest = strip_cycles(m, g.start)
            distinct = len({c.counts for c, _q in stripped})
            assert len(calls) <= distinct + 1, (m.counts, len(calls), distinct)
            multi += distinct >= 2 and len(stripped) > distinct
        assert multi >= 3


def test_decomposition_theorem_on_every_small_run():
    """Every run up to 3N^2 (regular) or 12 (branching) transitions is a
    base run within `base_run_bound` plus simple cycles of size below
    gamma(N), each anchored in the base run's support."""
    rng = random.Random(1020)
    checked = 0
    for k in range(120):
        regular = k % 2 == 0
        g = random_grammar(rng, max_nonterminals=3 if regular else 2, regular=regular)
        n = len(g.nonterminals)
        gamma = tree_size_bound(n, g.is_regular())
        bound = base_run_bound(g).value
        for m in enumerate_runs(g, g.start, 3 * n * n if g.is_regular() else 12).runs:
            dec = decompose_run(g, m, g.start)
            assert dec.base_run.size() <= bound, m.counts
            supp = dec.base_run.supp()
            for term in dec.cycles:
                assert term.anchor in supp, m.counts
                assert term.cycle.size() < gamma, m.counts
                assert is_simple_cycle(term.cycle, term.anchor), m.counts
            checked += 1
    assert checked >= 3000
