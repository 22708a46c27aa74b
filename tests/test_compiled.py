"""The searches on the compiled grammar view against the Vec-based
reference loops in helpers: same sets, same order, same cap behaviour."""

import gc
import random
import weakref

import pytest

from parikh import (
    Vec,
    enumerate_simple_cycles,
    is_subrun,
    normalize,
    oracle_language,
    order_subrun,
    parse_grammar,
    tree_size_bound,
)
from parikh.hardness import hard_grammar
from parikh.runs import (
    RunSearch,
    SearchCapExceeded,
    TransitionMultiset,
    enumerate_runs,
    iter_cycles,
)
from helpers import (
    GC_TEXT,
    brute_force_multisets,
    random_grammar,
    random_grammar_with_dead_ends,
    random_marking,
    random_run,
    ref_enumerate_runs,
    ref_is_subrun,
    ref_iter_cycles,
    ref_least_run_sizes,
    ref_oracle_language,
    ref_order_subrun,
    ref_simple_cycles,
    simulate_subrun,
)


def random_grammars(count=30):
    rng = random.Random(2024)
    return [random_grammar(rng, regular=k % 3 == 0) for k in range(count)]


HARD = [hard_grammar(n, v) for n in range(4) for v in ("full", "stripped", "cone")]
GRAMMARS = random_grammars() + HARD
_dead_rng = random.Random(2025)
DEAD_ENDS = [random_grammar_with_dead_ends(_dead_rng, regular=k % 3 == 0) for k in range(24)]


def test_regular_dead_end_grammars_are_regular():
    assert all(g.is_regular() for g in DEAD_ENDS[::3])


def cycle_events(search):
    """Everything a cycle search yields, then 'cap' if it hit its cap."""
    events = []
    try:
        for ms, anchor in search:
            counts = ms.counts if isinstance(ms, TransitionMultiset) else ms
            events.append((counts.sort_key(), anchor))
    except RuntimeError as e:  # SearchCapExceeded in the library
        assert isinstance(e, SearchCapExceeded) or str(e) == "cap"
        events.append("cap")
    return events


@pytest.mark.parametrize("index", range(len(GRAMMARS)))
def test_oracle_language_matches_reference(index):
    g = GRAMMARS[index]
    for depth, window in ((6, 2), (9, 3)):
        found = oracle_language(g, depth, window)
        assert found == ref_oracle_language(g, depth, window)
        if found.exhausted:  # then no deeper search finds more in the window
            assert found == ref_oracle_language(g, 2 * depth, window)


@pytest.mark.parametrize("index", range(len(GRAMMARS)))
def test_enumerate_runs_matches_reference(index):
    g = GRAMMARS[index]
    for max_size in (0, 1, 7):
        for state_cap in (1, 2, 7, 40, 300, 10**6):
            search = enumerate_runs(g, g.start, max_size, state_cap)
            runs, complete, capped = ref_enumerate_runs(g, g.start, max_size, state_cap)
            assert [r.counts for r in search.runs] == runs
            assert (search.complete, search.capped) == (complete, capped)
    # no search ran, so nothing is known to be exhausted
    assert enumerate_runs(g, g.start, 0) == RunSearch((), False, False)


@pytest.mark.parametrize("index", range(len(GRAMMARS)))
def test_iter_cycles_matches_reference(index):
    g = GRAMMARS[index]
    anchors = g.nonterminals
    for max_size in (0, 1, 5):
        full = cycle_events(ref_iter_cycles(g, anchors, max_size))
        assert cycle_events(iter_cycles(g, anchors, max_size)) == full
        for state_cap in (1, 3, 10, 60, 400):
            assert cycle_events(
                iter_cycles(g, anchors, max_size, state_cap=state_cap)
            ) == cycle_events(ref_iter_cycles(g, anchors, max_size, state_cap=state_cap))
    rng = random.Random(index)
    run = random_run(rng, g, max_steps=10)
    if run is not None:
        supp = sorted(run.supp())
        assert cycle_events(iter_cycles(g, supp, run.size(), within=run)) == cycle_events(
            ref_iter_cycles(g, supp, run.size(), within=run.counts)
        )


@pytest.mark.parametrize("index", range(len(DEAD_ENDS)))
def test_pruned_listings_match_the_unpruned_reference(index):
    # uncapped, keeping only the states that can still finish changes
    # nothing listed, also past nonterminals without runs
    g = DEAD_ENDS[index]
    rng = random.Random(index)
    for max_size in (3, 6):
        search = enumerate_runs(g, g.start, max_size)
        runs, _complete, capped = ref_enumerate_runs(g, g.start, max_size, 10**6, prune=False)
        assert not capped and [r.counts for r in search.runs] == runs
    anchors = g.nonterminals
    assert cycle_events(iter_cycles(g, anchors, 5)) == cycle_events(
        ref_iter_cycles(g, anchors, 5, prune=False)
    )
    within = TransitionMultiset.from_counts(g, {t.tid: rng.randint(0, 2) for t in g.transitions})
    assert cycle_events(iter_cycles(g, anchors, 6, within=within)) == cycle_events(
        ref_iter_cycles(g, anchors, 6, within=within.counts, prune=False)
    )


@pytest.mark.parametrize("index", range(len(GRAMMARS + DEAD_ENDS)))
def test_complete_run_search_lists_every_run(index):
    g = (GRAMMARS + DEAD_ENDS)[index]
    for max_size in (3, 5):
        search = enumerate_runs(g, g.start, max_size)
        if search.complete:
            runs, _complete, capped = ref_enumerate_runs(
                g, g.start, max_size + 6, 300_000, prune=False
            )
            assert not capped and [r.counts for r in search.runs] == runs


@pytest.mark.parametrize("index", range(len(GRAMMARS + DEAD_ENDS)))
def test_least_run_sizes_match_brute_force(index):
    g = (GRAMMARS + DEAD_ENDS)[index]
    d = ref_least_run_sizes(g)
    assert g.compiled.least_run_sizes == tuple(d[q] for q in g.nonterminals)


@pytest.mark.parametrize("n, variant, size", [(1, "cone", 6), (2, "stripped", 5)])
def test_cycle_cap_fires_at_the_same_state_count(n, variant, size):
    g = normalize(hard_grammar(n, variant))

    def fired(search, cap):
        return cycle_events(search(g, g.nonterminals, size, state_cap=cap))[-1:] == ["cap"]

    caps = range(1, 150)
    got = [cap for cap in caps if fired(iter_cycles, cap)]
    assert got == [cap for cap in caps if fired(ref_iter_cycles, cap)]
    assert got and got == list(range(1, got[-1] + 1)) and got[-1] < caps[-1]


@pytest.mark.parametrize("index", range(len(GRAMMARS)))
def test_simple_cycles_match_reference(index):
    g = normalize(GRAMMARS[index])
    limit = min(5, tree_size_bound(len(g.nonterminals), g.is_regular()) - 1)
    for q in g.nonterminals:
        got = [ms.counts for ms in enumerate_simple_cycles(g, q, limit)]
        assert got == ref_simple_cycles(g, q, limit)


@pytest.mark.parametrize("index", range(len(GRAMMARS)))
def test_order_and_subrun_check_match_reference(index):
    g = GRAMMARS[index]
    rng = random.Random(100 + index)
    for _ in range(8):
        src = random_marking(rng, g)
        ms, dst = simulate_subrun(rng, g, src, rng.randint(0, 8))
        assert order_subrun(ms, src, dst) == ref_order_subrun(g, ms.counts, src, dst)
    for ms in brute_force_multisets(g, 2):
        for src, dst in ((Vec.unit(g.start), Vec.zero()), (random_marking(rng, g), Vec.zero())):
            assert is_subrun(ms, src, dst).reason == ref_is_subrun(g, ms.counts, src, dst)


def test_subrun_check_with_symbols_outside_the_grammar():
    g = parse_grammar(GC_TEXT)
    ms = TransitionMultiset.from_counts(g, {"t2": 1})
    for src, dst in (
        (Vec({"S": 1, "X": 1}), Vec({"X": 1})),
        (Vec({"S": 1, "X": 1}), Vec.zero()),
        (Vec.unit("S"), Vec.unit("X")),
    ):
        assert is_subrun(ms, src, dst).reason == ref_is_subrun(g, ms.counts, src, dst)
    assert order_subrun(ms, Vec({"S": 1, "X": 1}), Vec({"X": 1})) == ["t2"]


def test_unknown_anchor_is_rejected():
    g = parse_grammar(GC_TEXT)
    with pytest.raises(ValueError, match="unknown nonterminal"):
        list(iter_cycles(g, ["Nope"], 3))
    with pytest.raises(ValueError, match="unknown nonterminal"):
        enumerate_runs(g, "Nope", 3)


def test_compiled_view_is_built_once_per_instance():
    g = parse_grammar(GC_TEXT)
    assert g.compiled is g.compiled
    assert parse_grammar(GC_TEXT).compiled is not g.compiled
    cg = g.compiled
    assert cg.output == ((1,), (0,))
    assert cg.delta == ((1,), (-1,))
    assert cg.targets == ((0, 0), ())
    assert cg.from_source == ((0, 1),)


def test_grammar_is_not_kept_alive_by_lookups():
    g = parse_grammar(GC_TEXT)
    ref = weakref.ref(g)
    g.transition("t1")
    g.transitions_from("S")
    oracle_language(g, 5, 3)
    enumerate_runs(g, g.start, 4)
    del g
    gc.collect()
    assert ref() is None


def test_output_sum_matches_the_vec_sum_of_outputs():
    # half the random outputs are negative and most counts are 0 (unused
    # transitions); the last grammar declares a letter no rule emits
    rng = random.Random(2026)
    grammars = [random_grammar(rng, max_letters=3, neg_prob=0.5) for _ in range(40)]
    grammars.append(parse_grammar(
        "alphabet: a b c\nstart: S\nS -> a^-1 b^2 : S\nS -> b^-3 : T\nT -> : S S\nS -> :\n"
    ))
    negative = unused = 0
    for g in grammars:
        cg = g.compiled
        for _ in range(20):
            counts = tuple(rng.choice((0, 0, 0, 1, 2, 7)) for _ in g.transitions)
            want = Vec.zero()
            for t, c in zip(g.transitions, counts):
                want = want + t.output * c
            assert cg.output_sum(counts) == want.to_tuple(g.alphabet)
            assert TransitionMultiset(g, cg.multiset(counts)).parikh() == want
            negative += any(c < 0 for _sym, c in want)
            unused += 0 in counts
    assert negative and unused
    assert grammars[-1].compiled.output_sum((0, 0, 0, 0)) == (0, 0, 0)
    assert parse_grammar("alphabet: a b\nstart: S\n").compiled.output_sum(()) == (0, 0)
