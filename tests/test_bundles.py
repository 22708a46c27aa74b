import random

import pytest

from parikh import (
    SimpleBundle,
    Vec,
    member_general,
    nonneg_integer_solve,
    normalize,
    oracle_language,
    parse_grammar,
    regular_bundles,
    two_letter_bundles,
)
from parikh import bundles, intlinalg, membership, runs
from parikh.bundles import _direction_reps, _sector_period_sets
from helpers import (
    enumerate_combinations,
    ga,
    gb,
    random_bundle_parts,
    random_grammar,
    ref_minimal_bases,
)
from parikh.hardness import hard_grammar
from parikh.runs import SearchCapExceeded


class TestRegularBundles:
    def test_gb_shape(self):
        result = regular_bundles(gb(), run_cap=34)
        assert len(result.bundles) == 1
        (b,) = result.bundles
        assert set(b.bases) == {Vec.zero()}
        assert set(b.periods) == {Vec.unit("a", 2)}
        assert result.truncated  # 34 is below the theoretical bound

    def test_finite_language_single_base(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : T\nT -> :")
        result = regular_bundles(g, run_cap=10)
        assert len(result.bundles) == 1
        (b,) = result.bundles
        assert set(b.bases) == {Vec.unit("a")} and b.periods == ()
        assert not result.truncated  # enumeration exhausted the language

    def test_window_equality_and_count_random(self):
        rng = random.Random(67)
        done = 0
        while done < 15:
            g = random_grammar(rng, max_nonterminals=3, max_letters=2, regular=True)
            lang = oracle_language(g, 24, 8)
            if lang != oracle_language(g, 48, 8):
                continue
            result = regular_bundles(g, run_cap=40)
            n, a = len(g.nonterminals), len(g.alphabet)
            assert len(result.bundles) <= n ** (a * a) + 1
            for i in range(-8, 9):
                for j in range(-8, 9) if a == 2 else [0]:
                    v = Vec({"a": i, "b": j}) if a == 2 else Vec.unit("a", i)
                    assert result.member(v) == (v in lang)
            done += 1

    def test_rejects_non_regular(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> : S S\nS -> :")
        with pytest.raises(ValueError):
            regular_bundles(g, run_cap=5)

    def test_bundles_answer_from_the_query_indexes(self, monkeypatch):
        # every bundle answers membership from the coset index of its
        # query: no index is built past the state's own
        g = parse_grammar(
            "alphabet: a b c\nstart: Q0\n"
            "Q0 -> a : Q1\nQ0 -> c : Q0\nQ1 -> a : Q0\nQ1 -> c : Q0\nQ1 -> :"
        )
        built = []
        original = intlinalg.CosetIndex.__init__

        def counting(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(intlinalg.CosetIndex, "__init__", counting)
        result = regular_bundles(g, 40)
        assert all(b.member(w) for b in result.bundles for w in b.bases)
        state = membership.engine(g, "regular-dp", bound=40)
        assert len(built) == len(state._queries) == 3

    def test_count_bound_at_full_cap(self):
        # run_cap at the theoretical bound: at most N**(A*A) bundles
        result = regular_bundles(ga(), run_cap=34)
        assert not result.truncated or result.run_cap >= 34
        assert len(result.bundles) <= 1  # N=1, A=1


class TestSectorPeriodSets:
    def test_quadrant_pair(self):
        assert _sector_period_sets([(2, 0), (0, 2)]) == [((2, 0), (0, 2))]

    def test_single_direction(self):
        assert _sector_period_sets([(1, 1), (2, 2)]) == [((1, 1),)]

    def test_opposite_rays(self):
        assert _sector_period_sets([(1, 0), (-1, 0)]) == [((1, 0),), ((-1, 0),)]

    def test_full_plane_three_sectors(self):
        sets = _sector_period_sets([(1, 0), (0, 1), (-1, -1)])
        assert len(sets) == 3
        assert all(len(s) == 2 for s in sets)

    def test_halfplane_sectors(self):
        sets = _sector_period_sets([(1, 0), (0, 1), (-1, 0)])
        assert sets == [((1, 0), (0, 1)), ((0, 1), (-1, 0))]

    def test_empty(self):
        assert _sector_period_sets([]) == [()]

    def test_direction_reps(self):
        vecs = [(0, 3), (0, 1), (2, 4), (1, 2), (-3, 0), (-2, -2)]
        assert _direction_reps(vecs) == [(1, 2), (0, 1), (-3, 0), (-2, -2)]


class TestTwoLetterBundles:
    def test_two_cycle_directions(self):
        g = parse_grammar(
            "alphabet: x y\nstart: S\n"
            "S -> x : T\nT -> x : S\nS -> y : U\nU -> y : S\nS -> :"
        )
        result = two_letter_bundles(g, run_cap=8)
        periods = {frozenset(p.items() for p in b.periods) for b in result.bundles}
        assert periods == {
            frozenset({(("x", 2),), (("y", 2),)})
        }

    def test_single_direction_degenerate(self):
        g = parse_grammar("alphabet: x y\nstart: S\nS -> x : T\nT -> y : S\nS -> :")
        result = two_letter_bundles(g, run_cap=8)
        assert len(result.bundles) == 1
        (b,) = result.bundles
        assert [p.to_dict() for p in b.periods] == [{"x": 1, "y": 1}]

    def test_window_equality_hard_fragment(self):
        g = normalize(hard_grammar(1, "stripped"))
        result = two_letter_bundles(g, run_cap=14)
        lang = oracle_language(g, 40, 10)
        for i in range(0, 11):
            for j in range(0, 11):
                v = Vec({"x": i, "y": j})
                assert result.member(v) == (v in lang)

    def test_window_equality_mixed_sign(self):
        g = parse_grammar(
            "alphabet: x y\nstart: S\n"
            "S -> x : S\nS -> y^-1 : S\nS -> :"
        )
        result = two_letter_bundles(g, run_cap=6)
        lang = oracle_language(g, 20, 6)
        assert lang == oracle_language(g, 40, 6)
        for i in range(-6, 7):
            for j in range(-6, 7):
                v = Vec({"x": i, "y": j})
                assert result.member(v) == (v in lang)

    def test_zero_cycles_never_reach_direction_reps(self, monkeypatch):
        # S -> T -> S and T -> S -> T are cycles with a zero vector; they
        # are filtered out before the direction grouping, which may
        # therefore divide by gcd(x, y) without a zero case
        seen = []

        def recording(vecs):
            seen.extend(vecs)
            return _direction_reps(vecs)

        monkeypatch.setattr(bundles, "_direction_reps", recording)
        g = parse_grammar(
            "alphabet: x y\nstart: S\n"
            "S -> x : S\nS -> : T\nT -> : S\nT -> y^-1 : T\nS -> :"
        )
        assert any(c.parikh().is_zero() for c in runs.enumerate_simple_cycles(g, "S", 4))
        two_letter_bundles(g, run_cap=6)
        assert seen and (0, 0) not in seen

    def test_bundles_share_the_general_state(self):
        # bundles and member_general read one enumeration; bundles never
        # build the coset indexes that only queries read
        g = normalize(hard_grammar(1, "stripped"))
        two_letter_bundles(g, run_cap=8, cycle_cap=5)
        state = g.engine_states["general-caps"]
        assert "_queries" not in state.__dict__
        member_general(g, Vec({"x": 1}), 8, 5)
        assert g.engine_states == {"general-caps": state}
        assert "_queries" in state.__dict__

    def test_default_caps_share_the_engine_default_state(self):
        # with no cycle cap given, the bundles read the state that the
        # engine keeps at its own default caps
        g = normalize(hard_grammar(1, "stripped"))
        two_letter_bundles(g, run_cap=8)
        state = g.engine_states["general-caps"]
        assert membership.engine(g, "general-caps", run_cap=8) is state
        assert state.caps == (8, 8, membership.DEFAULT_STATE_CAP)

    def test_exhaustive_run_enumeration_is_not_truncated(self):
        # the cycle search is not complete at the default cycle cap, but
        # every run fits the run cap: the general state's miss is a no,
        # and the bundles list the whole language
        g = parse_grammar("alphabet: x y\nstart: S\nS -> : A B\nA -> x :\nB -> y :")
        result = two_letter_bundles(g, run_cap=4)
        assert [(b.bases, b.periods) for b in result.bundles] == [((Vec({"x": 1, "y": 1}),), ())]
        assert not result.truncated
        assert member_general(g, Vec.unit("x", 2), 4, 8).status == membership.NON_MEMBER

    def test_capped_cycle_search_is_truncation(self, monkeypatch):
        # the cycle search at S outgrows the state cap, so S pumps nothing:
        # the bundles list only what the listed runs reach, every member
        # of them is in the language, and the result is truncated
        monkeypatch.setattr(membership, "DEFAULT_STATE_CAP", 15)
        g = parse_grammar(
            "alphabet: a b\nstart: S\n"
            "S -> : S S\nS -> : Q1\nQ1 -> : Q2\nQ2 -> a :\nS -> b : S"
        )
        result = two_letter_bundles(g, 8)
        assert result.truncated
        assert [(b.bases, b.periods) for b in result.bundles] == [((Vec.unit("a"),), ())]
        lang = oracle_language(g, 24, 4)
        box = [Vec({"a": i, "b": j}) for i in range(5) for j in range(5)]
        assert all(v in lang for v in box if result.member(v))

    def test_needs_two_letters(self):
        with pytest.raises(ValueError):
            two_letter_bundles(ga(), run_cap=5)


def _bundle_keys(result):
    return {(b.bases, b.periods) for b in result.bundles}


class TestMinimalBases:
    """Each bundle's bases are exactly the minimal ones of its unminimized
    base set, in `Vec.sort_key` order; minimization never drops a whole
    bundle, so every bundle is one of the reference bundles."""

    def test_regular_bundles_keep_exactly_the_minimal_bases(self):
        rng = random.Random(307)
        minimized = 0
        for _ in range(25):
            g = random_grammar(rng, max_nonterminals=3, max_letters=3, regular=True)
            expected = set()
            state = membership.RegularMembership(g, 7)
            for key, zs, _index, _anchors in state._queries:
                bases = state._runs()[1].cells[key]
                periods = tuple(Vec.from_tuple(z, g.alphabet) for z in zs)
                base_vecs = [Vec.from_tuple(w, g.alphabet) for w in bases]
                kept = ref_minimal_bases(base_vecs, periods)
                minimized += len(kept) < len(base_vecs)
                expected.add((kept, periods))
            assert _bundle_keys(regular_bundles(g, 7)) <= expected
        assert minimized  # the seeds exercise bases that another base reaches

    @pytest.mark.parametrize("fold_cap", [2, None])
    def test_two_letter_bundles_keep_exactly_the_minimal_bases(self, fold_cap, monkeypatch):
        # a small fold product cap keeps the reference enumeration small
        monkeypatch.setattr(bundles, "FOLD_PRODUCT_CAP", 300)
        rng = random.Random(311)
        done = minimized = 0
        while done < 15:
            g = random_grammar(rng, max_nonterminals=3, exact_letters=2)
            try:
                result = two_letter_bundles(g, 6, cycle_cap=4, fold_cap=fold_cap)
            except SearchCapExceeded:
                continue
            state = membership.engine(g, "general-caps", run_cap=6, cycle_cap=4)
            expected = set()
            for supp, bases in state._bases.items():
                pool = sorted(set().union(*(state._pools[q] for q in supp)))
                # the default fold cap: n! * c**n at n = 2 for the pool's largest entry
                cap = fold_cap
                if cap is None:
                    cap = 2 * max((max(map(abs, z)) for z in pool), default=0) ** 2
                pool_vecs = [Vec.from_tuple(z, g.alphabet) for z in pool]
                folded = set().union(*(
                    enumerate_combinations(Vec.from_tuple(w, g.alphabet), pool_vecs, cap)
                    for w in bases
                ))
                for zs in _sector_period_sets(pool):
                    periods = tuple(Vec.from_tuple(z, g.alphabet) for z in zs)
                    kept = ref_minimal_bases(folded, periods)
                    minimized += len(kept) < len(folded)
                    expected.add((kept, periods))
            assert _bundle_keys(result) <= expected
            done += 1
        assert minimized


def ref_subsumes(a, b):
    """Whether bundle a denotes a superset of bundle b, from the
    definition: a spans every period of b, and every base of b is a base
    of a plus an N-combination of a's periods."""
    def spanned(v):
        return nonneg_integer_solve(list(a.periods), v) is not None

    return all(spanned(z) for z in b.periods) and all(
        any(spanned(w - u) for u in a.bases) for w in b.bases
    )


class TestSubsumes:
    def test_matches_the_definition(self):
        # half the second bundles are built inside the first, so both
        # answers come up; the rest are independent draws
        rng = random.Random(337)
        seen = set()
        for i in range(300):
            bases, periods = random_bundle_parts(rng)
            a = SimpleBundle(bases, periods)
            if i % 2:
                b = SimpleBundle(*random_bundle_parts(rng))
            else:
                def inside():
                    return sum((p * rng.randint(0, 2) for p in periods), Vec.zero())
                b_periods = tuple(p * rng.randint(1, 2) for p in periods[:rng.randint(0, 2)])
                b_bases = tuple(rng.choice(bases) + inside() for _ in range(rng.randint(1, 3)))
                if rng.random() < 0.3:
                    b_bases += (Vec.unit("d"),)  # a letter outside a
                b = SimpleBundle(b_bases, b_periods)
            want = ref_subsumes(a, b)
            assert bundles._subsumes(a, b) == want
            seen.add(want)
        assert seen == {True, False}


class TestPinnedOutputs:
    """Two grammars whose bundles were slow to minimize pairwise; their
    output is pinned to the pairwise construction's."""

    def test_three_letter_regular_grammar(self):
        g = parse_grammar(
            "alphabet: a b c\nstart: Q0\n"
            "Q0 -> a : Q1\nQ0 -> c : Q0\nQ1 -> a : Q0\nQ1 -> c : Q0\nQ1 -> :"
        )
        result = regular_bundles(g, 40)
        shape = [(len(b.bases), [p.to_dict() for p in b.periods]) for b in result.bundles]
        assert shape == [
            (39, [{"a": 1, "c": 1}, {"a": 2}]),
            (20, [{"c": 1}, {"a": 1, "c": 1}]),
            (2, [{"c": 1}, {"a": 2}]),
        ]
        assert result.truncated
        for b in result.bundles:
            assert list(b.bases) == sorted(b.bases, key=Vec.sort_key)

    def test_seed_151_two_letter_grammar(self):
        g = random_grammar(random.Random(151), max_nonterminals=3, exact_letters=2)
        result = two_letter_bundles(g, 6)
        assert [(b.bases, b.periods) for b in result.bundles] == [
            ((Vec.unit("b", 109),), (Vec.unit("b", -1),)),
            ((Vec.unit("b", -20),), (Vec.unit("b"),)),
        ]
        assert result.truncated
