import random
from itertools import product

import pytest

from parikh import (
    GeneralMembership,
    RegularMembership,
    Vec,
    compare_within_window,
    normalize,
    oracle_language,
    parse_grammar,
    regular_bundles,
    universality_within_window,
    window_bound_report,
)
from parikh import membership, windows
from parikh.decomposition import base_run_bound
from parikh.membership import _regular_state
from helpers import (
    ga,
    gb,
    random_grammar,
    ref_box_members,
    ref_compare_within_window,
    ref_universality_within_window,
    zero_in_difference,
)


class TestWindowBoundReport:
    def test_ga_gb_values(self):
        report = window_bound_report(ga(), gb())
        assert report.left.base_run == 34
        assert report.right.base_run == 113
        assert report.left.cycle_size == 2
        assert report.right.cycle_size == 3
        assert "window" in report.note

    def test_identical_grammars(self):
        report = window_bound_report(gb(), gb())
        assert report.left == report.right

    def test_general_pair(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : S S\nS -> :")
        report = window_bound_report(g, g)
        assert report.left.base_run == 260

    def test_alphabet_mismatch(self):
        g = parse_grammar("alphabet: b\nstart: S\nS -> b :")
        with pytest.raises(ValueError):
            window_bound_report(ga(), g)


class TestCompare:
    def test_evens_included_in_all(self):
        res = compare_within_window(gb(), ga(), 5, "inclusion", engine="oracle", depth=24)
        assert res.verdict is True and res.witness is None

    def test_all_not_included_in_evens(self):
        res = compare_within_window(ga(), gb(), 5, "inclusion", engine="oracle", depth=24)
        assert res.verdict is False and res.witness == Vec.unit("a")

    def test_reflexive_equivalence(self):
        for engine, params in (
            ("oracle", {"depth": 24}),
            ("regular-dp", {"bound": 40}),
        ):
            res = compare_within_window(gb(), gb(), 4, "equivalence", engine=engine, **params)
            assert res.verdict is True

    def test_disjointness(self):
        odd = parse_grammar("alphabet: a\nstart: S\nS -> a : T\nT -> a : S\nT -> :")
        res = compare_within_window(gb(), odd, 6, "disjointness", engine="oracle", depth=24)
        assert res.verdict is True
        res = compare_within_window(gb(), ga(), 6, "disjointness", engine="oracle", depth=24)
        assert res.verdict is False and res.witness == Vec.zero()

    def test_engines_agree_on_exact_windows(self):
        rng = random.Random(71)
        done = 0
        while done < 10:
            g1 = random_grammar(rng, max_nonterminals=3, regular=True)
            g2 = random_grammar(rng, max_nonterminals=3, regular=True)
            if g1.alphabet != g2.alphabet:
                continue
            stable = all(
                oracle_language(g, 16, 5) == oracle_language(g, 32, 5) for g in (g1, g2)
            )
            if not stable:
                continue
            verdicts = set()
            for engine, params in (
                ("oracle", {"depth": 16}),
                ("regular-dp", {"bound": 60}),
                ("general-caps", {"run_cap": 16, "cycle_cap": 6}),
            ):
                res = compare_within_window(g1, g2, 5, "inclusion", engine=engine, **params)
                verdicts.add((res.verdict, res.witness))
            # general-caps may come back unknown; the definite engines agree
            definite = {v for v in verdicts if v[0] is not None}
            assert len(definite) == 1
            done += 1

    def test_unknown_verdict_from_capped_engine(self):
        res = compare_within_window(
            gb(), ga(), 4, "inclusion", engine="general-caps", run_cap=3, cycle_cap=1
        )
        assert res.verdict is None


class TestUniversality:
    def test_ga_universal_over_naturals(self):
        res = universality_within_window(ga(), 6, "naturals", engine="oracle", depth=10)
        assert res.verdict is True

    def test_gb_misses_odd(self):
        res = universality_within_window(gb(), 6, "naturals", engine="oracle", depth=16)
        assert res.verdict is False and res.witness == Vec.unit("a")

    def test_empty_language_misses_zero(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : S")
        res = universality_within_window(g, 0, "naturals", engine="oracle", depth=6)
        assert res.verdict is False and res.witness == Vec.zero()

    def test_integer_ambient(self):
        g = parse_grammar(
            "alphabet: a\nstart: S\nS -> a : S\nS -> a^-1 : S\nS -> :"
        )
        res = universality_within_window(g, 3, "integers", engine="oracle", depth=14)
        assert res.verdict is True


class TestDisjointnessDifferenceConsistency:
    def test_fixed_pair(self):
        odd = parse_grammar("alphabet: a\nstart: S\nS -> a : T\nT -> a : S\nT -> :")
        for g2, expect_disjoint in ((odd, True), (ga(), False)):
            sweep = compare_within_window(gb(), g2, 8, "disjointness", engine="oracle", depth=16)
            assert sweep.verdict is expect_disjoint
            assert zero_in_difference(gb(), g2) is (not expect_disjoint)


# Bounds at the completeness threshold are only tabulated where it is
# small (one letter); every grammar is also tried below its threshold.
SMALL_COMPLETE_BOUND = 300


def _regular_cases(seed: int, count: int):
    """(grammar, bound) pairs over random regular grammars with negative
    emissions on 1-3 letters."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        g = random_grammar(rng, max_nonterminals=3, max_letters=3, regular=True, neg_prob=0.4)
        complete = base_run_bound(g).value
        cases.append((g, rng.randint(1, min(12, complete - 1))))
        if complete <= SMALL_COMPLETE_BOUND:
            cases.append((g, complete))
    return cases


class TestBoxEnumeration:
    @pytest.mark.parametrize("name", membership.ENGINES)
    def test_box_members_equal_point_queries(self, name):
        # through `membership.engine`: a box's members are the points
        # `result` accepts, and where `miss` is a definite no on the box,
        # every other box point is answered NON_MEMBER
        rng = random.Random(83)
        seen = set()
        for g, bound in _regular_cases(83, 80):
            window = rng.randint(0, 6 if len(g.alphabet) < 3 else 4)
            depth = rng.choice((3, 4 * window + 8))  # read by the oracle only
            state = membership.engine(g, name, window, bound=bound, run_cap=6, cycle_cap=4,
                                      depth=depth)
            dim = len(g.alphabet)
            # back to the symmetric box after the last box moved
            for lo, hi in ((-window, window), (0, window), (-window, window)):
                members = state.box_members(lo, hi)
                assert members == ref_box_members(state, lo, hi)
                if state.miss((lo,) * dim, (hi,) * dim).status == membership.NON_MEMBER:
                    seen.add("definite miss")
                    assert ref_box_members(state, lo, hi, membership.NON_MEMBER) == {
                        t for t in product(range(lo, hi + 1), repeat=dim) if t not in members
                    }
            if name == "oracle":
                found = oracle_language(g, depth, window)
                assert members == {v.to_tuple(g.alphabet) for v in found}
                box = ((-window,) * dim, (window,) * dim)
                assert (state.miss(*box).status == membership.NON_MEMBER) is found.exhausted
                seen.add(f"exhausted: {found.exhausted}")
            if name == "regular-dp" and any(
                index.det > 1 and len(zs) > 1 for _key, zs, index, _anchors in state._queries
            ):
                seen.add("residue filter")
            if name == "regular-dp" and bound == state.complete_bound and members:
                seen.add("threshold bound")
        expected = {
            "regular-dp": {"definite miss", "residue filter", "threshold bound"},
            "general-caps": {"definite miss"},
            "oracle": {"definite miss", "exhausted: True", "exhausted: False"},
        }
        assert seen == expected[name]

    def test_negative_periods_reach_back_into_the_box(self):
        # the base a^9 b lies outside the box; the cycle a^-2 b^-1 pumps
        # it back in.  a and b move both ways, so a box must not cut them.
        # In the second grammar the cycle comes first, so the backward
        # run-table build passes a^9 b on the way, and c, which no rule
        # emits, makes the sweep build a run table cut to the box
        chain = "".join(f"A{i} -> a : A{i + 1}\n" for i in range(9))
        cycle = "T -> a^-1 : U\nU -> a^-1 : V\nV -> b^-1 : T\n"
        for text, pad in (
            ("alphabet: a b\nstart: A0\n" + chain + "A9 -> b : T\n" + cycle + "T -> :", ()),
            ("alphabet: a b c\nstart: T\n" + cycle + "T -> : A0\n" + chain
             + "A9 -> b : Z\nZ -> :", (0,)),
        ):
            state = RegularMembership(parse_grammar(text), 40)
            inside = {(9 - 2 * n, 1 - n) + pad for n in (3, 4)}
            assert state.box_members(-3, 3) == inside
            assert state.box_members(-3, 3) == ref_box_members(state, -3, 3)


ENGINE_PARAMS = (
    ("general-caps", {"run_cap": 6, "cycle_cap": 4}),
    ("oracle", {"depth": 12}),
)


def _sweep_pairs(seed: int, count: int):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        g1 = random_grammar(rng, max_nonterminals=3, max_letters=2, regular=True, neg_prob=0.4)
        g2 = random_grammar(rng, max_nonterminals=3, max_letters=2, regular=True, neg_prob=0.4)
        if g1.alphabet == g2.alphabet:
            pairs.append((g1, g2, rng.randint(0, 4), rng.randint(1, 12)))
    return pairs


class TestSweepsMatchPointQueries:
    @pytest.mark.parametrize("mode", ["inclusion", "equivalence", "disjointness"])
    def test_compare(self, mode):
        verdicts = set()
        for g1, g2, window, bound in _sweep_pairs(89, 20):
            runs = ENGINE_PARAMS + (("regular-dp", {"bound": bound}),)
            if len(g1.alphabet) == 1:
                runs += (("regular-dp", {}),)  # default bound: the threshold
            for engine, params in runs:
                res = compare_within_window(g1, g2, window, mode, engine=engine, **params)
                ref = ref_compare_within_window(g1, g2, window, mode, engine, **params)
                assert (res.verdict, res.witness, res.notes) == ref
                verdicts.add(res.verdict)
        assert verdicts == {True, False, None}

    @pytest.mark.parametrize("ambient", ["naturals", "integers"])
    def test_universality(self, ambient):
        verdicts = set()
        for g, _g2, window, bound in _sweep_pairs(97, 20):
            runs = ENGINE_PARAMS + (("regular-dp", {"bound": bound}),)
            for engine, params in runs:
                res = universality_within_window(g, window, ambient, engine=engine, **params)
                ref = ref_universality_within_window(g, window, ambient, engine, **params)
                assert (res.verdict, res.witness, res.notes) == ref
                verdicts.add(res.verdict)
        assert verdicts >= {True, False}


class TestSweepReadsOnlyMembers:
    def test_at_most_one_point_outside_the_members(self, monkeypatch):
        # window 60 over two letters is a 121^2 = 14,641-point box; every
        # point outside the member sets gets the same answers, so a sweep
        # walks the box only until it leaves them
        evens = parse_grammar(
            "alphabet: a b\nstart: S\nS -> a : T\nT -> a : S\nS -> b : S\nS -> :"
        )
        every = parse_grammar("alphabet: a b\nstart: S\nS -> a : S\nS -> b : S\nS -> :")
        window = 60
        reads = [0]
        iter_window = windows.iter_window

        def counting(*args, **kwargs):
            for t in iter_window(*args, **kwargs):
                reads[0] += 1
                yield t

        monkeypatch.setattr(windows, "iter_window", counting)
        members = {
            g: _regular_state(g, 40).box_members(-window, window) for g in (evens, every)
        }
        # bound 40 leaves runs of size 40 inside the box, so neither box is
        # certified: a point outside the members is unknown, not a no
        corner = Vec({"a": -window, "b": -window})
        expected = {"inclusion": (None, corner), "equivalence": (None, corner),
                    "disjointness": (False, Vec.zero())}
        for mode, verdict in expected.items():
            reads[0] = 0
            res = compare_within_window(evens, every, window, mode, engine="regular-dp", bound=40)
            assert (res.verdict, res.witness) == verdict
            assert reads[0] <= len(members[evens] | members[every]) + 1
        for ambient, verdict in (("naturals", True), ("integers", None)):
            reads[0] = 0
            res = universality_within_window(every, window, ambient, engine="regular-dp", bound=40)
            assert res.verdict is verdict
            assert reads[0] <= len(members[every]) + 1
        assert len(members[every]) == 61 * 61 and len(members[evens]) == 31 * 61


def test_general_caps_matches_only_the_asked_box(monkeypatch):
    # universality over the naturals asks the engine for [0..3]^2 only
    asked = []
    box_members = GeneralMembership.box_members

    def recording(self, lo, hi):
        asked.append((lo, hi))
        return box_members(self, lo, hi)

    monkeypatch.setattr(GeneralMembership, "box_members", recording)
    g = parse_grammar("alphabet: a b\nstart: S\nS -> a : S\nS -> b^-1 : S\nS -> :")
    res = universality_within_window(g, 3, "naturals", engine="general-caps", run_cap=6,
                                     cycle_cap=4)
    assert (res.verdict, res.witness) == (None, Vec.unit("b"))
    assert asked == [(0, 3)]
    members = GeneralMembership(g, 6, 4).box_members(0, 3)
    assert members == {(a, 0) for a in range(4)}


class TestEngineReuse:
    def test_one_build_per_grammar_and_bound(self, monkeypatch):
        builds = []
        build = RegularMembership.__init__

        def counting(self, g, bound=None):
            builds.append(bound)
            build(self, g, bound)

        monkeypatch.setattr(RegularMembership, "__init__", counting)
        _regular_state.cache_clear()
        compare_within_window(gb(), gb(), 4, "equivalence", engine="regular-dp", bound=40)
        universality_within_window(gb(), 4, "naturals", engine="regular-dp", bound=40)
        assert builds == [40]
        universality_within_window(gb(), 4, "naturals", engine="regular-dp", bound=41)
        assert builds == [40, 41]

    def test_sweeps_build_one_cut_run_table_per_grammar_and_window(self, monkeypatch):
        # gb and ga only raise a; the two-way grammar moves a both ways
        two_way = parse_grammar("alphabet: a\nstart: S\nS -> a : S\nS -> a^-1 : S\nS -> :")
        builds = []
        path_cells = membership._path_cells

        def counting(g, end, bound, support_limit=0, box=None):
            if end == membership.FINAL:
                builds.append((g.start, len(g.nonterminals), box))
            return path_cells(g, end, bound, support_limit, box)

        monkeypatch.setattr(membership, "_path_cells", counting)
        _regular_state.cache_clear()
        for window in (4, 4, 5):
            for mode in ("inclusion", "equivalence", "disjointness"):
                compare_within_window(gb(), ga(), window, mode, engine="regular-dp", bound=40)
            universality_within_window(ga(), window, "naturals", engine="regular-dp", bound=40)
        assert builds == [
            ("S", 2, ((-4,), (4,))), ("S", 1, ((-4,), (4,))),
            ("S", 2, ((-5,), (5,))), ("S", 1, ((-5,), (5,))),
        ]
        # a state used only for sweeps holds one table, cut to its window
        assert _regular_state(gb(), 40)._table.box is not None
        # with no one-way letter nothing is cut: the full table serves
        builds.clear()
        for window in (2, 3):
            universality_within_window(two_way, window, "integers", engine="regular-dp", bound=6)
        assert builds == [("S", 1, None)]

    def test_point_queries_share_one_cut_table_and_grow_it_to_the_join(self, monkeypatch):
        # gb only raises a, so the box of a^k is a <= k
        builds = []
        path_cells = membership._path_cells

        def counting(g, end, bound, support_limit=0, box=None):
            if end == membership.FINAL:
                builds.append(box)
            return path_cells(g, end, bound, support_limit, box)

        monkeypatch.setattr(membership, "_path_cells", counting)
        state = RegularMembership(gb(), 40)
        statuses = [state.result(Vec.unit("a", k)).status for k in (4, 2, 6, 5)]
        assert statuses == [membership.MEMBER, membership.MEMBER, membership.MEMBER,
                            membership.NON_MEMBER]
        assert state.box_members(-5, 5) == {(0,), (2,), (4,)}
        assert builds == [((4,), (4,)), ((4,), (6,))]

    def test_one_run_table_serves_points_bundles_and_boxes(self, monkeypatch):
        # a and b are only raised; after the bundles read the full table,
        # later points and boxes need no build of their own
        g = parse_grammar(
            "alphabet: a b\nstart: S\nS -> a : S\nS -> b : T\nT -> a^2 : T\nT -> :\nS -> :"
        )
        points = [Vec.from_tuple(t, ("a", "b")) for t in ((2, 1), (9, 1), (3, 0))]

        def fresh():
            return RegularMembership(normalize(g), 12)

        expected_points = [fresh().result(v) for v in points]
        expected_box = fresh().box_members(0, 4)
        _regular_state.cache_clear()
        expected_bundles = regular_bundles(g, 12)
        _regular_state.cache_clear()

        builds = []
        path_cells = membership._path_cells

        def counting(g, end, bound, support_limit=0, box=None):
            if end == membership.FINAL:
                builds.append(box)
            return path_cells(g, end, bound, support_limit, box)

        monkeypatch.setattr(membership, "_path_cells", counting)
        state = membership.engine(g, "regular-dp", bound=12)
        assert state.result(points[0]) == expected_points[0]
        assert regular_bundles(g, 12) == expected_bundles
        assert state.result(points[1]) == expected_points[1]
        assert state.box_members(0, 4) == expected_box
        assert state.result(points[2]) == expected_points[2]
        assert builds == [((2, 1), (2, 1)), None]

    def test_cache_stays_bounded(self):
        assert _regular_state.cache_info().maxsize == 32
        _regular_state.cache_clear()
        for n in range(1, 41):
            g = parse_grammar(f"alphabet: a\nstart: S{n}\nS{n} -> a : S{n}\nS{n} -> :")
            universality_within_window(g, 1, "naturals", engine="regular-dp", bound=3)
        assert _regular_state.cache_info().currsize == 32
