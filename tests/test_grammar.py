import pickle
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from parikh import (
    Grammar,
    GrammarError,
    GrammarParseError,
    Transition,
    Vec,
    classify,
    difference_grammar,
    grammar_from_rules,
    negate_grammar,
    normalize,
    oracle_language,
    parse_grammar,
    serialize_grammar,
    trim,
)
from parikh import membership
from helpers import ga, gb, random_grammar, random_grammar_with_dead_ends


def lang(g, depth, window):
    return {v for v in oracle_language(g, depth, window)}


class TestParse:
    def test_minimal_file(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a : S\nS -> :")
        assert len(g.transitions) == 2
        assert g.alphabet == ("a",)
        assert g.start == "S"
        assert g.transitions[0].tid == "t1"

    def test_negative_exponent(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a^-1 :")
        assert g.transitions[0].output == Vec({"a": -1})

    def test_undeclared_terminal(self):
        with pytest.raises(GrammarError):
            parse_grammar("alphabet: a\nstart: S\nS -> b : S")

    def test_name_clash(self):
        with pytest.raises(GrammarError):
            parse_grammar("alphabet: a S\nstart: S\nS -> a :")

    def test_missing_start(self):
        with pytest.raises(GrammarParseError):
            parse_grammar("alphabet: a\nS -> a :")

    def test_syntax_error_carries_line(self):
        try:
            parse_grammar("alphabet: a\nstart: S\nS >> a : S")
        except GrammarParseError as e:
            assert e.line == 3
        else:
            pytest.fail("expected a parse error")

    @pytest.mark.parametrize("text, line, message", [
        ("alphabet: a 1b\nstart: S\nS -> :", 1, "bad terminal name '1b'"),
        ("alphabet: a ﬁ\nstart: S\nS -> :", 1, "bad terminal name 'ﬁ'"),
        ("alphabet: a\nstart: é\nS -> :", 2, "start: expects a single nonterminal name"),
        ("alphabet: a\nstart: S\nS -> :\né -> a :", 4, "bad source nonterminal 'é'"),
        ("alphabet: a\nstart: S\nS -> ﬁ : S", 3, "bad symbol name 'ﬁ' in monomial ' ﬁ '"),
        ("alphabet: a\nstart: S\nS -> a : ٣", 3, "bad symbol name '٣' in monomial ' ٣'"),
    ])
    def test_bad_names_keep_their_messages_and_lines(self, text, line, message):
        with pytest.raises(GrammarParseError) as info:
            parse_grammar(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("text, line, message", [
        ("alphabet: a\n\nstart: S\nS -> a : S\nS -> a^x : S\nS -> a^x : S\n",
         5, "bad exponent 'x' in monomial ' a^x '"),
        ("alphabet: a\nstart: S\nS -> a : S b-c\nS -> a : S b-c\n",
         3, "bad symbol name 'b-c' in monomial ' S b-c'"),
        # the field text parses as an output on line 3; as a target it
        # still fails its own check, on line 4
        ("alphabet: a\nstart: S\nS -> a^-1: S\nS -> : a^-1\nS -> : a^-1\n",
         4, "target 'a' needs a positive exponent"),
        # a factor below 1 is rejected even where the sum drops it or
        # stays positive
        ("alphabet: a\nstart: S\nS -> a : T^0\nT -> :\n", 3,
         "target 'T' needs a positive exponent"),
        ("alphabet: a\nstart: S\nS -> a : T T^-1\nT -> :\n", 3,
         "target 'T' needs a positive exponent"),
        ("alphabet: a\nstart: S\nS -> :\nS -> a : T^2 T^-1\nS -> a : T^2 T^-1\nT -> :\n", 4,
         "target 'T' needs a positive exponent"),
    ])
    def test_a_repeated_bad_field_reports_its_first_bad_line(self, text, line, message):
        with pytest.raises(GrammarParseError) as info:
            parse_grammar(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_rules_sharing_field_texts_equal_the_rules_built_apart(self):
        g = parse_grammar(
            "alphabet: a b\nstart: S\n"
            "S -> a^2 b : S T\nT -> a^2 b : S T\nS -> : T^2\nT -> b^-1 :\n"
            "S -> b^-1 :\nT -> a^2 b : T^2\nS -> :\nT -> :\n"
        )
        two_a_b, s_t, minus_b = Vec({"a": 2, "b": 1}), Vec({"S": 1, "T": 1}), Vec({"b": -1})
        built = grammar_from_rules(("a", "b"), "S", [
            ("S", two_a_b, s_t),
            ("T", two_a_b, s_t),
            ("S", Vec.zero(), Vec({"T": 2})),
            ("T", minus_b, Vec.zero()),
            ("S", minus_b, Vec.zero()),
            ("T", two_a_b, Vec({"T": 2})),
            ("S", Vec.zero(), Vec.zero()),
            ("T", Vec.zero(), Vec.zero()),
        ])
        assert g == built and hash(g) == hash(built)
        assert [t.tid for t in g.transitions] == [t.tid for t in built.transitions]

    def test_comments_and_blanks(self):
        g = parse_grammar("# header\nalphabet: a\n\nstart: S # trailing\nS -> a : S\nS -> :")
        assert len(g.transitions) == 2


def _rule(tid="t1", source="S", output=None, targets=None):
    return Transition(tid, source, Vec(output or {}), Vec(targets or {}))


class TestDirectConstruction:
    """`Grammar(...)` checks what `parse_grammar` would have rejected."""

    @pytest.mark.parametrize("nonterminals, start, rules, message", [
        (("S", "S"), "S", [_rule()], "duplicate nonterminal"),
        (("S", "T-1"), "S", [_rule()], "bad symbol name 'T-1'"),
        (("S",), "T", [_rule()], "start symbol 'T' is not a nonterminal"),
        (("S",), "S", [_rule(), _rule()], "duplicate transition id t1"),
        (("S",), "S", [_rule(source="T")], "transition t1: unknown source 'T'"),
        (("S",), "S", [_rule(targets={"T": 1})], "transition t1: unknown nonterminal 'T'"),
        (("S",), "S", [_rule(targets={"S": -1})],
         "transition t1: negative target multiplicity"),
    ])
    def test_invalid_grammar_is_rejected(self, nonterminals, start, rules, message):
        with pytest.raises(GrammarError) as info:
            Grammar(("a",), nonterminals, start, tuple(rules))
        assert str(info.value) == message


class TestPickle:
    def test_pickle_carries_no_engine_states(self):
        g = ga()
        membership.engine(g, "regular-dp", bound=5)
        assert "regular-dp" in g.engine_states
        copy = pickle.loads(pickle.dumps(g))
        assert "engine_states" not in copy.__dict__
        assert copy == g and copy.engine_states == {}


class TestSerialize:
    def test_round_trip_ga(self):
        g = ga()
        assert parse_grammar(serialize_grammar(g)) == g

    def test_output_token_format(self):
        g = parse_grammar("alphabet: a b\nstart: S\nS -> a^2 b^-1 :")
        assert "a^2 b^-1" in serialize_grammar(g)

    def test_no_transitions(self):
        g = parse_grammar("alphabet: a\nstart: S")
        text = serialize_grammar(g)
        assert text == "alphabet: a\nstart: S\n"
        assert parse_grammar(text) == g

    def test_round_trip_random(self):
        rng = random.Random(7)
        grammars = [random_grammar(rng) for _ in range(40)]
        # many rules over few letters and nonterminals, so most field texts repeat
        grammars += [random_grammar(rng, max_nonterminals=3, max_letters=3, regular=k % 2 == 0,
                                    neg_prob=0.3, extra_rules=12) for k in range(60)]
        for g in grammars:
            assert parse_grammar(serialize_grammar(g)) == g


class TestNormalize:
    def test_wide_rule_split(self):
        g = parse_grammar(
            "alphabet: a1 a2\nstart: q\n"
            "q -> a1 a2 : q1 q2 q3\nq1 -> :\nq2 -> :\nq3 -> :"
        )
        ng = normalize(g)
        assert ng.is_normal_form()
        t1, t2 = ng.transitions[0], ng.transitions[1]
        assert t1.output == Vec({"a1": 1}) and t1.targets.to_dict() == {"q1": 1, "q__1": 1}
        assert t2.output == Vec({"a2": 1}) and t2.targets.to_dict() == {"q2": 1, "q3": 1}

    def test_already_normal_is_identity(self):
        g = ga()
        assert normalize(g) is g

    def test_letter_chain(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a^3 :")
        ng = normalize(g)
        assert len(ng.transitions) == 3
        assert all(t.output == Vec({"a": 1}) for t in ng.transitions)
        assert lang(ng, 5, 5) == {Vec({"a": 3})}

    def test_single_target_goes_to_the_last_link(self):
        g = parse_grammar("alphabet: a b\nstart: S\nS -> a^3 : T\nT -> b : S\nT -> :")
        assert serialize_grammar(normalize(g)) == (
            "alphabet: a b\nstart: S\nS -> a : S__1\nS__1 -> a : S__2\nS__2 -> a : T\n"
            "T -> b : S\nT -> :\n"
        )

    def test_at_most_one_target_normalizes_to_regular(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_grammar(rng, max_nonterminals=3, max_letters=3, regular=True)
            # widen some rules to outputs of 1-norm up to 6, keeping <= 1 target
            rules = []
            for t in g.transitions:
                out = t.output
                if rng.random() < 0.5:
                    out = Vec({a: rng.randint(-2, 3) for a in g.alphabet})
                rules.append((t.source, out, t.targets))
            g = grammar_from_rules(g.alphabet, g.start, rules)
            ng = normalize(g)
            assert classify(ng)["regular"]
            assert lang(g, 5, 3) <= lang(ng, 30, 3)
            assert lang(ng, 5, 3) <= lang(g, 30, 3)

    def test_preserves_language_randomly(self):
        # two-sided window check: each side's depth-limited language sits
        # inside the other's at a generous depth
        rng = random.Random(21)
        for _ in range(30):
            g = random_grammar(rng, max_nonterminals=3, max_letters=2)
            # make it need normalization: widen one rule
            rules = [(t.source, t.output, t.targets) for t in g.transitions]
            src = rng.choice(g.nonterminals)
            rules.append((src, Vec({g.alphabet[0]: 2}), Vec.unit(rng.choice(g.nonterminals)) * 2))
            from parikh import grammar_from_rules

            g = grammar_from_rules(g.alphabet, g.start, rules)
            ng = normalize(g)
            assert classify(ng)["normal_form"]
            assert lang(g, 6, 4) <= lang(ng, 24, 4)
            assert lang(ng, 6, 4) <= lang(g, 24, 4)


# S runs; U is unproductive (its one rule leads back to U) and V
# unreachable; W is reached through S -> : W
USELESS_TEXT = (
    "alphabet: a b\nstart: S\n"
    "S -> a : S\nS -> b : U\nS -> : W\nS -> :\nU -> a : U\nV -> b : S\nV -> :\nW -> a :"
)


class TestTrim:
    def test_drops_unproductive_and_unreachable_nonterminals(self):
        # W is productive, and reached only through U
        g = parse_grammar(
            "alphabet: a b\nstart: S\n"
            "S -> a : S\nS -> b : U\nS -> :\nU -> a : U\nU -> : U W\nV -> b : S\nV -> :\nW -> a :"
        )
        t = trim(g)
        assert t.nonterminals == ("S",) and t.start == "S" and t.alphabet == g.alphabet
        assert [r.tid for r in t.transitions] == ["t1", "t3"]

    def test_keeps_the_grammars_transition_objects(self):
        g = parse_grammar(USELESS_TEXT)
        t = trim(g)
        assert t.nonterminals == ("S", "W")
        assert [r.tid for r in t.transitions] == ["t1", "t3", "t4", "t8"]
        assert all(r is g.transition(r.tid) for r in t.transitions)
        assert trim(t) is t and g.trimmed is g.trimmed

    def test_returns_the_grammar_when_nothing_is_useless(self):
        for g in (ga(), gb(), parse_grammar("alphabet: a\nstart: S\nS -> a : S S\nS -> :")):
            assert trim(g) is g and g.trimmed is g

    def test_unproductive_start_keeps_the_start_alone(self):
        # every rule out of the start needs S or T, and neither has a run
        dead = parse_grammar("alphabet: a\nstart: S\nS -> a : S\nS -> : T U\nU -> :\nT -> : T")
        assert trim(dead) == parse_grammar("alphabet: a\nstart: S")
        assert trim(parse_grammar("alphabet: a\nstart: T\nS -> a : S\nT -> : S")) == (
            parse_grammar("alphabet: a\nstart: T")
        )

    def test_pickle_leaves_the_trimmed_grammar_behind(self):
        g = parse_grammar(USELESS_TEXT)
        assert g.trimmed.nonterminals == ("S", "W")
        copy = pickle.loads(pickle.dumps(g))
        assert "trimmed" not in copy.__dict__ and copy.trimmed == g.trimmed

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([None, "U", "Z"]), st.integers(0, 10),
           st.integers(0, 3))
    def test_the_oracle_finds_the_same_vectors(self, seed, start, depth, window):
        # every derivation from the start uses kept rules alone; pruning on
        # the trimmed grammar's letter signs drops nothing that completes,
        # and each of its states is one of g's, so an exhausted search on g
        # is exhausted on trim(g)
        g = random_grammar_with_dead_ends(random.Random(seed), start, max_nonterminals=3)
        t = trim(g)
        event(f"dropped {len(g.nonterminals) - len(t.nonterminals)} nonterminals")
        found, exhausted = membership.dense_oracle(g, depth, window)
        found_t, exhausted_t = membership.dense_oracle(t, depth, window)
        event(f"exhausted on g: {exhausted}, on trim(g): {exhausted_t}")
        assert found_t == found
        assert exhausted_t or not exhausted


class TestClassify:
    def test_ga_flags(self):
        assert classify(ga()) == {"regular": True, "normal_form": True, "positive": True}

    def test_negative_output(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a^-1 : S")
        assert not classify(g)["positive"]

    def test_branching(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> : S S")
        flags = classify(g)
        assert not flags["regular"] and flags["normal_form"]


class TestNegate:
    def test_single_production(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> a :")
        assert lang(negate_grammar(g), 3, 3) == {Vec({"a": -1})}

    def test_zero_outputs_unchanged(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> : S\nS -> :")
        assert negate_grammar(g) == g

    def test_gb_window(self):
        neg = negate_grammar(gb())
        assert {v.get("a") for v in lang(neg, 20, 8)} == {0, -2, -4, -6, -8}

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_grammar(rng)
            assert negate_grammar(negate_grammar(g)) == g


class TestDifference:
    def test_singleton_difference(self):
        g1 = parse_grammar("alphabet: a\nstart: S\nS -> a :")
        g2 = parse_grammar("alphabet: a\nstart: T\nT -> a :")
        d = difference_grammar(g1, g2)
        assert lang(d, 6, 3) == {Vec.zero()}

    def test_ga_minus_ga_is_all_integers(self):
        d = difference_grammar(ga(), ga())
        assert {v.get("a") for v in lang(d, 16, 6)} == set(range(-6, 7))

    def test_zero_minus_letter(self):
        g1 = parse_grammar("alphabet: b\nstart: S\nS -> :")
        g2 = parse_grammar("alphabet: b\nstart: T\nT -> b :")
        d = difference_grammar(g1, g2)
        assert lang(d, 6, 3) == {Vec({"b": -1})}

    def test_rejects_non_regular(self):
        g = parse_grammar("alphabet: a\nstart: S\nS -> : S S\nS -> :")
        with pytest.raises(GrammarError):
            difference_grammar(g, ga())
