import re
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parikh import MonomialError, Vec, format_monomial, parse_monomial
from parikh.vector import is_name

entries = st.dictionaries(st.sampled_from("abcxyz"), st.integers(-9, 9), max_size=4)


def test_zero_entries_dropped():
    assert Vec({"a": 0, "b": 2}) == Vec({"b": 2})
    assert Vec({"a": 1}) - Vec({"a": 1}) == Vec.zero()
    assert not Vec.zero()


def test_arithmetic_basics():
    v = Vec({"a": 2, "b": -1})
    w = Vec({"a": 1, "c": 3})
    assert (v + w).to_dict() == {"a": 3, "b": -1, "c": 3}
    assert (v - w).to_dict() == {"a": 1, "b": -1, "c": -3}
    assert (-v).to_dict() == {"a": -2, "b": 1}
    assert (v * 3).to_dict() == {"a": 6, "b": -3}
    assert v.norm1() == 3
    assert v.norm_inf() == 2


def test_componentwise_order():
    assert Vec({"a": 1}) <= Vec({"a": 2, "b": 1})
    assert not Vec({"a": 1, "c": 1}) <= Vec({"a": 2})
    assert Vec({"a": -2}) <= Vec.zero()


def test_monomial_round_trip_examples():
    assert parse_monomial("a^3 b^-2").to_dict() == {"a": 3, "b": -2}
    assert parse_monomial("") == Vec.zero()
    assert parse_monomial("1") == Vec.zero()
    assert parse_monomial("a a") == Vec({"a": 2})
    # factors of one symbol that cancel leave no entry
    assert parse_monomial("a a^-1") == Vec.zero()
    assert parse_monomial("b a^2 a^-2") == Vec({"b": 1})
    assert format_monomial(Vec.zero()) == "1"
    assert format_monomial(Vec({"a": 2, "b": -1}), ["b", "a"]) == "b^-1 a^2"


def test_monomial_errors():
    with pytest.raises(MonomialError):
        parse_monomial("a^x")
    with pytest.raises(MonomialError):
        parse_monomial("3a")


@given(entries, entries)
def test_addition_matches_dicts(d1, d2):
    v, w = Vec(d1), Vec(d2)
    expected = {s: d1.get(s, 0) + d2.get(s, 0) for s in set(d1) | set(d2)}
    assert (v + w).to_dict() == {s: c for s, c in expected.items() if c}


@given(entries)
def test_monomial_round_trip(d):
    v = Vec(d)
    assert parse_monomial(format_monomial(v)) == v


@given(entries)
def test_tuple_round_trip(d):
    v = Vec(d)
    order = sorted(set(d) | {"z"})
    assert Vec.from_tuple(v.to_tuple(order), order) == v.restrict(order)


def test_mapping_and_pair_inputs_agree():
    expected = Vec({"a": 2, "b": -1})
    assert Vec(Counter({"a": 2, "b": -1, "c": 0})) == expected
    assert Vec(MappingProxyType({"a": 2, "b": -1})) == expected
    assert Vec([("a", 1), ("b", -1), ("a", 1)]) == expected
    assert Vec((pair for pair in (("b", -1), ("a", 2)))) == expected
    assert Vec(expected) == expected  # a Vec iterates as its pairs
    assert Vec() == Vec(None) == Vec({}) == Vec.zero()


# the symbol-name pattern `is_name` once matched with
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
NAME_CORPUS = [
    "", "a", "Z", "_", "__", "a1", "A_9", "_0", "if", "None", "t12",
    "a\n", "\na", "1a", "9", "a b", " a", "a ", "a\t", "a-b", "a^2", "a.b", "$",
    "é", "aé", "ﬁ", "٣", "a٣", "x²", "µ", "\u212a", "ǅ", "\u0660", "a\u200b", "\x00",
]


def test_is_name_matches_the_identifier_pattern():
    for s in NAME_CORPUS:
        assert is_name(s) == bool(IDENTIFIER.match(s)), s


@given(st.text(alphabet=st.sampled_from("aZ_09 \n-éﬁ٣²\u212a"), max_size=4) | st.text(max_size=3))
def test_is_name_matches_the_identifier_pattern_on_random_text(s):
    assert is_name(s) == bool(IDENTIFIER.match(s))
