import random
from itertools import product

import pytest

from parikh import (
    LinearSet,
    SemilinearSet,
    SimpleBundle,
    Vec,
    linear_member,
    member_regular,
    regular_bundles,
    semilinear_member,
)
from parikh.membership import MEMBER
from helpers import enumerate_combinations, gb, random_bundle_parts


def vec2(x, y):
    return Vec({"a": x, "b": y})


class TestLinearMember:
    def test_independent_pair(self):
        ls = LinearSet(Vec.zero(), (vec2(1, 2), vec2(2, 1)))
        assert linear_member(ls, vec2(3, 3))
        assert not linear_member(ls, vec2(1, 0))

    def test_base_only(self):
        ls = LinearSet(vec2(4, -1), ())
        assert linear_member(ls, vec2(4, -1))
        assert not linear_member(ls, vec2(4, 0))

    def test_dependent_periods(self):
        # 2 and 3 generate every integer >= 2 over one letter
        ls = LinearSet(Vec.zero(), (Vec.unit("a", 2), Vec.unit("a", 3)))
        got = {k for k in range(0, 15) if linear_member(ls, Vec.unit("a", k))}
        assert got == {0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}

    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(61)
        agree = 0
        while agree < 300:
            k = rng.randint(1, 3)
            periods = [
                vec2(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)
            ]
            periods = [p for p in periods if not p.is_zero()]
            if not periods:
                continue
            base = vec2(rng.randint(-5, 5), rng.randint(-5, 5))
            ls = LinearSet(base, tuple(periods))
            if rng.random() < 0.5:
                coeffs = [rng.randint(0, 12) for _ in periods]
                v = base
                for c, p in zip(coeffs, periods):
                    v = v + p * c
                assert linear_member(ls, v)
            else:
                nonneg = [p for p in periods if p.nonneg()]
                if len(nonneg) != len(periods):
                    continue
                v = base + vec2(rng.randint(-8, 8), rng.randint(-8, 8))
                expected = v in enumerate_combinations(base, periods, 12)
                assert linear_member(ls, v) == expected
            agree += 1


class TestSemilinearMember:
    def test_union(self):
        s = SemilinearSet(
            (LinearSet(Vec.unit("a"), ()), LinearSet(Vec.unit("b"), ()))
        )
        assert semilinear_member(s, Vec.unit("b"))
        assert not semilinear_member(s, Vec.zero())

    def test_empty_union(self):
        assert not semilinear_member(SemilinearSet(()), Vec.zero())

    def test_agrees_with_membership_on_gb_bundles(self):
        result = regular_bundles(gb(), run_cap=34)
        s = SemilinearSet(
            tuple(
                LinearSet(w, b.periods) for b in result.bundles for w in b.bases
            )
        )
        v = Vec.unit("a", 6)
        assert semilinear_member(s, v)
        assert member_regular(gb(), v, bound=113).status == MEMBER


class TestSimpleBundle:
    def test_bounded_by(self):
        b = SimpleBundle((vec2(1, 0),), (vec2(0, 2),))
        assert b.bounded_by(1, 2)
        assert not b.bounded_by(0, 2)

    def test_member(self):
        b = SimpleBundle((Vec.zero(),), (Vec.unit("a", 2),))
        assert b.member(Vec.unit("a", 4))
        assert not b.member(Vec.unit("a", 3))

    def test_member_matches_linear_member_over_its_bases(self):
        # the d coordinate is outside every bundle, and a random bundle
        # often leaves out some of a, b, c as well
        rng = random.Random(331)
        seen = set()
        points = [Vec.from_tuple(t, "abcd") for t in product(range(-3, 4), range(-3, 4),
                                                               range(-2, 3), range(0, 2))]
        for _ in range(40):
            bases, periods = random_bundle_parts(rng)
            b = SimpleBundle(bases, periods)
            for v in points:
                want = any(linear_member(LinearSet(w, periods), v) for w in bases)
                assert b.member(v) == want
                if want:
                    seen.add("periods" if periods else "no periods")
        assert seen == {"periods", "no periods"}

    def test_dependent_periods_rejected(self):
        with pytest.raises(ValueError):
            SimpleBundle((Vec.zero(),), (vec2(1, 2), vec2(-2, -4)))
        with pytest.raises(ValueError):
            SimpleBundle((Vec.zero(),), (Vec.zero(),))
