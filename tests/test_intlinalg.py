import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parikh import (
    CosetIndex,
    PeriodLattice,
    Vec,
    cramer_solve,
    determinant,
    find_integer_dependency,
    hadamard_bound,
    is_linearly_independent,
    maximal_independent_subsets,
    nonneg_integer_solve,
    reduce_multiplicities,
)
from parikh.intlinalg import _pareto_min
from helpers import (
    cofactor_determinant,
    naive_rank,
    ref_maximal_independent_subsets,
    ref_nonneg_integer_solve,
)


def vec2(x, y):
    return Vec({"a": x, "b": y})


def random_pool(rng, dim, size, c=2):
    """size dense vectors in Z^dim with entries in [-c..c], some of them
    zero and some k * z for an earlier z and k in 2..4."""
    pool = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.15:
            pool.append((0,) * dim)
        elif roll < 0.4 and pool:
            k = rng.randint(2, 4)
            pool.append(tuple(k * x for x in rng.choice(pool)))
        else:
            pool.append(tuple(rng.randint(-c, c) for _ in range(dim)))
    return pool


class TestDeterminant:
    def test_examples(self):
        assert determinant([[1, 0], [0, 1]]) == 1
        assert determinant([[2, 1], [1, 1]]) == cofactor_determinant([[2, 1], [1, 1]]) == 1
        assert determinant([[1, 2], [3, 4]]) == cofactor_determinant([[1, 2], [3, 4]]) == -2
        assert determinant([]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant([[1, 2]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_matches_cofactor_expansion(self, n, data):
        m = [
            [data.draw(st.integers(-9, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        assert determinant(m) == cofactor_determinant(m)


class TestHadamard:
    def test_examples(self):
        assert hadamard_bound(2, 3) == 18
        assert hadamard_bound(0, 5) == 1
        assert hadamard_bound(3, 2) == 48

    def test_bounds_determinants(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert abs(determinant(m)) <= hadamard_bound(n, 9)


class TestCramer:
    def test_identity(self):
        assert cramer_solve([[1, 0], [0, 1]], [5, 7]) == [5, 7]

    def test_diagonal_fractions(self):
        assert cramer_solve([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]

    def test_singular(self):
        assert cramer_solve([[1, 1], [2, 2]], [1, 2]) is None

    def test_substitution_property(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            b = [rng.randint(-6, 6) for _ in range(n)]
            x = cramer_solve(m, b)
            if x is None:
                assert determinant(m) == 0
                continue
            for row, rhs in zip(m, b):
                assert sum(c * xi for c, xi in zip(row, x)) == rhs

    def test_matches_cofactor_cramer(self):
        rng = random.Random(83)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                m[-1] = [2 * x for x in m[0]]  # singular
            b = [rng.randint(-6, 6) for _ in range(n)]
            det = cofactor_determinant(m)
            expected = None if det == 0 else [
                Fraction(cofactor_determinant([[b[i] if j == col else m[i][j] for j in range(n)]
                                               for i in range(n)]), det)
                for col in range(n)
            ]
            assert cramer_solve(m, b) == expected


class TestNonnegSolve:
    def test_diagonal(self):
        assert nonneg_integer_solve([vec2(2, 0), vec2(0, 3)], vec2(4, 6)) == [2, 2]

    def test_parity_obstruction(self):
        assert nonneg_integer_solve([vec2(2, 0), vec2(0, 3)], vec2(3, 0)) is None

    def test_two_by_two(self):
        assert nonneg_integer_solve([vec2(1, 2), vec2(2, 1)], vec2(3, 3)) == [1, 1]

    def test_negative_coefficient_rejected(self):
        assert nonneg_integer_solve([vec2(1, 0), vec2(0, 1)], vec2(-1, 2)) is None

    def test_dependent_rejected(self):
        with pytest.raises(ValueError):
            nonneg_integer_solve([vec2(1, 1), vec2(2, 2)], vec2(3, 3))


class TestIndependence:
    def test_examples(self):
        assert is_linearly_independent([vec2(1, 0), vec2(0, 1)])
        assert not is_linearly_independent([vec2(1, 1), vec2(2, 2)])
        assert is_linearly_independent([])

    def test_matches_naive_rank(self):
        rng = random.Random(13)
        for _ in range(300):
            dim = rng.randint(1, 4)
            vs = [Vec.from_tuple(z, "abcd"[:dim])
                  for z in random_pool(rng, dim, rng.randint(0, 5), 3)]
            assert is_linearly_independent(vs) == (naive_rank(vs) == len(vs))


def check_dependency(vectors, alpha, entry_bound):
    total = Vec.zero()
    for v, a in zip(vectors, alpha):
        total = total + v * a
    assert total.is_zero()
    assert any(a > 0 for a in alpha)
    dims = {s for v in vectors for s in v.support()}
    assert max(abs(a) for a in alpha) <= hadamard_bound(len(dims), max(entry_bound, 1))


class TestIntegerDependency:
    def test_triangle(self):
        vs = [vec2(1, 0), vec2(0, 1), vec2(1, 1)]
        check_dependency(vs, find_integer_dependency(vs), 1)

    def test_scalar_multiple(self):
        vs = [vec2(1, 1), vec2(2, 2)]
        alpha = find_integer_dependency(vs)
        check_dependency(vs, alpha, 2)
        assert alpha[0] * 1 + alpha[1] * 2 == 0

    def test_opposite(self):
        vs = [vec2(1, 0), vec2(-1, 0)]
        alpha = find_integer_dependency(vs)
        check_dependency(vs, alpha, 1)
        assert alpha == [1, 1]

    def test_independent_rejected(self):
        with pytest.raises(ValueError):
            find_integer_dependency([vec2(1, 0), vec2(0, 1)])

    def test_random_dependent_sets(self):
        rng = random.Random(17)
        for _ in range(120):
            vs = [vec2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)]
            if is_linearly_independent(vs):
                continue
            check_dependency(vs, find_integer_dependency(vs), 4)

    def test_matches_determinant_definition(self):
        rng = random.Random(89)
        checked = 0
        while checked < 300:
            dim = rng.randint(1, 4)
            vs = [Vec.from_tuple(z, "abcd"[:dim])
                  for z in random_pool(rng, dim, rng.randint(1, 5), 3)]
            if naive_rank(vs) == len(vs):
                continue
            assert find_integer_dependency(vs) == ref_integer_dependency(vs)
            checked += 1


def ref_integer_dependency(vectors):
    """The documented dependency, from its definition: on the first minimal
    dependent subset, u is its vector with the largest rational coefficient
    (the first on ties) and B is the rest extended to a basis by unit
    vectors; alpha[u] = det B and alpha[j] = -det(B with u in j's column),
    with the first nonzero entry made positive."""
    symbols = sorted({s for v in vectors for s in v.support()})
    dep = next(i for i in range(len(vectors)) if naive_rank(vectors[: i + 1]) == i)
    # coefficients of vectors[dep] over the independent prefix, by Cramer
    # on the first nonsingular square block of coordinates
    cols = [[p.get(s) for p in vectors[:dep]] for s in symbols]
    rows = next(
        idx for idx in combinations(range(len(symbols)), dep)
        if cofactor_determinant([cols[r] for r in idx])
    )
    square = [cols[r] for r in rows]
    rhs = [vectors[dep].get(symbols[r]) for r in rows]
    det = cofactor_determinant(square)
    beta = {}
    for j in range(dep):
        replaced = [[rhs[i] if c == j else x for c, x in enumerate(row)]
                    for i, row in enumerate(square)]
        coeff = Fraction(cofactor_determinant(replaced), det)
        if coeff:
            beta[j] = coeff
    beta[dep] = Fraction(-1)
    alpha = [0] * len(vectors)
    if len(beta) == 1:
        alpha[dep] = 1
        return alpha
    u = max(beta, key=lambda j: abs(beta[j]))
    rest = [j for j in beta if j != u]
    basis = [vectors[j] for j in rest]
    for s in symbols:
        if len(basis) < len(symbols) and naive_rank(basis + [Vec.unit(s)]) > len(basis):
            basis.append(Vec.unit(s))

    def det_of(columns):
        return cofactor_determinant([[c.get(s) for c in columns] for s in symbols])

    alpha[u] = det_of(basis)
    for pos, j in enumerate(rest):
        alpha[j] = -det_of(basis[:pos] + [vectors[u]] + basis[pos + 1:])
    if next(a for a in alpha if a) < 0:
        alpha = [-a for a in alpha]
    return alpha


def check_reduction(vectors, counts, new_counts, kept, entry_bound):
    before = Vec.zero()
    after = Vec.zero()
    for v, c in zip(vectors, counts):
        before = before + v * c
    for v, c in zip(vectors, new_counts):
        after = after + v * c
    assert before == after
    assert all(c >= 0 for c in new_counts)
    assert is_linearly_independent([vectors[i] for i in kept])
    dims = {s for v in vectors for s in v.support()}
    h = max(1, hadamard_bound(len(dims), entry_bound))
    for i, c in enumerate(new_counts):
        if i not in kept:
            assert c < h


class TestReduceMultiplicities:
    def test_triangle_instance(self):
        vs = [vec2(1, 0), vec2(0, 1), vec2(1, 1)]
        new_counts, kept = reduce_multiplicities(vs, [3, 3, 3], entry_bound=1)
        check_reduction(vs, [3, 3, 3], new_counts, kept, 1)
        assert [vs[i] for i in kept] == [vec2(1, 1)]
        assert new_counts == [0, 0, 6]

    def test_small_counts_unchanged(self):
        vs = [vec2(1, 0), vec2(0, 1), vec2(1, 1)]
        new_counts, kept = reduce_multiplicities(vs, [1, 1, 1], entry_bound=1)
        assert new_counts == [1, 1, 1]
        assert kept == ()

    def test_independent_input_unchanged(self):
        vs = [vec2(1, 0), vec2(0, 1)]
        new_counts, kept = reduce_multiplicities(vs, [9, 5], entry_bound=1)
        assert new_counts == [9, 5]
        assert set(kept) == {0, 1}

    def test_random_instances(self):
        rng = random.Random(19)
        for _ in range(150):
            k = rng.randint(1, 4)
            vs = [vec2(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(k)]
            counts = [rng.randint(0, 30) for _ in range(k)]
            new_counts, kept = reduce_multiplicities(vs, counts, entry_bound=3)
            check_reduction(vs, counts, new_counts, kept, 3)


def lattice_case(draw_int, dim, k, kind):
    """Periods z_1..z_k in [-5..5]^dim and a target: a free vector, an
    integer combination of the periods, or such a combination nudged by
    one unit (outside the span, or a fractional solution)."""
    zs = [tuple(draw_int(-5, 5) for _ in range(dim)) for _ in range(k)]
    if kind == "free":
        t = [draw_int(-6, 6) for _ in range(dim)]
    else:
        coeffs = [draw_int(-3, 3) for _ in zs]
        t = [sum(c * z[i] for c, z in zip(coeffs, zs)) for i in range(dim)]
        if kind == "nudged":
            t[draw_int(0, dim - 1)] += draw_int(-1, 1) or 1
    return zs, tuple(t)


def reference_solve(zs, t):
    symbols = "abcd"[: len(t)]
    sol = ref_nonneg_integer_solve(
        [Vec.from_tuple(z, symbols) for z in zs], Vec.from_tuple(t, symbols)
    )
    return None if sol is None else tuple(sol)


def independent(zs, dim):
    return naive_rank([Vec.from_tuple(z, "abcd"[:dim]) for z in zs]) == len(zs)


@pytest.mark.parametrize("call, message", [
    (lambda: hadamard_bound(-1, 0), "hadamard_bound needs n >= 0 and c >= 0"),
    (lambda: cramer_solve([[1, 0], [0, 1]], [1]), "dimension mismatch between matrix and vector"),
    (lambda: reduce_multiplicities([vec2(1, 0), vec2(0, 1)], [1]),
     "counts must be nonnegative and match vectors"),
])
def test_invalid_arguments_are_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestPeriodLattice:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 4), st.data(), st.sampled_from(["free", "combination", "nudged"]))
    def test_solve_agrees_with_reference_solve(self, dim, data, kind):
        k = data.draw(st.integers(0, dim))
        zs, t = lattice_case(lambda lo, hi: data.draw(st.integers(lo, hi)), dim, k, kind)
        assume(independent(zs, dim))
        assert PeriodLattice(zs, dim).solve(t) == reference_solve(zs, t)

    def test_seeded_cases_cover_every_branch(self):
        rng = random.Random(71)
        seen = set()
        for _ in range(3000):
            dim = rng.randint(1, 4)
            k = rng.randint(0, dim)
            kind = rng.choice(["free", "combination", "nudged"])
            zs, t = lattice_case(rng.randint, dim, k, kind)
            if not independent(zs, dim):
                continue
            lattice = PeriodLattice(zs, dim)
            got = lattice.solve(t)
            assert got == reference_solve(zs, t)
            scaled = lattice.scaled(t)
            if lattice.kernel:
                seen.add("kernel")
            if lattice.det > 1:
                seen.add("det>1")
            if any(lattice.functionals(t)):
                seen.add("outside span")
            elif any(c % lattice.det for c in scaled):
                seen.add("fractional")
            elif any(c < 0 for c in scaled):
                seen.add("negative")
            else:
                assert got is not None
                seen.add("solved" if k else "zero")
        assert seen == {"kernel", "det>1", "outside span", "fractional", "negative",
                        "solved", "zero"}

    def test_examples(self):
        lattice = PeriodLattice([(2, 0), (0, 3)], 2)
        assert lattice.det == 6 and lattice.kernel == []
        assert lattice.solve((4, 6)) == (2, 2)
        assert lattice.solve((3, 0)) is None  # fractional
        assert lattice.solve((-2, 0)) is None  # negative
        plane = PeriodLattice([(1, 1, 0)], 3)
        assert len(plane.kernel) == 2
        assert plane.solve((3, 3, 0)) == (3,)
        assert plane.solve((3, 3, 1)) is None  # outside the span
        assert PeriodLattice([], 2).solve((0, 0)) == ()
        assert PeriodLattice([], 2).solve((0, 1)) is None

    def test_dependent_periods_rejected(self):
        with pytest.raises(ValueError):
            PeriodLattice([(1, 1), (2, 2)], 2)

    def test_matches_cofactor_definitions(self):
        rng = random.Random(97)
        checked = 0
        while checked < 500:
            dim = rng.randint(1, 4)
            k = rng.randint(0, dim)
            zs = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(k)]
            if not independent(zs, dim):
                continue
            lattice = PeriodLattice(zs, dim)
            # rows: the first coordinates, greedily, keeping the periods independent
            rows = []
            for r in range(dim):
                block = [Vec.from_tuple([z[i] for z in zs], "abcd") for i in [*rows, r]]
                if len(rows) < k and naive_rank(block) > len(rows):
                    rows.append(r)
            assert lattice.rows == rows
            square = [[z[r] for z in zs] for r in rows]
            assert lattice.det == abs(cofactor_determinant(square)) > 0
            for i in range(k):
                for j in range(k):
                    assert sum(lattice.adj[i][m] * square[m][j] for m in range(k)) == (
                        lattice.det if i == j else 0
                    )
            free = [c for c in range(dim) if c not in rows]
            assert len(lattice.kernel) == len(free)
            for u, c in zip(lattice.kernel, free):
                assert math.gcd(*u) == 1
                assert all(sum(a * b for a, b in zip(u, z)) == 0 for z in zs)
                assert u[c] > 0 and all(u[f] == 0 for f in free if f != c)
            checked += 1


def reference_lookup(zs, bases, v):
    """(base, coefficients) with the lexicographically largest coefficient
    tuple over every base w with v - w an N-combination of zs, or None."""
    hits = []
    for w in bases:
        sol = reference_solve(zs, tuple(x - y for x, y in zip(v, w)))
        if sol is not None:
            hits.append((sol, w))
    if not hits:
        return None
    sol, w = max(hits)
    return w, sol


class TestCosetIndex:
    def test_lookup_and_box_points_match_brute_force(self):
        rng = random.Random(89)
        seen = set()
        checked = 0
        while checked < 60:
            dim = rng.randint(1, 3)
            k = rng.randint(0, dim) if checked % 3 else 0
            zs = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(k)]
            if not independent(zs, dim):
                continue
            checked += 1
            # bases reach past the box [-2..2]^dim on both sides
            bases = {tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(rng.randint(1, 6))}
            index = CosetIndex(PeriodLattice(zs, dim), bases)
            expected = set()
            for v in product(range(-2, 3), repeat=dim):
                want = reference_lookup(zs, bases, v)
                assert index.lookup(v) == want
                if want is not None:
                    expected.add(v)
                    seen.add("no periods" if not zs else "periods")
                    if any(abs(x) > 2 for x in want[0]):
                        seen.add("base outside the box")
            assert index.box_points(-2, 2, index.lattice.box_images(-2, 2)) == expected
            # a smaller box reads its own images
            inner = index.box_points(-1, 1, index.lattice.box_images(-1, 1))
            assert inner == {v for v in expected if min(v) >= -1 and max(v) <= 1}
            if index.det > 1:
                seen.add("det>1")
        assert seen == {"no periods", "periods", "base outside the box", "det>1"}

    def test_without_periods_every_base_is_its_own_class(self):
        index = CosetIndex(PeriodLattice([], 2), [(1, 2), (0, 0), (3, -1)])
        assert index.det == 1 and len(index.groups) == 3
        assert index.lookup((1, 2)) == ((1, 2), ())
        assert index.lookup((1, 1)) is None
        assert index.box_points(0, 2, index.lattice.box_images(0, 2)) == {(1, 2), (0, 0)}


def ref_pareto_min(entries):
    """The quadratic filter: in sorted order, keep each entry that no kept
    entry sits coordinatewise below."""
    out = []
    for coords, w in sorted(entries):
        if not any(all(b <= c for b, c in zip(kept, coords)) for kept, _w in out):
            out.append((coords, w))
    return out


class TestParetoMin:
    def test_matches_the_quadratic_filter(self):
        # exact duplicates, and equal coords carrying other payloads: the
        # least payload is kept, once
        rng = random.Random(97)
        for trial in range(400):
            k = 3 if trial % 4 else rng.choice((1, 2, 4))
            r = rng.randint(0, 5)
            entries = [
                (tuple(rng.randint(-r, r) for _ in range(k)), (rng.randint(0, 3),))
                for _ in range(rng.randint(1, 40))
            ]
            entries += rng.sample(entries, rng.randint(0, len(entries) // 2))
            entries += [(coords, (w[0] + rng.randint(1, 3),)) for coords, w in entries[:5]]
            rng.shuffle(entries)
            assert _pareto_min(entries) == ref_pareto_min(entries)

    def test_large_three_coordinate_antichains(self):
        # every point of the plane x + y + z = n is minimal; a few points
        # above it are not, and a second payload per point loses its tie
        rng = random.Random(101)
        for n in (12, 25, 40):
            plane = [(x, y, n - x - y) for x in range(n + 1) for y in range(n + 1 - x)]
            entries = [(c, (0,)) for c in plane] + [(c, (1,)) for c in rng.sample(plane, n)]
            entries += [(tuple(a + rng.randint(0, 2) for a in c), (2,)) for c in rng.sample(plane, n)]
            rng.shuffle(entries)
            got = _pareto_min(entries)
            assert got == ref_pareto_min(entries)
            assert got == [(c, (0,)) for c in sorted(plane)]


class TestMaximalIndependentSubsets:
    def test_matches_fresh_rank_enumeration(self):
        rng = random.Random(73)
        for _ in range(300):
            dim = rng.randint(1, 4)
            pool = random_pool(rng, dim, rng.randint(0, 6))
            pool += rng.sample(pool, min(len(pool), rng.randint(0, 2)))  # duplicates
            vecs = [Vec.from_tuple(z, "abcd"[:dim]) for z in pool]
            assert maximal_independent_subsets(pool) == ref_maximal_independent_subsets(vecs)

    def test_sorted_distinct_pool_keeps_vector_order(self):
        rng = random.Random(79)
        for _ in range(200):
            dim = rng.randint(1, 3)
            pool = sorted({tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(6)})
            picked = [tuple(pool[i] for i in idx) for idx in maximal_independent_subsets(pool)]
            assert picked == sorted(picked)

    def test_all_zero_pool(self):
        assert maximal_independent_subsets([]) == [()]
        assert maximal_independent_subsets([(0, 0), (0, 0)]) == [()]
        assert maximal_independent_subsets([(1, 0), (2, 0), (0, 1)]) == [(0, 2), (1, 2)]
