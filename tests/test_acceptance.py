"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Counts, windows, and runtime budgets are pinned here; every expected
value is produced by an independent oracle (brute-force enumeration,
cofactor expansion, exhaustive solvers) computed inside the test.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations

from parikh import (
    GeneralMembership,
    RegularMembership,
    Vec,
    base_run_bound,
    compare_within_window,
    decompose_run,
    enumerate_runs,
    hadamard_bound,
    is_run,
    is_simple_cycle,
    is_skeleton_run,
    is_subrun,
    linear_member,
    oracle_language,
    order_subrun,
    parse_grammar,
    reduce_multiplicities,
    subrun_to_tree,
    tree_size_bound,
    tree_to_multiset,
    universality_within_window,
    validate_decomposition,
)
from parikh.hardness import (
    CnfFormula,
    Graph,
    Literal,
    convex_hull,
    hamiltonian_circuit_exists,
    hamiltonian_membership_instance,
    hard_grammar,
    qbf2_holds,
    qsat_inclusion_instance,
    qsat_universality_instance,
    sat_membership_instance,
    sat_satisfiable,
    unary_sat_universality_instance,
)
from parikh.intlinalg import cramer_solve, determinant, is_linearly_independent
from parikh.membership import MEMBER
from parikh.semilinear import LinearSet
from helpers import (
    cofactor_determinant,
    enumerate_combinations,
    random_grammar,
    random_marking,
    random_run,
    simulate_subrun,
    with_unreachable_cycle,
    zero_in_difference,
)


@contextmanager
def criterion(number: int, name: str, budget: float | None):
    start = time.time()
    try:
        yield
        elapsed = time.time() - start
        if budget is not None:
            assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")


def simulate(g, seq, src):
    marking = src
    for tid in seq:
        t = g.transition(tid)
        marking = marking - Vec.unit(t.source)
        assert marking.nonneg(), "firing consumed a missing nonterminal"
        marking = marking + t.targets
    return marking


def test_01_euler_ordering():
    with criterion(1, "euler ordering", 30.0):
        rng = random.Random(1001)
        valid = 0
        while valid < 500:
            g = random_grammar(rng, max_nonterminals=5, max_letters=2)
            src = random_marking(rng, g)
            ms, dst = simulate_subrun(rng, g, src, rng.randint(1, 12))
            if ms.is_zero():
                continue
            assert is_subrun(ms, src, dst)
            seq = order_subrun(ms, src, dst)
            counts: dict[str, int] = {}
            for tid in seq:
                counts[tid] = counts.get(tid, 0) + 1
            assert Vec(counts) == ms.counts, "ordering must consume the exact multiset"
            assert simulate(g, seq, src) == dst
            valid += 1

        euler_bad = 0
        while euler_bad < 250:
            g = random_grammar(rng, max_nonterminals=5, max_letters=2)
            src = random_marking(rng, g)
            ms, dst = simulate_subrun(rng, g, src, rng.randint(1, 8))
            broken = None
            for t in g.transitions:
                cand = ms.counts + Vec.unit(t.tid)
                bumped = type(ms)(g, cand)
                if bumped.source() - src != bumped.target() - dst:
                    broken = bumped
                    break
            if broken is None:
                continue
            chk = is_subrun(broken, src, dst)
            assert not chk and chk.reason == "euler"
            euler_bad += 1

        conn_bad = 0
        while conn_bad < 250:
            g = random_grammar(rng, max_nonterminals=4, max_letters=2)
            g2, cycle_counts = with_unreachable_cycle(g)
            src = random_marking(rng, g)
            ms, dst = simulate_subrun(rng, g2, src, rng.randint(0, 6))
            counts = ms.counts + Vec(cycle_counts)
            chk = is_subrun(type(ms)(g2, counts), src, dst)
            assert not chk and chk.reason == "connectivity"
            conn_bad += 1


def test_02_derivation_round_trip():
    with criterion(2, "derivation tree round trip", 10.0):
        rng = random.Random(1002)
        done = runs = cycles = 0
        while done < 200:
            g = random_grammar(rng, max_nonterminals=4, max_letters=2)
            p = rng.choice(g.nonterminals)
            ms, dst = simulate_subrun(rng, g, Vec.unit(p), rng.randint(1, 10))
            if ms.is_zero():
                continue
            tree = subrun_to_tree(ms, p, dst)
            assert tree_to_multiset(tree).counts == ms.counts
            assert tree.free_total() == dst
            for v in range(tree.size()):
                assert tree.free(v).nonneg()
            done += 1
            runs += dst.is_zero()
            cycles += dst == Vec.unit(p)
        assert runs >= 20 and cycles >= 5, "mix should include runs and cycles"


SIZE_BOUND_CORPUS = [
    # (grammar text, run enumeration cap)
    ("alphabet: a\nstart: S\nS -> a : S\nS -> :", 13),
    ("alphabet: a\nstart: S\nS -> a : T\nT -> a : S\nS -> :", 13),
    ("alphabet: a b\nstart: S\nS -> a : T\nT -> b : U\nU -> : S\nS -> :\nT -> a :", 14),
    ("alphabet: a b\nstart: S\nS -> a : S\nS -> b : T\nT -> b : T\nT -> :", 14),
    ("alphabet: a\nstart: S\nS -> a : S S\nS -> :", 11),
    ("alphabet: a\nstart: S\nS -> a : S T\nT -> :\nS -> :", 36),
    ("alphabet: a b\nstart: S\nS -> a^-1 : T\nT -> b : S\nS -> :", 13),
    ("alphabet: a\nstart: S\nS -> : S T\nT -> a : U\nU -> :\nS -> :", 16),
]


def test_03_size_bounds_exhaustive():
    with criterion(3, "simple cycle and skeleton size bounds", None):
        from helpers import brute_force_multisets
        from parikh import is_cycle

        for text, run_cap in SIZE_BOUND_CORPUS:
            g = parse_grammar(text)
            assert g.is_normal_form() and len(g.nonterminals) <= 3
            n = len(g.nonterminals)
            gamma = tree_size_bound(n, g.is_regular())
            cycle_probe = min(gamma + 2, 10)
            for q in g.nonterminals:
                for ms in brute_force_multisets(g, cycle_probe):
                    if is_cycle(ms, q) and is_simple_cycle(ms, q):
                        assert ms.size() < gamma, (text, q, ms.counts)
            skeleton_bound = tree_size_bound(n * n, g.is_regular())
            search = enumerate_runs(g, g.start, run_cap)
            for run in search.runs:
                if run.size() >= skeleton_bound:
                    assert not is_skeleton_run(run, g.start), (text, run.counts)


def test_04_decomposition_validity():
    with criterion(4, "run decomposition invariants", 60.0):
        rng = random.Random(1004)
        done = 0
        while done < 300:
            g = random_grammar(rng, max_nonterminals=4, max_letters=2)
            ms = random_run(rng, g, max_steps=14)
            if ms is None:
                continue
            dec = decompose_run(g, ms, g.start)
            validate_decomposition(dec, ms, g.start)
            assert dec.parikh() == ms.parikh()
            assert dec.base_run.size() <= base_run_bound(g).value
            done += 1


def test_05_regular_membership_vs_oracle():
    with criterion(5, "regular membership agrees with the oracle", 120.0):
        rng = random.Random(1005)
        done = 0
        while done < 50:
            g = random_grammar(rng, max_nonterminals=4, max_letters=2, regular=True, neg_prob=0.1)
            lang = oracle_language(g, 14, 12)
            if lang != oracle_language(g, 28, 12) or lang != oracle_language(g, 56, 12):
                continue  # oracle not demonstrably exact on this window
            state = RegularMembership(g, min(base_run_bound(g).value, 200))
            assert state.box_members(-12, 12) == {v.to_tuple(g.alphabet) for v in lang}
            done += 1


def test_06_general_membership_soundness():
    with criterion(6, "general membership accepts are sound", None):
        rng = random.Random(1006)
        grammars = accepts = 0
        negative_grammars = 0
        while grammars < 100:
            g = random_grammar(rng, max_nonterminals=4, max_letters=2, neg_prob=0.25)
            state = GeneralMembership(g, run_cap=7, cycle_cap=5)
            probes = set(oracle_language(g, 9, 5))
            for _ in range(6):
                probes.add(
                    Vec(
                        (sym, rng.randint(-3, 3))
                        for sym in g.alphabet
                    )
                )
            for v in probes:
                res = state.result(v)
                if res.status == MEMBER:
                    total = res.witness.expand()
                    assert is_run(total, g.start), "witness must expand to a run"
                    assert total.parikh() == v, "witness vector mismatch"
                    accepts += 1
            grammars += 1
            negative_grammars += not g.is_positive()
        assert accepts >= 200, "need a meaningful number of accepts to audit"
        assert negative_grammars >= 10, "mix must include negative productions"


def test_07_linear_set_membership():
    with criterion(7, "linear set membership vs enumeration", 10.0):
        rng = random.Random(1007)
        done = 0
        while done < 1000:
            k = rng.randint(1, 3)
            periods = [
                Vec({"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)}) for _ in range(k)
            ]
            periods = [p for p in periods if not p.is_zero()]
            if not periods:
                continue
            base = Vec({"a": rng.randint(-5, 5), "b": rng.randint(-5, 5)})
            ls = LinearSet(base, tuple(periods))
            if rng.random() < 0.5:
                v = base
                for p in periods:
                    v = v + p * rng.randint(0, 12)
                assert linear_member(ls, v), "constructed member rejected"
            else:
                if not all(p.nonneg() for p in periods):
                    continue  # enumeration to 12 is only exhaustive here
                v = base + Vec({"a": rng.randint(-8, 8), "b": rng.randint(-8, 8)})
                expected = v in enumerate_combinations(base, periods, 12)
                assert linear_member(ls, v) == expected
            done += 1


def test_08_hard_family_hulls():
    with criterion(8, "hard family hull vertices", 30.0):
        for n in (0, 1, 2):
            g = hard_grammar(n, "stripped")
            lang = oracle_language(g, 90, 12)
            hull = set(convex_hull([(v.get("x"), v.get("y")) for v in lang]))
            expected = {(i * (i + 1) // 2, i) for i in range(2**n)}
            swapped = {(b, a) for a, b in expected}
            assert hull in (expected, swapped)
            assert len(hull) == 2**n


def _clause_pool(k: int, l: int, widths=(1, 2)):
    lits = [Literal("x", i, pos) for i in range(k) for pos in (True, False)]
    lits += [Literal("y", i, pos) for i in range(l) for pos in (True, False)]
    pool = []
    for w in widths:
        pool.extend(combinations(lits, w))
    return pool


def _formula_family(shapes, max_clauses, stride, with_width3=False):
    instances = []
    for k, l in shapes:
        pool = _clause_pool(k, l)
        if with_width3 and k + l >= 2:
            pool = pool + _clause_pool(k, l, widths=(3,))[:4]
        for m in range(1, max_clauses + 1):
            combos = list(combinations(pool, m))
            for i in range(0, len(combos), max(1, len(combos) // stride)):
                instances.append(CnfFormula(k, l, combos[i]))
    return instances


def test_09_reduction_cross_validation():
    with criterion(9, "reduction soundness vs direct solvers", 300.0):
        total = 0

        # quantified inclusion
        for f in _formula_family([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)], 2, 10):
            g1, g2 = qsat_inclusion_instance(f)
            k, m = f.num_universal, len(f.clauses)
            window = (2**k - 1) + 2**k * (4**m - 1) // 3 + 1
            res = compare_within_window(
                g1, g2, window, "inclusion", engine="oracle", depth=4 * window + 40
            )
            assert res.verdict is qbf2_holds(f), f"inclusion mismatch on {f}"
            total += 1

        # existential membership
        for f in _formula_family([(0, 1), (0, 2), (0, 3)], 3, 8, with_width3=True):
            g, v = sat_membership_instance(f)
            window = sum(4**j for j in range(len(f.clauses))) + 1
            member = v in oracle_language(g, 4 * window + 40, window)
            assert member == sat_satisfiable(f), f"membership mismatch on {f}"
            total += 1

        # quantified universality over the integers
        for f in _formula_family([(0, 1), (1, 0), (1, 1), (0, 2)], 2, 5):
            k, m = f.num_universal, len(f.clauses)
            threshold = 2**k * 4**m
            if threshold > 32:
                continue
            g = qsat_universality_instance(f)
            window = threshold + 4
            res = universality_within_window(
                g, window, "integers", engine="oracle", depth=4 * window + 60
            )
            assert res.verdict is qbf2_holds(f), f"universality mismatch on {f}"
            total += 1

        # unary residue universality over the naturals
        primes = (2, 3, 5)
        for f in _formula_family([(0, 1), (0, 2), (0, 3)], 3, 7):
            g = unary_sat_universality_instance(f, primes[: f.num_existential])
            res = universality_within_window(
                g, 30, "naturals", engine="oracle", depth=64
            )
            assert res.verdict is (not sat_satisfiable(f)), f"unary mismatch on {f}"
            total += 1

        assert total >= 200, f"formula family too small: {total}"

        # Hamiltonian membership on every undirected graph with <= 5 vertices
        graphs = 0
        for n in range(1, 6):
            vertices = tuple(f"v{i}" for i in range(n))
            pairs = list(combinations(vertices, 2))
            for mask in range(1 << len(pairs)):
                edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
                graph = Graph(vertices, edges)
                g, target = hamiltonian_membership_instance(graph, "v0")
                member = target in oracle_language(g, n + 1, 1)
                assert member == hamiltonian_circuit_exists(graph, "v0")
                graphs += 1
        assert graphs == sum(2 ** (n * (n - 1) // 2) for n in range(1, 6))


def test_10_linear_algebra():
    with criterion(10, "exact linear algebra", 20.0):
        rng = random.Random(1010)
        for _ in range(500):
            n = rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = determinant(m)
            assert det == cofactor_determinant(m)
            assert abs(det) <= hadamard_bound(n, 9)

        # the determinant times any integer vector has an integer preimage
        done = 0
        while done < 200:
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            det = determinant(m)
            if det == 0:
                continue
            z = [rng.randint(-4, 4) for _ in range(n)]
            sol = cramer_solve(m, [det * zi for zi in z])
            assert sol is not None
            assert all(x.denominator == 1 for x in sol)
            done += 1

        for _ in range(200):
            k = rng.randint(1, 4)
            vectors = [
                Vec({"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)}) for _ in range(k)
            ]
            counts = [rng.randint(0, 40) for _ in range(k)]
            reduced, kept = reduce_multiplicities(vectors, counts, entry_bound=3)
            before = Vec.zero()
            after = Vec.zero()
            for v, c in zip(vectors, counts):
                before = before + v * c
            for v, c in zip(vectors, reduced):
                after = after + v * c
            assert before == after and all(c >= 0 for c in reduced)
            assert is_linearly_independent([vectors[i] for i in kept])
            h = max(1, hadamard_bound(2, 3))
            assert all(c < h for i, c in enumerate(reduced) if i not in kept)


def test_11_disjointness_consistency():
    with criterion(11, "window disjointness vs difference grammar", None):
        rng = random.Random(1011)
        done = 0
        while done < 50:
            letters = rng.randint(1, 2)
            g1 = random_grammar(rng, max_nonterminals=3, regular=True, exact_letters=letters)
            g2 = random_grammar(rng, max_nonterminals=3, regular=True, exact_letters=letters)
            stable = all(
                oracle_language(g, 16, 16) == oracle_language(g, 32, 16)
                and oracle_language(g, 32, 16) == oracle_language(g, 64, 16)
                for g in (g1, g2)
            )
            if not stable:
                continue
            wide1 = oracle_language(g1, 16, 16)
            wide2 = oracle_language(g2, 16, 16)
            common_wide = wide1 & wide2
            in_box = {v for v in common_wide if v.norm_inf() <= 8}
            if common_wide and not in_box:
                continue  # intersection exists only outside the sweep window
            zero_in_diff = zero_in_difference(g1, g2)
            if zero_in_diff is None:
                continue  # neither an exact bound nor an exhausted oracle decides it
            sweep = compare_within_window(g1, g2, 8, "disjointness", engine="oracle", depth=16)
            assert sweep.verdict is (not zero_in_diff), (g1, g2)
            done += 1
