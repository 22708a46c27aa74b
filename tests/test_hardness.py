import pytest

from parikh import Vec, classify, oracle_language, serialize_grammar
from parikh.hardness import (
    CnfFormula,
    Graph,
    Literal,
    convex_hull,
    hamiltonian_circuit_exists,
    hamiltonian_membership_instance,
    hard_grammar,
    parse_formula,
    parse_graph,
    qbf2_holds,
    qsat_inclusion_instance,
    qsat_universality_instance,
    sat_membership_instance,
    sat_satisfiable,
    unary_sat_universality_instance,
)
from parikh.windows import compare_within_window, universality_within_window
from helpers import ref_oracle_language


def clause(*lits):
    return tuple(lits)


y0 = Literal("y", 0)
x0 = Literal("x", 0)


class TestFormulaModel:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            CnfFormula(0, 2, ((y0, y0, y0, Literal("y", 1)),))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            CnfFormula(0, 1, ((Literal("y", 3),),))

    def test_parse_formula(self):
        f = parse_formula("c comment\nx0 -y1 y0\n-x0\n")
        assert f.num_universal == 1 and f.num_existential == 2
        assert len(f.clauses) == 2
        assert f.clauses[1][0] == Literal("x", 0, False)

    @pytest.mark.parametrize("text, message", [
        ("x\u00b2\n", "bad literal 'x\u00b2'"),  # a digit that int() does not read
        ("p qcnf \u00b9 1\ny0\n", "bad header 'p qcnf \u00b9 1'"),
    ])
    def test_parse_formula_names_the_bad_token(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_formula(text)
        assert str(err.value).startswith(message)

    def test_qbf_eval(self):
        assert qbf2_holds(CnfFormula(0, 1, (clause(y0),)))
        assert not qbf2_holds(CnfFormula(1, 0, (clause(x0),)))
        assert qbf2_holds(CnfFormula(0, 0, ()))
        assert not sat_satisfiable(CnfFormula(0, 1, (clause(y0), clause(Literal("y", 0, False)))))


class TestHardFamily:
    def test_level_zero_rules(self):
        g = hard_grammar(0, "full")
        text = serialize_grammar(g)
        assert "S0 -> S1 A0 :" in text
        assert "X0 -> x :" in text
        assert len(g.transitions) == 2

    def test_linear_size(self):
        sizes = [len(hard_grammar(n, "full").transitions) for n in range(7)]
        deltas = {b - a for a, b in zip(sizes, sizes[1:])}
        assert deltas == {4}

    def test_stripped_hulls(self):
        for n in (0, 1, 2):
            g = hard_grammar(n, "stripped")
            lang = oracle_language(g, 90, 12)
            hull = set(convex_hull([(v.get("x"), v.get("y")) for v in lang]))
            expected = {(i * (i + 1) // 2, i) for i in range(2**n)}
            swapped = {(b, a) for a, b in expected}
            assert hull in (expected, swapped)
            assert len(hull) == 2**n

    def test_cone_counts_launches(self):
        g = hard_grammar(1, "cone")
        assert classify(g)["positive"]
        lang = oracle_language(g, 30, 4)
        assert all(v.get("z") >= 0 for v in lang)
        assert Vec.zero() in lang
        # one launch of the inner grammar per z
        one = {v for v in lang if v.get("z") == 1}
        inner = oracle_language(hard_grammar(1, "stripped"), 30, 4)
        assert {v - Vec.unit("z") for v in one} == inner


class TestQsatReductions:
    def test_inclusion_true_instance(self):
        f = CnfFormula(0, 1, (clause(y0),))
        g1, g2 = qsat_inclusion_instance(f)
        assert classify(g1)["normal_form"] and classify(g2)["normal_form"]
        res = compare_within_window(g1, g2, 2, "inclusion", engine="oracle", depth=24)
        assert (res.verdict is True) == qbf2_holds(f)

    def test_inclusion_false_instance(self):
        f = CnfFormula(1, 0, (clause(x0),))
        g1, g2 = qsat_inclusion_instance(f)
        res = compare_within_window(g1, g2, 4, "inclusion", engine="oracle", depth=40)
        assert res.verdict is False and qbf2_holds(f) is False
        assert res.witness == Vec.unit("a", 2)

    def test_inclusion_empty_formula(self):
        f = CnfFormula(0, 0, ())
        g1, g2 = qsat_inclusion_instance(f)
        assert oracle_language(g1, 8, 4) == frozenset({Vec.zero()})
        assert oracle_language(g2, 8, 4) == frozenset({Vec.zero()})

    def test_universality_instances(self):
        t = CnfFormula(0, 1, (clause(y0),))
        gu = qsat_universality_instance(t)
        assert not classify(gu)["positive"]
        res = universality_within_window(gu, 20, "integers", engine="oracle", depth=120)
        assert res.verdict is True
        f = CnfFormula(1, 0, (clause(x0),))
        gf = qsat_universality_instance(f)
        res = universality_within_window(gf, 20, "integers", engine="oracle", depth=120)
        assert res.verdict is False

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_universality_instance_without_clauses(self, k):
        # no clause to violate: the formula holds, and the instance is
        # universal over the integers on an exhausted window
        f = CnfFormula(k, 1, ())
        assert qbf2_holds(f)
        res = universality_within_window(qsat_universality_instance(f), 6, "integers",
                                         engine="oracle", depth=200)
        assert res.verdict is True
        assert res.notes == ("oracle with depth 200, window 6",)

    def test_universality_search_is_exhausted(self):
        # Zp raises the one letter and Zm lowers it, so no rule-level guard
        # applies; a form whose pending nonterminals reach only Zp (or only
        # Zm) moves it one way, and is dropped once past the window.  The
        # false verdict is definite only because the search is exhausted
        f = CnfFormula(1, 1, (clause(x0),))
        g = qsat_universality_instance(f)
        assert g.compiled.letter_sign == (None,)
        found = oracle_language(g, 108, 12)
        assert found.exhausted
        assert found == ref_oracle_language(g, 216, 12)
        res = universality_within_window(g, 12, "integers", engine="oracle", depth=108)
        assert res.verdict is qbf2_holds(f) is False
        assert res.witness == Vec.unit("a", 2)


class TestSatMembership:
    def test_single_clause(self):
        g, v = sat_membership_instance(CnfFormula(0, 1, (clause(y0),)))
        assert v == Vec.unit("a")
        assert v in oracle_language(g, 20, 6)

    def test_contradiction(self):
        f = CnfFormula(0, 1, (clause(y0), clause(Literal("y", 0, False))))
        g, v = sat_membership_instance(f)
        assert v == Vec.unit("a", 5)
        assert v not in oracle_language(g, 40, 8)

    def test_empty_formula(self):
        g, v = sat_membership_instance(CnfFormula(0, 0, ()))
        assert v == Vec.zero()
        assert v in oracle_language(g, 6, 2)


class TestUnarySat:
    def test_single_positive_clause(self):
        f = CnfFormula(0, 1, (clause(y0),))
        g = unary_sat_universality_instance(f, [2])
        assert classify(g)["regular"]
        assert {v.get("a") for v in oracle_language(g, 14, 10)} == set(range(0, 11, 2))

    def test_tautology_covers_naturals(self):
        f = CnfFormula(0, 1, (clause(y0), clause(Literal("y", 0, False))))
        g = unary_sat_universality_instance(f, [2])
        assert {v.get("a") for v in oracle_language(g, 16, 10)} == set(range(11))

    def test_two_variable_clause_residues(self):
        f = CnfFormula(0, 2, (clause(y0, Literal("y", 1)),))
        g = unary_sat_universality_instance(f, [2, 3])
        lang = {v.get("a") for v in oracle_language(g, 14, 5)}
        expected = {x for x in range(6) if not (x % 2 == 1 or x % 3 == 1)}
        assert lang == expected


    @pytest.mark.parametrize("primes", [[2, 4], [1, 3], [0, 3], [3, -2], [6, 10]])
    def test_moduli_must_be_coprime_and_at_least_two(self, primes):
        # y0 / -y0 y1 is satisfiable (y0 and y1 true), yet 1,3 would read
        # y0 false at every number and the grammar would be universal
        f = CnfFormula(0, 2, (clause(y0), clause(Literal("y", 0, False), Literal("y", 1))))
        with pytest.raises(ValueError, match="moduli must be"):
            unary_sat_universality_instance(f, primes)


class TestHamiltonian:
    def test_graph_parsing(self):
        g = parse_graph("# sample\nvertices: u v w\nu v\nv w\n")
        assert g.vertices == ("u", "v", "w") and len(g.edges) == 2

    def test_triangle(self):
        tri = Graph(("u", "v", "w"), (("u", "v"), ("v", "w"), ("w", "u")))
        g, v = hamiltonian_membership_instance(tri, "u")
        assert classify(g)["regular"]
        assert (v in oracle_language(g, 4, 1)) == hamiltonian_circuit_exists(tri, "u")

    def test_path_has_no_circuit(self):
        path = Graph(("u", "v", "w"), (("u", "v"), ("v", "w")))
        g, v = hamiltonian_membership_instance(path, "u")
        assert v not in oracle_language(g, 4, 1)
        assert not hamiltonian_circuit_exists(path, "u")

    def test_single_vertex(self):
        single = Graph(("u",), ())
        g, v = hamiltonian_membership_instance(single, "u")
        assert v not in oracle_language(g, 3, 1)
        assert not hamiltonian_circuit_exists(single, "u")

    def test_directed(self):
        cyc = Graph(("u", "v"), (("u", "v"),), directed=True)
        g, v = hamiltonian_membership_instance(cyc, "u")
        assert v not in oracle_language(g, 3, 1)
        both = Graph(("u", "v"), (("u", "v"), ("v", "u")), directed=True)
        g2, v2 = hamiltonian_membership_instance(both, "u")
        assert v2 in oracle_language(g2, 3, 1)


class TestConvexHull:
    def test_square_with_interior(self):
        pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0), (2, 1)]
        assert set(convex_hull(pts)) == {(0, 0), (2, 0), (2, 2), (0, 2)}

    def test_collinear(self):
        assert set(convex_hull([(0, 0), (1, 1), (2, 2)])) == {(0, 0), (2, 2)}

    def test_degenerate(self):
        assert convex_hull([(3, 4)]) == [(3, 4)]
        assert convex_hull([]) == []
