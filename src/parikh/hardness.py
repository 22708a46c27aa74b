"""Instance generators for the hard grammar family and the classic
reductions, each paired with a small direct solver for cross-checks.

The staircase family produces grammars of linear size whose language
hulls have exponentially many vertices; the reduction generators turn
quantified/plain CNF formulas, unary residue encodings, and Hamiltonian
circuit questions into grammar problems (inclusion, universality,
membership).  Direct solvers work by exhaustive search and stay at toy
scale on purpose: they exist to validate the generators, not to compete
with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from .grammar import Grammar, grammar_from_rules, normalize
from .vector import Vec, is_name


# ---------------------------------------------------------------------------
# formulas and graphs


@dataclass(frozen=True)
class Literal:
    kind: str  # 'x' universal, 'y' existential
    index: int
    positive: bool = True

    def __post_init__(self):
        if self.kind not in ("x", "y"):
            raise ValueError("literal kind must be 'x' or 'y'")
        if self.index < 0:
            raise ValueError("literal index must be nonnegative")

    def __str__(self) -> str:
        sign = "" if self.positive else "-"
        return f"{sign}{self.kind}{self.index}"


@dataclass(frozen=True)
class CnfFormula:
    """Clauses of at most three literals over universally quantified x_i
    and existentially quantified y_i variables."""

    num_universal: int
    num_existential: int
    clauses: tuple[tuple[Literal, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not 0 < len(clause) <= 3:
                raise ValueError("clauses must have one to three literals")
            for lit in clause:
                limit = self.num_universal if lit.kind == "x" else self.num_existential
                if lit.index >= limit:
                    raise ValueError(f"literal {lit} out of range")


def parse_formula(text: str) -> CnfFormula:
    """One clause per line of tokens like ``x0 -y1 y2``; ``c`` comments.

    Variable counts are inferred from the largest index used, or pinned
    with a header line ``p qcnf <universals> <existentials>``.
    """
    clauses = []
    num_x = num_y = 0
    declared = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "qcnf":
                raise ValueError(f"bad header {line!r}")
            declared = (int(parts[2]), int(parts[3]))
            continue
        lits = []
        for tok in line.split():
            body = tok[1:] if tok.startswith("-") else tok
            if not body or body[0] not in "xy" or not body[1:].isdigit():
                raise ValueError(f"bad literal {tok!r}")
            lits.append(Literal(body[0], int(body[1:]), not tok.startswith("-")))
            if body[0] == "x":
                num_x = max(num_x, int(body[1:]) + 1)
            else:
                num_y = max(num_y, int(body[1:]) + 1)
        clauses.append(tuple(lits))
    if declared is not None:
        num_x, num_y = declared
    return CnfFormula(num_x, num_y, tuple(clauses))


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    directed: bool = False

    def __post_init__(self):
        vs = set(self.vertices)
        for u, w in self.edges:
            if u not in vs or w not in vs:
                raise ValueError(f"edge ({u}, {w}) uses an undeclared vertex")

    def successors(self, u: str) -> set[str]:
        out = {w for a, w in self.edges if a == u}
        if not self.directed:
            out |= {a for a, w in self.edges if w == u}
        return out


def parse_graph(text: str) -> Graph:
    """Edge list, one ``u v`` pair per line; optional ``vertices:`` and
    ``directed`` lines; ``#`` comments."""
    edges = []
    vertices: set[str] = set()
    directed = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "directed":
            directed = True
            continue
        if line.startswith("vertices:"):
            vertices.update(line[len("vertices:"):].split())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        edges.append((parts[0], parts[1]))
        vertices.update(parts)
    for v in vertices:
        if not is_name(v):
            raise ValueError(f"vertex name {v!r} is not identifier-shaped")
    return Graph(tuple(sorted(vertices)), tuple(edges), directed)


# ---------------------------------------------------------------------------
# direct solvers (exhaustive, toy scale)


def _clause_holds(clause: Sequence[Literal], xs: Sequence[bool], ys: Sequence[bool]) -> bool:
    for lit in clause:
        value = xs[lit.index] if lit.kind == "x" else ys[lit.index]
        if value == lit.positive:
            return True
    return False


def qbf2_holds(f: CnfFormula) -> bool:
    """Evaluate: for all x assignments there are y values satisfying all
    clauses."""
    k, l = f.num_universal, f.num_existential
    for xbits in range(1 << k):
        xs = [bool(xbits >> i & 1) for i in range(k)]
        if not any(
            all(_clause_holds(c, xs, [bool(ybits >> i & 1) for i in range(l)]) for c in f.clauses)
            for ybits in range(1 << l)
        ):
            return False
    return True


def sat_satisfiable(f: CnfFormula) -> bool:
    """Plain satisfiability for an existential-only formula."""
    if f.num_universal:
        raise ValueError("satisfiability check expects no universal variables")
    return qbf2_holds(f)


def hamiltonian_circuit_exists(graph: Graph, start: str) -> bool:
    """Exhaustive search for a circuit through every vertex exactly once."""
    if start not in graph.vertices:
        raise ValueError(f"unknown start vertex {start!r}")
    others = [v for v in graph.vertices if v != start]
    for order in permutations(others):
        tour = (start, *order, start)
        if all(tour[i + 1] in graph.successors(tour[i]) for i in range(len(tour) - 1)):
            return True
    return False


# ---------------------------------------------------------------------------
# staircase family: hulls with exponentially many vertices


def hard_grammar(n: int, variant: str = "full") -> Grammar:
    """Level-n staircase grammar.

    `full` keeps the two bookkeeping terminals of the inductive
    construction; `stripped` erases them, leaving the two-letter language
    whose hull is a polygon with 2**n vertices; `cone` adds a counting
    letter z and a new start looping the stripped grammar, so the
    language becomes an infinite cone with 2**n edge directions.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if variant not in ("full", "stripped", "cone"):
        raise ValueError(f"unknown variant {variant!r}")
    aux_s = f"S{n + 1}"
    aux_a = f"A{n}"
    terminals = {"x", "y", aux_s, aux_a}

    def rhs(symbols: Iterable[str]) -> tuple[Vec, Vec]:
        out: dict[str, int] = {}
        tgt: dict[str, int] = {}
        for s in symbols:
            bucket = out if s in terminals else tgt
            bucket[s] = bucket.get(s, 0) + 1
        return Vec(out), Vec(tgt)

    rules: list[tuple[str, Vec, Vec]] = []
    rules.append(("S0", *rhs(["S1", "A0"])))
    rules.append(("X0", *rhs(["x"])))
    for i in range(n):
        rules.append((f"X{i + 1}", *rhs([f"X{i}", f"X{i}"])))
        rules.append((f"A{i}", *rhs([f"A{i + 1}", f"A{i + 1}"])))
        rules.append((f"A{i}", *rhs([f"S{i + 2}", f"S{i + 2}", f"X{i}", "y"])))
        rules.append((f"S{i + 1}", *rhs([f"A{i + 1}", f"S{i + 2}"])))
    alphabet = ["x", "y", aux_s, aux_a]
    g = grammar_from_rules(alphabet, "S0", rules)
    if variant == "full":
        return g
    stripped_rules = [
        (t.source, t.output.restrict(["x", "y"]), t.targets) for t in g.transitions
    ]
    if variant == "stripped":
        return grammar_from_rules(["x", "y"], "S0", stripped_rules)
    cone_rules = [
        ("Scone", Vec.unit("z"), Vec({"S0": 1, "Scone": 1})),
        ("Scone", Vec.zero(), Vec.zero()),
    ] + stripped_rules
    return grammar_from_rules(["x", "y", "z"], "Scone", cone_rules)


def convex_hull(points: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Vertices of the convex hull, counterclockwise from the lexicographic
    minimum; collinear non-corner points are excluded.  Exact integer
    arithmetic (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# quantified CNF reductions over the unary alphabet {a}


def _product_rule(symbols: Sequence[str]) -> Vec:
    return Vec((s, 1) for s in symbols)


def _qsat_rules(f: CnfFormula) -> list[tuple[str, Vec, Vec]]:
    """Shared symbol definitions for the quantified-CNF encodings.

    Value bookkeeping: Ai derives a^(2^i), Cj derives a^(2^k * 4^j); the
    optional variants derive the same or nothing.
    """
    k, m = f.num_universal, len(f.clauses)
    rules: list[tuple[str, Vec, Vec]] = []
    a = Vec.unit("a")
    zero = Vec.zero()
    for i in range(k):
        if i == 0:
            rules.append((f"A{i}", a, zero))
        else:
            rules.append((f"A{i}", zero, _product_rule([f"A{i - 1}", f"A{i - 1}"])))
        rules.append((f"A{i}q", zero, zero))
        rules.append((f"A{i}q", zero, Vec.unit(f"A{i}")))
    for j in range(m):
        if j == 0:
            if k == 0:
                rules.append((f"C{j}", a, zero))
            else:
                rules.append((f"C{j}", zero, _product_rule([f"A{k - 1}", f"A{k - 1}"])))
        else:
            rules.append((f"C{j}", zero, _product_rule([f"C{j - 1}"] * 4)))
        rules.append((f"C{j}q", zero, zero))
        rules.append((f"C{j}q", zero, Vec.unit(f"C{j}")))
    return rules


def _clause_cover(f: CnfFormula, kind: str, index: int, positive: bool) -> list[str]:
    return [
        f"C{j}q"
        for j, clause in enumerate(f.clauses)
        if any(lit.kind == kind and lit.index == index and lit.positive == positive for lit in clause)
    ]


def _assignment_rules(f: CnfFormula) -> list[tuple[str, Vec, Vec]]:
    """S2 picks one truth value per variable (X_i universal, Y_i
    existential); each value covers the clauses it satisfies, and a true
    universal also emits its A_i value."""
    zero = Vec.zero()
    rules: list[tuple[str, Vec, Vec]] = []
    for i in range(f.num_universal):
        rules.append((f"X{i}", zero, _product_rule([f"A{i}"] + _clause_cover(f, "x", i, True))))
        rules.append((f"X{i}", zero, _product_rule(_clause_cover(f, "x", i, False))))
    for i in range(f.num_existential):
        rules.append((f"Y{i}", zero, _product_rule(_clause_cover(f, "y", i, True))))
        rules.append((f"Y{i}", zero, _product_rule(_clause_cover(f, "y", i, False))))
    picks = [f"X{i}" for i in range(f.num_universal)] + [f"Y{i}" for i in range(f.num_existential)]
    rules.append(("S2", zero, _product_rule(picks)))
    return rules


def _trim(g: Grammar) -> Grammar:
    """Restrict to the rules reachable from the start symbol."""
    reachable = {g.start}
    changed = True
    while changed:
        changed = False
        for t in g.transitions:
            if t.source in reachable:
                for q in t.targets.support():
                    if q not in reachable:
                        reachable.add(q)
                        changed = True
    rules = [
        (t.source, t.output, t.targets) for t in g.transitions if t.source in reachable
    ]
    return grammar_from_rules(g.alphabet, g.start, rules)


def qsat_inclusion_instance(f: CnfFormula) -> tuple[Grammar, Grammar]:
    """Two unary grammars whose language inclusion encodes the formula.

    The left grammar derives one value per assignment of the universal
    variables (plus all mandatory clause values); the right grammar can
    match a value exactly when the existential variables can cover the
    clauses consistently, so left <= right iff the quantified formula
    holds.  Both grammars are returned in normal form.
    """
    k, m = f.num_universal, len(f.clauses)
    shared = _qsat_rules(f)
    s1 = _product_rule([f"A{i}q" for i in range(k)] + [f"C{j}" for j in range(m)])
    g1 = _trim(normalize(grammar_from_rules(["a"], "S1", shared + [("S1", Vec.zero(), s1)])))
    g2 = _trim(normalize(grammar_from_rules(["a"], "S2", shared + _assignment_rules(f))))
    return g1, g2


def qsat_universality_instance(f: CnfFormula) -> Grammar:
    """A unary grammar universal over the integers iff the formula holds.

    Extends the inclusion encoding with a complement part: all negative
    values, all values past the largest relevant one, and all in-range
    values whose positional clause digits deviate somewhere from the
    all-ones pattern.  Each complement branch fixes one witness digit to
    {0, 2, 3} copies and leaves every other digit free in [0..3]; in the
    unique mixed-radix reading of in-range values this generates exactly
    the non-members of the left language, so the union with the
    assignment grammar is universal iff every left value is matched.
    """
    k, m = f.num_universal, len(f.clauses)
    zero = Vec.zero()
    a = Vec.unit("a")
    rules = _qsat_rules(f) + _assignment_rules(f)
    for j in range(m):
        # witness digit: anything but exactly one copy
        rules.append((f"C{j}h", zero, zero))
        rules.append((f"C{j}h", zero, _product_rule([f"C{j}", f"C{j}"])))
        rules.append((f"C{j}h", zero, _product_rule([f"C{j}", f"C{j}", f"C{j}"])))
        # free digit: zero to three copies
        for copies in range(4):
            rules.append((f"C{j}f", zero, _product_rule([f"C{j}"] * copies)))
    # minimum excess value: one more than every in-range digit pattern
    if m >= 1:
        rules.append(("Zp", zero, _product_rule([f"C{m - 1}"] * 4)))
    elif k >= 1:
        rules.append(("Zp", zero, _product_rule([f"A{k - 1}", f"A{k - 1}"])))
    else:
        rules.append(("Zp", a, zero))
    rules.append(("Zp", a, Vec.unit("Zp")))
    rules.append(("Zm", -a, zero))
    rules.append(("Zm", -a, Vec.unit("Zm")))
    rules.append(("S3", zero, Vec.unit("Zp")))
    rules.append(("S3", zero, Vec.unit("Zm")))
    for j in range(m):
        branch = [f"A{i}q" for i in range(k)]
        branch += [f"C{j2}f" for j2 in range(m) if j2 != j]
        branch.append(f"C{j}h")
        rules.append(("S3", zero, _product_rule(branch)))
    rules.append(("S4", zero, Vec.unit("S2")))
    rules.append(("S4", zero, Vec.unit("S3")))
    return _trim(normalize(grammar_from_rules(["a"], "S4", rules)))


def sat_membership_instance(f: CnfFormula) -> tuple[Grammar, Vec]:
    """Membership instance for an existential-only formula: the target
    value is derivable iff the formula is satisfiable."""
    if f.num_universal:
        raise ValueError("membership encoding expects no universal variables")
    _g1, g2 = qsat_inclusion_instance(f)
    value = sum(4**j for j in range(len(f.clauses)))
    return g2, Vec.unit("a", value) if value else Vec.zero()


def unary_sat_universality_instance(f: CnfFormula, primes: Sequence[int]) -> Grammar:
    """Regular unary grammar universal over the naturals iff the formula
    is unsatisfiable.

    Variable i is read off a number as its residue mod primes[i]; for
    each clause a residue ring accepts exactly the numbers whose reading
    falsifies the clause, so some number escapes every ring iff some
    assignment satisfies every clause.
    """
    if f.num_universal:
        raise ValueError("unary encoding expects no universal variables")
    if len(primes) < f.num_existential:
        raise ValueError("need one prime per variable")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    zero = Vec.zero()
    a = Vec.unit("a")
    rules: list[tuple[str, Vec, Vec]] = []
    for ci, clause in enumerate(f.clauses):
        modulus = 1
        for lit in clause:
            modulus *= primes[lit.index]
        rules.append(("s0", zero, Vec.unit(f"K{ci}_0")))
        for j in range(modulus):
            rules.append((f"K{ci}_{j}", a, Vec.unit(f"K{ci}_{(j + 1) % modulus}")))
            satisfied = any(
                (j % primes[lit.index] == 1) == lit.positive for lit in clause
            )
            if not satisfied:
                rules.append((f"K{ci}_{j}", zero, zero))
    return grammar_from_rules(["a"], "s0", rules)


def hamiltonian_membership_instance(graph: Graph, start: str) -> tuple[Grammar, Vec]:
    """Regular grammar walking the graph and emitting each entered vertex;
    the all-ones vector is derivable iff a Hamiltonian circuit through
    `start` exists."""
    if not graph.vertices:
        raise ValueError("graph must have at least one vertex")
    if start not in graph.vertices:
        raise ValueError(f"unknown start vertex {start!r}")
    rules: list[tuple[str, Vec, Vec]] = []
    pairs = list(graph.edges)
    if not graph.directed:
        pairs += [(w, u) for u, w in graph.edges if (w, u) not in graph.edges]
    for u, w in sorted(set(pairs)):
        rules.append((f"q_{u}", Vec.unit(w), Vec.unit(f"q_{w}")))
    rules.append((f"q_{start}", Vec.zero(), Vec.zero()))
    g = grammar_from_rules(graph.vertices, f"q_{start}", rules)
    return g, Vec((v, 1) for v in graph.vertices)
