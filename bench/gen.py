"""Seeded instance generators for the three benchmark workloads.

One seed always yields the same instances, in the same order.  The
program under test receives only what these functions build: grammars,
grammar files and vectors.  Nothing here imports from the repository's
tests.

Grammar shapes come from a fixed library (`LIBRARY_SEED`); the run's
seed renames their nonterminals, shuffles the order of instance groups
and draws the cheap query vectors of `cli-cold`, whose reduction
families are fixed.  Deciding costs vary by a factor
of ten or more between random grammars of one shape class, so drawing
the shapes themselves from the seed would make a run's wall time depend
on the seed far more than on the program; a relabelled grammar is a
different input that costs about the same to decide.

An instance poses exactly one question.  `Instance.args` holds what the
executor in `workloads.py` needs; `Instance.files` maps file names to
the text the set-up step writes before the timed loop starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from parikh import Vec, grammar_from_rules, normalize, serialize_grammar
from parikh import hardness
from parikh.runs import TransitionMultiset

LETTERS = ("a", "b", "c")
LIBRARY_SEED = 1501_04245


@dataclass
class Instance:
    id: str
    kind: str
    args: dict
    files: dict = field(default_factory=dict)


def monomial(values, alphabet) -> str:
    """Monomial text for a dense vector, e.g. (3, 0, -1) -> 'a^3 c^-1'."""
    parts = [s if c == 1 else f"{s}^{c}" for s, c in zip(alphabet, values) if c]
    return " ".join(parts) or "1"


# ---------------------------------------------------------------------------
# random regular grammars with slow table growth


def _emission(rng: random.Random, letters) -> Vec:
    return Vec.zero() if rng.random() < 0.3 else Vec.unit(rng.choice(letters))


def _regular_rules(rng: random.Random, n: int, letters) -> list:
    nts = [f"Q{i}" for i in range(n)]
    rules = []
    for q in nts:
        for _ in range(rng.randint(1, 2)):
            rules.append((q, _emission(rng, letters), Vec.unit(rng.choice(nts))))
    for q in rng.sample(nts, rng.randint(1, min(2, n))):
        rules.append((q, _emission(rng, letters), Vec.zero()))
    return rules


# Path prefixes of length <= GROWTH_DEPTH from every nonterminal reach at
# most GROWTH_CAP distinct (nonterminal, letter vector) states.  Grammars
# whose cycles span two letter directions exceed it; their run tables at
# the desk bound hold ~10^5 vectors and take seconds to build, which
# would let one instance dominate a pass.  Below the cap a table build
# takes milliseconds and the window's point queries carry the sweep.
GROWTH_DEPTH = 60
GROWTH_CAP = 300


def _growth(rules, letters) -> int:
    steps: dict[str, list] = {}
    nts = set()
    for src, out, tgt in rules:
        nts.add(src)
        if not tgt.is_zero():
            steps.setdefault(src, []).append((tgt.support()[0], out.to_tuple(letters)))
    frontier = [(q, (0,) * len(letters)) for q in sorted(nts)]
    seen = set(frontier)
    for _ in range(GROWTH_DEPTH):
        nxt = []
        for q, v in frontier:
            for r, out in steps.get(q, ()):
                state = (r, tuple(a + b for a, b in zip(v, out)))
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return len(seen)


def slow_regular(rng: random.Random, n: int, letters, extra=None):
    """Random positive regular normal-form grammar under the growth cap.

    With `extra` (a rule list), draws one or two rules to add to it
    instead, so the result's language contains the original one.
    """
    while True:
        if extra is None:
            rules = _regular_rules(rng, n, letters)
        else:
            nts = sorted({src for src, _o, _t in extra})
            rules = list(extra)
            for _ in range(rng.randint(1, 2)):
                tgt = Vec.zero() if rng.random() < 0.3 else Vec.unit(rng.choice(nts))
                rules.append((rng.choice(nts), _emission(rng, letters), tgt))
        if _growth(rules, letters) <= GROWTH_CAP:
            return rules


def _grammar(rules, letters):
    return grammar_from_rules(letters, "Q0", rules)


def relabel(rng: random.Random, g):
    """The same grammar with its nonterminals renamed to a shuffled
    N0, N1, ...; transition ids and rule order are kept, so a run of the
    original is a run of the copy."""
    names = [f"N{i}" for i in range(len(g.nonterminals))]
    rng.shuffle(names)
    rename = dict(zip(g.nonterminals, names))
    rules = [(rename[t.source], t.output, Vec((rename[q], c) for q, c in t.targets))
             for t in g.transitions]
    return grammar_from_rules(g.alphabet, rename[g.start], rules)


# ---------------------------------------------------------------------------
# regular-sweep

SWEEP_PAIRS = 48
SWEEP_WINDOW = {2: 14, 3: 5}
MODES = ("inclusion", "equivalence", "disjointness")


def regular_sweep(seed: int) -> list[Instance]:
    lib = random.Random(LIBRARY_SEED)
    rng = random.Random(seed)
    pairs = []
    for i in range(SWEEP_PAIRS):
        dim = 3 if lib.random() < 0.15 else 2
        letters = LETTERS[:dim]
        n = 3 if dim == 3 else lib.randint(3, 5)
        rules1 = slow_regular(lib, n, letters)
        if lib.random() < 0.5:
            rules2 = slow_regular(lib, n, letters, extra=rules1)
        else:
            rules2 = slow_regular(lib, lib.randint(3, 5) if dim == 2 else 3, letters)
        pairs.append((f"rs{i:02d}", _grammar(rules1, letters), _grammar(rules2, letters),
                      SWEEP_WINDOW[dim]))
    rng.shuffle(pairs)
    out = []
    for name, g1, g2, window in pairs:
        g1, g2 = relabel(rng, g1), relabel(rng, g2)
        for mode in MODES:
            out.append(Instance(f"{name}-{mode}", "compare",
                                {"g1": g1, "g2": g2, "window": window, "mode": mode}))
        out.append(Instance(f"{name}-universal", "universal",
                            {"g": g2, "window": window, "ambient": "naturals"}))
    return out


# ---------------------------------------------------------------------------
# cli-cold: the reduction families of the acceptance suite, run as commands


def _clause_pool(k: int, l: int, widths=(1, 2)):
    lits = [hardness.Literal("x", i, pos) for i in range(k) for pos in (True, False)]
    lits += [hardness.Literal("y", i, pos) for i in range(l) for pos in (True, False)]
    pool = []
    for w in widths:
        pool.extend(combinations(lits, w))
    return pool


def formula_family(shapes, max_clauses, stride, with_width3=False):
    """Evenly strided clause combinations per (universal, existential) shape."""
    out = []
    for k, l in shapes:
        pool = _clause_pool(k, l)
        if with_width3 and k + l >= 2:
            pool = pool + _clause_pool(k, l, widths=(3,))[:4]
        for m in range(1, max_clauses + 1):
            combos = list(combinations(pool, m))
            for i in range(0, len(combos), max(1, len(combos) // stride)):
                out.append(hardness.CnfFormula(k, l, combos[i]))
    return out


QSAT_INCLUSION = ([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)], 2, 10)
SAT_MEMBER = ([(0, 1), (0, 2), (0, 3)], 3, 8, True)
QSAT_UNIVERSAL = ([(0, 1), (1, 0), (1, 1), (0, 2)], 2, 5)
UNARY = ([(0, 1), (0, 2), (0, 3)], 3, 7)
PRIMES = (2, 3, 5)
HAM_MAX_VERTICES = 5
UNARY_MEMBER_RANGE = 40
REG_MEMBER_GRAMMARS = 24
REG_MEMBER_WINDOW = 6
CHAIN_LENGTH = 30
CHAIN_BOUND = 20
CHAIN_WINDOW = 2

ALL_WORDS_TEXT = "alphabet: a b\nstart: S\nS -> a : S\nS -> b : S\nS -> :\n"


def chain_text(length: int = CHAIN_LENGTH) -> str:
    """S -> b : S, S -> : Q1, Q1 -> : Q2, ..., Q<length> -> a :"""
    lines = ["alphabet: a b", "start: S", "S -> b : S", "S -> : Q1"]
    lines += [f"Q{i} -> : Q{i + 1}" for i in range(1, length)]
    lines.append(f"Q{length} -> a :")
    return "\n".join(lines) + "\n"


def _cli(iid, kind, argv, files, **args) -> Instance:
    return Instance(iid, kind, {"argv": argv, **args}, files)


def cli_cold(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    out = []

    for i, f in enumerate(formula_family(*QSAT_INCLUSION)):
        g1, g2 = hardness.qsat_inclusion_instance(f)
        k, m = f.num_universal, len(f.clauses)
        window = (2**k - 1) + 2**k * (4**m - 1) // 3 + 1
        p1, p2 = f"qi{i}_1.cg", f"qi{i}_2.cg"
        argv = ["compare", p1, p2, "--mode", "include", "--window", str(window),
                "--engine", "oracle", "--depth", str(4 * window + 40)]
        out.append(_cli(f"qsat-include-{i}", "qsat", argv,
                        {p1: serialize_grammar(g1), p2: serialize_grammar(g2)},
                        formula=f, alphabet=("a",)))

    for i, f in enumerate(formula_family(*SAT_MEMBER)):
        g, v = hardness.sat_membership_instance(f)
        window = sum(4**j for j in range(len(f.clauses))) + 1
        p = f"sm{i}.cg"
        argv = ["member", p, monomial(v.to_tuple(g.alphabet), g.alphabet),
                "--oracle", f"{4 * window + 40},{window}"]
        out.append(_cli(f"sat-member-{i}", "sat", argv, {p: serialize_grammar(g)},
                        formula=f, target=v.to_tuple(g.alphabet), alphabet=g.alphabet))

    for i, f in enumerate(formula_family(*QSAT_UNIVERSAL)):
        threshold = 2**f.num_universal * 4 ** len(f.clauses)
        if threshold > 32:
            continue
        g = hardness.qsat_universality_instance(f)
        window = threshold + 4
        p = f"qu{i}.cg"
        argv = ["universal", p, "--window", str(window), "--ambient", "int",
                "--engine", "oracle", "--depth", str(4 * window + 60)]
        out.append(_cli(f"qsat-universal-{i}", "qsat", argv, {p: serialize_grammar(g)},
                        formula=f, alphabet=("a",)))

    for i, f in enumerate(formula_family(*UNARY)):
        primes = PRIMES[: f.num_existential]
        g = hardness.unary_sat_universality_instance(f, primes)
        p = f"uu{i}.cg"
        text = serialize_grammar(g)
        argv = ["universal", p, "--window", "30", "--ambient", "nat",
                "--engine", "oracle", "--depth", "64"]
        out.append(_cli(f"unary-universal-{i}", "unary-universal", argv, {p: text},
                        formula=f, primes=primes, window=30, alphabet=("a",)))
        k = rng.randint(0, UNARY_MEMBER_RANGE)
        pm = f"um{i}.cg"
        out.append(_cli(f"unary-member-{i}-a{k}", "unary-member",
                        ["member", pm, monomial((k,), ("a",))], {pm: text},
                        formula=f, primes=primes, k=k, alphabet=("a",)))

    graphs = 0
    for n in range(1, HAM_MAX_VERTICES + 1):
        vertices = tuple(f"v{i}" for i in range(n))
        pairs = list(combinations(vertices, 2))
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            graph = hardness.Graph(vertices, edges)
            g, target = hardness.hamiltonian_membership_instance(graph, "v0")
            p = f"ham{graphs}.cg"
            argv = ["member", p, monomial(target.to_tuple(g.alphabet), g.alphabet),
                    "--oracle", f"{n + 1},1"]
            out.append(_cli(f"ham-{n}-{mask}", "ham", argv, {p: serialize_grammar(g)},
                            graph=graph, target=target.to_tuple(g.alphabet),
                            alphabet=g.alphabet))
            graphs += 1

    lib = random.Random(LIBRARY_SEED)
    for i in range(REG_MEMBER_GRAMMARS):
        letters = LETTERS[:2]
        g = relabel(rng, _grammar(slow_regular(lib, lib.randint(2, 3), letters), letters))
        p = f"rm{i}.cg"
        text = serialize_grammar(g)
        for j in range(2):
            v = tuple(rng.randint(0, REG_MEMBER_WINDOW) for _ in letters)
            out.append(_cli(f"regular-member-{i}-{j}", "regular-member",
                            ["member", p, monomial(v, letters)], {p: text},
                            grammar=g, vector=v, window=REG_MEMBER_WINDOW,
                            alphabet=letters))
    return out


def known_defects(seed: int) -> list[Instance]:
    """Instances the package is known to answer wrongly, kept out of the
    timed mix (a workload must be one on which no operation fails) but
    answered and checked once in every cli-cold run, untimed, so that
    the defect stays in the report until it is fixed.

    `chain-disjoint` is the ROADMAP item-1 reproduction: the chain
    against the all-words grammar with regular-dp below its completeness
    threshold.  Both languages contain `a`, yet the engine answers
    "disjoint".
    """
    argv = ["compare", "chain.cg", "all.cg", "--mode", "disjoint", "--engine", "regular-dp",
            "--bound", str(CHAIN_BOUND), "--window", str(CHAIN_WINDOW)]
    return [_cli("chain-disjoint", "chain", argv,
                 {"chain.cg": chain_text(), "all.cg": ALL_WORDS_TEXT},
                 window=CHAIN_WINDOW, alphabet=("a", "b"))]


# ---------------------------------------------------------------------------
# general-enumerate


HARD_LEVELS = (0, 1, 2, 3)
HARD_VARIANTS = ("full", "stripped", "cone")
HARD_CAPS = (10, 8)
HARD_WINDOW = 8
HARD_RANDOM_PROBES = 4
GENERAL_GRAMMARS = 20
GENERAL_CAPS = (7, 5)
GENERAL_WINDOW = 5
GENERAL_PROBES = 8
DECOMPOSE_RUNS = 24
RUN_SIZES = (20, 120)
CYCLE_GRAMMARS = 12
CYCLE_CAP = 4
BUNDLE_LEVELS = (0, 1, 2, 3)
BUNDLE_RUN_CAP = 10
BUNDLE_WINDOW = 12


def hull_vertices(n: int) -> list[tuple[int, int]]:
    """Both orientations of the stripped level-n hull vertices."""
    pts = [(i * (i + 1) // 2, i) for i in range(2**n)]
    return sorted(set(pts) | {(y, x) for x, y in pts})


def random_general(rng: random.Random, n: int, letters, neg: float = 0.25):
    """Normal-form grammar with a Hamiltonian cycle, extra unary and
    binary rules, and some final rules; outputs may be negative."""
    nts = [f"Q{i}" for i in range(n)]
    rules = []
    for i, q in enumerate(nts):
        rules.append((q, Vec.unit(rng.choice(letters)), Vec.unit(nts[(i + 1) % n])))
    for _ in range(rng.randint(1, n + 1)):
        out = Vec.zero() if rng.random() < 0.3 else Vec.unit(
            rng.choice(letters), -1 if rng.random() < neg else 1)
        if rng.random() < 0.25:
            tgt = Vec.unit(rng.choice(nts)) + Vec.unit(rng.choice(nts))
        else:
            tgt = Vec.unit(rng.choice(nts))
        rules.append((rng.choice(nts), out, tgt))
    for q in rng.sample(nts, rng.randint(1, n)):
        rules.append((q, Vec.zero(), Vec.zero()))
    return grammar_from_rules(letters, "Q0", rules)


def random_run(rng: random.Random, g, size: int):
    """Fire random enabled transitions from the start symbol: grow for
    `size` steps, then prefer finals until the marking is empty."""
    marking = Vec.unit(g.start)
    counts: dict[str, int] = {}
    steps = 0
    while not marking.is_zero():
        enabled = [t for t in g.transitions if marking.get(t.source) >= 1]
        if steps < size:
            cand = [t for t in enabled if not t.targets.is_zero()] or enabled
            if marking.total() > 3:
                cand = [t for t in cand if t.targets.total() <= 1] or cand
        else:
            cand = ([t for t in enabled if t.targets.is_zero()]
                    or [t for t in enabled if t.targets.total() <= 1] or enabled)
        t = rng.choice(cand)
        counts[t.tid] = counts.get(t.tid, 0) + 1
        marking = marking - Vec.unit(t.source) + t.targets
        steps += 1
        if steps > 3 * size + 50:
            return None
    return TransitionMultiset.from_counts(g, counts)


def _probe(rng, dim, lo, hi):
    return tuple(rng.randint(lo, hi) for _ in range(dim))


def general_enumerate(seed: int) -> list[Instance]:
    lib = random.Random(LIBRARY_SEED)
    rng = random.Random(seed)
    groups = []  # instances sharing an engine stay together, in library order

    for n in HARD_LEVELS:
        for variant in HARD_VARIANTS:
            g = relabel(rng, normalize(hardness.hard_grammar(n, variant)))
            dim = len(g.alphabet)
            probes = []
            if variant == "stripped":
                probes += hull_vertices(n)
            elif variant == "cone":
                probes += [(x, y, 1) for x, y in hull_vertices(n)]
            probes += [_probe(lib, dim, 0, HARD_WINDOW) for _ in range(HARD_RANDOM_PROBES)]
            key = f"hard{n}-{variant}"
            groups.append([])
            for j, v in enumerate(probes):
                groups[-1].append(Instance(f"gm-{key}-{j}", "general-member",
                                           {"key": key, "grammar": g, "caps": HARD_CAPS,
                                            "vector": v, "window": HARD_WINDOW}))

    letters = LETTERS[:2]
    for i in range(GENERAL_GRAMMARS):
        g = relabel(rng, random_general(lib, lib.randint(2, 4), letters))
        key = f"rand{i}"
        groups.append([])
        for j in range(GENERAL_PROBES):
            v = _probe(lib, 2, -GENERAL_WINDOW, GENERAL_WINDOW)
            groups[-1].append(Instance(f"gm-{key}-{j}", "general-member",
                                       {"key": key, "grammar": g, "caps": GENERAL_CAPS,
                                        "vector": v, "window": GENERAL_WINDOW}))

    made = 0
    while made < DECOMPOSE_RUNS:
        g = random_general(lib, lib.randint(2, 4), letters)
        ms = random_run(lib, g, lib.randint(*RUN_SIZES))
        if ms is None:
            continue
        g = relabel(rng, g)
        ms = TransitionMultiset.from_counts(g, ms.counts)
        groups.append([Instance(f"decompose-{made}", "decompose", {"grammar": g, "run": ms}),
                       Instance(f"order-{made}", "order", {"grammar": g, "run": ms})])
        made += 1

    for i in range(CYCLE_GRAMMARS):
        g = relabel(rng, random_general(lib, lib.randint(2, 4), letters))
        groups.append([Instance(f"cycles-{i}-{j}", "cycles",
                                {"grammar": g, "anchor": q, "cap": CYCLE_CAP})
                       for j, q in enumerate(sorted(g.nonterminals, key=lambda q: int(q[1:])))])

    for n in BUNDLE_LEVELS:
        g = relabel(rng, normalize(hardness.hard_grammar(n, "stripped")))
        probes = hull_vertices(n) + [_probe(lib, 2, 0, BUNDLE_WINDOW) for _ in range(4)]
        key = f"bundles{n}"
        groups.append([])
        for j, v in enumerate(probes):
            groups[-1].append(Instance(f"{key}-{j}", "bundle-member",
                                       {"key": key, "grammar": g, "run_cap": BUNDLE_RUN_CAP,
                                        "vector": v, "window": BUNDLE_WINDOW}))
    rng.shuffle(groups)
    return [inst for group in groups for inst in group]


GENERATORS = {
    "regular-sweep": regular_sweep,
    "cli-cold": cli_cold,
    "general-enumerate": general_enumerate,
}

# answered and checked once per run, outside the timed passes
KNOWN_DEFECTS = {
    "cli-cold": known_defects,
}
