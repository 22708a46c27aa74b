"""Reference answers, computed once per benchmark run before timing.

No reference comes from the engine an instance times:

- window sweeps and regular `member` queries use the breadth-first
  oracle, and only where depth doubling leaves its window unchanged
  (for positive regular grammars a depth of (dim*window + 1)*n + 1
  already reaches every in-window vector, so the doubling is a check);
- the reduction families use the direct solvers in `parikh.hardness`;
- unary residue queries use the residue reading of the encoding;
- the 31-nonterminal chain against the all-words grammar uses its
  closed-form language;
- simple-cycle listings use a brute-force search over transition
  multisets written here.

Each reference is JSON: {"expect": bool or null, "witnesses": [...]}
for decisions, where `witnesses` lists every acceptable witness vector
as a dense tuple (null: the witness is not checked), or
{"member": bool, "certified": bool} for membership in a window whose
oracle set may not be exact (a member of the oracle set is always a
member; a non-member only when `certified`).
"""

from __future__ import annotations

from itertools import product

from parikh import hardness, membership, runs


def oracle_certified(g, depth: int, window: int):
    """Oracle set at `depth`, and whether doubling the depth keeps it."""
    first = membership.oracle_language(g, depth, window)
    second = membership.oracle_language(g, 2 * depth, window)
    return {v.to_tuple(g.alphabet) for v in second}, first == second


def _regular_window_set(g, window: int) -> set:
    depth = (len(g.alphabet) * window + 1) * len(g.nonterminals) + 1
    members, certified = oracle_certified(g, depth, window)
    if not certified:
        raise RuntimeError(f"oracle not exact for a positive regular grammar at depth {depth}")
    return members


def unary_member(f, primes, k: int) -> bool:
    """a^k is derivable iff reading variable i as (k mod primes[i] == 1)
    falsifies some clause."""
    def satisfied(clause):
        return any((k % primes[lit.index] == 1) == lit.positive for lit in clause)

    return not all(satisfied(c) for c in f.clauses)


def _sweep_ref(bad: set) -> dict:
    return {"expect": not bad, "witnesses": sorted(bad)}


def regular_sweep(instances) -> dict:
    sets: dict[int, set] = {}

    def lang(g, window):
        if id(g) not in sets:
            sets[id(g)] = _regular_window_set(g, window)
        return sets[id(g)]

    refs = {}
    for inst in instances:
        a = inst.args
        if inst.kind == "compare":
            l1, l2 = lang(a["g1"], a["window"]), lang(a["g2"], a["window"])
            bad = {
                "inclusion": l1 - l2,
                "equivalence": l1 ^ l2,
                "disjointness": l1 & l2,
            }[a["mode"]]
        else:
            g = a["g"]
            box = set(product(range(a["window"] + 1), repeat=len(g.alphabet)))
            bad = box - lang(g, a["window"])
        refs[inst.id] = _sweep_ref(bad)
    return refs


def cli_cold(instances) -> dict:
    refs = {}
    for inst in instances:
        a = inst.args
        kind = inst.kind
        if kind == "qsat":
            ref = {"expect": hardness.qbf2_holds(a["formula"]), "witnesses": None}
        elif kind == "sat":
            ref = {"expect": hardness.sat_satisfiable(a["formula"]), "witnesses": [a["target"]]}
        elif kind == "ham":
            ref = {"expect": hardness.hamiltonian_circuit_exists(a["graph"], "v0"),
                   "witnesses": [a["target"]]}
        elif kind == "unary-universal":
            f, primes = a["formula"], a["primes"]
            missing = [(k,) for k in range(a["window"] + 1) if not unary_member(f, primes, k)]
            ref = {"expect": not missing, "witnesses": missing}
        elif kind == "unary-member":
            ref = {"expect": unary_member(a["formula"], a["primes"], a["k"]),
                   "witnesses": [(a["k"],)]}
        elif kind == "regular-member":
            members = _regular_window_set(a["grammar"], a["window"])
            ref = {"expect": a["vector"] in members, "witnesses": [a["vector"]]}
        elif kind == "chain":
            # L(chain) = {b^n a}, L(all words) = N^2: the common members in
            # the box are a b^n for n <= window
            w = a["window"]
            ref = {"expect": False, "witnesses": [(1, n) for n in range(w + 1)]}
        else:  # pragma: no cover - generator and references move together
            raise ValueError(f"no reference for {kind}")
        refs[inst.id] = ref
    return refs


# ---------------------------------------------------------------------------
# general-enumerate

HARD_ORACLE_DEPTH = 60
GENERAL_ORACLE_DEPTH = 12
BUNDLE_ORACLE_DEPTH = 120


def _is_cycle(g, counts: dict, q: str) -> bool:
    """Balance plus reachability from q over the used transitions."""
    balance: dict[str, int] = {}
    edges: dict[str, set] = {}
    for tid, c in counts.items():
        t = g.transition(tid)
        balance[t.source] = balance.get(t.source, 0) - c
        for r, m in t.targets:
            balance[r] = balance.get(r, 0) + c * m
        edges.setdefault(t.source, set()).update(t.targets.support())
    if any(balance.values()):
        return False
    seen, stack = {q}, [q]
    while stack:
        for r in edges.get(stack.pop(), ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return set(edges) <= seen


def _multisets(tids, total):
    """Every count dict over `tids` with 1 <= sum <= total."""
    def rec(i, left, acc):
        if i == len(tids):
            if acc:
                yield dict(acc)
            return
        for c in range(left + 1):
            if c:
                acc[tids[i]] = c
            yield from rec(i + 1, left - c, acc)
            if c:
                del acc[tids[i]]
    yield from rec(0, total, {})


def _sub_multisets(counts: dict):
    tids = sorted(counts)
    for combo in product(*(range(counts[t] + 1) for t in tids)):
        part = {t: c for t, c in zip(tids, combo) if c}
        if part and part != counts:
            yield part


def brute_simple_cycles(g, q: str, cap: int) -> list:
    """Cycles from q that are not the sum of two nonzero cycles from q,
    as sorted (tid, count) tuples, up to the size the listing searches:
    `cap`, or one below tree_size_bound when that is smaller.

    Under this definition a cycle through a loop anchored elsewhere in
    its support stays simple at every size, so the size limit is taken
    from the listing's own completeness claim rather than searched past.
    """
    tids = [t.tid for t in g.transitions]
    limit = min(cap, runs.tree_size_bound(len(g.nonterminals), g.is_regular()) - 1)
    out = []
    for counts in _multisets(tids, limit):
        if not _is_cycle(g, counts, q):
            continue
        split = any(
            _is_cycle(g, part, q)
            and _is_cycle(g, {t: c - part.get(t, 0) for t, c in counts.items()
                              if c - part.get(t, 0)}, q)
            for part in _sub_multisets(counts)
        )
        if not split:
            out.append(tuple(sorted(counts.items())))
    return sorted(out)


def general_enumerate(instances) -> dict:
    sets: dict[str, tuple] = {}
    refs = {}
    for inst in instances:
        a = inst.args
        if inst.kind in ("general-member", "bundle-member"):
            key = a["key"]
            if key not in sets:
                if inst.kind == "bundle-member":
                    depth = BUNDLE_ORACLE_DEPTH
                elif key.startswith("hard"):
                    depth = HARD_ORACLE_DEPTH
                else:
                    depth = GENERAL_ORACLE_DEPTH
                sets[key] = oracle_certified(a["grammar"], depth, a["window"])
            members, certified = sets[key]
            refs[inst.id] = {"member": tuple(a["vector"]) in members, "certified": certified}
        elif inst.kind == "cycles":
            refs[inst.id] = {"cycles": brute_simple_cycles(a["grammar"], a["anchor"], a["cap"])}
    return refs


REFERENCES = {
    "regular-sweep": regular_sweep,
    "cli-cold": cli_cold,
    "general-enumerate": general_enumerate,
}


def compute(workload: str, instances) -> dict:
    return REFERENCES[workload](instances)
