"""Decomposing runs into a bounded base run plus independent simple cycles.

Every run's letter vector can be written as the vector of a base run of
bounded size plus a nonnegative combination of simple cycles anchored in
the base run's support, with the cycle vectors linearly independent.
The bound depends only on the nonterminal count, the alphabet size, and
whether the grammar is regular.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import Grammar
from .intlinalg import hadamard_bound, is_linearly_independent, reduce_multiplicities
from .runs import TransitionMultiset, is_run, is_simple_cycle, strip_cycles, tree_size_bound
from .vector import Vec


@dataclass(frozen=True)
class BaseRunBound:
    """Size bound for base runs in the decomposition."""

    nonterminals: int
    alphabet_size: int
    regular: bool
    value: int


def base_run_bound(g: Grammar) -> BaseRunBound:
    """gamma(N^2) + (2*gamma(N))**(1+A) * hadamard_bound(A, gamma(N)).

    gamma is the bounded-depth tree size bound; the grammar must be in
    normal form.
    """
    if not g.is_normal_form():
        raise ValueError("grammar must be in normal form")
    n = len(g.nonterminals)
    a = len(g.alphabet)
    regular = g.is_regular()
    gamma_n = tree_size_bound(n, regular)
    value = tree_size_bound(n * n, regular) + (2 * gamma_n) ** (1 + a) * hadamard_bound(a, gamma_n)
    return BaseRunBound(n, a, regular, value)


@dataclass(frozen=True)
class CycleTerm:
    """One pumping term: a simple cycle, its anchor, and a multiplicity."""

    cycle: TransitionMultiset
    anchor: str
    count: int


@dataclass(frozen=True)
class Decomposition:
    """Base run plus independent anchored simple cycles; also the
    checkable witness of a yes membership answer (`membership.Witness`)."""

    base_run: TransitionMultiset
    cycles: tuple[CycleTerm, ...]

    def parikh(self) -> Vec:
        acc = self.base_run.parikh()
        for term in self.cycles:
            acc = acc + term.cycle.parikh() * term.count
        return acc

    def expand(self) -> TransitionMultiset:
        total = self.base_run
        for term in self.cycles:
            total = total + term.cycle.scaled(term.count)
        return total


def decompose_run(g: Grammar, ms: TransitionMultiset, p: str) -> Decomposition:
    """Decompose a run from `p` per the bounded-base-run guarantee.

    Repeatedly strips the smallest removable cycle (one whose removal
    leaves a run still supporting every anchor recorded so far:
    `runs.strip_cycles`), merges stripped cycles with equal letter
    vectors, then reduces multiplicities so the surviving cycle vectors
    are linearly independent; leftovers that stay dependent on the kept
    cycles are folded back into the base run.

    Stripping searches once per distinct cycle, not once per copy:
    before searching the smaller run again it re-tests, in order and in
    full, the cycles the last search listed up to the one it accepted.
    A fresh search would list just those that still fit, in that order,
    first, so the first that passes is the one it would accept.
    Raises ValueError for a grammar outside normal form, an unknown
    nonterminal `p`, or a multiset that is not a run from `p`.
    """
    if not g.is_normal_form():
        raise ValueError("grammar must be in normal form")
    stripped, rest = strip_cycles(ms, p)

    # merge cycles with the same letter vector; first-stripped wins as
    # the representative
    merged: dict[Vec, tuple[TransitionMultiset, str, int]] = {}
    letters: dict[Vec, Vec] = {}  # the letter vector of each distinct cycle
    for cycle, anchor in stripped:
        key = letters.get(cycle.counts)
        if key is None:
            key = letters[cycle.counts] = cycle.parikh()
        if key in merged:
            rep, rep_anchor, count = merged[key]
            merged[key] = (rep, rep_anchor, count + 1)
        else:
            merged[key] = (cycle, anchor, 1)

    keys = sorted(merged, key=Vec.sort_key)
    vectors = list(keys)
    counts = [merged[k][2] for k in keys]
    gamma_n = tree_size_bound(len(g.nonterminals), g.is_regular())
    reduced, core = reduce_multiplicities(
        vectors, counts, entry_bound=gamma_n, dim=len(g.alphabet)
    )
    # keep every cycle vector independent of the core; fold only the rest
    keep = list(core)
    for i in range(len(vectors)):
        if i in keep or reduced[i] == 0:
            continue
        if is_linearly_independent([vectors[j] for j in keep] + [vectors[i]]):
            keep.append(i)
    keep_set = set(keep)

    base = rest
    terms = []
    for i, key in enumerate(keys):
        rep, anchor, _orig = merged[key]
        if reduced[i] == 0:
            continue
        if i in keep_set:
            terms.append(CycleTerm(rep, anchor, reduced[i]))
        else:
            base = base + rep.scaled(reduced[i])
    return Decomposition(base, tuple(terms))


def validate_decomposition(dec: Decomposition, original: TransitionMultiset, p: str) -> None:
    """Assert all structural guarantees; raises AssertionError on failure."""
    g = dec.base_run.grammar
    assert is_run(dec.base_run, p), "base component is not a run"
    assert dec.parikh() == original.parikh(), "letter vector not preserved"
    bound = base_run_bound(g).value
    assert dec.base_run.size() <= bound, "base run exceeds the size bound"
    supp = dec.base_run.supp()
    for term in dec.cycles:
        assert term.anchor in supp, "cycle anchored outside the base run support"
        assert term.count > 0, "cycle term with zero multiplicity"
        assert is_simple_cycle(term.cycle, term.anchor), "non-simple cycle in decomposition"
    assert is_linearly_independent([t.cycle.parikh() for t in dec.cycles]), (
        "cycle letter vectors are linearly dependent"
    )
