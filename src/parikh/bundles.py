"""Finite bundle representations of commutative languages.

For regular grammars the language is a finite union of simple bundles:
letter vectors of bounded runs as bases, independent anchored cycle
vectors as periods.  Over a two-letter alphabet the cycle vectors of
each support class are split into angular sectors whose boundary pairs
serve as periods (the outermost boundaries are the classic extreme
cycles), with bounded fold-in corrections absorbing interior lattice
offsets.  Both constructions take explicit enumeration caps and report
truncation instead of chasing the theoretical bounds, which are
astronomically large outside toy sizes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .decomposition import base_run_bound
from .grammar import Grammar
from .intlinalg import hadamard_bound, period_solver
from .membership import RegularMembership, _general_state
from .runs import DEFAULT_STATE_CAP, SearchCapExceeded, tree_size_bound
from .semilinear import SimpleBundle
from .vector import Vec


@dataclass(frozen=True)
class BundlesResult:
    bundles: tuple[SimpleBundle, ...]
    truncated: bool
    run_cap: int

    def member(self, v: Vec) -> bool:
        return any(b.member(v) for b in self.bundles)


def _minimize_bases(bases: Sequence[Vec], periods: Sequence[Vec]) -> tuple[Vec, ...]:
    """Drop base vectors generated by another base plus the periods.

    Periods are independent, so "is generated by" is a strict partial
    order on distinct bases and keeping its minimal elements preserves
    the denoted set.
    """
    uniq = sorted(set(bases), key=Vec.sort_key)
    solve = period_solver(periods)
    return tuple(
        w for w in uniq if not any(other != w and solve(w - other) is not None for other in uniq)
    )


def _subsumes(a: SimpleBundle, b: SimpleBundle) -> bool:
    """Whether bundle a denotes a superset of bundle b."""
    return all(a.solve(z) is not None for z in b.periods) and all(
        a.member(w) for w in b.bases
    )


def _drop_subsumed(raw: Sequence[SimpleBundle]) -> tuple[SimpleBundle, ...]:
    kept: list[SimpleBundle] = []
    order = sorted(
        raw,
        key=lambda b: (
            -len(b.periods),
            tuple(p.sort_key() for p in b.periods),
            tuple(w.sort_key() for w in b.bases),
        ),
    )
    for b in order:
        if not b.bases:
            continue
        if any(_subsumes(a, b) for a in kept):
            continue
        kept = [a for a in kept if not _subsumes(b, a)]
        kept.append(b)
    return tuple(kept)


def regular_bundles(g: Grammar, run_cap: int) -> BundlesResult:
    """Bundle decomposition of a regular grammar's language.

    One bundle per (required support, maximal independent cycle-vector
    set): bases are the table run vectors, periods the cycle vectors.
    The union equals the language once run_cap reaches the base-run
    bound; below that the result is marked truncated.  Subsumed bundles
    are removed and base sets minimized.
    """
    if not g.is_regular():
        raise ValueError("regular_bundles needs a regular grammar")
    state = RegularMembership(g, run_cap)
    raw = []
    for _key, zs, _index, bases, _anchors in state._queries:
        base_vecs = [Vec.from_tuple(w, g.alphabet) for w in bases]
        periods = tuple(Vec.from_tuple(z, g.alphabet) for z in zs)
        raw.append(SimpleBundle(_minimize_bases(base_vecs, periods), periods))
    bundles = _drop_subsumed(raw)
    truncated = run_cap < base_run_bound(g).value and not state.runs_exhausted
    return BundlesResult(bundles, truncated, run_cap)


# ---------------------------------------------------------------------------
# two-letter bundles via angular sectors of cycle vectors


def _cross(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _half(v: tuple[int, int]) -> int:
    x, y = v
    return 0 if y > 0 or (y == 0 and x > 0) else 1


def _angular(a: tuple[int, int], b: tuple[int, int]) -> int:
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = _cross(a, b)
    return -1 if c > 0 else (1 if c < 0 else 0)


def _direction_reps(vecs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """One representative per direction of the given nonzero vectors (the
    1-norm-smallest vector), sorted by angle from the positive x axis."""
    groups: dict[tuple[int, int], tuple[int, int]] = {}
    for v in vecs:
        x, y = v
        g = math.gcd(x, y)
        key = (x // g, y // g)
        cur = groups.get(key)
        if cur is None or (abs(x) + abs(y), v) < (abs(cur[0]) + abs(cur[1]), cur):
            groups[key] = v
    return sorted(groups.values(), key=functools.cmp_to_key(_angular))


def _sector_period_sets(vecs: Sequence[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
    """Period sets covering the cone of the given nonzero 2D vectors.

    Adjacent direction pairs of the angular order; when the cone fits in
    a halfplane only the pairs along the occupied arc appear, and its
    outermost boundaries are the extreme directions.  Opposite-ray and
    single-ray degenerate cases fall back to singletons.
    """
    dirs = _direction_reps(vecs)
    n = len(dirs)
    if n == 0:
        return [()]
    if n == 1:
        return [(dirs[0],)]
    if n == 2 and _cross(dirs[0], dirs[1]) == 0:
        # opposite rays: the union of the two rays is the whole line
        return [(dirs[0],), (dirs[1],)]
    # for distinct directions, the ccw gap from a to b is < pi iff
    # cross(a, b) > 0; at most one cyclic gap can reach pi here
    break_at = None
    for i in range(n):
        if _cross(dirs[i], dirs[(i + 1) % n]) <= 0:
            break_at = i
            break
    if break_at is not None:
        arc = [dirs[(break_at + 1 + j) % n] for j in range(n)]
        return [(arc[j], arc[j + 1]) for j in range(n - 1)]
    # full plane: every adjacent pair, cyclically
    return [(dirs[i], dirs[(i + 1) % n]) for i in range(n)]


def two_letter_bundles(
    g: Grammar,
    run_cap: int,
    cycle_cap: Optional[int] = None,
    fold_cap: Optional[int] = None,
    fold_product_cap: int = 200_000,
    state_cap: int = DEFAULT_STATE_CAP,
) -> BundlesResult:
    """Bundle decomposition over a two-letter alphabet.

    The base runs up to run_cap, grouped by support, and the simple
    cycles anchored in each support come from the `GeneralMembership`
    shared through `_general_state` (cycle_cap defaults to
    min(gamma - 1, 8)); the cycle vectors supply the period sets via
    angular sectors.  Interior lattice offsets (cycle directions that are
    not period boundaries) are folded into the base set with coefficients
    up to fold_cap.  Results below the theoretical caps are marked
    truncated.
    """
    if len(g.alphabet) != 2:
        raise ValueError("two_letter_bundles needs an alphabet of exactly two letters")
    if cycle_cap is None:
        cycle_cap = min(tree_size_bound(len(g.nonterminals), g.is_regular()) - 1, 8)
    state = _general_state(g, run_cap, cycle_cap, state_cap)
    if state.cycles_capped:
        raise SearchCapExceeded(f"cycle search exceeded {state_cap} states; raise the cap")
    truncated = (
        state.runs_capped
        or (not state.runs_complete and run_cap < base_run_bound(g).value)
        or not state.cycles_complete
    )

    raw: list[SimpleBundle] = []
    for supp in sorted(state._bases, key=sorted):
        bases = [Vec.from_tuple(w, g.alphabet) for w in state._bases[supp]]
        pool_vecs = sorted(set().union(*(state._pools[q] for q in supp)))
        if fold_cap is None:
            bound = max((max(abs(x), abs(y)) for x, y in pool_vecs), default=0)
            cap = hadamard_bound(2, bound)
        else:
            cap = fold_cap
        if pool_vecs and (cap + 1) ** len(pool_vecs) > fold_product_cap:
            raise SearchCapExceeded(
                "fold-in enumeration too large; lower fold_cap or simplify the grammar"
            )
        folded: list[Vec] = []
        for combo in product(range(cap + 1), repeat=len(pool_vecs)):
            shift = Vec.zero()
            for c, pv in zip(combo, pool_vecs):
                if c:
                    shift = shift + Vec.from_tuple(pv, g.alphabet) * c
            folded.extend(w + shift for w in bases)
        for period_tuple in _sector_period_sets(pool_vecs):
            periods = tuple(Vec.from_tuple(p, g.alphabet) for p in period_tuple)
            raw.append(SimpleBundle(_minimize_bases(folded, periods), periods))
    return BundlesResult(_drop_subsumed(raw), truncated, run_cap)
