"""Finite bundle representations of commutative languages.

For regular grammars the language is a finite union of simple bundles:
letter vectors of bounded runs as bases, independent anchored cycle
vectors as periods.  Over a two-letter alphabet the cycle vectors of
each support class are split into angular sectors whose boundary pairs
serve as periods (the outermost boundaries are the classic extreme
cycles), with bounded fold-in corrections absorbing interior lattice
offsets.  A bundle's bases are the minimal entries of an
`intlinalg.CosetIndex` over its periods (for `regular_bundles`, the one
the membership engine already built), which also answers the bundle's
membership.  Both constructions read the shared `membership.engine`
state under explicit caps, not the astronomical theoretical bounds;
results below the theoretical caps are marked truncated, unless the
state's box-less `miss()` is a definite no.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .grammar import Grammar, normalize
from .intlinalg import CosetIndex, PeriodLattice, hadamard_bound
from .membership import engine
from .runs import SearchCapExceeded, tree_size_bound
from .semilinear import SimpleBundle
from .vector import Vec


@dataclass(frozen=True)
class BundlesResult:
    bundles: tuple[SimpleBundle, ...]
    truncated: bool
    run_cap: int

    def member(self, v: Vec) -> bool:
        return any(b.member(v) for b in self.bundles)


def _bundle(index: CosetIndex, alphabet: tuple[str, ...]) -> SimpleBundle:
    """The bundle of a `CosetIndex`: the minimal bases it keeps, in
    `Vec.sort_key` order, plus N-combinations of its periods; the index
    also answers for the bundle, which so builds none of its own."""
    bases = (w for entries in index.groups.values() for _coords, w in entries)
    base_vecs = sorted((Vec.from_tuple(w, alphabet) for w in bases), key=Vec.sort_key)
    periods = tuple(Vec.from_tuple(z, alphabet) for z in index.lattice.zs)
    bundle = SimpleBundle(tuple(base_vecs), periods)
    bundle.__dict__["_index"] = (alphabet, index)  # fills the cached `SimpleBundle._index`
    return bundle


def _subsumes(a: SimpleBundle, b: SimpleBundle) -> bool:
    """Whether bundle a denotes a superset of bundle b: a spans every
    period of b and holds every base of b."""
    return all(a.spans(z) for z in b.periods) and all(a.member(w) for w in b.bases)


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
    """Bundle decomposition of a grammar that is regular once normalized.

    One bundle per (required support, maximal independent cycle-vector
    set): bases are the table run vectors, periods the cycle vectors.
    Each bundle is one query of the regular-dp state at bound run_cap,
    its bases the minimal entries of the query's coset index; subsumed
    bundles are removed.  The union is the language unless truncated.
    """
    g = normalize(g)
    if not g.is_regular():
        raise ValueError("regular_bundles needs a regular grammar")
    state = engine(g, "regular-dp", bound=run_cap)
    raw = [_bundle(index, state.order) for _key, _zs, index, _anchors in state._queries]
    return BundlesResult(_drop_subsumed(raw), state.miss().verdict is not False, run_cap)


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


# the most base-fold combinations, (fold cap + 1) ** pool size, that
# `two_letter_bundles` enumerates for one support
FOLD_PRODUCT_CAP = 200_000


def two_letter_bundles(
    g: Grammar,
    run_cap: int,
    cycle_cap: Optional[int] = None,
    fold_cap: Optional[int] = None,
) -> BundlesResult:
    """Bundle decomposition over a two-letter alphabet.

    The base runs up to run_cap, grouped by support, and the simple
    cycles anchored in each support come from the general-caps state of
    the normalized grammar (cycle_cap defaults to min(gamma - 1, 8));
    the cycle vectors supply the period sets via angular sectors.
    Interior lattice offsets (cycle directions that are not period
    boundaries) are folded into the base set with coefficients up to
    fold_cap, as one set of dense tuples (SearchCapExceeded when that
    enumeration would pass FOLD_PRODUCT_CAP); each sector's bases are the
    minimal entries of a coset index over its periods.  An anchor whose
    cycle search outgrew the state cap adds no periods, which only loses
    members.  The result is marked truncated unless the state's `miss()`
    is a definite no.
    """
    if len(g.alphabet) != 2:
        raise ValueError("two_letter_bundles needs an alphabet of exactly two letters")
    g = normalize(g)
    if cycle_cap is None:
        cycle_cap = min(tree_size_bound(len(g.nonterminals), g.is_regular()) - 1, 8)
    state = engine(g, "general-caps", run_cap=run_cap, cycle_cap=cycle_cap)

    raw: list[SimpleBundle] = []
    for supp in sorted(state._bases, key=sorted):
        pool_vecs = sorted(set().union(*(state._pools[q] for q in supp)))
        if fold_cap is None:
            bound = max((max(abs(x), abs(y)) for x, y in pool_vecs), default=0)
            cap = hadamard_bound(2, bound)
        else:
            cap = fold_cap
        if pool_vecs and (cap + 1) ** len(pool_vecs) > FOLD_PRODUCT_CAP:
            raise SearchCapExceeded(
                "fold-in enumeration too large; lower fold_cap or simplify the grammar"
            )
        folded = set(state._bases[supp])
        for zx, zy in pool_vecs:
            folded = {(x + c * zx, y + c * zy) for x, y in folded for c in range(cap + 1)}
        for zs in _sector_period_sets(pool_vecs):
            raw.append(_bundle(CosetIndex(PeriodLattice(zs, 2), folded), g.alphabet))
    return BundlesResult(_drop_subsumed(raw), state.miss().verdict is not False, run_cap)
