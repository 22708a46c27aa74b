"""Exact integer linear algebra.

Everything runs on arbitrary-precision integers, with no floating point;
`Fraction` appears only in the values `cramer_solve` returns.  The
module has one elimination: a fraction-free Gauss–Jordan elimination
(Bareiss 1968, `_gauss_jordan`) that gives the pivot columns, the
determinant, the adjugate and the kernel of a matrix in a single pass.
`determinant` and `cramer_solve` read their answers off it, and
`PeriodLattice` keeps them to solve nonnegative integer combinations of
independent periods on dense integer tuples.  `CosetIndex` answers every
simple bundle's question, is v a base plus such a combination, over a
lattice its caller builds, so indexes over equal periods share one, and
the pivot images of a box (`PeriodLattice.box_images`) that their caller
enumerates once.  Both membership engines, both bundle constructions and
`SimpleBundle` read it.

With the vectors as rows, the pivot count is their rank
(`is_linearly_independent`, and the size of the subsets
`maximal_independent_subsets` lists).  With the vectors as columns,
another column lies in the span of the pivot columns iff it vanishes
past the pivot rows, and then its pivot-row entries are d times its
coefficients; `find_integer_dependency` and the subset search read
their dependencies off that.  The module also holds the factorial
determinant bound and the coefficient-reduction loop that caps all
multiplicities outside an independent core.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from operator import mul, sub
from typing import Iterable, Optional, Sequence

from .vector import Vec

Row = Sequence[int]
IntTuple = tuple[int, ...]


def _check_square(m: Sequence[Row]) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def _gauss_jordan(m: Sequence[Row], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss–Jordan elimination (Bareiss 1968) of the integer
    rows m over their first ncols columns.

    Returns (a, pivots, d).  `pivots` are the columns, in order, that are
    independent of the columns before them.  Row i of `a` holds d at
    pivots[i] and 0 at every other pivot column; rows past len(pivots)
    vanish on the first ncols columns: a = d * E * m for an invertible
    rational E with E * m in reduced row echelon form there.  Every entry
    is a minor of m up to sign, so each division is exact.  A row swap
    negates the row it moves, so when every row is a pivot row, d is the
    determinant of the columns `pivots` of m.
    """
    a = [[int(x) for x in row] for row in m]
    pivots: list[int] = []
    d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = [-x for x in a[p]], a[r]
        row = a[r]
        piv = row[c]
        for i, other in enumerate(a):
            if i != r:
                f = other[c]
                a[i] = [(piv * x - f * y) // d for x, y in zip(other, row)]
        d = piv
        pivots.append(c)
    return a, pivots, d


def determinant(m: Sequence[Row]) -> int:
    """Exact determinant by fraction-free elimination."""
    n = _check_square(m)
    _a, pivots, d = _gauss_jordan(m, n)
    return d if len(pivots) == n else 0


def hadamard_bound(n: int, c: int) -> int:
    """n! * c**n, an upper bound for determinants of n x n matrices
    with entries of magnitude at most c."""
    if n < 0 or c < 0:
        raise ValueError("hadamard_bound needs n >= 0 and c >= 0")
    return math.factorial(n) * c**n


def cramer_solve(m: Sequence[Row], b: Row) -> Optional[list[Fraction]]:
    """Unique rational solution of m @ x = b, or None if det(m) == 0."""
    n = _check_square(m)
    if len(b) != n:
        raise ValueError("dimension mismatch between matrix and vector")
    a, pivots, d = _gauss_jordan([[*row, x] for row, x in zip(m, b)], n)
    if len(pivots) < n:
        return None
    return [Fraction(row[n], d) for row in a]


def _union_symbols(vectors: Sequence[Vec]) -> list[str]:
    return sorted({s for v in vectors for s in v.support()})


def is_linearly_independent(vectors: Sequence[Vec]) -> bool:
    symbols = _union_symbols(vectors)
    _a, pivots, _d = _gauss_jordan([[v.get(s) for s in symbols] for v in vectors], len(symbols))
    return len(pivots) == len(vectors)


def find_integer_dependency(
    vectors: Sequence[Vec], symbols: Optional[Sequence[str]] = None
) -> list[int]:
    """Integer coefficients a with sum a_i * vectors[i] = 0 for a dependent set.

    The dependency is found on the first minimal dependent subset in
    input order and scaled through a unit-extended basis determinant, so
    every coefficient is bounded by hadamard_bound(dim, m), m the largest
    absolute entry of the vectors.
    The first nonzero coefficient is normalized positive.
    """
    if symbols is None:
        symbols = _union_symbols(vectors)
    dim = len(symbols)
    tuples = [v.to_tuple(symbols) for v in vectors]
    # one elimination with the vectors as columns: the first column that
    # is not a pivot is the first vector dependent on those before it, and
    # its entries are d times its coefficients over that (independent)
    # prefix.  The minimal dependent subset is the dependent vector plus
    # the prefix vectors with a nonzero coefficient; c holds their
    # coefficients in the dependency, up to the common scale d
    a, pivots, d = _gauss_jordan([[t[i] for t in tuples] for i in range(dim)], len(tuples))
    dep = next((j for j, p in enumerate(pivots) if p != j), len(pivots))
    if dep == len(tuples):
        raise ValueError("vectors are linearly independent")
    c = {j: a[j][dep] for j in range(dep) if a[j][dep]}
    c[dep] = -d
    alpha = [0] * len(tuples)
    if len(c) == 1:
        # a zero vector by itself
        alpha[dep] = 1
        return alpha
    u_idx = max(c, key=lambda j: abs(c[j]))
    rest_idx = [j for j in c if j != u_idx]
    # extend the rest to a basis B of the coordinate space with the first
    # unit vectors independent of it: the pivots of [rest | I].  Every row
    # is a pivot row, so d = det(B), and the column u gives d * B^-1 u,
    # whose entries are B's determinants with u in column j (Cramer)
    rest = [tuples[j] for j in rest_idx]
    u = tuples[u_idx]
    a, _pivots, d = _gauss_jordan(
        [[*(t[i] for t in rest), *(int(i == j) for j in range(dim)), u[i]] for i in range(dim)],
        len(rest) + dim,
    )
    alpha[u_idx] = d
    for j, row in zip(rest_idx, a):
        alpha[j] = -row[-1]
    # sanity: the combination really vanishes
    if any(sum(x * t[i] for x, t in zip(alpha, tuples)) for i in range(dim)):
        raise AssertionError("integer dependency construction failed")  # pragma: no cover
    if next(x for x in alpha if x) < 0:
        alpha = [-x for x in alpha]
    return alpha


def reduce_multiplicities(
    vectors: Sequence[Vec],
    counts: Sequence[int],
    entry_bound: Optional[int] = None,
    dim: Optional[int] = None,
) -> tuple[list[int], tuple[int, ...]]:
    """Rewrite nonnegative multiplicities so that only an independent core
    stays above the determinant bound.

    Returns (new_counts, kept_indices) with sum new[i]*vectors[i]
    preserved exactly, new counts nonnegative, vectors[kept_indices]
    linearly independent, and every other count < H where
    H = hadamard_bound(dim, entry_bound).
    """
    vectors = list(vectors)
    counts = [int(c) for c in counts]
    if len(vectors) != len(counts) or any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative and match vectors")
    symbols = _union_symbols(vectors)
    if dim is None:
        dim = len(symbols)
    if entry_bound is None:
        entry_bound = max((v.norm_inf() for v in vectors), default=0)
    h = max(1, hadamard_bound(dim, entry_bound))
    while True:
        active = [i for i, c in enumerate(counts) if c >= h]
        if is_linearly_independent([vectors[i] for i in active]):
            return counts, tuple(active)
        alpha_local = find_integer_dependency([vectors[i] for i in active], symbols)
        # largest k keeping all active counts nonnegative; at least one
        # coefficient is positive and every |a| <= h <= active counts,
        # so k >= 1 and some count drops below h
        k = min(counts[i] // a for i, a in zip(active, alpha_local) if a > 0)
        if k < 1:  # pragma: no cover - defensive
            raise AssertionError("multiplicity reduction stalled")
        for i, a in zip(active, alpha_local):
            counts[i] -= k * a
        if any(c < 0 for c in counts):  # pragma: no cover - defensive
            raise AssertionError("multiplicity reduction went negative")


# ---------------------------------------------------------------------------
# dense integer tuples: independent subsets and period lattices


def maximal_independent_subsets(vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Index tuples of the maximal linearly independent subsets of the
    dense integer vectors, sorted; [()] when every vector is zero.
    A nonnegative combination over an independent subset is one over any
    maximal superset, so membership only needs to solve these.

    They are the bases of the vectors' linear matroid: every maximal
    independent subset has as many vectors as the rank r, and every
    independent subset of r vectors is maximal.  So a depth-first search
    over increasing index tuples keeps each independent tuple that
    reaches length r, and extends a tuple only by the later vectors
    outside its span, because every superset of a dependent set is
    dependent; one elimination per tuple finds them.  It visits the
    tuples in lexicographic order.  Over a sorted list of distinct
    vectors, index tuples sort the same way as the vector tuples they
    pick.
    """
    n = len(vectors)
    dim = len(vectors[0]) if vectors else 0
    r = len(_gauss_jordan(vectors, dim)[1])
    if r == n:  # an independent set is its own only basis
        return [tuple(range(n))]
    results: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], start: int) -> None:
        k = len(chosen)
        if k == r:
            results.append(chosen)
            return
        # leave room for the r - k - 1 vectors still to come
        later = range(start, n - r + k + 1)
        # one elimination of the chosen vectors as columns, with the later
        # ones alongside: a later vector is independent of the chosen iff
        # its column does not vanish on the rows past the k pivot rows
        a, _pivots, _d = _gauss_jordan(
            [[vectors[j][c] for j in (*chosen, *later)] for c in range(dim)], k
        )
        for col, i in enumerate(later, k):
            if any(row[col] for row in a[k:]):
                extend(chosen + (i,), i + 1)

    extend((), 0)
    return results


class PeriodLattice:
    """Nonnegative integer combinations of linearly independent periods,
    solved on dense integer tuples from data computed once per period set.

    For periods z_1..z_k in Z^dim, `rows` are k coordinates on which the
    periods stay independent and `det` > 0 and `adj` are the determinant
    and adjugate of the k x k block there, so adj * t[rows] = det * x
    whenever t = sum x_j z_j.  `kernel` is an integer basis of the
    functionals vanishing on every period: t lies in the rational span
    iff each of them vanishes on t.  With no periods the span is {0}.
    """

    def __init__(self, zs: Sequence[IntTuple], dim: int):
        self.zs = tuple(zs)
        k = len(self.zs)
        # one elimination of [Z | I_k] (row j is z_j): the pivot columns
        # are the rows, the right block is d * Z_rows^-1 and the free
        # columns of the left block give the kernel
        a, rows, d = _gauss_jordan(
            [[*z, *(int(i == j) for i in range(k))] for j, z in enumerate(self.zs)], dim
        )
        if len(rows) != k:
            raise ValueError("periods must be linearly independent")
        sign = 1 if d > 0 else -1
        self.rows = rows
        self.det = sign * d
        self.adj = [[sign * row[dim + j] for row in a] for j in range(k)]
        self.kernel = []
        for free in range(dim):
            if free in rows:
                continue
            u = [0] * dim
            u[free] = self.det
            for r, row in zip(rows, a):
                u[r] = -sign * row[free]
            g = math.gcd(*u)
            self.kernel.append(tuple(x // g for x in u))
        # columns[i][j] = z_j[i], one (possibly empty) column per coordinate
        self.columns = [tuple(z[i] for z in self.zs) for i in range(dim)]

    def scaled(self, t: Sequence[int]) -> IntTuple:
        """adj * t[rows]: det times t's coefficients when t is in the span."""
        pivot = [t[r] for r in self.rows]
        return tuple(sum(map(mul, row, pivot)) for row in self.adj)

    def functionals(self, t: Sequence[int]) -> IntTuple:
        """The kernel functionals at t; all zero iff t is in the span."""
        return tuple(sum(map(mul, u, t)) for u in self.kernel)

    def solve(self, t: Sequence[int]) -> Optional[IntTuple]:
        """Coefficients x in N^k with sum x_j z_j = t, or None."""
        # called by `SimpleBundle.spans` (bundle subsumption), `linear_member`
        # and `nonneg_integer_solve`: loops that stop at the first failed
        # check run ~2.5x faster than building the full tuples
        for u in self.kernel:
            if sum(map(mul, u, t)):
                return None
        det = self.det
        pivot = [t[r] for r in self.rows]
        out = []
        for row in self.adj:
            c = sum(map(mul, row, pivot))
            if c < 0 or c % det:
                return None
            out.append(c // det)
        return tuple(out)

    def box_images(self, lo: int, hi: int) -> dict[IntTuple, list[IntTuple]]:
        """adj * u for every pivot tuple u in [lo..hi]^k, bucketed by its
        residues mod det: what `CosetIndex.box_points` reads, the same for
        every index over this lattice."""
        det = self.det
        images: dict[IntTuple, list[IntTuple]] = {}
        for u in product(range(lo, hi + 1), repeat=len(self.zs)):
            image = tuple(sum(map(mul, row, u)) for row in self.adj)
            images.setdefault(tuple(c % det for c in image), []).append(image)
        return images


class CosetIndex:
    """Point lookups for the simple bundle {w + N-combinations of zs : w
    in bases} on dense integer tuples, over the `PeriodLattice` of zs.

    Bases are grouped by their class modulo the lattice of zs (rational
    coset functionals plus residues of the scaled coordinates); inside a
    class only the Pareto-minimal coordinate tuples are kept, because a
    query succeeds iff some base sits coordinatewise below it.  So the
    kept bases are the minimal ones, which no other base reaches by
    adding periods.  With no periods every base is its own class.  The
    lattice is the caller's: indexes over equal periods share one.
    """

    def __init__(self, lattice: PeriodLattice, bases: Iterable[IntTuple]):
        self.lattice = lattice
        groups: dict[tuple, list[tuple[IntTuple, IntTuple]]] = {}
        for w in bases:
            key, coords = self._key_coords(w)
            groups.setdefault(key, []).append((coords, w))
        self.groups = {key: _pareto_min(entries) for key, entries in groups.items()}

    @property
    def det(self) -> int:
        return self.lattice.det

    def _key_coords(self, v: IntTuple) -> tuple[tuple, IntTuple]:
        lattice = self.lattice
        scaled = lattice.scaled(v)
        det = lattice.det
        return (lattice.functionals(v), tuple(c % det for c in scaled)), scaled

    def box_points(self, lo: int, hi: int, images: dict[IntTuple, list[IntTuple]]) -> set[IntTuple]:
        """Members of the indexed set inside the box [lo..hi]^dim.

        A member v = w + sum(c_i z_i) is fixed by its pivot coordinates
        u = v[rows], because adj * (u - w[rows]) = det * c.  So each
        Pareto-minimal base w tries every u in [lo..hi]^k once and keeps
        it when every det * c_i is a nonnegative multiple of det and v
        lies in the box: at most (hi - lo + 1)^k candidates per base.
        The images adj * u, bucketed by residues, are the lattice's
        (`PeriodLattice.box_images(lo, hi)`, made once by the caller, so
        that indexes over one lattice share them); a class's residue key
        selects the ones whose c is integral.
        """
        lattice = self.lattice
        det = lattice.det
        columns = lattice.columns
        found: set[IntTuple] = set()
        for (_kern, residues), entries in self.groups.items():
            candidates = images.get(residues, ())
            for base_coords, w in entries:
                for image in candidates:
                    scaled = tuple(map(sub, image, base_coords))
                    if any(c < 0 for c in scaled):
                        continue
                    # det * v = det * w + sum(scaled_j * z_j), divisible here
                    v = tuple(
                        (det * x + sum(map(mul, scaled, col))) // det
                        for x, col in zip(w, columns)
                    )
                    if all(lo <= x <= hi for x in v):
                        found.add(v)
        return found

    def lookup(self, v: IntTuple) -> Optional[tuple[IntTuple, IntTuple]]:
        """(base vector, coefficients) or None; the base has the least
        scaled coordinates, so the coefficients are lexicographically largest."""
        key, coords = self._key_coords(v)
        for base_coords, w in self.groups.get(key, ()):
            if all(b <= c for b, c in zip(base_coords, coords)):
                coeffs = tuple((c - b) // self.det for b, c in zip(base_coords, coords))
                return w, coeffs
        return None


def _pareto_min(entries: list[tuple[IntTuple, IntTuple]]) -> list[tuple[IntTuple, IntTuple]]:
    """Antichain of coordinatewise-minimal entries (coords, payload) of a
    non-empty list, in sorted order: an entry is kept unless an earlier
    one in that order sits coordinatewise below it (equal coords keep the
    least payload).
    Every entry below another comes earlier, so with 2 or 3 coordinates
    one sweep against the staircase of what it kept decides each entry."""
    k = len(entries[0][0])
    entries = sorted(entries)
    if k <= 1:
        return [entries[0]]
    if k == 2:
        out: list[tuple[IntTuple, IntTuple]] = []
        best = None
        for coords, w in entries:
            if best is None or coords[1] < best:
                out.append((coords, w))
                best = coords[1]
        return out
    out = []
    if k == 3:
        # the kept (y, z) pairs that no other kept pair sits below: y
        # ascending, z descending; every earlier x is at most this one's
        ys: list[int] = []
        zs: list[int] = []
        for coords, w in entries:
            _x, y, z = coords
            i = bisect_right(ys, y)
            if i and zs[i - 1] <= z:
                continue
            out.append((coords, w))
            lo = hi = bisect_left(ys, y)
            while hi < len(ys) and zs[hi] >= z:
                hi += 1
            ys[lo:hi] = [y]
            zs[lo:hi] = [z]
        return out
    for coords, w in entries:
        if not any(all(b <= c for b, c in zip(kept[0], coords)) for kept in out):
            out.append((coords, w))
    return out


def nonneg_integer_solve(periods: Sequence[Vec], v: Vec) -> Optional[list[int]]:
    """Coefficients n >= 0 in N with sum n_i * periods[i] = v, or None.

    Periods must be linearly independent, so the rational solution is
    unique; it is accepted only if it is integral and componentwise
    nonnegative.
    """
    symbols = _union_symbols(periods)
    lattice = PeriodLattice([p.to_tuple(symbols) for p in periods], len(symbols))
    if not set(symbols).issuperset(v.support()):
        return None
    sol = lattice.solve(v.to_tuple(symbols))
    return None if sol is None else list(sol)
