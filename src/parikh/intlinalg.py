"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision integers and `Fraction`s;
no floating point.  The module provides determinants (fraction-free
elimination), the factorial determinant bound, Cramer solutions,
rank/independence over the rationals, integer dependency discovery for
dependent vector sets, and the coefficient-reduction loop that caps all
multiplicities outside an independent core.  On dense integer tuples
it enumerates maximal independent subsets and solves nonnegative integer
combinations of independent periods (`PeriodLattice`), the kernel both
membership engines share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .vector import Vec

Row = Sequence[int]
IntTuple = tuple[int, ...]


def _check_square(m: Sequence[Row]) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def determinant(m: Sequence[Row]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = _check_square(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    det = determinant(m)
    if det == 0:
        return None
    sol = []
    for col in range(n):
        replaced = [[b[i] if j == col else m[i][j] for j in range(n)] for i in range(n)]
        sol.append(Fraction(determinant(replaced), det))
    return sol


def _column_matrix(vectors: Sequence[Vec], symbols: Sequence[str]) -> list[list[int]]:
    return [[v.get(s) for v in vectors] for s in symbols]


def _union_symbols(vectors: Sequence[Vec], extra: Sequence[Vec] = ()) -> list[str]:
    syms: set[str] = set()
    for v in list(vectors) + list(extra):
        syms.update(v.support())
    return sorted(syms)


def _reduced(echelon: Sequence[tuple[int, Sequence[int]]], v: Sequence[int]) -> list[int]:
    """Fraction-free reduction of v against echelon rows (pivot, row).

    The result is a nonzero multiple of v minus a rational combination of
    the rows, zero at every pivot; it is the zero vector iff v lies in
    their span.  Each step divides out the content, so entries stay small.
    """
    out = list(v)
    for p, row in echelon:
        x = out[p]
        if x:
            a = row[p]
            out = [a * y - x * r for y, r in zip(out, row)]
            g = math.gcd(*out)
            if g > 1:
                out = [y // g for y in out]
    return out


def _echelon_row(
    echelon: Sequence[tuple[int, Sequence[int]]], v: Sequence[int]
) -> Optional[tuple[int, list[int]]]:
    """The (pivot, row) that extends the echelon form by v, or None when v
    lies in the span of its rows."""
    row = _reduced(echelon, v)
    for p, x in enumerate(row):
        if x:
            return p, row
    return None


def _extend_echelon(echelon: list[tuple[int, list[int]]], v: Sequence[int]) -> bool:
    """Append v to the echelon form unless it is dependent; report which."""
    entry = _echelon_row(echelon, v)
    if entry is not None:
        echelon.append(entry)
    return entry is not None


def rank(vectors: Sequence[Vec], symbols: Optional[Sequence[str]] = None) -> int:
    """Rank over the rationals."""
    if not vectors:
        return 0
    if symbols is None:
        symbols = _union_symbols(vectors)
    echelon: list[tuple[int, list[int]]] = []
    for v in vectors:
        _extend_echelon(echelon, [v.get(s) for s in symbols])
    return len(echelon)


def is_linearly_independent(vectors: Sequence[Vec]) -> bool:
    return rank(vectors) == len(vectors)


def solve_exact(columns: Sequence[Vec], target: Vec) -> Optional[list[Fraction]]:
    """Solve sum_i x_i * columns[i] = target for linearly independent columns.

    Returns the unique rational coefficient list, or None if the system
    is inconsistent.  Raises ValueError on dependent columns.
    """
    if not is_linearly_independent(columns):
        raise ValueError("columns must be linearly independent")
    if not columns:
        return [] if target.is_zero() else None
    symbols = _union_symbols(columns, [target])
    a = [[Fraction(v.get(s)) for v in columns] for s in symbols]
    b = [Fraction(target.get(s)) for s in symbols]
    ncols = len(columns)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        b[r], b[pivot] = b[pivot], b[r]
        f = a[r][col]
        a[r] = [x / f for x in a[r]]
        b[r] = b[r] / f
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                g = a[i][col]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
                b[i] = b[i] - g * b[r]
        pivots.append(col)
        r += 1
    # full column rank was checked; rows beyond r must be consistent
    for i in range(r, len(a)):
        if b[i] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, col in enumerate(pivots):
        x[col] = b[row]
    return x


def nonneg_integer_solve(periods: Sequence[Vec], v: Vec) -> Optional[list[int]]:
    """Coefficients n >= 0 in N with sum n_i * periods[i] = v, or None.

    Periods must be linearly independent, so the rational solution is
    unique; it is accepted only if it is integral and componentwise
    nonnegative.
    """
    sol = solve_exact(list(periods), v)
    if sol is None:
        return None
    out = []
    for f in sol:
        if f.denominator != 1 or f < 0:
            return None
        out.append(int(f))
    return out


def _dependency_on_prefix(vectors: Sequence[Vec], symbols: Sequence[str]) -> Optional[list[Fraction]]:
    """If the last vector depends on the (independent) prefix, return the
    coefficients expressing it; None when the whole list is independent."""
    *prefix, last = vectors
    if not prefix:
        return [] if last.is_zero() else None
    try:
        return solve_exact(prefix, last)
    except ValueError:  # pragma: no cover - caller keeps prefixes independent
        raise


def find_integer_dependency(
    vectors: Sequence[Vec],
    entry_bound: Optional[int] = None,
    symbols: Optional[Sequence[str]] = None,
) -> list[int]:
    """Integer coefficients a with sum a_i * vectors[i] = 0 for a dependent set.

    The dependency is found on the first minimal dependent subset in
    input order and scaled through a unit-extended basis determinant, so
    every coefficient is bounded by hadamard_bound(dim, entry_bound).
    The first nonzero coefficient is normalized positive.
    """
    vectors = list(vectors)
    if symbols is None:
        symbols = _union_symbols(vectors)
    if entry_bound is None:
        entry_bound = max((v.norm_inf() for v in vectors), default=0)
    # locate the first vector dependent on the previous independent ones
    independent: list[Vec] = []
    indep_idx: list[int] = []
    dep_idx = None
    coeffs = None
    for i, v in enumerate(vectors):
        expr = _dependency_on_prefix(independent + [v], symbols)
        if expr is not None:
            dep_idx = i
            coeffs = expr
            break
        independent.append(v)
        indep_idx.append(i)
    if dep_idx is None:
        raise ValueError("vectors are linearly independent")

    # minimal dependent subset: the dependent vector plus the prefix
    # vectors that actually appear in its expression
    subset_idx = [j for j, c in zip(indep_idx, coeffs) if c != 0] + [dep_idx]
    beta = {j: c for j, c in zip(indep_idx, coeffs) if c != 0}
    beta[dep_idx] = Fraction(-1)

    if len(subset_idx) == 1:
        # a zero vector by itself
        alpha = [0] * len(vectors)
        alpha[dep_idx] = 1
        return alpha

    u_idx = max(subset_idx, key=lambda j: abs(beta[j]))
    rest_idx = [j for j in subset_idx if j != u_idx]
    rest = [vectors[j] for j in rest_idx]

    # extend to a basis of the coordinate space with unit vectors
    basis = list(rest)
    basis_syms: list[str] = []
    for s in symbols:
        if len(basis) == len(symbols):
            break
        candidate = Vec.unit(s)
        if is_linearly_independent(basis + [candidate]):
            basis.append(candidate)
            basis_syms.append(s)
    mat = _column_matrix(basis, symbols)
    det = determinant(mat)
    u = vectors[u_idx]
    alpha = [0] * len(vectors)
    alpha[u_idx] = det
    for pos, j in enumerate(rest_idx):
        replaced = list(basis)
        replaced[pos] = u
        alpha[j] = -determinant(_column_matrix(replaced, symbols))
    # sanity: the combination really vanishes
    total = Vec.zero()
    for j, a in enumerate(alpha):
        if a:
            total = total + vectors[j] * a
    if not total.is_zero():  # pragma: no cover - defensive
        raise AssertionError("integer dependency construction failed")
    first = next(a for a in alpha if a != 0)
    if first < 0:
        alpha = [-a for a in alpha]
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
        alpha_local = find_integer_dependency([vectors[i] for i in active], entry_bound, symbols)
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

    Depth-first over increasing index tuples, carrying the fraction-free
    echelon form of the chosen vectors, so each candidate costs one
    reduction instead of a fresh rank.  Over a sorted list of distinct
    vectors, index tuples sort the same way as the vector tuples they
    pick.
    """
    results: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], echelon: list, start: int) -> None:
        extended = False
        for i in range(start, len(vectors)):
            entry = _echelon_row(echelon, vectors[i])
            if entry is not None:
                extended = True
                extend(chosen + (i,), echelon + [entry], i + 1)
        # maximal unless a vector skipped before `start` still fits
        if not extended and not any(
            i not in chosen and _echelon_row(echelon, vectors[i]) is not None
            for i in range(start)
        ):
            results.append(chosen)

    extend((), [], 0)
    return sorted(results)


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
        rows = _pivot_rows(self.zs, dim)
        if len(rows) != len(self.zs):
            raise ValueError("periods must be linearly independent")
        det, adj = _det_adjugate([[z[r] for z in self.zs] for r in rows])
        if det < 0:
            det, adj = -det, [[-x for x in row] for row in adj]
        self.rows = rows
        self.det = det
        self.adj = adj
        self.kernel = _kernel_basis(self.zs, dim)

    def scaled(self, t: Sequence[int]) -> IntTuple:
        """adj * t[rows]: det times t's coefficients when t is in the span."""
        pivot = [t[r] for r in self.rows]
        return tuple(sum(map(mul, row, pivot)) for row in self.adj)

    def functionals(self, t: Sequence[int]) -> IntTuple:
        """The kernel functionals at t; all zero iff t is in the span."""
        return tuple(sum(map(mul, u, t)) for u in self.kernel)

    def solve(self, t: Sequence[int]) -> Optional[IntTuple]:
        """Coefficients x in N^k with sum x_j z_j = t, or None."""
        # the general engine's inner query: loops that stop at the first
        # failed check run ~2.5x faster than building the full tuples
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


def _pivot_rows(zs: Sequence[IntTuple], dim: int) -> list[int]:
    """Greedy coordinate choice giving a full-rank square block."""
    rows: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    for r in range(dim):
        if len(rows) == len(zs):
            break
        if _extend_echelon(echelon, [z[r] for z in zs]):
            rows.append(r)
    return rows


def _det_adjugate(square: list[list[int]]) -> tuple[int, list[list[int]]]:
    n = len(square)
    det = determinant(square)
    adj = [
        [
            (-1) ** (i + j)
            * determinant(
                [
                    [square[r][c] for c in range(n) if c != j]
                    for r in range(n)
                    if r != i
                ]
            )
            for i in range(n)
        ]
        for j in range(n)
    ]
    return det, adj


def _kernel_basis(zs: Sequence[IntTuple], dim: int) -> list[IntTuple]:
    """Integer basis of the functionals vanishing on every z."""
    m = [[Fraction(z[i]) for i in range(dim)] for z in zs]
    rank = 0
    pivots: list[int] = []
    for col in range(dim):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        f = m[rank][col]
        m[rank] = [x / f for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                g = m[i][col]
                m[i] = [x - g * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    free = [c for c in range(dim) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for row, pc in zip(m[:rank], pivots):
            vec[pc] = -row[fc]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        basis.append(tuple(int(x * lcm) for x in vec))
    return basis
