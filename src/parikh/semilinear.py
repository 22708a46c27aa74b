"""Linear sets, simple bundles, and exact membership for them.

A linear set is base + nonnegative integer combinations of its periods;
a semilinear set is a finite union of linear sets; a simple bundle is a
finite base set plus linearly independent periods.  A simple bundle
answers membership through one `intlinalg.CosetIndex` of its bases over
its periods, built on first use.  Membership in a linear set with
arbitrary (possibly dependent) periods is decided exactly: any
representable vector is representable with all period coefficients
below the determinant bound except on an independent subset, so a
finite search over bounded assignments plus one exact solve per
independent core (a `PeriodLattice` on dense tuples) is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional

from .intlinalg import (
    CosetIndex,
    IntTuple,
    PeriodLattice,
    hadamard_bound,
    is_linearly_independent,
    maximal_independent_subsets,
)
from .vector import Vec


@dataclass(frozen=True)
class LinearSet:
    base: Vec
    periods: tuple[Vec, ...]


@dataclass(frozen=True)
class SimpleBundle:
    """Finite base set plus linearly independent periods."""

    bases: tuple[Vec, ...]
    periods: tuple[Vec, ...]

    def __post_init__(self):
        if not is_linearly_independent(list(self.periods)):
            raise ValueError("bundle periods must be linearly independent")

    def bounded_by(self, base_bound: int, period_bound: int) -> bool:
        return all(w.norm_inf() <= base_bound for w in self.bases) and all(
            p.norm_inf() <= period_bound for p in self.periods
        )

    @cached_property
    def _index(self) -> tuple[tuple[str, ...], CosetIndex]:
        """The bundle's letters, and its coset index on dense tuples of them."""
        letters = tuple(sorted({s for v in self.bases + self.periods for s in v.support()}))
        lattice = PeriodLattice([p.to_tuple(letters) for p in self.periods], len(letters))
        return letters, CosetIndex(lattice, [w.to_tuple(letters) for w in self.bases])

    def _dense(self, v: Vec) -> Optional[IntTuple]:
        """v on the bundle's letters; None when it uses another letter, so
        that it is neither a member nor a combination of the periods."""
        letters = self._index[0]
        return v.to_tuple(letters) if all(s in letters for s in v.support()) else None

    def member(self, v: Vec) -> bool:
        t = self._dense(v)
        return t is not None and self._index[1].lookup(t) is not None

    def spans(self, z: Vec) -> bool:
        """Whether z is a nonnegative integer combination of the periods."""
        t = self._dense(z)
        return t is not None and self._index[1].lattice.solve(t) is not None


@dataclass(frozen=True)
class SemilinearSet:
    components: tuple[LinearSet, ...]


def linear_member(ls: LinearSet, v: Vec) -> bool:
    """Exact membership in base + N-combinations of the periods.

    For every maximal independent subset of the periods, enumerate
    coefficient assignments up to the determinant bound H for the
    remaining periods and solve exactly on the subset.  Restricting to
    maximal subsets loses nothing: a solution over a smaller independent
    core reads back as a solution over any maximal superset.
    """
    target = v - ls.base
    periods = ls.periods
    if not periods:
        return target.is_zero()
    symbols = sorted({sym for p in periods for sym in p.support()})
    if not set(symbols).issuperset(target.support()):
        return False  # no period moves a letter the target needs
    coeff_bound = hadamard_bound(len(symbols), max(p.norm_inf() for p in periods))
    zs = [p.to_tuple(symbols) for p in periods]
    t = target.to_tuple(symbols)
    for core in maximal_independent_subsets(zs):
        lattice = PeriodLattice([zs[i] for i in core], len(symbols))
        rest = [zs[i] for i in range(len(zs)) if i not in core]
        for assignment in product(range(coeff_bound + 1), repeat=len(rest)):
            residue = t
            for z, c in zip(rest, assignment):
                if c:
                    residue = tuple(x - c * y for x, y in zip(residue, z))
            if lattice.solve(residue) is not None:
                return True
    return False


def semilinear_member(s: SemilinearSet, v: Vec) -> bool:
    return any(linear_member(component, v) for component in s.components)
