"""Linear sets, simple bundles, and exact membership for them.

A linear set is base + nonnegative integer combinations of its periods;
a semilinear set is a finite union of linear sets; a simple bundle is a
finite base set plus linearly independent periods.  Membership in a
linear set with arbitrary (possibly dependent) periods is decided
exactly: any representable vector is representable with all period
coefficients below the determinant bound except on an independent
subset, so a finite search over bounded assignments plus one exact
solve per independent core is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Optional

from .intlinalg import (
    hadamard_bound,
    is_linearly_independent,
    maximal_independent_subsets,
    period_solver,
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
    def solve(self) -> Callable[[Vec], Optional[tuple[int, ...]]]:
        """Coefficients in N^k of a vector over the periods, or None."""
        return period_solver(self.periods)

    def member(self, v: Vec) -> bool:
        return any(self.solve(v - w) is not None for w in self.bases)


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
    dims = {s for p in periods for s in p.support()} | set(target.support())
    coeff_bound = hadamard_bound(len(dims), max(p.norm_inf() for p in periods))
    symbols = sorted({sym for p in periods for sym in p.support()})
    for core in maximal_independent_subsets([p.to_tuple(symbols) for p in periods]):
        solve = period_solver([periods[i] for i in core])
        rest = [i for i in range(len(periods)) if i not in core]
        for assignment in product(range(coeff_bound + 1), repeat=len(rest)):
            residue = target
            for i, c in zip(rest, assignment):
                if c:
                    residue = residue - periods[i] * c
            if solve(residue) is not None:
                return True
    return False


def semilinear_member(s: SemilinearSet, v: Vec) -> bool:
    return any(linear_member(component, v) for component in s.components)
