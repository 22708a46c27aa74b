"""Window-sweep decision procedures: inclusion, equivalence, disjointness,
and universality, decided inside an explicit box.

Equality, inclusion, and disjointness of two commutative languages over
a fixed alphabet are already determined by their restriction to a large
enough box, but the provable box size has a non-constructive constant
factor.  The sweeps here therefore take the window as a user parameter
and report the verdict *for that window*; `window_bound_report` surfaces
the computable bound ingredients so a caller can justify a choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Optional

from .decomposition import base_run_bound
from .grammar import Grammar
from .intlinalg import hadamard_bound
from .membership import (
    NON_MEMBER,
    GeneralMembership,
    IntTuple,
    _regular_state,
    oracle_language,
)
from .runs import tree_size_bound
from .vector import Vec

WINDOW_NOTE = (
    "a finite window determining the unrestricted verdict exists, but its "
    "constant factor is not computable from these quantities; pick the "
    "window explicitly and read every verdict as window-relative"
)

ENGINES = ("regular-dp", "general-caps", "oracle")

DESK_BOUND_CAP = 200


@dataclass(frozen=True)
class GrammarBounds:
    base_run: int
    cycle_size: int  # strict bound on simple cycle size
    coeff_bound: int  # determinant bound at the cycle norm


@dataclass(frozen=True)
class WindowBoundReport:
    left: GrammarBounds
    right: GrammarBounds
    note: str = WINDOW_NOTE


def _grammar_bounds(g: Grammar) -> GrammarBounds:
    gamma = tree_size_bound(len(g.nonterminals), g.is_regular())
    return GrammarBounds(
        base_run=base_run_bound(g).value,
        cycle_size=gamma,
        coeff_bound=hadamard_bound(len(g.alphabet), gamma),
    )


def window_bound_report(g1: Grammar, g2: Grammar) -> WindowBoundReport:
    """Computable bound ingredients for a pair of normal-form grammars."""
    if g1.alphabet != g2.alphabet:
        raise ValueError("grammars must share one alphabet")
    if not g1.is_normal_form() or not g2.is_normal_form():
        raise ValueError("grammars must be in normal form")
    return WindowBoundReport(_grammar_bounds(g1), _grammar_bounds(g2))


MemberFn = Callable[[IntTuple], Optional[bool]]  # dense tuple in; None = unknown


def membership_engine(
    g: Grammar,
    engine: str,
    window: int,
    bound: Optional[int] = None,
    run_cap: int = 10,
    cycle_cap: int = 8,
    depth: Optional[int] = None,
) -> tuple[MemberFn, str]:
    """Build a membership test on dense tuples (alphabet order) for the
    box [-window..window]^alphabet, plus a provenance note.

    regular-dp: exact up to its run bound (default min of the theoretical
    bound and a desk cap); a bounded no counts as no.  Its in-box members
    are enumerated once, on the `RegularMembership` shared through
    `_regular_state`, and answered by set lookup; the enumeration reads
    only the runs that can still be pumped into the box, and the state
    keeps the members of its last box, so the sweeps of one window
    enumerate once.  general-caps: sound yes, unknown otherwise (also
    when a run or cycle search stops at its state cap); one tuple-level
    match per point.  oracle: brute-force enumeration, exact only when
    every in-window vector derives within `depth` steps; its members
    become one tuple set.
    """
    if engine == "regular-dp":
        if bound is None:
            bound = min(base_run_bound(g).value, DESK_BOUND_CAP)
        state = _regular_state(g, bound)
        note = f"regular-dp with run bound {bound}" + (
            "" if bound >= state.complete_bound else " (below the completeness threshold)"
        )
        return state.box_members(-window, window).__contains__, note
    if engine == "general-caps":
        state = GeneralMembership(g, run_cap, cycle_cap)

        def general_fn(t: IntTuple) -> Optional[bool]:
            if state._match(t) is not None:
                return True
            return False if state._miss.status == NON_MEMBER else None

        return general_fn, f"general-caps with run cap {run_cap}, cycle cap {cycle_cap}"
    if engine == "oracle":
        if depth is None:
            depth = 4 * window + 4
        members = {v.to_tuple(g.alphabet) for v in oracle_language(g, depth, window)}
        return members.__contains__, f"oracle with depth {depth}, window {window}"
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def iter_window(
    alphabet: tuple[str, ...], window: int, nonneg: bool = False
) -> Iterator[IntTuple]:
    """Dense tuples of the box [-window..window]^alphabet (or
    [0..window]^alphabet) in lexicographic order."""
    lo = 0 if nonneg else -window
    return product(range(lo, window + 1), repeat=len(alphabet))


@dataclass(frozen=True)
class CompareResult:
    mode: str
    window: int
    verdict: Optional[bool]  # None = unknown
    witness: Optional[Vec]
    notes: tuple[str, ...]


def compare_within_window(
    g1: Grammar,
    g2: Grammar,
    window: int,
    mode: str = "inclusion",
    engine: str = "oracle",
    **engine_params,
) -> CompareResult:
    """Sweep the box [-window..window]^alphabet in lexicographic order.

    inclusion: every member of g1 is a member of g2; equivalence: both
    inclusions; disjointness: no common member.  The witness is the
    lexicographically least counterexample (or the least vector whose
    membership came back unknown when that blocks the verdict).
    """
    if g1.alphabet != g2.alphabet:
        raise ValueError("grammars must share one alphabet")
    if mode not in ("inclusion", "equivalence", "disjointness"):
        raise ValueError(f"unknown mode {mode!r}")
    f1, note1 = membership_engine(g1, engine, window, **engine_params)
    f2, note2 = membership_engine(g2, engine, window, **engine_params)
    notes = (note1, note2)
    alphabet = g1.alphabet
    unknown_at: Optional[IntTuple] = None
    for v in iter_window(alphabet, window):
        m1 = f1(v)
        m2 = f2(v)
        if mode == "inclusion":
            bad = m1 is True and m2 is False
            unk = (m1 is None and m2 is not True) or (m1 is True and m2 is None)
        elif mode == "equivalence":
            bad = (m1 is True and m2 is False) or (m2 is True and m1 is False)
            unk = m1 is None or m2 is None
        else:  # disjointness
            bad = m1 is True and m2 is True
            unk = (m1 is None and m2 is not False) or (m2 is None and m1 is not False)
        if bad:
            return CompareResult(mode, window, False, Vec.from_tuple(v, alphabet), notes)
        if unk and unknown_at is None:
            unknown_at = v
    if unknown_at is not None:
        return CompareResult(mode, window, None, Vec.from_tuple(unknown_at, alphabet), notes)
    return CompareResult(mode, window, True, None, notes)


@dataclass(frozen=True)
class UniversalityResult:
    ambient: str
    window: int
    verdict: Optional[bool]
    witness: Optional[Vec]
    notes: tuple[str, ...]


def universality_within_window(
    g: Grammar,
    window: int,
    ambient: str = "naturals",
    engine: str = "oracle",
    **engine_params,
) -> UniversalityResult:
    """Check that every vector of the ambient box is a member.

    ambient 'naturals' sweeps [0..window]^alphabet, 'integers' sweeps
    [-window..window]^alphabet; the witness is the least missing vector.
    """
    if ambient not in ("naturals", "integers"):
        raise ValueError(f"unknown ambient {ambient!r}")
    fn, note = membership_engine(g, engine, window, **engine_params)
    unknown_at: Optional[IntTuple] = None
    for v in iter_window(g.alphabet, window, nonneg=ambient == "naturals"):
        m = fn(v)
        if m is False:
            return UniversalityResult(
                ambient, window, False, Vec.from_tuple(v, g.alphabet), (note,)
            )
        if m is None and unknown_at is None:
            unknown_at = v
    if unknown_at is not None:
        return UniversalityResult(
            ambient, window, None, Vec.from_tuple(unknown_at, g.alphabet), (note,)
        )
    return UniversalityResult(ambient, window, True, None, (note,))
