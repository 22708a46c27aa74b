"""Window-sweep decision procedures: inclusion, equivalence, disjointness,
and universality, decided inside an explicit box.

Equality, inclusion, and disjointness of two commutative languages over
a fixed alphabet are already determined by their restriction to a large
enough box, but the provable box size has a non-constructive constant
factor.  The sweeps here therefore take the window as a user parameter
and report the verdict *for that window*; `window_bound_report` surfaces
the computable bound ingredients so a caller can justify a choice.

An engine state (`membership.engine`) answers a box as data: the box
points it accepts (`box_members`) plus one answer for every other point
(`miss`).  Each question is a three-valued function of those answers at
a point, so one sweep decides all four by visiting the members and only
the least box point outside every member set.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .grammar import Grammar, normalize
from .membership import IntTuple, engine
from .runs import BaseRunBound, base_run_bound
from .vector import Vec

WINDOW_NOTE = (
    "a finite window determining the unrestricted verdict exists, but its "
    "constant factor is not computable from these quantities; pick the "
    "window explicitly and read every verdict as window-relative"
)


@dataclass(frozen=True)
class WindowBoundReport:
    left: BaseRunBound
    right: BaseRunBound
    note: str = WINDOW_NOTE


def window_bound_report(g1: Grammar, g2: Grammar) -> WindowBoundReport:
    """Computable bound ingredients for a pair of grammars, each taken in
    normal form (`normalize`)."""
    if g1.alphabet != g2.alphabet:
        raise ValueError("grammars must share one alphabet")
    return WindowBoundReport(base_run_bound(normalize(g1)), base_run_bound(normalize(g2)))


def iter_window(
    alphabet: tuple[str, ...], window: int, nonneg: bool = False
) -> Iterator[IntTuple]:
    """Dense tuples of the box [-window..window]^alphabet (or
    [0..window]^alphabet) in lexicographic order."""
    lo = 0 if nonneg else -window
    return product(range(lo, window + 1), repeat=len(alphabet))


def _not(a: Optional[bool]) -> Optional[bool]:
    return None if a is None else not a


def _or(*xs: Optional[bool]) -> Optional[bool]:
    return True if True in xs else None if None in xs else False


def _and(*xs: Optional[bool]) -> Optional[bool]:
    return _not(_or(*map(_not, xs)))


# each question as a three-valued (Kleene) function of the answers at a point
_QUESTIONS = {
    "inclusion": lambda a, b: _or(_not(a), b),
    "equivalence": lambda a, b: _and(_or(_not(a), b), _or(_not(b), a)),
    "disjointness": lambda a, b: _not(_and(a, b)),
    "universality": lambda a: a,
}


@dataclass(frozen=True)
class WindowResult:
    question: str
    window: int
    verdict: Optional[bool]  # None = unknown
    witness: Optional[Vec]
    notes: tuple[str, ...]


def _sweep(question: str, grammars: tuple[Grammar, ...], window: int, name: str,
           engine_params: dict, nonneg: bool = False) -> WindowResult:
    """Decide `question` on the box [-window..window]^alphabet (or
    [0..window]^alphabet) from each grammar's engine state
    (`membership.engine`): its members of the box, and its `miss`, one
    answer for every other box point (None = unknown).  Every point
    outside all member sets gets the same answers, so only the members
    and the least box point outside them are decided, in lexicographic
    order; the witness is the first point decided no, else the first
    unknown."""
    alphabet = grammars[0].alphabet
    lo = 0 if nonneg else -window
    box = ((lo,) * len(alphabet), (window,) * len(alphabet))
    states = [engine(g, name, window, **engine_params) for g in grammars]
    answers = [(state.box_members(lo, window), state.miss(*box).verdict) for state in states]
    notes = tuple(state.note for state in states)
    union = frozenset().union(*(members for members, _rest in answers))
    points = sorted(union)
    outside = next((t for t in iter_window(alphabet, window, nonneg) if t not in union), None)
    if outside is not None:
        insort(points, outside)
    decide = _QUESTIONS[question]
    unknown_at: Optional[IntTuple] = None
    for t in points:
        verdict = decide(*(True if t in members else rest for members, rest in answers))
        if verdict is False:
            return WindowResult(question, window, False, Vec.from_tuple(t, alphabet), notes)
        if verdict is None and unknown_at is None:
            unknown_at = t
    if unknown_at is not None:
        return WindowResult(question, window, None, Vec.from_tuple(unknown_at, alphabet), notes)
    return WindowResult(question, window, True, None, notes)


def compare_within_window(
    g1: Grammar,
    g2: Grammar,
    window: int,
    mode: str = "inclusion",
    engine: str = "oracle",
    **engine_params,
) -> WindowResult:
    """Decide `mode` on the box [-window..window]^alphabet.

    inclusion: every member of g1 is a member of g2; equivalence: both
    inclusions; disjointness: no common member.  The witness is the
    lexicographically least counterexample (or the least vector whose
    membership came back unknown when that blocks the verdict).
    """
    if g1.alphabet != g2.alphabet:
        raise ValueError("grammars must share one alphabet")
    if mode not in ("inclusion", "equivalence", "disjointness"):
        raise ValueError(f"unknown mode {mode!r}")
    return _sweep(mode, (g1, g2), window, engine, engine_params)


def universality_within_window(
    g: Grammar,
    window: int,
    ambient: str = "naturals",
    engine: str = "oracle",
    **engine_params,
) -> WindowResult:
    """Check that every vector of the ambient box is a member.

    ambient 'naturals' decides [0..window]^alphabet, 'integers'
    [-window..window]^alphabet; the witness is the least missing vector.
    """
    if ambient not in ("naturals", "integers"):
        raise ValueError(f"unknown ambient {ambient!r}")
    return _sweep("universality", (g,), window, engine, engine_params, ambient == "naturals")
