"""Integer symbol vectors and the monomial text syntax.

`Vec` is an immutable mapping from symbol names to integers with zero
entries omitted.  It does triple duty in this package: letter-count
vectors (entries may be negative), nonterminal multisets (entries
nonnegative), and transition-use multisets keyed by transition id.

Monomial syntax, shared by grammar files and the command line:
space-separated factors `sym` or `sym^k` with integer exponent k
(default 1), e.g. ``a^3 b^-2``.  The empty product is written ``1``.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Iterator, Optional, Sequence, Union

EntriesLike = Union[Mapping[str, int], Iterable[tuple[str, int]], None]


class MonomialError(ValueError):
    """Malformed monomial text."""


def is_name(s: str) -> bool:
    """True if `s` is a legal symbol name: an ASCII identifier, a letter
    or underscore followed by letters, digits and underscores."""
    return s.isascii() and s.isidentifier()


class Vec:
    """Immutable integer-valued vector over named symbols.

    Zero entries are never stored, so two vectors are equal iff they
    agree on every symbol.  Supports addition, subtraction, negation,
    integer scaling, componentwise comparison, and the 1- and max-norms.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, entries: EntriesLike = None):
        # dicts are most of the builds; test for them before the ABC check
        if type(entries) is dict:
            pairs: Iterable[tuple[str, int]] = entries.items()
        elif entries is None:
            pairs = ()
        elif isinstance(entries, Mapping):
            pairs = entries.items()
        else:
            pairs = entries
        acc: dict[str, int] = {}
        for sym, count in pairs:
            c = acc.get(sym, 0) + int(count)
            if c:
                acc[sym] = c
            elif sym in acc:
                del acc[sym]
        self._items = tuple(sorted(acc.items()))
        self._hash = hash(self._items)

    @staticmethod
    def zero() -> "Vec":
        return _ZERO

    @staticmethod
    def unit(sym: str, count: int = 1) -> "Vec":
        return Vec(((sym, count),))

    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    def to_dict(self) -> dict[str, int]:
        return dict(self._items)

    def get(self, sym: str) -> int:
        for s, c in self._items:
            if s == sym:
                return c
        return 0

    __getitem__ = get

    def support(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self._items)

    def is_zero(self) -> bool:
        return not self._items

    def __bool__(self) -> bool:
        return bool(self._items)

    def nonneg(self) -> bool:
        return all(c >= 0 for _, c in self._items)

    def norm1(self) -> int:
        return sum(abs(c) for _, c in self._items)

    def norm_inf(self) -> int:
        return max((abs(c) for _, c in self._items), default=0)

    def total(self) -> int:
        """Signed sum of all entries (multiset cardinality when nonneg)."""
        return sum(c for _, c in self._items)

    def __add__(self, other: "Vec") -> "Vec":
        if not isinstance(other, Vec):
            return NotImplemented
        d = dict(self._items)
        for s, c in other._items:
            d[s] = d.get(s, 0) + c
        return Vec(d)

    def __sub__(self, other: "Vec") -> "Vec":
        if not isinstance(other, Vec):
            return NotImplemented
        d = dict(self._items)
        for s, c in other._items:
            d[s] = d.get(s, 0) - c
        return Vec(d)

    def __neg__(self) -> "Vec":
        return Vec(tuple((s, -c) for s, c in self._items))

    def __mul__(self, k: int) -> "Vec":
        if not isinstance(k, int):
            return NotImplemented
        return Vec(tuple((s, c * k) for s, c in self._items))

    __rmul__ = __mul__

    def __le__(self, other: "Vec") -> bool:
        """Componentwise <= over the union of supports."""
        if not isinstance(other, Vec):
            return NotImplemented
        mine = dict(self._items)
        theirs = dict(other._items)
        return all(mine.get(s, 0) <= theirs.get(s, 0) for s in set(mine) | set(theirs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vec) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return self._items

    def restrict(self, symbols: Sequence[str]) -> "Vec":
        """Projection onto the given symbols; everything else dropped."""
        keep = set(symbols)
        return Vec(tuple((s, c) for s, c in self._items if s in keep))

    def to_tuple(self, order: Sequence[str]) -> tuple[int, ...]:
        d = dict(self._items)
        return tuple(d.get(s, 0) for s in order)

    @staticmethod
    def from_tuple(values: Sequence[int], order: Sequence[str]) -> "Vec":
        return Vec(tuple(zip(order, values)))

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._items)

    def __repr__(self) -> str:
        return f"Vec({format_monomial(self)!r})"


_ZERO = Vec()


def parse_monomial(text: str) -> Vec:
    """Parse monomial syntax into a Vec.

    Accepts `sym`, `sym^k`, repeated factors (exponents add), the empty
    string, and the token `1` for the empty product.
    """
    entries: list[tuple[str, int]] = []
    for tok in text.split():
        if tok == "1":
            continue
        name, caret, exp = tok.partition("^")
        if not is_name(name):
            raise MonomialError(f"bad symbol name {name!r} in monomial {text!r}")
        if caret:
            try:
                k = int(exp)
            except ValueError:
                raise MonomialError(f"bad exponent {exp!r} in monomial {text!r}") from None
        else:
            k = 1
        entries.append((name, k))
    return Vec(entries)


def format_monomial(v: Vec, order: Optional[Sequence[str]] = None) -> str:
    """Render a Vec in monomial syntax; the zero vector renders as `1`."""
    if v.is_zero():
        return "1"
    if order is None:
        items = v.items()
    else:
        d = v.to_dict()
        items = tuple((s, d.pop(s)) for s in order if s in d)
        items += tuple(sorted(d.items()))
    return " ".join(s if c == 1 else f"{s}^{c}" for s, c in items)
