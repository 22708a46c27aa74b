"""Commutative grammars: data model, text format, and constructions.

A grammar has a terminal alphabet, a set of nonterminals, a start
nonterminal, and transitions ``source -> output : targets`` where
`output` is an integer letter vector (negative emissions allowed) and
`targets` is a nonterminal multiset.  Word order never matters here;
the language of a grammar is the set of letter-count vectors of its
complete derivations.

File format (UTF-8, line oriented, ``#`` starts a comment)::

    alphabet: a b        # ordered terminal declarations
    start: S
    S -> a : S           # one transition per line
    S -> :               # empty output, empty targets
    T -> a^2 b^-1 : T^2 U

Output and target fields use monomial syntax; every exponent of a
target factor must be positive, so `T^0` and `T T^-1` are rejected
rather than read as no target.  Nonterminals are not declared, they are
inferred from use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from .vector import Vec, format_monomial, is_name, parse_monomial


class GrammarError(ValueError):
    """Invalid grammar structure (validation failure)."""


class GrammarParseError(GrammarError):
    """Syntax or reference error in grammar text; carries a line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class Transition:
    """One rewriting rule: consume `source`, emit `output`, spawn `targets`.

    The id is stable bookkeeping (multisets reference it) and is excluded
    from structural equality.
    """

    tid: str = field(compare=False)
    source: str
    output: Vec
    targets: Vec

    def is_final(self) -> bool:
        return self.targets.is_zero()

    def __repr__(self) -> str:
        return (
            f"Transition({self.tid}: {self.source} -> "
            f"{format_monomial(self.output)} : {format_monomial(self.targets)})"
        )


@dataclass(frozen=True)
class Grammar:
    """Immutable commutative grammar.

    `alphabet` keeps declaration order (it fixes coordinate order for
    dense vector encodings); `nonterminals` is sorted.
    """

    alphabet: tuple[str, ...]
    nonterminals: tuple[str, ...]
    start: str
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        terms = set(self.alphabet)
        nts = set(self.nonterminals)
        if len(terms) != len(self.alphabet):
            raise GrammarError("duplicate terminal in alphabet")
        if len(nts) != len(self.nonterminals):
            raise GrammarError("duplicate nonterminal")
        clash = terms & nts
        if clash:
            raise GrammarError(f"terminal/nonterminal name clash: {sorted(clash)}")
        for name in list(terms) + list(nts):
            if not is_name(name):
                raise GrammarError(f"bad symbol name {name!r}")
        if self.start not in nts:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        seen_ids = set()
        for t in self.transitions:
            if t.tid in seen_ids:
                raise GrammarError(f"duplicate transition id {t.tid}")
            seen_ids.add(t.tid)
            if t.source not in nts:
                raise GrammarError(f"transition {t.tid}: unknown source {t.source!r}")
            for sym, _ in t.output:
                if sym not in terms:
                    raise GrammarError(f"transition {t.tid}: undeclared terminal {sym!r}")
            for sym, count in t.targets:
                if sym not in nts:
                    raise GrammarError(f"transition {t.tid}: unknown nonterminal {sym!r}")
                if count < 0:
                    raise GrammarError(f"transition {t.tid}: negative target multiplicity")

    def __getstate__(self) -> dict:
        # a pickle carries the grammar, not the engine states kept on it
        # nor the trimmed grammar they read
        state = dict(self.__dict__)
        state.pop("engine_states", None)
        state.pop("trimmed", None)
        return state

    @cached_property
    def compiled(self) -> CompiledGrammar:
        """Integer view for the search loops, built on first use and kept
        on this instance (so it lives and dies with the grammar)."""
        return CompiledGrammar(self)

    @cached_property
    def engine_states(self) -> dict:
        """Per engine name, the one state `membership` keeps for this
        grammar: on this instance, like `compiled`, so it dies with it."""
        return {}

    @cached_property
    def trimmed(self) -> Grammar:
        """This grammar without its useless nonterminals (`trim`), worked
        out once per grammar: an engine reads its threshold before the
        state that reads its tables is built."""
        return trim(self)

    def transition(self, tid: str) -> Transition:
        try:
            return self.transitions[self.compiled.tid_index[tid]]
        except KeyError:
            raise GrammarError(f"no transition with id {tid!r}") from None

    def transitions_from(self, q: str) -> tuple[Transition, ...]:
        cg = self.compiled
        i = cg.nt_index.get(q)
        return () if i is None else tuple(self.transitions[j] for j in cg.from_source[i])

    def is_regular(self) -> bool:
        return self._shape[0]

    def is_normal_form(self) -> bool:
        return self._shape[1]

    @cached_property
    def _shape(self) -> tuple[bool, bool]:
        """(regular, normal form), worked out once per grammar: the engines
        ask on every query, through `base_run_bound` among others."""
        return (
            all(t.targets.total() <= 1 and t.output.norm1() <= 1 for t in self.transitions),
            all(t.targets.total() <= 2 and t.output.norm1() <= 1 for t in self.transitions),
        )

    def is_positive(self) -> bool:
        return all(t.output.nonneg() for t in self.transitions)


# the run-size weight of a nonterminal without runs: more steps than any
# search has left (none gets near 2**62 levels)
NO_RUN = 1 << 62


class CompiledGrammar:
    """Dense integer view of one grammar.

    Letters are numbered in alphabet order, nonterminals in the order of
    `Grammar.nonterminals` (sorted) and transitions in grammar order, so
    "first id" means "first name" or "first rule" wherever the search
    loops break ties.  Per transition `i`:

    - `source[i]`: nonterminal id of its source;
    - `output[i]`: letter counts over the whole alphabet;
    - `delta[i]`: marking change over all nonterminals (targets minus
      the consumed source);
    - `targets[i]`: target nonterminal ids with multiplicity, ascending;
    - `target_count[i]`: number of targets.

    `from_source[q]` lists the ids of the transitions out of nonterminal
    id `q`, ascending.  `letter_sign[j]` says which way the rules move
    letter j: +1 when no rule emits it negatively and some positively,
    -1 the other way round, 0 when no rule emits it at all, and None
    when rules move it both ways.  A letter with a sign is one-way: no
    sum of emissions brings it back once it has passed a limit on that
    side (either side, for sign 0).  `Vec` stays the API type; this view
    is internal to the loops that would otherwise build a `Vec` per
    search state.  The least run sizes are worked out on first use, by
    the run and cycle searches, and the letter columns on the first
    `output_sum(counts)`, the letter vector of dense per-transition
    counts.
    """

    __slots__ = (
        "letters", "nonterminals", "tids", "nt_index", "tid_index",
        "source", "output", "delta", "targets", "target_count", "from_source",
        "letter_sign", "_columns", "_run_sizes",
    )

    def __init__(self, g: Grammar):
        self.letters = g.alphabet
        self.nonterminals = g.nonterminals
        self.tids = tuple(t.tid for t in g.transitions)
        self.nt_index = {q: i for i, q in enumerate(g.nonterminals)}
        self.tid_index = {tid: i for i, tid in enumerate(self.tids)}
        self.source = tuple(self.nt_index[t.source] for t in g.transitions)
        self.output = tuple(t.output.to_tuple(g.alphabet) for t in g.transitions)
        self.targets = tuple(
            tuple(sorted(self.nt_index[q] for q, c in t.targets for _ in range(c)))
            for t in g.transitions
        )
        self.delta = tuple(map(self._delta, self.source, self.targets))
        self.target_count = tuple(len(ts) for ts in self.targets)
        by_source: list[list[int]] = [[] for _ in g.nonterminals]
        for i, q in enumerate(self.source):
            by_source[q].append(i)
        self.from_source = tuple(tuple(ids) for ids in by_source)
        self.letter_sign = tuple(
            _sign_of({out[j] for out in self.output if out[j]})
            for j in range(len(self.letters))
        )
        self._columns: Optional[tuple] = None
        self._run_sizes: Optional[tuple] = None

    @property
    def least_run_sizes(self) -> tuple[Optional[int], ...]:
        """Per nonterminal id, the fewest transitions in a run from it, or
        None when it has no run (it is unproductive)."""
        return self._run_size_tables()[0]

    @property
    def run_size_weights(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The least run sizes as weights for the search loops, with
        `NO_RUN` for a nonterminal without runs: per nonterminal id its
        weight; per transition, its targets' weight sum less its source's
        weight, and its targets' largest weight (0 for a final rule)."""
        return self._run_size_tables()[1:]

    def _run_size_tables(self) -> tuple:
        """A run from q is one rule out of q plus a run from each of its
        targets, so the least run sizes are the least fixpoint of
        d(q) = min over rules of 1 + sum of d(targets).  Each round over
        the rules settles at least every nonterminal whose least run tree
        is one level deeper, so at most N + 1 rounds run."""
        if self._run_sizes is None:
            d: list[Optional[int]] = [None] * len(self.nonterminals)
            changed = True
            while changed:
                changed = False
                for q, ts in zip(self.source, self.targets):
                    sizes = [d[r] for r in ts]
                    if None not in sizes:
                        size = 1 + sum(sizes)
                        if d[q] is None or size < d[q]:
                            d[q] = size
                            changed = True
            weight = tuple(NO_RUN if x is None else x for x in d)
            target_weights = [[weight[r] for r in ts] for ts in self.targets]
            self._run_sizes = (
                tuple(d),
                weight,
                tuple(sum(ws) - weight[q] for q, ws in zip(self.source, target_weights)),
                tuple(max(ws, default=0) for ws in target_weights),
            )
        return self._run_sizes

    def _delta(self, source: int, targets: tuple[int, ...]) -> tuple[int, ...]:
        row = [0] * len(self.nonterminals)
        for r in targets:
            row[r] += 1
        row[source] -= 1
        return tuple(row)

    def counts(self, v: Vec) -> tuple[int, ...]:
        """Dense per-transition counts of a multiset keyed by transition id."""
        dense = [0] * len(self.tids)
        for tid, c in v:
            dense[self.tid_index[tid]] = c
        return tuple(dense)

    def output_sum(self, counts: Sequence[int]) -> tuple[int, ...]:
        """The letter counts, in alphabet order, of dense per-transition
        counts: the sum of counts[i] * output[i]."""
        if self._columns is None:
            # per letter, its count in each transition's output (no rules: empty)
            self._columns = tuple(zip(*self.output)) or ((),) * len(self.letters)
        return tuple(sum(map(mul, counts, col)) for col in self._columns)

    def multiset(self, counts: Sequence[int]) -> Vec:
        """The `Vec` of transition ids for dense per-transition counts."""
        return Vec(tuple((tid, c) for tid, c in zip(self.tids, counts) if c))


def _sign_of(moves: set[int]) -> Optional[int]:
    """The one way a letter moves, given its nonzero emissions (see
    `CompiledGrammar.letter_sign`)."""
    if not moves:
        return 0
    if min(moves) > 0:
        return 1
    if max(moves) < 0:
        return -1
    return None


def grammar_from_rules(
    alphabet: Sequence[str],
    start: str,
    rules: Iterable[tuple[str, Vec, Vec]],
) -> Grammar:
    """Build a grammar from (source, output, targets) triples.

    Transition ids are assigned t1, t2, ... in rule order; nonterminals
    are inferred from sources, targets, and the start symbol.
    """
    rules = list(rules)
    nts = {start}
    for src, _out, targets in rules:
        nts.add(src)
        nts.update(targets.support())
    transitions = tuple(
        Transition(f"t{i + 1}", src, out, targets) for i, (src, out, targets) in enumerate(rules)
    )
    return Grammar(tuple(alphabet), tuple(sorted(nts)), start, transitions)


def parse_grammar(text: str) -> Grammar:
    """Parse the grammar file format; see the module docstring.

    Each distinct output or target text is parsed once per call: rules
    that repeat a field text share its `Vec`."""
    alphabet: Optional[tuple[str, ...]] = None
    start: Optional[str] = None
    rules: list[tuple[str, Vec, Vec]] = []
    fields: dict[str, Vec] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise GrammarParseError("alphabet declared twice", lineno)
            names = line[len("alphabet:"):].split()
            for n in names:
                if not is_name(n):
                    raise GrammarParseError(f"bad terminal name {n!r}", lineno)
            alphabet = tuple(names)
            continue
        if line.startswith("start:"):
            if start is not None:
                raise GrammarParseError("start declared twice", lineno)
            names = line[len("start:"):].split()
            if len(names) != 1 or not is_name(names[0]):
                raise GrammarParseError("start: expects a single nonterminal name", lineno)
            start = names[0]
            continue
        if "->" not in line:
            raise GrammarParseError(f"expected a transition line, got {line!r}", lineno)
        head, _, rhs = line.partition("->")
        src = head.strip()
        if not is_name(src):
            raise GrammarParseError(f"bad source nonterminal {src!r}", lineno)
        if ":" not in rhs:
            raise GrammarParseError("transition is missing the ':' separator", lineno)
        out_text, _, tgt_text = rhs.partition(":")
        try:
            output = fields.get(out_text)
            if output is None:
                output = fields[out_text] = parse_monomial(out_text)
            targets = fields.get(tgt_text)
            if targets is None:
                targets = fields[tgt_text] = parse_monomial(tgt_text)
        except ValueError as e:
            raise GrammarParseError(str(e), lineno) from None
        # factor by factor: `T^0` and `T T^-1` sum to no target at all
        for tok in tgt_text.split():
            sym, caret, exp = tok.partition("^")
            if caret and int(exp) < 1:
                raise GrammarParseError(f"target {sym!r} needs a positive exponent", lineno)
        rules.append((src, output, targets))
    if alphabet is None:
        raise GrammarParseError("missing 'alphabet:' line")
    if start is None:
        raise GrammarParseError("missing 'start:' line")
    return grammar_from_rules(alphabet, start, rules)


def serialize_grammar(g: Grammar) -> str:
    """Canonical text for a grammar; reparses to a structurally equal value."""
    lines = [
        "alphabet: " + " ".join(g.alphabet) if g.alphabet else "alphabet:",
        f"start: {g.start}",
    ]
    for t in g.transitions:
        out = "" if t.output.is_zero() else " " + format_monomial(t.output, g.alphabet)
        tgt = "" if t.targets.is_zero() else " " + format_monomial(t.targets)
        lines.append(f"{t.source} ->{out} :{tgt}")
    return "\n".join(lines) + "\n"


def classify(g: Grammar) -> dict[str, bool]:
    """Classification flags: regular / normal_form / positive."""
    return {
        "regular": g.is_regular(),
        "normal_form": g.is_normal_form(),
        "positive": g.is_positive(),
    }


def trim(g: Grammar) -> Grammar:
    """g without its useless nonterminals, those no run from the start
    uses (Hopcroft and Ullman 1979, section 4.4), and without the rules
    that only they need.

    A nonterminal is kept when it is productive (some run starts there)
    and the start reaches it through rules whose targets are all
    productive; a rule is kept when its source is kept and its targets
    are all productive.  Every run from the start uses kept rules alone,
    so the language is g's.  When the start is unproductive it is kept
    alone, with no rules.  The kept rules are g's own `Transition`
    objects, ids included, so a multiset of the trimmed grammar's ids
    names g's transitions; g itself comes back when nothing is dropped.
    """
    rules = g.transitions
    # per rule, its distinct targets not yet known to be productive; a rule
    # with none left makes its source productive
    waiting = [len(t.targets.items()) for t in rules]
    uses: dict[str, list[int]] = {}
    for i, t in enumerate(rules):
        for q, _ in t.targets.items():
            uses.setdefault(q, []).append(i)
    productive: set[str] = set()
    ready = [i for i, n in enumerate(waiting) if not n]
    while ready:
        q = rules[ready.pop()].source
        if q not in productive:
            productive.add(q)
            for i in uses.get(q, ()):
                waiting[i] -= 1
                if not waiting[i]:
                    ready.append(i)
    # the start's search over the rules whose targets are all productive
    # (none, when the start is unproductive)
    usable: dict[str, list[Transition]] = {}
    for t, n in zip(rules, waiting):
        if not n:
            usable.setdefault(t.source, []).append(t)
    kept = {g.start}
    todo = [g.start]
    while todo:
        for t in usable.get(todo.pop(), ()):
            for q, _ in t.targets.items():
                if q not in kept:
                    kept.add(q)
                    todo.append(q)
    kept_rules = tuple(t for t, n in zip(rules, waiting) if not n and t.source in kept)
    if len(kept) == len(g.nonterminals) and len(kept_rules) == len(rules):
        return g
    return Grammar(g.alphabet, tuple(q for q in g.nonterminals if q in kept), g.start, kept_rules)


def _fresh_name(base: str, used: set[str]) -> str:
    k = 1
    while f"{base}__{k}" in used:
        k += 1
    name = f"{base}__{k}"
    used.add(name)
    return name


def normalize(g: Grammar) -> Grammar:
    """Convert to normal form (outputs of 1-norm <= 1, at most 2 targets).

    A violating transition is unrolled into a chain: each link emits at
    most one letter unit and hands at most one spawned nonterminal off,
    carrying the rest in a fresh continuation nonterminal named
    ``<source>__k``.  A rule with one target hands it to the last link,
    so a grammar whose rules have at most one target normalizes to a
    regular one.  Already-normal grammars are returned unchanged.  Fresh
    transition ids continue after the existing ones.
    """
    if g.is_normal_form():
        return g
    used_names = set(g.nonterminals) | set(g.alphabet)
    next_id = len(g.transitions) + 1
    out_rules: list[Transition] = []

    def fresh_rule(src: str, output: Vec, targets: Vec) -> None:
        nonlocal next_id
        out_rules.append(Transition(f"t{next_id}", src, output, targets))
        next_id += 1

    for t in g.transitions:
        if t.targets.total() <= 2 and t.output.norm1() <= 1:
            out_rules.append(t)
            continue
        # pending unit emissions in alphabet order, pending targets by name
        letters: list[Vec] = []
        for sym in g.alphabet:
            c = t.output.get(sym)
            if c:
                letters.extend([Vec.unit(sym, 1 if c > 0 else -1)] * abs(c))
        pending: list[str] = []
        for sym, count in t.targets:
            pending.extend([sym] * count)
        src = t.source
        # a single target waits for the last link, so a regular rule
        # unrolls into a regular chain
        peel = len(pending) > 1
        while len(letters) > 1 or len(pending) > 2:
            output = letters.pop(0) if letters else Vec.zero()
            carry = _fresh_name(t.source, used_names)
            step = {carry: 1}
            if peel and pending:
                peeled = pending.pop(0)
                step[peeled] = step.get(peeled, 0) + 1
            fresh_rule(src, output, Vec(step))
            src = carry
        counts: dict[str, int] = {}
        for sym in pending:
            counts[sym] = counts.get(sym, 0) + 1
        fresh_rule(src, letters[0] if letters else Vec.zero(), Vec(counts))

    nts = set(g.nonterminals) | {r.source for r in out_rules}
    for r in out_rules:
        nts.update(r.targets.support())
    return Grammar(g.alphabet, tuple(sorted(nts)), g.start, tuple(out_rules))


def negate_grammar(g: Grammar) -> Grammar:
    """Flip the sign of every transition output; structure and ids kept."""
    return Grammar(
        g.alphabet,
        g.nonterminals,
        g.start,
        tuple(Transition(t.tid, t.source, -t.output, t.targets) for t in g.transitions),
    )


def difference_grammar(g1: Grammar, g2: Grammar) -> Grammar:
    """Grammar whose language is {v1 - v2 : v1 in L(g1), v2 in L(g2)}.

    Both inputs must be regular.  g2 is negated and its nonterminals are
    renamed out of the way; every final transition of g1 keeps its output
    but is redirected to the start of the negated copy.
    """
    if not g1.is_regular() or not g2.is_regular():
        raise GrammarError("difference_grammar requires regular grammars")
    neg2 = negate_grammar(g2)
    alphabet = list(g1.alphabet) + [a for a in g2.alphabet if a not in g1.alphabet]
    used = set(alphabet) | set(g1.nonterminals)
    rename: dict[str, str] = {}
    for q in neg2.nonterminals:
        rename[q] = _fresh_name(q, used) if q in used else q
        used.add(rename[q])
    rules: list[tuple[str, Vec, Vec]] = []
    start2 = rename[neg2.start]
    for t in g1.transitions:
        if t.is_final():
            rules.append((t.source, t.output, Vec.unit(start2)))
        else:
            rules.append((t.source, t.output, t.targets))
    for t in neg2.transitions:
        targets = Vec((rename[q], c) for q, c in t.targets)
        rules.append((rename[t.source], t.output, targets))
    return grammar_from_rules(alphabet, g1.start, rules)
