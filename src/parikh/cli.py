"""Command-line front end.

Decision commands (member, compare, universal) print exactly one
``VERDICT <true|false|unknown> WITNESS <monomial|->`` line on stdout and
exit 0 / 1 / 2 for true / false / unknown-or-truncated.  Transformation
and generation commands print their artifact (grammar text, multisets,
bundle blocks) on stdout.  Usage errors exit 64, bad input files 65.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import bundles as bundles_mod
from . import decomposition, hardness, membership, windows
from .grammar import (
    GrammarError,
    classify,
    normalize,
    parse_grammar,
    serialize_grammar,
)
from .runs import (
    SearchCapExceeded,
    base_run_bound,
    enumerate_simple_cycles,
    format_multiset,
    order_subrun,
    parse_multiset,
)
from .vector import MonomialError, Vec, format_monomial, parse_monomial

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_INPUT = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_grammar(path: str):
    return parse_grammar(_read(path))


def _verdict(result: Optional[bool], witness: Optional[Vec], alphabet=None) -> int:
    word = "true" if result else ("unknown" if result is None else "false")
    shown = "-" if witness is None else format_monomial(witness, alphabet)
    print(f"VERDICT {word} WITNESS {shown}")
    return EXIT_TRUE if result else (EXIT_UNKNOWN if result is None else EXIT_FALSE)


def _window_verdict(res: windows.WindowResult, alphabet) -> int:
    """A window sweep's notes on stderr, then its verdict line."""
    for note in res.notes:
        print(note, file=sys.stderr)
    return _verdict(res.verdict, res.witness, alphabet)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _nonneg_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonneg_pair(names: str, example: str):
    """Argument type for a flag taking two nonnegative integers `a,b`."""

    def parse(text: str) -> tuple[int, int]:
        parts = text.split(",")
        try:
            pair = tuple(int(x) for x in parts)
        except ValueError:
            pair = ()
        if len(pair) != 2 or min(pair) < 0:
            raise argparse.ArgumentTypeError(
                f"expected {names} as two nonnegative integers like {example}, got {text!r}"
            )
        return pair[0], pair[1]

    return parse


def _moduli(text: str) -> list[int]:
    """Argument type for `--primes`: comma separated integers that
    `hardness.check_moduli` accepts."""
    try:
        moduli = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers like 2,3,5, got {text!r}") from None
    try:
        hardness.check_moduli(moduli)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return moduli


_caps_pair = _nonneg_pair("run,cycle", "10,8")
_oracle_pair = _nonneg_pair("depth,window", "20,8")


@functools.cache  # built on first use, then shared: parse_args keeps no state
def _build_parser() -> _Parser:
    top = _Parser(prog="parikh", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a grammar file and reprint it canonically")
    p.add_argument("grammar")

    p = sub.add_parser("normalize", help="print the normal form of a grammar")
    p.add_argument("grammar")

    p = sub.add_parser("classify", help="print the regular/normal-form/positive flags")
    p.add_argument("grammar")

    p = sub.add_parser("member", help="decide membership of a letter vector")
    p.add_argument("grammar")
    p.add_argument("vector", help="monomial, e.g. 'a^3 b^-2'")
    p.add_argument(
        "--bound", type=_positive_int, default=None, help="run bound for the regular engine"
    )
    p.add_argument(
        "--caps", type=_caps_pair, default=None, help="run,cycle caps for the general engine"
    )
    p.add_argument(
        "--oracle", type=_oracle_pair, default=None, help="depth,window for the enumeration engine"
    )

    p = sub.add_parser("oracle", help="enumerate derivable vectors by brute force")
    p.add_argument("grammar")
    p.add_argument("--depth", type=_nonneg_int, required=True)
    p.add_argument("--window", type=_nonneg_int, required=True)

    p = sub.add_parser("order", help="order a subrun into a firable sequence")
    p.add_argument("grammar")
    p.add_argument("multiset", help="e.g. 't1*3 t2*1'")
    p.add_argument("--source", default=None, help="source marking monomial; default [start]")
    p.add_argument("--target", default="1", help="target marking monomial; default empty")

    p = sub.add_parser("decompose", help="decompose a run into base run plus cycles")
    p.add_argument("grammar")
    p.add_argument("multiset")
    p.add_argument("--root", default=None, help="run start nonterminal; default grammar start")

    p = sub.add_parser("cycles", help="list simple cycles from a nonterminal")
    p.add_argument("grammar")
    p.add_argument("--at", required=True, help="anchoring nonterminal")
    p.add_argument("--cap", type=_nonneg_int, default=None, help="cycle size cap")

    p = sub.add_parser("bundles", help="bundle representation of the language")
    p.add_argument("grammar")
    p.add_argument("--run-cap", type=_positive_int, required=True)
    p.add_argument("--two-letter", action="store_true", help="use the two-letter construction")
    p.add_argument("--cycle-cap", type=_nonneg_int, default=None)
    p.add_argument("--fold-cap", type=_nonneg_int, default=None)

    p = sub.add_parser("compare", help="window-sweep inclusion/equivalence/disjointness")
    p.add_argument("grammar1")
    p.add_argument("grammar2")
    p.add_argument("--mode", choices=("include", "equiv", "disjoint"), required=True)
    p.add_argument("--window", type=_nonneg_int, required=True)
    p.add_argument("--engine", choices=membership.ENGINES, default="oracle")
    p.add_argument("--bound", type=_positive_int, default=None)
    p.add_argument("--caps", type=_caps_pair, default=None)
    p.add_argument("--depth", type=_nonneg_int, default=None)

    p = sub.add_parser("universal", help="window-sweep universality")
    p.add_argument("grammar")
    p.add_argument("--window", type=_nonneg_int, required=True)
    p.add_argument("--ambient", choices=("nat", "int"), default="nat")
    p.add_argument("--engine", choices=membership.ENGINES, default="oracle")
    p.add_argument("--bound", type=_positive_int, default=None)
    p.add_argument("--caps", type=_caps_pair, default=None)
    p.add_argument("--depth", type=_nonneg_int, default=None)

    p = sub.add_parser("bound-report", help="computable window-bound ingredients for a pair")
    p.add_argument("grammar1")
    p.add_argument("grammar2")

    gen = sub.add_parser("gen", help="generate hard instances").add_subparsers(
        dest="family", required=True
    )
    p = gen.add_parser("hard", help="staircase family with exponential hulls")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--variant", choices=("full", "stripped", "cone"), default="full")
    p = gen.add_parser("qsat2", help="quantified-CNF inclusion/universality encodings")
    p.add_argument("--formula", required=True)
    p.add_argument("--side", choices=("s1", "s2"), default=None)
    p.add_argument("--universality", action="store_true")
    p = gen.add_parser("sat-unary", help="unary residue encoding of satisfiability")
    p.add_argument("--formula", required=True)
    p.add_argument("--primes", type=_moduli, required=True,
                   help="comma separated, one per variable, pairwise coprime")
    p = gen.add_parser("ham", help="Hamiltonian circuit membership encoding")
    p.add_argument("--graph", required=True)
    p.add_argument("--start", required=True)
    return top


# per size flag: the engine that reads it, and the `membership.engine`
# keywords it sets
_SIZE_FLAGS = {
    "--bound": ("regular-dp", ("bound",)),
    "--caps": ("general-caps", ("run_cap", "cycle_cap")),
    "--depth": ("oracle", ("depth",)),
    "--oracle": ("oracle", ("depth", "window")),
}


def _engine_params(args, engine: str) -> dict:
    """`membership.engine` keywords from the size flags given; names on
    stderr the flags that `engine` does not read."""
    params, ignored = {}, []
    for flag, (reader, keys) in _SIZE_FLAGS.items():
        value = getattr(args, flag[2:], None)
        if value is not None:
            params.update(zip(keys, value if isinstance(value, tuple) else (value,)))
            if reader != engine:
                ignored.append(flag)
    _note_unused(ignored, f"by the {engine} engine")
    return params


def _note_unused(flags: list[str], when: str) -> None:
    """Names on stderr the flags given that are not used `when`."""
    if flags:
        verb = "is" if len(flags) == 1 else "are"
        print(f"note: {', '.join(flags)} {verb} not used {when}", file=sys.stderr)


def _cmd_member(args) -> int:
    g = _load_grammar(args.grammar)
    v = parse_monomial(args.vector)
    if not args.oracle:
        g = normalize(g)  # regular-dp runs on a grammar that is regular once normalized
    name = "oracle" if args.oracle else (
        "general-caps" if args.caps or not g.is_regular() else "regular-dp")
    res = membership.engine(g, name, **_engine_params(args, name)).result(v, want_witness=False)
    if res.verdict is None and res.note:
        print(res.note, file=sys.stderr)
    return _verdict(res.verdict, v if res.verdict else None, g.alphabet)


def _cmd_compare(args) -> int:
    g1 = _load_grammar(args.grammar1)
    g2 = _load_grammar(args.grammar2)
    mode = {"include": "inclusion", "equiv": "equivalence", "disjoint": "disjointness"}[args.mode]
    res = windows.compare_within_window(
        g1, g2, args.window, mode, engine=args.engine, **_engine_params(args, args.engine)
    )
    return _window_verdict(res, g1.alphabet)


def _cmd_universal(args) -> int:
    g = _load_grammar(args.grammar)
    ambient = "naturals" if args.ambient == "nat" else "integers"
    res = windows.universality_within_window(
        g, args.window, ambient, engine=args.engine, **_engine_params(args, args.engine)
    )
    return _window_verdict(res, g.alphabet)


def _cmd_gen(args) -> int:
    if args.family == "hard":
        g = hardness.hard_grammar(args.n, args.variant)
    elif args.family == "qsat2":
        f = hardness.parse_formula(_read(args.formula))
        if args.universality:
            g = hardness.qsat_universality_instance(f)
        else:
            g1, g2 = hardness.qsat_inclusion_instance(f)
            g = g2 if args.side == "s2" else g1
    elif args.family == "sat-unary":
        f = hardness.parse_formula(_read(args.formula))
        g = hardness.unary_sat_universality_instance(f, args.primes)
    else:
        graph = hardness.parse_graph(_read(args.graph))
        g, v = hardness.hamiltonian_membership_instance(graph, args.start)
        print(f"# target: {format_monomial(v, g.alphabet)}")
    sys.stdout.write(serialize_grammar(g))
    return EXIT_TRUE


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SearchCapExceeded as e:
        print(f"truncated: {e}", file=sys.stderr)
        return EXIT_UNKNOWN


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "parse":
        sys.stdout.write(serialize_grammar(_load_grammar(args.grammar)))
        return EXIT_TRUE
    if cmd == "normalize":
        sys.stdout.write(serialize_grammar(normalize(_load_grammar(args.grammar))))
        return EXIT_TRUE
    if cmd == "classify":
        flags = classify(_load_grammar(args.grammar))
        for name in ("regular", "normal_form", "positive"):
            print(f"{name}: {'true' if flags[name] else 'false'}")
        return EXIT_TRUE
    if cmd == "member":
        return _cmd_member(args)
    if cmd == "oracle":
        g = _load_grammar(args.grammar)
        members = membership.oracle_language(g, args.depth, args.window)
        for v in sorted(members, key=Vec.sort_key):
            print(format_monomial(v, g.alphabet))
        if not members.exhausted:
            print(f"note: the oracle search was cut at depth {args.depth}; "
                  "the list may be incomplete", file=sys.stderr)
        return EXIT_TRUE
    if cmd == "order":
        g = _load_grammar(args.grammar)
        ms = parse_multiset(g, args.multiset)
        src = parse_monomial(args.source) if args.source else Vec.unit(g.start)
        dst = parse_monomial(args.target)
        print(" ".join(order_subrun(ms, src, dst)) or "-")
        return EXIT_TRUE
    if cmd == "decompose":
        g = _load_grammar(args.grammar)
        ms = parse_multiset(g, args.multiset)
        root = args.root or g.start
        dec = decomposition.decompose_run(g, ms, root)
        print(f"base: {format_multiset(dec.base_run)}")
        for term in dec.cycles:
            print(f"cycle: {format_multiset(term.cycle)} anchor {term.anchor} count {term.count}")
        return EXIT_TRUE
    if cmd == "cycles":
        g = _load_grammar(args.grammar)
        full = base_run_bound(g).cycle_size - 1
        cap = args.cap if args.cap is not None else full
        for ms in enumerate_simple_cycles(g, args.at, cap):
            print(format_multiset(ms))
        if cap < full:
            print(f"truncated: cap {cap} below the completeness bound {full}", file=sys.stderr)
            return EXIT_UNKNOWN
        return EXIT_TRUE
    if cmd == "bundles":
        g = _load_grammar(args.grammar)
        # a cap not given keeps `two_letter_bundles`' default
        caps = {"cycle_cap": args.cycle_cap, "fold_cap": args.fold_cap}
        given = {key: cap for key, cap in caps.items() if cap is not None}
        if args.two_letter:
            result = bundles_mod.two_letter_bundles(g, args.run_cap, **given)
        else:
            _note_unused(["--" + key.replace("_", "-") for key in given], "without --two-letter")
            result = bundles_mod.regular_bundles(g, args.run_cap)
        blocks = []
        for b in result.bundles:
            lines = [f"W: {format_monomial(w, g.alphabet)}" for w in b.bases]
            lines += [f"P: {format_monomial(p, g.alphabet)}" for p in b.periods]
            blocks.append("\n".join(lines))
        print("\n\n".join(blocks))
        if result.truncated:
            print("truncated: caps below the completeness bounds", file=sys.stderr)
            return EXIT_UNKNOWN
        return EXIT_TRUE
    if cmd == "compare":
        return _cmd_compare(args)
    if cmd == "universal":
        return _cmd_universal(args)
    if cmd == "bound-report":
        g1 = _load_grammar(args.grammar1)
        g2 = _load_grammar(args.grammar2)
        report = windows.window_bound_report(g1, g2)
        for side, gb in (("g1", report.left), ("g2", report.right)):
            print(f"{side}.base_run_bound: {gb.value}")
            print(f"{side}.cycle_size_bound: {gb.cycle_size}")
            print(f"{side}.coeff_bound: {gb.coeff_bound}")
        print(f"note: {report.note}")
        return EXIT_TRUE
    if cmd == "gen":
        return _cmd_gen(args)
    raise AssertionError(f"unhandled command {cmd}")  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(argv)
    except (GrammarError, MonomialError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
