"""Executing instances (timed) and checking their verdicts (untimed).

`execute` answers one instance through the package's public entry
points, looked up on their modules at call time so that traced passes
see the wrapped versions.  `check` runs after the timed loop and sorts
each outcome into "ok" (a correct definite verdict), "undecided" (the
engine answered unknown) or "failed" (a wrong definite verdict, a
witness that does not re-check, a crash, or an unexpected exit code).
"""

from __future__ import annotations

import io
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from parikh import Vec, bundles, cli, decomposition, membership, runs, semilinear, windows
from parikh.vector import parse_monomial

EXIT_WORDS = {0: "true", 1: "false", 2: "unknown"}
VERDICT_LINE = re.compile(r"VERDICT (true|false|unknown) WITNESS (.+)")
WITNESS_ON_TRUE = {"sat", "ham", "unary-member", "regular-member"}


@dataclass
class Outcome:
    verdict: Optional[bool]  # None: unknown
    payload: Any = None
    crash: Optional[str] = None


class Engines:
    """Engines built by the first instance that needs them; the build is
    timed as part of that instance."""

    def __init__(self):
        self.built: dict[str, Any] = {}

    def get(self, key: str, build):
        if key not in self.built:
            self.built[key] = build()
        return self.built[key]


def _status_verdict(status: str) -> Optional[bool]:
    if status == membership.MEMBER:
        return True
    if status == membership.NON_MEMBER:
        return False
    return None


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue()


def _bundle_member(result, v: Vec) -> Optional[bool]:
    for b in result.bundles:
        for w in b.bases:
            if semilinear.linear_member(semilinear.LinearSet(w, b.periods), v):
                return True
    return None if result.truncated else False


def _execute(inst, engines: Engines) -> Outcome:
    a = inst.args
    kind = inst.kind
    if kind == "compare":
        res = windows.compare_within_window(
            a["g1"], a["g2"], a["window"], a["mode"], engine="regular-dp")
        return Outcome(res.verdict, res.witness)
    if kind == "universal":
        res = windows.universality_within_window(
            a["g"], a["window"], a["ambient"], engine="regular-dp")
        return Outcome(res.verdict, res.witness)
    if "argv" in a:
        code, text = _run_cli(a["argv"])
        return Outcome(None, (code, text))
    if kind == "general-member":
        g = a["grammar"]
        engine = engines.get(a["key"], lambda: membership.GeneralMembership(g, *a["caps"]))
        res = engine.result(Vec.from_tuple(a["vector"], g.alphabet))
        return Outcome(_status_verdict(res.status), res.witness)
    if kind == "bundle-member":
        g = a["grammar"]
        result = engines.get(a["key"], lambda: bundles.two_letter_bundles(g, a["run_cap"]))
        return Outcome(_bundle_member(result, Vec.from_tuple(a["vector"], g.alphabet)))
    if kind == "decompose":
        g = a["grammar"]
        return Outcome(True, decomposition.decompose_run(g, a["run"], g.start))
    if kind == "order":
        g = a["grammar"]
        return Outcome(True, runs.order_subrun(a["run"], Vec.unit(g.start), Vec.zero()))
    if kind == "cycles":
        return Outcome(True, runs.enumerate_simple_cycles(a["grammar"], a["anchor"], a["cap"]))
    raise ValueError(f"unknown instance kind {kind}")


def execute(inst, engines: Engines) -> Outcome:
    try:
        return _execute(inst, engines)
    except Exception:  # a crash is a failed instance, not a failed benchmark
        return Outcome(None, crash=traceback.format_exc(limit=3))


# ---------------------------------------------------------------------------
# checks


def _word(v: Optional[bool]) -> str:
    return "unknown" if v is None else ("true" if v else "false")


def _rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_decision(verdict, witness, ref, witness_on: bool):
    if verdict is None:
        return "undecided", ""
    if verdict != ref["expect"]:
        return "failed", f"expected {_word(ref['expect'])}, got {_word(verdict)}"
    if verdict == witness_on and ref["witnesses"] is not None:
        if witness not in {tuple(w) for w in ref["witnesses"]}:
            return "failed", f"verdict {_word(verdict)} with an invalid witness {witness}"
    return "ok", ""


def _check_cli(inst, outcome, ref):
    code, text = outcome.payload
    lines = text.strip().splitlines()
    m = VERDICT_LINE.fullmatch(lines[-1]) if lines else None
    if m is None:
        return "failed", f"exit {code} without a verdict line"
    word, shown = m.groups()
    if EXIT_WORDS.get(code) != word:
        return "failed", f"exit {code} with verdict {word}"
    verdict = {"true": True, "false": False, "unknown": None}[word]
    witness = None
    if shown != "-":
        alphabet = inst.args["alphabet"]
        v = parse_monomial(shown)
        witness = v.to_tuple(alphabet) if set(v.support()) <= set(alphabet) else shown
    return _check_decision(verdict, witness, ref, inst.kind in WITNESS_ON_TRUE)


def _check_membership(outcome, ref, vector, start):
    """A yes must re-check (when a witness exists) and not contradict a
    certified reference; a definite no needs a certified reference."""
    if outcome.verdict is None:
        return "undecided", ""
    if outcome.verdict:
        w = outcome.payload
        if w is not None:
            total = w.expand()
            if not runs.is_run(total, start) or total.parikh() != vector:
                return "failed", "yes-witness does not re-check with is_run and parikh()"
        if ref["certified"] and not ref["member"]:
            return "failed", "expected false, got true"
        if not ref["certified"] and not ref["member"] and w is None:
            return "failed", "yes without witness, not confirmed by the reference"
        return "ok", ""
    if ref["member"]:
        return "failed", "expected true, got false"
    if not ref["certified"]:
        return "failed", "definite no not confirmed by a certified reference"
    return "ok", ""


def _check_decompose(inst, dec):
    g, ms = inst.args["grammar"], inst.args["run"]
    if not runs.is_run(dec.base_run, g.start):
        return "failed", "base is not a run"
    if dec.parikh() != ms.parikh():
        return "failed", "letter vector not preserved"
    supp = dec.base_run.supp()
    for term in dec.cycles:
        if term.count <= 0 or term.anchor not in supp or not runs.is_cycle(term.cycle, term.anchor):
            return "failed", f"bad cycle term at {term.anchor}"
    vecs = [t.cycle.parikh().to_tuple(g.alphabet) for t in dec.cycles]
    if _rank(vecs) != len(vecs):
        return "failed", "cycle vectors are dependent"
    return "ok", ""


def _check_order(inst, seq):
    g, ms = inst.args["grammar"], inst.args["run"]
    marking = {g.start: 1}
    used: dict[str, int] = {}
    for tid in seq:
        t = g.transition(tid)
        if marking.get(t.source, 0) < 1:
            return "failed", f"{tid} fires without its source"
        marking[t.source] -= 1
        for r, c in t.targets:
            marking[r] = marking.get(r, 0) + c
        used[tid] = used.get(tid, 0) + 1
    if any(marking.values()) or used != ms.counts.to_dict():
        return "failed", "order does not fire the run to the empty marking"
    return "ok", ""


def check(inst, outcome: Outcome, ref) -> tuple[str, str]:
    """Classify one outcome as ok / undecided / failed, with a reason."""
    if outcome.crash is not None:
        return "failed", "crash: " + outcome.crash.strip().splitlines()[-1]
    kind = inst.kind
    a = inst.args
    if "argv" in a:
        return _check_cli(inst, outcome, ref)
    if kind in ("compare", "universal"):
        g = a["g1"] if kind == "compare" else a["g"]
        witness = None if outcome.payload is None else outcome.payload.to_tuple(g.alphabet)
        return _check_decision(outcome.verdict, witness, ref, False)
    if kind in ("general-member", "bundle-member"):
        g = a["grammar"]
        return _check_membership(outcome, ref, Vec.from_tuple(a["vector"], g.alphabet), g.start)
    if kind == "decompose":
        return _check_decompose(inst, outcome.payload)
    if kind == "order":
        return _check_order(inst, outcome.payload)
    if kind == "cycles":
        got = [tuple(sorted(ms.counts.to_dict().items())) for ms in outcome.payload]
        want = sorted(tuple(tuple(p) for p in c) for c in ref["cycles"])
        if sorted(got) != want:
            return "failed", f"listed {len(got)} simple cycles, expected {len(want)}"
        return "ok", ""
    raise ValueError(f"unknown instance kind {kind}")
