import os
import subprocess
import sys

import pytest

import parikh
from parikh.cli import _build_parser, main
from helpers import ALL_WORDS_TEXT, CHAIN_TEXT, GA_TEXT, GB_TEXT, GC_TEXT

# Child interpreters import the same package as this one, installed or not.
_SRC = os.path.dirname(os.path.dirname(parikh.__file__))
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}

# a regular language outside normal form: its one-target rule S -> a^3 : T
# normalizes to a chain that stays regular
WIDE_TEXT = "alphabet: a b\nstart: S\nS -> a^3 : T\nT -> b : S\nT -> :\n"
GENERAL_CAPS = ("--window", "4", "--engine", "general-caps")
REGULAR_DP = ("--window", "4", "--engine", "regular-dp")

COMMANDS = [
    "parse", "normalize", "classify", "member", "oracle", "order", "decompose",
    "cycles", "bundles", "compare", "universal", "bound-report", "gen",
]


def run_child(*args):
    """Run `python <args>` in a fresh interpreter; text mode."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_CHILD_ENV
    )


@pytest.fixture
def ga_file(tmp_path):
    p = tmp_path / "ga.cg"
    p.write_text(GA_TEXT)
    return str(p)


@pytest.fixture
def gb_file(tmp_path):
    p = tmp_path / "gb.cg"
    p.write_text(GB_TEXT)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecisionCommands:
    def test_member_true(self, capsys, gb_file):
        code, out, _ = run_cli(capsys, "member", gb_file, "a^4")
        assert code == 0
        assert out == "VERDICT true WITNESS a^4\n"

    def test_member_reconstructs_no_witness(self, capsys, monkeypatch, gb_file):
        # the verdict line prints v itself, so neither engine walks back to
        # a decomposition
        from parikh import membership

        def refuse(*args):
            raise AssertionError("a witness was reconstructed")

        monkeypatch.setattr(membership._Engine, "_witness", refuse)
        for flags in ((), ("--caps", "6,4")):
            code, out, _ = run_cli(capsys, "member", gb_file, "a^4", *flags)
            assert (code, out) == (0, "VERDICT true WITNESS a^4\n")

    def test_member_false(self, capsys, gb_file):
        code, out, _ = run_cli(capsys, "member", gb_file, "a^3")
        assert code == 1
        assert out == "VERDICT false WITNESS -\n"

    def test_member_unknown_with_tiny_caps(self, capsys, gb_file):
        code, out, _ = run_cli(capsys, "member", gb_file, "a^3", "--caps", "3,1")
        assert code == 2
        assert out.startswith("VERDICT unknown")

    def test_member_oracle_engine(self, capsys, gb_file):
        code, out, _ = run_cli(capsys, "member", gb_file, "a^2", "--oracle", "10,4")
        assert code == 0 and "true" in out

    def test_member_oracle_miss_is_false_only_when_exhausted(self, capsys, gb_file):
        # gb's one letter only rises, so the search runs dry inside the window
        code, out, err = run_cli(capsys, "member", gb_file, "a^3", "--oracle", "20,5")
        assert (code, out, err) == (1, "VERDICT false WITNESS -\n", "")

    def test_member_oracle_outside_the_window_is_unknown(self, capsys, ga_file):
        # a^7 is in ga's language; a window of 5 never looks at it
        code, out, err = run_cli(capsys, "member", ga_file, "a^7", "--oracle", "20,5")
        assert (code, out) == (2, "VERDICT unknown WITNESS -\n")
        assert err == "note: the vector lies outside the oracle window 5\n"

    def test_member_oracle_cut_at_the_depth_is_unknown(self, capsys, tmp_path):
        # a^3 needs 4 steps; S raises and lowers a, so nothing is pruned and
        # depth 2 cuts the search
        p = tmp_path / "updown.cg"
        p.write_text("alphabet: a\nstart: S\nS -> a : S\nS -> a^-1 : S\nS -> :\n")
        code, out, err = run_cli(capsys, "member", str(p), "a^3", "--oracle", "2,5")
        assert (code, out) == (2, "VERDICT unknown WITNESS -\n")
        assert err == "note: the oracle search was cut at depth 2\n"

    def test_exactly_one_verdict_line(self, capsys, ga_file, gb_file):
        for argv in (
            ("member", gb_file, "a^4"),
            ("compare", ga_file, gb_file, "--mode", "include", "--window", "4", "--depth", "20"),
            ("universal", ga_file, "--window", "4", "--depth", "12"),
        ):
            _, out, _ = run_cli(capsys, *argv)
            assert len([l for l in out.splitlines() if l.startswith("VERDICT")]) == 1

    def test_compare_counterexample(self, capsys, ga_file, gb_file):
        code, out, _ = run_cli(
            capsys, "compare", ga_file, gb_file, "--mode", "include",
            "--window", "5", "--depth", "24",
        )
        assert code == 1
        assert out == "VERDICT false WITNESS a\n"

    def test_compare_disjoint_regular_engine(self, capsys, ga_file, gb_file):
        code, out, _ = run_cli(
            capsys, "compare", gb_file, ga_file, "--mode", "include",
            "--window", "5", "--engine", "regular-dp", "--bound", "40",
        )
        assert code == 0 and "true" in out

    def test_compare_below_the_bound_is_unknown_not_disjoint(self, capsys, tmp_path):
        # `a` is in both languages, but the chain derives it in 31 steps:
        # at bound 20 the run table is still growing, so nothing is proved
        chain, every = tmp_path / "chain.cg", tmp_path / "all.cg"
        chain.write_text(CHAIN_TEXT)
        every.write_text(ALL_WORDS_TEXT)
        code, out, _ = run_cli(
            capsys, "compare", str(chain), str(every), "--mode", "disjoint",
            "--engine", "regular-dp", "--bound", "20", "--window", "2",
        )
        assert (code, out) == (2, "VERDICT unknown WITNESS 1\n")

    def test_compare_with_a_cut_oracle_is_unknown_not_disjoint(self, capsys, tmp_path):
        # the same pair under the oracle: at depth 8 the chain's search is
        # cut long before it derives `a`, so nothing is proved
        chain, every = tmp_path / "chain.cg", tmp_path / "all.cg"
        chain.write_text(CHAIN_TEXT)
        every.write_text(ALL_WORDS_TEXT)
        code, out, err = run_cli(
            capsys, "compare", str(chain), str(every), "--mode", "disjoint",
            "--depth", "8", "--window", "2",
        )
        assert (code, out) == (2, "VERDICT unknown WITNESS 1\n")
        assert err.splitlines()[0] == "oracle with depth 8, window 2 (search cut at the depth)"

    @pytest.mark.parametrize("engine, flags, note", [
        ("oracle", ("--bound", "5", "--caps", "3,3"),
         "note: --bound, --caps are not used by the oracle engine\n"),
        ("regular-dp", ("--bound", "40", "--depth", "20"),
         "note: --depth is not used by the regular-dp engine\n"),
        ("general-caps", ("--caps", "6,4", "--bound", "40", "--depth", "20"),
         "note: --bound, --depth are not used by the general-caps engine\n"),
    ])
    def test_ignored_engine_flags_are_named(self, capsys, ga_file, gb_file, engine, flags, note):
        used = {"oracle": ("--depth", "20"), "regular-dp": ("--bound", "40"),
                "general-caps": ("--caps", "6,4")}[engine]
        for cmd in (("compare", gb_file, ga_file, "--mode", "include"),
                    ("universal", ga_file, "--ambient", "nat")):
            base = (*cmd, "--window", "4", "--engine", engine)
            code, out, err = run_cli(capsys, *base, *used)
            assert "not used" not in err
            extra_code, extra_out, extra_err = run_cli(capsys, *base, *flags)
            assert (extra_code, extra_out) == (code, out)
            assert extra_err == note + err

    @pytest.mark.parametrize("grammar, used, flags, note", [
        ("gc", (), ("--bound", "5"),
         "note: --bound is not used by the general-caps engine\n"),
        ("gb", ("--caps", "6,4"), ("--bound", "5"),
         "note: --bound is not used by the general-caps engine\n"),
        ("gb", ("--oracle", "10,4"), ("--bound", "5", "--caps", "3,3"),
         "note: --bound, --caps are not used by the oracle engine\n"),
    ])
    def test_member_names_ignored_size_flags(self, capsys, tmp_path, grammar, used, flags,
                                             note):
        # gc is not regular, so member runs the general engine without
        # --caps; --oracle selects the oracle over both other engines
        path = tmp_path / f"{grammar}.cg"
        path.write_text(GC_TEXT if grammar == "gc" else GB_TEXT)
        for vector in ("a^2", "a^3"):
            code, out, err = run_cli(capsys, "member", str(path), vector, *used)
            assert "not used" not in err
            extra_code, extra_out, extra_err = run_cli(capsys, "member", str(path), vector,
                                                       *used, *flags)
            assert (extra_code, extra_out) == (code, out)
            assert extra_err == note + err

    @pytest.mark.parametrize("cmd", [
        ("compare", "{g}", "{a}", "--mode", "disjoint", *GENERAL_CAPS),
        ("compare", "{a}", "{g}", "--mode", "include", *GENERAL_CAPS),
        ("universal", "{g}", "--ambient", "nat", *GENERAL_CAPS),
        ("compare", "{g}", "{a}", "--mode", "disjoint", *REGULAR_DP),
        ("compare", "{a}", "{g}", "--mode", "include", *REGULAR_DP),
        ("universal", "{g}", "--ambient", "nat", *REGULAR_DP),
        ("member", "{g}", "a^3 b"),
        ("member", "{g}", "a^6 b"),
        ("bundles", "{g}", "--run-cap", "12"),
        ("bound-report", "{g}", "{a}"),
    ])
    def test_general_caps_sweeps_normalize_first(self, capsys, tmp_path, cmd):
        # like member, every engine command (the sweeps of both engines,
        # bundles and bound-report) accepts a grammar outside normal form
        # and answers as for its normal form
        wide, normal, a_star = tmp_path / "wide.cg", tmp_path / "normal.cg", tmp_path / "a.cg"
        wide.write_text(WIDE_TEXT)
        a_star.write_text("alphabet: a b\nstart: S\nS -> a : S\nS -> :\n")
        code, out, _ = run_cli(capsys, "normalize", str(wide))
        assert code == 0 and out.count("->") > 3
        normal.write_text(out)
        results = []
        for g in (wide, normal):
            argv = [arg.format(g=g, a=a_star) for arg in cmd]
            results.append(run_cli(capsys, *argv))
        assert results[0][0] != 65
        assert results[0] == results[1]

    def test_member_decides_a_regular_normal_form_with_regular_dp(self, capsys, tmp_path):
        # the wide grammar normalizes to a regular one, so member answers
        # with regular-dp, whose no is certified (general-caps says unknown)
        wide = tmp_path / "wide.cg"
        wide.write_text(WIDE_TEXT)
        assert run_cli(capsys, "member", str(wide), "a^3 b") == (
            1, "VERDICT false WITNESS -\n", ""
        )
        assert run_cli(capsys, "member", str(wide), "a^3 b", "--caps", "10,8")[0] == 2

    def test_universal(self, capsys, ga_file, gb_file):
        code, out, _ = run_cli(capsys, "universal", ga_file, "--window", "6", "--depth", "10")
        assert code == 0
        code, out, _ = run_cli(capsys, "universal", gb_file, "--window", "6", "--depth", "16")
        assert code == 1 and "WITNESS a" in out


class TestArtifactCommands:
    def test_parse_round_trip(self, capsys, ga_file):
        code, out, _ = run_cli(capsys, "parse", ga_file)
        assert code == 0 and out == GA_TEXT

    def test_normalize(self, capsys, tmp_path):
        p = tmp_path / "wide.cg"
        p.write_text("alphabet: a\nstart: S\nS -> a^3 :\n")
        code, out, _ = run_cli(capsys, "normalize", str(p))
        assert code == 0 and out.count("->") == 3

    def test_classify(self, capsys, gb_file):
        code, out, _ = run_cli(capsys, "classify", gb_file)
        assert code == 0
        assert out == "regular: true\nnormal_form: true\npositive: true\n"

    def test_oracle(self, capsys, ga_file):
        code, out, err = run_cli(capsys, "oracle", ga_file, "--depth", "5", "--window", "5")
        assert code == 0
        assert out.splitlines() == ["1", "a", "a^2", "a^3", "a^4"]
        assert err == "note: the oracle search was cut at depth 5; the list may be incomplete\n"
        code, out, err = run_cli(capsys, "oracle", ga_file, "--depth", "7", "--window", "5")
        assert code == 0
        assert out.splitlines() == ["1", "a", "a^2", "a^3", "a^4", "a^5"]
        assert err == ""

    def test_order(self, capsys, ga_file):
        code, out, _ = run_cli(capsys, "order", ga_file, "t1*2 t2*1")
        assert code == 0 and out.strip() == "t1 t1 t2"

    def test_decompose(self, capsys, ga_file):
        code, out, _ = run_cli(capsys, "decompose", ga_file, "t1*5 t2*1")
        assert code == 0
        assert out == "base: t2*1\ncycle: t1*1 anchor S count 5\n"

    def test_cycles(self, capsys, gb_file):
        code, out, _ = run_cli(capsys, "cycles", gb_file, "--at", "S")
        assert code == 0 and out.strip() == "t1*1 t2*1"

    def test_cycles_truncated_exit(self, capsys, gb_file):
        code, _, err = run_cli(capsys, "cycles", gb_file, "--at", "S", "--cap", "1")
        assert code == 2 and "truncated" in err

    def test_bundles(self, capsys, gb_file):
        code, out, err = run_cli(capsys, "bundles", gb_file, "--run-cap", "34")
        assert code == 2  # below the theoretical bound, flagged truncated
        assert out == "W: 1\nP: a^2\n"

    def test_two_letter_bundles_of_an_exhaustive_enumeration_are_complete(
        self, capsys, tmp_path
    ):
        # every run fits the run cap, so the two bases are the whole
        # language: `member` answers a definite no from the same
        # enumeration, and `bundles` reports no truncation
        grammar = tmp_path / "pair.cg"
        grammar.write_text("alphabet: x y\nstart: S\nS -> : A B\nA -> x :\nB -> y :\n")
        code, out, err = run_cli(capsys, "bundles", str(grammar), "--run-cap", "4", "--two-letter")
        assert (code, out, err) == (0, "W: x y\n", "")
        code, out, _ = run_cli(capsys, "member", str(grammar), "x^2", "--caps", "4,8")
        assert (code, out) == (1, "VERDICT false WITNESS -\n")

    def test_bound_report(self, capsys, ga_file, gb_file):
        code, out, _ = run_cli(capsys, "bound-report", ga_file, gb_file)
        assert code == 0
        assert "g1.base_run_bound: 34" in out
        assert "g2.base_run_bound: 113" in out

    def test_gen_hard(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "hard", "--n", "0", "--variant", "full")
        assert code == 0
        assert out.count("->") == 2 and "S0 -> S1 A0 :" in out

    def test_gen_qsat(self, capsys, tmp_path):
        f = tmp_path / "f.cnf"
        f.write_text("y0\n")
        code, out, _ = run_cli(capsys, "gen", "qsat2", "--formula", str(f), "--side", "s2")
        assert code == 0 and "start: S2" in out
        code, out, _ = run_cli(capsys, "gen", "qsat2", "--formula", str(f), "--universality")
        assert code == 0 and "start: S4" in out

    def test_gen_sat_unary(self, capsys, tmp_path):
        f = tmp_path / "f.cnf"
        f.write_text("y0\n")
        code, out, _ = run_cli(capsys, "gen", "sat-unary", "--formula", str(f), "--primes", "2")
        assert code == 0 and "start: s0" in out

    def test_gen_ham(self, capsys, tmp_path):
        f = tmp_path / "g.graph"
        f.write_text("u v\nv w\nw u\n")
        code, out, _ = run_cli(capsys, "gen", "ham", "--graph", str(f), "--start", "u")
        assert code == 0 and "# target: u v w" in out


class TestErrorHandling:
    def test_usage_error_unknown_flag(self, ga_file):
        proc = run_child("-m", "parikh", "member", ga_file, "a", "--wat")
        assert proc.returncode == 64

    def test_usage_error_bad_command(self):
        proc = run_child("-m", "parikh", "frobnicate")
        assert proc.returncode == 64

    def test_input_error_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "parse", "/nonexistent.cg")
        assert code == 65 and "error:" in err

    def test_input_error_bad_grammar(self, capsys, tmp_path):
        p = tmp_path / "bad.cg"
        p.write_text("alphabet: a\nstart: S\nS -> b : S\n")
        code, _, err = run_cli(capsys, "parse", str(p))
        assert code == 65 and "undeclared" in err

    def test_input_error_bad_vector(self, capsys, ga_file):
        code, _, err = run_cli(capsys, "member", ga_file, "a^^2")
        assert code == 65

    def test_help_lists_flags(self, ga_file):
        proc = run_child("-m", "parikh", "member", "--help")
        assert proc.returncode == 0
        for flag in ("--bound", "--caps", "--oracle"):
            assert flag in proc.stdout

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_subcommand_has_help(self, command):
        proc = run_child("-m", "parikh", command, "--help")
        assert proc.returncode == 0 and "usage" in proc.stdout

    def test_byte_stable_output(self, ga_file, gb_file):
        cmd = [
            "-m", "parikh", "compare", ga_file, gb_file,
            "--mode", "include", "--window", "4", "--depth", "16",
        ]
        runs = [run_child(*cmd).stdout for _ in range(2)]
        assert runs[0] == runs[1]


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code, capsys.readouterr().err


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ("universal", "{ga}", "--window", "-1"),
            ("universal", "{ga}", "--window", "3", "--depth", "-1"),
            ("compare", "{ga}", "{gb}", "--mode", "include", "--window", "-2"),
            ("oracle", "{ga}", "--depth", "-1", "--window", "3"),
            ("oracle", "{ga}", "--depth", "4", "--window", "-1"),
            ("cycles", "{gb}", "--at", "S", "--cap", "-3"),
            ("member", "{gb}", "a^2", "--bound", "0"),
            ("member", "{gb}", "a^2", "--bound", "-1"),
            ("compare", "{ga}", "{gb}", "--mode", "include", "--window", "2", "--bound", "-1"),
            ("universal", "{ga}", "--window", "2", "--bound", "-1"),
            ("bundles", "{gb}", "--run-cap", "-1"),
            ("bundles", "{gb}", "--run-cap", "5", "--two-letter", "--cycle-cap", "-1"),
            ("bundles", "{gb}", "--run-cap", "5", "--two-letter", "--fold-cap", "-1"),
            ("gen", "hard", "--n", "-1"),
        ],
    )
    def test_negative_size_flag_is_a_usage_error(self, capsys, ga_file, gb_file, argv):
        argv = [a.format(ga=ga_file, gb=gb_file) for a in argv]
        bad = next(i for i, a in enumerate(argv) if a.lstrip("-").isdigit() and int(a) < 1)
        flag, value = argv[bad - 1], int(argv[bad])
        code, err = usage_error(capsys, *argv)
        floor = "must be at least 1" if flag in ("--bound", "--run-cap") else "must be nonnegative"
        assert code == 64 and f"argument {flag}: {floor}, got {value}" in err

    def test_cycles_at_unknown_nonterminal(self, capsys, gb_file):
        code, out, err = run_cli(capsys, "cycles", gb_file, "--at", "Nope")
        assert code == 65 and out == ""
        assert "unknown nonterminal 'Nope'" in err

    def test_decompose_from_unknown_root(self, capsys, ga_file):
        code, out, err = run_cli(capsys, "decompose", ga_file, "t1*2 t2*1", "--root", "X")
        assert code == 65 and out == ""
        assert "unknown nonterminal 'X'" in err

    def test_search_cap_exceeded_is_truncation(self, capsys, monkeypatch, tmp_path):
        from parikh import membership

        # the general engine's cycle search outgrows its state cap: unknown,
        # with a note naming the cap
        grammar = tmp_path / "split.cg"
        grammar.write_text("alphabet: a\nstart: S\nS -> : S S\nS -> : Q1\nQ1 -> : Q2\nQ2 -> a :\n")
        monkeypatch.setattr(membership, "DEFAULT_STATE_CAP", 40)
        membership._general_state.cache_clear()  # an equal grammar may be cached
        code, out, err = run_cli(capsys, "member", str(grammar), "a^3", "--caps", "8,15")
        assert code == 2
        assert out == "VERDICT unknown WITNESS -\n"
        assert err == "cycle search stopped at the state cap of 40\n"

        # an enumeration that raises past its cap is reported as truncation
        both = tmp_path / "both.cg"
        both.write_text("alphabet: a b\nstart: S\nS -> a : S\nS -> b : S\nS -> :\n")
        code, out, err = run_cli(
            capsys, "bundles", str(both), "--run-cap", "2", "--two-letter", "--fold-cap", "1000"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("truncated: fold-in enumeration too large")

    def test_malformed_oracle_pair_names_the_flag(self, capsys, gb_file):
        code, err = usage_error(capsys, "member", gb_file, "a^2", "--oracle", "5")
        assert code == 64
        assert "--oracle" in err and "depth,window" in err and "run,cycle" not in err

    def test_letter_outside_alphabet_with_general_engine(self, capsys, gb_file):
        code, out, _ = run_cli(capsys, "member", gb_file, "b", "--caps", "3,3")
        assert code == 1 and out == "VERDICT false WITNESS -\n"


class TestParserReuse:
    """One parser serves every `main` call in a process."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_import_does_not_build_the_parser(self):
        proc = run_child(
            "-c", "import parikh.cli as c; print(c._build_parser.cache_info().currsize)"
        )
        assert proc.returncode == 0 and proc.stdout == "0\n"

    def test_no_value_leaks_between_calls(self, capsys, ga_file, gb_file):
        sequence = [
            ("member", gb_file, "a^4", "--wat"),
            ("member", gb_file, "a^4", "--bound", "40"),
            ("member", gb_file, "a^4"),
            ("compare", ga_file, gb_file, "--mode", "include", "--window", "4",
             "--engine", "regular-dp"),
            ("compare", ga_file, gb_file, "--mode", "include", "--window", "4"),
        ]
        for argv in sequence:
            try:
                got = run_cli(capsys, *argv)
            except SystemExit as e:
                out = capsys.readouterr()
                got = (e.code, out.out, out.err)
            alone = run_child("-m", "parikh", *argv)
            assert got == (alone.returncode, alone.stdout, alone.stderr), argv

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_repeats(self, capsys, command):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main([command, "--help"])
            assert info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: parikh " + command)
