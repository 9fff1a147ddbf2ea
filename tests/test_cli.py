"""End-to-end tests of the command-line interface via main(argv)."""

import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gamedep import parser
from gamedep.cli import build_parser, entry, main
from gamedep.core import Game
from gamedep.parser import (
    MAX_FORMULA_DEPTH,
    parse_formula,
    parse_game,
    print_formula,
    print_game,
)
from gamedep.search import SearchBounds, builtin_game, builtin_graph, random_game
from gamedep.semantics import holds

COORDINATION_DOC = """\
players a b
edge a b
strategies a a1 a2
strategies b b1 b2
payoff a a=a1 b=b1 1
payoff a a=a1 b=b2 0
payoff a a=a2 b=b1 0
payoff a a=a2 b=b2 1
payoff b a=a1 b=b1 1
payoff b a=a1 b=b2 0
payoff b a=a2 b=b1 0
payoff b a=a2 b=b2 1
"""

PATH_DOC = """\
players a b c d
edge a b
edge b c
edge c d
"""

SHORT_PATH_DOC = """\
players a b c
edge a b
edge b c
"""

SQUARE_DOC = """\
players a b c d
edge a b
edge a c
edge b c
edge b d
edge c d
"""

PROOF_DOC = """\
1. a |> d [Hypothesis]
2. b,c |> d [Contiguity 1 cut={a,b}|{c,d} A={a}]
"""


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.txt"
    path.write_text(COORDINATION_DOC)
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text(PATH_DOC)
    return str(path)


class TestNe:
    def test_lists_equilibria_and_total(self, game_file, capsys):
        assert main(["ne", game_file]) == 0
        out = capsys.readouterr().out
        assert out == "a=a1 b=b1\na=a2 b=b2\ntotal: 2\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["ne", str(tmp_path / "absent.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_bad_document_reports_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("players a b\nedge a z\n")
        assert main(["ne", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2:")

    def test_non_ascii_digit_in_a_payoff_is_a_located_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("players a\nstrategies a x\npayoff a a=x ٣\n", encoding="utf-8")
        assert main(["ne", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 3: malformed rational '٣'\n"


class TestProfileCap:
    """8 players with 8 strategies each: 16,777,216 profiles, over the 10^7 cap."""

    @pytest.fixture
    def oversized_file(self, tmp_path):
        players = [f"p{i}" for i in range(8)]
        lines = ["players " + " ".join(players)]
        lines += [f"edge {u} {v}" for u, v in zip(players, players[1:])]
        lines += [f"strategies {p} " + " ".join(f"s{k}" for k in range(8)) for p in players]
        lines.append("payoff p0 p0=s0 p1=s0 1")
        path = tmp_path / "oversized.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("command", [["ne"], ["check", "p0 |> p7"]],
                             ids=["ne", "check"])
    def test_refused_promptly_with_exit_2(self, oversized_file, command, capsys):
        started = time.perf_counter()
        assert main([command[0], oversized_file, *command[1:]]) == 2
        elapsed = time.perf_counter() - started
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "game has 16777216 profiles, exceeding the cap of 10000000" in captured.err
        assert elapsed < 2.0, f"refusal took {elapsed:.1f}s"


class TestCheck:
    def test_holding_formula(self, game_file, capsys):
        assert main(["check", game_file, "a |> b"]) == 0
        assert capsys.readouterr().out == "holds\n"

    def test_failing_formula(self, game_file, capsys):
        assert main(["check", game_file, "{} |> a"]) == 1
        assert capsys.readouterr().out == "fails\n"

    def test_falsum(self, game_file, capsys):
        assert main(["check", game_file, "false"]) == 1
        assert capsys.readouterr().out == "fails\n"

    def test_implication(self, game_file, capsys):
        assert main(["check", game_file, "a |> b -> b |> a"]) == 0

    def test_malformed_formula(self, game_file, capsys):
        assert main(["check", game_file, "a |>"]) == 2
        assert capsys.readouterr().err.startswith("error: line 1")

    def test_out_of_scope_player(self, game_file, capsys):
        assert main(["check", game_file, "a |> z"]) == 2
        assert "player 'z' is not in the graph" in capsys.readouterr().err


def _complete(game):
    """The game with every missing cell of every table written out as 0."""
    graph = game.graph
    return Game.of(graph, game.strategies, {
        p: {key: game.payoffs.get(p, {}).get(key, Fraction(0))
            for key in itertools.product(*(game.strategies[w] for w in graph.local_order(p)))}
        for p in graph.players})


def _affine_document(text):
    """`text` with every payoff value u written as (3/7)u - 5/2."""
    lines = []
    for line in text.splitlines():
        if line.startswith("payoff "):
            head, _, value = line.rpartition(" ")
            line = f"{head} {Fraction(3, 7) * Fraction(value) - Fraction(5, 2)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


_SIGNED = SearchBounds(max_strategies=3, seed=20131017,
                       payoff_values=(-2, Fraction(-1, 2), 0, Fraction(1, 3), 1))
AFFINE_GAMES = {
    **{name: builtin_game(name) for name in
       ["coordination", "table2", "parity", "consensus", "gamma2_rps", "gamma1_mean_mod(3)"]},
    **{f"{graph}_{index}": random_game(builtin_graph(graph), _SIGNED, index)
       for graph in ["gamma1", "gamma5"] for index in range(3)},
}


class TestPositiveAffinePayoffs:
    """A positive affine map of the payoffs keeps every best response, so
    `ne` prints the same bytes and `check` gives the same verdicts; so does
    the same document read by the per-line reader."""

    @staticmethod
    def formulas(players):
        first, last = players[0], players[-1]
        atoms = [f"{{}} |> {p}" for p in players] + [f"{first} |> {p}" for p in players]
        return atoms + [f"{first} |> {last} -> {last} |> {first}", f"!({last} |> {first})"]

    @pytest.mark.parametrize("name", AFFINE_GAMES)
    def test_ne_and_check(self, name, tmp_path, capsys):
        game = _complete(AFFINE_GAMES[name])
        text = print_game(game)
        documents = {"printed": text, "affine": _affine_document(text),
                     "commented": text + "# a comment sends it to the per-line reader\n"}
        assert parser._read_printed_game(documents["affine"]) is not None
        assert parser._read_printed_game(documents["commented"]) is None
        answers = {}
        for kind, document in documents.items():
            path = tmp_path / f"{kind}.txt"
            path.write_text(document)
            answers[kind] = [(main(["ne", str(path)]), capsys.readouterr().out)]
            for formula in self.formulas(game.graph.players):
                answers[kind].append((main(["check", str(path), formula]),
                                      capsys.readouterr().out))
        assert documents["affine"] != text
        assert answers["affine"] == answers["printed"] == answers["commented"]


class TestProve:
    def test_derivable_goal_prints_the_proof(self, path_file, capsys):
        assert main(["prove", path_file, "b,c |> d", "--assume", "a |> d"]) == 0
        out = capsys.readouterr().out
        assert out == PROOF_DOC

    def test_reflexive_goal_needs_no_assumptions(self, path_file, capsys):
        assert main(["prove", path_file, "a,b |> a"]) == 0
        assert "[Reflexivity]" in capsys.readouterr().out

    def test_multiple_assumptions(self, path_file, capsys):
        code = main(["prove", path_file, "b,c |> a,d",
                     "--assume", "a,c |> d", "--assume", "d,b |> a"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("7. b,c |> a,d")

    def test_non_derivable_goal(self, tmp_path, capsys):
        path = tmp_path / "short.txt"
        path.write_text(SHORT_PATH_DOC)
        assert main(["prove", str(path), "b |> c", "--assume", "a |> c"]) == 1
        assert capsys.readouterr().out == "not derivable\n"

    def test_oversized_graph_is_refused(self, tmp_path, capsys):
        names = [f"p{i}" for i in range(13)]
        doc = "players " + " ".join(names) + "\n" + "".join(
            f"edge {names[i]} {names[i + 1]}\n" for i in range(12))
        path = tmp_path / "big.txt"
        path.write_text(doc)
        assert main(["prove", str(path), "p0 |> p1"]) == 2
        assert "capped" in capsys.readouterr().err


class TestProveCheck:
    def test_valid_proof(self, path_file, tmp_path, capsys):
        proof = tmp_path / "proof.txt"
        proof.write_text(PROOF_DOC)
        code = main(["prove-check", path_file, str(proof), "--assume", "a |> d"])
        assert code == 0
        assert capsys.readouterr().out == "verified\n"

    def test_unassumed_hypothesis(self, path_file, tmp_path, capsys):
        proof = tmp_path / "proof.txt"
        proof.write_text(PROOF_DOC)
        assert main(["prove-check", path_file, str(proof)]) == 1
        out = capsys.readouterr().out
        assert "step 1: atom is not among the hypotheses" in out

    def test_tampered_conclusion(self, path_file, tmp_path, capsys):
        proof = tmp_path / "proof.txt"
        proof.write_text(PROOF_DOC.replace("b,c |> d", "b |> d"))
        code = main(["prove-check", path_file, str(proof), "--assume", "a |> d"])
        assert code == 1
        assert "step 2:" in capsys.readouterr().out

    def test_malformed_proof_file(self, path_file, tmp_path, capsys):
        proof = tmp_path / "proof.txt"
        proof.write_text("1. a |> d\n")
        code = main(["prove-check", path_file, str(proof), "--assume", "a |> d"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 1")

    @pytest.mark.parametrize("text, expected", [
        ("². a |> d [Hypothesis]\n",
         "error: line 1: step must start with '<index>.'\n"),
        ("1. a |> d [Hypothesis]\n2. a,b |> d [LeftMonotonicity ² add={b}]\n",
         "error: line 2: expected a step index, got '²'\n"),
    ], ids=["step-number", "premise-index"])
    def test_non_ascii_digits_are_a_located_error(self, path_file, tmp_path, capsys,
                                                   text, expected):
        proof = tmp_path / "proof.txt"
        proof.write_text(text, encoding="utf-8")
        code = main(["prove-check", path_file, str(proof), "--assume", "a |> d"])
        assert code == 2
        assert capsys.readouterr().err == expected


class TestRefute:
    def test_finds_a_counterexample_game(self, tmp_path, capsys):
        path = tmp_path / "square.txt"
        path.write_text(SQUARE_DOC)
        assert main(["refute", str(path), "a |> d -> b,c |> d"]) == 0
        out = capsys.readouterr().out
        game = parse_game(out)
        formula = parse_formula("a |> d -> b,c |> d", game.graph)
        assert not holds(game, formula)

    def test_reports_exhausted_bounds(self, path_file, capsys):
        code = main(["refute", path_file, "a |> a", "--samples", "5"])
        assert code == 1
        out = capsys.readouterr().out
        assert out == "no counterexample within bounds (5 games examined)\n"

    def test_systematic_mode(self, tmp_path, capsys):
        path = tmp_path / "single.txt"
        path.write_text("players a\n")
        code = main(["refute", str(path), "{} |> a",
                     "--mode", "systematic", "--max-strategies", "2"])
        assert code == 0
        game = parse_game(capsys.readouterr().out)
        assert game.strategies == {"a": ("0", "1")}

    def test_custom_values_are_parsed_as_rationals(self, tmp_path, capsys):
        path = tmp_path / "single.txt"
        path.write_text("players a\n")
        code = main(["refute", str(path), "{} |> a",
                     "--values", "0, 1/2", "--mode", "systematic",
                     "--max-strategies", "2"])
        assert code == 0
        game = parse_game(capsys.readouterr().out)
        values = {v for table in game.payoffs.values() for v in table.values()}
        assert values <= {Fraction(0), Fraction(1, 2)}

    def test_bad_values_list(self, path_file, capsys):
        for values, reason in [("0,x", "malformed rational 'x'"),
                               ("1/0", "rational '1/0' has a zero denominator")]:
            assert main(["refute", path_file, "a |> a", "--values", values]) == 2
            assert capsys.readouterr().err == f"error: --values: {reason}\n"

    def test_non_ascii_digit_in_values(self, path_file, capsys):
        assert main(["refute", path_file, "a |> a", "--values", "٣,1"]) == 2
        assert capsys.readouterr().err == "error: --values: malformed rational '٣'\n"

    def test_bad_mode_is_a_usage_error(self, path_file):
        with pytest.raises(SystemExit) as exc:
            main(["refute", path_file, "a |> a", "--mode", "guess"])
        assert exc.value.code == 2


class TestValidate:
    def test_complete_game_passes_silently(self, game_file, capsys):
        assert main(["validate", game_file]) == 0
        assert capsys.readouterr().out == ""

    def test_incomplete_tables_warn(self, tmp_path, capsys):
        doc = COORDINATION_DOC.rsplit("payoff b", 1)[0]  # drop b's last line
        path = tmp_path / "partial.txt"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("warning: payoff table for b covers 3 of 4")


class TestFuzzSoundness:
    def test_clean_report(self, path_file, capsys):
        code = main(["fuzz-soundness", path_file, "--assume", "a |> d",
                     "--samples", "50", "--seed", "42"])
        assert code == 0
        out = capsys.readouterr().out
        assert "games tested: 50" in out
        assert "violations: 0" in out

    def test_no_assumptions(self, path_file, capsys):
        assert main(["fuzz-soundness", path_file, "--samples", "5"]) == 0
        assert "violations: 0" in capsys.readouterr().out


class TestHugeStrategyBound:
    """A strategy bound above 2^64 cannot be drawn from: random search
    refuses it at once instead of rejecting every output."""

    @pytest.mark.parametrize("command", [["refute", "a |> b"], ["fuzz-soundness"]],
                             ids=["refute", "fuzz-soundness"])
    def test_refused_promptly_with_exit_2(self, path_file, command, capsys):
        bound = str((1 << 64) + 1)
        started = time.perf_counter()
        code = main([command[0], path_file, *command[1:],
                     "--max-strategies", bound, "--samples", "1"])
        elapsed = time.perf_counter() - started
        assert code == 2
        assert capsys.readouterr().err == f"error: bound must be at most 2^64, got {bound}\n"
        assert elapsed < 2.0, f"refusal took {elapsed:.1f}s"


def nested_formula(kind: str, depth: int) -> str:
    """A formula of `depth` levels of one kind of nesting."""
    if kind == "not":
        return "!" * depth + "a |> b"
    if kind == "parens":
        return "(" * depth + "a |> b" + ")" * depth
    return " -> ".join(["a |> b"] * (depth + 1))


NESTING_KINDS = ["not", "parens", "chain"]


class TestDeepFormulas:
    """Nesting past MAX_FORMULA_DEPTH is a located error, exit 2, at the
    token that crosses the bound; a formula at the bound is read."""

    DEEP = 3000
    REASON = f"formula nests more than {MAX_FORMULA_DEPTH} levels of '->', '!' and '('"
    # the column of the token that crosses the bound
    COLUMN = {"not": MAX_FORMULA_DEPTH + 1, "parens": MAX_FORMULA_DEPTH + 1,
              "chain": MAX_FORMULA_DEPTH * len("a |> b -> ") + len("a |> b ") + 1}

    @pytest.mark.parametrize("kind", NESTING_KINDS)
    @pytest.mark.parametrize("command", ["check", "refute", "prove", "prove-check"])
    def test_past_the_bound_is_located(self, game_file, path_file, tmp_path, capsys,
                                       command, kind):
        formula = nested_formula(kind, self.DEEP)
        proof = tmp_path / "proof.txt"
        proof.write_text(PROOF_DOC)
        argv = {"check": ["check", game_file, formula],
                "refute": ["refute", path_file, formula],
                "prove": ["prove", path_file, "a |> a", "--assume", formula],
                "prove-check": ["prove-check", path_file, str(proof), "--assume", formula]}
        assert main(argv[command]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: line 1, column {self.COLUMN[kind]}: {self.REASON}\n")

    @pytest.mark.parametrize("kind", NESTING_KINDS)
    def test_past_the_bound_in_a_derivation_file(self, path_file, tmp_path, capsys, kind):
        # derivation errors give the line of the step, as every derivation error does
        proof = tmp_path / "proof.txt"
        proof.write_text(f"1. a |> d [Hypothesis]\n2. {nested_formula(kind, self.DEEP)} "
                         f"[Hypothesis]\n")
        assert main(["prove-check", path_file, str(proof), "--assume", "a |> d"]) == 2
        assert capsys.readouterr().err == f"error: line 2: {self.REASON}\n"

    @pytest.mark.parametrize("kind", NESTING_KINDS)
    def test_at_the_bound_checks_refutes_and_prints(self, game_file, path_file, capsys,
                                                     kind):
        text = nested_formula(kind, MAX_FORMULA_DEPTH)
        game = parse_game(COORDINATION_DOC)
        formula = parse_formula(text, game.graph)
        assert parse_formula(print_formula(formula, game.graph), game.graph) == formula
        assert main(["check", game_file, text]) == (0 if holds(game, formula) else 1)
        assert main(["refute", path_file, text, "--samples", "20"]) in (0, 1)
        assert capsys.readouterr().err == ""


# Python refuses to convert longer digit strings to int (0: no limit).
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="no int conversion limit")


@needs_int_limit
class TestOverlongNumbers:
    """A number of more digits than Python converts is a located error,
    exit 2, whose message gives the digit count instead of the digits."""

    TOO_LONG = "9" * (INT_DIGITS + 1)
    REASON = f"number of {INT_DIGITS + 1} digits exceeds the limit of {INT_DIGITS}"

    @pytest.fixture
    def overlong_game(self, tmp_path):
        path = tmp_path / "overlong.txt"
        path.write_text(COORDINATION_DOC.replace("payoff b a=a2 b=b2 1",
                                                 f"payoff b a=a2 b=b2 -1/{self.TOO_LONG}"))
        return str(path)

    @pytest.mark.parametrize("command", [["ne"], ["check", "a |> b"], ["validate"]],
                             ids=["ne", "check", "validate"])
    def test_payoff_value(self, overlong_game, command, capsys):
        assert main([command[0], overlong_game, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: line 12: {self.REASON}\n")

    def test_longest_convertible_payoff_is_read(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text(COORDINATION_DOC.replace("payoff b a=a2 b=b2 1",
                                                 "payoff b a=a2 b=b2 " + "9" * INT_DIGITS))
        assert main(["ne", str(path)]) == 0
        assert capsys.readouterr().out.endswith("total: 2\n")

    def test_refute_values(self, path_file, capsys):
        assert main(["refute", path_file, "a |> a", "--values", f"0,{self.TOO_LONG}"]) == 2
        assert capsys.readouterr().err == f"error: --values: {self.REASON}\n"

    @pytest.mark.parametrize("text, line", [
        ("{n}. a |> d [Hypothesis]\n", 1),
        ("1. a |> d [Hypothesis]\n2. a,b |> d [LeftMonotonicity {n} add={{b}}]\n", 2),
    ], ids=["step-number", "premise"])
    def test_prove_check(self, path_file, tmp_path, capsys, text, line):
        proof = tmp_path / "proof.txt"
        proof.write_text(text.format(n=self.TOO_LONG))
        code = main(["prove-check", path_file, str(proof), "--assume", "a |> d"])
        assert code == 2
        assert capsys.readouterr().err == f"error: line {line}: {self.REASON}\n"


class TestNonUtf8Files:
    @pytest.mark.parametrize("command", [["ne"], ["prove", "a |> a"]], ids=["ne", "prove"])
    def test_is_a_read_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"players a\xff\n")
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot read {path}: 'utf-8' codec can't decode "
                                f"byte 0xff in position 9: invalid start byte\n")


class TestHarness:
    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_program_name(self):
        assert build_parser().prog == "gamedep"

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_successive_calls_do_not_share_assumptions(self, path_file, capsys):
        goal = ["prove", path_file, "b,c |> d"]
        assert main([*goal, "--assume", "a |> d"]) == 0
        assert capsys.readouterr().out == PROOF_DOC
        assert main(goal) == 1
        assert capsys.readouterr().out == "not derivable\n"
        assert main([*goal, "--assume", "c |> d"]) == 0
        assert "1. c |> d [Hypothesis]" in capsys.readouterr().out
        fuzz = ["fuzz-soundness", path_file, "--samples", "20", "--seed", "42"]
        assert main([*fuzz, "--assume", "a |> d"]) == 0
        assert "hypotheses satisfied: 20" not in capsys.readouterr().out
        assert main(fuzz) == 0
        assert "hypotheses satisfied: 20" in capsys.readouterr().out

    def test_usage_error_exits_2_between_calls(self, path_file, capsys):
        assert main(["prove", path_file, "a |> a"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["refute", path_file])  # formula missing
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
        assert main(["prove", path_file, "a |> a"]) == 0

    def test_entry_exits_with_the_return_code(self, game_file, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gamedep", "check", game_file, "false"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 1


class TestModuleEntryPoints:
    """`python -m gamedep` and `python -m gamedep.cli` behave as `main`."""

    @pytest.mark.parametrize("module", ["gamedep", "gamedep.cli"])
    @pytest.mark.parametrize("args, code", [
        (["check", "{game}", "a |> b"], 0),
        (["check", "{game}", "{{}} |> a"], 1),
        (["ne", "{absent}"], 2),
    ], ids=["holds", "fails", "unreadable"])
    def test_output_and_exit_code_match_main(self, module, args, code, game_file,
                                             tmp_path, capsys):
        argv = [a.format(game=game_file, absent=tmp_path / "absent.txt") for a in args]
        assert main(argv) == code
        expected = capsys.readouterr()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (code, expected.out, expected.err)
