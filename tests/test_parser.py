"""Text formats: graphs, games, formulas, and their round trips."""

import copy
import json
import pickle
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamedep import parser
from gamedep.core import FALSUM, Atom, DependencyGraph, Game, Implication
from gamedep.parser import (
    MAX_FORMULA_DEPTH,
    LocalityError,
    ParseError,
    ScopeError,
    format_player_set,
    parse_atom,
    parse_formula,
    parse_game,
    parse_graph,
    parse_rational,
    print_formula,
    print_game,
    print_graph,
)
from gamedep.search import SearchBounds, builtin_game, builtin_graph, random_game

from generators import formulas, games, graphs
from oracles import parse_game_by_lines

PATH_DOC = """\
# the four-player path
players a b c d
edge a b
edge b c   # mid edge
edge c d
"""

GAME_DOC = """\
players a b
edge a b
strategies a a1 a2
strategies b b1 b2
payoff a a=a1 b=b1 1
payoff a a=a2 b=b2 1
payoff b a=a1 b=b1 1
payoff b a=a2 b=b2 1/1
"""


class TestParseGraph:
    def test_comments_and_blanks_are_ignored(self):
        graph = parse_graph(PATH_DOC)
        assert graph.players == ("a", "b", "c", "d")
        assert graph.neighbors("c") == {"b", "d"}

    def test_round_trip_of_builtins(self):
        for name in ["gamma1", "gamma2", "gamma3", "gamma4", "gamma5"]:
            graph = builtin_graph(name)
            assert parse_graph(print_graph(graph)) == graph

    @pytest.mark.parametrize("doc,fragment", [
        ("", "empty document"),
        ("edge a b", "players line first"),
        ("players", "declares no players"),
        ("players a a", "duplicate player"),
        ("players a false", "reserved"),
        ("players a b\nplayers c", "duplicate players line"),
        ("players a b\nedge a", "exactly two players"),
        ("players a b\nedge a z", "not a declared player"),
        ("players a b\nedge a a", "loop edge"),
        ("players a b\nedge a b\nedge b a", "duplicate edge"),
        ("players a b\nvertex a", "unknown directive"),
    ])
    def test_rejects_malformed_documents(self, doc, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_graph(doc)

    def test_error_carries_the_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph("players a b\n\n# comment\nedge a a")
        assert err.value.line == 4

    @given(graphs())
    def test_print_parse_round_trip(self, graph):
        assert parse_graph(print_graph(graph)) == graph


class TestParseGame:
    def test_small_document(self):
        game = parse_game(GAME_DOC)
        assert game.strategies["a"] == ("a1", "a2")
        assert game.payoffs["b"][("a2", "b2")] == 1
        assert ("a1", "b2") not in game.payoffs["a"]

    def test_payoff_assignment_order_is_free(self):
        reordered = GAME_DOC.replace("payoff a a=a1 b=b1 1", "payoff a b=b1 a=a1 1")
        assert parse_game(reordered) == parse_game(GAME_DOC)

    @pytest.mark.parametrize("line,fragment", [
        ("strategies z s", "undeclared player"),
        ("strategies a x1", "duplicate strategies line"),
        ("strategies b", "at least one label"),
        ("payoff z a=a1 b=b1 1", "undeclared player"),
        ("payoff a a=a1 1", "closed neighbourhood"),
        ("payoff a a=a1 b=b1 c=c1 1", "closed neighbourhood"),
        ("payoff a a=a1 a=a2 b=b1 1", "assigned twice"),
        ("payoff a a=zz b=b1 1", "unknown strategy"),
        ("payoff a a=a1 b=b1 1", "duplicate payoff entry"),
        ("payoff a a=a1 bb1 1", "malformed assignment"),
        ("payoff a", "expects a player, assignments, and a value"),
        ("payoff a a=a2 b=b1 x", "malformed rational"),
        ("payoff a a=a2 b=b1 1/0", "zero denominator"),
    ])
    def test_rejects_malformed_lines(self, line, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_game(GAME_DOC + line + "\n")

    def test_locality_violation_has_its_own_type(self):
        with pytest.raises(LocalityError):
            parse_game(GAME_DOC + "payoff a a=a1 1\n")

    def test_missing_strategies_reported_at_players_line(self):
        doc = "players a b\nedge a b\nstrategies a x\n"
        with pytest.raises(ParseError, match="has no strategies line") as err:
            parse_game(doc)
        assert err.value.line == 1

    def test_incomplete_tables_parse(self):
        doc = "players a\nstrategies a x y\n"
        game = parse_game(doc)
        assert game.payoffs == {}

    def test_round_trip_of_builtins(self):
        for name in ["coordination", "table2", "parity", "consensus",
                     "gamma2_rps", "gamma1_mean_mod(3)"]:
            game = builtin_game(name)
            assert parse_game(print_game(game)) == game

    @given(games())
    def test_print_parse_round_trip(self, game):
        assert parse_game(print_game(game)) == game

    def test_round_trip_holds_for_games_as_game_of_normalises_them(self):
        # an empty table prints no line: the raw constructor keeps it, so its
        # game does not come back equal; Game.of drops it, so its game does
        graph = builtin_graph("pair")
        strategies = {"a": ("0", "1"), "b": ("0",)}
        raw = Game(graph, strategies, {"a": {}})
        assert print_game(raw) == print_game(Game(graph, strategies, {}))
        assert parse_game(print_game(raw)) != raw
        normalised = Game.of(graph, strategies, {"a": {}})
        assert parse_game(print_game(normalised)) == normalised


SIGNED_VALUES = (Fraction(-7, 2), Fraction(-1, 3), 0, Fraction(2, 5), 1, 12)


def _split_document(text):
    """(the lines before the payoff lines, the payoff lines as token lists)."""
    head, payoff = [], []
    for line in text.splitlines():
        if line.startswith("payoff "):
            payoff.append(line.split())
        else:
            head.append(line)
    return head, payoff


def _join_document(head, payoff):
    return "\n".join(head + [" ".join(tokens) for tokens in payoff]) + "\n"


def _outside_player(game, player):
    """A name outside the closed neighbourhood of `player`: a distant player
    if there is one, else an undeclared name."""
    local = game.graph.local_order(player)
    return next((p for p in game.graph.players if p not in local), "z")


# Single-fault mutations of one payoff line (a token list), each with a
# fragment of the error it must raise.  Strategy labels are digits below 3
# and player names single letters below "i", so "9" and "z" are unknown.
LINE_FAULTS = {
    "malformed assignment": (
        lambda game, tokens: tokens[:2] + [tokens[2].replace("=", "")] + tokens[3:],
        "malformed assignment"),
    "player assigned twice": (
        lambda game, tokens: tokens[:3] + [tokens[2]] + tokens[3:],
        "assigned twice"),
    "player assigned twice in place of another": (
        lambda game, tokens: tokens[:-2] + [tokens[2].split("=")[0] + "=0"] + tokens[-1:]
        if len(tokens) > 4 else tokens[:3] + [tokens[2]] + tokens[3:],
        "assigned twice"),
    "missing neighbour": (
        lambda game, tokens: tokens[:2] + tokens[3:],
        "closed neighbourhood"),
    "extra neighbour": (
        lambda game, tokens: tokens[:-1] + [f"{_outside_player(game, tokens[1])}=0"]
        + tokens[-1:],
        "closed neighbourhood"),
    "unknown label": (
        lambda game, tokens: tokens[:-2] + [tokens[-2].split("=")[0] + "=9"] + tokens[-1:],
        "unknown strategy"),
    "malformed rational": (lambda game, tokens: tokens[:-1] + ["1.5"], "malformed rational"),
    "non-ASCII digit": (lambda game, tokens: tokens[:-1] + ["٣"], "malformed rational"),
    "zero denominator": (lambda game, tokens: tokens[:-1] + ["1/0"], "zero denominator"),
    "value alone": (lambda game, tokens: tokens[-1:], "unknown directive"),
    "undeclared player": (
        lambda game, tokens: tokens[:1] + ["z"] + tokens[2:], "undeclared player"),
    "no assignments or value": (
        lambda game, tokens: tokens[:2], "expects a player, assignments, and a value"),
    "locality fault and unknown label": (
        lambda game, tokens: tokens[:2] + [tokens[2].split("=")[0] + "=9"] + tokens[3:-1]
        + [f"{_outside_player(game, tokens[1])}=0"] + tokens[-1:],
        "closed neighbourhood"),
}


def _equal_value(line, form):
    """A payoff line with its value written in another form of equal value."""
    rest, value = line.rsplit(" ", 1)
    sign, digits = ("-", value[1:]) if value.startswith("-") else ("", value)
    numerator, _, denominator = digits.partition("/")
    written = {"2/4": f"{sign}{2 * int(numerator)}/{2 * int(denominator or 1)}",
               "007": f"{sign}00{digits}",
               "-0": "-0" if value == "0" else value}[form]
    return f"{rest} {written}"


def _replaced(lines, i, line):
    return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"


def _inserted(lines, i, line):
    return "\n".join(lines[:i] + [line] + lines[i:]) + "\n"


def _line_moved_last(lines, i):
    """An edge or strategies line moved last, with no newline after it."""
    first_payoff = next(k for k, line in enumerate(lines) if line.startswith("payoff "))
    moved = 1 + i % (first_payoff - 1)
    return "\n".join(lines[:moved] + lines[moved + 1:] + [lines[moved]])


# Printed documents that the per-line reader still accepts, each changed in
# one way at the payoff line `lines[i]`; they parse to the printed game.
PRINTED_VARIANTS = {
    "doubled space": lambda lines, i: _replaced(lines, i, "  ".join(lines[i].rsplit(" ", 1))),
    "trailing space": lambda lines, i: _replaced(lines, i, lines[i] + " "),
    "tab": lambda lines, i: _replaced(lines, i, lines[i].replace(" ", "\t", 1)),
    "CRLF line ends": lambda lines, i: "\r\n".join(lines) + "\r\n",
    "comment line": lambda lines, i: _inserted(lines, i, "# a comment"),
    "comment at the end of a line": lambda lines, i: _replaced(lines, i, lines[i] + " # a comment"),
    "blank line": lambda lines, i: _inserted(lines, i, ""),
    "edge or strategies line last": _line_moved_last,
    "value 2/4": lambda lines, i: _replaced(lines, i, _equal_value(lines[i], "2/4")),
    "value -0": lambda lines, i: _replaced(lines, i, _equal_value(lines[i], "-0")),
    "value 007": lambda lines, i: _replaced(lines, i, _equal_value(lines[i], "007")),
}


def _same_error(text):
    """Both parsers reject `text` with the same type, location and message."""
    with pytest.raises(ParseError) as fast:
        parse_game(text)
    with pytest.raises(ParseError) as slow:
        parse_game_by_lines(text)
    assert type(fast.value) is type(slow.value)
    assert (fast.value.line, fast.value.column, str(fast.value)) == \
        (slow.value.line, slow.value.column, str(slow.value))
    return fast.value


class TestAgainstLineOracle:
    @given(games(max_players=4, values=SIGNED_VALUES, drop_cells=True), st.randoms())
    def test_shuffled_lines_and_assignments(self, game, rng):
        head, payoff = _split_document(print_game(game))
        rng.shuffle(payoff)
        for tokens in payoff:
            assignments = tokens[2:-1]
            rng.shuffle(assignments)
            tokens[2:-1] = assignments
        text = _join_document(head, payoff)
        assert parse_game(text) == parse_game_by_lines(text) == game

    @pytest.mark.parametrize("fault", LINE_FAULTS)
    @given(game=games(max_players=4, values=SIGNED_VALUES), data=st.data())
    def test_single_faults(self, fault, game, data):
        mutate, fragment = LINE_FAULTS[fault]
        head, payoff = _split_document(print_game(game))
        index = data.draw(st.integers(0, len(payoff) - 1))
        payoff[index] = mutate(game, payoff[index])
        error = _same_error(_join_document(head, payoff))
        assert fragment in str(error)
        assert error.line == len(head) + index + 1
        if "locality" in fault or "neighbour" in fault:
            assert isinstance(error, LocalityError)

    @given(game=games(max_players=4, values=SIGNED_VALUES), data=st.data())
    def test_duplicate_entry(self, game, data):
        head, payoff = _split_document(print_game(game))
        tokens = data.draw(st.sampled_from(payoff))
        payoff.append(tokens[:2] + data.draw(st.permutations(tokens[2:-1])) + ["7/3"])
        error = _same_error(_join_document(head, payoff))
        assert "duplicate payoff entry" in str(error)
        assert error.line == len(head) + len(payoff)

    @pytest.mark.parametrize("variant", PRINTED_VARIANTS)
    @given(game=games(max_players=4, values=SIGNED_VALUES), data=st.data())
    def test_variants_of_printed_documents(self, variant, game, data):
        lines = print_game(game).splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("payoff "))
        text = PRINTED_VARIANTS[variant](lines, data.draw(st.integers(first, len(lines) - 1)))
        assert parse_game(text) == parse_game_by_lines(text) == game

    @given(games(max_players=4, values=SIGNED_VALUES))
    def test_faulty_last_line_without_newline(self, game):
        text = print_game(game) + "bogus"
        error = _same_error(text)
        assert "unknown directive" in str(error)
        assert error.line == text.count("\n") + 1

    @given(data=st.data(), drop_cells=st.booleans())
    def test_dropped_cells_and_names_that_prefix_each_other(self, data, drop_cells):
        game = data.draw(games(graph=data.draw(_parser_graphs()), values=SIGNED_VALUES,
                               drop_cells=drop_cells))
        text = print_game(game)
        assert parse_game(text) == parse_game_by_lines(text) == game


@st.composite
def _parser_graphs(draw):
    """A generated graph, possibly with its players renamed a, ab, abb, ...
    so that each name is a prefix of the next."""
    graph = draw(graphs(max_players=4))
    if not draw(st.booleans()):
        return graph
    names = {p: "a" + "b" * i for i, p in enumerate(graph.players)}
    return DependencyGraph.of(names.values(), [(names[u], names[v]) for u, v in graph.edges])


@contextmanager
def _printed_form_only():
    """Fail if `parse_game` hands its document to the per-line reader."""
    def refuse(text):
        raise AssertionError("a printed document reached the per-line reader")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_read_game_by_lines", refuse)
        yield


BUILTIN_GAMES = ["coordination", "table2", "parity", "consensus", "gamma2_rps",
                 "gamma1_mean_mod(3)", "gamma1_mean_mod(5)"]


class TestPrintedForm:
    def test_builtins(self):
        for name in BUILTIN_GAMES:
            game = builtin_game(name)
            with _printed_form_only():
                assert parse_game(print_game(game)) == game

    @given(data=st.data())
    def test_generated_games(self, data):
        game = data.draw(games(graph=data.draw(_parser_graphs()), values=SIGNED_VALUES))
        with _printed_form_only():
            assert parse_game(print_game(game)) == game

    def test_short_document_declaring_a_huge_table(self):
        # A 3-player path with 3,000 labels each: b's table has 2.7e10 cells,
        # the document (about 50 KB) one payoff line.
        labels = " ".join(f"s{i}" for i in range(3000))
        text = ("players a b c\nedge a b\nedge b c\n"
                + "".join(f"strategies {p} {labels}\n" for p in "abc")
                + "payoff b a=s0 b=s0 c=s0 1\n")
        start = time.perf_counter()
        game = parse_game(text)
        assert time.perf_counter() - start < 0.5
        assert game.payoffs == {"b": {("s0", "s0", "s0"): 1}}


def _demo_documents():
    """The game documents the demos print: each block of their recorded
    output from a players line to the next blank line."""
    for path in sorted((Path(__file__).parent / "demo_outputs").glob("*.txt")):
        block = None
        for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
            if line.startswith("players "):
                block = []
            if block is not None and not line.strip():
                yield "".join(block)
                block = None
            elif block is not None:
                block.append(line)
        if block:
            yield "".join(block)


def _assert_passes_the_checked_constructors(game):
    """`game`, built by a reader without a second check, is one that the
    checked constructors accept and rebuild equal."""
    graph = game.graph
    assert DependencyGraph.of(graph.players, graph.edges) == graph
    assert Game(graph, game.strategies, game.payoffs) == game
    assert Game.of(graph, game.strategies, game.payoffs) == game


def _assert_both_readers_check(printed):
    """Both readers' games from a printed document, and from the same
    document with a trailing comment, pass the checked constructors."""
    commented = printed + "# comment\n"
    game = parser._read_printed_game(printed)
    assert game is not None
    assert parser._read_printed_game(commented) is None
    for built in (game, parser._read_game_by_lines(printed),
                  parser._read_game_by_lines(commented)):
        _assert_passes_the_checked_constructors(built)
        assert built == game
    return game


class TestReadersSkipTheSecondCheck:
    """The readers build `Game` and `DependencyGraph` without re-validating
    them; every game they return is one the checked constructors accept."""

    def test_demo_outputs(self):
        documents = list(_demo_documents())
        assert len(documents) == 2
        for text in documents:
            _assert_both_readers_check(text)

    def test_builtins(self):
        for name in BUILTIN_GAMES:
            game = builtin_game(name)
            assert _assert_both_readers_check(print_game(game)) == game

    @given(data=st.data())
    def test_generated_games(self, data):
        game = data.draw(games(graph=data.draw(_parser_graphs()), values=SIGNED_VALUES))
        assert _assert_both_readers_check(print_game(game)) == game

    @given(games(max_players=4, values=SIGNED_VALUES, drop_cells=True))
    def test_incomplete_tables(self, game):
        # incomplete tables are not in printed form: the per-line reader reads them
        for text in (print_game(game), print_game(game) + "# comment\n"):
            built = parse_game(text)
            _assert_passes_the_checked_constructors(built)
            assert built == game

    @given(graphs(), st.randoms())
    def test_edges_in_any_order_and_direction(self, graph, rng):
        edges = [list(edge) for edge in graph.edges]
        rng.shuffle(edges)
        for edge in edges:
            rng.shuffle(edge)
        text = "players " + " ".join(graph.players) + "\n" + "".join(
            f"edge {u} {v}\n" for u, v in edges)
        parsed = parse_graph(text)
        assert DependencyGraph.of(parsed.players, parsed.edges) == parsed == graph

    def test_parsing_runs_neither_check(self):
        game = builtin_game("gamma2_rps")
        printed = print_game(game)
        calls = []
        post_init, of = Game.__post_init__, DependencyGraph.of.__func__

        def counted_post_init(self):
            calls.append("Game.__post_init__")
            post_init(self)

        def counted_of(cls, *args):
            calls.append("DependencyGraph.of")
            return of(cls, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Game, "__post_init__", counted_post_init)
            patch.setattr(DependencyGraph, "of", classmethod(counted_of))
            assert parse_game(printed) == game
            assert parse_game(printed + "# comment\n") == game
            assert parse_graph(print_graph(game.graph)) == game.graph
            assert calls == []
            # the counters do see the checked constructors
            Game.of(DependencyGraph.of(game.graph.players, game.graph.edges),
                    game.strategies, game.payoffs)
        assert calls == ["DependencyGraph.of", "Game.__post_init__"]


def _deferred_corpus():
    """(id, printed game document): every built-in, seeded random games,
    and games with an absent table, an all-zero table, and fractional and
    negative values."""
    corpus = [(name, print_game(builtin_game(name))) for name in BUILTIN_GAMES]
    bounds = SearchBounds(max_strategies=3, seed=11,
                          payoff_values=(-2, Fraction(-1, 3), 0, Fraction(5, 2), 7))
    for name in ("gamma1", "gamma3", "gamma5", "triangle", "pair"):
        corpus += [(f"random-{name}-{index}",
                    print_game(random_game(builtin_graph(name), bounds, index)))
                   for index in range(3)]
    head = ("players a b c\nedge a b\nedge b c\n"
            "strategies a x y\nstrategies b u\nstrategies c p q\n")
    corpus += [
        ("absent-tables", head + "payoff a a=x b=u 1\npayoff a a=y b=u 2\n"),
        ("all-zero-table", head + "payoff a a=x b=u 0\npayoff a a=y b=u 0\n"
         "payoff b a=x b=u c=p 3\npayoff b a=x b=u c=q -1\n"
         "payoff b a=y b=u c=p 1/2\npayoff b a=y b=u c=q 1/2\n"),
        ("fractional-negative", head + "payoff a a=x b=u -3/4\npayoff a a=y b=u 2/3\n"
         "payoff c b=u c=p -7\npayoff c b=u c=q -1/2\n"),
    ]
    return corpus


class TestDeferredPayoffs:
    """The printed-form reader leaves `payoffs` to be built on first read,
    from the tokens and values in `_cache`; the game it builds then is the
    per-line reader's."""

    @pytest.mark.parametrize("text", [pytest.param(text, id=name)
                                      for name, text in _deferred_corpus()])
    def test_first_read_builds_the_per_line_readers_tables(self, text):
        game = parse_game(text)
        assert "payoffs" not in vars(game)
        pickled = pickle.dumps(game)
        copied = copy.deepcopy(game)
        by_lines = parser._read_game_by_lines(text)
        # equality in both directions, each side unread
        assert parse_game(text) == by_lines and by_lines == parse_game(text)
        assert game.payoffs == by_lines.payoffs
        # the same tables, in the same order
        assert ([(p, list(table.items())) for p, table in game.payoffs.items()]
                == [(p, list(table.items())) for p, table in by_lines.payoffs.items()])
        assert "payoffs" in vars(game)
        for before_first_read in (pickle.loads(pickled), copied):
            assert "payoffs" not in vars(before_first_read)
            assert before_first_read == game and game == before_first_read
        assert pickle.loads(pickle.dumps(game)) == game == copy.deepcopy(game)
        assert not hasattr(game, "nope") and not hasattr(parse_game(text), "nope")
        assert print_game(parse_game(text)) == text

    def test_only_payoffs_is_built(self):
        # a game not yet given its fields (as unpickling makes one) has
        # no attribute, `payoffs` included, and does not recurse looking
        empty = Game.__new__(Game)
        for name in ("payoffs", "_cache", "graph", "__setstate__"):
            assert not hasattr(empty, name)
        with pytest.raises(AttributeError, match="'Game' object has no attribute 'nope'"):
            parse_game(GAME_DOC).nope


class TestRationals:
    @pytest.mark.parametrize("text,value", [
        ("0", Fraction(0)), ("-2", Fraction(-2)), ("3/4", Fraction(3, 4)),
        ("-7/2", Fraction(-7, 2)), ("10/5", Fraction(2)),
    ])
    def test_accepts_integers_and_fractions(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["", "x", "1.5", "1/-2", "--3", "1/0", "٣", "1/٢"])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)


GRAPH = builtin_graph("gamma1")

# Each formula has one fault.  formula_errors.json holds the error each gave
# (type, line, column, message); regenerate it with
# `python tests/test_parser.py` only from a tree whose reader is trusted.
FORMULA_CORPUS = Path(__file__).with_name("formula_errors.json")
MALFORMED_FORMULAS = [
    "", "a |>", "|> a", "a b |> c", "a |> b extra", "(a |> b", "a, |> b",
    "{a,} |> b", "a ? b", "a |> b -> ",
    "a |> z", "a |> b ?", "(", "{a", "a |> b )", "!",
    "a |> b  # a comment\n-> ",
    "a |> b ->  # a comment\n  b |> c ?",
    "a\n|>",
    "!" * (MAX_FORMULA_DEPTH + 1) + "a |> b",
]


def _formula_error(text):
    with pytest.raises(ParseError) as caught:
        parse_formula(text, GRAPH)
    error = caught.value
    return [type(error).__name__, error.line, error.column, str(error)]


class TestParseFormula:
    def test_atom_with_bare_and_braced_sets(self):
        assert parse_formula("a,b |> c", GRAPH) == Atom.of("ab", "c")
        assert parse_formula("{a,b} |> {c}", GRAPH) == Atom.of("ab", "c")
        assert parse_formula("{} |> a", GRAPH) == Atom.of("", "a")
        assert parse_formula("a |> {}", GRAPH) == Atom.of("a", "")

    def test_implication_is_right_associative(self):
        formula = parse_formula("a |> b -> b |> c -> false", GRAPH)
        assert formula == Implication(Atom.of("a", "b"),
                                      Implication(Atom.of("b", "c"), FALSUM))

    def test_parentheses_override_associativity(self):
        formula = parse_formula("(a |> b -> b |> c) -> false", GRAPH)
        assert formula == Implication(Implication(Atom.of("a", "b"),
                                                  Atom.of("b", "c")), FALSUM)

    def test_negation_is_implication_to_false(self):
        assert parse_formula("!a |> b", GRAPH) == Implication(Atom.of("a", "b"), FALSUM)
        assert parse_formula("!!false", GRAPH) == Implication(Implication(FALSUM, FALSUM), FALSUM)

    def test_false_keyword(self):
        assert parse_formula("false", GRAPH) == FALSUM
        assert parse_formula("false -> a |> b", GRAPH) == Implication(FALSUM, Atom.of("a", "b"))

    @pytest.mark.parametrize("bad,fragment", [
        ("", "empty formula"),
        ("a |>", "expected a player set"),
        ("|> a", "expected a player set"),
        ("a b |> c", "expected"),
        ("a |> b extra", "trailing"),
        ("(a |> b", "unexpected end"),
        ("a, |> b", "expected 'id'"),
        ("{a,} |> b", "expected"),
        ("a ? b", "unexpected character"),
        ("a |> b -> ", "unexpected end"),
    ])
    def test_rejects_malformed_formulas(self, bad, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_formula(bad, GRAPH)

    def test_errors_agree_with_the_recorded_corpus(self):
        recorded = json.loads(FORMULA_CORPUS.read_text(encoding="utf-8"))
        assert sorted(recorded) == sorted(MALFORMED_FORMULAS)
        for text in MALFORMED_FORMULAS:
            assert _formula_error(text) == recorded[text], text

    def test_out_of_scope_player_is_a_scope_error(self):
        with pytest.raises(ScopeError, match="not in the graph"):
            parse_formula("a |> z", GRAPH)

    def test_error_position_points_at_the_offender(self):
        with pytest.raises(ParseError) as err:
            parse_formula("a |> b ?", GRAPH)
        assert err.value.column == 8

    def test_nesting_bound_counts_arrows_negations_and_parentheses_together(self):
        half = MAX_FORMULA_DEPTH // 2
        at_bound = "(!" * half + "a |> b" + ")" * half
        assert parse_formula(at_bound, GRAPH) == parse_formula("!" * half + "a |> b", GRAPH)
        with pytest.raises(ParseError, match="nests more than") as err:
            parse_formula("!" + at_bound, GRAPH)
        assert (err.value.line, err.value.column) == (1, 2 * half + 1)
        with pytest.raises(ParseError, match="nests more than") as err:
            parse_formula(f"a |> b -> {at_bound}", GRAPH)
        assert err.value.column == 2 * half + len("a |> b -> ")

    def test_parse_atom_rejects_non_atoms(self):
        assert parse_atom("b,a |> d", GRAPH) == Atom.of("ab", "d")
        with pytest.raises(ParseError, match="expected a dependence atom"):
            parse_atom("false", GRAPH)
        with pytest.raises(ParseError, match="expected a dependence atom"):
            parse_atom("a |> b -> false", GRAPH)


class TestPrintFormula:
    def test_sets_print_in_declaration_order(self):
        assert print_formula(Atom.of("db", "ca"), GRAPH) == "b,d |> a,c"

    def test_empty_sets_print_braced(self):
        assert print_formula(Atom.of("", "a"), GRAPH) == "{} |> a"
        assert format_player_set(GRAPH, set()) == "{}"
        assert format_player_set(GRAPH, {"a"}, braced=True) == "{a}"

    def test_minimal_parentheses(self):
        inner = Implication(Atom.of("a", "b"), FALSUM)
        assert print_formula(Implication(inner, FALSUM), GRAPH) == "(a |> b -> false) -> false"
        chained = Implication(Atom.of("a", "b"), inner)
        assert print_formula(chained, GRAPH) == "a |> b -> a |> b -> false"

    @given(graphs(), st.data())
    def test_print_parse_round_trip(self, graph, data):
        formula = data.draw(formulas(graph))
        assert parse_formula(print_formula(formula, graph), graph) == formula


if __name__ == "__main__":
    corpus = {text: _formula_error(text) for text in MALFORMED_FORMULAS}
    entries = ",\n".join(f"{json.dumps(text)}: {json.dumps(error)}"
                          for text, error in sorted(corpus.items()))
    FORMULA_CORPUS.write_text("{\n" + entries + "\n}\n", encoding="utf-8")
    print(f"{len(corpus)} formulas recorded in {FORMULA_CORPUS}")
