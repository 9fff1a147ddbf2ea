"""Graphs, cuts, games, profiles, and formula scaffolding."""

import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamedep.core import (
    FALSUM,
    Atom,
    Cut,
    DependencyGraph,
    Game,
    Implication,
    InputError,
    agrees_on,
    check_formula_scope,
    check_label,
    check_player_name,
    formula_players,
    profile_from_mapping,
    profile_to_mapping,
    splice_profiles,
    validate_game,
)
from gamedep.parser import (
    parse_atom,
    parse_derivation,
    parse_graph,
    print_derivation,
    print_graph,
)
from gamedep.prover import check_derivation, derive_tree, derives
from gamedep.search import builtin_game, builtin_graph

from generators import cuts, games, graphs, player_sets
from oracles import local_order_by_edges

PATH4 = builtin_graph("gamma1")


class TestNames:
    def test_accepts_letter_then_word_chars(self):
        assert check_player_name("a") == "a"
        assert check_player_name("Row_2") == "Row_2"

    @pytest.mark.parametrize("bad", ["", "2a", "a-b", "a b", "false", None])
    def test_rejects_malformed_player_names(self, bad):
        with pytest.raises(InputError):
            check_player_name(bad)

    def test_labels_may_start_with_digits(self):
        assert check_label("0") == "0"
        assert check_label("a1") == "a1"

    @pytest.mark.parametrize("bad", ["", "a b", "x-y", None])
    def test_rejects_malformed_labels(self, bad):
        with pytest.raises(InputError):
            check_label(bad)


class TestDependencyGraph:
    def test_keeps_declaration_order(self):
        g = DependencyGraph.of(["d", "a", "c"], [("c", "a")])
        assert g.players == ("d", "a", "c")
        assert g.sorted_players({"c", "a"}) == ("a", "c")
        assert g.index("a") == 1

    def test_rejects_duplicates_loops_and_unknown_endpoints(self):
        with pytest.raises(InputError, match="duplicate player"):
            DependencyGraph.of(["a", "a"])
        with pytest.raises(InputError, match="loop edge"):
            DependencyGraph.of(["a", "b"], [("a", "a")])
        with pytest.raises(InputError, match="duplicate edge"):
            DependencyGraph.of(["a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(InputError, match="not a declared player"):
            DependencyGraph.of(["a"], [("a", "b")])

    def test_neighbourhoods_on_the_path(self):
        assert PATH4.neighbors("b") == {"a", "c"}
        assert PATH4.closed_neighborhood("a") == {"a", "b"}
        assert PATH4.local_order("b") == ("a", "b", "c")
        assert PATH4.local_order("a") == ("a", "b")

    def test_border_on_the_path(self):
        assert PATH4.border({"a", "b"}) == {"b"}
        assert PATH4.border({"c", "d"}) == {"c"}
        assert PATH4.border({"a", "d"}) == {"a", "d"}
        assert PATH4.border(set()) == set()
        assert PATH4.border({"a", "b", "c", "d"}) == set()

    def test_border_of_pendant_and_core_regions(self):
        # these two graphs drive the worked derivations, so their borders
        # are pinned here exactly
        g4 = builtin_graph("gamma4")
        assert g4.border({"a", "b", "c"}) == {"b", "c"}
        assert g4.border({"d", "e"}) == {"d"}
        g5 = builtin_graph("gamma5")
        assert g5.border({"c", "f"}) == {"f"}
        assert g5.border({"a", "b", "d", "e"}) == {"d", "e"}

    def test_membership_and_len(self):
        assert "a" in PATH4 and "z" not in PATH4
        assert len(PATH4) == 4

    def test_unknown_player_lookups_raise(self):
        with pytest.raises(InputError, match="unknown player"):
            PATH4.index("z")
        with pytest.raises(InputError):
            PATH4.border({"a", "z"})

    @given(graphs())
    def test_mask_round_trip(self, graph):
        for mask in range(1 << len(graph.players)):
            assert graph.mask_of(graph.players_of_mask(mask)) == mask

    @given(graphs())
    def test_complement_partitions(self, graph):
        some = frozenset(graph.players[::2])
        other = graph.complement(some)
        assert some | other == graph.player_set()
        assert not some & other


def _small_graphs():
    """Every graph of at most 4 players, declared in an order that is not
    alphabetical, then seeded random graphs of 5 to 12 players."""
    for n in range(1, 5):
        players = ("d", "b", "a", "c")[:n]
        pairs = list(itertools.combinations(players, 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            yield DependencyGraph.of(players, itertools.compress(pairs, chosen))
    rng = random.Random(20261021)
    for _ in range(40):
        players = [f"p{i}" for i in range(rng.randint(5, 12))]
        rng.shuffle(players)
        pairs = itertools.combinations(players, 2)
        yield DependencyGraph.of(players, [pair for pair in pairs if rng.random() < 0.3])


LOCAL_TABLES = ("_local", "_local_indices")


class TestLocalTables:
    """`local_order` and `local_indices` read tables that the graph builds
    on the first call of either."""

    def test_match_the_oracle_fresh_pickled_or_copied(self):
        for graph in _small_graphs():
            for unused in (graph, pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph),
                           copy.copy(graph)):
                assert not set(LOCAL_TABLES) & set(vars(unused))
                for name in reversed(unused.players):
                    local = local_order_by_edges(graph, name)
                    assert unused.local_order(name) == local
                    assert unused.local_indices(name) == tuple(map(graph.index, local))
                assert unused == graph
            used = pickle.loads(pickle.dumps(graph))
            assert [used.local_indices(p) for p in used.players] == [
                graph.local_indices(p) for p in graph.players]

    def test_equality_and_hash_ignore_them(self):
        for graph in _small_graphs():
            unused = DependencyGraph.of(graph.players, graph.edges)
            before = hash(graph)
            for name in graph.players:
                graph.local_order(name)
            assert hash(graph) == before == hash(unused) == hash((graph.players, graph.edges))
            assert graph == unused and "_local" not in repr(graph)

    def test_unknown_player(self):
        with pytest.raises(InputError, match="unknown player 'z'"):
            PATH4.local_order("z")
        with pytest.raises(InputError, match="unknown player 'z'"):
            PATH4.local_indices("z")

    def test_prove_and_check_never_build_them(self):
        # the prover reads neighbour sets and masks, never the payoff key
        # order: parse, derive (with and without the Contiguity sweep),
        # print, re-read, check and decide
        for name, hypothesis, goal in [("gamma1", "a |> d", "b,c |> d"),
                                       ("gamma1", "a |> d", "a |> d"),
                                       ("gamma4", "a |> d", "b,c |> e"),
                                       ("gamma5", "a |> d", "b,c |> f")]:
            graph = parse_graph(print_graph(builtin_graph(name)))
            hypotheses = [parse_atom(hypothesis, graph)]
            atom = parse_atom(goal, graph)
            derivation = derive_tree(graph, hypotheses, atom.lhs, atom.rhs)
            if derivation is not None:
                text = print_derivation(derivation, graph)
                assert check_derivation(graph, hypotheses, parse_derivation(text, graph)).ok
            derives(graph, hypotheses, atom.lhs, atom.rhs)
            assert not set(LOCAL_TABLES) & set(vars(graph))


# Prints, as JSON, the message of each API call's error on atoms with
# several unknown players.
UNKNOWN_PLAYERS = """import json
from gamedep import (Atom, Cut, DependencyGraph, Derivation, Step, check_derivation,
                     check_formula_scope, derive_tree, derives, saturate)
from gamedep.prover import Reflexivity

graph = DependencyGraph.of("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
messages = []
for atom in [Atom.of("yz", ()), Atom.of("xyz", ())]:
    messages.append(check_derivation(graph, [], Derivation((Step(atom, Reflexivity()),))).problems)
    for call in [lambda: check_formula_scope(graph, atom),
                 lambda: derive_tree(graph, [], atom.lhs, atom.rhs),
                 lambda: derive_tree(graph, [atom], "a", "a"),
                 lambda: saturate(graph, [atom]),
                 lambda: derives(graph, [], atom.lhs, atom.rhs),
                 lambda: derives(graph, [], "a", atom.lhs),
                 lambda: Cut(atom.lhs | {"a", "b", "c", "d"}, frozenset()).check(graph)]:
        try:
            call()
        except ValueError as exc:
            messages.append(str(exc))
print(json.dumps(messages))
"""


class TestUnknownPlayers:
    def test_the_least_unknown_player_is_named_under_every_hash_seed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = [subprocess.run([sys.executable, "-c", UNKNOWN_PLAYERS],
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                               capture_output=True, text=True, timeout=60)
                for seed in ("1", "3")]
        assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
        first, second = (json.loads(run.stdout) for run in runs)
        assert first == second
        assert first == [message for least in "yx" for message in (
            [f"step 1: unknown player '{least}'"], *[f"unknown player '{least}'"] * 7)]


class TestCut:
    def test_of_builds_the_complement(self):
        cut = Cut.of(PATH4, {"a", "b"})
        assert cut.right == {"c", "d"}
        assert cut.check(PATH4) is cut

    def test_check_rejects_overlap_and_gaps(self):
        with pytest.raises(InputError, match="overlap"):
            Cut(frozenset("ab"), frozenset("bcd")).check(PATH4)
        with pytest.raises(InputError, match="does not cover"):
            Cut(frozenset("a"), frozenset("c")).check(PATH4)

    def test_empty_side_is_allowed(self):
        Cut.of(PATH4, set()).check(PATH4)
        Cut.of(PATH4, PATH4.player_set()).check(PATH4)

    @given(graphs())
    def test_of_always_checks(self, graph):
        Cut.of(graph, frozenset(graph.players[:1])).check(graph)


class TestFormulas:
    def test_players_of_nested_formula(self):
        formula = Implication(Atom.of("a", "b"), Implication(FALSUM, Atom.of("c", "d")))
        assert formula_players(formula) == {"a", "b", "c", "d"}
        check_formula_scope(PATH4, formula)

    def test_scope_check_rejects_foreign_players(self):
        with pytest.raises(InputError, match="unknown player"):
            check_formula_scope(PATH4, Atom.of("a", "z"))

    def test_players_of_a_non_formula_is_an_input_error(self):
        with pytest.raises(InputError, match="not a formula: 'a'"):
            formula_players("a")

    def test_empty_sides_are_legal(self):
        atom = Atom.of((), ())
        assert formula_players(atom) == frozenset()
        check_formula_scope(PATH4, atom)


def tiny_game():
    graph = builtin_graph("pair")
    return Game.of(graph,
                   {"a": ("x", "y"), "b": ("x",)},
                   {"a": {("x", "x"): 1, ("y", "x"): Fraction(1, 2)}})


class TestGame:
    def test_of_coerces_values_and_keys(self):
        game = tiny_game()
        assert game.payoffs["a"][("y", "x")] == Fraction(1, 2)
        assert isinstance(game.payoffs["a"][("x", "x")], Fraction)

    def test_of_keeps_fraction_values_as_given(self):
        half = Fraction(1, 2)
        game = Game.of(builtin_graph("pair"), {"a": ("x", "y"), "b": ("x",)},
                       {"a": {("x", "x"): half, ("y", "x"): 1}})
        assert game.payoffs["a"][("x", "x")] is half
        assert type(game.payoffs["a"][("y", "x")]) is Fraction

    def test_strategy_declarations_must_cover_players_exactly(self):
        graph = builtin_graph("pair")
        with pytest.raises(InputError, match="do not match"):
            Game.of(graph, {"a": ("x",)})
        with pytest.raises(InputError, match="do not match"):
            Game.of(graph, {"a": ("x",), "b": ("x",), "c": ("x",)})

    def test_empty_or_duplicate_labels_rejected(self):
        graph = builtin_graph("pair")
        with pytest.raises(InputError, match="no strategies"):
            Game.of(graph, {"a": (), "b": ("x",)})
        with pytest.raises(InputError, match="duplicate strategy label"):
            Game.of(graph, {"a": ("x", "x"), "b": ("x",)})

    def test_payoff_keys_must_match_local_arity_and_labels(self):
        graph = builtin_graph("pair")
        strategies = {"a": ("x",), "b": ("x",)}
        with pytest.raises(InputError, match="must assign exactly"):
            Game.of(graph, strategies, {"a": {("x",): 1}})
        with pytest.raises(InputError, match="unknown strategy"):
            Game.of(graph, strategies, {"a": {("x", "z"): 1}})

    def test_payoff_values_must_be_fractions_after_of(self):
        graph = builtin_graph("pair")
        with pytest.raises(InputError, match="must be a Fraction"):
            Game(graph, {"a": ("x",), "b": ("x",)}, {"a": {("x", "x"): 1}})

    @pytest.mark.parametrize("table, message", [
        ({("x", "x"): Fraction(1), ("y",): Fraction(0)},
         "payoff key ('y',) for player 'a' must assign exactly ('a', 'b')"),
        ({("x", "x"): Fraction(1), ("z", "x"): Fraction(0)},
         "payoff key for player 'a' uses unknown strategy 'z' for player 'a'"),
        ({("x", "x"): Fraction(1), ("y", "q"): Fraction(0)},
         "payoff key for player 'a' uses unknown strategy 'q' for player 'b'"),
        ({("x", "x"): Fraction(1), ("y", "x"): 1},
         "payoff for 'a' at ('y', 'x') must be a Fraction"),
    ], ids=["key-length", "first-column", "last-column", "value-type"])
    def test_constructor_names_the_offending_cell(self, table, message):
        graph = builtin_graph("pair")
        with pytest.raises(InputError) as err:
            Game(graph, {"a": ("x", "y"), "b": ("x",)}, {"a": table})
        assert str(err.value) == message

    def test_profile_iteration_is_lexicographic(self):
        game = tiny_game()
        assert list(game.profiles()) == [("x", "x"), ("y", "x")]
        assert game.profile_count() == 2

    def test_check_profile(self):
        game = tiny_game()
        assert game.check_profile(("y", "x")) == ("y", "x")
        with pytest.raises(InputError, match="wrong length"):
            game.check_profile(("x",))
        with pytest.raises(InputError, match="unknown strategy"):
            game.check_profile(("x", "q"))


class TestProfiles:
    def test_mapping_round_trip(self):
        profile = profile_from_mapping(PATH4, {"a": "0", "b": "1", "c": "0", "d": "1"})
        assert profile == ("0", "1", "0", "1")
        assert profile_to_mapping(PATH4, profile)["c"] == "0"
        with pytest.raises(InputError, match="does not cover"):
            profile_from_mapping(PATH4, {"a": "0"})

    def test_agrees_on(self):
        s, t = ("0", "1", "0", "1"), ("0", "0", "0", "1")
        assert agrees_on(PATH4, s, t, {"a", "c", "d"})
        assert not agrees_on(PATH4, s, t, {"b"})
        assert agrees_on(PATH4, s, t, set())

    def test_splice_takes_left_from_first(self):
        s, t = ("0", "1", "0", "1"), ("1", "0", "1", "0")
        cut = Cut.of(PATH4, {"a", "b"})
        assert splice_profiles(PATH4, s, t, cut) == ("0", "1", "1", "0")

    def test_splice_rejects_bad_cut(self):
        s = t = ("0", "0", "0", "0")
        with pytest.raises(InputError, match="does not cover"):
            splice_profiles(PATH4, s, t, Cut(frozenset("a"), frozenset("b")))

    @given(games(max_players=3), st.data())
    def test_splice_agrees_with_both_sides(self, game, data):
        cut = data.draw(cuts(game.graph))
        s = data.draw(st.sampled_from(sorted(game.profiles())))
        t = data.draw(st.sampled_from(sorted(game.profiles())))
        spliced = splice_profiles(game.graph, s, t, cut)
        assert agrees_on(game.graph, spliced, s, cut.left)
        assert agrees_on(game.graph, spliced, t, cut.right)


class TestValidateGame:
    def test_full_tables_warn_nothing(self):
        assert validate_game(builtin_game("coordination")) == ()

    def test_missing_entries_are_reported_per_player(self):
        warnings = validate_game(tiny_game())
        assert len(warnings) == 1
        assert "payoff table for b covers 0 of 2" in warnings[0]

    def test_constant_players_of_builtins_are_flagged_but_legal(self):
        warnings = validate_game(builtin_game("gamma2_rps"))
        assert len(warnings) == 2  # players a and d have empty tables
        assert all("default to 0" in w for w in warnings)
