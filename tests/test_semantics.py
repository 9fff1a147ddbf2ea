"""Dependence atoms and formula truth over the equilibrium set."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamedep.core import FALSUM, Atom, Game, Implication, InputError
from gamedep.equilibrium import equilibria
from gamedep.search import builtin_game, builtin_graph
from gamedep.semantics import depends, determined_players, holds

from generators import games, player_sets

from oracles import depends_pairwise


class TestDepends:
    @given(games(max_players=4), st.data())
    def test_matches_the_pairwise_definition(self, game, data):
        lhs = data.draw(player_sets(game.graph))
        rhs = data.draw(player_sets(game.graph))
        assert depends(game, lhs, rhs) == depends_pairwise(game, lhs, rhs)

    def test_empty_rhs_is_trivial(self):
        game = builtin_game("parity")
        assert depends(game, set(), set())
        assert depends(game, {"a"}, set())

    def test_empty_lhs_means_constant(self):
        game = builtin_game("parity")  # four equilibria, none constant
        assert not depends(game, set(), {"a"})
        lonely = Game.of(builtin_graph("pair"), {"a": ("x",), "b": ("y",)}, {})
        assert depends(lonely, set(), {"a", "b"})

    def test_vacuous_on_empty_equilibrium_set(self):
        graph = builtin_graph("pair")
        chase = Game.of(graph, {"a": ("0", "1"), "b": ("0", "1")},
                        {"a": {("0", "0"): 1, ("1", "1"): 1},
                         "b": {("0", "1"): 1, ("1", "0"): 1}})
        assert equilibria(chase) == ()
        assert depends(chase, set(), {"a", "b"})

    def test_unknown_players_are_rejected_on_either_side(self):
        parity = builtin_game("parity")
        chase = Game.of(builtin_graph("pair"), {"a": ("0", "1"), "b": ("0", "1")},
                        {"a": {("0", "0"): 1, ("1", "1"): 1},
                         "b": {("0", "1"): 1, ("1", "0"): 1}})
        for game in (parity, chase):  # chase has no equilibria to scan
            with pytest.raises(InputError, match="unknown player 'z'"):
                depends(game, {"z"}, {"a"})
            with pytest.raises(InputError, match="unknown player 'z'"):
                depends(game, {"a"}, {"z"})
            with pytest.raises(InputError, match="unknown player 'z'"):
                depends(game, set(), {"z"})
            with pytest.raises(InputError, match="unknown player 'z'"):
                determined_players(game, {"a", "z"})


class TestDeterminedPlayers:
    @given(games(max_players=4), st.data())
    def test_is_the_largest_true_rhs(self, game, data):
        lhs = data.draw(player_sets(game.graph))
        determined = determined_players(game, lhs)
        assert lhs <= determined
        for player in game.graph.players:
            assert (player in determined) == depends(game, lhs, {player})

    @given(games(max_players=4), st.data())
    def test_characterizes_depends(self, game, data):
        lhs = data.draw(player_sets(game.graph))
        rhs = data.draw(player_sets(game.graph))
        assert depends(game, lhs, rhs) == (rhs <= determined_players(game, lhs))

    def test_parity_game(self):
        game = builtin_game("parity")
        assert determined_players(game, {"a", "b"}) == {"a", "b", "c"}
        assert determined_players(game, {"a"}) == {"a"}


class TestHolds:
    def test_falsum_never_holds(self):
        assert not holds(builtin_game("parity"), FALSUM)

    def test_atoms_delegate_to_depends(self):
        game = builtin_game("parity")
        assert holds(game, Atom.of("ab", "c"))
        assert not holds(game, Atom.of("a", "c"))

    def test_implication_is_classical(self):
        game = builtin_game("parity")
        true_atom = Atom.of("ab", "c")
        false_atom = Atom.of("a", "c")
        assert holds(game, Implication(false_atom, true_atom))
        assert holds(game, Implication(false_atom, false_atom))
        assert holds(game, Implication(true_atom, true_atom))
        assert not holds(game, Implication(true_atom, false_atom))

    def test_a_non_formula_is_an_input_error(self):
        with pytest.raises(InputError, match="not a formula: 'a'"):
            holds(builtin_game("parity"), "a")

    def test_negation_sugar(self):
        game = builtin_game("parity")
        assert holds(game, Implication(Atom.of("a", "c"), FALSUM))
        assert not holds(game, Implication(Atom.of("ab", "c"), FALSUM))

    @given(games(max_players=3), st.data())
    def test_semantic_augmentation(self, game, data):
        # depends(A, B) entails depends(A|C, B|C) for arbitrary C
        lhs = data.draw(player_sets(game.graph))
        extra = data.draw(player_sets(game.graph))
        rhs = determined_players(game, lhs)
        assert depends(game, lhs | extra, rhs | extra)

    @given(games(max_players=3), st.data())
    def test_semantic_transitivity(self, game, data):
        # everything determined by D(A) was already determined by A
        lhs = data.draw(player_sets(game.graph))
        middle = determined_players(game, lhs)
        assert determined_players(game, middle) <= middle
