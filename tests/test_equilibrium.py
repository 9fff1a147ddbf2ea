"""Equilibrium enumeration and the deviation/splice invariants."""

import contextlib
import io
import itertools
import math
import os
import random
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamedep import parser
from gamedep.cli import main
from gamedep.core import (
    Atom,
    Cut,
    DependencyGraph,
    Game,
    Implication,
    ResourceLimitError,
    agrees_on,
    profile_to_mapping,
    splice_profiles,
)
from gamedep.equilibrium import (
    _best_responses,
    _cells,
    enumerate_equilibria,
    equilibria,
    is_equilibrium,
    payoff_of,
)
from gamedep.parser import parse_game, print_formula, print_game
from gamedep.search import SearchBounds, builtin_game, builtin_graph, random_game
from gamedep.semantics import holds

from generators import cuts, formulas, games

from oracles import depends_pairwise  # noqa: F401  (re-exported for sibling tests)
from oracles import best_responses_by_cells, equilibria_by_deviation


COORDINATION = builtin_game("coordination")


class TestPayoffOf:
    def test_reads_the_table(self):
        assert payoff_of(COORDINATION, "a", ("a1", "b1")) == 1
        assert payoff_of(COORDINATION, "a", ("a1", "b2")) == 0

    def test_missing_entries_default_to_zero(self):
        game = builtin_game("gamma2_rps")  # a and d have no tables
        assert payoff_of(game, "a", ("rock",) * 4) == 0
        assert payoff_of(game, "b", ("rock", "rock", "scissors", "paper")) == 1

    @given(games(max_players=3), st.data())
    def test_depends_only_on_the_closed_neighbourhood(self, game, data):
        graph = game.graph
        player = data.draw(st.sampled_from(graph.players))
        profile = list(data.draw(st.sampled_from(sorted(game.profiles()))))
        local = graph.closed_neighborhood(player)
        value = payoff_of(game, player, tuple(profile))
        for i, other in enumerate(graph.players):
            if other not in local:
                profile[i] = data.draw(st.sampled_from(game.strategies[other]))
        assert payoff_of(game, player, tuple(profile)) == value


class TestIsEquilibrium:
    def test_coordination_profiles(self):
        assert is_equilibrium(COORDINATION, ("a1", "b1"))
        assert is_equilibrium(COORDINATION, ("a2", "b2"))
        assert not is_equilibrium(COORDINATION, ("a1", "b2"))

    def test_ties_do_not_disqualify(self):
        graph = builtin_graph("pair")
        flat = Game.of(graph, {"a": ("x", "y"), "b": ("z",)},
                       {"a": {("x", "z"): 1, ("y", "z"): 1}})
        assert is_equilibrium(flat, ("x", "z"))
        assert is_equilibrium(flat, ("y", "z"))

    def test_rejects_foreign_profiles(self):
        with pytest.raises(Exception):
            is_equilibrium(COORDINATION, ("a1",))


class TestEnumerate:
    def test_lexicographic_order(self):
        assert enumerate_equilibria(COORDINATION) == (("a1", "b1"), ("a2", "b2"))

    def test_profile_cap(self):
        with pytest.raises(ResourceLimitError, match="exceeding the cap"):
            enumerate_equilibria(COORDINATION, max_profiles=3)

    def test_zero_player_game_has_one_empty_equilibrium(self):
        game = Game.of(DependencyGraph.of([]), {}, {})
        assert enumerate_equilibria(game) == ((),)

    def test_all_zero_game_has_every_profile(self):
        graph = builtin_graph("triangle")
        game = Game.of(graph, {p: ("0", "1") for p in graph.players}, {})
        assert len(enumerate_equilibria(game)) == 8

    def test_no_equilibrium_game(self):
        # one player chases agreement, the other flees it
        graph = builtin_graph("pair")
        game = Game.of(graph, {"a": ("0", "1"), "b": ("0", "1")},
                       {"a": {("0", "0"): 1, ("1", "1"): 1},
                        "b": {("0", "1"): 1, ("1", "0"): 1}})
        assert enumerate_equilibria(game) == ()

    @given(games(max_players=3))
    def test_membership_coherence(self, game):
        found = set(enumerate_equilibria(game))
        for profile in game.profiles():
            assert (profile in found) == is_equilibrium(game, profile)

    def test_equilibria_caches_per_game(self):
        game = builtin_game("parity")
        assert equilibria(game) is equilibria(game)

    def test_one_cached_entry_point_that_checks_its_cap_first(self):
        game = builtin_game("coordination")
        found = enumerate_equilibria(game)
        assert enumerate_equilibria(game) is found
        assert equilibria(game) is found
        with pytest.raises(ResourceLimitError, match="exceeding the cap"):
            enumerate_equilibria(game, max_profiles=3)


def assert_matches_oracle(game):
    """Exact tuples and order against the deviation oracle, and membership."""
    expected = equilibria_by_deviation(game)
    assert enumerate_equilibria(game) == expected
    found = set(expected)
    for profile in game.profiles():
        assert is_equilibrium(game, profile) == (profile in found)


SIGNED_VALUES = (Fraction(-2), Fraction(-1, 2), 0, Fraction(1, 3), 1, Fraction(5, 2))
MIXED_DENOMINATORS = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(-1, 3),
                      Fraction(7, 9))


class TestAgainstDeviationOracle:
    @given(games(max_players=4, values=SIGNED_VALUES))
    def test_negative_and_fractional_payoffs(self, game):
        assert_matches_oracle(game)

    @given(games(max_players=4, values=(0, 1, 2), drop_cells=True))
    def test_dropped_cells_and_empty_tables(self, game):
        assert_matches_oracle(game)

    @given(games(max_players=4, values=MIXED_DENOMINATORS, drop_cells=True))
    def test_values_ordered_unlike_their_numerators(self, game):
        assert_matches_oracle(game)

    @pytest.mark.parametrize("values, best", [
        (MIXED_DENOMINATORS, "4"),
        (MIXED_DENOMINATORS[:3], "2"),   # 1/2 beats 2/5, whose numerator is larger
        ((Fraction(-1, 3), Fraction(-2, 7)), "1"),
    ])
    def test_single_player_takes_the_largest_value(self, values, best):
        graph = DependencyGraph.of(["a"])
        labels = tuple(str(i) for i in range(len(values)))
        game = Game.of(graph, {"a": labels},
                       {"a": {(label,): value for label, value in zip(labels, values)}})
        assert enumerate_equilibria(game) == ((best,),)

    def test_empty_tables_kept_by_the_constructor(self):
        # Game.of drops empty tables; the constructor itself keeps them
        graph = builtin_graph("triangle")
        strategies = {p: ("0", "1") for p in graph.players}
        game = Game(graph, strategies, {"a": {}, "b": {("1", "0", "1"): Fraction(1)}})
        assert_matches_oracle(game)
        assert len(enumerate_equilibria(game)) == 7  # all but a=1 b=1 c=1

    @given(games(max_players=4, max_strategies=1, values=SIGNED_VALUES))
    def test_one_strategy_players(self, game):
        assert_matches_oracle(game)
        assert len(enumerate_equilibria(game)) == 1

    def test_one_strategy_players_among_others(self):
        graph = builtin_graph("gamma1")
        strategies = {"a": ("0", "1"), "b": ("x",), "c": ("0", "1", "2"), "d": ("y",)}
        payoffs = {
            "b": {("1", "x", "2"): 1},
            "c": {("x", "0", "y"): 1, ("x", "2", "y"): 1},
        }
        game = Game.of(graph, strategies, payoffs)
        assert_matches_oracle(game)
        assert enumerate_equilibria(game) == (
            ("0", "x", "0", "y"), ("0", "x", "2", "y"),
            ("1", "x", "0", "y"), ("1", "x", "2", "y"))

    @pytest.mark.parametrize("graph_name", ["gamma1", "gamma4", "gamma5", "triangle"])
    @pytest.mark.parametrize("max_strategies", [2, 3])
    def test_seeded_random_games(self, graph_name, max_strategies):
        graph = builtin_graph(graph_name)
        bounds = SearchBounds(max_strategies=max_strategies,
                              payoff_values=(0, 1, 2), seed=20130304)
        for index in range(25):
            assert_matches_oracle(random_game(graph, bounds, index))


def assert_reader_cells_match(game):
    """The printed-form reader's integer cells are the ones `_cells`
    computes from the payoffs, and its game equals the `Game.of` one."""
    parsed = parser._read_printed_game(print_game(game))
    assert parsed is not None
    carried = parsed._cache["cells"]
    assert "cells" not in game._cache
    for player in game.graph.players:
        assert carried.get(player) == _cells(game, player)
    assert parsed == game
    assert repr(parsed) == repr(game)
    assert enumerate_equilibria(parsed) == enumerate_equilibria(game)


class TestBestResponsesAgainstCellOracle:
    """Differential: `_best_responses`, which works by whole rows, against
    the per-cell oracle on every shape of axis size 1-4, stride 1-9 and 1-3
    outer blocks."""

    SHAPES = list(itertools.product(range(1, 5), range(1, 10), range(1, 4)))

    def test_seeded_small_integers(self):
        # values in -2..2: ties, zeros and negatives in most columns
        rng = random.Random(20261020)
        for size, stride, blocks in self.SHAPES:
            for _ in range(4):
                values = [rng.randint(-2, 2) for _ in range(size * stride * blocks)]
                assert (_best_responses(values, size, stride)
                        == best_responses_by_cells(values, size, stride)), (size, stride, values)

    def test_every_value_tied(self):
        for size, stride, blocks in self.SHAPES:
            values = [-1] * (size * stride * blocks)
            assert (_best_responses(values, size, stride)
                    == best_responses_by_cells(values, size, stride) == [True] * len(values))


class TestCellsOfPrintedDocuments:
    """Differential: the cells the printed-form reader hands the join
    against the cells computed from `Game.payoffs`."""

    @given(games(max_players=4, values=SIGNED_VALUES))
    def test_signed_values(self, game):
        assert_reader_cells_match(game)

    @given(games(max_players=4, values=MIXED_DENOMINATORS))
    def test_mixed_denominators(self, game):
        assert_reader_cells_match(game)

    def test_builtins(self):
        for name in ["coordination", "table2", "parity", "consensus", "gamma2_rps",
                     "gamma1_mean_mod(5)"]:
            assert_reader_cells_match(builtin_game(name))

    def test_ne_and_check_never_build_the_payoff_tables(self):
        # the join reads the carried cells and `holds` reads the equilibria,
        # so a printed-form game's label-keyed tables are never built
        for name in ["coordination", "gamma2_rps", "gamma1_mean_mod(5)"]:
            game = parse_game(print_game(builtin_game(name)))
            players = game.graph.players
            enumerate_equilibria(game)
            holds(game, Atom.of(players[:1], players[-1:]))
            holds(game, Implication(Atom.of(players[:1], players), Atom.of((), players[-1:])))
            assert "payoffs" not in vars(game)

    def test_spellings_of_one_value(self):
        # 1/2 and 2/4, -0 and 0, 00001 and 1: one value each, and the
        # table's scale is the lcm of the reduced denominators, 2
        spellings = ["1/2", "2/4", "-0", "0", "00001", "-3/6"]
        text = ("players a b\nedge a b\nstrategies a x y\nstrategies b u v w\n"
                + "".join(f"payoff a a={la} b={lb} {value}\n" for (la, lb), value
                          in zip(itertools.product("xy", "uvw"), spellings)))
        game = parse_game(text)
        assert game._cache["cells"] == {"a": [1, 1, 0, 0, 2, -1]}
        values = [Fraction(1, 2), Fraction(1, 2), 0, 0, 1, Fraction(-1, 2)]
        built = Game.of(game.graph, game.strategies,
                        {"a": dict(zip(itertools.product("xy", "uvw"), values))})
        assert _cells(built, "a") == [1, 1, 0, 0, 2, -1]
        assert game == built and repr(game) == repr(built)
        assert enumerate_equilibria(game) == enumerate_equilibria(built) == (
            ("x", "u"), ("x", "w"), ("y", "v"))

    @given(games(max_players=4, values=MIXED_DENOMINATORS, drop_cells=True))
    def test_dropped_cells_go_to_the_per_line_reader(self, game):
        text = print_game(game)
        parsed = parse_game(text)
        # Game.of drops empty tables, so every table left has a cell
        incomplete = any(
            len(table) < math.prod(len(game.strategies[w]) for w in game.graph.local_order(p))
            for p, table in game.payoffs.items())
        # a document without payoff lines goes to the per-line reader too
        per_line = incomplete or not game.payoffs
        assert (parser._read_printed_game(text) is None) == per_line
        assert ("cells" not in parsed._cache) == per_line
        assert parsed == game
        assert enumerate_equilibria(parsed) == enumerate_equilibria(game)


def _mapped_game(game, names, order, relabel, scale):
    """The same game under renamed players, declaration `order` (old names),
    relabelled and reordered strategies, and payoffs u -> a*u + b per player.

    `relabel[p]` maps p's old labels to new ones in the new declaration order;
    `scale[p]` is (a, b).  Every local cell is written, since a missing cell
    is payoff 0 and maps to b, not to a missing cell.
    """
    old = game.graph
    graph = DependencyGraph.of([names[p] for p in order],
                               [(names[u], names[v]) for u, v in old.edges])
    strategies = {names[p]: tuple(relabel[p].values()) for p in order}
    payoffs = {}
    for p in order:
        a, b = scale[p]
        old_local = old.local_order(p)
        new_local = [q for q in order if q in old_local]
        table = game.payoffs.get(p, {})
        cells = {}
        for key in itertools.product(*(game.strategies[q] for q in new_local)):
            assignment = dict(zip(new_local, key))
            value = table.get(tuple(assignment[q] for q in old_local), Fraction(0))
            cells[tuple(relabel[q][label] for q, label in zip(new_local, key))] = a * value + b
        payoffs[names[p]] = cells
    return Game.of(graph, strategies, payoffs)


def _mapped_profiles(game, profiles, names, relabel):
    return {frozenset((names[p], relabel[p][label])
                      for p, label in profile_to_mapping(game.graph, profile).items())
            for profile in profiles}


def _as_mappings(game, profiles):
    return {frozenset(profile_to_mapping(game.graph, profile).items())
            for profile in profiles}


class TestMetamorphic:
    """The equilibrium set maps exactly under symmetries of the game."""

    @staticmethod
    def identity(game):
        names = {p: p for p in game.graph.players}
        relabel = {p: {label: label for label in game.strategies[p]}
                   for p in game.graph.players}
        scale = {p: (1, 0) for p in game.graph.players}
        return names, list(game.graph.players), relabel, scale

    @given(games(max_players=4, values=(0, 1, 2), drop_cells=True))
    def test_renaming_players(self, game):
        names, order, relabel, scale = self.identity(game)
        names = {p: f"renamed_{p.upper()}" for p in order}
        renamed = _mapped_game(game, names, order, relabel, scale)
        assert enumerate_equilibria(renamed) == enumerate_equilibria(game)

    @given(games(max_players=4, values=(0, 1, 2), drop_cells=True), st.data())
    def test_reordering_player_declarations(self, game, data):
        names, order, relabel, scale = self.identity(game)
        order = data.draw(st.permutations(order))
        reordered = _mapped_game(game, names, order, relabel, scale)
        assert (_as_mappings(reordered, enumerate_equilibria(reordered))
                == _as_mappings(game, enumerate_equilibria(game)))

    @given(games(max_players=4, values=(0, 1, 2), drop_cells=True), st.data())
    def test_relabelling_and_reordering_strategies(self, game, data):
        names, order, relabel, scale = self.identity(game)
        for p in order:
            shuffled = data.draw(st.permutations(game.strategies[p]))
            relabel[p] = {label: f"s{label}_{p}" for label in shuffled}
        relabelled = _mapped_game(game, names, order, relabel, scale)
        assert (_as_mappings(relabelled, enumerate_equilibria(relabelled))
                == _mapped_profiles(game, enumerate_equilibria(game), names, relabel))

    @given(games(max_players=4, values=SIGNED_VALUES, drop_cells=True), st.data())
    def test_positive_affine_payoffs(self, game, data):
        names, order, relabel, scale = self.identity(game)
        factors = st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(40)])
        shifts = st.sampled_from([Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(5)])
        scale = {p: (data.draw(factors), data.draw(shifts)) for p in order}
        scaled = _mapped_game(game, names, order, relabel, scale)
        assert enumerate_equilibria(scaled) == enumerate_equilibria(game)


def _cli(command, text, *rest):
    """Exit code and stdout of `gamedep <command> FILE <rest>` where FILE
    holds `text`."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "game.txt")
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, path, *rest])
    return code, out.getvalue()


def _listed_equilibria(output):
    """The `ne` output's equilibria as sets of (player, label) pairs, and
    its total line."""
    *lines, total = output.splitlines()
    return {frozenset(tuple(token.split("=")) for token in line.split())
            for line in lines}, total


def _renamed_formula(formula, names):
    if isinstance(formula, Atom):
        return Atom(frozenset(map(names.__getitem__, formula.lhs)),
                    frozenset(map(names.__getitem__, formula.rhs)))
    if isinstance(formula, Implication):
        return Implication(_renamed_formula(formula.antecedent, names),
                           _renamed_formula(formula.consequent, names))
    return formula


# Each document form and the reader it takes: printed (the printed-form
# reader) and with a trailing comment (the per-line reader).
DOCUMENT_FORMS = {
    "printed": print_game,
    "commented": lambda game: print_game(game) + "# comment\n",
}


def _renamed_and_reordered(game, data, transform):
    """The player names map and the game under it: `renaming` renames every
    player, `reordering` permutes the declarations."""
    names, order, relabel, scale = TestMetamorphic.identity(game)
    if transform == "renaming":
        names = {p: f"renamed_{p.upper()}" for p in order}
    else:
        order = data.draw(st.permutations(order))
    return names, _mapped_game(game, names, order, relabel, scale)


class TestMetamorphicThroughTheReader:
    """`ne` and `check` on game documents, in both readers' forms, answer
    the same under renamed players and reordered declarations."""

    @pytest.mark.parametrize("transform", ["renaming", "reordering"])
    @pytest.mark.parametrize("form", DOCUMENT_FORMS)
    @given(game=games(max_players=4, values=(0, 1, 2)), data=st.data())
    def test_ne_output_maps(self, form, transform, game, data):
        names, mapped = _renamed_and_reordered(game, data, transform)
        code, output = _cli("ne", DOCUMENT_FORMS[form](game))
        mapped_code, mapped_output = _cli("ne", DOCUMENT_FORMS[form](mapped))
        assert code == mapped_code == 0
        listed, total = _listed_equilibria(output)
        assert _listed_equilibria(mapped_output) == (
            {frozenset((names[p], label) for p, label in profile) for profile in listed},
            total)

    @pytest.mark.parametrize("transform", ["renaming", "reordering"])
    @pytest.mark.parametrize("form", DOCUMENT_FORMS)
    @given(game=games(max_players=4, values=(0, 1, 2)), data=st.data())
    def test_check_verdict_is_unchanged(self, form, transform, game, data):
        names, mapped = _renamed_and_reordered(game, data, transform)
        formula = data.draw(formulas(game.graph))
        verdict = _cli("check", DOCUMENT_FORMS[form](game),
                       print_formula(formula, game.graph))
        assert verdict == _cli("check", DOCUMENT_FORMS[form](mapped),
                               print_formula(_renamed_formula(formula, names), mapped.graph))
        assert verdict == ((0, "holds\n") if holds(game, formula) else (1, "fails\n"))


class TestEdgeCases:
    def test_long_path_of_one_strategy_players(self):
        # deep enough that a recursive search over players would overflow, and
        # long enough that work quadratic in the player count shows in the time
        started = time.perf_counter()
        players = [f"p{i}" for i in range(10_000)]
        graph = DependencyGraph.of(players, zip(players, players[1:]))
        strategies = {p: ("s",) for p in players}
        payoffs = {p: {("s",) * len(graph.local_order(p)): 1} for p in players}
        game = Game.of(graph, strategies, payoffs)
        assert enumerate_equilibria(game) == (("s",) * 10_000,)
        assert parse_game(print_game(game)) == game
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"10,000-player path took {elapsed:.1f}s"

    def test_mean_mod_31_is_the_arithmetic_progressions(self):
        game = builtin_game("gamma1_mean_mod(31)")
        started = time.perf_counter()
        found = enumerate_equilibria(game)
        elapsed = time.perf_counter() - started
        assert len(found) == 31 * 31
        for profile in found:
            a, b, c, d = map(int, profile)
            assert (b - a) % 31 == (c - b) % 31 == (d - c) % 31
        assert elapsed < 5.0, f"gamma1_mean_mod(31) took {elapsed:.1f}s"


class TestSpliceClosure:
    @given(games(max_players=4), st.data())
    def test_spliced_equilibria_stay_equilibria(self, game, data):
        profiles = equilibria(game)
        if len(profiles) < 2:
            return
        graph = game.graph
        cut = data.draw(cuts(graph))
        s = data.draw(st.sampled_from(profiles))
        t = data.draw(st.sampled_from(profiles))
        boundary = graph.border(cut.left) | graph.border(cut.right)
        if agrees_on(graph, s, t, boundary):
            assert is_equilibrium(game, splice_profiles(graph, s, t, cut))

    def test_splice_mixes_distinct_equilibria_across_components(self):
        # two disjoint coordination pairs: the cut between the components has
        # an empty border, so any two equilibria splice into a third
        from gamedep.core import DependencyGraph
        graph = DependencyGraph.of("a b c d".split(), [("a", "b"), ("c", "d")])
        match = {("0", "0"): 1, ("1", "1"): 1}
        game = Game.of(graph, {p: ("0", "1") for p in graph.players},
                       {p: match for p in graph.players})
        ne = equilibria(game)
        assert len(ne) == 4
        cut = Cut.of(graph, {"a", "b"})
        assert graph.border(cut.left) | graph.border(cut.right) == set()
        for s in ne:
            for t in ne:
                spliced = splice_profiles(graph, s, t, cut)
                assert is_equilibrium(game, spliced)
        assert splice_profiles(graph, ne[0], ne[-1], cut) == ("0", "0", "1", "1")
