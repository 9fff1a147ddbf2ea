"""Tests for built-in games, seeded generation, and counterexample search."""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gamedep.search
from gamedep.cli import build_parser, main
from gamedep.core import (
    FALSUM,
    Atom,
    DependencyGraph,
    Falsum,
    Game,
    Implication,
    InputError,
    ResourceLimitError,
)
from gamedep.equilibrium import DEFAULT_PROFILE_CAP, equilibria, is_equilibrium
from gamedep.parser import ParseError, parse_formula, print_game, print_graph
from gamedep.prover import Hypotheses, saturate
from gamedep.search import (
    _FIRST_BLOCK,
    _GOLDEN,
    _PER_GAME_PREFIX,
    MASK64,
    FuzzReport,
    FuzzViolation,
    NoneWithinBounds,
    SearchBounds,
    SplitMix64,
    _BlockLayout,
    _count_vectors,
    _draw,
    _fuzz_goals,
    _build,
    _stream,
    _systematic_draws,
    _table_sizes,
    builtin_game,
    builtin_graph,
    find_counterexample,
    fuzz_soundness,
    random_game,
)
from gamedep.semantics import determined_players, holds

from generators import graphs, player_sets
from oracles import (
    counterexample_by_games,
    fuzz_by_games,
    game_by_draws,
    games_in_canonical_order,
)


def systematic_games(graph, bounds):
    """The games of the canonical order in `src`, built one draw at a time."""
    for counts, cells in _systematic_draws(graph, bounds):
        yield _build(graph, bounds, counts, cells())


class TestSplitMix64:
    def test_known_answer_vectors(self):
        # published sequence for seed 0
        rng = SplitMix64(0)
        assert [rng.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        rng = SplitMix64(42)
        assert [rng.next() for _ in range(2)] == [
            0xBDD732262FEB6E95, 0x28EFE333B266F103]

    def test_below_stays_in_range_and_covers(self):
        rng = SplitMix64(1)
        draws = [rng.below(5) for _ in range(500)]
        assert all(0 <= d < 5 for d in draws)
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_below_one_is_constant(self):
        rng = SplitMix64(9)
        assert [rng.below(1) for _ in range(10)] == [0] * 10

    def test_take_is_repeated_below(self):
        for bound in (1, 2, 3, 7, (1 << 63) + 5):
            one, many = SplitMix64(17), SplitMix64(17)
            assert many.take(bound, 40) == [one.below(bound) for _ in range(40)]
            assert many.state == one.state
        assert SplitMix64(3).take(5, 0) == []
        with pytest.raises(InputError, match="bound must be positive"):
            SplitMix64(3).take(0, 1)

    def test_bound_of_2_to_the_64_is_the_raw_output(self):
        below, raw = SplitMix64(5), SplitMix64(5)
        assert [below.below(1 << 64) for _ in range(10)] == [raw.next() for _ in range(10)]
        assert below.state == raw.state

    def test_bound_above_2_to_the_64_is_refused_before_drawing(self):
        rng = SplitMix64(1)
        with pytest.raises(InputError, match=r"at most 2\^64"):
            rng.below((1 << 64) + 1)
        assert rng.state == 1

    def test_rejection_skips_the_biased_tail(self):
        # bound 2^63 + 5 rejects outputs >= 2^63 + 5, so draws are outputs below it
        bound = (1 << 63) + 5
        raw = SplitMix64(11)
        outputs = [raw.next() for _ in range(60)]
        kept = [v for v in outputs if v < bound][:20]
        assert len(kept) == 20 and len(kept) < 60
        assert SplitMix64(11).take(bound, 20) == kept

    def test_streams_are_deterministic_and_distinct(self):
        assert _stream(3, 0).next() == _stream(3, 0).next()
        assert _stream(3, 0).next() != _stream(3, 1).next()
        assert _stream(3, 0).next() != _stream(4, 0).next()


class TestSearchBounds:
    def test_defaults(self):
        bounds = SearchBounds()
        assert bounds.max_strategies == 3
        assert bounds.payoff_values == (Fraction(0), Fraction(1))
        assert bounds.mode == "random"
        assert bounds.sample_count == 4000

    def test_values_are_coerced_to_fractions(self):
        bounds = SearchBounds(payoff_values=(0, "1/2", 2))
        assert bounds.payoff_values == (Fraction(0), Fraction(1, 2), Fraction(2))

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"max_strategies": 0}, "at least 1"),
        ({"payoff_values": ()}, "non-empty"),
        ({"payoff_values": (1, "2/2")}, "distinct"),
        ({"max_profiles": 0}, "at least 1"),
        ({"seed": -1}, "64-bit"),
        ({"seed": 1 << 64}, "64-bit"),
        ({"mode": "exhaustive"}, "systematic or random"),
        ({"sample_count": 0}, "at least 1"),
    ])
    def test_validation(self, kwargs, fragment):
        with pytest.raises(InputError, match=fragment):
            SearchBounds(**kwargs)


class TestBuiltinGraphs:
    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown built-in graph 'loop'"):
            builtin_graph("loop")

    def test_path_of_four(self):
        graph = builtin_graph("gamma1")
        assert graph.players == ("a", "b", "c", "d")
        assert graph.neighbors("b") == {"a", "c"}
        assert graph.neighbors("d") == {"c"}

    def test_near_complete_square(self):
        graph = builtin_graph("gamma2")
        assert graph.neighbors("a") == {"b", "c"}
        assert graph.neighbors("d") == {"b", "c"}
        assert graph.neighbors("b") == {"a", "c", "d"}

    def test_diamond_with_a_tail(self):
        graph = builtin_graph("gamma4")
        assert graph.players == ("a", "b", "c", "d", "e")
        assert graph.border({"a", "b", "c"}) == {"b", "c"}
        assert graph.border({"d", "e"}) == {"d"}

    def test_pendant_triangle(self):
        graph = builtin_graph("gamma5")
        assert graph.neighbors("a") == {"d"}
        assert graph.neighbors("d") == {"a", "e", "f"}


class TestBuiltinGames:
    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown built-in game 'nonsense'"):
            builtin_game("nonsense")

    def test_mean_mod_modulus_takes_ascii_digits_only(self):
        with pytest.raises(InputError, match=r"unknown built-in game 'gamma1_mean_mod\(٣\)'"):
            builtin_game("gamma1_mean_mod(٣)")

    def test_coordination_equilibria(self):
        game = builtin_game("coordination")
        assert set(equilibria(game)) == {("a1", "b1"), ("a2", "b2")}

    def test_three_by_two_equilibria(self):
        game = builtin_game("table2")
        assert set(equilibria(game)) == {
            ("a1", "b1"), ("a2", "b2"), ("a3", "b1")}

    def test_parity_equilibria(self):
        game = builtin_game("parity")
        ne = equilibria(game)
        assert len(ne) == 4
        assert all(sum(int(x) for x in profile) % 2 == 0 for profile in ne)

    def test_consensus_equilibria(self):
        game = builtin_game("consensus")
        assert set(equilibria(game)) == {("0", "0", "0"), ("1", "1", "1")}

    @pytest.mark.parametrize("p, count", [(2, 16), (3, 9), (5, 25)])
    def test_mean_mod_equilibrium_counts(self, p, count):
        game = builtin_game(f"gamma1_mean_mod({p})")
        assert len(equilibria(game)) == count

    def test_mean_mod_tables_are_the_relations(self):
        p, graph = 5, builtin_graph("gamma1")
        labels = tuple(str(i) for i in range(p))

        def table(relation):
            return {key: Fraction(relation(*map(int, key)))
                    for key in itertools.product(labels, repeat=3)}
        expected = Game.of(graph, dict.fromkeys("abcd", labels), {
            "b": table(lambda a, b, c: (2 * b - a - c) % p == 0),
            "c": table(lambda b, c, d: (2 * c - b - d) % p == 0)})
        assert builtin_game("gamma1_mean_mod(5)") == expected

    def test_mean_mod_equilibria_solve_the_relations(self):
        game = builtin_game("gamma1_mean_mod(5)")
        for a, b, c, d in equilibria(game):
            assert (2 * int(b) - int(a) - int(c)) % 5 == 0
            assert (2 * int(c) - int(b) - int(d)) % 5 == 0

    def test_mean_mod_rejects_composite_moduli(self):
        with pytest.raises(InputError, match="modulus 4 is not prime"):
            builtin_game("gamma1_mean_mod(4)")
        with pytest.raises(InputError, match="modulus 1 is not prime"):
            builtin_game("gamma1_mean_mod(1)")

    @pytest.mark.parametrize("p", [57, 59, 10**14 + 31])
    def test_mean_mod_past_the_profile_cap_is_refused_unbuilt(self, p):
        """p^4 > 10^7 from p = 57 on: refused before the primality test,
        so a composite 57 and a prime of 15 digits are refused promptly."""
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"has p\^4 profiles, exceeding the cap"):
            builtin_game(f"gamma1_mean_mod({p})")
        assert time.perf_counter() - started < 0.5

    def test_mean_mod_below_the_profile_cap_reaches_the_primality_test(self):
        assert 56 ** 4 <= DEFAULT_PROFILE_CAP < 57 ** 4
        with pytest.raises(InputError, match="modulus 56 is not prime"):
            builtin_game("gamma1_mean_mod(56)")

    def test_mean_mod_modulus_too_long_to_convert_is_a_parse_error(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("no int conversion limit")
        with pytest.raises(ParseError, match=f"number of {limit + 1} digits"):
            builtin_game(f"gamma1_mean_mod({'7' * (limit + 1)})")

    def test_profile_budget_defaults_to_the_enumeration_cap(self):
        assert SearchBounds().max_profiles == DEFAULT_PROFILE_CAP
        args = build_parser().parse_args(["refute", "graph.txt", "a |> a"])
        assert args.max_profiles == DEFAULT_PROFILE_CAP

    def test_matching_game_equilibria_need_equal_outer_players(self):
        game = builtin_game("gamma2_rps")
        ne = equilibria(game)
        assert len(ne) == 27
        index = {p: i for i, p in enumerate(game.graph.players)}
        assert all(profile[index["a"]] == profile[index["d"]] for profile in ne)


class TestRandomGame:
    def test_deterministic_in_seed_and_index(self):
        graph = builtin_graph("gamma1")
        bounds = SearchBounds(seed=5)
        assert random_game(graph, bounds, 7) == random_game(graph, bounds, 7)
        assert random_game(graph, bounds, 0) != random_game(graph, bounds, 1)
        assert random_game(graph, bounds, 0) != random_game(
            graph, SearchBounds(seed=6), 0)

    def test_respects_bounds(self):
        graph = builtin_graph("gamma2")
        bounds = SearchBounds(max_strategies=2, payoff_values=(3, 4), seed=11)
        for index in range(20):
            game = random_game(graph, bounds, index)
            for p, labels in game.strategies.items():
                assert 1 <= len(labels) <= 2
                assert labels == tuple(str(i) for i in range(len(labels)))
            for p, table in game.payoffs.items():
                assert set(table.values()) <= {Fraction(3), Fraction(4)}

    def test_tables_are_complete(self):
        graph = builtin_graph("gamma1")
        game = random_game(graph, SearchBounds(seed=2), 0)
        for p in graph.players:
            local = graph.local_order(p)
            expected = 1
            for q in local:
                expected *= len(game.strategies[q])
            assert len(game.payoffs.get(p, {})) == expected

    def test_single_value_games_make_every_profile_an_equilibrium(self):
        graph = builtin_graph("gamma3")
        bounds = SearchBounds(payoff_values=(0,), seed=1)
        game = random_game(graph, bounds, 0)
        assert all(is_equilibrium(game, profile) for profile in game.profiles())

    @given(graphs(max_players=4), st.integers(0, 50))
    def test_generated_games_are_well_formed(self, graph, index):
        game = random_game(graph, SearchBounds(max_strategies=2), index)
        assert game.graph is graph
        assert set(game.strategies) == set(graph.players)


class TestSystematicOrder:
    def test_count_vectors_ascend_by_total_then_lexicographically(self):
        assert list(_count_vectors(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert list(_count_vectors(1, 3)) == [(1,), (2,), (3,)]

    def test_count_vectors_cover_the_whole_box(self):
        seen = list(_count_vectors(3, 3))
        assert len(seen) == 27 and len(set(seen)) == 27
        assert all(all(1 <= k <= 3 for k in v) for v in seen)

    def test_single_player_enumeration_is_exhaustive(self):
        graph = DependencyGraph.of(["a"], [])
        bounds = SearchBounds(max_strategies=2, mode="systematic")
        games = list(systematic_games(graph, bounds))
        # one cell with two values, then two cells with two values each
        assert len(games) == 2 + 4
        distinct = [g for i, g in enumerate(games) if g not in games[:i]]
        assert len(distinct) == 6

    def test_last_payoff_cell_varies_fastest(self):
        graph = builtin_graph("pair")
        bounds = SearchBounds(max_strategies=1, mode="systematic")
        games = list(systematic_games(graph, bounds))
        assert len(games) == 4
        first, second = games[0], games[1]
        assert first.payoffs["a"] == {("0", "0"): Fraction(0)}
        assert first.payoffs["b"] == {("0", "0"): Fraction(0)}
        assert second.payoffs["a"] == {("0", "0"): Fraction(0)}
        assert second.payoffs["b"] == {("0", "0"): Fraction(1)}


class TestFindCounterexample:
    def test_random_search_refutes_the_near_complete_square(self):
        graph = builtin_graph("gamma2")
        bounds = SearchBounds()
        formula = parse_formula("a |> d -> b,c |> d", graph)
        game = find_counterexample(graph, formula, bounds)
        assert game
        assert not holds(game, formula)
        assert holds(game, formula.antecedent)
        assert not holds(game, formula.consequent)
        # the stream is documented, so the hit is reproducible bit for bit
        assert game == random_game(graph, bounds, 110)

    def test_systematic_search_returns_the_first_failure(self):
        graph = DependencyGraph.of(["a"], [])
        bounds = SearchBounds(max_strategies=2, mode="systematic")
        formula = parse_formula("{} |> a", graph)
        game = find_counterexample(graph, formula, bounds)
        assert game.strategies == {"a": ("0", "1")}
        assert game.payoffs == {"a": {("0",): Fraction(0), ("1",): Fraction(0)}}
        assert len(equilibria(game)) == 2

    def test_reflexive_atoms_are_never_refuted(self):
        graph = builtin_graph("pair")
        bounds = SearchBounds(max_strategies=2, mode="systematic",
                              max_profiles=2000)
        outcome = find_counterexample(graph, parse_formula("a |> a", graph), bounds)
        assert not outcome
        assert isinstance(outcome, NoneWithinBounds)
        assert outcome.games_examined > 0

    def test_falsum_is_refuted_by_the_first_game(self):
        graph = builtin_graph("pair")
        bounds = SearchBounds(max_strategies=1, mode="systematic")
        game = find_counterexample(graph, Falsum(), bounds)
        assert game == next(iter(systematic_games(graph, bounds)))

    def test_profile_budget_is_cumulative(self):
        graph = builtin_graph("pair")
        bounds = SearchBounds(max_strategies=2, mode="systematic", max_profiles=2)
        outcome = find_counterexample(graph, parse_formula("a |> a", graph), bounds)
        assert not outcome
        assert outcome.cap_exceeded
        assert outcome.games_examined == 2  # two one-profile games fit the budget

    def test_random_mode_examines_sample_count_games(self):
        graph = builtin_graph("pair")
        bounds = SearchBounds(sample_count=25, seed=3)
        outcome = find_counterexample(graph, parse_formula("a |> a", graph), bounds)
        assert outcome.games_examined == 25
        assert not outcome.cap_exceeded

    def test_formula_scope_is_checked(self):
        graph = builtin_graph("pair")
        with pytest.raises(InputError, match="unknown player"):
            find_counterexample(
                graph, Atom.of(["a"], ["z"]), SearchBounds())


class TestFuzzSoundness:
    def test_no_violations_on_the_path(self):
        graph = builtin_graph("gamma1")
        report = fuzz_soundness(graph, [Atom.of("a", "d")],
                                SearchBounds(seed=42, sample_count=200))
        assert report
        assert report.games_tested == 200
        assert report.hypotheses_satisfied == 101
        assert report.violations == ()

    def test_report_text(self):
        graph = builtin_graph("gamma1")
        report = fuzz_soundness(graph, [Atom.of("a", "d")],
                                SearchBounds(seed=42, sample_count=50))
        text = report.text()
        assert "games tested: 50" in text
        assert "violations: 0" in text

    def test_violations_are_printed_with_their_game_index(self):
        graph = builtin_graph("gamma1")
        game = random_game(graph, SearchBounds(), 0)
        report = FuzzReport(graph, 1, 1, (
            FuzzViolation(0, Atom.of(["b", "c"], ["d"]), game),))
        assert not report
        assert "game 0: derived b,c |> d does not hold" in report.text()

    def test_empty_hypotheses_yield_no_proper_goals(self):
        graph = builtin_graph("gamma3")
        report = fuzz_soundness(graph, [], SearchBounds(sample_count=10))
        assert report.games_tested == 10
        assert report.violations == ()

    def test_rejects_unknown_players_in_hypotheses(self):
        graph = builtin_graph("gamma3")
        with pytest.raises(InputError, match="unknown player"):
            fuzz_soundness(graph, [Atom.of("a", "z")], SearchBounds())


# --- the search against the per-game loops ------------------------------------

_NAMES = "abcdef"


def _seeded_graph(rng, max_players=6):
    players = _NAMES[:rng.randint(1, max_players)]
    edges = [pair for pair in itertools.combinations(players, 2) if rng.random() < 0.5]
    return DependencyGraph.of(players, edges)


def _seeded_formula(rng, graph, depth=2):
    roll = rng.random()
    if depth and roll < 0.35:
        return Implication(_seeded_formula(rng, graph, depth - 1),
                           _seeded_formula(rng, graph, depth - 1))
    if depth and roll < 0.5:  # negation: f -> false
        return Implication(_seeded_formula(rng, graph, depth - 1), FALSUM)
    if roll < 0.6:
        return FALSUM
    pick = lambda: frozenset(p for p in graph.players if rng.random() < 0.4)
    return Atom(pick(), pick())


_VALUE_LISTS = [(1, 0), (-1, Fraction(1, 2), 0), (0, 1)]
# random mode also runs on three- and five-value lists; more values, fewer ties
_WIDE_VALUE_LISTS = _VALUE_LISTS + [(3, Fraction(-1, 5), 0, 9, 1), (2, 7, 1)]


def _search_cases(count, mode, seed):
    rng = random.Random(f"{mode}:{seed}")
    for _ in range(count):
        graph = _seeded_graph(rng)
        formula = _seeded_formula(rng, graph)
        if rng.random() < 0.3:  # an atom that rarely fails: the run goes to its end
            formula = Implication(formula, Atom(frozenset(graph.players[:1]),
                                                frozenset(graph.players[:1])))
        if mode == "systematic":
            budget = rng.choice([1, 5, 40, 300])
            yield graph, formula, SearchBounds(
                max_strategies=rng.randint(1, 3), payoff_values=rng.choice(_VALUE_LISTS),
                max_profiles=budget, seed=rng.getrandbits(64), mode=mode,
                sample_count=rng.randint(1, 40))
        else:  # long enough to cross from per-game judging into several blocks
            budget = rng.choice([3, 50, 400, 3000, 10_000_000])
            yield graph, formula, SearchBounds(
                max_strategies=rng.randint(1, 4), payoff_values=rng.choice(_WIDE_VALUE_LISTS),
                max_profiles=budget, seed=rng.getrandbits(64), mode=mode,
                sample_count=rng.randint(1, 300))


def _unxorshift(value, shift):
    """The x with `x ^ (x >> shift) == value`."""
    x = value
    for _ in range(64 // shift + 1):
        x = value ^ (x >> shift)
    return x


def _seed_rejecting(index, draw):
    """A stream seed whose candidate `index` outputs 2^64 - 1 at raw draw
    `draw`.  The finalizer's xorshift and odd-multiplier steps are
    bijections, so they are inverted to find that draw's state."""
    z = _unxorshift(MASK64, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = _unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    start = (_unxorshift(z, 30) - (draw + 1) * _GOLDEN) & MASK64   # the stream's seed
    return start ^ ((index + 1) * _GOLDEN & MASK64)


class TestAgainstPerGameLoops:
    """Lazy draws, counts-first budgets and index-tuple equilibria give the
    same results as building and judging every candidate game."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mode(self, seed):
        for graph, formula, bounds in _search_cases(12, "random", seed):
            assert (find_counterexample(graph, formula, bounds)
                    == counterexample_by_games(graph, formula, bounds))

    @pytest.mark.parametrize("seed", range(4))
    def test_systematic_mode(self, seed):
        for graph, formula, bounds in _search_cases(12, "systematic", seed):
            assert (find_counterexample(graph, formula, bounds)
                    == counterexample_by_games(graph, formula, bounds))

    def test_budgets_stop_mid_stream(self):
        graph = builtin_graph("gamma1")
        formula = parse_formula("a |> a", graph)
        for mode in ("random", "systematic"):
            for budget in (1, 7, 60, 250):
                bounds = SearchBounds(max_profiles=budget, mode=mode, seed=5,
                                      sample_count=400)
                outcome = find_counterexample(graph, formula, bounds)
                assert outcome == counterexample_by_games(graph, formula, bounds)
                assert outcome.cap_exceeded
        for budget in (1000, 4000):  # random mode: the budget runs out inside a block
            bounds = SearchBounds(max_profiles=budget, seed=5, sample_count=400)
            outcome = find_counterexample(graph, formula, bounds)
            assert outcome == counterexample_by_games(graph, formula, bounds)
            assert outcome.cap_exceeded and outcome.games_examined > 2 * _PER_GAME_PREFIX

    def test_first_failures_past_the_per_game_prefix(self):
        # all players but v determine v: fails only on a tie in v's best responses
        rng = random.Random("late failures")
        late = 0
        for _ in range(12):
            graph = _seeded_graph(rng)
            v = rng.choice(graph.players)
            formula = Atom(frozenset(graph.players) - {v}, frozenset({v}))
            bounds = SearchBounds(max_strategies=2, payoff_values=_WIDE_VALUE_LISTS[-2],
                                  seed=rng.getrandbits(64), sample_count=300)
            outcome = find_counterexample(graph, formula, bounds)
            assert outcome == counterexample_by_games(graph, formula, bounds)
            if outcome:
                index = next(i for i in range(bounds.sample_count)
                             if random_game(graph, bounds, i) == outcome)
                late += index >= _PER_GAME_PREFIX
        assert late >= 5

    def test_grids_at_the_bound_are_judged_in_blocks(self):
        assert gamedep.search._GRID_PROFILES == 4 ** 6 == 2 ** 12
        players = [f"p{i}" for i in range(12)]
        cases = [(builtin_graph("gamma5"), 4, [Atom.of("a", "d"), Atom.of("bc", "f")]),
                 (DependencyGraph.of(players, zip(players, players[1:])), 2,
                  [Atom.of(players[:10], ["p10"])])]
        for graph, most, atoms in cases:
            bounds = SearchBounds(max_strategies=most, payoff_values=range(9), seed=8,
                                  sample_count=80)
            assert _BlockLayout.of(graph, bounds) is not None
            # valid implications walk the whole stream; the last atom fails past
            # the prefix (at candidates 23 and 32), on a tie in v's best responses
            v = graph.players[1]
            for formula in [Implication(atom, atom) for atom in atoms] + [
                    Atom(frozenset(graph.players) - {v}, frozenset({v}))]:
                assert (find_counterexample(graph, formula, bounds)
                        == counterexample_by_games(graph, formula, bounds))
            assert fuzz_soundness(graph, atoms, bounds) == fuzz_by_games(graph, atoms, bounds)

    def test_graphs_beyond_the_grid_bound_are_judged_per_game(self):
        players = [f"p{i}" for i in range(9)]
        graph = DependencyGraph.of(players, zip(players, players[1:]))
        bounds = SearchBounds(max_strategies=4, seed=8, sample_count=30)
        assert 4 ** 9 > gamedep.search._GRID_PROFILES
        assert _BlockLayout.of(graph, bounds) is None
        for text in ("p0 |> p0", "p0,p2 |> p1", "p3 |> p5 -> p4 |> p5"):
            formula = parse_formula(text, graph)
            assert (find_counterexample(graph, formula, bounds)
                    == counterexample_by_games(graph, formula, bounds))
        atoms = [Atom.of(["p0"], ["p8"])]
        assert fuzz_soundness(graph, atoms, bounds) == fuzz_by_games(graph, atoms, bounds)

    def test_large_grids_and_one_strategy_graphs_build_no_block(self, monkeypatch):
        built = []
        real = _BlockLayout.of
        monkeypatch.setattr(_BlockLayout, "of",
                            lambda *args: built.append(real(*args)) or built[-1])
        # 3^10 profiles: every derived goal would group the whole padded grid
        players = [f"p{i}" for i in range(10)]
        graph = DependencyGraph.of(players, zip(players, players[1:]))
        bounds = SearchBounds(seed=4, sample_count=12)
        atoms = [Atom.of(["p0"], ["p9"])]
        assert fuzz_soundness(graph, atoms, bounds) == fuzz_by_games(graph, atoms, bounds)
        # one strategy each: 40 players would need a mask of 41 axes
        players = [f"q{i}" for i in range(40)]
        graph = DependencyGraph.of(players, zip(players, players[1:]))
        bounds = SearchBounds(max_strategies=1, seed=4, sample_count=12)
        formula = parse_formula("q0 |> q39", graph)
        assert (find_counterexample(graph, formula, bounds)
                == counterexample_by_games(graph, formula, bounds))
        assert built == [None, None]

    @pytest.mark.parametrize("index, draw", [
        (0, 0),     # candidate 0's first strategy count, judged per game
        (20, 4),    # the first payoff cell of a candidate inside a block
    ])
    def test_rejected_draws_are_redrawn(self, index, draw, monkeypatch):
        # bound 3 rejects exactly the output 2^64 - 1 (3 does not divide 2^64)
        graph = builtin_graph("gamma1")
        bounds = SearchBounds(max_strategies=3, payoff_values=(0, 1, 2),
                              seed=_seed_rejecting(index, draw), sample_count=60)
        outputs = _stream(bounds.seed, index)
        assert [outputs.next() for _ in range(draw + 1)][draw] == MASK64
        assert random_game(graph, bounds, index) == game_by_draws(graph, bounds, index)

        drawn = []
        real = gamedep.search._draw
        monkeypatch.setattr(gamedep.search, "_draw",
                            lambda g, b, i: drawn.append(i) or real(g, b, i))
        for text in ("a |> a", "(a |> d) -> b,c |> d", "b |> c", "a,c |> b"):
            formula = parse_formula(text, graph)
            assert (find_counterexample(graph, formula, bounds)
                    == counterexample_by_games(graph, formula, bounds))
            if text == "a |> a":  # never fails: blocks draw only the rejected candidate
                assert drawn == sorted({*range(_PER_GAME_PREFIX), index})
        atoms = [Atom.of("a", "d")]
        assert fuzz_soundness(graph, atoms, bounds) == fuzz_by_games(graph, atoms, bounds)

    def test_generated_games_match_the_documented_stream(self):
        rng = random.Random(3)
        for _ in range(30):
            graph = _seeded_graph(rng)
            bounds = SearchBounds(max_strategies=rng.randint(1, 3),
                                  payoff_values=rng.choice(_VALUE_LISTS),
                                  seed=rng.getrandbits(64))
            for index in range(5):
                assert random_game(graph, bounds, index) == game_by_draws(graph, bounds, index)
        graph = builtin_graph("pair")
        bounds = SearchBounds(max_strategies=2, payoff_values=(-1, Fraction(1, 2), 0))
        assert (list(systematic_games(graph, bounds))[:500]
                == list(itertools.islice(games_in_canonical_order(graph, bounds), 500)))

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_soundness(self, seed):
        rng = random.Random(f"fuzz:{seed}")
        for _ in range(6):
            graph = _seeded_graph(rng)
            most = min(2, len(graph.players))
            atoms = [Atom(frozenset(rng.sample(graph.players, rng.randint(0, most))),
                          frozenset(rng.sample(graph.players, 1)))
                     for _ in range(rng.randint(0, 2))]
            bounds = SearchBounds(max_strategies=rng.randint(1, 4),
                                  payoff_values=rng.choice(_WIDE_VALUE_LISTS),
                                  seed=rng.getrandbits(64), sample_count=rng.randint(1, 300))
            assert fuzz_soundness(graph, atoms, bounds) == fuzz_by_games(graph, atoms, bounds)


def _record_blocks(monkeypatch):
    """`(counts, start, size, max_block)` of every systematic block judged."""
    calls = []
    real = _BlockLayout.systematic_block

    def record(layout, counts, cells, start, size):
        calls.append((tuple(counts), start, size, layout.max_block))
        return real(layout, counts, cells, start, size)
    monkeypatch.setattr(_BlockLayout, "systematic_block", record)
    return calls


def _canonical_position(graph, bounds, game):
    """The count shape of a game of the canonical order, and its assignment
    number: its cells' value indices as digits, the first cell most
    significant."""
    number = 0
    for p in graph.players:
        for key in itertools.product(*(game.strategies[q] for q in graph.local_order(p))):
            number = (number * len(bounds.payoff_values)
                      + bounds.payoff_values.index(game.payoffs[p][key]))
    return tuple(len(game.strategies[p]) for p in graph.players), number


class TestSystematicBlocks:
    """Systematic mode judged in blocks of assignment numbers gives the
    games and counts of building and judging every game of the canonical
    order."""

    @pytest.mark.parametrize("values", [(5,), (1, 0), (-1, Fraction(1, 2), 0), (0, -2, 1)])
    @pytest.mark.parametrize("most", [1, 2, 3])
    def test_strategy_caps_and_value_lists(self, most, values, monkeypatch):
        calls = _record_blocks(monkeypatch)
        for name, texts in [("pair", ["a |> b", "(a |> b) -> {} |> b", "b |> b"]),
                            ("gamma3", ["a,c |> b", "(c |> b) -> {} |> b",
                                        "(a |> c) -> a,b |> c"]),
                            ("triangle", ["!(a |> b,c)", "a,b |> c"])]:
            graph = builtin_graph(name)
            for text in texts:
                bounds = SearchBounds(max_strategies=most, payoff_values=values,
                                      max_profiles=250, mode="systematic")
                formula = parse_formula(text, graph)
                assert (find_counterexample(graph, formula, bounds)
                        == counterexample_by_games(graph, formula, bounds))
        assert calls

    def test_budgets_stop_mid_shape_and_mid_block(self, monkeypatch):
        # blocks of at most 16 candidates (19 draws each), so that budgets
        # run out past the first block of a shape
        monkeypatch.setattr(gamedep.search, "_BLOCK_ELEMENTS", 19 * 16)
        calls = _record_blocks(monkeypatch)
        graph = builtin_graph("gamma3")
        formula = parse_formula("(a |> c) -> a,b |> c", graph)
        cut = 0
        for budget in (1, 9, 50, 333, 1000, 2999):
            calls.clear()
            bounds = SearchBounds(max_strategies=2, max_profiles=budget, mode="systematic")
            outcome = find_counterexample(graph, formula, bounds)
            assert outcome == counterexample_by_games(graph, formula, bounds)
            # no block runs past the candidates the budget admits
            assert outcome.cap_exceeded
            assert sum(size for _, _, size, _ in calls) == outcome.games_examined
            assert all(size <= cap == 16 for _, _, size, cap in calls)
            counts, start, size, _ = calls[-1]
            shape = 2 ** sum(math.prod(counts[graph.index(q)] for q in graph.local_order(p))
                             for p in graph.players)
            cut += start > 0 and start + size < shape
        assert cut >= 2

    def test_first_failures_in_later_shapes_past_their_first_block(self, monkeypatch):
        # b determined by one neighbour yet not constant: the first failure
        # needs two strategies each and comes at number 6 or 12 of its shape,
        # past the first of blocks capped at 4 (pair) or 2 (gamma3) candidates;
        # the last formula holds within the budget, a walk in capped blocks
        monkeypatch.setattr(gamedep.search, "_BLOCK_ELEMENTS", 40)
        calls = _record_blocks(monkeypatch)
        late = 0
        for name, text in [("pair", "(a |> b) -> {} |> b"), ("gamma3", "(c |> b) -> {} |> b"),
                           ("gamma3", "(a |> b) -> {} |> b")]:
            graph = builtin_graph(name)
            formula = parse_formula(text, graph)
            for values in [(0, 1), (-1, Fraction(1, 2), 0)]:
                calls.clear()
                bounds = SearchBounds(max_strategies=2, payoff_values=values,
                                      max_profiles=3000, mode="systematic")
                outcome = find_counterexample(graph, formula, bounds)
                assert outcome == counterexample_by_games(graph, formula, bounds)
                assert all(size <= cap for _, _, size, cap in calls)
                if outcome:
                    counts, number = _canonical_position(graph, bounds, outcome)
                    block = next(start for shape, start, size, _ in calls
                                 if shape == counts and start <= number < start + size)
                    late += counts != calls[0][0] and block > 0
        assert late == 4

    def test_budgets_past_2_to_the_64_walk_the_whole_order(self, monkeypatch):
        calls = _record_blocks(monkeypatch)
        bounds = SearchBounds(max_strategies=2, max_profiles=2 ** 64 + 5, mode="systematic")
        graph = builtin_graph("pair")
        for text in ("(a |> b) -> a |> a,b", "a |> a"):
            formula = parse_formula(text, graph)
            outcome = find_counterexample(graph, formula, bounds)
            assert outcome == counterexample_by_games(graph, formula, bounds)
            assert outcome == NoneWithinBounds(4 + 16 + 16 + 256)
        # a formula without atoms: the oracle builds the 67,976 games but
        # enumerates none; the (2, 2, 2) shape alone outgrows the block cap
        graph = builtin_graph("gamma3")
        formula = Implication(FALSUM, FALSUM)
        calls.clear()
        outcome = find_counterexample(graph, formula, bounds)
        assert outcome == counterexample_by_games(graph, formula, bounds)
        assert outcome == NoneWithinBounds(67_976)
        assert max(size for _, _, size, _ in calls) == calls[0][3] < 2 ** 16

    def test_paths_past_the_grid_bound_build_no_layout(self, monkeypatch):
        built = []
        real = _BlockLayout.of
        monkeypatch.setattr(_BlockLayout, "of",
                            lambda *args: built.append(real(*args)) or built[-1])
        players = [f"p{i}" for i in range(13)]
        graph = DependencyGraph.of(players, zip(players, players[1:]))
        assert 2 ** 13 > gamedep.search._GRID_PROFILES
        # the first shape alone holds 2^13 games: budgets stop inside it
        for text, budget in [("!(p0 |> p12)", 10 ** 6), ("p5 |> p6", 300), ("p0 |> p0", 90)]:
            bounds = SearchBounds(max_strategies=2, max_profiles=budget, mode="systematic")
            formula = parse_formula(text, graph)
            assert (find_counterexample(graph, formula, bounds)
                    == counterexample_by_games(graph, formula, bounds))
        assert built == [None] * 3

    def test_block_masks_are_the_equilibria_of_their_games(self):
        # shape (1, 2, 1) of gamma3 follows 27 + 243 games; 3 unsorted values
        graph = builtin_graph("gamma3")
        bounds = SearchBounds(max_strategies=2, payoff_values=(1, -2, 0), mode="systematic")
        layout = _BlockLayout.of(graph, bounds)
        start, size = 100, 64
        mask = layout.systematic_block((1, 2, 1), 6, start, size)   # 3^6 games
        games = itertools.islice(games_in_canonical_order(graph, bounds),
                                 270 + start, 270 + start + size)
        grid = list(itertools.product("01", repeat=3))
        for column, game in zip(mask.T, games):
            assert {grid[i] for i in np.flatnonzero(column)} == set(equilibria(game))

    def test_the_judge_reads_every_output_the_same_way(self):
        # outputs at the top of the range, which the random stream would
        # redraw, are read mod m and mod the number of values like any other;
        # both are 3, so the outputs mod 9 must read the same
        graph = builtin_graph("gamma1")
        bounds = SearchBounds(max_strategies=3, payoff_values=(0, 1, 2))
        layout = _BlockLayout.of(graph, bounds)
        rng = random.Random(6)
        raw = [[MASK64 - rng.randrange(40) for _ in range(50)] for _ in range(layout.draws)]
        top = np.array(raw, np.uint64)
        counts, mask = layout.judge(top)
        low_counts, low_mask = layout.judge(top % np.uint64(9))
        assert (top >= layout.limits[0]).any() and (top >= layout.limits[1]).any()
        assert (counts == low_counts).all() and (mask == low_mask).all()
        assert mask.any()


def _record_random_blocks(monkeypatch):
    """`(start, size, max_block)` of every random block judged."""
    calls = []
    real = _BlockLayout.random_block

    def record(layout, seed, start, size):
        calls.append((start, size, layout.max_block))
        return real(layout, seed, start, size)
    monkeypatch.setattr(_BlockLayout, "random_block", record)
    return calls


class TestBlockSchedule:
    """Blocks fill the first `_FIRST_BLOCK` candidates judged in blocks, then
    each doubles the candidates judged so far, within the layout's cap, the
    end of a shape and the profile budget."""

    def test_random_blocks_follow_the_prefix_and_double(self, monkeypatch):
        calls = _record_random_blocks(monkeypatch)
        graph = builtin_graph("gamma1")
        bounds = SearchBounds(seed=3, sample_count=1000)
        assert _BlockLayout.of(graph, bounds).max_block == 809
        formula = parse_formula("a |> a", graph)   # holds: the whole stream is judged
        assert find_counterexample(graph, formula, bounds) == NoneWithinBounds(1000)
        first = _FIRST_BLOCK
        assert [start for start, _, _ in calls] == list(itertools.accumulate(
            [_PER_GAME_PREFIX, first, first, 2 * first, 4 * first]))
        assert [size for _, size, _ in calls] == [first, first, 2 * first, 4 * first,
                                                  1000 - _PER_GAME_PREFIX - 8 * first]

    @pytest.mark.parametrize("elements, cap", [(1 << 16, 89), (40 * 729, 40)])
    def test_random_blocks_stop_growing_at_the_cap(self, elements, cap, monkeypatch):
        # gamma5 at three strategies: 729 profiles per candidate
        monkeypatch.setattr(gamedep.search, "_BLOCK_ELEMENTS", elements)
        calls = _record_random_blocks(monkeypatch)
        graph = builtin_graph("gamma5")
        atoms = [Atom.of("a", "d")]
        bounds = SearchBounds(seed=3, sample_count=400)
        assert fuzz_soundness(graph, atoms, bounds) == fuzz_by_games(graph, atoms, bounds)
        sizes = [size for _, size, _ in calls]
        assert all(limit == cap for _, _, limit in calls)
        assert sizes[0] == min(_FIRST_BLOCK, cap) and max(sizes) == cap
        assert sum(sizes) == 400 - _PER_GAME_PREFIX

    def test_systematic_blocks_double_across_shapes(self, monkeypatch):
        calls = _record_blocks(monkeypatch)
        graph = builtin_graph("pair")
        formula = parse_formula("a |> a", graph)
        # shapes of 4, 16, 16 and 256 candidates at 1, 2, 2 and 4 profiles:
        # blocks end where the walk reaches 64 candidates or doubles, and
        # at the end of each shape
        bounds = SearchBounds(max_strategies=2, max_profiles=10 ** 6, mode="systematic")
        assert find_counterexample(graph, formula, bounds) == NoneWithinBounds(292)
        assert [size for _, _, size, _ in calls] == [4, 16, 16, 36, 72, 144, 4]
        # 300 profiles: 68 in the first three shapes, then 58 games of 4
        calls.clear()
        bounds = SearchBounds(max_strategies=2, max_profiles=300, mode="systematic")
        assert (find_counterexample(graph, formula, bounds)
                == NoneWithinBounds(4 + 16 + 16 + 58, cap_exceeded=True))
        assert [size for _, _, size, _ in calls] == [4, 16, 16, 36, 22]

    def test_a_search_failing_at_index_k_judged_at_most_twice_k_in_blocks(self, monkeypatch):
        calls = _record_random_blocks(monkeypatch)
        graph = builtin_graph("pair")
        formula = Atom.of("a", "b")   # fails only on a tie in b's best responses
        late = 0
        for values, seed in itertools.product((32, 128), range(10)):
            calls.clear()
            bounds = SearchBounds(max_strategies=2, payoff_values=range(values), seed=seed,
                                  sample_count=2000)
            game = find_counterexample(graph, formula, bounds)
            k = next(i for i in range(2000) if random_game(graph, bounds, i) == game)
            judged = sum(size for _, size, _ in calls)
            assert judged <= max(_FIRST_BLOCK, 2 * (k - _PER_GAME_PREFIX))
            late += k >= _PER_GAME_PREFIX + _FIRST_BLOCK
        assert late >= 5


class TestLiveCellDraws:
    """Random blocks compute the strategy counts first and then only the
    outputs each candidate reads: its window of cell draws."""

    @pytest.mark.parametrize("name, most, values", [
        ("gamma1", 3, (0, 1, 2)), ("gamma4", 2, (4, 0, 3, 1, 2)), ("gamma5", 3, (1, 0)),
        ("triangle", 4, (Fraction(1, 2), -1, 0))])
    def test_blocks_of_any_size_read_the_same_draws(self, name, most, values):
        graph = builtin_graph(name)
        bounds = SearchBounds(max_strategies=most, payoff_values=values, seed=11)
        layout = _BlockLayout.of(graph, bounds)
        start, total = 8, min(90, layout.max_block)
        counts, rejected, mask = layout.random_block(bounds.seed, start, total)
        parts, at = [], start
        for size in (1, 7, 13, 40, total - 61):
            parts.append(layout.random_block(bounds.seed, at, size))
            at += size
        assert counts == [count for part in parts for count in part[0]]
        assert rejected == [flag for part in parts for flag in part[1]] == [False] * total
        assert (mask == np.hstack([part[2] for part in parts])).all()
        labels = [str(i) for i in range(most)]
        grid = list(itertools.product(labels, repeat=len(graph.players)))
        for index, count, column in zip(itertools.count(start), counts, mask.T):
            game = game_by_draws(graph, bounds, index)
            assert count == [len(game.strategies[p]) for p in graph.players]
            assert {grid[i] for i in np.flatnonzero(column)} == set(equilibria(game))

    def test_rejected_outputs_past_the_window_are_not_read(self, monkeypatch):
        # bound 3 rejects exactly the output 2^64 - 1.  At candidate 20's
        # first payoff cell it is inside the candidate's window, which is
        # redrawn (test_rejected_draws_are_redrawn); past its last cell but
        # within the padded block it is never read
        graph = builtin_graph("gamma1")
        index, n, values = 20, len(graph.players), (0, 1, 2)
        layout = _BlockLayout.of(graph, SearchBounds(max_strategies=3, payoff_values=values))
        rejected = lambda seed: layout.random_block(seed, 8, 40)[1][index - 8]
        assert rejected(_seed_rejecting(index, n))
        for draw in range(layout.draws - 1, n, -1):
            bounds = SearchBounds(max_strategies=3, payoff_values=values,
                                  seed=_seed_rejecting(index, draw), sample_count=60)
            if draw >= n + sum(_table_sizes(graph, _draw(graph, bounds, index)[0])):
                break
        assert draw > n and not rejected(bounds.seed)

        drawn = []
        real = gamedep.search._draw
        monkeypatch.setattr(gamedep.search, "_draw",
                            lambda g, b, i: drawn.append(i) or real(g, b, i))
        for text in ("a |> a", "(a |> d) -> b,c |> d", "b |> c", "a,c |> b"):
            formula = parse_formula(text, graph)
            assert (find_counterexample(graph, formula, bounds)
                    == counterexample_by_games(graph, formula, bounds))
            if text == "a |> a":  # never fails: no candidate of a block is drawn
                assert drawn == list(range(_PER_GAME_PREFIX))
        atoms = [Atom.of("a", "d")]
        assert fuzz_soundness(graph, atoms, bounds) == fuzz_by_games(graph, atoms, bounds)


class TestFuzzCover:
    """Fuzzing judges the cover of the derived goals; every goal holds where
    the cover holds."""

    @given(graphs(max_players=6), st.data())
    def test_goals_outside_the_cover_follow_by_augmentation(self, graph, data):
        pairs = data.draw(st.lists(st.tuples(player_sets(graph), player_sets(graph)),
                                   max_size=3))
        table = saturate(graph, Hypotheses.of([Atom(lhs, rhs) for lhs, rhs in pairs]))
        goals, cover = _fuzz_goals(graph, table)
        closure = table.closure
        subsets = [frozenset(c) for k in range(len(graph.players) + 1)
                   for c in itertools.combinations(graph.players, k)]
        assert ({(goal.lhs, goal.rhs) for goal in goals}
                == {(x, closure(x)) for x in subsets if closure(x) != x})
        for goal in goals:
            implied = any(goal.rhs <= goal.lhs | closure(goal.lhs - {x}) for x in goal.lhs)
            assert implied == (goal not in cover)

    def test_every_goal_holds_where_the_cover_holds(self):
        rng = random.Random("cover")
        covered = partial = 0
        for _ in range(30):
            graph = _seeded_graph(rng)
            most = min(2, len(graph.players))
            hypotheses = [Atom(frozenset(rng.sample(graph.players, rng.randint(0, most))),
                               frozenset(rng.sample(graph.players, 1)))
                          for _ in range(rng.randint(1, 2))]
            goals, cover = _fuzz_goals(graph, saturate(graph, Hypotheses.of(hypotheses)))
            bounds = SearchBounds(max_strategies=2, seed=rng.getrandbits(64))
            for index in range(20):
                game = random_game(graph, bounds, index)
                if all(holds(game, goal) for goal in cover):
                    covered += len(cover) < len(goals)
                    assert all(holds(game, goal) for goal in goals)
                else:
                    partial += any(holds(game, goal) for goal in goals)
        assert covered >= 50 and partial >= 50


# --- resource guards ----------------------------------------------------------------


def _complete_graph(n):
    players = [f"p{i}" for i in range(n)]
    return DependencyGraph.of(players, itertools.combinations(players, 2))


class _TakeLog:
    """Records the (bound, count) of every `SplitMix64.take` call; with
    `max_calls`, a call past it fails at once instead of drawing."""

    def __init__(self, monkeypatch, max_calls=None):
        self.calls = []
        real = SplitMix64.take

        def take(rng, bound, count):
            self.calls.append((bound, count))
            assert max_calls is None or len(self.calls) <= max_calls, self.calls
            return real(rng, bound, count)
        monkeypatch.setattr(SplitMix64, "take", take)


class TestResourceGuards:
    def test_budget_is_checked_before_any_cell_is_drawn(self, monkeypatch):
        graph = _complete_graph(7)
        bounds = SearchBounds(max_strategies=8, max_profiles=1000, seed=7)
        assert math.prod(_draw(graph, bounds, 0)[0]) == 129_024
        log = _TakeLog(monkeypatch, max_calls=1)
        started = time.perf_counter()
        outcome = find_counterexample(graph, parse_formula("p0 |> p1", graph), bounds)
        elapsed = time.perf_counter() - started
        assert outcome == NoneWithinBounds(0, cap_exceeded=True)
        assert log.calls == [(8, 7)]  # the strategy counts only
        assert elapsed < 0.5, f"over-budget first game took {elapsed:.2f}s"

    def test_refute_over_budget_from_the_command_line(self, tmp_path, capsys):
        path = tmp_path / "k7.graph"
        path.write_text(print_graph(_complete_graph(7)))
        started = time.perf_counter()
        code = main(["refute", str(path), "p0 |> p1", "--max-strategies", "8",
                     "--max-profiles", "1000", "--seed", "7"])
        elapsed = time.perf_counter() - started
        assert code == 1
        assert capsys.readouterr().out == "no counterexample within bounds (0 games examined)\n"
        assert elapsed < 0.5, f"refute took {elapsed:.2f}s"

    def test_formula_without_atoms_draws_cells_only_for_the_printed_game(self, monkeypatch):
        graph = builtin_graph("gamma2")
        log = _TakeLog(monkeypatch)
        game = find_counterexample(graph, FALSUM, SearchBounds(seed=9))
        assert game == random_game(graph, SearchBounds(seed=9), 0)
        assert len(log.calls) == 2 + 2  # counts and cells, twice

    def test_searches_that_stop_in_the_per_game_prefix_set_up_no_block(self, monkeypatch):
        def no_layout(*args):
            raise AssertionError("block layout built")
        monkeypatch.setattr(_BlockLayout, "of", no_layout)
        graph = builtin_graph("gamma2")
        bounds = SearchBounds(seed=9)
        assert find_counterexample(graph, FALSUM, bounds) == random_game(graph, bounds, 0)
        bounds = SearchBounds(seed=9, sample_count=_PER_GAME_PREFIX)
        assert (fuzz_soundness(graph, [Atom.of("a", "d")], bounds).games_tested
                == _PER_GAME_PREFIX)

    def test_enumeration_cap_is_checked_before_any_cell_is_drawn(self, monkeypatch):
        players = [f"p{i}" for i in range(12)]
        graph = DependencyGraph.of(players, zip(players, players[1:]))
        bounds = SearchBounds(max_strategies=8, seed=1, max_profiles=10 ** 12)
        count = math.prod(_draw(graph, bounds, 0)[0])
        assert count > 10_000_000
        message = f"game has {count} profiles, exceeding the cap of 10000000"
        log = _TakeLog(monkeypatch, max_calls=1)
        with pytest.raises(ResourceLimitError, match=message):
            fuzz_soundness(graph, [Atom.of(["p0"], ["p11"])], bounds)
        assert log.calls == [(8, 12)]
        log.calls.clear()
        with pytest.raises(ResourceLimitError, match=message):
            find_counterexample(graph, parse_formula("p0 |> p11", graph), bounds)
        assert log.calls == [(8, 12)]


# --- fuzz violations --------------------------------------------------------------


def _unsound(graph, hypotheses):
    """A closure that wrongly derives a |> d from no hypotheses at all."""
    return saturate(graph, Hypotheses.of([Atom.of("a", "d")]))


class TestFuzzViolations:
    def test_violations_name_their_index_atom_and_game(self, monkeypatch):
        monkeypatch.setattr(gamedep.search, "saturate", _unsound)
        graph = builtin_graph("gamma1")
        bounds = SearchBounds(seed=4, sample_count=30)
        report = fuzz_soundness(graph, [], bounds)
        assert not report and report.games_tested == report.hypotheses_satisfied == 30
        assert report == fuzz_by_games(graph, [], bounds, closure=_unsound)
        first = report.violations[0]
        game = random_game(graph, bounds, first.index)
        assert first.game == game
        assert first.atom == Atom.of(["a"], ["d"])
        assert not holds(game, first.atom)
        earlier = [random_game(graph, bounds, i) for i in range(first.index)]
        assert all(determined_players(g, {"a"}) >= {"a", "d"} for g in earlier)
        for violation in report.violations:
            assert violation.game == random_game(graph, bounds, violation.index)
        assert f"game {first.index}: derived " in report.text()
        # the violating goals outside the cover are listed too
        goals, cover = _fuzz_goals(graph, _unsound(graph, []))
        assert cover == [Atom.of("a", "ad"), Atom.of("bc", "bcd")] and len(goals) == 5
        assert ({v.atom.lhs for v in report.violations} - {goal.lhs for goal in cover}
                == {frozenset("ab"), frozenset("ac"), frozenset("abc")})

    def test_violating_games_are_printed_by_the_command_line(self, monkeypatch, tmp_path,
                                                             capsys):
        monkeypatch.setattr(gamedep.search, "saturate", _unsound)
        graph = builtin_graph("gamma1")
        path = tmp_path / "gamma1.graph"
        path.write_text(print_graph(graph))
        assert main(["fuzz-soundness", str(path), "--samples", "30", "--seed", "4"]) == 1
        report = fuzz_soundness(graph, [], SearchBounds(seed=4, sample_count=30))
        expected = report.text() + "".join("\n" + print_game(v.game)
                                           for v in report.violations)
        assert capsys.readouterr().out == expected
