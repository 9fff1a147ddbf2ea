"""Hypothesis strategies shared by the property tests."""

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from gamedep.core import FALSUM, Atom, Cut, DependencyGraph, Game, Implication

_NAMES = tuple("abcdefgh")


@st.composite
def graphs(draw, min_players=1, max_players=5):
    n = draw(st.integers(min_players, max_players))
    players = _NAMES[:n]
    edges = [pair for pair in itertools.combinations(players, 2)
             if draw(st.booleans())]
    return DependencyGraph.of(players, edges)


@st.composite
def games(draw, graph=None, max_players=4, max_strategies=3, values=(0, 1),
          drop_cells=False):
    """Games with full payoff tables, or with each cell dropped at random
    (so possibly empty tables) when `drop_cells` is set."""
    if graph is None:
        graph = draw(graphs(max_players=max_players))
    strategies = {p: tuple(str(i) for i in range(draw(st.integers(1, max_strategies))))
                  for p in graph.players}
    payoffs = {}
    for p in graph.players:
        keys = itertools.product(*(strategies[w] for w in graph.local_order(p)))
        payoffs[p] = {key: Fraction(draw(st.sampled_from(values))) for key in keys
                      if not (drop_cells and draw(st.booleans()))}
    return Game.of(graph, strategies, payoffs)


@st.composite
def player_sets(draw, graph):
    return frozenset(p for p in graph.players if draw(st.booleans()))


@st.composite
def cuts(draw, graph):
    return Cut.of(graph, draw(player_sets(graph)))


@st.composite
def formulas(draw, graph, depth=2):
    if depth > 0 and draw(st.booleans()):
        return Implication(draw(formulas(graph, depth - 1)),
                           draw(formulas(graph, depth - 1)))
    if draw(st.integers(0, 3)) == 0:
        return FALSUM
    return Atom(draw(player_sets(graph)), draw(player_sets(graph)))


@st.composite
def profiles(draw, game):
    return tuple(draw(st.sampled_from(game.strategies[p]))
                 for p in game.graph.players)
