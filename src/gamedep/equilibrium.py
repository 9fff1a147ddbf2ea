"""Pure strategy Nash equilibria as a join of local best-response tables.

A profile is an equilibrium iff every player's label is a best response to
the labels of its neighbours, so each player with a payoff table contributes
one constraint over its closed neighbourhood (Kearns, Littman and Singh,
*Graphical Models for Game Theory*, 2001).  For each such player the
best-response table maps the neighbours' labels, in declaration order, to
the player's own labels of maximal payoff; missing cells count as 0 and
ties are all best.  Enumeration joins these tables by backtracking over the
players in declaration order and checks each constraint as soon as its
whole closed neighbourhood is assigned, so equilibria come out in
lexicographic order.  Games with more than `DEFAULT_PROFILE_CAP` profiles
are refused before any table is built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import Game, InputError, ResourceLimitError, StrategyProfile

__all__ = [
    "enumerate_equilibria",
    "equilibria",
    "is_equilibrium",
    "payoff_of",
]

DEFAULT_PROFILE_CAP = 10_000_000

_ZERO = Fraction(0)


def payoff_of(game: Game, player: str, profile: StrategyProfile) -> Fraction:
    """Payoff of one player; reads only the closed neighbourhood of `player`."""
    graph = game.graph
    key = tuple(profile[graph.index(w)] for w in graph.local_order(player))
    return game.payoffs.get(player, {}).get(key, _ZERO)


def _best_labels(table, labels, slot, row) -> frozenset[str]:
    """Own labels of maximal payoff when the neighbours play `row`.

    `row` lists the neighbours' labels in declaration order; the player's
    own label goes in at `slot` to form the payoff key.
    """
    before, after = row[:slot], row[slot:]
    values = [table.get(before + (label,) + after, _ZERO) for label in labels]
    best = max(values)
    return frozenset(label for label, value in zip(labels, values) if value == best)


def _neighbours(graph, player: str) -> tuple[tuple[int, ...], int]:
    """Indices of the neighbours of `player` in declaration order, and the
    slot of `player` itself in its payoff keys."""
    local = graph.local_order(player)
    slot = local.index(player)
    return tuple(graph.index(w) for w in local[:slot] + local[slot + 1:]), slot


def is_equilibrium(game: Game, profile: StrategyProfile) -> bool:
    """True iff no player can strictly improve by deviating alone.

    Ties do not disqualify: a deviation that merely matches the current
    payoff leaves the profile in equilibrium.
    """
    game.check_profile(profile)
    graph = game.graph
    for player_index, player in enumerate(graph.players):
        table = game.payoffs.get(player)
        if table:
            neighbours, slot = _neighbours(graph, player)
            row = tuple(profile[i] for i in neighbours)
            if profile[player_index] not in _best_labels(
                    table, game.strategies[player], slot, row):
                return False
    return True


def _join_plan(game: Game):
    """Constraints to check at each depth: (player index, neighbour indices, table).

    A player's constraint is checked at the depth of the last member of its
    closed neighbourhood; a player without a payoff table has none.
    """
    plan = game._cache.get("join_plan")
    if plan is None:
        graph = game.graph
        players = graph.players
        plan = [[] for _ in players]
        for player_index, player in enumerate(players):
            table = game.payoffs.get(player)
            if not table:
                continue
            neighbours, slot = _neighbours(graph, player)
            labels = game.strategies[player]
            rows = itertools.product(*(game.strategies[players[i]] for i in neighbours))
            best = {row: _best_labels(table, labels, slot, row) for row in rows}
            last = graph.index(graph.local_order(player)[-1])
            plan[last].append((player_index, neighbours, best))
        plan = tuple(map(tuple, plan))
        game._cache["join_plan"] = plan
    return plan


def enumerate_equilibria(game: Game,
                         max_profiles: int = DEFAULT_PROFILE_CAP) -> tuple[StrategyProfile, ...]:
    """All pure equilibria, lexicographic in player and strategy declaration order."""
    count = game.profile_count()
    if count > max_profiles:
        raise ResourceLimitError(
            f"game has {count} profiles, exceeding the cap of {max_profiles}")
    plan = _join_plan(game)
    options = [game.strategies[p] for p in game.graph.players]
    if not options:
        return ((),)
    last = len(options) - 1
    profile = [None] * len(options)
    # next_choice[d] is the position in options[d] to try next at depth d; the
    # search is iterative so that long player lists cannot exhaust the stack.
    next_choice = [0] * len(options)
    found = []
    depth = 0
    while depth >= 0:
        k = next_choice[depth]
        if k == len(options[depth]):
            next_choice[depth] = 0
            depth -= 1
            continue
        next_choice[depth] = k + 1
        profile[depth] = options[depth][k]
        for player_index, neighbours, best in plan[depth]:
            if profile[player_index] not in best[tuple(profile[i] for i in neighbours)]:
                break
        else:
            if depth == last:
                found.append(tuple(profile))
            else:
                depth += 1
    return tuple(found)


def equilibria(game: Game) -> tuple[StrategyProfile, ...]:
    """Equilibrium set of the game, computed once and cached on the instance."""
    cached = game._cache.get("equilibria")
    if cached is None:
        cached = enumerate_equilibria(game)
        game._cache["equilibria"] = cached
    return cached
