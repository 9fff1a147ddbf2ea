"""Pure strategy Nash equilibria as a join of local best-response tables.

A profile is an equilibrium iff every player's strategy is a best response
to the strategies of its neighbours, so each player with a payoff table
contributes one constraint over its closed neighbourhood (Kearns, Littman
and Singh, *Graphical Models for Game Theory*, 2001).

Every game reaches the join in one representation: a strategy count per
player and, for each constrained player, its payoff values in row-major
order over ``graph.local_order(player)`` (the last local player varies
fastest), as integers.  A `Game` supplies its table cells scaled per
player by the lcm of that table's denominators, missing cells counting as
0; the scale is positive and one player's cells are only compared with each
other, so the order is the order of the values.  `_cells` computes them.
A game built from row-major lists (the printed-form reader, the search's
draws, the built-ins) keeps each table's value tokens in this order, so
`_cells` scales each distinct token once and maps the row; any other game
has its cells computed from `payoffs`.  The search, judging a draw
without building its game, supplies the rank of each drawn value in
``sorted(payoff_values)``, which orders cells exactly as the values do, so
negative values and unsorted value lists need no special case.  From each
list `_best_responses` builds a flat table: ``best[x]`` is true iff cell x
is maximal along the player's own axis (ties are all best).  The join
assigns strategy indices by backtracking over the players in declaration
order, builds each constraint's cell index as its members are assigned,
and checks the constraint once the last member is, so equilibria come out
in lexicographic order.  Games with more than `DEFAULT_PROFILE_CAP`
profiles are refused before any table is built.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .core import DependencyGraph, Game, ResourceLimitError, StrategyProfile

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


def is_equilibrium(game: Game, profile: StrategyProfile) -> bool:
    """True iff no player can strictly improve by deviating alone.

    Ties do not disqualify: a deviation that merely matches the current
    payoff leaves the profile in equilibrium.
    """
    game.check_profile(profile)
    for i, player in enumerate(game.graph.players):
        current = payoff_of(game, player, profile)
        for label in game.strategies[player]:
            deviation = profile[:i] + (label,) + profile[i + 1:]
            if payoff_of(game, player, deviation) > current:
                return False
    return True


def check_profile_cap(count: int, max_profiles: int = DEFAULT_PROFILE_CAP) -> None:
    """Refuse a game of `count` profiles if it exceeds the enumeration cap."""
    if count > max_profiles:
        raise ResourceLimitError(
            f"game has {count} profiles, exceeding the cap of {max_profiles}")


def _best_responses(values, size: int, stride: int) -> list[bool]:
    """``best[x]`` iff ``values[x]`` is maximal among the cells that differ
    from x only on the axis of length `size` and stride `stride`.

    The work is done by whole rows, not per column: at stride 1 slice j
    ``values[j::size]`` holds every block's j-th cell, so one `map(max)`
    over the slices gives each block's top; otherwise a block is `size` rows
    of `stride` cells, one `map(max)` over the rows gives its tops, and its
    cells are compared with the tops repeated once per row."""
    if size == 1:
        return [True] * len(values)
    if stride == 1:
        slices = [values[j::size] for j in range(size)]
        tops = list(map(max, *slices))
        best = [False] * len(values)
        for j, column in enumerate(slices):
            best[j::size] = map(operator.eq, column, tops)
        return best
    best = []
    block = size * stride
    for start in range(0, len(values), block):
        rows = [values[first:first + stride] for first in range(start, start + block, stride)]
        best += map(operator.eq, values[start:start + block], list(map(max, *rows)) * size)
    return best


def _join_plan(graph: DependencyGraph, counts, cells):
    """Per depth, the key updates and the constraint checks of the join.

    `cells[i]` lists player i's payoff values in row-major order over its
    local order, or is None for a player without a constraint.  A
    constraint's cell index is summed up in slots of one accumulator: when
    a member other than the last gets strategy k, ``acc[dst] = acc[src] +
    k * stride`` (slot 0 stays 0, and a one-strategy member adds nothing);
    at the depth of the last member, whose stride is 1, the constraint
    reads ``best[acc[src] + k]``.
    """
    updates = [[] for _ in counts]
    checks = [[] for _ in counts]
    slots = 1
    for i, values in enumerate(cells):
        if values is None:
            continue
        members = graph.local_indices(graph.players[i])
        strides = [1] * len(members)
        for j in range(len(members) - 1, 0, -1):
            strides[j - 1] = strides[j] * counts[members[j]]
        best = _best_responses(values, counts[i], strides[members.index(i)])
        src = 0
        for member, stride in zip(members[:-1], strides):
            if counts[member] > 1:
                updates[member].append((src, slots, stride))
                src = slots
                slots += 1
        checks[members[-1]].append((src, best))
    return updates, checks, slots


def _join(counts, plan) -> tuple[tuple[int, ...], ...]:
    """Strategy-index profiles meeting every constraint of `plan`, lexicographic.

    The search is iterative, so long player lists cannot exhaust the stack.
    """
    updates, checks, slots = plan
    if not counts:
        return ((),)
    acc = [0] * slots
    profile = [-1] * len(counts)
    last = len(counts) - 1
    found = []
    depth = 0
    while depth >= 0:
        k = profile[depth] + 1
        if k == counts[depth]:
            profile[depth] = -1
            depth -= 1
            continue
        profile[depth] = k
        for src, dst, stride in updates[depth]:
            acc[dst] = acc[src] + k * stride
        for src, best in checks[depth]:
            if not best[acc[src] + k]:
                break
        else:
            if depth == last:
                found.append(tuple(profile))
            else:
                depth += 1
    return tuple(found)


def index_equilibria(graph: DependencyGraph, counts, cells) -> tuple[tuple[int, ...], ...]:
    """Equilibria as strategy-index tuples, lexicographic.

    `counts[i]` is player i's strategy count; `cells` is as for `_join_plan`.
    The caller checks the profile cap.
    """
    return _join(counts, _join_plan(graph, counts, cells))


def _scaled_integers(values: dict) -> dict:
    """`values` (`Fraction`s) as integers: each value times the lcm of their
    denominators, a positive scale that keeps the order."""
    scale = math.lcm(*{value.denominator for value in values.values()})
    return {key: value.numerator * (scale // value.denominator)
            for key, value in values.items()}


def _cells(game: Game, player: str):
    """The player's cells as integers, its table scaled by `_scaled_integers`.

    A game built from row-major lists keeps each table's value tokens in
    ``game._cache["tokens"]``: each distinct token of the player's row is
    scaled once, and one `map` lists the cells.  Any other game (`Game.of`,
    the per-line reader) has them computed from `payoffs`."""
    cache = game._cache
    if "tokens" in cache:
        tokens = cache["tokens"].get(player)
        if tokens is None:
            return None
        values = cache["values"]
        scaled = _scaled_integers({token: values[token] for token in set(tokens)})
        return list(map(scaled.__getitem__, tokens))
    table = game.payoffs.get(player)
    if not table:
        return None
    scaled = _scaled_integers(table)
    local = game.graph.local_order(player)
    keys = itertools.product(*(game.strategies[w] for w in local))
    return [scaled.get(key, 0) for key in keys]


def enumerate_equilibria(game: Game,
                         max_profiles: int = DEFAULT_PROFILE_CAP) -> tuple[StrategyProfile, ...]:
    """All pure equilibria, lexicographic in player and strategy declaration
    order.  The profile cap is checked on every call; the set is computed
    once and cached on the instance as ``game._cache["equilibria"]``."""
    check_profile_cap(game.profile_count(), max_profiles)
    cached = game._cache.get("equilibria")
    if cached is None:
        players = game.graph.players
        labels = [game.strategies[p] for p in players]
        counts = [len(options) for options in labels]
        found = index_equilibria(game.graph, counts, [_cells(game, p) for p in players])
        cached = game._cache["equilibria"] = tuple(
            tuple(options[k] for options, k in zip(labels, profile)) for profile in found)
    return cached


def equilibria(game: Game) -> tuple[StrategyProfile, ...]:
    """`enumerate_equilibria` under the default cap."""
    return enumerate_equilibria(game)
