"""Formula evaluation over the equilibrium set of a game.

A dependence atom `A |> B` holds when any two equilibria that agree on
the strategies of A also agree on the strategies of B.  Implication is
classical and `false` never holds, so `!f` (sugar for `f -> false`)
holds exactly when f fails.
"""

from __future__ import annotations

from typing import Iterable

from .core import Atom, Falsum, Formula, Game, Implication, InputError
from .equilibrium import equilibria

__all__ = ["depends", "determined_players", "holds"]


def _constant_within_groups(game: Game, lhs: Iterable[str],
                            candidates: Iterable[str]) -> frozenset[str]:
    """The candidates whose strategy is constant within every lhs-group.

    One pass groups the equilibrium set on the lhs projection; it stops
    once no candidate is left.
    """
    graph = game.graph
    lhs_indices = [graph.index(p) for p in graph.sorted_players(lhs)]
    remaining = {graph.index(p) for p in graph.check_players(candidates)}
    groups: dict[tuple[str, ...], tuple[str, ...]] = {}
    for profile in equilibria(game):
        if not remaining:
            break
        key = tuple(profile[i] for i in lhs_indices)
        reference = groups.setdefault(key, profile)
        if reference is not profile:
            remaining = {i for i in remaining if profile[i] == reference[i]}
    return frozenset(graph.players[i] for i in remaining)


def depends(game: Game, lhs: Iterable[str], rhs: Iterable[str]) -> bool:
    """True iff equilibria agreeing on `lhs` always agree on `rhs`."""
    rhs = frozenset(rhs)
    return _constant_within_groups(game, lhs, rhs) == rhs


def determined_players(game: Game, lhs: Iterable[str]) -> frozenset[str]:
    """The largest B with `lhs |> B` true: players constant within every lhs-group."""
    return _constant_within_groups(game, lhs, game.graph.players)


def holds(game: Game, formula: Formula) -> bool:
    if isinstance(formula, Falsum):
        return False
    if isinstance(formula, Atom):
        return depends(game, formula.lhs, formula.rhs)
    if isinstance(formula, Implication):
        return not holds(game, formula.antecedent) or holds(game, formula.consequent)
    raise InputError(f"not a formula: {formula!r}")
