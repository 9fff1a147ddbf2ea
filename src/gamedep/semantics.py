"""Formula evaluation over the equilibrium set of a game.

A dependence atom `A |> B` holds when any two equilibria that agree on
the strategies of A also agree on the strategies of B.  Implication is
classical and `false` never holds, so `!f` (sugar for `f -> false`)
holds exactly when f fails.

Evaluation reads a graph and a zero-argument function returning the
equilibria, called only when an atom is reached, so a formula without an
atom never enumerates.  `holds`, `depends` and `determined_players` pass
a game's cached equilibria; the search passes the strategy-index tuples
of the game it is examining, since grouping only compares strategies for
equality.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Sequence

from .core import Atom, DependencyGraph, Falsum, Formula, Game, Implication, InputError
from .equilibrium import equilibria as _game_equilibria

__all__ = ["depends", "determined_players", "holds"]

Equilibria = Callable[[], Sequence[tuple]]


def constant_within_groups(graph: DependencyGraph, equilibria: Equilibria,
                           lhs: Iterable[str], candidates: Iterable[str]) -> frozenset[str]:
    """The candidates whose strategy is constant within every lhs-group.

    One pass groups the equilibrium set on the lhs projection; it stops
    once no candidate is left.
    """
    lhs_indices = [graph.index(p) for p in graph.sorted_players(lhs)]
    remaining = {graph.index(p) for p in graph.check_players(candidates)}
    groups: dict[tuple, tuple] = {}
    for profile in equilibria():
        if not remaining:
            break
        key = tuple(profile[i] for i in lhs_indices)
        reference = groups.setdefault(key, profile)
        if reference is not profile:
            remaining = {i for i in remaining if profile[i] == reference[i]}
    return frozenset(graph.players[i] for i in remaining)


def evaluate(graph: DependencyGraph, equilibria: Equilibria, formula: Formula) -> bool:
    """Truth of `formula` over the equilibria that `equilibria()` returns."""
    if isinstance(formula, Falsum):
        return False
    if isinstance(formula, Atom):
        rhs = frozenset(formula.rhs)
        return constant_within_groups(graph, equilibria, formula.lhs, rhs) == rhs
    if isinstance(formula, Implication):
        return (not evaluate(graph, equilibria, formula.antecedent)
                or evaluate(graph, equilibria, formula.consequent))
    raise InputError(f"not a formula: {formula!r}")


def depends(game: Game, lhs: Iterable[str], rhs: Iterable[str]) -> bool:
    """True iff equilibria agreeing on `lhs` always agree on `rhs`."""
    return evaluate(game.graph, partial(_game_equilibria, game), Atom.of(lhs, rhs))


def determined_players(game: Game, lhs: Iterable[str]) -> frozenset[str]:
    """The largest B with `lhs |> B` true: players constant within every lhs-group."""
    return constant_within_groups(game.graph, partial(_game_equilibria, game), lhs,
                                  game.graph.players)


def holds(game: Game, formula: Formula) -> bool:
    return evaluate(game.graph, partial(_game_equilibria, game), formula)
