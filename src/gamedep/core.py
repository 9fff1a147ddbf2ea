"""Domain model for strategic games played over a dependency graph.

Players sit on the vertices of an undirected simple graph and a player's
payoff may only read the strategies chosen inside its closed neighbourhood.
This module holds the value types (graphs, cuts, games, strategy profiles,
dependence formulas) and the profile-level operations that the equilibrium,
semantics, prover, and search modules build on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Atom",
    "Cut",
    "DependencyGraph",
    "Falsum",
    "FALSUM",
    "Formula",
    "Game",
    "Implication",
    "InputError",
    "Payoff",
    "PlayerSet",
    "ResourceLimitError",
    "StrategyProfile",
    "agrees_on",
    "check_formula_scope",
    "check_label",
    "check_player_name",
    "formula_players",
    "profile_from_mapping",
    "profile_to_mapping",
    "splice_profiles",
    "validate_game",
]

Payoff = Fraction
PlayerSet = frozenset[str]
StrategyProfile = tuple[str, ...]

_PLAYER_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")

# "false" is a formula keyword, so it can never name a player.
RESERVED_WORDS = frozenset({"false"})


class InputError(ValueError):
    """A value violates a structural precondition (unknown player, bad cut, ...)."""


class ResourceLimitError(RuntimeError):
    """An operation refused to run because it would exceed its resource guard."""


def check_player_name(name: str) -> str:
    if not isinstance(name, str) or not _PLAYER_RE.match(name):
        raise InputError(f"invalid player name {name!r}: expected a letter followed "
                         f"by letters, digits, or underscores")
    if name in RESERVED_WORDS:
        raise InputError(f"invalid player name {name!r}: reserved word")
    return name


def check_label(label: str) -> str:
    if not isinstance(label, str) or not _LABEL_RE.match(label):
        raise InputError(f"invalid strategy label {label!r}: expected letters, "
                         f"digits, or underscores")
    return label


@dataclass(frozen=True)
class DependencyGraph:
    """Undirected simple graph; vertex order is the player declaration order.

    Edges are stored as pairs ordered by declaration index.  Use
    :meth:`DependencyGraph.of` to build one from unnormalised input.
    """

    players: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    _adjacency: dict = field(default=None, compare=False, repr=False)
    _index: dict = field(default=None, compare=False, repr=False)
    _local: dict = field(default=None, compare=False, repr=False)
    _local_indices: dict = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, players: Iterable[str],
           edges: Iterable[tuple[str, str]] = ()) -> "DependencyGraph":
        players = tuple(players)
        seen: dict[str, int] = {}
        for name in players:
            check_player_name(name)
            if name in seen:
                raise InputError(f"duplicate player {name!r}")
            seen[name] = len(seen)
        normalized = set()
        for u, v in edges:
            if u not in seen or v not in seen:
                missing = u if u not in seen else v
                raise InputError(f"edge endpoint {missing!r} is not a declared player")
            if u == v:
                raise InputError(f"loop edge {u!r}-{v!r} is not allowed")
            pair = (u, v) if seen[u] < seen[v] else (v, u)
            if pair in normalized:
                raise InputError(f"duplicate edge {u!r}-{v!r}")
            normalized.add(pair)
        return cls(players, frozenset(normalized))

    def __post_init__(self) -> None:
        index = {name: i for i, name in enumerate(self.players)}
        adjacency: dict[str, set[str]] = {name: set() for name in self.players}
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adjacency",
                           {v: frozenset(ns) for v, ns in adjacency.items()})
        object.__setattr__(self, "_local", {
            v: tuple(sorted(ns | {v}, key=index.__getitem__))
            for v, ns in adjacency.items()})
        object.__setattr__(self, "_local_indices", {
            v: tuple(map(index.__getitem__, local)) for v, local in self._local.items()})

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.players)

    def player_set(self) -> PlayerSet:
        return frozenset(self.players)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown player {name!r}") from None

    def check_players(self, names: Iterable[str]) -> PlayerSet:
        names = frozenset(names)
        for name in names:
            self.index(name)
        return names

    def neighbors(self, name: str) -> PlayerSet:
        self.index(name)
        return self._adjacency[name]

    def closed_neighborhood(self, name: str) -> PlayerSet:
        """The player together with its neighbours: the payoff scope of `name`."""
        return self.neighbors(name) | {name}

    def local_order(self, name: str) -> tuple[str, ...]:
        """Closed neighbourhood as a tuple in declaration order (payoff key order)."""
        self.index(name)
        return self._local[name]

    def local_indices(self, name: str) -> tuple[int, ...]:
        """Declaration indices of `local_order(name)`."""
        self.index(name)
        return self._local_indices[name]

    def border(self, region: Iterable[str]) -> PlayerSet:
        """Members of `region` with at least one neighbour outside it."""
        region = self.check_players(region)
        return frozenset(v for v in region if self._adjacency[v] - region)

    def sorted_players(self, names: Iterable[str]) -> tuple[str, ...]:
        names = self.check_players(names)
        return tuple(p for p in self.players if p in names)

    def complement(self, names: Iterable[str]) -> PlayerSet:
        names = self.check_players(names)
        return frozenset(self.players) - names

    # Bitmask helpers used by the closure engine and the fuzz harness.
    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def players_of_mask(self, mask: int) -> PlayerSet:
        return frozenset(p for i, p in enumerate(self.players) if mask >> i & 1)


@dataclass(frozen=True)
class Cut:
    """A two-sided partition of the vertex set of a graph."""

    left: PlayerSet
    right: PlayerSet

    @classmethod
    def of(cls, graph: DependencyGraph, left: Iterable[str]) -> "Cut":
        left = graph.check_players(left)
        return cls(left, graph.complement(left))

    def check(self, graph: DependencyGraph) -> "Cut":
        graph.check_players(self.left)
        graph.check_players(self.right)
        if self.left & self.right:
            raise InputError(f"cut sides overlap on {sorted(self.left & self.right)}")
        if self.left | self.right != graph.player_set():
            missing = sorted(graph.player_set() - (self.left | self.right))
            raise InputError(f"cut does not cover players {missing}")
        return self


@dataclass(frozen=True)
class Falsum:
    """The always-false formula."""


@dataclass(frozen=True)
class Atom:
    """Dependence atom: agreement on `lhs` forces agreement on `rhs`."""

    lhs: PlayerSet
    rhs: PlayerSet

    @classmethod
    def of(cls, lhs: Iterable[str], rhs: Iterable[str]) -> "Atom":
        return cls(frozenset(lhs), frozenset(rhs))


@dataclass(frozen=True)
class Implication:
    antecedent: "Formula"
    consequent: "Formula"


Formula = Falsum | Atom | Implication

FALSUM = Falsum()


def formula_players(formula: Formula) -> PlayerSet:
    if isinstance(formula, Falsum):
        return frozenset()
    if isinstance(formula, Atom):
        return formula.lhs | formula.rhs
    if isinstance(formula, Implication):
        return formula_players(formula.antecedent) | formula_players(formula.consequent)
    raise InputError(f"not a formula: {formula!r}")


def check_formula_scope(graph: DependencyGraph, formula: Formula) -> None:
    graph.check_players(formula_players(formula))


@dataclass(frozen=True, eq=True)
class Game:
    """A finite strategic game whose payoff tables respect the graph locality.

    `strategies` maps every player to its ordered label tuple.  `payoffs`
    maps a player to a table keyed by label tuples aligned with
    ``graph.local_order(player)``; missing entries (or a missing table)
    mean payoff 0.  Keying tables by the closed neighbourhood alone is
    what enforces locality: a table cell cannot mention a distant player.
    `_cache` holds data derived from the game, ignored by equality and
    repr: its equilibria once `enumerate_equilibria` has listed them, and
    the equilibrium join's integer cells when the printed-form reader built
    it.  The cells are why it is a field: the reader hands them over with
    the game it builds.

    ``Game(...)`` and :meth:`Game.of` validate every strategy list and
    table in `__post_init__`, as :meth:`DependencyGraph.of` validates a
    graph.  The game readers of `gamedep.parser` check each of those
    invariants while they read a document (a strategies line per player,
    checked and distinct labels, keys that assign exactly the closed
    neighbourhood, `Fraction` values), so they build their graph and game
    without re-validating them, and each document is checked once.  The
    search builds the games of its draws unchecked too: they are valid by
    construction.
    """

    graph: DependencyGraph
    strategies: dict[str, tuple[str, ...]]
    payoffs: dict[str, dict[tuple[str, ...], Fraction]] = field(repr=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, graph: DependencyGraph,
           strategies: Mapping[str, Iterable[str]],
           payoffs: Mapping[str, Mapping[tuple[str, ...], object]] | None = None) -> "Game":
        strategies = {p: tuple(labels) for p, labels in strategies.items()}
        tables: dict[str, dict[tuple[str, ...], Fraction]] = {}
        for p, table in (payoffs or {}).items():
            entries = {tuple(key): value if type(value) is Fraction else Fraction(value)
                       for key, value in table.items()}
            if entries:  # an empty table means constant 0, same as no table
                tables[p] = entries
        return cls(graph, strategies, tables)

    @classmethod
    def _unchecked(cls, graph: DependencyGraph, strategies: dict[str, tuple[str, ...]],
                   payoffs: dict[str, dict[tuple[str, ...], Fraction]],
                   cache: dict) -> "Game":
        """A game built without `__post_init__`, for the game readers and
        the search's draws only: they have already checked, or hold by
        construction, every invariant it would check."""
        game = object.__new__(cls)
        object.__setattr__(game, "graph", graph)
        object.__setattr__(game, "strategies", strategies)
        object.__setattr__(game, "payoffs", payoffs)
        object.__setattr__(game, "_cache", cache)
        return game

    def __post_init__(self) -> None:
        graph = self.graph
        if set(self.strategies) != set(graph.players):
            odd = set(self.strategies) ^ set(graph.players)
            raise InputError(f"strategy declarations do not match players: {sorted(odd)}")
        for p, labels in self.strategies.items():
            if not labels:
                raise InputError(f"player {p!r} has no strategies")
            seen = set()
            for label in labels:
                check_label(label)
                if label in seen:
                    raise InputError(f"duplicate strategy label {label!r} for player {p!r}")
                seen.add(label)
        # One pass per column, not per cell: key lengths, then each column's
        # labels, then the value types.  The message names the first
        # offending key of the first failing check.
        for p, table in self.payoffs.items():
            local = graph.local_order(p)
            if not set(map(len, table)) <= {len(local)}:
                key = next(key for key in table if len(key) != len(local))
                raise InputError(
                    f"payoff key {key!r} for player {p!r} must assign exactly "
                    f"{local}")
            for w, column in zip(local, zip(*table)):
                labels = self.strategies[w]
                if not set(column) <= set(labels):
                    label = next(label for label in column if label not in labels)
                    raise InputError(
                        f"payoff key for player {p!r} uses unknown strategy "
                        f"{label!r} for player {w!r}")
            if not all(issubclass(kind, Fraction) for kind in set(map(type, table.values()))):
                key = next(key for key, value in table.items()
                           if not isinstance(value, Fraction))
                raise InputError(f"payoff for {p!r} at {key!r} must be a Fraction")

    def profile_count(self) -> int:
        return math.prod(len(self.strategies[p]) for p in self.graph.players)

    def profiles(self) -> Iterator[StrategyProfile]:
        """All profiles, lexicographic in declaration order of players and labels."""
        import itertools
        return itertools.product(*(self.strategies[p] for p in self.graph.players))

    def check_profile(self, profile: StrategyProfile) -> StrategyProfile:
        players = self.graph.players
        if len(profile) != len(players):
            raise InputError(f"profile {profile!r} has wrong length")
        for p, label in zip(players, profile):
            if label not in self.strategies[p]:
                raise InputError(f"profile assigns unknown strategy {label!r} to {p!r}")
        return profile


def profile_from_mapping(graph: DependencyGraph,
                         assignment: Mapping[str, str]) -> StrategyProfile:
    if set(assignment) != set(graph.players):
        odd = set(assignment) ^ set(graph.players)
        raise InputError(f"assignment does not cover exactly the players: {sorted(odd)}")
    return tuple(assignment[p] for p in graph.players)


def profile_to_mapping(graph: DependencyGraph,
                       profile: StrategyProfile) -> dict[str, str]:
    return dict(zip(graph.players, profile))


def agrees_on(graph: DependencyGraph, s: StrategyProfile, t: StrategyProfile,
              players: Iterable[str]) -> bool:
    """True iff the two profiles assign the same strategy to every listed player."""
    return all(s[i] == t[i] for i in map(graph.index, players))


def splice_profiles(graph: DependencyGraph, s: StrategyProfile,
                    t: StrategyProfile, cut: Cut) -> StrategyProfile:
    """Combine two profiles across a cut: left side from `s`, right side from `t`."""
    cut.check(graph)
    return tuple(s[i] if p in cut.left else t[i]
                 for i, p in enumerate(graph.players))


def validate_game(game: Game) -> tuple[str, ...]:
    """Warnings for payoff tables that do not cover every local assignment.

    Incomplete tables are legal (missing entries default to 0), so this
    never raises; structural errors are rejected at construction time.
    """
    warnings = []
    for p in game.graph.players:
        full = math.prod(len(game.strategies[w]) for w in game.graph.local_order(p))
        have = len(game.payoffs.get(p, {}))
        if have < full:
            warnings.append(
                f"payoff table for {p} covers {have} of {full} local assignments "
                f"(missing entries default to 0)")
    return tuple(warnings)
