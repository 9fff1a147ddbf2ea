"""Built-in example games, seeded random games, and counterexample search.

Random generation uses splitmix64 (the 64-bit finalizer-based generator with
increment 0x9E3779B97F4A7C15 and mixing constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB), so game streams are reproducible across platforms and
independent of Python's hash seed or the stdlib RNG.  Game `index` of a
stream with seed `s` is drawn from SplitMix64 seeded with
`(s XOR (index+1) * 0x9E3779B97F4A7C15) mod 2^64`; draws are, in order:
one strategy count per player in declaration order (uniform in
[1, max_strategies]), then for each player in declaration order one payoff
cell per local assignment in row-major order (uniform over payoff_values).
Strategy labels are "0", "1", ... per player.

Both search streams describe a candidate game in one representation, a
*draw* `(counts, cells)`: `counts[i]` is player i's strategy count, and
`cells()` returns, per player, the indices into `payoff_values` of its
payoff cells in row-major order over `graph.local_order(player)`.
`_draw` reads it from the random stream and `_systematic_draws` from the
canonical order.  The search reads the counts first, so the profile budget
and the enumeration cap are checked before any cell is drawn, and
equilibria are enumerated only when a formula reaches an atom: on
strategy-index tuples, comparing payoff values by their rank in
`sorted(payoff_values)`.  A `Game` is built (`_build`) only for a game the
search returns: the refuting game, or a fuzzing violation.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .core import (
    Atom,
    DependencyGraph,
    Formula,
    Game,
    InputError,
    check_formula_scope,
)
from .equilibrium import check_profile_cap, index_equilibria
from .prover import Hypotheses, saturate
from .semantics import constant_within_groups, evaluate

__all__ = [
    "FuzzReport",
    "FuzzViolation",
    "NoneWithinBounds",
    "SearchBounds",
    "SplitMix64",
    "builtin_game",
    "builtin_graph",
    "find_counterexample",
    "fuzz_soundness",
    "random_game",
]

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64: tiny, fast, platform-independent 64-bit generator."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def take(self, bound: int, count: int) -> list[int]:
        """`count` uniform integers in [0, bound), each by rejection to avoid
        modulo bias: the draws of `count` calls of `below`, in one loop."""
        if bound <= 0:
            raise InputError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        state = self.state
        out = []
        for _ in range(count):
            while True:
                state = (state + _GOLDEN) & MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
                z ^= z >> 31
                if z < limit:
                    break
            out.append(z % bound)
        self.state = state
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection to avoid modulo bias."""
        return self.take(bound, 1)[0]


def _stream(seed: int, index: int) -> SplitMix64:
    return SplitMix64((seed ^ ((index + 1) * _GOLDEN)) & MASK64)


@dataclass(frozen=True)
class SearchBounds:
    """Resource and shape limits for random and systematic game generation.

    `max_profiles` is a cumulative budget: each candidate game costs its
    profile count, and the search stops (cap_exceeded) once the next game
    would overrun the budget.
    """

    max_strategies: int = 3
    payoff_values: tuple[Fraction, ...] = (Fraction(0), Fraction(1))
    max_profiles: int = 10_000_000
    seed: int = 0
    mode: str = "random"
    sample_count: int = 4000

    def __post_init__(self) -> None:
        object.__setattr__(self, "payoff_values",
                           tuple(Fraction(v) for v in self.payoff_values))
        if self.max_strategies < 1:
            raise InputError("max_strategies must be at least 1")
        if not self.payoff_values:
            raise InputError("payoff_values must be non-empty")
        if len(set(self.payoff_values)) != len(self.payoff_values):
            raise InputError("payoff_values must be distinct")
        if self.max_profiles < 1:
            raise InputError("max_profiles must be at least 1")
        if not 0 <= self.seed <= MASK64:
            raise InputError("seed must be an unsigned 64-bit integer")
        if self.mode not in ("systematic", "random"):
            raise InputError(f"mode must be systematic or random, got {self.mode!r}")
        if self.sample_count < 1:
            raise InputError("sample_count must be at least 1")


# --- built-in graphs and games ----------------------------------------------

_GRAPHS = {
    "gamma1": ("a b c d", ["a-b", "b-c", "c-d"]),
    "gamma2": ("a b c d", ["a-b", "a-c", "b-c", "b-d", "c-d"]),
    "gamma3": ("a b c", ["a-b", "b-c"]),
    "gamma4": ("a b c d e", ["a-b", "a-c", "b-d", "c-d", "d-e"]),
    "gamma5": ("a b c d e f", ["a-d", "b-e", "c-f", "d-e", "d-f", "e-f"]),
    "triangle": ("a b c", ["a-b", "a-c", "b-c"]),
    "pair": ("a b", ["a-b"]),
}


def builtin_graph(name: str) -> DependencyGraph:
    """A named example graph: gamma1..gamma5, triangle, or pair."""
    if name not in _GRAPHS:
        raise InputError(f"unknown built-in graph {name!r}")
    players, edges = _GRAPHS[name]
    return DependencyGraph.of(players.split(),
                              [tuple(e.split("-")) for e in edges])


def _full_table(game_strategies, graph, player, reward):
    local = graph.local_order(player)
    table = {}
    for key in itertools.product(*(game_strategies[q] for q in local)):
        table[key] = Fraction(reward(dict(zip(local, key))))
    return table


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _coordination() -> Game:
    graph = builtin_graph("pair")
    strategies = {"a": ("a1", "a2"), "b": ("b1", "b2")}
    matched = lambda s: s["a"][1] == s["b"][1]
    payoffs = {p: _full_table(strategies, graph, p, matched) for p in graph.players}
    return Game.of(graph, strategies, payoffs)


def _table2() -> Game:
    graph = builtin_graph("pair")
    strategies = {"a": ("a1", "a2", "a3"), "b": ("b1", "b2")}
    # row player's a2 pairs with b2, a1 and a3 both pair with b1
    matched = lambda s: s["b"] == ("b2" if s["a"] == "a2" else "b1")
    payoffs = {p: _full_table(strategies, graph, p, matched) for p in graph.players}
    return Game.of(graph, strategies, payoffs)


def _parity() -> Game:
    graph = builtin_graph("triangle")
    strategies = {p: ("0", "1") for p in graph.players}
    even = lambda s: sum(int(x) for x in s.values()) % 2 == 0
    payoffs = {p: _full_table(strategies, graph, p, even) for p in graph.players}
    return Game.of(graph, strategies, payoffs)


def _consensus() -> Game:
    graph = builtin_graph("triangle")
    strategies = {p: ("0", "1") for p in graph.players}
    unanimous = lambda s: len(set(s.values())) == 1
    payoffs = {p: _full_table(strategies, graph, p, unanimous) for p in graph.players}
    return Game.of(graph, strategies, payoffs)


def _gamma1_mean_mod(p: int) -> Game:
    if not _is_prime(p):
        raise InputError(f"modulus {p} is not prime")
    graph = builtin_graph("gamma1")
    labels = tuple(str(i) for i in range(p))
    strategies = {v: labels for v in graph.players}
    # b and c are rewarded iff their choice solves the local linear relation;
    # a and d have constant payoff 0 (empty tables, entries default to 0)
    on_mean_b = lambda s: (2 * int(s["b"]) - int(s["a"]) - int(s["c"])) % p == 0
    on_mean_c = lambda s: (2 * int(s["c"]) - int(s["b"]) - int(s["d"])) % p == 0
    payoffs = {"a": {}, "d": {},
               "b": _full_table(strategies, graph, "b", on_mean_b),
               "c": _full_table(strategies, graph, "c", on_mean_c)}
    return Game.of(graph, strategies, payoffs)


_RPS_BEATS = {("rock", "scissors"), ("scissors", "paper"), ("paper", "rock")}


def _gamma2_rps() -> Game:
    graph = builtin_graph("gamma2")
    strategies = {v: ("rock", "paper", "scissors") for v in graph.players}
    b_wins = lambda s: s["a"] != s["d"] and (s["b"], s["c"]) in _RPS_BEATS
    c_wins = lambda s: s["a"] != s["d"] and (s["c"], s["b"]) in _RPS_BEATS
    payoffs = {"a": {}, "d": {},
               "b": _full_table(strategies, graph, "b", b_wins),
               "c": _full_table(strategies, graph, "c", c_wins)}
    return Game.of(graph, strategies, payoffs)


_MEAN_MOD_RE = re.compile(r"gamma1_mean_mod\((\d+)\)\Z", re.ASCII)


def builtin_game(name: str) -> Game:
    """One of the named example games.

    Names: coordination, table2, parity, consensus, gamma1_mean_mod(p) for a
    prime p, gamma2_rps.
    """
    fixed = {"coordination": _coordination, "table2": _table2,
             "parity": _parity, "consensus": _consensus,
             "gamma2_rps": _gamma2_rps}
    if name in fixed:
        return fixed[name]()
    match = _MEAN_MOD_RE.match(name)
    if match:
        return _gamma1_mean_mod(int(match.group(1)))
    raise InputError(f"unknown built-in game {name!r}")


# --- random and systematic generation ---------------------------------------


def _table_sizes(graph: DependencyGraph, counts) -> list[int]:
    return [math.prod(counts[i] for i in graph.local_indices(p)) for p in graph.players]


def _once(compute):
    """`compute`, run on the first call only; later calls return its result."""
    result = []

    def once():
        if not result:
            result.append(compute())
        return result[0]
    return once


def _split(flat, sizes) -> list:
    """`flat` cut into consecutive pieces of the given sizes."""
    pieces, start = [], 0
    for size in sizes:
        pieces.append(flat[start:start + size])
        start += size
    return pieces


def _draw(graph: DependencyGraph, bounds: SearchBounds, index: int):
    """Game `index` of the random stream as a draw.

    `cells()` draws the cells on its first call, from where the counts left
    the stream, and returns the same lists on later calls.
    """
    rng = _stream(bounds.seed, index)
    counts = tuple(1 + k for k in rng.take(bounds.max_strategies, len(graph.players)))

    def cells() -> list[list[int]]:
        sizes = _table_sizes(graph, counts)
        return _split(rng.take(len(bounds.payoff_values), sum(sizes)), sizes)
    return counts, _once(cells)


def _build(graph: DependencyGraph, bounds: SearchBounds, counts, cells) -> Game:
    """The `Game` of a draw: labels "0", "1", ... and the drawn payoff values."""
    strategies = {p: tuple(str(i) for i in range(k)) for p, k in zip(graph.players, counts)}
    values = bounds.payoff_values
    payoffs = {p: dict(zip(itertools.product(*(strategies[q] for q in graph.local_order(p))),
                           (values[c] for c in row)))
               for p, row in zip(graph.players, cells)}
    return Game.of(graph, strategies, payoffs)


def random_game(graph: DependencyGraph, bounds: SearchBounds, index: int) -> Game:
    """The game at `index` of the stream determined by (graph, bounds.seed)."""
    counts, cells = _draw(graph, bounds, index)
    return _build(graph, bounds, counts, cells())


def _count_vectors(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """All strategy-count vectors, ascending by total then lexicographically."""
    def parts(total: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            if total == 0:
                yield ()
            return
        low = max(1, total - cap * (slots - 1))
        high = min(cap, total - (slots - 1))
        for first in range(low, high + 1):
            for rest in parts(total - first, slots - 1):
                yield (first,) + rest

    for total in range(n, n * cap + 1):
        yield from parts(total, n)


def _systematic_draws(graph: DependencyGraph, bounds: SearchBounds):
    """Canonical order: counts ascending (total, then lex); within a shape,
    payoff tables in lexicographic order over the concatenated cells (players
    in declaration order, local assignments row-major, last cell fastest)."""
    for counts in _count_vectors(len(graph.players), bounds.max_strategies):
        sizes = _table_sizes(graph, counts)
        for assignment in itertools.product(range(len(bounds.payoff_values)),
                                            repeat=sum(sizes)):
            yield counts, functools.partial(_split, assignment, sizes)


def _systematic_games(graph: DependencyGraph, bounds: SearchBounds) -> Iterator[Game]:
    """The games of the canonical order, built."""
    for counts, cells in _systematic_draws(graph, bounds):
        yield _build(graph, bounds, counts, cells())


def _equilibria(graph: DependencyGraph, counts, cells, ranks):
    """Zero-argument function returning the equilibria of a draw as
    strategy-index tuples, enumerated on its first call.  The profile cap is
    checked from the counts before any cell is drawn; payoff values are
    compared by their rank (`_ranks`)."""
    def found():
        check_profile_cap(math.prod(counts))
        return index_equilibria(graph, counts,
                                [[ranks[c] for c in row] for row in cells()])
    return _once(found)


def _ranks(values) -> list[int]:
    """The rank of each payoff value in `sorted(values)`."""
    order = sorted(values)
    return [order.index(v) for v in values]


@dataclass(frozen=True)
class NoneWithinBounds:
    """Search outcome when no counterexample was found; falsy."""

    games_examined: int
    cap_exceeded: bool = False

    def __bool__(self) -> bool:
        return False


def find_counterexample(graph: DependencyGraph, formula: Formula,
                        bounds: SearchBounds) -> Union[Game, NoneWithinBounds]:
    """First game within bounds where the formula fails, if there is one.

    Systematic mode walks the canonical order exhaustively; random mode walks
    the seeded stream at indices 0..sample_count-1.
    """
    check_formula_scope(graph, formula)
    if bounds.mode == "systematic":
        source = _systematic_draws(graph, bounds)
    else:
        source = (_draw(graph, bounds, i) for i in range(bounds.sample_count))
    ranks = _ranks(bounds.payoff_values)
    budget = bounds.max_profiles
    examined = 0
    for counts, cells in source:
        cost = math.prod(counts)
        if cost > budget:
            return NoneWithinBounds(examined, cap_exceeded=True)
        budget -= cost
        examined += 1
        if not evaluate(graph, _equilibria(graph, counts, cells, ranks), formula):
            return _build(graph, bounds, counts, cells())
    return NoneWithinBounds(examined)


# --- soundness fuzzing --------------------------------------------------------


@dataclass(frozen=True)
class FuzzViolation:
    index: int       # index in the random stream
    atom: Atom       # derivable atom that failed semantically
    game: Game


@dataclass(frozen=True)
class FuzzReport:
    graph: DependencyGraph
    games_tested: int
    hypotheses_satisfied: int
    violations: tuple[FuzzViolation, ...]

    def __bool__(self) -> bool:
        return not self.violations

    def text(self) -> str:
        from .parser import print_formula
        lines = [f"games tested: {self.games_tested}",
                 f"hypotheses satisfied: {self.hypotheses_satisfied}",
                 f"violations: {len(self.violations)}"]
        for v in self.violations:
            lines.append(f"game {v.index}: derived "
                         f"{print_formula(v.atom, self.graph)} does not hold")
        return "\n".join(lines) + "\n"


def fuzz_soundness(graph: DependencyGraph, hypotheses: Hypotheses | Iterable,
                   bounds: SearchBounds) -> FuzzReport:
    """Check derivable atoms against the equilibrium semantics on random games.

    For every sampled game in which all hypotheses hold, every atom the
    prover derives from them must hold as well.  Closures that add nothing
    beyond their own left side are reflexive facts and cannot fail (a
    projection always determines itself), so only proper closures are tested.
    """
    if not isinstance(hypotheses, Hypotheses):
        hypotheses = Hypotheses.of(hypotheses)
    table = saturate(graph, hypotheses)
    goals = []
    for x in range(1 << len(graph.players)):
        closed = table.closure_mask(x)
        if closed != x:
            goals.append((graph.players_of_mask(x), graph.players_of_mask(closed)))
    ranks = _ranks(bounds.payoff_values)
    tested = 0
    satisfied = 0
    violations: list[FuzzViolation] = []
    for index in range(bounds.sample_count):
        counts, cells = _draw(graph, bounds, index)
        found = _equilibria(graph, counts, cells, ranks)
        tested += 1
        if not all(evaluate(graph, found, atom) for atom in hypotheses):
            continue
        satisfied += 1
        game = None
        for lhs, closed in goals:
            determined = constant_within_groups(graph, found, lhs, graph.players)
            if not closed <= determined:
                if game is None:
                    game = _build(graph, bounds, counts, cells())
                violations.append(
                    FuzzViolation(index, Atom(lhs, closed - determined), game))
    return FuzzReport(graph, tested, satisfied, tuple(violations))
