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

Both modes judge most candidates in blocks (`_BlockLayout`): numpy arrays
of raw outputs, one row per draw and one column per candidate, judged at
once with each player's table padded to `max_strategies` strategies per
member, best responses by one max, equilibria as a mask over the padded
profile grid, and each atom by grouping that mask on its lhs projection.
Random mode judges a per-game prefix of `_PER_GAME_PREFIX` candidates, then
blocks of consecutive indices, their rows every raw splitmix64 output.
Systematic mode judges consecutive assignment numbers of one count shape,
its rows the counts and the digits of each number.  Blocks double in size
up to `_BLOCK_ELEMENTS` padded elements, and the budget is still checked
per candidate in order.  Candidates are judged per game instead when an
output in their random window was rejected, and when the padded grid has
more than `_GRID_PROFILES` profiles (past it the dense grid costs more than
the sparse per-game join, and the profile cap cannot fire inside a block).

`fuzz_soundness` judges a game on a cover of its derived goals
(`_fuzz_goals`), exact because Augmentation is sound on every equilibrium
set, and re-judges per game, against every goal, a candidate in which a
cover goal fails, so its report is built from the per-game semantics.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

from .core import (
    Atom,
    DependencyGraph,
    Falsum,
    Formula,
    Game,
    InputError,
    ResourceLimitError,
    check_formula_scope,
)
from .equilibrium import DEFAULT_PROFILE_CAP, check_profile_cap, index_equilibria
from .parser import _mean_mod_modulus
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
        return self.take(1 << 64, 1)[0]

    def take(self, bound: int, count: int) -> list[int]:
        """`count` uniform integers in [0, bound), each by rejection to avoid
        modulo bias: the draws of `count` calls of `below`, in one loop.
        A bound above 2^64 would reject every output, so it is refused."""
        if bound <= 0:
            raise InputError(f"bound must be positive, got {bound}")
        if bound > 1 << 64:
            raise InputError(f"bound must be at most 2^64, got {bound}")
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
    max_profiles: int = DEFAULT_PROFILE_CAP
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


_REWARDS = (Fraction(0), Fraction(1))   # shared by every cell of the built-in games


def _builtin(graph_name: str, strategies: dict, rewards: dict) -> Game:
    """A built-in game on `builtin_graph(graph_name)`.

    `rewards` maps a player to a test of its local assignment (a dict from
    player to label): the player's table is 1 where it passes and 0 where it
    fails.  A player without a reward has an empty table, so payoff 0.
    """
    graph = builtin_graph(graph_name)
    payoffs = {}
    for player in graph.players:
        reward = rewards.get(player)
        local = graph.local_order(player)
        payoffs[player] = {} if reward is None else {
            key: _REWARDS[reward(dict(zip(local, key)))]
            for key in itertools.product(*(strategies[q] for q in local))}
    return Game.of(graph, strategies, payoffs)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _gamma1_mean_mod(p: int) -> Game:
    if p ** 4 > DEFAULT_PROFILE_CAP:
        raise ResourceLimitError(f"gamma1_mean_mod({p}) has p^4 profiles, exceeding "
                                 f"the cap of {DEFAULT_PROFILE_CAP}")
    if not _is_prime(p):
        raise InputError(f"modulus {p} is not prime")
    labels = tuple(str(i) for i in range(p))
    # b and c are rewarded iff their choice solves the local linear relation;
    # a and d have constant payoff 0
    return _builtin("gamma1", dict.fromkeys("abcd", labels), {
        "b": lambda s: (2 * int(s["b"]) - int(s["a"]) - int(s["c"])) % p == 0,
        "c": lambda s: (2 * int(s["c"]) - int(s["b"]) - int(s["d"])) % p == 0})


_RPS_BEATS = {("rock", "scissors"), ("scissors", "paper"), ("paper", "rock")}

_BUILTIN_GAMES = {
    "coordination": lambda: _builtin(
        "pair", {"a": ("a1", "a2"), "b": ("b1", "b2")},
        dict.fromkeys("ab", lambda s: s["a"][1] == s["b"][1])),
    # row player's a2 pairs with b2, a1 and a3 both pair with b1
    "table2": lambda: _builtin(
        "pair", {"a": ("a1", "a2", "a3"), "b": ("b1", "b2")},
        dict.fromkeys("ab", lambda s: s["b"] == ("b2" if s["a"] == "a2" else "b1"))),
    "parity": lambda: _builtin(
        "triangle", dict.fromkeys("abc", ("0", "1")),
        dict.fromkeys("abc", lambda s: sum(int(x) for x in s.values()) % 2 == 0)),
    "consensus": lambda: _builtin(
        "triangle", dict.fromkeys("abc", ("0", "1")),
        dict.fromkeys("abc", lambda s: len(set(s.values())) == 1)),
    "gamma2_rps": lambda: _builtin(
        "gamma2", dict.fromkeys("abcd", ("rock", "paper", "scissors")),
        {"b": lambda s: s["a"] != s["d"] and (s["b"], s["c"]) in _RPS_BEATS,
         "c": lambda s: s["a"] != s["d"] and (s["c"], s["b"]) in _RPS_BEATS}),
}


def builtin_game(name: str) -> Game:
    """One of the named example games.

    Names: coordination, table2, parity, consensus, gamma1_mean_mod(p) for a
    prime p with p^4 at most the enumeration cap (so p <= 53), gamma2_rps.
    """
    if name in _BUILTIN_GAMES:
        return _BUILTIN_GAMES[name]()
    p = _mean_mod_modulus(name)
    if p is None:
        raise InputError(f"unknown built-in game {name!r}")
    return _gamma1_mean_mod(p)


# --- random and systematic generation ---------------------------------------


def _table_sizes(graph: DependencyGraph, counts) -> list[int]:
    return [math.prod(counts[i] for i in graph.local_indices(p)) for p in graph.players]


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
    return counts, functools.cache(cells)


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


def _drawn_cells(graph: DependencyGraph, bounds: SearchBounds, index: int):
    return _draw(graph, bounds, index)[1]()


# --- judging blocks of the random stream as arrays ----------------------------

# The first candidates of a random search are judged per game, so a search
# that stops among them pays nothing for the block layout (about as much as
# judging a few games) or for judging candidates it never reaches.
_PER_GAME_PREFIX = 8
# A block holds at most this many padded elements: its candidates times the
# larger of a candidate's padded profile grid and its draws.
_BLOCK_ELEMENTS = 1 << 16
# Graphs whose padded grid has more profiles than this are judged per game.
# A block pays, per candidate, one gather per player and one grouping per
# atom over the whole grid, while per-game judging joins sparse tables.  On
# paths and cycles (2-vCPU VM) the block path took 0.1-0.9 of the per-game
# time up to 4096 profiles, and 1.2-4.8 times it from 6561 (fuzz-soundness)
# or 8192 (refute) profiles on.
_GRID_PROFILES = 1 << 12


def _mix(z):
    """The splitmix64 finalizer, in place on a uint64 array of states."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _rejection_limit(bound: int):
    """The outputs at or above which `take` redraws, as a uint64, or None
    when `bound` divides 2^64 and nothing is redrawn."""
    rest = (1 << 64) % bound
    return None if rest == 0 else np.uint64((1 << 64) - rest)


class _BlockLayout:
    """The index tables of one search, shared by all its blocks.

    `judge` reads a block of raw outputs, `raw[draw, candidate]`: a
    candidate's strategy counts and then its payoff cells in draw order, as
    `_draw` reads them.  `random_block` fills it from splitmix64 states and
    alone checks for rejected outputs; `systematic_block` fills it with the
    counts of one shape and the digits of its assignment numbers.

    Block arrays run over the candidates on their last axis.  Each player's
    local table is padded to m = `max_strategies` strategies per member and
    laid out own axis first: padded cell `d * rows + r` holds own strategy d
    in row r, where player p's rows start at its row start and run
    row-major over the other members of its closed neighbourhood in local
    order.  A best response is then a max over the first axis of the
    `(m, rows, candidates)` array of cells.

    A cell's position among its candidate's draws is linear in the strides
    of its owner's actual table and the start of that table, so
    `placement @ features` places every cell of a block at once, and
    `excess @ too_large` counts the strategies of a cell that its candidate
    does not have (a padded cell).  `gather[p, profile]` is player p's cell
    at each profile of the padded grid of m^n profiles (declaration order,
    last player fastest).  Fuzz blocks group only the cover of the derived
    goals (`_fuzz_goals`): every goal holds where the cover holds.
    """

    def __init__(self, graph: DependencyGraph, bounds: SearchBounds, per_candidate: int):
        n, m = len(graph.players), bounds.max_strategies
        self.graph, self.n, self.m = graph, n, m
        self.width = max(len(graph.local_indices(p)) for p in graph.players)
        self.members = np.full((n, self.width), n)
        row_starts = np.cumsum([0] + [m ** (len(graph.local_indices(p)) - 1)
                                      for p in graph.players])
        self.rows = int(row_starts[-1])
        cells = m * self.rows
        self.placement = np.zeros((cells, n * self.width + n + 1))
        self.placement[:, -1] = 1
        self.excess = np.zeros((cells, n * m))
        places = np.zeros((n, n), np.intp)
        for i, player in enumerate(graph.players):
            local = graph.local_indices(player)
            self.members[i, :len(local)] = local
            order = np.array([i] + [q for q in local if q != i])   # own axis first
            powers = m ** np.arange(len(local) - 1, -1, -1)
            digits = np.arange(m ** len(local))[:, None] // powers % m
            place = np.concatenate([[self.rows], powers[1:]])
            cell = (row_starts[i] + digits @ place)[:, None]
            self.placement[cell, i * self.width + np.searchsorted(local, order)] = digits
            self.placement[cell, n * self.width + i] = 1
            self.excess[cell, order * m + digits] = 1
            places[i, order] = place
        grid = np.arange(m ** n) // m ** np.arange(n - 1, -1, -1)[:, None] % m
        self.gather = row_starts[:-1, None] + places @ grid
        self.draws = n + cells
        self.steps = np.arange(1, self.draws + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        values = len(bounds.payoff_values)
        self.ranks = np.array([-1] + _ranks(bounds.payoff_values),   # -1: padded cell
                              np.min_scalar_type(-values))
        self.limits = (_rejection_limit(m), _rejection_limit(values))
        self.max_block = _BLOCK_ELEMENTS // per_candidate
        self._groupings: dict = {}

    @classmethod
    def of(cls, graph: DependencyGraph, bounds: SearchBounds):
        """The layout, or None when the padded grid exceeds `_GRID_PROFILES`.
        The mask is read with one axis per player, and numpy before 2.0
        allows 32 axes, so graphs of 32 players or more (within the grid
        bound only with one strategy each) are judged per game too.  Within
        both bounds one candidate fits a block: its draws number at most
        n + n * m^n, and n <= 12 when m >= 2."""
        n, m = len(graph.players), bounds.max_strategies
        if not 0 < n < 32 or m ** n > _GRID_PROFILES:
            return None
        draws = n + sum(m ** len(graph.local_indices(p)) for p in graph.players)
        return cls(graph, bounds, max(m ** n, draws))

    def judge(self, raw):
        """The strategy counts `counts[player, candidate]` of a block and its
        equilibrium mask, `mask[profile, candidate]` over the padded grid,
        from the block's raw outputs: `raw[j, c]` is draw j of candidate c.
        A count is its draw mod m, plus 1; a cell's value index is its draw
        mod the number of payoff values."""
        n, m = self.n, self.m
        size = raw.shape[1]
        counts = (raw[:n] % np.uint64(m)).astype(np.intp) + 1

        local = np.vstack([counts, np.ones((1, size), np.intp)])[self.members]
        within = np.cumprod(local[:, ::-1], axis=1)[:, ::-1]
        strides = np.concatenate([within[:, 1:], np.ones_like(within[:, :1])], axis=1)
        sizes = within[:, 0]
        starts = n + np.cumsum(sizes, axis=0) - sizes
        # draw j of candidate c is raw.ravel()[j * size + c]
        features = np.vstack([strides.reshape(-1, size) * size, starts * size,
                              np.arange(size)[None, :]])
        where = (self.placement @ features).astype(np.intp)
        too_large = counts[:, None, :] <= np.arange(m)[:, None]
        padded = self.excess @ too_large.reshape(n * m, size) > 0

        # a padded cell may point past the block: it reads rank -1 instead
        value = raw.ravel().take(where, mode="clip")
        value %= np.uint64(len(self.ranks) - 1)
        value += np.uint64(1)
        value *= ~padded
        cells = self.ranks[value.view(np.int64)].reshape(m, self.rows, size)
        best = ((cells == cells.max(axis=0)) & (cells >= 0)).reshape(m * self.rows, size)
        return counts, best[self.gather].all(axis=0)

    def random_block(self, seed: int, start: int, size: int):
        """Candidates `start .. start+size-1` of the random stream with `seed`:
        their strategy counts, whether each was rejected, and the mask.

        Draw j of candidate i comes from state `s_i + (j+1) * 0x9E3779B97F4A7C15`
        (mod 2^64), so each raw output of the block is one array element.  A
        candidate with an output at or above its rejection limit inside its
        window draws differently, so its mask must not be used.
        """
        n = self.n
        index = np.arange(start + 1, start + size + 1, dtype=np.uint64)
        raw = _mix(self.steps[:, None] + (np.uint64(seed) ^ (index * np.uint64(_GOLDEN))))
        counts, mask = self.judge(raw)
        count_limit, cell_limit = self.limits
        rejected = np.zeros(size, bool)
        if count_limit is not None:
            rejected |= (raw[:n] >= count_limit).any(axis=0)
        if cell_limit is not None and (raw[n:] >= cell_limit).any():
            local = np.vstack([counts, np.ones((1, size), np.intp)])[self.members]
            window = np.arange(self.draws)[:, None] < n + local.prod(axis=1).sum(axis=0)
            rejected |= ((raw >= cell_limit) & window)[n:].any(axis=0)
        return counts.T.tolist(), rejected.tolist(), mask

    def systematic_block(self, counts, cells: int, start: int, size: int):
        """The mask of assignment numbers `start .. start+size-1` of the shape
        `counts` with `cells` payoff cells: row i of the raw block holds
        `counts[i] - 1`, and row n + j digit j of the assignment number (base
        V, the number of payoff values, most significant first), so a cell's
        value index is its digit.  Digits whose place value exceeds the
        block's last number are 0, and are not computed: every place value
        computed is at most that number, so it fits a uint64."""
        base = len(self.ranks) - 1
        raw = np.zeros((self.draws, size), np.uint64)
        raw[:self.n] = np.array(counts, np.uint64)[:, None] - np.uint64(1)
        numbers = np.arange(size, dtype=np.uint64) + np.uint64(start)
        last, place, row = start + size - 1, 1, self.n + cells - 1
        while place <= last:
            raw[row] = numbers // np.uint64(place) % np.uint64(base)
            place, row = place * base, row - 1
        return self.judge(raw)[1]

    def holds(self, mask, atom: Atom):
        """Per column of the equilibrium mask, whether `atom` holds: grouped
        on the lhs projection, no group has two distinct rhs projections.
        The mask is read with one axis per player and copied with the lhs
        axes first, then the rhs axes not in the lhs, then the rest: `any`
        over the rest leaves the (lhs, rhs) projections that occur, and a
        sum counts them per lhs projection."""
        if atom not in self._groupings:
            lhs = sorted(self.graph.index(p) for p in atom.lhs)
            rhs = sorted({self.graph.index(p) for p in atom.rhs} - set(lhs))
            rest = [i for i in range(self.n) if i not in lhs and i not in rhs]
            shape = (self.m ** len(lhs), self.m ** len(rhs), self.m ** len(rest))
            self._groupings[atom] = (lhs + rhs + rest + [self.n], shape) if rhs else None
        if self._groupings[atom] is None:
            return np.ones(mask.shape[1], bool)
        order, shape = self._groupings[atom]
        grid = mask.reshape((self.m,) * self.n + (mask.shape[1],)).transpose(order)
        pairs = grid.reshape(*shape, mask.shape[1]).any(axis=2)
        return (pairs.sum(axis=1) <= 1).all(axis=0)

    def formula_holds(self, mask, formula: Formula):
        """Per column of the equilibrium mask, the truth of `formula`."""
        if isinstance(formula, Falsum):
            return np.zeros(mask.shape[1], bool)
        if isinstance(formula, Atom):
            return self.holds(mask, formula)
        return (~self.formula_holds(mask, formula.antecedent)
                | self.formula_holds(mask, formula.consequent))


def _random_candidates(graph: DependencyGraph, bounds: SearchBounds, judge):
    """`(counts, cells, verdict)` for indices 0 .. sample_count-1 of the random
    stream, in order, with `cells` as for `_draw`.

    After the first `_PER_GAME_PREFIX` indices, candidates come in blocks
    of doubling size, up to `_BLOCK_ELEMENTS` padded elements, and `verdict`
    is the candidate's entry of `judge(layout, mask)`.  It is None for a
    candidate to judge per game: one in the prefix, one whose draws were
    rejected, and every candidate of a graph that `_BlockLayout.of` leaves
    to per-game judging.
    """
    prefix = min(_PER_GAME_PREFIX, bounds.sample_count)
    for index in range(prefix):
        yield (*_draw(graph, bounds, index), None)
    layout = _BlockLayout.of(graph, bounds) if prefix < bounds.sample_count else None
    if layout is None:
        for index in range(prefix, bounds.sample_count):
            yield (*_draw(graph, bounds, index), None)
        return
    start, size = prefix, _PER_GAME_PREFIX
    while start < bounds.sample_count:
        size = min(size, layout.max_block, bounds.sample_count - start)
        counts, rejected, mask = layout.random_block(bounds.seed, start, size)
        for index, count, redraw, verdict in zip(itertools.count(start), counts, rejected,
                                                 judge(layout, mask)):
            if redraw:
                yield (*_draw(graph, bounds, index), None)
            else:
                yield (tuple(count), functools.partial(_drawn_cells, graph, bounds, index),
                       verdict)
        start += size
        size *= 2


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


def _assignment_cells(number: int, base: int, sizes) -> list:
    """The cells of assignment `number` of a shape with tables of `sizes`
    cells: its digits in base `base`, most significant first, split by table."""
    digits = []
    for _ in range(sum(sizes)):
        number, digit = divmod(number, base)
        digits.append(digit)
    return _split(digits[::-1], sizes)


def _systematic_candidates(graph: DependencyGraph, bounds: SearchBounds, judge):
    """`(counts, cells, verdict)` in the canonical order of `_systematic_draws`.

    Within a shape, assignment numbers 0 .. V^T - 1 (V payoff values, T
    cells) are judged in blocks, and `verdict` is the candidate's entry of
    `judge(layout, mask)`.  Block sizes double from `_PER_GAME_PREFIX` over
    the whole walk, each block cut at the end of its shape, at the layout's
    `max_block` and at the candidates the remaining profile budget admits.
    The first candidate past the budget comes unjudged (verdict None), as
    does every candidate of a graph that `_BlockLayout.of` leaves to
    per-game judging.
    """
    layout = _BlockLayout.of(graph, bounds)
    if layout is None:
        for counts, cells in _systematic_draws(graph, bounds):
            yield counts, cells, None
        return
    base = len(bounds.payoff_values)
    budget = bounds.max_profiles
    grow = _PER_GAME_PREFIX
    for counts in _count_vectors(len(graph.players), bounds.max_strategies):
        sizes = _table_sizes(graph, counts)
        total, cost = base ** sum(sizes), math.prod(counts)
        start = 0
        while start < total:
            size = min(grow, layout.max_block, total - start, budget // cost)
            if size == 0:
                yield counts, functools.partial(_assignment_cells, start, base, sizes), None
                return
            mask = layout.systematic_block(counts, sum(sizes), start, size)
            for number, verdict in zip(itertools.count(start), judge(layout, mask)):
                yield (counts, functools.partial(_assignment_cells, number, base, sizes),
                       verdict)
            budget -= size * cost
            start += size
            grow *= 2


def _equilibria(graph: DependencyGraph, counts, cells, ranks):
    """Zero-argument function returning the equilibria of a draw as
    strategy-index tuples, enumerated on its first call.  The profile cap is
    checked from the counts before any cell is drawn; payoff values are
    compared by their rank (`_ranks`)."""
    def found():
        check_profile_cap(math.prod(counts))
        return index_equilibria(graph, counts,
                                [[ranks[c] for c in row] for row in cells()])
    return functools.cache(found)


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
    candidates = _systematic_candidates if bounds.mode == "systematic" else _random_candidates
    source = candidates(graph, bounds,
                        lambda layout, mask: layout.formula_holds(mask, formula).tolist())
    ranks = _ranks(bounds.payoff_values)
    budget = bounds.max_profiles
    examined = 0
    for counts, cells, verdict in source:
        cost = math.prod(counts)
        if cost > budget:
            return NoneWithinBounds(examined, cap_exceeded=True)
        budget -= cost
        examined += 1
        if verdict is None:
            verdict = evaluate(graph, _equilibria(graph, counts, cells, ranks), formula)
        if not verdict:
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


def _fuzz_goals(graph: DependencyGraph, table) -> tuple[list[Atom], list[Atom]]:
    """The goals `X |> cl(X)` of a closure table, one per X with cl(X) != X,
    and their cover: the goals for which no x in X has
    cl(X) <= X | cl(X - {x}).

    Every goal holds in a game where the cover holds, by induction on |X|:
    a goal outside the cover has an x with X - {x} |> cl(X - {x}) (a cover
    goal, a smaller goal, or reflexive), which Augmentation, sound on every
    equilibrium set, extends to X |> X | cl(X - {x}), a superset of cl(X).
    """
    n = len(graph.players)
    closures = [table.closure_mask(x) for x in range(1 << n)]
    goals, cover = [], []
    for x, closed in enumerate(closures):
        if closed == x:
            continue
        goal = Atom(graph.players_of_mask(x), graph.players_of_mask(closed))
        goals.append(goal)
        if all(closed & ~(x | closures[x & ~(1 << i)]) for i in range(n) if x >> i & 1):
            cover.append(goal)
    return goals, cover


def fuzz_soundness(graph: DependencyGraph, hypotheses: Hypotheses | Iterable,
                   bounds: SearchBounds) -> FuzzReport:
    """Check derivable atoms against the equilibrium semantics on random games.

    For every sampled game in which all hypotheses hold, every atom the
    prover derives from them must hold as well.  Closures that add nothing
    beyond their own left side are reflexive facts and cannot fail (a
    projection always determines itself), so only proper closures are tested.
    A game is judged on the cover of those goals (`_fuzz_goals`), which
    holds only where every goal does; every goal is grouped, and each
    failing one reported, only in a game where a cover goal fails.
    """
    if not isinstance(hypotheses, Hypotheses):
        hypotheses = Hypotheses.of(hypotheses)
    goals, cover = _fuzz_goals(graph, saturate(graph, hypotheses))

    def judge(layout, mask):
        """False where a hypothesis fails, True where the hypotheses and every
        cover goal hold, None (judge per game) where a cover goal fails.
        Goals are decided only on the candidates where the hypotheses hold."""
        assumed = np.ones(mask.shape[1], bool)
        for atom in hypotheses:
            assumed &= layout.holds(mask, atom)
        kept = np.flatnonzero(assumed)
        kept_mask = mask[:, kept]
        derived = np.ones(len(kept), bool)
        for goal in cover:
            derived &= layout.holds(kept_mask, goal)
        verdicts = [False] * mask.shape[1]
        for column, holds in zip(kept.tolist(), derived.tolist()):
            verdicts[column] = True if holds else None
        return verdicts

    ranks = _ranks(bounds.payoff_values)
    tested = 0
    satisfied = 0
    violations: list[FuzzViolation] = []
    for index, (counts, cells, verdict) in enumerate(_random_candidates(graph, bounds, judge)):
        tested += 1
        if verdict is not None:  # judged in a block: True counts as satisfied
            satisfied += verdict
            continue
        found = _equilibria(graph, counts, cells, ranks)
        if not all(evaluate(graph, found, atom) for atom in hypotheses):
            continue
        satisfied += 1
        if all(evaluate(graph, found, goal) for goal in cover):
            continue
        game = None
        for goal in goals:
            determined = constant_within_groups(graph, found, goal.lhs, graph.players)
            if not goal.rhs <= determined:
                if game is None:
                    game = _build(graph, bounds, counts, cells())
                violations.append(
                    FuzzViolation(index, Atom(goal.lhs, goal.rhs - determined), game))
    return FuzzReport(graph, tested, satisfied, tuple(violations))
