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
`_draw` reads it from the random stream and `_systematic_candidates` from
the canonical order.  The search reads the counts first, so the profile
budget and the enumeration cap are checked before any cell is drawn, and
equilibria are enumerated only when a formula reaches an atom: on
strategy-index tuples, comparing payoff values by their rank in
`sorted(payoff_values)`.  A `Game` is built (`_build`) only for a game the
search returns: the refuting game, or a fuzzing violation.  It keeps its
draw's rows of value indices as its tokens, as the built-ins keep their
rows of reward bits, so the join scales them to its integer cells and
`Game` builds `payoffs` from them on first read.

Both modes judge most candidates in blocks (`_BlockLayout`): one column
per candidate, each payoff cell read by the index of its draw, judged at
once with each player's table padded to `max_strategies` strategies per
member, best responses by one max, equilibria as a mask over the padded
profile grid, and each atom by grouping that mask on its lhs projection.
Random mode judges blocks of consecutive indices: it computes their
strategy counts first and then only the splitmix64 outputs of the draws
that each candidate reads.  A random search that can stop early,
`find_counterexample`, first judges a per-game prefix of `_PER_GAME_PREFIX`
candidates, so a search that stops among them sets up no block;
`fuzz_soundness` always tests every sample, so it judges blocks from
index 0.  Systematic mode judges consecutive assignment numbers of one
count shape: one placement of the shape's cells serves the whole block,
and each cell reads the digit of its draw in each number.  It walks the
same numbers one game at a time where no block layout applies.  The first
block holds `_FIRST_BLOCK` candidates, and each later block as many as all
blocks before it (`_block_size`), up to `_BLOCK_ELEMENTS` padded elements;
a random block also stops at `_BLOCK_PRODUCT` multiply-adds in the product
that places its cells, which has one column per candidate (a systematic
block's has one column whatever its size).  The budget is still checked
per candidate in order.  Candidates are judged per
game instead when an output in their random window was rejected, and when
the padded grid has more than `_GRID_PROFILES` profiles (past it the dense
grid costs more than the sparse per-game join, and the profile cap cannot
fire inside a block).

`fuzz_soundness` judges a game on a cover of its derived goals
(`_fuzz_goals`), exact because Augmentation is sound on every equilibrium
set, and re-judges per game, against every goal, a candidate in which a
cover goal fails, so its report is built from the per-game semantics.

numpy is imported inside the code that uses it (`_mix`, `_rejection_limit`,
the methods of `_BlockLayout` and the block judge of `fuzz_soundness`), not
at module level: every `gamedep` process imports this module, but only
`refute` and `fuzz-soundness` judge blocks, and importing numpy is most of
the start-up of `ne`, `check`, `validate` and `prove-check`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Union

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

if TYPE_CHECKING:
    import numpy as np

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
    would overrun the budget.  `fuzz_soundness` reads only `max_strategies`,
    `payoff_values`, `seed` and `sample_count`: it samples the random stream
    whatever `mode` says and never spends `max_profiles`.
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
    player to label): the player's row holds, in row-major order, the test's
    outcome on each assignment, a token into `_REWARDS`, so the payoff is 1
    where it passes and 0 where it fails.  A player without a reward has no
    row, so payoff 0.  Like a draw, a built-in is valid by construction (its
    labels are fixed here and its rows complete), so it is built unchecked.
    """
    graph = builtin_graph(graph_name)
    tokens = {}
    for player in graph.players:
        reward = rewards.get(player)
        if reward is not None:
            local = graph.local_order(player)
            tokens[player] = [reward(dict(zip(local, key)))
                              for key in itertools.product(*(strategies[q] for q in local))]
    return Game._unchecked(graph, strategies, None, {"tokens": tokens, "values": _REWARDS})


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
    """The `Game` of a draw: labels "0", "1", ..., and each player's row of
    value indices as its tokens into `payoff_values`.  A draw is valid by
    construction (distinct, checked labels, at least one per player, a
    complete row per player in local order, `Fraction` values from
    `SearchBounds`), so the game is built unchecked."""
    strategies = {p: tuple(str(i) for i in range(k)) for p, k in zip(graph.players, counts)}
    return Game._unchecked(graph, strategies, None, {"tokens": dict(zip(graph.players, cells)),
                                                     "values": bounds.payoff_values})


def random_game(graph: DependencyGraph, bounds: SearchBounds, index: int) -> Game:
    """The game at `index` of the stream determined by (graph, bounds.seed)."""
    counts, cells = _draw(graph, bounds, index)
    return _build(graph, bounds, counts, cells())


def _drawn_cells(graph: DependencyGraph, bounds: SearchBounds, index: int):
    return _draw(graph, bounds, index)[1]()


# --- judging blocks of the random stream as arrays ----------------------------

# The first candidates of a random search that can stop early
# (`find_counterexample`) are judged per game, so a search that stops among
# them pays nothing for the block layout (0.11-0.26 ms on gamma1, gamma4 and
# gamma5, as much as judging one to three games) or for judging candidates
# it never reaches.  With 3 here, searches failing at index 3-13 ran up to
# 2.2 times slower.  `fuzz_soundness` never stops early and has no prefix:
# judged per game, these 8 candidates cost a 150-sample fuzzing query about
# 1.1 ms more than in its blocks (2-vCPU VM).
_PER_GAME_PREFIX = 8
# The first block holds this many candidates.  A block costs a fixed
# 0.07-0.15 ms plus 0.9-4.7 us per candidate on gamma1, gamma4 and gamma5
# (default bounds, 2-vCPU VM, in process), so at 64 candidates both halves
# are of the same order.
_FIRST_BLOCK = 64
# A block holds at most this many padded elements: its candidates times the
# larger of a candidate's padded profile grid and the draw indices its cells
# can read (`_BlockLayout.draws`: the strategy counts and every padded cell).
_BLOCK_ELEMENTS = 1 << 16
# A random block's `placement @ features` product (`_BlockLayout._live`),
# one column per candidate, does at most this many multiply-adds (a
# systematic block's has one column).  OpenBLAS runs a larger product on
# several threads, and there a call can take many times longer: over 15
# default gamma5 refutes per process (2-vCPU VM, numpy 2.4), the slowest
# `_live` call took 0.5-15 ms in six processes with blocks of up to 89
# candidates (1.15M multiply-adds), and 0.2-1.3 ms with blocks of up to 77
# (0.998M).
_BLOCK_PRODUCT = 10 ** 6
# Graphs whose padded grid has more profiles than this are judged per game.
# A block pays, per candidate, one gather per player and one grouping per
# atom over the whole grid, while per-game judging joins sparse tables.  On
# paths and cycles (2-vCPU VM) the block path took 0.1-0.9 of the per-game
# time up to 4096 profiles, and 1.2-4.8 times it from 6561 (fuzz-soundness)
# or 8192 (refute) profiles on.
_GRID_PROFILES = 1 << 12
# Each strategy of a cell that its candidate does not have adds this to the
# cell's place in `_BlockLayout`: more than any draw index.
_PADDED = 2.0 ** 40


def _mix(z):
    """The splitmix64 finalizer, in place on a uint64 array of states."""
    import numpy as np

    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _rejection_limit(bound: int):
    """The outputs at or above which `take` redraws, as a uint64, or None
    when `bound` divides 2^64 and nothing is redrawn."""
    import numpy as np

    rest = (1 << 64) % bound
    return None if rest == 0 else np.uint64((1 << 64) - rest)


class _BlockLayout:
    """The index tables of one search, shared by all its blocks.

    A block is a range of candidates judged at once, each payoff cell read
    by the index of its draw: a candidate's strategy counts come first and
    then its payoff cells in draw order, as `_draw` reads them.
    `random_block` mixes the counts from splitmix64 states first, then only
    the outputs of the draws its candidates read, and alone checks for
    rejected outputs.  `systematic_block` places the cells of one count
    shape once for the whole block and reads each as a digit of the
    assignment number.

    Block arrays run over the candidates on their last axis.  Each player's
    local table is padded to m = `max_strategies` strategies per member and
    laid out own axis first: padded cell `d * rows + r` holds own strategy d
    in row r, where player p's rows start at its row start and run
    row-major over the other members of its closed neighbourhood in local
    order.  A best response is then a max over the first axis of the
    `(m, rows, candidates)` array of cells.

    A cell's draw index, less the n count draws, is linear in the strides
    of its owner's actual table and the sizes of the tables before it, and
    each strategy of a cell that its candidate does not have (a padded
    cell) adds `_PADDED`, so one product `placement @ features` places
    every cell of a block and marks the padded ones (`_live`).  The live
    cells of a candidate are exactly its payoff cell draws.
    `gather[p, profile]` is player p's cell at each profile of the padded
    grid of m^n profiles (declaration order, last player fastest).  Fuzz
    blocks group only the cover of the derived goals (`_fuzz_goals`): every
    goal holds where the cover holds.
    """

    def __init__(self, graph: DependencyGraph, bounds: SearchBounds):
        import numpy as np

        n, m = len(graph.players), bounds.max_strategies
        self.graph, self.n, self.m = graph, n, m
        local = [graph.local_indices(p) for p in graph.players]
        width = max(map(len, local))
        # members in local order, padded with n (count 1) to width + 1, so
        # that the products after each of the first width members are strides
        self.members = np.array([[*members, *[n] * (width + 1 - len(members))]
                                 for members in local])
        # power[i, q]: the place value of member q in player i's local
        # number, own strategy first and the other members in local order;
        # 0 for a non-member, and m^width for the padding, whose digit is 0
        power = []
        for i, members in enumerate(local):
            places = [0] * n + [m ** width]
            for s, q in enumerate([i, *(q for q in members if q != i)]):
                places[q] = m ** (len(members) - 1 - s)
            power.append(places)
        power = np.array(power)
        rows_of = [m ** (len(members) - 1) for members in local]
        row_starts = np.cumsum([0, *rows_of])
        self.rows = int(row_starts[-1])
        self.cells = m * self.rows
        self.draws = n + self.cells

        # padded cell d * rows + r, own strategy d in row r of its owner: the
        # digit of each player in it, then the placement columns (strides in
        # local order, the sizes of earlier tables, and each member's
        # strategy if too large)
        owner = np.repeat(np.arange(n), rows_of)
        number = (np.arange(m)[:, None] * np.repeat(rows_of, rows_of)
                  + np.arange(self.rows) - row_starts[owner])
        digits = number[:, :, None] // np.maximum(power[owner], 1) % m
        row = np.arange(self.rows)
        strides = np.zeros((m, self.rows, n, width))
        strides[:, row, owner] = digits[:, row[:, None], self.members[owner, :-1]]
        too_large = (power[owner, :n, None] > 0) & (digits[:, :, :n, None] == np.arange(m))
        self.placement = np.concatenate([
            strides.reshape(m, self.rows, -1),
            np.broadcast_to(np.arange(n) < owner[:, None], (m, self.rows, n)),
            too_large.reshape(m, self.rows, -1) * _PADDED], axis=2).reshape(self.cells, -1)
        place = power[:, :n].astype(float)
        np.fill_diagonal(place, self.rows)
        grid = np.indices((m,) * n, dtype=float).reshape(n, -1)
        self.gather = (row_starts[:-1, None] + place @ grid).astype(np.intp)
        self.strategies = np.arange(m)[:, None]
        self.steps = np.arange(1, self.draws + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        values = len(bounds.payoff_values)
        self.values = np.uint64(values)
        self.ranks = np.array(_ranks(bounds.payoff_values), np.min_scalar_type(-values))
        self.limits = (_rejection_limit(m), _rejection_limit(values))
        self.max_block = _BLOCK_ELEMENTS // max(m ** n, self.draws)
        self.max_random_block = min(self.max_block, max(1, _BLOCK_PRODUCT // self.placement.size))
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
        return cls(graph, bounds)

    def _live(self, counts):
        """Where the candidates of a block with strategy counts
        `counts[player, candidate]` read their cells: the padded cells'
        liveness `live[cell, candidate]`, the flat positions `at` of the
        live ones, and the draw index that each of them reads."""
        import numpy as np

        size = counts.shape[1]
        local = np.vstack([counts, np.ones((1, size), np.intp)]).take(self.members, axis=0)
        within = np.cumprod(local[:, ::-1], axis=1)[:, ::-1]
        too_large = counts[:, None, :] <= self.strategies
        features = np.concatenate([within[:, 1:].reshape(-1, size), within[:, 0],
                                   too_large.reshape(-1, size)])
        place = self.placement @ features
        live = place < _PADDED
        at = np.flatnonzero(live)
        return live, at, self.n + place.ravel()[at].astype(np.intp)

    def _mask(self, live, at, outputs):
        """The equilibrium mask `mask[profile, candidate]` over the padded
        grid, from the raw outputs of the live cells at flat positions `at`:
        a cell's value index is its output mod the number of payoff values."""
        import numpy as np

        size = live.shape[1]
        ranks = np.full(self.cells * size, -1, self.ranks.dtype)
        ranks[at] = self.ranks.take(outputs % self.values)
        cells = ranks.reshape(self.m, self.rows, size)
        best = cells == cells.max(axis=0)
        best &= live.reshape(best.shape)
        return best.reshape(self.cells, size).take(self.gather, axis=0).all(axis=0)

    def random_block(self, seed: int, start: int, size: int):
        """Candidates `start .. start+size-1` of the random stream with `seed`:
        their strategy counts, whether each was rejected, and the mask.

        Draw j of candidate i comes from state `s_i + (j+1) * 0x9E3779B97F4A7C15`
        (mod 2^64).  The count draws are mixed first, then only the draws of
        the live cells: they are the candidate's window of draws, and a
        candidate with an output in it at or above its rejection limit draws
        differently, so its mask must not be used.
        """
        import numpy as np

        index = np.arange(start + 1, start + size + 1, dtype=np.uint64)
        states = np.uint64(seed) ^ (index * np.uint64(_GOLDEN))
        head = _mix(self.steps[:self.n, None] + states)
        counts = (head % np.uint64(self.m)).astype(np.intp) + 1
        live, at, draws = self._live(counts)
        candidates = at % size
        outputs = _mix(self.steps.take(draws) + states.take(candidates))
        mask = self._mask(live, at, outputs)
        count_limit, cell_limit = self.limits
        rejected = np.zeros(size, bool)
        if count_limit is not None:
            rejected |= (head >= count_limit).any(axis=0)
        if cell_limit is not None:
            rejected[candidates[outputs >= cell_limit]] = True
        return counts.T.tolist(), rejected.tolist(), mask

    def systematic_block(self, counts, start: int, size: int):
        """The mask of assignment numbers `start .. start+size-1` of the shape
        `counts`.  Every number has the same counts, so one column places the
        cells of the whole block.  A cell's value index is the digit of its
        draw (base V, the number of payoff values): the shape's last draw is
        the least significant digit.  Only the digits whose place value is
        at most the block's last number are computed, so every place value
        fits a uint64; the higher ones are 0."""
        import numpy as np

        live, _, draws = self._live(np.array(counts)[:, None])
        live = np.broadcast_to(live, (self.cells, size))
        numbers = np.arange(size, dtype=np.uint64) + np.uint64(start)
        places, place = [], 1
        while place <= start + size - 1:
            places.append(place)
            place *= len(self.ranks)
        digits = np.zeros((len(places) + 1, size), np.uint64)   # last row: the higher digits
        digits[:-1] = numbers // np.array(places, np.uint64)[:, None] % self.values
        outputs = digits.take(np.minimum(draws.max() - draws, len(places)), axis=0)
        return self._mask(live, np.flatnonzero(live), outputs.ravel())

    def holds(self, mask, atom: Atom):
        """Per column of the equilibrium mask, whether `atom` holds: grouped
        on the lhs projection, no group has two distinct rhs projections.
        The mask is read with one axis per player and copied with the lhs
        axes first, then the rhs axes not in the lhs, then the rest: `any`
        over the rest leaves the (lhs, rhs) projections that occur, and a
        sum counts them per lhs projection."""
        import numpy as np

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
        import numpy as np

        if isinstance(formula, Falsum):
            return np.zeros(mask.shape[1], bool)
        if isinstance(formula, Atom):
            return self.holds(mask, formula)
        return (~self.formula_holds(mask, formula.antecedent)
                | self.formula_holds(mask, formula.consequent))


def _block_size(walked: int, cap: int) -> int:
    """The size of the block after the first `walked` candidates judged in
    blocks: it ends where they number max(`_FIRST_BLOCK`, 2 * walked), cut
    at `cap` (the layout's `max_random_block` or `max_block`).  So blocks
    double from `_FIRST_BLOCK`, and a search that stops at candidate k of
    its blocks (counting from 0) has judged at most max(`_FIRST_BLOCK`, 2k)
    candidates in blocks."""
    return min(max(_FIRST_BLOCK, 2 * walked) - walked, cap)


def _random_candidates(graph: DependencyGraph, bounds: SearchBounds, judge, prefix: int):
    """`(counts, cells, verdict)` for indices 0 .. sample_count-1 of the random
    stream, in order, with `cells` as for `_draw`.

    After the first `prefix` indices, candidates come in blocks
    (`_block_size`), and `verdict` is the candidate's entry of
    `judge(layout, mask)`.  It is None for a candidate to judge per game:
    one in the prefix, one whose draws were rejected, and every candidate
    of a graph that `_BlockLayout.of` leaves to per-game judging.  The
    prefix is for a walk that can stop early: one that stops inside it
    builds no layout.  A walk that reads every index passes 0.
    """
    prefix = min(prefix, bounds.sample_count)
    for index in range(prefix):
        yield (*_draw(graph, bounds, index), None)
    layout = _BlockLayout.of(graph, bounds) if prefix < bounds.sample_count else None
    if layout is None:
        for index in range(prefix, bounds.sample_count):
            yield (*_draw(graph, bounds, index), None)
        return
    start = prefix
    while start < bounds.sample_count:
        size = min(_block_size(start - prefix, layout.max_random_block),
                   bounds.sample_count - start)
        counts, rejected, mask = layout.random_block(bounds.seed, start, size)
        for index, count, redraw, verdict in zip(itertools.count(start), counts, rejected,
                                                 judge(layout, mask)):
            if redraw:
                yield (*_draw(graph, bounds, index), None)
            else:
                yield (tuple(count), functools.partial(_drawn_cells, graph, bounds, index),
                       verdict)
        start += size


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


def _assignment_cells(number: int, base: int, sizes) -> list:
    """The cells of assignment `number` of a shape with tables of `sizes`
    cells: its digits in base `base`, most significant first, split by table."""
    digits = []
    for _ in range(sum(sizes)):
        number, digit = divmod(number, base)
        digits.append(digit)
    return _split(digits[::-1], sizes)


def _systematic_candidates(graph: DependencyGraph, bounds: SearchBounds, judge):
    """`(counts, cells, verdict)` in canonical order: counts ascending (total,
    then lex); within a shape, payoff tables in lexicographic order over the
    concatenated cells (players in declaration order, local assignments
    row-major, last cell fastest), that is assignment numbers 0 .. V^T - 1
    (V payoff values, T cells) read as base-V digits.

    The numbers are judged in blocks, and `verdict` is the candidate's entry
    of `judge(layout, mask)`.  A block's size (`_block_size`) counts the
    candidates of the whole walk before it, and it is cut at the end of its
    shape and at the candidates the remaining profile budget admits.  A graph
    that `_BlockLayout.of` leaves to per-game judging walks the same numbers
    under the same cuts, every candidate unjudged (verdict None).  The first
    candidate past the budget comes unjudged and ends the walk.
    """
    layout = _BlockLayout.of(graph, bounds)
    base = len(bounds.payoff_values)
    budget = bounds.max_profiles
    walked = 0
    for counts in _count_vectors(len(graph.players), bounds.max_strategies):
        sizes = _table_sizes(graph, counts)
        total, cost = base ** sum(sizes), math.prod(counts)
        start = 0
        while start < total:
            step = total if layout is None else _block_size(walked, layout.max_block)
            size = min(step, total - start, budget // cost)
            if size == 0:
                yield counts, functools.partial(_assignment_cells, start, base, sizes), None
                return
            verdicts = (itertools.repeat(None, size) if layout is None else
                        judge(layout, layout.systematic_block(counts, start, size)))
            for number, verdict in zip(itertools.count(start), verdicts):
                yield (counts, functools.partial(_assignment_cells, number, base, sizes),
                       verdict)
            budget -= size * cost
            start += size
            walked += size


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
    """The rank of each payoff value in `sorted(values)`, which holds
    distinct values (`SearchBounds` refuses repeats)."""
    rank = {v: r for r, v in enumerate(sorted(values))}
    return [rank[v] for v in values]


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

    def judge(layout, mask):
        return layout.formula_holds(mask, formula).tolist()

    source = (_systematic_candidates(graph, bounds, judge) if bounds.mode == "systematic"
              else _random_candidates(graph, bounds, judge, _PER_GAME_PREFIX))
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

    Of `bounds` it reads only `max_strategies`, `payoff_values`, `seed` and
    `sample_count`: games 0 .. sample_count-1 of the random stream are
    tested whatever `bounds.mode` says, and `bounds.max_profiles` is never
    spent (a game past the enumeration cap still raises).
    """
    if not isinstance(hypotheses, Hypotheses):
        hypotheses = Hypotheses.of(hypotheses)
    goals, cover = _fuzz_goals(graph, saturate(graph, hypotheses))

    def judge(layout, mask):
        """False where a hypothesis fails, True where the hypotheses and every
        cover goal hold, None (judge per game) where a cover goal fails.
        Goals are decided only on the candidates where the hypotheses hold."""
        import numpy as np

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
    for index, (counts, cells, verdict) in enumerate(_random_candidates(graph, bounds, judge, 0)):
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
