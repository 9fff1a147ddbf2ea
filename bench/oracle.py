"""Reference answers computed without importing gamedep.

Everything here is written from the documented behaviour (README: file
grammar, splitmix64 stream spec, systematic order) so that the benchmark can
check the program's answers on any seed:

* `GameSpec` is a game as integer payoff arrays; `game_text` writes it in the
  canonical form `gamedep` prints, so it serves both as input file writer and
  as expected output for a printed counterexample.
* `equilibria` finds all pure Nash equilibria by broadcasting each player's
  best-response table over the whole profile space (numpy), an algorithm
  unrelated to the program's per-profile deviation loop.
* `holds` evaluates formulas by grouping the equilibrium rows.
* `random_spec` reproduces game `index` of a seeded random stream and
  `systematic_examined` counts the games a budgeted systematic search visits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


@dataclass
class GameSpec:
    players: list[str]
    edges: list[tuple[int, int]]          # index pairs, i < j
    labels: list[list[str]]
    tables: list[np.ndarray | None]       # payoff over local(i), None = all 0

    def local(self, i: int) -> list[int]:
        return local_order(self.edges, i)

    def profile_count(self) -> int:
        return math.prod(len(ls) for ls in self.labels)


def neighbours(edges, i: int) -> set[int]:
    return {v if u == i else u for u, v in edges if i in (u, v)}


def local_order(edges, i: int) -> list[int]:
    return sorted(neighbours(edges, i) | {i})


def graph_text(players, edges) -> str:
    lines = ["players " + " ".join(players)]
    lines += [f"edge {players[u]} {players[v]}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def game_text(spec: GameSpec) -> str:
    lines = [graph_text(spec.players, spec.edges).rstrip("\n")]
    for p, labels in zip(spec.players, spec.labels):
        lines.append(f"strategies {p} " + " ".join(labels))
    for i, table in enumerate(spec.tables):
        if table is None:
            continue
        local = spec.local(i)
        for key in np.ndindex(table.shape):
            cells = " ".join(f"{spec.players[w]}={spec.labels[w][k]}"
                             for w, k in zip(local, key))
            lines.append(f"payoff {spec.players[i]} {cells} {int(table[key])}")
    return "\n".join(lines) + "\n"


def equilibria(spec: GameSpec) -> np.ndarray:
    """Equilibrium profiles as rows of strategy indices, lexicographic order."""
    counts = [len(ls) for ls in spec.labels]
    ok = np.ones(counts, dtype=bool)
    for i, table in enumerate(spec.tables):
        local = spec.local(i)
        if table is None:
            continue            # constant payoff: every strategy is a best response
        own = local.index(i)
        best = table == table.max(axis=own, keepdims=True)
        ok &= best.reshape([counts[j] if j in local else 1 for j in range(len(counts))])
    return np.argwhere(ok)


def ne_stdout(spec: GameSpec, rows: np.ndarray) -> str:
    lines = [" ".join(f"{p}={spec.labels[i][k]}" for i, (p, k) in enumerate(zip(spec.players, row)))
             for row in rows.tolist()]
    lines.append(f"total: {len(rows)}")
    return "\n".join(lines) + "\n"


# Formulas: ("false",) | ("atom", lhs, rhs) | ("imp", antecedent, consequent),
# with lhs/rhs as tuples of player indices.

def atom(lhs, rhs):
    return ("atom", tuple(sorted(lhs)), tuple(sorted(rhs)))


def implies(*parts):
    formula = parts[-1]
    for part in reversed(parts[:-1]):
        formula = ("imp", part, formula)
    return formula


def formula_text(formula, players) -> str:
    kind = formula[0]
    if kind == "false":
        return "false"
    if kind == "atom":
        side = lambda s: ",".join(players[i] for i in s) or "{}"
        return f"{side(formula[1])} |> {side(formula[2])}"
    return f"({formula_text(formula[1], players)}) -> {formula_text(formula[2], players)}"


def depends(rows: list, lhs, rhs) -> bool:
    groups: dict = {}
    for row in rows:
        key = tuple(row[i] for i in lhs)
        value = tuple(row[i] for i in rhs)
        if groups.setdefault(key, value) != value:
            return False
    return True


def holds(rows: list, formula) -> bool:
    kind = formula[0]
    if kind == "false":
        return False
    if kind == "atom":
        return depends(rows, formula[1], formula[2])
    return not holds(rows, formula[1]) or holds(rows, formula[2])


# --- the documented random and systematic streams --------------------------

class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next()
            if value < limit:
                return value % bound


def random_spec(players, edges, seed: int, index: int,
                max_strategies: int, values: list[int]) -> GameSpec:
    rng = SplitMix64((seed ^ ((index + 1) * GOLDEN)) & MASK64)
    n = len(players)
    counts = [1 + rng.below(max_strategies) for _ in range(n)]
    tables = []
    for i in range(n):
        shape = [counts[j] for j in local_order(edges, i)]
        cells = [values[rng.below(len(values))] for _ in range(math.prod(shape))]
        tables.append(np.array(cells, dtype=np.int64).reshape(shape))
    labels = [[str(k) for k in range(c)] for c in counts]
    return GameSpec(list(players), list(edges), labels, tables)


def systematic_examined(n: int, edges, max_strategies: int, value_count: int,
                        budget: int) -> int:
    """Games a systematic search visits on a valid formula under `budget`."""
    vectors = sorted(itertools.product(range(1, max_strategies + 1), repeat=n),
                     key=lambda c: (sum(c), c))
    examined = 0
    for counts in vectors:
        cells = sum(math.prod(counts[j] for j in local_order(edges, i))
                    for i in range(n))
        games = value_count ** cells
        cost = math.prod(counts)
        if games * cost > budget:
            return examined + budget // cost
        examined += games
        budget -= games * cost
    return examined


# --- derivability facts that need no prover ---------------------------------

def border(edges, region: set[int]) -> set[int]:
    return {v for v in region if neighbours(edges, v) - region}


def surely_underivable(lhs, rhs, hypotheses) -> bool:
    """True when some goal player lies outside lhs and every hypothesis rhs.

    No rule puts a player on a right side unless it is already on the left
    side or on the right side of a hypothesis (Contiguity keeps its right
    side, Transitivity takes its right side from a premise), so such a goal
    is not derivable.
    """
    reachable = set(lhs).union(*(set(h[2]) for h in hypotheses))
    return not set(rhs) <= reachable
