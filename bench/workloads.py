"""Seeded input generators for the three workloads.

Each generator writes game, graph and derivation files into a work
directory and returns one *round*: the ordered list of CLI queries the
closed loop repeats.  Every query carries its expected exit code and, where
an independent oracle can predict it, its exact stdout (see oracle.py).
The same (workload, seed) always gives byte-identical files and queries.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

import oracle as orc

# Graphs the README names; the generators write them out themselves.
GAMMA = {
    "gamma1": ("a b c d", [(0, 1), (1, 2), (2, 3)]),
    "gamma2": ("a b c d", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "gamma3": ("a b c", [(0, 1), (1, 2)]),
    "gamma4": ("a b c d e", [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
    "gamma5": ("a b c d e f", [(0, 3), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)]),
}

_PREFIXES = "abcdeghjkmnpqrstuvwxyz"


class Round:
    """Files and queries of one workload round, written under `workdir`."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.queries: list[dict] = []
        self.warmup: list[list[str]] = []

    def file(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(self, argv: list[str], exit: int, stdout: str | None = None,
            work: int = 0, **checks) -> None:
        self.queries.append({"argv": argv, "exit": exit, "stdout": stdout, "work": work,
                             **checks})


def _names(rng: random.Random, n: int) -> list[str]:
    prefix = rng.choice(_PREFIXES)
    return [f"{prefix}{i}" for i in range(n)]


def _permuted(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    """The same graph with its declaration order shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    return sorted(tuple(sorted((order[u], order[v]))) for u, v in edges)


def _connected(rng: random.Random, n: int, extra: int, max_degree: int):
    degree = [0] * n
    edges: set[tuple[int, int]] = set()

    def link(u, v):
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1

    for v in range(1, n):
        link(rng.choice([u for u in range(v) if degree[u] < max_degree]), v)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if (min(u, v), max(u, v)) not in edges and max(degree[u], degree[v]) < max_degree:
            link(u, v)
    return sorted(edges)


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle(n):
    return _path(n) + [(0, n - 1)]


def _ladder(n):
    """Two rails with rungs and one diagonal per square (chordal); odd n adds a tail."""
    half = n // 2
    edges = [(i, i + 1) for i in range(half - 1)]
    edges += [(half + i, half + i + 1) for i in range(half - 1)]
    edges += [(i, half + i) for i in range(half)]
    edges += [(i, half + i + 1) for i in range(half - 1)]
    if n % 2:
        edges.append((half - 1, n - 1))
    return edges


FAMILIES = {"path": _path, "cycle": _cycle, "ladder": _ladder}


# --- enum-large ---------------------------------------------------------------

def _mean_mod(names, p: int) -> orc.GameSpec:
    a, b, c = np.indices((p, p, p))
    on_mean = ((2 * b - a - c) % p == 0).astype(np.int64)   # middle of three
    return orc.GameSpec(names, _path(4), [[str(k) for k in range(p)]] * 4,
                        [None, on_mean, on_mean, None])


def _rps(names) -> orc.GameSpec:
    beats = {(0, 2), (2, 1), (1, 0)}       # rock > scissors > paper > rock
    a, b, c, d = np.indices((3, 3, 3, 3))
    differ = a != d
    b_wins = np.vectorize(lambda x, y: (x, y) in beats)(b, c) & differ
    c_wins = np.vectorize(lambda x, y: (y, x) in beats)(b, c) & differ
    return orc.GameSpec(names, GAMMA["gamma2"][1], [["rock", "paper", "scissors"]] * 4,
                        [None, b_wins.astype(np.int64), c_wins.astype(np.int64), None])


def _triangle_game(names, reward) -> orc.GameSpec:
    x = np.indices((2, 2, 2))
    table = reward(x).astype(np.int64)
    return orc.GameSpec(names, [(0, 1), (0, 2), (1, 2)], [["0", "1"]] * 3, [table] * 3)


def _table2(names) -> orc.GameSpec:
    a, b = np.indices((3, 2))
    matched = (b == np.where(a == 1, 1, 0)).astype(np.int64)
    return orc.GameSpec(names, [(0, 1)], [["a1", "a2", "a3"], ["b1", "b2"]],
                        [matched, matched])


# (players, strategy counts in declaration order, games per round, check
# queries per game).  Enumeration mostly stops at the first player that can
# deviate, so its cost per profile follows the first players' strategy
# counts and neighbourhoods: both stay fixed (see _game_graph) and only
# names and payoffs are drawn, many games per stratum rather than one large
# one, which keeps the round's cost steady across seeds.
ENUM_RANDOM_STRATA = [
    (5, (4, 4, 4, 4, 4), 14, 1),
    (6, (4, 3, 3, 3, 3, 3), 14, 1),
    (6, (5, 5, 5, 4, 4, 4), 6, 0),
    (7, (4, 4, 4, 4, 3, 3, 3), 6, 0),
    (8, (5, 5, 5, 4, 4, 4, 3, 2), 1, 0),
]


def _game_graph(n: int):
    """A cycle with two chords across it: every player has 2 or 3 neighbours."""
    return sorted(set(_cycle(n)) | {(0, n // 2), (1, n // 2 + 1)})


def _random_formula(rng: random.Random, n: int):
    def side(k, avoid=()):
        return rng.sample([v for v in range(n) if v not in avoid], k)

    def one():
        lhs = side(rng.randint(1, min(2, n - 1)))
        return orc.atom(lhs, side(rng.randint(1, min(2, n - len(lhs))), lhs))

    return orc.implies(one(), one()) if rng.random() < 0.4 else one()


def _enum_queries(r: Round, tag: str, spec: orc.GameSpec, formulas, **checks):
    path = r.file(f"{tag}.game", orc.game_text(spec))
    rows = orc.equilibria(spec)
    profiles = spec.profile_count()
    r.add(["ne", path], 0, orc.ne_stdout(spec, rows), profiles, **checks)
    listed = rows.tolist()
    for formula in formulas:
        verdict = orc.holds(listed, formula)
        r.add(["check", path, orc.formula_text(formula, spec.players)],
              0 if verdict else 1, "holds\n" if verdict else "fails\n", profiles)


def enum_large(r: Round, seed: int) -> None:
    rng = random.Random(f"enum-large:{seed}")
    for p in (5, 7, 11, 13):
        names = _names(rng, 4)
        checks = [orc.atom([0, 1], [2, 3]), _random_formula(rng, 4)] if p < 11 else []
        _enum_queries(r, f"mean_mod_{p}", _mean_mod(names, p), checks, meanmod=p)
    _enum_queries(r, "rps", _rps(_names(rng, 4)),
                  [orc.atom([0], [3])] + [_random_formula(rng, 4) for _ in range(6)],
                  rps=True)
    for tag, spec in (("parity", _triangle_game(_names(rng, 3), lambda x: x.sum(0) % 2 == 0)),
                      ("consensus", _triangle_game(_names(rng, 3),
                                                   lambda x: (x == x[0]).all(0))),
                      ("table2", _table2(_names(rng, 2)))):
        n = len(spec.players)
        _enum_queries(r, tag, spec, [_random_formula(rng, n) for _ in range(6)])
    for s, (n, counts, copies, checks) in enumerate(ENUM_RANDOM_STRATA):
        for copy in range(copies):
            edges = _game_graph(n)
            names = _names(rng, n)
            tables = []
            for i in range(n):
                shape = [counts[j] for j in orc.local_order(edges, i)]
                tables.append(np.array([rng.randrange(5) for _ in range(int(np.prod(shape)))],
                                       dtype=np.int64).reshape(shape))
            labels = [[f"s{k}" for k in range(c)] for c in counts]
            spec = orc.GameSpec(names, edges, labels, tables)
            _enum_queries(r, f"random_{s}_{copy}", spec,
                          [_random_formula(rng, n) for _ in range(checks)])
    tiny = r.file("warm.game", orc.game_text(_table2(["a", "b"])))
    r.warmup = [["ne", tiny], ["check", tiny, "a |> b"]]


# --- prove-closure ------------------------------------------------------------

NAMED_DERIVATIONS = [
    ("gamma1", ["a |> d"], "b,c |> d"),
    ("gamma1", ["a,c |> d", "d,b |> a"], "b,c |> a,d"),
    ("gamma4", ["a,c |> e"], "b,c,d |> e"),
    ("gamma5", ["a |> b", "b |> c", "c |> a"], "d,e,f |> a,b,c"),
]

# (vertices, family, prove queries per round); half of each stratum's goals
# are derivable, half are not.
PROVE_STRATA = [
    (12, "cycle", 1),
    (11, "cycle", 2), (11, "ladder", 2), (11, "path", 1), (11, "random", 1),
    (10, "cycle", 3), (10, "ladder", 3), (10, "path", 3), (10, "random", 3),
    (9, "ladder", 4), (9, "random", 5), (9, "cycle", 5),
    (8, "random", 6), (8, "path", 6), (7, "ladder", 5), (7, "cycle", 5),
    (6, "random", 10),
]


def _hypotheses(rng: random.Random, n: int, edges, count: int):
    """`count` atoms A |> c; the first keeps A away from c's neighbourhood."""
    hyps = []
    for k in range(count):
        while True:
            c = rng.randrange(n)
            near = orc.neighbours(edges, c) | {c}
            pool = [v for v in range(n) if v not in (near if k == 0 else {c})]
            if pool:
                break
        hyps.append(orc.atom(rng.sample(pool, min(len(pool), rng.randint(1, 2))), [c]))
    return hyps


def _at_distance(edges, source: int, distance: int) -> list[int]:
    ring, seen = {source}, {source}
    for _ in range(distance):
        ring = {v for u in ring for v in orc.neighbours(edges, u)} - seen
        seen |= ring
    return sorted(ring)


def _contiguity_goal(rng: random.Random, n: int, edges, hyps):
    """A goal derivable from a hypothesis A |> C by one Contiguity step.

    U grows from A while avoiding C and its neighbours, so C stays inside W
    and off the border; the goal is border(U), border(W) |> C.
    """
    for _, lhs, rhs in hyps:
        avoid = set(rhs).union(*(orc.neighbours(edges, c) for c in rhs))
        if avoid & set(lhs):
            continue
        region = set(lhs)
        target = rng.randint(len(region), max(len(region), (n - len(avoid)) // 2 + 1))
        while len(region) < target:
            grow = sorted({v for u in region for v in orc.neighbours(edges, u)} - region - avoid)
            if not grow:
                break
            region.add(rng.choice(grow))
        rest = set(range(n)) - region
        goal_lhs = orc.border(edges, region) | orc.border(edges, rest)
        return sorted(goal_lhs), list(rhs)
    raise ValueError("no hypothesis admits a Contiguity step")


def _underivable_goal(rng: random.Random, n: int, hyps):
    reached = set().union(*(set(h[2]) for h in hyps))
    v = rng.choice([u for u in range(n) if u not in reached])
    lhs = rng.sample([u for u in range(n) if u != v], rng.randint(2, min(4, n - 1)))
    return lhs, [v]


def _prove_pair(r: Round, tag: str, players, edges, hyp_texts, goal_text,
                derivable: bool, goal) -> None:
    graph = r.file(f"{tag}.graph", orc.graph_text(players, edges))
    assume = [arg for text in hyp_texts for arg in ("--assume", text)]
    work = 1 << len(players)
    if not derivable:
        r.add(["prove", graph, goal_text, *assume], 1, "not derivable\n", work)
        return
    proof = str(r.dir / f"{tag}.proof")
    r.add(["prove", graph, goal_text, *assume], 0, None, work, writes=proof,
          concludes=[sorted(players[i] for i in goal[0]), sorted(players[i] for i in goal[1])])
    r.add(["prove-check", graph, proof, *assume], 0, "verified\n", 0)


def prove_closure(r: Round, seed: int) -> None:
    rng = random.Random(f"prove-closure:{seed}")
    for k, (name, hyps, goal) in enumerate(NAMED_DERIVATIONS):
        players, edges = GAMMA[name]
        lhs, rhs = (side.split(",") for side in goal.split(" |> "))
        ps = players.split()
        _prove_pair(r, f"named_{k}", ps, edges, hyps, goal, True,
                    ([ps.index(p) for p in lhs], [ps.index(p) for p in rhs]))
    # criterion 7: b |> c does not follow from a |> c on the path a-b-c
    _prove_pair(r, "path_negative", "a b c".split(), GAMMA["gamma3"][1],
                ["a |> c"], "b |> c", False, None)
    for s, (n, family, count) in enumerate(PROVE_STRATA):
        for k in range(count):
            base = _connected(rng, n, n // 2, 4) if family == "random" else FAMILIES[family](n)
            edges = _permuted(rng, n, base)
            players = _names(rng, n)
            if n == 12:         # one fixed-shape hypothesis keeps the largest table steady
                c = rng.randrange(n)
                hyps = [orc.atom([rng.choice(_at_distance(edges, c, 4))], [c])]
            else:
                hyps = _hypotheses(rng, n, edges, rng.randint(1, 3))
            derivable = (k + s) % 2 == 0 or n == 12
            goal = (_contiguity_goal(rng, n, edges, hyps) if derivable
                    else _underivable_goal(rng, n, hyps))
            if not derivable and not orc.surely_underivable(goal[0], goal[1], hyps):
                raise ValueError("generated a goal that may be derivable")
            _prove_pair(r, f"g{s}_{k}", players, edges,
                        [orc.formula_text(h, players) for h in hyps],
                        orc.formula_text(orc.atom(*goal), players), derivable, goal)
    graph = r.file("warm.graph", orc.graph_text("a b c".split(), GAMMA["gamma3"][1]))
    proof = r.file("warm.proof", "1. a |> c [Hypothesis]\n")
    r.warmup = [["prove", graph, "b |> c", "--assume", "a |> c"],
                ["prove", graph, "a,b |> c", "--assume", "a |> c"],
                ["prove-check", graph, proof, "--assume", "a |> c"]]


# --- refute-small -------------------------------------------------------------

VALID_SAMPLES = 150
FAIL_SAMPLES = 150
FUZZ_SAMPLES = 150
VALID_FIXED = [
    ("gamma1", "(a |> d) -> b,c |> d"),
    ("gamma4", "(a,c |> e) -> b,c,d |> e"),
    ("gamma5", "(a |> b) -> (b |> c) -> (c |> a) -> d,e,f |> a,b,c"),
]
SYSTEMATIC = [("gamma3", "(a |> c) -> a,b |> c"), ("gamma1", VALID_FIXED[0][1]),
              ("pair", "(a |> b) -> a |> a,b")]
SYSTEMATIC_BUDGETS = (1500, 3000)
# queries per round: valid refutes beyond the fixed three, refute+check
# pairs on failing formulas, fuzz-soundness runs
VALID_RANDOM, FAILING, FUZZ = 21, 31, 8


def _gamma(name):
    if name == "pair":
        return ["a", "b"], [(0, 1)]
    players, edges = GAMMA[name]
    return players.split(), edges


def _first_failure(players, edges, formula, seed: int):
    for index in range(FAIL_SAMPLES):
        spec = orc.random_spec(players, edges, seed, index, 3, [0, 1])
        if not orc.holds(orc.equilibria(spec).tolist(), formula):
            return index, spec
    return None


def refute_small(r: Round, seed: int) -> None:
    rng = random.Random(f"refute-small:{seed}")
    search_seed = lambda: str(rng.randrange(1 << 32))
    valid = [(name, *_gamma(name), text) for name, text in VALID_FIXED]
    for k in range(VALID_RANDOM):       # sizes and kinds in fixed proportions
        n = 4 + k % 3
        players, edges = _names(rng, n), _connected(rng, n, 1, 3)
        if k % 2:
            a, b, c = rng.sample(range(n), 3)
            formula = orc.implies(orc.atom([a], [b]), orc.atom([b], [c]), orc.atom([a], [c]))
        else:
            hyps = _hypotheses(rng, n, edges, 1)
            formula = orc.implies(hyps[0], orc.atom(*_contiguity_goal(rng, n, edges, hyps)))
        valid.append((f"valid_{k}", players, edges, orc.formula_text(formula, players)))
    for tag, players, edges, text in valid:
        graph = r.file(f"{tag}.graph", orc.graph_text(players, edges))
        r.add(["refute", graph, text, "--samples", str(VALID_SAMPLES), "--seed", search_seed()],
              1, f"no counterexample within bounds ({VALID_SAMPLES} games examined)\n",
              VALID_SAMPLES)
    for k in range(FAILING):
        found = None
        n = 4 + k % 2
        while found is None:        # redraw until the stream refutes the formula
            players, edges = _names(rng, n), _connected(rng, n, 1, 3)
            v = rng.randrange(n)
            formula = orc.atom(rng.sample([u for u in range(n) if u != v], 2), [v])
            seed_arg = search_seed()
            found = _first_failure(players, edges, formula, int(seed_arg))
        index, spec = found
        text = orc.formula_text(formula, players)
        graph = r.file(f"fail_{k}.graph", orc.graph_text(players, edges))
        game = str(r.dir / f"fail_{k}.game")
        r.add(["refute", graph, text, "--samples", str(FAIL_SAMPLES), "--seed", seed_arg],
              0, orc.game_text(spec), index + 1, writes=game)
        r.add(["check", game, text], 1, "fails\n", 1)
    for budget in SYSTEMATIC_BUDGETS:
        for name, text in SYSTEMATIC:
            players, edges = _gamma(name)
            graph = r.file(f"sys_{name}.graph", orc.graph_text(players, edges))
            examined = orc.systematic_examined(len(players), edges, 2, 2, budget)
            r.add(["refute", graph, text, "--mode", "systematic", "--max-strategies", "2",
                   "--max-profiles", str(budget)],
                  1, f"no counterexample within bounds ({examined} games examined)\n",
                  examined)
    for k in range(FUZZ):
        players, edges = _gamma(("gamma4", "gamma5")[k % 2])
        hyps = _hypotheses(rng, len(players), edges, 1 + k // 2 % 2)
        graph = r.file(f"fuzz_{k}.graph", orc.graph_text(players, edges))
        seed_arg = search_seed()
        satisfied = sum(
            all(orc.holds(rows, h) for h in hyps)
            for rows in (orc.equilibria(orc.random_spec(players, edges, int(seed_arg),
                                                        i, 3, [0, 1])).tolist()
                         for i in range(FUZZ_SAMPLES)))
        assume = [arg for h in hyps for arg in ("--assume", orc.formula_text(h, players))]
        r.add(["fuzz-soundness", graph, *assume, "--samples", str(FUZZ_SAMPLES),
               "--seed", seed_arg], 0,
              f"games tested: {FUZZ_SAMPLES}\nhypotheses satisfied: {satisfied}\n"
              f"violations: 0\n", FUZZ_SAMPLES)
    g1 = r.file("warm.graph", orc.graph_text(*_gamma("gamma1")))
    tiny = r.file("warm.game", orc.game_text(_table2(["a", "b"])))
    r.warmup = [["refute", g1, VALID_FIXED[0][1], "--samples", "2"],
                ["refute", g1, VALID_FIXED[0][1], "--mode", "systematic",
                 "--max-strategies", "1"],
                ["fuzz-soundness", g1, "--assume", "a |> d", "--samples", "2"],
                ["check", tiny, "a |> b"]]


WORKLOADS = {"enum-large": enum_large, "prove-closure": prove_closure,
             "refute-small": refute_small}
# the kernel whose speed each workload's timings are scaled by (worker.py):
# enumeration and search run pure-Python loops, saturation runs numpy sweeps
REFERENCE = {"enum-large": "python", "prove-closure": "numpy", "refute-small": "python"}
