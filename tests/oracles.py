"""Independent reference implementations used to cross-check the library.

These are deliberately naive: the equilibrium oracle tries every unilateral
deviation from every profile, the dependence oracle compares every pair of
equilibria against the definition, the derivability oracle saturates the
full atom space by literal rule applications, the sweep oracle runs the
closure table's snapshot sweeps as per-row and per-source broadcasts, and
the semantic closure tries every set of players that a two-equilibrium game
could leave undetermined.  They share no code with the implementations
under test.

The search oracles are the per-game loops: every candidate of the documented
random stream (one splitmix64 draw at a time) or of the canonical
systematic order is built as a `Game` and judged with the public `holds` and
`determined_players`.  They share the public semantics with the search, not
its generation, budgeting or lazy evaluation.

The parser oracles are the two-pass graph and game parsers: a list of
logical lines, a graph pass that sets the strategies and payoff lines
aside, a pass over those, and every check of every payoff line on every
line.  They keep their own copy of that front end and of the assignment
syntax; they share only `parse_rational` and the error types with
`parser`, not its one-pass reader or its assignment lookup.
"""

import re
from collections import defaultdict, deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from gamedep.core import (
    Atom,
    DependencyGraph,
    Game,
    InputError,
    check_formula_scope,
    check_label,
    check_player_name,
)
from gamedep.parser import LocalityError, ParseError, parse_rational
from gamedep.prover import Hypotheses, saturate
from gamedep.search import FuzzReport, FuzzViolation, NoneWithinBounds
from gamedep.semantics import determined_players, holds


def equilibria_by_deviation(game) -> tuple:
    """Profiles, lexicographic in declaration order, where no player gains by deviating.

    Reads `game.strategies` and `game.payoffs` directly; a missing cell or
    table is payoff 0 and a deviation must be strictly better to count.
    """
    graph = game.graph
    players = graph.players
    local = {p: [players.index(w) for w in graph.local_order(p)] for p in players}

    def payoff(p, profile):
        key = tuple(profile[i] for i in local[p])
        return game.payoffs.get(p, {}).get(key, Fraction(0))

    found = []
    for profile in product(*(game.strategies[p] for p in players)):
        stable = True
        for i, p in enumerate(players):
            current = payoff(p, profile)
            for label in game.strategies[p]:
                deviation = profile[:i] + (label,) + profile[i + 1:]
                if payoff(p, deviation) > current:
                    stable = False
        if stable:
            found.append(profile)
    return tuple(found)


def depends_pairwise(game, lhs, rhs) -> bool:
    """Definition, verbatim: equilibria agreeing on lhs agree on rhs."""
    lhs_idx = [game.graph.index(p) for p in lhs]
    rhs_idx = [game.graph.index(p) for p in rhs]
    profiles = equilibria_by_deviation(game)
    for s, t in combinations(profiles, 2):
        if all(s[i] == t[i] for i in lhs_idx):
            if not all(s[i] == t[i] for i in rhs_idx):
                return False
    return True


def _subsets_of(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def derivable_atoms(graph: DependencyGraph,
                    hypotheses: Hypotheses) -> set[tuple[int, int]]:
    """Worklist closure of the whole atom space under the four rules.

    Atoms are (lhs_mask, rhs_mask) pairs over the graph's player order.
    Augmentation ranges over every C, Transitivity requires an exact middle
    set, and Contiguity ranges over every cut and every decomposition of the
    premise left side.
    """
    n = len(graph.players)
    size = 1 << n
    full = size - 1

    border = {}
    for u in range(size):
        members = frozenset(p for i, p in enumerate(graph.players) if u >> i & 1)
        border[u] = graph.mask_of(graph.border(members))
    cut_lhs_base = [border[u] | border[full ^ u] for u in range(size)]

    derived: set[tuple[int, int]] = set()
    by_lhs: dict[int, set[int]] = defaultdict(set)
    by_rhs: dict[int, set[int]] = defaultdict(set)
    queue: deque[tuple[int, int]] = deque()

    def add(lhs: int, rhs: int) -> None:
        atom = (lhs, rhs)
        if atom not in derived:
            derived.add(atom)
            by_lhs[lhs].add(rhs)
            by_rhs[rhs].add(lhs)
            queue.append(atom)

    for lhs in range(size):
        for rhs in _subsets_of(lhs):  # Reflexivity
            add(lhs, rhs)
    for atom in hypotheses:
        add(graph.mask_of(atom.lhs), graph.mask_of(atom.rhs))

    while queue:
        lhs, rhs = queue.popleft()
        for c in range(size):  # Augmentation
            add(lhs | c, rhs | c)
        for tail in list(by_lhs[rhs]):  # Transitivity, as first premise
            add(lhs, tail)
        for head in list(by_rhs[lhs]):  # Transitivity, as second premise
            add(head, rhs)
        for u in range(size):  # Contiguity, every cut and decomposition
            if rhs & u:  # rhs must lie inside the right side
                continue
            base = cut_lhs_base[u]
            for a in _subsets_of(lhs & u):
                add(base | (lhs & ~a), rhs)
    return derived


def saturate_by_sweeps(graph: DependencyGraph, hypotheses: Hypotheses):
    """`(cl, wave, kinds)` of the closure table, sweep by sweep.

    The same seeding and the same snapshot sweeps as `prover.saturate`, but
    the chain sweep absorbs cl[y] into every row whose closure contains y,
    one row y at a time, and the Contiguity sweep broadcasts every source
    against every cut.  Borders come from `graph.border`, one subset at a time.
    """
    n = len(graph.players)
    size = 1 << n
    full = size - 1
    identity = np.arange(size, dtype=np.int64)

    border = [graph.mask_of(graph.border(graph.players_of_mask(u))) for u in range(size)]
    cuts = []
    for v in range(n):
        us = [u for u in range(size) if not u >> v & 1]
        cuts.append((np.array(us, dtype=np.int64),
                     np.array([border[u] | border[full ^ u] for u in us], dtype=np.int64)))

    cl = identity.copy()
    wave = np.full((size, n), -1, dtype=np.int16)
    for v in range(n):
        wave[(identity >> v & 1) == 1, v] = 0
    for atom in hypotheses:
        lhs = graph.mask_of(atom.lhs)
        rhs = graph.mask_of(atom.rhs)
        fresh = rhs & ~int(cl[lhs])
        cl[lhs] |= rhs
        for v in range(n):
            if fresh >> v & 1:
                wave[lhs, v] = 0
    kinds = ["seed"]

    def record(new, kind):
        nonlocal cl
        additions = new & ~cl
        if not additions.any():
            return False
        sweep = len(kinds)
        for v in range(n):
            rows = np.nonzero(additions & (1 << v))[0]
            if rows.size:
                wave[rows, v] = sweep
        kinds.append(kind)
        cl = new
        return True

    while True:
        progressed = False
        while True:
            new = cl.copy()
            for y in np.nonzero(cl != identity)[0]:
                contribution = cl[y]
                new[(cl & y) == y] |= contribution
            if not record(new, "chain"):
                break
            progressed = True
        new = cl.copy()
        for v in range(n):
            bit = np.int64(1 << v)
            sources = np.nonzero(cl & bit)[0]
            if not sources.size:
                continue
            us, base = cuts[v]
            targets = base[:, None] | (sources[None, :] & ~us[:, None])
            flags = np.zeros(size, dtype=bool)
            flags[targets.ravel()] = True
            new[flags] |= bit
        if record(new, "contiguity"):
            progressed = True
        if not progressed:
            break
    return cl, wave, tuple(kinds)


def semantic_closure(graph: DependencyGraph, hypotheses: Hypotheses, x) -> frozenset:
    """The players derivable from the players `x`, read off completeness.

    V minus the union of every nonempty C that avoids x, is connected in G²
    (players joined at distance 1 or 2 in the graph) and has a complement
    closed under the hypotheses: such a C carries a game whose only two
    equilibria differ exactly on C.  Every C is enumerated and checked on
    its own, with player sets rather than masks.
    """
    x = frozenset(x)
    everyone = graph.player_set()
    near = {}
    for p in graph.players:
        reach = set(graph.neighbors(p))
        for q in graph.neighbors(p):
            reach |= graph.neighbors(q)
        near[p] = reach - {p}
    free = [p for p in graph.players if p not in x]
    undetermined: set[str] = set()
    for size in range(1, len(free) + 1):
        for members in combinations(free, size):
            c = frozenset(members)
            outside = everyone - c
            if any(atom.lhs <= outside and not atom.rhs <= outside for atom in hypotheses):
                continue
            seen = {members[0]}
            stack = [members[0]]
            while stack:
                for q in near[stack.pop()] & (c - seen):
                    seen.add(q)
                    stack.append(q)
            if seen == c:
                undetermined |= c
    return everyone - undetermined


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int):
    """The raw 64-bit outputs of splitmix64 seeded with `seed`."""
    state = seed
    while True:
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _below(stream, bound: int) -> int:
    limit = (1 << 64) - (1 << 64) % bound
    while True:
        value = next(stream)
        if value < limit:
            return value % bound


def game_by_draws(graph, bounds, index) -> Game:
    """Game `index` of the documented random stream, one draw at a time."""
    stream = _splitmix64((bounds.seed ^ ((index + 1) * _GOLDEN)) & _MASK64)
    counts = [1 + _below(stream, bounds.max_strategies) for _ in graph.players]
    strategies = {p: tuple(str(i) for i in range(k)) for p, k in zip(graph.players, counts)}
    values = bounds.payoff_values
    payoffs = {p: {key: values[_below(stream, len(values))]
                   for key in product(*(strategies[q] for q in graph.local_order(p)))}
               for p in graph.players}
    return Game.of(graph, strategies, payoffs)


def games_in_canonical_order(graph, bounds):
    """Systematic mode's order: count vectors by (total, lexicographic), then
    payoff assignments lexicographic over the concatenated cells."""
    players = graph.players
    for counts in sorted(product(range(1, bounds.max_strategies + 1), repeat=len(players)),
                         key=lambda c: (sum(c), c)):
        strategies = {p: tuple(str(i) for i in range(k)) for p, k in zip(players, counts)}
        cells = [(p, key) for p in players
                 for key in product(*(strategies[q] for q in graph.local_order(p)))]
        for assignment in product(bounds.payoff_values, repeat=len(cells)):
            payoffs = {p: {} for p in players}
            for (p, key), value in zip(cells, assignment):
                payoffs[p][key] = value
            yield Game.of(graph, strategies, payoffs)


def counterexample_by_games(graph, formula, bounds):
    """The refutation loop over built games: the first game where `holds`
    fails, or `NoneWithinBounds` with the games examined and whether the
    cumulative profile budget ran out."""
    check_formula_scope(graph, formula)
    if bounds.mode == "systematic":
        source = games_in_canonical_order(graph, bounds)
    else:
        source = (game_by_draws(graph, bounds, i) for i in range(bounds.sample_count))
    budget = bounds.max_profiles
    examined = 0
    for game in source:
        if game.profile_count() > budget:
            return NoneWithinBounds(examined, cap_exceeded=True)
        budget -= game.profile_count()
        examined += 1
        if not holds(game, formula):
            return game
    return NoneWithinBounds(examined)


def fuzz_by_games(graph, hypotheses, bounds, closure=saturate) -> FuzzReport:
    """Soundness fuzzing over built games, goals from `closure(graph, hypotheses)`."""
    hypotheses = Hypotheses.of(hypotheses)
    table = closure(graph, hypotheses)
    goals = [(graph.players_of_mask(x), graph.players_of_mask(table.closure_mask(x)))
             for x in range(1 << len(graph.players)) if table.closure_mask(x) != x]
    satisfied = 0
    violations = []
    for index in range(bounds.sample_count):
        game = game_by_draws(graph, bounds, index)
        if not all(holds(game, atom) for atom in hypotheses):
            continue
        satisfied += 1
        for lhs, closed in goals:
            determined = determined_players(game, lhs)
            if not closed <= determined:
                violations.append(FuzzViolation(index, Atom(lhs, closed - determined), game))
    return FuzzReport(graph, bounds.sample_count, satisfied, tuple(violations))


def _logical_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for number, raw in enumerate(text.split("\n"), 1):
        content = raw.split("#", 1)[0].strip()
        if content:
            lines.append((number, content))
    return lines


def _checked(line: int, check, value: str) -> str:
    try:
        return check(value)
    except InputError as exc:
        raise ParseError(line, str(exc)) from None


def _parse_graph_lines(lines, extra_directives=()):
    """The graph pass: (players, [(line, edge)]) plus the lines of the
    `extra_directives`, set aside as (line, tokens) when any are given."""
    if not lines:
        raise ParseError(1, "empty document: expected a players line")
    number, content = lines[0]
    tokens = content.split()
    if tokens[0] != "players":
        raise ParseError(number, f"expected a players line first, got {tokens[0]!r}")
    if len(tokens) < 2:
        raise ParseError(number, "players line declares no players")
    players: dict[str, None] = {}
    for name in tokens[1:]:
        _checked(number, check_player_name, name)
        if name in players:
            raise ParseError(number, f"duplicate player {name!r}")
        players[name] = None
    edges: list[tuple[int, tuple[str, str]]] = []
    rest: list[tuple[int, list[str]]] = []
    seen_pairs = set()
    for number, content in lines[1:]:
        tokens = content.split()
        directive = tokens[0]
        if directive == "players":
            raise ParseError(number, "duplicate players line")
        if directive == "edge":
            if len(tokens) != 3:
                raise ParseError(number, "edge line expects exactly two players")
            u, v = tokens[1], tokens[2]
            for name in (u, v):
                if name not in players:
                    raise ParseError(number, f"edge endpoint {name!r} is not a declared player")
            if u == v:
                raise ParseError(number, f"loop edge {u} {v} is not allowed")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise ParseError(number, f"duplicate edge {u} {v}")
            seen_pairs.add(pair)
            edges.append((number, (u, v)))
        elif directive in extra_directives:
            rest.append((number, tokens))
        else:
            raise ParseError(number, f"unknown directive {directive!r}")
    if extra_directives:
        return list(players), edges, rest
    return list(players), edges


_ASSIGNMENT_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)=([A-Za-z0-9_]+)\Z")


def parse_graph_by_lines(text: str) -> DependencyGraph:
    """`parser.parse_graph` as two passes: logical lines, then the graph pass."""
    players, edges = _parse_graph_lines(_logical_lines(text))
    return DependencyGraph.of(players, [e for _, e in edges])


def parse_game_by_lines(text: str) -> Game:
    """`parser.parse_game` checking every payoff line in full: a regex match
    per assignment, a set comparison with the closed neighbourhood, a label
    check per assignment and a `Fraction` per value."""
    lines = _logical_lines(text)
    players, edges, rest = _parse_graph_lines(lines, extra_directives=("strategies", "payoff"))
    graph = DependencyGraph.of(players, [e for _, e in edges])

    strategies: dict[str, tuple[str, ...]] = {}
    payoff_lines = []
    for number, tokens in rest:
        if tokens[0] == "strategies":
            if len(tokens) < 3:
                raise ParseError(number, "strategies line expects a player and at least one label")
            player = tokens[1]
            if player not in graph:
                raise ParseError(number, f"strategies for undeclared player {player!r}")
            if player in strategies:
                raise ParseError(number, f"duplicate strategies line for player {player!r}")
            labels = []
            for label in tokens[2:]:
                _checked(number, check_label, label)
                if label in labels:
                    raise ParseError(number, f"duplicate strategy label {label!r}")
                labels.append(label)
            strategies[player] = tuple(labels)
        else:
            payoff_lines.append((number, tokens))

    players_line = lines[0][0]
    for player in graph.players:
        if player not in strategies:
            raise ParseError(players_line, f"player {player!r} has no strategies line")

    payoffs: dict[str, dict[tuple[str, ...], Fraction]] = {}
    for number, tokens in payoff_lines:
        if len(tokens) < 3:
            raise ParseError(number, "payoff line expects a player, assignments, and a value")
        player = tokens[1]
        if player not in graph:
            raise ParseError(number, f"payoff for undeclared player {player!r}")
        assignment: dict[str, str] = {}
        for token in tokens[2:-1]:
            match = _ASSIGNMENT_RE.match(token)
            if not match:
                raise ParseError(number, f"malformed assignment {token!r}, expected player=label")
            name, label = match.group(1), match.group(2)
            if name in assignment:
                raise ParseError(number, f"player {name!r} assigned twice")
            assignment[name] = label
        local = graph.local_order(player)
        if set(assignment) != set(local):
            raise LocalityError(
                number,
                f"payoff for {player} must assign exactly its closed neighbourhood "
                f"{{{','.join(local)}}}, got {{{','.join(sorted(assignment))}}}")
        for name, label in assignment.items():
            if label not in strategies[name]:
                raise ParseError(number, f"unknown strategy {label!r} for player {name!r}")
        key = tuple(assignment[name] for name in local)
        table = payoffs.setdefault(player, {})
        if key in table:
            raise ParseError(number, f"duplicate payoff entry for {player}")
        table[key] = parse_rational(tokens[-1], number)

    return Game(graph, strategies, payoffs)
