"""Traced run: spans around gamedep's public calls, recorded from outside.

For every query the tracer

1. opens a ``query`` span and, inside it, a ``cli.main`` span around the
   real CLI call (its output is what gets checked);
2. replays the subcommand through the same public library calls the CLI
   makes, one span each;
3. where a layer is reached only inside another public call
   (``find_counterexample``, ``fuzz_soundness``, ``derive_tree``), times
   that call as a *probe* span and then replays its inner work through
   public calls: ``random_game`` / ``Game.of``, ``equilibria``, ``holds``,
   ``determined_players``, ``saturate``.

Span roles: ``work`` spans re-do, once, the work the CLI did, and their self
times form the layer busy times; ``probe`` spans are extra measurements
(the umbrella calls above, a ``Game.of`` rebuild of each parsed game, the
stand-alone ``saturate`` before ``derive_tree``) and are kept out of busy
time so that nothing is counted twice.  Spans stay in memory and are
written out once, by `dump`.
"""

from __future__ import annotations

import itertools
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from gamedep import (Game, Hypotheses, SearchBounds,
                     check_derivation, derive_tree, determined_players,
                     enumerate_equilibria, equilibria, find_counterexample,
                     fuzz_soundness, holds, parse_atom, parse_derivation,
                     parse_formula, parse_game, parse_graph, parse_rational,
                     print_derivation, print_game, random_game, saturate)
from gamedep.core import Atom, Implication
from gamedep.cli import build_parser

LAYERS = ("parser", "core", "equilibrium", "semantics", "prover", "search")
SUBCOMMANDS = ("ne", "check", "prove", "prove-check", "refute", "fuzz-soundness")
FIELDS = ("name", "layer", "role", "query", "parent", "start_s", "end_s")


class Tracer:
    def __init__(self, cli_main, call_cli):
        self.cli_main = cli_main
        self.call_cli = call_cli
        self.parser = build_parser()
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.open: list[int] = []
        self.qid = -1
        self.counts: Counter = Counter()
        self.best_tree: dict[int, list[float]] = {}   # query -> [saturate, derive_tree]
        self.peak_mb = 0.0
        self.peaked: set[int] = set()

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, layer: str, role: str = "work") -> list:
        record = [name, layer, role, self.qid, self.open[-1] if self.open else None,
                  time.perf_counter() - self.origin, None]
        self.open.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list) -> float:
        record[6] = time.perf_counter() - self.origin
        self.open.pop()
        return record[6] - record[5]

    def timed(self, name: str, layer: str, call, *args, role: str = "work"):
        record = self.begin(name, layer, role)
        try:
            return call(*args)
        finally:
            self.end(record)

    # -- per query ----------------------------------------------------------

    def query(self, index: int, query: dict):
        self.qid += 1
        argv = query["argv"]
        root = self.begin("query", "bench", "frame")
        try:
            cli = self.begin("cli.main", "cli", "cli")
            result = self.call_cli(self.cli_main, argv)
            self.end(cli)
            args = self.parser.parse_args(argv)
            getattr(self, "_" + args.command.replace("-", "_"))(args, index)
            self.counts["cli.queries." + args.command] += 1
        finally:
            self.end(root)
        return result

    def _read(self, path: str) -> str:
        return Path(path).read_text(encoding="utf-8")

    def _game(self, path: str):
        text = self._read(path)
        game = self.timed("parser.parse_game", "parser", parse_game, text)
        self.counts["parse_game_bytes"] += len(text.encode("utf-8"))
        self.timed("core.Game.of", "core", Game.of, game.graph, game.strategies,
                   game.payoffs, role="probe")
        return game

    def _equilibria(self, game, name="equilibrium.equilibria", call=equilibria):
        found = self.timed(name, "equilibrium", call, game)
        self.counts["equilibrium.calls"] += 1
        self.counts["equilibrium.profiles"] += game.profile_count()
        self.counts["equilibrium.equilibria_found"] += len(found)
        return found

    def _holds(self, game, formula, found) -> bool:
        verdict = self.timed("semantics.holds", "semantics", holds, game, formula)
        self.counts["semantics.calls"] += 1
        self.counts["semantics.equilibria_scanned"] += len(found) * _atoms_grouped(game, formula)
        return verdict

    def _graph_and_atoms(self, args, texts):
        graph = self.timed("parser.parse_graph", "parser", parse_graph,
                           self._read(args.graph_file))
        atoms = [self.timed("parser.parse_atom", "parser", parse_atom, t, graph)
                 for t in texts]
        return graph, atoms

    def _saturate(self, graph, hypotheses, index: int, role: str):
        table = self.timed("prover.saturate", "prover", saturate, graph, hypotheses,
                           role=role)
        self.counts["prover.saturate_calls"] += 1
        self.counts["prover.closure_facts"] += sum(
            table.closure_mask(x) != x for x in range(1 << len(graph.players)))
        if index not in self.peaked:          # once per query: tracemalloc is slow
            self.peaked.add(index)
            tracemalloc.start()
            try:
                saturate(graph, hypotheses)
                self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        return table

    # -- replays, one per subcommand ---------------------------------------------

    def _ne(self, args, index):
        game = self._game(args.game_file)
        self._equilibria(game, "equilibrium.enumerate_equilibria", enumerate_equilibria)

    def _check(self, args, index):
        game = self._game(args.game_file)
        formula = self.timed("parser.parse_formula", "parser", parse_formula,
                             args.formula, game.graph)
        found = self._equilibria(game)
        self._holds(game, formula, found)

    def _prove(self, args, index):
        graph, atoms = self._graph_and_atoms(args, [*args.assume, args.goal])
        hypotheses, goal = Hypotheses.of(atoms[:-1]), atoms[-1]
        before = len(self.spans)
        self._saturate(graph, hypotheses, index, "probe")
        saturate_s = self.spans[before][6] - self.spans[before][5]
        record = self.begin("prover.derive_tree", "prover")
        tree = derive_tree(graph, hypotheses, goal.lhs, goal.rhs)
        derive_s = self.end(record)
        best = self.best_tree.setdefault(index, [saturate_s, derive_s])
        best[:] = min(best[0], saturate_s), min(best[1], derive_s)
        if tree is not None:
            self.timed("prover.print_derivation", "prover", print_derivation, tree, graph)
            self.counts["prover.derivation_steps"] += len(tree)

    def _prove_check(self, args, index):
        graph, atoms = self._graph_and_atoms(args, args.assume)
        derivation = self.timed("parser.parse_derivation", "parser", parse_derivation,
                                self._read(args.derivation_file), graph)
        self.timed("prover.check_derivation", "prover", check_derivation, graph,
                   Hypotheses.of(atoms), derivation)

    def _refute(self, args, index):
        graph, _ = self._graph_and_atoms(args, [])
        formula = self.timed("parser.parse_formula", "parser", parse_formula,
                             args.formula, graph)
        values = [parse_rational(v.strip()) for v in args.values.split(",")]
        bounds = SearchBounds(max_strategies=args.max_strategies, payoff_values=values,
                              max_profiles=args.max_profiles, seed=args.seed,
                              mode=args.mode, sample_count=args.samples)
        self.timed("search.find_counterexample", "search", find_counterexample,
                   graph, formula, bounds, role="probe")
        if bounds.mode == "random":
            games = (self._random_game(graph, bounds, i) for i in range(bounds.sample_count))
        else:
            games = self._systematic_games(graph, bounds)
        budget = bounds.max_profiles
        for game in games:
            if game.profile_count() > budget:
                break
            budget -= game.profile_count()
            self.counts["search.games_examined"] += 1
            if not self._holds(game, formula, self._equilibria(game)):
                self.timed("parser.print_game", "parser", print_game, game)
                break

    def _random_game(self, graph, bounds, index):
        self.counts["search.games_generated"] += 1
        return self.timed("search.random_game", "search", random_game, graph, bounds, index)

    def _systematic_games(self, graph, bounds):
        """The documented canonical order, built through Game.of."""
        players = graph.players
        n, cap = len(players), bounds.max_strategies
        for counts in sorted(itertools.product(range(1, cap + 1), repeat=n),
                             key=lambda c: (sum(c), c)):
            strategies = {p: tuple(str(i) for i in range(k)) for p, k in zip(players, counts)}
            cells = [(p, key) for p in players
                     for key in itertools.product(*(strategies[q] for q in graph.local_order(p)))]
            for assignment in itertools.product(bounds.payoff_values, repeat=len(cells)):
                payoffs: dict = {p: {} for p in players}
                for (p, key), value in zip(cells, assignment):
                    payoffs[p][key] = value
                yield self.timed("core.Game.of", "core", Game.of, graph, strategies, payoffs)

    def _fuzz_soundness(self, args, index):
        graph, atoms = self._graph_and_atoms(args, args.assume)
        hypotheses = Hypotheses.of(atoms)
        bounds = SearchBounds(max_strategies=args.max_strategies, seed=args.seed,
                              sample_count=args.samples)
        self.timed("search.fuzz_soundness", "search", fuzz_soundness, graph, hypotheses,
                   bounds, role="probe")
        table = self._saturate(graph, hypotheses, index, "work")
        goals = [graph.players_of_mask(x) for x in range(1 << len(graph.players))
                 if table.closure_mask(x) != x]
        for i in range(bounds.sample_count):
            game = self._random_game(graph, bounds, i)
            self.counts["search.games_examined"] += 1
            self.counts["search.hypotheses_tested"] += 1
            found = self._equilibria(game)
            if not all(self._holds(game, atom, found) for atom in hypotheses):
                continue
            self.counts["search.hypotheses_satisfied"] += 1
            for lhs in goals:
                self.timed("semantics.determined_players", "semantics",
                           determined_players, game, lhs)
                self.counts["semantics.calls"] += 1
                self.counts["semantics.equilibria_scanned"] += len(found)

    # -- results ----------------------------------------------------------------

    def _totals(self):
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, layer, role, qid, parent, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        return total, calls, child

    def busy(self) -> dict[str, float]:
        """Self time of work spans, per layer."""
        _, _, child = self._totals()
        busy = defaultdict(float)
        for index, (name, layer, role, qid, parent, start, end) in enumerate(self.spans):
            if role == "work":
                busy[layer] += end - start - child[index]
        return busy

    def metrics(self, rounds: int) -> dict[str, float]:
        total, calls, _ = self._totals()
        counts = self.counts
        busy = self.busy()
        busy_total = sum(busy.values())
        per_round = lambda value: value / rounds
        mean_ms = lambda name: 1000 * total[name] / calls[name] if calls[name] else 0.0
        ratio = lambda a, b: a / b if b else 0.0

        cli_extra = defaultdict(float)
        work = defaultdict(float)
        for name, layer, role, qid, parent, start, end in self.spans:
            if role == "cli":
                cli_extra[qid] += end - start
            elif role == "work":
                work[qid] += end - start
        enumerate_s = total["equilibrium.enumerate_equilibria"] + total["equilibrium.equilibria"]
        profiles = counts["equilibrium.profiles"]
        metrics = {
            "cli.overhead_ms": 1000 * ratio(sum(cli_extra[q] - work[q] for q in cli_extra),
                                            len(cli_extra)),
            **{f"cli.queries.{c}": per_round(counts["cli.queries." + c]) for c in SUBCOMMANDS},
            "parser.parse_game_ms": mean_ms("parser.parse_game"),
            "parser.parse_game_mb_per_s": ratio(counts["parse_game_bytes"] / 1e6,
                                                total["parser.parse_game"]),
            "parser.parse_derivation_ms": mean_ms("parser.parse_derivation"),
            "core.game_build_ms": mean_ms("core.Game.of"),
            "equilibrium.enumerate_s": per_round(enumerate_s),
            "equilibrium.calls": per_round(counts["equilibrium.calls"]),
            "equilibrium.profiles": per_round(profiles),
            "equilibrium.equilibria_found": per_round(counts["equilibrium.equilibria_found"]),
            "equilibrium.us_per_profile": 1e6 * ratio(enumerate_s, profiles),
            "equilibrium.us_per_game": 1e6 * ratio(enumerate_s, counts["equilibrium.calls"]),
            "equilibrium.yield": ratio(counts["equilibrium.equilibria_found"], profiles),
            "semantics.holds_ms": mean_ms("semantics.holds"),
            "semantics.determined_players_ms": mean_ms("semantics.determined_players"),
            "semantics.calls": per_round(counts["semantics.calls"]),
            "semantics.equilibria_scanned": per_round(counts["semantics.equilibria_scanned"]),
            "prover.saturate_s": per_round(total["prover.saturate"]),
            "prover.saturate_calls": per_round(counts["prover.saturate_calls"]),
            "prover.closure_facts": per_round(counts["prover.closure_facts"]),
            "prover.derive_tree_s": per_round(total["prover.derive_tree"]),
            "prover.tree_rebuild_ms": 1000 * ratio(sum(d - s for s, d in self.best_tree.values()),
                                                   len(self.best_tree)),
            "prover.derivation_steps": per_round(counts["prover.derivation_steps"]),
            "prover.check_derivation_ms": mean_ms("prover.check_derivation"),
            "prover.saturate_peak_mb": self.peak_mb,
            "search.random_game_us": 1000 * mean_ms("search.random_game"),
            "search.games_generated": per_round(counts["search.games_generated"]),
            "search.games_examined": per_round(counts["search.games_examined"]),
            "search.find_counterexample_s": per_round(total["search.find_counterexample"]),
            "search.fuzz_soundness_s": per_round(total["search.fuzz_soundness"]),
            "search.hypotheses_satisfied_ratio": ratio(counts["search.hypotheses_satisfied"],
                                                       counts["search.hypotheses_tested"]),
            "search.hypotheses_tested": per_round(counts["search.hypotheses_tested"]),
            "trace.busy_s": per_round(busy_total),
        }
        for layer in LAYERS:
            metrics[f"share.{layer}"] = ratio(busy[layer], busy_total)
        metrics["share.saturate"] = ratio(total["prover.saturate"], busy_total)
        return metrics

    def dump(self, path: str, rounds: int, traced_round_s: float,
             untraced_round_s: float) -> None:
        Path(path).write_text(json.dumps({
            "rounds": rounds,
            "traced_round_s": traced_round_s,
            "untraced_round_s": untraced_round_s,
            "busy_s": self.busy(),
            "fields": FIELDS,
            "spans": self.spans,
        }), encoding="utf-8")


def _atoms_grouped(game, formula) -> int:
    """How many atoms `holds` groups the equilibrium set for (short-circuit order)."""
    if isinstance(formula, Atom):
        return 1
    if isinstance(formula, Implication):
        grouped = _atoms_grouped(game, formula.antecedent)
        if holds(game, formula.antecedent):
            grouped += _atoms_grouped(game, formula.consequent)
        return grouped
    return 0
