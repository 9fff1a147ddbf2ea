"""Tests for the derivability engine, proof objects, and the proof checker."""

import itertools
import json
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gamedep import prover
from gamedep.cli import main
from gamedep.core import Atom, Cut, DependencyGraph, InputError, ResourceLimitError
from gamedep.parser import (
    ParseError,
    parse_atom,
    parse_derivation,
    print_derivation,
    print_formula,
    print_graph,
)
from gamedep.prover import (
    MAX_SATURATION_VERTICES,
    Augmentation,
    ByHypothesis,
    Contiguity,
    Derivation,
    Hypotheses,
    LeftMonotonicity,
    Reflexivity,
    Step,
    Transitivity,
    _TreeBuilder,
    _contiguity,
    _cut_table,
    _fixpoint_derives,
    _premises,
    _sweeps,
    check_derivation,
    derive_tree,
    derives,
    saturate,
    sparse,
    sparse_set_principle,
)
from gamedep.search import builtin_graph

from generators import graphs, player_sets
from oracles import derivable_atoms, saturate_by_sweeps, semantic_closure


def atom(lhs: str, rhs: str) -> Atom:
    return Atom.of(lhs.split(), rhs.split())


def graph_of(spec) -> DependencyGraph:
    """A built-in graph by name, or one from ("players", "u-v u-v ...")."""
    if isinstance(spec, str):
        return builtin_graph(spec)
    players, edges = spec
    return DependencyGraph.of(players.split(), [tuple(e.split("-")) for e in edges.split()])


# The largest prove-closure benchmark shape: a 12-cycle on which a and c lie
# at distance 4.
CYCLE12 = ("a b c d e f g h i j k l", "a-b b-d d-e e-c c-f f-g g-h h-i i-j j-k k-l l-a")


class TestHypotheses:
    def test_of_deduplicates_preserving_order(self):
        hyps = Hypotheses.of([atom("a", "b"), atom("b", "c"), atom("a", "b")])
        assert hyps.atoms == (atom("a", "b"), atom("b", "c"))

    def test_of_accepts_bare_pairs(self):
        hyps = Hypotheses.of([(["a"], ["b"])])
        assert hyps.atoms == (atom("a", "b"),)

    def test_twenty_thousand_atoms_deduplicate_without_the_quadratic(self):
        # a list membership test per atom grew as the square of the distinct
        # atoms (2.0 s for 4,000, so about 50 s here); the bound is loose so
        # that a loaded runner does not fail it
        distinct = [Atom(frozenset({f"p{i}"}), frozenset({f"q{i}", f"r{i % 7}"}))
                    for i in range(20_000)]
        items = [item for i, a in enumerate(distinct) for item in (a, distinct[i // 2])]
        started = time.perf_counter()
        hyps = Hypotheses.of(items)
        elapsed = time.perf_counter() - started
        assert hyps.atoms == tuple(distinct)
        assert elapsed < 5, f"deduplicating 40,000 atoms took {elapsed:.2f}s"

    def test_container_protocol(self):
        hyps = Hypotheses.of([atom("a", "b")])
        assert len(hyps) == 1
        assert atom("a", "b") in hyps
        assert atom("b", "a") not in hyps
        assert list(hyps) == [atom("a", "b")]


class TestSaturate:
    def test_closure_contains_hypothesis_consequences(self):
        graph = builtin_graph("gamma3")
        table = saturate(graph, [atom("a", "c")])
        assert table.closure({"a"}) == {"a", "c"}
        assert table.closure({"a", "b"}) == {"a", "b", "c"}

    def test_middle_player_learns_nothing(self):
        # on the path a-b-c with only a |> c assumed, b alone pins nobody else
        graph = builtin_graph("gamma3")
        table = saturate(graph, [atom("a", "c")])
        assert table.closure({"b"}) == {"b"}
        assert not table.derives({"b"}, {"c"})

    def test_closure_is_extensive(self):
        graph = builtin_graph("gamma1")
        table = saturate(graph, [])
        identity = np.arange(1 << len(graph.players))
        assert ((table._history[-1] & identity) == identity).all()

    def test_closure_is_monotone(self):
        graph = builtin_graph("gamma2")
        table = saturate(graph, [atom("a", "d"), atom("b c", "a")])
        size = 1 << len(graph.players)
        for x in range(size):
            for y in range(size):
                if x & y == x:
                    assert table.closure_mask(x) & ~table.closure_mask(y) == 0

    def test_rejects_hypotheses_about_unknown_players(self):
        graph = builtin_graph("gamma3")
        with pytest.raises(InputError, match="unknown player"):
            saturate(graph, [atom("a", "z")])

    def test_cut_table_lists_every_cut_and_its_borders(self):
        graphs = [builtin_graph(name) for name in
                  ("gamma1", "gamma2", "gamma3", "gamma4", "gamma5", "triangle", "pair")]
        rng = random.Random(3)
        for _ in range(60):
            players = list("abcdefg"[:rng.randint(1, 7)])
            rng.shuffle(players)
            edges = [e for e in itertools.combinations(players, 2) if rng.random() < 0.4]
            graphs.append(DependencyGraph.of(players, edges))
        for graph in graphs:
            n = len(graph.players)
            full = (1 << n) - 1
            border = [graph.mask_of(graph.border(graph.players_of_mask(u)))
                      for u in range(1 << n)]
            adjacent = [graph.mask_of(graph.neighbors(p)) for p in graph.players]

            def separated(u, z):
                return not any(adjacent[v] & z for v in range(n) if u >> v & 1)

            borders, (keys, targets, outside) = _cut_table(graph)
            assert borders.tolist() == [border[u] | border[full ^ u] for u in range(1 << n)]
            # every (U, Y inside W) with no edge from U to W minus Y exactly
            # once, with its key and target
            seen = []
            for key, target, w in zip(keys.tolist(), targets.tolist(), outside.tolist()):
                u, y = full ^ w, key & w
                assert key == u | y and target == border[u] | y
                seen.append((u, y))
            assert sorted(seen) == [
                (u, y) for u in range(1 << n) for y in range(1 << n)
                if y & u == 0 and separated(u, full ^ u ^ y)]

    def test_twelve_cycle_saturates_within_budget(self):
        graph = graph_of(CYCLE12)
        started = time.perf_counter()
        table = saturate(graph, [atom("a", "c")])
        elapsed = time.perf_counter() - started
        assert elapsed < 1.5, f"saturate took {elapsed:.2f}s (budget 1.5s)"
        assert table.closure({"a"}) == {"a", "c"}

    def test_edgeless_twelve_vertices_saturate_within_budget(self):
        # no edge separates anything, so every one of the 3^12 cut pairs is listed
        names = [f"p{i}" for i in range(12)]
        graph = DependencyGraph.of(names, [])
        started = time.perf_counter()
        table = saturate(graph, [Atom.of(["p0"], ["p4"]), Atom.of(["p4", "p7"], ["p9"])])
        elapsed = time.perf_counter() - started
        assert elapsed < 1.5, f"saturate took {elapsed:.2f}s (budget 1.5s)"
        assert table.closure({"p0", "p7"}) == {"p0", "p4", "p7", "p9"}

    def test_size_guard(self):
        names = [f"p{i}" for i in range(MAX_SATURATION_VERTICES + 1)]
        edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
        graph = DependencyGraph.of(names, edges)
        with pytest.raises(ResourceLimitError, match="capped"):
            saturate(graph, [])

    def test_guard_boundary_is_inclusive(self):
        names = [f"p{i}" for i in range(MAX_SATURATION_VERTICES)]
        edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
        graph = DependencyGraph.of(names, edges)
        table = saturate(graph, [])
        assert table.closure({names[0]}) == {names[0]}


class TestDerives:
    def test_reflexive_goals_need_no_hypotheses(self):
        graph = builtin_graph("gamma1")
        assert derives(graph, [], {"a", "b"}, {"a"})
        assert derives(graph, [], {"a"}, set())

    def test_hypothesis_is_derivable(self):
        graph = builtin_graph("gamma1")
        assert derives(graph, [atom("a", "d")], {"a"}, {"d"})

    def test_path_counterexample_direction(self):
        graph = builtin_graph("gamma3")
        assert not derives(graph, [atom("a", "c")], {"b"}, {"c"})

    def test_proposition_statements_hold(self):
        gamma1 = builtin_graph("gamma1")
        assert derives(gamma1, [atom("a", "d")], {"b", "c"}, {"d"})
        assert derives(gamma1, [atom("a c", "d"), atom("d b", "a")],
                       {"b", "c"}, {"a", "d"})
        gamma4 = builtin_graph("gamma4")
        assert derives(gamma4, [atom("a c", "e")], {"b", "c", "d"}, {"e"})
        gamma5 = builtin_graph("gamma5")
        assert derives(gamma5, [atom("a", "b"), atom("b", "c"), atom("c", "a")],
                       {"d", "e", "f"}, {"a", "b", "c"})


class TestDeriveTree:
    def test_reflexive_goal_is_one_step(self):
        graph = builtin_graph("gamma1")
        tree = derive_tree(graph, [], {"a", "b"}, {"b"})
        assert len(tree) == 1
        assert isinstance(tree.steps[0].rule, Reflexivity)
        assert tree.conclusion == atom("a b", "b")

    def test_hypothesis_goal_is_one_step(self):
        graph = builtin_graph("gamma1")
        tree = derive_tree(graph, [atom("a", "d")], {"a"}, {"d"})
        assert len(tree) == 1
        assert isinstance(tree.steps[0].rule, ByHypothesis)

    def test_non_derivable_goal_returns_none(self):
        graph = builtin_graph("gamma3")
        assert derive_tree(graph, [atom("a", "c")], {"b"}, {"c"}) is None

    def test_two_step_contiguity_on_the_path(self):
        graph = builtin_graph("gamma1")
        tree = derive_tree(graph, [atom("a", "d")], {"b", "c"}, {"d"})
        assert tree.conclusion == atom("b c", "d")
        assert len(tree) == 2
        assert isinstance(tree.steps[0].rule, ByHypothesis)
        last = tree.steps[1].rule
        assert isinstance(last, Contiguity)
        assert last.cut == Cut.of(graph, {"a", "b"})
        assert last.separated == {"a"}
        assert check_derivation(graph, [atom("a", "d")], tree)

    def test_joint_dependence_on_the_path(self):
        graph = builtin_graph("gamma1")
        hyps = [atom("a c", "d"), atom("d b", "a")]
        tree = derive_tree(graph, hyps, {"b", "c"}, {"a", "d"})
        assert tree.conclusion == atom("b c", "a d")
        assert check_derivation(graph, hyps, tree)

    def test_diamond_with_a_tail(self):
        graph = builtin_graph("gamma4")
        tree = derive_tree(graph, [atom("a c", "e")], {"b", "c", "d"}, {"e"})
        assert tree.conclusion == atom("b c d", "e")
        assert check_derivation(graph, [atom("a c", "e")], tree)

    def test_pendant_triangle_uses_all_rules(self):
        graph = builtin_graph("gamma5")
        hyps = [atom("a", "b"), atom("b", "c"), atom("c", "a")]
        tree = derive_tree(graph, hyps, {"d", "e", "f"}, {"a", "b", "c"})
        assert tree.conclusion == atom("d e f", "a b c")
        assert check_derivation(graph, hyps, tree)
        kinds = [type(step.rule) for step in tree.steps]
        assert kinds.count(Contiguity) >= 3
        assert kinds.count(Transitivity) >= 2

    def test_trees_reference_only_earlier_steps(self):
        graph = builtin_graph("gamma5")
        hyps = [atom("a", "b"), atom("b", "c"), atom("c", "a")]
        tree = derive_tree(graph, hyps, {"d", "e", "f"}, {"a", "b", "c"})
        for i, step in enumerate(tree.steps):
            rule = step.rule
            premises = []
            if isinstance(rule, (Augmentation, Contiguity, LeftMonotonicity)):
                premises = [rule.premise]
            elif isinstance(rule, Transitivity):
                premises = [rule.first, rule.second]
            assert all(0 <= p < i for p in premises)


# check_problems.json holds seeded derivations, `derive_tree` output with
# zero to two mutations each, and the `ok` and `problems` the checker gave
# each; regenerate it with `python tests/test_prover.py` only from a tree
# whose checker is trusted.  A step is [lhs, rhs, rule, fields...], sets as
# comma-joined names and a cut as [U, W]; a rule that is not a rule class
# is a bare string, which the checker sees as is.
CHECK_CORPUS = Path(__file__).with_name("check_problems.json")
RULE_CLASSES = {cls.__name__: cls for cls in (
    ByHypothesis, Reflexivity, Augmentation, Transitivity, Contiguity, LeftMonotonicity)}
CHECK_MESSAGES = (
    "derivation has no steps", "unknown player", "is not an earlier step",
    "atom is not among the hypotheses", "rhs is not a subset of lhs",
    "lhs is not the premise lhs plus C", "rhs is not the premise rhs plus C",
    "middle sets do not match between the premises",
    "conclusion does not chain the premises", "cut sides overlap",
    "cut does not cover", "A is not a subset of U",
    "A is not part of the premise lhs", "premise rhs is not inside W",
    "lhs is not border(U), border(W), and the kept part",
    "rhs differs from the premise rhs",
    "lhs is not the premise lhs plus the added set", "unknown rule")


def _encode_set(players) -> str:
    return ",".join(sorted(players))


def _decode_set(text: str) -> frozenset:
    return frozenset(text.split(",")) if text else frozenset()


def _encode_step(step: Step) -> list:
    rule = step.rule
    if type(rule) not in RULE_CLASSES.values():
        return [_encode_set(step.atom.lhs), _encode_set(step.atom.rhs), rule]
    fields = [value if isinstance(value, int)
              else [_encode_set(value.left), _encode_set(value.right)] if isinstance(value, Cut)
              else _encode_set(value) for value in vars(rule).values()]
    return [_encode_set(step.atom.lhs), _encode_set(step.atom.rhs), type(rule).__name__, *fields]


def _decode_step(encoded: list) -> Step:
    lhs, rhs, name, *fields = encoded
    atom = Atom(_decode_set(lhs), _decode_set(rhs))
    if name not in RULE_CLASSES:
        return Step(atom, name)
    values = [value if isinstance(value, int)
              else Cut(_decode_set(value[0]), _decode_set(value[1])) if isinstance(value, list)
              else _decode_set(value) for value in fields]
    return Step(atom, RULE_CLASSES[name](*values))


def _mutate(rng: random.Random, graph: DependencyGraph, steps: list) -> None:
    """One seeded fault in one step: a premise index, a player outside the
    graph, a bad cut, A or the premise rhs on the wrong side, a tampered
    atom, or a rule that is not a rule class."""
    cut_steps = [i for i, step in enumerate(steps) if isinstance(step.rule, Contiguity)]
    i = rng.choice(cut_steps) if cut_steps and rng.random() < 0.5 else rng.randrange(len(steps))
    atom, rule = steps[i].atom, steps[i].rule
    everyone = graph.player_set()

    def one(pool):
        """One player drawn from `pool`, as a set; none from an empty pool."""
        return frozenset(rng.sample(sorted(pool), 1)) if pool else frozenset()

    anywhere = [
        lambda: Step(Atom(atom.lhs | {"z"}, atom.rhs), rule),
        lambda: Step(Atom(atom.lhs, atom.rhs | {"z"}), rule),
        lambda: Step(Atom(atom.lhs ^ one(everyone), atom.rhs), rule),
        lambda: Step(Atom(atom.lhs, atom.rhs ^ one(everyone)), rule),
        lambda: Step(atom, rng.choice(["Weakening", "Symmetry"])),
    ]
    mutations = []
    premises = _premises(rule) if type(rule) in RULE_CLASSES.values() else {}
    if premises:
        name = rng.choice(sorted(premises))
        index = rng.choice([-1, i, i + rng.randint(1, 3)])
        mutations.append(lambda: Step(atom, replace(rule, **{name: index})))
    if isinstance(rule, (Augmentation, LeftMonotonicity)):
        mutations.append(lambda: Step(atom, replace(rule, added=rule.added | {"z"})))
    if isinstance(rule, Contiguity) and 0 <= rule.premise < i:
        left, right = rule.cut.left, rule.cut.right
        source = steps[rule.premise].atom
        moved = one(source.rhs)
        for change in [
                {"cut": Cut(left | {"z"}, right)},
                {"cut": Cut(left, right | {"z"})},
                {"separated": rule.separated | {"z"}},
                {"cut": Cut(left | one(right), right)},       # overlapping
                {"cut": Cut(left - one(left), right)},        # not covering
                {"separated": rule.separated | one(right)},   # A outside U
                {"separated": rule.separated | one(left - source.lhs)},
                {"cut": Cut(left | moved, right - moved)}]:   # premise rhs in U
            mutations.append(lambda change=change: Step(atom, replace(rule, **change)))
    steps[i] = rng.choice(mutations if mutations and rng.random() < 0.6 else anywhere)()


def checker_corpus(seed: int, count: int) -> list[dict]:
    """`count` seeded derivations, each with the checker's `ok` and
    `problems`; the first is the empty derivation."""
    rng = random.Random(seed)
    corpus = [{"graph": ["a b", ""], "hypotheses": [], "steps": []}]
    while len(corpus) < count:
        players = "abcdef"[:rng.randint(2, 6)]
        edges = " ".join(f"{u}-{v}" for u, v in itertools.combinations(players, 2)
                         if rng.random() < 0.3)
        graph = graph_of((" ".join(players), edges))
        hyps = Hypotheses.of(
            Atom(frozenset(rng.sample(players, rng.randint(0, 2))),
                 frozenset(rng.sample(players, rng.randint(1, 2))))
            for _ in range(rng.randint(0, 3)))
        table = saturate(graph, hyps)
        for _ in range(5):  # a goal past one pass of the hypotheses, where found
            lhs = frozenset(rng.sample(players, rng.randint(0, len(players) - 1)))
            closure = table.closure(lhs)
            horn = lhs
            for hyp in hyps:
                horn |= hyp.rhs if hyp.lhs <= horn else frozenset()
            if closure - horn:
                break
        pool = sorted(closure - horn or closure - lhs or closure)
        steps = list(derive_tree(graph, hyps, lhs, rng.sample(
            pool, rng.randint(min(1, len(pool)), min(3, len(pool))))).steps)
        for _ in range(rng.choice([0, 1, 1, 2])):
            _mutate(rng, graph, steps)
        corpus.append({"graph": [" ".join(players), edges],
                       "hypotheses": [[_encode_set(a.lhs), _encode_set(a.rhs)] for a in hyps],
                       "steps": [_encode_step(step) for step in steps]})
    for case in corpus:
        result = check_case(case)
        case.update(ok=result.ok, problems=list(result.problems))
    return corpus


def check_case(case: dict) -> prover.DerivationCheck:
    hyps = Hypotheses.of((_decode_set(l), _decode_set(r)) for l, r in case["hypotheses"])
    derivation = Derivation(tuple(_decode_step(step) for step in case["steps"]))
    return check_derivation(graph_of(tuple(case["graph"])), hyps, derivation)


class TestCheckDerivation:
    GRAPH = None  # assigned in setup_method to keep pins close to their uses

    def setup_method(self):
        self.graph = builtin_graph("gamma1")
        self.hyps = Hypotheses.of([atom("a", "d")])

    def problems(self, steps) -> tuple[str, ...]:
        result = check_derivation(self.graph, self.hyps, Derivation(tuple(steps)))
        assert not result
        return result.problems

    def test_empty_derivation(self):
        result = check_derivation(self.graph, self.hyps, Derivation(()))
        assert not result and "no steps" in result.problems[0]

    def test_hypothesis_step_must_be_assumed(self):
        problems = self.problems([Step(atom("a", "c"), ByHypothesis())])
        assert problems == ("step 1: atom is not among the hypotheses",)

    def test_reflexivity_requires_rhs_inside_lhs(self):
        problems = self.problems([Step(atom("a", "b"), Reflexivity())])
        assert problems == ("step 1: rhs is not a subset of lhs",)

    def test_unknown_players_are_reported_with_the_step(self):
        problems = self.problems([Step(atom("a", "z"), Reflexivity())])
        assert "step 1:" in problems[0] and "unknown player" in problems[0]

    def test_premise_must_be_an_earlier_step(self):
        problems = self.problems([
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("a b", "b d"), Augmentation(1, frozenset("b"))),
        ])
        assert problems == ("step 2: premise 2 is not an earlier step",)

    def test_augmentation_must_add_the_same_set_to_both_sides(self):
        good = Step(atom("a", "d"), ByHypothesis())
        problems = self.problems([
            good, Step(atom("a b", "d"), Augmentation(0, frozenset("b")))])
        assert problems == ("step 2: rhs is not the premise rhs plus C",)
        problems = self.problems([
            good, Step(atom("a", "b d"), Augmentation(0, frozenset("b")))])
        assert problems == ("step 2: lhs is not the premise lhs plus C",)

    def test_transitivity_requires_matching_middles(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("b", "b"), Reflexivity()),
            Step(atom("a", "b"), Transitivity(0, 1)),
        ]
        problems = self.problems(steps)
        assert problems == ("step 3: middle sets do not match between the premises",)

    def test_transitivity_conclusion_must_chain(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("d", "d"), Reflexivity()),
            Step(atom("a", "a d"), Transitivity(0, 1)),
        ]
        problems = self.problems(steps)
        assert problems == ("step 3: conclusion does not chain the premises",)

    def test_contiguity_rejects_overlapping_cuts(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("b c", "d"), Contiguity(
                0, Cut(frozenset("ab"), frozenset("bcd")), frozenset("a"))),
        ]
        problems = self.problems(steps)
        assert "step 2:" in problems[0] and "overlap" in problems[0]

    def test_contiguity_rejects_cuts_that_do_not_cover(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("b c", "d"), Contiguity(
                0, Cut(frozenset("a"), frozenset("cd")), frozenset("a"))),
        ]
        problems = self.problems(steps)
        assert "does not cover" in problems[0]

    def test_contiguity_requires_separated_inside_left(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("b c", "d"), Contiguity(
                0, Cut.of(self.graph, {"b", "c"}), frozenset("a"))),
        ]
        problems = self.problems(steps)
        assert problems == ("step 2: A is not a subset of U",)

    def test_contiguity_requires_separated_from_the_premise(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("a b c", "d"), Contiguity(
                0, Cut.of(self.graph, {"a", "b"}), frozenset("b"))),
        ]
        problems = self.problems(steps)
        assert problems == ("step 2: A is not part of the premise lhs",)

    def test_contiguity_requires_rhs_inside_right(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("b c", "d"), Contiguity(
                0, Cut.of(self.graph, {"a", "d"}), frozenset("a"))),
        ]
        problems = self.problems(steps)
        assert problems == ("step 2: premise rhs is not inside W",)

    def test_contiguity_checks_the_conclusion_lhs(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("a b c", "d"), Contiguity(
                0, Cut.of(self.graph, {"a", "b"}), frozenset("a"))),
        ]
        problems = self.problems(steps)
        assert problems == (
            "step 2: lhs is not border(U), border(W), and the kept part",)

    def test_contiguity_checks_the_conclusion_rhs(self):
        steps = [
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("b c", "c d"), Contiguity(
                0, Cut.of(self.graph, {"a", "b"}), frozenset("a"))),
        ]
        problems = self.problems(steps)
        assert problems == ("step 2: rhs differs from the premise rhs",)

    def test_left_monotonicity_checks_both_sides(self):
        good = Step(atom("a", "d"), ByHypothesis())
        problems = self.problems([
            good, Step(atom("a", "d"), LeftMonotonicity(0, frozenset("b")))])
        assert problems == (
            "step 2: lhs is not the premise lhs plus the added set",)
        problems = self.problems([
            good, Step(atom("a b", "b d"), LeftMonotonicity(0, frozenset("b")))])
        assert problems == ("step 2: rhs differs from the premise rhs",)

    def test_transitivity_premises_must_be_earlier_steps(self):
        problems = self.problems([
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("a", "d"), Transitivity(0, 5)),
        ])
        assert problems == ("step 2: premise 6 is not an earlier step",)
        problems = self.problems([
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("a", "d"), Transitivity(1, -1)),
        ])
        assert problems == ("step 2: premise 2 is not an earlier step",
                            "step 2: premise 0 is not an earlier step")

    def test_contiguity_premise_must_be_an_earlier_step(self):
        problems = self.problems([
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("b c", "d"), Contiguity(
                3, Cut.of(self.graph, {"a", "b"}), frozenset("a"))),
        ])
        assert problems == ("step 2: premise 4 is not an earlier step",)

    @pytest.mark.parametrize("left,right,separated,unknown", [
        ("abz", "cd", "a", "z"),   # U
        ("ab", "cdy", "a", "y"),   # W
        ("ab", "cd", "az", "z"),   # A
        ("ab", "cdy", "az", "y"),  # W is checked before A
    ])
    def test_contiguity_cut_and_a_must_name_players_of_the_graph(
            self, left, right, separated, unknown):
        problems = self.problems([
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("b c", "d"), Contiguity(
                0, Cut(frozenset(left), frozenset(right)), frozenset(separated))),
        ])
        assert problems == (f"step 2: unknown player {unknown!r}",)

    def test_left_monotonicity_premise_and_added_set(self):
        good = Step(atom("a", "d"), ByHypothesis())
        problems = self.problems([
            good, Step(atom("a b", "d"), LeftMonotonicity(1, frozenset("b")))])
        assert problems == ("step 2: premise 2 is not an earlier step",)
        problems = self.problems([
            good, Step(atom("a b", "d"), LeftMonotonicity(0, frozenset("bz")))])
        assert problems == ("step 2: unknown player 'z'",)

    def test_a_step_that_is_not_a_rule(self):
        @dataclass(frozen=True)
        class Weakening:
            premise: int

        problems = self.problems([Step(atom("a", "a"), "Weakening")])
        assert problems == ("step 1: unknown rule 'Weakening'",)
        # the rule is named before its premise, which no rule check reads
        problems = self.problems([Step(atom("a", "a"), Weakening(5))])
        assert problems == (f"step 1: unknown rule {Weakening(5)!r}",)

    def test_tampered_conclusion_is_rejected(self):
        tree = derive_tree(self.graph, self.hyps, {"b", "c"}, {"d"})
        bad = Derivation(tree.steps[:-1] + (
            Step(atom("b", "d"), tree.steps[-1].rule),))
        result = check_derivation(self.graph, self.hyps, bad)
        assert not result and result.problems

    def test_all_problems_are_collected(self):
        steps = [
            Step(atom("a", "b"), Reflexivity()),
            Step(atom("b", "a"), Reflexivity()),
        ]
        problems = self.problems(steps)
        assert len(problems) == 2

    def test_problems_agree_with_the_recorded_corpus(self):
        recorded = json.loads(CHECK_CORPUS.read_text(encoding="utf-8"))
        for case in recorded:
            result = check_case(case)
            assert (result.ok, list(result.problems)) == (case["ok"], case["problems"]), case
        problems = "\n".join(problem for case in recorded for problem in case["problems"])
        assert [message for message in CHECK_MESSAGES if message not in problems] == []
        # the same seed rebuilds the same derivations, so `derive_tree` is pinned too
        assert checker_corpus(seed=20261020, count=len(recorded)) == recorded

    def test_eight_thousand_hypothesis_steps_check_without_the_quadratic(self):
        # a scan of the hypotheses per [Hypothesis] step grew as the square
        # of the steps (2.09 s for 4,000, so about 8 s here); the bound is
        # loose so that a loaded runner does not fail it
        graph = DependencyGraph.of([f"p{i}" for i in range(100)])
        hyps = Hypotheses.of(Atom(frozenset({f"p{i}"}), frozenset({f"p{j}"}))
                             for i in range(100) for j in range(80))
        derivation = Derivation(tuple(Step(a, ByHypothesis()) for a in hyps))
        started = time.perf_counter()
        result = check_derivation(graph, hyps, derivation)
        elapsed = time.perf_counter() - started
        assert len(derivation) == 8_000 and result
        assert elapsed < 2, f"checking 8,000 hypothesis steps took {elapsed:.2f}s"


class TestSparse:
    def test_path_endpoints_are_sparse(self):
        graph = builtin_graph("gamma1")
        assert sparse(graph, {"a", "d"})

    def test_adjacent_players_are_not_sparse(self):
        graph = builtin_graph("gamma1")
        assert not sparse(graph, {"a", "b"})

    def test_distance_two_is_not_sparse(self):
        graph = builtin_graph("gamma1")
        assert not sparse(graph, {"a", "c"})

    def test_small_sets_are_always_sparse(self):
        graph = builtin_graph("gamma2")
        assert sparse(graph, set())
        assert sparse(graph, {"b"})

    def test_pendant_vertices_of_the_triangle(self):
        graph = builtin_graph("gamma5")
        assert sparse(graph, {"a", "b", "c"})
        assert not sparse(graph, {"a", "d"})

    def test_disconnected_players_count_as_far_apart(self):
        graph = DependencyGraph.of(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert sparse(graph, {"a", "c"})

    def test_every_subset_of_every_graph_of_at_most_5_players(self):
        for n in range(1, 6):
            players = "abcde"[:n]
            pairs = list(itertools.combinations(players, 2))
            for chosen in range(1 << len(pairs)):
                assert_sparse_by_distances(DependencyGraph.of(
                    players, [e for i, e in enumerate(pairs) if chosen >> i & 1]))

    @given(graphs(max_players=7))
    def test_every_subset_of_drawn_graphs(self, graph):
        assert_sparse_by_distances(graph)


def distances_from(graph, source) -> dict[str, int]:
    """Breadth-first distances from `source`; unreachable players are absent."""
    distance = {source: 0}
    frontier = [source]
    while frontier:
        following = []
        for u in frontier:
            for w in graph.neighbors(u):
                if w not in distance:
                    distance[w] = distance[u] + 1
                    following.append(w)
        frontier = following
    return distance


def assert_sparse_by_distances(graph):
    """`sparse` on every player subset agrees with "every two members are at
    distance 3 or more, or disconnected", read off breadth-first search."""
    distance = {u: distances_from(graph, u) for u in graph.players}
    for r in range(len(graph.players) + 1):
        for members in itertools.combinations(graph.players, r):
            expected = all(distance[u].get(w, 3) >= 3
                           for u, w in itertools.combinations(members, 2))
            assert sparse(graph, members) == expected, (graph, members)


class TestSparseSetPrinciple:
    def test_path_endpoints(self):
        graph = builtin_graph("gamma1")
        tree = sparse_set_principle(graph, {"a", "d"})
        assert tree is not None
        assert tree.conclusion == atom("b c", "a d")
        hyps = Hypotheses.of([atom("b c d", "a"), atom("a b c", "d")])
        assert check_derivation(graph, hyps, tree)

    def test_pendant_triangle(self):
        graph = builtin_graph("gamma5")
        tree = sparse_set_principle(graph, {"a", "b", "c"})
        assert tree is not None
        assert tree.conclusion == atom("d e f", "a b c")

    def test_empty_set_gives_reflexivity(self):
        graph = builtin_graph("gamma1")
        tree = sparse_set_principle(graph, set())
        assert len(tree) == 1
        assert isinstance(tree.steps[0].rule, Reflexivity)
        assert tree.conclusion == atom("a b c d", "")

    def test_non_sparse_sets_are_rejected(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(InputError, match="not sparse"):
            sparse_set_principle(graph, {"a", "b"})

    @given(graphs(max_players=5), st.data())
    def test_every_sparse_set_is_derivable(self, graph, data):
        members = data.draw(player_sets(graph))
        if not sparse(graph, members):
            members = frozenset()
        tree = sparse_set_principle(graph, members)
        assert tree is not None
        everyone = graph.player_set()
        assert tree.conclusion == Atom(everyone - members, frozenset(members))
        hyps = Hypotheses.of(
            Atom(everyone - {w}, frozenset({w})) for w in sorted(members))
        assert check_derivation(graph, hyps, tree)


# Derivations printed by derive_tree, recorded so that a change to the closure
# table or the tree builder that alters any proof shows up: (graph as builtin
# name or (players, edges), hypotheses, goal, printed derivation).
PINNED_DERIVATIONS = [
    pytest.param(("a b c d e f g h i", "a-b b-c c-d d-e e-f f-g g-h h-i"),
                 ["e |> b", "a,i |> d", "i |> a"], "c,d,e,g |> a,b",
                 '1. i |> a [Hypothesis]\n'
                 '2. b,c |> a [Contiguity 1 cut={c,d,e,f,g,h,i}|{a,b} A={i}]\n'
                 '3. e |> b [Hypothesis]\n'
                 '4. c,d,e,g |> b [LeftMonotonicity 3 add={c,d,g}]\n'
                 '5. c,d,e,g |> b,c [Augmentation 4 C={c}]\n'
                 '6. c,d,e,g |> a [Transitivity 5 2]\n'
                 '7. c,d,e,g |> a,c,d,e,g [Augmentation 6 C={c,d,e,g}]\n'
                 '8. a,c,d,e,g |> a,b [Augmentation 4 C={a}]\n'
                 '9. c,d,e,g |> a,b [Transitivity 7 8]\n', id="path9"),
    pytest.param(("a b c d e f", "a-b b-c c-d d-e e-f f-a"),
                 ["c |> f", "d,e |> b"], "a,c,d |> b,f",
                 '1. d,e |> b [Hypothesis]\n'
                 '2. a,c,d,f |> b [Contiguity 1 cut={d,e,f}|{a,b,c} A={d,e}]\n'
                 '3. c |> f [Hypothesis]\n'
                 '4. a,c,d |> f [LeftMonotonicity 3 add={a,d}]\n'
                 '5. a,c,d |> a,c,d,f [Augmentation 4 C={a,c,d}]\n'
                 '6. a,c,d |> b [Transitivity 5 2]\n'
                 '7. a,c,d |> a,b,c,d [Augmentation 6 C={a,c,d}]\n'
                 '8. a,b,c,d |> b,f [Augmentation 4 C={b}]\n'
                 '9. a,c,d |> b,f [Transitivity 7 8]\n', id="cycle6"),
    pytest.param(("a b c d e f g h", "a-b b-c c-d d-e e-f f-g g-h h-a"),
                 ["b |> e", "c,d |> g"], "b,c,f,h |> e,g",
                 '1. b |> e [Hypothesis]\n'
                 '2. b,c,f,h |> e [LeftMonotonicity 1 add={c,f,h}]\n'
                 '3. b,c,f,h |> b,c,e,f,h [Augmentation 2 C={b,c,f,h}]\n'
                 '4. c,d |> g [Hypothesis]\n'
                 '5. b,c,e,f |> g [Contiguity 4 cut={c,d,e}|{a,b,f,g,h} A={c,d}]\n'
                 '6. b,c,f,h |> b,c,e,f [Augmentation 2 C={b,c,f}]\n'
                 '7. b,c,f,h |> g [Transitivity 6 5]\n'
                 '8. b,c,e,f,h |> e,g [Augmentation 7 C={e}]\n'
                 '9. b,c,f,h |> e,g [Transitivity 3 8]\n', id="cycle8"),
    pytest.param(("a b c d e f g h", "a-b b-c c-d e-f f-g g-h a-e b-f c-g d-h"),
                 ["g,h |> b", "d |> a", "e |> a"], "c,f,g,h |> a,b",
                 '1. d |> a [Hypothesis]\n'
                 '2. b,c,f,g |> a [Contiguity 1 cut={c,d,g,h}|{a,b,e,f} A={d}]\n'
                 '3. g,h |> b [Hypothesis]\n'
                 '4. c,f,g,h |> b [LeftMonotonicity 3 add={c,f}]\n'
                 '5. c,f,g,h |> b,c,f,g [Augmentation 4 C={c,f,g}]\n'
                 '6. c,f,g,h |> a [Transitivity 5 2]\n'
                 '7. c,f,g,h |> a,c,f,g,h [Augmentation 6 C={c,f,g,h}]\n'
                 '8. a,c,f,g,h |> a,b [Augmentation 4 C={a}]\n'
                 '9. c,f,g,h |> a,b [Transitivity 7 8]\n', id="ladder8"),
    pytest.param("gamma4", ["a,c |> e"], "b,c,d |> e",
                 '1. a,c |> e [Hypothesis]\n'
                 '2. b,c,d |> e [Contiguity 1 cut={a,b,c}|{d,e} A={a,c}]\n', id="gamma4"),
    pytest.param("gamma5", ["a |> b", "b |> c", "c |> a"], "d,e,f |> a,b,c",
                 '1. c |> a [Hypothesis]\n'
                 '2. b |> c [Hypothesis]\n'
                 '3. b |> a [Transitivity 2 1]\n'
                 '4. d,e,f |> a [Contiguity 3 cut={b,e}|{a,c,d,f} A={b}]\n'
                 '5. d,e,f |> a,d,e,f [Augmentation 4 C={d,e,f}]\n'
                 '6. a |> b [Hypothesis]\n'
                 '7. d,e,f |> b [Contiguity 6 cut={a,d}|{b,c,e,f} A={a}]\n'
                 '8. a,d,e,f |> a,b,d,e,f [Augmentation 7 C={a,d,e,f}]\n'
                 '9. d,e,f |> a,b,d,e,f [Transitivity 5 8]\n'
                 '10. a |> c [Transitivity 6 2]\n'
                 '11. d,e,f |> c [Contiguity 10 cut={a,d}|{b,c,e,f} A={a}]\n'
                 '12. a,b,d,e,f |> a,b,c [Augmentation 11 C={a,b}]\n'
                 '13. d,e,f |> a,b,c [Transitivity 9 12]\n', id="gamma5"),
    pytest.param(CYCLE12, ["a |> c"], "b,d,j,k |> c",
                 '1. a |> c [Hypothesis]\n'
                 '2. b,d,j,k |> c [Contiguity 1 cut={a,b,k,l}|{c,d,e,f,g,h,i,j} A={a}]\n',
                 id="cycle12"),
    # the builder emits 6 steps and compaction keeps 4; step 4 is the
    # Augmentation for an rhs one player past the lhs
    pytest.param(("a b c", "a-b a-c"), ["a,b |> c", "b |> a,b"], "b |> b,c",
                 '1. a,b |> c [Hypothesis]\n'
                 '2. b |> a,b [Hypothesis]\n'
                 '3. b |> c [Transitivity 2 1]\n'
                 '4. b |> b,c [Augmentation 3 C={b}]\n', id="star3"),
]


class TestSerialization:
    def roundtrip(self, graph, hyps, tree):
        text = print_derivation(tree, graph)
        parsed = parse_derivation(text, graph)
        assert parsed == tree
        assert check_derivation(graph, hyps, parsed)

    def test_two_step_tree_prints_as_documented(self):
        graph = builtin_graph("gamma1")
        tree = derive_tree(graph, [atom("a", "d")], {"b", "c"}, {"d"})
        text = print_derivation(tree, graph)
        assert text == ("1. a |> d [Hypothesis]\n"
                        "2. b,c |> d [Contiguity 1 cut={a,b}|{c,d} A={a}]\n")

    @pytest.mark.parametrize("spec, hyps, goal, text", PINNED_DERIVATIONS)
    def test_derivations_print_as_recorded(self, spec, hyps, goal, text):
        graph = graph_of(spec)
        hyps = [parse_atom(h, graph) for h in hyps]
        goal = parse_atom(goal, graph)
        tree = derive_tree(graph, hyps, goal.lhs, goal.rhs)
        assert print_derivation(tree, graph) == text
        self.roundtrip(graph, Hypotheses.of(hyps), tree)

    def test_proposition_trees_round_trip(self):
        gamma1 = builtin_graph("gamma1")
        hyps = Hypotheses.of([atom("a c", "d"), atom("d b", "a")])
        self.roundtrip(gamma1, hyps,
                       derive_tree(gamma1, hyps, {"b", "c"}, {"a", "d"}))
        gamma5 = builtin_graph("gamma5")
        hyps = Hypotheses.of([atom("a", "b"), atom("b", "c"), atom("c", "a")])
        self.roundtrip(gamma5, hyps,
                       derive_tree(gamma5, hyps, {"d", "e", "f"}, {"a", "b", "c"}))

    def test_every_rule_round_trips(self):
        graph = builtin_graph("gamma1")
        steps = (
            Step(atom("a", "d"), ByHypothesis()),
            Step(atom("a", "a"), Reflexivity()),
            Step(atom("a b", "b d"), Augmentation(0, frozenset("b"))),
            Step(atom("b c", "d"), Contiguity(
                0, Cut.of(graph, {"a", "b"}), frozenset("a"))),
            Step(atom("a b c", "d"), LeftMonotonicity(3, frozenset("a"))),
            Step(atom("d", "d"), Reflexivity()),
            Step(atom("b c", "d"), Transitivity(3, 5)),
        )
        tree = Derivation(steps)
        text = print_derivation(tree, graph)
        assert text == ("1. a |> d [Hypothesis]\n"
                        "2. a |> a [Reflexivity]\n"
                        "3. a,b |> b,d [Augmentation 1 C={b}]\n"
                        "4. b,c |> d [Contiguity 1 cut={a,b}|{c,d} A={a}]\n"
                        "5. a,b,c |> d [LeftMonotonicity 4 add={a}]\n"
                        "6. d |> d [Reflexivity]\n"
                        "7. b,c |> d [Transitivity 4 6]\n")
        assert parse_derivation(text, graph) == tree

    def test_empty_added_sets_parse_and_verify(self):
        graph = builtin_graph("gamma1")
        text = ("1. a |> d [Hypothesis]\n2. a |> d [Augmentation 1 C={}]\n"
                "3. a |> d [LeftMonotonicity 2 add={}]\n")
        derivation = parse_derivation(text, graph)
        assert [step.rule.added for step in derivation.steps[1:]] == [frozenset()] * 2
        assert check_derivation(graph, [atom("a", "d")], derivation)
        assert print_derivation(derivation, graph) == text

    def test_print_names_a_rule_that_is_not_a_rule_class(self):
        tree = Derivation((Step(atom("a", "d"), "Magic"),))
        with pytest.raises(InputError, match="unknown rule 'Magic'"):
            print_derivation(tree, builtin_graph("gamma1"))

    def test_a_rule_subclass_prints_as_its_base_rule(self):
        class Widening(Augmentation):
            pass

        steps = (Step(atom("a", "d"), ByHypothesis()),
                 Step(atom("a b", "b d"), Widening(0, frozenset("b"))))
        assert print_derivation(Derivation(steps), builtin_graph("gamma1")) == (
            "1. a |> d [Hypothesis]\n"
            "2. a,b |> b,d [Augmentation 1 C={b}]\n")

    def test_parse_requires_sequential_numbering(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError, match="sequential, expected 1"):
            parse_derivation("2. a |> d [Hypothesis]\n", graph)

    def test_parse_requires_the_bracketed_rule(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError, match="expected '<index>"):
            parse_derivation("1. a |> d\n", graph)
        with pytest.raises(ParseError, match="missing rule name"):
            parse_derivation("1. a |> d []\n", graph)

    def test_parse_rejects_unknown_rules(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError, match="malformed rule"):
            parse_derivation("1. a |> d [Abracadabra]\n", graph)

    def test_parse_rejects_wrong_arity(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError, match="malformed rule"):
            parse_derivation("1. a |> a [Reflexivity 1]\n", graph)

    def test_parse_rejects_bad_set_tokens(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError, match=r"expected C=\{\.\.\.\}"):
            parse_derivation("1. a |> d [Hypothesis]\n"
                             "2. a,b |> b,d [Augmentation 1 b]\n", graph)
        with pytest.raises(ParseError, match="not in the graph"):
            parse_derivation("1. a |> d [Hypothesis]\n"
                             "2. a,b |> b,d [Augmentation 1 C={z}]\n", graph)

    def test_parse_rejects_bad_premise_tokens(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError, match="expected a step index"):
            parse_derivation("1. a |> d [Augmentation x C={b}]\n", graph)

    def test_parse_rejects_malformed_cuts(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError, match=r"expected cut132"
                           .replace("132", r"=\{U\}\|\{W\}")):
            parse_derivation(
                "1. a |> d [Hypothesis]\n"
                "2. b,c |> d [Contiguity 1 {a,b} A={a}]\n", graph)

    def test_parse_error_carries_the_line_number(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError) as exc:
            parse_derivation("1. a |> d [Hypothesis]\n"
                             "2. a &&& d [Reflexivity]\n", graph)
        assert exc.value.line == 2

    def test_parse_rejects_empty_text(self):
        graph = builtin_graph("gamma1")
        with pytest.raises(ParseError, match="empty derivation"):
            parse_derivation("# only a comment\n", graph)

    def test_comments_and_blank_lines_are_ignored(self):
        graph = builtin_graph("gamma1")
        parsed = parse_derivation(
            "# a two step proof\n\n1. a |> d [Hypothesis]\n"
            "2. b,c |> d [Contiguity 1 cut={a,b}|{c,d} A={a}]\n", graph)
        assert len(parsed) == 2


class TestOracleAgreement:
    """The closure engine agrees with a literal four-rule closure on small inputs."""

    @given(graphs(max_players=3), st.data())
    def test_matches_the_naive_closure(self, graph, data):
        n = len(graph.players)
        names = list(graph.players)
        mask_count = 1 << n
        picks = data.draw(st.lists(
            st.tuples(st.integers(0, mask_count - 1), st.integers(0, mask_count - 1)),
            min_size=0, max_size=2))
        hyps = Hypotheses.of(
            Atom(graph.players_of_mask(l), graph.players_of_mask(r))
            for l, r in picks)
        table = saturate(graph, hyps)
        expected = derivable_atoms(graph, hyps)
        for lhs_mask in range(mask_count):
            closed = table.closure_mask(lhs_mask)
            for rhs_mask in range(mask_count):
                assert ((lhs_mask, rhs_mask) in expected) == (
                    rhs_mask & ~closed == 0), (
                    f"disagreement at {names}: lhs={lhs_mask:b} rhs={rhs_mask:b}")

    @given(graphs(max_players=4), st.data())
    def test_emitted_trees_always_check(self, graph, data):
        lhs = data.draw(player_sets(graph))
        rhs = data.draw(player_sets(graph))
        hyp_lhs = data.draw(player_sets(graph))
        hyp_rhs = data.draw(player_sets(graph))
        hyps = Hypotheses.of([Atom(hyp_lhs, hyp_rhs)])
        tree = derive_tree(graph, hyps, lhs, rhs)
        if tree is None:
            assert not derives(graph, hyps, lhs, rhs)
        else:
            assert tree.conclusion == Atom(frozenset(lhs), frozenset(rhs))
            result = check_derivation(graph, hyps, tree)
            assert result, result.problems


def assert_same_sweeps(graph, hyps):
    """Snapshot s holds exactly the oracle's facts of sweeps 0 to s."""
    table = saturate(graph, hyps)
    cl, wave, kinds = saturate_by_sweeps(graph, Hypotheses.of(hyps))
    assert table._kinds == kinds
    assert len(table._history) == len(kinds)
    bits = np.int64(1) << np.arange(len(graph.players), dtype=np.int64)
    for sweep, snapshot in enumerate(table._history):
        facts = ((wave >= 0) & (wave <= sweep)) @ bits
        assert np.array_equal(snapshot, facts), f"sweep {sweep} ({kinds[sweep]})"
    assert np.array_equal(table._history[-1], cl)


class TestSweepOracle:
    """Saturation's sweeps agree, sweep by sweep, with the per-row and
    per-source broadcasts they replace."""

    @given(graphs(max_players=7), st.data())
    def test_matches_on_drawn_graphs(self, graph, data):
        pairs = data.draw(st.lists(st.tuples(player_sets(graph), player_sets(graph)),
                                   max_size=3))
        assert_same_sweeps(graph, [Atom(lhs, rhs) for lhs, rhs in pairs])

    def test_matches_on_every_graph_of_at_most_4_players(self):
        for graph, _, hypothesis_sets in every_small_graph():
            for hyps in hypothesis_sets:
                assert_same_sweeps(graph, hyps)

    def test_matches_on_seeded_graphs_of_8_to_10_players(self):
        rng = random.Random(11)
        for _ in range(200):
            players = list("abcdefghij"[:rng.randint(8, 10)])
            density = rng.choice((0.1, 0.2, 0.35))
            edges = [e for e in itertools.combinations(players, 2) if rng.random() < density]
            hyps = [Atom(frozenset(rng.sample(players, rng.randint(0, 3))),
                         frozenset(rng.sample(players, rng.randint(1, 2))))
                    for _ in range(rng.randint(0, 3))]
            assert_same_sweeps(DependencyGraph.of(players, edges), hyps)

    @pytest.mark.parametrize("spec, hyps", [
        (("a", ""), []),
        (("a", ""), [("", "a")]),
        (("a b c d e", "a-b d-e"), [("a", "b"), ("a", "e")]),
        (("a b c d e f", "a-b b-c d-e"), [("c", "f"), ("d", "a")]),
        ("gamma5", []),
        ("gamma1", [("", "d")]),
        ("gamma4", [("a c", "a"), ("b c d", "c d")]),
        (("a b c d e f g h", ""), [("a", "b"), ("c d", "e"), ("e", "a h")]),
        (("a b c d e f g h", "a-b a-c a-d a-e a-f a-g a-h"), [("b", "c"), ("a c", "h")]),
        (("a b c d e f g", " ".join(f"{u}-{v}" for u, v in itertools.combinations("abcdefg", 2))),
         [("a", "b"), ("c d", "e")]),
        (("a b c d e f g h", "a-b b-c c-d d-a e-f f-g g-h"), [("a", "e"), ("f", "c"), ("h", "b")]),
        (("a b c d e f g h", "a-b b-c c-d d-e"), [("a", "f"), ("f", "e"), ("h", "g")]),
    ], ids=["one-vertex", "one-vertex-empty-lhs", "disconnected", "isolated-vertex",
            "no-hypotheses", "empty-lhs", "rhs-inside-lhs", "edgeless", "star", "complete",
            "two-components", "isolated-vertices"])
    def test_matches_on_edge_cases(self, spec, hyps):
        assert_same_sweeps(graph_of(spec), [atom(lhs, rhs) for lhs, rhs in hyps])


def tree_from(table, lhs_mask, rhs_mask) -> str:
    builder = _TreeBuilder(table)
    return print_derivation(builder.compact(builder.goal(lhs_mask, rhs_mask)), table.graph)


def stops(history, lhs, rhs):
    """The index of the first snapshot that holds each goal (lhs, rhs masks,
    broadcast together), len(history) where none does."""
    stop = np.full(np.broadcast(lhs, rhs).shape, len(history))
    for s in reversed(range(len(history))):
        stop[(rhs & ~history[s][lhs]) == 0] = s
    return stop


def assert_stops_at_goal(graph, hyps, pick=lambda goals: goals[0]):
    """For one goal per stop, picked from those with that stop in (lhs,
    rhs) order, the table saturated for it is `saturate`'s up to the first
    snapshot that holds the goal, all of it when none does, and a derivable
    goal prints the same derivation from it as from the full table."""
    hyps = Hypotheses.of(hyps)
    full = saturate(graph, hyps)
    size = 1 << len(graph.players)
    stop = stops(full._history, *np.divmod(np.arange(size * size), size))
    goals = [divmod(int(pick(np.flatnonzero(stop == s))), size) for s in np.unique(stop)]
    for lhs, rhs in goals:
        table = _sweeps(graph, hyps, (lhs, rhs))
        last = min(int(stops(full._history, lhs, rhs)), len(full._history) - 1)
        assert table._kinds == full._kinds[:last + 1]
        assert len(table._history) == last + 1
        for mine, theirs in zip(table._history, full._history):
            assert np.array_equal(mine, theirs)
        if rhs & ~table.closure_mask(lhs) == 0:
            assert (table._borders is None) == ("contiguity" not in table._kinds)
            assert tree_from(table, lhs, rhs) == tree_from(full, lhs, rhs)


class TestGoalStop:
    """`derive_tree` and `derives` saturate only as far as their goal."""

    def test_every_graph_of_at_most_3_players_and_2_hypotheses(self):
        for n in range(1, 4):
            players = "abc"[:n]
            pairs = list(itertools.combinations(players, 2))
            sets = [frozenset(c) for r in range(n + 1)
                    for c in itertools.combinations(players, r)]
            # a hypothesis whose rhs lies inside its lhs seeds nothing
            atoms = [Atom(lhs, rhs) for lhs in sets for rhs in sets if not rhs <= lhs]
            hypothesis_sets = [[]] + [[a] for a in atoms] + [
                list(two) for two in itertools.combinations(atoms, 2)]
            for chosen in range(1 << len(pairs)):
                graph = DependencyGraph.of(
                    players, [e for i, e in enumerate(pairs) if chosen >> i & 1])
                for hyps in hypothesis_sets:
                    assert_stops_at_goal(graph, hyps)

    @pytest.mark.parametrize("sizes, cases", [((4, 5), 60), ((8, 10), 20)])
    def test_seeded_graphs(self, sizes, cases):
        rng = random.Random(20)
        for _ in range(cases):
            players = list("abcdefghij"[:rng.randint(*sizes)])
            edges = [e for e in itertools.combinations(players, 2)
                     if rng.random() < rng.choice((0.15, 0.3, 0.5))]
            graph = DependencyGraph.of(players, edges)
            hyps = [Atom(frozenset(rng.sample(players, rng.randint(0, 3))),
                         frozenset(rng.sample(players, rng.randint(1, 2))))
                    for _ in range(rng.randint(0, 3))]
            assert_stops_at_goal(graph, hyps, rng.choice)


class TestChangedKeys:
    """The Contiguity sweep, which scatters only the pairs whose key row is
    not the identity, adds what a sweep of every pair adds, on any table
    whose rows hold their own sets."""

    def test_matches_a_sweep_of_every_pair_on_grown_tables(self):
        rng = np.random.default_rng(7)
        graphs = [builtin_graph(name) for name in ("gamma1", "gamma4", "gamma5", "triangle")]
        graphs.append(graph_of(("a b c d e", "")))
        graphs.append(graph_of(CYCLE12))
        for _ in range(20):
            players = list("abcdefgh"[:rng.integers(2, 9)])
            graphs.append(DependencyGraph.of(players, [
                e for e in itertools.combinations(players, 2) if rng.random() < 0.35]))
        for graph in graphs:
            n = len(graph.players)
            bits = np.int64(1) << np.arange(n, dtype=np.int64)

            def grown(table):
                rows = rng.random(len(table)) < 0.3
                return table | np.where(rows, (rng.random((len(table), n)) < 0.2) @ bits, 0)

            borders, (keys, targets, outside) = _cut_table(graph)
            cl = grown(np.arange(1 << n, dtype=np.int64))
            for _ in range(3):
                every_pair = cl.copy()
                np.bitwise_or.at(every_pair, targets, cl[keys] & outside)
                swept_borders, new = _contiguity(graph, cl)
                assert np.array_equal(swept_borders, borders)
                assert np.array_equal(new, every_pair)
                cl = grown(new)


class TestCheckOrder:
    """`derive_tree` and `derives` apply the size guard first, then check the
    hypotheses' players, then the goal's."""

    @pytest.mark.parametrize("prove", [derive_tree, derives])
    def test_size_guard_before_unknown_goal_players(self, prove):
        names = [f"p{i}" for i in range(MAX_SATURATION_VERTICES + 1)]
        edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
        graph = DependencyGraph.of(names, edges)
        with pytest.raises(ResourceLimitError, match="capped"):
            prove(graph, [atom("zz", "p0")], {"zz"}, {"p1"})

    @pytest.mark.parametrize("prove", [derive_tree, derives])
    def test_unknown_hypothesis_players_before_unknown_goal_players(self, prove):
        graph = builtin_graph("gamma1")
        with pytest.raises(InputError, match="unknown player 'yy'"):
            prove(graph, [atom("a", "yy")], {"zz"}, {"ww"})
        with pytest.raises(InputError, match="unknown player 'zz'"):
            prove(graph, [atom("a", "d")], {"zz"}, {"a"})


def every_small_graph():
    """`(graph, player sets, hypothesis sets)` for every graph of at most 4
    players: no hypothesis and each single atom whose rhs is not inside its
    lhs up to 3 players, and 6 seeded sets of 1-3 such atoms on 4."""
    rng = random.Random(4)
    for n in range(1, 5):
        players = "abcd"[:n]
        pairs = list(itertools.combinations(players, 2))
        sets = [frozenset(c) for r in range(n + 1)
                for c in itertools.combinations(players, r)]
        atoms = [Atom(lhs, rhs) for lhs in sets for rhs in sets if not rhs <= lhs]
        for chosen in range(1 << len(pairs)):
            graph = DependencyGraph.of(
                players, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            if n < 4:
                hypothesis_sets = [[]] + [[a] for a in atoms]
            else:
                hypothesis_sets = [rng.sample(atoms, rng.randint(1, 3)) for _ in range(6)]
            yield graph, sets, hypothesis_sets


def seeded_hypotheses(rng, players, count):
    return [Atom(frozenset(rng.sample(players, rng.randint(0, 3))),
                 frozenset(rng.sample(players, rng.randint(1, 2))))
            for _ in range(count)]


def assert_fixpoint_matches(graph, hyps):
    """`_fixpoint_derives` agrees with `saturate` on every (X, v), and on the
    rhs cl(X) and V."""
    hyps = Hypotheses.of(hyps)
    table = saturate(graph, hyps)
    n = len(graph.players)
    full = (1 << n) - 1
    for x in range(1 << n):
        closed = table.closure_mask(x)
        for v in range(n):
            assert _fixpoint_derives(graph, hyps, x, 1 << v) == bool(closed >> v & 1), (
                f"{graph.players} {hyps}: X={x:b} v={v}")
        assert _fixpoint_derives(graph, hyps, x, closed)
        assert _fixpoint_derives(graph, hyps, x, full) == (closed == full)


def family(kind: str, n: int) -> DependencyGraph:
    players = [f"p{i}" for i in range(n)]
    if kind == "path":
        edges = list(zip(players, players[1:]))
    elif kind == "cycle":
        edges = list(zip(players, players[1:] + players[:1]))
    elif kind == "star":
        edges = [(players[0], p) for p in players[1:]]
    else:  # ladder: two rails of n/2 players and a rung between each pair
        left, right = players[:n // 2], players[n // 2:]
        edges = list(zip(left, left[1:])) + list(zip(right, right[1:])) + list(zip(left, right))
    return DependencyGraph.of(players, edges)


class TestFixpoint:
    """The semantic closure oracle and `_fixpoint_derives` agree with
    `saturate`'s fixpoint."""

    def test_oracle_matches_saturate_on_every_graph_of_at_most_4_players(self):
        for graph, sets, hypothesis_sets in every_small_graph():
            for hyps in hypothesis_sets:
                hyps = Hypotheses.of(hyps)
                table = saturate(graph, hyps)
                for x in sets:
                    assert semantic_closure(graph, hyps, x) == table.closure(x), (
                        f"{graph} {hyps}: X={sorted(x)}")

    def test_fixpoint_matches_saturate_on_seeded_graphs(self):
        rng = random.Random(21)
        for _ in range(40):
            players = list("abcdefghij"[:rng.randint(5, 10)])
            edges = [e for e in itertools.combinations(players, 2)
                     if rng.random() < rng.choice((0.15, 0.3, 0.5))]
            assert_fixpoint_matches(DependencyGraph.of(players, edges),
                                    seeded_hypotheses(rng, players, rng.randint(0, 3)))

    @pytest.mark.parametrize("kind", ["cycle", "path", "ladder", "star"])
    def test_fixpoint_matches_saturate_on_shapes(self, kind):
        rng = random.Random(kind)
        for n in range(4 if kind == "ladder" else 3, 13, 2 if kind == "ladder" else 1):
            graph = family(kind, n)
            assert_fixpoint_matches(graph, seeded_hypotheses(rng, list(graph.players),
                                                             rng.randint(1, 3)))


class TestNoTableWhenNotDerivable:
    """A "not derivable" `derive_tree` or `prove`, and every `derives`,
    answer without the closure table."""

    def refuse_the_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the closure table was built")
        monkeypatch.setattr(prover, "_sweeps", refuse)
        monkeypatch.setattr(prover, "_cut_table", refuse)

    def test_not_derivable_tree_and_every_derives(self, monkeypatch):
        graph = builtin_graph("gamma1")
        hyps = [atom("a", "d")]
        table = saturate(graph, hyps)
        self.refuse_the_table(monkeypatch)
        assert derive_tree(graph, [], {"a"}, {"d"}) is None
        assert derive_tree(graph, hyps, {"b"}, {"d"}) is None
        sets = [frozenset(c) for r in range(5) for c in itertools.combinations("abcd", r)]
        answers = {True: 0, False: 0}
        for lhs in sets:
            for rhs in sets:
                answer = derives(graph, hyps, lhs, rhs)
                assert answer == table.derives(lhs, rhs)
                answers[answer] += 1
        assert min(answers.values()) > 0

    def test_not_derivable_prove(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text(print_graph(builtin_graph("gamma1")))
        self.refuse_the_table(monkeypatch)
        assert main(["prove", str(path), "a |> d"]) == 1
        assert capsys.readouterr().out == "not derivable\n"

    @pytest.mark.parametrize("prove", [derive_tree, derives])
    def test_size_guard_before_the_fixpoint(self, prove, monkeypatch):
        names = [f"p{i}" for i in range(MAX_SATURATION_VERTICES + 1)]
        graph = DependencyGraph.of(names, list(zip(names, names[1:])))
        self.refuse_the_table(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("the fixpoint ran")
        monkeypatch.setattr(prover, "_fixpoint_derives", refuse)
        with pytest.raises(ResourceLimitError, match="capped"):
            prove(graph, [], {"p0"}, {"p3"})


def renamed(graph, hyps, rng):
    """The graph with its players renamed and declared in a shuffled order,
    its hypotheses, and the renaming."""
    order = rng.sample(graph.players, len(graph.players))
    names = rng.sample([f"{c}{i}" for c in "qxz" for i in range(10)], len(order))
    rename = dict(zip(order, names))
    graph = DependencyGraph.of(names, [(rename[u], rename[v]) for u, v in graph.edges])
    return graph, [Atom(frozenset(map(rename.get, a.lhs)), frozenset(map(rename.get, a.rhs)))
                   for a in hyps], rename


def prove_code(graph, hyps, lhs, rhs, tmp_path) -> int:
    """The exit status of `prove` on the graph, its hypotheses and lhs |> rhs."""
    document = tmp_path / "graph.txt"
    document.write_text(print_graph(graph))
    goal = Atom(frozenset(lhs), frozenset(rhs))
    assume = [arg for a in hyps for arg in ("--assume", print_formula(a, graph))]
    return main(["prove", str(document), print_formula(goal, graph), *assume])


class TestRenaming:
    """Renaming the players and reordering their declarations changes no
    `derives` verdict and no `prove` exit code."""

    def test_seeded_graphs_of_5_to_9_players(self, tmp_path, capsys):
        rng = random.Random(9)
        verdicts = []
        for _ in range(30):
            players = [f"p{i}" for i in range(rng.randint(5, 9))]
            graph = DependencyGraph.of(players, [
                e for e in itertools.combinations(players, 2) if rng.random() < 0.3])
            hyps = seeded_hypotheses(rng, players, rng.randint(1, 3))
            other, other_hyps, rename = renamed(graph, hyps, rng)
            goals = [(frozenset(rng.sample(players, rng.randint(0, len(players) - 1))),
                      frozenset(rng.sample(players, rng.randint(1, 2)))) for _ in range(200)]
            mine = [derives(graph, hyps, lhs, rhs) for lhs, rhs in goals]
            assert mine == [derives(other, other_hyps, map(rename.get, lhs), map(rename.get, rhs))
                            for lhs, rhs in goals]
            verdicts += mine
            # `prove` on one derivable and one not derivable goal, where there are
            picks = [goals[mine.index(answer)] for answer in (True, False) if answer in mine]
            codes = [prove_code(graph, hyps, lhs, rhs, tmp_path) for lhs, rhs in picks]
            assert codes == [prove_code(other, other_hyps, map(rename.get, lhs),
                                        map(rename.get, rhs), tmp_path) for lhs, rhs in picks]
            assert codes == [0 if derives(graph, hyps, lhs, rhs) else 1 for lhs, rhs in picks]
            capsys.readouterr()
        assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


if __name__ == "__main__":
    corpus = checker_corpus(seed=20261020, count=400)
    CHECK_CORPUS.write_text(
        "[\n" + ",\n".join(json.dumps(case) for case in corpus) + "\n]\n", encoding="utf-8")
    print(f"{len(corpus)} derivations recorded in {CHECK_CORPUS}")
