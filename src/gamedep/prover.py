"""Derivability of dependence atoms from hypotheses over a fixed graph.

The calculus has four rule schemas over atoms `A |> B`:

* Reflexivity:       A |> B            whenever B is a subset of A
* Augmentation:      A |> B  gives  A,C |> B,C
* Transitivity:      A |> B  and  B |> C  give  A |> C
* Contiguity:        A,B |> C  gives  border(U),border(W),B |> C
                     for any cut (U, W) with A inside U and C inside W

plus the derived rule LeftMonotonicity (A |> C gives A,B |> C), which the
checker accepts and the tree builder uses as a shortcut.

The decision procedure computes, for every subset X of the vertices, the
closure cl(X) of players derivable from X, as the least fixpoint of

  (i)   cl(X) contains X,
  (ii)  if Y is a subset of cl(X) then cl(X) absorbs cl(Y)
        (hypotheses are seeded as cl(lhs) contains rhs, so this single
        rule covers both hypothesis application and transitive chaining),
  (iii) if c is in cl(X) and (U, W) is a cut with c in W, then c enters
        cl(border(U) | border(W) | (X minus U)).

Rule (iii) uses only the finest split of X across the cut; any coarser
split produces a superset of that left side and is therefore subsumed
once monotonicity (a special case of (ii)) is available.  A goal
`A |> B` is derivable iff B lies inside cl(A).

Saturation proceeds in snapshot sweeps: each sweep applies one rule to
every row of the table as it stood before the sweep.  Chain sweeps, for
rule (ii), repeat until nothing changes; then one Contiguity sweep, for
rule (iii), runs, and the two alternate until neither adds a fact.

A chain sweep is a subset-OR transform: up[Z], the union of cl(Y) over all
Y inside Z, is built in place in n passes (pass v ORs each row without
vertex v into the row with it), and the new row X is up[cl(X)].  Rows with
cl(Y) = Y add only Y, which cl(X) already holds, so this equals absorbing
every cl(Y) with Y inside cl(X) one Y at a time.

A Contiguity sweep reads the cut-pair table.  It runs only after the chain
sweeps reached their fixpoint, where cl is monotone: X inside X' lies
inside cl(X'), so a chain sweep would add cl(X) to cl(X'), and at the
fixpoint it adds nothing.  So for each vertex v the sources
{X : v in cl(X)} form an up-set.  For a cut (U, W) with v in W, the
distinct parts X minus U kept by those sources are therefore exactly the
Y inside W with v in cl(U | Y), and rule (iii) sends each to the row
border(U) | border(W) | Y.

For a fixed U, the parts Y sent to one target T differ only in how much of
border(W) they hold, and the largest of them, T & W, holds all of it.
cl(U | Y) lies inside cl(U | (T & W)) by monotonicity, so that one pair
adds all the others add.  The table therefore lists only the separating
pairs: (U, Y inside W) with Y containing border(W), that is, with no edge
from U to Z = W minus Y.  Each has key U | Y, target border(U) | Y and
mask W, and the sweep ORs cl(key) & W into the row of each target.  That
is rule (iii) for every source, every cut and every c at once, exactly.
How many pairs there are depends on the edges: 39,203 on a 12-cycle,
8,191 on the complete graph of 12, and all 3^n only on an edgeless graph.

The cuts enter through one cut table, built from the graph once per
saturation: one array of border(U) | border(W) for every left side U, and
the pair table above, read from it.  The tree builder keeps the array, and
for a fact about v searches the left sides U with v outside it, in
ascending order, for the cut that produced the fact.

Saturation keeps cl as it stood after each sweep.  A fact's sweep is the
first snapshot that holds it, which lets `derive_tree` rebuild an
explicit, independently checkable derivation by running the producing
rule of each fact backwards against the snapshot before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .core import (
    Atom,
    Cut,
    DependencyGraph,
    InputError,
    PlayerSet,
    ResourceLimitError,
)

__all__ = [
    "Augmentation",
    "ByHypothesis",
    "ClosureTable",
    "Contiguity",
    "Derivation",
    "DerivationCheck",
    "Hypotheses",
    "LeftMonotonicity",
    "MAX_SATURATION_VERTICES",
    "Reflexivity",
    "Step",
    "Transitivity",
    "check_derivation",
    "derive_tree",
    "derives",
    "saturate",
    "sparse",
    "sparse_set_principle",
]

MAX_SATURATION_VERTICES = 12


@dataclass(frozen=True)
class Hypotheses:
    """An ordered, deduplicated collection of assumed dependence atoms."""

    atoms: tuple[Atom, ...] = ()

    @classmethod
    def of(cls, items: Iterable[Atom | tuple]) -> "Hypotheses":
        atoms: list[Atom] = []
        for item in items:
            atom = item if isinstance(item, Atom) else Atom.of(*item)
            if atom not in atoms:
                atoms.append(atom)
        return cls(tuple(atoms))

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms


@dataclass(frozen=True)
class ByHypothesis:
    pass


@dataclass(frozen=True)
class Reflexivity:
    pass


@dataclass(frozen=True)
class Augmentation:
    premise: int
    added: PlayerSet


@dataclass(frozen=True)
class Transitivity:
    first: int
    second: int


@dataclass(frozen=True)
class Contiguity:
    premise: int
    cut: Cut
    separated: PlayerSet  # the part of the premise lhs replaced by borders


@dataclass(frozen=True)
class LeftMonotonicity:
    premise: int
    added: PlayerSet


Justification = Union[ByHypothesis, Reflexivity, Augmentation, Transitivity,
                      Contiguity, LeftMonotonicity]


@dataclass(frozen=True)
class Step:
    atom: Atom
    rule: Justification


@dataclass(frozen=True)
class Derivation:
    steps: tuple[Step, ...]

    @property
    def conclusion(self) -> Atom:
        return self.steps[-1].atom

    def __len__(self) -> int:
        return len(self.steps)


def _check_size(graph: DependencyGraph) -> int:
    n = len(graph.players)
    if n > MAX_SATURATION_VERTICES:
        raise ResourceLimitError(
            f"graph has {n} vertices; the derivability engine is capped at "
            f"{MAX_SATURATION_VERTICES}")
    return n


def _cut_table(graph: DependencyGraph) -> tuple[np.ndarray,
                                                tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The cut borders and the separating cut pairs, from one border array.

    Borders: for each left side U, the mask of border(U) | border(W), where
    W is the complement of U.  Pairs: each (U, Y inside W) such that no
    edge joins U to Z = W minus Y, that is, with Y containing border(W);
    each once, with the source key U | Y, the target border(U) | Y and the
    mask W.  A Y that misses part of border(W) is left out: the pair with Y
    and all of border(W) has the same target and, once cl is monotone as it
    is at every Contiguity sweep, a key whose closure holds more.

    The pairs are built one vertex at a time: a vertex joins U only if none
    of its earlier neighbours is in Z, and Z only if none is in U, so the
    cost follows the number of pairs kept.  Z is read off the bits already
    placed, and U and Y are int32, so the edgeless worst case, which keeps
    all 3^n pairs, costs less memory than int64 pairs would.
    """
    n = len(graph.players)
    size = 1 << n
    adjacency = [graph.mask_of(graph.neighbors(name)) for name in graph.players]
    # escaping[v, U]: v is in U and has a neighbour outside it.  Subsets are
    # held in the smallest unsigned type, which keeps the (n, 2^n)
    # temporaries small: 12 int64 rows of 2^12 took longer than the loop
    # over vertices they replace
    subsets = np.arange(size, dtype=np.min_scalar_type(size - 1))
    bits = (1 << np.arange(n)).astype(subsets.dtype)[:, None]
    escaping = (((subsets & bits) != 0)
                & ((~subsets & np.array(adjacency, subsets.dtype)[:, None]) != 0))
    border = np.bitwise_or.reduce(np.where(escaping, bits, 0), axis=0).astype(np.int64)
    earlier = [adj & ((1 << v) - 1) for v, adj in enumerate(adjacency)]
    full = size - 1
    borders = border | border[full ^ subsets]
    us = np.zeros(1, dtype=np.int32)
    ys = np.zeros(1, dtype=np.int32)
    for v in range(n):
        bit = np.int32(1 << v)
        adj = earlier[v]
        if adj:
            into_u = (~(us | ys) & adj) == 0
            into_z = (us & adj) == 0
            us = np.concatenate((us[into_u] | bit, us[into_z], us))
            ys = np.concatenate((ys[into_u], ys[into_z], ys | bit))
        else:
            us = np.concatenate((us | bit, us, us))
            ys = np.concatenate((ys, ys, ys | bit))
    return borders, (us | ys, borders[us] | ys, full ^ us)


@dataclass
class ClosureTable:
    """Saturated closure of every vertex subset under the hypotheses.

    `_history[s]` is cl as it stood after sweep s, index 0 being the seeded
    table, and `_kinds[s]` names that sweep; the last snapshot is the
    fixpoint.  `_borders` is the border array of the cut table saturation
    built, kept for the tree builder.
    """

    graph: DependencyGraph
    hypotheses: Hypotheses
    _history: tuple[np.ndarray, ...]
    _kinds: tuple[str, ...]    # sweep kinds; index 0 is the seeding
    _borders: np.ndarray       # _borders[U]: border(U) | border(W), W the complement of U

    def closure_mask(self, lhs_mask: int) -> int:
        return int(self._history[-1][lhs_mask])

    def closure(self, lhs: Iterable[str]) -> PlayerSet:
        return self.graph.players_of_mask(self.closure_mask(self.graph.mask_of(lhs)))

    def derives(self, lhs: Iterable[str], rhs: Iterable[str]) -> bool:
        rhs_mask = self.graph.mask_of(rhs)
        return rhs_mask & ~self.closure_mask(self.graph.mask_of(lhs)) == 0


def saturate(graph: DependencyGraph,
             hypotheses: Hypotheses | Iterable) -> ClosureTable:
    """Run the closure computation to its global fixpoint."""
    n = _check_size(graph)
    if not isinstance(hypotheses, Hypotheses):
        hypotheses = Hypotheses.of(hypotheses)
    for atom in hypotheses:
        graph.check_players(atom.lhs)
        graph.check_players(atom.rhs)

    borders, (keys, targets, outside) = _cut_table(graph)
    cl = np.arange(1 << n, dtype=np.int64)
    for atom in hypotheses:
        cl[graph.mask_of(atom.lhs)] |= graph.mask_of(atom.rhs)
    history = [cl]
    kinds = ["seed"]

    def record(new: np.ndarray, kind: str) -> bool:
        nonlocal cl
        if np.array_equal(new, cl):
            return False
        history.append(new)
        kinds.append(kind)
        cl = new
        return True

    while True:
        progressed = False
        while True:
            up = cl.copy()
            for v in range(n):
                halves = up.reshape(-1, 2, 1 << v)
                halves[:, 1] |= halves[:, 0]
            if not record(up[cl], "chain"):
                break
            progressed = True
        new = cl.copy()
        np.bitwise_or.at(new, targets, cl[keys] & outside)
        if record(new, "contiguity"):
            progressed = True
        if not progressed:
            break

    return ClosureTable(graph, hypotheses, tuple(history), tuple(kinds), borders)


def derives(graph: DependencyGraph, hypotheses: Hypotheses | Iterable,
            lhs: Iterable[str], rhs: Iterable[str]) -> bool:
    return saturate(graph, hypotheses).derives(lhs, rhs)


class _TreeBuilder:
    """Rebuilds an explicit derivation from the saturation snapshots."""

    def __init__(self, table: ClosureTable):
        self.table = table
        self.graph = table.graph
        self.n = len(table.graph.players)
        self.full = (1 << self.n) - 1
        self.ids = np.arange(1 << self.n, dtype=np.int64)
        self.steps: list[Step] = []
        self.memo: dict[Atom, int] = {}
        self.hyp_masks = [(self.graph.mask_of(a.lhs), self.graph.mask_of(a.rhs), a)
                          for a in table.hypotheses]

    def players_of(self, mask: int) -> PlayerSet:
        return self.graph.players_of_mask(mask)

    def emit(self, atom: Atom, rule: Justification) -> int:
        index = self.memo.get(atom)
        if index is None:
            self.steps.append(Step(atom, rule))
            index = len(self.steps) - 1
            self.memo[atom] = index
        return index

    def hypothesis_step(self, atom: Atom) -> int:
        return self.emit(atom, ByHypothesis())

    def fact(self, x: int, v: int) -> int:
        """Step index deriving `players(x) |> {v}`."""
        atom = Atom(self.players_of(x), frozenset({self.graph.players[v]}))
        cached = self.memo.get(atom)
        if cached is not None:
            return cached
        sweep = next((s for s, snapshot in enumerate(self.table._history)
                      if snapshot[x] >> v & 1), None)
        if sweep is None:
            raise AssertionError("fact requested for an underivable atom")
        kind = self.table._kinds[sweep]
        if kind == "seed":
            if x >> v & 1:
                return self.emit(atom, Reflexivity())
            for lhs, rhs, hyp_atom in self.hyp_masks:
                if lhs == x and rhs >> v & 1:
                    h = self.hypothesis_step(hyp_atom)
                    if hyp_atom == atom:
                        return h
                    projection = self.emit(Atom(hyp_atom.rhs, atom.rhs), Reflexivity())
                    return self.emit(atom, Transitivity(h, projection))
            raise AssertionError("seeded fact matches no hypothesis")
        if kind == "chain":
            y = self.find_chain_source(x, v, sweep)
            premise = self.fact(y, v)
            if y & ~x == 0:
                added = self.players_of(x & ~y)
                return self.emit(atom, LeftMonotonicity(premise, added))
            joined = self.union_step(x, y)
            return self.emit(atom, Transitivity(joined, premise))
        source, u = self.find_contiguity_source(x, v, sweep)
        premise = self.fact(source, v)
        cut = Cut(self.players_of(u), self.players_of(self.full ^ u))
        separated = self.players_of(source & u)
        return self.emit(atom, Contiguity(premise, cut, separated))

    def find_chain_source(self, x: int, v: int, sweep: int) -> int:
        prev = self.table._history[sweep - 1]
        usable = ((self.ids & ~prev[x]) == 0) & ((prev >> v & 1) == 1)
        candidates = np.nonzero(usable)[0]
        if not candidates.size:
            raise AssertionError("no chain source found")
        return min((int(c) for c in candidates),
                   key=lambda m: (m.bit_count(), m))

    def find_contiguity_source(self, x: int, v: int, sweep: int) -> tuple[int, int]:
        prev = self.table._history[sweep - 1]
        sources = [int(s) for s in np.nonzero(prev >> v & 1)[0]]
        sources.sort(key=lambda m: (m.bit_count(), m))
        us = self.ids[(self.ids >> v & 1) == 0]
        base = self.table._borders[us]
        for source in sources:
            matches = us[(base | (source & ~us)) == x]
            if matches.size:
                return source, int(matches.min())
        raise AssertionError("no contiguity source found")

    def union_step(self, x: int, y: int) -> int:
        """Step index deriving `players(x) |> players(y)`."""
        x_set, y_set = self.players_of(x), self.players_of(y)
        atom = Atom(x_set, y_set)
        cached = self.memo.get(atom)
        if cached is not None:
            return cached
        if y & ~x == 0:
            return self.emit(atom, Reflexivity())
        missing = [v for v in range(self.n) if (y & ~x) >> v & 1]
        if len(y_set) == 1:
            return self.fact(x, missing[0])
        if len(missing) == 1:
            premise = self.fact(x, missing[0])
            added = self.players_of(y & ~(1 << missing[0]))
            return self.emit(atom, Augmentation(premise, added))
        chain = None
        gathered = x
        for i, v in enumerate(missing):
            premise = self.fact(x, v)
            last = i == len(missing) - 1
            added_mask = (y & ~(1 << v)) if last else gathered
            target = y if last else (gathered | 1 << v)
            step = self.emit(Atom(self.players_of(x | added_mask), self.players_of(target)),
                             Augmentation(premise, self.players_of(added_mask)))
            chain = step if chain is None else self.emit(
                Atom(x_set, self.players_of(target)), Transitivity(chain, step))
            gathered |= 1 << v
        return chain

    def goal(self, lhs_mask: int, rhs_mask: int) -> int:
        atom = Atom(self.players_of(lhs_mask), self.players_of(rhs_mask))
        if atom in self.table.hypotheses:
            return self.hypothesis_step(atom)
        return self.union_step(lhs_mask, rhs_mask)

    def compact(self, root: int) -> Derivation:
        needed = set()
        stack = [root]
        while stack:
            index = stack.pop()
            if index in needed:
                continue
            needed.add(index)
            rule = self.steps[index].rule
            if isinstance(rule, (Augmentation, Contiguity, LeftMonotonicity)):
                stack.append(rule.premise)
            elif isinstance(rule, Transitivity):
                stack.extend((rule.first, rule.second))
        order = sorted(needed)
        remap = {old: new for new, old in enumerate(order)}
        rebuilt = []
        for old in order:
            atom, rule = self.steps[old].atom, self.steps[old].rule
            if isinstance(rule, Augmentation):
                rule = Augmentation(remap[rule.premise], rule.added)
            elif isinstance(rule, Transitivity):
                rule = Transitivity(remap[rule.first], remap[rule.second])
            elif isinstance(rule, Contiguity):
                rule = Contiguity(remap[rule.premise], rule.cut, rule.separated)
            elif isinstance(rule, LeftMonotonicity):
                rule = LeftMonotonicity(remap[rule.premise], rule.added)
            rebuilt.append(Step(atom, rule))
        return Derivation(tuple(rebuilt))


def derive_tree(graph: DependencyGraph, hypotheses: Hypotheses | Iterable,
                lhs: Iterable[str], rhs: Iterable[str]) -> Derivation | None:
    """An explicit derivation of `lhs |> rhs`, or None when there is none."""
    table = saturate(graph, hypotheses)
    lhs = graph.check_players(lhs)
    rhs = graph.check_players(rhs)
    if not table.derives(lhs, rhs):
        return None
    builder = _TreeBuilder(table)
    root = builder.goal(graph.mask_of(lhs), graph.mask_of(rhs))
    return builder.compact(root)


# --- checking ---------------------------------------------------------------


@dataclass(frozen=True)
class DerivationCheck:
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_derivation(graph: DependencyGraph, hypotheses: Hypotheses | Iterable,
                     derivation: Derivation) -> DerivationCheck:
    """Validate every step against its rule schema; never raises on bad proofs."""
    if not isinstance(hypotheses, Hypotheses):
        hypotheses = Hypotheses.of(hypotheses)
    problems: list[str] = []
    steps = derivation.steps
    if not steps:
        return DerivationCheck(False, ("derivation has no steps",))

    def scope_ok(index: int, players: PlayerSet) -> bool:
        try:
            graph.check_players(players)
            return True
        except InputError as exc:
            problems.append(f"step {index + 1}: {exc}")
            return False

    def premise(index: int, reference: int) -> Atom | None:
        if not 0 <= reference < index:
            problems.append(
                f"step {index + 1}: premise {reference + 1} is not an earlier step")
            return None
        return steps[reference].atom

    for i, step in enumerate(steps):
        atom, rule = step.atom, step.rule
        if not (scope_ok(i, atom.lhs) and scope_ok(i, atom.rhs)):
            continue
        if isinstance(rule, ByHypothesis):
            if atom not in hypotheses:
                problems.append(f"step {i + 1}: atom is not among the hypotheses")
        elif isinstance(rule, Reflexivity):
            if not atom.rhs <= atom.lhs:
                problems.append(f"step {i + 1}: rhs is not a subset of lhs")
        elif isinstance(rule, Augmentation):
            source = premise(i, rule.premise)
            if source is None or not scope_ok(i, rule.added):
                continue
            if atom.lhs != source.lhs | rule.added:
                problems.append(f"step {i + 1}: lhs is not the premise lhs plus C")
            if atom.rhs != source.rhs | rule.added:
                problems.append(f"step {i + 1}: rhs is not the premise rhs plus C")
        elif isinstance(rule, Transitivity):
            first = premise(i, rule.first)
            second = premise(i, rule.second)
            if first is None or second is None:
                continue
            if first.rhs != second.lhs:
                problems.append(
                    f"step {i + 1}: middle sets do not match between the premises")
            if atom.lhs != first.lhs or atom.rhs != second.rhs:
                problems.append(f"step {i + 1}: conclusion does not chain the premises")
        elif isinstance(rule, Contiguity):
            source = premise(i, rule.premise)
            if source is None:
                continue
            if not (scope_ok(i, rule.cut.left) and scope_ok(i, rule.cut.right)
                    and scope_ok(i, rule.separated)):
                continue
            try:
                rule.cut.check(graph)
            except InputError as exc:
                problems.append(f"step {i + 1}: {exc}")
                continue
            left, right = rule.cut.left, rule.cut.right
            if not rule.separated <= left:
                problems.append(f"step {i + 1}: A is not a subset of U")
                continue
            if not rule.separated <= source.lhs:
                problems.append(f"step {i + 1}: A is not part of the premise lhs")
                continue
            if not source.rhs <= right:
                problems.append(f"step {i + 1}: premise rhs is not inside W")
                continue
            expected = (graph.border(left) | graph.border(right)
                        | (source.lhs - rule.separated))
            if atom.lhs != expected:
                problems.append(
                    f"step {i + 1}: lhs is not border(U), border(W), and the kept part")
            if atom.rhs != source.rhs:
                problems.append(f"step {i + 1}: rhs differs from the premise rhs")
        elif isinstance(rule, LeftMonotonicity):
            source = premise(i, rule.premise)
            if source is None or not scope_ok(i, rule.added):
                continue
            if atom.lhs != source.lhs | rule.added:
                problems.append(f"step {i + 1}: lhs is not the premise lhs plus the added set")
            if atom.rhs != source.rhs:
                problems.append(f"step {i + 1}: rhs differs from the premise rhs")
        else:
            problems.append(f"step {i + 1}: unknown rule {rule!r}")
    return DerivationCheck(not problems, tuple(problems))


# --- sparse sets ------------------------------------------------------------


def sparse(graph: DependencyGraph, players: Iterable[str]) -> bool:
    """True iff the players are pairwise at graph distance 3 or more."""
    members = graph.check_players(players)
    for u in members:
        near = {u} | graph.neighbors(u)
        for x in graph.neighbors(u):
            near |= graph.neighbors(x)
        if (near - {u}) & members:
            return False
    return True


def sparse_set_principle(graph: DependencyGraph,
                         players: Iterable[str]) -> Derivation | None:
    """For sparse W: from `everyone-but-w |> w` for each w, derive `V-W |> W`."""
    members = graph.check_players(players)
    if not sparse(graph, members):
        raise InputError(f"players {sorted(members)} are not sparse "
                         f"(pairwise distance at least 3 required)")
    everyone = graph.player_set()
    hypotheses = Hypotheses.of(
        Atom(everyone - {w}, frozenset({w})) for w in graph.sorted_players(members))
    return derive_tree(graph, hypotheses, everyone - members, members)
