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
rule (iii), runs, and if it added a fact, chain sweeps repeat again until
nothing changes.  That is the fixpoint: a second Contiguity sweep would
add nothing, as the proof after the fixpoint test shows.  `saturate`
always runs to it.  `derive_tree` first asks the fixpoint test below,
which needs no table, and returns None for a goal that is not derivable;
a derivable goal saturates only as far as its goal's snapshot: the seeded
table, or the first sweep whose goal row holds the rhs.  `derives` is the
fixpoint test alone.

The fixpoint test decides whether v lies in cl(X) without the 2^n table.
Let G² join two players at distance 1 or 2 in the graph, and H(Z) be Z
closed under the hypotheses alone (if A lies inside Z, add B).  `_near`
gives a player's closed neighbourhood in G², from neighbour sets; the test
below walks it, and `sparse` reads it too, since a sparse set (players
pairwise at distance 3 or more) is exactly an independent set of G².

  D <- H(X)
  while v is not in D:
      K <- the component of v in G² restricted to V minus D
      P <- H(V minus K) & K
      if P is empty: v is not derivable
      D <- D | P

Each round adds to D, so there are at most n rounds, each one Horn
closure and one component search in G².  For an rhs of several players D
carries over from one to the next, since it stays inside cl(X):

* Derivable side.  Let W = N[K], the players at distance at most 1 from
  K, and U = V minus W.  A player at distance 1 or 2 from K is in K or in
  D, so border(U) and N(K) = W minus K lie in D, and border(W) lies in
  N(K).  The hypotheses give (V minus K) |> P by Reflexivity,
  Augmentation and Transitivity, one H step at a time.  V minus K is U
  together with N(K), so Contiguity on the cut (U, W) with A = U gives
  border(U), border(W), N(K) |> P, whose lhs lies in D.  With X |> D that
  gives X |> D | P.
* Not derivable side.  When P is empty, V minus K holds X and is closed
  under the hypotheses, and K holds v and is connected in G².  Give every
  player the strategies 0 and 1: a player outside K prefers 0 iff its
  neighbours in K all play alike, and one in K prefers 0 if a neighbour
  outside K plays 1 or its neighbours in K disagree, and else copies them
  (is indifferent, when it has none).  The game's only equilibria are all
  0 and 1 on exactly K.  They agree on V minus K, so the game satisfies
  every hypothesis (one whose lhs meets K holds vacuously), and they
  differ on v, so it refutes X |> v.  By soundness v is not derivable.

The same argument shows that saturation needs one Contiguity sweep:

1. The chain sweeps from the seeded table reach H(X) in every row X.  At
   their fixpoint row X holds X and, for each hypothesis A |> B with A
   inside it, the row of A, which holds B, so it is closed under the
   hypotheses.  And a sweep adds to row X only the rows of sets Y inside
   it, which by induction lie inside H(Y), so inside H(X).
2. A round of the derivable side uses the premise (V minus K) |> P, with
   P = H(V minus K) & K, on the cut (U, W) = (V minus N[K], N[K]) with
   the kept part N(K), which holds border(W).  That is a separating pair
   of the cut table below, with key V minus K, target border(U) | N(K)
   and mask W.  So the Contiguity sweep, which reads H, puts P into row
   border(U) | N(K), for every K at once, so for every round of every
   query.
3. That row lies inside the D of the round, as the derivable side shows.
   The chain sweeps after the Contiguity sweep end at a chain fixpoint,
   where a row holding Y holds the row of Y.  So by induction over the
   rounds row X holds each round's D: it holds H(X), and once it holds D
   it holds the row of border(U) | N(K), which holds P.  Run the test
   over every player missing from D until no round adds anything: by the
   not derivable side its final D is all of cl(X).  So those chain sweeps
   carry every row X to cl(X).  Every sweep applies the rules, so no row
   exceeds cl(X), and a later sweep adds nothing.

A chain sweep is a subset-OR transform: up[Z], the union of cl(Y) over all
Y inside Z, is built in place in n passes (pass v ORs each row without
vertex v into the row with it), and the new row X is up[cl(X)].  Rows with
cl(Y) = Y add only Y, which cl(X) already holds, so this equals absorbing
every cl(Y) with Y inside cl(X) one Y at a time.

The Contiguity sweep reads the cut-pair table.  It runs only after the
chain sweeps reached their fixpoint, where cl is monotone: X inside X' lies
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

The Contiguity sweep ORs in only the pairs whose key row is not the
identity, that is, whose key is not closed under the hypotheses (the
sweep reads H).  This is exact: a row holding only its key adds
key & W = Y, which the target border(U) | Y already holds.

The cuts enter through one cut table, built from the graph on first use,
just before the Contiguity sweep, so a goal that holds before any
Contiguity sweep never builds it: one array of border(U) | border(W) for
every left side U, and the pair table above, read from it.  The tree
builder keeps the array, and for a fact about v searches the left sides U
with v outside it, in ascending order, for the cut that produced the fact.

Saturation keeps cl as it stood after each sweep.  A fact's sweep is the
first snapshot that holds it, which lets `derive_tree` rebuild an
explicit, independently checkable derivation by running the producing
rule of each fact backwards against the snapshot before.  The builder
reads only the snapshots up to each fact's first one, so a table stopped
at the goal's snapshot gives the same derivation as the full one.

numpy is imported inside the code that uses it (`_cut_table`,
`_contiguity`, `_sweeps`, `_TreeBuilder`), not at module level: every
`gamedep` process imports this module, but only saturation needs numpy,
and importing it is most of the start-up of `ne`, `check`, `validate`,
`prove-check` and a "not derivable" `prove`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Union

from .core import (
    Atom,
    Cut,
    DependencyGraph,
    InputError,
    PlayerSet,
    ResourceLimitError,
)

if TYPE_CHECKING:
    import numpy as np

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
        # a dict keeps the first-seen order and tests membership in O(1)
        atoms = dict.fromkeys(item if isinstance(item, Atom) else Atom.of(*item)
                              for item in items)
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
    is at the Contiguity sweep, a key whose closure holds more.

    The pairs are built one vertex at a time: a vertex joins U only if none
    of its earlier neighbours is in Z, and Z only if none is in U, so the
    cost follows the number of pairs kept.  Z is read off the bits already
    placed, and U and Y are int32, so the edgeless worst case, which keeps
    all 3^n pairs, costs less memory than int64 pairs would.
    """
    import numpy as np

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
    """Closure of every vertex subset under the hypotheses, sweep by sweep.

    `_history[s]` is cl as it stood after sweep s, index 0 being the seeded
    table, and `_kinds[s]` names that sweep: chain sweeps, at most one
    Contiguity sweep, then chain sweeps again.  From `saturate` the last
    snapshot is the fixpoint; the table `derive_tree` builds for a
    derivable goal ends at the first snapshot that holds it.  `_borders` is
    the border array of the cut table the Contiguity sweep read, kept for
    the tree builder, and None when no Contiguity sweep ran.
    """

    graph: DependencyGraph
    hypotheses: Hypotheses
    _history: tuple[np.ndarray, ...]
    _kinds: tuple[str, ...]    # sweep kinds; index 0 is the seeding
    _borders: np.ndarray | None  # _borders[U]: border(U) | border(W), W the complement of U

    def closure_mask(self, lhs_mask: int) -> int:
        return int(self._history[-1][lhs_mask])

    def closure(self, lhs: Iterable[str]) -> PlayerSet:
        return self.graph.players_of_mask(self.closure_mask(self.graph.mask_of(lhs)))

    def derives(self, lhs: Iterable[str], rhs: Iterable[str]) -> bool:
        rhs_mask = self.graph.mask_of(rhs)
        return rhs_mask & ~self.closure_mask(self.graph.mask_of(lhs)) == 0


def _contiguity(graph: DependencyGraph, cl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cut borders, and cl after one Contiguity sweep.

    The sweep ORs cl(key) & W into the row of each pair's target, but only
    for the pairs whose key row is not the identity; the module docstring
    says why that is exact.
    """
    import numpy as np

    borders, (keys, targets, outside) = _cut_table(graph)
    changed = np.flatnonzero(cl[keys] != keys)
    new = cl.copy()
    np.bitwise_or.at(new, targets[changed], cl[keys[changed]] & outside[changed])
    return borders, new


def _checked(graph: DependencyGraph, hypotheses: Hypotheses | Iterable) -> Hypotheses:
    """The hypotheses, after the size guard and a check of their players."""
    _check_size(graph)
    if not isinstance(hypotheses, Hypotheses):
        hypotheses = Hypotheses.of(hypotheses)
    for atom in hypotheses:
        graph.check_players(atom.lhs)
        graph.check_players(atom.rhs)
    return hypotheses


def _sweeps(graph: DependencyGraph, hypotheses: Hypotheses,
            goal: tuple[int, int] | None = None) -> ClosureTable:
    """Sweep to the fixpoint, or, given goal masks (lhs, rhs), only until
    the seeded table or a recorded snapshot has the rhs in the lhs row.

    `derive_tree` passes only goals the fixpoint test found derivable; a
    goal that never holds sweeps to the fixpoint, where `saturate` ends.
    """
    import numpy as np

    n = len(graph.players)
    cl = np.arange(1 << n, dtype=np.int64)
    for atom in hypotheses:
        cl[graph.mask_of(atom.lhs)] |= graph.mask_of(atom.rhs)
    history = [cl]
    kinds = ["seed"]

    def unmet(cl: np.ndarray) -> bool:
        return goal is None or bool(goal[1] & ~int(cl[goal[0]]))

    def chain_sweeps(cl: np.ndarray) -> np.ndarray:
        while unmet(cl):
            up = cl.copy()
            for v in range(n):
                halves = up.reshape(-1, 2, 1 << v)
                halves[:, 1] |= halves[:, 0]
            new = up[cl]
            if np.array_equal(new, cl):
                break
            history.append(new)
            kinds.append("chain")
            cl = new
        return cl

    # chain sweeps until nothing changes, one Contiguity sweep, and chain
    # sweeps again if it added a fact; a second Contiguity sweep would add
    # nothing, as the module docstring proves
    cl = chain_sweeps(cl)
    borders = None
    if unmet(cl):
        borders, new = _contiguity(graph, cl)
        if not np.array_equal(new, cl):
            history.append(new)
            kinds.append("contiguity")
            chain_sweeps(new)

    return ClosureTable(graph, hypotheses, tuple(history), tuple(kinds), borders)


def saturate(graph: DependencyGraph,
             hypotheses: Hypotheses | Iterable) -> ClosureTable:
    """Run the closure computation to its global fixpoint.

    Unlike `derive_tree`, which stops at its goal's snapshot, and
    `derives`, which builds no table, this always runs every sweep up to
    the fixpoint, so the table answers every goal.  Its sweeps are chain
    sweeps, at most one Contiguity sweep and the chain sweeps after it;
    no further sweep would add a fact.
    """
    return _sweeps(graph, _checked(graph, hypotheses))


def _near(graph: DependencyGraph, name: str) -> int:
    """The mask of the players at distance at most 2 from `name`, itself
    included: its closed neighbourhood in G², built from neighbour sets in
    O(deg²)."""
    reach = graph.closed_neighborhood(name)
    for other in graph.neighbors(name):
        reach |= graph.neighbors(other)
    return graph.mask_of(reach)


def _fixpoint_derives(graph: DependencyGraph, hypotheses: Hypotheses,
                      lhs_mask: int, rhs_mask: int) -> bool:
    """Whether the rhs lies inside cl(lhs), by the fixpoint test of the
    module docstring: no table, and at most n rounds."""
    rules = [(graph.mask_of(atom.lhs), graph.mask_of(atom.rhs)) for atom in hypotheses]

    def horn(closed: int) -> int:
        grown = True
        while grown:
            grown = False
            for lhs, rhs in rules:
                if lhs & ~closed == 0 and rhs & ~closed:
                    closed |= rhs
                    grown = True
        return closed

    near: dict[int, int] = {}       # `_near` by player index, for the players visited
    full = (1 << len(graph.players)) - 1
    derived = horn(lhs_mask)
    while rhs_mask & ~derived:
        missing = rhs_mask & ~derived
        # K: the component of a missing player in G² restricted to V - derived
        component = frontier = missing & -missing
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            if i not in near:
                near[i] = _near(graph, graph.players[i])
            grown = near[i] & ~derived & ~component
            component |= grown
            frontier |= grown
        gained = horn(full ^ component) & component
        if not gained:
            return False
        derived |= gained
    return True


def derives(graph: DependencyGraph, hypotheses: Hypotheses | Iterable,
            lhs: Iterable[str], rhs: Iterable[str]) -> bool:
    hypotheses = _checked(graph, hypotheses)
    rhs_mask = graph.mask_of(graph.check_players(rhs))
    lhs_mask = graph.mask_of(graph.check_players(lhs))
    return _fixpoint_derives(graph, hypotheses, lhs_mask, rhs_mask)


def _premises(rule: Justification) -> dict[str, int]:
    """The rule's premise fields, by name, with the step index each holds."""
    return {name: index for name, index in vars(rule).items()
            if name in ("premise", "first", "second")}


class _TreeBuilder:
    """Rebuilds an explicit derivation from the saturation snapshots."""

    def __init__(self, table: ClosureTable):
        import numpy as np

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

    def fact(self, x: int, v: int) -> int:
        """Step index deriving `players(x) |> {v}`, for a v outside x.

        Every call has v outside x: `union_step` asks only for players of y
        minus x, a chain source lies inside the snapshot before the first
        one that holds v, and a Contiguity source that held v would put v
        in x.  So a seeded fact comes from a hypothesis.
        """
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
            for lhs, rhs, hyp_atom in self.hyp_masks:
                if lhs == x and rhs >> v & 1:
                    h = self.emit(hyp_atom, ByHypothesis())
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
        candidates = usable.nonzero()[0]
        if not candidates.size:
            raise AssertionError("no chain source found")
        return min((int(c) for c in candidates),
                   key=lambda m: (m.bit_count(), m))

    def find_contiguity_source(self, x: int, v: int, sweep: int) -> tuple[int, int]:
        prev = self.table._history[sweep - 1]
        sources = [int(s) for s in (prev >> v & 1).nonzero()[0]]
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
            return self.emit(atom, ByHypothesis())
        return self.union_step(lhs_mask, rhs_mask)

    def compact(self, root: int) -> Derivation:
        """The steps the root needs, in their order, premises renumbered."""
        needed: dict[int, dict[str, int]] = {}  # step index -> its premises
        stack = [root]
        while stack:
            index = stack.pop()
            if index not in needed:
                needed[index] = _premises(self.steps[index].rule)
                stack.extend(needed[index].values())
        if len(needed) == len(self.steps):
            return Derivation(tuple(self.steps))  # nothing to drop or renumber
        order = sorted(needed)
        remap = {old: new for new, old in enumerate(order)}
        rebuilt = []
        for old in order:
            step = self.steps[old]
            renumbered = {name: remap[index] for name, index in needed[old].items()}
            rebuilt.append(Step(step.atom, replace(step.rule, **renumbered)))
        return Derivation(tuple(rebuilt))


def derive_tree(graph: DependencyGraph, hypotheses: Hypotheses | Iterable,
                lhs: Iterable[str], rhs: Iterable[str]) -> Derivation | None:
    """An explicit derivation of `lhs |> rhs`, or None when there is none."""
    hypotheses = _checked(graph, hypotheses)
    lhs_mask = graph.mask_of(graph.check_players(lhs))
    rhs_mask = graph.mask_of(graph.check_players(rhs))
    if not _fixpoint_derives(graph, hypotheses, lhs_mask, rhs_mask):
        return None
    builder = _TreeBuilder(_sweeps(graph, hypotheses, (lhs_mask, rhs_mask)))
    return builder.compact(builder.goal(lhs_mask, rhs_mask))


# --- checking ---------------------------------------------------------------


@dataclass(frozen=True)
class DerivationCheck:
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_derivation(graph: DependencyGraph, hypotheses: Hypotheses | Iterable,
                     derivation: Derivation) -> DerivationCheck:
    """Validate every step against its rule schema; never raises on bad proofs.

    `problems` holds one `step N: <fault>` line per fault, the steps in
    order and each step's faults in the order they are checked: the atom's
    players, the rule, its premise indices, the rule's preconditions, then
    the conclusion.  A failed precondition is its step's only fault: a
    player outside the graph, a premise that is not an earlier step, a cut
    that is not a cut of the graph, A outside U or outside the premise lhs,
    or a premise rhs outside W.  An empty derivation has the one problem
    `derivation has no steps`.
    """
    if not isinstance(hypotheses, Hypotheses):
        hypotheses = Hypotheses.of(hypotheses)
    assumed = set(hypotheses)
    steps = derivation.steps
    if not steps:
        return DerivationCheck(False, ("derivation has no steps",))

    def faults(i: int, step: Step) -> list[str]:
        atom, rule = step.atom, step.rule
        try:
            graph.check_players(atom.lhs)
            graph.check_players(atom.rhs)
            if isinstance(rule, ByHypothesis):
                return [] if atom in assumed else ["atom is not among the hypotheses"]
            if isinstance(rule, Reflexivity):
                return [] if atom.rhs <= atom.lhs else ["rhs is not a subset of lhs"]
            if not isinstance(rule, (Augmentation, Transitivity, Contiguity, LeftMonotonicity)):
                return [f"unknown rule {rule!r}"]
            late = [f"premise {index + 1} is not an earlier step"
                    for index in _premises(rule).values() if not 0 <= index < i]
            if late:
                return late
            if isinstance(rule, Transitivity):
                first, second = steps[rule.first].atom, steps[rule.second].atom
                return [fault for wrong, fault in (
                    (first.rhs != second.lhs, "middle sets do not match between the premises"),
                    ((atom.lhs, atom.rhs) != (first.lhs, second.rhs),
                     "conclusion does not chain the premises")) if wrong]
            source = steps[rule.premise].atom
            if isinstance(rule, Contiguity):
                cut = rule.cut
                for players in (cut.left, cut.right, rule.separated):
                    graph.check_players(players)
                cut.check(graph)
                if not rule.separated <= cut.left:
                    return ["A is not a subset of U"]
                if not rule.separated <= source.lhs:
                    return ["A is not part of the premise lhs"]
                if not source.rhs <= cut.right:
                    return ["premise rhs is not inside W"]
                kept = source.lhs - rule.separated
                given = (graph.border(cut.left) | graph.border(cut.right) | kept, source.rhs)
                wrong_lhs = "lhs is not border(U), border(W), and the kept part"
                wrong_rhs = "rhs differs from the premise rhs"
            elif isinstance(rule, Augmentation):
                graph.check_players(rule.added)
                given = (source.lhs | rule.added, source.rhs | rule.added)
                wrong_lhs = "lhs is not the premise lhs plus C"
                wrong_rhs = "rhs is not the premise rhs plus C"
            else:
                graph.check_players(rule.added)
                given = (source.lhs | rule.added, source.rhs)
                wrong_lhs = "lhs is not the premise lhs plus the added set"
                wrong_rhs = "rhs differs from the premise rhs"
        except InputError as exc:
            return [str(exc)]
        return [fault for got, want, fault in zip((atom.lhs, atom.rhs), given,
                                                  (wrong_lhs, wrong_rhs)) if got != want]

    problems = tuple(f"step {i + 1}: {fault}" for i, step in enumerate(steps)
                     for fault in faults(i, step))
    return DerivationCheck(not problems, problems)


# --- sparse sets ------------------------------------------------------------


def sparse(graph: DependencyGraph, players: Iterable[str]) -> bool:
    """True iff the players are pairwise at graph distance 3 or more, that
    is, independent in G²: no member's `_near` mask holds another member."""
    members = graph.check_players(players)
    mask = graph.mask_of(members)
    return all(_near(graph, u) & mask == 1 << graph.index(u) for u in members)


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
