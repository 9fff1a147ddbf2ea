"""Functional dependence between players' strategies in pure Nash equilibria.

A finite strategic game is played over a dependency graph: each player's
payoff may read only its own strategy and its neighbours' strategies.  The
package enumerates the pure Nash equilibria of such games, model-checks
dependence formulas (`A |> B`: in every equilibrium, the strategies of A
functionally determine the strategies of B), decides derivability of atoms
from hypotheses in a four-rule calculus (Reflexivity, Augmentation,
Transitivity, Contiguity) with explicit checkable derivations, and searches
for finite games refuting a formula.
"""

from .core import (
    FALSUM,
    Atom,
    Cut,
    DependencyGraph,
    Falsum,
    Formula,
    Game,
    Implication,
    InputError,
    ResourceLimitError,
    agrees_on,
    check_formula_scope,
    formula_players,
    profile_from_mapping,
    profile_to_mapping,
    splice_profiles,
    validate_game,
)
from .equilibrium import (
    enumerate_equilibria,
    equilibria,
    is_equilibrium,
    payoff_of,
)
from .parser import (
    LocalityError,
    ParseError,
    ScopeError,
    parse_atom,
    parse_derivation,
    parse_formula,
    parse_game,
    parse_graph,
    parse_rational,
    print_derivation,
    print_formula,
    print_game,
    print_graph,
)
from .prover import (
    ClosureTable,
    Derivation,
    DerivationCheck,
    Hypotheses,
    Step,
    check_derivation,
    derive_tree,
    derives,
    saturate,
    sparse,
    sparse_set_principle,
)
from .search import (
    FuzzReport,
    NoneWithinBounds,
    SearchBounds,
    SplitMix64,
    builtin_game,
    builtin_graph,
    find_counterexample,
    fuzz_soundness,
    random_game,
)
from .semantics import depends, determined_players, holds

__version__ = "0.1.0"

__all__ = [
    "FALSUM",
    "Atom",
    "ClosureTable",
    "Cut",
    "DependencyGraph",
    "Derivation",
    "DerivationCheck",
    "Falsum",
    "Formula",
    "FuzzReport",
    "Game",
    "Hypotheses",
    "Implication",
    "InputError",
    "LocalityError",
    "NoneWithinBounds",
    "ParseError",
    "ResourceLimitError",
    "ScopeError",
    "SearchBounds",
    "SplitMix64",
    "Step",
    "agrees_on",
    "builtin_game",
    "builtin_graph",
    "check_derivation",
    "check_formula_scope",
    "depends",
    "derive_tree",
    "derives",
    "determined_players",
    "enumerate_equilibria",
    "equilibria",
    "find_counterexample",
    "formula_players",
    "fuzz_soundness",
    "holds",
    "is_equilibrium",
    "parse_atom",
    "parse_derivation",
    "parse_formula",
    "parse_game",
    "parse_graph",
    "parse_rational",
    "payoff_of",
    "print_derivation",
    "print_formula",
    "print_game",
    "print_graph",
    "profile_from_mapping",
    "profile_to_mapping",
    "random_game",
    "saturate",
    "sparse",
    "sparse_set_principle",
    "splice_profiles",
    "validate_game",
]
