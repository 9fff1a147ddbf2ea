"""Command-line front end.

Exit codes are uniform across subcommands: 0 for an affirmative result
(equilibria listed, formula holds, derivation found/verified, counterexample
found, zero fuzz violations), 1 for a negative result, 2 for usage, parse,
or resource errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import parser as fmt
from .core import InputError, ResourceLimitError, validate_game
from .equilibrium import DEFAULT_PROFILE_CAP, enumerate_equilibria
from .prover import Hypotheses, check_derivation, derive_tree
from .search import (
    NoneWithinBounds,
    SearchBounds,
    find_counterexample,
    fuzz_soundness,
)
from .semantics import holds

__all__ = ["build_parser", "entry", "main"]


def _read(path: str) -> str:
    try:
        try:
            with open(path, encoding="utf-8") as file:
                return file.read()
        except OSError:
            # pathlib reads "" as "." and drops a trailing slash, so a path
            # `open` refuses goes through it too: `ne game.txt/` reads the
            # file and `ne ""` reports a directory (tests/cli_usage.json)
            return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _assumptions(graph, texts) -> Hypotheses:
    return Hypotheses.of(fmt.parse_atom(text, graph) for text in texts)


def _cmd_ne(args) -> int:
    game = fmt.parse_game(_read(args.game_file))
    profiles = enumerate_equilibria(game)
    for profile in profiles:
        print(" ".join(f"{p}={s}" for p, s in zip(game.graph.players, profile)))
    print(f"total: {len(profiles)}")
    return 0


def _cmd_check(args) -> int:
    game = fmt.parse_game(_read(args.game_file))
    formula = fmt.parse_formula(args.formula, game.graph)
    if holds(game, formula):
        print("holds")
        return 0
    print("fails")
    return 1


def _cmd_prove(args) -> int:
    graph = fmt.parse_graph(_read(args.graph_file))
    hypotheses = _assumptions(graph, args.assume)
    goal = fmt.parse_atom(args.goal, graph)
    derivation = derive_tree(graph, hypotheses, goal.lhs, goal.rhs)
    if derivation is None:
        print("not derivable")
        return 1
    sys.stdout.write(fmt.print_derivation(derivation, graph))
    return 0


def _cmd_refute(args) -> int:
    graph = fmt.parse_graph(_read(args.graph_file))
    formula = fmt.parse_formula(args.formula, graph)
    values = []
    for token in args.values.split(","):
        try:
            values.append(fmt.parse_rational(token.strip()))
        except fmt.ParseError as exc:
            raise InputError(f"--values: {exc.reason}") from None
    bounds = SearchBounds(max_strategies=args.max_strategies,
                          payoff_values=values,
                          max_profiles=args.max_profiles,
                          seed=args.seed,
                          mode=args.mode,
                          sample_count=args.samples)
    result = find_counterexample(graph, formula, bounds)
    if isinstance(result, NoneWithinBounds):
        print(f"no counterexample within bounds "
              f"({result.games_examined} games examined)")
        return 1
    sys.stdout.write(fmt.print_game(result))
    return 0


def _cmd_validate(args) -> int:
    game = fmt.parse_game(_read(args.game_file))
    for warning in validate_game(game):
        print(f"warning: {warning}")
    return 0


def _cmd_fuzz(args) -> int:
    graph = fmt.parse_graph(_read(args.graph_file))
    hypotheses = _assumptions(graph, args.assume)
    bounds = SearchBounds(max_strategies=args.max_strategies,
                          seed=args.seed, sample_count=args.samples)
    report = fuzz_soundness(graph, hypotheses, bounds)
    sys.stdout.write(report.text())
    if report.violations:
        for violation in report.violations:
            sys.stdout.write("\n")
            sys.stdout.write(fmt.print_game(violation.game))
        return 1
    return 0


def _cmd_prove_check(args) -> int:
    graph = fmt.parse_graph(_read(args.graph_file))
    hypotheses = _assumptions(graph, args.assume)
    derivation = fmt.parse_derivation(_read(args.derivation_file), graph)
    outcome = check_derivation(graph, hypotheses, derivation)
    if outcome.ok:
        print("verified")
        return 0
    for problem in outcome.problems:
        print(problem)
    return 1


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the parser of each subcommand by name."""
    top = argparse.ArgumentParser(
        prog="gamedep",
        description="Functional dependence between players' strategies in the "
                    "pure Nash equilibria of games on a dependency graph.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    ne = sub.add_parser("ne", help="list the pure Nash equilibria of a game")
    ne.add_argument("game_file")
    ne.set_defaults(run=_cmd_ne)

    check = sub.add_parser("check", help="model-check a formula against a game")
    check.add_argument("game_file")
    check.add_argument("formula", help='e.g. "a,b |> c" or "a |> b -> b |> a"')
    check.set_defaults(run=_cmd_check)

    prove = sub.add_parser("prove", help="derive an atom from assumed atoms")
    prove.add_argument("graph_file")
    prove.add_argument("goal", help='goal atom, e.g. "b,c |> d"')
    prove.add_argument("--assume", action="append", default=[], metavar="ATOM",
                       help="assumed atom (repeatable)")
    prove.set_defaults(run=_cmd_prove)

    refute = sub.add_parser("refute", help="search for a game falsifying a formula")
    refute.add_argument("graph_file")
    refute.add_argument("formula")
    refute.add_argument("--max-strategies", type=int, default=3, metavar="K")
    refute.add_argument("--values", default="0,1", metavar="LIST",
                        help="comma-separated payoff values (default 0,1)")
    refute.add_argument("--mode", choices=["systematic", "random"], default="random")
    refute.add_argument("--seed", type=int, default=0)
    refute.add_argument("--samples", type=int, default=4000, metavar="N",
                        help="games sampled in random mode")
    refute.add_argument("--max-profiles", type=int, default=DEFAULT_PROFILE_CAP,
                        metavar="N", help="cumulative strategy-profile budget")
    refute.set_defaults(run=_cmd_refute)

    validate = sub.add_parser("validate", help="check a game document, warning on "
                                               "incomplete payoff tables")
    validate.add_argument("game_file")
    validate.set_defaults(run=_cmd_validate)

    fuzz = sub.add_parser("fuzz-soundness",
                          help="test derivable atoms against random games")
    fuzz.add_argument("graph_file")
    fuzz.add_argument("--assume", action="append", default=[], metavar="ATOM")
    fuzz.add_argument("--samples", type=int, default=1000, metavar="N")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-strategies", type=int, default=3, metavar="K")
    fuzz.set_defaults(run=_cmd_fuzz)

    prove_check = sub.add_parser("prove-check", help="verify a derivation file")
    prove_check.add_argument("graph_file")
    prove_check.add_argument("derivation_file")
    prove_check.add_argument("--assume", action="append", default=[], metavar="ATOM")
    prove_check.set_defaults(run=_cmd_prove_check)

    return top, sub.choices


# Built once: argparse trees are costly to build and parsing leaves them unchanged.
_PARSER, _COMMANDS = _build()


def _parse(argv) -> argparse.Namespace:
    """What `_PARSER.parse_args(argv)` returns (less `command`, which no
    handler reads), in one argparse pass when argv starts with a subcommand:
    the top-level parser would hand the rest to that subcommand's parser,
    and then report what the latter left over."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.run(args)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
