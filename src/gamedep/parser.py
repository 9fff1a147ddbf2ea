"""Text formats for dependency graphs, games, dependence formulas, and
derivations; the only module that reads or writes them.

All formats are plain ASCII and line oriented: `#` starts a comment that
runs to the end of the line and blank lines are ignored.  Every parse
error carries the 1-based line number (formula errors also carry a
column).  Printing is canonical, and parsing a printed value gives back
an equal value; for games, as `Game.of` normalises them.  `Game.of` drops
an empty table, which prints no line, so a `Game` built directly with one
parses back without it, and unequal.  A number of more than
`sys.get_int_max_str_digits()` digits is a located error.

Graphs::

    players a b c d      # declaration order is significant
    edge a b
    edge b c

Games extend graphs with strategy and payoff lines::

    strategies a a1 a2
    payoff a a=a1 b=b1 1          # rationals: 1, -2, 3/4
    payoff b a=a1 b=b1 1

Faults are reported in document order within four groups, first to last:
graph lines, strategies lines, a player without strategies (at the players
line), payoff lines.  A payoff line must assign exactly the closed
neighbourhood of its player, in any order; unlisted cells default to 0.

A game document is read by one of two readers.  When its payoff lines are
written as `print_game` writes them (each player's table complete or
absent, players in declaration order, cells in row-major order, single
spaces, no comments, a newline after the last line), the lines before
them are read by the graph reader's one pass, and each payoff line is
matched against its expected prefix without being split; each distinct
value token is parsed once, and the game carries each table's cells as the
integers the equilibrium join reads.  That game's `_cache` holds the cells
(``"cells"``), each table's value tokens (``"tokens"``) and each token's
`Fraction` (``"values"``); `Game` builds `payoffs` from the tokens the first
time it is read.  Anything else from the first payoff line on (a comment, a
tab, `\r`, a doubled space, reordered, missing or extra lines, a bad value)
sends the whole document to the per-line reader, the only one that reports
errors.  It reads the document in one pass over its
lines and runs every check on every payoff line, in the order: line shape,
declared player, assignment syntax, repeated player, locality, labels; then
a duplicate entry and the value, parsing one `Fraction` per distinct value
token.  Both readers, and the graph reader they share, check every
invariant of `DependencyGraph.of` and `Game` as they read, so they build
the graph and the game without re-validating them.

Formulas::

    formula := imp
    imp     := unary ('->' imp)?          # right associative
    unary   := '!' unary | primary        # !f is sugar for f -> false
    primary := 'false' | '(' formula ')' | atom
    atom    := set '|>' set
    set     := '{' idlist? '}' | idlist
    idlist  := id (',' id)*

A formula nests at most `MAX_FORMULA_DEPTH` levels of '->', '!' and
parentheses combined; the token past the bound is a located error.

Derivations carry one step per line::

    <index>. <atom> [<Rule> <args>]

where <index> counts from 1 in order, <atom> uses the formula grammar,
premise arguments are step indices, and set arguments are braced::

    1. a |> d [Hypothesis]
    2. b,c |> d [Contiguity 1 cut={a,b}|{c,d} A={a}]

Rules: Hypothesis | Reflexivity | Augmentation <p> C={..} |
Transitivity <p> <q> | Contiguity <p> cut={U}|{W} A={A} |
LeftMonotonicity <p> add={..}

`print_derivation` and `parse_derivation` both read this grammar from one
table, `_RULES`, so the two cannot disagree on a rule's text.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import product, tee

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
    check_label,
    check_player_name,
)
from .equilibrium import _scaled_integers
from .prover import (
    Augmentation,
    ByHypothesis,
    Contiguity,
    Derivation,
    LeftMonotonicity,
    Reflexivity,
    Step,
    Transitivity,
)

__all__ = [
    "LocalityError",
    "ParseError",
    "ScopeError",
    "format_player_set",
    "parse_atom",
    "parse_derivation",
    "parse_formula",
    "parse_game",
    "parse_graph",
    "parse_rational",
    "print_derivation",
    "print_formula",
    "print_game",
    "print_graph",
]


class ParseError(InputError):
    """A document failed to parse; `line` (and sometimes `column`) locate it."""

    def __init__(self, line: int, message: str, column: int | None = None):
        self.line = line
        self.column = column
        self.reason = message
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


class ScopeError(ParseError):
    """A formula mentions a player that is not in the graph."""


class LocalityError(ParseError):
    """A payoff line is keyed by something other than the closed neighbourhood."""


def _logical_lines(text: str):
    """(line number, content) of each line that has content once its comment
    and surrounding whitespace are stripped."""
    for number, raw in enumerate(text.split("\n"), 1):
        content = raw.partition("#")[0].strip()
        if content:
            yield number, content


def _checked(line: int, check, value: str) -> str:
    try:
        return check(value)
    except InputError as exc:
        raise ParseError(line, str(exc)) from None


def _integer(digits: str, line: int) -> int | None:
    """The value of `digits` if it is ASCII digits, else None; a number too
    long for `int` is a located error that gives its length, not its digits."""
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(digits)
    except ValueError:
        raise ParseError(line, f"number of {len(digits)} digits exceeds the limit of "
                               f"{sys.get_int_max_str_digits()}") from None


def _read_document(text: str, game: bool):
    """One pass over a graph document, or a game document when `game` is set:
    checks the players line, the edges and every directive in document order,
    each check `DependencyGraph.of` would make, so the graph is built without
    it.  For a game, the strategies lines are then checked, in document order,
    and every player must have one.  Returns the graph, a game's strategies
    by player, and its payoff lines as a (line number, tokens) list."""
    lines = _logical_lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError(1, "empty document: expected a players line")
    players_line, content = first
    tokens = content.split()
    if tokens[0] != "players":
        raise ParseError(players_line, f"expected a players line first, got {tokens[0]!r}")
    if len(tokens) < 2:
        raise ParseError(players_line, "players line declares no players")
    players: dict[str, int] = {}  # declaration index, in declaration order
    for name in tokens[1:]:
        _checked(players_line, check_player_name, name)
        if name in players:
            raise ParseError(players_line, f"duplicate player {name!r}")
        players[name] = len(players)
    pairs: set[tuple[str, str]] = set()  # ordered by declaration index
    strategies_lines: list[tuple[int, list[str]]] = []
    payoff_lines: list[tuple[int, list[str]]] = []
    for number, content in lines:
        tokens = content.split()
        directive = tokens[0]
        if directive == "payoff" and game:
            payoff_lines.append((number, tokens))
        elif directive == "edge":
            if len(tokens) != 3:
                raise ParseError(number, "edge line expects exactly two players")
            u, v = tokens[1], tokens[2]
            for name in (u, v):
                if name not in players:
                    raise ParseError(number, f"edge endpoint {name!r} is not a declared player")
            if u == v:
                raise ParseError(number, f"loop edge {u} {v} is not allowed")
            pair = (u, v) if players[u] < players[v] else (v, u)
            if pair in pairs:
                raise ParseError(number, f"duplicate edge {u} {v}")
            pairs.add(pair)
        elif directive == "strategies" and game:
            strategies_lines.append((number, tokens))
        elif directive == "players":
            raise ParseError(number, "duplicate players line")
        else:
            raise ParseError(number, f"unknown directive {directive!r}")
    graph = DependencyGraph(tuple(players), frozenset(pairs))
    if not game:
        return graph, {}, []
    strategies: dict[str, tuple[str, ...]] = {}
    for number, tokens in strategies_lines:
        if len(tokens) < 3:
            raise ParseError(number, "strategies line expects a player and at least one label")
        player = tokens[1]
        if player not in players:
            raise ParseError(number, f"strategies for undeclared player {player!r}")
        if player in strategies:
            raise ParseError(number, f"duplicate strategies line for player {player!r}")
        labels: dict[str, None] = {}  # ordered, with O(1) membership
        for label in tokens[2:]:
            _checked(number, check_label, label)
            if label in labels:
                raise ParseError(number, f"duplicate strategy label {label!r}")
            labels[label] = None
        strategies[player] = tuple(labels)
    for player in players:
        if player not in strategies:
            raise ParseError(players_line, f"player {player!r} has no strategies line")
    return graph, strategies, payoff_lines


def parse_graph(text: str) -> DependencyGraph:
    return _read_document(text, game=False)[0]


_RATIONAL_RE = re.compile(r"(-?)(\d+)(?:/(\d+))?\Z", re.ASCII)


def parse_rational(token: str, line: int = 1) -> Fraction:
    match = _RATIONAL_RE.match(token)
    if not match:
        raise ParseError(line, f"malformed rational {token!r}")
    sign, numerator, denominator = match.groups()
    numerator = _integer(numerator, line)
    denominator = 1 if denominator is None else _integer(denominator, line)
    if denominator == 0:
        raise ParseError(line, f"rational {token!r} has a zero denominator")
    return Fraction(-numerator if sign else numerator, denominator)


def _mean_mod_modulus(name: str) -> int | None:
    """p of the built-in game name `gamma1_mean_mod(p)`, None for other names."""
    if name.startswith("gamma1_mean_mod(") and name.endswith(")"):
        return _integer(name[len("gamma1_mean_mod("):-1], 1)
    return None


_ASSIGNMENT_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)=([A-Za-z0-9_]+)\Z")


def parse_game(text: str) -> Game:
    game = _read_printed_game(text)
    return _read_game_by_lines(text) if game is None else game


def _read_printed_game(text: str) -> Game | None:
    """The game of `text` if its payoff lines are written as `print_game`
    writes them, else None; never raises.

    The lines before the first payoff line are read by `_read_document`.
    Then each player in declaration order has no payoff line or one per cell
    of its table, in row-major order, each exactly `payoff p w1=l1 ... wk=lk
    v` with single spaces and a rational `v`, and a newline ends the last.
    Each line is matched against its expected prefix without being split,
    and each distinct value token is parsed once.  The value tokens are then
    in the join's row-major order, so the game also carries each table's
    integer cells (see `equilibrium._cells`): `_scaled_integers` maps each
    distinct token to its value times the lcm of the table's denominators,
    and one `map` over the tokens lists the cells.  The game is built
    without `payoffs`: its `_cache` keeps the tokens and their values, from
    which `Game` builds the tables on first read (`ne` and `check` never
    read them).
    """
    start = text.find("\npayoff ") + 1
    body = text[start:]
    # print_game writes none of these, and a scan for them is far cheaper
    # than matching every line first
    if not start or any(map(body.__contains__, ("#", "\t", "\r", "  "))):
        return None
    try:
        graph, strategies, payoff_lines = _read_document(text[:start], game=True)
    except ParseError:
        return None
    lines = body.split("\n")
    # A payoff line the search missed (an indented one, say) is in the
    # header; print_game's text ends in a newline, so its last split is empty.
    if payoff_lines or lines.pop():
        return None
    values: dict[str, Fraction] = {}
    tables: dict[str, list[str]] = {}
    cells: dict[str, list[int]] = {}
    position = 0
    for player in graph.players:
        head = f"payoff {player} "
        if position == len(lines) or not lines[position].startswith(head):
            continue  # print_game writes no line for an empty table
        local = graph.local_order(player)
        count = math.prod(len(strategies[w]) for w in local)
        # The table must fit in the lines left, checked before any prefix is
        # built: a short document may declare a table far larger than itself.
        if count > len(lines) - position:
            return None
        chunk = lines[position:position + count]
        position += count
        # The prefix of a cell is " ".join of its assignments, with `head`
        # and the space before the value folded into the first and last.
        columns = [[f"{w}={label}" for label in strategies[w]] for w in local]
        columns[0] = [head + assignment for assignment in columns[0]]
        columns[-1] = [assignment + " " for assignment in columns[-1]]
        # Each prefix is joined once, as its line is reached, so a mismatch
        # stops before the rest are built; `tee` keeps the matched ones for
        # stripping.
        checked, stripped = tee(map(" ".join, product(*columns)))
        if not all(map(str.startswith, chunk, checked)):
            return None
        tokens = list(map(str.removeprefix, chunk, stripped))
        distinct = set(tokens)
        try:
            for token in distinct.difference(values):
                values[token] = parse_rational(token)
        except ParseError:
            return None
        scaled = _scaled_integers({token: values[token] for token in distinct})
        cells[player] = list(map(scaled.__getitem__, tokens))
        tables[player] = tokens
    if position != len(lines):
        return None
    return Game._unchecked(graph, strategies, None,
                           {"cells": cells, "tokens": tables, "values": values})


def _read_game_by_lines(text: str) -> Game:
    graph, strategies, payoff_lines = _read_document(text, game=True)
    labels = {player: frozenset(options) for player, options in strategies.items()}
    values: dict[str, Fraction] = {}
    payoffs: dict[str, dict[tuple[str, ...], Fraction]] = {}
    for number, tokens in payoff_lines:
        player, key = _payoff_entry(number, tokens, graph, labels)
        table = payoffs.setdefault(player, {})
        if key in table:
            raise ParseError(number, f"duplicate payoff entry for {player}")
        value = values.get(tokens[-1])
        if value is None:
            value = values[tokens[-1]] = parse_rational(tokens[-1], number)
        table[key] = value
    return Game._unchecked(graph, strategies, payoffs, {})


def _payoff_entry(number: int, tokens: list[str], graph: DependencyGraph,
                  labels: dict[str, frozenset[str]]) -> tuple[str, tuple[str, ...]]:
    """The player and key of a payoff line, checked in the order the format
    documents, so a line with several faults is reported by the first."""
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
        if label not in labels[name]:
            raise ParseError(number, f"unknown strategy {label!r} for player {name!r}")
    return player, tuple(map(assignment.__getitem__, local))


def print_graph(graph: DependencyGraph) -> str:
    lines = ["players " + " ".join(graph.players)]
    for u, v in sorted(graph.edges, key=lambda e: (graph.index(e[0]), graph.index(e[1]))):
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def print_game(game: Game) -> str:
    graph = game.graph
    lines = [print_graph(graph).rstrip("\n")]
    for player in graph.players:
        lines.append(f"strategies {player} " + " ".join(game.strategies[player]))
    for player in graph.players:
        table = game.payoffs.get(player)
        if not table:
            continue
        local = graph.local_order(player)
        ranks = [{label: i for i, label in enumerate(game.strategies[w])} for w in local]
        for key in sorted(table, key=lambda k: tuple(r[l] for r, l in zip(ranks, k))):
            cells = " ".join(f"{w}={label}" for w, label in zip(local, key))
            lines.append(f"payoff {player} {cells} {table[key]}")
    return "\n".join(lines) + "\n"


# --- formulas ---------------------------------------------------------------

# Nesting of '->', '!' and '(' combined: keeps parsing, evaluation and
# printing, all recursive, far inside Python's recursion limit.
MAX_FORMULA_DEPTH = 100

_TOKEN_RE = re.compile(r"(?P<op>->|\|>|[!(){},])|(?P<id>[A-Za-z][A-Za-z0-9_]*)|(?P<bad>\S)")


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int | None):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for line_number, raw in enumerate(text.split("\n"), 1):
        content = raw.split("#", 1)[0]
        for match in _TOKEN_RE.finditer(content):
            kind, word, column = match.lastgroup, match.group(), match.start() + 1
            if kind == "bad":
                raise ParseError(line_number, f"unexpected character {word!r}", column)
            if kind == "op" or word == "false":
                kind = word
            tokens.append(_Token(kind, word, line_number, column))
    return tokens


class _FormulaParser:
    def __init__(self, tokens: list[_Token], graph: DependencyGraph):
        # `take` never moves past the end token, so `peek` always has one
        self.tokens = tokens + [_Token("end", "end of input", 1, None)]
        self.graph = graph
        self.position = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.position]

    def take(self) -> _Token:
        token = self.tokens[self.position]
        if token.kind == "end":
            last = self.tokens[self.position - 1]
            raise ParseError(last.line, "unexpected end of formula",
                             last.column + len(last.text))
        self.position += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.take()
        if token.kind != kind:
            raise ParseError(token.line, f"expected {kind!r}, got {token.text!r}", token.column)
        return token

    def nested(self, parse):
        """`parse()` one level deeper than the token just taken."""
        self.depth += 1
        if self.depth > MAX_FORMULA_DEPTH:
            token = self.tokens[self.position - 1]
            raise ParseError(token.line, f"formula nests more than {MAX_FORMULA_DEPTH} "
                                         f"levels of '->', '!' and '('", token.column)
        result = parse()
        self.depth -= 1
        return result

    def formula(self) -> Formula:
        left = self.unary()
        if self.peek().kind == "->":
            self.take()
            return Implication(left, self.nested(self.formula))
        return left

    def unary(self) -> Formula:
        if self.peek().kind == "!":
            self.take()
            return Implication(self.nested(self.unary), FALSUM)
        return self.primary()

    def primary(self) -> Formula:
        token = self.peek()
        if token.kind == "end":
            if len(self.tokens) == 1:
                raise ParseError(1, "empty formula")
            self.take()  # raises "unexpected end of formula" with a position
        if token.kind == "false":
            self.take()
            return FALSUM
        if token.kind == "(":
            self.take()
            inner = self.nested(self.formula)
            self.expect(")")
            return inner
        return self.atom()

    def atom(self) -> Atom:
        lhs = self.player_set()
        self.expect("|>")
        rhs = self.player_set()
        return Atom(lhs, rhs)

    def player_set(self) -> frozenset[str]:
        token = self.peek()
        if token.kind == "{":
            self.take()
            names = self.id_list() if self.peek().kind == "id" else []
            self.expect("}")
            return frozenset(names)
        if token.kind != "id":
            raise ParseError(token.line, f"expected a player set, got {token.text!r}",
                             token.column)
        return frozenset(self.id_list())

    def id_list(self) -> list[str]:
        names = [self.player_name()]
        while self.peek().kind == ",":
            self.take()
            names.append(self.player_name())
        return names

    def player_name(self) -> str:
        token = self.expect("id")
        if token.text not in self.graph:
            raise ScopeError(token.line, f"player {token.text!r} is not in the graph",
                             token.column)
        return token.text


def parse_formula(text: str, graph: DependencyGraph) -> Formula:
    parser = _FormulaParser(_tokenize(text), graph)
    result = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(trailing.line, f"unexpected trailing input {trailing.text!r}",
                         trailing.column)
    return result


def parse_atom(text: str, graph: DependencyGraph) -> Atom:
    formula = parse_formula(text, graph)
    if not isinstance(formula, Atom):
        raise ParseError(1, f"expected a dependence atom, got {print_formula(formula, graph)!r}")
    return formula


def format_player_set(graph: DependencyGraph, players, braced: bool = False) -> str:
    body = ",".join(graph.sorted_players(players))
    if braced or not body:
        return "{" + body + "}"
    return body


def print_formula(formula: Formula, graph: DependencyGraph) -> str:
    """Canonical form: minimal parentheses, sets in declaration order."""
    if isinstance(formula, Falsum):
        return "false"
    if isinstance(formula, Atom):
        lhs = format_player_set(graph, formula.lhs)
        rhs = format_player_set(graph, formula.rhs)
        return f"{lhs} |> {rhs}"
    if isinstance(formula, Implication):
        antecedent = print_formula(formula.antecedent, graph)
        if isinstance(formula.antecedent, Implication):
            antecedent = f"({antecedent})"
        return f"{antecedent} -> {print_formula(formula.consequent, graph)}"
    raise InputError(f"not a formula: {formula!r}")


# --- derivations ------------------------------------------------------------


# Each rule's document name and the prefix of each argument, in field order:
# "" for a step index, "cut=" for a cut, "C=", "A=" or "add=" for a set.
_RULES = {
    ByHypothesis: ("Hypothesis", ()),
    Reflexivity: ("Reflexivity", ()),
    Augmentation: ("Augmentation", ("", "C=")),
    Transitivity: ("Transitivity", ("", "")),
    Contiguity: ("Contiguity", ("", "cut=", "A=")),
    LeftMonotonicity: ("LeftMonotonicity", ("", "add=")),
}
_RULES_BY_NAME = {name: (rule, prefixes) for rule, (name, prefixes) in _RULES.items()}


def print_derivation(derivation: Derivation, graph: DependencyGraph) -> str:
    lines = []
    for i, step in enumerate(derivation.steps):
        rule = step.rule
        kind = type(rule)
        if kind not in _RULES:  # an instance of a subclass of a rule prints as the rule
            kind = next(filter(_RULES.__contains__, kind.__mro__), None)
            if kind is None:
                raise InputError(f"unknown rule {rule!r}")
        text, prefixes = _RULES[kind]
        # a step without arguments (a hypothesis, mostly) skips the pairing
        for prefix, value in zip(prefixes, vars(rule).values()) if prefixes else ():
            if not prefix:
                text += f" {value + 1}"
            elif prefix == "cut=":
                text += (f" cut={format_player_set(graph, value.left, braced=True)}|"
                         f"{format_player_set(graph, value.right, braced=True)}")
            else:
                text += f" {prefix}{format_player_set(graph, value, braced=True)}"
        lines.append(f"{i + 1}. {print_formula(step.atom, graph)} [{text}]")
    return "\n".join(lines) + "\n"


def _parse_braced_set(token: str, prefix: str, line: int,
                      graph: DependencyGraph) -> frozenset[str]:
    if not token.startswith(prefix + "{") or not token.endswith("}"):
        raise ParseError(line, f"expected {prefix}{{...}}, got {token!r}")
    body = token[len(prefix) + 1:-1]
    if not body:
        return frozenset()
    names = body.split(",")
    for name in names:
        if name not in graph:
            raise ParseError(line, f"player {name!r} is not in the graph")
    return frozenset(names)


def _parse_argument(token: str, prefix: str, line: int, graph: DependencyGraph):
    """The value of a rule argument of the kind `prefix` marks in `_RULES`."""
    if prefix == "cut=":
        left, _, right = token[4:].partition("|")
        return Cut(_parse_braced_set(left, "", line, graph),
                   _parse_braced_set(right, "", line, graph))
    if prefix:
        return _parse_braced_set(token, prefix, line, graph)
    index = _integer(token, line)
    if index is None or index < 1:
        raise ParseError(line, f"expected a step index, got {token!r}")
    return index - 1


def parse_derivation(text: str, graph: DependencyGraph) -> Derivation:
    steps: list[Step] = []
    for number, content in _logical_lines(text):
        head, bracket, tail = content.partition("[")
        if not bracket or not tail.rstrip().endswith("]"):
            raise ParseError(number, "expected '<index>. <atom> [<rule> ...]'")
        head = head.strip()
        rule_text = tail.rstrip()[:-1].strip()
        index_text, dot, atom_text = head.partition(".")
        index = _integer(index_text, number) if dot else None
        if index is None:
            raise ParseError(number, "step must start with '<index>.'")
        if index != len(steps) + 1:
            raise ParseError(number, f"step numbers must be sequential, "
                                     f"expected {len(steps) + 1}")
        try:
            atom = parse_atom(atom_text.strip(), graph)
        except ParseError as exc:
            raise ParseError(number, exc.reason) from None
        tokens = rule_text.split()
        if not tokens:
            raise ParseError(number, "missing rule name")
        kind, prefixes = _RULES_BY_NAME.get(tokens[0], (None, ()))
        args = tokens[1:]
        if kind is None or len(args) != len(prefixes):
            raise ParseError(number, f"malformed rule {rule_text!r}")
        # a cut's shape is checked before any argument is read
        if kind is Contiguity and not (args[1].startswith("cut=") and "|" in args[1]):
            raise ParseError(number, f"expected cut={{U}}|{{W}}, got {args[1]!r}")
        rule = kind(*[_parse_argument(arg, prefix, number, graph)
                      for arg, prefix in zip(args, prefixes)])
        steps.append(Step(atom, rule))
    if not steps:
        raise ParseError(1, "empty derivation")
    return Derivation(tuple(steps))
