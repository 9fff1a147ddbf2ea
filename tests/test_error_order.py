"""Which fault a document with faults is rejected for.

Graph and game documents are checked against the two-pass oracles in
`oracles.py`; derivations against `derivation_errors.json`, the errors that
the derivation reader gave for the same documents before it moved from
`prover` into `parser` (regenerate with `python tests/test_error_order.py`
only from a tree whose reader is trusted).  Each document has one fault,
at every position, or two faults in either order.  Type, line, column and
message must all be equal.
"""

import json
from pathlib import Path

import pytest

from gamedep import ParseError, builtin_graph, parse_derivation, parse_game, parse_graph

from oracles import parse_game_by_lines, parse_graph_by_lines

CORPUS = Path(__file__).with_name("derivation_errors.json")


def _insert(text):
    return lambda lines, at: lines[:at] + [text] + lines[at:]


def _replace_first(text):
    return lambda lines, at: [text] + lines[1:]


def _delete(text):
    return lambda lines, at: [line for line in lines if line != text]


GRAPH_LINES = ["players a b c", "edge a b", "edge b c"]

GRAPH_FAULTS = {
    "unknown directive": _insert("vertex d"),
    "duplicate players line": _insert("players a b c"),
    "edge of one player": _insert("edge a"),
    "edge of three players": _insert("edge a b c"),
    "undeclared endpoint": _insert("edge a z"),
    "undeclared first endpoint": _insert("edge z c"),
    "loop edge": _insert("edge c c"),
    "duplicate edge": _insert("edge c b"),
    "players line not first": _replace_first("edge a b"),
    "duplicate player": _replace_first("players a b c a"),
    "invalid player name": _replace_first("players a b c 9x"),
}

# A game whose strategies, edge and payoff lines interleave.
GAME_LINES = [
    "players a b c",
    "edge a b",
    "strategies a 0 1",
    "payoff a a=0 b=0 1",
    "strategies b 0 1",
    "edge b c",
    "payoff b a=0 b=0 c=0 1",
    "strategies c 0 1",
    "payoff a b=1 a=1 -1/2",
    "payoff c b=1 c=1 3",
]

GAME_FAULTS = {
    **GRAPH_FAULTS,
    "strategies without labels": _insert("strategies a"),
    "strategies of an undeclared player": _insert("strategies z 0"),
    "duplicate strategies line": _insert("strategies b 1 0"),
    "invalid label": _insert("strategies a x-y"),
    "duplicate label": _insert("strategies c 0 0"),
    "missing strategies line": _delete("strategies c 0 1"),
    "payoff without assignments": _insert("payoff a"),
    "payoff of an undeclared player": _insert("payoff z a=0 1"),
    "malformed assignment": _insert("payoff a a0 b=0 1"),
    "player assigned twice": _insert("payoff a a=0 a=1 1"),
    "missing neighbour": _insert("payoff b a=0 b=1 1"),
    "extra neighbour": _insert("payoff a a=0 b=0 c=0 1"),
    "unknown label": _insert("payoff a a=0 b=7 1"),
    "malformed rational": _insert("payoff a a=1 b=0 1.5"),
    "zero denominator": _insert("payoff a a=1 b=0 1/0"),
    "duplicate payoff entry": _insert("payoff c c=1 b=1 2"),
}

PROOF_GRAPH = builtin_graph("gamma1")

# Step templates; `{n}` is replaced by the line's step number.
PROOF_LINES = [
    "{n}. a |> d [Hypothesis]",
    "{n}. b,c |> d [Contiguity 1 cut={a,b}|{c,d} A={a}]",
    "{n}. a,b |> b,d [Augmentation 1 C={b}]",
    "{n}. a,b |> d [LeftMonotonicity 1 add={b}]",
    "{n}. b,c |> b [Reflexivity]",
    "{n}. a |> d [Transitivity 1 1]",
]

PROOF_FAULTS = {
    "no rule": "{n}. a |> d",
    "unclosed rule": "{n}. a |> d [Hypothesis",
    "no step number": "a |> d [Hypothesis]",
    "non-digit step number": "x. a |> d [Hypothesis]",
    "step out of sequence": "99. a |> d [Hypothesis]",
    "player out of scope": "{n}. a |> z [Hypothesis]",
    "not an atom": "{n}. a |> d -> b |> c [Hypothesis]",
    "missing rule name": "{n}. a |> d []",
    "rule with extra arguments": "{n}. a |> d [Hypothesis 1]",
    "unknown rule": "{n}. a |> d [Magic 1]",
    "premise zero": "{n}. a,b |> d [LeftMonotonicity 0 add={b}]",
    "non-digit premise": "{n}. a |> d [Transitivity 1 x]",
    "unbraced set": "{n}. a,b |> b,d [Augmentation 1 C=b]",
    "undeclared player in a set": "{n}. a,b |> d [LeftMonotonicity 1 add={z}]",
    "cut without separator": "{n}. b,c |> d [Contiguity 1 cut={a,b}{c,d} A={a}]",
    "unbraced cut side": "{n}. b,c |> d [Contiguity 1 cut={a,b}|c,d A={a}]",
    "contiguity: bad premise, malformed cut": "{n}. b,c |> d [Contiguity x cut={a,b}{c,d} A={a}]",
    "contiguity: bad premise, bad cut side": "{n}. b,c |> d [Contiguity 0 cut={a,b}|{c,z} A={a}]",
}


def _documents(lines, faults):
    """(name, lines) for each fault at each position after the first line,
    and for each ordered pair of faults, the first after the first line and
    the second at the end."""
    for name, fault in faults.items():
        for at in range(1, len(lines) + 1):
            yield f"{name} @{at}", fault(lines, at)
    for first, early in faults.items():
        for second, late in faults.items():
            if first != second:
                yield f"{first} @1, {second} @end", early(late(lines, len(lines)), 1)


def _text(lines):
    return "".join(line.replace("{n}", str(i)) + "\n" for i, line in enumerate(lines, 1))


def _proof_documents():
    faults = {name: _insert(step) for name, step in PROOF_FAULTS.items()}
    yield from ((name, _text(lines)) for name, lines in _documents(PROOF_LINES, faults))
    yield "empty derivation", "# nothing\n\n"


def _error(parse, text):
    with pytest.raises(ParseError) as caught:
        parse(text)
    error = caught.value
    return [type(error).__name__, error.line, error.column, str(error)]


@pytest.mark.parametrize("parse, oracle, lines, faults", [
    (parse_graph, parse_graph_by_lines, GRAPH_LINES, GRAPH_FAULTS),
    (parse_game, parse_game_by_lines, GAME_LINES, GAME_FAULTS),
], ids=["graph", "game"])
def test_documents_agree_with_the_two_pass_oracle(parse, oracle, lines, faults):
    assert oracle(_text(lines)) == parse(_text(lines))
    for name, faulty in _documents(lines, faults):
        text = _text(faulty)
        assert _error(parse, text) == _error(oracle, text), name


def test_derivations_agree_with_the_recorded_corpus():
    assert parse_derivation(_text(PROOF_LINES), PROOF_GRAPH)
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    documents = dict(_proof_documents())
    assert sorted(documents) == sorted(recorded)
    for name, text in documents.items():
        assert _error(lambda t: parse_derivation(t, PROOF_GRAPH), text) == recorded[name], name


if __name__ == "__main__":
    corpus = {}
    for name, text in _proof_documents():
        try:
            parse_derivation(text, PROOF_GRAPH)
        except ParseError as error:
            corpus[name] = [type(error).__name__, error.line, error.column, str(error)]
        else:
            raise SystemExit(f"{name}: no error")
    entries = ",\n".join(f"{json.dumps(name)}: {json.dumps(error)}"
                          for name, error in sorted(corpus.items()))
    CORPUS.write_text("{\n" + entries + "\n}\n", encoding="utf-8")
    print(f"{len(corpus)} documents recorded in {CORPUS}")
