"""What the command line prints for its usage cases, byte for byte.

`cli_usage.json` holds, for each argv below, the exit status, stdout and
stderr of `main`, run in a directory holding the documents of `FILES`,
with help text wrapped at 80 columns.  It covers every subcommand, valid
and with `-h`, the usage errors (a missing positional, an unknown option,
an extra positional, an unknown command, an empty argv), option
spellings (`--assume=ATOM`, an abbreviation, a `--` separator) and file
paths that are not plain file names.  Regenerate it with
`PYTHONPATH=src python tests/test_cli_usage.py`, only from a tree whose
command line is trusted.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gamedep.cli import build_parser, main
from gamedep.core import InputError, ResourceLimitError

CORPUS = Path(__file__).with_name("cli_usage.json")

FILES = {
    "game.txt": "players a b\nedge a b\nstrategies a a1 a2\nstrategies b b1 b2\n"
                "payoff a a=a1 b=b1 1\npayoff a a=a2 b=b2 1\n"
                "payoff b a=a1 b=b1 1\npayoff b a=a2 b=b2 1\n",
    "path.txt": "players a b c d\nedge a b\nedge b c\nedge c d\n",
    "proof.txt": "1. a |> d [Hypothesis]\n"
                 "2. b,c |> d [Contiguity 1 cut={a,b}|{c,d} A={a}]\n",
}

ARGVS = [
    # every subcommand, valid and with -h
    ["ne", "game.txt"],
    ["ne", "-h"],
    ["check", "game.txt", "a |> b"],
    ["check", "game.txt", "{} |> a"],
    ["check", "-h"],
    ["prove", "path.txt", "b,c |> d", "--assume", "a |> d"],
    ["prove", "path.txt", "a |> d"],
    ["prove", "-h"],
    ["prove", "path.txt", "a |> a", "-h"],
    ["refute", "path.txt", "a |> d -> b,c |> d", "--mode", "systematic",
     "--max-strategies", "2", "--max-profiles", "1500"],
    ["refute", "-h"],
    ["validate", "game.txt"],
    ["validate", "-h"],
    ["fuzz-soundness", "path.txt", "--assume", "a |> d", "--samples", "20", "--seed", "1"],
    ["fuzz-soundness", "-h"],
    ["prove-check", "path.txt", "proof.txt", "--assume", "a |> d"],
    ["prove-check", "path.txt", "proof.txt"],
    ["prove-check", "-h"],
    # a missing positional
    ["ne"],
    ["prove"],
    ["prove", "path.txt"],
    ["prove-check", "path.txt"],
    ["refute", "path.txt"],
    # an unknown option, and option values argparse refuses
    ["ne", "game.txt", "--bogus"],
    ["prove", "path.txt", "a |> a", "--bogus"],
    ["prove", "path.txt", "a |> a", "--bogus=1"],
    ["prove", "path.txt", "-x"],
    ["refute", "path.txt", "a |> b", "--mode", "bogus"],
    ["refute", "path.txt", "a |> b", "--seed", "x"],
    ["prove", "path.txt", "a |> a", "--assume"],
    # an extra positional
    ["ne", "game.txt", "extra"],
    ["prove", "path.txt", "a |> a", "extra"],
    ["prove-check", "path.txt", "proof.txt", "extra", "more"],
    ["prove", "path.txt", "a |> a", "extra", "--bogus"],
    # option spellings and the -- separator
    ["prove", "path.txt", "b,c |> d", "--assume=a |> d"],
    ["prove", "path.txt", "b,c |> d", "--ass", "a |> d"],
    ["prove", "--assume", "a |> d", "path.txt", "b,c |> d"],
    ["fuzz-soundness", "path.txt", "--sam", "10", "--see=2"],
    ["prove", "path.txt", "--assume", "a |> d", "--", "b,c |> d"],
    ["prove", "--", "path.txt", "a |> a"],
    ["ne", "--", "game.txt"],
    ["--", "prove", "path.txt", "a |> a"],
    # no known command first
    ["bogus"],
    ["bogus", "game.txt"],
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["--assume", "a |> d", "prove", "path.txt", "a |> a"],
    ["PROVE", "path.txt", "a |> a"],
    # file paths that are not plain file names
    ["ne", ""],
    ["ne", "absent.txt"],
    ["ne", "game.txt/"],
    ["ne", "./game.txt"],
    ["ne", "."],
]


def _replay(run, argv, directory):
    """Exit status, stdout and stderr of `run(argv)`, run in `directory`
    with help text wrapped at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = run(argv)
            except SystemExit as exc:
                status = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": argv, "status": status, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _two_pass_main(argv):
    """`main` as a plain argparse parse of the whole argv with the parser of
    `build_parser`: the top-level parser hands the rest to a subcommand's."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("usage")
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def test_main_prints_the_recorded_corpus(directory):
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in recorded] == ARGVS
    for entry in recorded:
        assert _replay(main, entry["argv"], directory) == entry


@pytest.mark.parametrize("argv", ARGVS)
def test_main_agrees_with_a_two_pass_parse(argv, directory):
    assert _replay(main, argv, directory) == _replay(_two_pass_main, argv, directory)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name, text in FILES.items():
            Path(scratch, name).write_text(text, encoding="utf-8")
        corpus = [_replay(main, argv, scratch) for argv in ARGVS]
    entries = ",\n".join(json.dumps(entry) for entry in corpus)
    CORPUS.write_text("[\n" + entries + "\n]\n", encoding="utf-8")
    print(f"{len(corpus)} argvs recorded in {CORPUS}")
