"""The measured process: imports gamedep from a source tree and runs a plan.

    python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) names the source tree, the warm-up queries,
the round of queries, the mode and the run length.  Modes:

* ``setup``: import gamedep and run the warm-up queries, then stop;
* ``run``: set up, then repeat the round as a closed loop (one client,
  each query sent when the previous one returned) until ``seconds`` have
  passed;
* ``trace``: set up, time one untraced round, then repeat traced rounds
  (see spans.py) until ``seconds`` have passed.

``run`` stops at the first query after ``seconds`` (rounds after the first
may be cut short); ``trace`` repeats whole rounds, since its counters are
reported per round.  Only the first round's outputs are kept; later rounds
are compared with it.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def call_cli(main, argv) -> tuple[object, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:        # argparse usage errors
            code = exc.code
        except Exception:                # a crash is a failed query, not a dead run
            code = "raised: " + traceback.format_exc(limit=3)
    return code, out.getvalue()


def reference_python():
    """A fixed pure-Python kernel shaped like enumeration: lookups of tuple
    keys in a payoff dict of 4096 Fractions, with comparisons, about 1 ms.
    The table is about 1 MB, so cache pressure from other tenants slows the
    kernel as it slows gamedep's own tables."""
    from fractions import Fraction
    keys = [(str(a), str(b), str(c)) for a in range(16) for b in range(16) for c in range(16)]
    table = {key: Fraction(i % 7, 3) for i, key in enumerate(keys)}
    probes = keys[::2]

    def kernel() -> None:
        best = Fraction(0)
        for key in probes:
            value = table.get(key, best)
            if value > best:
                best = value
    return kernel


def reference_numpy():
    """A fixed numpy kernel shaped like a saturation sweep: a 2 MB broadcast
    OR scattered into a flag array, about 1 ms."""
    import numpy as np          # here, so that set-up timing includes the import
    ids = np.arange(2048, dtype=np.int64)

    def kernel() -> None:
        targets = ids[:1024, None] | (ids[None, :256] & ~ids[:1024, None])
        flags = np.zeros(2048, dtype=bool)
        flags[targets.ravel() & 2047] = True
    return kernel


REFERENCES = {"python": reference_python, "numpy": reference_numpy}


class Loop:
    """Closed loop over one round of queries; keeps round-1 outputs and latencies."""

    def __init__(self, queries, execute, reference):
        self.queries = queries
        self.execute = execute
        self.reference = reference
        self.outputs = [None] * len(queries)
        self.mismatched: list[int] = []
        self.latencies: list[tuple[int, float]] = []
        self.rounds = 0

    def run(self, seconds: float, whole_rounds: bool) -> float:
        """Run for `seconds` (always at least one whole round); return the time taken."""
        begun = time.perf_counter()
        while not self.rounds or time.perf_counter() - begun < seconds:
            for i, query in enumerate(self.queries):
                if (self.rounds and not whole_rounds
                        and time.perf_counter() - begun >= seconds):
                    return time.perf_counter() - begun
                started = time.perf_counter()
                self.reference()
                speed = time.perf_counter() - started
                started = time.perf_counter()
                result = self.execute(i, query)
                self.latencies.append((i, time.perf_counter() - started, self.rounds, speed))
                if "writes" in query:
                    Path(query["writes"]).write_text(result[1], encoding="utf-8")
                if self.outputs[i] is None:
                    self.outputs[i] = result
                elif self.outputs[i] != result:
                    self.mismatched.append(i)
            self.rounds += 1
        return time.perf_counter() - begun


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(plan["src"])
    started = time.perf_counter()
    sys.path.insert(0, str(src))
    import gamedep
    from gamedep.cli import main as cli_main
    if Path(gamedep.__file__).resolve().parent != src / "gamedep":
        print(f"gamedep imported from {gamedep.__file__}, not {src}", file=sys.stderr)
        return 2
    for argv in plan["warmup"]:
        call_cli(cli_main, argv)
    result = {"setup_s": time.perf_counter() - started}

    plain = lambda i, query: call_cli(cli_main, query["argv"])
    reference = REFERENCES[plan["reference"]]()
    loop = Loop(plan["queries"], plain, reference)
    if plan["mode"] == "run":
        result["elapsed_s"] = loop.run(plan["seconds"], whole_rounds=False)
    elif plan["mode"] == "trace":
        import spans
        untraced = loop.run(0, whole_rounds=True)
        tracer = spans.Tracer(cli_main, call_cli)
        traced_loop = Loop(plan["queries"], tracer.query, reference)
        traced = traced_loop.run(plan["seconds"], whole_rounds=True) / traced_loop.rounds
        result["layers"] = tracer.metrics(traced_loop.rounds)
        result["layers"]["trace.overhead_ratio"] = traced / untraced - 1
        tracer.dump(plan["trace_out"], traced_loop.rounds, traced, untraced)
        loop.mismatched += [i for i, output in enumerate(traced_loop.outputs)
                            if output != loop.outputs[i]] + traced_loop.mismatched
        loop.latencies, loop.rounds = traced_loop.latencies, traced_loop.rounds
    result.update(outputs=loop.outputs, mismatched=loop.mismatched, latencies=loop.latencies,
                  rounds=loop.rounds,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
