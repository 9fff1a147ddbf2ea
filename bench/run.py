"""gamedep benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload enum-large --seed 1 --seconds 35 --trace 0

Generates the workload's input files from the seed, measures set-up in
fresh processes, runs the closed loop in a child process (worker.py) for
`--seconds`, checks every answer and prints one metric per line followed
by a JSON summary as the last line.  `--trace 1` runs the traced variant
and reports per-layer metrics instead (spans.py).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ANSWERS = BENCH / "answers.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017   # not used while tuning; re-check claims on it
SETUP_SAMPLES = 5          # fresh processes timed for setup_s, median reported
DEADLINE_S = 170           # the whole run must end within this
# Time of each workload's reference kernel (worker.REFERENCES) on the
# machine the seed numbers were taken on (2-vCPU Xeon VM, Python 3.11,
# numpy 2.4); timings are scaled to that speed, see README.
REFERENCE_NOMINAL_S = {"python": 1.25e-3, "numpy": 1.1e-3}

# name -> unit, for every end-to-end metric; the first six are in BENCHMARK.json
END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "error_rate": "fraction",
}
WORK_NAME = {"enum-large": "profiles_per_s", "prove-closure": "subsets_per_s",
             "refute-small": "games_per_s"}


def layer_unit(name: str) -> str:
    if ".us_per_" in name:
        return "us"
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_ms", "ms"), ("_us", "us"),
                         ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if name.startswith("share.") or name.endswith(("ratio", "yield")):
        return "ratio"
    return "count"


def digest(output) -> str:
    code, stdout = output
    return hashlib.sha256(f"{code}\n{stdout}".encode("utf-8")).hexdigest()[:12]


_STEP = re.compile(r"\d+\. (.*) \[")


def problems(query: dict, output, recorded: str | None) -> list[str]:
    """Everything wrong with one query's (exit code, stdout)."""
    code, stdout = output
    found = []
    if code != query["exit"]:
        found.append(f"exit {code!r}, expected {query['exit']}")
    if query["stdout"] is not None and stdout != query["stdout"]:
        found.append("stdout differs from the oracle's")
    if recorded is not None and digest(output) != recorded:
        found.append("answer differs from the one recorded for this seed")
    # `ne` lines list one player=label cell per player of the 4-player games
    rows = [[cell.partition("=")[2] for cell in line.split()]
            for line in stdout.splitlines()[:-1]]
    shaped = all(len(row) == 4 for row in rows)
    if "meanmod" in query:
        p = query["meanmod"]
        if (len(rows) != p * p or not shaped
                or not all(label.isdigit() for row in rows for label in row)
                or any(len({(int(r[k + 1]) - int(r[k])) % p for k in range(3)}) != 1
                       for r in rows)):
            found.append(f"mean_mod({p}) equilibria are not the {p * p} progressions")
    if "rps" in query and (len(rows) != 27 or not shaped or any(r[0] != r[3] for r in rows)):
        found.append("gamma2_rps equilibria are not the 27 profiles with a = d")
    if "concludes" in query:
        match = _STEP.match(stdout.splitlines()[-1]) if stdout else None
        sides = [sorted(s.strip("{}").split(",")) if s.strip("{}") else []
                 for s in match.group(1).split(" |> ")] if match else None
        if sides != query["concludes"]:
            found.append("derivation does not conclude the goal")
    return found


def per_query_bests(executions, nominal_s: float):
    """Each distinct query's fastest scaled and raw execution, and the speed.

    Every execution is scaled by nominal_s / (the fastest reference kernel
    of its round), i.e. to the machine speed the seed numbers were taken at;
    the speed returned is the median of those per-round references.
    """
    fastest: dict[int, float] = {}
    for _, _, round_no, reference_s in executions:
        fastest[round_no] = min(reference_s, fastest.get(round_no, reference_s))
    best: dict[int, float] = {}
    raw: dict[int, float] = {}
    for i, seconds, round_no, _ in executions:
        scaled = seconds * nominal_s / fastest[round_no]
        best[i] = min(scaled, best.get(i, scaled))
        raw[i] = min(seconds, raw.get(i, seconds))
    return best, raw, statistics.median(fastest.values())


def spawn(plan: dict, workdir: Path, name: str, started: float) -> dict:
    plan_path, result_path = workdir / f"{name}.plan.json", workdir / f"{name}.result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    budget = DEADLINE_S - (time.perf_counter() - started)
    if budget <= 0:
        raise TimeoutError("no time left for the worker")
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path)],
                   cwd=ROOT, check=True, timeout=budget)
    return json.loads(result_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    cli.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"workload seed (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})")
    cli.add_argument("--seconds", type=float, default=35)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cli.add_argument("--out", help="append the summary, tagged, to this JSON-lines file")
    cli.add_argument("--record", action="store_true",
                     help="store this seed's answers in answers.json (refused unless all "
                          "independent checks pass)")
    args = cli.parse_args(argv)
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "gamedep" / "__init__.py").is_file():
        print(f"error: no gamedep source tree at {src}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{'traced' if args.trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    round_ = workloads.Round(workdir)
    workloads.WORKLOADS[args.workload](round_, args.seed)
    queries = round_.queries

    kind = workloads.REFERENCE[args.workload]
    plan = {"src": str(src), "warmup": round_.warmup, "queries": [], "mode": "setup",
            "reference": kind,
            "seconds": 0, "trace_out": str(workdir / "trace.json")}
    try:
        setups = [spawn(plan, workdir, f"setup{k}", started) for k in range(SETUP_SAMPLES - 1)]
        plan.update(queries=queries, mode="trace" if args.trace else "run",
                    seconds=0 if args.record else args.seconds)
        result = spawn(plan, workdir, "main", started)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 2
    setups.append(result)

    answers = json.loads(ANSWERS.read_text(encoding="utf-8")) if ANSWERS.is_file() else {}
    recorded = answers.get(args.workload, {}).get(str(args.seed), "").split() or None
    if recorded is not None and len(recorded) != len(queries):
        recorded = ["stale"] * len(queries)
    bad = set()
    for i, (query, output) in enumerate(zip(queries, result["outputs"])):
        found = problems(query, output, recorded[i] if recorded else None)
        if found:
            bad.add(i)
            print(f"query {i} {' '.join(query['argv'][:1])}: {'; '.join(found)}", file=sys.stderr)
    executions = result["latencies"]
    failed = (sum(i in bad for i, *_ in executions)
              + sum(i not in bad for i in result["mismatched"]))
    attempted = len(executions)

    if args.record:
        if bad:
            print("error: not recording answers that fail their checks", file=sys.stderr)
            return 1
        answers.setdefault(args.workload, {})[str(args.seed)] = " ".join(
            digest(o) for o in result["outputs"])
        ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")

    if args.trace:
        metrics = {name: (value, layer_unit(name)) for name, value in result["layers"].items()}
    else:
        best, raw, speed = per_query_bests(executions, REFERENCE_NOMINAL_S[kind])
        loop_s = sum(best.values())
        cuts = statistics.quantiles([1000 * s for s in best.values()], n=10, method="inclusive")
        raw_cuts = statistics.quantiles([1000 * s for s in raw.values()], n=10, method="inclusive")
        values = {
            "throughput_qps": len(best) / loop_s,
            "latency_p50_ms": cuts[4],
            "latency_p90_ms": cuts[8],
            "work_per_s": sum(queries[i]["work"] for i in best) / loop_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "error_rate": failed / attempted,
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}
        elapsed = result["elapsed_s"]
        print(f"# {attempted} executions of {len(best)} distinct queries in {elapsed:.2f} s "
              f"({result['rounds']} whole rounds); latencies are per-query bests over "
              f"{len(best)} samples, scaled to nominal machine speed; setup samples: {len(setups)}")
        print(f"raw_throughput_qps {attempted / elapsed} 1/s")
        print(f"raw_latency_p50_ms {raw_cuts[4]} ms")
        print(f"raw_latency_p90_ms {raw_cuts[8]} ms")
        print(f"machine_speed {REFERENCE_NOMINAL_S[kind] / speed} ratio")
        print(f"{WORK_NAME[args.workload]} {values['work_per_s']} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    gated = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
             if name != "error_rate"}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": gated}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, **summary}) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
