#!/usr/bin/env python3
"""Run perfbench on two git revisions in alternating pairs and write the
results as a BENCH_*.json file.

Run from the root of a checkout:

    python3 tools/pairs.py PARENT CHANGE --out BENCH_N.json \\
        [--pairs 10] [--seed 3000] [--seconds S] [--workloads W,...]

Each revision is extracted with `git archive` into a fresh temporary
directory, so neither side runs from a tree that built, tested or
benchmarked anything before.  Pair i runs at seed SEED+i: for each workload
in turn, both sides run `python3 perfbench/run.py --workload W --seed S
--seconds S --trace 0`, the parent first on even i and the change first on
odd i, and the last line of its standard output is kept.  Then each side
runs one `--trace 1` run per workload at seed SEED+100, and every metric
of its record goes into `traced`.

The output has the keys `description`, `hardware`, `claim`, `sets`,
`traced` and `notes`.  For every end-to-end metric of BENCHMARK.json,
`sets` holds each side's quartiles (statistics.quantiles, inclusive), the
median change over the parent, the number of pairs the change wins, and
every pair's [parent, change] values; `failed` holds the failed units.
`notes` lists the medians.  The script reports and never decides: `claim`
is null, to be filled in by whoever makes one.  It uses the standard
library only.  --seconds defaults to BENCHMARK.json's `run_seconds`, and
--workloads to its gated workloads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
TRACE_SEED_OFFSET = 100


def first_side(i: int) -> tuple[str, str]:
    """The order in which the two sides run in pair i."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def extract(rev: str, dest: Path):
    """Write the tree of git revision `rev` into directory `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], stdout=subprocess.PIPE, check=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One perfbench run in `tree`: its result record (the last stdout line)
    and the machine description it prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"pairs: {' '.join(cmd)} in {tree} exited with code {proc.returncode}")
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), {})
    return json.loads(lines[-1]), machine


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(runs: dict[int, tuple[dict, dict]], metrics: list[tuple[str, str]]) -> dict:
    """The `sets` entry of one workload from {seed: (parent, change)}
    records, for the (name, better) end-to-end metrics."""
    out = {}
    for name, better in metrics:
        pairs = {seed: [rec["metrics"][name]["value"] for rec in recs] for seed, recs in runs.items()}
        parent = [p for p, _ in pairs.values()]
        change = [c for _, c in pairs.values()]
        base = statistics.median(parent)
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs.values())
        out[name] = {
            "better": better,
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "median_change_over_parent": round(statistics.median(change) / base - 1, 4) if base else None,
            "change_wins": wins,
            "pairs": len(pairs),
            "runs": {str(seed): [round(v, 6) for v in vals] for seed, vals in pairs.items()},
        }
    out["failed"] = {str(seed): [rec["failed"] for rec in recs] for seed, recs in runs.items()}
    return out


def notes(sets: dict) -> str:
    parts = []
    for workload, by_metric in sets.items():
        for name, s in by_metric.items():
            if name == "failed":
                failed = [f for vals in s.values() for f in vals]
                parts.append(f"{workload} failed units: {sum(failed)} in {len(failed)} runs")
            elif s["median_change_over_parent"] is not None:
                parts.append(f"{workload} {name} {100 * s['median_change_over_parent']:+.1f}% "
                             f"(change better in {s['change_wins']} of {s['pairs']})")
    return "Median change over parent: " + "; ".join(parts) + "."


def hardware(machine: dict) -> str:
    return (f"{machine['nproc']}-core {machine['cpu']}, Python {machine['python']}, numpy {machine['numpy']} "
            f"with {machine['blas']} {machine['blas_version']} ({machine['blas_threads']} threads)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision measured as the parent")
    p.add_argument("change", help="git revision measured as the change")
    p.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="seed of pair 0; pair i runs at seed + i")
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--workloads", help="comma-separated; default: the workloads of BENCHMARK.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    revs = {side: subprocess.run(["git", "rev-parse", "--short", rev], stdout=subprocess.PIPE, text=True,
                                 check=True).stdout.strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    work = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = {side: work / side for side in SIDES}
        for side, tree in trees.items():
            extract(revs[side], tree)
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
        metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
        seeds = range(args.seed, args.seed + args.pairs)
        runs = {w: {} for w in workloads}
        for i, seed in enumerate(seeds):
            for w in workloads:
                recs = {}
                for side in first_side(i):
                    recs[side], machine = run_perfbench(trees[side], w, seed, seconds, 0)
                    print(f"pair {i} seed {seed} {w} {side}: "
                          + " ".join(f"{m}={recs[side]['metrics'][m]['value']:.6g}" for m, _ in metrics),
                          file=sys.stderr, flush=True)
                runs[w][seed] = (recs["parent"], recs["change"])
        traced = []
        for side in SIDES:
            for w in workloads:
                rec, _ = run_perfbench(trees[side], w, args.seed + TRACE_SEED_OFFSET, seconds, 1)
                entry = {"side": side, "workload": w, "correct": rec["correct"], "failed": rec["failed"]}
                entry.update({m: v["value"] for m, v in rec["metrics"].items()})
                traced.append(entry)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sets = {f"seeds {seeds[0]}-{seeds[-1]}, {' and '.join(workloads)}":
            {w: summarize(runs[w], metrics) for w in workloads}}
    doc = {
        "description": (
            f"Parent {revs['parent']} against change {revs['change']}, `python3 perfbench/run.py --workload W "
            f"--seed S --seconds {seconds:g} --trace 0`, each side from a fresh `git archive` directory. "
            f"Pairs i = 0..{args.pairs - 1} at seed {args.seed}+i; in each pair every workload runs on both "
            f"sides before the next, the parent first on even i and the change first on odd i. Each `runs` "
            f"entry is [parent, change]. `traced` holds one `--trace 1` run per side and workload "
            f"(seed {args.seed + TRACE_SEED_OFFSET}), parent first. Written by tools/pairs.py."),
        "hardware": hardware(machine),
        "claim": None,
        "sets": sets,
        "traced": traced,
        "notes": notes(next(iter(sets.values()))),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
