#!/usr/bin/env python3
"""Benchmark entry point for the incepformer package.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics from a traced run.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the metric and workload list.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("train-ipt-t-256", "eval-ipt-t-512", "gradcheck-micro-f64")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Keep BLAS/OpenMP thread pools at or below nproc.

    Must run before numpy is imported; child processes inherit the setting.
    """
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        os.environ[var] = str(max(1, min(want, n)))


def _import_workloads():
    if not (SRC / "incepformer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package sources not found under {SRC}; "
                         "run from the root of a checkout")
    for p in (str(SRC), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import workloads

    return workloads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # "micro" shrinks the train and eval workloads to the micro config for the
    # benchmark's own tests; the measured benchmark always runs "full".
    p.add_argument("--size", choices=("full", "micro"), default="full", help=argparse.SUPPRESS)
    # Internal modes: a fresh process that measures one set-up, and one that
    # writes the untimed inputs of a workload (the eval checkpoint).
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--make-golden", action="store_true",
                   help="recompute the reference training losses (run on the commit they pin)")
    args = p.parse_args(argv)
    if args.workload is None and not args.make_golden:
        p.error("--workload is required")
    return args


def _run_all(args) -> int:
    """Run every workload in its own process and print one summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print()
    print(f"{'workload':<22} {'metric':<34} {'value':>16}  unit")
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print(f"{name:<22} {metric:<34} {mv['value']:>16.6g}  {mv['unit']}")
        print(f"{name:<22} {'error_rate':<34} {res['failed'] / res['attempted']:>16.6g}  share")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    cap_blas_threads()
    wl = _import_workloads()
    if args.make_golden:
        wl.make_golden()
        return 0
    if args.workload == "all":
        return _run_all(args)
    if args.prepare:
        wl.make_workload(args.workload, args.seed, args.size, WORK).prepare()
        return 0
    if args.probe_setup:
        print(f"PROBE {wl.probe_setup(args.workload, args.seed, args.size, WORK)!r}")
        return 0
    result = wl.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), WORK,
                              size=args.size, entry=Path(__file__).resolve())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
