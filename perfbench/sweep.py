#!/usr/bin/env python3
"""Run workloads over a range of seeds and keep each run's JSON result.

    python3 perfbench/sweep.py OUT [--workloads a,b] [--seeds 1-10]
                               [--seconds 10] [--trace 0|1]

Results go to OUT/untraced/<workload>.<seed>.json, or OUT/traced/... for
--trace 1, so traced runs never mix with the end-to-end figures.  A run
that fails is reported and not kept, and the sweep then exits 1.  Run
from the root of a checkout; compare sets with perfbench/compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("out")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    a = p.parse_args()
    sub = os.path.join(a.out, "traced" if a.trace else "untraced")
    os.makedirs(sub, exist_ok=True)
    failed = 0
    for w in a.workloads.split(","):
        for s in seeds(a.seeds):
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(s), "--seconds", str(a.seconds), "--trace", str(a.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = r.stdout.strip().splitlines()
            # A run that fails a check or an operation exits non-zero; it is
            # reported and not kept, so it never enters a comparison.
            if r.returncode != 0 or not lines:
                print(f"{w} seed {s}: FAILED (exit {r.returncode}): {lines[-1] if lines else ''}",
                      file=sys.stderr)
                failed += 1
                continue
            with open(os.path.join(sub, f"{w}.{s}.json"), "w") as f:
                f.write(lines[-1] + "\n")
            res = json.loads(lines[-1])
            print(f"{w} seed {s}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
