#!/usr/bin/env python3
"""Compare sets of benchmark results.

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory written by sweep.py (its untraced/ and traced/
subdirectories are read separately).  For every workload and metric the
table gives each set's median, first and third quartile, and the spread
(Q3 - Q1) / median, with quartiles as statistics.quantiles(values, n=4)
computes them.  An end-to-end metric is flagged SPREAD when a set's
spread exceeds its bound in BENCHMARK.json (set-up time excepted), and
DIFF when set B's median is worse than set A's by more than the bound.
Also compares the share of failed operations.  Exits 1 if anything is
flagged.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(d):
    runs = {}
    for path in sorted(glob.glob(os.path.join(d, "*.json"))):
        workload = os.path.basename(path).split(".")[0]
        with open(path) as f:
            runs.setdefault(workload, []).append(json.load(f))
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def failed_share(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    sets = sys.argv[1:]
    if not 1 <= len(sets) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    flagged = 0
    for kind in ("untraced", "traced"):
        data = [load(os.path.join(s, kind)) for s in sets]
        workloads = sorted(set().union(*[d.keys() for d in data]))
        if not workloads:
            continue
        print(f"== {kind} ==")
        for w in workloads:
            runs = [d.get(w, []) for d in data]
            counts = " / ".join(str(len(r)) for r in runs)
            shares = [failed_share(r) for r in runs if r]
            bad = not all(r["correct"] for rs in runs for r in rs)
            note = "  INCORRECT" if bad else ""
            if len(set(shares)) > 1:
                note += "  FAILED-SHARE"
            flagged += bool(note)
            print(f"-- {w} (runs {counts}; failed share {shares}){note}")
            names = []
            for rs in runs:
                for r in rs:
                    for n in r["metrics"]:
                        if n not in names:
                            names.append(n)
            for n in names:
                cols, meds = [], []
                flag = ""
                m = e2e.get(n) if kind == "untraced" else None
                for rs in runs:
                    vals = [r["metrics"][n]["value"] for r in rs if n in r["metrics"]]
                    if not vals:
                        cols.append(f"{'-':>38}")
                        meds.append(None)
                        continue
                    q1, med, q3 = quartiles(vals)
                    spread = (q3 - q1) / med if med else 0.0
                    cols.append(f"{med:12.5g} [{q1:10.5g},{q3:10.5g}] {spread:6.1%}")
                    meds.append(med)
                    if m and n != "setup_s" and spread > m["bound"]:
                        flag += " SPREAD"
                if m and len(meds) == 2 and None not in meds and meds[0]:
                    worse = (meds[1] - meds[0]) / meds[0]
                    if m["better"] == "higher":
                        worse = -worse
                    if worse > m["bound"]:
                        flag += " DIFF"
                    flag = f" {worse:+6.1%}" + flag
                flagged += bool("SPREAD" in flag or "DIFF" in flag)
                print(f"   {n:32s} " + " | ".join(cols) + flag)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
