#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two interleaved sets of every workload (set A with seeds 1..N, set B
with seeds N+1..2N, alternating A and B run by run) and prints, per workload
and end-to-end metric, each set's median and quartiles, the spread
(interquartile distance over the median) and the difference between the
set medians, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs N]

Run it from the repository root. Every run is as long as BENCHMARK.json's
run_seconds. A line is marked "!" when a spread exceeds a third of the bound
or the medians differ by more than the bound; the failed-operation shares of
the two sets must be identical.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    opts = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {n: {"A": [], "B": []} for n in names}
    for i in range(opts.runs):
        for n in names:
            for s, seed in (("A", 1 + i), ("B", 1 + opts.runs + i)):
                res = run_once(bench["command"], n, seed, bench["run_seconds"])
                runs[n][s].append(res)
                print(f"# {n} set {s} seed {seed}: attempted {res['attempted']} failed {res['failed']}",
                      file=sys.stderr)
    ok = True
    print(f"{'workload':14} {'metric':16} {'A q1':>11} {'A median':>11} {'A q3':>11} {'A spr%':>7}"
          f" {'B median':>11} {'B spr%':>7} {'diff%':>7} {'bound%':>7}")
    for n in names:
        shares = {s: {r["failed"] / r["attempted"] for r in runs[n][s]} for s in "AB"}
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"! {n}: failed shares differ between runs: {shares}")
        for metric, bound in bounds.items():
            a = [r["metrics"][metric]["value"] for r in runs[n]["A"]]
            b = [r["metrics"][metric]["value"] for r in runs[n]["B"]]
            aq1, amed, aq3 = summary(a)
            bq1, bmed, bq3 = summary(b)
            aspr, bspr = (aq3 - aq1) / amed, (bq3 - bq1) / bmed
            diff = (bmed - amed) / amed
            bad = abs(diff) > bound or max(aspr, bspr) > bound / 3
            ok = ok and not bad
            print(f"{'!' if bad else ' '}{n:13} {metric:16} {aq1:11.4g} {amed:11.4g} {aq3:11.4g} {100*aspr:7.2f}"
                  f" {bmed:11.4g} {100*bspr:7.2f} {100*diff:7.2f} {100*bound:7.1f}")
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
