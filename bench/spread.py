"""Run workloads repeatedly and report each metric's spread against its bound.

    python3 bench/spread.py --workload baseline --runs 10 --seed0 1 --out a.json
    python3 bench/spread.py --compare a.json b.json

The first form runs ``bench/run.py`` once per seed (seed0, seed0+1, ...)
and prints, for every metric, the median, the quartiles and the spread:
the distance between the quartiles (``statistics.quantiles(n=4)``) as a
share of the median. A spread marked ``ok`` is below a third of the
metric's bound; ``WIDE`` is above the bound. It also prints the share of
failed operations of each run. ``--out`` keeps the raw values.

The second form compares two saved sets the way a regression check
would: for every workload and metric, how much worse the second median is
than the first, against the bound, and whether the failed shares agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def report(workload, runs, bounds):
    print(f"== {workload}: {len(runs)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"   failed share per run: {shares}   all correct: {all(r['correct'] for r in runs)}")
    names = list(runs[0]["metrics"])
    print(f"   {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
        print(f"   {name:32s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")


def compare(path_a, path_b, spec_doc):
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    bad = 0
    for workload in sorted(set(a) & set(b)):
        share_a = {r["failed"] / r["attempted"] for r in a[workload]}
        share_b = {r["failed"] / r["attempted"] for r in b[workload]}
        print(f"== {workload}: failed shares {sorted(share_a)} vs {sorted(share_b)}")
        bad += share_a != share_b
        for m in spec_doc["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[workload])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"]
            bad += not ok
            print(f"   {m['name']:24s} {ma:12.5g} -> {mb:12.5g}  worse by {worse:+.4f} "
                  f"(bound {m['bound']}) {'ok' if ok else 'REGRESSED'}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", help="write the raw results here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    doc = spec()
    if args.compare:
        return compare(*args.compare, doc)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    results = {}
    for workload in args.workload or [w["name"] for w in doc["workloads"]]:
        runs = [run_once(workload, args.seed0 + i, doc["run_seconds"]) for i in range(args.runs)]
        results[workload] = runs
        report(workload, runs, bounds)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(results, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
