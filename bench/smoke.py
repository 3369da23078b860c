"""Fast smoke run of the benchmark at tiny sizes (a few seconds).

    python3 bench/smoke.py

Checks that ``BENCHMARK.json`` is well formed, runs the ``smoke`` workload
through every phase and every correctness check, untraced and traced, and
validates each result line against the metrics ``BENCHMARK.json`` lists.
It also runs the benchmark in a directory holding only ``BENCHMARK.json``
and ``bench/``, where it must fail without printing a result.
Exits 0 when everything holds and 1 otherwise, listing each problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def spec_problems(doc):
    problems = []
    if set(doc) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(doc)}")
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not 1 <= len(doc["paths"]) <= 16 or not all(
            PATH.fullmatch(p) and not p.startswith("/") and ".." not in p for p in doc["paths"]):
        problems.append(f"bad paths {doc['paths']}")
    if not 1 <= len(doc["command"]) <= 32 or any(len(c) > 200 for c in doc["command"]):
        problems.append("bad command")
    if not 2 <= len(doc["workloads"]) <= 8:
        problems.append("need 2..8 workloads")
    names = []
    for w in doc["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w}")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in doc[group]:
            names.append(m["name"])
            if set(m) != keys or not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
                problems.append(f"{group} metric {m}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} outside (0, 0.25]")
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.fullmatch(n) or names.count(n) > 1]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in doc["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def result_problems(stdout, expected, trace):
    lines = stdout.strip().splitlines()
    if not lines:
        return [f"trace {trace}: no output"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"trace {trace}: correct is not true: {lines[:-1]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and result["failed"] == 0):
        problems.append(f"trace {trace}: attempted {result['attempted']} failed {result['failed']}")
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"trace {trace}: metrics {sorted(set(got) ^ set(expected))} differ")
    for name, m in got.items():
        if name in expected and m.get("unit") != expected[name]["unit"]:
            problems.append(f"trace {trace}: {name} unit {m.get('unit')}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"trace {trace}: {name} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"trace {trace}: end-to-end {name} is {value}")
    return problems


def bare_problems(doc):
    """The benchmark must fail, printing no result, without the program's sources."""
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in doc["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(doc["command"] + ["--workload", "smoke", "--seed", "1",
                                                "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["the benchmark succeeded without the program's sources"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        doc = json.load(f)
    problems = spec_problems(doc)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(doc["command"] + ["--workload", "smoke", "--seed", "1",
                                                "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-1000:]}")
            continue
        problems += result_problems(proc.stdout, {m["name"]: m for m in doc[group]}, trace)
    problems += bare_problems(doc)
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
