"""twinrec benchmark: prepare, train and serve on a seeded synthetic log.

    python3 bench/run.py --workload baseline --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. The run generates the workload's log from ``--seed``, then runs
three phases, each in a fresh process with one BLAS/OpenMP thread:

- prepare: ingest, 5-core, vocabularies, training windows and model
  construction, repeated; ``setup_s`` is the median repetition;
- train: ``training.train`` on a fixed set of windows, repeated from the
  same initial state while the train share of ``--seconds`` lasts;
- serve: load the checkpoint, full-ranking ``training.evaluate`` for the
  eval share, then single-user ``predict_topk`` requests (k=10, one client,
  closed loop) for the top-k share, at least 200 requests.

Every output is checked. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Generated files go to ``bench/_work/`` and are removed at the end, except
the span files of traced runs under ``bench/_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0
# Share of --seconds given to the train and top-k windows; the evaluation
# window's share is the workload's ``eval_share``.
SHARES = {"train": 0.4, "topk": 0.3}


def run_phase(phase, job, run_dir, deadline):
    job_path = run_dir / f"{phase}-job.json"
    result_path = run_dir / f"{phase}-result.json"
    with open(job_path, "w", encoding="utf-8") as f:
        json.dump(job, f)
    proc = subprocess.run([sys.executable, str(BENCH / "phases.py"), phase,
                           str(job_path), str(result_path)],
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} phase exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "twinrec" / "__init__.py").is_file():
        print(f"error: no twinrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Set before numpy loads its BLAS here; the phase processes inherit it.
    os.environ.update({var: "1" for var in THREAD_VARS}, PYTHONHASHSEED="0")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    run_dir = WORK / f"{w.name}-s{args.seed}-{os.getpid()}"
    trace_dir = WORK / "traces" / f"{w.name}-s{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        log = run_dir / "interactions.tsv"
        expected = workloads.generate(w, args.seed, log)
        job = {"workload": asdict(w), "seed": args.seed, "log": str(log),
               "workspace": str(run_dir), "expected": expected,
               "trace": bool(args.trace), "trace_dir": str(trace_dir),
               "budget": {k: share * args.seconds
                          for k, share in {**SHARES, "eval": w.eval_share}.items()}}
        results = {phase: run_phase(phase, job, run_dir, deadline)
                   for phase in ("prepare", "train", "serve")}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures = [f"{phase}: {msg}" for phase, r in results.items() for msg in r["failures"]]
    key = "per_layer" if args.trace else "metrics"
    metrics = {}
    for r in results.values():
        metrics.update(r.get(key, {}))
    for phase, r in results.items():
        print(f"{phase}: " + ", ".join(f"{k}={v}" for k, v in r["notes"].items()))
    for msg in failures:
        print(f"check failed: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
