"""Steadiness of the benchmark: run each workload repeatedly and report, for
every metric, the median, the quartiles and the spread (Q3 - Q1) as a share
of the median, next to the bound in BENCHMARK.json.  The bounds are set from
this output: each spread should stay below a third of its bound.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Each run is a fresh interpreter (``run.py``) with its own seed, 1 to --runs,
and lasts BENCHMARK.json's run_seconds, the length the bounds are set for.
The share of failed operations must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import BENCH_DIR, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, config["run_seconds"]) for seed in range(1, args.runs + 1)]
        shares = {(r["failed"], r["attempted"]) for r in results}
        same_share = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for r in results)
        steady &= same_share and correct
        print(f"{workload}: runs={len(results)} correct={correct} failed/attempted={sorted(shares)} "
              f"same share={same_share}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                steady &= spread <= bound
            print(f"  {name:38s} median={med:<14.6g} {unit:5s} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:7.2%}" + (f"  bound={bound:.0%} {mark}" if bound is not None else ""))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
