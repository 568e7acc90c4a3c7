"""Run one pqzeta benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-batch, open-set, zeta-sweep, padic-mahler (see README.md).

With --trace 0 the run measures the end-to-end metrics: set-up time (the
median of several fresh interpreters), the median round time, the median
call time and the peak resident set.  Times are read at reference speed
(see harness.Clock).  With --trace 1 it measures the
per-layer metrics instead: every workload runs one traced round, and the
named workload alternates untraced and traced rounds for --seconds to give
the tracing overhead.  Either way the outputs of the named workload's rounds
are checked, and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from statistics import median

import harness
from harness import Clock, Rounds, Spans, patched, run_round, timed_round

SETUP_REPS = 11
# a cli-batch round can outlast a 15-second run on a slow host; one round
# alone gave the widest spreads
MIN_ROUNDS = 2
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "call_ms_p50": "ms", "peak_rss_mb": "MB"}
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def compile_sources() -> None:
    """The build: byte-compile the program and the benchmark, untimed."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(harness.PACKAGE), str(harness.BENCH_DIR)],
        env=harness.child_env(), check=True, stdout=subprocess.DEVNULL, timeout=600,
    )


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds, over SETUP_REPS fresh interpreters, from starting one
    until the workload's modules are imported and its inputs built, at
    reference speed: each is scaled by the interpreter probe timed just
    before it, since set-up starts with a process start."""
    samples = []
    for _ in range(SETUP_REPS):
        factor = harness.INTERPRETER_PROBE.factor()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "setup_child.py"), workload, str(seed), repr(start)],
            env=harness.child_env(), capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout) * factor)
    return median(samples)


def traced_round(module, st, spans: Spans):
    ops = module.ops(st, traced=True)
    with patched(module.patches(st), spans):
        outcomes, seconds = timed_round(ops, spans)
    module.after_traced_round(st, outcomes, spans)
    return outcomes, seconds


def measure(module, st, seconds: float) -> tuple[Rounds, dict]:
    """Untraced rounds for ``seconds``, and at least MIN_ROUNDS; the
    end-to-end metrics."""
    ops = module.ops(st)
    rounds = Rounds()
    clock = Clock(harness.INTERPRETER_PROBE if module.SUBPROCESS_CALLS else harness.COMPUTE_PROBE)
    start = time.perf_counter()
    while len(rounds.seconds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.add(*timed_round(ops, clock=clock))
    metrics = {
        "run_s": median(rounds.scaled),
        "call_ms_p50": median(rounds.call_scaled) * 1e3,
        "peak_rss_mb": module.peak_rss_mb(st),
    }
    print(f"{len(rounds.seconds)} rounds; median wall round {median(rounds.seconds):.4f} s, "
          f"at reference speed {metrics['run_s']:.4f} s", file=sys.stderr)
    return rounds, metrics


def measure_layers(module, st, seed: int, seconds: float) -> tuple[Rounds, dict]:
    """Per-layer metrics of every workload and the tracing overhead of this one."""
    ops = module.ops(st)
    rounds, plain, traced, spans_list = Rounds(), [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        outcomes, dt = timed_round(ops)
        rounds.add(outcomes, dt)
        plain.append(dt)
        spans = Spans()
        outcomes, dt = traced_round(module, st, spans)
        rounds.add(outcomes, dt)
        traced.append(dt)
        spans_list.append(spans)
    layer_seconds = {
        metric: median([s.seconds[metric] for s in spans_list]) for metric in spans_list[0].seconds
    }
    spans = Spans()
    module.extra_layers(st, spans)
    layer_seconds.update(spans.seconds)
    for name, other_name in harness.WORKLOADS.items():
        if name == module.NAME:
            continue
        other = importlib.import_module(other_name)
        other_st = other.setup(seed)
        run_round(other.ops(other_st))  # warm-up
        spans = Spans()
        traced_round(other, other_st, spans)
        other.extra_layers(other_st, spans)
        layer_seconds.update(spans.seconds)
    metrics = {}
    for name in harness.WORKLOADS.values():
        for metric, unit in importlib.import_module(name).LAYERS.items():
            # a layer metric no span recorded is a fault of the benchmark, not 0 s
            metrics[metric] = (layer_seconds[metric] * UNIT_SCALE[unit], unit)
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    return rounds, metrics


def tally(module, st, rounds: Rounds) -> tuple[bool, int, int]:
    """Check the first round, count failed operations over every round, and
    report each failure once on stderr."""
    failures = module.check(st, rounds.first)
    failed_first = {f.op for f in failures}
    wrong = [f for f in failures if f.fault is None]
    failed = 0
    for mismatches in rounds.mismatches:
        failed += len(failed_first | {f.op for f in mismatches})
        wrong += mismatches
    for f in failures + [m for ms in rounds.mismatches for m in ms]:
        print(f"{'FAILED' if f.fault else 'WRONG'} [{f.op}] {f.message}", file=sys.stderr)
    attempted = len(rounds.first) * len(rounds.seconds)
    return not wrong, attempted, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not harness.PACKAGE.is_dir():
        print(f"pqzeta sources not found at {harness.PACKAGE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    harness.use_source_tree()
    module = importlib.import_module(harness.WORKLOADS[args.workload])

    compile_sources()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    st = module.setup(args.seed)
    run_round(module.ops(st))  # warm-up, untimed
    if args.trace:
        rounds, metrics = measure_layers(module, st, args.seed, args.seconds)
    else:
        rounds, e2e = measure(module, st, args.seconds)
        e2e["setup_s"] = setup_s
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
    # the oracles (sympy) are imported by the checks, after every metric is recorded
    correct, attempted, failed = tally(module, st, rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
