"""Shared machinery of the pqzeta benchmark: paths, the child environment,
operations and rounds, layer spans, and the probes that scale wall times to
reference speed.

Every workload module describes one round as a list of ``Op``s.  A round is
always the same operations in the same order, so failures are a fixed share
of the operations attempted, whatever the seed and however many rounds fit
in the run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pqzeta"
WORKLOADS = {
    "cli-batch": "wl_cli_batch",
    "open-set": "wl_open_set",
    "zeta-sweep": "wl_zeta_sweep",
    "padic-mahler": "wl_padic_mahler",
}


def use_source_tree() -> None:
    """Make ``import pqzeta`` load the checkout's own sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    The witness cache directory is removed because it makes ``spq-sweep``
    output depend on earlier runs; byte-code writing is left on, as for an
    installed program.  numpy's OpenBLAS starts no thread pool: the load is
    one process at a time, and with the pool a fresh ``import pqzeta.cli``
    read 0.20 s in some stretches and 0.29 s in others on a 2-core host,
    which no probe followed.
    """
    env = dict(os.environ)
    env.pop("PQZETA_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Op:
    """One operation of a round: ``fn()`` is timed and its result checked.

    ``span`` names the per-layer metric that the operation's wall time counts
    towards in a traced round (None when the time is covered by patched
    spans or by no layer metric).
    """

    name: str
    fn: Callable[[], Any]
    span: str | None = None


@dataclass
class Outcome:
    op: Op
    value: Any = None
    error: BaseException | None = None
    seconds: float = 0.0  # wall time
    scaled: float = 0.0  # wall time at reference speed (see Clock)


@dataclass
class Failure:
    """A failed operation.  ``fault`` names the known program fault behind
    it; a failure without one is a wrong result and makes the run incorrect."""

    op: str
    message: str
    fault: str | None = None


class Spans:
    """Accumulated wall time per per-layer metric for one traced round."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def add(self, metric: str, seconds: float) -> None:
        self.seconds[metric] = self.seconds.get(metric, 0.0) + seconds

    def timed(self, fn: Callable, metric: str) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(metric, time.perf_counter() - t0)

        return wrapper


@contextmanager
def patched(targets: list[tuple[Any, str, str]], spans: Spans):
    """Replace ``module.attr`` by a timed wrapper for the duration.

    This records spans around calls into a layer that happen inside other
    library functions (for example ``binomial_moments`` inside
    ``measure_open_set_table``).  A name a module no longer has raises
    AttributeError: a layer that is not timed must not read as 0 s.
    """
    saved = []
    try:
        for module, attr, metric in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, spans.timed(original, metric))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


CHUNK_S = 0.2
PROBE_MODULUS = (1 << 521) - 1


def _compute_probe() -> None:
    """Dict and tuple churn, big-integer squaring and Fraction sums: the
    kinds of work pqzeta does in a process."""
    table = {}
    for i in range(3000):
        table[i % 97] = (i, i * 3)
    x = 3
    for i in range(600):
        x = (x * x + i) % PROBE_MODULUS
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(1, i)


def _interpreter_probe() -> None:
    """A bare interpreter start: what every pqzeta subprocess pays first.

    No timeout: with one, ``subprocess.run`` polls for the exit with sleeps
    that double up to 50 ms, so a 65 ms start reads 113 ms."""
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)


@dataclass(frozen=True)
class Probe:
    """A fixed piece of work timed beside the measured work.  ``reference_s``
    is about its best time on the reference host (Python 3.11.7 on a 2-core
    Xeon VM at 2.1 GHz), so scaled times read close to wall times there."""

    work: Callable[[], None]
    repeats: int
    reference_s: float

    def seconds(self) -> float:
        """Best wall time of ``repeats`` runs of the work."""
        best = math.inf
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        return best

    def factor(self) -> float:
        """What a wall time taken now is multiplied by to read at reference speed."""
        return self.reference_s / self.seconds()


COMPUTE_PROBE = Probe(_compute_probe, 3, 0.00125)
INTERPRETER_PROBE = Probe(_interpreter_probe, 2, 0.064)


class Clock:
    """Turns wall times into wall times at reference speed.

    A shared host runs the same code up to half again as slowly for seconds
    at a time.  The clock runs its probe whenever CHUNK_S of work has passed
    and divides each operation's wall time by the mean of the probe times
    around it, times the probe's reference time.  A change to pqzeta moves
    the operations and not the probe, so the scaled times keep every real
    change and lose most of the host's drift.  In-process work is scaled by
    COMPUTE_PROBE; work made of process starts by INTERPRETER_PROBE, since
    the host slows the two differently.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.last = probe.seconds()
        self.pending: list[Outcome] = []
        self.chunk = 0.0

    def add(self, outcome: Outcome) -> None:
        self.pending.append(outcome)
        self.chunk += outcome.seconds
        if self.chunk >= CHUNK_S:
            self.flush()

    def flush(self) -> None:
        now = self.probe.seconds()
        factor = self.probe.reference_s / ((self.last + now) / 2)
        for o in self.pending:
            o.scaled = o.seconds * factor
        self.last, self.pending, self.chunk = now, [], 0.0


def run_round(ops: list[Op], spans: Spans | None = None, clock: Clock | None = None) -> list[Outcome]:
    """Run every op once, in order, timing each; exceptions are outcomes."""
    out = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            outcome = Outcome(op, value=op.fn())
        except Exception as exc:  # a failing operation is a result to check
            # the traceback would tie this round's outcomes into a reference
            # cycle that only a full collection frees, inflating peak RSS
            outcome = Outcome(op, error=exc.with_traceback(None))
        outcome.seconds = time.perf_counter() - t0
        if spans is not None and op.span:
            spans.add(op.span, outcome.seconds)
        if clock is not None:
            clock.add(outcome)
        out.append(outcome)
    if clock is not None:
        clock.flush()
    return out


def _same(a: Outcome, b: Outcome) -> bool:
    if a.error is not None or b.error is not None:
        return (type(a.error), str(a.error)) == (type(b.error), str(b.error))
    return a.value == b.value


class Rounds:
    """Measured rounds.  The first round's outcomes are kept for checking;
    every later round is compared with it at once and then dropped, so memory
    does not grow with the number of rounds."""

    def __init__(self) -> None:
        self.seconds: list[float] = []  # wall time of each round
        self.scaled: list[float] = []  # the same at reference speed
        self.call_scaled: list[float] = []
        self.first: list[Outcome] | None = None
        self.mismatches: list[list[Failure]] = []

    def add(self, outcomes: list[Outcome], seconds: float) -> None:
        self.seconds.append(seconds)
        self.scaled.append(sum(o.scaled for o in outcomes))
        self.call_scaled += [o.scaled for o in outcomes]
        if self.first is None:
            self.first = outcomes
            self.mismatches.append([])
            return
        self.mismatches.append([
            Failure(o.op.name, "result differs from the first measured round")
            for o, f in zip(outcomes, self.first)
            if not _same(o, f)
        ])


def timed_round(ops: list[Op], spans: Spans | None = None, clock: Clock | None = None
                ) -> tuple[list[Outcome], float]:
    """A round and its wall time: the sum of its operations' times."""
    outcomes = run_round(ops, spans, clock)
    return outcomes, sum(o.seconds for o in outcomes)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
