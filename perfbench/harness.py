"""One benchmark run: set up, time whole operations, check, report.

The untraced run sets its workload up SETUPS times (reporting the median),
then repeats the operation until the next one would take the summed
operation time past the run's seconds, then takes the allocation peak of
one more operation under tracemalloc. The traced run sets up once and
alternates untraced and traced operations over the same seconds, so the
difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import SETUP, CheckFailed, Sizes

SETUPS = 3

END_TO_END = (("setup_s", "s"), ("op_ms", "ms"), ("peak_bytes", "bytes"))

# Traced rows that together make up one train-desk step.
STEP_ROWS = ("model.forward.ms", "tensor.fwd.cross_entropy.ms",
             "tensor.backward.ms", "train_eval.Adam.step.ms")


class Run:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, op):
        """op() timed; (seconds, output or None if it raised)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, out

    def checked(self, check, *args) -> None:
        try:
            check(*args)
        except CheckFailed as exc:
            self.problems.append(str(exc))

    @property
    def correct(self) -> bool:
        return not self.problems


def _setup(workload: str, seed: int, sizes: Sizes):
    gc.collect()
    t0 = time.perf_counter()
    plan = SETUP[workload](seed, sizes)
    return plan, time.perf_counter() - t0


def _more(durations: list[float], seconds: float, minimum: int) -> bool:
    if len(durations) < minimum:
        return True
    return sum(durations) + statistics.median(durations) <= seconds


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), spans_dir: Path | None = None):
    """(Run, metrics {name: (value, unit)}) for one workload."""
    r = Run()
    if trace:
        return r, _traced(r, workload, seed, seconds, sizes, spans_dir)
    setup_s = []
    for _ in range(SETUPS):
        plan, took = _setup(workload, seed, sizes)
        setup_s.append(took)
    durations: list[float] = []
    while _more(durations, seconds, 1):
        took, out = r.attempt(plan.op)
        durations.append(took)
        if out is not None:
            r.checked(plan.check, out)
    gc.collect()
    tracemalloc.start()
    try:
        _, out = r.attempt(plan.op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if out is not None:
        r.checked(plan.check, out)
    r.checked(plan.final_check)
    values = (statistics.median(setup_s), statistics.median(durations) * 1e3, peak)
    return r, {name: (v, unit) for (name, unit), v in zip(END_TO_END, values)}


def _traced(r: Run, workload: str, seed: int, seconds: float, sizes: Sizes,
            spans_dir: Path | None):
    plan, _ = _setup(workload, seed, sizes)
    tracer = Tracer()
    traced_op = tracer.span("bench.op", plan.op)
    plain: list[float] = []
    traced: list[float] = []
    while _more(plain + traced, seconds, 2):
        if len(traced) < len(plain):
            tracer.install()
            try:
                took, out = r.attempt(traced_op)
            finally:
                tracer.remove()
            traced.append(took)
        else:
            took, out = r.attempt(plan.op)
            plain.append(took)
        if out is not None:
            r.checked(plan.check, out)
    r.checked(plan.final_check)
    layers = tracer.per_layer(len(traced))
    op_ms = sum(end - start for name, start, end, _ in tracer.spans
                if name == "bench.op") * 1e3 / len(traced)
    layers["trace.op_ms"] = op_ms
    layers["trace.overhead_ms"] = (statistics.median(traced)
                                   - statistics.median(plain)) * 1e3
    if workload == "train-desk":
        covered = sum(layers[row] for row in STEP_ROWS)
        if not 0.9 * op_ms <= covered <= 1.1 * op_ms:
            r.problems.append(f"traced step rows sum to {covered:.1f} ms "
                              f"of a {op_ms:.1f} ms step")
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"spans-{workload}-seed{seed}.json")
    return {name: (v, _unit(name)) for name, v in layers.items()}


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    return "count"
