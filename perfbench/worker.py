"""One benchmark process: set up a workload, run its closed loop, report.

Started by run.py, never by hand.  The process imports the library, builds
the workload's measures and integrators, warms each integrator path once,
and notes the set-up time since its parent spawned it.  A probe stops
there.  Otherwise it repeats the workload's cycle for --seconds: it runs
at least one whole cycle, and after that starts no operation that its
kind's last duration says would end past the deadline.  It prints one
JSON line of raw samples for run.py to reduce.

With --trace 1 every call into the library is a span.  The traced loop is
then replayed untraced, operation for operation, so the tracing overhead
is the difference of the two walls.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from metrics import LAYER_UNITS
from workloads import WORKLOADS, CheckFailed, Context

LAYERS = tuple(layer for layer, _ in LAYER_UNITS)
MAX_REPORTED_FAILURES = 20


class Runner:
    """Runs operations, recording [kind, group, units, seconds, ok] each."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, op, op_id, records):
        ctx = self.ctx
        ctx.op_seconds = 0.0
        ctx.tracer.op_id = op_id
        self.attempted += 1
        units, ok = 0, True
        with ctx.tracer.span("op." + op.kind):
            try:
                units = op.run()
            except CheckFailed as exc:
                ok = False
                self._fail(op, str(exc))
            except Exception:  # a library error fails the operation, not the run
                ok = False
                self._fail(op, traceback.format_exc())
        if records is not None:
            records.append([op.kind, op.group, units, ctx.op_seconds, ok])

    def _fail(self, op, message):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{op.kind}: {message}")
        print(f"operation {op.kind} failed: {message}", file=sys.stderr)


def smoke_cycle(cycle):
    """One operation of each kind, in cycle order."""
    seen, ops = set(), []
    for op in cycle:
        if op.kind not in seen:
            seen.add(op.kind)
            ops.append(op)
    return ops


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-time", type=float, required=True,
                   help="time.time() of the parent just before it started this process")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--probe", action="store_true", help="set up, then exit")
    p.add_argument("--smoke", action="store_true", help="one operation of each kind")
    args = p.parse_args(argv)

    out_dir = Path(args.out_dir) / f"work-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(args, out_dir: Path) -> int:
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    ctx = Context(args.seed, tracer, out_dir)
    runner = Runner(ctx)
    workload = WORKLOADS[args.workload](ctx)

    traced_start = time.perf_counter()
    try:
        with tracer.span("setup"):
            workload.setup()
    except CheckFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    for i, op in enumerate(workload.warmup()):
        runner.run(op, f"warmup-{i}", None)
    setup_s = time.time() - args.spawn_time
    result = {"setup_s": setup_s, "attempted": runner.attempted, "failed": runner.failed}
    if args.probe:
        print(json.dumps(result))
        return 0

    cycle = workload.cycle()
    weights = workload.pass_weights()
    if set(weights) != {op.kind for op in cycle}:
        print("pass weights and cycle name different kinds", file=sys.stderr)
        return 1
    if args.smoke:
        cycle = smoke_cycle(cycle)
    records, executed, last = [], [], {}
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        op = cycle[len(executed) % len(cycle)]
        now = time.perf_counter()
        if len(executed) >= len(cycle) and now + last.get(op.kind, 0.0) > deadline:
            break
        runner.run(op, len(executed), records)
        last[op.kind] = time.perf_counter() - now
        executed.append(op)
    loop_s = time.perf_counter() - start
    counters, quality = dict(ctx.counters), list(ctx.quality)
    bound_misses = list(ctx.bound_misses)

    if args.trace:
        traced_wall = time.perf_counter() - traced_start
        spans = tracer.spans
        tracer.write(Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.json")
        ctx.tracer = tracing.NullTracer()
        workload.reset()
        replay_start = time.perf_counter()
        for i, op in enumerate(executed):
            runner.run(op, i, None)
        replay_s = time.perf_counter() - replay_start
        result.update(
            layers=tracing.layer_table(spans, LAYERS, traced_wall),
            self_s=tracing.self_time(spans, LAYERS, traced_wall),
            traced_wall_s=traced_wall,
            overhead_frac=(loop_s - replay_s) / replay_s,
        )

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        records=records,
        pass_weights=weights,
        loop_s=loop_s,
        quality=quality,
        bound_misses=bound_misses,
        checks=ctx.checks,
        declared_checks=list(workload.checks),
        counters=counters,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        blas=blas_info(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
