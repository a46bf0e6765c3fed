"""Benchmark of the clark-measures library: time to a verified answer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

--seconds defaults to run_seconds in BENCHMARK.json.

Run from anywhere; the library is imported from src/ next to this
directory.  Workloads: embed-antidiagonal, product-fiber, rif-plot (see
README.md).  Each run is one closed loop in one worker process.  Untraced
runs report the end-to-end metrics; --trace 1 reports the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it, each starting
with '#', are a readable summary.  The full record of a run, with the run
environment and every output check, is written under .perfbench/.

Exit codes: 0 correct, 2 the benchmark could not run, 3 an output check
failed (the result line is printed, with correct false).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("embed-antidiagonal", "product-fiber", "rif-plot")
DEFAULT_SEED = 1729          # clark_measures.verify.DEFAULT_SEED
BLAS_THREADS = 1             # the same on every run, at or below nproc
SETUP_REPEATS = 3            # set-ups per untraced run; setup_s is their median
BUDGET_S = 175.0             # every run ends within this, workers included


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(args, deadline: float, probe: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    cmd += ["--probe"] if probe else []
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--spawn-time", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {BUDGET_S:.0f} s budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_record(main: dict) -> dict:
    """The run environment, for the record; none of it is gated."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": main["numpy"],
        "blas": main["blas"],
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "machine": platform.machine(),
    }


def samples_by_kind(records) -> dict:
    """kind -> seconds of each successful operation, in run order."""
    samples = {}
    for kind, _, _, seconds, ok in records:
        if ok:
            samples.setdefault(kind, []).append(seconds)
    return samples


def run_seconds() -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(spec["run_seconds"])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=run_seconds())
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one operation of each kind and a single set-up")
    args = p.parse_args(argv)

    if not (SRC / "clark_measures" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        repeats = 1 if args.trace or args.smoke else SETUP_REPEATS
        probes = [spawn(args, deadline, probe=True) for _ in range(repeats - 1)]
        main_run = spawn(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    setups = [r["setup_s"] for r in probes] + [main_run["setup_s"]]
    values = metrics.common(main_run)
    values["setup_s"] = statistics.median(setups)
    wanted = metrics.END_TO_END
    if args.trace:
        values.update(metrics.traced(main_run))
        wanted = metrics.PER_LAYER
    attempted = main_run["attempted"] + sum(r["attempted"] for r in probes)
    failed = main_run["failed"] + sum(r["failed"] for r in probes)
    values["failed_frac"] = failed / attempted
    checks = main_run["checks"]
    unchecked = [c for c in main_run["declared_checks"] if checks.get(c, [0])[0] == 0]
    correct = failed == 0 and not unchecked

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "run_record": run_record(main_run),
        "setups_s": setups, "values": values, "checks": checks, "unchecked": unchecked,
        "failures": main_run["failures"], "pass_weights": main_run["pass_weights"],
        "bound_misses": main_run["bound_misses"],
        "loop_s": main_run["loop_s"], "samples_s": samples_by_kind(main_run["records"]),
    }
    if args.trace:
        detail["layers"] = main_run["layers"]
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# run record: {json.dumps(detail['run_record'])}")
    print(f"# identity_ms_tail is p{values['identity_tail_pct']:.2f} of "
          f"{values['identity_samples']} identity residuals; setups {setups}")
    print(f"# failed_frac {values['failed_frac']:.6g} ({failed} of {attempted}); "
          f"checks {sum(c[0] for c in checks.values())} run, unchecked {unchecked}")
    print(f"# known error-bound misses (kind, rel error, rel tolerance): "
          f"{main_run['bound_misses']}")
    for name, unit in metrics.END_TO_END + metrics.UNGATED:
        print(f"# {name:<28} {values[name]:>14.6g} {unit}")
    print(f"# detail: {detail_path}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
