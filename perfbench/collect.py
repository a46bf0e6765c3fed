"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py [--workload NAME ...] [--seeds 1-10]
                                 [--seconds 30] [--traced-seed 1729]
                                 [--out FILE]

For each workload, one untraced run per seed; every end-to-end metric is
reported as its median, quartiles (statistics.quantiles, n=4) and spread,
the distance between the quartiles as a share of the median, next to a
third of the metric's bound in BENCHMARK.json.  With --traced-seed, one
traced run per workload adds the per-layer table and each layer's share of
the workload's wall time.  --out writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# the per-layer metrics worth keeping in a baseline: the timings and counts
LAYER_SUFFIXES = (".ms", ".us", ".calls", ".busy_ms", ".share")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload name; repeat for several (default: all)")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        table = {name: summarise([r[name] for r in runs]) for name in bounds}
        entry = {"end_to_end": table}
        print(f"{workload}: {len(seeds)} seeds")
        for name, row in table.items():
            flag = "" if name == "setup_s" or row["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"  {name:<24} median {row['median']:>12.6g}  spread {row['spread']:.4f}"
                  f"  (bound/3 {bounds[name] / 3:.4f}){flag}")
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["traced_seed"] = args.traced_seed
            entry["per_layer"] = {k: v for k, v in traced.items()
                                  if k.endswith(LAYER_SUFFIXES) and traced.get(
                                      k.rsplit(".", 1)[0] + ".calls", 1)}
            entry["counts"] = {k: v for k, v in traced.items() if not k.endswith(LAYER_SUFFIXES)}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
