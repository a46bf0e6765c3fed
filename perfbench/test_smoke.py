"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs at minimal length (one operation of each kind, one
set-up), untraced and traced.  The test asserts that each metric
BENCHMARK.json names is printed with its unit, and that every output check
the workload makes ran and passed.  It also asserts that, without the
library source next to it, the benchmark exits non-zero and prints no
result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from clark_measures import (  # noqa: E402
    QuadratureGrid,
    UnimodularConstant,
    herglotz_rhs,
    measure_integrator,
    rif_clark_measure,
    rif_map,
    sample_test_points,
)
from metrics import tail, weighted_quantile  # noqa: E402
from workloads import EXAMPLE_RIF, RIF_BASE_REL  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# check families each workload must exercise
CHECK_FAMILIES = {
    "embed-antidiagonal": {"embed", "identity", "mass", "fourier"},
    "product-fiber": {"identity", "mass", "fourier", "support"},
    "rif-plot": {"identity", "mass", "fourier", "support", "plot", "measure1d"},
}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)

    detail_line = next(line for line in lines if line.startswith("# detail: "))
    detail = json.loads(Path(detail_line[len("# detail: "):]).read_text(encoding="utf-8"))
    assert detail["unchecked"] == []
    assert all(ran > 0 and failed == 0 for ran, failed in detail["checks"].values())
    families = {name.split(".")[0] for name in detail["checks"]}
    assert CHECK_FAMILIES[workload] <= families


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "rif-plot", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_has_ten_samples_beyond():
    value, pct, n = tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in range(1, 101)) == 10


def test_weighted_quantile_follows_pass_weights():
    # 9 fast samples of a kind weighing 1, 1 slow sample of a kind weighing 9
    records = [["fast", "identity", 1, 0.001 * (i + 1), True] for i in range(9)]
    records.append(["slow", "identity", 1, 1.0, True])
    weights = {"fast": 1, "slow": 9}
    assert weighted_quantile(records, weights, 0.05) == 0.005
    assert weighted_quantile(records, weights, 0.5) == 1.0


@pytest.mark.xfail(strict=True, reason=(
    "measure_integrator's N = 4096 error bound misses the true error of the "
    "RIF example at alpha = e^{i pi/2} near |z2| = 0.95; rif-plot counts such "
    "residuals in verify.identity.bound_misses"))
def test_rif_coarse_grid_bound_holds_at_pi_2():
    alpha = UnimodularConstant.from_nu(math.pi / 2)
    mu = rif_clark_measure(EXAMPLE_RIF, alpha)
    z = sample_test_points(2, 2048, 1)[1762]
    res = measure_integrator(mu, QuadratureGrid(4096))(z)
    rhs = herglotz_rhs(rif_map(EXAMPLE_RIF), alpha, z)
    assert abs(res.value.real - rhs) / rhs <= RIF_BASE_REL + res.error_bound / rhs
