"""Smoke test of the benchmark: one cycle per workload, output schema.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"python", "numpy", "nproc", "threads", "git_commit", "seed",
            "workload"}


def run_bench(cwd: Path, workload: str, trace: int):
  return subprocess.run(
    [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
     "--seconds", "0", "--trace", str(trace)],
    cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_cycle_output_schema(workload, trace):
  proc = run_bench(ROOT, workload, trace)
  assert proc.returncode == 0, proc.stderr
  *report_lines, last = proc.stdout.strip().splitlines()
  result = json.loads(last)
  assert set(result) == {"correct", "attempted", "failed", "metrics"}
  assert result["correct"] is True, "\n".join(report_lines)
  assert result["failed"] == 0
  assert isinstance(result["attempted"], int) and result["attempted"] >= 1
  declared = SPEC["per_layer" if trace else "end_to_end"]
  assert list(result["metrics"]) == [m["name"] for m in declared]
  for m in declared:
    got = result["metrics"][m["name"]]
    assert set(got) == {"value", "unit"}
    assert got["unit"] == m["unit"]
    assert isinstance(got["value"], (int, float))
    assert not isinstance(got["value"], bool)
  report = json.loads("\n".join(report_lines))["report"]
  assert ENV_KEYS <= set(report["environment"])
  assert report["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
  assert all(report["checks"].values()), report["checks"]
  assert sum(report["histogram"].values()) == report["requests"]
  for stage in report["stage_metrics"].values():
    assert stage["samples"] >= 1


def test_without_the_package_it_fails_without_a_result(tmp_path):
  shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
  for path in SPEC["paths"]:
    shutil.copytree(ROOT / path, tmp_path / path,
                    ignore=shutil.ignore_patterns("__pycache__"))
  proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
  assert proc.returncode != 0
  assert '"correct"' not in proc.stdout
