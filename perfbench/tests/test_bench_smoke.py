"""Tiny end-to-end runs of the benchmark command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, cwd=ROOT, seed=5):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    res = result(run(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_traced_counts_repeat_for_a_seed():
    first, second = (result(run("classify_mixed", 1))["metrics"] for _ in range(2))
    exact = [n for n in first if n.endswith((".calls", "_per_item", "_per_state", ".base"))]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("classify_mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
