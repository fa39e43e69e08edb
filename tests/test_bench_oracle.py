"""The benchmark's correctness oracle, run as part of the test suite.

Each workload runs for one second on its smoke inputs; the last line of
``perfbench/run.py``'s output is the result, whose ``correct`` flag says
every call agreed with the workload's reference (classify outcomes and
margins, scan digests).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["classify_mixed", "scan_dense"])
def test_benchmark_oracle_accepts_every_call(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
