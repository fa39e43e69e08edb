"""Regenerate the stored references under perfbench/reference/.

    python3 perfbench/make_reference.py

Run from the root of a source checkout. The references record what cvsep
produces at the commit that defined the benchmark; regenerate them only when
a change is meant to alter the scan CSV or classify's output, and say so in
that change. Takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import cvsep  # noqa: E402
import cvsep.cli  # noqa: E402
import workloads  # noqa: E402

SCAN_T_STEPS = range(8, 17)
GOLDEN_SEED = 906338
GOLDEN_STATES = 40


def _write(name: str, doc) -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(workloads.REFERENCE_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def scan_digests(out: Path) -> dict[str, str]:
    digests = {}
    for steps in SCAN_T_STEPS:
        if cvsep.cli.main(["scan", "--t-steps", str(steps), "--out", str(out)]) != 0:
            raise SystemExit(f"scan with {steps} t-steps failed")
        data = out.read_bytes()
        worst = max(float(line.split(",")[-1]) for line in data.decode().splitlines()[1:])
        if worst > workloads.SCAN_MAX_REL:
            raise SystemExit(f"scan with {steps} t-steps disagrees by {worst}")
        digests[str(steps)] = hashlib.sha256(data).hexdigest()
    out.unlink()
    return digests


def golden_states() -> list[dict]:
    pool = workloads.build_pool(GOLDEN_SEED, GOLDEN_STATES)
    expected = workloads.pool_reference(pool)
    states = []
    for i, v in enumerate(pool):
        verdict = cvsep.classify(v)
        if verdict.outcome.value != expected["outcome"][i] or not verdict.consistent:
            raise SystemExit(f"golden state {i}: classify disagrees with the invariant oracle")
        states.append({
            "matrix": np.asarray(v, dtype=float).ravel().tolist(),
            "outcome": verdict.outcome.value,
            "consistent": verdict.consistent,
            "margins": {name: rep.margin for name, rep in verdict.reports.items()},
        })
    return states


def main() -> int:
    _write("classify_golden.json", {"seed": GOLDEN_SEED, "states": golden_states()})
    _write("scan.json", {"digests": scan_digests(HERE.parent / ".bench_out.reference.csv")})
    return 0


if __name__ == "__main__":
    sys.exit(main())
