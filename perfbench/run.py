"""cvsep benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cvsep is imported from ``src/``.
Workloads: classify_mixed and scan_dense (see README.md).

Every process this starts has the BLAS/OpenMP thread variables pinned to one,
so the 4x4 and 8x8 LAPACK calls start no extra threads. With ``--trace 0``
the run starts one measuring process and, around it, SETUP_PROBES fresh
interpreters that only import cvsep and build the workload's inputs;
``setup_s`` is the median of all their set-up times. With ``--trace 1`` one
traced process reports the per-layer metrics and writes its spans under
``.bench_out/``.

Prints an information line (environment, sample counts, failures) and, as
the last line, the result: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero without a result when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("classify_mixed", "scan_dense")
SETUP_PROBES = 10
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Whole-run budget in seconds; every worker is killed once it runs out.
RUN_BUDGET_S = 170


class RunError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion (killed and reaped once ``deadline`` on
    the monotonic clock passes) and return the JSON object on its last
    stdout line."""
    cmd = [sys.executable, "-B", str(WORKER), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run budget exhausted")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {timeout:.0f} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker printed nothing: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cvsep benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for the tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "cvsep" / "__init__.py").is_file():
        print(f"error: run from a cvsep checkout; {ROOT / 'src' / 'cvsep'} is missing",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    probes = 0 if args.trace else (1 if args.smoke else SETUP_PROBES)
    try:
        # Half the set-up probes run before the measuring process and half
        # after it, so their median samples the host over the whole run.
        setup_times = [run_worker(["--mode", "setup", *common], deadline)["setup_s"]
                       for _ in range(probes // 2)]
        measured = run_worker(
            ["--mode", "measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            deadline,
        )
        setup_times += [run_worker(["--mode", "setup", *common], deadline)["setup_s"]
                        for _ in range(probes - probes // 2)]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics, units = measured["metrics"], measured["units"]
    if not args.trace:
        setup_times.append(measured["setup_s"])
        metrics["setup_s"] = statistics.median(setup_times)
        units["setup_s"] = "s"

    attempted, failed = measured["attempted"], measured["failed"]
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "environment": measured["environment"],
        "latency_samples": measured["latency_samples"],
        "passes": measured["passes"],
        "failed_frac": failed / attempted if attempted else 1.0,
        "setup_samples_s": setup_times,
        "absent_targets": measured["absent_targets"],
        "first_error": measured["first_error"],
    }))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
