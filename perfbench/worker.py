"""One benchmark process: build a workload's inputs, run it, check it.

Started by run.py with the BLAS thread variables pinned to one. Prints one
JSON object on its last stdout line. ``--mode setup`` stops after the timed
set-up (importing cvsep and building the inputs in this fresh interpreter);
``--mode measure`` goes on to the timed loop, or with ``--trace 1`` to the
traced pass and its untraced comparison.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before numpy or cvsep load

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_us": "us",
    "item_p99_us": "us",
    "peak_rss_mb": "MB",
}


@dataclass
class Calls:
    """Outcome of a run of consecutive workload calls."""

    latencies: list = field(default_factory=list)
    items: int = 0
    failed: int = 0
    first_error: str | None = None

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_calls(w, count: int, deadline=None, tracer=None) -> Calls:
    """Run calls 0 .. count-1, stopping early once ``deadline`` (on the
    perf_counter clock) has passed. Only the call itself is timed; checking
    its output happens between calls. A call that raises counts as failed."""
    out = Calls()
    clock = time.perf_counter
    for k in range(count):
        if deadline is not None and clock() >= deadline:
            break
        if tracer is not None:
            tracer.item = k
        t0 = clock()
        try:
            result = w.call(k)
        except Exception:  # a failing call is counted and the run goes on
            t1 = clock()
            ok = False
            if out.first_error is None:
                out.first_error = traceback.format_exc()
        else:
            t1 = clock()
            ok = w.check(k, result)
        out.latencies.append(t1 - t0)
        out.items += w.items(k)
        out.failed += not ok
    return out


def repeat_passes(w, seconds: float) -> list[Calls]:
    """One full pass, then further passes until ``seconds`` have passed since
    the first began; the last may stop part-way."""
    deadline = time.perf_counter() + seconds
    passes = [run_calls(w, w.pass_calls)]
    while time.perf_counter() < deadline:
        passes.append(run_calls(w, w.pass_calls, deadline))
    return passes


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(w, passes: list[Calls]) -> dict:
    """Each call's time is the fastest run of its input (``w.key(k)``) across
    all passes; item latency is that time over the call's items, and the
    throughput is the pass's items over the sum of those times.

    Taking the fastest run removes slowdowns imposed from outside the
    process: on a shared two-vCPU host the speed of a fixed loop moves by up
    to 2x for seconds at a time, which a longer run would not average away."""
    import numpy as np

    keys = [w.key(k) for k in range(w.pass_calls)]
    fastest: dict = {}
    for p in passes:
        for key, t in zip(keys, p.latencies):
            fastest[key] = min(t, fastest.get(key, t))
    best = np.array([fastest[key] for key in keys])
    items = np.array([w.items(k) for k in range(w.pass_calls)], dtype=float)
    p50, p99 = np.percentile(best / items * 1e6, [50, 99])
    return {
        "items_per_s": float(items.sum() / best.sum()),
        "item_p50_us": float(p50),
        "item_p99_us": float(p99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(w, tracer, seconds: float) -> tuple[dict, list[Calls]]:
    """Trace one pass, then repeat it untraced until ``seconds`` have passed
    in total. Tracing one fixed pass makes every count repeat exactly for a
    given seed; the overhead compares the traced pass with the median
    untraced pass."""
    import numpy as np

    began = time.perf_counter()
    with tracer.installed():
        traced = run_calls(w, w.pass_calls, tracer=tracer)
    untraced = []
    while not untraced or time.perf_counter() - began < seconds:
        untraced.append(run_calls(w, w.pass_calls))
    metrics = tracer.layer_metrics(traced.items)
    traced_ips = traced.items / traced.busy_s
    untraced_ips = float(np.median([traced.items / c.busy_s for c in untraced]))
    metrics["trace.items_per_s_traced"] = traced_ips
    metrics["trace.items_per_s_untraced"] = untraced_ips
    metrics["trace.overhead_frac"] = 1.0 - traced_ips / untraced_ips
    return metrics, [traced, *untraced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "cvsep" / "__init__.py").is_file():
        print(f"error: no cvsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cvsep

    if Path(cvsep.__file__).resolve().parent != SRC / "cvsep":
        print(f"error: imported cvsep from {cvsep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer, per_layer_units

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        if args.workload == "classify_mixed":
            w = workloads.ClassifyMixed(args.seed, args.smoke)
        elif args.workload == "scan_dense":
            w = workloads.ScanDense(args.seed, args.smoke, OUT_DIR)
        else:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
    setup_s = time.perf_counter() - _START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    w.prepare_checks()
    attempted, failed = w.golden_check()
    warmup = run_calls(w, w.warmup_calls)
    # Keep the collector from rescanning the inputs and references on every
    # collection; objects the calls create are still collected as usual.
    gc.freeze()
    if args.trace:
        metrics, runs = traced_pass(w, tracer, args.seconds)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        runs = repeat_passes(w, args.seconds)
        metrics = end_to_end(w, runs)
    w.close()
    runs.append(warmup)
    attempted += sum(len(c.latencies) for c in runs)
    failed += sum(c.failed for c in runs)
    errors = [c.first_error for c in runs if c.first_error]
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "latency_samples": w.pass_calls,
        "passes": len(runs) - 1,
        "first_error": errors[0] if errors else None,
        "absent_targets": tracer.absent if tracer else [],
        "environment": environment(args.seed),
        "metrics": metrics,
        "units": per_layer_units() if args.trace else END_TO_END_UNITS,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
