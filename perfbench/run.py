"""Benchmark for the gpmc codec: one workload, one seed, one run.

    python3 perfbench/run.py --workload edge-query --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory and nowhere else. --trace 0 prints the end-to-end metrics,
--trace 1 a traced run's per-layer metrics and its tracing overhead. Each
line before the last is a human-readable report; the last line is one JSON
object with the metrics BENCHMARK.json declares. The full record, with the
environment and, when traced, every span, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    """What a result depends on besides the code, recorded beside it."""
    import numpy
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def _report(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, (value, samples) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]:<6} n={samples}")


def run(workload: str, seed: int, seconds: float, trace: bool, n: int | None = None) -> dict:
    """Run one workload and print its report; returns the JSON result."""
    import harness
    from spans import SpanRecorder
    from workloads import WORKLOADS, setup

    wl = WORKLOADS[workload]
    env = environment(seed)
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("environment " + json.dumps(env, sort_keys=True))

    setup_s = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        t0 = time.perf_counter()
        inp = setup(wl, seed, n)
        setup_s.append(time.perf_counter() - t0)

    rec = SpanRecorder(harness.span_targets()) if trace else None
    plain, traced = harness.timed_pass(wl, inp, seconds, rec)
    record = {"workload": workload, "n": inp.n, "seconds": seconds, "environment": env}
    if trace:
        if traced.digests != plain.digests:
            traced.fail("traced run wrote different container bytes than the untraced run")
        metrics = harness.per_layer(rec, plain, traced)
        units = harness.LAYER_UNITS
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        record["missing_spans"] = rec.missing
        record["spans"] = rec.dump()
    else:
        peaks = harness.memory_pass(wl, inp, plain)
        if len(plain.digests) > 1:
            plain.fail("the memory pass wrote different container bytes than the timed pass")
        metrics = harness.end_to_end(inp, plain, peaks, setup_s)
        units = harness.END_TO_END_UNITS
        attempted, failed = plain.attempted, plain.failed
    record["op_seconds"] = plain.seconds
    record["op_probe_seconds"] = plain.probes
    digests = sorted(plain.digests | (traced.digests if trace else set()))
    record["container_sha256"] = digests
    record["metrics"] = {k: {"value": v, "unit": units[k], "samples": s}
                         for k, (v, s) in metrics.items()}

    _report("per-layer metrics (traced run)" if trace else "end-to-end metrics", metrics, units)
    print(f"  container sha256 {' '.join(digests)}")
    if trace and rec.missing:
        print(f"  absent (not in this library): {', '.join(rec.missing)}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": units[k]}
                        for k in names if k in metrics}}


def use_checkout_source() -> bool:
    """Put the checkout's src/ first on the import path; False if it is absent."""
    src = ROOT / "src"
    if not (src / "gpmc" / "__init__.py").is_file():
        print(f"no library source at {src}; run from a gpmc checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not use_checkout_source():
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
