"""The benchmark's own test: every workload at tiny n, untraced and traced.

    python3 perfbench/smoke.py

Checks that each metric is printed with its unit for every workload that
runs the operation behind it, that the JSON result holds exactly the metrics
BENCHMARK.json declares, that no output check failed, and that the traced
run wrote the same container bytes (same SHA-256) as the untraced run.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import run

SMOKE_N = {"sparse-archive": 256, "dense-raw": 128, "edge-query": 100}  # 100: padded rows

# metric -> unit, per operation that produces it (None: every workload)
END_TO_END = {
    None: {"setup_s": "s", "probe_ms": "ms", "failed_frac": "1"},
    "ingest": {"ingest_mb_s": "MB/s", "ingest_adj_mb_s": "MB/s", "ingest_peak_x": "x"},
    "compress": {"compress_mb_s": "MB/s", "compress_adj_mb_s": "MB/s", "ratio": "1",
                 "container_x": "x", "compress_peak_x": "x"},
    "decompress": {"decompress_mb_s": "MB/s", "decompress_adj_mb_s": "MB/s",
                   "decompress_peak_x": "x"},
    "stats": {"stats_mb_s": "MB/s", "stats_adj_mb_s": "MB/s"},
    "export": {"export_mb_s": "MB/s", "export_adj_mb_s": "MB/s"},
    "query": {"query_p50_ms": "ms", "query_p95_ms": "ms",
              "query_p50_adj_ms": "ms", "query_p95_adj_ms": "ms"},
}
PER_LAYER = {
    None: {"trace.overhead_pct": "%"},
    "ingest": {"bitmatrix.parse_s": "s", "bitmatrix.materialize_s": "s",
               "bitmatrix.from_bit_array_s": "s"},
    "compress": {"bitmatrix.bit_array_s": "s", "bitmatrix.bit_array_calls": "count",
                 "patterns.classify_s": "s", "patterns.chunks_classified": "count",
                 "patterns.match_frac": "1", "codec.matrix_chunks_s": "s",
                 "codec.encode_self_s": "s", "codec.write_container_s": "s",
                 "codec.fields_matched": "count", "codec.fields_raw": "count",
                 "codec.payload_bits": "bit", "codec.container_bytes": "B"},
    "decompress": {"codec.read_container_s": "s", "codec.decode_self_s": "s",
                   "codec.chunks_to_matrix_s": "s", "bitmatrix.from_bit_array_s": "s"},
    "stats": {"codec.stats_s": "s"},
    "export": {"bitmatrix.format_s": "s"},
    "query": {"codec.query_s": "s", "codec.queries": "count"},
}
_METRIC_LINE = re.compile(r"^  (\S+) +\S+ (\S+) +n=\d+$")


def _expected(table: dict, ops) -> dict:
    out = dict(table[None])
    for op in ops:
        out.update(table.get(op, {}))
    return out


def check_workload(name: str, ops, declared: dict) -> list[str]:
    problems = []
    digests = []
    for trace, table, kind in ((False, END_TO_END, "end_to_end"), (True, PER_LAYER, "per_layer")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            result = run.run(name, seed=7, seconds=0.05, trace=trace, n=SMOKE_N[name])
        lines = buf.getvalue().splitlines()
        printed = dict(m.groups() for m in map(_METRIC_LINE.match, lines) if m)
        for metric, unit in _expected(table, ops).items():
            if printed.get(metric) != unit:
                problems.append(f"{name} trace={int(trace)}: {metric} not printed "
                                f"with unit {unit} (got {printed.get(metric)})")
        want = sorted(m["name"] for m in declared[kind])
        if sorted(result["metrics"]) != want:
            problems.append(f"{name} trace={int(trace)}: JSON metrics "
                            f"{sorted(result['metrics'])} != declared {want}")
        if result["failed"] or not result["correct"]:
            problems.append(f"{name} trace={int(trace)}: {result['failed']} of "
                            f"{result['attempted']} operations failed their checks")
        digests.append([line.split()[2:] for line in lines if "container sha256" in line])
    if digests[0] != digests[1] or not any(digests[0]):
        problems.append(f"{name}: traced and untraced container SHA-256 differ: {digests}")
    return problems


def main() -> int:
    if not run.use_checkout_source():
        return 2
    from workloads import WORKLOADS
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name, wl in WORKLOADS.items():
        problems += check_workload(name, wl.ops, declared)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
