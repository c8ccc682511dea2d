"""Timed, traced and memory passes over one workload, with output checks.

One process, one thread, one caller in a closed loop: each round runs the
workload's operations in pipeline order, each on the previous one's output,
and the next round starts when the last call returns. Every output is checked
after its call returns, outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import math
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from gpmc import bitmatrix, codec
from gpmc.bitmatrix import BitMatrix
from gpmc.metrics import ratio_for_match_fraction

from spans import SpanRecorder
from workloads import Inputs, Workload

MIN_QUERIES = 200  # so that at least ten samples lie beyond p95
MB = 1e6

# Every end-to-end metric the benchmark can print, with its unit. A workload
# prints those its operations give. The _adj variants are scaled to the
# reference machine speed; see end_to_end.
END_TO_END_UNITS = {
    "setup_s": "s",
    "probe_ms": "ms",
    **{f"{op}{adj}_mb_s": "MB/s"
       for op in ("ingest", "compress", "decompress", "stats", "export")
       for adj in ("", "_adj")},
    **{f"query_p{q}{adj}_ms": "ms" for q in (50, 95) for adj in ("", "_adj")},
    "ratio": "1",
    "container_x": "x",
    "ingest_peak_x": "x",
    "compress_peak_x": "x",
    "decompress_peak_x": "x",
    "failed_frac": "1",
}
# Median reference_probe time on the host the benchmark was tuned on (2-vCPU
# Intel Xeon VM, Python 3.11), so that there adjusted and raw figures agree
# at the host's typical speed. It only sets the scale of the _adj figures.
PROBE_REF_S = 0.008

# Per-layer times: metric -> (span name, self time?). Each is the median per call.
LAYER_TIMES = {
    "bitmatrix.parse_s": ("bitmatrix.parse", False),
    "bitmatrix.materialize_s": ("bitmatrix.materialize", False),
    "bitmatrix.format_s": ("bitmatrix.format", False),
    "bitmatrix.bit_array_s": ("bitmatrix.bit_array", False),
    "bitmatrix.from_bit_array_s": ("bitmatrix.from_bit_array", False),
    "patterns.classify_s": ("patterns.classify", False),
    "codec.matrix_chunks_s": ("codec.matrix_chunks", False),
    "codec.encode_self_s": ("codec.compress", True),
    "codec.write_container_s": ("codec.write_container", False),
    "codec.read_container_s": ("codec.read_container", False),
    "codec.decode_self_s": ("codec.decompress", True),
    "codec.chunks_to_matrix_s": ("codec.chunks_to_matrix", False),
    "codec.stats_s": ("codec.stats", False),
    "codec.query_s": ("codec.query", False),
}
LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "bitmatrix.bit_array_calls": "count",
    "patterns.chunks_classified": "count",
    "patterns.match_frac": "1",
    "codec.fields_matched": "count",
    "codec.fields_raw": "count",
    "codec.payload_bits": "bit",
    "codec.container_bytes": "B",
    "codec.queries": "count",
    "trace.overhead_pct": "%",
}


def span_targets():
    """The library boundaries the traced pass wraps, with the counts taken there."""
    def classified(args, idx):
        return {"chunks": int(idx.size), "hits": int((idx >= 0).sum())}

    def fields(args, result):
        stats = result[1]
        return {"matched": stats.matched, "raw": stats.unmatched,
                "bits": stats.compressed_bits}

    return [
        (bitmatrix, "parse_edge_list_text", "bitmatrix.parse", None),
        (bitmatrix, "from_edge_list", "bitmatrix.materialize", None),
        (bitmatrix, "format_edge_list_text", "bitmatrix.format", None),
        (BitMatrix, "bit_array", "bitmatrix.bit_array", None),
        (BitMatrix, "from_bit_array", "bitmatrix.from_bit_array", None),
        (codec, "matrix_chunks", "codec.matrix_chunks", None),
        (codec, "classify_chunks", "patterns.classify", classified),
        (codec, "chunks_to_matrix", "codec.chunks_to_matrix", None),
        (codec, "compress", "codec.compress", fields),
        (codec, "write_container", "codec.write_container",
         lambda args, blob: {"bytes": len(blob)}),
        (codec, "read_container", "codec.read_container", None),
        (codec, "decompress", "codec.decompress", None),
        (codec, "scan_stats", "codec.stats", None),
        (codec, "query_edge", "codec.query", None),
    ]


def call(op: str, inp: Inputs, done: dict):
    """One timed operation. Library calls go through module attributes so the
    traced pass sees them; done holds this round's earlier outputs."""
    if op == "ingest":
        return bitmatrix.from_edge_list(bitmatrix.parse_edge_list_text(inp.text))
    if op == "compress":
        graph, stats = codec.compress(inp.matrix, inp.pset)
        return graph, stats, codec.write_container(graph)
    if op == "decompress":
        graph = codec.read_container(done["compress"][2])
        return graph, codec.decompress(graph, inp.pset)
    if op == "stats":
        return codec.scan_stats(codec.read_container(done["compress"][2]), inp.pset)
    if op == "export":
        return bitmatrix.format_edge_list_text(done["decompress"][1])
    raise ValueError(f"unknown operation {op!r}")


def check(op: str, inp: Inputs, done: dict, out) -> str | None:
    """Why the output of op is wrong, or None when it is right."""
    if op == "ingest":
        return None if out == inp.matrix else "ingested matrix differs from the source"
    if op == "compress":
        graph, stats, blob = out
        k = inp.pset.indicator_bits
        if stats.compressed_bits != stats.matched * (1 + k) + 33 * stats.unmatched:
            return "compressed_bits != matched*(1+k) + 33*unmatched"
        if graph.payload_bit_length != stats.compressed_bits:
            return "payload length disagrees with the stats"
        if inp.n % 32 == 0 and not math.isclose(
                stats.ratio, ratio_for_match_fraction(stats.matched / stats.total_chunks, k),
                rel_tol=1e-12, abs_tol=1e-12):
            return "ratio disagrees with the paper's formula"
        return None if codec.read_container(blob) == graph else \
            "read_container(write_container(g)) != g"
    if op == "decompress":
        graph, matrix = out
        if graph != done["compress"][0]:
            return "container read back differs from the compressed graph"
        return None if matrix == inp.matrix else "decompressed matrix differs from the source"
    if op == "stats":
        return None if out == done["compress"][1] else "scan_stats differs from compress stats"
    if op == "export":
        if out == inp.text or bitmatrix.from_edge_list(
                bitmatrix.parse_edge_list_text(out)) == inp.matrix:
            return None
        return "exported text does not parse back to the source"
    raise ValueError(f"unknown operation {op!r}")


_PROBE_BYTES = bytes(range(256)) * 64  # 16 KB: stays in cache whatever ran before


def reference_probe() -> float:
    """Seconds for a fixed piece of benchmark-owned work: a Python loop that
    indexes a bytes object at a stride, as the codec's flag walk does."""
    t0 = time.perf_counter()
    total = pos = 0
    for _ in range(60_000):
        total += _PROBE_BYTES[pos]
        pos = (pos + 33) & 0x3FFF
    return time.perf_counter() - t0


@dataclass
class Pass:
    """What one pass measured and checked."""
    seconds: dict = field(default_factory=dict)  # op -> per-call seconds ("query": per query)
    probes: dict = field(default_factory=dict)  # op -> reference_probe around each call
    round_seconds: list = field(default_factory=list)  # time in operations, per round
    probe_seconds: list = field(default_factory=list)  # every reference_probe
    digests: set = field(default_factory=set)  # SHA-256 of each container written
    last: dict = field(default_factory=dict)  # the last round's outputs
    attempted: int = 0
    failed: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"check failed: {message}", file=sys.stderr)


def _timed(rec: SpanRecorder | None, name: str, fn, *args):
    """(result, seconds) of one call; traced, inside a root span of that name."""
    t0 = time.perf_counter()
    if rec is None:
        out = fn(*args)
    else:
        with rec.span(name):
            out = fn(*args)
    return out, time.perf_counter() - t0


def _round(wl: Workload, inp: Inputs, rnd: int, res: Pass, rec: SpanRecorder | None) -> bool:
    """Run one round; False if a call raised, which ends the pass.

    A reference_probe runs between operations; each call is paired with the
    mean of the probes just before and after it.
    """
    done = {}
    times = []
    before = reference_probe()
    res.probe_seconds.append(before)
    for op in wl.ops:
        if op == "query":
            graph = done["compress"][0]
            batch = []
            for i, j in inp.queries[rnd % len(inp.queries)].tolist():
                res.attempted += 1
                try:
                    bit, dt = _timed(rec, "op.query", codec.query_edge, graph, inp.pset, i, j)
                except Exception as exc:  # counted as a failure; the run goes on to report it
                    res.fail(f"query_edge({i}, {j}) raised {exc!r}")
                    return False
                batch.append(dt)
                if bit != inp.matrix.get(i, j):
                    res.fail(f"query_edge({i}, {j}) = {bit}, matrix has {inp.matrix.get(i, j)}")
        else:
            gc.collect()
            res.attempted += 1
            try:
                out, dt = _timed(rec, f"op.{op}", call, op, inp, done)
            except Exception as exc:  # counted as a failure; the run goes on to report it
                res.fail(f"{op} raised {exc!r}")
                return False
            batch = [dt]
            done[op] = out
            problem = check(op, inp, done, out)
            if problem:
                res.fail(f"{op}: {problem}")
            if op == "compress":
                res.digests.add(hashlib.sha256(out[2]).hexdigest())
        after = reference_probe()
        res.probe_seconds.append(after)
        res.seconds.setdefault(op, []).extend(batch)
        res.probes.setdefault(op, []).extend([(before + after) / 2] * len(batch))
        times += batch
        before = after
    res.round_seconds.append(sum(times))
    res.last = done
    return True


def timed_pass(wl: Workload, inp: Inputs, seconds: float,
               rec: SpanRecorder | None = None) -> tuple[Pass, Pass | None]:
    """Repeat rounds for the given wall time, and until MIN_QUERIES queries ran.

    Given a recorder, rounds alternate between untraced and traced, each for
    the given time, so both see the same machine conditions and their
    difference is the tracing overhead. Returns (untraced, traced or None).
    """
    passes = [Pass()] if rec is None else [Pass(), Pass()]
    need = MIN_QUERIES if "query" in wl.ops else 0
    start = time.perf_counter()
    rnd = 0
    while (rnd < len(passes) or time.perf_counter() - start < seconds * len(passes)
           or min(len(p.seconds.get("query", ())) for p in passes) < need):
        res = passes[rnd % len(passes)]
        k = rnd // len(passes)
        if res is passes[0]:
            ok = _round(wl, inp, k, res, None)
        else:
            rec.round = k
            with rec:
                ok = _round(wl, inp, k, res, rec)
        if not ok:
            break
        rnd += 1
    return passes[0], (passes[1] if rec is not None else None)


def memory_pass(wl: Workload, inp: Inputs, res: Pass) -> dict:
    """Peak traced bytes above what was live before the call, per operation.

    Kept apart from the timed pass: tracemalloc slows the Python flag walk
    by a large factor.
    """
    peaks = {}
    done = {}
    tracemalloc.start()
    try:
        for op in ("ingest", "compress", "decompress"):
            if op not in wl.ops:
                continue
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            res.attempted += 1
            done[op] = call(op, inp, done)
            peaks[op] = tracemalloc.get_traced_memory()[1] - before
            problem = check(op, inp, done, done[op])
            if problem:
                res.fail(f"{op} (memory pass): {problem}")
            if op == "compress":
                res.digests.add(hashlib.sha256(done[op][2]).hexdigest())
    except Exception as exc:  # counted as a failure; the run goes on to report it
        res.fail(f"memory pass raised {exc!r}")
    finally:
        tracemalloc.stop()
    return peaks


def end_to_end(inp: Inputs, res: Pass, peaks: dict, setup_s: list) -> dict:
    """name -> (value, samples) for every end-to-end metric the run measured.

    A shared host's speed drifts by tens of percent over seconds to minutes
    as other tenants come and go, far more than the code's own run-to-run
    variation. The _adj figures take out much of that drift: each call's time
    is scaled by PROBE_REF_S over the reference_probe time around it, before
    the median is taken. A change to the library moves them as it moves the
    raw figures; the probe runs no library code.
    """
    raw = inp.n * inp.n / 8
    out = {"setup_s": (median(setup_s), len(setup_s)),
           "probe_ms": (median(res.probe_seconds) * 1e3, len(res.probe_seconds))}
    sizes = {"compress": raw, "decompress": raw, "stats": raw}
    if inp.text is not None:
        sizes["ingest"] = len(inp.text)
    if "export" in res.last:
        sizes["export"] = len(res.last["export"])
    for op, secs in res.seconds.items():
        adj = [t * PROBE_REF_S / p for t, p in zip(secs, res.probes[op])]
        if op == "query":
            for q in (50, 95):
                out[f"query_p{q}_ms"] = (float(np.percentile(secs, q)) * 1e3, len(secs))
                out[f"query_p{q}_adj_ms"] = (float(np.percentile(adj, q)) * 1e3, len(secs))
        else:
            out[f"{op}_mb_s"] = (sizes[op] / MB / median(secs), len(secs))
            out[f"{op}_adj_mb_s"] = (sizes[op] / MB / median(adj), len(secs))
    if "compress" in res.last:
        _, stats, blob = res.last["compress"]
        out["ratio"] = (stats.ratio, 1)
        out["container_x"] = (len(blob) / raw, 1)
    for op, peak in peaks.items():
        out[f"{op}_peak_x"] = (peak / raw, 1)
    out["failed_frac"] = (res.failed / max(res.attempted, 1), res.attempted)
    return out


def per_layer(rec: SpanRecorder, plain: Pass, traced: Pass) -> dict:
    """name -> (value, samples) for every per-layer metric the traced pass gave."""
    out = {}
    for name, (span, self_time) in LAYER_TIMES.items():
        secs = rec.durations(span, self_time)
        if secs:
            out[name] = (median(secs), len(secs))
    if not (plain.round_seconds and traced.round_seconds):
        return out  # no round completed; the failures say why
    if "bitmatrix.bit_array" not in rec.missing:
        out["bitmatrix.bit_array_calls"] = (rec.calls_per_round("bitmatrix.bit_array"),
                                            len(traced.round_seconds))
    chunks = rec.counts("patterns.classify", "chunks")
    if chunks:
        hits = rec.counts("patterns.classify", "hits")
        out["patterns.chunks_classified"] = (median(chunks), len(chunks))
        out["patterns.match_frac"] = (sum(hits) / sum(chunks), len(chunks))
    for name, key in (("codec.fields_matched", "matched"), ("codec.fields_raw", "raw"),
                      ("codec.payload_bits", "bits")):
        values = rec.counts("codec.compress", key)
        if values:
            out[name] = (median(values), len(values))
    sizes = rec.counts("codec.write_container", "bytes")
    if sizes:
        out["codec.container_bytes"] = (median(sizes), len(sizes))
    queries = len(rec.durations("codec.query"))
    if queries:
        out["codec.queries"] = (queries, 1)
    base = median(plain.round_seconds)
    out["trace.overhead_pct"] = (100 * (median(traced.round_seconds) - base) / base,
                                 len(traced.round_seconds))
    return out
