"""The benchmark's workloads and the seeded inputs each one is run on.

Inputs are made here, during set-up, with the benchmark's own generator, so
they stay the same for a given seed whatever the library's generators do.
The timed calls then receive only a matrix, an edge-list text or a container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gpmc.bitmatrix import BitMatrix
from gpmc.patterns import PatternSet, pattern_set

_GEN_BLOCK = 1 << 22  # bits drawn per block; a multiple of 8
QUERY_BATCHES = 64  # distinct query batches made at set-up; a run cycles through them


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: float  # Erdos-Renyi edge probability
    set_id: int
    ops: tuple[str, ...]  # in pipeline order; harness.call runs each but "query"
    query_batch: int = 0  # queries per round, stratified over rows


# Why these three: they put the time in different layers.
# - sparse-archive: almost every chunk matches, so each field is 1+k bits and
#   decode time goes to the per-field flag walk.
# - dense-raw: almost no chunk matches, so every field is 33 raw bits and the
#   per-bit packing and gather dominate. Text ingest and queries are left out:
#   ~17 M edges take over 30 s to parse, and a query walks the whole payload.
# - edge-query: mixed field widths at a size where the text parse loop and the
#   scalar query walk dominate; it also writes text back out.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-archive", 8192, 0.001, 3,
                 ("ingest", "compress", "decompress", "stats")),
        Workload("dense-raw", 8192, 0.25, 1,
                 ("compress", "decompress", "stats")),
        Workload("edge-query", 4096, 0.02, 3,
                 ("ingest", "compress", "decompress", "stats", "export", "query"),
                 query_batch=40),
    )
}


@dataclass(frozen=True)
class Inputs:
    n: int
    matrix: BitMatrix  # the source every decoded output is checked against
    text: str | None  # edge-list text, for workloads that time ingest
    pset: PatternSet
    queries: tuple[np.ndarray, ...]  # per batch, an array of (i, j) rows


def er_packed(n: int, p: float, rng: np.random.Generator) -> bytes:
    """n x n matrix whose bits are independently 1 with probability p, packed."""
    total = n * n
    out = np.empty((total + 7) // 8, dtype=np.uint8)
    for start in range(0, total, _GEN_BLOCK):
        block = np.packbits(rng.random(min(_GEN_BLOCK, total - start), dtype=np.float32) < p)
        out[start // 8 : start // 8 + block.size] = block
    return out.tobytes()


def edge_text(n: int, packed: bytes) -> str:
    """Edge-list text in the library's own export format: n, then sorted "u v" lines."""
    flat = np.flatnonzero(np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n * n))
    rows, cols = np.divmod(flat, n)
    lines = [str(n)]
    lines.extend(f"{u} {v}" for u, v in zip(rows.tolist(), cols.tolist()))
    return "\n".join(lines) + "\n"


def query_batches(n: int, batch: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Uniform-random (i, j) queries, stratified by row within each batch.

    A query's cost grows with its position in the stream, so stratifying
    keeps the sampled latency distribution, and hence p50 and p95, the same
    from seed to seed while each query stays uniform over its stratum.
    """
    if not batch:
        return ()
    out = []
    for _ in range(QUERY_BATCHES):
        rows = ((np.arange(batch) + rng.random(batch)) * n / batch).astype(np.int64)
        cols = rng.integers(0, n, size=batch)
        out.append(rng.permutation(np.column_stack([rows, cols])))
    return tuple(out)


def setup(wl: Workload, seed: int, n: int | None = None) -> Inputs:
    """Make a workload's inputs from the seed and build its pattern set."""
    n = n or wl.n
    rng = np.random.default_rng(seed)
    packed = er_packed(n, wl.p, rng)
    text = edge_text(n, packed) if "ingest" in wl.ops else None
    return Inputs(n=n, matrix=BitMatrix(n, packed), text=text,
                  pset=pattern_set(wl.set_id),
                  queries=query_batches(n, wl.query_batch, rng))
