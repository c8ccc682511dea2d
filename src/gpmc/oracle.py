"""Naive reference encoder for differential testing.

Transcribes the chunk-matching procedure literally: rows are read bit by
bit, every chunk is compared against the dictionary with an unconditional
linear scan, and output bits are emitted one at a time. Slow on purpose;
its only job is to be obviously correct so the vectorized encoder can be
checked against it bit for bit.
"""

from __future__ import annotations

from .bitmatrix import BitMatrix
from .codec import CHUNK_WIDTH, CompressedGraph, CompressionStats, chunks_per_row
from .patterns import PatternSet


def reference_compress(m: BitMatrix,
                       pset: PatternSet) -> tuple[CompressedGraph, CompressionStats]:
    """Encode a matrix the slow, literal way. Mirrors compress() exactly."""
    n = m.n
    cpr = chunks_per_row(n)
    k = pset.indicator_bits
    out_bits: list[int] = []
    per_pattern = [0] * len(pset.patterns)
    matched = 0
    unmatched = 0

    for i in range(n):
        row = [m.get(i, j) for j in range(n)]
        row.extend([0] * (cpr * CHUNK_WIDTH - n))
        for t in range(cpr):
            chunk_bits = row[CHUNK_WIDTH * t : CHUNK_WIDTH * (t + 1)]
            value = 0
            for b in chunk_bits:
                value = (value << 1) | b
            index = None
            for pi, pv in enumerate(pset.patterns):
                if pv == value:
                    index = pi
                    break
            if index is None:
                out_bits.append(0)
                out_bits.extend(chunk_bits)
                unmatched += 1
            else:
                out_bits.append(1)
                for s in range(k - 1, -1, -1):
                    out_bits.append((index >> s) & 1)
                matched += 1
                per_pattern[index] += 1

    payload = bytearray((len(out_bits) + 7) // 8)
    for pos, bit in enumerate(out_bits):
        if bit:
            payload[pos >> 3] |= 0x80 >> (pos & 7)

    original = n * n
    stats = CompressionStats(
        total_chunks=n * cpr,
        matched=matched,
        unmatched=unmatched,
        per_pattern=tuple(per_pattern),
        original_bits=original,
        compressed_bits=len(out_bits),
        ratio=1.0 - len(out_bits) / original,
    )
    graph = CompressedGraph(n, pset.id, bytes(payload), len(out_bits))
    return graph, stats
