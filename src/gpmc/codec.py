"""Bitstream encoder/decoder, container format, and compressed-domain query.

Each matrix row is split into consecutive 32-bit chunks (the last chunk of a
row is zero-padded when n is not a multiple of 32; the pad is virtual and
removed on decode). Per chunk, the stream holds either flag bit 1 followed
by a big-endian indicator of indicator_bits width (chunk equals a dictionary
entry) or flag bit 0 followed by the 32 raw chunk bits. Rows are concatenated
with no alignment; bits are packed MSB-first into bytes and only the final
byte of the whole payload is padded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bitmatrix import BitMatrix
from .patterns import CHUNK_WIDTH, SET_IDS, PatternSet, classify_chunks, pattern_set

MAGIC = b"GPMC"
VERSION = 1
HEADER_LEN = 24
RAW_FIELD_BITS = 1 + CHUNK_WIDTH

_BLOCK_BITS = 1 << 21  # payload bits unpacked per block by the walk; bounds transient memory
# Below this many fields per run on average, the walk steps field by field:
# one Python step per field then costs less than one per run.
_RUN_FIELDS = 10


class FormatError(ValueError):
    """Container violates the declared layout (magic, version, ids, widths)."""


class TruncationError(ValueError):
    """Stream or file ends before a declared field is complete."""


class CorruptStreamError(ValueError):
    """Structurally invalid payload (bad indicator, stray bits, dirty padding)."""


@dataclass(frozen=True)
class CompressedGraph:
    """Encoded adjacency matrix: header fields plus the packed payload."""

    n: int
    pattern_set_id: int
    payload: bytes
    payload_bit_length: int

    def __post_init__(self):
        if self.n < 1:
            raise FormatError(f"vertex count must be >= 1, got {self.n}")
        if self.pattern_set_id not in SET_IDS:
            raise FormatError(f"pattern set id must be in {SET_IDS}, got {self.pattern_set_id}")
        if len(self.payload) != (self.payload_bit_length + 7) // 8:
            raise ValueError("payload byte length disagrees with payload_bit_length")


@dataclass(frozen=True)
class CompressionStats:
    """Chunk census and bit totals for one compression run."""

    total_chunks: int
    matched: int
    unmatched: int
    per_pattern: tuple[int, ...]
    original_bits: int
    compressed_bits: int
    ratio: float


def _stats(n: int, hist: np.ndarray, bit_length: int) -> CompressionStats:
    """Census of an n-vertex stream of bit_length bits; hist[i] fields match entry i."""
    count, matched = total_chunks(n), int(hist.sum())
    return CompressionStats(total_chunks=count, matched=matched, unmatched=count - matched,
                            per_pattern=tuple(int(x) for x in hist), original_bits=n * n,
                            compressed_bits=bit_length, ratio=1.0 - bit_length / (n * n))


def chunks_per_row(n: int) -> int:
    return (n + CHUNK_WIDTH - 1) // CHUNK_WIDTH


def total_chunks(n: int) -> int:
    """Number of chunks the row chunking produces for an n x n matrix."""
    return n * chunks_per_row(n)


def matrix_chunks(m: BitMatrix) -> np.ndarray:
    """All chunks of a matrix in encode order, as native uint32 values.

    The final chunk of each row is zero-padded to 32 bits when n % 32 != 0.
    """
    n = m.n
    bits = m.bit_array()
    cpr = chunks_per_row(n)
    if n % CHUNK_WIDTH:
        padded = np.zeros((n, cpr * CHUNK_WIDTH), dtype=np.uint8)
        padded[:, :n] = bits.reshape(n, n)
        bits = padded.reshape(-1)
    return np.packbits(bits).view(">u4").astype(np.uint32)


def chunks_to_matrix(chunks: np.ndarray, n: int) -> BitMatrix:
    """Inverse of matrix_chunks: drop per-row padding and repack."""
    cpr = chunks_per_row(n)
    raw = np.asarray(chunks, dtype=np.uint32).astype(">u4").tobytes()
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if n % CHUNK_WIDTH:
        bits = np.ascontiguousarray(bits.reshape(n, cpr * CHUNK_WIDTH)[:, :n]).reshape(-1)
    return BitMatrix.from_bit_array(n, bits)


def _layout(matched: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Bit offset of each field and the stream's bit length. A matched field
    takes 1 + k bits, a raw one 33, and each starts where the ones before end."""
    offsets = np.zeros(matched.size + 1, np.int64)
    np.cumsum(RAW_FIELD_BITS - (CHUNK_WIDTH - k) * matched.view(np.uint8), dtype=np.int64,
              out=offsets[1:])
    return offsets[:-1], int(offsets[-1])


def _scatter(offsets: np.ndarray, windows: np.ndarray, nbits: int) -> bytes:
    """Inverse of _gather: nbits of payload holding each 33-bit window at its
    bit offset. A window lies inside the 64 bits from the 32-bit word holding
    its first bit, so its halves add into that word and the next; it reaches
    past its field only with zeros, and fields never overlap, so adding ORs."""
    words = np.zeros(nbits // 32 + 2, dtype=np.uint32)
    windows = np.left_shift(windows, (64 - RAW_FIELD_BITS - (offsets & 31)).view(np.uint64),
                            dtype=np.uint64, casting="unsafe")
    at = offsets >> 5
    # each window's low half, then its high half, whatever the host byte order
    halves = windows.astype("<u8", copy=False).view("<u4")
    np.add.at(words, at, halves[1::2])
    at += 1
    np.add.at(words, at, halves[::2])
    del at, windows, halves
    return words.astype(">u4").view(np.uint8)[: (nbits + 7) // 8].tobytes()


def compress(m: BitMatrix, pset: PatternSet) -> tuple[CompressedGraph, CompressionStats]:
    """Encode a matrix against a dictionary; returns the stream and its census."""
    k = pset.indicator_bits
    chunks = matrix_chunks(m)
    idx = classify_chunks(chunks, pset)
    matched = idx >= 0
    hist = np.bincount(idx[matched], minlength=len(pset.patterns))
    # a field's 33-bit window: flag 1, the k-bit index and zeros, or flag 0 and the chunk
    idx |= 1 << k
    idx <<= CHUNK_WIDTH - k
    windows = np.where(matched, idx, chunks)
    del chunks, idx
    offsets, bit_length = _layout(matched, k)
    graph = CompressedGraph(m.n, pset.id, _scatter(offsets, windows, bit_length), bit_length)
    return graph, _stats(m.n, hist, bit_length)


def _check_set(c: CompressedGraph, pset: PatternSet) -> None:
    if c.pattern_set_id != pset.id:
        raise FormatError(
            f"container names pattern set {c.pattern_set_id}, got set {pset.id}")


def _unpack(payload: bytes, nbits: int) -> bytearray:
    """One byte per payload bit, for the flag walk. Unpacked _BLOCK_BITS
    bits at a time, so no second full-size copy is ever held."""
    out = bytearray(nbits)
    view, src = np.frombuffer(out, dtype=np.uint8), np.frombuffer(payload, dtype=np.uint8)
    for s in range(0, nbits, _BLOCK_BITS):
        block = view[s : s + _BLOCK_BITS]
        block[:] = np.unpackbits(src[s // 8 :], count=block.size)
    return out


def _short_runs(c: CompressedGraph, k: int) -> bool:
    """Whether the stream's fields, matched and raw mixed at random, would
    average fewer than _RUN_FIELDS per run of one width. The payload length
    fixes how many fields are raw."""
    count = total_chunks(c.n)
    raw = min(max((c.payload_bit_length - (1 + k) * count) / (RAW_FIELD_BITS - 1 - k), 0), count)
    return 2 * raw * (count - raw) * _RUN_FIELDS > count * count


def _walk(payload: bytes, bit_length: int, count: int, k: int,
          short_runs: bool) -> tuple[bytearray, int]:
    """Flag of each of the first count fields, one byte per field (1 for a
    matched field), reading only flag bits, and the bit after the last field.

    With short runs, one step per field costs least; a field takes at most 33
    bits, so these steps go unchecked in batches that must fit. Otherwise, and
    for the last few fields, the walk steps per run: in a run the flags sit at
    a fixed stride, so bytes.find over strided slices, doubling while the run
    lasts, finds its end.
    """
    matched_width, bit_bytes = 1 + k, _unpack(payload, bit_length)
    # field d starts at bit d * (1 + k) or later, so no more can start in the
    # stream; all start matched and the walk zeroes only the raw ones
    flags = bytearray(b"\x01") * min(count, -(-bit_length // matched_width))
    pos = done = 0
    while short_runs and (batch := min(count - done, (bit_length - pos) // RAW_FIELD_BITS)):
        for d in range(done, done + batch):
            if bit_bytes[pos]:
                pos += matched_width
            else:
                flags[d] = 0
                pos += RAW_FIELD_BITS
        done += batch
    while done < count:
        if pos >= bit_length:
            raise TruncationError(f"stream ended after {done} of {count} chunks")
        flag = bit_bytes[pos]
        width = matched_width if flag else RAW_FIELD_BITS
        fit = min(count - done, (bit_length - pos) // width)
        if not fit:
            raise TruncationError(f"chunk {done} field truncated")
        run, span = 1, 64
        while run < fit:
            stop = min(fit, run + span)
            r = bit_bytes[pos + run * width : pos + stop * width : width].find(
                b"\x00" if flag else b"\x01")
            if r >= 0:
                run += r
                break
            run, span = stop, 2 * span
        if not flag:
            flags[done : done + run] = bytes(run)
        pos += run * width
        done += run
    return flags, pos


def _gather(payload: bytes, offsets: np.ndarray) -> np.ndarray:
    """The 33-bit window at each bit offset, cut from the 64 bits that start
    at its first byte; past the payload, windows read zeros."""
    windows = np.ndarray((len(payload) + 1,), dtype=">u8", buffer=payload + bytes(8),
                         strides=(1,))
    words = windows[offsets >> 3].astype(np.uint64)
    np.left_shift(words, offsets & 7, out=words, dtype=np.uint64, casting="unsafe")
    words >>= np.uint64(64 - RAW_FIELD_BITS)
    return words


def _indicators(windows: np.ndarray, pset: PatternSet) -> np.ndarray:
    """Dictionary index in each matched field's window, decoded in place."""
    windows >>= np.uint64(CHUNK_WIDTH - pset.indicator_bits)
    windows ^= np.uint64(1 << pset.indicator_bits)  # drop the flag bit
    bad = windows[windows >= len(pset.patterns)]
    if bad.size:
        raise CorruptStreamError(
            f"indicator {bad[0]} out of range for {len(pset.patterns)} patterns")
    return windows.view(np.int64)


def _chunks(payload: bytes, offsets: np.ndarray, matched: np.ndarray,
            pset: PatternSet) -> np.ndarray:
    """Chunk of each field at offsets: a raw window is the chunk, a matched one names it."""
    windows = _gather(payload, offsets)
    chunks = windows.astype(np.uint32)
    chunks[matched] = pset.values[_indicators(windows[matched], pset)]
    return chunks


def _fields(c: CompressedGraph, pset: PatternSet) -> tuple[np.ndarray, np.ndarray]:
    """Bit offset and flag of every field, after walking the whole stream."""
    _check_set(c, pset)
    length, k = c.payload_bit_length, pset.indicator_bits
    flags, end = _walk(c.payload, length, total_chunks(c.n), k, _short_runs(c, k))
    if end != length:
        raise CorruptStreamError(f"{length - end} unconsumed payload bits after the final chunk")
    matched = np.frombuffer(flags, np.bool_)
    return _layout(matched, k)[0], matched


def decompress(c: CompressedGraph, pset: PatternSet) -> BitMatrix:
    """Exact inverse of compress for a well-formed stream."""
    # the 8-byte-per-field arrays die with the _chunks call, before the repack
    return chunks_to_matrix(_chunks(c.payload, *_fields(c, pset), pset), c.n)


def scan_stats(c: CompressedGraph, pset: PatternSet) -> CompressionStats:
    """Recompute compression stats from the stream without rebuilding the matrix."""
    offsets, matched = _fields(c, pset)
    hist = np.bincount(_indicators(_gather(c.payload, offsets[matched]), pset),
                       minlength=len(pset.patterns))
    return _stats(c.n, hist, c.payload_bit_length)


def query_edge(c: CompressedGraph, pset: PatternSet, i: int, j: int) -> int:
    """Edge bit (i, j) read from the stream up to its chunk.

    No matrix is materialized, and only the payload prefix that can hold the
    chunk (33 bits per chunk up to it, at most) is unpacked and walked.
    """
    _check_set(c, pset)
    if not (0 <= i < c.n and 0 <= j < c.n):
        raise IndexError(f"index ({i}, {j}) out of range for n={c.n}")
    target = i * chunks_per_row(c.n) + j // CHUNK_WIDTH
    length = min(c.payload_bit_length, RAW_FIELD_BITS * (target + 1))
    prefix = c.payload[: (length + 7) // 8]
    k = pset.indicator_bits
    matched = np.frombuffer(_walk(prefix, length, target + 1, k, _short_runs(c, k))[0], np.bool_)
    chunk = _chunks(prefix, _layout(matched, k)[0][target:], matched[target:], pset)
    return (int(chunk[0]) >> (CHUNK_WIDTH - 1 - j % CHUNK_WIDTH)) & 1


def write_container(c: CompressedGraph) -> bytes:
    """Serialize: magic, version, set id, chunk width, reserved byte, then
    n and payload_bit_length as big-endian u64, then the packed payload."""
    header = MAGIC + bytes((VERSION, c.pattern_set_id, CHUNK_WIDTH, 0))
    header += struct.pack(">QQ", c.n, c.payload_bit_length)
    return header + c.payload


def read_container(data: bytes) -> CompressedGraph:
    """Parse and validate a container byte stream."""
    if len(data) < HEADER_LEN:
        raise TruncationError(
            f"container is {len(data)} bytes; the header alone needs {HEADER_LEN}")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {bytes(data[:4])!r}")
    version, set_id, width, _reserved = data[4:8]
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if width != CHUNK_WIDTH:
        raise FormatError(f"chunk width must be {CHUNK_WIDTH}, got {width}")
    n, bit_length = struct.unpack(">QQ", data[8:HEADER_LEN])
    expected = HEADER_LEN + (bit_length + 7) // 8
    if len(data) != expected:
        raise TruncationError(
            f"container is {len(data)} bytes, expected {expected} "
            f"for {bit_length} payload bits")
    c = CompressedGraph(n, set_id, bytes(data[HEADER_LEN:]), bit_length)
    # every field takes 1 + k to 33 bits, so this bounds all decode work
    count, k = total_chunks(n), pattern_set(set_id).indicator_bits
    if bit_length < count * (1 + k):
        raise TruncationError(f"{bit_length} payload bits cannot hold {count} chunks")
    if bit_length > count * RAW_FIELD_BITS:
        raise CorruptStreamError(f"{bit_length} payload bits exceed {count} raw chunks")
    pad = (-bit_length) % 8
    if pad and c.payload[-1] & ((1 << pad) - 1):
        raise CorruptStreamError("nonzero padding bits in final payload byte")
    return c
