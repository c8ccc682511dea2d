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

import io
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bitmatrix import PIECE_ROWS, BitMatrix, row_block
from .patterns import CHUNK_WIDTH, SET_IDS, PatternSet, classify_chunks, pattern_set

MAGIC = b"GPMC"
VERSION = 1
# magic, version, set id, chunk width, a reserved zero byte, n, payload bit length
_HEADER = struct.Struct(">4s4B2Q")
HEADER_LEN = _HEADER.size
RAW_FIELD_BITS = 1 + CHUNK_WIDTH

_BLOCK_BITS = 1 << 18  # the most payload bits in the walk's reused unpack window; a multiple of 8
# The walk by runs chooses again every _PROBE_RUNS runs, the short-run walk at each
# refill: under _RUN_FIELDS fields per run, a walk by runs costs more.
_RUN_FIELDS = 24
_PROBE_RUNS = 128
_SLICE_BITS = 1 << 15  # the least bits unpacked by one call; a multiple of 8
# The lanes pass walks a region of up to _REGION_BITS bits with one lane per _LANE_BITS,
# a multiple of 8 * 33: each lane starts on the residue the true path keeps modulo
# gcd(1 + k, 33), on the pass's bit of its byte, and is long enough to meet the true path
# on the mixed streams measured. Below _MIN_LANES lanes (at least 2), stepping costs less.
_REGION_BITS = 1 << 21
_LANE_BITS = 32 * RAW_FIELD_BITS
_MIN_LANES = 256
_TALLIES = 4  # histograms the census counts in (_count); a power of two


class FormatError(ValueError):
    """Container violates the declared layout (magic, version, ids, widths)."""


class TruncationError(ValueError):
    """Stream or file ends before a declared field is complete."""


class CorruptStreamError(ValueError):
    """Structurally invalid payload (stray bits, dirty padding)."""


@dataclass(frozen=True)
class CompressedGraph:
    """Encoded adjacency matrix: header fields plus the packed payload, a read-only bytes-like
    object (compress and read_container leave it a view of a bytes container's tail)."""

    n: int
    pattern_set_id: int
    payload: bytes | memoryview
    payload_bit_length: int

    def __post_init__(self):
        if self.n < 1:
            raise FormatError(f"vertex count must be >= 1, got {self.n}")
        if self.n >= 1 << 64:
            raise FormatError(f"vertex count must be < 2**64 to fit the header, got {self.n}")
        if self.pattern_set_id not in SET_IDS:
            raise FormatError(f"pattern set id must be in {SET_IDS}, got {self.pattern_set_id}")
        if len(self.payload) != (self.payload_bit_length + 7) // 8:
            raise FormatError("payload byte length disagrees with payload_bit_length")

    def __reduce__(self):  # a view does not pickle; its bytes do
        return CompressedGraph, (self.n, self.pattern_set_id, bytes(self.payload),
                                 self.payload_bit_length)

    def __eq__(self, other):  # a graph's value, as it pickles: one bytes comparison
        if not isinstance(other, CompressedGraph):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()


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
    """Census of an n-vertex stream of bit_length bits from _count's histograms."""
    hist = hist.reshape(_TALLIES, -1).sum(0)
    count, matched = total_chunks(n), int(hist.sum())
    return CompressionStats(total_chunks=count, matched=matched, unmatched=count - matched,
                            per_pattern=tuple(int(x) for x in hist), original_bits=n * n,
                            compressed_bits=bit_length, ratio=1.0 - bit_length / (n * n))


def chunks_per_row(n: int) -> int:
    return (n + CHUNK_WIDTH - 1) // CHUNK_WIDTH


def total_chunks(n: int) -> int:
    """Number of chunks the row chunking produces for an n x n matrix."""
    return n * chunks_per_row(n)


def matrix_chunks(m: BitMatrix, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Chunks of rows start to stop (as a slice of the rows takes them; all by default) in
    encode order, as big-endian uint32 words: each row packed to bytes, zero-padded to whole
    chunks. compress asks for a row block (row_block), PIECE_ROWS rows of it unpacked at a time."""
    n, packed, (start, stop, _) = m.n, (m.n + 7) >> 3, slice(start, stop).indices(m.n)
    rows = np.zeros((max(start, stop) - start, 4 * chunks_per_row(n)), np.uint8)  # pad included
    for at in range(start, stop, PIECE_ROWS):
        rows[at - start : at - start + PIECE_ROWS, :packed] = np.packbits(
            m.bit_array(at, min(at + PIECE_ROWS, stop)).reshape(-1, n), axis=1)
    return rows.view(">u4").reshape(-1)


def chunks_to_matrix(blocks, n: int) -> BitMatrix:
    """Inverse of matrix_chunks: unpack each row's first n bits, dropping its pad. blocks is
    an iterable of whole rows' chunks, such as each row block's in turn, whose rows
    from_bit_array pulls PIECE_ROWS at a time as it packs, so one piece's bits live at a time."""
    return BitMatrix.from_bit_array(n, (
        np.unpackbits(rows[at : at + PIECE_ROWS], axis=1, count=n) for block in blocks
        for rows in [np.asarray(block, ">u4").view(np.uint8).reshape(-1, 4 * chunks_per_row(n))]
        for at in range(0, len(rows), PIECE_ROWS)))


def _field_blocks(n: int, k: int):
    """Slices of the fields of each row block (row_block), which compress, decompress and
    scan_stats each take in one pass, then, for each j below a block's size, (32 - k) j
    for _offsets and j's tally for _count."""
    count, step = total_chunks(n), row_block(n) * chunks_per_row(n)
    j = np.arange(min(step, count), dtype=np.int32 if CHUNK_WIDTH * step < 1 << 31 else np.int64)
    tally = ((j & (_TALLIES - 1)) << k).astype(np.min_scalar_type((_TALLIES - 1) << k))
    j *= CHUNK_WIDTH - k
    return (slice(s, s + step) for s in range(0, count, step)), j, tally


def _offsets(at: np.ndarray, matched: bool, rank: np.ndarray, k: int, bit: int) -> np.ndarray:
    """Bit offset of the matched, or raw, fields at indices `at` of a field block from bit:
    before the j-th of a kind, at index i, lie j of its kind and i - j of the other, so a
    matched one starts at bit + 33 i - (32 - k) j, a raw one at bit + (1 + k) i + (32 - k) j."""
    offsets = at * (RAW_FIELD_BITS if matched else 1 + k)
    (np.subtract if matched else np.add)(offsets, rank[: at.size], out=offsets)
    offsets += bit
    return offsets


def _count(hist: np.ndarray, indicators: np.ndarray, tally: np.ndarray) -> None:
    """Add a block's indicators to the census, field j in histogram j % _TALLIES (tally[j],
    above the indicator): in a run of one entry, no two counts in a row wait on one counter."""
    hist += np.bincount(indicators | tally[: indicators.size], minlength=hist.size)


def _split(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bit offsets as _scatter and the raw decode take them, cut in place so that no copy lives
    beside them: the 32-bit word that holds each one's first bit, and its place in it as a uint8."""
    shift = offsets.astype(np.uint8) & 31  # before the offsets become word indices
    return np.right_shift(offsets, 5, out=offsets), shift


def _scatter(words: np.ndarray, at: np.ndarray, shift: np.ndarray, fields: np.ndarray,
             width: int) -> None:
    """Inverse of _gather: add each field of width bits into words, shift bits into word at
    (_split). It lies in the 64 bits from that word, so its halves add into that word and
    the next; fields never overlap, so adding ORs."""
    fields = np.left_shift(fields, np.uint8(64 - width) - shift, dtype=np.uint64, casting="unsafe")
    # each field's low half, then its high half, whatever the host byte order
    halves = fields.astype("<u8", copy=False).view("<u4")
    np.add.at(words, at, halves[1::2])
    np.add.at(words[1:], at, halves[::2])


def compress(m: BitMatrix, pset: PatternSet) -> tuple[CompressedGraph, CompressionStats]:
    """Encode a matrix against a dictionary; returns the stream and its census. The payload goes
    into its container's bytes, as the view read_container gives, which write_container returns."""
    n, k, bit = m.n, pset.indicator_bits, 0
    blocks, rank, tally = _field_blocks(n, k)
    hist, cpr = np.zeros(_TALLIES << k, np.int64), chunks_per_row(n)
    words = np.zeros((31 + RAW_FIELD_BITS * rank.size >> 5) + 2, np.uint32)  # a block's, reused
    out = io.BytesIO()
    out.seek(HEADER_LEN)  # the header's slot
    for part in blocks:  # each row block is chunked, classified, placed and written while in cache
        block = matrix_chunks(m, part.start // cpr, part.stop // cpr)
        idx = classify_chunks(block, pset)
        hits, misses = np.flatnonzero(idx >= 0), np.flatnonzero(idx < 0)
        fields, raw = idx.take(hits).view(np.uint8), block.take(misses)  # 2^k | index <= 127
        del idx, block
        _count(hist, fields, tally)
        fields |= 1 << k  # flag 1, then the k-bit index; a raw field is flag 0, then its chunk
        lead, size = bit & 31, (1 + k) * fields.size + RAW_FIELD_BITS * raw.size
        whole = (lead + size) >> 5  # words the block fills; word 0 carries the last one's partial
        words[1 : whole + 2] = 0
        hits = _offsets(hits, True, rank, k, lead)  # each kind's indices go once its offsets exist
        _scatter(words, *_split(hits), fields, 1 + k)
        misses = _offsets(misses, False, rank, k, lead)
        _scatter(words, *_split(misses), raw, RAW_FIELD_BITS)
        del hits, fields, misses, raw  # before the next block's
        if np.little_endian:  # to big-endian in place
            words[:whole].byteswap(inplace=True)
        out.write(words[:whole])
        words[0] = words[whole]
        bit += size
    out.write(int(words[0]).to_bytes(4, "big")[: ((bit & 31) + 7) // 8])
    _HEADER.pack_into(out.getbuffer(), 0, MAGIC, VERSION, pset.id, CHUNK_WIDTH, 0, n, bit)
    graph = CompressedGraph(n, pset.id, memoryview(out.getvalue())[HEADER_LEN:], bit)
    return graph, _stats(n, hist, bit)


def _check_set(c: CompressedGraph, pset: PatternSet) -> None:
    if c.pattern_set_id != pset.id:
        raise FormatError(
            f"container names pattern set {c.pattern_set_id}, got set {pset.id}")


def _unpack(src: np.ndarray, bit: int, out: np.ndarray) -> None:
    """Unpack out.size payload bits from bit, a multiple of 8, into out, one byte per bit.

    np.unpackbits has no out=, so this goes in slices of _SLICE_BITS bits or a 32nd
    of the payload's bits, whichever is more: a window that is a large share of
    the payload gets small temporaries, and a payload of 32 windows or
    more, next to which one window weighs little, pays no call per slice.
    """
    cut = max(_SLICE_BITS, src.size // 32 * 8)
    for at in range(0, out.size, cut):
        part = min(cut, out.size - at)
        out[at : at + part] = np.unpackbits(src[(bit + at) >> 3 :], count=part)


def _steps(width: np.ndarray, pos: np.ndarray, walked: np.ndarray) -> int:
    """Step walkers at flat indices pos of width in lockstep, each step's widths into the
    next row of walked, until every walker stands on a 0 width; the rows written."""
    for step, row in enumerate(walked):
        width.take(pos, out=row, mode="clip")
        pos += row
        if step % 8 == 7 and not row.any():
            return step + 1
    return len(walked)


def _lanes(src: np.ndarray, start: int, stop: int, k: int) -> tuple[np.ndarray, int, bool]:
    """Flags of the fields from bit start that begin before stop - 32, so end by stop,
    the bit after the last one found, and whether all of them were found.

    The bits from start are cut into segments of _LANE_BITS, whole bytes that each start
    on bit start & 7, laid out one row per segment from one strided view of the bytes:
    the field width at each of its bits, then a sink of 0s one field wide, on which a
    walk that has left its segment stays. First one lane per segment walks from its first
    bit to its exit, all in step; that exit guesses where the true path enters the next
    segment. Then every segment is walked again from its guess, the first from start,
    which is exact, recording its widths. Segments are right up to the first whose guess
    is not where the walk of the one before it left: their widths are the flags.
    """
    segments = (stop - CHUNK_WIDTH - start) // _LANE_BITS  # whole ones only
    lead = start & 7  # every segment's first bit in its row, which starts at that bit's byte
    size = _LANE_BITS + 14 >> 3  # bytes that hold a segment from there
    rows = np.zeros((segments, _LANE_BITS + 47 >> 3), np.uint8)  # then zeros, for a 33-bit sink
    spans = np.lib.stride_tricks.sliding_window_view(src, size)  # the size bytes from each byte
    rows[:, :size] = spans[start >> 3 :: _LANE_BITS >> 3][:segments]
    width = np.unpackbits(rows).reshape(segments, -1)
    del rows
    width *= np.uint8(CHUNK_WIDTH - k)
    np.subtract(np.uint8(RAW_FIELD_BITS), width, out=width)  # the width of a field at each bit
    width[:, lead + _LANE_BITS :] = 0
    base = lead + width.shape[1] * np.arange(segments)  # each segment's first bit in width
    width = width.reshape(-1)
    walked = np.empty((-(-_LANE_BITS // (1 + k)), segments), np.uint8)  # a row per step
    pos = base.copy()
    _steps(width, pos, walked)  # the lanes: each exit, past its segment's end, guesses
    guess = pos - base - _LANE_BITS  # the next one's entry
    pos[0], pos[1:] = base[0], base[1:] + guess[:-1]
    steps = _steps(width, pos, walked)
    del width  # before the read-out's temporaries
    left = pos - base - _LANE_BITS
    right = guess[:-1] == left[:-1]  # segment j + 1 enters where segment j's walk left
    found = segments if right.all() else 1 + int(right.argmin())
    walked = walked[:steps, :found].T  # each segment's widths in turn
    flags = (walked[walked != 0] < RAW_FIELD_BITS).view(np.uint8)
    return flags, start + _LANE_BITS * found + int(left[found - 1]), found == segments


def _put(flags: bytearray, start: int, bits: np.ndarray) -> None:
    """Write 0/1 bytes as bits start on of packed flags, whose bits from start on are 0."""
    packed = np.packbits(np.concatenate((np.zeros(start & 7, np.uint8), bits)))
    np.frombuffer(flags, np.uint8)[start >> 3 :][: packed.size] |= packed


def _set(flags: bytearray, start: int, stop: int) -> None:
    """Set bits start to stop of packed flags, stop > start, whose bits from start on are 0."""
    lo, hi = start >> 3, (stop - 1) >> 3  # the bytes of the first and the last bit
    flags[lo] |= 0xFF >> (start & 7)
    flags[lo + 1 : hi + 1] = b"\xff" * (hi - lo)
    flags[hi] &= ~(0xFF >> ((stop - 1) % 8 + 1))  # the bits after stop stay 0


def _walk(payload: bytes, bit_length: int, count: int, k: int) -> tuple[bytearray, int]:
    """Flag of each of the first count fields, packed one bit per field MSB-first (1 for
    a matched field, 0 in the last byte's pad), reading only flag bits, and the bit after
    the last field.

    The walk takes one of three paths at a time. It starts by runs, from a window of
    unpacked bits, one byte per bit, refilled from the walk's byte whenever fewer than 33
    bits are left, so it holds a whole field or the rest of the stream. In a run the flags
    sit at a fixed stride, so bytes.find over strided slices finds its end or the window's,
    in spans that start at the length of the last run of its kind (at least 64) and double
    while the run lasts. Where a search stops on a lone field of the other kind, the walk
    steps over it, counts it as one more run, and searches on, unless it is the last field
    asked for, fewer than 33 window bits follow it, or one more run would reach
    _PROBE_RUNS: there the outer loop refills, stops or chooses again, as for any run's end.
    While runs average under _RUN_FIELDS fields it walks short runs
    instead, choosing again every _PROBE_RUNS runs and, on short runs, at each refill from
    the flags it set. Short runs go by lanes (_lanes), a region of up to
    _REGION_BITS bits at a time, whose lanes guess where the true path enters each segment
    and then walk each from its guess, all in lockstep, with no window held: the walk
    looks for a pass before it refills one, so runs and steps alone make it. The window
    holds an eighth of the payload's bits, up to _BLOCK_BITS and at least 40, so that it
    never outweighs the payload. Where fewer than _MIN_LANES lanes fit, and once a pass
    stops early, the walk steps field by field in unchecked batches that fit in the
    window, as a field takes at most 33 bits. The last few fields go by runs.
    """
    matched_width, src = 1 + k, np.frombuffer(payload, np.uint8)
    # the window, in whole bytes: made at a refill, let go before each lanes pass
    window, room = None, min(_BLOCK_BITS, bit_length, max(40, -(-bit_length // 64) * 8))
    # field d starts at bit d * (1 + k) or later, so no more can start in the
    # stream; all start raw, and the walk sets the matched ones' bits in order
    flags = bytearray(-(-min(count, -(-bit_length // matched_width)) // 8))
    done = base = at = size = 0  # window: bits base to base + size; walk: bit base + at
    short_runs, seen, runs = False, 0, 0  # strategy, the field it was chosen at, runs since
    last = [64, 64]  # the first span of a raw, and of a matched, run's search
    # bits of the next lanes pass, each room for _MIN_LANES lanes at least: a quarter of a
    # region at first, as a pass that stops early costs most of a whole one, then whole
    # regions; none once a pass stops early
    region = max(_REGION_BITS >> 2, _MIN_LANES * _LANE_BITS)
    while done < count:
        refill = size - at < RAW_FIELD_BITS and base + size < bit_length
        if short_runs and refill or runs == _PROBE_RUNS:
            if short_runs:  # the flags since seen as an int, then one run plus one per change
                runs = int.from_bytes(flags[seen >> 3 : (done + 7) >> 3], "big") >> (-done % 8)
                runs = 1 + ((runs ^ runs >> 1) & (1 << max(done - seen - 1, 0)) - 1).bit_count()
            short_runs, seen, runs = runs * _RUN_FIELDS > done - seen, done, 0
        if short_runs and min(bit_length - base - at, region) >= _MIN_LANES * _LANE_BITS:
            window = None  # the pass holds a region of its own
            found, end, whole = _lanes(src, base + at, min(bit_length, base + at + region), k)
            if found.size > count - done:  # end after the count-th field
                found = found[: count - done]
                end = base + at + RAW_FIELD_BITS * found.size
                end -= (CHUNK_WIDTH - k) * int(found.sum())
            _put(flags, done, found)
            done, region = done + found.size, max(region, _REGION_BITS) if whole else 0
            del found  # before the next pass
            base, at, size = end & ~7, end & 7, 0  # the window is empty from end
            continue
        if refill:  # runs and steps read the window; a lanes pass does not
            window = window or bytearray(room)
            base, at = base + (at & ~7), at & 7
            size = min(bit_length - base, len(window))
            _unpack(src, base, np.frombuffer(window, np.uint8)[:size])
        if short_runs and (batch := min(count - done, (size - at) // RAW_FIELD_BITS)):
            step = bytearray(batch)
            for d in range(batch):
                if window[at]:
                    step[d] = 1
                    at += matched_width
                else:
                    at += RAW_FIELD_BITS
            _put(flags, done, np.frombuffer(step, np.uint8))
            done += batch
            continue
        if base + at >= bit_length:
            raise TruncationError(f"stream ended after {done} of {count} chunks")
        flag = window[at]
        width = matched_width if flag else RAW_FIELD_BITS
        fit = min(count - done, (size - at) // width)
        if not fit:
            raise TruncationError(f"chunk {done} field truncated")
        run, span = 1, last[flag]
        while run < fit:
            stop = min(fit, run + span)
            r = window[at + run * width : at + stop * width : width].find(
                b"\x00" if flag else b"\x01")
            if r < 0:
                run, span = stop, 2 * span
                continue
            run += r  # on a field of the other kind: a lone one is stepped over here
            past = at + run * width + RAW_FIELD_BITS + matched_width - width
            if (done + run + 1 == count or size - past < RAW_FIELD_BITS
                    or runs + 2 >= _PROBE_RUNS or window[past] != flag):
                break
            if flag:
                _set(flags, done, done + run)
            else:
                flags[done + run >> 3] |= 0x80 >> (done + run & 7)
            last[flag], last[1 - flag] = max(64, run), 64
            at, done, runs = past, done + run + 1, runs + 2  # the run and the lone field
            run, span, fit = 1, last[flag], min(count - done, (size - at) // width)
        last[flag] = max(64, run)
        if flag:
            _set(flags, done, done + run)
        at += run * width
        done += run
        runs += 1
    return flags, base + at


def _windows(payload) -> np.ndarray:
    """The 64 bits from each big-endian 32-bit word compress wrote on, as a uint64: the word,
    then the next, the last one then zeros. Payload bytes that start on a word (any bytes-like
    object) are copied, zero-padded to whole words and one more, and read as overlapping
    big-endian 64-bit words 4 bytes apart by one cast; the copy is freed on return."""
    words = b"".join((payload, bytes(4 + -len(payload) % 4)))
    return np.ndarray(len(words) // 4 - 1, ">u8", words, strides=(4,)).astype(np.uint64)


def _gather(fields: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Inverse of _scatter: the 33 bits shift bits into each window (_windows) taken at its
    word (_split), cut in place."""
    fields <<= shift
    fields >>= np.uint64(64 - RAW_FIELD_BITS)
    return fields


def _indicators(src: np.ndarray, offsets: np.ndarray, k: int) -> np.ndarray:
    """Indicator of the matched field at each bit offset of src, the bytes of its field block,
    read from the 2 bytes from its flag's on, which hold flag and indicator as k is at most 6.
    Where the fields are at least half as many as the bytes, each byte's 16-bit window is
    built once and one gathered per field; fewer read their 2 bytes each. A byte past src
    holds none of a field's bits. A paper set has 2 ** k entries, so every indicator names
    one. The offsets are consumed in place."""
    shift = offsets.astype(np.uint8) & 7
    offsets >>= 3
    if 2 * offsets.size >= src.size:
        words = src.astype(np.uint16)
        words <<= 8
        words[:-1] |= src[1:]
        words = words.take(offsets)
    else:
        words = src[offsets].astype(np.uint16)
        offsets += 1
        words <<= 8
        words |= np.take(src, offsets, mode="clip")
    words <<= shift  # the flag to bit 15
    words >>= 15 - k
    words &= (1 << k) - 1  # drop the flag and the bits before it
    return words


def _decode(payload, matched: np.ndarray, rank: np.ndarray, pset: PatternSet,
            bit: int, out: np.ndarray) -> np.ndarray:
    """Chunk of each field of a field block from bit of payload, bytes from a word on, into out,
    matched fields first; out. Each temporary goes in the frame that made it, as Python 3.10
    frees no argument before its call returns: windows and word indices right after the take.
    Values are cast to out's dtype first: an indexed assignment that converts takes 2x."""
    k, hits = pset.indicator_bits, np.flatnonzero(matched)
    out[hits] = pset.values.astype(out.dtype).take(
        _indicators(np.frombuffer(payload, np.uint8), _offsets(hits, True, rank, k, bit), k))
    del hits
    misses = np.flatnonzero(~matched)
    at, shift = _split(_offsets(misses, False, rank, k, bit))
    fields = _windows(payload).take(at)
    del at
    out[misses] = _gather(fields, shift).astype(out.dtype)
    return out


def _flags(c: CompressedGraph, pset: PatternSet) -> np.ndarray:
    """Flag of every field, packed one bit per field (_walk), after walking the whole stream."""
    _check_set(c, pset)
    length, k = c.payload_bit_length, pset.indicator_bits
    flags, end = _walk(c.payload, length, total_chunks(c.n), k)
    if end != length:
        raise CorruptStreamError(f"{length - end} unconsumed payload bits after the final chunk")
    return np.frombuffer(flags, np.uint8)


def _block_spans(matched: np.ndarray, blocks, count: int, k: int) -> Iterator[tuple]:
    """Each field block's flags, one bool per field, from count packed flags (_flags), each
    block from a byte as row_block is a multiple of 8, and the bits it spans: (flags, bit, end)."""
    bit = 0
    for block in blocks:
        size = min(block.stop, count) - block.start
        flags = np.unpackbits(matched[block.start >> 3 :], count=size).view(np.bool_)
        end = bit + RAW_FIELD_BITS * flags.size - (CHUNK_WIDTH - k) * int(np.count_nonzero(flags))
        yield flags, bit, end
        bit = end


def decompress(c: CompressedGraph, pset: PatternSet) -> BitMatrix:
    """Exact inverse of compress for a well-formed stream. The walk ends, its flags packed,
    before the matrix's buffer is made; each row block is then decoded as the repack pulls
    it, from a zero-padded copy of the payload words that hold its fields, as query_edge does."""
    matched, k = _flags(c, pset), pset.indicator_bits
    blocks, rank, _ = _field_blocks(c.n, k)
    src = np.frombuffer(c.payload, np.uint8)
    chunks = np.empty(rank.size, ">u4")  # reused: the repack takes each block before the next
    return chunks_to_matrix((
        _decode(src[bit >> 5 << 2 : (end + 7) >> 3], flags, rank, pset, bit & 31,
                chunks[: flags.size])
        for flags, bit, end in _block_spans(matched, blocks, total_chunks(c.n), k)), c.n)


def scan_stats(c: CompressedGraph, pset: PatternSet) -> CompressionStats:
    """Recompute compression stats from the stream without rebuilding the matrix, reading
    only the flag and indicator of each matched field, from the walk's packed flags."""
    matched, k = _flags(c, pset), pset.indicator_bits
    blocks, rank, tally = _field_blocks(c.n, k)
    hist, src = np.zeros(_TALLIES << k, np.int64), np.frombuffer(c.payload, np.uint8)
    for flags, bit, end in _block_spans(matched, blocks, total_chunks(c.n), k):
        hits = np.flatnonzero(flags)
        _count(hist, _indicators(src[bit >> 3 : (end + 7) >> 3],
                                 _offsets(hits, True, rank, k, bit & 7), k), tally)
    return _stats(c.n, hist, c.payload_bit_length)


def query_edge(c: CompressedGraph, pset: PatternSet, i: int, j: int) -> int:
    """Edge bit (i, j) read from the stream up to its chunk.

    No matrix is materialized and the payload is read in place: the walk ends
    with the chunk's field, which is cut from the 8 payload bytes at its word.
    """
    _check_set(c, pset)
    if not (0 <= i < c.n and 0 <= j < c.n):
        raise IndexError(f"index ({i}, {j}) out of range for n={c.n}")
    target = i * chunks_per_row(c.n) + j // CHUNK_WIDTH
    length = min(c.payload_bit_length, RAW_FIELD_BITS * (target + 1))
    k = pset.indicator_bits
    flags, end = _walk(c.payload, length, target + 1, k)
    matched = np.array([flags[target >> 3] >> (~target & 7) & 1], np.bool_)
    offset = end - (1 + k if matched[0] else RAW_FIELD_BITS)
    at, chunk = 4 * (offset >> 5), np.empty(1, np.uint32)
    _decode(c.payload[at : at + 8], matched, np.zeros(1, int), pset, offset & 31, chunk)
    return (int(chunk[0]) >> (CHUNK_WIDTH - 1 - j % CHUNK_WIDTH)) & 1


def _check_pad(c: CompressedGraph) -> None:
    """The pad after the payload's last bit, in its final byte, is 0, as compress writes it."""
    pad = (-c.payload_bit_length) % 8
    if pad and c.payload[-1] & ((1 << pad) - 1):
        raise CorruptStreamError("nonzero padding bits in final payload byte")


def write_container(c: CompressedGraph) -> bytes:
    """Serialize: the header, then the packed payload; bytes that hold both already come back.
    A payload with a nonzero pad bit is refused, as read_container would refuse its bytes."""
    _check_pad(c)
    header = _HEADER.pack(MAGIC, VERSION, c.pattern_set_id, CHUNK_WIDTH, 0,
                          c.n, c.payload_bit_length)
    base = getattr(c.payload, "obj", None)
    if (type(base) is bytes and len(base) == HEADER_LEN + c.payload.nbytes
            and c.payload.contiguous and base.startswith(header)
            and np.frombuffer(c.payload, np.uint8).ctypes.data
            == np.frombuffer(base, np.uint8, offset=HEADER_LEN).ctypes.data):
        return base
    return header + c.payload


def read_container(data: bytes) -> CompressedGraph:
    """Parse and validate a container byte stream."""
    if len(data) < HEADER_LEN:
        raise TruncationError(
            f"container is {len(data)} bytes; the header alone needs {HEADER_LEN}")
    magic, version, set_id, width, _reserved, n, bit_length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if width != CHUNK_WIDTH:
        raise FormatError(f"chunk width must be {CHUNK_WIDTH}, got {width}")
    expected = HEADER_LEN + (bit_length + 7) // 8
    if len(data) != expected:
        raise TruncationError(
            f"container is {len(data)} bytes, expected {expected} "
            f"for {bit_length} payload bits")
    # bytes() keeps a bytes container, which cannot change, and copies any other input
    c = CompressedGraph(n, set_id, memoryview(bytes(data))[HEADER_LEN:], bit_length)
    # every field takes 1 + k to 33 bits, so this bounds all decode work
    count, k = total_chunks(n), pattern_set(set_id).indicator_bits
    if bit_length < count * (1 + k):
        raise TruncationError(f"{bit_length} payload bits cannot hold {count} chunks")
    if bit_length > count * RAW_FIELD_BITS:
        raise CorruptStreamError(f"{bit_length} payload bits exceed {count} raw chunks")
    _check_pad(c)
    return c
