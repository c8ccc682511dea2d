"""Differential and robustness tests for the stream walker.

The decoder's walker either skips whole runs of equal-width fields or walks
short runs, and chooses between the two from the runs it has walked. Short
runs go by lanes, many segments of the payload walked at once, or, where the
lanes would be too few or have stopped early, field by field in unchecked
batches. A naive walk that steps one field at a time, checking each, is kept
here as the reference: on any bit string the walker must find the same
fields, or stop with the same error, under its own routing and with each
strategy forced by patching its routing constants. It must do so too when its
unpack window is shrunk to a few bytes, so that it is refilled mid-field and
mid-run; when its lanes are cut to a few fields, so that segment edges fall
mid-field; when a stream's runs change length partway, so that its routing
switches strategy mid-walk; and when the row blocks, which are the field
blocks of the encoder and of every decoder, are shrunk to a few rows. The
walker yields its flags packed, one bit per field: each comparison unpacks
them and checks that the pad after the last field is 0.
"""

import struct
from contextlib import nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gpmc import (BitMatrix, CompressedGraph, CorruptStreamError, FormatError, TruncationError,
                  compress, decompress, generate_chunk_mix, generate_er, pattern_set, query_edge,
                  read_container, reference_compress, scan_stats, total_chunks, write_container)
from gpmc import codec
from gpmc.cli import build_parser
from gpmc.bitmatrix import row_block
from gpmc.codec import (_MIN_LANES, _field_blocks, _flags, _lanes, _offsets, _unpack, _walk,
                        chunks_per_row, chunks_to_matrix)
from gpmc.patterns import _ENTRIES, SET_IDS

TYPED = (FormatError, TruncationError, CorruptStreamError)

# Lanes of eight raw fields, the shortest whole bytes (8 * 33 bits), whenever two fit,
# in regions of 1024 bits: segment edges fall mid-field in mixed streams, and a stream
# of a few hundred fields takes several passes.
SMALL_LANES = {"_LANE_BITS": 264, "_MIN_LANES": 2, "_REGION_BITS": 1 << 10}
# Routing constants that force each strategy. The walk always starts by runs:
# with _RUN_FIELDS at 0 it never leaves them, and with _RUN_FIELDS this large
# and _PROBE_RUNS at 1 it walks short runs from the end of its first run, which
# a stream of one run reaches only at the end of the window: field by field
# while the lanes need more bits than the stream has, by lanes with SMALL_LANES.
FORCED = {"runs": {"_RUN_FIELDS": 0}, "fields": {"_RUN_FIELDS": 1 << 40, "_PROBE_RUNS": 1},
          "lanes": {"_RUN_FIELDS": 1 << 40, "_PROBE_RUNS": 1, **SMALL_LANES}}
ROUTINGS = ("natural", *FORCED)
# The paper sets' indicator widths: 5 (sets 1 and 2) and 6 (set 3).
WIDTHS = (5, 6)
# Matrix sizes of the fixed-shape streams: one field; rows of two chunks, the
# second of one bit; 210 fields, runs longer than the first 64-field window; and
# 400 fields, several lane regions of raw fields under SMALL_LANES.
SIZES = (1, 33, 70, 100)


def sets_of(k):
    """The paper sets whose indicators are k bits wide."""
    return [pset for pset in map(pattern_set, SET_IDS) if pset.indicator_bits == k]


def routed(routing):
    """The walk's own routing, or one strategy forced by patching its constants."""
    return patch.multiple("gpmc.codec", **FORCED[routing]) if routing in FORCED else nullcontext()


def reference_walk(bits, bit_length, count, k):
    """Offset and flag of the first count fields, one field per step."""
    offsets, flags, pos = [], [], 0
    for _ in range(count):
        if pos >= bit_length:
            raise TruncationError(f"stream ended after {len(offsets)} of {count} chunks")
        width = 1 + k if bits[pos] else 33
        if pos + width > bit_length:
            raise TruncationError(f"chunk {len(offsets)} field truncated")
        offsets.append(pos)
        flags.append(bool(bits[pos]))
        pos += width
    return offsets, flags, pos


def reference_decode(bits, n, pset):
    """Chunk values of a whole stream, or the error the decoder must raise."""
    offsets, flags, end = reference_walk(bits, len(bits), total_chunks(n), pset.indicator_bits)
    if end != len(bits):
        raise CorruptStreamError(
            f"{len(bits) - end} unconsumed payload bits after the final chunk")
    values = []
    for pos, flag in zip(offsets, flags):
        width = pset.indicator_bits if flag else 32
        value = int("".join(map(str, bits[pos + 1 : pos + 1 + width])) or "0", 2)
        values.append(value)
    return offsets, flags, [pset.patterns[v] if f else v for v, f in zip(values, flags)]


def reference_query(bits, n, pset, i, j):
    """Edge bit (i, j) read from the fields the reference walk finds."""
    target = i * chunks_per_row(n) + j // 32
    offsets, flags, _ = reference_walk(bits, len(bits), target + 1, pset.indicator_bits)
    pos = offsets[-1] + 1
    if not flags[-1]:
        return bits[pos + j % 32]
    index = int("".join(map(str, bits[pos : pos + pset.indicator_bits])), 2)
    return (pset.patterns[index] >> (31 - j % 32)) & 1


def stream(flags, k):
    """A stream of fields with the given flags: the i-th field, if matched, has i's low
    k bits as its indicator, and if raw, 32 copies of i's low bit."""
    bits = []
    for i, flag in enumerate(flags):
        bits += [1] + [(i >> b) & 1 for b in range(k)] if flag else [0] + [i & 1] * 32
    return bits


def uniform(shape, n, k):
    """A stream of every field matched, every field raw, or the two alternating."""
    return stream([shape == "ones" or (shape == "alternating" and i % 2 == 0)
                   for i in range(total_chunks(n))], k)


def unpacked(flags, count):
    """The walk's count flags, packed one bit per field, as bools, once they are checked
    to fill whole bytes only up to the last field and to hold 0 in the pad after it."""
    bits = np.unpackbits(np.frombuffer(flags, np.uint8)).view(np.bool_)
    assert bits.size == 8 * -(-count // 8) and not bits[count:].any()
    return bits[:count]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TYPED as exc:
        return type(exc), str(exc)


def packed(bits):
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes()


def graph_of(bits, n, pset):
    return CompressedGraph(n, pset.id, packed(bits), len(bits))


def drawn_bytes(draw, least, most):
    """least to most bytes drawn in one go, as uint8s: random bit strings are made from
    them whole, not one Hypothesis draw per bit."""
    return np.frombuffer(draw(st.binary(min_size=least, max_size=most)), np.uint8)


@st.composite
def streams(draw, shapes=("random", "runs", "switch", "ones", "zeros", "alternating", "noise")):
    """(bits, n, pset): a stream of fields with the given flag shape, then
    perhaps cut short, lengthened or flipped; or plain random bits. A switch
    has runs of 40 to 200 fields of one width, then alternating fields, or
    the reverse."""
    k = draw(st.sampled_from(WIDTHS))
    pset = draw(st.sampled_from(sets_of(k)))
    n = draw(st.integers(1, 90))
    count = total_chunks(n)
    shape = draw(st.sampled_from(shapes))
    pool = np.unpackbits(drawn_bytes(draw, 5 * count, 5 * count)).tolist()
    if shape == "noise":
        return pool[: draw(st.integers(0, len(pool)))], n, pset
    if shape == "random":
        flags = (drawn_bytes(draw, count, count) >= 128).tolist()
    elif shape == "runs":  # lengths 1 to 200, each from one byte
        lengths = (1 + drawn_bytes(draw, 1, count).astype(int) * 200 // 256).tolist()
        flags = [r % 2 == 0 for r, length in enumerate(lengths) for _ in range(length)]
        flags = (flags * count)[:count]
    elif shape == "switch":
        length, split = draw(st.integers(40, 200)), draw(st.integers(0, count))
        runs = [f // length % 2 == 0 for f in range(count)]
        alternating = [f % 2 == 0 for f in range(count)]
        first, then = (runs, alternating) if draw(st.booleans()) else (alternating, runs)
        flags = first[:split] + then[split:]
    else:
        flags = [shape == "ones" or (shape == "alternating" and i % 2 == 0)
                 for i in range(count)]
    bits = []
    for flag in flags:
        width = 1 + k if flag else 33
        bits += [int(flag)] + pool[len(bits) + 1 : len(bits) + width]
    edit = draw(st.sampled_from(("none", "cut", "extend", "flip")))
    if edit == "cut":
        bits = bits[: draw(st.integers(0, len(bits)))]
    elif edit == "extend":
        bits = bits + pool[: draw(st.integers(1, 40))]
    elif edit == "flip" and bits:
        at = draw(st.integers(0, len(bits) - 1))
        bits[at] ^= 1
    return bits, n, pset


def placed(matched, n, k):
    """Offset of every field by the rank rule, in the codec's field blocks, each block
    starting where the fields before it end."""
    (blocks, rank, _), offsets, bit = codec._field_blocks(n, k), [], 0
    for block in blocks:
        flags = matched[block]
        hits, misses = np.flatnonzero(flags), np.flatnonzero(~flags)
        at = np.empty(flags.size, np.int64)
        at[hits] = _offsets(hits, True, rank, k, bit)
        at[misses] = _offsets(misses, False, rank, k, bit)
        offsets += at.tolist()
        bit += 33 * flags.size - (32 - k) * hits.size
    return offsets, bit


def check_against_reference(bits, n, pset):
    c = graph_of(bits, n, pset)
    expected = outcome(reference_decode, bits, n, pset)
    if expected[0] == "ok":
        offsets, flags, values = expected[1]
        got_flags = unpacked(_flags(c, pset), total_chunks(n))
        assert got_flags.tolist() == flags
        assert placed(got_flags, n, pset.indicator_bits) == (offsets, len(bits))
        assert decompress(c, pset) == chunks_to_matrix([np.array(values, dtype=np.uint32)], n)
        hist = np.bincount([pset.patterns.index(v) for v, f in zip(values, flags) if f],
                           minlength=len(pset.patterns))
        assert scan_stats(c, pset).per_pattern == tuple(int(x) for x in hist)
    else:
        assert outcome(decompress, c, pset) == expected
        assert outcome(scan_stats, c, pset) == expected


class TestWalkAgainstReference:
    @pytest.mark.parametrize("routing", ROUTINGS)
    @settings(max_examples=400, deadline=None)
    @given(stream=streams())
    def test_same_fields_or_same_error(self, routing, stream):
        with routed(routing):
            check_against_reference(*stream)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("set_id", SET_IDS)
    @pytest.mark.parametrize("shape", ("ones", "zeros", "alternating"))
    def test_uniform_shapes_every_set(self, shape, set_id, n):
        pset = pattern_set(set_id)
        check_against_reference(uniform(shape, n, pset.indicator_bits), n, pset)

    @pytest.mark.parametrize("strategy", FORCED)
    @pytest.mark.parametrize("cut", (False, True))
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("set_id", SET_IDS)
    @pytest.mark.parametrize("shape", ("ones", "zeros", "alternating"))
    def test_each_forced_strategy_matches_the_reference(self, shape, set_id, n, cut, strategy):
        # forced rather than chosen from the runs walked, so every reader
        # also runs the strategy its stream would not pick
        pset = pattern_set(set_id)
        bits = uniform(shape, n, pset.indicator_bits)
        if cut:
            bits = bits[: len(bits) // 2 + 1]
        with routed(strategy):
            check_every_reader(bits, n, pset)

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("set_id", SET_IDS)
    def test_every_indicator_names_an_entry(self, routing, set_id):
        # each paper set has 2 ** k entries, so every k-bit indicator is one of them: a
        # stream whose matched fields carry each one, between raw fields, decodes
        pset = pattern_set(set_id)
        k = pset.indicator_bits
        n, bits, index = 70, [], 0
        for i in range(total_chunks(n)):
            if i % 3 == 2:
                bits += [0] + [i & 1] * 32
            else:
                bits += [1] + [(index >> b) & 1 for b in reversed(range(k))]
                index = (index + 1) % len(pset)
        with routed(routing):
            check_every_reader(bits, n, pset)
            assert min(scan_stats(graph_of(bits, n, pset), pset).per_pattern) >= 1

    @pytest.mark.parametrize("routing", ROUTINGS)
    @settings(max_examples=300, deadline=None)
    @given(stream=streams())
    def test_each_routing_matches_the_reference(self, routing, stream):
        with routed(routing):
            check_walk(*stream)

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("kind", ("raw", "matched"))
    def test_run_inside_one_byte(self, routing, kind, set3):
        # n = 24, one field per row: a run of one kind at fields a to b - 1, both in the
        # second byte of flags, among fields of the other kind, so the run's bits, and
        # those of the runs on either side, start or end inside a byte
        for a in range(8, 16):
            for b in range(a + 1, 17):
                flags = [(a <= i < b) == (kind == "matched") for i in range(24)]
                with routed(routing):
                    check_walk(stream(flags, 6), 24, set3)
                    check_against_reference(stream(flags, 6), 24, set3)

    @pytest.mark.parametrize("m", (0, 2))
    @pytest.mark.parametrize("j", range(1, 8))
    def test_lanes_pass_from_inside_a_byte(self, m, j, set3):
        # lanes forced from the end of the first run: 8m + j matched fields, then a raw one
        # and a tenth of the rest matched, at random, so the first pass writes its flags
        # from field 8m + j, inside a byte, and the 264-bit lanes meet the true path often
        # enough that a later pass writes from wherever the one before it ended
        rest = np.random.default_rng(j).random(399 - 8 * m - j) < 0.1
        flags = [True] * (8 * m + j) + [False] + rest.tolist()
        starts = []
        with routed("lanes"), patch("gpmc.codec._lanes",
                                    side_effect=lambda *a: starts.append(a[1]) or _lanes(*a)):
            check_walk(stream(flags, 6), 100, set3)
            check_against_reference(stream(flags, 6), 100, set3)
        assert starts[0] == 7 * (8 * m + j) and len(set(starts)) >= 2

    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_huge_count_on_a_short_stream_fails_fast(self, routing):
        # a raw field, so that forced steps per field follow the first run, then
        # 15 matched ones: 16 fields in 138 bits; space is never set aside for 2^35
        bits = [0] * 33 + ([1] + [0] * 6) * 15
        with routed(routing), pytest.raises(TruncationError,
                                            match="stream ended after 16 of 34359738368"):
            _walk(packed(bits), len(bits), 1 << 35, 6)

    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_truncation_at_every_position(self, routing):
        with routed(routing):
            check_every_cut()

    @pytest.mark.parametrize("routing", ROUTINGS)
    @settings(max_examples=200, deadline=None)
    @given(stream=streams(), data=st.data())
    def test_query_edge_agrees_or_raises_typed(self, routing, stream, data):
        bits, n, pset = stream
        with routed(routing):
            check_query(bits, n, pset, [(data.draw(st.integers(0, n - 1)),
                                         data.draw(st.integers(0, n - 1)))])


def check_every_reader(bits, n, pset):
    """decompress and scan_stats, then query_edge at one bit of every row, against the
    reference."""
    check_against_reference(bits, n, pset)
    check_query(bits, n, pset, [(i, 37 * i % n) for i in range(n)])


def check_walk(bits, n, pset, count=None):
    """The walk of the first count fields (all of n's by default) finds the reference's
    fields and end, or stops with its error."""
    count, k = count or total_chunks(n), pset.indicator_bits
    expected = outcome(reference_walk, bits, len(bits), count, k)
    got = outcome(_walk, packed(bits), len(bits), count, k)
    if expected[0] == "ok":
        _, flags, end = expected[1]
        assert got[0] == "ok" and got[1][1] == end
        assert unpacked(got[1][0], count).tolist() == flags
    else:
        assert got == expected


def check_every_cut():
    pset = pattern_set(1)
    flags = [1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1]  # n = 12: one field per row
    bits = []
    for i, flag in enumerate(flags):
        bits += [1] + [(i >> b) & 1 for b in range(5)] if flag else [0] + [1, 0] * 16
    for cut in range(len(bits) + 1):
        check_against_reference(bits[:cut], len(flags), pset)


def check_query(bits, n, pset, cells):
    """query_edge at each (i, j) of cells reads the reference's bit or raises its error."""
    c = graph_of(bits, n, pset)
    for i, j in cells:
        assert outcome(query_edge, c, pset, i, j) == outcome(reference_query, bits, n, pset, i, j)


def row_blocks(rows):
    """Every row block (codec.row_block) cut to the given rows, a multiple of 8, for the
    encoder, the decoders and the chunk repack alike."""
    return patch("gpmc.codec.row_block", lambda n: rows)


# multiples of 8 from the smallest window that always holds a whole field
# after a refill (the walk's byte starts up to 7 bits before it) upwards
WINDOWS = (40, 64, 264)
# rows per row block: at n = 33, 70 and 100, blocks of 16, 24 and 32 fields at 8 rows
ROW_BLOCKS = (8, 16, 64)


class TestWindowBoundaries:
    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("window", WINDOWS)
    @settings(max_examples=150, deadline=None)
    @given(stream=streams())
    def test_each_routing_matches_the_reference(self, window, routing, stream):
        with patch("gpmc.codec._BLOCK_BITS", window), routed(routing):
            check_walk(*stream)

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("window", WINDOWS)
    @settings(max_examples=100, deadline=None)
    @given(stream=streams())
    def test_decoders_match_the_reference(self, window, routing, stream):
        with patch("gpmc.codec._BLOCK_BITS", window), routed(routing):
            check_against_reference(*stream)

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_truncation_at_every_position(self, window, routing):
        with patch("gpmc.codec._BLOCK_BITS", window), routed(routing):
            check_every_cut()

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("window", WINDOWS)
    @settings(max_examples=100, deadline=None)
    @given(stream=streams(), data=st.data())
    def test_query_edge_agrees_or_raises_typed(self, window, routing, stream, data):
        bits, n, pset = stream
        with patch("gpmc.codec._BLOCK_BITS", window), routed(routing):
            check_query(bits, n, pset, [(data.draw(st.integers(0, n - 1)),
                                         data.draw(st.integers(0, n - 1)))])

    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_window_is_refilled_per_window_of_bits(self, routing):
        # 3000 raw fields: each refill unpacks at most 64 bits and lets at least one
        # field be walked; under lanes, regions of up to 1024 bits cover most of them
        bits, sizes, unpack = ([0] + [1, 0] * 16) * 3000, [], np.unpackbits

        def spy(*args, **kwargs):
            out = unpack(*args, **kwargs)
            sizes.append(out.size)
            return out

        with patch("gpmc.codec._BLOCK_BITS", 64), routed(routing), \
                patch("gpmc.codec.np.unpackbits", spy):
            assert _walk(packed(bits), len(bits), 3000, 5) == (bytes(3000 // 8), len(bits))
        assert 64 in sizes
        # a lanes region reaches at most 1024 bits past the walk's bit: 3 whole segments
        # of 264 bits, each unpacked in a row of 304 bits, from the byte of its first bit
        # on and then a sink
        assert max(sizes) <= (3 * 304 if routing == "lanes" else 64)
        assert len([size for size in sizes if size <= 64]) <= 3000
        assert len(bits) <= sum(sizes) <= 2 * len(bits)


class TestStrategySwitch:
    """The walk's own routing switches strategy partway through a stream and
    carries its state across refills and probes. In windows of a few bytes a
    run step ends at the window's end, so the routing constants are scaled
    down with the window for the switch to happen."""

    @pytest.mark.parametrize("lanes", ("default", "small"))
    @pytest.mark.parametrize("window", WINDOWS)
    @settings(max_examples=150, deadline=None)
    @given(stream=streams(("switch",)), probe=st.sampled_from((1, 4, 16)),
           run_fields=st.sampled_from((2, 6, 24)), data=st.data())
    def test_every_reader_matches_the_reference(self, window, lanes, stream, probe, run_fields,
                                                data):
        bits, n, pset = stream
        with patch.multiple("gpmc.codec", _BLOCK_BITS=window, _PROBE_RUNS=probe,
                            _RUN_FIELDS=run_fields, **(SMALL_LANES if lanes == "small" else {})):
            check_walk(bits, n, pset)
            check_against_reference(bits, n, pset)
            check_query(bits, n, pset, [(data.draw(st.integers(0, n - 1)),
                                         data.draw(st.integers(0, n - 1)))])

    def test_default_routing_switches_across_windows(self, set3):
        # top half sparse (runs of hundreds of matched fields), bottom half at
        # p = 0.02 (a few fields per run), and the reverse: each half spans
        # several 2^18-bit windows
        n, half = 2048, 2048 * 2048 // 16
        sparse, mixed = generate_er(n, 0.0005, seed=1).data, generate_er(n, 0.02, seed=2).data
        for m in (BitMatrix(n, sparse[:half] + mixed[half:]),
                  BitMatrix(n, mixed[:half] + sparse[half:])):
            c, stats = compress(m, set3)
            assert decompress(c, set3) == m
            assert scan_stats(c, set3) == stats
            for i in (0, n // 2 - 1, n // 2, n - 1):
                for j in (0, 777, n - 1):
                    assert query_edge(c, set3, i, j) == m.get(i, j)


def period_40_matrix():
    """n = 2048, each row 32 times a zero chunk, then the chunk with bits 6, 7 and 8
    set: under set 3, fields of 7 and 33 bits alternate, bit 14 of every 40 is 1
    and bit 33 is 0. A lane on bit 7a mod 40 goes to 7(a + 1) on a 1 and 7(a - 1)
    on a 0, so from a in 2..39 it never reaches a = 0 or 1, the residues 0 and 7
    of the true fields: no lane that starts off them meets the true path."""
    row = np.tile(np.array([0, 0, 0, 0, 0x03, 0x80, 0, 0], np.uint8), 32)
    return BitMatrix(2048, np.tile(row, 2048).tobytes())


@st.composite
def regions(draw):
    """(bits, start, stop, k): bits with a drawn share of ones, and a lanes pass's
    region in them, from a drawn start to a drawn stop at least as far on as the
    walk asks of a pass under SMALL_LANES."""
    k = draw(st.sampled_from(WIDTHS))
    below = draw(st.sampled_from((128, 192, 224)))  # a byte under it is a 1: 1/2, 3/4 or 7/8
    least = SMALL_LANES["_MIN_LANES"] * SMALL_LANES["_LANE_BITS"]
    bits = (drawn_bytes(draw, least, 1500) < below).tolist()
    start = draw(st.integers(0, len(bits) - least))
    return bits, start, draw(st.integers(start + least, len(bits))), k


def check_pass(bits, start, stop, k, found, end, whole):
    """A pass's flags are the reference walk's first ones from start, it ends after
    the last of them, and a whole pass reaches the last segment's end."""
    _, expected, length = reference_walk(bits[start:], len(bits) - start, found.size, k)
    assert found.size and found.astype(bool).tolist() == expected
    assert end == start + length <= stop
    assert not whole or end > stop - 32 - codec._LANE_BITS


class TestLanes:
    @settings(max_examples=300, deadline=None)
    @given(region=regions())
    def test_pass_matches_the_reference_walk(self, region):
        # segments of 264 bits, from every bit of a byte: a lane's edges fall mid-field
        # and some passes stop early
        bits, start, stop, k = region
        with patch.multiple("gpmc.codec", **SMALL_LANES):
            found, end, whole = _lanes(np.frombuffer(packed(bits), np.uint8), start, stop, k)
            event("whole pass" if whole else "stopped early")
            check_pass(bits, start, stop, k, found, end, whole)

    def test_set_1_pass_that_stops_early_matches_the_reference(self, set1):
        # ER n = 1024, p = 0.03 under set 1 (k = 5): the walk's first pass stops early,
        # after 5,126 of 32,768 fields, and the walk steps the rest
        m = generate_er(1024, 0.03, 1)
        c, stats = compress(m, set1)
        bits = np.unpackbits(np.frombuffer(c.payload, np.uint8))[: c.payload_bit_length]
        passes = []
        with patch("gpmc.codec._lanes", side_effect=lambda *a: passes.append((a, _lanes(*a)))
                   or passes[-1][1]):
            flags, end = _walk(c.payload, c.payload_bit_length, total_chunks(m.n), 5)
        assert [result[0].size for _, result in passes] == [5126]
        (_, start, stop, k), result = passes[0]
        assert not result[2]
        check_pass(bits.tolist(), start, stop, k, *result)
        assert end == c.payload_bit_length
        assert unpacked(flags, total_chunks(m.n)).sum() == stats.matched

    @pytest.mark.parametrize("lane_bits", (264, 528, 1056))
    def test_period_40_stream_steps_from_the_first_lane_that_never_meets(self, set3, lane_bits):
        # none of the segment lengths is a multiple of 40, so some lane starts off the
        # true residues and the pass stops there: each of the three walks takes one
        # pass, then steps per field
        m = period_40_matrix()
        c, stats = compress(m, set3)
        count = total_chunks(m.n)
        bits = np.unpackbits(np.frombuffer(c.payload, np.uint8))[: c.payload_bit_length]
        assert bits[14::40].all() and not bits[33::40].any()
        passes = []
        with patch("gpmc.codec._LANE_BITS", lane_bits), \
                patch("gpmc.codec._lanes", side_effect=lambda *a: passes.append(_lanes(*a))
                      or passes[-1]):
            check_walk(bits.tolist(), m.n, set3)
            assert decompress(c, set3) == m
            assert scan_stats(c, set3) == stats
        assert len(passes) == 3 and not any(whole for _, _, whole in passes)
        assert _walk(c.payload, c.payload_bit_length, count, 6) == (
            bytes([0b10101010]) * (count // 8), c.payload_bit_length)

    @pytest.mark.parametrize("lane_bits", (1056, 2112))
    def test_real_streams_meet_and_take_whole_passes(self, set3, lane_bits):
        # at p = 0.02 every lane of 1056 or 2112 bits meets the true path: each pass is
        # whole. _MIN_LANES lanes of 2112 bits (64 raw fields) take more than the first
        # pass's quarter region, so each pass is sized to hold them; sized by the region
        # alone, the walk took no pass and stepped the stream field by field, 4x to 5x slower
        assert _MIN_LANES * 2112 > codec._REGION_BITS >> 2
        with patch("gpmc.codec._LANE_BITS", lane_bits):
            check_whole_passes(generate_er(4096, 0.02, 1), set3)

    def test_set_1_streams_keep_the_residue_and_take_whole_passes(self, set1):
        # k = 5: the true path keeps its residue mod gcd(6, 33) = 3, and so does every
        # lane, its segment cut from the pass's start bit, not from that bit's byte.
        # With segments cut from the byte, the second pass here stopped after 115 fields
        check_whole_passes(generate_er(4096, 0.005, 1), set1)

    def test_lanes_are_whole_bytes_of_raw_fields(self):
        # a multiple of 8 * 33 bits, so every segment starts on the pass's bit of its
        # byte and one strided view cuts them all; the lengths patched here are too
        assert codec._LANE_BITS % 264 == 0 and SMALL_LANES["_LANE_BITS"] % 264 == 0

    def test_no_window_is_made_between_passes(self, set3):
        # ER n = 4096, p = 0.02 under set 3: the walk unpacks a window for its first runs,
        # takes whole passes back to back, then unpacks one for its last fields. With the
        # window refilled before the walk looked for a pass, each pass dropped one
        # unpacked after the pass before it: ULULULULU
        c, _ = compress(generate_er(4096, 0.02, 1), set3)
        calls = []
        with patch("gpmc.codec._unpack", side_effect=lambda *a: calls.append("U") or _unpack(*a)), \
                patch("gpmc.codec._lanes", side_effect=lambda *a: calls.append("L") or _lanes(*a)):
            _walk(c.payload, c.payload_bit_length, total_chunks(4096), 6)
        calls = "".join(calls)
        assert calls.count("L") >= 3 and "U" not in calls[calls.find("L") : calls.rfind("L")]

    @pytest.mark.parametrize("start", range(8))
    def test_lanes_start_on_the_true_paths_residue(self, start):
        # every bit 1 under k = 5: every field is 6 bits, so a lane meets the true path
        # only on its residue mod 3, and lanes _LANE_BITS apart from start all do
        segments = ((1 << 14) - 32 - start) // codec._LANE_BITS
        src = np.frombuffer(packed([1] * (1 << 14)), np.uint8)
        found, end, whole = _lanes(src, start, 1 << 14, 5)
        assert whole and found.size == segments * codec._LANE_BITS // 6 and found.all()
        assert end == start + 6 * found.size

    @pytest.mark.parametrize("seed", (0, 2, 3))
    def test_mixed_streams_take_later_passes_from_inside_a_byte(self, seed, set3):
        # half of 1,400 flags matched at random, so 7- and 33-bit fields mix, under lanes
        # of 9 * 264 bits in regions of 8 lanes: of the multiples of 264, the least at
        # which each of these streams takes three passes that all start inside a byte
        # (at 1,848 bits seed 0 put a pass on bit 1,944, and under SMALL_LANES on bit
        # 4,432, where seed 3's second pass stops early)
        rng = np.random.default_rng(seed)
        bits = stream([False] + (rng.random(1399) < 0.5).tolist(), 6)
        starts = []
        with routed("lanes"), patch.multiple("gpmc.codec", _LANE_BITS=2376,
                                             _REGION_BITS=8 * 2376), \
                patch("gpmc.codec._lanes", side_effect=lambda *a: starts.append(a[1])
                      or _lanes(*a)):
            check_walk(bits, 200, set3)
            check_against_reference(bits, 200, set3)
        assert len(set(starts)) >= 3 and all(start % 8 for start in starts)

    @pytest.mark.parametrize("size, cut", ((64, 16), (4096, 1024)))
    def test_unpack_slices_grow_with_the_payload(self, size, cut):
        # slices of 16 bits, or of a 32nd of the payload's bits if that is more: the
        # temporaries of a window refill stay small next to the payload (a lanes pass
        # unpacks its own rows, not through _unpack)
        src = np.arange(size).astype(np.uint8)
        out = np.zeros(8 * size - 24, np.uint8)
        with patch("gpmc.codec._SLICE_BITS", 16), \
                patch("gpmc.codec.np.unpackbits", wraps=np.unpackbits) as unpack:
            _unpack(src, 8, out)
        counts = [call.kwargs["count"] for call in unpack.call_args_list]
        assert max(counts) == cut and sum(counts) == out.size
        assert np.array_equal(out, np.unpackbits(src)[8 : 8 + out.size])


def check_whole_passes(m, pset):
    """The walk of m's stream takes at least three lanes passes, every one whole."""
    c, stats = compress(m, pset)
    passes = []
    with patch("gpmc.codec._lanes", side_effect=lambda *a: passes.append(_lanes(*a))
               or passes[-1]):
        flags, end = _walk(c.payload, c.payload_bit_length, total_chunks(m.n),
                           pset.indicator_bits)
    assert len(passes) >= 3 and all(whole for _, _, whole in passes)
    assert end == c.payload_bit_length
    assert unpacked(flags, total_chunks(m.n)).sum() == stats.matched
    assert decompress(c, pset) == m


class TestFieldBlocks:
    @pytest.mark.parametrize("n", (1, 33, 100, 1000, 2049, 4096, 8192))
    def test_block_rule(self, n):
        # one field block per row block: row_block(n) rows of chunks_per_row(n) fields
        step = row_block(n) * chunks_per_row(n)
        blocks, rank, _ = _field_blocks(n, 6)
        assert list(blocks) == [slice(s, s + step) for s in range(0, total_chunks(n), step)]
        assert rank.size == min(step, total_chunks(n))
        if n == 8192:
            assert step == 1 << 16 and len(range(0, total_chunks(n), step)) == 32

    def test_block_rule_follows_row_block(self):
        with row_blocks(8):
            assert list(_field_blocks(1, 6)[0]) == [slice(0, 8)]
            assert list(_field_blocks(8, 6)[0]) == [slice(0, 8)]
            assert list(_field_blocks(100, 6)[0]) == [slice(s, s + 32) for s in range(0, 400, 32)]
            assert _field_blocks(100, 6)[1].size == 32

    @pytest.mark.parametrize("k", (0, 5, 6, 8, 9, 16))
    def test_rank_and_tally_arrays(self, k):
        # one entry per field of the longest block: (32 - k) j, and j % 4 above a
        # k-bit indicator in the narrowest type that holds it, so that ORing it into
        # the indicators widens them no further
        with row_blocks(8):
            _, rank, tally = _field_blocks(40, k)  # 8 rows of 2 fields
        assert rank.tolist() == [(32 - k) * j for j in range(16)]
        assert tally.tolist() == [(j % 4) << k for j in range(16)]
        assert tally.dtype == (np.uint8 if k <= 6 else np.uint16 if k <= 14 else np.uint32)

    @pytest.mark.parametrize("rows", ROW_BLOCKS)
    @pytest.mark.parametrize("n", (1, 33, 70, 100))
    def test_codec_matches_the_oracle(self, rows, n, all_sets):
        matrices = (generate_er(n, 0.05, seed=n), generate_er(n, 0.4, seed=n + 1),
                    BitMatrix.zeros(n))
        if n % 32 == 0 or n == 1:
            matrices = matrices[:2]
        with row_blocks(rows):
            for m in matrices:
                for pset in all_sets:
                    expected = reference_compress(m, pset)
                    c, stats = compress(m, pset)
                    assert (c, stats) == expected
                    assert decompress(c, pset) == m
                    assert scan_stats(c, pset) == stats
                    for i in range(0, n, 7):
                        j = 13 * i % n
                        assert query_edge(c, pset, i, j) == m.get(i, j)

    @pytest.mark.parametrize("rows", ROW_BLOCKS)
    def test_chunk_mix_matches_the_oracle(self, rows, all_sets):
        m = generate_chunk_mix(64, 0.4, 0.3, 0.2, seed=rows)
        with row_blocks(rows):
            for pset in all_sets:
                assert compress(m, pset) == reference_compress(m, pset)

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("rows", ROW_BLOCKS)
    @settings(max_examples=100, deadline=None)
    @given(stream=streams())
    def test_decoders_match_the_reference(self, rows, routing, stream):
        with row_blocks(rows), routed(routing):
            check_against_reference(*stream)

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("set_id", SET_IDS)
    def test_top_indicator_in_a_later_block(self, routing, set_id):
        # 80 fields in row blocks of 8 rows, 16 fields, every third raw; the top indicator
        # 2^k - 1 at one matched field from the third block on, at several bit alignments,
        # at a block's first and last field, and at the stream's last field: every
        # decoder reads it as the set's last entry
        pset = pattern_set(set_id)
        k, n, top = pset.indicator_bits, 40, len(pset) - 1
        for first in (36, 37, 39, 40, 42, 43, 45, 46, 48, 63, 70):
            bits = []
            for i in range(total_chunks(n)):
                index = top if i in (first, 79) else i % 7
                bits += [0] + [i & 1] * 32 if i % 3 == 2 else [1] + [
                    (index >> b) & 1 for b in reversed(range(k))]
            with row_blocks(8), routed(routing):
                check_every_reader(bits, n, pset)
                assert scan_stats(graph_of(bits, n, pset), pset).per_pattern[top] == 2


def reference_indicators(src, offsets, k):
    """Indicator of the matched field at each bit offset of src, read one bit at a time."""
    bits = np.unpackbits(src).tolist()
    return [int("".join(map(str, bits[at + 1 : at + 1 + k])), 2) for at in offsets]


def window_path(src, offsets):
    """Whether _indicators reads these fields through one 16-bit window per byte of src."""
    return 2 * len(offsets) >= src.size


class TestIndicators:
    """The indicator reader takes the bytes of one field block: where its matched fields are
    at least half as many as its bytes, it reads one 16-bit window per byte; where fewer,
    each field's 2 bytes. Both must read what a per-bit read of the same fields reads."""

    @pytest.mark.parametrize("k", WIDTHS)
    def test_both_paths_match_a_per_bit_read(self, k):
        # 400 fields, 9 in 10 matched and the last one matched, from each bit of the first
        # byte: all matched offsets take the window path, every 16th the byte-pair path, and
        # for some leads the last field's flag is in the block's last byte, so its 2-byte
        # window runs past the block
        rng = np.random.default_rng(k)
        flags = rng.random(400) < 0.9
        flags[-1] = True
        starts = np.concatenate(([0], np.cumsum(np.where(flags, 1 + k, 33))))
        past = []
        for lead in range(8):
            offsets = (lead + starts[:-1])[flags]
            src = rng.integers(0, 256, (lead + starts[-1] + 7) >> 3, dtype=np.uint8)
            past.append(offsets[-1] >> 3 == src.size - 1)
            for subset, dense in ((offsets, True), (offsets[::-16][::-1], False)):
                assert window_path(src, subset) == dense
                got = codec._indicators(src, subset.copy(), k)
                assert got.tolist() == reference_indicators(src, subset, k)
        assert any(past)

    @pytest.mark.parametrize("set_id", (1, 3))  # their entries include the zero chunk
    def test_blocks_on_both_sides_of_the_rule(self, set_id):
        # n = 64 in row blocks of 8 rows, 16 fields: the top block's rows hold a dense
        # first chunk and an empty second, 8 matched fields in about 40 bytes, read by byte
        # pairs; the empty blocks below are 16 matched fields in at most 14 bytes, read by
        # windows, in scan_stats and in decompress's padded block copies alike
        pset, n = pattern_set(set_id), 64
        top = np.random.default_rng(set_id).integers(0, 256, (8, 8), dtype=np.uint8)
        top[:, 4:] = 0
        m = BitMatrix(n, top.tobytes() + bytes(n * n // 8 - top.size))
        with row_blocks(8):
            c, _ = compress(m, pset)
            bits = np.unpackbits(np.frombuffer(c.payload, np.uint8))[: c.payload_bit_length]
            check_every_reader(bits.tolist(), n, pset)
            sides, read = [], codec._indicators
            with patch("gpmc.codec._indicators",
                       lambda src, at, k: sides.append(window_path(src, at)) or read(src, at, k)):
                scan_stats(c, pset)
                decompress(c, pset)
        assert sides == ([False] + [True] * 7) * 2


class TestSeededSpan:
    """Under runs, each run's search starts at the length of the last run of its kind, at
    least 64 fields: after a long run, a short run of the same kind is searched past its
    end; after a short run, a long one doubles its span from there. In windows of 2^12 bits,
    which hold more than 64 fields of either kind, the long runs cross refills, and at
    some leads so does a short one."""

    @pytest.mark.parametrize("kind", (True, False))
    @pytest.mark.parametrize("lengths", ((3000, 100), (100, 3000)))
    def test_runs_match_the_reference(self, kind, lengths):
        k, short, crossed = 6, min(lengths), 0
        for lead in range(0, 800, 50):  # fields of the other kind before the first run
            flags, firsts = [not kind] * lead, []
            for length in lengths * 2:
                firsts += [len(flags)] if length == short else []
                flags += [kind] * length + [not kind]
            bits, refills, unpack = stream(flags, k), [], codec._unpack
            offsets, expected, end = reference_walk(bits, len(bits), len(flags), k)
            with routed("runs"), patch("gpmc.codec._BLOCK_BITS", 1 << 12), patch(
                    "gpmc.codec._unpack",
                    lambda src, bit, out: refills.append(bit) or unpack(src, bit, out)):
                got, stop = _walk(packed(bits), len(bits), len(flags), k)
            assert stop == end and unpacked(got, len(flags)).tolist() == expected
            crossed += any(offsets[first] < bit < offsets[first + short]
                           for first in firsts for bit in refills)
        assert crossed


def lone_fields(kind, count, lone):
    """count flags of one kind, but for those at the indices in lone, of the other."""
    lone = set(lone)
    return [kind != (i in lone) for i in range(count)]


# the walk's own routing, and runs forced: lone fields are stepped over only by runs
RUN_ROUTINGS = ("natural", "runs")


class TestLoneFieldStepOver:
    """Under runs, a run whose search stops on a lone field of the other kind steps over it
    and searches on in the same loop, unless the outer loop has work there: the lone
    field's follower starts fewer than 33 bits before the window's end, the lone field is
    the last one asked for, or one more run would reach _PROBE_RUNS. The streams here are
    runs of one kind broken by lone fields of the other, most walked in windows of 264
    bits."""

    @pytest.mark.parametrize("routing", RUN_ROUTINGS)
    @pytest.mark.parametrize("kind", (True, False))
    @pytest.mark.parametrize("k", WIDTHS)
    def test_follower_at_a_window_edge(self, k, kind, routing):
        # a lone field every 9 to 13 fields, from 16 leads: some lone field's follower is
        # the last whole field of the window its lone field was read from, and some
        # starts the next window
        pset, edges = sets_of(k)[0], set()
        width = 1 + k if kind else 33
        for gap in range(9, 14):
            for lead in range(16):
                flags = lone_fields(kind, 400, range(lead, 400, gap))
                bits, refills, unpack = stream(flags, k), [], codec._unpack
                with patch("gpmc.codec._BLOCK_BITS", 264), routed(routing), patch(
                        "gpmc.codec._unpack", lambda src, bit, out:
                        refills.append((bit, out.size)) or unpack(src, bit, out)):
                    check_walk(bits, 100, pset)
                offsets = reference_walk(bits, len(bits), 400, k)[0]
                for i in range(lead, 399, gap):
                    start, size = max(r for r in refills if r[0] <= offsets[i])
                    left = start + size - offsets[i + 1]  # the window's bits from the follower
                    edges.add("last whole" if width <= left < 2 * width else
                              "next window" if left < width else None)
        assert {"last whole", "next window"} <= edges

    @pytest.mark.parametrize("routing", RUN_ROUTINGS)
    @pytest.mark.parametrize("kind", (True, False))
    @pytest.mark.parametrize("k", WIDTHS)
    def test_lone_field_at_the_count(self, k, kind, routing):
        # n = 100, 4 fields a row: the walk of the first count fields, the last of them or
        # the one before it lone, after runs longer than the first span of 64 fields; and
        # query_edge at the last field's chunk, whose walk asks for the fields up to it
        pset, n = sets_of(k)[0], 100
        for target in range(90, 106):
            for lone in (target, target - 1):
                bits = stream(lone_fields(kind, total_chunks(n), (20, lone, lone + 70)), k)
                row, col = divmod(target, 4)
                with patch("gpmc.codec._BLOCK_BITS", 264), routed(routing):
                    check_walk(bits, n, pset, count=target + 1)
                    check_query(bits, n, pset, [(row, 32 * col), (row, min(32 * col + 31, 99))])

    @pytest.mark.parametrize("routing", RUN_ROUTINGS)
    @pytest.mark.parametrize("kind", (True, False))
    @pytest.mark.parametrize("k", WIDTHS)
    def test_two_of_the_other_kind_in_a_row(self, k, kind, routing):
        # every 20 fields, from each lead, two fields of the other kind, then 9 fields on
        # a lone one: the search stops on the first of the two and does not step over it
        pset = sets_of(k)[0]
        for lead in range(20):
            others = [i + d for i in range(lead, 400, 20) for d in (0, 1, 11)]
            with patch("gpmc.codec._BLOCK_BITS", 264), routed(routing):
                check_walk(stream(lone_fields(kind, 400, others), k), 100, pset)

    @pytest.mark.parametrize("prefix", ((), (True,) * 10 + (False,) * 2, (False,) * 3,
                                        (True, True, False, False, False)))
    @pytest.mark.parametrize("k", WIDTHS)
    def test_step_over_stops_before_the_probe(self, k, prefix):
        # n = 200, 1,400 fields: after the prefix every field is lone, so the walk by runs
        # steps over them until one more run would take it to _PROBE_RUNS. Each lone field
        # counts as a run, so the routing probes where the _PROBE_RUNS-th run of flags ends,
        # and then steps the rest field by field. The window, an eighth of the stream,
        # holds the runs up to the probe, so no refill cuts one
        pset, count = sets_of(k)[0], total_chunks(200)
        flags = list(prefix) + [i % 2 == 0 for i in range(count - len(prefix))]
        ends = [i for i in range(1, count) if flags[i] != flags[i - 1]]  # where each run ends
        bits, starts, put = stream(flags, k), [], codec._put
        with patch("gpmc.codec._put", lambda out, start, found: starts.append(start)
                   or put(out, start, found)):
            check_walk(bits, 200, pset)
        assert starts[0] == ends[codec._PROBE_RUNS - 1]

    @pytest.mark.parametrize("routing", RUN_ROUTINGS)
    @pytest.mark.parametrize("kind", (True, False))
    @pytest.mark.parametrize("k", WIDTHS)
    def test_lone_field_ends_the_stream(self, k, kind, routing):
        # a stream of 300 to 319 fields whose last is lone, walked for its fields and for
        # all 400 of n = 100; and the same streams with a lone field before the last and
        # cut inside that last field, its follower
        pset = sets_of(k)[0]
        width = 1 + k if kind else 33
        for size in range(300, 320):
            bits = stream(lone_fields(kind, size, (size // 2, size - 1)), k)
            cut = stream(lone_fields(kind, size, (size // 2, size - 2)), k)
            with patch("gpmc.codec._BLOCK_BITS", 264), routed(routing):
                for count in (size, 400):
                    check_walk(bits, 100, pset, count=count)
                for short in range(1, width):
                    check_walk(cut[:-short], 100, pset, count=size)


def check_block_flags(m, pset):
    """decompress and scan_stats hold the walk's flags packed, one bit per field, and read
    them through one generator: the flags it gives, one row block at a time, are _flags'
    bits for that block, and each block's span runs from where the one before it ended
    to where its fields end, the last at the stream's end."""
    c, stats = compress(m, pset)
    expected = unpacked(_flags(c, pset), total_chunks(m.n))
    widths = np.where(expected, 1 + pset.indicator_bits, 33)
    blocks = list(_field_blocks(m.n, pset.indicator_bits)[0])
    for decoder, result in ((decompress, m), (scan_stats, stats)):
        read = []

        def spy(*args, spans=codec._block_spans):
            for flags, bit, end in spans(*args):
                read.append((flags.copy(), bit, end))
                yield flags, bit, end

        with patch("gpmc.codec._block_spans", spy):
            assert decoder(c, pset) == result
        assert len(read) == len(blocks)
        for block, (flags, bit, end) in zip(blocks, read):
            assert flags.dtype == np.bool_
            assert np.array_equal(flags, expected[block])
            assert (bit, end) == (widths[: block.start].sum(), widths[: block.stop].sum())
        assert read[-1][2] == c.payload_bit_length


class TestPackedFlags:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 80), set_id=st.sampled_from(SET_IDS),
           p=st.sampled_from((0.0, 0.02, 0.05, 0.2, 0.5)), seed=st.integers(0, 1 << 16))
    def test_each_block_reads_its_own_flags(self, n, set_id, p, seed):
        check_block_flags(generate_er(n, p, seed), pattern_set(set_id))

    @pytest.mark.parametrize("n, last_fields, last_byte_bits", (
        (33, 2, 2),  # the last of 5 row blocks is one row of 2 fields
        (1000, 3328, 8),  # the last of 8 row blocks is 104 rows, of whole bytes
        (2049, 65, 1),  # the last of 17 row blocks is one row of 65 fields
    ))
    def test_partial_last_block_and_byte(self, n, last_fields, last_byte_bits, all_sets):
        last = list(_field_blocks(n, 6)[0])[-1]
        assert total_chunks(n) - last.start == last_fields
        assert (total_chunks(n) - 1) % 8 + 1 == last_byte_bits
        for pset in all_sets:
            check_block_flags(generate_er(n, 0.02, n), pset)


@st.composite
def damaged_containers(draw):
    n = draw(st.integers(1, 48))
    m = generate_er(n, draw(st.sampled_from((0.0, 0.02, 0.2, 0.6))),
                    seed=draw(st.integers(0, 1000)))
    blob = bytearray(write_container(compress(m, pattern_set(draw(st.sampled_from(SET_IDS))))[0]))
    damage = draw(st.sampled_from(("flip", "truncate", "header_n")))
    if damage == "flip":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, 8 * len(blob) - 1))
            blob[at // 8] ^= 0x80 >> (at % 8)
    elif damage == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    else:
        blob[8:16] = struct.pack(">Q", draw(st.one_of(st.integers(0, 200),
                                                      st.integers(0, (1 << 64) - 1))))
    return bytes(blob), draw(st.integers(0, 1 << 20)), draw(st.integers(0, 1 << 20))


class TestDamagedContainers:
    @pytest.mark.parametrize("routing", ROUTINGS)
    @settings(max_examples=300, deadline=None)
    @given(case=damaged_containers())
    def test_every_reader_returns_or_raises_one_typed_error(self, routing, case):
        blob, i, j = case
        try:
            graph = read_container(blob)
        except TYPED:
            return
        pset = pattern_set(graph.pattern_set_id)
        for op in (lambda: decompress(graph, pset), lambda: scan_stats(graph, pset),
                   lambda: query_edge(graph, pset, i % graph.n, j % graph.n)):
            try:
                with routed(routing):
                    op()
            except TYPED:
                pass

    def test_header_claiming_huge_n_is_rejected_at_parse(self):
        blob = b"GPMC" + bytes((1, 3, 32, 0)) + struct.pack(">QQ", 1 << 20, 8) + b"\x00"
        assert len(blob) == 25
        with pytest.raises(TruncationError):
            read_container(blob)

    @pytest.mark.parametrize("bits, error", ((5, TruncationError), (34, CorruptStreamError)))
    def test_length_outside_bounds_is_rejected_at_parse(self, bits, error):
        # n = 1 under set 1: one field of 1 + 5 to 33 bits
        blob = b"GPMC" + bytes((1, 1, 32, 0)) + struct.pack(">QQ", 1, bits)
        with pytest.raises(error):
            read_container(blob + bytes((bits + 7) // 8))

    @pytest.mark.parametrize("bits, payload", ((6, b"\x80"), (33, bytes(5))))
    def test_length_bounds_are_inclusive(self, bits, payload):
        # one matched all-zero chunk (1 + k = 6 bits) and one raw zero chunk (33 bits)
        blob = b"GPMC" + bytes((1, 1, 32, 0)) + struct.pack(">QQ", 1, bits) + payload
        assert decompress(read_container(blob), pattern_set(1)) == BitMatrix.zeros(1)


class TestPatternSetTable:
    def test_set_ids_come_from_the_entries(self):
        assert SET_IDS == tuple(sorted(_ENTRIES)) == (1, 2, 3)
        assert [len(sets_of(k)) for k in WIDTHS] == [2, 1]
        parser = build_parser()
        for set_id in SET_IDS:
            assert parser.parse_args(["compress", "in", "out", "--set", str(set_id)]).set == set_id
        with pytest.raises(SystemExit):
            parser.parse_args(["compress", "in", "out", "--set", str(max(SET_IDS) + 1)])

    def test_values_are_public_and_read_only(self, set3):
        assert set3.values.tolist() == list(set3.patterns)
        with pytest.raises(ValueError):
            set3.values[0] = 1
