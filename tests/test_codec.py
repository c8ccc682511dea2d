import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmc import (BitMatrix, CompressedGraph, CorruptStreamError,
                  FormatError, TruncationError, classify_chunks, compress, decompress,
                  generate_chunk_mix, generate_er, pattern_set, query_edge,
                  ratio_for_match_fraction, scan_stats, total_chunks)
from gpmc import codec
from gpmc.bitmatrix import PIECE_ROWS
from gpmc.codec import _walk, chunks_per_row, matrix_chunks, chunks_to_matrix

from conftest import peak


def whole_matrix_chunks(m):
    """matrix_chunks as one per-bit pass over the whole matrix: the reference."""
    n = m.n
    packed = np.packbits(m.bit_array().reshape(n, n), axis=1)
    rows = np.zeros((n, 4 * chunks_per_row(n)), np.uint8)
    rows[:, : packed.shape[1]] = packed
    return rows.view(">u4").reshape(-1)


def whole_chunks_to_matrix(chunks, n):
    """chunks_to_matrix as one per-bit pass over the whole matrix: the reference."""
    rows = np.asarray(chunks, ">u4").view(np.uint8).reshape(n, 4 * chunks_per_row(n))
    return BitMatrix.from_bit_array(n, [np.unpackbits(rows, axis=1, count=n)])


def assert_size_formula(stats, pset):
    k = pset.indicator_bits
    assert stats.compressed_bits == stats.matched * (1 + k) + stats.unmatched * 33
    assert stats.matched + stats.unmatched == stats.total_chunks
    assert sum(stats.per_pattern) == stats.matched


class TestCompress:
    def test_all_zero_1024_set1(self, set1):
        c, stats = compress(BitMatrix.zeros(1024), set1)
        assert stats.total_chunks == 32768
        assert stats.matched == 32768
        assert stats.compressed_bits == 32768 * 6 == 196608
        assert stats.ratio == 1 - 196608 / 1048576 == 0.8125
        assert c.payload_bit_length == 196608

    def test_all_zero_1024_set2_expands(self, set2):
        _, stats = compress(BitMatrix.zeros(1024), set2)
        assert stats.matched == 0
        assert stats.compressed_bits == 32768 * 33 == 1081344
        assert stats.ratio == pytest.approx(-0.03125)

    def test_chunk_counts(self, set1):
        for n, expected in [(1024, 32768), (64, 128), (33, 66), (1, 1)]:
            _, stats = compress(BitMatrix.zeros(n), set1)
            assert stats.total_chunks == expected == total_chunks(n)

    def test_chunk_mix_ratio_matches_cost_model(self, set3):
        m = generate_chunk_mix(1024, 0.5, 0.3, 0.1, seed=2)
        _, stats = compress(m, set3)
        f = stats.matched / stats.total_chunks
        assert abs(f - 0.9) < 1e-4
        assert abs(stats.ratio - 0.7) < 1e-3
        assert stats.ratio == pytest.approx(ratio_for_match_fraction(f, 6), abs=1e-12)
        assert_size_formula(stats, set3)

    def test_ratio_formula_is_exact_on_aligned_sizes(self, all_sets):
        for seed, (fz, fs, fp) in enumerate([(0.25, 0.25, 0.25), (0.0, 0.8, 0.0),
                                             (0.9, 0.0, 0.05)]):
            m = generate_chunk_mix(256, fz, fs, fp, seed=seed)
            for pset in all_sets:
                _, stats = compress(m, pset)
                f = stats.matched / stats.total_chunks
                expected = ratio_for_match_fraction(f, pset.indicator_bits)
                assert stats.ratio == pytest.approx(expected, abs=1e-12)

    def test_per_pattern_histogram(self, set1):
        m = BitMatrix.zeros(64)
        _, stats = compress(m, set1)
        assert stats.per_pattern[0] == stats.total_chunks
        assert sum(stats.per_pattern[1:]) == 0



class TestRoundTrip:
    def test_sample_matrix(self, sample_matrix, all_sets):
        for pset in all_sets:
            c, stats = compress(sample_matrix, pset)
            assert decompress(c, pset) == sample_matrix
            assert_size_formula(stats, pset)

    @pytest.mark.parametrize("n", [1, 17, 32, 33, 63, 64, 65, 128])
    @pytest.mark.parametrize("p", [0.0, 0.03, 0.5, 1.0])
    def test_grid(self, n, p, all_sets):
        m = generate_er(n, p, seed=n * 1000 + int(p * 100))
        for pset in all_sets:
            c, stats = compress(m, pset)
            assert decompress(c, pset) == m
            assert_size_formula(stats, pset)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 96), p=st.sampled_from([0.0, 0.02, 0.1, 0.5]),
           seed=st.integers(0, 2**32 - 1), set_id=st.sampled_from([1, 2, 3]))
    def test_random(self, n, p, seed, set_id):
        pset = pattern_set(set_id)
        m = generate_er(n, p, seed)
        c, stats = compress(m, pset)
        assert decompress(c, pset) == m
        assert_size_formula(stats, pset)

    def test_matched_counts_add_up_across_sets(self, all_sets):
        set1, set2, set3 = all_sets
        matrices = [
            generate_er(96, 0.02, seed=1),
            generate_er(128, 0.2, seed=2),
            generate_chunk_mix(256, 0.4, 0.3, 0.2, seed=3),
            BitMatrix.zeros(40),
        ]
        for m in matrices:
            matched = {pset.id: compress(m, pset)[1].matched for pset in all_sets}
            assert matched[3] == matched[1] + matched[2]


class TestChunking:
    def test_row_padding_round_trips(self):
        m = generate_er(45, 0.3, seed=9)
        chunks = matrix_chunks(m)
        assert chunks.size == 45 * chunks_per_row(45) == 90
        assert chunks_to_matrix([chunks], 45) == m

    def test_pad_bits_are_zero(self):
        m = generate_er(33, 1.0, seed=0)
        chunks = matrix_chunks(m)
        # odd chunks carry only the row's final bit, padded with 31 zeros
        assert (chunks[1::2] == 1 << 31).all()

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 32, 33, 63, 64, 100])
    def test_chunks_are_rows_cut_in_32_bits(self, n):
        m = generate_er(n, 0.5, seed=n)
        cpr, bits = chunks_per_row(n), m.bit_array().reshape(n, n)
        expected = [int("".join(map(str, bits[i, 32 * c : 32 * c + 32])).ljust(32, "0"), 2)
                    for i in range(n) for c in range(cpr)]
        chunks = matrix_chunks(m)
        assert chunks.dtype == ">u4" and chunks.tolist() == expected
        assert chunks_to_matrix([chunks], n) == m
        assert chunks_to_matrix([chunks.astype(">u4")], n) == m

    def test_repack_drops_stray_pad_bits(self):
        m = generate_er(45, 0.3, seed=9)
        chunks = matrix_chunks(m)
        chunks[1::2] |= (1 << (32 - 45 % 32)) - 1  # every pad bit set
        assert chunks_to_matrix([chunks], 45) == m

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 80), st.floats(0, 1), st.integers(0, 2**32 - 1), st.booleans())
    def test_row_blocks_match_the_whole_matrix_pass(self, n, p, seed, dirty_pads):
        # blocks of 8 rows: many blocks, the last one partial unless 8 divides n
        m = generate_er(n, p, seed)
        expected = whole_matrix_chunks(m)
        blocks = [matrix_chunks(m, i, i + 8) for i in range(0, n, 8)]
        assert all(block.dtype == ">u4" for block in blocks)
        assert np.concatenate(blocks).tolist() == expected.tolist()
        if dirty_pads:  # every pad bit set, which both passes drop
            expected[chunks_per_row(n) - 1 :: chunks_per_row(n)] |= (1 << (-n % 32)) - 1
        assert chunks_to_matrix([expected], n) == whole_chunks_to_matrix(expected, n) == m
        cut = chunks_per_row(n) * 8
        assert chunks_to_matrix(iter([expected[s : s + cut] for s in range(0, expected.size, cut)]),
                                n) == m

    def test_round_trip_through_many_row_blocks(self, set3):
        # n % 8 = 1: rows start at every bit of a byte; 16 blocks of 128 rows, then a
        # block of one row that ends inside a byte. The chunks are checked against
        # the whole-matrix pass
        n = 2049
        assert codec.row_block(n) == 128
        m = generate_er(n, 0.01, 7)
        chunks = matrix_chunks(m)
        assert chunks.tolist() == whole_matrix_chunks(m).tolist()
        assert chunks_to_matrix([chunks], n) == m
        c, stats = compress(m, set3)
        assert decompress(c, set3) == m
        assert scan_stats(c, set3) == stats

    @pytest.mark.parametrize("n", [257, 1000, 2049, 4104])
    def test_whole_row_blocks_match_the_whole_matrix_pass(self, n):
        # each row block goes through one byte per bit PIECE_ROWS rows at a time: at
        # these n a block holds several pieces, and the last block's last piece is
        # partial (blocks of 40, 128, 128 and 136 rows; the last of 17, 104, 1 and 24)
        m, step = generate_er(n, 0.3, n), codec.row_block(n)
        assert step > PIECE_ROWS and (n % step) % PIECE_ROWS
        blocks = [matrix_chunks(m, s, s + step) for s in range(0, n, step)]
        assert np.array_equal(np.concatenate(blocks), whole_matrix_chunks(m))
        assert chunks_to_matrix(blocks, n) == m

    @pytest.mark.parametrize("n", [1000, 2049, 4104])
    def test_per_bit_arrays_hold_one_piece(self, set3, monkeypatch, n):
        # compress and decompress cut the same pieces, each at most PIECE_ROWS rows, and
        # every bit goes through one of them once each way
        m, sizes = generate_er(n, 0.01, n), []
        bit_array, from_bit_array = BitMatrix.bit_array, BitMatrix.from_bit_array.__func__

        def spy_bit_array(self, *rows):
            bits = bit_array(self, *rows)
            sizes.append(bits.size)
            return bits

        def spy_from_bit_array(cls, n, blocks):
            def spied():
                for bits in blocks:
                    sizes.append(np.size(bits))
                    yield bits
            return from_bit_array(cls, n, spied())

        monkeypatch.setattr(BitMatrix, "bit_array", spy_bit_array)
        monkeypatch.setattr(BitMatrix, "from_bit_array", classmethod(spy_from_bit_array))
        c, _ = compress(m, set3)
        encoded = sizes[:]
        assert decompress(c, set3) == m
        assert sizes[len(encoded) :] == encoded
        assert sum(encoded) == n * n and max(encoded) <= PIECE_ROWS * n
        assert len(encoded) == sum(-(-min(codec.row_block(n), n - s) // PIECE_ROWS)
                                   for s in range(0, n, codec.row_block(n)))

    def test_repack_rejects_wrong_chunk_count(self):
        chunks = matrix_chunks(generate_er(45, 0.3, seed=9))
        for wrong in (chunks[:-1], chunks[:-2], np.append(chunks, 0)):
            with pytest.raises(ValueError):
                chunks_to_matrix([wrong], 45)


class TestDecompressStreams:
    def test_single_matched_chunk_stream(self, set1):
        # flag 1 + indicator 00000, padded: one all-zero chunk for n=1
        c = CompressedGraph(1, 1, bytes([0b10000000]), 6)
        assert decompress(c, set1) == BitMatrix.zeros(1)

    def test_single_raw_chunk_stream(self, set1):
        # flag 0, then raw chunk 10000... : bit (0, 0) set for n=1
        payload = bytes([0b01000000, 0, 0, 0, 0])
        c = CompressedGraph(1, 1, payload, 33)
        m = decompress(c, set1)
        assert m.get(0, 0) == 1 and m.popcount() == 1

    def test_rejects_nonpositive_n(self):
        with pytest.raises(FormatError, match="vertex count must be >= 1, got 0"):
            CompressedGraph(0, 1, b"", 0)

    def test_rejects_unknown_set_id(self):
        with pytest.raises(FormatError, match="pattern set id must be in"):
            CompressedGraph(1, 4, bytes([0b10000000]), 6)

    def test_rejects_payload_length_mismatch(self):
        with pytest.raises(ValueError):
            CompressedGraph(1, 1, bytes(2), 6)

    def test_pattern_set_mismatch(self, set1, set2):
        c, _ = compress(BitMatrix.zeros(32), set1)
        with pytest.raises(FormatError):
            decompress(c, set2)

    def test_truncated_mid_field(self, set1):
        # flag says matched but only 4 of 6 bits are present
        c = CompressedGraph(1, 1, bytes([0b10000000]), 4)
        with pytest.raises(TruncationError):
            decompress(c, set1)

    def test_stream_ends_before_all_chunks(self, set1):
        # n=32 needs 32 chunks; supply only one
        c = CompressedGraph(32, 1, bytes([0b10000000]), 6)
        with pytest.raises(TruncationError):
            decompress(c, set1)

    def test_trailing_bits_rejected(self, set1):
        # n=1 consumes 6 bits; 6 more are left over
        c = CompressedGraph(1, 1, bytes([0b10000010, 0b00000000]), 12)
        with pytest.raises(CorruptStreamError):
            decompress(c, set1)


class TestPayloadEnd:
    """The last field's bytes end the payload: scan_stats reads it in place and
    must not run past its end, decompress and query_edge read padded words."""

    def test_one_vertex(self, all_sets):
        # payloads of 1 byte (a matched field) and 5 bytes (a raw one)
        for bit in (0, 1):
            m = BitMatrix.from_bit_array(1, [bit])
            for pset in all_sets:
                c, stats = compress(m, pset)
                assert len(c.payload) in (1, 5)
                assert decompress(c, pset) == m
                assert scan_stats(c, pset) == stats
                assert query_edge(c, pset, 0, 0) == bit

    def test_every_length_mod_8(self, all_sets):
        # each payload length mod 8, ending in a matched field and in a raw one
        seen = set()
        for n in range(1, 41):
            for p in (0.0, 0.02, 0.3):
                m = generate_er(n, p, seed=n)
                for pset in all_sets:
                    c, stats = compress(m, pset)
                    last_matched = classify_chunks(matrix_chunks(m)[-1:], pset)[0] >= 0
                    seen.add((len(c.payload) % 8, bool(last_matched)))
                    assert decompress(c, pset) == m
                    assert scan_stats(c, pset) == stats
                    assert query_edge(c, pset, n - 1, n - 1) == m.get(n - 1, n - 1)
        assert seen == {(r, last) for r in range(8) for last in (False, True)}


class TestScanStats:
    def test_matches_compress_stats(self, all_sets):
        m = generate_er(128, 0.05, seed=31)
        for pset in all_sets:
            c, stats = compress(m, pset)
            assert scan_stats(c, pset) == stats

    def test_detects_trailing_bits(self, set1):
        c = CompressedGraph(1, 1, bytes([0b10000010, 0b00000000]), 12)
        with pytest.raises(CorruptStreamError):
            scan_stats(c, set1)


class TestQueryEdge:
    def test_all_zero(self, set1):
        c, _ = compress(BitMatrix.zeros(64), set1)
        assert query_edge(c, set1, 0, 0) == 0
        assert query_edge(c, set1, 63, 63) == 0

    def test_single_edge(self, set1):
        from gpmc import EdgeList, from_edge_list
        m = from_edge_list(EdgeList(64, [(0, 0)]))
        c, _ = compress(m, set1)
        assert query_edge(c, set1, 0, 0) == 1
        assert query_edge(c, set1, 0, 1) == 0

    def test_agrees_with_full_decode(self, all_sets):
        m = generate_er(40, 0.08, seed=23)
        for pset in all_sets:
            c, _ = compress(m, pset)
            full = decompress(c, pset)
            for i in range(40):
                for j in range(40):
                    assert query_edge(c, pset, i, j) == full.get(i, j)

    @pytest.mark.parametrize("n", [32, 33, 100])
    def test_last_chunk(self, all_sets, n):
        # the stream's last field, read in place from the payload's last bytes
        last = range(n - 1 - (n - 1) % 32, n)
        for p in (0.0, 0.05, 0.5):
            m = generate_er(n, p, seed=n)
            for pset in all_sets:
                c, _ = compress(m, pset)
                full = decompress(c, pset)
                assert [query_edge(c, pset, n - 1, j) for j in last] == [
                    full.get(n - 1, j) for j in last]

    def test_bounds(self, set1):
        c, _ = compress(BitMatrix.zeros(8), set1)
        with pytest.raises(IndexError):
            query_edge(c, set1, 8, 0)
        with pytest.raises(IndexError):
            query_edge(c, set1, 0, -1)


class TestPeakMemory:
    """tracemalloc peak of each call above what was live (conftest.peak), against the
    packed matrix: 1.63x to 1.66x for compress, 2.19x to 2.23x for decompress and 1.02x
    to 1.07x for scan_stats on numpy 2.4, at n = 1024 and at n = 1000. compress writes
    its payload straight into its container's bytes. A row block goes through one byte
    per bit PIECE_ROWS rows at a time, a quarter of a block at these n, and its field
    temporaries are narrow and freed as they are used. The walk holds a window of an
    eighth of the payload's bits, one byte per bit, and writes its flags packed, one bit
    per field, which both decoders keep so. The walk sets scan_stats' peak: after it,
    scan_stats reads only the matched fields. Each test below names what its bound
    holds; CHANGES.md keeps what the designs before these held."""

    @pytest.mark.parametrize("n", [1024, 1000])
    def test_compress_and_decompress_peaks(self, set3, n):
        m = generate_er(n, 0.001, 1)
        (c, _), compress_peak = peak(compress, m, set3)
        decoded, decompress_peak = peak(decompress, c, set3)
        assert decoded == m
        assert compress_peak <= 1.85 * len(m.data)
        assert decompress_peak <= 2.3 * len(m.data)
        stats, stats_peak = peak(scan_stats, c, set3)
        assert stats == compress(m, set3)[1]
        assert stats_peak < 1.15 * len(m.data)

    def test_compress_holds_one_piece_per_bit(self, set3):
        # at n = 4096 a row block is 128 rows, 0.25x the matrix at one byte per bit, and
        # a piece of PIECE_ROWS rows a quarter of that: compress peaks at 0.52x, its
        # container and one block's field temporaries
        m = generate_er(4096, 0.001, 1)
        (c, _), used = peak(compress, m, set3)
        assert decompress(c, set3) == m
        assert used < 0.6 * len(m.data)

    def test_scan_stats_holds_packed_flags(self, set3):
        # at n = 4096 the walk's window is an eighth of the matrix and its flags, packed
        # as the walk finds them, a 32nd: scan_stats peaks at 0.25x
        m = generate_er(4096, 0.001, 1)
        c, stats = compress(m, set3)
        result, used = peak(scan_stats, c, set3)
        assert result == stats
        assert used < 0.3 * len(m.data)

    def test_all_raw_decompress_holds_no_payload_copy(self, set1):
        # all raw, so the payload is 1.03x the matrix: decompress(read_container(blob))
        # peaks at 2.46x after the walk, with the packed flags, the result and one row
        # block's field arrays alive; the decode frees its copy of the block's words
        # before the take and the windows right after it. A copy of the whole payload, by
        # read_container or padded for the decode, would add 1.03x
        m = generate_er(1024, 0.5, 1)
        blob = codec.write_container(compress(m, set1)[0])
        assert len(blob) > 1.03 * len(m.data)
        decoded, used = peak(lambda b: decompress(codec.read_container(b), set1), blob)
        assert decoded == m
        assert used < 2.55 * len(m.data)

    def test_all_raw_compress_writes_its_container_in_place(self, set1):
        # all raw, so the container is 1.03x the matrix: write_container(compress(m))
        # peaks at 1.40x, the container, the buffer's growth slack and one row block's
        # temporaries
        m = generate_er(4096, 0.5, 1)
        blob, used = peak(lambda: codec.write_container(compress(m, set1)[0]))
        assert codec.read_container(blob) == compress(m, set1)[0]
        assert used < 1.5 * len(m.data)

    @pytest.mark.parametrize("n, bound", ((4096, 0.2), (1024, 1.2)))
    def test_walk_holds_one_window_not_the_payload(self, set1, n, bound):
        # all raw: 33 payload bits per 32 matrix bits. The walk holds one window, an
        # eighth of the payload's bits, up to 2^18, one byte per bit, read where
        # np.unpackbits left it, its flags packed one bit per field (a 32nd of the
        # matrix) and one run search's strided slice: 0.165x at n = 4096 (a 0.125x
        # window), while one byte per payload bit would be 8.25x. At n = 1024 the window
        # is 1.03x and the walk takes 1.14x. Unpacking into a temporary and copying it
        # into a reused window, or unpacking the next window before the last is freed,
        # adds a second window and crosses either bound (0.285x and 1.37x)
        m = generate_er(n, 0.5, 1)
        c, stats = compress(m, set1)
        assert stats.matched == 0
        count, k = total_chunks(m.n), set1.indicator_bits
        (flags, end), walk_peak = peak(_walk, c.payload, c.payload_bit_length, count, k)
        assert flags == bytes(count // 8) and end == c.payload_bit_length
        assert walk_peak < bound * len(m.data)

    def test_lanes_hold_one_region_not_the_payload(self, set3):
        # short runs: the lanes pass holds one region of 2^21 bits, one byte per
        # bit in rows of 1,056 bits and a 40-bit sink (1.04x), one pass's recorded
        # field widths (0.14x) and the walk's packed flags, 1.26x, which is
        # scan_stats' peak. The previous pass's flags, kept through a pass, add 0.1x
        # and cross the bound
        m = generate_er(4096, 0.02, 1)
        c, stats = compress(m, set3)
        result, stats_peak = peak(scan_stats, c, set3)
        assert result == stats
        assert stats_peak < 1.3 * len(m.data)

    def test_lanes_stream_decompress_holds_one_region(self, set3):
        # the same stream: the walk, one region at a time, sets decompress' peak too,
        # 1.28x, above the decode's 1.24x
        m = generate_er(4096, 0.02, 1)
        blob = codec.write_container(compress(m, set3)[0])
        decoded, used = peak(lambda b: decompress(codec.read_container(b), set3), blob)
        assert decoded == m
        assert used < 1.3 * len(m.data)

    def test_query_edge_reads_the_payload_in_place(self, set1):
        # the last cell walks the whole stream: its flags packed one bit per field
        # and the walk's one window, 0.16x the payload. A second window, as an unpack
        # into a temporary copied into the window holds, measures 0.28x; a copy of the
        # payload up to the chunk, and that copy again padded, 1.24x
        m = generate_er(4096, 0.25, 1)
        c, _ = compress(m, set1)
        bit, query_peak = peak(query_edge, c, set1, 4095, 4095)
        assert bit == m.get(4095, 4095)
        assert query_peak < 0.2 * len(c.payload)
