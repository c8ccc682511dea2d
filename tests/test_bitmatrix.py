import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmc import (BitMatrix, EdgeList, EdgeRangeError, ParseError,
                  classify_chunks, format_edge_list_text, from_edge_list,
                  generate_chunk_mix, generate_er, parse_edge_list_text)
from gpmc import bitmatrix
from gpmc.bitmatrix import row_block
from gpmc.codec import matrix_chunks
from gpmc.metrics import CALIBRATION_MIXES

from conftest import chunk_popcounts, peak


class TestFromEdgeList:
    def test_empty_graph(self):
        m = from_edge_list(EdgeList(4, []))
        assert m.popcount() == 0
        assert m.bit_array().tolist() == [0] * 16

    def test_single_edge_placement(self):
        m = from_edge_list(EdgeList(2, [(0, 1)]))
        assert m.bit_array().tolist() == [0, 1, 0, 0]

    def test_sample_graph_first_row(self):
        m = from_edge_list(EdgeList(16, [(0, 0), (0, 1), (0, 2), (0, 3)]))
        row0 = "".join(str(m.get(0, j)) for j in range(16))
        assert row0 == "1111000000000000"
        assert m.popcount() == 4

    def test_directed_semantics(self):
        m = from_edge_list(EdgeList(3, [(0, 2)]))
        assert m.get(0, 2) == 1
        assert m.get(2, 0) == 0

    def test_duplicates_collapse(self):
        m = from_edge_list(EdgeList(3, [(1, 2), (1, 2), (1, 2)]))
        assert m.popcount() == 1

    def test_self_loop(self):
        m = from_edge_list(EdgeList(3, [(2, 2)]))
        assert m.get(2, 2) == 1

    def test_endpoint_out_of_range(self):
        with pytest.raises(EdgeRangeError, match=r"\(0, 7\)"):
            from_edge_list(EdgeList(4, [(0, 1), (0, 7)]))
        with pytest.raises(EdgeRangeError):
            from_edge_list(EdgeList(4, [(-1, 0)]))

    def test_non_integer_endpoint(self):
        with pytest.raises(EdgeRangeError, match=r"\(0\.9, 1\.7\)"):
            from_edge_list(EdgeList(4, [(0, 1), (0.9, 1.7)]))
        with pytest.raises(EdgeRangeError, match=r"\(0\.0, 3\.0\)"):
            from_edge_list(EdgeList(4, np.array([[0.0, 3.0]])))

    def test_endpoint_past_int64(self):
        with pytest.raises(EdgeRangeError, match=rf"\(0, {2**70}\)"):
            from_edge_list(EdgeList(4, [(0, 2), (0, 2**70), (0.5, 1)]))
        with pytest.raises(EdgeRangeError, match=r"\(0, 7\)"):  # the first bad edge
            from_edge_list(EdgeList(4, [(0, 7), (0, 2**70)]))

    def test_edge_not_a_pair(self):
        with pytest.raises(EdgeRangeError, match=r"edge \(0, 1, 2\)"):
            from_edge_list(EdgeList(4, [(0, 1, 2), (3,)]))
        with pytest.raises(EdgeRangeError, match=r"edge \(3\)"):
            from_edge_list(EdgeList(4, [(0, 1), (3,), (2, 1, 0)]))
        with pytest.raises(EdgeRangeError, match=r"edge \(0, 1, 2\)"):
            from_edge_list(EdgeList(4, np.array([[0, 1, 2]])))

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError, match="vertex count must be >= 1, got 0"):
            from_edge_list(EdgeList(0, []))

    def test_integer_inputs(self):
        expected = from_edge_list(EdgeList(5, [(0, 4), (3, 1)]))
        assert from_edge_list(EdgeList(5, [(np.int64(0), np.uint8(4)), (3, np.int32(1))])) == expected
        for dtype in (np.int32, np.uint64, np.int64):
            pairs = np.array([[0, 4], [3, 1]], dtype=dtype)
            assert from_edge_list(EdgeList(5, pairs)) == expected
        with pytest.raises(EdgeRangeError):
            from_edge_list(EdgeList(5, np.array([[0, 2**64 - 1]], dtype=np.uint64)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 20), st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19))))
    def test_ingestion_round_trip(self, n, raw_edges):
        edges = [(u % n, v % n) for u, v in raw_edges]
        m = from_edge_list(EdgeList(n, edges))
        assert sorted(set(edges)) == list(m.edges())

    @pytest.mark.parametrize("n", (1024, 2048))
    def test_edges_are_set_in_the_matrix_bytes(self, n):
        # 1,053 and 4,296 edges: the matrix's bytes, its edges' int64 pairs and bit
        # indices, 1.41x to 1.42x the matrix. A zeroed numpy array that was then copied
        # to bytes held 2.21x to 2.22x
        m = generate_er(n, 0.001, 1)
        built, used = peak(from_edge_list, EdgeList(n, list(m.edges())))
        assert built == m
        assert used < 1.6 * len(m.data)


class TestGet:
    def test_sample_graph_entries(self, sample_matrix):
        assert sample_matrix.get(0, 0) == 1
        assert sample_matrix.get(0, 4) == 0
        assert sample_matrix.get(11, 3) == 1

    def test_empty_matrix(self):
        assert BitMatrix.zeros(4).get(3, 3) == 0

    def test_bounds(self):
        m = BitMatrix.zeros(4)
        for i, j in [(-1, 0), (0, -1), (4, 0), (0, 4)]:
            with pytest.raises(IndexError):
                m.get(i, j)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 17, 64])
    def test_agrees_with_packed_bits(self, n):
        m = generate_er(n, 0.4, seed=n)
        bits = m.bit_array()
        for i in range(n):
            for j in range(n):
                assert m.get(i, j) == bits[i * n + j]


class TestConstruction:
    def test_rejects_nonpositive_n(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                BitMatrix(n)

    def test_rejects_wrong_byte_count(self):
        with pytest.raises(ValueError):
            BitMatrix(4, bytes(3))

    def test_from_bit_array_rejects_wrong_bit_count(self):
        with pytest.raises(ValueError, match="expected 9 bits, got 8"):
            BitMatrix.from_bit_array(3, [np.ones(8, np.uint8)])

    @pytest.mark.parametrize("n", [1, 3, 7, 33, 100, 1000, 2100])
    def test_from_bit_array_packs_every_input_form(self, n):
        # one array of all bits is a one-element list. An iterator's blocks of 8k rows
        # are whole bytes, as are lists of 8 bits that cut across rows
        bits = np.random.default_rng(n).random((n, n)) < 0.3
        forms = [[form] for form in (bits, bits.reshape(-1), bits.astype(np.uint8),
                                     bits.astype(np.uint8).ravel())]
        forms += [iter([bits[i : i + rows] for i in range(0, n, rows)]) for rows in (8, 16, n + 8)]
        if n <= 1000:
            flat = bits.reshape(-1).astype(int).tolist()
            forms += [[bits.tolist()], [flat],
                      iter([flat[at : at + 8] for at in range(0, n * n, 8)])]
        expected = np.packbits(bits.reshape(-1)).tobytes()
        for form in forms:
            assert BitMatrix.from_bit_array(n, form).data == expected

    def test_from_bit_array_holds_one_packed_copy(self):
        # beyond its input it holds the result and one packed block of 128 rows, as
        # decompress feeds them: 1.17x the packed matrix at n = 1024, where packing all
        # bits and then copying them to bytes held 2x
        bits = generate_er(1024, 0.3, seed=1).bit_array()
        m, used = peak(BitMatrix.from_bit_array, 1024, (
            bits[at : at + 128 * 1024] for at in range(0, bits.size, 128 * 1024)))
        assert m.bit_array().tolist() == bits.tolist()
        assert used < 1.25 * len(m.data)

    def test_masks_tail_bits(self):
        # 3x3 uses 9 bits; stray bits past the tail must not affect equality
        a = BitMatrix(3, bytes([0xFF, 0x80]))
        b = BitMatrix(3, bytes([0xFF, 0xFF]))
        assert a == b


class TestRowBlocks:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 33, 100])
    def test_bit_array_rows_are_the_matching_rows(self, n):
        # a start row whose first bit lies inside a byte whenever n % 8 != 0; past the
        # ends and reversed, the rows are those a slice of the rows takes
        m = generate_er(n, 0.5, seed=n)
        rows = m.bit_array().reshape(n, n)
        assert m.bit_array(0, None).tolist() == m.bit_array().tolist()
        for start in range(-2, n + 3):
            for stop in range(-2, n + 3):
                got = m.bit_array(start, stop)
                assert got.dtype == np.uint8
                assert got.tolist() == rows[start:stop].reshape(-1).tolist(), (start, stop)

    def test_from_bit_array_rejects_wrong_blocks(self):
        bits = np.ones(100, np.uint8)
        with pytest.raises(ValueError, match="expected 100 bits, got 96"):
            BitMatrix.from_bit_array(10, iter([bits[:64], bits[64:96]]))
        with pytest.raises(ValueError, match="expected 100 bits, got 104"):
            BitMatrix.from_bit_array(10, iter([bits[:64], bits[:40]]))
        with pytest.raises(ValueError, match="expected 100 bits, got 104"):
            BitMatrix.from_bit_array(10, itertools.repeat(bits[:8]))  # reads no further
        with pytest.raises(ValueError, match="expected 100 bits, got 0"):
            BitMatrix.from_bit_array(10, iter([]))
        with pytest.raises(ValueError, match="a block before the last ends at bit 50"):
            BitMatrix.from_bit_array(10, iter([bits[:50], bits[50:]]))
        with pytest.raises(ValueError, match="a block before the last ends at bit 68"):
            BitMatrix.from_bit_array(10, iter([bits[:64], bits[64:68], bits[68:]]))

    @pytest.mark.parametrize("n", [1, 7, 8, 100, 511, 512, 1000, 1024, 2049, 4096, 8191, 8192,
                                   10**5])
    def test_block_rule(self, n):
        # a 32nd of the rows, or more, up to an eighth of them, to hold 2^18 bits, rounded
        # up to whole bytes per block
        rows = row_block(n)
        assert rows % 8 == 0 and 32 * rows >= n
        assert rows * n >= 1 << 18 or rows - 8 < n / 8
        assert rows - 8 < max(n / 32, min(n / 8, (1 << 18) / n))
        if n in (1000, 1024, 2049, 4096, 8192):  # 8, 8, 17, 32 and 32 blocks
            assert rows == {1000: 128, 1024: 128, 2049: 128, 4096: 128, 8192: 256}[n]

    @pytest.mark.parametrize("n", [1, 9, 700])
    def test_edges_cross_row_blocks(self, n, monkeypatch):
        m = generate_er(n, 0.3, seed=n)
        expected = [divmod(int(flat), n) for flat in np.flatnonzero(m.bit_array())]
        for rows in (8, 16, 64):
            monkeypatch.setattr(bitmatrix, "row_block", lambda n, rows=rows: rows)
            assert list(m.edges()) == expected


class TestGenerateEr:
    def test_p_zero_is_empty(self):
        assert generate_er(50, 0.0, seed=1).popcount() == 0

    def test_p_one_is_full(self):
        m = generate_er(50, 1.0, seed=1)
        assert m.popcount() == 50 * 50

    def test_density_concentrates(self):
        m = generate_er(1024, 0.02, seed=1)
        density = m.popcount() / 1024**2
        assert 0.015 <= density <= 0.025

    def test_deterministic(self):
        assert generate_er(64, 0.1, seed=9) == generate_er(64, 0.1, seed=9)
        assert generate_er(64, 0.1, seed=9) != generate_er(64, 0.1, seed=10)

    @pytest.mark.parametrize("n", [1, 7, 2100])
    def test_blocks_draw_one_stream(self, n):
        # drawn block by block, the bits equal one draw of all n * n; at
        # n = 2100 the 4,410,000 bits take 68 blocks of 65,536 bits, the last short
        p, seed = 0.3, 5
        bits = np.random.default_rng(seed).random(n * n) < p
        assert generate_er(n, p, seed).data == np.packbits(bits).tobytes()

    def test_peak_is_a_block_of_draws(self):
        # the float64 draws for a block of 2^16 bits are 1x the packed matrix at
        # n = 2048, and the result 1x: 2.13x; blocks of a 32nd of the bits held 3.25x,
        # blocks of 2^22 bits, whose draws are 64x the matrix at this n, 73x
        m, used = peak(generate_er, 2048, 0.3, 5)
        assert used < 2.5 * len(m.data)

    def test_rejects_bad_probability(self):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError):
                generate_er(8, p, seed=0)

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError, match="vertex count must be >= 1, got 0"):
            generate_er(0, 0.1, 1)


class TestGenerateChunkMix:
    def test_all_zero(self):
        m = generate_chunk_mix(64, f_zero=1.0, seed=3)
        assert m.popcount() == 0

    def test_all_filler_matches_nothing(self, all_sets):
        m = generate_chunk_mix(256, seed=5)
        chunks = matrix_chunks(m)
        assert (chunk_popcounts(chunks) == 3).all()
        for pset in all_sets:
            assert (classify_chunks(chunks, pset) == -1).all()

    def test_census_exact(self):
        m = generate_chunk_mix(1024, f_zero=0.5, f_single=0.3, f_pair=0.1, seed=7)
        chunks = matrix_chunks(m)
        pc = chunk_popcounts(chunks)
        total = chunks.size
        n_zero = int((chunks == 0).sum())
        n_single = int((pc == 1).sum())
        n_pair = int(((pc == 2) & (chunks >= 1 << 31)).sum())
        n_filler = int((pc == 3).sum())
        assert n_zero == round(0.5 * total)
        assert n_single == round(0.3 * total)
        assert n_pair == round(0.1 * total)
        assert n_zero + n_single + n_pair + n_filler == total

    def test_match_fraction_under_union_set(self, set3):
        m = generate_chunk_mix(1024, 0.5, 0.3, 0.1, seed=7)
        chunks = matrix_chunks(m)
        matched = int((classify_chunks(chunks, set3) >= 0).sum())
        assert abs(matched / chunks.size - 0.9) < 1e-4

    def test_deterministic(self):
        args = (96, 0.2, 0.2, 0.2, 21)
        assert generate_chunk_mix(*args) == generate_chunk_mix(*args)

    @pytest.mark.parametrize("mix, bound", ((CALIBRATION_MIXES[3], 2.0),
                                            (CALIBRATION_MIXES[1], 4.0), ((0, 0, 0), 5.0)),
                             ids=("set3", "set1", "fillers"))
    def test_peak_is_the_buffer_and_its_draws(self, mix, bound):
        # the chunks are drawn as uint32 into the matrix's own buffer and shuffled there,
        # and the fillers' positions turned into their bits in place, at most three draw
        # arrays at a time: at n = 2048, 1.6x for set 3's mix, 3.4x for set 1's (71%
        # fillers) and 4.3x for all fillers. With five filler arrays alive together and
        # then three shift temporaries, they held 1.6x, 5.3x and 7.0x; int64 draws,
        # concatenated and then permuted beside the matrix, 7.0x, 13.75x and 17.0x
        m, used = peak(generate_chunk_mix, 2048, *mix, 1)
        assert used < bound * len(m.data)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_chunk_mix(33, f_zero=0.5)
        with pytest.raises(ValueError):
            generate_chunk_mix(64, f_zero=0.9, f_single=0.2)
        with pytest.raises(ValueError):
            generate_chunk_mix(64, f_zero=-0.1)

    def test_rejects_rounded_count_overflow(self):
        # at 32 chunks each third rounds up to 11, overflowing the total
        third = 1.0 / 3.0
        with pytest.raises(ValueError, match="rounded"):
            generate_chunk_mix(32, third, third, third, seed=0)


# SHA-256 of the packed bytes of each builder: how a matrix is built must not change them
GOLDEN_ER = {
    (1, 0.5, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    (33, 0.1, 2): "4bd5ddc0f179ae28b41e1521cbcdb2abef2e265170853968025940eee99a70cd",
    (1000, 0.01, 3): "3093bc2a64dd7025174f2a8a688f27bd299b928b8f5d405eff049c68c8804369",
    (2048, 0.001, 1): "b5f96933330a9ffbbee91df0f8bf34a939ce4cb53e25f9ca267301b14eb7c29d",
}
GOLDEN_CHUNK_MIX = {
    (64, 0.4, 0.3, 0.2, 1): "93ec0b58d18016c2820abb8ad91b2ef598ddf6fe04e1b4c03cb612f25e0c6b84",
    (96, 0.2, 0.0, 0.086, 2): "10c55a1819560a7fa324554188dd38513ccbd16fb78b112004ad8df35f6c4ab2",
    (256, 0.0, 0.57, 0.0, 3): "338f2de57bedfbc03a3eb930e691134d9b6c293b3b7e3b28ed389a2a2e5100b2",
    (1024, 0.5, 0.3, 0.1, 7): "cfb158c7c3e552f1ef277db76111f49dd05a82870e4e3d6ce6ee6b4e93d9c619",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("args", sorted(GOLDEN_ER))
    def test_er_and_its_edge_list(self, args):
        # the edge list in reverse order: ingest sets the same bytes whatever the order
        m = generate_er(*args)
        assert hashlib.sha256(m.data).hexdigest() == GOLDEN_ER[args]
        assert from_edge_list(EdgeList(m.n, list(m.edges())[::-1])).data == m.data

    @pytest.mark.parametrize("args", sorted(GOLDEN_CHUNK_MIX))
    def test_chunk_mix(self, args):
        m = generate_chunk_mix(*args[:4], seed=args[4])
        assert hashlib.sha256(m.data).hexdigest() == GOLDEN_CHUNK_MIX[args]


class TestEdgeListText:
    def test_minimal(self):
        el = parse_edge_list_text("2\n0 1\n")
        assert el.n == 2 and el.edges == [(0, 1)]

    def test_comments_and_self_loop(self):
        el = parse_edge_list_text("4\n# comment\n3 3\n")
        assert el.n == 4 and el.edges == [(3, 3)]
        assert from_edge_list(el).get(3, 3) == 1

    def test_range_error_carries_line(self):
        with pytest.raises(EdgeRangeError, match="line 2"):
            parse_edge_list_text("2\n0 5\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list_text("4\n0 1\n0 one\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list_text("4\n0 1 2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_edge_list_text("# nothing here\n")

    @pytest.mark.parametrize("text, message", [
        ("# header below\n4 5\n", "line 2: expected vertex count, got '4 5'"),
        ("four\n0 1\n", "line 1: bad vertex count 'four'"),
        ("0\n", "line 1: vertex count must be >= 1, got 0"),
        ("-2\n", "line 1: vertex count must be >= 1, got -2"),
    ])
    def test_bad_header(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_edge_list_text(text)

    def test_accepts_bytes(self):
        el = parse_edge_list_text(b"3\n1 2\n")
        assert el.edges == [(1, 2)]

    def test_format_round_trip(self, sample_matrix):
        text = format_edge_list_text(sample_matrix)
        assert from_edge_list(parse_edge_list_text(text)) == sample_matrix
        assert text.splitlines()[0] == "16"
