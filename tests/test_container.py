import pytest

from gpmc import (BitMatrix, CompressedGraph, CorruptStreamError, FormatError,
                  TruncationError, compress, generate_er, read_container, write_container)


class TestWrite:
    def test_header_layout(self, set3):
        c, _ = compress(BitMatrix.zeros(1024), set3)
        blob = write_container(c)
        assert blob[:8] == bytes([0x47, 0x50, 0x4D, 0x43, 0x01, 0x03, 0x20, 0x00])
        assert blob[8:16] == (1024).to_bytes(8, "big")
        assert blob[16:24] == c.payload_bit_length.to_bytes(8, "big")

    def test_zero_graph_fixture_size(self, set1):
        c, _ = compress(BitMatrix.zeros(64), set1)
        assert c.payload_bit_length == 128 * 6 == 768
        blob = write_container(c)
        assert len(blob) == 24 + 96 == 120

    def test_final_byte_padding_is_zero(self, set1):
        # 1 chunk -> 6 payload bits, 2 pad bits in the only payload byte
        c, _ = compress(BitMatrix.zeros(1), set1)
        blob = write_container(c)
        assert blob[-1] & 0b00000011 == 0

    def test_vertex_count_past_the_header(self):
        # n is a big-endian u64 in the header: 2**64 - 1 is written, 2**64 rejected
        assert write_container(CompressedGraph(2**64 - 1, 1, b"", 0))[8:16] == bytes([255]) * 8
        with pytest.raises(FormatError, match=r"vertex count must be < 2\*\*64"):
            write_container(CompressedGraph(2**64, 1, b"", 0))


class TestRead:
    def test_round_trip_random_matrices(self, all_sets):
        import numpy as np
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            p = float(rng.choice([0.0, 0.05, 0.3, 1.0]))
            m = generate_er(n, p, seed=int(rng.integers(0, 2**32)))
            pset = all_sets[int(rng.integers(0, 3))]
            c, _ = compress(m, pset)
            assert read_container(write_container(c)) == c

    def test_bad_magic(self, set1):
        c, _ = compress(BitMatrix.zeros(64), set1)
        blob = bytearray(write_container(c))
        blob[0] = ord("X")
        with pytest.raises(FormatError):
            read_container(bytes(blob))

    def test_bad_version(self, set1):
        c, _ = compress(BitMatrix.zeros(64), set1)
        blob = bytearray(write_container(c))
        blob[4] = 2
        with pytest.raises(FormatError):
            read_container(bytes(blob))

    def test_bad_set_id(self, set1):
        c, _ = compress(BitMatrix.zeros(64), set1)
        blob = bytearray(write_container(c))
        blob[5] = 7
        with pytest.raises(FormatError):
            read_container(bytes(blob))

    def test_bad_chunk_width(self, set1):
        c, _ = compress(BitMatrix.zeros(64), set1)
        blob = bytearray(write_container(c))
        blob[6] = 16
        with pytest.raises(FormatError):
            read_container(bytes(blob))

    def test_zero_vertex_count(self):
        blob = b"GPMC" + bytes((1, 1, 32, 0)) + bytes(16)  # n = 0, no payload bits
        with pytest.raises(FormatError, match="vertex count must be >= 1, got 0"):
            read_container(blob)

    def test_payload_length_disagrees_with_bit_length(self):
        # 6 payload bits need one byte, not two or none
        for payload in (bytes(2), b""):
            with pytest.raises(FormatError, match="disagrees with payload_bit_length"):
                CompressedGraph(1, 1, payload, 6)
        assert issubclass(FormatError, ValueError)

    def test_truncated_payload(self, set1):
        c, _ = compress(BitMatrix.zeros(64), set1)
        blob = write_container(c)
        with pytest.raises(TruncationError):
            read_container(blob[:-1])

    def test_truncated_header(self):
        with pytest.raises(TruncationError):
            read_container(b"GPMC\x01\x01")

    def test_extra_bytes_rejected(self, set1):
        c, _ = compress(BitMatrix.zeros(64), set1)
        with pytest.raises(TruncationError):
            read_container(write_container(c) + b"\x00")

    def test_nonzero_padding(self, set1):
        c, _ = compress(BitMatrix.zeros(1), set1)  # 6 bits, 2 pad bits
        blob = bytearray(write_container(c))
        blob[-1] |= 0b00000001
        with pytest.raises(CorruptStreamError):
            read_container(bytes(blob))

    def test_corruption_classes_are_distinct(self):
        assert not issubclass(FormatError, TruncationError)
        assert not issubclass(TruncationError, FormatError)
        assert not issubclass(CorruptStreamError, (FormatError, TruncationError))
