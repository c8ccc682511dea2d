import copy
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmc import (BitMatrix, CompressedGraph, CorruptStreamError, FormatError,
                  TruncationError, compress, decompress, generate_er, pattern_set, read_container,
                  scan_stats, write_container)

# two n=100 matrices built without the RNG: rows end in pad bits, and each set
# meets both matched and raw chunks in the first
GOLDEN_MATRICES = {
    "ramp": BitMatrix(100, bytes((37 * i + 11) % 256 for i in range(1250))),
    "sparse": BitMatrix(100, bytes(0x80 if i % 9 == 0 else 0 for i in range(1250))),
}
# SHA-256 of each v1 container, by matrix and pattern set id
GOLDEN_SHA256 = {
    ("ramp", 1): "6849fb736580192770f3098cd58fed292b2ddbddd483d936fcdf0c0d091962d0",
    ("ramp", 2): "078b0d6be630d646e8a7c121f5b34c9b2a89d46fce47cb388b97c6bfe98666e6",
    ("ramp", 3): "d98262cfde85907abfae3b18247ced5574235b05cb54e60db4ac2e9a0c06cf7e",
    ("sparse", 1): "8489d56bd39ac40a1452571831ec032fc9c12ca09835cdb035529439fe62dfb9",
    ("sparse", 2): "b1f79961eb4a520add0c41fe1479418a195d618daf7780707c55f3ddd77e2ce8",
    ("sparse", 3): "9a554c872df9037ca657fd8221d41b1dacdcb3abd32387e9b81a8e00b9489b52",
}


@st.composite
def graph_pairs(draw):
    """Two graphs, each read in place from bytes, read from a bytearray whose reserved
    byte is drawn, or as compress made it, a view of its own container's bytes. The second
    is the first's matrix and set compressed again, another drawn graph, or a graph that
    holds the first's payload as bytes with one bit of its last byte flipped, its pad bits
    left zero."""
    def matrix_and_set():
        m = generate_er(draw(st.integers(1, 40)), draw(st.sampled_from([0.0, 0.05, 0.5])),
                        draw(st.integers(0, 3)))
        return m, pattern_set(draw(st.integers(1, 3)))

    def form(c):
        how = draw(st.sampled_from(["in place", "bytearray", "as made"]))
        if how == "as made":
            return c
        data = write_container(c)
        if how == "bytearray":
            data = bytearray(data)
            data[7] = draw(st.integers(0, 255))
        return read_container(data)

    m, pset = matrix_and_set()
    first = compress(m, pset)[0]
    second = draw(st.sampled_from(["again", "other", "last byte"]))
    if second == "again":
        other = compress(m, pset)[0]
    elif second == "other":
        other = compress(*matrix_and_set())[0]
    else:
        payload = bytearray(first.payload)
        used = first.payload_bit_length - 8 * (len(payload) - 1)  # 1 to 8 bits
        payload[-1] ^= 0x80 >> draw(st.integers(0, used - 1))
        other = CompressedGraph(first.n, first.pattern_set_id, bytes(payload),
                                first.payload_bit_length)
    return form(first), form(other)


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


    @pytest.mark.parametrize("name, set_id", sorted(GOLDEN_SHA256))
    def test_golden_v1_bytes(self, name, set_id):
        m = GOLDEN_MATRICES[name]
        c, _ = compress(m, pattern_set(set_id))
        blob = write_container(c)
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name, set_id]
        assert read_container(blob) == c


class TestInPlaceWrite:
    """write_container hands back the bytes object a graph's payload ends when that object
    starts with the graph's header, as compress and read_container leave it, and otherwise
    builds the container from the header and the payload."""

    @staticmethod
    def by_hand(c):
        return (b"GPMC" + bytes((1, c.pattern_set_id, 32, 0)) + c.n.to_bytes(8, "big")
                + c.payload_bit_length.to_bytes(8, "big") + bytes(c.payload))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.integers(0, 3),
           st.integers(1, 3), st.integers(1, 255))
    def test_written_in_place_or_rebuilt(self, n, p, seed, set_id, reserved):
        c = compress(generate_er(n, p, seed), pattern_set(set_id))[0]
        blob = write_container(c)
        assert blob == self.by_hand(c) and type(blob) is bytes
        assert isinstance(c.payload, memoryview) and c.payload.obj is blob
        assert write_container(read_container(blob)) is blob
        # a nonzero reserved byte, read in place, is written back as zero
        dirty = bytearray(blob)
        dirty[7] = reserved
        dirty = bytes(dirty)
        assert write_container(read_container(dirty)) == blob
        # read_container's copy of a bytearray is handed back, never the bytearray
        data = bytearray(blob)
        out = write_container(read_container(data))
        assert out == blob and type(out) is bytes and out is not data
        # views of the container's head and of a bytearray's tail hold other bytes; the
        # head's last byte may set a pad bit, and then its bytes would not read back
        size, bits = len(c.payload), c.payload_bit_length
        for view in (memoryview(blob)[:size], memoryview(bytearray(blob))[24:]):
            other = CompressedGraph(n, set_id, view, bits)
            if view[-1] & (1 << -bits % 8) - 1:
                with pytest.raises(CorruptStreamError, match="nonzero padding bits"):
                    write_container(other)
                continue
            out = write_container(other)
            assert out == self.by_hand(other) and out is not blob
        for clone in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
            assert type(clone.payload) is bytes and clone == c
            assert write_container(clone) == blob


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

    def test_bytes_container_is_read_in_place(self, set3):
        # a view of the container's payload, not a copy, that behaves as the bytes would:
        # equal, same hash, pickled and copied as a graph that holds them
        m = generate_er(70, 0.1, seed=2)
        c, _ = compress(m, set3)
        blob = write_container(c)
        graph = read_container(blob)
        assert isinstance(graph.payload, memoryview) and graph.payload.obj is blob
        assert graph.payload.readonly and bytes(graph.payload) == c.payload
        assert graph == c and hash(graph) == hash(c) and {graph, c} == {c}
        for clone in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph), copy.copy(graph)):
            assert clone == graph and hash(clone) == hash(graph)
            assert type(clone.payload) is bytes
        assert decompress(graph, set3) == m and scan_stats(graph, set3) == compress(m, set3)[1]
        assert write_container(graph) == blob

    @settings(max_examples=200, deadline=None)
    @given(graph_pairs())
    def test_graphs_are_equal_as_their_containers_are(self, pair):
        # the header's reserved byte is not read, so the containers compared are rewritten
        a, b = pair
        same = write_container(a) == write_container(b)
        assert (a == b) is same and (b == a) is same and (a != b) is not same
        if same:
            assert hash(a) == hash(b)
        assert a.__eq__(write_container(a)) is NotImplemented and a != write_container(a)

    def test_writable_container_is_copied(self, set3):
        # the graph read from a bytearray, or a view of one, does not change when it does
        c, _ = compress(generate_er(40, 0.2, seed=3), set3)
        for wrap in (bytearray, lambda b: memoryview(bytearray(b))):
            data = wrap(write_container(c))
            graph = read_container(data)
            data[-1] ^= 0xFF
            data[24:] = bytes(len(data) - 24)
            assert graph == c and bytes(graph.payload) == c.payload
            assert pickle.loads(pickle.dumps(graph)) == c

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

    def test_graph_with_a_nonzero_pad_bit_is_not_written(self, set3):
        # such a graph decodes as the clean one does, but its bytes would not read back:
        # write_container refuses it with read_container's error
        m = generate_er(64, 0.05, seed=1)
        c, stats = compress(m, set3)
        assert c.payload_bit_length % 8
        payload = bytearray(c.payload)
        payload[-1] |= 1
        dirty = CompressedGraph(c.n, c.pattern_set_id, bytes(payload), c.payload_bit_length)
        assert decompress(dirty, set3) == m and scan_stats(dirty, set3) == stats
        with pytest.raises(CorruptStreamError, match="^nonzero padding bits in final payload byte$"):
            write_container(dirty)

    def test_corruption_classes_are_distinct(self):
        assert not issubclass(FormatError, TruncationError)
        assert not issubclass(TruncationError, FormatError)
        assert not issubclass(CorruptStreamError, (FormatError, TruncationError))
