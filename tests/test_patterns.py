import copy
import pickle
from unittest.mock import Mock, patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmc import (PatternSet, classify_chunks, compress, generate_er, pattern_set,
                  read_container, write_container)
from gpmc.codec import matrix_chunks
from gpmc.patterns import _MULTIPLIER, SET_IDS, _bit

from conftest import peak

LEADING = 1 << 31


def scan_classify(patterns, chunk):
    """Plain linear scan, the ground truth for classification."""
    for i, p in enumerate(patterns):
        if p == chunk:
            return i
    return None


def lookup(chunk, pset):
    """classify_chunks on one chunk, with None for no match as scan_classify gives."""
    index = int(classify_chunks(np.array([chunk], np.uint32), pset)[0])
    return None if index < 0 else index


def scan_classify_bulk(chunks, pset, block=1 << 17):
    """Dense linear scan over every entry, vectorized but still exhaustive."""
    vals = np.asarray(pset.patterns, dtype=np.uint32)
    out = np.empty(len(chunks), dtype=np.int64)
    for s in range(0, len(chunks), block):
        eq = chunks[s : s + block, None] == vals[None, :]
        hit = eq.any(axis=1)
        out[s : s + block] = np.where(hit, eq.argmax(axis=1), -1)
    return out


def popcount_le_2_chunks():
    """All 529 chunks with at most two set bits."""
    chunks = [0]
    chunks += [_bit(a) for a in range(32)]
    chunks += [_bit(a) | _bit(b) for a in range(32) for b in range(a + 1, 32)]
    return chunks


class TestConstruction:
    def test_set_shapes(self, set1, set2, set3):
        assert len(set1) == 32 and set1.indicator_bits == 5
        assert len(set2) == 32 and set2.indicator_bits == 5
        assert len(set3) == 64 and set3.indicator_bits == 6
        assert (set1.id, set2.id, set3.id) == (1, 2, 3)

    def test_set1_layout(self, set1):
        assert set1.patterns[0] == 0
        assert set1.patterns[1] == LEADING | (1 << 30)
        for i in range(1, 32):
            value = set1.patterns[i]
            assert value & LEADING
            assert bin(value).count("1") == 2
            assert value == LEADING | _bit(i)

    def test_set2_layout(self, set2):
        assert set2.patterns[0] == LEADING
        assert 0 not in set2.patterns
        for i, value in enumerate(set2.patterns):
            assert value == _bit(i)
            assert bin(value).count("1") == 1

    def test_set3_is_concatenation(self, set1, set2, set3):
        assert set3.patterns == set1.patterns + set2.patterns
        assert set3.patterns[33] == 1 << 30
        assert set(set1.patterns).isdisjoint(set2.patterns)

    def test_all_entries_distinct(self, all_sets):
        for pset in all_sets:
            assert len(set(pset.patterns)) == len(pset.patterns)

    def test_indicator_width_follows_cardinality(self, all_sets):
        # exactly 2 ** k entries: every k-bit indicator names one, so the decoders
        # need no range check
        for pset in all_sets:
            assert len(pset) == 1 << pset.indicator_bits
            assert pset.indicator_bits == (len(pset) - 1).bit_length()

    @pytest.mark.parametrize("build", (PatternSet, pattern_set))
    def test_unknown_id_is_rejected(self, build):
        for set_id in (0, 4, 9):
            with pytest.raises(ValueError, match=f"^unknown pattern set id {set_id}$"):
                build(set_id)

    def test_paper_sets_are_built_once_and_shared_read_only(self):
        m = generate_er(40, 0.1, 1)
        blobs = {set_id: write_container(compress(m, pattern_set(set_id))[0])
                 for set_id in SET_IDS}
        rebuild = Mock(side_effect=AssertionError("set rebuilt"))
        with patch.object(PatternSet, "__init__", rebuild):
            for set_id, blob in blobs.items():
                assert compress(m, pattern_set(set_id))[0] == read_container(blob)
                assert pattern_set(set_id) is pattern_set(set_id)
        assert not rebuild.called
        for name, value in (("indicator_bits", 5), ("patterns", ()), ("_entries", None),
                            ("_table", None)):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(pattern_set(3), name, value)
        assert pattern_set(3).indicator_bits == 6 and len(pattern_set(3).patterns) == 64

    @pytest.mark.parametrize("duplicate", (lambda pset: pickle.loads(pickle.dumps(pset)),
                                           copy.deepcopy), ids=("pickle", "deepcopy"))
    def test_copies_are_the_shared_set(self, duplicate, all_sets):
        for pset in all_sets:
            assert duplicate(pset) is pset
            assert duplicate(PatternSet(pset.id)) is pset


class TestClassify:
    def test_all_zero_chunk(self, set1, set2, set3):
        assert lookup(0, set1) == scan_classify(set1.patterns, 0) == 0
        assert lookup(0, set2) is scan_classify(set2.patterns, 0) is None
        assert lookup(0, set3) == scan_classify(set3.patterns, 0) == 0

    def test_single_one_chunk(self, set1, set2, set3):
        chunk = _bit(7)
        assert lookup(chunk, set1) is scan_classify(set1.patterns, chunk) is None
        assert lookup(chunk, set2) == scan_classify(set2.patterns, chunk) == 7
        assert lookup(chunk, set3) == scan_classify(set3.patterns, chunk) == 39

    def test_leading_pair_chunk(self, set1, set3):
        chunk = LEADING | _bit(13)
        assert lookup(chunk, set1) == scan_classify(set1.patterns, chunk) == 13
        assert lookup(chunk, set3) == scan_classify(set3.patterns, chunk) == 13

    def test_self_consistency_exhaustive(self, all_sets):
        for pset in all_sets:
            for i, value in enumerate(pset.patterns):
                assert scan_classify(pset.patterns, value) == i
                assert classify_chunks(np.array([value], np.uint32), pset)[0] == i
                assert classify_chunks(np.array([value], ">u4"), pset)[0] == i

    def test_union_equivalence(self, set1, set2, set3):
        rng = np.random.default_rng(7)
        random_chunks = rng.integers(0, 1 << 32, size=1_000_000, dtype=np.uint64)
        special = np.array(popcount_le_2_chunks() + list(set3.patterns), np.uint64)
        chunks = np.concatenate([random_chunks, special]).astype(np.uint32)
        in1 = classify_chunks(chunks, set1) >= 0
        in2 = classify_chunks(chunks, set2) >= 0
        in3 = classify_chunks(chunks, set3) >= 0
        assert ((in1 | in2) == in3).all()
        assert not (in1 & in2).any()

    def test_popcount_three_never_matches(self, all_sets):
        rng = np.random.default_rng(11)
        positions = rng.random((100_000, 32)).argsort(axis=1)[:, :3]
        chunks = np.bitwise_or.reduce(
            np.int64(1) << (31 - positions), axis=1).astype(np.uint32)
        for pset in all_sets:
            assert (classify_chunks(chunks, pset) == -1).all()
        for pset in all_sets:
            assert scan_classify(pset.patterns, LEADING | _bit(5) | _bit(9)) is None

    def test_optimized_agrees_with_linear_scan(self, all_sets):
        rng = np.random.default_rng(13)
        random_chunks = rng.integers(0, 1 << 32, size=1_000_000, dtype=np.uint64)
        # salt with values that actually classify so the match path is hit too
        salted = np.concatenate([
            random_chunks,
            np.array(popcount_le_2_chunks(), np.uint64),
        ]).astype(np.uint32)
        for pset in all_sets:
            fast = classify_chunks(salted, pset)
            slow = scan_classify_bulk(salted, pset)
            assert (fast == slow).all()

    def test_either_byte_order_agrees_with_scan(self, all_sets):
        rng = np.random.default_rng(17)
        sample = rng.integers(0, 1 << 32, size=5_000, dtype=np.uint64).tolist()
        sample += popcount_le_2_chunks()
        for pset in all_sets:
            expected = [scan_classify(pset.patterns, chunk) for chunk in sample]
            expected = [-1 if i is None else i for i in expected]
            for dtype in ("<u4", ">u4"):
                assert classify_chunks(np.array(sample, dtype), pset).tolist() == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, (1 << 32) - 1), max_size=3000), st.randoms())
    def test_strided_chunks_agree_with_scan(self, all_sets, random_chunks, rnd):
        # the gathers and the equality check read strided views of either byte order in place
        salted = random_chunks + popcount_le_2_chunks()
        rnd.shuffle(salted)
        chunks = np.array(salted, np.uint32)
        for pset in all_sets:
            for view in (chunks[::3], chunks.astype(">u4")[1::2]):
                assert not view.flags.contiguous
                assert (classify_chunks(view, pset) == scan_classify_bulk(view, pset)).all()

    @pytest.mark.parametrize("chunks, first", (
        (np.array([1 << 32], np.uint64), "4294967296"),
        (np.array([-(1 << 31)], np.int64), "-2147483648"),
        (np.array([0.5]), "0.5"),
        ([1 << 32], "4294967296"),
        ([5, 7, -1, 1 << 40], "-1"),
    ), ids=("uint64-2**32", "int64-negative", "float-half", "list-2**32", "list-first-bad"))
    def test_values_outside_uint32_are_rejected(self, set3, chunks, first):
        message = rf"^chunk {first} is not an integer in \[0, 2\*\*32\)$"
        with pytest.raises(ValueError, match=message):
            classify_chunks(chunks, set3)

    def test_in_range_conversions_classify_as_uint32(self, all_sets):
        sample = popcount_le_2_chunks() + [(1 << 32) - 1, 12345, 3 << 30]
        for pset in all_sets:
            expected = classify_chunks(np.array(sample, np.uint32), pset).tolist()
            assert expected == [-1 if i is None else i
                                for i in (scan_classify(pset.patterns, c) for c in sample)]
            for chunks in (np.array(sample, np.int64), np.array(sample, np.uint64), sample):
                assert classify_chunks(chunks, pset).tolist() == expected


def home_slot(value, pset, multiplier=int(_MULTIPLIER)):
    """Multiply-shift home slot, in plain integers."""
    return (value * multiplier) % (1 << 32) >> int(pset._shift)


def slot_mate(value, pset, low):
    """A value other than value with the same home slot: multiplying by the
    odd multiplier is a bijection mod 2**32, so change the product's bits
    below the slot and multiply back by the inverse."""
    product = (value * int(_MULTIPLIER)) % (1 << 32) ^ low
    return product * pow(int(_MULTIPLIER), -1, 1 << 32) % (1 << 32)


class TestSlotTable:
    def test_multiplier_is_first_seeded_draw_without_paper_collisions(self):
        paper = [pattern_set(set_id) for set_id in (1, 2, 3)]
        rng = np.random.default_rng(0)
        while True:
            a = int(rng.integers(0, 1 << 32, dtype=np.uint64)) | 1
            if all(len({home_slot(v, p, a) for v in p.patterns}) == len(p) for p in paper):
                break
        assert a == int(_MULTIPLIER)

    def test_paper_sets_take_one_round(self, all_sets):
        for pset in all_sets:
            assert pset._table.size == 2 << pset.indicator_bits
            slots = [home_slot(v, pset) for v in pset.patterns]
            assert [int(pset._table[s]) for s in slots] == list(range(len(pset)))

    def test_builds_are_identical(self, all_sets):
        for pset in all_sets:
            first, second = PatternSet(pset.id), PatternSet(pset.id)
            assert np.array_equal(first._table, second._table)
            assert np.array_equal(first._table, pset._table)
            assert first.patterns == pset.patterns

    def test_entries_table_names_each_slots_entry(self, all_sets):
        for pset in all_sets:
            assert pset._table.dtype == np.int8 and pset._entries.dtype == np.uint32
            assert pset._entries.shape == pset._table.shape
            for s in range(pset._table.size):
                assert pset._entries[s] == pset.values[pset._table[s]]
            for table in (pset._table, pset._entries):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = table[0]  # the same value: a writable table stays intact

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_slot_mates_of_entries_do_not_match(self, data):
        # a chunk that shares an entry's home slot but differs from it finds that entry
        # in the table, and the equality check alone turns it away
        pset = pattern_set(data.draw(st.sampled_from(SET_IDS)))
        low = st.integers(1, (1 << int(pset._shift)) - 1)
        sources = data.draw(st.lists(st.sampled_from(pset.patterns), min_size=1, max_size=100))
        mates = [slot_mate(v, pset, data.draw(low)) for v in sources]
        for v, mate in zip(sources, mates):
            assert mate != v and home_slot(mate, pset) == home_slot(v, pset)
        entries = data.draw(st.lists(st.sampled_from(pset.patterns), max_size=100))
        others = data.draw(st.lists(st.integers(0, (1 << 32) - 1), max_size=100))
        chunks = data.draw(st.permutations(entries + mates + others))
        fast = classify_chunks(np.array(chunks, dtype=np.uint32), pset)
        assert fast.dtype == np.int8
        assert classify_chunks(np.array(mates, dtype=np.uint32), pset).tolist() == [-1] * len(mates)
        expected = [scan_classify(pset.patterns, c) for c in chunks]
        assert fast.tolist() == [-1 if i is None else i for i in expected]

    @pytest.mark.parametrize("dtype", ("=u4", ">u4"))
    def test_peak_below_four_times_input(self, all_sets, dtype):
        # the chunks of either byte order are read in place, not copied first
        chunks = matrix_chunks(generate_er(4096, 0.02, 1)).astype(dtype)
        for pset in all_sets:
            assert peak(classify_chunks, chunks, pset)[1] < 4 * chunks.nbytes
