"""The three fixed 32-bit pattern dictionaries and chunk classification.

Bit positions inside a chunk follow row reading order: position 0 is the
first bit of the chunk, i.e. the most significant bit of its integer value.
That convention fixes the index-to-value mapping, which the stream format
depends on.
"""

from __future__ import annotations

import numpy as np

CHUNK_WIDTH = 32
# Multiply-shift hashing (Dietzfelbinger et al., J. Algorithms 1997): a
# chunk's home slot is the top bits of chunk * _MULTIPLIER mod 2**32. The
# multiplier is the first odd draw of np.random.default_rng(0) that gives
# each of the three paper sets a table without collisions;
# tests/test_patterns.py draws it again.
_MULTIPLIER = np.uint32(0x4ECDE8B9)
_WORDS = (np.dtype("<u4"), np.dtype(">u4"))  # chunk dtypes classify_chunks reads in place


def _slot(chunks: np.ndarray, shift: np.uint32) -> np.ndarray:
    """Home slot of each uint32 chunk in a table of 2 ** (32 - shift) slots."""
    slot = chunks * _MULTIPLIER
    slot >>= shift
    return slot


class PatternSet:
    """One of the paper's dictionaries of distinct chunk-width bit patterns.

    PatternSet(set_id) builds the set _ENTRIES holds under set_id and raises
    ValueError for any other id; pattern_set(set_id) hands every caller the
    one built at import. indicator_bits is log2(len(patterns)): the width of
    the index field a matched chunk is replaced with. Each set has exactly
    2 ** indicator_bits entries, so every indicator names one. values holds
    the patterns as a read-only uint32 array, in declaration order.

    The constructor also builds the slot tables classify_chunks looks chunks
    up in: 2 ** (indicator_bits + 1) slots, so they are at most half full.
    _MULTIPLIER gives each entry a home slot, _slot(value), of its own.
    _table holds each slot's int8 entry index, and _entries the uint32 value
    of the entry that index names. A free slot names entry 0: a lookup
    accepts a slot only if its _entries value equals the chunk.

    A built set is read-only, and copies and pickles are the shared set.
    """

    __slots__ = ("id", "patterns", "indicator_bits", "values", "_shift", "_entries", "_table")

    def __init__(self, set_id: int):
        if set_id not in _ENTRIES:
            raise ValueError(f"unknown pattern set id {set_id}")
        self.id = set_id
        self.patterns = _ENTRIES[set_id]
        self.indicator_bits = (len(self.patterns) - 1).bit_length()
        self.values = np.array(self.patterns, dtype=np.uint32)
        self.values.flags.writeable = False
        table_bits = self.indicator_bits + 1
        self._shift = np.uint32(CHUNK_WIDTH - table_bits)
        table = np.zeros(1 << table_bits, dtype=np.int8)
        table[_slot(self.values, self._shift)] = np.arange(len(self.values))
        self._entries = self.values.take(table)
        self._entries.flags.writeable = table.flags.writeable = False
        self._table = table  # the last attribute set: from here on the set is read-only

    def __setattr__(self, name, value):
        if hasattr(self, "_table"):
            raise AttributeError(f"PatternSet is read-only: cannot set {name}")
        object.__setattr__(self, name, value)

    def __reduce__(self):  # copies and pickles are the shared set
        return pattern_set, (self.id,)

    def __len__(self):
        return len(self.patterns)

    def __repr__(self):
        return (f"PatternSet(id={self.id}, entries={len(self.patterns)}, "
                f"indicator_bits={self.indicator_bits})")


def _bit(position: int) -> int:
    """Chunk value with a single 1 at the given row position."""
    return 1 << (CHUNK_WIDTH - 1 - position)


# Set 1: the all-zero chunk at index 0, the leading bit paired with bit i at index i.
# Set 2: a single 1 at position i, at index i; no all-zero entry.
# Set 3: set 1 followed by set 2, 64 entries.
_ZERO_AND_PAIRS = (0,) + tuple(_bit(0) | _bit(i) for i in range(1, CHUNK_WIDTH))
_SINGLE_ONES = tuple(_bit(i) for i in range(CHUNK_WIDTH))
_ENTRIES = {1: _ZERO_AND_PAIRS, 2: _SINGLE_ONES, 3: _ZERO_AND_PAIRS + _SINGLE_ONES}
SET_IDS = tuple(sorted(_ENTRIES))  # the pattern set ids a container may name
_SETS = {set_id: PatternSet(set_id) for set_id in SET_IDS}  # each built once


def pattern_set(set_id: int) -> PatternSet:
    """The dictionary a container's pattern_set_id names, shared by every caller."""
    if set_id not in _SETS:
        raise ValueError(f"unknown pattern set id {set_id}")
    return _SETS[set_id]


def classify_chunks(chunks: np.ndarray, pset: PatternSet) -> np.ndarray:
    """Index of the dictionary entry bit-equal to each chunk: int8, -1 where
    nothing matches.

    One multiply and one shift give each chunk's home slot, made intp once;
    two take gathers on it read the slot's entry index and entry value, and a
    chunk unequal to that value gets -1. The cost does not depend on what the
    chunks hold. A uint32 array of either byte order is read as it lies; for
    other input ValueError names the first value not an integer in [0, 2**32).
    """
    arr = chunks
    if not (isinstance(chunks, np.ndarray) and chunks.dtype in _WORDS):
        given = np.asarray(chunks)
        arr = np.where((given >= 0) & (given < 1 << CHUNK_WIDTH), given, 0).astype(np.uint32)
        if (bad := arr != given).any():
            raise ValueError(f"chunk {given[bad][0]} is not an integer in [0, 2**32)")
    slot = _slot(arr, pset._shift).astype(np.intp)  # once: each take would convert uint32 slots
    idx = pset._table.take(slot)
    idx[pset._entries.take(slot) != arr] = -1
    return idx
