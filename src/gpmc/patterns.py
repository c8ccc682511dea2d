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
    """Ordered dictionary of distinct chunk-width bit patterns.

    indicator_bits is ceil(log2(len(patterns))): the width of the index
    field a matched chunk is replaced with. values holds the patterns as a
    read-only uint32 array, in declaration order.

    The constructor also builds the slot table classify_chunks looks chunks
    up in: 2 ** (indicator_bits + 1) slots, so it is at most half full. An
    entry sits in its home slot, _slot(value), or in the first free slot
    after it (linear probing, wrapping around); _rounds is the longest probe
    any entry needs, 1 for the three paper sets. A free slot holds index 0:
    a lookup accepts a slot only if the entry it names equals the chunk.

    A built set is read-only: pattern_set hands every caller the same one.
    """

    __slots__ = ("id", "patterns", "indicator_bits", "values", "_shift", "_table", "_rounds")

    def __init__(self, set_id: int, patterns):
        self.id = set_id
        self.patterns = tuple(int(p) for p in patterns)
        if not self.patterns:
            raise ValueError("a pattern set needs at least one entry")
        if len(set(self.patterns)) != len(self.patterns):
            raise ValueError("patterns must be distinct")
        for p in self.patterns:
            if not 0 <= p < (1 << CHUNK_WIDTH):
                raise ValueError(f"pattern {p:#x} does not fit in {CHUNK_WIDTH} bits")
        self.indicator_bits = (len(self.patterns) - 1).bit_length()
        self.values = np.array(self.patterns, dtype=np.uint32)
        self.values.flags.writeable = False
        table_bits = self.indicator_bits + 1
        self._shift = np.uint32(CHUNK_WIDTH - table_bits)
        table = np.full(1 << table_bits, -1, dtype=np.int64)
        slot, pending = _slot(self.values, self._shift), np.arange(len(self.values))
        self._rounds = 0
        while pending.size:  # one round per probe step; the last write to a slot wins it
            self._rounds += 1
            free = table[slot] < 0
            table[slot[free]] = pending[free]
            waiting = table[slot] != pending
            slot = (slot[waiting] + np.uint32(1)) & np.uint32(table.size - 1)
            pending = pending[waiting]
        table[table < 0] = 0
        table.flags.writeable = False
        self._table = table  # the last attribute set: from here on the set is read-only

    def __setattr__(self, name, value):
        if hasattr(self, "_table"):
            raise AttributeError(f"PatternSet is read-only: cannot set {name}")
        object.__setattr__(self, name, value)

    def __reduce__(self):  # copies and pickles are built again from the entries
        return PatternSet, (self.id, self.patterns)

    def __len__(self):
        return len(self.patterns)

    def __repr__(self):
        return (f"PatternSet(id={self.id}, entries={len(self.patterns)}, "
                f"indicator_bits={self.indicator_bits})")


def _bit(position: int) -> int:
    """Chunk value with a single 1 at the given row position."""
    return 1 << (CHUNK_WIDTH - 1 - position)


# the entries of sets 1 and 2 in index order; set 3 is the two in a row
_ZERO_AND_PAIRS = (0,) + tuple(_bit(0) | _bit(i) for i in range(1, CHUNK_WIDTH))
_SINGLE_ONES = tuple(_bit(i) for i in range(CHUNK_WIDTH))


def build_pattern_set_1() -> PatternSet:
    """All-zero chunk at index 0; leading bit paired with bit i at index i."""
    return PatternSet(1, _ZERO_AND_PAIRS)


def build_pattern_set_2() -> PatternSet:
    """Single 1 at position i, stored at index i. No all-zero entry."""
    return PatternSet(2, _SINGLE_ONES)


def build_pattern_set_3() -> PatternSet:
    """Set 1 followed by set 2: 64 entries, 6-bit indicators."""
    return PatternSet(3, _ZERO_AND_PAIRS + _SINGLE_ONES)


_BUILDERS = {1: build_pattern_set_1, 2: build_pattern_set_2, 3: build_pattern_set_3}
SET_IDS = tuple(sorted(_BUILDERS))  # the pattern set ids a container may name
_SETS = {set_id: build() for set_id, build in _BUILDERS.items()}  # each built once


def pattern_set(set_id: int) -> PatternSet:
    """The dictionary a container's pattern_set_id names, shared by every caller."""
    try:
        return _SETS[set_id]
    except KeyError:
        raise ValueError(f"unknown pattern set id {set_id}") from None


def classify_chunks(chunks: np.ndarray, pset: PatternSet) -> np.ndarray:
    """Index of the dictionary entry bit-equal to each chunk: int64, -1 where
    nothing matches.

    Each chunk is looked up in the set's slot table: one multiply, one
    shift and one table gather per probe round, then one check that the
    entry found equals the chunk. The cost does not depend on what the
    chunks hold. A uint32 array of either byte order is read as it lies.
    """
    arr = chunks
    if not (isinstance(chunks, np.ndarray) and chunks.dtype in _WORDS):
        arr = np.ascontiguousarray(chunks, dtype=np.uint32)
    idx = pset._table[_slot(arr, pset._shift)]
    miss = pset.values[idx] != arr
    # entries displaced by a collision sit in the slots after their home slot
    for step in range(1, pset._rounds):
        slot = _slot(arr, pset._shift)
        slot += np.uint32(step)
        slot &= np.uint32(pset._table.size - 1)
        candidate = pset._table[slot]
        del slot
        found = pset.values[candidate] == arr
        found &= miss
        np.copyto(idx, candidate, where=found)
        miss ^= found
        del candidate, found
    idx[miss] = -1
    return idx
