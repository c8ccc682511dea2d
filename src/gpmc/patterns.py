"""The three fixed 32-bit pattern dictionaries and chunk classification.

Bit positions inside a chunk follow row reading order: position 0 is the
first bit of the chunk, i.e. the most significant bit of its integer value.
That convention fixes the index-to-value mapping, which the stream format
depends on.
"""

from __future__ import annotations

import numpy as np

CHUNK_WIDTH = 32


class PatternSet:
    """Ordered dictionary of distinct chunk-width bit patterns.

    indicator_bits is ceil(log2(len(patterns))): the width of the index
    field a matched chunk is replaced with. values holds the patterns as a
    read-only uint32 array, in declaration order.
    """

    __slots__ = ("id", "patterns", "indicator_bits", "values", "_sorted_values", "_sorted_to_index")

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
        order = np.argsort(self.values, kind="stable")
        self._sorted_values = self.values[order]
        self._sorted_to_index = order.astype(np.int64)

    def __len__(self):
        return len(self.patterns)

    def __repr__(self):
        return (f"PatternSet(id={self.id}, entries={len(self.patterns)}, "
                f"indicator_bits={self.indicator_bits})")


def _bit(position: int) -> int:
    """Chunk value with a single 1 at the given row position."""
    return 1 << (CHUNK_WIDTH - 1 - position)


def build_pattern_set_1() -> PatternSet:
    """All-zero chunk at index 0; leading bit paired with bit i at index i."""
    patterns = [0] + [_bit(0) | _bit(i) for i in range(1, CHUNK_WIDTH)]
    return PatternSet(1, patterns)


def build_pattern_set_2() -> PatternSet:
    """Single 1 at position i, stored at index i. No all-zero entry."""
    return PatternSet(2, [_bit(i) for i in range(CHUNK_WIDTH)])


def build_pattern_set_3() -> PatternSet:
    """Set 1 followed by set 2: 64 entries, 6-bit indicators."""
    return PatternSet(3, build_pattern_set_1().patterns + build_pattern_set_2().patterns)


_BUILDERS = {1: build_pattern_set_1, 2: build_pattern_set_2, 3: build_pattern_set_3}
SET_IDS = tuple(sorted(_BUILDERS))  # the pattern set ids a container may name


def pattern_set(set_id: int) -> PatternSet:
    """The dictionary a container's pattern_set_id names."""
    try:
        return _BUILDERS[set_id]()
    except KeyError:
        raise ValueError(f"unknown pattern set id {set_id}") from None


def classify(chunk: int, pset: PatternSet) -> int | None:
    """Index of the dictionary entry bit-equal to chunk, or None."""
    return pset.patterns.index(chunk) if chunk in pset.patterns else None


def classify_chunks(chunks: np.ndarray, pset: PatternSet) -> np.ndarray:
    """Vectorized classify: int64 indices, -1 where nothing matches.

    Binary search against the sorted dictionary, mapped back to declaration
    order so results agree with classify() exactly.
    """
    arr = np.ascontiguousarray(chunks, dtype=np.uint32)
    pos = np.searchsorted(pset._sorted_values, arr)
    np.minimum(pos, len(pset._sorted_values) - 1, out=pos)
    hit = pset._sorted_values[pos] == arr
    idx = pset._sorted_to_index[pos]
    del pos
    idx[~hit] = -1
    return idx
