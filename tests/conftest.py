import gc
import tracemalloc

import numpy as np
import numpy.random  # noqa: F401 (see peak)
import pytest

from gpmc import BitMatrix, pattern_set

# Hand-written 16-vertex sample graph: 12 structured rows (dense runs,
# strides, wrapped diagonals), remaining rows empty. Mixes matched and
# unmatched chunks under every pattern set.
SAMPLE_ROWS = [
    "1111000000000000",
    "0000111100000000",
    "0000000011110000",
    "0000000000001111",
    "1000100010001000",
    "0100010001000100",
    "0010001000100010",
    "0001000100010001",
    "1000010000100001",
    "0100001000011000",
    "0010000101000010",
    "0001100010000100",
]


def build_sample_matrix() -> BitMatrix:
    n = 16
    bits = np.zeros(n * n, dtype=np.uint8)
    for i, row in enumerate(SAMPLE_ROWS):
        for j, ch in enumerate(row):
            bits[i * n + j] = ch == "1"
    return BitMatrix.from_bit_array(n, [bits])


def chunk_popcounts(chunks: np.ndarray) -> np.ndarray:
    """Popcount per uint32 chunk, computed independently of the codec."""
    as_bytes = np.ascontiguousarray(chunks, dtype=np.uint32).astype(">u4")
    bits = np.unpackbits(as_bytes.view(np.uint8)).reshape(-1, 32)
    return bits.sum(axis=1)


def peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call above what was live before it.
    numpy imports numpy.random at the first default_rng, so it is imported above: its
    module objects would otherwise fall in the window of whichever test draws first."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def set1():
    return pattern_set(1)


@pytest.fixture(scope="session")
def set2():
    return pattern_set(2)


@pytest.fixture(scope="session")
def set3():
    return pattern_set(3)


@pytest.fixture(scope="session")
def all_sets(set1, set2, set3):
    return (set1, set2, set3)


@pytest.fixture(scope="session")
def sample_matrix():
    return build_sample_matrix()
