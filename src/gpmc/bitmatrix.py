"""Bit-packed adjacency matrices, edge-list ingestion, and synthetic generators.

Matrices are square (n x n) and stored as a row-major bit sequence packed
MSB-first into bytes: bit i*n + j is 1 iff edge (i, j) exists. Instances are
immutable after construction and safe for concurrent reads; the generators
are pure functions of their arguments.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

_PACK_BLOCK_BITS = 1 << 16  # bits generate_er draws at a time; a multiple of 8
_ROW_BLOCK_BITS = 1 << 18  # bits a row block grows to, up to an eighth of the rows (row_block)
PIECE_ROWS = 32  # rows of a row block that the codec holds at one byte per bit; a multiple of 8


class ParseError(ValueError):
    """Malformed edge-list text; the message carries the line number."""


class EdgeRangeError(ValueError):
    """Edge endpoint not an integer in [0, n)."""


@dataclass
class EdgeList:
    """Directed edges as (u, v) pairs over vertices 0..n-1.

    Duplicates and self-loops are permitted; they collapse to a single set
    bit when the list is materialized.
    """

    n: int
    edges: list[tuple[int, int]] = field(default_factory=list)


def row_block(n: int) -> int:
    """Rows per block of an n x n matrix: decompress and scan_stats take each block's
    fields in one pass, unpacking PIECE_ROWS rows at a time, and size their per-field
    temporaries by the block; compress takes as many rows or fewer, to hold at most 2^20
    bits (codec._encode_rows), and only edges() unpacks a whole block. A 32nd of the rows,
    or more, up to an eighth of them, to hold _ROW_BLOCK_BITS bits, rounded up to a
    multiple of 8 rows, so every block but the last is a whole number of bytes."""
    rows = max(-(-n // 32), min(-(-_ROW_BLOCK_BITS // n), -(-n // 8)))
    return -(-rows // 8) * 8


def _zeroed(n: int) -> io.BytesIO:
    """An n x n matrix's zeroed bytes, which every constructor fills in place (an array over
    getbuffer() must go before that view's release, which refuses) and CPython's BytesIO then
    hands over as bytes without a copy. A matrix past memory fails here, naming n."""
    try:
        return io.BytesIO(bytes((n * n + 7) // 8))
    except (MemoryError, OverflowError):  # bytes() names no n, and overflows past the address space
        raise MemoryError(f"a matrix of n={n} vertices needs {(n * n + 7) // 8} bytes") from None


class BitMatrix:
    """Immutable n x n bit matrix; bit (i*n + j) = 1 iff edge (i, j) exists."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: bytes | None = None):
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        # bytes stay uncopied; a non-buffer, as an int bytes() takes as a size, raises TypeError
        packed = (_zeroed(n).getvalue() if data is None
                  else data if type(data) is bytes else bytes(memoryview(data)))
        nbytes = (n * n + 7) // 8
        if len(packed) != nbytes:
            raise ValueError(f"expected {nbytes} packed bytes for n={n}, got {len(packed)}")
        tail = (n * n) % 8
        if tail and packed[-1] & ((1 << (8 - tail)) - 1):
            # mask stray bits past n*n so equality stays canonical
            packed = packed[:-1] + bytes([packed[-1] & (0xFF << (8 - tail)) & 0xFF])
        self.n = n
        self.data = packed

    @classmethod
    def zeros(cls, n: int) -> "BitMatrix":
        return cls(n)

    @classmethod
    def from_bit_array(cls, n: int, blocks) -> "BitMatrix":
        """Build from n*n bits in row-major order, held in turn by an iterable of 0/1 arrays
        of any shape, each but the last a whole number of bytes: a generator of row blocks
        needs only one of them to exist at a time, and one array of all bits is [bits].
        Each is packed MSB-first into the matrix's bytes as it arrives."""
        out, seen = _zeroed(n), 0
        for block in blocks:
            if seen % 8:
                raise ValueError(f"a block before the last ends at bit {seen}, not on a byte")
            block = np.asarray(block, np.uint8).reshape(-1)
            seen += block.size
            if seen > n * n:
                break
            out.write(np.packbits(block))
            del block  # before the next one is made
        if seen != n * n:
            raise ValueError(f"expected {n * n} bits, got {seen}")
        return cls(n, out.getvalue())

    def bit_array(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Row-major 0/1 uint8 array of rows start to stop (as a slice takes them), n bits
        each, unpacked from only the bytes that hold them; all n*n bits by default."""
        n = self.n
        start, stop, _ = slice(start, stop).indices(n)
        lo, hi = start * n, max(start, stop) * n
        src = np.frombuffer(self.data, dtype=np.uint8)[lo >> 3 : (hi + 7) >> 3]
        return np.unpackbits(src, count=(lo & 7) + hi - lo)[lo & 7 :]

    def get(self, i: int, j: int) -> int:
        """Bit at row i, column j; constant time."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"index ({i}, {j}) out of range for n={n}")
        idx = i * n + j
        return (self.data[idx >> 3] >> (7 - (idx & 7))) & 1

    def popcount(self) -> int:
        """Number of set bits (edges)."""
        return int.from_bytes(self.data, "big").bit_count()

    def edges(self):
        """Yield set bits as (i, j) pairs in row-major order, a row block at a time."""
        n, step = self.n, row_block(self.n)
        for start in range(0, n, step):
            for flat in (np.flatnonzero(self.bit_array(start, start + step)) + start * n).tolist():
                yield divmod(flat, n)

    def __eq__(self, other):
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.n == other.n and self.data == other.data

    def __hash__(self):
        return hash((self.n, self.data))

    def __repr__(self):
        return f"BitMatrix(n={self.n}, edges={self.popcount()})"


def _int_pair(edge) -> tuple[int, int]:
    """The edge if it is two int64 endpoints, else (-1, -1), which no n admits."""
    try:
        return tuple(array("q", edge)) if len(edge) == 2 else (-1, -1)
    except (TypeError, OverflowError):
        return -1, -1


def from_edge_list(el: EdgeList) -> BitMatrix:
    """Materialize an edge list; duplicate edges collapse to one bit."""
    n, edges = el.n, el.edges
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    # array("q") refuses floats and ints past int64; a flat read needs every edge to be a pair
    try:
        if set(map(len, edges)) - {2}:
            raise ValueError("not every edge is a pair")
        pairs = np.frombuffer(array("q", chain.from_iterable(edges)), np.int64)
    except (TypeError, ValueError, OverflowError):
        pairs = np.array([_int_pair(e) for e in edges], np.int64)
    pairs = pairs.reshape(-1, 2)
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        edge = ", ".join(map(str, edges[int(np.argmax(bad))]))
        raise EdgeRangeError(f"edge ({edge}) out of range for n={n}")
    flat = pairs[:, 0] * n + pairs[:, 1]
    out = _zeroed(n)
    with out.getbuffer() as view:  # OR: a byte may hold several edges, or one edge twice
        np.bitwise_or.at(np.frombuffer(view, np.uint8), flat >> 3,
                         (0x80 >> (flat & 7)).astype(np.uint8))
    return BitMatrix(n, out.getvalue())


def generate_er(n: int, p: float, seed: int) -> BitMatrix:
    """Random matrix where every bit is independently 1 with probability p.

    Deterministic for a given (n, p, seed) triple.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)  # the blocks draw from it in turn: one stream
    total, step = n * n, _PACK_BLOCK_BITS
    blocks = (rng.random(min(step, total - at)) < p for at in range(0, total, step))
    return BitMatrix.from_bit_array(n, blocks)


def generate_chunk_mix(n: int, f_zero: float = 0.0, f_single: float = 0.0,
                       f_pair: float = 0.0, seed: int = 0) -> BitMatrix:
    """Matrix whose 32-bit chunk census follows the given fractions exactly.

    f_zero, f_single and f_pair select all-zero chunks, chunks with a single
    1, and chunks with the leading bit plus one more 1. Class counts are
    round(f * total_chunks); the leftover chunks get exactly three 1 bits at
    distinct positions, which no dictionary entry can match. n must be a
    positive multiple of 32 so the fractions apply to whole chunks. Chunk
    placement is a seeded permutation, so the matrix looks unstructured
    while the census stays exact.
    """
    if n < 32 or n % 32 != 0:
        raise ValueError(f"n must be a positive multiple of 32, got {n}")
    fractions = (f_zero, f_single, f_pair)
    for name, f in zip(("f_zero", "f_single", "f_pair"), fractions):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {f}")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"chunk fractions sum to {sum(fractions)}, must be <= 1")

    total = n * n // 32
    n_zero, n_single, n_pair = (round(f * total) for f in fractions)
    n_filler = total - n_zero - n_single - n_pair
    if n_filler < 0:
        raise ValueError("rounded chunk counts exceed the total chunk count")

    out = _zeroed(n)  # before the draws, so a matrix too big for memory fails at once
    rng = np.random.default_rng(seed)  # uint32 draws take the int64 draws' stream
    with out.getbuffer() as view:  # every view of it must go before the block ends
        chunks = np.frombuffer(view, ">u4")  # led by the zero chunks, which it holds already
        singles, pairs, fillers = np.split(chunks[n_zero:], (n_single, n_single + n_pair))
        singles[:] = 1 << (31 - rng.integers(0, 32, size=n_single, dtype=np.uint32))
        pairs[:] = (1 << 31) | (1 << (31 - rng.integers(1, 32, size=n_pair, dtype=np.uint32)))
        # three distinct positions per filler chunk: draw from shrinking ranges and
        # shift past the positions already taken. A filler's bits do not depend on which
        # of the first two came first, so they are put in order in place
        p1 = rng.integers(0, 32, size=n_filler, dtype=np.uint32)
        p2 = rng.integers(0, 31, size=n_filler, dtype=np.uint32)
        p2 += p2 >= p1
        lo = np.minimum(p1, p2)
        hi = np.maximum(p1, p2, out=p2)
        del p1, p2
        p3 = rng.integers(0, 30, size=n_filler, dtype=np.uint32)
        p3 += p3 >= lo
        p3 += p3 >= hi
        for p in (lo, hi, p3):  # each position to its bit, in place, then into the fillers
            np.left_shift(np.uint32(1), np.subtract(np.uint32(31), p, out=p), out=p)
        np.bitwise_or(lo, hi, out=fillers)
        fillers |= p3
        rng.shuffle(chunks)  # in place, in the order permutation would give
        del chunks, singles, pairs, fillers, lo, hi, p3, p
    return BitMatrix(n, out.getvalue())


def _decimal(token: str) -> int:
    """An optional sign and ASCII digits as an int; int() alone also takes "_" between
    digits and the digits of other scripts, so a mistyped token would read as a number."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return int(token)


def parse_edge_list_text(text: str | bytes) -> EdgeList:
    """Parse edge-list text: a vertex-count line, then one "u v" line per edge.

    Blank lines and lines starting with '#' are ignored.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    # where no token can hold "_" or a digit of another script, int() reads each as it is
    number = int if text.isascii() and "_" not in text else _decimal
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ParseError(f"line {lineno}: expected vertex count, got {raw!r}")
            try:
                n = number(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[0]!r}") from None
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be >= 1, got {n}")
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = number(parts[0]), number(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint in {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeRangeError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    if n is None:
        raise ParseError("missing vertex-count header line")
    return EdgeList(n, edges)


def format_edge_list_text(m: BitMatrix) -> str:
    """Edge-list text for a matrix: n header, then sorted "u v" lines."""
    lines = [str(m.n)]
    lines.extend(f"{u} {v}" for u, v in m.edges())
    return "\n".join(lines) + "\n"
