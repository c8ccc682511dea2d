"""The encoder's window scatter against the decoder's window gather.

Every field is handled as the 33-bit window at its bit offset: its own
bits, then zeros up to 33 bits. Both sides find a field by one rule: the
32-bit word at offset >> 5 holds its first bit, and its window lies in that
word and the next, shifted by offset & 31. _split gives both from the
offsets, the shift as a uint8 first and then the word index in place over
the offsets, so no copy of them lives beside it; both sides take these in
place of the offsets. _scatter adds such windows, fields of 1 to 33 bits
back to back, into 32-bit words, in one call or block by block, and the same fields given
as values of their own width, as compress gives matched fields, to the same
words; _gather cuts the 33 bits at each offset out again from the 64-bit
windows _windows builds over the payload's words, one per word: that word,
then the next, the last one then zeros.
Each must undo the other, and the bits past the last field must stay zero,
since read_container rejects a payload with dirty padding. Neither of those
two changes an array it is given.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpmc.codec import _gather, _scatter, _split, _windows


@st.composite
def fields(draw):
    """(widths, values): fields of 1 to 33 bits, each value below 2**width."""
    widths = draw(st.lists(st.integers(1, 33), min_size=1, max_size=300))
    return widths, [draw(st.integers(0, (1 << w) - 1)) for w in widths]


@settings(max_examples=300, deadline=None)
@given(fields(), st.integers(1, 300))
@example(([31, 33], [(1 << 31) - 1, (1 << 33) - 1]), 1)  # a 33-bit field at bit 31; 64 bits
@example(([31, 33, 1], [0, (1 << 33) - 1, 1]), 2)  # 65 bits
@example(([31], [(1 << 31) - 1]), 300)  # 31 bits
@example(([33] * 32, [(1 << 33) - 1] * 32), 7)  # every 33-bit field crosses a word
@example(([1], [1]), 300)
# payloads of 5, 6, 7 and 8 bytes (1, 2, 3 and 0 mod 4) whose last field starts in the
# last word and ends on the final payload bit, so its window reaches the zero tail
@example(([33, 7], [(1 << 33) - 1, 127]), 1)
@example(([33, 15], [(1 << 33) - 1, (1 << 15) - 1]), 2)
@example(([33, 23], [(1 << 33) - 1, (1 << 23) - 1]), 300)
@example(([32, 32], [(1 << 32) - 1, (1 << 32) - 1]), 1)
def test_gather_undoes_scatter(case, block):
    # block: fields per _scatter call
    widths, values = np.array(case[0], dtype=np.int64), case[1]
    offsets = np.cumsum(widths) - widths
    nbits = int(widths.sum())
    windows = np.array([v << (33 - w) for v, w in zip(values, case[0])], dtype=np.uint64)
    words = np.zeros(nbits // 32 + 2, dtype=np.uint32)
    given = offsets.copy()
    at, shift = _split(given)
    assert at is given  # the word indices are the offsets, cut in place
    assert at.tolist() == (offsets >> 5).tolist() and shift.tolist() == (offsets & 31).tolist()
    assert shift.dtype == np.uint8
    held = at.copy(), shift.copy(), windows.copy()
    for s in range(0, len(values), block):
        _scatter(words, at[s : s + block], shift[s : s + block], windows[s : s + block], 33)
    assert all(np.array_equal(a, b) for a, b in zip((at, shift, windows), held))
    assert not words[-(-nbits // 32) :].any()  # nothing written past the last field
    by_width = np.zeros_like(words)
    for w in set(case[0]):
        _scatter(by_width, at[widths == w], shift[widths == w],
                 np.array(values, np.uint64)[widths == w], w)
    assert by_width.tolist() == words.tolist()
    payload = words.astype(">u4").tobytes()[: (nbits + 7) // 8]
    assert len(payload) == (nbits + 7) // 8
    padding = 8 * len(payload) - nbits
    assert int.from_bytes(payload, "big") & ((1 << padding) - 1) == 0
    # and bit for bit, the fields written one after another
    expected = "".join(format(v, f"0{w}b") for v, w in zip(values, case[0])) + "0" * padding
    assert payload == int(expected, 2).to_bytes(len(payload), "big")
    # each gathered window is the 33 bits from its offset, zeros past the payload,
    # so its top bits are the field
    gathered = _gather(_windows(payload).take(at), shift).tolist()
    assert all(np.array_equal(a, b) for a, b in zip((at, shift), held))
    bits = expected + "0" * 33
    assert gathered == [int(bits[o : o + 33], 2) for o in offsets.tolist()]
    assert [g >> (33 - w) for g, w in zip(gathered, case[0])] == values
