"""Helpers for int-backed bitsets. Bit k of a mask stands for item k.

An atom map f: range(nsrc) -> range(ntgt) acts on bitsets by preimage: the
gather of x through f's table is {a : f(a) in x}.  gather_lanes is the one
gather kernel.  It works on a lane string: byte b of the string holds bit b
of the j-th of up to 8 elements as its bit j (lane j), so gathering the
bytes moves all 8 lanes at once.  lanewise runs a lane kernel on a list of
elements, and read_map inverts a lane kernel, recovering f from any kernel
that computes its preimages and decoding f straight from the answer bytes.

Packing and unpacking are one transpose.  Read as one little-endian
integer, each 64-bit word of a buffer is an 8 x 8 bit matrix, and three
masked shift-and-swap rounds on the whole integer (Warren, Hacker's
Delight, 7-3) transpose every word at once.  With byte m of element j
written to byte j of word m, the transpose yields the lane string; applied
to a lane string it puts lane j into byte j of each word, so lane j is
every 8th byte from byte j.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import compress, count
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

# the rounds of an 8 x 8 bit transpose of a 64-bit word: swap the bits
# under mask with those `shift` above them.  No masked bit moves past bit
# 63 or comes from above it, so the rounds act on every word of a longer
# integer at once, given the masks repeated word by word.
_TRANSPOSE_ROUNDS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                     (28, 0x00000000F0F0F0F0))
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    """iter_bits' indices as a list, from one linear pass over the binary digits."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)))


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


@lru_cache(maxsize=16)  # one entry per table size in use
def _transpose_masks(words: int) -> tuple[tuple[int, int, int], ...]:
    """(shift, mask, kept bits) per transpose round, repeated over words."""
    every = ((1 << 64 * words) - 1) // ((1 << 64) - 1)  # bit 0 of each word
    return tuple((shift, mask * every, (~(mask | mask << shift) & (1 << 64) - 1) * every)
                 for shift, mask in _TRANSPOSE_ROUNDS)


def _transpose(value: int, words: int) -> int:
    """value with each of its `words` 64-bit words transposed as an 8 x 8
    bit matrix (byte i, bit j to byte j, bit i); its own inverse."""
    for shift, mask, kept in _transpose_masks(words):
        value = value & kept | (value & mask) << shift | value >> shift & mask
    return value


def _lanes(xs: Sequence[int], width: int) -> bytes:
    """width bytes, byte b holding bit b of xs[j] as its bit j (len(xs) <= 8):
    byte m of xs[j] goes to byte j of word m, and the transpose moves its
    bit k to bit j of byte 8m + k."""
    words = -(-width // 8)
    buf = bytearray(8 * words)
    for j, x in enumerate(xs):
        buf[j::8] = x.to_bytes(words, "little")
    moved = _transpose(int.from_bytes(buf, "little"), words)
    return moved.to_bytes(8 * words, "little")[:width]


def gather_lanes(table: Sequence[int], lanes: bytes) -> bytes:
    """The lane string whose byte a is byte table[a] of lanes: all 8 lanes
    gathered through table at once."""
    if len(table) < 2:
        # itemgetter of no index raises, and of one returns a bare int,
        # which bytes() would read as a length
        return bytes(lanes[a] for a in table)
    return bytes(itemgetter(*table)(lanes))


def lanewise(kernel: Callable[[bytes], bytes], xs: Sequence[int], width: int) -> list[int]:
    """kernel on each element of xs: up to 8 elements at a time are packed
    into one lane string of width bytes (width is at least every x's bit
    length), and the answer is transposed word by word and read lane by lane."""
    out = []
    for start in range(0, len(xs), 8):
        chunk = xs[start:start + 8]
        answer = kernel(_lanes(chunk, width))
        words = -(-len(answer) // 8)
        by_lane = _transpose(int.from_bytes(answer, "little"), words).to_bytes(8 * words, "little")
        out += [int.from_bytes(by_lane[j::8], "little") for j in range(len(chunk))]
    return out


@lru_cache(maxsize=16)  # read_map asks for the same few strings map after map
def _slice_lanes(byte: int, ntgt: int) -> bytes:
    """Slices 8 * byte .. 8 * byte + 7 of range(ntgt) as one lane string:
    slice k, in lane k % 8, is the set of b < ntgt with bit k set, so byte b
    of the string is byte `byte` of b."""
    return bytes(b >> 8 * byte & 255 for b in range(ntgt))


def read_map(preimages: Callable[[bytes], bytes], nsrc: int, ntgt: int) -> tuple[int, ...]:
    """The map f: range(nsrc) -> range(ntgt) whose preimage operator is given.

    preimages works on lane strings: it maps the lane string of up to 8
    elements of range(ntgt) to the lane string of their preimages.  Bit k of
    f(a) is bit a of the preimage of slice k, the set of b < ntgt with bit k
    set, so ceil(log2(ntgt)) slices determine f; read_map asks for them in
    one call per 8 slices, slices 8m .. 8m + 7 in call m.  Byte a of the
    answer to call m is then byte m of f(a), and the answers are interleaved
    into fixed-width little-endian slots that array reads as one integer per
    item.

    Raises RuntimeError when an answer is not nsrc bytes long (it has bits
    outside range(nsrc)) or a decoded value is not below ntgt: then
    preimages is no preimage operator of a map into range(ntgt).
    """
    nbits = max(ntgt - 1, 0).bit_length()
    typecode = next(t for t in "BHILQ" if array(t).itemsize * 8 >= nbits)
    slot = array(typecode).itemsize
    buf = bytearray(nsrc * slot)
    for byte in range(-(-nbits // 8)):
        answer = preimages(_slice_lanes(byte, ntgt))
        if len(answer) != nsrc:
            raise RuntimeError(f"preimage has bits outside range({nsrc})")
        buf[byte::slot] = answer
    decoded = array(typecode, buf)
    if sys.byteorder == "big":
        decoded.byteswap()
    values = tuple(decoded)  # max runs faster over a tuple's ints than over an array
    # the last answer holds each f(a)'s top byte: only a tie with ntgt - 1's needs the max
    if values and (not nbits or max(answer) >= (ntgt - 1) >> 8 * byte) and max(values) >= ntgt:
        raise RuntimeError(f"decoded an atom index outside range({ntgt})")
    return values
