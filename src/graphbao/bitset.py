"""Helpers for int-backed bitsets. Bit k of a mask stands for item k.

An atom map f: range(nsrc) -> range(ntgt) acts on bitsets by preimage: the
gather of x through f's table is {a : f(a) in x}.  gather_many computes it
for a list of elements, and read_map inverts it, recovering f from any
callable that computes its preimages.

gather_many moves up to 8 elements per itemgetter pass through a lane
string: byte b of the string holds bit b of the j-th element as its bit j
(lane j).  Gathering the bytes moves all 8 lanes at once.  Packing and
unpacking are one transpose.  Read as one little-endian integer, each 64-bit
word of a buffer is an 8 x 8 bit matrix, and three masked shift-and-swap
rounds on the whole integer (Warren, Hacker's Delight, 7-3) transpose every
word at once.  With byte m of element j written to byte j of word m, the
transpose yields the lane string; applied to the gathered lane string it
puts lane j into byte j of each word, so lane j is every 8th byte from
byte j.  read_map decodes its answers through the same layout.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

# the rounds of an 8 x 8 bit transpose of a 64-bit word: swap the bits
# under mask with those `shift` above them.  No masked bit moves past bit
# 63 or comes from above it, so the rounds act on every word of a longer
# integer at once, given the masks repeated word by word.
_TRANSPOSE_ROUNDS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                     (28, 0x00000000F0F0F0F0))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def gather_many(table: Sequence[int], xs: Sequence[int], width: int) -> list[int]:
    """Per element x of xs, the set whose bit a is bit table[a] of x, for
    a < len(table); width is at least every x's bit length and every table
    entry.  One itemgetter pass per 8 elements.

    Each chunk of 8 is packed into one lane string, gathered, transposed
    word by word and read back lane by lane; nothing is kept from one chunk
    to the next.
    """
    if len(table) < 2:
        # itemgetter of no index raises, and of one returns a bare item
        return [x >> table[0] & 1 if table else 0 for x in xs]
    get = itemgetter(*table)
    words = -(-len(table) // 8)
    out = []
    for start in range(0, len(xs), 8):
        chunk = xs[start:start + 8]
        moved = int.from_bytes(bytes(get(_lanes(chunk, width))), "little")
        by_lane = _transpose(moved, words).to_bytes(8 * words, "little")
        out += [int.from_bytes(by_lane[j::8], "little") for j in range(len(chunk))]
    return out


@lru_cache(maxsize=256)  # read_map asks for the same few slices map after map
def bit_slice(k: int, n: int) -> int:
    """The set {b < n : bit k of b is 1}."""
    half = 1 << k
    period = half << 1
    block = ((1 << half) - 1) << half  # the pattern over one period
    copies = ((1 << period * -(-n // period)) - 1) // ((1 << period) - 1)
    return block * copies & ((1 << n) - 1)


def read_map(preimages: Callable[[list[int]], list[int]], nsrc: int,
             ntgt: int) -> tuple[int, ...]:
    """The map f: range(nsrc) -> range(ntgt) whose preimage operator is given.

    preimages is batched: it maps a list of elements to the list of their
    preimages.  Bit k of f(a) is bit a of the preimage of bit_slice(k, ntgt),
    so ceil(log2(ntgt)) slices determine f; read_map asks for them in one
    call per 8 slices, slices 8m .. 8m + 7 in call m.  The answers of call m
    form one lane string (slice k in lane k % 8, so byte a is byte m of
    f(a)), and those strings are interleaved into fixed-width little-endian
    slots that array reads as one integer per item.

    Raises RuntimeError when an answer has a bit at or beyond nsrc or a
    decoded value is not below ntgt: then preimages is no preimage operator
    of a map into range(ntgt).  The values are compared with ntgt on the
    answers themselves, from the lowest bit up.
    """
    nbits = max(ntgt - 1, 0).bit_length()
    typecode = next(t for t in "BHILQ" if array(t).itemsize * 8 >= nbits)
    slot = array(typecode).itemsize
    buf = bytearray(nsrc * slot)
    # the items a with f(a) % 2**k >= ntgt % 2**k, k the slices read so far
    at_least = (1 << nsrc) - 1
    for byte in range(-(-nbits // 8)):
        slices = range(8 * byte, min(8 * byte + 8, nbits))
        answers = preimages([bit_slice(k, ntgt) for k in slices])
        if not all(0 <= a < 1 << nsrc for a in answers):
            raise RuntimeError(f"preimage has bits outside range({nsrc})")
        buf[byte::slot] = _lanes(answers, nsrc)
        for k, answer in zip(slices, answers):
            at_least = at_least & answer if ntgt >> k & 1 else at_least | answer
    if at_least and ntgt != 1 << nbits:  # a power of two bounds every value
        raise RuntimeError(f"decoded an atom index outside range({ntgt})")
    values = array(typecode, buf)
    if sys.byteorder == "big":
        values.byteswap()
    return tuple(values)
