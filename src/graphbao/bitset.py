"""Helpers for int-backed bitsets. Bit k of a mask stands for item k.

An atom map f: range(nsrc) -> range(ntgt) acts on bitsets by preimage:
gather(f, x, ntgt) is {a : f(a) in x}.  read_map inverts that, recovering f
from any callable that computes its preimages.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

_ONE_BYTE = bytes.maketrans(b"01", b"\x00\x01")


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


def gather(table: Sequence[int], x: int, width: int) -> int:
    """Bit a of the result is bit table[a] of x, for a < len(table).

    width is at least x's bit length and every table entry; the gather is
    one C-level itemgetter call over the bit string of x.
    """
    if len(table) < 2:
        # itemgetter of no index raises, and of one returns a bare item
        return x >> table[0] & 1 if table else 0
    bits = format(x, f"0{width}b")[::-1]  # bits[b] is bit b of x
    return int("".join(itemgetter(*table)(bits))[::-1], 2)


@lru_cache(maxsize=256)  # read_map asks for the same few slices map after map
def bit_slice(k: int, n: int) -> int:
    """The set {b < n : bit k of b is 1}."""
    half = 1 << k
    period = half << 1
    block = ((1 << half) - 1) << half  # the pattern over one period
    copies = ((1 << period * -(-n // period)) - 1) // ((1 << period) - 1)
    return block * copies & ((1 << n) - 1)


def read_map(preimage: Callable[[int], int], nsrc: int, ntgt: int) -> tuple[int, ...]:
    """The map f: range(nsrc) -> range(ntgt) whose preimage operator is given.

    Bit k of f(a) is bit a of preimage(bit_slice(k, ntgt)), so
    ceil(log2(ntgt)) calls determine f.  Each answer becomes one byte per
    item (bit k % 8 set or not), the bytes of every 8 slices are ORed into
    one byte string, and those strings are interleaved into fixed-width
    little-endian slots that array reads as one integer per item.

    Raises RuntimeError when an answer has a bit at or beyond nsrc or a
    decoded value is not below ntgt: then preimage is no preimage operator
    of a map into range(ntgt).
    """
    nbits = max(ntgt - 1, 0).bit_length()
    typecode = next(t for t in "BHILQ" if array(t).itemsize * 8 >= nbits)
    slot = array(typecode).itemsize
    buf = bytearray(nsrc * slot)
    for byte in range(-(-nbits // 8)):
        acc = 0
        for k in range(8 * byte, min(8 * byte + 8, nbits)):
            answer = preimage(bit_slice(k, ntgt))
            if not 0 <= answer < 1 << nsrc:
                raise RuntimeError(f"preimage has bits outside range({nsrc})")
            # byte a of the big-endian read of the bit string is item a
            digits = format(answer, f"0{nsrc}b").encode().translate(_ONE_BYTE)
            acc |= int.from_bytes(digits, "big") << k % 8
        buf[byte::slot] = acc.to_bytes(nsrc, "little")
    values = array(typecode, buf)
    if sys.byteorder == "big":
        values.byteswap()
    if nsrc and max(values) >= ntgt:
        raise RuntimeError(f"decoded an atom index outside range({ntgt})")
    return tuple(values)
