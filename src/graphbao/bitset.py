"""Helpers for int-backed bitsets. Bit k of a mask stands for item k."""

from __future__ import annotations

from typing import Iterable, Iterator


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
