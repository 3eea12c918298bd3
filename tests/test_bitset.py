import itertools
import random

import pytest

from graphbao.bitset import bit_list, gather_lanes, iter_bits, read_map
from oracles import bit_slice, gather, gather_many, lane_preimages


def test_bit_slices():
    for n in range(40):
        for k in range(7):
            assert bit_slice(k, n) == sum(1 << b for b in range(n) if b >> k & 1)


def test_bit_list_matches_iter_bits():
    rng = random.Random(24)
    masks = [0, 1, 2, 1 << 200] + [rng.getrandbits(rng.randrange(1, 3000)) for _ in range(50)]
    for mask in masks:
        assert bit_list(mask) == list(iter_bits(mask))


def test_gather_short_tables():
    assert gather_many((), [0b101], 3) == [0]
    assert gather_many((2,), [0b101, 0b011], 3) == [1, 0]
    assert gather_many((1,), [0b101], 3) == [0]
    assert gather_many((2, 0, 1), [0b101], 3) == [0b011]


def test_gather_lanes_short_tables():
    # bytes() of a bare int would give that many zero bytes
    assert gather_lanes((), b"\x05\x07\x01") == b""
    assert gather_lanes((2,), b"\x05\x07\x01") == b"\x01"
    assert gather_lanes((1,), b"\x05\x07") == b"\x07"
    assert gather_lanes((2, 0, 1), b"\x05\x07\x01") == b"\x01\x05\x07"


def test_read_map_constant_and_empty_maps():
    assert read_map(lane_preimages(lambda xs: [0b111] * len(xs), 3), 3, 1) == (0, 0, 0)
    assert read_map(lane_preimages(lambda xs: [0] * len(xs), 0), 0, 5) == ()


@pytest.mark.parametrize("ntgt", [0, 1, 2, 5, 256, 300])
def test_read_map_of_no_items(ntgt):
    calls = []

    def preimages(lanes):
        calls.append(lanes)
        return b""

    assert read_map(preimages, 0, ntgt) == ()
    assert len(calls) == -(-max(ntgt - 1, 0).bit_length() // 8)
    if calls:
        with pytest.raises(RuntimeError, match=r"outside range\(0\)"):
            read_map(lambda lanes: b"\x00", 0, ntgt)


def test_read_map_rejects_bits_outside_the_source():
    with pytest.raises(RuntimeError, match="outside range"):
        read_map(lane_preimages(lambda xs: [1 << 5] * len(xs), 5), 5, 4)


def test_read_map_rejects_values_outside_the_target():
    # every slice answers "all items", so each item decodes to 3, not below 3
    with pytest.raises(RuntimeError, match="outside range"):
        read_map(lane_preimages(lambda xs: [0b11] * len(xs), 2), 2, 3)


def test_read_map_needs_a_target():
    with pytest.raises(RuntimeError):
        read_map(lane_preimages(lambda xs: [0] * len(xs), 2), 2, 0)


def test_gather_many_matches_gather():
    # widths either side of a byte, short tables, batches around 8 lanes;
    # each lane holds its own random element, so swapped lanes show
    rng = random.Random(10)
    for width, length, count in itertools.product([7, 8, 9], [0, 1, 2, 11],
                                                  [0, 1, 7, 8, 9, 17]):
        table = [rng.randrange(width) for _ in range(length)]
        xs = [rng.getrandbits(width) for _ in range(count)]
        expected = [gather(table, x, width) for x in xs]
        assert gather_many(table, xs, width) == expected, (width, length, count)
