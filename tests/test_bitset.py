import pytest

from graphbao.bitset import bit_slice, gather, read_map


def test_bit_slices():
    for n in range(40):
        for k in range(7):
            assert bit_slice(k, n) == sum(1 << b for b in range(n) if b >> k & 1)


def test_gather_short_tables():
    assert gather((), 0b101, 3) == 0
    assert gather((2,), 0b101, 3) == 1
    assert gather((1,), 0b101, 3) == 0
    assert gather((2, 0, 1), 0b101, 3) == 0b011


def test_read_map_constant_and_empty_maps():
    assert read_map(lambda x: 0b111, 3, 1) == (0, 0, 0)
    assert read_map(lambda x: 0, 0, 5) == ()


def test_read_map_rejects_bits_outside_the_source():
    with pytest.raises(RuntimeError, match="outside range"):
        read_map(lambda x: 1 << 5, 5, 4)


def test_read_map_rejects_values_outside_the_target():
    # every slice answers "all items", so each item decodes to 3, not below 3
    with pytest.raises(RuntimeError, match="outside range"):
        read_map(lambda x: 0b11, 2, 3)


def test_read_map_needs_a_target():
    with pytest.raises(RuntimeError):
        read_map(lambda x: 0, 2, 0)
