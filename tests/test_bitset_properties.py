"""Property tests: the lane packer agrees with the digit-string packer,
gather_lanes and gather_many agree with the one-element oracle gather, and
read_map inverts gather_lanes."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphbao.bitset import _lanes, gather_lanes, read_map  # noqa: E402
from oracles import (bit_slice, gather, gather_many, lane_preimages,  # noqa: E402
                     lanes_by_digits)

# 1, 2, 3 and 2^k, 2^k + 1 up to past 2^16, where slots grow to four bytes
TARGET_SIZES = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(1, 17).flatmap(lambda k: st.sampled_from([2 ** k, 2 ** k + 1])))
# widths on either side of one and two bytes, and batch sizes around one and
# two chunks of 8 lanes
WIDTHS = st.one_of(st.sampled_from([1, 7, 8, 9, 15, 16, 17]), st.integers(1, 70))
BATCH_SIZES = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 17]), st.integers(0, 20))


# no byte, one bit, either side of one byte and of one word, and a few
# thousand bits, as in an atom structure's elements
LANE_WIDTHS = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]), st.integers(2000, 5000))


@st.composite
def lane_chunks(draw):
    width = draw(LANE_WIDTHS)
    count = draw(st.integers(0, 8))
    xs = draw(st.lists(st.integers(0, 2 ** width - 1), min_size=count, max_size=count))
    return xs, width


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(lane_chunks())
def test_lanes_match_digit_packer(case):
    # each lane holds its own element, so a lane packed in the wrong place,
    # or a transpose round left out, differs from the digit strings
    xs, width = case
    assert _lanes(xs, width) == lanes_by_digits(xs, width)


@st.composite
def maps(draw):
    ntgt = draw(TARGET_SIZES)
    f = draw(st.lists(st.integers(0, ntgt - 1), max_size=40))
    return tuple(f), ntgt


@st.composite
def batches(draw):
    width = draw(WIDTHS)
    entries = st.integers(0, width - 1)
    table = draw(st.one_of(st.lists(entries, max_size=2), st.lists(entries, max_size=60)))
    count = draw(BATCH_SIZES)
    xs = draw(st.lists(st.integers(0, 2 ** width - 1), min_size=count, max_size=count))
    return tuple(table), xs, width


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(batches())
def test_gather_many_matches_gather(case):
    # every lane holds its own random element, so a lane read back in the
    # wrong place or order differs from the single gather
    table, xs, width = case
    assert gather_many(table, xs, width) == [gather(table, x, width) for x in xs]


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(batches())
def test_gather_lanes_matches_gather(case):
    # on at most 8 elements, packed and read back by the digit-string oracle
    table, xs, width = case
    xs = xs[:8]
    expected = lanes_by_digits([gather(table, x, width) for x in xs], len(table))
    assert gather_lanes(table, lanes_by_digits(xs, width)) == expected


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.example(((), 1))
@hypothesis.example(((0, 0), 1))
@hypothesis.example(((1, 0, 1), 2))
@hypothesis.example(((2, 0, 1, 2), 3))
@hypothesis.example(((255, 0, 128), 256))
@hypothesis.example(((256, 255, 0), 257))
@hypothesis.example(((70_000, 65_536, 65_535, 0, 12_345), 70_001))
@hypothesis.given(maps())
def test_read_map_inverts_gather(case):
    f, ntgt = case
    calls = []

    def preimages(lanes):
        calls.append(max(lanes, default=0).bit_length())  # the lanes in use
        return gather_lanes(f, lanes)

    assert read_map(preimages, len(f), ntgt) == f
    nbits = (ntgt - 1).bit_length()
    assert calls == [min(8, nbits - k) for k in range(0, nbits, 8)]


@st.composite
def decodable_maps(draw):
    # any values the slices of ntgt can spell, in range or not
    ntgt = draw(st.one_of(st.integers(0, 300), TARGET_SIZES))
    top = 1 << max(ntgt - 1, 0).bit_length()
    f = draw(st.lists(st.integers(0, top - 1), max_size=40))
    return tuple(f), ntgt


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.example(((3, 0), 3))
@hypothesis.example(((0,), 0))
@hypothesis.example(((3, 2), 4))
@hypothesis.given(decodable_maps())
def test_read_map_rejects_exactly_the_values_outside_the_target(case):
    # the answer to slice k is the set of items whose value has bit k, so
    # the values decode as they are and only their range decides
    f, ntgt = case
    slice_of = {bit_slice(k, ntgt): k for k in range(max(ntgt - 1, 0).bit_length())}

    def preimages(xs):
        return [sum(1 << a for a, v in enumerate(f) if v >> slice_of[x] & 1) for x in xs]

    lanes = lane_preimages(preimages, len(f))
    if any(v >= ntgt for v in f):
        with pytest.raises(RuntimeError, match="outside range"):
            read_map(lanes, len(f), ntgt)
    else:
        assert read_map(lanes, len(f), ntgt) == f
