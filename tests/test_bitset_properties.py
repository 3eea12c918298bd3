"""Property tests: gather_many agrees with the one-element oracle gather, and
read_map inverts it."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphbao.bitset import gather_many, read_map  # noqa: E402
from oracles import gather  # noqa: E402

# 1, 2, 3 and 2^k, 2^k + 1 up to past 2^16, where slots grow to four bytes
TARGET_SIZES = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(1, 17).flatmap(lambda k: st.sampled_from([2 ** k, 2 ** k + 1])))
# widths on either side of one and two bytes, and batch sizes around one and
# two chunks of 8 lanes
WIDTHS = st.one_of(st.sampled_from([1, 7, 8, 9, 15, 16, 17]), st.integers(1, 70))
BATCH_SIZES = st.one_of(st.sampled_from([0, 1, 7, 8, 9, 17]), st.integers(0, 20))


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

    def preimages(xs):
        calls.append(len(xs))
        return gather_many(f, xs, ntgt)

    assert read_map(preimages, len(f), ntgt) == f
    nbits = (ntgt - 1).bit_length()
    assert calls == [min(8, nbits - k) for k in range(0, nbits, 8)]
