"""Property test: read_map inverts gather on random maps."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphbao.bitset import gather, read_map  # noqa: E402

# 1, 2, 3 and 2^k, 2^k + 1 up to past 2^16, where slots grow to four bytes
TARGET_SIZES = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(1, 17).flatmap(lambda k: st.sampled_from([2 ** k, 2 ** k + 1])))


@st.composite
def maps(draw):
    ntgt = draw(TARGET_SIZES)
    f = draw(st.lists(st.integers(0, ntgt - 1), max_size=40))
    return tuple(f), ntgt


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
    assert read_map(lambda x: gather(f, x, ntgt), len(f), ntgt) == f
