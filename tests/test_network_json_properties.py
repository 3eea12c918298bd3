"""Property test: `net validate` and `net boundary` on arbitrary network JSON
exit 0, 1 or 2 with at most one error line and never a traceback, and
agree on the exit code (the boundary of a valid network is defined); on
exit 0 the label keys name every tuple of the nodes once."""

import contextlib
import copy
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphbao import ags, cli, networks  # noqa: E402
from graphbao.graph import complete_graph  # noqa: E402


def _game_networks():
    """Valid K1 networks on one, two and three nodes, as JSON documents."""
    collected = []
    networks.exists_survives(ags.build_model(complete_graph(1), 3), 2, collect=collected)
    firsts = {len(net.nodes): net for net in reversed(collected)}
    return [networks.network_to_json(firsts[k]) for k in sorted(firsts)]


NETWORKS = _game_networks()
SCALARS = (st.none() | st.booleans() | st.integers(-2, 40) | st.text(max_size=5)
           | st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=5), kids, max_size=3), max_leaves=8)
LABEL_KEYS = st.text(max_size=7) | st.lists(st.integers(-1, 3), min_size=1, max_size=4).map(
    lambda t: ",".join(map(str, t)))
LABEL_VALUES = st.integers(-1, 40) | JSON_VALUES
SHAPED = st.fixed_dictionaries({
    "n": JSON_VALUES,
    "nodes": st.lists(st.integers(-1, 3), max_size=4) | JSON_VALUES,
    "labels": st.dictionaries(LABEL_KEYS, LABEL_VALUES, max_size=30) | JSON_VALUES})


@st.composite
def mutated_networks(draw):
    """A valid game network with a few labels changed, dropped or added."""
    doc = copy.deepcopy(draw(st.sampled_from(NETWORKS)))
    labels = doc["labels"]
    for key in draw(st.lists(st.sampled_from(sorted(labels)), max_size=3)):
        if draw(st.booleans()):
            labels[key] = draw(LABEL_VALUES)
        else:
            labels.pop(key, None)
    labels.update(draw(st.dictionaries(LABEL_KEYS, LABEL_VALUES, max_size=2)))
    if draw(st.booleans()):
        doc["nodes"] = draw(st.lists(st.integers(-1, 3), max_size=4))
    return doc


class RawJson(str):
    """A document given as JSON text, for what a dict cannot hold."""


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.example(NETWORKS[-1])
@hypothesis.example({"n": 3, "nodes": [0, 0, 0, 0], "labels": {"0,0,0": 0}})
@hypothesis.example({"nodes": [0], "labels": {"0,0,0": 0, "5,5,5": 3}})
@hypothesis.example({"nodes": [0], "labels": {"0,0,0": 5, " 0,0,0": 0}})
@hypothesis.example(RawJson('{"nodes": [0], "labels": {"0,0,0": 5, "0,0,0": 0}}'))
@hypothesis.given(JSON_VALUES | SHAPED | mutated_networks())
def test_net_verbs_exit_cleanly_on_any_document(document):
    text = document if isinstance(document, RawJson) else json.dumps(document)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(text)
        codes = set()
        for verb in ("validate", "boundary"):
            code, out, err = run("net", verb, str(path), "--graph", "K1")
            if code == 2:
                assert out == "" and err.startswith("error:") and err.count("\n") == 1
            else:
                assert code in (0, 1) and out and err == ""
            codes.add(code)
        assert len(codes) == 1
        if codes == {0}:
            # a valid network labels each tuple of its nodes exactly once,
            # counting every raw key of the text (each object read as pairs)
            document = dict(json.loads(text, object_pairs_hook=list))
            keys = [tuple(map(int, key.split(","))) for key, _ in document["labels"]]
            assert sorted(keys) == sorted(itertools.product(document["nodes"], repeat=3))
