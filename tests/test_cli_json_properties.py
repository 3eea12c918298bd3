"""Property tests: on arbitrary config, graph and chain JSON, the CLI exits
0, 1 or 2, prints exactly one `error:` line on exit 2 and never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphbao import cli  # noqa: E402

SCALARS = (st.none() | st.booleans() | st.integers(-2, 40) | st.text(max_size=5)
           | st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=5), kids, max_size=3), max_leaves=8)
CONFIGS = st.dictionaries(st.sampled_from(sorted(cli.DEFAULTS)) | st.text(max_size=5),
                          st.integers(-1, 6) | st.sampled_from(["json", "text"])
                          | JSON_VALUES, max_size=4)
VERTICES = st.lists(st.integers(-1, 2), max_size=3)
GRAPHS = st.fixed_dictionaries({
    "vertices": st.integers(-1, 2) | JSON_VALUES,
    "edges": st.lists(st.lists(st.integers(-1, 2), max_size=3), max_size=2) | JSON_VALUES})
CHAINS = st.fixed_dictionaries({
    "stages": st.lists(GRAPHS | JSON_VALUES, max_size=3) | JSON_VALUES,
    "steps": st.lists(VERTICES | JSON_VALUES, max_size=2) | JSON_VALUES})
ONE_VERTEX = {"vertices": 1, "edges": []}


def run_on_document(document, *argv):
    """Run the CLI with `document` written to a file that replaces FILE."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(document))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path) if arg == "FILE" else arg for arg in argv])
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    if code == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert code in (0, 1) and out and err == ""


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.example([[1]])
@hypothesis.example(5)
@hypothesis.example(["n"])
@hypothesis.example({"output": "json", "n": 4})
@hypothesis.given(JSON_VALUES | CONFIGS)
def test_config_file_exits_cleanly_on_any_document(document):
    assert_clean_exit(*run_on_document(document, "graph", "chi", "K1", "--config", "FILE"))


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.example({"vertices": 2, "edges": [[0, 1], [1, 0]]})
@hypothesis.given(JSON_VALUES | GRAPHS)
def test_graph_file_exits_cleanly_on_any_document(document):
    assert_clean_exit(*run_on_document(document, "graph", "chi", "FILE"))


@hypothesis.settings(max_examples=80, deadline=None, database=None)
@hypothesis.example({"stages": [ONE_VERTEX] * 2, "steps": [[0]]})
@hypothesis.example({"stages": [ONE_VERTEX] * 2, "steps": [[1]]})
@hypothesis.example({"stages": [ONE_VERTEX, {"vertices": 2, "edges": []}], "steps": [[0]]})
@hypothesis.given(JSON_VALUES | CHAINS)
def test_chain_file_exits_cleanly_on_any_document(document):
    assert_clean_exit(*run_on_document(document, "dual", "check-chain", "FILE",
                                       "--atom-bound", "100", "--samples", "10"))
