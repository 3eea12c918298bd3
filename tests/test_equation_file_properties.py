"""Property test: on arbitrary equation file text, `bao check --axioms FILE`
exits 0, 1 or 2, prints exactly one `error:` line on exit 2 and never a
traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphbao import cli  # noqa: E402
from test_cli_json_properties import assert_clean_exit  # noqa: E402

# well-formed schemas with some bad indices and atoms, token soup, and text
HEADS = st.sampled_from(["A", "A forall i", "A forall i j | i!=j", "A forall i | i!=3",
                         "A | i", "A j", "", "forall"])
TERMS = st.recursive(
    st.sampled_from(["x", "y", "0", "1", "w", "(d i j)", "(d 0 3)", "()"]),
    lambda kids: st.builds("(- {})".format, kids) | st.builds("(+ {} {})".format, kids, kids)
    | st.builds("(* {})".format, kids)
    | st.builds("(c {} {})".format, st.sampled_from(["i", "0", "2", "3", "-1", "(x)"]), kids),
    max_leaves=6)
SOUP = st.lists(st.sampled_from(["(", ")", "(=", "(c i", "(+", "x", "1", "i", "#"]),
                max_size=12).map(" ".join)
BODIES = st.builds("(= {} {})".format, TERMS, TERMS) | TERMS | SOUP
LINES = st.builds("{} : {}".format, HEADS, BODIES) | st.text(max_size=30)
EQN_TEXTS = st.lists(LINES, max_size=2).map("\n".join)


@hypothesis.settings(max_examples=120, deadline=None, database=None)
@hypothesis.example("A forall i : (= (c i x) x)")
@hypothesis.example("A forall i j | i!=j : (= (c i (d i j)) 1)")
@hypothesis.given(EQN_TEXTS)
def test_equation_file_exits_cleanly_on_any_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "axioms.eqn"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["bao", "check", "K1", "--axioms", str(path), "--samples", "5"])
    assert_clean_exit(code, out.getvalue(), err.getvalue())
