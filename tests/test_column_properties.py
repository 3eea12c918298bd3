"""Property tests: the column evaluator agrees with the oracle eval_term
assignment by assignment, on random terms over every operator and
on arbitrary element lists: empty, one element, and lists that no operator
maps into themselves, so c_i and s_sigma images fall outside the list.  At
any column length, both tiers give their oracles' verdicts, and the sampled
tier leaves the rng where the trial-by-trial oracle leaves it."""

import itertools
import random
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphbao import equations  # noqa: E402
from graphbao.atoms import all_sigmas, enumerate_atoms  # noqa: E402
from graphbao.bao import complex_algebra  # noqa: E402
from graphbao.equations import Equation, eval_column  # noqa: E402
from graphbao.graph import complete_graph  # noqa: E402
from oracles import (check_equation_per_assignment,  # noqa: E402
                     check_equation_sampled_per_trial, eval_term)

ALGEBRA = complex_algebra(enumerate_atoms(complete_graph(1), 3))
N = ALGEBRA.n
LEAVES = st.one_of(
    st.builds(lambda v: ("var", v), st.integers(0, 2)),
    st.just(("zero",)), st.just(("one",)),
    st.builds(lambda i, j: ("diag", i, j), st.integers(0, N - 1), st.integers(0, N - 1)))


def terms(depth: int):
    if depth == 0:
        return LEAVES
    kid = terms(depth - 1)
    return st.one_of(
        LEAVES,
        st.builds(lambda t: ("neg", t), kid),
        st.builds(lambda t, u: ("join", t, u), kid, kid),
        st.builds(lambda t, u: ("meet", t, u), kid, kid),
        st.builds(lambda i, t: ("cyl", i, t), st.integers(0, N - 1), kid),
        st.builds(lambda s, t: ("sub", s, t), st.sampled_from(all_sigmas(N)), kid))


TERMS = terms(4)
ELEMENTS = st.lists(st.integers(0, ALGEBRA.top), max_size=6)


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.example(("sub", (0, 0, 0), ("cyl", 1, ("var", 0))), ("var", 0), [])
@hypothesis.example(("cyl", 0, ("var", 0)), ("var", 0), [1 << 3])
@hypothesis.given(TERMS, TERMS, ELEMENTS)
def test_column_evaluation_matches_eval_term(lhs, rhs, elements):
    eq = Equation("random", lhs, rhs)
    variables = sorted(eq.variables())
    envs = [dict(zip(variables, values))
            for values in itertools.product(elements, repeat=len(variables))]
    columns = {v: [env[v] for env in envs] for v in variables}
    memo: dict = {}
    for term in (lhs, rhs):
        assert (eval_column(ALGEBRA, term, columns, len(envs), memo)
                == [eval_term(ALGEBRA, term, env) for env in envs])


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(TERMS, TERMS, ELEMENTS, st.sampled_from([1, 2, 5, 1024]))
def test_verdict_matches_per_assignment_oracle(lhs, rhs, elements, length):
    # short columns send the memo of c_i and s_sigma images across passes
    with mock.patch.object(equations, "COLUMN_LENGTH", length):
        for eq in (Equation("random", lhs, rhs), Equation("same", lhs, lhs)):
            assert (equations.check_equation_on_subuniverse(ALGEBRA, eq, elements)
                    == check_equation_per_assignment(ALGEBRA, eq, elements))


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(TERMS, TERMS, st.integers(0, 12), st.integers(0, 2 ** 16),
                  st.sampled_from([1, 2, 5, 1024]))
def test_sampled_verdict_and_rng_match_per_trial_oracle(lhs, rhs, count, seed, length):
    # short columns put failures in a later column than the first, so the
    # rewind must redraw across columns
    eq = Equation("random", lhs, rhs)
    runs = []
    with mock.patch.object(equations, "COLUMN_LENGTH", length):
        for check in (equations.check_equation_sampled, check_equation_sampled_per_trial):
            rng = random.Random(seed)
            runs.append((check(ALGEBRA, eq, count, rng), rng.random()))
    assert runs[0] == runs[1]
