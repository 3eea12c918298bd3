"""Equational language over the operator signature, with a three-tier checker.

Terms are nested tuples: ("var", k), ("zero",), ("one",), ("diag", i, j),
("neg", t), ("join", t, u), ("meet", t, u), ("cyl", i, t) and
("sub", sigma, t) with sigma a concrete index tuple.

Equation files hold one schema per line:

    NAME [forall i j k] [| i!=j k!=i] : (= lhs rhs)

Index metavariables range over the dimension; `x`, `y`, `z` are element
variables.  `#` starts a comment.  Schemas are instantiated over every index
assignment satisfying the guards.

Both checking tiers, sampled and exhaustive over a subalgebra, evaluate
each side of an equation over a column of up to COLUMN_LENGTH assignments
at once (eval_column), so a term costs one Python call per node and column,
not per assignment.
"""

from __future__ import annotations

import importlib.resources
import itertools
import operator
import random
import re
from dataclasses import dataclass

from .atoms import all_sigmas, compose_sigma
from .bao import FiniteBao
from .errors import InfeasibleError, SizeLimitError
from .report import Report

VARIABLE_NAMES = {"x": 0, "y": 1, "z": 2}
# pick_subalgebra's closures: at most this many random atoms as generators,
# and at most this many elements, so a two-variable scan stays under 10**5
SUBALGEBRA_GENERATORS = 3
SUBALGEBRA_CAP = 316
# random elements check_discriminator tries beyond its exhaustive atom check
DISCRIMINATOR_SAMPLES = 200
# assignments a tier evaluates per pass: in the exhaustive tier, the last two
# variables over a 32-element subalgebra.  Every join, meet and negation holds
# one new big int per assignment, ~0.7 MB at peak on P3 (730 atoms), so the
# length is fixed rather than grown with the subalgebra (316**2 would need
# ~12 MB a node)
COLUMN_LENGTH = 1024


class UnboundVariableError(KeyError):
    pass


@dataclass(frozen=True)
class Equation:
    name: str
    lhs: tuple
    rhs: tuple

    def variables(self) -> set[int]:
        return term_variables(self.lhs) | term_variables(self.rhs)


@dataclass
class Verdict:
    holds: bool
    mode: str
    checked: int
    counterexample: dict | None = None


def term_variables(term: tuple) -> set[int]:
    op = term[0]
    if op == "var":
        return {term[1]}
    if op in ("zero", "one", "diag"):
        return set()
    if op == "neg":
        return term_variables(term[1])
    if op in ("cyl", "sub"):
        return term_variables(term[2])
    return term_variables(term[1]) | term_variables(term[2])


# parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
# deepest term an equation file may build: building and evaluating a term
# recurse once per level, and each argument of + or * adds a level
MAX_TERM_DEPTH = 64
# most index assignments one schema may expand to (n ** its forall variables);
# the built-in schemas need at most 5 ** 3
MAX_SCHEMA_ASSIGNMENTS = 4096


def _read_sexpr(text: str):
    """The one s-expression in text, as a token string or nested lists."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced parenthesis")
            stack[-2].append(stack.pop())
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise ValueError("unbalanced parenthesis")
    if len(stack[0]) != 1:
        raise ValueError(f"expected one term, found {len(stack[0])}")
    return stack[0][0]


def _index_value(symbol, assignment: dict[str, int], n: int) -> int:
    if not isinstance(symbol, str):
        raise ValueError("an index must be a number or an index variable")
    if symbol in assignment:
        return assignment[symbol]
    try:
        value = int(symbol)
    except ValueError:
        raise ValueError(f"bad index {symbol!r}") from None
    if not 0 <= value < n:
        raise ValueError(f"index {value} out of range for dimension {n}")
    return value


def _build_term(node, assignment: dict[str, int], n: int, depth: int = 1) -> tuple:
    if depth > MAX_TERM_DEPTH:
        raise ValueError(f"term nests deeper than {MAX_TERM_DEPTH}")
    if isinstance(node, str):
        if node in VARIABLE_NAMES:
            return ("var", VARIABLE_NAMES[node])
        if node == "0":
            return ("zero",)
        if node == "1":
            return ("one",)
        raise ValueError(f"unknown atom term {node!r}")
    head, args = (node[0], node[1:]) if node else ("()", [])
    if head in ("+", "*") and args:
        op, deeper = ("join" if head == "+" else "meet"), depth + len(args)
        term = _build_term(args[0], assignment, n, deeper)
        for part in args[1:]:
            term = (op, term, _build_term(part, assignment, n, deeper))
        return term
    if head == "-" and len(args) == 1:
        return ("neg", _build_term(args[0], assignment, n, depth + 1))
    if head == "c" and len(args) == 2:
        return ("cyl", _index_value(args[0], assignment, n),
                _build_term(args[1], assignment, n, depth + 1))
    if head == "d" and len(args) == 2:
        return ("diag", _index_value(args[0], assignment, n),
                _index_value(args[1], assignment, n))
    name = repr(head) if isinstance(head, str) else "(...)"
    raise ValueError(f"unknown operator {name} with {len(args)} arguments")


def _parse_schema(line: str, n: int) -> list[Equation]:
    head, colon, body = line.partition(":")
    if not colon:
        raise ValueError("missing ':'")
    head_parts = head.split("|")
    name_and_vars = head_parts[0].split()
    if not name_and_vars:
        raise ValueError("missing equation name")
    if len(name_and_vars) > 1 and name_and_vars[1] != "forall":
        raise ValueError("bad header")
    name, idx_vars = name_and_vars[0], name_and_vars[2:]
    guards = [guard.partition("!=") for guard in
              (head_parts[1].split() if len(head_parts) > 1 else [])]
    if not all(sep for _, sep, _ in guards):
        raise ValueError("a guard must read i!=j")
    node = _read_sexpr(body)
    if not (isinstance(node, list) and len(node) == 3 and node[0] == "="):
        raise ValueError("equation body must be (= lhs rhs)")
    if n ** len(idx_vars) > MAX_SCHEMA_ASSIGNMENTS:
        raise ValueError(f"{len(idx_vars)} index variables give {n}^{len(idx_vars)} "
                         f"assignments, more than {MAX_SCHEMA_ASSIGNMENTS}")
    out = []
    for values in itertools.product(range(n), repeat=len(idx_vars)):
        assignment = dict(zip(idx_vars, values))
        if any(_index_value(a, assignment, n) == _index_value(b, assignment, n)
               for a, _, b in guards):
            continue
        suffix = "".join(f"[{v}={assignment[v]}]" for v in idx_vars)
        out.append(Equation(name + suffix, _build_term(node[1], assignment, n),
                            _build_term(node[2], assignment, n)))
    return out


def parse_equations(text: str, n: int) -> list[Equation]:
    """Parse an equation file and instantiate its schemas for dimension n.

    Raises ValueError, naming the offending line, on any malformed schema.
    """
    out: list[Equation] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                out += _parse_schema(line, n)
            except ValueError as exc:
                raise ValueError(f"{exc} in equation line {raw!r}") from None
    return out


def ca_axioms(n: int) -> list[Equation]:
    """The cylindric algebra axiom schemas C1-C7 plus boolean reduct laws."""
    text = importlib.resources.files(__package__).joinpath("data/ca_axioms.eqn").read_text()
    return parse_equations(text, n)


def substitution_axioms(n: int) -> list[Equation]:
    """Substitution identities for the polyadic layer, generated per map."""
    out: list[Equation] = []
    x, y = ("var", 0), ("var", 1)
    identity = tuple(range(n))
    out.append(Equation("Sid", ("sub", identity, x), x))
    for sigma in all_sigmas(n):
        tag = "".join(map(str, sigma))
        out.append(Equation(f"Sneg[{tag}]",
                            ("sub", sigma, ("neg", x)), ("neg", ("sub", sigma, x))))
        out.append(Equation(f"Sjoin[{tag}]",
                            ("sub", sigma, ("join", x, y)),
                            ("join", ("sub", sigma, x), ("sub", sigma, y))))
        for i in range(n):
            for j in range(n):
                out.append(Equation(f"Sdiag[{tag},{i},{j}]",
                                    ("sub", sigma, ("diag", i, j)),
                                    ("diag", sigma[i], sigma[j])))
        for i in range(n):
            if i not in sigma:
                out.append(Equation(f"Scylout[{tag},{i}]",
                                    ("cyl", i, ("sub", sigma, x)), ("sub", sigma, x)))
        if len(set(sigma)) == n:
            for i in range(n):
                out.append(Equation(f"Scylinj[{tag},{i}]",
                                    ("cyl", sigma[i], ("sub", sigma, x)),
                                    ("sub", sigma, ("cyl", i, x))))
    for sigma in all_sigmas(n):
        for tau in all_sigmas(n):
            out.append(Equation(
                f"Scomp[{''.join(map(str, sigma))},{''.join(map(str, tau))}]",
                ("sub", compose_sigma(sigma, tau), x),
                ("sub", sigma, ("sub", tau, x))))
    return out


def pea_axioms(n: int) -> list[Equation]:
    return ca_axioms(n) + substitution_axioms(n)


# checking -----------------------------------------------------------------

def eval_column(algebra: FiniteBao, term: tuple, columns: dict, length: int,
                memo: dict) -> list[int]:
    """The values of term at each of a column of `length` assignments.

    columns maps each variable to its values, one per assignment.  The
    boolean operators map over whole columns; c_i and s_sigma are applied
    once to each distinct argument, through memo[(op, index)], a dict from
    argument to image that the caller may keep from one column to the next.
    """
    op = term[0]
    if op == "var":
        try:
            return columns[term[1]]
        except KeyError:
            raise UnboundVariableError(term[1]) from None
    if op == "zero":
        return [0] * length
    if op == "one":
        return [algebra.top] * length
    if op == "diag":
        return [algebra.d(term[1], term[2])] * length
    if op == "neg":
        return list(map(algebra.top.__xor__,
                        eval_column(algebra, term[1], columns, length, memo)))
    if op in ("join", "meet"):
        return list(map(operator.or_ if op == "join" else operator.and_,
                        eval_column(algebra, term[1], columns, length, memo),
                        eval_column(algebra, term[2], columns, length, memo)))
    if op in ("cyl", "sub"):
        column = eval_column(algebra, term[2], columns, length, memo)
        images = memo.setdefault(term[:2], {})
        new = list(set(column).difference(images))
        if op == "cyl":
            images.update((x, algebra.c(term[1], x)) for x in new)
        else:
            images.update(zip(new, algebra.s_many(term[1], new)))
        return list(map(images.__getitem__, column))
    raise ValueError(f"unknown term operator {op!r}")


def _check_columns(algebra: FiniteBao, eq: Equation, variables: list[int],
                   passes, mode: str) -> Verdict:
    """Both sides of eq over each (columns, length, memo) of passes in turn.

    columns maps each of variables to its values at `length` assignments,
    and memo is the eval_column memo to evaluate them with.  `checked` and
    the counterexample are those of the first failing assignment in that
    order.
    """
    checked = 0
    for columns, length, memo in passes:
        lhs = eval_column(algebra, eq.lhs, columns, length, memo)
        rhs = eval_column(algebra, eq.rhs, columns, length, memo)
        if lhs != rhs:
            first = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            return Verdict(False, mode, checked + first + 1,
                           {f"x{v}": hex(columns[v][first]) for v in variables})
        checked += length
    return Verdict(True, mode, checked)


def _columns(variables: list[int], assignments: list[tuple[int, ...]]) -> tuple[dict, int]:
    """Each variable's column over assignments (tuples in variables' order), and their number."""
    return dict(zip(variables, map(list, zip(*assignments)))), len(assignments)


def check_equation_sampled(algebra: FiniteBao, eq: Equation, count: int,
                           rng: random.Random, pool=None) -> Verdict:
    """Counterexamples are ground truth; 'holds' is probabilistic.

    Each trial draws the variables in sorted order, and an equation without
    variables takes one trial.  Trials are drawn and checked COLUMN_LENGTH at
    a time, each column with a fresh memo, since random elements almost never
    repeat.  After a failure at trial k the rng is rewound and k trials are
    drawn again, so it stands where a trial-by-trial check stopping at trial
    k leaves it.
    """
    variables = sorted(eq.variables())
    pool = pool if pool is not None else algebra.bias_pool()
    trials = count if variables else min(count, 1)
    start = rng.getstate()

    def draw(k: int) -> list[tuple[int, ...]]:
        return [tuple(algebra.sample_element(rng, pool) for _ in variables)
                for _ in range(k)]

    passes = ((*_columns(variables, draw(min(COLUMN_LENGTH, trials - done))), {})
              for done in range(0, trials, COLUMN_LENGTH))
    verdict = _check_columns(algebra, eq, variables, passes, "sampled")
    if not verdict.holds:
        rng.setstate(start)
        draw(verdict.checked)
    return verdict


def check_equation_on_subuniverse(algebra: FiniteBao, eq: Equation, elements) -> Verdict:
    """Exhaustive over every assignment of the variables in `elements`, up to
    10**6 assignments.

    The assignments are taken in itertools.product order, with one memo for
    all of them.  The trailing variables, as many as fit COLUMN_LENGTH
    assignments but at least the last, get their columns built once, in
    pieces of at most COLUMN_LENGTH; each pass pairs one piece with one
    assignment of the leading variables, as constant columns.
    """
    variables = sorted(eq.variables())
    if len(elements) ** len(variables) > 10 ** 6:
        raise InfeasibleError("subuniverse assignment space too large")
    width = len(variables)
    while width > 1 and len(elements) ** width > COLUMN_LENGTH:
        width -= 1
    leading, trailing = variables[:len(variables) - width], variables[len(variables) - width:]
    block = itertools.product(elements, repeat=width)
    pieces = [_columns(trailing, piece) for piece in
              iter(lambda: list(itertools.islice(block, COLUMN_LENGTH)), [])]
    memo: dict = {}
    passes = (({v: [value] * length for v, value in zip(leading, lead)} | columns, length, memo)
              for lead in itertools.product(elements, repeat=len(leading))
              for columns, length in pieces)
    return _check_columns(algebra, eq, variables, passes, "subalgebra")


def pick_subalgebra(algebra: FiniteBao, rng: random.Random) -> list[int]:
    """Seeded generators whose closure stays small enough for exhaustive runs.

    Tries SUBALGEBRA_GENERATORS random atoms, then one fewer at a time down
    to the constants-only subalgebra, until a closure stays within
    SUBALGEBRA_CAP elements.  Each closure is the block partition of
    FiniteBao.generated_subalgebra, so a try that overflows stops at the
    ninth block (2**9 > SUBALGEBRA_CAP) and enumerates no element.
    """
    for count in range(SUBALGEBRA_GENERATORS, -1, -1):
        gens = [1 << rng.randrange(algebra.natoms) for _ in range(count)]
        try:
            return algebra.generated_subalgebra(gens, bound=SUBALGEBRA_CAP)
        except SizeLimitError:
            continue
    raise InfeasibleError("no small generated subalgebra found")


# suites ---------------------------------------------------------------------

def check_axiom_suite(algebra: FiniteBao, equations, seed: int,
                      samples: int) -> Report:
    """Sampled checks per instantiated axiom, plus one exhaustive run over a
    small generated subalgebra shared by the whole suite."""
    rng = random.Random(seed)
    report = Report("axiom-suite", {"seed": seed, "samples": samples})
    pool = algebra.bias_pool()
    sub = None
    try:
        sub = pick_subalgebra(algebra, rng)
    except InfeasibleError:
        # no small closure exists (possible on corrupted operator
        # tables); the sampled tier still finds counterexamples
        report.config["subalgebra"] = "unavailable"
    for eq in equations:
        verdict = check_equation_sampled(algebra, eq, samples, rng, pool)
        detail = {"mode": verdict.mode, "checked": verdict.checked}
        if verdict.holds and sub is not None:
            verdict = check_equation_on_subuniverse(algebra, eq, sub)
            detail = {"mode": "sampled+subalgebra", "checked": verdict.checked,
                      "subalgebra_size": len(sub)}
        if not verdict.holds:
            detail["counterexample"] = verdict.counterexample
        report.add(eq.name, verdict.holds, detail)
    return report


def check_ca_axioms(algebra: FiniteBao, seed: int = 1, samples: int = 1000) -> Report:
    return check_axiom_suite(algebra, ca_axioms(algebra.n), seed, samples)


def check_pea_axioms(algebra: FiniteBao, seed: int = 1, samples: int = 1000) -> Report:
    """CA axioms plus the substitution identities; which further axioms a
    complete polyadic-equality axiomatisation would need is left open."""
    return check_axiom_suite(algebra, pea_axioms(algebra.n), seed, max(50, samples // 30))


def check_discriminator(algebra: FiniteBao, seed: int = 1) -> Report:
    """d(0) = 0 and d(a) = 1 for every atom; sampled nonzero elements too.

    Atom-level exhaustion suffices for the unary discriminator term because
    cylindrifications are completely additive.
    """
    rng = random.Random(seed)
    report = Report("discriminator", {"seed": seed, "samples": DISCRIMINATOR_SAMPLES})
    report.add("d(0)=0", algebra.discriminator(0) == 0)
    bad = [a for a in range(algebra.natoms)
           if algebra.discriminator(1 << a) != algebra.top]
    report.add("d(atom)=1 for all atoms", not bad,
               {"failing_atoms": bad[:5]} if bad else {"atoms": algebra.natoms})
    failures = 0
    for _ in range(DISCRIMINATOR_SAMPLES):
        x = algebra.sample_element(rng)
        if x == 0:
            continue
        if algebra.discriminator(x) != algebra.top:
            failures += 1
    report.add("d(nonzero)=1 sampled", failures == 0, {"failures": failures})
    return report
