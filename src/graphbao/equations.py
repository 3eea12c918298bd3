"""Equational language over the operator signature, with a three-tier checker.

Terms are nested tuples: ("var", k), ("zero",), ("one",), ("diag", i, j),
("neg", t), ("join", t, u), ("meet", t, u), ("cyl", i, t) and
("sub", sigma, t) with sigma a concrete index tuple.

Equation files hold one schema per line:

    NAME [forall i j k] [| i!=j k!=i] : (= lhs rhs)

Index metavariables range over the dimension; `x`, `y`, `z` are element
variables.  `#` starts a comment.  Schemas are instantiated over every index
assignment satisfying the guards.
"""

from __future__ import annotations

import importlib.resources
import itertools
import random
import re
import time
from dataclasses import dataclass

from .atoms import all_sigmas, compose_sigma
from .bao import FiniteBao
from .errors import InfeasibleError, SizeLimitError

VARIABLE_NAMES = {"x": 0, "y": 1, "z": 2}
# pick_subalgebra's closures: at most this many random atoms as generators,
# and at most this many elements, so a two-variable scan stays under 10**5
SUBALGEBRA_GENERATORS = 3
SUBALGEBRA_CAP = 316


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


def eval_term(algebra: FiniteBao, term: tuple, env) -> int:
    op = term[0]
    if op == "var":
        try:
            return env[term[1]]
        except KeyError:
            raise UnboundVariableError(term[1]) from None
    if op == "zero":
        return 0
    if op == "one":
        return algebra.top
    if op == "diag":
        return algebra.d(term[1], term[2])
    if op == "neg":
        return algebra.neg(eval_term(algebra, term[1], env))
    if op == "join":
        return eval_term(algebra, term[1], env) | eval_term(algebra, term[2], env)
    if op == "meet":
        return eval_term(algebra, term[1], env) & eval_term(algebra, term[2], env)
    if op == "cyl":
        return algebra.c(term[1], eval_term(algebra, term[2], env))
    if op == "sub":
        return algebra.s(term[1], eval_term(algebra, term[2], env))
    raise ValueError(f"unknown term operator {op!r}")


def equation_holds_at(algebra: FiniteBao, eq: Equation, env) -> bool:
    return eval_term(algebra, eq.lhs, env) == eval_term(algebra, eq.rhs, env)


# parsing ------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _parse_sexpr(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok == "(":
        out = []
        pos += 1
        while tokens[pos] != ")":
            node, pos = _parse_sexpr(tokens, pos)
            out.append(node)
        return out, pos + 1
    if tok == ")":
        raise ValueError("unbalanced parenthesis")
    return tok, pos + 1


def _index_value(symbol, assignment: dict[str, int]) -> int:
    if isinstance(symbol, str) and symbol in assignment:
        return assignment[symbol]
    return int(symbol)


def _build_term(node, assignment: dict[str, int]) -> tuple:
    if isinstance(node, str):
        if node in VARIABLE_NAMES:
            return ("var", VARIABLE_NAMES[node])
        if node == "0":
            return ("zero",)
        if node == "1":
            return ("one",)
        raise ValueError(f"unknown atom term {node!r}")
    head = node[0]
    if head == "+":
        term = _build_term(node[1], assignment)
        for part in node[2:]:
            term = ("join", term, _build_term(part, assignment))
        return term
    if head == "*":
        term = _build_term(node[1], assignment)
        for part in node[2:]:
            term = ("meet", term, _build_term(part, assignment))
        return term
    if head == "-":
        return ("neg", _build_term(node[1], assignment))
    if head == "c":
        return ("cyl", _index_value(node[1], assignment), _build_term(node[2], assignment))
    if head == "d":
        return ("diag", _index_value(node[1], assignment), _index_value(node[2], assignment))
    raise ValueError(f"unknown operator {head!r}")


def parse_equations(text: str, n: int) -> list[Equation]:
    """Parse an equation file and instantiate its schemas for dimension n."""
    out: list[Equation] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        if not body:
            raise ValueError(f"missing ':' in equation line {raw!r}")
        head_parts = head.split("|")
        name_and_vars = head_parts[0].split()
        name = name_and_vars[0]
        idx_vars = name_and_vars[2:] if len(name_and_vars) > 1 else []
        if len(name_and_vars) > 1 and name_and_vars[1] != "forall":
            raise ValueError(f"bad header in {raw!r}")
        guards = head_parts[1].split() if len(head_parts) > 1 else []
        node, pos = _parse_sexpr(_TOKEN.findall(body), 0)
        if not (isinstance(node, list) and node[0] == "=" and len(node) == 3):
            raise ValueError(f"equation body must be (= lhs rhs): {raw!r}")
        for values in itertools.product(range(n), repeat=len(idx_vars)):
            assignment = dict(zip(idx_vars, values))
            if any(_index_value(a, assignment) == _index_value(b, assignment)
                   for a, b in (guard.split("!=") for guard in guards)):
                continue
            suffix = "".join(f"[{v}={assignment[v]}]" for v in idx_vars)
            out.append(Equation(name + suffix,
                                _build_term(node[1], assignment),
                                _build_term(node[2], assignment)))
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

def check_equation_sampled(algebra: FiniteBao, eq: Equation, count: int,
                           rng: random.Random, pool=None) -> Verdict:
    """Counterexamples are ground truth; 'holds' is probabilistic."""
    variables = sorted(eq.variables())
    pool = pool if pool is not None else algebra.bias_pool()
    for trial in range(count):
        env = {v: algebra.sample_element(rng, pool) for v in variables}
        if not equation_holds_at(algebra, eq, env):
            return Verdict(False, "sampled", trial + 1,
                           {f"x{v}": hex(env[v]) for v in variables})
        if not variables:
            return Verdict(True, "sampled", 1)
    return Verdict(True, "sampled", count)


def check_equation_on_subuniverse(algebra: FiniteBao, eq: Equation, elements) -> Verdict:
    """Exhaustive over every assignment of the variables in `elements`, up to
    10**6 assignments."""
    variables = sorted(eq.variables())
    if not variables:
        ok = equation_holds_at(algebra, eq, {})
        return Verdict(ok, "subalgebra", 1, None if ok else {})
    if len(elements) ** len(variables) > 10 ** 6:
        raise InfeasibleError("subuniverse assignment space too large")
    checked = 0
    for values in itertools.product(elements, repeat=len(variables)):
        checked += 1
        env = dict(zip(variables, values))
        if not equation_holds_at(algebra, eq, env):
            return Verdict(False, "subalgebra", checked,
                           {f"x{v}": hex(env[v]) for v in variables})
    return Verdict(True, "subalgebra", checked)


def pick_subalgebra(algebra: FiniteBao, rng: random.Random) -> list[int]:
    """Seeded generators whose closure stays small enough for exhaustive runs.

    Tries SUBALGEBRA_GENERATORS random atoms, then one fewer at a time down
    to the constants-only subalgebra, until a closure stays within
    SUBALGEBRA_CAP elements.
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
                      samples: int) -> "Report":
    """Sampled checks per instantiated axiom, plus one exhaustive run over a
    small generated subalgebra shared by the whole suite."""
    from .report import Report

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
        started = time.perf_counter()
        verdict = check_equation_sampled(algebra, eq, samples, rng, pool)
        detail = {"mode": verdict.mode, "checked": verdict.checked}
        if verdict.holds and sub is not None:
            verdict = check_equation_on_subuniverse(algebra, eq, sub)
            detail = {"mode": "sampled+subalgebra", "checked": verdict.checked,
                      "subalgebra_size": len(sub)}
        if not verdict.holds:
            detail["counterexample"] = verdict.counterexample
        report.add(eq.name, verdict.holds, detail, seconds=time.perf_counter() - started)
    return report


def check_ca_axioms(algebra: FiniteBao, seed: int = 1, samples: int = 1000) -> "Report":
    return check_axiom_suite(algebra, ca_axioms(algebra.n), seed, samples)


def check_pea_axioms(algebra: FiniteBao, seed: int = 1, samples: int = 1000) -> "Report":
    """CA axioms plus the substitution identities; which further axioms a
    complete polyadic-equality axiomatisation would need is left open."""
    return check_axiom_suite(algebra, pea_axioms(algebra.n), seed, max(50, samples // 30))


def check_discriminator(algebra: FiniteBao, seed: int = 1, samples: int = 200) -> "Report":
    """d(0) = 0 and d(a) = 1 for every atom; sampled nonzero elements too.

    Atom-level exhaustion suffices for the unary discriminator term because
    cylindrifications are completely additive.
    """
    from .report import Report

    rng = random.Random(seed)
    report = Report("discriminator", {"seed": seed, "samples": samples})
    report.add("d(0)=0", algebra.discriminator(0) == 0)
    bad = [a for a in range(algebra.natoms)
           if algebra.discriminator(1 << a) != algebra.top]
    report.add("d(atom)=1 for all atoms", not bad,
               {"failing_atoms": bad[:5]} if bad else {"atoms": algebra.natoms})
    failures = 0
    for _ in range(samples):
        x = algebra.sample_element(rng)
        if x == 0:
            continue
        if algebra.discriminator(x) != algebra.top:
            failures += 1
    report.add("d(nonzero)=1 sampled", failures == 0, {"failures": failures})
    return report
