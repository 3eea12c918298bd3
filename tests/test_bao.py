import hashlib
import json
import math
import random
from dataclasses import replace
from functools import partial
from operator import itemgetter

import pytest

from graphbao.atoms import all_partitions, all_sigmas, compose_sigma, enumerate_atoms
from graphbao.bao import SIGNATURES, FiniteBao, complex_algebra, subst_generators
from graphbao.bitset import iter_bits, read_map
from graphbao.equations import (Equation, ca_axioms, check_ca_axioms, check_discriminator,
                                check_equation_on_subuniverse, check_equation_sampled,
                                check_pea_axioms, eval_column, parse_equations, pea_axioms,
                                pick_subalgebra, UnboundVariableError)
from graphbao.errors import SizeLimitError
from graphbao.graph import complete_graph, cycle_graph, path_graph
from oracles import (atom_columns, check_equation_per_assignment, classes_by_singletons,
                     check_equation_sampled_per_trial, corrupt_cyl_table, cyl_equiv, cyl_per_bit,
                     diag_member, direct_subst_tables, generated_subalgebra_closure,
                     read_map_by_singletons, subst_atom_per_atom, subst_columns)


@pytest.fixture(scope="module")
def a_k1():
    return complex_algebra(enumerate_atoms(complete_graph(1), 3))


@pytest.fixture(scope="module")
def a_k2():
    return complex_algebra(enumerate_atoms(complete_graph(2), 3))


class TestComplexAlgebra:
    def test_diagonal_ii_is_top(self, a_k1):
        for i in range(3):
            assert a_k1.d(i, i) == a_k1.top

    def test_cyl_of_atom_is_its_class(self, a_k1):
        structure = a_k1.atom_structure
        for idx, atom in enumerate(structure.atoms):
            for i in range(3):
                expected = sum(1 << j for j, other in enumerate(structure.atoms)
                               if cyl_equiv(atom, other, i))
                assert a_k1.c(i, 1 << idx) == expected

    def test_dist_element_counts(self, a_k1):
        # 24 full atoms plus the six pair atoms whose block contains 0
        assert a_k1.dist_element(0).bit_count() == 30

    def test_dist_element_is_sum_of_distinguishing_atoms(self, a_k2):
        from graphbao.atoms import is_i_distinguishing
        for i in range(3):
            direct = sum(1 << idx for idx, atom in
                         enumerate(a_k2.atom_structure.atoms)
                         if is_i_distinguishing(atom.sim, i))
            assert a_k2.dist_element(i) == direct

    def test_signature_gating(self, a_k1):
        df = FiniteBao(a_k1.rel, "Df")
        with pytest.raises(ValueError):
            df.d(0, 1)
        with pytest.raises(ValueError):
            df.s((0, 1, 2), 0)
        ca = FiniteBao(a_k1.rel, "CA")
        assert ca.d(0, 1) == a_k1.d(0, 1)

    def test_normality_and_additivity(self, a_k1):
        rng = random.Random(1)
        for i in range(3):
            assert a_k1.c(i, 0) == 0
        for _ in range(200):
            x = a_k1.sample_element(rng)
            y = a_k1.sample_element(rng)
            for i in range(3):
                assert a_k1.c(i, x | y) == a_k1.c(i, x) | a_k1.c(i, y)

    def test_dist_meets_diagonal_below_other_dist(self, a_k2):
        # concrete elements, exhaustive over all index pairs
        for i in range(3):
            for j in range(3):
                lhs = a_k2.dist_element(i) & a_k2.d(i, j)
                assert lhs & ~a_k2.dist_element(j) == 0

    def test_subst_is_boolean_endomorphism(self, a_k2):
        rng = random.Random(2)
        for _ in range(100):
            x = a_k2.sample_element(rng)
            y = a_k2.sample_element(rng)
            for sigma in ((0, 0, 2), (1, 0, 2), (2, 2, 2)):
                assert a_k2.s(sigma, a_k2.neg(x)) == a_k2.neg(a_k2.s(sigma, x))
                assert a_k2.s(sigma, x | y) == a_k2.s(sigma, x) | a_k2.s(sigma, y)

    def test_subst_diagonals_exhaustive(self, a_k2):
        for sigma in all_sigmas(3):
            for i in range(3):
                for j in range(3):
                    assert a_k2.s(sigma, a_k2.d(i, j)) == a_k2.d(sigma[i], sigma[j])

    def test_partition_constant_is_atom_when_collapsed(self, a_k1, a_k2):
        for algebra in (a_k1, a_k2):
            for sim in all_partitions(3):
                element = algebra.d_partition(sim)
                if max(sim) + 1 < 2:
                    assert element and element & (element - 1) == 0


DIFFERENTIAL_GRAPHS = {"K1": complete_graph(1), "K2": complete_graph(2),
                       "P3": path_graph(3), "C3": cycle_graph(3), "C6": cycle_graph(6)}


@pytest.fixture(scope="module", params=[
    ("K1", 3), ("K2", 3), ("P3", 3), ("C3", 3), ("C6", 3), ("K1", 4), ("K2", 4)],
    ids=lambda case: f"{case[0]}n{case[1]}")
def probed_algebra(request):
    """An algebra, its directly built substitution tables, and its probe
    elements: 0, top, every diagonal, strided singletons and 200 seeded
    random elements."""
    name, n = request.param
    structure = enumerate_atoms(DIFFERENTIAL_GRAPHS[name], n, max_atoms=6000)
    algebra = complex_algebra(structure)
    rng = random.Random(20)
    probes = [0, algebra.top]
    probes += [algebra.d(i, j) for i in range(n) for j in range(n)]
    probes += [1 << a for a in range(0, algebra.natoms, max(1, algebra.natoms // 7))]
    probes += [rng.getrandbits(algebra.natoms) for _ in range(200)]
    return algebra, direct_subst_tables(structure), probes


class TestPinnedTables:
    """The R_i class ids and masks and the substitution tables, as sha256 of
    their JSON (masks in hex), pinned so that any rewrite of the table build
    keeps every id, mask and entry."""

    @pytest.mark.parametrize("name, n, digest", [("K2", 4, "b9c4be38080ca898"),
                                                 ("C6", 3, "98ae3a8714acf583")])
    def test_tables_are_pinned(self, name, n, digest):
        rel = enumerate_atoms(DIFFERENTIAL_GRAPHS[name], n, max_atoms=6000).tables()
        masks = [[format(m, "x") for m in row] for row in rel.cyl_class_masks]
        blob = json.dumps([rel.cyl_class_of, masks, rel.subst_tables], separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


class TestKernelsAgainstOracles:
    def test_tables_match_direct_build(self, probed_algebra):
        algebra, direct, _ = probed_algebra
        assert algebra.rel.subst_tables == direct

    def test_diagonals_match_atom_scan(self, probed_algebra):
        algebra, _, _ = probed_algebra
        atoms = algebra.atom_structure.atoms
        for i in range(algebra.n):
            for j in range(algebra.n):
                assert algebra.d(i, j) == sum(1 << a for a, atom in enumerate(atoms)
                                              if diag_member(atom, i, j))

    def test_c_matches_per_bit(self, probed_algebra):
        algebra, _, probes = probed_algebra
        for i in range(algebra.n):
            for x in probes:
                assert algebra.c(i, x) == cyl_per_bit(algebra, i, x)

    def test_read_classes_match_singleton_oracle(self, probed_algebra):
        algebra, _, _ = probed_algebra
        recovered = algebra.ultrafilter_structure()
        assert recovered == algebra.rel
        for i in range(algebra.n):
            assert ((recovered.cyl_class_of[i], recovered.cyl_class_masks[i])
                    == classes_by_singletons(algebra, i))

    def test_read_classes_call_c_twice_per_class_and_once_per_transversal(self, probed_algebra):
        algebra, _, _ = probed_algebra
        counting = CountingC(algebra.rel, "CA")
        counting.ultrafilter_structure()
        assert counting.calls == {i: 2 * len(masks) + max(m.bit_count() for m in masks)
                                  for i, masks in enumerate(algebra.rel.cyl_class_masks)}
        # per coordinate, K2 n = 4: 12 + 12 + 514, not 4,144; C6: 19 + 19 + 314, not 5,671
        pinned = {4144: 538, 5671: 352}.get(algebra.natoms)
        assert pinned is None or set(counting.calls.values()) == {pinned}

    def test_s_matches_atom_columns(self, probed_algebra):
        algebra, direct, probes = probed_algebra
        columns = atom_columns(probes, algebra.natoms)
        for sigma, table in zip(all_sigmas(algebra.n), direct):
            images = [algebra.s(sigma, x) for x in probes]
            assert atom_columns(images, algebra.natoms) == subst_columns(table, columns)


class TestSearchLemmas:
    """Facts about the stored tables T_sigma and R_i classes, on every atom,
    map and coordinate.  L1 and L3 let the oracle's search on labels keep
    every leaf without a check (oracles.extension_networks_by_tables); that
    T_pi is a bijection of the atoms for each permutation pi lets the
    challenger play one move per class, and with L2 makes each face one
    class (networks._moves_up_to_permutation)."""

    def test_permutation_tables_are_bijections(self, probed_algebra):
        algebra, _, _ = probed_algebra
        rel, n = algebra.rel, algebra.n
        permutations = [table for sigma, table in zip(all_sigmas(n), rel.subst_tables)
                        if len(set(sigma)) == n]
        assert len(permutations) == math.factorial(n)
        for table in permutations:
            assert sorted(table) == list(range(rel.natoms))

    def test_l1_maps_agreeing_off_i_keep_the_r_i_class(self, probed_algebra):
        algebra, _, _ = probed_algebra
        rel, n = algebra.rel, algebra.n
        for i, class_of in enumerate(rel.cyl_class_of):
            by_rest = {}
            for sigma, table in zip(all_sigmas(n), rel.subst_tables):
                classes = tuple(map(class_of.__getitem__, table))
                assert by_rest.setdefault(sigma[:i] + sigma[i + 1:], classes) == classes
            assert len(by_rest) == n ** (n - 1)

    def test_l2_a_map_hitting_k_once_carries_r_k_into_r_i(self, probed_algebra):
        algebra, _, _ = probed_algebra
        rel, n = algebra.rel, algebra.n
        checked = 0
        for k in range(n):
            masks = rel.cyl_class_masks[k]
            # the least atom of each atom's R_k class
            least = tuple((masks[c] & -masks[c]).bit_length() - 1 for c in rel.cyl_class_of[k])
            for sigma, table in zip(all_sigmas(n), rel.subst_tables):
                if sigma.count(k) == 1:
                    classes = tuple(map(rel.cyl_class_of[sigma.index(k)].__getitem__, table))
                    assert tuple(map(classes.__getitem__, least)) == classes
                    checked += 1
        assert checked == n * n * (n - 1) ** (n - 1)

    def test_l3_maps_agreeing_on_x_blocks_give_one_image(self, probed_algebra):
        algebra, _, _ = probed_algebra
        rel, n = algebra.rel, algebra.n
        for sim, mask in algebra.atom_structure.pattern_masks.items():
            get = itemgetter(*iter_bits(mask))
            by_blocks = {}
            for sigma, table in zip(all_sigmas(n), rel.subst_tables):
                images = get(table)
                assert by_blocks.setdefault(tuple(sim[s] for s in sigma), images) == images
            assert len(by_blocks) == (max(sim) + 1) ** n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generators_reach_every_map(n):
    reached = [tuple(range(n))]
    seen = set(reached)
    for sigma in reached:
        for g in subst_generators(n):
            composed = compose_sigma(sigma, g)
            if composed not in seen:
                seen.add(composed)
                reached.append(composed)
    assert seen == set(all_sigmas(n))


def eval_at(algebra, term, env):
    """eval_column on the one-assignment column env."""
    return eval_column(algebra, term, {v: [x] for v, x in env.items()}, 1, {})[0]


class TestEvalAndTerms:
    def test_eval_examples(self, a_k1):
        # c_0 d_01 covers the atoms related to a diagonal atom, plus the set itself
        expected = a_k1.c(0, a_k1.d(0, 1))
        direct = 0
        atoms = a_k1.atom_structure.atoms
        for idx, atom in enumerate(atoms):
            if any(cyl_equiv(atom, other, 0) for j, other in enumerate(atoms)
                   if other.sim[0] == other.sim[1]):
                direct |= 1 << idx
        assert eval_at(a_k1, ("cyl", 0, ("diag", 0, 1)), {}) == expected == direct

    def test_excluded_middle(self, a_k1):
        rng = random.Random(3)
        for _ in range(50):
            x = a_k1.sample_element(rng)
            assert eval_at(a_k1, ("join", ("var", 0), ("neg", ("var", 0))),
                           {0: x}) == a_k1.top

    def test_identity_substitution(self, a_k1):
        rng = random.Random(4)
        for _ in range(50):
            x = a_k1.sample_element(rng)
            assert eval_at(a_k1, ("sub", (0, 1, 2), ("var", 0)), {0: x}) == x

    def test_unbound_variable(self, a_k1):
        with pytest.raises(UnboundVariableError):
            eval_at(a_k1, ("var", 5), {})

    def test_parser_round_trip(self):
        eqs = parse_equations("T forall i j | i!=j : (= (c i (d i j)) 1)", 3)
        assert len(eqs) == 6
        assert eqs[0].name == "T[i=0][j=1]"

    def test_parser_rejects_garbage(self):
        for line in ("bad line without colon", "X : (c 0 x)", "bad: (= x", ": (= x x)",
                     "A : ()", "A : (= x x) y", "A : (= (c 3 x) x)", "A : (= (c (x) x) x)",
                     "A forall i | i : (= x x)", "A : (= (+) x)",
                     "A : (= (+ " + "x " * 70 + ") x)",
                     "A : (= " + "(- " * 70 + "x" + ")" * 70 + " x)"):
            with pytest.raises(ValueError, match="in equation line"):
                parse_equations(line, 3)


class TestCheckEquation:
    def test_cylindric_increase_sampled(self, a_k1):
        eq = Equation("x<=c0x", ("join", ("var", 0), ("cyl", 0, ("var", 0))),
                      ("cyl", 0, ("var", 0)))
        verdict = check_equation_sampled(a_k1, eq, 10000, random.Random(7))
        assert verdict.holds

    def test_diagonal_recovery_law(self, a_k2):
        # d_ij * c_i(d_ij * x) <= x, sampled
        x = ("var", 0)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            lhs = ("meet", ("diag", i, j), ("cyl", i, ("meet", ("diag", i, j), x)))
            eq = Equation("recover", ("meet", lhs, x), lhs)
            assert check_equation_sampled(a_k2, eq, 3000, random.Random(8)).holds

    @pytest.mark.parametrize("graph, i, atom", [("K1", 0, 5), ("K2", 1, 17)])
    def test_sampled_matches_per_trial_oracle(self, a_k1, a_k2, graph, i, atom):
        # one rng through every equation, as in a suite: after a failure at
        # trial k the rng must stand where a trial-by-trial check leaves it
        base = a_k1 if graph == "K1" else a_k2
        algebra = FiniteBao(corrupt_cyl_table(base.rel, i, atom), "PEA")
        no_vars = Equation("c0d12=1", ("cyl", 0, ("diag", 1, 2)), ("one",))
        # 3,000 trials span three columns; only the CA schemas take them,
        # since most PEA instances hold and the oracle would take minutes
        for count, eqs in ((0, pea_axioms(3)), (1, pea_axioms(3)), (40, pea_axioms(3)),
                           (3000, ca_axioms(3))):
            for seed in (1, 2, 3):
                runs = []
                for check in (check_equation_sampled, check_equation_sampled_per_trial):
                    rng = random.Random(seed)
                    runs.append([(check(algebra, eq, count, rng), rng.random())
                                 for eq in eqs + [no_vars]])
                assert runs[0] == runs[1], (count, seed)
                assert count == 0 or not all(v.holds for v, _ in runs[0])

    def test_false_equation_found(self, a_k1):
        eq = Equation("c0x=x", ("cyl", 0, ("var", 0)), ("var", 0))
        verdict = check_equation_sampled(a_k1, eq, 10000, random.Random(9))
        assert not verdict.holds
        assert verdict.counterexample is not None

    def test_subalgebra_strategy(self, a_k1):
        eq = Equation("c0 monotone-ish", ("join", ("var", 0), ("cyl", 0, ("var", 0))),
                      ("cyl", 0, ("var", 0)))
        verdict = check_equation_on_subuniverse(a_k1, eq, a_k1.generated_subalgebra(()))
        assert verdict.holds and verdict.mode == "subalgebra"

    def test_subalgebra_of_atoms_blows_the_bound(self, a_k1):
        # the boolean layer generates the power set of reachable regions
        with pytest.raises(SizeLimitError):
            check_equation_on_subuniverse(a_k1, Equation("triv", ("var", 0), ("var", 0)),
                                          a_k1.generated_subalgebra((1 << 3, 1 << 20)))


X, Y, Z = ("var", 0), ("var", 1), ("var", 2)
# each fails on the constants-only subalgebra; (x * y) * z = 0 holds on the
# first 1,024 assignments (x = 0), so its first failure is in a later column
FAILING = [Equation("c0x=x", ("cyl", 0, X), X),
           Equation("x+y=x", ("join", X, Y), X),
           Equation("s(x)*y=y", ("meet", ("sub", (1, 1, 2), X), Y), Y),
           Equation("xyz=0", ("meet", ("meet", X, Y), Z), ("zero",)),
           Equation("c1(x*-y)+z=z", ("join", ("cyl", 1, ("meet", X, ("neg", Y))), Z), Z)]


class TestColumnTier:
    """check_equation_on_subuniverse against the per-assignment loop."""

    @pytest.mark.parametrize("graph", ["K1", "P3"])
    @pytest.mark.parametrize("signature", ["CA", "PEA"])
    def test_every_axiom_instance_matches_the_oracle(self, a_k1, p3_algebra, graph,
                                                     signature):
        base = a_k1 if graph == "K1" else p3_algebra
        algebra = FiniteBao(base.rel, signature)
        sub = pick_subalgebra(algebra, random.Random(41))
        assert len(sub) == 32
        eqs = ca_axioms(3) if signature == "CA" else pea_axioms(3)
        assert [check_equation_on_subuniverse(algebra, eq, sub) for eq in eqs] == \
            [check_equation_per_assignment(algebra, eq, sub) for eq in eqs]

    @pytest.mark.parametrize("eq", FAILING, ids=lambda eq: eq.name)
    def test_failing_equations_match_the_oracle(self, p3_algebra, eq):
        sub = p3_algebra.generated_subalgebra(())
        verdict = check_equation_on_subuniverse(p3_algebra, eq, sub)
        assert not verdict.holds
        assert verdict == check_equation_per_assignment(p3_algebra, eq, sub)

    @pytest.mark.parametrize("length", [5, 32])
    def test_leading_values_outside_the_trailing_pieces(self, p3_algebra, monkeypatch, length):
        # at 5 the last variable's 32 values come in 7 pieces, each paired
        # with every value of the leading variables in product order
        monkeypatch.setattr("graphbao.equations.COLUMN_LENGTH", length)
        sub = p3_algebra.generated_subalgebra(())
        for eq in FAILING:
            assert check_equation_on_subuniverse(p3_algebra, eq, sub) == \
                check_equation_per_assignment(p3_algebra, eq, sub), eq.name

    def test_first_failure_in_a_later_column(self, p3_algebra):
        verdict = check_equation_on_subuniverse(p3_algebra, FAILING[3],
                                                p3_algebra.generated_subalgebra(()))
        assert verdict.checked > 1024


class TestAxiomSuites:
    def test_ca_axioms_pass_k1(self, a_k1):
        report = check_ca_axioms(a_k1, seed=1, samples=400)
        assert report.ok

    def test_ca_axioms_pass_k2(self, a_k2):
        report = check_ca_axioms(a_k2, seed=1, samples=300)
        assert report.ok

    def test_pea_axioms_pass_k1(self, a_k1):
        report = check_pea_axioms(a_k1, seed=1, samples=600)
        assert report.ok

    def test_fault_injection_fails_c2_or_c3(self, a_k1):
        broken = FiniteBao(corrupt_cyl_table(a_k1.rel, i=0, atom=5), "CA")
        assert not broken.c(0, 1 << 5) >> 5 & 1
        report = check_ca_axioms(broken, seed=1, samples=2000)
        assert not report.ok
        failing = {item.name.split("[")[0] for item in report.items
                   if item.status != "pass"}
        assert failing & {"C2", "C3"}


class TestDiscriminator:
    def test_k1(self, a_k1):
        report = check_discriminator(a_k1, seed=1)
        assert report.ok
        assert all(item.seconds > 0 for item in report.items)

    def test_zero_and_atoms_directly(self, a_k1):
        assert a_k1.discriminator(0) == 0
        for a in range(a_k1.natoms):
            assert a_k1.discriminator(1 << a) == a_k1.top

    def test_random_nonzero(self, a_k2):
        rng = random.Random(12)
        for _ in range(50):
            x = a_k2.sample_element(rng)
            if x:
                assert a_k2.discriminator(x) == a_k2.top


class TestUltrafilterStructure:
    def test_recovers_atom_structure(self, a_k1, a_k2):
        for algebra in (a_k1, a_k2):
            assert algebra.ultrafilter_structure().same_structure(algebra.rel)

    def test_same_structure_reads_relations_not_ids(self, a_k2):
        rel = a_k2.rel
        # the same partition under other class ids is the same relation
        flipped = tuple(tuple(len(m) - 1 - c for c in ids)
                        for ids, m in zip(rel.cyl_class_of, rel.cyl_class_masks))
        renamed = replace(rel, cyl_class_of=flipped,
                          cyl_class_masks=tuple(m[::-1] for m in rel.cyl_class_masks))
        assert renamed != rel and renamed.same_structure(rel) and rel.same_structure(renamed)
        # one atom given another class's id, at each coordinate in turn
        for i in range(rel.n):
            ids = list(rel.cyl_class_of[i])
            ids[100] = (ids[100] + 1) % len(rel.cyl_class_masks[i])
            moved = replace(rel, cyl_class_of=rel.cyl_class_of[:i] + (tuple(ids),)
                            + rel.cyl_class_of[i + 1:])
            assert not moved.same_structure(rel) and not rel.same_structure(moved)
        assert not replace(rel, diag_masks=rel.diag_masks[::-1]).same_structure(rel)

    def test_subst_relation_via_generators(self, a_k1):
        # the substituted ultrafilter is principal at the table image, and
        # relating holds exactly when the substituted filter equals the input
        structure = a_k1.atom_structure
        for sigma in all_sigmas(3):
            for y, atom in enumerate(structure.atoms):
                expected = structure.index_of(subst_atom_per_atom(atom, sigma))
                generator = [x for x in range(a_k1.natoms)
                             if a_k1.s(sigma, 1 << x) >> y & 1]
                assert generator == [expected]

    def test_subst_filter_composition(self, a_k1):
        from graphbao.atoms import compose_sigma
        rel = a_k1.ultrafilter_structure()
        for si, sigma in enumerate(all_sigmas(3)):
            for ti, tau in enumerate(all_sigmas(3)):
                combined = rel.subst_tables[all_sigmas(3).index(compose_sigma(sigma, tau))]
                for y in range(a_k1.natoms):
                    assert combined[y] == rel.subst_tables[ti][rel.subst_tables[si][y]]


class FlippedS(FiniteBao):
    """The one substitution kernel flips one output bit in every lane, for
    one map only, so s, s_many and the read-back all see the flip."""

    def __init__(self, rel, sigma, bit):
        super().__init__(rel)
        self.flip = sigma, bit

    def s_lanes(self, sigma, lanes):
        out = bytearray(super().s_lanes(sigma, lanes))
        if sigma == self.flip[0]:
            out[self.flip[1]] ^= 0xFF
        return bytes(out)


class ShiftedC0(FiniteBao):
    """c_0 sends each class to the next one: a partition, but not reflexive."""

    def c(self, i, x):
        out = super().c(i, x)
        if i:
            return out
        masks = self.rel.cyl_class_masks[0]
        return sum(masks[(k + 1) % len(masks)] for k, m in enumerate(masks) if m & out)


class CountingC(FiniteBao):
    """Counts the calls of c per coordinate."""

    def __init__(self, rel, signature="PEA"):
        super().__init__(rel, signature)
        self.calls = {}

    def c(self, i, x):
        self.calls[i] = self.calls.get(i, 0) + 1
        return super().c(i, x)


class MisreadC(FiniteBao):
    """c_i stays additive but answers `wrong` for the singleton of atom b:
    c_i(x) is c_i(x without b), joined with `wrong` when b is in x."""

    def __init__(self, rel, i, b, wrong):
        super().__init__(rel)
        self.misread = i, b, wrong

    def c(self, i, x):
        mi, b, wrong = self.misread
        if i != mi or not x >> b & 1:
            return super().c(i, x)
        return super().c(i, x & ~(1 << b)) | wrong


def misread_c(algebra, i, how):
    """A MisreadC at the second atom b of one of the two largest R_i classes,
    with the wrong answer of kind `how`.  The other class has a second atom
    too, so b and it share a transversal, and only the closure step sees the
    foreign atom."""
    own, other = sorted(algebra.rel.cyl_class_masks[i], key=int.bit_count)[-2:]
    b = list(iter_bits(own))[1]
    wrong = {"own class without b": own & ~(1 << b),
             "own class and a foreign atom": own | other & -other,
             "another class": other}[how]
    return MisreadC(algebra.rel, i, b, wrong)


class TestUltrafilterChecks:
    def test_read_map_matches_singletons_on_every_s_map(self, a_k1, a_k2):
        for algebra in (a_k1, a_k2):
            nat = algebra.natoms
            for sigma, table in zip(all_sigmas(3), algebra.rel.subst_tables):
                assert read_map(partial(algebra.s_lanes, sigma), nat, nat) == table
                preimage = partial(algebra.s, sigma)
                assert read_map_by_singletons(preimage, nat, nat) == table

    @pytest.mark.parametrize("rank, bit", [(0, 0), (5, 17), (13, 33), (26, 20)])
    def test_flipped_s_output_bit_is_caught(self, a_k1, rank, bit):
        broken = FlippedS(a_k1.rel, all_sigmas(3)[rank], bit)
        sigma, x = all_sigmas(3)[rank], 0b1011 << 9
        assert broken.s(sigma, x) == a_k1.s(sigma, x) ^ 1 << bit
        assert broken.s_many(sigma, [x] * 9) == [a_k1.s(sigma, x) ^ 1 << bit] * 9
        try:
            recovered = broken.ultrafilter_structure()
        except RuntimeError:
            return
        assert not recovered.same_structure(a_k1.rel)

    def test_irreflexive_c_is_an_internal_error(self, a_k1):
        broken = ShiftedC0(a_k1.rel)
        assert broken.c(0, a_k1.top) == a_k1.top
        with pytest.raises(RuntimeError, match="not reflexive"):
            broken.ultrafilter_structure()

    def test_non_partition_c_is_an_internal_error(self, a_k1):
        broken = FiniteBao(corrupt_cyl_table(a_k1.rel, 0, 5))
        with pytest.raises(RuntimeError, match="partition"):
            broken.ultrafilter_structure()

    @pytest.mark.parametrize("how", ["own class without b", "own class and a foreign atom",
                                     "another class"])
    @pytest.mark.parametrize("i", [0, 2])
    def test_additive_misread_off_the_lowest_atom_is_an_internal_error(self, a_k1, a_k2, i, how):
        for algebra in (a_k1, a_k2):
            broken = misread_c(algebra, i, how)
            with pytest.raises(RuntimeError):
                broken.ultrafilter_structure()
            with pytest.raises(RuntimeError):
                classes_by_singletons(broken, i)

    def test_signature_without_s_keeps_its_tables(self, a_k1):
        ca = FiniteBao(a_k1.rel, "CA")
        assert ca.ultrafilter_structure().same_structure(a_k1.rel)


class TestCanonicalExtension:
    def test_fixed_point_with_witness(self, a_k1):
        ext, witness = a_k1.canonical_extension()
        assert witness == list(range(a_k1.natoms))
        assert ext.rel.same_structure(a_k1.rel)
        assert ext.natoms == a_k1.natoms
        # the canonical embedding is the identity on bitmasks; spot-check ops
        rng = random.Random(13)
        for _ in range(50):
            x = a_k1.sample_element(rng)
            for i in range(3):
                assert ext.c(i, x) == a_k1.c(i, x)
            assert ext.d(0, 2) == a_k1.d(0, 2)


class TestGeneratedSubalgebra:
    def test_constants_only(self, a_k1):
        sub = a_k1.generated_subalgebra([])
        assert 0 in sub and a_k1.top in sub
        for i in range(3):
            for j in range(3):
                assert a_k1.d(i, j) in sub
        subset = set(sub)
        for x in sub:
            assert a_k1.neg(x) in subset
            for i in range(3):
                assert a_k1.c(i, x) in subset

    def test_closure_contains_cyl_images_of_generators(self, a_k1):
        gen = a_k1.d(0, 1) & a_k1.neg(a_k1.d(1, 2))
        sub = set(a_k1.generated_subalgebra([gen]))
        assert gen in sub
        for i in range(3):
            assert a_k1.c(i, gen) in sub

    def test_atom_closures_exceed_practical_bounds(self, a_k1):
        # the boolean layer separates nearly every atom reachable through
        # cylindrifications and substitutions, so one atom already blows up
        with pytest.raises(SizeLimitError):
            a_k1.generated_subalgebra([1 << 20], bound=2048)

    def test_bound(self, a_k2):
        with pytest.raises(SizeLimitError):
            a_k2.generated_subalgebra([1 << 3, 1 << 100, 1 << 200], bound=16)

    def test_lift_is_fixed_by_its_own_cylindrification(self, a_k1, k1_model):
        m = k1_model
        for B in range(1 << m.vertex_count):
            for i in range(3):
                lifted = m.lift(i, B)
                assert a_k1.c(i, lifted) == lifted


def closure_or_overflow(closure, *args):
    try:
        return closure(*args)
    except SizeLimitError as exc:
        return str(exc)


def generator_sets(algebra, rng):
    """Constants only, one to three random atoms, and one random element."""
    return ([[]] + [[1 << rng.randrange(algebra.natoms) for _ in range(k)] for k in (1, 2, 3)]
            + [[rng.getrandbits(algebra.natoms)]])


class TestGeneratedSubalgebraOracle:
    """Block refinement against the pairwise element closure: the same
    sorted element list, or the same SizeLimitError."""

    def assert_same_closures(self, algebra, gen_sets, bounds):
        verdicts = []
        for gens in gen_sets:
            for bound in bounds:
                fast = closure_or_overflow(algebra.generated_subalgebra, gens, bound)
                slow = closure_or_overflow(generated_subalgebra_closure, algebra, gens, bound)
                assert fast == slow, (gens, bound)
                verdicts.append(fast)
        return verdicts

    @pytest.mark.parametrize("signature", sorted(SIGNATURES))
    @pytest.mark.parametrize("fixture", ["a_k1", "a_k2", "p3_algebra"])
    def test_small_bounds(self, request, fixture, signature):
        algebra = FiniteBao(request.getfixturevalue(fixture).rel, signature)
        gen_sets = generator_sets(algebra, random.Random(f"{fixture}-{signature}"))
        verdicts = self.assert_same_closures(algebra, gen_sets, (16, 316))
        assert {type(v) for v in verdicts} == {str, list}  # both outcomes seen

    @pytest.mark.parametrize("signature", sorted(SIGNATURES))
    def test_default_bound(self, a_k1, signature):
        # the pairwise closure needs ~0.2 s per overflow at this bound, so
        # one atom and one element per signature
        algebra = FiniteBao(a_k1.rel, signature)
        gen_sets = generator_sets(algebra, random.Random(signature))
        self.assert_same_closures(algebra, [gen_sets[0], gen_sets[1], gen_sets[4]], (4096,))

    def test_corrupted_cyl_table(self, a_k1):
        # complete additivity holds for any class masks, reflexive or not
        algebra = FiniteBao(corrupt_cyl_table(a_k1.rel, 1, 5), "PEA")
        gen_sets = generator_sets(algebra, random.Random(3))
        self.assert_same_closures(algebra, gen_sets, (16, 316))
        self.assert_same_closures(algebra, gen_sets[:2], (4096,))


class TestSampledBias:
    def test_pool_contains_constants(self, a_k1):
        pool = a_k1.bias_pool()
        assert 0 in pool and a_k1.top in pool
        assert a_k1.d(0, 1) in pool

    def test_sampling_deterministic(self, a_k1):
        r1, r2 = random.Random(99), random.Random(99)
        xs = [a_k1.sample_element(r1) for _ in range(20)]
        ys = [a_k1.sample_element(r2) for _ in range(20)]
        assert xs == ys

    def test_check_equation_sampled_no_vars(self, a_k1):
        eq = Equation("d00=1", ("diag", 0, 0), ("one",))
        verdict = check_equation_sampled(a_k1, eq, 10, random.Random(1))
        assert verdict.holds and verdict.checked == 1
