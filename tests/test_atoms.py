import itertools
import random

import pytest

from graphbao.atoms import (Atom, all_partitions, all_sigmas, canonical_partition,
                            compose_sigma, enumerate_atoms, is_i_distinguishing,
                            restrict_partition)
from graphbao.bao import subst_generators
from graphbao.errors import SizeLimitError
from graphbao.graph import Graph, complete_graph, cycle_graph, path_graph
from oracles import (atom_is_valid, cyl_equiv, diag_member, naive_atom_set, subst_atom,
                     subst_atom_per_atom)

K1_HASH = "0bd8160f29277b4718062d2ac08adab8259cfd2946cbbe9dc02da239e0c16f2a"


class TestPartitions:
    def test_canonicalization(self):
        assert canonical_partition((5, 2, 5)) == (0, 1, 0)

    def test_all_partitions_n3(self):
        assert all_partitions(3) == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
                                     (0, 1, 2))

    def test_restriction(self):
        assert restrict_partition((0, 1, 0), 1) == (0, 0)
        assert restrict_partition((0, 0, 1), 0) == (0, 1)

    def test_identity_is_distinguishing_everywhere(self):
        for i in range(3):
            assert is_i_distinguishing((0, 1, 2), i)

    def test_pair_block_cases(self):
        assert not is_i_distinguishing((0, 0, 1), 2)
        assert is_i_distinguishing((0, 0, 1), 0)
        assert is_i_distinguishing((0, 0, 1), 1)


class TestEnumeration:
    def test_k1_golden_count(self):
        s = enumerate_atoms(complete_graph(1), 3)
        assert len(s) == 34
        by_blocks = {}
        for a in s.atoms:
            by_blocks.setdefault(max(a.sim) + 1, []).append(a)
        assert len(by_blocks[3]) == 24
        assert len(by_blocks[2]) == 9
        assert len(by_blocks[1]) == 1

    def test_k2_golden_count(self):
        s = enumerate_atoms(complete_graph(2), 3)
        assert len(s) == 229
        by_blocks = {}
        for a in s.atoms:
            by_blocks.setdefault(max(a.sim) + 1, []).append(a)
        assert len(by_blocks[3]) == 210
        assert len(by_blocks[2]) == 18
        assert len(by_blocks[1]) == 1

    def test_unique_bottom_atom(self):
        for g in (complete_graph(1), path_graph(3), cycle_graph(5)):
            s = enumerate_atoms(g, 3)
            bottoms = [a for a in s.atoms if max(a.sim) == 0]
            assert bottoms == [Atom((None, None, None), (0, 0, 0))]

    @pytest.mark.parametrize("graph", [
        complete_graph(1),
        complete_graph(2),
        path_graph(3),
        complete_graph(3),
        Graph(2, (0, 0)),
        Graph(3, (0b010, 0b001, 0b000)),
    ])
    def test_matches_naive_oracle(self, graph):
        s = enumerate_atoms(graph, 3)
        assert {(a.k, a.sim) for a in s.atoms} == naive_atom_set(graph, 3)

    def test_order_is_stable_and_hashed(self):
        s = enumerate_atoms(complete_graph(1), 3)
        again = enumerate_atoms(complete_graph(1), 3)
        assert s.atoms == again.atoms
        assert [a.sort_key() for a in s.atoms] == sorted(a.sort_key() for a in s.atoms)
        assert s.golden_hash() == again.golden_hash() == K1_HASH

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            enumerate_atoms(cycle_graph(6), 3, max_atoms=100)

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            enumerate_atoms(complete_graph(1), 2)
        with pytest.raises(ValueError):
            enumerate_atoms(complete_graph(1), 6)

    def test_n4_small_graph(self):
        s = enumerate_atoms(complete_graph(1), 4)
        # every atom respects the validity clauses at n=4 too
        assert all(atom_is_valid(a, s.inflated) for a in s.atoms)
        assert len({a for a in s.atoms}) == len(s)

    def test_n4_matches_naive_oracle(self):
        s = enumerate_atoms(complete_graph(1), 4)
        assert {(a.k, a.sim) for a in s.atoms} == naive_atom_set(complete_graph(1), 4)

    def test_n5_matches_naive_oracle(self):
        # enumeration stays exact at the top of the supported range; the
        # full algebra at n=5 is impractical (5^5 substitution maps)
        s = enumerate_atoms(complete_graph(1), 5)
        assert {(a.k, a.sim) for a in s.atoms} == naive_atom_set(complete_graph(1), 5)

    def test_atom_json(self):
        s = enumerate_atoms(complete_graph(1), 3)
        data = s.atom_to_json(s.atoms[0])
        assert data == {"sim": [0, 0, 0], "K": [None, None, None]}


class TestDistinguishing:
    def test_defined_iff_distinguishing(self, k1_model):
        for atom in k1_model.structure.atoms:
            for i in range(3):
                assert (atom.k[i] is not None) == is_i_distinguishing(atom.sim, i)


class TestCylEquiv:
    def test_reflexive(self, k1_model):
        for atom in k1_model.structure.atoms:
            for i in range(3):
                assert cyl_equiv(atom, atom, i)

    def test_bottom_vs_pair(self, k1_model):
        # restrictions differ exactly when i lies in the pair block, so the
        # empty atom is related to a pair atom only off its block
        bottom = Atom((None, None, None), (0, 0, 0))
        pair01 = Atom((0, 0, None), (0, 0, 1))
        assert not cyl_equiv(bottom, pair01, 0)
        assert not cyl_equiv(bottom, pair01, 1)
        assert cyl_equiv(bottom, pair01, 2)

    def test_is_equivalence_relation(self, k1_model):
        atoms = k1_model.structure.atoms
        for i in range(3):
            related = {(a, b) for a in range(len(atoms)) for b in range(len(atoms))
                       if cyl_equiv(atoms[a], atoms[b], i)}
            for a in range(len(atoms)):
                assert (a, a) in related
            for a, b in related:
                assert (b, a) in related
            for a, b in related:
                for c in range(len(atoms)):
                    if (b, c) in related:
                        assert (a, c) in related


class TestPatternMasks:
    @pytest.mark.parametrize("graph, n", [(complete_graph(2), 3), (path_graph(3), 3),
                                          (complete_graph(1), 4)], ids=["K2n3", "P3n3", "K1n4"])
    def test_masks_match_per_atom_loop(self, graph, n):
        structure = enumerate_atoms(graph, n)
        expected: dict = {}
        for idx, atom in enumerate(structure.atoms):
            expected[atom.sim] = expected.get(atom.sim, 0) | 1 << idx
        assert structure.pattern_masks == expected
        assert list(structure.pattern_masks) == list(expected)


class TestDiagMember:
    def test_d_ii_all(self, k1_model):
        for atom in k1_model.structure.atoms:
            for i in range(3):
                assert diag_member(atom, i, i)

    def test_bottom_in_all(self):
        bottom = Atom((None, None, None), (0, 0, 0))
        for i in range(3):
            for j in range(3):
                assert diag_member(bottom, i, j)

    def test_total_atoms_off_diagonal(self, k1_model):
        for atom in k1_model.structure.atoms:
            if max(atom.sim) + 1 == 3:
                assert not any(diag_member(atom, i, j)
                               for i in range(3) for j in range(3) if i != j)


class TestSubstAction:
    def test_identity(self, k1_model):
        for atom in k1_model.structure.atoms:
            assert subst_atom(atom, (0, 1, 2)) == atom

    def test_injective_is_composition(self, k1_model):
        for sigma in itertools.permutations(range(3)):
            for atom in k1_model.structure.atoms:
                image = subst_atom(atom, sigma)
                expected = tuple(atom.k[sigma[i]] for i in range(3))
                assert image.k == expected

    def test_composition_law_exhaustive(self, k1_model):
        atoms = k1_model.structure.atoms
        sigmas = all_sigmas(3)
        for sigma in sigmas:
            for tau in sigmas:
                combined = compose_sigma(sigma, tau)
                for atom in atoms:
                    assert subst_atom(subst_atom(atom, sigma), tau) == \
                        subst_atom(atom, combined)

    def test_output_always_valid(self, k2_model):
        rng = random.Random(4)
        structure = k2_model.structure
        sigmas = all_sigmas(3)
        for atom in structure.atoms:
            for sigma in rng.sample(sigmas, 9):
                image = subst_atom(atom, sigma)
                assert atom_is_valid(image, structure.inflated)
                assert structure.lookup(image.k, image.sim) is not None

    @pytest.mark.parametrize("graph", [complete_graph(1), complete_graph(2), path_graph(3)],
                             ids=["K1", "K2", "P3"])
    def test_plan_matches_per_atom_oracle(self, graph):
        structure = enumerate_atoms(graph, 3)
        for sigma in all_sigmas(3):
            for atom in structure.atoms:
                assert subst_atom(atom, sigma) == subst_atom_per_atom(atom, sigma), (atom, sigma)

    def test_plan_matches_per_atom_oracle_k2_n4(self):
        # the three generators of every map and a few of their composites
        structure = enumerate_atoms(complete_graph(2), 4)
        generators = subst_generators(4)
        sigmas = generators + tuple(compose_sigma(a, b) for a in generators for b in generators)
        sigmas += ((0, 0, 0, 0), (3, 3, 1, 1), (2, 0, 0, 2))
        for sigma in sigmas:
            for atom in structure.atoms:
                assert subst_atom(atom, sigma) == subst_atom_per_atom(atom, sigma), (atom, sigma)

    def test_relation_on_partitions(self, k1_model):
        for atom in k1_model.structure.atoms:
            for sigma in all_sigmas(3):
                image = subst_atom(atom, sigma)
                for i in range(3):
                    for j in range(3):
                        assert (image.sim[i] == image.sim[j]) == \
                            (atom.sim[sigma[i]] == atom.sim[sigma[j]])
