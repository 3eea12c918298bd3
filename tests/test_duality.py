import random

import pytest

from graphbao.bao import complex_algebra
from graphbao.bitset import read_map
from graphbao.duality import (AtomPMorphism, GraphChain, chain_from_json,
                              chain_to_json, check_chain, dual_embedding,
                              dual_surjection, functoriality_spot_check,
                              identity_pmorphism, lift, validate_atom_pmorphism,
                              validate_embedding)
from graphbao.graph import (VertexMap, complete_graph, cycle_graph, graph_to_json,
                            is_p_morphism)
from oracles import embed_per_bit, read_map_by_singletons


@pytest.fixture(scope="module")
def wrap63(c6_structure, c3_structure):
    f = VertexMap(cycle_graph(6), cycle_graph(3), tuple(i % 3 for i in range(6)))
    return lift(f, 3, max_atoms=6000,
                source_structure=c6_structure, target_structure=c3_structure)


class TestLift:
    def test_identity_lift_is_identity(self, c3_structure):
        f = VertexMap(cycle_graph(3), cycle_graph(3), (0, 1, 2))
        lifted = lift(f, 3, source_structure=c3_structure,
                      target_structure=c3_structure)
        assert lifted.mapping == tuple(range(len(c3_structure)))

    def test_rejects_non_p_morphisms(self):
        f = VertexMap(complete_graph(2), complete_graph(2), (0, 0))
        assert not is_p_morphism(f)
        with pytest.raises(ValueError):
            lift(f, 3)

    def test_wrap_is_total_and_surjective(self, wrap63):
        assert len(wrap63.mapping) == len(wrap63.source) == 5671
        assert len(set(wrap63.mapping)) == len(wrap63.target) == 748

    def test_wrap_passes_all_checks(self, wrap63):
        report = validate_atom_pmorphism(wrap63)
        assert report.ok
        names = {item.name for item in report.items}
        assert "cylindric back" in names and "substitution equivariance (forth)" in names

    def test_identity_passes(self, c3_structure):
        assert validate_atom_pmorphism(identity_pmorphism(c3_structure)).ok

    def test_corrupted_map_fails(self, c3_structure):
        ident = identity_pmorphism(c3_structure)
        broken = list(ident.mapping)
        broken[5] = (broken[5] + 1) % len(c3_structure)
        report = validate_atom_pmorphism(
            AtomPMorphism(c3_structure, c3_structure, tuple(broken)),
            check_surjective=False)
        assert not report.ok


class TestDualEmbedding:
    def test_identity_dual_is_identity(self, c3_structure):
        emb = dual_embedding(identity_pmorphism(c3_structure))
        top = (1 << len(c3_structure)) - 1
        assert emb(top) == top
        assert emb(0b1011) == 0b1011

    def test_wrap_dual_validates(self, wrap63):
        emb = dual_embedding(wrap63)
        report = validate_embedding(emb, seed=1, samples=200)
        assert report.ok

    def test_unit_preserved(self, wrap63):
        emb = dual_embedding(wrap63)
        assert emb(emb.domain.top) == emb.codomain.top

    def test_injective_on_atoms(self, wrap63):
        emb = dual_embedding(wrap63)
        seen = set()
        for a in range(emb.domain.natoms):
            image = emb(1 << a)
            assert image != 0 and image not in seen
            seen.add(image)


class TestEmbeddingAgainstOracles:
    @pytest.mark.parametrize("which", ["identity", "wrap"])
    def test_embedding_matches_per_bit(self, which, c3_structure, wrap63):
        lifted = identity_pmorphism(c3_structure) if which == "identity" else wrap63
        emb = dual_embedding(lifted)
        dom = emb.domain
        rng = random.Random(30)
        probes = [0, dom.top] + [1 << a for a in range(dom.natoms)]
        probes += [rng.getrandbits(dom.natoms) for _ in range(200)]
        for x in probes:
            assert emb(x) == embed_per_bit(emb, x)

    def test_read_map_matches_singletons(self, wrap63):
        emb = dual_embedding(wrap63)
        nsrc, ntgt = emb.codomain.natoms, emb.domain.natoms
        assert read_map(emb, nsrc, ntgt) == read_map_by_singletons(emb, nsrc, ntgt)
        assert read_map(emb, nsrc, ntgt) == wrap63.mapping


class TestDualSurjection:
    def test_round_trip_identity(self, c3_structure):
        ident = identity_pmorphism(c3_structure)
        assert dual_surjection(dual_embedding(ident)).mapping == ident.mapping

    def test_round_trip_wrap(self, wrap63):
        emb = dual_embedding(wrap63)
        back = dual_surjection(emb)
        assert back.mapping == wrap63.mapping

    def test_surjectivity_by_image_count(self, wrap63):
        back = dual_surjection(dual_embedding(wrap63))
        assert len(set(back.mapping)) == len(wrap63.target)


class TestUltrafilterRoundTrip:
    def test_both_wrap_stages(self, c6_structure, c3_structure):
        for structure in (c3_structure, c6_structure):
            algebra = complex_algebra(structure)
            assert algebra.ultrafilter_structure().same_structure(structure.tables())


class TestChains:
    def test_constant_chain(self):
        c3a = cycle_graph(3)
        chain = GraphChain([c3a, c3a, c3a],
                           [VertexMap(c3a, c3a, (0, 1, 2)),
                            VertexMap(c3a, c3a, (0, 1, 2))])
        report = check_chain(chain, 3, seed=1, samples=60)
        assert report.ok

    def test_json_round_trip(self):
        c6, c3 = cycle_graph(6), cycle_graph(3)
        chain = GraphChain([c3, c6], [VertexMap(c6, c3, tuple(i % 3 for i in range(6)))])
        data = chain_to_json(chain)
        back = chain_from_json(data)
        assert [graph_to_json(g) for g in back.stages] == data["stages"]
        assert back.steps[0].mapping == chain.steps[0].mapping

    def test_wrap_chain_with_chromatic_report(self):
        c12, c6, c3 = cycle_graph(12), cycle_graph(6), cycle_graph(3)
        chain = GraphChain([c3, c6, c12],
                           [VertexMap(c6, c3, tuple(i % 3 for i in range(6))),
                            VertexMap(c12, c6, tuple(i % 6 for i in range(12)))])
        report = check_chain(chain, 3, seed=1, samples=40, max_atoms=50000)
        assert report.ok
        chis = [item.detail["chi"] for item in report.items
                if item.name.endswith("chromatic number")]
        assert chis == [3, 2, 2]

    def test_functoriality(self):
        f = VertexMap(cycle_graph(6), cycle_graph(3), tuple(i % 3 for i in range(6)))
        g = VertexMap(cycle_graph(12), cycle_graph(6), tuple(i % 6 for i in range(12)))
        assert functoriality_spot_check(f, g, 3, max_atoms=50000)

    def test_contravariance_of_duals(self, c6_structure, c3_structure):
        # ((g after f))+ agrees with f+ after g+ on sampled elements, with a
        # nontrivial outer map: the rotation automorphism of the triangle
        import random
        f = VertexMap(cycle_graph(6), cycle_graph(3), tuple(i % 3 for i in range(6)))
        rot = VertexMap(cycle_graph(3), cycle_graph(3), (1, 2, 0))
        lifted_f = lift(f, 3, source_structure=c6_structure,
                        target_structure=c3_structure)
        lifted_rot = lift(rot, 3, source_structure=c3_structure,
                          target_structure=c3_structure)
        composed = AtomPMorphism(
            c6_structure, c3_structure,
            tuple(lifted_rot.mapping[a] for a in lifted_f.mapping))
        emb_f = dual_embedding(lifted_f)
        emb_rot = dual_embedding(lifted_rot)
        emb_c = dual_embedding(composed)
        rng = random.Random(5)
        for _ in range(40):
            x = emb_rot.domain.sample_element(rng)
            assert emb_c(x) == emb_f(emb_rot(x))


class TestChainValidation:
    def test_mismatched_steps_rejected(self):
        c6, c3 = cycle_graph(6), cycle_graph(3)
        with pytest.raises(ValueError):
            GraphChain([c3, c6], [VertexMap(c3, c3, (0, 1, 2))])
