import hashlib
import random
from dataclasses import dataclass

import pytest

from graphbao.atoms import Atom, enumerate_atoms
from graphbao.bao import FiniteBao, complex_algebra
from graphbao.bitset import read_map
from graphbao.duality import (AlgebraEmbedding, AtomPMorphism, GraphChain,
                              chain_from_json, chain_to_json, check_chain,
                              dual_embedding, dual_surjection, extend_to_copies,
                              identity_pmorphism, lift, validate_atom_pmorphism,
                              validate_embedding)
from graphbao.graph import (VertexMap, complete_graph, cycle_graph, graph_to_json,
                            is_p_morphism, path_graph)
from oracles import atom_pmorphism_per_atom, embed_per_bit, read_map_by_singletons


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

    def test_wrap_mapping_pinned(self, wrap63):
        digest = hashlib.sha256(repr(wrap63.mapping).encode()).hexdigest()[:16]
        assert digest == "39a6591e7c43e035"

    def test_image_outside_the_target_raises(self, c6_structure):
        # the C6 atom valued (0, 0, 5) goes to values (0, 0, 2): vertices 0
        # and 2 of copy 0, which P3 leaves unjoined, so P3 has no such atom
        f = VertexMap(cycle_graph(6), cycle_graph(3), tuple(i % 3 for i in range(6)))
        with pytest.raises(RuntimeError, match=r"invalid atom from "
                           r"Atom\(k=\(0, 0, 5\), sim=\(0, 1, 2\)\)"):
            lift(f, 3, source_structure=c6_structure,
                 target_structure=enumerate_atoms(path_graph(3), 3))

    def test_wrap_passes_all_checks(self, wrap63):
        report = validate_atom_pmorphism(wrap63)
        assert report.ok
        assert all(item.seconds > 0 for item in report.items)
        names = {item.name for item in report.items}
        assert "cylindric back" in names and "substitution equivariance (forth)" in names

    def test_identity_passes(self, c3_structure):
        assert validate_atom_pmorphism(identity_pmorphism(c3_structure)).ok

    def test_corrupted_map_fails(self, c3_structure):
        ident = identity_pmorphism(c3_structure)
        broken = list(ident.mapping)
        broken[5] = (broken[5] + 1) % len(c3_structure)
        report = validate_atom_pmorphism(
            AtomPMorphism(c3_structure, c3_structure, tuple(broken)))
        assert not report.ok


class TestPMorphismAgainstPerAtomOracle:
    """The per-map check and the per-atom oracle give the same report, and a
    corrupted map fails the item it targets in both."""

    @staticmethod
    def reports(g):
        fast = validate_atom_pmorphism(g).to_dict(strip_timing=True)
        assert fast == atom_pmorphism_per_atom(g).to_dict(strip_timing=True)
        return {item["name"]: item["status"] for item in fast["items"]}

    @staticmethod
    def redirected(structure, pairs):
        mapping = list(range(len(structure)))
        for a, b in pairs:
            mapping[a] = b
        return AtomPMorphism(structure, structure, tuple(mapping))

    def test_valid_maps(self, c3_structure, wrap63):
        rot = lift(VertexMap(cycle_graph(3), cycle_graph(3), (1, 2, 0)), 3,
                   source_structure=c3_structure, target_structure=c3_structure)
        assert rot.mapping != tuple(range(len(c3_structure)))
        for g in (identity_pmorphism(c3_structure), wrap63, rot):
            assert set(self.reports(g).values()) == {"pass"}

    def test_corrupted_maps(self, c3_structure):
        last = len(c3_structure) - 1
        atoms = c3_structure.atoms
        assert atoms[0].sim != atoms[last].sim and atoms[1].sim == atoms[2].sim
        cases = {
            # the bottom atom sent to an atom of another partition
            "diagonal membership preserved and reflected": [(0, last)],
            # atom 5 sent to atom 6: its classes split, and nothing maps onto 5
            "cylindric forth": [(5, 6)],
            "surjective on atoms": [(5, 6)],
            # two pair atoms of one partition swapped
            "substitution equivariance (forth)": [(1, 2), (2, 1)],
        }
        for item, pairs in cases.items():
            assert self.reports(self.redirected(c3_structure, pairs))[item] == "fail"

    def test_back_fails_where_forth_holds(self):
        # K1 into K2 by the vertex map 0 -> 0: classes go into classes, but
        # the K2 classes hold atoms valued at the copies of vertex 1
        k1, k2 = enumerate_atoms(complete_graph(1), 3), enumerate_atoms(complete_graph(2), 3)
        mapped = extend_to_copies(VertexMap(complete_graph(1), complete_graph(2), (0,)), 3)
        images = tuple(k2.index_of(Atom(tuple(None if v is None else mapped(v) for v in a.k),
                                        a.sim)) for a in k1.atoms)
        status = self.reports(AtomPMorphism(k1, k2, images))
        assert status["cylindric forth"] == "pass"
        assert status["cylindric back"] == "fail"
        assert status["surjective on atoms"] == "fail"


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


@dataclass
class FlippedLane(AlgebraEmbedding):
    """The batched call flips bit 0 of one lane's image, in the per-sample
    batches of validate_embedding only: those are the batches of 5 + n
    elements whose lane 2 is the union of lanes 0 and 1 (x, y, x | y, ...).
    The batch of constants (1, 0, d_00, ...) has n * n + 2 elements."""

    lane: int = 0

    def many(self, elements):
        out = super().many(elements)
        if (len(elements) == 5 + self.domain.n
                and elements[2] == elements[0] | elements[1]):
            out[self.lane] ^= 1
        return out


@dataclass
class DroppedAtom(AlgebraEmbedding):
    """The batched call maps every element as if it lacked domain atom `atom`."""

    atom: int = 0

    def many(self, elements):
        return super().many([x & ~(1 << self.atom) for x in elements])


@dataclass
class FlippedByte(AlgebraEmbedding):
    """The lane kernel flips every lane's bit `byte` of its answer, so many,
    the embedding itself and the read-back all see the flip."""

    byte: int = 0

    def lanes(self, lanes):
        out = bytearray(super().lanes(lanes))
        out[self.byte] ^= 0xFF
        return bytes(out)


class TestEmbeddingMutations:
    @staticmethod
    def failed(emb):
        report = validate_embedding(emb, seed=1, samples=20)
        return {item.name for item in report.items if item.status != "pass"}

    def test_faithful_embedding_passes(self, wrap63):
        assert self.failed(dual_embedding(wrap63)) == set()

    # lanes of one sample at n = 3: x, y, x | y, -x, c_0 x, c_1 x, c_2 x, s x
    @pytest.mark.parametrize("lane, item", [
        (2, "boolean operations preserved (sampled)"),
        (4, "cylindrifications preserved (sampled)"),
        (7, "substitutions preserved (sampled)")])
    def test_flipped_lane_fails_its_item(self, wrap63, lane, item):
        emb = dual_embedding(wrap63)
        broken = FlippedLane(emb.domain, emb.codomain, emb.mapping, lane)
        assert self.failed(broken) == {item}

    def test_dropped_atom_preimage_fails_the_atom_item(self, wrap63):
        emb = dual_embedding(wrap63)
        broken = DroppedAtom(emb.domain, emb.codomain, emb.mapping, 100)
        assert broken.many([1 << 100]) == [0]
        assert "atom preimages nonempty and disjoint" in self.failed(broken)


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
        assert read_map(emb.lanes, nsrc, ntgt) == read_map_by_singletons(emb, nsrc, ntgt)
        assert read_map(emb.lanes, nsrc, ntgt) == wrap63.mapping


class TestDualSurjection:
    def test_round_trip_identity(self, c3_structure):
        ident = identity_pmorphism(c3_structure)
        assert dual_surjection(dual_embedding(ident)).mapping == ident.mapping

    def test_round_trip_wrap(self, wrap63):
        emb = dual_embedding(wrap63)
        back = dual_surjection(emb)
        assert back.mapping == wrap63.mapping

    def test_missing_provenance_is_internal_error(self, c3_structure):
        rel = c3_structure.tables()
        emb = AlgebraEmbedding(FiniteBao(rel), FiniteBao(rel), tuple(range(rel.natoms)))
        with pytest.raises(RuntimeError):
            dual_surjection(emb)

    @pytest.mark.parametrize("byte", [0, 100, 5670])
    def test_flipped_lane_byte_is_caught(self, wrap63, byte):
        emb = dual_embedding(wrap63)
        broken = FlippedByte(emb.domain, emb.codomain, emb.mapping, byte)
        assert broken(0) == 1 << byte
        try:
            back = dual_surjection(broken)
        except RuntimeError:
            return
        assert back.mapping != wrap63.mapping

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

    def test_every_item_is_timed(self):
        c6, c3 = cycle_graph(6), cycle_graph(3)
        chain = GraphChain([c3, c6], [VertexMap(c6, c3, tuple(i % 3 for i in range(6)))])
        report = check_chain(chain, 3, seed=1, samples=20, max_atoms=6000)
        assert report.ok and len(report.items) == 8
        assert all(item.seconds > 0 for item in report.items)

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
        # lift(f after g) == lift(f) after lift(g) on the C12 -> C6 -> C3 maps
        assert "steps 2->0: lifts compose" in {item.name for item in report.items}

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
