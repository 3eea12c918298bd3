import copy
import random
from dataclasses import replace

import pytest

from graphbao import ags
from graphbao.atoms import all_sigmas, sigma_rank
from graphbao.bao import FiniteBao
from graphbao.bitset import iter_bits
from graphbao.graph import Graph, chromatic_number, complete_graph, cycle_graph, path_graph
from oracles import (cyl_relatedness_pairwise, preimage_masks, proj_per_bit, subst_atom_per_atom,
                     substitution_properties_per_element, theta_by_cover_search, theta_literal,
                     with_cyl_classes)

RELATEDNESS = "cylindric relatedness is diagonal agreement plus equal projection"
PRINCIPAL = "projection of a principal ultrafilter"


def random_graph(nv, p, rng):
    edges = [(i, j) for i in range(nv) for j in range(i + 1, nv) if rng.random() < p]
    return Graph.from_edges(nv, edges)


def failing_items(m) -> set[str]:
    report = ags.check_projection_properties(m)
    return {item.name for item in report.items if item.status != "pass"}


class TestBuildModel:
    def test_k1_shape(self, k1_model):
        m = k1_model
        assert m.algebra.natoms == 34
        assert m.vertex_count == 3
        assert len(m.h_masks) == 3
        assert all(mask.bit_count() == 1 for mask in m.h_masks)

    def test_blocks_partition(self, k2_model):
        union = 0
        for mask in k2_model.h_masks:
            assert union & mask == 0
            union |= mask
        assert union == k2_model.vtop

    def test_cross_block_edges_exhaustive(self, k2_model):
        m = k2_model
        for x in range(m.vertex_count):
            for y in range(m.vertex_count):
                if x != y and not m.same_block(x, y):
                    assert m.graph.has_edge(x, y)

    def test_block_report(self, k1_model):
        assert ags.check_block_structure(k1_model).ok


class TestProjLift:
    def test_projection_values(self, k1_model):
        m = k1_model
        for idx, atom in enumerate(m.structure.atoms):
            for i in range(3):
                image = m.proj(i, 1 << idx)
                if atom.k[i] is None:
                    assert image == 0
                else:
                    assert image == 1 << atom.k[i]

    def test_lift_membership(self, k2_model):
        m = k2_model
        rng = random.Random(1)
        for _ in range(30):
            B = m.sample_vertex_set(rng)
            for i in range(3):
                lifted = m.lift(i, B)
                for a in iter_bits(lifted):
                    atom = m.structure.atoms[a]
                    assert atom.k[i] is not None and B >> atom.k[i] & 1

    def test_suite_passes_k1(self, k1_model):
        assert ags.check_rs_properties(k1_model, seed=1, samples=150).ok

    def test_suite_passes_k2(self, k2_model):
        assert ags.check_rs_properties(k2_model, seed=1, samples=100).ok

    def test_fault_injected_lift_fails_round_trip(self, k1_model):
        import copy
        m = copy.copy(k1_model)
        masks = [list(per) for per in m._lift_masks]
        masks[0][0] &= masks[0][0] - 1  # drop one atom from the lift of vertex 0
        m._lift_masks = tuple(tuple(per) for per in masks)
        report = ags.check_rs_properties(m, seed=1, samples=50)
        failing = {item.name for item in report.items if item.status != "pass"}
        assert "projection undoes lift" in failing or "lift of projection covers" in failing
        # proj reads the same lift table; the exhaustive item ties it to proj_points
        assert "projection of a principal ultrafilter" in failing_items(m)

    @pytest.mark.parametrize("name", ["k1_model", "k2_model", "p3_model"])
    def test_proj_matches_per_bit_oracle(self, name, request):
        m = request.getfixturevalue(name)
        A = m.algebra
        rng = random.Random(3)
        elements = [0, A.top] + [1 << a for a in range(A.natoms)]
        elements += [rng.getrandbits(A.natoms) for _ in range(200)]
        for i in range(m.n):
            for x in elements:
                assert m.proj(i, x) == proj_per_bit(m, i, x), (i, hex(x))


class TestProjectionSuite:
    def test_k1_exhaustive(self, k1_model):
        assert ags.check_projection_properties(k1_model).ok

    def test_k2_exhaustive(self, k2_model):
        assert ags.check_projection_properties(k2_model).ok

    @pytest.mark.parametrize("name", ["k1_model", "k2_model"])
    def test_relatedness_matches_pairwise_oracle(self, name, request):
        m = request.getfixturevalue(name)
        assert RELATEDNESS not in failing_items(m)
        assert cyl_relatedness_pairwise(m)

    @pytest.mark.parametrize("name", ["k1_model", "k2_model"])
    def test_moved_projection_point_fails_the_principal_item(self, name, request):
        # one point a vertex off, with the lift masks rebuilt from it: the principal
        # item reads the expected point off the atom, so it fails with the others
        m = request.getfixturevalue(name)
        points = [list(row) for row in m.proj_points]
        a = next(a for a, point in enumerate(points[0]) if point is not None)
        points[0][a] = (points[0][a] + 1) % m.vertex_count
        broken = copy.copy(m)
        broken.__dict__["proj_points"] = tuple(map(tuple, points))  # shadows the cached property
        broken.__post_init__()
        assert failing_items(broken) == {
            PRINCIPAL, RELATEDNESS, "diagonal membership merges projections",
            "unique distinguishing-diagonal atom per vertex", "substitution permutes projections"}

    @pytest.mark.parametrize("name", ["k1_model", "k2_model"])
    def test_atom_moved_to_another_class_fails(self, name, request):
        m = request.getfixturevalue(name)
        for i in range(m.n):
            class_of = list(m.algebra.rel.cyl_class_of[i])
            # move the last atom outside the class of atom 0 into it
            a = next(a for a in reversed(range(len(class_of)))
                     if class_of[a] != class_of[0])
            class_of[a] = class_of[0]
            broken = with_cyl_classes(m, i, class_of)
            assert failing_items(broken) == {RELATEDNESS}
            assert not cyl_relatedness_pairwise(broken)

    @pytest.mark.parametrize("name", ["k1_model", "k2_model"])
    def test_atom_split_into_fresh_class_fails(self, name, request):
        m = request.getfixturevalue(name)
        for i in range(m.n):
            class_of = list(m.algebra.rel.cyl_class_of[i])
            # an atom sharing its class leaves that class for a new one
            a = next(a for a in range(len(class_of)) if class_of.count(class_of[a]) > 1)
            class_of[a] = max(class_of) + 1
            broken = with_cyl_classes(m, i, class_of)
            assert failing_items(broken) == {RELATEDNESS}
            assert not cyl_relatedness_pairwise(broken)

    def test_relabelled_classes_pass(self, k2_model):
        # the item compares partitions, not class ids
        m = k2_model
        class_of = [-cid for cid in m.algebra.rel.cyl_class_of[1]]
        broken = with_cyl_classes(m, 1, class_of)
        assert not failing_items(broken)
        assert cyl_relatedness_pairwise(broken)

    def test_related_atoms_agree_on_foreign_diagonals(self, k1_model):
        # forward direction restated at atom level
        m = k1_model
        rel = m.algebra.rel
        for i in range(3):
            for a in range(m.algebra.natoms):
                for b in range(m.algebra.natoms):
                    if rel.cyl_class_of[i][a] != rel.cyl_class_of[i][b]:
                        continue
                    for j in range(3):
                        for k in range(3):
                            if j != i and k != i:
                                assert (m.algebra.d(j, k) >> a & 1) == \
                                    (m.algebra.d(j, k) >> b & 1)


def drawn_and_report(m, check, seed, samples):
    """The elements check(m, seed, samples) draws, in order, and its report
    without timing."""
    algebra = m.algebra
    sample, log = algebra.sample_element, []

    def recording(rng, pool=None):
        log.append(sample(rng, pool))
        return log[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "sample_element", recording)
        report = check(m, seed, samples)
    return log, report.to_json(strip_timing=True)


class TestSubstitutionSuite:
    def test_k1(self, k1_model):
        assert ags.check_substitution_properties(k1_model, seed=1, samples=60).ok

    def test_k2(self, k2_model):
        assert ags.check_substitution_properties(k2_model, seed=1, samples=40).ok

    @pytest.mark.parametrize("seed, samples", [(1, 60), (41, 20), (3, 7)])
    def test_matches_the_per_element_oracle(self, k2_model, seed, samples):
        # same items and verdicts, and the same elements drawn in the same order
        assert (drawn_and_report(k2_model, ags.check_substitution_properties, seed, samples)
                == drawn_and_report(k2_model, substitution_properties_per_element, seed,
                                    samples))

    @pytest.mark.parametrize("sigma", [(2, 1, 0), (0, 0, 1)])
    def test_swapped_composite_table_fails(self, k1_model, sigma):
        # two entries of a map's table swapped: it is still an atom map, so
        # only the composition law can tell
        rel = k1_model.algebra.rel
        rank = sigma_rank(3)[sigma]
        table = list(rel.subst_tables[rank])
        a = 0
        b = next(x for x in range(len(table)) if table[x] != table[a])
        table[a], table[b] = table[b], table[a]
        tables = rel.subst_tables[:rank] + (tuple(table),) + rel.subst_tables[rank + 1:]
        broken = ags.AgsModel(FiniteBao(replace(rel, subst_tables=tables)),
                              k1_model.structure, k1_model.base_graph, 3)
        report = ags.check_substitution_properties(broken, seed=1, samples=60)
        failing = {item.name for item in report.items if item.status != "pass"}
        assert "substitution composes contravariantly" in failing
        oracle = substitution_properties_per_element(broken, seed=1, samples=60)
        assert failing == {item.name for item in oracle.items if item.status != "pass"}

    @pytest.mark.parametrize("graph, n", [(complete_graph(1), 3), (complete_graph(2), 3),
                                          (complete_graph(1), 4)], ids=["K1n3", "K2n3", "K1n4"])
    def test_preimage_masks_match_subst_atom(self, graph, n):
        # the table search's masks (oracles.preimage_masks), against the
        # atom action itself, not against subst_tables
        m = ags.build_model(graph, n)
        atoms = m.structure.atoms
        expected = []
        for sigma in all_sigmas(n):
            row = [0] * len(atoms)
            for x, atom in enumerate(atoms):
                row[m.structure.index_of(subst_atom_per_atom(atom, sigma))] |= 1 << x
            expected.append(row)
        assert [list(row) for row in preimage_masks(m)] == expected
        everything = (1 << len(atoms)) - 1
        for row in preimage_masks(m):
            union = 0
            for mask in row:
                assert not union & mask
                union |= mask
            assert union == everything


class TestTheta:
    def test_k1_values(self, k1_model):
        assert ags.theta(k1_model, 2) is True
        assert ags.theta(k1_model, 3) is False

    def test_explicit_three_cover(self, k1_model):
        # the three singleton blocks cover the triangle
        m = k1_model
        union = 0
        for mask in m.h_masks:
            union |= mask
        assert union == m.vtop

    def test_monotone(self, k1_model, k2_model):
        for m in (k1_model, k2_model):
            values = [ags.theta(m, k) for k in range(7)]
            for k in range(6):
                if values[k + 1]:
                    assert values[k]

    def test_matches_cover_oracle(self, k1_model, k2_model):
        for m in (k1_model, k2_model):
            for k in range(7):
                assert ags.theta(m, k) == theta_by_cover_search(m, k)

    def test_matches_literal_oracle_tiny(self, k1_model):
        for k in range(4):
            assert ags.theta(k1_model, k) == theta_literal(k1_model, k)

    def test_literal_oracle_on_p3(self):
        m = ags.build_model(path_graph(3), 3)
        for k in range(4):
            expected = chromatic_number(m.graph)[0] > k
            assert theta_literal(m, k) == expected

    def test_equivalence_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(5):
            g = random_graph(rng.randrange(2, 5), 0.5, rng)
            chi = chromatic_number(g)[0]
            m = ags.build_model(g, 3)
            for k in range(7):
                assert ags.theta(m, k) == (3 * chi > k)

    def test_rejects_negative(self, k1_model):
        with pytest.raises(ValueError):
            ags.theta(k1_model, -1)

    def test_literal_oracle_gated(self):
        from graphbao.errors import InfeasibleError
        m = ags.build_model(path_graph(3), 3)
        with pytest.raises(InfeasibleError):
            theta_literal(m, 6)


class TestRunSuite:
    def test_all_pass_on_k1(self, k1_model):
        report = ags.run_suite(k1_model, "all", seed=1, samples=80)
        assert report.ok
        assert len(report.items) > 10

    def test_report_order_is_stable(self, k1_model):
        first = [i.name for i in ags.run_suite(k1_model, "all", seed=1, samples=30).items]
        second = [i.name for i in ags.run_suite(k1_model, "all", seed=1, samples=30).items]
        assert first == second

    def test_c5_suite_count_gated(self):
        m = ags.build_model(cycle_graph(5), 3)
        assert ags.check_rs_properties(m, seed=1, samples=25).ok
        assert ags.check_projection_properties(m).ok
        assert ags.check_substitution_properties(m, seed=1, samples=20).ok

    def test_every_item_is_timed(self, k1_model):
        report = ags.run_suite(k1_model, "all")
        assert report.items and all(item.seconds > 0 for item in report.items)

    def test_p3_suite(self):
        m = ags.build_model(path_graph(3), 3)
        assert ags.run_suite(m, "all", seed=1, samples=40).ok
